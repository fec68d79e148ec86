"""Sum-product message passing for both graph kinds, fixed points and
the message-based Bethe partition function.

Messages are kept normalized to component sum one.  A directed message is
keyed by ``(edge position, receiving node index)``; the update for the
message into node ``f_j`` along edge ``e`` is computed at the opposite
endpoint ``f_i`` from its local function and the messages entering ``f_i``
on the remaining edges.

A message vector lives in one complex array with a zero-padded row per
directed key: rows 2i and 2i + 1 are the messages into the head and into
the tail of edge i.  A sweep works on that array through a plan built once
per graph: nodes whose local functions have the same shape form a group
whose tensors are stacked, and each group contracts its stack with the
messages entering it by chains of batched matrix-vector and vector-matrix
products (``np.matmul``), whatever the group's size: the legs' outgoing
messages share their partial products, and the node sums contract one leg
at a time from the back.  The plan takes any leading axes on the array:
:func:`spa_run` stacks the message arrays of all its restarts, and one
sweep updates every restart that is still live with those same products.
Random messages, for the starts and for the redraws after a degenerate
edge, come from one routine that draws for all restarts at once the bits
each would draw alone.
"""

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from . import config
from ._kernels import jacobi_eigh
from .errors import StructuralError
from .nfg import STANDARD, finite

ZERO_TOL = 1e-12        # degenerate-edge trigger of a sweep
FIXED_POINT_TOL = 1e-9  # message residual declaring convergence
Z_EDGE_TOL = 1e-9       # smallest usable edge normalizer Z_e
ZB_TIE_RTOL = 1e-12     # Re Z_B of two restarts this close is one value


class MessageVector:
    """Normalized directed messages of one graph, keyed by (edge position,
    node index).

    ``rows`` is one read-only complex array with a zero-padded row per key
    of ``plan``, the graph's sweep plan, in the order of its keys; ``m[key]``
    is a view of a row cut to the key's axis size.  Build one with
    :func:`messages`.
    """

    def __init__(self, plan, rows):
        rows.flags.writeable = False
        self.plan, self.rows = plan, rows

    def __getitem__(self, key):
        r = self.plan.index[key]
        return self.rows[r, :self.plan.sizes[r]]


def _filled(g, row):
    """The message vector of ``g`` whose row for each directed key, in the
    plan's order, holds ``row(key, n)``, ``n`` being the key's axis size."""
    plan = _plan(g)
    rows = np.zeros((len(plan.keys), plan.width), dtype=np.complex128)
    for r, (key, n) in enumerate(zip(plan.keys, plan.sizes)):
        rows[r, :n] = row(key, n)
    return MessageVector(plan, rows)


def messages(g, mapping):
    """The message vector of ``g`` holding ``mapping[key]`` at every
    directed key; ``StructuralError`` on a missing key, an extra key or a
    vector whose length is not the key's axis size."""
    plan = _plan(g)
    missing = [key for key in plan.keys if key not in mapping]
    extra = [key for key in mapping if key not in plan.index]
    if missing or extra:
        raise StructuralError(f"messages do not match the graph's directed "
                              f"keys: missing {missing}, extra {extra}")

    def row(key, n):
        vec = np.asarray(mapping[key], dtype=np.complex128)
        if vec.shape != (n,):
            raise StructuralError(f"message {key!r} has shape {vec.shape}; "
                                  f"its edge needs ({n},)")
        return vec

    return _filled(g, row)


def uniform_messages(g):
    return _filled(g, lambda key, n: 1.0 / n)


_ATTEMPTS = 64    # refused attempts in a row before a draw gives up


def _draw(g, plan, keys, rngs):
    """Random normalized messages at ``keys`` from each of ``rngs``: an
    array ``(len(rngs), len(keys), plan.width)`` of zero-padded rows.

    Each rng draws its messages one after another in key order.  On a
    standard graph a message is one Dirichlet(1, ..., 1) draw.  On a
    double-edge graph it is the first attempt that projects to a
    normalizable PSD matrix (:func:`_psd_project`), an attempt being ``n*n``
    radius uniforms then ``n*n`` angle uniforms in ``[0, 2 pi)``;
    ``RuntimeError`` after 64 refusals in a row.  A run of keys with one
    alphabet is drawn for all rngs at once, and every rng ends where those
    one-at-a-time draws leave it.
    """
    out = np.zeros((len(rngs), len(keys), plan.width), dtype=np.complex128)
    stop = 0
    for n, run in itertools.groupby(g.edges[i].alphabet for i, _k in keys):
        start, stop = stop, stop + len(list(run))
        if g.kind == STANDARD:
            for b, rng in enumerate(rngs):
                out[b, start:stop, :n] = rng.dirichlet(np.ones(n),
                                                       size=stop - start)
        else:
            out[:, start:stop, :n * n] = _psd_draws(rngs, stop - start, n)
    return out


def _psd_draws(rngs, count, n):
    """``count`` PSD messages of alphabet ``n`` from each rng, shape
    ``(len(rngs), count, n*n)``.

    An attempt takes ``2 n^2`` doubles of its rng (a uniform draw is
    ``low + (high - low) * rng.random()``), and whether it is refused
    depends on those doubles alone.  So each round draws, from every rng
    still short, as many attempts as it lacks messages, projects the
    attempts of all of them in one stack and appends each rng's accepted
    ones: no rng draws past its last message.  The first round is the
    largest, so the draw buffer is checked against the cap once, before it.
    """
    size = 2 * n * n
    config.check_capacity("contract", len(rngs) * count * size,
                          "SPA start draws")
    out = np.empty((len(rngs), count, n * n), dtype=np.complex128)
    have = [0] * len(rngs)
    refused = [0] * len(rngs)   # each rng's refusals in a row
    short = list(range(len(rngs)))
    while short:
        lack = [count - have[b] for b in short]
        flat, ok = _psd_project(np.concatenate(
            [rngs[b].random((k, size)) for b, k in zip(short, lack)]), n)
        owner = np.repeat(short, lack)
        slots = []
        for b, accepted in zip(owner.tolist(), ok.tolist()):
            if accepted:
                slots.append(have[b])
                have[b] += 1
                refused[b] = 0
            else:
                refused[b] += 1
                if refused[b] == _ATTEMPTS:
                    raise RuntimeError(
                        "could not draw a normalizable random message")
        out[owner[ok], slots] = flat[ok]
        short = [b for b in short if have[b] < count]
    return out


def _psd_project(attempts, n):
    """Each row of ``attempts`` (``n*n`` radius doubles, then ``n*n``
    angle doubles) as a complex vector projected onto the PSD cone and
    renormalized, and whether that is possible (component sum at least
    1e-12 in modulus): ``(messages, accepted)``."""
    radius = np.sqrt(attempts[:, :n * n])
    angle = 2.0 * np.pi * attempts[:, n * n:]
    vec = radius * np.exp(1j * angle)
    vals, vecs = jacobi_eigh(vec.reshape(-1, n, n))
    vals = np.clip(vals, 0.0, None)
    c = (vecs * vals[:, None, :]) @ np.swapaxes(vecs, -1, -2).conj()
    flat = c.reshape(len(attempts), n * n)
    s = flat.sum(axis=-1)
    ok = np.abs(s) >= 1e-12
    return flat / np.where(ok, s, 1.0)[:, None], ok


# ------------------------------------------------------------------ #
# the sweep plan                                                      #
# ------------------------------------------------------------------ #

@dataclass
class _NodeGroup:
    """Nodes sharing one local-function shape, their tensors stacked."""

    nodes: np.ndarray      # node indices
    tensors: np.ndarray    # (n_group, *sizes), the stacked local functions
    sizes: tuple           # axis size of each leg
    in_rows: list          # per leg: rows of the messages entering
    out_rows: list         # per leg: rows of the messages leaving

    def incoming(self, rows):
        return [rows[..., r, :n] for r, n in zip(self.in_rows, self.sizes)]

    def sums(self, msgs):
        """The tensors contracted with the messages on every leg,
        ``(..., n_group)``: one matrix-vector product per leg, from the
        back."""
        x = self.tensors
        for b in reversed(range(len(self.sizes))):
            x = _back(x, msgs[b], self.sizes[:b + 1])
        return x


def _back(x, m, sizes):
    """``x``, of shape ``(..., n_group, *sizes)``, contracted on its last
    axis with the vectors ``m``, ``(..., n_group, sizes[-1])``: one
    batched matrix-vector product."""
    lead = x.shape[:x.ndim - len(sizes)]
    out = np.matmul(x.reshape(lead + (-1, sizes[-1])), m[..., None])
    return out.reshape(out.shape[:-2] + sizes[:-1])


def _front(x, m, sizes):
    """``x``, of shape ``(..., n_group, *sizes)``, contracted on its first
    leg axis with the vectors ``m``, ``(..., n_group, sizes[0])``: one
    batched vector-matrix product."""
    lead = x.shape[:x.ndim - len(sizes)]
    out = np.matmul(m[..., None, :], x.reshape(lead + (sizes[0], -1)))
    return out.reshape(out.shape[:-2] + sizes[1:])


def _legs(x, msgs, sizes):
    """Per leg a of ``x``, of shape ``(..., n_group, *sizes)``, ``x``
    contracted with the messages ``msgs`` on every other leg, ``(...,
    n_group, sizes[a])``: a group's outgoing messages when ``x`` is its
    stacked tensors.

    The legs split in halves.  The first half's outgoing messages all
    contract ``x`` with the second half's messages, which that product
    does once, leg by leg from the back; the second half's contract it
    with the first half's, from the front.  Each half then splits again,
    so a degree-d group takes about d log2(d) products.
    """
    if len(sizes) < 2:
        return [x] * len(sizes)
    mid = len(sizes) // 2
    head = tail = x
    for b in reversed(range(mid, len(sizes))):
        head = _back(head, msgs[b], sizes[:b + 1])
    for b in range(mid):
        tail = _front(tail, msgs[b], sizes[b:])
    return (_legs(head, msgs[:mid], sizes[:mid])
            + _legs(tail, msgs[mid:], sizes[mid:]))


class _SweepPlan:
    """Row layout of a message array and the batched node contractions
    of one sweep on a graph.  The contractions take message arrays with
    any leading axes, ``(..., rows, width)``."""

    def __init__(self, g):
        # the head key, then the tail key, of each edge: rows 2i and 2i + 1
        self.keys = tuple((i, k) for i, e in enumerate(g.edges)
                          for k in (e.head, e.tail))
        self.index = {key: r for r, key in enumerate(self.keys)}
        self.sizes = tuple(g.axis_size(i) for i, _node in self.keys)
        self.width = max(self.sizes, default=0)
        self.n_nodes = g.n_nodes
        self.heads = np.array([e.head for e in g.edges], dtype=np.int64)
        self.tails = np.array([e.tail for e in g.edges], dtype=np.int64)
        # max|t_f| per node (1 for an all-zero function), and per row that
        # of the node sending the message, whose function produces it: the
        # tail for row 2i, the head for row 2i + 1
        mag = np.array([np.max(np.abs(t), initial=0.0) for t in g.tensors])
        self.node_mag = np.where(mag > 0.0, mag, 1.0)
        self.row_mag = self.node_mag[
            np.column_stack((self.tails, self.heads)).reshape(-1)]
        by_shape = {}
        for k in range(g.n_nodes):
            by_shape.setdefault(g.tensors[k].shape, []).append(k)
        self.groups = [self._group(g, nodes)
                       for nodes in by_shape.values()]

    def _group(self, g, nodes):
        in_rows = [np.array([self.index[(g.incidences[k][a], k)]
                             for k in nodes])
                   for a in range(g.degree(nodes[0]))]
        return _NodeGroup(
            nodes=np.array(nodes),
            tensors=np.stack([g.tensors[k] for k in nodes]),
            sizes=g.tensors[nodes[0]].shape, in_rows=in_rows,
            # the same edge's other key: row 2i <-> row 2i + 1
            out_rows=[r ^ 1 for r in in_rows])

    def rows_of(self, m):
        """The message array of ``m``, which must be laid out in this
        plan's keys and sizes (``StructuralError`` otherwise)."""
        if m.plan is not self and (m.plan.keys, m.plan.sizes) != (
                self.keys, self.sizes):
            raise StructuralError(
                "the message vector belongs to a graph with other "
                "directed keys or axis sizes")
        return m.rows

    def raw(self, rows):
        """Unnormalized outgoing messages of every node."""
        out = np.zeros_like(rows)
        for grp in self.groups:
            legs = _legs(grp.tensors, grp.incoming(rows), grp.sizes)
            for a, vec in enumerate(legs):
                out[..., grp.out_rows[a], :grp.sizes[a]] = vec
        return out

    def node_sums(self, rows):
        """Per-node contraction of the local function with its messages."""
        out = np.empty(rows.shape[:-2] + (self.n_nodes,),
                       dtype=np.complex128)
        for grp in self.groups:
            out[..., grp.nodes] = grp.sums(grp.incoming(rows))
        return out

    def edge_sums(self, rows):
        """Per-edge overlap of the two opposing messages."""
        return np.sum(rows[..., 0::2, :] * rows[..., 1::2, :], axis=-1)


_PLANS = weakref.WeakKeyDictionary()


def _plan(g):
    """The sweep plan of ``g``, built on first use."""
    plan = _PLANS.get(g)
    if plan is None:
        plan = _PLANS[g] = _SweepPlan(g)
    return plan


# ------------------------------------------------------------------ #
# one synchronous update                                              #
# ------------------------------------------------------------------ #

def raw_updates(g, m):
    """Unnormalized outgoing messages, as a message vector, and their
    scaling factors (component sums), one per row of it."""
    plan = _plan(g)
    raw = plan.raw(plan.rows_of(m))
    return MessageVector(plan, raw), raw.sum(axis=1)


@dataclass
class StepInfo:
    degenerate_edges: list    # edge positions
    map_residual: float = float("inf")


def _sweep(g, plan, rows, rngs, damping):
    """One synchronous sweep of a stack of message arrays, ``rows`` of
    shape ``(restarts, rows, width)``, each restart with its own ``rng``
    and its own ``damping``.  Returns the new stack, each restart's map
    residual and each restart's list of degenerate edges, as
    :func:`spa_step` states them for one."""
    raw = plan.raw(rows)
    kappa = raw.sum(axis=-1)

    # a message whose normalizer vanishes keeps its old value until the
    # reinitialization below replaces it
    rel = kappa / plan.row_mag
    live = np.abs(rel) > ZERO_TOL
    new = np.where(live[..., None],
                   raw / np.where(live, kappa, 1.0)[..., None], rows)
    map_residual = np.max(np.abs(new - rows), axis=(1, 2), initial=0.0)

    rel_node = plan.node_sums(new) / plan.node_mag
    # an overflowing product comes out inf or NaN; neither passes the zero
    # test, and a product that large is not degenerate
    with np.errstate(over="ignore", invalid="ignore"):
        prod = (rel[:, 0::2] * rel[:, 1::2]
                * plan.edge_sums(new)
                * rel_node[:, plan.heads] * rel_node[:, plan.tails])
    bad = np.abs(prod) <= ZERO_TOL
    degenerate = ([np.flatnonzero(row).tolist() for row in bad] if bad.any()
                  else [[] for _ in bad])

    reinit = np.zeros(rows.shape[:2], dtype=bool)
    for b, edges in enumerate(degenerate):
        if not edges:
            continue
        keys = sorted({(j, node) for i in edges
                       for node in (g.edges[i].head, g.edges[i].tail)
                       for j in g.incidences[node]})
        redrawn = [plan.index[key] for key in keys]
        new[b, redrawn] = _draw(g, plan, keys, [rngs[b]])[0]
        reinit[b, redrawn] = True
        map_residual[b] = np.inf

    damping = np.asarray(damping, dtype=np.float64)
    if damping.any():
        keep = (damping != 0.0)[:, None] & ~reinit
        d = np.broadcast_to(damping[:, None], keep.shape)[keep][:, None]
        new[keep] = (1.0 - d) * new[keep] + d * rows[keep]
    return new, map_residual.tolist(), degenerate


def spa_step(g, m, rng=None, damping=0.0):
    """One synchronous sweep of all directed messages.

    The degeneracy test multiplies the two message normalizers of an edge
    with the edge- and endpoint-belief normalizers of the freshly updated
    messages, each node's normalizers divided by the magnitude of its local
    function so that no overall factor on a function moves the test; when
    the product is (numerically) zero, every message
    incident to either endpoint is redrawn from ``rng`` (PSD-projected on
    double-edge graphs), or from a fresh ``default_rng(0)`` when ``rng``
    is None.

    ``info.map_residual`` is the change produced by the plain update,
    before damping, and is what convergence is judged on.
    """
    plan = _plan(g)
    if rng is None:
        rng = np.random.default_rng(0)
    new, map_residual, degenerate = _sweep(
        g, plan, plan.rows_of(m)[None], [rng], [damping])
    return (MessageVector(plan, new[0]),
            StepInfo(degenerate[0], map_residual[0]))


# ------------------------------------------------------------------ #
# partition-function pieces                                           #
# ------------------------------------------------------------------ #

def bethe_value(g, m):
    """The per-node sums Z_f of each local function against its messages,
    the per-edge overlaps Z_e of the two opposing messages, and the
    message-based Bethe partition value prod Z_f / prod Z_e, which is None
    when some edge overlap vanishes; ``ValidationError`` if it overflows."""
    plan = _plan(g)
    rows = plan.rows_of(m)
    z_f = dict(zip(g.node_names, plan.node_sums(rows).tolist()))
    z_e = dict(zip((e.eid for e in g.edges), plan.edge_sums(rows).tolist()))
    zb = 1.0 + 0.0j
    for v in z_f.values():
        zb *= v
    for v in z_e.values():
        if abs(v) <= Z_EDGE_TOL:
            return z_f, z_e, None
        zb /= v
    return z_f, z_e, finite(zb, "the Bethe value")


# ------------------------------------------------------------------ #
# the driver                                                          #
# ------------------------------------------------------------------ #

@dataclass
class SpaReport:
    converged: bool
    iterations: int
    residual: float
    restarts_used: int
    restarts_converged: int
    messages: MessageVector
    z_f: dict = None
    z_e: dict = None
    zb_spa: complex = None
    degenerate_log: list = None    # (restart, iteration, edge position)
    damping_used: float = 0.0
    restart: int = 0               # the index of the reported restart
    damping_switched_at: int = None   # the iteration damping switched on

    @property
    def zb_defined(self):
        return self.zb_spa is not None

    @property
    def degenerate_events(self):
        return len(self.degenerate_log or [])


def _restarts(g, rows, rngs, max_iter, tol_fp, damping):
    """One report per start, restart r sweeping from the message array
    ``rows[r]`` with ``rngs[r]``; the Bethe pieces only of the restarts
    that converged.

    Every sweep covers all restarts still live, stacked in one array.  A
    restart leaves the stack at its first converged sweep or after
    ``max_iter`` sweeps, and switches from no damping to 0.5 when its
    residual stops shrinking over a window."""
    plan = _plan(g)
    damping_now = [damping] * len(rows)
    switched_at = [None] * len(rows)
    history = [[] for _ in rows]
    events = [[] for _ in rows]
    live = list(range(len(rows)))
    for it in range(1, max_iter + 1):
        new, residuals, degenerate = _sweep(
            g, plan, rows[live], [rngs[r] for r in live],
            [damping_now[r] for r in live])
        rows[live] = new
        still = []
        for r, res, edges in zip(live, residuals, degenerate):
            events[r].extend((r, it, i) for i in edges)
            h = history[r]
            h.append(res)
            if res <= tol_fp:
                continue
            # oscillation fallback: residual not shrinking over a window
            if (damping_now[r] == 0.0 and it >= 60
                    and h[-1] > 0.9 * h[-40]):
                damping_now[r], switched_at[r] = 0.5, it
            still.append(r)
        live = still
        if not live:
            break
    reports = []
    for r, h in enumerate(history):
        converged = h[-1] <= tol_fp
        m = MessageVector(plan, rows[r])
        z_f, z_e, zb = bethe_value(g, m) if converged else (None, None, None)
        reports.append(SpaReport(
            converged=converged, iterations=len(h), residual=h[-1],
            restarts_used=1, restarts_converged=int(converged), messages=m,
            z_f=z_f, z_e=z_e, zb_spa=zb, degenerate_log=events[r],
            damping_used=damping_now[r], restart=r,
            damping_switched_at=switched_at[r]))
    return reports


def spa_run(g, max_iter=10000, tol_fp=FIXED_POINT_TOL, damping=0.0,
            restarts=8, seed=0):
    """Iterate the sum-product update from several starts and keep the
    converged fixed point with the largest Re of the Bethe value, values
    within a relative ``ZB_TIE_RTOL`` of the largest counting as ties.

    These defaults are stated here only; the CLI reads its SPA flags'
    defaults from this signature.  Restart 0 starts from uniform messages
    and restart r >= 1 from random messages; restart r draws its start and
    its redraws after a degenerate edge from ``default_rng([seed, r])``.
    A restart has converged when one sweep moves no message component by
    more than ``tol_fp``.  Each restart sweeps with ``damping``; one that
    starts undamped switches to 0.5 when its residual stops shrinking
    over a window of sweeps.  One sweep updates every restart
    still live, their message arrays stacked in one array whose size the
    ``contract`` cap bounds.  Ties go to the earliest restart, a converged
    restart without a Bethe value is reported only when no converged one
    has one, and restart 0 when none converged.  A non-convergent run is
    reported, not raised; out-of-range settings are refused before any
    sweep.
    """
    if max_iter < 1:
        raise StructuralError(f"max_iter must be positive, got {max_iter}")
    if restarts < 1:
        raise StructuralError(f"restarts must be positive, got {restarts}")
    if not 0.0 <= damping < 1.0:
        raise StructuralError(f"damping must lie in [0, 1), got {damping}")
    if not tol_fp >= 0.0:
        raise StructuralError(f"tol_fp must be nonnegative, got {tol_fp}")
    plan = _plan(g)
    config.check_capacity("contract", restarts * len(plan.keys) * plan.width,
                          "SPA restart batch")
    rngs = [np.random.default_rng([seed, r]) for r in range(restarts)]
    starts = np.empty((restarts, len(plan.keys), plan.width),
                      dtype=np.complex128)
    starts[0] = uniform_messages(g).rows
    starts[1:] = _draw(g, plan, plan.keys, rngs[1:])
    reports = _restarts(g, starts, rngs, max_iter, tol_fp, damping)
    best = max(reports, key=lambda rep: (
        rep.converged, rep.zb_spa.real if rep.zb_defined else -np.inf))
    if best.zb_defined:
        # values this close differ by rounding alone
        floor = best.zb_spa.real - ZB_TIE_RTOL * abs(best.zb_spa.real)
        best = next(rep for rep in reports
                    if rep.zb_defined and rep.zb_spa.real >= floor)
    best.restarts_used = restarts
    best.restarts_converged = sum(rep.converged for rep in reports)
    best.degenerate_log = [ev for rep in reports for ev in rep.degenerate_log]
    return best

