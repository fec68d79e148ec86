"""Sum-product message passing for both graph kinds, fixed points,
beliefs and the message-based Bethe partition function.

Messages are kept normalized to component sum one.  A directed message is
keyed by ``(edge id, receiving node index)``; the update for the message
into node ``f_j`` along edge ``e`` is computed at the opposite endpoint
``f_i`` from its local function and the messages entering ``f_i`` on the
remaining edges.

A message vector lives in one complex array with a zero-padded row per
directed key.  A sweep works on that array through a plan built once per
graph: nodes whose local functions have the same shape form a group whose
tensors are stacked, so each group needs one batched einsum per leg for
its outgoing messages and one for its node sums, whatever its size.
"""

import string
import weakref
from dataclasses import dataclass

import numpy as np

from . import config
from ._kernels import jacobi_eigh
from .errors import DegenerateBeliefError, StructuralError, ValidationError
from .nfg import STANDARD, finite

_LETTERS = string.ascii_letters[:-1]   # "Z" indexes the stacked nodes
_BELIEF_TOL = 1e-6   # slack of the pmf and local-consistency checks


class MessageVector:
    """Normalized directed messages of one graph, keyed by (edge id, node
    index).

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

    def __iter__(self):
        return iter(self.plan.keys)


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
    rows = np.zeros((len(plan.keys), plan.width), dtype=np.complex128)
    for r, (key, n) in enumerate(zip(plan.keys, plan.sizes)):
        vec = np.asarray(mapping[key], dtype=np.complex128)
        if vec.shape != (n,):
            raise StructuralError(f"message {key!r} has shape {vec.shape}; "
                                  f"its edge needs ({n},)")
        rows[r, :n] = vec
    return MessageVector(plan, rows)


def uniform_messages(g):
    plan = _plan(g)
    rows = np.zeros((len(plan.keys), plan.width), dtype=np.complex128)
    for r, n in enumerate(plan.sizes):
        rows[r, :n] = 1.0 / n
    return MessageVector(plan, rows)


def _psd_project(vec, base):
    """Project a double-edge message onto the PSD cone and renormalize."""
    c = vec.reshape(base, base)
    c = (c + c.conj().T) / 2.0
    vals, vecs = jacobi_eigh(c)
    vals = np.clip(vals, 0.0, None)
    c = (vecs * vals) @ vecs.conj().T
    flat = c.reshape(-1)
    s = flat.sum()
    if abs(s) < 1e-12:
        return None
    return flat / s


def random_message(g, eid, rng):
    """One random normalized message (PSD-projected for double edges)."""
    n = g.edge(eid).alphabet
    if g.kind == STANDARD:
        return rng.dirichlet(np.ones(n)).astype(np.complex128)
    for _ in range(64):
        radius = np.sqrt(rng.uniform(size=n * n))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n * n)
        vec = radius * np.exp(1j * angle)
        out = _psd_project(vec, n)
        if out is not None:
            return out
    raise RuntimeError("could not draw a normalizable random message")


def random_messages(g, rng):
    plan = _plan(g)
    rows = np.zeros((len(plan.keys), plan.width), dtype=np.complex128)
    for r, (eid, _node) in enumerate(plan.keys):
        rows[r, :plan.sizes[r]] = random_message(g, eid, rng)
    return MessageVector(plan, rows)


# ------------------------------------------------------------------ #
# the sweep plan                                                      #
# ------------------------------------------------------------------ #

@dataclass
class _NodeGroup:
    """Nodes sharing one local-function shape, and their einsums."""

    nodes: np.ndarray      # node indices
    tensors: np.ndarray    # (n_group, *shape), the stacked local functions
    sizes: tuple           # axis size of each leg
    in_rows: list          # per leg: rows of the messages entering
    out_rows: list         # per leg: rows of the messages leaving
    leave_one_out: list    # per leg: "Zabc,Zb,Zc->Za"
    full: str              # "Zabc,Za,Zb,Zc->Z"

    def incoming(self, rows):
        return [rows[r, :n] for r, n in zip(self.in_rows, self.sizes)]


class _SweepPlan:
    """Row layout of a message array and the batched node contractions
    of one sweep on a graph."""

    def __init__(self, g):
        self.keys = tuple(g.directed_keys())
        self.index = {key: r for r, key in enumerate(self.keys)}
        self.sizes = tuple(g.axis_size(eid) for eid, _node in self.keys)
        self.width = max(self.sizes, default=0)
        self.n_nodes = g.n_nodes
        # directed_keys lists the head key, then the tail key, of each edge
        self.head_rows = np.arange(0, len(self.keys), 2)
        self.tail_rows = self.head_rows + 1
        self.heads = np.array([e.head for e in g.edges], dtype=np.int64)
        self.tails = np.array([e.tail for e in g.edges], dtype=np.int64)
        # max|t_f| per node (1 for an all-zero function), and per row that
        # of the node sending the message, whose function produces it
        mag = np.array([np.max(np.abs(t), initial=0.0) for t in g.tensors])
        self.node_mag = np.where(mag > 0.0, mag, 1.0)
        self.row_mag = self.node_mag[[g.other_endpoint(eid, k)
                                      for eid, k in self.keys]]
        by_shape = {}
        for k in range(g.n_nodes):
            by_shape.setdefault(g.tensors[k].shape, []).append(k)
        self.groups = [self._group(g, nodes)
                       for nodes in by_shape.values()]

    def _group(self, g, nodes):
        d = g.degree(nodes[0])
        subs = _LETTERS[:d]
        in_rows, out_rows = [], []
        for a in range(d):
            in_rows.append(np.array(
                [self.index[(g.incidences[k][a], k)] for k in nodes]))
            out_rows.append(np.array(
                [self.index[(g.incidences[k][a],
                             g.other_endpoint(g.incidences[k][a], k))]
                 for k in nodes]))
        leave_one_out = [
            "Z" + subs + "".join(",Z" + subs[b] for b in range(d) if b != a)
            + "->Z" + subs[a] for a in range(d)]
        full = "Z" + subs + "".join(",Z" + c for c in subs) + "->Z"
        return _NodeGroup(
            nodes=np.array(nodes),
            tensors=np.stack([g.tensors[k] for k in nodes]),
            sizes=g.tensors[nodes[0]].shape, in_rows=in_rows,
            out_rows=out_rows, leave_one_out=leave_one_out, full=full)

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
            msgs = grp.incoming(rows)
            for a, expr in enumerate(grp.leave_one_out):
                out[grp.out_rows[a], :grp.sizes[a]] = np.einsum(
                    expr, grp.tensors, *msgs[:a], *msgs[a + 1:])
        return out

    def node_sums(self, rows):
        """Per-node contraction of the local function with its messages."""
        out = np.empty(self.n_nodes, dtype=np.complex128)
        for grp in self.groups:
            out[grp.nodes] = np.einsum(grp.full, grp.tensors,
                                       *grp.incoming(rows))
        return out

    def edge_sums(self, rows):
        """Per-edge overlap of the two opposing messages."""
        return np.sum(rows[self.head_rows] * rows[self.tail_rows], axis=1)


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

def _raw(g, m):
    """The plan of ``g``, the message array of ``m``, the raw updates and
    their sums."""
    plan = _plan(g)
    rows = plan.rows_of(m)
    raw = plan.raw(rows)
    return plan, rows, raw, raw.sum(axis=1)


def raw_updates(g, m):
    """Unnormalized outgoing messages, as a message vector, and their
    scaling factors (component sums), one per row of it."""
    plan, _rows, raw, kappa = _raw(g, m)
    return MessageVector(plan, raw), kappa


@dataclass
class StepInfo:
    degenerate_edges: list
    map_residual: float = float("inf")


def spa_step(g, m, rng=None, damping=0.0):
    """One synchronous sweep of all directed messages.

    The degeneracy test multiplies the two message normalizers of an edge
    with the edge- and endpoint-belief normalizers of the freshly updated
    messages, each node's normalizers divided by the magnitude of its local
    function so that no overall factor on a function moves the test; when
    the product is (numerically) zero, every message
    incident to either endpoint is redrawn from ``rng`` (PSD-projected on
    double-edge graphs).  Beliefs are not stored between sweeps, so their
    reinitialization happens implicitly at the next read.

    ``info.map_residual`` is the change produced by the plain update,
    before damping, and is what convergence is judged on.
    """
    tol_zero = config.TOLS.zero
    plan, rows, raw, kappa = _raw(g, m)

    # a message whose normalizer vanishes keeps its old value until the
    # reinitialization below replaces it
    rel = kappa / plan.row_mag
    live = np.abs(rel) > tol_zero
    new = np.where(live[:, None],
                   raw / np.where(live, kappa, 1.0)[:, None], rows)
    map_residual = float(np.max(np.abs(new - rows), initial=0.0))

    rel_node = plan.node_sums(new) / plan.node_mag
    # an overflowing product comes out inf or NaN; neither passes the zero
    # test, and a product that large is not degenerate
    with np.errstate(over="ignore", invalid="ignore"):
        prod = (rel[plan.head_rows] * rel[plan.tail_rows]
                * plan.edge_sums(new)
                * rel_node[plan.heads] * rel_node[plan.tails])
    degenerate = [g.edges[i].eid
                  for i in np.nonzero(np.abs(prod) <= tol_zero)[0]]

    reinit_keys = set()
    for eid in degenerate:
        e = g.edge(eid)
        for node in (e.head, e.tail):
            for other_eid in g.incidences[node]:
                reinit_keys.add((other_eid, node))
    reinit = np.zeros(len(plan.keys), dtype=bool)
    if reinit_keys:
        if rng is None:
            rng = np.random.default_rng(0)
        for key in sorted(reinit_keys):
            r = plan.index[key]
            new[r, :plan.sizes[r]] = random_message(g, key[0], rng)
            reinit[r] = True
        map_residual = float("inf")

    if damping:
        keep = ~reinit
        new[keep] = (1.0 - damping) * new[keep] + damping * rows[keep]
    return MessageVector(plan, new), StepInfo(degenerate, map_residual)


# ------------------------------------------------------------------ #
# partition-function pieces                                           #
# ------------------------------------------------------------------ #

def node_normalizers(g, m):
    """Per-node sums Z_f of the local function against its messages."""
    plan = _plan(g)
    return dict(zip(g.node_names,
                    plan.node_sums(plan.rows_of(m)).tolist()))


def edge_normalizers(g, m):
    """Per-edge overlaps Z_e of the two opposing messages."""
    plan = _plan(g)
    return dict(zip((e.eid for e in g.edges),
                    plan.edge_sums(plan.rows_of(m)).tolist()))


def bethe_partition_value(z_f, z_e):
    """Message-based Bethe partition value prod Z_f / prod Z_e, or None
    when some edge overlap vanishes; ``ValidationError`` if it overflows."""
    out = 1.0 + 0.0j
    for v in z_f.values():
        out *= v
    for v in z_e.values():
        if abs(v) <= config.TOLS.z_edge:
            return None
        out /= v
    return finite(out, "the Bethe value")


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
    degenerate_log: list = None    # (restart, iteration, edge id) triples
    damping_used: float = 0.0

    @property
    def zb_defined(self):
        return self.zb_spa is not None

    @property
    def degenerate_events(self):
        return len(self.degenerate_log or [])


def _single_run(g, m, max_iter, tol_fp, damping, rng, restart):
    events = []
    damping_now = damping
    history = []
    res = float("inf")
    for it in range(1, max_iter + 1):
        new, info = spa_step(g, m, rng=rng, damping=damping_now)
        events.extend((restart, it, eid) for eid in info.degenerate_edges)
        res = info.map_residual
        history.append(res)
        m = new
        if res <= tol_fp:
            return m, True, it, res, events, damping_now
        # oscillation fallback: residual not shrinking over a window
        if (damping_now == 0.0 and it >= 60 and
                history[-1] > 0.9 * history[-40]):
            damping_now = 0.5
    return m, False, max_iter, res, events, damping_now


def spa_run(g, init="uniform", max_iter=10000, tol_fp=None, damping=0.0,
            restarts=8, seed=0):
    """Iterate the sum-product update from several starts and keep the
    converged fixed point with the largest Re of the Bethe value.

    ``init`` picks the first start (``uniform`` or ``seeded-random``);
    every further restart uses fresh random messages.  A non-convergent
    run is reported, not raised; out-of-range settings are refused before
    any sweep.
    """
    if init not in ("uniform", "seeded-random"):
        raise StructuralError(f"init must be 'uniform' or 'seeded-random', "
                              f"got {init!r}")
    if max_iter < 1:
        raise StructuralError(f"max_iter must be positive, got {max_iter}")
    tol_fp = config.TOLS.fixed_point if tol_fp is None else tol_fp
    if restarts < 1:
        raise StructuralError(f"restarts must be positive, got {restarts}")
    if not 0.0 <= damping < 1.0:
        raise StructuralError(f"damping must lie in [0, 1), got {damping}")
    if not tol_fp >= 0.0:
        raise StructuralError(f"tol_fp must be nonnegative, got {tol_fp}")
    best = None
    best_score = None
    n_converged = 0
    event_log = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        if r == 0 and init == "uniform":
            m0 = uniform_messages(g)
        else:
            m0 = random_messages(g, rng)
        m, conv, its, res, events, damp = _single_run(
            g, m0, max_iter, tol_fp, damping, rng, r)
        event_log.extend(events)
        z_f = node_normalizers(g, m)
        z_e = edge_normalizers(g, m)
        zb = bethe_partition_value(z_f, z_e) if conv else None
        if conv:
            n_converged += 1
        score = zb.real if zb is not None else -np.inf
        candidate = SpaReport(
            converged=conv, iterations=its, residual=res,
            restarts_used=restarts, restarts_converged=0,
            messages=m, z_f=z_f if conv else None,
            z_e=z_e if conv else None, zb_spa=zb, damping_used=damp)
        if conv and (best is None or not best.converged
                     or score > best_score):
            best, best_score = candidate, score
        elif best is None:
            best, best_score = candidate, score
    best.restarts_converged = n_converged
    best.degenerate_log = event_log
    return best


# ------------------------------------------------------------------ #
# beliefs and the Bethe free energy                                   #
# ------------------------------------------------------------------ #

@dataclass
class Beliefs:
    edge: dict   # edge id -> normalized vector
    node: dict   # node name -> normalized tensor


def beliefs_at(g, m):
    """Edge and node beliefs induced by a message vector."""
    plan = _plan(g)
    rows = plan.rows_of(m)
    kappa_node = plan.node_sums(rows)
    pair = rows[plan.head_rows] * rows[plan.tail_rows]
    kappa_edge = pair.sum(axis=1)
    bad = np.flatnonzero(kappa_edge == 0.0)
    if bad.size:
        raise DegenerateBeliefError(
            f"edge {g.edges[bad[0]].eid!r}: belief normalizer vanished")
    bad = np.flatnonzero(kappa_node == 0.0)
    if bad.size:
        raise DegenerateBeliefError(
            f"node {g.node_names[bad[0]]!r}: belief normalizer vanished")
    edge = {e.eid: pair[i, :plan.sizes[2 * i]] / kappa_edge[i]
            for i, e in enumerate(g.edges)}
    node = [None] * g.n_nodes
    for grp in plan.groups:
        t = grp.tensors.copy()
        d = len(grp.sizes)
        for a, msg in enumerate(grp.incoming(rows)):
            shape = [len(grp.nodes)] + [1] * d
            shape[1 + a] = -1
            t = t * msg.reshape(shape)
        for j, k in enumerate(grp.nodes):
            node[k] = t[j] / kappa_node[k]
    return Beliefs(edge, dict(zip(g.node_names, node)))


def consistency_defect(g, b):
    """Largest gap between node marginals and edge beliefs."""
    worst = 0.0
    for idx, name in enumerate(g.node_names):
        t = b.node[name]
        incident = g.incidences[idx]
        for a, eid in enumerate(incident):
            axes = tuple(x for x in range(len(incident)) if x != a)
            marg = t.sum(axis=axes) if axes else t
            worst = max(worst, float(np.max(np.abs(marg - b.edge[eid]))))
    return worst


def _entropy(p):
    p = np.real(p).reshape(-1)
    mask = p > 0.0
    return float(-(p[mask] * np.log(p[mask])).sum())


def bethe_free_energy(g, b):
    """Bethe free energy of a collection of beliefs on a standard graph.

    Average energy minus Bethe entropy, with the 0*log(0)=0 convention.
    A belief that puts mass on a zero of a local function makes the
    average energy diverge; +inf is returned in that case.
    """
    if g.kind != STANDARD:
        raise ValidationError(
            "the Bethe free energy is only evaluated on standard graphs")
    for what, beliefs in (("node", b.node), ("edge", b.edge)):
        for key, p in beliefs.items():
            p = np.asarray(p)
            if (float(np.max(np.abs(p.imag))) > _BELIEF_TOL
                    or float(np.min(p.real)) < -_BELIEF_TOL
                    or abs(float(np.sum(p.real)) - 1.0) > _BELIEF_TOL):
                raise ValidationError(f"{what} belief {key!r} is not a pmf")
    defect = consistency_defect(g, b)
    if defect > _BELIEF_TOL:
        raise ValidationError(
            f"beliefs violate local consistency by {defect:.3e}")

    energy = 0.0
    for idx, name in enumerate(g.node_names):
        f = np.real(g.tensors[idx]).reshape(-1)
        p = np.real(b.node[name]).reshape(-1)
        mass = p > 1e-12
        if np.any(mass & (f <= 0.0)):
            return float("inf")
        energy -= float((p[mass] * np.log(f[mass])).sum())
    entropy = sum(_entropy(b.node[name]) for name in g.node_names)
    entropy -= sum(_entropy(b.edge[eid]) for eid in b.edge)
    return energy - entropy
