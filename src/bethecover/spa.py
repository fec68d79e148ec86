"""Sum-product message passing for both graph kinds, fixed points,
beliefs and the message-based Bethe partition function.

Messages are kept normalized to component sum one.  A directed message is
keyed by ``(edge id, receiving node index)``; the update for the message
into node ``f_j`` along edge ``e`` is computed at the opposite endpoint
``f_i`` from its local function and the messages entering ``f_i`` on the
remaining edges.
"""

import string
import weakref
from dataclasses import dataclass

import numpy as np

from . import config
from ._kernels import jacobi_eigh
from .errors import DegenerateBeliefError, StructuralError, ValidationError
from .nfg import STANDARD

_LETTERS = string.ascii_letters
_BELIEF_TOL = 1e-6   # slack of the pmf and local-consistency checks


@dataclass
class MessageVector:
    """Normalized directed messages, keyed by (edge id, node index)."""

    data: dict

    def copy(self):
        return MessageVector({k: v.copy() for k, v in self.data.items()})

    def __getitem__(self, key):
        return self.data[key]

    def __iter__(self):
        return iter(self.data)

    def scaled(self, key, factor):
        out = self.copy()
        out.data[key] = out.data[key] * factor
        return out


def residual(a, b):
    """Largest componentwise change between two message vectors."""
    return max(float(np.max(np.abs(a.data[k] - b.data[k]))) for k in a.data)


def uniform_messages(g):
    data = {}
    for eid, node in g.directed_keys():
        n = g.axis_size(eid)
        data[(eid, node)] = np.full(n, 1.0 / n, dtype=np.complex128)
    return MessageVector(data)


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
    return MessageVector({(eid, node): random_message(g, eid, rng)
                          for eid, node in g.directed_keys()})


# ------------------------------------------------------------------ #
# one synchronous update                                              #
# ------------------------------------------------------------------ #

_PLANS = weakref.WeakKeyDictionary()


def _plan(g):
    """Cached einsum recipes for the leave-one-out node contractions."""
    plan = _PLANS.get(g)
    if plan is not None:
        return plan
    plan = []
    for k in range(g.n_nodes):
        incident = g.incidences[k]
        d = len(incident)
        subs = _LETTERS[:d]
        leave_one_out = []
        for a in range(d):
            ops = ",".join(subs[b] for b in range(d) if b != a)
            expr = f"{subs},{ops}->{subs[a]}" if d > 1 else f"{subs}->{subs}"
            leave_one_out.append(expr)
        full = f"{subs},{','.join(subs)}->" if d else "->"
        plan.append((incident, leave_one_out, full))
    _PLANS[g] = plan
    return plan


def raw_updates(g, m):
    """Unnormalized outgoing messages and their scaling factors, both
    keyed like the message vector."""
    raw, kappa_msg = {}, {}
    for k in range(g.n_nodes):
        incident, expressions, _full = _plan(g)[k]
        msgs = [m[(eid, k)] for eid in incident]
        t = g.tensors[k]
        for a, eid in enumerate(incident):
            others = [msgs[b] for b in range(len(incident)) if b != a]
            vec = np.einsum(expressions[a], t, *others)
            key = (eid, g.other_endpoint(eid, k))
            raw[key] = vec
            kappa_msg[key] = complex(vec.sum())
    return raw, kappa_msg


def _node_kappas(g, m):
    """Per-node contraction of the local function with its messages."""
    out = []
    for k in range(g.n_nodes):
        incident, _expressions, full = _plan(g)[k]
        msgs = [m[(eid, k)] for eid in incident]
        out.append(complex(np.einsum(full, g.tensors[k], *msgs)))
    return out


def _edge_kappas(g, m):
    return {e.eid: complex(np.sum(m[(e.eid, e.head)] * m[(e.eid, e.tail)]))
            for e in g.edges}


def fixed_point_residual(g, m):
    """Residual of the plain update map at ``m`` (no reinitialization)."""
    raw, kappa_msg = raw_updates(g, m)
    worst = 0.0
    for key, vec in raw.items():
        k = kappa_msg[key]
        if abs(k) == 0.0:
            return float("inf")
        worst = max(worst, float(np.max(np.abs(vec / k - m[key]))))
    return worst


@dataclass
class StepInfo:
    degenerate_edges: list
    map_residual: float = float("inf")


def spa_step(g, m, rng=None, damping=0.0):
    """One synchronous sweep of all directed messages.

    The degeneracy test multiplies the two message normalizers of an edge
    with the edge- and endpoint-belief normalizers of the freshly updated
    messages; when the product is (numerically) zero, every message
    incident to either endpoint is redrawn from ``rng`` (PSD-projected on
    double-edge graphs).  Beliefs are not stored between sweeps, so their
    reinitialization happens implicitly at the next read.

    ``info.map_residual`` is the change produced by the plain update,
    before damping, and is what convergence is judged on.
    """
    tol_zero = config.TOLS.zero
    raw, kappa_msg = raw_updates(g, m)

    new = {}
    for key, vec in raw.items():
        k = kappa_msg[key]
        if abs(k) <= tol_zero:
            new[key] = m[key].copy()  # replaced below by reinitialization
        else:
            new[key] = vec / k
    stepped = MessageVector(new)
    map_residual = residual(stepped, m)

    kappa_node = _node_kappas(g, stepped)
    kappa_edge = _edge_kappas(g, stepped)
    degenerate = []
    for e in g.edges:
        prod = (kappa_msg[(e.eid, e.head)] * kappa_msg[(e.eid, e.tail)]
                * kappa_edge[e.eid]
                * kappa_node[e.head] * kappa_node[e.tail])
        if abs(prod) <= tol_zero:
            degenerate.append(e.eid)

    reinit_keys = set()
    for eid in degenerate:
        e = g.edge(eid)
        for node in (e.head, e.tail):
            for other_eid in g.incidences[node]:
                reinit_keys.add((other_eid, node))
    if reinit_keys:
        if rng is None:
            rng = np.random.default_rng(0)
        for key in sorted(reinit_keys, key=lambda k: (k[0], k[1])):
            new[key] = random_message(g, key[0], rng)
        map_residual = float("inf")

    if damping:
        for key in new:
            if key not in reinit_keys:
                new[key] = (1.0 - damping) * new[key] + damping * m[key]
    return MessageVector(new), StepInfo(degenerate, map_residual)


# ------------------------------------------------------------------ #
# partition-function pieces                                           #
# ------------------------------------------------------------------ #

def node_normalizers(g, m):
    """Per-node sums Z_f of the local function against its messages."""
    kappas = _node_kappas(g, m)
    return {g.node_names[k]: kappas[k] for k in range(g.n_nodes)}


def edge_normalizers(g, m):
    """Per-edge overlaps Z_e of the two opposing messages."""
    return _edge_kappas(g, m)


def bethe_partition_value(z_f, z_e):
    """Message-based Bethe partition value prod Z_f / prod Z_e, or None
    when some edge overlap vanishes."""
    out = 1.0 + 0.0j
    for v in z_f.values():
        out *= v
    for v in z_e.values():
        if abs(v) <= config.TOLS.z_edge:
            return None
        out /= v
    return out


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
    run is reported, not raised.
    """
    if max_iter < 1:
        raise StructuralError(f"max_iter must be positive, got {max_iter}")
    tol_fp = config.TOLS.fixed_point if tol_fp is None else tol_fp
    best = None
    best_score = None
    n_converged = 0
    event_log = []
    for r in range(max(1, restarts)):
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
            restarts_used=max(1, restarts), restarts_converged=0,
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
    kappa_node = _node_kappas(g, m)
    kappa_edge = _edge_kappas(g, m)
    edge = {}
    for e in g.edges:
        k = kappa_edge[e.eid]
        if abs(k) == 0.0:
            raise DegenerateBeliefError(
                f"edge {e.eid!r}: belief normalizer vanished")
        edge[e.eid] = m[(e.eid, e.head)] * m[(e.eid, e.tail)] / k
    node = {}
    for idx, name in enumerate(g.node_names):
        k = kappa_node[idx]
        if abs(k) == 0.0:
            raise DegenerateBeliefError(
                f"node {name!r}: belief normalizer vanished")
        incident = g.incidences[idx]
        t = g.tensors[idx].copy()
        for a, eid in enumerate(incident):
            shape = [1] * len(incident)
            shape[a] = -1
            t = t * m[(eid, idx)].reshape(shape)
        node[name] = t / k
    return Beliefs(edge, node)


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


def beliefs_from_configuration_weights(g, weights):
    """Consistent beliefs induced by a distribution over configurations.

    ``weights`` maps configurations to nonnegative numbers; they are
    normalized internally.  A configuration is a dict as accepted by
    :func:`bethecover.nfg.global_eval`, or a hashable tuple of
    (edge id, value) pairs.  The resulting beliefs satisfy the local
    consistency constraints exactly.
    """
    from .nfg import config_axis_index

    pairs = [(cfg if isinstance(cfg, dict) else dict(cfg), w)
             for cfg, w in weights.items()]
    total = float(sum(w for _, w in pairs))
    edge = {e.eid: np.zeros(g.axis_size(e.eid), dtype=np.complex128)
            for e in g.edges}
    node = {}
    for idx, name in enumerate(g.node_names):
        shape = tuple(g.axis_size(eid) for eid in g.incidences[idx])
        node[name] = np.zeros(shape, dtype=np.complex128)
    for cfg, w in pairs:
        p = w / total
        axis = {eid: config_axis_index(g, eid, v) for eid, v in cfg.items()}
        for e in g.edges:
            edge[e.eid][axis[e.eid]] += p
        for idx, name in enumerate(g.node_names):
            sel = tuple(axis[eid] for eid in g.incidences[idx])
            node[name][sel] += p
    return Beliefs(edge, node)


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
    for name, t in b.node.items():
        ti = np.asarray(t)
        if (float(np.max(np.abs(ti.imag))) > _BELIEF_TOL
                or float(np.min(ti.real)) < -_BELIEF_TOL
                or abs(float(np.sum(ti.real)) - 1.0) > _BELIEF_TOL):
            raise ValidationError(f"node belief {name!r} is not a pmf")
    for eid, v in b.edge.items():
        vi = np.asarray(v)
        if (float(np.max(np.abs(vi.imag))) > _BELIEF_TOL
                or float(np.min(vi.real)) < -_BELIEF_TOL
                or abs(float(np.sum(vi.real)) - 1.0) > _BELIEF_TOL):
            raise ValidationError(f"edge belief {eid!r} is not a pmf")
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
