"""Reference routes that only the tests use.

Each one states a result of the package a second way, or builds an input
that no command needs; none of them has a caller in the package.  Tests
import this module as they import ``conftest``.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from bethecover import cover, nfg, spa
from bethecover._kernels import jacobi_eigh
from bethecover.cover import cover_network, type_of
from bethecover.errors import StructuralError, ValidationError
from bethecover.tensor import ComplexTensor, Merge, contract, paired_from_choi


def _max_abs(arr):
    return float(np.max(np.abs(arr), initial=0.0))


# ------------------------------------------------------------------ #
# graphs                                                              #
# ------------------------------------------------------------------ #

def as_double_edge(g):
    """Embed a standard graph as a double-edge graph with diagonal
    matrices: the pair variable must agree with its primed copy."""
    if g.kind != nfg.STANDARD:
        raise StructuralError("graph is already double-edge")
    tensors = {}
    for k, name in enumerate(g.node_names):
        flat = g.tensors[k].reshape(-1)
        bases = [g.edges[i].alphabet for i in g.incidences[k]]
        tensors[name] = paired_from_choi(np.diag(flat), bases)
    nodes = [(name, [g.edges[i].eid for i in g.incidences[k]])
             for k, name in enumerate(g.node_names)]
    edges = [(e.eid, (g.node_names[e.head], g.node_names[e.tail]),
              e.alphabet) for e in g.edges]
    return nfg.make_graph(nfg.DOUBLE, nodes, edges, tensors)


def every_degree_graph(kind, seed):
    """A graph with nodes of every degree 0-4 and edge alphabets of sizes
    1-3: hub ``h`` (degree 4), leaf ``l``, ``a`` and ``c`` (degree 2, the
    same tensor shape, so one stacked group), ``b`` (degree 3) and the
    isolated ``iso``.  Positive standard functions, or random positive
    definite matrices on a double-edge graph."""
    rng = np.random.default_rng(seed)
    nodes = [("h", ["e1", "e2", "e3", "e4"]), ("l", ["e1"]),
             ("a", ["e2", "e5"]), ("b", ["e3", "e5", "e6"]),
             ("c", ["e6", "e4"]), ("iso", [])]
    edges = [("e1", ("h", "l"), 2), ("e2", ("h", "a"), 3),
             ("e3", ("h", "b"), 1), ("e4", ("h", "c"), 2),
             ("e5", ("a", "b"), 2), ("e6", ("b", "c"), 3)]
    alpha = {eid: n for eid, _, n in edges}
    if kind == nfg.STANDARD:
        return nfg.make_graph(kind, nodes, edges, {
            name: rng.uniform(0.1, 1.0, [alpha[e] for e in inc])
            for name, inc in nodes})
    tensors = {}
    for name, inc in nodes:
        bases = [alpha[e] for e in inc]
        side = math.prod(bases)
        a = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        choi = a @ a.conj().T + side * np.eye(side)
        tensors[name] = paired_from_choi(choi / np.trace(choi).real, bases)
    return nfg.make_graph(kind, nodes, edges, tensors)


def forest_edges(g):
    """Per edge of ``g`` in edge order, whether it joins two components
    of the edges before it: a spanning forest, taken greedily."""
    parent = list(range(g.n_nodes))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    joins = []
    for e in g.edges:
        ra, rb = root(e.head), root(e.tail)
        joins.append(ra != rb)
        parent[ra] = rb
    return joins


def is_forest(g):
    """Whether ``g`` has no cycle (parallel edges make one)."""
    return all(forest_edges(g))


# ------------------------------------------------------------------ #
# enumeration                                                         #
# ------------------------------------------------------------------ #

def global_eval(g, configuration):
    """Product of the local-function entries a configuration selects, in
    node order: one row of :func:`bethecover.nfg.configurations`.

    ``configuration`` is a tuple of axis indices, one per edge in
    ``g.edges`` order.  On a double-edge graph the pair ``(x, x')`` has
    axis index ``x*|X| + x'``.
    """
    sizes = [g.axis_size(i) for i in range(g.n_edges)]
    if len(configuration) != len(sizes) or not all(
            0 <= x < n for x, n in zip(configuration, sizes)):
        raise StructuralError(f"configuration {configuration!r} does not "
                              f"fit the edges' axis sizes {sizes}")
    out = 1.0 + 0.0j
    for k, t in enumerate(g.tensors):
        out *= t[tuple(configuration[i] for i in g.incidences[k])]
    return out


def enum_configs(g):
    """``(digits, values)`` chunks over every configuration of ``g`` by
    digit arithmetic: the enumerator that the broadcast products of
    :func:`bethecover.nfg.configurations` replace, kept as their oracle.

    Configurations run in row-major order (the last edge varies fastest),
    at most 65536 per chunk: ``digits`` holds one row of axis indices
    per configuration and ``values`` the product of the node entries it
    selects, multiplied in node order onto a one.
    """
    sizes = np.array([g.axis_size(i) for i in range(g.n_edges)],
                     dtype=np.int64)
    radix = _place_values(sizes)
    gathers = []
    for arr, edges in zip(g.tensors, g.incidences):
        edges = np.asarray(edges, dtype=np.int64)
        gathers.append((arr.ravel(), edges, _place_values(sizes[edges])))
    total = math.prod(sizes.tolist())
    for lo in range(0, total, 65536):
        hi = min(lo + 65536, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = (idx[:, None] // radix[None, :]) % sizes[None, :]
        values = np.ones(hi - lo, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for flat, edges, strides in gathers:
                values *= flat[digits[:, edges] @ strides]
        yield digits, values


def _place_values(sizes):
    """Row-major place value of each digit of a number with these digit
    sizes: the product of the sizes after it."""
    return np.cumprod(np.r_[sizes, 1][:0:-1])[::-1]


# ------------------------------------------------------------------ #
# pairwise merges                                                     #
# ------------------------------------------------------------------ #

def merge_of(a, b, axes):
    """The :class:`Merge` of labeled tensors ``a`` and ``b`` over the axis
    pairs ``axes = (a's axes, b's axes)``, laid out as ``np.tensordot``
    lays out its matrix product, without the planner."""
    ax_a, ax_b = (list(ax) for ax in axes)
    free_a = [k for k in range(len(a.labels)) if k not in ax_a]
    free_b = [k for k in range(len(b.labels)) if k not in ax_b]
    paired = math.prod(a.sizes[k] for k in ax_a)
    return Merge(tuple(free_a + ax_a),
                 (math.prod(a.sizes[k] for k in free_a), paired),
                 tuple(ax_b + free_b),
                 (paired, math.prod(b.sizes[k] for k in free_b)),
                 tuple([a.sizes[k] for k in free_a]
                       + [b.sizes[k] for k in free_b]),
                 tuple([a.labels[k] for k in free_a]
                       + [b.labels[k] for k in free_b]))


def pairwise_greedy(tensors):
    """The planner's rule run on the tensors themselves, every connected
    pair of live clusters re-scored at every step (O(n^3)): merge the pair
    ``a < b`` that minimizes ``entries(out) - entries(a) - entries(b)``,
    ties to the smaller ``entries(out)``, then to the lowest ``(a, b)``;
    a cluster left with no labels multiplies into the value, in the order
    the clusters were made.  Returns the value and the steps, numbered as
    :class:`nfg.ContractionPlan` numbers them."""
    live = {k: t for k, t in enumerate(tensors) if t.labels}
    scalars = [t for t in tensors if not t.labels]
    steps = []
    while True:
        best = None
        for a, b in itertools.combinations(sorted(live), 2):
            x, y = live[a], live[b]
            shared = [lab for lab in x.labels if lab in y.labels]
            if not shared:
                continue
            out = math.prod(n for lab, n in zip(x.labels + y.labels,
                                                x.sizes + y.sizes)
                            if lab not in shared)
            key = (out - x.array.size - y.array.size, out, a, b)
            if best is None or key < best[0]:
                best = key, shared
        if best is None:
            break
        (_, _, a, b), shared = best
        x, y = live.pop(a), live.pop(b)
        merge = merge_of(x, y, ([x.labels.index(lab) for lab in shared],
                                [y.labels.index(lab) for lab in shared]))
        out = contract(x, y, merge)
        steps.append((a, b, merge))
        if out.labels:
            live[len(tensors) + len(steps) - 1] = out
        else:
            scalars.append(out)
    value = 1.0 + 0.0j
    for t in scalars:
        value *= complex(t.array)
    return value, steps


# ------------------------------------------------------------------ #
# messages and beliefs                                                #
# ------------------------------------------------------------------ #

def message_keys(g):
    """Every directed key ``(edge position, receiving node)``: the head
    key, then the tail key, of each edge in ``g.edges`` order."""
    return [(i, k) for i, e in enumerate(g.edges) for k in (e.head, e.tail)]


def psd_project(vec, base):
    """Project one double-edge message onto the PSD cone and renormalize;
    None when its component sum vanishes."""
    vals, vecs = jacobi_eigh(vec.reshape(base, base))
    vals = np.clip(vals, 0.0, None)
    c = (vecs * vals) @ vecs.conj().T
    flat = c.reshape(-1)
    s = flat.sum()
    if abs(s) < 1e-12:
        return None
    return flat / s


def random_message(g, i, rng):
    """One random normalized message on edge i (PSD-projected if double),
    drawn on its own: the sequential draw that the SPA's stacked draws
    reproduce."""
    n = g.edges[i].alphabet
    if g.kind == nfg.STANDARD:
        return rng.dirichlet(np.ones(n)).astype(np.complex128)
    for _ in range(64):
        radius = np.sqrt(rng.uniform(size=n * n))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n * n)
        vec = radius * np.exp(1j * angle)
        out = psd_project(vec, n)
        if out is not None:
            return out
    raise RuntimeError("could not draw a normalizable random message")


def random_messages(g, rng):
    """Random messages at every directed key, one after another in key
    order."""
    return spa.messages(g, {key: random_message(g, key[0], rng)
                            for key in message_keys(g)})


def residual(a, b):
    """Largest componentwise change between two message vectors."""
    return _max_abs(a.rows - a.plan.rows_of(b))


def fixed_point_residual(g, m):
    """Residual of the plain update map at ``m`` (no reinitialization)."""
    raw, kappa = spa.raw_updates(g, m)
    if np.any(kappa == 0.0):
        return float("inf")
    return _max_abs(raw.rows / kappa[:, None] - m.rows)


@dataclass
class Beliefs:
    edge: dict   # edge id -> normalized vector
    node: dict   # node name -> normalized tensor


def _normalized(p, what):
    kappa = p.sum()
    if kappa == 0.0:
        raise ZeroDivisionError(f"{what}: belief normalizer vanished")
    return p / kappa


def beliefs_at(g, m):
    """Edge and node beliefs induced by a message vector.

    An edge's belief is the product of its two messages, a node's its
    local function times the messages entering it, each normalized to
    sum one; ``ZeroDivisionError`` names the first edge, else the first
    node, whose normalizer vanished.
    """
    edge = {e.eid: _normalized(m[(i, e.head)] * m[(i, e.tail)],
                               f"edge {e.eid!r}")
            for i, e in enumerate(g.edges)}
    node = {}
    for k, name in enumerate(g.node_names):
        t = g.tensors[k]
        for a, i in enumerate(g.incidences[k]):
            t = t * m[(i, k)].reshape((-1,) + (1,) * (t.ndim - a - 1))
        node[name] = _normalized(t, f"node {name!r}")
    return Beliefs(edge, node)


def beliefs_from_configuration_weights(g, weights):
    """Consistent beliefs induced by a distribution over configurations.

    ``weights`` maps configurations to nonnegative numbers; they are
    normalized internally.  A configuration is a tuple of axis indices,
    one per edge in ``g.edges`` order, as :func:`global_eval` takes it.
    The resulting beliefs satisfy the local consistency constraints
    exactly.
    """
    total = float(sum(weights.values()))
    edge = {e.eid: np.zeros(g.axis_size(i), dtype=np.complex128)
            for i, e in enumerate(g.edges)}
    node = {name: np.zeros(g.tensors[k].shape, dtype=np.complex128)
            for k, name in enumerate(g.node_names)}
    for cfg, w in weights.items():
        p = w / total
        for e, x in zip(g.edges, cfg):
            edge[e.eid][x] += p
        for name, pos in zip(g.node_names, g.incidences):
            node[name][tuple(cfg[i] for i in pos)] += p
    return Beliefs(edge, node)


def consistency_defect(g, b):
    """Largest gap between node marginals and edge beliefs."""
    worst = 0.0
    for name, incident in zip(g.node_names, g.incidences):
        t = b.node[name]
        for a, i in enumerate(incident):
            marg = t.sum(axis=tuple(x for x in range(t.ndim) if x != a))
            worst = max(worst, _max_abs(marg - b.edge[g.edges[i].eid]))
    return worst


_BELIEF_TOL = 1e-6   # slack of the pmf and local-consistency checks


def _entropy(p):
    p = np.real(p).reshape(-1)
    mask = p > 0.0
    return float(-(p[mask] * np.log(p[mask])).sum())


def bethe_free_energy(g, b):
    """Bethe free energy of a collection of beliefs on a standard graph,
    ``-log Z_B`` at an interior fixed point (Yedidia, Freeman and Weiss,
    IEEE Trans. IT 51(7), 2005).

    Average energy minus Bethe entropy, with the 0*log(0)=0 convention.
    A belief that puts mass on a zero of a local function makes the
    average energy diverge; +inf is returned in that case.
    """
    if g.kind != nfg.STANDARD:
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


def _sequential_restart(g, m, max_iter, tol_fp, damping, rng, restart):
    """The report of one restart from ``m``, one :func:`spa.spa_step` call
    per sweep, with the Bethe pieces only if it converged."""
    events = []
    damping_now = damping
    switched_at = None
    history = []
    for it in range(1, max_iter + 1):
        m, info = spa.spa_step(g, m, rng=rng, damping=damping_now)
        events.extend((restart, it, i) for i in info.degenerate_edges)
        history.append(info.map_residual)
        if info.map_residual <= tol_fp:
            break
        # oscillation fallback: residual not shrinking over a window
        if (damping_now == 0.0 and it >= 60 and
                history[-1] > 0.9 * history[-40]):
            damping_now, switched_at = 0.5, it
    converged = history[-1] <= tol_fp
    z_f, z_e, zb = spa.bethe_value(g, m) if converged else (None, None,
                                                             None)
    return spa.SpaReport(
        converged=converged, iterations=it, residual=history[-1],
        restarts_used=1, restarts_converged=int(converged), messages=m,
        z_f=z_f, z_e=z_e, zb_spa=zb, degenerate_log=events,
        damping_used=damping_now, restart=restart,
        damping_switched_at=switched_at)


def best_restart(reports):
    """The report :func:`spa.spa_run` keeps: the earliest restart whose Re
    Z_B lies within a relative ``spa.ZB_TIE_RTOL`` of the largest; else
    the earliest converged restart; else restart 0."""
    values = [rep.zb_spa.real for rep in reports if rep.zb_defined]
    if values:
        top = max(values)
        for rep in reports:
            if rep.zb_defined and (top - rep.zb_spa.real
                                   <= spa.ZB_TIE_RTOL * abs(top)):
                return rep
    for rep in reports:
        if rep.converged:
            return rep
    return reports[0]


def sequential_spa_run(g, max_iter=10000, tol_fp=spa.FIXED_POINT_TOL,
                       damping=0.0, restarts=8, seed=0):
    """:func:`spa.spa_run` with its restarts run one after another, each
    to the end before the next is drawn: the same starts, the same sweeps
    and the same choice of the best report (:func:`best_restart`).
    Returns the best report and the list of every restart's report."""
    reports = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        if r == 0:
            m0 = spa.uniform_messages(g)
        else:
            m0 = random_messages(g, rng)
        reports.append(_sequential_restart(g, m0, max_iter, tol_fp, damping,
                                           rng, r))
    best = best_restart(reports)
    best.restarts_used = restarts
    best.restarts_converged = sum(rep.converged for rep in reports)
    best.degenerate_log = [ev for rep in reports for ev in rep.degenerate_log]
    return best, reports


# ------------------------------------------------------------------ #
# the loop-calculus transform                                         #
# ------------------------------------------------------------------ #

def nonzero_edge_subgraph_degrees(g, cfg):
    """Node degrees of the subgraph of the edges whose axis index in the
    configuration ``cfg`` is nonzero."""
    deg = [0] * g.n_nodes
    for e, v in zip(g.edges, cfg):
        if v != 0:
            deg[e.head] += 1
            deg[e.tail] += 1
    return deg


def induced_fixed_point_check(lr):
    """Residual of the all-zero indicator messages under one plain
    sum-product update on the transformed graph, after per-message
    rescaling."""
    g = lr.transformed
    raw, _kappa = spa.raw_updates(g, spa.messages(g, {
        key: np.eye(1, g.axis_size(key[0]), dtype=np.complex128)[0]
        for key in message_keys(g)}))
    lead = raw.rows[:, :1]
    # a message whose lead entry vanishes is measured unscaled
    ratios = raw.rows[:, 1:] / np.where(lead == 0.0, 1.0, lead)
    return float(np.max(np.abs(ratios), initial=0.0))


# ------------------------------------------------------------------ #
# covers                                                              #
# ------------------------------------------------------------------ #

def cover_array(sigma, degree):
    """A tuple of permutations of range(``degree``), one per edge, as the
    ``(|E|, M)`` array that :func:`bethecover.cover.cover_network` takes."""
    return np.array(sigma, dtype=np.intp).reshape(len(sigma), degree)


def cover_rows(sigma):
    """An ``(|E|, M)`` cover array as a tuple of permutation tuples, the
    form the wiring and lift oracles read."""
    return tuple(map(tuple, sigma.tolist()))


def labeled_cover_mean(g, degree):
    """Mean of Z over every one of the ``(M!)**|E|`` labeled degree-M
    covers, each contracted: the exhaustive mean without the gauge."""
    total, count = 0.0 + 0.0j, 0
    for sigma in itertools.product(
            itertools.permutations(range(degree)), repeat=g.n_edges):
        total += nfg.contract_network(cover_network(
            g, cover_array(sigma, degree)))
        count += 1
    return total / count


def gauge_fixed_cover_mean(g, degree):
    """Mean of Z over the covers of ``g`` itself, unreduced, whose
    :func:`forest_edges` carry the identity: the exhaustive mean on the
    base graph's own cover networks."""
    identity = tuple(range(degree))
    total, count = 0.0 + 0.0j, 0
    for sigma in itertools.product(*(
            (identity,) if joins else itertools.permutations(identity)
            for joins in forest_edges(g))):
        total += nfg.contract_network(cover_network(
            g, cover_array(sigma, degree)))
        count += 1
    return total / count


def sequential_cover(g, degree, rng):
    """A uniformly drawn cover, one ``rng.permutation(degree)`` call per
    edge in edge order: the draws :func:`bethecover.cover.random_cover`
    makes in one call, as a tuple of permutation tuples."""
    return tuple(tuple(rng.permutation(degree).tolist())
                 for _ in range(g.n_edges))


def spec_cover_network(g, degree, sigma):
    """The degree-``degree`` cover network of one tuple ``sigma`` of
    permutations, one per edge, wired leg by leg: the network each row of
    :func:`bethecover.cover._networks` gives, with the traced arrays taken
    from (and added to) the package's own cache, so both routes hold the
    same array objects."""
    if len(sigma) != g.n_edges:
        raise StructuralError(f"cover spec has {len(sigma)} "
                              f"permutations for {g.n_edges} edges")
    M = degree
    legs = [[None] * len(inc) for inc in g.incidences for _ in range(M)]
    loops = [[] for _ in g.incidences]   # per node: (head axis, tail axis, i)
    for k, inc in enumerate(g.incidences):
        for a, i in enumerate(inc):
            x = inc.index(i)
            if x != a:
                loops[k].append((x, a, i))
            held = range(M) if x == a and g.edges[i].head == k \
                else sigma[i]
            for lab, c in enumerate(held, i * M):
                legs[k * M + c][a] = lab    # lab = i*M + m, on (f_k, c)
    network = [ComplexTensor(labels, g.tensors[n // M])
               for n, labels in enumerate(legs)]
    traced = cover._TRACED.setdefault(g, {}) if any(loops) else None
    for k, ends in enumerate(loops):
        for c in range(M if ends else 0):
            fixed = [(j, x, y) for j, (x, y, i) in enumerate(ends)
                     if sigma[i][c] == c]
            if fixed:
                sub = list(range(len(g.incidences[k])))
                for _, x, y in fixed:
                    sub[y] = x
                keep = [ax for ax in sub if sub.count(ax) == 1]
                code = sum(1 << j for j, _, _ in fixed)
                if (k, code) not in traced:
                    with np.errstate(over="ignore", invalid="ignore"):
                        traced[k, code] = keep, np.einsum(g.tensors[k], sub,
                                                          keep)
                network[k * M + c] = ComplexTensor(
                    [legs[k * M + c][ax] for ax in keep], traced[k, code][1])
    return network


def spec_lift(chains, degree, sigma):
    """The reduced cover of one base cover ``sigma``, a tuple of
    permutations of range(``degree``), each chain's permutations composed
    in a Python loop: the row :func:`bethecover.cover._lift_block` gives,
    as a tuple of permutation tuples."""
    lifted = []
    for chain in chains:
        perm = range(degree)
        for i, forward in chain:
            step = sigma[i]
            if not forward:     # a permutation's argsort is its inverse
                step = sorted(range(degree), key=step.__getitem__)
            perm = [step[c] for c in perm]
        lifted.append(tuple(perm))
    return tuple(lifted)


def spec_exhaustive(g, degree):
    """:func:`bethecover.cover.zbm_exhaustive` with each gauge-fixed cover
    wired on its own by :func:`spec_cover_network`, summed in the same
    order."""
    h, _ = cover._absorb(g, degree)
    free = [not joins for joins in forest_edges(h)]
    identity = tuple(range(degree))
    total = 0.0 + 0.0j
    for sigma in itertools.product(*(
            itertools.permutations(identity) if f else (identity,)
            for f in free)):
        total += nfg.contract_network(spec_cover_network(h, degree, sigma))
    return cover._finish("exhaustive", degree,
                         total / math.factorial(degree) ** sum(free),
                         covers=math.factorial(degree) ** g.n_edges)


def spec_montecarlo(g, degree, samples, seed=0):
    """:func:`bethecover.cover.zbm_montecarlo` with each drawn cover made
    by :func:`sequential_cover`, lifted by :func:`spec_lift` and wired by
    :func:`spec_cover_network`, one sample at a time."""
    values = np.empty(samples, dtype=np.complex128)
    h, chains = cover._absorb(g, degree)
    for s in range(samples):
        sigma = sequential_cover(g, degree, np.random.default_rng([seed, s]))
        values[s] = nfg.contract_network(spec_cover_network(
            h, degree, spec_lift(chains, degree, sigma)))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.sum() / samples
        if samples > 1:
            stderr = float(np.std(values.real, ddof=1) / np.sqrt(samples))
        else:
            stderr = 0.0
    return cover._finish("montecarlo", degree, mean, stderr=stderr,
                         samples=samples)


def loop_cover_z(t, sigma):
    """Z of the cover with permutation ``sigma`` of a graph with one node
    and one loop, whose local function is the transfer matrix ``t``: each
    cycle of sigma closes its copies into a ring, whose Z is the trace of
    ``t`` to the power of the cycle's length."""
    z, seen = 1.0 + 0.0j, set()
    for start in range(len(sigma)):
        length, c = 0, start
        while c not in seen:
            seen.add(c)
            c = sigma[c]
            length += 1
        if length:
            z *= np.trace(np.linalg.matrix_power(t, length))
    return z


# ------------------------------------------------------------------ #
# type tables                                                         #
# ------------------------------------------------------------------ #

def types(alphabet_size, degree):
    """All types of length-``degree`` vectors, each recounted from a
    sorted vector, in the order the type tensors index them by."""
    return [type_of(v, alphabet_size) for v in
            itertools.combinations_with_replacement(range(alphabet_size),
                                                    degree)]


def predecessors(alphabet_size, level):
    """Gather table of the type recursion at ``level`` >= 1, from the
    recounted types of ``level`` and ``level - 1``: the transpose of the
    ``first`` table :func:`bethecover.cover._type_tables` derives level by
    level."""
    below = {t: k for k, t in enumerate(types(alphabet_size, level - 1))}
    here = types(alphabet_size, level)
    table = np.full((len(here) + 1, alphabet_size), len(below),
                    dtype=np.intp)
    for k, t in enumerate(here):
        for c in range(alphabet_size):
            if t[c]:
                table[k, c] = below[t[:c] + (t[c] - 1,) + t[c + 1:]]
    return table


def type_tensor(t, tables, degree):
    """Type tensor of a node by the one-leg-at-a-time recursion over
    levels padded with a zero slot on every axis: the construction
    :func:`bethecover.cover._type_tensor` reorganises into blocks of
    contiguous row gathers, with the same sums in the same order.

    ``tables[a][j]`` is leg a's :func:`predecessors` table for level j + 1,
    C-contiguous (the bits of ``tensordot`` follow the layout); invalid
    predecessors read the zero slot.
    """
    d = t.ndim
    if d == 0:
        return t ** degree
    level = np.zeros((2,) * d, dtype=np.complex128)
    level[(0,) * d] = 1.0
    for j in range(degree):
        pred = [leg[j] for leg in tables]
        # leg 0 folds in t; axes become (i_1..i_{d-1}, c_1..c_{d-1}, u_0)
        x = np.tensordot(level[pred[0]], t, axes=([1], [0]))
        x = np.moveaxis(x, 0, -1)
        for a in range(1, d):
            # i_a is axis 0, c_a is axis d - a
            between = (slice(None),) * (d - a - 1)
            acc = x[(pred[a][:, 0],) + between + (0,)]
            for c in range(1, t.shape[a]):
                acc += x[(pred[a][:, c],) + between + (c,)]
            x = np.moveaxis(acc, 0, -1)
        level = x
    return level[(slice(-1),) * d]


def type_tensor_peak(sizes, degree):
    """Entries of the largest array :func:`bethecover.cover._type_tensor`
    allocates, by a walk over every level 2..``degree``: the last level
    or the largest block buffer, whichever is larger (1 for no legs).
    Reads ``cover._BLOCK`` when called."""
    if not sizes:
        return 1
    largest = 0
    for j in range(2, degree + 1):
        below = [math.comb(s + j - 2, j - 1) for s in sizes]
        here = [math.comb(s + j - 1, j) for s in sizes]
        cols = math.prod(below[1:])
        per_type = [sizes[0] * cols]
        cols *= math.prod(sizes[1:])
        for a in range(1, len(sizes)):
            cols //= below[a] * sizes[a]
            per_type += [(below[a] * sizes[a] + 1) * cols, here[a] * cols]
            cols *= here[a]
        per_type = max(per_type)
        step = max(1, min(here[0] + 1, cover._BLOCK // per_type))
        largest = max(largest, step * per_type)
    here = [math.comb(s + degree - 1, degree) for s in sizes]
    return max((here[0] + 1) * math.prod(here[1:]), largest)
