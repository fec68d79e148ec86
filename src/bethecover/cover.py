"""Degree-M graph covers and the degree-M Bethe partition function, the
mean of Z over the labeled M-covers (P. O. Vontobel, "Counting in Graph
Covers", IEEE Trans. IT 59(9), 2013).

:func:`cover_network` states the cover wiring once, as an integer-labeled
network that the exhaustive and Monte-Carlo means contract directly;
:func:`build_cover` names it as a graph.  The third estimator contracts
the average-cover network, whose edges carry the symmetric-subspace
projector, in the type basis: one tensor per node over the types of
length-M socket vectors, one weight ``1/multinomial(type)`` per edge.
:func:`socket_projector` keeps the socket-basis projector as ground truth.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import (BigCountError, InternalConsistencyError,
                     SignedRootError, StructuralError)
from .nfg import contract_network, finite, make_graph
from .tensor import ComplexTensor

_INT64_MAX = 2**63 - 1
_IMAG_TOL = 1e-9      # relative imaginary part allowed in a cover mean
_BOUND_SLACK = 1e-6   # margin a sandwich bound may miss by and still hold


# ------------------------------------------------------------------ #
# covers                                                              #
# ------------------------------------------------------------------ #

@dataclass(frozen=True)
class CoverSpec:
    """Degree M plus one permutation of range(M) per base edge."""

    degree: int
    sigma: dict

    def __post_init__(self):
        if self.degree < 1:
            raise StructuralError("cover degree must be positive")
        for eid, perm in self.sigma.items():
            if sorted(perm) != list(range(self.degree)):
                raise StructuralError(
                    f"edge {eid!r}: {perm!r} is not a permutation of "
                    f"range({self.degree})")


def identity_cover(g, degree):
    return CoverSpec(degree, {e.eid: tuple(range(degree)) for e in g.edges})


def random_cover(g, degree, rng):
    return CoverSpec(degree, {e.eid: tuple(int(x) for x in
                                           rng.permutation(degree))
                              for e in g.edges})


def cover_network(g, spec):
    """The degree-M cover of ``g`` as a closed network, one
    :class:`ComplexTensor` per cover node ``(f_k, m)`` in the order
    ``k*M + m``, with f_k's legs and f_k's read-only array itself: the one
    statement of the wiring.  Copy m of the i-th base edge e (a double
    edge moves as a unit) is the label ``i*M + m`` at ``(head, m)`` and
    ``(tail, sigma_e(m))``.  For a valid ``g`` and a spec naming exactly
    its edges, no :func:`make_graph` check can fail: names are distinct;
    head != tail, so no self-loop; sigma_e is a permutation, so each label
    is on exactly two legs; shapes and alphabets are the base graph's.
    """
    pos = {e.eid: i for i, e in enumerate(g.edges)}
    if spec.sigma.keys() != pos.keys():
        missing = [eid for eid in pos if eid not in spec.sigma]
        extra = [eid for eid in spec.sigma if eid not in pos]
        raise StructuralError(f"cover spec does not match the graph's "
                              f"edges: missing {missing}, extra {extra}")
    M = spec.degree
    legs = [[None] * len(inc) for inc in g.incidences for _ in range(M)]
    for k, inc in enumerate(g.incidences):
        for a, eid in enumerate(inc):
            held = range(M) if g.edge(eid).head == k else spec.sigma[eid]
            for lab, c in enumerate(held, pos[eid] * M):
                legs[k * M + c][a] = lab    # lab = i*M + m, on (f_k, c)
    return [ComplexTensor(labels, g.tensors[n // M])
            for n, labels in enumerate(legs)]


def build_cover(g, spec):
    """:func:`cover_network` as a graph: node ``(f, m)`` is ``f.m``; label
    ``i*M + m`` is edge ``e.m`` between the two nodes that hold it."""
    network = cover_network(g, spec)
    M = spec.degree
    names = [f"{name}.{m}" for name in g.node_names for m in range(M)]
    labels = [f"{e.eid}.{m}" for e in g.edges for m in range(M)]
    nodes, tensors, ends = [], {}, [[] for _ in labels]
    for name, t in zip(names, network):
        nodes.append((name, [labels[lab] for lab in t.labels]))
        tensors[name] = t.array
        for lab in t.labels:
            ends[lab].append(name)
    edges = [(labels[lab], tuple(ab), g.edges[lab // M].alphabet)
             for lab, ab in enumerate(ends)]
    return make_graph(g.kind, nodes, edges, tensors,
                      weak_sense=g.weak_sense_flag)


# ------------------------------------------------------------------ #
# types and the socket projector                                      #
# ------------------------------------------------------------------ #

def type_of(vector, alphabet_size):
    """Occurrence counts of each symbol in a socket vector."""
    counts = [0] * alphabet_size
    for v in vector:
        if not 0 <= v < alphabet_size:
            raise StructuralError(f"symbol {v} outside the alphabet")
        counts[v] += 1
    return tuple(counts)


def num_types(alphabet_size, degree):
    """Number of possible types of length-``degree`` vectors."""
    value = math.comb(alphabet_size + degree - 1, degree)
    if value > _INT64_MAX:
        raise BigCountError(f"type count {value} exceeds 64 bits")
    return value


def class_size(counts):
    """Number of vectors sharing a type (multinomial coefficient)."""
    degree = sum(counts)
    value = math.factorial(degree)
    for k in counts:
        value //= math.factorial(k)
    if value > _INT64_MAX:
        raise BigCountError(f"type class size {value} exceeds 64 bits")
    return value


def socket_projector(alphabet_size, degree):
    """Average of all permutation matchings between two length-M socket
    vectors: entry 1/|class| when the two vectors share a type, else 0.

    Row/column index is the socket vector read as a base-``alphabet_size``
    number, first entry most significant.
    """
    config.check_capacity("contract", alphabet_size ** (2 * degree),
                          "socket projector")
    vecs = list(itertools.product(range(alphabet_size), repeat=degree))
    keys = [type_of(v, alphabet_size) for v in vecs]
    uniq = {}
    for key in keys:
        if key not in uniq:
            uniq[key] = len(uniq)
    ids = np.array([uniq[key] for key in keys])
    inv_sizes = np.array([1.0 / class_size(key) for key in uniq])
    same = ids[:, None] == ids[None, :]
    return np.where(same, inv_sizes[ids][None, :], 0.0)


# ------------------------------------------------------------------ #
# the three estimators                                                #
# ------------------------------------------------------------------ #

@dataclass
class ZbmEstimate:
    method: str
    degree: int
    power_value: float        # (Z_{B,M})**M
    root: float               # Z_{B,M}
    stderr: float = None      # Monte-Carlo only, on the power value
    covers: int = None        # exhaustive only
    samples: int = None       # Monte-Carlo only


def _finish(method, degree, mean, **extra):
    mean = finite(complex(mean), "the cover mean")
    if abs(mean.imag) > _IMAG_TOL * (1.0 + abs(mean)):
        raise InternalConsistencyError(
            f"cover mean {mean!r} has a non-negligible imaginary part")
    value = mean.real
    if value < 0.0:
        raise SignedRootError(
            f"cover mean {value!r} is negative; no real degree-root",
            raw_value=value)
    root = value ** (1.0 / degree)
    return ZbmEstimate(method=method, degree=degree, power_value=value,
                       root=root, **extra)


def zbm_exhaustive(g, degree):
    """Arithmetic mean of the partition function over all labeled covers."""
    if degree < 1:
        raise StructuralError("cover degree must be positive")
    # (M!)**|E| covers; where lgamma puts that over 2**65, the lower bound
    # 2**64 stands in, so a huge degree is refused without computing M!
    if g.n_edges * math.lgamma(degree + 1) > 65 * math.log(2):
        n_covers = 2**64
    else:
        n_covers = math.factorial(degree) ** g.n_edges
    config.check_capacity("covers", n_covers, "labeled covers")
    eids = [e.eid for e in g.edges]
    total = 0.0 + 0.0j
    count = 0
    for perms in itertools.product(
            itertools.permutations(range(degree)), repeat=len(eids)):
        spec = CoverSpec(degree, dict(zip(eids, perms)))
        total += contract_network(cover_network(g, spec))
        count += 1
    return _finish("exhaustive", degree, total / count, covers=count)


def zbm_montecarlo(g, degree, samples, seed=0):
    """Unbiased sample mean over uniformly drawn covers; deterministic
    for a given seed (one independent permutation per edge per sample)."""
    if samples < 1:
        raise StructuralError(f"samples must be positive, got {samples}")
    config.check_capacity("contract", samples, "Monte-Carlo value buffer")
    values = np.empty(samples, dtype=np.complex128)
    for s in range(samples):
        spec = random_cover(g, degree, np.random.default_rng([seed, s]))
        values[s] = contract_network(cover_network(g, spec))
    # a sum that overflows is refused by _finish
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.sum() / samples
        if samples > 1:
            stderr = float(np.std(values.real, ddof=1) / np.sqrt(samples))
        else:
            stderr = 0.0
    return _finish("montecarlo", degree, mean, stderr=stderr,
                   samples=samples)


def _types(alphabet_size, degree):
    """All types of length-``degree`` vectors, in the fixed order the type
    tensors index them by."""
    return [type_of(v, alphabet_size) for v in
            itertools.combinations_with_replacement(range(alphabet_size),
                                                    degree)]


def _predecessors(alphabet_size, level):
    """Gather table of the type recursion at ``level`` >= 1.

    Row k, column c holds the index at ``level - 1`` of type k with one c
    removed, or the zero slot ``n_{level-1}`` when type k holds no c.  An
    extra last row, the zero slot of ``level``, maps every c to the zero
    slot.
    """
    below = {t: k for k, t in enumerate(_types(alphabet_size, level - 1))}
    here = _types(alphabet_size, level)
    table = np.full((len(here) + 1, alphabet_size), len(below),
                    dtype=np.intp)
    for k, t in enumerate(here):
        for c in range(alphabet_size):
            if t[c]:
                table[k, c] = below[t[:c] + (t[c] - 1,) + t[c + 1:]]
    return table


def _type_tensor_peak(sizes, degree):
    """Entries of the largest array :func:`_type_tensor` allocates for a
    node with leg sizes ``sizes``.  Sizes grow with the level, so the
    last step (level M-1 to M) holds the peak."""
    if not sizes:
        return 1
    below = [math.comb(s + degree - 2, degree - 1) + 1 for s in sizes]
    here = [math.comb(s + degree - 1, degree) + 1 for s in sizes]
    gathered = here[0] * sizes[0] * math.prod(below[1:])
    legs = [here[0]] + [n * s for n, s in zip(below[1:], sizes[1:])]
    peak = max(gathered, math.prod(legs))
    for a in range(1, len(sizes)):
        legs[a] = here[a]
        peak = max(peak, math.prod(legs))
    return peak


def _type_tensor(t, tables, degree):
    """Type tensor of a node: entry ``[u_1..u_d]`` sums
    ``prod_m t(x^(m))`` over the ordered M-tuples of configurations whose
    leg-a symbols have type ``u_a``, i.e. the coefficients of the M-th
    power of the node's multilinear form.

    ``tables[a][j]`` is leg a's :func:`_predecessors` table for level
    j + 1.  Level j + 1 is gathered from level j one leg at a time; every
    axis carries one trailing zero slot, which invalid predecessors read.
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


def zbm_typeformula(g, degree):
    """Contract the average-cover network in the type basis.

    Each edge's socket projector factors as ``S diag(1/|class|) S^T``,
    where ``S`` sums a length-M socket vector into its type.  Pushing
    ``S`` into the M-fold stacked local functions leaves one type tensor
    per node, with leg size ``C(s+M-1, M)`` instead of ``s**M``; each edge
    keeps the diagonal weight ``1/multinomial(type)``, folded into its
    head endpoint.  The capacity check covers the largest array the type
    tensors' construction allocates, before any is allocated; the
    contraction of the type-tensor network checks its plan's largest
    intermediate before it contracts anything.
    """
    if degree < 1:
        raise StructuralError("cover degree must be positive")
    M = degree
    for name, t in zip(g.node_names, g.tensors):
        config.check_capacity("contract", _type_tensor_peak(t.shape, M),
                              f"type tensor of node {name!r}")
    tables, weights = {}, {}
    for e in g.edges:
        s = g.axis_size(e.eid)
        if s not in tables:
            tables[s] = [_predecessors(s, j) for j in range(1, M + 1)]
            weights[s] = np.array([1.0 / class_size(u)
                                   for u in _types(s, M)])
    tensors = []
    # an entry that overflows is refused by contract_network
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(g.tensors):
            u = _type_tensor(t, [tables[s] for s in t.shape], M)
            for a, eid in enumerate(g.incidences[k]):
                if g.edge(eid).head == k:
                    shape = [1] * t.ndim
                    shape[a] = -1
                    u = u * weights[t.shape[a]].reshape(shape)
            tensors.append(ComplexTensor(g.incidences[k], u))
    mean = contract_network(tensors)
    return _finish("typeformula", degree, mean)


# ------------------------------------------------------------------ #
# finite-degree sandwich bounds                                       #
# ------------------------------------------------------------------ #

@dataclass
class BoundEntry:
    degree: int
    ratio_power: float     # (Z_{B,M} / Z*)**M
    lower: float
    upper: float
    margin_lower: float
    margin_upper: float
    ok: bool


@dataclass
class BoundsReport:
    alpha: float
    z_star: float
    entries: list = field(default_factory=list)

    @property
    def all_ok(self):
        return all(ent.ok for ent in self.entries)


def bethe_cover_bounds(estimates, z_star, alpha):
    """Check the geometric-series sandwich on (Z_{B,M}/Z*)**M.

    ``estimates`` is an iterable of :class:`ZbmEstimate`.  For a
    dominance parameter ``alpha`` the power ratio must lie between
    ``1 - sum_{j=1..M} alpha**j`` and ``sum_{j=0..M} alpha**j``.
    Violations are reported, never raised.
    """
    report = BoundsReport(alpha=alpha, z_star=z_star)
    for est in estimates:
        M = est.degree
        ratio = est.power_value / z_star ** M
        lower = 1.0 - sum(alpha ** j for j in range(1, M + 1))
        upper = sum(alpha ** j for j in range(0, M + 1))
        ml = ratio - lower
        mu = upper - ratio
        report.entries.append(BoundEntry(
            degree=M, ratio_power=ratio, lower=lower, upper=upper,
            margin_lower=ml, margin_upper=mu,
            ok=(ml >= -_BOUND_SLACK and mu >= -_BOUND_SLACK)))
    return report
