"""Degree-M graph covers and the degree-M Bethe partition function.

Three estimators of the same quantity cross-check each other: an
exhaustive mean over all labeled covers, a seeded Monte-Carlo mean over
uniformly drawn covers, and a direct contraction of the average-cover
network in which every edge carries the symmetric-subspace projector
acting on length-M socket vectors.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import (BigCountError, CapacityError, InternalConsistencyError,
                     SignedRootError, StructuralError)
from .nfg import contract_network, partition_contract
from .tensor import ComplexTensor

_INT64_MAX = 2**63 - 1


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


def build_cover(g, spec):
    """The degree-M cover determined by one permutation per edge.

    Node ``(f, m)`` keeps f's local function; the m-th copy of edge
    ``e = (f_i, f_j)`` joins ``(f_i, m)`` to ``(f_j, sigma_e(m))``.
    Double edges are permuted as units.
    """
    M = spec.degree
    names = [f"{name}.{m}" for name in g.node_names for m in range(M)]
    incidences = []
    for k in range(g.n_nodes):
        for m in range(M):
            inc = []
            for eid in g.incidences[k]:
                e = g.edge(eid)
                if k == e.head:
                    copy = m
                else:
                    copy = spec.sigma[eid].index(m)
                inc.append(f"{eid}.{copy}")
            incidences.append(tuple(inc))
    edges = []
    for e in g.edges:
        for m in range(M):
            edges.append((f"{e.eid}.{m}",
                          (names[e.head * M + m],
                           names[e.tail * M + spec.sigma[e.eid][m]]),
                          e.alphabet))
    tensors = {}
    for k in range(g.n_nodes):
        for m in range(M):
            tensors[names[k * M + m]] = g.tensors[k]
    nodes = list(zip(names, incidences))
    from .nfg import make_graph

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


def _finish(method, degree, mean, tol=1e-9, **extra):
    mean = complex(mean)
    if abs(mean.imag) > tol * (1.0 + abs(mean)):
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


def zbm_exhaustive(g, degree, cover_limit=None, memory_cap=None):
    """Arithmetic mean of the partition function over all labeled covers."""
    lim = config.limits().covers if cover_limit is None else cover_limit
    n_covers = math.factorial(degree) ** g.n_edges
    if n_covers > lim:
        raise CapacityError(
            f"{n_covers} covers exceed the exhaustive limit {lim}",
            limit=lim, requested=n_covers)
    eids = [e.eid for e in g.edges]
    total = 0.0 + 0.0j
    count = 0
    for perms in itertools.product(
            itertools.permutations(range(degree)), repeat=len(eids)):
        spec = CoverSpec(degree, dict(zip(eids, perms)))
        total += partition_contract(build_cover(g, spec),
                                    memory_cap=memory_cap)
        count += 1
    return _finish("exhaustive", degree, total / count, covers=count)


def zbm_montecarlo(g, degree, samples, seed=0, memory_cap=None):
    """Unbiased sample mean over uniformly drawn covers; deterministic
    for a given seed (one independent permutation per edge per sample)."""
    if samples < 1:
        raise StructuralError(f"samples must be positive, got {samples}")
    values = np.empty(samples, dtype=np.complex128)
    for s in range(samples):
        rng = np.random.default_rng([seed, s])
        spec = random_cover(g, degree, rng)
        values[s] = partition_contract(build_cover(g, spec),
                                       memory_cap=memory_cap)
    mean = values.sum() / samples
    if samples > 1:
        stderr = float(np.std(values.real, ddof=1) / np.sqrt(samples))
    else:
        stderr = 0.0
    return _finish("montecarlo", degree, mean, stderr=stderr,
                   samples=samples)


def zbm_typeformula(g, degree, memory_cap=None):
    """Contract the average-cover network: M-fold stacked local functions
    joined through per-edge socket projectors."""
    cap = config.limits().contract if memory_cap is None else memory_cap
    M = degree
    tensors = []
    for k in range(g.n_nodes):
        t = np.asarray(g.tensors[k])
        d = t.ndim
        stacked_size = float(t.size) ** M
        if stacked_size > cap:
            raise CapacityError(
                f"stacked node tensor of {stacked_size:.3g} entries "
                f"exceeds the contraction cap {cap}",
                limit=cap, requested=int(stacked_size))
        stacked = t
        for _ in range(M - 1):
            stacked = np.multiply.outer(stacked, t)
        order = [m * d + a for a in range(d) for m in range(M)]
        stacked = stacked.transpose(order)
        stacked = stacked.reshape([s ** M for s in t.shape])
        labels = []
        for eid in g.incidences[k]:
            e = g.edge(eid)
            side = "i" if k == e.head else "j"
            labels.append(f"{eid}|{side}")
        tensors.append(ComplexTensor(tuple(labels), stacked))
    for e in g.edges:
        s = g.axis_size(e.eid)
        if float(s) ** (2 * M) > cap:
            raise CapacityError(
                f"socket projector for edge {e.eid!r} exceeds the cap",
                limit=cap)
        proj = socket_projector(s, M)
        tensors.append(ComplexTensor((f"{e.eid}|i", f"{e.eid}|j"), proj))
    mean = contract_network(tensors, memory_cap=cap)
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


def bethe_cover_bounds(estimates, z_star, alpha, slack=1e-6):
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
            ok=(ml >= -slack and mu >= -slack)))
    return report
