"""Degree-M graph covers and the degree-M Bethe partition function, the
mean of Z over the labeled M-covers (P. O. Vontobel, "Counting in Graph
Covers", IEEE Trans. IT 59(9), 2013).

:func:`_networks` states the cover wiring once, as integer-labeled
networks that the exhaustive and Monte-Carlo means contract without
building a graph.  It wires a call's covers in blocks: one integer array
of permutations per block (:func:`_blocks`), whose inverses give every
label of every copy in a few array operations; :func:`cover_network` is
its one-row use and :func:`build_cover` names that network as a graph.
Relabeling a node's M copies keeps a cover's Z, so any edge's permutation
can be taken to the identity and the edge contracted in the base graph.
Both means first reduce the graph this way (:func:`_absorb`): every leaf
and every node of degree 2 between two distinct neighbours goes into a
neighbour, and then each pair of nodes that two or more edges join
contracts its lowest edge, the pair's other edges becoming loops, so a
fig3 cover is M tensors, not 4M.  A block of drawn covers is lifted to
the reduced graph at once (:func:`_lift_block`).  A copy on which a
loop's permutation is fixed traces that loop, with an array built once
per reduced graph.  The exhaustive mean fixes a spanning forest to the
identity.
The third estimator contracts the average-cover network, whose edges
carry the symmetric-subspace projector, in the type basis: one tensor per
node over the types of length-M socket vectors, one weight
``1/multinomial(type)`` per edge.
:func:`socket_projector` keeps the socket-basis projector as ground truth.
"""

import itertools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import (InternalConsistencyError, SignedRootError,
                     StructuralError, ValidationError)
from .nfg import (Edge, FactorGraph, contract_network, finite, make_graph,
                  plan_contraction, run_plan)
from .tensor import ComplexTensor

_IMAG_TOL = 1e-9      # relative imaginary part allowed in a cover mean
_BOUND_SLACK = 1e-6   # margin a sandwich bound may miss by and still hold
_BLOCK = 2**14        # entries a type-tensor block's buffers, or a stack
                      # of covers, are held to


# ------------------------------------------------------------------ #
# covers                                                              #
# ------------------------------------------------------------------ #

def identity_cover(g, degree):
    """The cover of ``degree`` disjoint copies of ``g``: every edge's row
    is ``range(degree)``."""
    return np.tile(np.arange(degree), (g.n_edges, 1))


def random_cover(g, degree, rng):
    """A uniformly drawn cover: one ``rng.permuted`` call over a row of
    ``range(degree)`` per edge draws what |E| sequential
    ``rng.permutation(degree)`` calls draw, and leaves ``rng`` where they
    leave it."""
    return rng.permuted(identity_cover(g, degree), axis=1)


# graph -> {(node, code): (axes kept, traced array)}, see _networks
_TRACED = weakref.WeakKeyDictionary()


def cover_network(g, sigma):
    """The degree-M cover of ``g`` as a closed network: :func:`_networks`
    on the one cover ``sigma``, an ``(|E|, M)`` integer array whose row i
    is the i-th edge's permutation of range(M), once it is checked to be
    one."""
    if sigma.ndim != 2:
        raise StructuralError(f"a cover is an (edges, degree) array, not "
                              f"one of shape {sigma.shape}")
    n_edges, M = sigma.shape
    if n_edges != g.n_edges:
        raise StructuralError(f"cover spec has {n_edges} "
                              f"permutations for {g.n_edges} edges")
    if M < 1:
        raise StructuralError("cover degree must be positive")
    bad = np.flatnonzero((np.sort(sigma) != np.arange(M)).any(axis=1))
    if bad.size:
        raise StructuralError(
            f"edge {bad[0]}: {tuple(sigma[bad[0]].tolist())!r} is not a "
            f"permutation of range({M})")
    return next(_networks(g, M, [sigma[None]]))


def _blocks(rows, shape, h):
    """``rows`` of permutations, each of ``shape`` ``(edges, M)`` (an
    array or nested sequences), stacked in order into integer blocks.  A
    block holds as many rows as keep it, and the labels that
    :func:`_networks` gives it on the legs of ``h``, within ``_BLOCK``
    entries, or one row when a row alone is larger."""
    n_edges, M = shape
    rows, size = iter(rows), max(1, _BLOCK // (
        M * max(1, n_edges, 2 * h.n_edges)))
    while chunk := list(itertools.islice(rows, size)):
        yield np.array(chunk, dtype=np.intp).reshape((len(chunk),) + shape)


def _networks(g, degree, blocks):
    """The degree-M cover of ``g`` of each row of ``blocks``, in order, as
    a closed network, one :class:`ComplexTensor` per cover node ``(f_k,
    m)`` in the order ``k*M + m``, with f_k's legs and f_k's read-only
    array itself: the one statement of the wiring.  A block is an ``(S,
    |E|, M)`` integer array whose row ``sigma`` holds ``sigma_i`` for the
    i-th edge e of ``g`` (a double edge moves as a unit); copy m of e is the
    label ``i*M + m`` at ``(head, m)`` and ``(tail, sigma_i(m))``, so the
    tail legs of a block read the inverse permutations.  For a graph that
    :func:`make_graph` builds, no check of it can fail on the cover: names
    are distinct; head != tail, so no self-loop; sigma_i is a permutation
    (:func:`cover_network` checks a caller's cover, and the means make
    their own), so each label is on exactly two legs; shapes and
    alphabets are the base graph's.

    A reduced graph of :func:`_absorb` may hold loops: at node k, a loop's
    first leg is its head.  A copy m with ``sigma_i(m) == m`` holds its
    label on both legs, so that axis pair is traced out of the array,
    which is built once per graph, node and set of traced loops: a copy's
    code, bit j for its node's j-th loop, names that set.
    """
    M, E = degree, g.n_edges
    # per leg of g, node by node in axis order: its edge, and whether it
    # holds its label's tail end; copy c's labels follow copy c - 1's, so
    # cover node (f_k, c) reads its run of copy c's legs
    legs = [i for inc in g.incidences for i in inc]
    tail, loops = [], {}    # loops: node -> [(head axis, tail axis, i)]
    for k, inc in enumerate(g.incidences):
        for a, i in enumerate(inc):
            x = inc.index(i)
            if x != a:
                loops.setdefault(k, []).append((x, a, i))
            tail.append(x != a or g.edges[i].head != k)
    runs = list(itertools.accumulate(map(len, g.incidences), initial=0))
    spans = [(c * len(legs) + lo, c * len(legs) + hi, t)
             for lo, hi, t in zip(runs, runs[1:], g.tensors)
             for c in range(M)]
    copies = np.arange(M)
    tail = np.array(tail, dtype=bool)
    base = np.array(legs, dtype=np.intp) * M
    own = base + copies[:, None]        # (M, legs): i*M + c
    if loops:
        traced = _TRACED.setdefault(g, {})
        # a copy's code has bit j set when it traces its node's j-th loop
        weights = np.zeros((len(loops), E), dtype=np.intp)
        for r, ends in enumerate(loops.values()):
            for j, (_, _, i) in enumerate(ends):
                weights[r, i] = 1 << j

    def variant(k, code):
        """The axes kept at node k's copies of ``code`` and their array."""
        if (k, code) not in traced:
            sub = list(range(len(g.incidences[k])))
            for j, (x, y, _) in enumerate(loops[k]):
                if code >> j & 1:
                    sub[y] = x
            keep = [ax for ax in sub if sub.count(ax) == 1]
            # an entry that overflows is refused by the contraction
            with np.errstate(over="ignore", invalid="ignore"):
                traced[k, code] = keep, np.einsum(g.tensors[k], sub, keep)
        return traced[k, code]

    for sigma in blocks:
        # the tail leg of edge i at copy c holds i*M + sigma_i^-1(c)
        inverse = np.argsort(sigma, axis=-1).reshape(len(sigma), E * M)
        labels = np.where(tail, inverse[:, own] + base, own).reshape(
            len(sigma), -1).tolist()
        codes = [()] * len(sigma)
        if loops:
            codes = np.matmul(weights, sigma == copies).tolist()
        for flat, node_codes in zip(labels, codes):
            network = [ComplexTensor(flat[lo:hi], t) for lo, hi, t in spans]
            for k, copy_codes in zip(loops, node_codes):
                for c, code in enumerate(copy_codes):
                    if code:
                        keep, array = variant(k, code)
                        held = network[k * M + c].labels
                        network[k * M + c] = ComplexTensor(
                            [held[ax] for ax in keep], array)
            yield network


def _absorb(g, degree):
    """``g`` reduced for its degree-``degree`` covers, plus the chain of
    each surviving edge: the ``(base edge position, forward)`` steps it
    stands for, read from its head to its tail (``forward`` when the step
    runs from that base edge's head to its tail).

    Each step contracts an edge i between a node v and a node a into a:
    v's other edges move to a, a's legs then v's, and each moved edge's
    chain starts with i's steps from a.  In every M-cover, relabeling v's
    copies takes i's permutation to the identity, so copy c of a meets
    one copy of v, and the two contract into one; composing the
    permutations along each chain gives the cover of the reduced graph
    that :func:`_lift_block` gives, with the same Z.  An edge that ends with
    both ends at a is a loop: its head leg is a's own, and its chain runs
    a -> v -> a.

    Three rules pick the steps.  Until none is left, in position order,
    a leaf goes into its neighbour, and a node of degree 2 between two
    distinct neighbours goes into the one across its larger axis, so
    neither ever grows a tensor.  Then the node pairs that two or more
    edges join, taken greedily in edge order with each node in at most
    one pair, contract their lowest edge (the spine) into the pair's
    lower node: the pair's other edges become loops, and a node with a
    loop is not merged again.  At M = 1 every loop would be traced, so
    the spine step contracts all of the pair's edges at once.  Each spine
    step is checked against the ``contract`` cap before it is built.
    Overflow is carried as inf into the contraction, which refuses it.
    """
    tensors = list(g.tensors)
    inc = [list(p) for p in g.incidences]   # None once absorbed
    ends = [[e.head, e.tail] for e in g.edges]   # None once absorbed
    chains = [[(i, True)] for i in range(g.n_edges)]

    def flip(chain):
        return [(p, not fwd) for p, fwd in reversed(chain)]

    def walk(i, x):
        """Edge i's far end from node x, and its chain read from x."""
        if ends[i][0] == x:
            return ends[i][1], chains[i]
        return ends[i][0], flip(chains[i])

    def contract(joined, v, a):
        """Contract the edges ``joined`` between v and a into a, by the
        transposes and the one ``np.dot`` that ``np.tensordot`` runs."""
        step = walk(joined[0], a)[1]
        x, y = tensors[a], tensors[v]
        pair_x = [inc[a].index(i) for i in joined]
        pair_y = [inc[v].index(i) for i in joined]
        free_x = [ax for ax in range(x.ndim) if ax not in pair_x]
        free_y = [ax for ax in range(y.ndim) if ax not in pair_y]
        n = math.prod(x.shape[ax] for ax in pair_x)
        shape = [x.shape[ax] for ax in free_x] + [y.shape[ax] for ax in free_y]
        tensors[a] = np.dot(x.transpose(free_x + pair_x).reshape(-1, n),
                            y.transpose(pair_y + free_y).reshape(n, -1)
                            ).reshape(shape)
        for j in inc[v]:
            if j not in joined:
                b, rest = walk(j, v)
                ends[j], chains[j] = [a, b], step + rest
                if b == a:      # read the loop from a's own leg
                    chains[j] = flip(chains[j])
        inc[a] = [j for j in inc[a] + inc[v] if j not in joined]
        for i in joined:
            ends[i] = None
        inc[v] = None

    changed = True
    with np.errstate(over="ignore", invalid="ignore"):
        while changed:
            changed = False
            for v, edges in enumerate(inc):
                if edges is None or not 1 <= len(edges) <= 2:
                    continue
                if len(edges) == 2 and g.axis_size(edges[1]) > \
                        g.axis_size(edges[0]):
                    edges = edges[::-1]
                i, *far = edges
                a = walk(i, v)[0]
                if far and walk(far[0], v)[0] == a:
                    continue
                contract([i], v, a)
                changed = True
        joined = {}
        for i, e in enumerate(ends):
            if e is not None:
                joined.setdefault(tuple(sorted(e)), []).append(i)
        taken = set()
        for (a, v), edges in joined.items():
            if len(edges) < 2 or taken.intersection((a, v)):
                continue
            taken.update((a, v))
            spine = edges if degree == 1 else edges[:1]
            config.check_capacity(
                "contract", tensors[a].size * tensors[v].size
                // math.prod(g.axis_size(i) for i in spine) ** 2,
                f"merged copies of {g.node_names[a]!r} and "
                f"{g.node_names[v]!r}")
            contract(spine, v, a)
    nodes = [k for k, edges in enumerate(inc) if edges is not None]
    kept = [i for i, e in enumerate(ends) if e is not None]
    node_pos = {k: n for n, k in enumerate(nodes)}
    edge_pos = {i: n for n, i in enumerate(kept)}
    edges, lifted = [], []
    for i in kept:
        head, tail = sorted(ends[i])
        edges.append(Edge(g.edges[i].eid, node_pos[head], node_pos[tail],
                          g.edges[i].alphabet))
        lifted.append(walk(i, head)[1])
    h = FactorGraph(g.kind, [g.node_names[k] for k in nodes],
                    [[edge_pos[i] for i in inc[k]] for k in nodes], edges,
                    [tensors[k] for k in nodes], g.weak_sense_flag)
    return h, lifted


def _lift_block(chains, sigma):
    """Each row of an ``(S, |E|, M)`` block of base covers lifted to the
    reduced graph: each chain's permutations composed from the reduced
    edge's head, a step that runs tail to head inverted."""
    # a permutation's argsort is its inverse
    steps = sigma, np.argsort(sigma, axis=-1)
    lifted = np.empty((len(sigma), len(chains), sigma.shape[2]),
                      dtype=np.intp)
    for e, ((i, forward), *rest) in enumerate(chains):
        perm = steps[not forward][:, i]
        for i, forward in rest:
            perm = np.take_along_axis(steps[not forward][:, i], perm, axis=-1)
        lifted[:, e] = perm
    return lifted


def build_cover(g, sigma):
    """:func:`cover_network` of a graph without loops as a graph, for the
    cover ``sigma`` that it checks: node ``(f, m)`` is ``f.m``; label
    ``i*M + m`` is edge ``e.m`` between the two nodes that hold it."""
    network = cover_network(g, sigma)
    M = sigma.shape[1]
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


def class_size(counts):
    """Number of vectors sharing a type (multinomial coefficient)."""
    degree = sum(counts)
    value = math.factorial(degree)
    for k in counts:
        value //= math.factorial(k)
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
    inv_sizes = np.array([1 / class_size(key) for key in uniq])
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
    covers: int = None        # exhaustive only: (M!)**|E| labeled covers
    samples: int = None       # Monte-Carlo only


def _finish(method, degree, mean, **extra):
    mean = finite(complex(mean), "the cover mean")
    if abs(mean.imag) > _IMAG_TOL * (1.0 + abs(mean)):
        raise InternalConsistencyError(
            f"cover mean {mean!r} has a non-negligible imaginary part")
    value = mean.real
    if value < 0.0:
        raise SignedRootError(
            f"cover mean {value!r} is negative; no real degree-root")
    root = value ** (1.0 / degree)
    return ZbmEstimate(method=method, degree=degree, power_value=value,
                       root=root, **extra)


def zbm_exhaustive(g, degree):
    """Mean of Z over the ``(M!)**|E|`` labeled covers (``covers``), from
    the ``(M!)**(|E|-|V|+c)`` with the identity on a spanning forest: the
    relabeling ``sigma_e -> pi_tail o sigma_e o pi_head^-1`` keeps Z and
    takes each labeled cover there in exactly ``(M!)**c`` ways.

    The covers are those of :func:`_absorb`'s graph, whose every cover is
    a base cover with its absorbed nodes contracted, with that cover's Z.
    Each step removes one node and one edge and keeps the components (at
    M = 1 a spine step removes more edges, and every count is 1), so
    ``|E|-|V|+c``, and the count, is the base graph's; a loop is never a
    forest edge.
    """
    if degree < 1:
        raise StructuralError("cover degree must be positive")
    h, _ = _absorb(g, degree)
    comp, free = list(range(h.n_nodes)), []
    for e in h.edges:   # union-find: a forest edge joins two components
        a, b = comp[e.head], comp[e.tail]
        comp = [a if c == b else c for c in comp]
        free.append(a == b)
    # (M!)**sum(free) covers; where lgamma puts that over 2**65, the lower
    # bound 2**64 stands in, so a huge degree is refused without computing M!
    if sum(free) * math.lgamma(degree + 1) > 65 * math.log(2):
        n_covers = 2**64
    else:
        n_covers = math.factorial(degree) ** sum(free)
    config.check_capacity("covers", n_covers, "gauge-fixed covers")
    identity = tuple(range(degree))
    rows = itertools.product(*(
        itertools.permutations(identity) if f else (identity,)
        for f in free))
    total = 0.0 + 0.0j
    for network in _networks(h, degree,
                             _blocks(rows, (h.n_edges, degree), h)):
        total += contract_network(network)
    return _finish("exhaustive", degree, total / n_covers,
                   covers=math.factorial(degree) ** g.n_edges)


def zbm_montecarlo(g, degree, samples, seed=0):
    """Unbiased sample mean over uniformly drawn covers; deterministic
    for a given seed (one independent permutation per edge per sample,
    sample s drawn from ``default_rng([seed, s])`` as :func:`random_cover`
    draws).

    Each drawn cover of ``g`` is contracted as its row of
    :func:`_lift_block` on :func:`_absorb`'s graph, which has the same Z
    with the absorbed nodes of every copy contracted into their
    neighbours."""
    if samples < 1:
        raise StructuralError(f"samples must be positive, got {samples}")
    config.check_capacity("contract", samples, "Monte-Carlo value buffer")
    if degree < 1:
        raise StructuralError("cover degree must be positive")
    values = np.empty(samples, dtype=np.complex128)
    h, chains = _absorb(g, degree)
    identity = identity_cover(g, degree)
    draws = (np.random.default_rng([seed, s]).permuted(identity, axis=1)
             for s in range(samples))
    blocks = _blocks(draws, identity.shape, h)
    for s, network in enumerate(_networks(
            h, degree, (_lift_block(chains, b) for b in blocks))):
        values[s] = contract_network(network)
    # a sum that overflows is refused by _finish
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.sum() / samples
        if samples > 1:
            stderr = float(np.std(values.real, ddof=1) / np.sqrt(samples))
        else:
            stderr = 0.0
    return _finish("montecarlo", degree, mean, stderr=stderr,
                   samples=samples)


def _type_tables(alphabet_size, degree):
    """Gather tables of the type recursion for levels 1..``degree``,
    which :func:`_leg_tables` lays out for :func:`_type_tensor`, and the
    types of length-``degree`` vectors.

    The types of a level are listed in the fixed order the type tensors
    index them by: count tuples sorted in reverse, which is the order of
    ``itertools.combinations_with_replacement``.  Each level's types are
    the previous level's with one symbol added.  In the table of level j,
    row k, column c holds the index at level j - 1 of type k with one c
    removed, or the zero slot ``n_{j-1}`` when type k holds no c; an
    extra last row, the zero slot of level j, maps every c to the zero
    slot, so the first leg builds that slot as it builds a type.
    """
    below = [(0,) * alphabet_size]
    tables = []
    for _ in range(degree):
        # type -> {symbol c: index below of the type with one c removed}
        grown = {}
        for i, t in enumerate(below):
            for c in range(alphabet_size):
                grown.setdefault(t[:c] + (t[c] + 1,) + t[c + 1:], {})[c] = i
        here = sorted(grown, reverse=True)
        table = np.full((len(here) + 1, alphabet_size), len(below),
                        dtype=np.intp)
        for k, t in enumerate(here):
            for c, i in grown[t].items():
                table[k, c] = i
        tables.append(table)
        below = here
    return tables, below


def _leg_tables(tables):
    """Per level, the two gather tables a leg of alphabet size ``s`` reads
    the level below by, from its :func:`_type_tables` tables.

    ``first[c, u]`` is the row below of type u with one c removed, or the
    zero row ``n_{j-1}``, for every type u of the level and its zero slot
    ``n_j``: the first leg gathers whole rows of the level below.
    ``rows[c, u]`` indexes the same predecessor of a type u in a (type,
    symbol) row layout, row ``first[c, u] * s + c``, with the single zero
    row ``n_{j-1} * s``: every further leg gathers those rows.
    """
    legs = []
    for table in tables:
        zero, s = table[-1, 0], table.shape[1]
        first = np.ascontiguousarray(table.T)
        rows = np.where(first[:, :-1] < zero,
                        first[:, :-1] * s + np.arange(s)[:, None], zero * s)
        legs.append((first, rows))
    return legs


def _type_block(sizes, j):
    """How :func:`_type_tensor` blocks level ``j`` >= 2 of a node with leg
    sizes ``sizes``: the first leg's types one block builds (its zero slot
    among them), and the entries per type of the largest array a block
    needs.  Each array of a block is linear in its type count, so
    ``_BLOCK`` bounds a block unless one type alone is over it."""
    below = [math.comb(s + j - 2, j - 1) for s in sizes]
    here = [math.comb(s + j - 1, j) for s in sizes]
    cols = math.prod(below[1:])
    per_type = [sizes[0] * cols]   # the first leg's gather
    cols *= math.prod(sizes[1:])   # after the product with the node
    for a in range(1, len(sizes)):
        cols //= below[a] * sizes[a]
        # leg a's rows with their zero row, then its sum and one gather
        per_type += [(below[a] * sizes[a] + 1) * cols, here[a] * cols]
        cols *= here[a]
    per_type = max(per_type)
    return max(1, min(here[0] + 1, _BLOCK // per_type)), per_type


def _type_blocks(sizes, degree):
    """Per level 2..``degree``, the first leg's types one block of
    :func:`_type_tensor` builds (:func:`_type_block`), and the entries of
    the largest array a block needs."""
    steps, largest = [], 0
    for j in range(2, degree + 1):
        step, per_type = _type_block(sizes, j)
        steps.append(step)
        largest = max(largest, step * per_type)
    return steps, largest


def _type_block_peak(sizes, degree):
    """The entries of the largest array of :func:`_type_blocks`, without
    its walk over every level once the degree passes ``_BLOCK``.

    A block holds one type when that type is over ``_BLOCK``, and at most
    ``_BLOCK`` entries otherwise.  The counts of :func:`_type_block` are
    products of binomials that grow with the level j, so the entries per
    type grow with j: not at all when every leg after the first has one
    symbol, and otherwise to at least j, the first leg's gather.  Past
    ``_BLOCK`` levels, then, either every level's block holds as many
    types as the last or fewer, or the last level's one type is over
    ``_BLOCK`` and over every other level's: the last block is the
    largest either way."""
    if degree <= _BLOCK:
        return _type_blocks(sizes, degree)[1]
    step, per_type = _type_block(sizes, degree)
    return step * per_type


def _type_level(sizes, degree):
    """Entries of the last level :func:`_type_tensor` builds for a node
    with leg sizes ``sizes`` (its first leg's zero slot included; 1 for no
    legs): a lower bound of :func:`_type_tensor_peak`, counted in O(d)."""
    here = [math.comb(s + degree - 1, degree) for s in sizes] or [0]
    return (here[0] + 1) * math.prod(here[1:])


def _type_tensor_peak(sizes, degree):
    """Entries of the largest array :func:`_type_tensor` allocates for a
    node with leg sizes ``sizes``: the last level (:func:`_type_level`)
    or one of the three block buffers (:func:`_type_block_peak`),
    whichever is larger."""
    if not sizes:
        return 1
    return max(_type_level(sizes, degree), _type_block_peak(sizes, degree))


def _type_tensor(t, legs, degree):
    """Type tensor of a node: entry ``[u_1..u_d]`` sums
    ``prod_m t(x^(m))`` over the ordered M-tuples of configurations whose
    leg-a symbols have type ``u_a``, i.e. the coefficients of the M-th
    power of the node's multilinear form.

    ``legs[a][j]`` is leg a's :func:`_leg_tables` pair for level j + 1.
    Level 1 is ``t`` itself, the sum with one nonzero term; level j + 1
    is built from level j, whose first axis ends in its zero slot, in
    blocks of the first leg's types (:func:`_type_blocks`), each
    written into the preallocated level through three buffers that every
    block reuses.  In a block, the first leg gathers rows of level j, one
    per symbol, and one matrix product with ``t`` sums them; each further
    leg a then lays its (type, symbol) pairs out as rows, with one zero
    row, and sums ``s_a`` row gathers.  The sums run in the order of the
    one-leg-at-a-time recursion over levels padded on every axis, whose
    bits they give.
    """
    d = t.ndim
    if d == 0:
        return t ** degree
    sizes = t.shape
    node = t.reshape(sizes[0], -1)
    steps, largest = _type_blocks(sizes, degree)
    # laid: the first leg's gather, then each leg's rows; summed: the
    # product with t, then each leg's sum; part: one gather of that sum
    laid, summed, part = (np.empty(largest, dtype=np.complex128)
                          for _ in range(3))
    level = np.zeros((sizes[0] + 1,) + sizes[1:], dtype=np.complex128)
    level[:-1] = t
    for j, step in enumerate(steps, 1):
        below = (level.shape[0] - 1,) + level.shape[1:]
        here = [leg[j][1].shape[1] for leg in legs]
        rows = level.reshape(below[0] + 1, -1)
        level = np.empty((here[0] + 1,) + tuple(here[1:]),
                         dtype=np.complex128)
        for lo in range(0, here[0] + 1, step):
            first = legs[0][j][0][:, lo:lo + step]
            cols = first.shape[1] * rows.shape[1]
            # every index is in range: "clip" lets take fill out unbuffered
            x = rows.take(first, axis=0, mode="clip", out=laid[
                :sizes[0] * cols].reshape(first.shape + (-1,)))
            x = x.reshape(sizes[0], cols).T
            if node.shape[1] == 1:
                # numpy hands a one-column product to gemv, whose sums
                # follow the recursion's only on rows laid out contiguously
                rowwise = part[:x.size].reshape(x.shape)
                np.copyto(rowwise, x)
                x = rowwise
            # axes (b, i_1..i_{d-1}, c_1..c_{d-1}); b is the block's type
            x = np.dot(x, node, out=summed[:cols * node.shape[1]].reshape(
                cols, node.shape[1]))
            x = x.reshape(first.shape[1:] + below[1:] + sizes[1:]).transpose(
                [ax for a in range(1, d) for ax in (a, d - 1 + a)] + [0])
            for a in range(1, d):
                # x holds (i_a, c_a, ...) and becomes (u_a, ...): leg a's
                # rows, its zero row last, then s_a gathers summed in order
                width = x.size // (below[a] * sizes[a])
                x_rows = laid[:x.size + width].reshape(-1, width)
                x_rows[-1] = 0.0
                np.copyto(x_rows[:-1].reshape(x.shape), x)
                gather = legs[a][j][1]
                acc = summed[:here[a] * width].reshape(here[a], width)
                one = part[:acc.size].reshape(acc.shape)
                x_rows.take(gather[0], axis=0, out=acc, mode="clip")
                for c in range(1, sizes[a]):
                    x_rows.take(gather[c], axis=0, out=one, mode="clip")
                    acc += one
                x = acc.T   # (..., u_a): u_a joins the block's own types
            np.copyto(level[lo:lo + step].reshape(x.shape), x)
    return level[:-1]


def zbm_typeformula(g, degree):
    """Contract the average-cover network in the type basis.

    Each edge's socket projector factors as ``S diag(1/|class|) S^T``,
    where ``S`` sums a length-M socket vector into its type.  Pushing
    ``S`` into the M-fold stacked local functions leaves one type tensor
    per node, with leg size ``C(s+M-1, M)`` instead of ``s**M``; each edge
    keeps the diagonal weight ``1/multinomial(type)``, folded into its
    head endpoint.  Before any type tensor is built, the capacity check
    covers each node's :func:`_type_tensor_peak`, in node order, then the
    largest intermediate of the type-tensor network's contraction plan,
    made from the leg sizes alone; the built network runs that plan.  A
    peak reads at most ``_BLOCK`` levels, so a huge degree is refused at
    the first node at once.
    """
    if degree < 1:
        raise StructuralError("cover degree must be positive")
    M = degree
    for name, t in zip(g.node_names, g.tensors):
        config.check_capacity("contract", _type_tensor_peak(t.shape, M),
                              f"type tensor of node {name!r}")
    plan = plan_contraction([
        (g.incidences[k], [math.comb(s + M - 1, M) for s in t.shape])
        for k, t in enumerate(g.tensors)])
    config.check_capacity("contract", plan.peak,
                          "largest contraction intermediate")
    legs, weights = {}, {}
    for i in range(g.n_edges):
        s = g.axis_size(i)
        if s not in legs:
            tables, types = _type_tables(s, M)
            legs[s] = _leg_tables(tables)
            # integer true division is correctly rounded, and a count
            # beyond the float range gives 0.0, not an OverflowError
            weights[s] = np.array([1 / class_size(u) for u in types])
    tensors = []
    # an entry that overflows is refused by run_plan
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(g.tensors):
            u = _type_tensor(t, [legs[s] for s in t.shape], M)
            for a, i in enumerate(g.incidences[k]):
                if g.edges[i].head == k:
                    u *= weights[t.shape[a]].reshape(
                        [-1 if b == a else 1 for b in range(t.ndim)])
            tensors.append(ComplexTensor(g.incidences[k], u))
    mean = run_plan(plan, tensors)
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
    Violations are reported, never raised; a ``Z* ** M`` that underflows
    to 0.0 raises ``ValidationError``.
    """
    report = BoundsReport(alpha=alpha, z_star=z_star)
    for est in estimates:
        M = est.degree
        scale = z_star ** M
        if scale == 0.0:
            raise ValidationError(
                f"local functions too small: Z*^{M} underflows a float")
        ratio = est.power_value / scale
        lower = 1.0 - sum(alpha ** j for j in range(1, M + 1))
        upper = sum(alpha ** j for j in range(0, M + 1))
        ml = ratio - lower
        mu = upper - ratio
        report.entries.append(BoundEntry(
            degree=M, ratio_power=ratio, lower=lower, upper=upper,
            margin_lower=ml, margin_upper=mu,
            ok=(ml >= -_BOUND_SLACK and mu >= -_BOUND_SLACK)))
    return report
