"""Normal factor graphs with variables on edges and local functions on
nodes.

Two kinds are supported.  In a ``standard`` graph every edge carries one
variable and local functions are nonnegative reals.  In a ``double-edge``
graph every edge carries a pair ``(x, x')`` over the same base alphabet;
the pair is stored as a single axis of size ``|X|**2`` (unprimed-major),
and local functions are complex with a Hermitian (weak sense) or
positive-semidefinite (strict sense) matrix representation.

The partition function is summed in two ways: over every configuration
(:func:`partition_exact`) and by contracting the network
(:func:`partition_contract`).  :func:`configurations`, the one
enumeration routine of the package, which the loop series also reads,
computes each chunk of configurations as one broadcast product of the
nodes' tensors.
"""

import heapq
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import ParseError, StructuralError, ValidationError
from .tensor import (ComplexTensor, Merge, choi_from_paired, contract,
                     stored_array)

STANDARD = "standard"
DOUBLE = "double-edge"

SCHEMA = "nfg-1"

_HERM_TOL = 1e-9   # Hermitian defect allowed in a Choi matrix
_PSD_TOL = 1e-9    # eigenvalue slack of the PSD test


@dataclass(frozen=True)
class Edge:
    """An edge between nodes ``head`` and ``tail``.  A graph that
    :func:`make_graph` builds has none with head == tail; a reduced graph
    of the cover estimators may hold such a loop, which its node lists
    twice, the head leg first."""

    eid: str
    head: int       # smaller node index
    tail: int       # larger node index
    alphabet: int   # |X_e|, the base alphabet size


class FactorGraph:
    """Immutable graph; build instances through :func:`make_graph`.
    ``incidences[k]`` lists node k's edges in axis order, as positions in
    ``edges``; an edge id is only a name, for files and output."""

    def __init__(self, kind, node_names, incidences, edges, tensors,
                 weak_sense=False):
        self.kind = kind
        self.node_names = tuple(node_names)
        self.incidences = tuple(tuple(p) for p in incidences)
        self.edges = tuple(edges)
        self.tensors = tuple(tensors)
        self.weak_sense_flag = bool(weak_sense)

    # -- lookups ---------------------------------------------------- #

    @property
    def n_nodes(self):
        return len(self.node_names)

    @property
    def n_edges(self):
        return len(self.edges)

    def axis_size(self, i):
        n = self.edges[i].alphabet
        return n if self.kind == STANDARD else n * n

    def degree(self, node):
        return len(self.incidences[node])

    def node_choi(self, node):
        """Matrix representation of a double-edge node's local function."""
        bases = [self.edges[i].alphabet for i in self.incidences[node]]
        return choi_from_paired(self.tensors[node], bases)

    def with_tensors(self, tensors, weak_sense):
        """The same graph with new local functions, one per node in node
        order, stored and shape-checked as :func:`make_graph` does, and
        the given ``weak_sense`` flag."""
        tensors = list(tensors)
        if len(tensors) != self.n_nodes:
            raise StructuralError(
                f"{len(tensors)} tensors given for {self.n_nodes} nodes")
        arrays = [_stored_tensor(name, t, old.shape) for name, t, old
                  in zip(self.node_names, tensors, self.tensors)]
        return FactorGraph(self.kind, self.node_names, self.incidences,
                           self.edges, arrays, weak_sense)


def make_graph(kind, nodes, edges, tensors, weak_sense=False):
    """Assemble a :class:`FactorGraph`.

    ``nodes``   -- sequence of (name, ordered incident edge ids)
    ``edges``   -- sequence of (edge id, (name_a, name_b), alphabet size)
    ``tensors`` -- mapping name -> dense array over the incident edges,
                   axis k belonging to the k-th incident edge (paired axis
                   of size ``alphabet**2`` for double-edge graphs)

    Each node's edge ids are mapped here, once, to positions in ``edges``.
    Each array is stored as its own read-only complex copy, by
    :func:`tensor.stored_array`.
    """
    if kind not in (STANDARD, DOUBLE):
        raise StructuralError(f"unknown graph kind {kind!r}")
    names = [n for n, _ in nodes]
    if len(set(names)) != len(names):
        raise StructuralError("node names not distinct")
    pos = {n: k for k, n in enumerate(names)}
    edge_objs, edge_pos = [], {}
    for eid, (na, nb), alphabet in edges:
        if eid in edge_pos:
            raise StructuralError(f"duplicate edge id {eid!r}")
        if na not in pos or nb not in pos:
            raise StructuralError(f"edge {eid!r} references unknown node")
        a, b = pos[na], pos[nb]
        if a == b:
            raise StructuralError(f"edge {eid!r} is a self-loop")
        if a > b:
            a, b = b, a
        if alphabet < 1:
            raise StructuralError(f"edge {eid!r} has empty alphabet")
        edge_pos[eid] = len(edge_objs)
        edge_objs.append(Edge(eid, a, b, int(alphabet)))

    incidences = []
    for name, incident in nodes:
        for eid in incident:
            if eid not in edge_pos:
                raise StructuralError(
                    f"node {name!r} lists unknown edge {eid!r}")
        incidences.append(tuple(edge_pos[eid] for eid in incident))

    # every edge must appear exactly once at each endpoint
    holders = [[] for _ in edge_objs]
    for k, incident in enumerate(incidences):
        for i in incident:
            holders[i].append(k)
    for e, held in zip(edge_objs, holders):
        if sorted(held) != [e.head, e.tail]:
            raise StructuralError(
                f"edge {e.eid!r} endpoints {[e.head, e.tail]} do not "
                f"match incidence lists {sorted(held)}")

    mult = 1 if kind == STANDARD else 2
    arrays = []
    for k, name in enumerate(names):
        if name not in tensors:
            raise StructuralError(f"missing tensor for node {name!r}")
        want = tuple(edge_objs[i].alphabet ** mult for i in incidences[k])
        arrays.append(_stored_tensor(name, tensors[name], want))
    return FactorGraph(kind, names, incidences, edge_objs, arrays, weak_sense)


def _stored_tensor(name, arr, want):
    """:func:`tensor.stored_array` of node ``name``'s local function
    ``arr``, which must have shape ``want``."""
    arr = stored_array(arr)
    if arr.shape != want:
        raise StructuralError(
            f"tensor for node {name!r} has shape {arr.shape}, "
            f"incident edges require {want}")
    return arr


# ------------------------------------------------------------------ #
# validation                                                          #
# ------------------------------------------------------------------ #

def finite(value, what):
    """``value`` if all its entries are finite floats, else
    ``ValidationError``: ``what`` overflowed, so the local functions are
    too large for floats."""
    if not np.isfinite(value).all():
        raise ValidationError(
            f"local functions too large: {what} overflows a float")
    return value


@dataclass
class NodeStatus:
    hermitian_defect: float
    min_eigenvalue: float
    psd: bool


@dataclass
class ValidationReport:
    kind: str
    valid: bool
    classification: str         # standard | strict-sense | weak-sense
    problems: list = field(default_factory=list)
    node_status: dict = field(default_factory=dict)


def validate(g):
    """Check structural and local-function invariants of a graph."""
    problems = []

    node_status = {}
    strict = True
    for k, name in enumerate(g.node_names):
        t = g.tensors[k]
        if not np.isfinite(t).all():
            # before any eigenvalue: LAPACK does not converge on NaN or inf
            problems.append(f"node {name!r}: non-finite entries")
            node_status[name] = NodeStatus(float("nan"), float("nan"), False)
            strict = False
        elif g.kind == STANDARD:
            im = float(np.max(np.abs(t.imag))) if t.size else 0.0
            neg = float(np.min(t.real)) if t.size else 0.0
            if im > _HERM_TOL:
                problems.append(
                    f"node {name!r}: complex entries (|Im| max {im:.3e})")
            if not g.weak_sense_flag and neg < -_PSD_TOL:
                problems.append(
                    f"node {name!r}: negative entries (min {neg:.3e})")
            node_status[name] = NodeStatus(im, neg, neg >= -_PSD_TOL)
        else:
            c = g.node_choi(k)
            defect = float(np.max(np.abs(c - c.conj().T)))
            if defect > _HERM_TOL:
                problems.append(
                    f"node {name!r}: matrix not Hermitian "
                    f"(defect {defect:.3e})")
                node_status[name] = NodeStatus(defect, float("nan"), False)
                strict = False
                continue
            # halved before adding: c + c^H overflows for entries near 1e308
            lo = float(np.linalg.eigvalsh(c / 2.0 + c.conj().T / 2.0)[0])
            psd = lo >= -_PSD_TOL
            node_status[name] = NodeStatus(defect, lo, psd)
            if not psd:
                strict = False
                if not g.weak_sense_flag:
                    problems.append(
                        f"node {name!r}: not positive semidefinite "
                        f"(min eigenvalue {lo:.3e})")
    classification = (STANDARD if g.kind == STANDARD
                      else "strict-sense" if strict else "weak-sense")

    return ValidationReport(
        kind=g.kind,
        valid=not problems,
        classification=classification,
        problems=problems,
        node_status=node_status,
    )


# ------------------------------------------------------------------ #
# evaluation                                                          #
# ------------------------------------------------------------------ #

def global_eval(g, configuration):
    """Product of the local-function entries a configuration selects.

    ``configuration`` is a tuple of axis indices, one per edge in
    ``g.edges`` order: a digit row of :func:`configurations`.  On a
    double-edge graph the pair ``(x, x')`` has axis index ``x*|X| + x'``.
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


_CHUNK = 65536   # most rows of a chunk, unless its last edge alone has more


def configurations(g):
    """The value of every configuration of ``g``, in chunks, after the
    ``enum`` cap check: the one enumeration routine of the package.

    Configurations run in row-major order over ``g.edges`` (the last edge
    varies fastest), so a chunk's rows follow each other in that order.
    A chunk holds every value of the longest run of trailing edges with
    at most 65536 configurations (the last edge alone when it has more),
    for one value of the edges before them.  It is computed as one
    broadcast product: each node's tensor, its axes moved to edge order
    and its leading edges fixed, multiplied in node order onto a one,
    which is the order in which :func:`global_eval` multiplies one row.
    A chunk with a value that overflows raises ``ValidationError``.
    """
    sizes = [g.axis_size(i) for i in range(g.n_edges)]
    config.check_capacity("enum", math.prod(sizes), "configurations")
    split, rows = len(sizes), 1
    while split and rows * sizes[split - 1] <= _CHUNK:
        split -= 1
        rows *= sizes[split]
    split = min(split, max(len(sizes) - 1, 0))
    factors = []
    for t, inc in zip(g.tensors, g.incidences):
        edges = sorted(set(inc))
        # axes in edge order; the two axes of a loop give their diagonal
        arr = np.einsum(t, [edges.index(i) for i in inc], range(len(edges)))
        lead = [i for i in edges if i < split]
        shape = [sizes[i] for i in lead] + [
            sizes[i] if i in inc else 1 for i in range(split, len(sizes))]
        factors.append((arr.reshape(shape), lead))

    def chunk(prefix):
        values = np.ones((), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for arr, lead in factors:
                values = values * arr[tuple(prefix[i] for i in lead)]
        return finite(values.reshape(-1), "a configuration's product")

    return map(chunk, itertools.product(*map(range, sizes[:split])))


def partition_exact(g):
    """Partition function by direct summation over all configurations,
    chunk sums added in fixed order; ``ValidationError`` if it overflows."""
    total = 0.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):
        for values in configurations(g):
            total += values.sum()
    return finite(complex(total), "Z")


# ------------------------------------------------------------------ #
# greedy contraction: merge the connected pair that frees the most   #
# entries, ties to the smaller result (Smith & Gray, JOSS 2018)      #
# ------------------------------------------------------------------ #

@dataclass(frozen=True)
class ContractionPlan:
    """Pairwise merges that contract a closed network to a scalar.

    Slots ``0..n-1`` are the input tensors and step j writes slot
    ``n + j``.  ``steps`` holds ``(left slot, right slot, merge)``, where
    ``merge`` is the :class:`tensor.Merge` that :func:`tensor.contract`
    runs as one matrix product; the slot a step writes holds the left
    operand's free axes, then the right's, each in its operand's order.
    ``scalars`` lists the slots whose values multiply into the result, in
    that order; ``peak`` is the entry count of the largest intermediate
    (0 when nothing is merged).
    """

    steps: tuple
    scalars: tuple
    peak: int


def plan_contraction(shapes):
    """Plan the pairwise greedy contraction of a network given as
    ``(labels, sizes)`` pairs, one per tensor, from labels and sizes alone.

    The network is checked here and nowhere else: a tensor whose labels
    do not name each of its axes once, a label that is not on exactly
    two tensors or has two sizes, and a label of size 0 raise
    ``StructuralError`` before anything is planned.  At each step the
    live pair of clusters ``a < b`` that share a label and minimize
    ``entries(out) - entries(a) - entries(b)`` is merged, a the left
    operand: the merge that frees the most entries, or adds the fewest
    (the "memory removed" greedy of Smith & Gray, "opt_einsum", JOSS
    2018).  Ties go to the smaller ``entries(out)``, then to the lowest
    ``(a, b)``.  A cluster left with no labels is a scalar.

    Sizes are exact integers kept per cluster: ``entries[k]``, the entry
    count of cluster k, and ``bond[k][p]``, that of the labels k shares
    with p, so a pair's result has ``entries[a] * entries[b] //
    bond[a][b]**2`` entries.  A merge changes no other pair's score, so
    only the new cluster's pairs are scored; the rest wait in a heap of
    ``(score, entries(out), a, b)`` whose entries naming a merged cluster
    are skipped.  Each merge is recorded with the axis orders and 2-D
    shapes of its matrix product, read off the operands' label orders.
    """
    # nbr[slot]: label -> the slot holding its other end, in axis order
    nbr, entries, size, ends = [], [], {}, {}
    for slot, (labels, sizes) in enumerate(shapes):
        nbr.append(dict.fromkeys(labels))
        if not len(nbr[slot]) == len(labels) == len(sizes):
            raise StructuralError(f"tensor {slot}: labels {tuple(labels)} do "
                                  f"not name its {len(sizes)} axes once each")
        entries.append(math.prod(sizes))
        for lab, s in zip(labels, sizes):
            if size.setdefault(lab, s) != s:
                raise StructuralError(
                    f"label {lab!r}: size {size[lab]} vs {s}")
            ends.setdefault(lab, []).append(slot)
    bad = [lab for lab, holders in ends.items() if len(holders) != 2]
    if bad:
        raise StructuralError(f"labels not paired: {sorted(bad)[:5]}")
    empty = [lab for lab, s in size.items() if s < 1]
    if empty:
        raise StructuralError(f"labels of size 0: {sorted(empty)[:5]}")
    bond = [{} for _ in nbr]
    for lab, (a, b) in ends.items():
        nbr[a][lab], nbr[b][lab] = b, a
        bond[a][b] = bond[b][a] = bond[a].get(b, 1) * size[lab]

    def score(a, b):
        n_out = entries[a] * entries[b] // bond[a][b] ** 2
        return n_out - entries[a] - entries[b], n_out, a, b

    heap = [score(a, b) for a, near in enumerate(bond) for b in near if a < b]
    heapq.heapify(heap)
    scalars = [k for k, labs in enumerate(nbr) if not labs]
    steps, peak = [], 0
    while heap:
        _, n_out, a, b = heapq.heappop(heap)
        if nbr[a] is None or nbr[b] is None:
            continue
        # a's axes free then paired, b's paired (in a's order) then free;
        # the result keeps both free runs
        right = {lab: ax for ax, lab in enumerate(nbr[b])}
        left_axes, pair_axes, right_axes, out = [], [], [], {}
        for ax, (lab, p) in enumerate(nbr[a].items()):
            if p == b:
                pair_axes.append(ax)
                right_axes.append(right[lab])
            else:
                left_axes.append(ax)
                out[lab] = p
        for lab, p in nbr[b].items():
            if p != a:
                right_axes.append(right[lab])
                out[lab] = p
        s = bond[a][b]
        peak = max(peak, n_out)
        steps.append((a, b, Merge(
            tuple(left_axes + pair_axes), (entries[a] // s, s),
            tuple(right_axes), (s, entries[b] // s),
            tuple(map(size.__getitem__, out)), tuple(out))))
        new = len(nbr)
        out_bond = {}
        for k, other in ((a, b), (b, a)):
            for p, t in bond[k].items():
                if p != other:
                    del bond[p][k]
                    out_bond[p] = out_bond.get(p, 1) * t
            nbr[k] = bond[k] = None
        nbr.append(out)
        entries.append(n_out)
        bond.append(out_bond)
        if not out:
            scalars.append(new)
            continue
        for lab, p in out.items():
            nbr[p][lab] = new
        for p, t in out_bond.items():
            bond[p][new] = t
            heapq.heappush(heap, score(p, new))
    return ContractionPlan(tuple(steps), tuple(scalars), peak)


def contract_network(tensors):
    """Contract a closed network of labeled tensors down to a scalar.

    Plan, check, execute.  :func:`plan_contraction` fixes every pairwise
    merge, down to the axis orders and shapes of its matrix product, and
    the largest intermediate from labels and sizes alone; that
    intermediate is checked against the ``contract`` cap
    (``CapacityError`` with ``requested`` set to its entry count) before
    any contraction runs; the plan's merges then run through
    :func:`tensor.contract`, one call per step.  An intermediate that
    overflows carries inf or NaN into the result, which then raises
    ``ValidationError``.
    """
    plan = plan_contraction([(t.labels, t.sizes) for t in tensors])
    config.check_capacity("contract", plan.peak,
                          "largest contraction intermediate")
    return run_plan(plan, tensors)


def run_plan(plan, tensors):
    """The execute step of :func:`contract_network`: ``plan``'s merges on
    ``tensors``, the network it was planned from and checked for, one
    :func:`tensor.contract` call per step, and the product of the scalars
    left; ``ValidationError`` if that product is not finite."""
    slots = list(tensors)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b, merge in plan.steps:
            slots.append(contract(slots[a], slots[b], merge))
            slots[a] = slots[b] = None
    result = 1.0 + 0.0j
    for k in plan.scalars:
        result *= complex(slots[k].array)
    return finite(result, "the contraction")


def partition_contract(g):
    """Partition function by the pairwise greedy contraction of the
    graph's tensors (:func:`plan_contraction`)."""
    tensors = [ComplexTensor(g.incidences[k], g.tensors[k])
               for k in range(g.n_nodes)]
    return contract_network(tensors)


# ------------------------------------------------------------------ #
# text serialization                                                  #
# ------------------------------------------------------------------ #

def complex_pairs(arr):
    """Entries of ``arr`` in row-major order as ``[re, im]`` pairs."""
    flat = np.asarray(arr, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def serialize(g):
    """Graph as a deterministic JSON document (extension ``.nfg.json``)."""
    ids = [[g.edges[i].eid for i in inc] for inc in g.incidences]
    doc = {
        "schema": SCHEMA,
        "kind": g.kind,
        "weak_sense": g.weak_sense_flag,
        "nodes": [{"name": name, "edges": ids[k]}
                  for k, name in enumerate(g.node_names)],
        "edges": [{"id": e.eid,
                   "endpoints": [g.node_names[e.head], g.node_names[e.tail]],
                   "alphabet": e.alphabet}
                  for e in g.edges],
        "tensors": {name: {"axes": ids[k],
                           "data": complex_pairs(g.tensors[k])}
                    for k, name in enumerate(g.node_names)},
    }
    return json.dumps(doc, indent=1)


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", bool: "true or false"}


def _field(value, kind, location):
    """``value`` if its JSON type is ``kind`` (a bool is not an integer),
    else ``ParseError`` at ``location``."""
    if not isinstance(value, kind) or (kind is int
                                       and isinstance(value, bool)):
        raise ParseError(f"expected {_JSON_TYPES[kind]}, got "
                         f"{json.dumps(value)[:40]}", location=location)
    return value


def parse(text):
    """Parse a serialized graph document; inverse of :func:`serialize`.

    Every field is checked for its JSON type where it is read; a document
    that does not describe a graph raises ``ParseError``, never another
    exception.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         location=f"line {exc.lineno}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    for key in ("schema", "kind", "nodes", "edges", "tensors"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}", location="top level")
    if doc["schema"] != SCHEMA:
        raise ParseError(f"unsupported schema {doc['schema']!r}",
                         location="schema")
    kind = doc["kind"]
    if kind not in (STANDARD, DOUBLE):
        raise ParseError(f"unknown kind {kind!r}", location="kind")
    mult = 1 if kind == STANDARD else 2
    weak_sense = _field(doc.get("weak_sense", False), bool, "weak_sense")

    nodes, edges, tensors = [], [], {}
    for k, nd in enumerate(_field(doc["nodes"], list, "nodes")):
        where = f"nodes[{k}]"
        _field(nd, dict, where)
        if "name" not in nd or "edges" not in nd:
            raise ParseError("node needs 'name' and 'edges'", location=where)
        incident = _field(nd["edges"], list, f"{where}.edges")
        for a, eid in enumerate(incident):
            _field(eid, str, f"{where}.edges[{a}]")
        nodes.append((_field(nd["name"], str, f"{where}.name"), incident))
    for k, ed in enumerate(_field(doc["edges"], list, "edges")):
        where = f"edges[{k}]"
        _field(ed, dict, where)
        for key in ("id", "endpoints", "alphabet"):
            if key not in ed:
                raise ParseError(f"edge needs {key!r}", location=where)
        ends = _field(ed["endpoints"], list, f"{where}.endpoints")
        if len(ends) != 2:
            raise ParseError("edge needs exactly two endpoints",
                             location=where)
        for a, name in enumerate(ends):
            _field(name, str, f"{where}.endpoints[{a}]")
        # checked here, not only by make_graph: the tensor shapes below
        # are built from it
        alphabet = _field(ed["alphabet"], int, f"{where}.alphabet")
        if alphabet < 1:
            raise ParseError(f"alphabet must be positive, got {alphabet}",
                             location=f"{where}.alphabet")
        edges.append((_field(ed["id"], str, f"{where}.id"), tuple(ends),
                      alphabet))
    alpha = {eid: a for eid, _, a in edges}
    tensor_docs = _field(doc["tensors"], dict, "tensors")
    for name, incident in nodes:
        td = tensor_docs.get(name)
        if td is None:
            raise ParseError(f"missing tensor for node {name!r}",
                             location="tensors")
        _field(td, dict, f"tensors[{name!r}]")
        if td.get("axes", []) != incident:
            raise ParseError(
                f"axis order {td.get('axes')} does not match the node's "
                f"incident edges {list(incident)}",
                location=f"tensors[{name!r}].axes")
        want = 1
        for eid in incident:
            if eid not in alpha:
                raise ParseError(f"axis references unknown edge {eid!r}",
                                 location=f"tensors[{name!r}]")
            want *= alpha[eid] ** mult
        data = td.get("data")
        if not isinstance(data, list) or len(data) != want:
            raise ParseError(
                f"tensor data for {name!r} must list {want} complex pairs",
                location=f"tensors[{name!r}].data")
        try:
            pairs = [(re, im) for re, im in data]
            bad = [x for p in pairs for x in p if type(x) not in (int, float)]
            if bad:
                raise TypeError(f"{json.dumps(bad[0])[:40]} is not a number")
            # OverflowError on an integer beyond the float range; viewing
            # the (re, im) rows keeps every part as it was read
            flat = np.array(pairs, dtype=np.float64).view(np.complex128)[:, 0]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"complex entries must be [re, im] pairs of "
                             f"numbers: {exc}",
                             location=f"tensors[{name!r}].data") from exc
        if not np.isfinite(flat).all():
            raise ParseError(f"tensor data for {name!r} is not finite",
                             location=f"tensors[{name!r}].data")
        shape = tuple(alpha[eid] ** mult for eid in incident)
        tensors[name] = flat.reshape(shape)
    try:
        return make_graph(kind, nodes, edges, tensors, weak_sense=weak_sense)
    except StructuralError as exc:
        raise ParseError(str(exc)) from exc


def save(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(g))
        fh.write("\n")


def load(path):
    """:func:`parse` of the UTF-8 file at ``path``, else ``ParseError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: "
                         f"{getattr(exc, 'strerror', exc)}") from exc
    return parse(text)
