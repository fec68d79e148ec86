"""Normal factor graphs with variables on edges and local functions on
nodes.

Two kinds are supported.  In a ``standard`` graph every edge carries one
variable and local functions are nonnegative reals.  In a ``double-edge``
graph every edge carries a pair ``(x, x')`` over the same base alphabet;
the pair is stored as a single axis of size ``|X|**2`` (unprimed-major),
and local functions are complex with a Hermitian (weak sense) or
positive-semidefinite (strict sense) matrix representation.
"""

import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from ._kernels import enum_configs
from .errors import ParseError, StructuralError, ValidationError
from .tensor import ComplexTensor, choi_from_paired, contract, stored_array

STANDARD = "standard"
DOUBLE = "double-edge"

SCHEMA = "nfg-1"


@dataclass(frozen=True)
class Edge:
    eid: str
    head: int       # smaller node index
    tail: int       # larger node index
    alphabet: int   # |X_e|, the base alphabet size


class FactorGraph:
    """Immutable graph; build instances through :func:`make_graph`."""

    def __init__(self, kind, node_names, incidences, edges, tensors,
                 weak_sense=False):
        self.kind = kind
        self.node_names = tuple(node_names)
        self.incidences = tuple(tuple(p) for p in incidences)
        self.edges = tuple(edges)
        self.tensors = tuple(tensors)
        self.weak_sense_flag = bool(weak_sense)
        self._edge_pos = {e.eid: k for k, e in enumerate(self.edges)}

    # -- lookups ---------------------------------------------------- #

    @property
    def n_nodes(self):
        return len(self.node_names)

    @property
    def n_edges(self):
        return len(self.edges)

    def edge(self, eid):
        return self.edges[self._edge_pos[eid]]

    def axis_size(self, eid):
        n = self.edge(eid).alphabet
        return n if self.kind == STANDARD else n * n

    def degree(self, node):
        return len(self.incidences[node])

    def directed_keys(self):
        """All (edge id, endpoint node index) pairs, in edge order."""
        keys = []
        for e in self.edges:
            keys.append((e.eid, e.head))
            keys.append((e.eid, e.tail))
        return keys

    def edge_positions(self, node):
        """Positions in ``edges`` of the node's incident edges, in axis
        order."""
        return [self._edge_pos[eid] for eid in self.incidences[node]]

    def other_endpoint(self, eid, node):
        e = self.edge(eid)
        return e.tail if node == e.head else e.head

    def node_choi(self, node):
        """Matrix representation of a double-edge node's local function."""
        bases = [self.edge(eid).alphabet for eid in self.incidences[node]]
        return choi_from_paired(self.tensors[node], bases)

    def with_tensors(self, tensors, weak_sense=None):
        """The same graph with new local functions, one per node in node
        order, stored and shape-checked as :func:`make_graph` does."""
        tensors = list(tensors)
        if len(tensors) != self.n_nodes:
            raise StructuralError(
                f"{len(tensors)} tensors given for {self.n_nodes} nodes")
        weak = self.weak_sense_flag if weak_sense is None else weak_sense
        arrays = [_stored_tensor(name, t, old.shape) for name, t, old
                  in zip(self.node_names, tensors, self.tensors)]
        return FactorGraph(self.kind, self.node_names, self.incidences,
                           self.edges, arrays, weak)


def make_graph(kind, nodes, edges, tensors, weak_sense=False):
    """Assemble a :class:`FactorGraph`.

    ``nodes``   -- sequence of (name, ordered incident edge ids)
    ``edges``   -- sequence of (edge id, (name_a, name_b), alphabet size)
    ``tensors`` -- mapping name -> dense array over the incident edges,
                   axis k belonging to the k-th incident edge (paired axis
                   of size ``alphabet**2`` for double-edge graphs)

    Arrays are stored by :func:`tensor.stored_array`: copied unless
    read-only, C-contiguous and owning their data.
    """
    if kind not in (STANDARD, DOUBLE):
        raise StructuralError(f"unknown graph kind {kind!r}")
    names = [n for n, _ in nodes]
    if len(set(names)) != len(names):
        raise StructuralError("node names not distinct")
    pos = {n: k for k, n in enumerate(names)}
    edge_objs = []
    seen = set()
    for eid, (na, nb), alphabet in edges:
        if eid in seen:
            raise StructuralError(f"duplicate edge id {eid!r}")
        seen.add(eid)
        if na not in pos or nb not in pos:
            raise StructuralError(f"edge {eid!r} references unknown node")
        a, b = pos[na], pos[nb]
        if a == b:
            raise StructuralError(f"edge {eid!r} is a self-loop")
        if a > b:
            a, b = b, a
        if alphabet < 1:
            raise StructuralError(f"edge {eid!r} has empty alphabet")
        edge_objs.append(Edge(eid, a, b, int(alphabet)))
    by_id = {e.eid: e for e in edge_objs}

    incidences = []
    for name, incident in nodes:
        for eid in incident:
            if eid not in by_id:
                raise StructuralError(
                    f"node {name!r} lists unknown edge {eid!r}")
        incidences.append(tuple(incident))

    # every edge must appear exactly once at each endpoint
    holders = {e.eid: [] for e in edge_objs}
    for k, incident in enumerate(incidences):
        for eid in incident:
            holders[eid].append(k)
    for e in edge_objs:
        if sorted(holders[e.eid]) != sorted([e.head, e.tail]):
            raise StructuralError(
                f"edge {e.eid!r} endpoints {sorted([e.head, e.tail])} do not "
                f"match incidence lists {sorted(holders[e.eid])}")

    mult = 1 if kind == STANDARD else 2
    arrays = []
    for k, name in enumerate(names):
        if name not in tensors:
            raise StructuralError(f"missing tensor for node {name!r}")
        want = tuple(by_id[eid].alphabet ** mult for eid in incidences[k])
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
    tol = config.TOLS
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
            if im > tol.herm:
                problems.append(
                    f"node {name!r}: complex entries (|Im| max {im:.3e})")
            if not g.weak_sense_flag and neg < -tol.psd:
                problems.append(
                    f"node {name!r}: negative entries (min {neg:.3e})")
            node_status[name] = NodeStatus(im, neg, neg >= -tol.psd)
        else:
            c = g.node_choi(k)
            defect = float(np.max(np.abs(c - c.conj().T)))
            if defect > tol.herm:
                problems.append(
                    f"node {name!r}: matrix not Hermitian "
                    f"(defect {defect:.3e})")
                node_status[name] = NodeStatus(defect, float("nan"), False)
                strict = False
                continue
            # halved before adding: c + c^H overflows for entries near 1e308
            lo = float(np.linalg.eigvalsh(c / 2.0 + c.conj().T / 2.0)[0])
            psd = lo >= -tol.psd
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
    sizes = [g.axis_size(e.eid) for e in g.edges]
    if len(configuration) != len(sizes) or not all(
            0 <= x < n for x, n in zip(configuration, sizes)):
        raise StructuralError(f"configuration {configuration!r} does not "
                              f"fit the edges' axis sizes {sizes}")
    out = 1.0 + 0.0j
    for k, t in enumerate(g.tensors):
        out *= t[tuple(configuration[i] for i in g.edge_positions(k))]
    return out


def configurations(g):
    """The ``(digits, values)`` chunks of :func:`_kernels.enum_configs`
    over every configuration of ``g``, after the ``enum`` cap check; a
    chunk with a product that overflows raises ``ValidationError``."""
    sizes = [g.axis_size(e.eid) for e in g.edges]
    config.check_capacity("enum", math.prod(sizes), "configurations")
    node_edges = [g.edge_positions(k) for k in range(g.n_nodes)]
    return ((digits, finite(values, "a configuration's product"))
            for digits, values in enum_configs(g.tensors, node_edges, sizes))


def partition_exact(g):
    """Partition function by direct summation over all configurations,
    chunk sums added in fixed order; ``ValidationError`` if it overflows."""
    total = 0.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):
        for _, values in configurations(g):
            total += values.sum()
    return finite(complex(total), "Z")


# ------------------------------------------------------------------ #
# greedy contraction                                                  #
# ------------------------------------------------------------------ #

@dataclass(frozen=True)
class ContractionPlan:
    """Pairwise merges that contract a closed network to a scalar.

    Slots ``0..n-1`` are the input tensors and step j writes slot
    ``n + j``.  ``steps`` holds ``(left slot, right slot, (left axes,
    right axes))``, the axes paired in order; the slot a step writes holds
    the left operand's free axes, then the right's, each in its operand's
    order.  ``scalars`` lists the slots whose values multiply into the
    result, in that order; ``peak`` is the entry count of the largest
    intermediate (0 when nothing is merged).
    """

    steps: tuple
    scalars: tuple
    peak: int


def plan_contraction(shapes):
    """Plan the greedy elimination of a network given as
    ``(labels, sizes)`` pairs, one per tensor, from labels and sizes alone.

    The network is checked here and nowhere else: a tensor whose labels
    do not name each of its axes once, and a label that is not on exactly
    two tensors or has two sizes, raise ``StructuralError`` before
    anything is planned.  At each step the cluster whose merge with all
    its neighbours leaves the smallest open size is eliminated, ties going to the earliest created
    cluster (inputs in list order, then merged clusters); the neighbours
    are merged into it one by one in creation order, and the merged
    cluster is created last.  A merge changes the cost of the new cluster
    and of its neighbours only, so just those are re-costed; the rest of
    the costs wait in a heap of ``(cost, slot)`` whose stale entries are
    skipped (greedy paths as in Smith & Gray, "opt_einsum", JOSS 2018).
    """
    # nbr[slot]: label -> the slot holding its other end, in axis order
    nbr, size, ends = [], {}, {}
    for slot, (labels, sizes) in enumerate(shapes):
        nbr.append(dict.fromkeys(labels))
        if not len(nbr[slot]) == len(labels) == len(sizes):
            raise StructuralError(f"tensor {slot}: labels {tuple(labels)} do "
                                  f"not name its {len(sizes)} axes once each")
        for lab, s in zip(labels, sizes):
            if size.setdefault(lab, s) != s:
                raise StructuralError(
                    f"label {lab!r}: size {size[lab]} vs {s}")
            ends.setdefault(lab, []).append(slot)
    bad = [lab for lab, holders in ends.items() if len(holders) != 2]
    if bad:
        raise StructuralError(f"labels not paired: {sorted(bad)[:5]}")
    for lab, (a, b) in ends.items():
        nbr[a][lab], nbr[b][lab] = b, a

    def cost(k):
        group = {k, *nbr[k].values()}
        return math.prod(size[lab] for m in group
                         for lab, p in nbr[m].items() if p not in group)

    current = {k: cost(k) for k, labs in enumerate(nbr) if labs}
    heap = [(c, k) for k, c in current.items()]
    heapq.heapify(heap)
    scalars = [k for k, labs in enumerate(nbr) if not labs]
    steps, peak = [], 0
    while heap:
        c, k = heapq.heappop(heap)
        if current.get(k) != c:
            continue
        new, merged, out = k, {k}, nbr[k]
        for i in sorted(set(out.values())):
            axis = {lab: a for a, lab in enumerate(nbr[i])}
            pairs = [(a, axis[lab]) for a, (lab, p) in enumerate(out.items())
                     if p == i]
            # the result's axes: the left's free ones, then the right's
            out = {lab: p for lab, p in out.items() if p != i}
            out.update((lab, p) for lab, p in nbr[i].items()
                       if p not in merged)
            merged.add(i)
            peak = max(peak, math.prod(size[lab] for lab in out))
            steps.append((new, i, tuple(zip(*pairs))))
            new = len(nbr)
            nbr.append(None)
        nbr[new] = out
        for m in merged:
            nbr[m] = None
            current.pop(m)
        if not out:
            scalars.append(new)
            continue
        for lab, p in out.items():
            nbr[p][lab] = new
        for m in {new, *out.values()}:
            current[m] = cost(m)
            heapq.heappush(heap, (current[m], m))
    return ContractionPlan(tuple(steps), tuple(scalars), peak)


def contract_network(tensors):
    """Contract a closed network of labeled tensors down to a scalar.

    Plan, check, execute.  :func:`plan_contraction` fixes every pairwise
    merge and the largest intermediate from labels and sizes alone; that
    intermediate is checked against the ``contract`` cap (``CapacityError``
    with ``requested`` set to its entry count) before any contraction
    runs; the plan's merges then run through :func:`tensor.contract`.
    An intermediate that overflows carries inf or NaN into the result,
    which then raises ``ValidationError``.
    """
    plan = plan_contraction([(t.labels, t.sizes) for t in tensors])
    config.check_capacity("contract", plan.peak,
                          "largest contraction intermediate")
    slots = list(tensors)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b, axes in plan.steps:
            slots.append(contract(slots[a], slots[b], axes))
            slots[a] = slots[b] = None
    result = 1.0 + 0.0j
    for k in plan.scalars:
        result *= complex(slots[k].array)
    return finite(result, "the contraction")


def partition_contract(g):
    """Partition function by greedy sequential node elimination."""
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
    doc = {
        "schema": SCHEMA,
        "kind": g.kind,
        "weak_sense": g.weak_sense_flag,
        "nodes": [{"name": name, "edges": list(g.incidences[k])}
                  for k, name in enumerate(g.node_names)],
        "edges": [{"id": e.eid,
                   "endpoints": [g.node_names[e.head], g.node_names[e.tail]],
                   "alphabet": e.alphabet}
                  for e in g.edges],
        "tensors": {name: {"axes": list(g.incidences[k]),
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
