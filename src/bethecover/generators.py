"""Seeded instance generators: fixed benchmark topologies, random trees
and cycles, the unitary-chain fixture, and the random local-function
ensembles used by the experiment harness."""

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import StructuralError, ValidationError
from .nfg import DOUBLE, STANDARD, make_graph, validate
from .tensor import paired_from_choi

TOPOLOGIES = ("fig3", "fig-b", "cycle", "tree", "unitary-chain")
ENSEMBLES = ("psd-random", "psd-near-identity", "positive-s-nfg")


@dataclass
class GeneratorSpec:
    topology: str = "fig3"
    kind: str = DOUBLE
    alphabet: int = 2
    ensemble: str = "psd-random"
    eta: float = 0.02        # perturbation of the near-identity ensemble
    scale: float = 1.0       # overall factor on psd-random functions
    n: int = 4               # node count for cycle / tree topologies
    seed: object = 0         # int or sequence of ints


def _topology(spec, rng):
    """Node/edge lists; node incidence follows edge-definition order."""
    if spec.topology == "fig3":
        edges = [("e1", ("f1", "f2")), ("e2", ("f1", "f3")),
                 ("e3", ("f1", "f4")), ("e4", ("f2", "f4")),
                 ("e5", ("f3", "f4"))]
        names = ["f1", "f2", "f3", "f4"]
    elif spec.topology == "fig-b":
        edges = [("e1", ("f1", "f2")), ("e2", ("f1", "f3")),
                 ("e3", ("f1", "f4")), ("e4", ("f2", "f4")),
                 ("e5", ("f2", "f3")), ("e6", ("f3", "f4"))]
        names = ["f1", "f2", "f3", "f4"]
    elif spec.topology == "cycle":
        if spec.n < 2:
            raise ValidationError("a cycle needs at least two nodes")
        names = [f"f{k + 1}" for k in range(spec.n)]
        edges = [(f"e{k + 1}", (names[k], names[(k + 1) % spec.n]))
                 for k in range(spec.n)]
    elif spec.topology == "tree":
        if spec.n < 2:
            raise ValidationError("a tree needs at least two nodes")
        names = [f"f{k + 1}" for k in range(spec.n)]
        edges = []
        for k in range(1, spec.n):
            parent = int(rng.integers(0, k))
            edges.append((f"e{k}", (names[parent], names[k])))
    else:
        raise ValidationError(f"unknown topology {spec.topology!r}")
    incidences = {name: [] for name in names}
    for eid, (a, b) in edges:
        incidences[a].append(eid)
        incidences[b].append(eid)
    nodes = [(name, incidences[name]) for name in names]
    return nodes, [(eid, ab, spec.alphabet) for eid, ab in edges]


def _complex_gaussian(rng, shape):
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _node_tensor(spec, degree, rng):
    if spec.ensemble == "positive-s-nfg":
        if spec.kind != STANDARD:
            raise ValidationError(
                "positive-s-nfg functions require a standard graph")
        shape = (spec.alphabet,) * degree
        return 1.0 - rng.uniform(size=shape)          # entries in (0, 1]
    if spec.kind != DOUBLE:
        raise ValidationError(
            f"ensemble {spec.ensemble!r} requires a double-edge graph")
    side = spec.alphabet ** degree
    a = _complex_gaussian(rng, (side, side))
    gram = a @ a.conj().T
    if spec.ensemble == "psd-random":
        choi = gram * (side / np.trace(gram).real) * spec.scale
    elif spec.ensemble == "psd-near-identity":
        choi = np.eye(side) + spec.eta * gram / np.abs(gram).max()
    else:
        raise ValidationError(f"unknown ensemble {spec.ensemble!r}")
    return paired_from_choi(choi, [spec.alphabet] * degree)


def _unitary_chain(spec, rng):
    n = spec.alphabet
    w = _complex_gaussian(rng, (n, n))
    rho = w @ w.conj().T
    rho /= np.trace(rho).real
    u, _ = np.linalg.qr(_complex_gaussian(rng, (n, n)))
    b, _ = np.linalg.qr(_complex_gaussian(rng, (n, n)))

    def evolve(mat):
        # value at ((x_in, x_in'), (x_out, x_out')):
        #   mat(x_out, x_in) * conj(mat(x_out', x_in'))
        return np.einsum("ba,dc->acbd", mat, mat.conj()).reshape(n * n,
                                                                 n * n)

    tensors = {
        "rho": rho.reshape(n * n),
        "U": evolve(u),
        "B": evolve(b),
        "I": np.eye(n).reshape(n * n),
    }
    nodes = [("rho", ["e1"]), ("U", ["e1", "e2"]),
             ("B", ["e2", "e3"]), ("I", ["e3"])]
    edges = [("e1", ("rho", "U"), n), ("e2", ("U", "B"), n),
             ("e3", ("B", "I"), n)]
    return make_graph(DOUBLE, nodes, edges, tensors)


def gen(spec):
    """Build the graph described by a :class:`GeneratorSpec`.

    Deterministic for a given seed; the generated graph always passes
    :func:`bethecover.nfg.validate` for the declared kind.  A non-finite
    ``scale`` or ``eta``, and a local function over the ``contract`` cap,
    are refused before any draw.
    """
    if spec.alphabet < 1:
        raise StructuralError(
            f"alphabet size must be positive, got {spec.alphabet}")
    factor = {"psd-random": "scale", "psd-near-identity": "eta"}.get(
        spec.ensemble)
    if (spec.topology != "unitary-chain" and factor
            and not np.isfinite(getattr(spec, factor))):
        raise ValidationError(f"{factor} {getattr(spec, factor)!r} would "
                              f"give local functions non-finite entries")
    rng = np.random.default_rng(spec.seed)
    if spec.topology == "unitary-chain":
        if spec.kind != DOUBLE or spec.ensemble == "positive-s-nfg":
            raise ValidationError(
                f"the unitary chain is a double-edge graph with its own "
                f"functions, not a {spec.kind} {spec.ensemble} graph")
        config.check_capacity("contract", spec.alphabet ** 4,
                              "unitary-chain local function")
        g = _unitary_chain(spec, rng)
    else:
        nodes, edges = _topology(spec, rng)
        mult = 1 if spec.kind == STANDARD else 2
        for name, incident in nodes:
            config.check_capacity("contract",
                                  spec.alphabet ** (mult * len(incident)),
                                  f"local function of node {name!r}")
        # an entry that overflows to inf is refused by validate
        with np.errstate(over="ignore"):
            tensors = {name: _node_tensor(spec, len(incident), rng)
                       for name, incident in nodes}
        g = make_graph(spec.kind, nodes, edges, tensors)
    report = validate(g)
    if not report.valid:
        raise ValidationError(
            f"generated graph failed validation: {report.problems}")
    return g
