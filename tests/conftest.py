"""Shared builders for the test suite."""

import numpy as np
import pytest

from bethecover import nfg
from bethecover.generators import GeneratorSpec, gen
from bethecover.spa import messages
from bethecover.tensor import paired_from_choi

FIG3_NODES = [("f1", ["e1", "e2", "e3"]), ("f2", ["e1", "e4"]),
              ("f3", ["e2", "e5"]), ("f4", ["e3", "e4", "e5"])]
FIG3_EDGES = [("e1", ("f1", "f2"), 2), ("e2", ("f1", "f3"), 2),
              ("e3", ("f1", "f4"), 2), ("e4", ("f2", "f4"), 2),
              ("e5", ("f3", "f4"), 2)]


def build_fig3(kind="standard", tensors=None):
    if tensors is None:
        tensors = {name: np.ones(tuple(2 for _ in incident))
                   for name, incident in FIG3_NODES}
    return nfg.make_graph(kind, FIG3_NODES, FIG3_EDGES, tensors)


def two_cycle(f1, f2, alphabet=2, kind="standard"):
    """Two nodes joined by two parallel edges."""
    return nfg.make_graph(
        kind,
        nodes=[("f1", ["e1", "e2"]), ("f2", ["e1", "e2"])],
        edges=[("e1", ("f1", "f2"), alphabet),
               ("e2", ("f1", "f2"), alphabet)],
        tensors={"f1": f1, "f2": f2})


def power_trap_graph():
    """The 2-cycle whose sum-product fixed point has vanishing edge
    overlaps: one upper-triangular and one identity local function."""
    return two_cycle(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))


def power_trap_fixed_point(g):
    """The fixed point of :func:`power_trap_graph` ``g`` whose edge
    overlaps vanish."""
    return messages(g, {
        (0, 0): np.array([0, 1], dtype=np.complex128),
        (1, 0): np.array([1, 0], dtype=np.complex128),
        (0, 1): np.array([1, 0], dtype=np.complex128),
        (1, 1): np.array([0, 1], dtype=np.complex128)})


def random_choi(side, rng, trace_to=None):
    a = (rng.standard_normal((side, side))
         + 1j * rng.standard_normal((side, side))) / np.sqrt(2)
    c = a @ a.conj().T
    if trace_to is not None:
        c *= trace_to / np.trace(c).real
    return c


def fig3_psd(seed):
    return gen(GeneratorSpec(topology="fig3", kind="double-edge",
                             ensemble="psd-random", seed=seed))


def fig3_near_identity(seed, eta=0.02):
    return gen(GeneratorSpec(topology="fig3", kind="double-edge",
                             ensemble="psd-near-identity", eta=eta,
                             seed=seed))


def random_tree_de(seed, n):
    return gen(GeneratorSpec(topology="tree", kind="double-edge",
                             ensemble="psd-random", n=n, seed=seed))


def graph_with_choi(nodes, edges, choi, kind="double-edge"):
    alpha = {eid: a for eid, _, a in edges}
    tensors = {}
    for name, incident in nodes:
        bases = [alpha[eid] for eid in incident]
        tensors[name] = paired_from_choi(choi[name], bases)
    return nfg.make_graph(kind, nodes, edges, tensors)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
