"""Graph model, validation, partition functions and serialization."""

import itertools
import os

import numpy as np
import pytest

from bethecover import nfg
from bethecover.errors import CapacityError, ParseError, StructuralError
from bethecover.generators import GeneratorSpec, gen
from bethecover.tensor import paired_from_choi

from conftest import (FIG3_EDGES, FIG3_NODES, build_fig3, fig3_psd,
                      graph_with_choi, power_trap_graph, random_tree_de,
                      two_cycle)


def brute_force_partition(g):
    """Independent pure-python enumeration oracle."""
    total = 0.0 + 0.0j
    sizes = [g.axis_size(e.eid) for e in g.edges]
    for values in itertools.product(*[range(s) for s in sizes]):
        axis = dict(zip([e.eid for e in g.edges], values))
        term = 1.0 + 0.0j
        for k in range(g.n_nodes):
            sel = tuple(axis[eid] for eid in g.incidences[k])
            term *= g.tensors[k][sel]
        total += term
    return total


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(StructuralError):
            nfg.make_graph("standard",
                           nodes=[("f1", ["e1"])],
                           edges=[("e1", ("f1", "f1"), 2)],
                           tensors={"f1": np.ones(2)})

    def test_dangling_edge_rejected(self):
        with pytest.raises(StructuralError, match="e2"):
            nfg.make_graph("standard",
                           nodes=[("f1", ["e1"]), ("f2", ["e1"])],
                           edges=[("e1", ("f1", "f2"), 2),
                                  ("e2", ("f1", "f2"), 2)],
                           tensors={"f1": np.ones(2), "f2": np.ones(2)})

    def test_axis_mismatch_rejected(self):
        with pytest.raises(StructuralError, match="shape"):
            two_cycle(np.ones((2, 3)), np.ones((2, 2)))

    def test_endpoints_normalized(self):
        g = nfg.make_graph("standard",
                           nodes=[("f1", ["e1"]), ("f2", ["e1"])],
                           edges=[("e1", ("f2", "f1"), 2)],
                           tensors={"f1": np.ones(2), "f2": np.ones(2)})
        e = g.edge("e1")
        assert e.head < e.tail


class TestValidate:
    def test_identity_choi_fig3_is_strict(self):
        tensors = {name: paired_from_choi(np.eye(2 ** len(inc)),
                                          [2] * len(inc))
                   for name, inc in FIG3_NODES}
        g = nfg.make_graph("double-edge", FIG3_NODES, FIG3_EDGES, tensors)
        report = nfg.validate(g)
        assert report.valid
        assert report.classification == "strict-sense"

    def test_negative_eigenvalue_is_weak_only(self):
        choi = {"f1": np.diag([1.0, 1.0, 1.0, -1.0]), "f2": np.eye(4)}
        g = graph_with_choi(
            [("f1", ["e1", "e2"]), ("f2", ["e1", "e2"])],
            [("e1", ("f1", "f2"), 2), ("e2", ("f1", "f2"), 2)], choi)
        report = nfg.validate(g)
        assert report.classification == "weak-sense"
        assert not report.valid
        weak = g.with_tensors(g.tensors, weak_sense=True)
        report = nfg.validate(weak)
        assert report.valid
        assert report.classification == "weak-sense"

    def test_unitary_chain_is_strict(self):
        g = gen(GeneratorSpec(topology="unitary-chain", seed=4))
        report = nfg.validate(g)
        assert report.valid
        assert report.classification == "strict-sense"
        assert g.node_names == ("rho", "U", "B", "I")
        assert g.is_forest()

    def test_standard_negative_entry_flagged(self):
        g = two_cycle(np.array([[1.0, -0.5], [0.0, 1.0]]), np.eye(2))
        report = nfg.validate(g)
        assert not report.valid


class TestGlobalEval:
    def test_all_ones(self):
        g = build_fig3()
        for cfg in ({"e1": 0, "e2": 0, "e3": 0, "e4": 0, "e5": 0},
                    {"e1": 1, "e2": 0, "e3": 1, "e4": 0, "e5": 1}):
            assert nfg.global_eval(g, cfg) == 1.0

    def test_power_trap_off_support(self):
        g = power_trap_graph()
        assert nfg.global_eval(g, {"e1": 1, "e2": 0}) == 0.0
        assert nfg.global_eval(g, {"e1": 0, "e2": 0}) == 1.0

    def test_double_edge_matches_lookup_oracle(self):
        g = fig3_psd(12)
        cfg = {e.eid: (0, 0) for e in g.edges}
        value = nfg.global_eval(g, cfg)
        oracle = 1.0 + 0.0j
        for k in range(g.n_nodes):
            oracle *= g.tensors[k][(0,) * g.tensors[k].ndim]
        assert value == pytest.approx(oracle)


class TestPartitionExact:
    def test_power_trap(self):
        assert nfg.partition_exact(power_trap_graph()) == pytest.approx(2.0)

    def test_identity_two_cycle(self):
        g = two_cycle(np.eye(2), np.eye(2))
        assert nfg.partition_exact(g) == pytest.approx(2.0)

    def test_strict_sense_matches_brute_force(self):
        g = fig3_psd(3)
        z = nfg.partition_exact(g)
        assert z.real >= 0.0
        assert z == pytest.approx(brute_force_partition(g), rel=1e-12)

    def test_capacity_error_names_limit(self):
        g = build_fig3()
        with pytest.raises(CapacityError, match="16"):
            nfg.partition_exact(g, limit=16)

    def test_strict_sense_realness_bounds(self):
        for seed in range(25):
            g = fig3_psd(seed)
            z = nfg.partition_exact(g)
            assert abs(z.imag) <= 1e-9 * (1.0 + abs(z))
            assert z.real >= -1e-9


class TestPartitionContract:
    def test_tree_equals_exact(self):
        for seed in range(5):
            g = random_tree_de(seed, n=5)
            ze = nfg.partition_exact(g)
            zc = nfg.partition_contract(g)
            assert zc == pytest.approx(ze, rel=1e-12)

    def test_power_trap(self):
        assert nfg.partition_contract(power_trap_graph()) == pytest.approx(2)

    def test_two_cover_matches_enumeration(self):
        from bethecover.cover import CoverSpec, build_cover

        g = fig3_psd(7)
        spec = CoverSpec(2, {"e1": (1, 0), "e2": (0, 1), "e3": (0, 1),
                             "e4": (1, 0), "e5": (0, 1)})
        cov = build_cover(g, spec)
        ze = nfg.partition_exact(cov)
        zc = nfg.partition_contract(cov)
        assert zc == pytest.approx(ze, rel=1e-9)

    def test_matches_exact_on_random_graphs(self):
        # randomized equivalence sweep: mixed kinds and topologies, every
        # instance within the enumeration limit
        worst = 0.0
        for seed in range(200):
            rng = np.random.default_rng([seed, 99])
            topo = ("fig3", "cycle", "tree")[seed % 3]
            kind = ("standard", "double-edge")[seed % 2]
            ens = "positive-s-nfg" if kind == "standard" else "psd-random"
            g = gen(GeneratorSpec(topology=topo, kind=kind, ensemble=ens,
                                  n=2 + int(rng.integers(0, 4)), seed=seed))
            ze = nfg.partition_exact(g)
            zc = nfg.partition_contract(g)
            assert zc == pytest.approx(ze, rel=1e-9, abs=1e-12)
            worst = max(worst, abs(zc - ze) / max(abs(ze), 1e-12))
        assert worst <= 1e-9

    def test_contract_capacity(self):
        g = fig3_psd(0)
        with pytest.raises(CapacityError):
            nfg.partition_contract(g, memory_cap=4)


class TestEmbedding:
    def test_standard_as_double_edge_same_partition(self):
        for seed in range(5):
            g = gen(GeneratorSpec(topology="fig3", kind="standard",
                                  ensemble="positive-s-nfg", seed=seed))
            ge = nfg.as_double_edge(g)
            assert nfg.validate(ge).classification == "strict-sense"
            assert nfg.partition_exact(ge) == pytest.approx(
                nfg.partition_exact(g), rel=1e-12)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        g = fig3_psd(5)
        doc = nfg.serialize(g)
        g2 = nfg.parse(doc)
        assert nfg.serialize(g2) == doc
        for a, b in zip(g.tensors, g2.tensors):
            assert np.array_equal(a, b)
        assert g2.kind == g.kind
        assert g2.node_names == g.node_names

    def test_fig3_document_shape(self):
        doc = nfg.serialize(build_fig3())
        g = nfg.parse(doc)
        assert g.n_nodes == 4
        assert g.n_edges == 5

    def test_corrupted_axis_order(self):
        import json

        doc = json.loads(nfg.serialize(build_fig3()))
        doc["tensors"]["f1"]["axes"] = ["e2", "e1", "e3"]
        with pytest.raises(ParseError, match="axis order"):
            nfg.parse(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="line"):
            nfg.parse("{not json")

    def test_missing_key(self):
        with pytest.raises(ParseError, match="kind"):
            nfg.parse('{"schema": "nfg-1"}')

    def test_file_round_trip(self, tmp_path):
        g = fig3_psd(2)
        path = tmp_path / "g.nfg.json"
        nfg.save(g, path)
        g2 = nfg.load(path)
        assert nfg.serialize(g2) == nfg.serialize(g)


class TestLimitsEnv:
    def test_limits_override(self, monkeypatch):
        monkeypatch.setenv("BETHE_COVER_LIMITS", "enum=16, covers=7")
        from bethecover import config

        lim = config.limits()
        assert lim.enum == 16
        assert lim.covers == 7
        assert lim.contract == 2**26
        g = build_fig3()
        with pytest.raises(CapacityError):
            nfg.partition_exact(g)
