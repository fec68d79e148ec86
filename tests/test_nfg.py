"""Graph model, validation, partition functions and serialization."""

import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bethecover import cover, lct, nfg, spa
from bethecover.cover import build_cover, random_cover
from bethecover.errors import (CapacityError, ParseError, StructuralError,
                               ValidationError)
from bethecover.generators import GeneratorSpec, gen
from bethecover.tensor import (ComplexTensor, Merge, contract,
                               paired_from_choi)

from conftest import (FIG3_EDGES, FIG3_NODES, build_fig3, fig3_psd,
                      graph_with_choi, power_trap_graph, random_tree_de,
                      two_cycle)
from oracles import (as_double_edge, enum_configs, every_degree_graph,
                     global_eval, is_forest, merge_of, pairwise_greedy)


def brute_force_partition(g):
    """Independent pure-python enumeration oracle."""
    sizes = [g.axis_size(i) for i in range(g.n_edges)]
    return sum(global_eval(g, cfg)
               for cfg in itertools.product(*map(range, sizes)))


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

    @pytest.mark.parametrize("change, message", [
        (dict(kind="triple-edge"), "unknown graph kind"),
        (dict(nodes=[("f1", ["e1"]), ("f1", ["e1"])]), "not distinct"),
        (dict(edges=[("e1", ("f1", "f2"), 2), ("e1", ("f1", "f2"), 2)]),
         "duplicate edge id 'e1'"),
        (dict(edges=[("e1", ("f1", "f9"), 2)]), "unknown node"),
        (dict(edges=[("e1", ("f1", "f2"), 0)]), "empty alphabet"),
        (dict(nodes=[("f1", ["e1"]), ("f2", ["e1", "e9"])]),
         "unknown edge 'e9'"),
        (dict(tensors={"f1": np.ones(2)}), "missing tensor for node 'f2'"),
    ])
    def test_make_graph_refusals(self, change, message):
        args = dict(kind="standard", nodes=[("f1", ["e1"]), ("f2", ["e1"])],
                    edges=[("e1", ("f1", "f2"), 2)],
                    tensors={"f1": np.ones(2), "f2": np.ones(2)})
        with pytest.raises(StructuralError, match=message):
            nfg.make_graph(**{**args, **change})

    def test_axis_mismatch_rejected(self):
        with pytest.raises(StructuralError, match="shape"):
            two_cycle(np.ones((2, 3)), np.ones((2, 2)))

    def test_endpoints_normalized(self):
        g = nfg.make_graph("standard",
                           nodes=[("f1", ["e1"]), ("f2", ["e1"])],
                           edges=[("e1", ("f2", "f1"), 2)],
                           tensors={"f1": np.ones(2), "f2": np.ones(2)})
        e = g.edges[0]
        assert e.head < e.tail

    def test_caller_arrays_not_aliased(self):
        own = np.array([1.0, 2.0], dtype=np.complex128)
        base = np.array([[1.0, 1.0], [3.0, 4.0]])
        g = nfg.make_graph("standard",
                           nodes=[("f1", ["e1"]), ("f2", ["e1"])],
                           edges=[("e1", ("f1", "f2"), 2)],
                           tensors={"f1": own, "f2": base[0]})
        own[0] = 5.0
        base[0] = 7.0
        assert g.tensors[0].tolist() == [1, 2]
        assert g.tensors[1].tolist() == [1, 1]

    def test_with_tensors_does_not_alias(self):
        g = two_cycle(np.ones((2, 2)), np.ones((2, 2)))
        base = np.array([[[1.0, 1.0], [1.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]],
                        dtype=np.complex128)
        h = g.with_tensors([base[0], base[1]], weak_sense=False)
        assert not np.shares_memory(h.tensors[0], base[0])
        base[0] = 7.0
        assert h.tensors[0].tolist() == [[1, 1], [1, 1]]
        assert nfg.partition_exact(h) == 4.0

    def test_with_tensors_checks_shapes(self):
        g = nfg.make_graph("standard",
                           nodes=[("f1", ["e1"]), ("f2", ["e1"])],
                           edges=[("e1", ("f1", "f2"), 2)],
                           tensors={"f1": np.ones(2), "f2": np.ones(2)})
        with pytest.raises(StructuralError, match="shape"):
            g.with_tensors([np.ones(3), np.ones(3)], weak_sense=False)
        with pytest.raises(StructuralError, match="1 tensors"):
            g.with_tensors([np.ones(2)], weak_sense=False)


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
        assert is_forest(g)

    def test_standard_negative_entry_flagged(self):
        g = two_cycle(np.array([[1.0, -0.5], [0.0, 1.0]]), np.eye(2))
        report = nfg.validate(g)
        assert not report.valid

    def test_standard_complex_entry_flagged(self):
        g = two_cycle(np.array([[1.0, 0.5j], [0.0, 1.0]]), np.eye(2))
        report = nfg.validate(g)
        assert not report.valid
        assert report.problems == [
            "node 'f1': complex entries (|Im| max 5.000e-01)"]
        assert report.node_status["f1"].hermitian_defect == 0.5

    @pytest.mark.parametrize("kind", ["standard", "double-edge"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_reported_before_eigenvalues(self, kind,
                                                            bad):
        g = fig3_psd(0) if kind == "double-edge" else build_fig3()
        t = np.array(g.tensors[2])
        t.flat[1] = bad
        report = nfg.validate(g.with_tensors(
            [*g.tensors[:2], t, *g.tensors[3:]], weak_sense=False))
        assert not report.valid
        assert report.problems == ["node 'f3': non-finite entries"]
        assert not report.node_status["f3"].psd
        assert report.classification == (
            "standard" if kind == "standard" else "weak-sense")


class TestGlobalEval:
    def test_all_ones(self):
        g = build_fig3()
        for cfg in ((0, 0, 0, 0, 0), (1, 0, 1, 0, 1)):
            assert global_eval(g, cfg) == 1.0

    def test_power_trap_off_support(self):
        g = power_trap_graph()
        assert global_eval(g, (1, 0)) == 0.0
        assert global_eval(g, (0, 0)) == 1.0

    def test_double_edge_matches_lookup_oracle(self):
        g = fig3_psd(12)
        value = global_eval(g, (0,) * g.n_edges)
        oracle = 1.0 + 0.0j
        for k in range(g.n_nodes):
            oracle *= g.tensors[k][(0,) * g.tensors[k].ndim]
        assert value == pytest.approx(oracle)

    def test_configuration_outside_the_axes_refused(self):
        g = power_trap_graph()
        for cfg in ((0,), (0, 0, 0), (2, 0), (0, -1)):
            with pytest.raises(StructuralError, match="axis sizes"):
                global_eval(g, cfg)


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

    def test_capacity_error_names_limit(self, monkeypatch):
        g = build_fig3()
        monkeypatch.setenv("BETHE_COVER_LIMITS", "enum=16")
        with pytest.raises(CapacityError, match="16"):
            nfg.partition_exact(g)

    def test_strict_sense_realness_bounds(self):
        for seed in range(25):
            g = fig3_psd(seed)
            z = nfg.partition_exact(g)
            assert abs(z.imag) <= 1e-9 * (1.0 + abs(z))
            assert z.real >= -1e-9


def edgeless_graph():
    return nfg.make_graph("standard", [("a", []), ("b", [])], [],
                          {"a": np.array(2.0), "b": np.array(-1.5 + 0.5j)})


def long_edge_graph():
    """A path a - b - c whose last edge has 70000 values, more than one
    chunk holds."""
    rng = np.random.default_rng(5)
    return nfg.make_graph(
        "standard", [("a", ["e1"]), ("b", ["e1", "e2"]), ("c", ["e2"])],
        [("e1", ("a", "b"), 2), ("e2", ("b", "c"), 70000)],
        {"a": rng.uniform(0.5, 1.0, 2), "b": rng.uniform(0.5, 1.0, (2, 70000)),
         "c": rng.uniform(0.5, 1.0, 70000)})


ENUM_GRAPHS = {
    "mixed-alphabets-standard": lambda: every_degree_graph("standard", 1),
    "mixed-alphabets-double": lambda: every_degree_graph("double-edge", 1),
    "edgeless": edgeless_graph,
    # 2**17 configurations in two chunks of 2**16
    "cycle-17": lambda: gen(GeneratorSpec(
        topology="cycle", kind="standard", ensemble="positive-s-nfg", n=17,
        seed=2)),
    "long-edge": long_edge_graph,
}


class TestConfigurations:
    @pytest.mark.parametrize("name", sorted(ENUM_GRAPHS))
    def test_rows_match_the_digit_oracle(self, name):
        g = ENUM_GRAPHS[name]()
        chunks = list(nfg.configurations(g))
        got = np.concatenate(chunks)
        digits, want = (np.concatenate(part) for part
                        in zip(*enum_configs(g)))
        total = math.prod(g.axis_size(i) for i in range(g.n_edges))
        assert got.shape == want.shape == (total,)
        if total <= 65536:
            assert len(chunks) == 1 and got.tobytes() == want.tobytes()
        else:
            # equal blocks of trailing edges, of at most 65536 rows unless
            # the last edge alone has more
            last = g.axis_size(g.n_edges - 1)
            assert len({len(c) for c in chunks}) == 1
            assert len(chunks[0]) <= max(65536, last)
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        if total <= 6000:
            rows = range(total)
        else:   # a sample, with every chunk's first and last row
            ends = np.cumsum([len(c) for c in chunks])
            rows = sorted({*range(0, total, 1009), *ends - 1,
                           *(ends[:-1])})
        for r in rows:
            cfg = tuple(digits[r].tolist())
            assert global_eval(g, cfg) == pytest.approx(got[r],
                                                            rel=1e-14)
        assert nfg.partition_exact(g) == pytest.approx(
            nfg.partition_contract(g), rel=1e-12)

    def test_a_graph_without_edges_has_one_configuration(self):
        assert [c.tolist() for c in nfg.configurations(edgeless_graph())] \
            == [[-3.0 + 1.0j]]

    def test_cap_is_checked_when_called(self, monkeypatch):
        monkeypatch.setenv("BETHE_COVER_LIMITS", "enum=16")
        with pytest.raises(CapacityError, match="16"):
            nfg.configurations(build_fig3())


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
        g = fig3_psd(7)
        sigma = np.array([(1, 0), (0, 1), (0, 1), (1, 0), (0, 1)])
        cov = build_cover(g, sigma)
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

    def test_contract_capacity(self, monkeypatch):
        g = fig3_psd(0)
        monkeypatch.setenv("BETHE_COVER_LIMITS", "contract=4")
        with pytest.raises(CapacityError):
            nfg.partition_contract(g)

    def test_capacity_refused_before_any_contraction(self, monkeypatch):
        g = fig3_psd(0)
        merges = record_merges(monkeypatch)
        nfg.partition_contract(g)
        measured = max(int(np.prod(sizes)) for _, sizes, _ in merges)
        merges.clear()
        plan = nfg.plan_contraction([(t.labels, t.sizes)
                                     for t in network_of(g)])
        assert plan.peak == measured
        monkeypatch.setenv("BETHE_COVER_LIMITS", "contract=4")
        with pytest.raises(CapacityError) as info:
            nfg.partition_contract(g)
        assert info.value.requested == plan.peak
        assert info.value.limit == 4
        assert merges == []

    def test_long_cycle_matches_transfer_matrices(self):
        n = 300
        g = gen(GeneratorSpec(topology="cycle", kind="standard",
                              ensemble="positive-s-nfg", n=n, seed=3))
        start = time.perf_counter()
        z = nfg.partition_contract(g)
        elapsed = time.perf_counter() - start
        # node k's incoming edge is the one it shares with node k - 1
        product = np.eye(2)
        for k in range(n):
            incoming = set(g.incidences[k]) & set(g.incidences[k - 1])
            t = g.tensors[k].real
            product = product @ (t if g.incidences[k][0] in incoming
                                 else t.T)
        assert z == pytest.approx(np.trace(product), rel=1e-10)
        assert elapsed < 1.0

    def test_merge_allocates_its_result_once(self):
        # a (x, s) with b (s, y) is already a (x, s) @ (s, y) matrix
        # product, so the merge's only large allocation is its
        # N = 2**16-entry result, stored uncopied
        rng = np.random.default_rng(0)
        x, s, y = 256, 2, 256
        n_entries = x * y
        tensors = [ComplexTensor(("x", "s"), rng.standard_normal((x, s))),
                   ComplexTensor(("s", "y"), rng.standard_normal((s, y))),
                   ComplexTensor(("x", "y"), rng.standard_normal((x, y)))]
        a, b, _ = tensors
        merge = merge_of(a, b, ([1], [0]))
        assert merge == Merge((0, 1), (x, s), (0, 1), (s, y), (x, y),
                              ("x", "y"))
        tracemalloc.start()
        try:
            contract(a, b, merge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 16 * n_entries
        # the plan never forms that product: it merges a with c first
        plan = nfg.plan_contraction([(t.labels, t.sizes) for t in tensors])
        assert plan.peak == s * y
        tracemalloc.start()
        try:
            nfg.contract_network(tensors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 16 * plan.peak

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_intermediate_raises(self):
        # the merge of a and b overflows; c's zeros would turn it into NaN
        big = np.full((2, 2), 1e200)
        tensors = [ComplexTensor(("x", "s"), big),
                   ComplexTensor(("s", "y"), big),
                   ComplexTensor(("x", "y"), np.zeros((2, 2)))]
        with pytest.raises(ValidationError, match="too large"):
            nfg.contract_network(tensors)


def network_of(g):
    return [ComplexTensor(g.incidences[k], g.tensors[k])
            for k in range(g.n_nodes)]


def record_merges(monkeypatch):
    """Make ``nfg.contract`` log every pairwise merge as ``(operand
    labels, result sizes, shared labels)``, the shared labels read off
    the left operand's paired axes, the last ones of its axis order;
    returns the log."""
    merges = []

    def logged(a, b, merge):
        out = contract(a, b, merge)
        n_pairs = (len(a.labels) + len(b.labels) - len(out.labels)) // 2
        paired = merge.left_axes[len(merge.left_axes) - n_pairs:]
        merges.append((a.labels + b.labels, out.sizes,
                       tuple(a.labels[k] for k in paired)))
        return out

    monkeypatch.setattr(nfg, "contract", logged)
    return merges


def assert_plan_is_the_oracles(tensors, name=None):
    """The plan of ``tensors`` makes the merges of
    :func:`oracles.pairwise_greedy`, and the contraction its value, both
    exactly."""
    plan = nfg.plan_contraction([(t.labels, t.sizes) for t in tensors])
    want, steps = pairwise_greedy(tensors)
    assert list(plan.steps) == steps, name
    assert plan.peak == max((math.prod(m.shape) for _, _, m in steps),
                            default=0), name
    assert nfg.contract_network(tensors) == want, name


def oracle_networks():
    """Named closed networks: base graphs of both kinds, covers at
    M = 2, 4, 8, networks with a 0-label tensor and with two components."""
    kinds = (("standard", "positive-s-nfg"), ("double-edge", "psd-random"))
    nets = []
    for seed in range(3):
        for kind, ens in kinds:
            for topo, n in (("fig3", 4), ("fig-b", 4), ("cycle", 2 + seed),
                            ("cycle", 7), ("tree", 3 + seed), ("tree", 8)):
                g = gen(GeneratorSpec(topology=topo, kind=kind, ensemble=ens,
                                      n=n, seed=seed))
                nets.append((f"{topo}-{n}-{kind}-{seed}", network_of(g)))
    for kind, ens in kinds:
        g = gen(GeneratorSpec(topology="fig3", kind=kind, ensemble=ens,
                              seed=5))
        for degree in (2, 4, 8):
            for s in range(3):
                cov = build_cover(g, random_cover(
                    g, degree, np.random.default_rng([degree, s])))
                nets.append((f"fig3-cover{degree}-{kind}-{s}",
                             network_of(cov)))
        a = network_of(g)
        b = [ComplexTensor(tuple(f"b{lab}" for lab in t.labels), t.array)
             for t in network_of(gen(GeneratorSpec(
                 topology="cycle", kind=kind, ensemble=ens, n=5, seed=2)))]
        scalar = ComplexTensor((), np.array(1.3))
        nets.append((f"scalar-first-{kind}", [scalar] + a))
        nets.append((f"scalar-middle-{kind}", a[:2] + [scalar] + a[2:]))
        nets.append((f"two-components-{kind}", a + b))
        nets.append((f"interleaved-components-{kind}",
                     [t for pair in itertools.zip_longest(b, a)
                      for t in pair if t is not None]))
    return nets


class TestPlanner:
    def test_same_merges_as_the_oracle(self):
        nets = oracle_networks()
        assert len(nets) >= 50
        for name, tensors in nets:
            assert_plan_is_the_oracles(tensors, name)

    def test_label_size_mismatch_refused_by_the_plan(self, monkeypatch):
        merges = record_merges(monkeypatch)
        tensors = [ComplexTensor(("a", "b"), np.ones((2, 3))),
                   ComplexTensor(("a", "b"), np.ones((2, 2)))]
        with pytest.raises(StructuralError, match="'b'"):
            nfg.contract_network(tensors)
        assert merges == []

    @pytest.mark.parametrize("labels,shapes,message", [
        ([("a",), ("a", "b"), ("b",)], [(2, 2), (2, 3), (3,)],
         r"tensor 0: labels \('a',\) do not name its 2 axes once each"),
        ([("a", "a"), ("b",), ("b",)], [(2, 2), (3,), (3,)],
         r"tensor 0: labels \('a', 'a'\) do not name its 2 axes"),
        ([("a", "b"), ("a",)], [(2, 3), (2,)], r"not paired: \['b'\]"),
        ([("a", "b"), ("a", "b")], [(2, 0), (2, 0)],
         r"labels of size 0: \['b'\]"),
    ], ids=["label-count-not-rank", "label-twice-on-one-tensor",
            "label-not-paired", "label-of-size-0"])
    def test_malformed_network_refused_by_the_plan(self, monkeypatch, labels,
                                                   shapes, message):
        merges = record_merges(monkeypatch)
        tensors = [ComplexTensor(lab, np.ones(shape))
                   for lab, shape in zip(labels, shapes)]
        with pytest.raises(StructuralError, match=message):
            nfg.contract_network(tensors)
        assert merges == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 6),
           edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                    st.integers(1, 3)), max_size=8),
           seed=st.integers(0, 2**16))
    # several labels on one pair, a 0-label scalar and two components
    @example(n=5, edges=[(0, 1, 2), (1, 0, 3), (0, 1, 1), (2, 3, 2),
                         (3, 2, 2)], seed=0)
    def test_axes_of_random_networks(self, n, edges, seed):
        """The merges the plan computes, on closed networks of 2-6 tensors
        whose labels (sizes 1-3) are shuffled per tensor: each step's
        shapes are its operands' and its result's, the peak is the
        largest intermediate, the contraction equals one einsum of the
        whole network, and plan and value are the oracle's."""
        rng = np.random.default_rng(seed)
        legs = [[] for _ in range(n)]
        size = []
        for lab, (a, b, s) in enumerate(edges):
            a, b = a % n, b % n
            legs[a].append(lab)
            legs[b if b != a else (a + 1) % n].append(lab)
            size.append(s)
        tensors = []
        for labels in legs:
            labels = [int(lab) for lab in rng.permutation(labels)]
            shape = [size[lab] for lab in labels]
            tensors.append(ComplexTensor(
                tuple(labels), rng.uniform(0.5, 1.5, shape)
                + 1j * rng.uniform(0.0, 0.1, shape)))
        want = np.einsum(*[x for t in tensors
                           for x in (t.array, list(t.labels))], [])
        assert nfg.contract_network(tensors) == pytest.approx(
            complex(want), rel=1e-12)
        plan = nfg.plan_contraction([(t.labels, t.sizes) for t in tensors])
        slots, measured = list(tensors), [0]
        for a, b, merge in plan.steps:
            x, y = slots[a], slots[b]
            size = dict(zip(x.labels + y.labels, x.sizes + y.sizes))
            free = [lab for lab in x.labels + y.labels
                    if (lab in x.labels) != (lab in y.labels)]
            paired = math.prod(size[lab] for lab in x.labels
                               if lab in y.labels)
            assert merge.labels == tuple(free)
            assert merge.shape == tuple(size[lab] for lab in free)
            assert merge.left_shape == (x.array.size // paired, paired)
            assert merge.right_shape == (paired, y.array.size // paired)
            slots.append(contract(x, y, merge))
            measured.append(slots[-1].array.size)
        assert plan.peak == max(measured)
        assert_plan_is_the_oracles(tensors)


class TestEmbedding:
    def test_standard_as_double_edge_same_partition(self):
        for seed in range(5):
            g = gen(GeneratorSpec(topology="fig3", kind="standard",
                                  ensemble="positive-s-nfg", seed=seed))
            ge = as_double_edge(g)
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
        doc = json.loads(nfg.serialize(build_fig3()))
        doc["tensors"]["f1"]["axes"] = ["e2", "e1", "e3"]
        with pytest.raises(ParseError, match="axis order"):
            nfg.parse(json.dumps(doc))

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_entry_refused(self, bad):
        doc = json.loads(nfg.serialize(fig3_psd(0)))
        doc["tensors"]["f3"]["data"][5] = [0.5, bad]
        with pytest.raises(ParseError, match=r"tensors\['f3'\]\.data"):
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
        path.write_text(nfg.serialize(g) + "\n", encoding="utf-8")
        g2 = nfg.load(path)
        assert nfg.serialize(g2) == nfg.serialize(g)


def with_reversed_ids(text):
    """The serialized graph ``text`` with every edge renamed, so that the
    ids sort in reverse edge order."""
    doc = json.loads(text)
    n = len(doc["edges"])
    new = {ed["id"]: f"r{n - i:02d}" for i, ed in enumerate(doc["edges"])}
    for ed in doc["edges"]:
        ed["id"] = new[ed["id"]]
    for nd in doc["nodes"]:
        nd["edges"] = [new[eid] for eid in nd["edges"]]
    for td in doc["tensors"].values():
        td["axes"] = [new[eid] for eid in td["axes"]]
    return json.dumps(doc, indent=1)


def id_free_values(g):
    """Z, Z_B, the message rows, g0 and Z_{B,2} of ``g``, the last by the
    type formula and by the exhaustive mean, which contracts the
    ``2**(|E|-|V|+1)`` gauge-fixed covers (2 on a cycle).  Z is also
    enumerated where that takes at most 2**12 configurations."""
    rep = spa.spa_run(g)
    out = [nfg.partition_contract(g), rep.zb_spa, rep.messages.rows.tolist(),
           lct.transform(g, rep).g0, cover.zbm_typeformula(g, 2).power_value,
           cover.zbm_exhaustive(g, 2).power_value]
    if math.prod(g.axis_size(i) for i in range(g.n_edges)) <= 2**12:
        out.append(nfg.partition_exact(g))
    return out


class TestEdgeIdsAreNames:
    """Edge ids name the edges in files and output; nothing computed
    depends on them."""

    @pytest.mark.parametrize("topology,n", [("fig3", 4), ("cycle", 12)])
    @pytest.mark.parametrize("kind,ensemble", [
        ("double-edge", "psd-random"), ("standard", "positive-s-nfg")])
    def test_reversed_ids_change_no_value(self, topology, n, kind, ensemble):
        g = gen(GeneratorSpec(topology=topology, kind=kind,
                              ensemble=ensemble, n=n, seed=1))
        text = with_reversed_ids(nfg.serialize(g))
        renamed = nfg.parse(text)
        ids = [e.eid for e in renamed.edges]
        assert sorted(ids) == ids[::-1]
        assert nfg.serialize(renamed) == text
        assert renamed.incidences == g.incidences
        assert id_free_values(renamed) == id_free_values(g)


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
