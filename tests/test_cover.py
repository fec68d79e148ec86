"""Covers, the three degree-M estimators, type utilities, bounds."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bethecover import cover, lct, nfg, spa
from bethecover.errors import CapacityError, SignedRootError, StructuralError
from bethecover.generators import GeneratorSpec, gen
from bethecover.tensor import ComplexTensor

from conftest import build_fig3, fig3_near_identity, fig3_psd, \
    random_tree_de, two_cycle
from oracles import is_forest, predecessors, types as oracle_types


class TestBuildCover:
    def test_degree_one_is_the_graph_itself(self):
        g = fig3_psd(0)
        cov = cover.build_cover(g, cover.identity_cover(g, 1))
        assert cov.n_nodes == g.n_nodes
        assert cov.n_edges == g.n_edges
        z = nfg.partition_contract(cov)
        assert z == pytest.approx(nfg.partition_contract(g))

    def test_identity_permutations_give_disjoint_copies(self):
        g = fig3_psd(1)
        cov = cover.build_cover(g, cover.identity_cover(g, 2))
        z = nfg.partition_contract(cov)
        z1 = nfg.partition_exact(g)
        assert z == pytest.approx(z1 * z1, rel=1e-10)

    def test_swapped_edge_connects_the_cover(self):
        g = fig3_psd(2)
        spec = cover.CoverSpec(2, {"e1": (1, 0), "e2": (0, 1),
                                   "e3": (0, 1), "e4": (0, 1),
                                   "e5": (0, 1)})
        cov = cover.build_cover(g, spec)
        assert cov.n_nodes == 8
        assert cov.n_edges == 10
        assert not is_forest(cov)
        z_enum = nfg.partition_exact(cov)
        z_con = nfg.partition_contract(cov)
        assert z_con == pytest.approx(z_enum, rel=1e-9)

    def test_cover_of_strict_sense_is_strict_sense(self):
        g = fig3_psd(3)
        rng = np.random.default_rng(0)
        cov = cover.build_cover(g, cover.random_cover(g, 2, rng))
        report = nfg.validate(cov)
        assert report.valid
        assert report.classification == "strict-sense"
        z = nfg.partition_contract(cov)
        assert abs(z.imag) <= 1e-9 * (1 + abs(z))
        assert z.real >= -1e-9

    def test_bad_permutation_rejected(self):
        g = build_fig3()
        with pytest.raises(StructuralError):
            cover.CoverSpec(2, {e.eid: (0, 0) for e in g.edges})

    def test_spec_missing_an_edge_rejected(self):
        g = build_fig3()
        spec = cover.CoverSpec(2, {"e1": (1, 0)})
        for route in (cover.build_cover, cover.cover_network):
            with pytest.raises(StructuralError,
                               match=r"missing \['e2', 'e3', 'e4', 'e5'\], "
                                     r"extra \[\]"):
                route(g, spec)

    def test_spec_with_an_extra_edge_rejected(self):
        g = build_fig3()
        sigma = {e.eid: (1, 0) for e in g.edges}
        sigma["zz"] = (0, 1)
        for route in (cover.build_cover, cover.cover_network):
            with pytest.raises(StructuralError,
                               match=r"missing \[\], extra \['zz'\]"):
                route(g, cover.CoverSpec(2, sigma))


def oracle_build_cover(g, spec):
    """The cover wired edge by edge and checked by ``make_graph``: the
    m-th copy of ``e = (f_i, f_j)`` joins ``(f_i, m)`` to
    ``(f_j, sigma_e(m))``, the tail's incidences found through the inverse
    permutation."""
    eids = {e.eid for e in g.edges}
    if spec.sigma.keys() != eids:
        missing = [e.eid for e in g.edges if e.eid not in spec.sigma]
        extra = [eid for eid in spec.sigma if eid not in eids]
        raise StructuralError(f"cover spec does not match the graph's "
                              f"edges: missing {missing}, extra {extra}")
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
    return nfg.make_graph(g.kind, nodes, edges, tensors,
                          weak_sense=g.weak_sense_flag)


def network_graphs():
    """fig3 and fig-b of both kinds, plus fig3 with an isolated node."""
    graphs = [gen(GeneratorSpec(topology=topo, kind=kind, ensemble=ens,
                                seed=seed))
              for topo in ("fig3", "fig-b")
              for seed, (kind, ens) in enumerate(KIND_ENSEMBLES)]
    return graphs + [with_isolated_node(graphs[1])]


class TestCoverNetwork:
    @pytest.mark.parametrize("degree", [1, 2, 3, 8])
    def test_matches_the_oracle_cover(self, degree):
        for g in network_graphs():
            rng = np.random.default_rng(degree)
            for spec in (cover.identity_cover(g, degree),
                         cover.random_cover(g, degree, rng)):
                oracle = oracle_build_cover(g, spec)
                assert nfg.serialize(cover.build_cover(g, spec)) \
                    == nfg.serialize(oracle)
                network = cover.cover_network(g, spec)
                assert nfg.contract_network(network) \
                    == nfg.partition_contract(oracle)
                # make_graph's checks, redundant by construction: each
                # label on two distinct nodes, with one size
                holders = {}
                for n, t in enumerate(network):
                    for lab, size in zip(t.labels, t.sizes):
                        holders.setdefault(lab, []).append((n, size))
                assert sorted(holders) == list(range(g.n_edges * degree))
                for (a, sa), (b, sb) in holders.values():
                    assert a != b and sa == sb

    def test_arrays_are_the_base_graphs_own(self):
        for g in network_graphs():
            spec = cover.random_cover(g, 3, np.random.default_rng(0))
            network = cover.cover_network(g, spec)
            assert all(t.array is g.tensors[n // 3]
                       for n, t in enumerate(network))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_montecarlo_is_the_mean_over_oracle_covers(self, seed):
        for g in network_graphs():
            values = np.array([nfg.partition_contract(oracle_build_cover(
                g, cover.random_cover(g, 4, np.random.default_rng(
                    [seed, s])))) for s in range(5)])
            est = cover.zbm_montecarlo(g, 4, 5, seed=seed)
            assert est.power_value == (values.sum() / 5).real
            assert est.stderr == float(np.std(values.real, ddof=1)
                                       / np.sqrt(5))

    def test_montecarlo_single_sample_has_zero_stderr(self):
        g = fig3_psd(1)
        est = cover.zbm_montecarlo(g, 3, 1, seed=2)
        spec = cover.random_cover(g, 3, np.random.default_rng([2, 0]))
        assert est.power_value == nfg.contract_network(
            cover.cover_network(g, spec)).real
        assert est.stderr == 0.0 and est.samples == 1

    def test_estimators_build_no_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("make_graph called")

        g = fig3_psd(1)
        monkeypatch.setattr(cover, "make_graph", refuse)
        monkeypatch.setattr(nfg, "make_graph", refuse)
        assert cover.zbm_exhaustive(g, 2).covers == 2 ** g.n_edges
        assert cover.zbm_montecarlo(g, 4, 5).samples == 5


class TestTypeUtilities:
    def test_binary_degree_two(self):
        assert math.comb(2 + 2 - 1, 2) == 3
        assert [cover.class_size(t) for t in ((2, 0), (1, 1), (0, 2))] \
            == [1, 2, 1]

    def test_all_zero_vector(self):
        t = cover.type_of([0, 0, 0, 0], alphabet_size=3)
        assert t == (4, 0, 0)
        assert cover.class_size(t) == 1

    def test_enumeration_identity(self):
        # |X| = 4, M = 3: 20 types whose class sizes add up to 4**3
        assert math.comb(4 + 3 - 1, 3) == 20
        total = 0
        seen = set()
        for v in itertools.product(range(4), repeat=3):
            seen.add(cover.type_of(v, 4))
        assert len(seen) == 20
        for t in seen:
            total += cover.class_size(t)
        assert total == 4 ** 3

    @pytest.mark.parametrize("alphabet", range(1, 6))
    def test_tables_match_the_recount(self, alphabet):
        for degree in range(1, 7):
            tables, types = cover._type_tables(alphabet, degree)
            assert len(tables) == degree
            for level, table in enumerate(tables, 1):
                assert np.array_equal(table,
                                      predecessors(alphabet, level))
            assert types == oracle_types(alphabet, degree)
            assert len(types) == math.comb(alphabet + degree - 1, degree)


class TestSocketProjector:
    def test_binary_degree_two_ground_truth(self):
        p = cover.socket_projector(2, 2)
        expected = np.array([[1, 0, 0, 0],
                             [0, 0.5, 0.5, 0],
                             [0, 0.5, 0.5, 0],
                             [0, 0, 0, 1.0]])
        assert np.array_equal(p, expected)

    @pytest.mark.parametrize("alphabet,degree",
                             [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_projector_properties(self, alphabet, degree):
        p = cover.socket_projector(alphabet, degree)
        assert np.max(np.abs(p - p.T)) == 0.0
        assert np.max(np.abs(p @ p - p)) < 1e-10
        # block structure: each row sums to one within its type class
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_mean_over_permutation_matchings(self):
        # direct average of the per-permutation matching matrices
        alphabet, degree = 2, 3
        size = alphabet ** degree
        vecs = list(itertools.product(range(alphabet), repeat=degree))
        acc = np.zeros((size, size))
        perms = list(itertools.permutations(range(degree)))
        for sigma in perms:
            mat = np.zeros((size, size))
            for a, va in enumerate(vecs):
                for b, vb in enumerate(vecs):
                    mat[a, b] = all(va[m] == vb[sigma[m]]
                                    for m in range(degree))
            acc += mat
        acc /= len(perms)
        assert np.allclose(cover.socket_projector(alphabet, degree), acc,
                           atol=1e-12)


def socket_sum_oracle(g, degree):
    """Literal enumeration of the average-cover sum: one socket vector
    per (edge, endpoint), matched through the type-class weights."""
    m_range = range(degree)
    sizes = {e.eid: g.axis_size(e.eid) for e in g.edges}
    socket_vals = {}
    for e in g.edges:
        vecs = list(itertools.product(range(sizes[e.eid]), repeat=degree))
        socket_vals[e.eid] = vecs
    total = 0.0 + 0.0j
    edge_list = [e.eid for e in g.edges]
    for head_choice in itertools.product(*[socket_vals[eid]
                                           for eid in edge_list]):
        head = dict(zip(edge_list, head_choice))
        for tail_choice in itertools.product(*[socket_vals[eid]
                                               for eid in edge_list]):
            tail = dict(zip(edge_list, tail_choice))
            weight = 1.0
            for e in g.edges:
                ti = cover.type_of(head[e.eid], sizes[e.eid])
                tj = cover.type_of(tail[e.eid], sizes[e.eid])
                if ti != tj:
                    weight = 0.0
                    break
                weight /= cover.class_size(ti)
            if weight == 0.0:
                continue
            term = weight
            for m in m_range:
                for k in range(g.n_nodes):
                    sel = []
                    for eid in g.incidences[k]:
                        e = g.edge(eid)
                        vec = head[eid] if k == e.head else tail[eid]
                        sel.append(vec[m])
                    term *= g.tensors[k][tuple(sel)]
            total += term
    return total


def dense_projector_network(g, degree, cap):
    """The average-cover network in the socket basis: M-fold stacked
    local functions joined through per-edge socket projectors.  Raises
    CapacityError before building a stacked tensor, projector or
    contraction intermediate larger than ``cap`` entries."""
    tensors = []
    for k in range(g.n_nodes):
        t = g.tensors[k].reshape([g.axis_size(eid)
                                  for eid in g.incidences[k]])
        if t.size ** degree > cap:
            raise CapacityError("stacked node tensor over the cap")
        stacked = np.ones(())
        for _ in range(degree):
            stacked = np.multiply.outer(stacked, t)
        d = t.ndim
        order = [m * d + a for a in range(d) for m in range(degree)]
        stacked = stacked.transpose(order).reshape(
            [s ** degree for s in t.shape])
        labels = [f"{eid}|{'i' if g.edge(eid).head == k else 'j'}"
                  for eid in g.incidences[k]]
        tensors.append(ComplexTensor(tuple(labels), stacked))
    for e in g.edges:
        s = g.axis_size(e.eid)
        if s ** (2 * degree) > cap:
            raise CapacityError("socket projector over the cap")
        tensors.append(ComplexTensor((f"{e.eid}|i", f"{e.eid}|j"),
                                     cover.socket_projector(s, degree)))
    plan = nfg.plan_contraction([(t.labels, t.sizes) for t in tensors])
    if plan.peak > cap:
        raise CapacityError("contraction intermediate over the cap")
    return nfg.contract_network(tensors)


def with_isolated_node(g, value=1.3):
    """``g`` plus a node ``iso`` with no edges and local value ``value``."""
    nodes = [(name, list(g.incidences[k]))
             for k, name in enumerate(g.node_names)] + [("iso", [])]
    edges = [(e.eid, (g.node_names[e.head], g.node_names[e.tail]),
              e.alphabet) for e in g.edges]
    tensors = dict(zip(g.node_names, g.tensors))
    tensors["iso"] = np.array(value)
    return nfg.make_graph(g.kind, nodes, edges, tensors)


ORACLE_GRAPHS = {"fig3": dict(topology="fig3"),
                 "fig-b": dict(topology="fig-b"),
                 "tree": dict(topology="tree", n=4),
                 "2-cycle": dict(topology="cycle", n=2),
                 "isolated": dict(topology="tree", n=2)}
KIND_ENSEMBLES = (("standard", "positive-s-nfg"),
                  ("double-edge", "psd-random"))


class TestTypeBasis:
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    @pytest.mark.parametrize("kind,ensemble", KIND_ENSEMBLES)
    def test_matches_projector_network(self, name, kind, ensemble):
        compared = 0
        for alphabet in (1, 2, 3):
            g = gen(GeneratorSpec(kind=kind, ensemble=ensemble,
                                  alphabet=alphabet, seed=alphabet,
                                  **ORACLE_GRAPHS[name]))
            if name == "isolated":
                g = with_isolated_node(g)
            for degree in (1, 2, 3):
                try:
                    dense = dense_projector_network(g, degree, cap=2**18)
                except CapacityError:
                    continue
                est = cover.zbm_typeformula(g, degree)
                assert est.power_value == pytest.approx(dense.real,
                                                        rel=1e-12)
                compared += 1
        assert compared >= 5

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(topology=st.sampled_from(["tree", "cycle"]),
           n=st.integers(2, 3),
           kind_ensemble=st.sampled_from(KIND_ENSEMBLES),
           alphabet=st.integers(1, 3),
           seed=st.integers(0, 2**16),
           degree=st.sampled_from([2, 3]))
    def test_matches_exhaustive_on_random_graphs(
            self, topology, n, kind_ensemble, alphabet, seed, degree):
        kind, ensemble = kind_ensemble
        g = gen(GeneratorSpec(topology=topology, n=n, kind=kind,
                              ensemble=ensemble, alphabet=alphabet,
                              seed=seed))
        typ = cover.zbm_typeformula(g, degree)
        exh = cover.zbm_exhaustive(g, degree)
        assert typ.power_value == pytest.approx(exh.power_value, rel=1e-9)

    def test_degree_four_montecarlo_vs_typeformula(self):
        g = gen(GeneratorSpec(topology="cycle", n=2, kind="double-edge",
                              ensemble="psd-random", seed=9))
        typ = cover.zbm_typeformula(g, 4)
        mc = cover.zbm_montecarlo(g, 4, samples=400, seed=17)
        tol = 3.0 * mc.stderr + 1e-9 * (1.0 + abs(typ.power_value))
        assert abs(mc.power_value - typ.power_value) <= tol


def cycle_h_m(g, degree):
    """``Z_{B,M}^M`` of a generated cycle by the transfer matrix: with
    ``A = T_1 ... T_n`` and power sums ``p_k = tr(A^k)``, it is the complete
    homogeneous symmetric polynomial ``h_M`` of A's eigenvalues (the cycle
    index of S_M at ``p_k``), by Newton's recurrence
    ``h_M = (1/M) sum_{k=1..M} p_k h_{M-k}``."""
    a = np.eye(g.tensors[0].shape[0])
    for k, t in enumerate(g.tensors):
        # node k holds edges k-1 and k; the transfer runs from k-1 to k
        a = a @ (t if g.incidences[k][0] == g.edges[k - 1].eid else t.T)
    power, p = np.eye(len(a)), []
    for _ in range(degree):
        power = power @ a
        p.append(np.trace(power).real)
    h = [1.0]
    for m in range(1, degree + 1):
        h.append(sum(p[k - 1] * h[m - k] for k in range(1, m + 1)) / m)
    return h[degree]


class TestCycleOracle:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("degree", [70, 100])
    def test_typeformula_matches_h_m(self, n, degree):
        # type-class sizes reach C(100, 50) ~ 1e29, beyond 64 bits
        g = gen(GeneratorSpec(topology="cycle", kind="standard",
                              ensemble="positive-s-nfg", n=n, seed=1))
        est = cover.zbm_typeformula(g, degree)
        assert est.power_value == pytest.approx(cycle_h_m(g, degree),
                                                rel=1e-12)


class TestIsolatedNode:
    """An edgeless node keeps its 0-d local function and multiplies Z."""

    @pytest.mark.parametrize("kind,ensemble", KIND_ENSEMBLES)
    def test_routes_match_their_oracles(self, kind, ensemble):
        g = with_isolated_node(gen(GeneratorSpec(
            topology="fig3", kind=kind, ensemble=ensemble, seed=4)))
        assert g.tensors[-1].shape == ()
        assert nfg.partition_contract(g) == pytest.approx(
            nfg.partition_exact(g), rel=1e-12)
        assert cover.zbm_exhaustive(g, 2).power_value == pytest.approx(
            cover.zbm_typeformula(g, 2).power_value, rel=1e-12)
        g2 = nfg.parse(nfg.serialize(g))
        assert g2.tensors[-1].shape == ()
        assert g2.tensors[-1] == g.tensors[-1]


class TestEstimators:
    def test_socket_sum_oracle(self):
        # third, fully literal route for the degree-M mean on fixtures
        # small enough to enumerate socket vectors directly
        for kind, ens in (("standard", "positive-s-nfg"),
                          ("double-edge", "psd-random")):
            g = gen(GeneratorSpec(topology="tree", n=2, kind=kind,
                                  ensemble=ens, seed=6))
            for degree in (2, 3):
                oracle = socket_sum_oracle(g, degree)
                est = cover.zbm_typeformula(g, degree)
                exh = cover.zbm_exhaustive(g, degree)
                assert est.power_value == pytest.approx(oracle.real,
                                                        rel=1e-10)
                assert exh.power_value == pytest.approx(oracle.real,
                                                        rel=1e-10)
        g = gen(GeneratorSpec(topology="cycle", n=2, kind="standard",
                              ensemble="positive-s-nfg", seed=2))
        oracle = socket_sum_oracle(g, 2)
        assert cover.zbm_typeformula(g, 2).power_value \
            == pytest.approx(oracle.real, rel=1e-10)

    def test_degree_one_equals_partition(self):
        g = fig3_psd(5)
        z = nfg.partition_exact(g).real
        for est in (cover.zbm_exhaustive(g, 1),
                    cover.zbm_montecarlo(g, 1, samples=4, seed=0),
                    cover.zbm_typeformula(g, 1)):
            assert est.root == pytest.approx(z, rel=1e-9)
        assert cover.zbm_montecarlo(g, 1, samples=4).stderr \
            == pytest.approx(0.0, abs=1e-12)

    def test_two_cycle_cross_method(self):
        g = two_cycle(np.eye(2), np.eye(2))
        e = cover.zbm_exhaustive(g, 2)
        t = cover.zbm_typeformula(g, 2)
        assert e.covers == 4
        assert e.power_value == pytest.approx(t.power_value, rel=1e-12)

    def test_all_ones_covers_are_sigma_independent(self):
        # with all-ones local functions every cover has the same
        # partition value, so the sample spread collapses
        g = two_cycle(np.ones((2, 2)), np.ones((2, 2)))
        values = set()
        for perms in itertools.product(
                itertools.permutations(range(2)), repeat=2):
            spec = cover.CoverSpec(2, dict(zip(["e1", "e2"], perms)))
            z = nfg.partition_contract(cover.build_cover(g, spec))
            values.add(round(z.real, 9))
        assert len(values) == 1
        mc = cover.zbm_montecarlo(g, 2, samples=8, seed=3)
        assert mc.stderr == pytest.approx(0.0, abs=1e-9)

    def test_fig3_cross_method(self):
        g = fig3_psd(6)
        e = cover.zbm_exhaustive(g, 2)
        t = cover.zbm_typeformula(g, 2)
        mc = cover.zbm_montecarlo(g, 2, samples=60, seed=11)
        assert e.covers == 32
        assert e.power_value == pytest.approx(t.power_value, rel=1e-8)
        assert abs(mc.power_value - t.power_value) <= 3.0 * mc.stderr

    def test_degree_three_montecarlo_vs_typeformula(self):
        # a reduced double-edge fixture keeps degree-3 covers cheap
        g = gen(GeneratorSpec(topology="cycle", n=2, kind="double-edge",
                              ensemble="psd-random", seed=9))
        typ = cover.zbm_typeformula(g, 3)
        mc = cover.zbm_montecarlo(g, 3, samples=400, seed=17)
        tol = 3.0 * mc.stderr + 1e-9 * (1.0 + abs(typ.power_value))
        assert abs(mc.power_value - typ.power_value) <= tol

    def test_exhaustive_capacity(self, monkeypatch):
        g = fig3_psd(0)
        monkeypatch.setenv("BETHE_COVER_LIMITS", "covers=1000")
        with pytest.raises(CapacityError, match="covers"):
            cover.zbm_exhaustive(g, 4)

    def test_typeformula_capacity(self, monkeypatch):
        # the peak is the degree-3 node's first gather step at the last
        # level: 21 padded types of length 3 times (11 padded types of
        # length 2 times 4 symbols) on each of its other two legs
        g = fig3_psd(0)
        monkeypatch.setenv("BETHE_COVER_LIMITS", "contract=1000")
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as info:
                cover.zbm_typeformula(g, 3)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.requested == 21 * (11 * 4) ** 2
        assert info.value.limit == 1000
        assert peak_bytes < 16 * 1000

    def test_typeformula_degree_zero_refused(self):
        with pytest.raises(StructuralError, match="degree"):
            cover.zbm_typeformula(fig3_psd(0), 0)

    def test_signed_root_error(self):
        # a weak-sense pair with negative partition value on every cover
        choi = {"f1": np.diag([1.0, -1.0, -1.0, -1.0]), "f2": np.eye(4)}
        from conftest import graph_with_choi

        g = graph_with_choi(
            [("f1", ["e1", "e2"]), ("f2", ["e1", "e2"])],
            [("e1", ("f1", "f2"), 2), ("e2", ("f1", "f2"), 2)], choi)
        g = g.with_tensors(g.tensors, weak_sense=True)
        assert nfg.partition_exact(g).real < 0.0
        with pytest.raises(SignedRootError):
            cover.zbm_exhaustive(g, 1)

    def test_montecarlo_deterministic(self):
        g = fig3_psd(7)
        a = cover.zbm_montecarlo(g, 2, samples=10, seed=21)
        b = cover.zbm_montecarlo(g, 2, samples=10, seed=21)
        assert a.power_value == b.power_value
        assert a.stderr == b.stderr


class TestTrend:
    def test_deviation_shrinks_with_degree(self):
        # statistical: on condition-passing instances the relative gap to
        # the Bethe value shrinks from degree 1 to degree 3
        improved = 0
        total = 0
        for seed in range(15):
            g = fig3_near_identity(seed)
            rep = spa.spa_run(g, restarts=1, tol_fp=1e-12)
            assert rep.converged
            lr = lct.transform(g, rep)
            c = lct.check_condition(lr)
            if not c.condition:
                continue
            total += 1
            z_star = c.z_star
            d1 = abs(cover.zbm_exhaustive(g, 1).root - z_star) / z_star
            d3 = abs(cover.zbm_typeformula(g, 3).root - z_star) / z_star
            if d3 < d1:
                improved += 1
        assert total >= 10
        assert improved >= 0.9 * total


class TestBounds:
    def test_single_edge_tree_ratio_one(self):
        g = random_tree_de(4, n=2)
        rep = spa.spa_run(g, restarts=1, tol_fp=1e-12)
        lr = lct.transform(g, rep)
        c = lct.check_condition(lr)
        assert c.alpha == pytest.approx(0.0, abs=1e-9)
        ests = [cover.zbm_exhaustive(g, 1), cover.zbm_typeformula(g, 2)]
        report = cover.bethe_cover_bounds(ests, c.z_star, c.alpha)
        assert report.all_ok
        for ent in report.entries:
            assert ent.ratio_power == pytest.approx(1.0, abs=1e-7)
            assert ent.lower == pytest.approx(1.0, abs=1e-9)
            assert ent.upper == pytest.approx(1.0, abs=1e-9)

    def test_near_identity_positive_margin(self):
        g = fig3_near_identity(8)
        rep = spa.spa_run(g, restarts=1, tol_fp=1e-12)
        lr = lct.transform(g, rep)
        c = lct.check_condition(lr)
        assert c.condition
        ests = [cover.zbm_exhaustive(g, 1), cover.zbm_typeformula(g, 2)]
        report = cover.bethe_cover_bounds(ests, c.z_star, c.alpha)
        assert report.all_ok
        for ent in report.entries:
            assert ent.margin_lower > 0.0
            assert ent.margin_upper > 0.0

    def test_degrees_four_and_five_within_bounds(self):
        checked = 0
        for seed in range(12):
            g = fig3_near_identity(seed)
            rep = spa.spa_run(g, restarts=1, tol_fp=1e-12)
            c = lct.check_condition(lct.transform(g, rep))
            if not c.condition:
                continue
            ests = [cover.zbm_typeformula(g, m) for m in (4, 5)]
            report = cover.bethe_cover_bounds(ests, c.z_star, c.alpha)
            assert report.all_ok
            checked += 1
            if checked == 4:
                break
        assert checked == 4

    def test_degree_one_always_within_bounds_when_passing(self):
        for seed in (0, 5, 9):
            g = fig3_near_identity(seed)
            rep = spa.spa_run(g, restarts=1, tol_fp=1e-12)
            lr = lct.transform(g, rep)
            c = lct.check_condition(lr)
            if not c.condition:
                continue
            report = cover.bethe_cover_bounds(
                [cover.zbm_exhaustive(g, 1)], c.z_star, c.alpha)
            assert report.all_ok
