"""Covers, the three degree-M estimators, type utilities, bounds."""

import itertools
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bethecover import cover, lct, nfg, spa
from bethecover.errors import CapacityError, SignedRootError, StructuralError
from bethecover.generators import GeneratorSpec, gen
from bethecover.tensor import ComplexTensor

from conftest import build_fig3, fig3_near_identity, fig3_psd, \
    random_tree_de, two_cycle
from oracles import as_double_edge, cover_array, cover_rows, forest_edges, \
    gauge_fixed_cover_mean, is_forest, labeled_cover_mean, loop_cover_z, \
    predecessors, \
    sequential_cover, spec_cover_network, spec_exhaustive, spec_lift, \
    spec_montecarlo, type_tensor as oracle_type_tensor, \
    type_tensor_peak as oracle_type_tensor_peak, types as oracle_types


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
        sigma = np.array([(1, 0), (0, 1), (0, 1), (0, 1), (0, 1)])
        cov = cover.build_cover(g, sigma)
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
        sigma = np.array([(1, 0), (0, 1), (0, 0), (0, 1), (1, 1)])
        for route in (cover.build_cover, cover.cover_network):
            with pytest.raises(StructuralError, match=re.escape(
                    "edge 2: (0, 0) is not a permutation of range(2)")):
                route(g, sigma)

    def test_spec_missing_an_edge_rejected(self):
        g = build_fig3()
        sigma = np.array([(1, 0)] * 4)
        for route in (cover.build_cover, cover.cover_network):
            with pytest.raises(StructuralError,
                               match="4 permutations for 5 edges"):
                route(g, sigma)

    def test_spec_with_an_extra_edge_rejected(self):
        g = build_fig3()
        sigma = np.array([(1, 0)] * 6)
        for route in (cover.build_cover, cover.cover_network):
            with pytest.raises(StructuralError,
                               match="6 permutations for 5 edges"):
                route(g, sigma)

    @pytest.mark.parametrize("sigma", [np.arange(2), np.zeros((1, 5, 2),
                                                              dtype=int)])
    def test_array_not_two_dimensional_rejected(self, sigma):
        g = build_fig3()
        for route in (cover.build_cover, cover.cover_network):
            with pytest.raises(StructuralError,
                               match="a cover is an \\(edges, degree\\)"):
                route(g, sigma)

    def test_degree_zero_rejected(self):
        g = build_fig3()
        for route in (cover.build_cover, cover.cover_network):
            with pytest.raises(StructuralError,
                               match="cover degree must be positive"):
                route(g, np.zeros((g.n_edges, 0), dtype=int))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_edgeless_cover_is_the_power_of_z(self, degree):
        g = nfg.make_graph("standard", [("a", []), ("b", [])], [],
                           {"a": np.array(2.0), "b": np.array(-1.5)})
        sigma = cover.identity_cover(g, degree)
        assert sigma.shape == (0, degree)
        z = nfg.partition_contract(g)
        assert nfg.contract_network(cover.cover_network(g, sigma)) \
            == pytest.approx(z ** degree, rel=1e-15)
        assert nfg.partition_contract(cover.build_cover(g, sigma)) \
            == pytest.approx(z ** degree, rel=1e-15)


def oracle_build_cover(g, cover_sigma):
    """The cover wired edge by edge and checked by ``make_graph``: the
    m-th copy of ``e = (f_i, f_j)`` joins ``(f_i, m)`` to
    ``(f_j, sigma_e(m))``, the tail's incidences found through the inverse
    permutation; ``sigma_e`` is the cover's row at e's position in
    ``g.edges``."""
    sigma = cover_rows(cover_sigma)
    assert len(sigma) == g.n_edges
    M = cover_sigma.shape[1]
    names = [f"{name}.{m}" for name in g.node_names for m in range(M)]
    incidences = []
    for k in range(g.n_nodes):
        for m in range(M):
            inc = []
            for i in g.incidences[k]:
                e = g.edges[i]
                if k == e.head:
                    copy = m
                else:
                    copy = sigma[i].index(m)
                inc.append(f"{e.eid}.{copy}")
            incidences.append(tuple(inc))
    edges = []
    for i, e in enumerate(g.edges):
        for m in range(M):
            edges.append((f"{e.eid}.{m}",
                          (names[e.head * M + m],
                           names[e.tail * M + sigma[i][m]]),
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
            # the estimator contracts the covers of the absorbed graph, so
            # each sample's product runs in another order
            assert est.power_value == pytest.approx(
                (values.sum() / 5).real, rel=1e-13)
            assert est.stderr == pytest.approx(
                float(np.std(values.real, ddof=1) / np.sqrt(5)), rel=1e-13)

    def test_montecarlo_single_sample_has_zero_stderr(self):
        g = fig3_psd(1)
        est = cover.zbm_montecarlo(g, 3, 1, seed=2)
        spec = cover.random_cover(g, 3, np.random.default_rng([2, 0]))
        # the estimator contracts the cover of the reduced graph; the full
        # cover has the same Z up to the order of its sums
        h, chains = cover._absorb(g, 3)
        assert est.power_value == nfg.contract_network(cover.cover_network(
            h, cover._lift_block(chains, spec[None])[0])).real
        assert est.power_value == pytest.approx(nfg.contract_network(
            cover.cover_network(g, spec)).real, rel=1e-13)
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
        for degree in range(1, 9):
            legs, types = cover._type_tables(alphabet, degree)
            assert len(legs) == degree
            for level, (first, rows) in enumerate(legs, 1):
                table = predecessors(alphabet, level)
                assert first.flags.c_contiguous
                assert np.array_equal(first.T, table)
                zero = table[-1, 0]
                assert np.array_equal(rows, np.where(
                    table[:-1].T < zero,
                    table[:-1].T * alphabet + np.arange(alphabet)[:, None],
                    zero * alphabet))
            assert types == oracle_types(alphabet, degree)
            assert len(types) == math.comb(alphabet + degree - 1, degree)
            # the closed form zbm_typeformula checks: s (n_j + 1) + s n_j
            # entries per level j, and n_1 + ... + n_M = C(s + M, M) - 1
            assert sum(first.size + rows.size for first, rows in legs) \
                == alphabet * (2 * math.comb(alphabet + degree, degree)
                               + degree - 2)


# every shape up to degree 2, and mixed ones at degrees 3 and 4, over
# alphabets 1-4
TYPE_TENSOR_SHAPES = ([(), (1,), (2,), (3,), (4,)]
                      + list(itertools.product(range(1, 5), repeat=2))
                      + [(4, 4, 4), (1, 3, 4), (2, 4, 3), (4, 1, 2),
                         (3, 3, 1), (2, 2, 2), (1, 1, 1), (1, 2, 3, 4),
                         (3, 1, 1, 2), (2, 3, 2, 3), (4, 2, 1, 1),
                         (2, 2, 2, 2), (1, 1, 1, 1)])


def type_tensor_peak(sizes, degree):
    """The exact peak :func:`cover.zbm_typeformula` checks for a node."""
    return max(cover._type_level(sizes, degree),
               cover._type_schedule(sizes, degree)[1])


class TestTypeTensor:
    @pytest.mark.parametrize("sizes", TYPE_TENSOR_SHAPES, ids=str)
    def test_matches_the_padded_recursion(self, sizes, rng):
        t = rng.normal(size=sizes) + 1j * rng.normal(size=sizes)
        legs = {s: cover._type_tables(s, 6)[0] for s in set(sizes)}
        # the oracle reads each level's table in the (type, symbol) layout
        tables = {s: [np.ascontiguousarray(first.T) for first, _ in legs[s]]
                  for s in legs}
        for degree in range(1, 7):
            got = cover._type_tensor(t, [legs[s] for s in sizes], degree,
                                     cover._type_schedule(sizes, degree))
            want = oracle_type_tensor(t, [tables[s] for s in sizes], degree)
            if len(sizes) == 4 and t.size == 1:
                # a one-entry node: numpy multiplies each level by it with
                # zaxpy, whose vector path rounds the recursion's 16 padded
                # entries and whose scalar path the 2 here
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
            else:
                assert np.array_equal(got, want)

    def test_a_level_spans_several_blocks(self):
        # levels 2 and 3 of the degree-3 double-edge node at M = 3: the
        # last holds 21 first-leg types (20 and the zero slot) of 1640
        # entries each
        steps, largest = cover._type_schedule((4, 4, 4), 3)
        assert steps == [11, cover._BLOCK // 1640] and steps[-1] < 21
        assert largest == steps[-1] * 1640

    @pytest.mark.parametrize("block", [cover._BLOCK, 100, 7])
    def test_peak_matches_the_walk_over_every_level(self, block,
                                                    monkeypatch):
        # legs of degree 0-4 up to M = 40, under the default block and two
        # small ones that put a type over the block at a low level
        monkeypatch.setattr(cover, "_BLOCK", block)
        for d in range(5):
            for sizes in itertools.product((1, 2, 4) if d == 4 else
                                           (1, 2, 3, 4), repeat=d):
                for degree in range(1, 41):
                    assert type_tensor_peak(sizes, degree) \
                        == oracle_type_tensor_peak(sizes, degree)

    @pytest.mark.parametrize("sizes,degree", [((4, 4, 4), 3),
                                              ((4, 4, 4), 6),
                                              ((2, 3), 40)])
    def test_build_allocates_the_predicted_peak(self, sizes, degree, rng):
        # three block buffers and two levels are alive at once, none
        # larger than the predicted array
        t = rng.normal(size=sizes) + 1j * rng.normal(size=sizes)
        legs = [cover._type_tables(s, degree)[0] for s in sizes]
        schedule = cover._type_schedule(sizes, degree)
        predicted = type_tensor_peak(sizes, degree)
        tracemalloc.start()
        try:
            cover._type_tensor(t, legs, degree, schedule)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 16 * predicted <= peak_bytes <= 5 * 16 * predicted


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
    sizes = [g.axis_size(i) for i in range(g.n_edges)]
    socket_vals = [list(itertools.product(range(s), repeat=degree))
                   for s in sizes]
    total = 0.0 + 0.0j
    # head[i], tail[i]: the socket vectors at edge i's two endpoints
    for head in itertools.product(*socket_vals):
        for tail in itertools.product(*socket_vals):
            weight = 1.0
            for i, s in enumerate(sizes):
                ti = cover.type_of(head[i], s)
                tj = cover.type_of(tail[i], s)
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
                    for i in g.incidences[k]:
                        vec = head[i] if k == g.edges[i].head else tail[i]
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
        t = g.tensors[k].reshape([g.axis_size(i)
                                  for i in g.incidences[k]])
        if t.size ** degree > cap:
            raise CapacityError("stacked node tensor over the cap")
        stacked = np.ones(())
        for _ in range(degree):
            stacked = np.multiply.outer(stacked, t)
        d = t.ndim
        order = [m * d + a for a in range(d) for m in range(degree)]
        stacked = stacked.transpose(order).reshape(
            [s ** degree for s in t.shape])
        labels = [f"{g.edges[i].eid}|{'i' if g.edges[i].head == k else 'j'}"
                  for i in g.incidences[k]]
        tensors.append(ComplexTensor(tuple(labels), stacked))
    for i, e in enumerate(g.edges):
        s = g.axis_size(i)
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
    nodes = [(name, [g.edges[i].eid for i in g.incidences[k]])
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
        a = a @ (t if g.incidences[k][0] == (k - 1) % g.n_edges else t.T)
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

    @pytest.mark.parametrize("kind,ensemble,alphabet", [
        ("standard", "positive-s-nfg", 2), ("standard", "positive-s-nfg", 3),
        ("double-edge", "psd-random", 2), ("double-edge", "psd-random", 3)])
    def test_estimators_match_h_m_on_three_node_cycles(self, kind, ensemble,
                                                       alphabet):
        g = gen(GeneratorSpec(topology="cycle", kind=kind, ensemble=ensemble,
                              alphabet=alphabet, n=3, seed=1))
        # at leg size 9 the type formula takes 1 s at M = 5 and 10 s at 6
        top = 4 if g.axis_size(0) > 4 else 6
        routes = [(cover.zbm_typeformula, m) for m in range(1, top + 1)]
        routes += [(cover.zbm_exhaustive, m) for m in (2, 3)]
        for route, degree in routes:
            assert route(g, degree).power_value == pytest.approx(
                cycle_h_m(g, degree), rel=1e-12)

    @pytest.mark.parametrize("kind,ensemble,alphabet", [
        ("standard", "positive-s-nfg", 2), ("standard", "positive-s-nfg", 3),
        ("double-edge", "psd-random", 2)])
    @pytest.mark.parametrize("degree", [8, 20])
    def test_montecarlo_within_three_stderr_of_h_m(self, kind, ensemble,
                                                   alphabet, degree):
        g = gen(GeneratorSpec(topology="cycle", kind=kind, ensemble=ensemble,
                              alphabet=alphabet, n=3, seed=1))
        est = cover.zbm_montecarlo(g, degree, samples=100)
        assert est.stderr > 0.0
        assert abs(est.power_value - cycle_h_m(g, degree)) <= 3 * est.stderr


def two_components(rng):
    """A triangle and a 2-cycle, their edges interleaved in ``g.edges``."""
    nodes = [("a", ["e1", "e3"]), ("b", ["e1", "e5"]), ("c", ["e3", "e5"]),
             ("d", ["e2", "e4"]), ("e", ["e2", "e4"])]
    edges = [("e1", ("a", "b"), 2), ("e2", ("d", "e"), 2),
             ("e3", ("a", "c"), 2), ("e4", ("d", "e"), 2),
             ("e5", ("b", "c"), 2)]
    tensors = {name: rng.random((2, 2)) + 0.1 for name, _ in nodes}
    return nfg.make_graph(nfg.STANDARD, nodes, edges, tensors)


def reversed_edge_list(g):
    """``g`` with the edge list of its serialized document reversed: the
    same graph with another spanning forest in edge order."""
    doc = json.loads(nfg.serialize(g))
    doc["edges"].reverse()
    rev = nfg.parse(json.dumps(doc))
    assert [e.eid for e in rev.edges] == [e.eid for e in g.edges][::-1]
    return rev


# case: (builder of the graph from an rng, degree)
GAUGE_CASES = {
    **{f"fig3-{seed}": (lambda rng, seed=seed: fig3_psd(seed), 2)
       for seed in range(4)},
    "two-cycle": (lambda rng: two_cycle(rng.random((3, 3)),
                                        rng.random((3, 3)), alphabet=3), 3),
    "two-components": (two_components, 2),
    "fig3-reversed": (lambda rng: reversed_edge_list(fig3_psd(1)), 2),
}


class TestGauge:
    """The exhaustive mean contracts only the covers whose spanning-forest
    edges carry the identity; the mean over every labeled cover is the
    ground truth."""

    @pytest.mark.parametrize("case", list(GAUGE_CASES))
    def test_matches_the_labeled_cover_mean(self, case, rng):
        build, degree = GAUGE_CASES[case]
        g = build(rng)
        est = cover.zbm_exhaustive(g, degree)
        assert est.covers == math.factorial(degree) ** g.n_edges
        assert est.power_value == pytest.approx(
            labeled_cover_mean(g, degree), rel=1e-12)

    @pytest.mark.parametrize("seed,n", [(0, 4), (1, 5), (2, 6)])
    def test_a_tree_contracts_one_cover(self, seed, n, monkeypatch):
        g = random_tree_de(seed, n)
        z = nfg.partition_contract(g).real
        for degree in range(2, 7):
            monkeypatch.setenv("BETHE_COVER_LIMITS", "covers=0")
            with pytest.raises(CapacityError) as info:
                cover.zbm_exhaustive(g, degree)
            assert info.value.requested == 1
            monkeypatch.delenv("BETHE_COVER_LIMITS")
            est = cover.zbm_exhaustive(g, degree)
            assert est.root == pytest.approx(z, rel=1e-12)

    @pytest.mark.parametrize("degree", [3, 4])
    def test_fig3_matches_the_type_formula(self, degree):
        # 3! ** 2 = 36 and 4! ** 2 = 576 covers; M = 4 takes about 1 s
        g = fig3_psd(0)
        assert cover.zbm_exhaustive(g, degree).power_value == pytest.approx(
            cover.zbm_typeformula(g, degree).power_value, rel=1e-11)


def graph_of(names, edges, rng):
    """A standard graph with nodes ``names`` in that order, one edge per
    ``(name, name, alphabet)`` of ``edges``, each node's axes in edge
    order, and random positive local functions."""
    eids = [f"e{n}" for n in range(len(edges))]
    nodes = [(name, [eid for eid, (a, b, _) in zip(eids, edges)
                     if name in (a, b)]) for name in names]
    alphabet = {eid: s for eid, (_, _, s) in zip(eids, edges)}
    tensors = {name: rng.random([alphabet[eid] for eid in incident]) + 0.1
               for name, incident in nodes}
    return nfg.make_graph(nfg.STANDARD, nodes,
                          [(eid, (a, b), s)
                           for eid, (a, b, s) in zip(eids, edges)], tensors)


def k44(rng):
    """The complete bipartite graph K_{4,4}: rows r0..r3, then columns
    c0..c3, binary edges in row-major order."""
    rows, cols = [f"r{i}" for i in range(4)], [f"c{j}" for j in range(4)]
    return graph_of(rows + cols, [(r, c, 2) for r in rows for c in cols],
                    rng)


def theta(rng):
    """Three paths of two interior nodes between n2 and n6; node positions
    interleave, so the absorbed edges run both ways along each path."""
    paths = [("n2", "n0", "n5", "n6"), ("n2", "n7", "n1", "n6"),
             ("n2", "n4", "n3", "n6")]
    return graph_of([f"n{k}" for k in range(8)],
                    [(a, b, 2) for path in paths
                     for a, b in zip(path, path[1:])], rng)


def mixed_alphabets(rng):
    """A triangle with alphabets 2, 3 and 4: node a's two edges differ."""
    return graph_of(["a", "b", "c"], [("a", "b", 2), ("b", "c", 3),
                                      ("c", "a", 4)], rng)


def tree_on_cycle(rng):
    """A triangle t0 t1 t2 with a tree hanging off t0 (leaf chains)."""
    return graph_of(["u2", "t1", "u1", "t0", "u4", "t2", "u3"],
                    [("t0", "t1", 2), ("t1", "t2", 3), ("t2", "t0", 2),
                     ("t0", "u1", 3), ("u1", "u2", 2), ("u1", "u3", 2),
                     ("u3", "u4", 3)], rng)


# case: (builder of the graph from an rng, reduced (nodes, edges) at
# M >= 2, all of them loops, degree of the labeled-cover check)
ABSORB_CASES = {
    "fig3": (lambda rng: fig3_psd(2), (1, 2), 2),
    "theta": (theta, (1, 2), 2),
    "mixed-alphabets": (mixed_alphabets, (1, 1), 3),
    "mixed-alphabets-double": (
        lambda rng: as_double_edge(mixed_alphabets(rng)), (1, 1), 2),
    "tree-on-cycle": (tree_on_cycle, (1, 1), 2),
    "two-cycle": (lambda rng: two_cycle(rng.random((3, 3)),
                                        rng.random((3, 3)), alphabet=3),
                  (1, 1), 3),
    "isolated": (lambda rng: with_isolated_node(fig3_psd(1)), (2, 2), 2),
    "two-components": (two_components, (2, 2), 2),
}


def loop_nodes(h):
    return {e.head for e in h.edges if e.head == e.tail}


class TestAbsorb:
    """The cover estimators contract the covers of the reduced graph, each
    cover lifted from one of the base graph; each lifted cover's Z is the
    base cover's."""

    @pytest.mark.parametrize("case", list(ABSORB_CASES))
    def test_each_cover_keeps_its_value(self, case, rng):
        build, shape, _ = ABSORB_CASES[case]
        g = build(rng)
        for degree in range(1, 6):
            h, chains = cover._absorb(g, degree)
            if degree == 1:     # every edge of a pair is contracted
                assert (h.n_nodes, h.n_edges) == (shape[0], 0)
            else:
                assert (h.n_nodes, h.n_edges) == shape
                assert all(e.head == e.tail for e in h.edges)
                # a node without loops took no spine, and a leaf or series
                # merge never grows a tensor
                assert all(t.size <= max(u.size for u in g.tensors)
                           for k, t in enumerate(h.tensors)
                           if k not in loop_nodes(h))
            for _ in range(10):
                spec = cover.random_cover(g, degree, rng)
                lifted = cover._lift_block(chains, spec[None])[0]
                assert nfg.contract_network(cover.cover_network(
                    h, lifted)) == pytest.approx(nfg.contract_network(
                        cover.cover_network(g, spec)), rel=1e-13)

    @pytest.mark.parametrize("case", list(ABSORB_CASES))
    def test_exhaustive_matches_the_labeled_cover_mean(self, case, rng):
        build, _, degree = ABSORB_CASES[case]
        g = build(rng)
        assert cover.zbm_exhaustive(g, degree).power_value == pytest.approx(
            labeled_cover_mean(g, degree), rel=1e-12)

    @pytest.mark.parametrize("degree", [2, 7])
    def test_a_forest_leaves_only_scalars(self, degree, rng):
        forests = [random_tree_de(3, 5),
                   with_isolated_node(random_tree_de(4, 3))]
        for g, components in zip(forests, (1, 2)):
            h, chains = cover._absorb(g, degree)
            network = cover.cover_network(h, cover._lift_block(
                chains, cover.random_cover(g, degree, rng)[None])[0])
            assert len(network) == components * degree
            assert all(not t.labels and t.array.ndim == 0 for t in network)


@st.composite
def multigraphs(draw):
    """A standard graph whose absorbed graph has a pair: nodes u and v
    joined by 2-4 parallel edges, plus a leaf w on u or v or a series node
    w between them, and maybe a node x joined to v by two parallel edges;
    nodes and edges in a drawn order, alphabets 1-3, random positive
    local functions."""
    alphabet = st.integers(1, 3)
    edges = [("u", "v", draw(alphabet))
             for _ in range(draw(st.integers(2, 4)))]
    if draw(st.booleans()):
        edges.append((draw(st.sampled_from("uv")), "w", draw(alphabet)))
    else:
        edges += [("u", "w", draw(alphabet)), ("w", "v", draw(alphabet))]
    if draw(st.booleans()):
        size = draw(st.integers(1, 2))
        edges += [("v", "x", size), ("x", "v", size)]
    names = draw(st.permutations(sorted({n for a, b, _ in edges
                                         for n in (a, b)})))
    return graph_of(names, draw(st.permutations(edges)),
                    np.random.default_rng(draw(st.integers(0, 2**16))))


def sampled_cover_mean(g, degree, samples, seed=0):
    """The Monte-Carlo mean over the covers that ``zbm_montecarlo`` draws,
    each contracted as a cover of ``g`` itself."""
    values = np.array([nfg.contract_network(cover.cover_network(
        g, cover.random_cover(g, degree, np.random.default_rng([seed, s]))))
        for s in range(samples)])
    return (values.sum() / samples).real


class TestPairs:
    """The node pairs that two or more edges join contract their lowest
    edge (the spine) before lifting, and the pair's other edges become
    loops; each traced array is built once per reduced graph."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(g=multigraphs(), degree=st.sampled_from(range(1, 6)),
           data=st.data())
    def test_paired_matches_unpaired(self, g, degree, data):
        # each base edge takes a fresh permutation or one of a pool of at
        # most two, so a pair's loops are often fixed at some copies and
        # not at others (at every copy when M = 1)
        perm = st.permutations(range(degree)).map(tuple)
        pool = data.draw(st.lists(perm, min_size=1, max_size=2))
        spec = cover_array([data.draw(st.one_of(st.sampled_from(pool), perm))
                            for _ in g.edges], degree)
        h, chains = cover._absorb(g, degree)
        assert h.n_nodes in (1, 2) and len(loop_nodes(h)) == (degree > 1)
        assert nfg.contract_network(cover.cover_network(
            h, cover._lift_block(chains, spec[None])[0])) == pytest.approx(
                nfg.contract_network(cover.cover_network(g, spec)),
                rel=1e-12)

    def test_degree_one_merges_a_theta_into_a_scalar(self):
        g = fig3_psd(0)
        h, chains = cover._absorb(g, 1)
        assert (h.n_nodes, h.n_edges) == (1, 0)
        network = cover.cover_network(h, cover.identity_cover(h, 1))
        assert len(network) == 1
        assert network[0].labels == [] and network[0].array.ndim == 0
        assert nfg.contract_network(network) == pytest.approx(
            nfg.partition_contract(g), rel=1e-12)

    def test_fig3_cover_has_one_tensor_per_copy(self, rng):
        # the theta fig3 absorbs to is one node with two loops, its head
        # legs first: a copy traces neither, one or both, so 3 traced
        # arrays besides the node's own, each built once
        g = fig3_psd(0)
        h, chains = cover._absorb(g, 4)
        assert h.incidences == ((0, 1, 0, 1),)
        nets = [cover.cover_network(h, cover._lift_block(
            chains, cover.random_cover(g, 4, rng)[None])[0])
            for _ in range(20)]
        assert all(len(net) == 4 for net in nets)
        assert len({id(t.array) for net in nets for t in net}) <= 4

    @pytest.mark.parametrize("degree", range(1, 6))
    def test_loops_match_the_ring_oracle(self, degree):
        # the two-cycle reduces to one node whose loop carries the
        # transfer matrix; sigma = identity traces every copy
        g = two_cycle(np.random.default_rng(1).random((3, 3)),
                      np.random.default_rng(2).random((3, 3)), alphabet=3)
        h, _ = cover._absorb(g, 2)
        assert h.incidences == ((0, 0),)
        for sigma in itertools.permutations(range(degree)):
            network = cover.cover_network(h, cover_array((sigma,), degree))
            assert nfg.contract_network(network) == pytest.approx(
                loop_cover_z(h.tensors[0], sigma), rel=1e-12)

    def test_pairs_are_taken_greedily_in_edge_order(self, rng):
        # v has two edges to u and two to x: whichever comes first in
        # edge order is v's pair, and the other node stays unmerged
        uv, vx = [("u", "v", 2)] * 2, [("v", "x", 2)] * 2
        g = graph_of(["u", "v", "x"], uv + vx + [("u", "x", 2)], rng)
        h, _ = cover._absorb(g, 2)
        assert h.node_names == ("u", "x")       # v went into u
        assert [e.eid for e in h.edges if e.head == e.tail] == ["e1"]
        g = graph_of(["u", "v", "x"], vx[:1] + uv + vx[1:], rng)
        h, _ = cover._absorb(g, 2)
        assert h.node_names == ("u", "v")       # x went into v
        assert [e.eid for e in h.edges if e.head == e.tail] == ["e3"]

    @pytest.mark.parametrize("case", ["fig3", "two-cycle", "theta"])
    def test_estimators_match_the_unpaired_networks(self, case, rng):
        # the base graph's own cover networks, gauge-fixed or drawn alike
        g = ABSORB_CASES[case][0](rng)
        assert cover.zbm_exhaustive(g, 3).power_value == pytest.approx(
            gauge_fixed_cover_mean(g, 3), rel=1e-12)
        assert cover.zbm_montecarlo(g, 4, 8).power_value == pytest.approx(
            sampled_cover_mean(g, 4, 8), rel=1e-12)

    @pytest.mark.parametrize("build", [
        lambda rng: gen(GeneratorSpec(topology="fig-b", kind="double-edge",
                                      ensemble="psd-random", seed=3)),
        k44])
    def test_no_parallel_edges_keep_every_bit(self, build, rng):
        # nothing to absorb or pair: the reduced graph is the base graph,
        # with its own arrays, so the estimators do the base graph's work
        g = build(rng)
        h, chains = cover._absorb(g, 3)
        assert (h.incidences, h.edges) == (g.incidences, g.edges)
        assert all(t is u for t, u in zip(h.tensors, g.tensors))
        spec = cover._lift_block(chains,
                                 cover.random_cover(g, 3, rng)[None])[0]
        assert all(t.array is h.tensors[n // 3]
                   for n, t in enumerate(cover.cover_network(h, spec)))
        assert cover.zbm_exhaustive(g, 2).power_value \
            == gauge_fixed_cover_mean(g, 2).real
        assert cover.zbm_montecarlo(g, 3, 4).power_value \
            == sampled_cover_mean(g, 3, 4)


STACKED_GRAPHS = {
    "fig3": lambda: fig3_psd(0),
    "fig-b": lambda: gen(GeneratorSpec(topology="fig-b", kind="double-edge",
                                       ensemble="psd-random", seed=3)),
    "forest": lambda: with_isolated_node(random_tree_de(4, 3)),
    "two-cycle": lambda: two_cycle(np.random.default_rng(1).random((3, 3)),
                                   np.random.default_rng(2).random((3, 3)),
                                   alphabet=3),
}


def assert_same_networks(got, want):
    """Each network of ``got`` holds the labels of ``want``'s, as lists of
    Python ints in the same order, and the very same arrays."""
    got = list(got)
    assert len(got) == len(want)
    for network, oracle in zip(got, want):
        assert len(network) == len(oracle)
        for t, u in zip(network, oracle):
            assert type(t.labels) is list and t.labels == u.labels
            assert all(type(lab) is int for lab in t.labels)
            assert t.array is u.array


def exhaustive_rows(h, degree, count):
    """The first ``count`` gauge-fixed covers ``zbm_exhaustive`` visits on
    the reduced graph ``h``, in its order."""
    identity = tuple(range(degree))
    return list(itertools.islice(itertools.product(*(
        (identity,) if joins else itertools.permutations(identity)
        for joins in forest_edges(h))), count))


def check_stacked_rows(g, degree, samples=12, seed=3):
    """The stacked exhaustive and Monte-Carlo rows of ``g`` at ``degree``
    against one spec at a time, wired leg by leg."""
    h, chains = cover._absorb(g, degree)
    rows = exhaustive_rows(h, degree, 30)
    assert_same_networks(
        cover._networks(h, degree, cover._blocks(rows, (h.n_edges, degree),
                                                 h)),
        [spec_cover_network(h, degree, r) for r in rows])
    identity = np.tile(np.arange(degree), (g.n_edges, 1))
    draws = [np.random.default_rng([seed, s]).permuted(identity, axis=1)
             for s in range(samples)]
    lifted = (cover._lift_block(chains, b)
              for b in cover._blocks(draws, identity.shape, h))
    assert_same_networks(cover._networks(h, degree, lifted), [
        spec_cover_network(h, degree, spec_lift(
            chains, degree, sequential_cover(
                g, degree, np.random.default_rng([seed, s]))))
        for s in range(samples)])


class TestStackedWiring:
    """The cover means wire every cover of a call in stacked blocks; each
    row is the network of its one spec wired on its own."""

    @pytest.mark.parametrize("block", [cover._BLOCK, 40, 1])
    @pytest.mark.parametrize("name", list(STACKED_GRAPHS))
    def test_rows_match_the_spec_wiring(self, name, block, monkeypatch):
        # a block of 1 entry holds one row; 40 holds a few at low degree
        monkeypatch.setattr(cover, "_BLOCK", block)
        g = STACKED_GRAPHS[name]()
        for degree in range(1, 7):
            check_stacked_rows(g, degree)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(g=multigraphs(), degree=st.sampled_from(range(1, 7)),
           block=st.sampled_from([cover._BLOCK, 40, 1]))
    def test_multigraph_rows_match_the_spec_wiring(self, g, degree, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cover, "_BLOCK", block)
            check_stacked_rows(g, degree)

    @pytest.mark.parametrize("name", list(STACKED_GRAPHS))
    def test_means_equal_the_spec_wiring(self, name):
        g = STACKED_GRAPHS[name]()
        for degree in range(1, 7):
            assert cover.zbm_montecarlo(g, degree, 5, seed=2) \
                == spec_montecarlo(g, degree, 5, seed=2)
        for degree in range(1, 4):
            assert cover.zbm_exhaustive(g, degree) \
                == spec_exhaustive(g, degree)

    def test_one_row_routes_are_the_stacked_path(self, rng):
        g = fig3_psd(0)
        h, chains = cover._absorb(g, 4)
        for _ in range(5):
            spec = cover.random_cover(g, 4, rng)
            lifted = cover._lift_block(chains, spec[None])[0]
            rows = spec_lift(chains, 4, cover_rows(spec))
            assert np.array_equal(lifted, cover_array(rows, 4))
            assert_same_networks([cover.cover_network(h, lifted)],
                                 [spec_cover_network(h, 4, rows)])

    def test_blocks_hold_at_most_block_entries(self, monkeypatch):
        # fig3 at M = 8: a drawn row is 5 x 8 permutation entries, and its
        # cover 4 legs x 8 copies = 32 labels, so 409 rows fill a block
        g = fig3_psd(0)
        h, _ = cover._absorb(g, 8)
        rows = [np.tile(np.arange(8), (5, 1))] * 1000
        assert [len(b) for b in cover._blocks(rows, (5, 8), h)] \
            == [409, 409, 182] and 409 * 40 <= cover._BLOCK
        monkeypatch.setattr(cover, "_BLOCK", 39)
        assert all(b.shape == (1, 5, 8)
                   for b in cover._blocks(rows, (5, 8), h))

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_random_cover_draws_the_sequential_permutations(self, degree):
        # one permuted call over |E| rows draws what |E| permutation
        # calls draw, and leaves the generator where they leave it
        for n_edges in range(7):
            g = SimpleNamespace(n_edges=n_edges)
            for seed in range(4):
                rng = np.random.default_rng(seed)
                ref = np.random.default_rng(seed)
                for _ in range(2):
                    assert np.array_equal(
                        cover.random_cover(g, degree, rng), cover_array(
                            sequential_cover(g, degree, ref), degree))
                    assert rng.bit_generator.state == ref.bit_generator.state


class TestReach:
    """Networks whose contraction order decides whether they fit: the
    K_{4,4} type network and fig3 Monte-Carlo covers at M = 12."""

    @pytest.mark.parametrize("degree", range(2, 7))
    def test_k44_type_network_peak(self, degree, rng):
        # binary edges carry C(2+M-1, M) = M + 1 types
        g = k44(rng)
        plan = nfg.plan_contraction([(inc, (degree + 1,) * 4)
                                     for inc in g.incidences])
        assert plan.peak == (degree + 1) ** 8

    def test_k44_type_formula_matches_exhaustive(self, rng):
        # 2 ** (16 - 8 + 1) = 512 gauge-fixed covers
        g = k44(rng)
        assert cover.zbm_typeformula(g, 2).power_value == pytest.approx(
            cover.zbm_exhaustive(g, 2).power_value, rel=1e-12)

    def test_k44_type_formula_fits_at_degree_four(self, rng):
        # 5 ** 8 entries at most, where a 5 ** 12 plan is over the cap
        est = cover.zbm_typeformula(k44(rng), 4)
        assert est.root > 0.0

    def test_fig3_paired_covers_at_degree_12(self):
        # the covers zbm_montecarlo(g, 12, 6, seed=i) draws, i < 16, as
        # the networks it contracts: fig3 reduces to one node with two
        # loops, so a copy keeps one leg at each end of every loop it
        # does not trace, and every intermediate has an even number of
        # legs (4**8 here, 4**7 with the pair's copies left apart)
        g = fig3_psd(0)
        h, chains = cover._absorb(g, 12)
        peaks = [nfg.plan_contraction([
            (t.labels, t.sizes) for t in cover.cover_network(
                h, cover._lift_block(chains, cover.random_cover(
                    g, 12, np.random.default_rng([i, s]))[None])[0])]).peak
            for i in range(16) for s in range(6)]
        assert max(peaks) <= 4 ** 8


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
            z = nfg.partition_contract(cover.build_cover(
                g, cover_array(perms, 2)))
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
        # 4! ** 2 = 576 gauge-fixed covers fit under the cap, 5! ** 2 do not
        g = fig3_psd(0)
        monkeypatch.setenv("BETHE_COVER_LIMITS", "covers=1000")
        with pytest.raises(CapacityError, match="covers") as info:
            cover.zbm_exhaustive(g, 5)
        assert info.value.requested == 120 ** 2

    def test_typeformula_capacity(self, monkeypatch):
        # the peak is a block of the degree-3 node's last level: 9 of its
        # 21 first-leg types (20 and the zero slot), each laying its
        # second leg out as 10 types times 4 symbols plus one zero row,
        # of 10 types times 4 symbols of its third leg
        g = fig3_psd(0)
        monkeypatch.setenv("BETHE_COVER_LIMITS", "contract=1000")
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as info:
                cover.zbm_typeformula(g, 3)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.requested == 9 * (10 * 4 + 1) * (10 * 4)
        assert info.value.limit == 1000
        assert peak_bytes < 16 * 1000

    def test_typeformula_plans_before_it_builds(self, monkeypatch):
        # fig-b is K_4 with leg size C(4 + 2, 3) = 20 at degree 3: each
        # node's construction peaks at 9 * 41 * 40 = 14760 entries, and
        # the network's first merge leaves four legs, 20 ** 4 entries
        g = gen(GeneratorSpec(topology="fig-b", kind="double-edge",
                              ensemble="psd-random", seed=3))

        def refused(*args):
            raise AssertionError("a type tensor was built")

        monkeypatch.setattr(cover, "_type_tensor", refused)
        monkeypatch.setenv("BETHE_COVER_LIMITS", "contract=100000")
        with pytest.raises(CapacityError,
                           match="largest contraction intermediate") as info:
            cover.zbm_typeformula(g, 3)
        assert info.value.requested == 20 ** 4
        assert info.value.limit == 100000

    @pytest.mark.parametrize("degree", [9, 10])
    def test_typeformula_reaches_the_build_at_high_degree(self, degree,
                                                         monkeypatch):
        # fig3's degree-3 nodes carry C(4 + M - 1, M) types per leg, 220
        # at M = 9 and 286 at M = 10: under the default caps both the
        # construction, whose largest array is the last level with its
        # zero slot, and the plan fit
        class Built(Exception):
            pass

        def built(*args):
            raise Built

        n = math.comb(4 + degree - 1, degree)
        assert type_tensor_peak((4, 4, 4), degree) == (n + 1) * n * n
        monkeypatch.setattr(cover, "_type_tensor", built)
        monkeypatch.delenv("BETHE_COVER_LIMITS", raising=False)
        with pytest.raises(Built):
            cover.zbm_typeformula(fig3_psd(0), degree)

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
            assert ent.ratio_power - ent.lower > 0.0
            assert ent.upper - ent.ratio_power > 0.0

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
