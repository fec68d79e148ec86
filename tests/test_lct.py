"""Loop-calculus transform: parameters, edge matrices, invariants."""

import itertools

import numpy as np
import pytest

from bethecover import lct, nfg, spa
from bethecover.cover import zbm_typeformula
from bethecover.errors import (DegenerateParameterError,
                               LctInapplicableError)
from bethecover.generators import GeneratorSpec, gen

from conftest import (fig3_near_identity, fig3_psd, power_trap_fixed_point,
                      power_trap_graph, random_tree_de)
from oracles import induced_fixed_point_check, nonzero_edge_subgraph_degrees


def converged_transform(g, seed=0, restarts=1, overrides=None):
    rep = spa.spa_run(g, restarts=restarts, tol_fp=1e-12, seed=seed)
    assert rep.converged
    return lct.transform(g, rep, param_overrides=overrides)


def oracle_loop_series(lr):
    """One configuration per kept row, its weight from
    :func:`nfg.global_eval`: the loop series that the masked chunk decode
    of :func:`lct.loop_series` replaces, kept as its oracle."""
    g = lr.transformed
    floor = 1e-12 * abs(lr.g0)
    out = []
    for digits, vals in nfg.configurations(g):
        for row in np.nonzero(np.abs(vals) > floor)[0]:
            if not digits[row].any():
                continue
            cfg = tuple(int(v) for v in digits[row])
            out.append((cfg, complex(vals[row] / lr.g0)))
            assert nfg.global_eval(g, cfg) == pytest.approx(vals[row],
                                                            rel=1e-14)
    return out


def weight_one_entries(transformed):
    values = []
    for t in transformed.tensors:
        for a in range(t.ndim):
            idx = [0] * t.ndim
            for v in range(1, t.shape[a]):
                idx[a] = v
                values.append(abs(t[tuple(idx)]))
    return values


class TestResolveParams:
    def test_point_mass_pair_uses_unit_branch(self):
        mu = np.array([1.0, 0.0])
        p = lct.resolve_params(mu, mu, eid="e")
        assert p.branch_one
        assert p.z_e == pytest.approx(1.0)
        assert p.delta_i == pytest.approx(1.0)
        assert p.delta_j == pytest.approx(1.0)
        assert p.eps_i == pytest.approx(-0.5)
        assert 1.0 + p.delta_i * p.eps_j + p.delta_j * p.eps_i \
            == pytest.approx(0.0)

    def test_uniform_pair(self):
        mu = np.array([0.5, 0.5])
        p = lct.resolve_params(mu, mu, eid="e")
        assert not p.branch_one
        assert p.z_e == pytest.approx(0.5)
        assert p.b0 == pytest.approx(0.5)
        assert p.delta_i == pytest.approx(np.sqrt(0.5))
        assert p.eps_i == pytest.approx((0.5 - np.sqrt(0.5)) / 0.25)
        res = lct.constraint_residuals(p, 0.5, 0.5)
        assert max(res.values()) < 1e-12

    def test_vanishing_overlap_is_inapplicable(self):
        with pytest.raises(LctInapplicableError):
            lct.resolve_params(np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                               eid="e1")

    def test_invalid_overrides_rejected(self):
        mu = np.array([0.5, 0.5])
        point = np.array([1.0, 0.0])
        with pytest.raises(DegenerateParameterError):
            lct.resolve_params(mu, mu, eid="e", zeta_i=0.0)
        with pytest.raises(DegenerateParameterError):
            lct.resolve_params(mu, mu, eid="e", chi_i=0.0)
        with pytest.raises(DegenerateParameterError):
            lct.resolve_params(mu, mu, eid="e", delta_i=0.0)
        # eps is free only on the b0 = 1 branch
        with pytest.raises(DegenerateParameterError):
            lct.resolve_params(mu, mu, eid="e", eps_i=1.0)
        # delta is forced on the b0 = 1 branch
        with pytest.raises(DegenerateParameterError):
            lct.resolve_params(point, point, eid="e", delta_i=2.0)

    def test_unit_branch_eps_override(self):
        point = np.array([1.0, 0.0])
        p = lct.resolve_params(point, point, eid="e", eps_i=-0.25)
        assert p.eps_j == pytest.approx(-0.75)
        assert 1.0 + p.delta_i * p.eps_j + p.delta_j * p.eps_i \
            == pytest.approx(0.0)

    def test_override_validation(self):
        mu = np.array([0.5, 0.5])
        p = lct.resolve_params(mu, mu, eid="e", chi_i=0.5, zeta_i=2.0,
                               delta_i=2.0)
        assert p.chi_j == pytest.approx(2.0)
        assert p.zeta_j == pytest.approx(1.0 / (0.5 * 2.0))
        assert p.delta_j == pytest.approx(0.25)
        res = lct.constraint_residuals(p, 0.5, 0.5)
        assert max(res.values()) < 1e-12


class TestEdgeMatrices:
    def test_binary_closed_form(self):
        mu_i = np.array([0.3, 0.7])
        mu_j = np.array([0.6, 0.4])
        p = lct.resolve_params(mu_i, mu_j, eid="e")
        m_i, m_j = lct.build_m_matrices(mu_i, mu_j, p)
        expected_i = p.zeta_i * np.array(
            [[mu_i[0], -p.chi_i * mu_j[1]],
             [mu_i[1], p.chi_i * mu_j[0]]])
        expected_j = p.zeta_j * np.array(
            [[mu_j[0], -p.chi_j * mu_i[1]],
             [mu_j[1], p.chi_j * mu_i[0]]])
        assert np.allclose(m_i, expected_i, atol=1e-12)
        assert np.allclose(m_j, expected_j, atol=1e-12)

    def test_equal_real_messages_give_orthogonal_matrix(self):
        mu = np.array([0.2, 0.5, 0.3])
        p = lct.resolve_params(mu, mu, eid="e")
        m_i, m_j = lct.build_m_matrices(mu, mu, p)
        assert np.allclose(m_i, m_j, atol=1e-12)
        assert np.max(np.abs(m_i.T @ m_i - np.eye(3))) < 1e-10

    def test_conjugate_messages_give_unitary_pair(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = c @ c.conj().T
        mu_i = c.reshape(-1)
        mu_i = mu_i / mu_i.sum()
        mu_j = mu_i.conj()
        p = lct.resolve_params(mu_i, mu_j, eid="e")
        m_i, m_j = lct.build_m_matrices(mu_i, mu_j, p)
        assert np.allclose(m_i, m_j.conj(), atol=1e-12)
        assert np.max(np.abs(m_i.conj().T @ m_i - np.eye(4))) < 1e-10
        assert np.max(np.abs(m_j.conj().T @ m_j - np.eye(4))) < 1e-10

    def test_double_edge_matrices_have_hermitian_choi(self):
        # on double-edge input the edge matrices obey the pair-swap
        # conjugation symmetry, i.e. their matrix representation over
        # (unprimed, primed) tuples is Hermitian
        for seed in (0, 5):
            g = fig3_psd(seed)
            lr = converged_transform(g)
            for e in g.edges:
                n = e.alphabet
                for mat in lr.m_matrices[e.eid]:
                    t = mat.reshape(n, n, n, n)
                    defect = np.max(np.abs(
                        t - t.transpose(1, 0, 3, 2).conj()))
                    assert defect < 1e-12

    def test_biorthogonality_both_ways(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4):
            mu_i = rng.dirichlet(np.ones(n))
            mu_j = rng.dirichlet(np.ones(n))
            p = lct.resolve_params(mu_i, mu_j, eid="e")
            m_i, m_j = lct.build_m_matrices(mu_i, mu_j, p)
            assert np.max(np.abs(m_i @ m_j.T - np.eye(n))) < 1e-10
            assert np.max(np.abs(m_i.T @ m_j - np.eye(n))) < 1e-10


class TestTransform:
    def test_tree_only_zero_configuration_survives(self):
        g = random_tree_de(1, n=4)
        lr = converged_transform(g)
        z = nfg.partition_exact(lr.transformed)
        assert abs(z - lr.g0) / abs(z) < 1e-9
        assert lct.loop_series(lr) == []
        assert induced_fixed_point_check(lr) <= 1e-12

    def test_fig3_standard_preserves_partition(self):
        g = gen(GeneratorSpec(topology="fig3", kind="standard",
                              ensemble="positive-s-nfg", seed=5))
        lr = converged_transform(g)
        z0 = nfg.partition_exact(g)
        z1 = nfg.partition_exact(lr.transformed)
        assert abs(z1 - z0) / abs(z0) < 1e-9
        assert abs(lr.g0 - lr.zb_spa) / abs(lr.zb_spa) < 1e-9
        # standard input yields real but possibly signed functions
        assert lr.transformed.weak_sense_flag
        report = nfg.validate(lr.transformed)
        assert report.valid

    def test_strict_sense_transform_succeeds_and_is_weak(self):
        g = fig3_psd(13)
        lr = converged_transform(g)
        report = nfg.validate(lr.transformed)
        assert report.valid
        assert report.classification == "weak-sense"
        z0 = nfg.partition_exact(g)
        z1 = nfg.partition_exact(lr.transformed)
        assert abs(z1 - z0) / abs(z0) < 1e-9

    def test_weight_one_annihilation(self):
        for seed in (0, 4, 9):
            lr = converged_transform(fig3_psd(seed))
            assert max(weight_one_entries(lr.transformed)) <= 1e-10

    @pytest.mark.parametrize("kind,ensemble", [
        ("standard", "positive-s-nfg"), ("double-edge", "psd-random")])
    def test_alternate_parameter_choices_preserve_partition(self, kind,
                                                            ensemble):
        g = gen(GeneratorSpec(topology="fig3", kind=kind,
                              ensemble=ensemble, seed=2))
        z0 = nfg.partition_exact(g)
        for overrides in ({"chi_i": 0.5}, {"chi_i": 2.0},
                          {"delta_i": 0.7}, {"zeta_i": 3.0}):
            per_edge = {e.eid: dict(overrides) for e in g.edges}
            lr = converged_transform(g, overrides=per_edge)
            z1 = nfg.partition_exact(lr.transformed)
            assert abs(z1 - z0) / abs(z0) < 1e-9
            assert abs(lr.g0 - lr.zb_spa) / abs(lr.zb_spa) < 1e-9

    def test_inapplicable_propagates(self):
        g = power_trap_graph()
        with pytest.raises(LctInapplicableError):
            lct.transform(g, power_trap_fixed_point(g))

    def test_induced_fixed_point_sweep(self):
        for seed in range(15):
            lr = converged_transform(fig3_psd(seed))
            assert induced_fixed_point_check(lr) <= 1e-8

    @pytest.mark.parametrize("g", [
        fig3_psd(1), fig3_psd(2), fig3_near_identity(0),
        gen(GeneratorSpec(topology="fig3", kind="standard",
                          ensemble="positive-s-nfg", seed=1))],
        ids=["psd-1", "psd-2", "near-identity-0", "standard-1"])
    def test_transform_preserves_degree_m_bethe_value(self, g):
        lr = converged_transform(g)
        for m in (2, 3):
            want = zbm_typeformula(g, m).power_value
            got = zbm_typeformula(lr.transformed, m).power_value
            assert got == pytest.approx(want, rel=1e-12)

    def test_serialize_result_round_trip(self):
        g = fig3_psd(3)
        lr = converged_transform(g)
        import json

        doc = json.loads(lct.serialize_result(lr))
        assert doc["schema"] == "lct-1"
        assert set(doc["edges"]) == {e.eid for e in g.edges}
        rebuilt = nfg.parse(json.dumps(doc["transformed"]))
        for a, b in zip(rebuilt.tensors, lr.transformed.tensors):
            assert np.array_equal(a, b)


class TestLoopSeries:
    def test_single_cycle_terms_activate_whole_cycle(self):
        g = gen(GeneratorSpec(topology="cycle", kind="standard",
                              ensemble="positive-s-nfg", n=4, seed=3))
        lr = converged_transform(g)
        terms = lct.loop_series(lr)
        assert terms
        for cfg, _w in terms:
            assert len(cfg) == g.n_edges and all(v != 0 for v in cfg)

    def test_correction_sum_identity(self):
        g = fig3_psd(11)
        lr = converged_transform(g)
        terms = lct.loop_series(lr)
        z = nfg.partition_exact(g)
        total = sum(w for _, w in terms)
        assert abs(z - lr.g0 * (1.0 + total)) / abs(z) < 1e-8
        assert total == pytest.approx(z / lr.zb_spa - 1.0, rel=1e-6)

    def test_terms_are_generalized_loops(self):
        g = fig3_psd(14)
        lr = converged_transform(g)
        for cfg, _w in lct.loop_series(lr):
            degs = nonzero_edge_subgraph_degrees(lr.transformed, cfg)
            assert all(d != 1 for d in degs)
            assert any(d > 0 for d in degs)


    def test_matches_per_row_oracle(self):
        graphs = [gen(GeneratorSpec(topology=topo, kind=kind, ensemble=ens,
                                    seed=seed))
                  for topo in ("fig3", "fig-b") for seed in (1, 2)
                  for kind, ens in (("standard", "positive-s-nfg"),
                                    ("double-edge", "psd-random"))]
        graphs.append(gen(GeneratorSpec(topology="cycle", kind="standard",
                                        ensemble="positive-s-nfg", n=4,
                                        alphabet=3, seed=3)))
        for g in graphs:
            lr = converged_transform(g)
            terms = lct.loop_series(lr)
            assert terms and terms == oracle_loop_series(lr)
            for cfg, w in terms:
                assert type(w) is complex
                assert [type(v) for v in cfg] == [int] * g.n_edges


class TestPartitionSplit:
    def test_decoupled_split(self):
        for kind, ens in (("standard", "positive-s-nfg"),
                          ("double-edge", "psd-random")):
            g = gen(GeneratorSpec(topology="cycle", kind=kind, n=2,
                                  ensemble=ens, seed=1))
            lr = converged_transform(g)
            tg = lr.transformed
            sizes = [tg.axis_size(i) for i in range(tg.n_edges)]
            low_weight_sum = 0.0 + 0.0j
            full_sum = 0.0 + 0.0j
            # independent values at both endpoints of every edge
            for head_vals in itertools.product(*[range(s) for s in sizes]):
                for tail_vals in itertools.product(
                        *[range(s) for s in sizes]):
                    val = 1.0 + 0.0j
                    for k in range(tg.n_nodes):
                        sel = []
                        for pos in tg.incidences[k]:
                            e = tg.edges[pos]
                            sel.append(head_vals[pos] if k == e.head
                                       else tail_vals[pos])
                        val *= tg.tensors[k][tuple(sel)]
                    weight = (sum(1 for v in head_vals if v)
                              + sum(1 for v in tail_vals if v))
                    full_sum += val
                    if weight == 1:
                        low_weight_sum += abs(val)
            # weight-one slice vanishes identically
            assert abs(low_weight_sum) < 1e-10
            # the full decoupled sum splits into all-zero + rest
            per_node = 1.0 + 0.0j
            for t in tg.tensors:
                per_node *= t.reshape(-1).sum()
            assert full_sum == pytest.approx(per_node, rel=1e-10)
            abs_mass = 1.0
            for t in tg.tensors:
                abs_mass *= float(np.abs(t).sum())
            cond = lct.check_condition(lr)
            assert cond.mass == pytest.approx(abs_mass)
            assert cond.alpha == pytest.approx(
                (abs_mass - lr.g0.real) / lr.g0.real)


class TestCondition:
    def test_single_edge_pair_alpha_zero(self):
        g = random_tree_de(2, n=2)
        lr = converged_transform(g)
        c = lct.check_condition(lr)
        assert c.alpha == pytest.approx(0.0, abs=1e-9)
        assert c.condition

    def test_near_identity_passes(self):
        lr = converged_transform(fig3_near_identity(3))
        c = lct.check_condition(lr)
        assert c.condition and c.alpha_condition

    def test_strongly_coupled_fails_but_reports(self):
        lr = converged_transform(fig3_psd(4), restarts=2)
        c = lct.check_condition(lr)
        assert not c.condition
        assert np.isfinite(c.alpha) and c.alpha > 0.5

    def test_boolean_agreement_sweep(self):
        for seed in range(10):
            g = fig3_near_identity(seed, eta=0.05 * (1 + seed % 3))
            lr = converged_transform(g)
            c = lct.check_condition(lr)
            assert c.condition == c.alpha_condition
