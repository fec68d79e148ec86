"""Sum-product iteration, fixed points, beliefs, Bethe free energy."""

import numpy as np
import pytest

from bethecover import nfg, spa
from bethecover.errors import DegenerateBeliefError, ValidationError
from bethecover.generators import GeneratorSpec, gen
from bethecover.tensor import choi_from_paired

from conftest import (build_fig3, fig3_psd, power_trap_fixed_point,
                      power_trap_graph, random_tree_de, two_cycle)


def min_choi_eigenvalue(vec, base):
    c = np.asarray(vec).reshape(base, base)
    return float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0])


class TestStep:
    def test_all_ones_uniform_is_fixed(self):
        g = build_fig3()
        m = spa.uniform_messages(g)
        new, info = spa.spa_step(g, m)
        assert not info.degenerate_edges
        assert spa.residual(new, m) == 0.0

    def test_power_trap_known_fixed_point(self):
        g = power_trap_graph()
        m = power_trap_fixed_point()
        assert spa.fixed_point_residual(g, m) == 0.0
        z_e = spa.edge_normalizers(g, m)
        assert z_e["e1"] == 0.0 and z_e["e2"] == 0.0

    def test_power_trap_convergence_from_uniform(self):
        # the update map contracts only algebraically here, so check the
        # trend rather than a tight tolerance
        g = power_trap_graph()
        target = power_trap_fixed_point()
        m = spa.uniform_messages(g)
        distances = []
        for it in range(3000):
            m, _ = spa.spa_step(g, m)
            if it % 1000 == 999:
                distances.append(spa.residual(m, target))
        assert distances[-1] < 2e-3
        assert distances[0] > distances[1] > distances[2]

    def test_degenerate_edge_reinitializes(self):
        # feeding the vanishing-overlap fixed point through the full step
        # (overlap kappa_e = 0) must trigger the randomized restart of all
        # messages incident to the edge's endpoints
        g = power_trap_graph()
        m = power_trap_fixed_point()
        rng = np.random.default_rng(5)
        new, info = spa.spa_step(g, m, rng=rng)
        assert set(info.degenerate_edges) == {"e1", "e2"}
        for key, vec in new.data.items():
            assert np.sum(vec) == pytest.approx(1.0)
            assert np.all(vec.real >= 0.0)
            assert spa.residual(spa.MessageVector({key: vec}),
                                spa.MessageVector({key: m[key]})) > 0.01

    def test_unitary_chain_bethe_equals_partition(self):
        g = gen(GeneratorSpec(topology="unitary-chain", seed=2))
        rep = spa.spa_run(g, restarts=1)
        assert rep.converged
        z = nfg.partition_exact(g)
        assert abs(rep.zb_spa - z) / abs(z) < 1e-6

    def test_double_edge_messages_and_beliefs_stay_psd(self):
        g = fig3_psd(1)
        m = spa.uniform_messages(g)
        for it in range(30):
            m, _ = spa.spa_step(g, m)
            for (eid, _node), vec in m.data.items():
                base = g.edge(eid).alphabet
                assert min_choi_eigenvalue(vec, base) >= -1e-9
            if it % 10 == 0:
                b = spa.beliefs_at(g, m)
                for eid, vec in b.edge.items():
                    base = g.edge(eid).alphabet
                    assert min_choi_eigenvalue(vec, base) >= -1e-9
                for idx, name in enumerate(g.node_names):
                    bases = [g.edge(eid).alphabet
                             for eid in g.incidences[idx]]
                    c = choi_from_paired(b.node[name], bases)
                    vals = np.linalg.eigvalsh((c + c.conj().T) / 2)
                    assert vals[0] >= -1e-9


class TestRun:
    def test_all_ones_fig3_closed_form(self):
        # with uniform messages every node sum is 1 and every edge
        # overlap is 1/2, so the Bethe value is 2**|E| = 32
        g = build_fig3()
        rep = spa.spa_run(g, restarts=1)
        assert rep.converged
        for v in rep.z_f.values():
            assert v == pytest.approx(1.0)
        for v in rep.z_e.values():
            assert v == pytest.approx(0.5)
        assert rep.zb_spa == pytest.approx(32.0)

    def test_tree_standard_exact(self):
        for seed in range(5):
            g = gen(GeneratorSpec(topology="tree", kind="standard",
                                  ensemble="positive-s-nfg", n=5,
                                  seed=seed))
            rep = spa.spa_run(g, restarts=1)
            assert rep.converged
            z = nfg.partition_exact(g)
            assert abs(rep.zb_spa - z) / abs(z) < 1e-9

    def test_tree_double_edge_exact(self):
        for seed in range(10):
            g = random_tree_de(seed, n=2 + seed % 5)
            rep = spa.spa_run(g, restarts=1)
            assert rep.converged
            z = nfg.partition_exact(g)
            assert abs(rep.zb_spa - z) / abs(z) < 1e-6

    def test_positive_definite_choi_gives_positive_normalizers(self):
        g = fig3_psd(4)
        rep = spa.spa_run(g, restarts=2)
        assert rep.converged
        for v in rep.z_f.values():
            assert abs(v.imag) <= 1e-9 and v.real > 0.0
        for v in rep.z_e.values():
            assert abs(v.imag) <= 1e-9 and v.real > 0.0

    def test_converged_residual_bound(self):
        g = fig3_psd(6)
        rep = spa.spa_run(g, restarts=1, tol_fp=1e-11)
        assert rep.converged
        assert rep.residual <= 1e-11
        assert spa.fixed_point_residual(g, rep.messages) <= 1e-9

    def test_scaling_invariance(self):
        g = fig3_psd(9)
        rep = spa.spa_run(g, restarts=1)
        key = ("e2", g.edge("e2").head)
        scaled = rep.messages.scaled(key, 0.37 - 1.9j)
        z_f = spa.node_normalizers(g, scaled)
        z_e = spa.edge_normalizers(g, scaled)
        zb = spa.bethe_partition_value(z_f, z_e)
        assert abs(zb - rep.zb_spa) / abs(rep.zb_spa) < 1e-10

    def test_oscillation_fallback_damping(self):
        # a swap function makes the undamped parallel update oscillate
        # with period two from a generic start
        g = two_cycle(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        rep = spa.spa_run(g, init="seeded-random", restarts=1, seed=3)
        assert rep.converged
        assert rep.damping_used == 0.5

    def test_non_convergence_reported_not_raised(self):
        g = fig3_psd(3)
        rep = spa.spa_run(g, restarts=2, max_iter=2)
        assert not rep.converged
        assert rep.zb_spa is None
        assert rep.z_f is None

    def test_restart_bookkeeping(self):
        g = fig3_psd(3)
        rep = spa.spa_run(g, restarts=3)
        assert rep.restarts_used == 3
        assert rep.restarts_converged == 3

    def test_degenerate_events_are_logged(self):
        # the zero row / zero column pair drives both edge overlaps to
        # exact zero after one sweep, forcing repeated reinitialization
        g = two_cycle(np.array([[0.0, 0.0], [1.0, 1.0]]),
                      np.array([[1.0, 0.0], [0.0, 0.0]]))
        rep = spa.spa_run(g, restarts=1, max_iter=40)
        assert rep.degenerate_events > 0
        restart, iteration, eid = rep.degenerate_log[0]
        assert restart == 0 and iteration >= 1 and eid in ("e1", "e2")


class TestBeliefs:
    def test_uniform(self):
        g = build_fig3()
        b = spa.beliefs_at(g, spa.uniform_messages(g))
        for vec in b.edge.values():
            assert np.allclose(vec, 0.5)
        for t in b.node.values():
            assert np.allclose(t, 1.0 / t.size)

    @pytest.mark.parametrize("kind,ensemble", [
        ("standard", "positive-s-nfg"), ("double-edge", "psd-random")])
    def test_consistency_at_fixed_point(self, kind, ensemble):
        g = gen(GeneratorSpec(topology="fig3", kind=kind,
                              ensemble=ensemble, seed=8))
        rep = spa.spa_run(g, restarts=1, tol_fp=1e-12)
        b = spa.beliefs_at(g, rep.messages)
        assert spa.consistency_defect(g, b) <= 1e-8

    def test_unitary_chain_node_beliefs_psd(self):
        g = gen(GeneratorSpec(topology="unitary-chain", seed=6))
        rep = spa.spa_run(g, restarts=1)
        b = spa.beliefs_at(g, rep.messages)
        for idx, name in enumerate(g.node_names):
            bases = [g.edge(eid).alphabet for eid in g.incidences[idx]]
            c = choi_from_paired(b.node[name], bases)
            vals = np.linalg.eigvalsh((c + c.conj().T) / 2)
            assert vals[0] >= -1e-9

    def test_degenerate_normalizer_raises(self):
        g = power_trap_graph()
        with pytest.raises(DegenerateBeliefError, match="e1"):
            spa.beliefs_at(g, power_trap_fixed_point())


class TestBetheFreeEnergy:
    def test_power_trap_zero_on_consistent_beliefs(self):
        # any distribution over the two valid configurations gives
        # F_B = 0, hence a Bethe partition value of exactly 1
        g = power_trap_graph()
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.uniform(0.05, 0.95)
            b = spa.beliefs_from_configuration_weights(
                g, {(("e1", 0), ("e2", 0)): p,
                    (("e1", 1), ("e2", 1)): 1.0 - p})
            f = spa.bethe_free_energy(g, b)
            assert abs(f) <= 1e-9
            assert np.exp(-f) == pytest.approx(1.0)

    def test_all_ones_two_cycle_uniform(self):
        # hand evaluation: zero energy, node entropies log 4, edge
        # entropies log 2, so F_B = -log 4 and exp(-F_B) = Z = 4
        g = two_cycle(np.ones((2, 2)), np.ones((2, 2)))
        b = spa.beliefs_at(g, spa.uniform_messages(g))
        f = spa.bethe_free_energy(g, b)
        assert f == pytest.approx(-np.log(4.0))
        assert np.exp(-f) == pytest.approx(4.0)
        assert np.exp(-f) == pytest.approx(nfg.partition_exact(g).real)

    def test_matches_bethe_value_at_interior_fixed_point(self):
        for seed in range(4):
            g = gen(GeneratorSpec(topology="fig3", kind="standard",
                                  ensemble="positive-s-nfg", seed=seed))
            rep = spa.spa_run(g, restarts=1, tol_fp=1e-12)
            b = spa.beliefs_at(g, rep.messages)
            f = spa.bethe_free_energy(g, b)
            assert np.exp(-f) == pytest.approx(rep.zb_spa.real, rel=1e-6)

    def test_divergence_guard(self):
        g = power_trap_graph()
        # mass on the zero of f1 at (1, 0)
        b = spa.beliefs_from_configuration_weights(
            g, {(("e1", 1), ("e2", 0)): 1.0})
        assert spa.bethe_free_energy(g, b) == float("inf")

    def test_double_edge_rejected(self):
        g = fig3_psd(0)
        m = spa.uniform_messages(g)
        b = spa.beliefs_at(g, m)
        with pytest.raises(ValidationError):
            spa.bethe_free_energy(g, b)

    def test_inconsistent_beliefs_rejected(self):
        g = build_fig3()
        b = spa.beliefs_at(g, spa.uniform_messages(g))
        b.edge["e1"] = np.array([0.9, 0.1], dtype=np.complex128)
        with pytest.raises(ValidationError, match="consistency"):
            spa.bethe_free_energy(g, b)


def test_beliefs_from_weights_are_consistent():
    g = fig3_psd(2)
    rng = np.random.default_rng(1)
    weights = {}
    for _ in range(6):
        cfg = tuple((e.eid, (int(rng.integers(0, 2)),
                             int(rng.integers(0, 2))))
                    for e in g.edges)
        weights[cfg] = float(rng.uniform(0.1, 1.0))
    b = spa.beliefs_from_configuration_weights(g, weights)
    assert spa.consistency_defect(g, b) <= 1e-12
    for vec in b.edge.values():
        assert np.sum(vec).real == pytest.approx(1.0)
