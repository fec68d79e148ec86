"""Sum-product iteration, fixed points, beliefs, Bethe free energy."""

import string

import numpy as np
import pytest

from bethecover import config, nfg, spa
from bethecover.errors import (DegenerateBeliefError, StructuralError,
                               ValidationError)
from bethecover.generators import GeneratorSpec, gen
from bethecover.tensor import choi_from_paired

from conftest import (build_fig3, fig3_psd, graph_with_choi,
                      power_trap_fixed_point, power_trap_graph, random_choi,
                      random_tree_de, two_cycle)
from oracles import (beliefs_from_configuration_weights, fixed_point_residual,
                     residual)


def min_choi_eigenvalue(vec, base):
    c = np.asarray(vec).reshape(base, base)
    return float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0])


def oracle_raw_updates(g, m):
    """One einsum per directed message: the sweep the batched node groups
    of :func:`spa.raw_updates` replace, kept as their oracle."""
    raw, kappa = {}, {}
    for k in range(g.n_nodes):
        incident = g.incidences[k]
        subs = string.ascii_letters[:len(incident)]
        msgs = [m[(eid, k)] for eid in incident]
        for a, eid in enumerate(incident):
            rest = [b for b in range(len(incident)) if b != a]
            expr = subs + "".join("," + subs[b] for b in rest) + "->" + subs[a]
            vec = np.einsum(expr, g.tensors[k], *[msgs[b] for b in rest])
            key = (eid, g.other_endpoint(eid, k))
            raw[key] = vec
            kappa[key] = complex(vec.sum())
    return raw, kappa


def oracle_node_sums(g, m):
    out = []
    for k in range(g.n_nodes):
        subs = string.ascii_letters[:g.degree(k)]
        expr = subs + "".join("," + c for c in subs) + "->"
        msgs = [m[(eid, k)] for eid in g.incidences[k]]
        out.append(complex(np.einsum(expr, g.tensors[k], *msgs)))
    return out


def oracle_step(g, m, rng=None, damping=0.0):
    """The per-message :func:`spa.spa_step`: messages (a dict),
    map residual and degenerate edges."""
    tol_zero = config.TOLS.zero
    raw, kappa = oracle_raw_updates(g, m)
    new = {key: (vec / kappa[key] if abs(kappa[key]) > tol_zero
                 else m[key].copy()) for key, vec in raw.items()}
    map_residual = max((float(np.max(np.abs(new[key] - m[key])))
                        for key in new), default=0.0)
    kappa_node = oracle_node_sums(g, new)
    degenerate = []
    for e in g.edges:
        overlap = complex(np.sum(new[(e.eid, e.head)] * new[(e.eid, e.tail)]))
        prod = (kappa[(e.eid, e.head)] * kappa[(e.eid, e.tail)] * overlap
                * kappa_node[e.head] * kappa_node[e.tail])
        if abs(prod) <= tol_zero:
            degenerate.append(e.eid)
    reinit = sorted({(other, node) for e in map(g.edge, degenerate)
                     for node in (e.head, e.tail)
                     for other in g.incidences[node]})
    for key in reinit:
        new[key] = spa.random_message(g, key[0], rng)
    if reinit:
        map_residual = float("inf")
    if damping:
        for key in new:
            if key not in reinit:
                new[key] = (1.0 - damping) * new[key] + damping * m[key]
    return new, map_residual, degenerate


def with_isolated_node(g):
    """``g`` plus one node without edges."""
    return nfg.make_graph(
        g.kind,
        [(name, g.incidences[k]) for k, name in enumerate(g.node_names)]
        + [("iso", [])],
        [(e.eid, (g.node_names[e.head], g.node_names[e.tail]), e.alphabet)
         for e in g.edges],
        {**dict(zip(g.node_names, g.tensors)), "iso": np.array(1.5)})


def mixed_alphabet_graph(kind, seed):
    """A triangle with edge alphabets 2, 3 and 2."""
    rng = np.random.default_rng(seed)
    nodes = [("f1", ["e1", "e3"]), ("f2", ["e1", "e2"]),
             ("f3", ["e2", "e3"])]
    edges = [("e1", ("f1", "f2"), 2), ("e2", ("f2", "f3"), 3),
             ("e3", ("f3", "f1"), 2)]
    alpha = {eid: a for eid, _, a in edges}
    if kind == "standard":
        return nfg.make_graph(kind, nodes, edges, {
            name: rng.uniform(0.1, 1.0, [alpha[e] for e in inc])
            for name, inc in nodes})
    return graph_with_choi(nodes, edges, {
        name: random_choi(int(np.prod([alpha[e] for e in inc])), rng)
        for name, inc in nodes})


def oracle_graphs():
    """(graph, all axis sizes equal) pairs over both kinds."""
    out = []
    for kind, ens in (("standard", "positive-s-nfg"),
                      ("double-edge", "psd-random")):
        for topo in ("fig3", "fig-b"):
            out.append((gen(GeneratorSpec(topology=topo, kind=kind,
                                          ensemble=ens, seed=4)), True))
        tree = gen(GeneratorSpec(topology="tree", kind=kind, ensemble=ens,
                                 n=5, seed=2))
        out += [(tree, True), (with_isolated_node(tree), True),
                (gen(GeneratorSpec(topology="cycle", kind=kind,
                                   ensemble=ens, n=2, seed=3)), True),
                (mixed_alphabet_graph(kind, 1), False)]
    return out


class TestBatchedSweep:
    @pytest.mark.parametrize("damping", [0.0, 0.5])
    def test_step_matches_per_message_oracle(self, damping):
        for g, equal_sizes in oracle_graphs():
            m = spa.random_messages(g, np.random.default_rng(7))
            new, info = spa.spa_step(g, m, damping=damping)
            want, residual, degenerate = oracle_step(g, m, damping=damping)
            assert info.degenerate_edges == degenerate == []
            assert list(new) == g.directed_keys()
            for key in want:
                if equal_sizes:
                    assert np.array_equal(new[key], want[key]), key
                else:
                    assert np.allclose(new[key], want[key], rtol=1e-14,
                                       atol=0.0), key
            if equal_sizes:
                assert info.map_residual == residual
            else:
                assert info.map_residual == pytest.approx(residual,
                                                          rel=1e-14)

    def test_reinitialization_matches_oracle(self):
        g = power_trap_graph()
        m = power_trap_fixed_point(g)
        new, info = spa.spa_step(g, m, rng=np.random.default_rng(5))
        want, residual, degenerate = oracle_step(
            g, m, rng=np.random.default_rng(5))
        assert info.degenerate_edges == degenerate == ["e1", "e2"]
        assert info.map_residual == residual == float("inf")
        for key in want:
            assert np.array_equal(new[key], want[key]), key

    def test_node_sum_degeneracy_matches_oracle(self):
        # a path a - b - c whose middle node sums to zero against the
        # updated messages while every message normalizer and edge
        # overlap stays nonzero: only the node factor flags the edges
        g = nfg.make_graph(
            "standard", [("a", ["e1"]), ("b", ["e1", "e2"]), ("c", ["e2"])],
            [("e1", ("a", "b"), 2), ("e2", ("b", "c"), 2)],
            {"a": np.ones(2), "b": np.array([[1.0, 1.0], [1.0, -3.0]]),
             "c": np.ones(2)}, weak_sense=True)
        m = spa.messages(g, {
            ("e1", 0): np.array([0.5, 0.5]), ("e1", 1): np.array([0.8, 0.2]),
            ("e2", 1): np.array([0.8, 0.2]), ("e2", 2): np.array([0.5, 0.5])})
        new, info = spa.spa_step(g, m, rng=np.random.default_rng(2))
        want, _residual, degenerate = oracle_step(
            g, m, rng=np.random.default_rng(2))
        assert info.degenerate_edges == degenerate == ["e1", "e2"]
        for key in want:
            assert np.array_equal(new[key], want[key]), key

    def test_raw_updates_match_oracle(self):
        for g, _equal in oracle_graphs():
            m = spa.random_messages(g, np.random.default_rng(3))
            raw, kappa = spa.raw_updates(g, m)
            want, want_kappa = oracle_raw_updates(g, m)
            for r, key in enumerate(raw):
                assert np.allclose(raw[key], want[key], rtol=1e-14, atol=0)
                assert kappa[r] == pytest.approx(want_kappa[key], rel=1e-14)

    def test_message_vector_from_dict(self):
        # a dict in any key order is laid out in the plan's key order
        g = power_trap_graph()
        m = power_trap_fixed_point(g)
        shuffled = {k: m[k] for k in reversed(g.directed_keys())}
        laid_out = spa.messages(g, shuffled)
        assert list(m) == list(laid_out) == g.directed_keys()
        assert fixed_point_residual(g, m) == \
            fixed_point_residual(g, laid_out) == 0.0
        assert residual(m, laid_out) == 0.0
        assert m[("e1", 0)].tolist() == [0, 1]
        with pytest.raises(ValueError):
            m[("e1", 0)][0] = 1.0
        with pytest.raises(ValueError):
            m.rows[0, 0] = 1.0
        # a missing key, an extra key or a wrong length is refused
        with pytest.raises(StructuralError, match="missing"):
            spa.messages(g, {k: m[k] for k in g.directed_keys()[1:]})
        with pytest.raises(StructuralError, match="extra"):
            spa.messages(g, {**shuffled, ("e1", 5): np.ones(2)})
        with pytest.raises(StructuralError, match="shape"):
            spa.messages(g, {**shuffled, ("e1", 0): np.ones(3)})
        # a vector of another layout is refused, not relaid
        other = spa.uniform_messages(build_fig3())
        with pytest.raises(StructuralError, match="directed keys"):
            spa.node_normalizers(g, other)

    def test_graph_without_edges(self):
        g = nfg.make_graph("double-edge", [("a", []), ("b", [])], [],
                           {"a": np.array(2.0), "b": np.array(1.5)})
        rep = spa.spa_run(g)
        assert rep.converged and rep.iterations == 1
        assert rep.residual == 0.0
        assert rep.zb_spa == 3.0 and rep.z_e == {}


class TestStep:
    def test_all_ones_uniform_is_fixed(self):
        g = build_fig3()
        m = spa.uniform_messages(g)
        new, info = spa.spa_step(g, m)
        assert not info.degenerate_edges
        assert residual(new, m) == 0.0

    def test_power_trap_known_fixed_point(self):
        g = power_trap_graph()
        m = power_trap_fixed_point(g)
        assert fixed_point_residual(g, m) == 0.0
        z_e = spa.edge_normalizers(g, m)
        assert z_e["e1"] == 0.0 and z_e["e2"] == 0.0

    def test_power_trap_convergence_from_uniform(self):
        # the update map contracts only algebraically here, so check the
        # trend rather than a tight tolerance
        g = power_trap_graph()
        target = power_trap_fixed_point(g)
        m = spa.uniform_messages(g)
        distances = []
        for it in range(3000):
            m, _ = spa.spa_step(g, m)
            if it % 1000 == 999:
                distances.append(residual(m, target))
        assert distances[-1] < 2e-3
        assert distances[0] > distances[1] > distances[2]

    def test_degenerate_edge_reinitializes(self):
        # feeding the vanishing-overlap fixed point through the full step
        # (overlap kappa_e = 0) must trigger the randomized restart of all
        # messages incident to the edge's endpoints
        g = power_trap_graph()
        m = power_trap_fixed_point(g)
        rng = np.random.default_rng(5)
        new, info = spa.spa_step(g, m, rng=rng)
        assert set(info.degenerate_edges) == {"e1", "e2"}
        for key in new:
            vec = new[key]
            assert np.sum(vec) == pytest.approx(1.0)
            assert np.all(vec.real >= 0.0)
            assert np.max(np.abs(vec - m[key])) > 0.01

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
            for eid, node in m:
                base = g.edge(eid).alphabet
                assert min_choi_eigenvalue(m[(eid, node)], base) >= -1e-9
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
        assert fixed_point_residual(g, rep.messages) <= 1e-9

    def test_scaling_invariance(self):
        g = fig3_psd(9)
        rep = spa.spa_run(g, restarts=1)
        key = ("e2", g.edge("e2").head)
        scaled = spa.messages(g, {
            k: rep.messages[k] * (0.37 - 1.9j if k == key else 1.0)
            for k in rep.messages})
        z_f = spa.node_normalizers(g, scaled)
        z_e = spa.edge_normalizers(g, scaled)
        zb = spa.bethe_partition_value(z_f, z_e)
        assert abs(zb - rep.zb_spa) / abs(rep.zb_spa) < 1e-10

    def test_factors_on_the_local_functions_change_no_decision(self):
        # judged in absolute terms, the degeneracy product of the edges at
        # the 1e-6 node would fall below the zero tolerance
        g = fig3_psd(0)
        factors = [1e-3, 1.0, 1e-6, 1e2]
        scaled = g.with_tensors([c * t for c, t in zip(factors, g.tensors)])
        rep = spa.spa_run(g, restarts=1)
        rep_scaled = spa.spa_run(scaled, restarts=1)
        assert rep_scaled.converged and rep_scaled.degenerate_events == 0
        assert rep_scaled.iterations == rep.iterations
        assert np.max(np.abs(rep_scaled.messages.rows
                             - rep.messages.rows)) < 1e-12
        assert rep_scaled.zb_spa == pytest.approx(
            rep.zb_spa * np.prod(factors), rel=1e-12)

    def test_oscillation_fallback_damping(self):
        # a swap function makes the undamped parallel update oscillate
        # with period two from a generic start
        g = two_cycle(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        rep = spa.spa_run(g, init="seeded-random", restarts=1, seed=3)
        assert rep.converged
        assert rep.damping_used == 0.5

    def test_one_keyword_step_call_per_iteration(self, monkeypatch):
        # a tracer that wraps spa.spa_step counts sweeps and reads the
        # damping switch off the rng= and damping= keywords of each call
        calls = []
        step = spa.spa_step

        def wrapper(*args, **kwargs):
            new, info = step(*args, **kwargs)
            calls.append((len(args), sorted(kwargs), kwargs["rng"],
                          kwargs["damping"], info.map_residual))
            return new, info

        monkeypatch.setattr(spa, "spa_step", wrapper)
        g = two_cycle(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        rep = spa.spa_run(g, init="seeded-random", restarts=3, seed=3)
        assert rep.restarts_converged == 3 and rep.damping_used == 0.5
        assert all(c[:2] == (2, ["damping", "rng"]) for c in calls)
        runs = {}
        for call in calls:
            runs.setdefault(id(call[2]), []).append(call)
        assert len(runs) == 3
        tol = config.TOLS.fixed_point
        switched = 0
        for run in runs.values():
            # a run stops at its first converged sweep
            assert [c[4] <= tol for c in run] == [False] * (len(run) - 1) \
                + [True]
            damping = [c[3] for c in run]
            assert damping == sorted(damping)
            switched += damping[-1] > damping[0]
        assert switched >= 1
        assert rep.iterations in [len(run) for run in runs.values()]

    def test_unknown_init_refused(self):
        with pytest.raises(StructuralError, match="init"):
            spa.spa_run(build_fig3(), init="Uniform")

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
            spa.beliefs_at(g, power_trap_fixed_point(g))


class TestBetheFreeEnergy:
    def test_power_trap_zero_on_consistent_beliefs(self):
        # any distribution over the two valid configurations gives
        # F_B = 0, hence a Bethe partition value of exactly 1
        g = power_trap_graph()
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.uniform(0.05, 0.95)
            b = beliefs_from_configuration_weights(
                g, {(0, 0): p, (1, 1): 1.0 - p})
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
        b = beliefs_from_configuration_weights(g, {(1, 0): 1.0})
        assert spa.bethe_free_energy(g, b) == float("inf")

    def test_double_edge_rejected(self):
        g = fig3_psd(0)
        m = spa.uniform_messages(g)
        b = spa.beliefs_at(g, m)
        with pytest.raises(ValidationError):
            spa.bethe_free_energy(g, b)

    @pytest.mark.parametrize("part, key, what", [
        ("node", "f2", "node belief 'f2'"), ("edge", "e3", "edge belief 'e3'")])
    @pytest.mark.parametrize("entry", [0.5 + 0.1j, -0.2, 0.7])
    def test_non_pmf_beliefs_rejected(self, part, key, what, entry):
        # an imaginary part, a negative entry or a total other than one
        g = build_fig3()
        b = spa.beliefs_at(g, spa.uniform_messages(g))
        beliefs = getattr(b, part)
        p = beliefs[key].copy()
        p.reshape(-1)[0] = entry
        beliefs[key] = p
        with pytest.raises(ValidationError, match=f"{what} is not a pmf"):
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
        # the pair (x, x') of a binary double edge has axis index 2x + x'
        cfg = tuple(2 * int(rng.integers(0, 2)) + int(rng.integers(0, 2))
                    for _ in g.edges)
        weights[cfg] = float(rng.uniform(0.1, 1.0))
    b = beliefs_from_configuration_weights(g, weights)
    assert spa.consistency_defect(g, b) <= 1e-12
    for vec in b.edge.values():
        assert np.sum(vec).real == pytest.approx(1.0)
