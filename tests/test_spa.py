"""Sum-product iteration, fixed points, and the beliefs and Bethe free
energy of its messages (through the reference routes of ``oracles``)."""

import string

import numpy as np
import pytest

from bethecover import nfg, spa
from bethecover.errors import StructuralError, ValidationError
from bethecover.generators import GeneratorSpec, gen
from bethecover.tensor import choi_from_paired

from conftest import (build_fig3, fig3_psd, graph_with_choi,
                      power_trap_fixed_point, power_trap_graph, random_choi,
                      random_tree_de, two_cycle)
import oracles
from oracles import (as_double_edge, beliefs_at, bethe_free_energy,
                     beliefs_from_configuration_weights, consistency_defect,
                     enum_configs, every_degree_graph, fixed_point_residual,
                     message_keys, random_message, random_messages, residual,
                     sequential_spa_run)


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
        msgs = [m[(i, k)] for i in incident]
        for a, i in enumerate(incident):
            rest = [b for b in range(len(incident)) if b != a]
            expr = subs + "".join("," + subs[b] for b in rest) + "->" + subs[a]
            vec = np.einsum(expr, g.tensors[k], *[msgs[b] for b in rest])
            e = g.edges[i]
            key = (i, e.tail if k == e.head else e.head)
            raw[key] = vec
            kappa[key] = complex(vec.sum())
    return raw, kappa


def oracle_node_sums(g, m):
    out = []
    for k in range(g.n_nodes):
        subs = string.ascii_letters[:g.degree(k)]
        expr = subs + "".join("," + c for c in subs) + "->"
        msgs = [m[(i, k)] for i in g.incidences[k]]
        out.append(complex(np.einsum(expr, g.tensors[k], *msgs)))
    return out


def oracle_step(g, m, rng=None, damping=0.0):
    """The per-message :func:`spa.spa_step`: messages (a dict),
    map residual and degenerate edges."""
    tol_zero = spa.ZERO_TOL
    raw, kappa = oracle_raw_updates(g, m)
    new = {key: (vec / kappa[key] if abs(kappa[key]) > tol_zero
                 else m[key].copy()) for key, vec in raw.items()}
    map_residual = max((float(np.max(np.abs(new[key] - m[key])))
                        for key in new), default=0.0)
    kappa_node = oracle_node_sums(g, new)
    degenerate = []
    for i, e in enumerate(g.edges):
        overlap = complex(np.sum(new[(i, e.head)] * new[(i, e.tail)]))
        prod = (kappa[(i, e.head)] * kappa[(i, e.tail)] * overlap
                * kappa_node[e.head] * kappa_node[e.tail])
        if abs(prod) <= tol_zero:
            degenerate.append(i)
    reinit = sorted({(other, node) for i in degenerate
                     for node in (g.edges[i].head, g.edges[i].tail)
                     for other in g.incidences[node]})
    for key in reinit:
        new[key] = random_message(g, key[0], rng)
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
        [(name, [g.edges[i].eid for i in g.incidences[k]])
         for k, name in enumerate(g.node_names)]
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
    """Graphs of both kinds, one with mixed alphabets."""
    out = []
    for kind, ens in (("standard", "positive-s-nfg"),
                      ("double-edge", "psd-random")):
        for topo in ("fig3", "fig-b"):
            out.append(gen(GeneratorSpec(topology=topo, kind=kind,
                                         ensemble=ens, seed=4)))
        tree = gen(GeneratorSpec(topology="tree", kind=kind, ensemble=ens,
                                 n=5, seed=2))
        out += [tree, with_isolated_node(tree),
                gen(GeneratorSpec(topology="cycle", kind=kind, ensemble=ens,
                                  n=2, seed=3)),
                mixed_alphabet_graph(kind, 1)]
    return out


class _Stream:
    """A stand-in for ``np.random.Generator`` that hands out a fixed list
    of doubles in order, as ``random`` and ``uniform`` do one per entry;
    ``state`` is the position in the list."""

    def __init__(self, doubles):
        self.doubles = np.asarray(doubles, dtype=np.float64)
        self.state = 0

    def random(self, size=None):
        count = int(np.prod(size))
        doubles = self.doubles[self.state:self.state + count]
        assert doubles.size == count, "the stream ran out"
        self.state += count
        return doubles.reshape(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + (high - low) * self.random(size)


def draw_graphs():
    """Graphs for the start draws: fig3, fig-b and a 4-cycle at
    alphabets 2-4 in both kinds, and the mixed-alphabet triangles."""
    out = [mixed_alphabet_graph(kind, 3) for kind in ("standard",
                                                      "double-edge")]
    for kind, ens in (("standard", "positive-s-nfg"),
                      ("double-edge", "psd-random")):
        for topo in ("fig3", "fig-b", "cycle"):
            for alphabet in (2, 3, 4):
                out.append(gen(GeneratorSpec(
                    topology=topo, kind=kind, ensemble=ens, n=4,
                    alphabet=alphabet, seed=alphabet)))
    return out


def assert_draws_match_oracle(g, seed, restarts=5):
    """The stacked draw at every key equals one oracle draw per message,
    bit for bit, and leaves every rng where the oracle leaves it."""
    plan = spa._plan(g)
    rngs = [np.random.default_rng([seed, r]) for r in range(restarts)]
    got = spa._draw(g, plan, plan.keys, rngs)
    for r, rng in enumerate(rngs):
        oracle_rng = np.random.default_rng([seed, r])
        want = random_messages(g, oracle_rng).rows
        assert got[r].tobytes() == want.tobytes(), r
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def count_refusals(monkeypatch):
    """A list that gains one entry per attempt the oracle refuses."""
    refused = []
    project = oracles.psd_project

    def counted(vec, base):
        out = project(vec, base)
        if out is None:
            refused.append(base)
        return out

    monkeypatch.setattr(oracles, "psd_project", counted)
    return refused


class TestStartDraws:
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_one_draw_per_message(self, seed):
        for g in draw_graphs():
            assert_draws_match_oracle(g, seed)

    def test_refused_attempts_are_skipped_as_one_at_a_time(self,
                                                           monkeypatch):
        refused = count_refusals(monkeypatch)
        assert_draws_match_oracle(fig3_psd(1), 0, restarts=8)
        assert refused

    def test_a_start_that_falls_short_draws_more(self, monkeypatch):
        # the first round draws one attempt per message; every start with
        # a refusal comes up short and draws its deficit again.  All
        # rounds draw the messages plus the oracle's refusals; as every
        # rng ends where its oracle does, without a rewind, each one
        # draws its own messages plus its own refusals, none more
        refused = count_refusals(monkeypatch)
        rounds = []
        project = spa._psd_project

        def counted(attempts, n):
            rounds.append(len(attempts))
            return project(attempts, n)

        monkeypatch.setattr(spa, "_psd_project", counted)
        assert_draws_match_oracle(fig3_psd(1), 0, restarts=8)
        assert refused and len(rounds) > 1 and rounds[0] == 8 * 10
        assert sum(rounds) == 8 * 10 + len(refused)

    @pytest.mark.parametrize("refusals, fails", [(63, False), (64, True)])
    def test_sixty_four_refusals_in_a_row_give_up(self, refusals, fails):
        # a zero attempt projects to the zero matrix, which is refused;
        # the third message of a fig3 start meets ``refusals`` of them,
        # between attempts that are all accepted
        g = fig3_psd(1)
        plan = spa._plan(g)
        live = np.random.default_rng(4).random((40, 8))
        live = live[spa._psd_project(live, 2)[1]].reshape(-1)
        doubles = np.concatenate((live[:2 * 8], np.zeros(refusals * 8),
                                  live[2 * 8:]))
        stream, oracle_stream = _Stream(doubles), _Stream(doubles)
        if fails:
            for draw in (lambda: spa._draw(g, plan, plan.keys, [stream]),
                         lambda: random_messages(g, oracle_stream)):
                with pytest.raises(RuntimeError, match="^could not draw a "
                                   "normalizable random message$"):
                    draw()
            return
        got = spa._draw(g, plan, plan.keys, [stream])[0]
        assert got.tobytes() == random_messages(g, oracle_stream).rows \
            .tobytes()
        assert stream.state == oracle_stream.state > refusals * 8


class TestBatchedSweep:
    @pytest.mark.parametrize("damping", [0.0, 0.5])
    def test_step_matches_per_message_oracle(self, damping):
        for g in oracle_graphs():
            m = random_messages(g, np.random.default_rng(7))
            new, info = spa.spa_step(g, m, damping=damping)
            want, residual, degenerate = oracle_step(g, m, damping=damping)
            assert info.degenerate_edges == degenerate == []
            assert new.plan.keys == tuple(message_keys(g))
            for key in want:
                assert np.allclose(new[key], want[key], rtol=1e-14,
                                   atol=0.0), key
            assert info.map_residual == pytest.approx(residual, rel=1e-14)

    def test_reinitialization_matches_oracle(self):
        g = power_trap_graph()
        m = power_trap_fixed_point(g)
        # the same trap with diagonal matrices: the overlaps vanish too
        de = as_double_edge(g)
        traps = [(g, m), (de, spa.messages(de, {
            key: np.diag(m[key]).reshape(-1) for key in message_keys(g)}))]
        for g, m in traps:
            rng, oracle_rng = (np.random.default_rng(5),
                               np.random.default_rng(5))
            new, info = spa.spa_step(g, m, rng=rng)
            want, residual, degenerate = oracle_step(g, m, rng=oracle_rng)
            assert info.degenerate_edges == degenerate == [0, 1]
            assert info.map_residual == residual == float("inf")
            for key in want:
                assert np.array_equal(new[key], want[key]), key
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

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
            (0, 0): np.array([0.5, 0.5]), (0, 1): np.array([0.8, 0.2]),
            (1, 1): np.array([0.8, 0.2]), (1, 2): np.array([0.5, 0.5])})
        new, info = spa.spa_step(g, m, rng=np.random.default_rng(2))
        want, _residual, degenerate = oracle_step(
            g, m, rng=np.random.default_rng(2))
        assert info.degenerate_edges == degenerate == [0, 1]
        for key in want:
            assert np.array_equal(new[key], want[key]), key

    def test_raw_updates_match_oracle(self):
        for g in oracle_graphs():
            m = random_messages(g, np.random.default_rng(3))
            raw, kappa = spa.raw_updates(g, m)
            want, want_kappa = oracle_raw_updates(g, m)
            for r, key in enumerate(message_keys(g)):
                assert np.allclose(raw[key], want[key], rtol=1e-14, atol=0)
                assert kappa[r] == pytest.approx(want_kappa[key], rel=1e-14)

    def test_message_vector_from_dict(self):
        # a dict in any key order is laid out in the plan's key order
        g = power_trap_graph()
        m = power_trap_fixed_point(g)
        shuffled = {k: m[k] for k in reversed(message_keys(g))}
        laid_out = spa.messages(g, shuffled)
        assert m.plan.keys == laid_out.plan.keys == tuple(message_keys(g))
        assert fixed_point_residual(g, m) == \
            fixed_point_residual(g, laid_out) == 0.0
        assert residual(m, laid_out) == 0.0
        assert m[(0, 0)].tolist() == [0, 1]
        with pytest.raises(ValueError):
            m[(0, 0)][0] = 1.0
        with pytest.raises(ValueError):
            m.rows[0, 0] = 1.0
        # a missing key, an extra key or a wrong length is refused
        with pytest.raises(StructuralError, match="missing"):
            spa.messages(g, {k: m[k] for k in message_keys(g)[1:]})
        with pytest.raises(StructuralError, match="extra"):
            spa.messages(g, {**shuffled, (0, 5): np.ones(2)})
        with pytest.raises(StructuralError, match="shape"):
            spa.messages(g, {**shuffled, (0, 0): np.ones(3)})
        # a vector of another layout is refused, not relaid
        other = spa.uniform_messages(build_fig3())
        with pytest.raises(StructuralError, match="directed keys"):
            spa.bethe_value(g, other)

    def test_graph_without_edges(self):
        g = nfg.make_graph("double-edge", [("a", []), ("b", [])], [],
                           {"a": np.array(2.0), "b": np.array(1.5)})
        rep = spa.spa_run(g)
        assert rep.converged and rep.iterations == 1
        assert rep.residual == 0.0
        assert rep.zb_spa == 3.0 and rep.z_e == {}


def assert_close(got, want):
    """Equal within 1e-14 of ``want``'s largest modulus: a complex entry
    whose exact value is real carries rounding noise of that size in its
    imaginary part, so no elementwise relative bound holds there."""
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale, (got, want)


class TestGroupKernel:
    """The stacked node groups' matrix-vector chains against one einsum
    per directed message, on messages with 0, 1 and 2 leading axes."""

    @pytest.mark.parametrize("kind", ["standard", "double-edge"])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)],
                             ids=["no-axis", "one-axis", "two-axes"])
    def test_raw_and_node_sums_match_the_per_message_oracle(self, kind,
                                                            lead):
        graphs = [every_degree_graph(kind, 2), mixed_alphabet_graph(kind, 1),
                  gen(GeneratorSpec(
                      topology="fig-b", kind=kind, seed=1,
                      ensemble=("positive-s-nfg" if kind == "standard"
                                else "psd-random")))]
        hub = graphs[0]
        assert {hub.degree(k) for k in range(hub.n_nodes)} == {0, 1, 2, 3, 4}
        for g in graphs:
            plan = spa._plan(g)
            rng = np.random.default_rng(9)
            vectors = [random_messages(g, rng)
                       for _ in range(int(np.prod(lead)))]
            rows = np.stack([m.rows for m in vectors]).reshape(
                lead + (len(plan.keys), plan.width))
            raw = plan.raw(rows)
            sums = plan.node_sums(rows)
            assert raw.shape == rows.shape
            assert sums.shape == lead + (g.n_nodes,)
            raw = raw.reshape(-1, len(plan.keys), plan.width)
            sums = sums.reshape(-1, g.n_nodes)
            for j, m in enumerate(vectors):
                want, _kappa = oracle_raw_updates(g, m)
                for key, vec in want.items():
                    r = plan.index[key]
                    assert_close(raw[j, r, :len(vec)], vec)
                    assert not raw[j, r, len(vec):].any()
                for got, z in zip(sums[j], oracle_node_sums(g, m)):
                    assert_close(got, z)


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
        _z_f, z_e, _zb = spa.bethe_value(g, m)
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
        assert set(info.degenerate_edges) == {0, 1}
        for key in message_keys(g):
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
            for i, node in message_keys(g):
                base = g.edges[i].alphabet
                assert min_choi_eigenvalue(m[(i, node)], base) >= -1e-9
            if it % 10 == 0:
                b = beliefs_at(g, m)
                for e in g.edges:
                    assert min_choi_eigenvalue(b.edge[e.eid],
                                               e.alphabet) >= -1e-9
                for idx, name in enumerate(g.node_names):
                    bases = [g.edges[i].alphabet
                             for i in g.incidences[idx]]
                    c = choi_from_paired(b.node[name], bases)
                    vals = np.linalg.eigvalsh((c + c.conj().T) / 2)
                    assert vals[0] >= -1e-9


def assert_same_report(got, want):
    """Every field of two SPA reports equal, the messages bit for bit."""
    for field in ("converged", "iterations", "residual", "restarts_used",
                  "restarts_converged", "z_f", "z_e", "zb_spa",
                  "degenerate_log", "damping_used", "restart",
                  "damping_switched_at"):
        assert getattr(got, field) == getattr(want, field), field
    assert got.messages.rows.tobytes() == want.messages.rows.tobytes()


def _zero_row_graph():
    return two_cycle(np.array([[0.0, 0.0], [1.0, 1.0]]),
                     np.array([[1.0, 0.0], [0.0, 0.0]]))


def _fig_b_psd(seed):
    return lambda: gen(GeneratorSpec(topology="fig-b", kind="double-edge",
                                     ensemble="psd-random", seed=seed))


def restart_reports(monkeypatch, g, **kwargs):
    """``spa.spa_run(g, **kwargs)`` and the report of each of its
    restarts, the best one among them."""
    batches = []
    run_restarts = spa._restarts

    def recorded(*args):
        batches.append(run_restarts(*args))
        return batches[-1]

    monkeypatch.setattr(spa, "_restarts", recorded)
    rep = spa.spa_run(g, **kwargs)
    [reports] = batches
    return rep, reports


# case: (graph builder, spa_run keywords)
ORACLE_RUNS = {
    **{f"fig3-psd-{seed}": ((lambda seed=seed: fig3_psd(seed)), {})
       for seed in range(4)},
    "fig3-psd-tight": (lambda: fig3_psd(5), dict(restarts=3, tol_fp=1e-12)),
    **{f"fig-b-psd-restarts-{n}": (_fig_b_psd(n), dict(restarts=n, seed=n))
       for n in (1, 2, 8)},
    "fig3-standard": (lambda: gen(GeneratorSpec(
        topology="fig3", kind="standard", ensemble="positive-s-nfg",
        seed=2)), dict(restarts=4)),
    "swap-damping": (lambda: two_cycle(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                       np.eye(2)),
                     dict(restarts=3, seed=3)),
    "zero-row": (_zero_row_graph, dict(restarts=1, max_iter=40)),
    "zero-row-restarts": (_zero_row_graph, dict(restarts=3, max_iter=40)),
    "user-damping": (lambda: fig3_psd(1), dict(restarts=3, damping=0.3)),
    "max-iter-2": (lambda: fig3_psd(3), dict(restarts=2, max_iter=2)),
}


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
        key = (1, g.edges[1].head)   # edge e2
        scaled = spa.messages(g, {
            k: rep.messages[k] * (0.37 - 1.9j if k == key else 1.0)
            for k in message_keys(g)})
        _z_f, _z_e, zb = spa.bethe_value(g, scaled)
        assert abs(zb - rep.zb_spa) / abs(rep.zb_spa) < 1e-10

    def test_factors_on_the_local_functions_change_no_decision(self):
        # judged in absolute terms, the degeneracy product of the edges at
        # the 1e-6 node would fall below the zero tolerance
        g = fig3_psd(0)
        factors = [1e-3, 1.0, 1e-6, 1e2]
        scaled = g.with_tensors([c * t for c, t in zip(factors, g.tensors)],
                                weak_sense=False)
        rep = spa.spa_run(g, restarts=1)
        rep_scaled = spa.spa_run(scaled, restarts=1)
        assert rep_scaled.converged and rep_scaled.degenerate_events == 0
        assert rep_scaled.iterations == rep.iterations
        assert np.max(np.abs(rep_scaled.messages.rows
                             - rep.messages.rows)) < 1e-12
        assert rep_scaled.zb_spa == pytest.approx(
            rep.zb_spa * np.prod(factors), rel=1e-12)

    def test_oscillation_fallback_damping(self, monkeypatch):
        # a swap function makes the undamped parallel update oscillate
        # with period two from a generic start: restart 1's random one
        g = two_cycle(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        _rep, reports = restart_reports(monkeypatch, g, restarts=2, seed=3)
        assert reports[1].converged
        assert reports[1].damping_used == 0.5

    def test_restarts_match_the_sequential_oracle_sweep_by_sweep(
            self, monkeypatch):
        # the swap graph switches damping on; every restart of the batch
        # must stop at its first converged sweep and switch where the
        # sequential run, one spa_step call per sweep, switches
        g = two_cycle(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        rep, batch = restart_reports(monkeypatch, g, restarts=3, seed=3)
        calls = []
        step = spa.spa_step

        def wrapper(*args, **kwargs):
            new, info = step(*args, **kwargs)
            calls.append((kwargs["rng"], kwargs["damping"],
                          info.map_residual))
            return new, info

        monkeypatch.setattr(spa, "spa_step", wrapper)
        best, reports = sequential_spa_run(g, restarts=3, seed=3)
        assert_same_report(rep, best)
        assert rep.restarts_converged == 3
        runs = {}
        for call in calls:
            runs.setdefault(id(call[0]), []).append(call)
        assert len(batch) == len(reports) == len(runs) == 3
        tol = spa.FIXED_POINT_TOL
        switched = 0
        for r, (got, want, run) in enumerate(zip(batch, reports,
                                                  runs.values())):
            assert_same_report(got, want)
            assert got.restart == r and got.iterations == len(run)
            assert [c[2] <= tol for c in run] == [False] * (len(run) - 1) \
                + [True]
            damping = [c[1] for c in run]
            assert damping == sorted(damping)
            if damping[-1] > damping[0]:
                switched += 1
                assert damping.index(0.5) == got.damping_switched_at
            else:
                assert got.damping_switched_at is None
        # the uniform start is a fixed point; both random starts switch
        assert switched == 2
        assert rep is batch[rep.restart]

    @pytest.mark.parametrize("case", sorted(ORACLE_RUNS))
    def test_bit_identical_to_sequential_restarts(self, case):
        build, kwargs = ORACLE_RUNS[case]
        g = build()
        assert_same_report(spa.spa_run(g, **kwargs),
                           sequential_spa_run(g, **kwargs)[0])

    def test_report_names_the_winning_restart(self, monkeypatch):
        g = two_cycle(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        rep, reports = restart_reports(monkeypatch, g, restarts=2, seed=3)
        assert [r.restart for r in reports] == [0, 1]
        assert rep is reports[0] and rep.damping_used == 0.0
        drawn = reports[1]   # the random start
        assert drawn.damping_used == 0.5
        assert 60 <= drawn.damping_switched_at < drawn.iterations
        rep = spa.spa_run(fig3_psd(0), restarts=3)
        assert rep.damping_switched_at is None and rep.damping_used == 0.0

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

    @pytest.mark.parametrize("outcomes, winner", [
        # (converged, zb_spa) per restart
        ([(False, None), (True, 2.0), (True, 5.0 + 1j), (True, 3.0)], 2),
        ([(False, None), (True, 4.0), (True, 4.0 - 2j), (True, 1.0)], 1),
        # Re Z_B within a relative 1e-12 of the largest is a tie
        ([(True, 4.0), (True, 4.0 * (1.0 + 9e-13))], 0),
        ([(True, 4.0), (True, 4.0 * (1.0 + 2e-12))], 1),
        ([(True, 3.0), (True, 4.0 - 2e-12), (True, 4.0)], 1),
        ([(True, -2.0), (True, -2.0 * (1.0 - 9e-13))], 0),
        ([(False, None), (True, None), (False, None)], 1),
        ([(True, None), (True, -0.5)], 1),
        ([(False, None), (False, None), (False, None)], 0),
    ], ids=["converged-beats-earlier", "tie-goes-to-earliest",
            "rounding-tie-goes-to-earliest", "beyond-the-tie-wins",
            "earliest-within-the-tie", "negative-rounding-tie",
            "converged-without-value", "value-beats-none", "none-converged"])
    def test_restart_choice(self, monkeypatch, outcomes, winner):
        made = []

        def restarts(g, starts, rngs, max_iter, tol_fp, damping):
            for restart, (m, (conv, zb)) in enumerate(zip(starts, outcomes)):
                made.append(spa.SpaReport(
                    converged=conv, iterations=restart + 1, residual=0.0,
                    restarts_used=1, restarts_converged=int(conv),
                    messages=m, zb_spa=None if zb is None else complex(zb),
                    degenerate_log=[(restart, 1, 0), (restart, 2, 1)],
                    restart=restart))
            return made

        monkeypatch.setattr(spa, "_restarts", restarts)
        rep = spa.spa_run(build_fig3(), restarts=len(outcomes))
        assert rep is made[winner] and rep.restart == winner
        assert oracles.best_restart(made) is rep
        assert rep.restarts_used == len(outcomes)
        assert rep.restarts_converged == sum(c for c, _ in outcomes)
        assert rep.degenerate_log == [(r, it, i) for r in range(len(outcomes))
                                      for it, i in ((1, 0), (2, 1))]

    def test_degenerate_events_are_logged(self):
        # the zero row / zero column pair drives both edge overlaps to
        # exact zero after one sweep, forcing repeated reinitialization
        g = _zero_row_graph()
        rep = spa.spa_run(g, restarts=1, max_iter=40)
        assert rep.degenerate_events > 0
        restart, iteration, i = rep.degenerate_log[0]
        assert restart == 0 and iteration >= 1 and i in (0, 1)


class TestBeliefs:
    def test_uniform(self):
        g = build_fig3()
        b = beliefs_at(g, spa.uniform_messages(g))
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
        b = beliefs_at(g, rep.messages)
        assert consistency_defect(g, b) <= 1e-8

    def test_unitary_chain_node_beliefs_psd(self):
        g = gen(GeneratorSpec(topology="unitary-chain", seed=6))
        rep = spa.spa_run(g, restarts=1)
        b = beliefs_at(g, rep.messages)
        for idx, name in enumerate(g.node_names):
            bases = [g.edges[i].alphabet for i in g.incidences[idx]]
            c = choi_from_paired(b.node[name], bases)
            vals = np.linalg.eigvalsh((c + c.conj().T) / 2)
            assert vals[0] >= -1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_tree_beliefs_are_exact_marginals(self, seed):
        # BP is exact on a tree: the fixed point's beliefs are the marginals
        # of the distribution that weights each configuration by its value
        g = gen(GeneratorSpec(topology="tree", kind="standard", alphabet=3,
                              ensemble="positive-s-nfg", n=7, seed=seed))
        rep = spa.spa_run(g, restarts=1, tol_fp=1e-12)
        assert rep.converged
        want = beliefs_from_configuration_weights(g, {
            tuple(row.tolist()): float(v.real)
            for digits, values in enum_configs(g)
            for row, v in zip(digits, values)})
        got = beliefs_at(g, rep.messages)
        for part in ("edge", "node"):
            for key, p in getattr(want, part).items():
                assert np.allclose(getattr(got, part)[key], p,
                                   rtol=0.0, atol=1e-12), (part, key)

    def test_degenerate_normalizer_raises(self):
        g = power_trap_graph()
        with pytest.raises(ZeroDivisionError, match="e1"):
            beliefs_at(g, power_trap_fixed_point(g))


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
            f = bethe_free_energy(g, b)
            assert abs(f) <= 1e-9
            assert np.exp(-f) == pytest.approx(1.0)

    def test_all_ones_two_cycle_uniform(self):
        # hand evaluation: zero energy, node entropies log 4, edge
        # entropies log 2, so F_B = -log 4 and exp(-F_B) = Z = 4
        g = two_cycle(np.ones((2, 2)), np.ones((2, 2)))
        b = beliefs_at(g, spa.uniform_messages(g))
        f = bethe_free_energy(g, b)
        assert f == pytest.approx(-np.log(4.0))
        assert np.exp(-f) == pytest.approx(4.0)
        assert np.exp(-f) == pytest.approx(nfg.partition_exact(g).real)

    def test_matches_bethe_value_at_interior_fixed_point(self):
        for seed in range(4):
            g = gen(GeneratorSpec(topology="fig3", kind="standard",
                                  ensemble="positive-s-nfg", seed=seed))
            rep = spa.spa_run(g, restarts=1, tol_fp=1e-12)
            b = beliefs_at(g, rep.messages)
            f = bethe_free_energy(g, b)
            assert np.exp(-f) == pytest.approx(rep.zb_spa.real, rel=1e-6)

    def test_divergence_guard(self):
        g = power_trap_graph()
        # mass on the zero of f1 at (1, 0)
        b = beliefs_from_configuration_weights(g, {(1, 0): 1.0})
        assert bethe_free_energy(g, b) == float("inf")

    def test_double_edge_rejected(self):
        g = fig3_psd(0)
        m = spa.uniform_messages(g)
        b = beliefs_at(g, m)
        with pytest.raises(ValidationError):
            bethe_free_energy(g, b)

    @pytest.mark.parametrize("part, key, what", [
        ("node", "f2", "node belief 'f2'"), ("edge", "e3", "edge belief 'e3'")])
    @pytest.mark.parametrize("entry", [0.5 + 0.1j, -0.2, 0.7])
    def test_non_pmf_beliefs_rejected(self, part, key, what, entry):
        # an imaginary part, a negative entry or a total other than one
        g = build_fig3()
        b = beliefs_at(g, spa.uniform_messages(g))
        beliefs = getattr(b, part)
        p = beliefs[key].copy()
        p.reshape(-1)[0] = entry
        beliefs[key] = p
        with pytest.raises(ValidationError, match=f"{what} is not a pmf"):
            bethe_free_energy(g, b)

    def test_inconsistent_beliefs_rejected(self):
        g = build_fig3()
        b = beliefs_at(g, spa.uniform_messages(g))
        b.edge["e1"] = np.array([0.9, 0.1], dtype=np.complex128)
        with pytest.raises(ValidationError, match="consistency"):
            bethe_free_energy(g, b)


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
    assert consistency_defect(g, b) <= 1e-12
    for vec in b.edge.values():
        assert np.sum(vec).real == pytest.approx(1.0)
