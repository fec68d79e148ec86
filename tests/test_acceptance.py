"""Acceptance suite: every shipped guarantee, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines with timings.
"""

import math
import time

import numpy as np
import pytest

from bethecover import cover, lct, nfg, spa
from bethecover.errors import LctInapplicableError
from bethecover.generators import GeneratorSpec, gen

from conftest import (fig3_near_identity, fig3_psd, power_trap_fixed_point,
                      power_trap_graph)
from oracles import (beliefs_from_configuration_weights, bethe_free_energy,
                     fixed_point_residual, induced_fixed_point_check,
                     residual)


def report(number, detail, started):
    elapsed = time.perf_counter() - started
    print(f"[criterion {number:2d}] PASS ({elapsed:6.1f} s) {detail}")
    return elapsed


def converged_spa(g, seed=0, restarts=2):
    rep = spa.spa_run(g, restarts=restarts, tol_fp=1e-12, seed=seed)
    assert rep.converged and rep.zb_defined
    return rep


def test_criterion_1_degree_one_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        g = fig3_psd(seed)
        z = nfg.partition_exact(g).real
        est = cover.zbm_exhaustive(g, 1)
        worst = max(worst, abs(est.root - z) / abs(z))
    assert worst <= 1e-9
    elapsed = report(1, f"100 instances, worst rel err {worst:.2e}", t0)
    assert elapsed < 60.0


def test_criterion_2_tree_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        n = 2 + seed % 5              # 2..6 nodes
        g = gen(GeneratorSpec(topology="tree", kind="double-edge",
                              ensemble="psd-random", n=n, seed=seed))
        rep = spa.spa_run(g, restarts=1)
        assert rep.converged
        z = nfg.partition_exact(g)
        worst = max(worst, abs(rep.zb_spa - z) / abs(z))
    assert worst <= 1e-6
    elapsed = report(2, f"100 trees, worst rel gap {worst:.2e}", t0)
    assert elapsed < 60.0


def test_criterion_3_degenerate_two_cycle():
    t0 = time.perf_counter()
    g = power_trap_graph()
    # exact partition value
    z = nfg.partition_exact(g)
    assert z == pytest.approx(2.0)
    # the known message vector is a sum-product fixed point to 1e-9
    m = power_trap_fixed_point(g)
    assert fixed_point_residual(g, m) <= 1e-9
    # iteration from the uniform start walks toward it
    walk = spa.uniform_messages(g)
    for _ in range(1500):
        walk, _ = spa.spa_step(g, walk)
    assert residual(walk, m) < 5e-3
    # both edge normalizers vanish and the transform refuses the edge
    _z_f, z_e, _zb = spa.bethe_value(g, m)
    assert z_e["e1"] == 0.0 and z_e["e2"] == 0.0
    with pytest.raises(LctInapplicableError):
        lct.transform(g, m)
    # the free energy vanishes on sampled consistent beliefs, so the
    # variational Bethe value is exactly one
    rng = np.random.default_rng(17)
    values = []
    for _ in range(10):
        p = float(rng.uniform(0.05, 0.95))
        b = beliefs_from_configuration_weights(
            g, {(0, 0): p, (1, 1): 1.0 - p})
        values.append(bethe_free_energy(g, b))
    assert max(abs(v) for v in values) <= 1e-9
    assert np.exp(-values[0]) == pytest.approx(1.0, abs=1e-9)
    elapsed = report(3, "Z=2, fixed point verified, overlaps vanish, "
                        "F_B=0 on 10 belief samples", t0)
    assert elapsed < 1.0


def test_criterion_4_transform_invariants():
    t0 = time.perf_counter()
    worst = dict(z=0.0, g0=0.0, w1=0.0, biorth=0.0, induced=0.0)
    for seed in range(200):
        g = fig3_psd(seed)
        rep = converged_spa(g, restarts=1)
        lr = lct.transform(g, rep)
        z0 = nfg.partition_exact(g)
        z1 = nfg.partition_exact(lr.transformed)
        worst["z"] = max(worst["z"], abs(z1 - z0) / abs(z0))
        worst["g0"] = max(worst["g0"],
                          abs(lr.g0 - lr.zb_spa) / abs(lr.zb_spa))
        for t in lr.transformed.tensors:
            for a in range(t.ndim):
                idx = [0] * t.ndim
                for v in range(1, t.shape[a]):
                    idx[a] = v
                    worst["w1"] = max(worst["w1"], abs(t[tuple(idx)]))
        worst["biorth"] = max(worst["biorth"], max(
            max(v) for v in lr.diagnostics["biorthogonality"].values()))
        worst["induced"] = max(worst["induced"],
                               induced_fixed_point_check(lr))
    assert worst["z"] <= 1e-9
    assert worst["g0"] <= 1e-9
    assert worst["w1"] <= 1e-10
    assert worst["biorth"] <= 1e-10
    assert worst["induced"] <= 1e-8
    elapsed = report(4, "200 transforms: " + ", ".join(
        f"{k}={v:.2e}" for k, v in worst.items()), t0)
    assert elapsed < 300.0


def test_criterion_5_socket_projector_ground_truth():
    t0 = time.perf_counter()
    p = cover.socket_projector(2, 2)
    expected = np.array([[1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.5, 0.5, 0.0],
                         [0.0, 0.5, 0.5, 0.0],
                         [0.0, 0.0, 0.0, 1.0]])
    assert np.array_equal(p, expected)
    assert math.comb(2 + 2 - 1, 2) == 3
    assert [cover.class_size(t) for t in ((2, 0), (1, 1), (0, 2))] \
        == [1, 2, 1]
    elapsed = report(5, "projector and type counts match exactly", t0)
    assert elapsed < 1.0


def _cross_method_fixtures():
    specs = []
    for seed in range(3):
        specs.append(GeneratorSpec(topology="cycle", n=2, kind="standard",
                                   ensemble="positive-s-nfg", seed=seed))
        specs.append(GeneratorSpec(topology="cycle", n=2,
                                   kind="double-edge",
                                   ensemble="psd-random", seed=seed))
        specs.append(GeneratorSpec(topology="cycle", n=3, kind="standard",
                                   ensemble="positive-s-nfg",
                                   seed=10 + seed))
        specs.append(GeneratorSpec(topology="cycle", n=3,
                                   kind="double-edge",
                                   ensemble="psd-random", seed=10 + seed))
    for seed in range(2):
        specs.append(GeneratorSpec(topology="tree", n=3, kind="standard",
                                   ensemble="positive-s-nfg",
                                   seed=20 + seed))
        specs.append(GeneratorSpec(topology="tree", n=3,
                                   kind="double-edge",
                                   ensemble="psd-random", seed=20 + seed))
        specs.append(GeneratorSpec(topology="fig3", kind="standard",
                                   ensemble="positive-s-nfg",
                                   seed=30 + seed))
        specs.append(GeneratorSpec(topology="fig3", kind="double-edge",
                                   ensemble="psd-random", seed=30 + seed))
    return specs


def test_criterion_6_cross_method_agreement():
    t0 = time.perf_counter()
    specs = _cross_method_fixtures()
    assert len(specs) >= 20
    worst_pair = 0.0
    for k, spec in enumerate(specs):
        g = gen(spec)
        exh = cover.zbm_exhaustive(g, 2)
        typ = cover.zbm_typeformula(g, 2)
        mc = cover.zbm_montecarlo(g, 2, samples=500, seed=100 + k)
        scale = abs(typ.power_value)
        gap = abs(exh.power_value - typ.power_value) / scale
        worst_pair = max(worst_pair, gap)
        assert gap <= 1e-8
        stat_tol = 3.0 * mc.stderr + 1e-9 * (1.0 + scale)
        assert abs(mc.power_value - exh.power_value) <= stat_tol
        assert abs(mc.power_value - typ.power_value) <= stat_tol
    elapsed = report(6, f"{len(specs)} fixtures, worst exhaustive/"
                        f"typeformula gap {worst_pair:.2e}", t0)
    assert elapsed < 600.0


def _condition_passing_pool():
    pool = []
    for seed in range(12):
        pool.append(fig3_near_identity(seed, eta=0.02))
    for seed in range(4):
        pool.append(gen(GeneratorSpec(topology="cycle", n=3,
                                      kind="double-edge",
                                      ensemble="psd-near-identity",
                                      eta=0.1, seed=seed)))
        pool.append(gen(GeneratorSpec(topology="tree", n=2,
                                      kind="double-edge",
                                      ensemble="psd-random", seed=seed)))
    passing = []
    for g in pool:
        rep = converged_spa(g, restarts=1)
        lr = lct.transform(g, rep)
        c = lct.check_condition(lr)
        if c.condition:
            passing.append((g, c))
    return passing


def test_criterion_7_sandwich_bounds():
    t0 = time.perf_counter()
    passing = _condition_passing_pool()
    assert len(passing) >= 10
    worst_margin = np.inf
    for g, cond in passing:
        ests = [cover.zbm_exhaustive(g, 1),
                cover.zbm_typeformula(g, 2),
                cover.zbm_typeformula(g, 3)]
        rep = cover.bethe_cover_bounds(ests, cond.z_star, cond.alpha)
        assert rep.all_ok
        for ent in rep.entries:
            worst_margin = min(worst_margin, ent.ratio_power - ent.lower,
                               ent.upper - ent.ratio_power)
    assert worst_margin >= -1e-6
    elapsed = report(7, f"{len(passing)} passing fixtures x degrees 1-3, "
                        f"smallest margin {worst_margin:.2e}", t0)
    assert elapsed < 600.0


def test_criterion_8_trend_toward_bethe_value():
    t0 = time.perf_counter()
    passing = 0
    improved = 0
    seed = 0
    while passing < 50 and seed < 80:
        g = fig3_near_identity(seed, eta=0.02)
        seed += 1
        rep = converged_spa(g, restarts=1)
        lr = lct.transform(g, rep)
        c = lct.check_condition(lr)
        if not c.condition:
            continue
        passing += 1
        z_star = c.z_star
        d1 = abs(cover.zbm_exhaustive(g, 1).root - z_star) / z_star
        d3 = abs(cover.zbm_typeformula(g, 3).root - z_star) / z_star
        if d3 < d1:
            improved += 1
    assert passing == 50
    assert improved >= 45
    elapsed = report(8, f"deviation shrank from degree 1 to 3 in "
                        f"{improved}/50 condition-passing instances", t0)
    assert elapsed < 900.0


def test_criterion_9_partition_realness():
    t0 = time.perf_counter()
    count = 0
    worst_im = 0.0
    worst_re = 0.0
    for seed in range(200):
        graphs = [fig3_psd(1000 + seed)]
        if seed < 100:
            graphs.append(gen(GeneratorSpec(
                topology="cycle", n=2 + seed % 3, kind="double-edge",
                ensemble="psd-random", seed=2000 + seed)))
            graphs.append(gen(GeneratorSpec(
                topology="tree", n=2 + seed % 5, kind="double-edge",
                ensemble="psd-random", seed=3000 + seed)))
        if seed < 100:
            graphs.append(gen(GeneratorSpec(
                topology="unitary-chain", seed=4000 + seed)))
        for g in graphs:
            z = nfg.partition_exact(g)
            worst_im = max(worst_im, abs(z.imag) / (1.0 + abs(z)))
            worst_re = min(worst_re, z.real) if z.real < 0 else worst_re
            assert abs(z.imag) <= 1e-9 * (1.0 + abs(z))
            assert z.real >= -1e-9
            count += 1
    assert count >= 500
    elapsed = report(9, f"{count} strict-sense fixtures, worst scaled "
                        f"imaginary part {worst_im:.2e}", t0)
    assert elapsed < 120.0


def test_criterion_10_condition_equivalence():
    t0 = time.perf_counter()
    checked = 0
    passing = 0
    seed = 0
    while checked < 100:
        if seed % 2 == 0:
            g = fig3_near_identity(seed, eta=0.02 + 0.14 * (seed % 5))
        else:
            g = fig3_psd(seed)
        seed += 1
        rep = spa.spa_run(g, restarts=2, tol_fp=1e-12, seed=seed)
        if not (rep.converged and rep.zb_defined):
            continue
        lr = lct.transform(g, rep)
        c = lct.check_condition(lr)      # raises if the booleans disagree
        assert c.condition == c.alpha_condition
        assert c.mass / c.z_star == pytest.approx(c.alpha + 1.0, rel=1e-12)
        checked += 1
        passing += int(c.condition)
    elapsed = report(10, f"booleans agree on {checked} fixtures "
                         f"({passing} pass the condition)", t0)
    assert elapsed < 120.0
