"""Experiment harness semantics beyond what the CLI tests cover."""

import pytest

from bethecover.experiment import result_to_csv, run_experiment
from bethecover.generators import GeneratorSpec


def test_degree_one_column_equals_partition():
    spec = GeneratorSpec(topology="fig3", kind="double-edge",
                         ensemble="psd-random")
    result = run_experiment(spec, instances=50, m_max=1, master_seed=3)
    assert result.excluded == 0
    for row in result.rows:
        assert row.zbm[1] == pytest.approx(row.z, rel=1e-9)


def test_tree_rows_have_zero_deviation():
    spec = GeneratorSpec(topology="tree", n=4, kind="double-edge",
                         ensemble="psd-random")
    result = run_experiment(spec, instances=10, m_max=2, master_seed=5)
    assert result.excluded == 0
    for row in result.rows:
        for dev in row.dev.values():
            assert abs(dev) <= 1e-6


def test_non_converged_rows_are_flagged_and_excluded():
    spec = GeneratorSpec(topology="fig3", kind="double-edge",
                         ensemble="psd-random")
    result = run_experiment(spec, instances=3, m_max=1, master_seed=1,
                            spa_options=dict(max_iter=2, restarts=1))
    assert result.excluded == 3
    assert all(not row.spa_converged for row in result.rows)
    assert result.mean_dev[1] is None
    text = result_to_csv(result)
    assert "# excluded_non_converged,3" in text


def test_degree_four_routes_to_montecarlo():
    from bethecover.experiment import zbm_estimate
    from bethecover.generators import gen

    g = gen(GeneratorSpec(topology="cycle", n=2, kind="double-edge",
                          ensemble="psd-random", seed=4))
    est = zbm_estimate(g, 4, samples=20, seed=1)
    assert est.method == "montecarlo"
    assert est.samples == 20
    assert est.stderr is not None


def test_capped_type_formula_falls_back_to_montecarlo(monkeypatch):
    from bethecover.cover import zbm_montecarlo
    from bethecover.experiment import zbm_estimate
    from bethecover.generators import gen

    # the degree-3 type tensors hold 924 entries; the covers' networks and
    # the 20-sample buffer fit under the cap
    monkeypatch.setenv("BETHE_COVER_LIMITS", "contract=100")
    g = gen(GeneratorSpec(topology="cycle", n=2, kind="double-edge",
                          ensemble="psd-random", seed=4))
    est = zbm_estimate(g, 3, samples=20, seed=1)
    assert est.method == "montecarlo"
    assert est == zbm_montecarlo(g, 3, samples=20, seed=1)


def test_summary_block_shape():
    spec = GeneratorSpec(topology="fig3", kind="double-edge",
                         ensemble="psd-near-identity", eta=0.02)
    result = run_experiment(spec, instances=5, m_max=2, master_seed=2)
    text = result_to_csv(result)
    lines = text.strip().splitlines()
    data = [ln for ln in lines if not ln.startswith(("#", "seed"))]
    assert len(data) == 5
    assert sum(ln.startswith("# summary") for ln in lines) == 2
    assert sum(ln.startswith("# cdf") for ln in lines) == 18
