"""The benchmark's traced layer and workloads, loaded from ``bench/``
and run on small inputs, so a change that breaks what the benchmark
wraps, calls or reads fails here and not only in the benchmark run."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from bethecover import nfg
from bethecover.cover import build_cover, random_cover

from conftest import fig3_psd

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench("tracing")


def test_one_contract_span_per_plan_step():
    g = fig3_psd(0)
    cov = build_cover(g, random_cover(g, 4, np.random.default_rng(0)))
    plan = nfg.plan_contraction([(inc, t.shape) for inc, t
                                 in zip(cov.incidences, cov.tensors)])
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        z = nfg.partition_contract(cov)
    finally:
        tracer.uninstall()
    assert z == nfg.partition_contract(cov)
    names = [span[1] for span in tracer.spans]
    assert names.count("nfg.contract_network") == 1
    assert names.count("tensor.contract") == len(plan.steps) > 0
    assert tracer.metrics()["tensor.contract.peak_entries"] == plan.peak


@pytest.mark.parametrize("name", ["ensemble", "bounds", "covers"])
def test_first_op_passes_its_check(name):
    # op 0 of seed 0, traced, against the recorded seed-0 values
    workload = load_bench("workloads").WORKLOADS[name](0)
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)[name]["0"][str(workload.input_of(0))]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        result = tracer.run_op(0, workload.op, 0)
    finally:
        tracer.uninstall()
    assert workload.check(0, result, reference) == []
    if name == "bounds":
        assert tracer.metrics()["lct.loop_series.terms"] > 0
