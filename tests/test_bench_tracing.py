"""The benchmark's traced layer, installed from ``bench/tracing.py`` and
run on one cover contraction, so a change that breaks what it wraps or
reads fails here and not only in the traced benchmark run."""

import importlib.util
import pathlib

import numpy as np

from bethecover import nfg
from bethecover.cover import build_cover, random_cover

from conftest import fig3_psd

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
