"""The capacity gate: every capped route refuses through
``config.check_capacity`` before it allocates anything sized by the
request, and only ``config`` reads a limit or builds a CapacityError."""

import math
import pathlib
import re
import time
import tracemalloc

import numpy as np
import pytest

import bethecover
from bethecover import cover, lct, nfg, spa
from bethecover.cli import main
from bethecover.errors import CapacityError
from bethecover.generators import GeneratorSpec, gen

from conftest import build_fig3, fig3_psd


def _exact():
    return lambda: nfg.partition_exact(build_fig3()), 32


def _loop_series():
    g = fig3_psd(1)
    lr = lct.transform(g, spa.spa_run(g, restarts=1, tol_fp=1e-12, seed=0))
    return lambda: lct.loop_series(lr), 4 ** 5


def _exhaustive(degree, requested):
    def build():
        g = fig3_psd(0)
        return lambda: cover.zbm_exhaustive(g, degree), requested
    return build


def _contract():
    g = fig3_psd(0)
    plan = nfg.plan_contraction([(g.incidences[k], g.tensors[k].shape)
                                 for k in range(g.n_nodes)])
    return lambda: nfg.partition_contract(g), plan.peak


def _typeformula():
    # a block of 9 first-leg types of fig3's degree-3 node at its last
    # level, each with 10 * 4 + 1 rows of 10 * 4 entries
    g = fig3_psd(0)
    return lambda: cover.zbm_typeformula(g, 3), 9 * (10 * 4 + 1) * (10 * 4)


def _gen():
    # fig3's degree-3 node f1 has 2**6 paired entries
    spec = GeneratorSpec(topology="fig3", kind="double-edge", seed=0)
    return lambda: gen(spec), 2 ** 6


def _montecarlo():
    g = fig3_psd(0)
    return lambda: cover.zbm_montecarlo(g, 2, samples=1000), 1000


def _montecarlo_pair():
    g = fig3_psd(0)
    return lambda: cover.zbm_montecarlo(g, 2, samples=10), 4 ** 4


def _socket():
    return lambda: cover.socket_projector(2, 3), 2 ** 6


def _spa_batch():
    # 3 restarts of 10 directed messages, each a row of 4 entries
    g = fig3_psd(0)
    return lambda: spa.spa_run(g, restarts=3), 3 * 10 * 4


# route: (builder of (refused call, requested), cap key, cap, new check)
ROUTES = {
    "partition_exact": (_exact, "enum", 16, False),
    "loop_series": (_loop_series, "enum", 16, False),
    "zbm_exhaustive": (_exhaustive(3, 6 ** 2), "covers", 16, False),
    "zbm_exhaustive_huge": (_exhaustive(300000, 2 ** 63), "covers", 16,
                            True),
    "partition_contract": (_contract, "contract", 4, False),
    # fig3 absorbs to two 4**3-entry nodes joined by three edges: their
    # copies merged through the spine alone hold 4**4 entries
    "zbm_exhaustive_pair": (_exhaustive(2, 4 ** 4), "contract", 100, True),
    "zbm_typeformula": (_typeformula, "contract", 1000, False),
    "gen": (_gen, "contract", 16, True),
    "zbm_montecarlo": (_montecarlo, "contract", 100, True),
    "zbm_montecarlo_pair": (_montecarlo_pair, "contract", 100, True),
    "socket_projector": (_socket, "contract", 16, True),
    "spa_run": (_spa_batch, "contract", 100, True),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_refuses_through_the_gate(route, monkeypatch):
    build, key, cap, new = ROUTES[route]
    call, requested = build()
    monkeypatch.setenv("BETHE_COVER_LIMITS", f"{key}={cap}")
    with pytest.raises(CapacityError):
        call()   # lazy imports on a first call are not sized by the request
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(CapacityError) as info:
            call()
        elapsed = time.perf_counter() - start
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    exc = info.value
    assert exc.limit == cap
    assert exc.requested == requested
    message = str(exc)
    assert f"{key} cap {cap}" in message and "\n" not in message
    if new:
        assert peak_bytes < 64 * 1024
        assert elapsed < 1.0


def test_degree_one_pair_is_contracted_through_every_edge(monkeypatch):
    # at M = 1 fig3's pair contracts all three of its edges at once, to a
    # scalar, so a cap under the spine-only 4**4 entries refuses nothing
    g = fig3_psd(0)
    z = nfg.partition_contract(g).real
    monkeypatch.setenv("BETHE_COVER_LIMITS", "contract=100")
    with pytest.raises(CapacityError):
        cover.zbm_exhaustive(g, 2)
    assert cover.zbm_exhaustive(g, 1).root == pytest.approx(z, rel=1e-12)


def test_spa_restart_batch_refused_before_any_draw_or_sweep(monkeypatch):
    def refuse(*args):
        raise AssertionError("a start was drawn or a sweep ran")

    monkeypatch.setattr(spa, "_draw", refuse)
    monkeypatch.setattr(spa, "_sweep", refuse)
    monkeypatch.setenv("BETHE_COVER_LIMITS", "contract=1000")
    with pytest.raises(CapacityError, match="SPA restart batch") as info:
        spa.spa_run(fig3_psd(1), restarts=26)
    assert info.value.requested == 26 * 10 * 4


def test_spa_start_draws_refused_before_any_draw_or_sweep(monkeypatch):
    # 9 random starts of 10 double-edge messages at alphabet 2 pass the
    # restart batch (400 entries) but not their draw buffer: 2 * 2**2
    # doubles for each of the 10 messages of each start
    def refuse(*args):
        raise AssertionError("a sweep ran")

    g = fig3_psd(1)
    plan = spa._plan(g)
    rngs = [np.random.default_rng([0, r]) for r in range(1, 10)]
    states = [rng.bit_generator.state for rng in rngs]
    monkeypatch.setattr(spa, "_sweep", refuse)
    monkeypatch.setenv("BETHE_COVER_LIMITS", "contract=500")
    with pytest.raises(CapacityError, match="SPA start draws") as info:
        spa._draw(g, plan, plan.keys, rngs)
    assert info.value.requested == 9 * 10 * 8 > 500
    assert [rng.bit_generator.state for rng in rngs] == states
    with pytest.raises(CapacityError, match="SPA start draws"):
        spa.spa_run(g, restarts=10)


def test_default_caps_refuse_the_huge_requests():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as info:
            cover.socket_projector(4, 9)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.requested == 4 ** 18
    assert peak_bytes < 64 * 1024
    with pytest.raises(CapacityError, match="contract"):
        gen(GeneratorSpec(alphabet=40))
    with pytest.raises(CapacityError, match="contract"):
        gen(GeneratorSpec(topology="unitary-chain", alphabet=100))


def test_cover_count_exact_below_two_to_the_63(monkeypatch):
    # fig3 has 2 edges outside its spanning tree: 20! ** 2 is over 2**63
    # and reported as the lower bound 2**63; 5! ** 2 is reported exactly
    g = fig3_psd(0)
    monkeypatch.setenv("BETHE_COVER_LIMITS", "covers=1")
    with pytest.raises(CapacityError, match="at least 2\\*\\*63") as info:
        cover.zbm_exhaustive(g, 20)
    assert info.value.requested == 2 ** 63
    with pytest.raises(CapacityError) as info:
        cover.zbm_exhaustive(g, 5)
    assert info.value.requested == 120 ** 2


def test_huge_type_formula_refused_before_any_block_plan(monkeypatch):
    # the type tables of all levels are counted in closed form before any
    # node's schedule walks its levels, which takes seconds at M = 300000
    def refuse(*args):
        raise AssertionError("a block plan was walked")

    monkeypatch.setattr(cover, "_type_schedule", refuse)
    with pytest.raises(CapacityError, match="at least 2\\*\\*63"):
        cover.zbm_typeformula(fig3_psd(0), 300000)


def test_one_leg_type_formula_refused_without_a_block_plan(monkeypatch):
    # two leaves joined by one edge of 4 symbols: the tables of the edge's
    # alphabet, 4 (2 C(M + 4, 4) + M - 2) entries, are refused before
    # either node's schedule, whose last level of C(M + 3, 3) types would
    # be refused next
    def refuse(*args):
        raise AssertionError("a block plan was walked")

    monkeypatch.setattr(cover, "_type_schedule", refuse)
    g = gen(GeneratorSpec(topology="tree", n=2))
    with pytest.raises(CapacityError,
                       match="type tables of 4 symbols: at least 2\\*\\*63") \
            as info:
        cover.zbm_typeformula(g, 10**6)
    assert info.value.requested == 2**63


def test_type_tables_refused_before_they_are_built(monkeypatch):
    # a binary two-node tree: each node's last level holds only M + 2
    # entries, but the tables hold 2 (2 C(M + 2, 2) + M - 2), over the
    # default cap from M = 5791 on
    def refuse(*args):
        raise AssertionError("the type tables were built")

    monkeypatch.setattr(cover, "_type_tables", refuse)
    monkeypatch.delenv("BETHE_COVER_LIMITS", raising=False)
    g = gen(GeneratorSpec(topology="tree", n=2, kind="standard",
                          ensemble="positive-s-nfg"))
    assert g.axis_size(0) == 2
    with pytest.raises(CapacityError, match="type tables of 2 symbols") \
            as info:
        cover.zbm_typeformula(g, 6000)
    assert info.value.requested == 2 * (2 * math.comb(6002, 2) + 5998)


@pytest.mark.parametrize("argv", [
    ["exact", "--alphabet", "40"],
    ["zbm", "--m", "2", "--method", "montecarlo",
     "--samples", "1000000000000"],
    ["zbm", "--m", "1000", "--method", "exhaustive"],
    ["zbm", "--m", "300000", "--method", "exhaustive"],
    ["zbm", "--m", "1000000", "--method", "typeformula"],
    ["zbm", "--topology", "tree", "--nodes", "2", "--m", "1000000",
     "--method", "typeformula"],
    ["spa", "--restarts", "1000000000"],
    ["zbm", "--method", "typeformula", "--topology", "tree", "--nodes", "4",
     "--m", "16000"],
    ["zbm", "--method", "typeformula", "--topology", "fig-b", "--m", "16384"],
    ["zbm", "--topology", "tree", "--nodes", "2", "--kind", "standard",
     "--ensemble", "positive-s-nfg", "--m", "1000000",
     "--method", "typeformula"],
])
def test_cli_capacity_exit(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ")
    assert err.count("\n") == 1


GATE_BYPASS = re.compile(r"(?<!class )\bCapacityError\(|\blimits\(\)")


def test_only_config_reads_limits_or_raises_capacity_errors():
    package = pathlib.Path(bethecover.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "config.py":
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if GATE_BYPASS.search(line):
                offenders.append(f"{path.name}:{n}: {line.strip()}")
    assert not offenders, "capacity checks outside config.check_capacity:" \
                          + "".join(f"\n  {o}" for o in offenders)
