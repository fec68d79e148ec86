"""Command-line interface: subcommands, exit codes, determinism."""

import argparse
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bethecover import cover, experiment as exp_mod, nfg
from bethecover.cli import _spec_of, build_parser, main
from bethecover.generators import GeneratorSpec, gen
from bethecover.spa import spa_run

from conftest import graph_with_choi


@pytest.fixture
def graph_file(tmp_path, capsys):
    path = tmp_path / "g.nfg.json"
    assert main(["gen", "--topology", "fig3", "--seed", "7",
                 "--json", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_generator_flags_default_to_the_spec_defaults():
    assert _spec_of(build_parser().parse_args(["gen"])) == GeneratorSpec()


def test_spa_flags_default_to_the_spa_run_defaults():
    args = build_parser().parse_args(["spa"])
    params = inspect.signature(spa_run).parameters
    for key in ("max_iter", "tol_fp", "damping", "restarts"):
        assert getattr(args, key) == params[key].default, key


def test_gen_validate_exact(graph_file, tmp_path, capsys):
    path = tmp_path / "v.json"
    assert main(["validate", graph_file, "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "classification: strict-sense\n" in out
    assert json.load(open(path)) == {
        "valid": True, "classification": "strict-sense", "problems": []}
    assert main(["exact", graph_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Z = ")


def test_zbm_degree_one_matches_exact(graph_file, tmp_path, capsys):
    zpath = tmp_path / "z.json"
    assert main(["exact", graph_file, "--json", str(zpath)]) == 0
    z = json.load(open(zpath))["z"][0]
    jpath = tmp_path / "zbm.json"
    assert main(["zbm", graph_file, "--m", "1", "--method", "exhaustive",
                 "--json", str(jpath)]) == 0
    est = json.load(open(jpath))
    assert est["root"] == pytest.approx(z, rel=1e-9)
    capsys.readouterr()


def test_zbm_csv_row(graph_file, tmp_path, capsys):
    cpath = tmp_path / "row.csv"
    assert main(["zbm", graph_file, "--m", "2", "--method", "typeformula",
                 "--csv", str(cpath)]) == 0
    lines = open(cpath).read().strip().splitlines()
    assert lines[0] == "instance_id,M,method,value,root,stderr,runtime_ms"
    cells = lines[1].split(",")
    assert cells[1] == "2" and cells[2] == "typeformula"
    capsys.readouterr()


def test_spa_and_lct(graph_file, tmp_path, capsys):
    assert main(["spa", graph_file, "--restarts", "2"]) == 0
    out = capsys.readouterr().out
    assert "converged: True" in out
    lpath = tmp_path / "lct.json"
    assert main(["lct", graph_file, "--restarts", "1", "--tol", "1e-12",
                 "--json", str(lpath)]) == 0
    doc = json.load(open(lpath))
    assert doc["schema"] == "lct-1"
    capsys.readouterr()


def test_check_condition_on_single_edge_tree(capsys):
    code = main(["check-condition", "--topology", "tree", "--nodes", "2",
                 "--ensemble", "psd-random", "--seed", "3",
                 "--restarts", "1", "--tol", "1e-12"])
    assert code == 0
    out = capsys.readouterr().out
    assert "condition Z* > (2/3) * mass: True" in out
    alpha = float(out.split("alpha = ")[1].split(" ")[0])
    assert abs(alpha) < 1e-9


def test_bounds_near_identity(capsys):
    code = main(["bounds", "--topology", "fig3", "--ensemble",
                 "psd-near-identity", "--eta", "0.02", "--seed", "1",
                 "--restarts", "1", "--tol", "1e-12", "--mmax", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "VIOLATED" not in out


def test_graph_without_edges(tmp_path, capsys):
    # one isolated node of value 2: every route reduces to Z_B = Z = 2
    path = tmp_path / "isolated.nfg.json"
    nfg.save(nfg.make_graph("standard", [("f", [])], [],
                            {"f": np.array(2.0)}), path)
    for cmd in ("spa", "lct", "loopseries", "check-condition", "bounds"):
        assert main([cmd, str(path)]) == 0, cmd
        out = capsys.readouterr().out
        if cmd == "spa":
            assert "after 1 iterations (residual 0.000e+00" in out
            assert "Z_B = 2.0 + 0.0j" in out
        if cmd == "lct":
            assert "Z_B = 2.0\n" in out and "biorthogonality" not in out
    assert main(["exact", str(path)]) == 0
    assert capsys.readouterr().out == "Z = 2.0 + 0.0j\n"


def test_loopseries_csv(graph_file, tmp_path, capsys):
    cpath = tmp_path / "loops.csv"
    assert main(["loopseries", graph_file, "--restarts", "1",
                 "--tol", "1e-12", "--csv", str(cpath)]) == 0
    lines = open(cpath).read().strip().splitlines()
    assert lines[0] == "config,weight_re,weight_im"
    assert len(lines) > 1
    capsys.readouterr()


def test_cover_output(graph_file, tmp_path, capsys):
    jpath = tmp_path / "cover.nfg.json"
    assert main(["cover", graph_file, "--m", "2", "--seed", "5",
                 "--json", str(jpath)]) == 0
    cov = nfg.load(jpath)
    assert cov.n_nodes == 8 and cov.n_edges == 10
    capsys.readouterr()


def test_cover_builds_a_graph_only_for_json(graph_file, tmp_path, capsys,
                                            monkeypatch):
    # the printed Z is the named cover graph's, bit for bit
    g = nfg.load(graph_file)
    spec = cover.random_cover(g, 3, np.random.default_rng([5, 3]))
    cov = cover.build_cover(g, spec)
    z = nfg.partition_contract(cov)
    jpath = tmp_path / "cover.nfg.json"
    assert main(["cover", graph_file, "--m", "3", "--seed", "5",
                 "--json", str(jpath)]) == 0
    with_json = capsys.readouterr().out
    assert with_json == (f"degree-3 cover: {cov.n_nodes} nodes, "
                         f"{cov.n_edges} edges\n"
                         f"Z(cover) = {z.real!r} + {z.imag!r}j\n")
    assert jpath.read_text() == nfg.serialize(cov) + "\n"

    def refuse(*args):
        raise AssertionError("a cover graph was built")

    monkeypatch.setattr(cover, "build_cover", refuse)
    assert main(["cover", graph_file, "--m", "3", "--seed", "5"]) == 0
    assert capsys.readouterr().out == with_json


def test_validation_exit_code(tmp_path, capsys):
    choi = {"f1": np.diag([1.0, 1.0, 1.0, -1.0]), "f2": np.eye(4)}
    g = graph_with_choi(
        [("f1", ["e1", "e2"]), ("f2", ["e1", "e2"])],
        [("e1", ("f1", "f2"), 2), ("e2", ("f1", "f2"), 2)], choi)
    path, jpath = tmp_path / "weak.nfg.json", tmp_path / "v.json"
    nfg.save(g, path)
    assert main(["validate", str(path), "--json", str(jpath)]) == 2
    problems = [line[len("problem: "):] for line
                in capsys.readouterr().out.splitlines()
                if line.startswith("problem: ")]
    doc = json.load(open(jpath))
    assert doc == {"valid": False, "classification": "weak-sense",
                   "problems": problems}
    assert len(problems) == 1 and "f1" in problems[0]


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.nfg.json"
    path.write_text("{not json")
    assert main(["exact", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["exact", "DIR/missing.nfg.json"],
    ["exact", "DIR"],
    ["exact", "DIR/utf16.nfg.json"],
    ["gen", "--json", "DIR/missing/x.json"],
    ["experiment", "--instances", "1", "--mmax", "1", "--restarts", "1",
     "--csv", "DIR/missing/x.csv"],
    # each of these two works for seconds before it writes its output:
    # 5! ** 2 = 14 400 covers of fig3 take well over 10 s
    ["zbm", "--m", "5", "--method", "exhaustive", "--json",
     "DIR/missing/x.json"],
    ["experiment", "--instances", "20", "--csv", "DIR/missing/x.csv"],
], ids=["missing", "directory", "not-utf8", "gen-json", "experiment-csv",
        "zbm-json-before-the-work", "experiment-csv-before-the-work"])
def test_unusable_path_exits_2(argv, tmp_path, capsys):
    (tmp_path / "utf16.nfg.json").write_bytes(b"\xff\xfe{\x00}\x00")
    argv = [arg.replace("DIR", str(tmp_path)) for arg in argv]
    start = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(tmp_path) in err


def test_failed_command_leaves_an_existing_output_as_it_was(tmp_path,
                                                            capsys):
    path = tmp_path / "z.json"
    path.write_text("kept\n")
    # the output path is opened first; the overflow is found afterwards
    assert main(["exact", "--scale", "1e150", "--json", str(path)]) == 2
    assert "overflows a float" in capsys.readouterr().err
    assert path.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["--kind", "standard", "--ensemble", "positive-s-nfg"],
    ["--kind", "standard", "--ensemble", "psd-random"],
    ["--kind", "double-edge", "--ensemble", "positive-s-nfg"],
], ids=["standard-positive", "standard-psd", "double-edge-positive"])
def test_unitary_chain_refuses_what_it_cannot_build(argv, capsys):
    assert main(["exact", "--topology", "unitary-chain", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [["gen"], ["exact"]], ids=["gen", "exact"])
def test_closed_stdout_ends_quietly(argv):
    # the reading end is closed before the command starts, so its first
    # write to stdout fails, whether while printing (gen's long document)
    # or at the final flush (exact's one line)
    src = Path(nfg.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "bethecover.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


@pytest.mark.parametrize("argv,name", [
    (["experiment", "--instances", "0"], "instances"),
    (["experiment", "--instances", "-1"], "instances"),
    (["experiment", "--mmax", "0"], "m_max"),
    (["experiment", "--mmax", "-1"], "m_max"),
    (["bounds", "--mmax", "0"], "mmax"),
], ids=["instances-0", "instances-negative", "experiment-mmax-0",
        "experiment-mmax-negative", "bounds-mmax-0"])
def test_count_below_one_exits_2_at_once(argv, name, capsys):
    start = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{name} must be positive" in err


@pytest.mark.parametrize("argv,message", [
    (["cover", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["zbm", "--method", "montecarlo", "--m", "2", "--seed", "-1"],
     "seed must be nonnegative, got -1"),
    (["spa", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["exact", "--seed", "-2"], "seed must be nonnegative, got -2"),
    (["bounds", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["experiment", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["cover", "--m", "-1"], "cover degree must be positive"),
], ids=["cover", "zbm-montecarlo", "spa", "exact", "bounds", "experiment",
        "cover-degree"])
def test_negative_seed_or_degree_exits_2(argv, message, capsys):
    # numpy refuses a negative seed with a ValueError, which would end in
    # a traceback; the CLI refuses it first, with one line
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_capacity_exit_code(capsys):
    code = main(["exact", "--topology", "cycle", "--nodes", "30",
                 "--kind", "double-edge", "--ensemble", "psd-random",
                 "--seed", "0"])
    assert code == 3
    capsys.readouterr()


def test_non_convergence_exit_code(capsys):
    code = main(["lct", "--topology", "fig3", "--ensemble", "psd-random",
                 "--seed", "2", "--max-iter", "2", "--restarts", "1"])
    assert code == 4
    capsys.readouterr()


def test_experiment_deterministic(tmp_path, capsys):
    args = ["experiment", "--topology", "fig3", "--ensemble",
            "psd-near-identity", "--eta", "0.02", "--instances", "3",
            "--mmax", "2", "--seed", "1", "--restarts", "1"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(p1)]) == 0
    assert main(args + ["--csv", str(p2)]) == 0
    capsys.readouterr()
    b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
    assert b1 == b2
    text = b1.decode()
    assert text.splitlines()[0].startswith("seed,Z,Z_star,zbm_1,zbm_2")
    assert "# summary,M=1" in text


def test_experiment_row_identity(tmp_path, capsys):
    path = tmp_path / "e.csv"
    assert main(["experiment", "--topology", "fig3", "--ensemble",
                 "psd-random", "--instances", "2", "--mmax", "1",
                 "--seed", "2", "--restarts", "1", "--csv",
                 str(path)]) == 0
    capsys.readouterr()
    lines = [ln for ln in open(path).read().splitlines()
             if ln and not ln.startswith(("#", "seed"))]
    for ln in lines:
        cells = ln.split(",")
        z, zbm1 = float(cells[1]), float(cells[3])
        assert zbm1 == pytest.approx(z, rel=1e-9)


def test_experiment_defaults_are_the_study_settings(tmp_path, capsys):
    # with no SPA flag, the subcommand runs what run_experiment runs
    # with no spa_options, which is what the ensemble benchmark measures
    path = tmp_path / "e.csv"
    assert main(["experiment", "--topology", "fig3", "--ensemble",
                 "psd-random", "--seed", "4", "--instances", "3",
                 "--mmax", "2", "--samples", "50", "--csv",
                 str(path)]) == 0
    capsys.readouterr()
    spec = GeneratorSpec(topology="fig3", ensemble="psd-random", seed=4)
    want = exp_mod.result_to_csv(exp_mod.run_experiment(
        spec, 3, 2, master_seed=4, samples=50, spa_options=None))
    assert path.read_bytes() == want.encode()


def test_malformed_limits_exit_code(graph_file, monkeypatch, capsys):
    monkeypatch.setenv("BETHE_COVER_LIMITS", "enum=abc")
    assert main(["exact", graph_file]) == 2
    assert "BETHE_COVER_LIMITS" in capsys.readouterr().err


def test_unknown_limits_key_exit_code(graph_file, monkeypatch, capsys):
    monkeypatch.setenv("BETHE_COVER_LIMITS", "enum=16,depth=3")
    assert main(["exact", graph_file]) == 2
    assert "unknown BETHE_COVER_LIMITS key: 'depth'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("topology", ["cycle", "tree"])
def test_one_node_topology_exits_2(topology, capsys):
    assert main(["gen", "--topology", topology, "--nodes", "1"]) == 2
    assert "at least two nodes" in capsys.readouterr().err


def test_montecarlo_zero_samples_exit_code(graph_file, capsys):
    code = main(["zbm", graph_file, "--m", "2", "--method", "montecarlo",
                 "--samples", "0"])
    assert code == 2
    assert "samples" in capsys.readouterr().err


def test_spa_zero_max_iter_exit_code(graph_file, capsys):
    assert main(["spa", graph_file, "--max-iter", "0"]) == 2
    assert "max_iter" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,name", [
    ("--damping", "1.5", "damping"), ("--damping", "1.0", "damping"),
    ("--damping", "-0.5", "damping"), ("--damping", "nan", "damping"),
    ("--tol", "-1", "tol_fp"), ("--tol", "nan", "tol_fp"),
    ("--restarts", "0", "restarts")])
def test_spa_out_of_range_settings_exit_2_at_once(graph_file, capsys, flag,
                                                  value, name):
    start = time.monotonic()
    assert main(["spa", graph_file, flag, value]) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and name in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_experiment_zero_alphabet_exit_code(capsys):
    code = main(["experiment", "--topology", "fig3", "--alphabet", "0",
                 "--instances", "1", "--mmax", "1"])
    assert code == 2
    assert "alphabet" in capsys.readouterr().err


@pytest.mark.parametrize("method",
                         ["auto", "exhaustive", "montecarlo", "typeformula"])
def test_zbm_zero_degree_exit_code(graph_file, method, capsys):
    assert main(["zbm", graph_file, "--m", "0", "--method", method]) == 2
    assert "degree" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["experiment", "GRAPH", "--instances", "1", "--mmax", "1"],
    ["exact", "GRAPH", "--csv", "x.csv"],
    ["loopseries", "GRAPH", "--json", "x.json"],
    ["cover", "GRAPH", "--mmax", "2"],
    ["zbm", "GRAPH", "--identity-sigma"],
    ["bounds", "GRAPH", "--method", "montecarlo"],
    ["gen", "--topology", "custom-file"],
])
def test_undeclared_flag_exit_code(graph_file, argv, capsys):
    argv = [graph_file if a == "GRAPH" else a for a in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["spa", "--scale", "nan"],
    ["spa", "--eta", "nan", "--ensemble", "psd-near-identity"],
    ["exact", "--scale", "inf"],
])
def test_non_finite_generated_functions_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "non-finite entries" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["validate"], ["exact"], ["spa"],
                                  ["zbm", "--m", "2"]])
def test_non_finite_file_exits_2(argv, graph_file, capsys):
    doc = json.load(open(graph_file))
    doc["tensors"]["f2"]["data"][0][0] = float("nan")
    with open(graph_file, "w") as fh:
        json.dump(doc, fh)
    assert main([argv[0], graph_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert "tensors['f2'].data" in captured.err
    assert "nan" not in captured.out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, message", [
    (["exact", "--scale", "1e150"], "too large"),
    (["exact", "--scale", "1e300"], "too large"),
    (["exact", "--scale", "1e308"], "non-finite entries"),
    (["spa", "--scale", "1e300"], "too large"),
    (["loopseries", "--scale", "1e300"], "too large"),
    (["exact", "GRAPH"], "too large"),
    (["zbm", "--scale", "1e70", "--m", "2"], "too large"),
    (["zbm", "--scale", "1e70", "--m", "2", "--method", "exhaustive"],
     "too large"),
])
def test_overflowing_functions_exit_2(argv, message, graph_file, capsys):
    # GRAPH is a fig3 file with every entry scaled by 1e200; a numpy
    # warning fails the test
    doc = json.load(open(graph_file))
    for td in doc["tensors"].values():
        td["data"] = [[1e200 * re, 1e200 * im] for re, im in td["data"]]
    with open(graph_file, "w") as fh:
        json.dump(doc, fh)
    assert main([graph_file if a == "GRAPH" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and message in captured.err
    assert "nan" not in captured.out


@pytest.mark.parametrize("argv", [["--scale", "1e-60", "--mmax", "2"],
                                  ["--scale", "1e-40", "--mmax", "3"]])
def test_underflowing_bound_scale_exits_2(argv, capsys):
    # Z* ** M underflows to 0.0, so the bound ratio cannot be formed
    assert main(["bounds", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "too small" in captured.err


def test_long_cycle_is_not_refused(capsys):
    # every node's entries sum to about 2, so the product of those sums
    # overflows near 1024 nodes while Z stays near 1e-23
    argv = ["--topology", "cycle", "--kind", "standard",
            "--ensemble", "positive-s-nfg", "--nodes", "1100"]
    assert main(["gen", *argv]) == 0
    assert capsys.readouterr().out.startswith("{")
    z = nfg.partition_contract(gen(GeneratorSpec(
        topology="cycle", kind="standard", ensemble="positive-s-nfg",
        n=1100)))
    assert 0.0 < z.real < 1.0


def test_large_finite_scale_still_computes(capsys):
    assert main(["exact", "--scale", "1e70"]) == 0
    out = capsys.readouterr().out
    z = nfg.partition_exact(gen(GeneratorSpec(scale=1e70)))
    assert z.real == pytest.approx(3.1553e281, rel=1e-4)
    assert f"Z = {z.real!r}" in out


def test_small_scale_converges(capsys):
    # the SPA judges its normalizers relative to the local functions
    assert main(["spa", "--scale", "1e-3"]) == 0
    assert "converged: True after 18 iterations" in capsys.readouterr().out


class ReadRecorder(argparse.Namespace):
    """Namespace that records the attributes a handler reads."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.reads = set()

    def __getattribute__(self, name):
        value = super().__getattribute__(name)
        if not name.startswith("_") and name != "reads":
            super().__getattribute__("reads").add(name)
        return value


GENERATOR_DESTS = {"topology", "kind", "alphabet", "ensemble", "eta",
                   "scale", "nodes", "seed"}


def test_every_declared_flag_is_read(graph_file, capsys):
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    for name in sub.choices:
        if name == "experiment":
            argv = [name, "--instances", "1", "--mmax", "1",
                    "--restarts", "1"]
        else:
            argv = [name, graph_file]
        args = vars(parser.parse_args(argv))
        handler = args.pop("func")
        args.pop("command")
        rec = ReadRecorder(**args)
        assert handler(rec) == 0, name
        unread = set(args) - rec.reads
        if args.get("graph"):
            unread -= GENERATOR_DESTS
        assert not unread, f"{name} declares {sorted(unread)} but never " \
                           "reads them"
    capsys.readouterr()


def _set(*path_and_value):
    """Mutation of a graph document: set the entry at a key path."""
    *path, value = path_and_value

    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return mutate


def _drop(*path):
    """Mutation of a graph document: delete the entry at a key path."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return doc
    return mutate


def _unknown_axis(doc):
    doc["nodes"][0]["edges"][2] = "e9"
    doc["tensors"]["f1"]["axes"][2] = "e9"
    return doc


def _first_entry_part(part, value):
    """Mutation of a graph document: set one part of node f2's first
    entry, a diagonal entry of its matrix, whose imaginary part is 0."""
    def mutate(doc):
        doc["tensors"]["f2"]["data"][0][part] = value
        return doc
    return mutate


def _negative_alphabets(doc):
    # two parallel edges of alphabet -1: each node's data would be
    # reshaped to (-1, -1)
    return {"schema": "nfg-1", "kind": "standard",
            "nodes": [{"name": "a", "edges": ["x", "y"]},
                      {"name": "b", "edges": ["x", "y"]}],
            "edges": [{"id": e, "endpoints": ["a", "b"], "alphabet": -1}
                      for e in ("x", "y")],
            "tensors": {n: {"axes": ["x", "y"], "data": [[1.0, 0.0]]}
                        for n in ("a", "b")}}


MALFORMED = {
    # a field of the wrong JSON type
    "nodes-not-a-list": _set("nodes", 5),
    "edges-not-a-list": _set("edges", None),
    "node-not-an-object": _set("nodes", 0, "f1"),
    "node-edges-not-a-list": _set("nodes", 0, "edges", 7),
    "node-edge-entry-a-list": _set("nodes", 0, "edges", 0, ["e1"]),
    "node-name-a-list": _set("nodes", 0, "name", ["f1"]),
    "edge-not-an-object": _set("edges", 0, ["e1"]),
    "edge-id-a-list": _set("edges", 0, "id", ["e1"]),
    "endpoints-not-a-list": _set("edges", 0, "endpoints", 12),
    "endpoint-a-list": _set("edges", 0, "endpoints", 0, ["f1"]),
    "alphabet-a-string": _set("edges", 0, "alphabet", "abc"),
    "alphabet-null": _set("edges", 0, "alphabet", None),
    "alphabet-a-float": _set("edges", 0, "alphabet", 2.5),
    "alphabet-a-bool": _set("edges", 0, "alphabet", True),
    "alphabet-negative": _negative_alphabets,
    "tensors-not-an-object": _set("tensors", []),
    "tensor-not-an-object": _set("tensors", "f1", [1, 2]),
    "axes-not-a-list": _set("tensors", "f1", "axes", 3),
    "weak-sense-a-string": _set("weak_sense", "no"),
    # the remaining ParseError branches
    "top-level-a-list": lambda doc: [doc],
    "unsupported-schema": _set("schema", "nfg-0"),
    "unknown-kind": _set("kind", "triple-edge"),
    "node-without-name": _drop("nodes", 0, "name"),
    "edge-without-alphabet": _drop("edges", 0, "alphabet"),
    "one-endpoint": _set("edges", 0, "endpoints", ["f1"]),
    "missing-tensor": _drop("tensors", "f1"),
    "axis-of-unknown-edge": _unknown_axis,
    "short-data": _set("tensors", "f1", "data", [[1.0, 0.0]]),
    "entry-not-a-pair": _set("tensors", "f1", "data", 0, [1.0]),
    # read as a number, false would leave the entry's value unchanged
    "entry-part-a-bool": _first_entry_part(1, False),
    "entry-a-bool-pair": _set("tensors", "f2", "data", 0, [True, False]),
    "real-part-beyond-float": _first_entry_part(0, 10**400),
    "imag-part-beyond-float": _first_entry_part(1, 10**400),
    "self-loop": _set("edges", 0, "endpoints", ["f1", "f1"]),
}


@pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_document_exits_2(graph_file, mutate, capsys):
    doc = mutate(json.load(open(graph_file)))
    with open(graph_file, "w") as fh:
        json.dump(doc, fh)
    assert main(["exact", graph_file]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")


def test_malformed_field_names_its_location(graph_file, capsys):
    doc = json.load(open(graph_file))
    doc["edges"][3]["alphabet"] = 2.5
    with open(graph_file, "w") as fh:
        json.dump(doc, fh)
    assert main(["exact", graph_file]) == 2
    assert "(at edges[3].alphabet)" in capsys.readouterr().err


def _stdout_fields(text):
    """Each stdout line split at its first `` = ``, else at its first
    ``: ``, as label -> value."""
    out = {}
    for line in text.splitlines():
        for sep in (" = ", ": "):
            key, found, value = line.partition(sep)
            if found:
                out[key] = value
                break
    return out


def _complex(text):
    re, im = text.split(" + ")
    return [float(re), float(im.rstrip("j"))]


def test_spa_json_matches_stdout(graph_file, tmp_path, capsys):
    path = tmp_path / "spa.json"
    assert main(["spa", graph_file, "--restarts", "2",
                 "--json", str(path)]) == 0
    out = _stdout_fields(capsys.readouterr().out)
    doc = json.load(open(path))
    assert doc["converged"] is True
    assert f"after {doc['iterations']} iterations" in out["converged"]
    assert doc["restart"] == int(out["reported restart"])
    assert doc["damping_switched_at"] is None
    assert out["damping switch"] == "none"
    assert doc["zb"] == _complex(out["Z_B"])
    assert doc["z_f"] == {k: _complex(out[f"Z_f[{k}]"]) for k in doc["z_f"]}
    assert doc["z_e"] == {k: _complex(out[f"Z_e[{k}]"]) for k in doc["z_e"]}
    assert sorted(doc["z_f"]) == ["f1", "f2", "f3", "f4"]
    assert sorted(doc["z_e"]) == ["e1", "e2", "e3", "e4", "e5"]


def test_spa_reports_the_restart_and_its_damping_switch(tmp_path, capsys):
    # from seed 0 the three restarts of the swap graph reach Re Z_B = sqrt 2
    # within rounding, each after damping switched on at iteration 60, so
    # the earliest is reported
    g = nfg.make_graph(
        "standard", [("f1", ["e1", "e2"]), ("f2", ["e1", "e2"])],
        [("e1", ("f1", "f2"), 2), ("e2", ("f1", "f2"), 2)],
        {"f1": np.array([[0.0, 1.0], [1.0, 0.0]]), "f2": np.diag([1.0, 2.0])})
    graph, path = tmp_path / "swap.nfg.json", tmp_path / "spa.json"
    graph.write_text(nfg.serialize(g))
    assert main(["spa", str(graph), "--restarts", "3",
                 "--json", str(path)]) == 0
    out = _stdout_fields(capsys.readouterr().out)
    doc = json.load(open(path))
    assert doc["restart"] == 0 and out["reported restart"] == "0"
    assert doc["damping_switched_at"] == 60
    assert out["damping switch"] == "iteration 60"


def test_check_condition_json_matches_stdout(graph_file, tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["check-condition", graph_file, "--restarts", "1",
                 "--json", str(path)]) == 0
    out = _stdout_fields(capsys.readouterr().out)
    doc = json.load(open(path))
    assert doc["z_star"] == float(out["Z*"])
    assert doc["mass"] == float(out["absolute mass"])
    assert doc["alpha"] == float(out["alpha"].split(" ")[0])
    assert str(doc["condition"]) == out["condition Z* > (2/3) * mass"]


def test_bounds_json_matches_stdout(tmp_path, capsys):
    path = tmp_path / "b.json"
    assert main(["bounds", "--topology", "fig3", "--ensemble",
                 "psd-near-identity", "--seed", "1", "--restarts", "1",
                 "--mmax", "2", "--json", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    doc = json.load(open(path))
    alpha, z_star = lines[0].split("  (")[0].split("  Z* = ")
    assert doc["alpha"] == float(alpha[len("alpha = "):])
    assert doc["z_star"] == float(z_star)
    assert [ent["M"] for ent in doc["entries"]] == [1, 2]
    for ent, line in zip(doc["entries"], lines[1:]):
        lower, ratio, upper = line.split(": ")[1].split("  [")[0] \
            .split(" <= ")
        assert line.startswith(f"M={ent['M']}: ")
        assert [ent["lower"], ent["ratio"], ent["upper"]] == \
            [float(lower), float(ratio), float(upper)]
        assert ent["ok"] == line.endswith("[ok]")


@pytest.mark.parametrize("extra", [[], ["--identity-sigma"]])
def test_cover_degree_zero_exits_2(graph_file, extra, capsys):
    # cover_network refuses the (|E|, 0) cover either route draws
    assert main(["cover", graph_file, "--m", "0", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cover degree must be positive\n"


def test_cover_identity_sigma(graph_file, tmp_path, capsys):
    # the identity permutations give M disjoint copies: Z(cover) = Z**M
    zpath, jpath = tmp_path / "z.json", tmp_path / "cover.nfg.json"
    assert main(["exact", graph_file, "--json", str(zpath)]) == 0
    z = json.load(open(zpath))["z"][0]
    assert main(["cover", graph_file, "--m", "3", "--identity-sigma",
                 "--json", str(jpath)]) == 0
    out = _stdout_fields(capsys.readouterr().out)
    assert _complex(out["Z(cover)"])[0] == pytest.approx(z ** 3, rel=1e-9)
    cov = nfg.load(jpath)
    assert cov.n_nodes == 12 and cov.n_edges == 15
    g = nfg.load(graph_file)
    by_id = {e.eid: e for e in g.edges}
    for e in cov.edges:
        # copy m of an edge joins copy m of both its endpoints
        base = by_id[e.eid.split(".")[0]]
        copy = e.eid.split(".")[1]
        assert (cov.node_names[e.head], cov.node_names[e.tail]) == (
            f"{g.node_names[base.head]}.{copy}",
            f"{g.node_names[base.tail]}.{copy}")
