"""Command-line interface: subcommands, exit codes, determinism."""

import argparse
import json

import numpy as np
import pytest

from bethecover import nfg
from bethecover.cli import build_parser, main

from conftest import graph_with_choi


@pytest.fixture
def graph_file(tmp_path, capsys):
    path = tmp_path / "g.nfg.json"
    assert main(["gen", "--topology", "fig3", "--seed", "7",
                 "--json", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_gen_validate_exact(graph_file, capsys):
    assert main(["validate", graph_file]) == 0
    out = capsys.readouterr().out
    assert "strict-sense" in out
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


def test_validation_exit_code(tmp_path, capsys):
    choi = {"f1": np.diag([1.0, 1.0, 1.0, -1.0]), "f2": np.eye(4)}
    g = graph_with_choi(
        [("f1", ["e1", "e2"]), ("f2", ["e1", "e2"])],
        [("e1", ("f1", "f2"), 2), ("e2", ("f1", "f2"), 2)], choi)
    path = tmp_path / "weak.nfg.json"
    nfg.save(g, path)
    assert main(["validate", str(path)]) == 2
    capsys.readouterr()


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.nfg.json"
    path.write_text("{not json")
    assert main(["exact", str(path)]) == 2
    capsys.readouterr()


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


def test_malformed_limits_exit_code(graph_file, monkeypatch, capsys):
    monkeypatch.setenv("BETHE_COVER_LIMITS", "enum=abc")
    assert main(["exact", graph_file]) == 2
    assert "BETHE_COVER_LIMITS" in capsys.readouterr().err


def test_montecarlo_zero_samples_exit_code(graph_file, capsys):
    code = main(["zbm", graph_file, "--m", "2", "--method", "montecarlo",
                 "--samples", "0"])
    assert code == 2
    assert "samples" in capsys.readouterr().err


def test_spa_zero_max_iter_exit_code(graph_file, capsys):
    assert main(["spa", graph_file, "--max-iter", "0"]) == 2
    assert "max_iter" in capsys.readouterr().err


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
