"""Command-line interface.

Subcommands: gen, validate, exact, spa, lct, loopseries, cover, zbm,
check-condition, bounds, experiment.  Each one reads a ``.nfg.json``
graph file and/or generator flags, prints a human summary to stdout and
optionally writes machine output via ``--json``/``--csv``.

Exit codes: 0 success, 2 validation failure, 3 capacity error, 4
non-convergence.
"""

import argparse
import json
import sys

import numpy as np

from . import cover as cover_mod
from . import experiment as exp_mod
from . import lct as lct_mod
from . import nfg
from .errors import (BetheCoverError, BigCountError, CapacityError,
                     NonConvergenceError)
from .generators import ENSEMBLES, TOPOLOGIES, GeneratorSpec, gen
from .spa import spa_run


def _add_graph_args(p):
    p.add_argument("graph", nargs="?", default=None,
                   help="path to a .nfg.json file (omit to generate)")
    p.add_argument("--topology", default="fig3", choices=TOPOLOGIES)
    p.add_argument("--kind", default="double-edge",
                   choices=[nfg.STANDARD, nfg.DOUBLE])
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--ensemble", default="psd-random", choices=ENSEMBLES)
    p.add_argument("--eta", type=float, default=0.02)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--nodes", type=int, default=4,
                   help="node count for cycle/tree topologies")
    p.add_argument("--seed", type=int, default=0)


def _add_spa_args(p):
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--damping", type=float, default=0.0)


def _add_output_args(p):
    p.add_argument("--json", metavar="PATH", default=None)
    p.add_argument("--csv", metavar="PATH", default=None)


def _graph_of(args):
    if args.graph:
        return nfg.load(args.graph)
    spec = GeneratorSpec(topology=args.topology, kind=args.kind,
                         alphabet=args.alphabet, ensemble=args.ensemble,
                         eta=args.eta, scale=args.scale, n=args.nodes,
                         seed=args.seed)
    return gen(spec)


def _spa_of(args, g):
    rep = spa_run(g, max_iter=args.max_iter, tol_fp=args.tol,
                  damping=args.damping, restarts=args.restarts,
                  seed=args.seed)
    if not rep.converged:
        raise NonConvergenceError(
            f"sum-product did not converge within {args.max_iter} "
            f"iterations over {args.restarts} restarts "
            f"(final residual {rep.residual:.3e})")
    return rep


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _instance_id(args):
    return args.graph if args.graph else (
        f"{args.topology}:{args.kind}:{args.ensemble}:seed={args.seed}")


# ------------------------------------------------------------------ #
# subcommands                                                         #
# ------------------------------------------------------------------ #

def cmd_gen(args):
    g = _graph_of(args)
    doc = nfg.serialize(g)
    if args.json:
        _write(args.json, doc)
        print(f"wrote {args.json}: {g.kind}, {g.n_nodes} nodes, "
              f"{g.n_edges} edges")
    else:
        print(doc)
    return 0


def cmd_validate(args):
    g = _graph_of(args)
    report = nfg.validate(g)
    print(f"kind: {report.kind}")
    print(f"classification: {report.classification}")
    print(f"endpoint order: {'ok' if report.endpoint_order_ok else 'BAD'}")
    for name, st in report.node_status.items():
        print(f"node {name}: hermitian defect {st.hermitian_defect:.3e}, "
              f"min eigenvalue {st.min_eigenvalue:.3e}, "
              f"psd {'yes' if st.psd else 'no'}")
    for problem in report.problems:
        print(f"problem: {problem}")
    if args.json:
        _write(args.json, json.dumps({
            "valid": report.valid,
            "classification": report.classification,
            "problems": report.problems}, indent=1))
    print("valid" if report.valid else "INVALID")
    return 0 if report.valid else 2


def cmd_exact(args):
    g = _graph_of(args)
    z = nfg.partition_exact(g)
    print(f"Z = {z.real!r} + {z.imag!r}j")
    if args.json:
        _write(args.json, json.dumps({"z": [z.real, z.imag]}))
    return 0


def cmd_spa(args):
    g = _graph_of(args)
    rep = spa_run(g, max_iter=args.max_iter, tol_fp=args.tol,
                  damping=args.damping, restarts=args.restarts,
                  seed=args.seed)
    print(f"converged: {rep.converged} after {rep.iterations} iterations "
          f"(residual {rep.residual:.3e}, "
          f"{rep.restarts_converged}/{rep.restarts_used} restarts, "
          f"damping {rep.damping_used})")
    if rep.converged:
        for name, v in rep.z_f.items():
            print(f"Z_f[{name}] = {v.real!r} + {v.imag!r}j")
        for eid, v in rep.z_e.items():
            print(f"Z_e[{eid}] = {v.real!r} + {v.imag!r}j")
        if rep.zb_defined:
            print(f"Z_B = {rep.zb_spa.real!r} + {rep.zb_spa.imag!r}j")
        else:
            print("Z_B undefined (an edge normalizer vanishes)")
    if args.json and rep.converged:
        _write(args.json, json.dumps({
            "converged": rep.converged,
            "iterations": rep.iterations,
            "zb": ([rep.zb_spa.real, rep.zb_spa.imag]
                   if rep.zb_defined else None),
            "z_f": {k: [v.real, v.imag] for k, v in rep.z_f.items()},
            "z_e": {k: [v.real, v.imag] for k, v in rep.z_e.items()},
        }, indent=1))
    return 0 if rep.converged else 4


def cmd_lct(args):
    g = _graph_of(args)
    rep = _spa_of(args, g)
    lr = lct_mod.transform(g, rep)
    d = lr.diagnostics
    worst = max(max(v) for v in d["biorthogonality"].values())
    print(f"Z_B = {lr.zb_spa.real!r}")
    print(f"transformed all-zero value = {lr.g0.real!r} + {lr.g0.imag!r}j "
          f"(relative gap {d['g0_vs_bethe_rel']:.3e})")
    print(f"worst biorthogonality residual: {worst:.3e}")
    print(f"fragile edges: {d['fragile_edges'] or 'none'}")
    if args.json:
        _write(args.json, lct_mod.serialize_result(lr))
    return 0


def cmd_loopseries(args):
    g = _graph_of(args)
    rep = _spa_of(args, g)
    lr = lct_mod.transform(g, rep)
    terms = lct_mod.loop_series(lr)
    total = sum(w for _, w in terms)
    print(f"{len(terms)} correction terms; sum = "
          f"{total.real!r} + {total.imag!r}j")
    lines = ["config,weight_re,weight_im"]
    for cfg, w in terms:
        key = ";".join(f"{eid}={cfg[eid]}" for eid in sorted(cfg))
        lines.append(f"{key},{w.real!r},{w.imag!r}")
    if args.csv:
        _write(args.csv, "\n".join(lines))
    else:
        for line in lines[1:21]:
            print(line)
        if len(terms) > 20:
            print(f"... ({len(terms) - 20} more)")
    return 0


def cmd_cover(args):
    g = _graph_of(args)
    if args.identity_sigma:
        spec = cover_mod.identity_cover(g, args.m)
    else:
        rng = np.random.default_rng([args.seed, args.m])
        spec = cover_mod.random_cover(g, args.m, rng)
    cov = cover_mod.build_cover(g, spec)
    z = nfg.partition_contract(cov)
    print(f"degree-{args.m} cover: {cov.n_nodes} nodes, {cov.n_edges} edges")
    print(f"Z(cover) = {z.real!r} + {z.imag!r}j")
    if args.json:
        _write(args.json, nfg.serialize(cov))
    return 0


def cmd_zbm(args):
    g = _graph_of(args)
    est, ms = exp_mod.timed_zbm(g, args.m, args.method,
                                samples=args.samples, seed=args.seed)
    print(f"method: {est.method}")
    print(f"(Z_B,{args.m})^{args.m} = {est.power_value!r}")
    print(f"Z_B,{args.m} = {est.root!r}")
    if est.stderr is not None:
        print(f"stderr: {est.stderr!r}")
    if args.csv:
        _write(args.csv, exp_mod.ZBM_CSV_HEADER + "\n"
               + exp_mod.zbm_csv_row(_instance_id(args), est, ms))
    if args.json:
        _write(args.json, json.dumps({
            "method": est.method, "M": est.degree,
            "value": est.power_value, "root": est.root,
            "stderr": est.stderr}))
    return 0


def cmd_check_condition(args):
    g = _graph_of(args)
    rep = _spa_of(args, g)
    lr = lct_mod.transform(g, rep)
    c = lct_mod.check_condition(lr)
    print(f"Z* = {c.z_star!r}")
    print(f"absolute mass = {c.mass!r}")
    print(f"condition Z* > (2/3) * mass: {c.condition}")
    print(f"alpha = {c.alpha!r} (alpha < 1/2: {c.alpha_condition})")
    if args.json:
        _write(args.json, json.dumps({
            "z_star": c.z_star, "mass": c.mass, "alpha": c.alpha,
            "condition": c.condition}))
    return 0


def cmd_bounds(args):
    g = _graph_of(args)
    rep = _spa_of(args, g)
    lr = lct_mod.transform(g, rep)
    c = lct_mod.check_condition(lr)
    ests = [exp_mod.zbm_estimate(g, m, samples=args.samples, seed=args.seed)
            for m in range(1, args.mmax + 1)]
    report = cover_mod.bethe_cover_bounds(ests, c.z_star, c.alpha)
    print(f"alpha = {c.alpha!r}  Z* = {c.z_star!r}  "
          f"(condition passes: {c.condition})")
    for ent in report.entries:
        print(f"M={ent.degree}: {ent.lower!r} <= {ent.ratio_power!r} <= "
              f"{ent.upper!r}  [{'ok' if ent.ok else 'VIOLATED'}]")
    if args.json:
        _write(args.json, json.dumps({
            "alpha": c.alpha, "z_star": c.z_star,
            "entries": [{"M": ent.degree, "ratio": ent.ratio_power,
                         "lower": ent.lower, "upper": ent.upper,
                         "ok": ent.ok} for ent in report.entries]},
            indent=1))
    return 0


def cmd_experiment(args):
    spec = GeneratorSpec(topology=args.topology, kind=args.kind,
                         alphabet=args.alphabet, ensemble=args.ensemble,
                         eta=args.eta, scale=args.scale, n=args.nodes,
                         seed=args.seed)
    result = exp_mod.run_experiment(
        spec, args.instances, args.mmax, samples=args.samples,
        master_seed=args.seed,
        spa_options=dict(max_iter=args.max_iter, tol_fp=args.tol,
                         damping=args.damping, restarts=args.restarts))
    text = exp_mod.result_to_csv(result)
    if args.csv:
        _write(args.csv, text)
        print(f"wrote {args.csv}: {len(result.rows)} rows, "
              f"{result.excluded} excluded")
    else:
        sys.stdout.write(text)
    return 0


# ------------------------------------------------------------------ #

def build_parser():
    parser = argparse.ArgumentParser(
        prog="bethecover",
        description="Partition functions, sum-product fixed points, "
                    "loop-calculus transforms and graph covers for "
                    "normal factor graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("gen", cmd_gen, False, False),
        ("validate", cmd_validate, False, False),
        ("exact", cmd_exact, False, False),
        ("spa", cmd_spa, True, False),
        ("lct", cmd_lct, True, False),
        ("loopseries", cmd_loopseries, True, False),
        ("cover", cmd_cover, False, True),
        ("zbm", cmd_zbm, False, True),
        ("check-condition", cmd_check_condition, True, False),
        ("bounds", cmd_bounds, True, True),
        ("experiment", cmd_experiment, True, True),
    ]
    for name, fn, spa_args, zbm_args in specs:
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        _add_graph_args(p)
        _add_output_args(p)
        if spa_args:
            _add_spa_args(p)
        if zbm_args:
            p.add_argument("--m", type=int, default=1)
            p.add_argument("--mmax", type=int, default=3)
            p.add_argument("--samples", type=int, default=2000)
            p.add_argument("--method", default="auto",
                           choices=["auto", "exhaustive", "montecarlo",
                                    "typeformula"])
            p.add_argument("--identity-sigma", action="store_true")
        if name == "experiment":
            p.add_argument("--instances", type=int, default=100)
    return parser


_EXIT_CAPACITY = (CapacityError, BigCountError)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _EXIT_CAPACITY as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4
    except BetheCoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
