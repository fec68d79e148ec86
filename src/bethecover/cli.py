"""Command-line interface.

Subcommands: gen, validate, exact, spa, lct, loopseries, cover, zbm,
check-condition, bounds, experiment.  Each one reads a ``.nfg.json``
graph file or generator flags (``experiment`` generator flags only),
prints a human summary to stdout and optionally writes machine output
via ``--json`` or ``--csv``.  A subcommand declares only the flags it
reads.

Exit codes: 0 success, 2 validation failure (also a path that cannot be
read or written), 3 capacity error, 4 non-convergence, 141 stdout closed
by its reader.
"""

import argparse
import inspect
import json
import os
import sys

import numpy as np

from . import cover as cover_mod
from . import experiment as exp_mod
from . import lct as lct_mod
from . import nfg
from .errors import (BetheCoverError, CapacityError, NonConvergenceError,
                     StructuralError, ValidationError)
from .generators import ENSEMBLES, TOPOLOGIES, GeneratorSpec, gen
from .spa import spa_run


def _add_graph_args(p, from_file):
    if from_file:
        p.add_argument("graph", nargs="?", default=None,
                       help="path to a .nfg.json file (omit to generate)")
    spec = GeneratorSpec()
    p.add_argument("--topology", default=spec.topology, choices=TOPOLOGIES)
    p.add_argument("--kind", default=spec.kind,
                   choices=[nfg.STANDARD, nfg.DOUBLE])
    p.add_argument("--alphabet", type=int, default=spec.alphabet)
    p.add_argument("--ensemble", default=spec.ensemble, choices=ENSEMBLES)
    p.add_argument("--eta", type=float, default=spec.eta)
    p.add_argument("--scale", type=float, default=spec.scale)
    p.add_argument("--nodes", type=int, default=spec.n,
                   help="node count for cycle/tree topologies")
    p.add_argument("--seed", type=int, default=spec.seed)


# SPA flag -> the spa_run keyword it sets, which is also its dest; the
# flag's type and default are those of the keyword's default
_SPA = {"--tol": "tol_fp", "--max-iter": "max_iter",
        "--restarts": "restarts", "--damping": "damping"}
_SPA_DEFAULTS = {name: p.default for name, p
                 in inspect.signature(spa_run).parameters.items()}

_FLAGS = {
    "--json": dict(metavar="PATH", default=None),
    "--csv": dict(metavar="PATH", default=None),
    **{flag: dict(dest=key, type=type(_SPA_DEFAULTS[key]),
                  default=_SPA_DEFAULTS[key])
       for flag, key in _SPA.items()},
    "--m": dict(type=int, default=1),
    "--mmax": dict(type=int, default=3),
    "--samples": dict(type=int, default=exp_mod.SAMPLES),
    "--method": dict(default="auto", choices=["auto", "exhaustive",
                                              "montecarlo", "typeformula"]),
    "--identity-sigma": dict(action="store_true"),
    "--instances": dict(type=int, default=100),
}


def _spec_of(args):
    return GeneratorSpec(topology=args.topology, kind=args.kind,
                         alphabet=args.alphabet, ensemble=args.ensemble,
                         eta=args.eta, scale=args.scale, n=args.nodes,
                         seed=args.seed)


def _graph_of(args):
    return nfg.load(args.graph) if args.graph else gen(_spec_of(args))


def _spa_options(args):
    """The spa_run keywords the SPA flags set."""
    return {key: getattr(args, key) for key in _SPA.values()}


def _transform_of(args, g):
    """The LCT of ``g`` at its SPA fixed point; exit 4 if none converged."""
    rep = spa_run(g, seed=args.seed, **_spa_options(args))
    if not rep.converged:
        raise NonConvergenceError(
            f"sum-product did not converge within {args.max_iter} "
            f"iterations over {args.restarts} restarts "
            f"(final residual {rep.residual:.3e})")
    return lct_mod.transform(g, rep)


def _write(path, text, mode="w"):
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text if not text or text.endswith("\n")
                     else text + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: "
                              f"{exc.strerror or exc}") from exc


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
    rep = spa_run(g, seed=args.seed, **_spa_options(args))
    print(f"converged: {rep.converged} after {rep.iterations} iterations "
          f"(residual {rep.residual:.3e}, "
          f"{rep.restarts_converged}/{rep.restarts_used} restarts, "
          f"damping {rep.damping_used})")
    print(f"reported restart: {rep.restart}")
    print("damping switch: " + ("none" if rep.damping_switched_at is None
                                else f"iteration {rep.damping_switched_at}"))
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
            "restart": rep.restart,
            "damping_switched_at": rep.damping_switched_at,
            "zb": ([rep.zb_spa.real, rep.zb_spa.imag]
                   if rep.zb_defined else None),
            "z_f": {k: [v.real, v.imag] for k, v in rep.z_f.items()},
            "z_e": {k: [v.real, v.imag] for k, v in rep.z_e.items()},
        }, indent=1))
    return 0 if rep.converged else 4


def cmd_lct(args):
    g = _graph_of(args)
    lr = _transform_of(args, g)
    d = lr.diagnostics
    print(f"Z_B = {lr.zb_spa.real!r}")
    print(f"transformed all-zero value = {lr.g0.real!r} + {lr.g0.imag!r}j "
          f"(relative gap {d['g0_vs_bethe_rel']:.3e})")
    if d["biorthogonality"]:   # a graph without edges has no matrix pairs
        worst = max(max(v) for v in d["biorthogonality"].values())
        print(f"worst biorthogonality residual: {worst:.3e}")
    print(f"fragile edges: {d['fragile_edges'] or 'none'}")
    if args.json:
        _write(args.json, lct_mod.serialize_result(lr))
    return 0


def cmd_loopseries(args):
    g = _graph_of(args)
    lr = _transform_of(args, g)
    terms = lct_mod.loop_series(lr)
    total = sum(w for _, w in terms)
    print(f"{len(terms)} correction terms; sum = "
          f"{total.real!r} + {total.imag!r}j")
    # an axis index shows as x, or as the pair (x, x') of a double edge
    shown = [(e.eid, i, None if g.kind == nfg.STANDARD else e.alphabet)
             for i, e in sorted(enumerate(g.edges), key=lambda p: p[1].eid)]
    lines = ["config,weight_re,weight_im"]
    for cfg, w in terms:
        key = ";".join(f"{eid}={cfg[i] if n is None else divmod(cfg[i], n)}"
                       for eid, i, n in shown)
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
    # checked before the degree seeds the random cover's generator
    if args.m < 1:
        raise StructuralError("cover degree must be positive")
    g = _graph_of(args)
    if args.identity_sigma:
        sigma = cover_mod.identity_cover(g, args.m)
    else:
        rng = np.random.default_rng([args.seed, args.m])
        sigma = cover_mod.random_cover(g, args.m, rng)
    z = nfg.contract_network(cover_mod.cover_network(g, sigma))
    print(f"degree-{args.m} cover: {g.n_nodes * args.m} nodes, "
          f"{g.n_edges * args.m} edges")
    print(f"Z(cover) = {z.real!r} + {z.imag!r}j")
    if args.json:
        _write(args.json, nfg.serialize(cover_mod.build_cover(g, sigma)))
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
    lr = _transform_of(args, g)
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
    if args.mmax < 1:
        raise StructuralError(f"mmax must be positive, got {args.mmax}")
    g = _graph_of(args)
    lr = _transform_of(args, g)
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
    result = exp_mod.run_experiment(
        _spec_of(args), args.instances, args.mmax, master_seed=args.seed,
        samples=args.samples, spa_options=_spa_options(args))
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

    # name, handler, takes a graph file, flags beyond the generator flags
    specs = [
        ("gen", cmd_gen, True, ("--json",)),
        ("validate", cmd_validate, True, ("--json",)),
        ("exact", cmd_exact, True, ("--json",)),
        ("spa", cmd_spa, True, ("--json", *_SPA)),
        ("lct", cmd_lct, True, ("--json", *_SPA)),
        ("loopseries", cmd_loopseries, True, ("--csv", *_SPA)),
        ("cover", cmd_cover, True, ("--json", "--m", "--identity-sigma")),
        ("zbm", cmd_zbm, True,
         ("--json", "--csv", "--m", "--samples", "--method")),
        ("check-condition", cmd_check_condition, True, ("--json", *_SPA)),
        ("bounds", cmd_bounds, True,
         ("--json", *_SPA, "--mmax", "--samples")),
        ("experiment", cmd_experiment, False,
         ("--csv", *_SPA, "--mmax", "--samples", "--instances")),
    ]
    for name, fn, from_file, flags in specs:
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        _add_graph_args(p, from_file)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    # experiment runs the study's SPA settings by default, as
    # experiment.run_instance does
    sub.choices["experiment"].set_defaults(**exp_mod.STUDY_SPA)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy seeds its generators with nonnegative integers only
        if args.seed < 0:
            raise StructuralError(
                f"seed must be nonnegative, got {args.seed}")
        # claimed before the work, so an unwritable path is refused at once;
        # appending nothing keeps an existing file until the final write
        for path in (getattr(args, "json", None), getattr(args, "csv", None)):
            if path:
                _write(path, "", mode="a")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CapacityError as exc:
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
