"""Batch experiment harness: per-instance partition functions, Bethe
values, degree-M cover estimates and the dominance condition, emitted as
deterministic CSV."""

import io
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cover import zbm_exhaustive, zbm_montecarlo, zbm_typeformula
from .errors import BetheCoverError, CapacityError, StructuralError
from .generators import gen
from .lct import check_condition, transform
from .nfg import partition_exact
from .spa import spa_run

# exhaustive/typeformula estimates are only attempted up to this degree;
# above it the Monte-Carlo estimator takes over
MAX_DIRECT_DEGREE = 3
# Monte-Carlo covers per estimate when the caller names no count
SAMPLES = 2000
# spa_run settings of the study's rows, on top of spa_run's own defaults;
# the experiment subcommand's defaults too
STUDY_SPA = dict(restarts=2, tol_fp=1e-12)


@dataclass
class ExperimentRow:
    seed: int
    z: float = None
    z_star: float = None
    zbm: dict = field(default_factory=dict)        # degree -> root value
    dev: dict = field(default_factory=dict)        # degree -> (zbm-Z*)/Z*
    condition: bool = None
    alpha: float = None
    spa_converged: bool = False
    lct_applicable: bool = False


@dataclass
class ExperimentResult:
    rows: list
    m_max: int
    excluded: int
    mean_dev: dict    # degree -> mean of dev over included rows
    std_dev: dict     # degree -> standard deviation over included rows
    deciles: dict     # degree -> list of (quantile, value)


def zbm_estimate(g, degree, samples=SAMPLES, seed=0):
    """Pick an estimator for one degree: exhaustive for degree one, the
    type formula up to ``MAX_DIRECT_DEGREE`` unless it is refused by the
    contraction cap, Monte-Carlo beyond."""
    if degree == 1:
        return zbm_exhaustive(g, 1)
    if degree <= MAX_DIRECT_DEGREE:
        try:
            return zbm_typeformula(g, degree)
        except CapacityError:
            pass
    return zbm_montecarlo(g, degree, samples=samples, seed=seed)


def run_instance(base_spec, index, master_seed, m_max, samples,
                 spa_options=None):
    spec = replace(base_spec, seed=[master_seed, index])
    g = gen(spec)
    row = ExperimentRow(seed=index)
    z = partition_exact(g)
    row.z = z.real
    rep = spa_run(g, seed=int(1 + index),
                  **{**STUDY_SPA, **(spa_options or {})})
    row.spa_converged = rep.converged and rep.zb_defined
    if row.spa_converged:
        row.z_star = rep.zb_spa.real
        try:
            lr = transform(g, rep)
            cond = check_condition(lr)
            row.lct_applicable = True
            row.condition = cond.condition
            row.alpha = cond.alpha
        except BetheCoverError:
            row.lct_applicable = False
    for degree in range(1, m_max + 1):
        est = zbm_estimate(g, degree, samples=samples,
                           seed=master_seed * 1000003 + index)
        row.zbm[degree] = est.root
        if row.z_star is not None and row.z_star != 0.0:
            row.dev[degree] = (est.root - row.z_star) / row.z_star
    return row


def run_experiment(base_spec, instances, m_max, master_seed,
                   samples=SAMPLES, spa_options=None):
    """One row per instance plus summary statistics of the relative
    deviation (Z_{B,M} - Z*) / Z* over the converged rows.

    Instance i is generated from ``base_spec`` with seed ``[master_seed,
    i]``; ``spa_options`` override :data:`STUDY_SPA` for every row."""
    for name, count in (("instances", instances), ("m_max", m_max)):
        if count < 1:
            raise StructuralError(f"{name} must be positive, got {count}")
    rows = [run_instance(base_spec, i, master_seed, m_max, samples,
                         spa_options)
            for i in range(instances)]
    included = [r for r in rows if r.spa_converged]
    mean_dev, std_dev, deciles = {}, {}, {}
    quantiles = [q / 10.0 for q in range(1, 10)]
    for degree in range(1, m_max + 1):
        devs = np.array([r.dev[degree] for r in included
                         if degree in r.dev])
        if devs.size:
            mean_dev[degree] = float(devs.mean())
            std_dev[degree] = float(devs.std(ddof=1)) if devs.size > 1 \
                else 0.0
            deciles[degree] = [(q, float(np.quantile(devs, q)))
                               for q in quantiles]
        else:
            mean_dev[degree] = std_dev[degree] = None
            deciles[degree] = []
    return ExperimentResult(rows=rows, m_max=m_max,
                            excluded=len(rows) - len(included),
                            mean_dev=mean_dev, std_dev=std_dev,
                            deciles=deciles)


# ------------------------------------------------------------------ #
# CSV                                                                 #
# ------------------------------------------------------------------ #

def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def result_to_csv(result):
    """Deterministic CSV text: header, one row per instance, then a
    commented summary block (mean/std and decile table per degree)."""
    m_max = result.m_max
    header = (["seed", "Z", "Z_star"]
              + [f"zbm_{m}" for m in range(1, m_max + 1)]
              + [f"dev_{m}" for m in range(1, m_max + 1)]
              + ["condition", "alpha", "spa_converged", "lct_applicable"])
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for r in result.rows:
        cells = [r.seed, r.z, r.z_star]
        cells += [r.zbm.get(m) for m in range(1, m_max + 1)]
        cells += [r.dev.get(m) for m in range(1, m_max + 1)]
        cells += [r.condition, r.alpha, r.spa_converged, r.lct_applicable]
        out.write(",".join(_fmt(c) for c in cells) + "\n")
    out.write(f"# excluded_non_converged,{result.excluded}\n")
    for m in range(1, m_max + 1):
        out.write(f"# summary,M={m},mean_dev,{_fmt(result.mean_dev[m])},"
                  f"std_dev,{_fmt(result.std_dev[m])}\n")
    for m in range(1, m_max + 1):
        for q, v in result.deciles[m]:
            out.write(f"# cdf,M={m},q={q:.1f},{_fmt(v)}\n")
    return out.getvalue()


def zbm_csv_row(instance_id, est, runtime_ms):
    """One estimator outcome in the cover-results CSV row format."""
    return ",".join(_fmt(v) for v in [
        instance_id, est.degree, est.method, est.power_value, est.root,
        est.stderr if est.stderr is not None else "",
        int(runtime_ms)])


ZBM_CSV_HEADER = "instance_id,M,method,value,root,stderr,runtime_ms"


def timed_zbm(g, degree, method, samples, seed):
    t0 = time.perf_counter()
    if method == "exhaustive":
        est = zbm_exhaustive(g, degree)
    elif method == "typeformula":
        est = zbm_typeformula(g, degree)
    elif method == "montecarlo":
        est = zbm_montecarlo(g, degree, samples=samples, seed=seed)
    elif method == "auto":
        est = zbm_estimate(g, degree, samples=samples, seed=seed)
    else:
        raise ValueError(f"unknown zbm method {method!r}")
    ms = (time.perf_counter() - t0) * 1000.0
    return est, ms
