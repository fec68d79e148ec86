"""The three benchmark workloads.

Each workload is built from a seed (that is its set-up: it generates and,
where the user would read a file, serializes the inputs), runs one op per
call of :meth:`op`, and judges an op's result afterwards with
:meth:`check`, which never runs inside the timed region.  Ops call the
package through module attributes (``experiment.run_instance``, not a
name imported here) so that the traced run's wrappers see them.

Why these three:

* ``ensemble`` -- one row of the paper's study (``bethecover
  experiment``).  Time goes to node validation (the eigensolver) and the
  M = 3 type formula; contraction is one network of large stacked tensors
  per degree.
* ``bounds`` -- ``bethecover validate`` + ``loopseries`` + ``bounds
  --mmax 2`` on one serialized file.  Time goes to the sum-product
  algorithm, validation and the loop series; no Monte-Carlo and no M = 3.
* ``covers`` -- a degree sweep over sampled and enumerated covers.  Time
  goes to cover construction and contraction planning on many networks of
  8-32 nodes with small tensors; no SPA, validation only in set-up.
"""

import math

from bethecover import cover, experiment, generators, lct, nfg, spa

# Relative tolerances of the reference comparison.  Exact routes admit a
# reordered sum (about 1e-15) but not a Monte-Carlo stand-in: on the
# near-identity ensemble Z, Z_B2 and Z_B3 differ by only ~1e-8 and a
# 2000-sample estimate lands within ~1e-9 of the exact value.  Values read
# off an SPA fixed point (converged to 1e-9 or 1e-12) admit a different
# path to the same fixed point.
EXACT_RTOL = 1e-11
FIXED_POINT_RTOL = 1e-6


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def positive(x):
    return math.isfinite(x) and x > 0.0


def sandwich_problems(zbm, z_star, alpha, slack=1e-6):
    """The paper's bound 1 - sum_{j<=M} alpha^j <= (Z_BM/Z*)^M <=
    sum_{j<=M} alpha^j, required whenever alpha < 1/2."""
    if not alpha < 0.5:
        return []
    out = []
    for m, root in zbm.items():
        ratio = (root / z_star) ** m
        lower = 1.0 - sum(alpha ** j for j in range(1, m + 1))
        upper = sum(alpha ** j for j in range(0, m + 1))
        if not lower - slack <= ratio <= upper + slack:
            out.append(f"M={m}: (Z_BM/Z*)^M = {ratio!r} outside "
                       f"[{lower!r}, {upper!r}] at alpha {alpha!r}")
    return out


class Workload:
    """Inputs for one seed, the op over them, and the op's checks."""

    name = None
    pool = None          # inputs cycled by the ops; None: a fresh one each
    trace_ops = None     # ops in the traced phase
    rtol = {}            # summary key -> relative tolerance

    def __init__(self, seed):
        self.seed = seed
        self._first = {}

    def input_of(self, k):
        return k if self.pool is None else k % self.pool

    def op(self, k):
        raise NotImplementedError

    def summary(self, result):
        """The values compared with the recorded reference."""
        raise NotImplementedError

    def invariants(self, k, result):
        """Problems found by the cross-route checks the paper guarantees."""
        raise NotImplementedError

    def methods(self, result):
        """(degree, estimator) of every Z_BM in the result."""
        return []

    def check(self, k, result, reference=None):
        problems = self.invariants(k, result)
        if problems:
            return problems
        values = self.summary(result)
        key = self.input_of(k)
        # the same input must give the same values every time it is used
        first = self._first.setdefault(key, values)
        problems += [f"{name}: {values[name]!r} differs from the earlier "
                     f"{first[name]!r} on the same input"
                     for name in values
                     if not close(values[name], first[name], EXACT_RTOL)]
        if reference is not None:
            problems += [f"{name}: {values[name]!r} differs from the "
                         f"reference {ref!r}"
                         for name, ref in reference.items()
                         if not close(values[name], ref, self.rtol[name])]
        return problems


class Ensemble(Workload):
    name = "ensemble"
    trace_ops = 48
    m_max = 3
    samples = 2000
    rtol = {"z": EXACT_RTOL, "zbm1": EXACT_RTOL, "zbm2": EXACT_RTOL,
            "zbm3": EXACT_RTOL, "z_star": FIXED_POINT_RTOL,
            "alpha": FIXED_POINT_RTOL}

    def __init__(self, seed):
        super().__init__(seed)
        self.spec = generators.GeneratorSpec(
            topology="fig3", kind=nfg.DOUBLE, ensemble="psd-near-identity",
            eta=0.02, seed=seed)

    def op(self, k):
        return experiment.run_instance(self.spec, k, self.seed, self.m_max,
                                       self.samples)

    def summary(self, row):
        return {"z": row.z, "z_star": row.z_star, "alpha": row.alpha,
                **{f"zbm{m}": row.zbm[m] for m in range(1, self.m_max + 1)}}

    def invariants(self, k, row):
        if not (row.spa_converged and row.lct_applicable):
            return ["SPA did not converge or the transform was "
                    "inapplicable"]
        bad = [m for m, v in row.zbm.items() if not positive(v)]
        if bad or sorted(row.zbm) != list(range(1, self.m_max + 1)):
            return [f"Z_BM missing or not positive: {row.zbm!r}"]
        problems = []
        if not close(row.zbm[1], row.z, EXACT_RTOL):
            problems.append(f"Z_B1 = {row.zbm[1]!r} but Z = {row.z!r}")
        return problems + sandwich_problems(row.zbm, row.z_star, row.alpha)


class Bounds(Workload):
    name = "bounds"
    pool = 32
    trace_ops = 32
    m_max = 2
    samples = 2000
    rtol = {"zbm1": EXACT_RTOL, "zbm2": EXACT_RTOL,
            "z_star": FIXED_POINT_RTOL, "alpha": FIXED_POINT_RTOL}

    def __init__(self, seed):
        super().__init__(seed)
        self.documents = [
            nfg.serialize(generators.gen(generators.GeneratorSpec(
                topology="fig-b", kind=nfg.DOUBLE, ensemble="psd-random",
                seed=[seed, i])))
            for i in range(self.pool)]
        self._z = {}

    def op(self, k):
        i = self.input_of(k)
        g = nfg.parse(self.documents[i])
        report = nfg.validate(g)
        if not report.valid:
            raise ValueError(f"validation failed: {report.problems}")
        # the CLI defaults of `bethecover bounds`
        fixed = spa.spa_run(g, max_iter=10000, tol_fp=1e-9, damping=0.0,
                            restarts=8, seed=i)
        if not fixed.converged:
            raise ValueError("sum-product did not converge")
        lr = lct.transform(g, fixed)
        cond = lct.check_condition(lr)
        terms = lct.loop_series(lr)
        ests = [experiment.zbm_estimate(g, m, samples=self.samples, seed=i)
                for m in range(1, self.m_max + 1)]
        bounds = cover.bethe_cover_bounds(ests, cond.z_star, cond.alpha)
        return {"classification": report.classification, "g0": lr.g0,
                "cond": cond, "loop_sum": sum(w for _, w in terms),
                "estimates": ests, "bounds": bounds}

    def summary(self, r):
        return {"z_star": r["cond"].z_star, "alpha": r["cond"].alpha,
                **{f"zbm{e.degree}": e.root for e in r["estimates"]}}

    def methods(self, r):
        return [(e.degree, e.method) for e in r["estimates"]]

    def exact_z(self, i):
        if i not in self._z:
            z = nfg.partition_exact(nfg.parse(self.documents[i]))
            self._z[i] = complex(z).real
        return self._z[i]

    def invariants(self, k, r):
        z = self.exact_z(self.input_of(k))
        problems = []
        if r["classification"] != "strict-sense":
            problems.append(f"classified {r['classification']!r}")
        series = (r["g0"] * (1.0 + r["loop_sum"])).real
        if not close(series, z, 1e-7):
            problems.append(f"g0 (1 + loop series) = {series!r} but "
                            f"Z = {z!r}")
        ests = {e.degree: e.root for e in r["estimates"]}
        if not all(positive(v) for v in ests.values()):
            return problems + [f"Z_BM not positive: {ests!r}"]
        if not close(ests[1], z, EXACT_RTOL):
            problems.append(f"Z_B1 = {ests[1]!r} but Z = {z!r}")
        cond = r["cond"]
        if len(r["bounds"].entries) != self.m_max:
            problems.append("bounds report misses a degree")
        if cond.alpha < 0.5 and not r["bounds"].all_ok:
            problems.append("sandwich bounds reported violated")
        return problems + sandwich_problems(ests, cond.z_star, cond.alpha)


class Covers(Workload):
    name = "covers"
    pool = 16
    trace_ops = 32
    sweep = ((4, 20), (8, 6))     # (degree, Monte-Carlo samples)
    rtol = {"zbm2": EXACT_RTOL, "zbm4": EXACT_RTOL, "zbm8": EXACT_RTOL,
            "stderr4": EXACT_RTOL, "stderr8": EXACT_RTOL}

    def __init__(self, seed):
        super().__init__(seed)
        self.graphs = [generators.gen(generators.GeneratorSpec(
            topology="fig3", kind=nfg.DOUBLE, ensemble="psd-random",
            seed=[seed, i])) for i in range(self.pool)]
        self._typeformula = {}

    def op(self, k):
        i = self.input_of(k)
        g = self.graphs[i]
        return [cover.zbm_exhaustive(g, 2)] + [
            cover.zbm_montecarlo(g, m, samples=n, seed=i)
            for m, n in self.sweep]

    def summary(self, ests):
        out = {}
        for e in ests:
            out[f"zbm{e.degree}"] = e.root
            if e.method == "montecarlo":
                out[f"stderr{e.degree}"] = e.stderr
        return out

    def methods(self, ests):
        return [(e.degree, e.method) for e in ests]

    def invariants(self, k, ests):
        i = self.input_of(k)
        exhaustive, *sampled = ests
        problems = []
        if exhaustive.covers != math.factorial(2) ** self.graphs[i].n_edges:
            problems.append(f"exhaustive mean over {exhaustive.covers} "
                            "covers")
        if i not in self._typeformula:
            self._typeformula[i] = cover.zbm_typeformula(
                self.graphs[i], 2).root
        if not close(exhaustive.root, self._typeformula[i], EXACT_RTOL):
            problems.append(f"exhaustive Z_B2 = {exhaustive.root!r} but "
                            f"the type formula gives "
                            f"{self._typeformula[i]!r}")
        for est, (m, n) in zip(sampled, self.sweep):
            if (est.degree, est.samples) != (m, n):
                problems.append(f"Monte-Carlo ran M={est.degree} with "
                                f"{est.samples} samples")
            if not (positive(est.root) and math.isfinite(est.stderr)
                    and est.stderr >= 0.0):
                problems.append(f"M={m}: root {est.root!r}, stderr "
                                f"{est.stderr!r}")
        return problems


WORKLOADS = {w.name: w for w in (Ensemble, Bounds, Covers)}
