"""Layer spans for the traced benchmark run.

The package under test is not instrumented.  Instead, :class:`Tracer`
replaces each layer function listed in :data:`LAYERS` by a timing
wrapper at every place the function object is bound (its home module and
every ``from ... import`` site inside ``bethecover``), and
:meth:`Tracer.uninstall` puts the original objects back.  Calls that go
through a module attribute, including calls inside the package, then
record a span: name, start, end, the enclosing span and the op it ran in.
"""

import importlib
import itertools
import sys
import time

# (module of bethecover, function) pairs wrapped in a traced run.  Span
# names drop a leading underscore because metric names must start with a
# letter or a digit (``_kernels.jacobi_eigh`` -> ``kernels.jacobi_eigh``).
LAYERS = (
    ("generators", "gen"),
    ("nfg", "parse"),
    ("nfg", "validate"),
    ("nfg", "partition_exact"),
    ("nfg", "make_graph"),
    ("nfg", "contract_network"),
    ("_kernels", "jacobi_eigh"),
    ("tensor", "contract"),
    ("cover", "build_cover"),
    ("cover", "socket_projector"),
    ("cover", "zbm_exhaustive"),
    ("cover", "zbm_montecarlo"),
    ("cover", "zbm_typeformula"),
    ("cover", "bethe_cover_bounds"),
    ("spa", "spa_run"),
    ("spa", "spa_step"),
    ("lct", "transform"),
    ("lct", "check_condition"),
    ("lct", "loop_series"),
    ("experiment", "run_instance"),
    ("experiment", "zbm_estimate"),
)

# Harness-level spans: time in them outside any layer span is time no
# layer accounts for.
ORCHESTRATION = ("op", "experiment.run_instance", "experiment.zbm_estimate")

ESTIMATOR_DEGREES = (("zbm_exhaustive", (1, 2)),
                     ("zbm_typeformula", (2, 3)),
                     ("zbm_montecarlo", (4, 8)))

PER_LAYER_UNITS = {
    "generators.gen.calls": "count",
    "generators.gen.ms": "ms",
    "nfg.parse.ms": "ms",
    "nfg.validate.ms": "ms",
    "nfg.partition_exact.ms": "ms",
    "nfg.make_graph.calls": "count",
    "nfg.make_graph.ms": "ms",
    "nfg.contract_network.calls": "count",
    "nfg.contract_network.ms": "ms",
    "nfg.contract_network.plan_ms": "ms",
    "kernels.jacobi_eigh.calls": "count",
    "kernels.jacobi_eigh.ms": "ms",
    "tensor.contract.calls": "count",
    "tensor.contract.ms": "ms",
    "tensor.contract.peak_entries": "entries",
    "cover.build_cover.calls": "count",
    "cover.build_cover.ms": "ms",
    "cover.socket_projector.ms": "ms",
    **{f"cover.{fn}.M{m}.ms": "ms"
       for fn, degrees in ESTIMATOR_DEGREES for m in degrees},
    "spa.spa_run.ms": "ms",
    "spa.spa_step.calls": "count",
    "spa.restart_converged_ratio": "1",
    "spa.damping_switches": "count",
    "spa.degenerate_events": "count",
    "lct.transform.ms": "ms",
    "lct.check_condition.ms": "ms",
    "lct.loop_series.ms": "ms",
    "lct.loop_series.terms": "count",
    "experiment.run_instance.ms": "ms",
    "experiment.zbm_estimate.fallback_ratio": "1",
    "trace.ops": "count",
    "trace.coverage": "1",
    "trace.overhead": "1",
}


class Tracer:
    """In-memory span recorder that wraps the layer functions.

    ``spans`` holds one tuple ``(id, name, start, end, parent id, op)``
    per finished call, in order of completion; ``info`` maps a span id to
    the counts its observer read off the call.
    """

    def __init__(self):
        self.spans = []
        self.info = {}
        self._stack = [None]
        self._ids = itertools.count()
        self._patches = []
        self._op = None
        self._last_step = (None, 0.0)   # (rng, damping) of the last sweep

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        spans, info, stack, ids = self.spans, self.info, self._stack, self._ids
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, tracer._op))
            if observe is not None:
                info[sid] = observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def run_op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as the root span ``op``; the layer spans under
        it carry ``op_id``."""
        self._op = op_id
        try:
            return self._wrap("op", fn)(*args)
        finally:
            self._op = None

    # -- installing the wrappers ------------------------------------ #

    def install(self):
        """Wrap every layer function wherever ``bethecover`` binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None
                   and (n == "bethecover" or n.startswith("bethecover."))]
        for mod_name, fn_name in LAYERS:
            home = importlib.import_module(f"bethecover.{mod_name}")
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name.lstrip('_')}.{fn_name}",
                                 original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # -- per-layer metrics ------------------------------------------ #

    def metrics(self, passes=1):
        """Per-layer totals of the recorded ops, divided by ``passes``
        (the number of times the same list of ops was traced).

        ``.ms`` is inclusive wall time, ``.calls`` a call count;
        ``nfg.contract_network.plan_ms`` is the self time of
        ``contract_network`` (its span minus the ``tensor.contract`` spans
        under it); ``trace.coverage`` is the share of op wall time spent
        inside an outermost non-orchestration layer span.  Ratios whose
        base is zero (the layer did not run) are reported as 0.
        """
        calls, secs, child_secs = {}, {}, {}
        for _, name, start, end, parent, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + end - start
            child_secs[parent] = child_secs.get(parent, 0.0) + end - start

        def observed(name):
            return [self.info[s[0]] for s in self.spans
                    if s[1] == name and self.info.get(s[0])]

        def info_sum(name, key):
            return sum(i.get(key, 0) for i in observed(name))

        out = {}
        for metric in PER_LAYER_UNITS:
            base, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(base, 0)
            elif stat == "ms":
                out[metric] = 1000.0 * secs.get(base, 0.0)
        for fn, degrees in ESTIMATOR_DEGREES:
            for m in degrees:
                out[f"cover.{fn}.M{m}.ms"] = 1000.0 * sum(
                    end - start for sid, name, start, end, _, _ in self.spans
                    if name == f"cover.{fn}"
                    and self.info.get(sid, {}).get("M") == m)
        out["nfg.contract_network.plan_ms"] = 1000.0 * sum(
            end - start - child_secs.get(sid, 0.0)
            for sid, name, start, end, _, _ in self.spans
            if name == "nfg.contract_network")
        out["tensor.contract.peak_entries"] = max(
            (i["entries"] for i in observed("tensor.contract")), default=0)
        used = info_sum("spa.spa_run", "used")
        out["spa.restart_converged_ratio"] = (
            info_sum("spa.spa_run", "converged") / used if used else 0.0)
        out["spa.damping_switches"] = info_sum("spa.spa_step", "switch")
        out["spa.degenerate_events"] = info_sum("spa.spa_run", "degenerate")
        out["lct.loop_series.terms"] = info_sum("lct.loop_series", "terms")
        direct = info_sum("experiment.zbm_estimate", "direct")
        out["experiment.zbm_estimate.fallback_ratio"] = (
            info_sum("experiment.zbm_estimate", "fallback") / direct
            if direct else 0.0)
        out["trace.ops"] = calls.get("op", 0)
        for metric, unit in PER_LAYER_UNITS.items():
            if unit in ("ms", "count") and metric in out:
                out[metric] /= passes
        out["trace.coverage"] = self._coverage()
        return {metric: out[metric] for metric in PER_LAYER_UNITS
                if metric in out}

    def _coverage(self):
        by_id = {s[0]: s for s in self.spans}
        covered = 0.0
        for sid, name, start, end, parent, _ in self.spans:
            if name in ORCHESTRATION:
                continue
            while parent is not None and by_id[parent][1] in ORCHESTRATION:
                parent = by_id[parent][4]
            if parent is None:     # an outermost layer span
                covered += end - start
        wall = sum(s[3] - s[2] for s in self.spans if s[1] == "op")
        return covered / wall if wall else 0.0

    def records(self):
        """Spans as dicts in order of start, times in seconds from the
        first span."""
        spans = sorted(self.spans)
        t0 = spans[0][2] if spans else 0.0
        return [{"id": sid, "name": name, "op": op, "parent": parent,
                 "start": start - t0, "end": end - t0,
                 **({"info": self.info[sid]} if self.info.get(sid) else {})}
                for sid, name, start, end, parent, op in spans]


# -- observers: counts read off a call's arguments and result ---------- #

def _estimate(tracer, args, kwargs, result):
    return {"M": result.degree}


def _contract(tracer, args, kwargs, result):
    return {"entries": int(result.array.size)}


def _spa_run(tracer, args, kwargs, result):
    return {"used": result.restarts_used,
            "converged": result.restarts_converged,
            "degenerate": result.degenerate_events}


def _spa_step(tracer, args, kwargs, result):
    # restarts draw a fresh rng, so a damping rise under the same rng is
    # the oscillation fallback of one run switching on
    rng, damping = kwargs.get("rng"), kwargs.get("damping", 0.0)
    last_rng, last_damping = tracer._last_step
    tracer._last_step = (rng, damping)
    switched = rng is not None and rng is last_rng and damping > last_damping
    return {"switch": 1} if switched else None


def _loop_series(tracer, args, kwargs, result):
    return {"terms": len(result)}


def _zbm_estimate(tracer, args, kwargs, result):
    from bethecover import experiment

    direct = result.degree <= experiment.MAX_DIRECT_DEGREE
    return {"M": result.degree, "method": result.method,
            "direct": int(direct),
            "fallback": int(direct and result.method == "montecarlo")}


_OBSERVERS = {
    "cover.zbm_exhaustive": _estimate,
    "cover.zbm_typeformula": _estimate,
    "cover.zbm_montecarlo": _estimate,
    "tensor.contract": _contract,
    "spa.spa_run": _spa_run,
    "spa.spa_step": _spa_step,
    "lct.loop_series": _loop_series,
    "experiment.zbm_estimate": _zbm_estimate,
}
