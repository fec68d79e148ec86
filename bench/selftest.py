#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny run of every workload.

    python3 bench/selftest.py

Checks that
* every metric BENCHMARK.json names is emitted with its unit, by the
  untraced run (end-to-end) and by the traced run (per-layer);
* an op whose values disagree with a deliberately wrong reference value
  counts as failed;
* the untraced run installs no wrappers, so the layer functions are the
  original objects, and the traced run puts them back when it ends.
"""

import copy
import json
import sys

import run

SECONDS = 0.3


def layer_functions():
    """Every binding of a wrapped layer function inside the package."""
    from tracing import LAYERS

    originals = {id(getattr(sys.modules[f"bethecover.{mod}"], fn))
                 for mod, fn in LAYERS}
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name.startswith("bethecover.")
            for attr, value in vars(module).items()
            if id(value) in originals}


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def units_of(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main():
    run.pin_environment()
    run.find_program()
    import tracing
    import workloads

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]

    originals = layer_functions()
    expect(len(originals) > len(tracing.LAYERS),
           "no import site besides the home modules was found")
    expect(not any(hasattr(f, "__wrapped__") for f in originals.values()),
           "layer functions are wrapped before any run")

    def unchanged(after):
        return after.keys() == originals.keys() and all(
            after[k] is originals[k] for k in originals)

    # every op of an untraced run starts with the original functions bound
    during = []
    timed_op = run.timed_op

    def checked_op(op, k):
        during.append(unchanged(layer_functions()))
        return timed_op(op, k)

    for name in names:
        run.timed_op = checked_op
        try:
            result, _ = run.run_workload(name, 0, SECONDS, trace=0)
        finally:
            run.timed_op = timed_op
        expect(during and all(during),
               f"{name}: a layer function was replaced during the run")
        during.clear()
        expect(result["correct"] and result["attempted"] >= 1,
               f"{name}: untraced run not correct: {result}")
        expect(units_of(result) == end_to_end,
               f"{name}: end-to-end metrics {units_of(result)}")

        reference = run.load_reference(name, 0)
        expect(reference, f"{name}: no reference values for seed 0")
        wrong = copy.deepcopy(reference)
        values = wrong["0"]
        key = sorted(values)[0]
        values[key] *= 1.001
        result, _ = run.run_workload(name, 0, SECONDS, trace=0,
                                     setup_repeats=1, reference=wrong)
        expect(result["failed"] > 0 and not result["correct"],
               f"{name}: a wrong reference for {key} passed: {result}")
        print(f"{name}: untraced run correct, the layer functions are the "
              f"originals; a wrong reference value failed "
              f"{result['failed']} of {result['attempted']} ops")

    for name in names:
        workloads.WORKLOADS[name].trace_ops = 2
        result, _ = run.run_workload(name, 0, SECONDS, trace=1,
                                     setup_repeats=1)
        expect(result["correct"], f"{name}: traced run not correct")
        expect(units_of(result) == per_layer,
               f"{name}: per-layer metrics {units_of(result)}")
        expect(result["metrics"]["trace.ops"]["value"] == 2,
               f"{name}: traced ops")
        expect(unchanged(layer_functions()),
               f"{name}: the traced run left wrappers installed")
        print(f"{name}: every metric of BENCHMARK.json emitted with its unit")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
