#!/usr/bin/env python3
"""Record the reference values the benchmark compares every op with.

    python3 bench/record_reference.py [--seeds 0-9]

For each workload and seed, runs the op once on each referenced input
(every pooled input; the first ``ENSEMBLE_INPUTS`` instances of
``ensemble``), requires the op to pass its cross-route checks, and writes
the checked values to ``bench/reference.json``.  Re-record only when a
change is meant to alter results, and say so in the change.
"""

import argparse
import json
import sys

import run

ENSEMBLE_INPUTS = 32


def record(seeds):
    import workloads

    out = {}
    for name, cls in workloads.WORKLOADS.items():
        out[name] = {}
        for seed in seeds:
            wl = cls(seed)
            values = {}
            for k in range(wl.pool or ENSEMBLE_INPUTS):
                result = wl.op(k)
                problems = wl.check(k, result)
                if problems:
                    raise RuntimeError(f"{name} seed {seed} input {k}: "
                                       f"{problems}")
                values[str(k)] = wl.summary(result)
            out[name][str(seed)] = values
            print(f"{name} seed {seed}: {len(values)} inputs",
                  file=sys.stderr)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9",
                        help="inclusive range FIRST-LAST")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    run.pin_environment()
    run.find_program()
    data = record(seeds)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        # one line per input keeps diffs of a re-recording readable
        fh.write("{\n")
        blocks = []
        for name, by_seed in data.items():
            seed_blocks = []
            for seed, values in by_seed.items():
                rows = ",\n".join(f"   {json.dumps(k)}: {json.dumps(v)}"
                                  for k, v in values.items())
                seed_blocks.append(f"  {json.dumps(seed)}: {{\n{rows}\n  }}")
            blocks.append(f" {json.dumps(name)}: {{\n"
                          + ",\n".join(seed_blocks) + "\n }")
        fh.write(",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
