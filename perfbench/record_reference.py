"""Record the correctness references of every workload at the default seed.

    python3 perfbench/record_reference.py [workload ...]

Runs one op of each named workload (all by default) and writes its
training and validation results to ``perfbench/reference.json``.  Only
re-record when a change alters the numbers on purpose, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

TOLERANCE_DB = 1e-6


def main(argv):
    run.prepare()
    import harness

    try:
        references = harness.load_references()
    except FileNotFoundError:
        references = {"workloads": {}}
    references.update(seed=harness.DEFAULT_SEED, tolerance_db=TOLERANCE_DB)
    for name in argv or list(harness.WORKLOADS):
        ctx = harness.Context(harness.WORKLOADS[name], harness.DEFAULT_SEED)
        try:
            outcome = ctx.workload.op(ctx).outcome
        finally:
            shutil.rmtree(ctx.out_dir, ignore_errors=True)
        references["workloads"][name] = {
            "training": outcome["training"],
            "validation": outcome["validation"],
        }
        print(f"{name}: {json.dumps(outcome['training'])}")
    with open(harness.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
