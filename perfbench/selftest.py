"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs a tiny variant of each workload, traced and untraced, and checks
that every metric BENCHMARK.json names is emitted with its unit; checks
that a corrupted reference value makes every op count as failed; and
checks that the benchmark refuses, without a result line, to run in a
directory that holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

# Small enough that one op takes milliseconds: 1024 samples, a handful of kernels.
TINY = ("signal.n_symbols=4", "dpd.memory_depth=2", "dpd.max_order=3")


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(line, expected, label):
    metrics = line["metrics"]
    check(set(metrics) == set(expected), f"{label}: metrics {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        check(metrics[name]["unit"] == unit, f"{label}: {name} unit {metrics[name]['unit']}")
        check(
            isinstance(value, (int, float)) and math.isfinite(value),
            f"{label}: {name} = {value!r}",
        )


def main():
    run.prepare()
    import harness
    from tracer import LAYERS

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(end_to_end == harness.END_TO_END_UNITS, "BENCHMARK.json end_to_end vs harness")
    check(per_layer == harness.per_layer_units(), "BENCHMARK.json per_layer vs harness")
    names = [w["name"] for w in spec["workloads"]]
    check(
        names == list(harness.WORKLOADS) == list(run.WORKLOAD_NAMES),
        "workload names of BENCHMARK.json, harness.py and run.py differ",
    )

    seed = harness.DEFAULT_SEED
    no_references = {"seed": seed, "tolerance_db": 1e-6, "workloads": {}}
    for name, workload in harness.WORKLOADS.items():
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            line, _ = harness.run(name, seed, 0.0, trace, TINY, no_references)
            check(line["correct"] and line["failed"] == 0, f"{name} trace {trace}: {line}")
            check_metrics(line, expected, f"{name} trace {trace}")
            if trace:
                values = {k: m["value"] for k, m in line["metrics"].items()}
                covered = sum(values[f"{layer}.self_s"] for layer in LAYERS)
                total = covered + values["trace.uncovered_s"]
                check(
                    math.isclose(total, values["trace.op_s"], rel_tol=1e-9),
                    f"{name}: layer self times {covered} + uncovered do not add up "
                    f"to the op's {values['trace.op_s']}",
                )

        ctx = harness.Context(workload, seed, TINY)
        try:
            outcome = workload.op(ctx).outcome
        finally:
            shutil.rmtree(ctx.out_dir, ignore_errors=True)
        references = {
            "seed": seed,
            "tolerance_db": 1e-6,
            "workloads": {
                name: {"training": outcome["training"], "validation": outcome["validation"]}
            },
        }
        line, _ = harness.run(name, seed, 0.0, 0, TINY, references)
        check(line["correct"], f"{name}: op fails against its own outcome: {line}")
        references["workloads"][name]["training"]["bw_nmse_db"] += 1e-3
        line, record = harness.run(name, seed, 0.0, 0, TINY, references)
        check(
            not line["correct"] and line["failed"] == line["attempted"],
            f"{name}: corrupted reference not caught: {line}",
        )
        print(f"{name}: ok ({record['failures'][0]['problems'][0]})")

    bare = harness.SCRATCH_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            run.ROOT / "perfbench",
            bare / "perfbench",
            ignore=shutil.ignore_patterns("results", "tmp", "__pycache__"),
        )
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "desk", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(done.returncode != 0 and not done.stdout, f"bare directory: {done}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: refused")
    print("selftest passed")


if __name__ == "__main__":
    main()
