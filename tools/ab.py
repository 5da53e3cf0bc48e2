"""Paired A/B benchmark: an unchanged ``perfbench/run.py`` in a base revision and HEAD.

The script materializes both revisions with ``git archive`` under
``build/ab/base`` and ``build/ab/head`` and runs each tree's own
``perfbench/run.py`` in it, one fresh process at a time, at the run
length that ``run.py`` sets.  Pair ``i`` runs every workload of
``BENCHMARK.json`` on seed ``seed_start + i`` in both trees; which tree
goes first alternates from pair to pair, so a drift of the host's speed
or a warm file cache favours neither side.  It writes one JSON file:

- the host details, and the commit and source hash of each side
- per workload and end-to-end metric of ``BENCHMARK.json``: the base and
  head medians and quartiles, the median of the per-pair ratios
  head / base, the number of pairs the head won in the metric's better
  direction, the median change in that direction, whether that change
  exceeds the metric's bound, and whether the base's own quartile
  spread, relative to its median, exceeds it
- the same for the unscaled op medians and the host calibration medians
  read from each run's ``perfbench/results/*.json``: ``run.py`` divides
  its timings by a calibration that moves with process state, so an
  unscaled timing that stays flat while a scaled one moves points at
  the calibration
- every run's metrics and readings, per pair

    python3 tools/ab.py --base HEAD~1 --out BENCH_<n>.json
    python3 tools/ab.py --base HEAD --pairs 6 --out build/ab/self.json

Run against HEAD itself, no metric should change beyond its bound.  A
pair of runs takes about a minute per workload, so 10 pairs of the
three workloads take about half an hour.  The exit status is 1 when a
run fails or reports a failed op.
"""

import argparse
import json
import os
from pathlib import Path
import shutil
import statistics
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build" / "ab"
SIDES = ("base", "head")
# A run that takes this long has hung.
TIME_LIMIT_S = 600


def materialize(rev, side):
    """Extract ``rev`` into ``build/ab/<side>``; returns (tree, full commit)."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    tree = BUILD / side
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    return tree, commit


def run_once(tree, workload, seed):
    """One ``run.py`` in ``tree``: (result line, record) or (None, error text)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    try:
        done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                              timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIME_LIMIT_S} s"
    if done.returncode != 0:
        return None, done.stderr.strip()[-2000:] or f"exit status {done.returncode}"
    line = json.loads(done.stdout.strip().splitlines()[-1])
    path = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    with open(path, encoding="utf-8") as fh:
        return line, json.load(fh)


def readings(line, record):
    """The metrics of one run, and its unscaled medians and calibration."""
    samples = record["op_samples"]
    unscaled = {
        "setup_s": statistics.median(record["setup_samples_s"]),
        "calibration_s": statistics.median(record["calibration_samples_s"]),
        "speed_scale": record["speed_scale"],
        "warmup_s": record["warmup_s"],
    }
    for name in ("fit_s", "validate_s", "predistort_s"):
        if samples[name]:
            unscaled[name] = statistics.median(samples[name])
    return {
        "correct": line["correct"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
        "unscaled": unscaled,
    }


def _spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def compare(pairs, better, bound=None):
    """Summary of one metric over ``pairs`` of (base, head) values."""
    base = [b for b, _ in pairs]
    head = [h for _, h in pairs]
    base_median, base_q1, base_q3 = _spread(base)
    head_median, head_q1, head_q3 = _spread(head)
    summary = {
        "better": better,
        "base": {"median": base_median, "q1": base_q1, "q3": base_q3},
        "head": {"median": head_median, "q1": head_q1, "q3": head_q3},
        "pairs": len(pairs),
        "head_wins": sum((h < b) if better == "lower" else (h > b) for b, h in pairs),
        "median_ratio": None,
    }
    if all(b != 0 for b in base):
        ratio = statistics.median(h / b for b, h in pairs)
        gain = 1.0 - ratio if better == "lower" else ratio - 1.0
        summary["median_ratio"] = ratio
        summary["median_gain"] = gain
        if bound is not None:
            summary["bound"] = bound
            summary["beyond_bound"] = abs(gain) > bound
            summary["base_spread_exceeds_bound"] = (
                base_median != 0 and (base_q3 - base_q1) / abs(base_median) > bound
            )
    return summary


def summarize(runs, declared):
    """Per-metric summaries of one workload's runs."""
    complete = [r for r in runs if r["base"] is not None and r["head"] is not None]
    metrics, unscaled = {}, {}
    for name, spec in declared.items():
        pairs = [(r["base"]["metrics"][name], r["head"]["metrics"][name]) for r in complete
                 if name in r["base"]["metrics"] and name in r["head"]["metrics"]]
        if pairs:
            metrics[name] = compare(pairs, spec["better"], spec["bound"])
            metrics[name]["unit"] = spec["unit"]
    names = sorted({k for r in complete for side in SIDES for k in r[side]["unscaled"]})
    for name in names:
        pairs = [(r["base"]["unscaled"][name], r["head"]["unscaled"][name]) for r in complete
                 if name in r["base"]["unscaled"] and name in r["head"]["unscaled"]]
        unscaled[name] = compare(pairs, "higher" if name == "speed_scale" else "lower")
    return {"metrics": metrics, "unscaled": unscaled}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision, e.g. HEAD~1")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-start", type=int, default=100)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    trees, commits = {}, {}
    for side, rev in zip(SIDES, (args.base, "HEAD")):
        trees[side], commits[side] = materialize(rev, side)

    runs = {w: [] for w in workloads}
    sources, environment, problems = {}, None, []
    for i in range(args.pairs):
        seed = args.seed_start + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            run = {"seed": seed, "first": order[0]}
            for side in order:
                line, record = run_once(trees[side], workload, seed)
                if line is None:
                    problems.append(f"{side} {workload} seed {seed}: {record}")
                    run[side] = None
                    continue
                environment = environment or record["environment"]
                sources[side] = record["environment"]["source_sha256"]
                run[side] = readings(line, record)
                if not line["correct"]:
                    problems.append(f"{side} {workload} seed {seed}: {line['failed']} op(s) failed")
            runs[workload].append(run)
            print(f"pair {i + 1}/{args.pairs} {workload} seed {seed}: " + ", ".join(
                f"{side} peak_rss_mb {run[side]['metrics'].get('peak_rss_mb', float('nan')):.1f}"
                if run[side] else f"{side} failed" for side in order), flush=True)

    host_keys = ("cores", "usable_cores", "blas", "blas_threads_pinned",
                 "blas_threads_reported", "numpy", "scipy", "python", "machine")
    report = {
        "base": {"rev": args.base, "commit": commits["base"], "source_sha256": sources.get("base")},
        "head": {"rev": "HEAD", "commit": commits["head"], "source_sha256": sources.get("head")},
        "host": {k: environment[k] for k in host_keys} if environment else None,
        "pairs": args.pairs,
        "seeds": [args.seed_start + i for i in range(args.pairs)],
        "problems": problems,
        "workloads": {
            w: {**summarize(runs[w], declared), "runs": runs[w]} for w in workloads
        },
    }
    report["beyond_bound"] = [
        f"{w}.{name}" for w in workloads
        for name, s in report["workloads"][w]["metrics"].items() if s.get("beyond_bound")
    ]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for w in workloads:
        for name, s in report["workloads"][w]["metrics"].items():
            print(f"{w:13s} {name:22s} base {s['base']['median']:>10.5g}  head "
                  f"{s['head']['median']:>10.5g}  ratio {s['median_ratio'] or float('nan'):.4f}  "
                  f"head wins {s['head_wins']}/{s['pairs']}"
                  + ("  BEYOND BOUND" if s.get("beyond_bound") else ""))
    print(f"beyond bound: {', '.join(report['beyond_bound']) or 'none'}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"wrote {os.path.relpath(args.out)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
