"""dpdkit benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload desk --seed 2 --seconds 25 --trace 0

Run it from the root of a dpdkit checkout; it imports the package from
that checkout's ``src``.  ``--trace 0`` times the ops untraced and prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced ops
and prints the per-layer metrics.  The last line of standard output is
the result object; the full record (environment, samples, spans) goes
to ``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import sys

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/dpdkit/__init__.py", "configs/desk-scale.cfg", "configs/wideband.cfg")
WORKLOAD_NAMES = ("desk", "wideband", "long-capture")

# One BLAS thread: on a 2-core host, desk-scale exp1 is both faster and
# steadier on one thread than on two.
BLAS_THREADS = 1


def prepare():
    """Pin BLAS threads and put this checkout's src first; call before numpy loads."""
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src  # setup probes run in fresh processes
    os.chdir(ROOT)


def missing_files():
    return [name for name in REQUIRED if not (ROOT / name).is_file()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2**64)")

    missing = missing_files()
    if missing:
        print(f"not a dpdkit checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    prepare()
    import dpdkit
    import harness

    if Path(dpdkit.__file__).resolve().parent != ROOT / "src" / "dpdkit":
        print(f"dpdkit imported from {dpdkit.__file__}, not this checkout", file=sys.stderr)
        return 2

    line, record = harness.run(args.workload, args.seed, args.seconds, args.trace)
    path = harness.write_record(
        f"{args.workload}-seed{args.seed}-trace{args.trace}", line, record
    )
    for failure in record["failures"]:
        print(f"op {failure['op']} failed: {'; '.join(failure['problems'])}")
    for name, metric in line["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        print(f"{'untimed warm-up op':36s} {record['warmup_s']:>16.6g} s")
        print(f"{'host speed scale applied to timings':36s} {record['speed_scale']:>16.6g}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
