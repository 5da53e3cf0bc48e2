"""Workloads, timed ops, correctness checks and metrics of the dpdkit benchmark.

Import this only through ``run.py`` (or ``selftest.py``): they pin the
BLAS thread count and put the checkout's ``src`` first on ``sys.path``
before numpy and dpdkit load.
"""

from __future__ import annotations

from collections.abc import Callable
import ctypes
from dataclasses import dataclass
import glob
import hashlib
import json
import math
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import dpdkit
from tracer import LAYERS, Tracer, op_summary

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH / "reference.json"
RESULTS_DIR = BENCH / "results"
SCRATCH_DIR = BENCH / "tmp"

# run.seed of the shipped configs; the seed only picks the validation
# signal, so the training capture stays the one the configs ship.
DEFAULT_SEED = 2
# The deploy step predistorts at least this many samples per op, one
# long-capture validation signal, so short signals are timed over
# several passes instead of one 10 ms pass.
PREDISTORT_SAMPLES = 131072
# Fresh processes timed for setup_s; the median is reported.  They are
# spread over the run, between ops: on a shared 2-core VM, speed drifts by
# tens of percent over seconds, and a burst of probes sees one state only.
SETUP_PROBES = 7
# Timings are scaled to a host on which one calibration sample takes this
# long; see HostCalibration.
CALIBRATION_REFERENCE_S = 0.040
# After each op, calibration samples run for at least this share of the
# op's wall time (and at least one sample).
CALIBRATION_SHARE = 0.05


# Name and unit of the end-to-end metrics of an untraced run;
# BENCHMARK.json lists the same names with their bounds.
END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "validate_s": "s",
    "predistort_msps": "Msps",
    "peak_rss_mb": "MB",
    "bw_nmse_neg_db": "dB",
    "bw_kernel_count": "count",
    "bwlasso_r_evm_neg_db": "dB",
    "pass_ratio": "ratio",
}

# Inclusive time of these spans is reported as <span>.s.
INCLUSIVE_SPANS = (
    "signal.generate_ofdm",
    "pa_sim.ilc_learn",
    "pa_sim.pa_forward",
    "gmp.build_kernel_matrix",
    "gmp.apply_model",
    "solver.block_weighted_lasso",
    "solver.lasso_iterated_ridge",
    "solver.least_squares",
    "solver.ls_refine",
    "pipeline.matched_count_lasso",
)
SELF_SPANS = ("pipeline.run_experiment1", "pipeline.run_experiment2")
COUNTED_SPANS = ("solver.lasso_iterated_ridge", "pa_sim.pa_forward")
COUNTS = {
    "solver.bcd_sweeps": "count",
    "gmp.apply_model.columns": "count",
    "gmp.kernel_matrix_bytes": "B",
    "pipeline.output_bytes": "B",
    "solver.kkt_max_violation": "1",
    "pa_sim.ilc_final_error_db": "dB",
}
TRACE_TIMES = ("trace.op_s", "trace.untraced_op_s", "trace.overhead_s", "trace.uncovered_s")
# The untimed first op of every run, traced runs included: work moved
# into first-call set-up shows here.
WARMUP = "bench.warmup_s"


def per_layer_units():
    units = {f"{name}.s": "s" for name in INCLUSIVE_SPANS}
    units.update({f"{name}.self_s": "s" for name in SELF_SPANS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"{name}.calls": "count" for name in COUNTED_SPANS})
    units.update(COUNTS)
    units.update({name: "s" for name in (*TRACE_TIMES, WARMUP)})
    return units


# ---------------------------------------------------------------------------
# Per-layer counts, taken from arguments and results of traced calls.


def _count_columns(args, kwargs, result, counts):
    coeffs = args[1] if len(args) > 1 else kwargs["coeffs"]
    counts["gmp.apply_model.columns"] = (
        counts.get("gmp.apply_model.columns", 0) + int(coeffs.support().size)
    )


def _count_matrix_bytes(args, kwargs, result, counts):
    n, p = result.data.shape
    largest = max(counts.get("gmp.kernel_matrix_bytes", 0), n * p * 16)
    counts["gmp.kernel_matrix_bytes"] = largest


def _count_sweeps(args, kwargs, result, counts):
    coeffs, trace = result
    counts["solver.bcd_sweeps"] = counts.get("solver.bcd_sweeps", 0) + len(trace.records)
    # Kept for one kkt_check after the op: matrix, target, result, schedule.
    counts["_last_bw_fit"] = (args[0], args[1], coeffs, args[2])


def _count_ilc(args, kwargs, result, counts):
    counts["pa_sim.ilc_final_error_db"] = float(result.error_db[-1])


TRACE_HOOKS = {
    "gmp.apply_model": _count_columns,
    "gmp.build_kernel_matrix": _count_matrix_bytes,
    "solver.block_weighted_lasso": _count_sweeps,
    "pa_sim.ilc_learn": _count_ilc,
}


# ---------------------------------------------------------------------------
# The ops.  Every call into dpdkit goes through a module attribute looked
# up at call time, so the tracer's wrappers see it.


@dataclass
class OpResult:
    fit_s: float
    validate_s: float
    predistort_s: float
    predistorted_samples: int
    outcome: dict
    output_bytes: int


class Context:
    """Everything an op needs that set-up built once per run."""

    def __init__(self, workload, seed, extra_overrides=()):
        self.workload = workload
        self.seed = seed
        self.out_dir = SCRATCH_DIR / f"{workload.name}-seed{seed}"
        self.overrides = (
            *workload.overrides,
            *extra_overrides,
            f"run.seed={seed}",
            f"output.dir={self.out_dir.relative_to(ROOT).as_posix()}",
        )
        self.config = dpdkit.load_config(ROOT / workload.config, self.overrides)
        self.pa_model = self.config.load_pa_model()
        gain = self.config.ilc.target_gain
        self.gain = self.pa_model.smallsignal_gain if gain is None else gain


def _deploy(ctx, coeffs, validation):
    """Predistort the validation signal through the PA; returns
    (samples predistorted, seconds, validation EVM in dB)."""
    passes = max(1, math.ceil(PREDISTORT_SAMPLES / len(validation)))
    start = time.perf_counter()
    for _ in range(passes):
        drive = dpdkit.apply_model(validation, coeffs)
        amplified = dpdkit.pa_forward(drive, ctx.pa_model)
    elapsed = time.perf_counter() - start
    normalized = dpdkit.IqSignal(amplified.samples / ctx.gain, validation.sample_rate_hz)
    report = dpdkit.evm_db(normalized, validation)
    return passes * len(validation), elapsed, report.evm_db


def _report_files(ctx):
    """sha256 and size of every file the op wrote, after checking headers."""
    files, total, problems = {}, 0, []
    header = f"# config-hash: {ctx.config.config_hash}"
    for path in sorted(ctx.out_dir.iterdir()):
        data = path.read_bytes()
        total += len(data)
        files[path.name] = hashlib.sha256(data).hexdigest()
        if data.split(b"\n", 1)[0].decode("ascii", "replace") != header:
            problems.append(f"{path.name} does not start with {header!r}")
    return files, total, problems


def experiments_op(ctx):
    """exp1, exp2, then deploy exp2's refined block-weighted model."""
    config = ctx.config
    t0 = time.perf_counter()
    trace, _ = dpdkit.run_experiment1(config)
    t1 = time.perf_counter()
    report = dpdkit.run_experiment2(config)
    t2 = time.perf_counter()
    coeffs = dpdkit.read_coefficients(ctx.out_dir / "exp2_coeffs_bwlasso-r.txt")
    validation = dpdkit.generate_ofdm(config.validation_signal())
    samples, predistort_s, deploy_evm = _deploy(ctx, coeffs, validation)
    files, output_bytes, problems = _report_files(ctx)
    selected = trace.selected
    outcome = {
        "training": {
            "support": np.flatnonzero(selected.coefficients).tolist(),
            "bw_nmse_db": float(selected.nmse_db),
            "bw_kernel_count": int(selected.kernel_count),
        },
        "validation": {
            "rows": {
                r.method: [r.evm_db, r.nmse_db, r.kernel_count, r.effective_memory_depth]
                for r in report.rows
            },
            "bwlasso_r_evm_db": float(report.row("bwlasso-r").evm_db),
        },
        "deploy_evm_db": float(deploy_evm),
        "files": files,
        "header_problems": problems,
    }
    return OpResult(t1 - t0, t2 - t1, predistort_s, samples, outcome, output_bytes)


def fit_deploy_op(ctx):
    """The README quick start at capture length, then deploy on validation."""
    config = ctx.config
    t0 = time.perf_counter()
    reference = dpdkit.generate_ofdm(config.signal)
    labels = dpdkit.ilc_learn(reference, ctx.pa_model, config.ilc)
    matrix = dpdkit.build_kernel_matrix(reference, config.structure)
    coeffs, trace = dpdkit.block_weighted_lasso(
        matrix, labels.drive, config.schedule(), config.bcd
    )
    refined = dpdkit.ls_refine(matrix, labels.drive, coeffs.support())
    t1 = time.perf_counter()
    validation = dpdkit.generate_ofdm(config.validation_signal())
    samples, predistort_s, evm = _deploy(ctx, refined, validation)
    t2 = time.perf_counter()
    selected = trace.selected
    outcome = {
        "training": {
            "support": refined.support().tolist(),
            "bw_nmse_db": float(selected.nmse_db),
            "bw_kernel_count": int(selected.kernel_count),
        },
        "validation": {"bwlasso_r_evm_db": float(evm)},
    }
    return OpResult(t1 - t0, t2 - t1, predistort_s, samples, outcome, 0)


@dataclass(frozen=True)
class Workload:
    name: str
    op: Callable  # experiments_op or fit_deploy_op, given a Context
    config: str
    overrides: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", experiments_op, "configs/desk-scale.cfg"),
        Workload("wideband", experiments_op, "configs/wideband.cfg"),
        Workload(
            "long-capture", fit_deploy_op, "configs/desk-scale.cfg", ("signal.n_symbols=512",)
        ),
    )
}


# ---------------------------------------------------------------------------
# Correctness.


def load_references():
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _mismatches(where, got, want, tol):
    """Where ``got`` differs from ``want``: floats within ``tol``, all else exactly."""
    if isinstance(want, dict) and isinstance(got, dict):
        pairs = [(f"{where}.{k}", got.get(k), v) for k, v in want.items()]
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        pairs = [(f"{where}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
    elif isinstance(want, float) and isinstance(got, float):
        return [] if abs(got - want) <= tol else [f"{where}: got {got!r}, reference {want!r}"]
    elif type(got) is type(want) and got == want:
        return []
    else:
        return [f"{where}: got {got!r}, reference {want!r}"]
    return [m for path, g, w in pairs for m in _mismatches(path, g, w, tol)]


def check_op(ctx, outcome, first, references):
    """Problems with one op's outcome; an empty list means it passed.

    The training results do not depend on the seed and are compared
    with the references on every seed; the validation results only on
    the seed the references were recorded with.
    """
    problems = list(outcome.get("header_problems", ()))
    if first is not None and outcome != first:
        problems.append("outcome differs from the run's first op")
    if "deploy_evm_db" in outcome:
        exp2 = outcome["validation"]["bwlasso_r_evm_db"]
        if abs(outcome["deploy_evm_db"] - exp2) > references["tolerance_db"]:
            problems.append(
                f"deployed model EVM {outcome['deploy_evm_db']!r} differs from "
                f"exp2's bwlasso-r row {exp2!r}"
            )
    ref = references["workloads"].get(ctx.workload.name)
    if ref is not None:
        tol = references["tolerance_db"]
        problems += _mismatches("training", outcome["training"], ref["training"], tol)
        if ctx.seed == references["seed"]:
            problems += _mismatches("validation", outcome["validation"], ref["validation"], tol)
    return problems


# ---------------------------------------------------------------------------
# Set-up time and the environment record.

_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import dpdkit
config = dpdkit.load_config(sys.argv[1], sys.argv[2:])
config.load_pa_model()
print(repr(time.perf_counter() - t0))
"""


def setup_probe(workload, overrides):
    """Seconds a fresh process takes to import dpdkit and load config and PA preset."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(ROOT / workload.config), *overrides],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libs = glob.glob(
        os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "lib*openblas*.so*")
    )
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def _source_hash():
    digest = hashlib.sha256()
    package = ROOT / "src" / "dpdkit"
    files = sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(ctx):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_reported": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config_file_sha256": hashlib.sha256(
            (ROOT / ctx.workload.config).read_bytes()
        ).hexdigest(),
        "config_hash": ctx.config.config_hash,
        "overrides": list(ctx.overrides),
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
        "workload": ctx.workload.name,
        "seed": ctx.seed,
    }


# ---------------------------------------------------------------------------
# Host speed.


class HostCalibration:
    """A fixed kernel that times the host, independent of dpdkit's code.

    A shared VM's speed drifts by 20-40% over minutes, for every program
    on it.  Sampled between ops, the kernel sees the same drift, so the
    end-to-end timings are divided by its median over the run and
    reported at the speed of a host where one sample takes
    ``CALIBRATION_REFERENCE_S``.  The kernel mixes what dpdkit's ops
    spend time on: a complex Gram product and solve, elementwise complex
    powers on a 16384-sample vector, and a Python loop.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.columns = rng.standard_normal((16384, 24)) + 1j * rng.standard_normal((16384, 24))
        self.vector = self.columns[:, 0].copy()
        self.samples = []

    def _kernel(self):
        for _ in range(4):
            gram = self.columns.conj().T @ self.columns
            np.linalg.solve(gram + np.eye(24), self.columns.conj().T @ self.vector)
            for k in range(12):
                self.vector * np.abs(self.vector) ** (k % 4)
            sum(i * i for i in range(20000))

    def sample(self, at_least_s=0.0):
        """Time the kernel until ``at_least_s`` has passed, at least once."""
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - t0
            self.samples.append(elapsed)
            spent += elapsed
            if spent >= at_least_s:
                return spent

    def scale(self):
        """Factor that turns a time on this host into one at reference speed."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.samples)


# ---------------------------------------------------------------------------
# The run.


def _median(values):
    return statistics.median(values) if values else None


def _layer_metrics(tracer, op_ids, kkt):
    """Per-layer metrics of the traced op with the median wall time.

    All values come from that one op, so its layer self times plus
    ``trace.uncovered_s`` add up to its ``trace.op_s``.
    """
    per_op = []
    for op_id in op_ids:
        inclusive, self_time, calls = op_summary(tracer.spans, op_id)
        counts = tracer.counts[op_id]
        values = {f"{name}.s": inclusive.get(name, 0.0) for name in INCLUSIVE_SPANS}
        values.update({f"{name}.self_s": self_time.get(name, 0.0) for name in SELF_SPANS})
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                t for name, t in self_time.items() if name.startswith(layer + ".")
            )
        values.update({f"{name}.calls": calls.get(name, 0) for name in COUNTED_SPANS})
        for name in COUNTS:
            values[name] = counts.get(name, 0)
        values["solver.kkt_max_violation"] = kkt.get(op_id, 0.0)
        values["trace.op_s"] = inclusive["op"]
        values["trace.uncovered_s"] = self_time["op"]
        per_op.append(values)
    per_op.sort(key=lambda v: v["trace.op_s"])
    return per_op[(len(per_op) - 1) // 2]


def run(workload_name, seed, seconds, trace, extra_overrides=(), references=None):
    """Run one workload; returns (result line dict, full record dict)."""
    workload = WORKLOADS[workload_name]
    if references is None:
        references = load_references()
    calibration = HostCalibration()
    calibration.sample(0.2)
    probe_overrides = (*workload.overrides, *extra_overrides, f"run.seed={seed}")
    setup_samples = [setup_probe(workload, probe_overrides)]
    probe_interval = seconds / (SETUP_PROBES - 1)
    ctx = Context(workload, seed, extra_overrides)
    op = workload.op
    tracer = Tracer(TRACE_HOOKS) if trace else None

    shutil.rmtree(ctx.out_dir, ignore_errors=True)
    results, failures, traced_ids, untraced_walls, kkt = [], [], [], [], {}
    first = None
    attempted = 0
    warmup_s = None
    probe_s = 0.0  # set-up probes and calibration, not counted in the op window
    try:
        start = time.perf_counter()
        while True:
            op_id = attempted
            attempted += 1
            traced_op = trace and op_id % 2 == 0 and op_id > 0
            t0 = time.perf_counter()
            try:
                if traced_op:
                    with tracer.op(op_id):
                        result = op(ctx)
                    fit = tracer.counts[op_id].pop("_last_bw_fit", None)
                    if fit is not None:
                        kkt[op_id] = dpdkit.kkt_check(*fit).max_violation
                    tracer.counts[op_id]["pipeline.output_bytes"] = result.output_bytes
                else:
                    result = op(ctx)
                wall = time.perf_counter() - t0
                problems = check_op(ctx, result.outcome, first, references)
            except Exception as exc:  # an op that raises counts as failed
                wall = time.perf_counter() - t0
                result, problems = None, [f"{type(exc).__name__}: {exc}"]
            if first is None and result is not None:
                first = result.outcome
            if problems:
                failures.append({"op": op_id, "problems": problems})
            if op_id == 0:
                warmup_s = wall
            elif not problems:
                if traced_op:
                    traced_ids.append(op_id)
                else:
                    untraced_walls.append(wall)
                    results.append(result)
            probe_s += calibration.sample(CALIBRATION_SHARE * wall)
            elapsed = time.perf_counter() - start - warmup_s - probe_s
            probe_due = len(setup_samples) * probe_interval
            if len(setup_samples) < SETUP_PROBES and elapsed >= probe_due:
                t0 = time.perf_counter()
                setup_samples.append(setup_probe(workload, probe_overrides))
                probe_s += time.perf_counter() - t0
            enough = results and (traced_ids or not trace)
            if elapsed >= seconds and (enough or failures):
                break
    finally:
        shutil.rmtree(ctx.out_dir, ignore_errors=True)
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(setup_probe(workload, probe_overrides))
    scale = calibration.scale()

    failed = len({f["op"] for f in failures})
    record = {
        "environment": environment(ctx),
        "setup_samples_s": setup_samples,
        "calibration_samples_s": calibration.samples,
        "speed_scale": scale,
        "warmup_s": warmup_s,
        "timed_ops": len(results),
        "traced_ops": len(traced_ids),
        "failures": failures,
    }
    if trace:
        metrics = _trace_metrics(tracer, traced_ids, untraced_walls, kkt)
        metrics[WARMUP] = warmup_s
        units = per_layer_units()
        record["spans"] = tracer.records()
    else:
        metrics = _end_to_end_metrics(results, setup_samples, scale, first, attempted, failed)
        units = END_TO_END_UNITS
        record["op_samples"] = {
            "fit_s": [r.fit_s for r in results],
            "validate_s": [r.validate_s for r in results],
            "predistort_s": [r.predistort_s for r in results],
        }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if metrics.get(name) is not None
        },
    }
    return line, record


def _end_to_end_metrics(results, setup_samples, scale, first, attempted, failed):
    """Timings are medians scaled by ``scale`` to reference host speed."""
    metrics = {
        "setup_s": statistics.median(setup_samples) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (attempted - failed) / attempted,
    }
    if results:
        metrics["fit_s"] = _median([r.fit_s for r in results]) * scale
        metrics["validate_s"] = _median([r.validate_s for r in results]) * scale
        metrics["predistort_msps"] = _median(
            [r.predistorted_samples / r.predistort_s / 1e6 for r in results]
        ) / scale
    if first is not None:
        metrics["bw_nmse_neg_db"] = -first["training"]["bw_nmse_db"]
        metrics["bw_kernel_count"] = first["training"]["bw_kernel_count"]
        metrics["bwlasso_r_evm_neg_db"] = -first["validation"]["bwlasso_r_evm_db"]
    return metrics


def _trace_metrics(tracer, traced_ids, untraced_walls, kkt):
    if not traced_ids:
        return {}
    metrics = _layer_metrics(tracer, traced_ids, kkt)
    if untraced_walls:
        metrics["trace.untraced_op_s"] = _median(untraced_walls)
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - metrics["trace.untraced_op_s"]
    return metrics


def write_record(name, line, record):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": line, **record}, fh, indent=1)
    return path
