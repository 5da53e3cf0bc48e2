"""Acceptance gate: one test per release criterion.

Each test registers a PASS/FAIL verdict with the terminal-summary hook
in conftest.py and then asserts its subconditions individually, so a red
run still prints the full criterion table.  Criteria 7 through 10 share
one full run of both experiments on the shipped desk-scale config.
"""

import os
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

from dpdkit.gmp import build_kernel_matrix, full_structure
from dpdkit.pipeline import load_config, run_experiment1, run_experiment2
from dpdkit.signal import IqSignal
from dpdkit.solver import (
    BcdConfig,
    RegularizationSchedule,
    block_weighted_lasso,
    default_schedule,
    kkt_check,
    lasso_iterated_ridge,
)

import helpers
from conftest import record_criterion

DESK_CONFIG = Path(__file__).parent.parent / "configs" / "desk-scale.cfg"


def check(number, description, conditions):
    """Register the verdict, then assert each labelled subcondition."""
    record_criterion(number, description, all(ok for ok, _ in conditions))
    for ok, detail in conditions:
        assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. Kernel-count identity.


def test_criterion_01_kernel_count_identity():
    full_structure(19, 15, 1)  # warm call; the timed call follows
    t0 = perf_counter()
    structure = full_structure(19, 15, 1)
    elapsed = perf_counter() - t0
    check(
        1,
        "full_structure(19, 15, 1) without leading branch has exactly 300 kernels",
        [
            (structure.kernel_count == 300,
             f"kernel_count {structure.kernel_count} != 300"),
            (structure.leading_lags == (), "leading branch should be empty"),
            (elapsed < 1e-3, f"took {elapsed:.6f} s, budget 1 ms"),
        ],
    )


# ---------------------------------------------------------------------------
# 2. Schedule identity.


def test_criterion_02_schedule_identity():
    structure = full_structure(19, 15, 1)
    default_schedule(structure)
    t0 = perf_counter()
    schedule = default_schedule(structure)
    elapsed = perf_counter() - t0

    conditions = [
        (schedule.lambda_for(0) == 1e-4, "lambda_0 != 1e-4"),
        (schedule.threshold_for(0) == 0.17, "threshold_0 != 0.17"),
        (elapsed < 1e-3, f"took {elapsed:.6f} s, budget 1 ms"),
    ]
    for k in range(2, 15, 2):
        ratio = 2.0 if k >= 10 else 1.35
        conditions.append(
            (schedule.lambda_for(k) == schedule.lambda_for(k - 2) * ratio,
             f"lambda ratio at order {k} is not exactly {ratio}")
        )
        conditions.append(
            (schedule.threshold_for(k) == schedule.threshold_for(k - 2) * ratio,
             f"threshold ratio at order {k} is not exactly {ratio}")
        )
    check(2, "default_schedule reproduces the tabulated penalty ladder exactly",
          conditions)


# ---------------------------------------------------------------------------
# 3. Kernel-matrix oracle.


def _random_structure(rng, max_kernels=30):
    while True:
        # A coin for the leading branch, then its depth: drawn as the
        # cases have always been drawn, so the 50 structures stay the same.
        leading = bool(rng.integers(0, 2))
        structure = full_structure(
            memory_depth=int(rng.integers(0, 6)),
            max_order=int(rng.integers(0, 4)) * 2 + 1,
            lagging_depth=int(rng.integers(0, 3)),
            leading_depth=int(rng.integers(1, 3)) if leading else 0,
        )
        if structure.kernel_count <= max_kernels:
            return structure


def test_criterion_03_kernel_matrix_matches_triple_loop():
    rng = np.random.default_rng(3)
    t0 = perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(8, 65))
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # unit-disk samples keep every kernel entry at order one, so an
        # absolute 1e-14 comparison is meaningful for all orders
        samples /= np.max(np.abs(samples))
        structure = _random_structure(rng)
        signal = IqSignal(samples, 1.0)
        fast = build_kernel_matrix(signal, structure)
        naive, _ = helpers.naive_kernel_matrix(samples, structure)
        worst = max(worst, float(np.max(np.abs(fast.data - naive))))
    elapsed = perf_counter() - t0
    check(
        3,
        "kernel matrix matches the brute-force triple loop within 1e-14 "
        "on 50 random cases",
        [
            (worst <= 1e-14, f"worst entrywise difference {worst:.3e} > 1e-14"),
            (elapsed < 1.0, f"took {elapsed:.2f} s, budget 1 s"),
        ],
    )


# ---------------------------------------------------------------------------
# 4. Lasso optimality.


def test_criterion_04_lasso_solutions_satisfy_stationarity():
    rng = np.random.default_rng(4)
    # Coefficients headed for zero decay geometrically at a ratio set by
    # how close their column's correlation sits to the penalty, so the
    # iteration cap has to cover the slowest admissible decay before the
    # 1e-4 certificate is meaningful.
    config = BcdConfig(inner_ridge_iterations=40000, inner_tolerance=1e-13)
    t0 = perf_counter()

    worst_scaled = 0.0
    for _ in range(20):
        p = int(rng.integers(3, 21))
        n = 3 * p
        S = (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)))
        S /= np.sqrt(n)
        w_true = np.zeros(p, dtype=np.complex128)
        active = rng.choice(p, size=max(1, p // 3), replace=False)
        w_true[active] = rng.standard_normal(len(active)) + 1j * rng.standard_normal(
            len(active)
        )
        x = S @ w_true + 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lam = 0.3 * 2.0 * float(np.max(np.abs(S.conj().T @ x)))
        w = lasso_iterated_ridge(S, x, lam, 0.0, config)
        report = kkt_check(S, x, w, lam)
        worst_scaled = max(worst_scaled, report.max_violation / lam)

    # orthonormal design: closed-form soft threshold, with the penalty in
    # the widest relative gap of the correlation spectrum so no
    # coordinate sits near its activation boundary
    q, _ = np.linalg.qr(
        rng.standard_normal((24, 12)) + 1j * rng.standard_normal((24, 12))
    )
    x = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    mags = np.sort(2.0 * np.abs(q.conj().T @ x))
    gap = int(np.argmax(mags[1:] / mags[:-1]))
    lam = float(np.sqrt(mags[gap] * mags[gap + 1]))
    ortho_config = BcdConfig(inner_ridge_iterations=500, inner_tolerance=1e-12)
    w = lasso_iterated_ridge(q, x, lam, config=ortho_config)
    ortho_diff = float(np.max(np.abs(w - helpers.soft_threshold_solution(q, x, lam))))

    elapsed = perf_counter() - t0
    check(
        4,
        "iterated-ridge fits certify first-order optimality on 20 random "
        "instances and match the orthonormal closed form",
        [
            (worst_scaled <= 1e-4,
             f"worst violation {worst_scaled:.3e} x lambda > 1e-4 x lambda"),
            (ortho_diff <= 1e-8,
             f"orthonormal-case difference {ortho_diff:.3e} > 1e-8"),
            (elapsed < 5.0, f"took {elapsed:.2f} s, budget 5 s"),
        ],
    )


# ---------------------------------------------------------------------------
# 5. Brute-force equivalence.


def test_criterion_05_objective_matches_grid_search():
    rng = np.random.default_rng(5)
    t0 = perf_counter()
    worst_rel = 0.0
    for _ in range(10):
        p = int(rng.integers(1, 5))
        n = 30
        S = rng.standard_normal((n, p)) / np.sqrt(n)
        w_true = np.where(rng.random(p) < 0.7, rng.standard_normal(p), 0.0)
        x = S @ w_true + 0.05 * rng.standard_normal(n)
        lam = 0.2 * 2.0 * float(np.max(np.abs(S.T @ x)))

        w = lasso_iterated_ridge(
            S.astype(np.complex128),
            x.astype(np.complex128),
            lam,
            0.0,
            BcdConfig(inner_ridge_iterations=40000, inner_tolerance=1e-13),
        )
        solver_obj = helpers.lasso_objective(S, x, w, lam)
        grid_obj, _ = helpers.grid_search_lasso(S, x, lam)
        worst_rel = max(worst_rel, abs(solver_obj - grid_obj) / grid_obj)
    elapsed = perf_counter() - t0
    check(
        5,
        "solver objective matches a dense grid search within 1e-4 relative "
        "on 10 small real instances",
        [
            (worst_rel <= 1e-4, f"worst relative gap {worst_rel:.3e} > 1e-4"),
            (elapsed < 30.0, f"took {elapsed:.2f} s, budget 30 s"),
        ],
    )


# ---------------------------------------------------------------------------
# 6. Block-descent consistency.


def test_criterion_06_single_block_reduces_to_plain_solver():
    rng = np.random.default_rng(6)
    t0 = perf_counter()

    single = full_structure(4, 1, 0)
    samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    signal = IqSignal(samples / np.max(np.abs(samples)), 1.0)
    matrix = build_kernel_matrix(signal, single)
    w_true = np.zeros(single.kernel_count, dtype=np.complex128)
    w_true[[0, 2]] = (0.9 + 0.1j, -0.4j)
    target = IqSignal(matrix.data @ w_true, 1.0)
    lam = 0.05 * 2.0 * float(np.max(np.abs(matrix.data.conj().T @ target.samples)))

    schedule = RegularizationSchedule({0: lam}, {0: 0.0})
    blocked, trace = block_weighted_lasso(matrix, target, schedule)
    plain = lasso_iterated_ridge(matrix, target, lam, 0.0)
    bitwise = np.array_equal(blocked.values, plain.values)

    # multi-block run: the per-record objective must never rise
    multi = full_structure(4, 3, 1)
    matrix2 = build_kernel_matrix(signal, multi)
    w2 = np.zeros(multi.kernel_count, dtype=np.complex128)
    w2[[0, 6, 12]] = (1.0, 0.25, -0.15j)
    target2 = IqSignal(
        matrix2.data @ w2
        + 1e-3 * (rng.standard_normal(256) + 1j * rng.standard_normal(256)),
        1.0,
    )
    schedule2 = default_schedule(multi, lambda_scale=10.0, threshold_scale=0.1)
    lams = np.array(
        [schedule2.lambda_for(d.order_exponent) for d in matrix2.columns]
    )
    _, trace2 = block_weighted_lasso(matrix2, target2, schedule2)
    objectives = [
        helpers.block_objective(matrix2.data, target2.samples, r.coefficients, lams)
        for r in trace2.records
    ]
    monotone = all(
        after <= before + 1e-10 * max(abs(before), 1.0)
        for before, after in zip(objectives, objectives[1:])
    )

    elapsed = perf_counter() - t0
    check(
        6,
        "single-block weighted descent is bitwise equal to the plain solver "
        "and the weighted objective never rises",
        [
            (bitwise, "single-block coefficients differ from the plain solver"),
            (monotone, f"objective rose across records: {objectives}"),
            (elapsed < 5.0, f"took {elapsed:.2f} s, budget 5 s"),
        ],
    )


# ---------------------------------------------------------------------------
# 7-10. Desk-scale experiments on the shipped preset.


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "out"
    config = load_config(DESK_CONFIG, overrides=[f"output.dir={out}"])

    t0 = perf_counter()
    trace, _ = run_experiment1(config)
    report = run_experiment2(config)
    elapsed = perf_counter() - t0

    summary = {}
    for line in (out / "exp1_summary.csv").read_text().splitlines()[2:]:
        key, value = line.split(",", 1)
        summary[key] = value
    snapshot = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    return SimpleNamespace(
        config=config,
        trace=trace,
        report=report,
        summary=summary,
        snapshot=snapshot,
        out=out,
        elapsed=elapsed,
    )


def test_criterion_07_sparse_fit_recovers_shallow_model(desk_run):
    config = desk_run.config
    total = config.structure.kernel_count
    selected = desk_run.trace.selected
    label_db = float(desk_run.summary["ilc_error_db"])
    ls_evm = desk_run.report.row("ls-full").evm_db
    bw_evm = desk_run.report.row("bwlasso-r").evm_db

    n_samples = (
        config.signal.n_subcarriers
        * config.signal.n_symbols
        * config.signal.oversampling_factor
    )
    check(
        7,
        "block-weighted fit on the shipped amplifier stays shallow and "
        "sparse with refined EVM within 1 dB of full least squares",
        [
            (n_samples == 16384, f"run uses {n_samples} samples, expected 16384"),
            (label_db <= -50.0, f"training labels at {label_db:.1f} dB, need <= -50"),
            (selected.effective_memory_depth <= 6,
             f"effective depth {selected.effective_memory_depth} > 6"),
            (selected.kernel_count <= 0.30 * total,
             f"kernel count {selected.kernel_count} > 30% of {total}"),
            (abs(bw_evm - ls_evm) <= 1.0,
             f"refined EVM {bw_evm:.2f} vs full-LS {ls_evm:.2f} differs by > 1 dB"),
            (desk_run.elapsed < 60.0,
             f"experiments took {desk_run.elapsed:.1f} s, budget 60 s"),
        ],
    )


def test_criterion_08_count_matched_plain_fit_keeps_deep_lags(desk_run):
    depth = int(desk_run.summary["standard_lasso_effective_memory_depth"])
    matched = desk_run.summary["standard_lasso_matched"]
    check(
        8,
        "count-matched plain Lasso still reaches within 1 lag of the "
        "deepest available memory",
        [
            (matched == "true", "penalty search failed to match the kernel count"),
            (depth >= 8, f"plain-Lasso effective depth {depth} < 8"),
            (depth <= 9, f"plain-Lasso effective depth {depth} exceeds structure"),
            (desk_run.elapsed < 60.0,
             f"experiments took {desk_run.elapsed:.1f} s, budget 60 s"),
        ],
    )


def test_criterion_09_refined_evm_ordering(desk_run):
    ls = desk_run.report.row("ls-full").evm_db
    lasso_r = desk_run.report.row("lasso-r").evm_db
    bw_r = desk_run.report.row("bwlasso-r").evm_db
    check(
        9,
        "EVM ordering holds: refined block-weighted <= refined plain "
        "<= full LS + 1 dB",
        [
            (bw_r <= lasso_r,
             f"block-weighted {bw_r:.2f} dB worse than plain {lasso_r:.2f} dB"),
            (lasso_r <= ls + 1.0,
             f"plain refined {lasso_r:.2f} dB worse than LS {ls:.2f} + 1 dB"),
            (desk_run.elapsed < 120.0,
             f"experiments took {desk_run.elapsed:.1f} s, budget 120 s"),
        ],
    )


def test_criterion_10_experiments_are_deterministic(desk_run):
    t0 = perf_counter()
    run_experiment1(desk_run.config)
    run_experiment2(desk_run.config)
    rerun_elapsed = perf_counter() - t0
    again = {
        name: (desk_run.out / name).read_bytes()
        for name in sorted(os.listdir(desk_run.out))
    }
    same_names = sorted(again) == sorted(desk_run.snapshot)
    diffs = [name for name in again if again[name] != desk_run.snapshot.get(name)]
    total = desk_run.elapsed + rerun_elapsed
    check(
        10,
        "rerunning both experiments reproduces every output file "
        "byte for byte",
        [
            (same_names, "rerun produced a different set of files"),
            (not diffs, f"files changed between runs: {diffs}"),
            (total < 240.0, f"two full runs took {total:.1f} s, budget 240 s"),
        ],
    )
