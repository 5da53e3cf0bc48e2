"""Least squares, ridge, Lasso via iterated ridge, BCD, schedules, KKT."""
import tracemalloc

import numpy as np
import pytest

from dpdkit import solver
from dpdkit.errors import (
    ConfigurationError,
    DegenerateInputError,
    RankDeficiencyError,
)
from dpdkit.gmp import (
    Branch,
    CoefficientVector,
    build_kernel_matrix,
    effective_memory_depth,
    full_structure,
)
from dpdkit.pipeline import matched_count_lasso
from dpdkit.signal import IqSignal
from dpdkit.solver import (
    BcdConfig,
    RegularizationSchedule,
    block_weighted_lasso,
    default_schedule,
    kkt_check,
    lasso_iterated_ridge,
    least_squares,
    ls_refine,
    ridge,
)

from helpers import (
    block_objective,
    ladder_tables,
    lasso_objective,
    soft_threshold_solution,
)


def _random_design(rng, n, p):
    return (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))) / np.sqrt(n)


# --- schedules -----------------------------------------------------------


def test_default_schedule_matches_recurrence():
    lam_table, tau_table = ladder_tables()
    structure = full_structure(19, 15, 1)
    schedule = default_schedule(structure)
    for k in range(0, 16, 2):
        assert schedule.lambda_for(k) == lam_table[k]
        assert schedule.threshold_for(k) == tau_table[k]


def test_default_schedule_named_values():
    schedule = default_schedule(full_structure(1, 15, 1))
    assert schedule.lambda_for(0) == 1e-4
    assert schedule.lambda_for(8) == pytest.approx(3.3215e-4, rel=1e-4)
    assert schedule.lambda_for(14) == pytest.approx(2.6572e-3, rel=1e-4)
    assert schedule.threshold_for(0) == 0.17
    assert schedule.threshold_for(2) == pytest.approx(0.2295, rel=1e-12)


def test_default_schedule_scales():
    structure = full_structure(2, 5, 1)
    base = default_schedule(structure)
    scaled = default_schedule(structure, lambda_scale=2.0, threshold_scale=0.5)
    for k in structure.orders:
        assert scaled.lambda_for(k) == base.lambda_for(k) * 2.0
        assert scaled.threshold_for(k) == base.threshold_for(k) * 0.5


def test_default_schedule_rejects_untabulated_order():
    with pytest.raises(ConfigurationError):
        default_schedule(full_structure(2, 17, 1))


def test_schedule_missing_order_named():
    schedule = RegularizationSchedule({0: 1e-4}, {0: 0.1})
    with pytest.raises(ConfigurationError) as err:
        schedule.lambda_for(6)
    assert "6" in str(err.value)


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        RegularizationSchedule({1: 1e-4}, {1: 0.1})  # odd order
    with pytest.raises(ConfigurationError):
        RegularizationSchedule({0: -1.0}, {0: 0.1})
    with pytest.raises(ConfigurationError):
        RegularizationSchedule({0: 1e-4}, {0: -0.1})


# --- least squares and ridge ----------------------------------------------


def test_least_squares_single_column():
    x = np.array([1.0, 2.0, -1.0j])
    S = x.reshape(-1, 1)
    w = least_squares(S, x)
    assert w == pytest.approx([1.0], abs=1e-12)


def test_least_squares_planted_recovery():
    rng = np.random.default_rng(1)
    S = _random_design(rng, 32, 4)
    true = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = least_squares(S, S @ true)
    assert np.max(np.abs(w - true)) <= 1e-10


def test_least_squares_duplicate_columns():
    rng = np.random.default_rng(2)
    col = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    S = np.stack([col, col], axis=1)
    with pytest.raises(RankDeficiencyError):
        least_squares(S, col)


def test_least_squares_names_structure():
    structure = full_structure(1, 3, 1)
    signal = IqSignal(np.zeros(32, dtype=np.complex128), 1.0)
    matrix = build_kernel_matrix(signal, structure)
    with pytest.raises(RankDeficiencyError) as err:
        least_squares(matrix, np.zeros(32))
    assert "structure" in str(err.value)


def test_least_squares_residual_orthogonal():
    rng = np.random.default_rng(3)
    S = _random_design(rng, 48, 6)
    x = rng.standard_normal(48) + 1j * rng.standard_normal(48)
    w = least_squares(S, x)
    residual = x - S @ w
    assert np.max(np.abs(S.conj().T @ residual)) <= 1e-8 * np.linalg.norm(x)


def test_ridge_closed_form():
    w = ridge(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]), [1.0])
    assert w == pytest.approx([0.5], abs=1e-15)


def test_ridge_vanishing_regularization():
    rng = np.random.default_rng(4)
    S = _random_design(rng, 32, 5)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    near_ls = ridge(S, x, np.full(5, 1e-14))
    assert np.max(np.abs(near_ls - least_squares(S, x))) <= 1e-8


def test_ridge_infinite_shrinkage():
    rng = np.random.default_rng(5)
    S = _random_design(rng, 32, 5)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    w = ridge(S, x, np.full(5, 1e12))
    assert np.max(np.abs(w)) < 1e-9


def test_ridge_rejects_bad_weights():
    S = np.eye(2, dtype=np.complex128)
    with pytest.raises(ConfigurationError):
        ridge(S, np.ones(2), [1.0, 0.0])
    with pytest.raises(ConfigurationError):
        ridge(S, np.ones(2), [1.0, -1.0])


# --- ls_refine -------------------------------------------------------------


def test_refine_full_support_equals_ls():
    rng = np.random.default_rng(6)
    S = _random_design(rng, 32, 5)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    diff = ls_refine(S, x, np.arange(5)) - least_squares(S, x)
    assert np.max(np.abs(diff)) <= 1e-12


def test_refine_single_column_closed_form():
    rng = np.random.default_rng(7)
    S = _random_design(rng, 32, 5)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    w = ls_refine(S, x, [2])
    expected = np.vdot(S[:, 2], x) / np.vdot(S[:, 2], S[:, 2])
    assert w[2] == pytest.approx(expected, rel=1e-10)
    assert np.all(w[[0, 1, 3, 4]] == 0)


def test_refine_beats_lasso_on_same_support():
    rng = np.random.default_rng(8)
    S = _random_design(rng, 64, 8)
    true = np.zeros(8, dtype=np.complex128)
    true[[1, 4]] = [1.0, -0.5j]
    x = S @ true + 0.01 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    lasso = lasso_iterated_ridge(S, x, 0.05)
    support = np.flatnonzero(np.abs(lasso) > 0)
    refined = ls_refine(S, x, support)
    assert np.linalg.norm(x - S @ refined) <= np.linalg.norm(x - S @ lasso) + 1e-12


def test_refine_empty_support_rejected():
    S = np.eye(3, dtype=np.complex128)
    with pytest.raises(ConfigurationError):
        ls_refine(S, np.ones(3), [])


# --- lasso ------------------------------------------------------------------


def test_lasso_null_certificate():
    rng = np.random.default_rng(9)
    S = _random_design(rng, 32, 6)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    lam = 2.0 * float(np.max(np.abs(S.conj().T @ x)))
    w = lasso_iterated_ridge(S, x, lam)
    assert np.all(w == 0)


def test_lasso_orthonormal_two_coordinate_example():
    S = np.eye(2, dtype=np.complex128)
    x = np.array([1.0, 0.1], dtype=np.complex128)
    w = lasso_iterated_ridge(S, x, 0.4, zero_threshold=1e-6)
    assert w[0] == pytest.approx(0.8, abs=1e-8)
    assert w[1] == 0.0


def test_lasso_matches_soft_threshold_on_unitary_design():
    rng = np.random.default_rng(10)
    raw = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    q, _ = np.linalg.qr(raw)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    # Place the penalty in the widest relative gap of the correlation
    # spectrum so no coordinate sits near the activation boundary, where
    # the iterated ridge shrinks only slowly.
    mags = np.sort(2 * np.abs(q.conj().T @ x))
    gap = int(np.argmax(mags[1:] / mags[:-1]))
    lam = float(np.sqrt(mags[gap] * mags[gap + 1]))
    config = BcdConfig(inner_ridge_iterations=500, inner_tolerance=1e-12)
    w = lasso_iterated_ridge(q, x, lam, config=config)
    oracle = soft_threshold_solution(q, x, lam)
    assert np.max(np.abs(w - oracle)) <= 1e-8


def test_lasso_small_penalty_limit_is_ls():
    rng = np.random.default_rng(11)
    S = _random_design(rng, 32, 5)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    w = lasso_iterated_ridge(S, x, 1e-10)
    assert np.max(np.abs(w - least_squares(S, x))) <= 1e-6


def test_lasso_penalty_must_be_positive():
    S = np.eye(2, dtype=np.complex128)
    with pytest.raises(ConfigurationError):
        lasso_iterated_ridge(S, np.ones(2), 0.0)
    with pytest.raises(ConfigurationError):
        lasso_iterated_ridge(S, np.ones(2), 0.1, zero_threshold=-1.0)


def test_lasso_kkt_on_random_instances():
    # Coefficients headed for zero decay geometrically, with ratio set by
    # how close the column's correlation sits to the penalty, so
    # certification needs a tight tolerance and generous iteration room.
    config = BcdConfig(inner_ridge_iterations=40000, inner_tolerance=1e-13)
    rng = np.random.default_rng(12)
    worst_scaled = 0.0
    for _ in range(10):
        p = int(rng.integers(3, 21))
        S = _random_design(rng, 64, p)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        lam = 0.3 * float(np.max(2 * np.abs(S.conj().T @ x)))
        w = lasso_iterated_ridge(S, x, lam, config=config)
        report = kkt_check(S, x, w, lam)
        worst_scaled = max(worst_scaled, report.max_violation / lam)
    assert worst_scaled <= 1e-4


def test_lasso_zero_threshold_prunes_permanently():
    rng = np.random.default_rng(13)
    S = _random_design(rng, 64, 10)
    true = np.zeros(10, dtype=np.complex128)
    true[[0, 3]] = [1.0, 0.5j]
    x = S @ true + 1e-3 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    w = lasso_iterated_ridge(S, x, 0.02, zero_threshold=0.05)
    active = np.flatnonzero(np.abs(w) > 0)
    assert list(active) == [0, 3]
    assert np.all(np.abs(w[active]) >= 0.05)


def test_lasso_objective_not_worse_than_competitors():
    rng = np.random.default_rng(14)
    S = _random_design(rng, 48, 6)
    x = rng.standard_normal(48) + 1j * rng.standard_normal(48)
    lam = 0.4 * float(np.max(2 * np.abs(S.conj().T @ x)))
    w = lasso_iterated_ridge(S, x, lam)
    ours = lasso_objective(S, x, w, lam)
    assert ours <= lasso_objective(S, x, least_squares(S, x), lam) + 1e-12
    assert ours <= lasso_objective(S, x, np.zeros(6), lam) + 1e-12


# --- kkt_check ---------------------------------------------------------------


def test_kkt_null_solution_certificate():
    rng = np.random.default_rng(15)
    S = _random_design(rng, 32, 4)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    lam = 2.0 * float(np.max(np.abs(S.conj().T @ x))) + 0.1
    report = kkt_check(S, x, np.zeros(4, dtype=np.complex128), lam)
    assert report.max_violation_active == 0.0
    assert report.max_violation_inactive == 0.0


def test_kkt_orthonormal_example_stationary():
    S = np.eye(2, dtype=np.complex128)
    x = np.array([1.0, 0.1], dtype=np.complex128)
    report = kkt_check(S, x, np.array([0.8, 0.0], dtype=np.complex128), 0.4)
    assert report.max_violation <= 1e-12


def test_kkt_detects_perturbation():
    S = np.eye(2, dtype=np.complex128)
    x = np.array([1.0, 0.1], dtype=np.complex128)
    report = kkt_check(S, x, np.array([0.9, 0.0], dtype=np.complex128), 0.4)
    assert report.max_violation_active > 0.01


def test_kkt_accepts_per_column_weights():
    rng = np.random.default_rng(16)
    S = _random_design(rng, 32, 3)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    w = np.zeros(3, dtype=np.complex128)
    lams = np.full(3, 2.0 * float(np.max(np.abs(S.conj().T @ x))))
    report = kkt_check(S, x, w, lams)
    assert report.max_violation == 0.0


# --- block-weighted lasso ----------------------------------------------------


def _uniform_schedule(structure, lam, tau=0.0):
    orders = structure.orders
    return RegularizationSchedule(
        {k: lam for k in orders}, {k: tau for k in orders}
    )


def test_single_block_equals_plain_lasso_bitwise():
    rng = np.random.default_rng(17)
    signal = IqSignal(
        (rng.standard_normal(256) + 1j * rng.standard_normal(256)) / np.sqrt(2), 1.0
    )
    single = full_structure(4, 1, 0)  # k = 0 only: one block of 5 delay taps
    assert single.orders == (0,) and single.kernel_count == 5
    matrix = build_kernel_matrix(signal, single)
    x = matrix.data @ (rng.standard_normal(5) + 1j * rng.standard_normal(5))
    x += 0.01 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
    lam = 0.05
    schedule = _uniform_schedule(single, lam, 0.01)
    blocked, trace = block_weighted_lasso(
        matrix, x, schedule, BcdConfig(outer_iterations=1)
    )
    plain = lasso_iterated_ridge(matrix, x, lam, 0.01)
    assert np.array_equal(blocked.values, plain.values)
    assert trace.selected.kernel_count == int(np.count_nonzero(plain.values))


def test_block_objective_monotone_outer_iterations():
    rng = np.random.default_rng(18)
    signal = IqSignal(
        (rng.standard_normal(512) + 1j * rng.standard_normal(512)) / np.sqrt(2), 1.0
    )
    structure = full_structure(3, 5, 1)
    matrix = build_kernel_matrix(signal, structure)
    p = structure.kernel_count
    true = np.zeros(p, dtype=np.complex128)
    true[[0, 2, 9]] = [1.0, 0.2j, -0.1]
    x = matrix.data @ true
    x += 1e-3 * (rng.standard_normal(512) + 1j * rng.standard_normal(512))
    schedule = _uniform_schedule(structure, 0.02, 0.0)
    lams = np.array([schedule.lambda_for(d.order_exponent) for d in structure.descriptors()])
    _, trace = block_weighted_lasso(matrix, x, schedule, BcdConfig(outer_iterations=8))
    objectives = [
        block_objective(matrix.data, x, record.coefficients, lams)
        for record in trace.records
    ]
    for before, after in zip(objectives, objectives[1:]):
        assert after <= before + 1e-10 * max(abs(before), 1.0)


def test_block_first_update_sees_full_target():
    # With one outer iteration and every block beyond the first forced to
    # stay empty by huge penalties, the result on the first block equals a
    # plain solve against the raw target.
    rng = np.random.default_rng(19)
    signal = IqSignal(
        (rng.standard_normal(256) + 1j * rng.standard_normal(256)) / np.sqrt(2), 1.0
    )
    structure = full_structure(2, 3, 0)  # orders {0, 2}, aligned only
    matrix = build_kernel_matrix(signal, structure)
    x = matrix.data[:, 1] * 0.7 + 0.01 * (
        rng.standard_normal(256) + 1j * rng.standard_normal(256)
    )
    schedule = RegularizationSchedule({0: 0.01, 2: 1e6}, {0: 0.0, 2: 0.0})
    blocked, _ = block_weighted_lasso(
        matrix, x, schedule, BcdConfig(outer_iterations=1)
    )
    linear_only = build_kernel_matrix(signal, full_structure(2, 1, 0))
    plain = lasso_iterated_ridge(linear_only, x, 0.01)
    assert np.allclose(blocked.values[:3], plain.values, atol=1e-12)
    assert np.all(blocked.values[3:] == 0)


def test_block_null_certificate():
    rng = np.random.default_rng(20)
    signal = IqSignal(
        (rng.standard_normal(128) + 1j * rng.standard_normal(128)) / np.sqrt(2), 1.0
    )
    structure = full_structure(2, 3, 1)
    matrix = build_kernel_matrix(signal, structure)
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    lam = 2.0 * float(np.max(np.abs(matrix.data.conj().T @ x))) + 1.0
    coeffs, _ = block_weighted_lasso(matrix, x, _uniform_schedule(structure, lam))
    assert np.all(coeffs.values == 0)


def test_block_planted_recovery():
    # Plant polynomial orders 1 and 3 (envelope powers 0 and 2) at depth 5
    # inside a full (L=9, K=7, M_b=1) search structure with -50 dB noise;
    # the solver should return exactly the planted support.
    #
    # A delay tap and the cubic kernel at the same lag correlate at
    # E|s|^4 / sqrt(E|s|^2 E|s|^6) = 0.82 for Gaussian inputs, so the
    # first (linear) block sweep absorbs most of each planted cubic
    # kernel's energy into shadow taps. The ladder keeps its per-order
    # ratios but is scaled up to this fixture's correlation scale
    # (~ sample count times coefficient size) so the reweighted penalty
    # extinguishes the shadows instead of leaving them to stall block
    # descent; recovery holds for scale 2e6 to 6e6.
    rng = np.random.default_rng(22)
    signal = IqSignal(
        (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)) / np.sqrt(2),
        1.0,
    )
    structure = full_structure(9, 7, 1)
    matrix = build_kernel_matrix(signal, structure)
    descriptors = structure.descriptors()
    planted = {}
    for j, d in enumerate(descriptors):
        if d.branch is Branch.ALIGNED and d.order_exponent == 0 and d.lag == 0:
            planted[j] = 1.0
        if d.branch is Branch.ALIGNED and d.order_exponent == 2 and d.lag in (1, 5):
            planted[j] = 0.6 if d.lag == 1 else 0.5j
        if (
            d.branch is Branch.LAGGING
            and d.order_exponent == 2
            and d.lag == 3
            and d.envelope_offset == 1
        ):
            planted[j] = -0.45
    true = np.zeros(structure.kernel_count, dtype=np.complex128)
    for j, v in planted.items():
        true[j] = v
    clean = matrix.data @ true
    noise = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    noise *= np.sqrt(1e-5 * np.sum(np.abs(clean) ** 2) / np.sum(np.abs(noise) ** 2))
    x = clean + noise
    schedule = default_schedule(structure, lambda_scale=3e6, threshold_scale=0.2)
    coeffs, _ = block_weighted_lasso(matrix, x, schedule)
    assert sorted(np.flatnonzero(np.abs(coeffs.values) > 0)) == sorted(planted)
    assert effective_memory_depth(coeffs) == 5


def test_trace_selection_modes():
    rng = np.random.default_rng(23)
    signal = IqSignal(
        (rng.standard_normal(256) + 1j * rng.standard_normal(256)) / np.sqrt(2), 1.0
    )
    structure = full_structure(2, 3, 1)
    matrix = build_kernel_matrix(signal, structure)
    x = matrix.data @ (0.1 * (rng.standard_normal(structure.kernel_count))) + 0.01 * (
        rng.standard_normal(256) + 1j * rng.standard_normal(256)
    )
    schedule = _uniform_schedule(structure, 0.02)
    best, trace = block_weighted_lasso(
        matrix, x, schedule, BcdConfig(outer_iterations=6, keep_best_iterate=True)
    )
    nmses = [record.nmse_db for record in trace.records]
    assert trace.selected.iteration == trace.records[int(np.argmin(nmses))].iteration
    assert np.array_equal(best.values, trace.selected.coefficients)
    last, trace2 = block_weighted_lasso(
        matrix, x, schedule, BcdConfig(outer_iterations=6, keep_best_iterate=False)
    )
    assert np.array_equal(last.values, trace2.records[-1].coefficients)
    assert len(trace2.records) == 6
    assert [record.iteration for record in trace2.records] == list(range(1, 7))


def test_block_requires_kernel_matrix():
    with pytest.raises(ConfigurationError):
        block_weighted_lasso(
            np.eye(3, dtype=np.complex128),
            np.ones(3),
            RegularizationSchedule({0: 1.0}, {0: 0.0}),
        )


def test_block_zero_target_degenerate():
    signal = IqSignal(np.ones(64, dtype=np.complex128), 1.0)
    structure = full_structure(1, 3, 0)
    matrix = build_kernel_matrix(signal, structure)
    with pytest.raises(DegenerateInputError):
        block_weighted_lasso(
            matrix, np.zeros(64), _uniform_schedule(structure, 0.1)
        )


def test_block_missing_order_in_schedule():
    rng = np.random.default_rng(24)
    signal = IqSignal(
        (rng.standard_normal(64) + 1j * rng.standard_normal(64)) / np.sqrt(2), 1.0
    )
    structure = full_structure(1, 3, 0)  # orders {0, 2}
    matrix = build_kernel_matrix(signal, structure)
    schedule = RegularizationSchedule({0: 0.1}, {0: 0.0})
    with pytest.raises(ConfigurationError) as err:
        block_weighted_lasso(matrix, signal.samples, schedule)
    assert "2" in str(err.value)


def test_bcd_config_validation():
    with pytest.raises(ConfigurationError):
        BcdConfig(outer_iterations=0)
    with pytest.raises(ConfigurationError):
        BcdConfig(inner_ridge_iterations=0)
    with pytest.raises(ConfigurationError):
        BcdConfig(inner_tolerance=0.0)
    with pytest.raises(ConfigurationError):
        BcdConfig(ridge_epsilon=0.0)


# --- shared Gram and memory ----------------------------------------------


def _kernel_problem(seed=31, n=2048):
    """35-kernel matrix (orders 0-6, depth 4, one lagging offset) and a target."""
    rng = np.random.default_rng(seed)
    signal = IqSignal(
        (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2), 1.0
    )
    matrix = build_kernel_matrix(signal, full_structure(4, 7, 1))
    true = np.zeros(matrix.data.shape[1], dtype=np.complex128)
    true[[0, 6, 21]] = [1.0, 0.2j, -0.05]
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return matrix, IqSignal(matrix.data @ true + 1e-3 * noise, 1.0)


def test_kernel_matrix_data_and_gram_are_read_only_and_cached():
    matrix, _ = _kernel_problem()
    assert not matrix.data.flags.writeable
    with pytest.raises(ValueError):
        matrix.data[0, 0] = 1.0
    gram = matrix.gram
    assert gram is matrix.gram
    assert not gram.flags.writeable
    assert np.array_equal(gram, matrix.data.conj().T @ matrix.data)


def test_cached_gram_solvers_equal_plain_matrix_bitwise():
    matrix, target = _kernel_problem()
    x = target.samples
    assert np.array_equal(least_squares(matrix, x).values, least_squares(matrix.data, x))
    weights = np.full(matrix.data.shape[1], 1e-3)
    assert np.array_equal(ridge(matrix, x, weights).values, ridge(matrix.data, x, weights))
    for lam in (1e-2, 1.0, 30.0):
        assert np.array_equal(
            lasso_iterated_ridge(matrix, x, lam, 1e-4).values,
            lasso_iterated_ridge(matrix.data, x, lam, 1e-4),
        )


def test_ridge_system_not_positive_definite_is_rank_deficiency():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=np.complex128)
    with pytest.raises(RankDeficiencyError):
        solver._ridge_solve(indefinite, np.ones(2, dtype=np.complex128), np.full(2, 1e-8))


def _peak_traced_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matched_count_makes_no_copy_of_the_kernel_matrix():
    # An N x P conjugate copy per Lasso call would cost data.nbytes.
    matrix, target = _kernel_problem()
    matrix.gram  # building the cache makes one transient copy; keep it out
    peak = _peak_traced_bytes(
        lambda: matched_count_lasso(matrix, target, 5, 0.0, BcdConfig())
    )
    assert peak < matrix.data.nbytes / 2


def test_block_weighted_holds_no_conjugate_block_copies():
    # The order blocks themselves total data.nbytes; conjugate copies of
    # them kept for the whole descent would double that.
    matrix, target = _kernel_problem()
    schedule = default_schedule(matrix.structure, threshold_scale=0.01)
    peak = _peak_traced_bytes(lambda: block_weighted_lasso(matrix, target, schedule))
    assert peak < 1.5 * matrix.data.nbytes
