"""Least squares, Lasso via iterated ridge, BCD, schedules, KKT."""
from pathlib import Path
import re
import tracemalloc
from unittest import mock
import warnings

from hypothesis import assume, example, given, settings, strategies as st
import numpy as np
import pytest

from dpdkit import gmp, solver
from dpdkit.errors import (
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    RankDeficiencyError,
)
from dpdkit.gmp import (
    ROW_CHUNK,
    Branch,
    CoefficientVector,
    GmpStructure,
    apply_model,
    build_kernel_matrix,
    effective_memory_depth,
    full_structure,
    normal_system,
)
from dpdkit.pipeline import _training_stage, load_config, matched_count_lasso
from dpdkit.signal import IqSignal
from dpdkit.solver import (
    MAX_OUTER_ITERATIONS,
    BcdConfig,
    RegularizationSchedule,
    block_weighted_lasso,
    default_schedule,
    kkt_check,
    lasso_iterated_ridge,
    least_squares,
    ls_refine,
)

from helpers import (
    block_objective,
    cholesky_ridge_solve,
    gathered_lasso_core,
    ladder_tables,
    lasso_objective,
    residual_domain_block_lasso,
    soft_threshold_solution,
)


SHIPPED_CONFIGS = Path(__file__).parent.parent / "configs"


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


def test_orders_only_a_cross_branch_has_are_scheduled():
    structure = GmpStructure(
        aligned_orders=(0,),
        aligned_lags=(0, 1),
        lagging_orders=(2,),
        lagging_lags=(0,),
        lagging_cross=(1,),
        leading_orders=(4,),
        leading_lags=(0,),
        leading_cross=(1,),
    )
    assert structure.orders == (0, 2, 4)
    schedule = default_schedule(structure)
    assert tuple(schedule.lambda_by_order) == tuple(schedule.threshold_by_order) == (0, 2, 4)


def test_orders_skip_a_branch_with_an_empty_axis():
    # The lagging branch has no lags, so its power 16 names no kernel.
    structure = GmpStructure((0,), (0,), lagging_orders=(16,), lagging_cross=(1,))
    assert structure.kernel_count == 1 and structure.orders == (0,)
    assert tuple(default_schedule(structure).lambda_by_order) == (0,)


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


# --- least squares ----------------------------------------------------


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


def test_plain_designs_may_be_nested_lists():
    design, target = [[1, 0], [1j, 1], [0, 2]], [2, 1j, 1]
    expected = least_squares(np.array(design, dtype=np.complex128), np.array(target, dtype=np.complex128))
    assert np.array_equal(least_squares(design, target), expected)


def test_every_solver_rejects_a_design_with_no_columns():
    # One answer for every solver, from normal_system.
    for fit in _FITS_OF_A_TARGET.values():
        with pytest.raises(ConfigurationError, match="design has no columns"):
            fit(np.zeros((3, 0)), np.ones(3))


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


@pytest.mark.parametrize("support", [[True, False], [2.9]])
def test_refine_non_integer_support_rejected(support):
    # A cast would refit columns 0 and 1 for the mask, column 2 for 2.9.
    S = np.eye(3, dtype=np.complex128)
    with pytest.raises(ConfigurationError, match="integer"):
        ls_refine(S, np.ones(3), support)


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


def _kkt_from_correlation(correlation, w, lam):
    """(active, inactive) violations of ``correlation = 2 S^H r``."""
    active = w != 0
    phases = w[active] / np.abs(w[active])
    return (
        float(np.max(np.abs(correlation[active] - lam[active] * phases), initial=0.0)),
        float(max(0.0, np.max(np.abs(correlation[~active]) - lam[~active], initial=0.0))),
    )


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.booleans(),
    n=st.integers(1, 200),
    p=st.integers(1, 30),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kkt_certificate_from_normal_equations_matches_data_residual(
    kernel, n, p, density, seed
):
    # kkt_check forms 2 (S^H x - S^H S w); the reference forms
    # 2 S^H (x - S w) from the data.  Each side's S^H r is within
    # (2 N + P + 1) eps of the exact one, per entry of
    # |S|^T |x| + |S|^T |S| |w|: the summation bound of
    # _assert_is_gram_of, 2 N eps, plus the rounding of the product with
    # w and of the difference.  So the two correlations 2 S^H r differ
    # by at most 2 * 2 times that, and a violation moves by at most the
    # largest change of an entry.
    rng = np.random.default_rng(seed)
    if kernel:
        design, target = _kernel_problem(seed % 7, 512)
        S, x = design.data, target.samples
    else:
        scales = 10.0 ** rng.uniform(-3.0, 3.0, p)
        S = design = _random_design(rng, n, p) * scales
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    n, p = S.shape
    w = (rng.standard_normal(p) + 1j * rng.standard_normal(p)) * (rng.random(p) < density)
    lam = 10.0 ** rng.uniform(-2.0, 1.0, p) * float(np.max(np.abs(S.conj().T @ x)))
    report = kkt_check(design, x, w, lam)
    expected = _kkt_from_correlation(2.0 * (S.conj().T @ (x - S @ w)), w, lam)
    eps = np.finfo(np.float64).eps
    scale = np.abs(S).T @ np.abs(x) + np.abs(S).T @ (np.abs(S) @ np.abs(w))
    bound = 2.0 * 2.0 * (2 * n + p + 1) * eps * float(np.max(scale))
    assert abs(report.max_violation_active - expected[0]) <= bound
    assert abs(report.max_violation_inactive - expected[1]) <= bound


def test_kkt_with_a_schedule_equals_the_per_column_call():
    matrix, target = _kernel_problem()
    schedule = default_schedule(matrix.structure, threshold_scale=0.01)
    coeffs, _ = block_weighted_lasso(matrix, target, schedule)
    lam = [schedule.lambda_for(d.order_exponent) for d in matrix.columns]
    assert kkt_check(matrix, target, coeffs, schedule) == kkt_check(matrix, target, coeffs, lam)


def test_kkt_rejects_wrong_number_of_penalties():
    S = np.eye(3, dtype=np.complex128)
    w = np.zeros(3, dtype=np.complex128)
    for lams in ([1.0, 1.0], np.ones(4), np.ones((3, 1))):
        with pytest.raises(DimensionError, match="penalty"):
            kkt_check(S, np.ones(3), w, lams)


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


def test_single_block_sweeps_after_the_first_change_no_bit():
    # Later sweeps re-solve the converged block from a warm start and
    # move it only in its last bits, a change within the rounding error
    # of the computed objective step.  The descent rejects it, so all ten
    # sweeps, not only the first, return the plain Lasso bit for bit.
    # Without the rounding margin seed 6 accepts a step of -2e-15 whose
    # exact value is -1e-18 and selects the second sweep.
    single = full_structure(4, 1, 0)
    for seed in range(6, 16):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        matrix = build_kernel_matrix(samples / np.max(np.abs(samples)), single)
        w = np.zeros(single.kernel_count, dtype=np.complex128)
        w[[0, 2]] = (0.9 + 0.1j, -0.4j)
        x = matrix.data @ w
        lam = 0.1 * float(np.max(np.abs(matrix.data.conj().T @ x)))
        blocked, trace = block_weighted_lasso(matrix, x, _uniform_schedule(single, lam))
        assert np.array_equal(blocked.values, lasso_iterated_ridge(matrix, x, lam).values)
        assert all(r.rejected_orders == (0,) for r in trace.records[1:])


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
    best, trace = block_weighted_lasso(matrix, x, schedule, BcdConfig(outer_iterations=6))
    nmses = [record.nmse_db for record in trace.records]
    assert trace.selected.iteration == trace.records[int(np.argmin(nmses))].iteration
    assert np.array_equal(best.values, trace.selected.coefficients)


def _random_block_problem(seed):
    """A random multi-block fit: structure, planted target, schedule, config."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(256, 1025))
    structure = full_structure(
        int(rng.integers(1, 5)), int(rng.choice([3, 5, 7])), int(rng.integers(0, 3))
    )
    signal = IqSignal(0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)), 1.0)
    matrix = build_kernel_matrix(signal, structure)
    p = structure.kernel_count
    true = np.zeros(p, dtype=np.complex128)
    planted = rng.choice(p, size=min(p, 4), replace=False)
    true[planted] = rng.standard_normal(planted.size) + 1j * rng.standard_normal(planted.size)
    x = matrix.data @ true + 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    schedule = default_schedule(
        structure,
        lambda_scale=10 ** rng.uniform(-2, 3),
        threshold_scale=rng.uniform(0.0, 1.0),
    )
    config = BcdConfig(outer_iterations=int(rng.integers(3, 11)))
    return matrix, x, schedule, config


def test_block_descent_matches_residual_domain_reference():
    rejections = 0
    for seed in range(10):
        matrix, x, schedule, config = _random_block_problem(seed)
        assert len(matrix.structure.orders) > 1
        coeffs, trace = block_weighted_lasso(matrix, x, schedule, config)
        records, selected = residual_domain_block_lasso(matrix, x, schedule, config)
        assert len(trace.records) == len(records)
        for record, reference in zip(trace.records, records):
            assert np.array_equal(
                np.flatnonzero(record.coefficients), np.flatnonzero(reference)
            )
            assert record.kernel_count == np.count_nonzero(reference)
            assert np.max(np.abs(record.coefficients - reference)) < 1e-9
            rejections += len(record.rejected_orders)
        assert trace.selected_index == selected
        assert np.max(np.abs(coeffs.values - records[selected])) < 1e-9
    assert rejections > 0  # the guard was exercised


def test_block_objective_tracked_and_never_rises():
    for seed in range(10):
        matrix, x, schedule, config = _random_block_problem(seed)
        lams = np.array([schedule.lambda_for(d.order_exponent) for d in matrix.columns])
        target_power = float(np.sum(np.abs(x) ** 2))
        _, trace = block_weighted_lasso(matrix, x, schedule, config)
        previous_objective = target_power
        previous = np.zeros(matrix.data.shape[1], dtype=np.complex128)
        for record in trace.records:
            direct = block_objective(matrix.data, x, record.coefficients, lams)
            assert record.objective == pytest.approx(direct, rel=1e-9, abs=1e-12 * target_power)
            assert record.objective <= previous_objective
            assert set(record.rejected_orders) <= set(matrix.structure.orders)
            for k in record.rejected_orders:
                block = [j for j, d in enumerate(matrix.columns) if d.order_exponent == k]
                assert np.array_equal(record.coefficients[block], previous[block])
            if not record.rejected_orders:
                assert not np.array_equal(record.coefficients, previous)
            previous_objective, previous = record.objective, record.coefficients


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
    for outer in (0, MAX_OUTER_ITERATIONS + 1, 10**20):
        with pytest.raises(ConfigurationError):
            BcdConfig(outer_iterations=outer)
    for inner in (0, -1):
        with pytest.raises(ConfigurationError):
            BcdConfig(inner_ridge_iterations=inner)
    with pytest.raises(ConfigurationError):
        BcdConfig(inner_tolerance=0.0)
    with pytest.raises(ConfigurationError):
        BcdConfig(ridge_epsilon=0.0)


def test_bcd_config_accepts_its_bounds():
    BcdConfig(inner_ridge_iterations=1)
    BcdConfig(outer_iterations=1)
    BcdConfig(outer_iterations=MAX_OUTER_ITERATIONS)


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


def _assert_is_gram_of(gram, S):
    """Exactly Hermitian with a real diagonal, and within the summation
    error bound 2 N eps (|S|^T |S|) of the general product S^H S."""
    assert gram.shape == (S.shape[1], S.shape[1])
    assert np.array_equal(gram, gram.conj().T)
    assert not np.any(np.diagonal(gram).imag)
    bound = 2 * S.shape[0] * np.finfo(np.float64).eps * (np.abs(S).T @ np.abs(S))
    assert np.all(np.abs(gram - S.conj().T @ S) <= bound)


def test_kernel_matrix_data_and_gram_are_read_only_and_cached():
    matrix, target = _kernel_problem()
    assert not matrix.data.flags.writeable
    with pytest.raises(ValueError):
        matrix.data[0, 0] = 1.0
    system = normal_system(matrix, target)
    assert system is normal_system(matrix, target)
    assert not system.gram.flags.writeable
    assert not system.rhs.flags.writeable
    _assert_is_gram_of(system.gram, matrix.data)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([0, 1, 2, 7, 64, 300]),
    p=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_hermitian_gram_is_hermitian_and_within_rounding_of_product(n, p, seed):
    # Column scales over six decades, as the envelope powers of a
    # kernel matrix spread them.
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, p)
    S = (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))) * scales
    gram = normal_system(S, np.zeros(n)).gram
    _assert_is_gram_of(gram, S)
    # C order, as the product it replaces had, keeps the BLAS paths of
    # the products taken from it unchanged.
    assert gram.flags.c_contiguous


def test_first_gram_access_makes_no_copy_of_the_kernel_matrix():
    # A conjugate copy of data for the product would cost data.nbytes.
    matrix, target = _kernel_problem()
    assert _peak_traced_bytes(lambda: normal_system(matrix, target)) < matrix.data.nbytes / 2


def test_kernel_matrix_solvers_solve_its_cached_system_bitwise():
    # Each solver solves the one system normal_system(km, x) and forms
    # no other: with the pass that forms it blocked, the solvers still
    # equal the solver core fed that system, bit for bit.
    matrix, target = _kernel_problem()
    x = target.samples
    system = normal_system(matrix, x)
    gram, rhs = system.gram, system.rhs
    support = np.array([0, 3, 6, 21])
    with mock.patch.object(gmp, "_kernel_normal_equations", side_effect=AssertionError):
        assert np.array_equal(
            least_squares(matrix, x).values, solver._normal_solve(gram, rhs, "system")
        )
        assert np.array_equal(
            ls_refine(matrix, x, support).values[support],
            solver._normal_solve(gram[np.ix_(support, support)], rhs[support], "support"),
        )
        for lam in (1e-2, 1.0, 30.0):
            assert np.array_equal(
                lasso_iterated_ridge(matrix, x, lam, 1e-4).values,
                solver._lasso_core(gram, rhs, lam, 1e-4, BcdConfig()),
            )


def test_kernel_matrix_solvers_agree_with_plain_matrix():
    # The base-sequence Gram and the column Gram of data agree within
    # 2 N eps |S|^T |S| (about 1e-12 of an entry here, N = 2048), and the
    # equilibrated Gram has a condition number of about 3e3, so the
    # solutions may differ by up to a few 1e-9 of their largest entry;
    # 1e-8 leaves room for that and nothing more.  Measured: below 1e-13.
    matrix, target = _kernel_problem()
    x = target.samples

    def assert_close(streamed, plain):
        assert np.array_equal(np.flatnonzero(streamed.values), np.flatnonzero(plain))
        assert np.max(np.abs(streamed.values - plain)) <= 1e-8 * np.max(np.abs(plain))

    assert_close(least_squares(matrix, x), least_squares(matrix.data, x))
    for lam in (1e-2, 1.0, 30.0):
        assert_close(
            lasso_iterated_ridge(matrix, x, lam, 1e-4),
            lasso_iterated_ridge(matrix.data, x, lam, 1e-4),
        )


def test_ridge_system_not_positive_definite_is_rank_deficiency():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=np.complex128)
    with pytest.raises(RankDeficiencyError):
        solver._factor_solve(indefinite, np.ones(2, dtype=np.complex128), np.full(2, 1e-8))


def test_the_solve_calls_scipy_linalgs_own_zposv():
    # The extension that the first solve loads alone holds the function
    # that scipy.linalg.lapack exports: the same routine, the same bits.
    import scipy.linalg

    solver._factor_solve(np.eye(2, dtype=np.complex128, order="F"), np.ones(2, complex), 0.0)
    assert solver._zposv is scipy.linalg.lapack.zposv


def test_a_scipy_without_its_lapack_extension_is_named(tmp_path, monkeypatch):
    import scipy

    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    (tmp_path / "linalg").mkdir()
    with pytest.raises(ImportError, match=re.escape(f"_flapack is not in {tmp_path / 'linalg'}")):
        solver._load_zposv()


def test_refine_on_fresh_kernel_matrix_equals_refine_after_a_fit():
    # One refine path: a fresh matrix forms the whole system and solves
    # the support's sub-block of it, as a refit after a fit does.
    support = [0, 3, 6, 21]
    matrix, target = _kernel_problem()
    fresh = ls_refine(matrix, target, support)
    matrix, target = _kernel_problem()
    lasso_iterated_ridge(matrix, target, 1.0, 1e-4)
    after_fit = ls_refine(matrix, target, support)
    assert np.array_equal(fresh.values, after_fit.values)
    assert np.array_equal(np.flatnonzero(fresh.values), support)


_FITS_OF_A_TARGET = {
    "least_squares": lambda S, x: least_squares(S, x),
    "lasso_iterated_ridge": lambda S, x: lasso_iterated_ridge(S, x, 1.0),
    "block_weighted_lasso": lambda S, x: block_weighted_lasso(
        S, x, default_schedule(full_structure(4, 7, 1))
    ),
    "ls_refine": lambda S, x: ls_refine(S, x, [0, 3]),
    "kkt_check": lambda S, x: kkt_check(S, x, np.zeros(S.shape[1]), 1.0),
}


@pytest.mark.parametrize("design", ["kernel-matrix", "plain-matrix"])
@pytest.mark.parametrize("extra", [-1, 1], ids=["one-short", "one-long"])
@pytest.mark.parametrize("fit", list(_FITS_OF_A_TARGET), ids=list(_FITS_OF_A_TARGET))
def test_target_needs_one_sample_per_design_row(fit, extra, design):
    matrix, target = _kernel_problem()
    S = matrix if design == "kernel-matrix" else matrix.data
    n = matrix.shape[0]
    x = np.resize(target.samples, n + extra)
    message = f"target has {n + extra} samples but design has {n} rows"
    with pytest.raises(DimensionError, match=message):
        _FITS_OF_A_TARGET[fit](S, x)


# --- dense ridge solve ---------------------------------------------------


def _hpd_system(rng, n, extra_rows):
    """Hermitian positive-definite Gram of a random design, a right-hand
    side, and ridge weights spread over nine decades."""
    design = _random_design(rng, n + extra_rows, n)
    gram = design.conj().T @ design
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return gram, rhs, 10.0 ** rng.uniform(-8.0, 1.0, n)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 64),
    extra_rows=st.integers(0, 64),
    keep=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_solve_equals_cholesky_reference_bitwise(n, extra_rows, keep, seed):
    rng = np.random.default_rng(seed)
    gram, rhs, weights = _hpd_system(rng, n, extra_rows)
    # The solve factors its system in place, so each call gets a
    # Fortran-ordered copy.
    assert np.array_equal(
        solver._factor_solve(np.array(gram, order="F"), rhs, weights),
        cholesky_ridge_solve(gram, rhs, weights),
    )
    active = np.flatnonzero(rng.random(n) < keep)
    sub = gram[np.ix_(active, active)]
    assert np.array_equal(
        solver._factor_solve(np.array(sub, order="F"), rhs[active], weights[active]),
        cholesky_ridge_solve(sub, rhs[active], weights[active]),
    )


def _warm_start(rng, n, kind):
    """A block's previous coefficients, as the block descent passes them:
    none, all zero, a few nonzero, or all nonzero with moduli spread from
    below eps to well above any zero threshold."""
    if kind == "none":
        return None
    values = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(
        -10.0, 1.0, n
    )
    if kind == "zeros":
        return np.zeros(n, dtype=np.complex128)
    if kind == "sparse":
        return np.where(rng.random(n) < 0.3, values, 0.0)
    return values


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    extra_rows=st.integers(0, 40),
    lam_fraction=st.floats(1e-3, 0.9),
    zero_threshold=st.sampled_from([0.0, 1e-3, 0.05]),
    start=st.sampled_from(["none", "zeros", "sparse", "dense"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lasso_core_full_active_set_equals_gathered_path_bitwise(
    n, extra_rows, lam_fraction, zero_threshold, start, seed
):
    # The core cuts the active set's Gram down as coefficients leave it
    # and folds out the columns at the cap weight; the reference gathers
    # every iterate's system out of the original Gram by index and solves
    # it through SciPy's Cholesky wrappers.  Both take their first
    # weights from the same warm start.
    rng = np.random.default_rng(seed)
    gram, rhs, _ = _hpd_system(rng, n, extra_rows)
    lam = lam_fraction * 2.0 * float(np.max(np.abs(rhs)))
    initial = _warm_start(rng, n, start)
    config = BcdConfig()
    layouts = []
    factor_solve = solver._factor_solve

    def spy(system, right, weights):
        layouts.append(system.flags.f_contiguous)
        return factor_solve(system, right, weights)

    with mock.patch.object(solver, "_factor_solve", spy):
        direct = solver._lasso_core(gram, rhs, lam, zero_threshold, config, initial=initial)
    # Every iterate and every fold factors a Fortran-ordered array in
    # place; lam is below the null penalty, so there is at least one.
    assert layouts
    assert all(layouts)
    reference = gathered_lasso_core(gram, rhs, lam, zero_threshold, config, initial=initial)
    if zero_threshold > config.ridge_epsilon:
        # No surviving modulus has the cap weight, so no column folds and
        # the core solves the reference's systems.
        assert np.array_equal(direct, reference)
    else:
        _assert_same_fit(direct, reference)


def _assert_same_fit(direct, reference):
    """Equal supports, and coefficients within 1e-12 of the largest
    modulus: folding a column out by block elimination reorders the sums
    of the solve, so the two paths differ in rounding alone."""
    assert np.array_equal(direct != 0, reference != 0)
    scale = float(np.max(np.abs(reference)))
    assert float(np.max(np.abs(direct - reference))) <= 1e-12 * scale


def _solved_sizes(call):
    """Run ``call`` with a spy on ``_factor_solve``, which every solve goes
    through; return, per solve, the size of the system before any
    folding: the rows of an iterate's system, or the folded plus the kept
    rows of a fold."""
    sizes = []
    factor_solve = solver._factor_solve

    def spy(system, right, weights):
        sizes.append(right.shape[0] + (right.shape[1] - 1 if right.ndim == 2 else 0))
        return factor_solve(system, right, weights)

    with mock.patch.object(solver, "_factor_solve", spy):
        result = call()
    return result, sizes


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    extra_rows=st.integers(0, 40),
    lam_fraction=st.floats(1e-3, 0.9),
    zero_threshold=st.sampled_from([0.0, 1e-4]),
    seed=st.integers(0, 2**32 - 1),
)
# A fold that moves capped columns from between kept ones to the end of
# the active set, so the last iterate must be reordered with it.
@example(n=12, extra_rows=0, lam_fraction=0.6, zero_threshold=0.0, seed=126)
def test_lasso_core_fold_matches_gathered_path(
    n, extra_rows, lam_fraction, zero_threshold, seed
):
    # With eps = 1e-3 columns fold within a few iterates, and with a zero
    # threshold of 1e-4 a folded coefficient is often cut, which restores
    # the unfolded system and folds again.
    rng = np.random.default_rng(seed)
    gram, rhs, _ = _hpd_system(rng, n, extra_rows)
    lam = lam_fraction * 2.0 * float(np.max(np.abs(rhs)))
    config = BcdConfig(ridge_epsilon=1e-3)
    _assert_same_fit(
        solver._lasso_core(gram, rhs, lam, zero_threshold, config),
        gathered_lasso_core(gram, rhs, lam, zero_threshold, config),
    )


@pytest.mark.parametrize(
    "seed, n, extra_rows, lam_fraction, eps, zero_threshold",
    [
        (18, 6, 0, 0.5, 0.1, 0.0),  # a folded modulus rises above eps
        (273, 6, 0, 0.5, 1e-3, 1e-4),  # a folded modulus falls below the threshold
        (91, 8, 12, 0.3, 0.7, 0.588),  # a free modulus is cut while the folded keep the cap
    ],
)
def test_lasso_core_unfolds_a_coefficient_that_leaves_the_cap(
    seed, n, extra_rows, lam_fraction, eps, zero_threshold
):
    rng = np.random.default_rng(seed)
    gram, rhs, _ = _hpd_system(rng, n, extra_rows)
    lam = lam_fraction * 2.0 * float(np.max(np.abs(rhs)))
    config = BcdConfig(ridge_epsilon=eps)
    direct, sizes = _solved_sizes(
        lambda: solver._lasso_core(gram, rhs, lam, zero_threshold, config)
    )
    # Folding and cutting only shrink the system; the restored system of
    # the active set is larger than the folded one before it.
    assert any(after > before for before, after in zip(sizes, sizes[1:]))
    _assert_same_fit(direct, gathered_lasso_core(gram, rhs, lam, zero_threshold, config))


def test_fold_recovers_earlier_folds_after_a_second_fold():
    # Rows {6, 7, 8} fold first, then rows {4, 5} of the reduced system,
    # at one cap.  Recovered as u - V @ w from the solution w of the
    # twice-folded system, in folding order, all nine rows match a direct
    # solve that puts the cap on all five folded rows.
    rng = np.random.default_rng(0)
    gram, rhs, _ = _hpd_system(rng, 9, 3)
    cap = 2.0
    system, b = np.asfortranarray(gram), rhs
    u, V = np.zeros(0, dtype=np.complex128), np.zeros((0, 9), dtype=np.complex128)
    for keep in (6, 4):
        rows = system.shape[0]
        system, b, u, V = solver._fold(system, b, u, V, np.arange(rows) >= keep, cap)
    w = np.linalg.solve(system, b)
    recovered = np.empty(9, dtype=np.complex128)
    recovered[[0, 1, 2, 3, 6, 7, 8, 4, 5]] = np.concatenate([w, u - V @ w])
    direct = np.linalg.solve(gram + np.diag([0.0] * 4 + [cap] * 5), rhs)
    assert np.linalg.norm(recovered - direct) <= 1e-12 * np.linalg.norm(direct)


def test_standard_lasso_solves_ever_smaller_systems_on_desk_scale():
    # At the shipped penalty most of the 70 desk-scale coefficients sink
    # to the eps floor within a few iterates; folded out, they leave the
    # last iterates a system no larger than the kept support's few dozen
    # columns, where a solve of every kernel would take all 70.
    config = load_config(SHIPPED_CONFIGS / "desk-scale.cfg")
    _, _, learned, matrix, *_ = _training_stage(config)
    coeffs, sizes = _solved_sizes(
        lambda: lasso_iterated_ridge(
            matrix,
            learned.drive,
            config.standard_lasso_lambda,
            config=config.bcd,
        )
    )
    n_kernels = matrix.structure.kernel_count
    assert sizes[0] == n_kernels
    assert max(sizes[-10:]) < n_kernels // 2
    assert 0 < np.count_nonzero(coeffs.values) <= sizes[-1]


@pytest.mark.parametrize("name", ["desk-scale", "wideband"])
def test_shipped_l1_calls_keep_to_one_regime(name):
    # Every l1 call of a shipped run, in the training stage, the
    # matched-count bisection and exp2's Lasso, is a block of the block
    # descent (zero threshold above eps) or a plain Lasso (no
    # threshold).  A block call never folds and its system only shrinks,
    # by cuts; a plain call never cuts, so its system changes size only
    # where it folds.
    config = load_config(SHIPPED_CONFIGS / f"{name}.cfg")
    calls, current = [], None
    core, fold, factor_solve = solver._lasso_core, solver._fold, solver._factor_solve

    def spy_core(gram, rhs, lam, zero_threshold, bcd, initial=None):
        nonlocal current
        current = []
        calls.append((zero_threshold, bcd.ridge_epsilon, current))
        try:
            return core(gram, rhs, lam, zero_threshold, bcd, initial)
        finally:
            current = None

    def spy_solve(system, right, weights):
        if current is not None and right.ndim == 1:
            current.append(("solve", right.shape[0]))
        return factor_solve(system, right, weights)

    def spy_fold(system, b, u, V, mask, cap):
        current.append(("fold", int(np.count_nonzero(~mask))))
        return fold(system, b, u, V, mask, cap)

    with (
        mock.patch.object(solver, "_lasso_core", spy_core),
        mock.patch.object(solver, "_factor_solve", spy_solve),
        mock.patch.object(solver, "_fold", spy_fold),
    ):
        _, _, learned, matrix, _, _, trace = _training_stage(config)
        matched_count_lasso(matrix, learned.drive, trace.selected.kernel_count, config.bcd)
        lasso_iterated_ridge(matrix, learned.drive, config.standard_lasso_lambda, config=config.bcd)
    cuts = folds = 0
    for zero_threshold, eps, events in calls:
        assert zero_threshold == 0.0 or zero_threshold > eps
        sizes = [size for kind, size in events if kind == "solve"]
        if zero_threshold > eps:
            assert all(kind == "solve" for kind, _ in events)
            assert all(after <= before for before, after in zip(sizes, sizes[1:]))
            cuts += sum(after < before for before, after in zip(sizes, sizes[1:]))
        else:
            size = sizes[0] if sizes else 0
            for kind, count in events:
                if kind == "fold":
                    size, folds = count, folds + 1
                assert count == size
    # The spies saw both regimes at work.
    assert cuts > 0
    assert folds > 0


@pytest.mark.parametrize(
    "name, sweep", [("desk-scale", 10), ("wideband", 9)], ids=["desk-scale", "wideband"]
)
def test_guard_rejects_one_update_on_the_shipped_configs(name, sweep):
    # Only orders 0, 2 and 4 carry coefficients; the higher orders' solves
    # leave their blocks at zero, which is no step and no rejection.  The
    # guard turns down one order-4 update, in one sweep.
    *_, trace = _training_stage(load_config(SHIPPED_CONFIGS / f"{name}.cfg"))
    assert [r.rejected_orders for r in trace.records] == [
        (4,) if r.iteration == sweep else () for r in trace.records
    ]


def test_wideband_full_least_squares_keeps_clear_of_the_condition_gate(monkeypatch):
    # The 300-kernel wideband LS fit (exp2's ls-full) reads a condition
    # estimate of about 3.6e11 against the gate's 1e12.  A rounding change
    # in the normal equations or the learned drive that moves it toward
    # the gate fails here rather than making exp2 exit 3.
    _, _, learned, matrix, *_ = _training_stage(load_config(SHIPPED_CONFIGS / "wideband.cfg"))
    real_condition = solver._condition
    estimates = []

    def condition(gram):
        estimates.append(real_condition(gram))
        return estimates[-1]

    monkeypatch.setattr(solver, "_condition", condition)
    least_squares(matrix, learned.drive)
    assert len(estimates) == 1
    assert estimates[0] < solver.CONDITION_LIMIT / 2


def test_penalty_ladder_does_not_select_on_desk_scale():
    # On the shipped desk run point the per-order zero thresholds, not
    # the penalties, prune: a ladder a thousand or a million times
    # smaller keeps the same 15 kernels and selects the same iteration.
    # A change that makes the penalties select has to change this test.
    path = SHIPPED_CONFIGS / "desk-scale.cfg"
    _, _, learned, matrix, *_ = _training_stage(load_config(path))
    fits = []
    for scale in ("1", "1e-3", "1e-6"):
        config = load_config(path, overrides=[f"schedule.lambda_scale={scale}"])
        coeffs, trace = block_weighted_lasso(
            matrix, learned.drive, config.schedule(), config.bcd
        )
        fits.append((coeffs.support().tolist(), trace.selected.iteration))
    assert len(fits[0][0]) == 15
    assert fits[1] == fits[0]
    assert fits[2] == fits[0]


def test_non_finite_ridge_systems_are_rank_deficiency():
    rng = np.random.default_rng(41)
    S = _random_design(rng, 16, 3)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    gram, rhs, weights = S.conj().T @ S, S.conj().T @ x, np.full(3, 1e-3)
    nan_rhs, inf_gram, nan_weights = rhs.copy(), gram.copy(), weights.copy()
    nan_rhs[1] = np.nan
    inf_gram[2, 0] = np.inf  # below the diagonal, where the factorization never reads
    nan_weights[1] = np.nan
    # The solve checks its diagonal with the weights on it, and the l1
    # core the right-hand side it is given, which the block descent forms.
    with pytest.raises(RankDeficiencyError, match="not finite"):
        solver._factor_solve(np.array(gram, order="F"), rhs, nan_weights)
    with pytest.raises(RankDeficiencyError, match="not finite"):
        solver._lasso_core(gram, nan_rhs, 1e-3, 0.0, BcdConfig())
    # Neither reads the Gram below the diagonal, so only normal_system,
    # which checks the whole system, stands between it and a solve.
    assert np.isfinite(solver._factor_solve(np.array(inf_gram, order="F"), rhs, weights)).all()

    nan_x, inf_S = x.copy(), S.copy()
    nan_x[4] = np.nan
    inf_S[5, 2] = np.inf  # puts non-finite entries in the Gram, on both sides
    for design, target in ((S, nan_x), (inf_S, x)):
        for fit in _FITS_OF_A_TARGET.values():
            with pytest.raises(RankDeficiencyError, match="3-column design are not finite"):
                fit(design, target)


def test_kkt_check_keeps_a_nan_slack():
    # max(0.0, nan) is 0.0, which would read as no violation.  A finite
    # system and solution whose product overflows: column 2 meets
    # columns 0 and 1 in 1e150, so row 2 of S^H S w is inf - inf.
    S = np.zeros((2, 3))
    S[0, 0] = S[1, 1] = 1.0
    S[:, 2] = 1e150
    # The suite turns RuntimeWarnings into errors, so an overflow warning
    # would fail the call instead of returning the report.
    report = kkt_check(S, np.ones(2), np.array([1e160, -1e160, 0.0]), 1.0)
    assert np.isnan(report.max_violation_inactive)
    assert np.isnan(report.max_violation)


def _quietly(call, *args):
    with np.errstate(over="ignore", invalid="ignore"):
        return call(*args)


def test_ridge_diagonal_overflow_is_rank_deficiency_without_warnings():
    # The Gram and the weights are finite, but their sum on the diagonal
    # overflows, or a weight itself overflows; normal_system checks the
    # Gram once, the solve its diagonal with the weights on it.
    gram = np.array([[1e308, 0.5], [0.5, 1.0]], dtype=np.complex128)
    rhs = np.ones(2, dtype=np.complex128)
    huge_rhs = np.array([1e308, 1.0], dtype=np.complex128)
    weights = np.array([1e308, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            # The solve leaves numpy's overflow warnings to its caller: the
            # l1 core holds them off for its whole loop, as here.
            lambda: _quietly(solver._factor_solve, np.array(gram, order="F"), rhs, weights),
            # The first ridge weights are lam/2 = 5e307.
            lambda: solver._lasso_core(gram * 1.5, huge_rhs, 1e308, 0.0, BcdConfig()),
            # The first solve is finite; lam / (2 |w|) then overflows on
            # the small second coefficient.
            lambda: solver._lasso_core(gram, huge_rhs, 1e308, 0.0, BcdConfig()),
        ):
            with pytest.raises(RankDeficiencyError, match="not finite"):
                call()


def _gram_with_condition(rng, n, condition):
    """Exactly Hermitian, positive definite n x n matrix with eigenvalues
    spread evenly in log from 1 down to 1/condition."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    gram = (q * np.logspace(0.0, -np.log10(condition), n)) @ q.conj().T
    return (gram + gram.conj().T) / 2


def test_condition_gate_reads_the_eigenvalues():
    # Where the smallest eigenvalue is not positive the gate reads an
    # infinite condition number and raises before any factorization;
    # the singular values of this matrix are 3 and 1.
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=np.complex128)
    assert np.linalg.cond(indefinite) == pytest.approx(3.0)
    with pytest.raises(RankDeficiencyError, match="condition estimate inf"):
        solver._normal_solve(indefinite, np.ones(2, dtype=np.complex128), "indefinite")
    # For a positive definite matrix the ratio of its extreme eigenvalues
    # is the 2-norm condition number that the SVD of np.linalg.cond gives.
    rng = np.random.default_rng(5)
    for condition in (1e3, 1e9):
        gram = _gram_with_condition(rng, 40, condition)
        reference = np.linalg.cond(gram)
        assert reference == pytest.approx(condition, rel=1e-3)
        assert abs(solver._condition(gram) - reference) <= 1e-6 * reference


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
    normal_system(matrix, target)  # cache the system first, as the experiments do
    peak = _peak_traced_bytes(
        lambda: matched_count_lasso(matrix, target, 5, BcdConfig())
    )
    assert peak < matrix.data.nbytes / 2


def test_block_weighted_holds_no_conjugate_block_copies():
    # The descent reads only the Gram and S^H x; a conjugate copy of the
    # order blocks, which together hold every column, would cost
    # data.nbytes.
    matrix, target = _kernel_problem()
    schedule = default_schedule(matrix.structure, threshold_scale=0.01)
    peak = _peak_traced_bytes(lambda: block_weighted_lasso(matrix, target, schedule))
    assert peak < matrix.data.nbytes / 2


def test_gram_domain_solvers_make_no_copy_of_the_kernel_matrix():
    # Copying the order blocks or the support columns would cost up to
    # data.nbytes; with the Gram cached, both solvers read only its
    # sub-blocks and one S^H x.
    matrix, target = _kernel_problem()
    normal_system(matrix, target)  # ls_refine reads sub-blocks of the cached Gram
    schedule = default_schedule(matrix.structure, threshold_scale=0.01)
    full_support = np.arange(matrix.data.shape[1])
    for call in (
        lambda: block_weighted_lasso(matrix, target, schedule),
        lambda: ls_refine(matrix, target, full_support),
    ):
        assert _peak_traced_bytes(call) < matrix.data.nbytes / 2


# --- streamed kernel matrix ------------------------------------------------


def _streamed_problem(n):
    """Signal, 35-kernel structure and a target built without evaluating
    the kernel matrix."""
    rng = np.random.default_rng(47)
    signal = IqSignal(
        (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2), 1.0
    )
    structure = full_structure(4, 7, 1)
    true = np.zeros(structure.kernel_count, dtype=np.complex128)
    true[[0, 6, 21]] = [1.0, 0.2j, -0.05]
    clean = apply_model(signal, CoefficientVector(structure, true)).samples
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return signal, structure, IqSignal(clean + 1e-3 * noise, 1.0)


def test_fits_agree_bitwise_whether_or_not_data_was_read_first():
    signal, structure, target = _streamed_problem(2 * ROW_CHUNK + 515)
    schedule = default_schedule(structure, threshold_scale=0.01)
    runs = []
    for read_data in (False, True):
        matrix = build_kernel_matrix(signal, structure)
        if read_data:
            matrix.data
        system = normal_system(matrix, target)
        coeffs, trace = block_weighted_lasso(matrix, target, schedule)
        refined = ls_refine(matrix, target, coeffs.support())
        runs.append(
            (
                system.gram,
                system.rhs,
                coeffs.values,
                [r.nmse_db for r in trace.records],
                refined.values,
                apply_model(signal, refined).samples,
            )
        )
        assert ("data" in vars(matrix)) == read_data
    for streamed, materialized in zip(*runs):
        assert np.array_equal(streamed, materialized)


def test_fit_path_never_forms_the_kernel_matrix():
    # Several row blocks with a partial last one; the matrix would take
    # N * P * 16 bytes, a row block a fifth of the bound below.
    signal, structure, target = _streamed_problem(8 * ROW_CHUNK + 1234)
    schedule = default_schedule(structure, threshold_scale=0.01)
    built = []

    def fit():
        matrix = build_kernel_matrix(signal, structure)
        built.append(matrix)
        coeffs, _ = block_weighted_lasso(matrix, target, schedule)
        ls_refine(matrix, target, coeffs.support())
        least_squares(matrix, target)
        lasso_iterated_ridge(matrix, target, 1e-2, 1e-4)
        matched_count_lasso(matrix, target, 5, BcdConfig())

    peak = _peak_traced_bytes(fit)
    (matrix,) = built
    assert peak < matrix.shape[0] * matrix.shape[1] * 16 / 4
    assert "data" not in vars(matrix)


def test_normal_equation_pass_streams():
    # The pass holds one block of the bases, a stack the size of about
    # one more and sums that grow with P^2, whatever the signal length:
    # its peak at 8 row blocks is that at 2.  It frees the sums before it
    # gathers the Gram in canonical order from the lag-major one.
    structure = full_structure(19, 15, 1)
    peaks = []
    for n in (2 * ROW_CHUNK + 7, 8 * ROW_CHUNK + 7):
        rng = np.random.default_rng(n)
        signal = IqSignal(
            (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2), 1.0
        )
        matrix = build_kernel_matrix(signal, structure)
        target = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        gram, _ = gmp._kernel_normal_equations(matrix, target)  # caches the columns
        peaks.append(_peak_traced_bytes(lambda: gmp._kernel_normal_equations(matrix, target)))
    assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]
    assert max(peaks) < 4 * gram.nbytes


# Lag sets drawn with gaps, so lagging and leading lags differ from the
# aligned ones, and order sets likewise; the cross branches may carry
# the memoryless power.
_lags = st.lists(st.integers(0, 9), max_size=4, unique=True)
_offsets = st.lists(st.integers(1, 4), max_size=2, unique=True)


def _orders(highest):
    return st.lists(st.sampled_from(range(0, highest + 1, 2)), max_size=3, unique=True)


@settings(max_examples=60, deadline=None)
@given(
    aligned=st.tuples(_orders(6), _lags),
    lagging=st.tuples(_orders(4), _lags, _offsets),
    leading=st.tuples(_orders(4), _lags, _offsets),
    # Shorter than the deepest lag, and at and around one row block.
    n=st.one_of(
        st.integers(1, 14),
        st.sampled_from([ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, ROW_CHUNK + 11]),
    ),
    # Row blocks of 1 to 64 rows, so that piece cuts, block edges and the
    # start of the tail coincide and cross, and the shipped block.
    chunk=st.one_of(st.integers(1, 64), st.just(ROW_CHUNK)),
    seed=st.integers(0, 2**32 - 1),
)
def test_base_sequence_products_match_the_column_products(
    aligned, lagging, leading, n, chunk, seed
):
    structure = GmpStructure(*aligned, *lagging, *leading)
    descriptors = structure.descriptors()
    # The structure's properties agree with its kernels, which are
    # unique and in canonical order.
    assert structure.kernel_count == len(descriptors)
    assert structure.orders == tuple(sorted({d.order_exponent for d in descriptors}))
    branches = list(Branch)
    keys = [
        (branches.index(d.branch), d.order_exponent, d.lag, d.envelope_offset or 0)
        for d in descriptors
    ]
    assert keys == sorted(set(keys))
    for d in descriptors:
        reach = d.envelope_offset if d.branch is Branch.LAGGING else 0
        assert d.deepest_sample == d.lag + reach
    assume(descriptors)
    bases, _, lag = gmp._bases_of(descriptors)
    layout = gmp._block_layout(bases, lag)
    for branch, widest in ((Branch.LAGGING, layout.behind), (Branch.LEADING, layout.ahead)):
        offsets = [d.envelope_offset for d in descriptors if d.branch is branch]
        assert widest == max(offsets, default=0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gmp, "ROW_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        samples = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        signal = IqSignal(samples, 1.0)
        matrix = build_kernel_matrix(signal, structure)
        n_rows = matrix.shape[0]
        x = rng.standard_normal(n_rows) + 1j * rng.standard_normal(n_rows)
        system = normal_system(matrix, x)
        gram, rhs = system.gram, system.rhs
        # A second target on the cached matrix forms its whole system anew:
        # the Gram of the first, and the S^H x of a fresh matrix, bit for bit.
        x2 = rng.standard_normal(n_rows) + 1j * rng.standard_normal(n_rows)
        second = normal_system(matrix, x2)
        fresh = build_kernel_matrix(signal, structure)
        assert np.array_equal(second.gram, gram)
        assert np.array_equal(second.rhs, normal_system(fresh, x2).rhs)
        assert "data" not in vars(matrix)

        S = matrix.data
        eps = np.finfo(np.float64).eps
        _assert_is_gram_of(gram, S)
        plain = normal_system(S, x)
        plain_gram, plain_rhs = plain.gram, plain.rhs
        assert np.all(np.abs(gram - plain_gram) <= 2 * n_rows * eps * (np.abs(S).T @ np.abs(S)))
        assert np.all(np.abs(rhs - plain_rhs) <= 2 * n_rows * eps * (np.abs(S).T @ np.abs(x)))
        # One path: reading data first changes no bit.  The matrix caches
        # the system of x2, so this forms the system of x again.
        assert np.array_equal(normal_system(matrix, x).gram, gram)
