"""Metamorphic relations of the training stage on desk-scale.

Every GMP kernel is the carrier times a real envelope, so rotating the
reference by ``j`` rotates every kernel column by ``j``, and conjugating
it conjugates every column.  With the drive transformed alike, the
normal equations are those of the original fit: the same Gram and
``S^H x`` after rotation, their conjugates after conjugation.  So every
fit keeps its support, and its coefficients stay (rotation) or are
conjugated (conjugation), with no oracle beyond the original run.
Multiplying by ``j`` swaps real and imaginary parts and flips one sign,
exactly, and so does ``conj``; the kernel matrices of the transformed
reference are the transformed kernel matrix, bit for bit.  Rotation by
``e^{0.7j}`` rounds every sample, so its relations hold within bounds.

A real gain ``alpha`` on the reference scales each column of envelope
power k by ``alpha^(k+1)``.  Least squares solves the column-equilibrated
system, which that scaling leaves as it was, so its predictions ``S w``
stay where they were while its coefficients scale by ``alpha^-(k+1)``.
"""
from pathlib import Path

import numpy as np
import pytest

from dpdkit import IqSignal, build_kernel_matrix, least_squares
from dpdkit.pipeline import _training_stage, load_config, matched_count_lasso
from dpdkit.solver import block_weighted_lasso

DESK = Path(__file__).parent.parent / "configs" / "desk-scale.cfg"

# Rotation by j moves S^H S and S^H x by rounding alone: with fused
# multiply-adds, re(a) re(b) + im(a) im(b) rounds in another order once
# the parts swap (each Gram element moved by at most 6e-18 of itself).  A
# solve whose inputs move by rounding moves its solution by at most
# about cond * eps, relative, with cond the condition number of the
# column-equilibrated system it solves and eps = 2.2e-16; these bounds
# are that product on desk-scale.  Measured on 1 and 2 OpenBLAS threads:
ROTATED_LS_BOUND = 1.2e-9  # cond 5.2e6 of the full Gram; moved 1.5e-12
ROTATED_BW_BOUND = 8.6e-12  # cond <= 3.9e4 on every sweep's support; moved 1.0e-14
ROTATED_LASSO_BOUND = 2.2e-11  # cond 9.9e4 on its support; moved 6.6e-16

EPS = np.finfo(np.float64).eps
PHASE = np.exp(0.7j)
# Rotation by e^{0.7j} rounds each sample by at most eps, and moved the
# equilibrated Gram and S^H x by 0.72 and 0.78 eps in norm, so the
# cond * eps bounds above hold for it too.  Measured on 1 and 2 OpenBLAS
# threads, the coefficients moved by 5.6e-13 (block-weighted), 2.3e-14
# (plain Lasso) and 1.8e-11 (LS), and the matched lambda not at all.  The
# matched lambda starts from 2 max |S^H x|, which moves by about eps, and
# takes 20 bisection steps that each round a product and a square root
# on either side, at most 4 eps a step: 81 eps in all.
PHASE_LAMBDA_BOUND = 81 * EPS

# Column scaling.  Each side of the relation forms s |s|^k with about
# k + 1 roundings of at most eps, so the kernel matrix of alpha s and
# alpha^(k+1) times the desk columns differ by at most 2 (k + 1) eps,
# relative, per element; measured 3.0, 5.5 and 7.8 eps at k = 2, 4, 6
# and 0 at k = 0.  A normal-equation solve whose system moves by delta
# moves S w by at most about sqrt(cond) * (sigma_max |w| / |S w|) * delta,
# relative: sqrt(cond) is 2.3e3 and the ratio 5.3 on desk's full LS, and
# delta is 16 eps, 8 for the columns and 8 for the two solves' own
# rounding.  Measured 9.6e-13 on 1 and 2 OpenBLAS threads.
ALPHA = 1.3
SCALED_PREDICTION_BOUND = 2.3e3 * 5.3 * 16 * EPS  # 4.3e-11


def _fits(config, reference, drive, target_count):
    """(LS, block-weighted trace, matched lambda, plain Lasso) on one pair."""
    matrix = build_kernel_matrix(reference, config.structure)
    _, trace = block_weighted_lasso(matrix, drive, config.schedule(), config.bcd)
    lam, lasso, _ = matched_count_lasso(matrix, drive, target_count, config.bcd)
    return least_squares(matrix, drive), trace, lam, lasso


TRANSFORMS = {
    "plain": lambda z: z,
    "rotated": lambda z: 1j * z,
    "conjugated": np.conj,
    "phase-rotated": lambda z: PHASE * z,
}


def _transformed(signal, name):
    return IqSignal(TRANSFORMS[name](signal.samples), signal.sample_rate_hz)


@pytest.fixture(scope="module")
def stage():
    """desk-scale's config and its training stage."""
    config = load_config(DESK)
    return config, _training_stage(config)


@pytest.fixture(scope="module")
def fits(stage):
    """The fits on the plain, the rotated and the conjugated reference and drive."""
    config, (reference, _, learned, _, _, _, trace) = stage
    fits = {
        name: _fits(
            config,
            _transformed(reference, name),
            _transformed(learned.drive, name),
            trace.selected.kernel_count,
        )
        for name in TRANSFORMS
    }
    assert fits["plain"][1].rows() == trace.rows()
    return fits


@pytest.mark.parametrize("name", ["rotated", "conjugated"])
def test_transformed_reference_gives_the_transformed_kernel_matrix_bit_for_bit(stage, name):
    config, (reference, _, _, matrix, _, _, _) = stage
    transformed = build_kernel_matrix(_transformed(reference, name), config.structure)
    assert np.array_equal(transformed.data, TRANSFORMS[name](matrix.data))


def _relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _assert_rotation_keeps_every_support_and_the_coefficients(fits, name, lambda_bound):
    ls, trace, lam, lasso = fits["plain"]
    ls_r, trace_r, lam_r, lasso_r = fits[name]
    assert [r.kernel_count for r in trace_r.records] == [r.kernel_count for r in trace.records]
    for record, rotated in zip(trace.records, trace_r.records, strict=True):
        support = np.flatnonzero(record.coefficients)
        assert np.array_equal(np.flatnonzero(rotated.coefficients), support)
        assert _relative(rotated.coefficients, record.coefficients) <= ROTATED_BW_BOUND
    assert trace_r.selected_index == trace.selected_index
    assert abs(lam_r - lam) <= lambda_bound * lam
    assert np.array_equal(lasso_r.support(), lasso.support())
    assert _relative(lasso_r.values, lasso.values) <= ROTATED_LASSO_BOUND
    assert _relative(ls_r.values, ls.values) <= ROTATED_LS_BOUND


def test_rotating_by_j_keeps_every_support_the_matched_lambda_and_the_coefficients(fits):
    _assert_rotation_keeps_every_support_and_the_coefficients(fits, "rotated", 0.0)


def test_rotating_by_a_phase_keeps_every_support_and_the_coefficients_within_bounds(fits):
    _assert_rotation_keeps_every_support_and_the_coefficients(
        fits, "phase-rotated", PHASE_LAMBDA_BOUND
    )


def test_a_real_gain_scales_each_column_and_keeps_the_least_squares_predictions(stage):
    config, (reference, _, learned, matrix, ls, _, _) = stage
    scaled = build_kernel_matrix(
        IqSignal(ALPHA * reference.samples, reference.sample_rate_hz), config.structure
    )
    k = np.array([d.order_exponent for d in matrix.columns])
    expected = matrix.data * ALPHA ** (k + 1)
    assert np.all(np.abs(scaled.data - expected) <= 2 * (k + 1) * EPS * np.abs(expected))
    ls_scaled = least_squares(scaled, learned.drive)
    predictions = matrix.data @ ls.values
    assert _relative(scaled.data @ ls_scaled.values, predictions) <= SCALED_PREDICTION_BOUND


def test_conjugating_gives_the_conjugated_coefficients_bit_for_bit(fits):
    # conj flips the sign of every imaginary part, which each real
    # product and sum carries through exactly, in any order: the Gram,
    # S^H x and every solve come out conjugated, bit for bit (measured on
    # 1 and 2 OpenBLAS threads), so no bound is needed.
    ls, trace, lam, lasso = fits["plain"]
    ls_c, trace_c, lam_c, lasso_c = fits["conjugated"]
    for record, conjugated in zip(trace.records, trace_c.records, strict=True):
        assert np.array_equal(conjugated.coefficients, np.conj(record.coefficients))
    assert lam_c == lam
    assert np.array_equal(lasso_c.values, np.conj(lasso.values))
    assert np.array_equal(ls_c.values, np.conj(ls.values))
