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
reference are the transformed kernel matrix, bit for bit.
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


def _fits(config, reference, drive, target_count):
    """(LS, block-weighted trace, matched lambda, plain Lasso) on one pair."""
    matrix = build_kernel_matrix(reference, config.structure)
    _, trace = block_weighted_lasso(matrix, drive, config.schedule(), config.bcd)
    lam, lasso, _ = matched_count_lasso(matrix, drive, target_count, config.bcd)
    return least_squares(matrix, drive), trace, lam, lasso


TRANSFORMS = {"plain": lambda z: z, "rotated": lambda z: 1j * z, "conjugated": np.conj}


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


def test_rotating_by_j_keeps_every_support_the_matched_lambda_and_the_coefficients(fits):
    ls, trace, lam, lasso = fits["plain"]
    ls_r, trace_r, lam_r, lasso_r = fits["rotated"]
    assert [r.kernel_count for r in trace_r.records] == [r.kernel_count for r in trace.records]
    for record, rotated in zip(trace.records, trace_r.records, strict=True):
        support = np.flatnonzero(record.coefficients)
        assert np.array_equal(np.flatnonzero(rotated.coefficients), support)
        assert _relative(rotated.coefficients, record.coefficients) <= ROTATED_BW_BOUND
    assert trace_r.selected_index == trace.selected_index
    assert lam_r == lam
    assert np.array_equal(lasso_r.support(), lasso.support())
    assert _relative(lasso_r.values, lasso.values) <= ROTATED_LASSO_BOUND
    assert _relative(ls_r.values, ls.values) <= ROTATED_LS_BOUND


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
