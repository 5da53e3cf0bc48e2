"""Complex-valued sparse estimation for memory-polynomial models.

The l1 penalty here is the sum of coefficient moduli.  Standard Lasso
uses one penalty weight for the whole vector; the block-weighted
variant groups columns by polynomial order and cycles through the
groups with block coordinate descent, each group carrying its own
penalty weight and zero threshold.  Every block subproblem is solved by
iterated ridge regression: the l1 term is replaced by a quadratic
majorizer around the previous iterate, which turns each step into a
weighted ridge solve.

Solvers accept either a ``KernelMatrix`` or a plain complex matrix; a
``KernelMatrix`` input yields a ``CoefficientVector`` result, a plain
matrix yields a bare array.

The Gram matrix ``S^H S`` of a ``KernelMatrix`` is computed once and
cached on it (``KernelMatrix.gram``); least squares, ridge, the plain
Lasso and the all-column block of the block-weighted solver read it
from there, so repeated fits on one kernel matrix, such as the
matched-count bisection, build it only once.  Plain matrices and column
subsets form their Gram per call.  Correlations ``S^H x`` are formed as
``conj(x^H S)``, which reads ``S`` in place instead of copying its
conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
import scipy.linalg

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    RankDeficiencyError,
)
from .gmp import CoefficientVector, KernelMatrix
from .signal import DB_FLOOR, IqSignal

CONDITION_LIMIT = 1e12

# Tabulated penalty ladder: base values for the linear kernels, then a
# fixed ratio per order step, larger from order 11 up.
LAMBDA_BASE = 1e-4
THRESHOLD_BASE = 0.17
LADDER_RATIO_LOW = 1.35
LADDER_RATIO_HIGH = 2.0
LADDER_SWITCH = 10  # first even k that uses the high ratio
LADDER_MAX = 14     # largest tabulated even k


@dataclass(frozen=True)
class BcdConfig:
    """Knobs of the block-coordinate-descent / iterated-ridge solver."""

    outer_iterations: int = 10
    inner_ridge_iterations: int = 50
    inner_tolerance: float = 1e-8
    keep_best_iterate: bool = True
    ridge_epsilon: float = 1e-8
    warm_start: bool = True

    def __post_init__(self):
        if self.outer_iterations < 1:
            raise ConfigurationError(
                f"outer_iterations must be >= 1, got {self.outer_iterations}"
            )
        if self.inner_ridge_iterations < 1:
            raise ConfigurationError(
                f"inner_ridge_iterations must be >= 1, got {self.inner_ridge_iterations}"
            )
        if not (math.isfinite(self.inner_tolerance) and self.inner_tolerance > 0):
            raise ConfigurationError(
                f"inner_tolerance must be positive, got {self.inner_tolerance}"
            )
        if not (math.isfinite(self.ridge_epsilon) and self.ridge_epsilon > 0):
            raise ConfigurationError(
                f"ridge_epsilon must be positive, got {self.ridge_epsilon}"
            )


@dataclass(frozen=True)
class RegularizationSchedule:
    """Per-order penalty weights and zero thresholds."""

    lambda_by_order: dict
    threshold_by_order: dict

    def __post_init__(self):
        for name, mapping in (
            ("lambda_by_order", self.lambda_by_order),
            ("threshold_by_order", self.threshold_by_order),
        ):
            for k, value in mapping.items():
                if k < 0 or k % 2 != 0:
                    raise ConfigurationError(
                        f"{name} keys must be even envelope powers, got {k}"
                    )
                if not math.isfinite(value):
                    raise ConfigurationError(f"{name}[{k}] must be finite, got {value}")
        for k, value in self.lambda_by_order.items():
            if value <= 0:
                raise ConfigurationError(f"lambda for order {k} must be positive, got {value}")
        for k, value in self.threshold_by_order.items():
            if value < 0:
                raise ConfigurationError(
                    f"zero threshold for order {k} must be non-negative, got {value}"
                )

    def lambda_for(self, k: int) -> float:
        try:
            return self.lambda_by_order[k]
        except KeyError:
            raise ConfigurationError(f"schedule has no penalty weight for order {k}") from None

    def threshold_for(self, k: int) -> float:
        try:
            return self.threshold_by_order[k]
        except KeyError:
            raise ConfigurationError(f"schedule has no zero threshold for order {k}") from None


def default_schedule(
    structure, lambda_scale: float = 1.0, threshold_scale: float = 1.0
) -> RegularizationSchedule:
    """Tabulated ladder for every order present in ``structure``.

    The linear kernels get the base values; each step of two in the
    envelope power multiplies both by 1.35, or by 2 from power 10 up.
    Optional scale factors shrink or grow the whole ladder, keeping the
    ratios.
    """
    orders = structure.orders
    if not orders:
        raise ConfigurationError("structure has no kernels to schedule")
    if max(orders) > LADDER_MAX:
        raise ConfigurationError(
            f"no tabulated penalty beyond envelope power {LADDER_MAX}, structure has {max(orders)}"
        )
    lam, tau = {}, {}
    value_l, value_t = LAMBDA_BASE, THRESHOLD_BASE
    for k in range(0, LADDER_MAX + 2, 2):
        if k > 0:
            ratio = LADDER_RATIO_HIGH if k >= LADDER_SWITCH else LADDER_RATIO_LOW
            value_l *= ratio
            value_t *= ratio
        if k in orders:
            lam[k] = value_l * lambda_scale
            tau[k] = value_t * threshold_scale
    return RegularizationSchedule(lam, tau)


# ---------------------------------------------------------------------------
# Input adapters.


def _unpack_design(S):
    if isinstance(S, KernelMatrix):
        return S.data, S
    arr = np.asarray(S, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionError(f"design matrix must be 2-D, got shape {arr.shape}")
    return arr, None


def _unpack_target(x, matrix, km):
    arr = x.samples if isinstance(x, IqSignal) else np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1:
        raise DimensionError(f"target must be 1-D, got shape {arr.shape}")
    if km is not None and km.row_offset and arr.size == km.source_length:
        arr = arr[km.row_offset:]
    if arr.size != matrix.shape[0]:
        raise DimensionError(
            f"target has {arr.size} samples but design has {matrix.shape[0]} rows"
        )
    return arr


def _gram(matrix, km):
    """S^H S, from the kernel matrix's cache when there is one."""
    return matrix.conj().T @ matrix if km is None else km.gram


def _correlate(matrix, vector):
    """S^H x without an N x P conjugate copy of S."""
    return (vector.conj() @ matrix).conj()


def _wrap(values, km):
    if km is None:
        return values
    return CoefficientVector(km.structure, values)


def _describe(km, matrix):
    if km is None:
        return f"{matrix.shape[1]}-column design"
    s = km.structure
    return (
        f"structure with {s.kernel_count} kernels "
        f"(aligned {len(s.aligned_orders)}x{len(s.aligned_lags)}, "
        f"lagging {len(s.lagging_orders)}x{len(s.lagging_lags)}x{len(s.lagging_cross)}, "
        f"leading {len(s.leading_orders)}x{len(s.leading_lags)}x{len(s.leading_cross)})"
    )


def _power(arr) -> float:
    return float(np.real(np.vdot(arr, arr)))


def _nmse_db(err_power: float, ref_power: float) -> float:
    if err_power <= 0.0:
        return DB_FLOOR
    return max(DB_FLOOR, 10.0 * math.log10(err_power / ref_power))


# ---------------------------------------------------------------------------
# Dense solves.


def _normal_solve(matrix, target, what, gram=None):
    """Solve the normal equations with column equilibration and a
    condition gate.  ``gram`` is S^H S when the caller already has it."""
    if gram is None:
        gram = matrix.conj().T @ matrix
    rhs = _correlate(matrix, target)
    diag = np.real(np.diagonal(gram)).copy()
    if np.any(diag <= 0):
        dead = int(np.flatnonzero(diag <= 0)[0])
        raise RankDeficiencyError(f"column {dead} of {what} carries no energy")
    scale = np.sqrt(diag)
    gram_eq = gram / np.outer(scale, scale)
    cond = float(np.linalg.cond(gram_eq))
    if not math.isfinite(cond) or cond > CONDITION_LIMIT:
        raise RankDeficiencyError(
            f"normal equations of {what} have condition estimate {cond:.3e} "
            f"(limit {CONDITION_LIMIT:.0e})"
        )
    try:
        solution = scipy.linalg.solve(gram_eq, rhs / scale, assume_a="pos")
    except scipy.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"normal equations of {what} failed to factor: {exc}") from exc
    return solution / scale


def least_squares(S, x):
    """Unregularized complex least squares via the normal equations.

    Raises RankDeficiencyError when the (equilibrated) Gram matrix has a
    condition estimate above 1e12, naming the offending structure.
    """
    matrix, km = _unpack_design(S)
    if matrix.shape[1] == 0:
        raise ConfigurationError("design has no columns")
    target = _unpack_target(x, matrix, km)
    return _wrap(
        _normal_solve(matrix, target, _describe(km, matrix), _gram(matrix, km)), km
    )


def _ridge_solve(gram, rhs, weights):
    try:
        factor = scipy.linalg.cho_factor(gram + np.diag(weights))
        return scipy.linalg.cho_solve(factor, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"ridge system failed to factor: {exc}") from exc


def ridge(S, x, per_coefficient_weights):
    """Solve (S^H S + diag(d)) w = S^H x for positive weights d."""
    matrix, km = _unpack_design(S)
    target = _unpack_target(x, matrix, km)
    weights = np.asarray(per_coefficient_weights, dtype=np.float64)
    if weights.shape != (matrix.shape[1],):
        raise DimensionError(
            f"need one weight per column, got {weights.shape} for {matrix.shape[1]} columns"
        )
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise ConfigurationError("ridge weights must be positive and finite")
    rhs = _correlate(matrix, target)
    return _wrap(_ridge_solve(_gram(matrix, km), rhs, weights), km)


def ls_refine(S, x, support):
    """Least squares restricted to ``support``; other coefficients stay zero."""
    matrix, km = _unpack_design(S)
    target = _unpack_target(x, matrix, km)
    idx = np.asarray(support, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ConfigurationError("support must be a non-empty index list")
    if np.unique(idx).size != idx.size:
        raise ConfigurationError("support contains duplicate indices")
    if np.any(idx < 0) or np.any(idx >= matrix.shape[1]):
        raise ConfigurationError(
            f"support indices must lie in [0, {matrix.shape[1]}), got {idx.min()}..{idx.max()}"
        )
    values = np.zeros(matrix.shape[1], dtype=np.complex128)
    values[idx] = _normal_solve(
        matrix[:, idx], target, f"{idx.size}-kernel support of {_describe(km, matrix)}"
    )
    return _wrap(values, km)


# ---------------------------------------------------------------------------
# l1 solvers.


def _lasso_core(matrix, target, lam, zero_threshold, config, initial=None, gram=None):
    """Iterated ridge regression for one l1 subproblem.

    Returns the coefficient array.  Coefficients whose modulus falls
    below ``zero_threshold`` after an iterate are clamped to exactly
    zero and leave the active set for the rest of this call.  The first
    ridge uses uniform weights lam/2 (a unit-modulus previous iterate)
    unless a nonzero ``initial`` vector supplies them.  On return,
    moduli at or below the solver's own resolution floor
    max(zero_threshold, 10*inner_tolerance, ridge_epsilon) are reported
    as exact zeros: the iteration approaches a vanishing coefficient
    only asymptotically, so anything that small is numerically zero.
    """
    n_col = matrix.shape[1]
    omega = np.zeros(n_col, dtype=np.complex128)
    if n_col == 0:
        return omega
    rhs_full = _correlate(matrix, target)
    # Zero is optimal whenever the penalty dominates every correlation.
    if lam >= 2.0 * float(np.max(np.abs(rhs_full))):
        return omega
    gram_full = matrix.conj().T @ matrix if gram is None else gram
    eps = config.ridge_epsilon

    if initial is not None and np.any(initial):
        start = np.abs(np.asarray(initial, dtype=np.complex128))
        weights = lam / (2.0 * np.maximum(start, max(zero_threshold, eps)))
    else:
        weights = np.full(n_col, lam / 2.0)

    active = np.arange(n_col)
    for _ in range(config.inner_ridge_iterations):
        solved = _ridge_solve(
            gram_full[np.ix_(active, active)], rhs_full[active], weights
        )
        survivors = np.abs(solved) >= zero_threshold
        new = np.zeros(n_col, dtype=np.complex128)
        new[active[survivors]] = solved[survivors]
        active = active[survivors]
        delta = float(np.max(np.abs(new - omega)))
        omega = new
        if active.size == 0 or delta < config.inner_tolerance:
            break
        weights = lam / (2.0 * np.maximum(np.abs(omega[active]), eps))

    floor = max(zero_threshold, 10.0 * config.inner_tolerance, eps)
    omega[np.abs(omega) <= floor] = 0.0
    return omega


def lasso_iterated_ridge(S, x, lam, zero_threshold=0.0, config=None, initial=None):
    """Single-weight complex Lasso solved by iterated ridge regression."""
    if not (math.isfinite(lam) and lam > 0):
        raise ConfigurationError(f"lasso penalty must be positive, got {lam}")
    if not (math.isfinite(zero_threshold) and zero_threshold >= 0):
        raise ConfigurationError(f"zero_threshold must be >= 0, got {zero_threshold}")
    if config is None:
        config = BcdConfig()
    matrix, km = _unpack_design(S)
    target = _unpack_target(x, matrix, km)
    init = None
    if initial is not None:
        init = initial.values if isinstance(initial, CoefficientVector) else np.asarray(initial)
        if init.shape != (matrix.shape[1],):
            raise DimensionError(
                f"initial guess has {init.shape} entries for {matrix.shape[1]} columns"
            )
    gram = None if km is None else km.gram
    return _wrap(
        _lasso_core(matrix, target, lam, zero_threshold, config, init, gram), km
    )


@dataclass(frozen=True)
class FitRecord:
    """State after one outer block-descent iteration."""

    iteration: int
    nmse_db: float
    kernel_count: int
    effective_memory_depth: int
    lambda_by_order: dict
    coefficients: np.ndarray


@dataclass(frozen=True)
class FitTrace:
    """Per-iteration history of a block-weighted fit."""

    records: tuple
    selected_index: int

    @property
    def selected(self) -> FitRecord:
        return self.records[self.selected_index]

    def rows(self):
        """(iteration, nmse_db, kernel_count, effective_memory_depth) rows."""
        return [
            (r.iteration, r.nmse_db, r.kernel_count, r.effective_memory_depth)
            for r in self.records
        ]


def block_weighted_lasso(S, x, schedule: RegularizationSchedule, config=None):
    """Order-blocked l1 fit by cyclic block coordinate descent.

    Columns are grouped by envelope power; each outer iteration sweeps
    the groups in ascending order, re-solving one group against the
    residual of all others with that group's penalty weight and zero
    threshold.  A group update that would increase its subproblem
    objective is rejected, so the overall objective never increases
    within a sweep.  Returns the coefficient vector of the
    lowest-training-NMSE iteration (or the last, per config) together
    with the full trace.
    """
    if config is None:
        config = BcdConfig()
    matrix, km = _unpack_design(S)
    if km is None:
        raise ConfigurationError(
            "block_weighted_lasso needs a KernelMatrix; plain matrices carry no orders"
        )
    target = _unpack_target(x, matrix, km)
    target_power = _power(target)
    if target_power == 0.0:
        raise DegenerateInputError("target signal has zero power")

    orders = sorted({d.order_exponent for d in km.columns})
    lam = {k: schedule.lambda_for(k) for k in orders}
    tau = {k: schedule.threshold_for(k) for k in orders}
    blocks = {
        k: np.flatnonzero([d.order_exponent == k for d in km.columns]) for k in orders
    }
    n_col = matrix.shape[1]
    # An all-column block uses the matrix itself and its cached Gram, so
    # the single-block case reproduces lasso_iterated_ridge bit for bit.
    # No conjugate copy of a block is kept: it would double the memory
    # the blocks hold.
    subs = {
        k: matrix if blocks[k].size == n_col else matrix[:, blocks[k]] for k in orders
    }
    grams = {k: km.gram if subs[k] is matrix else subs[k].conj().T @ subs[k] for k in orders}

    omega = np.zeros(n_col, dtype=np.complex128)
    residual = target
    records = []
    for iteration in range(1, config.outer_iterations + 1):
        for k in orders:
            cols = blocks[k]
            sub = subs[k]
            w_old = omega[cols]
            if np.any(w_old):
                block_target = residual + sub @ w_old
            else:
                block_target = residual
            w_new = _lasso_core(
                sub,
                block_target,
                lam[k],
                tau[k],
                config,
                initial=w_old if config.warm_start else None,
                gram=grams[k],
            )
            penalty_old = lam[k] * float(np.sum(np.abs(w_old)))
            penalty_new = lam[k] * float(np.sum(np.abs(w_new)))
            residual_new = block_target - sub @ w_new
            # Reject any update that worsens the group objective.
            if _power(residual_new) + penalty_new <= _power(residual) + penalty_old:
                omega[cols] = w_new
                residual = residual_new
        snapshot = omega.copy()
        snapshot.setflags(write=False)
        nonzero = np.flatnonzero(snapshot)
        depth = (
            max(km.columns[j].deepest_sample for j in nonzero) if nonzero.size else -1
        )
        records.append(
            FitRecord(
                iteration=iteration,
                nmse_db=_nmse_db(_power(residual), target_power),
                kernel_count=int(nonzero.size),
                effective_memory_depth=depth,
                lambda_by_order=dict(lam),
                coefficients=snapshot,
            )
        )
    if config.keep_best_iterate:
        selected = int(np.argmin([r.nmse_db for r in records]))
    else:
        selected = len(records) - 1
    trace = FitTrace(records=tuple(records), selected_index=selected)
    return _wrap(records[selected].coefficients.copy(), km), trace


@dataclass(frozen=True)
class KktReport:
    """Worst first-order optimality violations of a Lasso solution.

    Active coefficients must satisfy 2 S_j^H r = lambda_j w_j/|w_j|;
    inactive ones must satisfy 2 |S_j^H r| <= lambda_j.
    """

    max_violation_active: float
    max_violation_inactive: float

    @property
    def max_violation(self) -> float:
        return max(self.max_violation_active, self.max_violation_inactive)


def kkt_check(S, x, coeffs, schedule) -> KktReport:
    """Evaluate the Lasso stationarity conditions for a solution.

    ``schedule`` may be a RegularizationSchedule (kernel matrices only),
    a scalar penalty, or one penalty per column.
    """
    matrix, km = _unpack_design(S)
    target = _unpack_target(x, matrix, km)
    values = coeffs.values if isinstance(coeffs, CoefficientVector) else np.asarray(coeffs)
    if values.shape != (matrix.shape[1],):
        raise DimensionError(
            f"solution has {values.shape} entries for {matrix.shape[1]} columns"
        )
    if isinstance(schedule, RegularizationSchedule):
        if km is None:
            raise ConfigurationError(
                "per-order schedule lookup needs a KernelMatrix with descriptors"
            )
        lam = np.array([schedule.lambda_for(d.order_exponent) for d in km.columns])
    else:
        lam = np.broadcast_to(
            np.asarray(schedule, dtype=np.float64), (matrix.shape[1],)
        ).copy()
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
            raise ConfigurationError("penalty weights must be positive and finite")

    correlation = 2.0 * _correlate(matrix, target - matrix @ values)
    active = values != 0
    if np.any(active):
        phases = values[active] / np.abs(values[active])
        max_active = float(np.max(np.abs(correlation[active] - lam[active] * phases)))
    else:
        max_active = 0.0
    if np.any(~active):
        slack = np.abs(correlation[~active]) - lam[~active]
        max_inactive = float(max(0.0, np.max(slack)))
    else:
        max_inactive = 0.0
    return KktReport(max_violation_active=max_active, max_violation_inactive=max_inactive)
