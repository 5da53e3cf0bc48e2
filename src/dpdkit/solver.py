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

Every solver reads one ``gmp.NormalSystem`` and nothing else of its
design: the Gram ``S^H S``, the correlation ``S^H x`` and ``||x||^2``,
from ``gmp.normal_system``.  That function owns the checks of the
design and the target, and the cache: a ``KernelMatrix`` keeps the
system of its last target, so the fits that follow on one kernel
matrix and one target, such as the matched-count bisection and the
refit on a support, make no further pass over the samples.  The
block-weighted descent and ``ls_refine`` read sub-blocks of that Gram
for their order blocks and supports, and the descent tracks the
correlation ``S^H r`` of the residual instead of the N-sample residual
``r`` itself, so no block update touches the N rows (the covariance
update of Friedman, Hastie and Tibshirani, J. Stat. Softw. 2010);
``kkt_check`` forms ``S^H r`` the same way.

Every dense solve is one LAPACK ``zposv``, in ``_factor_solve``, that
checks the diagonal finite and factors in place a Fortran-ordered
system owned by its caller.  An l1 call checks its Gram and right-hand
side finite once and keeps the ridge system of its active set as one
such array.  An iterate is one solve plus a fixed handful of vector
operations: copy the array into a work array, add the weights to its
diagonal, solve, then take the moduli, the largest change and the next
weights, in the order of the active set.  Masks are formed only when an
iterate cuts, folds or restores.  The array is cut down when
coefficients leave the active set, and it sheds the columns whose
weight has reached its cap: the majorizer gives a modulus at or below
``ridge_epsilon`` the constant weight lam / (2 ridge_epsilon) (the
perturbed local quadratic approximation of Hunter and Li, Ann. Stat.
2005), so such columns are folded out by exact block elimination and
their coefficients recovered from the solution of the rest.  Most of a
plain Lasso's coefficients sink there within a few iterates; at the
count-matched penalty on the 300-kernel ``wideband`` structure the last
iterates factor 33 columns.  A least-squares fit equilibrates
its Gram straight into the array that its condition gate reads and
``zposv`` factors.  scipy supplies only ``zposv``; it is imported at the
first solve, so a process that never fits never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    RankDeficiencyError,
)
from .gmp import CoefficientVector, effective_memory_depth, kernel_count, normal_system
from .signal import _ratio_db

CONDITION_LIMIT = 1e12
MAX_OUTER_ITERATIONS = 10_000
_EPS = float(np.finfo(np.float64).eps)

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
    ridge_epsilon: float = 1e-8

    def __post_init__(self):
        # Each sweep keeps a copy of the coefficients in the fit's trace.
        if not 1 <= self.outer_iterations <= MAX_OUTER_ITERATIONS:
            raise ConfigurationError(
                f"outer_iterations must lie in [1, {MAX_OUTER_ITERATIONS}], "
                f"got {self.outer_iterations}"
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


def _describe(system):
    s = system.structure
    if s is None:
        return f"{system.rhs.shape[0]}-column design"
    return (
        f"structure with {s.kernel_count} kernels "
        f"(aligned {len(s.aligned_orders)}x{len(s.aligned_lags)}, "
        f"lagging {len(s.lagging_orders)}x{len(s.lagging_lags)}x{len(s.lagging_cross)}, "
        f"leading {len(s.leading_orders)}x{len(s.leading_lags)}x{len(s.leading_cross)})"
    )


# ---------------------------------------------------------------------------
# Dense solves.


def _condition(gram):
    """2-norm condition number of a Hermitian matrix, the ratio of its
    largest to its smallest eigenvalue: what ``np.linalg.cond`` computes
    by an SVD for a positive definite matrix.  Infinite when the
    smallest eigenvalue is not positive (or not finite), where the
    matrix is not positive definite."""
    eigenvalues = np.linalg.eigvalsh(gram)
    if not eigenvalues[0] > 0:
        return math.inf
    return float(eigenvalues[-1] / eigenvalues[0])


def _normal_solve(gram, rhs, what):
    """Solve ``gram w = rhs`` (the normal equations S^H S w = S^H x) with
    column equilibration and a condition gate, by ``_ridge_solve`` with
    zero weights on the one equilibrated, Fortran-ordered copy of
    ``gram``.  A Gram that is not finite has no condition number to gate
    on and raises RankDeficiencyError."""
    if not np.isfinite(gram).all():
        raise RankDeficiencyError(f"normal equations of {what} are not finite")
    diag = np.real(np.diagonal(gram))
    if np.any(diag <= 0):
        dead = int(np.flatnonzero(diag <= 0)[0])
        raise RankDeficiencyError(f"column {dead} of {what} carries no energy")
    scale = np.sqrt(diag)
    system = np.empty(gram.shape, dtype=np.complex128, order="F")
    np.divide(gram, np.outer(scale, scale), out=system)
    cond = _condition(system)
    if cond > CONDITION_LIMIT:
        raise RankDeficiencyError(
            f"normal equations of {what} have condition estimate {cond:.3e} "
            f"(limit {CONDITION_LIMIT:.0e})"
        )
    try:
        solution = _ridge_solve(system, rhs / scale, 0.0)
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(f"normal equations of {what} failed to factor: {exc}") from exc
    return solution / scale


def least_squares(S, x):
    """Unregularized complex least squares via the normal equations.

    Raises RankDeficiencyError when the (equilibrated) Gram matrix has a
    condition estimate above 1e12, naming the offending structure.
    """
    system = normal_system(S, x)
    if system.rhs.shape[0] == 0:
        raise ConfigurationError("design has no columns")
    return system.coefficients(_normal_solve(system.gram, system.rhs, _describe(system)))


# LAPACK ``zposv``, taken from scipy at the first ridge solve: loading
# scipy takes about 0.3 s, which start-up does not pay.
_zposv = None


def _diagonal(system):
    """The diagonal of a contiguous square array, as a view: every
    (n + 1)-th element in memory order."""
    return system.ravel(order="K")[:: system.shape[0] + 1]


def _ridge_solve(system, rhs, weights):
    """Solve ``(system + diag(weights)) w = rhs`` by Cholesky, in place.

    ``system`` is a Fortran-ordered complex array that the caller owns
    and has checked finite; ``rhs`` is one column or several, and
    ``weights`` one per row or one for all.  The weights are added to
    its diagonal and ``_factor_solve`` solves in it.  A right-hand side
    that is not finite raises RankDeficiencyError.
    """
    if not np.isfinite(rhs).all():
        raise RankDeficiencyError("ridge system or right-hand side is not finite")
    diagonal = _diagonal(system)
    # A finite Gram and finite weights may still sum to inf.
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal += weights
    return _factor_solve(system, diagonal, rhs)


def _factor_solve(system, diagonal, rhs):
    """Solve ``system w = rhs`` by one LAPACK ``zposv`` (``potrf`` then
    ``potrs`` on the upper triangle, the routines behind
    ``cho_factor``/``cho_solve``), which factors ``system`` in place;
    ``diagonal`` is the view of its diagonal.

    This is the one call of ``zposv``: every least-squares fit, fold and
    l1 iterate solves here.  A diagonal that is not finite, or a system
    that is not positive definite, raises RankDeficiencyError.
    """
    global _zposv
    if rhs.shape[0] == 0:
        return np.zeros(0, dtype=np.complex128)
    if not np.isfinite(diagonal).all():
        raise RankDeficiencyError("ridge system or right-hand side is not finite")
    if _zposv is None:
        import scipy.linalg

        _zposv = scipy.linalg.lapack.zposv
    _, solution, info = _zposv(system, rhs, overwrite_a=True)
    if info > 0:
        raise RankDeficiencyError(
            f"ridge system failed to factor: leading minor {info} is not positive definite"
        )
    if info < 0:
        raise ValueError(f"zposv rejected argument {-info}")
    return solution


def ls_refine(S, x, support):
    """Least squares restricted to ``support``; other coefficients stay zero.

    One path for every design: the support's sub-blocks of the system's
    Gram and of ``S^H x`` are solved, so a refit on a fresh kernel
    matrix equals, bit for bit, the refit after a fit on it.
    """
    system = normal_system(S, x)
    n_cols = system.rhs.shape[0]
    idx = np.asarray(support)
    if idx.ndim != 1 or idx.size == 0:
        raise ConfigurationError("support must be a non-empty index list")
    if idx.dtype.kind not in "iu":
        raise ConfigurationError(f"support must hold integer indices, got dtype {idx.dtype}")
    if np.unique(idx).size != idx.size:
        raise ConfigurationError("support contains duplicate indices")
    if np.any(idx < 0) or np.any(idx >= n_cols):
        raise ConfigurationError(
            f"support indices must lie in [0, {n_cols}), got {idx.min()}..{idx.max()}"
        )
    values = np.zeros(n_cols, dtype=np.complex128)
    values[idx] = _normal_solve(
        system.gram[np.ix_(idx, idx)],
        system.rhs[idx],
        f"{idx.size}-kernel support of {_describe(system)}",
    )
    return system.coefficients(values)


# ---------------------------------------------------------------------------
# l1 solvers.


def _lasso_core(gram, rhs, lam, zero_threshold, config, initial=None):
    """Iterated ridge regression for one l1 subproblem, given its normal
    equations: ``gram`` is S^H S and ``rhs`` is S^H x.

    Returns the coefficient array.  Coefficients whose modulus falls
    below ``zero_threshold`` after an iterate are clamped to exactly
    zero and leave the active set for the rest of this call.  The first
    ridge uses uniform weights lam/2 (a unit-modulus previous iterate)
    unless a nonzero ``initial`` vector supplies them; each later one
    weighs a coefficient w by lam / (2 max(|w|, eps)), eps being
    ``ridge_epsilon``.  On return, moduli at or below the solver's own
    resolution floor max(zero_threshold, 10*inner_tolerance, eps) are
    reported as exact zeros: the iteration approaches a vanishing
    coefficient only asymptotically, so anything that small is
    numerically zero.

    An iterate copies the ridge system of the free columns into a work
    array, adds the weights to its diagonal, solves with
    ``_factor_solve``, and takes the moduli, the largest change and the
    next weights, the coefficients kept in the order of ``active``.  The
    Gram and ``rhs`` are checked finite once per call, a folded
    right-hand side once per fold, and the diagonal on every solve, so a
    weight that overflows to inf raises RankDeficiencyError there.  The
    survivor and cap masks are built only when a modulus falls below
    ``zero_threshold`` or the cap count calls for a fold or a restore.

    After an iterate, a free column whose modulus lies in
    [zero_threshold, eps] has the weight cap lam / (2 eps) for the next
    one; once such columns are at least half of the free ones, ``_fold``
    eliminates them from the system.  The folded coefficients are
    recovered from each later solve; as long as they stay in that
    interval their weight stays the cap, so the iterates solve the same
    equations as on the whole active set, with the sums in another
    order.  When one leaves it, the unfolded system of the active set is
    cut afresh from ``gram`` and folded again.  With ``zero_threshold``
    above eps no column folds, and the iterates are those of the
    unfolded system bit for bit.
    """
    n_col = rhs.shape[0]
    omega = np.zeros(n_col, dtype=np.complex128)
    if n_col == 0:
        return omega
    # Zero is optimal whenever the penalty dominates every correlation.
    if lam >= 2.0 * float(np.abs(rhs).max()):
        return omega
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise RankDeficiencyError("ridge system or right-hand side is not finite")
    eps = config.ridge_epsilon
    # A modulus at or above a zero threshold above eps never has the cap.
    can_fold = zero_threshold <= eps
    # ``system`` is the ridge system of the free columns active[:n_free];
    # the folded ones, active[n_free:], are eliminated from it and
    # recovered as u - V @ w from its solution w.  ``coef`` holds the
    # last iterate's coefficients in the order of ``active``.
    system, b = np.array(gram, dtype=np.complex128, order="F"), rhs
    u, V = np.zeros(0, dtype=np.complex128), np.zeros((0, n_col), dtype=np.complex128)
    active, n_free = np.arange(n_col), n_col
    coef = np.zeros(n_col, dtype=np.complex128)
    work = np.empty_like(system)
    diagonal = _diagonal(work)
    # Weights may overflow to inf, and the diagonal with them; the
    # solve's diagonal check turns that into RankDeficiencyError.
    with np.errstate(over="ignore", invalid="ignore"):
        if initial is not None and np.any(initial):
            start = np.abs(np.asarray(initial, dtype=np.complex128))
            weights = lam / (2.0 * np.maximum(start, max(zero_threshold, eps)))
        else:
            weights = np.full(n_col, lam / 2.0)
        cap = lam / (2.0 * eps)  # the weight of every modulus at or below eps
        for _ in range(config.inner_ridge_iterations):
            np.copyto(work, system)
            diagonal += weights
            solved = _factor_solve(work, diagonal, b)
            if n_free < active.size:
                solved = np.concatenate([solved, u - V @ solved])
            moduli = np.abs(solved)
            # Not ``<``: a NaN modulus leaves the active set as well.
            cut = not moduli.min() >= zero_threshold
            if cut:
                survivors = moduli >= zero_threshold
                solved[~survivors] = 0.0
            delta = float(np.abs(solved - coef).max())
            coef = solved
            if delta < config.inner_tolerance or (cut and not survivors.any()):
                break
            reshape = cut or (
                can_fold
                and (
                    2 * np.count_nonzero(moduli[:n_free] <= eps) >= n_free
                    or (n_free < active.size and moduli[n_free:].max() > eps)
                )
            )
            free_moduli = moduli[:n_free]
            if reshape:
                if not cut:
                    survivors = moduli >= zero_threshold
                kept = active[survivors]
                stay, folding = survivors[:n_free], False
                if can_fold:
                    capped = survivors & (moduli <= eps)
                    if not capped[n_free:].all():
                        # A folded coefficient left the cap: restore the
                        # unfolded system of the active set, to fold again
                        # below.
                        full = np.zeros(n_col, dtype=np.complex128)
                        full[active] = coef
                        active = np.sort(kept)
                        n_free = active.size
                        system, b = np.asfortranarray(gram[np.ix_(active, active)]), rhs[active]
                        u, V = u[:0], np.zeros((0, n_free), dtype=np.complex128)
                        coef = full[active]
                        free_moduli = moduli = np.abs(coef)
                        stay, capped = moduli >= zero_threshold, moduli <= eps
                    fold = capped[:n_free]
                    # Fold once at least half of the free columns have the
                    # cap, so that each fold at least halves the system: a
                    # fold costs about one iterate's solve, and folding the
                    # capped columns after every iterate measured slower on
                    # both shipped structures.
                    folding = 2 * np.count_nonzero(fold) >= n_free
                    if folding:
                        stay = stay ^ fold
                if not stay.all():
                    free, free_coef = active[:n_free], coef[:n_free]
                    free_moduli = free_moduli[stay]
                    if folding:
                        system, b, u, V = _fold(
                            system, b, u, V, np.flatnonzero(stay), np.flatnonzero(fold), cap
                        )
                        active = np.concatenate([free[stay], active[n_free:], free[fold]])
                        coef = np.concatenate([free_coef[stay], coef[n_free:], free_coef[fold]])
                    else:
                        # Gathered through the transpose, the cut keeps
                        # the Fortran order.
                        keep = np.flatnonzero(stay)
                        system = system.T.take(keep, 0).take(keep, 1).T
                        b, V = b[keep], V[:, keep]
                        active, coef = kept, coef[survivors]
                    n_free = system.shape[0]
                if work.shape != system.shape:
                    work = np.empty_like(system)
                    diagonal = _diagonal(work)
            weights = lam / (2.0 * np.maximum(free_moduli, eps))

    omega[active] = coef
    floor = max(zero_threshold, 10.0 * config.inner_tolerance, eps)
    omega[np.abs(omega) <= floor] = 0.0
    return omega


def _fold(system, b, u, V, keep, drop, cap):
    """Eliminate the rows ``drop`` of the ridge system ``system w = b`` at
    the ridge weight ``cap``, and cut every row in neither ``keep`` nor
    ``drop``.

    With Sigma the dropped block plus ``cap`` on its diagonal, the
    dropped coefficients are ``Sigma^-1 (b_D - system_DK w_K)`` in the
    kept ones, which solve the Schur complement
    ``system_KK - system_KD Sigma^-1 system_DK`` against
    ``b_K - system_KD Sigma^-1 b_D``.  ``(u, V)`` recover the rows folded
    before from the solution of ``system``; the returned pair recovers
    those, then the dropped ones, from the solution of the returned
    system.  A folded right-hand side that is not finite raises
    RankDeficiencyError.
    """
    k = keep.size
    order = np.concatenate([keep, drop])
    # Gathered through the transpose, ``block`` keeps the Fortran order.
    block = system.T.take(order, 0).take(order, 1).T
    cross = block[:k, k:]
    solved = _ridge_solve(
        np.asfortranarray(block[k:, k:]), np.column_stack([block[k:, :k], b[drop]]), cap
    )
    v_fold, u_fold = solved[:, :-1], solved[:, -1]
    schur = block[:k, :k]
    schur -= (v_fold.T @ cross.T).T  # cross @ v_fold, in Fortran order
    b = b[keep] - cross @ u_fold
    if not np.isfinite(b).all():
        raise RankDeficiencyError("ridge system or right-hand side is not finite")
    u = np.concatenate([u - V.take(drop, 1) @ u_fold, u_fold])
    V = np.vstack([V.take(keep, 1) - V.take(drop, 1) @ v_fold, v_fold])
    return np.asfortranarray(schur), b, u, V


def lasso_iterated_ridge(S, x, lam, zero_threshold=0.0, config: BcdConfig = BcdConfig()):
    """Single-weight complex Lasso solved by iterated ridge regression,
    from uniform first weights."""
    if not (math.isfinite(lam) and lam > 0):
        raise ConfigurationError(f"lasso penalty must be positive, got {lam}")
    if not (math.isfinite(zero_threshold) and zero_threshold >= 0):
        raise ConfigurationError(f"zero_threshold must be >= 0, got {zero_threshold}")
    system = normal_system(S, x)
    return system.coefficients(_lasso_core(system.gram, system.rhs, lam, zero_threshold, config))


@dataclass(frozen=True)
class FitRecord:
    """State after one outer block-descent iteration.

    ``objective`` is the residual power plus the l1 term weighted by the
    fit's schedule, which every sweep shares, and ``rejected_orders``
    lists the orders whose block update the descent rejected in this
    sweep because it did not lower the objective by more than rounding
    error.
    """

    iteration: int
    nmse_db: float
    kernel_count: int
    effective_memory_depth: int
    coefficients: np.ndarray
    objective: float
    rejected_orders: tuple


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


def block_weighted_lasso(S, x, schedule: RegularizationSchedule, config: BcdConfig = BcdConfig()):
    """Order-blocked l1 fit by cyclic block coordinate descent.

    Columns are grouped by envelope power; each outer iteration sweeps
    the groups in ascending order, re-solving one group against the
    residual of all others with that group's penalty weight and zero
    threshold, warm-started from the group's previous coefficients when
    any of them is nonzero.  A group update is accepted only when it
    lowers the objective (residual power plus weighted l1 term) by more
    than the rounding error of the computed change, (block size + 1) *
    eps times the sum of the moduli of its terms, so the objective never
    increases, and a tie, or a change in the last bits of the system,
    leaves the group as it was.
    Returns the coefficient vector of the lowest-training-NMSE iteration
    together with the full trace.

    The descent works on the normal equations: it keeps ``c = S^H r``
    and the residual power, and updates both from the cached Gram, so a
    block update costs O(P * block size) whatever the row count.
    """
    system = normal_system(S, x)
    if system.structure is None:
        raise ConfigurationError(
            "block_weighted_lasso needs a KernelMatrix; plain matrices carry no orders"
        )
    target_power = system.target_power
    if target_power == 0.0:
        raise DegenerateInputError("target signal has zero power")

    columns = system.structure.descriptors()
    orders = sorted({d.order_exponent for d in columns})
    lam = {k: schedule.lambda_for(k) for k in orders}
    tau = {k: schedule.threshold_for(k) for k in orders}
    blocks = {k: np.flatnonzero([d.order_exponent == k for d in columns]) for k in orders}
    gram, rhs = system.gram, system.rhs
    # Each block's Gram S_k^H S_k and cross columns S^H S_k.
    block_grams = {k: gram[np.ix_(blocks[k], blocks[k])] for k in orders}
    cross = {k: gram[:, blocks[k]] for k in orders}

    omega = np.zeros(gram.shape[0], dtype=np.complex128)
    corr = rhs.copy()  # S^H r for r = x - S omega
    residual_power = target_power
    objective = target_power
    records = []
    for iteration in range(1, config.outer_iterations + 1):
        rejected = []
        for k in orders:
            cols, gram_k = blocks[k], block_grams[k]
            w_old = omega[cols]
            corr_k = corr[cols]
            # A zero block solves against corr_k as it is, so the first
            # sweep of a single block is lasso_iterated_ridge bit for bit.
            rhs = corr_k + gram_k @ w_old if np.any(w_old) else corr_k
            w_new = _lasso_core(gram_k, rhs, lam[k], tau[k], config, initial=w_old)
            d = w_new - w_old
            # ||r - S_k d||^2 - ||r||^2, given S_k^H r = corr_k.
            quadratic = float(np.real(np.vdot(d, gram_k @ d)))
            linear = float(np.real(np.vdot(d, corr_k)))
            delta = quadratic - 2.0 * linear
            penalty_old = lam[k] * float(np.sum(np.abs(w_old)))
            penalty_new = lam[k] * float(np.sum(np.abs(w_new)))
            step = delta + penalty_new - penalty_old
            # A fall within the rounding error of the terms of the step
            # is no measured decrease.
            noise = (cols.size + 1) * _EPS * (
                abs(quadratic) + 2.0 * abs(linear) + penalty_old + penalty_new
            )
            if step < -noise:
                omega[cols] = w_new
                corr -= cross[k] @ d
                residual_power += delta
                objective += step
            else:
                rejected.append(k)
        snapshot = system.coefficients(omega)
        records.append(
            FitRecord(
                iteration=iteration,
                nmse_db=_ratio_db(residual_power, target_power),
                kernel_count=kernel_count(snapshot),
                effective_memory_depth=effective_memory_depth(snapshot),
                coefficients=snapshot.values,
                objective=objective,
                rejected_orders=tuple(rejected),
            )
        )
    selected = int(np.argmin([r.nmse_db for r in records]))
    trace = FitTrace(records=tuple(records), selected_index=selected)
    return system.coefficients(records[selected].coefficients), trace


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
    a scalar penalty, or one penalty per column.  The correlation
    ``2 S^H (x - S w)`` is formed from the normal equations as
    ``2 (S^H x - S^H S w)``, with no pass over the N samples.
    """
    system = normal_system(S, x)
    n_cols = system.rhs.shape[0]
    values = coeffs.values if isinstance(coeffs, CoefficientVector) else np.asarray(coeffs)
    if values.shape != (n_cols,):
        raise DimensionError(f"solution has {values.shape} entries for {n_cols} columns")
    if isinstance(schedule, RegularizationSchedule):
        if system.structure is None:
            raise ConfigurationError(
                "per-order schedule lookup needs a KernelMatrix with descriptors"
            )
        lam = np.array(
            [schedule.lambda_for(d.order_exponent) for d in system.structure.descriptors()]
        )
    else:
        lam = np.asarray(schedule, dtype=np.float64)
        if lam.ndim and lam.shape != (n_cols,):
            raise DimensionError(
                f"need one penalty per column, got {lam.shape} for {n_cols} columns"
            )
        lam = np.broadcast_to(lam, (n_cols,)).copy()
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
            raise ConfigurationError("penalty weights must be positive and finite")

    correlation = 2.0 * (system.rhs - system.gram @ values)
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
