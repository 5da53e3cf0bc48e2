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
from ``gmp.normal_system``.  That function owns the cache: a
``KernelMatrix`` keeps the system of its last target, so the fits that
follow on one kernel matrix and one target, such as the matched-count
bisection and the refit on a support, make no further pass over the
samples.  It is also the one gate for the design and the target: it
rejects a design with no columns, and a system that is not finite, for
every solver alike.  The solvers check only the values they derive
themselves, where they derive them: the ridge weights on a diagonal,
the right-hand side of an order block, and a folded right-hand side.
The block-weighted descent and ``ls_refine`` read sub-blocks of that Gram
for their order blocks and supports, and the descent tracks the
correlation ``S^H r`` of the residual instead of the N-sample residual
``r`` itself, so no block update touches the N rows (the covariance
update of Friedman, Hastie and Tibshirani, J. Stat. Softw. 2010);
``kkt_check`` forms ``S^H r`` the same way.

Every dense solve is one LAPACK ``zposv``, in ``_factor_solve``, that
adds the ridge weights to the diagonal of a Fortran-ordered system
owned by its caller, checks that diagonal finite and factors the
system in place.  An l1 call keeps the ridge system of its active set
as one such array.  An iterate is one solve plus a fixed handful of
vector operations: copy the array into a work array, solve it with the
weights, then take the moduli, the largest change and the next
weights, in the order of the active set.  A cut, where moduli fall
below the zero threshold, rebuilds the array of the survivors from the
Gram, in that order.  Above ``ridge_epsilon``, as in every block of the
block descent, only a cut changes the array, and no other iterate forms
a mask.  At or below it, as in the plain Lasso, the array also sheds
the columns whose weight has reached its cap: the majorizer gives a
modulus at or below ``ridge_epsilon`` the constant weight
lam / (2 ridge_epsilon) (the perturbed local quadratic approximation of
Hunter and Li, Ann. Stat. 2005), so such columns are folded out by
exact block elimination and their coefficients recovered from the
solution of the rest; a folded coefficient that leaves the cap takes
the same rebuild.  Most of a plain Lasso's coefficients sink to the cap
within a few iterates; at the count-matched penalty on the 300-kernel
``wideband`` structure the last iterates factor 33 columns.  A
least-squares fit equilibrates its Gram straight into the array that
its condition gate reads and ``zposv`` factors.  scipy supplies only
``zposv``, from its LAPACK extension ``scipy.linalg._flapack`` alone,
which the first solve loads in 5 ms and 2.5 MB (the ``scipy.linalg``
package takes 0.2 s and 27 MB), so a process that never fits loads neither.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
import math
import os

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    RankDeficiencyError,
    _integer,
    _non_negative,
    _positive,
)
from .gmp import (
    CoefficientVector, _describe, _index, effective_memory_depth, kernel_count, normal_system
)
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
        _integer("outer_iterations", self.outer_iterations, 1, MAX_OUTER_ITERATIONS)
        _integer("inner_ridge_iterations", self.inner_ridge_iterations, 1)
        _positive("inner_tolerance", self.inner_tolerance)
        _positive("ridge_epsilon", self.ridge_epsilon)


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
            if not isinstance(mapping, Mapping):
                raise ConfigurationError(f"{name} must be a mapping, got {mapping!r}")
            for k in mapping:
                _index(f"{name} keys", k, "orders")
        for k, value in self.lambda_by_order.items():
            _positive(f"lambda for order {k}", value)
        for k, value in self.threshold_by_order.items():
            _non_negative(f"zero threshold for order {k}", value)

    def lambda_for(self, k: int) -> float:
        return self._lookup(self.lambda_by_order, "penalty weight", k)

    def threshold_for(self, k: int) -> float:
        return self._lookup(self.threshold_by_order, "zero threshold", k)

    @staticmethod
    def _lookup(table, what, k):
        try:
            return table[k]
        except KeyError:
            raise ConfigurationError(f"schedule has no {what} for order {k}") from None


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
    column equilibration and a condition gate, by ``_factor_solve`` with
    zero weights on the one equilibrated, Fortran-ordered copy of
    ``gram``, a block of a system that ``gmp.normal_system`` checked
    finite; by Cauchy-Schwarz each equilibrated entry of ``rhs`` is at
    most ||x||, so none overflows."""
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
        solution = _factor_solve(system, rhs / scale, 0.0)
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(f"normal equations of {what} failed to factor: {exc}") from exc
    return solution / scale


def least_squares(S, x):
    """Unregularized complex least squares via the normal equations.

    Raises RankDeficiencyError when the (equilibrated) Gram matrix has a
    condition estimate above 1e12, naming the offending structure.
    """
    system = normal_system(S, x)
    return system.coefficients(_normal_solve(system.gram, system.rhs, _describe(system)))


# LAPACK ``zposv``, loaded at the first ridge solve: 5 ms and 2.5 MB for its
# extension alone, against 0.2 s, 27 MB and 300 modules for scipy.linalg.
_zposv = None


def _load_zposv():
    """``zposv`` of ``scipy.linalg._flapack``, which enters ``sys.modules`` without its package."""
    import scipy

    directory = os.path.join(scipy.__path__[0], "linalg")
    spec = PathFinder.find_spec("scipy.linalg._flapack", [directory])
    if spec is None:
        raise ImportError(f"scipy's LAPACK wrapper _flapack is not in {directory}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.zposv


def _factor_solve(system, rhs, weights):
    """Solve ``(system + diag(weights)) w = rhs`` by one LAPACK ``zposv``
    (``potrf`` then ``potrs`` on the upper triangle, the routines behind
    ``cho_factor``/``cho_solve``), which factors ``system`` in place.

    ``system`` is a Fortran-ordered complex array that the caller owns,
    ``rhs`` one column or several, and ``weights`` one per row or one
    for all.  This is the one call of ``zposv``: every least-squares
    fit, fold and l1 iterate solves here.  A diagonal that is not finite
    once the weights are on it, or a system that is not positive
    definite, raises RankDeficiencyError.
    """
    global _zposv
    if rhs.shape[0] == 0:
        return np.zeros(0, dtype=np.complex128)
    # Every (n + 1)-th element in memory order: the diagonal, as a view.
    diagonal = system.ravel(order="K")[:: system.shape[0] + 1]
    # A finite system and finite weights may still sum to inf; the one
    # caller whose weights can be that large, the l1 core, holds numpy's
    # overflow warnings off.
    diagonal += weights
    if not np.isfinite(diagonal).all():
        raise RankDeficiencyError("ridge system is not finite")
    if _zposv is None:
        _zposv = _load_zposv()
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

    The Gram was checked finite by ``gmp.normal_system``; ``rhs``, which
    the block descent forms, is checked once per call, a folded
    right-hand side once per fold, and the diagonal with the weights on
    every solve, so a weight that overflows to inf raises
    RankDeficiencyError there.

    A cut, or a folded coefficient that leaves the cap, takes the one
    rebuild: the ridge system of the survivors, gathered from ``gram``
    in the order of ``active``.  With ``zero_threshold`` above eps, as
    in every block of the block descent, no surviving modulus has the
    cap weight lam / (2 eps), so nothing folds and no iterate but a cut
    forms a mask.  At or below eps, as in the plain Lasso, every iterate
    marks the free columns at the cap; once they are at least half of
    the free ones, ``_fold`` eliminates them.  The folded coefficients
    are recovered from each later solve; while they keep the cap, the
    iterates solve the equations of the whole active set with the sums
    in another order.
    """
    n_col = rhs.shape[0]
    omega = np.zeros(n_col, dtype=np.complex128)
    # Zero is optimal whenever the penalty dominates every correlation.
    if lam >= 2.0 * float(np.abs(rhs).max()):
        return omega
    if not np.isfinite(rhs).all():
        raise RankDeficiencyError("right-hand side is not finite")
    eps = config.ridge_epsilon
    # A modulus at or above a zero threshold above eps never has the cap.
    folds = zero_threshold <= eps
    # ``system`` is the ridge system of the free columns active[:b.size];
    # the folded ones, active[b.size:], are eliminated from it and
    # recovered as u - V @ w from its solution w.  ``coef`` holds the
    # last iterate's coefficients in the order of ``active``.
    system, b = np.array(gram, dtype=np.complex128, order="F"), rhs
    u, V = np.zeros(0, dtype=np.complex128), np.zeros((0, n_col), dtype=np.complex128)
    active = np.arange(n_col)
    coef = np.zeros(n_col, dtype=np.complex128)
    work = np.empty_like(system)
    # Weights may overflow to inf, and the diagonals of the iterates and
    # the folds with them; the solve's diagonal check turns that into
    # RankDeficiencyError.
    with np.errstate(over="ignore", invalid="ignore"):
        if initial is not None and np.any(initial):
            start = np.abs(np.asarray(initial, dtype=np.complex128))
            weights = lam / (2.0 * np.maximum(start, max(zero_threshold, eps)))
        else:
            weights = np.full(n_col, lam / 2.0)
        cap = lam / (2.0 * eps)  # the weight of every modulus at or below eps
        for _ in range(config.inner_ridge_iterations):
            np.copyto(work, system)
            solved = _factor_solve(work, b, weights)
            if b.size < active.size:
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
            if cut or (folds and not (moduli[b.size :] <= eps).all()):
                # The one rebuild: the unfolded system of the survivors.
                keep = np.flatnonzero(moduli >= zero_threshold)
                active, coef, moduli = active[keep], coef[keep], moduli[keep]
                system = np.asfortranarray(gram.take(active, 0).take(active, 1))
                b = rhs[active]
                u, V = u[:0], np.zeros((0, active.size), dtype=np.complex128)
            if folds:
                fold = moduli[: b.size] <= eps
                # Fold once at least half of the free columns have the
                # cap, so that each fold at least halves the system: a
                # fold costs about one iterate's solve, and folding the
                # capped columns after every iterate measured slower on
                # both shipped structures.  With no free column left,
                # nothing folds.
                if 2 * np.count_nonzero(fold) >= b.size and fold.any():
                    order = np.concatenate(
                        [np.flatnonzero(~fold), np.arange(b.size, active.size), np.flatnonzero(fold)]
                    )
                    system, b, u, V = _fold(system, b, u, V, fold, cap)
                    active, coef, moduli = active[order], coef[order], moduli[order]
            if work.shape != system.shape:
                work = np.empty_like(system)
            weights = lam / (2.0 * np.maximum(moduli[: b.size], eps))

    omega[active] = coef
    floor = max(zero_threshold, 10.0 * config.inner_tolerance, eps)
    omega[np.abs(omega) <= floor] = 0.0
    return omega


def _fold(system, b, u, V, fold, cap):
    """Eliminate the rows marked in ``fold`` from the ridge system
    ``system w = b`` at the ridge weight ``cap``.

    With Sigma the folded block plus ``cap`` on its diagonal, the folded
    coefficients are ``Sigma^-1 (b_D - system_DK w_K)`` in the kept
    ones, which solve the Schur complement
    ``system_KK - system_KD Sigma^-1 system_DK`` against
    ``b_K - system_KD Sigma^-1 b_D``.  ``(u, V)`` recover the rows folded
    before from the solution of ``system``; the returned pair recovers
    those, then the newly folded ones, from the solution of the returned
    system.  A folded right-hand side that is not finite raises
    RankDeficiencyError.
    """
    keep, drop = np.flatnonzero(~fold), np.flatnonzero(fold)
    k = keep.size
    order = np.concatenate([keep, drop])
    # The kept and the dropped rows, in the columns of ``order``, gathered
    # through the transpose to keep the Fortran order, so that each block
    # is a contiguous slice.  Both are read: a folded system is Hermitian
    # only up to rounding.
    kept = system.T[np.ix_(order, keep)].T
    dropped = system.T[np.ix_(order, drop)].T
    schur, cross = kept[:, :k], kept[:, k:]
    solved = _factor_solve(dropped[:, k:], np.column_stack([dropped[:, :k], b[drop]]), cap)
    v_fold, u_fold = solved[:, :-1], solved[:, -1]
    schur -= (v_fold.T @ cross.T).T  # cross @ v_fold, in Fortran order
    b = b[keep] - cross @ u_fold
    if not np.isfinite(b).all():
        raise RankDeficiencyError("folded right-hand side is not finite")
    u = np.concatenate([u - V.take(drop, 1) @ u_fold, u_fold])
    V = np.vstack([V.take(keep, 1) - V.take(drop, 1) @ v_fold, v_fold])
    return schur, b, u, V


def lasso_iterated_ridge(S, x, lam, zero_threshold=0.0, config: BcdConfig = BcdConfig()):
    """Single-weight complex Lasso solved by iterated ridge regression,
    from uniform first weights."""
    _positive("lasso penalty", lam)
    _non_negative("zero_threshold", zero_threshold)
    system = normal_system(S, x)
    return system.coefficients(_lasso_core(system.gram, system.rhs, lam, zero_threshold, config))


@dataclass(frozen=True)
class FitRecord:
    """State after one outer block-descent iteration.

    ``objective`` is the residual power plus the l1 term weighted by the
    fit's schedule, which every sweep shares, and ``rejected_orders``
    lists the orders whose block update the descent rejected in this
    sweep because it did not lower the objective by more than rounding
    error.  A block whose solve returns it unchanged takes no step.
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

    # The columns of ``rows``, which head every written trace table.
    COLUMNS = ("iteration", "nmse_db", "kernel_count", "effective_memory_depth")

    records: tuple
    selected_index: int

    @property
    def selected(self) -> FitRecord:
        return self.records[self.selected_index]

    def rows(self):
        """One row of ``COLUMNS`` per record."""
        return [tuple(getattr(r, name) for name in self.COLUMNS) for r in self.records]


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
    orders = system.structure.orders
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
            if np.array_equal(w_new, w_old):
                continue
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
        # np.maximum keeps a NaN, where max() may drop it.
        return float(np.maximum(self.max_violation_active, self.max_violation_inactive))


def kkt_check(S, x, coeffs, schedule) -> KktReport:
    """Evaluate the Lasso stationarity conditions for a solution.

    ``schedule`` may be a RegularizationSchedule (kernel matrices only),
    a scalar penalty, or one penalty per column.  The correlation
    ``2 S^H (x - S w)`` is formed from the normal equations as
    ``2 (S^H x - S^H S w)``, with no pass over the N samples.  A
    solution that is not finite raises ConfigurationError.
    """
    system = normal_system(S, x)
    n_cols = system.rhs.shape[0]
    values = coeffs.values if isinstance(coeffs, CoefficientVector) else np.asarray(coeffs)
    if values.shape != (n_cols,):
        raise DimensionError(f"solution has {values.shape} entries for {n_cols} columns")
    if not np.isfinite(values).all():
        raise ConfigurationError("solution must be finite")
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

    # S^H S w may overflow for a finite system and solution; the NaN
    # slack that follows is reported below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        correlation = 2.0 * (system.rhs - system.gram @ values)
    active = values != 0
    phases = values[active] / np.abs(values[active])
    max_active = np.max(np.abs(correlation[active] - lam[active] * phases), initial=0.0)
    # np.max keeps a NaN slack, such as an overflowing S^H S w gives,
    # which must not read as no violation.
    max_inactive = np.max(np.abs(correlation[~active]) - lam[~active], initial=0.0)
    return KktReport(float(max_active), float(max_inactive))
