"""Independent oracles used across the test suite.

Everything here is written from the domain definitions alone, with plain
Python loops and none of the package's vectorized shortcuts, so the
implementations under test can be checked against a second opinion.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from dpdkit.gmp import normal_system
from dpdkit.solver import _lasso_core


def naive_kernel_matrix(samples, structure):
    """Triple-loop kernel matrix in canonical column order.

    Builds every column straight from the definition: the carrier sample
    is s(n-l) and the envelope is taken at n-l (aligned), n-l-m (lagging)
    or n-l+m (leading), with s treated as zero outside its support.
    """
    s = np.asarray(samples, dtype=np.complex128)
    n_samples = s.shape[0]

    def sample(i):
        if 0 <= i < n_samples:
            return s[i]
        return 0.0 + 0.0j

    columns = []
    for k in structure.aligned_orders:
        for l in structure.aligned_lags:
            columns.append(("aligned", k, l, None))
    for k in structure.lagging_orders:
        for l in structure.lagging_lags:
            for m in structure.lagging_cross:
                columns.append(("lagging", k, l, m))
    for k in structure.leading_orders:
        for l in structure.leading_lags:
            for m in structure.leading_cross:
                columns.append(("leading", k, l, m))

    matrix = np.zeros((n_samples, len(columns)), dtype=np.complex128)
    for j, (branch, k, l, m) in enumerate(columns):
        for n in range(n_samples):
            carrier = sample(n - l)
            if branch == "aligned":
                envelope = abs(sample(n - l))
            elif branch == "lagging":
                envelope = abs(sample(n - l - m))
            else:
                envelope = abs(sample(n - l + m))
            matrix[n, j] = carrier * envelope**k
    return matrix, columns


def lasso_objective(matrix, target, coefficients, lam):
    """The uniform-penalty objective: squared residual plus lam * l1."""
    w = np.asarray(coefficients, dtype=np.complex128)
    residual = np.asarray(target, dtype=np.complex128) - np.asarray(matrix) @ w
    return float(np.sum(np.abs(residual) ** 2) + lam * np.sum(np.abs(w)))


def block_objective(matrix, target, coefficients, lambda_by_column):
    """Blockwise-weighted objective: squared residual plus per-column l1."""
    w = np.asarray(coefficients, dtype=np.complex128)
    lams = np.asarray(lambda_by_column, dtype=float)
    residual = np.asarray(target, dtype=np.complex128) - np.asarray(matrix) @ w
    return float(np.sum(np.abs(residual) ** 2) + np.sum(lams * np.abs(w)))


def soft_threshold_solution(matrix, target, lam):
    """Closed-form minimizer for an orthonormal design.

    With S^H S = I the problem separates per coordinate and the answer is
    the complex soft threshold of c = S^H x at lam / 2.
    """
    c = np.conj(np.asarray(matrix)).T @ np.asarray(target, dtype=np.complex128)
    mags = np.abs(c)
    shrink = np.maximum(0.0, 1.0 - lam / (2.0 * np.maximum(mags, 1e-300)))
    return shrink * c


def grid_search_lasso(matrix, target, lam, stages=6, points=11):
    """Dense real-axis grid search for the uniform-penalty objective.

    Starts from a box around the origin wide enough to contain the
    unregularized solution, then repeatedly zooms into the best grid
    point. Only sensible for P <= 4 real-valued problems.
    """
    S = np.asarray(matrix, dtype=float)
    x = np.asarray(target, dtype=float)
    n_coef = S.shape[1]
    ls, *_ = np.linalg.lstsq(S, x, rcond=None)
    radius = float(np.max(np.abs(ls))) + 1.0
    centers = np.zeros(n_coef)

    best_value = None
    best_point = None
    for _ in range(stages):
        axes = [np.linspace(c - radius, c + radius, points) for c in centers]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        residual = x[None, :] - grid @ S.T
        values = np.sum(residual**2, axis=1) + lam * np.sum(np.abs(grid), axis=1)
        at = int(np.argmin(values))
        best_value = float(values[at])
        best_point = grid[at]
        centers = best_point
        radius = radius * 2.0 / (points - 1) * 1.5
    return best_value, best_point


def ladder_tables(max_order=14):
    """The tabulated penalty ladder, rebuilt by its own recurrence."""
    lam = {0: 1e-4}
    tau = {0: 0.17}
    for k in range(2, max_order + 2, 2):
        ratio = 2.0 if k >= 10 else 1.35
        lam[k] = lam[k - 2] * ratio
        tau[k] = tau[k - 2] * ratio
    return lam, tau


def residual_domain_block_lasso(matrix, target, schedule, config):
    """Block coordinate descent carried on the N-sample residual.

    The reference for the block-weighted solver, which works on the
    normal equations instead. Each order block is copied out of the
    kernel matrix and its subproblem is solved by the package's Lasso
    core on the normal equations of that plain block against the
    residual plus the block's own contribution, seeded from the block's
    previous coefficients; the update is kept only when the residual
    power plus the block's weighted l1 term strictly falls. Returns
    (records, selected): the coefficient array after each sweep and the
    index of the record with the lowest residual power.
    """
    data = matrix.data
    x = np.asarray(target, dtype=np.complex128)
    orders = sorted({d.order_exponent for d in matrix.columns})
    blocks = {
        k: np.array([j for j, d in enumerate(matrix.columns) if d.order_exponent == k])
        for k in orders
    }
    omega = np.zeros(data.shape[1], dtype=np.complex128)
    residual = x.copy()
    records, powers = [], []
    for _ in range(config.outer_iterations):
        for k in orders:
            cols = blocks[k]
            lam = schedule.lambda_for(k)
            sub = data[:, cols]
            w_old = omega[cols]
            block_target = residual + sub @ w_old
            system = normal_system(sub, block_target)
            w_new = _lasso_core(
                system.gram, system.rhs, lam, schedule.threshold_for(k), config, initial=w_old
            )
            new_residual = block_target - sub @ w_new
            before = np.sum(np.abs(residual) ** 2) + lam * np.sum(np.abs(w_old))
            after = np.sum(np.abs(new_residual) ** 2) + lam * np.sum(np.abs(w_new))
            if after < before:
                omega[cols] = w_new
                residual = new_residual
        records.append(omega.copy())
        powers.append(float(np.sum(np.abs(residual) ** 2)))
    return records, int(np.argmin(powers))


def cholesky_ridge_solve(gram, rhs, weights):
    """Ridge system ``(gram + diag(weights)) w = rhs`` through SciPy's
    Cholesky wrappers.

    The reference for the solver's direct LAPACK ridge solve: the same
    factorization (upper-triangular ``potrf``, then ``potrs``) reached
    through ``cho_factor``/``cho_solve`` on a freshly assembled system.
    """
    factor = scipy.linalg.cho_factor(gram + np.diag(weights))
    return scipy.linalg.cho_solve(factor, rhs)


def gathered_lasso_core(gram, rhs, lam, zero_threshold, config):
    """Iterated ridge regression that cuts each iterate's ridge system
    out of the original Gram by index.

    The reference for the solver's Lasso core, which keeps the active
    set's Gram, cuts it down when coefficients leave the active set and
    folds out the columns at the cap weight: here every iterate gathers
    ``gram`` and ``rhs`` at the active indices afresh, from uniform
    first weights lam/2, and solves the whole active set's system
    through ``cholesky_ridge_solve``.
    """
    n_col = rhs.shape[0]
    omega = np.zeros(n_col, dtype=np.complex128)
    if n_col == 0 or lam >= 2.0 * float(np.max(np.abs(rhs))):
        return omega
    eps = config.ridge_epsilon
    weights = np.full(n_col, lam / 2.0)
    active = np.arange(n_col)
    for _ in range(config.inner_ridge_iterations):
        solved = cholesky_ridge_solve(gram[np.ix_(active, active)], rhs[active], weights)
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
