"""Generalized memory-polynomial model: structure, regressors, evaluation.

A model term (kernel) multiplies a delayed copy of the signal with an
integer power of the envelope taken at the same delay (aligned), at an
extra lag (lagging cross-term), or at an extra lead (leading
cross-term):

    aligned  (k, l):    s(n-l) |s(n-l)|^k
    lagging  (k, l, m): s(n-l) |s(n-l-m)|^k
    leading  (k, l, m): s(n-l) |s(n-l+m)|^k

Samples outside the observation window are treated as zero.  Kernel
order is ``k + 1`` with even ``k``, so the model contains odd-order
terms only.  Columns of a kernel matrix follow the canonical ordering:
aligned terms sorted by (k, l), then lagging by (k, l, m), then leading
by (k, l, m).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import enum
from functools import cached_property
import math
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, DimensionError, DivergenceError, FormatError
from .signal import IqSignal, _power


class Branch(enum.Enum):
    ALIGNED = "aligned"
    LAGGING = "lagging"
    LEADING = "leading"


@dataclass(frozen=True, order=True)
class KernelDescriptor:
    """Identity of one model term.

    ``envelope_offset`` is the cross-term distance m; it is None for
    aligned terms.
    """

    branch: Branch
    order_exponent: int  # k, the even envelope power
    lag: int             # l, the carrier delay
    envelope_offset: int | None = None  # m, None on the aligned branch

    def __post_init__(self):
        if self.order_exponent < 0 or self.order_exponent % 2 != 0:
            raise ConfigurationError(
                f"envelope power must be even and non-negative, got {self.order_exponent}"
            )
        if self.lag < 0:
            raise ConfigurationError(f"lag must be non-negative, got {self.lag}")
        if self.branch is Branch.ALIGNED:
            if self.envelope_offset is not None:
                raise ConfigurationError("aligned kernels take no envelope offset")
        else:
            if self.envelope_offset is None or self.envelope_offset < 1:
                raise ConfigurationError(
                    f"{self.branch.value} kernels need envelope offset >= 1"
                )

    @property
    def deepest_sample(self) -> int:
        """Deepest past-sample index this kernel touches."""
        if self.branch is Branch.LAGGING:
            return self.lag + self.envelope_offset
        return self.lag


def _clean_axis(name, values, minimum):
    out = tuple(sorted(int(v) for v in values))
    if len(set(out)) != len(out):
        raise ConfigurationError(f"{name} contains duplicates: {values}")
    for v in out:
        if v < minimum:
            raise ConfigurationError(f"{name} entries must be >= {minimum}, got {v}")
    return out


def _clean_orders(name, values):
    out = _clean_axis(name, values, 0)
    for v in out:
        if v % 2 != 0:
            raise ConfigurationError(f"{name} entries must be even, got {v}")
    return out


@dataclass(frozen=True)
class GmpStructure:
    """Index sets of a generalized memory-polynomial model.

    A branch with an empty cross-offset set contributes no kernels, so
    its order and lag sets are irrelevant.
    """

    aligned_orders: tuple
    aligned_lags: tuple
    lagging_orders: tuple = ()
    lagging_lags: tuple = ()
    lagging_cross: tuple = ()
    leading_orders: tuple = ()
    leading_lags: tuple = ()
    leading_cross: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "aligned_orders", _clean_orders("aligned_orders", self.aligned_orders))
        object.__setattr__(self, "aligned_lags", _clean_axis("aligned_lags", self.aligned_lags, 0))
        object.__setattr__(self, "lagging_orders", _clean_orders("lagging_orders", self.lagging_orders))
        object.__setattr__(self, "lagging_lags", _clean_axis("lagging_lags", self.lagging_lags, 0))
        object.__setattr__(self, "lagging_cross", _clean_axis("lagging_cross", self.lagging_cross, 1))
        object.__setattr__(self, "leading_orders", _clean_orders("leading_orders", self.leading_orders))
        object.__setattr__(self, "leading_lags", _clean_axis("leading_lags", self.leading_lags, 0))
        object.__setattr__(self, "leading_cross", _clean_axis("leading_cross", self.leading_cross, 1))

    @property
    def kernel_count(self) -> int:
        return (
            len(self.aligned_orders) * len(self.aligned_lags)
            + len(self.lagging_orders) * len(self.lagging_lags) * len(self.lagging_cross)
            + len(self.leading_orders) * len(self.leading_lags) * len(self.leading_cross)
        )

    @property
    def orders(self) -> tuple:
        """All envelope powers present in any populated branch."""
        present = set(self.aligned_orders) if self.aligned_lags else set()
        if self.lagging_cross:
            present |= set(self.lagging_orders)
        if self.leading_cross:
            present |= set(self.leading_orders)
        return tuple(sorted(present))

    def descriptors(self) -> tuple:
        """All kernels in canonical column order, built once per structure."""
        return self._descriptors

    @cached_property
    def _descriptors(self) -> tuple:
        out = []
        for k in self.aligned_orders:
            for l in self.aligned_lags:
                out.append(KernelDescriptor(Branch.ALIGNED, k, l))
        for k in self.lagging_orders:
            for l in self.lagging_lags:
                for m in self.lagging_cross:
                    out.append(KernelDescriptor(Branch.LAGGING, k, l, m))
        for k in self.leading_orders:
            for l in self.leading_lags:
                for m in self.leading_cross:
                    out.append(KernelDescriptor(Branch.LEADING, k, l, m))
        return tuple(out)


def full_structure(
    memory_depth: int,
    max_order: int,
    lagging_depth: int = 0,
    include_leading: bool = False,
    leading_depth: int = 0,
) -> GmpStructure:
    """Dense structure with every lag 0..memory_depth populated.

    The aligned branch carries all even envelope powers below
    ``max_order`` (odd); cross branches drop the memoryless power k=0,
    whose kernels would duplicate aligned ones at shifted lags.
    """
    if memory_depth < 0:
        raise ConfigurationError(f"memory_depth must be >= 0, got {memory_depth}")
    if max_order < 1 or max_order % 2 == 0:
        raise ConfigurationError(f"max_order must be odd and >= 1, got {max_order}")
    if lagging_depth < 0:
        raise ConfigurationError(f"lagging_depth must be >= 0, got {lagging_depth}")
    if include_leading and leading_depth < 1:
        raise ConfigurationError(
            f"leading_depth must be >= 1 when the leading branch is enabled, got {leading_depth}"
        )
    if not include_leading and leading_depth != 0:
        raise ConfigurationError(
            f"leading_depth = {leading_depth} needs include_leading = true; "
            "with the leading branch off leave leading_depth at 0"
        )
    lags = tuple(range(memory_depth + 1))
    aligned_orders = tuple(range(0, max_order, 2))
    cross_orders = tuple(range(2, max_order, 2))
    lagging = tuple(range(1, lagging_depth + 1))
    leading = tuple(range(1, leading_depth + 1)) if include_leading else ()
    return GmpStructure(
        aligned_orders=aligned_orders,
        aligned_lags=lags,
        lagging_orders=cross_orders if lagging else (),
        lagging_lags=lags if lagging else (),
        lagging_cross=lagging,
        leading_orders=cross_orders if leading else (),
        leading_lags=lags if leading else (),
        leading_cross=leading,
    )


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Coefficients over a structure, in canonical column order."""

    structure: GmpStructure
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.complex128, copy=True)
        if arr.ndim != 1:
            raise DimensionError(f"coefficients must be 1-D, got shape {arr.shape}")
        expected = self.structure.kernel_count
        if arr.size != expected:
            raise DimensionError(
                f"structure has {expected} kernels but got {arr.size} coefficients"
            )
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ConfigurationError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self):
        return self.values.size

    def support(self, threshold: float = 0.0) -> np.ndarray:
        """Indices of coefficients with modulus above ``threshold``."""
        return np.flatnonzero(np.abs(self.values) > threshold)


def kernel_count(coeffs: CoefficientVector, threshold: float = 0.0) -> int:
    """Number of active kernels (modulus strictly above threshold)."""
    return int(np.count_nonzero(np.abs(coeffs.values) > threshold))


def effective_memory_depth(coeffs: CoefficientVector, threshold: float = 0.0) -> int:
    """Deepest past-sample index touched by any active kernel, -1 if none.

    Lagging kernels reach back ``l + m`` samples through their envelope
    factor; aligned and leading kernels reach back ``l``.
    """
    active = coeffs.support(threshold)
    descriptors = coeffs.structure.descriptors()
    if active.size == 0:
        return -1
    return max(descriptors[j].deepest_sample for j in active)


def max_memory_lag(coeffs: CoefficientVector, threshold: float = 0.0) -> int:
    """Largest carrier delay l among active kernels, -1 if none."""
    active = coeffs.support(threshold)
    descriptors = coeffs.structure.descriptors()
    if active.size == 0:
        return -1
    return max(descriptors[j].lag for j in active)


# Rows per block of every pass over the base sequences: the normal
# equations, ``data`` and ``apply_model``.  4096 samples of the 15 base
# sequences of the 300-kernel wideband structure take 1.0 MB.  ``data``
# is the same bit for bit at any block size; the sums of the normal
# equations and the lag-grouped BLAS products of ``apply_model`` need not be.
ROW_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Regressor matrix of a structure evaluated on a source signal.

    The matrix has one column per kernel of ``structure``, in canonical
    order (``columns``).  When warm-up rows are dropped, ``row_offset``
    records how many leading samples of the source are excluded and the
    matrix has correspondingly fewer rows.

    Only the source samples are stored.  Every column is a delayed copy
    ``psi_b(n - l)`` of one of a few base sequences
    ``psi_b(q) = s(q) |s(q -+ m)|^k``, one per (branch, k, m): 15 bases
    carry the 300 columns of the wideband structure.  The envelope
    powers are powers of ``|s|^2`` (``_base_block``).  The normal
    equations (``normal_system``), the whole matrix (``data``) and the
    model output of ``apply_model`` are all cut from blocks of
    ``ROW_CHUNK`` samples of the bases (``_base_blocks``).  The normal
    equations take N * B * P work rather than N * P^2, and memory that
    grows with the block and with P^2, not with N * P.  ``apply_model``
    adds one B-vector product per lag and block, so its output is within
    rounding of ``data @ w`` over the support, not bit for bit the
    column sum.  The matrix
    caches one ``NormalSystem``, for the last target it was asked
    about.  ``data``, the whole N x P matrix, is formed only when a
    caller reads it; no fit reads it.
    """

    samples: np.ndarray
    structure: GmpStructure
    row_offset: int = 0

    @cached_property
    def columns(self) -> tuple:
        """The kernel of each column, in canonical order."""
        return self.structure.descriptors()

    @property
    def source_length(self) -> int:
        return self.samples.size

    @property
    def shape(self) -> tuple:
        return (self.samples.size - self.row_offset, len(self.columns))

    @cached_property
    def data(self) -> np.ndarray:
        """The whole matrix, read-only, cut from blocks of the base
        sequences on first use: column j of a block is its base at its
        lag, the slice ``apply_model`` adds."""
        bases, base, lag = _bases_of(self.columns)
        shifts = (lag.max() - lag).tolist()
        data = np.empty(self.shape, dtype=np.complex128)
        for start, stop, psi in _base_blocks(
            self.samples, bases, lag, self.row_offset, self.shape[0]
        ):
            for j, (b, at) in enumerate(zip(base.tolist(), shifts)):
                data[start:stop, j] = psi[b, at : at + stop - start]
            del psi
        data.setflags(write=False)
        return data


@dataclass(frozen=True, eq=False)
class NormalSystem:
    """The normal equations ``S^H S w = S^H x`` of a design and a target.

    ``gram`` is ``S^H S`` and ``rhs`` is ``S^H x``, both read-only, and
    ``target_power`` is ``||x||^2``.  ``structure`` is the structure of
    a ``KernelMatrix`` design, whose columns are its kernels in
    canonical order, and None for a plain matrix.  A fit needs nothing
    else of the N samples.
    """

    gram: np.ndarray
    rhs: np.ndarray
    target_power: float
    structure: GmpStructure | None

    def coefficients(self, values: np.ndarray):
        """``values`` as a ``CoefficientVector`` of ``structure``, or the
        bare array for a plain matrix."""
        return values if self.structure is None else CoefficientVector(self.structure, values)


def normal_system(design, target) -> NormalSystem:
    """The ``NormalSystem`` of a design and a target.

    ``design`` is a ``KernelMatrix`` or a plain 2-D complex matrix, and
    ``target`` an ``IqSignal`` or a 1-D array with one sample per row.
    The target of a ``KernelMatrix`` that dropped warm-up rows may also
    span the whole source; its first ``row_offset`` samples are then
    cut.  The Gram is a new C-ordered array, exactly Hermitian with an
    exactly real diagonal.

    A ``KernelMatrix`` forms its system from blocks of its base
    sequences in one pass (``_kernel_normal_equations``) and caches it
    for the last target, compared by content: the fits that follow on
    one matrix and one target share it, and a new target takes a pass
    of its own.  A plain matrix forms its system on each call.  Its Gram
    is one BLAS ``zherk`` on the Fortran-ordered view ``S.T``, which
    fills the upper triangle of ``conj(S^H S)``: the transpose holds the
    lower triangle of ``S^H S``, and the strict upper triangle is
    mirrored from it.  With ``S^H x = conj(x^H S)``, no conjugate copy
    of ``S`` is made.
    """
    km = design if isinstance(design, KernelMatrix) else None
    if km is None:
        design = np.asarray(design, dtype=np.complex128)
        if design.ndim != 2:
            raise DimensionError(f"design matrix must be 2-D, got shape {design.shape}")
    x = target.samples if isinstance(target, IqSignal) else np.asarray(target, dtype=np.complex128)
    if x.ndim != 1:
        raise DimensionError(f"target must be 1-D, got shape {x.shape}")
    if km is not None and km.row_offset and x.size == km.source_length:
        x = x[km.row_offset :]
    if x.size != design.shape[0]:
        raise DimensionError(f"target has {x.size} samples but design has {design.shape[0]} rows")
    if km is not None:
        last = vars(km).get("_normal_system")
        if last is not None and np.array_equal(last[0], x):
            return last[1]
    # An overflowing design or target gives a system that is not finite,
    # which the solvers reject, with no numpy warning on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        if km is not None:
            gram, rhs = _kernel_normal_equations(km, x)
        else:
            n_rows, n_cols = design.shape
            rhs = (x.conj() @ design).conj()
            if not (n_rows and n_cols):
                # OpenBLAS rejects a rank-0 update.
                gram = np.zeros((n_cols, n_cols), dtype=np.complex128)
            else:
                gram = scipy.linalg.blas.zherk(1.0, design.T, trans=0).T
                mirror = np.triu_indices(n_cols, 1)
                gram[mirror] = gram.T[mirror].conj()
    gram.setflags(write=False)
    rhs.setflags(write=False)
    system = NormalSystem(gram, rhs, _power(x), None if km is None else km.structure)
    if km is not None:
        vars(km)["_normal_system"] = (np.array(x, dtype=np.complex128), system)
    return system


def _bases_of(descriptors) -> tuple:
    """``(bases, base, lag)`` of a list of kernel columns.

    Column j is the base sequence ``bases[base[j]]``, a lag-0
    descriptor, delayed by ``lag[j]`` samples.  Bases are listed in the
    order of their first column.
    """
    index = {}
    for d in descriptors:
        index.setdefault((d.branch, d.order_exponent, d.envelope_offset), len(index))
    base = [index[(d.branch, d.order_exponent, d.envelope_offset)] for d in descriptors]
    lag = [d.lag for d in descriptors]
    bases = tuple(KernelDescriptor(branch, k, 0, m) for branch, k, m in index)
    return bases, np.array(base, dtype=np.intp), np.array(lag, dtype=np.intp)


def _base_block(samples, bases, first: int, count: int) -> np.ndarray:
    """``psi_b(q)`` for q = first .. first + count - 1, one row per base,
    zero outside the source.

    Every carrier and envelope factor is a slice of one zero-padded
    window of the samples, widened by the longest lagging offset behind
    the positions and by the longest leading offset ahead of them.  Each
    even envelope power is taken once over the whole window, as a power
    of ``|s|^2 = re^2 + im^2``: ``|s|^k`` is the product of k/2 copies,
    with no square root and no ``pow``.  A base of power 0 is the carrier
    itself, on every branch.
    """
    behind = max([d.envelope_offset for d in bases if d.branch is Branch.LAGGING] + [0])
    ahead = max([d.envelope_offset for d in bases if d.branch is Branch.LEADING] + [0])
    lo, hi = first - behind, first + count + ahead
    window = np.zeros(hi - lo, dtype=np.complex128)
    src_lo, src_hi = max(lo, 0), min(hi, samples.size)
    if src_hi > src_lo:
        window[src_lo - lo : src_hi - lo] = samples[src_lo:src_hi]
    squared = window.real**2 + window.imag**2
    # powers[i] is |s|^(2 i) over the window, built up as far as a base needs.
    powers = [None, squared]
    carrier = window[behind : behind + count]
    block = np.empty((len(bases), count), dtype=np.complex128)
    for b, desc in enumerate(bases):
        k = desc.order_exponent
        if k == 0:
            block[b] = carrier
            continue
        if desc.branch is Branch.ALIGNED:
            env_at = behind
        elif desc.branch is Branch.LAGGING:
            env_at = behind - desc.envelope_offset
        else:
            env_at = behind + desc.envelope_offset
        while len(powers) <= k // 2:
            powers.append(powers[-1] * squared)
        np.multiply(carrier, powers[k // 2][env_at : env_at + count], out=block[b])
    return block


def _base_blocks(samples, bases, lag, first: int, n_rows: int):
    """``(start, stop, psi)`` for each ``ROW_CHUNK``-row block of the
    rows ``first .. first + n_rows - 1`` of columns at the lags ``lag``.

    ``psi`` holds the bases over the block widened by the lag span:
    ``psi[:, i]`` is ``psi(first + start - max(lag) + i)``, so the column
    of base b at lag l is ``psi[b, max(lag) - l :]`` cut to
    ``stop - start`` samples.  Only one block exists at a time if the
    caller drops each before asking for the next.
    """
    lo, hi = int(np.min(lag)), int(np.max(lag))
    for start in range(0, n_rows, ROW_CHUNK):
        stop = min(start + ROW_CHUNK, n_rows)
        yield start, stop, _base_block(samples, bases, first + start - hi, stop - start + hi - lo)


def _kernel_normal_equations(km, target) -> tuple:
    """``(S^H S, S^H x)`` of a ``KernelMatrix``, from its base sequences.

    Row n of column (b, l) is ``psi_b(n - l)`` for n from ``row_offset``
    to N - 1, so in terms of q = n - l1, with d = l2 - l1 >= 0,

        S^H S[(b1, l1), (b2, l2)] = sum of conj(psi_b1(q)) psi_b2(q - d)
                                    over q in [row_offset - l1, N - l1)
        S^H x[(b, l)]             = sum of conj(psi_b(q)) x(q + l)

    with x zero outside its rows.  Entries with d < 0 are the conjugate
    mirror.  The window of q depends on l1 only through its ends, so
    the q axis is cut at every window end into segments, each inside or
    outside each window.  One pass over ``ROW_CHUNK``-sample blocks of
    the bases, widened by the lag span D, adds one B x B product per
    segment piece and per lag difference d; each Gram entry then sums
    the products of the segments inside its window.  Every term of an
    entry is a term of the column product, and no term is added and
    taken off again, so the summation error stays within that of the
    column product.  ``S^H x`` takes one B-vector product per lag and
    block.  Only blocks of the bases exist at any time.
    """
    n_cols = len(km.columns)
    bases, base, lag = _bases_of(km.columns)
    lags = np.unique(lag)
    lo, hi = int(lags[0]), int(lags[-1])
    span = hi - lo
    diffs = np.unique(lags[None, :] - lags[:, None])
    diffs = diffs[diffs >= 0]
    first, end = km.row_offset, km.source_length
    q_lo = max(first - hi, 0)
    q_hi = max(end - lo, q_lo)
    ends = {min(max(e, q_lo), q_hi) for l in lags.tolist() for e in (first - l, end - l)}
    cuts = sorted(ends | {q_lo, q_hi})
    # (start, stop, inside): inside[i] tells whether lag lags[i] sees q
    # in start..stop-1.
    segments = [
        (start, stop, [first - l <= start and stop <= end - l for l in lags.tolist()])
        for start, stop in zip(cuts, cuts[1:])
    ]
    segments = [segment for segment in segments if any(segment[2])]
    n_bases = len(bases)
    products = np.zeros((len(segments), diffs.size, n_bases, n_bases), dtype=np.complex128)
    correlation = np.zeros((n_bases, lags.size), dtype=np.complex128)
    # The bases delayed by each lag difference d, over blocks of q.
    for block_start, block_stop, psi in _base_blocks(km.samples, bases, diffs, q_lo, q_hi - q_lo):
        q0, count = q_lo + block_start, block_stop - block_start
        # psi[:, i] is psi(q0 - span + i) and head[:, i] is conj(psi(q0 + i)),
        # conjugated row by row: a ufunc on the strided block would take
        # a 128 kB buffer.
        head = np.empty((n_bases, count), dtype=np.complex128)
        for b in range(n_bases):
            np.conjugate(psi[b, span:], out=head[b])
        for s, (start, stop, _) in enumerate(segments):
            # This block's piece of the segment, as indices into head.
            i0, i1 = max(start, q0) - q0, min(stop, q0 + count) - q0
            if i0 >= i1:
                continue
            for t, d in enumerate(diffs.tolist()):
                products[s, t] += head[:, i0:i1] @ psi[:, i0 + span - d : i1 + span - d].T
        # shifted[i] is x(q0 + lo + i), zero outside the matrix rows.
        shifted = np.zeros(count + span, dtype=np.complex128)
        n_lo, n_hi = max(q0 + lo, first), min(q0 + lo + count + span, end)
        if n_hi > n_lo:
            shifted[n_lo - q0 - lo : n_hi - q0 - lo] = target[n_lo - first : n_hi - first]
        for i, l in enumerate(lags.tolist()):
            correlation[:, i] += head @ shifted[l - lo : l - lo + count]
        del psi, head
    rhs = correlation[base, np.searchsorted(lags, lag)]
    # by_lag[i, t]: the products over the window of lag lags[i].
    by_lag = np.zeros((lags.size, diffs.size, n_bases, n_bases), dtype=np.complex128)
    for s, (_, _, inside) in enumerate(segments):
        by_lag[np.flatnonzero(inside)] += products[s]
    # Lower triangle, each entry read with its shallower column first.
    rows, columns = np.tril_indices(n_cols)
    forward = lag[columns] >= lag[rows]
    a = np.where(forward, rows, columns)
    b = np.where(forward, columns, rows)
    values = by_lag[
        np.searchsorted(lags, lag[a]), np.searchsorted(diffs, lag[b] - lag[a]), base[a], base[b]
    ]
    values = np.where(forward, values, values.conj())
    result = np.empty((n_cols, n_cols), dtype=np.complex128)
    result[columns, rows] = values.conj()
    result[rows, columns] = values
    diagonal = np.arange(n_cols)
    result[diagonal, diagonal] = result[diagonal, diagonal].real
    return result, rhs


def _signal_samples(signal) -> np.ndarray:
    if isinstance(signal, IqSignal):
        return signal.samples
    arr = np.asarray(signal, dtype=np.complex128)
    if arr.ndim != 1:
        raise DimensionError(f"signal must be 1-D, got shape {arr.shape}")
    return arr


def build_kernel_matrix(
    signal, structure: GmpStructure, drop_warmup: bool = False
) -> KernelMatrix:
    """The kernel matrix of ``structure`` on ``signal``.

    No column is evaluated here: the returned ``KernelMatrix`` keeps a
    read-only copy of the samples, and its consumers evaluate blocks of
    the base sequences as they need them.  With ``drop_warmup`` the rows
    whose kernels would reach before the first sample are removed
    instead of zero padded.
    """
    samples = _signal_samples(signal)
    descriptors = structure.descriptors()
    if not descriptors:
        raise ConfigurationError("structure contains no kernels")
    if not isinstance(signal, IqSignal):
        samples = samples.copy()
        samples.setflags(write=False)
    offset = 0
    if drop_warmup:
        offset = max(d.deepest_sample for d in descriptors)
        if offset >= samples.size:
            raise DimensionError(
                f"signal of {samples.size} samples too short to drop {offset} warm-up rows"
            )
    return KernelMatrix(samples=samples, structure=structure, row_offset=offset)


def apply_model(signal, coeffs: CoefficientVector) -> IqSignal:
    """Synthesize the model output ``sum over the support of c_j S[:, j]``.

    Only the support is evaluated, so sparse models cost proportionally
    less than a full kernel-matrix product.  Every column is a delayed
    base sequence (see ``KernelMatrix``): each ``ROW_CHUNK``-sample block
    of the output evaluates the support's bases once, over the block
    widened by the support's lag span, and then adds one term per
    distinct lag l, in increasing l.  A lag that carries several bases
    adds the BLAS vector-matrix product ``row_l @ psi(n - l)``, where
    ``row_l`` holds that lag's coefficients over all the support's
    bases, zero where a base is absent at l.  A lag with a single base
    adds ``c psi_b(n - l)``, so a one-term model is exactly ``c s``.

    The output is therefore not bit for bit the column sum: each sample
    is within a few rounding errors of it, and its bits may change with
    ``ROW_CHUNK`` and with the BLAS build.  An output that leaves the
    floating-point range raises DivergenceError, with no numpy warning
    on the way.  The returned signal takes the new array as it is, with
    no copy and no second scan.
    """
    samples = _signal_samples(signal)
    support = coeffs.support()
    out = np.zeros(samples.size, dtype=np.complex128)
    if support.size:
        descriptors = coeffs.structure.descriptors()
        bases, base, lag = _bases_of([descriptors[j] for j in support])
        values = coeffs.values[support]
        lags, at = np.unique(lag, return_inverse=True)
        rows = np.zeros((lags.size, len(bases)), dtype=np.complex128)
        rows[at, base] = values
        # Per lag: its offset into a block of the bases, then its base and
        # coefficient if it carries a single base, else None and its row.
        terms = []
        for i, shift in enumerate((lags[-1] - lags).tolist()):
            present = np.flatnonzero(at == i)
            if present.size == 1:
                terms.append((shift, int(base[present[0]]), values[present[0]]))
            else:
                terms.append((shift, None, rows[i]))
        term = np.empty(min(ROW_CHUNK, samples.size), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for start, stop, psi in _base_blocks(samples, bases, lag, 0, samples.size):
                n = stop - start
                block, part = out[start:stop], term[:n]
                for shift, b, c in terms:
                    if b is None:
                        np.matmul(c, psi[:, shift : shift + n], out=part)
                    else:
                        np.multiply(c, psi[b, shift : shift + n], out=part)
                    block += part
                del psi
        if not np.isfinite(out).all():
            raise DivergenceError("model output is not finite: the input overflows the model")
    rate = signal.sample_rate_hz if isinstance(signal, IqSignal) else 1.0
    return IqSignal._own(out, rate)


# ---------------------------------------------------------------------------
# Coefficient file format: line-oriented ASCII text.  A ``format = <tag>``
# header, the extra headers of that tag, and the structure axes as
# ``key = value`` headers come first; after a ``[coefficients]`` marker
# follows one whitespace-separated record per kernel: branch, k, l, m
# (``-`` on the aligned branch), real part, imaginary part.  ``#`` starts
# a comment.  Coefficient files (``gmp-coeff/1``) and amplifier models
# (``pa-model/1``, see ``pa_sim``) share this layout.

_COEFF_FORMAT_TAG = "gmp-coeff/1"

_AXIS_KEYS = tuple(f.name for f in fields(GmpStructure))


def write_coefficient_file(
    path, tag, coeffs: CoefficientVector, headers=(), include_zeros=False, comment=None
) -> None:
    """Write ``coeffs`` in the layout of format ``tag``.

    ``headers`` are extra ``(key, value)`` pairs written after the
    format line, ``comment`` becomes a leading ``#`` line, and zero
    coefficients are omitted unless ``include_zeros``.
    """
    structure = coeffs.structure
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(f"format = {tag}")
    lines += [f"{key} = {value}" for key, value in headers]
    lines += [
        f"{key} = {' '.join(str(v) for v in getattr(structure, key))}" for key in _AXIS_KEYS
    ]
    lines.append("[coefficients]")
    for desc, value in zip(structure.descriptors(), coeffs.values):
        if include_zeros or value != 0:
            m = "-" if desc.envelope_offset is None else desc.envelope_offset
            lines.append(
                f"{desc.branch.value} {desc.order_exponent} {desc.lag} {m} "
                f"{float(value.real)!r} {float(value.imag)!r}"
            )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coefficient_file(path, tag, extra_keys=()) -> tuple:
    """Read a file of format ``tag`` as ``(extras, coefficients)``.

    Every key of ``extra_keys`` is a required header; ``extras`` maps it
    to ``(line number, raw value)`` for the caller to parse.  Kernels
    without a record are zero.  Anything else that is not this layout
    raises FormatError: a non-ASCII byte, a missing or repeated marker,
    a missing, wrong, repeated or unknown header, an axis that is not a
    valid integer list, and a record that is malformed, repeated,
    outside the declared structure, or not finite.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"non-ASCII byte {raw[exc.start]:#04x}",
            path=path,
            offset=exc.start,
            line=raw.count(b"\n", 0, exc.start) + 1,
        ) from None
    headers = {}
    records = []
    in_records = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[coefficients]":
            if in_records:
                raise FormatError("duplicate [coefficients] marker", path=path, line=lineno)
            in_records = True
        elif in_records:
            records.append((lineno, line.split()))
        else:
            key, equals, value = line.partition("=")
            key = key.strip()
            if not equals:
                raise FormatError(
                    f"expected 'key = value', got {line!r}", path=path, line=lineno
                )
            if key in headers:
                raise FormatError(f"duplicate header key {key!r}", path=path, line=lineno)
            headers[key] = (lineno, value.strip())
    if not in_records:
        raise FormatError("missing [coefficients] marker", path=path)
    if "format" not in headers:
        raise FormatError("missing format header", path=path)
    found = headers.pop("format")[1]
    if found != tag:
        raise FormatError(f"unsupported format tag {found!r}", path=path)
    for key in extra_keys:
        if key not in headers:
            raise FormatError(f"missing {key} header", path=path)
    extras = {key: headers.pop(key) for key in extra_keys}
    unknown = set(headers) - set(_AXIS_KEYS)
    if unknown:
        raise FormatError(f"unknown header keys {sorted(unknown)}", path=path)

    axes = {}
    for key in _AXIS_KEYS:
        if key not in headers:
            raise FormatError(f"missing structure key {key!r}", path=path)
        lineno, value = headers[key]
        try:
            axes[key] = tuple(int(tok) for tok in value.split())
        except ValueError:
            raise FormatError(
                f"expected integers, got {value!r}", path=path, line=lineno
            ) from None
    try:
        structure = GmpStructure(**axes)
    except ConfigurationError as exc:
        raise FormatError(f"invalid structure: {exc}", path=path) from exc

    index = {
        (d.branch, d.order_exponent, d.lag, d.envelope_offset): j
        for j, d in enumerate(structure.descriptors())
    }
    values = np.zeros(structure.kernel_count, dtype=np.complex128)
    seen = set()
    for lineno, tokens in records:
        if len(tokens) != 6:
            raise FormatError(
                f"expected 6 fields per record, got {len(tokens)}", path=path, line=lineno
            )
        branch_name, k_tok, l_tok, m_tok, re_tok, im_tok = tokens
        try:
            branch = Branch(branch_name)
        except ValueError:
            raise FormatError(f"unknown branch {branch_name!r}", path=path, line=lineno) from None
        try:
            k = int(k_tok)
            l = int(l_tok)
            m = None if m_tok == "-" else int(m_tok)
            value = complex(float(re_tok), float(im_tok))
        except ValueError:
            raise FormatError(f"malformed record {tokens}", path=path, line=lineno) from None
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise FormatError(
                f"coefficient must be finite, got {re_tok} {im_tok}", path=path, line=lineno
            )
        key = (branch, k, l, m)
        if key not in index:
            raise FormatError(
                f"kernel {branch.value} k={k} l={l} m={m} not in the declared structure",
                path=path,
                line=lineno,
            )
        if key in seen:
            raise FormatError(
                f"duplicate record for {branch.value} k={k} l={l} m={m}",
                path=path,
                line=lineno,
            )
        seen.add(key)
        values[index[key]] = value
    return extras, CoefficientVector(structure, values)


def write_coefficients(
    path, coeffs: CoefficientVector, include_zeros: bool = False, comment: str | None = None
) -> None:
    """Write coefficients as structured text; zero entries are omitted."""
    write_coefficient_file(
        path, _COEFF_FORMAT_TAG, coeffs, include_zeros=include_zeros, comment=comment
    )


def read_coefficients(path) -> CoefficientVector:
    """Read a coefficient file; kernels without a record are zero."""
    return read_coefficient_file(path, _COEFF_FORMAT_TAG)[1]
