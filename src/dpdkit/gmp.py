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

The module also holds the one text layer of the package: a reader, a
value parser and a writer shared by config files, coefficient files and
amplifier models.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import enum
from functools import cached_property
from itertools import pairwise
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigurationError, DimensionError, DivergenceError, FormatError, RankDeficiencyError, _integer
)
from .signal import IqSignal, _power


class Branch(enum.Enum):
    ALIGNED = "aligned"
    LAGGING = "lagging"
    LEADING = "leading"


def _index(name, value, axis) -> int:
    """``value`` as a Python int on the structure axis ``axis``: an even
    envelope power >= 0 (``orders``), a lag >= 0 (``lags``) or an envelope
    offset >= 1 (``cross``); else ConfigurationError naming ``name``."""
    _integer(name, value, 1 if axis == "cross" else 0)
    if axis == "orders" and value % 2:
        raise ConfigurationError(f"{name} must be even, got {value}")
    return int(value)


@dataclass(frozen=True)
class KernelDescriptor:
    """Identity of one model term: hashable, but with no order of its own.

    ``envelope_offset`` is the cross-term distance m; it is None for
    aligned terms.
    """

    branch: Branch
    order_exponent: int  # k, the even envelope power
    lag: int             # l, the carrier delay
    envelope_offset: int | None = None  # m, None on the aligned branch

    def __post_init__(self):
        if not isinstance(self.branch, Branch):
            raise ConfigurationError(f"branch must be a Branch, got {self.branch!r}")
        k = _index("envelope power", self.order_exponent, "orders")
        l = _index("lag", self.lag, "lags")
        m = self.envelope_offset
        if self.branch is not Branch.ALIGNED:
            m = _index(f"{self.branch.value} envelope offset", m, "cross")
        elif m is not None:
            raise ConfigurationError("aligned kernels take no envelope offset")
        object.__setattr__(self, "order_exponent", k)
        object.__setattr__(self, "lag", l)
        object.__setattr__(self, "envelope_offset", m)

    @property
    def _shift(self) -> int:
        """Envelope position against the carrier: 0 aligned, -m lagging, +m leading."""
        if self.branch is Branch.ALIGNED:
            return 0
        return -self.envelope_offset if self.branch is Branch.LAGGING else self.envelope_offset

    @property
    def deepest_sample(self) -> int:
        """Deepest past-sample index this kernel touches."""
        return max(self.lag, self.lag - self._shift)


@dataclass(frozen=True)
class GmpStructure:
    """Index sets of a generalized memory-polynomial model.

    Each axis is a sorted tuple of Python ints.  A branch holds one
    kernel per combination of its axes, so a branch with any empty axis
    holds no kernels, and its other axes are irrelevant.
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
        for f in fields(self):
            given = getattr(self, f.name)
            axis = f.name.rpartition("_")[2]
            try:
                entries = iter(given)
            except TypeError:
                raise ConfigurationError(f"{f.name} must be iterable, got {given!r}") from None
            values = tuple(sorted(_index(f"{f.name} entries", v, axis) for v in entries))
            if len(set(values)) != len(values):
                raise ConfigurationError(f"{f.name} contains duplicates: {given}")
            object.__setattr__(self, f.name, values)

    @property
    def _branches(self) -> tuple:
        """``(branch, orders, lags, offsets)`` of each branch, in
        canonical order; the offsets of the aligned branch are
        ``(None,)``."""
        return (
            (Branch.ALIGNED, self.aligned_orders, self.aligned_lags, (None,)),
            (Branch.LAGGING, self.lagging_orders, self.lagging_lags, self.lagging_cross),
            (Branch.LEADING, self.leading_orders, self.leading_lags, self.leading_cross),
        )

    @property
    def kernel_count(self) -> int:
        return sum(len(ks) * len(ls) * len(ms) for _, ks, ls, ms in self._branches)

    @property
    def orders(self) -> tuple:
        """The envelope powers of the kernels, those of ``descriptors()``."""
        return tuple(sorted({k for _, ks, ls, ms in self._branches if ls and ms for k in ks}))

    def descriptors(self) -> tuple:
        """All kernels in canonical column order, built once per structure."""
        return self._descriptors

    @cached_property
    def _descriptors(self) -> tuple:
        return tuple(
            KernelDescriptor(branch, k, l, m)
            for branch, ks, ls, ms in self._branches
            for k in ks
            for l in ls
            for m in ms
        )


def full_structure(
    memory_depth: int, max_order: int, lagging_depth: int = 0, leading_depth: int = 0
) -> GmpStructure:
    """Dense structure with every lag 0..memory_depth populated.

    The aligned branch carries all even envelope powers below
    ``max_order`` (odd); cross branches drop the memoryless power k=0,
    whose kernels would duplicate aligned ones at shifted lags.  Each
    cross branch is present when its depth is at least 1 and some power
    k >= 2 exists; otherwise it holds no offsets at all, so a structure
    of ``max_order = 1`` reads back with both depths 0.
    """
    _integer("memory_depth", memory_depth, 0)
    _integer("max_order", max_order, 1)
    if max_order % 2 == 0:
        raise ConfigurationError(f"max_order must be odd, got {max_order}")
    _integer("lagging_depth", lagging_depth, 0)
    _integer("leading_depth", leading_depth, 0)
    lags = tuple(range(memory_depth + 1))
    cross_orders = tuple(range(2, max_order, 2))

    def cross(depth):
        offsets = tuple(range(1, depth + 1)) if cross_orders else ()
        return (cross_orders, lags, offsets) if offsets else ((), (), ())

    aligned_orders = tuple(range(0, max_order, 2))
    return GmpStructure(aligned_orders, lags, *cross(lagging_depth), *cross(leading_depth))


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
        if not np.isfinite(arr).all():
            raise ConfigurationError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def support(self) -> np.ndarray:
        """Indices of the active (nonzero) coefficients."""
        return np.flatnonzero(self.values)

    @cached_property
    def _plan(self):
        """``apply_model``'s ``(layout, weights, shifts)`` of the support,
        or None for an empty one; it depends on neither the signal nor
        ``ROW_CHUNK``.  Columns 2 i and 2 i + 1 of the read-only
        ``weights[b]`` are the real and imaginary parts of the coefficient
        of base b at the i-th lag, so the GEMM output reads as the complex
        g_l of every lag, and ``shifts[i]`` is the largest lag less that
        lag."""
        support = self.support()
        if not support.size:
            return None
        descriptors = self.structure.descriptors()
        bases, base, lag = _bases_of([descriptors[j] for j in support])
        lags, at = np.unique(lag, return_inverse=True)
        weights = np.zeros((len(bases), 2 * lags.size))
        weights.view(np.complex128)[base, at] = self.values[support]
        weights.setflags(write=False)
        return _block_layout(bases, lag), weights, (lags[-1] - lags).tolist()


def kernel_count(coeffs: CoefficientVector) -> int:
    """Number of active (nonzero) kernels."""
    return int(np.count_nonzero(coeffs.values))


def effective_memory_depth(coeffs: CoefficientVector) -> int:
    """Deepest past-sample index touched by any active kernel, -1 if none.

    Lagging kernels reach back ``l + m`` samples through their envelope
    factor; aligned and leading kernels reach back ``l``.
    """
    descriptors = coeffs.structure.descriptors()
    return max((descriptors[j].deepest_sample for j in coeffs.support()), default=-1)


def max_memory_lag(coeffs: CoefficientVector) -> int:
    """Largest carrier delay l among active kernels, -1 if none."""
    descriptors = coeffs.structure.descriptors()
    return max((descriptors[j].lag for j in coeffs.support()), default=-1)


# Rows per block of every pass over the base sequences: the normal
# equations, ``data`` and ``apply_model``.  A block holds the carrier and
# one real envelope row per base: 4096 samples of the 15 envelopes of the
# 300-kernel wideband structure take 0.5 MB, and its complex base rows,
# which the normal equations and ``data`` form from them, 1.0 MB.
# ``data`` is the same bit for bit at any block size; the sums of the
# normal equations and the per-block GEMM of ``apply_model`` need not be.
ROW_CHUNK = 4096

# Shifts per stack in ``_segment_sums``: each GEMM adds this many lag
# differences.  Pass medians on one OpenBLAS thread (2-core Xeon VM, 41
# interleaved runs) on the desk-scale, wideband and 131072-sample
# training matrices: 1 shift 3.8, 25.4, 38.3 ms; 2 shifts 3.9, 23.0,
# 35.8 ms; 3 shifts 4.4, 25.4, 40.0 ms.  A deeper stack copies more.
_STACK = 2


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Regressor matrix of a structure evaluated on a source signal.

    The matrix has one row per source sample and one column per kernel
    of ``structure``, in canonical order (``columns``).  Samples before
    the first are zero, so the first rows see a zero-padded past.

    Only the source samples are stored.  Every column is a delayed copy
    ``psi_b(n - l)`` of one of a few base sequences
    ``psi_b(q) = s(q) e_b(q)``, one per (branch, k, m): the carrier
    times the real envelope ``e_b(q) = |s(q -+ m)|^k``, a power of
    ``|s|^2``.  15 bases carry the 300 columns of the wideband
    structure.  Every consumer cuts its columns from blocks of
    ``ROW_CHUNK`` samples of the carrier and the envelopes
    (``_base_blocks``): the whole matrix (``data``), the model output
    (``apply_model``) and the normal equations.  One loop over the
    samples forms those from the complex base rows of each block
    (``_kernel_normal_equations``), in N * B * P work rather than
    N * P^2 and in memory that grows with the block and with P^2, not
    with N * P.  The matrix caches one ``NormalSystem``, for the last
    target it was asked about.  ``data``, the whole N x P matrix, is
    formed only when a caller reads it; no fit reads it.
    """

    samples: np.ndarray
    structure: GmpStructure

    @cached_property
    def columns(self) -> tuple:
        """The kernel of each column, in canonical order."""
        return self.structure.descriptors()

    @property
    def shape(self) -> tuple:
        return (self.samples.size, len(self.columns))

    @cached_property
    def data(self) -> np.ndarray:
        """The whole matrix, read-only, cut from blocks of the base
        sequences on first use: column j of a block is its base at its
        lag, ``s e_b`` delayed by l."""
        bases, base, lag = _bases_of(self.columns)
        shifts = (lag.max() - lag).tolist()
        data = np.empty(self.shape, dtype=np.complex128)
        layout = _block_layout(bases, lag)
        for start, stop, psi in _psi_blocks(self.samples, layout, self.shape[0]):
            for j, (b, at) in enumerate(zip(base.tolist(), shifts)):
                data[start:stop, j] = psi[b, at : at + stop - start]
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


def _describe(system):
    """The design of ``system`` in words, for error messages."""
    s = system.structure
    if s is None:
        return f"{system.rhs.shape[0]}-column design"
    shapes = ", ".join(
        f"{branch.value} " + "x".join(str(len(axis)) for axis in axes if axis != (None,))
        for branch, *axes in s._branches
    )
    return f"structure with {s.kernel_count} kernels ({shapes})"


def normal_system(design, target) -> NormalSystem:
    """The ``NormalSystem`` of a design and a target.

    ``design`` is a ``KernelMatrix`` or a plain 2-D complex matrix, and
    ``target`` an ``IqSignal`` or a 1-D array with one sample per row,
    which for a ``KernelMatrix`` is one sample per source sample.  The
    Gram is a new C-ordered array, exactly Hermitian with an exactly
    real diagonal.

    A ``KernelMatrix`` forms its system from blocks of its base
    sequences in one pass (``_kernel_normal_equations``) and caches it
    for the last target, compared by content: the fits that follow on
    one matrix and one target share it, and a new target takes a pass
    of its own.  A plain matrix forms its system on each call, its Gram
    by one numpy product ``S^H S``, whose strict upper triangle is then
    mirrored from the lower one and whose diagonal is made real.

    This is the one check of what the solvers are given: a design with
    no columns raises ConfigurationError, and a Gram, correlation or
    target power that is not finite, as an overflowing design or target
    gives, raises RankDeficiencyError naming the design.  Of a system,
    the solvers check only the values that they derive from it.
    """
    km = design if isinstance(design, KernelMatrix) else None
    if km is None:
        design = np.asarray(design, dtype=np.complex128)
        if design.ndim != 2:
            raise DimensionError(f"design matrix must be 2-D, got shape {design.shape}")
    x = target.samples if isinstance(target, IqSignal) else np.asarray(target, dtype=np.complex128)
    if x.ndim != 1:
        raise DimensionError(f"target must be 1-D, got shape {x.shape}")
    if x.size != design.shape[0]:
        raise DimensionError(f"target has {x.size} samples but design has {design.shape[0]} rows")
    if design.shape[1] == 0:
        raise ConfigurationError("design has no columns")
    if km is not None:
        last = vars(km).get("_normal_system")
        if last is not None and np.array_equal(last[0], x):
            return last[1]
    # An overflowing design or target gives a system that is not finite,
    # rejected below with no numpy warning on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        if km is not None:
            gram, rhs = _kernel_normal_equations(km, x)
        else:
            rhs = (x.conj() @ design).conj()
            gram = design.conj().T @ design
            mirror = np.triu_indices(design.shape[1], 1)
            gram[mirror] = gram.T[mirror].conj()
            np.fill_diagonal(gram, gram.diagonal().real)
    gram.setflags(write=False)
    rhs.setflags(write=False)
    system = NormalSystem(gram, rhs, _power(x), None if km is None else km.structure)
    finite = np.isfinite(gram).all() and np.isfinite(rhs).all()
    if not (finite and math.isfinite(system.target_power)):
        raise RankDeficiencyError(f"normal equations of {_describe(system)} are not finite")
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


class _BlockLayout(NamedTuple):
    """How ``_base_blocks`` cuts blocks of some bases at some lags."""

    lo: int        # smallest lag
    hi: int        # largest lag
    behind: int    # widest lagging offset, 0 if none
    ahead: int     # widest leading offset, 0 if none
    recipe: tuple  # (b, below, at, times) per base, see ``_envelopes``


def _block_layout(bases, lag) -> _BlockLayout:
    """The ``_BlockLayout`` of the bases ``bases`` at the lags ``lag``.

    A block's envelope window reaches ``behind`` samples before its
    carrier and ``ahead`` after it, and base b's envelope starts at
    ``at``: ``behind - m`` (lagging), ``behind`` (aligned) or
    ``behind + m`` (leading).  The recipe lists the bases by ``at`` and,
    at each ``at``, by increasing k.  ``below`` is the base of the next
    lower power at that ``at`` and ``times`` is k/2 less its k/2; for the
    lowest power there, ``below`` is None and ``times`` is k/2.
    """
    behind = max([-d._shift for d in bases] + [0])
    ahead = max([d._shift for d in bases] + [0])
    steps = sorted((behind + d._shift, d.order_exponent // 2, b) for b, d in enumerate(bases))
    recipe, top = [], {}
    for at, half, b in steps:
        below, done = top.get(at, (None, 0))
        recipe.append((b, below, at, half - done))
        top[at] = (b, half)
    return _BlockLayout(int(np.min(lag)), int(np.max(lag)), behind, ahead, tuple(recipe))


def _base_blocks(samples, layout: _BlockLayout, n_rows: int, envelope):
    """``(start, stop, carrier, envelope)`` for each ``ROW_CHUNK``-row
    block of the rows ``0 .. n_rows - 1`` of columns at the lags of
    ``layout``: the one evaluator of kernel columns.

    Each block spans its rows widened by the lag span: ``carrier[i]`` is
    ``s(q)`` and ``envelope[b, i]`` the real envelope of base b at
    q = start - hi + i, both zero outside the source.  Base b is
    ``psi_b(q) = carrier * envelope[b]`` (``_psi_blocks``), and its column
    at lag l is cut from ``hi - l`` on, ``stop - start`` samples long.
    The carrier is a view of the samples when the block lies inside
    them, and a zero-padded copy only at the edges of the signal.  The
    envelopes (``_envelopes``) are written into the leading columns of
    ``envelope``, one row per base and at least as wide as the widest
    block, so a block's envelopes hold until the caller asks for the
    next block.
    """
    lo, hi, behind, ahead, recipe = layout
    for start in range(0, n_rows, ROW_CHUNK):
        stop = min(start + ROW_CHUNK, n_rows)
        first, count = start - hi, stop - start + hi - lo
        rows = envelope[:, :count]
        _envelopes(samples, rows, first - behind, first + count + ahead, recipe)
        yield start, stop, _window(samples, first, count), rows


def _window(samples, first: int, count: int) -> np.ndarray:
    """``samples[first : first + count]``, zero outside the samples: a
    view when the window lies inside them, else a zero-padded copy."""
    if first >= 0 and first + count <= samples.size:
        return samples[first : first + count]
    window = np.zeros(count, dtype=np.complex128)
    src_lo, src_hi = max(first, 0), min(first + count, samples.size)
    if src_hi > src_lo:
        window[src_lo - first : src_hi - first] = samples[src_lo:src_hi]
    return window


def _envelopes(samples, rows, lo: int, hi: int, recipe) -> None:
    """Fill ``rows`` with the envelopes of ``recipe`` (``_block_layout``)
    from the samples at ``lo .. hi - 1``, zero outside the source.

    The envelopes are powers of ``|s|^2 = re^2 + im^2``, taken once over
    that window, with no square root and no ``pow``.  Power 0 is a row
    of ones, the lowest other power at an offset copies its window, and
    each higher power multiplies the row ``below`` it by the window,
    ``times`` times: one pass per row where the powers at an offset have
    no gaps.  The products run in the order of a row of ones multiplied
    k/2 times by the window, so every row is that product bit for bit.
    """
    count = rows.shape[1]
    if any(times for *_, times in recipe):
        window = _window(samples, lo, hi - lo)
        squared = window.real * window.real
        squared += window.imag**2
    for b, below, at, times in recipe:
        row = rows[b]
        if not times:
            row[:] = 1.0
            continue
        factor = squared[at : at + count]
        if below is None:
            row[:] = factor
        else:
            np.multiply(rows[below], factor, out=row)
        for _ in range(times - 1):
            row *= factor


def _psi_blocks(samples, layout: _BlockLayout, n_rows: int):
    """``(start, stop, psi)`` for each block of ``_base_blocks``, with
    the complex base rows ``psi[b] = carrier * envelope[b]``.

    One array per call holds the rows of every block, so a block's rows
    hold until the caller asks for the next.  The envelopes are written
    into the first half of each row: numpy copies an envelope row before
    the product that overlaps it overwrites it.
    """
    n_bases = len(layout.recipe)
    width = min(ROW_CHUNK, n_rows) + layout.hi - layout.lo
    rows = np.empty((n_bases, width), dtype=np.complex128)
    for start, stop, carrier, envelope in _base_blocks(
        samples, layout, n_rows, rows.view(np.float64)
    ):
        psi = rows[:, : carrier.size]
        for b in range(n_bases):
            np.multiply(carrier, envelope[b], out=psi[b])
        yield start, stop, psi


def _kernel_normal_equations(km, target) -> tuple:
    """``(S^H S, S^H x)`` of a ``KernelMatrix``, from its base sequences.

    The matrix has one row per source sample, and samples before the
    first are zero.  Row n of column (b, l) is ``psi_b(n - l)`` for n
    from 0 to N - 1, and ``psi_b(q)`` is zero for q < 0, so in terms of
    q = n - l1, with d = l2 - l1 >= 0,

        S^H S[(b1, l1), (b2, l2)] = sum of conj(psi_b1(q)) psi_b2(q - d)
                                    over q in [0, N - l1)
        S^H x[(b, l)]             = sum of conj(psi_b(q)) x(q + l)

    with x zero outside its rows.  Entries with d < 0 are the conjugate
    mirror.  A window depends on its lag only through its end, so one
    loop over q (``_segment_sums``) sums the conjugate products, one
    B x B product per lag difference with ``S^H x`` beside it, in
    segments of q, and a prefix sum over them gives each lag its sums at
    its window end.  Every nonzero term of an entry is added once, so
    the summation error stays within that of the column product; its
    last bits follow ``ROW_CHUNK``, ``_STACK`` and the BLAS build.

    Each lag's sums fill one block row of the Gram in lag-major order,
    from its diagonal on: the diagonal blocks mirror their lower
    triangle and have a real diagonal, and the block rows below mirror
    those above, so the matrix is exactly Hermitian.  One gather puts
    it in canonical order once the sums are freed.  Every pair of bases
    is summed at every lag difference, so a structure whose branches
    have different lag sets pays for base pairs whose columns never meet.
    """
    bases, base, lag = _bases_of(km.columns)
    lags = np.unique(lag)
    n_bases = len(bases)
    # A signal shorter than a lag leaves that lag an empty window.
    ends = np.maximum(km.samples.size - lags, 0)
    sums = _segment_sums(km.samples, target, bases, lags, int(ends[-1]), int(ends[0]))
    np.cumsum(sums, axis=0, out=sums)
    sums = sums.reshape(sums.shape[0], n_bases, -1, n_bases + 1)
    # The Gram in lag-major order, one block row per lag.
    lagged = np.empty((lags.size * n_bases,) * 2, dtype=np.complex128)
    lower = np.tril_indices(n_bases, -1)
    for i in range(lags.size):
        at = slice(i * n_bases, (i + 1) * n_bases)
        block = lagged[at, at.start :]
        ahead = sums[ends[i] - ends[-1]][:, lags[i:] - lags[i], :n_bases]
        np.conjugate(ahead.reshape(n_bases, -1), out=block)
        square = block[:, :n_bases]
        square.T[lower] = square[lower].conj()
        np.fill_diagonal(square, square.diagonal().real)
        np.conjugate(lagged[: at.start, at].T, out=lagged[at, : at.start])
    rhs = sums[-1, base, lags[-1] - lag, n_bases].conj()
    del sums
    where = np.searchsorted(lags, lag) * n_bases + base
    return lagged[np.ix_(where, where)], rhs


def _segment_sums(samples, target, bases, lags, main_end, end) -> np.ndarray:
    """The sums of ``_kernel_normal_equations`` over q in [0, ``end``) in
    segments: 0 over [0, ``main_end``), and k over q = main_end + k - 1.
    Column ``d (B + 1) + b2`` of row b1 of a segment sums ``psi_b1(q)
    conj(psi_b2(q - d))``, and column ``d (B + 1) + B`` sums ``psi_b1(q)
    conj(x(q + hi - d))``, hi the deepest lag, for ``S^H x`` of lag hi - d.

    With d = a + s, the bases at q meet a stack of the bases and the
    target at q - a - s, for the shifts s = 0 .. ``_STACK`` - 1 and each
    step a, a multiple of ``_STACK``.  Each piece of a block copies its
    stack once, conjugated and reaching back to the deepest step, and
    serves step a with a view of it a samples back.  Pieces are a
    (``_STACK`` + 1)-th of a block, so the stack stays near the size of
    the block's bases, and are cut at ``main_end``: a main piece adds
    one GEMM per step to segment 0, a tail piece one product per sample
    and step to the segment of its sample.
    """
    hi, depth = int(lags[-1]), _STACK
    steps = sorted({d - d % depth for d in (lags - lags[:, None]).ravel().tolist() if d >= 0})
    reach, n_bases, wide = steps[-1], len(bases), len(bases) + 1
    sums = np.zeros((end - main_end + 1, n_bases, (reach + depth) * wide), dtype=np.complex128)
    widen = reach + depth - 1
    rows = -(-min(ROW_CHUNK, end) // (depth + 1))
    buffer = np.empty(depth * wide * (rows + reach), dtype=np.complex128)
    # psi[:, widen + i] is psi(q0 + i), and x[widen + i] is x(q0 + i + hi).
    for q0, q1, psi in _psi_blocks(samples, _block_layout(bases, np.array([0, widen])), end):
        x = _window(target, q0 - widen + hi, psi.shape[1])
        for p0, p1 in pairwise(sorted({*range(q0, q1, rows), q1, min(max(main_end, q0), q1)})):
            width = p1 - p0 + reach
            # Column j of the stack is at q = p0 - reach + j: rows s wide + b
            # hold psi_b(q - s), and row s wide + B holds x(q - s + hi).
            stack = buffer[: depth * wide * width].reshape(depth * wide, width)
            for s in range(depth):
                at = widen + p0 - reach - s - q0
                stack[s * wide : s * wide + n_bases] = psi[:, at : at + width]
                stack[s * wide + n_bases] = x[at : at + width]
            np.conjugate(stack, out=stack)
            view = psi[:, widen + p0 - q0 : widen + p1 - q0]
            for a in steps:
                behind = stack[:, reach - a : reach - a + p1 - p0]
                columns = slice(a * wide, (a + depth) * wide)
                if p1 <= main_end:
                    sums[0, :, columns] += view @ behind.T
                else:
                    tail = sums[p0 - main_end + 1 : p1 - main_end + 1, :, columns]
                    np.multiply(view.T[:, :, None], behind.T[:, None, :], out=tail)
    return sums


def _signal_samples(signal) -> np.ndarray:
    if isinstance(signal, IqSignal):
        return signal.samples
    arr = np.asarray(signal, dtype=np.complex128)
    if arr.ndim != 1:
        raise DimensionError(f"signal must be 1-D, got shape {arr.shape}")
    return arr


def build_kernel_matrix(signal, structure: GmpStructure) -> KernelMatrix:
    """The kernel matrix of ``structure`` on ``signal``: one row per
    source sample, with the samples before the first taken as zero.

    No column is evaluated here: the returned ``KernelMatrix`` keeps a
    read-only copy of the samples, and its consumers evaluate blocks of
    the base sequences as they need them.
    """
    samples = _signal_samples(signal)
    if not structure.descriptors():
        raise ConfigurationError("structure contains no kernels")
    if not isinstance(signal, IqSignal):
        samples = samples.copy()
        samples.setflags(write=False)
    return KernelMatrix(samples=samples, structure=structure)


def apply_model(signal, coeffs: CoefficientVector) -> IqSignal:
    """Synthesize the model output ``sum over the support of c_j S[:, j]``.

    Only the support is evaluated, so sparse models cost proportionally
    less than a full kernel-matrix product.  Every column is the carrier
    times a real envelope, ``s(n - l) e_b(n - l)`` (see ``KernelMatrix``),
    so the output is ``sum over the lags l of s(n - l) g_l(n - l)``, with
    ``g_l = sum over b of c_(l,b) e_b``.  The support's bases, lags,
    block layout and real weights ``W`` are built once per coefficient
    vector (``CoefficientVector._plan``) and shared by every call on it,
    such as the passes of a learning loop.  Each ``ROW_CHUNK``-sample
    block of the output evaluates the carrier and the support's envelopes
    once, over the block widened by the support's lag span, each row
    continuing the next lower power at its offset (``_envelopes``),
    forms every ``g_l`` with one real GEMM ``E^T W`` (``W`` holds the
    real and imaginary parts of each lag's coefficients, so the product
    reads as complex), and then adds ``g_l s`` for one lag l at a time,
    in increasing l.  The envelopes, the GEMM output and the product
    buffer are allocated once per call.  A single term of power 0 gives
    exactly ``c s(n - l)``.

    The output is therefore not bit for bit the column sum: each sample
    is within a few rounding errors of it, and its bits may change with
    ``ROW_CHUNK`` and with the BLAS build.  An output that leaves the
    floating-point range raises DivergenceError, with no numpy warning
    on the way.  The returned signal takes the new array as it is, with
    no copy and no second scan.  The output is allocated uninitialized,
    since the first lag of every block writes each of its samples; an
    empty support gives zeros.
    """
    samples = _signal_samples(signal)
    plan = coeffs._plan
    if plan is None:
        out = np.zeros(samples.size, dtype=np.complex128)
    else:
        out = np.empty(samples.size, dtype=np.complex128)
        layout, weights, shifts = plan
        width = min(ROW_CHUNK, samples.size) + layout.hi - layout.lo
        envelope = np.empty((weights.shape[0], width))
        gains = np.empty((width, len(shifts)), dtype=np.complex128)
        term = np.empty(min(ROW_CHUNK, samples.size), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for start, stop, carrier, rows in _base_blocks(
                samples, layout, samples.size, envelope
            ):
                n = stop - start
                g = gains[: carrier.size]
                np.matmul(rows.T, weights, out=g.view(np.float64))
                block, part = out[start:stop], term[:n]
                for i, shift in enumerate(shifts):
                    # The first lag writes the block, the others add to it.
                    product = part if i else block
                    np.multiply(g[shift : shift + n, i], carrier[shift : shift + n], out=product)
                    if i:
                        block += part
        if not np.isfinite(out).all():
            raise DivergenceError("model output is not finite: the input overflows the model")
    rate = signal.sample_rate_hz if isinstance(signal, IqSignal) else 1.0
    return IqSignal._own(out, rate)


# ---------------------------------------------------------------------------
# Text layer of the three ``key = value`` formats: config files with their
# overrides (``pipeline``), coefficient files and amplifier models.  Files
# are ASCII with ``\n`` line ends and ``#`` starts a comment.  An entry
# keeps its source (a path, or an override) and its line number until its
# value is parsed, so each error names both.

# What ``_parse_value`` says a value of each kind must be.
_VALUE_FORMS = dict(int="an integer", ints="integers", float="a float", complex="two floats")


def _read_ascii(path) -> str:
    """Text of the file ``path``; a non-ASCII byte raises FormatError
    naming its offset and line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"non-ASCII byte {raw[exc.start]:#04x}",
            path=path,
            offset=exc.start,
            line=raw.count(b"\n", 0, exc.start) + 1,
        ) from None


def _text_lines(text, source=None):
    """``(line number, line)`` of each line of ``text`` that is not empty
    once its comment and padding are stripped.  A non-ASCII character
    anywhere in a line, its comment included, raises FormatError naming
    ``source`` and the line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.isascii():
            raise FormatError(f"non-ASCII character in {line!r}", path=source, line=lineno)
        line = line.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _split_entry(line, source, lineno=None) -> tuple:
    """``(key, value)`` of one ``key = value`` line of ``source``."""
    if not line.isascii():
        raise FormatError(f"non-ASCII character in {line!r}", path=source, line=lineno)
    key, equals, value = line.partition("=")
    key = key.strip()
    if not (equals and key):
        raise FormatError(f"expected 'key = value', got {line!r}", path=source, line=lineno)
    return key, value.strip()


def _read_entries(lines, source) -> dict:
    """``{key: (source, line number, value)}`` of ``key = value`` lines
    from ``_text_lines``; a repeated key raises FormatError naming the
    line that repeats it."""
    entries = {}
    for lineno, line in lines:
        key, value = _split_entry(line, source, lineno)
        if key in entries:
            raise FormatError(f"duplicate key {key}", path=source, line=lineno)
        entries[key] = (source, lineno, value)
    return entries


def _number(text, kind="int"):
    """``text`` as an ``int`` (an optional ``-`` and ASCII digits) or a
    ``float`` (a token ``float()`` reads, without ``_``); else ValueError."""
    if "_" in text or (kind == "int" and not (text.isascii() and text.removeprefix("-").isdigit())):
        raise ValueError(f"{text!r} is not {_VALUE_FORMS[kind]}")
    return int(text) if kind == "int" else float(text)


def _parse_value(key, entry, kind):
    """The value of ``key``'s ``(source, line number, value)`` entry as
    ``kind``: ``str``, ``int``, ``ints`` (a tuple of any number of them),
    ``float`` or ``complex`` (real and imaginary part), each number read
    by ``_number``.  A kind ending in ``?`` also takes ``none`` as None.
    Any other value raises FormatError."""
    source, lineno, raw = entry
    base = kind.rstrip("?")
    if base != kind and raw == "none":
        return None
    try:
        if base == "str":
            return raw
        if base == "ints":
            return tuple(_number(tok) for tok in raw.split())
        if base == "complex":
            real, imag = raw.split()
            return complex(_number(real, "float"), _number(imag, "float"))
        return _number(raw, base)
    except ValueError:
        pass
    form = _VALUE_FORMS[base] + (" or 'none'" if base != kind else "")
    raise FormatError(f"{key} expects {form}, got {raw!r}", path=source, line=lineno)


def _format_value(value) -> str:
    """``value`` as ``_parse_value`` reads it back, and a bool as ``true``
    or ``false``; ``str`` of a float, numpy's too, is its shortest
    round-trip text, so it reads back bit for bit."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, complex):
        return f"{value.real} {value.imag}"
    return str(value)


def _write_text(path, lines, comment=None) -> None:
    """Write ``lines`` as ASCII text with newline line ends, after a
    ``# comment`` line when ``comment`` is given."""
    head = [] if comment is None else [f"# {comment}"]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(head + lines) + "\n")


# ---------------------------------------------------------------------------
# Coefficient file format, on the text layer above.  A ``format = <tag>``
# header, the extra headers of that tag, and the structure axes as
# ``key = value`` headers come first; after a ``[coefficients]`` marker
# follows one whitespace-separated record per kernel: branch, k, l, m
# (``-`` on the aligned branch), real part, imaginary part.  Coefficient
# files (``gmp-coeff/1``) and amplifier models (``pa-model/1``, see
# ``pa_sim``) share this layout.

_COEFF_FORMAT_TAG = "gmp-coeff/1"

_AXIS_KEYS = tuple(f.name for f in fields(GmpStructure))


def write_coefficient_file(path, tag, coeffs: CoefficientVector, headers=(), comment=None) -> None:
    """Write ``coeffs`` in the layout of format ``tag``.

    ``headers`` are extra ``(key, value)`` pairs written after the
    format line, ``comment`` becomes a leading ``#`` line, and zero
    coefficients are omitted.
    """
    structure = coeffs.structure
    lines = [f"format = {tag}"]
    lines += [f"{key} = {value}" for key, value in headers]
    lines += [
        f"{key} = {' '.join(str(v) for v in getattr(structure, key))}" for key in _AXIS_KEYS
    ]
    lines.append("[coefficients]")
    for desc, value in zip(structure.descriptors(), coeffs.values):
        if value != 0:
            m = "-" if desc.envelope_offset is None else desc.envelope_offset
            lines.append(
                f"{desc.branch.value} {desc.order_exponent} {desc.lag} {m} {_format_value(value)}"
            )
    _write_text(path, lines, comment)


def read_coefficient_file(path, tag, extra_keys=()) -> tuple:
    """Read a file of format ``tag`` as ``(extras, coefficients)``.

    ``extra_keys`` holds the ``(key, kind)`` pairs of the tag's required
    headers; ``extras`` maps each key to its value, parsed as that kind
    of ``_parse_value`` like the structure axes.  Kernels without a
    record are zero.  Anything else that is not this layout raises
    FormatError: a non-ASCII byte, a missing or repeated marker, a
    missing, wrong, repeated or unknown header, a header value not of its
    kind, axes that form no valid structure, and a record that is
    malformed, repeated, outside the declared structure, or not finite.
    A record's ``KernelDescriptor``, the key of its column, checks its
    k, l and m by the index rule of the structure axes.
    """
    lines = list(_text_lines(_read_ascii(path)))
    marks = [i for i, (_, line) in enumerate(lines) if line == "[coefficients]"]
    headers = _read_entries(lines[: marks[0] if marks else None], path)
    if not marks:
        raise FormatError("missing [coefficients] marker", path=path)
    if len(marks) > 1:
        raise FormatError("duplicate [coefficients] marker", path=path, line=lines[marks[1]][0])
    if "format" not in headers:
        raise FormatError("missing format header", path=path)
    found = headers.pop("format")[2]
    if found != tag:
        raise FormatError(f"unsupported format tag {found!r}", path=path)
    extras = {}
    for key, kind in (*extra_keys, *((key, "ints") for key in _AXIS_KEYS)):
        if key not in headers:
            raise FormatError(f"missing {key} header", path=path)
        extras[key] = _parse_value(key, headers.pop(key), kind)
    if headers:
        raise FormatError(f"unknown header keys {sorted(headers)}", path=path)
    try:
        structure = GmpStructure(**{key: extras.pop(key) for key in _AXIS_KEYS})
    except ConfigurationError as exc:
        raise FormatError(f"invalid structure: {exc}", path=path) from exc

    index = {kernel: j for j, kernel in enumerate(structure.descriptors())}
    values = np.zeros(structure.kernel_count, dtype=np.complex128)
    seen = set()
    for lineno, line in lines[marks[0] + 1 :]:
        tokens = line.split()
        if len(tokens) != 6:
            raise FormatError(
                f"expected 6 fields per record, got {len(tokens)}", path=path, line=lineno
            )
        branch_name, *klm, re_tok, im_tok = tokens
        try:
            branch = Branch(branch_name)
        except ValueError:
            raise FormatError(f"unknown branch {branch_name!r}", path=path, line=lineno) from None
        try:
            value = complex(_number(re_tok, "float"), _number(im_tok, "float"))
            kernel = KernelDescriptor(branch, *(None if t == "-" else _number(t) for t in klm))
        except (ValueError, ConfigurationError) as exc:
            raise FormatError(f"malformed record {tokens}: {exc}", path=path, line=lineno) from None
        if not np.isfinite(value):
            raise FormatError(
                f"coefficient must be finite, got {re_tok} {im_tok}", path=path, line=lineno
            )
        name = f"{branch.value} k={kernel.order_exponent} l={kernel.lag} m={kernel.envelope_offset}"
        if kernel not in index:
            raise FormatError(
                f"kernel {name} not in the declared structure", path=path, line=lineno
            )
        if kernel in seen:
            raise FormatError(f"duplicate record for {name}", path=path, line=lineno)
        seen.add(kernel)
        values[index[kernel]] = value
    return extras, CoefficientVector(structure, values)


def write_coefficients(path, coeffs: CoefficientVector, comment: str | None = None) -> None:
    """Write coefficients as structured text; zero entries are omitted."""
    write_coefficient_file(path, _COEFF_FORMAT_TAG, coeffs, comment=comment)


def read_coefficients(path) -> CoefficientVector:
    """Read a coefficient file; kernels without a record are zero."""
    return read_coefficient_file(path, _COEFF_FORMAT_TAG)[1]
