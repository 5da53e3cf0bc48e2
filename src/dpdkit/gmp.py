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

from dataclasses import dataclass
import enum
from functools import cached_property
import math

import numpy as np

from .errors import ConfigurationError, DimensionError, FormatError
from .signal import IqSignal


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
        """All kernels in canonical column order."""
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


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Regressor matrix of a structure evaluated on a source signal.

    ``data`` has one column per kernel in canonical order.  When warm-up
    rows are dropped, ``row_offset`` records how many leading samples of
    the source are excluded and ``data`` has correspondingly fewer rows.
    ``build_kernel_matrix`` returns ``data`` read-only, because ``gram``
    is cached from it.
    """

    data: np.ndarray
    columns: tuple
    structure: GmpStructure
    source_length: int
    row_offset: int = 0

    @cached_property
    def gram(self) -> np.ndarray:
        """Read-only Gram matrix ``data^H data``, computed on first use."""
        gram = self.data.conj().T @ self.data
        gram.setflags(write=False)
        return gram


def _delayed(values: np.ndarray, delay: int) -> np.ndarray:
    """Copy of ``values`` shifted ``delay`` samples into the past, zero padded."""
    n = values.size
    out = np.zeros(n, dtype=values.dtype)
    if delay >= 0:
        if delay < n:
            out[delay:] = values[: n - delay]
    else:
        if -delay < n:
            out[: n + delay] = values[-delay:]
    return out


class _KernelColumns:
    """Shared per-signal caches for kernel column evaluation."""

    def __init__(self, samples: np.ndarray):
        self.samples = samples
        self.envelope = np.abs(samples)
        self._carriers = {}
        self._env_powers = {}

    def carrier(self, lag: int) -> np.ndarray:
        if lag not in self._carriers:
            self._carriers[lag] = _delayed(self.samples, lag)
        return self._carriers[lag]

    def envelope_power(self, delay: int, k: int) -> np.ndarray:
        key = (delay, k)
        if key not in self._env_powers:
            self._env_powers[key] = _delayed(self.envelope, delay) ** k
        return self._env_powers[key]

    def column(self, desc: KernelDescriptor) -> np.ndarray:
        if desc.order_exponent == 0 and desc.branch is Branch.ALIGNED:
            return self.carrier(desc.lag)
        if desc.branch is Branch.ALIGNED:
            env_delay = desc.lag
        elif desc.branch is Branch.LAGGING:
            env_delay = desc.lag + desc.envelope_offset
        else:
            env_delay = desc.lag - desc.envelope_offset
        return self.carrier(desc.lag) * self.envelope_power(env_delay, desc.order_exponent)


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
    """Evaluate every kernel of ``structure`` on ``signal``.

    With ``drop_warmup`` the rows whose kernels would reach before the
    first sample are removed instead of zero padded.
    """
    samples = _signal_samples(signal)
    descriptors = structure.descriptors()
    if not descriptors:
        raise ConfigurationError("structure contains no kernels")
    cache = _KernelColumns(samples)
    data = np.empty((samples.size, len(descriptors)), dtype=np.complex128)
    for j, desc in enumerate(descriptors):
        data[:, j] = cache.column(desc)
    offset = 0
    if drop_warmup:
        offset = max(d.deepest_sample for d in descriptors)
        if offset >= samples.size:
            raise DimensionError(
                f"signal of {samples.size} samples too short to drop {offset} warm-up rows"
            )
        data = data[offset:]
    data.setflags(write=False)
    return KernelMatrix(
        data=data,
        columns=descriptors,
        structure=structure,
        source_length=samples.size,
        row_offset=offset,
    )


def apply_model(signal, coeffs: CoefficientVector) -> IqSignal:
    """Synthesize the model output for ``signal``.

    Columns are evaluated on the fly and accumulated over the active
    support only, so sparse models cost proportionally less than a full
    kernel-matrix product.
    """
    samples = _signal_samples(signal)
    cache = _KernelColumns(samples)
    descriptors = coeffs.structure.descriptors()
    out = np.zeros(samples.size, dtype=np.complex128)
    for j in coeffs.support():
        out += coeffs.values[j] * cache.column(descriptors[j])
    rate = signal.sample_rate_hz if isinstance(signal, IqSignal) else 1.0
    return IqSignal(out, rate)


# ---------------------------------------------------------------------------
# Coefficient file format: line-oriented text with the structure axes as
# key = value headers, then one whitespace-separated record per kernel.

_COEFF_FORMAT_TAG = "gmp-coeff/1"

_AXIS_KEYS = (
    "aligned_orders",
    "aligned_lags",
    "lagging_orders",
    "lagging_lags",
    "lagging_cross",
    "leading_orders",
    "leading_lags",
    "leading_cross",
)


def _format_int_list(values) -> str:
    return " ".join(str(v) for v in values)


def structure_header_lines(structure: GmpStructure) -> list:
    return [f"{key} = {_format_int_list(getattr(structure, key))}" for key in _AXIS_KEYS]


def coefficient_record_lines(coeffs: CoefficientVector, include_zeros: bool = False) -> list:
    lines = []
    for desc, value in zip(coeffs.structure.descriptors(), coeffs.values):
        if not include_zeros and value == 0:
            continue
        m = "-" if desc.envelope_offset is None else str(desc.envelope_offset)
        lines.append(
            f"{desc.branch.value} {desc.order_exponent} {desc.lag} {m} "
            f"{float(value.real)!r} {float(value.imag)!r}"
        )
    return lines


def write_coefficients(
    path, coeffs: CoefficientVector, include_zeros: bool = False, comment: str | None = None
) -> None:
    """Write coefficients as structured text; zero entries are omitted."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(f"format = {_COEFF_FORMAT_TAG}")
    lines += structure_header_lines(coeffs.structure)
    lines.append("[coefficients]")
    lines += coefficient_record_lines(coeffs, include_zeros)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def split_header_and_records(path):
    """Parse a coefficient-style file into (headers, records).

    headers: list of (line_number, key, value); records: list of
    (line_number, token list) following the ``[coefficients]`` marker.
    """
    headers = []
    records = []
    in_records = False
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line == "[coefficients]":
                if in_records:
                    raise FormatError("duplicate [coefficients] marker", path=path, line=lineno)
                in_records = True
                continue
            if in_records:
                records.append((lineno, line.split()))
            else:
                if "=" not in line:
                    raise FormatError(
                        f"expected 'key = value', got {line!r}", path=path, line=lineno
                    )
                key, _, value = line.partition("=")
                headers.append((lineno, key.strip(), value.strip()))
    if not in_records:
        raise FormatError("missing [coefficients] marker", path=path)
    return headers, records


def _parse_int_list(value, path, lineno):
    try:
        return tuple(int(tok) for tok in value.split())
    except ValueError:
        raise FormatError(f"expected integers, got {value!r}", path=path, line=lineno) from None


def structure_from_headers(header_map, path):
    axes = {}
    for key in _AXIS_KEYS:
        if key not in header_map:
            raise FormatError(f"missing structure key {key!r}", path=path)
        lineno, value = header_map[key]
        axes[key] = _parse_int_list(value, path, lineno)
    try:
        return GmpStructure(**axes)
    except ConfigurationError as exc:
        raise FormatError(f"invalid structure: {exc}", path=path) from exc


def values_from_records(structure, records, path):
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
    return values


def read_coefficients(path) -> CoefficientVector:
    """Read a coefficient file; kernels without a record are zero."""
    headers, records = split_header_and_records(path)
    header_map = {}
    for lineno, key, value in headers:
        if key in header_map:
            raise FormatError(f"duplicate header key {key!r}", path=path, line=lineno)
        header_map[key] = (lineno, value)
    if "format" not in header_map:
        raise FormatError("missing format header", path=path)
    tag = header_map.pop("format")[1]
    if tag != _COEFF_FORMAT_TAG:
        raise FormatError(f"unsupported format tag {tag!r}", path=path)
    unknown = set(header_map) - set(_AXIS_KEYS)
    if unknown:
        raise FormatError(f"unknown header keys {sorted(unknown)}", path=path)
    structure = structure_from_headers(header_map, path)
    values = values_from_records(structure, records, path)
    return CoefficientVector(structure, values)
