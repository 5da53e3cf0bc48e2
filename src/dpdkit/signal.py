"""Complex baseband test signals, error metrics, and IQ file I/O.

Signals are 1-D complex128 sample vectors with a sample-rate annotation.
OFDM-style stimuli are built by placing random constellation points on
the active subcarriers and zero-padding the spectrum before the inverse
FFT, so the oversampled waveform occupies only the active band.  All
randomness comes from ``numpy.random.default_rng`` (PCG64); a given seed
reproduces the same waveform on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import struct

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateAlignmentError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    _integer,
    _positive,
)

# Metrics are clamped at this floor so perfect reconstructions stay finite.
DB_FLOOR = -300.0

# Unit-average-power constellations.
_QPSK = (np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0))


def _square_qam(levels):
    pts = np.array([complex(i, q) for i in levels for q in levels])
    return pts / math.sqrt(float(np.mean(np.abs(pts) ** 2)))


_CONSTELLATIONS = {
    "qpsk": _QPSK,
    "qam16": _square_qam((-3, -1, 1, 3)),
    "qam64": _square_qam((-7, -5, -3, -1, 1, 3, 5, 7)),
}


@dataclass(frozen=True, eq=False)
class IqSignal:
    """Immutable complex baseband signal.

    Attributes:
        samples: 1-D complex128 array, at least one sample, all finite.
        sample_rate_hz: positive sample rate annotation.
    """

    samples: np.ndarray
    sample_rate_hz: float = 1.0

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.complex128, copy=True)
        self._take(arr, self.sample_rate_hz, scan=True)

    @classmethod
    def _own(cls, samples: np.ndarray, sample_rate_hz: float) -> "IqSignal":
        """A signal that takes ``samples`` over without a copy.

        For arrays the caller has just built and checked: 1-D
        complex128, all finite, referenced nowhere else.  The array is
        made read-only and is not scanned again.
        """
        signal = object.__new__(cls)
        signal._take(samples, sample_rate_hz, scan=False)
        return signal

    def _take(self, arr: np.ndarray, sample_rate_hz: float, scan: bool) -> None:
        """Check ``arr`` (its values too when ``scan``) and the rate, then
        hold ``arr`` read-only."""
        if arr.ndim != 1:
            raise DimensionError(f"samples must be 1-D, got shape {arr.shape}")
        if arr.size < 1:
            raise ConfigurationError("signal must contain at least one sample")
        if scan and not np.isfinite(arr).all():
            raise ConfigurationError("signal samples must be finite")
        _positive("sample_rate_hz", sample_rate_hz)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", float(sample_rate_hz))

    def __len__(self):
        return self.samples.size

    @property
    def rms(self) -> float:
        # The squares overflow from about 1e154 on and lose digits or
        # vanish below about 1e-154; the samples divided by their largest
        # part do neither, and give the same RMS.
        x = self.samples
        with np.errstate(over="ignore"):
            mean_square = np.mean(np.abs(x) ** 2)
            if np.finfo(np.float64).tiny <= mean_square < math.inf:
                return float(np.sqrt(mean_square))
            scale = max(np.abs(x.real).max(), np.abs(x.imag).max())
            if scale == 0.0:
                return 0.0
            return float(scale * np.sqrt(np.mean(np.abs(x / scale) ** 2)))


@dataclass(frozen=True)
class OfdmConfig:
    """Parameters of the OFDM-style stimulus generator.

    ``n_active`` must stay below ``n_subcarriers`` so a guard band
    remains.  ``target_rms`` sets the RMS amplitude of the emitted
    waveform exactly.
    """

    n_subcarriers: int = 64
    n_active: int = 52
    n_symbols: int = 64
    oversampling_factor: int = 4
    constellation: str = "qpsk"
    seed: int = 1
    target_rms: float = 1.0
    sample_rate_hz: float = 1.0

    def __post_init__(self):
        for name in ("n_subcarriers", "n_active", "n_symbols", "oversampling_factor"):
            _integer(name, getattr(self, name), 1)
        if self.n_active >= self.n_subcarriers:
            raise ConfigurationError(
                "n_active must be smaller than n_subcarriers to leave a guard band "
                f"(got {self.n_active} of {self.n_subcarriers})"
            )
        if self.constellation not in _CONSTELLATIONS:
            known = ", ".join(sorted(_CONSTELLATIONS))
            raise ConfigurationError(
                f"unknown constellation {self.constellation!r} (known: {known})"
            )
        _integer("seed", self.seed, 0, 2**64 - 1)
        _positive("target_rms", self.target_rms)
        _positive("sample_rate_hz", self.sample_rate_hz)


def active_bin_indices(config: OfdmConfig) -> np.ndarray:
    """FFT bin indices carrying data, on the oversampled grid.

    Subcarriers are packed symmetrically around (and excluding) DC, so
    the guard band sits at the outer edge of the original bandwidth.
    """
    n_fft = config.n_subcarriers * config.oversampling_factor
    n_pos = (config.n_active + 1) // 2
    n_neg = config.n_active // 2
    positive = np.arange(1, n_pos + 1)
    negative = n_fft - np.arange(1, n_neg + 1)
    return np.concatenate([positive, negative])


def generate_ofdm(config: OfdmConfig) -> IqSignal:
    """Generate a seeded multi-symbol OFDM burst.

    Each symbol places independent constellation points on the active
    bins of a zero-padded spectrum and transforms to time domain; the
    concatenated waveform is scaled to ``target_rms`` exactly.  A
    ``target_rms`` that scales the waveform out of the floating-point
    range raises ConfigurationError, with no numpy warning on the way.
    """
    rng = np.random.default_rng(config.seed)
    points = _CONSTELLATIONS[config.constellation]
    n_fft = config.n_subcarriers * config.oversampling_factor
    bins = active_bin_indices(config)

    picks = rng.integers(0, points.size, size=(config.n_symbols, config.n_active))
    spectrum = np.zeros((config.n_symbols, n_fft), dtype=np.complex128)
    spectrum[:, bins] = points[picks]
    samples = np.fft.ifft(spectrum, axis=1).ravel()

    scale = config.target_rms / float(np.sqrt(np.mean(np.abs(samples) ** 2)))
    if math.isfinite(scale):
        with np.errstate(over="ignore"):
            samples = samples * scale
        if np.isfinite(samples).all():
            return IqSignal(samples, config.sample_rate_hz)
    raise ConfigurationError(
        f"signal.target_rms = {config.target_rms!r} scales the waveform "
        "out of the floating-point range"
    )


@dataclass(frozen=True)
class MetricReport:
    """Bundle of reconstruction metrics.

    ``nmse_db`` compares the signals as-is, ``evm_db`` after removing
    the least-squares complex gain ``aligned_gain``.
    """

    nmse_db: float
    evm_db: float
    aligned_gain: complex

    def as_line(self) -> str:
        gain = self.aligned_gain
        return (
            f"nmse_db={self.nmse_db!r} evm_db={self.evm_db!r} "
            f"aligned_gain={gain.real!r}{gain.imag:+}j"
        )


def _power(arr: np.ndarray) -> float:
    return float(np.real(np.vdot(arr, arr)))


def _ratio_db(err_power: float, ref_power: float) -> float:
    if err_power <= 0.0:
        return DB_FLOOR
    # max() keeps its first argument when the other is NaN, so a NaN
    # ratio survives the clamp instead of reading as a perfect match.
    return max(10.0 * math.log10(err_power / ref_power), DB_FLOOR)


def nmse_db_arrays(estimate: np.ndarray, reference: np.ndarray) -> float:
    """NMSE in dB between two equal-length complex arrays."""
    estimate = np.asarray(estimate)
    reference = np.asarray(reference)
    if estimate.shape != reference.shape:
        raise DimensionError(
            f"estimate length {estimate.shape} does not match reference {reference.shape}"
        )
    ref_power = _power(reference)
    if ref_power == 0.0:
        raise DegenerateInputError("reference signal has zero power")
    return _ratio_db(_power(reference - estimate), ref_power)


def nmse_db(estimate: IqSignal, reference: IqSignal) -> float:
    """Normalized mean-square error, 10*log10(||ref - est||^2 / ||ref||^2).

    Clamped below at -300 dB.  Raises DimensionError on length mismatch
    and DegenerateInputError when the reference carries no power.
    """
    return nmse_db_arrays(estimate.samples, reference.samples)


def evm_db(received: IqSignal, reference: IqSignal) -> MetricReport:
    """Gain-aligned error metric.

    Removes the least-squares complex gain between received and
    reference before measuring the residual, so the result is invariant
    to an overall complex scaling of the received signal.
    """
    recv = received.samples
    ref = reference.samples
    if recv.shape != ref.shape:
        raise DimensionError(
            f"received length {recv.size} does not match reference {ref.size}"
        )
    ref_power = _power(ref)
    if ref_power == 0.0:
        raise DegenerateInputError("reference signal has zero power")
    gain = complex(np.vdot(ref, recv) / ref_power)
    if gain == 0:
        raise DegenerateAlignmentError(
            "received signal is orthogonal to the reference; cannot align gain"
        )
    evm = _ratio_db(_power(recv / gain - ref), ref_power)
    return MetricReport(
        nmse_db=_ratio_db(_power(ref - recv), ref_power),
        evm_db=evm,
        aligned_gain=gain,
    )


# Binary IQ container: little-endian, 24-byte header then interleaved
# float64 I/Q pairs.
_IQ_MAGIC = b"IQF1"
_IQ_VERSION = 1
_HEADER = struct.Struct("<4sIQd")


def write_iq(signal: IqSignal, path) -> None:
    """Write a signal to the binary IQ container format."""
    n = len(signal)
    payload = np.empty((n, 2), dtype="<f8")
    payload[:, 0] = signal.samples.real
    payload[:, 1] = signal.samples.imag
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_IQ_MAGIC, _IQ_VERSION, n, signal.sample_rate_hz))
        fh.write(payload.tobytes())


def read_iq(path) -> IqSignal:
    """Read a signal from the binary IQ container format.

    Raises FormatError with the byte offset of the first problem
    encountered: bad magic, unsupported version, invalid header fields,
    or a payload that does not match the declared sample count.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise FormatError(
            f"file too short for {_HEADER.size}-byte header", path=path, offset=0
        )
    magic, version, count, rate = _HEADER.unpack_from(data, 0)
    if magic != _IQ_MAGIC:
        raise FormatError(f"bad magic {magic!r}", path=path, offset=0)
    if version != _IQ_VERSION:
        raise FormatError(f"unsupported version {version}", path=path, offset=4)
    if count < 1:
        raise FormatError("sample count must be at least 1", path=path, offset=8)
    if not (math.isfinite(rate) and rate > 0.0):
        raise FormatError(f"sample rate must be positive, got {rate}", path=path, offset=16)
    payload = data[_HEADER.size:]
    expected = 16 * count
    if len(payload) != expected:
        raise FormatError(
            f"payload holds {len(payload)} bytes but header declares {count} samples "
            f"({expected} bytes)",
            path=path,
            offset=_HEADER.size + min(len(payload), expected),
        )
    pairs = np.frombuffer(payload, dtype="<f8").reshape(count, 2)
    if not np.all(np.isfinite(pairs)):
        bad = int(np.flatnonzero(~np.isfinite(pairs).all(axis=1))[0])
        raise FormatError(
            f"non-finite sample at index {bad}", path=path, offset=_HEADER.size + 16 * bad
        )
    # Viewed, not summed from its parts: re + 1j * im turns a -0.0 part into +0.0.
    return IqSignal(np.frombuffer(payload, dtype="<c16"), rate)
