"""Behavioral power-amplifier simulation and iterative drive learning.

A simulated amplifier is a memory-polynomial coefficient set plus a
declared small-signal gain and an optional hard output clip.  The
iterative learning loop adjusts the amplifier input until the
(gain-normalized) output reproduces a reference waveform, which gives a
ground-truth predistorted drive to fit inverse models against.
"""

from __future__ import annotations

from dataclasses import dataclass
import importlib.resources
import math

import numpy as np

from .errors import ConfigurationError, DivergenceError, FormatError
from .gmp import (
    CoefficientVector,
    apply_model,
    coefficient_record_lines,
    split_header_and_records,
    structure_from_headers,
    structure_header_lines,
    values_from_records,
    _AXIS_KEYS,
)
from .signal import DB_FLOOR, IqSignal

_PA_FORMAT_TAG = "pa-model/1"
_PRESET_NAME = "presets/pa_default.txt"


@dataclass(frozen=True)
class PaModel:
    """Simulated amplifier: kernel coefficients, gain, optional clip.

    ``smallsignal_gain`` is the declared linear gain; it is metadata for
    normalization (the coefficient set itself contains the linear
    response) and the default target gain of the learning loop.
    ``saturation_level`` hard-limits the output modulus when set.
    """

    coefficients: CoefficientVector
    smallsignal_gain: complex = 1.0 + 0.0j
    saturation_level: float | None = None

    def __post_init__(self):
        if not isinstance(self.coefficients, CoefficientVector):
            raise ConfigurationError("coefficients must be a CoefficientVector")
        gain = complex(self.smallsignal_gain)
        if not (math.isfinite(gain.real) and math.isfinite(gain.imag)) or gain == 0:
            raise ConfigurationError(f"smallsignal_gain must be finite and non-zero, got {gain}")
        object.__setattr__(self, "smallsignal_gain", gain)
        if self.saturation_level is not None:
            level = float(self.saturation_level)
            if not (math.isfinite(level) and level > 0):
                raise ConfigurationError(
                    f"saturation_level must be positive or None, got {self.saturation_level}"
                )
            object.__setattr__(self, "saturation_level", level)


def pa_forward(signal, model: PaModel) -> IqSignal:
    """Amplifier response to ``signal``, including the clip stage."""
    out = apply_model(signal, model.coefficients)
    if model.saturation_level is None:
        return out
    samples = out.samples.copy()
    magnitude = np.abs(samples)
    over = magnitude > model.saturation_level
    if np.any(over):
        samples[over] *= model.saturation_level / magnitude[over]
    return IqSignal(samples, out.sample_rate_hz)


@dataclass(frozen=True)
class IlcConfig:
    """Iterative learning control settings.

    ``target_gain`` overrides the amplifier's declared small-signal
    gain as the normalization in the update; None keeps the declared
    gain.
    """

    iterations: int = 30
    learning_rate: float = 0.5
    target_gain: complex | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {self.iterations}")
        if not (0.0 <= self.learning_rate <= 1.0):
            raise ConfigurationError(
                f"learning_rate must lie in [0, 1], got {self.learning_rate}"
            )
        if self.target_gain is not None:
            gain = complex(self.target_gain)
            if not (math.isfinite(gain.real) and math.isfinite(gain.imag)) or gain == 0:
                raise ConfigurationError(
                    f"target_gain must be finite and non-zero, got {self.target_gain}"
                )
            object.__setattr__(self, "target_gain", gain)


@dataclass(frozen=True)
class IlcResult:
    """Learned drive, matching amplifier output, and the error history.

    ``error_db`` holds the normalized error power in dB per forward
    pass; entry 0 is the open-loop error of driving with the reference
    itself, entry i the error after i updates.
    """

    drive: IqSignal
    output: IqSignal
    error_db: tuple


def _error_db(err: np.ndarray, ref_power: float) -> float:
    power = float(np.real(np.vdot(err, err)))
    if power <= 0.0:
        return DB_FLOOR
    # max() keeps its first argument when the other is NaN, so a NaN
    # error survives the clamp and the divergence guard sees it.
    return max(10.0 * math.log10(power / ref_power), DB_FLOOR)


def _forward(drive: np.ndarray, rate: float, model: PaModel, iteration: int) -> IqSignal:
    """One amplifier pass of the learning loop; non-finite samples diverge."""
    if not np.all(np.isfinite(drive)):
        raise DivergenceError(f"learning loop diverged: drive not finite at iteration {iteration}")
    try:
        return pa_forward(IqSignal(drive, rate), model)
    except ConfigurationError:
        # The only invalid value pa_forward can produce from a valid
        # drive is a non-finite output sample.
        raise DivergenceError(
            f"learning loop diverged: amplifier output not finite at iteration {iteration}"
        ) from None


def ilc_learn(reference: IqSignal, model: PaModel, config: IlcConfig = IlcConfig()) -> IlcResult:
    """Learn an amplifier drive whose output reproduces ``reference``.

    Starting from the reference itself, each iteration adds
    learning_rate times the gain-normalized output error to the drive:

        x <- x + mu * (s - y / G)

    The loop aborts with DivergenceError once the error grows (or is
    NaN) for three consecutive iterations, or as soon as the drive or the
    amplifier output stops being finite.
    """
    target = reference.samples
    ref_power = float(np.real(np.vdot(target, target)))
    if ref_power == 0.0:
        raise ConfigurationError("reference signal has zero power")
    gain = config.target_gain if config.target_gain is not None else model.smallsignal_gain
    rate = reference.sample_rate_hz

    drive = target.copy()
    output = _forward(drive, rate, model, 0)
    error = target - output.samples / gain
    history = [_error_db(error, ref_power)]
    rising = 0
    for iteration in range(1, config.iterations + 1):
        drive = drive + config.learning_rate * error
        output = _forward(drive, rate, model, iteration)
        error = target - output.samples / gain
        history.append(_error_db(error, ref_power))
        if not history[-1] <= history[-2]:
            rising += 1
            if rising >= 3:
                raise DivergenceError(
                    f"learning loop diverged: error rose for 3 consecutive iterations "
                    f"(through iteration {iteration}) at learning_rate={config.learning_rate}"
                )
        else:
            rising = 0
    return IlcResult(drive=IqSignal(drive, rate), output=output, error_db=tuple(history))


# ---------------------------------------------------------------------------
# Amplifier model files share the coefficient-file layout with two extra
# headers for the gain and the clip level.


def write_pa_model(path, model: PaModel) -> None:
    gain = model.smallsignal_gain
    level = "none" if model.saturation_level is None else repr(model.saturation_level)
    lines = [
        f"format = {_PA_FORMAT_TAG}",
        f"smallsignal_gain = {gain.real!r} {gain.imag!r}",
        f"saturation_level = {level}",
    ]
    lines += structure_header_lines(model.coefficients.structure)
    lines.append("[coefficients]")
    lines += coefficient_record_lines(model.coefficients)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pa_model(path) -> PaModel:
    headers, records = split_header_and_records(path)
    header_map = {}
    for lineno, key, value in headers:
        if key in header_map:
            raise FormatError(f"duplicate header key {key!r}", path=path, line=lineno)
        header_map[key] = (lineno, value)
    if "format" not in header_map:
        raise FormatError("missing format header", path=path)
    tag = header_map.pop("format")[1]
    if tag != _PA_FORMAT_TAG:
        raise FormatError(f"unsupported format tag {tag!r}", path=path)

    if "smallsignal_gain" not in header_map:
        raise FormatError("missing smallsignal_gain header", path=path)
    lineno, value = header_map.pop("smallsignal_gain")
    tokens = value.split()
    try:
        if len(tokens) != 2:
            raise ValueError
        gain = complex(float(tokens[0]), float(tokens[1]))
    except ValueError:
        raise FormatError(
            f"smallsignal_gain needs two floats, got {value!r}", path=path, line=lineno
        ) from None

    if "saturation_level" not in header_map:
        raise FormatError("missing saturation_level header", path=path)
    lineno, value = header_map.pop("saturation_level")
    if value == "none":
        level = None
    else:
        try:
            level = float(value)
        except ValueError:
            raise FormatError(
                f"saturation_level must be a float or 'none', got {value!r}",
                path=path,
                line=lineno,
            ) from None

    unknown = set(header_map) - set(_AXIS_KEYS)
    if unknown:
        raise FormatError(f"unknown header keys {sorted(unknown)}", path=path)
    structure = structure_from_headers(header_map, path)
    values = values_from_records(structure, records, path)
    try:
        return PaModel(CoefficientVector(structure, values), gain, level)
    except ConfigurationError as exc:
        raise FormatError(f"invalid amplifier model: {exc}", path=path) from exc


def default_pa_model() -> PaModel:
    """The packaged reference amplifier preset."""
    resource = importlib.resources.files("dpdkit").joinpath(_PRESET_NAME)
    with importlib.resources.as_file(resource) as path:
        return read_pa_model(path)
