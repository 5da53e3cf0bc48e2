"""Behavioral power-amplifier simulation and iterative drive learning.

A simulated amplifier is a memory-polynomial coefficient set plus a
declared small-signal gain and an optional hard output clip.  The
iterative learning loop adjusts the amplifier input until the
(gain-normalized) output reproduces a reference waveform, which gives a
ground-truth predistorted drive to fit inverse models against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import importlib.resources

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DivergenceError,
    FormatError,
    _gain,
    _integer,
    _positive,
    _real,
)
from .gmp import (
    CoefficientVector,
    _format_value,
    apply_model,
    read_coefficient_file,
    write_coefficient_file,
)
from .signal import IqSignal, _power, _ratio_db

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
        object.__setattr__(
            self, "smallsignal_gain", _gain("smallsignal_gain", self.smallsignal_gain)
        )
        if self.saturation_level is not None:
            _positive("saturation_level", self.saturation_level)
            object.__setattr__(self, "saturation_level", float(self.saturation_level))


def pa_forward(signal, model: PaModel) -> IqSignal:
    """Amplifier response to ``signal``, including the clip stage."""
    out = apply_model(signal, model.coefficients)
    if model.saturation_level is None:
        return out
    # The model output is a fresh array that nothing else refers to, so
    # it is clipped in place and handed on without a copy.
    samples = out.samples
    samples.setflags(write=True)
    magnitude = np.abs(samples)
    over = magnitude > model.saturation_level
    if np.any(over):
        scale = np.divide(model.saturation_level, magnitude, out=magnitude, where=over)
        np.multiply(samples, scale, out=samples, where=over)
    return IqSignal._own(samples, out.sample_rate_hz)


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
        _integer("iterations", self.iterations, 1)
        _real("learning_rate", self.learning_rate)
        if not (0.0 <= self.learning_rate <= 1.0):
            raise ConfigurationError(
                f"learning_rate must lie in [0, 1], got {self.learning_rate}"
            )
        if self.target_gain is not None:
            object.__setattr__(self, "target_gain", _gain("target_gain", self.target_gain))


@dataclass(frozen=True)
class IlcResult:
    """Learned drive, the amplifier it was learned on, and the error history.

    ``error_db`` holds the normalized error power in dB per forward
    pass; entry 0 is the open-loop error of driving with the reference
    itself, entry i the error after i updates.  ``gain`` is the gain the
    loop normalized the output by.  The amplifier output of the drive
    is not kept from the loop: ``output`` forms it on first access, bit
    for bit the loop's last pass.
    """

    drive: IqSignal
    model: PaModel
    error_db: tuple
    gain: complex

    @cached_property
    def output(self) -> IqSignal:
        """The amplifier output of ``drive``."""
        return pa_forward(self.drive, self.model)


def _forward(drive: np.ndarray, rate: float, model: PaModel, iteration: int) -> tuple:
    """One amplifier pass of the learning loop: the drive as a signal,
    which takes the fresh array over, and the amplifier output.
    Non-finite samples diverge."""
    if not np.isfinite(drive).all():
        raise DivergenceError(f"learning loop diverged: drive not finite at iteration {iteration}")
    driven = IqSignal._own(drive, rate)
    try:
        return driven, pa_forward(driven, model)
    except DivergenceError:
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
    ref_power = _power(target)
    if ref_power == 0.0:
        raise DegenerateInputError("reference signal has zero power")
    gain = config.target_gain if config.target_gain is not None else model.smallsignal_gain
    rate = reference.sample_rate_hz

    # Each new drive is a fresh array, which its signal takes over.
    drive = target.copy()
    driven, output = _forward(drive, rate, model, 0)
    error = target - output.samples / gain
    history = [_ratio_db(_power(error), ref_power)]
    rising = 0
    for iteration in range(1, config.iterations + 1):
        drive = drive + config.learning_rate * error
        driven, output = _forward(drive, rate, model, iteration)
        error = target - output.samples / gain
        history.append(_ratio_db(_power(error), ref_power))
        if not history[-1] <= history[-2]:
            rising += 1
            if rising >= 3:
                raise DivergenceError(
                    f"learning loop diverged: error rose for 3 consecutive iterations "
                    f"(through iteration {iteration}) at learning_rate={config.learning_rate}"
                )
        else:
            rising = 0
    return IlcResult(drive=driven, model=model, error_db=tuple(history), gain=gain)


# ---------------------------------------------------------------------------
# Amplifier model files use the coefficient-file layout of ``gmp`` under
# their own format tag, with two extra headers named after the fields of
# ``PaModel``: the small-signal gain as two floats and the clip level as a
# float or ``none``.

_PA_HEADERS = (("smallsignal_gain", "complex"), ("saturation_level", "float?"))


def write_pa_model(path, model: PaModel) -> None:
    headers = [(key, _format_value(getattr(model, key))) for key, _ in _PA_HEADERS]
    write_coefficient_file(path, _PA_FORMAT_TAG, model.coefficients, headers)


def read_pa_model(path) -> PaModel:
    extras, coeffs = read_coefficient_file(path, _PA_FORMAT_TAG, _PA_HEADERS)
    try:
        return PaModel(coeffs, **extras)
    except ConfigurationError as exc:
        raise FormatError(f"invalid amplifier model: {exc}", path=path) from exc


def default_pa_model() -> PaModel:
    """The packaged reference amplifier preset."""
    resource = importlib.resources.files("dpdkit").joinpath(_PRESET_NAME)
    with importlib.resources.as_file(resource) as path:
        return read_pa_model(path)
