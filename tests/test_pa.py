"""Amplifier simulation, learning loop, and amplifier model files."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from dpdkit import pa_sim
from dpdkit.errors import ConfigurationError, DegenerateInputError, DivergenceError, FormatError
from dpdkit.gmp import Branch, CoefficientVector, full_structure
from dpdkit.pa_sim import (
    IlcConfig,
    PaModel,
    default_pa_model,
    ilc_learn,
    pa_forward,
    read_pa_model,
    write_pa_model,
)
from dpdkit.signal import DB_FLOOR, IqSignal, OfdmConfig, generate_ofdm, nmse_db_arrays


def _linear_pa(gain_value=1.0 + 0.0j, lags=1):
    """PA whose kernel set is delay taps only (first tap = gain_value)."""
    structure = full_structure(lags - 1, 1, 0)
    values = np.zeros(lags, dtype=np.complex128)
    values[0] = gain_value
    return PaModel(CoefficientVector(structure, values), smallsignal_gain=1.0)


@pytest.fixture(scope="module")
def preset():
    return default_pa_model()


@pytest.fixture(scope="module")
def unit_rms_ofdm():
    return generate_ofdm(OfdmConfig(64, 42, 64, 4, seed=1, target_rms=1.0))


# --- model validation --------------------------------------------------------


def test_model_requires_coefficient_vector():
    with pytest.raises(ConfigurationError):
        PaModel(np.ones(3, dtype=np.complex128))


def test_model_rejects_zero_gain():
    structure = full_structure(0, 1, 0)
    coeffs = CoefficientVector(structure, np.ones(1, dtype=np.complex128))
    with pytest.raises(ConfigurationError):
        PaModel(coeffs, smallsignal_gain=0.0)


def test_model_rejects_bad_saturation():
    structure = full_structure(0, 1, 0)
    coeffs = CoefficientVector(structure, np.ones(1, dtype=np.complex128))
    with pytest.raises(ConfigurationError):
        PaModel(coeffs, saturation_level=-1.0)
    with pytest.raises(ConfigurationError):
        PaModel(coeffs, saturation_level=0.0)


def test_model_holds_its_clip_level_as_a_float():
    structure = full_structure(0, 1, 0)
    coeffs = CoefficientVector(structure, np.ones(1, dtype=np.complex128))
    assert type(PaModel(coeffs, saturation_level=2).saturation_level) is float


# --- forward pass -------------------------------------------------------------


def test_forward_zero_in_zero_out(preset):
    out = pa_forward(IqSignal(np.zeros(64, dtype=np.complex128), 1.0), preset)
    assert np.all(out.samples == 0)


def test_forward_linear_memoryless_is_pure_gain():
    gain = 0.8 - 0.3j
    pa = _linear_pa(gain)
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    out = pa_forward(IqSignal(samples, 1.0), pa)
    assert np.array_equal(out.samples, gain * samples)


def test_clipped_forward_memory_stays_near_its_output(preset):
    # The clip works in place on the model output, which the returned
    # signal takes over without a copy.
    signal = generate_ofdm(OfdmConfig(64, 52, 512, 4, seed=11))
    pa = PaModel(preset.coefficients, saturation_level=1.0)
    tracemalloc.start()
    try:
        out = pa_forward(signal, pa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    magnitude = np.abs(out.samples)
    assert np.max(magnitude) <= 1.0 + 1e-15 and np.mean(magnitude > 1.0 - 1e-12) > 0.1
    assert peak <= 2 * out.samples.nbytes


def test_forward_linear_scale_doubles_exactly():
    pa = _linear_pa(0.9 + 0.1j, lags=3)
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    once = pa_forward(IqSignal(samples, 1.0), pa)
    twice = pa_forward(IqSignal(2.0 * samples, 1.0), pa)
    assert np.array_equal(twice.samples, 2.0 * once.samples)


def test_forward_saturation_clips_modulus_only():
    structure = full_structure(0, 1, 0)
    coeffs = CoefficientVector(structure, np.array([2.0 + 0.0j]))
    pa = PaModel(coeffs, saturation_level=1.5)
    samples = np.array([0.5, 1.0j, -1.0, 0.3 + 0.4j])
    out = pa_forward(IqSignal(samples, 1.0), pa)
    # inputs with |2 s| <= 1.5 pass through, the rest keep phase at |y| = 1.5
    assert out.samples[0] == 1.0
    assert np.abs(out.samples[1]) == pytest.approx(1.5, abs=1e-15)
    assert np.angle(out.samples[1]) == pytest.approx(np.pi / 2, abs=1e-15)
    assert np.abs(out.samples[2]) == pytest.approx(1.5, abs=1e-15)
    assert out.samples[3] == 0.6 + 0.8j


def test_preset_distortion_visible_but_moderate(preset, unit_rms_ofdm):
    out = pa_forward(unit_rms_ofdm, preset)
    level = nmse_db_arrays(
        out.samples / preset.smallsignal_gain, unit_rms_ofdm.samples
    )
    assert -20.0 < level < -5.0
    assert level == pytest.approx(-18.014, abs=0.5)  # frozen regression value


# --- learning loop -------------------------------------------------------------


def test_ilc_identity_pa_is_fixed_point():
    pa = _linear_pa(1.0)
    rng = np.random.default_rng(2)
    samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    reference = IqSignal(samples, 1.0)
    result = ilc_learn(reference, pa, IlcConfig(iterations=5))
    assert np.array_equal(result.drive.samples, samples)
    assert result.error_db == (DB_FLOOR,) * 6


def test_ilc_zero_rate_returns_stimulus(preset, unit_rms_ofdm):
    result = ilc_learn(unit_rms_ofdm, preset, IlcConfig(iterations=3, learning_rate=0.0))
    assert np.array_equal(result.drive.samples, unit_rms_ofdm.samples)
    assert len(result.error_db) == 4
    assert len(set(result.error_db)) == 1  # error never moves


def test_ilc_open_loop_entry_matches_forward_error(preset, unit_rms_ofdm):
    result = ilc_learn(unit_rms_ofdm, preset, IlcConfig(iterations=1))
    out = pa_forward(unit_rms_ofdm, preset)
    direct = nmse_db_arrays(
        out.samples / preset.smallsignal_gain, unit_rms_ofdm.samples
    )
    assert result.error_db[0] == pytest.approx(direct, abs=1e-12)


def test_ilc_output_field_consistent(preset, unit_rms_ofdm):
    result = ilc_learn(unit_rms_ofdm, preset, IlcConfig(iterations=2))
    replay = pa_forward(result.drive, preset)
    assert np.array_equal(result.output.samples, replay.samples)


def test_ilc_result_keeps_no_output_until_read_and_then_the_last_pass_bitwise(
    preset, unit_rms_ofdm
):
    # The loop's last amplifier output is let go; reading ``output``
    # forms it again from the drive, bit for bit the loop's last pass.
    passes = []

    def forward(signal, model):
        passes.append(pa_forward(signal, model))
        return passes[-1]

    with mock.patch.object(pa_sim, "pa_forward", forward):
        result = ilc_learn(unit_rms_ofdm, preset, IlcConfig(iterations=3))
    assert len(passes) == 4
    assert "output" not in vars(result)
    assert result.model is preset
    output = result.output
    assert vars(result)["output"] is output
    assert np.array_equal(output.samples, passes[-1].samples)


def test_ilc_result_names_the_gain_it_normalized_by(preset, unit_rms_ofdm):
    default = ilc_learn(unit_rms_ofdm, preset, IlcConfig(iterations=1))
    assert default.gain == preset.smallsignal_gain
    target_gain = 0.9 - 0.1j
    steered = ilc_learn(unit_rms_ofdm, preset, IlcConfig(iterations=1, target_gain=target_gain))
    assert steered.gain == target_gain
    out = pa_forward(unit_rms_ofdm, preset)
    direct = nmse_db_arrays(out.samples / target_gain, unit_rms_ofdm.samples)
    assert steered.error_db[0] == pytest.approx(direct, abs=1e-12)


def test_ilc_preset_error_monotone_and_deep(preset, unit_rms_ofdm):
    result = ilc_learn(unit_rms_ofdm, preset, IlcConfig(iterations=30, learning_rate=0.5))
    assert len(result.error_db) == 31
    for before, after in zip(result.error_db, result.error_db[1:]):
        assert after <= before + 1e-9
    assert result.error_db[-1] <= -50.0
    assert result.error_db[-1] == pytest.approx(-216.08, abs=2.0)  # frozen regression


def test_ilc_divergence_names_learning_rate():
    # A sign-flipped normalization target makes every update push the
    # drive further from the fixed point, so the error rises each pass.
    pa = _linear_pa(1.0)
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    config = IlcConfig(iterations=10, learning_rate=0.5, target_gain=-1.0)
    with pytest.raises(DivergenceError) as err:
        ilc_learn(IqSignal(samples, 1.0), pa, config)
    assert "0.5" in str(err.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ilc_overflowing_output_is_divergence(preset):
    loud = generate_ofdm(OfdmConfig(64, 42, 64, 4, seed=1, target_rms=50.0))
    with pytest.raises(DivergenceError, match="output not finite"):
        ilc_learn(loud, preset, IlcConfig(learning_rate=1.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ilc_overflowing_drive_is_divergence():
    # A subnormal normalization gain blows the first error up to infinity.
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    with pytest.raises(DivergenceError, match="drive not finite"):
        ilc_learn(IqSignal(samples, 1.0), _linear_pa(1.0), IlcConfig(target_gain=1e-310))


def test_ilc_nan_error_counts_as_rising(monkeypatch):
    assert np.isnan(pa_sim._ratio_db(pa_sim._power(np.array([np.nan + 0j])), 1.0))
    history = iter([-10.0, np.nan, np.nan, np.nan, -20.0])
    monkeypatch.setattr(pa_sim, "_ratio_db", lambda err_power, ref_power: next(history))
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    with pytest.raises(DivergenceError, match="3 consecutive"):
        ilc_learn(IqSignal(samples, 1.0), _linear_pa(1.0), IlcConfig(iterations=4))


def test_ilc_counts_only_consecutive_rises(monkeypatch):
    # Two rises, a fall, then two rises again: never three in a row.
    history = [-10.0, -5.0, -4.0, -20.0, -15.0, -10.0]
    values = iter(history)
    monkeypatch.setattr(pa_sim, "_ratio_db", lambda err_power, ref_power: next(values))
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    result = ilc_learn(IqSignal(samples, 1.0), _linear_pa(1.0), IlcConfig(iterations=5))
    assert result.error_db == tuple(history)


def test_ilc_rejects_zero_reference(preset):
    with pytest.raises(DegenerateInputError, match="zero power"):
        ilc_learn(IqSignal(np.zeros(16, dtype=np.complex128), 1.0), preset, IlcConfig())


def test_ilc_config_validation():
    with pytest.raises(ConfigurationError):
        IlcConfig(iterations=0)
    with pytest.raises(ConfigurationError):
        IlcConfig(learning_rate=-0.1)
    with pytest.raises(ConfigurationError):
        IlcConfig(learning_rate=1.5)
    with pytest.raises(ConfigurationError):
        IlcConfig(target_gain=0.0)
    assert IlcConfig(learning_rate=1.0).learning_rate == 1.0


# --- amplifier model files -----------------------------------------------------


def test_pa_model_round_trip(tmp_path, preset):
    path = tmp_path / "model.txt"
    write_pa_model(path, preset)
    back = read_pa_model(path)
    assert back.coefficients.structure == preset.coefficients.structure
    assert np.array_equal(back.coefficients.values, preset.coefficients.values)
    assert back.smallsignal_gain == preset.smallsignal_gain
    assert back.saturation_level == preset.saturation_level


def test_pa_model_round_trip_with_saturation(tmp_path):
    pa = PaModel(
        CoefficientVector(full_structure(1, 3, 1), np.arange(1, 7) * (0.5 - 0.25j)),
        smallsignal_gain=2.0 + 1.0j,
        saturation_level=1.75,
    )
    path = tmp_path / "model.txt"
    write_pa_model(path, pa)
    back = read_pa_model(path)
    assert np.array_equal(back.coefficients.values, pa.coefficients.values)
    assert back.smallsignal_gain == 2.0 + 1.0j
    assert back.saturation_level == 1.75


def test_pa_model_rejects_wrong_tag(tmp_path, preset):
    path = tmp_path / "model.txt"
    write_pa_model(path, preset)
    text = path.read_text().replace("pa-model/1", "pa-model/9")
    path.write_text(text)
    with pytest.raises(FormatError):
        read_pa_model(path)


def test_pa_model_missing_gain_header(tmp_path, preset):
    path = tmp_path / "model.txt"
    write_pa_model(path, preset)
    lines = [
        line
        for line in path.read_text().splitlines()
        if not line.startswith("smallsignal_gain")
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        read_pa_model(path)
    assert "smallsignal_gain" in str(err.value)


def test_pa_model_duplicate_header(tmp_path, preset):
    path = tmp_path / "model.txt"
    write_pa_model(path, preset)
    lines = path.read_text().splitlines()
    lines.insert(1, "smallsignal_gain = 2.0 0.0")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        read_pa_model(path)
    assert "duplicate" in str(err.value)


# --- the shipped preset ---------------------------------------------------------


def test_preset_structure_and_gain(preset):
    structure = preset.coefficients.structure
    assert structure.aligned_orders == (0, 2, 4, 6)
    assert structure.aligned_lags == (0, 1, 2, 3, 4)
    assert structure.lagging_orders == (2, 4, 6)
    assert structure.lagging_lags == (0, 1, 2, 3, 4)
    assert structure.lagging_cross == (1,)
    assert structure.leading_lags == ()
    assert structure.kernel_count == 35
    assert preset.smallsignal_gain == 1.0 + 0.0j
    assert preset.saturation_level is None


def test_preset_linear_tap_dominates(preset):
    structure = preset.coefficients.structure
    values = preset.coefficients.values
    linear_at_zero = None
    rest = []
    for descriptor, value in zip(structure.descriptors(), values):
        if (
            descriptor.branch is Branch.ALIGNED
            and descriptor.order_exponent == 0
            and descriptor.lag == 0
        ):
            linear_at_zero = value
        else:
            rest.append(abs(value))
    assert linear_at_zero == 1.0 + 0.0j
    assert max(rest) < 0.1


def test_preset_shallower_than_search_structures(preset):
    # The preset's true depth must sit strictly inside the depths the
    # experiments search over, so depth reduction is observable.
    deepest = max(d.deepest_sample for d in preset.coefficients.structure.descriptors())
    assert deepest == 5
    assert max(preset.coefficients.structure.aligned_lags) == 4
    assert deepest < 9 < 19
