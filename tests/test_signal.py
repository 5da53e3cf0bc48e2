"""Signal generation, metrics, and IQ file format."""
from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from dpdkit.errors import (
    ConfigurationError,
    DegenerateAlignmentError,
    DegenerateInputError,
    DimensionError,
    FormatError,
)
from dpdkit.signal import (
    DB_FLOOR,
    IqSignal,
    MetricReport,
    OfdmConfig,
    evm_db,
    generate_ofdm,
    nmse_db,
    nmse_db_arrays,
    read_iq,
    write_iq,
)


def test_signal_length_and_rms():
    config = OfdmConfig(64, 52, 1, 2, seed=7)
    signal = generate_ofdm(config)
    assert len(signal.samples) == 64 * 2 * 1
    assert signal.rms == pytest.approx(1.0, rel=1e-9)


def test_rms_is_the_plain_formula_where_the_squares_are_finite():
    signal = generate_ofdm(OfdmConfig(64, 42, 4, 4, seed=3, target_rms=1e150))
    assert signal.rms == float(np.sqrt(np.mean(np.abs(signal.samples) ** 2)))


def test_rms_is_the_plain_formula_where_the_mean_square_is_a_normal_float():
    signal = generate_ofdm(OfdmConfig(64, 42, 4, 4, seed=3, target_rms=1e-150))
    assert signal.rms == float(np.sqrt(np.mean(np.abs(signal.samples) ** 2)))


@pytest.mark.parametrize("target", [1e-300, 1e-160])
def test_rms_whose_squares_underflow(target):
    # |s|^2 leaves the normal floats from about 1e-154 on, and is zero
    # below about 1e-162.
    signal = generate_ofdm(OfdmConfig(64, 42, 4, 4, seed=3, target_rms=target))
    assert signal.rms == pytest.approx(target, rel=1e-12, abs=0.0)


def test_rms_of_an_all_zero_signal_is_zero():
    assert IqSignal(np.zeros(8, dtype=np.complex128), 1.0).rms == 0.0


def test_target_rms_scaling():
    signal = generate_ofdm(OfdmConfig(64, 42, 4, 4, seed=3, target_rms=0.25))
    assert signal.rms == pytest.approx(0.25, rel=1e-9)


def test_determinism_by_seed():
    config = OfdmConfig(64, 52, 2, 2, seed=11)
    a = generate_ofdm(config)
    b = generate_ofdm(config)
    assert np.array_equal(a.samples, b.samples)
    c = generate_ofdm(OfdmConfig(64, 52, 2, 2, seed=12))
    assert not np.array_equal(a.samples, c.samples)


def test_guard_band_required():
    with pytest.raises(ConfigurationError):
        OfdmConfig(64, 64, 1, 2)
    with pytest.raises(ConfigurationError):
        OfdmConfig(64, 65, 1, 2)


def test_spectrum_confined_to_active_band():
    config = OfdmConfig(64, 40, 8, 4, seed=5)
    signal = generate_ofdm(config)
    spectrum = np.fft.fft(signal.samples.reshape(8, -1), axis=1)
    # Active bins sit symmetrically around DC in the oversampled grid.
    occupied = np.zeros(64 * 4, dtype=bool)
    half = 40 // 2
    occupied[1 : half + 1] = True
    occupied[-half:] = True
    idle_power = np.sum(np.abs(spectrum[:, ~occupied]) ** 2)
    total = np.sum(np.abs(spectrum) ** 2)
    assert idle_power <= 1e-20 * total


@pytest.mark.parametrize("name", ["qpsk", "qam16", "qam64"])
def test_constellations_have_unit_average_power(name):
    config = OfdmConfig(64, 52, 16, 2, seed=9, constellation=name)
    signal = generate_ofdm(config)
    assert signal.rms == pytest.approx(1.0, rel=1e-9)


def test_unknown_constellation_rejected():
    with pytest.raises(ConfigurationError):
        OfdmConfig(64, 52, 1, 2, constellation="bpsk")


def test_signal_samples_read_only():
    signal = generate_ofdm(OfdmConfig(64, 52, 1, 2, seed=1))
    with pytest.raises(ValueError):
        signal.samples[0] = 0


# --- metrics -------------------------------------------------------------


def _sig(values):
    return IqSignal(np.asarray(values, dtype=np.complex128), 1.0)


def test_nmse_exact_match_hits_clamp():
    ref = generate_ofdm(OfdmConfig(64, 52, 1, 2, seed=2))
    assert nmse_db(ref, ref) == DB_FLOOR


def test_nmse_nan_estimate_is_nan_not_the_floor():
    # A broken estimate must not read as a perfect reconstruction.
    ref = np.array([1.0, 1.0j, -2.0])
    assert np.isnan(nmse_db_arrays(np.array([1.0, np.nan, -2.0]), ref))


def test_nmse_zero_estimate_is_zero_db():
    ref = _sig([1.0, 1.0j, -2.0])
    est = _sig([0.0, 0.0, 0.0])
    assert nmse_db(est, ref) == pytest.approx(0.0, abs=1e-12)


def test_nmse_relative_perturbation():
    ref = generate_ofdm(OfdmConfig(64, 52, 2, 2, seed=4))
    est = IqSignal(ref.samples * (1 + 1e-2), 1.0)
    assert nmse_db(est, ref) == pytest.approx(-40.0, abs=0.01)


def test_nmse_scale_invariance():
    ref = generate_ofdm(OfdmConfig(64, 52, 1, 2, seed=6))
    est = IqSignal(ref.samples + 0.01, 1.0)
    base = nmse_db(est, ref)
    c = 0.7 - 1.3j
    scaled = nmse_db(IqSignal(est.samples * c, 1.0), IqSignal(ref.samples * c, 1.0))
    assert scaled == pytest.approx(base, abs=1e-12)


def test_nmse_errors():
    with pytest.raises(DimensionError):
        nmse_db(_sig([1, 2]), _sig([1, 2, 3]))
    with pytest.raises(DegenerateInputError):
        nmse_db(_sig([1, 2]), _sig([0, 0]))


def test_evm_gain_alignment():
    ref = generate_ofdm(OfdmConfig(64, 52, 1, 2, seed=8))
    report = evm_db(IqSignal(ref.samples * 2j, 1.0), ref)
    assert report.evm_db == DB_FLOOR
    assert report.aligned_gain == pytest.approx(2j)


def test_evm_orthogonal_perturbation():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    noise = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    noise -= ref * (np.vdot(ref, noise) / np.vdot(ref, ref))
    noise *= np.sqrt(1e-4 * np.sum(np.abs(ref) ** 2) / np.sum(np.abs(noise) ** 2))
    report = evm_db(_sig(ref + noise), _sig(ref))
    assert report.evm_db == pytest.approx(-40.0, abs=0.05)
    assert report.aligned_gain == pytest.approx(1.0, abs=1e-9)


def test_evm_scale_invariance():
    ref = generate_ofdm(OfdmConfig(64, 52, 1, 2, seed=10))
    received = IqSignal(ref.samples + 0.02j, 1.0)
    base = evm_db(received, ref).evm_db
    scaled = evm_db(IqSignal(received.samples * (3 - 4j), 1.0), ref).evm_db
    assert scaled == pytest.approx(base, abs=1e-9)


def test_evm_zero_received_degenerate():
    ref = _sig([1, 1j, -1])
    with pytest.raises(DegenerateAlignmentError):
        evm_db(_sig([0, 0, 0]), ref)


def test_metric_report_line():
    line = MetricReport(-40.5, -42.25, 1 + 0j).as_line()
    assert "nmse_db=" in line and "evm_db=" in line and "aligned_gain=" in line
    assert "\n" not in line


# --- IQ files ------------------------------------------------------------


def test_iq_round_trip(tmp_path):
    signal = generate_ofdm(OfdmConfig(64, 52, 1, 2, seed=13, sample_rate_hz=20e6))
    path = tmp_path / "sig.iq"
    write_iq(signal, path)
    back = read_iq(path)
    assert np.array_equal(back.samples, signal.samples)
    assert back.sample_rate_hz == signal.sample_rate_hz


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=75, deadline=None)
@given(
    parts=st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=40),
    rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_iq_round_trip_is_bitwise(tmp_path_factory, parts, rate):
    # Signed zeros and subnormals included: the payload is read as it was written.
    samples = np.empty(len(parts), dtype=np.complex128)
    samples.real, samples.imag = np.array(parts).T
    path = tmp_path_factory.mktemp("iq") / "sig.iq"
    write_iq(IqSignal(samples, rate), path)
    back = read_iq(path)
    assert np.array_equal(back.samples.view(np.uint64), samples.view(np.uint64))
    assert back.sample_rate_hz == rate


def test_iq_round_trip_keeps_negative_zero(tmp_path):
    path = tmp_path / "sig.iq"
    write_iq(IqSignal([complex(-0.0, 1.0), complex(2.0, -0.0)], 1.0), path)
    back = read_iq(path).samples
    assert np.signbit(back.real).tolist() == [True, False]
    assert np.signbit(back.imag).tolist() == [False, True]


def test_iq_truncated_payload(tmp_path):
    signal = generate_ofdm(OfdmConfig(64, 52, 1, 2, seed=14))
    path = tmp_path / "sig.iq"
    write_iq(signal, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError) as err:
        read_iq(path)
    assert "byte" in str(err.value)


def test_iq_bad_magic(tmp_path):
    signal = generate_ofdm(OfdmConfig(64, 52, 1, 2, seed=15))
    path = tmp_path / "sig.iq"
    write_iq(signal, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as caught:
        read_iq(path)
    assert (caught.value.path, caught.value.offset, caught.value.line) == (path, 0, None)


def test_iq_empty_file(tmp_path):
    path = tmp_path / "empty.iq"
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        read_iq(path)


def test_nmse_db_arrays_matches_signal_form():
    ref = generate_ofdm(OfdmConfig(64, 52, 1, 2, seed=16))
    est = IqSignal(ref.samples * (1 + 1e-3), 1.0)
    assert nmse_db_arrays(est.samples, ref.samples) == nmse_db(est, ref)
    assert nmse_db_arrays(list(est.samples), list(ref.samples)) == nmse_db(est, ref)
