"""Configuration, experiment outputs, and command-line behavior."""

import contextlib
import hashlib
import io
import os
import re
import subprocess

import numpy as np
import pytest

from dpdkit.cli import cli
from dpdkit.errors import ConfigurationError
from dpdkit.gmp import (
    CoefficientVector,
    build_kernel_matrix,
    effective_memory_depth,
    full_structure,
    kernel_count,
    read_coefficients,
)
from dpdkit.pa_sim import PaModel, default_pa_model, pa_forward, write_pa_model
from dpdkit.pipeline import (
    METHODS,
    _OutputDir,
    load_config,
    matched_count_lasso,
    parse_config,
    run_experiment1,
    run_experiment2,
)
from dpdkit.signal import DB_FLOOR, generate_ofdm, read_iq
from dpdkit.solver import BcdConfig, lasso_iterated_ridge


# A deliberately small problem: 2048 samples, 12 kernels.  Experiments
# at this size finish in tens of milliseconds, so every test can afford
# a full run.
TINY = """
signal.n_symbols = 8
signal.n_active = 42
signal.target_rms = 0.47
ilc.iterations = 3
dpd.memory_depth = 3
dpd.max_order = 3
dpd.lagging_depth = 1
schedule.threshold_scale = 0.008
standard_lasso.lambda = 0.2
bcd.outer_iterations = 4
"""


def tiny_config(tmp_path, extra=""):
    text = TINY + f"output.dir = {tmp_path / 'out'}\n" + extra
    return parse_config(text)


def write_cfg(tmp_path, extra="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(TINY + f"output.dir = {tmp_path / 'out'}\n" + extra)
    return path


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(argv)
    return code, out.getvalue(), err.getvalue()


def read_table(path):
    """Rows of a CSV report, with the leading hash comment split off."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config-hash: ")
    header = lines[0][len("# config-hash: "):]
    rows = [line.split(",") for line in lines[1:]]
    return header, rows[0], rows[1:]


# ---------------------------------------------------------------------------
# Config parsing.


def test_empty_config_uses_documented_defaults():
    config = parse_config("")
    s = config.signal
    assert (s.n_subcarriers, s.n_active, s.n_symbols) == (64, 52, 64)
    assert s.oversampling_factor == 4
    assert s.seed == 1
    assert s.target_rms == 1.0
    assert config.structure.kernel_count == full_structure(9, 7, 1).kernel_count
    assert config.ilc.iterations == 30
    assert config.ilc.learning_rate == 0.5
    assert config.ilc.target_gain is None
    assert config.bcd.outer_iterations == 10
    assert config.standard_lasso_lambda == 1e-4
    assert config.seed == 2
    assert str(config.resolved_output_dir()) == "out"


def test_comments_and_blank_lines_are_ignored():
    config = parse_config(
        "# a full-line comment\n\nsignal.n_symbols = 8  # trailing comment\n"
    )
    assert config.signal.n_symbols == 8


def test_duplicate_key_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config("signal.seed = 1\nsignal.seed = 2\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="signal.bandwidth"):
        parse_config("signal.bandwidth = 20\n")


def test_line_without_equals_rejected():
    with pytest.raises(ConfigurationError):
        parse_config("signal.n_symbols 8\n")


def test_key_without_section_rejected():
    with pytest.raises(ConfigurationError):
        parse_config("n_symbols = 8\n")


def test_bad_int_value_rejected():
    with pytest.raises(ConfigurationError, match="n_symbols"):
        parse_config("signal.n_symbols = eight\n")


def test_bad_float_value_rejected():
    with pytest.raises(ConfigurationError, match="target_rms"):
        parse_config("signal.target_rms = loud\n")


def test_bad_bool_value_rejected():
    with pytest.raises(ConfigurationError, match="include_leading"):
        parse_config("dpd.include_leading = yes\n")


def test_target_gain_accepts_pair_and_none():
    config = parse_config("ilc.target_gain = 0.5 -0.25\n")
    assert config.ilc.target_gain == 0.5 - 0.25j
    assert parse_config("ilc.target_gain = none\n").ilc.target_gain is None


def test_override_wins_over_file_entry():
    config = parse_config(
        "signal.n_symbols = 8\n", overrides=["signal.n_symbols=16"]
    )
    assert config.signal.n_symbols == 16


def test_override_without_equals_rejected():
    with pytest.raises(ConfigurationError):
        parse_config("", overrides=["signal.n_symbols"])


# ---------------------------------------------------------------------------
# Schedule configuration.


def test_custom_schedule_builds_from_per_order_entries():
    config = parse_config(
        "dpd.memory_depth = 3\ndpd.max_order = 3\ndpd.lagging_depth = 1\n"
        "schedule.mode = custom\n"
        "schedule.lambda_0 = 0.01\nschedule.lambda_2 = 0.04\n"
        "schedule.threshold_0 = 0.1\nschedule.threshold_2 = 0.3\n"
        "schedule.lambda_scale = 2.0\n"
    )
    schedule = config.schedule()
    assert schedule.lambda_for(0) == pytest.approx(0.02)
    assert schedule.lambda_for(2) == pytest.approx(0.08)
    assert schedule.threshold_for(0) == pytest.approx(0.1)
    assert schedule.threshold_for(2) == pytest.approx(0.3)


def test_custom_schedule_requires_lambda_entries():
    with pytest.raises(ConfigurationError):
        parse_config("schedule.mode = custom\n").schedule()


def test_default_schedule_rejects_per_order_entries():
    with pytest.raises(ConfigurationError):
        parse_config("schedule.lambda_2 = 0.5\n")


def test_odd_order_schedule_key_rejected():
    with pytest.raises(ConfigurationError, match="lambda_3"):
        parse_config("schedule.mode = custom\nschedule.lambda_3 = 0.5\n")


def test_default_schedule_scales_flow_through():
    config = parse_config(
        "dpd.memory_depth = 3\ndpd.max_order = 3\n"
        "schedule.lambda_scale = 10.0\n"
    )
    assert config.schedule().lambda_for(0) == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# Canonical form and hashing.


def test_canonical_text_round_trips_to_same_hash(tmp_path):
    config = tiny_config(tmp_path)
    again = parse_config(config.canonical_text())
    assert again.config_hash == config.config_hash


def test_custom_schedule_survives_canonical_round_trip():
    config = parse_config(
        "dpd.memory_depth = 3\ndpd.max_order = 3\n"
        "schedule.mode = custom\n"
        "schedule.lambda_0 = 0.01\nschedule.lambda_2 = 0.04\n"
    )
    again = parse_config(config.canonical_text())
    assert again.config_hash == config.config_hash
    assert again.schedule().lambda_for(2) == pytest.approx(0.04)


def test_config_hash_is_sha256_of_canonical_text(tmp_path):
    config = tiny_config(tmp_path)
    digest = hashlib.sha256(config.canonical_text().encode("ascii")).hexdigest()
    assert config.config_hash == digest


def test_any_setting_change_changes_hash(tmp_path):
    base = tiny_config(tmp_path)
    for extra in ("run.seed = 7\n", "bcd.inner_tolerance = 1e-9\n"):
        assert tiny_config(tmp_path, extra).config_hash != base.config_hash


# ---------------------------------------------------------------------------
# Derived pieces.


def test_validation_signal_swaps_in_run_seed(tmp_path):
    config = tiny_config(tmp_path, "run.seed = 9\n")
    validation = config.validation_signal()
    assert validation.seed == 9
    assert validation.n_symbols == config.signal.n_symbols
    assert validation.target_rms == config.signal.target_rms


def test_default_preset_loads_shipped_model():
    model = parse_config("").load_pa_model()
    shipped = default_pa_model()
    assert model.smallsignal_gain == shipped.smallsignal_gain
    assert np.array_equal(model.coefficients.values, shipped.coefficients.values)


def test_relative_preset_resolves_against_config_file(tmp_path, monkeypatch):
    structure = full_structure(0, 1, 0)
    model = PaModel(
        CoefficientVector(structure, np.array([2.0 + 0.0j])),
        smallsignal_gain=2.0 + 0.0j,
    )
    write_pa_model(tmp_path / "amp.txt", model)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pa.preset = amp.txt\n")
    monkeypatch.chdir(tmp_path / "..")
    loaded = load_config(cfg).load_pa_model()
    assert loaded.smallsignal_gain == 2.0 + 0.0j


def test_output_dir_stays_relative_to_caller(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output.dir = results\n")
    assert str(load_config(cfg).resolved_output_dir()) == "results"


# ---------------------------------------------------------------------------
# Count-matched penalty search.


def _tiny_training_pair():
    config = parse_config(TINY)
    signal = generate_ofdm(config.signal)
    matrix = build_kernel_matrix(signal, config.structure)
    target = pa_forward(signal, default_pa_model())
    return matrix, target


def test_matched_count_finds_an_achieved_count():
    matrix, target = _tiny_training_pair()
    bcd = BcdConfig()
    # Pick a count the solver actually achieves somewhere on the path, so
    # the bisection has an exact landing spot to find.
    lam_max = 2.0 * float(np.max(np.abs(matrix.data.conj().T @ target.samples)))
    reference = lasso_iterated_ridge(matrix, target, 0.05 * lam_max, 1e-8, bcd)
    want = kernel_count(reference)
    lam, coeffs, matched = matched_count_lasso(matrix, target, want, 1e-8, bcd)
    assert matched
    assert kernel_count(coeffs) == want
    assert 0.0 < lam < lam_max


def test_matched_count_reports_unreachable_target():
    matrix, target = _tiny_training_pair()
    lam, coeffs, matched = matched_count_lasso(matrix, target, 50, 1e-8, BcdConfig())
    assert not matched
    assert kernel_count(coeffs) <= matrix.data.shape[1]


# ---------------------------------------------------------------------------
# Experiment 1 outputs.


def test_experiment1_writes_hash_stamped_reports(tmp_path):
    config = tiny_config(tmp_path)
    trace, maps = run_experiment1(config)
    out = tmp_path / "out"
    names = (
        "exp1_trace.csv",
        "exp1_kernel_maps.csv",
        "exp1_standard_lasso_map.csv",
        "exp1_summary.csv",
    )
    for name in names:
        header, _, _ = read_table(out / name)
        assert header == config.config_hash

    _, columns, rows = read_table(out / "exp1_trace.csv")
    assert columns == ["iteration", "nmse_db", "kernel_count", "effective_memory_depth"]
    assert len(rows) == config.bcd.outer_iterations
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    for r in rows:
        assert float(r[1]) < 0.0

    assert len(maps) == len(trace.records) == config.bcd.outer_iterations
    assert any(r is trace.selected for r in trace.records)


def test_experiment1_summary_keys(tmp_path):
    config = tiny_config(tmp_path)
    run_experiment1(config)
    _, columns, rows = read_table(tmp_path / "out" / "exp1_summary.csv")
    assert columns == ["key", "value"]
    summary = {r[0]: r[1] for r in rows}
    assert list(summary) == [
        "ls_full_nmse_db",
        "ls_full_kernel_count",
        "bw_selected_iteration",
        "bw_nmse_db",
        "bw_kernel_count",
        "bw_effective_memory_depth",
        "standard_lasso_lambda",
        "standard_lasso_kernel_count",
        "standard_lasso_effective_memory_depth",
        "standard_lasso_matched",
        "ilc_error_db",
    ]
    assert summary["ls_full_kernel_count"] == "12"
    assert summary["standard_lasso_matched"] in ("true", "false")
    assert float(summary["ilc_error_db"]) < 0.0
    assert 1 <= int(summary["bw_selected_iteration"]) <= config.bcd.outer_iterations


def test_experiment1_kernel_map_rows_are_active_kernels(tmp_path):
    config = tiny_config(tmp_path)
    run_experiment1(config)
    _, columns, rows = read_table(tmp_path / "out" / "exp1_kernel_maps.csv")
    assert columns == ["iteration", "branch", "order", "lag", "offset", "magnitude"]
    assert rows
    for r in rows:
        assert r[1] in ("aligned", "lagging", "leading")
        assert int(r[2]) % 2 == 0
        assert float(r[5]) > 0.0


# ---------------------------------------------------------------------------
# Experiment 2 report.


def test_experiment2_reports_all_methods_in_order(tmp_path):
    report = run_experiment2(tiny_config(tmp_path))
    assert tuple(row.method for row in report.rows) == METHODS
    baseline = report.row("no-dpd")
    assert baseline.kernel_count == 0
    assert baseline.effective_memory_depth == -1
    assert baseline.evm_db < 0.0
    assert report.row("ls-full").kernel_count == 12


def test_experiment2_refinement_preserves_support(tmp_path):
    report = run_experiment2(tiny_config(tmp_path))
    for method in ("lasso", "bwlasso"):
        plain = report.row(f"{method}-nr")
        refined = report.row(f"{method}-r")
        assert refined.kernel_count == plain.kernel_count
        assert refined.effective_memory_depth == plain.effective_memory_depth


def test_experiment2_rows_match_persisted_coefficients(tmp_path):
    config = tiny_config(tmp_path)
    report = run_experiment2(config)
    for row in report.rows:
        if row.method == "no-dpd":
            continue
        coeffs = read_coefficients(tmp_path / "out" / f"exp2_coeffs_{row.method}.txt")
        assert kernel_count(coeffs) == row.kernel_count
        assert effective_memory_depth(coeffs) == row.effective_memory_depth


def test_experiment2_comparison_table_matches_report(tmp_path):
    config = tiny_config(tmp_path)
    report = run_experiment2(config)
    header, columns, rows = read_table(tmp_path / "out" / "exp2_comparison.csv")
    assert header == config.config_hash
    assert columns == ["method", "evm_db", "nmse_db", "kernel_count", "effective_memory_depth"]
    assert [r[0] for r in rows] == list(METHODS)
    for r, row in zip(rows, report.rows):
        assert float(r[1]) == row.evm_db
        assert int(r[3]) == row.kernel_count


def test_experiments_rerun_byte_identical(tmp_path):
    config = tiny_config(tmp_path)
    out = tmp_path / "out"

    def snapshot():
        run_experiment1(config)
        run_experiment2(config)
        return {name: (out / name).read_bytes() for name in os.listdir(out)}

    first = snapshot()
    second = snapshot()
    assert first == second


def test_failed_experiment_removes_partial_outputs(tmp_path):
    config = tiny_config(tmp_path)
    with pytest.raises(RuntimeError):
        with _OutputDir(config) as out:
            out.write_table("partial.csv", ("a",), [(1,)])
            raise RuntimeError("downstream stage failed")
    assert not (tmp_path / "out" / "partial.csv").exists()


# ---------------------------------------------------------------------------
# A distortion-free amplifier: nothing to linearize, so every variant
# reduces to (at most) the linear kernels and validation error sits at
# the floor.  The dense solve keeps numerical dust on the nonlinear
# columns, which bounds how literally "at the floor" can hold for it.


@pytest.fixture(scope="module")
def linear_pa_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("linear_pa")
    structure = full_structure(0, 1, 0)
    model = PaModel(
        CoefficientVector(structure, np.array([1.0 + 0.0j])),
        smallsignal_gain=1.0 + 0.0j,
    )
    write_pa_model(tmp / "pa_linear.txt", model)
    # Enough inner iterations to let straggling near-zero coefficients
    # decay below the prune threshold; with the default 50 they stall a
    # few orders of magnitude above it.
    config = parse_config(
        TINY
        + f"pa.preset = {tmp / 'pa_linear.txt'}\n"
        + f"output.dir = {tmp / 'out'}\n"
        + "bcd.inner_ridge_iterations = 800\n"
        + "bcd.inner_tolerance = 1e-12\n"
        + "standard_lasso.zero_threshold = 1e-6\n"
    )
    return run_experiment2(config), tmp / "out"


def test_linear_pa_needs_no_predistortion(linear_pa_report):
    report, _ = linear_pa_report
    for method in ("no-dpd", "lasso-nr", "lasso-r", "bwlasso-nr", "bwlasso-r"):
        assert report.row(method).evm_db == DB_FLOOR
    assert report.row("ls-full").evm_db <= -200.0


def test_linear_pa_selects_only_linear_kernels(linear_pa_report):
    _, out = linear_pa_report
    for method in ("lasso-nr", "lasso-r", "bwlasso-nr", "bwlasso-r"):
        coeffs = read_coefficients(out / f"exp2_coeffs_{method}.txt")
        active = [
            desc
            for desc, value in zip(coeffs.structure.descriptors(), coeffs.values)
            if value != 0
        ]
        assert active
        assert all(desc.order_exponent == 0 for desc in active)

    dense = read_coefficients(out / "exp2_coeffs_ls-full.txt")
    linear_peak = max(
        abs(v)
        for d, v in zip(dense.structure.descriptors(), dense.values)
        if d.order_exponent == 0
    )
    nonlinear_peak = max(
        abs(v)
        for d, v in zip(dense.structure.descriptors(), dense.values)
        if d.order_exponent != 0
    )
    assert nonlinear_peak <= 1e-9 * linear_peak


# ---------------------------------------------------------------------------
# Command line.


def test_cli_help_exits_zero():
    assert run_cli(["--help"])[0] == 0
    assert run_cli(["fit", "--help"])[0] == 0


def test_cli_without_command_is_usage_error():
    code, _, err = run_cli([])
    assert code == 1
    assert "usage error" in err


def test_cli_suggests_closest_flag(tmp_path):
    cfg = write_cfg(tmp_path)
    code, _, err = run_cli(["exp1", "--config", str(cfg), "--sett", "a=b"])
    assert code == 1
    assert "did you mean --set?" in err


def test_cli_missing_config_file_is_data_error(tmp_path):
    code, _, err = run_cli(["exp1", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "data error" in err


def test_cli_bad_config_value_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("signal.n_symbols = eight\n")
    code, _, err = run_cli(["exp1", "--config", str(cfg)])
    assert code == 1
    assert "n_symbols" in err


def test_cli_gen_signal_matches_library(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "s.iq"
    code, stdout, _ = run_cli(["gen-signal", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert "wrote" in stdout
    config = load_config(cfg)
    assert np.array_equal(read_iq(out).samples, generate_ofdm(config.signal).samples)


def test_cli_gen_signal_validation_uses_run_seed(tmp_path):
    cfg = write_cfg(tmp_path, extra="run.seed = 5\n")
    out = tmp_path / "v.iq"
    assert run_cli(["gen-signal", "--config", str(cfg), "--out", str(out), "--validation"])[0] == 0
    config = load_config(cfg)
    expected = generate_ofdm(config.validation_signal())
    assert np.array_equal(read_iq(out).samples, expected.samples)


def test_cli_sim_pa_matches_library(tmp_path):
    cfg = write_cfg(tmp_path)
    s, y = tmp_path / "s.iq", tmp_path / "y.iq"
    run_cli(["gen-signal", "--config", str(cfg), "--out", str(s)])
    code, _, _ = run_cli(["sim-pa", "--config", str(cfg), "--in", str(s), "--out", str(y)])
    assert code == 0
    expected = pa_forward(read_iq(s), default_pa_model())
    assert np.array_equal(read_iq(y).samples, expected.samples)


def test_cli_ilc_writes_drive_and_trace(tmp_path):
    cfg = write_cfg(tmp_path)
    drive, trace = tmp_path / "x.iq", tmp_path / "ilc.csv"
    code, stdout, _ = run_cli(
        ["ilc", "--config", str(cfg), "--out", str(drive), "--trace", str(trace)]
    )
    assert code == 0
    assert "final error" in stdout
    assert len(read_iq(drive)) == 2048
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,error_db"
    # one open-loop entry plus one per learning pass
    assert len(lines) - 1 == load_config(cfg).ilc.iterations + 1
    assert lines[1].startswith("0,")


def test_cli_ilc_divergence_is_numerical_error(tmp_path):
    cfg = write_cfg(tmp_path)
    drive = tmp_path / "x.iq"
    # a sign-flipped normalization target pushes every pass away from
    # the fixed point, tripping the three-rises divergence guard
    code, _, err = run_cli(
        [
            "ilc",
            "--config",
            str(cfg),
            "--set",
            "ilc.iterations=10",
            "--set",
            "ilc.target_gain=-1.0 0.0",
            "--out",
            str(drive),
        ]
    )
    assert code == 3
    assert "numerical error" in err
    assert not drive.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_ilc_overflow_is_numerical_error(tmp_path):
    cfg = write_cfg(tmp_path)
    drive = tmp_path / "x.iq"
    # a loud reference drives the amplifier's envelope powers past the
    # float range on the second learning pass
    code, _, err = run_cli(
        [
            "ilc",
            "--config",
            str(cfg),
            "--set",
            "signal.target_rms=50",
            "--set",
            "ilc.learning_rate=1.0",
            "--out",
            str(drive),
        ]
    )
    assert code == 3
    assert "numerical error" in err and "not finite" in err
    assert not drive.exists()


def _fit_inputs(tmp_path):
    cfg = write_cfg(tmp_path)
    s, x = tmp_path / "s.iq", tmp_path / "x.iq"
    run_cli(["gen-signal", "--config", str(cfg), "--out", str(s)])
    run_cli(["ilc", "--config", str(cfg), "--out", str(x)])
    return cfg, s, x


def test_cli_fit_and_refine_round_trip(tmp_path):
    cfg, s, x = _fit_inputs(tmp_path)
    w, wr = tmp_path / "w.txt", tmp_path / "wr.txt"
    code, stdout, _ = run_cli(
        ["fit", "lasso", "--config", str(cfg), "--signal", str(s),
         "--target", str(x), "--out", str(w)]
    )
    assert code == 0
    assert "kernel_count=" in stdout
    fitted = read_coefficients(w)
    assert kernel_count(fitted) > 0

    code, _, _ = run_cli(
        ["refine", "--signal", str(s), "--target", str(x),
         "--coeffs", str(w), "--out", str(wr)]
    )
    assert code == 0
    refined = read_coefficients(wr)
    assert np.array_equal(refined.support(), fitted.support())


def test_cli_fit_bwlasso_writes_iteration_trace(tmp_path):
    cfg, s, x = _fit_inputs(tmp_path)
    w, trace = tmp_path / "w.txt", tmp_path / "fit.csv"
    code, _, _ = run_cli(
        ["fit", "bwlasso", "--config", str(cfg), "--signal", str(s),
         "--target", str(x), "--out", str(w), "--trace", str(trace)]
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,nmse_db,kernel_count,effective_memory_depth"
    assert len(lines) - 1 == load_config(cfg).bcd.outer_iterations


def test_cli_fit_trace_requires_bwlasso(tmp_path):
    cfg, s, x = _fit_inputs(tmp_path)
    code, _, err = run_cli(
        ["fit", "lasso", "--config", str(cfg), "--signal", str(s),
         "--target", str(x), "--out", str(tmp_path / "w.txt"),
         "--trace", str(tmp_path / "t.csv")]
    )
    assert code == 1
    assert "bwlasso" in err


def test_cli_fit_bwlasso_names_missing_schedule_order(tmp_path):
    cfg, s, x = _fit_inputs(tmp_path)
    partial = tmp_path / "partial.cfg"
    partial.write_text(
        TINY
        + "schedule.mode = custom\n"
        + "schedule.lambda_0 = 0.01\n"
        + "schedule.threshold_0 = 0.1\n"
    )
    code, _, err = run_cli(
        ["fit", "bwlasso", "--config", str(partial), "--signal", str(s),
         "--target", str(x), "--out", str(tmp_path / "w.txt")]
    )
    assert code == 1
    assert "2" in err


def test_cli_refine_rejects_empty_support(tmp_path):
    cfg, s, x = _fit_inputs(tmp_path)
    w = tmp_path / "w.txt"
    # a penalty above the null certificate zeroes every coefficient
    code, _, _ = run_cli(
        ["fit", "lasso", "--config", str(cfg), "--set", "standard_lasso.lambda=1e9",
         "--signal", str(s), "--target", str(x), "--out", str(w)]
    )
    assert code == 0
    assert kernel_count(read_coefficients(w)) == 0
    code, _, err = run_cli(
        ["refine", "--signal", str(s), "--target", str(x),
         "--coeffs", str(w), "--out", str(tmp_path / "wr.txt")]
    )
    assert code == 1
    assert "no active kernels" in err


def test_cli_evaluate_prints_single_metric_line(tmp_path):
    cfg, s, x = _fit_inputs(tmp_path)
    w = tmp_path / "w.txt"
    run_cli(["fit", "ls", "--config", str(cfg), "--signal", str(s),
             "--target", str(x), "--out", str(w)])
    code, stdout, _ = run_cli(
        ["evaluate", "--model", str(w), "--signal", str(s), "--reference", str(x)]
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 1
    match = re.fullmatch(
        r"nmse_db=(\S+) evm_db=(\S+) aligned_gain=(\S+)", lines[0]
    )
    assert match
    assert float(match.group(1)) < -30.0
    assert float(match.group(2)) < -30.0


def test_cli_evaluate_without_model(tmp_path):
    cfg, s, _ = _fit_inputs(tmp_path)
    code, stdout, _ = run_cli(["evaluate", "--signal", str(s), "--reference", str(s)])
    assert code == 0
    assert stdout.startswith("nmse_db=")


def test_cli_exp1_runs_and_reports(tmp_path):
    cfg = write_cfg(tmp_path)
    code, stdout, _ = run_cli(["exp1", "--config", str(cfg)])
    assert code == 0
    assert "wrote exp1 outputs" in stdout
    assert (tmp_path / "out" / "exp1_trace.csv").exists()


def test_cli_exp2_prints_one_line_per_method(tmp_path):
    cfg = write_cfg(tmp_path)
    code, stdout, _ = run_cli(["exp2", "--config", str(cfg)])
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == len(METHODS) + 1
    assert [line.split(":")[0] for line in lines[:-1]] == list(METHODS)


def test_cli_set_override_reaches_experiment(tmp_path):
    cfg = write_cfg(tmp_path)
    code, _, _ = run_cli(
        ["exp1", "--config", str(cfg), "--set", "bcd.outer_iterations=2"]
    )
    assert code == 0
    _, _, rows = read_table(tmp_path / "out" / "exp1_trace.csv")
    assert len(rows) == 2


def test_console_script_is_installed():
    result = subprocess.run(
        ["dpdkit", "--help"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0
    assert "command" in result.stdout
