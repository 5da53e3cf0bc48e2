"""Configuration, experiment outputs, and command-line behavior."""

import ast
import contextlib
from dataclasses import replace
import hashlib
import io
import os
from pathlib import Path
import re
import struct
import subprocess
import types
from unittest import mock
import warnings

import numpy as np
import pytest

import dpdkit
from dpdkit import gmp, pipeline
from dpdkit.cli import cli
from dpdkit.errors import ConfigurationError, DivergenceError
from dpdkit.gmp import (
    CoefficientVector,
    KernelMatrix,
    build_kernel_matrix,
    effective_memory_depth,
    full_structure,
    kernel_count,
    max_memory_lag,
    read_coefficients,
    write_coefficients,
)
from dpdkit.pa_sim import IlcConfig, PaModel, default_pa_model, pa_forward, write_pa_model
from dpdkit.pipeline import (
    METHODS,
    ScheduleSpec,
    _OutputDir,
    _SCHEMA,
    load_config,
    matched_count_lasso,
    parse_config,
    run_experiment1,
    run_experiment2,
)
from dpdkit.signal import DB_FLOOR, IqSignal, OfdmConfig, generate_ofdm, read_iq, write_iq
from dpdkit.solver import BcdConfig, default_schedule, lasso_iterated_ridge


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


SHIPPED_CONFIGS = Path(__file__).parent.parent / "configs"


def read_table(path):
    """Rows of a CSV report, with the leading hash comment split off."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config-hash: ")
    header = lines[0][len("# config-hash: "):]
    rows = [line.split(",") for line in lines[1:]]
    return header, rows[0], rows[1:]


def test_write_table_writes_a_numpy_float_as_its_value(tmp_path):
    path = tmp_path / "table.csv"
    pipeline.write_table(path, ("a", "b", "c"), [(np.float64(0.1), 0.1, None)])
    assert path.read_text() == "a,b,c\n0.1,0.1,-\n"


# ---------------------------------------------------------------------------
# Config parsing.

# The canonical text of a config that sets nothing; a changed default
# changes it.
EMPTY_CONFIG_TEXT = """\
signal.n_subcarriers = 64
signal.n_active = 52
signal.n_symbols = 64
signal.oversampling_factor = 4
signal.constellation = qpsk
signal.seed = 1
signal.target_rms = 1.0
signal.sample_rate_hz = 1.0
pa.preset = default
ilc.iterations = 30
ilc.learning_rate = 0.5
ilc.target_gain = none
dpd.memory_depth = 9
dpd.max_order = 7
dpd.lagging_depth = 1
dpd.leading_depth = 0
schedule.lambda_scale = 1.0
schedule.threshold_scale = 1.0
bcd.outer_iterations = 10
bcd.inner_ridge_iterations = 50
bcd.inner_tolerance = 1e-08
bcd.ridge_epsilon = 1e-08
standard_lasso.lambda = 0.0001
output.dir = out
run.seed = 2
"""


def test_empty_config_uses_documented_defaults():
    config = parse_config("")
    assert config.signal == OfdmConfig()
    assert config.ilc == IlcConfig()
    assert config.schedule_spec == ScheduleSpec()
    assert config.bcd == BcdConfig()
    assert config.canonical_text() == EMPTY_CONFIG_TEXT
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


def test_bad_complex_value_rejected():
    with pytest.raises(ConfigurationError, match="ilc.target_gain expects two floats or 'none'"):
        parse_config("ilc.target_gain = loud\n")


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


# (case, config text, overrides, part of the message, line it names, or
# None where it names the override)
CONFIG_ERRORS = [
    ("type error", "signal.n_symbols = 8\nsignal.seed = 3\nsignal.n_active = eight\n", (),
     "signal.n_active expects an integer, got 'eight'", 3),
    ("unknown key", "signal.n_symbols = 8\n\nsignal.bandwidth = 20\n", (),
     "unknown config key signal.bandwidth", 3),
    ("duplicate", "signal.seed = 1\nsignal.seed = 2  # again\n", (),
     "duplicate key signal.seed", 2),
    ("missing equals", "# settings\nsignal.n_symbols 8\n", (), "expected 'key = value'", 2),
    ("non-ASCII byte", "signal.seed = 1\n# r\u00e9glage\n", (), "non-ASCII byte 0xc3", 2),
    ("bad override", "signal.n_symbols = 8\n", ("signal.n_active=eight",),
     "signal.n_active expects an integer, got 'eight'", None),
    # Numbers take no sign or digit separator of Python's own syntax.
    ("underscore integer", "signal.n_symbols = 8\ndpd.memory_depth = 1_9\n", (),
     "dpd.memory_depth expects an integer, got '1_9'", 2),
    ("signed integer", "signal.n_symbols = +64\n", (),
     "signal.n_symbols expects an integer, got '+64'", 1),
    ("underscore float", "signal.n_symbols = 8\nschedule.lambda_scale = 1_0.5\n", (),
     "schedule.lambda_scale expects a float, got '1_0.5'", 2),
    ("underscore override", "signal.n_symbols = 8\n", ("dpd.memory_depth=1_9",),
     "dpd.memory_depth expects an integer, got '1_9'", None),
    # The schedule is the tabulated ladder: no key picks another, and no
    # entry sets one order's weight.
    ("leftover schedule.mode", "signal.n_symbols = 8\nschedule.mode = default\n", (),
     "unknown config key schedule.mode", 2),
    ("per-order entry", "signal.n_symbols = 8\nschedule.lambda_0 = 0.01\n", (),
     "unknown config key schedule.lambda_0", 2),
    ("per-order override", "signal.n_symbols = 8\n", ("schedule.lambda_0=0.01",),
     "unknown config key schedule.lambda_0", None),
]


@pytest.mark.parametrize("via", ["load_config", "cli"])
@pytest.mark.parametrize(
    "text, overrides, message, line",
    [c[1:] for c in CONFIG_ERRORS],
    ids=[c[0] for c in CONFIG_ERRORS],
)
def test_config_errors_name_the_file_and_line(tmp_path, via, text, overrides, message, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text.encode("utf-8"))
    if via == "load_config":
        with pytest.raises(ConfigurationError) as err:
            load_config(cfg, overrides)
        error = str(err.value)
    else:
        code, _, error = run_cli(["exp1", "--config", str(cfg), *(f"--set={o}" for o in overrides)])
        assert code == 1 and error.startswith("usage error: ")
    assert message in error
    if line is None:
        assert f"(override {overrides[0]!r})" in error
    else:
        assert str(cfg) in error and f"line {line})" in error


# ---------------------------------------------------------------------------
# Schedule configuration.


def test_odd_order_schedule_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown config key schedule.lambda_3"):
        parse_config("schedule.lambda_3 = 0.5\n")


def test_non_ascii_entry_rejected():
    with pytest.raises(ConfigurationError, match="non-ASCII"):
        parse_config("output.dir = caf\u00e9\n")


def test_non_ascii_comment_rejected_as_in_a_file():
    # parse_config checks its text as load_config checks a file: every
    # character, comments included.
    text = "signal.n_symbols = 8\n# caf\u00e9\nsignal.seed = 1\n"
    with pytest.raises(ConfigurationError, match="non-ASCII") as err:
        parse_config(text, source="inline.cfg")
    assert "(inline.cfg, line 2)" in str(err.value)


def test_default_schedule_scales_flow_through():
    structure = "dpd.memory_depth = 3\ndpd.max_order = 3\n"
    assert parse_config(structure).schedule() == default_schedule(full_structure(3, 3, 1))
    config = parse_config(structure + "schedule.lambda_scale = 10.0\n")
    assert config.schedule().lambda_for(0) == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# Canonical form and hashing.


def test_canonical_text_round_trips_to_same_hash(tmp_path):
    config = tiny_config(tmp_path)
    again = parse_config(config.canonical_text())
    assert again.config_hash == config.config_hash


def test_cross_depths_without_cross_orders_hash_alike():
    # max_order = 1 leaves no envelope power for a cross branch, so every
    # depth builds the same aligned-only structure, written with depth 0.
    configs = [
        parse_config(f"dpd.max_order = 1\ndpd.lagging_depth = {lag}\ndpd.leading_depth = {lead}\n")
        for lag, lead in ((0, 0), (1, 0), (2, 3))
    ]
    assert len({config.config_hash for config in configs}) == 1
    assert "dpd.lagging_depth = 0\n" in configs[2].canonical_text()
    assert "dpd.leading_depth = 0\n" in configs[2].canonical_text()


@pytest.mark.parametrize("name", [None, "desk-scale", "wideband"])
def test_canonical_text_is_every_schema_key_once_in_schema_order(name):
    config = parse_config("") if name is None else load_config(SHIPPED_CONFIGS / f"{name}.cfg")
    keys = [line.partition(" = ")[0] for line in config.canonical_text().splitlines()]
    assert keys == [f"{section}.{key}" for section, key, _, _ in _SCHEMA]


def test_a_structure_its_dpd_keys_do_not_build_is_rejected():
    # canonical_text writes the structure as its dpd keys, so a config
    # holding another structure would be stamped with the hash of the
    # full structure those keys build.
    config = load_config(SHIPPED_CONFIGS / "desk-scale.cfg")
    pruned = replace(config.structure, aligned_lags=tuple(range(5)), lagging_lags=tuple(range(6)))
    assert pruned.kernel_count == 38
    with pytest.raises(ConfigurationError, match="not the full structure of dpd keys"):
        replace(config, structure=pruned)
    with pytest.raises(ConfigurationError, match="no aligned kernels"):
        replace(config, structure=replace(config.structure, aligned_lags=()))
    # The structure the keys build is accepted, and hashed by its keys.
    rebuilt = replace(config, structure=full_structure(4, 7, 1))
    assert rebuilt.config_hash == load_config(
        SHIPPED_CONFIGS / "desk-scale.cfg", ["dpd.memory_depth=4"]
    ).config_hash


def test_config_hash_is_sha256_of_canonical_text(tmp_path):
    config = tiny_config(tmp_path)
    digest = hashlib.sha256(config.canonical_text().encode("ascii")).hexdigest()
    assert config.config_hash == digest


# The hash stamps every output file, so a change to canonical_text that
# moves it changes every file a shipped config produces.
@pytest.mark.parametrize(
    "name, digest",
    [
        ("desk-scale", "056c248903bda745945a76b480583e327b4ba4d1a657f8260bdaab444954e7b3"),
        ("wideband", "64855f42a44eb445cf29d1255720fa23a196841c13ec1fff85cac04c34f141d5"),
    ],
    ids=["desk-scale", "wideband"],
)
def test_shipped_config_hashes_are_pinned(name, digest):
    assert load_config(SHIPPED_CONFIGS / f"{name}.cfg").config_hash == digest


# One value per schema key that differs from the base below, which has
# a leading branch.
SETTING_CHANGES = {
    "signal.n_subcarriers": ["signal.n_subcarriers=128"],
    "signal.n_active": ["signal.n_active=40"],
    "signal.n_symbols": ["signal.n_symbols=16"],
    "signal.oversampling_factor": ["signal.oversampling_factor=2"],
    "signal.constellation": ["signal.constellation=qam16"],
    "signal.seed": ["signal.seed=5"],
    "signal.target_rms": ["signal.target_rms=0.5"],
    "signal.sample_rate_hz": ["signal.sample_rate_hz=2e6"],
    # The hash reads the preset file: the test writes it there.
    "pa.preset": ["pa.preset={tmp_path}/pa.txt"],
    "ilc.iterations": ["ilc.iterations=4"],
    "ilc.learning_rate": ["ilc.learning_rate=0.25"],
    "ilc.target_gain": ["ilc.target_gain=0.5 -0.25"],
    "dpd.memory_depth": ["dpd.memory_depth=4"],
    "dpd.max_order": ["dpd.max_order=5"],
    "dpd.lagging_depth": ["dpd.lagging_depth=2"],
    "dpd.leading_depth": ["dpd.leading_depth=2"],
    "schedule.lambda_scale": ["schedule.lambda_scale=2.0"],
    "schedule.threshold_scale": ["schedule.threshold_scale=0.01"],
    "bcd.outer_iterations": ["bcd.outer_iterations=5"],
    "bcd.inner_ridge_iterations": ["bcd.inner_ridge_iterations=60"],
    "bcd.inner_tolerance": ["bcd.inner_tolerance=1e-9"],
    "bcd.ridge_epsilon": ["bcd.ridge_epsilon=1e-9"],
    "standard_lasso.lambda": ["standard_lasso.lambda=0.3"],
    "output.dir": ["output.dir=elsewhere"],
    "run.seed": ["run.seed=7"],
}


def test_any_setting_change_changes_hash(tmp_path):
    assert set(SETTING_CHANGES) == {f"{s}.{k}" for s, k, _, _ in _SCHEMA}
    text = TINY + f"output.dir = {tmp_path / 'out'}\n"
    text += "dpd.leading_depth = 1\n"
    write_pa_model(tmp_path / "pa.txt", default_pa_model())
    hashes = {parse_config(text).config_hash}
    for key, overrides in SETTING_CHANGES.items():
        overrides = [item.format(tmp_path=tmp_path) for item in overrides]
        config = parse_config(text, overrides=overrides)
        assert config.config_hash not in hashes, key
        hashes.add(config.config_hash)
        again = parse_config(config.canonical_text())
        assert again.canonical_text() == config.canonical_text(), key


def test_config_hash_covers_the_preset_file_contents(tmp_path):
    # Two configs that name pa.txt next to themselves: the same text,
    # different amplifiers.
    configs = []
    for name, gain in (("a", 1.0), ("b", 2.0)):
        (tmp_path / name).mkdir()
        model = PaModel(
            CoefficientVector(full_structure(0, 1, 0), np.array([gain + 0.0j])),
            smallsignal_gain=gain + 0.0j,
        )
        write_pa_model(tmp_path / name / "pa.txt", model)
        (tmp_path / name / "run.cfg").write_text("pa.preset = pa.txt\n")
        configs.append(load_config(tmp_path / name / "run.cfg"))
    first, second = configs
    assert first.canonical_text() == second.canonical_text()
    assert first.config_hash != second.config_hash
    assert parse_config(second.canonical_text(), base_dir=tmp_path / "b").config_hash == (
        second.config_hash
    )
    (tmp_path / "b" / "pa.txt").unlink()
    with pytest.raises(OSError):
        second.config_hash


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
    reference = lasso_iterated_ridge(matrix, target, 0.05 * lam_max, config=bcd)
    want = kernel_count(reference)
    lam, coeffs, matched = matched_count_lasso(matrix, target, want, bcd)
    assert matched
    assert kernel_count(coeffs) == want
    assert 0.0 < lam < lam_max


def test_matched_count_returns_its_closest_step_not_its_last(monkeypatch):
    # The first step lands one kernel off the target of 10; every later
    # step lands seven off, the last one too.
    matrix, target = _tiny_training_pair()
    counts = iter([11] + [3] * (pipeline.MATCHED_COUNT_STEPS - 1))
    penalties = []
    monkeypatch.setattr(
        pipeline, "lasso_iterated_ridge",
        lambda matrix, target, lam, config: penalties.append(lam) or f"fit at {lam}",
    )
    monkeypatch.setattr(pipeline, "kernel_count", lambda coeffs: next(counts))
    lam, coeffs, matched = matched_count_lasso(matrix, target, 10, BcdConfig())
    assert len(penalties) == pipeline.MATCHED_COUNT_STEPS
    assert (lam, coeffs, matched) == (penalties[0], f"fit at {penalties[0]}", True)


def test_matched_count_reports_unreachable_target():
    matrix, target = _tiny_training_pair()
    lam, coeffs, matched = matched_count_lasso(matrix, target, 50, BcdConfig())
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


def test_experiments_never_form_the_kernel_matrix(tmp_path, monkeypatch):
    def formed(matrix):
        raise AssertionError("the N x P kernel matrix was formed")

    monkeypatch.setattr(KernelMatrix, "data", property(formed))
    config = tiny_config(tmp_path)
    run_experiment1(config)
    run_experiment2(config)


@pytest.mark.parametrize("run", [run_experiment1, run_experiment2])
def test_each_experiment_trains_once(tmp_path, run):
    # One ILC run, one normal-equation pass and one fit of each shared
    # model: the training stage is the only place that makes them.
    targets = (
        (gmp, "_kernel_normal_equations"),
        (pipeline, "block_weighted_lasso"),
        (pipeline, "least_squares"),
        (pipeline, "ilc_learn"),
    )
    with contextlib.ExitStack() as stack:
        spies = {
            name: stack.enter_context(
                mock.patch.object(module, name, wraps=getattr(module, name))
            )
            for module, name in targets
        }
        run(tiny_config(tmp_path))
    assert {name: spy.call_count for name, spy in spies.items()} == dict.fromkeys(spies, 1)


@pytest.mark.parametrize("run", [run_experiment1, run_experiment2])
@pytest.mark.parametrize(
    "override, message",
    # Envelope power 16, beyond the tabulated default ladder.
    [(("dpd.max_order=17",), "envelope power 14")],
    ids=["default-beyond-ladder"],
)
def test_schedule_errors_come_before_any_training_work(tmp_path, run, override, message):
    config = parse_config(TINY + f"output.dir = {tmp_path / 'out'}\n", overrides=override)
    with mock.patch("dpdkit.pipeline.ilc_learn", side_effect=AssertionError("training ran")):
        with pytest.raises(ConfigurationError, match=message):
            run(config)


def test_failed_experiment_removes_partial_outputs(tmp_path):
    config = tiny_config(tmp_path)
    with pytest.raises(RuntimeError):
        with _OutputDir(config) as out:
            out.write_table("partial.csv", ("a",), [(1,)])
            raise RuntimeError("downstream stage failed")
    assert not (tmp_path / "out" / "partial.csv").exists()


def test_write_failing_mid_file_keeps_the_earlier_run_and_leaves_no_partial_file(tmp_path):
    out = tmp_path / "out"
    run_experiment2(tiny_config(tmp_path))
    earlier = {name: (out / name).read_bytes() for name in os.listdir(out)}

    def half_written(path, coeffs, comment=None):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# {comment}\nformat = ")
        raise OSError("device full")

    # Another seed changes every file, config-hash line included.  The
    # comparison table is written first and the first model second.
    with mock.patch("dpdkit.pipeline.write_coefficients", half_written):
        with pytest.raises(OSError, match="device full"):
            run_experiment2(tiny_config(tmp_path, "run.seed = 9\n"))
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == earlier


EXP2_FILES = 6


def _failing_at(k, real, error):
    """``real`` (``os.replace`` or ``os.link``), but its k-th call raises ``error``."""
    calls = []

    def call(src, dst):
        calls.append(dst)
        if len(calls) == k:
            raise error
        real(src, dst)

    return call


def _files(out):
    return {name: (out / name).read_bytes() for name in os.listdir(out)}


@pytest.mark.parametrize("earlier_run", [True, False], ids=["over-an-earlier-run", "empty"])
@pytest.mark.parametrize("k", range(1, EXP2_FILES + 1))
def test_a_failed_rename_leaves_the_earlier_set_whole(tmp_path, k, earlier_run):
    # Another seed changes every file, config-hash line included.
    cfg, out = write_cfg(tmp_path), tmp_path / "out"
    out.mkdir()
    if earlier_run:
        assert run_cli(["exp2", "--config", str(cfg)])[0] == 0
    earlier = _files(out)
    assert len(earlier) == (EXP2_FILES if earlier_run else 0)
    refused = _failing_at(k, os.replace, PermissionError(f"rename {k} refused"))
    with mock.patch.object(pipeline.os, "replace", refused):
        code, _, err = run_cli(["exp2", "--config", str(cfg), "--set", "run.seed=9"])
    assert code == 2
    assert err.startswith("data error:") and f"rename {k} refused" in err
    # Every file is the earlier run's, and no temporary or backup is left.
    assert _files(out) == earlier


def test_an_interrupted_rename_restores_the_earlier_set_too(tmp_path):
    config, out = tiny_config(tmp_path), tmp_path / "out"
    run_experiment2(config)
    earlier = _files(out)
    interrupted = _failing_at(3, os.replace, KeyboardInterrupt())
    with mock.patch.object(pipeline.os, "replace", interrupted):
        with pytest.raises(KeyboardInterrupt):
            run_experiment2(tiny_config(tmp_path, "run.seed = 9\n"))
    assert _files(out) == earlier


def test_a_failed_backup_link_raises_before_any_rename(tmp_path):
    config, out = tiny_config(tmp_path), tmp_path / "out"
    run_experiment2(config)
    earlier = _files(out)
    refused = _failing_at(2, os.link, PermissionError("link refused"))
    with mock.patch.object(pipeline.os, "link", refused):
        with mock.patch.object(pipeline.os, "replace", side_effect=AssertionError("renamed")):
            with pytest.raises(PermissionError, match="link refused"):
                run_experiment2(tiny_config(tmp_path, "run.seed = 9\n"))
    assert _files(out) == earlier


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


def test_cli_negative_leading_depth_is_usage_error(tmp_path):
    cfg = write_cfg(tmp_path, extra="dpd.leading_depth = -1\n")
    code, _, err = run_cli(["exp1", "--config", str(cfg)])
    assert code == 1
    assert "usage error: leading_depth must be >= 0, got -1" in err
    assert not (tmp_path / "out").exists()


def test_cli_non_ascii_config_is_usage_error(tmp_path):
    cfg = write_cfg(tmp_path)
    cfg.write_bytes(cfg.read_bytes() + "# r\u00e9glage\n".encode("utf-8"))
    code, _, err = run_cli(["exp1", "--config", str(cfg)])
    assert code == 1
    assert "usage error" in err and "non-ASCII" in err


def test_cli_non_ascii_override_is_usage_error_before_any_work(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "caf\u00e9"
    with mock.patch("dpdkit.cli.run_experiment1") as experiment:
        code, _, err = run_cli(["exp1", "--config", str(cfg), "--set", f"output.dir={out}"])
    assert code == 1
    assert "usage error" in err and "non-ASCII" in err
    experiment.assert_not_called()
    assert not out.exists()


def test_cli_non_ascii_pa_model_is_data_error(tmp_path):
    pa = tmp_path / "pa.txt"
    write_pa_model(pa, default_pa_model())
    pa.write_bytes(("# mod\u00e8le\n" + pa.read_text()).encode("utf-8"))
    cfg = write_cfg(tmp_path, extra=f"pa.preset = {pa}\n")
    code, _, err = run_cli(["exp1", "--config", str(cfg)])
    assert code == 2
    assert "data error" in err and "non-ASCII" in err


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


def test_cli_gen_signal_reports_an_rms_whose_squares_overflow(tmp_path):
    # |s|^2 leaves the float range from about 1e154 on.  Any numpy
    # RuntimeWarning on the way would fail this test.
    cfg = write_cfg(tmp_path)
    out = tmp_path / "s.iq"
    code, stdout, _ = run_cli(["gen-signal", "--config", str(cfg),
                               "--set", "signal.target_rms=1e300", "--out", str(out)])
    assert code == 0
    reported = float(stdout.rpartition("rms ")[2])
    assert reported == pytest.approx(1e300, rel=1e-9)
    assert read_iq(out).rms == reported


def test_cli_gen_signal_rejects_a_target_rms_beyond_the_float_range(tmp_path):
    # The scale that takes the waveform to an RMS of 1e308 overflows.
    # Any numpy RuntimeWarning on the way would fail this test.
    cfg = write_cfg(tmp_path)
    out = tmp_path / "s.iq"
    code, _, err = run_cli(["gen-signal", "--config", str(cfg),
                            "--set", "signal.target_rms=1e308", "--out", str(out)])
    assert code == 1
    assert "signal.target_rms" in err
    assert not out.exists()


def test_cli_sim_pa_matches_library(tmp_path):
    cfg = write_cfg(tmp_path)
    s, y = tmp_path / "s.iq", tmp_path / "y.iq"
    run_cli(["gen-signal", "--config", str(cfg), "--out", str(s)])
    code, _, _ = run_cli(["sim-pa", "--config", str(cfg), "--in", str(s), "--out", str(y)])
    assert code == 0
    expected = pa_forward(read_iq(s), default_pa_model())
    assert np.array_equal(read_iq(y).samples, expected.samples)


def test_cli_sim_pa_and_refine_print_their_summary_lines(tmp_path):
    cfg, s, x = _fit_inputs(tmp_path)
    y, w, wr = tmp_path / "y.iq", tmp_path / "w.txt", tmp_path / "wr.txt"
    code, stdout, _ = run_cli(["sim-pa", "--config", str(cfg), "--in", str(s), "--out", str(y)])
    assert (code, stdout) == (0, f"wrote {y}: 2048 samples\n")
    run_cli(["fit", "bwlasso", "--config", str(cfg), "--signal", str(s),
             "--target", str(x), "--out", str(w)])
    code, stdout, _ = run_cli(["refine", "--signal", str(s), "--target", str(x),
                               "--coeffs", str(w), "--out", str(wr)])
    refined = read_coefficients(wr)
    summary = (f"kernel_count={kernel_count(refined)} max_lag={max_memory_lag(refined)} "
               f"deepest_sample={effective_memory_depth(refined)}")
    assert (code, stdout) == (0, f"wrote {wr}: {summary}\n")


def _sim_pa_on_damaged_input(tmp_path, damage):
    """Run sim-pa on a generated signal whose IQ file ``damage`` rewrote."""
    cfg = write_cfg(tmp_path)
    s, y = tmp_path / "s.iq", tmp_path / "y.iq"
    run_cli(["gen-signal", "--config", str(cfg), "--out", str(s)])
    s.write_bytes(damage(s.read_bytes()))
    code, _, err = run_cli(["sim-pa", "--config", str(cfg), "--in", str(s), "--out", str(y)])
    assert not y.exists()
    return code, err


def test_cli_sim_pa_truncated_input_is_data_error(tmp_path):
    # 2048 samples of 16 bytes after the 24-byte header; the last 8 are cut.
    code, err = _sim_pa_on_damaged_input(tmp_path, lambda raw: raw[:-8])
    assert code == 2
    assert "data error" in err and f"byte {24 + 16 * 2048 - 8}" in err


def test_cli_sim_pa_nan_sample_is_data_error(tmp_path):
    at = 24 + 16 * 1000 + 8  # the imaginary part of sample 1000
    code, err = _sim_pa_on_damaged_input(
        tmp_path, lambda raw: raw[:at] + struct.pack("<d", float("nan")) + raw[at + 8 :]
    )
    assert code == 2
    assert "data error" in err and "index 1000" in err and f"byte {24 + 16 * 1000}" in err


def _loud_signal(tmp_path):
    """A capture at 1e80 rms, whose cubic kernels leave the float range."""
    cfg = write_cfg(tmp_path)
    s = tmp_path / "loud.iq"
    run_cli(["gen-signal", "--config", str(cfg), "--set", "signal.target_rms=1e80",
             "--out", str(s)])
    return cfg, s


def test_cli_sim_pa_overflowing_output_is_numerical_error(tmp_path):
    # Any numpy RuntimeWarning on the way would fail this test.
    cfg, s = _loud_signal(tmp_path)
    y = tmp_path / "y.iq"
    code, _, err = run_cli(["sim-pa", "--config", str(cfg), "--in", str(s), "--out", str(y)])
    assert code == 3
    assert "numerical error" in err and "not finite" in err
    assert not y.exists()


def test_cli_fit_ls_on_overflowing_capture_is_numerical_error(tmp_path):
    # Every fit method; any numpy RuntimeWarning on the way would fail this test.
    cfg, s = _loud_signal(tmp_path)
    w = tmp_path / "w.txt"
    for method in ("ls", "lasso", "bwlasso"):
        code, _, err = run_cli(["fit", method, "--config", str(cfg), "--signal", str(s),
                                "--target", str(s), "--out", str(w)])
        assert code == 3, method
        assert "numerical error" in err and "not finite" in err, (method, err)
        assert not w.exists()


def test_exp2_overflowing_normalized_output_is_numerical_error(tmp_path):
    # At a target gain of 0.5 an amplifier output near the top of the
    # float range overflows when exp2 divides it by the gain.
    cfg = write_cfg(tmp_path, "ilc.target_gain = 0.5 0\n")

    def loud(drive, model):
        return IqSignal(np.full(len(drive), 1e308 + 0j), drive.sample_rate_hz)

    with mock.patch("dpdkit.pipeline.pa_forward", loud):
        with pytest.raises(DivergenceError, match="not finite"):
            run_experiment2(load_config(cfg))
        code, _, err = run_cli(["exp2", "--config", str(cfg)])
    assert code == 3
    assert "numerical error" in err and "not finite" in err
    assert not list((tmp_path / "out").glob("exp2*"))


def test_cli_fit_and_refine_reject_a_target_of_another_length(tmp_path):
    cfg = write_cfg(tmp_path)
    rng = np.random.default_rng(7)
    s, x, w = tmp_path / "s.iq", tmp_path / "x.iq", tmp_path / "w.txt"
    for path, n in ((s, 16384), (x, 16128)):
        write_iq(IqSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1.0), path)
    structure = load_config(cfg).structure
    write_coefficients(w, CoefficientVector(structure, np.eye(structure.kernel_count)[0]))
    common = ["--signal", str(s), "--target", str(x), "--out", str(tmp_path / "out.txt")]
    for argv in (
        *(["fit", method, "--config", str(cfg), *common] for method in ("ls", "lasso", "bwlasso")),
        ["refine", "--coeffs", str(w), *common],
    ):
        code, _, err = run_cli(argv)
        assert code == 2, argv
        assert "target has 16128 samples but design has 16384 rows" in err, argv
    assert not (tmp_path / "out.txt").exists()


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


@pytest.mark.parametrize("command", ["ilc", "exp1"])
def test_zero_power_reference_is_numerical_error_and_writes_nothing(tmp_path, command):
    cfg = write_cfg(tmp_path)
    drive, trace = tmp_path / "x.iq", tmp_path / "trace.csv"
    argv = [command, "--config", str(cfg), "--set", "signal.target_rms=1e-300"]
    if command == "ilc":
        argv += ["--out", str(drive), "--trace", str(trace)]
    code, _, err = run_cli(argv)
    assert code == 3
    assert "numerical error" in err and "zero power" in err
    assert not drive.exists() and not trace.exists() and not (tmp_path / "out").exists()


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


def test_cli_refine_reproduces_the_experiment_refined_model_bitwise(tmp_path):
    # The refit of a fresh kernel matrix solves the support's sub-block
    # of the whole system, as exp2 does after its fit, so the refined
    # model read back equals exp2's bwlasso-r file bit for bit.  At the
    # desk-scale run point, normal equations formed from the support
    # columns alone differ from that sub-block in the last bits.
    cfg = SHIPPED_CONFIGS / "desk-scale.cfg"
    s, x, w, wr = (tmp_path / name for name in ("s.iq", "x.iq", "w.txt", "wr.txt"))
    for argv in (
        ["gen-signal", "--config", str(cfg), "--out", str(s)],
        ["ilc", "--config", str(cfg), "--out", str(x)],
        ["fit", "bwlasso", "--config", str(cfg), "--signal", str(s),
         "--target", str(x), "--out", str(w)],
        ["refine", "--signal", str(s), "--target", str(x),
         "--coeffs", str(w), "--out", str(wr)],
    ):
        assert run_cli(argv)[0] == 0
    run_experiment2(load_config(cfg, [f"output.dir={tmp_path / 'out'}"]))
    expected = read_coefficients(tmp_path / "out" / "exp2_coeffs_bwlasso-r.txt")
    assert kernel_count(expected) > 0
    assert np.array_equal(read_coefficients(wr).values, expected.values)


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
    # The ladder ends at envelope power 14; max_order = 17 needs 16.
    cfg, s, x = _fit_inputs(tmp_path)
    w = tmp_path / "w.txt"
    code, _, err = run_cli(
        ["fit", "bwlasso", "--config", str(cfg), "--set", "dpd.max_order=17",
         "--signal", str(s), "--target", str(x), "--out", str(w)]
    )
    assert code == 1
    assert "no tabulated penalty beyond envelope power 14, structure has 16" in err
    assert not w.exists()


def test_cli_fit_bwlasso_schedule_error_comes_before_the_kernel_matrix(tmp_path):
    cfg, s, x = _fit_inputs(tmp_path)
    with mock.patch("dpdkit.cli.build_kernel_matrix", wraps=build_kernel_matrix) as spy:
        code, _, _ = run_cli(
            ["fit", "bwlasso", "--config", str(cfg), "--set", "dpd.max_order=17",
             "--signal", str(s), "--target", str(x), "--out", str(tmp_path / "w.txt")]
        )
    assert code == 1
    spy.assert_not_called()


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


@pytest.mark.parametrize(
    "record",
    ["aligned 0 0 - nan 0.0", "aligned 0 0 - 1.0 0.0  # caf\u00e9", "aligned +0 0 - 1.0 0.0"],
)
def test_cli_bad_coefficient_record_is_data_error(tmp_path, record):
    _, s, x = _fit_inputs(tmp_path)
    bad = tmp_path / "bad.txt"
    write_coefficients(bad, CoefficientVector(full_structure(1, 3, 0), [1.0, 0, 0, 0]))
    text = bad.read_text().replace("aligned 0 0 - 1.0 0.0", record)
    bad.write_bytes(text.encode("utf-8"))
    for argv in (
        ["refine", "--signal", str(s), "--target", str(x),
         "--coeffs", str(bad), "--out", str(tmp_path / "wr.txt")],
        ["evaluate", "--model", str(bad), "--signal", str(s), "--reference", str(x)],
    ):
        code, _, err = run_cli(argv)
        assert code == 2
        assert "data error" in err and "line 11" in err


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


@pytest.mark.parametrize(
    "override, empty",
    [
        ("standard_lasso.lambda=1e300", {"lasso-nr", "lasso-r"}),
        ("schedule.lambda_scale=1e300", {"bwlasso-nr", "bwlasso-r"}),
        ("schedule.threshold_scale=1e300", {"bwlasso-nr", "bwlasso-r"}),
        ("bcd.inner_tolerance=1e300", {"lasso-nr", "lasso-r", "bwlasso-nr", "bwlasso-r"}),
    ],
)
def test_cli_exp2_writes_an_empty_model_with_no_evm(tmp_path, override, empty):
    # A zero drive leaves no gain to align, so an empty model's row has
    # '-' for its EVM, 0 dB NMSE, no kernels and depth -1.
    cfg = write_cfg(tmp_path)
    code, stdout, err = run_cli(["exp2", "--config", str(cfg), "--set", override])
    assert code == 0, err
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["exp2_comparison.csv", *(f"exp2_coeffs_{m}.txt" for m in METHODS if m != "no-dpd")]
    )
    _, _, rows = read_table(out / "exp2_comparison.csv")
    assert [r[0] for r in rows] == list(METHODS)
    for method, evm, nmse, count, depth in rows:
        if method in empty:
            assert (evm, float(nmse), count, depth) == ("-", 0.0, "0", "-1")
        else:
            assert float(evm) < 0
    printed = {line.split(":")[0] for line in stdout.splitlines() if "evm_db=- " in line}
    assert printed == empty


def test_cli_set_override_reaches_experiment(tmp_path):
    cfg = write_cfg(tmp_path)
    code, _, _ = run_cli(
        ["exp1", "--config", str(cfg), "--set", "bcd.outer_iterations=2"]
    )
    assert code == 0
    _, _, rows = read_table(tmp_path / "out" / "exp1_trace.csv")
    assert len(rows) == 2


def test_star_import_binds_the_imported_names_and_no_submodule():
    # The names the import block of dpdkit/__init__.py binds, and no more.
    tree = ast.parse(Path(dpdkit.__file__).read_text())
    imported = sorted(
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    )
    namespace = {}
    exec("from dpdkit import *", namespace)
    del namespace["__builtins__"]
    assert len(imported) == 58
    assert dpdkit.__all__ == imported == sorted(namespace)
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())


def test_pyproject_reads_the_package_version():
    setuptools_config = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        project = setuptools_config.read_configuration(Path(__file__).parent.parent / "pyproject.toml")
    assert project["project"]["version"] == dpdkit.__version__


def test_console_script_is_installed():
    result = subprocess.run(
        ["dpdkit", "--help"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0
    assert "command" in result.stdout
