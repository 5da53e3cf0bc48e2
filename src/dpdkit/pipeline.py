"""Experiment configuration and the two packaged studies.

A run is fully described by a small line-oriented config file
(``section.key = value``); everything downstream is a deterministic
function of it.  Experiment 1 traces the block-weighted fit iteration
by iteration and contrasts its kernel selection with a standard Lasso
matched in kernel count.  Experiment 2 compares six linearization
variants on a fresh validation signal and persists every fitted model.

All report files start with a comment line carrying the SHA-256 hash of
the canonical config serialization, so outputs are traceable to the
exact settings that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import hashlib
import math
import os
from pathlib import Path
import re

import numpy as np

from .errors import ConfigurationError
from .gmp import (
    GmpStructure,
    apply_model,
    build_kernel_matrix,
    effective_memory_depth,
    full_structure,
    kernel_count,
    normal_system,
    write_coefficients,
)
from .pa_sim import IlcConfig, PaModel, default_pa_model, ilc_learn, pa_forward, read_pa_model
from .signal import IqSignal, OfdmConfig, evm_db, generate_ofdm, nmse_db_arrays
from .solver import (
    BcdConfig,
    RegularizationSchedule,
    block_weighted_lasso,
    default_schedule,
    lasso_iterated_ridge,
    least_squares,
    ls_refine,
)

MATCHED_COUNT_STEPS = 20
MATCHED_COUNT_SLACK = 0.10

# (section, key, type, default).  Types: int, float, bool, str,
# gain (two floats or "none").
_SCHEMA = (
    ("signal", "n_subcarriers", "int", 64),
    ("signal", "n_active", "int", 52),
    ("signal", "n_symbols", "int", 64),
    ("signal", "oversampling_factor", "int", 4),
    ("signal", "constellation", "str", "qpsk"),
    ("signal", "seed", "int", 1),
    ("signal", "target_rms", "float", 1.0),
    ("signal", "sample_rate_hz", "float", 1.0),
    ("pa", "preset", "str", "default"),
    ("ilc", "iterations", "int", 30),
    ("ilc", "learning_rate", "float", 0.5),
    ("ilc", "target_gain", "gain", None),
    ("dpd", "memory_depth", "int", 9),
    ("dpd", "max_order", "int", 7),
    ("dpd", "lagging_depth", "int", 1),
    ("dpd", "include_leading", "bool", False),
    ("dpd", "leading_depth", "int", 0),
    ("schedule", "mode", "str", "default"),
    ("schedule", "lambda_scale", "float", 1.0),
    ("schedule", "threshold_scale", "float", 1.0),
    ("bcd", "outer_iterations", "int", 10),
    ("bcd", "inner_ridge_iterations", "int", 50),
    ("bcd", "inner_tolerance", "float", 1e-8),
    ("bcd", "keep_best_iterate", "bool", True),
    ("bcd", "ridge_epsilon", "float", 1e-8),
    ("bcd", "warm_start", "bool", True),
    ("standard_lasso", "lambda", "float", 1e-4),
    ("standard_lasso", "zero_threshold", "float", 0.0),
    ("output", "dir", "str", "out"),
    ("run", "seed", "int", 2),
)


@dataclass(frozen=True)
class ScheduleSpec:
    """How a run obtains its per-order penalties.

    ``default`` mode builds the tabulated ladder for the structure at
    hand; ``custom`` mode takes explicit per-order values from the
    config.  The scale factors apply in both modes.
    """

    mode: str = "default"
    lambda_scale: float = 1.0
    threshold_scale: float = 1.0
    lambda_by_order: tuple = ()
    threshold_by_order: tuple = ()

    def __post_init__(self):
        if self.mode not in ("default", "custom"):
            raise ConfigurationError(
                f"schedule.mode must be 'default' or 'custom', got {self.mode!r}"
            )
        for name, scale in (
            ("lambda_scale", self.lambda_scale),
            ("threshold_scale", self.threshold_scale),
        ):
            if not (math.isfinite(scale) and scale > 0):
                raise ConfigurationError(f"schedule.{name} must be positive, got {scale}")
        if self.mode == "default" and (self.lambda_by_order or self.threshold_by_order):
            raise ConfigurationError(
                "per-order schedule values require schedule.mode = custom"
            )
        if self.mode == "custom" and not self.lambda_by_order:
            raise ConfigurationError(
                "schedule.mode = custom needs at least one schedule.lambda_<k> entry"
            )

    def build(self, structure: GmpStructure) -> RegularizationSchedule:
        if self.mode == "default":
            return default_schedule(structure, self.lambda_scale, self.threshold_scale)
        lam = {k: v * self.lambda_scale for k, v in self.lambda_by_order}
        tau = {k: v * self.threshold_scale for k, v in self.threshold_by_order}
        return RegularizationSchedule(lam, tau)


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of one config file; see ``load_config``."""

    signal: OfdmConfig
    pa_preset: str
    ilc: IlcConfig
    structure: GmpStructure
    schedule_spec: ScheduleSpec
    bcd: BcdConfig
    standard_lasso_lambda: float
    standard_lasso_zero_threshold: float
    output_dir: str
    seed: int
    base_dir: str = "."

    def __post_init__(self):
        if not (
            math.isfinite(self.standard_lasso_lambda) and self.standard_lasso_lambda > 0
        ):
            raise ConfigurationError(
                f"standard_lasso.lambda must be positive, got {self.standard_lasso_lambda}"
            )
        if not (
            math.isfinite(self.standard_lasso_zero_threshold)
            and self.standard_lasso_zero_threshold >= 0
        ):
            raise ConfigurationError(
                f"standard_lasso.zero_threshold must be >= 0, got "
                f"{self.standard_lasso_zero_threshold}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"run.seed must fit in 64 bits, got {self.seed}")

    def schedule(self) -> RegularizationSchedule:
        return self.schedule_spec.build(self.structure)

    def validation_signal(self) -> OfdmConfig:
        """The held-out signal: same shape, independent seed."""
        return replace(self.signal, seed=self.seed)

    def load_pa_model(self) -> PaModel:
        if self.pa_preset == "default":
            return default_pa_model()
        return read_pa_model(self._resolve(self.pa_preset))

    def resolved_output_dir(self) -> Path:
        # Input paths resolve against the config file so a config can name
        # a preset sitting next to it; outputs land relative to the caller's
        # working directory, like any other tool's output flag.
        return Path(self.output_dir)

    def _resolve(self, relative: str) -> Path:
        path = Path(relative)
        return path if path.is_absolute() else Path(self.base_dir) / path

    def canonical_text(self) -> str:
        """Fully resolved, ordered serialization; hashes and files use this."""
        d, spec, gain = self.structure, self.schedule_spec, self.ilc.target_gain
        # Keys that are not a field of their section's object; every other
        # key is read from it by name.
        derived = {
            ("pa", "preset"): self.pa_preset,
            ("ilc", "target_gain"): "none" if gain is None else f"{gain.real!r} {gain.imag!r}",
            ("dpd", "memory_depth"): max(d.aligned_lags),
            ("dpd", "max_order"): max(d.aligned_orders) + 1,
            ("dpd", "lagging_depth"): max(d.lagging_cross, default=0),
            ("dpd", "include_leading"): bool(d.leading_cross),
            ("dpd", "leading_depth"): max(d.leading_cross, default=0),
            ("standard_lasso", "lambda"): self.standard_lasso_lambda,
            ("standard_lasso", "zero_threshold"): self.standard_lasso_zero_threshold,
            ("output", "dir"): self.output_dir,
            ("run", "seed"): self.seed,
        }
        sections = {"signal": self.signal, "ilc": self.ilc, "schedule": spec, "bcd": self.bcd}
        lines = []
        for section, key, _, _ in _SCHEMA:
            if (section, key) in derived:
                value = derived[(section, key)]
            else:
                value = getattr(sections[section], key)
            lines.append(f"{section}.{key} = {_format_value(value)}")
            if section == "schedule" and key == "threshold_scale":
                for k, v in spec.lambda_by_order:
                    lines.append(f"schedule.lambda_{k} = {v!r}")
                for k, v in spec.threshold_by_order:
                    lines.append(f"schedule.threshold_{k} = {v!r}")
        return "\n".join(lines) + "\n"

    @property
    def config_hash(self) -> str:
        """SHA-256 of ``canonical_text``.  A preset file's own SHA-256 is
        hashed with it, so two runs on different amplifiers behind one
        path get different hashes; a missing preset file raises OSError.
        """
        text = self.canonical_text()
        if self.pa_preset != "default":
            preset = hashlib.sha256(self._resolve(self.pa_preset).read_bytes()).hexdigest()
            text += f"pa.preset_sha256 = {preset}\n"
        return hashlib.sha256(text.encode("ascii")).hexdigest()


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(path, columns, rows, comment=None) -> None:
    """Write a CSV table: an optional ``# comment`` line, the column
    names, then one line per row.  Floats are written with ``repr``,
    booleans as ``true``/``false`` and None as ``-``."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join("-" if v is None else _format_value(v) for v in row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_bool(raw, where):
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ConfigurationError(f"{where} must be 'true' or 'false', got {raw!r}")


def _parse_typed(raw, kind, where):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return _parse_bool(raw, where)
        if kind == "gain":
            if raw == "none":
                return None
            tokens = raw.split()
            if len(tokens) != 2:
                raise ValueError
            return complex(float(tokens[0]), float(tokens[1]))
        return raw
    except ValueError:
        raise ConfigurationError(f"{where} expects a {kind}, got {raw!r}") from None


def _parse_entry(line, where):
    """``((section, key), value)`` of one ``section.key = value`` entry;
    ``where`` prefixes the error messages."""
    if not line.isascii():
        raise ConfigurationError(f"{where}non-ASCII character in {line!r}")
    name, equals, value = line.partition("=")
    name = name.strip()
    if not equals:
        raise ConfigurationError(f"{where}expected 'section.key = value', got {line!r}")
    if name.count(".") != 1:
        raise ConfigurationError(f"{where}keys are 'section.key', got {name!r}")
    section, key = name.split(".")
    return (section, key), value.strip()


def _parse_lines(text, source):
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, value = _parse_entry(line, f"{source}:{lineno}: ")
        if name in entries:
            raise ConfigurationError(f"{source}:{lineno}: duplicate key {'.'.join(name)}")
        entries[name] = value
    return entries


def _schedule_order_key(section, key):
    """``(kind, k)`` of a dynamic schedule key ``lambda_<k>`` or
    ``threshold_<k>`` with an even order k written as ``str(k)``, or
    None if not one: ``lambda_02`` would repeat ``lambda_2``."""
    match = re.fullmatch(r"(lambda|threshold)_(0|[1-9][0-9]*)", key)
    if section != "schedule" or match is None or int(match[2]) % 2:
        return None
    return match[1], int(match[2])


def config_from_entries(entries, base_dir=".", source="<config>") -> ExperimentConfig:
    kinds = {(s, k): kind for s, k, kind, _ in _SCHEMA}
    values = {(s, k): default for s, k, _, default in _SCHEMA}
    by_order = {"lambda": {}, "threshold": {}}
    for (section, key), raw in entries.items():
        dynamic = _schedule_order_key(section, key)
        if dynamic is not None:
            kind, order = dynamic
            by_order[kind][order] = _parse_typed(raw, "float", f"{section}.{key}")
        elif (section, key) in kinds:
            values[(section, key)] = _parse_typed(raw, kinds[(section, key)], f"{section}.{key}")
        else:
            raise ConfigurationError(f"{source}: unknown config key {section}.{key}")

    def section(name):
        """The keys of section ``name`` as keyword arguments."""
        return {key: value for (s, key), value in values.items() if s == name}

    return ExperimentConfig(
        signal=OfdmConfig(**section("signal")),
        pa_preset=values[("pa", "preset")],
        ilc=IlcConfig(**section("ilc")),
        structure=full_structure(**section("dpd")),
        schedule_spec=ScheduleSpec(
            **section("schedule"),
            lambda_by_order=tuple(sorted(by_order["lambda"].items())),
            threshold_by_order=tuple(sorted(by_order["threshold"].items())),
        ),
        bcd=BcdConfig(**section("bcd")),
        standard_lasso_lambda=values[("standard_lasso", "lambda")],
        standard_lasso_zero_threshold=values[("standard_lasso", "zero_threshold")],
        output_dir=values[("output", "dir")],
        seed=values[("run", "seed")],
        base_dir=str(base_dir),
    )


def parse_config(text, base_dir=".", source="<config>", overrides=()) -> ExperimentConfig:
    entries = _parse_lines(text, source)
    for item in overrides:
        name, value = _parse_entry(item, "override: ")
        entries[name] = value
    return config_from_entries(entries, base_dir=base_dir, source=source)


def load_config(path, overrides=()) -> ExperimentConfig:
    """Read, override, and validate a config file.

    Relative input paths inside the file (the PA preset) resolve
    against the file's own directory; the output directory stays
    relative to the caller's working directory.
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigurationError(
            f"{path}:{lineno}: non-ASCII byte {raw[exc.start]:#04x}"
        ) from None
    return parse_config(
        text, base_dir=path.parent, source=str(path), overrides=overrides
    )


# ---------------------------------------------------------------------------
# Report plumbing.


class _OutputDir:
    """Writes experiment files as one set, or none of them.

    Each file is written to a temporary file in the output directory.
    When the block exits cleanly, every one is renamed over its final
    name; when it raises, the temporary files are removed.  A run that
    fails part-way therefore leaves no half-written hash-stamped file,
    and the files of an earlier run stay as they were.
    """

    def __init__(self, config: ExperimentConfig):
        self.root = config.resolved_output_dir()
        self.header = f"config-hash: {config.config_hash}"
        self.pending = []  # (temporary path, final path), in write order

    def __enter__(self):
        os.makedirs(self.root, exist_ok=True)
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                while self.pending:
                    os.replace(*self.pending[0])
                    self.pending.pop(0)
        finally:
            for temp, _ in self.pending:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
        return False

    def _stage(self, name) -> Path:
        """Temporary path for ``name``, registered for rename or removal
        before anything is written to it."""
        temp = self.root / f".{name}.{os.getpid()}.tmp"
        self.pending.append((temp, self.root / name))
        return temp

    def write_table(self, name, columns, rows) -> Path:
        write_table(self._stage(name), columns, rows, comment=self.header)
        return self.root / name

    def write_model(self, name, coeffs) -> Path:
        write_coefficients(self._stage(name), coeffs, comment=self.header)
        return self.root / name


def _kernel_map_rows(structure, values):
    """Long-format (branch, order, lag, offset, magnitude) rows, active only."""
    rows = []
    for desc, value in zip(structure.descriptors(), np.asarray(values)):
        magnitude = abs(value)
        if magnitude == 0.0:
            continue
        rows.append(
            (
                desc.branch.value,
                desc.order_exponent,
                desc.lag,
                desc.envelope_offset,
                float(magnitude),
            )
        )
    return rows


def _training_stage(config: ExperimentConfig):
    """Shared front end of both experiments: reference, drive, regressors."""
    reference = generate_ofdm(config.signal)
    model = config.load_pa_model()
    learned = ilc_learn(reference, model, config.ilc)
    matrix = build_kernel_matrix(reference, config.structure)
    return reference, model, learned, matrix


def matched_count_lasso(matrix, target, target_count, zero_threshold, bcd):
    """Bisect log-lambda so standard Lasso hits a given kernel count.

    The kernel count falls as the penalty grows, so the search brackets
    the target between a tiny penalty (nearly dense) and the null
    certificate (all zero).  Returns (lam, coefficients, matched) where
    matched reports whether the best count landed within 10 percent of
    the target.
    """
    lam_hi = 2.0 * float(np.max(np.abs(normal_system(matrix, target).rhs)))
    lam_lo = lam_hi * 1e-8
    best = None
    for step in range(MATCHED_COUNT_STEPS):
        lam = math.sqrt(lam_lo * lam_hi)
        coeffs = lasso_iterated_ridge(matrix, target, lam, zero_threshold, bcd)
        count = kernel_count(coeffs)
        gap = abs(count - target_count)
        if best is None or gap < best[0]:
            best = (gap, lam, coeffs, count)
        if count > target_count:
            lam_lo = lam
        elif count < target_count:
            lam_hi = lam
        else:
            break
    gap, lam, coeffs, count = best
    matched = gap <= MATCHED_COUNT_SLACK * target_count
    return lam, coeffs, matched


def run_experiment1(config: ExperimentConfig):
    """Convergence and structure-selection study.

    Fits the predistorter (reference in, learned drive out) with the
    block-weighted solver, recording NMSE, kernel count, and effective
    depth per iteration plus the active-kernel map of every iteration.
    A standard Lasso tuned to the same kernel count and a full least
    squares baseline give the contrast.  Writes exp1_trace.csv,
    exp1_kernel_maps.csv, exp1_standard_lasso_map.csv, and
    exp1_summary.csv into the output directory.

    Returns (trace, kernel_maps) where kernel_maps[i] holds the active
    (branch, order, lag, offset, magnitude) rows after iteration i+1.
    """
    reference, model, learned, matrix = _training_stage(config)
    target = learned.drive
    schedule = config.schedule()

    coeffs, trace = block_weighted_lasso(matrix, target, schedule, config.bcd)
    ls_full = least_squares(matrix, target)
    ls_nmse = nmse_db_arrays(apply_model(reference, ls_full).samples, target.samples)

    std_lambda, std_coeffs, matched = matched_count_lasso(
        matrix,
        target,
        trace.selected.kernel_count,
        config.standard_lasso_zero_threshold,
        config.bcd,
    )

    maps = [
        _kernel_map_rows(config.structure, record.coefficients)
        for record in trace.records
    ]
    with _OutputDir(config) as out:
        out.write_table(
            "exp1_trace.csv",
            ("iteration", "nmse_db", "kernel_count", "effective_memory_depth"),
            trace.rows(),
        )
        out.write_table(
            "exp1_kernel_maps.csv",
            ("iteration", "branch", "order", "lag", "offset", "magnitude"),
            [
                (record.iteration, *row)
                for record, rows in zip(trace.records, maps)
                for row in rows
            ],
        )
        out.write_table(
            "exp1_standard_lasso_map.csv",
            ("branch", "order", "lag", "offset", "magnitude"),
            _kernel_map_rows(config.structure, std_coeffs.values),
        )
        out.write_table(
            "exp1_summary.csv",
            ("key", "value"),
            (
                ("ls_full_nmse_db", ls_nmse),
                ("ls_full_kernel_count", kernel_count(ls_full)),
                ("bw_selected_iteration", trace.selected.iteration),
                ("bw_nmse_db", trace.selected.nmse_db),
                ("bw_kernel_count", trace.selected.kernel_count),
                ("bw_effective_memory_depth", trace.selected.effective_memory_depth),
                ("standard_lasso_lambda", std_lambda),
                ("standard_lasso_kernel_count", kernel_count(std_coeffs)),
                (
                    "standard_lasso_effective_memory_depth",
                    effective_memory_depth(std_coeffs),
                ),
                ("standard_lasso_matched", matched),
                ("ilc_error_db", learned.error_db[-1]),
            ),
        )
    return trace, maps


@dataclass(frozen=True)
class ReportRow:
    method: str
    evm_db: float
    nmse_db: float
    kernel_count: int
    effective_memory_depth: int


@dataclass(frozen=True)
class ComparisonReport:
    """Six-way linearization comparison; one row per method."""

    rows: tuple

    def row(self, method: str) -> ReportRow:
        for row in self.rows:
            if row.method == method:
                return row
        raise KeyError(method)


METHODS = ("no-dpd", "ls-full", "lasso-nr", "lasso-r", "bwlasso-nr", "bwlasso-r")


def _refine_or_keep(matrix, target, coeffs):
    """LS re-estimate on the support; an empty support stays empty."""
    support = coeffs.support()
    if support.size == 0:
        return coeffs
    return ls_refine(matrix, target, support)


def run_experiment2(config: ExperimentConfig) -> ComparisonReport:
    """Out-of-sample linearization comparison.

    Trains every predistorter variant on the learned drive, then
    predistorts a freshly seeded validation signal, passes it through
    the amplifier, and reports gain-aligned EVM, NMSE, kernel count,
    and effective depth.  Writes exp2_comparison.csv plus one
    coefficient file per fitted method.
    """
    reference, model, learned, matrix = _training_stage(config)
    target = learned.drive
    schedule = config.schedule()

    ls_full = least_squares(matrix, target)
    lasso_nr = lasso_iterated_ridge(
        matrix,
        target,
        config.standard_lasso_lambda,
        config.standard_lasso_zero_threshold,
        config.bcd,
    )
    lasso_r = _refine_or_keep(matrix, target, lasso_nr)
    bwlasso_nr, _ = block_weighted_lasso(matrix, target, schedule, config.bcd)
    bwlasso_r = _refine_or_keep(matrix, target, bwlasso_nr)
    fitted = {
        "ls-full": ls_full,
        "lasso-nr": lasso_nr,
        "lasso-r": lasso_r,
        "bwlasso-nr": bwlasso_nr,
        "bwlasso-r": bwlasso_r,
    }

    validation = generate_ofdm(config.validation_signal())
    gain = (
        config.ilc.target_gain
        if config.ilc.target_gain is not None
        else model.smallsignal_gain
    )

    rows = []
    for method in METHODS:
        coeffs = fitted.get(method)
        drive = validation if coeffs is None else apply_model(validation, coeffs)
        normalized = IqSignal(
            pa_forward(drive, model).samples / gain, validation.sample_rate_hz
        )
        report = evm_db(normalized, validation)
        rows.append(
            ReportRow(
                method=method,
                evm_db=report.evm_db,
                nmse_db=report.nmse_db,
                kernel_count=0 if coeffs is None else kernel_count(coeffs),
                effective_memory_depth=(
                    -1 if coeffs is None else effective_memory_depth(coeffs)
                ),
            )
        )

    with _OutputDir(config) as out:
        out.write_table(
            "exp2_comparison.csv",
            ("method", "evm_db", "nmse_db", "kernel_count", "effective_memory_depth"),
            [
                (r.method, r.evm_db, r.nmse_db, r.kernel_count, r.effective_memory_depth)
                for r in rows
            ],
        )
        for method, coeffs in fitted.items():
            out.write_model(f"exp2_coeffs_{method}.txt", coeffs)
    return ComparisonReport(rows=tuple(rows))
