"""Experiment configuration and the two packaged studies.

A run is fully described by a small line-oriented config file
(``section.key = value``, read by the text layer of ``gmp``, so every
error names its file and line); everything downstream is a deterministic
function of it.  Experiment 1 traces the block-weighted fit iteration
by iteration and contrasts its kernel selection with a standard Lasso
matched in kernel count.  Experiment 2 compares six linearization
variants on a fresh validation signal and persists every fitted model.

All report files start with a comment line carrying the SHA-256 hash of
the canonical config serialization, so outputs are traceable to the
exact settings that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
import hashlib
import math
import os
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import ConfigurationError, DivergenceError, FormatError, _integer, _positive
from .gmp import (
    GmpStructure,
    _format_value,
    _parse_value,
    _read_ascii,
    _read_entries,
    _split_entry,
    _text_lines,
    _write_text,
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


@dataclass(frozen=True)
class ScheduleSpec:
    """The ``schedule`` section: the two scale factors of the tabulated
    ladder (``solver.default_schedule``), which multiply every order's
    penalty and zero threshold.  A schedule of arbitrary per-order
    weights is a ``RegularizationSchedule``, built in Python."""

    lambda_scale: float = 1.0
    threshold_scale: float = 1.0

    def __post_init__(self):
        for name, scale in vars(self).items():
            _positive(f"schedule.{name}", scale)


# The config language, one (section, ExperimentConfig field, keys) entry
# per section in file order.  The keys of a section backed by a config
# class are its fields, in order, with their types as kinds and their
# defaults; the others list (key, kind, default) rows.  The kinds are
# those of ``gmp._parse_value``.
_SECTIONS = (
    ("signal", "signal", OfdmConfig),
    ("pa", "pa_preset", (("preset", "str", "default"),)),
    ("ilc", "ilc", IlcConfig),
    ("dpd", "structure", (
        ("memory_depth", "int", 9),
        ("max_order", "int", 7),
        ("lagging_depth", "int", 1),
        ("leading_depth", "int", 0),
    )),
    ("schedule", "schedule_spec", ScheduleSpec),
    ("bcd", "bcd", BcdConfig),
    ("standard_lasso", "standard_lasso_lambda", (("lambda", "float", 1e-4),)),
    ("output", "output_dir", (("dir", "str", "out"),)),
    ("run", "seed", (("seed", "int", 2),)),
)
_KINDS = {int: "int", float: "float", str: "str", complex | None: "complex?"}


def _rows(keys):
    """The (key, kind, default) rows of a section's keys."""
    if isinstance(keys, tuple):
        return keys
    hints = get_type_hints(keys)
    return tuple((f.name, _KINDS[hints[f.name]], f.default) for f in fields(keys))


# (section, key, kind, default), one row per key.
_SCHEMA = tuple((section, *row) for section, _, keys in _SECTIONS for row in _rows(keys))


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
    output_dir: str
    seed: int
    base_dir: str = "."

    def __post_init__(self):
        _positive("standard_lasso.lambda", self.standard_lasso_lambda)
        _integer("run.seed", self.seed, 0, 2**64 - 1)

    def schedule(self) -> RegularizationSchedule:
        return default_schedule(self.structure, **vars(self.schedule_spec))

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
        d = self.structure
        dpd = {
            "memory_depth": max(d.aligned_lags),
            "max_order": max(d.aligned_orders) + 1,
            "lagging_depth": max(d.lagging_cross, default=0),
            "leading_depth": max(d.leading_cross, default=0),
        }
        lines = []
        for section, name, keys in _SECTIONS:
            value = getattr(self, name)
            for key, _, _ in _rows(keys):
                if section == "dpd":
                    item = dpd[key]
                elif isinstance(keys, tuple):
                    item = value
                else:
                    item = getattr(value, key)
                lines.append(f"{section}.{key} = {_format_value(item)}")
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


def write_table(path, columns, rows, comment=None) -> None:
    """Write a CSV table: an optional ``# comment`` line, the column
    names, then one line per row.  Values are written as
    ``gmp._format_value`` writes them, and None as ``-``."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("-" if v is None else _format_value(v) for v in row))
    _write_text(path, lines, comment)


def config_from_entries(entries, base_dir=".") -> ExperimentConfig:
    """The config of ``entries``, which map each ``section.key`` to its
    ``(source, line number, value)`` as ``gmp._read_entries`` gives them.
    An unknown key or a value not of its key's kind raises FormatError
    naming the entry's source and line."""
    slots = {f"{s}.{k}": ((s, k), kind) for s, k, kind, _ in _SCHEMA}
    values = {(s, k): default for s, k, _, default in _SCHEMA}
    for name, entry in entries.items():
        if name not in slots:
            source, lineno, _ = entry
            raise FormatError(f"unknown config key {name}", path=source, line=lineno)
        slot, kind = slots[name]
        values[slot] = _parse_value(name, entry, kind)

    objects = {}
    for section, name, keys in _SECTIONS:
        kwargs = {key: value for (s, key), value in values.items() if s == section}
        if section == "dpd":
            objects[name] = full_structure(**kwargs)
        elif isinstance(keys, tuple):
            (objects[name],) = kwargs.values()
        else:
            objects[name] = keys(**kwargs)
    return ExperimentConfig(**objects, base_dir=str(base_dir))


def parse_config(text, base_dir=".", source="<config>", overrides=()) -> ExperimentConfig:
    """The config of ``text`` with each ``section.key=value`` override
    applied.  An error in an entry is a ConfigurationError that names
    ``source`` and the line, or the override."""
    try:
        entries = _read_entries(_text_lines(text, source), source)
        for item in overrides:
            where = f"override {item!r}"
            key, value = _split_entry(item, where)
            entries[key] = (where, None, value)
        return config_from_entries(entries, base_dir)
    except FormatError as exc:
        raise ConfigurationError(str(exc)) from None


def load_config(path, overrides=()) -> ExperimentConfig:
    """Read, override, and validate a config file.

    Relative input paths inside the file (the PA preset) resolve
    against the file's own directory; the output directory stays
    relative to the caller's working directory.
    """
    try:
        text = _read_ascii(path)
    except FormatError as exc:
        raise ConfigurationError(str(exc)) from None
    return parse_config(text, base_dir=Path(path).parent, source=str(path), overrides=overrides)


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
    """Everything both experiments compute the same way: (reference,
    model, learned, matrix, ls_full, bwlasso, trace).  The schedule is
    built first, so a schedule error comes before any training work."""
    schedule = config.schedule()
    reference = generate_ofdm(config.signal)
    model = config.load_pa_model()
    learned = ilc_learn(reference, model, config.ilc)
    matrix = build_kernel_matrix(reference, config.structure)
    bwlasso, trace = block_weighted_lasso(matrix, learned.drive, schedule, config.bcd)
    ls_full = least_squares(matrix, learned.drive)
    return reference, model, learned, matrix, ls_full, bwlasso, trace


def matched_count_lasso(matrix, target, target_count, bcd):
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
        coeffs = lasso_iterated_ridge(matrix, target, lam, config=bcd)
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
    reference, _, learned, matrix, ls_full, _, trace = _training_stage(config)
    target = learned.drive
    ls_nmse = nmse_db_arrays(apply_model(reference, ls_full).samples, target.samples)

    std_lambda, std_coeffs, matched = matched_count_lasso(
        matrix, target, trace.selected.kernel_count, config.bcd
    )

    maps = [
        _kernel_map_rows(config.structure, record.coefficients)
        for record in trace.records
    ]
    with _OutputDir(config) as out:
        out.write_table("exp1_trace.csv", trace.COLUMNS, trace.rows())
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
    """One method of exp2.  ``evm_db`` is None for a method whose model
    is empty: it drives the amplifier with zeros, and a zero output has
    no gain to align."""

    method: str
    evm_db: float | None
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
    and effective depth.  A method whose model is empty has no EVM, which
    the table writes as ``-``.  Writes exp2_comparison.csv plus one
    coefficient file per fitted method.
    """
    _, model, learned, matrix, ls_full, bwlasso_nr, _ = _training_stage(config)
    target = learned.drive

    lasso_nr = lasso_iterated_ridge(
        matrix, target, config.standard_lasso_lambda, config=config.bcd
    )
    lasso_r = _refine_or_keep(matrix, target, lasso_nr)
    bwlasso_r = _refine_or_keep(matrix, target, bwlasso_nr)
    fitted = {
        "ls-full": ls_full,
        "lasso-nr": lasso_nr,
        "lasso-r": lasso_r,
        "bwlasso-nr": bwlasso_nr,
        "bwlasso-r": bwlasso_r,
    }

    validation = generate_ofdm(config.validation_signal())

    rows = []
    for method in METHODS:
        coeffs = fitted.get(method)
        drive = validation if coeffs is None else apply_model(validation, coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            normalized = pa_forward(drive, model).samples / learned.gain
        if not np.isfinite(normalized).all():
            raise DivergenceError(f"{method}: gain-normalized amplifier output is not finite")
        if coeffs is not None and not coeffs.support().size:
            evm, nmse = None, nmse_db_arrays(normalized, validation.samples)
        else:
            report = evm_db(IqSignal._own(normalized, validation.sample_rate_hz), validation)
            evm, nmse = report.evm_db, report.nmse_db
        rows.append(
            ReportRow(
                method=method,
                evm_db=evm,
                nmse_db=nmse,
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
