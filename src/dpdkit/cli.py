"""Command-line front end.

Every run-producing subcommand reads a config file and accepts
repeated ``--set section.key=value`` overrides.  Exit codes: 0 success,
1 usage or configuration problem, 2 unreadable or malformed data files,
3 numerical failure inside a solver or loop.
"""

from __future__ import annotations

import argparse
import difflib
import sys

from .errors import (
    ConfigurationError,
    DegenerateAlignmentError,
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    FormatError,
    RankDeficiencyError,
)
from .gmp import (
    CoefficientVector,
    apply_model,
    build_kernel_matrix,
    effective_memory_depth,
    kernel_count,
    max_memory_lag,
    read_coefficients,
    write_coefficients,
)
from .pa_sim import ilc_learn, pa_forward
from .pipeline import load_config, run_experiment1, run_experiment2, write_table
from .signal import evm_db, generate_ofdm, read_iq, write_iq
from .solver import (
    block_weighted_lasso,
    lasso_iterated_ridge,
    least_squares,
    ls_refine,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so the front end controls exit codes."""

    def error(self, message):
        raise UsageError(message)


def _add_config_options(parser):
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config entry (repeatable)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="dpdkit", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = commands.add_parser("gen-signal", help="generate the configured OFDM stimulus")
    _add_config_options(p)
    p.add_argument("--out", required=True, help="output IQ file")
    p.add_argument(
        "--validation",
        action="store_true",
        help="use the validation seed (run.seed) instead of the training seed",
    )
    p.set_defaults(handler=_cmd_gen_signal)

    p = commands.add_parser("sim-pa", help="pass an IQ file through the amplifier model")
    _add_config_options(p)
    p.add_argument("--in", dest="infile", required=True, help="input IQ file")
    p.add_argument("--out", required=True, help="output IQ file")
    p.set_defaults(handler=_cmd_sim_pa)

    p = commands.add_parser("ilc", help="learn the amplifier drive for the stimulus")
    _add_config_options(p)
    p.add_argument("--out", required=True, help="learned drive IQ file")
    p.add_argument("--trace", help="optional CSV of the per-iteration error")
    p.set_defaults(handler=_cmd_ilc)

    p = commands.add_parser("fit", help="fit a predistorter from signal to target")
    p.add_argument("method", choices=("ls", "lasso", "bwlasso"))
    _add_config_options(p)
    p.add_argument("--signal", required=True, help="model input IQ file")
    p.add_argument("--target", required=True, help="desired model output IQ file")
    p.add_argument("--out", required=True, help="coefficient file to write")
    p.add_argument("--trace", help="per-iteration CSV (bwlasso only)")
    p.set_defaults(handler=_cmd_fit)

    p = commands.add_parser("refine", help="least-squares re-estimate on a fit's support")
    p.add_argument("--signal", required=True, help="model input IQ file")
    p.add_argument("--target", required=True, help="desired model output IQ file")
    p.add_argument("--coeffs", required=True, help="coefficient file selecting the support")
    p.add_argument("--out", required=True, help="coefficient file to write")
    p.set_defaults(handler=_cmd_refine)

    p = commands.add_parser("evaluate", help="print NMSE/EVM of a signal against a reference")
    p.add_argument("--signal", required=True, help="received or model-input IQ file")
    p.add_argument("--reference", required=True, help="reference IQ file")
    p.add_argument("--model", help="optional coefficient file applied to --signal first")
    p.set_defaults(handler=_cmd_evaluate)

    p = commands.add_parser("exp1", help="run the convergence/structure-selection study")
    _add_config_options(p)
    p.set_defaults(handler=_cmd_exp1)

    p = commands.add_parser("exp2", help="run the six-way linearization comparison")
    _add_config_options(p)
    p.set_defaults(handler=_cmd_exp2)

    return parser


def _all_option_strings(parser) -> set:
    out = set()
    stack = [parser]
    while stack:
        current = stack.pop()
        for action in current._actions:
            out.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
    return out


def _with_suggestion(message: str, flags) -> str:
    if message.startswith("unrecognized arguments:"):
        for token in message.split(":", 1)[1].split():
            if token.startswith("-"):
                close = difflib.get_close_matches(token.split("=")[0], sorted(flags), n=1)
                if close:
                    return f"{message} (did you mean {close[0]}?)"
    return message


def _cmd_gen_signal(args):
    config = load_config(args.config, args.set)
    signal_config = config.validation_signal() if args.validation else config.signal
    signal = generate_ofdm(signal_config)
    write_iq(signal, args.out)
    print(f"wrote {args.out}: {len(signal)} samples, rms {signal.rms!r}")


def _cmd_sim_pa(args):
    config = load_config(args.config, args.set)
    model = config.load_pa_model()
    signal = read_iq(args.infile)
    write_iq(pa_forward(signal, model), args.out)
    print(f"wrote {args.out}: {len(signal)} samples")


def _cmd_ilc(args):
    config = load_config(args.config, args.set)
    model = config.load_pa_model()
    reference = generate_ofdm(config.signal)
    result = ilc_learn(reference, model, config.ilc)
    write_iq(result.drive, args.out)
    if args.trace:
        write_table(args.trace, ("iteration", "error_db"), enumerate(result.error_db))
    print(f"wrote {args.out}: final error {result.error_db[-1]!r} dB")


def _cmd_fit(args):
    config = load_config(args.config, args.set)
    if args.trace and args.method != "bwlasso":
        raise UsageError("--trace is only produced by the bwlasso method")
    # A schedule that cannot be built fails before any input is read.
    schedule = config.schedule() if args.method == "bwlasso" else None
    signal = read_iq(args.signal)
    target = read_iq(args.target)
    matrix = build_kernel_matrix(signal, config.structure)
    if args.method == "ls":
        coeffs = least_squares(matrix, target)
    elif args.method == "lasso":
        coeffs = lasso_iterated_ridge(
            matrix, target, config.standard_lasso_lambda, config=config.bcd
        )
    else:
        coeffs, trace = block_weighted_lasso(matrix, target, schedule, config.bcd)
        if args.trace:
            write_table(args.trace, trace.COLUMNS, trace.rows())
    write_coefficients(args.out, coeffs)
    print(f"wrote {args.out}: {_support_summary(coeffs)}")


def _cmd_refine(args):
    coeffs = read_coefficients(args.coeffs)
    support = coeffs.support()
    if support.size == 0:
        raise ConfigurationError(f"{args.coeffs} has no active kernels to refine")
    signal = read_iq(args.signal)
    target = read_iq(args.target)
    matrix = build_kernel_matrix(signal, coeffs.structure)
    refined = ls_refine(matrix, target, support)
    write_coefficients(args.out, refined)
    print(f"wrote {args.out}: {_support_summary(refined)}")


def _cmd_evaluate(args):
    reference = read_iq(args.reference)
    signal = read_iq(args.signal)
    if args.model:
        signal = apply_model(signal, read_coefficients(args.model))
    print(evm_db(signal, reference).as_line())


def _support_summary(coeffs) -> str:
    # Depth is reported two ways: the largest carrier delay, and the
    # deepest past sample touched once lagging envelopes are counted.
    return (
        f"kernel_count={kernel_count(coeffs)} "
        f"max_lag={max_memory_lag(coeffs)} "
        f"deepest_sample={effective_memory_depth(coeffs)}"
    )


def _cmd_exp1(args):
    config = load_config(args.config, args.set)
    trace, _ = run_experiment1(config)
    selected = trace.selected
    picked = CoefficientVector(config.structure, selected.coefficients)
    print(
        f"wrote exp1 outputs to {config.resolved_output_dir()}: "
        f"iteration {selected.iteration} selected, nmse_db={selected.nmse_db!r}, "
        f"{_support_summary(picked)}"
    )


def _cmd_exp2(args):
    config = load_config(args.config, args.set)
    report = run_experiment2(config)
    for row in report.rows:
        print(
            f"{row.method}: evm_db={'-' if row.evm_db is None else repr(row.evm_db)} "
            f"nmse_db={row.nmse_db!r} "
            f"kernel_count={row.kernel_count} "
            f"effective_memory_depth={row.effective_memory_depth}"
        )
    print(f"wrote exp2 outputs to {config.resolved_output_dir()}")


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        message = _with_suggestion(str(exc), _all_option_strings(parser))
        print(f"usage error: {message}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits argparse directly
        return int(exc.code) if exc.code else 0
    try:
        args.handler(args)
    except (UsageError, ConfigurationError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, DimensionError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (
        RankDeficiencyError,
        DivergenceError,
        DegenerateInputError,
        DegenerateAlignmentError,
    ) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
