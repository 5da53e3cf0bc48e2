"""Golden values of the shipped desk-scale run point.

Criterion 10 only shows that reruns agree with each other; this test
also catches a change that is stable but moves the results.  The
golden file holds the values of every exp1/exp2 output of
``configs/desk-scale.cfg``: kernel counts, depths, selected iterations
and the supports of every kernel map and coefficient file must match
exactly, dB values within ``DB_TOLERANCE``, and the matched standard
Lasso penalty within ``LAMBDA_RTOL``.  Coefficient magnitudes and file
digests are left out: they move in their last digits with the BLAS
build and its thread count.

Re-record after a deliberate change of the results with
``PYTHONPATH=src python tests/test_golden.py --record`` and report the
shift.  ``--diff`` prints the shift of a run against the golden file
without rewriting it: the largest absolute shift of any pinned dB value,
and the relative shift of the matched penalty.
"""

import json
import math
from pathlib import Path
import sys
import tempfile

from dpdkit.gmp import read_coefficients
from dpdkit.pipeline import METHODS, load_config, run_experiment1, run_experiment2

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "desk-scale.json"
DB_TOLERANCE = 1e-6
LAMBDA_RTOL = 1e-9


def _table(path):
    """Rows of a CSV report, without its hash comment and column names."""
    lines = path.read_text().splitlines()[2:]
    return [line.split(",") for line in lines]


def _kernel(branch, order, lag, offset):
    return [branch, int(order), int(lag), None if offset in ("-", None) else int(offset)]


def golden_values(out: Path) -> dict:
    """Everything the golden file pins, read from one run's outputs."""
    summary = {}
    for key, value in _table(out / "exp1_summary.csv"):
        if key.endswith("_db") or key == "standard_lasso_lambda":
            summary[key] = float(value)
        elif key == "standard_lasso_matched":
            summary[key] = value
        else:
            summary[key] = int(value)
    maps = {}
    for iteration, *kernel, _ in _table(out / "exp1_kernel_maps.csv"):
        maps.setdefault(iteration, []).append(_kernel(*kernel))
    supports = {}
    for method in METHODS[1:]:
        coeffs = read_coefficients(out / f"exp2_coeffs_{method}.txt")
        descriptors = coeffs.structure.descriptors()
        supports[method] = [
            _kernel(d.branch.value, d.order_exponent, d.lag, d.envelope_offset)
            for d in (descriptors[j] for j in coeffs.support())
        ]
    return {
        "exp1_trace": [
            [int(i), float(nmse), int(count), int(depth)]
            for i, nmse, count, depth in _table(out / "exp1_trace.csv")
        ],
        "exp1_summary": summary,
        "exp1_kernel_maps": maps,
        "exp1_standard_lasso_map": [
            _kernel(*row[:4]) for row in _table(out / "exp1_standard_lasso_map.csv")
        ],
        "exp2_comparison": [
            [method, float(evm), float(nmse), int(count), int(depth)]
            for method, evm, nmse, count, depth in _table(out / "exp2_comparison.csv")
        ],
        "exp2_supports": supports,
    }


def run_desk_scale(out: Path) -> dict:
    config = load_config(ROOT / "configs" / "desk-scale.cfg", overrides=[f"output.dir={out}"])
    run_experiment1(config)
    run_experiment2(config)
    return golden_values(out)


def _assert_matches(found, expected, where, rtol=None):
    """Exact match, except floats: relative ``rtol`` when given, else
    ``DB_TOLERANCE`` absolute, since every other float is a dB value."""
    if isinstance(expected, dict):
        assert sorted(found) == sorted(expected), where
        for key in expected:
            rel = LAMBDA_RTOL if key == "standard_lasso_lambda" else rtol
            _assert_matches(found[key], expected[key], f"{where}.{key}", rel)
    elif isinstance(expected, list):
        assert len(found) == len(expected), where
        for i, (f, e) in enumerate(zip(found, expected)):
            _assert_matches(f, e, f"{where}[{i}]", rtol)
    elif isinstance(expected, float):
        assert isinstance(found, float), where
        if rtol is None:
            assert abs(found - expected) <= DB_TOLERANCE, (where, found, expected)
        else:
            assert math.isclose(found, expected, rel_tol=rtol, abs_tol=0.0), (
                where, found, expected
            )
    else:
        assert found == expected, (where, found, expected)


def _pinned_floats(found, expected, where):
    """``(where, found, expected)`` of every float both hold at one place."""
    if isinstance(expected, dict):
        for key in expected.keys() & found.keys():
            yield from _pinned_floats(found[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        for i, (f, e) in enumerate(zip(found, expected)):
            yield from _pinned_floats(f, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        yield where, found, expected


def shift_line(found, expected) -> str:
    """The largest dB shift and the relative penalty shift, as one line."""
    floats = list(_pinned_floats(found, expected, "desk-scale"))
    (penalty,) = [abs(f - e) / abs(e) for w, f, e in floats if w.endswith(".standard_lasso_lambda")]
    shift, where = max(
        (abs(f - e), w) for w, f, e in floats if not w.endswith(".standard_lasso_lambda")
    )
    return (
        f"largest dB shift {shift:.3g} dB ({where}); "
        f"standard_lasso_lambda relative shift {penalty:.3g}"
    )


def test_desk_scale_outputs_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    found = json.loads(json.dumps(run_desk_scale(tmp_path / "out")))
    _assert_matches(found, expected, "desk-scale")


if __name__ == "__main__":
    if sys.argv[1:] not in (["--record"], ["--diff"]):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record | --diff")
    with tempfile.TemporaryDirectory() as tmp:
        values = run_desk_scale(Path(tmp) / "out")
    if sys.argv[1] == "--diff":
        found = json.loads(json.dumps(values))
        print(shift_line(found, json.loads(GOLDEN.read_text())))
        sys.exit()
    # One line per row, kernel map and support.
    blocks = []
    for name, value in values.items():
        if isinstance(value, list):
            items = [json.dumps(row) for row in value]
        else:
            items = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in value.items()]
        open_, close = "[]" if isinstance(value, list) else "{}"
        blocks.append(f' "{name}": {open_}\n  ' + ",\n  ".join(items) + f"\n {close}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {GOLDEN}")
