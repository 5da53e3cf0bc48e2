"""Statement-deletion sweep: which statements of dpdkit can go with no
tier-1 test noticing?

The script copies what tier-1 reads (``src/``, ``tests/``, ``configs/``,
``demos/``, ``README.md`` and ``pyproject.toml``) into ``build/sweep/``,
then takes the function-body statements of ``src/dpdkit/*.py`` one at a
time: it replaces the statement with ``pass`` in the copy and runs
tier-1 there with ``-x``, one pytest process at a time, each with a time
limit.  Docstrings, ``pass``, ``return`` and ``raise`` statements are
left alone.  A statement whose deletion passes every test survives; the
survivors are printed by file and line, each with its reason when
``tools/sweep_expected.txt`` accepts it.  The checkout is never edited.

    python tools/sweep.py                      # every module
    python tools/sweep.py solver.py pipeline.py

Tier-1 takes about 15 s, so a whole sweep of some 900 statements runs
for hours; it is not part of tier-1 or CI.  The exit status is 1 when a
survivor is not accepted in ``tools/sweep_expected.txt``.
"""

import argparse
import ast
import os
from pathlib import Path
import shutil
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tools" / "sweep_expected.txt"
COPIED = ("src", "tests", "configs", "demos", "README.md", "pyproject.toml")
# Needs the installed console script, which a source checkout lacks.
DESELECTED = "tests/test_pipeline.py::test_console_script_is_installed"
# Seconds one tier-1 run may take, about 20 times a normal run.
TIME_LIMIT = 300


def statements(source):
    """``(qualified function name, statement)`` for every statement in a
    function body, nested blocks included, less the ones left alone."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
            if in_function and isinstance(child, ast.stmt) and not _left_alone(child, node):
                found.append((scope, child))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, name, in_function or is_function)

    visit(ast.parse(source), "", False)
    return found


def _left_alone(stmt, parent):
    """Whether ``stmt`` is a ``pass``, ``return`` or ``raise``, or the
    docstring of ``parent``."""
    if isinstance(stmt, (ast.Pass, ast.Return, ast.Raise)):
        return True
    return (
        isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt is parent.body[0]
        and isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def without(source, stmt):
    """``source`` with ``stmt`` replaced by ``pass``, every other line
    where it was.  An ``elif`` branch, the nested ``if`` of its parent's
    ``else``, becomes ``else: pass``."""
    lines = source.splitlines(keepends=True)
    first, last = stmt.lineno - 1, stmt.end_lineno - 1
    head = lines[first][: stmt.col_offset]
    tail = lines[last][stmt.end_col_offset :]
    empty = "else: pass" if lines[first].startswith("elif", stmt.col_offset) else "pass"
    lines[first : last + 1] = [head + empty + tail] + ["\n"] * (last - first)
    return "".join(lines)


def accepted():
    """``{(file, function, statement text): reason}`` from the expected
    list: one ``file | function | statement | reason`` line each."""
    table = {}
    for line in EXPECTED.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            file, function, text, reason = (part.strip() for part in line.split("|", 3))
            table[file, function, text] = reason
    return table


def survives(copy):
    """Whether tier-1 passes in ``copy``; a run past ``TIME_LIMIT``
    counts as noticed."""
    # No bytecode cache: two mutants of one size, written in the same
    # second, would pass its staleness check.
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--deselect", DESELECTED]
    try:
        run = subprocess.run(command, cwd=copy, env=env, timeout=TIME_LIMIT,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", help="file names in src/dpdkit (default: all)")
    args = parser.parse_args(argv)

    copy = ROOT / "build" / "sweep"
    shutil.rmtree(copy, ignore_errors=True)
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, copy / name)
    if not survives(copy):
        sys.exit("tier-1 fails on the unchanged copy; nothing to sweep")

    package = copy / "src" / "dpdkit"
    names = args.modules or sorted(p.name for p in package.glob("*.py"))
    table = accepted()
    swept, unexpected = 0, 0
    for name in names:
        path = package / name
        original = path.read_text()
        try:
            for function, stmt in statements(original):
                path.write_text(without(original, stmt))
                swept += 1
                if not survives(copy):
                    continue
                text = ast.get_source_segment(original, stmt).splitlines()[0].strip()
                reason = table.get((name, function, text))
                unexpected += reason is None
                print(f"{name}:{stmt.lineno}  {function}  {text}  -- "
                      f"{reason or 'NOT ACCEPTED'}", flush=True)
        finally:
            path.write_text(original)
    print(f"{swept} statements deleted one at a time, {unexpected} unaccepted survivors")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
