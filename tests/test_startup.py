"""Start-up cost: a process that never solves a system never loads scipy.

scipy.linalg supplies one routine, the LAPACK ``zposv`` of the dense
solves, and takes longer to import than the rest of dpdkit; ``solver``
imports it at the first solve.  Forming a normal system, from a kernel
matrix or a plain matrix, takes numpy alone.  The probe runs in a fresh
interpreter, because the test process has imported scipy long before.
"""
import json
import os
from pathlib import Path
import subprocess
import sys

import dpdkit

REPO_ROOT = Path(__file__).parent.parent
PACKAGE_ROOT = str(Path(dpdkit.__file__).resolve().parent.parent)

# Prints, as its last line, whether scipy was loaded after each step.
_PROBE = """
import json, sys

steps = []


def step(name):
    steps.append([name, "scipy" in sys.modules])


import numpy as np

import dpdkit
from dpdkit.cli import cli
from dpdkit.gmp import normal_system

step("import dpdkit")
config = dpdkit.load_config(sys.argv[1])
step("load_config")
model = config.load_pa_model()
step("load_pa_model")
reference = dpdkit.generate_ofdm(config.signal)
step("generate_ofdm")
learned = dpdkit.ilc_learn(reference, model, config.ilc)
step("ilc_learn")
dpdkit.apply_model(reference, model.coefficients)
step("apply_model")
dpdkit.pa_forward(learned.drive, model)
step("pa_forward")
for argv in (
    ["gen-signal", "--config", sys.argv[1], "--out", "s.iq"],
    ["sim-pa", "--config", sys.argv[1], "--in", "s.iq", "--out", "y.iq"],
    ["ilc", "--config", sys.argv[1], "--out", "d.iq"],
    ["evaluate", "--signal", "y.iq", "--reference", "s.iq"],
):
    assert cli(argv) == 0, argv
    step("dpdkit " + argv[0])
matrix = dpdkit.build_kernel_matrix(learned.drive, config.structure)
normal_system(matrix, reference)
step("normal_system")
normal_system(np.eye(3, dtype=complex), np.ones(3))
step("normal_system, plain matrix")
dpdkit.least_squares(matrix, reference)
step("least_squares")
print(json.dumps(steps))
"""


def test_scipy_loads_at_the_first_solve_and_not_before(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(REPO_ROOT / "configs" / "desk-scale.cfg")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    steps = dict(json.loads(done.stdout.splitlines()[-1]))
    assert steps == {
        "import dpdkit": False,
        "load_config": False,
        "load_pa_model": False,
        "generate_ofdm": False,
        "ilc_learn": False,
        "apply_model": False,
        "pa_forward": False,
        "dpdkit gen-signal": False,
        "dpdkit sim-pa": False,
        "dpdkit ilc": False,
        "dpdkit evaluate": False,
        "normal_system": False,
        "normal_system, plain matrix": False,
        "least_squares": True,
    }
