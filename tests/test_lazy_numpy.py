"""``import repro`` loads no numpy; the first stacked solve does.

Runs in a fresh interpreter: the test process itself has long imported
numpy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import repro, repro.api, repro.cli, repro.gateway, repro.service, repro.dse
after_import = "numpy" in sys.modules

from repro.knapsack import (
    HAVE_NUMPY, MMKPProblem, solve_lagrangian_many, solver_numpy_enabled,
)
problem = MMKPProblem.from_columns(
    [2.0, 2.0],
    [[-1.0, -2.0], [-3.0, -0.5]],
    [((1.0, 0.0), (0.0, 1.0)), ((1.0, 1.0), (0.0, 1.0))],
)
results = solve_lagrangian_many([problem, problem])
print(json.dumps({
    "after_import": after_import,
    "after_solve": "numpy" in sys.modules,
    "have_numpy": HAVE_NUMPY,
    "enabled": solver_numpy_enabled(),
    "feasible": [r.solution.feasible for r in results],
}))
"""


def test_numpy_loads_on_the_first_stacked_solve_only():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    state = json.loads(completed.stdout)
    assert state["after_import"] is False
    assert state["feasible"] == [True, True]
    # On a numpy host the solve imports it and runs the dense backend; without
    # numpy the solve runs the pure loop and nothing is imported.
    assert state["after_solve"] is state["have_numpy"]
    assert state["enabled"] is state["have_numpy"]


def test_a_numpy_that_fails_to_import_falls_back_to_the_pure_loop(tmp_path):
    shadow = tmp_path / "numpy"
    shadow.mkdir()
    (shadow / "__init__.py").write_text('raise ImportError("broken numpy")\n')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(SRC)]))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    state = json.loads(completed.stdout)
    assert state["have_numpy"] is True  # found on the path ...
    assert state["enabled"] is False  # ... but the solve ran the pure loop
    assert state["after_import"] is False
    assert state["feasible"] == [True, True]
