"""The library neither needs nor loads mpmath: its thresholds are
Python-integer fixed point, and mpmath serves only as a test oracle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# small runs of every path that builds a threshold: the polarization grid,
# the trace rule's quantile, the walk and a qutrit state
SESSION = """
import sys
if {blocked}:
    sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
from digitq import cli
for argv in (
    ["polarization", "--theta", "1/3pi", "--depth", "6", "--length", "4096"],
    ["trace-rule", "--theta1", "1/2pi", "--theta2", "1/3pi", "--samples", "64",
     "--depth", "6", "--depth3", "4"],
    ["weak-reduction", "--theta0", "1/3pi", "--walks", "20"],
    ["state", "qutrit", "--theta1", "1/3pi", "--theta2", "1/4pi",
     "--lambda1", "2/3pi", "--lambda2", "1/2pi", "--prefix", "16"],
):
    assert cli.main(argv) in (0, 1), argv
print("loaded" if sys.modules.get("mpmath") is not None else "absent")
"""


@pytest.mark.parametrize("blocked", [True, False])
def test_cli_runs_without_loading_mpmath(blocked):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", SESSION.format(blocked=blocked)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "absent"
