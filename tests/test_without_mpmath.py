"""The library neither needs nor loads mpmath or numpy.random: its
thresholds are Python-integer fixed point, its draws come from its own
Philox stream, and both serve only as test oracles."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# small runs of every path that builds a threshold or draws: the
# polarization grid, the trace rule's quantile and its samples, the walk's
# starts and its jitter (at alpha 16 some walks take a second step), a
# qutrit state and the suite
SESSION = """
import sys
if {blocked}:
    sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
from digitq import cli
for argv in (
    ["polarization", "--theta", "1/3pi", "--depth", "6", "--length", "4096"],
    ["trace-rule", "--theta1", "1/2pi", "--theta2", "1/3pi", "--samples", "64",
     "--depth", "6", "--depth3", "4"],
    ["weak-reduction", "--theta0", "1/3pi", "--walks", "20", "--alpha", "16"],
    ["state", "qutrit", "--theta1", "1/3pi", "--theta2", "1/4pi",
     "--lambda1", "2/3pi", "--lambda2", "1/2pi", "--prefix", "16"],
    ["suite"],
):
    assert cli.main(argv) in (0, 1), argv
for name in ("mpmath", "numpy.random"):
    print(name, "loaded" if sys.modules.get(name) is not None else "absent")
"""


@pytest.mark.parametrize("blocked", [True, False])
def test_cli_runs_without_loading_mpmath(blocked):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", SESSION.format(blocked=blocked)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-2:] == ["mpmath absent", "numpy.random absent"]
