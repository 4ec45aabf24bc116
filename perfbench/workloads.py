"""Workload inputs, drawn from the workload seed.

A workload is a list of library calls (ops) plus the seed configs they
need.  The seed picks angles, grid points and experiment seeds; sizes are
the suite's own.  Every op is a JSON object, and its canonical JSON text
is the key its output digest is recorded under, so an op whose inputs do
not depend on the seed is checked at every seed.

Angle convention, as in the library: a string is an exact multiple of pi
("1/3" means pi/3), a number is radians.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

WORKLOADS = ("dyadic_grid", "qutrit_trace", "state_reduce")

# the suite's own inputs (cli._run_suite)
POLARIZATION_THETAS = ("0", "1/6", "1/3", "1/2", "2/3", "5/6", "1")
EPR_DTHETAS = ("0", "1/4", "1/3", "1/2", "3/4", "1")
TRACE_PAIRS = ((2 * math.acos(1 / math.sqrt(3)), "1/2"), ("1/2", "1/3"), ("1", "1/4"))
WALK_THETA0S = ("1/3", "1/2", "2/3")

# full = suite sizes; tiny = the smoke check's
SIZES = {
    "full": {"depth": 12, "pairs": 1 << 14, "samples": 1024, "walks": 2000, "states": 8},
    "tiny": {"depth": 6, "pairs": 64, "samples": 8, "walks": 10, "states": 1},
}


def op_key(op: dict) -> str:
    return json.dumps(op, sort_keys=True, separators=(",", ":"))


def _colatitude(rng: random.Random) -> str:
    return f"{rng.randrange(1, 16)}/16"


def build(workload: str, seed: int, scale: str = "full") -> dict:
    """Session spec: the configs to build and the ops to run."""
    size = SIZES[scale]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dyadic_grid":
        # epr and seed_invariance use their seed only for the report's
        # seed column, so they keep the command-line default 0.  epr runs
        # at the drawn dtheta and at its mirror pi - dtheta: the pairs
        # flipped at one are exactly those kept at the other, so a
        # session's work does not depend on the draw
        ops = [{"op": "polarization", "theta": th, "depth": size["depth"]}
               for th in POLARIZATION_THETAS]
        ops.append({"op": "interference", "depth": size["depth"]})
        dtheta = Fraction(rng.choice(EPR_DTHETAS))
        ops += [{"op": "epr", "dtheta": str(d), "pairs": size["pairs"], "seed": 0}
                for d in (dtheta, 1 - dtheta)]
        ops.append({"op": "seed_invariance", "seed": 0})
        return {"workload": workload, "configs": ["qubit", "epr", "alt"], "ops": ops}
    if workload == "qutrit_trace":
        exp_seed = rng.getrandbits(32)
        ops = [{"op": "trace_rule", "theta1": th1, "theta2": th2, "depth1": 7,
                "depth2": 12, "samples": size["samples"], "seed": exp_seed}
               for th1, th2 in TRACE_PAIRS]
        return {"workload": workload, "configs": ["qutrit"], "ops": ops}
    if workload == "state_reduce":
        # longitudes as multiples of pi: m/2^11 pi is m/2^12 of a turn
        # (dyadic depth <= 12), 2a/3^7 pi is a/3^7 of a turn (triadic
        # depth <= 7), the configs' grid depths
        ops = [{"op": "qubit_state", "theta": _colatitude(rng),
                "lam": f"{rng.randrange(1 << 12)}/{1 << 11}"}
               for _ in range(size["states"])]
        ops += [{"op": "qutrit_state", "theta1": _colatitude(rng),
                 "theta2": _colatitude(rng),
                 "lam1": f"{2 * rng.randrange(3 ** 7)}/{3 ** 7}",
                 "lam2": f"{rng.randrange(1 << 12)}/{1 << 11}"}
                for _ in range(size["states"])]
        ops.append({"op": "weak_reduction", "theta0": rng.choice(WALK_THETA0S),
                    "walks": size["walks"], "seed": rng.getrandbits(32)})
        return {"workload": workload, "configs": ["qubit", "qutrit"], "ops": ops}
    raise ValueError(f"unknown workload {workload!r}")
