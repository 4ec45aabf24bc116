"""One benchmark session: a fresh interpreter running one workload.

Reads a session spec (see workloads.py) as JSON on stdin, imports the
library from the checkout's ``src``, builds the seed configs, runs the
ops, serializes every result and prints one JSON line: the monotonic
clock at the end of setup and of the run, one record per op (key,
digest, passed, error), the peak RSS and, when traced, the per-layer
metrics.  The parent process owns the spawn and exit timestamps.

Usage (normally started by run.py): python3 perfbench/session.py < spec.json
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _angle(x):
    """A string is an exact multiple of pi, a number is radians."""
    return Fraction(x) if isinstance(x, str) else float(x)


def build_configs(names: list) -> dict:
    from digitq.digits import concatenated_squares
    from digitq.experiments import epr_config
    from digitq.states import StateConfig, default_config, default_qutrit_config

    cfgs = {}
    for name in names:
        if name == "qubit":
            cfgs[name] = default_config()
        elif name == "qutrit":
            cfgs[name] = default_qutrit_config()
        elif name == "epr":
            cfgs[name] = epr_config()
        elif name == "alt":
            # the alternate seed seed_invariance_suite builds by default
            main = cfgs["qubit"]
            cfgs[name] = StateConfig(concatenated_squares(2, len(main.seed_string)),
                                     n_max=main.n_max, target_length=main.target_length)
        else:
            raise ValueError(f"unknown config {name!r}")
    return cfgs


def run_op(op: dict, cfgs: dict):
    from digitq import experiments as ex
    from digitq.states import BlochPoint, QutritAngles, qubit_state, qutrit_state

    kind = op["op"]
    if kind == "polarization":
        return ex.polarization_experiment(_angle(op["theta"]),
                                          ex.SampleGrid(depth=op["depth"]), cfgs["qubit"])
    if kind == "interference":
        return ex.interference_experiment(ex.SampleGrid(depth=op["depth"]), cfgs["qubit"])
    if kind == "epr":
        return ex.epr_experiment(_angle(op["dtheta"]), N=op["pairs"], cfg=cfgs["epr"],
                                 seed=op["seed"])
    if kind == "seed_invariance":
        return ex.seed_invariance_suite(cfgs["qubit"], cfgs["alt"], seed=op["seed"])
    if kind == "trace_rule":
        return ex.trace_rule_experiment(
            _angle(op["theta1"]), _angle(op["theta2"]),
            ex.SampleGrid(depth=op["depth1"], base=3), ex.SampleGrid(depth=op["depth2"]),
            cfg=cfgs["qutrit"], n_samples=op["samples"], seed=op["seed"])
    if kind == "weak_reduction":
        return ex.weak_reduction_experiment(_angle(op["theta0"]), ensemble_size=op["walks"],
                                            cfg=cfgs["qubit"], seed=op["seed"])
    if kind == "qubit_state":
        return qubit_state(cfgs["qubit"], BlochPoint(_angle(op["theta"]), Fraction(op["lam"])))
    if kind == "qutrit_state":
        return qutrit_state(cfgs["qutrit"], QutritAngles(
            _angle(op["theta1"]), _angle(op["theta2"]),
            Fraction(op["lam1"]), Fraction(op["lam2"])))
    raise ValueError(f"unknown op {kind!r}")


def serialize(out) -> tuple[str, bool]:
    """Digest of the op's output and whether its statistics passed: a
    report hashes its CSV bytes (after the JSON form is built too, as the
    CLI writes both), a state hashes its base, length and digit bytes."""
    from digitq.digits import DigitString

    if isinstance(out, DigitString):
        h = hashlib.sha256(f"{out.base}:{len(out)}:".encode())
        h.update(out.digits.tobytes())
        return h.hexdigest(), True
    json.dumps(out.to_json_dict())
    return hashlib.sha256(out.to_csv().encode()).hexdigest(), out.passed


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    import digitq
    import digitq.experiments  # noqa: F401  (the CLI's imports: numpy, mpmath, every module)

    if Path(digitq.__file__).resolve().parent != SRC / "digitq":
        raise SystemExit(f"digitq imported from {digitq.__file__}, not from {SRC}")
    rec = None
    if spec["trace"]:
        from tracing import SpanRecorder
        rec = SpanRecorder()
        rec.install()

    def span(name):
        return rec.span(name) if rec else contextlib.nullcontext()

    with span("bench.setup"):
        cfgs = build_configs(spec["configs"])
    t_setup = time.monotonic()
    if spec["setup_only"]:
        print(json.dumps({"t_setup": t_setup}))
        return 0
    outputs = []
    with span("bench.run"):
        for op in spec["ops"]:
            try:
                outputs.append(run_op(op, cfgs))
            except Exception as exc:  # one failed op must not hide the others
                outputs.append(exc)
    t_run = time.monotonic()
    records = []
    with span("bench.serialize"):
        for out in outputs:
            if isinstance(out, Exception):
                records.append({"digest": None, "passed": False,
                                "error": f"{type(out).__name__}: {out}"})
            else:
                digest, passed = serialize(out)
                records.append({"digest": digest, "passed": passed, "error": None})
    result = {"t_setup": t_setup, "t_run": t_run, "ops": records,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if rec:
        result["layers"] = rec.layer_metrics()
        rec.save(spec["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
