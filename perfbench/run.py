"""digitq benchmark: times fresh-process sessions of the library from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dyadic_grid --seed 1 --seconds 30 --trace 0

Load is a closed loop: one session (a fresh ``python3 perfbench/session.py``
process) runs at a time and the next starts when the previous one has
exited.  A round is one full session followed by SETUPS_PER_ROUND
setup-only sessions (spawn, imports, configs, exit), which add samples to
setup_s; rounds repeat until the next one would end past ``--seconds``
(at least MIN_ROUNDS).  With ``--trace 1`` a round is an untraced session
followed by a traced one; the traced sessions give the per-layer metrics
and the difference of the two run times gives trace.overhead_s.

Every op's output is checked: it must not raise, every statistic of a
report must pass its tolerance, and where a digest is recorded for the
op (perfbench/digests/*.json) the output must match it byte for byte.
Before the result the run prints a table of every metric with its unit,
sample count and, when there are enough sessions, a tail percentile,
plus the environment.  The last line of stdout is the JSON result.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_ROUNDS = 2
SETUPS_PER_ROUND = 3         # extra setup-only sessions, for a steady setup_s
RUN_LIMIT_S = 170.0          # a run must exit within 180 s

# the child's environment: BLAS threads pinned (see README, "Processes")
CHILD_ENV_OVERRIDES = {"OPENBLAS_NUM_THREADS": "1"}

# (unit, better) of every end-to-end metric; failed_frac is printed in the
# table but carried in the result by "failed"/"attempted", since it is 0
# whenever the program is correct
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "session_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def load_digests() -> dict:
    table: dict = {}
    for path in sorted((HERE / "digests").glob("*.json")):
        for key, digest in json.loads(path.read_text()).items():
            if table.get(key, digest) != digest:
                raise SystemExit(f"{path.name}: conflicting digest for {key}")
            table[key] = digest
    return table


def run_session(spec: dict, traced: bool, deadline: float, setup_only: bool = False) -> dict:
    """Spawn one session, wait for it to exit, and time it."""
    spec = dict(spec, trace=traced, setup_only=setup_only,
                spans_path=str(OUT_DIR / f"spans_{spec['workload']}.npz"))
    env = dict(os.environ, **CHILD_ENV_OVERRIDES)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "session.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(json.dumps(spec).encode(),
                                    timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "error": "session timed out"}
    t_exit = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        return {"ok": False, "error": err.decode(errors="replace").strip()[-2000:]}
    res = json.loads(out.decode().strip().splitlines()[-1])
    res.update(ok=True, setup_s=res["t_setup"] - t_spawn)
    if not setup_only:
        res.update(
            run_s=res["t_run"] - res["t_setup"],
            session_s=t_exit - t_spawn,
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        )
    return res


def tail_percentile(values: list):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90, 99, 99.9):
        if len(values) * (1 - p / 100) >= 10:
            best = (p, float(np.percentile(values, p)))
    return best


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full") -> dict:
    """Run sessions in a closed loop and aggregate them into one result."""
    spec = workloads.build(workload, seed, scale)
    OUT_DIR.mkdir(exist_ok=True)
    digests = load_digests()
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    plain: list = []
    traced: list = []
    setups: list = []
    while True:
        plain.append(run_session(spec, False, deadline))
        if trace:
            traced.append(run_session(spec, True, deadline))
        else:
            setups += [run_session(spec, False, deadline, setup_only=True)
                       for _ in range(SETUPS_PER_ROUND)]
        elapsed = time.monotonic() - t0
        per_round = elapsed / len(plain)
        if not all(s["ok"] for s in plain + traced + setups):
            break
        if len(plain) >= MIN_ROUNDS and elapsed + per_round > seconds:
            break
        if elapsed + per_round > RUN_LIMIT_S:
            break

    attempted = failed = checked = 0
    errors = []
    for s in setups:
        if not s["ok"]:
            errors.append(s["error"])
    for s in plain + traced:
        if not s["ok"]:
            attempted += len(spec["ops"])
            failed += len(spec["ops"])
            errors.append(s["error"])
            continue
        for op, rec in zip(spec["ops"], s["ops"]):
            attempted += 1
            want = digests.get(workloads.op_key(op))
            checked += want is not None
            bad = rec["error"] or (not rec["passed"] and "statistic out of tolerance") or (
                want is not None and rec["digest"] != want and "digest mismatch")
            if bad:
                failed += 1
                errors.append(f"{workloads.op_key(op)}: {bad}")

    good_plain = [s for s in plain if s["ok"]]
    good_traced = [s for s in traced if s["ok"]]
    samples = {m: [s[m] for s in good_plain] for m in END_TO_END}
    samples["setup_s"] += [s["setup_s"] for s in setups if s["ok"]]
    metrics = {}
    if trace:
        for m, (unit, _) in tracing.LAYER_METRICS.items():
            if m == "trace.overhead_s":
                continue
            vals = [s["layers"][m] for s in good_traced]
            metrics[m] = {"value": statistics.median(vals) if vals else 0.0, "unit": unit}
        overhead = (statistics.median([s["run_s"] for s in good_traced])
                    - statistics.median(samples["run_s"])) \
            if good_traced and samples["run_s"] else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        for m, (unit, _) in END_TO_END.items():
            metrics[m] = {"value": statistics.median(samples[m]) if samples[m] else 0.0,
                          "unit": unit}
    return {"workload": workload, "seed": seed, "spec": spec, "samples": samples,
            "traced": good_traced, "attempted": attempted, "failed": failed,
            "checked": checked, "errors": errors, "metrics": metrics,
            "correct": failed == 0 and not errors and attempted > 0}


def _openblas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be read."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    """Versions, CPU and BLAS settings the sessions run under.  The BLAS
    thread count is read in a process started with the child's environment."""
    import mpmath

    cpu_model = None
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy, run; print(run._openblas_threads())"],
        cwd=HERE, env=dict(os.environ, **CHILD_ENV_OVERRIDES),
        capture_output=True, text=True, timeout=60)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_session": probe.stdout.strip() or None,
        "session_env": CHILD_ENV_OVERRIDES,
    }


def print_table(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"sessions {len(result['samples']['run_s'])} untraced, "
          f"{len(result['traced'])} traced")
    rows = []
    for m, (unit, _) in END_TO_END.items():
        vals = result["samples"][m]
        if not vals:
            continue
        tail = tail_percentile(vals)
        tail_s = f"p{tail[0]:g}={tail[1]:.6g}" if tail else "p90=n/a (<10 beyond)"
        rows.append((m, f"{statistics.median(vals):.6g}", unit, f"n={len(vals)}", tail_s))
    att = result["attempted"]
    rows.append(("failed_frac", f"{result['failed'] / att if att else 1.0:.6g}", "1",
                 f"n={att}", f"digest-checked {result['checked']}"))
    for row in rows:
        print("  {:<14} {:>12} {:<4} {:<7} {}".format(*row))
    if result["traced"]:
        for m, v in result["metrics"].items():
            print(f"  {m:<46} {v['value']:>14.6g} {v['unit']}")
    for e in result["errors"][:20]:
        print(f"  FAILED {e}")


def result_line(result: dict) -> str:
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "digitq" / "__init__.py").is_file():
        print(f"no digitq sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(environment()))
    print_table(result)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
