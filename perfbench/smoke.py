"""Smoke check of the benchmark itself, at a tiny size (under a minute).

    python3 perfbench/smoke.py

Checks that
  * BENCHMARK.json names exactly the metrics run.py and tracing.py define,
    with the same units and directions;
  * every metric named in BENCHMARK.json is emitted for every workload,
    with its unit (end-to-end untraced, per-layer traced);
  * the traced session's spans nest, every self time is >= 0, and the
    self times inside the run sum to no more than its traced run_s;
  * run.py refuses, without a result line, to run where there are no
    sources (a directory holding only BENCHMARK.json and perfbench/).
Exit status 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

import run
import tracing
import workloads

PROBLEMS: list = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        PROBLEMS.append(what)


def check_spans(path, run_s: float, label: str) -> None:
    data = np.load(path)
    names = list(data["names"])
    start, end, parent = data["start"], data["end"], data["parent"]
    nested = parent >= 0
    p = parent[nested]
    check(bool(np.all(end >= start)), f"{label}: every span ends after it starts")
    check(bool(np.all((start[p] <= start[nested]) & (end[nested] <= end[p]))),
          f"{label}: every span lies inside its parent")
    order = np.lexsort((start, parent))
    same = parent[order][1:] == parent[order][:-1]
    check(bool(np.all(end[order][:-1][same] <= start[order][1:][same])),
          f"{label}: sibling spans do not overlap")
    dur = (end - start) / 1e9
    covered = np.bincount(p, weights=dur[nested], minlength=dur.size)
    self_s = dur - covered
    check(bool(np.all(self_s >= -1e-9)), f"{label}: every self time is >= 0")
    root = names.index("bench.run")
    (run_idx,) = np.flatnonzero(data["name"] == root)
    inside = np.zeros(dur.size, dtype=bool)
    for i in np.argsort(start):  # a parent starts before its children
        inside[i] = parent[i] == run_idx or (parent[i] >= 0 and inside[parent[i]])
    total = float(self_s[inside].sum())
    check(total <= run_s, f"{label}: self times under the run sum to {total:.4f} s"
                          f" <= traced run_s {run_s:.4f} s")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
          == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    check({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
          == tracing.LAYER_METRICS, "BENCHMARK.json per_layer matches tracing.LAYER_METRICS")
    e2e = {m: unit for m, (unit, _) in run.END_TO_END.items()}
    layers = {m: unit for m, (unit, _) in tracing.LAYER_METRICS.items()}
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match workloads.WORKLOADS")

    for workload in workloads.WORKLOADS:
        for trace, wanted in ((False, e2e), (True, layers)):
            res = run.measure(workload, 1, 0, trace, scale="tiny")
            line = json.loads(run.result_line(res))
            label = f"{workload} trace={int(trace)}"
            check(set(line) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(res["failed"] == 0 and not res["errors"],
                  f"{label}: no session or op failed {res['errors'][:3]}")
            got = {m: v["unit"] for m, v in line["metrics"].items()}
            check(got == wanted, f"{label}: every metric emitted with its unit")
            if trace:
                check_spans(run.OUT_DIR / f"spans_{workload}.npz",
                            res["traced"][-1]["run_s"], label)

    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *bench["command"][1:], "--workload",
                           workloads.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without sources: exit {proc.returncode}, no result line")

    print(f"\n{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
