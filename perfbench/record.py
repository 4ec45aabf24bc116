"""Record the output digests of one workload seed.

    python3 perfbench/record.py --seed 1 --out perfbench/digests/canonical.json

Runs two untraced sessions of every workload at the seed.  Every op must
succeed, pass its statistics and give the same digest in both sessions;
the table written maps each op's key (workloads.op_key) to the sha256 of
its output.  run.py checks every op whose key is in any table under
perfbench/digests, so re-recording is only for a change that is meant to
alter outputs, never for a speedup.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import run
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    table = {}
    for workload in workloads.WORKLOADS:
        spec = workloads.build(workload, args.seed)
        runs = [run.run_session(spec, False, time.monotonic() + run.RUN_LIMIT_S)
                for _ in range(2)]
        for s in runs:
            if not s["ok"]:
                print(f"{workload}: session failed: {s['error']}", file=sys.stderr)
                return 1
        for i, op in enumerate(spec["ops"]):
            recs = [s["ops"][i] for s in runs]
            key = workloads.op_key(op)
            if any(r["error"] or not r["passed"] for r in recs) or \
                    recs[0]["digest"] != recs[1]["digest"]:
                print(f"{workload}: not recordable: {key}: {recs}", file=sys.stderr)
                return 1
            table[key] = recs[0]["digest"]
        print(f"{workload}: {len(spec['ops'])} ops recorded")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
