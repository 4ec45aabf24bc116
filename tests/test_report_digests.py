"""Byte identity of every benchmark op's output.

The benchmark records the sha256 of every op's output under
``perfbench/digests``.  These tests run the same ops in-process, through
the benchmark's own ``build_configs``, ``run_op`` and ``serialize``, and
require every digest to match, so a change that alters a report CSV or a
state's digits fails here rather than only in a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
session = _load("session")


def _recorded() -> dict:
    table = {}
    for path in sorted((PERFBENCH / "digests").glob("*.json")):
        table.update(json.loads(path.read_text()))
    return table


RECORDED = _recorded()


@pytest.mark.parametrize("workload,seed", [
    *((w, 1) for w in workloads.WORKLOADS),
    ("dyadic_grid", 4), ("dyadic_grid", 10), ("dyadic_grid", 7919),
])
def test_digests_match_recorded(workload, seed):
    spec = workloads.build(workload, seed)
    cfgs = session.build_configs(spec["configs"])
    mismatched = []
    for op in spec["ops"]:
        key = workloads.op_key(op)
        digest, passed = session.serialize(session.run_op(op, cfgs))
        if not passed or RECORDED.get(key) != digest:
            mismatched.append(key)
    assert mismatched == []
