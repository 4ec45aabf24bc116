"""The benchmark's tracer patches library functions by name: every
(module, attribute) it lists must exist, or traced sessions crash."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    missing = [(home, attr) for _, home, attr in targets
               if not callable(getattr(importlib.import_module(home), attr, None))]
    assert missing == []


def test_patched_signatures_hold():
    # install() rewraps the from_angle classmethod, and its _window_u64
    # hook reads the second positional argument as the window count
    from digitq.reduction import BinaryThreshold, _window_u64
    assert isinstance(vars(BinaryThreshold)["from_angle"], classmethod)
    assert list(inspect.signature(_window_u64).parameters) == ["bits", "length"]
