"""Outside-in span recorder for the traced benchmark session.

The recorder wraps library functions from outside the program: for each
target it replaces every ``digitq`` module attribute bound to that very
function object, so aliases such as ``apply as apply_operator`` are
traced too.  Each call records a span (name, start, end, parent) in
memory; ``layer_metrics`` turns the spans into per-layer calls, self
times and counters when the session ends, and ``save`` writes the raw
spans for inspection.

Self time is a span's duration minus the time covered by its direct
children.  Spans nest because the traced code is single-threaded
(OpenBLAS threads run no Python), so a stack gives each span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

# (unit, better) of every per-layer metric, in report order
LAYER_METRICS = {
    "digits.champernowne.self_s": ("s", "lower"),
    "digits.phi_shift.calls": ("count", "lower"),
    "digits.phi_shift.self_s": ("s", "lower"),
    "digits.compress.self_s": ("s", "lower"),
    "digits.relabel.self_s": ("s", "lower"),
    "digits.reinsert.self_s": ("s", "lower"),
    "phase.compose.calls": ("count", "lower"),
    "phase.compose.self_s": ("s", "lower"),
    "phase.operator_pow.calls": ("count", "lower"),
    "phase.operator_pow.self_s": ("s", "lower"),
    "phase.rotation_operator.calls": ("count", "lower"),
    "phase.rotation_cache.hit_ratio": ("1", "higher"),
    "phase.apply.calls": ("count", "lower"),
    "phase.apply.digits": ("count", "lower"),
    "phase.apply.self_s": ("s", "lower"),
    "reduction.window_u64.calls": ("count", "lower"),
    "reduction.window_u64.digits": ("count", "lower"),
    "reduction.window_u64.self_s": ("s", "lower"),
    "reduction.window_u64.ns_per_digit": ("ns/digit", "lower"),
    "reduction.suffix_ge_mask.self_s": ("s", "lower"),
    "reduction.deletion_mask.self_s": ("s", "lower"),
    "reduction.partial_reduce.self_s": ("s", "lower"),
    "reduction.rotated_prefix.self_s": ("s", "lower"),
    "reduction.reduce_compound.self_s": ("s", "lower"),
    "reduction.reduced_prefix.calls": ("count", "lower"),
    "reduction.reduced_prefix.self_s": ("s", "lower"),
    "reduction.threshold.calls": ("count", "lower"),
    "reduction.threshold.self_s": ("s", "lower"),
    "reduction.walk.calls": ("count", "lower"),
    "reduction.walk.self_s": ("s", "lower"),
    "reduction.walk.steps_mean": ("steps", "lower"),
    "reduction.walk.nonconverged": ("count", "lower"),
    "states.qubit_state.self_s": ("s", "lower"),
    "states.qutrit_state.self_s": ("s", "lower"),
    "states.qutrit_reduce.self_s": ("s", "lower"),
    "states.interferometer.self_s": ("s", "lower"),
    "states.qutrit_pipeline.calls": ("count", "lower"),
    "states.qutrit_pipeline.self_s": ("s", "lower"),
    "states.qutrit_pipeline.attempts_per_sample": ("1", "lower"),
    "states.qutrit_pipeline.collapses": ("count", "lower"),
    "experiments.polarization.wall_s": ("s", "lower"),
    "experiments.interference.wall_s": ("s", "lower"),
    "experiments.epr.wall_s": ("s", "lower"),
    "experiments.seed_invariance.wall_s": ("s", "lower"),
    "experiments.trace_rule.wall_s": ("s", "lower"),
    "experiments.weak_reduction.wall_s": ("s", "lower"),
    "experiments.grid_windows.calls": ("count", "lower"),
    "experiments.grid_windows.self_s": ("s", "lower"),
    "experiments.window_cache.hit_ratio": ("1", "higher"),
    "experiments.qutrit_leading_digit.p50_us": ("us", "lower"),
    "experiments.qutrit_leading_digit.p99_us": ("us", "lower"),
    "rng.make_rng.calls": ("count", "lower"),
    "rng.make_rng.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# (span name, home module, attribute); the three interferometer outputs
# share one span name
TARGETS = [
    ("digits.champernowne", "digitq.digits", "champernowne"),
    ("digits.phi_shift", "digitq.digits", "phi_shift"),
    ("digits.compress", "digitq.digits", "_compress"),
    ("digits.relabel", "digitq.digits", "relabel"),
    ("digits.reinsert", "digitq.digits", "reinsert"),
    ("phase.compose", "digitq.phase", "compose"),
    ("phase.operator_pow", "digitq.phase", "operator_pow"),
    ("phase.rotation_operator", "digitq.phase", "rotation_operator"),
    ("phase.apply", "digitq.phase", "apply"),
    ("reduction.window_u64", "digitq.reduction", "_window_u64"),
    ("reduction.suffix_ge_mask", "digitq.reduction", "_suffix_ge_mask"),
    ("reduction.deletion_mask", "digitq.reduction", "_deletion_mask"),
    ("reduction.partial_reduce", "digitq.reduction", "partial_reduce"),
    ("reduction.rotated_prefix", "digitq.reduction", "_rotated_prefix"),
    ("reduction.reduce_compound", "digitq.reduction", "reduce_compound"),
    ("reduction.reduced_prefix", "digitq.reduction", "_reduced_prefix"),
    ("reduction.walk", "digitq.reduction", "weak_reduction_walk"),
    ("states.qubit_state", "digitq.states", "qubit_state"),
    ("states.qutrit_state", "digitq.states", "qutrit_state"),
    ("states.qutrit_reduce", "digitq.states", "_qutrit_reduce"),
    ("states.interferometer", "digitq.states", "beamsplitter_pair"),
    ("states.interferometer", "digitq.states", "blocked_mz_output"),
    ("states.interferometer", "digitq.states", "full_mz_output"),
    ("states.qutrit_pipeline", "digitq.states", "_qutrit_pipeline"),
    ("experiments.polarization", "digitq.experiments", "polarization_experiment"),
    ("experiments.interference", "digitq.experiments", "interference_experiment"),
    ("experiments.epr", "digitq.experiments", "epr_experiment"),
    ("experiments.seed_invariance", "digitq.experiments", "seed_invariance_suite"),
    ("experiments.trace_rule", "digitq.experiments", "trace_rule_experiment"),
    ("experiments.weak_reduction", "digitq.experiments", "weak_reduction_experiment"),
    ("experiments.grid_windows", "digitq.experiments", "_grid_leading_windows"),
    ("experiments.cached_windows", "digitq.experiments", "_cached_windows"),
    ("experiments.qutrit_leading_digit", "digitq.experiments", "_qutrit_leading_digit"),
    ("rng.make_rng", "digitq.rng", "make_rng"),
]



class SpanRecorder:
    """In-memory spans plus the few counters a span cannot carry."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []          # (name id, start ns, end ns, parent index)
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, nid: int, idx: int, parent: int, t0: int) -> None:
        self._stack.pop()
        self.spans[idx] = (nid, t0, time.perf_counter_ns(), parent)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result, exc)``
        runs inside the span to update counters."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            t0 = time.perf_counter_ns()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                if after is not None:
                    after(args, result, exc)
                self._close(nid, idx, parent, t0)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around benchmark code (setup, run, serialization)."""
        nid = self._name_id(name)
        idx, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(nid, idx, parent, t0)

    def install(self) -> None:
        """Patch every target in every loaded digitq module."""
        from digitq.errors import (EmptyResult, LengthNotDivisible,
                                   NonConvergence, SuffixTooShort)
        from digitq.reduction import BinaryThreshold

        def apply_digits(args, result, exc):
            self.count("phase.apply.digits", len(args[1]))

        def window_digits(args, result, exc):
            self.count("reduction.window_u64.digits", int(args[1]))

        def walk_outcome(args, result, exc):
            if isinstance(exc, NonConvergence):
                self.count("reduction.walk.nonconverged")
            elif result is not None:
                self.count("reduction.walk.converged")
                self.count("reduction.walk.steps", result.outcome.steps)

        collapse = (EmptyResult, SuffixTooShort, LengthNotDivisible)

        def pipeline_outcome(args, result, exc):
            if isinstance(exc, collapse):
                self.count("states.qutrit_pipeline.collapses")

        hooks = {"phase.apply": apply_digits,
                 "reduction.window_u64": window_digits,
                 "reduction.walk": walk_outcome,
                 "states.qutrit_pipeline": pipeline_outcome}
        modules = [m for n, m in sys.modules.items()
                   if (n == "digitq" or n.startswith("digitq.")) and m is not None]
        for name, home, attr in TARGETS:
            original = getattr(sys.modules[home], attr)
            wrapped = self.wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)
        from_angle = BinaryThreshold.__dict__["from_angle"].__func__
        BinaryThreshold.from_angle = classmethod(
            self.wrap("reduction.threshold", from_angle))

    def arrays(self):
        """Closed spans as int64 arrays: name id, start, end, parent index."""
        if any(s is None for s in self.spans):
            raise RuntimeError("a span is still open")
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]

    def save(self, path) -> None:
        name, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start,
                 end=end, parent=parent)

    def layer_metrics(self) -> dict:
        """Every per-layer metric of LAYER_METRICS except trace.overhead_s,
        which needs an untraced session to compare against."""
        from digitq.phase import _rotation_operator_cached

        name, start, end, parent = self.arrays()
        dur = (end - start) / 1e9
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=self_time, minlength=n)
        wall_s = np.bincount(name, weights=dur, minlength=n)
        ids = self._name_ids

        def per_name(arr, span):
            return arr[ids[span]].item() if span in ids else 0

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        lead = name == ids.get("experiments.qutrit_leading_digit", -1)
        lead_us = dur[lead] * 1e6
        pipe = (name == ids.get("states.qutrit_pipeline", -1)) & nested
        attempts = int((name[parent[pipe]] == ids.get("experiments.qutrit_leading_digit", -1)).sum())
        cache = _rotation_operator_cached.cache_info()
        cached_calls = per_name(calls, "experiments.cached_windows")
        special = {
            "phase.rotation_cache.hit_ratio": ratio(cache.hits, cache.hits + cache.misses),
            "phase.apply.digits": c.get("phase.apply.digits", 0),
            "reduction.window_u64.digits": c.get("reduction.window_u64.digits", 0),
            "reduction.window_u64.ns_per_digit": ratio(
                per_name(self_s, "reduction.window_u64") * 1e9,
                c.get("reduction.window_u64.digits", 0)),
            "reduction.walk.steps_mean": ratio(c.get("reduction.walk.steps", 0),
                                               c.get("reduction.walk.converged", 0)),
            "reduction.walk.nonconverged": c.get("reduction.walk.nonconverged", 0),
            "states.qutrit_pipeline.attempts_per_sample": ratio(attempts, int(lead.sum())),
            "states.qutrit_pipeline.collapses": c.get("states.qutrit_pipeline.collapses", 0),
            "experiments.window_cache.hit_ratio": ratio(
                cached_calls - per_name(calls, "experiments.grid_windows"), cached_calls),
            "experiments.qutrit_leading_digit.p50_us":
                float(np.percentile(lead_us, 50)) if lead_us.size else 0.0,
            "experiments.qutrit_leading_digit.p99_us":
                float(np.percentile(lead_us, 99)) if lead_us.size else 0.0,
        }
        out = {}
        for metric in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if metric in special:
                out[metric] = special[metric]
            elif field == "calls":
                out[metric] = per_name(calls, span)
            elif field == "self_s":
                out[metric] = per_name(self_s, span)
            elif field == "wall_s":
                out[metric] = per_name(wall_s, span)
        return out
