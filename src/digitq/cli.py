"""Command-line entry point.

Angles are entered as exact rational multiples of pi ("1/3pi", "pi",
"0", "3/4pi"), never as floating-point degrees, so membership in the
p-adic longitude grid is checkable before any state is built.  Every
experiment writes a JSON report plus a CSV with one row per statistic
under --out; the same invocation produces byte-identical CSV.  The
experiments that draw random numbers (trace-rule, epr, weak-reduction,
seed-invariance, suite) take a 64-bit --seed; polarization and
interference sweep a fixed grid and take none, and `state` prints a
state without writing reports.  A flag a subcommand would not read is
a usage error.  Exit status is 0 exactly when every statistic passed
its tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from .digits import DigitString, champernowne
from .errors import DigitqError, OffGrid
from .experiments import (ExperimentReport, SampleGrid, epr_experiment,
                          interference_experiment, operator_algebra_checks,
                          polarization_experiment, reports_csv,
                          seed_invariance_suite, trace_rule_experiment,
                          weak_reduction_experiment)
from .states import (BlochPoint, QutritAngles, StateConfig, default_config,
                     default_qutrit_config, qubit_state, qutrit_state)

_ANGLE_RE = re.compile(r"^\s*(?:(\d+)\s*(?:/\s*(\d+))?\s*\*?\s*)?(pi)?\s*$")


def parse_angle(text: str) -> Fraction:
    """Parse an exact multiple of pi: '0', 'pi', '1/3pi', '3/4 pi', '2pi'.

    Returns the coefficient as a Fraction (so '1/3pi' -> Fraction(1, 3)).
    """
    m = _ANGLE_RE.match(text)
    if not m or (m.group(1) is None and m.group(3) is None):
        raise ValueError(f"cannot parse angle {text!r}; write it like 1/3pi or 0")
    num = int(m.group(1)) if m.group(1) else 1
    den = int(m.group(2)) if m.group(2) else 1
    if m.group(3) is None:
        if num != 0:
            raise ValueError(f"{text!r}: angles other than 0 must carry a pi suffix")
        return Fraction(0)
    return Fraction(num, den)


def _checked(kind, ok, what: str):
    """argparse type: ``kind`` of the flag's text, a usage error unless
    ``ok`` holds for it."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value
    parse.__name__ = kind.__name__
    return parse


_COUNT = _checked(int, lambda v: v >= 1, "a positive integer")
_DEPTH = _checked(int, lambda v: v >= 0, "a non-negative integer")
_SCALE = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
_SEED = _checked(int, lambda v: 0 <= v < 1 << 64, "a 64-bit seed (0 to 2^64 - 1)")


def _write_reports(reports: list, out: Path | None, fmt: str) -> None:
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        if fmt in ("json", "both"):
            payload = [r.to_json_dict() for r in reports]
            (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
        if fmt in ("csv", "both"):
            (out / "report.csv").write_text(reports_csv(reports))
    for r in reports:
        for line in r.summary_lines():
            print(line)
        for note in r.notes:
            print(f"{r.name:<16} note: {note}")


def _exit_code(reports: list) -> int:
    return 0 if all(r.passed for r in reports) else 1


def _add_common(p: argparse.ArgumentParser, seed: bool = False, depth: bool = False,
                length: bool = False, reports: bool = False) -> None:
    """Shared flags, each given only to the subcommands that read it:
    --seed, --depth, --length, and --out/--format for those writing
    reports.  Any other flag is a usage error."""
    if seed:
        p.add_argument("--seed", type=_SEED, default=0, help="64-bit experiment seed")
    if depth:
        p.add_argument("--depth", type=_DEPTH, default=12,
                       help="dyadic longitude grid depth K (grid 2pi j / 2^K)")
    if length:
        p.add_argument("--length", type=_COUNT, default=None,
                       help="seed string length override (power of two)")
    if reports:
        p.add_argument("--out", type=Path, default=None, help="report directory")
        p.add_argument("--format", choices=("json", "csv", "both"), default="both",
                       help="report files to write under --out")
    p.set_defaults(parser=p)


def _config_for(args) -> StateConfig:
    """The base-2 Champernowne seed of --length digits (default 2^18) on
    the grid of depth n_max = min(--depth, 12)."""
    n_max = min(args.depth, 12)
    try:
        return StateConfig(champernowne(2, args.length or 1 << 18), n_max=n_max)
    except ValueError as exc:
        args.parser.error(f"--length {args.length}: {exc}, where n_max = "
                          f"min(--depth, 12) = {n_max}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="digitq",
        description="Deterministic digit-string simulation of 2- and 3-level "
                    "measurement statistics.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polarization",
                       help="frequency of north-pole reduction vs cos^2(theta/2)")
    p.add_argument("--theta", type=parse_angle, required=True,
                   help="co-latitude as a multiple of pi, e.g. 1/3pi")
    _add_common(p, depth=True, length=True, reports=True)

    p = sub.add_parser("trace-rule",
                       help="3-level attractor frequencies vs the trace rule")
    p.add_argument("--theta1", type=parse_angle, required=True)
    p.add_argument("--theta2", type=parse_angle, required=True)
    p.add_argument("--samples", type=_COUNT, default=1 << 12)
    p.add_argument("--depth3", type=_DEPTH, default=7, help="triadic grid depth")
    _add_common(p, seed=True, depth=True, reports=True)

    p = sub.add_parser("epr", help="pair correlation vs -cos(dtheta)")
    p.add_argument("--dtheta", type=parse_angle, required=True,
                   help="detector misalignment as a multiple of pi")
    p.add_argument("--pairs", type=_COUNT, default=1 << 14)
    _add_common(p, seed=True, reports=True)

    p = sub.add_parser("interference",
                       help="beamsplitter and single-arm interferometer statistics")
    _add_common(p, depth=True, length=True, reports=True)

    p = sub.add_parser("weak-reduction",
                       help="jittered-walk absorption vs cos^2(theta0/2)")
    p.add_argument("--theta0", required=True, type=_checked(
        parse_angle, lambda v: 0 < v < 1, "strictly between 0 and pi"))
    p.add_argument("--walks", type=_COUNT, default=2000)
    p.add_argument("--jitter-depth", type=_DEPTH, default=10)
    p.add_argument("--alpha", type=_SCALE, default=4096.0)
    p.add_argument("--dt", type=_SCALE, default=1.0)
    _add_common(p, seed=True, reports=True)

    p = sub.add_parser("seed-invariance",
                       help="statistics under the default vs an alternate seed")
    p.add_argument("--negative-control", action="store_true",
                   help="use a constant (non-normal) seed and expect failure")
    _add_common(p, seed=True, reports=True)

    p = sub.add_parser("state", help="print a constructed state")
    st = p.add_subparsers(dest="state_kind", required=True)
    pq = st.add_parser("qubit")
    pq.add_argument("--theta", type=parse_angle, required=True)
    pq.add_argument("--lambda", dest="lam", type=parse_angle, required=True)
    pq.add_argument("--prefix", type=_COUNT, default=64,
                    help="number of digits to print")
    _add_common(pq, depth=True, length=True)
    pt = st.add_parser("qutrit")
    pt.add_argument("--theta1", type=parse_angle, required=True)
    pt.add_argument("--theta2", type=parse_angle, required=True)
    pt.add_argument("--lambda1", dest="lam1", type=parse_angle, required=True)
    pt.add_argument("--lambda2", dest="lam2", type=parse_angle, required=True)
    pt.add_argument("--prefix", type=_COUNT, default=64)
    _add_common(pt)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    p.add_argument("--samples", type=_COUNT, default=1 << 12,
                   help="trace-rule sample count")
    p.add_argument("--walks", type=_COUNT, default=2000,
                   help="weak-reduction ensemble size")
    p.add_argument("--negative-control", action="store_true",
                   help="corrupt the seed string; statistics must fail, "
                        "algebra must pass")
    _add_common(p, seed=True, depth=True, reports=True)

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except OffGrid as exc:
        print(f"off-grid angle: {exc}", file=sys.stderr)
        print("states exist only at p-adic rational multiples of 2pi "
              "(depth bounded by the configured grid); there is no state to "
              "construct elsewhere.", file=sys.stderr)
        return 2
    except DigitqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "state":
        return _print_state(args)
    if cmd == "suite":
        return _run_suite(args)
    if cmd == "polarization":
        cfg = _config_for(args)
        rep = polarization_experiment(args.theta, SampleGrid(depth=args.depth), cfg)
    elif cmd == "trace-rule":
        rep = trace_rule_experiment(args.theta1, args.theta2,
                                    SampleGrid(depth=args.depth3, base=3),
                                    SampleGrid(depth=args.depth),
                                    n_samples=args.samples, seed=args.seed)
    elif cmd == "epr":
        rep = epr_experiment(args.dtheta, N=args.pairs, seed=args.seed)
    elif cmd == "interference":
        cfg = _config_for(args)
        rep = interference_experiment(SampleGrid(depth=args.depth), cfg)
    elif cmd == "weak-reduction":
        rep = weak_reduction_experiment(args.theta0, ensemble_size=args.walks,
                                        jitter_depth=args.jitter_depth,
                                        alpha=args.alpha, dt=args.dt,
                                        seed=args.seed)
    elif cmd == "seed-invariance":
        rep = seed_invariance_suite(seed=args.seed,
                                    negative_control=args.negative_control)
    else:
        raise ValueError(f"unknown command {cmd!r}")
    _write_reports([rep], args.out, args.format)
    return _exit_code([rep])


def _print_state(args) -> int:
    if args.state_kind == "qubit":
        cfg = _config_for(args)
        s = qubit_state(cfg, BlochPoint(args.theta, args.lam))
    else:
        cfg = default_qutrit_config()
        s = qutrit_state(cfg, QutritAngles(args.theta1, args.theta2,
                                           args.lam1, args.lam2))
    n = min(args.prefix, len(s))
    run = "".join(str(int(d)) for d in s.digits[:n])
    print(f"base {s.base}, {len(s)} digits; first {n}: .{run}")
    print(s.prefix(n).to_text())
    return 0


def _run_suite(args) -> int:
    """The full statistics battery with the default tolerances."""
    t0 = time.perf_counter()
    theta_star = 2 * math.acos(1 / math.sqrt(3))
    reports: list[ExperimentReport] = []

    if args.negative_control:
        cfg = StateConfig(DigitString.constant(2, 0, 1 << 18), n_max=12)
    else:
        cfg = default_config()

    reports.append(operator_algebra_checks(seed=args.seed))
    for th in (Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(1, 2),
               Fraction(2, 3), Fraction(5, 6), Fraction(1)):
        reports.append(polarization_experiment(th, SampleGrid(depth=args.depth), cfg))
    if not args.negative_control:
        for th1, th2 in ((theta_star, Fraction(1, 2)),
                         (Fraction(1, 2), Fraction(1, 3)),
                         (Fraction(1), Fraction(1, 4))):
            reports.append(trace_rule_experiment(
                th1, th2, SampleGrid(depth=7, base=3), SampleGrid(depth=12),
                n_samples=args.samples, seed=args.seed))
    for dth in (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                Fraction(3, 4), Fraction(1)):
        reports.append(epr_experiment(dth, seed=args.seed))
    reports.append(interference_experiment(SampleGrid(depth=args.depth), cfg))
    for th0 in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        reports.append(weak_reduction_experiment(th0, ensemble_size=args.walks,
                                                 cfg=cfg, seed=args.seed))
    reports.append(seed_invariance_suite(seed=args.seed,
                                         negative_control=args.negative_control))

    _write_reports(reports, args.out, args.format)
    npass = sum(r.passed for r in reports)
    print(f"\nsuite: {npass}/{len(reports)} experiments passed "
          f"in {time.perf_counter() - t0:.1f}s")
    if args.negative_control:
        stat_reports = [r for r in reports if r.name not in
                        ("operator_algebra", "seed_invariance", "interference")]
        algebra_ok = all(r.passed for r in reports if r.name == "operator_algebra")
        stats_broken = any(not r.passed for r in stat_reports)
        print("negative control:",
              "as expected (algebra holds, statistics break)"
              if algebra_ok and stats_broken else "UNEXPECTED")
        return 0 if (algebra_ok and stats_broken) else 1
    return _exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
