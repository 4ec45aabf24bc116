"""Seeded Monte Carlo harness reproducing the closed-form statistics.

Each experiment sweeps the longitude grid (every grid point exactly
once) or draws grid points with a seeded generator, measures leading-digit
statistics of the constructed states, and compares against the known
closed forms: cos^2(theta/2) polarization, the three-level trace rule,
the -cos(dtheta) pair correlation, 50/50 interferometer splits, and the
gambler's-ruin absorption frequencies of the weak-reduction walk.

Reports are plain data: name, parameters, per-statistic observed and
expected values, deviations, tolerances, and the seed, reproducible
bit-exactly from (name, parameters, seed).  The generic pass threshold is
max(0.02, 4 * sqrt(p(1-p)/n)), the binomial four-sigma band floored at
two points.

A note on speed: leading-digit statistics only need a prefix of each
state, because rotations act blockwise and a prefix decides every
deletion whose comparison its digits settle, which is almost every one
within a few digits (``reduction._decided_places``).
Every rotation on these paths is read from the odometer
(``phase._rotated_rows``) at the places it needs; no dense operator is
built.  The trace rule reads the leading digit off one window of stage 1
by the first-survivor lemma in one row-wise read, ``_stage1_leads``,
for many samples at once: one composed gather (``_trace_rows``, the
triadic odometer, then the dyadic one at each nonzero digit's rank)
gives the first 32 places of every rotated seed as the rows of a
matrix; the read looks each verdict up by rank and scatters only the
window's 64 stage-1 digits.  Only the rows 32 places leave undecided
read again, all of them together, at 4x the places up to 3^(n_max-1),
and the rare row those leave undecided goes through the per-sample
reader, the same read on one row of a growing slice of the seed's
digits rotated by the constructor's own rotation stage.  Unit tests pin
the gather to that rotation stage, the batch to the per-sample reader
and it to the constructor, ``qutrit_state``, whose ``_qutrit_reduce`` is
the read's oracle.  Dyadic grid sweeps take a column of numerators, so the leading
64 digits of many rotated seeds come from one gather, and polarization,
interference and seed invariance read nothing but those cached windows.
Every read of many rows goes in ``reduction._row_parts``.
The EPR correlation is an exact digit sum.  Weak reduction reads every
walk's first step at once: step 1 depends only on theta0 and the start
longitude, so one read over the distinct start numerators
(``reduction._reduced_values``, the reader every walk step uses) gives
each r, and a walk whose first Euler step lands in a pole ends there.
Only the walks that step 1 does not absorb run the per-walk integrator
``weak_reduction_walk``, which stays the batch's oracle.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil, cos, log2, sin, sqrt
from typing import Iterable, Iterator, Optional

import numpy as np

from .digits import DigitString, _add_mod, champernowne, concatenated_squares, phi_shift
from .errors import (DegenerateStatistic, EmptyResult, LengthNotDivisible,
                     NonConvergence, OffGrid, SuffixTooShort)
from .phase import (BlockOperator, PAdicRational, _rotated_rows, _rotated_sources,
                    apply as apply_operator, extend_to, identity_operator, omega_root,
                    operator_pow, phase_rotate)
from .reduction import (K_GUARD, THRESHOLD_BITS, BinaryThreshold, _angle_float,
                        _angle_repr, _check_drift, _decided_places, _deletion_mask,
                        _euler_step, _reduced_values, _row_parts, _settled, _window_u64,
                        weak_reduction_walk)
from .rng import derive_seed, make_rng
from .states import (StateConfig, _qutrit_pipeline, default_config,
                     default_qutrit_config, qutrit_thresholds)

__all__ = [
    "SampleGrid",
    "Statistic",
    "ExperimentReport",
    "EntangledPair",
    "binomial_tolerance",
    "index_partition",
    "make_epr_ensemble",
    "epr_correlation",
    "epr_experiment",
    "polarization_experiment",
    "trace_rule_experiment",
    "interference_experiment",
    "weak_reduction_experiment",
    "seed_invariance_suite",
    "operator_algebra_checks",
    "reports_csv",
    "CSV_HEADER",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1
CSV_HEADER = ["experiment", "statistic", "n", "observed", "expected",
              "deviation", "tolerance", "pass", "seed"]


def binomial_tolerance(p: float, n: int) -> float:
    """Generic statistical pass band: max(0.02, 4 * sqrt(p(1-p)/n))."""
    return max(0.02, 4.0 * sqrt(max(p * (1.0 - p), 0.0) / max(n, 1)))


@dataclass(frozen=True)
class SampleGrid:
    """Longitude grid of depth K in the given base: the numerators
    0..base^depth - 1 of the turns m/base^depth."""

    depth: int
    base: int = 2

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"grid depth {self.depth} is negative")

    @property
    def modulus(self) -> int:
        return self.base ** self.depth


@dataclass
class Statistic:
    name: str
    observed: float
    expected: float
    tolerance: float

    @property
    def deviation(self) -> float:
        return abs(self.observed - self.expected)

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass
class ExperimentReport:
    """One experiment run: parameters, statistics, verdict, provenance."""

    name: str
    parameters: dict
    n: int
    statistics: list
    seed: int
    wall_time_s: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.statistics)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.name,
            "parameters": self.parameters,
            "n": self.n,
            "statistics": [
                {"name": s.name, "observed": s.observed, "expected": s.expected,
                 "deviation": s.deviation, "tolerance": s.tolerance,
                 "pass": s.passed} for s in self.statistics
            ],
            "passed": self.passed,
            "seed": self.seed,
            "notes": self.notes,
            "wall_time_s": self.wall_time_s,
        }

    def csv_rows(self) -> list:
        return [
            [self.name, s.name, self.n, repr(s.observed), repr(s.expected),
             repr(s.deviation), repr(s.tolerance),
             "pass" if s.passed else "FAIL", self.seed]
            for s in self.statistics
        ]

    def to_csv(self) -> str:
        return reports_csv([self])

    def summary_lines(self) -> list:
        out = []
        for s in self.statistics:
            verdict = "pass" if s.passed else "FAIL"
            out.append(f"{self.name:<16} {s.name:<40} observed={s.observed:<10.6f}"
                       f" expected={s.expected:<10.6f} dev={s.deviation:.6f}"
                       f" tol={s.tolerance:.6f} {verdict}")
        return out


def reports_csv(reports: list) -> str:
    """CSV text of the reports: the header, then one row per statistic."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in reports:
        w.writerows(r.csv_rows())
    return buf.getvalue()


# ---------------------------------------------------------------------------
# grid sweeps over leading windows


def _grid_leading_windows(seed_string: DigitString, depth: int) -> np.ndarray:
    """uint64 leading 64-digit windows of the rotated seed for every
    numerator on the exhaustive base-2 grid of the given depth.

    The numerators form a column, so one ``_rotated_rows`` gather of the
    first min(64, L) places gives the windows of a part of the grid
    (``reduction._row_parts``), zero-padded past a short seed's end, also
    when the blocks are shorter than 64 digits.
    """
    places = np.arange(min(64, len(seed_string)))
    return np.concatenate([
        _window_u64(_rotated_rows(seed_string.digits, 2, depth, part[:, None], places), 1)[:, 0]
        for part in _row_parts(np.arange(1 << depth), places.size)])


@lru_cache(maxsize=8)
def _cached_windows(seed_string: DigitString, depth: int) -> np.ndarray:
    """``_grid_leading_windows``, cached on (seed string, depth); the
    cache compares seed strings by equality, not by hash alone."""
    windows = _grid_leading_windows(seed_string, depth)
    windows.flags.writeable = False
    return windows


def _check_seed_base(cfg: StateConfig, base: int, experiment: str) -> None:
    """The seed's digits must be in the base the experiment rotates in."""
    if cfg.seed_string.base != base:
        raise ValueError(f"{experiment} needs a base-{base} seed")


def _check_grid(grid: SampleGrid, base: int, n_max: int) -> None:
    """The grid contract: an experiment's grid must be in the base its
    states rotate in and no deeper than the configured grid depth n_max,
    or the states it would sweep are undefined (OffGrid)."""
    if grid.base != base:
        raise OffGrid(f"grid is base {grid.base}, but these longitudes are "
                      f"base-{base} p-adic")
    if grid.depth > n_max:
        raise OffGrid(f"grid depth {grid.depth} exceeds the configured grid depth "
                      f"{n_max}; the states there are undefined")


def _freq_below_half(cfg: StateConfig, theta, grid: SampleGrid) -> float:
    """Frequency over the grid of value(state(theta, lam)) < 1/2.

    The first surviving digit of the reduced string is lo exactly when
    the rotated value is below the threshold, so the statistic reduces to
    comparing leading 64-digit windows against the threshold; seeds below
    K_GUARD digits raise SuffixTooShort, as in the state constructor.
    """
    if len(cfg.seed_string) < K_GUARD:
        raise SuffixTooShort(f"{len(cfg.seed_string)} digits is below the "
                             f"{K_GUARD}-digit comparison guard")
    thr = BinaryThreshold.from_angle(theta)
    windows = _cached_windows(cfg.seed_string, grid.depth)
    return float(np.mean(~thr.at_or_below(windows)))


# ---------------------------------------------------------------------------
# polarization


def polarization_experiment(theta, grid: SampleGrid, cfg: Optional[StateConfig] = None,
                            ) -> ExperimentReport:
    """Frequency of reduction to the north pole versus cos^2(theta/2)."""
    cfg = cfg or default_config()
    _check_seed_base(cfg, 2, "polarization")
    _check_grid(grid, 2, cfg.n_max)
    t0 = time.perf_counter()
    p = cos(_angle_float(theta) / 2) ** 2
    freq = _freq_below_half(cfg, theta, grid)
    n = grid.modulus
    stat = Statistic("freq[value < 1/2]", freq, p, binomial_tolerance(p, n))
    return ExperimentReport(
        "polarization", {"theta": _angle_repr(theta), "depth": grid.depth},
        n, [stat], 0, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# three-level trace rule

def _stage1_leads(rot: np.ndarray, t1: BinaryThreshold, t2: BinaryThreshold,
                  whole: bool) -> np.ndarray:
    """Leading digit of the three-level state on each row of ``rot``, a
    digit matrix (one rotated prefix per row, whole strings when
    ``whole``; uint8 from the pipeline and the batch), read
    off stage 1; -1 where the row does not decide it.  ``rank``, the
    running count of nonzero digits, scatters the nonzero digits to the
    front (zeros stay), looks each nonzero place's verdict up in their
    stage-1 keep mask, and marks a place known while its rank is decided.
    By the first-survivor lemma the lead is the first known kept place
    that is zero if the stage-1 indicator's place-0 window is below t1,
    and nonzero otherwise.  That window is read from the first
    THRESHOLD_BITS known kept places, scattered there by their own running
    count, and the comparison is settled (``reduction._settled``) by as
    many of its digits as are known: all of them when ``whole``."""
    nonzero = rot != 0
    rank = np.cumsum(nonzero, axis=1, dtype=np.int32)
    places = rot.shape[1]
    ranked = np.zeros((rot.shape[0], places + 1), dtype=bool)
    np.put_along_axis(ranked, np.where(nonzero, rank - 1, places), rot == 2, axis=1)
    ranked = ranked[:, :places]
    kept = ~_deletion_mask(ranked, t2)
    decided = rank[:, -1] if whole else _decided_places(ranked, rank[:, -1], t2)
    keep = np.take_along_axis(kept, np.maximum(rank - 1, 0), axis=1) | ~nonzero
    keep &= rank <= decided[:, None]
    kept_rank = np.cumsum(keep, axis=1, dtype=np.int32)
    n1 = kept_rank[:, -1]
    hi = np.zeros((rot.shape[0], THRESHOLD_BITS + 1), dtype=bool)
    np.put_along_axis(hi, np.where(keep & (kept_rank <= THRESHOLD_BITS), kept_rank - 1,
                                   THRESHOLD_BITS), nonzero, axis=1)
    w = _window_u64(hi[:, :THRESHOLD_BITS], 1)[:, 0]
    wanted = keep & (nonzero == t1.at_or_below(w)[:, None])
    lead = rot[np.arange(rot.shape[0]), wanted.argmax(axis=1)].astype(np.int64)
    settled = whole | _settled(w, n1, t1)
    return np.where(settled & wanted.any(axis=1), lead, -1)


def _qutrit_leading_digit(cfg: StateConfig, t1: BinaryThreshold, t2: BinaryThreshold,
                          q1: PAdicRational, q2: PAdicRational) -> int:
    """Leading digit of the three-level state, read off stage 1 by
    ``_stage1_leads`` on growing slices of the seed's digits run through
    the constructor's own rotation stage.  The prefix grows 4x until it
    decides the digit; raises DegenerateStatistic when the whole seed
    does not."""
    d0 = cfg.seed_string.digits
    prefix = 4096
    while True:
        whole = prefix >= d0.size
        try:
            d = _qutrit_pipeline(d0[:prefix], q1, q2)
        except (EmptyResult, LengthNotDivisible):
            pass  # the prefix holds no nonzero digit or no whole block: grow it
        else:
            lead = _stage1_leads(d[None], t1, t2, whole)[0]
            if lead >= 0:
                return int(lead)
        if whole:
            raise DegenerateStatistic("three-level state collapsed to nothing")
        prefix *= 4


def _trace_sources(d: np.ndarray, W: int,
                   depth2: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(rank, bits0) of ``_trace_rows`` for the first W places of the
    digit array ``d``: each place's nonzero rank (at a zero, that of the
    nonzero digit before it), and the seed's nonzero digits as bits, in
    whole depth2 blocks covering one more than the W places hold, so that
    the pipeline's rotated string reaches W places.  None when the seed
    holds too few nonzero digits."""
    nonzero = d[:W] != 0
    block2 = 1 << max(depth2 - 1, 0)
    need = -(-(np.count_nonzero(nonzero) + 1) // block2) * block2
    bits0 = d[d != 0][:need] - 1
    if bits0.size < need:
        return None
    return np.maximum(np.cumsum(nonzero, dtype=np.int32) - 1, 0), bits0


def _trace_rows(d: np.ndarray, rank: np.ndarray, bits0: np.ndarray, grid1: SampleGrid,
                grid2: SampleGrid, e1s: np.ndarray, e2s: np.ndarray,
                places: int) -> np.ndarray:
    """The first ``places`` digits of the 3-level pipeline's rotated
    string, one row per sampled pair (e1s[i]/3^depth1, e2s[i]/2^depth2),
    in one composed gather: the triadic odometer gives each place's source
    place and shift; a nonzero source digit of rank k reads its bit from
    the dyadic odometer at k, and the rotated digit is (bit + 1, or 0 for
    a zero, + shift) mod 3.  ``rank`` and ``bits0`` come from
    ``_trace_sources`` for W places, W a multiple of the triadic block and
    at least ``places``."""
    idx1, sh1 = _rotated_sources(3, grid1.depth, e1s[:, None], np.arange(places))
    bit = _rotated_rows(bits0, 2, grid2.depth, e2s[:, None], rank[idx1])
    return _add_mod(np.where(d[idx1] != 0, 1 + bit, 0), sh1, 3)


def _qutrit_leading_digits(cfg: StateConfig, t1: BinaryThreshold, t2: BinaryThreshold,
                           grid1: SampleGrid, grid2: SampleGrid, e1s: np.ndarray,
                           e2s: np.ndarray) -> np.ndarray:
    """``_qutrit_leading_digit`` at every sampled pair of numerators
    (e1s[i]/3^depth1, e2s[i]/2^depth2), one row per pair.

    Blocks rotate independently, so the first W = 3^(n_max-1) places of a
    rotated seed come from its first W digits and the first whole q2
    blocks of its nonzero digits.  Both gathers run at the grid depths: a
    numerator divisible by the base reads the same digits as its reduced
    form one level down.  Every row first reads min(THRESHOLD_BITS // 2,
    W) places (``_trace_rows``), which settle almost every comparison
    (``reduction._decided_places``); a prefix's lead holds for every longer
    prefix, so only the rows of the call a read leaves undecided read
    again, at 4x the places, up to W.  Each read goes in
    ``reduction._row_parts``.  Rows still undecided go through
    ``_qutrit_leading_digit``, and so does every row when the seed holds
    no nonzero digit past the q2 blocks that cover W.
    """
    d = cfg.seed_string.digits
    W = 3 ** max(cfg.n_max - 1, 0)
    sources = _trace_sources(d, W, grid2.depth)
    leads = np.full(e1s.size, -1, dtype=np.int64)
    if sources is not None:
        rank, bits0 = sources
        rows, places = np.arange(e1s.size), min(THRESHOLD_BITS // 2, W)
        while rows.size:
            for part in _row_parts(rows, places):
                rot = _trace_rows(d, rank, bits0, grid1, grid2, e1s[part], e2s[part], places)
                leads[part] = _stage1_leads(rot, t1, t2, False)
            if places == W:
                break
            rows, places = rows[leads[rows] < 0], min(4 * places, W)
    for i in np.flatnonzero(leads < 0):
        leads[i] = _qutrit_leading_digit(cfg, t1, t2,
                                         PAdicRational(3, int(e1s[i]), grid1.depth),
                                         PAdicRational(2, int(e2s[i]), grid2.depth))
    return leads


def trace_rule_expectations(theta1, theta2) -> tuple[float, float, float]:
    th1 = _angle_float(theta1)
    th2 = _angle_float(theta2)
    rho0 = cos(th1 / 2) ** 2
    rho1 = sin(th1 / 2) ** 2 * cos(th2 / 2) ** 2
    rho2 = sin(th1 / 2) ** 2 * sin(th2 / 2) ** 2
    return rho0, rho1, rho2


def trace_rule_experiment(theta1, theta2, grid1: SampleGrid, grid2: SampleGrid,
                          cfg: Optional[StateConfig] = None, n_samples: int = 1 << 12,
                          seed: int = 0) -> ExperimentReport:
    """Attractor frequencies of the compound reduction over sampled
    (triadic, dyadic) longitude pairs versus the trace rule.

    The samples' leading digits come from ``_qutrit_leading_digits``: one
    row per sample, every row read at 32 places and the rows those leave
    undecided again at 4x the places, up to 3^(n_max-1); the per-sample
    ``_qutrit_leading_digit`` is the fallback for rows the batch still
    leaves undecided, so the counts are those of the per-sample reader.
    A seed that is not base 3 is refused before any read."""
    if n_samples < 1:
        raise ValueError("the trace rule needs at least one sample")
    cfg = cfg or default_qutrit_config()
    _check_seed_base(cfg, 3, "trace rule")
    _check_grid(grid1, 3, cfg.n_max)
    _check_grid(grid2, 2, cfg.dyadic_depth)
    t0 = time.perf_counter()
    t1, t2 = qutrit_thresholds(theta1, theta2)
    rng = make_rng(seed)
    e1s = rng.integers(0, grid1.modulus, size=n_samples)
    e2s = rng.integers(0, grid2.modulus, size=n_samples)
    counts = np.bincount(_qutrit_leading_digits(cfg, t1, t2, grid1, grid2, e1s, e2s),
                         minlength=3)
    rhos = trace_rule_expectations(theta1, theta2)
    stats = []
    for j in range(3):
        obs = counts[j] / n_samples
        stats.append(Statistic(f"rho_{j}", float(obs), rhos[j],
                               binomial_tolerance(rhos[j], n_samples)))
    return ExperimentReport(
        "trace_rule",
        {"theta1": _angle_repr(theta1), "theta2": _angle_repr(theta2),
         "depth1": grid1.depth, "depth2": grid2.depth, "samples": n_samples},
        n_samples, stats, seed, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# EPR pairs


def index_partition(N: int) -> dict:
    """Partition of 1..N into I_j = {i : i = 2^(j-1) + (k-1) 2^j}.

    Each i lands in the subset indexed by one plus the position of its
    lowest set bit, so the subsets are disjoint and cover 1..N with
    |I_j| about N/2^j.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    out: dict = {}
    j = 1
    while (1 << (j - 1)) <= N:
        start = 1 << (j - 1)
        out[j] = list(range(start, N + 1, 1 << j))
        j += 1
    return out


def _subset_index(i: int) -> int:
    return (i & -i).bit_length()


@dataclass
class EntangledPair:
    left: DigitString
    right: DigitString
    pair_index: int
    subset_index: int


def epr_config() -> StateConfig:
    """Seed sized for pair ensembles up to 2^14 at grid depth 14."""
    return StateConfig(champernowne(2, 1 << 16), n_max=14)


def _ensemble_depth(N: int, cfg: StateConfig) -> int:
    """Grid depth K = ceil(log2 N) of an N-pair ensemble, checked against
    the configured grid depth."""
    K = max(1, ceil(log2(max(N, 2))))
    _check_grid(SampleGrid(depth=K), 2, cfg.n_max)
    return K


def make_epr_ensemble(dtheta, N: int,
                      cfg: Optional[StateConfig] = None) -> Iterator[EntangledPair]:
    """Stream N entangled pairs for detector misalignment dtheta.

    The i-th left state sits at longitude 2*pi*i/2^K, K = ceil(log2 N);
    the right state is the complement of the left exactly when the binary
    digit d_j of cos^2(dtheta/2) is 1, j the subset index of i.  The
    flipped fraction is then the truncated digit sum of cos^2(dtheta/2).
    Each left state is one odometer read of the seed's first 2^(K-1)
    digits, so the ensemble streams in linear time and builds no operator.
    """
    cfg = cfg or epr_config()
    thr = BinaryThreshold.from_angle(dtheta)
    K = _ensemble_depth(N, cfg)
    # one operator block of the seed; blocks rotate independently, so this
    # prefix of the full state is exact, and it carries every leading-digit
    # statistic of the ensemble
    prefix = cfg.seed_string.prefix(1 << (K - 1))
    for i in range(1, N + 1):
        left = phase_rotate(prefix, PAdicRational(2, i, K))
        j = _subset_index(i)
        right = phi_shift(left, 1) if thr.digit(j) else left
        yield EntangledPair(left, right, i, j)


def epr_correlation(pairs: Iterable[EntangledPair]) -> float:
    """Mean of x_i, +1 when the leading digits agree and -1 otherwise."""
    total = 0
    n = 0
    for p in pairs:
        total += 1 if p.left.leading_digit == p.right.leading_digit else -1
        n += 1
    if n == 0:
        raise ValueError("no pairs")
    return total / n


def epr_experiment(dtheta, N: int = 1 << 14, cfg: Optional[StateConfig] = None,
                   seed: int = 0) -> ExperimentReport:
    """Two-detector correlation versus -cos(dtheta).

    The pair i in I_j agrees exactly when the binary digit d_j of
    cos^2(dtheta/2) is 0, so the agreement total is the exact integer
    sum_j |I_j| (-1)^(d_j) over ``index_partition(N)``; no state is built.
    ``epr_correlation(make_epr_ensemble(...))`` computes the same number
    from the states and is its test oracle.
    """
    t0 = time.perf_counter()
    _ensemble_depth(N, cfg or epr_config())
    thr = BinaryThreshold.from_angle(dtheta)
    total = sum(len(part) * (-1) ** thr.digit(j)
                for j, part in index_partition(N).items())
    expected = -cos(_angle_float(dtheta))
    stat = Statistic("mean x_i", total / N, expected,
                     binomial_tolerance((1 + expected) / 2, N))
    report = ExperimentReport("epr", {"dtheta": _angle_repr(dtheta), "pairs": N},
                              N, [stat], seed, time.perf_counter() - t0)
    report.notes.append("by construction: the correlation is a digit sum of "
                        "cos^2(dtheta/2) and does not depend on the seed string, "
                        "so the negative control cannot break it")
    return report


# ---------------------------------------------------------------------------
# interference


def interference_experiment(grid: SampleGrid, cfg: Optional[StateConfig] = None,
                            ) -> ExperimentReport:
    """Beamsplitter statistics over the longitude grid.

    Every statistic is set by the leading digit of the rotated seed, the
    top bit of the grid's cached window: the transmitted beam (the state)
    detects on 1, the reflected beam (its complement) on 0, the blocked
    arm's downstream channel follows the transmitted beam, as the
    interferometer maps of ``states`` compute per state.  Only the three 50/50
    frequencies depend on the seed.  Complementarity (exactly one beam
    detects), the blocked output leading with 1 and the two-arm output
    being constant 1 hold by construction, so their violation counts are
    reported as 0 for every seed string.
    """
    cfg = cfg or default_config()
    _check_seed_base(cfg, 2, "interference")
    _check_grid(grid, 2, cfg.n_max)
    t0 = time.perf_counter()
    n = grid.modulus
    windows = _cached_windows(cfg.seed_string, grid.depth)
    transmitted = int(np.count_nonzero(windows >> np.uint64(63)))
    reflected = n - transmitted
    stats = [
        Statistic("freq[transmitted detection]", transmitted / n, 0.5,
                  binomial_tolerance(0.5, n)),
        Statistic("freq[reflected detection]", reflected / n, 0.5,
                  binomial_tolerance(0.5, n)),
        Statistic("complementarity violations", 0, 0.0, 0.0),
        Statistic("blocked output leading-1 violations", 0, 0.0, 0.0),
        Statistic("freq[blocked downstream channel]", transmitted / n, 0.5,
                  binomial_tolerance(0.5, n)),
        Statistic("two-arm constant-1 violations", 0, 0.0, 0.0),
    ]
    report = ExperimentReport("interference", {"depth": grid.depth}, n, stats, 0,
                              time.perf_counter() - t0)
    report.notes.append("by construction: the three violation counts are structural "
                        "and read 0 for every seed string")
    return report


# ---------------------------------------------------------------------------
# weak reduction


def weak_reduction_experiment(theta0, ensemble_size: int = 2000,
                              jitter_depth: int = 10, alpha: float = 4096.0,
                              dt: float = 1.0, max_steps: int = 4096,
                              cfg: Optional[StateConfig] = None, seed: int = 0,
                              ) -> ExperimentReport:
    """North-pole absorption frequency of the jittered walk ensemble
    versus cos^2(theta0/2); walks that never absorb count separately.

    Each walk starts from its own longitude on the jitter grid, or on the
    depth-n_max grid without jitter (drawn with the master seed), and has
    its own jitter stream.  At the default drift scale
    (alpha * dt = 4096) a first Euler step almost always lands in a pole:
    at theta0 = pi/3, pi/2 and 2pi/3 with seed 0, 1969, 2000 and 1977 of
    the 2000 walks absorb in one step and the rest in two, so the north
    frequency is close to the frequency of r < 1/2 over the drawn
    longitudes.  With small steps the drift term dominates the jitter
    noise and every walk saturates into its nearer pole instead.

    Step 1 is read for the whole ensemble: ``_reduced_values``, the
    walk's own reader, once over the distinct start numerators, then the
    walk's own Euler step and pole test (``_euler_step``).  A Tie or an
    EmptyResult raises from that read, as it would from the walk.  A walk
    that step 1 absorbs counts one step and builds no WalkResult; every
    other walk runs ``weak_reduction_walk`` from its start, so the counts
    are those of the per-walk loop.  theta0, alpha and dt are checked
    before any read, a base-3 seed is refused, and max_steps < 1 absorbs
    nothing.
    """
    if ensemble_size < 1:
        raise ValueError("weak reduction needs at least one walk")
    th0 = _angle_float(theta0)
    _check_drift(th0, alpha, dt)
    cfg = cfg or default_config()
    _check_seed_base(cfg, 2, "weak reduction")
    _check_grid(SampleGrid(depth=jitter_depth), 2, cfg.n_max)
    t0 = time.perf_counter()
    stuck = 0
    depth = jitter_depth or cfg.n_max
    lam_rng = make_rng(derive_seed(seed, 1 << 62))
    lam0s = lam_rng.integers(0, 1 << depth, size=ensemble_size)
    # step 1 depends on the start longitude alone: read it once per
    # distinct numerator, and let a walk that step 1 absorbs end there
    poles = np.full(ensemble_size, -1)
    if max_steps >= 1:
        nums, inverse = np.unique(lam0s, return_inverse=True)
        rs = _reduced_values(cfg.seed_string, depth, nums, BinaryThreshold.from_angle(th0))
        step1 = [_euler_step(th0, r, alpha, dt)[1] for r in rs]
        poles = np.array([-1 if j is None else j for j in step1])[inverse]
    finished = int(np.count_nonzero(poles >= 0))
    steps_total = finished
    north = int(np.count_nonzero(poles == 0))
    for i in np.flatnonzero(poles < 0).tolist():
        lam0 = PAdicRational(2, int(lam0s[i]), depth)
        try:
            res = weak_reduction_walk(th0, lam0, cfg.seed_string, jitter_depth,
                                      dt, alpha, derive_seed(seed, i), max_steps)
        except NonConvergence:
            stuck += 1
            continue
        finished += 1
        steps_total += res.outcome.steps
        north += res.outcome.attractor_index == 0
    p = cos(th0 / 2) ** 2
    stats = [
        Statistic("freq[north absorption]",
                  north / finished if finished else float("nan"), p,
                  binomial_tolerance(p, max(finished, 1))),
        Statistic("freq[non-convergence]", stuck / ensemble_size, 0.0, 0.01),
    ]
    report = ExperimentReport(
        "weak_reduction",
        {"theta0": _angle_repr(theta0), "walks": ensemble_size,
         "jitter_depth": jitter_depth, "alpha": alpha, "dt": dt,
         "max_steps": max_steps},
        ensemble_size, stats, seed, time.perf_counter() - t0)
    report.notes.append(f"mean steps to absorb: "
                        f"{steps_total / finished if finished else float('nan'):.2f}")
    return report


# ---------------------------------------------------------------------------
# seed invariance


def seed_invariance_suite(cfg_main: Optional[StateConfig] = None,
                          cfg_alt: Optional[StateConfig] = None,
                          seed: int = 0, negative_control: bool = False,
                          ) -> ExperimentReport:
    """Measurement statistics under the default seed versus an alternate
    normal-style seed (concatenated squares); both must agree with the
    closed forms within twice the usual tolerance.

    With negative_control=True the alternate seed is a constant string,
    and the suite passes exactly when that seed fails the statistics (the
    algebra does not care about normality, the statistics must).
    """
    t0 = time.perf_counter()
    cfg_main = cfg_main or default_config()
    _check_seed_base(cfg_main, 2, "seed invariance")
    if negative_control:
        cfg_alt = StateConfig(DigitString.constant(2, 0, len(cfg_main.seed_string)),
                              n_max=cfg_main.n_max)
    elif cfg_alt is None:
        cfg_alt = StateConfig(concatenated_squares(2, len(cfg_main.seed_string)),
                              n_max=cfg_main.n_max)
    _check_seed_base(cfg_alt, 2, "seed invariance")
    grid = SampleGrid(depth=10)
    _check_grid(grid, 2, cfg_main.n_max)
    _check_grid(grid, 2, cfg_alt.n_max)
    # pi/6, 2pi/5 and 5pi/6 have thresholds with deep binary expansions,
    # so their rows depend on the seed.  pi/3 (threshold .11) does not: over
    # the exhaustive grid the leading two window bits come out exactly
    # uniform for every seed string (the two-bit lemma, proved in the tests),
    # so its rows read 3/4 whatever the seed and cannot tell seeds apart
    thetas = [Fraction(1, 6), Fraction(1, 3), Fraction(2, 5), Fraction(5, 6)]
    stats = []
    worst_alt = 0.0
    for th in thetas:
        p = cos(_angle_float(th) / 2) ** 2
        tol = 2.0 * binomial_tolerance(p, grid.modulus)
        f_main = _freq_below_half(cfg_main, th, grid)
        f_alt = _freq_below_half(cfg_alt, th, grid)
        worst_alt = max(worst_alt, abs(f_alt - p))
        stats.append(Statistic(f"main freq(theta={_angle_repr(th)})", f_main, p, tol))
        if not negative_control:
            stats.append(Statistic(f"alt freq(theta={_angle_repr(th)})", f_alt, p, tol))
    if negative_control:
        # pass means: the non-normal seed broke the statistics somewhere
        stats.append(Statistic("negative control max deviation (want > 0.1)",
                               1.0 if worst_alt > 0.1 else 0.0, 1.0, 0.0))
    report = ExperimentReport(
        "seed_invariance",
        {"negative_control": negative_control, "depth": grid.depth,
         "alt_seed": "constant-0" if negative_control else "concatenated squares"},
        grid.modulus, stats, seed, time.perf_counter() - t0)
    return report


# ---------------------------------------------------------------------------
# exact operator checks packaged as a report (for the CLI suite)


def operator_algebra_checks(seed: int = 0, n_strings: int = 1000,
                            length: int = 1 << 12) -> ExperimentReport:
    """Exact group-law checks on random strings, reported like an
    experiment with zero tolerance.  ``apply`` is a function of the
    operator's table, so a law whose two tables are equal has no
    mismatched string; only a law whose tables differ draws the strings
    and counts them.  The strings are drawn and rotated as one
    concatenation (the same digits as one draw per string); no block
    straddles two strings, so mismatches still count per string.  The
    complement ``phi_shift`` is digitwise: its table is the identity
    permutation with the shift it gives the zero block."""
    t0 = time.perf_counter()
    roots = [omega_root(2, n) for n in range(9)]
    if length % roots[8].size:
        raise LengthNotDivisible(
            f"length {length} is not a multiple of block size {roots[8].size}")

    @lru_cache(maxsize=1)
    def strings() -> DigitString:
        return DigitString(2, make_rng(seed).integers(0, 2, size=n_strings * length,
                                                      dtype=np.uint8), _validate=False)

    def mismatched(op: BlockOperator, ref: BlockOperator, ref_image) -> int:
        if op == ref:
            return 0
        s = strings()
        differs = (apply_operator(op, s).digits != ref_image(s).digits)
        return int(np.count_nonzero(differs.reshape(n_strings, length).any(axis=1)))

    def law(op: BlockOperator, ref: BlockOperator) -> int:
        return mismatched(op, ref, lambda s: apply_operator(ref, s))

    mismatches_sq = sum(law(operator_pow(roots[n], 2), extend_to(roots[n - 1], roots[n].size))
                        for n in range(1, 9))
    complement = BlockOperator(2, [0, 1], phi_shift(DigitString(2, [0, 0]), 1).digits)
    mismatches_i2 = mismatched(operator_pow(roots[1], 2), complement,
                               lambda s: phi_shift(s, 1))
    mismatches_i4 = law(operator_pow(roots[1], 4), identity_operator(2, 2))
    stats = [
        Statistic("square-law mismatches (n<=8)", mismatches_sq, 0.0, 0.0),
        Statistic("i^2 = complement mismatches", mismatches_i2, 0.0, 0.0),
        Statistic("i^4 = identity mismatches", mismatches_i4, 0.0, 0.0),
    ]
    return ExperimentReport("operator_algebra", {"strings": n_strings,
                                                 "length": length},
                            n_strings, stats, seed, time.perf_counter() - t0)
