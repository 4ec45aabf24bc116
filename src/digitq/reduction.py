"""Number-theoretic state reduction.

Two deterministic mechanisms live here.  The sharp one: the reduction
operators R_j send a string whose leading digit is j to the constant-j
string and leave everything else alone, so the compound operator R picks
the attractor from the leading digit.  The graded one: partial reduction
deletes digits of a two-symbol string by comparing, at every position,
the suffix value against a fixed-precision binary threshold t built from
an angle, t close to cos^2(theta/2).  A hi digit is deleted when its
suffix is strictly below t, a lo digit when its suffix is at or above t
(ties side with >=).  At t = 1/2 nothing is deleted; at t = 1 only lo
digits survive; at t = 0 only hi digits survive.

Comparisons are exact for the finite string: ``BinaryThreshold.at_or_below``
compares the suffix's 64-digit window, zero-padded, against the threshold,
and since the threshold has no digits beyond the window the comparison is
always decided within it.  The windows come from the string packed eight
digits to a byte: one big-endian 8-byte word per byte offset, and the
seven positions inside each byte by shifting that word and pulling in
the top bits of the next byte, all in uint64 arithmetic.

A useful consequence, used throughout the experiments: the first
surviving digit is lo exactly when the whole-string value is below t
(deleting a hi digit with suffix < t keeps the next suffix below t, and a
lo digit below t is kept on the spot, symmetrically for >=).

The drift equation dtheta/dt = alpha (r - 1/2) sin(theta) closes the
loop: r is recomputed from the current theta each Euler step, and because
the first-survivor digit cannot flip as the threshold moves with the
drift direction, the trajectory runs monotonically into the pole selected
by the initial sign of r - 1/2.  A weak-reduction walk interleaves Euler
steps with seeded jitter of the longitude, which re-randomizes r each
step and turns absorption into a gambler's-ruin-style walk between the
poles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sin
from typing import Optional, Union

import mpmath as mp
import numpy as np

from .digits import DeletionLog, DigitString, _compress, degree_of_normality
from .errors import (EmptyResult, LengthNotDivisible, NonConvergence,
                     SuffixTooShort, Tie)
from .phase import PAdicRational, apply as apply_operator, phase_rotate, \
    rotation_operator
from .rng import make_rng

__all__ = [
    "K_GUARD",
    "THRESHOLD_BITS",
    "TRAJECTORY_CSV_HEADER",
    "BinaryThreshold",
    "biased_quantile_threshold",
    "ReductionOutcome",
    "project",
    "partial_reduce",
    "reduce_Rj",
    "reduce_compound",
    "evolve_ode",
    "weak_reduction_walk",
    "trajectory_csv",
    "degree_of_normality",
    "OdeResult",
    "WalkResult",
]

THRESHOLD_BITS = 64          # binary digits kept of cos^2(theta/2)
K_GUARD = 16                 # minimum string length for trusted comparisons
TOL_POLE = 1e-6              # radians; ODE termination band around 0 and pi
REDUCED_VALUE_DIGITS = 96    # surviving digits read for the drift's r value

AngleLike = Union[float, Fraction, "BinaryThreshold"]


class BinaryThreshold:
    """Fixed-precision base-2 fraction used for suffix comparisons.

    Holds floor(t * 2**bits) plus an exact-one flag, where t is the target
    value (normally cos^2(theta/2)); the construction error is below
    2**-bits.  Angles given as Fractions are exact multiples of pi, so
    thresholds like 1/2 at theta = pi/2 come out exact; floats are taken
    as radians.  The precision is 32 to 64 bits, so the threshold fits
    the 64-digit comparison window.
    """

    __slots__ = ("bits", "t_int", "is_one")

    def __init__(self, t_int: int, bits: int = THRESHOLD_BITS):
        if not 32 <= bits <= 64:
            raise ValueError("threshold precision must be 32 to 64 bits")
        if not (0 <= t_int <= 1 << bits):
            raise ValueError("t_int out of range")
        self.bits = bits
        self.t_int = t_int
        self.is_one = t_int == 1 << bits

    @classmethod
    def from_angle(cls, theta: AngleLike, bits: int = THRESHOLD_BITS) -> "BinaryThreshold":
        if isinstance(theta, BinaryThreshold):
            return theta
        with mp.workprec(bits + 96):
            if isinstance(theta, Fraction):
                x = mp.pi * theta.numerator / theta.denominator
            else:
                x = mp.mpf(theta)
            c2 = mp.cos(x / 2) ** 2
            y = c2 * (1 << bits)
            yr = mp.nint(y)
            # snap to the nearest integer when the value is exact to well
            # beyond the working error, otherwise truncate
            t_int = int(yr) if abs(y - yr) < mp.mpf(2) ** (-64) else int(mp.floor(y))
        t_int = min(max(t_int, 0), 1 << bits)
        return cls(t_int, bits)

    @property
    def value(self) -> Fraction:
        return Fraction(self.t_int, 1 << self.bits)

    @property
    def digit_string(self) -> DigitString:
        """The threshold digits .c1 c2 ... as a base-2 string (not defined
        for the exact-one case)."""
        if self.is_one:
            raise ValueError("exact-one threshold has no finite digit expansion")
        bits = [(self.t_int >> (self.bits - 1 - i)) & 1 for i in range(self.bits)]
        return DigitString(2, bits)

    def digit(self, j: int) -> int:
        """j-th binary digit c_j of the threshold (1-based); exact-one
        reads as .111... repeating."""
        if self.is_one:
            return 1
        if j > self.bits:
            return 0
        return (self.t_int >> (self.bits - j)) & 1

    def at_or_below(self, windows: np.ndarray) -> np.ndarray:
        """Boolean array of t <= w for 64-digit suffix windows w (uint64,
        the digits .b_j ... b_(j+63) scaled by 2^64).

        Exact: the threshold has no digits beyond the window, so w < t
        decides suffix < t and w >= t decides suffix >= t whatever digits
        follow; the exact-one threshold lies above every suffix.
        """
        if self.is_one:
            return np.zeros(windows.shape, dtype=bool)
        return windows >= np.uint64(self.t_int << (64 - self.bits))

    def __repr__(self) -> str:
        if self.is_one:
            return "BinaryThreshold(1)"
        return f"BinaryThreshold({self.t_int}/2^{self.bits})"


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def biased_quantile_threshold(theta: AngleLike, zero_density,
                              bits: int = THRESHOLD_BITS) -> BinaryThreshold:
    """Threshold for reducing an unbalanced two-symbol string at the
    nominal level cos^2(theta/2).

    A raw value comparison only realizes the nominal probability when the
    compared string is balanced (digits equally frequent); an indicator
    string with zero-digit density w is not.  The fix is the probability
    integral transform: return the binary value t' whose measure under
    the w-biased iid digit law equals cos^2(theta/2), the quantile
    F_w^{-1}(cos^2(theta/2)).  Then [suffix < t'] carries probability
    cos^2(theta/2) under that law, and the neutral point (t' exactly 1/2,
    nothing deleted) sits at cos^2(theta/2) = w, the angle at which the
    construction must act as the identity.  For w = 1/2 this degenerates
    to the plain threshold.
    """
    if isinstance(theta, BinaryThreshold):
        raise TypeError("pass the angle, not a prebuilt threshold")
    with mp.workprec(bits + 96):
        w = _to_mpf(zero_density)
        if not (0 < w < 1):
            raise ValueError("zero_density must lie strictly between 0 and 1")
        if isinstance(theta, Fraction):
            x = mp.pi * theta.numerator / theta.denominator
        else:
            x = mp.mpf(theta)
        u = mp.cos(x / 2) ** 2
        # snap values that are exact at the working precision, so the
        # anchor angles produce bit-exact thresholds
        eps = mp.mpf(2) ** (-(bits + 64))
        if u > 1 - eps:
            return BinaryThreshold(1 << bits, bits)
        if u < eps:
            return BinaryThreshold(0, bits)
        t_int = 0
        for _ in range(bits):
            if abs(u - w) < eps:
                # boundary: the quantile is exactly this dyadic point
                t_int = (t_int << 1) | 1
                u = mp.mpf(0)
            elif u < w:
                t_int <<= 1
                u = u / w
            else:
                t_int = (t_int << 1) | 1
                u = (u - w) / (1 - w)
                if u < eps:
                    u = mp.mpf(0)
    return BinaryThreshold(t_int, bits)


@dataclass
class ReductionOutcome:
    """Result of a reduction: final string, attractor digit (None for a
    null reduction), and how many steps were taken."""

    final_state: DigitString
    attractor_index: Optional[int]
    steps: int


# ---------------------------------------------------------------------------
# suffix comparison kernel

def _window_u64(bits: np.ndarray, length: int) -> np.ndarray:
    """64-bit suffix windows w_j = .b_j ... b_(j+63) * 2^64 for j < length.

    ``bits`` holds 0/1 digits (bool or integer) and must extend at least
    64 entries past ``length``, zero padded.  The digits are packed eight
    to a byte; the window at j = 8i is the big-endian word of bytes
    i..i+7, and the window at 8i + r shifts that word left by r and takes
    its last r digits from the top of byte i+8.  Returns uint64.
    """
    nb = -(-length // 8)
    pk = np.zeros(nb + 8, dtype=np.uint8)
    packed = np.packbits(bits[:8 * (nb + 8)])
    pk[:packed.size] = packed
    u = np.lib.stride_tricks.sliding_window_view(pk, 8)[:nb].copy().view(">u8")
    u = u.ravel().astype(np.uint64)
    nxt = pk[8:8 + nb].astype(np.uint64)
    out = np.empty(8 * nb, dtype=np.uint64)
    out[0::8] = u
    for r in range(1, 8):
        out[r::8] = (u << np.uint64(r)) | (nxt >> np.uint64(8 - r))
    return out[:length]


def _suffix_ge_mask(bits01: np.ndarray, thr: BinaryThreshold) -> np.ndarray:
    """Boolean mask: suffix at position j (zero padded) >= threshold."""
    L = bits01.size
    if thr.t_int == 0 or thr.is_one:
        # t = 0 is at or below every suffix, t = 1 above every one
        return np.full(L, thr.t_int == 0)
    padded = np.zeros(L + 64, dtype=np.uint8)
    padded[:L] = bits01
    return thr.at_or_below(_window_u64(padded, L))


def _deletion_mask(hi_bits: np.ndarray, thr: BinaryThreshold) -> np.ndarray:
    """Deletion mask of the two-symbol reduction rule, given the boolean
    hi indicator of the string.

    hi deleted iff suffix < t, lo deleted iff suffix >= t: hi XOR
    (suffix >= t).
    """
    return hi_bits ^ _suffix_ge_mask(hi_bits, thr)


# ---------------------------------------------------------------------------
# projections and reductions


def project(s: DigitString, j: int) -> tuple[DigitString, DeletionLog]:
    """Delete every occurrence of the digit j, keeping the log for
    later reinsertion.  Raises EmptyResult on a constant-j string."""
    if not (0 <= j < s.base):
        raise ValueError("digit out of range")
    mask = s.digits == j
    if mask.all():
        raise EmptyResult(f"string is constant {j}; projection would be empty")
    return _compress(s, mask)


def partial_reduce(s: DigitString, theta: AngleLike, lo: int = 0, hi: int = 1,
                   ) -> tuple[DigitString, DeletionLog]:
    """Angle-parameterized deletion over a two-symbol alphabet {lo, hi}.

    Every position is tested against the threshold built from ``theta``
    (or a prebuilt BinaryThreshold): hi digits are deleted when their
    suffix is strictly below it, lo digits when at or above it.  theta =
    pi/2 (threshold exactly 1/2) returns the string unchanged; theta = 0
    leaves only lo digits, theta = pi only hi digits.

    Inputs shorter than K_GUARD digits are refused (SuffixTooShort): no
    comparison on such a stub is statistically trustworthy.  Raises
    EmptyResult when nothing survives.
    """
    if lo >= hi or hi >= s.base or lo < 0:
        raise ValueError("need 0 <= lo < hi < base")
    d = s.digits
    if ((d != lo) & (d != hi)).any():
        raise ValueError("string contains digits outside {lo, hi}")
    if len(s) < K_GUARD:
        raise SuffixTooShort(
            f"{len(s)} digits is below the {K_GUARD}-digit comparison guard")
    thr = BinaryThreshold.from_angle(theta)
    return _compress(s, _deletion_mask(d == hi, thr))


def reduce_Rj(s: DigitString, j: int) -> ReductionOutcome:
    """Single reduction operator: constant-j if the leading digit is j,
    otherwise the identity (a null reduction)."""
    if not (0 <= j < s.base):
        raise ValueError("digit out of range")
    if s.leading_digit == j:
        return ReductionOutcome(DigitString.constant(s.base, j, len(s)), j, 1)
    return ReductionOutcome(s, None, 0)


def reduce_compound(s: DigitString) -> ReductionOutcome:
    """Compound reduction R = R_0 R_1 ... R_(M-1): always reduces, to the
    constant string at the leading digit."""
    j = s.leading_digit
    return ReductionOutcome(DigitString.constant(s.base, j, len(s)), j, 1)


# ---------------------------------------------------------------------------
# fast prefix evaluation (shared by the ODE, the walk and the harness)


def _rotated_prefix(r0: DigitString, q: PAdicRational, n_digits: int) -> DigitString:
    """Prefix of phase_rotate(r0, q) of at least n_digits digits.

    Blocks transform independently, so rotating the first ceil(n/B)*B
    digits gives an exact prefix of the full rotation, without touching
    the rest of the string.
    """
    op = rotation_operator(q)
    if op.is_identity():
        return r0 if n_digits >= len(r0) else r0.prefix(min(n_digits, len(r0)))
    n = min(len(r0) - len(r0) % op.size,
            ((n_digits + op.size - 1) // op.size) * op.size)
    if n == 0:
        raise LengthNotDivisible(
            f"string length {len(r0)} is below one block of {op.size}")
    return apply_operator(op, r0.prefix(n))


def _reduced_prefix(s: DigitString, thr: BinaryThreshold, want: int) -> np.ndarray:
    """First min(want, total) surviving digits of the 0/1 partial
    reduction, scanning the string in chunks so near-pole states stay
    cheap."""
    d = s.digits
    L = d.size
    out: list[np.ndarray] = []
    got = 0
    start = 0
    chunk = 4096
    while start < L and got < want:
        end = min(L, start + chunk)
        # the chunk plus the 64 digits its last windows read
        seg = d[start:min(L, end + 64)]
        keep = ~_deletion_mask(seg == 1, thr)[:end - start]
        survivors = seg[:end - start][keep]
        out.append(survivors)
        got += survivors.size
        start = end
        chunk *= 2
    if got == 0:
        raise EmptyResult("no digit survives the reduction")
    merged = np.concatenate(out) if len(out) > 1 else out[0]
    return merged[:want]


def _reduced_value(s: DigitString, thr: BinaryThreshold) -> float:
    """Float value of partial_reduce(s, thr) from its first
    REDUCED_VALUE_DIGITS surviving digits.  Detects an exact value of 1/2
    and raises Tie, since the drift equation is stationary there."""
    digs = _reduced_prefix(s, thr, REDUCED_VALUE_DIGITS)
    bits = (digs == 1).astype(np.uint8)
    n = bits.size
    acc = 0
    for b in bits.tolist():
        acc = (acc << 1) | b
    val = acc / (1 << n)
    if val == 0.5:
        # first survivor 1 then zeros through the prefix: confirm on the
        # full string before declaring a tie
        full, _ = partial_reduce(s, thr)
        if full.value() == Fraction(1, 2):
            raise Tie("reduced value is exactly 1/2")
        val = float(full.value())
    return val


# ---------------------------------------------------------------------------
# drift dynamics


@dataclass
class OdeResult:
    trajectory: list  # (theta, r) per step, including the initial point
    outcome: ReductionOutcome
    lam: Optional[PAdicRational] = None

    def csv_rows(self) -> list:
        num, dep = (self.lam.numerator, self.lam.depth) if self.lam else ("", "")
        return [[i, repr(th), repr(r), num, dep]
                for i, (th, r) in enumerate(self.trajectory)]


@dataclass
class WalkResult:
    trajectory: list  # (theta, r, lam_numerator, lam_depth) per step
    outcome: ReductionOutcome

    @property
    def thetas(self) -> list:
        return [row[0] for row in self.trajectory]

    def csv_rows(self) -> list:
        return [[i, repr(th), "" if r is None else repr(r), num, dep]
                for i, (th, r, num, dep) in enumerate(self.trajectory)]


TRAJECTORY_CSV_HEADER = ["step", "theta", "r_value", "lambda_numerator",
                         "lambda_depth"]


def trajectory_csv(result: Union[OdeResult, WalkResult]) -> str:
    """CSV text of a trajectory, one row per step."""
    lines = [",".join(TRAJECTORY_CSV_HEADER)]
    lines.extend(",".join(str(c) for c in row) for row in result.csv_rows())
    return "\n".join(lines) + "\n"


def _pole_outcome(theta: float, length: int, steps: int) -> ReductionOutcome:
    j = 0 if theta <= np.pi / 2 else 1
    return ReductionOutcome(DigitString.constant(2, j, length), j, steps)


def evolve_ode(theta0: float, lam: PAdicRational, r0: DigitString,
               alpha: float, dt: float, max_steps: int,
               tol_pole: float = TOL_POLE) -> OdeResult:
    """Forward-Euler integration of dtheta/dt = alpha (r - 1/2) sin(theta).

    r is recomputed from the current theta at every step as the value of
    the partially reduced, phase-rotated seed (the longitude is frozen).
    Terminates within tol_pole of a pole; raises NonConvergence at the
    step budget.  Steps that overshoot a pole are clamped onto it.
    """
    if not (0.0 < theta0 < np.pi):
        raise ValueError("theta0 must lie strictly between 0 and pi")
    if alpha <= 0 or dt <= 0:
        raise ValueError("alpha and dt must be positive")
    s_lam = phase_rotate(r0, lam)
    theta = float(theta0)
    traj = []
    for step in range(max_steps + 1):
        r = _reduced_value(s_lam, BinaryThreshold.from_angle(theta))
        traj.append((theta, r))
        if theta < tol_pole or theta > np.pi - tol_pole:
            return OdeResult(traj, _pole_outcome(theta, len(r0), step), lam)
        theta = min(max(theta + alpha * (r - 0.5) * sin(theta) * dt, 0.0), float(np.pi))
    raise NonConvergence(f"no pole reached in {max_steps} steps")


def weak_reduction_walk(theta0: float, lam0: PAdicRational, r0: DigitString,
                        jitter_depth: int, dt: float, alpha: float, seed: int,
                        max_steps: int = 4096, tol_pole: float = TOL_POLE) -> WalkResult:
    """Alternate Euler steps of the drift equation with seeded longitude
    jitter.

    After each step the longitude moves by +-k * 2pi/2^jitter_depth with k
    drawn uniformly from 1..2^jitter_depth - 1, which re-randomizes r, so
    the theta sequence behaves like a random walk absorbed at the poles.
    jitter_depth = 0 disables the perturbation and reproduces evolve_ode.

    Deterministic in (seed, parameters); same seed, same trajectory.
    """
    if not (0.0 < theta0 < np.pi):
        raise ValueError("theta0 must lie strictly between 0 and pi")
    rng = make_rng(seed)
    depth = max(int(jitter_depth), 0)
    grid = 1 << depth
    num = lam0.numerator << (depth - lam0.depth) if depth >= lam0.depth else None
    if num is None:
        # jitter grid coarser than lam0: keep exact turns as a Fraction
        turns = lam0.fraction
    theta = float(theta0)
    traj = []
    for step in range(1, max_steps + 1):
        q = PAdicRational(2, num, depth) if num is not None else \
            PAdicRational.from_fraction(turns, 2)
        prefix = _rotated_prefix(r0, q, 8192)
        r = _reduced_value(prefix, BinaryThreshold.from_angle(theta))
        traj.append((theta, r, q.numerator, q.depth))
        theta = min(max(theta + alpha * (r - 0.5) * sin(theta) * dt, 0.0), float(np.pi))
        if theta < tol_pole or theta > np.pi - tol_pole:
            traj.append((theta, None, q.numerator, q.depth))
            return WalkResult(traj, _pole_outcome(theta, len(r0), step))
        if depth > 0:
            k = int(rng.integers(1, grid))
            sign = 1 if rng.integers(0, 2) else -1
            if num is not None:
                num = (num + sign * k) % grid
            else:
                turns = (turns + Fraction(sign * k, grid)) % 1
    raise NonConvergence(f"no pole reached in {max_steps} steps")
