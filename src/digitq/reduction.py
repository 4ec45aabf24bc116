"""Number-theoretic state reduction.

Two deterministic mechanisms live here.  The sharp one: the reduction
operators R_j send a string whose leading digit is j to the constant-j
string and leave everything else alone, so the compound operator R picks
the attractor from the leading digit.  The graded one: partial reduction
deletes digits of a two-symbol string by comparing, at every position,
the suffix value against a 64-bit binary threshold t built from an
angle, t close to cos^2(theta/2).  A hi digit is deleted when its
suffix is strictly below t, a lo digit when its suffix is at or above t
(ties side with >=).  At t = 1/2 nothing is deleted; at t = 1 only lo
digits survive; at t = 0 only hi digits survive.

Comparisons are exact for the finite string: ``BinaryThreshold.at_or_below``
compares the suffix's 64-digit window, zero-padded, against the threshold,
and since the threshold has no digits beyond the window the comparison is
always decided within it.  A prefix decides every place whose window it
holds, and also a place whose window it holds only in part when the
window filled with 0s and the one filled with 1s fall on the same side of
t, since every continuation's window lies between them (``_settled``);
almost every comparison is settled within a few digits.  That is the one
rule (``_decided_places``) by which the walk and the trace rule read
prefixes, and the trace rule settles its stage-2 comparison by it too.
A comparison at every place (``_suffix_ge_mask``) reads a byte first:
the string is packed eight digits to a byte, and the first 8 digits at
each place come from two 256-entry tables, one for the byte the place
lies in and one for the byte after it.  They settle the comparison
unless they are t's first 8 digits, about 1 place in 256, and only those
places read their whole window, the 8-digit bytes at the place and 8,
16, ..., 56 places after it.  A leading window (a grid sweep's, the trace
rule's stage-1 window, the tail ``_decided_places`` tests) comes from
``_window_u64``, the string packed into big-endian 64-bit words: the 64
positions inside a word shift it and pull in the top bits of the next
word, all in uint64 arithmetic.  Given a matrix, both read each row as
its own string, so the grid sweeps' leading window of every rotated seed
is the one-window row case.  One place budget, _READ_PLACES, bounds a
read of many rows (the walk's, the trace rule's, a grid sweep's), which
goes in parts (``_row_parts``); a whole-string comparison costs a byte a
place and is one read.  Survivors are gathered with ``compress``.

The thresholds themselves are Python-integer fixed point: cos^2(theta/2)
= (1 + cos theta)/2 from a cached Machin pi, a Taylor series at theta/16
and four doublings, at 320 fraction bits (and as many more as a float
angle has integer bits), within 2 units of the last place; the 64-bit
threshold is its floor, or the nearest integer when that lies within
2^-64 of it.  The biased quantile runs its 64 steps at 192 + 64 *
bitlen(q // min(p, q - p)) bits for the density p/q, which its error
amplification of up to min(w, 1 - w)^-64 leaves below 2^-188.

A useful consequence, used throughout the experiments: the first
surviving digit is lo exactly when the whole-string value is below t
(deleting a hi digit with suffix < t keeps the next suffix below t, and a
lo digit below t is kept on the spot, symmetrically for >=).

The drift equation dtheta/dt = alpha (r - 1/2) sin(theta) closes the
loop in one integrator, ``weak_reduction_walk``: r is recomputed from the
current theta and longitude each Euler step, on only as much of the
rotated seed as its leading survivors need.  One reader,
``_reduced_prefix``, gives those survivors for any number of longitudes
at once, so a walk step reads one row and the experiment's step 1 of a
whole ensemble reads one row per start longitude.  With the longitude
frozen the first-survivor digit cannot flip as the threshold moves with
the drift, so theta runs monotonically into the pole selected by the
initial sign of r - 1/2; seeded longitude jitter re-randomizes r each
step and turns absorption into a gambler's-ruin-style walk between the
poles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isfinite, pi, sin
from typing import Optional, Union

import numpy as np

from .digits import (DeletionLog, DigitString, _compress, _digits_to_int,
                     degree_of_normality)
from .errors import EmptyResult, LengthNotDivisible, NonConvergence, SuffixTooShort, Tie
from .phase import PAdicRational, _rotated_rows
# not called here: perfbench/tracing.py resolves its reduction.rotated_prefix target here
from .phase import _rotated_prefix  # noqa: F401
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
    "weak_reduction_walk",
    "trajectory_csv",
    "degree_of_normality",
    "WalkResult",
]

THRESHOLD_BITS = 64          # binary digits kept of cos^2(theta/2)
K_GUARD = 16                 # minimum string length for trusted comparisons
TOL_POLE = 1e-6              # radians; walk termination band around 0 and pi
REDUCED_VALUE_DIGITS = 96    # surviving digits read for the drift's r value

AngleLike = Union[float, Fraction, "BinaryThreshold"]


def _angle_float(theta) -> float:
    if isinstance(theta, Fraction):
        return pi * theta.numerator / theta.denominator
    return float(theta)


def _angle_repr(theta) -> str:
    if isinstance(theta, Fraction):
        return f"{theta.numerator}/{theta.denominator} pi"
    return repr(float(theta))


_COS2_BITS = 320    # fraction bits of the cos^2 that _threshold_int rounds
_GUARD_BITS = 32    # bits carried beyond the requested ones, lost to roundings


@lru_cache(maxsize=16)
def _pi_fixed(bits: int) -> int:
    """pi * 2^bits within one unit, by Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239), each series summed with
    guard bits that outgrow its floored terms."""
    g = bits + bits.bit_length() + 8

    def arctan_inv(x: int) -> int:
        power, total, k = (1 << g) // x, 0, 1
        while power:
            total += -(power // k) if k & 2 else power // k
            power //= x * x
            k += 2
        return total

    return (16 * arctan_inv(5) - 4 * arctan_inv(239)) >> (g - bits)


def _cos_fixed(x: int, f: int) -> int:
    """cos(x / 2^f) * 2^f for 0 <= x <= pi * 2^f: the Taylor series at
    x/16, then four doublings cos 2a = 2 cos^2 a - 1."""
    one = 1 << f
    y2 = (x >> 4) ** 2 >> f
    c, term, k = one, one, 0
    while term:
        k += 2
        term = (term * y2 >> f) // (k * (k - 1))
        c += -term if k & 2 else term
    for _ in range(4):
        c = (c * c >> (f - 1)) - one
    return c


def _cos2_half(theta, bits: int = _COS2_BITS) -> int:
    """cos^2(theta/2) = (1 + cos theta)/2 as an integer scaled by 2^bits,
    within 2 units of its last place: a Fraction is an exact multiple of
    pi, anything else radians.

    A Fraction folds exactly onto [0, pi] (cos(k pi) has period 2 in k
    and is even).  A float is read exactly through ``as_integer_ratio``
    and reduced mod 2 pi in fixed point, with pi carried to as many more
    bits as |theta| has integer bits, since the reduction multiplies pi's
    error by |theta| / 2 pi.  The work runs at bits + _GUARD_BITS or
    more, a multiple of 64: the Taylor terms and the doublings (which
    multiply an error by at most 4 each) lose under 2^16 units of it.
    """
    if isinstance(theta, Fraction):
        n, d = theta.numerator % (2 * theta.denominator), theta.denominator
        f = -(-(bits + _GUARD_BITS) // 64) * 64
        x = _pi_fixed(f) * min(n, 2 * d - n) // d
    else:
        radians = float(theta)
        if not isfinite(radians):
            raise ValueError(f"angle {radians} is not finite")
        n, d = radians.as_integer_ratio()
        f = -(-(bits + _GUARD_BITS + (abs(n) // d).bit_length()) // 64) * 64
        two_pi = 2 * _pi_fixed(f)
        x = ((abs(n) << f) // d) % two_pi
        x = min(x, two_pi - x)
    return ((1 << f) + _cos_fixed(x, f)) >> (f - bits + 1)


@lru_cache(maxsize=256, typed=True)
def _threshold_int(theta) -> int:
    """floor(cos^2(theta/2) * 2^64), cached per angle with a typed key:
    Fraction(1, 2) == 0.5 with equal hashes, but one is pi/2, one 0.5 rad.

    A value within 2^-64 of an integer (2^-128 of cos^2) snaps to it, so
    exact anchors such as 1/2 and 3/4 come out exact; cos^2 is read at
    _COS2_BITS bits, whose error of 2^-319 leaves the rule decided except
    within that distance of the band's edge.
    """
    c = _cos2_half(theta)
    shift = _COS2_BITS - THRESHOLD_BITS
    near = (c + (1 << (shift - 1))) >> shift
    if abs(c - (near << shift)) < 1 << (shift - THRESHOLD_BITS):
        return near
    return c >> shift


class BinaryThreshold:
    """64-bit base-2 fraction used for suffix comparisons.

    Holds floor(t * 2**64) plus an exact-one flag, where t is the target
    value (normally cos^2(theta/2)); the construction error is below
    2**-64.  Angles given as Fractions are exact multiples of pi, so
    thresholds like 1/2 at theta = pi/2 come out exact; floats are taken
    as radians.  THRESHOLD_BITS is the width of the suffix comparison
    window, so the threshold's digits all lie inside it.
    """

    __slots__ = ("t_int", "is_one")

    def __init__(self, t_int: int):
        if not (0 <= t_int <= 1 << THRESHOLD_BITS):
            raise ValueError("t_int out of range")
        self.t_int = t_int
        self.is_one = t_int == 1 << THRESHOLD_BITS

    @classmethod
    def from_angle(cls, theta: AngleLike) -> "BinaryThreshold":
        if isinstance(theta, BinaryThreshold):
            return theta
        return cls(_threshold_int(theta))

    @property
    def value(self) -> Fraction:
        return Fraction(self.t_int, 1 << THRESHOLD_BITS)

    @property
    def digit_string(self) -> DigitString:
        """The threshold digits .c1 c2 ... as a base-2 string (not defined
        for the exact-one case)."""
        if self.is_one:
            raise ValueError("exact-one threshold has no finite digit expansion")
        return DigitString(2, [self.digit(j) for j in range(1, THRESHOLD_BITS + 1)])

    def digit(self, j: int) -> int:
        """j-th binary digit c_j of the threshold (1-based); exact-one
        reads as .111... repeating."""
        if self.is_one:
            return 1
        if j > THRESHOLD_BITS:
            return 0
        return (self.t_int >> (THRESHOLD_BITS - j)) & 1

    def at_or_below(self, windows: np.ndarray) -> np.ndarray:
        """Boolean array of t <= w for 64-digit suffix windows w (uint64,
        the digits .b_j ... b_(j+63) scaled by 2^64).

        Exact: the threshold has no digits beyond the window, so w < t
        decides suffix < t and w >= t decides suffix >= t whatever digits
        follow; the exact-one threshold lies above every suffix.
        """
        if self.is_one:
            return np.zeros(windows.shape, dtype=bool)
        return windows >= np.uint64(self.t_int)

    def at_or_below_heads(self, heads: np.ndarray, tie_windows) -> np.ndarray:
        """``at_or_below`` of windows given by their top bytes ``heads``
        (uint8, the digits .b_j ... b_(j+7) scaled by 2^8) and
        ``tie_windows``, which maps the flat indices of the heads equal to
        t's top byte to those whole windows (as ``at_or_below`` takes them).

        A head above t's top byte puts its window above t, one below puts
        it below, so only the ties (about 1 in 256 places) are read whole.
        """
        if self.is_one:
            return np.zeros(heads.shape, dtype=bool)
        top = self.t_int >> (THRESHOLD_BITS - 8)
        out = heads > top
        ties = (heads == top).reshape(-1).nonzero()[0]
        if ties.size:
            out.reshape(-1)[ties] = self.at_or_below(tie_windows(ties))
        return out

    def __repr__(self) -> str:
        if self.is_one:
            return "BinaryThreshold(1)"
        return f"BinaryThreshold({self.t_int}/2^{THRESHOLD_BITS})"


def biased_quantile_threshold(theta: AngleLike, zero_density) -> BinaryThreshold:
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

    Exact rational w = p/q (a float is read exactly), and u, the measure
    left to place, an integer scaled by 2^W: each of the 64 steps maps u
    onto the chosen half, u/w or (u - w)/(1 - w), flooring, and so
    multiplies its error by at most 1/min(w, 1 - w) and adds a unit.
    W = 192 + 64 * bitlen(q // min(p, q - p)) bits keep the last step's
    error below 2^-188, far inside the 2^-128 band within which a value
    snaps onto w or 0, as an exact dyadic quantile needs.
    """
    if isinstance(theta, BinaryThreshold):
        raise TypeError("pass the angle, not a prebuilt threshold")
    w = Fraction(zero_density)
    if not (0 < w < 1):
        raise ValueError("zero_density must lie strictly between 0 and 1")
    p, q = w.numerator, w.denominator
    W = 192 + 64 * (q // min(p, q - p)).bit_length()
    u = _cos2_half(theta, W)
    eps = 1 << (W - 128)
    if u > (1 << W) - eps:
        return BinaryThreshold(1 << THRESHOLD_BITS)
    if u < eps:
        return BinaryThreshold(0)
    pw, band = p << W, eps * q
    t_int = 0
    for _ in range(THRESHOLD_BITS):
        d = u * q - pw  # u - w, scaled by q 2^W
        if -band < d < band:
            # boundary: the quantile is exactly this dyadic point
            t_int = (t_int << 1) | 1
            u = 0
        elif d < 0:
            t_int <<= 1
            u = (d + pw) // p
        else:
            t_int = (t_int << 1) | 1
            u = d // (q - p)
            if u < eps:
                u = 0
    return BinaryThreshold(t_int)


@dataclass
class ReductionOutcome:
    """Result of a reduction: final string, attractor digit (None for a
    null reduction), and how many steps were taken."""

    final_state: DigitString
    attractor_index: Optional[int]
    steps: int


# ---------------------------------------------------------------------------
# suffix comparison kernel

_READ_PLACES = 1 << 15  # places one vectorized read holds, or one longer row


def _row_parts(rows, places: int):
    """``rows`` in consecutive parts of at most _READ_PLACES // places rows
    of ``places`` places each, and at least one row."""
    step = max(_READ_PLACES // places, 1)
    return [rows[lo:lo + step] for lo in range(0, len(rows), step)]


def _window_u64(bits: np.ndarray, length: int) -> np.ndarray:
    """64-bit suffix windows w_j = .b_j ... b_(j+63) * 2^64, j < length, of
    each row of ``bits`` (0/1 digits, bool or integer; digits past a row's
    end read as zeros), as uint64 of shape bits.shape[:-1] + (length,).

    Rows are packed eight digits to a byte and read as big-endian 64-bit
    words; the window at j = 64i + c is word i shifted left by c, with its
    last c digits taken from the top of word i+1, for all c at once.  It
    serves the leading-window reads (the grid sweeps', the trace rule's
    stage-1 window, the tail of ``_decided_places``); the comparison at
    every place reads bytes first (``_suffix_ge_mask``).
    """
    nw = -(-length // 64)
    pk = np.zeros(bits.shape[:-1] + (8 * nw + 8,), dtype=np.uint8)
    packed = np.packbits(bits[..., :64 * nw + 64], axis=-1)
    pk[..., :packed.shape[-1]] = packed
    words = pk.view(">u8").astype(np.uint64)[..., None]
    c = np.arange(min(length, 64), dtype=np.uint64)
    # the top c digits of word i+1, shifted in two steps so c = 0 needs no 64-bit shift
    out = words[..., :-1, :] << c
    out |= words[..., 1:, :] >> np.uint64(1) >> (np.uint64(63) - c)
    return out.reshape(bits.shape[:-1] + (-1,))[..., :length]


def _byte_tables():
    """HEAD and TAIL, 256-entry uint64 tables: byte c (in memory order) of
    HEAD[b] is the part of the 8 digits at digit c of the byte b that b
    holds (its last 8 - c digits, moved up by c), and of TAIL[b] the part
    that b holds as the next byte (its first c digits); the two are
    disjoint."""
    head = bytes((b << c) & 0xFF for b in range(256) for c in range(8))
    tail = bytes(b >> (8 - c) for b in range(256) for c in range(8))
    return np.frombuffer(head, dtype=np.uint64), np.frombuffer(tail, dtype=np.uint64)


_HEAD, _TAIL = _byte_tables()
_WINDOW_BYTES = np.arange(0, THRESHOLD_BITS, 8)  # a window's 8 bytes: the heads this many places on


def _suffix_ge_mask(bits01: np.ndarray, thr: BinaryThreshold) -> np.ndarray:
    """Boolean mask: suffix at position j (zero padded) >= threshold, of
    each row of ``bits01``.

    Byte first: each row is packed eight digits to a byte, and the first
    8 digits at every place, its head, come from two 256-entry tables, at
    byte i and digit c HEAD[byte i][c] | TAIL[byte i+1][c].  A head other
    than t's top byte decides the comparison; where the two tie, the whole
    window is the heads at the place and at the 7 places 8, 16, ..., 56
    after it, read from the row's heads followed by THRESHOLD_BITS - 8
    places of zeros (``BinaryThreshold.at_or_below_heads``).
    """
    n = bits01.shape[-1]
    packed = np.packbits(bits01, axis=-1)
    nb = packed.shape[-1]
    words = np.zeros(packed.shape[:-1] + (nb + THRESHOLD_BITS // 8 - 1,), dtype=np.uint64)
    head = words[..., :nb]
    _HEAD.take(packed, out=head, mode="clip")  # indices in range; "clip" writes out unbuffered
    head[..., :-1] |= _TAIL.take(packed[..., 1:])
    heads = words.view(np.uint8)

    def tie_windows(ties):
        if ties[-1] >= n:  # past the first row: each place moves to its padded row
            ties = ties + ties // n * (heads.shape[-1] - n)
        return heads.reshape(-1).take(ties[:, None] + _WINDOW_BYTES).view(">u8")[:, 0]

    return thr.at_or_below_heads(heads[..., :n], tie_windows)


def _deletion_mask(hi_bits: np.ndarray, thr: BinaryThreshold) -> np.ndarray:
    """Deletion mask of the two-symbol reduction rule, given the boolean
    hi indicator of the string (or of each row of a matrix of strings).

    hi deleted iff suffix < t, lo deleted iff suffix >= t: hi XOR
    (suffix >= t).
    """
    return hi_bits ^ _suffix_ge_mask(hi_bits, thr)


def _settled(w_lo: np.ndarray, known, thr: BinaryThreshold) -> np.ndarray:
    """Whether t <= w is settled for each window w whose first ``known``
    digits (a count per window, broadcast against w_lo; 64 or more is the
    whole window) are those of w_lo, the window zero filled past them: the
    one-filled window w_hi = w_lo | (2^(64 - known) - 1) falls on the same
    side of t, and every true window lies between the two."""
    k = np.asarray(known, dtype=np.uint64)
    ones = np.where(k < THRESHOLD_BITS, np.uint64(2 ** 64 - 1) >> np.minimum(k, 63), 0)
    return thr.at_or_below(w_lo) == thr.at_or_below(w_lo | ones)


def _decided_places(hi: np.ndarray, n, thr: BinaryThreshold) -> np.ndarray:
    """Count of the leading places of each row of the hi indicator ``hi``
    whose deletion its first n places (an int, or one per row; the places
    after them read lo) decide: those before the first place whose
    comparison the known digits leave open (``_settled``), so at least the
    n - (THRESHOLD_BITS - 1) whose whole window they hold.  Only the last
    THRESHOLD_BITS - 1 places of a row lack digits of their window, so
    only they are tested: the window at the tail's i-th place is the
    tail's own window shifted left by i.
    """
    n = np.broadcast_to(n, hi.shape[:-1])
    size = THRESHOLD_BITS - 1
    places = n[..., None] - np.arange(size, 0, -1, dtype=np.int32)
    tail = _window_u64(np.take_along_axis(hi, np.maximum(places, 0), axis=-1), 1)
    i = np.arange(size, dtype=np.uint64)
    open_ = ~_settled(tail << i, size - i, thr) & (places >= 0)
    return n - size + np.where(open_.any(axis=-1), open_.argmax(axis=-1), size)


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


def partial_reduce(s: DigitString, theta: AngleLike) -> tuple[DigitString, DeletionLog]:
    """Angle-parameterized deletion over the digits {0, 1}.

    Every position is tested against the threshold built from ``theta``
    (or a prebuilt BinaryThreshold): 1s are deleted when their suffix is
    strictly below it, 0s when at or above it.  The string may hold no
    other digit, whatever its base.  theta =
    pi/2 (threshold exactly 1/2) returns the string unchanged; theta = 0
    leaves only 0s, theta = pi only 1s.

    Inputs shorter than K_GUARD digits are refused (SuffixTooShort): no
    comparison on such a stub is statistically trustworthy.  Raises
    EmptyResult when nothing survives.
    """
    return _compress(s, ~_partial_keep(s, theta))


def _partial_keep(s: DigitString, theta: AngleLike) -> np.ndarray:
    """Keep mask of ``partial_reduce``, after its checks: the one place
    that validates a partial reduction, for callers that need no log."""
    d = s.digits
    if (d > 1).any():
        raise ValueError("string contains digits other than 0 and 1")
    if len(s) < K_GUARD:
        raise SuffixTooShort(
            f"{len(s)} digits is below the {K_GUARD}-digit comparison guard")
    keep = ~_deletion_mask(d == 1, BinaryThreshold.from_angle(theta))
    if not keep.any():
        raise EmptyResult("deletion would remove every digit")
    return keep


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
# fast prefix evaluation (every walk step and the batched step 1 read here)

def _reduced_prefix(r0: DigitString, depth: int, nums: np.ndarray,
                    thr: BinaryThreshold, want: int) -> list:
    """First min(want, total) surviving digits of the 0/1 partial
    reduction of phase_rotate(r0, m/2^depth), one array per numerator m
    of ``nums``, rotating only the places they need.

    The rotated string is r0's whole 2^(depth-1)-blocks (LengthNotDivisible
    when it has none).  Every row first reads L = 4 * want + THRESHOLD_BITS
    of its places (all of them when fewer), which decide at least
    4 * want + 1, and as many more as the row's tail settles
    (``_decided_places``).  On a balanced string at least half
    the places survive on average (every lo digit when t >= 1/2, every hi
    digit when t <= 1/2), so only the rare row keeps fewer than want;
    those rows alone read again at 2L, until L is the whole string.  The
    rows of each read go in ``_row_parts``, one ``_rotated_rows`` gather each.
    """
    full = len(r0) - len(r0) % 2 ** max(depth - 1, 0)
    if full == 0:
        raise LengthNotDivisible(f"string length {len(r0)} is below one rotation block")
    out = [None] * nums.size
    rows = list(range(nums.size))
    L = min(4 * want + THRESHOLD_BITS, full)
    while rows:
        whole = L == full
        # the places whose whole window the read holds hold enough survivors
        # for almost every row; only a row they leave short counts the
        # places its tail settles too
        held = L if whole else L - (THRESHOLD_BITS - 1)
        short = []
        for part in _row_parts(rows, L):
            d = _rotated_rows(r0.digits, 2, depth, nums[part, None], np.arange(L))
            keep = ~_deletion_mask(d == 1, thr)
            for i, digs, kept in zip(part, d, keep):
                survivors = digs[:held].compress(kept[:held])
                if survivors.size < want and not whole:
                    decided = int(_decided_places(digs == 1, L, thr))
                    survivors = digs[:decided].compress(kept[:decided])
                if survivors.size >= want or whole:
                    if survivors.size == 0:
                        raise EmptyResult("no digit survives the reduction")
                    out[i] = survivors[:want]
                else:
                    short.append(i)
        rows = short
        L = min(2 * L, full)
    return out


def _reduced_values(r0: DigitString, depth: int, nums: np.ndarray,
                    thr: BinaryThreshold) -> list:
    """Float value of partial_reduce(phase_rotate(r0, m/2^depth), thr) for
    each numerator m of ``nums``, the binary fraction of its first
    REDUCED_VALUE_DIGITS survivors, as a python float (``trajectory_csv``
    writes its repr).  Detects an exact value of 1/2 and raises Tie, since
    the drift equation is stationary there."""
    values = []
    for m, digs in zip(nums.tolist(), _reduced_prefix(r0, depth, nums, thr,
                                                      REDUCED_VALUE_DIGITS)):
        v = _digits_to_int(digs, 2)
        # the value is exactly 1/2 only if a leading 1 is followed by no 1
        # in the whole rotated string; a 1 among the first survivors rules
        # that out, so only a run of 0s sends the check on to every survivor
        if (v == 1 << (digs.size - 1)
                and not _reduced_prefix(r0, depth, np.array([m]), thr, len(r0))[0][1:].any()):
            raise Tie("reduced value is exactly 1/2")
        values.append(v / 2 ** digs.size)
    return values


# ---------------------------------------------------------------------------
# drift dynamics


@dataclass
class WalkResult:
    trajectory: list  # (theta, r, lam_numerator, lam_depth) per step
    outcome: ReductionOutcome

    @property
    def thetas(self) -> list:
        return [row[0] for row in self.trajectory]


TRAJECTORY_CSV_HEADER = ["step", "theta", "r_value", "lambda_numerator",
                         "lambda_depth"]


def trajectory_csv(result: WalkResult) -> str:
    """CSV text of a trajectory, one row per step; the absorbed last row
    has an empty r_value."""
    lines = [",".join(TRAJECTORY_CSV_HEADER)]
    lines.extend(f"{i},{th!r},{'' if r is None else repr(r)},{num},{dep}"
                 for i, (th, r, num, dep) in enumerate(result.trajectory))
    return "\n".join(lines) + "\n"


def _check_drift(theta0, alpha, dt) -> None:
    """The drift's domain: theta0 strictly between the poles (a float in
    radians), and a positive scale and step."""
    if not (0.0 < theta0 < np.pi):
        raise ValueError("theta0 must lie strictly between 0 and pi")
    if not (alpha > 0 and dt > 0):
        raise ValueError("alpha and dt must be positive")


def _euler_step(theta: float, r: float, alpha: float, dt: float):
    """One Euler step of dtheta/dt = alpha (r - 1/2) sin(theta), clamped
    onto [0, pi], and the attractor digit when it ends within TOL_POLE of
    a pole (0 north, 1 south), else None."""
    theta = min(max(theta + alpha * (r - 0.5) * sin(theta) * dt, 0.0), float(np.pi))
    if theta < TOL_POLE or theta > np.pi - TOL_POLE:
        return theta, 0 if theta <= np.pi / 2 else 1
    return theta, None


def weak_reduction_walk(theta0: AngleLike, lam0: PAdicRational, r0: DigitString,
                        jitter_depth: int, dt: float, alpha: float, seed: int,
                        max_steps: int = 4096) -> WalkResult:
    """Forward-Euler integration of dtheta/dt = alpha (r - 1/2) sin(theta)
    with seeded longitude jitter between steps.

    theta0 is an angle as ``BinaryThreshold.from_angle`` reads it: a
    Fraction is a multiple of pi, a float radians.  r is the value of the
    partially reduced seed, rotated to the current longitude, at the
    current theta.  After each step the longitude moves
    by +-k * 2pi/2^jitter_depth, k uniform in 1..2^jitter_depth - 1, which
    re-randomizes r: theta walks at random until a pole absorbs it.  At
    jitter_depth = 0 the longitude stays lam0 and this is the drift ODE.
    The longitude is an exact numerator on the finer of the jitter grid
    and lam0's grid.  Overshooting steps are clamped onto the pole; the
    walk ends within TOL_POLE of one, on a row whose r is None, and raises
    NonConvergence at the step budget.  Same seed, same trajectory.
    """
    theta = _angle_float(theta0)
    _check_drift(theta, alpha, dt)
    if jitter_depth < 0:
        raise ValueError("jitter_depth must be non-negative")
    rng = None  # made at the first jitter draw: most walks absorb before one
    fine = max(jitter_depth, lam0.depth)
    num = lam0.numerator << (fine - lam0.depth)
    traj = []
    for step in range(1, max_steps + 1):
        q = PAdicRational(2, num, fine)
        r = _reduced_values(r0, q.depth, np.array([q.numerator]),
                            BinaryThreshold.from_angle(theta))[0]
        traj.append((theta, r, q.numerator, q.depth))
        theta, j = _euler_step(theta, r, alpha, dt)
        if j is not None:
            traj.append((theta, None, q.numerator, q.depth))
            return WalkResult(traj, ReductionOutcome(
                DigitString.constant(2, j, len(r0)), j, step))
        if jitter_depth > 0:
            rng = rng or make_rng(seed)
            k = int(rng.integers(1, 1 << jitter_depth))
            sign = 1 if rng.integers(0, 2) else -1
            num = (num + (sign * k << (fine - jitter_depth))) % (1 << fine)
    raise NonConvergence(f"no pole reached in {max_steps} steps")
