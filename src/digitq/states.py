"""Constructors for real-number states and their unitary-like transforms.

A 2-level state is a single base-2 digit string built in two moves from a
configured seed: rotate the phase by a dyadic angle, then partially
reduce by the co-latitude.  A 3-level state runs the longer pipeline over
a base-3 seed: rotate its nonzero digits in place, read as the bits
digit - 1, by the dyadic angle, rotate the whole base-3 string by the
triadic angle, then apply the two-stage partial reduction (theta2 over
the {1,2} subsequence, theta1 over the zero/nonzero indicator).

Angles follow one convention, owned by ``reduction``: a Fraction is an
exact multiple of pi (so grid membership is checkable syntactically), a
float is radians.  Longitudes must land on the p-adic grid of the
permitted depth; anything else raises OffGrid, by design rather than by
limitation, because off-grid states are undefined objects in this model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .digits import DigitString, champernowne, phi_shift, relabel
from .errors import EmptyResult, NotAnEigenstate, OffGrid, SuffixTooShort
from .phase import PAdicRational, _rotated_prefix, phase_rotate
from .reduction import (AngleLike, BinaryThreshold, K_GUARD, ReductionOutcome,
                        _deletion_mask, _partial_keep,
                        biased_quantile_threshold, reduce_compound)

__all__ = [
    "BlochPoint",
    "QutritAngles",
    "StateConfig",
    "default_config",
    "default_qutrit_config",
    "qubit_state",
    "qutrit_state",
    "composite",
    "subsystem",
    "decompose",
    "hadamard_equiv",
    "u_n_gate",
    "schrodinger_evolve",
    "beamsplitter_pair",
    "blocked_mz_output",
    "full_mz_output",
    "measurement_coupling",
]

TurnsLike = Union[Fraction, PAdicRational]


def _padic_turns(lam: TurnsLike, base: int, n_max: int) -> PAdicRational:
    """Validate a longitude against the base-``base`` grid of depth n_max.

    ``lam`` is either a PAdicRational (already in turns, q with angle
    2*pi*q) or a Fraction meaning a multiple of pi (so Fraction(1, 4)
    means pi/4, i.e. q = 1/8).  Raises OffGrid off the grid; this is the
    counterfactual contract, not a parsing nicety.
    """
    if isinstance(lam, PAdicRational):
        if lam.base != base:
            raise OffGrid(f"longitude is base-{lam.base} p-adic, need base {base}")
        q = lam.mod1()
    elif isinstance(lam, Fraction):
        try:
            q = PAdicRational.from_fraction(lam / 2, base)
        except ValueError:
            raise OffGrid(
                f"{lam}*pi is not a base-{base} p-adic rational multiple of 2*pi; "
                "the state there is undefined") from None
    else:
        raise OffGrid(
            "longitudes must be exact rationals (Fraction multiple of pi or a "
            "p-adic rational in turns); floats cannot be grid-checked")
    if q.depth > n_max:
        raise OffGrid(
            f"longitude depth {q.depth} exceeds the configured grid depth {n_max}; "
            "the state there is undefined")
    return q


@dataclass(frozen=True)
class BlochPoint:
    """Qubit direction: co-latitude theta and dyadic longitude.

    theta: float radians or Fraction of pi.  lam: Fraction of pi or a
    base-2 PAdicRational in turns.
    """

    theta: AngleLike
    lam: TurnsLike


@dataclass(frozen=True)
class QutritAngles:
    """3-level state angles: two co-latitudes, a triadic and a dyadic
    longitude (same conventions as BlochPoint)."""

    theta1: AngleLike
    theta2: AngleLike
    lam1: TurnsLike
    lam2: TurnsLike


@dataclass(frozen=True)
class StateConfig:
    """Seed string (the global-phase choice) and grid depth.

    For a base-2 seed the length must be a multiple of 2**(n_max + 2) so
    every on-grid rotation applies blockwise.  ``inner_dyadic_depth``
    bounds the dyadic grid used inside the 3-level pipeline (defaults to
    n_max).  ``target_length`` is accepted for callers that pass it, but
    no code reads it: the constructors keep every surviving digit of the
    whole seed, so output lengths follow from the seed length and the
    angles.
    """

    seed_string: DigitString
    n_max: int = 12
    target_length: int = 1 << 16
    inner_dyadic_depth: Optional[int] = None

    def __post_init__(self):
        b = self.seed_string.base
        if b == 2:
            block = 1 << (self.n_max + 2)
            if len(self.seed_string) % block:
                raise ValueError(
                    f"base-2 seed length must be a multiple of 2^(n_max+2) = {block}")
        else:
            block = b ** max(self.n_max - 1, 0)
            if len(self.seed_string) % block:
                raise ValueError(
                    f"base-{b} seed length must be a multiple of {b}^(n_max-1) = {block}")

    @property
    def dyadic_depth(self) -> int:
        return self.inner_dyadic_depth if self.inner_dyadic_depth is not None else self.n_max


def default_config() -> StateConfig:
    """Champernowne base-2 seed of 2^18 digits, grid depth 12."""
    return StateConfig(champernowne(2, 1 << 18), n_max=12)


def default_qutrit_config() -> StateConfig:
    """Champernowne base-3 seed of 3^11 digits, triadic depth 7, dyadic 12."""
    return StateConfig(champernowne(3, 3 ** 11), n_max=7, inner_dyadic_depth=12)


# ---------------------------------------------------------------------------
# 2-level constructor


def qubit_state(cfg: StateConfig, point: BlochPoint) -> DigitString:
    """Build the 2-level state: rotate the seed by the longitude, then
    partially reduce by the co-latitude.

    theta = pi/2 returns the pure rotation (no digit deleted); theta = 0
    or pi returns constant strings.  The output keeps every surviving
    digit of the rotated seed, so it is shorter the nearer theta lies to
    a pole; ``cfg.target_length`` plays no part.
    """
    if cfg.seed_string.base != 2:
        raise ValueError("qubit_state needs a base-2 seed")
    q = _padic_turns(point.lam, 2, cfg.n_max)
    rotated = phase_rotate(cfg.seed_string, q)
    keep = _partial_keep(rotated, point.theta)
    return DigitString(2, rotated.digits.compress(keep), _validate=False)


# ---------------------------------------------------------------------------
# 3-level constructor


def qutrit_state(cfg: StateConfig, ang: QutritAngles) -> DigitString:
    """Build the 3-level state over a base-3 seed.

    Pipeline: rotate the nonzero digits, read as bits, in place by the
    dyadic longitude and the whole string by the triadic one; partially
    reduce the {1,2} subsequence by theta2 and then the zero/nonzero
    indicator by theta1.  Rotations consume a block-aligned prefix, so the
    output length varies with the angles.
    """
    s0 = cfg.seed_string
    if s0.base != 3:
        raise ValueError("qutrit_state needs a base-3 seed")
    q1 = _padic_turns(ang.lam1, 3, cfg.n_max)
    q2 = _padic_turns(ang.lam2, 2, cfg.dyadic_depth)
    t1, t2 = qutrit_thresholds(ang.theta1, ang.theta2)
    return _qutrit_reduce(_qutrit_pipeline(s0.digits, q1, q2), t1, t2)


def qutrit_thresholds(theta1: AngleLike,
                      theta2: AngleLike) -> tuple[BinaryThreshold, BinaryThreshold]:
    """Comparison thresholds of the two reduction stages.

    The {1,2} subsequence of a base-3 normal string is balanced, so the
    theta2 stage uses the plain threshold t2 = cos^2(theta2/2).  The
    theta1 stage compares zero/nonzero indicator suffixes, and that
    string is not balanced: the seed carries zero-density 1/3 and the
    theta2 stage thins the nonzero digits by the survival factor

        s1(t2) = (1 + 2*min(t2, 1 - t2)) / 2

    (lo digits below the threshold all survive and hi digits survive with
    probability 2*(1 - t2) for t2 >= 1/2, mirrored below), leaving the
    indicator with zero-density w2 = (1/3) / (1/3 + (2/3) s1).  The
    theta1 comparison therefore runs through the quantile of the
    w2-biased law, which realizes the nominal cos^2(theta1/2) level and
    is the exact identity at cos^2(theta1/2) = w2.
    """
    t2 = BinaryThreshold.from_angle(theta2)
    u2 = t2.value
    s1 = Fraction(1 + 2 * min(u2, 1 - u2), 2)
    w2 = Fraction(1, 3) / (Fraction(1, 3) + Fraction(2, 3) * s1)
    t1 = biased_quantile_threshold(theta1, w2)
    return t1, t2


def _qutrit_pipeline(d: np.ndarray, q1: PAdicRational,
                     q2: PAdicRational) -> np.ndarray:
    """The two rotations of the 3-level construction on the base-3 digit
    array of an explicit seed, returning the rotated digit array: the
    nonzero digits, as the bits digit - 1, rotate by q2 and go back as
    bits + 1 to their places, then the string up to the last of them
    rotates by q1.  Blocks rotate independently, so a seed prefix yields a
    prefix of the result on the whole seed."""
    nz = np.flatnonzero(d != 0)
    if nz.size == 0:
        raise EmptyResult("no nonzero digit to rotate")
    bits = _rotated_prefix(d[nz] - 1, q2)
    out = d[:nz[bits.size - 1] + 1].copy()
    out[nz[:bits.size]] = bits + 1
    return _rotated_prefix(out, q1)


def _qutrit_reduce(d: np.ndarray, t1: BinaryThreshold,
                   t2: BinaryThreshold) -> DigitString:
    """Two-stage partial reduction of a base-3 digit array, returned as a
    base-3 string.

    Stage 1 deletes among the nonzero digits by comparing suffixes of the
    {1,2} subsequence against t2 (1 plays lo, 2 plays hi).  Stage 2
    deletes over the surviving string by comparing suffixes of the
    zero/nonzero indicator against t1.
    """
    nz = d != 0
    nz_idx = np.flatnonzero(nz)
    if nz_idx.size == 0:
        raise EmptyResult("no nonzero digit to reduce")
    if nz_idx.size < K_GUARD:
        raise SuffixTooShort(
            f"{nz_idx.size} nonzero digits is below the {K_GUARD}-digit guard")
    keep = ~nz
    keep[nz_idx] = ~_deletion_mask(d.take(nz_idx) == 2, t2)
    stage1 = d.compress(keep)
    if stage1.size == 0:
        raise EmptyResult("stage-1 reduction removed every digit")
    if stage1.size < K_GUARD:
        raise SuffixTooShort(
            f"{stage1.size} digits after stage 1 is below the {K_GUARD}-digit guard")

    final = stage1.compress(~_deletion_mask(stage1 != 0, t1))
    if final.size == 0:
        raise EmptyResult("stage-2 reduction removed every digit")
    return DigitString(3, final, _validate=False)


# ---------------------------------------------------------------------------
# composition and subsystems


def composite(qubits: Sequence[DigitString]) -> DigitString:
    """Interleave N equal-length base-2 strings into one base-2^N string,
    digit j being the big-endian N-bit word of the j-th bits (first
    string is the most significant bit)."""
    if len(qubits) < 1:
        raise ValueError("need at least one string")
    L = len(qubits[0])
    for s in qubits:
        if s.base != 2:
            raise ValueError("composite needs base-2 strings")
        if len(s) != L:
            raise ValueError("strings must have equal length")
    N = len(qubits)
    acc = np.zeros(L, dtype=np.int64)
    for s in qubits:
        acc = (acc << 1) | s.digits.astype(np.int64)
    return DigitString(1 << N, acc)


def decompose(s: DigitString, n_channels: int) -> list[DigitString]:
    """Exact inverse of composite: recover the N base-2 channel strings
    from a base-2^N string."""
    if s.base != 1 << n_channels:
        raise ValueError(f"base {s.base} is not 2^{n_channels}")
    d = s.digits.astype(np.int64)
    return [DigitString(2, (d >> (n_channels - 1 - k)) & 1, _validate=False)
            for k in range(n_channels)]


def subsystem(s: DigitString, keep: Sequence[int]) -> DigitString:
    """Project onto a digit subset: delete every position whose digit is
    not in ``keep``, then relabel the kept digits order-preservingly onto
    0..m-1."""
    keep = list(keep)
    if not keep or len(set(keep)) != len(keep):
        raise ValueError("keep must be a non-empty set of distinct digits")
    for k in keep:
        if not (0 <= k < s.base):
            raise ValueError(f"digit {k} out of range for base {s.base}")
    sel = np.isin(s.digits, keep)
    if not sel.any():
        raise EmptyResult("no kept digit occurs in the string")
    mapping = {dig: i for i, dig in enumerate(sorted(keep))}
    kept = DigitString(s.base, s.digits[sel], _validate=False)
    return relabel(kept, mapping, len(keep))


# ---------------------------------------------------------------------------
# unitary-like transforms


def hadamard_equiv(s: DigitString, cfg: StateConfig) -> DigitString:
    """Hadamard-like map on eigenstates: constant-0 goes to the seed,
    constant-1 to its complement (value + complement value = 1 - 2^-L)."""
    if s.base != 2 or not s.is_constant():
        raise NotAnEigenstate("hadamard_equiv is defined on constant base-2 strings")
    return cfg.seed_string if s.leading_digit == 0 else phi_shift(cfg.seed_string, 1)


def u_n_gate(s: DigitString, N: int) -> DigitString:
    """Phase gate: rotation by 1/2^N of a turn in a single blockwise pass.

    N = 2 is one application of the depth-1 operator; 2^N applications
    compose to the identity.  The string must cover at least one operator
    block (2^(N-1) digits for N >= 2).
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    return phase_rotate(s, PAdicRational(2, 1, N))


def schrodinger_evolve(s: DigitString, q: PAdicRational, steps: int) -> list[DigitString]:
    """Free evolution: the n-th element is the rotation of s by n*q turns,
    n = 0..steps.  Exactly periodic with the operator order, and a group
    action: evolving by q1 then q2 equals evolving by q1 + q2."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    return [phase_rotate(s, q * n) for n in range(steps + 1)]


def beamsplitter_pair(s: DigitString) -> tuple[DigitString, DigitString]:
    """Transmitted and reflected branch states of a half-silvered mirror.

    The reflected branch sits at the antipodal longitude, which is the
    elementwise complement; detecting in one branch never mutates the
    other, and exactly one of the two leading digits is 1 per sample.
    """
    if s.base != 2:
        raise ValueError("beamsplitter_pair needs a base-2 string")
    return s, phi_shift(s, 1)


def blocked_mz_output(s: DigitString) -> DigitString:
    """Single-arm interferometer output: the string itself when its value
    is at least 1/2, otherwise its complement.  Idempotent; leading digit
    always 1."""
    if s.base != 2:
        raise ValueError("blocked_mz_output needs a base-2 string")
    if s.leading_digit == 1:
        return s
    return phi_shift(s, 1)


def full_mz_output(s: DigitString) -> DigitString:
    """Two-arm interferometer output: all intensity in one channel.

    Stated postcondition (the construction argument is a symmetry, not an
    algorithm): the outgoing state is the constant-1 string.
    """
    if s.base != 2:
        raise ValueError("full_mz_output needs a base-2 string")
    return DigitString.constant(2, 1, len(s))


def measurement_coupling(qubit: DigitString, M: int, J: int, K: int) -> ReductionOutcome:
    """Couple a qubit to an M-level detector with gain.

    The detector string relabels qubit digits onto adjacent levels
    {J-1, J}; compound reduction then either leaves it in the unchanged
    class (leading qubit digit 0: null outcome, attractor None) or
    reduces to level J and cascades up to the readout level K.
    """
    if qubit.base != 2:
        raise ValueError("measurement_coupling needs a base-2 qubit")
    if not (1 <= J < K < M):
        raise ValueError("need 1 <= J < K < M")
    detector = relabel(qubit, {0: J - 1, 1: J}, M)
    out = reduce_compound(detector)
    if out.attractor_index == J:
        return ReductionOutcome(DigitString.constant(M, K, len(detector)), K,
                                K - J + 1)
    return ReductionOutcome(detector, None, 0)
