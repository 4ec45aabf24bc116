"""Self-similar block permutation operators with root-of-unity structure.

The phase of a state is carried by permutations acting blockwise on its
digit string.  The elementary operator on a p^n-block is built by one
self-similar rule: viewing the block as p sub-blocks [B1, ..., Bp] of size
p^(n-1), the image is [Omega(Bp), B1, ..., B(p-1)] where Omega is the same
operator one level down, and at depth 0 it is the cyclic digit increment
phi.  Composing such an operator with itself p times yields the operator
one level up, so the family realizes arbitrary p-adic rational powers of
the p-th root of unity; for p = 2 the depth-1 operator squares to the
elementwise complement and has fourth power the identity, which is the
complex-i structure the rest of the package leans on.

Operators are materialized as dense signed permutations (a source index
and a digit shift per output place) so that any power costs one blockwise
pass over the string, however large the exponent.  This is the whole
point: a rotation by m/2^n of a turn is a single gather, not m passes.

The depth-n recursion for general p reproduces the p = 2 family and the
p = 3 printed forms exactly; the general-p definition is this module's
extrapolation of that self-similarity, property-tested for the cube and
square root towers.

In closed form the tower is a p-adic odometer (the von Neumann-Kakutani
adding machine) acting on places.  Let rev be the base-p digit reversal
of a place index over n places.  One application of omega_root(p, n)
subtracts 1 from rev(j) with borrows, and the borrow out of the top
place adds 1 to the digit.  So omega_root(p, n)**m, for any m >= 0, has

    perm[j]  = rev((rev(j) - m) mod p^n)
    shift[j] = (-floor((rev(j) - m) / p^n)) mod p

and order p^(n+1).  Rotations build no operator: ``_rotated_rows`` reads
each rotated digit straight from this formula at the places a caller
needs.  The odometer runs in narrow types and divides only the
exponents, never the places: the reversal table and the sources are
int32 and the shifts are in the narrowest unsigned type of the base.
The dense operators serve only the operator algebra and are the
references the formula is tested against; they hold int64, as every
BlockOperator does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .digits import DigitString, _add_mod, _dtype_for_base, value_float
from .errors import DegenerateStatistic, LengthNotDivisible

__all__ = [
    "PAdicRational",
    "BlockOperator",
    "chi",
    "omega_root",
    "identity_operator",
    "compose",
    "extend_to",
    "operator_pow",
    "apply",
    "rotation_operator",
    "phase_rotate",
    "lag_correlation",
]


@dataclass(frozen=True)
class PAdicRational:
    """Exponent q = numerator / base**depth, kept in reduced form."""

    base: int
    numerator: int
    depth: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if self.numerator < 0 or self.depth < 0:
            raise ValueError("numerator and depth must be non-negative")
        num, dep = self.numerator, self.depth
        while dep > 0 and num % self.base == 0:
            num //= self.base
            dep -= 1
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "depth", dep)

    @classmethod
    def from_fraction(cls, q: Fraction, base: int) -> "PAdicRational":
        """Convert an exact fraction (taken mod 1) to a p-adic rational.

        Raises ValueError when the reduced denominator is not a pure power
        of ``base``; callers translate that into the off-grid contract.
        """
        q = Fraction(q) % 1
        den = q.denominator
        depth = 0
        while den > 1:
            if den % base:
                raise ValueError(f"{q} is not a base-{base} p-adic rational")
            den //= base
            depth += 1
        return cls(base, q.numerator * base ** depth // q.denominator, depth)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.base ** self.depth)

    def mod1(self) -> "PAdicRational":
        return PAdicRational(self.base, self.numerator % self.base ** self.depth, self.depth)

    def __mul__(self, k: int) -> "PAdicRational":
        return PAdicRational(self.base, self.numerator * k, self.depth)

    __rmul__ = __mul__


class BlockOperator:
    """Signed permutation on p^n-blocks: a source place and a digit shift
    per output place.  Closed under composition, so powers are cheap."""

    __slots__ = ("base", "size", "perm", "shift", "_order")

    def __init__(self, base: int, perm, shift, _validate: bool = True):
        perm = np.asarray(perm, dtype=np.int64)
        shift = np.asarray(shift, dtype=np.int64) % base
        if _validate:
            if perm.ndim != 1 or shift.shape != perm.shape:
                raise ValueError("perm and shift must be 1-d arrays of equal length")
            if sorted(perm.tolist()) != list(range(perm.size)):
                raise ValueError("perm is not a permutation")
        perm.flags.writeable = False
        shift.flags.writeable = False
        self.base = base
        self.size = perm.size
        self.perm = perm
        self.shift = shift
        self._order = None

    def is_identity(self) -> bool:
        return bool((self.perm == np.arange(self.size)).all() and (self.shift == 0).all())

    def order(self) -> int:
        """Smallest k >= 1 with op**k the identity.

        Per permutation cycle of length ell with total shift S around the
        cycle, identity needs k*ell applications with k*S divisible by the
        base; the order is the lcm over cycles.  Cached per instance.
        """
        if self._order is not None:
            return self._order
        perm = self.perm
        seen = np.zeros(self.size, dtype=bool)
        total = 1
        for start in range(self.size):
            if seen[start]:
                continue
            ell = 0
            ssum = 0
            j = start
            while not seen[j]:
                seen[j] = True
                ssum += int(self.shift[j])
                j = int(perm[j])
                ell += 1
            ssum %= self.base
            k = 1 if ssum == 0 else self.base // gcd(ssum, self.base)
            total = lcm(total, ell * k)
        self._order = total
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockOperator):
            return NotImplemented
        return (self.base == other.base and self.size == other.size
                and bool(np.array_equal(self.perm, other.perm))
                and bool(np.array_equal(self.shift, other.shift)))

    def __hash__(self):
        return hash((self.base, self.size, self.perm.tobytes(), self.shift.tobytes()))

    def __repr__(self) -> str:
        return f"BlockOperator(base={self.base}, size={self.size})"

    def to_json_obj(self) -> dict:
        n = 0
        b = 1
        while b < self.size:
            b *= self.base
            n += 1
        return {"base": self.base, "n": n,
                "perm": self.perm.tolist(), "shift": self.shift.tolist()}

    @classmethod
    def from_json_obj(cls, obj) -> "BlockOperator":
        return cls(int(obj["base"]), obj["perm"], obj["shift"])


def identity_operator(base: int, size: int = 1) -> BlockOperator:
    return BlockOperator(base, np.arange(size), np.zeros(size, dtype=np.int64),
                         _validate=False)


def chi(n: int) -> BlockOperator:
    """Base-2 self-similar operator on 2^n-blocks.

    chi(0) is the bit complement; chi(n) complements and hoists the last
    sub-block: (B1, B2) -> (chi(n-1)(B2), B1).  chi(n) realizes the
    2^(n-1)-th root of the complex-i permutation tower.
    """
    return omega_root(2, n)


@lru_cache(maxsize=64)
def omega_root(p: int, n: int) -> BlockOperator:
    """Depth-n root operator for base p on p^n-blocks.

    Depth 0 is the elementwise digit increment; depth n sends the p
    sub-blocks [B1,...,Bp] to [prev(Bp), B1, ..., B(p-1)].  Its p-th power
    is the depth-(n-1) operator extended to the larger block, so the tower
    realizes p-adic rational powers of the base-p root of unity.
    """
    if p < 2 or n < 0:
        raise ValueError("need p >= 2 and n >= 0")
    if n == 0:
        return BlockOperator(p, np.array([0]), np.array([1]), _validate=False)
    prev = omega_root(p, n - 1)
    sub = prev.size
    perm = np.concatenate([prev.perm + (p - 1) * sub,
                           np.arange((p - 1) * sub)])
    shift = np.concatenate([prev.shift, np.zeros((p - 1) * sub, dtype=np.int64)])
    return BlockOperator(p, perm, shift, _validate=False)


def compose(first: BlockOperator, second: BlockOperator) -> BlockOperator:
    """Operator equal to applying ``first`` and then ``second``."""
    if first.base != second.base:
        raise ValueError("operators act on different bases")
    a, b = first, second
    if a.size != b.size:
        target = max(a.size, b.size)
        a = extend_to(a, target)
        b = extend_to(b, target)
    perm = a.perm[b.perm]
    shift = _add_mod(a.shift[b.perm], b.shift, a.base)
    return BlockOperator(a.base, perm, shift, _validate=False)


def extend_to(op: BlockOperator, size: int) -> BlockOperator:
    """Tile a block operator to act identically on a larger block.

    ``size`` must be a multiple of the operator's block size.
    """
    if size % op.size:
        raise ValueError("target size must be a multiple of the block size")
    reps = size // op.size
    if reps == 1:
        return op
    offsets = (np.arange(reps) * op.size)[:, None]
    perm = (op.perm[None, :] + offsets).ravel()
    shift = np.tile(op.shift, reps)
    return BlockOperator(op.base, perm, shift, _validate=False)


def operator_pow(op: BlockOperator, m: int) -> BlockOperator:
    """m-fold composition of ``op`` by repeated squaring: log2(m)
    compositions, so a huge exponent needs no reduction by the order and
    no cycle is walked.
    """
    if m < 0:
        raise ValueError("exponent must be non-negative")
    result = identity_operator(op.base, op.size)
    sq = op
    while m:
        if m & 1:
            result = compose(result, sq)
        sq = compose(sq, sq) if m > 1 else sq
        m >>= 1
    return result


def apply(op: BlockOperator, s: DigitString) -> DigitString:
    """Transform each contiguous block of the string independently."""
    if s.base != op.base:
        raise ValueError(f"operator base {op.base} does not match string base {s.base}")
    if len(s) % op.size:
        raise LengthNotDivisible(
            f"length {len(s)} is not a multiple of block size {op.size}")
    rows = s.digits.reshape(-1, op.size)
    out = _add_mod(rows[:, op.perm], op.shift, op.base)
    return DigitString(s.base, out.ravel(), _validate=False)


@lru_cache(maxsize=64)
def _digit_reversal(p: int, n: int) -> np.ndarray:
    """rev[j]: the n base-p digits of the place index j in reverse order,
    as int32 (a table of 2^31 places could not be built anyway)."""
    j = np.arange(p ** n, dtype=np.int32)
    rev = np.zeros_like(j)
    for _ in range(n):
        rev = rev * p + j % p
        j //= p
    rev.flags.writeable = False
    return rev


def _odometer(p: int, n: int, m, places=None) -> tuple[np.ndarray, np.ndarray]:
    """Source places and digit shifts of omega_root(p, n)**m (see the
    module docstring), at ``places`` (default: every place of the block).

    ``m`` may be an integer array; it broadcasts against ``places``, so a
    column of exponents gives one row per power.  With m = hi * p^n + lo,
    d = rev(j) - lo borrows out of the block exactly when d < 0, and the
    wrap adds p^n back there: a mask when p^n is a power of two.  Only the
    exponents are divided, so no division runs over the places; the
    sources are int32 and the shifts are in ``_dtype_for_base(p)``.
    """
    rev = _digit_reversal(p, n)
    r = rev if places is None else rev[places]
    size = p ** n
    hi, lo = divmod(m, size)
    d = r - np.asarray(lo, dtype=np.int32)
    borrow = d < 0
    if size & (size - 1):
        d += borrow * np.int32(size)
    else:
        d &= size - 1
    return rev[d], _add_mod(np.asarray(hi % p, dtype=_dtype_for_base(p)), borrow, p)


@lru_cache(maxsize=1024)
def _rotation_operator_cached(p: int, e: int, n: int) -> BlockOperator:
    perm, shift = _odometer(p, max(n - 1, 0), e)
    return BlockOperator(p, perm, shift, _validate=False)


def rotation_operator(q: PAdicRational) -> BlockOperator:
    """The operator realizing a phase rotation by the angle 2*pi*q.

    For string base p this is the (p*q)-th power of the base-p root
    family.  With q = m/p^n in reduced form the operator acts on
    p^(n-1)-blocks; q integral is the identity and q = 1/p is the
    elementwise digit increment raised to m.
    """
    p, n = q.base, q.depth
    return _rotation_operator_cached(p, q.numerator % p ** n, n)


def _rotated_sources(p: int, depth: int, numerators,
                     places: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Source places and digit shifts of the rotation by m/p^depth of a
    turn at ``places``: place j reads the p^(depth-1)-block that starts at
    j - j mod block, and depth 0 (one place, m mod 1 = 0) is the identity.
    A column of ``numerators`` gives one row per numerator."""
    n = max(depth - 1, 0)
    inner = places % p ** n
    src, shift = _odometer(p, n, numerators % p ** depth, inner)
    return places - inner + src, shift


def _rotated_rows(digits: np.ndarray, p: int, depth: int, numerators,
                  places: np.ndarray) -> np.ndarray:
    """Digits at ``places`` of base-p strings rotated by m/p^depth of a
    turn, in one odometer gather (``_rotated_sources``) along the last
    axis: either the one string ``digits`` (1-D) with a column of
    ``numerators``, one row per numerator, or every row of a matrix
    ``digits`` with one scalar numerator."""
    idx, shift = _rotated_sources(p, depth, numerators, places)
    return _add_mod(np.take(digits, idx, axis=-1), shift, p)


def _rotated_prefix(digits: np.ndarray, q: PAdicRational) -> np.ndarray:
    """The whole-block part of ``digits`` rotated by q.  Blocks transform
    independently, so its blocks, the rows of one gather, give an exact
    prefix of the rotation of any longer string."""
    block = q.base ** max(q.depth - 1, 0)
    n = digits.size - digits.size % block
    if n == 0:
        raise LengthNotDivisible(f"string length {digits.size} is below one block of {block}")
    rows = digits[:n].reshape(-1, block)
    return _rotated_rows(rows, q.base, q.depth, q.numerator, np.arange(block)).ravel()


def phase_rotate(s: DigitString, q: PAdicRational) -> DigitString:
    """Rotate the string's phase by the angle 2*pi*q (q p-adic, base of s).

    An integral q is the identity, and no other q is: the rotation by
    m/p^n with p not dividing m is a power of a root of order p^n.  For
    base 2, q = 1/2 is the elementwise complement and q = 1/4 is one
    application of the depth-1 operator.
    The string length must be divisible by the operator block size.
    """
    if q.base != s.base:
        raise ValueError(f"rotation base {q.base} does not match string base {s.base}")
    block = q.base ** max(q.depth - 1, 0)
    if len(s) % block:
        raise LengthNotDivisible(f"length {len(s)} is not a multiple of block size {block}")
    return DigitString(s.base, _rotated_prefix(s.digits, q), _validate=False)


def _pearson_lag1(values: np.ndarray) -> float:
    x = values[:-1]
    y = values[1:]
    # exact range check: rounding in the mean can leave a 1-ulp fake
    # variance on a constant array
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise DegenerateStatistic("lag-1 correlation undefined for a constant sequence")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (x.std() * y.std()))


def lag_correlation(s: DigitString, q: PAdicRational, steps: int) -> float:
    """Sample lag-1 Pearson autocorrelation of value(rotate(s, q*j)), j=1..steps.

    A diagnostic for the white-noise character of the value sequence under
    small phase increments; raises DegenerateStatistic when the sequence is
    constant (q = 0).
    """
    if steps < 3:
        raise ValueError("need at least 3 steps")
    vals = np.empty(steps, dtype=np.float64)
    for j in range(1, steps + 1):
        vals[j - 1] = value_float(phase_rotate(s, q * j))
    return _pearson_lag1(vals)
