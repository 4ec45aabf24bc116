"""Exact finite digit strings and their bookkeeping.

A digit string is a finite base-M expansion .d1 d2 ... dL standing in for
a real number in [0, 1).  Everything downstream (phase operators, state
reduction, the experiment harness) manipulates these strings, so this
module keeps them immutable, packed in numpy arrays, and exact: ``value``
returns a Fraction, deletions log the removed positions so they can be
reinserted bit-exactly, and frequency statistics use non-overlapping
blocks.

Conventions:
  * digits are stored little-endian-in-reading-order, ``digits[0]`` is the
    most significant place d1;
  * positions are 1-based wherever they appear in a public interface
    (DeletionLog, predicates), matching the .d1 d2 ... notation;
  * strings never carry trailing semantics: length is explicit and two
    strings are equal only if base, length and digits all agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptyResult

__all__ = [
    "DigitString",
    "DeletionLog",
    "FrequencyTable",
    "champernowne",
    "concatenated_squares",
    "phi_shift",
    "value",
    "value_float",
    "relabel",
    "delete_where",
    "reinsert",
    "block_frequencies",
    "normality_deviation",
]


_INT64_MAX = int(np.iinfo(np.int64).max)


def _dtype_for_base(base: int) -> np.dtype:
    """Narrowest unsigned type holding the digits 0..base-1.  Bases above
    2^63 are refused, so that ``_add_mod``'s 2*base - 2 fits in uint64."""
    if base > 1 << 63:
        raise ValueError(f"base {base} exceeds 2^63")
    return np.min_scalar_type(base - 1)


def _add_mod(digits: np.ndarray, shift, base: int) -> np.ndarray:
    """(digits + shift) mod base, for digits and shifts in 0..base-1, in the
    dtype of ``digits``.  The sum x is formed in the narrowest unsigned type
    holding 2*base - 2, where x - base wraps above x exactly when x < base."""
    wide = np.min_scalar_type(2 * base - 2)
    x = digits.astype(wide, copy=False) + np.asarray(shift).astype(wide)
    return np.minimum(x, x - base).astype(digits.dtype, copy=False)


class DigitString:
    """Immutable finite base-M digit sequence with exact value semantics."""

    __slots__ = ("_base", "_digits", "_hash")

    def __init__(self, base: int, digits, _validate: bool = True):
        if _validate:
            if not isinstance(base, int) or base < 2:
                raise ValueError(f"base must be an integer >= 2, got {base!r}")
            # check before the narrowing cast, which would wrap 258 to 2
            # and truncate 2.7 to 2
            digits = np.asarray(digits)
            if digits.ndim != 1 or digits.size < 1:
                raise ValueError("digits must be a non-empty 1-d sequence")
            if digits.dtype.kind not in "biu":  # bool, signed or unsigned int
                raise ValueError(f"digits must be integers, got dtype {digits.dtype}")
            bad = digits[(digits < 0) | (digits >= base)]
            if bad.size:
                raise ValueError(f"digit {int(bad[0])} out of range for base {base}")
        arr = np.ascontiguousarray(np.asarray(digits, dtype=_dtype_for_base(base)))
        arr.flags.writeable = False
        self._base = base
        self._digits = arr
        self._hash = None

    @classmethod
    def constant(cls, base: int, digit: int, length: int) -> "DigitString":
        """The string .ddd...d of the given length."""
        if not (0 <= digit < base):
            raise ValueError("digit out of range")
        if length < 1:
            raise ValueError("length must be >= 1")
        return cls(base, np.full(length, digit, dtype=_dtype_for_base(base)), _validate=False)

    @property
    def base(self) -> int:
        return self._base

    @property
    def digits(self) -> np.ndarray:
        """Read-only numpy view of the digits."""
        return self._digits

    def __len__(self) -> int:
        return self._digits.size

    def __getitem__(self, i):
        return int(self._digits[i])

    @property
    def leading_digit(self) -> int:
        return int(self._digits[0])

    def is_constant(self) -> bool:
        d = self._digits
        return bool((d == d[0]).all())

    def prefix(self, n: int) -> "DigitString":
        if not (1 <= n <= len(self)):
            raise ValueError("prefix length out of range")
        if n == len(self):
            return self
        return DigitString(self._base, self._digits[:n], _validate=False)

    def value(self) -> Fraction:
        """Exact value sum(d_i * M^-i) as a Fraction."""
        return Fraction(_digits_to_int(self._digits, self._base), self._base ** len(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DigitString):
            return NotImplemented
        return (
            self._base == other._base
            and len(self) == len(other)
            and bool(np.array_equal(self._digits, other._digits))
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._base, len(self), self._digits.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        if len(self) <= 24:
            body = ",".join(str(int(d)) for d in self._digits)
        else:
            head = ",".join(str(int(d)) for d in self._digits[:16])
            body = f"{head},...(+{len(self) - 16})"
        return f"DigitString(base={self._base}, .{body})"

    # serialization ----------------------------------------------------

    _ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"

    def to_text(self) -> str:
        """Compact text form ``base:hexlen:digit-run`` for bases <= 36."""
        if self._base > 36:
            raise ValueError("text form supports base <= 36; use to_json_obj for larger bases")
        run = "".join(self._ALPHABET[d] for d in self._digits.tolist())
        return f"{self._base}:{len(self):x}:{run}"

    @classmethod
    def from_text(cls, text: str) -> "DigitString":
        base_s, len_s, run = text.split(":", 2)
        base = int(base_s)
        n = int(len_s, 16)
        if len(run) != n:
            raise ValueError(f"declared length {n} does not match digit run of {len(run)}")
        digs = [cls._ALPHABET.index(c) for c in run]
        return cls(base, digs)

    def to_json_obj(self) -> dict:
        return {"base": self._base, "digits": [int(d) for d in self._digits]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "DigitString":
        return cls(int(obj["base"]), obj["digits"])


class DeletionLog:
    """Position bookkeeping for a deletion, sufficient to undo it.

    ``kept_positions`` and the deleted positions partition 1..source_length.
    Stored as arrays so that megabyte-scale strings stay cheap; the mapping
    view ``deleted_digit_by_position`` is built on first access.
    """

    __slots__ = ("source_length", "kept_positions", "deleted_positions",
                 "deleted_digits", "_map")

    def __init__(self, source_length: int, kept_positions: np.ndarray,
                 deleted_positions: np.ndarray, deleted_digits: np.ndarray):
        self.source_length = int(source_length)
        self.kept_positions = np.asarray(kept_positions, dtype=np.int64)
        self.deleted_positions = np.asarray(deleted_positions, dtype=np.int64)
        self.deleted_digits = np.asarray(deleted_digits)
        self._map = None

    @property
    def deleted_digit_by_position(self) -> dict:
        if self._map is None:
            self._map = dict(zip(self.deleted_positions.tolist(),
                                 (int(d) for d in self.deleted_digits)))
        return self._map

    @property
    def kept_count(self) -> int:
        return self.kept_positions.size


class FrequencyTable:
    """Occurrence counts of length-k digit blocks over stride-k windows."""

    __slots__ = ("block_length", "counts", "total_windows")

    def __init__(self, block_length: int, counts: dict, total_windows: int):
        self.block_length = block_length
        self.counts = counts
        self.total_windows = total_windows

    def frequency(self, block) -> float:
        key = tuple(int(b) for b in block) if isinstance(block, Iterable) else (int(block),)
        return self.counts.get(key, 0) / self.total_windows

    def __repr__(self) -> str:
        return (f"FrequencyTable(k={self.block_length}, windows={self.total_windows}, "
                f"blocks={len(self.counts)})")


# ---------------------------------------------------------------------------
# constructors


def _concatenation(base: int, length: int, squares: bool) -> DigitString:
    """First ``length`` digits of the base-``base`` concatenation of
    f(0), f(1), f(2), ... with f(n) = n, or n*n when ``squares``.

    Built one digit-length class at a time: the f(n) with exactly k digits
    form a run of consecutive n, and the run's digit matrix is
    (f(n) // base^(k-1..0)) % base.  Only as many n as the remaining
    length needs are expanded, so the int64 arithmetic stays exact unless
    a needed value itself overflows, which raises OverflowError.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    if length < 1:
        raise ValueError("length must be >= 1")
    parts = []
    got = 0
    k = 1
    while got < length:
        # the values with exactly k digits are [base^(k-1), base^k), 0 included at k = 1
        lo, hi = (base ** (k - 1) if k > 1 else 0), base ** k
        if squares:
            lo, hi = (isqrt(lo - 1) + 1 if lo else 0), isqrt(hi - 1) + 1
        count = min(hi - lo, -(-(length - got) // k))
        top = lo + count - 1
        if (top * top if squares else top) > _INT64_MAX:
            raise OverflowError(f"digit-length class {k} in base {base} exceeds int64")
        n = np.arange(lo, lo + count, dtype=np.int64)
        vals = n * n if squares else n
        places = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
        parts.append(((vals[:, None] // places) % base).ravel())
        got += count * k
        k += 1
    digits = np.concatenate(parts)[:length].astype(_dtype_for_base(base))
    return DigitString(base, digits, _validate=False)


@lru_cache(maxsize=64)
def champernowne(base: int, length: int) -> DigitString:
    """First ``length`` digits of the base-``base`` concatenation 0,1,2,...

    The concatenation starts at the integer 0, so the base-2 expansion
    begins .011011100101... and the base-3 expansion begins .012101112...
    """
    return _concatenation(base, length, squares=False)


@lru_cache(maxsize=64)
def concatenated_squares(base: int, length: int) -> DigitString:
    """First ``length`` digits of the concatenation of 0,1,4,9,16,... in base
    ``base``.  An alternate normal-style seed used to demonstrate that the
    measurement statistics do not depend on the seed choice."""
    return _concatenation(base, length, squares=True)


# ---------------------------------------------------------------------------
# elementwise operations


def phi_shift(s: DigitString, k: int) -> DigitString:
    """Apply the cyclic digit increment d -> (d + k) mod M to every place."""
    return DigitString(s.base, _add_mod(s.digits, k % s.base, s.base), _validate=False)


def _digits_to_int(arr: np.ndarray, base: int) -> int:
    """Value of the digit array read as a base-``base`` integer.

    Base 2 packs the bits eight to a byte and reads the bytes as one
    big-endian integer, less the zero bits that pad the last byte.  Other
    bases divide and conquer so that million-digit strings stay
    subquadratic; python ints do the big arithmetic.
    """
    if base == 2:
        return int.from_bytes(np.packbits(arr).tobytes(), "big") >> (-arr.size % 8)

    def rec(lo: int, hi: int) -> int:
        n = hi - lo
        if n <= 1024:
            acc = 0
            for d in arr[lo:hi].tolist():
                acc = acc * base + d
            return acc
        mid = (lo + hi) // 2
        return rec(lo, mid) * pow(base, hi - mid) + rec(mid, hi)

    return rec(0, arr.size)


def value(s: DigitString) -> Fraction:
    """Exact value of the string as a rational in [0, 1)."""
    return s.value()


def value_float(s: DigitString, prefix_digits: int = 96) -> float:
    """Float projection of the exact value, correct to the first
    ``prefix_digits`` places (error below 2**-90 at the default)."""
    n = min(len(s), prefix_digits)
    return _digits_to_int(s.digits[:n], s.base) / s.base ** n


def relabel(s: DigitString, mapping: Mapping[int, int], new_base: int) -> DigitString:
    """Rename digits pointwise through an injective map.

    Every digit occurring in ``s`` must be a key of ``mapping`` and every
    image must be a valid digit of ``new_base``.
    """
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise ValueError("relabel mapping must be injective")
    lut = np.full(s.base, -1, dtype=np.int64)
    for src, dst in mapping.items():
        if not (0 <= src < s.base):
            raise ValueError(f"source digit {src} out of range for base {s.base}")
        if not (0 <= dst < new_base):
            raise ValueError(f"image digit {dst} out of range for base {new_base}")
        lut[src] = dst
    out = lut[s.digits]
    if (out < 0).any():
        missing = int(s.digits[np.argmax(out < 0)])
        raise ValueError(f"digit {missing} occurs in the string but is not in the map")
    return DigitString(new_base, out.astype(_dtype_for_base(new_base)), _validate=False)


# ---------------------------------------------------------------------------
# deletion and reinsertion


def _compress(s: DigitString, delete_mask: np.ndarray) -> tuple[DigitString, DeletionLog]:
    if delete_mask.all():
        raise EmptyResult("deletion would remove every digit")
    kept_idx = np.flatnonzero(~delete_mask)
    deleted_idx = np.flatnonzero(delete_mask)
    survivors = DigitString(s.base, s.digits[kept_idx], _validate=False)
    log = DeletionLog(len(s), kept_idx + 1, deleted_idx + 1, s.digits[deleted_idx])
    return survivors, log


def delete_where(s: DigitString, predicate) -> tuple[DigitString, DeletionLog]:
    """Delete the positions selected by ``predicate``.

    ``predicate`` is either a callable on 1-based positions or a boolean
    mask of the same length as the string (True means delete).  Raises
    EmptyResult when nothing would survive.
    """
    if callable(predicate):
        mask = np.fromiter((bool(predicate(j)) for j in range(1, len(s) + 1)),
                           dtype=bool, count=len(s))
    else:
        mask = np.asarray(predicate, dtype=bool)
        if mask.shape != (len(s),):
            raise ValueError("mask length must equal string length")
    return _compress(s, mask)


def reinsert(s: DigitString, log: DeletionLog, fill_digit: int) -> DigitString:
    """Undo a deletion: put the digits of ``s`` back at the kept positions
    and ``fill_digit`` at every deleted position."""
    if len(s) != log.kept_count:
        raise ValueError(
            f"string length {len(s)} does not match {log.kept_count} kept positions")
    if not (0 <= fill_digit < s.base):
        raise ValueError("fill_digit out of range")
    out = np.full(log.source_length, fill_digit, dtype=s.digits.dtype)
    out[log.kept_positions - 1] = s.digits
    return DigitString(s.base, out, _validate=False)


# ---------------------------------------------------------------------------
# frequency statistics


def block_frequencies(s: DigitString, k: int) -> FrequencyTable:
    """Counts of length-k blocks over the floor(L/k) non-overlapping windows."""
    if k < 1:
        raise ValueError("block length must be >= 1")
    if len(s) < k:
        raise ValueError(f"string of length {len(s)} has no block of length {k}")
    nwin = len(s) // k
    rows = s.digits[: nwin * k].reshape(nwin, k)
    if k * np.log2(s.base) <= 52:
        # encode each block as an integer, exact in int64
        weights = s.base ** np.arange(k - 1, -1, -1, dtype=np.int64)
        codes = (rows.astype(np.int64) * weights).sum(axis=1)
        uniq, cnts = np.unique(codes, return_counts=True)
        counts = {}
        for code, c in zip(uniq.tolist(), cnts.tolist()):
            block = []
            for _ in range(k):
                code, r = divmod(code, s.base)
                block.append(r)
            counts[tuple(reversed(block))] = c
    else:
        counts = {}
        for row in rows:
            key = tuple(int(d) for d in row)
            counts[key] = counts.get(key, 0) + 1
    return FrequencyTable(k, counts, nwin)


def normality_deviation(s: DigitString, max_block: int) -> float:
    """Worst-case deviation of block frequencies from equidistribution.

    Maximum over block lengths k <= max_block and over all M^k possible
    blocks of |freq(block) - M^-k|; blocks that never occur contribute
    M^-k.  Zero means exactly equidistributed at every tested length.
    """
    worst = 0.0
    for k in range(1, max_block + 1):
        table = block_frequencies(s, k)
        target = s.base ** -k
        seen = max(abs(c / table.total_windows - target) for c in table.counts.values())
        worst = max(worst, seen)
        if len(table.counts) < s.base ** k:
            worst = max(worst, target)
    return worst


def degree_of_normality(s: DigitString) -> np.ndarray:
    """Per-digit occupancy fractions rho_j = count(j)/L, summing to 1."""
    return np.bincount(s.digits, minlength=s.base) / len(s)
