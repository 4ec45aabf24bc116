"""Deterministic seeding, seed splitting and the package's random stream.

All randomness in the package flows through counter-based Philox
streams keyed by 64-bit seeds, so every run is bit-exact reproducible
from its seed on any platform.  Independent child streams (one per walk,
and one for the walks' starting longitudes) are derived by the splitmix
golden-ratio sequence:

    child(master, index) = master XOR ((index + 1) * 0x9E3779B97F4A7C15 mod 2^64)

The stream ``make_rng(seed)`` returns is specified below, like the
splitting above, so reports can be reproduced outside this package.  It
draws exactly what ``numpy.random.Generator(numpy.random.Philox(key=seed))``
draws for the same calls, but it is this package's own code, so its
output does not follow numpy's version (NEP 19 does not freeze
``Generator`` streams) and no run imports ``numpy.random``.

- Blocks.  Philox4x64-10 (Salmon et al., SC'11) with key
  (seed mod 2^64, 0).  Block b (b = 0, 1, ...) is the cipher of the
  counter (b + 1, 0, 0, 0).  A round maps counter (c0, c1, c2, c3) and
  key (k0, k1) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1,
  lo(M0 c0)), where hi and lo are the halves of the 128-bit product,
  M0 = 0xD2E7470EE14C6C93 and M1 = 0xCA5A826395121157.  After each round
  the key steps by (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B) mod 2^64.
- Words.  A block's four 64-bit outputs give eight 32-bit words, each
  output its low half first.  The stream's state is one integer: the
  count of words consumed.
- Integer draws below a span n of 1 to 2^32 (dtype int64), Lemire's
  rule (ACM TOMACS 2019): take the next word w and let m = w * n; accept
  when m mod 2^32 >= (2^32 - n) mod n and return low + (m >> 32), or else
  take the next word.  A span of 1 returns low and consumes no word.
- Byte draws below a span n of 2 to 256 (dtype uint8): the same rule at
  8 bits, on the bytes of fresh words, low byte first.  Each call starts
  at a fresh word, and the bytes of its last word that it does not use
  are dropped.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1

# the Philox4x64 round multipliers M0, M1 and key increments
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_KEY_STEPS = (GOLDEN, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_WORDS_PER_BLOCK = 8
# blocks one refill of the scalar draws' word buffer evaluates
_REFILL_BLOCKS = 8


def derive_seed(master: int, index: int) -> int:
    """Child seed for the index-th subtask of a master seed."""
    return (master ^ (((index + 1) * GOLDEN) & MASK64)) & MASK64


def _block_words(key: int, first: int, count: int) -> np.ndarray:
    """The uint32 words of Philox4x64-10 blocks first .. first + count - 1
    under the key (key, 0), in stream order.  The blocks run side by side
    as lanes of Python integers, one 128-bit lane per block, so each
    round's 128-bit products are exact and never reach the next lane."""
    ones = int.from_bytes((1).to_bytes(16, "little") * count, "little")
    low = ones * MASK64  # the low 64 bits of every lane
    counters = np.zeros((count, 2), dtype="<u8")
    counters[:, 0] = np.arange(first + 1, first + count + 1)
    c0, c1, c2, c3 = int.from_bytes(counters.tobytes(), "little"), 0, 0, 0
    k0, k1 = key, 0
    for _ in range(_ROUNDS):
        p0, p1 = _MULTIPLIERS[0] * c0, _MULTIPLIERS[1] * c2
        c0, c1, c2, c3 = (((p1 >> 64) & low) ^ c1 ^ (k0 * ones), p1 & low,
                          ((p0 >> 64) & low) ^ c3 ^ (k1 * ones), p0 & low)
        k0, k1 = (k0 + _KEY_STEPS[0]) & MASK64, (k1 + _KEY_STEPS[1]) & MASK64
    outputs = [np.frombuffer(c.to_bytes(16 * count, "little"), dtype="<u8")[::2]
               for c in (c0, c1, c2, c3)]
    return np.stack(outputs, axis=1).view("<u4").ravel()


class PhiloxStream:
    """The package's random stream (see the module docstring): draws
    bit-exact with numpy's ``Generator(Philox(key=seed))`` for int64
    spans 1 to 2^32 and uint8 spans 2 to 256, and refuses any other."""

    __slots__ = ("_key", "_used", "_words", "_base")

    def __init__(self, seed: int):
        self._key = seed & MASK64
        self._used = 0  # words consumed: the whole state of the stream
        # scalar draws read a buffer of Python-int words from word _base
        # on; it refills with _REFILL_BLOCKS blocks at the first word it lacks
        self._words: list[int] = []
        self._base = 0

    def integers(self, low, high, size=None, dtype=np.int64):
        """Integers in [low, high): a Python int when size is None, else
        an array of that many, in dtype."""
        low, high, dtype = int(low), int(high), np.dtype(dtype)
        n = high - low
        if dtype == np.int64 and 1 <= n <= 1 << 32 and -1 << 63 <= low < high <= 1 << 63:
            bits = 32
        elif dtype == np.uint8 and 2 <= n and 0 <= low < high <= 256:
            bits = 8
        else:
            raise ValueError(f"the stream draws int64 spans 1 to 2^32 and uint8 spans "
                             f"2 to 256, not {dtype} in [{low}, {high})")
        if n == 1:  # consumes no word
            return low if size is None else np.full(size, low, dtype=dtype)
        if size is None:
            return low + (self._scalar(n) if bits == 32 else int(self._array(n, 1, 8)[0]))
        return self._array(n, size, bits).astype(dtype) + dtype.type(low)

    def _scalar(self, n: int) -> int:
        """One draw below n by Lemire's rule on the buffered words."""
        threshold = ((1 << 32) - n) % n
        while True:
            i = self._used - self._base
            if i >= len(self._words):
                first = self._used // _WORDS_PER_BLOCK
                self._words = _block_words(self._key, first, _REFILL_BLOCKS).tolist()
                self._base = first * _WORDS_PER_BLOCK
                i = self._used - self._base
            self._used += 1
            m = self._words[i] * n
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def _array(self, n: int, size: int, bits: int) -> np.ndarray:
        """size draws below n by Lemire's rule on bits-bit units (words or
        their bytes) of fresh words, as uint64, from one block evaluation
        unless more units are rejected than were budgeted."""
        per_word = 32 // bits
        threshold = ((1 << bits) - n) % n
        expected = size / (1 - threshold / (1 << bits))
        units = int(expected + 4 * expected ** 0.5) + 8
        offset = self._used % _WORDS_PER_BLOCK
        while True:
            words = -(-units // per_word)
            blocks = -(-(offset + words) // _WORDS_PER_BLOCK)
            drawn = _block_words(self._key, self._used // _WORDS_PER_BLOCK, blocks)
            drawn = drawn[offset:offset + words].view(f"<u{bits // 8}")
            m = drawn.astype(np.uint64) * np.uint64(n)
            accepted = np.flatnonzero(m & np.uint64((1 << bits) - 1) >= threshold)[:size]
            if accepted.size == size:
                break
            units *= 2
        if size:
            self._used += -(-(int(accepted[-1]) + 1) // per_word)
        return m[accepted] >> np.uint64(bits)


def make_rng(seed: int) -> PhiloxStream:
    """The package's Philox stream keyed by a 64-bit seed."""
    return PhiloxStream(seed)
