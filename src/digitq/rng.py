"""Deterministic seeding and seed splitting.

All randomness in the package flows through counter-based Philox
generators keyed by 64-bit seeds, so every run is bit-exact reproducible
from its seed on any platform.  Independent child streams (one per walk,
and one for the walks' starting longitudes) are derived by the splitmix
golden-ratio sequence:

    child(master, index) = master XOR ((index + 1) * 0x9E3779B97F4A7C15 mod 2^64)

which is documented here precisely so reports can be reproduced outside
this package.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def derive_seed(master: int, index: int) -> int:
    """Child seed for the index-th subtask of a master seed."""
    return (master ^ (((index + 1) * GOLDEN) & MASK64)) & MASK64


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & MASK64)))
