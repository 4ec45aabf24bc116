"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from digitq import reduction
from digitq.rng import MASK64


def numpy_philox(seed: int) -> np.random.Generator:
    """numpy's Philox generator under the key ``make_rng`` uses, for tests
    that draw what the package's stream does not (floats, choices): the
    stream's integer draws are bit-exact with this generator's."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & MASK64)))


@pytest.fixture
def gathers(monkeypatch):
    """(numerators, places) of every ``_rotated_rows`` gather that the
    survivor reader ``reduction._reduced_prefix`` makes from here on."""
    reads = []
    rotated_rows = reduction._rotated_rows

    def recording(digits, p, depth, numerators, places):
        reads.append((np.ravel(numerators).tolist(), places.size))
        return rotated_rows(digits, p, depth, numerators, places)

    monkeypatch.setattr(reduction, "_rotated_rows", recording)
    return reads
