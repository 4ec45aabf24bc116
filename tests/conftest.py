"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from digitq import reduction


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
