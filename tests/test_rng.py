"""The package's Philox stream, pinned bit for bit to numpy's
``Generator(Philox)`` under the same key: numpy.random is the oracle
here and is imported by no library module."""

import numpy as np
import pytest
from conftest import numpy_philox

from digitq.rng import MASK64, _block_words, make_rng

SEEDS = [0, 1, 7919, MASK64, 0x9E3779B97F4A7C15]
INT64_SPANS = [1, 2, 3, 2187, 4096, (1 << 31) + 1, 1 << 32]
SIZES = [None, 1, 7, 2000]
UINT8_SPANS = [2, 3, 255, 256]


def same(got, want):
    if np.ndim(want) == 0:
        return type(got) is int and got == int(want)
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("first, count", [(0, 1), (0, 40), (3, 5), (2, 600)])
def test_blocks_are_philox_random_raw(seed, first, count):
    raw = np.random.Philox(key=np.uint64(seed)).random_raw(4 * (first + count))
    assert np.array_equal(_block_words(seed, first, count).view("<u8"), raw[4 * first:])


def test_make_rng_reads_the_seed_mod_2_64():
    for seed in (-1, (1 << 64) + 5):
        assert np.array_equal(make_rng(seed).integers(0, 1 << 32, size=9),
                              numpy_philox(seed).integers(0, 1 << 32, size=9))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("span", INT64_SPANS)
@pytest.mark.parametrize("size", SIZES)
def test_int64_draws(seed, span, size):
    ours, oracle = make_rng(seed), numpy_philox(seed)
    for low in (0, -3, 5):  # three draws in a row: the word position carries
        assert same(ours.integers(low, low + span, size=size),
                    oracle.integers(low, low + span, size=size))


def test_a_half_rejected_span_draws_past_its_first_budget():
    # (2^32 - n) mod n is 2^31 - 1 at n = 2^31 + 1, so about half the words
    # are rejected; an array draw of 2000 then reads about 4000 words
    ours, oracle = make_rng(3), numpy_philox(3)
    for size in (2000, None, 2000):
        assert same(ours.integers(0, (1 << 31) + 1, size=size),
                    oracle.integers(0, (1 << 31) + 1, size=size))


def test_the_trace_rules_2_16_sample_draws():
    # the two draws of a 65536-sample trace rule read about 8300 blocks each
    ours, oracle = make_rng(0), numpy_philox(0)
    for span in (2187, 4096):
        assert same(ours.integers(0, span, size=1 << 16), oracle.integers(0, span, size=1 << 16))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("span", UINT8_SPANS)
@pytest.mark.parametrize("size", SIZES)
def test_uint8_draws(seed, span, size):
    ours, oracle = make_rng(seed), numpy_philox(seed)
    for low in (0, 256 - span):
        assert same(ours.integers(low, low + span, size=size, dtype=np.uint8),
                    oracle.integers(low, low + span, size=size, dtype=np.uint8))


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_calls_share_the_word_position(seed):
    # scalar draws read the refilling buffer, array draws evaluate blocks
    # afresh and uint8 calls drop their last word's unused bytes, all on
    # one count of consumed words; 3000 scalar pairs cross many refills
    ours, oracle = make_rng(seed), numpy_philox(seed)
    calls = [((1, 1024), {}), ((0, 2), {}), ((0, 2187), dict(size=5)),
             ((0, 3), dict(size=7, dtype=np.uint8)), ((0, (1 << 31) + 1), {}),
             ((0, 2), dict(dtype=np.uint8)), ((5, 6), {}), ((5, 6), dict(size=3)),
             ((0, 1 << 32), dict(size=2000)), ((0, 256), dict(size=1, dtype=np.uint8))]
    for args, kwargs in 3 * calls:
        assert same(ours.integers(*args, **kwargs), oracle.integers(*args, **kwargs))
    for _ in range(3000):
        for args in ((1, 1 << 10), (0, 2)):
            assert same(ours.integers(*args), oracle.integers(*args))
    assert same(ours.integers(0, 4096, size=2000), oracle.integers(0, 4096, size=2000))


@pytest.mark.parametrize("low, high, dtype", [
    (0, (1 << 32) + 1, np.int64),  # span past 2^32
    (0, 0, np.int64),  # empty span
    (3, 1, np.int64),
    ((1 << 63) - 1, (1 << 63) + 1, np.int64),  # past int64
    (0, 2, np.int32),  # other dtypes
    (0, 2, np.uint16),
    (0, 2, np.float64),
    (0, 1, np.uint8),  # uint8 span below 2
    (0, 257, np.uint8),  # past uint8
    (-1, 1, np.uint8),
])
def test_refuses_other_draws(low, high, dtype):
    with pytest.raises(ValueError, match="the stream draws"):
        make_rng(0).integers(low, high, dtype=dtype)
    with pytest.raises(ValueError, match="the stream draws"):
        make_rng(0).integers(low, high, size=4, dtype=dtype)
