"""Digit-string arithmetic, bookkeeping and frequency statistics."""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digitq import digits as digits_module
from digitq.digits import (DigitString, block_frequencies, champernowne,
                           concatenated_squares, degree_of_normality,
                           delete_where, normality_deviation, phi_shift,
                           reinsert, relabel, value, value_float)
from digitq.errors import EmptyResult


def ds(base, digits):
    return DigitString(base, digits)


small_strings = st.integers(2, 5).flatmap(
    lambda b: st.lists(st.integers(0, b - 1), min_size=1, max_size=60)
    .map(lambda d: DigitString(b, d)))


class TestDigitString:
    def test_validation(self):
        with pytest.raises(ValueError):
            DigitString(2, [0, 2])
        with pytest.raises(ValueError):
            DigitString(1, [0])
        with pytest.raises(ValueError):
            DigitString(2, [])

    def test_equality_is_structural(self):
        assert ds(2, [0, 1]) == ds(2, [0, 1])
        assert ds(2, [0, 1]) != ds(3, [0, 1])
        assert ds(2, [0, 1]) != ds(2, [0, 1, 0])
        assert hash(ds(2, [0, 1])) == hash(ds(2, [0, 1]))

    def test_immutability(self):
        s = ds(2, [0, 1, 1])
        with pytest.raises(ValueError):
            s.digits[0] = 1

    def test_constant(self):
        s = DigitString.constant(3, 2, 5)
        assert s.digits.tolist() == [2, 2, 2, 2, 2]
        assert s.is_constant()

    @given(small_strings)
    def test_text_round_trip(self, s):
        assert DigitString.from_text(s.to_text()) == s

    @given(small_strings)
    def test_json_round_trip(self, s):
        assert DigitString.from_json_obj(s.to_json_obj()) == s

    def test_text_form_shape(self):
        assert ds(2, [0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]).to_text() == \
            "2:c:011011100101"


def _int_digits(n, base):
    out = []
    while True:
        n, r = divmod(n, base)
        out.append(r)
        if not n:
            return out[::-1]


def list_concatenation(base, length, f):
    """Reference builder: extend a Python list with the digits of f(0),
    f(1), ... until it holds ``length`` digits."""
    digits = []
    n = 0
    while len(digits) < length:
        digits.extend(_int_digits(f(n), base))
        n += 1
    return digits[:length]


class TestChampernowne:
    def test_base2_prefix(self):
        assert champernowne(2, 12).digits.tolist() == \
            [0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]

    def test_base3_prefix(self):
        assert champernowne(3, 9).digits.tolist() == [0, 1, 2, 1, 0, 1, 1, 1, 2]

    def test_single_digit(self):
        assert champernowne(2, 1).digits.tolist() == [0]

    @pytest.mark.parametrize("base", [2, 3, 8])
    def test_prefix_property(self, base):
        long = champernowne(base, 300)
        for L1 in (1, 7, 50, 299):
            assert long.prefix(L1) == champernowne(base, L1)

    def test_concatenated_squares_prefix(self):
        # squares 0,1,4,9,16 in base 10 concatenate to 0 1 4 9 1 6 ...
        assert concatenated_squares(10, 6).digits.tolist() == [0, 1, 4, 9, 1, 6]
        # base 2: 0,1,100,1001,10000 -> 0 1 1 0 0 1 0 0 1 1 0 0 0 0
        assert concatenated_squares(2, 14).digits.tolist() == \
            [0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0]

    @pytest.mark.parametrize("base,length", [
        (2, 1 << 18), (3, 3 ** 11), (2, 1 << 16), (2, 1000), (3, 7),
        (10, 500), (2, 12),
        # lengths that end inside a number
        (2, 13), (10, 11), (3, 3 ** 7 + 1), (300, 1001)])
    def test_match_list_builders(self, base, length):
        for builder, f in ((champernowne, lambda n: n),
                           (concatenated_squares, lambda n: n * n)):
            s = builder(base, length)
            assert s.base == base and len(s) == length
            assert s.digits.dtype == (np.uint8 if base <= 256 else np.uint16)
            assert s.digits.tolist() == list_concatenation(base, length, f)

    def test_int64_guard(self, monkeypatch):
        # the builders compute in int64; a value past the limit must raise
        # instead of wrapping.  Real limits need billions of digits, so
        # lower the limit to exercise the guard.
        monkeypatch.setattr(digits_module, "_INT64_MAX", 10 ** 4)
        assert champernowne.__wrapped__(10, 100).digits.tolist() == \
            list_concatenation(10, 100, lambda n: n)
        with pytest.raises(OverflowError):
            champernowne.__wrapped__(10, 10 ** 5)
        with pytest.raises(OverflowError):
            concatenated_squares.__wrapped__(10, 1000)


class TestPhiShift:
    def test_base2_complement(self):
        assert phi_shift(ds(2, [0, 1, 0]), 1).digits.tolist() == [1, 0, 1]

    def test_base3_increment(self):
        assert phi_shift(ds(3, [0, 1, 2]), 1).digits.tolist() == [1, 2, 0]

    @given(small_strings, st.integers(0, 10))
    def test_full_cycle_is_identity(self, s, reps):
        assert phi_shift(s, s.base * reps) == s

    @given(small_strings)
    def test_complement_law_base2(self, s):
        if s.base != 2:
            s = DigitString(2, (s.digits % 2))
        total = value(s) + value(phi_shift(s, 1))
        assert total == 1 - Fraction(1, 2 ** len(s))


class TestValue:
    def test_simple(self):
        assert value(ds(2, [1, 1])) == Fraction(3, 4)
        assert value(ds(3, [2])) == Fraction(2, 3)

    def test_champernowne_prefix_value(self):
        assert value(champernowne(2, 4)) == Fraction(6, 16)

    @given(small_strings)
    def test_against_positional_oracle(self, s):
        oracle = sum(Fraction(int(d), s.base ** (i + 1))
                     for i, d in enumerate(s.digits))
        assert value(s) == oracle

    def test_large_string_matches_oracle_prefixwise(self):
        s = champernowne(2, 5000)
        oracle = sum(Fraction(int(d), 2 ** (i + 1))
                     for i, d in enumerate(s.digits))
        assert value(s) == oracle

    @given(small_strings)
    def test_value_float_agrees(self, s):
        assert value_float(s) == pytest.approx(float(value(s)), abs=1e-12)

    @given(small_strings, small_strings)
    def test_injective_for_fixed_base_and_length(self, a, b):
        if a.base == b.base and len(a) == len(b) and a != b:
            assert value(a) != value(b)


class TestRelabel:
    def test_base3_to_base2(self):
        out = relabel(ds(3, [1, 2, 1, 1]), {1: 0, 2: 1}, 2)
        assert out.base == 2 and out.digits.tolist() == [0, 1, 0, 0]

    def test_identity(self):
        s = ds(3, [0, 2, 1])
        assert relabel(s, {0: 0, 1: 1, 2: 2}, 3) == s

    def test_base8_subsystem_relabel(self):
        out = relabel(ds(8, [5, 2, 2, 5]), {2: 0, 5: 1}, 2)
        assert out.digits.tolist() == [1, 0, 0, 1]

    def test_unmapped_digit_raises(self):
        with pytest.raises(ValueError):
            relabel(ds(3, [0, 1, 2]), {0: 0, 1: 1}, 2)

    def test_non_injective_raises(self):
        with pytest.raises(ValueError):
            relabel(ds(3, [0, 1]), {0: 0, 1: 0, 2: 1}, 2)

    @given(small_strings, small_strings)
    def test_order_preserving_map_preserves_value_order(self, a, b):
        if a.base != b.base or len(a) != len(b):
            return
        base = a.base
        # order-preserving injection into a larger base
        mapping = {d: 2 * d + 1 for d in range(base)}
        ra = relabel(a, mapping, 2 * base + 1)
        rb = relabel(b, mapping, 2 * base + 1)
        assert (value(a) < value(b)) == (value(ra) < value(rb))


class TestDeleteReinsert:
    def test_delete_zeros_base3(self):
        s = champernowne(3, 9)
        out, log = delete_where(s, lambda j: s[j - 1] == 0)
        assert out.digits.tolist() == [1, 2, 1, 1, 1, 1, 2]
        assert log.source_length == 9
        assert sorted(log.kept_positions.tolist()
                      + log.deleted_positions.tolist()) == list(range(1, 10))

    def test_delete_nothing(self):
        s = ds(2, [1, 0, 1])
        out, log = delete_where(s, lambda j: False)
        assert out == s and log.deleted_positions.size == 0

    def test_delete_everything_raises(self):
        with pytest.raises(EmptyResult):
            delete_where(ds(2, [1, 1, 1]), lambda j: True)

    def test_reinsert_round_trip(self):
        s = champernowne(3, 9)
        out, log = delete_where(s, (s.digits == 0))
        assert reinsert(out, log, 0) == s

    def test_reinsert_empty_log(self):
        s = ds(2, [1, 0])
        out, log = delete_where(s, lambda j: False)
        assert reinsert(out, log, 0) == s

    def test_reinsert_constructed(self):
        from digitq.digits import DeletionLog
        log = DeletionLog(3, np.array([2]), np.array([1, 3]), np.array([0, 0]))
        assert reinsert(ds(2, [1]), log, 0).digits.tolist() == [0, 1, 0]

    def test_reinsert_length_mismatch(self):
        s = ds(2, [1, 0, 1])
        out, log = delete_where(s, (s.digits == 0))
        with pytest.raises(ValueError):
            reinsert(s, log, 0)

    @given(st.data())
    @settings(max_examples=200)
    def test_round_trip_property(self, data):
        s = data.draw(small_strings)
        j = data.draw(st.integers(0, s.base - 1))
        mask = s.digits == j
        if mask.all():
            return
        out, log = delete_where(s, mask)
        assert reinsert(out, log, j) == s
        # the log records exactly the deleted digits
        assert all(v == j for v in log.deleted_digit_by_position.values())


class TestBlockFrequencies:
    def test_k1(self):
        t = block_frequencies(ds(2, [0, 1, 0, 1]), 1)
        assert t.counts == {(0,): 2, (1,): 2}
        assert t.total_windows == 4

    def test_k2(self):
        t = block_frequencies(ds(2, [0, 1, 0, 1]), 2)
        assert t.counts == {(0, 1): 2}
        assert t.total_windows == 2

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            block_frequencies(ds(2, [0]), 2)

    @given(small_strings, st.integers(1, 4))
    def test_counts_sum_and_match_counter_oracle(self, s, k):
        if len(s) < k:
            return
        t = block_frequencies(s, k)
        assert sum(t.counts.values()) == len(s) // k
        rows = [tuple(int(d) for d in s.digits[i * k:(i + 1) * k])
                for i in range(len(s) // k)]
        assert t.counts == dict(Counter(rows))

    def test_champernowne_digit_frequencies_at_scale(self):
        # true convergence of Champernowne prefixes is logarithmic: the
        # measured deviation at 2^16 digits is 0.0228 (brute-force count)
        t = block_frequencies(champernowne(2, 1 << 16), 1)
        dev = max(abs(c / t.total_windows - 0.5) for c in t.counts.values())
        assert dev == pytest.approx(0.02281, abs=2e-4)


class TestNormalityDeviation:
    def test_all_zeros(self):
        assert normality_deviation(DigitString.constant(2, 0, 64), 1) == \
            pytest.approx(0.5)

    def test_alternating(self):
        s = ds(2, [0, 1] * 32)
        assert normality_deviation(s, 1) == 0.0

    def test_unseen_blocks_count(self):
        # alternating string: every stride-2 block is (0,1), so the seen
        # deviation is 3/4; unseen blocks contribute 1/4
        s = ds(2, [0, 1] * 32)
        assert normality_deviation(s, 2) == pytest.approx(0.75)
        # a string covering three of four 2-blocks equally (each 1/3):
        # the unseen block's deficit 1/4 is the worst deviation
        t = ds(2, [0, 0, 0, 1, 1, 0] * 4)
        assert normality_deviation(t, 2) == pytest.approx(0.25)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        s = DigitString(3, rng.integers(0, 3, 200))
        worst = 0.0
        for k in (1, 2):
            n = len(s) // k
            c = Counter(tuple(int(d) for d in s.digits[i * k:(i + 1) * k])
                        for i in range(n))
            for block in itertools.product(range(3), repeat=k):
                worst = max(worst, abs(c.get(block, 0) / n - 3 ** -k))
        assert normality_deviation(s, 2) == pytest.approx(worst)

    def test_champernowne_at_scale(self):
        # measured truth for the 2^18-digit prefix (slow convergence)
        dev = normality_deviation(champernowne(2, 1 << 18), 2)
        assert dev == pytest.approx(0.02917, abs=2e-4)


class TestDegreeOfNormality:
    def test_constant(self):
        rho = degree_of_normality(DigitString.constant(3, 2, 10))
        assert rho.tolist() == [0.0, 0.0, 1.0]

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        s = DigitString(4, rng.integers(0, 4, 97))
        assert degree_of_normality(s).sum() == pytest.approx(1.0)

    def test_champernowne_base3_at_scale(self):
        # measured truth at 3^10 digits: max deviation 0.0247 from 1/3
        rho = degree_of_normality(champernowne(3, 3 ** 10))
        assert np.abs(rho - 1 / 3).max() == pytest.approx(0.02466, abs=2e-4)
