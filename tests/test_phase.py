"""Block operator algebra: construction, composition, rotation."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digitq.digits import (DigitString, _dtype_for_base, champernowne, degree_of_normality,
                           phi_shift)
from digitq.errors import DegenerateStatistic, LengthNotDivisible
from digitq.phase import (BlockOperator, PAdicRational, apply, chi, compose,
                          extend_to, identity_operator, lag_correlation,
                          omega_root, operator_pow, phase_rotate,
                          rotation_operator, _odometer, _pearson_lag1,
                          _rotated_prefix, _rotated_rows, _rotated_sources)


def rand_string(base, length, seed=0):
    rng = np.random.default_rng(seed)
    return DigitString(base, rng.integers(0, base, length))


class TestPAdicRational:
    def test_reduction_to_lowest_form(self):
        q = PAdicRational(2, 4, 3)
        assert (q.numerator, q.depth) == (1, 1)
        assert PAdicRational(3, 9, 2).fraction == 1

    def test_zero(self):
        assert PAdicRational(2, 0, 5).depth == 0

    def test_from_fraction(self):
        q = PAdicRational.from_fraction(Fraction(3, 8), 2)
        assert (q.numerator, q.depth) == (3, 3)
        with pytest.raises(ValueError):
            PAdicRational.from_fraction(Fraction(1, 6), 2)

    def test_from_fraction_mod1(self):
        q = PAdicRational.from_fraction(Fraction(9, 8), 2)
        assert q.fraction == Fraction(1, 8)

    def test_mod1(self):
        assert PAdicRational(2, 11, 3).mod1() == PAdicRational(2, 3, 3)
        # an integer at depth 0 is 0 mod 1, with no branch for depth 0
        for p in (2, 3, 5):
            assert PAdicRational(p, 7, 0).mod1() == PAdicRational(p, 0, 0)

    def test_multiplication(self):
        q = PAdicRational(2, 1, 3) * 4
        assert (q.numerator, q.depth) == (1, 1)


class TestChi:
    def test_chi0_is_complement(self):
        s = DigitString(2, [0])
        assert apply(chi(0), s).digits.tolist() == [1]

    def test_chi3_printed_tuple(self):
        # (a1..a8) -> (phi(a8), a7, a5, a6, a1, a2, a3, a4)
        op = chi(3)
        assert op.perm.tolist() == [7, 6, 4, 5, 0, 1, 2, 3]
        assert op.shift.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_chi3_on_bits(self):
        s = DigitString(2, [0, 1, 0, 0, 1, 1, 0, 1])
        assert apply(chi(3), s).digits.tolist() == [0, 0, 1, 1, 0, 1, 0, 0]

    def test_chi3_golden_file(self):
        golden = json.loads((Path(__file__).parent / "data" / "chi3.json").read_text())
        assert chi(3).to_json_obj() == golden
        assert BlockOperator.from_json_obj(golden) == chi(3)


class TestOmegaRoot:
    def test_base3_depth1(self):
        # (a1,a2,a3) -> (phi(a3), a1, a2)
        s = DigitString(3, [0, 1, 2])
        assert apply(omega_root(3, 1), s).digits.tolist() == [0, 0, 1]

    def test_base3_depth2(self):
        # (a1..a9) -> (phi(a9), a7, a8, a1..a6)
        s = DigitString(3, list(range(3)) * 3)
        assert apply(omega_root(3, 2), s).digits.tolist() == \
            [0, 0, 1, 0, 1, 2, 0, 1, 2]

    def test_base2_depth1_matches_i(self):
        s = DigitString(2, [0, 1])
        assert apply(omega_root(2, 1), s).digits.tolist() == [0, 0]

    @pytest.mark.parametrize("n", range(0, 9))
    def test_base2_equals_chi(self, n):
        assert omega_root(2, n) == chi(n)


class TestGroupLaws:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_square_law_base2(self, n):
        s = rand_string(2, 1 << 10, seed=n)
        lhs = apply(operator_pow(omega_root(2, n), 2), s)
        rhs = apply(extend_to(omega_root(2, n - 1), 1 << n), s)
        assert lhs == rhs

    def test_i_squared_is_complement(self):
        s = rand_string(2, 512, seed=1)
        assert apply(operator_pow(omega_root(2, 1), 2), s) == phi_shift(s, 1)

    def test_i_fourth_is_identity(self):
        s = rand_string(2, 512, seed=2)
        assert apply(operator_pow(omega_root(2, 1), 4), s) == s

    def test_omega3_cubed_identity(self):
        assert operator_pow(omega_root(3, 0), 3).is_identity()

    def test_omega3_root_cubed_is_omega3(self):
        cubed = operator_pow(omega_root(3, 1), 3)
        # elementwise increment on the 3-block
        assert cubed.perm.tolist() == [0, 1, 2]
        assert cubed.shift.tolist() == [1, 1, 1]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_cube_law_base3(self, n):
        s = rand_string(3, 3 ** 6, seed=n)
        lhs = apply(operator_pow(omega_root(3, n), 3), s)
        rhs = apply(extend_to(omega_root(3, n - 1), 3 ** n), s)
        assert lhs == rhs

    @given(st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_power_additivity(self, a, b):
        op = omega_root(2, 3)
        s = rand_string(2, 256, seed=a * 31 + b)
        lhs = apply(operator_pow(op, a + b), s)
        rhs = apply(operator_pow(op, a), apply(operator_pow(op, b), s))
        assert lhs == rhs

    @given(st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_pow_matches_naive_composition(self, m):
        op = omega_root(2, 3)
        naive = identity_operator(2, op.size)
        for _ in range(m):
            naive = compose(naive, op)
        assert operator_pow(op, m) == naive

    def test_huge_exponent_needs_no_order(self, monkeypatch):
        # repeated squaring takes log2(m) compositions; no cycle is walked
        def refuse(self):
            raise AssertionError("order() called")

        monkeypatch.setattr(BlockOperator, "order", refuse)
        assert operator_pow(omega_root(2, 3), 10 ** 18 + 5) == operator_pow(omega_root(2, 3), 5)

    def test_order(self):
        assert omega_root(2, 0).order() == 2
        assert omega_root(2, 1).order() == 4
        assert omega_root(2, 3).order() == 16
        assert omega_root(3, 1).order() == 9
        assert identity_operator(5, 4).order() == 1


class TestApply:
    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            apply(omega_root(2, 1), DigitString(3, [0, 1, 2]))

    def test_length_not_divisible(self):
        with pytest.raises(LengthNotDivisible):
            apply(omega_root(2, 3), DigitString(2, [0, 1, 1]))

    def test_identity(self):
        s = rand_string(2, 64, seed=3)
        assert apply(identity_operator(2, 8), s) == s

    def test_counts_preserved_up_to_complement(self):
        s = champernowne(2, 1 << 14)
        rho0 = degree_of_normality(s)
        for q in (PAdicRational(2, 1, 6), PAdicRational(2, 3, 8)):
            r = phase_rotate(s, q)
            rho = degree_of_normality(r)
            assert rho.sum() == pytest.approx(1.0)
            assert abs(rho - 0.5).max() <= abs(rho0 - 0.5).max() + 0.01

    def test_complement_swaps_counts_exactly(self):
        s = champernowne(2, 1 << 10)
        r = phase_rotate(s, PAdicRational(2, 1, 1))
        assert (r.digits == 0).sum() == (s.digits == 1).sum()


class TestPhaseRotate:
    def test_identity_at_zero(self):
        s = champernowne(2, 256)
        assert phase_rotate(s, PAdicRational(2, 0, 0)) == s

    def test_half_turn_is_complement(self):
        s = champernowne(2, 256)
        r = phase_rotate(s, PAdicRational(2, 1, 1))
        assert r == phi_shift(s, 1)
        assert r.value() + s.value() == 1 - Fraction(1, 2 ** 256)

    def test_quarter_turn_is_depth1(self):
        s = champernowne(2, 256)
        assert phase_rotate(s, PAdicRational(2, 1, 2)) == apply(omega_root(2, 1), s)

    def test_antipodal_value_ordering(self):
        # v < 1/2 iff the half-turn image has value >= 1/2
        s = rand_string(2, 64, seed=9)
        r = phase_rotate(s, PAdicRational(2, 1, 1))
        assert (s.value() < Fraction(1, 2)) == (r.value() >= Fraction(1, 2))

    @pytest.mark.parametrize("p,n", [(2, n) for n in range(1, 8)]
                             + [(3, n) for n in range(1, 6)]
                             + [(5, n) for n in range(1, 4)])
    def test_closed_form_matches_operator_pow(self, p, n):
        # the odometer formula against repeated squaring of the root, for
        # every numerator up to p^n + 2 (PAdicRational reduces m/p^n, so
        # the rotation is tiled up to the root's block before comparing)
        root = omega_root(p, n - 1)
        for m in range(p ** n + 3):
            op = extend_to(rotation_operator(PAdicRational(p, m, n)), root.size)
            assert op == operator_pow(root, m), m

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_depth0_rotation_operator_is_the_size1_identity(self, p):
        assert rotation_operator(PAdicRational(p, 0, 0)) == identity_operator(p, 1)
        assert rotation_operator(PAdicRational(p, 7, 0)) == identity_operator(p, 1)

    def test_exponent_reduced_mod_order(self):
        s = champernowne(2, 256)
        assert phase_rotate(s, PAdicRational(2, 5, 2)) == \
            phase_rotate(s, PAdicRational(2, 1, 2))

    def test_base3_rotation(self):
        s = champernowne(3, 3 ** 5)
        full = phase_rotate(s, PAdicRational(3, 1, 0))  # whole turn
        assert full == s
        third = phase_rotate(s, PAdicRational(3, 1, 1))  # 1/3 turn
        assert third == phi_shift(s, 1)

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            phase_rotate(champernowne(2, 64), PAdicRational(3, 1, 1))


class TestRotatedRows:
    """The odometer gather and every rotation built on it, pinned to powers
    of the recursive root tower rather than to the odometer formula."""

    @staticmethod
    def tower(s, p, n, m):
        # rotation by m/p^n is omega_root(p, n-1)**m; an integral turn is the identity
        return s if n == 0 else apply(operator_pow(omega_root(p, n - 1), m), s)

    @staticmethod
    def numerators(p, n):
        # small ones, multiples of p, and numerators at and beyond p^n
        size = p ** n
        return sorted({0, 1, 2, p, p * p, 3 * p, size - 1, size, size + 1,
                       size + p, 2 * size + 3, 7 * size + p * p})

    @staticmethod
    def string(p, n, blocks=3):
        # a whole number of blocks, and of p^3 places when blocks are shorter
        return rand_string(p, blocks * p ** max(n - 1, 3), seed=10 * p + n)

    @pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in range(7)])
    def test_every_place_matches_the_tower(self, p, n):
        s = self.string(p, n)
        places = np.arange(len(s))
        for m in self.numerators(p, n):
            want = self.tower(s, p, n, m)
            assert np.array_equal(_rotated_rows(s.digits, p, n, m, places), want.digits), m
            assert phase_rotate(s, PAdicRational(p, m, n)) == want, m

    @pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (3, 0)])
    def test_scattered_places_across_blocks(self, p, n):
        s = self.string(p, n, blocks=5)
        places = np.sort(np.random.default_rng(n).choice(len(s), 40, replace=False))
        assert np.unique(places // p ** max(n - 1, 0)).size > 3
        for m in self.numerators(p, n):
            got = _rotated_rows(s.digits, p, n, m, places)
            assert np.array_equal(got, self.tower(s, p, n, m).digits[places]), m

    @pytest.mark.parametrize("p,n", [(2, 0), (2, 5), (3, 3), (5, 2)])
    def test_numerator_column_gives_one_row_each(self, p, n):
        s = self.string(p, n)
        places = np.arange(len(s))
        ms = np.array(self.numerators(p, n))
        rows = _rotated_rows(s.digits, p, n, ms[:, None], places)
        assert rows.shape == (ms.size, len(s))
        for m, row in zip(ms, rows):
            assert np.array_equal(row, _rotated_rows(s.digits, p, n, int(m), places))

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 6), (3, 4), (5, 3)])
    def test_prefix_rounds_up_to_whole_blocks(self, p, n):
        # a prefix of k digits rotates its whole blocks, the first
        # floor(k/B)*B digits of the whole string's rotation: k a block
        # multiple or not, and the whole string
        s = self.string(p, n)
        for m in self.numerators(p, n):
            q = PAdicRational(p, m, n)
            block = p ** max(q.depth - 1, 0)
            want = self.tower(s, p, n, m).digits
            for k in {block, block + 1, 2 * block - 1, 2 * block, len(s) - 1, len(s)}:
                got = _rotated_prefix(s.digits[:k], q)
                assert np.array_equal(got, want[:k - k % block]), (m, k)

    def test_prefix_below_one_block_is_refused(self):
        with pytest.raises(LengthNotDivisible):
            _rotated_prefix(champernowne(2, 64).digits[:31], PAdicRational(2, 1, 6))

    def test_rotation_off_the_block_is_refused(self):
        with pytest.raises(LengthNotDivisible):
            phase_rotate(champernowne(3, 30), PAdicRational(3, 1, 3))
        with pytest.raises(LengthNotDivisible):
            phase_rotate(champernowne(2, 96), PAdicRational(2, 3, 7))


class TestOdometer:
    """The odometer and its block-offset wrapper called directly at the
    batch shapes, a column of exponents against a matrix of places,
    pinned element by element to powers of the recursive root tower."""

    @staticmethod
    def exponents(p, n):
        # 0, the wrap at p^n, and exponents at and past p^(n+1), where the
        # shift reads hi mod p rather than hi
        size = p ** n
        return np.array(sorted({0, 1, p, size - 1, size, size + 1, 2 * size + 3,
                                p * size - 1, p * size, p * size + 1,
                                (p + 1) * size + p, p * p * size + 2}))

    @pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in (0, 1, 3)]
                             + [(2, 5)])
    def test_every_element_matches_the_tower(self, p, n):
        ms = self.exponents(p, n)
        places = np.random.default_rng(10 * p + n).integers(0, p ** n, (ms.size, 40))
        src, shift = _odometer(p, n, ms[:, None], places)
        assert src.shape == shift.shape == places.shape
        assert src.dtype == np.int32 and shift.dtype == _dtype_for_base(p)
        root = omega_root(p, n)
        for m, row, s, h in zip(ms, places, src, shift):
            op = operator_pow(root, int(m))
            assert np.array_equal(s, op.perm[row]), m
            assert np.array_equal(h, op.shift[row]), m
            # a scalar exponent with no places gives the whole block
            s1, h1 = _odometer(p, n, int(m))
            assert np.array_equal(s1, op.perm) and np.array_equal(h1, op.shift), m

    @pytest.mark.parametrize("p,n,m", [(2, 1, 1), (2, 4, 3), (2, 7, 77), (3, 2, 5),
                                       (3, 4, 40), (5, 3, 17)])
    def test_rotation_operator_hashes_as_the_tower(self, p, n, m):
        # __hash__ reads the bytes of perm and shift: an int32 or uint8 leak
        # into BlockOperator would split equal operators across hashes
        op = rotation_operator(PAdicRational(p, m, n))
        want = operator_pow(omega_root(p, n - 1), m)
        assert op.perm.dtype == op.shift.dtype == np.int64
        assert op == want and hash(op) == hash(want)

    @pytest.mark.parametrize("p,depth", [(2, 1), (2, 6), (3, 0), (3, 4), (5, 3)])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_rotated_sources_across_blocks(self, p, depth, dtype):
        # a place matrix over five blocks, as rank[idx1] in the trace batch
        block = p ** max(depth - 1, 0)
        nums = np.array(sorted({0, 1, p, p ** depth - 1, p ** depth + 1, 3 * p ** depth + 2}))
        rng = np.random.default_rng(p + depth)
        places = np.sort(rng.integers(0, 5 * block, (nums.size, 30)), axis=1).astype(dtype)
        assert np.unique(places // block).size > 3 or block == 1
        src, shift = _rotated_sources(p, depth, nums[:, None], places)
        root = omega_root(p, max(depth - 1, 0))
        for m, row, s, h in zip(nums, places, src, shift):
            s1, h1 = _rotated_sources(p, depth, int(m), row)
            assert np.array_equal(s, s1) and np.array_equal(h, h1), m
            op = extend_to(operator_pow(root, int(m)) if depth else identity_operator(p),
                           5 * block)
            assert np.array_equal(s, op.perm[row]), m
            assert np.array_equal(h, op.shift[row]), m


class TestLagCorrelation:
    def test_constant_sequence_raises(self):
        s = champernowne(2, 1 << 12)
        with pytest.raises(DegenerateStatistic):
            lag_correlation(s, PAdicRational(2, 0, 0), 16)

    def test_alternating_anchor(self):
        assert _pearson_lag1(np.array([0.0, 1.0] * 32)) == pytest.approx(-1.0)

    def test_small_step_is_white(self):
        s = champernowne(2, 1 << 14)
        corr = lag_correlation(s, PAdicRational(2, 1, 10), 512)
        assert abs(corr) < 0.1

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            lag_correlation(champernowne(2, 64), PAdicRational(2, 1, 2), 2)


class TestRotationOperatorCoverage:
    def test_rotated_digit_frequencies_stay_close(self):
        s = champernowne(2, 1 << 14)
        r = apply(rotation_operator(PAdicRational(2, 7, 9)), s)
        rho = degree_of_normality(r)
        assert abs(rho - 0.5).max() < 0.04
