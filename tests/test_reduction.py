"""Reduction: thresholds, partial reduction, R operators, drift dynamics."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digitq.digits import DigitString, champernowne, value
from digitq.errors import EmptyResult, NonConvergence, SuffixTooShort, Tie
from digitq.phase import PAdicRational, phase_rotate
from digitq.reduction import (BinaryThreshold, _reduced_value, _window_u64,
                              biased_quantile_threshold, evolve_ode,
                              partial_reduce, project, reduce_Rj,
                              reduce_compound, weak_reduction_walk)


def brute_partial_reduce(s, t_frac, lo=0, hi=1):
    """Independent oracle: exact Fraction comparison of every suffix
    against the threshold value."""
    digs = s.digits.tolist()
    L = len(digs)
    out = []
    for j in range(L):
        suffix = Fraction(0)
        for k, d in enumerate(digs[j:]):
            suffix += Fraction(1 if d == hi else 0, 2 ** (k + 1))
        if digs[j] == hi:
            keep = suffix >= t_frac
        else:
            keep = suffix < t_frac
        if keep:
            out.append(digs[j])
    return out


_POW32_HI = 2.0 ** np.arange(31, -1, -1)


def float_window_u64(bits, length):
    """Independent oracle for the packed window kernel: the two 32-digit
    halves of each window as float64 dot products, exact below 2^32."""
    win = np.lib.stride_tricks.sliding_window_view(bits, 32)
    hi = win[:length].astype(np.float64) @ _POW32_HI
    lo = win[32:32 + length].astype(np.float64) @ _POW32_HI
    return (hi.astype(np.uint64) << np.uint64(32)) | lo.astype(np.uint64)


def zero_padded(bits, extra=64):
    out = np.zeros(bits.size + extra, dtype=np.uint8)
    out[:bits.size] = bits
    return out


class TestWindowKernel:
    @pytest.mark.parametrize("length", [1, 7, 8, 63, 64, 65, 100, 1000, 8192, 12345])
    def test_matches_float_oracle_on_random_strings(self, length):
        rng = np.random.default_rng(length)
        bits = rng.integers(0, 2, length, dtype=np.uint8)
        # padding past the 64 required entries must not change a window
        for extra in (64, 65, 71, 200):
            padded = zero_padded(bits, extra)
            expected = float_window_u64(padded, length)
            assert np.array_equal(_window_u64(padded, length), expected)
            assert np.array_equal(_window_u64(padded.astype(bool), length), expected)

    def test_all_ones_reaches_the_maximum_window(self):
        length = 777
        padded = zero_padded(np.ones(length, dtype=np.uint8))
        w = _window_u64(padded, length)
        assert np.array_equal(w, float_window_u64(padded, length))
        assert int(w[0]) == (1 << 64) - 1
        assert int(w[length - 64]) == (1 << 64) - 1
        assert int(w[-1]) == 1 << 63

    def test_champernowne_prefix(self):
        bits = champernowne(2, 1 << 18).digits
        padded = zero_padded(bits)
        expected = float_window_u64(padded, bits.size)
        assert np.array_equal(_window_u64(padded, bits.size), expected)
        assert np.array_equal(_window_u64(padded.astype(bool), bits.size), expected)

    def test_dtype_and_shape(self):
        padded = zero_padded(np.array([1, 0, 1], dtype=np.uint8))
        w = _window_u64(padded, 3)
        assert w.dtype == np.uint64 and w.shape == (3,)
        assert w.tolist() == [5 << 61, 1 << 62, 1 << 63]


class TestBinaryThreshold:
    def test_half_is_exact(self):
        t = BinaryThreshold.from_angle(Fraction(1, 2))
        assert t.value == Fraction(1, 2)
        assert not t.is_one

    def test_zero_and_one(self):
        assert BinaryThreshold.from_angle(Fraction(0)).is_one
        assert BinaryThreshold.from_angle(Fraction(1)).t_int == 0
        # float pi is close enough to truncate to zero as well
        assert BinaryThreshold.from_angle(math.pi).t_int == 0

    def test_accuracy_invariant(self):
        import mpmath as mp
        for th in (0.3, 1.1, 2.7, math.pi / 3):
            t = BinaryThreshold.from_angle(th)
            with mp.workprec(160):
                exact = mp.cos(mp.mpf(th) / 2) ** 2
                err = abs(mp.mpf(t.value.numerator) / t.value.denominator - exact)
                assert err < mp.mpf(2) ** -64

    def test_digit_string_view(self):
        t = BinaryThreshold.from_angle(Fraction(1, 2))
        d = t.digit_string
        assert d.digits[0] == 1 and d.digits[1:].sum() == 0
        assert t.digit(1) == 1 and t.digit(2) == 0 and t.digit(100) == 0

    def test_min_precision(self):
        # 32 to 64 bits: the threshold must fit the 64-digit window
        for bits in (16, 65, 80):
            with pytest.raises(ValueError):
                BinaryThreshold(0, bits=bits)
        with pytest.raises(ValueError):
            BinaryThreshold.from_angle(Fraction(1, 3), bits=80)


class TestBiasedQuantileThreshold:
    def test_balanced_degenerates_to_plain(self):
        for th in (Fraction(1, 3), Fraction(2, 3), 0.71):
            a = biased_quantile_threshold(th, Fraction(1, 2))
            b = BinaryThreshold.from_angle(th)
            assert a.t_int == b.t_int

    def test_neutral_point(self):
        # at cos^2(theta/2) = w the quantile sits at 1/2 (identity); with
        # the float angle the approach is Holder-continuous, so allow a
        # sub-nano neighborhood
        theta_star = 2 * math.acos(1 / math.sqrt(3))
        t = biased_quantile_threshold(theta_star, Fraction(1, 3))
        assert abs(float(t.value) - 0.5) < 1e-9

    def test_endpoints(self):
        assert biased_quantile_threshold(Fraction(0), Fraction(1, 3)).is_one
        assert biased_quantile_threshold(Fraction(1), Fraction(1, 3)).t_int == 0

    def test_monotone_in_theta(self):
        w = Fraction(1, 3)
        ts = [biased_quantile_threshold(th, w).t_int
              for th in (0.4, 0.9, 1.4, 1.9, 2.4)]
        assert ts == sorted(ts, reverse=True)

    def test_realizes_nominal_level_under_biased_law(self):
        # measure of [0, t') under the iid(w) law equals cos^2(theta/2)
        w = 1 / 3
        rng = np.random.default_rng(5)
        bits = rng.random((20000, 64)) >= w  # P(digit=1) = 1-w
        pows = 0.5 ** np.arange(1, 65)
        vals = bits @ pows
        for th in (0.8, 1.6, 2.2):
            t = biased_quantile_threshold(th, Fraction(1, 3))
            freq = float(np.mean(vals < float(t.value)))
            assert freq == pytest.approx(math.cos(th / 2) ** 2, abs=0.02)


class TestProject:
    def test_base3_champernowne(self):
        out, log = project(champernowne(3, 9), 0)
        assert out.digits.tolist() == [1, 2, 1, 1, 1, 1, 2]

    def test_absent_digit(self):
        s = DigitString(3, [1, 2, 1])
        out, log = project(s, 0)
        assert out == s

    def test_sequential_projection_to_constant(self):
        s = champernowne(3, 9)
        out, _ = project(s, 1)
        out, _ = project(out, 2)
        assert out.is_constant() and out.leading_digit == 0

    def test_constant_raises(self):
        with pytest.raises(EmptyResult):
            project(DigitString.constant(3, 1, 5), 1)


class TestPartialReduce:
    def test_halfway_is_identity(self):
        s = phase_rotate(champernowne(2, 1 << 12), PAdicRational(2, 3, 5))
        out, log = partial_reduce(s, Fraction(1, 2))
        assert out == s and log.deleted_positions.size == 0

    def test_theta_zero_keeps_only_lo(self):
        s = champernowne(2, 256)
        out, _ = partial_reduce(s, Fraction(0))
        assert out.is_constant() and out.leading_digit == 0
        assert len(out) == int((s.digits == 0).sum())

    def test_theta_pi_keeps_only_hi(self):
        s = champernowne(2, 256)
        out, _ = partial_reduce(s, Fraction(1))
        assert out.is_constant() and out.leading_digit == 1
        assert len(out) == int((s.digits == 1).sum())

    def test_tie_sides_with_ge(self):
        # suffix exactly equal to the threshold keeps a hi digit
        s = DigitString(2, [1] + [0] * 31)
        out, _ = partial_reduce(s, Fraction(1, 2))
        assert out == s

    def test_guard_on_short_input(self):
        with pytest.raises(SuffixTooShort):
            partial_reduce(DigitString(2, [0, 1] * 7), Fraction(1, 3))

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            partial_reduce(DigitString(3, [0, 1, 2] * 8), Fraction(1, 3))

    @given(st.integers(0, 2 ** 28 - 1), st.floats(0.05, 3.09))
    @settings(max_examples=60, deadline=None)
    def test_against_brute_force_oracle(self, bits, theta):
        digs = [(bits >> k) & 1 for k in range(28)]
        s = DigitString(2, digs)
        thr = BinaryThreshold.from_angle(theta)
        expected = brute_partial_reduce(s, thr.value)
        if not expected:
            with pytest.raises(EmptyResult):
                partial_reduce(s, thr)
        else:
            out, _ = partial_reduce(s, thr)
            assert out.digits.tolist() == expected

    def test_nonstandard_alphabet(self):
        s = DigitString(3, [1, 2, 2, 1, 1, 2, 1, 2, 2, 1, 1, 1, 2, 2, 1, 2])
        out12, _ = partial_reduce(s, 1.1, lo=1, hi=2)
        mapped = DigitString(2, s.digits - 1)
        out01, _ = partial_reduce(mapped, 1.1)
        assert (out12.digits - 1).tolist() == out01.digits.tolist()

    def test_first_survivor_lemma(self):
        # leading surviving digit is lo exactly when value(s) < threshold
        rng = np.random.default_rng(11)
        for _ in range(200):
            s = DigitString(2, rng.integers(0, 2, 48))
            thr = BinaryThreshold.from_angle(float(rng.uniform(0.3, 2.8)))
            try:
                out, _ = partial_reduce(s, thr)
            except EmptyResult:
                continue
            assert (out.leading_digit == 0) == (value(s) < thr.value)

    def test_survivor_fraction_law(self):
        # the deletion rule yields lo-fraction 1/(3-2t) for t >= 1/2 and
        # 2t/(2t+1) for t <= 1/2, equal to t only at t in {0, 1/2, 1}
        s = phase_rotate(champernowne(2, 1 << 16), PAdicRational(2, 5, 7))
        for theta, t in ((Fraction(1, 3), 0.75), (Fraction(2, 3), 0.25)):
            out, _ = partial_reduce(s, theta)
            lo_frac = float((out.digits == 0).mean())
            expected = 1 / (3 - 2 * t) if t >= 0.5 else 2 * t / (2 * t + 1)
            # iid-model prediction; the seed's residual digit bias adds a
            # couple of points, far from the nominal t itself
            assert lo_frac == pytest.approx(expected, abs=0.03)
            assert abs(lo_frac - t) > 0.05
        # anchors where the nominal cos^2(theta/2) value is attained
        for theta, frac in ((Fraction(0), 1.0), (Fraction(1, 2), 0.5),
                            (Fraction(1), 0.0)):
            out, _ = partial_reduce(s, theta)
            assert float((out.digits == 0).mean()) == pytest.approx(frac, abs=0.02)


class TestReductionOperators:
    def test_R1_reduces_on_leading_one(self):
        s = DigitString(2, [1, 0, 1, 1])
        out = reduce_Rj(s, 1)
        assert out.final_state.is_constant() and out.attractor_index == 1

    def test_R1_null_on_leading_zero(self):
        s = DigitString(2, [0, 1, 1])
        out = reduce_Rj(s, 1)
        assert out.final_state == s and out.attractor_index is None

    def test_fixed_point(self):
        s = DigitString.constant(2, 1, 8)
        out = reduce_Rj(s, 1)
        assert out.final_state == s and out.attractor_index == 1

    def test_idempotent_and_commuting(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = DigitString(3, rng.integers(0, 3, 12))
            for j in range(3):
                once = reduce_Rj(s, j).final_state
                twice = reduce_Rj(once, j).final_state
                assert once == twice
            for j in range(3):
                for k in range(3):
                    if j == k:
                        continue
                    jk = reduce_Rj(reduce_Rj(s, j).final_state, k).final_state
                    kj = reduce_Rj(reduce_Rj(s, k).final_state, j).final_state
                    assert jk == kj

    def test_compound(self):
        s = DigitString(3, [2, 0, 1, 1])
        out = reduce_compound(s)
        assert out.attractor_index == 2 and out.final_state.is_constant()

    def test_compound_interval_rule(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            base = int(rng.integers(2, 5))
            s = DigitString(base, rng.integers(0, base, 10))
            j = reduce_compound(s).attractor_index
            assert Fraction(j, base) <= value(s) < Fraction(j + 1, base)

    def test_base2_attractor_is_half_line(self):
        assert reduce_compound(DigitString(2, [1, 0, 0, 0])).attractor_index == 1
        assert reduce_compound(DigitString(2, [0, 1, 1, 1])).attractor_index == 0


class TestProbabilityLemma:
    def test_exhaustive_grid_frequency(self):
        # P[value(reduced) < 1/2] over the whole depth-10 grid is within
        # 3*sqrt(p(1-p)/2^K) of cos^2(theta/2)
        seed = champernowne(2, 1 << 16)
        K = 10
        theta = Fraction(1, 3)
        p = math.cos(math.pi / 6) ** 2
        thr = BinaryThreshold.from_angle(theta)
        hits = 0
        for j in range(1 << K):
            s = phase_rotate(seed, PAdicRational(2, j, K))
            hits += value(s.prefix(80)) < thr.value
        freq = hits / (1 << K)
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / (1 << K))


class TestEvolveODE:
    def test_monotone_descent_to_south(self):
        r0 = champernowne(2, 1 << 14)
        lam = PAdicRational(2, 3, 4)
        res = evolve_ode(2.0, lam, r0, alpha=0.8, dt=0.25, max_steps=4000)
        thetas = [t for t, _ in res.trajectory]
        rs = [r for _, r in res.trajectory]
        if rs[0] >= 0.5:
            assert res.outcome.attractor_index == 1
            assert all(b >= a - 1e-12 for a, b in zip(thetas, thetas[1:]))
        else:
            assert res.outcome.attractor_index == 0
            assert all(b <= a + 1e-12 for a, b in zip(thetas, thetas[1:]))
        assert all((r >= 0.5) == (rs[0] >= 0.5) for r in rs)

    def test_alpha_doubling_halves_steps(self):
        r0 = champernowne(2, 1 << 14)
        lam = PAdicRational(2, 5, 6)
        slow = evolve_ode(1.2, lam, r0, alpha=0.4, dt=0.1, max_steps=20000)
        fast = evolve_ode(1.2, lam, r0, alpha=0.8, dt=0.1, max_steps=20000)
        ratio = slow.outcome.steps / fast.outcome.steps
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_nonconvergence(self):
        r0 = champernowne(2, 1 << 14)
        with pytest.raises(NonConvergence):
            evolve_ode(1.5, PAdicRational(2, 1, 3), r0, alpha=1e-6, dt=1e-3,
                       max_steps=10)

    def test_tie_detection(self):
        # a state whose reduced value is exactly 1/2 at theta = pi/2
        r0 = DigitString(2, [1] + [0] * 63)
        with pytest.raises(Tie):
            _reduced_value(r0, BinaryThreshold.from_angle(Fraction(1, 2)))

    def test_rejects_poles(self):
        r0 = champernowne(2, 1 << 12)
        with pytest.raises(ValueError):
            evolve_ode(0.0, PAdicRational(2, 1, 3), r0, 1.0, 0.1, 10)


class TestWeakReductionWalk:
    def test_same_seed_same_trajectory(self):
        r0 = champernowne(2, 1 << 16)
        lam = PAdicRational(2, 3, 8)
        a = weak_reduction_walk(1.2, lam, r0, jitter_depth=8, dt=1.0,
                                alpha=64.0, seed=42)
        b = weak_reduction_walk(1.2, lam, r0, jitter_depth=8, dt=1.0,
                                alpha=64.0, seed=42)
        assert a.trajectory == b.trajectory
        assert a.outcome.attractor_index == b.outcome.attractor_index

    def test_no_jitter_matches_ode_direction(self):
        r0 = champernowne(2, 1 << 16)
        lam = PAdicRational(2, 5, 8)
        walk = weak_reduction_walk(1.9, lam, r0, jitter_depth=0, dt=0.25,
                                   alpha=0.8, seed=7, max_steps=8000)
        ode = evolve_ode(1.9, lam, r0, alpha=0.8, dt=0.25, max_steps=8000)
        assert walk.outcome.attractor_index == ode.outcome.attractor_index
        assert walk.outcome.steps == ode.outcome.steps

    def test_trajectory_recorded(self):
        r0 = champernowne(2, 1 << 16)
        res = weak_reduction_walk(1.5, PAdicRational(2, 0, 0), r0,
                                  jitter_depth=10, dt=1.0, alpha=512.0, seed=3)
        assert res.thetas[0] == pytest.approx(1.5)
        assert len(res.trajectory) == res.outcome.steps + 1

    def test_trajectory_csv(self):
        from digitq.reduction import trajectory_csv
        r0 = champernowne(2, 1 << 14)
        lam = PAdicRational(2, 3, 4)
        ode = evolve_ode(2.0, lam, r0, alpha=0.8, dt=0.25, max_steps=4000)
        text = trajectory_csv(ode)
        lines = text.strip().splitlines()
        assert lines[0] == "step,theta,r_value,lambda_numerator,lambda_depth"
        assert len(lines) == len(ode.trajectory) + 1
        assert lines[1].split(",")[3:] == ["3", "4"]
        walk = weak_reduction_walk(1.5, lam, r0, jitter_depth=6, dt=1.0,
                                   alpha=512.0, seed=11)
        wtext = trajectory_csv(walk)
        assert wtext.splitlines()[0] == lines[0]
        assert len(wtext.strip().splitlines()) == len(walk.trajectory) + 1
