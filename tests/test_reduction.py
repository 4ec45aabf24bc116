"""Reduction: thresholds, partial reduction, R operators, drift dynamics."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digitq.digits import DigitString, champernowne, value
from digitq.errors import (EmptyResult, LengthNotDivisible, NonConvergence,
                           SuffixTooShort, Tie)
from digitq import reduction
from digitq.phase import PAdicRational, apply, phase_rotate, rotation_operator
from digitq.states import qutrit_thresholds
from digitq.reduction import (THRESHOLD_BITS, BinaryThreshold, _decided_places,
                              _deletion_mask, _reduced_prefix, _reduced_values,
                              _window_u64, biased_quantile_threshold,
                              partial_reduce, project, reduce_Rj,
                              reduce_compound, weak_reduction_walk)


def _refuse_partial_reduce(*args):
    raise AssertionError("partial_reduce called")


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


def random_threshold(rng):
    """A threshold anywhere, or within 2^-56 of 0 or of 1."""
    return BinaryThreshold(int(rng.choice([int(rng.integers(0, 1 << 62)) << 2,
                                           int(rng.integers(0, 1 << 8)),
                                           (1 << 64) - int(rng.integers(0, 1 << 8))])))


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

    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    def test_row_form_reads_each_row_as_its_own_string(self, dtype):
        n = 150
        rows = np.random.default_rng(7).integers(0, 2, (6, n)).astype(dtype)
        for length in (1, 7, 8, 9, 63, 64, 65, n):
            w = _window_u64(rows, length)
            assert w.dtype == np.uint64 and w.shape == (6, length)
            for row, bits in zip(w, rows):
                assert np.array_equal(row, _window_u64(bits, length))
                assert np.array_equal(row, float_window_u64(zero_padded(bits), length))

    @pytest.mark.parametrize("t", [0, 1, 1 << 63, 0x9E3779B97F4A7C15, 1 << 64])
    def test_row_form_of_the_suffix_comparison(self, t):
        # _suffix_ge_mask and _deletion_mask read each row as its own string
        thr = BinaryThreshold(t)
        rows = np.random.default_rng(11).integers(0, 2, (5, 130)).astype(bool)
        ge = reduction._suffix_ge_mask(rows, thr)
        dele = reduction._deletion_mask(rows, thr)
        assert ge.shape == dele.shape == rows.shape
        for bits, row_ge, row_del in zip(rows, ge, dele):
            assert np.array_equal(row_ge, reduction._suffix_ge_mask(bits, thr))
            assert np.array_equal(row_del, reduction._deletion_mask(bits, thr))

    def test_empty_input_reads_a_zero_window(self):
        # the trace-rule harness reads place 0 of a stage-1 string that may be empty
        for dtype in (bool, np.uint8):
            w = _window_u64(np.zeros(0, dtype=dtype), 1)
            assert w.dtype == np.uint64 and w.tolist() == [0]


def one_shot_ge(bits, thr):
    """The suffix comparison as one window read of the whole last axis."""
    return thr.at_or_below(_window_u64(bits, bits.shape[-1]))


def mask_thresholds(rng, windows):
    """0, 1/2, exact one, two random thresholds, and the window at the last
    place of the first chunk: a chunk read that stops one digit short of
    its last window's reach reads that window one below itself."""
    thrs = [BinaryThreshold(0), BinaryThreshold(1 << 63), BinaryThreshold(1 << 64),
            random_threshold(rng), random_threshold(rng)]
    seam = reduction._READ_PLACES - 1
    if windows.shape[-1] > seam:
        thrs += [BinaryThreshold(int(t)) for t in np.unique(windows[..., seam])]
    return thrs


class TestChunkedSuffixMask:
    """_suffix_ge_mask on rows around and past _READ_PLACES, the budget of
    a read in parts, and with that budget set small, which must not change
    a mask; pinned to the one-shot read and, on short strings, to exact
    Fractions."""

    CHUNK = reduction._READ_PLACES

    @pytest.mark.parametrize("extra", [-1, 0, 1, 63, 64, 65, CHUNK + 5])
    def test_one_row_matches_the_one_shot_read(self, extra):
        n = self.CHUNK + extra
        rng = np.random.default_rng(n)
        for bits in (rng.integers(0, 2, n).astype(bool), np.ones(n, dtype=bool)):
            w = _window_u64(bits, n)
            for thr in mask_thresholds(rng, w):
                got = reduction._suffix_ge_mask(bits, thr)
                assert got.shape == bits.shape and got.dtype == bool
                assert np.array_equal(got, thr.at_or_below(w))

    @pytest.mark.parametrize("extra", [1, 63, 64, 65, CHUNK + 5])
    def test_matrix_rows_match_the_one_shot_read(self, extra):
        n = self.CHUNK + extra
        rng = np.random.default_rng(n + 1)
        rows = rng.integers(0, 2, (3, n)).astype(np.uint8)
        rows[1] = 1
        w = _window_u64(rows, n)
        for thr in mask_thresholds(rng, w):
            got = reduction._suffix_ge_mask(rows, thr)
            assert got.shape == rows.shape
            assert np.array_equal(got, thr.at_or_below(w))
            for bits, row in zip(rows, got):
                assert np.array_equal(row, reduction._suffix_ge_mask(bits, thr))

    @pytest.mark.parametrize("chunk", [1, 2, 7, 63, 64, 65])
    def test_small_chunks_against_brute_force(self, monkeypatch, chunk):
        monkeypatch.setattr(reduction, "_READ_PLACES", chunk)
        rng = np.random.default_rng(chunk)
        strings = [DigitString(2, rng.integers(0, 2, 2 * 65 + 5)),
                   DigitString(2, np.ones(2 * 65 + 5, dtype=np.uint8))]
        for s in strings:
            for thr in mask_thresholds(rng, _window_u64(s.digits, len(s))):
                want = brute_partial_reduce(s, thr.value)
                hi = s.digits == 1
                assert np.array_equal(reduction._suffix_ge_mask(hi, thr),
                                      one_shot_ge(hi, thr))
                if not want:
                    with pytest.raises(EmptyResult):
                        partial_reduce(s, thr)
                else:
                    assert partial_reduce(s, thr)[0].digits.tolist() == want

    def test_reads_of_one_chunk_or_less_are_the_one_shot_read(self):
        rng = np.random.default_rng(5)
        for shape in [(0,), (1,), (448,), (32, 448), (4, self.CHUNK)]:
            bits = rng.integers(0, 2, shape).astype(bool)
            for thr in mask_thresholds(rng, _window_u64(bits, shape[-1])):
                assert np.array_equal(reduction._suffix_ge_mask(bits, thr),
                                      one_shot_ge(bits, thr))


def window_thresholds(windows):
    """0, 1/2, exact one, top bytes 0x00 and 0xFF, and each distinct window
    of ``windows`` with one unit above and below it."""
    ts = {0, 1, 1 << 63, (1 << 56) - 1, 0xFF << 56, (1 << 64) - 1, 1 << 64}
    for w in np.unique(windows).tolist():
        ts.update(t for t in (w - 1, w, w + 1) if 0 <= t <= 1 << 64)
    return [BinaryThreshold(t) for t in sorted(ts)]


def repeated_byte(byte, n):
    """n digits of the byte ``byte`` repeated."""
    return np.unpackbits(np.full(-(-n // 8), byte, dtype=np.uint8))[:n].astype(bool)


class TestByteFirstMask:
    """_suffix_ge_mask settles a place on its first 8 digits unless they
    are t's top byte, and reads those ties' whole windows; pinned to the
    one-shot read ``thr.at_or_below(_window_u64(bits, n))``."""

    @staticmethod
    def assert_matches(bits, thrs):
        n = bits.shape[-1]
        w = _window_u64(bits, n)
        for thr in thrs:
            got = reduction._suffix_ge_mask(bits, thr)
            assert got.shape == bits.shape and got.dtype == bool
            assert np.array_equal(got, thr.at_or_below(w)), thr

    @pytest.mark.parametrize("n", list(range(18)) + list(range(55, 74)))
    def test_short_and_window_length_rows(self, n):
        rng = np.random.default_rng(n)
        rows = np.stack([rng.integers(0, 2, n).astype(bool), np.ones(n, dtype=bool),
                         np.zeros(n, dtype=bool), repeated_byte(0x9E, n),
                         np.arange(n) % 3 == 0])
        thrs = window_thresholds(_window_u64(rows, n)[:, :12])
        for bits in rows:
            self.assert_matches(bits, thrs)
        self.assert_matches(rows, thrs)

    @pytest.mark.parametrize("n", [9, 63, 64, 65, 130, 448])
    def test_all_ones_rows_tie_at_almost_every_place(self, n):
        # t's top byte 0xFF: every place but the last 7 ties, and the
        # windows fall at each place, so each verdict is a tie's to make
        ones = np.ones(n, dtype=bool)
        w = _window_u64(ones, n)
        assert (w >> np.uint64(56) == 0xFF).sum() == n - 7
        for j in range(max(n - 72, 0), n - 7):
            t = int(w[j])
            for thr in (BinaryThreshold(t - 1), BinaryThreshold(t), BinaryThreshold(t + 1)):
                got = reduction._suffix_ge_mask(ones, thr)
                assert np.array_equal(got, thr.at_or_below(w))
                assert got[:j + 1].all() == got[j] == (thr.t_int <= t)

    @pytest.mark.parametrize("byte", [0x00, 0x5A, 0x9E, 0xFF])
    def test_rows_of_the_top_byte_repeated(self, byte):
        # places 8i of each row tie with t (every place for 0x00 and 0xFF)
        for n in (8, 64, 71, 200):
            bits = repeated_byte(byte, n)
            w = _window_u64(bits, n)
            thrs = [BinaryThreshold(int(byte) << 56 | low)
                    for low in (0, 1, (1 << 56) - 1, int(w[0]) & ((1 << 56) - 1))]
            self.assert_matches(bits, thrs + window_thresholds(w[::8]))

    def test_matrix_rows_with_different_tie_counts(self):
        # rows of no, few and almost only ties, each followed by a row that
        # opens with 1s, so a tie that read its neighbour's digits in place
        # of its own zero padding would read too high a window
        rng = np.random.default_rng(3)
        for n in (9, 17, 56, 64, 71, 448):
            rows = np.stack([np.ones(n, dtype=bool), rng.integers(0, 2, n).astype(bool),
                             repeated_byte(0xFF, n), np.zeros(n, dtype=bool),
                             repeated_byte(0x9E, n), np.ones(n, dtype=bool)])
            w = _window_u64(rows, n)
            heads = w >> np.uint64(56)
            for top in (0x00, 0xFF):
                assert len(set((heads == top).sum(axis=1).tolist())) > 1
            thrs = window_thresholds(w[:, max(n - 12, 0):]) + [
                BinaryThreshold(top << 56 | low) for top in (0x00, 0x9E, 0xFF)
                for low in (0, 1 << 55)]
            self.assert_matches(rows, thrs)
            self.assert_matches(rows.reshape(2, 3, n), thrs)

    def test_ties_read_the_zero_padding_past_a_row_end(self):
        # a tie within 56 places of a row's end has window bytes past it,
        # which read 0: t one unit above that zero-filled window is not
        # reached, where reading 1s there would reach it
        for n in (8, 16, 40, 63, 100):
            rows = np.ones((3, n), dtype=bool)
            w = _window_u64(rows, n)
            for j in range(max(n - 56, 0), n - 7):
                for thr in (BinaryThreshold(int(w[0, j]) + 1), BinaryThreshold(int(w[0, j]))):
                    got = reduction._suffix_ge_mask(rows, thr)
                    assert np.array_equal(got, thr.at_or_below(w))
                    assert got[:, j].tolist() == [thr.t_int == int(w[0, j])] * 3

    @given(st.integers(1, 4), st.integers(0, 90), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.5, 0.1, 0.9]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_thresholds_from_the_rows_own_windows(self, nrows, n, seed, p, data):
        rng = np.random.default_rng(seed)
        rows = rng.random((nrows, n)) < p
        w = _window_u64(rows, n)
        if n:
            r, j = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, n - 1))
            t = int(w[r, j]) + data.draw(st.sampled_from([-1, 0, 1]))
        else:
            t = data.draw(st.integers(0, 1 << 64))
        thr = BinaryThreshold(min(max(t, 0), 1 << 64))
        got = reduction._suffix_ge_mask(rows, thr)
        assert np.array_equal(got, thr.at_or_below(w))
        assert np.array_equal(reduction._deletion_mask(rows, thr), rows ^ got)


class TestRowParts:
    """The one split of a read's rows by the place budget."""

    @pytest.mark.parametrize("budget", [1, 63, 64, 100, 1 << 15])
    def test_parts_cover_the_rows_in_order_within_the_budget(self, monkeypatch, budget):
        monkeypatch.setattr(reduction, "_READ_PLACES", budget)
        for n, places in [(0, 64), (1, 64), (40, 448), (4096, 64), (5, 100000)]:
            rows = 3 * np.arange(n)
            parts = reduction._row_parts(rows, places)
            assert np.concatenate([rows[:0]] + parts).tolist() == rows.tolist()
            assert all(len(p) * places <= budget or len(p) == 1 for p in parts)
            # every part but the last is as large as the budget allows
            assert all(len(p) == max(budget // places, 1) for p in parts[:-1])
            assert reduction._row_parts(rows.tolist(), places) == [p.tolist() for p in parts]


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

    def test_fraction_is_a_multiple_of_pi_and_a_float_is_radians(self):
        # Fraction(1, 2) == 0.5 and both hash alike, yet one is pi/2 and the
        # other 0.5 rad; the per-angle cache must keep them apart in either
        # order
        for order in ((Fraction(1, 2), 0.5), (0.5, Fraction(1, 2))):
            reduction._threshold_int.cache_clear()
            got = {type(th): BinaryThreshold.from_angle(th).t_int for th in order}
            assert got == {Fraction: 1 << 63, float: 17317642498225815158}

    @pytest.mark.parametrize("theta,t_int", [
        # the suite's polarization, EPR and seed-invariance angles
        (Fraction(0), 1 << 64),
        (Fraction(1, 6), 17211046529326033358),
        (Fraction(1, 4), 15745280949521166914),
        (Fraction(1, 3), 13835058055282163712),
        (Fraction(2, 5), 12073550741685575429),
        (Fraction(1, 2), 9223372036854775808),
        (Fraction(2, 3), 4611686018427387904),
        (Fraction(3, 4), 2701463124188384701),
        (Fraction(5, 6), 1235697544383518257),
        (Fraction(1), 0),
        # the walk reads its start angles as float radians
        (math.pi / 3, 13835058055282164629),
        (math.pi / 2, 9223372036854776372),
        (2 * math.pi / 3, 4611686018427389738),
        (math.pi, 0),
    ])
    def test_pinned_thresholds(self, theta, t_int):
        assert BinaryThreshold.from_angle(theta).t_int == t_int

    def test_each_call_builds_a_fresh_threshold(self):
        # the cache holds the integer, not the object
        a = BinaryThreshold.from_angle(Fraction(1, 3))
        b = BinaryThreshold.from_angle(Fraction(1, 3))
        assert a is not b and a.t_int == b.t_int

    def test_digit_string_view(self):
        t = BinaryThreshold.from_angle(Fraction(1, 2))
        d = t.digit_string
        assert d.digits[0] == 1 and d.digits[1:].sum() == 0
        assert t.digit(1) == 1 and t.digit(2) == 0 and t.digit(100) == 0

    def test_min_precision(self):
        # t_int is a 64-bit fraction of one: 0 .. 2^64 inclusive
        for t_int in (-1, (1 << 64) + 1, 1 << 80):
            with pytest.raises(ValueError):
                BinaryThreshold(t_int)
        assert BinaryThreshold(1 << 64).is_one
        assert BinaryThreshold(0).value == 0


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


def _mp_cos2_half(theta):
    if isinstance(theta, Fraction):
        x = mp.pi * theta.numerator / theta.denominator
    else:
        x = mp.mpf(theta)
    return mp.cos(x / 2) ** 2


def _mp_threshold_int(theta, prec=THRESHOLD_BITS + 96):
    """Reference: the threshold rule in mpmath at ``prec`` bits, as the
    library computed it before its fixed-point arithmetic."""
    with mp.workprec(prec):
        y = _mp_cos2_half(theta) * (1 << THRESHOLD_BITS)
        yr = mp.nint(y)
        return int(yr) if abs(y - yr) < mp.mpf(2) ** (-64) else int(mp.floor(y))


def _mp_biased_quantile(theta, zero_density, prec=THRESHOLD_BITS + 96):
    """Reference: ``biased_quantile_threshold``'s t_int in mpmath."""
    with mp.workprec(prec):
        w = mp.mpf(zero_density.numerator) / zero_density.denominator
        u = _mp_cos2_half(theta)
        eps = mp.mpf(2) ** (-(THRESHOLD_BITS + 64))
        if u > 1 - eps:
            return 1 << THRESHOLD_BITS
        if u < eps:
            return 0
        t_int = 0
        for _ in range(THRESHOLD_BITS):
            if abs(u - w) < eps:
                t_int = (t_int << 1) | 1
                u = mp.mpf(0)
            elif u < w:
                t_int <<= 1
                u = u / w
            else:
                t_int = (t_int << 1) | 1
                u = (u - w) / (1 - w)
                if u < eps:
                    u = mp.mpf(0)
    return t_int


class TestIntegerThresholds:
    """The fixed-point thresholds agree bit for bit with mpmath."""

    def _agree(self, angles):
        got = [reduction._threshold_int.__wrapped__(th) for th in angles]
        assert got == [_mp_threshold_int(th) for th in angles]

    def test_fraction_multiples_of_pi(self):
        self._agree([Fraction(k, n) for n in range(1, 65) for k in range(-1, 2 * n + 1)])

    def test_seeded_float_radians(self):
        rng = np.random.default_rng(25)
        self._agree(rng.uniform(0, math.pi, 1500).tolist()
                    + rng.uniform(-10, 10, 1500).tolist()
                    + [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 5e-324])

    def test_large_float_radians_reduce_exactly(self):
        # pi carries as many more bits as the angle has integer bits
        self._agree([1e20, 1e40, 1e80, -1e80, 1e300])

    def test_large_fraction_folds_exactly(self):
        # (10^30 + 1)/3 pi is 5/3 pi mod 2 pi, so cos^2 is exactly 3/4;
        # mpmath at 160 bits rounds pi * (10^30 + 1) before reducing and
        # misses by 4 units, and agrees once its precision covers the
        # numerator's bits
        th = Fraction(10 ** 30 + 1, 3)
        exact = 3 << (THRESHOLD_BITS - 2)
        assert reduction._threshold_int.__wrapped__(th) == exact
        assert _mp_threshold_int(th) == exact + 4
        assert _mp_threshold_int(th, THRESHOLD_BITS + 96 + 100) == exact

    def _agree_quantiles(self, thetas, ws):
        got = [biased_quantile_threshold(th, w).t_int for w in ws for th in thetas]
        assert got == [_mp_biased_quantile(th, w) for w in ws for th in thetas]

    def test_quantiles_at_the_trace_rule_densities(self):
        # the densities w2 that qutrit_thresholds derives from theta2
        grid = [Fraction(k, 16) for k in range(17)]
        ws = []
        for th2 in grid:
            t2 = BinaryThreshold.from_angle(th2).value
            ws.append(Fraction(1, 3) / (Fraction(1, 3) + Fraction(1, 3) * (1 + 2 * min(t2, 1 - t2))))
            assert qutrit_thresholds(Fraction(1, 3), th2)[0].t_int == \
                biased_quantile_threshold(Fraction(1, 3), ws[-1]).t_int
        self._agree_quantiles(grid + [0.3, 1.7, 2.9], ws)

    def test_quantiles_at_lopsided_densities(self):
        # the loop multiplies its error by up to 64 a step here, and the
        # working bits grow to match
        self._agree_quantiles([Fraction(k, 16) for k in range(17)] + [0.3, 1.7, 2.9],
                              [Fraction(1, 64), Fraction(63, 64)])

    def test_quantile_bits_cover_its_error_amplification(self):
        # a quantile whose 64 bits are mostly 0s under w = 1/64: each 0
        # multiplies the loop's error by 64, here 54 times, 2^324 in all,
        # beyond what 320 working bits absorb; u = F_w(x) is exact for
        # x = t + 2^-66, and the angle that gives it is read to 1600 bits
        w = Fraction(1, 64)
        bits = [1] + ([0] * 6 + [1]) * 9 + [0, 1]
        u, measure = Fraction(0), Fraction(1)
        for b in bits:
            u += b * measure * w
            measure *= 1 - w if b else w
        with mp.workprec(2000):
            half = mp.acos(mp.sqrt(mp.mpf(u.numerator) / u.denominator)) / mp.pi
            theta = Fraction(int(mp.floor(2 * half * 2 ** 1600)), 1 << 1600)
        t = int("".join(map(str, bits[:THRESHOLD_BITS])), 2)
        assert biased_quantile_threshold(theta, w).t_int == t

    def test_float_density_is_read_exactly(self):
        for w in (0.3, 1 / 3, 0.9):
            assert (biased_quantile_threshold(1.1, w).t_int
                    == _mp_biased_quantile(1.1, Fraction(w)))


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
    """The drift ODE: the walk with its longitude frozen (jitter depth 0)."""

    def test_monotone_descent_to_south(self):
        r0 = champernowne(2, 1 << 14)
        lam = PAdicRational(2, 3, 4)
        res = weak_reduction_walk(2.0, lam, r0, jitter_depth=0, dt=0.25,
                                  alpha=0.8, seed=0, max_steps=4000)
        thetas = res.thetas
        rs = [row[1] for row in res.trajectory[:-1]]
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
        slow, fast = (weak_reduction_walk(1.2, lam, r0, jitter_depth=0, dt=0.1,
                                          alpha=alpha, seed=0, max_steps=20000)
                      for alpha in (0.4, 0.8))
        ratio = slow.outcome.steps / fast.outcome.steps
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_nonconvergence(self):
        r0 = champernowne(2, 1 << 14)
        with pytest.raises(NonConvergence):
            weak_reduction_walk(1.5, PAdicRational(2, 1, 3), r0, jitter_depth=0,
                                dt=1e-3, alpha=1e-6, seed=0, max_steps=10)

    def test_tie_detection(self):
        # a state whose reduced value is exactly 1/2 at theta = pi/2
        r0 = DigitString(2, [1] + [0] * 63)
        with pytest.raises(Tie):
            _reduced_values(r0, 0, np.array([0]),
                            BinaryThreshold.from_angle(Fraction(1, 2)))

    def test_near_tie_reads_half(self, monkeypatch):
        # within 2^-96 of 1/2 but not equal: a 1 after 200 zeros, or 0 then
        # a run of 1s; nothing is deleted at theta = pi/2.  The walk reads
        # survivors through _reduced_prefix alone, never partial_reduce
        monkeypatch.setattr(reduction, "partial_reduce", _refuse_partial_reduce)
        thr = BinaryThreshold.from_angle(Fraction(1, 2))
        for digits in ([1] + [0] * 200 + [1] + [0] * 55, [0] + [1] * 255):
            assert _reduced_values(DigitString(2, digits), 0, np.array([0]),
                                   thr) == [0.5]

    def test_a_one_among_the_first_survivors_rules_out_a_tie(self, monkeypatch):
        # 1/2 + 2^-60 reads 0.5 as a float, but its 60th survivor is a 1,
        # so the whole string is not read again
        monkeypatch.setattr(reduction, "partial_reduce", _refuse_partial_reduce)
        calls = []
        read = reduction._reduced_prefix
        monkeypatch.setattr(reduction, "_reduced_prefix",
                            lambda *args: calls.append(args[4]) or read(*args))
        r0 = DigitString(2, [1] + [0] * 58 + [1] + [0] * 196)
        thr = BinaryThreshold.from_angle(Fraction(1, 2))
        assert _reduced_values(r0, 0, np.array([0]), thr) == [0.5]
        assert calls == [96]

    def test_rejects_poles(self):
        r0 = champernowne(2, 1 << 12)
        with pytest.raises(ValueError):
            weak_reduction_walk(0.0, PAdicRational(2, 1, 3), r0, jitter_depth=0,
                                dt=0.1, alpha=1.0, seed=0, max_steps=10)

    @pytest.mark.parametrize("alpha,dt,jitter_depth", [
        (0.0, 0.1, 0), (-1.0, 0.1, 0), (1.0, 0.0, 0), (1.0, -1.0, 4),
        (float("nan"), 0.1, 0), (1.0, 0.1, -1)])
    def test_rejects_nonpositive_alpha_dt_and_negative_jitter(self, alpha, dt,
                                                               jitter_depth):
        r0 = champernowne(2, 1 << 12)
        with pytest.raises(ValueError):
            weak_reduction_walk(1.5, PAdicRational(2, 1, 3), r0, jitter_depth,
                                dt=dt, alpha=alpha, seed=0, max_steps=10)


class TestDecidedKeep:
    """A prefix decides its leading places up to the first whose
    comparison its digits leave open, at least those whose whole
    THRESHOLD_BITS-digit window it holds."""

    @staticmethod
    def continued_keep(prefix, tail, thr):
        """The keep mask of the prefix's places once ``tail`` follows it."""
        return ~_deletion_mask(np.concatenate([prefix, tail]), thr)[:prefix.size]

    def assert_settled(self, prefix, thr, rng):
        """The decided count is the first place where the all-0 and the
        all-1 continuations disagree (each window's least and greatest
        value), and random continuations keep what it decides.  Returns
        the count."""
        n = prefix.size
        keep, decided = ~_deletion_mask(prefix, thr), _decided_places(prefix, n, thr)
        zeros, ones = (self.continued_keep(prefix, np.full(THRESHOLD_BITS, b), thr)
                       for b in (False, True))
        differ = np.flatnonzero(zeros != ones)
        assert decided == (differ[0] if differ.size else n)
        assert decided >= n - (THRESHOLD_BITS - 1)
        for _ in range(2):
            tail = rng.integers(0, 2, int(rng.integers(0, 200))).astype(bool)
            assert np.array_equal(keep[:decided],
                                  self.continued_keep(prefix, tail, thr)[:decided])
        return decided

    def test_decided_places_agree_with_every_continuation(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            prefix = rng.random(n) < rng.uniform(0.05, 0.95)
            self.assert_settled(prefix, random_threshold(rng), rng)

    def test_tail_windows_within_one_digit_of_the_threshold(self):
        # the prefix ends in t's first m digits, so the window at n - m
        # holds them and nothing else: it stays open whenever t has a 1
        # past them; with its last digit flipped the window settles there
        rng = np.random.default_rng(17)
        opened = settled = 0
        for _ in range(200):
            thr = BinaryThreshold(int(rng.integers(1, 1 << 63)) << 1 | 1)
            m = int(rng.integers(1, THRESHOLD_BITS))
            head = rng.random(int(rng.integers(0, 200))) < 0.5
            spelled = np.array([thr.digit(j) for j in range(1, m + 1)], dtype=bool)
            n = head.size + m
            assert self.assert_settled(np.concatenate([head, spelled]), thr, rng) <= n - m
            spelled[-1] ^= True
            decided = self.assert_settled(np.concatenate([head, spelled]), thr, rng)
            opened += decided < n - m
            settled += decided > n - m
        assert opened > 0 and settled > 100

    def test_the_first_undecided_place_waits_for_the_next_digit(self):
        # at t = 2^-64 a 0 is deleted iff a 1 lies in its window, so the
        # fate of place n - 63 of n 0s turns on digit n
        n = 100
        zeros = np.zeros(n, dtype=bool)
        decided = _decided_places(zeros, n, BinaryThreshold(1))
        assert decided == n - (THRESHOLD_BITS - 1)
        for nxt, kept in ((False, True), (True, False)):
            full = np.append(zeros, nxt)
            assert (~_deletion_mask(full, BinaryThreshold(1)))[decided] == kept
        assert (~_deletion_mask(zeros, BinaryThreshold(1)))[:decided].all()

    def test_row_form_counts_per_row(self):
        rows = np.zeros((4, 200), dtype=bool)
        n = np.array([0, 63, 64, 200])
        assert _decided_places(rows, n, BinaryThreshold(1)).tolist() == [0, 0, 1, 137]
        # random rows, each with its own n and lo past it, count as one-row reads
        rng = np.random.default_rng(18)
        n = rng.integers(1, 200, 40)
        rows = (rng.random((40, 200)) < 0.5) & (np.arange(200) < n[:, None])
        thr = random_threshold(rng)
        assert _decided_places(rows, n, thr).tolist() == [
            _decided_places(row[:m], m, thr) for row, m in zip(rows, n.tolist())]


class TestReducedPrefix:
    """``_reduced_prefix`` rotates only the places it reads; the oracle
    rotates the whole string with the dense operator and reduces it."""

    @staticmethod
    def oracle(r0, q, thr, want):
        try:
            full, _ = partial_reduce(apply(rotation_operator(q), r0), thr)
        except EmptyResult:
            return None
        return full.digits[:want]

    def check(self, r0, q, thr, want=96):
        expected = self.oracle(r0, q, thr, want)
        nums = np.array([q.numerator])
        if expected is None:
            with pytest.raises(EmptyResult):
                _reduced_prefix(r0, q.depth, nums, thr, want)
        else:
            got, = _reduced_prefix(r0, q.depth, nums, thr, want)
            assert np.array_equal(got, expected)

    def test_random_strings_angles_and_thresholds(self):
        rng = np.random.default_rng(91)
        for _ in range(60):
            r0 = DigitString(2, rng.integers(0, 2, int(rng.integers(1, 9)) << 11,
                                             dtype=np.uint8))
            depth = int(rng.integers(0, 13))
            q = PAdicRational(2, int(rng.integers(0, 1 << depth)), depth)
            self.check(r0, q, random_threshold(rng))

    def test_rows_of_one_call_match_the_constructor(self):
        # several numerators per call, on an unreduced grid: a row with an
        # even numerator m is the rotation by m/2^depth in lowest terms
        rng = np.random.default_rng(92)
        for _ in range(30):
            r0 = DigitString(2, rng.integers(0, 2, int(rng.integers(1, 5)) << 11,
                                             dtype=np.uint8))
            depth = int(rng.integers(1, 12))
            nums = rng.integers(0, 1 << depth, 6)
            nums[:3] &= ~1
            thr = random_threshold(rng)
            want = int(rng.choice([1, 96, 500]))
            try:
                expected = [partial_reduce(phase_rotate(r0, PAdicRational(2, m, depth)),
                                           thr)[0].digits[:want] for m in nums.tolist()]
            except EmptyResult:
                with pytest.raises(EmptyResult):
                    _reduced_prefix(r0, depth, nums, thr, want)
                continue
            got = _reduced_prefix(r0, depth, nums, thr, want)
            assert len(got) == nums.size
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @staticmethod
    def ones_at(length, *places):
        digits = np.zeros(length, dtype=np.uint8)
        for p in places:
            digits[p] = 1
        return DigitString(2, digits)

    def test_first_read_is_sized_by_the_request(self, gathers):
        # 4 * 96 + 64 = 448 places decide 385, which hold the 96 survivors
        # of the default seed; the Tie check's request for every survivor
        # reads the whole string at once
        r0 = champernowne(2, 1 << 18)
        thr = BinaryThreshold.from_angle(Fraction(1, 3))
        assert _reduced_prefix(r0, 10, np.array([341]), thr, 96)[0].size == 96
        assert gathers == [([341], 4 * 96 + THRESHOLD_BITS)]
        gathers.clear()
        _reduced_prefix(r0, 10, np.array([341]), thr, len(r0))
        assert gathers == [([341], len(r0))]

    def test_prefix_doubles_when_survivors_are_sparse(self, gathers):
        # at t = 2^-64 every 1 survives and a 0 only before 63 more 0s.
        # The 1 at 63 and the 1s every 32 places from 96 to 3072 are 95
        # survivors, and the 0s after them die by the 96th, the 1 at 3136.
        # The reads of 448, 896 and 1792 places decide 11, 25 and 53
        # survivors; the 96th waits for the fourth read, of 3584
        r0 = self.ones_at(6400, 63, range(96, 3073, 32), range(3136, 6400, 64))
        thr = BinaryThreshold(1)
        got, = _reduced_prefix(r0, 0, np.array([0]), thr, 96)
        assert got.size == 96 and got.all()
        assert gathers == [([0], 448 << i) for i in range(4)]
        self.check(r0, PAdicRational(2, 0, 0), thr)
        self.check(r0, PAdicRational(2, 3, 5), thr)

    def test_places_past_the_decided_prefix_wait_for_their_digits(self, gathers):
        # at t = 2^-64 the first read, 448 places, decides places 0..384:
        # 95 survivors, the 1s at 8, 12, ..., 384.  The 0s at 385..447 die
        # by the 1 at 448, which that read does not reach: the 96th
        # survivor is that 1, from the second read
        r0 = self.ones_at(1024, range(8, 385, 4), range(448, 1024, 64))
        thr = BinaryThreshold(1)
        got, = _reduced_prefix(r0, 0, np.array([0]), thr, 96)
        assert got.size == 96 and got.all()
        assert gathers == [([0], 448), ([0], 896)]
        self.check(r0, PAdicRational(2, 0, 0), thr)

    def test_whole_string_read_when_survivors_run_out(self, gathers):
        r0 = DigitString(2, ([1] * 63 + [0]) * 32)
        thr = BinaryThreshold((1 << 64) - 1)
        assert _reduced_prefix(r0, 0, np.array([0]), thr, 96)[0].size == 32
        assert gathers == [([0], 448), ([0], 896), ([0], 1792), ([0], 2048)]
        self.check(r0, PAdicRational(2, 0, 0), thr)

    def test_seed_below_one_rotation_block_is_refused(self):
        # the rotated string is the seed's whole blocks: 16 digits hold no
        # 128-digit block at depth 8
        with pytest.raises(LengthNotDivisible):
            _reduced_prefix(champernowne(2, 16), 8, np.array([1]), BinaryThreshold(1), 96)

    def test_only_undecided_rows_read_again_within_the_gather_bound(self, monkeypatch,
                                                                     gathers):
        # at t = 1 - 2^-64 every 0 survives and a 1 only before 63 more 1s:
        # the seed keeps its 32 zeros, and its complement (1/2 of a turn)
        # 63 of every 64 places.  The complement rows are decided by the
        # first read; the seed's rows alone grow to the whole string.  A
        # budget of 32 first-read rows splits the 40 rows 32 + 8
        monkeypatch.setattr(reduction, "_READ_PLACES", 32 * 448)
        r0 = DigitString(2, ([1] * 63 + [0]) * 32)
        thr = BinaryThreshold((1 << 64) - 1)
        nums = np.arange(40) % 2
        got = _reduced_prefix(r0, 1, nums, thr, 96)
        assert all(np.array_equal(g, self.oracle(r0, PAdicRational(2, m, 1), thr, 96))
                   for g, m in zip(got, nums.tolist()))
        assert all(len(rows) * places <= max(reduction._READ_PLACES, places)
                   for rows, places in gathers)
        rows_by_read = {}
        for rows, places in gathers:
            rows_by_read.setdefault(places, []).extend(rows)
        assert sorted(rows_by_read) == [448, 896, 1792, 2048]
        assert [len(rows) for rows, places in gathers if places == 448] == [32, 8]
        assert rows_by_read.pop(448) == nums.tolist()
        assert all(rows == [0] * 20 for rows in rows_by_read.values())


class TestWeakReductionWalk:
    def test_fraction_theta0_is_a_multiple_of_pi(self):
        # a Fraction angle is a multiple of pi, as BinaryThreshold.from_angle
        # reads it: Fraction(1, 3) starts at pi/3, not at 1/3 rad
        r0 = champernowne(2, 1 << 14)
        lam = PAdicRational(2, 5, 6)
        a, b = (weak_reduction_walk(theta0, lam, r0, jitter_depth=6, dt=1.0,
                                    alpha=2.0, seed=3)
                for theta0 in (Fraction(1, 3), math.pi / 3))
        assert a.trajectory[0][0] == math.pi / 3
        assert a.trajectory == b.trajectory

    def test_fraction_theta0_past_pi_is_refused(self):
        # Fraction(3, 2) is 3pi/2, off the open interval, though 1.5 rad is on it
        r0 = champernowne(2, 1 << 12)
        with pytest.raises(ValueError, match="theta0 must lie strictly between 0 and pi"):
            weak_reduction_walk(Fraction(3, 2), PAdicRational(2, 1, 3), r0, jitter_depth=0,
                                dt=0.1, alpha=1.0, seed=0, max_steps=10)

    def test_same_seed_same_trajectory(self):
        r0 = champernowne(2, 1 << 16)
        lam = PAdicRational(2, 3, 8)
        a = weak_reduction_walk(1.2, lam, r0, jitter_depth=8, dt=1.0,
                                alpha=64.0, seed=42)
        b = weak_reduction_walk(1.2, lam, r0, jitter_depth=8, dt=1.0,
                                alpha=64.0, seed=42)
        assert a.trajectory == b.trajectory
        assert a.outcome.attractor_index == b.outcome.attractor_index

    def test_jitter_coarser_than_start_longitude(self):
        # lam0 on the depth-12 grid, jitter on the depth-4 grid: every
        # visited longitude is lam0 plus a whole number of 1/16 turns
        r0 = champernowne(2, 1 << 16)
        lam0 = PAdicRational(2, 1173, 12)
        a, b = (weak_reduction_walk(1.5, lam0, r0, jitter_depth=4, dt=1.0,
                                    alpha=2.0, seed=5) for _ in range(2))
        assert a.trajectory == b.trajectory
        assert len(a.trajectory) > 3
        for _, _, num, dep in a.trajectory:
            offset = (Fraction(num, 1 << dep) - lam0.fraction) * 16
            assert offset.denominator == 1
        assert len({(num, dep) for _, _, num, dep in a.trajectory}) > 1

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
        ode = weak_reduction_walk(2.0, lam, r0, jitter_depth=0, dt=0.25,
                                  alpha=0.8, seed=0, max_steps=4000)
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
