"""Experiment harness: partitions, ensembles, reports, reproducibility."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import numpy_philox

from digitq.digits import (DigitString, _digits_to_int, champernowne,
                           concatenated_squares, phi_shift)
from digitq import experiments, reduction
from digitq.errors import (DegenerateStatistic, EmptyResult, LengthNotDivisible,
                           NonConvergence, OffGrid, SuffixTooShort, Tie)
from digitq.experiments import (ExperimentReport, SampleGrid, Statistic,
                                binomial_tolerance, epr_correlation,
                                epr_experiment, index_partition,
                                interference_experiment, make_epr_ensemble,
                                operator_algebra_checks,
                                polarization_experiment, seed_invariance_suite,
                                trace_rule_experiment, weak_reduction_experiment,
                                _grid_leading_windows, _qutrit_leading_digit,
                                _qutrit_leading_digits, _stage1_leads, _trace_rows,
                                _trace_sources)
from digitq.phase import (BlockOperator, PAdicRational, _rotated_rows, _rotation_operator_cached,
                          apply, extend_to, omega_root, operator_pow, phase_rotate)
from digitq.reduction import (BinaryThreshold, _angle_float, _deletion_mask, _euler_step,
                              _reduced_values, _window_u64, partial_reduce, reduce_compound,
                              weak_reduction_walk)
from digitq.rng import derive_seed, make_rng
from digitq.states import (BlochPoint, QutritAngles, StateConfig,
                           beamsplitter_pair, blocked_mz_output,
                           default_config, default_qutrit_config,
                           full_mz_output, qubit_state, qutrit_state,
                           qutrit_thresholds, _qutrit_pipeline, _qutrit_reduce)


class TestSampleGrid:
    def test_negative_depth_is_refused(self):
        with pytest.raises(ValueError):
            SampleGrid(depth=-1)
        with pytest.raises(ValueError):
            SampleGrid(depth=-1, base=3)


class TestIndexPartition:
    def test_printed_example(self):
        p = index_partition(12)
        assert p[1] == [1, 3, 5, 7, 9, 11]
        assert p[2] == [2, 6, 10]
        assert p[3] == [4, 12]
        # the displayed subsets cover 11 indices; the formula also yields
        # I_4 = {8}, completing the partition
        assert p[4] == [8]

    def test_single(self):
        assert index_partition(1) == {1: [1]}

    @pytest.mark.parametrize("N", [2, 3, 17, 64, 100, 1 << 14])
    def test_disjoint_cover(self, N):
        p = index_partition(N)
        seen = sorted(i for part in p.values() for i in part)
        assert seen == list(range(1, N + 1))

    def test_subset_sizes(self):
        p = index_partition(1 << 10)
        for j, part in p.items():
            assert len(part) == pytest.approx((1 << 10) / 2 ** j, abs=1)


class TestEPR:
    def test_zero_angle_all_flipped(self):
        pairs = list(make_epr_ensemble(Fraction(0), 64))
        assert all(p.right == phi_shift(p.left, 1) for p in pairs)
        assert epr_correlation(pairs) == -1.0

    def test_pi_no_flips(self):
        pairs = list(make_epr_ensemble(Fraction(1), 64))
        assert all(p.right == p.left for p in pairs)
        assert epr_correlation(pairs) == 1.0

    def test_half_pi_flips_exactly_I1(self):
        pairs = list(make_epr_ensemble(Fraction(1, 2), 64))
        for p in pairs:
            flipped = p.right == phi_shift(p.left, 1)
            assert flipped == (p.subset_index == 1)

    def test_left_states_match_constructor(self):
        from digitq.experiments import epr_config
        cfg = epr_config()
        pairs = list(make_epr_ensemble(Fraction(1), 8))
        K = max(1, math.ceil(math.log2(8)))
        for p in pairs[:4]:
            full = qubit_state(cfg, BlochPoint(Fraction(1, 2),
                                               PAdicRational(2, p.pair_index, K)))
            assert full.prefix(len(p.left)) == p.left

    def test_flipped_fraction_matches_digit_sum(self):
        N = 1 << 10
        dtheta = Fraction(1, 3)
        pairs = list(make_epr_ensemble(dtheta, N))
        flipped = sum(p.right != p.left for p in pairs) / N
        expected = math.cos(math.pi / 6) ** 2
        assert abs(flipped - expected) < 2 ** -9

    @pytest.mark.parametrize("N", [1 << 10, 1000])
    @pytest.mark.parametrize("dtheta", ["0", "1/4", "1/3", "1/2", "3/4", "1"])
    def test_closed_form_matches_ensemble(self, dtheta, N):
        rep = epr_experiment(Fraction(dtheta), N=N)
        oracle = epr_correlation(make_epr_ensemble(Fraction(dtheta), N))
        assert rep.statistics[0].observed == oracle

    def test_correlation_at_pi_third(self):
        rep = epr_experiment(Fraction(1, 3), N=1 << 12)
        assert rep.statistics[0].deviation <= 0.03

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            epr_correlation([])

    def test_ensemble_deeper_than_config_is_off_grid(self):
        # 100000 pairs need grid depth 17; the EPR config stops at 14
        with pytest.raises(OffGrid):
            epr_experiment(Fraction(1, 2), N=100000)


class TestPolarization:
    def test_exact_poles(self):
        grid = SampleGrid(depth=8)
        assert polarization_experiment(Fraction(0), grid).statistics[0].observed == 1.0
        assert polarization_experiment(Fraction(1), grid).statistics[0].observed == 0.0

    def test_pi_third(self):
        rep = polarization_experiment(Fraction(1, 3), SampleGrid(depth=10))
        assert rep.statistics[0].deviation <= 0.02

    def test_matches_full_constructor_on_subsample(self):
        # the windowed fast path equals the leading digit of the real state;
        # depths 1 and 4 have operator blocks shorter than the 64-digit window
        cfg = default_config()
        theta = Fraction(1, 5)
        from digitq.experiments import _cached_windows
        from digitq.reduction import BinaryThreshold
        thr = BinaryThreshold.from_angle(theta)
        rng = make_rng(0)
        for depth in (1, 4, 8):
            windows = _cached_windows(cfg.seed_string, depth)
            for j in rng.integers(0, 1 << depth, size=12):
                q = PAdicRational(2, int(j), depth)
                rotated = phase_rotate(cfg.seed_string, q).digits[:64]
                assert windows[int(j)] == int("".join(map(str, rotated)), 2)
                s = qubit_state(cfg, BlochPoint(theta, q))
                fast_lead0 = bool(windows[int(j)] < np.uint64(thr.t_int))
                assert (s.leading_digit == 0) == fast_lead0

    @pytest.mark.parametrize("depth,length", [(2, 16), (3, 32), (4, 64)])
    def test_short_seed_matches_full_constructor(self, depth, length):
        # a seed of at most 64 digits is read to its end, zero-padded
        cfg = StateConfig(champernowne(2, length), n_max=depth)
        grid = SampleGrid(depth=depth)
        windows = _grid_leading_windows(cfg.seed_string, depth)
        for j in range(grid.modulus):
            rotated = phase_rotate(cfg.seed_string, PAdicRational(2, j, depth)).digits
            padded = np.zeros(64, dtype=np.uint8)
            padded[:min(64, length)] = rotated[:64]
            assert windows[j] == int("".join(map(str, padded)), 2)
        for theta in (Fraction(1, 6), Fraction(1, 3), Fraction(2, 3)):
            leads = [qubit_state(cfg, BlochPoint(theta, PAdicRational(2, j, depth)))
                     .leading_digit for j in range(grid.modulus)]
            rep = polarization_experiment(theta, grid, cfg)
            assert rep.statistics[0].observed == leads.count(0) / grid.modulus

    def test_seed_below_the_guard_is_refused(self):
        cfg = StateConfig(champernowne(2, 8), n_max=1)
        with pytest.raises(SuffixTooShort):
            qubit_state(cfg, BlochPoint(Fraction(1, 3), PAdicRational(2, 1, 1)))
        with pytest.raises(SuffixTooShort, match="8 digits is below the 16-digit"):
            polarization_experiment(Fraction(1, 3), SampleGrid(depth=1), cfg)

    def test_window_cache_compares_seeds_by_equality(self):
        from digitq.experiments import _cached_windows, _grid_leading_windows
        a = champernowne(2, 1 << 12)
        b = phi_shift(a, 1)
        for s in (a, b):
            object.__setattr__(s, "_hash", 12345)
        assert hash(a) == hash(b)
        wa = _cached_windows(a, 6)
        wb = _cached_windows(b, 6)
        assert np.array_equal(wa, _grid_leading_windows(a, 6))
        assert np.array_equal(wb, _grid_leading_windows(b, 6))
        assert not np.array_equal(wa, wb)

    def test_depth_beyond_n_max_is_off_grid(self):
        with pytest.raises(OffGrid):
            polarization_experiment(Fraction(1, 3), SampleGrid(depth=13),
                                    default_config())

    def test_base3_grid_is_off_grid(self):
        with pytest.raises(OffGrid):
            polarization_experiment(Fraction(1, 3), SampleGrid(depth=7, base=3))

    def test_base3_seed_is_refused(self):
        # the sweep reads the seed's digits as bits
        with pytest.raises(ValueError, match="needs a base-2 seed"):
            polarization_experiment(Fraction(1, 3), SampleGrid(depth=7),
                                    default_qutrit_config())


def zero_run_config():
    """Qutrit config whose seed has no nonzero digit in its first 12
    triadic blocks."""
    zeros = 12 * 3 ** 6
    digits = np.concatenate([np.zeros(zeros, dtype=np.uint8),
                             champernowne(3, 3 ** 10 - zeros).digits])
    return StateConfig(DigitString(3, digits), n_max=7, inner_dyadic_depth=12)


def undecided_stage1_config(t2):
    """n_max = 1 config whose first 4096 seed digits hold 50 nonzero
    digits, the first 50 bits of t2, with 2s from place 4096 on."""
    bits = np.array([t2.digit(j) for j in range(1, 51)], dtype=np.uint8)
    digits = np.zeros(3 * 4096, dtype=np.uint8)
    digits[:40] = bits[:40] + 1
    digits[4000:4010] = bits[40:] + 1
    digits[4096:] = 2
    return StateConfig(DigitString(3, digits), n_max=1, inner_dyadic_depth=0)


def spelled(t, n):
    """The first n binary digits of the threshold t."""
    return np.array([t.digit(j) for j in range(1, n + 1)], dtype=np.uint8)


def t1_spelling_config(t1):
    """Qutrit config whose seed opens with t1's 64 digits, 0 as a zero and
    1 as a 2: unrotated by the triadic angle, its zero/nonzero indicator
    is t1's digits whatever the dyadic angle."""
    digits = champernowne(3, 3 ** 9).digits.copy()
    digits[:64] = 2 * spelled(t1, 64)
    return StateConfig(DigitString(3, digits), n_max=7, inner_dyadic_depth=12)


class TestTraceRule:
    def test_small_run_passes(self):
        rep = trace_rule_experiment(Fraction(1, 2), Fraction(1, 3),
                                    SampleGrid(depth=7, base=3),
                                    SampleGrid(depth=12),
                                    n_samples=512, seed=2)
        assert sum(s.observed for s in rep.statistics) == pytest.approx(1.0)
        for s in rep.statistics:
            assert s.deviation <= 2 * s.tolerance  # loose at this sample size

    def test_theta1_zero_is_exact(self):
        rep = trace_rule_experiment(Fraction(0), Fraction(1, 3),
                                    SampleGrid(depth=7, base=3),
                                    SampleGrid(depth=12),
                                    n_samples=128, seed=1)
        assert [s.observed for s in rep.statistics] == [1.0, 0.0, 0.0]

    def test_reproducible(self):
        kwargs = dict(theta1=Fraction(1, 2), theta2=Fraction(1, 4),
                      grid1=SampleGrid(depth=7, base=3),
                      grid2=SampleGrid(depth=12), n_samples=96, seed=8)
        a = trace_rule_experiment(**kwargs)
        b = trace_rule_experiment(**kwargs)
        assert a.to_json_dict()["statistics"] == b.to_json_dict()["statistics"]

    @pytest.mark.parametrize("grid1,grid2", [
        (SampleGrid(depth=9, base=3), SampleGrid(depth=12)),
        (SampleGrid(depth=7, base=3), SampleGrid(depth=14)),
        (SampleGrid(depth=7), SampleGrid(depth=12)),
        (SampleGrid(depth=7, base=3), SampleGrid(depth=7, base=3)),
    ])
    def test_grid_off_the_config_is_off_grid(self, grid1, grid2):
        # the qutrit config has triadic depth 7 and dyadic depth 12
        with pytest.raises(OffGrid):
            trace_rule_experiment(Fraction(1, 2), Fraction(1, 3), grid1, grid2,
                                  n_samples=8, seed=0)

    def test_needs_a_sample(self):
        with pytest.raises(ValueError):
            trace_rule_experiment(Fraction(1, 2), Fraction(1, 3),
                                  SampleGrid(depth=7, base=3), SampleGrid(depth=12),
                                  n_samples=0, seed=0)

    def test_base2_seed_is_refused_before_any_read(self, monkeypatch):
        # binary digits read as ternary would pass the statistics (0.543,
        # 0.363 and 0.094 against 0.5, 0.375 and 0.125 at 256 samples); the
        # constructor refuses the same config
        qcfg = StateConfig(champernowne(2, 1 << 18), n_max=7, inner_dyadic_depth=12)
        reads = []
        monkeypatch.setattr(experiments, "_trace_rows",
                            lambda *args: reads.append(args) or _trace_rows(*args))
        with pytest.raises(ValueError, match="trace rule needs a base-3 seed"):
            trace_rule_experiment(Fraction(1, 2), Fraction(1, 3), SampleGrid(7, 3),
                                  SampleGrid(12), cfg=qcfg, n_samples=256, seed=0)
        assert reads == []
        ang = QutritAngles(Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(0))
        with pytest.raises(ValueError, match="needs a base-3 seed"):
            qutrit_state(qcfg, ang)

    @staticmethod
    def _assert_fast_path_matches(qcfg, angle_pairs, depth1, depth2, rng):
        # one row per call: the batch's reads of a single sample
        for th1, th2 in angle_pairs:
            e1 = int(rng.integers(0, 3 ** depth1))
            e2 = int(rng.integers(0, 1 << depth2))
            ang = QutritAngles(th1, th2, PAdicRational(3, e1, depth1),
                               PAdicRational(2, e2, depth2))
            t1, t2 = qutrit_thresholds(th1, th2)
            fast = _qutrit_leading_digits(qcfg, t1, t2, SampleGrid(depth1, 3),
                                          SampleGrid(depth2), np.array([e1]), np.array([e2]))
            assert fast.tolist() == [qutrit_state(qcfg, ang).leading_digit], (th1, th2, e1, e2)

    def test_fast_path_matches_constructor(self):
        # random angles, then the suite's anchor pairs: theta1 = pi has
        # t1 = 0, theta2 = pi/2 has t2 = 1/2, and theta* = 2 acos(1/sqrt 3);
        # at depths 5/9 and at the experiment's own 7/12
        rng = numpy_philox(3)
        theta_star = 2 * math.acos(1 / math.sqrt(3))
        pairs = [(float(rng.uniform(0.2, 2.9)), float(rng.uniform(0.2, 2.9)))
                 for _ in range(25)]
        pairs += 6 * [(theta_star, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 3)),
                      (Fraction(1), Fraction(1, 4))]
        for depth1, depth2 in ((5, 9), (7, 12)):
            self._assert_fast_path_matches(default_qutrit_config(), pairs,
                                           depth1, depth2, rng)

    def test_fast_path_grows_past_a_zero_run(self):
        # no nonzero digit in the first 12 triadic blocks, so a row at
        # triadic numerator 0 must read past them before it can read any
        # nonzero digit
        rng = numpy_philox(4)
        pairs = [(float(rng.uniform(0.2, 2.9)), float(rng.uniform(0.2, 2.9)))
                 for _ in range(20)]
        self._assert_fast_path_matches(zero_run_config(), pairs, 7, 12, rng)

    @pytest.mark.parametrize("theta2", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_fast_path_waits_for_undecided_stage1_digits(self, theta2):
        # the first 4096 seed digits hold 50 nonzero digits, the first 50
        # bits of t2, so no stage-1 decision among them is made before the
        # continuation of 2s is read; zero padding would decide otherwise
        ang = QutritAngles(Fraction(1), theta2, Fraction(0), Fraction(0))
        t1, t2 = qutrit_thresholds(Fraction(1), theta2)
        qcfg = undecided_stage1_config(t2)
        zero = np.zeros(1, dtype=np.int64)
        fast = _qutrit_leading_digits(qcfg, t1, t2, SampleGrid(0, 3), SampleGrid(0),
                                      zero, zero)
        assert fast.tolist() == [qutrit_state(qcfg, ang).leading_digit]


class TestBatchedTraceRule:
    """The batch is pinned to the constructor, ``qutrit_state``, which
    ``_qutrit_leading_digit`` runs for the rows the batch cannot read."""

    SUITE_PAIRS = [(2 * math.acos(1 / math.sqrt(3)), Fraction(1, 2)),
                   (Fraction(1, 2), Fraction(1, 3)), (Fraction(1), Fraction(1, 4))]

    @staticmethod
    def counting_fallback(monkeypatch):
        """The arguments of every row the batch leaves to the constructor."""
        rows = []

        def per_sample(*args):
            rows.append(args)
            return _qutrit_leading_digit(*args)

        monkeypatch.setattr(experiments, "_qutrit_leading_digit", per_sample)
        return rows

    @staticmethod
    def recording_reads(monkeypatch):
        """The (dyadic numerators, places) of every ``_trace_rows`` gather."""
        reads = []

        def recording(d, rank, bits0, grid1, grid2, e1s, e2s, places):
            reads.append((e2s.tolist(), places))
            return _trace_rows(d, rank, bits0, grid1, grid2, e1s, e2s, places)

        monkeypatch.setattr(experiments, "_trace_rows", recording)
        return reads

    @staticmethod
    def assert_batch_matches(qcfg, angle_pairs, depth1, depth2, rng, n=16, e1_first=()):
        """n rows per pair, the first of them at the triadic numerators
        ``e1_first``, against ``qutrit_state``."""
        grid1, grid2 = SampleGrid(depth1, 3), SampleGrid(depth2)
        for th1, th2 in angle_pairs:
            t1, t2 = qutrit_thresholds(th1, th2)
            e1s = rng.integers(0, grid1.modulus, size=n)
            e1s[:len(e1_first)] = e1_first
            e2s = rng.integers(0, grid2.modulus, size=n)
            got = _qutrit_leading_digits(qcfg, t1, t2, grid1, grid2, e1s, e2s)
            want = [qutrit_state(qcfg, QutritAngles(th1, th2, PAdicRational(3, int(e1), depth1),
                                                    PAdicRational(2, int(e2), depth2))
                                 ).leading_digit
                    for e1, e2 in zip(e1s, e2s)]
            assert got.tolist() == want, (th1, th2)

    @pytest.mark.parametrize("depth1,depth2", [(5, 9), (7, 12)])
    def test_matches_the_harness(self, monkeypatch, depth1, depth2):
        # the constructor takes a few ms a row on the default seed, so
        # each pair checks few rows
        rng = numpy_philox(5)
        pairs = [(float(rng.uniform(0.2, 2.9)), float(rng.uniform(0.2, 2.9)))
                 for _ in range(25)]
        fallback = self.counting_fallback(monkeypatch)
        self.assert_batch_matches(default_qutrit_config(), self.SUITE_PAIRS + pairs,
                                  depth1, depth2, rng, n=4)
        assert fallback == []  # the default seed decides every row in the batch

    def test_zero_run_seed_regrows_past_w_inside_the_batch(self, monkeypatch):
        # no nonzero digit in the first 12 triadic blocks: the first W = 729
        # places are a rotated zero block, whose nonzero digits are the
        # triadic odometer's shifts alone.  A small numerator shifts few
        # places, so rows there can hold too few nonzero digits to decide
        # in W places; they read again at 4W and 16W places inside the
        # batch, and none reaches the constructor
        reads = self.recording_reads(monkeypatch)
        fallback = self.counting_fallback(monkeypatch)
        rng = numpy_philox(4)
        pairs = [(float(rng.uniform(0.2, 2.9)), float(rng.uniform(0.2, 2.9)))
                 for _ in range(20)]
        self.assert_batch_matches(zero_run_config(), pairs, 7, 12, rng, n=16,
                                  e1_first=(1, 2, 3))
        W = 3 ** 6
        assert {places for _, places in reads if places > W} == {4 * W, 16 * W}
        assert fallback == []

    def test_rows_decided_early_are_not_read_again_past_w(self, monkeypatch):
        # one call on the zero-run seed: at theta2 = 9pi/10 the rows at
        # triadic numerator 1 read again up to 16W places, and the rows 32
        # places decide are in no later read
        reads = self.recording_reads(monkeypatch)
        fallback = self.counting_fallback(monkeypatch)
        th1, th2 = Fraction(1, 2), Fraction(9, 10)
        t1, t2 = qutrit_thresholds(th1, th2)
        qcfg, grid1, grid2 = zero_run_config(), SampleGrid(7, 3), SampleGrid(12)
        e1s = make_rng(25).integers(0, grid1.modulus, size=32)
        e1s[::8] = 1
        e2s = numpy_philox(25).choice(grid2.modulus, size=32, replace=False)
        got = _qutrit_leading_digits(qcfg, t1, t2, grid1, grid2, e1s, e2s)
        read_at = {}
        for rows, places in reads:
            read_at.setdefault(places, set()).update(rows)
        W = 3 ** 6
        assert read_at[32] == set(e2s.tolist())
        decided_at_32 = read_at[32] - read_at[128]
        past_w = set().union(*(rows for places, rows in read_at.items() if places > W))
        assert len(decided_at_32) > 16 and set(e2s[e1s == 1].tolist()) == past_w
        assert not decided_at_32 & past_w and max(read_at) == 16 * W
        assert fallback == []
        for lead, e1, e2 in zip(got, e1s, e2s):
            ang = QutritAngles(th1, th2, PAdicRational(3, int(e1), 7),
                               PAdicRational(2, int(e2), 12))
            assert lead == qutrit_state(qcfg, ang).leading_digit

    @pytest.mark.parametrize("theta2", [0.5, 2.5])
    def test_one_place_window_falls_back_for_every_row(self, monkeypatch, theta2):
        # n_max = 1 leaves the batch one place per row up to W = 1; past it
        # the rows regrow 4x, but the first 4096 places hold only t2's first
        # 50 digits, so no stage-1 comparison settles, and the next read,
        # the whole seed, is not made: every row goes to the constructor
        t1, t2 = qutrit_thresholds(Fraction(1), theta2)
        qcfg = undecided_stage1_config(t2)
        reads = self.recording_reads(monkeypatch)
        fallback = self.counting_fallback(monkeypatch)
        zero = np.zeros(3, dtype=np.int64)
        got = _qutrit_leading_digits(qcfg, t1, t2, SampleGrid(0, 3), SampleGrid(0),
                                     zero, zero)
        assert [places for _, places in reads] == [4 ** k for k in range(7)]
        assert len(fallback) == 3
        ang = QutritAngles(Fraction(1), theta2, Fraction(0), Fraction(0))
        assert got.tolist() == 3 * [qutrit_state(qcfg, ang).leading_digit]

    def test_stage1_prefix_short_of_a_window_regrows_past_w(self, monkeypatch):
        # the first 729 places hold a zero and then t2's first 40 digits as
        # nonzero digits, so the first stage-1 window stays open in every
        # read up to W: the row regrows through each read size to W, and
        # the Champernowne digits at 4W places settle it inside the batch.
        # Read zero padded, its window would want a zero where the state
        # leads with a nonzero digit
        t1, t2 = qutrit_thresholds(2.9, 1.0)
        digits = np.zeros(3 ** 8, dtype=np.uint8)
        digits[1:41] = spelled(t2, 40) + 1
        digits[3 ** 6:] = champernowne(3, 3 ** 8 - 3 ** 6).digits
        qcfg = StateConfig(DigitString(3, digits), n_max=7, inner_dyadic_depth=0)
        ang = QutritAngles(2.9, 1.0, Fraction(0), Fraction(0))
        reads = self.recording_reads(monkeypatch)
        fallback = self.counting_fallback(monkeypatch)
        zero = np.zeros(1, dtype=np.int64)
        got = _qutrit_leading_digits(qcfg, t1, t2, SampleGrid(0, 3), SampleGrid(0),
                                     zero, zero)
        assert [places for _, places in reads] == [32, 128, 512, 729, 4 * 729]
        assert fallback == []
        assert got.tolist() == [qutrit_state(qcfg, ang).leading_digit] == [2]

    def test_seed_short_of_a_q2_block_falls_back_for_every_row(self, monkeypatch):
        # 3^7 seed digits hold no whole depth-12 block of 2048 nonzero ones,
        # so the batch makes no read; even numerators reduce to depth 11,
        # where the constructor builds them
        qcfg = StateConfig(champernowne(3, 3 ** 7), n_max=7, inner_dyadic_depth=12)
        assert np.count_nonzero(qcfg.seed_string.digits) < 2048
        reads = self.recording_reads(monkeypatch)
        fallback = self.counting_fallback(monkeypatch)
        rng = make_rng(7)
        e1s = rng.integers(0, 3 ** 7, size=8)
        e2s = 2 * rng.integers(0, 1 << 11, size=8)
        t1, t2 = qutrit_thresholds(Fraction(1, 2), Fraction(1, 3))
        got = _qutrit_leading_digits(qcfg, t1, t2, SampleGrid(7, 3), SampleGrid(12),
                                     e1s, e2s)
        assert reads == [] and len(fallback) == 8
        for lead, e1, e2 in zip(got, e1s, e2s):
            ang = QutritAngles(Fraction(1, 2), Fraction(1, 3), PAdicRational(3, int(e1), 7),
                               PAdicRational(2, int(e2), 12))
            assert lead == qutrit_state(qcfg, ang).leading_digit
        # an odd numerator stays at depth 12: the constructor has no whole
        # q2 block to rotate (LengthNotDivisible), and the statistic is degenerate
        with pytest.raises(DegenerateStatistic) as raised:
            _qutrit_leading_digits(qcfg, t1, t2, SampleGrid(7, 3), SampleGrid(12),
                                   e1s[:1], np.array([2 * int(e2s[0]) + 1]))
        assert isinstance(raised.value.__cause__, LengthNotDivisible)

    @pytest.mark.parametrize("length", [3 ** 7, 3 ** 8])
    def test_seed_without_a_nonzero_digit_is_degenerate(self, length):
        # no stage 1 to read, within the first prefix or past it: an empty
        # pipeline output must not read as a leading zero
        qcfg = StateConfig(DigitString(3, np.zeros(length, dtype=np.uint8)), n_max=7,
                           inner_dyadic_depth=12)
        with pytest.raises(DegenerateStatistic):
            trace_rule_experiment(Fraction(1, 2), Fraction(1, 3), SampleGrid(7, 3),
                                  SampleGrid(12), cfg=qcfg, n_samples=4, seed=0)

    def test_rows_a_short_read_leaves_undecided_read_again_inside_the_batch(
            self, monkeypatch):
        # at t2 = 1/2 stage 1 keeps every digit, and the seed's first 64
        # places spell t1 as zeros and nonzero digits, so rows such as those
        # at triadic numerator 0 (the identity, every third row here) leave
        # the stage-2 comparison open in 32 places; 128 places settle it,
        # and only those rows read them
        reads = []

        def recording(rot, *args):
            leads = _stage1_leads(rot, *args)
            reads.append((rot.shape, int(np.count_nonzero(leads < 0))))
            return leads

        monkeypatch.setattr(experiments, "_stage1_leads", recording)
        fallback = self.counting_fallback(monkeypatch)
        rng = make_rng(21)
        grid1, grid2 = SampleGrid(7, 3), SampleGrid(12)
        for th1 in (Fraction(1, 3), 2.2, Fraction(1, 2)):
            th2 = Fraction(1, 2)
            t1, t2 = qutrit_thresholds(th1, th2)
            qcfg = t1_spelling_config(t1)
            e1s = rng.integers(0, grid1.modulus, size=16)
            e1s[::3] = 0
            e2s = rng.integers(0, grid2.modulus, size=16)
            reads.clear()
            got = _qutrit_leading_digits(qcfg, t1, t2, grid1, grid2, e1s, e2s)
            (first, undecided), (again, left) = reads
            assert first == (16, 32) and 6 <= undecided < 16
            assert again == (undecided, 128) and left == 0
            for lead, e1, e2 in zip(got, e1s, e2s):
                ang = QutritAngles(th1, th2, PAdicRational(3, int(e1), 7),
                                   PAdicRational(2, int(e2), 12))
                assert lead == qutrit_state(qcfg, ang).leading_digit
        assert fallback == []

    def test_chunk_size_does_not_change_the_counts(self, monkeypatch):
        kwargs = dict(theta1=Fraction(1, 2), theta2=Fraction(1, 3),
                      grid1=SampleGrid(depth=7, base=3), grid2=SampleGrid(depth=12),
                      n_samples=40, seed=6)
        want = trace_rule_experiment(**kwargs).to_json_dict()["statistics"]
        for rows in (1, 7, 40):
            # a budget of `rows` first reads of 32 places
            monkeypatch.setattr(reduction, "_READ_PLACES", rows * 32)
            assert trace_rule_experiment(**kwargs).to_json_dict()["statistics"] == want

    def test_every_read_holds_at_most_the_budget(self, monkeypatch):
        # the seed of test_rows_a_short_read_leaves_undecided_read_again_inside_the_batch:
        # at triadic numerator 0 every row leaves its comparison open in 32
        # places, so all 64 rows read again at 128 places, and under a
        # budget of 16 such rows those reads split to stay within it
        monkeypatch.setattr(reduction, "_READ_PLACES", 16 * 128)
        th1, th2 = Fraction(1, 2), Fraction(1, 2)
        t1, t2 = qutrit_thresholds(th1, th2)
        qcfg = t1_spelling_config(t1)
        reads = self.recording_reads(monkeypatch)
        leads_by_read = []

        def leads_recording(rot, *args):
            leads = _stage1_leads(rot, *args)
            leads_by_read.append(leads)
            return leads

        monkeypatch.setattr(experiments, "_stage1_leads", leads_recording)
        fallback = self.counting_fallback(monkeypatch)
        grid1, grid2 = SampleGrid(7, 3), SampleGrid(12)
        e1s = np.zeros(64, dtype=np.int64)
        e2s = numpy_philox(24).choice(grid2.modulus, size=64, replace=False)
        got = _qutrit_leading_digits(qcfg, t1, t2, grid1, grid2, e1s, e2s)
        budget = reduction._READ_PLACES
        assert all(len(rows) * places <= max(budget, places) for rows, places in reads)
        assert {places for _, places in reads} == {32, 128}
        undecided = [e2 for (rows, places), leads in zip(reads, leads_by_read)
                     if places == 32 for e2, lead in zip(rows, leads) if lead < 0]
        read_again = [e2 for rows, places in reads if places == 128 for e2 in rows]
        assert len(undecided) == 64 and read_again == undecided
        assert len([1 for _, places in reads if places == 128]) > 1
        assert fallback == []
        for lead, e2 in zip(got, e2s):
            ang = QutritAngles(th1, th2, PAdicRational(3, 0, 7),
                               PAdicRational(2, int(e2), 12))
            assert lead == qutrit_state(qcfg, ang).leading_digit


class TestTraceRows:
    """The batch's composed gather, pinned to the constructor's rotation
    stage on the whole seed."""

    @pytest.mark.parametrize("depth1,depth2", [(7, 12), (5, 9), (0, 0)])
    @pytest.mark.parametrize("config", [default_qutrit_config, zero_run_config])
    def test_rows_are_a_prefix_of_the_pipeline(self, config, depth1, depth2):
        qcfg = config()
        d = qcfg.seed_string.digits
        W = 3 ** (qcfg.n_max - 1)
        rank, bits0 = _trace_sources(d, W, depth2)
        grid1, grid2 = SampleGrid(depth1, 3), SampleGrid(depth2)
        rng = make_rng(22)
        e1s = rng.integers(0, grid1.modulus, size=10)
        e2s = rng.integers(0, grid2.modulus, size=10)
        want = [_qutrit_pipeline(d, PAdicRational(3, int(e1), depth1),
                                 PAdicRational(2, int(e2), depth2))
                for e1, e2 in zip(e1s, e2s)]
        for P in (256, W, 4 * W):
            if P > W:  # the sources past W, as the batch builds them
                rank, bits0 = _trace_sources(d, P, depth2)
            rows = _trace_rows(d, rank, bits0, grid1, grid2, e1s, e2s, P)
            assert rows.shape == (10, P)
            for row, full in zip(rows, want):
                assert np.array_equal(row, full[:P])


    @staticmethod
    def whole_seed_sources(d, cover, depth2):
        """``_trace_sources`` with the nonzero digits taken from the whole seed."""
        nonzero = d[:cover] != 0
        block2 = 1 << max(depth2 - 1, 0)
        need = -(-(np.count_nonzero(nonzero) + 1) // block2) * block2
        bits0 = d[d != 0][:need] - 1
        if bits0.size < need:
            return None
        return np.maximum(np.cumsum(nonzero, dtype=np.int32) - 1, 0), bits0

    @pytest.mark.parametrize("config", [
        default_qutrit_config, zero_run_config,
        lambda: undecided_stage1_config(qutrit_thresholds(Fraction(1), 0.5)[1])])
    def test_sources_read_from_a_prefix_equal_the_whole_seed_form(self, config):
        # the prefix scan stops once it holds the nonzero digits it needs, or
        # at the seed's end; covers up to the whole seed reach the None case
        qcfg = config()
        d = qcfg.seed_string.digits
        W = 3 ** max(qcfg.n_max - 1, 0)
        blocks = d.size // W
        nones = 0
        for k in sorted({1, 4, 16, 64, blocks // 2, blocks - 1, blocks}):
            for depth2 in (0, 1, 9, 12, 16):
                got = _trace_sources(d, k * W, depth2)
                want = self.whole_seed_sources(d, k * W, depth2)
                if want is None:
                    nones += 1
                    assert got is None, (k, depth2)
                else:
                    assert got is not None, (k, depth2)
                    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
                    assert got[1].dtype == want[1].dtype
        assert nones >= 5  # every depth at the whole seed, and more


class TestStage1Read:
    """The one stage-1 read, pinned straight to the constructor's
    two-stage reduction on random base-3 rows."""

    @staticmethod
    def random_rows(rng, shape):
        # dense rows, or rows where four digits in five are zeros
        p = [1 / 3, 1 / 3, 1 / 3] if rng.integers(2) else [0.8, 0.1, 0.1]
        return rng.choice(3, size=shape, p=p).astype(np.uint8)

    @staticmethod
    def oracle_lead(digits, t1, t2):
        """The reduced string's leading digit, -1 when it is empty."""
        try:
            return _qutrit_reduce(digits, t1, t2).leading_digit
        except EmptyResult:
            return -1

    def assert_leads(self, rows, t1, t2, rng):
        """A prefix's lead holds whatever digits follow it.  Returns the
        number of continued checks."""
        continued_checks = 0
        for row, lead in zip(rows, _stage1_leads(rows, t1, t2)):
            if lead < 0:
                continue
            for _ in range(2):
                tail = self.random_rows(rng, rng.integers(1, 401))
                try:
                    want = self.oracle_lead(np.concatenate([row, tail]), t1, t2)
                except SuffixTooShort:
                    continue
                assert want == lead
                continued_checks += 1
        return continued_checks

    def test_matches_the_two_stage_reduction(self):
        rng = numpy_philox(18)
        checks = 0
        for _ in range(300):
            rows = self.random_rows(rng, (rng.integers(1, 9), rng.integers(1, 401)))
            t1, t2 = qutrit_thresholds(float(rng.uniform(0.05, 3.1)),
                                       float(rng.uniform(0.05, 3.1)))
            checks += self.assert_leads(rows, t1, t2, rng)
        assert checks > 500

    def test_matches_at_the_window_edges(self):
        # random rows almost never bring a window within one digit of its
        # threshold, so these rows do: at t2 = 1/2 stage 1 keeps every
        # digit and the rows open with t1's 64 digits, so the stage-2
        # window's last digit decides the lead; at t1 = 0 every known kept
        # nonzero digit is wanted, and 64 or more zeros precede t2's first
        # 63 digits, the last nonzero digits of the row, so the first of
        # them is one digit short of being decided
        rng = numpy_philox(19)
        checks = 0
        for _ in range(100):
            S = rng.integers(1, 9)
            t1, t2 = qutrit_thresholds(float(rng.uniform(0.05, 3.1)), Fraction(1, 2))
            head = spelled(t1, 64) * rng.integers(1, 3, size=(S, 64))
            tail = self.random_rows(rng, (S, rng.integers(0, 337)))
            checks += self.assert_leads(np.hstack([head, tail]), t1, t2, rng)
            t1, t2 = qutrit_thresholds(Fraction(1), float(rng.uniform(0.05, 3.1)))
            zeros = np.zeros((S, rng.integers(64, 338)), dtype=np.uint8)
            last = np.tile(spelled(t2, 63) + 1, (S, 1))
            checks += self.assert_leads(np.hstack([zeros, last]), t1, t2, rng)
        assert checks > 100


class TestInterference:
    def test_exhaustive_grid(self):
        rep = interference_experiment(SampleGrid(depth=10))
        by_name = {s.name: s for s in rep.statistics}
        assert by_name["complementarity violations"].observed == 0
        assert by_name["blocked output leading-1 violations"].observed == 0
        assert by_name["two-arm constant-1 violations"].observed == 0
        assert by_name["freq[transmitted detection]"].deviation <= 0.02

    def test_depth_beyond_n_max_is_off_grid(self):
        with pytest.raises(OffGrid):
            interference_experiment(SampleGrid(depth=13), default_config())

    def test_base3_grid_is_off_grid(self):
        with pytest.raises(OffGrid):
            interference_experiment(SampleGrid(depth=7, base=3))

    def test_base3_seed_is_refused(self):
        with pytest.raises(ValueError, match="needs a base-2 seed"):
            interference_experiment(SampleGrid(depth=7), default_qutrit_config())

    @staticmethod
    def _per_sample_report(grid, cfg, states=None):
        # oracle: every sample's state, by default its 64-digit prefix,
        # through the interferometer maps of ``states`` and the compound
        # reduction
        nums = np.arange(grid.modulus)
        n = nums.size
        if states is None:
            windows = _grid_leading_windows(cfg.seed_string, grid.depth)[nums]
            prefixes = np.unpackbits(windows.astype(">u8").view(np.uint8)).reshape(n, 64)
            states = [DigitString(2, digits, _validate=False) for digits in prefixes]
        transmitted = reflected = complementary = blocked_lead = blocked_hi = full = 0
        for state in states:
            t_beam, r_beam = beamsplitter_pair(state)
            t_hit = reduce_compound(t_beam).attractor_index == 1
            r_hit = reduce_compound(r_beam).attractor_index == 1
            transmitted += t_hit
            reflected += r_hit
            complementary += t_hit == r_hit
            blocked_lead += blocked_mz_output(state).leading_digit != 1
            blocked_hi += t_hit
            out = full_mz_output(state)
            full += not (out.is_constant() and out.leading_digit == 1)
        tol = binomial_tolerance(0.5, n)
        stats = [
            Statistic("freq[transmitted detection]", transmitted / n, 0.5, tol),
            Statistic("freq[reflected detection]", reflected / n, 0.5, tol),
            Statistic("complementarity violations", complementary, 0.0, 0.0),
            Statistic("blocked output leading-1 violations", blocked_lead, 0.0, 0.0),
            Statistic("freq[blocked downstream channel]", blocked_hi / n, 0.5, tol),
            Statistic("two-arm constant-1 violations", full, 0.0, 0.0),
        ]
        return ExperimentReport("interference", {}, n, stats, 0)

    @pytest.mark.parametrize("seed_name", ["champernowne", "concatenated_squares",
                                           "constant_0"])
    def test_leading_bits_match_per_sample_states(self, seed_name):
        seed_string = {
            "champernowne": lambda: champernowne(2, 1 << 18),
            "concatenated_squares": lambda: concatenated_squares(2, 1 << 18),
            "constant_0": lambda: DigitString.constant(2, 0, 1 << 18),
        }[seed_name]()
        cfg = StateConfig(seed_string, n_max=12)
        for grid in [SampleGrid(depth=d) for d in (1, 4, 8, 12)]:
            rep = interference_experiment(grid, cfg)
            assert rep.to_csv() == self._per_sample_report(grid, cfg).to_csv()
            assert any(note.startswith("by construction") and "structural" in note
                       for note in rep.notes)

    @pytest.mark.parametrize("depth,length", [(0, 4), (2, 16), (3, 32), (4, 64)])
    def test_short_seed_matches_interferometer_maps(self, depth, length):
        # the oracle rotates the whole seed, shorter than the 64-digit window
        cfg = StateConfig(champernowne(2, length), n_max=depth)
        grid = SampleGrid(depth=depth)
        states = [phase_rotate(cfg.seed_string, PAdicRational(2, j, depth))
                  for j in range(grid.modulus)]
        rep = interference_experiment(grid, cfg)
        assert rep.to_csv() == self._per_sample_report(grid, cfg, states).to_csv()


# the seed strings the grid lemmas are checked on, built on demand
LEMMA_SEEDS = {
    "champernowne": lambda: champernowne(2, 1 << 18),
    "concatenated_squares": lambda: concatenated_squares(2, 1 << 18),
    "constant_0": lambda: DigitString.constant(2, 0, 1 << 18),
    "random": lambda: DigitString(
        2, make_rng(5).integers(0, 2, 1 << 18, dtype=np.uint8), _validate=False),
}


def one_gather_windows(seed_string, depth):
    """The grid's leading windows from one gather of every numerator, the
    sweep's form before it read in parts of the place budget."""
    bits = _rotated_rows(seed_string.digits, 2, depth, np.arange(1 << depth)[:, None],
                         np.arange(min(64, len(seed_string))))
    return _window_u64(bits, 1)[:, 0]


class TestGridLeadingWindows:
    """The grid sweep reads in parts of the place budget and equals the one
    gather of the whole grid, whatever the budget."""

    @pytest.mark.parametrize("budget", [64, 100, None])
    @pytest.mark.parametrize("seed_string, depths", [
        (lambda: champernowne(2, 1 << 18), (0, 1, 10, 12)),
        (lambda: concatenated_squares(2, 1 << 14), (0, 1, 10, 12)),
        (lambda: DigitString(2, make_rng(25).integers(0, 2, 1 << 12)), (0, 1, 10, 12)),
        # 48 digits: a short window, in three whole 16-digit blocks at depth 5
        (lambda: champernowne(2, 48), (0, 1, 5)),
    ], ids=["champernowne", "squares", "random", "short"])
    def test_matches_one_gather_of_the_whole_grid(self, monkeypatch, budget, seed_string,
                                                  depths):
        seed_string = seed_string()
        if budget is not None:
            monkeypatch.setattr(reduction, "_READ_PLACES", budget)
        budget = reduction._READ_PLACES
        reads = []

        def recording(digits, p, depth, numerators, places):
            reads.append((numerators.shape[0], places.size))
            return _rotated_rows(digits, p, depth, numerators, places)

        monkeypatch.setattr(experiments, "_rotated_rows", recording)
        for depth in depths:
            reads.clear()
            got = _grid_leading_windows(seed_string, depth)
            assert got.dtype == np.uint64
            assert np.array_equal(got, one_gather_windows(seed_string, depth))
            assert sum(rows for rows, _ in reads) == 1 << depth
            assert all(rows * places <= max(budget, places) for rows, places in reads)


class TestTopBitLemma:
    @pytest.mark.parametrize("seed_name", list(LEMMA_SEEDS))
    def test_half_the_grid_leads_with_one(self, seed_name):
        """Over the exhaustive depth-K grid exactly 2^(K-1) of the rotated
        seeds lead with 1, whatever the seed string.

        Proof: the rotation by e/2^K acts on blocks of 2^(K-1) digits as
        the e-th power of the depth-(K-1) odometer, and place 0 of that
        power reads source place (-e) mod 2^(K-1) with digit shift
        ceil(e / 2^(K-1)) mod 2.  So the shift is 1 exactly for e in
        1..2^(K-1), and exponents e and e + 2^(K-1) (e < 2^(K-1)) read the
        same source place with opposite shifts: of each such pair exactly
        one leading digit is 1.  The pairs partition 0..2^K - 1.
        """
        seed_string = LEMMA_SEEDS[seed_name]()
        for depth in range(1, 13):
            windows = _grid_leading_windows(seed_string, depth)
            assert windows.size == 1 << depth
            assert int(np.count_nonzero(windows >> np.uint64(63))) == 1 << (depth - 1)


class TestTwoBitLemma:
    @pytest.mark.parametrize("seed_name", list(LEMMA_SEEDS))
    def test_each_leading_pair_is_a_quarter_of_the_grid(self, seed_name):
        """Over the exhaustive depth-K grid, K >= 2, each of the leading
        two-bit patterns 00, 01, 10 and 11 occurs exactly 2^(K-2) times,
        whatever the seed string.

        Proof: write B = 2^(K-1) for the block size; places 0 and 1 lie in
        the first block.  Exponents e and e + B flip both leading bits: this
        is the pairing of TestTopBitLemma, and it holds at place 1 as at
        place 0 (same source place, opposite shift).  Exponents e and
        e + B/2 read the same source pair {a, a XOR 1} at places 0 and 1,
        swapped: the sources are rev(x) for x = -e and B/2 - e mod B, which
        differ by B/2, so their reversals differ only in the low bit.  And
        exactly one of the two shifts changes parity, so b0 XOR b1 flips.
        Hence e, e + B/2, e + B and e + 3B/2 (e < B/2) give each pattern
        once, and these quadruples partition 0..2^K - 1.
        """
        seed_string = LEMMA_SEEDS[seed_name]()
        for depth in range(2, 13):
            windows = _grid_leading_windows(seed_string, depth)
            pairs = np.bincount((windows >> np.uint64(62)).astype(np.int64), minlength=4)
            assert pairs.tolist() == [1 << (depth - 2)] * 4


class TestHotPathsBuildNoOperator:
    def test_trace_rule_and_walk_leave_the_rotation_cache_alone(self):
        # both read their rotations from the odometer; a dense operator
        # would show as a lookup in the rotation cache
        before = _rotation_operator_cached.cache_info()
        trace_rule_experiment(Fraction(1, 2), Fraction(1, 3), SampleGrid(depth=7, base=3),
                              SampleGrid(depth=12), n_samples=64, seed=3)
        weak_reduction_experiment(Fraction(1, 3), ensemble_size=20, seed=3)
        after = _rotation_operator_cached.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_epr_ensemble_reads_the_odometer(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense operator applied")

        monkeypatch.setattr(experiments, "apply_operator", refuse)
        before = _rotation_operator_cached.cache_info()
        pairs = list(make_epr_ensemble(Fraction(1, 3), 64))
        after = _rotation_operator_cached.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert [p.pair_index for p in pairs] == list(range(1, 65))


def _walk_starts(n: int, depth: int, seed: int) -> np.ndarray:
    """Start numerators of an n-walk weak-reduction ensemble on the
    depth grid, drawn as the experiment draws them."""
    return make_rng(derive_seed(seed, 1 << 62)).integers(0, 1 << depth, size=n)


class TestWeakReduction:
    def test_balanced_start(self):
        rep = weak_reduction_experiment(Fraction(1, 2), ensemble_size=300, seed=9)
        by_name = {s.name: s for s in rep.statistics}
        assert by_name["freq[north absorption]"].deviation <= 0.08
        assert by_name["freq[non-convergence]"].observed <= 0.01

    def test_reproducible(self):
        a = weak_reduction_experiment(Fraction(1, 3), ensemble_size=100, seed=5)
        b = weak_reduction_experiment(Fraction(1, 3), ensemble_size=100, seed=5)
        assert a.to_json_dict()["statistics"] == b.to_json_dict()["statistics"]

    def test_jitter_deeper_than_config_is_off_grid(self):
        # the default config's grid stops at depth 12
        with pytest.raises(OffGrid):
            weak_reduction_experiment(Fraction(1, 3), ensemble_size=4,
                                      jitter_depth=14)

    def test_needs_a_walk(self):
        with pytest.raises(ValueError):
            weak_reduction_experiment(Fraction(1, 3), ensemble_size=0)

    @pytest.mark.parametrize("walks", [1, 50])
    def test_base3_seed_is_refused(self, monkeypatch, walks):
        # the walk rotates and reduces the seed's digits as bits
        self._refuse_reads(monkeypatch)
        with pytest.raises(ValueError, match="needs a base-2 seed"):
            weak_reduction_experiment(Fraction(1, 3), ensemble_size=walks, jitter_depth=3,
                                      cfg=StateConfig(champernowne(3, 243), n_max=3))

    @staticmethod
    def _refuse_reads(monkeypatch):
        def refuse(*args):
            raise AssertionError("read before the arguments were checked")

        monkeypatch.setattr(experiments, "_reduced_values", refuse)
        monkeypatch.setattr(experiments, "weak_reduction_walk", refuse)

    @pytest.mark.parametrize("walks", [1, 50])
    @pytest.mark.parametrize("theta0", [Fraction(0), Fraction(1), Fraction(4, 3),
                                        0.0, math.pi, -0.5, 4.0, math.nan])
    def test_theta0_off_the_open_interval_is_refused(self, monkeypatch, walks, theta0):
        self._refuse_reads(monkeypatch)
        with pytest.raises(ValueError, match="theta0 must lie strictly between 0 and pi"):
            weak_reduction_experiment(theta0, ensemble_size=walks)

    @pytest.mark.parametrize("walks", [1, 50])
    @pytest.mark.parametrize("alpha, dt", [(0.0, 1.0), (-1.0, 1.0), (4096.0, 0.0),
                                           (4096.0, -1.0), (math.nan, 1.0)])
    def test_nonpositive_scale_or_step_is_refused(self, monkeypatch, walks, alpha, dt):
        self._refuse_reads(monkeypatch)
        with pytest.raises(ValueError, match="alpha and dt must be positive"):
            weak_reduction_experiment(Fraction(1, 3), ensemble_size=walks, alpha=alpha,
                                      dt=dt)

    @pytest.mark.parametrize("walks", [1, 50])
    @pytest.mark.parametrize("max_steps", [0, -3])
    def test_no_step_budget_leaves_every_walk_unconverged(self, walks, max_steps):
        rep = weak_reduction_experiment(Fraction(1, 3), ensemble_size=walks,
                                        max_steps=max_steps)
        north, stuck = rep.statistics
        assert math.isnan(north.observed)
        assert stuck.observed == 1.0
        assert rep.notes == ["mean steps to absorb: nan"]
        assert rep.to_csv() == _reference_report(Fraction(1, 3), walks,
                                                 max_steps=max_steps).to_csv()

    @staticmethod
    def _record_loop(monkeypatch, walk=None):
        """(lam0, steps) of every walk the experiment's loop runs; steps is
        None for a walk that raised NonConvergence."""
        walks = []
        walk = walk or experiments.weak_reduction_walk

        def record(theta0, lam0, *args):
            try:
                res = walk(theta0, lam0, *args)
            except NonConvergence:
                walks.append((lam0, None))
                raise
            walks.append((lam0, res.outcome.steps))
            return res

        monkeypatch.setattr(experiments, "weak_reduction_walk", record)
        return walks

    @staticmethod
    def _record_batch(monkeypatch):
        """(depth, numerators, values) of every batched step-1 read."""
        reads = []
        values = experiments._reduced_values

        def record(r0, depth, nums, thr):
            rs = values(r0, depth, nums, thr)
            reads.append((depth, nums, rs))
            return rs

        monkeypatch.setattr(experiments, "_reduced_values", record)
        return reads

    @staticmethod
    def _batch_absorbed(reads, theta0, starts, alpha, dt=1.0) -> int:
        """Walks whose start the batch read and whose step 1 lands in a
        pole, counted from the read's own values."""
        (_, nums, rs), = reads
        value = dict(zip(nums.tolist(), rs))
        th0 = _angle_float(theta0)
        return sum(_euler_step(th0, value[m], alpha, dt)[1] is not None
                   for m in starts.tolist())

    @pytest.mark.parametrize("alpha", [4096.0, 16.0])
    def test_jitter_stream_is_made_only_for_a_second_step(self, monkeypatch, alpha):
        # a walk that absorbs in step 1 never draws from its jitter stream;
        # at alpha 16 three of the 20 walks take a second step.  Every walk
        # runs directly on the experiment's own starts, since the
        # experiment's batch ends the step-1 walks without a walk call
        made = []
        monkeypatch.setattr(reduction, "make_rng",
                            lambda seed: made.append(seed) or make_rng(seed))
        starts = _walk_starts(20, 10, 0)
        steps = [weak_reduction_walk(math.pi / 2, PAdicRational(2, int(m), 10),
                                     default_config().seed_string, 10, 1.0, alpha,
                                     derive_seed(0, i)).outcome.steps
                 for i, m in enumerate(starts)]
        assert len(steps) == 20
        assert len(made) == sum(n > 1 for n in steps)
        made.clear()
        walks = self._record_loop(monkeypatch)
        reads = self._record_batch(monkeypatch)
        weak_reduction_experiment(Fraction(1, 2), ensemble_size=20, alpha=alpha, seed=0)
        assert len(walks) + self._batch_absorbed(reads, Fraction(1, 2), starts, alpha) == 20
        assert sorted(n for _, n in walks) == sorted(n for n in steps if n > 1)
        assert len(made) == sum(n > 1 for _, n in walks)

    @pytest.mark.parametrize("alpha", [4096.0, 16.0])
    def test_threshold_is_built_once_per_angle(self, monkeypatch, alpha):
        # every walk's step 1 is at theta0, so only later steps can miss;
        # the batch reads every walk's step 1 and the loop runs the rest
        walks = self._record_loop(monkeypatch)
        reads = self._record_batch(monkeypatch)
        misses = []
        cos2 = reduction._cos2_half
        monkeypatch.setattr(reduction, "_cos2_half",
                            lambda theta: misses.append(theta) or cos2(theta))
        reduction._threshold_int.cache_clear()
        weak_reduction_experiment(Fraction(1, 3), ensemble_size=200, alpha=alpha, seed=0)
        absorbed = self._batch_absorbed(reads, Fraction(1, 3), _walk_starts(200, 10, 0),
                                        alpha)
        steps = [n for _, n in walks] + [1] * absorbed
        assert len(steps) == 200
        assert 1 <= len(misses) <= 1 + sum(steps) - len(steps)

    def test_jitter_free_walks_start_on_the_config_grid(self, monkeypatch):
        # without jitter the start longitude is a walk's only randomness;
        # the batch reads every distinct start, and the walks it does not
        # absorb are not run, since a jitter-free walk can take thousands
        # of steps
        def stub(theta0, lam0, *args):
            raise NonConvergence("not run")

        walks = self._record_loop(monkeypatch, stub)
        reads = self._record_batch(monkeypatch)
        weak_reduction_experiment(Fraction(1, 3), ensemble_size=64, jitter_depth=0)
        n_max = default_config().n_max
        (depth, nums, _), = reads
        starts = [PAdicRational(2, int(m), depth) for m in nums] + [q for q, _ in walks]
        absorbed = self._batch_absorbed(reads, Fraction(1, 3), _walk_starts(64, n_max, 0),
                                        4096.0)
        assert len(walks) + absorbed == 64
        assert depth == n_max
        assert max(q.depth for q in starts) == n_max
        assert {q.numerator for q, _ in walks} <= {q.numerator for q in starts}
        assert len({q.numerator for q in starts}) > 32


def _reference_report(theta0, ensemble_size: int, jitter_depth: int = 10,
                      alpha: float = 4096.0, dt: float = 1.0, max_steps: int = 4096,
                      cfg=None, seed: int = 0) -> ExperimentReport:
    """``weak_reduction_experiment`` as a plain per-walk loop: every walk
    runs ``weak_reduction_walk`` from its start, with no batched step 1."""
    cfg = cfg or default_config()
    th0 = _angle_float(theta0)
    depth = jitter_depth or cfg.n_max
    north = finished = stuck = steps_total = 0
    for i, m in enumerate(_walk_starts(ensemble_size, depth, seed).tolist()):
        try:
            res = weak_reduction_walk(th0, PAdicRational(2, m, depth), cfg.seed_string,
                                      jitter_depth, dt, alpha, derive_seed(seed, i),
                                      max_steps)
        except NonConvergence:
            stuck += 1
            continue
        finished += 1
        steps_total += res.outcome.steps
        north += res.outcome.attractor_index == 0
    p = math.cos(th0 / 2) ** 2
    stats = [Statistic("freq[north absorption]",
                       north / finished if finished else float("nan"), p,
                       binomial_tolerance(p, max(finished, 1))),
             Statistic("freq[non-convergence]", stuck / ensemble_size, 0.0, 0.01)]
    mean = steps_total / finished if finished else float("nan")
    return ExperimentReport("weak_reduction", {}, ensemble_size, stats, seed,
                            notes=[f"mean steps to absorb: {mean:.2f}"])


def _assert_matches_reference(theta0, ensemble_size, **kw):
    rep = weak_reduction_experiment(theta0, ensemble_size=ensemble_size, **kw)
    ref = _reference_report(theta0, ensemble_size, **kw)
    assert rep.to_csv() == ref.to_csv()
    assert rep.notes == ref.notes


def _biased_seed(n: int, p_one: float, seed: int) -> DigitString:
    return DigitString(2, (numpy_philox(seed).random(n) < p_one).astype(np.uint8))


class TestBatchedStep1:
    """The experiment's batched step 1 (``_reduced_values`` and
    ``_euler_step`` once per distinct start) against the per-walk loop
    and the constructor."""

    @staticmethod
    def _constructor_value(r0, q, thr) -> float:
        """r off partial_reduce(phase_rotate(r0, q), thr), the full
        constructor: the binary fraction of its first 96 survivors."""
        digs = partial_reduce(phase_rotate(r0, q), thr)[0].digits[:96]
        return _digits_to_int(digs, 2) / 2 ** digs.size

    @pytest.mark.parametrize("alpha", [4096.0, 16.0])
    @pytest.mark.parametrize("jitter_depth", [0, 4, 10])
    @pytest.mark.parametrize("theta0", [Fraction(1, 3), Fraction(2, 3), Fraction(1, 7),
                                        1.1, 0.4])
    def test_step1_matches_the_walk(self, theta0, jitter_depth, alpha):
        cfg = default_config()
        r0 = cfg.seed_string
        depth = jitter_depth or cfg.n_max
        th0 = _angle_float(theta0)
        thr = BinaryThreshold.from_angle(th0)
        nums = np.unique(_walk_starts(120, depth, 3))
        rs = _reduced_values(r0, depth, nums, thr)
        assert not np.isnan(rs).any()
        assert all(type(r) is float for r in rs)
        for m, r in zip(nums.tolist(), rs):
            lam0 = PAdicRational(2, m, depth)
            q = PAdicRational(2, lam0.numerator << (max(jitter_depth, lam0.depth)
                                                    - lam0.depth),
                              max(jitter_depth, lam0.depth))
            assert r.hex() == _reduced_values(r0, q.depth, np.array([q.numerator]),
                                              thr)[0].hex()
            pole = _euler_step(th0, r, alpha, 1.0)[1]
            try:
                res = weak_reduction_walk(th0, lam0, r0, jitter_depth, 1.0, alpha, 0, 1)
            except NonConvergence:
                assert pole is None
            else:
                assert res.outcome.steps == 1
                assert pole == res.outcome.attractor_index
                assert res.trajectory[0][1].hex() == r.hex()

    @pytest.mark.parametrize("theta0, jitter_depth, alpha, max_steps, seed", [
        (Fraction(1, 3), 10, 4096.0, 4096, 0),
        (Fraction(2, 3), 4, 16.0, 4096, 1),
        (1.1, 10, 16.0, 4096, 2927076875),
        (Fraction(1, 3), 0, 4096.0, 30, 0),
        (Fraction(5, 6), 0, 64.0, 30, 5),
    ])
    def test_report_matches_the_per_walk_loop(self, theta0, jitter_depth, alpha,
                                              max_steps, seed):
        _assert_matches_reference(theta0, 300, jitter_depth=jitter_depth, alpha=alpha,
                                  max_steps=max_steps, seed=seed)

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_chunk_size_does_not_change_the_read(self, monkeypatch, gathers, rows):
        r0 = default_config().seed_string
        thr = BinaryThreshold.from_angle(_angle_float(Fraction(2, 3)))
        nums = np.unique(_walk_starts(200, 10, 0))
        expected = _reduced_values(r0, 10, nums, thr)
        monkeypatch.setattr(reduction, "_READ_PLACES", (rows or nums.size) * 448)
        gathers.clear()
        assert np.array_equal(_reduced_values(r0, 10, nums, thr), expected)
        assert max(len(m) for m, places in gathers if places == 448) == (rows or nums.size)
        _assert_matches_reference(Fraction(2, 3), 200, alpha=16.0)

    @staticmethod
    def _tie_config(tail: np.ndarray) -> StateConfig:
        # the float pi/2 puts t just above 1/2: the leading 1 survives on the
        # 1 fifty places on, which is deleted, and every 0 survives, so the
        # unrotated row's survivors read a 1 and then at least 150 zeros
        digits = np.concatenate([[1], np.zeros(49, dtype=np.uint8), [1],
                                 np.zeros(150, dtype=np.uint8), tail])
        return StateConfig(DigitString(2, digits), n_max=2)

    def test_tie_pattern_reads_every_survivor_and_agrees(self, gathers):
        # a 1 surviving in the random tail makes the value 1/2 as a float,
        # but not exactly, so no Tie: only the unrotated row reads again,
        # the whole string in one gather
        cfg = self._tie_config(_biased_seed(311, 0.5, 4).digits)
        thr = BinaryThreshold.from_angle(_angle_float(Fraction(1, 2)))
        rs = _reduced_values(cfg.seed_string, 2, np.arange(4), thr)
        assert rs[0] == 0.5
        assert gathers == [([0, 1, 2, 3], 448), ([0], 512)]
        assert rs == [self._constructor_value(cfg.seed_string, PAdicRational(2, m, 2), thr)
                      for m in range(4)]
        _assert_matches_reference(Fraction(1, 2), 40, jitter_depth=2, max_steps=40,
                                  cfg=cfg)

    def test_tie_raises_from_the_batch_as_the_walk_does(self, monkeypatch):
        cfg = self._tie_config(np.zeros(311, dtype=np.uint8))
        with pytest.raises(Tie):
            _reference_report(Fraction(1, 2), 40, jitter_depth=2, cfg=cfg)

        def refuse(*args):
            raise AssertionError("the batch's Tie reached the per-walk loop")

        monkeypatch.setattr(experiments, "weak_reduction_walk", refuse)
        with pytest.raises(Tie):
            weak_reduction_experiment(Fraction(1, 2), 40, jitter_depth=2, cfg=cfg)

    def test_tie_within_the_pole_band_raises_as_the_walk_does(self):
        # theta0 = 1e-7 lies within TOL_POLE of 0, so any r that is not a
        # Tie ends the walk in step 1; t = 1 - 2.5e-15 keeps only the first
        # of 49 leading 1s, and nothing follows it but 0s
        cfg = StateConfig(DigitString(2, [1] * 49 + [0] * 463), n_max=2)
        thr = BinaryThreshold.from_angle(1e-7)
        with pytest.raises(Tie):
            _reduced_values(cfg.seed_string, 2, np.arange(1), thr)
        with pytest.raises(Tie):
            _reference_report(1e-7, 40, jitter_depth=2, cfg=cfg)
        with pytest.raises(Tie):
            weak_reduction_experiment(1e-7, 40, jitter_depth=2, cfg=cfg)

    def test_rows_short_of_survivors_near_a_pole_read_again_and_agree(self, gathers):
        # near theta = 0 only lo digits and hi digits before a long run of
        # 1s survive, so on a seed of nine-tenths 1s some rotated rows keep
        # fewer than 96 digits among the places their first read decides:
        # those rows, and only they, read again at twice the places.  The
        # rows are found from the continuations: a place is decided when
        # the all-0 and the all-1 continuations of the read keep it alike
        cfg = StateConfig(_biased_seed(4096, 0.9, 7), n_max=4)
        thr = BinaryThreshold.from_angle(1e-3)
        rs = _reduced_values(cfg.seed_string, 4, np.arange(16), thr)
        short = []
        for m in range(16):
            row = phase_rotate(cfg.seed_string, PAdicRational(2, m, 4)).digits[:448] == 1
            zeros, ones = (~_deletion_mask(np.concatenate([row, np.full(64, b)]), thr)[:448]
                           for b in (False, True))
            differ = np.flatnonzero(zeros != ones)
            if np.count_nonzero(zeros[:differ[0] if differ.size else 448]) < 96:
                short.append(m)
        assert gathers[0] == (list(range(16)), 448)
        assert short and gathers[1] == (short, 896)
        assert rs == [self._constructor_value(cfg.seed_string, PAdicRational(2, m, 4), thr)
                      for m in range(16)]
        _assert_matches_reference(1e-3, 100, jitter_depth=4, max_steps=200, cfg=cfg)

    @pytest.mark.parametrize("length", [64, 256, 448, 512])
    @pytest.mark.parametrize("jitter_depth", [0, 1, 2])
    def test_short_seed_reads_whole_rows(self, gathers, length, jitter_depth):
        # a seed shorter than the first read is read whole, in one gather,
        # and one shorter than 96 digits gives each row fewer survivors
        cfg = StateConfig(champernowne(2, length), n_max=2)
        depth = jitter_depth or 2
        thr = BinaryThreshold.from_angle(_angle_float(Fraction(1, 3)))
        rs = _reduced_values(cfg.seed_string, depth, np.arange(1 << depth), thr)
        assert gathers[0] == (list(range(1 << depth)), min(length, 448))
        if length <= 448:
            assert len(gathers) == 1
        for m, r in enumerate(rs):
            assert r == self._constructor_value(cfg.seed_string,
                                                PAdicRational(2, m, depth), thr)
        _assert_matches_reference(Fraction(1, 3), 50, jitter_depth=jitter_depth,
                                  max_steps=50, cfg=cfg)

    def test_seed_with_a_tail_past_its_blocks_is_never_whole(self):
        # a seed of 243 digits leaves three digits past the depth-3
        # rotation's 4-digit blocks: the rotated string is its 240 whole-
        # block digits, and the tail is never read.  A config refuses a
        # base-2 seed off its blocks, so the reader and the walk take it bare
        r0 = champernowne(2, 243)
        blocks = r0.prefix(240)
        th0 = _angle_float(Fraction(1, 3))
        thr = BinaryThreshold.from_angle(th0)
        rs = _reduced_values(r0, 3, np.arange(8), thr)
        assert rs == [self._constructor_value(blocks, PAdicRational(2, m, 3), thr)
                      for m in range(8)]

        def walk(seed_string, m):
            try:
                res = weak_reduction_walk(th0, PAdicRational(2, m, 3), seed_string, 3, 1.0,
                                          16.0, derive_seed(0, m), 30)
            except NonConvergence:
                return None
            return res.trajectory, res.outcome.attractor_index, res.outcome.steps

        for m in range(8):
            assert walk(r0, m) == walk(blocks, m)


class TestSeedInvariance:
    def test_both_seeds_pass(self):
        rep = seed_invariance_suite(seed=0)
        assert rep.passed

    def test_negative_control_detects_constant_seed(self):
        rep = seed_invariance_suite(seed=0, negative_control=True)
        assert rep.passed  # pass means the corrupted seed failed statistics

    def test_identical_seeds_identical_statistics(self):
        a = seed_invariance_suite(seed=1)
        b = seed_invariance_suite(seed=1)
        assert a.to_json_dict()["statistics"] == b.to_json_dict()["statistics"]

    def test_depth_beyond_n_max_is_off_grid(self):
        # the suite sweeps a depth-10 grid; a depth-4 config has no states there
        shallow = StateConfig(champernowne(2, 1 << 10), n_max=4)
        with pytest.raises(OffGrid):
            seed_invariance_suite(shallow)
        with pytest.raises(OffGrid):
            seed_invariance_suite(default_config(), shallow)

    def test_base3_seed_is_refused(self):
        # deep enough for the depth-10 sweep, but its digits are not bits
        ternary = StateConfig(champernowne(3, 3 ** 11), n_max=10)
        for main, alt in ((ternary, default_config()), (default_config(), ternary)):
            with pytest.raises(ValueError, match="needs a base-2 seed"):
                seed_invariance_suite(main, alt)


class TestReports:
    def test_binomial_tolerance_rule(self):
        assert binomial_tolerance(0.5, 10 ** 9) == 0.02
        n = 100
        p = 0.5
        assert binomial_tolerance(p, n) == pytest.approx(4 * math.sqrt(p * (1 - p) / n))

    def test_report_round_trip_and_csv(self):
        rep = polarization_experiment(Fraction(1, 3), SampleGrid(depth=8))
        d = rep.to_json_dict()
        assert d["schema_version"] == 1
        assert d["passed"] == rep.passed
        csv_text = rep.to_csv()
        assert csv_text.splitlines()[0].startswith("experiment,statistic")
        assert len(csv_text.splitlines()) == 1 + len(rep.statistics)

    def test_csv_bit_exact_reproducibility(self):
        a = polarization_experiment(Fraction(1, 6), SampleGrid(depth=9))
        b = polarization_experiment(Fraction(1, 6), SampleGrid(depth=9))
        assert a.to_csv() == b.to_csv()

    def test_algebra_checks_report(self):
        rep = operator_algebra_checks(n_strings=20, length=256)
        assert rep.passed

    def test_algebra_checks_count_mismatched_strings(self, monkeypatch):
        # with phi_shift the identity, i^2 (the complement) differs from it
        # on every string, and each string counts once
        monkeypatch.setattr(experiments, "phi_shift", lambda s, k: s)
        rep = operator_algebra_checks(n_strings=20, length=512)
        observed = {stat.name: stat.observed for stat in rep.statistics}
        assert observed == {"square-law mismatches (n<=8)": 0,
                            "i^2 = complement mismatches": 20,
                            "i^4 = identity mismatches": 0}

    @staticmethod
    def string_only_counts(root, seed, n_strings, length):
        """The three algebra counts with every law checked on the strings,
        as the suite counted them before it compared operator tables."""
        roots = [root(2, n) for n in range(9)]
        s = DigitString(2, make_rng(seed).integers(0, 2, size=n_strings * length,
                                                   dtype=np.uint8))

        def mismatched(a, b):
            differs = (a.digits != b.digits).reshape(n_strings, length)
            return int(np.count_nonzero(differs.any(axis=1)))

        return [sum(mismatched(apply(operator_pow(roots[n], 2), s),
                               apply(extend_to(roots[n - 1], roots[n].size), s))
                    for n in range(1, 9)),
                mismatched(apply(operator_pow(roots[1], 2), s), phi_shift(s, 1)),
                mismatched(apply(operator_pow(roots[1], 4), s), s)]

    @pytest.mark.parametrize("broken", [1, 8])
    def test_algebra_tables_count_what_the_strings_count(self, monkeypatch, broken):
        # a root with two places of its table swapped breaks the laws it
        # enters: at n = 1 the square law at n = 1 and 2 and i^2 =
        # complement, at n = 8 the square law at n = 8
        def mutated(p, n):
            op = omega_root(p, n)
            if n != broken:
                return op
            perm = op.perm.copy()
            perm[[0, 1]] = perm[[1, 0]]
            return BlockOperator(p, perm, op.shift)

        monkeypatch.setattr(experiments, "omega_root", mutated)
        rep = operator_algebra_checks(seed=3, n_strings=20, length=512)
        want = self.string_only_counts(mutated, 3, 20, 512)
        assert [stat.observed for stat in rep.statistics] == want
        assert want[0] > 0 and (want[1] > 0) == (broken == 1) and want[2] == 0

    def test_algebra_checks_refuse_a_length_off_the_block(self):
        # 2 x 128 digits fill one 256-digit block, but no string does
        with pytest.raises(LengthNotDivisible):
            operator_algebra_checks(n_strings=2, length=128)


class TestRngSplitting:
    def test_derive_is_deterministic_and_distinct(self):
        a = derive_seed(42, 0)
        assert a == derive_seed(42, 0)
        assert len({derive_seed(42, i) for i in range(1000)}) == 1000

    def test_streams_differ(self):
        x = make_rng(derive_seed(7, 0)).integers(0, 1 << 30, 8)
        y = make_rng(derive_seed(7, 1)).integers(0, 1 << 30, 8)
        assert not np.array_equal(x, y)
