"""Experiment harness: partitions, ensembles, reports, reproducibility."""

import math
from fractions import Fraction

import numpy as np
import pytest

from digitq.digits import DigitString, champernowne, concatenated_squares, phi_shift
from digitq.errors import OffGrid
from digitq.experiments import (ExperimentReport, SampleGrid, Statistic,
                                binomial_tolerance, epr_correlation,
                                epr_experiment, index_partition,
                                interference_experiment, make_epr_ensemble,
                                operator_algebra_checks,
                                polarization_experiment, seed_invariance_suite,
                                trace_rule_experiment, weak_reduction_experiment,
                                _grid_leading_windows, _qutrit_leading_digit)
from digitq.phase import PAdicRational, phase_rotate
from digitq.reduction import reduce_compound
from digitq.rng import derive_seed, make_rng
from digitq.states import (BlochPoint, QutritAngles, StateConfig,
                           beamsplitter_pair, blocked_mz_output,
                           default_config, default_qutrit_config,
                           full_mz_output, qubit_state, qutrit_state,
                           qutrit_thresholds)


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

    def test_sampled_mode(self):
        rep = polarization_experiment(Fraction(1, 3),
                                      SampleGrid(depth=12, count=512, seed=4))
        assert rep.n == 512
        assert rep.statistics[0].deviation <= 0.06


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

    def test_fast_path_matches_constructor(self):
        qcfg = default_qutrit_config()
        rng = make_rng(3)
        for _ in range(25):
            th1 = float(rng.uniform(0.2, 2.9))
            th2 = float(rng.uniform(0.2, 2.9))
            e1 = int(rng.integers(0, 3 ** 5))
            e2 = int(rng.integers(0, 1 << 9))
            ang = QutritAngles(th1, th2, PAdicRational(3, e1, 5),
                               PAdicRational(2, e2, 9))
            t1, t2 = qutrit_thresholds(ang)
            fast = _qutrit_leading_digit(qcfg, t1, t2,
                                         PAdicRational(3, e1, 5),
                                         PAdicRational(2, e2, 9))
            assert fast == qutrit_state(qcfg, ang).leading_digit


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

    @staticmethod
    def _per_sample_report(grid, cfg):
        # oracle: every sample's 64-digit prefix through the interferometer
        # maps of ``states`` and the compound reduction
        nums = grid.numerators()
        n = nums.size
        windows = _grid_leading_windows(cfg.seed_string, grid.depth)[nums]
        prefixes = np.unpackbits(windows.astype(">u8").view(np.uint8)).reshape(n, 64)
        transmitted = reflected = complementary = blocked_lead = blocked_hi = full = 0
        for digits in prefixes:
            state = DigitString(2, digits, _validate=False)
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
        return ExperimentReport("interference", {}, n, stats, grid.seed)

    @pytest.mark.parametrize("seed_name", ["champernowne", "concatenated_squares",
                                           "constant_0"])
    def test_leading_bits_match_per_sample_states(self, seed_name):
        seed_string = {
            "champernowne": lambda: champernowne(2, 1 << 18),
            "concatenated_squares": lambda: concatenated_squares(2, 1 << 18),
            "constant_0": lambda: DigitString.constant(2, 0, 1 << 18),
        }[seed_name]()
        cfg = StateConfig(seed_string, n_max=12)
        grids = [SampleGrid(depth=d) for d in (1, 4, 8, 12)]
        grids.append(SampleGrid(depth=12, count=500, seed=3))
        for grid in grids:
            rep = interference_experiment(grid, cfg)
            assert rep.to_csv() == self._per_sample_report(grid, cfg).to_csv()
            assert any(note.startswith("by construction") and "structural" in note
                       for note in rep.notes)


class TestTopBitLemma:
    @pytest.mark.parametrize("seed_name", ["champernowne", "concatenated_squares",
                                           "constant_0", "random"])
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
        n = 1 << 18
        seed_string = {
            "champernowne": lambda: champernowne(2, n),
            "concatenated_squares": lambda: concatenated_squares(2, n),
            "constant_0": lambda: DigitString.constant(2, 0, n),
            "random": lambda: DigitString(
                2, make_rng(5).integers(0, 2, n, dtype=np.uint8), _validate=False),
        }[seed_name]()
        for depth in range(1, 13):
            windows = _grid_leading_windows(seed_string, depth)
            assert windows.size == 1 << depth
            assert int(np.count_nonzero(windows >> np.uint64(63))) == 1 << (depth - 1)


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


class TestRngSplitting:
    def test_derive_is_deterministic_and_distinct(self):
        a = derive_seed(42, 0)
        assert a == derive_seed(42, 0)
        assert len({derive_seed(42, i) for i in range(1000)}) == 1000

    def test_streams_differ(self):
        x = make_rng(derive_seed(7, 0)).integers(0, 1 << 30, 8)
        y = make_rng(derive_seed(7, 1)).integers(0, 1 << 30, 8)
        assert not np.array_equal(x, y)
