"""State constructors, composites and unitary-like transforms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digitq.digits import (DigitString, champernowne, degree_of_normality,
                           phi_shift, relabel, value)
from digitq.errors import (EmptyResult, LengthNotDivisible, NotAnEigenstate,
                           OffGrid, SuffixTooShort)
from digitq.phase import PAdicRational, apply, omega_root, phase_rotate
from digitq.reduction import (K_GUARD, BinaryThreshold, _window_u64,
                              partial_reduce, project, reduce_compound)
from digitq.states import (BlochPoint, QutritAngles, StateConfig,
                           _qutrit_pipeline, _qutrit_reduce,
                           beamsplitter_pair, blocked_mz_output, composite,
                           decompose, default_config, default_qutrit_config,
                           full_mz_output, hadamard_equiv, measurement_coupling,
                           qubit_state, qutrit_state, qutrit_thresholds,
                           schrodinger_evolve, subsystem, u_n_gate)

THETA_STAR = 2 * math.acos(1 / math.sqrt(3))


def one_shot_deletion(hi, thr):
    """The two-symbol deletion mask from one window read of the whole string."""
    return hi ^ thr.at_or_below(_window_u64(hi, hi.size))


def boolean_index_qutrit_reduce(d, t1, t2):
    """Oracle: the two-stage reduction as np.delete of the stage-1 deletions
    and a boolean index of the stage-2 survivors, with the same checks."""
    nz_idx = np.flatnonzero(d != 0)
    if nz_idx.size == 0:
        raise EmptyResult("no nonzero digit to reduce")
    if nz_idx.size < K_GUARD:
        raise SuffixTooShort(
            f"{nz_idx.size} nonzero digits is below the {K_GUARD}-digit guard")
    stage1 = np.delete(d, nz_idx[one_shot_deletion(d[nz_idx] == 2, t2)])
    if stage1.size == 0:
        raise EmptyResult("stage-1 reduction removed every digit")
    if stage1.size < K_GUARD:
        raise SuffixTooShort(
            f"{stage1.size} digits after stage 1 is below the {K_GUARD}-digit guard")
    final = stage1[~one_shot_deletion(stage1 != 0, t1)]
    if final.size == 0:
        raise EmptyResult("stage-2 reduction removed every digit")
    return final


def outcome(f, *args):
    """The digits f returns, or the type and message of the error it raises."""
    try:
        out = f(*args)
    except (EmptyResult, SuffixTooShort) as e:
        return type(e), str(e)
    return getattr(out, "digits", out).tolist()


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def qcfg():
    return default_qutrit_config()


class TestStateConfig:
    def test_seed_sizing_enforced(self):
        with pytest.raises(ValueError):
            StateConfig(champernowne(2, 100), n_max=12)
        StateConfig(champernowne(2, 1 << 14), n_max=12)  # exactly one block

    def test_default_sizes(self, cfg):
        assert len(cfg.seed_string) == 1 << 18
        assert len(cfg.seed_string) % (1 << (cfg.n_max + 2)) == 0


class TestQubitState:
    def test_theta_zero_constant(self, cfg):
        s = qubit_state(cfg, BlochPoint(Fraction(0), Fraction(1, 4)))
        assert s.is_constant() and s.leading_digit == 0

    def test_theta_pi_constant(self, cfg):
        s = qubit_state(cfg, BlochPoint(Fraction(1), Fraction(1, 4)))
        assert s.is_constant() and s.leading_digit == 1

    def test_equator_zero_longitude_is_seed(self, cfg):
        s = qubit_state(cfg, BlochPoint(Fraction(1, 2), Fraction(0)))
        assert s == cfg.seed_string

    def test_equator_half_turn_is_complement(self, cfg):
        s = qubit_state(cfg, BlochPoint(Fraction(1, 2), Fraction(1)))
        assert s == phi_shift(cfg.seed_string, 1)

    def test_off_grid_rejected(self, cfg):
        with pytest.raises(OffGrid):
            qubit_state(cfg, BlochPoint(Fraction(1, 2), Fraction(2, 3)))

    def test_too_deep_rejected(self, cfg):
        deep = PAdicRational(2, 1, cfg.n_max + 1)
        with pytest.raises(OffGrid):
            qubit_state(cfg, BlochPoint(Fraction(1, 2), deep))

    def test_float_longitude_rejected(self, cfg):
        with pytest.raises(OffGrid):
            qubit_state(cfg, BlochPoint(Fraction(1, 2), 0.25))

    def test_matches_explicit_pipeline(self, cfg):
        q = PAdicRational(2, 5, 7)
        p = BlochPoint(Fraction(1, 3), q)
        expected, _ = partial_reduce(phase_rotate(cfg.seed_string, q),
                                     Fraction(1, 3))
        assert qubit_state(cfg, p) == expected

    @pytest.mark.parametrize("theta", [Fraction(0), Fraction(1, 2), Fraction(1),
                                       Fraction(5, 16), 1.1])
    def test_equals_partial_reduce_of_the_rotated_seed(self, cfg, theta):
        for q in (PAdicRational(2, 0, 0), PAdicRational(2, 1234, 12)):
            expected, _ = partial_reduce(phase_rotate(cfg.seed_string, q), theta)
            assert qubit_state(cfg, BlochPoint(theta, q)) == expected

    def test_shares_partial_reduce_checks(self):
        # an 8-digit seed is below the comparison guard, and a zero seed at
        # theta = pi keeps nothing: both paths raise the same error
        short = StateConfig(champernowne(2, 8), n_max=1)
        zero = StateConfig(DigitString.constant(2, 0, 64), n_max=2)
        for c, theta, q, err in ((short, Fraction(1, 3), PAdicRational(2, 1, 1), SuffixTooShort),
                                 (short, Fraction(1, 2), PAdicRational(2, 0, 0), SuffixTooShort),
                                 (zero, Fraction(1), PAdicRational(2, 0, 0), EmptyResult)):
            with pytest.raises(err) as by_state:
                qubit_state(c, BlochPoint(theta, q))
            with pytest.raises(err) as by_reduce:
                partial_reduce(phase_rotate(c.seed_string, q), theta)
            assert str(by_state.value) == str(by_reduce.value)

    def test_grid_contract_property(self, cfg):
        rng = np.random.default_rng(0)
        accepted = rejected = 0
        for _ in range(300):
            num = int(rng.integers(0, 1 << cfg.n_max))
            q = PAdicRational(2, num, cfg.n_max)
            qubit_state(cfg, BlochPoint(Fraction(1, 2), q))
            accepted += 1
        for _ in range(300):
            den = int(rng.integers(3, 1000))
            num = int(rng.integers(1, den))
            fr = Fraction(num, den)
            if (fr / 2).denominator & ((fr / 2).denominator - 1) == 0:
                continue  # accidentally dyadic
            with pytest.raises(OffGrid):
                qubit_state(cfg, BlochPoint(Fraction(1, 2), fr))
            rejected += 1
        assert accepted == 300 and rejected > 250


class TestQutritState:
    def test_constant_anchors(self, qcfg):
        z = Fraction(0)
        s = qutrit_state(qcfg, QutritAngles(Fraction(1), z, z, z))
        assert s.is_constant() and s.leading_digit == 1
        s = qutrit_state(qcfg, QutritAngles(Fraction(1), Fraction(1), z, z))
        assert s.is_constant() and s.leading_digit == 2
        s = qutrit_state(qcfg, QutritAngles(z, Fraction(1, 2), z, z))
        assert s.is_constant() and s.leading_digit == 0

    def test_degenerate_equals_relabeled_qubit(self, qcfg):
        z = Fraction(0)
        th2 = Fraction(1, 3)
        full = qutrit_state(qcfg, QutritAngles(Fraction(1), th2, z, z))
        sub, _ = project(qcfg.seed_string, 0)
        red, _ = partial_reduce(relabel(sub, {1: 0, 2: 1}, 2), th2)
        assert full == relabel(red, {0: 1, 1: 2}, 3)

    def test_theta_star_fractions(self, qcfg):
        theta_star = 2 * math.acos(1 / math.sqrt(3))
        rng = np.random.default_rng(1)
        devs = []
        for _ in range(12):
            lam1 = PAdicRational(3, int(rng.integers(0, 3 ** 6)), 6)
            lam2 = PAdicRational(2, int(rng.integers(0, 1 << 10)), 10)
            s = qutrit_state(qcfg, QutritAngles(theta_star, Fraction(1, 2),
                                                lam1, lam2))
            devs.append(np.abs(degree_of_normality(s) - 1 / 3).max())
        assert np.mean(devs) < 0.03

    @pytest.mark.parametrize("theta1,theta2,t1,t2", [
        (2 * math.acos(1 / math.sqrt(3)), Fraction(1, 2),
         9223372037814915255, 9223372036854775808),
        (Fraction(1, 2), Fraction(1, 3), 11690462001134556631, 13835058055282163712),
        (Fraction(1), Fraction(1, 4), 0, 15745280949521166914),
    ])
    def test_thresholds_of_the_trace_pairs_are_pinned(self, theta1, theta2, t1, t2):
        # the suite's three trace-rule pairs; any change in how an angle is
        # read or a quantile is built moves these literals
        got = qutrit_thresholds(theta1, theta2)
        assert (got[0].t_int, got[1].t_int) == (t1, t2)

    def test_off_grid_lam1(self, qcfg):
        with pytest.raises(OffGrid):
            qutrit_state(qcfg, QutritAngles(Fraction(1, 2), Fraction(1, 2),
                                            Fraction(1, 2), Fraction(0)))

    def test_base3_normality_of_phase_states(self, qcfg):
        # pure phase state (no reduction): all three digits near 1/3
        s = qutrit_state(qcfg, QutritAngles(
            2 * math.acos(1 / math.sqrt(3)), Fraction(1, 2),
            PAdicRational(3, 5, 4), PAdicRational(2, 9, 6)))
        assert np.abs(degree_of_normality(s) - 1 / 3).max() < 0.04


class TestQutritReduce:
    """_qutrit_reduce gathers its survivors with compress; pinned to the
    np.delete and boolean-index stages it replaced."""

    @pytest.mark.parametrize("t1,t2", [
        qutrit_thresholds(Fraction(1, 3), Fraction(1, 4)),
        qutrit_thresholds(Fraction(5, 16), Fraction(11, 16)),
        qutrit_thresholds(THETA_STAR, Fraction(1, 2)),  # t2 exactly 1/2
        (BinaryThreshold(1 << 63), BinaryThreshold.from_angle(Fraction(2, 3))),
        (BinaryThreshold(1 << 63), BinaryThreshold(1 << 63)),
    ])
    def test_default_seed_matches_the_boolean_index_form(self, qcfg, t1, t2):
        seed = qcfg.seed_string.digits
        rotated = _qutrit_pipeline(seed, PAdicRational(3, 100, 7), PAdicRational(2, 77, 12))
        for d in (seed, rotated):
            got = _qutrit_reduce(d, t1, t2)
            assert got.base == 3
            assert got.digits.dtype == d.dtype
            assert np.array_equal(got.digits, boolean_index_qutrit_reduce(d, t1, t2))

    def test_random_arrays_match_including_errors(self):
        rng = np.random.default_rng(3)
        laws = [(1 / 3, 1 / 3, 1 / 3), (0, 0.5, 0.5), (0, 1, 0), (0, 0, 1),
                (1, 0, 0), (0.9, 0.05, 0.05)]
        seen = set()
        for _ in range(600):
            n = int(rng.choice([0, 5, 15, 16, 17, 40, 200]))
            d = rng.choice(3, size=n, p=laws[int(rng.integers(len(laws)))]).astype(np.uint8)
            t1, t2 = (BinaryThreshold(int(rng.choice([0, 1 << 63, 1 << 64,
                                                      int(rng.integers(1, 1 << 62)) << 2])))
                      for _ in range(2))
            want = outcome(boolean_index_qutrit_reduce, d, t1, t2)
            assert outcome(_qutrit_reduce, d, t1, t2) == want
            if isinstance(want, tuple):
                seen.add(want[1].split(" ", 1)[1] if want[1][0].isdigit() else want[1])
        # every check of the two stages fired at least once
        assert len(seen) == 5, seen


class TestCompositeAndSubsystem:
    def test_composite_example(self):
        a = DigitString(2, [1, 0, 1])
        b = DigitString(2, [0, 1, 1])
        c = composite([a, b])
        assert c.base == 4 and c.digits.tolist() == [2, 1, 3]

    def test_single_channel_identity(self):
        a = DigitString(2, [1, 0, 1])
        c = composite([a])
        assert c.base == 2 and decompose(c, 1)[0] == a

    @given(st.integers(1, 5), st.integers(1, 40), st.integers(0, 2 ** 31))
    @settings(max_examples=120, deadline=None)
    def test_decompose_round_trip(self, n, length, seed):
        rng = np.random.default_rng(seed)
        qs = [DigitString(2, rng.integers(0, 2, length)) for _ in range(n)]
        back = decompose(composite(qs), n)
        assert back == qs

    def test_channel_subsets_and_orderings(self):
        rng = np.random.default_rng(9)
        qs = [DigitString(2, rng.integers(0, 2, 16)) for _ in range(3)]
        c = composite(qs)
        chans = decompose(c, 3)
        import itertools
        for r in range(1, 4):
            for order in itertools.permutations(range(3), r):
                sub = composite([chans[i] for i in order])
                assert decompose(sub, r) == [qs[i] for i in order]

    def test_subsystem_paper_example(self):
        s = DigitString(8, [0, 5, 3, 2, 0, 1, 7, 6, 2, 1, 4, 3, 5])
        out = subsystem(s, [2, 5])
        assert out.base == 2 and out.digits.tolist() == [1, 0, 0, 1]

    def test_subsystem_keep_all(self):
        s = DigitString(3, [0, 2, 1, 1])
        assert subsystem(s, [0, 1, 2]) == s

    def test_subsystem_matches_projection(self):
        # same digit sequence; subsystem additionally renames onto base 2
        s = champernowne(3, 100)
        via_subsystem = subsystem(s, [0, 1])
        projected, _ = project(s, 2)
        assert via_subsystem.digits.tolist() == projected.digits.tolist()
        assert via_subsystem.base == 2 and projected.base == 3

    def test_subsystem_empty(self):
        with pytest.raises(EmptyResult):
            subsystem(DigitString(3, [1, 1]), [0, 2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            composite([DigitString(2, [0]), DigitString(2, [0, 1])])


class TestHadamard:
    def test_eigenstate_images(self, cfg):
        L = len(cfg.seed_string)
        assert hadamard_equiv(DigitString.constant(2, 0, 8), cfg) == cfg.seed_string
        img1 = hadamard_equiv(DigitString.constant(2, 1, 8), cfg)
        assert img1 == phi_shift(cfg.seed_string, 1)
        assert value(img1) + value(cfg.seed_string) == 1 - Fraction(1, 2 ** L)

    def test_rejects_non_eigenstate(self, cfg):
        with pytest.raises(NotAnEigenstate):
            hadamard_equiv(DigitString(2, [0, 1]), cfg)

    def test_balanced_reduction_after_hadamard(self, cfg):
        img = hadamard_equiv(DigitString.constant(2, 0, 8), cfg)
        hits = 0
        K = 10
        for j in range(1 << K):
            r = phase_rotate(img, PAdicRational(2, j, K))
            hits += reduce_compound(r.prefix(64)).attractor_index == 1
        assert hits / (1 << K) == pytest.approx(0.5, abs=0.02)


class TestGates:
    def test_u2_is_depth1_operator(self, cfg):
        s = cfg.seed_string.prefix(256)
        assert u_n_gate(s, 2) == apply(omega_root(2, 1), s)

    def test_repeated_application_closes(self):
        s = champernowne(2, 256)
        N = 4
        out = s
        for _ in range(1 << N):
            out = u_n_gate(out, N)
        assert out == s

    def test_block_too_large(self):
        with pytest.raises(LengthNotDivisible):
            u_n_gate(DigitString(2, [0, 1] * 8), 6)

    def test_schrodinger_periodicity(self):
        s = champernowne(2, 256)
        seq = schrodinger_evolve(s, PAdicRational(2, 1, 2), 4)
        assert len(seq) == 5
        assert seq[0] == s and seq[4] == s
        assert seq[1] == phase_rotate(s, PAdicRational(2, 1, 2))

    def test_schrodinger_group_action(self):
        s = champernowne(2, 1 << 10)
        q1 = PAdicRational(2, 1, 3)
        q2 = PAdicRational(2, 3, 4)
        via_sum = phase_rotate(s, PAdicRational.from_fraction(
            q1.fraction + q2.fraction, 2))
        assert phase_rotate(phase_rotate(s, q1), q2) == via_sum

    def test_schrodinger_constant_at_zero(self):
        s = champernowne(2, 64)
        seq = schrodinger_evolve(s, PAdicRational(2, 0, 0), 3)
        assert all(x == s for x in seq)


class TestInterferometerOps:
    def test_beamsplitter_complementarity(self, cfg):
        for j in (0, 3, 17, 101):
            s = phase_rotate(cfg.seed_string.prefix(1 << 12),
                             PAdicRational(2, j, 8))
            t, r = beamsplitter_pair(s)
            assert t == s
            assert r == phi_shift(s, 1)
            assert t.leading_digit != r.leading_digit

    def test_blocked_mz_rules(self):
        lead1 = DigitString(2, [1, 0, 1, 0])
        lead0 = DigitString(2, [0, 1, 0, 1])
        assert blocked_mz_output(lead1) == lead1
        assert blocked_mz_output(lead0) == phi_shift(lead0, 1)

    @given(st.integers(0, 2 ** 16 - 1))
    def test_blocked_mz_idempotent_and_leading_one(self, bits):
        s = DigitString(2, [(bits >> k) & 1 for k in range(16)])
        out = blocked_mz_output(s)
        assert out.leading_digit == 1
        assert blocked_mz_output(out) == out

    def test_full_mz_constant_one(self):
        s = DigitString(2, [0, 1, 1, 0])
        out = full_mz_output(s)
        assert out.is_constant() and out.leading_digit == 1 and len(out) == 4


class TestMeasurementCoupling:
    def test_cascade_on_leading_one(self):
        q = DigitString(2, [1, 0, 1])
        out = measurement_coupling(q, M=10, J=3, K=7)
        assert out.attractor_index == 7
        assert out.final_state.is_constant() and out.final_state.leading_digit == 7
        assert out.steps == 5

    def test_stationary_on_leading_zero(self):
        q = DigitString(2, [0, 1, 1])
        out = measurement_coupling(q, M=10, J=3, K=7)
        assert out.attractor_index is None
        assert out.final_state.digits.tolist() == [2, 3, 3]

    def test_parameter_validation(self):
        q = DigitString(2, [1, 0])
        with pytest.raises(ValueError):
            measurement_coupling(q, M=5, J=0, K=3)
        with pytest.raises(ValueError):
            measurement_coupling(q, M=5, J=3, K=3)

    def test_cascade_frequency(self, cfg):
        K = 10
        hits = 0
        theta = Fraction(1, 3)
        from digitq.reduction import BinaryThreshold
        thr = BinaryThreshold.from_angle(theta)
        for j in range(1 << K):
            q = PAdicRational(2, j, K)
            s = phase_rotate(cfg.seed_string.prefix(1 << 11), q)
            red, _ = partial_reduce(s, thr)
            out = measurement_coupling(red.prefix(min(len(red), 64)),
                                       M=8, J=2, K=5)
            hits += out.attractor_index == 5
        expected = math.sin(math.pi / 6) ** 2
        assert hits / (1 << K) == pytest.approx(expected, abs=0.03)
