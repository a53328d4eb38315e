"""Iterated failure rates, monotonicity classes, DFR onset, moment bounds."""
import math

import numpy as np
import pytest
from scipy import integrate

from tailorder import (
    ClassifierDisagreement,
    Exponential,
    Gamma,
    MaxExp,
    PolyExpExample,
    ScanConfig,
    Weibull,
    classify_ifr,
    classify_ifra,
    dfr_onset,
    failure_rate,
    holder_bounds,
    iterate,
)
from tailorder.ageing import CONSTANT, DECREASING, INCREASING, NON_MONOTONE


class TestFailureRate:
    def test_exponential_rate_is_flat_in_s_and_x(self):
        for lam in (1.0, 2.0):
            d = Exponential(lam)
            for s in range(1, 7):
                xs = np.linspace(0.0, 30.0, 40)
                np.testing.assert_allclose(failure_rate(d, s, xs), lam, atol=1e-10)

    def test_polyexp_order_one_formula(self):
        c = 1.0
        d = PolyExpExample(c)
        assert failure_rate(d, 1, 0.0) == pytest.approx(c / (2.0 + c), abs=1e-14)
        xs = np.linspace(0.0, 8.0, 30)
        expected = (xs ** 2 + c) / (xs ** 2 + 2 * xs + 2 + c)
        np.testing.assert_allclose(failure_rate(d, 1, xs), expected, rtol=1e-12)

    def test_polyexp_order_two_is_ratio_of_consecutive_tails(self):
        # by definition r_2 = tail_1 / (mu_1 tail_2); the polynomial form is
        # (x^2+2x+2+c) / (x^2+4x+6+c), equal to 3/7 at the origin for c = 1
        c = 1.0
        d = PolyExpExample(c)
        assert failure_rate(d, 2, 0.0) == pytest.approx((2 + c) / (6 + c), rel=1e-12)
        xs = np.linspace(0.0, 8.0, 30)
        expected = (xs ** 2 + 2 * xs + 2 + c) / (xs ** 2 + 4 * xs + 6 + c)
        np.testing.assert_allclose(failure_rate(d, 2, xs), expected, rtol=1e-10)

    def test_rate_is_hazard_of_iterate(self):
        # r_s = -d/dx log tail_s, via central differences on the tail
        d = Gamma(2.0, 1.0)
        for s in (1, 2, 3):
            it = iterate(d, s)
            h = 1e-6
            for x in (0.5, 1.5, 3.0):
                fd = -(math.log(it.eval_tail(x + h)) - math.log(it.eval_tail(x - h))) / (2 * h)
                assert failure_rate(d, s, x) == pytest.approx(fd, rel=1e-6)


class TestClassifyIfr:
    def test_polyexp_turns_monotone_after_one_iteration(self):
        for c in (0.5, 1.0, 1.9):
            d = PolyExpExample(c)
            assert classify_ifr(d, 1).verdict == NON_MONOTONE
            assert classify_ifr(d, 2).verdict == INCREASING

    def test_polyexp_turning_point_bracketed(self):
        # the slope numerator 2x^2 + 4x - 2c vanishes at sqrt(1+c) - 1
        for c in (0.5, 1.0, 1.9):
            d = PolyExpExample(c)
            cfg = ScanConfig(x_max=50.0, max_refinement_depth=24)
            cls = classify_ifr(d, 1, cfg)
            root = math.sqrt(1.0 + c) - 1.0
            brackets = [iv for iv in cls.change_points if iv[0] <= root <= iv[1]]
            assert brackets, (c, cls.change_points)
            lo, hi = brackets[0]
            assert hi - lo < 1e-6

    def test_unset_window_reads_as_the_default_window(self):
        # a passed config without x_max gets the window a call without a
        # config uses: here the 1e-10 quantile horizon of the iterate
        d = PolyExpExample(1.0)
        window = iterate(d, 1).quantile_horizon(1e-10)
        unset = classify_ifr(d, 1, ScanConfig(max_refinement_depth=24))
        assert unset == classify_ifr(d, 1, ScanConfig(x_max=window, max_refinement_depth=24))
        assert classify_ifra(d, 1, ScanConfig()) == classify_ifra(d, 1)

    def test_exponential_constant(self):
        cls = classify_ifr(Exponential(1.0), 3)
        assert cls.verdict == CONSTANT
        assert cls.confidence == "exact"

    def test_gamma_weibull_shape_determines_class(self):
        assert classify_ifr(Gamma(3.0, 1.0), 1).verdict == INCREASING
        assert classify_ifr(Gamma(0.5, 1.0), 1).verdict == DECREASING
        assert classify_ifr(Weibull(2.0, 1.0), 1).verdict == INCREASING
        assert classify_ifr(Weibull(0.7, 1.0), 1).verdict == DECREASING

    def test_parallel_system_exact_confidence(self):
        cls = classify_ifr(MaxExp(1.0, 2.0), 1)
        assert cls.verdict == NON_MONOTONE
        assert cls.confidence == "exact"
        dirs = [d for _, d in cls.turning_witnesses]
        assert "up" in dirs and "down" in dirs

    def test_homogeneous_parallel_closure(self):
        for n in (2, 3, 4, 5):
            cls = classify_ifr(MaxExp(*([1.0] * n)), 1)
            assert cls.verdict == INCREASING, n

    def test_scale_invariance(self):
        for factory in (lambda k: Exponential(1.0 / k),
                        lambda k: Gamma(2.5, k),
                        lambda k: Weibull(1.8, k)):
            verdicts = {classify_ifr(factory(k), 1).verdict for k in (0.5, 1.0, 2.0)}
            assert len(verdicts) == 1

    def test_heredity_of_increasing_rate(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            shape = float(rng.uniform(1.05, 4.0))
            d = Gamma(shape, 1.0) if rng.random() < 0.5 else Weibull(shape, 1.0)
            assert classify_ifr(d, 1).verdict == INCREASING, d
            for s in (2, 3):
                assert classify_ifr(d, s).verdict in (INCREASING, CONSTANT), (d, s)


class TestClassifyIfra:
    def test_parallel_system_loses_average_monotonicity(self):
        d = MaxExp(1.0, 2.0)
        assert classify_ifra(d, 1).verdict == INCREASING
        assert classify_ifra(d, 2).verdict == NON_MONOTONE

    def test_exponential_constant(self):
        for s in (1, 2, 3):
            assert classify_ifra(Exponential(1.0), s).verdict == CONSTANT

    def test_unset_window_of_a_passed_config_is_the_default_window(self):
        # the turn of this slow parallel system lies near x = 213, outside
        # the (0, 50] once read for a config without x_max
        d = MaxExp(0.01, 0.02)
        assert classify_ifra(d, 2).verdict == NON_MONOTONE
        assert classify_ifra(d, 2, ScanConfig()) == classify_ifra(d, 2)

    def test_polyexp_not_star_shaped_at_order_one(self):
        cls = classify_ifra(PolyExpExample(1.0), 1)
        assert cls.verdict == NON_MONOTONE

    def test_increasing_rate_implies_increasing_average(self):
        for d in (Gamma(2.0, 1.0), Weibull(1.5, 1.0), PolyExpExample(1.0)):
            for s in (1, 2):
                if classify_ifr(d, s).verdict == INCREASING:
                    assert classify_ifra(d, s).verdict in (INCREASING, CONSTANT), (d, s)

    def test_average_matches_direct_quadrature(self):
        # (1/x) integral of r_s equals -log(tail_s)/x
        d = MaxExp(1.0, 2.0)
        s = 2
        it = iterate(d, s)
        for x in (0.5, 1.0, 4.0):
            avg_direct, _ = integrate.quad(lambda t: failure_rate(d, s, t), 0.0, x)
            assert -it.log_tail(x) / x == pytest.approx(avg_direct / x, rel=1e-8)


class TestDfrOnset:
    def test_rate_two_turns_decreasing_at_five(self):
        assert dfr_onset(MaxExp(1.0, 2.0), s_max=16) == 5

    def test_matches_origin_sign_flip(self):
        # analytic signal: 2^{s+1} + 1 - 3^{s-1} first turns negative at s = 5
        flips = [s for s in range(1, 10) if 2.0 ** (s + 1) + 1 - 3.0 ** (s - 1) < 0]
        assert flips[0] == 5

    def test_equal_rates_rejected(self):
        with pytest.raises(ValueError):
            dfr_onset(MaxExp(1.0, 1.0))

    @pytest.mark.parametrize("s_max", [0, -2, 2.5])
    def test_s_max_must_be_a_positive_integer(self, s_max):
        # an s_max below 1 would check no order and report no onset
        with pytest.raises(ValueError, match="^s_max must be a positive integer"):
            dfr_onset(MaxExp(1.0, 2.0), s_max=s_max)

    def test_onset_is_beyond_two(self):
        for lam in (1.5, 2.0, 3.0, 5.0):
            s0 = dfr_onset(MaxExp(1.0, lam), s_max=32)
            assert s0 is None or s0 > 2

    def test_onset_scale_invariant(self):
        assert dfr_onset(MaxExp(0.5, 1.0), s_max=16) == 5


class TestHolderBounds:
    def test_exponential_attains_lower_bound(self):
        for x in (0.0, 1.0, 2.5):
            rep = holder_bounds(Exponential(1.0), 4, x)
            assert abs(rep.ifr_lower_margin) < 1e-8
            assert rep.ifr_holds

    def test_increasing_rate_satisfies_both_bounds(self):
        for s in (4, 5):
            for x in (0.5, 1.0, 2.0):
                rep = holder_bounds(Gamma(3.0, 1.0), s, x)
                assert rep.ifr_holds, (s, x)

    def test_decreasing_rate_satisfies_sharper_bound(self):
        for s in (4, 5):
            for x in (0.5, 1.0, 2.0):
                rep = holder_bounds(Gamma(0.5, 1.0), s, x)
                assert rep.dfr_holds, (s, x)

    def test_exponential_moments_are_factorials(self):
        rep = holder_bounds(Exponential(1.0), 4, 1.0)
        e = math.exp(-1.0)
        assert rep.m_low == pytest.approx(e, rel=1e-9)
        assert rep.m_mid == pytest.approx(2 * e, rel=1e-9)
        assert rep.m_high == pytest.approx(6 * e, rel=1e-9)

    def test_small_order_rejected(self):
        with pytest.raises(ValueError):
            holder_bounds(Exponential(1.0), 3, 1.0)
