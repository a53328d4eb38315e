"""Distribution catalog: densities, tails, moments, inverses, literals.

scipy.stats serves as the independent oracle for the standard families.
"""
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from tailorder import (
    BranchedPareto,
    Exponential,
    ExpPoly,
    ExpPolyTail,
    Gamma,
    InfiniteMoment,
    MaxExp,
    NumericDensity,
    PolyExpExample,
    Weibull,
    iterate,
    parse_distribution,
)

ALL_VARIANTS = [
    Exponential(1.0),
    Exponential(2.5),
    Gamma(2.0, 1.0),
    Gamma(0.5, 2.0),
    Weibull(1.5, 1.0),
    Weibull(0.7, 2.0),
    BranchedPareto(5.0, 10.0),
    BranchedPareto(2.0, 6.0),
    PolyExpExample(1.0),
    MaxExp(1.0, 2.0),
    MaxExp(1.0, 1.0, 1.0),
]


class TestDensity:
    def test_exponential_at_origin(self):
        assert Exponential(1.0).density(0.0) == 1.0

    def test_polyexp_at_origin(self):
        assert PolyExpExample(1.0).density(0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_gamma_against_scipy(self):
        d = Gamma(2.0, 1.0)
        assert d.density(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
        xs = np.linspace(0.01, 10, 50)
        np.testing.assert_allclose(d.density(xs), stats.gamma.pdf(xs, 2.0), rtol=1e-12)

    def test_weibull_against_scipy(self):
        d = Weibull(1.7, 1.3)
        xs = np.linspace(0.01, 8, 50)
        np.testing.assert_allclose(d.density(xs),
                                   stats.weibull_min.pdf(xs, 1.7, scale=1.3),
                                   rtol=1e-12)

    @pytest.mark.parametrize("shape", [10.5, 12.0, 30.0])
    def test_weibull_far_tail_is_zero_without_warning(self, shape):
        # past z ~ 1e30, z ** (a - 1) and z ** a overflow where exp(-z ** a)
        # is already 0: the density is 0, not inf * 0
        xs = np.array([1.2, 1e3, 1e30, 5e30])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Weibull(shape).density(xs)
        np.testing.assert_array_equal(got[1:], 0.0)
        assert got[0] == pytest.approx(stats.weibull_min.pdf(1.2, shape), rel=1e-12)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            Exponential(1.0).density(-0.5)

    def test_branched_pareto_right_continuous_at_kink(self):
        d = BranchedPareto(5.0, 10.0)
        # right branch value at the kink
        assert d.density(5.0) == pytest.approx(15.0 ** 2 / (2 * 15.0 ** 3), abs=1e-15)


class TestTail:
    def test_tail_is_one_for_negative_x(self):
        for d in ALL_VARIANTS:
            assert d.tail(-3.0) == 1.0

    def test_tail_at_origin_is_one(self):
        for d in ALL_VARIANTS:
            assert d.tail(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_branched_pareto_kink_value(self):
        # both branch formulas give 1/4 at the kink, for any parameters
        assert BranchedPareto(5.0, 10.0).tail(5.0) == pytest.approx(0.25, abs=1e-15)
        assert BranchedPareto(2.0, 6.0).tail(2.0) == pytest.approx(0.25, abs=1e-15)

    def test_tail_nonincreasing_on_grid(self):
        xs = np.linspace(0.0, 40.0, 400)
        for d in ALL_VARIANTS:
            tails = np.asarray(d.tail(xs))
            assert np.all(np.diff(tails) <= 1e-12)
            assert np.all((tails >= 0) & (tails <= 1))

    def test_maxexp_matches_product_form(self):
        d = MaxExp(1.0, 2.0)
        xs = np.linspace(0.0, 20.0, 100)
        direct = 1.0 - (1.0 - np.exp(-xs)) * (1.0 - np.exp(-2.0 * xs))
        np.testing.assert_allclose(d.tail(xs), direct, atol=1e-12)

    def test_maxexp_repeated_rates_merge(self):
        d = MaxExp(1.0, 1.0)
        xs = np.linspace(0.0, 20.0, 100)
        direct = 1.0 - (1.0 - np.exp(-xs)) ** 2
        np.testing.assert_allclose(d.tail(xs), direct, atol=1e-12)
        assert d.exp_poly_tail().terms == ((2.0, 1.0), (-1.0, 2.0))

    def test_gamma_weibull_against_scipy(self):
        xs = np.linspace(0.0, 12.0, 60)
        np.testing.assert_allclose(Gamma(2.5, 1.5).tail(xs),
                                   stats.gamma.sf(xs, 2.5, scale=1.5), rtol=1e-10)
        np.testing.assert_allclose(Weibull(0.8, 1.2).tail(xs),
                                   stats.weibull_min.sf(xs, 0.8, scale=1.2), rtol=1e-10)


class TestRawMoments:
    def test_exponential_factorials(self):
        d = Exponential(1.0)
        for k in range(11):
            assert d.raw_moment(k) == pytest.approx(math.factorial(k), rel=1e-9)

    def test_gamma_moments(self):
        assert Gamma(2.0, 1.0).raw_moment(2) == pytest.approx(6.0, rel=1e-12)

    def test_branched_pareto_mean_and_divergence(self):
        d = BranchedPareto(5.0, 10.0)
        assert d.raw_moment(1) == pytest.approx(25.0 / 4.0, rel=1e-12)
        with pytest.raises(InfiniteMoment):
            d.raw_moment(2)

    def test_maxexp_moments_by_quadrature(self):
        from scipy import integrate
        d = MaxExp(1.0, 2.0)
        for k in (1, 2, 3):
            direct, _ = integrate.quad(
                lambda t: k * t ** (k - 1) * (1 - (1 - math.exp(-t)) * (1 - math.exp(-2 * t))),
                0, 60)
            assert d.raw_moment(k) == pytest.approx(direct, rel=1e-9)

    def test_polyexp_moments(self):
        c = 1.0
        d = PolyExpExample(c)
        for k in (1, 2, 3):
            expected = (math.factorial(k + 2) + c * math.factorial(k)) / (c + 2.0)
            assert d.raw_moment(k) == pytest.approx(expected, rel=1e-12)

    def test_weibull_mean(self):
        assert Weibull(2.0, 1.0).raw_moment(1) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)

    @pytest.mark.parametrize("d,k", [
        (Weibull(0.05), 12),         # gamma(1 + k / shape) overflows
        (Gamma(0.5, 1e30), 12),      # scale ** k overflows
        (Weibull(0.02, 1e150), 2),   # both factors finite, their product not
        (Exponential(1e-30), 12),    # rate ** k underflows to 0
        (MaxExp(1e-30, 1.0), 12),
    ])
    def test_moment_past_the_largest_float(self, d, k):
        with pytest.raises(InfiniteMoment, match="overflows a float"):
            d.raw_moment(k)

    def test_a_fault_in_a_numeric_density_is_not_an_overflow(self):
        # only closed-form moments read these errors as overflow; one
        # raised by the user's density inside quad is shown as it is
        broken = []

        def density(t):
            if broken:
                return 1.0 / 0.0
            return np.exp(-np.asarray(t, dtype=float))

        d = NumericDensity(density, x_max=60.0)
        assert d.raw_moment(1) == pytest.approx(1.0, rel=1e-9)
        broken.append(True)
        with pytest.raises(ZeroDivisionError):
            d.raw_moment(2)

    def test_iterate_with_an_overflowing_moment(self):
        from tailorder import iterate
        with pytest.raises(InfiniteMoment):
            iterate(Weibull(0.05), 12)
        assert math.isfinite(Weibull(0.05).raw_moment(8))


class TestTailInverse:
    def test_exponential_closed_form(self):
        assert Exponential(1.0).tail_inverse(math.exp(-2.0)) == pytest.approx(2.0, abs=1e-12)

    def test_branched_pareto_kink(self):
        assert BranchedPareto(5.0, 10.0).tail_inverse(0.25) == pytest.approx(5.0, abs=1e-10)

    def test_p_equal_one_maps_to_zero(self):
        for d in ALL_VARIANTS:
            assert d.tail_inverse(1.0) == pytest.approx(0.0, abs=1e-9)

    def test_roundtrip_on_log_grid(self):
        ps = np.geomspace(1e-6, 1.0, 25)
        for d in ALL_VARIANTS:
            xs = np.asarray(d.tail_inverse(ps))
            np.testing.assert_allclose(d.tail(xs), ps, atol=1e-8, rtol=1e-6)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Exponential(1.0).tail_inverse(0.0)
        with pytest.raises(ValueError):
            Exponential(1.0).tail_inverse(1.5)

    @pytest.mark.parametrize("call", [
        lambda: Gamma(2.0).tail_inverse(math.nan),
        lambda: Gamma(2.0).tail_inverse(np.array([0.5, math.nan])),
        lambda: iterate(Gamma(2.0), 2).tail_inverse(math.nan),
        lambda: Gamma(2.0).quantile_horizon(math.nan),
    ], ids=["distribution", "array", "iterate", "horizon"])
    def test_nan_probability_rejected(self, call):
        # a NaN fails every comparison, so (p <= 0) | (p > 1) would pass it
        with pytest.raises(ValueError, match="p in"):
            call()

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1e-10])
    def test_numeric_density_horizon_rejects_bad_eps(self, eps):
        # its horizon is its truncation point, but a NaN or nonpositive eps
        # is refused as every other distribution refuses it
        d = NumericDensity(lambda x: np.exp(-np.asarray(x, dtype=float)), 40.0)
        assert d.quantile_horizon(1e-10) == 40.0
        with pytest.raises(ValueError, match="eps > 0"):
            d.quantile_horizon(eps)
        with pytest.raises(ValueError, match="p in"):
            Exponential(1.0).quantile_horizon(eps)


class TestBreakpoints:
    def test_branched_pareto(self):
        assert BranchedPareto(5.0, 10.0).breakpoints() == (5.0,)

    def test_smooth_families_have_none(self):
        assert Exponential(1.0).breakpoints() == ()
        assert MaxExp(1.0, 2.0).breakpoints() == ()

    def test_numeric_density_passthrough(self):
        d = NumericDensity(lambda x: np.exp(-x), x_max=40.0, breakpoints=(1.0, 2.0))
        assert d.breakpoints() == (1.0, 2.0)


class TestParameterValidation:
    @pytest.mark.parametrize("bad", [
        lambda: Exponential(0.0),
        lambda: Exponential(-1.0),
        lambda: Gamma(0.0, 1.0),
        lambda: Gamma(1.0, -2.0),
        lambda: Weibull(-0.5, 1.0),
        lambda: BranchedPareto(0.0, 1.0),
        lambda: PolyExpExample(0.0),
        lambda: MaxExp(1.0),
        lambda: MaxExp(1.0, -2.0),
    ])
    def test_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            bad()

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("build, name", [
        (lambda v: Exponential(v), "rate"),
        (lambda v: Gamma(v, 1.0), "shape"),
        (lambda v: Gamma(2.0, v), "scale"),
        (lambda v: Weibull(v, 1.0), "shape"),
        (lambda v: Weibull(2.0, v), "scale"),
        (lambda v: BranchedPareto(v, 10.0), "c1"),
        (lambda v: BranchedPareto(5.0, v), "c2"),
        (lambda v: PolyExpExample(v), "c"),
        (lambda v: NumericDensity(lambda x: np.exp(-np.asarray(x, dtype=float)), x_max=v),
         "x_max"),
    ], ids=["exp-rate", "gamma-shape", "gamma-scale", "weibull-shape", "weibull-scale",
            "bpareto-c1", "bpareto-c2", "polyexp-c", "numeric-x_max"])
    def test_non_finite_parameter_rejected(self, build, name, value):
        # inf passes `not x > 0`; Gamma(inf) would have a NaN mean
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build(value)

    def test_maxexp_rates_sorted(self):
        assert MaxExp(3.0, 1.0, 2.0).rates == (1.0, 2.0, 3.0)

    def test_exppoly_tail_normalization_enforced(self):
        with pytest.raises(ValueError):
            ExpPolyTail(ExpPoly(((0.7, 1.0),)))
        d = ExpPolyTail(ExpPoly(((2.0, 1.0), (-1.0, 2.0))))
        assert d.tail(0.0) == 1.0

    def test_exppoly_tail_rejects_a_nan_coefficient(self):
        # tail(0) = 1 is checked as |sum - 1| > 1e-9, which a nan passes;
        # the polynomial itself refuses the term
        with pytest.raises(ValueError, match="finite"):
            ExpPolyTail(ExpPoly(((float("nan"), 1.0), (1.0, 2.0))))


class TestNumericDensity:
    def test_matches_exponential(self):
        d = NumericDensity(lambda x: np.exp(-np.asarray(x, dtype=float)), x_max=60.0)
        assert d.tail(1.0) == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert d.raw_moment(2) == pytest.approx(2.0, rel=1e-8)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            NumericDensity(lambda x: 2.0 * np.exp(-np.asarray(x, dtype=float)), x_max=60.0)

    def test_truncation_mass_checked(self):
        with pytest.raises(ValueError):
            NumericDensity(lambda x: np.exp(-np.asarray(x, dtype=float)), x_max=3.0)


class TestParseLiterals:
    @pytest.mark.parametrize("text,expected", [
        ("exp(1)", Exponential(1.0)),
        ("gamma(2,1)", Gamma(2.0, 1.0)),
        ("weibull(1.5, 1)", Weibull(1.5, 1.0)),
        ("bpareto(5,10)", BranchedPareto(5.0, 10.0)),
        ("polyexp(1)", PolyExpExample(1.0)),
        ("maxexp(1,2)", MaxExp(1.0, 2.0)),
        ("  MAXEXP( 1 , 2 , 3 ) ", MaxExp(1.0, 2.0, 3.0)),
    ])
    def test_roundtrip(self, text, expected):
        assert parse_distribution(text) == expected

    @pytest.mark.parametrize("bad", ["exp", "exp()", "norm(0,1)", "gamma(2)", "exp(a)"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_distribution(bad)
