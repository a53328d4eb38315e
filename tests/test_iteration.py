"""Iterated tails, moments, and residual partial moments.

The defining quadrature (density against the shifted power) is the oracle
for every closed form, written out independently with scipy here.
"""
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

import tailorder
from tailorder import iteration
from tailorder import (
    BranchedPareto,
    Exponential,
    Gamma,
    InfiniteMoment,
    MaxExp,
    PolyExpExample,
    Weibull,
    iterate,
    iterated_moment,
    residual_partial_moment,
)
from tailorder.iteration import _rule_tails

CLOSED_FORM_VARIANTS = [
    Exponential(1.3),
    Gamma(2.0, 1.0),
    Gamma(0.7, 1.5),
    Weibull(1.5, 1.0),
    PolyExpExample(1.0),
    MaxExp(1.0, 2.0),
]


def oracle_tail(d, s, x, upper=120.0):
    """Brute-force normalized residual moment via direct quadrature."""
    num, _ = integrate.quad(lambda t: d.density(t) * (t - x) ** (s - 1),
                            x, upper, limit=300)
    den, _ = integrate.quad(lambda t: d.density(t) * t ** (s - 1),
                            0, upper, limit=300)
    return num / den


class TestExponentialFixedPoint:
    def test_tail_is_invariant_for_every_order(self):
        xs = np.linspace(0.0, 30.0, 200)
        for lam in (1.0, 2.5):
            d = Exponential(lam)
            for s in range(1, 7):
                it = iterate(d, s)
                np.testing.assert_allclose(it.eval_tail(xs), np.exp(-lam * xs),
                                           atol=1e-12, rtol=0)


class TestClosedForms:
    def test_parallel_system_iterate_coefficients(self):
        it = iterate(MaxExp(1.0, 2.0), 2)
        c = 1.0 + 0.5 - 1.0 / 3.0
        expected = ((1.0 / c, 1.0), (0.5 / c, 2.0), (-1.0 / 3.0 / c, 3.0))
        for (got_c, got_r), (exp_c, exp_r) in zip(it.poly.terms, expected):
            assert got_c == pytest.approx(exp_c, rel=1e-14)
            assert got_r == exp_r

    def test_gamma_order_two_analytic_value(self):
        # integral of t e^{-t} (t - 1) over [1, inf) equals 3/e; divide by E X = 2
        it = iterate(Gamma(2.0, 1.0), 2)
        assert it.eval_tail(1.0) == pytest.approx(1.5 * math.exp(-1.0), rel=1e-12)

    def test_branched_pareto_order_two(self):
        it = iterate(BranchedPareto(5.0, 10.0), 2)
        # the two branch formulas agree at the kink, value 3/5
        assert it.eval_tail(5.0) == pytest.approx(0.6, abs=1e-12)
        assert it.eval_tail(5.0 - 1e-9) == pytest.approx(it.eval_tail(5.0 + 1e-9), abs=1e-7)
        assert it.tail_inverse(0.6) == pytest.approx(5.0, abs=1e-9)

    def test_closed_forms_match_defining_quadrature(self):
        for d in CLOSED_FORM_VARIANTS:
            for s in (2, 3):
                it = iterate(d, s)
                for x in (0.3, 1.0, 2.7):
                    assert it.eval_tail(x) == pytest.approx(
                        oracle_tail(d, s, x), abs=1e-8), (d, s, x)

    def test_tail_one_at_origin_and_for_negative(self):
        for d in CLOSED_FORM_VARIANTS:
            it = iterate(d, 3)
            assert it.eval_tail(0.0) == pytest.approx(1.0, abs=1e-12)
            assert it.eval_tail(-2.0) == 1.0

    def test_branched_pareto_higher_orders_rejected(self):
        with pytest.raises(InfiniteMoment):
            iterate(BranchedPareto(5.0, 10.0), 3)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            iterate(Exponential(1.0), 0)


class TestIteratedMoments:
    def test_exponential_is_constant(self):
        for s in (1, 2, 3, 4):
            assert iterated_moment(Exponential(1.0), s) == pytest.approx(1.0, rel=1e-12)

    def test_gamma(self):
        assert iterated_moment(Gamma(2.0, 1.0), 2) == pytest.approx(1.5, rel=1e-12)

    def test_weibull_mean(self):
        assert iterated_moment(Weibull(2.0, 1.0), 1) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-12)

    def test_matches_definition_by_quadrature(self):
        # the normalizer is the integral of the iterated tail over (0, inf)
        for d in (Gamma(1.7, 1.2), Weibull(1.3, 0.8), MaxExp(1.0, 3.0)):
            for s in (1, 2, 3):
                it = iterate(d, s)
                val, _ = integrate.quad(lambda t: it.eval_tail(t), 0.0,
                                        d.quantile_horizon(1e-14) * (1 + s), limit=300)
                assert iterated_moment(d, s) == pytest.approx(val, rel=1e-8), (d, s)

    def test_normalizer_chain_telescopes(self):
        for d in (Gamma(2.3, 1.0), Weibull(1.1, 2.0), PolyExpExample(0.5)):
            for s in (2, 3, 4):
                prod = 1.0
                for j in range(1, s + 1):
                    prod *= iterated_moment(d, j)
                assert prod == pytest.approx(d.raw_moment(s) / math.factorial(s),
                                             rel=1e-8)


class TestRecursionConsistency:
    def test_iterate_equals_integral_of_previous(self):
        # tail_s(x) = (1/mu_{s-1}) * integral of tail_{s-1} over (x, inf)
        for d in (Gamma(2.0, 1.0), MaxExp(1.0, 2.0), PolyExpExample(1.0)):
            for s in (2, 3, 4):
                prev = iterate(d, s - 1)
                cur = iterate(d, s)
                mu = iterated_moment(d, s - 1)
                for x in (0.2, 1.0, 3.0):
                    val, _ = integrate.quad(lambda t: prev.eval_tail(t), x,
                                            d.quantile_horizon(1e-14) * (1 + s),
                                            limit=300)
                    assert cur.eval_tail(x) == pytest.approx(val / mu, abs=1e-8)


class TestResidualPartialMoments:
    def test_exponential_memorylessness(self):
        assert residual_partial_moment(Exponential(1.0), 1, 2.0) == pytest.approx(
            math.exp(-2.0), rel=1e-9)

    def test_total_mass(self):
        for d in CLOSED_FORM_VARIANTS:
            assert residual_partial_moment(d, 0, 0.0) == pytest.approx(1.0, rel=1e-9)

    def test_gamma_value(self):
        assert residual_partial_moment(Gamma(2.0, 1.0), 1, 1.0) == pytest.approx(
            3.0 * math.exp(-1.0), rel=1e-9)

    def test_identity_with_iterated_tail(self):
        # E (X - x)_+^{s-1} = E X^{s-1} * tail_s(x)
        for d in (Gamma(2.0, 1.0), Weibull(1.5, 1.0), MaxExp(1.0, 2.0)):
            for s in (2, 3):
                it = iterate(d, s)
                for x in (0.5, 1.5):
                    lhs = residual_partial_moment(d, s - 1, x) / d.raw_moment(s - 1)
                    assert lhs == pytest.approx(it.eval_tail(x), abs=1e-8)

    def test_nan_point_is_rejected(self):
        # NaN passed the x < 0 check, and gave NaN after two IntegrationWarnings
        # (holder_bounds an all-NaN report); x = inf has no mass beyond it
        from tailorder import holder_bounds
        d = Gamma(2.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="nonnegative"):
                residual_partial_moment(d, 2, math.nan)
            with pytest.raises(ValueError, match="nonnegative"):
                holder_bounds(d, 5, math.nan)
            assert residual_partial_moment(d, 2, math.inf) == 0.0

    def test_divergent_moment_rejected(self):
        with pytest.raises(InfiniteMoment):
            residual_partial_moment(BranchedPareto(5.0, 10.0), 2, 1.0)

    def test_branched_pareto_residual_mean(self):
        # E (X - x)_+ = E X * tail_2(x), with the closed piecewise form
        d = BranchedPareto(5.0, 10.0)
        it2 = iterate(d, 2)
        for x in (0.0, 2.0, 5.0, 9.0):
            assert residual_partial_moment(d, 1, x) == pytest.approx(
                6.25 * it2.eval_tail(x), rel=1e-7)


class TestScipyCrossChecks:
    def test_against_scipy_survival_composition(self):
        # equilibrium tail of Gamma via scipy's sf: integral of sf / mean
        d = Gamma(3.0, 1.0)
        it = iterate(d, 2)
        for x in (0.5, 2.0, 4.0):
            val, _ = integrate.quad(lambda t: stats.gamma.sf(t, 3.0), x, 80.0)
            assert it.eval_tail(x) == pytest.approx(val / 3.0, rel=1e-9)


class TestQuadratureFallback:
    def test_numeric_density_iterates_like_its_analytic_twin(self):
        import numpy as np
        from tailorder import NumericDensity
        c = 1.0
        numeric = NumericDensity(
            lambda x: (np.asarray(x) ** 2 + c) * np.exp(-np.asarray(x)) / (c + 2.0),
            x_max=80.0)
        analytic = PolyExpExample(c)
        it_n = iterate(numeric, 2)
        it_a = iterate(analytic, 2)
        assert it_n.kind == "quadrature"
        for x in (0.0, 0.7, 2.0):
            assert it_n.eval_tail(x) == pytest.approx(it_a.eval_tail(x), abs=1e-8)
        assert iterated_moment(numeric, 2) == pytest.approx(
            iterated_moment(analytic, 2), rel=1e-8)


# tail_s at the cross-check abscissae (0.25, 1 and 2 times the mean, then the
# breakpoints), computed with mpmath at 60 digits: incomplete-gamma sums for
# Gamma and Weibull, mpmath.quad split at the breakpoints for the others.
# Frozen as literals because mpmath is not a dependency.
MPMATH_TAILS = {
    (Gamma(0.3), 2): (0.8475636069837521, 0.5752117576599179, 0.36783573935879543),
    (Weibull(0.3), 2): (0.9042729574005596, 0.7605740423738565, 0.6480769480872007),
    (Gamma(0.3), 7): (0.9186871133917189, 0.713077847730343, 0.5097865355906626),
    (Weibull(0.3), 7): (0.9992158120037361, 0.9968691301406329, 0.993753864332698),
    (Gamma(0.3), 12): (0.9230468506647732, 0.726115321692262, 0.5275858650234913),
    (Weibull(0.3), 12): (0.9998266286820361, 0.9993067424733727, 0.9986140918652862),
    (Gamma(0.5), 2): (0.8148716348532797, 0.4839414490382866, 0.2578082903703095),
    (Weibull(0.5), 2): (0.8417209066715909, 0.586935717510938, 0.40600584970983805),
    (Gamma(0.5), 7): (0.8726714894735348, 0.5810232432225304, 0.3389979178910543),
    (Weibull(0.5), 7): (0.9775846722377507, 0.9139122219010608, 0.8366311338208724),
    (Gamma(0.5), 12): (0.8772951570628337, 0.5926330833647815, 0.35162272241820985),
    (Weibull(0.5), 12): (0.9881731765653032, 0.953609917295219, 0.9095842228747233),
    (Gamma(2.0), 2): (0.7581633246407917, 0.2706705664732254, 0.05494691666620254),
    (Weibull(2.0), 2): (0.7540310735283398, 0.21009140544393726, 0.012188882184802883),
    (Gamma(2.0), 7): (0.6498542782635358, 0.17400250701850203, 0.02878171825372514),
    (Weibull(2.0), 7): (0.46650520918164545, 0.03374148596143879, 0.000414263069057069),
    (Gamma(2.0), 12): (0.6318027705339931, 0.15789116377604814, 0.024420851851645574),
    (Weibull(2.0), 12): (0.35296331874034287, 0.011216220411755438, 4.869503089777316e-05),
    (Gamma(3.0), 2): (0.7528341934309922, 0.2240418076553878, 0.02726627394332996),
    (Weibull(3.0), 2): (0.7506931789063448, 0.14708068097765004, 0.0003564078366250318),
    (Gamma(3.0), 7): (0.5656800346998982, 0.0951288627743115, 0.007790363983808561),
    (Weibull(3.0), 7): (0.3415114282034694, 0.004824074355602215, 3.1928844265234206e-07),
    (Gamma(3.0), 12): (0.5285736305311115, 0.07563804617425486, 0.005338850842050622),
    (Weibull(3.0), 12): (0.1966038992093109, 0.00045395882834406323, 2.1622858035562028e-09),
    (Weibull(0.3), 8): (0.9994690197373345, 0.9978785746117926, 0.9957637849507968),
    (Weibull(0.3), 9): (0.9996197913100464, 0.9984803757540205, 0.9969639736509466),
    (Weibull(0.3), 10): (0.9997161076354871, 0.9988650778940589, 0.9977318799243553),
    (Weibull(0.3), 11): (0.9997810136385731, 0.9991244274531476, 0.998249848421788),
    (Weibull(0.32), 8): (0.9990636802578896, 0.9962622096261174, 0.9925442941350726),
    (Weibull(0.32), 9): (0.9993091798312314, 0.9972405960723411, 0.9944914980372421),
    (Weibull(0.32), 10): (0.9994705148302155, 0.9978842523569005, 0.9957743400601995),
    (Weibull(0.32), 11): (0.9995819741093334, 0.9983292237499813, 0.9966619813030961),
    (Weibull(0.32), 12): (0.9996620636095412, 0.9986491016888135, 0.9973004599241961),
    (Weibull(0.35), 10): (0.9988236818599702, 0.9953051850966429, 0.9906381318555305),
    (Weibull(0.35), 11): (0.9990431251274544, 0.9961792463326002, 0.9923764194159223),
    (Weibull(0.35), 12): (0.9992053780128225, 0.9968260700986867, 0.9936642616992362),
    (PolyExpExample(1.0), 2): (0.7711735695016623, 0.30169056668926014, 0.0637352572934675),
    (PolyExpExample(1.0), 6): (0.6532940522750438, 0.1723946095367201, 0.026412590422416768),
    (BranchedPareto(1.0, 2.0), 2): (0.8095238095238095, 0.5538461538461539, 0.4, 0.6),
    (Weibull(1.5, 0.01), 3): (0.6995230051014582, 0.2029891730920051, 0.02773527803409768),
    (Weibull(0.1), 2): (0.9926017842419916, 0.9822321690542619, 0.9731702601121176),
    (Weibull(0.1), 7): (0.9999999999801045, 0.9999999999204181, 0.9999999998408362),
    (Weibull(0.1), 12): (0.9999999999999414, 0.9999999999997654, 0.9999999999995309),
    # peaked densities: the far tail overflows the Weibull power terms, and
    # the peak lies narrow and far from 0.25 times the mean
    (Weibull(12.0), 2): (0.7500000006874115, 0.03980973929977875, 0.0),
    (Weibull(12.0), 7): (0.1951907886295018, 1.6732948883271466e-06, 0.0),
    (Weibull(20.0), 2): (0.7500000000000063, 0.0241564311310522, 0.0),
    (Weibull(20.0), 7): (0.18490072095477753, 7.595936572149532e-08, 0.0),
    (Weibull(30.0), 2): (0.7499999999999999, 0.016196366569845785, 0.0),
    (Weibull(30.0), 7): (0.18125548312238926, 6.499940842350166e-09, 0.0),
    (Weibull(50.0), 2): (0.75, 0.00976258024926205, 0.0),
    (Weibull(50.0), 7): (0.17922500889396284, 2.950915637176746e-10, 0.0),
    (Weibull(1000.0), 2): (0.75, 0.0004913626174583758, 0.0),
    (Weibull(1000.0), 7): (0.1779819145706269, 4.3811190718122474e-18, 0.0),
    (Gamma(200.0), 2): (0.7500000000000185, 0.028197727685957144, 6.120028995436359e-31),
    (Gamma(200.0), 7): (0.18825850949943823, 1.1733992431408344e-06, 3.5578013293595586e-38),
    (Gamma(1000.0), 2): (0.7499999999997514, 0.012614611348228416, 1.3653953037113026e-138),
    (Gamma(1000.0), 7): (0.18005084517746195, 8.449370622230286e-09, 3.0088929553827162e-149),
}

# Gamma shapes where the density's own rounding (its log is a difference of
# terms near 1e6 to 1e8) limits any quadrature of it to 1e-10 to 1e-8
WIDE_GAMMA_TAILS = {
    (Gamma(1e5), 2): (0.7500000000193671, 0.001261565248406939, 0.0),
    (Gamma(1e5), 7): (0.17799927940404142, 7.600438167864387e-15, 0.0),
    (Gamma(1e6), 2): (0.7499999999999575, 0.00039894224707122524, 0.0),
    (Gamma(1e6), 7): (0.17798059203686817, 7.531867480183699e-18, 0.0),
    (Gamma(1e7), 2): (0.7500000036476305, 0.00012616391983137325, 0.0),
}

# Weibull iterates whose construction raised a spurious AssertionError while
# the cross-check ran scalar adaptive quadrature: quad misread the integral,
# not the closed form
SMALL_SHAPE_WEIBULL = ([(Weibull(0.3), s) for s in range(7, 13)]
                       + [(Weibull(0.32), s) for s in range(8, 13)]
                       + [(Weibull(0.35), s) for s in range(10, 13)])


def check_abscissae(d):
    m = d.mean()
    return [0.25 * m, m, 2.0 * m] + [float(b) for b in d.breakpoints()]


class _NonFiniteBeyond3(Gamma):
    """Gamma(shape) whose density reads NaN (or inf) past x = 3."""

    bad = np.nan

    def _density(self, x):
        return np.where(x > 3.0, self.bad, super()._density(x))


class _InfiniteBeyond3(_NonFiniteBeyond3):
    bad = np.inf


class TestCrossCheckRule:
    @pytest.mark.parametrize("d, s", list(MPMATH_TAILS), ids=repr)
    def test_rule_matches_mpmath(self, d, s):
        got = _rule_tails(d, s, check_abscissae(d))
        np.testing.assert_allclose(got, MPMATH_TAILS[d, s], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d, s", list(WIDE_GAMMA_TAILS), ids=repr)
    def test_rule_resolves_narrow_peaks(self, d, s):
        # the Gamma(1e7) peak is 3e-4 means wide and 0.75 means from the
        # first abscissa, far narrower than the spacing of nodes there at
        # steps 1/32 and 1/16 alike: the panel ending at the mean resolves it
        got = _rule_tails(d, s, check_abscissae(d))
        np.testing.assert_allclose(got, WIDE_GAMMA_TAILS[d, s], rtol=0, atol=1e-8)
        assert iterate(d, s).kind == "special"

    @pytest.mark.parametrize("d, s", [(Weibull(a), s) for a in (12.0, 30.0, 1000.0)
                                      for s in (2, 7)], ids=repr)
    def test_large_shape_weibull_iterates_build(self, d, s):
        it = iterate(d, s)
        np.testing.assert_allclose(it.eval_tail(check_abscissae(d)), MPMATH_TAILS[d, s],
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("d, s", SMALL_SHAPE_WEIBULL, ids=repr)
    def test_small_shape_weibull_iterates_build(self, d, s):
        it = iterate(d, s)
        np.testing.assert_allclose(it.eval_tail(check_abscissae(d)), MPMATH_TAILS[d, s],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("factor", [1.0 + 1e-6, np.nan])
    def test_perturbed_closed_form_is_caught(self, factor, monkeypatch):
        exact = iteration._gamma_eval

        def perturbed(alpha, theta, s):
            ev = exact(alpha, theta, s)
            return lambda x: factor * ev(x)

        monkeypatch.setattr(iteration, "_gamma_eval", perturbed)
        iteration._iterate_cached.cache_clear()
        try:
            with pytest.raises(AssertionError, match="iterated tail mismatch"):
                iterate(Gamma(2.5), 3)
        finally:
            iteration._iterate_cached.cache_clear()

    @pytest.mark.parametrize("cls", [_NonFiniteBeyond3, _InfiniteBeyond3])
    def test_non_finite_density_raises(self, cls):
        with pytest.raises(ValueError, match="non-finite density"):
            _rule_tails(cls(2.0), 3, [0.5])
        with pytest.raises(ValueError, match="non-finite density"):
            iterate(cls(2.0), 3)

    def test_rule_emits_no_warning(self):
        # the far exp-sinh nodes sit ~1e31 units out, where the density has
        # underflowed to 0 and the power of (t - x) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d, s in ((Weibull(3.0), 12), (Gamma(0.3), 12), (Weibull(0.1), 12),
                         (Weibull(12.0), 2), (Weibull(12.0), 7), (Weibull(30.0), 2),
                         (Weibull(30.0), 7), (Gamma(1e6), 7),
                         (BranchedPareto(1.0, 2.0), 2), (PolyExpExample(1.0), 6)):
                assert np.all(np.isfinite(_rule_tails(d, s, check_abscissae(d))))

    def test_residual_partial_moment_of_small_shape_weibull(self):
        # f(t) (t - x)^7 has its mass near t = 2.6e4, far beyond x + 60 (1 +
        # mean), about 618, where the finite leg ended when it read the
        # mean alone: the adaptive infinite leg missed the mass and returned
        # about 5.8e-06
        d = Weibull(0.3)
        x = 0.25 * d.mean()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = residual_partial_moment(d, 7, x) / d.raw_moment(7)
        assert got == pytest.approx(MPMATH_TAILS[d, 8][0], rel=1e-9)


class TestColdStart:
    def test_closed_forms_run_without_scipy_integrate(self):
        # scipy.integrate serves adaptive quad alone, so neither the package
        # import nor closed-form iterates and checks may load it; a
        # NumericDensity still builds through the import where quad runs
        code = textwrap.dedent("""
            import sys
            import numpy as np
            import tailorder
            from tailorder import Gamma, GridSpec, MaxExp, NumericDensity, iterate, newcrit
            newcrit(MaxExp(1, 1), MaxExp(1, 2), 2, GridSpec((0.5, 1.0, 2.0), (0.0, 1.0)))
            iterate(Gamma(2), 3)
            assert "scipy.integrate" not in sys.modules, "scipy.integrate loaded"
            NumericDensity(lambda t: np.exp(-t), 60)
            assert "scipy.integrate" in sys.modules
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(tailorder.__file__)))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr


#: every entry point that takes an iteration or moment order: (name of the
#: order, its least value, the call)
_ORDER_TAKERS = {
    "iterate": ("s", 1, lambda s: tailorder.iterate(tailorder.Gamma(2.0), s)),
    "iterated_moment": ("s", 1, lambda s: tailorder.iterated_moment(tailorder.Gamma(2.0), s)),
    "raw_moment": ("k", 0, lambda k: tailorder.Gamma(2.0).raw_moment(k)),
    "residual_partial_moment": (
        "k", 0, lambda k: tailorder.residual_partial_moment(tailorder.Gamma(2.0), k, 1.0)),
    "criterion_h": ("s", 1, lambda s: tailorder.criterion_h(
        tailorder.Exponential(1.0), tailorder.MaxExp(1.0, 2.0), s,
        tailorder.GridSpec((1.0,), (0.0,)))),
    "failure_rate": ("s", 1, lambda s: tailorder.failure_rate(tailorder.Gamma(2.0), s, 1.0)),
    "classify_ifr": ("s", 1, lambda s: tailorder.classify_ifr(tailorder.Gamma(2.0), s)),
    "classify_ifra": ("s", 1, lambda s: tailorder.classify_ifra(tailorder.Gamma(2.0), s)),
    "holder_bounds": ("s", 1, lambda s: tailorder.holder_bounds(tailorder.Gamma(2.0), s, 1.0)),
}


@pytest.mark.parametrize("order", ["inf", "nan", "2.5", "below"])
@pytest.mark.parametrize("entry", sorted(_ORDER_TAKERS))
def test_bad_order_is_a_value_error_naming_it(entry, order):
    # one check serves every entry point: an infinite order is no
    # OverflowError, and a NaN one is refused by the check, not by accident
    name, least, call = _ORDER_TAKERS[entry]
    value = {"inf": math.inf, "nan": math.nan, "2.5": 2.5, "below": least - 1}[order]
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        call(value)
