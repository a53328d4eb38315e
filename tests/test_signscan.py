"""Adaptive sign scanning, pattern matching, and the integration lemma."""

import numpy as np
import pytest

from tailorder import ExpPoly, IndeterminateFunction, ScanConfig, check_integration_lemma, scan
from tailorder.patterns import ALLOWED_IFR, ALLOWED_IFRA, DEFAULT_X_MAX, SignPattern, matches


class TestScan:
    def test_linear_crossing(self):
        pat = scan(lambda x: x - 1.0, ScanConfig(x_max=10.0))
        assert pat.signs == ("-", "+")
        lo, hi = pat.change_points[0]
        assert lo <= 1.0 <= hi

    def test_pure_decay_is_positive(self):
        pat = scan(lambda x: np.exp(-x), ScanConfig(x_max=10.0))
        assert pat.signs == ("+",)

    def test_cubic_three_regions(self):
        f = lambda x: (x - 1.0) * (x - 2.0) * (x - 3.0)
        pat = scan(f, ScanConfig(x_max=10.0))
        assert pat.signs == ("-", "+", "-", "+")
        for root, (lo, hi) in zip((1.0, 2.0, 3.0), pat.change_points):
            assert lo <= root <= hi

    def test_touch_without_crossing_is_no_change(self):
        pat = scan(lambda x: (x - 1.0) ** 2, ScanConfig(x_max=10.0))
        assert pat.signs == ("+",)

    def test_zero_function_raises(self):
        with pytest.raises(IndeterminateFunction):
            scan(lambda x: np.zeros_like(x), ScanConfig(x_max=10.0))

    def test_negation_flips_pattern(self):
        f = lambda x: np.sin(x)
        cfg = ScanConfig(x_max=10.0)
        pat = scan(f, cfg)
        neg = scan(lambda x: -f(x), cfg)
        flip = {"+": "-", "-": "+"}
        assert neg.signs == tuple(flip[s] for s in pat.signs)

    def test_positive_rescaling_preserves_pattern_and_witnesses(self):
        f = lambda x: (x - 2.0) * np.exp(-x)
        cfg = ScanConfig(x_max=20.0)
        pat = scan(f, cfg)
        scaled = scan(lambda x: 17.0 * f(x), cfg)
        assert scaled.signs == pat.signs
        assert scaled.witnesses == pat.witnesses

    def test_refinement_tightens_brackets(self):
        f = lambda x: x - 1.0
        wide = scan(f, ScanConfig(x_max=10.0, max_refinement_depth=2))
        tight = scan(f, ScanConfig(x_max=10.0, max_refinement_depth=16))
        w_lo, w_hi = wide.change_points[0]
        t_lo, t_hi = tight.change_points[0]
        assert (t_hi - t_lo) < (w_hi - w_lo)
        assert t_hi - t_lo < 1e-3

    def test_refinement_never_loses_changes(self):
        f = lambda x: (x - 1.0) * (x - 1.5) * (x - 6.0)
        base = scan(f, ScanConfig(x_max=20.0, initial_grid=64, max_refinement_depth=4))
        finer = scan(f, ScanConfig(x_max=20.0, initial_grid=512, max_refinement_depth=12))
        assert len(finer.signs) >= len(base.signs)
        assert finer.signs == ("-", "+", "-", "+")

    def test_breakpoints_are_sampled(self):
        # narrow triangular spike around the declared breakpoint
        def f(x):
            return np.where(np.abs(x - 3.0) < 1e-4, 1.0, -1.0)

        cfg = ScanConfig(x_max=10.0, initial_grid=64)
        with_bp = scan(f, cfg, breakpoints=(3.0,))
        assert "+" in with_bp.signs

    def test_unset_window_defaults_to_fifty(self):
        rows = []
        scan(lambda x: x - 1.0, ScanConfig(initial_grid=64), trace=rows)
        assert max(x for x, _, _ in rows) == DEFAULT_X_MAX == 50.0

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            ScanConfig(x_max=0.0)

    def test_trace_rows_collected(self):
        rows = []
        scan(lambda x: x - 1.0, ScanConfig(x_max=10.0, initial_grid=64), trace=rows)
        assert len(rows) >= 64
        xs = [r[0] for r in rows]
        assert all(s in ("+", "-", "0") for _, _, s in rows)


class TestMatches:
    def test_final_part_accepted(self):
        assert matches(("+",), [("+", "-", "+")])

    def test_disallowed_pattern(self):
        assert not matches(("-", "+", "-"), [("+", "-", "+")])

    def test_exact_member(self):
        assert matches(("-", "+"), [("-", "+")])

    def test_empty_pattern_matches_everything(self):
        assert matches((), [("+", "-", "+")])

    def test_convex_transform_admissible_set(self):
        # at most two changes; "+,-,+" when exactly two
        for pat in (("+",), ("-",), ("+", "-"), ("-", "+"), ("+", "-", "+")):
            assert matches(pat, ALLOWED_IFR), pat
        for pat in (("-", "+", "-"), ("+", "-", "+", "-"), ("-", "+", "-", "+")):
            assert not matches(pat, ALLOWED_IFR), pat

    def test_star_shape_admissible_set(self):
        for pat in (("-",), ("+",), ("-", "+")):
            assert matches(pat, ALLOWED_IFRA), pat
        for pat in (("+", "-"), ("-", "+", "-"), ("+", "-", "+")):
            assert not matches(pat, ALLOWED_IFRA), pat


class TestSignPatternInvariants:
    def test_adjacent_signs_must_differ(self):
        with pytest.raises(ValueError):
            SignPattern(("+", "+"), (1.0, 2.0), ((1.5, 1.6),))

    def test_witness_counts(self):
        with pytest.raises(ValueError):
            SignPattern(("+", "-"), (1.0,), ((1.5, 1.6),))

    def test_exact_confidence_survives_negation(self):
        pat = SignPattern(("+", "-"), (1.0, 3.0), ((2.0, 2.1),), "exact")
        assert pat.negated().confidence == "exact"


class TestSampledAgainstExact:
    def test_patterns_agree_on_random_polynomials(self):
        # a sign region whose peak sits under the sampled deadband is
        # invisible to sampling by design, so only detectable instances
        # are compared
        rng = np.random.default_rng(20240911)
        checked = 0
        for _ in range(300):
            n = rng.integers(2, 7)
            rates = np.sort(rng.uniform(0.1, 10.0, n)) + np.arange(n) * 1e-6
            coefs = rng.uniform(-5.0, 5.0, n)
            coefs[np.abs(coefs) < 0.05] = 0.05
            p = ExpPoly(tuple(zip(coefs, rates)))
            exact = p.sign_pattern_exact(0.0)
            if exact.uncertain:
                continue
            cfg = ScanConfig(x_max=max(50.0, 20.0 / p.rates[0]))
            probe = np.geomspace(cfg.x_max * 1e-10, cfg.x_max, 2048)
            eps = cfg.deadband * float(np.max(np.abs(p.eval(probe))))
            evidence = [abs(p.eval(w)) for w in exact.witnesses]
            if min(evidence) <= 10.0 * eps:
                continue
            sampled = scan(p.eval, cfg)
            assert sampled.signs == exact.signs, p.terms
            checked += 1
        assert checked >= 280


class TestIntegrationLemma:
    def test_single_positive_term(self):
        assert check_integration_lemma(ExpPoly(((2.0, 1.0),)))

    def test_plus_minus_plus_example(self):
        # f with pattern "+,-,+": the integrated pattern is a final part
        f = ExpPoly(((1.0, 0.5), (-4.0, 1.5), (4.0, 3.0)))
        pat = f.sign_pattern_exact(0.0)
        assert check_integration_lemma(f)

    def test_random_sweep(self):
        rng = np.random.default_rng(321)
        done = 0
        for _ in range(200):
            n = rng.integers(2, 5)
            rates = np.sort(rng.uniform(0.1, 8.0, n)) + np.arange(n) * 1e-6
            coefs = rng.uniform(-5.0, 5.0, n)
            coefs[np.abs(coefs) < 0.05] = 0.05
            f = ExpPoly(tuple(zip(coefs, rates)))
            assert check_integration_lemma(f), f.terms
            done += 1
        assert done == 200
