"""Pairwise order checks: pattern sweeps, criteria, DMRL, convexity."""
import math
from dataclasses import dataclass

import numpy as np
import pytest

from tailorder import (
    BranchedPareto,
    Distribution,
    ExpPoly,
    Exponential,
    Gamma,
    GridSpec,
    MaxExp,
    NumericDensity,
    PolyExpExample,
    Verdict,
    Weibull,
    classify_ifr,
    compare_dmrl,
    compare_ifr,
    compare_ifra,
    convexity_check,
    criterion_h,
    newcrit,
)
from tailorder import ageing, exppoly, ordering
from tailorder.casebook import _BP_GRID_S1, _BP_GRID_S2
from tailorder.errors import IndeterminateFunction
from tailorder.iteration import iterate
from tailorder.patterns import SAMPLED, ScanConfig
from tailorder.signscan import scan

SMALL = GridSpec(tuple(np.geomspace(0.1, 10.0, 24)),
                 tuple(-np.geomspace(5.0, 0.05, 6)) + tuple(np.linspace(0.0, 6.0, 8)))
SMALL_POS = GridSpec(tuple(np.geomspace(0.1, 10.0, 24)), tuple(np.linspace(0.0, 6.0, 8)))


@pytest.fixture(scope="module")
def bp_order_two():
    """compare_ifr on the branched-Pareto pair at s = 2, with the cells the
    row scanner saw, one list per call."""
    rows = []
    inner = ordering._scan_row

    def spy(F, cells, **kwargs):
        rows.append(cells)
        return inner(F, cells, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ordering, "_scan_row", spy)
        v = compare_ifr(BranchedPareto(5.0, 10.0), BranchedPareto(2.0, 6.0), 2, _BP_GRID_S2)
    return v, rows


class TestCompareIfr:
    def test_reflexive(self):
        e = Exponential(1.0)
        for s in (1, 3):
            assert compare_ifr(e, e, s, SMALL).supported
        # V vanishes on the cell a = 1, b = 0, closed or sampled alike
        grid = GridSpec((0.5, 1.0, 2.0), (0.0, 1.0))
        for X in (e, MaxExp(1.0, 2.0), Weibull(2.0)):
            v = compare_ifr(X, X, 2, grid)
            assert v.supported and v.worst_margin == 0.0, X

    def test_weibull_below_gamma(self):
        v = compare_ifr(Weibull(1.5, 1.0), Gamma(1.5, 1.0), 2, SMALL)
        assert v.supported

    def test_branched_pareto_ordered_at_one_not_two(self, bp_order_two):
        X, Y = BranchedPareto(5.0, 10.0), BranchedPareto(2.0, 6.0)
        assert compare_ifr(X, Y, 1, _BP_GRID_S1).supported
        v2, _ = bp_order_two
        assert v2.refuted
        assert v2.witness is not None

    def test_refutation_witness_reverifies(self, bp_order_two):
        X, Y = BranchedPareto(5.0, 10.0), BranchedPareto(2.0, 6.0)
        v, _ = bp_order_two
        w = v.witness
        from tailorder.iteration import iterate
        TX, TY = iterate(X, 2), iterate(Y, 2)
        vals = [TY.eval_tail(x) - TX.eval_tail(w.a * x + w.b) for x in w.abscissae]
        for val, sign in zip(vals, w.pattern):
            if sign == "+":
                assert val > w.deadband
            else:
                assert val < -w.deadband

    def test_refuting_row_is_scanned_whole_but_not_counted(self, bp_order_two):
        # the refuting cell is cell 14 of row 29: rows of 29 cells go to the
        # row scanner two at a time (58 of the 64 cells a batch may hold),
        # so it sees the whole batch of rows 29 and 30, while cells_scanned
        # stops at the refuting cell
        v, rows = bp_order_two
        nb = len(_BP_GRID_S2.b_values)
        assert v.refuted and v.cells_scanned == 826
        assert len(_BP_GRID_S2.a_values) * nb == 1479
        assert [len(r) for r in rows] == [2 * nb] * 15
        assert sum(len(r) for r in rows) == 30 * nb > v.cells_scanned
        assert (v.witness.a, v.witness.b) == (_BP_GRID_S2.a_values[28], _BP_GRID_S2.b_values[13])

    def test_strict_order_not_mutual(self):
        X, Y = MaxExp(1.0, 1.0), MaxExp(1.0, 2.0)
        assert compare_ifr(X, Y, 1).supported
        reverse = compare_ifr(Y, X, 1)
        assert reverse.outcome in ("refuted", "inconclusive")

    def test_scale_quotient_invariance(self):
        # replacing Y by a scaled copy never changes the outcome
        for X, Yf in ((Exponential(1.0), lambda k: Exponential(1.0 / k)),
                      (Weibull(2.0, 1.0), lambda k: Weibull(1.4, k))):
            outcomes = set()
            for k in (0.5, 1.0, 3.0):
                outcomes.add(compare_ifr(X, Yf(k), 1, GridSpec.default(X, Yf(k), na=24, nb=12)).outcome)
            assert len(outcomes) == 1


class TestCompareIfra:
    def test_reflexive(self):
        d = Gamma(2.0, 1.0)
        assert compare_ifra(d, d, 2, SMALL_POS).supported

    def test_parallel_systems_ordered(self):
        X = MaxExp(1.0, 1.0)
        for lam in (1.5, 5.0):
            assert compare_ifra(X, MaxExp(1.0, lam), 3, SMALL_POS).supported

    def test_majorization_counterexample_refuted(self):
        X, Y = MaxExp(0.34, 1.0), MaxExp(1.0, 11.0)
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, 24)) + (2.89,), (0.0,))
        v = compare_ifra(X, Y, 2, grid)
        assert v.refuted
        assert v.witness.pattern == ("-", "+", "-")
        assert v.witness.a == pytest.approx(2.89)

    def test_sweep_stops_at_refuting_cell(self, monkeypatch):
        calls = []
        inner = ordering._closed_cell

        def spy(*args):
            calls.append(args[1:])
            return inner(*args)

        monkeypatch.setattr(ordering, "_closed_cell", spy)
        X, Y = MaxExp(0.34, 1.0), MaxExp(1.0, 11.0)
        # the 25-cell column is one batch, built whole
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, 24)) + (2.89,), (0.0,))
        v = compare_ifra(X, Y, 2, grid)
        assert v.refuted and v.cells_scanned == 17
        assert len(calls) == len(grid.a_values) == 25
        # a column of 75 slopes is two batches; the refutation lies in the
        # first, so the second is never built
        calls.clear()
        long = GridSpec(grid.a_values + tuple(np.geomspace(21.0, 400.0, 50)), (0.0,))
        v = compare_ifra(X, Y, 2, long)
        assert v.refuted and v.cells_scanned == 17
        assert v.witness.a == pytest.approx(2.89)
        assert calls == [(a, 0.0) for a in long.a_values[:ordering._BATCH_CELLS]]


class TestCriterionH:
    def test_identical_exponentials_degenerate(self):
        v = criterion_h(Exponential(1.0), Exponential(1.0), 2, SMALL_POS, form="hs")
        assert v.supported

    def test_supported_criterion_never_contradicts_pattern_check(self):
        pairs = [(Gamma(3.0, 1.0), Gamma(2.0, 1.0)),
                 (Weibull(2.0, 1.0), Gamma(2.0, 1.0)),
                 (Gamma(2.5, 1.0), Gamma(1.0, 1.0))]
        for X, Y in pairs:
            if criterion_h(X, Y, 1, SMALL_POS, form="hs").supported:
                assert not compare_ifr(X, Y, 1, SMALL_POS).refuted, (X, Y)

    def test_refutation_witness_reverifies(self):
        X, Y, s = MaxExp(1.0, 2.0), MaxExp(1.0, 1.0), 2
        v = criterion_h(X, Y, s, SMALL_POS, form="hs")
        assert v.refuted and v.cells_scanned == 89
        w = v.witness
        assert w.pattern == ("-", "+", "-")
        assert w.a == pytest.approx(0.90474, abs=1e-5) and w.b == 0.0
        assert len(w.values) == len(w.pattern)
        assert w.deadband > 0
        ex, ey = X.raw_moment(s - 1), Y.raw_moment(s - 1)
        for x, sign in zip(w.abscissae, w.pattern):
            h = float(Y.density(x)) / ey - w.a ** s * float(X.density(w.a * x + w.b)) / ex
            if sign == "+":
                assert h > w.deadband
            else:
                assert h < -w.deadband

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            criterion_h(Exponential(1.0), Exponential(1.0), 1, SMALL_POS, form="zs")
        with pytest.raises(ValueError):
            criterion_h(Gamma(2.0, 1.0), Gamma(1.0, 1.0), 1, SMALL_POS, form="ps")


def _count_scans(monkeypatch):
    """Every cell the sweeps hand to the row scanner, as (cell, outcome)."""
    calls = []
    inner = ordering._scan_row

    def spy(F, cells, **kwargs):
        out = inner(F, cells, **kwargs)
        calls.extend(zip(cells, out))
        return out

    monkeypatch.setattr(ordering, "_scan_row", spy)
    return calls


def _count_sampled_cells(monkeypatch):
    """A one-entry list counting the closed cells the sweeps sample, the
    polynomials they pass to exppoly._sign_patterns."""
    calls = [0]
    inner = ordering._sign_patterns

    def spy(polys, starts):
        calls[0] += len(polys)
        return inner(polys, starts)

    monkeypatch.setattr(ordering, "_sign_patterns", spy)
    return calls


class TestClosedCriterionH:
    """Exponential-polynomial pairs: both H forms are certified at every
    nonnegative intercept, without sampled scans."""

    PAIRS = [(MaxExp(1.0, 2.0), MaxExp(1.0, 1.0)),
             (Exponential(1.0), MaxExp(1.0, 2.0)),
             (MaxExp(1.0, 1.0), MaxExp(1.0, 2.0)),
             (MaxExp(1.0, 2.0), Exponential(1.0)),
             (MaxExp(1.0, 1.0), MaxExp(1.0, 4.0)),
             (MaxExp(0.5, 2.0), MaxExp(1.0, 3.0))]
    #: 0.905 is a slope at which several pairs refute, at b < 0 on sampled
    #: cells and at b = 0 on closed ones
    SLOPES = tuple(np.geomspace(0.25, 4.0, 9)) + (0.905,)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_newcrit_isolates_few_cells(self, monkeypatch, s):
        # the 12 x 4 grid of the certified benchmark workload: 12 star-shape
        # cells, then the criterion-h cells whose coefficient signs do not
        # fix a pattern in either form (before the rule: 78 isolations)
        calls = _count_sampled_cells(monkeypatch)
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)), tuple(np.linspace(0.0, 8.0, 4)))
        v = newcrit(MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), s, grid)
        assert v.supported and v.cells_scanned == 60
        assert calls[0] <= 16

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_newcrit_isolates_few_roots(self, monkeypatch, s):
        # the certified workload's grid: of the closed cells that are
        # sampled (16 at s = 1, 13 above), all but 8 and 2 are root-free by
        # their signs and skip isolation
        counts = {}
        for name in ("isolate_roots", "dominance_horizon"):
            inner = getattr(ExpPoly, name)

            def spy(self, *args, _name=name, _inner=inner, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _inner(self, *args, **kwargs)

            monkeypatch.setattr(ExpPoly, name, spy)
        counts["patterns"] = _count_sampled_cells(monkeypatch)
        decided = []
        rule = ordering._rule

        def rule_spy(terms):
            out = rule(terms)
            decided.append(out is not None and out[0] != out[1])
            return out

        monkeypatch.setattr(ordering, "_rule", rule_spy)
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)), tuple(np.linspace(0.0, 8.0, 4)))
        v = newcrit(MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), s, grid)
        assert v.supported and v.cells_scanned == 60
        assert counts["isolate_roots"] <= (8 if s == 1 else 2)
        # every horizon is a sampled pattern's own: a cell decided by the
        # rule, crossing or not, computes none
        assert counts["dominance_horizon"] == counts["patterns"][0] <= 16
        assert sum(decided) > 10

    def test_one_batched_evaluation_per_call(self, monkeypatch):
        # every _evaluate_cells call with closed cells samples them all in
        # one _sign_patterns call, which evaluates their regions at once
        batches = []
        inner = ordering._evaluate_cells

        def spy(form, cells, closed):
            before = len(evaluations)
            out = inner(form, cells, closed)
            batches.append((sum(isinstance(c, ExpPoly) for c in closed),
                            len(evaluations) - before))
            return out

        evaluations = []
        values = exppoly._region_values
        monkeypatch.setattr(exppoly, "_region_values",
                            lambda rows, xs: evaluations.append(len(rows)) or values(rows, xs))
        monkeypatch.setattr(ordering, "_evaluate_cells", spy)
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)), tuple(np.linspace(-1.0, 8.0, 6)))
        assert compare_ifr(MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), 2, grid).supported
        criterion_h(MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), 2, grid, form="hs")
        assert all(n == (closed > 0) for closed, n in batches), batches
        assert max(closed for closed, _ in batches) > 30

    @pytest.mark.parametrize("b_values", [(-0.16, -0.05, -0.01, 0.0, 1.0, 4.0),
                                          (0.0, 1.0, 4.0)])
    @pytest.mark.parametrize("pair", range(6))
    def test_sign_rule_keeps_every_verdict(self, monkeypatch, pair, b_values):
        # the rule passes cells only; every refutation, its cell and its
        # witness come from root isolation or the sampled scan as before
        X, Y = self.PAIRS[pair]
        grid = GridSpec(self.SLOPES, b_values)
        cases = [(s, form) for s in (1, 2, 3) for form in ("hs", "hs1")]
        with_rule = [criterion_h(X, Y, s, grid, form=form) for s, form in cases]
        monkeypatch.setattr(ordering, "_rule", lambda terms: None)
        for (s, form), v in zip(cases, with_rule):
            assert v.to_dict() == criterion_h(X, Y, s, grid, form=form).to_dict(), (s, form)

    def test_partner_signs_pass_a_cell_the_chosen_form_must_isolate(self, monkeypatch):
        X, Y, s, a, b = MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), 2, 0.05, 8.0 / 3.0
        forms = ordering._h_forms(X, Y, s, None)
        hs = ordering._closed_cell(forms["hs"], a, b)
        hs1 = ordering._closed_cell(forms["hs1"], a, b)
        assert ordering._rule(hs.terms) is None
        assert hs.sign_pattern_exact(0.0).signs == ("-", "+", "-")
        assert ordering._rule(hs1.terms) == ("+", "-")
        calls = _count_sampled_cells(monkeypatch)
        assert criterion_h(X, Y, s, GridSpec((a,), (b,)), form="hs").supported
        assert calls[0] == 0

    @pytest.mark.parametrize("lam,s", [(0.5, 1), (2.0, 2), (3.0, 3)])
    def test_newcrit_on_parallel_systems_makes_no_scan(self, monkeypatch, lam, s):
        calls = _count_scans(monkeypatch)
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)), tuple(np.linspace(0.0, 8.0, 4)))
        v = newcrit(MaxExp(1.0, 1.0), MaxExp(1.0, lam), s, grid)
        assert v.outcome in ("supported", "refuted")
        assert calls == []

    @pytest.mark.parametrize("form", ["hs", "hs1"])
    def test_nonnegative_intercepts_make_no_scan(self, monkeypatch, form):
        calls = _count_scans(monkeypatch)
        X, Y = MaxExp(1.0, 1.0), MaxExp(1.0, 2.0)
        grid = GridSpec.default(X, Y, negative_b=False)
        v = criterion_h(X, Y, 2, grid, form=form)
        assert v.supported and v.cells_scanned == len(grid.a_values) * len(grid.b_values)
        assert calls == []

    @pytest.mark.parametrize("s", [1, 3])
    @pytest.mark.parametrize("form", ["hs", "hs1"])
    def test_closed_form_agrees_with_direct_form(self, form, s):
        X, Y = MaxExp(1.0, 3.0), MaxExp(0.5, 2.0)
        h = ordering._h_forms(X, Y, s, None)[form]
        xs = np.geomspace(0.01, 12.0, 15)
        for a, b in ((0.7, 0.0), (2.5, 0.2), (1.3, 3.0)):
            closed = ordering._closed_cell(h, a, b)
            np.testing.assert_allclose(closed.eval(xs), h(xs, a, b), rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("form", ["hs", "hs1"])
    @pytest.mark.parametrize("pair", range(3))
    def test_same_verdict_as_sampled_path(self, monkeypatch, form, pair):
        X, Y = self.PAIRS[pair]
        closed = criterion_h(X, Y, 2, SMALL, form=form)
        monkeypatch.setattr(ordering, "_closed_cell", lambda *args: None)
        sampled = criterion_h(X, Y, 2, SMALL, form=form)
        assert closed.outcome == sampled.outcome
        assert closed.cells_scanned == sampled.cells_scanned
        if sampled.witness is not None:
            assert (closed.witness.a, closed.witness.b, closed.witness.pattern) == \
                (sampled.witness.a, sampled.witness.b, sampled.witness.pattern)

    #: the closed-cell fallbacks are shared by criterion-h and V
    CHECKS = {"hs": lambda X, Y, s, g: criterion_h(X, Y, s, g, form="hs"),
              "hs1": lambda X, Y, s, g: criterion_h(X, Y, s, g, form="hs1"),
              "ifr": compare_ifr}

    @pytest.mark.parametrize("check", ["hs", "hs1", "ifr"])
    def test_fast_rates_at_far_negative_intercept(self, check):
        # H composes nothing at b < 0; V composes there, and its cells where
        # exp(-r b) would overflow keep the sampled scan
        grid = GridSpec((0.5, 1.0, 4.0), (-30.0, 0.0))
        for X, Y in ((MaxExp(12.0, 13.0), MaxExp(1.0, 2.0)),
                     (MaxExp(1.0, 2.0), MaxExp(12.0, 13.0))):
            v = self.CHECKS[check](X, Y, 2, grid)
            assert v.cells_scanned == 6

    @pytest.mark.parametrize("check", ["hs", "hs1", "ifr"])
    def test_underflowing_x_term_keeps_sampled_scan(self, check):
        # at b = 800 every X coefficient exp(-r b) underflows to 0
        v = self.CHECKS[check](Exponential(1.0), Exponential(2.0), 1, GridSpec((1.0,), (800.0,)))
        assert v.supported

    def test_pruned_slow_term_keeps_sampled_scan(self, monkeypatch):
        # hs1 at s = 1 and V alike, a = 0.05, b = 40: e^{-10x} - e^{-40}
        # e^{-0.05x}; the X term is below the prune threshold, yet it decides
        # the tail, so the closed path must not certify the "+" left without
        # it; the scan reads the same "+", but as a sampled pattern, its tail
        # inside the deadband.  V of Exp(1) against Exp(0.5) at a = 1,
        # b = -40 is the mirror case: the Y term is pruned against
        # e^{40} e^{-x}, yet V > 0 beyond x = 80
        X, Y, Y2 = Exponential(1.0), Exponential(10.0), Exponential(0.5)
        cases = [(ordering._h_forms(X, Y, 1, None)["hs1"], 0.05, 40.0, 10.0,
                  lambda g: criterion_h(X, Y, 1, g, form="hs1")),
                 (ordering._v_form(iterate(X, 1), iterate(Y, 1), None), 0.05, 40.0, 10.0,
                  lambda g: compare_ifr(X, Y, 1, g)),
                 (ordering._v_form(iterate(X, 1), iterate(Y2, 1), None), 1.0, -40.0, 100.0,
                  lambda g: compare_ifr(X, Y2, 1, g))]
        calls = _count_scans(monkeypatch)
        for form, a, b, far, check in cases:
            assert form(1.0, a, b) * form(far, a, b) < 0
            assert ordering._closed_cell(form, a, b) is None
            calls.clear()
            assert check(GridSpec((a,), (b,))).supported
            assert len(calls) == 1
            assert calls[0][1].confidence == SAMPLED


class TestNewcrit:
    def test_parallel_pair(self):
        v = newcrit(MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), 2, SMALL_POS)
        assert v.supported

    def test_weibull_vs_gamma(self):
        v = newcrit(Weibull(2.0, 1.0), Gamma(2.0, 1.0), 1, SMALL_POS)
        assert v.supported

    def test_star_refutation_short_circuits(self):
        X, Y = MaxExp(0.34, 1.0), MaxExp(1.0, 11.0)
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, 24)) + (2.89,), (0.0,))
        v = newcrit(X, Y, 2, grid)
        assert v.refuted
        assert v.reason == "star-shape step failed"

    def test_nan_deadband_cannot_turn_a_refutation_into_support(self):
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)), tuple(np.linspace(0.0, 12.0, 6)))
        assert newcrit(Gamma(2.0), Weibull(2.0), 1, grid).refuted
        with pytest.raises(ValueError, match="deadband"):
            GridSpec(grid.a_values, grid.b_values, scan=ScanConfig(deadband=float("nan")))


#: Shaped like the benchmark's Weibull/Gamma grid.
_SAMPLED_GRID = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)), tuple(np.linspace(0.0, 12.0, 6)))

#: Verdict documents of sampled-path sweeps (Weibull/Gamma cells go through
#: the row scanner), frozen as computed before the refinement walk took
#: several bisection levels per evaluation; the grid is left out.
_FROZEN_SAMPLED = {
    ("newcrit", "weibull-gamma", 1): {
        "criterion": "newcrit", "s": 1, "outcome": "supported", "cells_scanned": 84},
    ("newcrit", "weibull-gamma", 2): {
        "criterion": "newcrit", "s": 2, "outcome": "supported", "cells_scanned": 84},
    ("newcrit", "weibull-gamma", 3): {
        "criterion": "newcrit", "s": 3, "outcome": "supported", "cells_scanned": 84},
    ("newcrit", "gamma-weibull", 2): {
        "criterion": "newcrit", "s": 2, "outcome": "refuted", "cells_scanned": 8,
        "witness": {"a": 2.2637390492987746, "b": 0.0, "pattern": "+,-",
                    "abscissae": [0.5028414123132835, 3.3369434411205026],
                    "values": [0.09694575758054097, -0.0003464240494254079],
                    "deadband": 9.694575758054096e-13},
        "reason": "star-shape step failed"},
    ("ifra", "weibull-gamma", 1): {
        "criterion": "pattern-ifra", "s": 1, "outcome": "supported", "cells_scanned": 12,
        "worst_margin": 1.6791580204761496e-05},
    ("ifra", "weibull-gamma", 2): {
        "criterion": "pattern-ifra", "s": 2, "outcome": "supported", "cells_scanned": 12,
        "worst_margin": 4.078085726303641e-05},
    ("ifra", "weibull-gamma", 3): {
        "criterion": "pattern-ifra", "s": 3, "outcome": "supported", "cells_scanned": 12,
        "worst_margin": 0.00013017016027237066},
}


class TestFrozenSampledDocuments:
    @pytest.mark.parametrize("check, pair, s", sorted(_FROZEN_SAMPLED))
    def test_document_is_unchanged(self, check, pair, s):
        shape = 2.0 if pair == "weibull-gamma" else 1.5
        X, Y = Weibull(shape), Gamma(shape)
        if pair == "gamma-weibull":
            X, Y = Y, X
        sweep = newcrit if check == "newcrit" else compare_ifra
        doc = sweep(X, Y, s, _SAMPLED_GRID).to_dict()
        del doc["grid"]
        assert doc == _FROZEN_SAMPLED[check, pair, s]


class TestBatchInvariance:
    """The sweeps evaluate whole rows in batches of up to 64 cells; with a
    budget of one cell every batch is one row.  The verdict document is the
    same under both schedules: cells are read one at a time either way."""

    SAMPLED_GRID = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)), tuple(np.linspace(0.0, 12.0, 6)))

    @staticmethod
    def _same_one_row_at_a_time(monkeypatch, check, *args, verdict=None):
        verdict = verdict or check(*args)
        with monkeypatch.context() as mp:
            mp.setattr(ordering, "_BATCH_CELLS", 1)
            assert check(*args).to_dict() == verdict.to_dict()
        return verdict

    def test_branched_pareto_refutation(self, monkeypatch, bp_order_two):
        v = self._same_one_row_at_a_time(
            monkeypatch, compare_ifr, BranchedPareto(5.0, 10.0), BranchedPareto(2.0, 6.0), 2,
            _BP_GRID_S2, verdict=bp_order_two[0])
        assert v.refuted

    @pytest.mark.parametrize("s", [1, 2])
    def test_reversed_newcrit_star_shape_column(self, monkeypatch, s):
        v = self._same_one_row_at_a_time(
            monkeypatch, newcrit, Gamma(2.0), Weibull(2.0), s, self.SAMPLED_GRID)
        assert v.refuted and v.reason == "star-shape step failed"

    def test_closed_criterion_h_refutation(self, monkeypatch):
        v = self._same_one_row_at_a_time(
            monkeypatch, criterion_h, MaxExp(1.0, 2.0), MaxExp(1.0, 1.0), 2, SMALL_POS)
        assert v.refuted and v.cells_scanned == 89

    #: the certified benchmark workload's grid
    CERTIFIED_GRID = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)), tuple(np.linspace(0.0, 8.0, 4)))

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("pair", ["sampled", "certified"])
    def test_star_shape_margin_is_bit_equal(self, monkeypatch, pair, s):
        # one margin evaluation per batch of sampled or certified cells gives
        # the worst margin of one cell per batch to the last bit
        X, Y, grid = ((Weibull(2.0), Gamma(2.0), self.SAMPLED_GRID) if pair == "sampled"
                      else (MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), self.CERTIFIED_GRID))
        v = compare_ifra(X, Y, s, grid)
        assert v.supported and v.worst_margin > 0.0
        with monkeypatch.context() as mp:
            mp.setattr(ordering, "_BATCH_CELLS", 1)
            one = compare_ifra(X, Y, s, grid)
        assert one.to_dict() == v.to_dict()
        assert one.worst_margin.hex() == v.worst_margin.hex()

    def test_sampled_criterion_h_with_partner_form(self, monkeypatch):
        # hs fails on many cells that hs1 then passes: in each of the two
        # runs the scanner sees more cells than the grid holds
        calls = _count_scans(monkeypatch)
        v = self._same_one_row_at_a_time(
            monkeypatch, criterion_h, Gamma(2.0), Weibull(2.0), 1, SMALL_POS)
        assert v.supported
        assert len(calls) > 2 * len(SMALL_POS.a_values) * len(SMALL_POS.b_values)


class TestMargins:
    """A V sweep measures each passing cell at its witnesses, with one
    evaluation of the form per batch."""

    @staticmethod
    def _cells(monkeypatch):
        seen = []
        inner = ordering._with_margins

        def spy(form, results, allowed):
            out = inner(form, results, allowed)
            seen.extend(out)
            return out

        monkeypatch.setattr(ordering, "_with_margins", spy)
        return seen

    @pytest.mark.parametrize("check,X,Y,s,grid", [
        (compare_ifr, Weibull(2.0), Gamma(2.0), 1, SMALL),
        (compare_ifra, Weibull(1.5), Gamma(1.5), 2, SMALL_POS),
        (compare_ifr, MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), 2, SMALL),
        (compare_ifra, MaxExp(1.0, 1.0), MaxExp(1.0, 4.0), 3, SMALL_POS),
    ], ids=["ifr-sampled", "ifra-sampled", "ifr-certified", "ifra-certified"])
    def test_worst_margin_is_the_least_per_cell_evaluation(self, monkeypatch, check,
                                                           X, Y, s, grid):
        cells = self._cells(monkeypatch)
        v = check(X, Y, s, grid)
        assert v.supported and len(cells) == v.cells_scanned
        margins = []
        for res in cells:
            if res.margin is None:
                assert res.degenerate or not res.pattern.witnesses
                continue
            vals = res.form(np.asarray(res.pattern.witnesses), res.a, res.b)
            alone = float(np.min(np.abs(vals)))
            assert res.margin.hex() == alone.hex(), (res.a, res.b)
            margins.append(alone)
        assert len(margins) > len(cells) // 2
        assert v.worst_margin == min(margins)

    def test_criterion_h_cells_carry_no_margin(self, monkeypatch):
        calls = self._cells(monkeypatch)
        v = criterion_h(Weibull(2.0), Gamma(2.0), 1, SMALL_POS)
        assert v.supported and v.worst_margin is None and calls == []


def _reference_closed_cell(form, a, b):
    """_closed_cell built from whole ExpPoly steps: the X side composed at
    a x + b, scaled, and subtracted from the Y side, with the same
    fallbacks and pruning guard."""
    if form.sides is None or (b < 0 and form.left is None):
        return None
    hy, hx = form.sides
    scale = a ** form.k / form.ex
    try:
        xpart = ExpPoly(tuple((c * math.exp(-r * b), r * a) for c, r in hx.terms))
        if scale != 1.0:
            xpart = xpart.scaled(scale)
    except (ValueError, OverflowError):
        return None
    closed = ExpPoly.maybe(hy.terms + tuple((-c, r) for c, r in xpart.terms))
    if closed is None:
        return "degenerate" if b >= 0 else "left"
    slowest = closed.terms[0][1]
    if min(hy.terms[0][1], xpart.terms[0][1]) < slowest:
        tol = ordering.RATE_MERGE_REL * max(hy.terms[-1][1], xpart.terms[-1][1])
        for own, other in ((hy.rates, xpart.rates), (xpart.rates, hy.rates)):
            if any(r < slowest and all(abs(r - q) > tol for q in other) for r in own):
                return "pruned"
    return closed


class TestClosedCell:
    """_closed_cell composes, scales and subtracts on term lists, building
    one ExpPoly; its terms are those of the whole-polynomial steps to the
    bit, and it falls back where they do."""

    @staticmethod
    def _forms(X, Y, s):
        return [ordering._v_form(iterate(X, s), iterate(Y, s), None),
                *ordering._h_forms(X, Y, s, None).values()]

    @staticmethod
    def _bits(poly):
        return [(c.hex(), r.hex()) for c, r in poly.terms]

    def _agree(self, form, a, b):
        got, want = ordering._closed_cell(form, a, b), _reference_closed_cell(form, a, b)
        if isinstance(want, ExpPoly):
            assert isinstance(got, ExpPoly), (a, b)
            assert all(type(c) is float and type(r) is float for c, r in got.terms)
            assert self._bits(got) == self._bits(want), (a, b)
            return "closed"
        if want in ("degenerate", "left"):
            assert isinstance(got, ordering._CellResult), (a, b)
            assert got.degenerate == (want == "degenerate")
            return want
        assert got is None, (a, b)
        return "none" if want is None else want

    def test_terms_are_bit_identical_on_random_cells(self):
        rng = np.random.default_rng(1301)
        seen = {}
        for _ in range(60):
            rates = np.sort(rng.uniform(0.2, 15.0, 2)).tolist()
            X = MaxExp(*rates) if rng.random() < 0.8 else Exponential(rates[0])
            Y = MaxExp(*np.sort(rng.uniform(0.2, 15.0, 2)).tolist())
            for form in self._forms(X, Y, int(rng.integers(1, 5))):
                for _ in range(8):
                    a = float(10.0 ** rng.uniform(-1.5, 1.5))
                    b = float(rng.choice([0.0, rng.uniform(0.0, 10.0), rng.uniform(-60.0, 0.0),
                                          rng.uniform(20.0, 120.0)]))
                    kind = self._agree(form, a, b)
                    seen[kind] = seen.get(kind, 0) + 1
        assert seen.get("closed", 0) > 600
        assert seen.get("none", 0) > 20 and seen.get("pruned", 0) > 0

    def test_pruned_overflowing_and_cancelling_cells(self):
        X, Y = Exponential(1.0), Exponential(10.0)
        # a = 0.05, b = 40: the X term falls below the prune threshold
        hs1 = ordering._h_forms(X, Y, 1, None)["hs1"]
        assert self._agree(hs1, 0.05, 40.0) == "pruned"
        # b = -60 on rates up to 25: exp(-r b) overflows
        v = self._forms(MaxExp(12.0, 13.0), MaxExp(1.0, 2.0), 2)[0]
        assert self._agree(v, 0.5, -60.0) == "none"
        # b = 800: every X coefficient underflows
        assert self._agree(self._forms(X, Y, 1)[0], 1.0, 800.0) == "none"
        # at b = 690 it survives composing (about 1e-300), but not the scale
        # a^4 / E X^3 of hs at s = 4, a = 1e-6; against a Y side slower than
        # the composed X side no pruning guard would catch the loss
        hs = ordering._h_forms(X, Exponential(1e-7), 4, None)["hs"]
        assert self._agree(hs, 1e-6, 690.0) == "none"
        # equal sides cancel at a = 1, b = 0, and only there
        same = self._forms(MaxExp(1.0, 2.0), MaxExp(1.0, 2.0), 2)[0]
        assert self._agree(same, 1.0, 0.0) == "degenerate"
        assert self._agree(same, 1.0, -0.5) == "closed"


class TestDmrl:
    def test_identical_distributions_count_as_nonincreasing(self):
        e = Exponential(1.0)
        assert compare_dmrl(e, e).supported

    def test_branched_pareto_pair(self):
        assert compare_dmrl(BranchedPareto(5.0, 10.0), BranchedPareto(2.0, 6.0)).supported

    def test_equivalent_to_order_two_against_exponential(self):
        # with an exponential upper reference the two checks agree
        e = Exponential(1.0)
        for X in (Gamma(2.0, 1.0), Gamma(0.5, 1.0), Weibull(1.5, 1.0)):
            dmrl = compare_dmrl(X, e).outcome
            ifr2 = compare_ifr(X, e, 2).outcome
            assert dmrl == ifr2, X


class TestConvexity:
    def test_identity_transform(self):
        e = Exponential(1.0)
        assert convexity_check(e, e, 2).supported
        assert convexity_check(e, e, 2, mode="star").supported

    def test_branched_pareto_transform(self):
        X, Y = BranchedPareto(5.0, 10.0), BranchedPareto(2.0, 6.0)
        assert convexity_check(X, Y, 1).supported
        v = convexity_check(X, Y, 2)
        assert v.refuted
        # the slope dip-and-recovery lives between levels 3/5 and 1
        assert all(0.6 < u < 1.0 for u in v.witness.abscissae)

    def test_agrees_with_pattern_sweep(self):
        X, Y = Weibull(2.0, 1.0), Gamma(2.0, 1.0)
        assert convexity_check(X, Y, 1).supported
        assert compare_ifr(X, Y, 1, SMALL).supported

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            convexity_check(Exponential(1.0), Exponential(1.0), 1, mode="affine")


# ----------------------------------------------------------------------
# order against a unit exponential, cross-checked with the classifier
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialReference:
    """Order-vs-exponential checks cross-validated against the classifier."""

    s: int
    below: Verdict
    above: Verdict
    below_star: Verdict
    above_star: Verdict
    ifr_class: ageing.MonotoneClass
    ifra_class: ageing.MonotoneClass
    consistent: bool
    discrepancy: str | None = None


def _reference_candidates(X: Distribution, s: int, cls_ifr, cls_ifra):
    """Slopes and cells, derived from classifier turning points, at which
    the order-vs-exponential scans can falsify a non-monotone instance.

    Against a unit exponential the transform is c(x) = -log tail_s(x) with
    slope equal to the iterated rate, and the averaged rate t = c(x)/x is
    the star-shape profile; levels between consecutive local extremes of t
    give refuting slopes a = 1/level, and secants through turning points of
    c give refuting (a, b) lines."""
    it = iterate(X, s)

    def c(x):
        return -float(it.log_tail(np.asarray(x, dtype=float)))

    a_extra: list[float] = []
    cells_extra: list[tuple[float, float]] = []
    turn_x = [w for w, _ in cls_ifra.turning_witnesses]
    turn_x += [0.5 * (lo + hi) for lo, hi in cls_ifra.change_points]
    if turn_x:
        turn_x = sorted(set(turn_x))
        hi = it.quantile_horizon(1e-8)
        levels = [c(x) / x for x in turn_x] + [c(hi) / hi]
        levels = sorted(levels)
        mids = [0.5 * (u + v) for u, v in zip(levels, levels[1:])]
        a_extra = [1.0 / m for m in mids if m > 0]
    rate_turns = sorted({w for w, _ in cls_ifr.turning_witnesses}
                        | {0.5 * (lo + hi) for lo, hi in cls_ifr.change_points})
    for x1, x2 in zip(rate_turns, rate_turns[1:]):
        if x2 - x1 <= 0:
            continue
        a = (c(x2) - c(x1)) / (x2 - x1)
        if a <= 0:
            continue
        b = c(x1) - a * x1
        for jitter in (0.0, 1e-3, -1e-3):
            cells_extra.append((a, b + jitter * max(1.0, abs(b))))
    return a_extra, cells_extra


def exponential_reference(X: Distribution, s: int,
                          cfg: ScanConfig | None = None,
                          grid: GridSpec | None = None) -> ExponentialReference:
    """Compare X with the unit exponential in both directions and check the
    outcomes against the monotonicity classifier: being below (above) the
    exponential is equivalent to increasing (decreasing) iterated rate.

    The grids are augmented with slopes and secant lines derived from the
    classifier's turning points, because the refuting windows against an
    exponential reference can be arbitrarily narrow."""
    E = Exponential(1.0)
    cls_ifr = ageing.classify_ifr(X, s, cfg)
    cls_ifra = ageing.classify_ifra(X, s, cfg)
    a_extra, cells_extra = _reference_candidates(X, s, cls_ifr, cls_ifra)

    base = grid or GridSpec.default(X, E)
    a_aug = tuple(sorted(set(base.a_values) | set(a_extra)))
    b_aug = tuple(sorted(set(base.b_values)
                         | {b for _, b in cells_extra} | {0.0}))
    grid_full = GridSpec(tuple(sorted(set(a_aug) | {a for a, _ in cells_extra})),
                         b_aug, base.scan)
    grid_star = GridSpec(a_aug, (0.0,), base.scan)

    below = compare_ifr(X, E, s, grid_full)
    above = compare_ifr(E, X, s, grid_full)
    below_star = compare_ifra(X, E, s, grid_star)
    above_star = compare_ifra(E, X, s, grid_star)

    expect = {
        ageing.INCREASING: (True, False),
        ageing.DECREASING: (False, True),
        ageing.CONSTANT: (True, True),
        ageing.NON_MONOTONE: (False, False),
    }[cls_ifr.verdict]
    got = (below.supported, above.supported)
    consistent = got == expect
    note = None
    if not consistent:
        note = (f"classifier says {cls_ifr.verdict} but order-vs-exponential "
                f"gave below={below.outcome}, above={above.outcome}")
    return ExponentialReference(s, below, above, below_star, above_star,
                                cls_ifr, cls_ifra, consistent, note)


class TestExponentialReference:
    def test_polyexp_order_two_consistent(self):
        rep = exponential_reference(PolyExpExample(1.0), 2,
                                    grid=GridSpec.default(PolyExpExample(1.0),
                                                          Exponential(1.0), na=24, nb=12))
        assert rep.ifr_class.verdict == "increasing"
        assert rep.below.supported
        assert rep.consistent

    def test_scaled_exponential_both_directions(self):
        rep = exponential_reference(Exponential(2.0), 1)
        assert rep.below.supported and rep.above.supported
        assert rep.consistent

    def test_parallel_system_neither_direction_at_order_two(self):
        rep = exponential_reference(MaxExp(1.0, 2.0), 2)
        assert not rep.below_star.supported
        assert not rep.above_star.supported


class TestGridSpec:
    def test_slopes_must_be_positive(self):
        with pytest.raises(ValueError):
            GridSpec((0.0, 1.0), (0.0,))

    def test_default_contains_zero_intercept(self):
        g = GridSpec.default(Exponential(1.0), Exponential(1.0))
        assert 0.0 in g.b_values

    def test_nonnegative_restriction(self):
        g = SMALL.restricted_nonnegative_b()
        assert all(b >= 0 for b in g.b_values)

    def test_roundtrip_dict(self):
        doc = SMALL.to_dict()
        assert doc["a_values"] == list(SMALL.a_values)


class TestRowScan:
    """A row of cells scanned together gives every cell exactly the outcome
    of scanning it alone: signs, witnesses and change points, or the
    IndeterminateFunction of a cell zero within the deadband."""

    BS = (-1.0, 0.0, 0.5, 3.0, 12.0)

    @staticmethod
    def _same_as_alone(F, params, fn, cfg_of, bps_of, a, bs):
        cells = [(params(b), cfg_of(a, b), bps_of(a, b)) for b in bs]
        row = ordering._scan_row(F, cells)
        for b, got in zip(bs, row):
            try:
                alone = scan(fn(b), cfg_of(a, b), bps_of(a, b))
            except IndeterminateFunction:
                assert isinstance(got, IndeterminateFunction), (a, b)
                continue
            assert got == alone, (a, b)
        return row

    def _rows(self, form, a_values, bs):
        out = []
        for a in a_values:
            out += self._same_as_alone(
                form.F, lambda b: (a, b, a ** form.k), lambda b: (lambda x: form(x, a, b)),
                form.cfg, form.bps, a, bs)
        return out

    def _v_rows(self, X, Y, s, a_values, bs=BS):
        return self._rows(ordering._v_form(iterate(X, s), iterate(Y, s), None), a_values, bs)

    def _h_rows(self, X, Y, s, form, a_values, bs=BS):
        return self._rows(ordering._h_forms(X, Y, s, None)[form], a_values, bs)

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("kind", ["V", "hs", "hs1"])
    def test_weibull_gamma_rows(self, kind, s):
        a_values = (0.3, 1.0, 1.3, 4.0)
        for X, Y in ((Weibull(2.0), Gamma(2.0)), (Gamma(1.5), Weibull(1.5))):
            if kind == "V":
                row = self._v_rows(X, Y, s, a_values)
            else:
                row = self._h_rows(X, Y, s, kind, a_values)
            assert all(p.confidence == SAMPLED for p in row)
            assert any(p.change_points for p in row)

    def test_indeterminate_cell_in_a_row(self):
        # X = Y at a = 1, b = 0: V and H vanish there, not at the other cells
        X = Weibull(2.0)
        for row in (self._v_rows(X, X, 2, (1.0,), (0.0, 0.5)),
                    self._h_rows(X, X, 2, "hs", (1.0,), (0.0, 0.5))):
            assert isinstance(row[0], IndeterminateFunction)
            assert row[1].signs

    def test_branched_pareto_breakpoints(self):
        X, Y = BranchedPareto(5.0, 10.0), BranchedPareto(2.0, 6.0)
        a_values = (0.5, 1.62, 1.652, 3.0)
        for row in (self._v_rows(X, Y, 2, a_values), self._h_rows(X, Y, 1, "hs", a_values)):
            assert any(len(p.signs) > 1 for p in row)


class TestScanWindow:
    """A grid's scan template with x_max None is resolved per cell from the
    tail-mass horizons; an explicit x_max, 50.0 included, is used as is."""

    CELLS = ((0.5, 2.0), (0.0, 1.0))

    def _scanned_x_max(self, monkeypatch, check, template):
        seen = []
        inner = ordering._scan_row

        def spy(F, cells, **kwargs):
            seen.extend(cfg.x_max for _, cfg, _ in cells)
            return inner(F, cells, **kwargs)

        monkeypatch.setattr(ordering, "_scan_row", spy)
        check(GridSpec(*self.CELLS, scan=template))
        assert seen
        return seen

    @pytest.mark.parametrize("check", [
        lambda g: compare_ifr(Weibull(1.5, 1.0), Gamma(1.5, 1.0), 1, g),
        lambda g: criterion_h(Weibull(1.5, 1.0), Gamma(1.5, 1.0), 1, g, form="hs1"),
    ], ids=["compare_ifr", "criterion_h"])
    def test_explicit_fifty_is_honoured(self, monkeypatch, check):
        explicit = self._scanned_x_max(monkeypatch, check, ScanConfig(x_max=50.0))
        assert set(explicit) == {50.0}
        resolved = self._scanned_x_max(monkeypatch, check, ScanConfig())
        assert None not in resolved and 50.0 not in resolved

    # a numeric density's own horizon is its declared truncation point,
    # while its first iterate inverts the tail: V windows and the
    # IFR classification use the latter, the H forms the former
    NUMERIC = NumericDensity(lambda x: np.exp(-np.asarray(x, dtype=float)), x_max=60.0)

    @staticmethod
    def _windows(horizon_x):
        horizon_y = np.log(1e10)  # the exponential's tail-inverse horizon
        return sorted(max(horizon_y, (horizon_x - b) / a, 1.0)
                      for a in TestScanWindow.CELLS[0] for b in TestScanWindow.CELLS[1])

    def test_numeric_density_v_window_ends_at_its_tail_horizon(self, monkeypatch):
        seen = self._scanned_x_max(
            monkeypatch, lambda g: compare_ifr(self.NUMERIC, Exponential(1.0), 1, g), None)
        assert sorted(seen) == pytest.approx(self._windows(np.log(1e10)), rel=1e-9)

    def test_numeric_density_h_window_ends_at_its_truncation_point(self, monkeypatch):
        seen = self._scanned_x_max(
            monkeypatch,
            lambda g: criterion_h(self.NUMERIC, Exponential(1.0), 1, g, form="hs1"), None)
        assert sorted(seen) == pytest.approx(self._windows(60.0), rel=1e-9)

    def test_numeric_density_first_iterate_classifies_constant(self):
        # on a window reaching x_max = 60 the rate e^-x / (e^-x - e^-60)
        # would climb to infinity and read increasing
        assert classify_ifr(self.NUMERIC, 1).verdict == "constant"

    def test_horizons_shared_by_equal_distributions(self):
        grid = GridSpec((1.0,), (0.0,))
        ordering._horizon.cache_clear()
        for check in (compare_ifr, criterion_h):
            check(Gamma(2.0), Weibull(2.0), 2, grid)
        misses = ordering._horizon.cache_info().misses
        for check in (compare_ifr, criterion_h):
            check(Gamma(2.0), Weibull(2.0), 2, grid)
        assert ordering._horizon.cache_info().misses == misses == 4
