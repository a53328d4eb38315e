"""Pairwise order checks: pattern sweeps, criteria, DMRL, convexity."""
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from tailorder import (
    BranchedPareto,
    Distribution,
    ExpPoly,
    ExpPolyTail,
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
from tailorder.iteration import IteratedTail, iterate
from tailorder.patterns import ALLOWED_IFR, ALLOWED_IFRA, SAMPLED, ScanConfig
from tailorder.signscan import scan
from test_exppoly import _reference_root_free, _reference_rule, _rules, _table

SMALL = GridSpec(tuple(np.geomspace(0.1, 10.0, 24)),
                 tuple(-np.geomspace(5.0, 0.05, 6)) + tuple(np.linspace(0.0, 6.0, 8)))
SMALL_POS = GridSpec(tuple(np.geomspace(0.1, 10.0, 24)), tuple(np.linspace(0.0, 6.0, 8)))


@pytest.fixture(scope="module")
def bp_order_two():
    """compare_ifr on the branched-Pareto pair at s = 2, with the cells the
    row scanner saw, one list per call."""
    rows = []
    inner = ordering._scan_row

    def spy(F, params, *args, **kwargs):
        rows.append(list(zip(*params)))
        return inner(F, params, *args, **kwargs)

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
        # the refuting cell is cell 14 of row 29: the 51 rows of 29 cells
        # are dealt out evenly over the 13 batches that hold at most 128
        # cells each (3 rows, then 4 at a time), so the row scanner sees the
        # whole batch of rows 28 to 31, while cells_scanned stops at the
        # refuting cell
        v, rows = bp_order_two
        nb = len(_BP_GRID_S2.b_values)
        assert v.refuted and v.cells_scanned == 826
        assert len(_BP_GRID_S2.a_values) * nb == 1479
        assert [len(r) for r in rows] == [3 * nb] + [4 * nb] * 7
        assert sum(len(r) for r in rows) == 31 * nb > v.cells_scanned
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
        inner = ordering._closed_cells

        def spy(forms, cells):
            calls.extend(cells)
            return inner(forms, cells)

        monkeypatch.setattr(ordering, "_closed_cells", spy)
        X, Y = MaxExp(0.34, 1.0), MaxExp(1.0, 11.0)
        # the 25-cell column is one batch, built whole
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, 24)) + (2.89,), (0.0,))
        v = compare_ifra(X, Y, 2, grid)
        assert v.refuted and v.cells_scanned == 17
        assert len(calls) == len(grid.a_values) == 25
        # a column of 256 slopes is two batches; the refutation lies in the
        # first, so the second is never built
        calls.clear()
        long = GridSpec(grid.a_values + tuple(np.geomspace(21.0, 400.0, 231)), (0.0,))
        assert len(long.a_values) == 2 * ordering._BATCH_CELLS
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

    @pytest.mark.parametrize("s", [0, 1.5])
    @pytest.mark.parametrize("check", [compare_ifr, compare_ifra, criterion_h, newcrit])
    def test_order_must_be_a_positive_integer(self, check, s):
        # criterion_h checks s before it reads the moment E X^{s-1}
        with pytest.raises(ValueError, match="^s must be a positive integer"):
            check(Exponential(1.0), MaxExp(1.0, 2.0), s, SMALL_POS)


def _outcomes(closed, f):
    """Form f of a batch (ordering._Closed) at each of its cells as its term
    table makes it: an ExpPoly, a decided cell, or None for the sampled
    scan."""
    n = len(closed.cells)
    kinds = closed.kind[f * n:(f + 1) * n]
    exact = [i for i, kind in enumerate(kinds) if kind == ordering._CLOSED]
    decided = [i for i, kind in enumerate(kinds)
               if kind in (ordering._DEGENERATE, ordering._LEFT)]
    free = [False] * len(closed.kind)
    out = dict(zip(decided, ordering._evaluate_cells(closed, f, decided, free)))
    if exact:
        out.update(zip(exact, ordering._polys(closed.terms, [f * n + i for i in exact])))
    return [out.get(i) for i in range(n)]


def _closed(form, a, b):
    """form at cell (a, b) as its batch term table makes it: an ExpPoly, a
    decided cell, or None for the sampled scan."""
    return _outcomes(ordering._closed_cells((form,), [(a, b)]), 0)[0]


def _settled_poly(res):
    """The closed form of a cell settled from its signs, from its row of its
    batch's term table."""
    table, row, _ = res.closed
    return ordering._polys(table, [row])[0]


def _count_built_rows(monkeypatch, inside=None):
    """The rows of term tables built into polynomials (exppoly._Terms.rows)
    and the polynomials sampled (_sign_patterns), in call order, as
    ("built" or "sampled", count, inside[0]) with inside, when given, a
    one-entry list that says whether the call came from a margin."""
    events = []
    flag = inside or [None]
    rows, patterns = exppoly._Terms.rows, ordering._sign_patterns

    def rows_spy(self, ks):
        events.append(("built", len(ks), flag[0]))
        return rows(self, ks)

    def patterns_spy(polys, starts, free=None):
        events.append(("sampled", len(polys), flag[0]))
        return patterns(polys, starts, free)

    monkeypatch.setattr(exppoly._Terms, "rows", rows_spy)
    monkeypatch.setattr(ordering, "_sign_patterns", patterns_spy)
    return events


def _all_sampled(forms, cells):
    """A term table that leaves every cell to the sampled scan."""
    return ordering._Closed(tuple(forms), cells, [ordering._SAMPLED] * (len(forms) * len(cells)),
                            None)


def _count_scans(monkeypatch):
    """Every cell the sweeps hand to the row scanner, as (cell, outcome)."""
    calls = []
    inner = ordering._scan_row

    def spy(F, params, *args, **kwargs):
        out = inner(F, params, *args, **kwargs)
        calls.extend(zip(zip(*params), out))
        return out

    monkeypatch.setattr(ordering, "_scan_row", spy)
    return calls


def _count_sampled_cells(monkeypatch):
    """A one-entry list counting the closed cells the sweeps sample, the
    polynomials they pass to exppoly._sign_patterns."""
    calls = [0]
    inner = ordering._sign_patterns

    def spy(polys, starts, free=None):
        calls[0] += len(polys)
        return inner(polys, starts, free)

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
        # the 12 x 4 grid of the certified benchmark workload: the
        # star-shape and criterion-h cells whose coefficient signs settle
        # them in neither form (before the rule: 78 isolations)
        calls = _count_sampled_cells(monkeypatch)
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)), tuple(np.linspace(0.0, 8.0, 4)))
        v = newcrit(MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), s, grid)
        assert v.supported and v.cells_scanned == 60
        assert calls[0] <= (8, 2, 2, 1)[s - 1]

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_newcrit_builds_only_the_rows_it_samples(self, monkeypatch, s):
        # the certified workload's grid: the star-shape step and criterion_h
        # build a closed table row into a polynomial only to sample it, never
        # for a cell settled from its signs
        events = _count_built_rows(monkeypatch)
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)), tuple(np.linspace(0.0, 8.0, 4)))
        v = newcrit(MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), s, grid)
        assert v.supported and v.cells_scanned == 60
        built = [n for kind, n, _ in events if kind == "built"]
        assert built and all(built)
        assert events == [(kind, n, None) for n in built for kind in ("built", "sampled")]

    @pytest.mark.parametrize("s", [1, 3])
    def test_sweeps_hand_the_root_free_flags_sampling_would_compute(self, monkeypatch, s):
        # the flags the sweeps read off their tables are those _sample
        # computes from the terms when given none; a supported star-shape
        # sweep hands them for the cells it samples, and its margin for the
        # cells settled from their signs
        handed = []
        inner = ordering._sign_patterns

        def spy(polys, starts, free=None):
            handed.append((polys, starts, free))
            return inner(polys, starts, free)

        monkeypatch.setattr(ordering, "_sign_patterns", spy)
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)), tuple(np.linspace(0.0, 8.0, 4)))
        assert compare_ifra(MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), s, grid).supported
        assert handed and all(free is not None for *_, free in handed)
        flags = [(p, flag) for polys, starts, free in handed
                 for p, start, flag in zip(polys, starts, free) if start == 0.0]
        own = exppoly._root_free(_table([p for p, _ in flags])).tolist()
        assert [flag for _, flag in flags] == own and any(own) and not all(own)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_newcrit_isolates_few_roots(self, monkeypatch, s):
        # the certified workload's grid: every closed cell that the rule
        # proves root-free is settled, so only the cells it leaves open are
        # sampled (8 at s = 1, at most 2 above), and each is isolated
        counts = {}
        for name in ("isolate_roots", "dominance_horizon"):
            inner = getattr(ExpPoly, name)

            def spy(self, *args, _name=name, _inner=inner, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _inner(self, *args, **kwargs)

            monkeypatch.setattr(ExpPoly, name, spy)
        counts["patterns"] = _count_sampled_cells(monkeypatch)
        decided = []
        rule = ordering._sign_rule

        def rule_spy(table):
            out = rule(table)
            decided.extend(d and h != t for d, h, t in zip(*(col.tolist() for col in out[:3])))
            return out

        monkeypatch.setattr(ordering, "_sign_rule", rule_spy)
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
        # one _sign_patterns call, which evaluates their regions at once, and
        # so does _with_worst_margin with the cells settled from their signs
        batches = []
        evaluations = []
        values = exppoly._region_values
        monkeypatch.setattr(exppoly, "_region_values",
                            lambda rows, xs: evaluations.append(len(rows)) or values(rows, xs))

        def count(name, sampled):
            inner = getattr(ordering, name)

            def spy(*args):
                before = len(evaluations)
                out = inner(*args)
                batches.append((sampled(*args), len(evaluations) - before))
                return out

            monkeypatch.setattr(ordering, name, spy)

        count("_evaluate_cells",
              lambda closed, f, idx, free: sum(closed.kind[f * len(closed.cells) + i]
                                               == ordering._CLOSED for i in idx))
        count("_with_worst_margin",
              lambda verdict, passing: sum(res.closed is not None for res in passing))
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
        nothing = lambda table: (np.zeros(len(table.coefs), dtype=bool),) * 4  # noqa: E731
        monkeypatch.setattr(ordering, "_sign_rule", nothing)
        for (s, form), v in zip(cases, with_rule):
            assert v.to_dict() == criterion_h(X, Y, s, grid, form=form).to_dict(), (s, form)

    def test_partner_signs_pass_a_cell_the_chosen_form_must_isolate(self, monkeypatch):
        X, Y, s, a, b = MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), 2, 0.05, 8.0 / 3.0
        forms = ordering._h_forms(X, Y, s)
        hs, hs1 = _closed(forms["hs"], a, b), _closed(forms["hs1"], a, b)
        assert _rules(_table([hs, hs1])) == [None, ("+", "-")]
        assert hs.sign_pattern_exact(0.0).signs == ("-", "+", "-")
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
        h = ordering._h_forms(X, Y, s)[form]
        xs = np.geomspace(0.01, 12.0, 15)
        for a, b in ((0.7, 0.0), (2.5, 0.2), (1.3, 3.0)):
            closed = _closed(h, a, b)
            np.testing.assert_allclose(closed.eval(xs), h(xs, a, b), rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("form", ["hs", "hs1"])
    @pytest.mark.parametrize("pair", range(3))
    def test_same_verdict_as_sampled_path(self, monkeypatch, form, pair):
        X, Y = self.PAIRS[pair]
        closed = criterion_h(X, Y, 2, SMALL, form=form)
        monkeypatch.setattr(ordering, "_closed_cells", _all_sampled)
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
        cases = [(ordering._h_forms(X, Y, 1)["hs1"], 0.05, 40.0, 10.0,
                  lambda g: criterion_h(X, Y, 1, g, form="hs1")),
                 (ordering._v_form(iterate(X, 1), iterate(Y, 1)), 0.05, 40.0, 10.0,
                  lambda g: compare_ifr(X, Y, 1, g)),
                 (ordering._v_form(iterate(X, 1), iterate(Y2, 1)), 1.0, -40.0, 100.0,
                  lambda g: compare_ifr(X, Y2, 1, g))]
        calls = _count_scans(monkeypatch)
        for form, a, b, far, check in cases:
            assert form(1.0, a, b) * form(far, a, b) < 0
            assert _closed(form, a, b) is None
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


class TestExpPolyTail:
    """A general exponential-polynomial tail given a parallel system's
    closed form is that system to every check: the same moments, iterates,
    classes and verdicts, on the benchmark's certified grid."""

    GRID = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)), tuple(np.linspace(0.0, 8.0, 4)))

    @pytest.mark.parametrize("lam", [2.0, 3.3])
    def test_is_the_parallel_system(self, lam):
        M, ref = MaxExp(1.0, lam), MaxExp(1.0, 1.0)
        Z = ExpPolyTail(M.exp_poly_tail())
        assert [Z.raw_moment(k) for k in range(1, 6)] == [M.raw_moment(k) for k in range(1, 6)]
        for s in (1, 2, 3):
            assert iterate(Z, s).poly.terms == iterate(M, s).poly.terms
            assert classify_ifr(Z, s) == classify_ifr(M, s)
            for check in (newcrit, compare_ifr):
                for pair, twin in (((Z, ref), (M, ref)), ((ref, Z), (ref, M))):
                    got, want = check(*pair, s, self.GRID), check(*twin, s, self.GRID)
                    assert got.to_dict() == want.to_dict(), (check.__name__, pair, s)


class TestQuadratureNoiseAtOrderOne:
    """A numerically given density integrates its tail at s = 1 too: V and
    the survival form hs1 read it with the absolute quadrature deadband,
    so the noise of e^-x against its quadrature twin (|V| <= 1e-15 on a
    thousands-sign pattern) cannot refute."""

    NUMERIC = NumericDensity(lambda x: np.exp(-np.asarray(x, dtype=float)), x_max=60.0)
    CELL = GridSpec((1.0,), (0.0,))

    @pytest.mark.parametrize("check", [compare_ifr, newcrit])
    @pytest.mark.parametrize("reverse", [False, True], ids=["numeric-exp", "exp-numeric"])
    def test_twins_are_not_refuted(self, check, reverse):
        X, Y = self.NUMERIC, Exponential(1.0)
        if reverse:
            X, Y = Y, X
        assert check(X, Y, 1, self.CELL).supported

    @pytest.mark.parametrize("reverse", [False, True], ids=["numeric-exp", "exp-numeric"])
    def test_survival_form_cell_is_degenerate(self, reverse):
        X, Y = self.NUMERIC, Exponential(1.0)
        if reverse:
            X, Y = Y, X
        assert iterate(self.NUMERIC, 1).kind == "quadrature"
        hs1 = ordering._h_forms(X, Y, 1)["hs1"]
        assert hs1.config.deadband_abs == ordering._QUAD_DEADBAND
        closed = ordering._closed_cells((hs1,), [(1.0, 0.0)])
        assert closed.kind == [ordering._SAMPLED]
        (res,) = ordering._evaluate_cells(closed, 0, [0], [False])
        assert res.degenerate


#: Shaped like the benchmark's Weibull/Gamma grid.
_SAMPLED_GRID = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)), tuple(np.linspace(0.0, 12.0, 6)))


class TestScansPerSweep:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("shape", [1.5, 2.0, 2.5])
    def test_sampled_newcrit_scans_each_form_once(self, s, shape, monkeypatch):
        # the 12 x 6 grid is one batch of each sweep: the star-shape step's
        # 12 cells are one V scan, criterion_h's 72 cells one hs scan, and
        # the cells hs fails at most one hs1 scan
        kinds = []
        inner = ordering._scan_row

        def spy(F, params, *args, fy=None, **kwargs):
            owner = getattr(fy, "__self__", None)
            kinds.append("V" if isinstance(owner, IteratedTail) else
                         "hs1" if owner is not None else "hs")
            return inner(F, params, *args, fy=fy, **kwargs)

        monkeypatch.setattr(ordering, "_scan_row", spy)
        assert newcrit(Weibull(shape), Gamma(shape), s, _SAMPLED_GRID).supported
        assert kinds[:2] == ["V", "hs"] and kinds[2:] in ([], ["hs1"]), kinds

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


class TestBatchSizes:
    @pytest.mark.parametrize("na, nb, sizes", [
        (12, 6, [72]),                 # the sampled benchmark's grid, one batch
        (24, 12, [96, 96, 96]),        # not 120, 120 and 48
        (256, 1, [128, 128]),
        (5, 29, [58, 87]),             # 4 rows fit; 2 and 3 rows, not 4 and 1
        (3, 300, [300, 300, 300]),     # a row larger than the cap is a batch
    ])
    def test_rows_are_dealt_out_evenly_over_the_fewest_batches(self, monkeypatch, na, nb,
                                                               sizes):
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, na)), tuple(np.linspace(0.0, 1.0, nb)))
        seen = []

        def evaluate(cells):
            seen.append(len(cells))
            return [ordering._degenerate(a, b) for a, b in cells]

        monkeypatch.setattr(ordering, "_evaluator", lambda forms, allowed: evaluate)
        v, _ = ordering._sweep(grid, (), ALLOWED_IFR, "test", 1)
        assert v.supported and v.cells_scanned == na * nb
        assert seen == sizes


class TestBatchInvariance:
    """The sweeps evaluate whole rows in batches of up to _BATCH_CELLS
    cells; with a budget of one cell every batch is one row.  The verdict document is the
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
        # the worst margin is the same to the last bit whatever the batches
        # of sampled or certified cells the sweep evaluated
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
    """A V sweep reports its worst margin only when supported: V is then
    evaluated once, at the witnesses of every passing cell of the sweep."""

    #: a column of more than _BATCH_CELLS slopes at b = 0: two batches
    LONG_COLUMN = GridSpec(tuple(np.geomspace(0.05, 20.0, 160)), (0.0,))

    @staticmethod
    def _spies(monkeypatch):
        """The (verdict, passing cells) handed to _with_worst_margin, and the
        number of points of every direct evaluation of a scanned form over
        flat arrays of many cells' a (a witness re-check takes one cell's)."""
        measured, evaluations = [], []
        inner, call = ordering._with_worst_margin, ordering._Form.__call__

        def spy(verdict, passing):
            measured.append((verdict, passing))
            return inner(verdict, passing)

        def form_spy(self, x, a, b):
            if np.ndim(a):
                evaluations.append(len(x))
            return call(self, x, a, b)

        monkeypatch.setattr(ordering, "_with_worst_margin", spy)
        monkeypatch.setattr(ordering._Form, "__call__", form_spy)
        return measured, evaluations

    @pytest.mark.parametrize("check,X,Y,s,grid", [
        (compare_ifr, Weibull(2.0), Gamma(2.0), 1, SMALL),
        (compare_ifra, Weibull(1.5), Gamma(1.5), 2, LONG_COLUMN),
        (compare_ifr, MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), 2, SMALL),
        (compare_ifra, MaxExp(1.0, 1.0), MaxExp(1.0, 4.0), 3, LONG_COLUMN),
    ], ids=["ifr-sampled", "ifra-sampled", "ifr-certified", "ifra-certified"])
    def test_worst_margin_is_the_least_per_cell_evaluation(self, monkeypatch, check,
                                                           X, Y, s, grid):
        measured, evaluations = self._spies(monkeypatch)
        batches = []
        inner = ordering._evaluate_cells

        def spy(closed, f, idx, free):
            batches.append(len(closed.cells))
            return inner(closed, f, idx, free)

        monkeypatch.setattr(ordering, "_evaluate_cells", spy)
        v = check(X, Y, s, grid)
        assert v.supported and len(batches) >= 2
        (_, passing), = measured
        # a cell settled from its signs is measured at the witnesses that
        # sampling its closed form alone gives
        settled = [res for res in passing if res.closed is not None]
        assert bool(settled) == isinstance(X, MaxExp)
        witnessed = [(res, _settled_poly(res).sign_pattern_exact(0.0).witnesses
                      if res.closed is not None else res.pattern.witnesses) for res in passing]
        witnessed = [(res, w) for res, w in witnessed if w]
        assert len(witnessed) > v.cells_scanned // 2
        # one evaluation over the witnesses of every batch
        assert evaluations == [sum(len(w) for _, w in witnessed)]
        margins = []
        for res, w in witnessed:
            vals = res.form(np.asarray(w), res.a, res.b)
            margins.append(float(np.min(np.abs(vals))))
        assert v.worst_margin.hex() == min(margins).hex()

    @pytest.mark.parametrize("s,long", [(1, False), (2, False), (3, False), (4, False),
                                        (3, True)])
    def test_settled_rows_are_built_only_for_the_margin(self, monkeypatch, s, long):
        # a supported star-shape sweep builds, in the sweep, only the closed
        # rows it samples; the rows of its settled cells are built when its
        # margin is measured, one _Terms.rows call per batch table
        inside, settled = [False], []
        events = _count_built_rows(monkeypatch, inside)
        inner = ordering._with_worst_margin

        def spy(verdict, passing):
            settled.append(sum(res.closed is not None for res in passing))
            inside[0] = True
            try:
                return inner(verdict, passing)
            finally:
                inside[0] = False

        monkeypatch.setattr(ordering, "_with_worst_margin", spy)
        # the long column is two batches, the certified workload's one
        grid = self.LONG_COLUMN if long else TestBatchInvariance.CERTIFIED_GRID
        v = compare_ifra(MaxExp(1.0, 1.0), MaxExp(1.0, 4.0 if long else 2.0), s, grid)
        assert v.supported and v.worst_margin > 0.0
        sweep = [(kind, n) for kind, n, in_margin in events if not in_margin]
        assert sweep == [(kind, n) for _, n in sweep[::2] for kind in ("built", "sampled")]
        (count,) = settled
        margin = [(kind, n) for kind, n, in_margin in events if in_margin]
        assert count > 0 and len(margin) == (3 if long else 2)
        assert sum(n for kind, n in margin if kind == "built") == count
        assert margin[-1] == ("sampled", count)

    def test_refuting_sweep_measures_no_margin(self, monkeypatch):
        X, Y = Gamma(2.0), Weibull(2.0)
        measured, evaluations = self._spies(monkeypatch)
        v = compare_ifr(X, Y, 1, GridSpec.default(X, Y, na=24, nb=12))
        assert v.refuted and v.worst_margin is None
        assert [verdict for verdict, _ in measured] == [v] and evaluations == []

    def test_newcrit_star_shape_step_measures_no_margin(self, monkeypatch):
        from golden_corpus import compare_document, golden, same
        measured, evaluations = self._spies(monkeypatch)
        args = ["compare", "--x", "maxexp(1,1)", "--y", "maxexp(1,2)", "--s", "2",
                "--criterion", "newcrit", "--a-grid", "24", "--b-grid", "12"]
        doc = compare_document(args)
        assert doc["outcome"] == "supported" and measured == [] and evaluations == []
        assert same(golden("compare", "newcrit-s2-maxexp1-1-vs-maxexp1-2.json"), doc) == []

    def test_criterion_h_measures_no_margin(self, monkeypatch):
        measured, evaluations = self._spies(monkeypatch)
        v = criterion_h(Weibull(2.0), Gamma(2.0), 1, SMALL_POS)
        assert v.supported and v.worst_margin is None
        assert measured == [] and evaluations == []


def _settling_pairs():
    """Seeded pairs of the paper's family: Exp(1) and MaxExp(1, mu) against
    MaxExp(1, lam), in both orientations."""
    rng = np.random.default_rng(2323)
    lam, mu = rng.uniform(1.05, 6.0, 4), rng.uniform(1.05, 6.0, 2)
    pairs = [(Exponential(1.0), MaxExp(1.0, lam[0])), (Exponential(1.0), MaxExp(1.0, lam[1])),
             (MaxExp(1.0, mu[0]), MaxExp(1.0, lam[2])), (MaxExp(1.0, mu[1]), MaxExp(1.0, lam[3]))]
    return pairs + [(Y, X) for X, Y in pairs]


class TestSettledCells:
    """A closed cell at b >= 0 whose coefficient signs prove it root-free,
    or fix an admissible pattern, is settled without sampling (_settle):
    its signs are those certified root isolation reads, and no verdict
    document moves."""

    PAIRS = _settling_pairs()
    GRIDS = {"column": GridSpec(tuple(np.geomspace(0.05, 20.0, 64)), (0.0,)),
             "negative": GridSpec(tuple(np.geomspace(0.1, 10.0, 16)), (-1.0, -0.1, 0.0, 2.0))}

    @pytest.mark.parametrize("grid", ["column", "negative"])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_settled_signs_are_the_certified_ones(self, grid, s):
        grid = self.GRIDS[grid]
        cells = [(a, b) for a in grid.a_values for b in grid.b_values]
        n = len(cells)
        settled = open_below = 0
        for X, Y in self.PAIRS:
            v = ordering._v_form(iterate(X, s), iterate(Y, s))
            for forms in ((v,), tuple(ordering._h_forms(X, Y, s).values())):
                closed = ordering._closed_cells(forms, cells)
                signs, free = ordering._settle(closed, ALLOWED_IFR)
                star, _ = ordering._settle(closed, ALLOWED_IFRA)
                for f in range(len(forms)):
                    rows = range(f * n, (f + 1) * n)
                    for (a, b), row, poly in zip(cells, rows, _outcomes(closed, f)):
                        # the star-shape admissible set settles a subset
                        assert star[row] in (None, signs[row]) and star[row] != ("+", "-")
                        if b < 0:
                            assert signs[row] is None, (a, b)
                            open_below += isinstance(poly, ExpPoly)
                        if signs[row] is None:
                            continue
                        # sampling reads the same signs, none of them uncertain
                        pattern = poly.sign_pattern_exact(0.0)
                        assert pattern.signs == signs[row] and not pattern.uncertain, (a, b)
                        settled += 1
        assert settled > n * len(self.PAIRS) // 2
        assert (open_below > 0) == (min(grid.b_values) < 0)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_settling_moves_no_document(self, monkeypatch, s):
        # with no row settled, every closed cell is sampled in the sweep,
        # and every document is the same, worst margins to the last bit
        grid = self.GRIDS["negative"]
        checks = [(check, X, Y) for X, Y in self.PAIRS for check in (compare_ifr, compare_ifra,
                                                                     newcrit)]
        settled = [check(X, Y, s, grid) for check, X, Y in checks]
        nothing = lambda table: (np.zeros(len(table.coefs), dtype=bool),) * 4  # noqa: E731
        monkeypatch.setattr(ordering, "_sign_rule", nothing)
        for (check, X, Y), v in zip(checks, settled):
            sampled = check(X, Y, s, grid)
            assert v.to_dict() == sampled.to_dict(), (check.__name__, X, Y)
            if v.worst_margin is not None:
                assert v.worst_margin.hex() == sampled.worst_margin.hex()
        assert any(v.worst_margin for v in settled)


def _reference_closed_cell(form, a, b):
    """A cell's closed form built from whole ExpPoly steps, one cell at a
    time: the X side composed at a x + b, scaled, and subtracted from the Y
    side, with the same fallbacks and pruning guard.  Returns the ExpPoly,
    "degenerate" or "left", or why the cell is left to sampling: None (no
    closed sides, or b < 0 without a left sign), "overflow" (composing
    overflows), "underflow" (every composed coefficient underflows, or a
    rate does), "scale" (scaling by a^k / ex fails) or "pruned"."""
    if form.sides is None or (b < 0 and form.left is None):
        return None
    hy, hx = form.sides
    scale = a ** form.k / form.ex
    try:
        composed = tuple((c * math.exp(-r * b), r * a) for c, r in hx.terms)
    except OverflowError:
        return "overflow"
    if not all(math.isfinite(c) for c, _ in composed):
        return "overflow"
    try:
        xpart = ExpPoly(composed)
    except ValueError:
        return "underflow"
    try:
        if scale != 1.0:
            xpart = xpart.scaled(scale)
    except ValueError:
        return "scale"
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
    """_closed_cells builds the closed cells of a batch, in one or more
    forms, as one term table: each row's terms are those of the
    whole-polynomial steps to the bit, it falls back where they do, and the
    batch rule (exppoly._sign_rule) reads each row, and proves it root-free,
    as the scalar rule reads it alone."""

    @staticmethod
    def _forms(X, Y, s):
        return [ordering._v_form(iterate(X, s), iterate(Y, s)),
                *ordering._h_forms(X, Y, s).values()]

    @staticmethod
    def _bits(terms):
        return [(c.hex(), r.hex()) for c, r in terms]

    def _agree(self, forms, cells, seen=None):
        """The reference's kind of each row of forms at cells, built in one
        table, after checking the row against it."""
        closed = ordering._closed_cells(forms, cells)
        rules = free = None
        if closed.terms is not None:
            rules, free = _rules(closed.terms), exppoly._root_free(closed.terms)
        kinds = []
        for f, form in enumerate(forms):
            outcomes = _outcomes(closed, f)
            for i, (a, b) in enumerate(cells):
                row = f * len(cells) + i
                got, want = outcomes[i], _reference_closed_cell(form, a, b)
                if isinstance(want, ExpPoly):
                    assert isinstance(got, ExpPoly), (a, b)
                    assert all(type(c) is float and type(r) is float for c, r in got.terms)
                    assert self._bits(got.terms) == self._bits(want.terms), (a, b)
                    rule = rules[row]
                    assert rule == _reference_rule(want.terms), (a, b)
                    assert free[row] == _reference_root_free(want.terms), (a, b)
                    kinds.append("closed")
                    kinds.append("decided" if rule is not None else "undecided")
                    hy, hx = form.sides
                    tol = ordering.RATE_MERGE_REL * max(hy.rates[-1], hx.rates[-1] * a)
                    if any(abs(r * a - q) <= tol for r in hx.rates for q in hy.rates):
                        kinds.append("critical")
                    continue
                if want in ("degenerate", "left"):
                    assert isinstance(got, ordering._CellResult), (a, b)
                    assert got.degenerate == (want == "degenerate")
                    if want == "left":
                        assert got.pattern.signs == (form.left,)
                        assert got.pattern.witnesses == (-b / a / 2.0,)
                else:
                    assert got is None, (a, b, want)
                assert rules is None or rules[row] is None
                kinds.append("none" if want is None else want)
        if seen is not None:
            for kind in kinds:
                seen[kind] = seen.get(kind, 0) + 1
        return kinds

    @staticmethod
    def _left_form(form, a, b):
        """form with its Y side replaced by its X side composed at (a, b),
        b < 0: V's scale is 1, so the sides cancel there exactly."""
        hx = form.sides[1]
        hy = ExpPoly(tuple((c * math.exp(-r * b), r * a) for c, r in hx.terms))
        return replace(form, sides=(hy, hx))

    def test_terms_are_bit_identical_on_random_cells(self):
        rng = np.random.default_rng(1301)
        seen = {}

        def system():
            rates = np.sort(rng.uniform(0.2, 15.0, 2)).tolist()
            return MaxExp(*rates) if rng.random() < 0.8 else Exponential(rates[0])

        for batch in range(30):
            forms, cells = [], []
            for _ in range(int(rng.integers(1, 4))):
                X = system()
                Y = X if rng.random() < 0.2 else system()
                forms.append(self._forms(X, Y, int(rng.integers(1, 5)))[int(rng.integers(3))])
            for _ in range(int(rng.integers(8, 40))):
                a = float(10.0 ** rng.uniform(-1.5, 1.5))
                b = float(rng.choice([0.0, rng.uniform(0.0, 10.0), rng.uniform(-60.0, 0.0),
                                      rng.uniform(20.0, 120.0)]))
                cells.append((a, b))
            if batch % 3 == 0:
                # a batch where no step drops a term: the gated passes are
                # skipped, and the table keeps its layout as built
                self._agree(forms, [(a, b / 100.0) for a, b in cells if 0.0 <= b <= 10.0], seen)
                continue
            # critical slopes, a r_X = r_Y for a rate of each side of a form
            for form in forms:
                hy, hx = form.sides
                for _ in range(3):
                    q, r = rng.choice(hy.rates), rng.choice(hx.rates)
                    cells.append((float(q / r), float(rng.choice([0.0, rng.uniform(0.0, 5.0)]))))
            # equal sides cancel at (1, 0); exp(-r b) overflows at b = -800
            # and underflows at b = 800; a^k / ex underflows at a = 1e-80
            # and 1e-100 for k >= 4; a left sign where V's sides cancel
            cells += [(1.0, 0.0), (0.5, -800.0), (1.0, 800.0), (1e-80, 0.0), (1e-100, 1.0)]
            if forms[0].left is not None:
                a, b = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-3.0, -0.1))
                forms.append(self._left_form(forms[0], a, b))
                cells.append((a, b))
            cells = [cells[i] for i in rng.permutation(len(cells))]
            self._agree(forms, cells, seen)
        assert seen["closed"] > 1000 and seen["decided"] > 500 and seen["undecided"] > 200, seen
        assert seen["critical"] > 50 and seen["degenerate"] > 3 and seen["left"] > 3
        fallbacks = ("none", "overflow", "underflow", "scale")
        assert sum(seen[kind] for kind in fallbacks) > 20 and seen["pruned"] > 0
        assert min(seen[kind] for kind in fallbacks) > 0, seen

    def test_pruned_overflowing_and_cancelling_cells(self):
        X, Y = Exponential(1.0), Exponential(10.0)
        # a = 0.05, b = 40: the X term falls below the prune threshold
        hs1 = ordering._h_forms(X, Y, 1)["hs1"]
        assert self._agree([hs1], [(0.05, 40.0)]) == ["pruned"]
        # b = -60 on rates up to 25: exp(-r b) overflows
        v = self._forms(MaxExp(12.0, 13.0), MaxExp(1.0, 2.0), 2)[0]
        assert self._agree([v], [(0.5, -60.0)]) == ["overflow"]
        # a composed coefficient that overflows although its exponential
        # does not: 5 e^{709.5} is past the largest float
        big = replace(v, sides=(v.sides[0], ExpPoly(((5.0, 1.0),))))
        assert self._agree([big], [(1.0, -709.5)]) == ["overflow"]
        # b = 800: every X coefficient underflows
        assert self._agree(self._forms(X, Y, 1)[:1], [(1.0, 800.0)]) == ["underflow"]
        # at b = 690 it survives composing (about 1e-300), but not the scale
        # a^4 / E X^3 of hs at s = 4, a = 1e-6; against a Y side slower than
        # the composed X side no pruning guard would catch the loss
        hs = ordering._h_forms(X, Exponential(1e-7), 4)["hs"]
        assert self._agree([hs], [(1e-6, 690.0)]) == ["scale"]
        # equal sides cancel at a = 1, b = 0, and only there
        same = self._forms(MaxExp(1.0, 2.0), MaxExp(1.0, 2.0), 2)[0]
        assert self._agree([same], [(1.0, 0.0), (1.0, -0.5)])[:2] == ["degenerate", "closed"]
        # and to the left sign at b < 0, where V's sides are made to cancel
        assert self._agree([self._left_form(same, 1.5, -0.5)], [(1.5, -0.5)]) == ["left"]

    def test_x_rates_that_merge_at_some_slopes(self):
        # 1 and 1 + 1e-12 stay apart in an ExpPoly, but at a = 8.5993... the
        # products r a lie within the merge tolerance, and merge
        v = self._forms(Exponential(3.0), Exponential(1.0), 1)[0]
        hx = ExpPoly(((1.0, 1.0), (0.5, 1.000000000001)))
        form = replace(v, sides=(v.sides[0], hx))
        a = 8.599365182451331
        assert len(ExpPoly(tuple((c, r * a) for c, r in hx.terms)).terms) == 1
        assert self._agree([form], [(a, 0.0)])[0] == "closed"
        cells = [(x, b) for x in (a, 1.0, 2.5) for b in (0.0, 0.5)]
        assert self._agree([form, v], cells)[0] == "closed"

    def test_forms_without_closed_sides_make_no_table(self):
        forms = ordering._h_forms(Weibull(2.0), Gamma(2.0), 1)
        closed = ordering._closed_cells(tuple(forms.values()), [(1.0, 0.0), (2.0, 1.0)])
        assert closed.terms is None and set(closed.kind) == {ordering._SAMPLED}

    def test_kept_x_side_needs_no_x_passes(self, monkeypatch):
        # where the side tables show that composing and scaling keep every
        # X term, the batch reads as it does through every X-side pass
        forms = self._forms(MaxExp(1.0, 1.0), MaxExp(1.0, 2.7), 2)
        cells = [(float(a), b) for a in np.geomspace(0.05, 20.0, 12) for b in (0.0, 2.0, 8.0)]
        side = ordering._side_tables
        assert side(forms, sorted({a for a, _ in cells}), [0.0, 2.0, 8.0]).x_kept
        kept = ordering._closed_cells(forms, cells)
        monkeypatch.setattr(ordering, "_side_tables", lambda *args: side(*args)._replace(x_kept=False))
        passes = ordering._closed_cells(forms, cells)
        assert kept.kind == passes.kind and ordering._CLOSED in kept.kind
        rows = [k for k, kind in enumerate(kept.kind) if kind == ordering._CLOSED]
        assert ([self._bits(terms) for terms in kept.terms.rows(rows)]
                == [self._bits(terms) for terms in passes.terms.rows(rows)])


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
                         b_aug)
    grid_star = GridSpec(a_aug, (0.0,))

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

    @pytest.mark.parametrize("check, a_values, b_values", [
        (compare_ifra, (math.nan, 1.0), (0.0,)),    # once ZeroDivisionError
        (newcrit, (1.0, math.inf), (0.0,)),         # once supported, margin 0.0
        (compare_ifr, (1.0,), (math.inf,)),         # once supported, margin 1.0
        (compare_ifr, (1.0,), (-math.inf, math.nan)),
    ], ids=["nan-slope", "inf-slope", "inf-intercept", "-inf-nan-intercepts"])
    def test_non_finite_values_are_rejected(self, check, a_values, b_values):
        X, Y = ((MaxExp(1.0, 1.0), MaxExp(1.0, 2.0)) if check is compare_ifra
                else (Exponential(1.0), Gamma(2.0, 1.0)))
        with pytest.raises(ValueError, match="finite"):
            check(X, Y, 2 if check is compare_ifra else 1, GridSpec(a_values, b_values))

    def test_default_contains_zero_intercept(self):
        g = GridSpec.default(Exponential(1.0), Exponential(1.0))
        assert 0.0 in g.b_values

    @pytest.mark.parametrize("nb", [1, 2, 3, 4, 5, 6, 12, 32])
    def test_default_with_few_intercepts_keeps_zero(self, nb):
        # nb = 4 once took four negative intercepts and no b >= 0, and
        # nb < 4 failed inside numpy
        X, Y = Exponential(1.0), MaxExp(1.0, 2.0)
        g = GridSpec.default(X, Y, na=3, nb=nb)
        assert 0.0 in g.b_values and len(g.b_values) == nb
        negatives = sum(b < 0 for b in g.b_values)
        assert negatives == min(max(nb // 3, 4), nb - 1)
        assert GridSpec.default(X, Y, negative_b=False, na=3, nb=nb).b_values[0] == 0.0

    def test_default_grids_from_five_intercepts_are_unchanged(self):
        # four negative intercepts from -5 E X toward 0, then nb - 4 from 0
        X, Y = Exponential(1.0), MaxExp(1.0, 2.0)
        g = GridSpec.default(X, Y, na=3, nb=5)
        assert g.b_values == tuple(-np.geomspace(5.0, 0.01, 4)) + (0.0,)
        assert g.a_values == tuple(np.geomspace(0.05, 20.0, 3))

    @pytest.mark.parametrize("kwargs, name", [({"na": 0}, "na"), ({"na": -3}, "na"),
                                              ({"nb": 0}, "nb"), ({"nb": -1}, "nb")])
    def test_default_rejects_empty_axes(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            GridSpec.default(Exponential(1.0), MaxExp(1.0, 2.0), **kwargs)

    @pytest.mark.parametrize("kwargs, name", [({"na": 2.5}, "na"), ({"nb": 4.0}, "nb")])
    def test_default_rejects_fractional_axes(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            GridSpec.default(Exponential(1.0), MaxExp(1.0, 2.0), **kwargs)

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
    def _same_as_alone(form, a, bs):
        a_col, b_col = np.full(len(bs), a), np.asarray(bs, dtype=float)
        x_max, bps = form.window(a_col, b_col), form.bps(a_col, b_col)
        row = ordering._scan_row(form.F, (a_col, b_col, np.full(len(bs), a ** form.k)),
                                 x_max, form.config, bps, fy=form.fy)
        for i, (b, got) in enumerate(zip(bs, row)):
            try:
                alone = scan(lambda x: form(x, a, b), replace(form.config, x_max=x_max[i]),
                             () if bps is None else bps[i])
            except IndeterminateFunction:
                assert isinstance(got, IndeterminateFunction), (a, b)
                continue
            assert got == alone, (a, b)
        return row

    def _rows(self, form, a_values, bs):
        out = []
        for a in a_values:
            out += self._same_as_alone(form, a, bs)
        return out

    def _v_rows(self, X, Y, s, a_values, bs=BS):
        return self._rows(ordering._v_form(iterate(X, s), iterate(Y, s)), a_values, bs)

    def _h_rows(self, X, Y, s, form, a_values, bs=BS):
        return self._rows(ordering._h_forms(X, Y, s)[form], a_values, bs)

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
    """A sampled cell's scan window is resolved per cell from the tail-mass
    horizons."""

    CELLS = ((0.5, 2.0), (0.0, 1.0))

    def _scanned_x_max(self, monkeypatch, check):
        seen = []
        inner = ordering._scan_row

        def spy(F, params, x_max, *args, **kwargs):
            seen.extend(x_max.tolist())
            return inner(F, params, x_max, *args, **kwargs)

        monkeypatch.setattr(ordering, "_scan_row", spy)
        check(GridSpec(*self.CELLS))
        assert seen
        return seen

    @pytest.mark.parametrize("check", [
        lambda g: compare_ifr(Weibull(1.5, 1.0), Gamma(1.5, 1.0), 1, g),
        lambda g: criterion_h(Weibull(1.5, 1.0), Gamma(1.5, 1.0), 1, g, form="hs1"),
    ], ids=["compare_ifr", "criterion_h"])
    def test_explicit_fifty_is_honoured(self, monkeypatch, check):
        # no cell's window is scan's default 50.0, nor left unset
        resolved = self._scanned_x_max(monkeypatch, check)
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
            monkeypatch, lambda g: compare_ifr(self.NUMERIC, Exponential(1.0), 1, g))
        assert sorted(seen) == pytest.approx(self._windows(np.log(1e10)), rel=1e-9)

    def test_numeric_density_h_window_ends_at_its_truncation_point(self, monkeypatch):
        seen = self._scanned_x_max(
            monkeypatch,
            lambda g: criterion_h(self.NUMERIC, Exponential(1.0), 1, g, form="hs1"))
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
