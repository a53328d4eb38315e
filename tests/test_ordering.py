"""Pairwise order checks: pattern sweeps, criteria, DMRL, convexity."""
import numpy as np
import pytest

from tailorder import (
    BranchedPareto,
    Exponential,
    Gamma,
    GridSpec,
    MaxExp,
    PolyExpExample,
    Weibull,
    compare_dmrl,
    compare_ifr,
    compare_ifra,
    convexity_check,
    criterion_h,
    exponential_reference,
    newcrit,
)
from tailorder import ordering
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
    row scanner saw, one list per row."""
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
        # the refuting cell is cell 14 of row 29: the row scanner sees all
        # 29 cells of that row, cells_scanned stops at the refuting one
        v, rows = bp_order_two
        nb = len(_BP_GRID_S2.b_values)
        assert v.refuted and v.cells_scanned == 826
        assert len(_BP_GRID_S2.a_values) * nb == 1479
        assert [len(r) for r in rows] == [nb] * 29
        assert sum(len(r) for r in rows) == 29 * nb > v.cells_scanned
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
        inner = ordering._exact_cell_pattern

        def spy(*args):
            calls.append(args[2:])
            return inner(*args)

        monkeypatch.setattr(ordering, "_exact_cell_pattern", spy)
        X, Y = MaxExp(0.34, 1.0), MaxExp(1.0, 11.0)
        grid = GridSpec(tuple(np.geomspace(0.05, 20.0, 24)) + (2.89,), (0.0,))
        v = compare_ifra(X, Y, 2, grid)
        assert v.refuted
        assert len(calls) == v.cells_scanned == 17 < len(grid.a_values)


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


class TestClosedCriterionH:
    """Exponential-polynomial pairs: both H forms are certified at every
    nonnegative intercept, without sampled scans."""

    PAIRS = [(MaxExp(1.0, 2.0), MaxExp(1.0, 1.0)),
             (Exponential(1.0), MaxExp(1.0, 2.0)),
             (MaxExp(1.0, 1.0), MaxExp(1.0, 2.0))]

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
        ex, ey = X.raw_moment(s - 1), Y.raw_moment(s - 1)
        part = ordering._h_exact_parts(X, Y, s, ey)[form]
        xs = np.geomspace(0.01, 12.0, 15)
        for a, b in ((0.7, 0.0), (2.5, 0.2), (1.3, 3.0)):
            res = ordering._closed_h_cell(part, a, b, ex)
            direct = ordering._h_function(X, Y, s, form, a, b, ex, ey)
            np.testing.assert_allclose(res.fn(xs), direct(xs), rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("form", ["hs", "hs1"])
    @pytest.mark.parametrize("pair", range(3))
    def test_same_verdict_as_sampled_path(self, monkeypatch, form, pair):
        X, Y = self.PAIRS[pair]
        closed = criterion_h(X, Y, 2, SMALL, form=form)
        monkeypatch.setattr(ordering, "_h_exact_parts", lambda *args: None)
        sampled = criterion_h(X, Y, 2, SMALL, form=form)
        assert closed.outcome == sampled.outcome
        assert closed.cells_scanned == sampled.cells_scanned
        if sampled.witness is not None:
            assert (closed.witness.a, closed.witness.b, closed.witness.pattern) == \
                (sampled.witness.a, sampled.witness.b, sampled.witness.pattern)

    @pytest.mark.parametrize("form", ["hs", "hs1"])
    def test_fast_rates_at_far_negative_intercept(self, form):
        # nothing is composed at b < 0, where exp(-r b) would overflow
        grid = GridSpec((0.5, 1.0, 4.0), (-30.0, 0.0))
        for X, Y in ((MaxExp(12.0, 13.0), MaxExp(1.0, 2.0)),
                     (MaxExp(1.0, 2.0), MaxExp(12.0, 13.0))):
            v = criterion_h(X, Y, 2, grid, form=form)
            assert v.cells_scanned == 6

    @pytest.mark.parametrize("form", ["hs", "hs1"])
    def test_underflowing_x_term_keeps_sampled_scan(self, form):
        # at b = 800 every X coefficient exp(-r b) underflows to 0
        v = criterion_h(Exponential(1.0), Exponential(2.0), 1, GridSpec((1.0,), (800.0,)),
                        form=form)
        assert v.supported

    def test_pruned_slow_term_keeps_sampled_scan(self, monkeypatch):
        # hs1 at s = 1, a = 0.05, b = 40: e^{-10x} - e^{-40} e^{-0.05x}; the
        # X term is below the prune threshold, yet it decides the tail, so
        # the closed path must not certify the "+" left without it; the scan
        # reads the same "+", but as a sampled pattern, its tail inside the
        # deadband
        X, Y, a, b = Exponential(1.0), Exponential(10.0), 0.05, 40.0
        h = ordering._h_function(X, Y, 1, "hs1", a, b, 1.0, 1.0)
        assert h(1.0) > 0 > h(10.0)
        part = ordering._h_exact_parts(X, Y, 1, 1.0)["hs1"]
        assert ordering._closed_h_cell(part, a, b, 1.0) is None
        calls = _count_scans(monkeypatch)
        assert criterion_h(X, Y, 1, GridSpec((a,), (b,)), form="hs1").supported
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

    def _v_rows(self, X, Y, s, a_values, bs=BS):
        TX, TY = iterate(X, s), iterate(Y, s)
        V = ordering._v_row(TX, TY)
        cfg_of = ordering._scan_config_per_cell(TX, TY, X, Y, None)
        out = []
        for a in a_values:
            out += self._same_as_alone(
                V, lambda b: (a, b), lambda b: (lambda x: V(x, a, b)), cfg_of,
                lambda a, b: ordering._cell_breakpoints(TX, TY, a, b), a, bs)
        return out

    def _h_rows(self, X, Y, s, form, a_values, bs=BS):
        ex, ey = X.raw_moment(s - 1), Y.raw_moment(s - 1)
        H, k = ordering._h_row(X, Y, s, form, ex, ey)
        cfg_of = ordering._scan_config_per_cell(X, Y, X, Y, None)
        out = []
        for a in a_values:
            out += self._same_as_alone(
                H, lambda b: (a, b, a ** k),
                lambda b: ordering._h_function(X, Y, s, form, a, b, ex, ey), cfg_of,
                lambda a, b: ordering._cell_breakpoints(X, Y, a, b), a, bs)
        return out

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
