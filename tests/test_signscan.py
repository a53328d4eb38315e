"""Adaptive sign scanning, pattern matching, and the integration lemma."""

from dataclasses import replace

import numpy as np
import pytest

from tailorder import ExpPoly, IndeterminateFunction, ScanConfig, check_integration_lemma, scan
from tailorder import signscan
from tailorder.patterns import (ALLOWED_IFR, ALLOWED_IFRA, DEFAULT_X_MAX, SignPattern, admits,
                                alternating, matches)
from tailorder.signscan import _classify, _largest_finite, _run_starts, _scan_row


# Reference refinement: every round merges its midpoints into the whole
# batch and reclassifies every sample.  Slow, but each round's state is the
# plain sorted sample list, so it defines what _refine must return.

def _stable_slots(xs, cell, at, mids, mcell):
    """Where a stable sort by (cell, x) of xs followed by mids puts each
    midpoint, given xs sorted so and each midpoint no smaller than the
    sample before at and no larger than the one at it: after every sample
    of its cell equal to it.  The slots index the merged arrays."""
    while True:
        nxt = np.minimum(at, xs.size - 1)
        tie = (at < xs.size) & (xs[nxt] == mids) & (cell[nxt] == mcell)
        if not tie.any():
            return at + np.arange(at.size)
        at = at + tie


def _merged(pairs, slots):
    """Each (old, new) pair as one array: new's values at slots, old's in
    order around them."""
    rest = np.ones(slots.size + pairs[0][0].size, dtype=bool)
    rest[slots] = False
    out = []
    for old, new in pairs:
        both = np.empty(rest.size, old.dtype)
        both[rest] = old
        both[slots] = new
        out.append(both)
    return out


def _refine_batch(F, params, initial, kept, scale, cfg):
    xs, vals, _, starts, sizes = initial
    cell = np.repeat(np.arange(sizes.size), sizes)
    deadband, deadband_abs = cfg.deadband, cfg.deadband_abs
    eps = np.maximum(deadband * scale, deadband_abs)
    signs = _classify(vals, eps[cell])
    for _ in range(cfg.max_refinement_depth):
        boundary = np.nonzero((signs[:-1] != signs[1:]) & (cell[:-1] == cell[1:]))[0]
        if boundary.size == 0:
            break
        mids = 0.5 * (xs[boundary] + xs[boundary + 1])
        mcell = cell[boundary]
        mvals = np.asarray(F(mids, *(p[mcell] for p in params)), dtype=float)
        first = _run_starts(mcell)
        touched = mcell[first]
        scale[touched] = np.maximum(scale[touched], _largest_finite(np.abs(mvals), first))
        eps = np.maximum(deadband * scale, deadband_abs)
        slots = _stable_slots(xs, cell, boundary + 1, mids, mcell)
        xs, vals, cell = _merged(((xs, mids), (vals, mvals), (cell, mcell)), slots)
        signs = _classify(vals, eps[cell])
    return xs, vals, cell, signs


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

    @pytest.mark.parametrize("field, value", [
        ("x_max", float("nan")), ("x_max", float("inf")), ("x_max", -1.0),
        ("deadband", float("nan")), ("deadband", float("inf")), ("deadband", 0.0),
        ("deadband_abs", float("nan")), ("deadband_abs", float("inf")), ("deadband_abs", -1e-9),
        ("initial_grid", 100.0), ("max_refinement_depth", 2.5),
    ])
    def test_invalid_settings_are_rejected(self, field, value):
        # a NaN deadband would put every sample inside it, so every cell
        # would scan as degenerate and pass
        with pytest.raises(ValueError, match=field):
            ScanConfig(**{field: value})

    def test_trace_rows_collected(self):
        rows = []
        scan(lambda x: x - 1.0, ScanConfig(x_max=10.0, initial_grid=64), trace=rows)
        assert len(rows) >= 64
        xs = [r[0] for r in rows]
        assert all(s in ("+", "-", "0") for _, _, s in rows)

    def test_midpoints_of_a_huge_window_stay_finite(self):
        # the two ends of a bracket near 1.7e308 sum past the largest float
        rows = []
        pat = scan(lambda x: x - 1.5e308, ScanConfig(x_max=1.7e308), trace=rows)
        assert pat.signs == ("-", "+")
        assert all(np.isfinite(pat.witnesses))
        (lo, hi), = pat.change_points
        assert lo <= 1.5e308 <= hi < 1.7e308
        assert all(0.0 < x <= 1.7e308 for x, _, _ in rows)


def _row(cells):
    """The parameter columns, windows and breakpoints of a batch of
    (params, x_max, breakpoints) cells."""
    params = [np.asarray(col, dtype=float) for col in zip(*(p for p, _, _ in cells))]
    return params, np.asarray([w for _, w, _ in cells], dtype=float), [b for _, _, b in cells]


def _patterns(F, params, x_max, cfg, *args, **kwargs):
    """The pattern of each cell of a _scan_row batch, None where the cell
    has no sign evidence, after checking the batch's arrays: counts and
    offsets agree, and first signs are +1 or -1 exactly where a cell has
    signs."""
    batch = _scan_row(F, params, x_max, cfg, *args, **kwargs)
    assert batch.at[0] == 0 and np.array_equal(np.diff(batch.at), batch.count)
    assert batch.witness.size == batch.lo.size == batch.hi.size == batch.at[-1]
    assert np.array_equal(batch.first != 0, batch.count > 0)
    assert set(np.abs(batch.first).tolist()) <= {0, 1}
    return [batch.pattern(i) for i in range(len(batch.count))]


def _alone(F, params, x_max, cfg, bps=(), trace=None):
    """scan of one cell of a batch, or None where it is zero within the
    deadband."""
    try:
        return scan(lambda x: F(x, *params), replace(cfg, x_max=float(x_max)), bps, trace=trace)
    except IndeterminateFunction:
        return None


class TestRowScan:
    def test_cells_keep_their_own_window_and_breakpoints(self):
        # the cells of a batch share its grid size, deadband and depth, and
        # each has its own window and breakpoints; every batch setting is
        # tried on the same cells
        def F(x, c, r):
            return c * (x - r) * (x - 2.0 * r)

        cells = [((1.0, 1.0), 10.0, ()), ((1e-15, 0.5), 4.0, (0.7,)),
                 ((1e6, 3.0), 50.0, ()), ((0.0, 1.0), 10.0, ()),
                 ((-2.0, 0.25), 10.0, (0.3, 0.6))]
        params, x_max, bps = _row(cells)
        for cfg in (ScanConfig(), ScanConfig(initial_grid=64),
                    ScanConfig(max_refinement_depth=2), ScanConfig(deadband_abs=1e-3)):
            row = _patterns(F, params, x_max, cfg, bps)
            # only an absolute deadband hides the cell of scale 1e-15
            assert [p is None for p in row] == \
                [False, cfg.deadband_abs > 0, False, True, False]
            for (cell, w, b), got in zip(cells, row):
                alone = _alone(F, cell, w, cfg, b)
                if alone is not None:
                    assert got == alone
                    assert len(got.signs) == 3

    def test_x_only_side_once_per_batch(self):
        # four cells share one window, one of them with a breakpoint inside,
        # and a fifth has a window of its own: the initial evaluation reads
        # the x-only side once, at the two distinct grids and the
        # breakpoint, and each cell gets the pattern, witnesses and trace
        # of scanning it alone
        def fy(x):
            seen.append(np.shape(x))
            return np.exp(-np.asarray(x))

        def F(x, c, r, y=None):
            return (np.exp(-x) if y is None else y) - c * np.exp(-r * x)

        cells = [((0.5, 0.4), 12.0, ()), ((2.0, 1.5), 12.0, ()),
                 ((3.0, 1.25), 12.0, (0.7,)), ((1.0, 1.0), 12.0, ()),
                 ((0.25, 0.5), 7.5, ())]
        params, x_max, bps = _row(cells)
        cfg = ScanConfig()
        seen, trace = [], []
        row = _patterns(F, params, x_max, cfg, bps, fy=fy, trace=trace)
        assert seen == [(2 * 512 + 1,)]
        assert row[3] is None
        alone_trace = []
        for (params, w, bps), got in zip(cells, row):
            rows = []
            alone = _alone(F, params, w, cfg, bps, trace=rows)
            alone_trace += rows
            if alone is None:
                assert got is None
            else:
                assert (got.signs, got.witnesses, got.change_points) == \
                    (alone.signs, alone.witnesses, alone.change_points)
                assert got == alone
        assert [repr(r) for r in trace] == [repr(r) for r in alone_trace]
        assert sum(len(p.signs) > 1 for p in row if isinstance(p, SignPattern)) >= 3

    def test_equal_grids_are_the_rows_of_one_evaluation(self):
        # no breakpoints, so every grid has 512 points: the initial
        # evaluation is one call on a (cells, 512) array with the
        # parameters as columns, and the walks are flat; with a breakpoint
        # in one cell the grids are ragged and the call is flat too
        def F(x, c, r):
            shapes.append((np.shape(x), np.shape(c), np.shape(r)))
            return c * (x - r)

        cells = [((1.0, 0.5), 10.0, ()), ((-1.0, 2.0), 10.0, ()), ((2.0, 7.0), 30.0, ())]
        params, x_max, bps = _row(cells)
        cfg = ScanConfig()
        shapes = []
        row = _patterns(F, params, x_max, cfg, bps)
        assert shapes[0] == ((3, 512), (3, 1), (3, 1))
        assert all(len(x) == 1 and x == c == r for x, c, r in shapes[1:]) and len(shapes) > 1
        assert row == [_alone(F, p, w, cfg) for p, w, _ in cells]
        shapes.clear()
        bps[1] = (1.0,)
        assert _patterns(F, params, x_max, cfg, bps)[0] == row[0]
        assert shapes[0] == ((3 * 512 + 1,),) * 3

    def test_scan_calls_f_on_flat_arrays(self):
        shapes = []

        def f(x):
            shapes.append(np.ndim(x))
            return x - 1.0

        assert scan(f, ScanConfig(x_max=10.0)).signs == ("-", "+")
        assert set(shapes) == {1} and len(shapes) == 4

    def test_initial_grids_have_the_bits_of_their_own_geomspace(self):
        # the distinct windows' grids are one geomspace call; each must be
        # the grid of its window alone, to the last bit (a positive
        # function has no boundary, so the trace is the initial grids)
        rng = np.random.default_rng(5)
        x_max = np.concatenate([10.0 ** rng.uniform(-3, 6, 300), [1.0, 1.0, 50.0]])
        trace = []
        _scan_row(lambda x, c: c * np.exp(-x / 1e7), [np.ones(x_max.size)], x_max,
                  ScanConfig(initial_grid=64), trace=trace)
        want = np.concatenate([np.geomspace(w * 1e-10, w, 64) for w in x_max.tolist()])
        assert np.array_equal(np.array([x for x, _, _ in trace]), want)


def _random_row(x, root1, root2, sign, kind, spike_at, spike_width, spike_height, hole, flat):
    """Two roots, or a unit step at root1 (kind 1), times sign, plus a
    narrow spike, a tiny window of non-finite values and a stretch 1e-14
    times as large as it would be, inside the deadband; the cell's
    parameters are arrays."""
    with np.errstate(all="ignore"):
        smooth = (x - root1) * (x - root2) * np.exp(-0.2 * x)
        base = sign * np.where(kind == 0, smooth, np.where(x < root1, -1.0, 1.0))
        base = np.where(np.abs(x - flat) < 0.05 * flat, 1e-14 * base, base)
        out = base + spike_height * np.exp(-((x - spike_at) / spike_width) ** 2)
        bad = np.abs(x - hole) < 1e-3 * hole
        return np.where(bad, np.where(kind == 0, np.nan, np.inf * sign), out)


def _random_cell(rng):
    x_max = float(rng.uniform(2.0, 50.0))
    root1, root2 = np.sort(rng.uniform(0.02, 1.0, 2)) * x_max
    # the spike sits just beside a root, where the midpoints go, and is
    # often far above the cell's grid maximum
    near = root1 if rng.random() < 0.5 else root2
    width = float(10.0 ** rng.uniform(-6, -2)) * x_max
    # a cell of sign 0 and no spike is zero within the deadband
    params = (root1, root2, float(rng.choice([-1.0, 1.0, 0.0], p=[0.45, 0.45, 0.1])),
              float(rng.integers(0, 2)),
              near + float(rng.uniform(-3.0, 3.0)) * width, width,
              float(rng.choice([0.0, 1.0, 1e3, -1e6])) * x_max ** 2,
              float(rng.uniform(0.01, 1.0)) * x_max if rng.random() < 0.3 else -1.0,
              float(rng.uniform(0.02, 1.0)) * x_max if rng.random() < 0.3 else -1.0)
    bps = tuple(float(b) for b in rng.uniform(0.0, 1.1, int(rng.integers(0, 3))) * x_max)
    if rng.random() < 0.2:
        bps += (params[4],)
    return params, x_max, bps


def _random_config(rng, depths=(0, 2, 12, 60)):
    return ScanConfig(initial_grid=int(rng.integers(64, 97)),
                      deadband=float(rng.choice([1e-11, 1e-6, 1e-2])),
                      max_refinement_depth=int(rng.choice(depths)),
                      deadband_abs=float(rng.choice([0.0, 0.0, 1e-9, 1e-3])))


class TestRowRefinement:
    def test_brackets_match_whole_batch_refinement(self):
        # patterns and traces of random batches, refined by brackets and by
        # the reference; spikes raise a cell's eps mid-refinement, depth 60
        # bisects down to adjacent floats
        rng = np.random.default_rng(1111)
        merges = {"traced": 0, "compact": 0}
        batches = 300
        for _ in range(batches):
            _refined_both_ways([_random_cell(rng) for _ in range(rng.integers(1, 9))],
                               _random_config(rng), merges=merges)
        # merges that rebuild a cell's brackets, beyond the final one of
        # each scan, in the traced scan and in the one from run ends
        assert merges["traced"] > batches + 50
        assert merges["compact"] > batches + 50

    @pytest.mark.parametrize("depths", [(1,), (3,), (5,), (7,), (13,), (0, 1, 3, 5, 7, 12, 13, 60)])
    def test_depths_that_end_inside_a_walk(self, depths):
        # a walk covers up to signscan._LEVELS levels, so a depth that is no
        # multiple of it ends part way; a cell whose eps grows stops its
        # walk early, so the cells of a batch walk different depths
        rng = np.random.default_rng(sum(depths))
        for _ in range(40):
            _refined_both_ways([_random_cell(rng) for _ in range(rng.integers(1, 9))],
                               _random_config(rng, depths))

    @pytest.mark.parametrize("level", range(1, 9))
    def test_spike_raises_eps_at_each_level(self, level):
        # a crossing at r, and a spike at exactly the midpoint that
        # bisection reaches at the given level (the levels of the first two
        # walks): the spike raises the cell's eps there, so the walk stops
        # and the brackets are rebuilt under the new eps
        r, spike = 1.2345, _spike_at(1.2345, 10.0, 64, level)
        rows = _refined_both_ways([((r, spike), 10.0, ())],
                                  ScanConfig(initial_grid=64, max_refinement_depth=8), _spiked)
        assert any(x == spike and v == 1e6 for x, v, _ in rows)

    def test_ties_at_depth_sixty(self, monkeypatch):
        # bisection reaches adjacent floats, where a midpoint equals one
        # end; F gives one value per point, so the tie has its end's class
        # and the walk goes on through it: no rebuild, only the final merge
        cells = [((r,), 10.0, ()) for r in (1.2345, np.pi, 7.0 + 1e-9)]
        cfg = ScanConfig(initial_grid=64, max_refinement_depth=60)
        rows = _refined_both_ways(cells, cfg, lambda x, root: x - root)
        xs = [x for x, _, _ in rows]
        assert len(set(xs)) < len(xs)
        merges = []
        in_order = signscan._in_order
        monkeypatch.setattr(signscan, "_in_order", lambda seen: merges.append(1) or in_order(seen))
        _scan_row(lambda x, root: x - root, *_row(cells)[:2], cfg)
        assert len(merges) == 1

    def test_one_evaluation_per_walk(self):
        # depth-12 cells, no eps change and no tie: the initial evaluation
        # and three walks of four levels; of the 15 points a walk evaluates
        # per bracket, the trace holds only the midpoints of live intervals
        calls, points = [], []

        def F(x, root):
            calls.append(1)
            points.append(x.size)
            return x - root

        cells = [((r,), 10.0, ()) for r in (0.3, 1.2345, 2.5, 7.7)]
        trace = []
        row = _patterns(F, *_row(cells)[:2], ScanConfig(), trace=trace)
        assert [p.signs for p in row] == [("-", "+")] * 4
        assert len(calls) == 4
        assert points[1:] == [15 * len(cells)] * 3
        assert len(trace) == 512 * len(cells) + 12 * len(cells)


def _seen_level_by_level(C, want):
    """The seen mask of a walk, level by level: a point is seen when the
    interval it halves has both ends seen and their classes differ."""
    S = np.ones(C.shape, dtype=bool)
    for step in signscan._STEPS:
        left, right = slice(None, -1, step), slice(step, None, step)
        S[:, step // 2::step] = S[:, left] & S[:, right] & (C[:, left] != C[:, right])
    if want is not None:
        S[:, 1:signscan._SPAN] &= want
    return S


class TestSeenMask:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_path_table_matches_level_by_level(self, seed):
        # random classes -1, 0 and +1 at every position, ends included, and
        # every depth a walk can end at; the midpoints past a row's depth
        # are not evaluated, so they are unseen whatever their class
        rng = np.random.default_rng(seed)
        rows = 4000
        C = rng.integers(-1, 2, (rows, signscan._SPAN + 1)).astype(np.int8)
        # half the rows with end classes that differ, as a bracket's do
        C[::2, -1] = np.where(C[::2, 0] == 0, 1, -C[::2, 0])
        levels = rng.integers(1, signscan._LEVELS + 1, rows)
        want = signscan._LEVEL[1:signscan._SPAN] <= levels[:, None]
        for w in (None, want):
            assert (signscan._seen(C, w) == _seen_level_by_level(C, w)).all()
        assert signscan._seen(C)[:, 1:-1].any() and not signscan._seen(C)[:, 1:-1].all()


def _spike_at(r, x_max, n, level):
    """The midpoint that bisecting the grid bracket of r reaches at level."""
    grid = np.geomspace(x_max * 1e-10, x_max, n)
    lo, hi = grid[grid < r][-1], grid[grid > r][0]
    for _ in range(level):
        spike = 0.5 * lo + 0.5 * hi
        lo, hi = (spike, hi) if spike < r else (lo, spike)
    return spike


def _spiked(x, root, at):
    return np.where(x == at, 1e6, x - root)


def _refined_both_ways(cells, cfg, F=_random_row, merges=None):
    """Scan a batch with _refine and with the reference, traced, and with
    _refine untraced, from run ends alone; assert that the patterns, and
    the traces of the traced scans, agree and return the trace.  merges,
    when given, counts the merges of the traced scan with _refine
    ("traced") and of the untraced one ("compact")."""
    params, x_max, bps = _row(cells)
    in_order = signscan._in_order

    def counting(mp, key):
        if merges is not None:
            mp.setattr(signscan, "_in_order",
                       lambda seen: merges.update({key: merges[key] + 1}) or in_order(seen))

    out = []
    for refine, key in ((signscan._refine, "traced"), (_refine_batch, None)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(signscan, "_refine", refine)
            if key:
                counting(mp, key)
            trace = []
            got = _patterns(F, params, x_max, cfg, bps, trace=trace)
        out.append((got,
                    [repr(t) for t in trace], trace))
    (fast, fast_trace, trace), (ref, ref_trace, _) = out
    assert fast == ref, cells
    assert fast_trace == ref_trace, cells
    with pytest.MonkeyPatch.context() as mp:
        counting(mp, "compact")
        compact = _patterns(F, params, x_max, cfg, bps)
    assert compact == fast, cells
    return trace


class TestCompactedRows:
    """Untraced, a cell's walks start from the first, the last and the
    first largest sample of each of its runs of equal class alone, and a
    cell whose deadband grows gets its other samples back: each cell must
    still get, field by field, the outcome of a traced scan of it alone,
    which keeps every sample."""

    @staticmethod
    def _same_as_alone(F, cells, cfg):
        params, x_max, bps = _row(cells)
        row = _patterns(F, params, x_max, cfg, bps)
        for i, got in enumerate(row):
            alone = _alone(F, [p[i] for p in params], x_max[i], cfg, bps[i], trace=[])
            if alone is None:
                assert got is None, cells[i]
                continue
            for field in ("signs", "witnesses", "change_points", "confidence", "uncertain"):
                assert getattr(got, field) == getattr(alone, field), (field, cells[i])
        return row

    def test_random_rows(self):
        # NaN and infinite windows, stretches inside the deadband, spikes
        # that raise a cell's deadband next to its roots, unit steps (every
        # sample of a run as large as the first), breakpoints, depth 60
        rng = np.random.default_rng(2718)
        changes = indeterminate = 0
        for _ in range(300):
            row = self._same_as_alone(
                _random_row, [_random_cell(rng) for _ in range(rng.integers(1, 9))],
                _random_config(rng))
            changes += sum(len(p.signs) > 1 for p in row if isinstance(p, SignPattern))
            indeterminate += sum(p is None for p in row)
        assert changes > 300 and indeterminate > 10

    @pytest.mark.parametrize("depth", [8, 13])
    def test_spikes_at_every_level(self, depth):
        # one cell per refinement level, each with a spike at the midpoint
        # its bisection reaches there, beside cells with no spike
        r = 1.2345
        cells = [((r, _spike_at(r, 10.0, 64, level)), 10.0, ()) for level in range(1, depth + 1)]
        cells += [((2.5, -1.0), 10.0, ()), ((r, -1.0), 20.0, ())]
        self._same_as_alone(_spiked, cells,
                            ScanConfig(initial_grid=64, max_refinement_depth=depth))

    def test_ties_and_breakpoints(self):
        cells = [((r,), 10.0, bps) for r in (1.2345, np.pi, 7.0 + 1e-9)
                 for bps in ((), (r,), (0.5, 9.0))]
        self._same_as_alone(lambda x, root: x - root, cells,
                            ScanConfig(initial_grid=64, max_refinement_depth=60))


class TestRowMerge:
    def test_midpoints_merge_like_a_stable_lexsort(self):
        # samples sorted by (cell, x) with repeated abscissae; each midpoint
        # lies between the samples at a boundary and may tie either one
        rng = np.random.default_rng(7)
        for _ in range(200):
            sizes = rng.integers(2, 9, 3)
            cell = np.repeat(np.arange(3), sizes)
            xs = np.concatenate([np.sort(rng.integers(0, 6, n)).astype(float) for n in sizes])
            edges = np.nonzero((cell[:-1] == cell[1:]) & (xs[:-1] < xs[1:]))[0]
            if not edges.size:
                continue
            boundary = np.sort(rng.choice(edges, rng.integers(1, edges.size + 1), replace=False))
            pick = rng.integers(0, 3, boundary.size)
            mids = np.choose(pick, [xs[boundary], xs[boundary + 1],
                                    0.5 * (xs[boundary] + xs[boundary + 1])])
            mcell = cell[boundary]
            origin = np.arange(xs.size + mids.size)
            slots = _stable_slots(xs, cell, boundary + 1, mids, mcell)
            got = _merged(((xs, mids), (cell, mcell), (origin[:xs.size], origin[xs.size:])),
                          slots)
            order = np.lexsort((np.concatenate([xs, mids]), np.concatenate([cell, mcell])))
            assert np.array_equal(got[2], order)


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

    def test_invalid_sign_in_a_pattern_or_an_allowed_set_is_rejected(self):
        with pytest.raises(ValueError, match="invalid sign"):
            matches(("+", "?"), ALLOWED_IFR)
        for allowed in ([("+", "?")], [("+", "-"), ["-", "+", "x"]]):
            with pytest.raises(ValueError, match="invalid sign"):
                matches(("+",), allowed)
        # a rejected set is not remembered as valid
        with pytest.raises(ValueError, match="invalid sign"):
            matches(("+",), [("+", "?")])

    def test_allowed_sets_of_any_shape_are_normalized(self):
        for allowed in ([[" + ", "-"]], ((" +", "- "),), [("+", "-")], ["+-"]):
            assert matches(("-",), allowed)
            assert not matches(("-", "+"), allowed)

    def test_star_shape_admissible_set(self):
        for pat in (("-",), ("+",), ("-", "+")):
            assert matches(pat, ALLOWED_IFRA), pat
        for pat in (("+", "-"), ("-", "+", "-"), ("+", "-", "+")):
            assert not matches(pat, ALLOWED_IFRA), pat


class TestAdmitsTable:
    """patterns.admits reads a pattern's admissibility from its first sign
    and sign count, in one table per allowed set built from matches."""

    @pytest.mark.parametrize("allowed", [ALLOWED_IFR, ALLOWED_IFRA,
                                         [["-", "+", "-", "+"], [" + "]]],
                             ids=["ifr", "ifra", "caller-built"])
    def test_table_agrees_with_matches(self, allowed):
        firsts, counts, want = [], [], []
        for count in range(7):
            for first in ((1, -1) if count else (0,)):
                pattern = alternating(first, count)
                assert len(pattern) == count
                assert all(a != b for a, b in zip(pattern, pattern[1:]))
                firsts.append(first)
                counts.append(count)
                want.append(matches(pattern, allowed))
        got = admits(allowed, np.array(firsts), np.array(counts))
        assert got.tolist() == want
        # one cell at a time reads the same table
        assert [bool(admits(allowed, f, c)) for f, c in zip(firsts, counts)] == want


class TestBatchArrays:
    """_scan_row gives its batch as arrays; each cell's pattern, built where
    it is read, is the one scanning the cell alone gives, and satisfies
    SignPattern's invariants, which are checked once for the batch."""

    def test_patterns_are_those_of_lone_scans(self):
        rng = np.random.default_rng(4242)
        signed = 0
        for _ in range(40):
            cells = [_random_cell(rng) for _ in range(rng.integers(1, 7))]
            params, x_max, bps = _row(cells)
            cfg = _random_config(rng)
            batch = _scan_row(_random_row, params, x_max, cfg, bps)
            for i in range(len(cells)):
                got = batch.pattern(i)
                alone = _alone(_random_row, [p[i] for p in params], x_max[i], cfg, bps[i])
                assert got == alone, cells[i]
                if got is None:
                    assert batch.count[i] == 0 and batch.first[i] == 0
                    continue
                signed += 1
                # the invariants SignPattern checks, and the brackets
                # between the witnesses
                assert SignPattern(*map(tuple, (got.signs, got.witnesses,
                                                got.change_points))) == got
                assert got.signs[0] == ("+" if batch.first[i] > 0 else "-")
                assert len(got.signs) == batch.count[i]
                assert list(got.witnesses) == sorted(got.witnesses)
                for (lo, hi), w0, w1 in zip(got.change_points, got.witnesses,
                                            got.witnesses[1:]):
                    assert w0 <= lo < hi <= w1
                x, sizes = batch.witnesses(np.array([i]))
                assert tuple(x.tolist()) == got.witnesses and sizes.tolist() == [batch.count[i]]
        assert signed > 60


class TestSignPatternInvariants:
    def test_adjacent_signs_must_differ(self):
        with pytest.raises(ValueError):
            SignPattern(("+", "+"), (1.0, 2.0), ((1.5, 1.6),))

    def test_witness_counts(self):
        with pytest.raises(ValueError):
            SignPattern(("+", "-"), (1.0,), ((1.5, 1.6),))

    def test_invalid_sign_from_a_caller_is_rejected(self):
        for signs in (("+", "x"), ("+", ""), ["-", "*"], ("+-",)):
            with pytest.raises(ValueError, match="invalid sign"):
                SignPattern(signs, (1.0,) * len(signs), ((1.5, 1.6),) * (len(signs) - 1))

    def test_caller_signs_are_normalized(self):
        pat = SignPattern([" + ", "-\n"], (1.0, 3.0), ((2.0, 2.1),))
        assert pat.signs == ("+", "-") and type(pat.signs) is tuple

    def test_plain_sign_tuples_are_kept_as_built(self):
        signs = ("-", "+", "-")
        assert SignPattern(signs, (1.0, 2.0, 3.0), ((1.5, 1.6), (2.5, 2.6))).signs is signs


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
