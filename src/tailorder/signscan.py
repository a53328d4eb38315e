"""Adaptive extraction of sign patterns of real functions on (0, x_max].

Samples on a log grid (plus declared breakpoints), treats values inside the
deadband as carrying no sign evidence, and bisects every classification
boundary to the configured depth.  A function that dips to zero without
crossing produces no sign change.  Scanned functions must be vectorized
(accept and return numpy arrays).  The order sweeps scan a batch of cells
per function evaluation (_scan_row); scan is its one-cell case.  A batch
comes back as arrays (_Batch), taken from the runs of equal sign: each
cell's first sign and sign count, which fix its alternating pattern, and
offsets into flat arrays of every run's witness and ends, checked once
for the whole batch; a cell's SignPattern is built when it is read.  The
cells of a batch share one configuration and each has its own window:
the grids of the distinct windows come from one geomspace call, and cells
whose grids have equal length are evaluated as the rows of one 2-D grid.
The first classification takes each sample's |value| once, for the deadband
scale and the runs alike.  Right after it each cell keeps, of every run
of samples of equal class, only the first, the last and the first of
largest |value|: every bracket, run end and witness is one of them.  A
cell whose deadband grows gets its other samples back, and a traced scan
keeps every sample.  Each refinement evaluation takes the next few
bisection levels of every boundary bracket at once, and the walk that
reads them keeps as samples only the midpoints whose path of intervals,
from the whole bracket down, has end classes that differ at every step.
It reads all levels at once from a table of those paths (_seen); the
other points are never seen, so they reach no trace, deadband scale or
pattern.  The samples are merged once, after the last walk, by one stable
sort on (cell, x), so ties keep their evaluation order.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import IndeterminateFunction, ResidualUncertainty
from .exppoly import ExpPoly
from .patterns import DEFAULT_X_MAX, SAMPLED, ScanConfig, SignPattern, alternating, matches

__all__ = ["scan", "check_integration_lemma"]

_NO_SIGN = "every sample lies inside the deadband"


#: bisection levels of every live bracket evaluated per call of F
_LEVELS = 4
_SPAN = 1 << _LEVELS  # a bracket's ends sit at positions 0 and _SPAN
_STEPS = tuple(_SPAN >> j for j in range(_LEVELS))  # interval widths, level by level
_LEVEL = np.zeros(_SPAN + 1, dtype=int)  # each position's level, 0 at the ends
for _j, _step in enumerate(_STEPS, 1):
    _LEVEL[_step // 2::_step] = _j
del _j, _step
# which positions are midpoints, the ends of the interval each position
# halves (the whole bracket at the ends, whose classes differ), and each
# position's path: bit q of _PATH[p] is set for every midpoint q whose
# interval holds p, p included
_MID = _LEVEL > 0
_HALF = _SPAN >> _LEVEL
_LEFT = np.maximum(np.arange(_SPAN + 1) - _HALF, 0)
_RIGHT = np.minimum(np.arange(_SPAN + 1) + _HALF, _SPAN)
_BIT = 1 << np.arange(_SPAN + 1)
_PATH = np.array([sum(int(_BIT[q]) for q in range(1, _SPAN) if abs(p - q) < _HALF[q])
                  for p in range(_SPAN + 1)])


def _classify(values, eps):
    """+1, -1 or 0 (int8) for values above eps, below -eps, or neither."""
    return (values > eps).view(np.int8) - (values < -eps).view(np.int8)


def _largest_finite(mags, starts):
    """Largest finite entry of each segment mags[starts[i]:starts[i+1]] of
    the magnitudes mags.  A segment's plain maximum is finite only when the
    whole segment is, so the masked pass runs only where some entry is not."""
    top = np.maximum.reduceat(mags, starts)
    if np.isfinite(top).all():
        return top
    return np.maximum.reduceat(np.where(np.isfinite(mags), mags, 0.0), starts)


def _seen(C, want=None):
    """The positions a walk sees, as a boolean array shaped like C, which
    holds the classes of each bracket's _SPAN + 1 positions, one bracket a
    row, ends included.  The ends are seen, and a midpoint is seen iff no
    interval on its path (_PATH) has equal end classes.  want, when given,
    marks the midpoints each bracket evaluated; the rest go unseen."""
    S = (((C[:, _LEFT] == C[:, _RIGHT]) @ _BIT)[:, None] & _PATH) == 0
    if want is not None:
        S[:, 1:_SPAN] &= want
    return S


def _run_starts(*keys):
    """Index of the first element of every run of equal keys (arrays of one
    length, at least one element)."""
    new = np.zeros(keys[0].size, dtype=bool)
    new[0] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return np.nonzero(new)[0]


_PAIR = np.array([0, 1])  # a bracket's left and right sample, as offsets


def _brackets(xs, signs, cell):
    """Every pair of adjacent, differently-classified samples of one cell,
    as (abscissae, classes), each of shape (k, 2), and cells, in order."""
    at = np.flatnonzero((signs[:-1] != signs[1:]) & (cell[:-1] == cell[1:]))
    pair = at[:, None] + _PAIR
    return xs[pair], signs[pair], cell[at]


def _in_order(seen):
    """The (xs, cell, *columns) chunks of seen, given in evaluation order,
    as arrays sorted stably by (cell, x), so ties keep evaluation order.
    Each chunk is already sorted so, which the stable sort's merging of
    runs finds; complex keys compare by real part, then imaginary part."""
    if len(seen) == 1:
        return seen[0]
    cols = [np.concatenate(col) for col in zip(*seen)]
    key = np.empty(cols[0].size, dtype=complex)
    key.real, key.imag = cols[1], cols[0]
    order = np.argsort(key, kind="stable")
    return tuple(col[order] for col in cols)


def _runs(mags, signs, splits):
    """First index, last index and first index of largest magnitude of
    every run of equal class in signs, runs also beginning at the indices
    splits, given the magnitudes mags.  A run whose largest magnitude is
    NaN has no such index."""
    new = np.empty(signs.size, dtype=bool)
    new[0] = True
    np.not_equal(signs[1:], signs[:-1], out=new[1:])
    new[splits] = True
    first = np.flatnonzero(new)
    last = np.append(first[1:], signs.size) - 1
    peaks = np.flatnonzero(mags == np.repeat(np.maximum.reduceat(mags, first), last - first + 1))
    if peaks.size:
        # the first of each run's peaks
        peaks = peaks[_run_starts(np.searchsorted(first, peaks, side="right"))]
    return first, last, peaks


def _run_ends(mags, signs, starts):
    """Indices, in order, of the samples a pattern can be read from: the
    run ends and peaks (_runs) of every run of equal class, runs split
    where a cell's samples begin (starts).  Brackets lie between run ends,
    and runs inside the deadband, where NaN samples go, need no peak."""
    first, last, peaks = _runs(mags, signs, starts)
    at = np.sort(np.concatenate((first, last, peaks[signs[peaks] != 0])))
    return at[_run_starts(at)]


def scan(f, cfg: ScanConfig | None = None, breakpoints=(), *,
         lo: float | None = None, trace: list | None = None) -> SignPattern:
    """Sign pattern of f on (lo, x_max], sampled-confidence.

    trace, when given a list, receives (x, value, sign) rows for every
    sample, in (x, evaluation) order; points that refinement evaluates but
    leaves unseen are not samples.
    """
    cfg = (cfg or ScanConfig()).with_x_max(DEFAULT_X_MAX)
    result = _scan_row(f, (), np.array([cfg.x_max]), cfg, [breakpoints], lo=lo,
                       trace=trace).pattern(0)
    if result is None:
        raise IndeterminateFunction(_NO_SIGN)
    return result


def _scan_row(F, params, x_max, cfg: ScanConfig, breakpoints=None, *, fy=None,
              lo: float | None = None,
              trace: list | None = None) -> _Batch:
    """scan, run on a batch of cells at once.

    Cell i scans x -> F(x, *(p[i] for p in params)) on (lo, x_max[i]]:
    params holds one array per parameter and x_max one window per cell,
    and the cells share cfg's grid size, deadband and refinement depth
    (cfg.x_max is not read).  lo defaults to 1e-10 x_max[i].
    breakpoints, when given, holds one sequence per cell, whose points
    inside the window are sampled too.

    The grids of the distinct windows are one geomspace call.  When there
    are several cells and their grids have equal length, the initial
    evaluation calls F on the 2-D array of the cells' grids, one row per
    cell, with each parameter as a column; otherwise on the grids end to
    end, each parameter repeated over its cell's points.  Refinement walks
    call F on flat arrays, each point with its cell's parameters (see
    _refine).  F must act point by point, with numpy broadcasting.

    fy, when given, is a part of F that reads x alone, and F takes its
    values at x as one more argument, after the parameters.  The initial
    evaluation computes fy in one call, at the distinct grids and the
    breakpoints; refinement walks leave it to F.

    Unless a trace is wanted, the walks start from each cell's run ends
    and peaks alone (_run_ends).  The samples end sorted by (cell, x) with
    ties in evaluation order, so each cell gets exactly the pattern that
    scanning it alone would give, or none where scan would raise
    IndeterminateFunction.  Returns the batch as arrays (_Batch), read
    from the runs of equal sign beyond the deadband.
    """
    x_max = np.asarray(x_max, dtype=float)
    params = [np.asarray(p, dtype=float) for p in params]
    n = x_max.size
    windows, which = np.unique(x_max, return_inverse=True)
    lows = windows * 1e-10 if lo is None else np.full(windows.size, float(lo))
    if not ((0 < lows) & (lows < windows)).all():
        raise ValueError("scan lower bound must be inside (0, x_max)")
    grids = np.ascontiguousarray(np.geomspace(lows, windows, cfg.initial_grid, axis=1))
    inside = [] if breakpoints is None else [
        np.asarray([b for b in bps if lows[w] < b < windows[w]], dtype=float)
        for bps, w in zip(breakpoints, which.tolist())]
    ys = None if fy is None else np.asarray(
        fy(np.concatenate([grids.ravel(), *inside])), dtype=float)
    yg = None if ys is None else ys[:grids.size].reshape(grids.shape)
    if any(bps.size for bps in inside):
        # a cell's breakpoints join its window's grid, and their fy values
        # its grid's
        rows, yrows, at = [], [], grids.size
        for w, bps in zip(which.tolist(), inside):
            row, yrow = grids[w], None if ys is None else yg[w]
            if bps.size:
                row, pick = np.unique(np.concatenate([row, bps]), return_index=True)
                if ys is not None:
                    yrow = np.concatenate([yrow, ys[at:at + bps.size]])[pick]
                at += bps.size
            rows.append(row)
            yrows.append(yrow)
        sizes = np.array([row.size for row in rows])
        join = np.stack if n > 1 and (sizes == sizes[0]).all() else np.concatenate
        xs, y = join(rows), None if ys is None else join(yrows)
    else:
        sizes = np.full(n, grids.shape[1])
        pick = which if n > 1 else which[0]
        xs, y = grids[pick], None if ys is None else yg[pick]
    starts = np.cumsum(sizes) - sizes
    if xs.ndim == 2:
        def per_cell(col):
            return col[:, None]
    else:
        def per_cell(col):
            return np.repeat(col, sizes)
    shared = () if y is None else (y,)
    vals = np.asarray(F(xs, *map(per_cell, params), *shared), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError("scanned function must be vectorized")

    mags = np.abs(vals.ravel())
    scale = _largest_finite(mags, starts)
    signs = _classify(vals, per_cell(np.maximum(cfg.deadband * scale, cfg.deadband_abs)))
    xs, vals, signs = xs.ravel(), vals.ravel(), signs.ravel()
    kept = np.arange(xs.size) if trace is not None else _run_ends(mags, signs, starts)
    xs, vals, cell, signs = _refine(F, params, (xs, vals, signs, starts, sizes), kept,
                                    scale, cfg)

    if trace is not None:
        trace.extend((float(x), float(v), "+" if s > 0 else "-" if s < 0 else "0")
                     for x, v, s in zip(xs, vals, signs))

    # runs of equal sign among the samples beyond the deadband, split at
    # cell ends; each run's witness is its first sample of largest |value|
    det = signs != 0
    dx, dv, ds, dc = xs[det], vals[det], signs[det], cell[det]
    first, last, peaks = (_runs(np.abs(dv), ds, np.flatnonzero(dc[1:] != dc[:-1]) + 1)
                          if ds.size else (np.zeros(0, dtype=int),) * 3)
    run_cell, run_sign, witness = dc[first], ds[first], dx[peaks]
    same = run_cell[1:] == run_cell[:-1]
    if (same & (run_sign[1:] == run_sign[:-1])).any():
        raise ValueError("adjacent signs must differ")
    if (same & (witness[1:] < witness[:-1])).any():
        raise ValueError("witnesses must be increasing")
    count = np.bincount(run_cell, minlength=n)
    at = np.concatenate(([0], np.cumsum(count)))
    head = np.zeros(n, dtype=np.int8)
    signed = count > 0
    head[signed] = run_sign[at[:-1][signed]]
    return _Batch(head, count, at, witness, dx[first], dx[last])


class _Batch(NamedTuple):
    """The sign patterns of a batch of cells (_scan_row), as arrays.  Cell i
    has count[i] signs, alternating from first[i] (+1 or -1; 0 when count[i]
    is 0: every sample lies inside the deadband), and its runs are entries
    at[i] to at[i + 1] of the flat run arrays: witness holds each run's
    witness, lo and hi its first and last sample, so the cell's change
    points are (hi[j], lo[j + 1]) for consecutive runs j, j + 1.  The
    pattern invariants are checked when the batch is made."""

    first: np.ndarray
    count: np.ndarray
    at: np.ndarray
    witness: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def pattern(self, i: int) -> SignPattern | None:
        """Cell i's pattern, as scanning the cell alone gives it, or None
        where it has no sign evidence."""
        c, j = int(self.count[i]), int(self.at[i])
        if not c:
            return None
        return SignPattern(alternating(int(self.first[i]), c),
                           tuple(self.witness[j:j + c].tolist()),
                           tuple(zip(self.hi[j:j + c - 1].tolist(),
                                     self.lo[j + 1:j + c].tolist())),
                           SAMPLED)

    def witnesses(self, cells):
        """The witnesses of the cells (an int array) end to end, and how
        many each cell has."""
        count = self.count[cells]
        flat = np.repeat(self.at[cells] - np.cumsum(count) + count, count) \
            + np.arange(count.sum())
        return self.witness[flat], count


def _refine(F, params, initial, kept, scale, cfg: ScanConfig):
    """Bisect every boundary between differently-classified neighbours of
    one cell, while the cell has depth left.

    initial holds every initial sample, as xs, vals and their classes,
    sorted by (cell, x), and where each cell's samples begin and how many
    there are; the walks start from those at the indices kept.  scale
    holds each cell's largest finite |value| and is raised in place.

    Each call of F evaluates the next _LEVELS bisection levels of every
    live bracket (fewer where the depth runs out): the bracket's dyadic
    positions, its ends at 0 and _SPAN, each midpoint built by the same
    halving of its two ends that bisecting one level at a time takes, so
    every abscissa has the same bits.  While every cell has _LEVELS levels
    of depth left, F gets all 2**_LEVELS - 1 midpoints of every bracket and
    no per-bracket level mask is built.  The walk that reads the values
    sees a midpoint iff every interval on its path, from the whole bracket
    down to the one it halves, has end classes that differ (_seen): one
    table lookup for all levels at once, which gives the samples that going
    down level by level would.  Only seen midpoints become samples; the
    others reach neither the samples nor scale.  A midpoint that changes
    its cell's eps stops the cell's walk at its level; the cell's deeper
    points go unseen, the cell gets back every initial sample not kept,
    and its brackets are rebuilt from all its samples under the new eps.
    The other cells' new brackets are their adjacent seen points whose
    classes differ, and none are built after the walk that uses up every
    cell's depth.  All samples are merged once, at the end, by one stable
    sort on (cell, x) (_in_order), so ties keep evaluation order (walk by
    walk, and within a walk by bracket and position), and their classes
    travel with them: only the cells whose eps changed are classified
    again.  Returns xs, vals, cell and their classes under the final eps,
    in that merged order.
    """
    xs, vals, signs, starts, sizes = initial
    deadband, deadband_abs, depth = cfg.deadband, cfg.deadband_abs, cfg.max_refinement_depth

    def samples(at):
        return xs[at], np.searchsorted(starts, at, side="right") - 1, vals[at], signs[at]

    eps = np.maximum(deadband * scale, deadband_abs)
    seen = [samples(kept)]  # every sample so far, in evaluation order
    ends, classes, bcell = _brackets(seen[0][0], seen[0][3], seen[0][1])
    done = np.zeros(scale.size, dtype=int)  # levels walked per cell
    regrown = np.zeros(scale.size, dtype=bool)  # cells whose eps changed
    while bcell.size:
        reach = np.minimum(depth - done, _LEVELS)  # levels of this walk
        want = None  # which midpoints each bracket evaluates, None for all
        if done.max() + _LEVELS > depth:
            levels = reach[bcell]
            if not levels.all():
                live = levels > 0
                ends, classes, bcell, levels = (a[live] for a in (ends, classes, bcell, levels))
                if bcell.size == 0:
                    break
            want = _LEVEL[1:_SPAN] <= levels[:, None]
        k = bcell.size
        # a bracket's ends at positions 0 and _SPAN, the midpoints of level
        # j at the odd multiples of _SPAN >> j; halving each end first
        # cannot overflow, and for normal floats gives the same bits as
        # halving their sum.  Built a position to a row, so each pass is
        # contiguous, then read a bracket to a row.
        P = np.empty((_SPAN + 1, k))
        P[::_SPAN] = ends.T
        for step in _STEPS:
            half = 0.5 * P[::step]
            P[step // 2::step] = half[:-1] + half[1:]
        P = P.T.copy()
        V = np.zeros((k, _SPAN + 1))
        if want is None:
            owner = np.repeat(bcell, _SPAN - 1)
            V[:, 1:_SPAN] = np.reshape(F(P[:, 1:_SPAN].ravel(), *(p[owner] for p in params)),
                                       (k, _SPAN - 1))
        else:
            owner = np.repeat(bcell, (1 << levels) - 1)
            V[:, 1:_SPAN][want] = F(P[:, 1:_SPAN][want], *(p[owner] for p in params))
        C = _classify(V, eps[bcell][:, None])
        C[:, ::_SPAN] = classes
        at = np.flatnonzero(_seen(C, want))  # by bracket and position, ends included
        row, pos = np.divmod(at, _SPAN + 1)
        inner = _MID[pos]
        Pf, Vf, Cf = P.ravel(), V.ravel(), C.ravel()
        mat, mcell = at[inner], bcell[row[inner]]
        mx, mv = Pf[mat], Vf[mat]

        # up to a cell's first stopping level this walk is the one that
        # bisecting level by level takes, and there a midpoint changes its
        # cell's eps iff deadband x |value| exceeds it
        stopped = mcell[:0]
        mags = np.abs(mv)
        if (mags > scale[mcell]).any():
            lev = _LEVEL[pos[inner]]
            grows = np.isfinite(mv) & (deadband * mags > eps[mcell])
            runs = _run_starts(mcell)
            cells = mcell[runs]
            first = np.minimum.reduceat(np.where(grows, lev, _LEVELS + 1), runs)
            stops = first <= _LEVELS
            stopped = cells[stops]
            reach[stopped] = first[stops]
            keep = lev <= reach[mcell]
            mat, mcell, mx, mv, mags = (a[keep] for a in (mat, mcell, mx, mv, mags))
            scale[cells] = np.maximum(scale[cells], _largest_finite(mags, _run_starts(mcell)))
            eps = np.maximum(deadband * scale, deadband_abs)
            # the stopped cells are the ones whose eps grew, and their
            # initial samples may have other classes under it
            back = stopped[~regrown[stopped]]
            if back.size:
                regrown[back] = True
                kept = np.union1d(kept, np.concatenate(
                    [np.arange(starts[c], starts[c] + sizes[c]) for c in back.tolist()]))
                seen[0] = samples(kept)
        done += reach
        seen.append((mx, mcell, mv, Cf[mat]))
        if done.min() >= depth:
            break  # no cell has depth left: the new brackets would go unused

        if stopped.size:
            mine = ~np.isin(bcell[row], stopped)
            at, row = at[mine], row[mine]
        ends, classes, pair = _brackets(Pf[at], Cf[at], row)
        bcell = bcell[pair]
        if stopped.size:
            x, c, v = _in_order([s[:3] for s in seen])
            mine = np.isin(c, stopped)
            x, c, v = x[mine], c[mine], v[mine]
            again = _brackets(x, _classify(v, eps[c]), c)
            ends, classes, bcell = (np.concatenate((old, new))
                                    for old, new in zip((ends, classes, bcell), again))
            order = np.argsort(bcell, kind="stable")
            ends, classes, bcell = ends[order], classes[order], bcell[order]

    xs, cell, vals, signs = _in_order(seen)
    if regrown.any():
        again = regrown[cell]
        signs[again] = _classify(vals[again], eps[cell[again]])
    return xs, vals, cell, signs


def exppoly_window(f: ExpPoly) -> float:
    """Scan window x_max of an exponential polynomial: 20 of its slowest
    decay lengths, and at least 50."""
    return max(50.0, 20.0 / f.rates[0])


def check_integration_lemma(f: ExpPoly) -> bool:
    """Check that the sign pattern of g(x) = integral of f from x to infinity
    is a final part of the pattern of f.

    Used as a property-test oracle for the order criteria, not in the
    order-checking path itself.  Patterns come from certified root isolation
    with a sampled fallback when isolation reports residual uncertainty.
    """
    g = f.integrate_upper()
    try:
        pf = f.sign_pattern_exact(0.0)
        pg = g.sign_pattern_exact(0.0)
        if pf.uncertain or pg.uncertain:
            raise ResidualUncertainty
    except ResidualUncertainty:
        cfg = ScanConfig(x_max=exppoly_window(f))
        pf = scan(f.eval, cfg)
        pg = scan(g.eval, cfg)
    return matches(pg, [pf.signs])
