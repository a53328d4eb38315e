"""Adaptive extraction of sign patterns of real functions on (0, x_max].

Samples on a log grid (plus declared breakpoints), treats values inside the
deadband as carrying no sign evidence, and bisects every classification
boundary to the configured depth.  A function that dips to zero without
crossing produces no sign change.  Scanned functions must be vectorized
(accept and return numpy arrays).  The order sweeps scan a batch of cells
per function evaluation (_scan_row); scan is its one-cell case.  Each
refinement evaluation takes the next few bisection levels of every
boundary bracket at once, and a walk down those levels keeps as samples
only the midpoints of intervals whose end classes differ; the other
points are never seen, so they reach no trace, deadband scale or pattern.
The samples are merged once, after the last walk, by a stable sort on
(cell, x), so ties keep their evaluation order.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import IndeterminateFunction, ResidualUncertainty
from .exppoly import ExpPoly
from .patterns import DEFAULT_X_MAX, SAMPLED, ScanConfig, SignPattern, matches

__all__ = ["scan", "check_integration_lemma"]

_NO_SIGN = "every sample lies inside the deadband"


#: bisection levels of every live bracket evaluated per call of F
_LEVELS = 4
_SPAN = 1 << _LEVELS  # a bracket's ends sit at positions 0 and _SPAN
_STEPS = tuple(_SPAN >> j for j in range(_LEVELS))  # interval widths, level by level
_LEVEL = np.zeros(_SPAN + 1, dtype=int)  # each position's level, 0 at the ends
_HALF = np.zeros(_SPAN + 1, dtype=int)  # a midpoint's distance to its interval's ends
for _j, _step in enumerate(_STEPS, 1):
    _LEVEL[_step // 2::_step], _HALF[_step // 2::_step] = _j, _step // 2
del _j, _step


def _classify(values, eps):
    """+1, -1 or 0 (int8) for values above eps, below -eps, or neither."""
    return (values > eps).view(np.int8) - (values < -eps).view(np.int8)


def _largest_finite(values, starts):
    """Largest finite |value| of each segment values[starts[i]:starts[i+1]]."""
    mags = np.abs(values)
    mags[~np.isfinite(mags)] = 0.0
    return np.maximum.reduceat(mags, starts)


def _run_starts(*keys):
    """Index of the first element of every run of equal keys (arrays of one
    length, at least one element)."""
    new = np.zeros(keys[0].size, dtype=bool)
    new[0] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return np.nonzero(new)[0]


def _brackets(xs, signs, cell):
    """Every pair of adjacent, differently-classified samples of one cell,
    as (abscissae, classes), each of shape (k, 2), and cells, in order."""
    at = np.nonzero((signs[:-1] != signs[1:]) & (cell[:-1] == cell[1:]))[0]
    pair = np.stack((at, at + 1), axis=1)
    return xs[pair], signs[pair], cell[at]


def _in_order(seen):
    """The (xs, cell, *columns) chunks of seen, given in evaluation order
    with the first sorted by (cell, x), as arrays sorted stably by
    (cell, x): the later samples, sorted so, each go after every earlier
    sample of their cell and abscissa.  Complex keys compare by real part,
    then imaginary part."""
    first = seen[0]
    if len(seen) == 1:
        return first
    later = [np.concatenate(col) for col in zip(*seen[1:])]
    key = later[1] + 1j * later[0]
    order = np.argsort(key, kind="stable")
    old_key = np.empty(first[0].size, dtype=complex)
    old_key.real, old_key.imag = first[1], first[0]
    # the merged index of each later sample, and the slots left to the rest
    at = np.searchsorted(old_key, key[order], side="right") + np.arange(order.size)
    rest = np.ones(old_key.size + at.size, dtype=bool)
    rest[at] = False
    merged = []
    for old, new in zip(first, later):
        both = np.empty(rest.size, old.dtype)
        both[at] = new[order]
        both[rest] = old
        merged.append(both)
    return tuple(merged)


@lru_cache(maxsize=256)
def _log_grid(lo: float, hi: float, n: int):
    """The initial grid of a cell, shared (read-only) by equal windows."""
    grid = np.geomspace(lo, hi, n)
    grid.flags.writeable = False
    return grid


def scan(f, cfg: ScanConfig | None = None, breakpoints=(), *,
         lo: float | None = None, trace: list | None = None) -> SignPattern:
    """Sign pattern of f on (lo, x_max], sampled-confidence.

    trace, when given a list, receives (x, value, sign) rows for every
    sample, in (x, evaluation) order; points that refinement evaluates but
    leaves unseen are not samples.
    """
    (result,) = _scan_row(f, [((), cfg, breakpoints)], lo=lo, trace=trace)
    if isinstance(result, IndeterminateFunction):
        raise result
    return result


def _scan_row(F, cells, *, fy=None, lo: float | None = None,
              trace: list | None = None) -> list[SignPattern | IndeterminateFunction]:
    """scan, run on many cells at once.

    cells holds one (params, cfg, breakpoints) triple per cell; the cell's
    function is x -> F(x, *params).  F is called on one flat array of
    abscissae with one array per parameter, holding each point's cell
    parameters, so each refinement walk is one call for the next levels of
    every cell still refining (see _refine).  Each cell keeps its own grid,
    deadband and refinement depth, and the samples end sorted by (cell, x)
    with ties in evaluation order, so each cell gets exactly the pattern,
    or the IndeterminateFunction, that scanning it alone would give.

    fy, when given, is a part of F that reads x alone, and F takes its
    values at x as one more argument, after the parameters.  The initial
    evaluation computes fy once per distinct grid of the row: cells with
    equal windows and no breakpoints inside share one (see _log_grid).
    Refinement walks leave fy to F.
    """
    cfgs, grids = [], []
    for _, cfg, breakpoints in cells:
        cfg = (cfg or ScanConfig()).with_x_max(DEFAULT_X_MAX)
        cell_lo = cfg.x_max * 1e-10 if lo is None else float(lo)
        if not 0 < cell_lo < cfg.x_max:
            raise ValueError("scan lower bound must be inside (0, x_max)")
        xs = _log_grid(cell_lo, cfg.x_max, cfg.initial_grid)
        bps = np.asarray([b for b in breakpoints if cell_lo < b < cfg.x_max], dtype=float)
        if bps.size:
            xs = np.unique(np.concatenate([xs, bps]))
        cfgs.append(cfg)
        grids.append(xs)

    n = len(cells)
    params = [np.asarray(col, dtype=float) for col in zip(*(p for p, _, _ in cells))]
    deadband = np.asarray([cfg.deadband for cfg in cfgs])
    deadband_abs = np.asarray([cfg.deadband_abs for cfg in cfgs])
    depth = np.asarray([cfg.max_refinement_depth for cfg in cfgs])
    sizes = [len(xs) for xs in grids]
    cell = np.repeat(np.arange(n), sizes)
    xs = np.concatenate(grids)
    shared = () if fy is None else (_per_grid(fy, grids),)
    vals = np.asarray(F(xs, *(np.repeat(p, sizes) for p in params), *shared), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError("scanned function must be vectorized")

    scale = _largest_finite(vals, np.searchsorted(cell, np.arange(n)))
    xs, vals, cell, signs = _refine(F, params, xs, vals, cell, scale,
                                    deadband, deadband_abs, depth)

    if trace is not None:
        trace.extend((float(x), float(v), "+" if s > 0 else "-" if s < 0 else "0")
                     for x, v, s in zip(xs, vals, signs))

    # runs of equal sign among the samples beyond the deadband, split at
    # cell ends; each run's witness is its first sample of largest |value|
    det = signs != 0
    dx, dv, ds, dc = xs[det], vals[det], signs[det], cell[det]
    if not ds.size:
        return [IndeterminateFunction(_NO_SIGN) for _ in range(n)]
    starts = _run_starts(ds, dc)
    ends = np.append(starts[1:], ds.size)
    mags = np.abs(dv)
    run_of = np.repeat(np.arange(starts.size), ends - starts)
    peaks = np.nonzero(mags == np.maximum.reduceat(mags, starts)[run_of])[0]
    peaks = peaks[_run_starts(run_of[peaks])]

    out_signs: list[list[str]] = [[] for _ in range(n)]
    witnesses: list[list[float]] = [[] for _ in range(n)]
    changes: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    prev, last = -1, 0.0
    for c, sg, w, x0, x1 in zip(dc[starts].tolist(), ds[starts].tolist(), dx[peaks].tolist(),
                                dx[starts].tolist(), dx[ends - 1].tolist()):
        if c == prev:
            changes[c].append((last, x0))
        out_signs[c].append("+" if sg > 0 else "-")
        witnesses[c].append(w)
        prev, last = c, x1

    return [SignPattern(tuple(sg), tuple(w), tuple(ch), SAMPLED) if sg
            else IndeterminateFunction(_NO_SIGN)
            for sg, w, ch in zip(out_signs, witnesses, changes)]


def _per_grid(fy, grids):
    """fy at the concatenated grids, evaluated once per distinct grid
    object: fy reads each x alone, so every value is the one it gives at
    all the points at once."""
    done = {}
    for xs in grids:
        if id(xs) not in done:
            done[id(xs)] = np.asarray(fy(xs), dtype=float)
    return np.concatenate([done[id(xs)] for xs in grids])


def _refine(F, params, xs, vals, cell, scale, deadband, deadband_abs, depth):
    """Bisect every boundary between differently-classified neighbours of
    one cell, while the cell has depth left.

    xs, vals and cell are the initial samples, sorted by (cell, x); scale
    holds each cell's largest finite |value| and is raised in place.  Each
    call of F evaluates the next _LEVELS bisection levels of every live
    bracket (fewer where its cell's depth runs out): its 2**_LEVELS - 1
    dyadic midpoints, each built by the same halving of its two ends that
    bisecting one level at a time takes, so every abscissa has the same
    bits.  A walk then goes down the levels on those values: a level's
    live intervals are the ones whose end classes differ, and only their
    midpoints become samples.  The other points are dropped unseen: they
    reach neither the samples nor scale.  A midpoint that changes its
    cell's eps, or equals its interval's right end (the stable sort puts
    it after that end), stops the cell's walk at its level; the cell's
    deeper points go unseen, and its brackets are rebuilt from all its
    samples under the new eps.  The other cells' new brackets are their
    adjacent seen points whose classes differ.  All samples are merged
    once, at the end, by a stable sort on (cell, x), so ties keep
    evaluation order (walk by walk, and within a walk by bracket and
    position), and their classes travel with them: only the cells whose
    eps changed are classified again.  Returns xs, vals, cell and their
    classes under the final eps, in that merged order.
    """
    eps = np.maximum(deadband * scale, deadband_abs)
    signs = _classify(vals, eps[cell])
    seen = [(xs, cell, vals, signs)]  # every sample so far, in evaluation order
    ends, classes, bcell = _brackets(xs, signs, cell)
    done = np.zeros(depth.size, dtype=int)  # levels walked per cell
    regrown = np.zeros(depth.size, dtype=bool)  # cells whose eps changed
    while True:
        reach = np.minimum(depth - done, _LEVELS)  # levels of this walk
        levels = reach[bcell]
        if not levels.all():
            ends, classes, bcell, levels = (a[levels > 0] for a in (ends, classes, bcell, levels))
        if bcell.size == 0:
            break
        k = bcell.size
        # a bracket's ends at positions 0 and _SPAN, the midpoints of level
        # j at the odd multiples of _SPAN >> j; halving each end first
        # cannot overflow, and for normal floats gives the same bits as
        # halving their sum
        P = np.empty((k, _SPAN + 1))
        P[:, ::_SPAN] = ends
        for step in _STEPS:
            half = 0.5 * P[:, ::step]
            P[:, step // 2::step] = half[:, :-1] + half[:, 1:]
        want = _LEVEL[1:_SPAN] <= levels[:, None]
        V = np.zeros((k, _SPAN + 1))
        owner = np.repeat(bcell, (1 << levels) - 1)
        V[:, 1:_SPAN][want] = F(P[:, 1:_SPAN][want], *(p[owner] for p in params))
        C = _classify(V, eps[bcell][:, None])
        C[:, ::_SPAN] = classes
        # a point is seen when the interval it halves has both ends seen
        # and their classes differ
        S = np.ones((k, _SPAN + 1), dtype=bool)
        for step in _STEPS:
            left, right = slice(None, -1, step), slice(step, None, step)
            S[:, step // 2::step] = S[:, left] & S[:, right] & (C[:, left] != C[:, right])
        S[:, 1:_SPAN] &= want
        at = np.flatnonzero(S)  # by bracket and position, ends included
        row, pos = np.divmod(at, _SPAN + 1)
        inner = _LEVEL[pos] > 0
        Pf, Vf, Cf = P.ravel(), V.ravel(), C.ravel()
        mat, lev, mcell = at[inner], _LEVEL[pos[inner]], bcell[row[inner]]
        mx, mv = Pf[mat], Vf[mat]

        # up to a cell's first stopping level this walk is the one that
        # bisecting level by level takes, and there a midpoint changes its
        # cell's eps iff deadband x |value| exceeds it
        tie = mx == Pf[mat + _HALF[pos[inner]]]
        stopped = mcell[:0]
        if tie.any() or (np.abs(mv) > scale[mcell]).any():
            grows = np.isfinite(mv) & (deadband[mcell] * np.abs(mv) > eps[mcell])
            runs = _run_starts(mcell)
            cells = mcell[runs]
            first = np.minimum.reduceat(np.where(grows | tie, lev, _LEVELS + 1), runs)
            stops = first <= _LEVELS
            stopped = cells[stops]
            reach[stopped] = first[stops]
            keep = lev <= reach[mcell]
            mat, mcell, mx, mv = (a[keep] for a in (mat, mcell, mx, mv))
            scale[cells] = np.maximum(scale[cells], _largest_finite(mv, _run_starts(mcell)))
            was = eps[cells]
            eps = np.maximum(deadband * scale, deadband_abs)
            regrown[cells[eps[cells] != was]] = True
        done += reach
        seen.append((mx, mcell, mv, Cf[mat]))

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


def check_integration_lemma(f: ExpPoly, cfg: ScanConfig | None = None) -> bool:
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
        cfg = cfg or ScanConfig(x_max=max(50.0, 20.0 / f.rates[0]))
        pf = scan(f.eval, cfg)
        pg = scan(g.eval, cfg)
    return matches(pg, [pf.signs])
