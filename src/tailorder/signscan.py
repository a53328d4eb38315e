"""Adaptive extraction of sign patterns of real functions on (0, x_max].

Samples on a log grid (plus declared breakpoints), treats values inside the
deadband as carrying no sign evidence, and bisects every classification
boundary to the configured depth.  A function that dips to zero without
crossing produces no sign change.  Scanned functions must be vectorized
(accept and return numpy arrays).  The order sweeps scan a batch of cells
per function evaluation (_scan_row); scan is its one-cell case.  A
refinement round evaluates and classifies the midpoints of the boundary
brackets only; the samples are merged once, after the last round, by a
stable sort on (cell, x), so ties keep their evaluation order.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import IndeterminateFunction, ResidualUncertainty
from .exppoly import ExpPoly
from .patterns import DEFAULT_X_MAX, SAMPLED, ScanConfig, SignPattern, matches

__all__ = ["scan", "check_integration_lemma"]

_NO_SIGN = "every sample lies inside the deadband"


def _classify(values, eps):
    signs = np.zeros(values.shape, dtype=int)
    signs[values > eps] = 1
    signs[values < -eps] = -1
    return signs


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


def _split(ends, mid):
    """Each row [l, r] of ends as its two children [l, mid], [mid, r]."""
    out = np.empty((mid.size, 4), ends.dtype)
    out[:, 0] = ends[:, 0]
    out[:, 1] = out[:, 2] = mid
    out[:, 3] = ends[:, 1]
    return out.reshape(-1, 2)


def _in_order(seen):
    """The (xs, vals, cell) chunks of seen, given in evaluation order with
    the first sorted by (cell, x), as three arrays sorted stably by
    (cell, x): the later samples, sorted so, each go after every earlier
    sample of their cell and abscissa.  Complex keys compare by real part,
    then imaginary part."""
    xs, vals, cell = seen[0]
    if len(seen) == 1:
        return xs, vals, cell
    mx, mv, mc = (np.concatenate(col) for col in zip(*seen[1:]))
    key = mc + 1j * mx
    order = np.argsort(key, kind="stable")
    at = np.searchsorted(cell + 1j * xs, key[order], side="right")
    return tuple(np.insert(old, at, new[order])
                 for old, new in ((xs, mx), (vals, mv), (cell, mc)))


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
    evaluated sample.
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
    parameters, so each refinement round is one call for the midpoints of
    every cell still refining (see _refine).  Each cell keeps its own grid,
    deadband and refinement depth, and the samples end sorted by (cell, x)
    with ties in evaluation order, so each cell gets exactly the pattern,
    or the IndeterminateFunction, that scanning it alone would give.

    fy, when given, is a part of F that reads x alone, and F takes its
    values at x as one more argument, after the parameters.  The initial
    evaluation computes fy once per distinct grid of the row: cells with
    equal windows and no breakpoints inside share one (see _log_grid).
    Refinement rounds leave fy to F.
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
    round evaluates the midpoints of the live brackets only; all samples
    are merged once, at the end, by a stable sort on (cell, x), so ties
    keep evaluation order.  A bracket's children stand for the new
    neighbours unless a midpoint changed its cell's eps, which reclassifies
    every sample of the cell, or equals its bracket's right end, in which
    case the sort puts it after that end; such a cell's brackets are
    rebuilt from all its samples.  Returns xs, vals, cell and their classes
    under the final eps, in that merged order.
    """
    eps = np.maximum(deadband * scale, deadband_abs)
    signs = _classify(vals, eps[cell])
    seen = [(xs, vals, cell)]  # every sample so far, in evaluation order
    ends, classes, bcell = _brackets(xs, signs, cell)
    shallowest = depth.min(initial=0)
    for depth_done in range(int(depth.max(initial=0))):
        if depth_done >= shallowest:
            live = depth[bcell] > depth_done
            ends, classes, bcell = ends[live], classes[live], bcell[live]
        if bcell.size == 0:
            break
        # halving each end first cannot overflow, and for normal floats
        # gives the same bits as halving their sum
        mids = 0.5 * ends[:, 0] + 0.5 * ends[:, 1]
        mvals = np.asarray(F(mids, *(p[bcell] for p in params)), dtype=float)
        seen.append((mids, mvals, bcell))
        grew = bcell[:0]  # cells whose eps the midpoints changed
        if (np.abs(mvals) > scale[bcell]).any():
            first = _run_starts(bcell)
            touched = bcell[first]
            scale[touched] = np.maximum(scale[touched], _largest_finite(mvals, first))
            was = eps[touched]
            eps = np.maximum(deadband * scale, deadband_abs)
            grew = touched[eps[touched] != was]
        tie = mids == ends[:, 1]

        ends = _split(ends, mids)
        classes = _split(classes, _classify(mvals, eps[bcell]))
        bcell = np.repeat(bcell, 2)
        keep = classes[:, 0] != classes[:, 1]
        if grew.size or tie.any():
            redo = np.union1d(grew, bcell[1::2][tie])
            keep &= ~np.isin(bcell, redo)
            x, v, c = _in_order(seen)
            mine = np.isin(c, redo)
            x, v, c = x[mine], v[mine], c[mine]
            again = _brackets(x, _classify(v, eps[c]), c)
            ends, classes, bcell = (np.concatenate((old[keep], new))
                                    for old, new in zip((ends, classes, bcell), again))
            order = np.argsort(bcell, kind="stable")
            ends, classes, bcell = ends[order], classes[order], bcell[order]
        else:
            ends, classes, bcell = ends[keep], classes[keep], bcell[keep]

    xs, vals, cell = _in_order(seen)
    return xs, vals, cell, _classify(vals, eps[cell])


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
