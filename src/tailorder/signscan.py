"""Adaptive extraction of sign patterns of real functions on (0, x_max].

Samples on a log grid (plus declared breakpoints), treats values inside the
deadband as carrying no sign evidence, and bisects every classification
boundary to the configured depth.  A function that dips to zero without
crossing produces no sign change.  Scanned functions must be vectorized
(accept and return numpy arrays).  The order sweeps scan a whole row of
cells per function evaluation (_scan_row); scan is its one-cell case.
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


def _scan_row(F, cells, *, lo: float | None = None,
              trace: list | None = None) -> list[SignPattern | IndeterminateFunction]:
    """scan, run on many cells at once.

    cells holds one (params, cfg, breakpoints) triple per cell; the cell's
    function is x -> F(x, *params).  F is called on one flat array of
    abscissae with one array per parameter, holding each point's cell
    parameters, so each refinement round is one call for every cell still
    refining.  Each cell keeps its own grid, deadband and refinement depth,
    and the flat arrays stay sorted by (cell, x) with ties in evaluation
    order, so each cell gets exactly the pattern, or the
    IndeterminateFunction, that scanning it alone would give.
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
    cell = np.repeat(np.arange(n), [len(xs) for xs in grids])
    xs = np.concatenate(grids)
    vals = np.asarray(F(xs, *(p[cell] for p in params)), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError("scanned function must be vectorized")

    scale = _largest_finite(vals, np.searchsorted(cell, np.arange(n)))
    eps = np.maximum(deadband * scale, deadband_abs)
    signs = _classify(vals, eps[cell])

    # bisect every boundary between differently-classified neighbours of
    # one cell, while the cell has depth left
    for depth_done in range(int(depth.max(initial=0))):
        flip = (signs[:-1] != signs[1:]) & (cell[:-1] == cell[1:])
        if depth_done >= depth.min():
            flip &= depth[cell[:-1]] > depth_done
        boundary = np.nonzero(flip)[0]
        if boundary.size == 0:
            break
        mids = 0.5 * (xs[boundary] + xs[boundary + 1])
        mcell = cell[boundary]
        mvals = np.asarray(F(mids, *(p[mcell] for p in params)), dtype=float)
        first = _run_starts(mcell)
        touched = mcell[first]
        scale[touched] = np.maximum(scale[touched], _largest_finite(mvals, first))
        eps = np.maximum(deadband * scale, deadband_abs)
        slots = _stable_slots(xs, cell, boundary + 1, mids, mcell)
        xs, vals, cell = _merged(((xs, mids), (vals, mvals), (cell, mcell)), slots)
        signs = _classify(vals, eps[cell])

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
