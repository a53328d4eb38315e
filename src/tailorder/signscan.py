"""Adaptive extraction of sign patterns of real functions on (0, x_max].

Samples on a log grid (plus declared breakpoints), treats values inside the
deadband as carrying no sign evidence, and bisects every classification
boundary to the configured depth.  A function that dips to zero without
crossing produces no sign change.  Scanned functions must be vectorized
(accept and return numpy arrays).
"""
from __future__ import annotations

import numpy as np

from .errors import IndeterminateFunction, ResidualUncertainty
from .exppoly import ExpPoly
from .patterns import DEFAULT_X_MAX, SAMPLED, ScanConfig, SignPattern, matches

__all__ = ["scan", "check_integration_lemma"]


def _classify(values, eps):
    signs = np.zeros(values.shape, dtype=int)
    signs[values > eps] = 1
    signs[values < -eps] = -1
    return signs


def scan(f, cfg: ScanConfig | None = None, breakpoints=(), *,
         lo: float | None = None, trace: list | None = None) -> SignPattern:
    """Sign pattern of f on (lo, x_max], sampled-confidence.

    trace, when given a list, receives (x, value, sign) rows for every
    evaluated sample.
    """
    cfg = (cfg or ScanConfig()).with_x_max(DEFAULT_X_MAX)
    lo = cfg.x_max * 1e-10 if lo is None else float(lo)
    if not 0 < lo < cfg.x_max:
        raise ValueError("scan lower bound must be inside (0, x_max)")

    xs = np.geomspace(lo, cfg.x_max, cfg.initial_grid)
    bps = np.asarray([b for b in breakpoints if lo < b < cfg.x_max], dtype=float)
    if bps.size:
        xs = np.unique(np.concatenate([xs, bps]))
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError("scanned function must be vectorized")

    scale = float(np.max(np.abs(vals[np.isfinite(vals)]), initial=0.0))
    eps = max(cfg.deadband * scale, cfg.deadband_abs)
    signs = _classify(vals, eps)

    # bisect every boundary between differently-classified neighbours
    for _ in range(cfg.max_refinement_depth):
        boundary = np.nonzero(signs[:-1] != signs[1:])[0]
        if boundary.size == 0:
            break
        mids = 0.5 * (xs[boundary] + xs[boundary + 1])
        mvals = np.asarray(f(mids), dtype=float)
        scale = max(scale, float(np.max(np.abs(mvals[np.isfinite(mvals)]), initial=0.0)))
        eps = max(cfg.deadband * scale, cfg.deadband_abs)
        xs = np.concatenate([xs, mids])
        vals = np.concatenate([vals, mvals])
        order = np.argsort(xs, kind="stable")
        xs, vals = xs[order], vals[order]
        signs = _classify(vals, eps)

    if trace is not None:
        trace.extend((float(x), float(v), "+" if s > 0 else "-" if s < 0 else "0")
                     for x, v, s in zip(xs, vals, signs))

    det = signs != 0
    if not np.any(det):
        raise IndeterminateFunction("every sample lies inside the deadband")

    dx, dv, ds = xs[det], vals[det], signs[det]
    runs: list[tuple[int, int]] = []  # [start, end) index ranges into det arrays
    start = 0
    for i in range(1, len(ds)):
        if ds[i] != ds[i - 1]:
            runs.append((start, i))
            start = i
    runs.append((start, len(ds)))

    out_signs: list[str] = []
    witnesses: list[float] = []
    changes: list[tuple[float, float]] = []
    for j, (a, b) in enumerate(runs):
        seg_vals = dv[a:b]
        k = a + int(np.argmax(np.abs(seg_vals)))
        out_signs.append("+" if ds[a] > 0 else "-")
        witnesses.append(float(dx[k]))
        if j + 1 < len(runs):
            nxt = runs[j + 1][0]
            changes.append((float(dx[b - 1]), float(dx[nxt])))

    return SignPattern(tuple(out_signs), tuple(witnesses), tuple(changes), SAMPLED)


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
