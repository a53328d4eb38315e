"""Pairwise stochastic-order checks via sign-variation criteria.

Every check scans a suitable comparison function over a grid of affine
parameters (a, b) and matches its sign pattern against the admissible set:

* convex-transform (s-IFR) order: V(x) = tail_{Y,s}(x) - tail_{X,s}(a x + b)
  may change sign at most twice, in the order "+,-,+" when twice;
* star-shape (s-IFRA) order: same with b = 0 and at most one change, in the
  order "-,+";
* density/tail criteria (sufficient only): the same pattern rule applied to
  H_s(x) = f_Y(x)/E Y^{s-1} - a^s f_X(ax+b)/E X^{s-1} or its survival
  variant.

A grid scan cannot prove a universally quantified statement: Supported
means no violation was found at the configured resolution (the grid is part
of the verdict so runs are reproducible), Refuted carries a re-checkable
witness, and Inconclusive reports unresolved evidence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable

import numpy as np

from .distributions import Distribution, Exponential
from .errors import IndeterminateFunction
from .exppoly import RATE_MERGE_REL
from .iteration import IteratedTail, iterate
from .patterns import ALLOWED_IFR, ALLOWED_IFRA, EXACT, ScanConfig, SignPattern, matches
# the sweeps scan through _scan_row; ordering.scan stays bound because the
# benchmark's tracer (perfbench/tracing.py) wraps and checks that binding
from .signscan import _scan_row, scan  # noqa: F401
from . import ageing

__all__ = [
    "Verdict",
    "RefutationWitness",
    "GridSpec",
    "compare_ifr",
    "compare_ifra",
    "criterion_h",
    "newcrit",
    "compare_dmrl",
    "convexity_check",
    "exponential_reference",
    "ExponentialReference",
]

SUPPORTED = "supported"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

#: Absolute deadband floor for quadrature-backed evaluations, above the
#: 1e-10 quadrature error target so integration noise cannot fabricate signs.
_QUAD_DEADBAND = 1e-9


@dataclass(frozen=True)
class RefutationWitness:
    """Re-checkable evidence for a refutation: re-evaluating the scanned
    function at the abscissae reproduces the disallowed pattern beyond the
    deadband.  a and b are None for a monotonicity check, which has no
    affine cell."""

    a: float | None
    b: float | None
    pattern: tuple[str, ...]
    abscissae: tuple[float, ...]
    values: tuple[float, ...]
    deadband: float

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "pattern": ",".join(self.pattern),
            "abscissae": list(self.abscissae),
            "values": list(self.values),
            "deadband": self.deadband,
        }


@dataclass(frozen=True)
class Verdict:
    """Tri-state outcome of a numerical order check."""

    outcome: str
    criterion: str
    s: int | None = None
    cells_scanned: int = 0
    worst_margin: float | None = None
    witness: RefutationWitness | None = None
    reason: str | None = None
    grid: dict | None = None

    @property
    def supported(self) -> bool:
        return self.outcome == SUPPORTED

    @property
    def refuted(self) -> bool:
        return self.outcome == REFUTED

    def to_dict(self) -> dict:
        doc = {
            "criterion": self.criterion,
            "s": self.s,
            "outcome": self.outcome,
            "cells_scanned": self.cells_scanned,
        }
        if self.worst_margin is not None:
            doc["worst_margin"] = self.worst_margin
        if self.witness is not None:
            doc["witness"] = self.witness.to_dict()
        if self.reason is not None:
            doc["reason"] = self.reason
        if self.grid is not None:
            doc["grid"] = self.grid
        return doc


@dataclass(frozen=True)
class GridSpec:
    """Affine-parameter grid: strictly positive slopes a, intercepts b, and
    the per-cell scan configuration (x_max resolved per cell when absent)."""

    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    scan: ScanConfig | None = None

    def __post_init__(self):
        if not self.a_values or any(a <= 0 for a in self.a_values):
            raise ValueError("slopes a must be strictly positive")
        if not self.b_values:
            raise ValueError("at least one intercept b is required")
        # sorted and deduplicated so cell order is truly lexicographic and
        # the first-refutation rule is stable
        object.__setattr__(self, "a_values",
                           tuple(sorted({float(a) for a in self.a_values})))
        object.__setattr__(self, "b_values",
                           tuple(sorted({float(b) for b in self.b_values})))

    @classmethod
    def default(cls, X: Distribution, Y: Distribution, *, negative_b: bool = True,
                na: int = 64, nb: int = 32, a_min: float = 0.05, a_max: float = 20.0,
                scan: ScanConfig | None = None) -> "GridSpec":
        """Log-spaced slopes; intercepts cover [0, 5 E Y] plus, when the full
        two-parameter criterion demands them, negatives down to -5 E X."""
        a_vals = tuple(np.geomspace(a_min, a_max, na))
        b_max = 5.0 * Y.mean()
        if negative_b:
            # geometric spacing toward 0: the hard cells cluster at small |b|
            n_neg = max(nb // 3, 4)
            neg = -np.geomspace(5.0 * X.mean(), 0.01 * X.mean(), n_neg)
            pos = np.linspace(0.0, b_max, nb - n_neg)
            b_vals = tuple(np.concatenate([neg, pos]))
        else:
            b_vals = tuple(np.linspace(0.0, b_max, nb))
        return cls(a_vals, b_vals, scan)

    def restricted_nonnegative_b(self) -> "GridSpec":
        kept = tuple(b for b in self.b_values if b >= 0.0) or (0.0,)
        return GridSpec(self.a_values, kept, self.scan)

    def to_dict(self) -> dict:
        doc = {"a_values": list(self.a_values), "b_values": list(self.b_values)}
        if self.scan is not None:
            doc["scan"] = {
                "x_max": self.scan.x_max,
                "initial_grid": self.scan.initial_grid,
                "deadband": self.scan.deadband,
                "max_refinement_depth": self.scan.max_refinement_depth,
                "deadband_abs": self.scan.deadband_abs,
            }
        return doc


# ----------------------------------------------------------------------
# cell machinery
# ----------------------------------------------------------------------


def _v_row(TX: IteratedTail, TY: IteratedTail):
    """V(x) = tail_{Y,s}(x) - tail_{X,s}(a x + b) of many cells at once: a
    and b hold each point's cell (scalars for one cell)."""
    def V(x, a, b):
        xa = np.asarray(x, dtype=float)
        return np.asarray(TY.eval_tail(xa), dtype=float) \
            - np.asarray(TX.eval_tail(a * xa + b), dtype=float)

    return V


def _cell_breakpoints(X, Y, a: float, b: float):
    """Kinks of a cell function comparing the X side (distribution or
    iterated tail) at a x + b with the Y side at x."""
    pts = list(Y.breakpoints())
    pts += [(p - b) / a for p in X.breakpoints() if (p - b) / a > 0]
    if b < 0:
        pts.append(-b / a)
    return sorted(pts)


def _scan_config_per_cell(x_side, y_side, X: Distribution, Y: Distribution,
                          template: ScanConfig | None, dead_abs: float = 0.0):
    """(a, b) -> scan configuration for a sweep comparing the X side at
    a x + b with the Y side at x.  x_side and y_side (distributions or
    iterated tails) supply the tail-mass horizons, computed once, on first
    use; a template's x_max of None means "resolve per cell"."""
    horizons = None

    def config(a: float, b: float) -> ScanConfig:
        nonlocal horizons
        if horizons is None:
            horizons = (x_side.quantile_horizon(1e-10), y_side.quantile_horizon(1e-10),
                        1e4 * (1.0 + X.mean() + Y.mean()))
        hx, hy, cap = horizons
        # tail-mass horizons explode for polynomial tails; cap the window so
        # the log grid keeps resolution where the tails actually interact
        x_max = min(max(hy, (hx - b) / a, 1.0), cap)
        if template is None:
            return ScanConfig(x_max=x_max, deadband_abs=dead_abs)
        return replace(template,
                       x_max=x_max if template.x_max is None else template.x_max,
                       deadband_abs=max(template.deadband_abs, dead_abs))

    return config


def _exact_cell_pattern(TX: IteratedTail, TY: IteratedTail,
                        a: float, b: float) -> SignPattern | None:
    """Certified pattern of V when both iterated tails are exponential
    polynomials.  For b < 0 the X side is identically 1 on (0, -b/a], where
    V < 0 strictly; the polynomial pattern started at -b/a begins with that
    same negative sign, so it is the full pattern."""
    if TX.poly is None or TY.poly is None:
        return None
    diff = TY.poly.subtract(TX.poly.compose_affine(a, b))
    start = max(0.0, -b / a)
    if diff is None:
        if b >= 0:
            return SignPattern((), (), (), EXACT)
        return SignPattern(("-",), (start / 2.0,), (), EXACT)
    return diff.sign_pattern_exact(start)


@dataclass(frozen=True)
class _CellResult:
    """One evaluated cell.  fn is the function whose pattern was taken, so
    a disallowed pattern can be re-verified at its witnesses; margin, when
    the evaluator reports one, is the smallest |fn| at the witnesses of a
    passing cell.  A degenerate cell (fn zero within the deadband: X and Y
    indistinguishable there) passes with margin 0."""

    a: float
    b: float
    pattern: SignPattern | None
    fn: Callable | None = None
    degenerate: bool = False
    uncertain: bool = False
    margin: float | None = None


def _degenerate(a: float, b: float) -> _CellResult:
    return _CellResult(a, b, None, degenerate=True, margin=0.0)


def _scanned_cell(a: float, b: float, pattern, fn, margin=None) -> _CellResult:
    """Cell result of a pattern, or of the IndeterminateFunction of a cell
    zero within the deadband."""
    if isinstance(pattern, IndeterminateFunction):
        return _degenerate(a, b)
    return _CellResult(a, b, pattern, fn, uncertain=pattern.uncertain, margin=margin)


def _witness(res: _CellResult) -> RefutationWitness | None:
    """Witness of a disallowed cell pattern, or None unless evaluating the
    scanned function again at the pattern's witnesses shows every sign
    beyond the deadband."""
    pat = res.pattern
    vals = np.asarray(res.fn(np.asarray(pat.witnesses)), dtype=float)
    dead = 1e-11 * float(np.max(np.abs(vals))) if len(vals) else 0.0
    for v, sg in zip(vals, pat.signs):
        if not (v > dead if sg == "+" else v < -dead):
            return None
    return RefutationWitness(res.a, res.b, pat.signs, pat.witnesses, tuple(vals), dead)


def _sweep(grid: GridSpec, evaluate, allowed, criterion: str, s) -> Verdict:
    """Evaluate the grid a row at a time, evaluate(a, b_values) giving the
    cells of one slope, and read the cells in (a, b) lexicographic order;
    the first disallowed pattern that re-verifies refutes and ends the
    sweep, so at most the rest of its row is evaluated in vain.  A
    disallowed pattern that does not re-verify counts as uncertain."""
    worst = math.inf
    first_uncertain = None
    scanned = 0
    for res in chain.from_iterable(evaluate(a, grid.b_values) for a in grid.a_values):
        scanned += 1
        if res.margin is not None:
            worst = min(worst, res.margin)
        if res.degenerate:
            continue
        if not res.uncertain:
            if matches(res.pattern, allowed):
                continue
            witness = _witness(res)
            if witness is not None:
                return Verdict(REFUTED, criterion, s, cells_scanned=scanned,
                               witness=witness, grid=grid.to_dict())
        if first_uncertain is None:
            first_uncertain = res
    if first_uncertain is not None:
        return Verdict(INCONCLUSIVE, criterion, s, cells_scanned=scanned,
                       reason=f"unresolved scan at a={first_uncertain.a:.6g}, "
                              f"b={first_uncertain.b:.6g}",
                       grid=grid.to_dict())
    return Verdict(SUPPORTED, criterion, s, cells_scanned=scanned,
                   worst_margin=None if worst is math.inf else worst,
                   grid=grid.to_dict())


def _pattern_sweep(TX, TY, s, grid: GridSpec, allowed, criterion: str) -> Verdict:
    """Sweep V over the grid: certified patterns where both tails are
    exponential polynomials, one row scan for the other cells of a row.  A
    passing cell's margin is the smallest |V| at its witnesses.
    Quadrature-backed tails get an absolute deadband so integration noise
    cannot fabricate signs."""
    dead_abs = _QUAD_DEADBAND if "quadrature" in (TX.kind, TY.kind) else 0.0
    cell_cfg = _scan_config_per_cell(TX, TY, TX.base, TY.base, grid.scan, dead_abs)
    V = _v_row(TX, TY)

    def cell(a, b, pattern) -> _CellResult:
        fn = lambda x: V(x, a, b)  # noqa: E731
        margin = None
        if (isinstance(pattern, SignPattern) and pattern.witnesses
                and not pattern.uncertain and matches(pattern, allowed)):
            margin = float(np.min(np.abs(fn(np.asarray(pattern.witnesses)))))
        return _scanned_cell(a, b, pattern, fn, margin)

    def evaluate(a, bs):
        patterns = [_exact_cell_pattern(TX, TY, a, b) for b in bs]
        rest = [i for i, p in enumerate(patterns) if p is None]
        if rest:
            scanned = _scan_row(V, [((a, bs[i]), cell_cfg(a, bs[i]),
                                     _cell_breakpoints(TX, TY, a, bs[i])) for i in rest])
            for i, p in zip(rest, scanned):
                patterns[i] = p
        return [cell(a, b, p) for b, p in zip(bs, patterns)]

    return _sweep(grid, evaluate, allowed, criterion, s)


# ----------------------------------------------------------------------
# public checks
# ----------------------------------------------------------------------


def compare_ifr(X: Distribution, Y: Distribution, s: int,
                grid: GridSpec | None = None) -> Verdict:
    """Convex-transform order check: X below Y at iteration order s.

    Scans V(x) = tail_{Y,s}(x) - tail_{X,s}(a x + b) over the (a, b) grid;
    admissible patterns have at most two sign changes, "+,-,+" when two.
    Certified patterns are used when both tails are exponential polynomials.
    """
    grid = grid or GridSpec.default(X, Y, negative_b=True)
    TX, TY = iterate(X, s), iterate(Y, s)
    return _pattern_sweep(TX, TY, s, grid, ALLOWED_IFR, "pattern-ifr")


def compare_ifra(X: Distribution, Y: Distribution, s: int,
                 grid: GridSpec | None = None) -> Verdict:
    """Star-shape order check (b = 0): V(x) = tail_{Y,s}(x) - tail_{X,s}(a x)
    may change sign at most once, in the order "-,+"."""
    grid = grid or GridSpec.default(X, Y, negative_b=False)
    grid = GridSpec(grid.a_values, (0.0,), grid.scan)
    TX, TY = iterate(X, s), iterate(Y, s)
    return _pattern_sweep(TX, TY, s, grid, ALLOWED_IFRA, "pattern-ifra")


_H_FORMS = ("hs", "hs1")


def _h_row(X, Y, s, form, ex, ey):
    """(H form of many cells at once, its power k): the form at (a, b) is
    x -> H(x, a, b, a ** k), a, b and a ** k holding each point's cell
    (scalars for one cell); ex, ey are E X^{s-1}, E Y^{s-1}."""
    def dens(d, arg):
        arg = np.asarray(arg, dtype=float)
        out = np.zeros(arg.shape)
        pos = arg >= 0
        if np.any(pos):
            out[pos] = d.density(arg[pos])
        return out

    if form == "hs":
        def H(x, a, b, coef):
            xa = np.asarray(x, dtype=float)
            return dens(Y, xa) / ey - coef * dens(X, a * xa + b) / ex
        return H, s
    if form == "hs1":
        def H(x, a, b, coef):
            xa = np.asarray(x, dtype=float)
            return np.asarray(Y.tail(xa), dtype=float) / ey \
                - coef * np.asarray(X.tail(a * xa + b), dtype=float) / ex
        return H, s - 1
    raise ValueError(f"form must be one of {_H_FORMS}")


def _h_function(X, Y, s, form, a, b, ex, ey):
    """H form at cell (a, b); ex, ey are E X^{s-1}, E Y^{s-1}."""
    H, k = _h_row(X, Y, s, form, ex, ey)
    coef = a ** k
    return lambda x: H(x, a, b, coef)


def _h_exact_parts(X, Y, s, ey):
    """The (a, b)-free pieces of both closed H forms, keyed by form, as
    (Y term, X term, k): the form at (a, b) is
    Y term(x) - a^k X term(a x + b) / E X^{s-1}, with f_Y / E Y^{s-1}, f_X
    and k = s for "hs", and tail_Y / E Y^{s-1}, tail_X and k = s - 1 for
    "hs1", all exponential polynomials.  None unless both tails are
    exponential polynomials."""
    px, py = X.exp_poly_tail(), Y.exp_poly_tail()
    if px is None or py is None:
        return None
    return {"hs": (py.differentiate(1).scaled(-1.0 / ey), px.differentiate(1).scaled(-1.0), s),
            "hs1": (py.scaled(1.0 / ey), px, s - 1)}


def _closed_h_cell(part, a, b, ex) -> _CellResult | None:
    """Certified cell of a closed H form at b >= 0, where a x + b >= 0 on
    all of x > 0: Y term(x) - a^k X term(a x + b) / E X^{s-1} is an
    exponential polynomial (see _h_exact_parts).  None, so that the cell
    keeps the sampled scan, when every X coefficient underflows or when a
    term slower than every kept one was pruned as negligible (say, X
    shrunk by a large b): it would have decided the sign of the tail.
    Only terms of both sides can cancel, so a missing term of one side
    alone was pruned."""
    hy, hx, k = part
    try:
        xpart = hx.compose_affine(a, b).scaled(a ** k / ex)
    except ValueError:
        return None
    closed = hy.subtract(xpart)
    if closed is None:
        return _degenerate(a, b)
    tol = RATE_MERGE_REL * max(hy.rates[-1], xpart.rates[-1])
    slowest = closed.rates[0]
    for own, other in ((hy.rates, xpart.rates), (xpart.rates, hy.rates)):
        if any(r < slowest and all(abs(r - q) > tol for q in other) for r in own):
            return None
    pat = closed.sign_pattern_exact(0.0)
    return _CellResult(a, b, pat, closed.eval, uncertain=pat.uncertain)


#: per-cell partner: the criterion asks for an admissible pattern from
#: EITHER the density form or the survival form, per (a, b)
_PARTNER_FORM = {"hs": "hs1", "hs1": "hs"}


def criterion_h(X: Distribution, Y: Distribution, s: int,
                grid: GridSpec | None = None, form: str = "hs") -> Verdict:
    """Density/tail sufficient criterion for the convex-transform order.

    A cell passes when the chosen form, or failing that its partner form
    (density <-> survival), shows an admissible pattern; the criterion asks
    for one of the two per parameter pair.  Supported is sufficient
    evidence for the order.  Refuted here refutes the criterion only: the
    order itself may still hold (one-directional test), which is why
    newcrit falls back to the characterization function when this fails.

    When both tails are exponential polynomials (Exponential, MaxExp,
    ExpPolyTail), every cell of "hs" and "hs1" with b >= 0 is decided by
    certified root isolation (_closed_h_cell) unless its closed form cannot
    be built without losing a term; cells with b < 0 take the sampled scan.
    """
    if form not in _H_FORMS:
        raise ValueError(f"form must be one of {_H_FORMS}")
    grid = grid or GridSpec.default(X, Y, negative_b=True)

    ex, ey = X.raw_moment(s - 1), Y.raw_moment(s - 1)
    exact_parts = _h_exact_parts(X, Y, s, ey)
    cell_cfg = _scan_config_per_cell(X, Y, X, Y, grid.scan)
    rows = {f: _h_row(X, Y, s, f, ex, ey) for f in _H_FORMS}

    def evaluate_form(use_form, a, bs):
        # closed form only where a x + b >= 0 on all of x > 0; one row scan
        # for the other cells
        out = [_closed_h_cell(exact_parts[use_form], a, b, ex)
               if exact_parts is not None and b >= 0 else None for b in bs]
        rest = [i for i, res in enumerate(out) if res is None]
        if rest:
            H, k = rows[use_form]
            coef = a ** k
            scanned = _scan_row(H, [((a, bs[i], coef), cell_cfg(a, bs[i]),
                                     _cell_breakpoints(X, Y, a, bs[i])) for i in rest])
            for i, pat in zip(rest, scanned):
                out[i] = _scanned_cell(a, bs[i], pat,
                                       _h_function(X, Y, s, use_form, a, bs[i], ex, ey))
        return out

    def evaluate(a, bs):
        out = evaluate_form(form, a, bs)
        failed = [i for i, res in enumerate(out) if not (
            res.degenerate or res.uncertain or matches(res.pattern, ALLOWED_IFR))]
        if failed:
            partner = evaluate_form(_PARTNER_FORM[form], a, [bs[i] for i in failed])
            for i, other in zip(failed, partner):
                if other.degenerate or (not other.uncertain
                                        and matches(other.pattern, ALLOWED_IFR)):
                    out[i] = other
        return out

    verdict = _sweep(grid, evaluate, ALLOWED_IFR, "criterion-h", s)
    if verdict.refuted:
        return replace(verdict, reason="criterion pattern inadmissible; order undecided")
    return verdict


def newcrit(X: Distribution, Y: Distribution, s: int,
            grid: GridSpec | None = None) -> Verdict:
    """Order check that avoids negative intercepts: the star-shape order
    (b = 0) plus the sufficient criterion restricted to b >= 0 jointly
    imply the convex-transform order.

    When the sufficient criterion fails on some cell, the characterization
    function V itself is scanned on the nonnegative-b grid before giving
    up: the criterion is one-directional and V is what the order actually
    constrains.
    """
    grid = grid or GridSpec.default(X, Y, negative_b=False)
    step1 = compare_ifra(X, Y, s, grid)
    if not step1.supported:
        return Verdict(step1.outcome, "newcrit", s,
                       cells_scanned=step1.cells_scanned,
                       witness=step1.witness,
                       reason="star-shape step failed", grid=grid.to_dict())
    nonneg = grid.restricted_nonnegative_b()
    step2 = criterion_h(X, Y, s, nonneg, form="hs")
    if step2.supported:
        return Verdict(SUPPORTED, "newcrit", s,
                       cells_scanned=step1.cells_scanned + step2.cells_scanned,
                       worst_margin=step2.worst_margin, grid=grid.to_dict())
    TX, TY = iterate(X, s), iterate(Y, s)
    step3 = _pattern_sweep(TX, TY, s, nonneg, ALLOWED_IFR, "pattern-ifr")
    out = Verdict(step3.outcome, "newcrit", s,
                  cells_scanned=step1.cells_scanned + step2.cells_scanned
                  + step3.cells_scanned,
                  worst_margin=step3.worst_margin, witness=step3.witness,
                  reason=step3.reason, grid=grid.to_dict())
    return out


def _monotone_verdict(fn, criterion: str, s, lo: float, hi: float,
                      want: str, breakpoints=(), cfg: ScanConfig | None = None) -> Verdict:
    """Supported iff fn is monotone in the wanted direction on (lo, hi):
    '-' nonincreasing, '+' nondecreasing.

    Works on sampled values directly (a pair of abscissae whose values move
    the wrong way beyond the tolerance is a certificate irrespective of
    resolution), with a few bisection rounds to tighten the witness pair.
    The tolerance is relative to the sampled value range, so flat stretches
    carry no evidence and a constant function counts as monotone."""
    cfg = cfg or ScanConfig(x_max=hi)
    xs = np.geomspace(lo, hi, cfg.initial_grid)
    bps = np.asarray([b for b in breakpoints if lo < b < hi], dtype=float)
    if bps.size:
        xs = np.unique(np.concatenate([xs, bps]))
    vals = np.asarray(fn(xs), dtype=float)
    finite = np.isfinite(vals)
    xs, vals = xs[finite], vals[finite]
    if xs.size < 8:
        return Verdict(INCONCLUSIVE, criterion, s, cells_scanned=1,
                       reason="too few evaluable samples")
    spread = float(np.max(vals) - np.min(vals))
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    if spread <= 1e-9 * scale:
        return Verdict(SUPPORTED, criterion, s, cells_scanned=1, worst_margin=0.0,
                       reason="constant within tolerance")
    tol = max(1e-9 * scale, cfg.deadband_abs)
    sign = -1.0 if want == "-" else 1.0

    for _ in range(6):
        bad = np.nonzero(sign * (vals[1:] - vals[:-1]) < -tol)[0]
        if bad.size == 0:
            break
        mids = 0.5 * (xs[bad] + xs[bad + 1])
        mvals = np.asarray(fn(mids), dtype=float)
        keep = np.isfinite(mvals)
        xs = np.concatenate([xs, mids[keep]])
        vals = np.concatenate([vals, mvals[keep]])
        order = np.argsort(xs, kind="stable")
        xs, vals = xs[order], vals[order]

    diffs = sign * (vals[1:] - vals[:-1])
    bad = np.nonzero(diffs < -tol)[0]
    if bad.size == 0:
        return Verdict(SUPPORTED, criterion, s, cells_scanned=1)
    worst = int(bad[int(np.argmin(diffs[bad]))])
    pair_x = (float(xs[worst]), float(xs[worst + 1]))
    pair_v = (float(vals[worst]), float(vals[worst + 1]))
    wrong = "+" if want == "-" else "-"
    witness = RefutationWitness(None, None, (wrong,), pair_x, pair_v, tol)
    return Verdict(REFUTED, criterion, s, cells_scanned=1, witness=witness)


def compare_dmrl(X: Distribution, Y: Distribution,
                 cfg: ScanConfig | None = None) -> Verdict:
    """Mean-residual-life order: the ratio of second-iterate tails composed
    with the first-iterate quantiles must be nonincreasing on (0, 1).
    A constant ratio (X and Y indistinguishable) counts as nonincreasing."""
    TX1, TX2 = iterate(X, 1), iterate(X, 2)
    TY1, TY2 = iterate(Y, 1), iterate(Y, 2)

    def d(u):
        ua = np.asarray(u, dtype=float)
        return np.asarray(TY2.eval_tail(TY1.tail_inverse(ua)), dtype=float) \
            / np.asarray(TX2.eval_tail(TX1.tail_inverse(ua)), dtype=float)

    return _monotone_verdict(d, "dmrl", None, 1e-6, 1.0 - 1e-6, "-", cfg=cfg)


def convexity_check(X: Distribution, Y: Distribution, s: int,
                    cfg: ScanConfig | None = None, mode: str = "convex") -> Verdict:
    """Direct check of the transform c_s = tail_{Y,s}^{-1} o tail_{X,s}.

    mode "convex": the slope of c_s, written as a function of the common
    tail level u (so kinks are sampled exactly), must be nonincreasing in u;
    mode "star": c_s(x)/x must be nondecreasing in x.  Independent of the
    pattern sweeps, for cross-checking.
    """
    TXs, TYs = iterate(X, s), iterate(Y, s)
    if mode == "star":
        def t(x):
            xa = np.asarray(x, dtype=float)
            return np.asarray(TYs.tail_inverse(
                np.clip(TXs.eval_tail(xa), 1e-300, 1.0)), dtype=float) / xa

        hi = TXs.quantile_horizon(1e-8)
        lo = hi * 1e-6
        if cfg is None:
            # bisected inverses carry ~1e-10 absolute noise in x, amplified
            # by 1/x near the left end of the window
            cfg = ScanConfig(x_max=hi, deadband_abs=3e-10 / lo)
        return _monotone_verdict(t, "convexity", s, lo, hi, "+",
                                 breakpoints=TXs.breakpoints(), cfg=cfg)
    if mode != "convex":
        raise ValueError("mode must be 'convex' or 'star'")

    if s == 1:
        num_low: Callable = X.density
        den_low: Callable = Y.density
        mu_x = mu_y = 1.0
    else:
        TX_prev, TY_prev = iterate(X, s - 1), iterate(Y, s - 1)
        num_low, den_low = TX_prev.eval_tail, TY_prev.eval_tail
        mu_x, mu_y = TXs.normalizers[-1], TYs.normalizers[-1]

    def slope_at_level(u):
        ua = np.asarray(u, dtype=float)
        qx = TXs.tail_inverse(ua)
        qy = TYs.tail_inverse(ua)
        num = np.asarray(num_low(qx), dtype=float) / mu_x
        den = np.asarray(den_low(qy), dtype=float) / mu_y
        return num / den

    return _monotone_verdict(slope_at_level, "convexity", s, 1e-6, 1.0 - 1e-6, "-",
                             cfg=cfg)


@dataclass(frozen=True)
class ExponentialReference:
    """Order-vs-exponential checks cross-validated against the classifier."""

    s: int
    below: Verdict
    above: Verdict
    below_star: Verdict
    above_star: Verdict
    ifr_class: "ageing.MonotoneClass"
    ifra_class: "ageing.MonotoneClass"
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
