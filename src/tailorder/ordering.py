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
from functools import cache, lru_cache, partial
from itertools import chain, product
from operator import itemgetter
from typing import Callable

import numpy as np

from .distributions import Distribution
from .errors import IndeterminateFunction
from .exppoly import RATE_MERGE_REL, ExpPoly, _merge_sorted, _rule, _sign_patterns
from .iteration import IteratedTail, iterate
from .patterns import ALLOWED_IFR, ALLOWED_IFRA, EXACT, ScanConfig, SignPattern, matches
# the sweeps scan through _scan_row; ordering.scan stays bound because the
# benchmark's tracer (perfbench/tracing.py) wraps and checks that binding
from .signscan import _scan_row, scan  # noqa: F401

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
# comparison forms and cell machinery
# ----------------------------------------------------------------------


def _difference(fy, fx, ey: float, ex: float):
    """F(x, a, b, coef) = fy(x)/ey - coef fx(a x + b)/ex of many cells at
    once: a, b and coef hold each point's cell (scalars for one cell).  y,
    when given, holds fy(x), which reads x alone (see _scan_row)."""
    def F(x, a, b, coef, y=None):
        xa = np.asarray(x, dtype=float)
        y = np.asarray(fy(xa) if y is None else y, dtype=float)
        xs = coef * np.asarray(fx(a * xa + b), dtype=float)
        # dividing by a normalizer of 1 (V's, the H forms' at s = 1) is exact: skip it
        return (y if ey == 1.0 else y / ey) - (xs if ex == 1.0 else xs / ex)

    return F


def _density(d: Distribution):
    """The density of d, vectorized, 0 at negative arguments.  Calls the
    kernel d._density directly, on all of arg when no argument is negative:
    Distribution.density would only check the sign again and unwrap
    scalars."""
    def f(arg):
        arg = np.asarray(arg, dtype=float)
        pos = arg >= 0
        if pos.all():
            return d._density(arg)
        out = np.zeros(arg.shape)
        if pos.any():
            out[pos] = d._density(arg[pos])
        return out

    return f


def _cell_breakpoints(X, Y, a: float, b: float):
    """Kinks of a cell function comparing the X side (distribution or
    iterated tail) at a x + b with the Y side at x."""
    pts = list(Y.breakpoints())
    pts += [(p - b) / a for p in X.breakpoints() if (p - b) / a > 0]
    if b < 0:
        pts.append(-b / a)
    return sorted(pts)


@lru_cache(maxsize=512)
def _horizon(side) -> float:
    """side.quantile_horizon(1e-10), computed once per side: distributions
    hash by value and iterate caches its tails by value, so fresh but equal
    sides share it across sweeps."""
    return side.quantile_horizon(1e-10)


def _scan_config_per_cell(x_side, y_side, X: Distribution, Y: Distribution,
                          template: ScanConfig | None, dead_abs: float = 0.0):
    """(a, b) -> scan configuration for a sweep comparing the X side at
    a x + b with the Y side at x.  x_side and y_side (distributions or
    iterated tails) supply the tail-mass horizons, memoized by _horizon and
    read on first use; a template's x_max of None means "resolve per
    cell"."""
    horizons = None

    def config(a: float, b: float) -> ScanConfig:
        nonlocal horizons
        if horizons is None:
            horizons = (_horizon(x_side), _horizon(y_side), 1e4 * (1.0 + X.mean() + Y.mean()))
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


@dataclass(frozen=True)
class _Form:
    """A comparison function of the one shape every sweep scans: the Y side
    at x minus a^k times the X side at a x + b, each side over its
    normalizer.  At cell (a, b) it is x -> F(x, a, b, a ** k); V is the
    tail case, with k = 0 and both normalizers 1.

    fy is the Y side, which reads x alone; F takes its values as an
    optional last argument (see _scan_row).  sides is (Y side / its
    normalizer, X side) as exponential polynomials, or None unless both
    are; ex is the X side's normalizer.  left is the sign of the form on
    (0, -b/a] at b < 0, where a x + b <= 0, when it is fixed there and the
    form's pattern from -b/a on begins with it: "-" for V, whose X side is
    1 there.  None leaves the cells with b < 0 to the sampled scan.
    cfg(a, b) and bps(a, b) are a cell's scan configuration and
    breakpoints."""

    F: Callable
    fy: Callable
    k: int
    ex: float
    sides: tuple[ExpPoly, ExpPoly] | None
    left: str | None
    cfg: Callable
    bps: Callable

    def __call__(self, x, a: float, b: float):
        return self.F(x, a, b, a ** self.k)


def _v_form(TX: IteratedTail, TY: IteratedTail, template: ScanConfig | None) -> _Form:
    """V(x) = tail_{Y,s}(x) - tail_{X,s}(a x + b).  Quadrature-backed tails
    get an absolute deadband so integration noise cannot fabricate signs."""
    dead_abs = _QUAD_DEADBAND if "quadrature" in (TX.kind, TY.kind) else 0.0
    sides = None if TX.poly is None or TY.poly is None else (TY.poly, TX.poly)
    return _Form(_difference(TY.eval_tail, TX.eval_tail, 1.0, 1.0), TY.eval_tail, 0, 1.0,
                 sides, "-",
                 _scan_config_per_cell(TX, TY, TX.base, TY.base, template, dead_abs),
                 partial(_cell_breakpoints, TX.base, TY.base))


def _h_forms(X: Distribution, Y: Distribution, s: int,
             template: ScanConfig | None) -> dict[str, _Form]:
    """The density form "hs", H_s(x) = f_Y(x)/E Y^{s-1} - a^s f_X(a x + b)
    /E X^{s-1}, and the survival form "hs1", the same with tails and
    a^{s-1}; their sides are f_Y, f_X and tail_Y, tail_X, exponential
    polynomials when both tails are."""
    ex, ey = X.raw_moment(s - 1), Y.raw_moment(s - 1)
    px, py = X.exp_poly_tail(), Y.exp_poly_tail()
    closed = px is not None and py is not None
    cfg = _scan_config_per_cell(X, Y, X, Y, template)
    bps = partial(_cell_breakpoints, X, Y)
    fy = _density(Y)
    return {
        "hs": _Form(_difference(fy, _density(X), ey, ex), fy, s, ex,
                    (py.differentiate(1).scaled(-1.0 / ey), px.differentiate(1).scaled(-1.0))
                    if closed else None, None, cfg, bps),
        "hs1": _Form(_difference(Y.tail, X.tail, ey, ex), Y.tail, s - 1, ex,
                     (py.scaled(1.0 / ey), px) if closed else None, None, cfg, bps),
    }


@dataclass(frozen=True)
class _CellResult:
    """One evaluated cell.  form is the function whose pattern was taken,
    so a disallowed pattern can be re-verified, and a passing one measured,
    at its witnesses: margin, when measured, is the smallest |form| there.
    A degenerate cell (form zero within the deadband: X and Y
    indistinguishable there) passes with margin 0.

    A criterion_h cell decided from coefficient signs (exppoly._rule)
    carries its sign tuple alone as its pattern: with at most one sign
    change it is admissible, so it is never re-verified, and criterion_h
    measures no margins."""

    a: float
    b: float
    pattern: SignPattern | tuple[str, ...] | None
    form: _Form | None = None
    degenerate: bool = False
    uncertain: bool = False
    margin: float | None = None


def _degenerate(a: float, b: float) -> _CellResult:
    return _CellResult(a, b, None, degenerate=True)


def _closed_cell(form: _Form, a: float, b: float) -> ExpPoly | _CellResult | None:
    """The form at (a, b) as an exponential polynomial on x > max(0, -b/a),
    or a decided cell when its sides cancel there: degenerate at b >= 0,
    of sign left alone at b < 0.  None keeps the cell on the sampled scan:
    when the sides are not exponential polynomials, at b < 0 without a
    left sign, when composing at a x + b overflows or every X coefficient
    underflows, and when a term slower than every kept one was pruned as
    negligible (say, X shrunk by a large b): it would have decided the
    sign of the tail.  Only terms of both sides can cancel, so a missing
    term of one side alone was pruned.

    The X side is composed at a x + b, scaled and subtracted as term
    lists, each step merged and pruned as an ExpPoly of its terms would
    be, in that order, and only the difference is built as an ExpPoly."""
    if form.sides is None or (b < 0 and form.left is None):
        return None
    hy, hx = form.sides
    scale = a ** form.k / form.ex
    if scale == 0.0:  # the X side collapses, as ExpPoly.scaled refuses it
        return None
    try:
        xterms = [(c * math.exp(-r * b), r * a) for c, r in hx.terms]
    except OverflowError:
        return None
    # a x + b keeps hx's rate order; a rate lost to underflow (or a NaN
    # slope) fails the positivity check an ExpPoly makes of its rates
    if not xterms[0][1] > 0:
        return None
    xterms = _merge_sorted(xterms)
    if xterms and scale != 1.0:  # rescaling by 1 (V's scale) changes nothing
        xterms = _merge_sorted([(c * scale, r) for c, r in xterms])
    if not xterms:  # every X coefficient underflowed
        return None
    terms = _merge_sorted(sorted(hy.terms + tuple((-c, r) for c, r in xterms), key=itemgetter(1)))
    if not terms:
        if b >= 0:
            return _degenerate(a, b)
        return _CellResult(a, b, SignPattern((form.left,), (-b / a / 2.0,), (), EXACT), form)
    slowest = terms[0][1]
    if min(hy.terms[0][1], xterms[0][1]) < slowest:
        tol = RATE_MERGE_REL * max(hy.terms[-1][1], xterms[-1][1])
        for own, other in ((hy.terms, xterms), (xterms, hy.terms)):
            if any(r < slowest and all(abs(r - q) > tol for _, q in other) for _, r in own):
                return None
    closed = object.__new__(ExpPoly)
    object.__setattr__(closed, "terms", terms)
    return closed


def _evaluate_cells(form: _Form, cells, closed) -> list[_CellResult]:
    """The cells (a, b) of cells, given closed, _closed_cell's outcome per
    cell: one _sign_patterns call for the closed forms, each from max(0,
    -b/a), where at b < 0 the pattern begins with the left sign, and one
    _scan_row call for the cells left to sampling."""
    out = list(closed)
    exact = [i for i, c in enumerate(closed) if isinstance(c, ExpPoly)]
    rest = [i for i, c in enumerate(closed) if c is None]
    if exact:
        starts = [max(0.0, -b / a) for a, b in (cells[i] for i in exact)]
        for i, pat in zip(exact, _sign_patterns([closed[i] for i in exact], starts)):
            out[i] = _CellResult(*cells[i], pat, form, uncertain=pat.uncertain)
    if rest:
        scanned = _scan_row(form.F, [((a, b, a ** form.k), form.cfg(a, b), form.bps(a, b))
                                     for a, b in (cells[i] for i in rest)], fy=form.fy)
        for i, pat in zip(rest, scanned):
            # a cell zero within the deadband scans as IndeterminateFunction
            out[i] = _degenerate(*cells[i]) if isinstance(pat, IndeterminateFunction) \
                else _CellResult(*cells[i], pat, form, uncertain=pat.uncertain)
    return out


def _with_margins(form: _Form, results: list[_CellResult], allowed) -> list[_CellResult]:
    """results, each passing cell with its margin: the form is evaluated
    once, at the witnesses of every passing cell of the batch, on flat
    arrays of each point's x, a, b and a^k.  Every side is evaluated
    elementwise, so each value is the one the cell alone would give."""
    passing = [i for i, res in enumerate(results)
               if not (res.degenerate or res.uncertain) and res.pattern.witnesses
               and matches(res.pattern, allowed)]
    if not passing:
        return results
    cells = [results[i] for i in passing]
    sizes = [len(res.pattern.witnesses) for res in cells]
    x = np.fromiter(chain.from_iterable(res.pattern.witnesses for res in cells), float)
    a, b, coef = (np.repeat(np.asarray(col, dtype=float), sizes)
                  for col in zip(*((res.a, res.b, res.a ** form.k) for res in cells)))
    vals = np.abs(np.asarray(form.F(x, a, b, coef), dtype=float))
    starts = np.cumsum([0] + sizes[:-1])
    out = list(results)
    for i, res, m in zip(passing, cells, np.minimum.reduceat(vals, starts).tolist()):
        out[i] = replace(res, margin=m)
    return out


def _witness(res: _CellResult) -> RefutationWitness | None:
    """Witness of a disallowed cell pattern, or None unless evaluating the
    form again at the pattern's witnesses shows every sign beyond the
    deadband."""
    pat = res.pattern
    vals = np.asarray(res.form(np.asarray(pat.witnesses), res.a, res.b), dtype=float)
    dead = 1e-11 * float(np.max(np.abs(vals))) if len(vals) else 0.0
    for v, sg in zip(vals, pat.signs):
        if not (v > dead if sg == "+" else v < -dead):
            return None
    return RefutationWitness(res.a, res.b, pat.signs, pat.witnesses, tuple(vals), dead)


#: Cells per evaluation of a sweep: as many whole rows as fit, at least
#: one row.  A cap rather than the whole grid, since a batch is evaluated in
#: full: a larger one evaluates more cells past a refutation in vain and
#: holds more samples in memory at once.
_BATCH_CELLS = 64


def _sweep(grid: GridSpec, evaluate, allowed, criterion: str, s) -> Verdict:
    """Evaluate the grid in batches of whole rows, up to _BATCH_CELLS cells
    (at least one row) each, evaluate(cells) giving the cells of a list of
    (a, b) pairs, and read the cells one at a time in (a, b) lexicographic
    order; the first disallowed pattern that re-verifies refutes and ends
    the sweep, so at most the rest of its batch is evaluated in vain.  A
    disallowed pattern that does not re-verify counts as uncertain.  The
    worst margin is the smallest of the passing cells' margins, 0 on a
    degenerate cell."""
    cells = list(product(grid.a_values, grid.b_values))
    size = max(1, _BATCH_CELLS // len(grid.b_values)) * len(grid.b_values)
    batches = (cells[i:i + size] for i in range(0, len(cells), size))
    worst = math.inf
    first_uncertain = None
    scanned = 0
    for res in chain.from_iterable(map(evaluate, batches)):
        scanned += 1
        if res.degenerate:
            worst = 0.0
            continue
        if not res.uncertain:
            if matches(res.pattern, allowed):
                if res.margin is not None:
                    worst = min(worst, res.margin)
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
    """Sweep V over the grid, with margins: certified patterns where both
    tails are exponential polynomials, one _scan_row call for the other
    cells of a batch, and one evaluation of V for the margins of its
    passing cells."""
    form = _v_form(TX, TY, grid.scan)

    def evaluate(cells):
        return _with_margins(form, _evaluate_cells(
            form, cells, [_closed_cell(form, a, b) for a, b in cells]), allowed)

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
    ExpPolyTail), every cell of "hs" and "hs1" with b >= 0 is certified on
    its closed form (_closed_cell) unless that cannot be built without
    losing a term; cells with b < 0 take the sampled scan.  A closed cell
    passes on the coefficient signs of the chosen form, or else of its
    partner, where they fix the pattern (exppoly._rule), and carries its
    signs alone; only the other closed cells are sampled (_sign_patterns,
    once per batch and form), the chosen form first.
    """
    if form not in _PARTNER_FORM:
        raise ValueError(f"form must be one of {tuple(_PARTNER_FORM)}")
    grid = grid or GridSpec.default(X, Y, negative_b=True)
    forms = _h_forms(X, Y, s, grid.scan)
    names = (form, _PARTNER_FORM[form])

    def evaluate(cells):
        @cache  # built at most once per form and cell of the batch
        def closed(name, a, b):
            return _closed_cell(forms[name], a, b)

        def by_rule(a, b):
            # the first form whose coefficient signs fix its pattern decides
            # the cell; every pattern they fix is admissible
            for name in names:
                c = closed(name, a, b)
                if not isinstance(c, ExpPoly):
                    return None
                rule = _rule(c.terms)
                if rule is not None:
                    head, tail = rule
                    return _CellResult(a, b, (tail,) if head == tail else rule, forms[name])
            return None

        def evaluate_form(name, idx):
            part = [cells[i] for i in idx]
            return _evaluate_cells(forms[name], part, [closed(name, a, b) for a, b in part])

        out = [by_rule(a, b) for a, b in cells]
        rest = [i for i, res in enumerate(out) if res is None]
        for i, res in zip(rest, evaluate_form(names[0], rest)):
            out[i] = res
        failed = [i for i in rest if not (
            out[i].degenerate or out[i].uncertain or matches(out[i].pattern, ALLOWED_IFR))]
        if failed:
            for i, other in zip(failed, evaluate_form(names[1], failed)):
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
