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

Every sweep evaluates its batches of cells through one evaluator
(_evaluator), over V alone or over criterion_h's chosen form and its
partner.  Where both sides of a form are exponential polynomials, a batch's
cells are one term table of their closed forms (_closed_cells), built from
side tables per distinct slope and intercept, and the cells at b >= 0 whose
coefficient signs fix an admissible pattern are settled from that table
with one pass of the coefficient-sign rule (_settle).  Only the other
closed cells are built into polynomials and sampled in the sweep; a
supported sweep of V builds and samples its settled cells for their
witnesses when it measures its worst margin.

A batch is judged by masks over its cells (_Judged): passes, degenerate
and uncertain.  A sampled cell's come from its first sign and sign count
in the row scan's batch arrays, through one admissibility table per
allowed set (patterns.admits); a settled cell's from the coefficient-sign
rule; a closed cell's from its certified pattern.  The sweep visits, in
(a, b) order, only the cells that do not pass, and builds a sampled
cell's SignPattern only there, for its witness; a margin reads the
sampled witnesses from the batch arrays.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, product
from typing import Callable, NamedTuple

import numpy as np

from .distributions import Distribution, _order
from .exppoly import (_EXP_LO, PRUNE_REL, RATE_MERGE_REL, ROOT_WIDTH, ExpPoly, _exp_or_inf,
                      _merge_rows, _prune_rows, _sign_patterns, _sign_rule, _Terms)
from .iteration import IteratedTail, iterate
from .patterns import (ALLOWED_IFR, ALLOWED_IFRA, EXACT, ScanConfig, SignPattern, admits,
                       matches)
# the sweeps scan through _scan_row; ordering.scan stays bound because the
# benchmark's tracer (perfbench/tracing.py) wraps and checks that binding
from .signscan import _Batch, _scan_row, scan  # noqa: F401

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
    """Affine-parameter grid: finite, strictly positive slopes a and finite
    intercepts b.  A sampled cell's scan window is resolved per cell
    (_windows)."""

    a_values: tuple[float, ...]
    b_values: tuple[float, ...]

    def __post_init__(self):
        if not self.a_values or any(a <= 0 for a in self.a_values):
            raise ValueError("slopes a must be strictly positive")
        if not self.b_values:
            raise ValueError("at least one intercept b is required")
        if not all(map(math.isfinite, chain(self.a_values, self.b_values))):
            raise ValueError("slopes a and intercepts b must be finite")
        # sorted and deduplicated so cell order is truly lexicographic and
        # the first-refutation rule is stable
        object.__setattr__(self, "a_values",
                           tuple(sorted({float(a) for a in self.a_values})))
        object.__setattr__(self, "b_values",
                           tuple(sorted({float(b) for b in self.b_values})))

    @classmethod
    def default(cls, X: Distribution, Y: Distribution, *, negative_b: bool = True,
                na: int = 64, nb: int = 32) -> "GridSpec":
        """na slopes log-spaced on [0.05, 20] and nb intercepts covering
        [0, 5 E Y] plus, when the full two-parameter criterion demands them,
        negatives down to -5 E X: a third of them, at least 4, but always
        leaving b = 0 on the grid."""
        for name, n in (("na", na), ("nb", nb)):
            if not isinstance(n, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {n!r}")
            if n < 1:
                raise ValueError(f"{name} must be at least 1, got {n}")
        a_vals = tuple(np.geomspace(0.05, 20.0, na))
        b_max = 5.0 * Y.mean()
        if negative_b:
            # geometric spacing toward 0: the hard cells cluster at small |b|
            n_neg = min(max(nb // 3, 4), nb - 1)
            neg = -np.geomspace(5.0 * X.mean(), 0.01 * X.mean(), n_neg)
            pos = np.linspace(0.0, b_max, nb - n_neg)
            b_vals = tuple(np.concatenate([neg, pos]))
        else:
            b_vals = tuple(np.linspace(0.0, b_max, nb))
        return cls(a_vals, b_vals)

    def restricted_nonnegative_b(self) -> "GridSpec":
        kept = tuple(b for b in self.b_values if b >= 0.0) or (0.0,)
        return GridSpec(self.a_values, kept)

    def to_dict(self) -> dict:
        return {"a_values": list(self.a_values), "b_values": list(self.b_values)}


# ----------------------------------------------------------------------
# comparison forms and cell machinery
# ----------------------------------------------------------------------


def _difference(fy, fx, ey: float, ex: float):
    """F(x, a, b, coef) = fy(x)/ey - coef fx(a x + b)/ex of many cells at
    once: a, b and coef hold each point's cell (scalars for one cell), or
    each row's as columns of a 2-D x, whose X side fx reads flattened.  y,
    when given, holds fy(x), which reads x alone (see _scan_row)."""
    def F(x, a, b, coef, y=None):
        xa = np.asarray(x, dtype=float)
        y = np.asarray(fy(xa) if y is None else y, dtype=float)
        arg = a * xa + b
        xs = coef * (np.asarray(fx(arg), dtype=float) if arg.ndim < 2
                     else np.asarray(fx(arg.ravel()), dtype=float).reshape(arg.shape))
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


def _breakpoints(X, Y):
    """(a, b) -> the kinks of each cell (a and b arrays of one length)
    comparing distribution X at a x + b with distribution Y at x, one
    sorted list per cell, or None when no cell has any."""
    ys, xs = list(Y.breakpoints()), X.breakpoints()

    def bps(a, b):
        if not (ys or xs) and not (b < 0).any():
            return None
        out = []
        for ai, bi in zip(a.tolist(), b.tolist()):
            pts = ys + [(p - bi) / ai for p in xs if (p - bi) / ai > 0]
            if bi < 0:
                pts.append(-bi / ai)
            out.append(sorted(pts))
        return out

    return bps


@lru_cache(maxsize=512)
def _horizon(side) -> float:
    """side.quantile_horizon(1e-10), computed once per side: distributions
    hash by value and iterate caches its tails by value, so fresh but equal
    sides share it across sweeps."""
    return side.quantile_horizon(1e-10)


def _windows(x_side, y_side, X: Distribution, Y: Distribution):
    """(a, b) -> the scan window x_max of each cell (a and b arrays of one
    length) of a sweep comparing the X side at a x + b with the Y side at
    x.  x_side and y_side (distributions or iterated tails) supply the
    tail-mass horizons, memoized by _horizon and read on first use."""
    horizons = None

    def window(a, b):
        nonlocal horizons
        if horizons is None:
            horizons = (_horizon(x_side), _horizon(y_side), 1e4 * (1.0 + X.mean() + Y.mean()))
        hx, hy, cap = horizons
        # tail-mass horizons explode for polynomial tails; cap the window so
        # the log grid keeps resolution where the tails actually interact
        return np.minimum(np.maximum(np.maximum(hy, (hx - b) / a), 1.0), cap)

    return window


def _batch_config(*tails: IteratedTail) -> ScanConfig:
    """The scan configuration every sampled cell of a form shares (its x_max
    unread: the windows are per cell): the default, with the absolute
    deadband _QUAD_DEADBAND where one of the form's tails is computed by
    quadrature (a NumericDensity's, at every s)."""
    quadrature = any(t.kind == "quadrature" for t in tails)
    return ScanConfig(deadband_abs=_QUAD_DEADBAND if quadrature else 0.0)


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
    window(a, b) and bps(a, b) give the scan windows and breakpoints of
    the cells of a batch (see _windows, _breakpoints), and config the
    scan configuration they share."""

    F: Callable
    fy: Callable
    k: int
    ex: float
    sides: tuple[ExpPoly, ExpPoly] | None
    left: str | None
    window: Callable
    config: ScanConfig
    bps: Callable

    def __call__(self, x, a: float, b: float):
        return self.F(x, a, b, a ** self.k)


def _v_form(TX: IteratedTail, TY: IteratedTail) -> _Form:
    """V(x) = tail_{Y,s}(x) - tail_{X,s}(a x + b)."""
    sides = None if TX.poly is None or TY.poly is None else (TY.poly, TX.poly)
    return _Form(_difference(TY.eval_tail, TX.eval_tail, 1.0, 1.0), TY.eval_tail, 0, 1.0,
                 sides, "-", _windows(TX, TY, TX.base, TY.base),
                 _batch_config(TX, TY), _breakpoints(TX.base, TY.base))


def _h_forms(X: Distribution, Y: Distribution, s: int) -> dict[str, _Form]:
    """The density form "hs", H_s(x) = f_Y(x)/E Y^{s-1} - a^s f_X(a x + b)
    /E X^{s-1}, and the survival form "hs1", the same with tails and
    a^{s-1}; their sides are f_Y, f_X and tail_Y, tail_X, exponential
    polynomials when both tails are."""
    ex, ey = X.raw_moment(s - 1), Y.raw_moment(s - 1)
    px, py = X.exp_poly_tail(), Y.exp_poly_tail()
    closed = px is not None and py is not None
    window, bps = _windows(X, Y, X, Y), _breakpoints(X, Y)
    fy = _density(Y)
    return {
        "hs": _Form(_difference(fy, _density(X), ey, ex), fy, s, ex,
                    (py.differentiate(1).scaled(-1.0 / ey), px.differentiate(1).scaled(-1.0))
                    if closed else None, None, window, _batch_config(), bps),
        "hs1": _Form(_difference(Y.tail, X.tail, ey, ex), Y.tail, s - 1, ex,
                     (py.scaled(1.0 / ey), px) if closed else None, None, window,
                     _batch_config(iterate(X, 1), iterate(Y, 1)), bps),
    }


#: what a batch's term table makes of each (form, cell) row: left to the
#: sampled scan, an exponential polynomial, degenerate, or of the form's
#: left sign alone
_SAMPLED, _CLOSED, _DEGENERATE, _LEFT = range(4)


class _Closed(NamedTuple):
    """The closed cells of a sweep batch in one or more forms: row
    f * len(cells) + i is form f at cell i, kind (an array) says what
    became of it, and terms (None when the forms have no
    exponential-polynomial sides) is the term table whose live entries in
    the _CLOSED rows are the cells' closed forms."""

    forms: tuple
    cells: list
    kind: np.ndarray
    terms: _Terms | None


def _polys(terms: _Terms, rows) -> list[ExpPoly]:
    """The closed forms of the _CLOSED rows of a batch's term table, from
    one _Terms.rows call: the rows are merged and pruned already, so no
    ExpPoly step runs again."""
    polys = []
    for row in terms.rows(rows):
        poly = object.__new__(ExpPoly)
        object.__setattr__(poly, "terms", row)
        polys.append(poly)
    return polys


def _closed_cells(forms, cells) -> _Closed:
    """Each form of forms at each cell (a, b) of cells as an exponential
    polynomial on x > max(0, -b/a), in one term table, or a decided cell
    when its sides cancel there: degenerate at b >= 0, of sign left alone at
    b < 0.  A row stays on the sampled scan when the form's sides are not
    exponential polynomials, at b < 0 without a left sign, when the scale
    a^k / ex is 0, when composing at a x + b or scaling overflows or every X
    coefficient underflows (an ExpPoly would refuse such terms), and when a
    term slower than every kept one was pruned as negligible (say, X shrunk
    by a large b): it would have decided the sign of the tail.  Only terms
    of both sides can cancel, so a missing term of one side alone was
    pruned.

    The table's columns are the Y side's terms and the X side's composed
    at a x + b, each row sorted stably by rate: the X side is composed,
    merged and pruned, scaled and pruned, and subtracted, merged and pruned
    as ExpPoly steps would do it, bit for bit, each step one masked pass
    over the rows.  Rates, their order and their exponentials depend on the
    slope alone, and composed X coefficients on the intercept alone, so
    these come per distinct a and b (_side_tables).  Where the side tables
    show that composing and scaling keep every X term (x_kept), the X side
    is only scaled; the pruned-slow-term guard runs only where a term was
    dropped, and the rows are compacted only where one was dropped or
    merged or a row did not close."""
    n, nf = len(cells), len(forms)
    # a batch's forms all have sides or none do: V is alone, and _h_forms
    # gives both of its forms sides or neither
    if forms[0].sides is None:
        return _Closed(tuple(forms), cells, np.full(nf * n, _SAMPLED), None)
    apos: dict = {}
    bpos: dict = {}
    ai = [apos.setdefault(a, len(apos)) for a, _ in cells]
    bi = [bpos.setdefault(b, len(bpos)) for _, b in cells]
    side = _side_tables(forms, list(apos), list(bpos))
    na, nb = len(apos), len(bpos)
    # each row's form, its group, and its (form, a), (form, b), (group, a)
    fi = np.repeat(np.arange(nf), n)
    gi = np.array(side.group)[fi]
    fa, fb = np.array(ai * nf), np.array(bi * nf)
    fa, fb, ga = fa + fi * na, fb + fi * nb, fa + gi * na
    with np.errstate(all="ignore"):
        # composed at a x + b and scaled; in a row that can close only the
        # padding is dead, and its coefficients are 0
        xr = side.xrate[ga]
        xl = side.xlive[fa] & side.ok_b[fb][:, None]
        xc = side.xcoef[fb]
        if side.x_kept:
            xc = xc * side.scale[fa][:, None]
        else:
            xc, xl, _ = _merge_rows(xc, xr, xl)
            xc, xl, _ = _prune_rows(xc, xr, xl)
            xc = xc * side.scale[fa][:, None]
            xl &= np.isfinite(xc).all(axis=1)[:, None]
            xc, xl, _ = _prune_rows(np.where(xl, xc, 0.0), xr, xl)
        ok = xl.any(axis=1)  # an X side left, in a cell that can close
        idx = side.order[ga] + (np.arange(len(ga)) * side.order.shape[1])[:, None]
        coefs = np.concatenate((side.ycoef[fi], -xc), axis=1).ravel()[idx]
        live = np.concatenate((side.ylive[gi] & ok[:, None], xl), axis=1).ravel()[idx]
        rates = side.rates[ga]
        coefs, live, merged = _merge_rows(coefs, rates, live)
        coefs, live, pruned = _prune_rows(coefs, rates, live)
        nonempty = live.any(axis=1)
        # a term can only have been pruned, and a live entry follow a dead
        # one, where the X side or the difference lost an entry
        dropped = pruned or not side.x_kept
        closed = nonempty
        if dropped:
            closed = nonempty & ~_pruned_slow_term(live, rates, side.ylive[gi], side.yrate[gi],
                                                   xl, xr)
            live &= closed[:, None]
    kind = np.where(closed, _CLOSED, _SAMPLED)
    empty = ok & ~nonempty
    if empty.any():
        b = np.array([b for _, b in cells] * nf)[empty]
        kind[empty] = np.where(b >= 0, _DEGENERATE, _LEFT)
    exps = side.exps[ga]
    if not (dropped or merged or np.count_nonzero(closed) < len(closed)):
        # every row closed, its live entries right-aligned already
        return _Closed(tuple(forms), cells, kind,
                       _Terms(coefs, rates, live, np.where(live, exps, 1.0)))
    return _Closed(tuple(forms), cells, kind, _compact(coefs, rates, live, exps))


class _Sides(NamedTuple):
    """The sides of a batch's forms, the terms right-aligned to the most any
    form has, in front of them dead entries of coefficient 0 and rate -inf.

    Forms whose sides have the same rates (the density and survival forms
    do) share a group, and what depends on rates alone comes per group:
    the Y rates and live mask, and per group and distinct slope a (row
    g * len(a_vals) + i) the X rates r a, and of the columns Y then X the
    stable order by rate, the rates (the padding's 1, as in _Terms) and
    the exps in that order.  group holds each form's group.

    Per form: the Y coefficients.  Per form and distinct intercept b (row
    f * len(b_vals) + j): the X coefficients composed at b, c exp(-r b),
    and whether a cell there can close (not at b < 0 without a left sign,
    nor where c exp(-r b) overflows).  Per form and distinct slope: whether
    each X term is live (not where the scale a^k / ex is 0 or a rate
    leaves (0, inf)) and the scale.

    x_kept says that composing and scaling keep every X term of every row
    as it is: no two X rates at a slope lie close enough to merge, no
    composed X coefficient comes within a margin of the pruning threshold,
    and no scaled one leaves the normal floats."""

    group: list
    yrate: np.ndarray
    ylive: np.ndarray
    xrate: np.ndarray
    order: np.ndarray
    rates: np.ndarray
    exps: np.ndarray
    ycoef: np.ndarray
    xcoef: np.ndarray
    ok_b: np.ndarray
    xlive: np.ndarray
    scale: np.ndarray
    x_kept: bool


def _side_tables(forms, a_vals, b_vals) -> _Sides:
    """The _Sides of forms over the distinct slopes a_vals and intercepts
    b_vals, each value by the operations a _Form and ExpPoly steps apply to
    it; the exponentials come from math.exp, once per group and slope or
    intercept."""
    na = len(a_vals)
    ny, nx = (max(len(form.sides[k].terms) for form in forms) for k in (0, 1))
    slopes, inf = np.array(a_vals), math.inf
    groups: dict = {}
    group, yrate, columns, eb = [], [], [], []
    ys, xb, ok_b, xlive, scale = [], [], [], [], []
    x_kept = True
    for form in forms:
        live = np.zeros((na, nx), dtype=bool)
        xlive.append(live)
        hy, hx = form.sides
        (cy, ry), (cx, rx) = zip(*hy.terms), zip(*hx.terms)
        py, px = ny - len(ry), nx - len(rx)
        g = groups.setdefault((ry, rx), len(groups))
        group.append(g)
        if g == len(yrate):
            yrate.append([-inf] * py + list(ry))
            col = np.full((na, ny + nx), -inf)
            col[:, py:ny] = ry
            col[:, ny + px:] = np.multiply.outer(slopes, rx)
            columns.append(col)
            # merging within the X side compares neighbours, as _merge_rows
            x_kept = x_kept and not np.count_nonzero(
                np.diff(col[:, ny + px:], axis=1) <= RATE_MERGE_REL * col[:, -1:])
            eb.append({b: [_exp_or_inf(-r * b) for r in rx] for b in b_vals})
        xr, e = columns[g][:, ny + px:], eb[g]
        ys.append([0.0] * py + list(cy))
        sc = [a ** form.k / form.ex for a in a_vals]
        used = (np.array(sc) != 0.0) & (xr[:, 0] > 0.0) & (xr[:, -1] < inf)
        live[:, px:] = used[:, None]
        scale += sc
        used = [s for s, ok in zip(sc, used.tolist()) if ok] or [1.0]
        s_lo, s_hi = min(used), max(used)
        left = form.left is not None
        for b in b_vals:
            composed = [c * x for c, x in zip(cx, e[b])]
            xb += [0.0] * px
            xb += composed
            ok_b.append((b >= 0 or left) and all(map(math.isfinite, composed)))
            if ok_b[-1] and x_kept:
                mags = list(map(abs, composed))
                low, top = min(mags), max(mags)
                x_kept = low >= PRUNE_REL * top * (1.0 + 1e-9) > 0.0 \
                    and low * s_lo >= 1e-300 and top * s_hi <= 1e300
    m = ny + nx
    columns = np.concatenate(columns)
    # the clamp at _EXP_HI never acts on -r ROOT_WIDTH <= 0; the padding's
    # exps are inf until _closed_cells sets the dead entries' to 1
    z = np.maximum(-columns * ROOT_WIDTH, _EXP_LO)
    exps = np.array(list(map(math.exp, z.ravel().tolist())))
    order = np.argsort(columns, axis=1, kind="stable")
    flat = order + (np.arange(len(order)) * m)[:, None]
    rates = columns.ravel()[flat]
    rates[rates == -inf] = 1.0  # the padding, as in _Terms
    yrate = np.array(yrate)
    return _Sides(group, yrate, yrate > -inf, columns[:, ny:], order, rates, exps[flat],
                  np.array(ys), np.array(xb).reshape(-1, nx), np.array(ok_b),
                  np.concatenate(xlive), np.array(scale), x_kept)


def _pruned_slow_term(live, rates, ylive, yrate, xlive, xrate):
    """Rows of a merged table (live, rates) where a term of the Y side
    (ylive, yrate) or the scaled X side (xlive, xrate) slower than the row's
    slowest kept term has no term of the other side within RATE_MERGE_REL
    of the larger last rate: it was pruned, not cancelled."""
    rows = np.arange(len(rates))
    slowest = rates[rows, np.argmax(live, axis=1)][:, None]
    last_x = xrate[rows, xrate.shape[1] - 1 - np.argmax(xlive[:, ::-1], axis=1)]
    tol = RATE_MERGE_REL * np.maximum(yrate[:, -1], last_x)
    near = ((np.abs(yrate[:, :, None] - xrate[:, None, :]) <= tol[:, None, None])
            & ylive[:, :, None] & xlive[:, None, :])
    return ((ylive & (yrate < slowest) & ~near.any(axis=2)).any(axis=1)
            | (xlive & (xrate < slowest) & ~near.any(axis=1)).any(axis=1))


def _compact(coefs, rates, live, exps) -> _Terms:
    """The table of these columns with each row's live entries right-aligned
    in order, its dead entries of coefficient 0, rate 1 and exp 1."""
    order = np.argsort(live, axis=1, kind="stable")
    order += (np.arange(len(order)) * order.shape[1])[:, None]
    coefs, rates, live, exps = (col.ravel()[order] for col in (coefs, rates, live, exps))
    return _Terms(np.where(live, coefs, 0.0), np.where(live, rates, 1.0), live,
                  np.where(live, exps, 1.0))


def _settle(closed: _Closed, allowed) -> tuple[np.ndarray, np.ndarray]:
    """(settled, free) of every row of a batch's term table, from one pass
    of the coefficient-sign rule (exppoly._sign_rule).  A _CLOSED row at
    b >= 0 (where its pattern is taken from 0) is settled when the rule
    fixes its signs, or proves it root-free, so that it has the sign of its
    slowest term throughout, and those signs match allowed.  free holds the
    root-free flags, which sampling reads (_sign_patterns)."""
    if not (closed.kind == _CLOSED).any():
        return (np.zeros(closed.kind.size, dtype=bool),) * 2
    decided, head, tail, free = _sign_rule(closed.terms)
    nonneg = np.array([b >= 0 for _, b in closed.cells] * len(closed.forms))
    # the signs alternate from the head when they change, else are the tail's
    two = decided & (head != tail)
    first = np.where(two, head, tail) * 2 - 1
    # a closed row's last entry is live
    settled = closed.terms.live[:, -1] & nonneg & (decided | free) \
        & admits(allowed, first, np.where(two, 2, 1))
    return settled, free


class _Read(NamedTuple):
    """Form f of a batch at some of its cells (_evaluate_cells), as masks
    over every cell of the batch, False at the cells not read: degenerate
    (the form zero within the deadband: X and Y indistinguishable there),
    passes (degenerate, or certain with an admissible pattern) and
    uncertain (root isolation could not separate candidates).  kind holds
    each cell's row kind, -1 where not read.  A cell's pattern is built
    only where something reads it (pattern): a closed cell's is the one
    sampling its closed form gave (exact), a sampled cell's comes from its
    entry at[i] of the row scan's batch (signscan._Batch, scanned), and a
    left cell's is the left sign alone, witnessed halfway to -b/a."""

    form: _Form
    cells: list
    kind: np.ndarray
    degenerate: np.ndarray
    passes: np.ndarray
    uncertain: np.ndarray
    exact: dict
    scanned: _Batch | None
    at: np.ndarray | None

    def pattern(self, i: int) -> SignPattern:
        """The pattern of cell i, which is not degenerate."""
        kind = self.kind[i]
        if kind == _CLOSED:
            return self.exact[i]
        if kind == _LEFT:
            a, b = self.cells[i]
            return SignPattern((self.form.left,), (-b / a / 2.0,), (), EXACT)
        return self.scanned.pattern(int(self.at[i]))

    def witnesses(self, idx):
        """(cells, x, sizes): the cells idx, none degenerate, sampled ones
        first, their witnesses end to end in that order, and how many each
        has.  The sampled cells' are read from the batch arrays."""
        sampled = self.kind[idx] == _SAMPLED
        own, rest = idx[sampled], idx[~sampled]
        x, sizes = self.scanned.witnesses(self.at[own]) if own.size else \
            (np.zeros(0), np.zeros(0, dtype=int))
        if rest.size:
            ws = [self.pattern(i).witnesses for i in rest.tolist()]
            x = np.concatenate((x, np.fromiter(chain.from_iterable(ws), float)))
            sizes = np.concatenate((sizes, [len(w) for w in ws]))
        return np.concatenate((own, rest)), x, sizes


def _evaluate_cells(closed: _Closed, f: int, idx, free, allowed) -> _Read:
    """Form f of a batch (closed) at the cells idx (an int array), judged
    against allowed, given free, the root-free flags of the batch's rows
    (_settle), as each row's kind says: degenerate, or of the form's left
    sign on (0, -b/a] at b < 0; one _sign_patterns call for the _CLOSED
    rows, each from max(0, -b/a), where at b < 0 the pattern begins with
    the left sign, each judged from its pattern; and one _scan_row call for
    the cells left to sampling, each judged from its first sign and sign
    count (patterns.admits), and degenerate where it has no sign (zero
    within the deadband)."""
    form, cells, n = closed.forms[f], closed.cells, len(closed.cells)
    kind = np.full(n, -1)
    kind[idx] = closed.kind[f * n + idx]
    degenerate = kind == _DEGENERATE
    passes = degenerate.copy()
    uncertain = np.zeros(n, dtype=bool)
    left = kind == _LEFT
    if left.any():
        passes[left] = matches((form.left,), allowed)
    exact, scanned, at = {}, None, None
    rows = np.flatnonzero(kind == _CLOSED)
    if rows.size:
        starts = [max(0.0, -b / a) for a, b in (cells[i] for i in rows.tolist())]
        patterns = _sign_patterns(_polys(closed.terms, f * n + rows), starts,
                                  free[f * n + rows].tolist())
        exact = dict(zip(rows.tolist(), patterns))
        for i, pat in exact.items():
            uncertain[i] = pat.uncertain
            passes[i] = not pat.uncertain and matches(pat, allowed)
    rest = np.flatnonzero(kind == _SAMPLED)
    if rest.size:
        a, b = (np.array(col) for col in zip(*(cells[i] for i in rest.tolist())))
        coef = np.array([x ** form.k for x in a.tolist()])
        scanned = _scan_row(form.F, (a, b, coef), form.window(a, b), form.config,
                            form.bps(a, b), fy=form.fy)
        at = np.zeros(n, dtype=int)
        at[rest] = np.arange(rest.size)
        degenerate[rest] = scanned.count == 0
        passes[rest] = admits(allowed, scanned.first, scanned.count)
    return _Read(form, cells, kind, degenerate, passes, uncertain, exact, scanned, at)


class _Judged(NamedTuple):
    """A sweep batch as its evaluator judges it (_evaluator), by masks over
    its cells: passes (degenerate, or certain with an admissible pattern),
    degenerate and uncertain.  row holds the row of closed (f * n + i for
    form f at cell i) whose result each cell keeps; settled marks the rows
    settled from their coefficient signs and free holds every row's
    root-free flag (_settle).  reads holds, form by form, the _Read of the
    cells each form evaluated, up to the last form any cell reached."""

    closed: _Closed
    reads: list
    row: np.ndarray
    passes: np.ndarray
    degenerate: np.ndarray
    uncertain: np.ndarray
    settled: np.ndarray
    free: np.ndarray


def _evaluator(forms, allowed):
    """evaluate(cells), the _Judged of a batch of cells (a, b), for forms:
    V alone, or criterion_h's chosen form and then its partner.  The batch
    is one term table (_closed_cells) read by one pass of the
    coefficient-sign rule (_settle).  A cell takes the signs of the first
    form that settles it, a later form's only where every earlier form's
    row is _CLOSED (a degenerate one keeps the cell degenerate).  The rest
    are evaluated form by form (_evaluate_cells), a later form only on the
    cells where every earlier one showed a certain inadmissible pattern,
    and its result is kept only where it passes."""
    def evaluate(cells):
        closed = _closed_cells(forms, cells)
        settled, free = _settle(closed, allowed)
        n = len(cells)
        kind = closed.kind.reshape(len(forms), n)
        row = np.full(n, -1)
        left = np.ones(n, dtype=bool)  # cells every earlier form leaves to this one
        for f, mine in enumerate(settled.reshape(kind.shape)):
            take = np.flatnonzero(left & mine)
            row[take] = f * n + take
            left &= (kind[f] == _CLOSED) & ~mine
        passes = row >= 0
        degenerate, uncertain = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        rest, reads = np.flatnonzero(~passes), []
        for f in range(len(forms)):
            if not rest.size:
                break
            read = _evaluate_cells(closed, f, rest, free, allowed)
            reads.append(read)
            ok = read.passes[rest]
            keep = rest if f == 0 else rest[ok]
            row[keep] = f * n + keep
            for mask, got in ((passes, read.passes), (degenerate, read.degenerate),
                              (uncertain, read.uncertain)):
                mask[keep] = got[keep]
            rest = rest[~(ok | read.uncertain[rest])]
        return _Judged(closed, reads, row, passes, degenerate, uncertain, settled, free)

    return evaluate


def _witness(judged: _Judged, i: int) -> RefutationWitness | None:
    """Witness of the disallowed pattern of a batch's cell i, or None unless
    evaluating the form again at the pattern's witnesses shows every sign
    beyond the deadband."""
    read = judged.reads[judged.row[i] // len(judged.closed.cells)]
    pat = read.pattern(i)
    a, b = judged.closed.cells[i]
    vals = np.asarray(read.form(np.asarray(pat.witnesses), a, b), dtype=float)
    dead = 1e-11 * float(np.max(np.abs(vals))) if len(vals) else 0.0
    for v, sg in zip(vals, pat.signs):
        if not (v > dead if sg == "+" else v < -dead):
            return None
    return RefutationWitness(a, b, pat.signs, pat.witnesses, tuple(vals), dead)


#: Most cells per evaluation of a sweep, at least one whole row.  Each
#: evaluation's row scan has a fixed cost, about 0.45 ms on Weibull/Gamma hs
#: rows against 20-35 us per cell (2-core x86-64 host, numpy 2.4), so 128
#: scans the 72 cells of a 12 x 6 grid at once, where 64 took 60 and then
#: 12, at about 0.7 ms more.  A cap rather than the whole grid, since a
#: batch is evaluated in full: a larger one evaluates more cells past a
#: refutation in vain and holds more samples in memory at once (37k initial
#: samples for 72 cells, 31k for 60).
_BATCH_CELLS = 128


def _sweep(grid: GridSpec, forms, allowed, criterion: str, s) -> tuple[Verdict, list]:
    """The verdict of the grid for forms (see _evaluator), and its judged
    batches (_Judged) up to the verdict: evaluate the grid in batches of
    whole rows, through the one evaluator of forms, and visit, in (a, b)
    lexicographic order, only the cells that do not pass.  The batches are
    the fewest that hold at most _BATCH_CELLS cells (or one row) each, with
    the rows dealt out evenly among them, so a grid of up to _BATCH_CELLS
    cells is one evaluation, with at most one row scan per form, and no
    batch is more than a row larger than another.  The first disallowed
    pattern that re-verifies refutes and ends the sweep, so at most the
    rest of its batch is evaluated in vain; even batches keep that rest
    short (a 24 x 12 grid is three batches of 96 cells, not 120, 120 and
    48).  A disallowed pattern that does not re-verify counts as uncertain,
    and the first uncertain cell gives an inconclusive verdict its reason.
    A supported verdict's worst margin is 0 when a cell is degenerate, and
    otherwise left to the caller (_with_worst_margin)."""
    cells = list(product(grid.a_values, grid.b_values))
    rows, nb = len(grid.a_values), len(grid.b_values)
    count = -(-rows // max(1, _BATCH_CELLS // nb))
    ends = [rows * i // count * nb for i in range(count + 1)]
    judged = []
    first_uncertain = None
    scanned = 0
    for batch in map(_evaluator(forms, allowed), (cells[lo:hi] for lo, hi in zip(ends, ends[1:]))):
        for i in np.flatnonzero(~batch.passes).tolist():
            if not batch.uncertain[i]:
                witness = _witness(batch, i)
                if witness is not None:
                    return Verdict(REFUTED, criterion, s, cells_scanned=scanned + i + 1,
                                   witness=witness, grid=grid.to_dict()), judged
            if first_uncertain is None:
                first_uncertain = batch.closed.cells[i]
        scanned += len(batch.passes)
        judged.append(batch)
    if first_uncertain is not None:
        a, b = first_uncertain
        return Verdict(INCONCLUSIVE, criterion, s, cells_scanned=scanned,
                       reason=f"unresolved scan at a={a:.6g}, b={b:.6g}",
                       grid=grid.to_dict()), judged
    degenerate = any(batch.degenerate.any() for batch in judged)
    return Verdict(SUPPORTED, criterion, s, cells_scanned=scanned,
                   worst_margin=0.0 if degenerate else None, grid=grid.to_dict()), judged


def _pattern_sweep(TX, TY, s, grid: GridSpec, allowed, criterion: str) -> tuple[Verdict, list]:
    """Sweep V over the grid (see _sweep), without margins."""
    return _sweep(grid, (_v_form(TX, TY),), allowed, criterion, s)


def _with_worst_margin(verdict: Verdict, judged: list[_Judged]) -> Verdict:
    """The verdict of a sweep of V, given with its judged batches (_sweep),
    with its worst margin when it is supported without a degenerate cell:
    the smallest |V| at the witnesses of its cells, which all pass.  A
    sampled cell's witnesses are read from its row scan's batch arrays.
    The closed forms of the cells settled from their signs are built here,
    one _Terms.rows call per batch table, and their witnesses sampled in one
    _sign_patterns call, as the sweep would have sampled them.  V is
    evaluated once, on flat arrays of every witness's x, a and b; it is
    evaluated point by point, so each value is the one its cell alone would
    give, whatever the order of the cells."""
    if not (verdict.supported and verdict.worst_margin is None and judged):
        return verdict
    groups, polys, flags, owners = [], [], [], []
    for batch in judged:
        ab = np.array(batch.closed.cells)
        cells = np.flatnonzero(batch.passes)
        rows = batch.row[cells]
        settled = batch.settled[rows]
        if settled.any():
            polys += _polys(batch.closed.terms, rows[settled])
            flags += batch.free[rows[settled]].tolist()
            owners.append(ab[cells[settled]])
        for f, read in enumerate(batch.reads):
            mine, x, sizes = read.witnesses(cells[~settled & (rows // len(ab) == f)])
            groups.append((ab[mine], x, sizes))
    if polys:
        ws = [p.witnesses for p in _sign_patterns(polys, [0.0] * len(polys), flags)]
        groups.append((np.concatenate(owners), np.fromiter(chain.from_iterable(ws), float),
                       np.array([len(w) for w in ws])))
    ab, x, sizes = (np.concatenate(col) for col in zip(*groups))
    if not x.size:
        return verdict
    # a sweep of V has one form
    form = judged[0].closed.forms[0]
    vals = np.abs(np.asarray(form(x, np.repeat(ab[:, 0], sizes), np.repeat(ab[:, 1], sizes)),
                             dtype=float))
    sizes = sizes[sizes > 0]
    least = np.minimum.reduceat(vals, np.cumsum(sizes) - sizes)
    # each cell's least |V|, then the least of those: a NaN cell changes nothing
    worst = float(np.min(least, initial=math.inf, where=~np.isnan(least)))
    return verdict if worst == math.inf else replace(verdict, worst_margin=worst)


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
    return _with_worst_margin(*_pattern_sweep(iterate(X, s), iterate(Y, s), s, grid,
                                              ALLOWED_IFR, "pattern-ifr"))


def compare_ifra(X: Distribution, Y: Distribution, s: int,
                 grid: GridSpec | None = None) -> Verdict:
    """Star-shape order check (b = 0): V(x) = tail_{Y,s}(x) - tail_{X,s}(a x)
    may change sign at most once, in the order "-,+"."""
    grid = grid or GridSpec.default(X, Y, negative_b=False)
    grid = GridSpec(grid.a_values, (0.0,))
    return _with_worst_margin(*_pattern_sweep(iterate(X, s), iterate(Y, s), s, grid,
                                              ALLOWED_IFRA, "pattern-ifra"))


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
    its closed form unless that cannot be built without losing a term;
    cells with b < 0 take the sampled scan.  The chosen form and then its
    partner go through the evaluator every sweep shares (_evaluator), which
    settles a closed cell from the coefficient signs where it can.
    """
    if form not in _PARTNER_FORM:
        raise ValueError(f"form must be one of {tuple(_PARTNER_FORM)}")
    s = _order(s, "s")
    grid = grid or GridSpec.default(X, Y, negative_b=True)
    forms = _h_forms(X, Y, s)
    pair = (forms[form], forms[_PARTNER_FORM[form]])
    verdict, _ = _sweep(grid, pair, ALLOWED_IFR, "criterion-h", s)
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
    TX, TY = iterate(X, s), iterate(Y, s)
    # the star-shape step of compare_ifra, whose margin no verdict here reports
    step1, _ = _pattern_sweep(TX, TY, s, GridSpec(grid.a_values, (0.0,)),
                              ALLOWED_IFRA, "pattern-ifra")
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
    step3 = _with_worst_margin(*_pattern_sweep(TX, TY, s, nonneg, ALLOWED_IFR, "pattern-ifr"))
    return Verdict(step3.outcome, "newcrit", s,
                   cells_scanned=step1.cells_scanned + step2.cells_scanned
                   + step3.cells_scanned,
                   worst_margin=step3.worst_margin, witness=step3.witness,
                   reason=step3.reason, grid=grid.to_dict())


def _monotone_verdict(fn, criterion: str, s) -> Verdict:
    """Supported iff fn, a function of the tail level u, is nonincreasing on
    (1e-6, 1 - 1e-6).

    Works on 512 log-spaced sampled values directly (a pair of levels whose
    values rise beyond the tolerance is a certificate irrespective of
    resolution), with a few bisection rounds to tighten the witness pair.
    The tolerance, 1e-9 of the largest |value|, is relative, so flat
    stretches carry no evidence and a constant function counts as
    monotone."""
    xs = np.geomspace(1e-6, 1.0 - 1e-6, 512)
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
    tol = 1e-9 * scale

    for _ in range(6):
        bad = np.nonzero(vals[1:] - vals[:-1] > tol)[0]
        if bad.size == 0:
            break
        mids = 0.5 * (xs[bad] + xs[bad + 1])
        mvals = np.asarray(fn(mids), dtype=float)
        keep = np.isfinite(mvals)
        xs = np.concatenate([xs, mids[keep]])
        vals = np.concatenate([vals, mvals[keep]])
        order = np.argsort(xs, kind="stable")
        xs, vals = xs[order], vals[order]

    diffs = vals[1:] - vals[:-1]
    bad = np.nonzero(diffs > tol)[0]
    if bad.size == 0:
        return Verdict(SUPPORTED, criterion, s, cells_scanned=1)
    worst = int(bad[int(np.argmax(diffs[bad]))])
    pair_x = (float(xs[worst]), float(xs[worst + 1]))
    pair_v = (float(vals[worst]), float(vals[worst + 1]))
    witness = RefutationWitness(None, None, ("+",), pair_x, pair_v, tol)
    return Verdict(REFUTED, criterion, s, cells_scanned=1, witness=witness)


def compare_dmrl(X: Distribution, Y: Distribution) -> Verdict:
    """Mean-residual-life order: the ratio of second-iterate tails composed
    with the first-iterate quantiles must be nonincreasing on (0, 1).
    A constant ratio (X and Y indistinguishable) counts as nonincreasing."""
    TX1, TX2 = iterate(X, 1), iterate(X, 2)
    TY1, TY2 = iterate(Y, 1), iterate(Y, 2)

    def d(u):
        ua = np.asarray(u, dtype=float)
        return np.asarray(TY2.eval_tail(TY1.tail_inverse(ua)), dtype=float) \
            / np.asarray(TX2.eval_tail(TX1.tail_inverse(ua)), dtype=float)

    return _monotone_verdict(d, "dmrl", None)


def convexity_check(X: Distribution, Y: Distribution, s: int) -> Verdict:
    """Direct check that the transform c_s = tail_{Y,s}^{-1} o tail_{X,s}
    is convex: its slope, written as a function of the common tail level u
    (so kinks are sampled exactly), must be nonincreasing in u.
    Independent of the pattern sweeps, for cross-checking.
    """
    TXs, TYs = iterate(X, s), iterate(Y, s)
    if s == 1:
        num_low: Callable = X.density
        den_low: Callable = Y.density
    else:
        num_low, den_low = iterate(X, s - 1).eval_tail, iterate(Y, s - 1).eval_tail
    mu_x, mu_y = TXs.normalizer, TYs.normalizer

    def slope_at_level(u):
        ua = np.asarray(u, dtype=float)
        qx = TXs.tail_inverse(ua)
        qy = TYs.tail_inverse(ua)
        num = np.asarray(num_low(qx), dtype=float) / mu_x
        den = np.asarray(den_low(qy), dtype=float) / mu_y
        return num / den

    return _monotone_verdict(slope_at_level, "convexity", s)
