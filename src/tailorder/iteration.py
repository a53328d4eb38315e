"""s-iterated tail distributions, iterated moments, and residual-life
partial moments.

The s-iterate of a lifetime distribution is the normalized residual moment

    tail_s(x) = E (X - x)_+^{s-1} / E X^{s-1},

equivalently the result of s repeated tail-normalization steps.  Closed
forms are used for every catalog variant (exponential polynomials for
exponential-type tails, incomplete-gamma sums for Gamma and Weibull,
explicit piecewise forms for the branched Pareto up to s = 2).  A
construction-time cross-check guards the transcriptions: it evaluates the
defining integral E (X - x)_+^{s-1} from the density alone, by one
double-exponential rule over all of its abscissae (0.25, 1 and 2 times the
mean, plus breakpoints), which halves its step only where its estimate has
not settled, and requires agreement to 1e-7.
residual_partial_moment, which serves Holder bounds and iterates of
numerically given densities, stays adaptive quadrature.
The exponential distribution is the fixed point of the iteration.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special

from .distributions import (
    BranchedPareto,
    Distribution,
    Gamma,
    NumericDensity,
    PolyExpExample,
    Weibull,
    _bisect_tail,
)
from .errors import InfiniteMoment
from .exppoly import ExpPoly

__all__ = ["IteratedTail", "iterate", "iterated_moment", "residual_partial_moment"]

_CROSS_CHECK_TOL = 1e-7

# Double-exponential nodes of the cross-check rule over |tau| <= 4.5.  With
# y = (pi/2) sinh(tau), tanh-sinh maps tau onto (0, 1) as sigma(2y), sigma
# the logistic function (so the node's distance from either end carries no
# cancellation), and exp-sinh maps it onto (0, inf) as e^y.  The step starts
# at 1/32 and is halved, at most _DE_LEVELS times, at the abscissae whose
# estimate still moves by more than _DE_SETTLE.
_DE_STEP = 1.0 / 32.0
_DE_HALF_SPAN = 144          # 4.5 / _DE_STEP
_DE_LEVELS = 7               # finest step 1/4096
_DE_SETTLE = 1e-10


@lru_cache(maxsize=None)
def _de_nodes(level: int):
    """Tanh-sinh nodes and weights, then exp-sinh nodes and weights, at step
    _DE_STEP / 2^level: every multiple of the step at level 0, only the odd
    ones (those new to the level) above it.  Weights include the step."""
    n = _DE_HALF_SPAN << level
    j = np.arange(-n, n + 1)
    if level:
        j = j[1::2]
    h = _DE_STEP / (1 << level)
    y = 0.5 * math.pi * np.sinh(h * j)
    dy = h * 0.5 * math.pi * np.cosh(h * j)
    ts = 1.0 / (1.0 + np.exp(-2.0 * y))
    es = np.exp(y)
    return ts, 2.0 * dy * ts / (1.0 + np.exp(2.0 * y)), es, dy * es


def iterated_moment(d: Distribution, s: int) -> float:
    """Normalizing constant of the s-iterate: (1/s) E X^s / E X^{s-1}."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    return d.raw_moment(s) / (s * d.raw_moment(s - 1))


def residual_partial_moment(d: Distribution, k: int, x: float) -> float:
    """E (X - x)_+^k = integral of f(t) (t - x)^k over t >= x, x >= 0 (0
    at x = inf), by adaptive quadrature."""
    from scipy import integrate

    if k < 0 or k != int(k):
        raise ValueError("k must be a nonnegative integer")
    if not x >= 0:
        raise ValueError("x must be nonnegative (not NaN)")
    k = int(k)
    moment = d.raw_moment(k)  # rejects divergent moments up front
    x = float(x)

    def fn(t):
        return float(d.density(t)) * (t - x) ** k

    # moderate finite leg (all breakpoints inside), infinite remainder after;
    # the leg scales with (E X^k)^{1/k} too, since f(t) t^k peaks far
    # beyond the mean for heavy tails at high k
    spread = d.mean() if k == 0 else max(d.mean(), moment ** (1.0 / k))
    mid = max(x + 1.0, min(d.quantile_horizon(1e-13), x + 60.0 * (1.0 + spread)))
    pts = [b for b in d.breakpoints() if x < b < mid]
    head, _ = integrate.quad(fn, x, mid, points=pts or None, limit=400,
                             epsabs=1e-12, epsrel=1e-10)
    tail, _ = integrate.quad(fn, mid, np.inf, limit=300,
                             epsabs=1e-12, epsrel=1e-10)
    return head + tail


class IteratedTail:
    """Tail of the s-iterated distribution of a base lifetime variable.

    Immutable after construction.  eval_tail is vectorized, returns values
    in [0, 1], and equals 1 for x < 0.  normalizer is the iteration
    constant of order s - 1, iterated_moment(base, s - 1), and 1.0 at s = 1.
    """

    def __init__(self, base: Distribution, s: int, kind: str,
                 eval_positive: Callable, poly: ExpPoly | None = None,
                 tail_inverse: Callable | None = None):
        self.base = base
        self.s = int(s)
        self.kind = kind
        self._eval_positive = eval_positive
        self.poly = poly
        self._tail_inverse = tail_inverse
        self.normalizer = iterated_moment(base, self.s - 1) if self.s > 1 else 1.0

    # -- evaluation -----------------------------------------------------

    def eval_tail(self, x):
        xa = np.asarray(x, dtype=float)
        vals = np.clip(self._eval_positive(np.maximum(xa, 0.0)), 0.0, 1.0)
        vals = np.where(xa < 0, 1.0, vals)
        return float(vals) if xa.ndim == 0 else vals

    def log_tail(self, x):
        """log tail_s(x), computed stably near 0 for exponential-polynomial
        representations (where the complement is an expm1 sum)."""
        xa = np.asarray(x, dtype=float)
        direct = np.log(np.maximum(self.eval_tail(xa), 1e-300))
        if self.poly is not None:
            # near the origin the complement is an expm1 sum, exact where
            # the direct log loses digits; far out the direct log is exact
            cdf = np.zeros(xa.shape)
            for c, r in self.poly.terms:
                cdf += c * (-np.expm1(-r * np.maximum(xa, 0.0)))
            with np.errstate(divide="ignore", invalid="ignore"):
                stable = np.log1p(-cdf)
            out = np.where(cdf < 0.5, stable, direct)
        else:
            out = direct
        out = np.where(xa < 0, 0.0, out)
        return float(out) if xa.ndim == 0 else out

    def tail_inverse(self, p):
        pa = np.asarray(p, dtype=float)
        if not np.all((pa > 0) & (pa <= 1)):
            raise ValueError("tail_inverse requires p in (0, 1]")
        if self._tail_inverse is not None:
            out = self._tail_inverse(pa)
        else:
            out = _bisect_tail(self._eval_positive, pa, self.base.quantile_hint() * (1 + self.s))
        if pa.ndim == 0:
            return float(np.asarray(out).reshape(-1)[0])
        return out

    def quantile_horizon(self, eps: float = 1e-10) -> float:
        return float(self.tail_inverse(np.asarray(min(eps, 1.0))))


# ----------------------------------------------------------------------
# closed forms per variant
# ----------------------------------------------------------------------


def _exppoly_iterate(poly: ExpPoly, s: int) -> ExpPoly:
    """Iterating an exponential-polynomial tail divides each coefficient by
    rate**(s-1) and renormalizes so the tail is 1 at the origin."""
    weighted = [(c / r ** (s - 1), r) for c, r in poly.terms]
    den = math.fsum(c for c, _ in weighted)
    if den <= 0:
        raise InfiniteMoment("nonpositive normalization; invalid tail")
    return ExpPoly(tuple((c / den, r) for c, r in weighted))


def _gamma_eval(alpha: float, theta: float, s: int) -> Callable:
    lg = special.gammaln
    coefs = [math.comb(s - 1, k) * math.exp(lg(alpha + k) - lg(alpha + s - 1))
             for k in range(s)]

    def ev(x):
        z = np.asarray(x, dtype=float) / theta
        acc = np.zeros(z.shape)
        for k in range(s):
            acc += coefs[k] * (-z) ** (s - 1 - k) * special.gammaincc(alpha + k, z)
        return acc

    return ev


def _weibull_eval(alpha: float, theta: float, s: int) -> Callable:
    lg = special.gammaln
    den = lg(1.0 + (s - 1) / alpha)
    coefs = [math.comb(s - 1, k) * math.exp(lg(1.0 + k / alpha) - den)
             for k in range(s)]
    orders = [1.0 + k / alpha for k in range(s)]

    def ev(x):
        z = np.asarray(x, dtype=float) / theta
        acc = np.zeros(z.shape)
        za = z ** alpha
        for k in range(s):
            acc += coefs[k] * (-z) ** (s - 1 - k) * special.gammaincc(orders[k], za)
        return acc

    return ev


def _polyexp_eval(c: float, s: int) -> Callable:
    den = s * (s + 1) + c

    def ev(x):
        xa = np.asarray(x, dtype=float)
        return (xa ** 2 + 2 * s * xa + s * (s + 1) + c) * np.exp(-xa) / den

    return ev


def _bp2_eval(c1: float, c2: float) -> Callable:
    den = 3 * c1 + c2

    def ev(x):
        xa = np.asarray(x, dtype=float)
        left = (4.0 / den) * (c1 ** 2 / (xa + c1) + (c2 - c1) / 4.0)
        right = (c1 + c2) ** 2 / (den * (xa + c2))
        return np.where(xa <= c1, left, right)

    return ev


def _bp2_inverse(c1: float, c2: float) -> Callable:
    den = 3 * c1 + c2
    threshold = (c1 + c2) / den

    def inv(p):
        pa = np.asarray(p, dtype=float)
        low = (c1 + c2) ** 2 / (den * pa) - c2
        high = 4.0 * c1 ** 2 / (den * pa - (c2 - c1)) - c1
        return np.where(pa <= threshold, low, np.maximum(high, 0.0))

    return inv


def _quadrature_eval(d: Distribution, s: int) -> Callable:
    den = residual_partial_moment(d, s - 1, 0.0)

    def ev(x):
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        vals = np.array([residual_partial_moment(d, s - 1, float(v)) / den for v in xa])
        return vals if np.ndim(x) else vals[0]

    return ev


def _rule_tails(d: Distribution, s: int, xs) -> np.ndarray:
    """tail_s(x) = E (X - x)_+^{s-1} / E X^{s-1} at every x of xs (s >= 2),
    from the density alone.

    One double-exponential rule: tanh-sinh panels from x to each breakpoint
    and to the mean beyond it, then an exp-sinh leg t = b + unit
    e^{(pi/2) sinh tau} from the last of them (or from x) to infinity.  The
    unit is (E X^{s-1})^{1/(s-1)}, the mean at s = 2, which puts the bulk of
    the integrand near tau = 0 even where it lies far out (a Weibull of
    shape 0.1 at s = 12 has it near 1e13 means).  Nodes crowd at the ends of
    panels, so the mean as a panel end resolves a narrow peak around it,
    however far it lies from x.  The estimate at step 1/32 is compared with
    its own every-other-node subset (step 1/16); where the two differ by
    more than _DE_SETTLE, the step is halved, on the new nodes only, until
    successive estimates agree or the step reaches 1/4096.  Against mpmath
    the rule is within 1e-12 for Gamma shapes 0.3 to 1000 and Weibull
    shapes 0.1 to 1000, and within 1e-8 for Gamma shapes up to 1e7, where
    the density's own rounding is the limit.  Each level evaluates the
    density once, on the nodes of every abscissa it refines; a non-finite
    value raises instead of being read as zero.
    """
    k = s - 1
    unit = d.raw_moment(k) ** (1.0 / k)
    xs = np.asarray(xs, dtype=float)
    bps = d.breakpoints()
    mean = d.mean()

    def level_terms(level, which):
        """weight * f(t) * ((t - x) / unit)^k on the level's nodes for the
        abscissae xs[which], leg after leg, and where each abscissa's terms
        start."""
        ts, ts_w, es, es_w = _de_nodes(level)
        offsets, weights, counts = [], [], []
        for x in xs[which]:
            ends = [x] + sorted(b for b in {*bps, mean} if b > x)
            for a, b in zip(ends, ends[1:]):
                offsets.append((a - x) + (b - a) * ts)
                weights.append((b - a) * ts_w)
            offsets.append((ends[-1] - x) + unit * es)
            weights.append(unit * es_w)
            counts.append(len(ends) * ts.size)
        u = np.concatenate(offsets)
        w = np.concatenate(weights)
        f = d.density(np.repeat(xs[which], counts) + u)
        if not np.all(np.isfinite(f)):
            raise ValueError(f"{d!r}: non-finite density on the cross-check nodes")
        # with t - x in units, the terms sum to tail_s itself; on the far
        # exp-sinh nodes (~1e31 units out) the power can overflow where the
        # density has underflowed to 0, so terms are formed only where it is
        # positive, and must come out finite
        live = f > 0
        terms = np.zeros_like(u)
        with np.errstate(over="ignore"):
            terms[live] = f[live] * w[live] * (u[live] / unit) ** k
        if not np.all(np.isfinite(terms)):
            raise ValueError(f"{d!r}: the cross-check integrand overflows")
        return terms, np.cumsum(counts) - counts

    terms, starts = level_terms(0, np.arange(xs.size))
    est = np.add.reduceat(terms, starts)
    # every leg holds the level-0 nodes in order, so the terms at even
    # places in it are the rule at twice the step
    even = np.arange(terms.size) % _de_nodes(0)[0].size % 2 == 0
    prev = 2.0 * np.add.reduceat(np.where(even, terms, 0.0), starts)
    which = np.flatnonzero(np.abs(est - prev) > _DE_SETTLE)
    for level in range(1, _DE_LEVELS + 1):
        if not which.size:
            break
        terms, starts = level_terms(level, which)
        prev = est[which]
        est[which] = 0.5 * prev + np.add.reduceat(terms, starts)
        which = which[np.abs(est[which] - prev) > _DE_SETTLE]
    return est


def _cross_check(it: IteratedTail) -> None:
    """Closed forms are transcription-prone: compare against the defining
    integral at a few abscissae once per construction."""
    d = it.base
    mean = d.mean()
    points = [0.25 * mean, mean, 2.0 * mean] + [float(b) for b in d.breakpoints()]
    direct = _rule_tails(d, it.s, points)
    closed = it.eval_tail(np.array(points))
    for x, want, got in zip(points, direct, closed):
        if not abs(want - got) <= _CROSS_CHECK_TOL:
            raise AssertionError(
                f"iterated tail mismatch at x={x:.6g}: closed={got!r} rule={want!r}")


@lru_cache(maxsize=512)
def _iterate_cached(d: Distribution, s: int) -> IteratedTail:
    if s == 1:
        # a numerically given density integrates its tail even at s = 1
        kind = "quadrature" if isinstance(d, NumericDensity) else "base"
        return IteratedTail(d, 1, kind, lambda x: d.tail(x),
                            poly=d.exp_poly_tail(),
                            tail_inverse=lambda p: d.tail_inverse(p))
    base_poly = d.exp_poly_tail()
    if base_poly is not None:
        d.raw_moment(s - 1)
        poly = _exppoly_iterate(base_poly, s)
        inverse = None
        if len(poly.terms) == 1:
            rate = poly.terms[0][1]
            inverse = lambda p: -np.log(p) / rate
        return IteratedTail(d, s, "exppoly", poly.eval, poly=poly,
                            tail_inverse=inverse)
    if isinstance(d, BranchedPareto):
        if s >= 3:
            raise InfiniteMoment("branched Pareto admits iterates up to s = 2 only")
        it = IteratedTail(d, 2, "piecewise", _bp2_eval(d.c1, d.c2),
                          tail_inverse=_bp2_inverse(d.c1, d.c2))
        _cross_check(it)
        return it
    if isinstance(d, Gamma):
        it = IteratedTail(d, s, "special", _gamma_eval(d.shape, d.scale, s))
        _cross_check(it)
        return it
    if isinstance(d, Weibull):
        it = IteratedTail(d, s, "special", _weibull_eval(d.shape, d.scale, s))
        _cross_check(it)
        return it
    if isinstance(d, PolyExpExample):
        it = IteratedTail(d, s, "special", _polyexp_eval(d.c, s))
        _cross_check(it)
        return it
    d.raw_moment(s - 1)
    return IteratedTail(d, s, "quadrature", _quadrature_eval(d, s))


def iterate(d: Distribution, s: int) -> IteratedTail:
    """Construct the s-iterate of d.  Requires E X^{s-1} finite.

    Results are cached per (distribution, order) so the normalization chain
    is computed once and shared by every evaluation.
    """
    if s < 1 or s != int(s):
        raise ValueError("s must be a positive integer")
    return _iterate_cached(d, int(s))
