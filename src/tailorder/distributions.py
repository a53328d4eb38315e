"""Catalog of lifetime distributions on [0, inf) with density, tail,
raw moments, tail inverse, and support breakpoints.

Every variant is immutable after construction and vectorized: the
pointwise methods accept scalars or numpy arrays.  The tail is extended
by tail(x) = 1 for x < 0 and satisfies tail(0) = 1 exactly.
"""
from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import InfiniteMoment
from .exppoly import ExpPoly

__all__ = [
    "Distribution",
    "Exponential",
    "Gamma",
    "Weibull",
    "BranchedPareto",
    "PolyExpExample",
    "MaxExp",
    "ExpPolyTail",
    "NumericDensity",
    "parse_distribution",
]


def _as_array(x):
    return np.asarray(x, dtype=float)


def _order(value, name: str, least: int = 1) -> int:
    """value as an iteration or moment order: a real integer of at least
    least, 1 or (for a moment order) 0.  An order that is infinite, NaN,
    fractional or below least raises a ValueError that names the
    parameter."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)
            and value == int(value) and value >= least):
        kind = "positive" if least else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def _maybe_scalar(values, x):
    if np.ndim(x) == 0:
        arr = np.asarray(values)
        return float(arr) if arr.ndim == 0 else float(arr.reshape(-1)[0])
    return values


def _require_positive(**params):
    """Raise ValueError naming the first of params that is not a finite
    positive number; the check is a negated comparison, so NaN fails it."""
    for name, value in params.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _closed_form(moment):
    """A closed-form _raw_moment that raises InfiniteMoment where E X^k
    overflows a float: a power of the scale, or a gamma function, past the
    largest float (OverflowError or inf), or a power of a rate below the
    smallest one (ZeroDivisionError)."""
    def raw_moment(self, k):
        try:
            value = moment(self, k)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if value == math.inf:
            raise InfiniteMoment(f"E X^{k} overflows a float")
        return value
    return raw_moment


class Distribution:
    """Common interface; subclasses implement the positive-support parts."""

    def density(self, x):
        """f(x) for x >= 0; right-continuous at breakpoints."""
        xa = _as_array(x)
        if np.any(xa < 0):
            raise ValueError("density is defined for x >= 0")
        return _maybe_scalar(self._density(xa), x)

    def tail(self, x):
        """Survival function, extended by 1 for x < 0."""
        xa = _as_array(x)
        vals = np.where(xa < 0, 1.0, np.clip(self._tail(np.maximum(xa, 0.0)), 0.0, 1.0))
        return _maybe_scalar(vals, x)

    def raw_moment(self, k: int) -> float:
        """E X^k; raises InfiniteMoment when it diverges or, in closed
        form, overflows a float."""
        k = _order(k, "k", 0)
        if k == 0:
            return 1.0
        return self._raw_moment(k)

    def mean(self) -> float:
        return self.raw_moment(1)

    def tail_inverse(self, p):
        """x with tail(x) = p, for p in (0, 1]."""
        pa = _as_array(p)
        if not np.all((pa > 0) & (pa <= 1)):
            raise ValueError("tail_inverse requires p in (0, 1]")
        return _maybe_scalar(self._tail_inverse(pa), p)

    def breakpoints(self) -> tuple[float, ...]:
        """Sorted non-smooth points of density/tail; possibly empty."""
        return ()

    def exp_poly_tail(self) -> ExpPoly | None:
        """The tail as an exponential polynomial when it is one."""
        return None

    def quantile_horizon(self, eps: float = 1e-12) -> float:
        """x with tail(x) <= eps; used to bound scan and integration windows."""
        return self.tail_inverse(min(eps, 1.0))

    # hooks -------------------------------------------------------------

    def _tail_inverse(self, p):
        return _bisect_tail(self._tail, p, self.quantile_hint())

    def quantile_hint(self) -> float:
        """Rough upper bound for bracketing the tail inverse."""
        return 10.0 * max(self.mean(), 1.0)


def _bisect_tail(tail, p, hint, tol=1e-10):
    """Vectorized monotone bisection for tail(x) = p, absolute tolerance in x."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    hi = float(hint)
    pmin = float(np.min(p))
    for _ in range(200):
        if float(np.min(tail(np.asarray(hi)))) <= pmin:
            break
        hi *= 2.0
    lo = np.zeros_like(p)
    hi = np.full_like(p, hi)
    for _ in range(max(64, int(math.ceil(math.log2(max(hi.max(), 1.0) / tol))) + 2)):
        mid = 0.5 * (lo + hi)
        above = tail(mid) > p
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        if float(np.max(hi - lo)) <= tol:
            break
    out = 0.5 * (lo + hi)
    out = np.where(p >= 1.0, 0.0, out)
    return out if out.shape else float(out)


# ----------------------------------------------------------------------
# variants
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float

    def __post_init__(self):
        _require_positive(rate=self.rate)

    def _density(self, x):
        return self.rate * np.exp(-self.rate * x)

    def _tail(self, x):
        return np.exp(-self.rate * x)

    @_closed_form
    def _raw_moment(self, k):
        return math.factorial(k) / self.rate ** k

    def _tail_inverse(self, p):
        return -np.log(p) / self.rate

    def exp_poly_tail(self):
        return ExpPoly(((1.0, self.rate),))


@dataclass(frozen=True)
class Gamma(Distribution):
    shape: float
    scale: float = 1.0

    def __post_init__(self):
        _require_positive(shape=self.shape, scale=self.scale)

    def _density(self, x):
        z = x / self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = special.xlogy(self.shape - 1.0, z) - z \
                - special.gammaln(self.shape) - math.log(self.scale)
            out = np.exp(logpdf)
        if self.shape < 1.0:
            out = np.where(z == 0.0, np.inf, out)
        elif self.shape == 1.0:
            out = np.where(z == 0.0, 1.0 / self.scale, out)
        else:
            out = np.where(z == 0.0, 0.0, out)
        return out

    def _tail(self, x):
        return special.gammaincc(self.shape, x / self.scale)

    @_closed_form
    def _raw_moment(self, k):
        return self.scale ** k * math.exp(special.gammaln(self.shape + k)
                                          - special.gammaln(self.shape))

    def quantile_hint(self):
        return 10.0 * self.scale * (self.shape + 10.0)


@dataclass(frozen=True)
class Weibull(Distribution):
    shape: float
    scale: float = 1.0

    def __post_init__(self):
        _require_positive(shape=self.shape, scale=self.scale)

    def _density(self, x):
        z = x / self.scale
        a = self.shape
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            decay = np.exp(-(z ** a))
            out = (a / self.scale) * z ** (a - 1.0) * decay
        if a < 1.0:
            out = np.where(z == 0.0, np.inf, out)
        elif a == 1.0:
            out = np.where(z == 0.0, 1.0 / self.scale, out)
        else:
            # far out z ** (a - 1) overflows (z ** a with it) once exp(-z ** a)
            # has underflowed: the density is 0 there, not inf * 0
            out = np.where((z == 0.0) | (decay == 0.0), 0.0, out)
        return out

    def _tail(self, x):
        return np.exp(-((x / self.scale) ** self.shape))

    @_closed_form
    def _raw_moment(self, k):
        return self.scale ** k * math.gamma(1.0 + k / self.shape)

    def _tail_inverse(self, p):
        return self.scale * (-np.log(p)) ** (1.0 / self.shape)


@dataclass(frozen=True)
class BranchedPareto(Distribution):
    """Piecewise Pareto-type survival function with a kink at c1.

    tail(x) = c1^2/(x+c1)^2 on [0, c1] and (c1+c2)^2 / (4 (x+c2)^2) beyond;
    the two branches agree (value 1/4) at x = c1.  Moments of order >= 2
    diverge.
    """

    c1: float
    c2: float

    def __post_init__(self):
        _require_positive(c1=self.c1, c2=self.c2)

    def _density(self, x):
        left = 2.0 * self.c1 ** 2 / (x + self.c1) ** 3
        right = (self.c1 + self.c2) ** 2 / (2.0 * (x + self.c2) ** 3)
        return np.where(x < self.c1, left, right)

    def _tail(self, x):
        left = (self.c1 / (x + self.c1)) ** 2
        right = ((self.c1 + self.c2) / (2.0 * (x + self.c2))) ** 2
        return np.where(x <= self.c1, left, right)

    @_closed_form
    def _raw_moment(self, k):
        if k >= 2:
            raise InfiniteMoment(f"E X^{k} diverges for the branched Pareto tail")
        return (3.0 * self.c1 + self.c2) / 4.0

    def _tail_inverse(self, p):
        low = (self.c1 + self.c2) / (2.0 * np.sqrt(p)) - self.c2   # p <= 1/4
        high = self.c1 / np.sqrt(p) - self.c1                      # p > 1/4
        return np.where(p <= 0.25, low, high)

    def breakpoints(self):
        return (self.c1,)


@dataclass(frozen=True)
class PolyExpExample(Distribution):
    """Density (x^2 + c) e^{-x} / (c + 2) with c > 0.

    For c in (0, 2) the failure rate starts decreasing and later increases,
    while the once-iterated failure rate is increasing throughout.
    """

    c: float

    def __post_init__(self):
        _require_positive(c=self.c)

    def _density(self, x):
        return (x ** 2 + self.c) * np.exp(-x) / (self.c + 2.0)

    def _tail(self, x):
        return (x ** 2 + 2.0 * x + 2.0 + self.c) * np.exp(-x) / (self.c + 2.0)

    @_closed_form
    def _raw_moment(self, k):
        return (math.factorial(k + 2) + self.c * math.factorial(k)) / (self.c + 2.0)

    def quantile_hint(self):
        return 60.0


def _maxexp_expansion(rates: Sequence[float]) -> list[tuple[float, float]]:
    """Inclusion-exclusion expansion of 1 - prod(1 - e^{-r_i x}) as
    (coefficient, rate-sum) pairs; equal rate sums are merged by ExpPoly."""
    terms: list[tuple[float, float]] = []
    n = len(rates)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            terms.append(((-1.0) ** (size + 1), sum(rates[i] for i in subset)))
    return terms


@dataclass(frozen=True)
class MaxExp(Distribution):
    """Lifetime of a parallel system of independent exponential components:
    the maximum of exponentials with the given rates (sorted ascending)."""

    rates: tuple[float, ...]

    def __init__(self, *rates):
        if len(rates) == 1 and isinstance(rates[0], (tuple, list)):
            rates = tuple(rates[0])
        if len(rates) < 2:
            raise ValueError("at least two component rates are required")
        if any(not r > 0 for r in rates):
            raise ValueError("rates must be positive")
        object.__setattr__(self, "rates", tuple(sorted(float(r) for r in rates)))
        object.__setattr__(self, "_poly", ExpPoly(_maxexp_expansion(self.rates)))

    def _density(self, x):
        return -self._poly.differentiate(1).eval(x)

    def _tail(self, x):
        return self._poly.eval(x)

    @_closed_form
    def _raw_moment(self, k):
        return math.fsum(c * math.factorial(k) / r ** k for c, r in self._poly.terms)

    def exp_poly_tail(self):
        return self._poly

    def quantile_hint(self):
        return (math.log(len(self._poly.terms)) + 40.0) / self.rates[0]


@dataclass(frozen=True)
class ExpPolyTail(Distribution):
    """General lifetime distribution given by an exponential-polynomial tail
    with tail(0) = 1 and nonnegative density."""

    poly: ExpPoly

    def __post_init__(self):
        if abs(sum(self.poly.coefficients) - 1.0) > 1e-9:
            raise ValueError("tail(0) must equal 1")
        grid = np.geomspace(1e-9, self.quantile_hint(), 256)
        dens = -self.poly.differentiate(1).eval(grid)
        if np.any(dens < -1e-12):
            raise ValueError("tail must be nonincreasing (density >= 0)")

    def _density(self, x):
        return np.maximum(-self.poly.differentiate(1).eval(x), 0.0)

    def _tail(self, x):
        return self.poly.eval(x)

    @_closed_form
    def _raw_moment(self, k):
        return math.fsum(c * math.factorial(k) / r ** k for c, r in self.poly.terms)

    def exp_poly_tail(self):
        return self.poly

    def quantile_hint(self):
        return (math.log(len(self.poly.terms) + 1) + 40.0) / self.poly.rates[0]


class NumericDensity(Distribution):
    """Escape hatch: a lifetime distribution given by a density callable.

    Requires a declared truncation point x_max with negligible tail mass
    beyond it (the working horizon), plus any known breakpoints.  All
    functionality is quadrature-backed.
    """

    def __init__(self, density: Callable, x_max: float, breakpoints: Sequence[float] = ()):
        _require_positive(x_max=x_max)
        self._f = density
        self._x_max = float(x_max)
        self._breaks = tuple(sorted(float(b) for b in breakpoints))
        if any(b < 0 or b > x_max for b in self._breaks):
            raise ValueError("breakpoints must lie inside [0, x_max]")
        norm = self._quad(lambda t: self._f(t), 0.0)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"density mass on [0, x_max] is {norm:.6g}, not 1")
        self._norm = norm
        grid = np.linspace(0.0, self._x_max, 64)
        tails = np.array([self._tail_scalar(g) for g in grid])
        if np.any(np.diff(tails) > 1e-9):
            raise ValueError("tail must be nonincreasing")
        if tails[-1] > 1e-9:
            raise ValueError("tail mass beyond x_max must be negligible")

    def _quad(self, fn, lo):
        from scipy import integrate

        pts = [b for b in self._breaks if lo < b < self._x_max]
        val, _ = integrate.quad(fn, lo, self._x_max, points=pts or None,
                                limit=200, epsabs=1e-12, epsrel=1e-10)
        return val

    def _tail_scalar(self, x):
        if x >= self._x_max:
            return 0.0
        return self._quad(self._f, x) / self._norm

    def _density(self, x):
        xa = np.asarray(x, dtype=float)
        out = np.asarray(self._f(xa), dtype=float) / self._norm
        return np.where(xa > self._x_max, 0.0, out)

    def _tail(self, x):
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        vals = np.array([self._tail_scalar(v) for v in xa])
        return vals if np.ndim(x) else vals[0]

    def _raw_moment(self, k):
        return self._quad(lambda t: self._f(t) * t ** k, 0.0) / self._norm

    def breakpoints(self):
        return self._breaks

    def quantile_hint(self):
        return self._x_max

    def quantile_horizon(self, eps: float = 1e-12):
        # the declared truncation point, for any eps the others accept
        if not eps > 0:
            raise ValueError("quantile_horizon requires eps > 0 (not NaN)")
        return self._x_max


# ----------------------------------------------------------------------
# compact literal grammar: exp(1), gamma(2,1), weibull(1.5,1),
# bpareto(5,10), polyexp(1), maxexp(1,2)
# ----------------------------------------------------------------------

_LITERAL = re.compile(r"^\s*([a-z]+)\s*\(\s*([^)]*)\)\s*$", re.IGNORECASE)

_FACTORIES = {
    "exp": (Exponential, 1, 1),
    "gamma": (Gamma, 2, 2),
    "weibull": (Weibull, 2, 2),
    "bpareto": (BranchedPareto, 2, 2),
    "polyexp": (PolyExpExample, 1, 1),
    "maxexp": (MaxExp, 2, None),
}


def parse_distribution(text: str) -> Distribution:
    """Parse a distribution literal; whitespace-insensitive, decimal params."""
    m = _LITERAL.match(text)
    if not m:
        raise ValueError(f"unrecognized distribution literal: {text!r}")
    name = m.group(1).lower()
    if name not in _FACTORIES:
        raise ValueError(f"unknown distribution family: {name!r}")
    factory, lo, hi = _FACTORIES[name]
    raw = [s for s in m.group(2).split(",") if s.strip()]
    try:
        params = [float(s) for s in raw]
    except ValueError as exc:
        raise ValueError(f"bad parameter in {text!r}: {exc}") from None
    if len(params) < lo or (hi is not None and len(params) > hi):
        arity = str(lo) if hi == lo else f"{lo} or more" if hi is None else f"{lo}..{hi}"
        raise ValueError(f"{name} takes {arity} parameters, got {len(params)}")
    return factory(*params)
