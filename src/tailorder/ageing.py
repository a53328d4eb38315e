"""Iterated failure rates and monotonicity classification.

The s-iterated failure rate is

    r_s(x) = tail_{s-1}(x) / (mu_{s-1} * tail_s(x)),

the hazard rate of the s-iterate (with tail_0 the density and mu_{s-1} the
iteration normalizer).  A distribution is s-IFR / s-DFR when r_s is
increasing / decreasing, and s-IFRA / s-DFRA when the running average
(1/x) * integral of r_s over (0, x) is.  Because r_s is the hazard of the
s-iterate, that running average equals -log(tail_s(x)) / x, which is what
the classifier scans.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, MaxExp, _order
from .errors import ClassifierDisagreement, TailUnderflow
from .exppoly import ExpPoly
from .iteration import iterate, residual_partial_moment
from .patterns import EXACT, SAMPLED, ScanConfig, SignPattern
from .signscan import exppoly_window, scan

__all__ = ["MonotoneClass", "failure_rate", "classify_ifr", "classify_ifra",
           "dfr_onset", "holder_bounds", "HolderBounds"]

INCREASING = "increasing"
DECREASING = "decreasing"
CONSTANT = "constant"
NON_MONOTONE = "non_monotone"

#: Relative variation below which a scanned rate counts as constant
#: (the exponential boundary class).
_CONSTANT_REL = 1e-9


@dataclass(frozen=True)
class MonotoneClass:
    """Monotonicity verdict for an iterated failure rate (or its average).

    turning_witnesses carries (x, direction) pairs with direction "up" or
    "down", at least one opposed pair for a non-monotone verdict; the
    change_points bracket each slope sign change.
    """

    verdict: str
    s: int
    confidence: str
    turning_witnesses: tuple[tuple[float, str], ...] = ()
    change_points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.verdict == NON_MONOTONE:
            dirs = {d for _, d in self.turning_witnesses}
            if not {"up", "down"} <= dirs:
                raise ValueError("non-monotone verdicts need opposed witnesses")


def _rate_parts(d: Distribution, s: int):
    """(numerator tail, denominator iterate, normalizer) for r_s."""
    upper = iterate(d, s)
    num = d.density if s == 1 else iterate(d, s - 1).eval_tail
    return num, upper, upper.normalizer


def failure_rate(d: Distribution, s: int, x):
    """r_s(x); raises TailUnderflow past the evaluable horizon."""
    s = _order(s, "s")
    num, upper, mu = _rate_parts(d, s)
    xa = np.asarray(x, dtype=float)
    den = mu * np.asarray(upper.eval_tail(xa), dtype=float)
    if np.any(den <= 1e-300):
        raise TailUnderflow(f"tail_{s} underflowed within the requested range")
    vals = np.asarray(num(xa), dtype=float) / den
    return float(vals) if xa.ndim == 0 else vals


def _rate_slope_poly(d: Distribution, s: int) -> ExpPoly | None:
    """Exponential-polynomial numerator of r_s' for a base whose tail is
    one, or None when every product term cancels (the exponential fixed
    point, where r_s is constant)."""
    upper = iterate(d, s).poly
    if s == 1:
        lower = d.exp_poly_tail().differentiate(1).scaled(-1.0)  # density
    else:
        lower = iterate(d, s - 1).poly
    terms = []
    dl = lower.differentiate(1)
    du = upper.differentiate(1)
    terms += [(c1 * c2, r1 + r2) for c1, r1 in dl.terms for c2, r2 in upper.terms]
    terms += [(-c1 * c2, r1 + r2) for c1, r1 in lower.terms for c2, r2 in du.terms]
    return ExpPoly.maybe(terms)


def _default_cfg(d: Distribution, s: int, cfg: ScanConfig | None) -> ScanConfig:
    """cfg, or the default configuration, with an unset x_max filled in by
    d's own window: exppoly_window of an exponential-polynomial tail, else
    the 1e-10 quantile horizon of its s-th iterate."""
    if cfg is not None and cfg.x_max is not None:
        return cfg
    poly = d.exp_poly_tail()
    if poly is not None:
        x_max = exppoly_window(poly)
    else:
        x_max = iterate(d, s).quantile_horizon(1e-10)
    return (cfg or ScanConfig()).with_x_max(x_max)


def _monotone_from_pattern(pattern: SignPattern, s: int, confidence: str) -> MonotoneClass:
    if pattern.uncertain:
        confidence = SAMPLED
    if pattern.signs == ("+",):
        return MonotoneClass(INCREASING, s, confidence)
    if pattern.signs == ("-",):
        return MonotoneClass(DECREASING, s, confidence)
    witnesses = tuple((x, "up" if sg == "+" else "down")
                      for x, sg in zip(pattern.witnesses, pattern.signs))
    return MonotoneClass(NON_MONOTONE, s, confidence,
                         turning_witnesses=witnesses,
                         change_points=pattern.change_points)


def _classify_sampled(fn, d: Distribution, s: int, cfg: ScanConfig, lo: float) -> MonotoneClass:
    """Sampled class of fn on [lo, cfg.x_max]: constant when 256 log-spaced
    values vary by less than _CONSTANT_REL of their mean, otherwise read off
    the scanned sign pattern of its central-difference slope."""
    probe = fn(np.geomspace(lo, cfg.x_max, 256))
    m = float(np.mean(probe))
    if m > 0 and float(np.max(probe) - np.min(probe)) < _CONSTANT_REL * m:
        return MonotoneClass(CONSTANT, s, SAMPLED)

    def slope(x):
        h = np.maximum(1e-8, 1e-6 * x)
        return (fn(x + h) - fn(x - h)) / (2.0 * h)

    return _monotone_from_pattern(scan(slope, cfg, d.breakpoints(), lo=lo), s, SAMPLED)


def classify_ifr(d: Distribution, s: int, cfg: ScanConfig | None = None) -> MonotoneClass:
    """Monotonicity class of r_s: increasing (s-IFR), decreasing (s-DFR),
    constant, or non-monotone with turning witnesses.

    Exact confidence when the slope numerator reduces to an exponential
    polynomial (exponential-type bases); sampled finite differences with
    step max(1e-8, 1e-6 x) otherwise.
    """
    s = _order(s, "s")
    cfg = _default_cfg(d, s, cfg)
    if d.exp_poly_tail() is not None:
        closed = _rate_slope_poly(d, s)
        if closed is None:
            return MonotoneClass(CONSTANT, s, EXACT)
        pattern = closed.sign_pattern_exact(0.0)
        if not pattern.uncertain:
            return _monotone_from_pattern(pattern, s, EXACT)

    num, upper, mu = _rate_parts(d, s)

    def rate(x):
        return np.asarray(num(x), dtype=float) / (mu * np.asarray(upper.eval_tail(x), dtype=float))

    return _classify_sampled(rate, d, s, cfg, max(1e-6, cfg.x_max * 1e-7))


def classify_ifra(d: Distribution, s: int, cfg: ScanConfig | None = None) -> MonotoneClass:
    """Monotonicity class of the averaged rate (1/x) int_0^x r_s, computed
    as -log(tail_s(x)) / x."""
    s = _order(s, "s")
    cfg = _default_cfg(d, s, cfg)
    upper = iterate(d, s)

    def avg(x):
        xa = np.asarray(x, dtype=float)
        return -upper.log_tail(xa) / xa

    return _classify_sampled(avg, d, s, cfg, max(1e-4, cfg.x_max * 1e-6))


def dfr_onset(d: MaxExp, s_max: int = 64) -> int | None:
    """Smallest iteration order s0 at which a two-rate parallel-exponential
    lifetime turns s-DFR, or None when no onset occurs up to s_max.

    The analytic signal is the sign of the slope numerator at the origin,
    which as a function of s eventually turns negative for rate ratio
    lambda != 1; the numeric classifier must confirm the verdict, and any
    disagreement raises instead of being resolved silently.
    """
    if not isinstance(d, MaxExp) or len(d.rates) != 2:
        raise ValueError("dfr_onset expects a two-component parallel system")
    if not isinstance(s_max, numbers.Integral) or s_max < 1:
        raise ValueError("s_max must be a positive integer")
    if s_max > 64:
        raise ValueError("s_max is capped at 64")
    lam = d.rates[1] / d.rates[0]
    if abs(lam - 1.0) < 1e-12:
        raise ValueError("component rates must differ (lambda != 1)")

    for s in range(1, s_max + 1):
        q0 = lam ** (s + 1) + 1.0 - (lam - 1.0) ** 2 * (1.0 + lam) ** (s - 1)
        if q0 < 0.0:
            cls = classify_ifr(d, s)
            if cls.verdict not in (DECREASING, CONSTANT):
                raise ClassifierDisagreement(
                    f"slope numerator negative at s={s} but classifier says {cls.verdict}")
            if s <= 2:
                raise ClassifierDisagreement("onset below s=3 contradicts the theory")
            return s
    return None


@dataclass(frozen=True)
class HolderBounds:
    """Residual-moment bound report at age x for iteration order s > 3.

    With m_k = E (X - x)_+^k and factor = 1 - 1/(s-1), an s-IFR lifetime
    satisfies factor * m_{s-3} * m_{s-1} <= m_{s-2}^2 <= m_{s-3} * m_{s-1}
    and an s-DFR lifetime satisfies m_{s-2}^2 <= factor * m_{s-3} * m_{s-1}.
    Margins are signed slacks normalized by m_{s-2}^2.
    """

    s: int
    x: float
    m_low: float
    m_mid: float
    m_high: float
    factor: float
    ifr_lower_margin: float
    ifr_upper_margin: float
    dfr_margin: float

    @property
    def ifr_holds(self) -> bool:
        tol = 1e-12
        return self.ifr_lower_margin >= -tol and self.ifr_upper_margin >= -tol

    @property
    def dfr_holds(self) -> bool:
        return self.dfr_margin >= -1e-12


def holder_bounds(d: Distribution, s: int, x: float) -> HolderBounds:
    """Compute the three residual partial moments and the bound margins."""
    if _order(s, "s") <= 3:
        raise ValueError("the moment bounds require s > 3")
    m_low = residual_partial_moment(d, s - 3, x)
    m_mid = residual_partial_moment(d, s - 2, x)
    m_high = residual_partial_moment(d, s - 1, x)
    factor = 1.0 - 1.0 / (s - 1.0)
    sq = m_mid ** 2
    return HolderBounds(
        s=s, x=float(x), m_low=m_low, m_mid=m_mid, m_high=m_high, factor=factor,
        ifr_lower_margin=(sq - factor * m_low * m_high) / sq,
        ifr_upper_margin=(m_low * m_high - sq) / sq,
        dfr_margin=(factor * m_low * m_high - sq) / sq,
    )
