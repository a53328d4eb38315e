"""Exact algebra on exponential polynomials  sum_j a_j * exp(-l_j * x).

Terms are kept sorted by increasing decay rate, so the first term is the
slowest-decaying one and fixes the sign at +infinity.  The number of real
zeros of such a sum is bounded by the number of strict sign alternations in
the coefficient sequence taken in that order, and the number on x > 0 also
by those of its partial sums; where these bounds fix the sign sequence, it
is read off them without isolating a root.  Root isolation below uses a
Rolle-style recursion whose depth equals the term count minus one, with no
numerical differentiation anywhere.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResidualUncertainty
from .patterns import EXACT, SignPattern

logger = logging.getLogger(__name__)

#: Coefficients below this fraction of the largest one are pruned.
PRUNE_REL = 1e-14
#: Rates closer than this (relative to the largest rate) are merged.
RATE_MERGE_REL = 1e-12
#: Target width for isolated root intervals.
ROOT_WIDTH = 1e-12
#: |f| below this fraction of the local term scale counts as a numeric zero
#: when classifying partition points during isolation.
TOUCH_REL = 5e-13

_EXP_LO, _EXP_HI = -745.0, 709.0
_EPS = float(np.finfo(float).eps)


def _exp(z):
    return np.exp(np.minimum(np.maximum(z, _EXP_LO), _EXP_HI))


def _merge_terms(pairs) -> tuple[tuple[float, float], ...]:
    pairs = [(float(c), float(r)) for c, r in pairs]
    for _, r in pairs:
        if not r > 0:
            raise ValueError("rates must be strictly positive")
    pairs.sort(key=lambda t: t[1])
    if not pairs:
        raise ValueError("at least one term is required")
    tol = RATE_MERGE_REL * pairs[-1][1]
    merged: list[list[float]] = []
    for c, r in pairs:
        if merged and abs(r - merged[-1][1]) <= tol:
            merged[-1][0] += c
        else:
            merged.append([c, r])
    top = max(abs(c) for c, _ in merged)
    if top == 0.0:
        return ()
    kept = []
    for c, r in merged:
        if c == 0.0:
            continue
        if abs(c) < PRUNE_REL * top:
            # pure cancellation residue (a few ulps) is routine; anything
            # larger deserves attention
            level = logging.DEBUG if abs(c) < 100 * _EPS * top \
                else logging.WARNING
            logger.log(level, "pruning negligible coefficient %.3e at rate %.6g", c, r)
            continue
        kept.append((c, r))
    return tuple(kept)


@dataclass(frozen=True)
class ExpPoly:
    """Finite sum of exponential terms with distinct positive rates."""

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", _merge_terms(self.terms))
        if not self.terms:
            raise ValueError("all coefficients cancelled; empty polynomial")

    @staticmethod
    def maybe(pairs) -> "ExpPoly | None":
        """Build from (coefficient, rate) pairs; None if everything cancels."""
        merged = _merge_terms(pairs)
        return ExpPoly(merged) if merged else None

    # ------------------------------------------------------------------
    # basic algebra
    # ------------------------------------------------------------------

    @property
    def coefficients(self) -> tuple[float, ...]:
        return tuple(c for c, _ in self.terms)

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(r for _, r in self.terms)

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        """Evaluate with compensated (Kahan) summation over terms."""
        xa = np.asarray(x, dtype=float)
        total = np.zeros(xa.shape)
        comp = np.zeros(xa.shape)
        for c, r in self.terms:
            term = c * _exp(-r * xa)
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        return float(total) if xa.ndim == 0 else total

    def differentiate(self, k: int = 1) -> "ExpPoly":
        """k-th derivative: term-wise multiplication by (-rate)**k."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        return ExpPoly(tuple((c * (-r) ** k, r) for c, r in self.terms))

    def integrate_upper(self) -> "ExpPoly":
        """g(x) = integral of p from x to infinity; term-wise c/r."""
        return ExpPoly(tuple((c / r, r) for c, r in self.terms))

    def scaled(self, factor: float) -> "ExpPoly":
        if factor == 0:
            raise ValueError("zero scale collapses the polynomial")
        return ExpPoly(tuple((c * factor, r) for c, r in self.terms))

    def compose_affine(self, a: float, b: float) -> "ExpPoly":
        """The polynomial x -> p(a*x + b); requires a > 0."""
        if a <= 0:
            raise ValueError("composition slope must be positive")
        return ExpPoly(tuple((c * math.exp(-r * b), r * a) for c, r in self.terms))

    def __neg__(self) -> "ExpPoly":
        return self.scaled(-1.0)

    def subtract(self, other: "ExpPoly") -> "ExpPoly | None":
        return ExpPoly.maybe(list(self.terms) + [(-c, r) for c, r in other.terms])

    # ------------------------------------------------------------------
    # sign-variation bound and root isolation
    # ------------------------------------------------------------------

    def sign_change_bound(self) -> int:
        """Strict alternations of coefficient signs, terms ordered by
        increasing rate.  Bounds the number of real zeros."""
        return _sign_changes(self.coefficients)

    def dominance_horizon(self, start: float = 0.0) -> float:
        """Smallest verified x >= start beyond which the slowest-decaying
        term outweighs the sum of all the others, fixing the sign."""
        c0, r0 = self.terms[0]
        rest = self.terms[1:]
        if not rest:
            return start
        x = start
        for c, r in rest:
            ratio = abs(c / c0) * len(rest)
            if ratio > 1.0:
                x = max(x, math.log(ratio) / (r - r0))
        # verify relative to the head term (immune to underflow), nudging
        # rightward until the bound actually holds (np.exp, not math.exp:
        # see the bit-exactness note above _terms)
        for _ in range(200):
            rel = sum(abs(c / c0) * np.exp(min(max(-(r - r0) * x, _EXP_LO), _EXP_HI))
                      for c, r in rest)
            if rel < 1.0:
                return x
            x += max(1.0, 0.5 * abs(x))
        raise ResidualUncertainty("could not certify a dominance horizon")

    def isolate_roots(self, lo: float, hi: float, tol: float = ROOT_WIDTH) -> "RootReport":
        """Certified isolation of the real roots in [lo, hi].

        Recursion: after factoring out the slowest exponential the derivative
        has one term fewer, so between consecutive critical points the
        function is strictly monotone and plain bisection is certified.
        """
        if not lo < hi:
            raise ValueError("domain must be a nondegenerate interval")
        roots, uncertain = _isolate(list(self.coefficients), list(self.rates),
                                    float(lo), float(hi), tol)
        bound = self.sign_change_bound()
        if len(roots) > bound:
            # mathematically impossible; only numerical duplication can do it
            uncertain = True
            roots = roots[:bound]
        return RootReport(bound, tuple(roots), uncertain)

    def sign_pattern_exact(self, start: float = 0.0) -> SignPattern:
        """Full sign sequence on (start, inf).

        Roots are isolated on a bounded window ending at the dominance
        horizon; beyond it the sign is the analytic limit sign (slowest
        term).  A tangential root (no crossing) yields no sign change.
        """
        horizon = self.dominance_horizon(start)
        shift = max(ROOT_WIDTH, 1e-12 * max(abs(start), 1.0))
        lo = start + shift
        hi = max(horizon + 1.0, lo + 1.0)
        report = self.isolate_roots(lo, hi, ROOT_WIDTH)

        terms = _terms(self.coefficients, self.rates)
        cuts = [lo] + [0.5 * (a + b) for a, b in report.isolated_roots] + [hi]
        regions = list(zip(cuts, cuts[1:]))
        signs: list[str] = []
        witnesses: list[float] = []
        changes: list[tuple[float, float]] = []
        uncertain = report.residual_uncertainty
        prev_root = None
        for (a, b), root in zip(regions, list(report.isolated_roots) + [None]):
            xs = np.linspace(a, b, 9)[1:-1]
            vals = self.eval(xs)
            idx = int(np.argmax(np.abs(vals)))
            v = vals[idx]
            if abs(v) <= TOUCH_REL * _eval_scale(terms, xs[idx])[1]:
                # whole region below the noise floor: decide by derivatives
                sn = _one_sided_signs(terms, 0.5 * (a + b))[3]
                if sn == 0.0:
                    uncertain = True
                    prev_root = root
                    continue
                v = sn
            s = "+" if v > 0 else "-"
            if signs and signs[-1] == s:
                prev_root = root
                continue
            if signs:
                changes.append(prev_root if prev_root is not None else (a, a))
            signs.append(s)
            witnesses.append(float(xs[idx]))
            prev_root = root
        if not signs:
            # single-term polynomials and degenerate windows: limit sign only
            s = "+" if self.terms[0][0] > 0 else "-"
            signs, witnesses = [s], [hi]
        return SignPattern(tuple(signs), tuple(witnesses), tuple(changes),
                           EXACT, uncertain)

    def sign_pattern_by_rule(self) -> SignPattern | None:
        """Sign sequence on (0, inf) read off the coefficient signs, or None
        when they do not fix it.  No root is isolated.

        The zeros on (0, inf), counted with multiplicity, number at most the
        sign changes of the coefficients (Descartes' rule for exponential
        sums) and at most those of the partial sums A_k = c_0 + ... + c_k
        (Laguerre): f(x) = x * integral of A(mu) exp(-mu x) dmu, A the step
        function equal to A_k on [r_k, r_{k+1}), and the Laplace kernel
        diminishes variation.  Their count on (lo, inf), lo the left end
        sign_pattern_exact(0.0) uses, has the parity of a sign change
        between f(lo) and c_0, the sign at infinity.  A bound below that
        parity plus 2 leaves the parity as the count: no zero, or one
        crossing, bracketed by lo and a point beyond the dominance horizon.
        """
        coefs = self.coefficients
        bound = self.sign_change_bound()
        partial = _partial_sum_changes(coefs)
        if partial is not None:
            bound = min(bound, partial)
        lo = ROOT_WIDTH
        val, scale = _eval_scale(_terms(coefs, self.rates), lo)
        if not abs(val) > TOUCH_REL * scale:  # a nan value lands here too
            return None
        head = "+" if val > 0 else "-"
        tail = "+" if coefs[0] > 0 else "-"
        crossing = head != tail
        if bound >= crossing + 2:
            return None
        if not crossing:
            return SignPattern((tail,), (lo,), (), EXACT)
        hi = max(self.dominance_horizon(0.0) + 1.0, lo + 1.0)
        return SignPattern((head, tail), (lo, hi), ((lo, hi),), EXACT)


@dataclass(frozen=True)
class RootReport:
    """Outcome of certified root isolation.

    isolated_roots are disjoint intervals each containing exactly one root;
    residual_uncertainty flags candidates that could not be separated at
    working precision (they are retained, never dropped).

    An interval around a root of multiplicity >= 3 is noise-limited: the
    bisection stops at the first midpoint whose value is within 1e-16 of
    the local term scale, which near such a root can lie outside the
    ROOT_WIDTH neighbourhood of the root, so the interval may miss it.
    """

    sign_change_bound: int
    isolated_roots: tuple[tuple[float, float], ...]
    residual_uncertainty: bool = False

    def __post_init__(self):
        if len(self.isolated_roots) > self.sign_change_bound and not self.residual_uncertainty:
            raise ValueError("more isolated roots than the sign-change bound allows")


# Bit-exactness: the scalar core below runs on Python floats with math.exp,
# one term at a time in increasing-rate order.  Swapping in np.exp, which
# differs from math.exp in the last ulp on a few percent of inputs, or
# summing in another order (numpy batching does both) would move isolated
# roots and, with them, the verdict documents.  The same holds for the
# np.exp calls in ExpPoly.eval and dominance_horizon.


def _sign_changes(values) -> int:
    """Strict sign alternations along a sequence of nonzero numbers."""
    signs = [math.copysign(1.0, v) for v in values]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _partial_sum_changes(coefs) -> int | None:
    """Sign changes of the partial sums c_0 + ... + c_k, or None when one
    of them lies within the rounding noise of its summation (k + 1 ulps of
    the running sum of |c_j|), so that its sign is unknown."""
    sums = []
    total = size = 0.0
    for k, c in enumerate(coefs):
        total += c
        size += abs(c)
        if abs(total) <= (k + 1) * _EPS * size:
            return None
        sums.append(total)
    return _sign_changes(sums)


def _terms(coefs, rates):
    """Terms as (c, -r, |c|) triples, the form _eval_scale reads."""
    return [(c, -r, abs(c)) for c, r in zip(coefs, rates)]


def _eval_scale(terms, x):
    """(Kahan-compensated value, sum of |terms|) of sum c exp(-r x) in one
    pass; the second is the local scale that noise floors refer to."""
    total = comp = scale = 0.0
    for c, nr, ac in terms:
        z = nr * x
        if z < _EXP_LO:
            z = _EXP_LO
        elif z > _EXP_HI:
            z = _EXP_HI
        e = math.exp(z)
        y = c * e - comp
        t = total + y
        comp = (t - total) - y
        total = t
        scale += ac * e
    return total, scale


def _one_sided_signs(terms, x):
    """(value at x, whether it is below the noise floor, sign just left of
    x, sign just right of x).

    When the value at x sits below the roundoff floor, the signs follow
    from the first Taylor derivative that is resolvable; derivatives are
    exact coefficient arithmetic, so a root of any finite order at x is
    handled without sampling inside the noise.  Both signs are 0.0 when the
    function is numerically flat to high order.
    """
    val, scale = _eval_scale(terms, x)
    floor = TOUCH_REL * scale
    if abs(val) > floor:
        s = 1.0 if val > 0 else -1.0
        return val, False, s, s
    touch = abs(val) <= floor  # False for a nan val, which also lands here
    dt = terms
    for k in range(1, len(terms) + 3):
        dt = [(c * nr, nr, abs(c * nr)) for c, nr, _ in dt]
        dval, dscale = _eval_scale(dt, x)
        if dscale > 0 and abs(dval) > 1e-12 * dscale:
            s = 1.0 if dval > 0 else -1.0
            return val, touch, s * (-1.0) ** k, s
    return val, touch, 0.0, 0.0


def _bisect_root(terms, a, b, sa, tol):
    """One certified root in (a, b) where the function is monotone and the
    side-corrected signs at the endpoints differ."""
    while b - a > tol:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm, scale = _eval_scale(terms, m)
        if abs(fm) <= 1e-16 * scale:
            w = max(tol / 4, abs(m) * 1e-16)
            return (max(a, m - w), min(b, m + w))
        if (fm > 0) == (sa > 0):
            a = m
        else:
            b = m
    return (a, b)


def _isolate(coefs, rates, lo, hi, tol):
    """Roots of sum c_i exp(-r_i x) on [lo, hi] as (intervals, uncertain).

    coefs and rates are lists of Python floats."""
    if len(coefs) == 1:
        return [], False
    # factor out the slowest exponential: same roots, derivative loses a term
    r0 = rates[0]
    drates = [r - r0 for r in rates[1:]]
    dcoefs = [-d * c for d, c in zip(drates, coefs[1:])]
    crit_iv, uncertain = _isolate(dcoefs, drates, lo, hi, tol)
    q = _terms(coefs, [0.0] + drates)

    pts = [lo] + [0.5 * (a + b) for a, b in crit_iv] + [hi]
    # every partition point is evaluated once; an interval's end signs are
    # the inner one-sided signs of the points around it
    sided = [_one_sided_signs(q, p) for p in pts]
    roots: list[tuple[float, float]] = []
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        val, touch, sl, sa = sided[i]
        sb = sided[i + 1][2]
        if i > 0 and touch:
            # value below the noise floor at a critical point: a crossing or
            # tangential root, or a mere noise plateau.  The one-sided signs
            # from exact Taylor derivatives decide which.
            if sl == 0.0 or sa == 0.0:
                uncertain = True
            elif sl != sa or val == 0.0:
                w = max(tol / 2, abs(a) * 1e-15)
                iv = (a - w, a + w)
                if not roots or roots[-1][1] < iv[0]:
                    roots.append(iv)
        if sa == 0.0 or sb == 0.0:
            uncertain = True
            continue
        if sa != sb:
            iv = _bisect_root(q, a, b, sa, tol)
            if roots and iv[0] - roots[-1][1] < tol:
                uncertain = True
            if not roots or roots[-1] != iv:
                roots.append(iv)
    return roots, uncertain
