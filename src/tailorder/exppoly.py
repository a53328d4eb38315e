"""Exact algebra on exponential polynomials  sum_j a_j * exp(-l_j * x).

Terms are kept sorted by increasing decay rate, so the first term is the
slowest-decaying one and fixes the sign at +infinity.  The number of real
zeros of such a sum is bounded by the number of strict sign alternations in
the coefficient sequence taken in that order, and the number on x > 0 also
by those of its partial sums; where these bounds fix the sign sequence, it
is read off them without isolating a root (_sign_rule).  Where the signs of
f, or of f' with Rolle's theorem, prove that f has no zero on x > 0, its
sign pattern is sampled without isolating one either (_root_free).  Root
isolation below uses a Rolle-style recursion whose depth equals the term
count minus one, with no numerical differentiation anywhere.  Only the top
level's roots are bisected down to ROOT_WIDTH; the roots of each inner
level, the critical points of the level above, are bisected only until that
level provably keeps one sign across them.

The coefficient-sign rule runs on term tables (_Terms), one polynomial per
row, in one pass of numpy column operations over the rows of each f and of
its f' (_sign_rule, whose root-free flags _root_free reads alone); every
row gets, bit for bit, the values and decisions that the same steps on its
terms alone give.  ordering builds the closed cells of a sweep batch
as such a table, settles them with one such pass and hands their root-free
flags to _sample, which otherwise runs the pass on a table of the
polynomials it samples from 0.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

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
#: Below this exponent exp() leaves the normal floats and loses precision.
_EXP_TINY = math.log(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)


def _exp(z):
    return np.exp(np.minimum(np.maximum(z, _EXP_LO), _EXP_HI))


def _merge_terms(pairs) -> tuple[tuple[float, float], ...]:
    pairs = [(float(c), float(r)) for c, r in pairs]
    for c, r in pairs:
        if not r > 0:
            raise ValueError("rates must be strictly positive")
        # an infinite rate makes the merge tolerance infinite, an infinite
        # coefficient the pruning floor: either would drop finite terms
        if not (math.isfinite(c) and math.isfinite(r)):
            raise ValueError("coefficients and rates must be finite")
    pairs.sort(key=itemgetter(1))
    if not pairs:
        raise ValueError("at least one term is required")
    tol = RATE_MERGE_REL * pairs[-1][1]
    coefs: list[float] = []
    rates: list[float] = []
    for c, r in pairs:
        if rates and abs(r - rates[-1]) <= tol:
            coefs[-1] += c
        else:
            coefs.append(c)
            rates.append(r)
    top = max(map(abs, coefs))
    if top == 0.0:
        return ()
    floor = PRUNE_REL * top
    kept = []
    for c, r in zip(coefs, rates):
        if c == 0.0:
            continue
        if abs(c) < floor:
            _log_pruned(c, r, top)
            continue
        kept.append((c, r))
    return tuple(kept)


def _log_pruned(c, r, top):
    # pure cancellation residue (a few ulps) is routine; anything larger
    # deserves attention
    level = logging.DEBUG if abs(c) < 100 * _EPS * top else logging.WARNING
    logger.log(level, "pruning negligible coefficient %.3e at rate %.6g", c, r)


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
        if not merged:
            return None
        # merging is idempotent (kept rates lie beyond the merge tolerance and
        # the largest coefficient is never pruned), so skip __post_init__'s
        poly = object.__new__(ExpPoly)
        object.__setattr__(poly, "terms", merged)
        return poly

    # ------------------------------------------------------------------
    # basic algebra
    # ------------------------------------------------------------------

    @property
    def coefficients(self) -> tuple[float, ...]:
        return tuple(c for c, _ in self.terms)

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(r for _, r in self.terms)

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
        # see the bit-exactness note above _sign_changes)
        for _ in range(200):
            rel = sum(abs(c / c0) * np.exp(min(max(-(r - r0) * x, _EXP_LO), _EXP_HI))
                      for c, r in rest)
            if rel < 1.0:
                return x
            x += max(1.0, 0.5 * abs(x))
        raise ResidualUncertainty("could not certify a dominance horizon")

    def isolate_roots(self, lo: float, hi: float) -> "RootReport":
        """Certified isolation of the real roots in [lo, hi], both ends
        finite, to ROOT_WIDTH.

        Recursion: after factoring out the slowest exponential the derivative
        has one term fewer, so between consecutive critical points the
        function is strictly monotone and plain bisection is certified.
        """
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("domain ends must be finite")
        if not lo < hi:
            raise ValueError("domain must be a nondegenerate interval")
        brackets, q, uncertain = _isolate(list(self.coefficients), list(self.rates),
                                          float(lo), float(hi), ROOT_WIDTH)
        settled, close = _settle(brackets, q, ROOT_WIDTH)
        roots = [(a, b) for a, b, _ in settled]
        uncertain = uncertain or close
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
        At start 0 the isolation is skipped where the coefficient signs of
        f or of f' prove that f has no zero past the window's left end
        (_root_free); a value there below the noise floor is read as zero,
        as isolation reads it.  Either way the signs and witnesses come
        from the samples of each region between the roots.

        A region where the head (slowest) term underflows at its samples,
        or the fastest one overflows, is read from f e^{r_0 x}, relative to
        the head term: it has f's sign and keeps its terms apart far beyond
        where f's clamp to one value.  Its witness must still show that
        sign by direct evaluation, or the pattern is uncertain.

        _sign_patterns samples the regions of many polynomials in one
        evaluation and reads each pattern here; alone, a polynomial is a
        batch of one.
        """
        return _read_pattern(self, *self._sampled(start))

    def _sampled(self, start):
        """_sample's outcome for this polynomial alone."""
        return _sample([self], [start])[0]


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


def _sign_patterns(polys, starts, free=None) -> list[SignPattern]:
    """ExpPoly.sign_pattern_exact of each polynomial of polys on (start,
    inf), start its entry of starts: the regions of all of them are
    sampled in one batch (_sample, given free), and each pattern is read through
    sign_pattern_exact, from a _Sampled copy of its polynomial that
    carries its samples.  So a batch makes one sign_pattern_exact call per
    pattern, as lone polynomials do, which is what perfbench's tracer
    counts and reads the term count and uncertainty of."""
    return [_Sampled(p.terms, start, sampled).sign_pattern_exact(start)
            for p, start, sampled in zip(polys, starts, _sample(polys, starts, free))]


class _Sampled(ExpPoly):
    """An ExpPoly whose regions on (start, inf) were sampled in a batch;
    sign_pattern_exact at that start reads those samples."""

    def __init__(self, terms, start, sampled):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_batch", (start, sampled))

    def _sampled(self, start):
        own, sampled = self._batch
        return sampled if start == own else super()._sampled(start)


def _sample(polys, starts, free=None):
    """The sampled regions of each polynomial of polys on (start, inf),
    start its entry of starts, as _read_pattern takes them.  free, where
    given, holds each polynomial's _root_free flag from the term table it
    is a row of (read only at start 0); else the flags come from one table
    of the polynomials that start at 0.

    The dominance horizon, the root-free step or isolation, and the cuts
    between the roots are each polynomial's own.  The 7 interior samples
    of every region of every polynomial are then placed (_region_points)
    and, where the region is not far, evaluated (_region_values) in one
    pass each, every sample with the bits that np.linspace and
    ExpPoly.eval give it alone; a far region's samples are evaluated
    relative to the head term, region by region."""
    at_zero = [k for k, start in enumerate(starts) if start == 0.0]
    skips = [False] * len(polys)
    if at_zero:
        flags = [free[k] for k in at_zero] if free is not None else \
            _root_free(_Terms.of([polys[k].terms for k in at_zero])).tolist()
        for k, flag in zip(at_zero, flags):
            skips[k] = flag
    plans = []
    for p, start, skip in zip(polys, starts, skips):
        horizon = p.dominance_horizon(start)
        shift = max(ROOT_WIDTH, 1e-12 * max(abs(start), 1.0))
        lo = start + shift
        hi = max(horizon + 1.0, lo + 1.0)
        if skip:
            roots, uncertain = (), False
        else:
            report = p.isolate_roots(lo, hi)
            roots, uncertain = report.isolated_roots, report.residual_uncertainty
        cuts = [lo] + [0.5 * (a + b) for a, b in roots] + [hi]
        plans.append((p, hi, roots, uncertain, list(zip(cuts, cuts[1:]))))
    if not plans:
        return []

    owner = [k for k, (*_, regions) in enumerate(plans) for _ in regions]
    ends = np.array([ab for *_, regions in plans for ab in regions])
    xs = _region_points(ends[:, 0], ends[:, 1])
    first, last = (np.array([plans[k][0].terms[i][1] for k in owner]) for i in (0, -1))
    far = (-first * xs[:, -1] < _EXP_TINY) | (-last * xs[:, 0] > _EXP_HI)
    near = np.flatnonzero(~far)
    vals = np.empty_like(xs)
    vals[near] = _region_values([plans[owner[i]][0].terms for i in near], xs[near])
    # a far region is read relative to the head term, f e^{r_0 x}
    heads = [None] * len(owner)
    for i in np.flatnonzero(far).tolist():
        p = plans[owner[i]][0]
        heads[i] = _terms(p.coefficients, [r - p.rates[0] for r in p.rates])
        vals[i] = [_eval_scale(heads[i], x)[0] for x in xs[i].tolist()]
    rows = np.arange(len(xs))
    idx = np.argmax(np.abs(vals), axis=1)
    peaks = iter(zip(vals[rows, idx].tolist(), xs[rows, idx].tolist(), heads))
    return [(hi, roots, uncertain, regions, [next(peaks) for _ in regions])
            for _, hi, roots, uncertain, regions in plans]


def _read_pattern(p, hi, roots, uncertain, regions, peaks) -> SignPattern:
    """p's sign pattern from its sampled regions (_sample): each region's
    peak sample (value, point, and the terms relative to the head term
    where the region is far, else None).  A peak below the noise floor is
    decided by derivatives (_one_sided_signs)."""
    terms = _terms(p.coefficients, p.rates)
    signs: list[str] = []
    witnesses: list[float] = []
    changes: list[tuple[float, float]] = []
    prev_root = None
    for (a, b), root, (v, x, head) in zip(regions, list(roots) + [None], peaks):
        form = terms if head is None else head
        if abs(v) <= TOUCH_REL * _eval_scale(form, x)[1]:
            # whole region below the noise floor: decide by derivatives
            sn = _one_sided_signs(form, 0.5 * (a + b))[3]
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
        witnesses.append(x)
        if head is not None:
            direct = p.eval(x)
            if not (direct > 0 if v > 0 else direct < 0):
                uncertain = True
        prev_root = root
    if not signs:
        # single-term polynomials and degenerate windows: limit sign only
        s = "+" if p.terms[0][0] > 0 else "-"
        signs, witnesses = [s], [hi]
    return SignPattern(tuple(signs), tuple(witnesses), tuple(changes), EXACT, uncertain)


#: i and i / 8 for the interior points i = 1 .. 7 of a region cut in eighths
_STEPS = np.arange(1.0, 8.0)
_FRACTIONS = _STEPS / 8.0


def _region_points(a, b):
    """The 7 interior points of each region (a, b), a and b arrays of its
    ends, one row per region with the bits of np.linspace(a, b, 9)[1:-1].

    linspace places point i at a + i * step, step = (b - a) / 8, or at
    a + (i / 8) * (b - a) where the step is 0 (the subnormal form).  Given
    arrays of ends it takes the second form in every row as soon as one
    step is 0, so the form is chosen here row by row."""
    delta = (b - a)[:, None]
    step = delta / 8.0
    return np.where(step == 0.0, _FRACTIONS * delta, _STEPS * step) + a[:, None]


def _region_values(rows, xs):
    """ExpPoly.eval of each polynomial of rows, given by its terms, at the
    points of its row of xs, bit for bit (see the note below).  The terms
    are right-aligned to a common count (_pad), so a row's Kahan updates
    start at its own first term."""
    coefs, rates, _ = _pad(rows)
    parts = coefs[:, :, None] * _exp(-rates[:, :, None] * xs[:, None, :])
    total = np.zeros(xs.shape)
    comp = np.zeros(xs.shape)
    for j in range(coefs.shape[1]):
        y = parts[:, j] - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


# Bit-exactness: the scalar core below runs on Python floats with math.exp,
# one term at a time in increasing-rate order.  Swapping in np.exp, which
# differs from math.exp in the last ulp on a few percent of inputs, or
# summing in another order (numpy batching does both) would move isolated
# roots and, with them, the verdict documents.  The same holds for the
# np.exp calls in ExpPoly.eval and dominance_horizon, and for
# _region_values, which evaluates many polynomials as ExpPoly.eval does
# one: the same np.exp of the same -r x per term, and the same Kahan steps
# in the same term order.  Its rows are padded in front with zero terms,
# which leave a Kahan sum at exactly 0 until the row's first term (a zero
# term after it would add the pending compensation to the total).  The
# term tables of _rule_parts follow the same layout and take their
# exponentials from math.exp, one call per distinct argument.


def _sign_changes(values) -> int:
    """Strict sign alternations along a sequence of nonzero numbers."""
    signs = [math.copysign(1.0, v) for v in values]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class _Terms(NamedTuple):
    """A term table: row k holds the terms of one exponential polynomial
    f_k = sum c exp(-r x), its live entries in increasing-rate order and
    right-aligned, after dead entries of coefficient 0 and rate 1.  exps
    holds math.exp of each live entry's -r ROOT_WIDTH, clamped as
    _eval_scale clamps it (1 on dead entries).

    Dead entries in front are no-ops for every pass below: a Kahan sum, a
    running sum and a running sum of |c| all stay exactly 0 through them.
    A dead entry between live ones would not be (a zero term adds a Kahan
    sum's pending compensation to its total), so the passes take the live
    entries of each row as one run."""

    coefs: np.ndarray
    rates: np.ndarray
    live: np.ndarray
    exps: np.ndarray

    @classmethod
    def of(cls, rows) -> "_Terms":
        """The table of rows, each a nonempty tuple of (coefficient, rate)
        pairs in increasing-rate order."""
        coefs, rates, live = _pad(rows)
        z = np.where(live, np.minimum(np.maximum(-rates * ROOT_WIDTH, _EXP_LO), _EXP_HI), 0.0)
        exps = np.array(list(map(math.exp, z.ravel().tolist()))).reshape(z.shape)
        return cls(coefs, rates, live, exps)

    def rows(self, ks) -> list[tuple[tuple[float, float], ...]]:
        """The live terms of each row of ks, as pairs of Python floats."""
        firsts = np.argmax(self.live[ks], axis=1).tolist()
        return [tuple(zip(c[j:], r[j:])) for c, r, j in
                zip(self.coefs[ks].tolist(), self.rates[ks].tolist(), firsts)]


def _pad(rows):
    """(coefficients, rates, live mask) of rows, each a nonempty tuple of
    (coefficient, rate) pairs, right-aligned as in _Terms."""
    count = max(map(len, rows), default=0)
    flat: list = []
    for terms in rows:
        flat += (0.0, 1.0) * (count - len(terms))
        flat += chain.from_iterable(terms)
    table = np.array(flat).reshape(len(rows), count, 2)
    live = np.arange(count) >= count - np.array(list(map(len, rows)))[:, None]
    return table[:, :, 0], table[:, :, 1], live


def _exp_or_inf(z):
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


def _merge_rows(coefs, rates, live):
    """The merge step of _merge_terms on every row of a table, as
    (coefficients, live mask, whether any may have merged).  Each row's live
    entries are in stable increasing-rate order, and every dead entry
    between two live ones keeps its rate in that order.  An entry within
    RATE_MERGE_REL of the row's largest live rate from the first entry of
    its group is summed into it and dies, in one column pass, which is not
    needed where no two neighbouring entries, the right one live, lie that
    close by the largest tolerance any row could have: between two live
    entries every gap is at most their distance."""
    with np.errstate(invalid="ignore"):
        close = live[:, 1:] & (np.abs(rates[:, 1:] - rates[:, :-1])
                               <= RATE_MERGE_REL * np.max(rates[:, -1]))
    if not np.count_nonzero(close):
        return coefs, live, False
    n, m = coefs.shape
    last = rates[np.arange(n), m - 1 - np.argmax(live[:, ::-1], axis=1)]
    tol = RATE_MERGE_REL * last
    coefs, live = coefs.copy(), live.copy()
    started = np.zeros(n, dtype=bool)
    first = np.zeros(n)
    group = np.zeros(n, dtype=np.intp)
    for j in range(m):
        on = live[:, j]
        merge = on & started & (np.abs(rates[:, j] - first) <= tol)
        if merge.any():
            rows = np.flatnonzero(merge)
            coefs[rows, group[rows]] += coefs[rows, j]
            coefs[rows, j] = 0.0
            live[rows, j] = False
        new = on & ~merge
        first = np.where(new, rates[:, j], first)
        group = np.where(new, j, group)
        started |= on
    return coefs, live, True


def _prune_rows(coefs, rates, live):
    """The pruning step of _merge_terms on every row of a table whose dead
    coefficients are 0, as (coefficients, live mask, whether any died): zero
    coefficients, and those below PRUNE_REL of the row's largest
    |coefficient|, die and become 0.  The coefficients are not nan."""
    mag = np.abs(coefs)
    top = mag.max(axis=1)
    kept = live & (mag > 0.0) & (mag >= PRUNE_REL * top[:, None])
    if np.count_nonzero(kept) == np.count_nonzero(live):  # kept lies within live
        return coefs, live, False
    for k, j in zip(*np.nonzero(live & ~kept & (mag > 0.0))):
        _log_pruned(float(coefs[k, j]), float(rates[k, j]), float(top[k]))
    return np.where(kept, coefs, 0.0), kept, True


def _rule_parts(t: _Terms):
    """(values at ROOT_WIDTH, term scales there, bounds on the zeros on
    x > 0) of the rows of a term table, each by one pass in term order.

    The value and scale are _eval_scale's, by the same operations in the
    same order.  The bound counts zeros with multiplicity: the sign changes
    of the coefficients bound them (Descartes' rule for exponential sums),
    and so do those of the partial sums A_k = c_0 + ... + c_k (Laguerre):
    f(x) = x * integral of A(mu) exp(-mu x) dmu, A the step function equal
    to A_k on [r_k, r_{k+1}), and the Laplace kernel diminishes variation.
    A partial sum within the rounding noise of its summation (k + 1 ulps
    of the running sum of |c_j|) has no known sign, and drops the second
    bound."""
    coefs, _, live, exps = t
    # inf and nan propagate as in Python floats, which do not warn
    with np.errstate(over="ignore", invalid="ignore"):
        parts = coefs * exps
        # the first Kahan step from total = comp = 0, then the others
        total = parts[:, 0] + 0.0
        comp = total - parts[:, 0]
        for j in range(1, coefs.shape[1]):
            y = parts[:, j] - comp
            s = total + y
            comp = (s - total) - y
            total = s
        mag = np.abs(coefs)
        # running sums, each in term order: the term scale, the partial
        # sums, the sums of |c| and the term counts
        scale, psum, size, count = np.cumsum(np.stack((mag * exps, coefs, mag, live)), axis=2)
        noisy = (live & (np.abs(psum) <= count * _EPS * size)).any(axis=1)
    signs = np.stack((coefs > 0, psum > 0))
    # a change between two live entries: the live entries are one run
    changes, pchanges = np.count_nonzero((signs[:, :, 1:] != signs[:, :, :-1]) & live[:, :-1],
                                         axis=2)
    return total, scale[:, -1], np.where(noisy, changes, np.minimum(changes, pchanges))


def _sign_rule(t: _Terms):
    """(decided, sign at 0+ positive, sign at infinity positive, root-free)
    of every row f of a term table, as arrays, from one _rule_parts pass
    over the rows of each f and of its f'.

    A row is decided where its coefficient signs fix its sign sequence on
    (ROOT_WIDTH, inf); a row with no live term decides nothing.  The zeros
    there number at most _rule_parts' bound, and their count has the parity
    of a sign change between f(ROOT_WIDTH) and c_0, the sign at infinity.
    A bound below that parity plus 2 leaves the parity as the count: no
    zero, or one crossing.  A value at ROOT_WIDTH inside the noise floor
    (TOUCH_REL of the term scale) has no parity, and nor has a nan one.
    The root-free flag is _root_free's."""
    n = len(t.coefs)
    with np.errstate(over="ignore", under="ignore"):
        slope = -t.rates * t.coefs
    coefs, live = np.concatenate((t.coefs, slope)), np.concatenate((t.live, t.live))
    val, scale, bound = _rule_parts(_Terms(coefs, None, live, np.concatenate((t.exps, t.exps))))
    size, floor = np.abs(val), TOUCH_REL * scale
    head = val > 0
    tail = coefs[np.arange(2 * n), np.argmax(live, axis=1)] > 0  # the slowest live term's
    decided = (size > floor) & (bound < (head != tail) + 2)
    same = (size[:n] > floor[:n]) & (head[:n] == tail[:n])
    mag = np.abs(slope)
    finite = np.all(((mag > 0.0) & (mag < math.inf)) | ~t.live, axis=1)
    # a nan value is neither beyond the floor nor within it
    free = same & (bound[:n] < 2) | (same | (size[:n] <= floor[:n])) & finite & decided[n:]
    return decided[:n], head[:n], tail[:n], free


def _root_free(t: _Terms):
    """Whether the coefficient signs prove that f, each row of a term table,
    has no zero on (ROOT_WIDTH, inf), so that isolation there finds none
    (Rolle's theorem), as a boolean array:

    (a) the rule (_sign_rule) fixes no crossing of f;
    (b) the rule fixes no crossing of f' = sum -r c exp(-r x): f is
        monotone and tends to 0, so it keeps one sign;
    (c) the rule fixes one crossing x* of f': f keeps the sign of c_0, the
        one it tends to, on [x*, inf), and moves towards that sign on
        (ROOT_WIDTH, x*], where it starts with that sign or within the noise
        floor (TOUCH_REL of the term scale), read as zero as isolation's
        touch rule reads it.

    f(ROOT_WIDTH) beyond the floor with the other sign than c_0 shows a
    zero, (b) being impossible then; such a value, a nan one and a
    derivative coefficient that overflows or underflows to zero leave f to
    isolation."""
    return _sign_rule(t)[3]


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


def _eval_slope(c0, slope, x):
    """(q, its term scale, q', its term scale, whether an exponent clamped)
    at x for q = c0 + sum c exp(-r x), in one pass over the exponentials the
    two share.  slope holds (c, -r, |c|, -r c, |r c|) tuples.

    Each sum runs as in _eval_scale, so q and q' agree bit for bit with
    _eval_scale over the terms of q and of q'.  Every rate of q' is positive,
    so its term scale at x bounds |q'| on [x, inf) unless an exponent clamped
    there."""
    total, scale = c0, abs(c0)
    comp = dtotal = dcomp = dscale = 0.0
    clamped = False
    for c, nr, ac, dc, adc in slope:
        z = nr * x
        if z < _EXP_LO:
            z, clamped = _EXP_LO, True
        elif z > _EXP_HI:
            z, clamped = _EXP_HI, True
        e = math.exp(z)
        y = c * e - comp
        t = total + y
        comp = (t - total) - y
        total = t
        scale += ac * e
        y = dc * e - dcomp
        t = dtotal + y
        dcomp = (t - dtotal) - y
        dtotal = t
        dscale += adc * e
    return total, scale, dtotal, dscale, clamped


def _keeps_sign(at_a, at_b, width):
    """Whether q keeps one sign on [a, b], from _eval_slope at both ends.

    |q'| <= D, its term scale at a, on the whole bracket, so every point lies
    within width / 2 of an end where |q| exceeds width * D, and |q| stays
    above half of that.  Both values must also clear q's noise floor.  A
    clamped exponent at a leaves D no bound, and the answer is no."""
    qa, scale_a, _, da, clamped = at_a
    qb, scale_b = at_b[:2]
    if clamped or (qa > 0) != (qb > 0):
        return False
    bound = width * da
    return abs(qa) > max(bound, TOUCH_REL * scale_a) \
        and abs(qb) > max(bound, TOUCH_REL * scale_b)


def _bisect_root(terms, a, b, sa, tol, outer=None):
    """Halve (a, b), where the function of terms is monotone and the
    side-corrected signs at the ends differ, down to tol around its root, as
    (a, b, None).

    outer = (c0, slope), the level above, makes the halving lazy.  Its q has
    this function's sign as its derivative, so one _eval_slope pass per
    midpoint gives both the halving sign (from q', or from terms where an
    exponent clamped) and q; the halving stops as soon as q keeps one sign on
    [a, b], and returns (a, b, (q(a), q(b))).
    """
    if outer is not None:
        at_a = _eval_slope(*outer, a)
        at_b = _eval_slope(*outer, b)
    while b - a > tol:
        if outer is not None and _keeps_sign(at_a, at_b, b - a):
            return a, b, (at_a[0], at_b[0])
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        if outer is None:
            fm, scale = _eval_scale(terms, m)
        else:
            at_m = _eval_slope(*outer, m)
            fm, scale = _eval_scale(terms, m) if at_m[4] else at_m[2:4]
        if abs(fm) <= 1e-16 * scale:
            w = max(tol / 4, abs(m) * 1e-16)
            return max(a, m - w), min(b, m + w), None
        if (fm > 0) == (sa > 0):
            a = m
            if outer is not None:
                at_a = at_m
        else:
            b = m
            if outer is not None:
                at_b = at_m
    return a, b, None


def _settle(brackets, terms, tol, outer=None):
    """Refine the root brackets (a, b, s) of the function of terms in order
    with _bisect_root, as ([(a, b, ends)], uncertain).

    A bracket with s = 0.0 is already an interval of width about tol and is
    kept unless it overlaps the interval kept before it.  Of the intervals
    refined down to tol, one equal to the one before is dropped, and two that
    lie within tol of each other make the roots uncertain.  A bracket that
    stopped early (ends not None) shows a function without a root there, so
    it never counts as close to another."""
    out = []
    last = None
    uncertain = False
    for a, b, s in brackets:
        if s == 0.0:
            if last is None or last[1] < a:
                last = (a, b)
                out.append((a, b, None))
            continue
        a, b, ends = _bisect_root(terms, a, b, s, tol, outer)
        if ends is not None:
            out.append((a, b, ends))
            continue
        if last is not None and a - last[1] < tol:
            uncertain = True
        if last != (a, b):
            last = (a, b)
            out.append((a, b, None))
    return out, uncertain


def _isolate(coefs, rates, lo, hi, tol):
    """Root brackets of f = sum c_i exp(-r_i x) on [lo, hi], as (brackets,
    q, uncertain).  coefs and rates are lists of Python floats.

    q is f with the slowest exponential factored out, as _eval_scale terms:
    it has f's sign and roots, and its derivative has one term fewer, so
    between the roots of that derivative (the next level down) q is
    monotone.  Each bracket (a, b, s) holds one root of q, s the sign of q
    just right of a, or is an interval of width about tol around a
    critical point where q touches zero, with s = 0.0.

    Only the top level's roots need to be narrow; isolate_roots refines
    them to tol.  The brackets of the derivative are refined here lazily:
    only until q keeps one sign across one, whose two ends then both become
    partition points; only where q stays too close to zero to tell does a
    bracket go down to tol, and its midpoint becomes the partition point,
    checked by the touch rule below.
    """
    r0 = rates[0]
    drates = [r - r0 for r in rates[1:]]
    q = _terms(coefs, [0.0] + drates)
    if not drates:
        return [], q, False
    dcoefs = [-d * c for d, c in zip(drates, coefs[1:])]
    crit, dq, uncertain = _isolate(dcoefs, drates, lo, hi, tol)
    slope = [(c, nr, ac, c * nr, abs(c * nr)) for c, nr, ac in q[1:]]
    crit, close = _settle(crit, dq, tol, (coefs[0], slope))
    uncertain = uncertain or close

    # every partition point is evaluated once; an interval's end signs are
    # the inner one-sided signs of the points around it
    pts = [lo]
    sided = [_one_sided_signs(q, lo)]
    for a, b, ends in crit:
        if ends is None:
            pts.append(0.5 * (a + b))
            sided.append(_one_sided_signs(q, pts[-1]))
            continue
        for p, v in zip((a, b), ends):
            s = 1.0 if v > 0 else -1.0
            pts.append(p)
            sided.append((v, False, s, s))
    pts.append(hi)
    sided.append(_one_sided_signs(q, hi))

    brackets = []
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
                brackets.append((a - w, a + w, 0.0))
        if sa == 0.0 or sb == 0.0:
            uncertain = True
            continue
        if sa != sb:
            brackets.append((a, b, sa))
    return brackets, q, uncertain
