"""Executable registry of worked results: each case binds concrete
distributions, a criterion, and an expected outcome, and doubles as the
regression surface of the whole package.

Grids are frozen constants here, not defaults, so expectations cannot
drift when the library defaults change.  Every case is deterministic given
its embedded grid, and two consecutive runs produce identical verdict
documents.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ageing
from .ageing import classify_ifr, classify_ifra, dfr_onset, holder_bounds
from .distributions import BranchedPareto, Exponential, Gamma, MaxExp, PolyExpExample, Weibull
from .errors import UnknownCase
from .iteration import iterate
from .ordering import GridSpec, compare_dmrl, compare_ifr, compare_ifra, convexity_check, newcrit

__all__ = ["CaseResult", "CheckResult", "run_case", "run_all", "case_ids"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    document: dict | None = None


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    description: str
    passed: bool
    checks: tuple[CheckResult, ...]
    runtime_s: float

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "description": self.description,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail,
                 **({"document": c.document} if c.document else {})}
                for c in self.checks
            ],
        }

    def documents_json(self) -> str:
        """Verdict documents only, stable across runs (no timing); strict
        JSON, so a NaN or infinite number raises ValueError."""
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


class _Recorder:
    def __init__(self):
        self.checks: list[CheckResult] = []

    def expect(self, name: str, passed: bool, detail: str = "", document: dict | None = None):
        self.checks.append(CheckResult(name, bool(passed), detail, document))

    def verdict(self, name: str, verdict, expected_outcome: str):
        self.expect(name, verdict.outcome == expected_outcome,
                    f"expected {expected_outcome}, got {verdict.outcome}",
                    verdict.to_dict())


# ----------------------------------------------------------------------
# frozen grids
# ----------------------------------------------------------------------

def _geom(lo, hi, n):
    return tuple(np.geomspace(lo, hi, n))


def _lin(lo, hi, n):
    return tuple(np.linspace(lo, hi, n))


_NEG = tuple(-np.geomspace(30.0, 0.05, 10))

#: Moderate grid for closed-form (piecewise / special) pairs.
_BP_GRID_S1 = GridSpec(_geom(0.05, 20.0, 48), _NEG + (0.0,) + _lin(1.0, 15.0, 15))
#: The s = 2 refutation of the branched-Pareto pair lives in a narrow
#: diagonal (a, b) band (reciprocal slope between the outer linear pieces
#: of the transform); the grid pins verified cells inside it.
_BP_GRID_S2 = GridSpec(_geom(0.05, 20.0, 48) + (1.62, 1.64, 1.652),
                       _NEG + (0.0, 0.26, 0.28, 0.31) + _lin(1.0, 15.0, 15))
_WG_GRID = GridSpec(_geom(0.05, 20.0, 48), _lin(0.0, 12.0, 12))
_PARALLEL_GRID = GridSpec(_geom(0.05, 20.0, 48), _lin(0.0, 8.0, 10))
_CHAIN_GRID = GridSpec(_geom(0.05, 20.0, 32), _NEG[4:] + (0.0,) + _lin(0.5, 6.0, 8))
_MAJORIZATION_GRID = GridSpec(_geom(0.05, 20.0, 48) + (2.89,), (0.0,))

_PARALLEL_RATES = (1.5, 2.0, 5.0)


# ----------------------------------------------------------------------
# case runners
# ----------------------------------------------------------------------


def _case_ex_polyexp(rec: _Recorder):
    d = PolyExpExample(1.0)
    c1 = classify_ifr(d, 1)
    rec.expect("rate-order-1-non-monotone", c1.verdict == ageing.NON_MONOTONE,
               f"got {c1.verdict}")
    a1 = classify_ifra(d, 1)
    rec.expect("avg-rate-order-1-not-increasing",
               a1.verdict not in (ageing.INCREASING, ageing.CONSTANT),
               f"got {a1.verdict}")
    c2 = classify_ifr(d, 2)
    rec.expect("rate-order-2-increasing", c2.verdict == ageing.INCREASING,
               f"got {c2.verdict}")


def _case_maxexp_heredity_fail(rec: _Recorder):
    d = MaxExp(1.0, 2.0)
    a1 = classify_ifra(d, 1)
    rec.expect("avg-rate-order-1-increasing", a1.verdict == ageing.INCREASING,
               f"got {a1.verdict}")
    a2 = classify_ifra(d, 2)
    rec.expect("avg-rate-order-2-non-monotone", a2.verdict == ageing.NON_MONOTONE,
               f"got {a2.verdict}")


def _case_maxexp_dfr_onset(rec: _Recorder):
    s0 = dfr_onset(MaxExp(1.0, 2.0), s_max=16)
    rec.expect("onset-order", s0 == 5, f"got {s0}")


def _case_bp_counterexample(rec: _Recorder):
    X, Y = BranchedPareto(5.0, 10.0), BranchedPareto(2.0, 6.0)
    rec.verdict("order-1-supported", compare_ifr(X, Y, 1, _BP_GRID_S1), "supported")
    rec.verdict("dmrl-supported", compare_dmrl(X, Y), "supported")
    rec.verdict("order-2-refuted", compare_ifr(X, Y, 2, _BP_GRID_S2), "refuted")
    conv1 = convexity_check(X, Y, 1)
    rec.verdict("transform-1-convex", conv1, "supported")
    conv2 = convexity_check(X, Y, 2)
    ok = conv2.refuted
    window = (0.6, 1.0)
    if ok and conv2.witness is not None:
        inside = [w for w in conv2.witness.abscissae if window[0] < w < window[1]]
        ok = len(inside) >= 2
    rec.expect("transform-2-not-convex", ok,
               f"outcome {conv2.outcome}, witnesses "
               f"{conv2.witness.abscissae if conv2.witness else ()}",
               conv2.to_dict())


def _case_weibull_le_gamma(rec: _Recorder):
    for alpha in (1.5, 2.0, 3.0):
        for s in (1, 2, 3):
            v = newcrit(Weibull(alpha, 1.0), Gamma(alpha, 1.0), s, _WG_GRID)
            rec.verdict(f"alpha-{alpha}-s-{s}", v, "supported")


def _family_case(factory) -> Callable:
    def runner(rec: _Recorder):
        for hi, lo in ((2.5, 1.2), (0.8, 0.4)):
            for s in (1, 2, 3):
                v = newcrit(factory(hi), factory(lo), s, _WG_GRID)
                rec.verdict(f"shapes-{hi}-vs-{lo}-s-{s}", v, "supported")
    return runner


def _case_parallel_tail_dom(rec: _Recorder):
    X = MaxExp(1.0, 1.0)
    grid = np.geomspace(1e-6, 60.0, 400)
    for lam in _PARALLEL_RATES:
        Y = MaxExp(1.0, lam)
        for s in (1, 2, 3, 4):
            diff = iterate(X, s).eval_tail(grid) - iterate(Y, s).eval_tail(grid)
            worst = float(np.min(diff))
            rec.expect(f"dominance-lambda-{lam}-s-{s}", worst >= -1e-12,
                       f"min difference {worst:.3e}")


def _case_parallel_ifra(rec: _Recorder):
    X = MaxExp(1.0, 1.0)
    for lam in _PARALLEL_RATES:
        Y = MaxExp(1.0, lam)
        for s in (1, 2, 3, 4):
            rec.verdict(f"lambda-{lam}-s-{s}",
                        compare_ifra(X, Y, s, _PARALLEL_GRID), "supported")


def _case_parallel_ifr(rec: _Recorder):
    X = MaxExp(1.0, 1.0)
    for lam in _PARALLEL_RATES:
        Y = MaxExp(1.0, lam)
        for s in (1, 2, 3, 4):
            rec.verdict(f"lambda-{lam}-s-{s}",
                        newcrit(X, Y, s, _PARALLEL_GRID), "supported")


def _case_parallel_homog_closure(rec: _Recorder):
    for n in (2, 3, 4, 5):
        d = MaxExp(*([1.0] * n))
        cls = classify_ifr(d, 1)
        rec.expect(f"components-{n}", cls.verdict == ageing.INCREASING,
                   f"got {cls.verdict}")


def _chain_q(m: int, k: int, x):
    return (m / k) * np.exp(-x) + (1.0 - np.exp(-x)) ** (m / k) - 1.0


def _case_order_stats_chain(rec: _Recorder):
    # beyond x ~ 15 the curvature function shrinks quadratically in e^{-x}
    # and falls under the double-precision floor, so strict positivity is
    # asserted where it is resolvable and a roundoff band after that
    grid_strict = np.geomspace(1e-8, 10.0, 400)
    grid_far = np.linspace(10.0, 40.0, 100)
    for m in range(3, 6):
        for k in range(2, m):
            X = MaxExp(*([1.0] * m))
            Y = MaxExp(*([1.0] * k))
            rec.verdict(f"m-{m}-vs-k-{k}",
                        compare_ifr(X, Y, 1, _CHAIN_GRID), "supported")
            qmin = float(np.min(_chain_q(m, k, grid_strict)))
            qfar = float(np.min(_chain_q(m, k, grid_far)))
            rec.expect(f"curvature-positive-m-{m}-k-{k}",
                       qmin > 0.0 and qfar >= -1e-12,
                       f"min Q = {qmin:.3e}, far band {qfar:.3e}")


def _case_majorization_ce(rec: _Recorder):
    # rate vectors with equal sums, one majorizing the other; the order
    # checks are invariant to scaling each system separately, so the slope
    # witness is pinned with the systems normalized to unit smallest /
    # largest component rate (lambda2 = 1, theta1 = 1)
    X, Y = MaxExp(408.0 / 1200.0, 1.0), MaxExp(1.0, 1474.0 / 134.0)
    v = compare_ifra(X, Y, 2, _MAJORIZATION_GRID)
    ok = (v.refuted and v.witness is not None
          and v.witness.pattern == ("-", "+", "-") and abs(v.witness.a - 2.89) < 1e-9)
    detail = f"outcome {v.outcome}"
    if v.witness is not None:
        detail += f", pattern {','.join(v.witness.pattern)} at a={v.witness.a:.4g}"
    rec.expect("star-order-2-refuted-minus-plus-minus", ok, detail, v.to_dict())

    # the same counter-example expressed with the equal-sum rate vectors:
    # the refuting slope rescales by the ratio of the normalizations
    lam = (408.0 / 1474.0, 1200.0 / 1474.0)
    theta = (134.0 / 1474.0, 1474.0 / 1474.0)
    a_scaled = 2.89 * (134.0 / 1474.0) / (1200.0 / 1474.0)
    grid = GridSpec(_geom(0.05, 20.0, 24) + (a_scaled,), (0.0,))
    v2 = compare_ifra(MaxExp(*lam), MaxExp(*theta), 2, grid)
    ok2 = (v2.refuted and v2.witness is not None
           and v2.witness.pattern == ("-", "+", "-"))
    rec.expect("equal-sum-family-member-refuted", ok2,
               f"outcome {v2.outcome}", v2.to_dict())


def _case_holder_bounds(rec: _Recorder):
    ifr_d = Gamma(3.0, 1.0)
    dfr_d = Gamma(0.5, 1.0)
    for s in (4, 5):
        for x in (0.5, 1.0, 2.0):
            rep = holder_bounds(ifr_d, s, x)
            rec.expect(f"ifr-shape-3-s-{s}-x-{x}", rep.ifr_holds,
                       f"margins {rep.ifr_lower_margin:.3e}, {rep.ifr_upper_margin:.3e}")
            rep = holder_bounds(dfr_d, s, x)
            rec.expect(f"dfr-shape-0.5-s-{s}-x-{x}", rep.dfr_holds,
                       f"margin {rep.dfr_margin:.3e}")
    rep = holder_bounds(Exponential(1.0), 4, 1.0)
    rec.expect("exponential-boundary-equality", abs(rep.ifr_lower_margin) < 1e-8,
               f"lower margin {rep.ifr_lower_margin:.3e}")


@dataclass(frozen=True)
class _Case:
    case_id: str
    description: str
    runner: Callable


_CASES: tuple[_Case, ...] = (
    _Case("EX_POLYEXP",
          "Polynomial-exponential density: failure rate non-monotone at order 1, "
          "increasing after one iteration; averaged rate not increasing at order 1.",
          _case_ex_polyexp),
    _Case("MAXEXP_HEREDITY_FAIL",
          "Two-rate parallel exponential system: averaged rate increasing at order 1 "
          "but neither increasing nor decreasing at order 2.",
          _case_maxexp_heredity_fail),
    _Case("MAXEXP_DFR_ONSET",
          "Two-rate parallel exponential system turns DFR from iteration order 5 on "
          "(rates 1 and 2).",
          _case_maxexp_dfr_onset),
    _Case("BP_COUNTEREXAMPLE",
          "Branched Pareto pair ordered at s = 1 and in mean residual life, yet not "
          "at s = 2: the transform's slope dips and recovers.",
          _case_bp_counterexample),
    _Case("WEIBULL_LE_GAMMA",
          "Weibull below Gamma at equal shape > 1, orders 1..3, via the joint "
          "star-shape + nonnegative-intercept criterion.",
          _case_weibull_le_gamma),
    _Case("GAMMA_FAMILY",
          "Within the Gamma family a larger shape is below a smaller one, including "
          "shape pairs under 1.",
          _family_case(lambda a: Gamma(a, 1.0))),
    _Case("WEIBULL_FAMILY",
          "Within the Weibull family a larger shape is below a smaller one, including "
          "shape pairs under 1.",
          _family_case(lambda a: Weibull(a, 1.0))),
    _Case("PARALLEL_TAIL_DOM",
          "Homogeneous two-component parallel system dominates the heterogeneous one "
          "pointwise at every iteration order (equal component means normalized out).",
          _case_parallel_tail_dom),
    _Case("PARALLEL_IFRA",
          "Homogeneous parallel system below the heterogeneous one in the star-shape "
          "order for every iteration order checked.",
          _case_parallel_ifra),
    _Case("PARALLEL_IFR",
          "Homogeneous parallel system below the heterogeneous one in the "
          "convex-transform order for every iteration order checked.",
          _case_parallel_ifr),
    _Case("PARALLEL_HOMOG_CLOSURE",
          "Parallel systems of identical exponential components have increasing "
          "failure rate.",
          _case_parallel_homog_closure),
    _Case("ORDER_STATS_CHAIN",
          "Larger homogeneous parallel systems are below smaller ones at order 1; "
          "the defining curvature function stays positive.",
          _case_order_stats_chain),
    _Case("MAJORIZATION_CE",
          "Majorization-ordered rate vectors do NOT imply the star-shape order at "
          "iteration order 2: a slope cell exhibits the pattern -,+,-.",
          _case_majorization_ce),
    _Case("HOLDER_BOUNDS",
          "Residual-moment bounds: both IFR inequalities for Gamma shape 3, the DFR "
          "inequality for Gamma shape 0.5, equality for the exponential.",
          _case_holder_bounds),
)

_REGISTRY = {c.case_id: c for c in _CASES}


def case_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def run_case(case_id: str) -> CaseResult:
    """Execute one registered case and compare against its expectations."""
    if case_id not in _REGISTRY:
        raise UnknownCase(f"no case registered under {case_id!r}")
    case = _REGISTRY[case_id]
    rec = _Recorder()
    t0 = time.perf_counter()
    case.runner(rec)
    dt = time.perf_counter() - t0
    checks = tuple(rec.checks)
    return CaseResult(case.case_id, case.description,
                      all(c.passed for c in checks), checks, dt)


def run_all() -> tuple[CaseResult, ...]:
    """Run every registered case; the summary preserves registry order."""
    return tuple(run_case(cid) for cid in _REGISTRY)
