"""Seeded workloads.  Each is an endless stream of balanced blocks of ops of
one type, run by one caller in a closed loop, and each loads one layer.

* ``certified``: ``newcrit`` between parallel systems of exponentials.
  Both iterated tails are exponential polynomials, so certified root
  isolation (``ExpPoly.sign_pattern_exact``) does most of the work.
* ``sampled``: ``newcrit`` between Weibull and Gamma of equal shape.  The
  tails are incomplete-gamma sums, so sampled scans (``signscan.scan``) and
  vector density calls do the work and root isolation does none.  Every
  iterate is built in set-up, so ops run on a warm ``iterate`` cache.  A
  quarter of the ops are reversed, which refutes in the star-shape step.
* ``classify_cold``: a fresh Gamma or Weibull per op, iterated and
  classified.  Every ``iterate`` misses the cache, so its quadrature
  cross-check and the classifier's finite-difference scans do the work.

The seed fixes every parameter; the library receives only the generated
distributions, orders and grids.  Blocks are balanced (each order ``s``
once per block, a fixed share of reversed ops) so that a run's mix, and
with it the run's cost, varies little from seed to seed.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

# library calls go through the package's attributes, which the traced run wraps
import tailorder
from tailorder import Gamma, GridSpec, MaxExp, Weibull

#: Shaped like the casebook's parallel-system grid (geometric slopes
#: 0.05-20, intercepts linear from 0), shrunk to a few tenths of a second
#: per op.
CERTIFIED_GRID = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)),
                          tuple(np.linspace(0.0, 8.0, 4)))
#: Shaped like the casebook's Weibull/Gamma grid, shrunk the same way.
SAMPLED_GRID = GridSpec(tuple(np.geomspace(0.05, 20.0, 12)),
                        tuple(np.linspace(0.0, 12.0, 6)))
#: Distinct shapes in the sampled workload; 16 shapes x 3 orders x 2
#: families = 96 iterates, well under iterate's 512-entry cache.
SAMPLED_POOL = 16


@dataclass(frozen=True)
class Op:
    """One call into the library: a family, its shape (or the second rate
    of a parallel system), the iteration order, and for ``sampled`` whether
    the pair is reversed."""

    family: str
    shape: float
    s: int
    reversed: bool = False


def _replays(X, Y, s: int, witness) -> bool:
    """Re-verify a refutation of V(x) = tail_{Y,s}(x) - tail_{X,s}(a x + b)
    from its witness alone: every sign must lie beyond the deadband."""
    x = np.asarray(witness.abscissae, dtype=float)
    v = (tailorder.iterate(Y, s).eval_tail(x)
         - tailorder.iterate(X, s).eval_tail(witness.a * x + witness.b))
    return all(val > witness.deadband if sign == "+" else val < -witness.deadband
               for val, sign in zip(np.atleast_1d(v), witness.pattern))


def _judge_verdict(X, Y, s: int, verdict, expected: str | None):
    """(document, failure reason or None) for a newcrit verdict."""
    doc = verdict.to_dict()
    if verdict.refuted and not _replays(X, Y, s, verdict.witness):
        return doc, "refutation does not replay from its witness"
    if expected is not None and verdict.outcome != expected:
        return doc, f"expected {expected}, got {verdict.outcome}"
    return doc, None


class Certified:
    name = "certified"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])

    def warm(self) -> None:
        tailorder.newcrit(MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), 2, CERTIFIED_GRID)

    def block(self) -> list[Op]:
        ops = [Op("maxexp", float(self.rng.uniform(1.2, 6.0)), s) for s in (1, 2, 3, 4)]
        self.rng.shuffle(ops)
        return ops

    def _pair(self, op: Op):
        return MaxExp(1.0, 1.0), MaxExp(1.0, op.shape)

    def execute(self, op: Op):
        X, Y = self._pair(op)
        return tailorder.newcrit(X, Y, op.s, CERTIFIED_GRID)

    def judge(self, op: Op, verdict):
        return _judge_verdict(*self._pair(op), op.s, verdict, "supported")


class Sampled:
    name = "sampled"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])
        # one shape per stratum of U(1.2, 3)
        u = self.rng.uniform(size=SAMPLED_POOL)
        self.pool = tuple(float(1.2 + 1.8 * (k + u[k]) / SAMPLED_POOL)
                          for k in range(SAMPLED_POOL))
        self._queue: list[float] = []

    def warm(self) -> None:
        for alpha in self.pool:
            for s in (1, 2, 3):
                tailorder.iterate(Weibull(alpha), s)
                tailorder.iterate(Gamma(alpha), s)
        tailorder.newcrit(Weibull(self.pool[0]), Gamma(self.pool[0]), 2, SAMPLED_GRID)

    def block(self) -> list[Op]:
        # the next four shapes of a seeded walk through the pool, each at
        # every order, one op per order reversed: four blocks use every
        # (shape, order) pair once
        if not self._queue:
            self._queue = [self.pool[k] for k in self.rng.permutation(SAMPLED_POOL)]
        shapes, self._queue = self._queue[:4], self._queue[4:]
        ops = []
        for s in (1, 2, 3):
            flipped = int(self.rng.integers(4))
            ops += [Op("weibull-gamma", alpha, s, reversed=(k == flipped))
                    for k, alpha in enumerate(shapes)]
        self.rng.shuffle(ops)
        return ops

    def _pair(self, op: Op):
        X, Y = Weibull(op.shape), Gamma(op.shape)
        return (Y, X) if op.reversed else (X, Y)

    def execute(self, op: Op):
        X, Y = self._pair(op)
        return tailorder.newcrit(X, Y, op.s, SAMPLED_GRID)

    def judge(self, op: Op, verdict):
        # a reversed pair may give any verdict, but a refutation must replay
        expected = None if op.reversed else "supported"
        return _judge_verdict(*self._pair(op), op.s, verdict, expected)


class ClassifyCold:
    name = "classify_cold"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 3])

    def warm(self) -> None:
        d = Gamma(2.0)
        tailorder.iterate(d, 2)
        tailorder.classify_ifr(d, 2)
        tailorder.classify_ifra(d, 2)

    def _shape(self) -> float:
        # uniform over U(0.3, 0.9) u U(1.1, 3)
        u = float(self.rng.uniform(0.0, 2.5))
        return 0.3 + u if u < 0.6 else 1.1 + (u - 0.6)

    def block(self) -> list[Op]:
        ops = [Op("gamma" if self.rng.integers(2) else "weibull", self._shape(), s)
               for s in range(2, 11)]
        self.rng.shuffle(ops)
        return ops

    def execute(self, op: Op):
        d = Gamma(op.shape) if op.family == "gamma" else Weibull(op.shape)
        tailorder.iterate(d, op.s)
        return tailorder.classify_ifr(d, op.s), tailorder.classify_ifra(d, op.s)

    def judge(self, op: Op, result):
        # IFR and DFR are hereditary under iteration, and s-IFR implies s-IFRA
        ifr, ifra = result
        doc = {"ifr": dataclasses.asdict(ifr), "ifra": dataclasses.asdict(ifra)}
        expected = "increasing" if op.shape > 1.0 else "decreasing"
        got = (ifr.verdict, ifra.verdict)
        if got != (expected, expected):
            return doc, f"expected {expected} twice, got {got[0]} and {got[1]}"
        return doc, None


WORKLOADS = {w.name: w for w in (Certified, Sampled, ClassifyCold)}


def blocks(workload):
    """Endless stream of the workload's balanced blocks."""
    while True:
        yield workload.block()
