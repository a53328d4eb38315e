"""Sign patterns on (0, inf) and the pattern-matching rule used by every
order criterion.

A sign pattern is the ordered sequence of strict signs a function shows as
x traverses from 0 to infinity, together with witness abscissae (points
where the function is beyond the deadband in that direction) and bracketing
intervals for each sign change.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Sequence

PLUS = "+"
MINUS = "-"

#: Admissible patterns for the convex-transform (s-IFR) comparisons: at most
#: two sign changes and, when exactly two occur, in the order "+,-,+".
#: Matching accepts final parts, so listing the two maximal chains covers
#: every admissible pattern ("+", "-", "-,+", "+,-", "+,-,+") and nothing else.
ALLOWED_IFR: tuple[tuple[str, ...], ...] = ((PLUS, MINUS, PLUS), (PLUS, MINUS))

#: Admissible patterns for the star-shape (s-IFRA) comparisons: at most one
#: sign change and, when it occurs, in the order "-,+".
ALLOWED_IFRA: tuple[tuple[str, ...], ...] = ((MINUS, PLUS), (MINUS,))

#: Scan window used where a ScanConfig leaves x_max as None and the caller
#: has no horizon of its own.
DEFAULT_X_MAX = 50.0

EXACT = "exact"
SAMPLED = "sampled"


_SIGNS = frozenset((PLUS, MINUS))


def _normalize(seq: Iterable[str]) -> tuple[str, ...]:
    """seq as a tuple of strict signs, each stripped of whitespace; a tuple
    of plain signs, as the library builds them, is returned as it is."""
    if type(seq) is tuple and _SIGNS.issuperset(seq):
        return seq
    out = []
    for s in seq:
        s = s.strip()
        if s not in (PLUS, MINUS):
            raise ValueError(f"invalid sign {s!r}")
        out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class ScanConfig:
    """Controls for adaptive sign scanning on (0, x_max].

    x_max None leaves the window to the caller: the ageing classifiers
    fill it in from the distribution's own window, and scan uses
    DEFAULT_X_MAX.  initial_grid and max_refinement_depth are integers.
    deadband is relative to the largest sampled |f|; samples inside the
    deadband carry no sign evidence.  deadband_abs adds an absolute floor
    for functions whose evaluation noise is not tied to their magnitude
    (quadrature-backed tails).
    """

    x_max: float | None = None
    initial_grid: int = 512
    deadband: float = 1e-11
    max_refinement_depth: int = 12
    deadband_abs: float = 0.0

    def __post_init__(self):
        for name in ("initial_grid", "max_refinement_depth"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        # each check is a negated comparison, so NaN fails it too
        if self.x_max is not None and not (0 < self.x_max < math.inf):
            raise ValueError("x_max must be positive and finite")
        if self.initial_grid < 64:
            raise ValueError("initial_grid must be at least 64")
        if not (0 < self.deadband < math.inf):
            raise ValueError("deadband must be positive and finite")
        if not (0 <= self.deadband_abs < math.inf):
            raise ValueError("deadband_abs must be nonnegative and finite")
        if self.max_refinement_depth < 0:
            raise ValueError("max_refinement_depth must be nonnegative")

    def with_x_max(self, x_max: float) -> "ScanConfig":
        """This configuration, with x_max filled in when it is None."""
        return self if self.x_max is not None else replace(self, x_max=x_max)


@dataclass(frozen=True)
class SignPattern:
    """Ordered sequence of strict signs with supporting evidence.

    witnesses[i] is an abscissa where the function exceeds the deadband with
    sign signs[i]; change_points[i] brackets the i-th sign change and lies
    between witnesses[i] and witnesses[i+1].  confidence is "exact" when the
    pattern came from certified root isolation and "sampled" otherwise.
    uncertain marks an inconclusive-grade pattern (root isolation could not
    separate candidates); such patterns must not be used as evidence.
    """

    signs: tuple[str, ...]
    witnesses: tuple[float, ...]
    change_points: tuple[tuple[float, float], ...]
    confidence: str = SAMPLED
    uncertain: bool = False

    def __post_init__(self):
        object.__setattr__(self, "signs", _normalize(self.signs))
        if len(self.witnesses) != len(self.signs):
            raise ValueError("one witness per sign is required")
        if len(self.change_points) != max(0, len(self.signs) - 1):
            raise ValueError("one change point per adjacent sign pair")
        for a, b in zip(self.signs, self.signs[1:]):
            if a == b:
                raise ValueError("adjacent signs must differ")
        if any(b < a for a, b in zip(self.witnesses, self.witnesses[1:])):
            raise ValueError("witnesses must be increasing")

    def __str__(self) -> str:
        return ",".join(self.signs) if self.signs else "(none)"


@lru_cache(maxsize=64)
def _final_parts(allowed: tuple[tuple[str, ...], ...]) -> frozenset[tuple[str, ...]]:
    """Every final part of each sequence of an allowed set, normalized, once
    per distinct set."""
    return frozenset(cand[i:] for cand in map(_normalize, allowed) for i in range(len(cand) + 1))


def matches(pattern: SignPattern | Sequence[str], allowed: Iterable[Sequence[str]]) -> bool:
    """True iff the pattern is a final part (suffix) of some allowed sequence.

    The empty pattern (a function with no sign evidence, e.g. identically
    zero within the deadband) is a final part of everything.
    """
    signs = pattern.signs if isinstance(pattern, SignPattern) else _normalize(pattern)
    return not signs or signs in _final_parts(tuple(map(tuple, allowed)))
