"""tailorder: iterated tail-weight distributions, iterated failure rates,
and failure-rate stochastic orders for lifetime distributions.

The library computes s-iterated tails (normalized residual-life moments),
classifies the monotonicity of iterated failure rates, and checks
convex-transform / star-shape / mean-residual-life orders between pairs of
distributions through sign-variation criteria, with an executable casebook
of worked results.
"""

from .ageing import (
    CONSTANT,
    DECREASING,
    INCREASING,
    NON_MONOTONE,
    HolderBounds,
    MonotoneClass,
    classify_ifr,
    classify_ifra,
    dfr_onset,
    failure_rate,
    holder_bounds,
)
from .casebook import CaseResult, case_ids, run_all, run_case
from .distributions import (
    BranchedPareto,
    Distribution,
    Exponential,
    ExpPolyTail,
    Gamma,
    MaxExp,
    NumericDensity,
    PolyExpExample,
    Weibull,
    parse_distribution,
)
from .errors import (
    ClassifierDisagreement,
    IndeterminateFunction,
    InfiniteMoment,
    ResidualUncertainty,
    TailOrderError,
    TailUnderflow,
    UnknownCase,
)
from .exppoly import ExpPoly, RootReport
from .iteration import IteratedTail, iterate, iterated_moment, residual_partial_moment
from .ordering import (
    GridSpec,
    RefutationWitness,
    Verdict,
    compare_dmrl,
    compare_ifr,
    compare_ifra,
    convexity_check,
    criterion_h,
    newcrit,
)
from .patterns import ALLOWED_IFR, ALLOWED_IFRA, ScanConfig, SignPattern, matches
from .signscan import check_integration_lemma, scan

__version__ = "0.1.0"

__all__ = [
    "ALLOWED_IFR",
    "ALLOWED_IFRA",
    "BranchedPareto",
    "CaseResult",
    "ClassifierDisagreement",
    "CONSTANT",
    "DECREASING",
    "Distribution",
    "ExpPoly",
    "ExpPolyTail",
    "Exponential",
    "Gamma",
    "GridSpec",
    "HolderBounds",
    "INCREASING",
    "IndeterminateFunction",
    "InfiniteMoment",
    "IteratedTail",
    "MaxExp",
    "MonotoneClass",
    "NON_MONOTONE",
    "NumericDensity",
    "PolyExpExample",
    "RefutationWitness",
    "ResidualUncertainty",
    "RootReport",
    "ScanConfig",
    "SignPattern",
    "TailOrderError",
    "TailUnderflow",
    "UnknownCase",
    "Verdict",
    "Weibull",
    "case_ids",
    "check_integration_lemma",
    "classify_ifr",
    "classify_ifra",
    "compare_dmrl",
    "compare_ifr",
    "compare_ifra",
    "convexity_check",
    "criterion_h",
    "dfr_onset",
    "failure_rate",
    "holder_bounds",
    "iterate",
    "iterated_moment",
    "matches",
    "newcrit",
    "parse_distribution",
    "residual_partial_moment",
    "run_all",
    "run_case",
    "scan",
]
