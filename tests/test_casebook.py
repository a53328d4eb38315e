"""Casebook registry: known ids, expected outcomes, idempotence."""
import json

import pytest

from tailorder import Exponential, UnknownCase, Weibull, convexity_check, run_all, run_case
from tailorder.casebook import CaseResult, CheckResult, case_ids

FAST_CASES = [
    "EX_POLYEXP",
    "MAXEXP_HEREDITY_FAIL",
    "MAXEXP_DFR_ONSET",
    "PARALLEL_TAIL_DOM",
    "PARALLEL_HOMOG_CLOSURE",
    "MAJORIZATION_CE",
    "HOLDER_BOUNDS",
]


def test_registry_contents():
    ids = case_ids()
    assert len(ids) == 14
    for cid in FAST_CASES:
        assert cid in ids


@pytest.mark.parametrize("cid", FAST_CASES)
def test_fast_cases_pass(cid):
    result = run_case(cid)
    assert result.passed, [(c.name, c.detail) for c in result.checks if not c.passed]


def test_branched_pareto_case():
    result = run_case("BP_COUNTEREXAMPLE")
    assert result.passed, [(c.name, c.detail) for c in result.checks if not c.passed]
    names = [c.name for c in result.checks]
    assert "order-1-supported" in names
    assert "order-2-refuted" in names


def test_unknown_case_rejected():
    with pytest.raises(UnknownCase):
        run_case("NO_SUCH_CASE")


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON (RFC 8259)")


def _one_check(document):
    return CaseResult("ID", "", False, (CheckResult("check", False, "", document),), 0.0)


def test_monotone_witness_document_is_strict_json():
    # a monotonicity check has no cell (a, b): its witness writes null
    v = convexity_check(Exponential(1.0), Weibull(2.0, 1.0), 1)
    assert v.refuted
    doc = json.loads(_one_check(v.to_dict()).documents_json(), parse_constant=_reject_constant)
    witness = doc["checks"][0]["document"]["witness"]
    assert witness["a"] is None and witness["b"] is None


def test_documents_json_rejects_non_finite_numbers():
    with pytest.raises(ValueError):
        _one_check({"value": float("nan")}).documents_json()


def test_case_runs_are_idempotent():
    first = run_case("MAJORIZATION_CE")
    second = run_case("MAJORIZATION_CE")
    assert first.documents_json() == second.documents_json()


def test_run_all_aggregates(monkeypatch):
    # keep the smoke test quick: run the fast subset through the aggregator
    import tailorder.casebook as cb
    subset = {cid: cb._REGISTRY[cid] for cid in FAST_CASES[:3]}
    monkeypatch.setattr(cb, "_REGISTRY", subset)
    results = run_all()
    assert [r.case_id for r in results] == FAST_CASES[:3]
    assert all(r.passed for r in results)
    assert all(r.runtime_s >= 0 for r in results)
