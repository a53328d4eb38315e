"""Verdict documents against the golden corpus (tests/golden_corpus.py).

The four slowest casebook cases are compared in CI's whole-casebook step
instead; every other document is regenerated here."""
import pytest

from golden_corpus import GOLDEN, casebook_document, compare_document, compare_runs, golden, same
from tailorder.casebook import case_ids

#: compared against the corpus in CI, after the whole casebook has run
SLOW_CASES = ("WEIBULL_LE_GAMMA", "GAMMA_FAMILY", "WEIBULL_FAMILY", "ORDER_STATS_CHAIN")


def test_corpus_is_complete():
    assert sorted(p.stem for p in (GOLDEN / "casebook").glob("*.json")) == sorted(case_ids())
    assert sorted(p.name for p in (GOLDEN / "compare").glob("*.json")) == \
        sorted(name for name, _ in compare_runs())


@pytest.mark.parametrize("case_id", [c for c in case_ids() if c not in SLOW_CASES])
def test_casebook_document(case_id):
    assert same(golden("casebook", f"{case_id}.json"), casebook_document(case_id)) == []


@pytest.mark.parametrize("name,args", list(compare_runs()), ids=[n for n, _ in compare_runs()])
def test_compare_document(name, args):
    assert same(golden("compare", name), compare_document(args)) == []


class TestSame:
    DOC = {"outcome": "refuted", "cells_scanned": 3, "passed": True,
           "witness": {"pattern": "+,-", "a": 0.5, "abscissae": [1e-30, 2.0]}}

    def _moved(self, **changes):
        doc = {**self.DOC, "witness": {**self.DOC["witness"]}}
        for key, value in changes.items():
            (doc["witness"] if key in doc["witness"] else doc)[key] = value
        return same(self.DOC, doc)

    def test_floats_within_the_tolerance(self):
        assert self._moved(a=0.5 * (1 + 5e-10), abscissae=[1e-30 * (1 - 5e-10), 2.0]) == []

    def test_floats_beyond_the_tolerance(self):
        assert self._moved(a=0.5 * (1 + 2e-9)) == [f"$.witness.a: 0.5 != {0.5 * (1 + 2e-9)!r}"]
        assert self._moved(abscissae=[0.0, 2.0]) != []

    def test_everything_else_exactly(self):
        assert self._moved(outcome="supported") != []
        assert self._moved(cells_scanned=4) != []
        assert self._moved(pattern="+,-,+") != []
        assert self._moved(passed=1) != []
        assert self._moved(abscissae=[1e-30]) != []
        assert same(self.DOC, {**self.DOC, "reason": None}) != []
