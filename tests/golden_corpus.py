"""Golden verdict documents under tests/golden/, and how to compare with them.

The corpus holds every casebook case's ``documents_json`` (indented, in
``golden/casebook/<ID>.json``) and the CLI ``compare`` documents of the
exact path (``golden/compare/*.json``), each with ``runtime_ms`` dropped.

``same(want, got)`` compares two documents as the tests do: every key,
string, integer and boolean exactly (outcomes, cell counts, patterns,
names), and floats to a relative 1e-9, since numpy and scipy versions may
move last digits.  Run as a script (with ``src`` on the path):

    python tests/golden_corpus.py diff             # regenerate, diff byte for byte
    python tests/golden_corpus.py write            # regenerate the corpus in place
    python tests/golden_corpus.py casebook FILE    # FILE: `tailorder --json FILE casebook`

``diff`` lists every document whose bytes moved on this machine; ``casebook``
checks a whole-casebook run against the corpus with ``same``.  Both exit 1
on any difference.
"""
from __future__ import annotations

import json
import sys
import tempfile
from itertools import product
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-9

#: (x, y) literal pairs, criteria and orders of the compare documents
PAIRS = (("maxexp(1,1)", "maxexp(1,2)"), ("maxexp(1,2)", "maxexp(1,1)"),
         ("exp(1)", "maxexp(1,2)"), ("maxexp(1,1)", "maxexp(1,4)"))
CRITERIA = ("ifr", "ifra", "hs", "hs1", "newcrit")
ORDERS = (1, 2, 3, 4)
GRID = ("--a-grid", "24", "--b-grid", "12")


def _slug(literal: str) -> str:
    return literal.replace("(", "").replace(")", "").replace(",", "-")


def compare_runs():
    """(file name, CLI arguments) of every compare document."""
    for (x, y), criterion, s in product(PAIRS, CRITERIA, ORDERS):
        name = f"{criterion}-s{s}-{_slug(x)}-vs-{_slug(y)}.json"
        yield name, ["compare", "--x", x, "--y", y, "--s", str(s),
                     "--criterion", criterion, *GRID]


def _text(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n"


def compare_document(args) -> dict:
    """The CLI's JSON document for args, without runtime_ms."""
    from tailorder.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        main(["--json", str(path), *args])
        doc = json.loads(path.read_text())
    doc.pop("runtime_ms")
    return doc


def casebook_document(case_id: str) -> dict:
    from tailorder.casebook import run_case

    return json.loads(run_case(case_id).documents_json())


def golden(kind: str, name: str) -> dict:
    return json.loads((GOLDEN / kind / name).read_text())


def same(want, got, path="$") -> list[str]:
    """Paths at which got differs from want: floats beyond a relative REL,
    anything else at all (the documents are strict JSON: no nan or inf)."""
    if isinstance(want, float) and isinstance(got, float):
        if abs(want - got) <= REL * max(abs(want), abs(got)):
            return []
        return [f"{path}: {want!r} != {got!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in want for d in same(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        return [d for i, (w, g) in enumerate(zip(want, got)) for d in same(w, g, f"{path}[{i}]")]
    if type(want) is not type(got) or want != got:
        return [f"{path}: {want!r} != {got!r}"]
    return []


def _documents():
    """(kind, file name, regenerated document) of the whole corpus."""
    from tailorder.casebook import case_ids

    for case_id in case_ids():
        yield "casebook", f"{case_id}.json", casebook_document(case_id)
    for name, args in compare_runs():
        yield "compare", name, compare_document(args)


def _write() -> int:
    for kind, name, doc in _documents():
        (GOLDEN / kind).mkdir(parents=True, exist_ok=True)
        (GOLDEN / kind / name).write_text(_text(doc))
    return 0


def _diff() -> int:
    moved = 0
    for kind, name, doc in _documents():
        path = GOLDEN / kind / name
        if not path.exists() or path.read_text() != _text(doc):
            moved += 1
            print(f"moved: {kind}/{name}")
            for d in same(golden(kind, name), doc) if path.exists() else ["missing"]:
                print(f"  {d}")
    print(f"{moved} document(s) moved")
    return 1 if moved else 0


def _check_casebook(file: str) -> int:
    cases = json.loads(Path(file).read_text())["cases"]
    diffs = [f"{case['case_id']} {d}" for case in cases
             for d in same(golden("casebook", f"{case['case_id']}.json"), case)]
    names = {case["case_id"] for case in cases}
    diffs += [f"{p.stem} missing" for p in sorted((GOLDEN / "casebook").glob("*.json"))
              if p.stem not in names]
    print("\n".join(diffs) or f"{len(cases)} casebook documents match the corpus")
    return 1 if diffs else 0


if __name__ == "__main__":
    command, *rest = sys.argv[1:] or ["diff"]
    if command == "write":
        sys.exit(_write())
    if command == "diff":
        sys.exit(_diff())
    if command == "casebook" and len(rest) == 1:
        sys.exit(_check_casebook(rest[0]))
    sys.exit(__doc__)
