"""Tests for the benchmark's own code (not part of the library's suite).

    python3 -m pytest perfbench
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tailorder  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _first_ops(name, seed, n):
    stream = workloads.blocks(workloads.WORKLOADS[name](seed))
    ops = []
    while len(ops) < n:
        ops += next(stream)
    return ops[:n]


def test_same_seed_same_ops_and_documents():
    for name in workloads.WORKLOADS:
        assert _first_ops(name, 7, 24) == _first_ops(name, 7, 24)
    docs = []
    for _ in range(2):
        wl = workloads.Sampled(7)
        ops = _first_ops("sampled", 7, 12)
        docs.append([json.dumps(wl.judge(op, wl.execute(op))[0], sort_keys=True)
                     for op in ops[:3]])
    assert docs[0] == docs[1]


def test_different_seed_different_parameters():
    for name in workloads.WORKLOADS:
        a = {op.shape for op in _first_ops(name, 7, 24)}
        b = {op.shape for op in _first_ops(name, 8, 24)}
        assert a != b
    assert workloads.Sampled(7).pool != workloads.Sampled(8).pool


def test_blocks_are_balanced():
    sampled = _first_ops("sampled", 3, 12)
    assert sorted(op.s for op in sampled) == [1] * 4 + [2] * 4 + [3] * 4
    assert sum(op.reversed for op in sampled) == 3
    assert len({op.shape for op in sampled}) == 4
    assert sorted(op.s for op in _first_ops("certified", 3, 4)) == [1, 2, 3, 4]
    cold = _first_ops("classify_cold", 3, 9)
    assert sorted(op.s for op in cold) == list(range(2, 11))
    assert all(0.3 <= op.shape <= 0.9 or 1.1 <= op.shape <= 3.0 for op in cold)


def test_reference_kernel_never_imports_tailorder():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import ref; ref.kernel(); "
            "print(any(m.split('.')[0] == 'tailorder' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, str(HERE), str(HERE.parent / "src")],
                         check=True, capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_refutation_replays_and_a_corrupted_witness_does_not():
    from dataclasses import replace

    X, Y = tailorder.Gamma(2.0), tailorder.Weibull(2.0)
    verdict = tailorder.newcrit(X, Y, 1, workloads.SAMPLED_GRID)
    assert verdict.refuted
    assert workloads._replays(X, Y, 1, verdict.witness)
    flipped = tuple("+" if s == "-" else "-" for s in verdict.witness.pattern)
    assert not workloads._replays(X, Y, 1, replace(verdict.witness, pattern=flipped))


def _bindings():
    """Every attribute of every loaded tailorder module and of the traced
    classes, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name.split(".")[0] == "tailorder":
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls, _, _ in tracing.METHODS:
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    originals = (tailorder.ordering.scan, tailorder.iterate, tailorder.ExpPoly.isolate_roots)
    tracer = tracing.Tracer()
    with tracer:
        assert tailorder.ordering.scan is not originals[0]
        assert tailorder.signscan.scan is tailorder.ordering.scan
        assert tailorder.ageing.iterate is tailorder.iterate is not originals[1]
        tracer.op = 0
        wl = workloads.Certified(1)
        wl.execute(_first_ops("certified", 1, 1)[0])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert (tailorder.ordering.scan, tailorder.iterate,
            tailorder.ExpPoly.isolate_roots) == originals
    m = tracer.layer_metrics()
    assert m["ordering.newcrit.calls"] == 1
    assert m["exppoly.sign_pattern_exact.calls"] > 0
    assert m["exppoly.isolate_roots.calls"] > 0


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rows = [(float(k % 7 + 1), 0.0, 0.0, None) for k in range(100)]
    assert {m["name"] for m in spec["end_to_end"]} == (
        set(run.summarize(rows)) | {"setup_s", "peak_rss_mb"})
    assert all(run.unit_of(m["name"]) == m["unit"] for m in spec["end_to_end"])
    per_layer = set(tracing.Tracer().layer_metrics()) | {"trace.overhead_ref"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert all(run.unit_of(m["name"]) == m["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == ["certified", "sampled"]
