"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certified --seed 1 --seconds 50 --trace 0

One caller, one process, one thread, closed loop: the next op starts when
the previous one has returned.  Every op's wall time is divided by the mean
of the reference-kernel timings just before and just after it (see
``ref.py``), so the end-to-end figures are in reference units (``ref``) and
host-speed drift divides out.  ``--trace 1`` makes a separate run that
reports per-layer counts and self times instead (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give every figure by name with its unit, plus provenance.
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402

# pin BLAS/OpenMP pools before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: total_ref (and its raw-seconds counterpart wall_s) is the cost of this
#: many ops of the workload's mix
FIXED_OPS = 100
#: fewest ops for a p90 with ten ops beyond it; a run is extended (up to
#: twice --seconds) to reach it
MIN_OPS = 100
#: set-ups per run (this process plus fresh child processes); the median
#: is reported
SETUPS = 5


def _import_library():
    """Import tailorder from this checkout's src/, never from elsewhere."""
    if not (SRC / "tailorder" / "__init__.py").is_file():
        sys.exit(f"perfbench: library source not found at {SRC / 'tailorder'}")
    sys.path.insert(0, str(SRC))
    import tailorder
    if Path(tailorder.__file__).resolve().parent != (SRC / "tailorder").resolve():
        sys.exit(f"perfbench: imported tailorder from {tailorder.__file__}, not {SRC}")


def _setup(name: str, seed: int, trace: bool):
    """Imports, seeded inputs and warm-up.  Returns the workload, its block
    stream and, for a traced run, a tracer that saw the warm-up."""
    _import_library()
    import ref
    import workloads

    for _ in range(3):
        ref.kernel()
    workload = workloads.WORKLOADS[name](seed)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer:
            workload.warm()
    else:
        workload.warm()
    return workload, workloads.blocks(workload), tracer


def run_ops(workload, blocks, seconds: float, min_ops: int = 0, tracer=None):
    """Closed loop over whole blocks until ``seconds`` have passed (and
    ``min_ops`` ops are done, unless twice ``seconds`` have passed).

    Returns one (op time in ref units, wall s, ref s, failure or None) row
    per op.  An op that raises, contradicts the workload's expected
    outcome, or whose refutation does not replay is failed; the run goes on.
    """
    from ref import time_kernel

    rows = []
    start = time.perf_counter()
    ref_before = time_kernel()
    for block in blocks:
        for op in block:
            if tracer is not None:
                tracer.op = len(rows)
            t0 = time.perf_counter()
            try:
                result, failure = workload.execute(op), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, failure = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            ref_after = time_kernel()
            ref_s = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
            if failure is None:
                try:
                    failure = workload.judge(op, result)[1]
                except Exception as exc:
                    failure = f"check raised {type(exc).__name__}: {exc}"
            if failure is not None:
                print(f"failed op {len(rows)} {op}: {failure}", file=sys.stderr)
            rows.append((wall / ref_s, wall, ref_s, failure))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(rows) >= min_ops or elapsed >= 2 * seconds):
            return rows


def summarize(rows) -> dict:
    """total_ref, the median and the tail percentile of op costs in ref
    units.  The tail is the p90 given 100 ops, else the highest percentile
    with ten ops beyond it, under its own name."""
    costs = [r[0] for r in rows]
    out = {"total_ref": FIXED_OPS * statistics.fmean(costs),
           "op_p50_ref": statistics.median(costs)}
    n = len(costs)
    if n > 10:
        p = min(90, 100 * (n - 10) // n)
        out[f"op_p{p}_ref"] = statistics.quantiles(costs, n=100)[p - 1]
    return out


def _child_setup_s(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _provenance(args) -> str:
    import numpy
    import scipy

    return (f"# workload {args.workload} seed {args.seed} trace {args.trace} "
            f"python {platform.python_version()} numpy {numpy.__version__} "
            f"scipy {scipy.__version__} nproc {os.cpu_count()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certified", "sampled", "classify_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload, blocks, tracer = _setup(args.workload, args.seed, bool(args.trace))
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(setup_s)
        return 0
    if tracer is not None:
        return _traced(args, workload, blocks, tracer)

    rows = run_ops(workload, blocks, args.seconds, min_ops=MIN_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [_child_setup_s(args.workload, args.seed) for _ in range(SETUPS - 1)]
    _report(args, rows, {"setup_s": statistics.median(setups), **summarize(rows),
                         "peak_rss_mb": peak_rss_mb})
    return 0


def _traced(args, workload, blocks, tracer) -> int:
    """Half the time untraced, then half traced on the next ops of the same
    stream; per-layer metrics come from the traced half only."""
    untraced = run_ops(workload, blocks, args.seconds / 2)
    with tracer:
        traced = run_ops(workload, blocks, args.seconds / 2, tracer=tracer)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{args.workload}-{args.seed}.csv.gz")
    untraced_ref = summarize(untraced)["total_ref"]
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ref"] = summarize(traced)["total_ref"] - untraced_ref
    _report(args, untraced + traced, metrics, {"untraced_total_ref": untraced_ref})
    return 0


def _report(args, rows, metrics, context=None) -> None:
    """Print provenance, every metric and the context figures by name with
    their units, then the one-line JSON result."""
    failed = sum(1 for r in rows if r[3] is not None)
    context = {"fail_frac": failed / len(rows), "ops": len(rows),
               "ref_ms": 1e3 * statistics.median(r[2] for r in rows),
               "wall_s": FIXED_OPS * statistics.fmean(r[1] for r in rows), **(context or {})}
    print(_provenance(args))
    for name, value in {**metrics, **context}.items():
        print(f"{name:40s} {value:>16.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(rows), "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_mb", "MB"), ("_ref", "ref"),
                         ("_frac", "1"), ("_per_cell", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
