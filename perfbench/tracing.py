"""Span tracing from outside the library, for the traced per-layer run.

``Tracer.install`` replaces every binding of the public entry points of
each layer, in every loaded ``tailorder`` module (modules import names
directly, so ``ordering.scan`` and ``signscan.scan`` are separate
bindings), plus a few class attributes, with wrappers that record spans
(name, start, end, parent span, op id) in memory.  ``uninstall`` puts every
original back by identity.  End-to-end figures never come from a traced
run.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from tailorder.distributions import Distribution
from tailorder.exppoly import ExpPoly
from tailorder.iteration import IteratedTail

#: (module, public function, span name)
FUNCTIONS = (
    ("tailorder.iteration", "iterate", "iteration.iterate"),
    ("tailorder.iteration", "residual_partial_moment", "iteration.residual_partial_moment"),
    ("tailorder.signscan", "scan", "signscan.scan"),
    ("tailorder.ageing", "classify_ifr", "ageing.classify_ifr"),
    ("tailorder.ageing", "classify_ifra", "ageing.classify_ifra"),
    ("tailorder.ordering", "newcrit", "ordering.newcrit"),
    ("tailorder.ordering", "compare_ifr", "ordering.compare_ifr"),
    ("tailorder.ordering", "compare_ifra", "ordering.compare_ifra"),
    ("tailorder.ordering", "criterion_h", "ordering.criterion_h"),
)
#: (class, method, span name)
METHODS = (
    (ExpPoly, "sign_pattern_exact", "exppoly.sign_pattern_exact"),
    (ExpPoly, "isolate_roots", "exppoly.isolate_roots"),
    (IteratedTail, "eval_tail", "iteration.eval_tail"),
    (Distribution, "density", "distributions.density"),
    (Distribution, "tail", "distributions.tail"),
)
#: spans that record the number of points they were called on
POINTWISE = ("iteration.eval_tail", "distributions.density", "distributions.tail")


class Tracer:
    """Records spans while installed.  ``op`` is the id of the op in flight,
    or None in set-up and in the benchmark's own checks.

    Spans live in flat arrays (a traced run makes about a million of them);
    ``info`` holds the few per-span details that are not times.
    """

    def __init__(self):
        self.names = [name for *_, name in FUNCTIONS + METHODS]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_of = array("q")
        self.points = array("q")
        self.info: dict[int, dict] = {}
        self.op: int | None = None
        self.seen: set = set()  # (distribution, s) keys passed to iterate
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # per-name hooks: before(args) -> (args, state); after(args, state, result) -> info
        self._hooks = {
            "iteration.iterate": (self._iterate_before, lambda a, miss, r: {"miss": miss}),
            "signscan.scan": (self._scan_before, lambda a, n, r: {"calls": n[0], "points": n[1]}),
            "exppoly.sign_pattern_exact": (
                None, lambda a, _, r: {"terms": len(a[0].terms), "uncertain": r.uncertain}),
            "ageing.classify_ifr": (None, lambda a, _, r: {"exact": r.confidence == "exact"}),
            "ageing.classify_ifra": (None, lambda a, _, r: {"exact": r.confidence == "exact"}),
            "ordering.compare_ifra": (None, lambda a, _, r: {"cells": r.cells_scanned}),
            "ordering.newcrit": (
                None, lambda a, _, r: {"cells": r.cells_scanned, "outcome": r.outcome}),
        }

    # -- hooks ------------------------------------------------------------

    def _iterate_before(self, args):
        key = (args[0], int(args[1]))
        miss = key not in self.seen
        self.seen.add(key)
        return args, miss

    @staticmethod
    def _scan_before(args):
        f, counts = args[0], [0, 0]

        def counted(x):
            counts[0] += 1
            counts[1] += int(np.size(x))
            return f(x)

        return (counted,) + tuple(args[1:]), counts

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        before, after = self._hooks.get(name, (None, None))
        name_id = self.names.index(name)
        pointwise = name in POINTWISE
        stack, info = self._stack, self.info
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                args, state = before(args)
            i = len(starts)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(-1 if self.op is None else self.op)
            self.points.append(int(np.size(args[1])) if pointwise else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info[i] = {"raised": type(exc).__name__}
                raise
            finally:
                ends[i] = time.perf_counter()
                stack.pop()
            if after is not None:
                info[i] = after(args, state, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and n.split(".")[0] == "tailorder"]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for cls, attr, name in METHODS:
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as a gzip-compressed CSV row: name, start, end,
        parent span (-1 for none), op id (-1 for none), points (-1 for none)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start,end,parent,op,points\n")
            for i in range(len(self.start)):
                out.write(f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                          f"{self.parent[i]},{self.op_of[i]},{self.points[i]}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and ratios over the spans of ops."""
        child = defaultdict(float)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        points = defaultdict(int)
        info = defaultdict(list)
        miss_s = 0.0
        ifra_evals = 0
        for i in range(len(self.start)):
            if self.op_of[i] < 0:
                continue
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += duration - child[i]
            points[name] += max(self.points[i], 0)
            d = self.info.get(i)
            if d is not None:
                info[name].append(d)
                if d.get("miss"):
                    miss_s += duration
            p = self.parent[i]
            if (name in ("signscan.scan", "exppoly.sign_pattern_exact") and p >= 0
                    and self.names[self.name[p]] == "ordering.compare_ifra"):
                ifra_evals += 1

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        m: dict[str, float] = {}
        for name in ("exppoly.sign_pattern_exact", "exppoly.isolate_roots"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        spe = [d for d in info["exppoly.sign_pattern_exact"] if "terms" in d]
        m["exppoly.terms_mean"] = mean([d["terms"] for d in spe])
        m["exppoly.uncertain_frac"] = mean([float(d["uncertain"]) for d in spe])
        m["signscan.scan.calls"] = calls["signscan.scan"]
        m["signscan.scan.self_s"] = self_s["signscan.scan"]
        scans = [d for d in info["signscan.scan"] if "calls" in d]
        m["signscan.samples"] = sum(d["points"] for d in scans)
        m["signscan.rounds_mean"] = mean([d["calls"] - 1 for d in scans])
        m["signscan.indeterminate"] = sum(
            1 for d in info["signscan.scan"] if d.get("raised") == "IndeterminateFunction")
        for name in ("distributions.density", "distributions.tail"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.points"] = points[name]
            m[f"{name}.self_s"] = self_s[name]
        m["iteration.iterate.calls"] = calls["iteration.iterate"]
        m["iteration.iterate.misses"] = sum(1 for d in info["iteration.iterate"] if d.get("miss"))
        m["iteration.iterate.miss_s"] = miss_s
        name = "iteration.residual_partial_moment"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        name = "iteration.eval_tail"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.points"] = points[name]
        m[f"{name}.self_s"] = self_s[name]
        for name in ("ageing.classify_ifr", "ageing.classify_ifra"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        classified = info["ageing.classify_ifr"] + info["ageing.classify_ifra"]
        m["ageing.exact_frac"] = mean([float(d["exact"]) for d in classified if "exact" in d])
        m["ordering.newcrit.calls"] = calls["ordering.newcrit"]
        m["ordering.compare_ifra.self_s"] = self_s["ordering.compare_ifra"]
        m["ordering.criterion_h.self_s"] = self_s["ordering.criterion_h"]
        verdicts = [d for d in info["ordering.newcrit"] if "outcome" in d]
        m["ordering.cells_scanned"] = sum(d["cells"] for d in verdicts)
        ifra_cells = sum(d.get("cells", 0) for d in info["ordering.compare_ifra"])
        m["ordering.compare_ifra.evals_per_cell"] = ifra_evals / ifra_cells if ifra_cells else 0.0
        for outcome in ("supported", "refuted", "inconclusive"):
            m[f"ordering.outcome.{outcome}"] = sum(1 for d in verdicts
                                                   if d["outcome"] == outcome)
        return m
