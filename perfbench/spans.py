"""Spans at fitchmap's module boundaries, recorded from outside the library.

While a Tracer is active it replaces each name listed in BOUNDARIES with a
wrapper that records a span (name, parent span, start, end) and a few
counts, and it puts the original objects back when it exits.  Names are
replaced where the caller looks them up, e.g. ``fitchmap.generalized.
least_resolved_simple`` rather than the definition in ``simple_fitch``,
because that is the binding ``recognize`` calls through.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from collections import defaultdict

# (module, attribute, span name); one span name may cover several bindings
BOUNDARIES = (
    ("fitchmap.cli", "main", "cli.main"),
    ("fitchmap.cli", "recognize", "generalized.recognize"),
    ("fitchmap.cli", "evaluate", "evaluate.evaluate"),
    ("fitchmap.io", "read_map", "io.read_map"),
    ("fitchmap.io", "write_map", "io.write_map"),
    ("fitchmap.io", "read_tree", "io.read_tree"),
    ("fitchmap.io", "write_tree", "io.write_tree"),
    ("fitchmap.io", "make_fitch_map", "core.make_fitch_map"),
    ("fitchmap.generalized", "recognize", "generalized.recognize"),
    ("fitchmap.generalized", "compute_classes", "generalized.compute_classes"),
    ("fitchmap.generalized", "check_conditions", "generalized.check_conditions"),
    ("fitchmap.generalized", "assemble", "generalized.assemble"),
    ("fitchmap.generalized", "least_resolved_simple", "simple_fitch.least_resolved_simple"),
    ("fitchmap.generalized", "find_forbidden_triad", "simple_fitch.find_forbidden_triad"),
    ("fitchmap.simple_fitch", "evaluate", "evaluate.evaluate"),
    ("fitchmap.evaluate", "explains", "evaluate.explains"),
)
SPANS = tuple(dict.fromkeys(name for _, _, name in BOUNDARIES))

# spans whose allocation peak the tracemalloc pass reports
ALLOC_SPANS = ("io.read_map", "generalized.recognize", "evaluate.evaluate")

COUNTS = (
    "generalized.classes", "generalized.max_class_size", "tree.vertices",
    "verdict.tree_like", "verdict.T1", "verdict.T2", "verdict.T3",
)


def _count(counts, span: str, args, result) -> None:
    if span in ("io.read_map", "io.read_tree"):
        counts[f"{span}.bytes"] += len(args[0])
    if span in ("io.write_map", "io.write_tree"):
        counts[f"{span}.bytes"] += len(result)
    if span == "io.read_tree":
        counts["tree.vertices"] += result.n_vertices
    if span == "generalized.compute_classes" and not hasattr(result, "kind"):
        sizes = [len(m) for m in result.classes.values() if m]
        counts["generalized.classes"] += len(sizes)
        counts["generalized.max_class_size"] = max(counts["generalized.max_class_size"], *sizes)
    if span == "generalized.recognize":
        if result.tree_like:
            counts["verdict.tree_like"] += 1
            counts["tree.vertices"] += result.tree.n_vertices
        else:
            counts[f"verdict.{result.reason.kind}"] += 1


class Tracer:
    """Context manager that wraps BOUNDARIES; with ``alloc`` it also records
    the tracemalloc peak of ALLOC_SPANS.

    Only spans below a top-level ``top`` span (the benchmark's timed call)
    or ``evaluate.explains`` (its certificate) are reported, so the reads
    an output check makes do not count as the workload's I/O.
    """

    def __init__(self, top: str, alloc: bool = False):
        self.top = top
        self.alloc = alloc
        self.spans: list[list] = []  # [name, parent index or -1, root index, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self.alloc_peak: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._high: dict[int, int] = {}
        self._saved: list[tuple] = []

    def __enter__(self):
        for modname, attr, span in BOUNDARIES:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))
        if self.alloc:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.alloc:
            tracemalloc.stop()
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, span: str):
        alloc_span = self.alloc and span in ALLOC_SPANS

        def traced(*args, **kwargs):
            if self.alloc:
                self._note_peak()
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            record = [span, parent, self.spans[parent][2] if parent >= 0 else idx, 0.0, 0.0]
            self.spans.append(record)
            self._open.append(idx)
            if alloc_span:
                self._high[idx] = base = tracemalloc.get_traced_memory()[0]
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self._open.pop()
                if self.alloc:
                    self._note_peak()
                if alloc_span:
                    peak = self._high.pop(idx) - base
                    self.alloc_peak[span] = max(self.alloc_peak[span], peak)
            if self.spans[record[2]][0] == self.top:
                _count(self.counts, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _note_peak(self) -> None:
        # nested spans share tracemalloc's one peak register: fold it into
        # every open span's high-water mark, then restart it
        peak = tracemalloc.get_traced_memory()[1]
        for idx in self._high:
            self._high[idx] = max(self._high[idx], peak)
        tracemalloc.reset_peak()

    def summary(self) -> dict[str, float]:
        """Per-span calls, total and self seconds, and the share of the top
        spans' time that their child spans cover."""
        reported = (self.top, "evaluate.explains")
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        top_s = top_child = 0.0
        for i, (name, parent, root, start, end) in enumerate(self.spans):
            if self.spans[root][0] not in reported:
                continue
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
            if parent < 0 and name == self.top:
                top_s += end - start
                top_child += child[i]
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        bytes_ = self.counts
        out["io.bytes_in"] = bytes_["io.read_map.bytes"] + bytes_["io.read_tree.bytes"]
        out["io.bytes_out"] = bytes_["io.write_map.bytes"] + bytes_["io.write_tree.bytes"]
        for name in ("io.read_map", "io.write_map"):
            secs = total[name]
            out[f"{name}.mb_per_s"] = bytes_[f"{name}.bytes"] / 1e6 / secs if secs else 0.0
        for name in COUNTS:
            out[name] = self.counts[name]
        out["trace.child_coverage"] = top_child / top_s if top_s else 0.0
        return out
