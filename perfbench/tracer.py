"""Span and counter recorder for the traced benchmark run.

The recorder wraps crownkernel's public functions from outside the package:
each target is replaced at every module binding that holds it, because the
modules import one another's names with ``from .x import``.  ``Graph`` is
traced through ``Graph.__post_init__``, which runs on every construction.
Per-element helpers such as ``graph.bits`` are left alone.

Spans are kept in memory as ``[name, start, end, parent]`` lists, in seconds
of thread CPU time, and written out when the run ends.  A span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator

from crownkernel import crown, exact, formats, generators, graph, kernel, pipeline

Counter = Callable[[dict, object, tuple], None]


def _count(key: str, value: Callable[[object, tuple], int]) -> Counter:
    def update(counters: dict, result: object, args: tuple) -> None:
        counters[key] += value(result, args)

    return update


# (owner, attribute, span name, counters updated from the call's result).
TARGETS: list[tuple[object, str, str, tuple[Counter, ...]]] = [
    (graph.Graph, "__post_init__", "graph.Graph", ()),
    (graph, "induced_subgraph", "graph.induced_subgraph", ()),
    (graph, "isolated_vertices", "graph.isolated_vertices", ()),
    (graph, "greedy_maximal_matching", "graph.greedy_maximal_matching", ()),
    (
        graph,
        "max_bipartite_matching",
        "graph.max_bipartite_matching",
        (_count("graph.max_bipartite_matching.matched", lambda r, a: len(r)),),
    ),
    (graph, "min_vertex_cover_bipartite", "graph.min_vertex_cover_bipartite", ()),
    (graph, "greedy_clique_cover", "graph.greedy_clique_cover", ()),
    (
        crown,
        "find_crown_or_matching",
        "crown.find_crown_or_matching",
        (
            _count(
                "crown.find_crown_or_matching.crowns",
                lambda r, a: isinstance(r, crown.CrownDecomposition),
            ),
        ),
    ),
    (crown, "check_crown", "crown.check_crown", ()),
    (
        kernel,
        "kernelize",
        "kernel.kernelize",
        (
            _count("kernel.kernelize.steps", lambda r, a: len(r[2].steps)),
            _count("kernel.kernelize.kernel_n", lambda r, a: r[0].n),
        ),
    ),
    (
        kernel,
        "verify_trace",
        "kernel.verify_trace",
        (_count("kernel.verify_trace.rejects", lambda r, a: r is not None),),
    ),
    (kernel, "lift_value", "kernel.lift_value", ()),
    (pipeline, "decide_storage_capacity", "pipeline.decide", ()),
    (pipeline, "decide_dual_index_coding", "pipeline.decide", ()),
    (pipeline, "decide_dual_minrank", "pipeline.decide", ()),
    (
        pipeline,
        "compute_values",
        "pipeline.compute_values",
        (_count("pipeline.compute_values.residual_n", lambda r, a: r.residual_n),),
    ),
    (
        exact,
        "build_confusion_graph",
        "exact.build_confusion_graph",
        (
            _count("exact.build_confusion_graph.vertices", lambda r, a: r.graph.n),
            _count("exact.build_confusion_graph.edges", lambda r, a: r.graph.m),
        ),
    ),
    (exact, "independence_number", "exact.independence_number", ()),
    (exact, "storage_capacity_alpha", "exact.storage_capacity_alpha", ()),
    (exact, "max_clique_set", "exact.max_clique_set", ()),
    (exact, "index_coding_length", "exact.index_coding_length", ()),
    (exact, "chromatic_number", "exact.chromatic_number", ()),
    (
        exact,
        "is_colorable",
        "exact.is_colorable",
        (_count("exact.is_colorable.yes", lambda r, a: bool(r)),),
    ),
    (exact, "dsatur_coloring", "exact.dsatur_coloring", ()),
    (exact, "minrank", "exact.minrank", ()),
    (
        formats,
        "parse_dimacs",
        "formats.parse_dimacs",
        (_count("formats.parse_dimacs.bytes", lambda r, a: len(a[0])),),
    ),
    (formats, "write_dimacs", "formats.write_dimacs", ()),
    (formats, "trace_to_dict", "formats.trace_to_dict", ()),
    (formats, "trace_from_dict", "formats.trace_from_dict", ()),
    (generators, "gen_gnp", "generators", ()),
    (generators, "gen_crown_planted", "generators", ()),
]


class Tracer:
    """Records spans and counters while installed; restores every binding
    it replaced on ``uninstall``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, counters: tuple[Counter, ...]) -> Callable:
        spans, stack, totals = self.spans, self._stack, self.counters
        clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            record = [name, start, start, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            for update in counters:
                update(totals, result, args)
            return result

        return traced

    def settle(self, depth: int) -> None:
        """Close the spans still open above ``depth``.

        A deadline alarm can land between a span's bookkeeping statements and
        leave it on the stack; the benchmark calls this after every op.
        """
        now = time.thread_time()
        for idx in self._stack[depth:]:
            self.spans[idx][2] = max(self.spans[idx][2], now)
        del self._stack[depth:]

    @property
    def depth(self) -> int:
        return len(self._stack)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[1] = time.thread_time()
        try:
            yield
        finally:
            record[2] = time.thread_time()
            self._stack.pop()

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "crownkernel"]
        for owner, attr, name, counters in TARGETS:
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, name, counters)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped)

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._replaced.clear()

    def self_times(self, root: str) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, over spans under roots named ``root``."""
        child_time = [0.0] * len(self.spans)
        under = [False] * len(self.spans)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                under[idx] = under[parent]
            else:
                under[idx] = name == root
        out: dict[str, tuple[int, float]] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            if under[idx]:
                calls, total = out.get(name, (0, 0.0))
                out[name] = (calls + 1, total + (end - start) - child_time[idx])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)

