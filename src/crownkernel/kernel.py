"""The kernelization loop, its replayable reduction trace, and value lifting.

Two reduction rules shrink an instance (G, k):

* isolated-vertex removal, which keeps the capacity value and decrements the
  dual quantities (index coding length, minrank) by one per vertex, and
* the crown rule, which replaces G by G[R] for a crown decomposition
  (C, H, R), decrementing k by |H|; the capacity drops by exactly |H| and the
  dual quantities by exactly |C|.

Both rules are exact equalities, so a trace of the applied steps suffices to
lift values computed on the reduced graph back to the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Union

from .crown import CrownDecomposition, find_crown_or_matching, verify_crown
from .graph import (
    Graph,
    K0,
    all_vertices,
    induced_subgraph,
    isolated_vertices,
    mask_of,
    max_bipartite_matching,
    members,
    vertex_mask,
)

Problem = Literal["capacity", "index_coding", "minrank"]

CAPACITY: Problem = "capacity"
INDEX_CODING: Problem = "index_coding"
MINRANK: Problem = "minrank"


@dataclass(frozen=True)
class IsolatedRemoval:
    """Removal of isolated vertices, recorded in input-graph coordinates."""

    vertices: tuple[int, ...]

    kind = "isolated"


@dataclass(frozen=True)
class CrownReduction:
    """A crown step; all three sets are in input-graph coordinates."""

    crown: tuple[int, ...]
    head: tuple[int, ...]
    body: tuple[int, ...]

    kind = "crown"


ReductionStep = Union[IsolatedRemoval, CrownReduction]


@dataclass(frozen=True)
class ReductionTrace:
    input_n: int
    input_m: int
    input_k: int
    q: int | None
    steps: tuple[ReductionStep, ...]
    short_circuit: bool
    kernel_n: int
    kernel_k: int
    capacity_offset: int  # sum of |H| over crown steps
    dual_offset: int  # sum of |C| over crown steps + number of removed isolated vertices


def apply_isolated_rule(g: Graph) -> tuple[Graph, set[int]]:
    """Remove all isolated vertices; returns the reduced graph and the set removed."""
    removed = isolated_vertices(g)
    if not removed:
        return g, removed
    reduced, _ = induced_subgraph(g, set(range(g.n)) - removed)
    return reduced, removed


def apply_crown_rule(g: Graph, dec: CrownDecomposition, k: int) -> tuple[Graph, int]:
    """Replace (G, k) by (G[R], k - |H|) for a verified crown decomposition."""
    if not verify_crown(g, dec):
        raise ValueError("invalid crown decomposition")
    reduced, _ = induced_subgraph(g, dec.body)
    return reduced, k - len(dec.head)


def crown_step(dec: CrownDecomposition) -> CrownReduction:
    """The trace step recording crown decomposition ``dec``."""
    return CrownReduction(
        crown=tuple(sorted(dec.crown)),
        head=tuple(sorted(dec.head)),
        body=tuple(sorted(dec.body)),
    )


def live_subgraph(g: Graph, live: int) -> Graph:
    """``g`` restricted to the vertex mask ``live``; ``g`` itself if all live."""
    if live == all_vertices(g):
        return g
    return induced_subgraph(g, members(live))[0]


def kernelize(g: Graph, k: int, q: int | None = None) -> tuple[Graph, int, ReductionTrace]:
    """Reduce (G, k) to an equivalent instance with at most max(3k'-3, 0) vertices.

    The loop follows the fixed step order: k-test, isolated removal, crown
    call, repeat.  It runs on a mask of the vertices still live in ``g``, so
    every step is recorded in input coordinates and only the kernel graph is
    built.  A matching of size k short-circuits to the fixed YES instance
    (K0, 0), flagged on the trace so value lifting can refuse it.
    """
    steps: list[ReductionStep] = []
    capacity_offset = 0
    dual_offset = 0
    short_circuit = False
    live = all_vertices(g)
    kk = k

    while kk > 0:
        removed = isolated_vertices(g, live)
        if removed:
            steps.append(IsolatedRemoval(tuple(sorted(removed))))
            dual_offset += len(removed)
            live &= ~mask_of(removed)
        if live.bit_count() < 3 * kk - 2:
            break
        result = find_crown_or_matching(g, kk, live)
        if not isinstance(result, CrownDecomposition):
            short_circuit = True
            break
        steps.append(crown_step(result))
        capacity_offset += len(result.head)
        dual_offset += len(result.crown)
        live = mask_of(result.body)
        kk -= len(result.head)

    if kk <= 0 or short_circuit:
        kernel, kk = K0, 0
    else:
        kernel = live_subgraph(g, live)
    trace = ReductionTrace(
        input_n=g.n,
        input_m=g.m,
        input_k=k,
        q=q,
        steps=tuple(steps),
        short_circuit=short_circuit,
        kernel_n=kernel.n,
        kernel_k=kk,
        capacity_offset=capacity_offset,
        dual_offset=dual_offset,
    )
    return kernel, kk, trace


def lift_value(trace: ReductionTrace, kernel_value: int, problem: Problem) -> int:
    """Lift an exact value computed on the trace's kernel graph to the input.

    For capacity the lifted quantity is the independence number of the
    confusion graph: alpha_input = alpha_kernel * q ** capacity_offset (the
    trace must carry q).  For index coding length and minrank the lift adds
    the dual offset.  Short-circuited traces carry an inequality, not an
    equality, and are refused.
    """
    if trace.short_circuit:
        raise ValueError("cannot lift values through a short-circuited trace")
    if problem == CAPACITY:
        if trace.q is None:
            raise ValueError("capacity lifting needs the alphabet size q on the trace")
        return kernel_value * trace.q ** trace.capacity_offset
    if problem in (INDEX_CODING, MINRANK):
        return kernel_value + trace.dual_offset
    raise ValueError(f"unknown problem {problem!r}")


def _step_mask(g: Graph, vertices: tuple[int, ...], live: int) -> int | None:
    """The mask of ``vertices`` if each is a live vertex of ``g``, else None."""
    mask = vertex_mask(g, vertices)
    return None if mask is None or mask & ~live else mask


def replay_trace(g: Graph, trace: ReductionTrace) -> Graph:
    """Re-apply the recorded steps to ``g`` and return the resulting graph.

    For non-short-circuit traces this reproduces the kernel graph exactly.
    """
    live = all_vertices(g)
    for step in trace.steps:
        if isinstance(step, IsolatedRemoval):
            removed = _step_mask(g, step.vertices, live)
        else:
            removed = _step_mask(g, step.crown + step.head, live)
        if removed is None:
            raise ValueError("trace step removes vertices not present in the graph")
        live &= ~removed
    return live_subgraph(g, live)


def verify_trace(g: Graph, trace: ReductionTrace) -> str | None:
    """Check a trace against its input graph; None if consistent, else a reason.

    Validates step applicability (removed vertices isolated, crown clauses
    hold with a full H-into-C matching), the recorded offsets, and the kernel
    size/parameter bookkeeping.  The steps are checked on a mask of the
    vertices still live in ``g``; no intermediate graph is built.
    """
    if trace.input_n != g.n:
        return "input-n-mismatch"
    if trace.input_m != g.m:
        return "input-m-mismatch"
    live = all_vertices(g)
    capacity_offset = 0
    dual_offset = 0
    for step in trace.steps:
        if isinstance(step, IsolatedRemoval):
            removed = _step_mask(g, step.vertices, live)
            if removed is None:
                return "isolated-step-unknown-vertex"
            if removed.bit_count() != len(step.vertices):
                return "isolated-step-duplicate-vertex"
            if any(g.adj[v] & live for v in step.vertices):
                return "isolated-step-vertex-not-isolated"
            dual_offset += len(step.vertices)
        else:
            masks = [_step_mask(g, part, live) for part in (step.crown, step.head, step.body)]
            if None in masks:
                return "crown-step-unknown-vertex"
            crown, head, body = masks
            if (
                not crown
                or not head
                or crown | head | body != live
                or crown.bit_count() + head.bit_count() + body.bit_count() != live.bit_count()
            ):
                return "crown-step-not-a-partition"
            outside_head = crown | body
            if any(g.adj[v] & outside_head for v in step.crown):
                return "crown-step-separation-violated"
            matching = max_bipartite_matching(g, step.head, step.crown)
            if len(matching) != head.bit_count():
                return "crown-step-no-head-matching"
            capacity_offset += head.bit_count()
            dual_offset += crown.bit_count()
            removed = crown | head
        live &= ~removed
    if capacity_offset != trace.capacity_offset:
        return "capacity-offset-mismatch"
    if dual_offset != trace.dual_offset:
        return "dual-offset-mismatch"
    if trace.short_circuit:
        if trace.kernel_n != 0 or trace.kernel_k != 0:
            return "short-circuit-kernel-not-sentinel"
        return None
    live_n = live.bit_count()
    if trace.kernel_n not in (live_n, 0):
        return "kernel-n-mismatch"
    if trace.kernel_n == 0 and live_n != 0 and trace.kernel_k != 0:
        return "kernel-n-mismatch"
    return None
