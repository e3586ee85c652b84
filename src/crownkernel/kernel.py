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

from .crown import _crown_or_matching
from .exact import _check_alphabet
from .graph import (
    Graph,
    K0,
    all_vertices,
    induced_subgraph,
    isolated_vertices,
    mask_of,
    max_bipartite_matching,
    members,
    neighborhood,
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

    @property
    def removed(self) -> tuple[int, ...]:
        return self.vertices


@dataclass(frozen=True)
class CrownReduction:
    """A crown step; all three sets are in input-graph coordinates."""

    crown: tuple[int, ...]
    head: tuple[int, ...]
    body: tuple[int, ...]

    kind = "crown"

    @property
    def removed(self) -> tuple[int, ...]:
        """C and H; the body R stays."""
        return self.crown + self.head


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


def live_subgraph(g: Graph, live: int) -> Graph:
    """``g`` restricted to the vertex mask ``live``; ``g`` itself if all live."""
    if live == all_vertices(g):
        return g
    return induced_subgraph(g, members(live))[0]


def kernelize(g: Graph, k: int | None, q: int | None = None) -> tuple[Graph, int, ReductionTrace]:
    """Reduce (G, k) to an equivalent instance with at most max(3k'-3, 0) vertices.

    The loop follows the fixed step order: k-test, isolated removal, crown
    call, repeat.  It runs on a mask of the vertices still live in ``g``, so
    every step is recorded in input coordinates and only the kernel graph is
    built.  A matching of size k short-circuits to the fixed YES instance
    (K0, 0), flagged on the trace so value lifting can refuse it.

    ``k=None`` is value mode: each round asks for the largest k' with
    n >= 3k'-2, and a matching ends the loop without a YES (only the
    equality rules may feed the value ledger).  The residual graph is
    returned with k' = 0 and recorded with input k = 0; q < 2 is refused.
    """
    if q is not None:
        _check_alphabet(q)
    value_mode = k is None
    steps: list[ReductionStep] = []
    capacity_offset = 0
    dual_offset = 0
    short_circuit = False
    live = all_vertices(g)
    input_k = kk = 0 if value_mode else k

    while value_mode or kk > 0:
        removed = isolated_vertices(g, live)
        if removed:
            step = IsolatedRemoval(tuple(sorted(removed)))
            steps.append(step)
            dual_offset += len(removed)
            live &= ~mask_of(step.vertices)
        n = live.bit_count()
        target = (n + 2) // 3 if value_mode else kk
        if target < 1 or n < 3 * target - 2:
            break
        result = _crown_or_matching(g, target, live)
        if isinstance(result, list):  # a matching of size target
            short_circuit = not value_mode
            break
        step = CrownReduction(
            crown=tuple(members(result.crown)),
            head=tuple(members(result.head)),
            body=tuple(members(result.body)),
        )
        steps.append(step)
        capacity_offset += len(step.head)
        dual_offset += len(step.crown)
        live = result.body
        if not value_mode:
            kk -= len(step.head)

    if short_circuit or (not value_mode and kk <= 0):
        kernel, kk = K0, 0
    else:
        kernel = live_subgraph(g, live)
    trace = ReductionTrace(
        input_n=g.n,
        input_m=g.m,
        input_k=input_k,
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
    equality, and are refused, as are traces with q < 2 and traces whose
    kernel is the sentinel K0 rather than the graph the steps leave (k used
    up by the steps, or k <= 0).
    """
    if trace.q is not None:
        _check_alphabet(trace.q)
    if trace.short_circuit:
        raise ValueError("cannot lift values through a short-circuited trace")
    if trace.kernel_n != trace.input_n - sum(len(step.removed) for step in trace.steps):
        raise ValueError("cannot lift values through a trace whose kernel is the sentinel K0")
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
    """The graph left after the recorded steps remove their vertices from ``g``.

    The trace is verified first; a ValueError names the ``verify_trace``
    reason.  For non-short-circuit traces the result is the kernel graph.
    """
    reason = verify_trace(g, trace)
    if reason is not None:
        raise ValueError(f"trace fails verification: {reason}")
    removed = {v for step in trace.steps for v in step.removed}
    return live_subgraph(g, all_vertices(g) & ~mask_of(removed))


def verify_trace(g: Graph, trace: ReductionTrace) -> str | None:
    """Check a trace against its input graph; None if consistent, else a reason.

    Validates the input's n, m and q (q >= 2), step applicability (removed
    vertices isolated, crown clauses hold with a full H-into-C matching), the
    recorded offsets, and the kernel size/parameter bookkeeping: unless
    short-circuited, k' = max(k - |H| summed over crown steps, 0).  Steps are
    checked on a mask of the live vertices of ``g``; no intermediate graph is built.
    """
    if trace.input_n != g.n:
        return "input-n-mismatch"
    if trace.input_m != g.m:
        return "input-m-mismatch"
    if trace.q is not None and trace.q < 2:
        return "input-q-below-2"
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
            if neighborhood(g, step.vertices) & live:
                return "isolated-step-vertex-not-isolated"
            dual_offset += len(step.vertices)
        else:
            parts = (step.crown, step.head, step.body)
            masks = [_step_mask(g, part, live) for part in parts]
            if None in masks:
                return "crown-step-unknown-vertex"
            if any(mask.bit_count() != len(part) for mask, part in zip(masks, parts)):
                return "crown-step-duplicate-vertex"
            crown, head, body = masks
            if (
                not crown
                or not head
                or crown | head | body != live
                or crown.bit_count() + head.bit_count() + body.bit_count() != live.bit_count()
            ):
                return "crown-step-not-a-partition"
            if neighborhood(g, step.crown) & (crown | body):
                return "crown-step-separation-violated"
            matching = max_bipartite_matching(g, head, crown)
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
    if trace.kernel_k != max(trace.input_k - trace.capacity_offset, 0):
        return "kernel-k-mismatch"
    return None
