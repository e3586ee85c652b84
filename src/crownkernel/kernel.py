"""The kernelization loop, its replayable reduction trace, and value lifting.

Two reduction rules shrink an instance (G, k):

* isolated-vertex removal, which keeps the capacity value and decrements the
  dual quantities (index coding length, minrank) by one per vertex, and
* the crown rule, which replaces G by G[R] for a crown decomposition
  (C, H, R), decrementing k by |H|; the capacity drops by exactly |H| and the
  dual quantities by exactly |C|.

Both rules are exact equalities, so a trace of the applied steps suffices to
lift values computed on the reduced graph back to the input graph.  A trace
stores the input, the steps and their evidence, and derives the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Union

from .crown import _crown_or_matching, _crown_reason
from .exact import _check_alphabet
from .graph import (
    Edge,
    Graph,
    K0,
    _isolated_ids,
    _mask_upto,
    all_vertices,
    induced_subgraph,
    mask_of,
    matching_is_valid,
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
    """A crown step in input-graph coordinates: the crown C, the head H and
    an H-into-C matching as (head, crown) pairs.  The body R is every vertex
    still live outside C and H."""

    crown: tuple[int, ...]
    head: tuple[int, ...]
    witness: tuple[Edge, ...]

    kind = "crown"

    @property
    def removed(self) -> tuple[int, ...]:
        return self.crown + self.head


ReductionStep = Union[IsolatedRemoval, CrownReduction]


@dataclass(frozen=True)
class ReductionTrace:
    """The input (k is None in value mode), the steps with each crown's
    H-into-C matching, and the k'-matching that ended a decision, if one
    did; the kernel size, k' and the offsets are derived from them."""

    input_n: int
    input_m: int
    input_k: int | None
    q: int | None
    steps: tuple[ReductionStep, ...]
    matching: tuple[Edge, ...] | None = None

    @property
    def capacity_offset(self) -> int:
        """Sum of |H| over the crown steps."""
        return sum(len(step.head) for step in self.steps if step.kind == "crown")

    @property
    def dual_offset(self) -> int:
        """Sum of |C| over the crown steps plus the isolated vertices removed."""
        return sum(len(step.removed) for step in self.steps) - self.capacity_offset

    @property
    def short_circuit(self) -> bool:
        """The decision ended on a k'-matching."""
        return self.matching is not None

    @property
    def decides_yes(self) -> bool:
        """A k'-matching or a decision k' <= 0; the kernel is then the sentinel K0."""
        k = self.input_k
        return self.short_circuit or (k is not None and k <= self.capacity_offset)

    @property
    def kernel_k(self) -> int:
        k = self.input_k
        return 0 if k is None or self.decides_yes else k - self.capacity_offset

    @property
    def kernel_n(self) -> int:
        return 0 if self.decides_yes else self.input_n - sum(len(s.removed) for s in self.steps)


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
    built.  A matching of size k' ends the loop with a YES: the trace records
    it, and the kernel is the fixed YES instance (K0, 0), as it is when k'
    reaches 0.

    ``k=None`` is value mode: each round asks for the largest k' with
    n >= 3k'-2, and a matching ends the loop without a YES (only the
    equality rules may feed the value ledger).  The residual graph is
    returned with k' = 0; q < 2 is refused.
    """
    if q is not None:
        _check_alphabet(q)
    value_mode = k is None
    steps: list[ReductionStep] = []
    matching = None
    live = all_vertices(g)
    kk = k

    while value_mode or kk > 0:
        removed = _isolated_ids(g, live)
        if removed:
            steps.append(IsolatedRemoval(tuple(removed)))
            live &= ~_mask_upto(removed, removed[-1])
        n = live.bit_count()
        target = (n + 2) // 3 if value_mode else kk
        if target < 1 or n < 3 * target - 2:
            break
        result = _crown_or_matching(g, target, live)
        if isinstance(result, list):  # a matching of size target
            if not value_mode:
                matching = tuple(result)
            break
        head = members(result.head)
        steps.append(CrownReduction(result.crown_ids, tuple(head), result.witness))
        live = result.body
        if not value_mode:
            kk -= len(head)

    trace = ReductionTrace(g.n, g.m, k, q, tuple(steps), matching)
    kernel = K0 if trace.decides_yes else live_subgraph(g, live)
    return kernel, trace.kernel_k, trace


def lift_value(trace: ReductionTrace, kernel_value: int, problem: Problem) -> int:
    """Lift an exact value computed on the trace's kernel graph to the input.

    For capacity the lifted quantity is the independence number of the
    confusion graph: alpha_input = alpha_kernel * q ** capacity_offset (the
    trace must carry q).  For index coding length and minrank the lift adds
    the dual offset.  A trace that decides YES by itself has the sentinel K0
    as its kernel, which carries an inequality, not an equality, and is
    refused, as are traces with q < 2.
    """
    if trace.q is not None:
        _check_alphabet(trace.q)
    if trace.decides_yes:
        raise ValueError("cannot lift values through a YES trace: its kernel is the sentinel K0")
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
    reason.  Unless the trace decides YES, the result is the kernel graph.
    """
    reason = verify_trace(g, trace)
    if reason is not None:
        raise ValueError(f"trace fails verification: {reason}")
    removed = {v for step in trace.steps for v in step.removed}
    return live_subgraph(g, all_vertices(g) & ~mask_of(removed))


def verify_trace(g: Graph, trace: ReductionTrace) -> str | None:
    """Check a trace against its input graph; None if consistent, else a reason.

    Validates the input's n, m and q (q >= 2), then each step on a mask of
    the live vertices of ``g``: removed vertices are isolated, and a crown
    step passes the crown check with its witness (its reason gets the
    prefix ``crown-step-``).  A recorded matching must come from a decision,
    have live ends, and be a matching of exactly k' edges.  No intermediate
    graph is built.
    """
    if trace.input_n != g.n:
        return "input-n-mismatch"
    if trace.input_m != g.m:
        return "input-m-mismatch"
    if trace.q is not None and trace.q < 2:
        return "input-q-below-2"
    live = all_vertices(g)
    for step in trace.steps:
        if isinstance(step, IsolatedRemoval):
            removed = _step_mask(g, step.vertices, live)
            if removed is None:
                return "isolated-step-unknown-vertex"
            if removed.bit_count() != len(step.vertices):
                return "isolated-step-duplicate-vertex"
            if neighborhood(g, step.vertices) & live:
                return "isolated-step-vertex-not-isolated"
        else:
            crown, head = _step_mask(g, step.crown, live), _step_mask(g, step.head, live)
            if crown is None or head is None:
                return "crown-step-unknown-vertex"
            if crown.bit_count() != len(step.crown) or head.bit_count() != len(step.head):
                return "crown-step-duplicate-vertex"
            body = live & ~crown & ~head
            reason = _crown_reason(g, step.crown, crown, head, body, live, step.witness)
            if reason is not None:
                return f"crown-step-{reason}"
            removed = crown | head
        live &= ~removed
    if trace.matching is not None:
        if trace.input_k is None:
            return "matching-in-value-mode"
        if _step_mask(g, [v for edge in trace.matching for v in edge], live) is None:
            return "matching-vertex-not-live"
        if not matching_is_valid(g, trace.matching):
            return "matching-invalid"
        if len(trace.matching) != trace.input_k - trace.capacity_offset:
            return "matching-size-not-k"
    return None
