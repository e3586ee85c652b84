"""Two-phase decision procedures (kernelize, then exact-solve the kernel)
and a best-effort exact value mode.

The decision routines answer Capa_q(G) >= k, Ind_q(G) <= n-k, and
minrank_GF(p)(G) <= n-k.  Value mode re-runs the reduction with the largest
parameter the crown threshold admits each round, stops as soon as a matching
(an inequality, useless for exact values) comes back, exact-solves the
residual graph, and lifts the results through the recorded equalities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .crown import CrownDecomposition, find_crown_or_matching
from .exact import (
    Caps,
    DEFAULT_CAPS,
    index_coding_length,
    is_prime,
    minrank,
    storage_capacity_alpha,
)
from .graph import Graph, all_vertices, isolated_vertices, mask_of
from .kernel import (
    CAPACITY,
    INDEX_CODING,
    IsolatedRemoval,
    MINRANK,
    ReductionStep,
    ReductionTrace,
    crown_step,
    kernelize,
    lift_value,
    live_subgraph,
)


@dataclass(frozen=True)
class DecisionReport:
    answer: bool
    trace: ReductionTrace
    kernel_n: int
    kernel_k: int
    confusion_size: int | None  # q**kernel_n when the solver built it
    timings: dict[str, float]


@dataclass(frozen=True)
class ValueReport:
    q: int
    p: int
    alpha: int  # alpha(Conf_q(G)), lifted; capacity is log_q of this
    index_coding_length: int
    minrank: int
    residual_n: int
    trace: ReductionTrace


def decide_storage_capacity(
    g: Graph, k: int, q: int = 2, caps: Caps = DEFAULT_CAPS
) -> DecisionReport:
    """Decide Capa_q(G) >= k via the kernel and alpha(Conf_q(kernel)) >= q**k'."""
    if q < 2:
        raise ValueError("alphabet size q must be >= 2")
    t0 = time.perf_counter()
    kernel, kk, trace = kernelize(g, k, q=q)
    t1 = time.perf_counter()
    if trace.short_circuit:
        answer, conf_size = True, None
    else:
        alpha = storage_capacity_alpha(kernel, q, caps)
        answer = alpha >= q**kk
        conf_size = q**kernel.n
    t2 = time.perf_counter()
    return DecisionReport(
        answer=answer,
        trace=trace,
        kernel_n=kernel.n,
        kernel_k=kk,
        confusion_size=conf_size,
        timings={"kernelize_s": t1 - t0, "solve_s": t2 - t1},
    )


def decide_dual_index_coding(
    g: Graph, k: int, q: int = 2, caps: Caps = DEFAULT_CAPS
) -> DecisionReport:
    """Decide Ind_q(G) <= n-k via the kernel and Ind_q(kernel) <= n'-k'."""
    if q < 2:
        raise ValueError("alphabet size q must be >= 2")
    t0 = time.perf_counter()
    kernel, kk, trace = kernelize(g, k, q=q)
    t1 = time.perf_counter()
    if trace.short_circuit:
        answer, conf_size = True, None
    else:
        answer = index_coding_length(kernel, q, caps) <= kernel.n - kk
        conf_size = q**kernel.n
    t2 = time.perf_counter()
    return DecisionReport(
        answer=answer,
        trace=trace,
        kernel_n=kernel.n,
        kernel_k=kk,
        confusion_size=conf_size,
        timings={"kernelize_s": t1 - t0, "solve_s": t2 - t1},
    )


def decide_dual_minrank(
    g: Graph, k: int, p: int = 2, caps: Caps = DEFAULT_CAPS
) -> DecisionReport:
    """Decide minrank_GF(p)(G) <= n-k via the kernel."""
    if not is_prime(p):
        raise ValueError(f"field modulus {p} is not prime")
    t0 = time.perf_counter()
    kernel, kk, trace = kernelize(g, k, q=p)
    t1 = time.perf_counter()
    if trace.short_circuit:
        answer = True
    else:
        answer = minrank(kernel, p, caps) <= kernel.n - kk
    t2 = time.perf_counter()
    return DecisionReport(
        answer=answer,
        trace=trace,
        kernel_n=kernel.n,
        kernel_k=kk,
        confusion_size=None,
        timings={"kernelize_s": t1 - t0, "solve_s": t2 - t1},
    )


def _value_mode_reduce(g: Graph, q: int) -> tuple[Graph, ReductionTrace]:
    """Reduction loop for value mode: isolated removals always; crown attempts
    with the largest k satisfying n >= 3k-2; stops when a matching comes back
    (only the equality rules may feed the value ledger).  Like ``kernelize``
    it runs on a mask of the live vertices of ``g`` and builds only the
    residual graph."""
    steps: list[ReductionStep] = []
    capacity_offset = 0
    dual_offset = 0
    live = all_vertices(g)
    while True:
        removed = isolated_vertices(g, live)
        if removed:
            steps.append(IsolatedRemoval(tuple(sorted(removed))))
            dual_offset += len(removed)
            live &= ~mask_of(removed)
        if not live:
            break
        result = find_crown_or_matching(g, (live.bit_count() + 2) // 3, live)
        if not isinstance(result, CrownDecomposition):
            break
        steps.append(crown_step(result))
        capacity_offset += len(result.head)
        dual_offset += len(result.crown)
        live = mask_of(result.body)
    residual = live_subgraph(g, live)
    trace = ReductionTrace(
        input_n=g.n,
        input_m=g.m,
        input_k=0,
        q=q,
        steps=tuple(steps),
        short_circuit=False,
        kernel_n=residual.n,
        kernel_k=0,
        capacity_offset=capacity_offset,
        dual_offset=dual_offset,
    )
    return residual, trace


def compute_values(g: Graph, q: int = 2, p: int = 2, caps: Caps = DEFAULT_CAPS) -> ValueReport:
    """Exact alpha(Conf_q), Ind_q, and minrank over GF(p) for the input graph,
    computed on the value-mode residual and lifted through the trace."""
    if q < 2:
        raise ValueError("alphabet size q must be >= 2")
    if not is_prime(p):
        raise ValueError(f"field modulus {p} is not prime")
    residual, trace = _value_mode_reduce(g, q)
    alpha = storage_capacity_alpha(residual, q, caps)
    ind = index_coding_length(residual, q, caps)
    mr = minrank(residual, p, caps)
    return ValueReport(
        q=q,
        p=p,
        alpha=lift_value(trace, alpha, CAPACITY),
        index_coding_length=lift_value(trace, ind, INDEX_CODING),
        minrank=lift_value(trace, mr, MINRANK),
        residual_n=residual.n,
        trace=trace,
    )
