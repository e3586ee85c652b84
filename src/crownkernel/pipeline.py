"""Two-phase decision procedures (kernelize, then exact-solve the kernel)
and a best-effort exact value mode.

``decide`` answers Capa_q(G) >= k, Ind_q(G) <= n-k, and
minrank_GF(p)(G) <= n-k.  Value mode runs the reduction with the largest
parameter the crown threshold admits each round (``kernelize(g, None, q)``),
exact-solves the residual graph, and lifts the results through the recorded
equalities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .exact import (
    CapExceeded,
    Caps,
    DEFAULT_CAPS,
    index_coding_length,
    is_prime,
    minrank,
    storage_capacity_alpha,
)
from .graph import Graph
from .kernel import (
    CAPACITY,
    INDEX_CODING,
    MINRANK,
    Problem,
    ReductionTrace,
    kernelize,
    lift_value,
)


@dataclass(frozen=True)
class DecisionReport:
    answer: bool
    trace: ReductionTrace
    kernel_n: int
    kernel_k: int
    confusion_size: int | None  # q**kernel_n once SC / DIC reach the solver, built or not
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


def decide(
    problem: Problem, g: Graph, k: int, q: int = 2, caps: Caps = DEFAULT_CAPS
) -> DecisionReport:
    """Decide ``problem`` on (G, k) via the kernel (G', k').

    CAPACITY: Capa_q(G) >= k iff alpha(Conf_q(G')) >= q**k'.
    INDEX_CODING: Ind_q(G) <= n-k iff Ind_q(G') <= n'-k'.
    MINRANK: minrank_GF(q)(G) <= n-k iff minrank_GF(q)(G') <= n'-k'; here q is
    the prime field modulus.  A cap error names the kernel it was hit on.
    """
    if problem not in (CAPACITY, INDEX_CODING, MINRANK):
        raise ValueError(f"unknown problem {problem!r}")
    if problem == MINRANK and not is_prime(q):
        raise ValueError(f"field modulus {q} is not prime")
    if problem != MINRANK and q < 2:
        raise ValueError("alphabet size q must be >= 2")
    t0 = time.perf_counter()
    kernel, kk, trace = kernelize(g, k, q=q)
    t1 = time.perf_counter()
    conf_size = None
    if trace.short_circuit:
        answer = True
    else:
        try:
            if problem == CAPACITY:
                answer = storage_capacity_alpha(kernel, q, caps) >= q**kk
            elif problem == INDEX_CODING:
                answer = index_coding_length(kernel, q, caps) <= kernel.n - kk
            else:
                answer = minrank(kernel, q, caps) <= kernel.n - kk
        except CapExceeded as exc:
            raise CapExceeded(
                f"{exc.what} (kernel has {kernel.n} vertices, k'={kk})", exc.needed, exc.cap
            ) from exc
        if problem != MINRANK:
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


def decide_storage_capacity(
    g: Graph, k: int, q: int = 2, caps: Caps = DEFAULT_CAPS
) -> DecisionReport:
    """Decide Capa_q(G) >= k."""
    return decide(CAPACITY, g, k, q, caps)


def decide_dual_index_coding(
    g: Graph, k: int, q: int = 2, caps: Caps = DEFAULT_CAPS
) -> DecisionReport:
    """Decide Ind_q(G) <= n-k."""
    return decide(INDEX_CODING, g, k, q, caps)


def decide_dual_minrank(
    g: Graph, k: int, p: int = 2, caps: Caps = DEFAULT_CAPS
) -> DecisionReport:
    """Decide minrank_GF(p)(G) <= n-k."""
    return decide(MINRANK, g, k, p, caps)


def compute_values(g: Graph, q: int = 2, p: int = 2, caps: Caps = DEFAULT_CAPS) -> ValueReport:
    """Exact alpha(Conf_q), Ind_q, and minrank over GF(p) for the input graph,
    computed on the value-mode residual and lifted through the trace."""
    if q < 2:
        raise ValueError("alphabet size q must be >= 2")
    if not is_prime(p):
        raise ValueError(f"field modulus {p} is not prime")
    residual, _, trace = kernelize(g, None, q)
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
