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
    _check_alphabet,
    _check_field,
    index_coding_length,
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
    confusion_size: int | None  # q**kernel_n once SC / DIC run a solver (built or not), else None
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


def _solve(problem: Problem, g: Graph, q: int, caps: Caps, where: str) -> int:
    """The exact value of ``problem`` on ``g``; a cap error also names ``where``."""
    # Built per call from the module's names, so a wrapper installed on one sees every call.
    solver = {
        CAPACITY: storage_capacity_alpha,
        INDEX_CODING: index_coding_length,
        MINRANK: minrank,
    }[problem]
    try:
        return solver(g, q, caps)
    except CapExceeded as exc:
        raise CapExceeded(f"{exc.what} ({where})", exc.needed, exc.cap) from exc


def decide(
    problem: Problem, g: Graph, k: int, q: int = 2, caps: Caps = DEFAULT_CAPS
) -> DecisionReport:
    """Decide ``problem`` on (G, k) via the kernel (G', k').

    CAPACITY: Capa_q(G) >= k iff alpha(Conf_q(G')) >= q**k'.
    INDEX_CODING: Ind_q(G) <= n-k iff Ind_q(G') <= n'-k'.
    MINRANK: minrank_GF(q)(G) <= n-k iff minrank_GF(q)(G') <= n'-k'; here q is
    the prime field modulus, not an alphabet size, so the trace records none.

    Since Capa_q(G') <= n' and Ind_q, minrank >= 0, the answer is YES when
    k' = 0 (the kernel is then the sentinel K0) and NO when k' > n'; only
    0 < k' <= n' reaches a solver.  A cap error names the kernel it was hit
    on.
    """
    if problem not in (CAPACITY, INDEX_CODING, MINRANK):
        raise ValueError(f"unknown problem {problem!r}")
    (_check_field if problem == MINRANK else _check_alphabet)(q)
    t0 = time.perf_counter()
    kernel, kk, trace = kernelize(g, k, q=None if problem == MINRANK else q)
    t1 = time.perf_counter()
    conf_size = None
    if kk == 0 or kk > kernel.n:  # YES or NO with no solver
        answer = kk == 0
    else:
        value = _solve(problem, kernel, q, caps, f"kernel has {kernel.n} vertices, k'={kk}")
        answer = value >= q**kk if problem == CAPACITY else value <= kernel.n - kk
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
    computed on the value-mode residual and lifted through the trace.  A cap
    error names the residual it was hit on."""
    _check_alphabet(q)
    _check_field(p)
    residual, _, trace = kernelize(g, None, q)
    where = f"residual has {residual.n} vertices"
    alpha, ind, mr = (
        lift_value(trace, _solve(problem, residual, size, caps, where), problem)
        for problem, size in ((CAPACITY, q), (INDEX_CODING, q), (MINRANK, p))
    )
    return ValueReport(
        q=q, p=p, alpha=alpha, index_coding_length=ind, minrank=mr,
        residual_n=residual.n, trace=trace,
    )
