"""The benchmark's workloads: instance generation, ops, and reference answers.

Each workload builds its graphs through ``crownkernel.generators`` and hands
the program DIMACS text, as ``crownkernel gen`` would write it.  Instance
parameters are fixed by size and density; the one exception, the number of
8-vertex graphs in ``solve-values``, is explained where it is set.

Every workload runs a fixed catalogue of graphs; the run seed draws the op
order and, on ``decide-kernels``, the parameter k.  A seeded draw of graphs
moves the metrics between seeds by more than any useful bound: relabelling
the vertices of one 7-vertex graph moves the alpha solver from 5 ms to past
a one-second deadline, and on the hub graphs the kernel sizes, which sum to
a few hundred vertices per pass, follow the random body.

Reference answers come from a different route than the op under test:
planted hubs use the crown-rule equalities on their planted decomposition
(alpha = q^|H| * alpha(G[R]), Ind = |C| + Ind(G[R]), minrank = |C| +
minrank(G[R])) with exact values of the small body G[R]; the random
graphs are solved directly, with no parse, kernel, thresholds or trace.
Both drop isolated vertices by their rule first.  Counting bounds
cross-check the exact values: alpha * q^Ind >= q^n and Ind <= minrank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from crownkernel import crown, exact, formats, generators, graph

DECIDE = {
    "sc": "decide_storage_capacity",
    "dic": "decide_dual_index_coding",
    "dmr": "decide_dual_minrank",
}


@dataclass(frozen=True)
class Instance:
    """One generated graph with what its reference needs."""

    gid: int
    graph: graph.Graph
    text: str
    q: int
    params: dict
    planted: crown.CrownDecomposition | None = None  # for hub graphs


@dataclass(frozen=True)
class Op:
    gid: int
    kind: str  # "sc", "dic", "dmr" (decide ops) or "values" (solve op)
    k: int | None
    q: int  # alphabet size, or the field size p for "dmr"


@dataclass(frozen=True)
class Workload:
    instances: list[Instance]
    ops: list[Op]


class ReferenceMismatch(AssertionError):
    """Exact values that contradict a counting bound or each other."""


def kmin_without_crown(n: int) -> int:
    """Smallest k with n < 3k - 2, so kernelize never calls the crown routine."""
    return (n + 5) // 3


def _gnm(n: int, m: int, seed: int) -> graph.Graph:
    """Uniform graph with exactly m edges; the generators have no G(n, m)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return graph.Graph.from_edges(n, random.Random(seed).sample(pairs, m))


def _instance(gid: int, q: int, family: str, **params) -> Instance:
    if family == "gnm":
        g, planted = _gnm(**params), None
    else:
        g, planted = generators.generate(family, **params)
    return Instance(
        gid=gid,
        graph=g,
        text=formats.write_dimacs(g),
        q=q,
        params={"family": family, **params},
        planted=planted,
    )


# ---------------------------------------------------------------------------
# decide-large: planted-crown hubs, n = 2000..8000


# Head sizes keep h * c at 6 000-9 000, so every hub has about the same
# number of head-crown edges; the generator's cost grows with its square.
LARGE_HUBS = ((2000, 4), (3000, 3), (4000, 2), (6000, 1), (8000, 1))
# A 5-vertex body keeps every kernel inside the 5-vertex graphs that the test
# suite's catalogue solves exhaustively, so the exact layer stays a small
# share of the op, as this workload intends.
LARGE_BODY = 5
LARGE_K_OFFSETS = (-3, -2, -1, 0, 1, 2, 3)  # around the matching number
TINY_HUBS = ((60, 3), (90, 2))
TINY_BODY = 4


def setup_decide_large(seed: int, tiny: bool = False) -> Workload:
    del seed  # the catalogue is fixed; the run seed only orders the ops
    hubs, body = (TINY_HUBS, TINY_BODY) if tiny else (LARGE_HUBS, LARGE_BODY)
    instances = [
        _instance(gid, 2, "crown-planted", c=c, h=h, r=body, seed=c)
        for gid, (c, h) in enumerate(hubs)
    ]
    ops = []
    for inst in instances:
        nu = matching_number(inst)
        for offset in LARGE_K_OFFSETS:
            for kind in DECIDE:
                ops.append(Op(inst.gid, kind, max(1, nu + offset), 2))
    return Workload(instances, ops)


# ---------------------------------------------------------------------------
# decide-kernels: graphs that already are kernels, solved exactly


KERNEL_DENSITIES = tuple(round(0.2 + 0.025 * i, 3) for i in range(21))  # 0.200 .. 0.700
KERNEL_SIZES_Q2 = (6, 7)  # SC and DIC, q = 2, on the same graphs
KERNEL_GRAPHS_Q2 = 2  # per size and density
KERNEL_SIZES_Q3 = (5, 6)  # SC, q = 3
KERNEL_DENSITIES_Q3 = (0.2, 0.45, 0.7)
KERNEL_SIZES_DMR = (9, 10)  # DMR, p = 2, m = round(1.6 n')
KERNEL_GRAPHS_DMR = 4


def setup_decide_kernels(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    # (kinds, q, generator parameters); generator seeds follow from the parameters
    if tiny:
        cells = [(("sc", "dic"), 2, gnp_params(4, 0.5, 2, 0)), (("sc",), 3, gnp_params(3, 0.5, 3, 0)),
                 (("dmr",), 2, {"family": "gnm", "n": 5, "m": 8, "seed": 5000})]
    else:
        cells = [(("sc", "dic"), 2, gnp_params(n, prob, 2, j)) for n in KERNEL_SIZES_Q2
                 for prob in KERNEL_DENSITIES for j in range(KERNEL_GRAPHS_Q2)]
        cells += [(("sc",), 3, gnp_params(n, prob, 3, 0)) for n in KERNEL_SIZES_Q3
                  for prob in KERNEL_DENSITIES_Q3]
        cells += [(("dmr",), 2, {"family": "gnm", "n": n, "m": round(1.6 * n), "seed": 1000 * n + j})
                  for n in KERNEL_SIZES_DMR for j in range(KERNEL_GRAPHS_DMR)]
    instances, ops = [], []
    for gid, (kinds, q, params) in enumerate(cells):
        inst = _instance(gid, q, **params)
        instances.append(inst)
        kmin = kmin_without_crown(inst.graph.n)
        for kind in kinds:
            ops.append(Op(gid, kind, rng.randint(kmin, min(inst.graph.n, kmin + 2)), q))
    return Workload(instances, ops)


def gnp_params(n: int, prob: float, q: int, j: int) -> dict:
    return {"family": "gnp", "n": n, "prob": prob,
            "seed": 100_000 * (q - 2) + 10_000 * j + 1000 * n + round(1000 * prob)}


# ---------------------------------------------------------------------------
# solve-values: exact values through the value-mode reduction


# Hubs: c = 300, 400, .., 1500 crown vertices, head 3..7, body 5..7.
SOLVE_HUBS = tuple((300 + 100 * i, 3 + i % 5, 5 + i % 3) for i in range(13))
# Sparse G(n, 2/n), generator seed 1000 n + j.  n = 8 gets 3 graphs, not 20:
# there the exact solvers run past the deadline on about half the graphs,
# each miss costs the whole deadline in every pass, and more of them would
# push the failed share towards a tenth, where p90 becomes +inf.  Its
# j = 0 graph is the sparse residual on which index_coding_length runs for
# over nine minutes.  n = 4 and 5 get 24 graphs, so a pass has 104 ops and
# ten of them lie beyond p90.
SPARSE_PER_SIZE = {4: 24, 5: 24, 6: 20, 7: 20, 8: 3}


def setup_solve_values(seed: int, tiny: bool = False) -> Workload:
    del seed  # the catalogue is fixed; the run seed only orders the ops
    hubs = ((30, 2, 3),) if tiny else SOLVE_HUBS
    params = [{"family": "crown-planted", "c": c, "h": h, "r": r, "seed": c} for c, h, r in hubs]
    for n, count in ({5: 1} if tiny else SPARSE_PER_SIZE).items():
        for j in range(count):
            params.append({"family": "gnp", "n": n, "prob": 2 / n, "seed": 1000 * n + j})
    instances = [_instance(gid, 2, **p) for gid, p in enumerate(params)]
    ops = [Op(inst.gid, "values", None, 2) for inst in instances]
    return Workload(instances, ops)


SETUPS: dict[str, Callable[..., Workload]] = {
    "decide-large": setup_decide_large,
    "decide-kernels": setup_decide_kernels,
    "solve-values": setup_solve_values,
}


# ---------------------------------------------------------------------------
# Reference answers


def _body(inst: Instance) -> graph.Graph:
    return graph.induced_subgraph(inst.graph, inst.planted.body)[0]


def matching_number(inst: Instance) -> int:
    """nu(G) of a planted hub: C touches only H and H is matched into C, so
    nu(G) = |H| + nu(G[R]), with nu(G[R]) found by exhaustive search."""
    g = _body(inst)

    def best(free: int) -> int:
        if not free:
            return 0
        v = (free & -free).bit_length() - 1
        rest = free & ~(1 << v)
        out = best(rest)
        nbrs = g.adj[v] & rest
        while nbrs:
            u = nbrs & -nbrs
            out = max(out, 1 + best(rest & ~u))
            nbrs &= nbrs - 1
        return out

    return len(inst.planted.head) + best((1 << g.n) - 1)


# The exact values each kind of op is checked against.
NEEDS = {"sc": {"alpha"}, "dic": {"ind"}, "dmr": {"minrank"}, "values": {"alpha", "ind", "minrank"}}


def reference_values(
    inst: Instance, kinds: set[str], guard: Callable[[str, Callable[[], int]], int | None]
) -> dict[str, int]:
    """Exact alpha / Ind / minrank of the instance, as far as ``kinds`` need.

    ``guard(name, fn)`` runs one solver call under a deadline and returns
    None when it misses; that value is then absent from the result.  Raises
    ReferenceMismatch when the values break a counting bound.
    """
    q = inst.q
    if inst.planted is not None:
        base = _body(inst)
        head, crown_size = len(inst.planted.head), len(inst.planted.crown)
    else:
        base, head, crown_size = inst.graph, 0, 0
    # Isolated-vertex rule: an isolated vertex leaves alpha alone and adds 1
    # to Ind and minrank.  Without it, Ind of a 7-vertex graph with isolated
    # vertices can take minutes where its 5-vertex core takes milliseconds.
    isolated = sum(1 for mask in base.adj if not mask)
    base = graph.induced_subgraph(base, [v for v in range(base.n) if base.adj[v]])[0]
    solvers = {
        "alpha": exact.storage_capacity_alpha,
        "ind": exact.index_coding_length,
        "minrank": exact.minrank,
    }
    needed = set().union(*(NEEDS[kind] for kind in kinds))
    values = {}
    for name, solver in solvers.items():
        if name in needed:
            value = guard(name, lambda: solver(base, q))
            if value is not None:
                values[name] = value
    n = base.n
    if "alpha" in values and not 1 <= values["alpha"] <= q**n:
        raise ReferenceMismatch(f"alpha {values['alpha']} outside [1, q^n]")
    if "alpha" in values and "ind" in values and values["alpha"] * q ** values["ind"] < q**n:
        raise ReferenceMismatch("alpha * q^Ind < q^n")
    if "ind" in values and "minrank" in values and values["ind"] > values["minrank"]:
        raise ReferenceMismatch("Ind > minrank")
    if "minrank" in values and values["minrank"] < exact.independence_number(base):
        raise ReferenceMismatch("minrank < alpha(G)")
    offsets = {"alpha": lambda v: v * q**head, "ind": lambda v: v + crown_size + isolated,
               "minrank": lambda v: v + crown_size + isolated}
    lifted = {name: offsets[name](value) for name, value in values.items()}
    if inst.planted is not None:
        lifted["nu"] = matching_number(inst)
    return lifted


def expected(op: Op, n: int, values: dict[str, int]):
    """The answer an op must return, from the reference values of its graph;
    None when a value it needs has no reference.

    A matching of size k makes every decision YES: Capa_q >= nu, and Ind_q
    and minrank are at most n - nu.
    """
    if op.kind in DECIDE and op.k <= values.get("nu", 0):
        return True
    if not NEEDS[op.kind] <= values.keys():
        return None
    if op.kind == "sc":
        return values["alpha"] >= op.q**op.k
    if op.kind == "dic":
        return values["ind"] <= n - op.k
    if op.kind == "dmr":
        return values["minrank"] <= n - op.k
    return (values["alpha"], values["ind"], values["minrank"])
