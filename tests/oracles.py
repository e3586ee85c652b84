"""Definition-level brute-force oracles for the exact solvers.

Each oracle restates a raw definition by exhaustive enumeration, so it runs
only on a few vertices; the tests compare the solvers against them.  The
reference routines keep the plain form of a graph routine that was later
rewritten for speed, and the tests require equal output from the two.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from crownkernel.exact import (
    CapExceeded,
    GFMatrix,
    gf_rank,
    is_prime,
    matrix_represents,
)
from crownkernel.graph import Graph, Matching, all_vertices, bits, members
from crownkernel.kernel import IsolatedRemoval, ReductionTrace


def vector_of(index: int, n: int, q: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(index % q)
        index //= q
    return tuple(out)


def index_of(vector: Sequence[int], q: int) -> int:
    idx = 0
    for digit in reversed(vector):
        idx = idx * q + digit
    return idx


def build_confusion_graph_reference(g: Graph, q: int) -> Graph:
    """Conf_q(G) as first built: for each base vertex i, the q**n vectors
    bucketed by their digits on N(i), and every two vectors of one bucket
    that differ at i joined; same graph as ``exact.build_confusion_graph``."""
    n = g.n
    size = q**n
    digits = [vector_of(v, n, q) for v in range(size)]
    adj = [0] * size
    for i in range(n):
        nbrs = g.neighbors(i)
        buckets: dict[tuple[int, ...], list[int]] = {}
        for v in range(size):
            dv = digits[v]
            key = tuple(dv[j] for j in nbrs)
            bucket = buckets.get(key)
            if bucket is None:
                bucket = [0] * q
                buckets[key] = bucket
            bucket[dv[i]] |= 1 << v
        for bucket in buckets.values():
            total = 0
            for m in bucket:
                total |= m
            for m in bucket:
                if not m:
                    continue
                other = total & ~m
                if other:
                    for v in bits(m):
                        adj[v] |= other
    return Graph._trusted(size, tuple(adj))


def trace_to_dict_v1(trace: ReductionTrace) -> dict:
    """The version-1 trace document, rebuilt from a version-2 trace's
    properties: each crown step's body R recomputed in ascending order, a
    value-mode k written as 0, and the version-1 key order.  The golden
    digests of the version-1 bytes stay pinned through it."""
    live = set(range(trace.input_n))
    steps = []
    for step in trace.steps:
        live -= set(step.removed)
        if isinstance(step, IsolatedRemoval):
            steps.append({"kind": "isolated", "vertices": list(step.vertices)})
        else:
            steps.append(
                {"kind": "crown", "H": list(step.head), "C": list(step.crown), "R": sorted(live)}
            )
    return {
        "input": {
            "n": trace.input_n,
            "m": trace.input_m,
            "k": 0 if trace.input_k is None else trace.input_k,
            "q": trace.q,
        },
        "steps": steps,
        "short_circuit": trace.short_circuit,
        "kernel": {"n": trace.kernel_n, "k": trace.kernel_k},
        "offsets": {"capacity": trace.capacity_offset, "dual": trace.dual_offset},
    }


def greedy_maximal_matching_reference(g: Graph, live: int | None = None) -> Matching:
    """The greedy maximal matching as first written: one shift per scanned
    vertex to test whether it is matched, and one to drop the neighbors
    below it."""
    if live is None:
        live = all_vertices(g)
    unmatched = live
    out: Matching = []
    for u in members(live):
        if not (unmatched >> u) & 1:
            continue
        free = (g.adj[u] & unmatched) >> (u + 1)  # unmatched neighbors above u
        if free:
            v = u + (free & -free).bit_length()
            out.append((u, v))
            unmatched &= ~(1 << v)
    return out


def grow_clique_reference(
    adj: Sequence[int], clique: int, cand: int, best: int, stop: int
) -> tuple[int, int]:
    """The clique branch and bound as first written, recursing once per
    clique vertex; same arguments and result as ``exact._grow_clique``."""
    best_mask = 0

    def expand(clique: int, size: int, cand: int) -> None:
        nonlocal best, best_mask
        if cand == 0:
            if size > best:
                best = size
                best_mask = clique
            return
        order: list[int] = []
        bound: list[int] = []
        color = 0
        uncolored = cand
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~adj[v]
                avail &= ~(1 << v)
                uncolored &= ~(1 << v)
                order.append(v)
                bound.append(color)
        for i in range(len(order) - 1, -1, -1):
            if size + bound[i] <= best or best >= stop:
                return
            v = order[i]
            expand(clique | 1 << v, size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(clique, clique.bit_count(), cand)
    return best, best_mask


def dsatur_coloring_reference(g: Graph) -> list[int]:
    """The greedy DSATUR coloring as first written, a loop of its own apart
    from the colorability search."""
    n = g.n
    colors = [-1] * n
    neighbor_colors = [0] * n
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] == -1),
            key=lambda u: (neighbor_colors[u].bit_count(), g.degree(u), -u),
        )
        c = 0
        used = neighbor_colors[v]
        while (used >> c) & 1:
            c += 1
        colors[v] = c
        for u in bits(g.adj[v]):
            neighbor_colors[u] |= 1 << c
    return colors


def chromatic_number_by_subsets(g: Graph) -> int:
    """The fewest independent sets that cover the vertices, by a pass over all
    vertex subsets in which each subset's best cover takes out an independent
    set holding its lowest vertex; 3**n steps, so a dozen vertices at most."""
    n = g.n
    size = 1 << n
    independent = [True] * size
    for s in range(1, size):
        low = s & -s
        rest = s ^ low
        independent[s] = independent[rest] and not g.adj[low.bit_length() - 1] & rest
    best = [0] * size
    for s in range(1, size):
        low = s & -s
        rest = s ^ low
        sub = rest
        fewest = n
        while True:
            part = sub | low
            if independent[part]:
                fewest = min(fewest, best[s ^ part] + 1)
            if not sub:
                break
            sub = (sub - 1) & rest
        best[s] = fewest
    return best[size - 1]


def minrank_pattern_bruteforce(g: Graph, p: int) -> int:
    """Minrank by plain enumeration of all diagonal-one representing matrices."""
    if not is_prime(p):
        raise ValueError(f"field modulus {p} is not prime")
    n = g.n
    if n == 0:
        return 0
    positions = [(i, j) for i in range(n) for j in range(n) if i != j and g.has_edge(i, j)]
    best = n
    for values in itertools.product(range(p), repeat=len(positions)):
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            entries[i][i] = 1
        for (i, j), value in zip(positions, values):
            entries[i][j] = value
        rank = gf_rank(GFMatrix(p, tuple(tuple(r) for r in entries)))
        if rank < best:
            best = rank
    return best


def minrank_full_bruteforce(g: Graph, p: int) -> int:
    """Minrank by enumerating all p**(n*n) matrices; tiny n only."""
    if not is_prime(p):
        raise ValueError(f"field modulus {p} is not prime")
    n = g.n
    if n == 0:
        return 0
    best = n
    for values in itertools.product(range(p), repeat=n * n):
        entries = tuple(tuple(values[i * n : (i + 1) * n]) for i in range(n))
        mat = GFMatrix(p, entries)
        if matrix_represents(mat, g):
            rank = gf_rank(mat)
            if rank < best:
                best = rank
    return best


def oracle_storage_code(g: Graph, q: int) -> int:
    """Largest code over [q]**n where every coordinate of every codeword is a
    function of its neighborhood restriction; found by subset enumeration."""
    size = q**g.n
    if size > 8:
        raise CapExceeded("storage oracle vector count", size, 8)
    vectors = [vector_of(v, g.n, q) for v in range(size)]
    neighborhoods = [g.neighbors(i) for i in range(g.n)]

    def valid(members: list[int]) -> bool:
        for a in range(len(members)):
            x = vectors[members[a]]
            for b in range(a + 1, len(members)):
                y = vectors[members[b]]
                for i in range(g.n):
                    if x[i] != y[i] and all(x[j] == y[j] for j in neighborhoods[i]):
                        return False
        return True

    best = 0
    for subset in range(1 << size):
        count = subset.bit_count()
        if count > best and valid(list(bits(subset))):
            best = count
    return best


def oracle_index_code(g: Graph, q: int = 2) -> int:
    """Minimum index code length by exhausting encoders; n <= 3, q = 2 only.

    Length n is always feasible (send everything), so only lengths below n
    are searched.  Encoders are enumerated up to relabeling of the codeword
    space by fixing E(0...0) = 0.
    """
    if q != 2:
        raise CapExceeded("index code oracle alphabet", q, 2)
    if g.n > 3:
        raise CapExceeded("index code oracle vertex count", g.n, 3)
    n = g.n
    if n == 0:
        return 0
    size = 2**n
    vectors = [vector_of(v, n, 2) for v in range(size)]
    neighborhoods = [g.neighbors(i) for i in range(n)]

    def decodable(encoding: Sequence[int]) -> bool:
        for i in range(n):
            seen: dict[tuple, int] = {}
            for v in range(size):
                x = vectors[v]
                key = (encoding[v],) + tuple(x[j] for j in neighborhoods[i])
                prev = seen.get(key)
                if prev is None:
                    seen[key] = x[i]
                elif prev != x[i]:
                    return False
        return True

    for ell in range(n):
        codewords = 2**ell
        for rest in itertools.product(range(codewords), repeat=size - 1):
            if decodable((0,) + rest):
                return ell
    return n
