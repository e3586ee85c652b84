"""Exact solvers.

Covers the confusion-graph construction, exact independence and chromatic
numbers (branch-and-bound with greedy-coloring bounds / DSATUR backtracking),
minrank over prime fields via a row-space search with the diagonal normalized
to ones, and the explicit clique-cover constructions for index codes and
representing matrices.

Storage capacity is never materialized as a floating-point logarithm: the
solvers return the integer alpha(Conf_q(G)), and decisions compare it against
q**k in exact arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .graph import (
    CliqueCover,
    Graph,
    bits,
    clique_cover_is_valid,
    greedy_clique_cover,
    induced_subgraph,
)


class CapExceeded(RuntimeError):
    """A solver cap was exceeded; carries enough context to raise the cap."""

    def __init__(self, what: str, needed: int, cap: int):
        super().__init__(f"{what}: needs {needed}, cap is {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


@dataclass(frozen=True)
class Caps:
    """Size limits for the exact solvers; exceeding one raises, never approximates.

    Each cap bounds one search, checked by the solvers' shared front end
    after q, on the input graph, before anything is built; the base-graph
    bounds that follow are uncapped.  A confusion-graph build refuses q**n
    above the larger of the alpha and chi caps, since no search takes more.
    """

    alpha: int = 4096  # max vertex count for independence_number; SC's cap on q**n
    chi: int = 512  # max vertex count for chromatic_number / is_colorable; DIC's cap on q**n
    minrank: int = 2**40  # max nominal search space (p-1)**n * p**(2m); minrank's cap


DEFAULT_CAPS = Caps()


def is_prime(p: int) -> bool:
    if p < 4:
        return p >= 2
    return p % 2 == 1 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))


def _check_alphabet(q: int) -> None:
    if q < 2:
        raise ValueError("alphabet size q must be >= 2")


def _check_field(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"field modulus {p} is not prime")


# ---------------------------------------------------------------------------
# Confusion graphs


@dataclass(frozen=True)
class ConfusionGraph:
    """Graph on all q**n vectors over {0..q-1}, indexed little-endian base q
    (vector id = sum x_i * q**i).  Two vectors conflict when some vertex i of
    the base graph has x_i != y_i while x and y agree on N(i)."""

    base: Graph
    q: int
    graph: Graph


def build_confusion_graph(g: Graph, q: int, caps: Caps = DEFAULT_CAPS) -> ConfusionGraph:
    """Conf_q(G), refused before allocation above the larger of the alpha and chi caps.

    Conf_q(G) is a Cayley graph on Z_q**n: whether x and y conflict depends
    only on x - y.  So row 0 is the connection set S of the d with d_i != 0
    and d_j = 0 on N(i) for some i, and row x is row x - q**j translated by
    e_j for any digit x_j >= 1.  That costs one q**n-bit row per vertex, each
    made by a few mask operations; the per-digit masks are repeated bit
    patterns, one multiplication each.
    """
    _check_alphabet(q)
    size, cap = q**g.n, max(caps.alpha, caps.chi)
    if size > cap:
        raise CapExceeded("confusion graph size", size, cap)
    full = (1 << size) - 1
    steps = [q**j for j in range(g.n)]
    # repeat[j] has one bit every q**(j + 1); times 2**c - 1 it repeats c ones.
    repeat = [full // ((1 << q * step) - 1) for step in steps]
    zero = [((1 << step) - 1) * rep for step, rep in zip(steps, repeat)]  # digit j is 0
    connection = 0
    for i in range(g.n):
        row = full & ~zero[i]
        for j in g.neighbors(i):
            row &= zero[j]
        connection |= row
    adj = [connection]
    for step, rep in zip(steps, repeat):
        low = ((1 << (q - 1) * step) - 1) * rep  # digit j below q - 1: it goes up by 1
        high, wrap = full & ~low, (q - 1) * step  # digit j is q - 1: it goes to 0
        for x in range(step, q * step):
            r = adj[x - step]
            adj.append((r & low) << step | (r & high) >> wrap)
    m = size * connection.bit_count() // 2
    return ConfusionGraph(base=g, q=q, graph=Graph._trusted(size, tuple(adj), m))


# ---------------------------------------------------------------------------
# Independence and chromatic numbers


def max_clique_set(g: Graph) -> tuple[int, int]:
    """Exact maximum clique, branch and bound with a greedy-coloring bound.

    Returns (size, bitmask of one maximum clique).
    """
    return _grow_clique(g.adj, 0, (1 << g.n) - 1, 0, g.n)


def _grow_clique(
    adj: Sequence[int], clique: int, cand: int, best: int, stop: int
) -> tuple[int, int]:
    """Branch and bound for the largest clique that extends ``clique`` by
    vertices of ``cand`` (each adjacent to all of ``clique``).

    Only cliques larger than ``best`` are searched for, and the search ends
    once one of size ``stop`` is found.  Returns (size, mask) of the largest
    clique found, or (best, 0) if none is larger than ``best``.  The search
    keeps its own stack, one frame per clique vertex.
    """
    best_mask = 0
    stack = []  # (clique, size, candidates left, color order, color bounds, next index)
    size = clique.bit_count()
    while True:
        if not cand:
            if size > best:
                best, best_mask = size, clique
        else:
            # Greedy color classes of cand: a clique within order[: i + 1] has
            # at most bound[i] vertices, so branching runs from the end.
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
            stack.append((clique, size, cand, order, bound, len(order)))
        while stack:
            clique, size, cand, order, bound, i = stack.pop()
            i -= 1
            if i >= 0 and size + bound[i] > best and best < stop:
                v = order[i]
                stack.append((clique, size, cand & ~(1 << v), order, bound, i))
                clique, size, cand = clique | 1 << v, size + 1, cand & adj[v]
                break
        else:
            return best, best_mask


def max_clique(g: Graph) -> int:
    """Exact maximum clique size."""
    return max_clique_set(g)[0]


def independence_number(g: Graph, caps: Caps = DEFAULT_CAPS) -> int:
    """Exact independence number alpha(G), via maximum clique on the complement."""
    if g.n > caps.alpha:
        raise CapExceeded("independence solver vertex count", g.n, caps.alpha)
    return max_clique(g.complement())


def _dsatur(g: Graph, k: int, clique: int) -> list[int] | None:
    """DSATUR search for a proper coloring with at most ``k`` colors, or None.

    The vertices of ``clique`` take colors 0, 1, ... first.  Next comes the
    vertex with the most distinct neighbor colors, then the highest degree,
    then the lowest id; it tries its free colors lowest first and may open at
    most one new color.  With k = n the first descent never fails: it is the
    greedy DSATUR coloring.  Backtracking runs on an explicit stack.
    """
    adj = g.adj
    colors = [-1] * g.n
    seen = [0] * g.n  # seen[v]: mask of the colors on v's colored neighbors
    used = 0
    for v in bits(clique):
        colors[v] = used
        for u in bits(adj[v]):
            seen[u] |= 1 << used
        used += 1
    # By degree, high first, then by id (the sort is stable): the first of
    # these with the most neighbor colors is the next to color.
    pending = sorted((v for v in range(g.n) if colors[v] < 0), key=g.degree, reverse=True)
    stack = []  # (index in pending, vertex, colors left to try, used, neighbors it colored)
    while pending:
        i = most = -1
        for j, u in enumerate(pending):
            if seen[u].bit_count() > most:
                i, most = j, seen[u].bit_count()
        v = pending.pop(i)
        avail = ~seen[v] & ((1 << min(used + 1, k)) - 1)
        while not avail:
            pending.insert(i, v)
            if not stack:
                return None
            i, v, avail, used, touched = stack.pop()
            bit = 1 << colors[v]
            for u in touched:
                seen[u] ^= bit
        bit = avail & -avail
        colors[v] = c = bit.bit_length() - 1
        touched = []
        for u in bits(adj[v]):
            if not seen[u] & bit:
                seen[u] |= bit
                touched.append(u)
        stack.append((i, v, avail ^ bit, used, touched))
        if c == used:
            used += 1
    return colors


def dsatur_coloring(g: Graph) -> list[int]:
    """Greedy DSATUR coloring; returns a color per vertex (an upper bound witness)."""
    return _dsatur(g, g.n, 0)


def is_colorable(g: Graph, k: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """Exact k-colorability test: the greedy coloring and the clique bound,
    then the DSATUR search with one maximum clique precolored (its vertices
    take distinct colors in any proper coloring, which breaks the symmetry)."""
    n = g.n
    if n > caps.chi:
        raise CapExceeded("colorability vertex count", n, caps.chi)
    if k >= n:
        return True
    if k <= 0:
        return n == 0
    if max(dsatur_coloring(g), default=-1) + 1 <= k:
        return True
    omega, clique_mask = max_clique_set(g)
    if omega > k:
        return False
    return _dsatur(g, k, clique_mask) is not None


def chromatic_number(g: Graph, caps: Caps = DEFAULT_CAPS) -> int:
    """Exact chromatic number: the chi cap, then the uncapped search of _chi."""
    if g.n > caps.chi:
        raise CapExceeded("chromatic solver vertex count", g.n, caps.chi)
    return _chi(g)[0]


def _chi(g: Graph) -> tuple[int, int]:
    """(chi(G), omega(G)), with no cap: one maximum clique search and the
    greedy coloring, then the DSATUR search with that clique precolored for
    each k from omega up to below the greedy coloring's count."""
    omega, clique = max_clique_set(g)
    k, upper = omega, max(dsatur_coloring(g), default=-1) + 1
    while k < upper and _dsatur(g, k, clique) is None:
        k += 1
    return k, omega


# ---------------------------------------------------------------------------
# Problem values: the front end the exact solvers share


def _front_end(g: Graph, q: int, what: str, cap: int, space: int) -> tuple[Graph, int]:
    """The cap preamble, then the isolated-vertex rule: (G - I, |I|).

    On the input graph and before anything is allocated, it checks q, then
    the solver's one cap against its search ``space``.  An isolated vertex
    leaves alpha(Conf_q(G)) unchanged and adds exactly 1 to Ind_q and to
    minrank (the isolated rule of the reduction).
    """
    _check_alphabet(q)
    if space > cap:
        raise CapExceeded(what, space, cap)
    core = [v for v in range(g.n) if g.adj[v]]
    if len(core) == g.n:
        return g, 0
    return induced_subgraph(g, core)[0], g.n - len(core)


def _cover_and_alpha(g: Graph, q: int, caps: Caps, conf: Graph | None = None) -> tuple[int, int]:
    """(cc(G), alpha(Conf_q(G))), with cc(G) the clique-cover number.

    Two base-graph bounds sandwich alpha, q**(n - cc(G)) <= alpha <=
    q**(n - alpha(G)):

    * lower: for a clique cover, the vectors whose symbols sum to 0 mod q on
      every clique form a code of size q**(n - cc); symbol i is minus the sum
      over the rest of its clique, which lies in N(i), so no two conflict.
    * upper: for an independent set I, N(i) lies outside I for each i in I,
      so two vectors that agree outside I but differ at some i in I conflict;
      a code therefore has at most q**(n - |I|) members.

    One _chi search on the complement gives both cc(G) and alpha(G).  When
    the bounds meet, nothing is built.  Otherwise the search runs on ``conf``
    (built here if the caller passes none).  Conf_q(G) is a Cayley graph on
    Z_q**n (conflict depends only on x - y), so translating any maximum
    independent set gives one through vertex 0, and the search starts there,
    seeded with the lower bound and stopped at the upper one.
    """
    cover_number, independent = _chi(g.complement())
    lo, hi = q ** (g.n - cover_number), q ** (g.n - independent)
    if lo == hi:
        return cover_number, lo
    if conf is None:
        conf = build_confusion_graph(g, q, caps).graph
    compatible = conf.complement()
    return cover_number, _grow_clique(compatible.adj, 1, compatible.adj[0], lo, hi)[0]


def storage_capacity_alpha(g: Graph, q: int, caps: Caps = DEFAULT_CAPS) -> int:
    """alpha(Conf_q(G)); the capacity itself is log_q of this integer and the
    decision Capa_q(G) >= k is alpha >= q**k in exact arithmetic.

    Its own cap is `alpha`; Conf_q(G) is built only in the bounds' gap.
    """
    g, _ = _front_end(g, q, "independence solver vertex count", caps.alpha, q**g.n)
    return _cover_and_alpha(g, q, caps)[1]


def index_coding_length(g: Graph, q: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Exact Ind_q(G) = ceil(log_q chi(Conf_q(G))).

    Only power-of-q colorability matters, so instead of pinning chi exactly
    this searches the smallest ell with Conf_q(G) being q**ell-colorable.
    The minimum clique cover of the base graph yields a proper coloring of
    the confusion graph with q**cc(G) colors (the per-clique-sum index code),
    and two bounds cap chi from below, so explicit colorability search only
    runs inside the gap between the two:

    * counting: chi >= ceil(q**n / alpha(Conf_q(G))), with alpha and cc(G)
      from _cover_and_alpha on the one Conf_q(G) built here.
    * clique: chi >= omega(Conf_q(G)).  Conf_q(G) is a Cayley graph on
      Z_q**n, so x -> x - c is an automorphism; translating a maximum clique
      by minus one of its members gives one through vertex 0, so the search
      runs only over the neighbours of vertex 0.  It looks only for cliques
      larger than the counting bound and so returns max(omega, counting).
      The clique it finds is precolored in each DSATUR search of the gap.

    Its own cap is `chi`.  The front end drops isolated vertices: with them
    Conf_q(G) is the join of q**|I| copies of Conf_q(G - I), where the clique
    search proves its bound only slowly.
    """
    g, isolated = _front_end(g, q, "index coding solver confusion size", caps.chi, q**g.n)
    conf = build_confusion_graph(g, q, caps).graph
    cover_number, alpha = _cover_and_alpha(g, q, caps, conf)
    lower, clique = _grow_clique(conf.adj, 1, conf.adj[0], -(-conf.n // alpha), conf.n)
    ell = 0
    while q**ell < lower:
        ell += 1
    while ell < cover_number and _dsatur(conf, q**ell, clique) is None:
        ell += 1
    return isolated + ell


# ---------------------------------------------------------------------------
# GF(p) matrices and minrank


@dataclass(frozen=True)
class GFMatrix:
    """Dense matrix over the prime field GF(p); entries are residues in [0, p)."""

    p: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_field(self.p)
        width = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged matrix")
            if any(not 0 <= x < self.p for x in row):
                raise ValueError("entry out of range for GF(p)")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def gf_rank(mat: GFMatrix) -> int:
    """Rank over GF(p) by Gaussian elimination."""
    p = mat.p
    rows = [list(r) for r in mat.entries]
    rank = 0
    cols = mat.cols
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def matrix_represents(mat: GFMatrix, g: Graph) -> bool:
    """True iff the matrix has a nonzero diagonal and zeros at all non-edges."""
    if mat.rows != g.n or mat.cols != g.n:
        return False
    for i in range(g.n):
        if mat.entries[i][i] == 0:
            return False
        for j in range(g.n):
            if i != j and not g.has_edge(i, j) and mat.entries[i][j] != 0:
                return False
    return True


def _rref_insert(basis: tuple[tuple[int, ...], ...], vec: list[int], p: int):
    """Insert ``vec`` into an RREF basis (tuples sorted by pivot); returns the
    new canonical basis (unchanged object if vec was already in the span)."""
    v = vec
    for row in basis:
        pivot = next(i for i, x in enumerate(row) if x)
        if v[pivot]:
            factor = v[pivot]
            v = [(a - factor * b) % p for a, b in zip(v, row)]
    pivot = next((i for i, x in enumerate(v) if x), None)
    if pivot is None:
        return basis
    inv = pow(v[pivot], p - 2, p)
    v = tuple((x * inv) % p for x in v)
    new_rows = []
    for row in basis:
        if row[pivot]:
            factor = row[pivot]
            row = tuple((a - factor * b) % p for a, b in zip(row, v))
        new_rows.append(row)
    new_rows.append(v)
    new_rows.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
    return tuple(new_rows)


def minrank(g: Graph, p: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Exact minrank of G over GF(p).

    Row i of a representing matrix is supported on N[i] with a nonzero entry
    at i; scaling rows preserves rank and the zero pattern, so the diagonal is
    normalized to ones and only the p**(2m) edge entries are searched.  The
    search runs row by row over reached row spaces (canonical RREF bases),
    pruning once the partial rank matches the best known bound.  Its own cap
    is `minrank`, on that search space of the input graph.
    """
    _check_field(p)
    space = (p - 1) ** g.n * p ** (2 * g.m)
    g, isolated = _front_end(g, p, "minrank search space", caps.minrank, space)
    n = g.n
    cover_bound = len(greedy_clique_cover(g))
    lower = max_clique(g.complement())  # alpha(G) <= minrank
    if cover_bound == lower:
        return isolated + cover_bound

    best = cover_bound
    visited: set[tuple[int, tuple[tuple[int, ...], ...]]] = set()
    neighbor_lists = [g.neighbors(i) for i in range(n)]

    def dfs(i: int, basis: tuple[tuple[int, ...], ...]) -> None:
        nonlocal best
        if len(basis) >= best or best == lower:
            return
        if i == n:
            best = len(basis)
            return
        key = (i, basis)
        if key in visited:
            return
        visited.add(key)
        nbrs = neighbor_lists[i]
        for assignment in itertools.product(range(p), repeat=len(nbrs)):
            row = [0] * n
            row[i] = 1
            for j, value in zip(nbrs, assignment):
                row[j] = value
            dfs(i + 1, _rref_insert(basis, row, p))

    dfs(0, ())
    return isolated + best


# ---------------------------------------------------------------------------
# Clique-cover constructions


@dataclass(frozen=True)
class IndexCode:
    """Index code from a clique cover: the encoder sends one per-clique sum
    modulo q; receiver i subtracts the side information of its own clique."""

    q: int
    cover: tuple[frozenset[int], ...]
    clique_of: dict[int, int] = field(repr=False)

    @property
    def length(self) -> int:
        return len(self.cover)

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(message[i] for i in clique) % self.q for clique in self.cover)

    def decode(self, receiver: int, codeword: Sequence[int], side: Mapping[int, int]) -> int:
        idx = self.clique_of[receiver]
        others = sum(side[j] for j in self.cover[idx] if j != receiver)
        return (codeword[idx] - others) % self.q


def clique_cover_index_code(g: Graph, q: int, cover: CliqueCover) -> IndexCode:
    _check_alphabet(q)
    if not clique_cover_is_valid(g, cover):
        raise ValueError("invalid clique cover")
    ordered = tuple(cover)
    clique_of = {v: idx for idx, clique in enumerate(ordered) for v in clique}
    return IndexCode(q=q, cover=ordered, clique_of=clique_of)


def clique_cover_minrank_matrix(g: Graph, cover: CliqueCover, p: int) -> GFMatrix:
    if not clique_cover_is_valid(g, cover):
        raise ValueError("invalid clique cover")
    n = g.n
    entries = [[0] * n for _ in range(n)]
    for clique in cover:
        for i in clique:
            for j in clique:
                entries[i][j] = 1
    return GFMatrix(p, tuple(tuple(row) for row in entries))
