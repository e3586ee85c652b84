"""Simple undirected graphs with bitset adjacency, plus the matching and
clique-cover subroutines shared by the reduction machinery.

Vertices are dense 0-based integers.  Neighbor sets are stored as Python
integer bitmasks; since Python integers are arbitrary-width, the same
representation serves every graph size we handle.  All tie-breaking is
lowest-id-first so every routine here is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from operator import not_, or_
from typing import Collection, Iterable, Iterator

Edge = tuple[int, int]
Matching = list[Edge]
CliqueCover = list[frozenset[int]]


class GraphError(ValueError):
    """Malformed graph or out-of-range vertex argument."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Maps the digits of a binary string to the bytes 0 and 1, which ``compress``
# reads as false and true.
_DIGIT_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")


def members(mask: int) -> list[int]:
    """The set bit positions of ``mask`` in ascending order.

    Scans the binary string once, so the cost is linear in the mask's length
    plus its population; ``bits`` peels one bit at a time and is quadratic
    on large dense masks such as the live vertex set of a big graph.  A mask
    with more than one bit in eight set is read by ``compress`` at C speed;
    a sparser one, such as a crown head of a few high ids, by one
    ``str.find`` per set bit, which skips the runs of zeros.
    """
    length = mask.bit_length()
    if not mask & (mask + 1):  # all of 0 .. bit_length - 1
        return list(range(length))
    digits = bin(mask)[:1:-1]
    if mask.bit_count() * 8 > length:
        return list(compress(range(length), digits.encode().translate(_DIGIT_TO_BIT)))
    out = []
    pos = digits.find("1")
    while pos >= 0:
        out.append(pos)
        pos = digits.find("1", pos + 1)
    return out


# From this many ids on, a digit string builds a mask faster than one shift
# per id.  Timed as best-of-7 thread CPU under CPython 3.11, on sorted and
# shuffled ids, dense or below 8,001 or 20,001, the crossover lies between 128
# and 384 ids, and at 256 neither way is more than 22% faster.  At 32 ids
# below 8,001 the digit string takes 14 us against 2.5 us; at 5,563 ids it
# takes 0.21 ms against 0.39-0.69 ms.
_DIGIT_STRING_MIN_IDS = 256


def _mask_upto(ids: Collection[int], top: int) -> int:
    """The mask of the non-negative integers ``ids``, whose largest is ``top``.

    Each ``|= 1 << v`` copies the whole mask so far, so a long list is built
    from a digit string instead, in time linear in ``top``.
    """
    if len(ids) < _DIGIT_STRING_MIN_IDS:
        m = 0
        for v in ids:
            m |= 1 << v
        return m
    digits = bytearray(b"0") * (top + 1)
    for v in ids:
        digits[v] = 49  # ord("1")
    return int(digits[::-1], 2)


def mask_of(vertices: Iterable[int]) -> int:
    """The mask with the bits of ``vertices`` set.

    A negative id raises ValueError and a non-integer one TypeError.
    """
    ids = vertices if isinstance(vertices, (list, tuple)) else list(vertices)
    if not ids:
        return 0
    if min(ids) < 0:
        raise ValueError("negative vertex id")
    return _mask_upto(ids, max(ids))


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on the vertex set {0, ..., n-1}.

    ``adj[v]`` is the neighbor set of ``v`` as a bitmask.  Instances are
    immutable.  ``Graph(n, adj)`` validates its input: adjacency must be
    symmetric, loop-free, and confined to [0, n).  Graphs the library derives
    from a valid graph, or builds edge by edge, are valid by construction and
    skip that O(m) check through ``_trusted``.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("negative vertex count")
        if len(self.adj) != self.n:
            raise GraphError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise GraphError(f"vertex {v} has a neighbor outside [0, {self.n})")
            if (mask >> v) & 1:
                raise GraphError(f"self-loop at vertex {v}")
        for v, mask in enumerate(self.adj):
            for u in bits(mask):
                if not (self.adj[u] >> v) & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...], m: int | None = None) -> "Graph":
        """Build a graph without validation; ``adj`` must already be valid.

        A builder that has counted the edges passes ``m``, which then seeds
        the cached edge count instead of a popcount over every neighbor set.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        if m is not None:
            object.__setattr__(g, "m", m)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        if n < 0:
            raise GraphError("negative vertex count")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls._trusted(n, tuple(adj))

    @cached_property
    def m(self) -> int:
        """Number of edges."""
        return sum(map(int.bit_count, self.adj)) // 2

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[Edge]:
        """All edges as (u, v) with u < v, in ascending lexicographic order."""
        out: list[Edge] = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                out.append((u, u + 1 + v))
        return out

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        adj = tuple((full & ~mask) & ~(1 << v) for v, mask in enumerate(self.adj))
        return Graph._trusted(self.n, adj)


K0 = Graph(0, ())


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by ``vertices`` plus the old-id -> new-id bijection.

    New ids follow the ascending order of the old ids.  The cost follows the
    edges kept, not the degrees of the kept vertices.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range for n={g.n}")
    mapping = {old: new for new, old in enumerate(keep)}
    keep_mask = mask_of(keep)
    adj = []
    for old in keep:
        mask = 0
        for u in bits(g.adj[old] & keep_mask):
            mask |= 1 << mapping[u]
        adj.append(mask)
    return Graph._trusted(len(keep), tuple(adj)), mapping


def all_vertices(g: Graph) -> int:
    """The mask of every vertex of ``g``."""
    return (1 << g.n) - 1


def neighborhood(g: Graph, vertices: Iterable[int]) -> int:
    """The union of the neighbor sets of ``vertices``, as a mask, in one
    C-level reduction."""
    return reduce(or_, map(g.adj.__getitem__, vertices), 0)


def vertex_mask(g: Graph, vertices: Collection[int]) -> int | None:
    """The mask of ``vertices`` if each is a vertex id of ``g``, else None.

    Ids from outside the library are checked against [0, n) before any
    ``1 << v``, which raises on a negative id and allocates without bound on
    a huge one.
    """
    if not vertices:
        return 0
    try:
        top = max(vertices)
        if min(vertices) < 0 or top >= g.n:
            return None
        return _mask_upto(vertices, top)
    except TypeError:  # a non-integer id
        return None


def isolated_vertices(g: Graph, live: int | None = None) -> set[int]:
    """Vertices of ``live`` (default: all) with no neighbor in ``live``."""
    return set(_isolated_ids(g, all_vertices(g) if live is None else live))


def _isolated_ids(g: Graph, live: int) -> list[int]:
    """``isolated_vertices`` as an ascending list, straight from the scan."""
    if live == all_vertices(g):
        return list(compress(range(g.n), map(not_, g.adj)))
    adj = g.adj
    return [v for v in members(live) if not adj[v] & live]


def greedy_maximal_matching(g: Graph, live: int | None = None) -> Matching:
    """Maximal matching of the subgraph induced by ``live`` (default: all),
    obtained by scanning edges in ascending (u, v) order.

    ``unmatched`` drops both ends of each matched edge.  Every live neighbor
    of ``u`` below ``u`` is then matched already: an unmatched one would have
    taken ``u`` when it was scanned.  So ``adj[u] & unmatched`` holds exactly
    the free neighbors above ``u``, with no shift by ``u``.
    """
    if live is None:
        live = all_vertices(g)
    unmatched = live
    partners: set[int] = set()
    out: Matching = []
    for u in members(live):
        if u in partners:
            continue
        free = g.adj[u] & unmatched
        if free:
            v = (free & -free).bit_length() - 1
            out.append((u, v))
            partners.add(v)
            unmatched ^= (1 << u) | (1 << v)
    return out


def _check_sides(g: Graph, side_a: int, side_b: int) -> None:
    """Raise GraphError unless the two vertex masks are disjoint sets of
    vertices of ``g``."""
    for side in (side_a, side_b):
        if side >> g.n:  # a bit >= n, or a negative mask (which stays negative)
            raise GraphError(f"bipartition side has a vertex outside [0, {g.n})")
    if side_a & side_b:
        raise GraphError("bipartition sides overlap")


def max_bipartite_matching(g: Graph, side_a: int, side_b: int) -> Matching:
    """Maximum matching between the vertex masks ``side_a`` and ``side_b``.

    Only edges with one endpoint in each side are considered.  Uses repeated
    augmenting-path search, scanning both sides lowest-id-first.  The search
    is a depth-first walk on an explicit stack, so long alternating paths
    cannot exhaust the interpreter's recursion limit.  Returned edges are
    (a, b) pairs with a on the A side, in ascending order of a.
    """
    _check_sides(g, side_a, side_b)
    match_of: dict[int, int] = {}

    def augment(root: int) -> None:
        visited = 0
        # stack[i] is an A vertex of the alternating path with the iterator
        # over its untried B neighbors; path[i] is the B vertex it tries.
        stack = [(root, bits(g.adj[root] & side_b))]
        path: list[int] = []
        while stack:
            for b in stack[-1][1]:
                if (visited >> b) & 1:
                    continue
                visited |= 1 << b
                path.append(b)
                if b not in match_of:
                    for (a_i, _), b_i in zip(stack, path):
                        match_of[b_i] = a_i
                        match_of[a_i] = b_i
                    return
                partner = match_of[b]
                stack.append((partner, bits(g.adj[partner] & side_b)))
                break
            else:
                stack.pop()
                if path:
                    path.pop()

    a_list = members(side_a)
    for a in a_list:
        augment(a)
    return [(a, match_of[a]) for a in a_list if a in match_of]


def min_vertex_cover_bipartite(g: Graph, side_a: int, side_b: int, matching: Matching) -> int:
    """Minimum vertex cover of the A-B edges from a maximum matching (Koenig),
    as a vertex mask.

    The construction takes alternating-path reachability Z from the unmatched
    A-vertices and returns (A \\ Z) | (B & Z).  If the input matching was not
    maximum, the Koenig equality |cover| == |matching| fails and a GraphError
    is raised.
    """
    _check_sides(g, side_a, side_b)
    matched_a = 0
    match_b: dict[int, int] = {}
    for u, v in matching:
        if u >= 0 and v >= 0 and (side_a >> u) & 1 and (side_b >> v) & 1:
            a, b = u, v
        elif u >= 0 and v >= 0 and (side_a >> v) & 1 and (side_b >> u) & 1:
            a, b = v, u
        else:
            raise GraphError(f"matching edge ({u}, {v}) does not cross the bipartition")
        matched_a |= 1 << a
        match_b[b] = a

    reached = side_a & ~matched_a
    frontier = members(reached)
    while frontier:
        nxt: list[int] = []
        for a in frontier:
            for b in bits(g.adj[a] & side_b & ~reached):
                reached |= 1 << b
                partner = match_b.get(b)
                if partner is not None and not (reached >> partner) & 1:
                    reached |= 1 << partner
                    nxt.append(partner)
        frontier = nxt

    cover = (side_a & ~reached) | (side_b & reached)
    if cover.bit_count() != len(matching):
        raise GraphError("Koenig equality failed: matching is not maximum")
    return cover


def greedy_clique_cover(g: Graph) -> CliqueCover:
    """Clique cover grown greedily from the lowest-id uncovered vertex."""
    uncovered = set(range(g.n))
    cover: CliqueCover = []
    while uncovered:
        v = min(uncovered)
        members = [v]
        member_mask = 1 << v
        for u in sorted(uncovered):
            if u == v:
                continue
            if g.adj[u] & member_mask == member_mask:
                members.append(u)
                member_mask |= 1 << u
        cover.append(frozenset(members))
        uncovered -= set(members)
    return cover


def matching_is_valid(g: Graph, matching: Matching) -> bool:
    seen = 0
    for u, v in matching:
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            return False
        pair = (1 << u) | (1 << v)
        if seen & pair:
            return False
        seen |= pair
    return True


def clique_cover_is_valid(g: Graph, cover: CliqueCover) -> bool:
    seen: set[int] = set()
    for clique in cover:
        if not clique or seen & clique:
            return False
        members = sorted(clique)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if not g.has_edge(u, v):
                    return False
        seen |= clique
    return seen == set(range(g.n))
