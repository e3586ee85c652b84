"""Crown decompositions: the data type, a verifier, and the constructive
routine that finds either a matching of a requested size or a crown.

A crown decomposition splits the vertex set into an independent crown C,
a head H separating C from the rest R, together with a matching of H into C.
R may be empty (a star with its center as the head needs that), but C and H
may not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .graph import (
    Graph,
    Matching,
    all_vertices,
    greedy_maximal_matching,
    isolated_vertices,
    mask_of,
    matching_is_valid,
    members,
    max_bipartite_matching,
    min_vertex_cover_bipartite,
    vertex_mask,
)


class CrownConstructionError(RuntimeError):
    """The constructive routine produced neither a matching nor a crown.

    This indicates an internal bug, never a property of the input; it is
    raised loudly instead of emitting an invalid decomposition.
    """


@dataclass(frozen=True)
class CrownDecomposition:
    crown: frozenset[int]
    head: frozenset[int]
    body: frozenset[int]
    witness: tuple[tuple[int, int], ...]  # (head vertex, crown vertex) pairs


def check_crown(g: Graph, dec: CrownDecomposition, live: int | None = None) -> str | None:
    """Return None if ``dec`` is a valid crown decomposition of the subgraph
    of ``g`` induced by ``live`` (default: all of ``g``), otherwise a short
    reason code describing the violated clause."""
    crown, head, body = dec.crown, dec.head, dec.body
    if not crown:
        return "empty-crown"
    if not head:
        return "empty-head"
    if live is None:
        live = all_vertices(g)
    crown_mask, head_mask, body_mask = (vertex_mask(g, part) for part in (crown, head, body))
    if (
        crown_mask is None
        or head_mask is None
        or body_mask is None
        or len(crown) + len(head) + len(body) != live.bit_count()
        or crown_mask | head_mask | body_mask != live
    ):
        return "not-a-partition"

    for v in crown:
        if g.adj[v] & crown_mask:
            return "crown-not-independent"
        if g.adj[v] & body_mask:
            return "crown-body-edge"

    if len(dec.witness) != len(head):
        return "witness-size"
    heads = {h for h, _ in dec.witness}
    crowns = {c for _, c in dec.witness}
    if heads != set(head) or len(crowns) != len(head) or not crowns <= crown:
        return "witness-not-a-matching-of-head-into-crown"
    if not matching_is_valid(g, [tuple(e) for e in dec.witness]):
        return "witness-edges-invalid"
    return None


def find_crown_or_matching(
    g: Graph, k: int, live: int | None = None
) -> Union[Matching, CrownDecomposition]:
    """Find either a matching of size exactly ``k`` or a crown decomposition
    of the subgraph of ``g`` induced by ``live`` (default: all of ``g``).

    Requires k >= 1, at least 3k-2 live vertices, and no isolated vertices.
    Construction: take a greedy maximal matching M; if it has k edges we are
    done.  Otherwise the unmatched vertices I form an independent set of size
    at least k.  A maximum bipartite matching between V(M) and I either has
    size k (done) or yields a Koenig cover X with |X| <= k-1 < |I|, from which
    H = X & V(M), C = I \\ X, R = the rest is a valid crown whose witness is
    the bipartite matching restricted to H.  Vertex ids are those of ``g``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if live is None:
        live = all_vertices(g)
    n = live.bit_count()
    if n < 3 * k - 2:
        raise ValueError(f"graph has {n} < 3k-2 = {3 * k - 2} vertices")
    if isolated_vertices(g, live):
        raise ValueError("graph has isolated vertices")
    return _crown_or_matching(g, k, live)


def _crown_or_matching(g: Graph, k: int, live: int) -> Union[Matching, CrownDecomposition]:
    """``find_crown_or_matching`` for callers that have already established
    its preconditions on ``live``."""
    maximal = greedy_maximal_matching(g, live)
    if len(maximal) >= k:
        return maximal[:k]

    saturated = mask_of(v for e in maximal for v in e)
    independent = live & ~saturated
    cross = max_bipartite_matching(g, saturated, independent)
    if len(cross) >= k:
        return cross[:k]

    cover = min_vertex_cover_bipartite(g, saturated, independent, cross)
    head_mask = cover & saturated
    crown_mask = independent & ~cover
    head = frozenset(members(head_mask))
    crown = frozenset(members(crown_mask))
    if not head or not crown:
        raise CrownConstructionError(
            f"degenerate crown (|H|={len(head)}, |C|={len(crown)}) "
            f"on n={live.bit_count()}, k={k}"
        )
    body = frozenset(members(live & ~head_mask & ~crown_mask))
    witness = tuple(sorted((a, b) for a, b in cross if a in head))
    dec = CrownDecomposition(crown=crown, head=head, body=body, witness=witness)
    reason = check_crown(g, dec, live)
    if reason is not None:
        raise CrownConstructionError(f"constructed crown failed verification: {reason}")
    return dec
