"""Crown decompositions: the data type, a verifier, and the constructive
routine that finds either a matching of a requested size or a crown.

A crown decomposition splits the vertex set into an independent crown C,
a head H separating C from the rest R, together with a matching of H into C.
R may be empty (a star with its center as the head needs that), but C and H
may not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, NamedTuple, Union

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
    neighborhood,
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
    reason code describing the violated clause.

    The clauses are checked in this order: empty-crown, empty-head,
    not-a-partition, then crown-not-independent and crown-body-edge, then
    witness-size, witness-not-a-matching-of-head-into-crown and
    witness-edges-invalid.  When several crown vertices break the
    independence or separation clause, the lowest-id one names the reason,
    and on one vertex crown-not-independent wins.
    """
    if live is None:
        live = all_vertices(g)
    crown, head, body = (vertex_mask(g, part) for part in (dec.crown, dec.head, dec.body))
    return _crown_reason(g, dec.crown, crown, head, body, live, dec.witness)


def _crown_reason(
    g: Graph,
    crown_ids: Collection[int],
    crown: int | None,
    head: int | None,
    body: int | None,
    live: int,
    witness: tuple[tuple[int, int], ...],
) -> str | None:
    """``check_crown`` on the three parts as vertex masks; a part is None
    when it names an id that is not a vertex of ``g``.  The one crown check:
    crown files, built crowns and trace steps all go through it.

    ``crown_ids`` lists the ids of ``crown`` once each, in any order; the
    caller already holds that list.  The offender a reason names is found on
    the mask, so the order of the list cannot change the reason.
    """
    if crown == 0:
        return "empty-crown"
    if head == 0:
        return "empty-head"
    if (
        crown is None
        or head is None
        or body is None
        or crown.bit_count() + head.bit_count() + body.bit_count() != live.bit_count()
        or crown | head | body != live
    ):
        return "not-a-partition"

    if neighborhood(g, crown_ids) & (crown | body):
        for v in members(crown):
            if g.adj[v] & crown:
                return "crown-not-independent"
            if g.adj[v] & body:
                return "crown-body-edge"

    if len(witness) != head.bit_count():
        return "witness-size"
    witness_heads = vertex_mask(g, [h for h, _ in witness])
    witness_crowns = vertex_mask(g, [c for _, c in witness])
    if (
        witness_heads != head
        or witness_crowns is None
        or witness_crowns.bit_count() != len(witness)
        or witness_crowns & ~crown
    ):
        return "witness-not-a-matching-of-head-into-crown"
    if not matching_is_valid(g, witness):
        return "witness-edges-invalid"
    return None


class _CrownMasks(NamedTuple):
    """A crown decomposition as vertex masks, with its H-into-C witness and
    the crown's ids in ascending order."""

    crown: int
    head: int
    body: int
    witness: tuple[tuple[int, int], ...]
    crown_ids: tuple[int, ...]


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
    result = _crown_or_matching(g, k, live)
    if isinstance(result, list):
        return result
    return CrownDecomposition(
        crown=frozenset(result.crown_ids),
        head=frozenset(members(result.head)),
        body=frozenset(members(result.body)),
        witness=result.witness,
    )


def _crown_or_matching(g: Graph, k: int, live: int) -> Union[Matching, _CrownMasks]:
    """``find_crown_or_matching`` for callers that have already established
    its preconditions on ``live``; a crown comes back as masks."""
    maximal = greedy_maximal_matching(g, live)
    if len(maximal) >= k:
        return maximal[:k]

    saturated = mask_of(v for e in maximal for v in e)
    independent = live & ~saturated
    cross = max_bipartite_matching(g, saturated, independent)
    if len(cross) >= k:
        return cross[:k]

    cover = min_vertex_cover_bipartite(g, saturated, independent, cross)
    head = cover & saturated
    crown = independent & ~cover
    if not head or not crown:
        raise CrownConstructionError(
            f"degenerate crown (|H|={head.bit_count()}, |C|={crown.bit_count()}) "
            f"on n={live.bit_count()}, k={k}"
        )
    body = live & ~head & ~crown
    witness = tuple(sorted((a, b) for a, b in cross if (head >> a) & 1))
    crown_ids = tuple(members(crown))
    reason = _crown_reason(g, crown_ids, crown, head, body, live, witness)
    if reason is not None:
        raise CrownConstructionError(f"constructed crown failed verification: {reason}")
    return _CrownMasks(crown, head, body, witness, crown_ids)
