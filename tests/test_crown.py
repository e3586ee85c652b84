import itertools
import random

import pytest

import crownkernel.crown
from crownkernel import (
    CrownConstructionError,
    CrownDecomposition,
    Graph,
    find_crown_or_matching,
    induced_subgraph,
    isolated_vertices,
    check_crown,
    max_bipartite_matching,
)
from crownkernel.graph import mask_of, matching_is_valid

from conftest import complete, random_graph, star


def crown(c, h, r, witness):
    return CrownDecomposition(
        crown=frozenset(c), head=frozenset(h), body=frozenset(r), witness=tuple(witness)
    )


class TestVerifyCrown:
    def test_star_canonical(self):
        g = star(4)  # center 0, leaves 1..3
        assert check_crown(g, crown({1, 2, 3}, {0}, set(), [(0, 1)])) is None

    def test_star_swapped_roles(self):
        g = star(4)
        dec = crown({0}, {1}, {2, 3}, [(1, 0)])
        assert check_crown(g, dec) == "crown-body-edge"

    def test_triangle_has_no_crown(self):
        g = complete(3)
        vertices = {0, 1, 2}
        for c_size in (1, 2):
            for c in itertools.combinations(vertices, c_size):
                rest = vertices - set(c)
                for h_size in range(1, len(rest) + 1):
                    for h in itertools.combinations(rest, h_size):
                        r = rest - set(h)
                        # try every injective witness candidate of H into C
                        candidates = [
                            list(zip(h, image))
                            for image in itertools.permutations(c, len(h))
                        ] or [[]]
                        for witness in candidates:
                            assert check_crown(g, crown(c, h, r, witness)) is not None

    def test_rejects_bad_partition(self):
        g = star(4)
        assert check_crown(g, crown({1, 2}, {0}, set(), [(0, 1)])) == "not-a-partition"

    def test_rejects_short_witness(self):
        g = star(4)
        assert check_crown(g, crown({1, 2, 3}, {0}, set(), [])) == "witness-size"

    def test_rejects_negative_or_non_integer_ids(self):
        g = star(4)
        assert check_crown(g, crown({1, 2, 3, -1}, {0}, set(), [(0, 1)])) == "not-a-partition"
        assert check_crown(g, crown({1, 2, "3"}, {0}, set(), [(0, 1)])) == "not-a-partition"

    def test_live_mask(self):
        # Star 0-{1, 2, 3} with leaf 3 dead: ({1, 2}, {0}, {}) is a crown of
        # the live graph but not of the whole star.
        g = star(4)
        dec = crown({1, 2}, {0}, set(), [(0, 1)])
        assert check_crown(g, dec, live=0b0111) is None
        assert check_crown(g, dec) == "not-a-partition"

    def test_rejects_crown_crown_edge(self):
        # Head 2 over the crown {0, 1}, which has the edge 0-1.
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert check_crown(g, crown({0, 1}, {2}, set(), [(2, 0)])) == "crown-not-independent"

    def test_rejects_witness_that_is_no_matching_of_head_into_crown(self):
        # Star 0-{1..4} plus the edge 4-5, with crown {1, 2, 3}, head {0}.
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
        for witness in ([(4, 1)], [(0, 4)], [(0, "1")], [(-1, 1)]):
            dec = crown({1, 2, 3}, {0}, {4, 5}, witness)
            assert check_crown(g, dec) == "witness-not-a-matching-of-head-into-crown"
        # Two heads matched onto one crown vertex.
        g = Graph.from_edges(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
        dec = crown({2, 3}, {0, 1}, set(), [(0, 2), (1, 2)])
        assert check_crown(g, dec) == "witness-not-a-matching-of-head-into-crown"

    def test_rejects_witness_pair_that_is_no_edge(self):
        # Head 0 is adjacent to crown vertex 1 only; the pair (0, 2) is no edge.
        g = Graph.from_edges(4, [(0, 1), (0, 3)])
        dec = crown({1, 2}, {0}, {3}, [(0, 2)])
        assert check_crown(g, dec) == "witness-edges-invalid"

    @pytest.mark.parametrize(
        "extra, reason",
        [
            # Vertex 1 has a body neighbor and vertices 8 and 9 an edge: 1 wins.
            ([(1, 10), (8, 9)], "crown-body-edge"),
            # Vertices 1 and 9 share an edge and vertex 8 has a body neighbor.
            ([(1, 9), (8, 10)], "crown-not-independent"),
            # Vertex 1 breaks both clauses.
            ([(1, 10), (1, 9)], "crown-not-independent"),
            ([(8, 10)], "crown-body-edge"),
        ],
    )
    def test_lowest_offending_crown_vertex_names_the_reason(self, extra, reason):
        # Crown {1, 8, 9} under head 0, body {10}.  A frozenset iterates 8
        # before 1 here, so the rule cannot hold by accident of hash order.
        g = Graph.from_edges(11, [(0, 1), (0, 8), (0, 9)] + extra)
        dec = crown({1, 8, 9}, {0}, {2, 3, 4, 5, 6, 7, 10}, [(0, 1)])
        assert check_crown(g, dec) == reason

    def test_rejects_empty_crown_or_head(self):
        g = star(4)
        assert check_crown(g, crown(set(), {0, 1, 2, 3}, set(), [])) == "empty-crown"
        assert check_crown(g, crown({0, 1, 2, 3}, set(), set(), [])) == "empty-head"


class TestFindCrownOrMatching:
    def test_triangle_yields_matching(self):
        result = find_crown_or_matching(complete(3), 1)
        assert result == [(0, 1)]

    def test_star_yields_crown(self):
        g = star(5)  # center 0, leaves 1..4
        result = find_crown_or_matching(g, 2)
        assert isinstance(result, CrownDecomposition)
        assert result.head == frozenset({0})
        assert result.crown == frozenset({2, 3, 4})
        assert result.body == frozenset({1})
        assert result.witness == ((0, 2),)
        assert check_crown(g, result) is None

    def test_perfect_matching_graph(self):
        g = Graph.from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)])
        result = find_crown_or_matching(g, 4)
        assert isinstance(result, list) and len(result) == 4

    def test_precondition_k(self):
        with pytest.raises(ValueError):
            find_crown_or_matching(complete(3), 0)

    def test_precondition_size(self):
        with pytest.raises(ValueError):
            find_crown_or_matching(complete(3), 2)  # needs 3*2-2 = 4 vertices

    def test_precondition_isolated(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            find_crown_or_matching(g, 1)

    def test_a_crown_that_fails_its_check_is_never_returned(self, monkeypatch):
        # On K_{1,4} with k = 2 the Koenig cover is the centre {0}.  A wrong
        # cover {1} would make the crown {2, 3, 4}, whose vertices all touch
        # the body {0}; the routine's own check must stop it.
        monkeypatch.setattr(crownkernel.crown, "min_vertex_cover_bipartite", lambda *args: 0b10)
        with pytest.raises(CrownConstructionError, match="failed verification: crown-body-edge"):
            find_crown_or_matching(star(5), 2)

    def test_random_instances_always_verify(self):
        rng = random.Random(99)
        for _ in range(500):
            n = rng.randint(2, 40)
            g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.2, 0.4]))
            keep = set(range(g.n)) - isolated_vertices(g)
            g, _ = induced_subgraph(g, keep)
            if g.n == 0:
                continue
            for k in range(1, (g.n + 2) // 3 + 1):
                result = find_crown_or_matching(g, k)
                if isinstance(result, CrownDecomposition):
                    assert check_crown(g, result) is None
                    # the witness is itself a matching of G of size |H|
                    assert matching_is_valid(g, list(result.witness))
                    assert len(result.witness) == len(result.head)
                    cross = max_bipartite_matching(g, mask_of(result.head), mask_of(result.crown))
                    assert len(cross) == len(result.head)
                else:
                    assert len(result) == k
                    assert matching_is_valid(g, result)

    def test_live_mask_matches_induced_subgraph(self):
        # On a live mask the routine makes the same choices as on the induced
        # subgraph, with every vertex in input coordinates.
        rng = random.Random(7)
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 40), rng.choice([0.05, 0.1, 0.2, 0.4]))
            keep = [v for v in range(g.n) if rng.random() < 0.7]
            sub, _ = induced_subgraph(g, keep)
            live_keep = [keep[v] for v in range(sub.n) if sub.adj[v]]
            sub, _ = induced_subgraph(g, live_keep)
            if sub.n == 0:
                continue
            for k in range(1, (sub.n + 2) // 3 + 1):
                expected = find_crown_or_matching(sub, k)
                result = find_crown_or_matching(g, k, mask_of(live_keep))
                if isinstance(expected, CrownDecomposition):
                    back = {v: live_keep[v] for v in range(sub.n)}
                    assert result == CrownDecomposition(
                        crown=frozenset(back[v] for v in expected.crown),
                        head=frozenset(back[v] for v in expected.head),
                        body=frozenset(back[v] for v in expected.body),
                        witness=tuple((back[a], back[b]) for a, b in expected.witness),
                    )
                    assert check_crown(g, result, mask_of(live_keep)) is None
                else:
                    assert result == [(live_keep[u], live_keep[v]) for u, v in expected]
