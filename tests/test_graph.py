import random

import pytest
from hypothesis import given, strategies as st

from crownkernel import (
    Graph,
    GraphError,
    K0,
    greedy_clique_cover,
    greedy_maximal_matching,
    induced_subgraph,
    isolated_vertices,
    max_bipartite_matching,
    min_vertex_cover_bipartite,
)
from crownkernel.exact import build_confusion_graph
from crownkernel.formats import parse_dimacs, write_dimacs
from crownkernel.generators import gen_crown_planted
from crownkernel.graph import (
    _DIGIT_STRING_MIN_IDS,
    all_vertices,
    bits,
    clique_cover_is_valid,
    mask_of,
    matching_is_valid,
    members,
    neighborhood,
    vertex_mask,
)

from conftest import complete, empty, path, random_graph, star
from oracles import greedy_maximal_matching_reference


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v))
    return Graph.from_edges(n, edges)


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 5)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(GraphError):
            Graph(2, (0b10, 0b00))

    def test_edges_and_complement(self):
        g = path(3)
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.complement().edges() == [(0, 2)]
        assert g.m == 2

    @given(graphs())
    def test_complement_involution(self, g):
        assert g.complement().complement() == g

    def test_from_edges_rejects_negative_n(self):
        with pytest.raises(GraphError, match="negative vertex count"):
            Graph.from_edges(-1, [])

    @given(graphs(max_n=6), st.sets(st.integers(min_value=0, max_value=5)))
    def test_derived_graphs_pass_full_validation(self, g, selection):
        # Derived graphs skip validation; the public constructor must accept
        # every one of them and rebuild an equal graph.
        sub, _ = induced_subgraph(g, {v for v in selection if v < g.n})
        derived = [
            Graph.from_edges(g.n, g.edges()),
            sub,
            g.complement(),
            parse_dimacs(write_dimacs(g)),
            build_confusion_graph(sub, 2).graph,
        ]
        if g.n <= 3:
            derived.append(build_confusion_graph(g, 3).graph)
        for d in derived:
            rebuilt = Graph(d.n, d.adj)
            assert rebuilt == d
            assert rebuilt.m == d.m == sum(map(int.bit_count, d.adj)) // 2


class TestInducedSubgraph:
    def test_clique_restriction(self):
        g, mapping = induced_subgraph(complete(3), {0, 1})
        assert g.n == 2 and g.edges() == [(0, 1)]
        assert mapping == {0: 0, 1: 1}

    def test_empty_selection(self):
        g, mapping = induced_subgraph(complete(4), set())
        assert g == K0 and mapping == {}

    def test_path_endpoints(self):
        g, _ = induced_subgraph(path(3), {0, 2})
        assert g.n == 2 and g.m == 0

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphError):
            induced_subgraph(path(3), {0, 7})

    @given(graphs(), st.sets(st.integers(min_value=0, max_value=11)))
    def test_edge_correspondence(self, g, selection):
        selection = {v for v in selection if v < g.n}
        sub, mapping = induced_subgraph(g, selection)
        assert sub.n == len(selection)
        assert sorted(mapping) == sorted(selection)
        for u in selection:
            for v in selection:
                if u < v:
                    assert g.has_edge(u, v) == sub.has_edge(mapping[u], mapping[v])


class TestIsolatedVertices:
    def test_k0(self):
        assert isolated_vertices(K0) == set()

    def test_live_mask(self):
        # 0-1-2 path: with 1 dead, both ends are isolated in the live graph.
        g = path(3)
        assert isolated_vertices(g, 0b101) == {0, 2}
        assert isolated_vertices(g, all_vertices(g)) == set()

    def test_single_edge_plus_vertex(self):
        assert isolated_vertices(Graph.from_edges(3, [(0, 1)])) == {2}

    def test_complete(self):
        assert isolated_vertices(complete(5)) == set()


class TestGreedyMaximalMatching:
    def test_path_lexicographic(self):
        assert greedy_maximal_matching(path(4)) == [(0, 1), (2, 3)]

    def test_star(self):
        assert len(greedy_maximal_matching(star(5))) == 1

    def test_k0(self):
        assert greedy_maximal_matching(K0) == []

    def test_live_mask_matches_induced_subgraph(self):
        rng = random.Random(3)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 20), rng.random())
            keep = sorted(v for v in range(g.n) if rng.random() < 0.6)
            sub, _ = induced_subgraph(g, keep)
            expected = [(keep[u], keep[v]) for u, v in greedy_maximal_matching(sub)]
            assert greedy_maximal_matching(g, mask_of(keep)) == expected

    def test_matches_the_reference_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(0, 100)
            g = random_graph(rng, n, rng.choice([0.02, 0.05, 0.2, 0.6]))
            live = mask_of([v for v in range(n) if rng.random() < 0.7])
            assert greedy_maximal_matching(g) == greedy_maximal_matching_reference(g)
            assert greedy_maximal_matching(g, live) == greedy_maximal_matching_reference(g, live)

    def test_matches_the_reference_on_planted_hubs(self):
        # Low-id crown leaves, high-id heads, as in the large hub graphs.
        rng = random.Random(6)
        for _ in range(100):
            c, h, r = rng.randint(64, 200), rng.randint(1, 4), rng.randint(0, 6)
            g, _ = gen_crown_planted(c, h, r, rng, rng.choice([0.01, 0.1, 0.3]))
            g = parse_dimacs(write_dimacs(g))
            live = mask_of([v for v in range(g.n) if rng.random() < 0.8])
            assert greedy_maximal_matching(g) == greedy_maximal_matching_reference(g)
            assert greedy_maximal_matching(g, live) == greedy_maximal_matching_reference(g, live)

    def test_maximality_random(self):
        rng = random.Random(1)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 20), rng.random())
            m = greedy_maximal_matching(g)
            assert matching_is_valid(g, m)
            saturated = {v for e in m for v in e}
            for u, v in g.edges():
                assert u in saturated or v in saturated


class TestBipartiteMatching:
    def test_complete_bipartite(self):
        g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert len(max_bipartite_matching(g, 0b0011, 0b1100)) == 2

    def test_star_center_on_a_side(self):
        g = star(5)
        assert len(max_bipartite_matching(g, 0b00001, 0b11110)) == 1

    def test_no_edges(self):
        assert max_bipartite_matching(empty(4), 0b0011, 0b1100) == []

    def test_overlapping_sides_rejected(self):
        with pytest.raises(GraphError):
            max_bipartite_matching(path(3), 0b011, 0b110)

    @pytest.mark.parametrize("side_a, side_b", [(-2, 0b001), (0b001, -2), (0b1000, 0b010)])
    def test_out_of_range_sides_rejected(self, side_a, side_b):
        # A negative mask or a bit >= n names no vertex of the path 0-1-2.
        with pytest.raises(GraphError):
            max_bipartite_matching(path(3), side_a, side_b)

    def test_long_alternating_path_does_not_recurse(self):
        # On a 3002-vertex path with A the even vertices, each new A vertex
        # first tries the B vertex matched just before it, so the augmenting
        # search walks back along the whole path.  A recursive search raised
        # RecursionError here.
        g = path(3002)
        side_a = mask_of(range(0, 3002, 2))
        matching = max_bipartite_matching(g, side_a, mask_of(range(1, 3002, 2)))
        assert matching == [(a, a + 1) for a in range(0, 3002, 2)]

    @given(graphs(max_n=10), st.sets(st.integers(min_value=0, max_value=9)))
    def test_same_matching_as_recursive_search(self, g, side_a):
        side_a = {v for v in side_a if v < g.n}
        side_b = set(range(g.n)) - side_a
        matching = max_bipartite_matching(g, mask_of(side_a), mask_of(side_b))
        assert matching == recursive_matching(g, side_a, side_b)


def recursive_matching(g, side_a, side_b):
    """Kuhn's algorithm in its textbook recursive form, lowest id first."""
    b_mask = mask_of(side_b)
    match_of = {}

    def augment(a, visited):
        for b in bits(g.adj[a] & b_mask):
            if b in visited:
                continue
            visited.add(b)
            if b not in match_of or augment(match_of[b], visited):
                match_of[b] = a
                match_of[a] = b
                return True
        return False

    for a in sorted(side_a):
        augment(a, set())
    return [(a, match_of[a]) for a in sorted(side_a) if a in match_of]


class TestKoenigCover:
    def test_complete_bipartite(self):
        g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        m = max_bipartite_matching(g, 0b0011, 0b1100)
        cover = min_vertex_cover_bipartite(g, 0b0011, 0b1100, m)
        assert cover.bit_count() == 2

    def test_star(self):
        g = star(5)
        m = max_bipartite_matching(g, 0b00001, 0b11110)
        assert min_vertex_cover_bipartite(g, 0b00001, 0b11110, m) == 0b00001

    def test_edgeless(self):
        assert min_vertex_cover_bipartite(empty(4), 0b0011, 0b1100, []) == 0

    @pytest.mark.parametrize(
        "side_a, side_b, matching",
        [(-2, 0b001, [(1, 0)]), (0b001, -2, [(0, 1)]), (0b1000, 0b010, [])],
    )
    def test_out_of_range_sides_rejected(self, side_a, side_b, matching):
        with pytest.raises(GraphError):
            min_vertex_cover_bipartite(path(3), side_a, side_b, matching)

    @pytest.mark.parametrize("edge", [(1, 2), (-1, 1)])
    def test_matching_edge_outside_the_sides_rejected(self, edge):
        with pytest.raises(GraphError):
            min_vertex_cover_bipartite(path(3), 0b001, 0b010, [edge])

    def test_koenig_equality_random(self):
        rng = random.Random(2)
        for _ in range(200):
            na, nb = rng.randint(0, 12), rng.randint(0, 12)
            side_a = set(range(na))
            side_b = set(range(na, na + nb))
            edges = [
                (a, b) for a in side_a for b in side_b if rng.random() < rng.random()
            ]
            g = Graph.from_edges(na + nb, edges)
            a_mask, b_mask = mask_of(side_a), mask_of(side_b)
            m = max_bipartite_matching(g, a_mask, b_mask)
            cover = set(members(min_vertex_cover_bipartite(g, a_mask, b_mask, m)))
            assert len(cover) == len(m)
            for u, v in edges:
                assert u in cover or v in cover
            # each matching edge meets the cover exactly once, covered vertices matched
            matched = {v for e in m for v in e}
            assert cover <= matched
            for a, b in m:
                assert (a in cover) != (b in cover)


class TestGreedyCliqueCover:
    def test_complete(self):
        assert greedy_clique_cover(complete(4)) == [frozenset(range(4))]

    def test_edgeless(self):
        cover = greedy_clique_cover(empty(3))
        assert cover == [frozenset({0}), frozenset({1}), frozenset({2})]

    def test_path(self):
        assert greedy_clique_cover(path(3)) == [frozenset({0, 1}), frozenset({2})]

    @given(graphs())
    def test_validity(self, g):
        assert clique_cover_is_valid(g, greedy_clique_cover(g))


def test_bits_ascending():
    assert list(bits(0b101001)) == [0, 3, 5]


@given(st.sets(st.integers(min_value=0, max_value=3000)))
def test_members_matches_bits(vertices):
    mask = mask_of(vertices)
    assert members(mask) == list(bits(mask)) == sorted(vertices)


def test_members_of_full_mask():
    assert members((1 << 5000) - 1) == list(range(5000))
    assert members(0) == []


# Id counts just below, at and above the size from which mask_of builds a
# digit string instead of shifting once per id.
CUT = _DIGIT_STRING_MIN_IDS


def _random_ids(length, density):
    """Ascending ids below ``length``, each kept with probability ``density``;
    ``length - 1`` is always kept, so the mask is ``length`` bits long."""
    rng = random.Random(length * 1000 + round(density * 1000))
    return [v for v in range(length - 1) if rng.random() < density] + [length - 1]


# members reads a mask with more than one bit in eight set by ``compress`` and
# a sparser one by ``str.find``; the lists below cover both regimes, the
# boundary between them (100 ids of an 800-bit mask are sparse, 101 dense),
# single runs, all-ones masks and one high bit.
@pytest.mark.parametrize(
    "vertices",
    [
        [],
        [4999],
        list(range(CUT - 1)),
        list(range(CUT)),
        list(range(CUT + 1)),
        list(range(4000, 4000 + 3 * (CUT - 1), 3)),
        list(range(4000, 4000 + 3 * CUT, 3)),
        list(range(4000, 4000 + 3 * (CUT + 1), 3)),
        list(range(0, 800, 8)),
        list(range(0, 900, 9)),
        list(range(8001, 8006)),
        [19_999],
        list(range(20_000)),
        list(range(3000, 9000)),
        list(range(7, 799, 8)) + [799],
        list(range(7, 799, 8)) + [798, 799],
        *(
            _random_ids(length, density)
            for length in (1, 9, 64, 1000, 20_000)
            for density in (0.001, 0.01, 0.1, 0.124, 0.126, 0.5, 0.99, 1.0)
        ),
    ],
)
def test_mask_of_and_members_round_trip(vertices):
    mask = sum(1 << v for v in vertices)
    shuffled = random.Random(len(vertices)).sample(vertices, len(vertices))
    assert mask_of(vertices) == mask_of(shuffled + vertices[:3]) == mask_of(iter(vertices)) == mask
    assert members(mask) == vertices == list(bits(mask))


@pytest.mark.parametrize("size", [1, CUT - 1, CUT, CUT + 8])
def test_mask_of_rejects_a_negative_id(size):
    with pytest.raises(ValueError):
        mask_of(list(range(size - 1)) + [-1])


@pytest.mark.parametrize("size", [1, CUT - 1, CUT, CUT + 8])
@pytest.mark.parametrize("bad", [-1, 300, 10**30, "3", 2.0, None])
def test_vertex_mask_refuses_ids_outside_the_graph(size, bad):
    g = empty(300)
    assert vertex_mask(g, list(range(size))) == (1 << size) - 1
    assert vertex_mask(g, list(range(size - 1)) + [bad]) is None


def test_neighborhood_is_the_union_of_neighbor_sets():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 40), rng.random())
        ids = rng.sample(range(g.n), rng.randint(0, g.n))
        expected = 0
        for v in ids:
            expected |= g.adj[v]
        assert neighborhood(g, ids) == expected
