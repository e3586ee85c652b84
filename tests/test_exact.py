import itertools
import math
import random

import pytest

import crownkernel.exact
from crownkernel import Graph
from crownkernel.exact import (
    CapExceeded,
    Caps,
    GFMatrix,
    build_confusion_graph,
    chromatic_number,
    clique_cover_index_code,
    clique_cover_minrank_matrix,
    dsatur_coloring,
    gf_rank,
    independence_number,
    index_coding_length,
    is_colorable,
    is_prime,
    matrix_represents,
    max_clique,
    minrank,
    storage_capacity_alpha,
)
from crownkernel.generators import gen_complete, gen_empty, gen_gnp
from crownkernel.graph import greedy_clique_cover

from conftest import all_labeled_graphs, complete, empty, path, random_graph, star
from oracles import (
    build_confusion_graph_reference,
    chromatic_number_by_subsets,
    dsatur_coloring_reference,
    grow_clique_reference,
    index_of,
    minrank_full_bruteforce,
    minrank_pattern_bruteforce,
    oracle_index_code,
    oracle_storage_code,
    vector_of,
)


def cycle(n):
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def chromatic_bruteforce(g):
    """The fewest colors of a proper coloring, by trying all k**n maps."""
    return next(
        k
        for k in range(g.n + 1)
        if any(
            all(c[u] != c[v] for u, v in g.edges())
            for c in itertools.product(range(k), repeat=g.n)
        )
        or k == g.n
    )


class TestVectorIndexing:
    def test_little_endian(self):
        assert vector_of(6, 3, 2) == (0, 1, 1)  # 6 = 0 + 1*2 + 1*4
        assert index_of((0, 1, 1), 2) == 6

    def test_round_trip(self):
        for q in (2, 3):
            for v in range(q**3):
                assert index_of(vector_of(v, 3, q), q) == v


class TestConfusionGraph:
    def test_single_vertex_is_k2(self):
        conf = build_confusion_graph(Graph(1, (0,)), 2).graph
        assert conf.n == 2 and conf.edges() == [(0, 1)]

    def test_k2_is_c4(self):
        conf = build_confusion_graph(complete(2), 2).graph
        # cycle on vectors 00 - 01 - 11 - 10 (little-endian ids 0, 1, 3, 2)
        assert conf.n == 4 and conf.m == 4
        assert sorted(conf.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_k3_is_cube(self):
        conf = build_confusion_graph(complete(3), 2).graph
        assert conf.n == 8 and conf.m == 12
        for u, v in conf.edges():
            assert (u ^ v).bit_count() == 1  # Hamming-distance-1 pairs only

    def test_edgeless_is_complete(self):
        conf = build_confusion_graph(empty(2), 2).graph
        assert conf.m == conf.n * (conf.n - 1) // 2

    def test_brute_force_definition_agreement(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(0, 4), 0.5)
            q = rng.choice([2, 3])
            conf = build_confusion_graph(g, q).graph
            size = q**g.n
            for a in range(size):
                x = vector_of(a, g.n, q)
                for b in range(a + 1, size):
                    y = vector_of(b, g.n, q)
                    confusable = any(
                        x[i] != y[i]
                        and all(x[j] == y[j] for j in g.neighbors(i))
                        for i in range(g.n)
                    )
                    assert conf.has_edge(a, b) == confusable

    def test_cap(self):
        # The build takes what the larger of the alpha and chi caps allows.
        assert build_confusion_graph(empty(5), 2, Caps(alpha=16, chi=32)).graph.n == 32
        assert build_confusion_graph(empty(5), 2, Caps(alpha=32, chi=16)).graph.n == 32
        with pytest.raises(CapExceeded) as err:
            build_confusion_graph(empty(5), 2, Caps(alpha=16, chi=16))
        exc = err.value
        assert (exc.what, exc.needed, exc.cap) == ("confusion graph size", 32, 16)

    def test_default_cap_refuses_what_no_search_takes(self):
        # Conf_2 of 13 isolated vertices is complete: 8192 masks of 8192 bits.
        with pytest.raises(CapExceeded) as err:
            build_confusion_graph(empty(13), 2)
        exc = err.value
        assert (exc.what, exc.needed, exc.cap) == ("confusion graph size", 8192, 4096)


def assert_same_as_reference(g, q):
    conf = build_confusion_graph(g, q).graph
    reference = build_confusion_graph_reference(g, q)
    assert conf == reference, (q, g.n, g.edges())
    assert conf.m == reference.m  # the build's edge count against a popcount


class TestConfusionGraphMatchesReference:
    """The translation build against the bucket build it replaced."""

    def test_all_5_vertex_graphs_at_q2(self, catalog5):
        for g, *_ in catalog5:
            assert_same_as_reference(g, 2)

    def test_all_graphs_on_at_most_4_vertices_at_q3(self):
        for n in range(5):
            for g in all_labeled_graphs(n):
                assert_same_as_reference(g, 3)

    @pytest.mark.parametrize("q, max_n", [(4, 4), (5, 4), (6, 3), (7, 3)])
    def test_seeded_samples_at_larger_q(self, q, max_n):
        rng = random.Random(q)
        for _ in range(25):
            assert_same_as_reference(random_graph(rng, rng.randint(0, max_n), rng.random()), q)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_edge_cases(self, q):
        assert_same_as_reference(Graph(0, ()), q)
        for n in (1, 3):
            assert_same_as_reference(empty(n), q)
            assert_same_as_reference(complete(n), q)
        # A triangle plus two isolated vertices, the isolated ones in between.
        assert_same_as_reference(Graph.from_edges(5, [(0, 2), (2, 4), (0, 4)]), q)

    def test_at_the_default_cap(self):
        rng = random.Random(12)
        for _ in range(3):
            g = gen_gnp(12, 0.4, rng)
            assert 2**g.n == Caps().alpha
            assert_same_as_reference(g, 2)


class TestAlphaChi:
    def test_alpha_examples(self):
        assert independence_number(cycle(5)) == 2
        assert independence_number(empty(4)) == 4
        assert independence_number(complete(4)) == 1
        assert independence_number(star(6)) == 5
        assert independence_number(Graph(0, ())) == 0
        assert crownkernel.exact.max_clique_set(Graph(0, ())) == (0, 0)

    def test_chi_examples(self):
        assert chromatic_number(cycle(5)) == 3
        assert chromatic_number(cycle(6)) == 2
        assert chromatic_number(complete(4)) == 4
        assert chromatic_number(empty(3)) == 1
        assert chromatic_number(Graph(0, ())) == 0
        petersen = Graph.from_edges(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)],
        )
        assert chromatic_number(petersen) == 3

    def test_is_colorable_boundary(self):
        assert not is_colorable(complete(4), 3)
        assert is_colorable(complete(4), 4)
        assert not is_colorable(cycle(5), 2)

    def test_dsatur_is_proper(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 15), rng.random())
            colors = dsatur_coloring(g)
            for u, v in g.edges():
                assert colors[u] != colors[v]

    def test_clique_chi_brute_force_small(self, rng):
        # independent O(k^n) reference for both invariants
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 5), 0.5)
            assert chromatic_number(g) == chromatic_bruteforce(g)
            omega = max_clique(g)
            best = max(
                (
                    len(s)
                    for r in range(g.n + 1)
                    for s in itertools.combinations(range(g.n), r)
                    if all(g.has_edge(u, v) for u, v in itertools.combinations(s, 2))
                ),
                default=0,
            )
            assert omega == best

    def test_caps(self):
        with pytest.raises(CapExceeded):
            independence_number(empty(5), Caps(alpha=4))
        with pytest.raises(CapExceeded):
            chromatic_number(complete(5), Caps(chi=4))

    def test_coloring_routines_on_all_5_vertex_graphs(self, catalog5):
        for g, *_ in catalog5:
            chi = chromatic_bruteforce(g)
            assert chromatic_number(g) == chi == chromatic_number_by_subsets(g)
            assert [is_colorable(g, k) for k in range(g.n + 1)] == [
                k >= chi for k in range(g.n + 1)
            ]
            assert dsatur_coloring(g) == dsatur_coloring_reference(g)

    def test_greedy_coloring_is_the_reference_coloring(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 40), rng.random())
            assert dsatur_coloring(g) == dsatur_coloring_reference(g)
        # 1500 vertices colored one after another: a search that recursed
        # once per vertex would overflow Python's stack here.
        g = gen_gnp(1500, 0.004, random.Random(3))
        assert dsatur_coloring(g) == dsatur_coloring_reference(g)

    def test_colorability_search_backtracks_to_exact_answers(self, rng):
        # On 8-10 vertices the first descent from a precolored maximum clique
        # now and then fails at k = chi, and the search has to backtrack.
        search = crownkernel.exact._dsatur
        for _ in range(400):
            n = rng.randint(8, 10)
            g = random_graph(rng, n, rng.uniform(0.3, 0.7))
            chi = chromatic_number_by_subsets(g)
            assert chromatic_number(g) == chi
            omega, clique = crownkernel.exact.max_clique_set(g)
            for k in range(omega, n + 1):
                colors = search(g, k, clique)
                assert (colors is not None) == (k >= chi)
                if colors is not None:
                    assert max(colors) < k
                    assert all(colors[u] != colors[v] for u, v in g.edges())

    def test_colorability_search_has_no_depth_limit(self):
        # The odd cycle forces one color per vertex around all 1001 of them.
        assert is_colorable(cycle(1001), 2, Caps(chi=4096)) is False

    def test_clique_search_has_no_depth_limit(self):
        assert independence_number(gen_empty(1100)) == 1100
        assert max_clique(gen_complete(1100)) == 1100

    def test_clique_search_matches_the_recursive_reference(self, rng):
        grow = crownkernel.exact._grow_clique
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 25), rng.random())
            full = (1 << g.n) - 1
            assert grow(g.adj, 0, full, 0, g.n) == grow_clique_reference(g.adj, 0, full, 0, g.n)
            # Seeded and stopped, through vertex 0, as the confusion-graph
            # searches call it.
            best, stop = rng.randint(0, 3), rng.randint(1, g.n)
            assert grow(g.adj, 1, g.adj[0], best, stop) == grow_clique_reference(
                g.adj, 1, g.adj[0], best, stop
            )


class TestProblemValues:
    @pytest.mark.parametrize("alpha_cap, chi_cap", itertools.product([1, 32, 64], repeat=2))
    def test_each_solver_meets_only_its_own_cap(self, alpha_cap, chi_cap):
        # Conf_2(C5) has 32 vertices, and both solvers build it (the
        # sandwich 4 <= alpha <= 8 is open); the other solver's cap never
        # refuses the build.
        caps = Caps(alpha=alpha_cap, chi=chi_cap)
        for solver, cap, value, what in [
            (storage_capacity_alpha, alpha_cap, 5, "independence solver vertex count"),
            (index_coding_length, chi_cap, 3, "index coding solver confusion size"),
        ]:
            if cap >= 32:
                assert solver(cycle(5), 2, caps) == value
                continue
            with pytest.raises(CapExceeded) as err:
                solver(cycle(5), 2, caps)
            exc = err.value
            assert (exc.what, exc.needed, exc.cap) == (what, 32, cap)

    def test_capacity_examples(self):
        assert storage_capacity_alpha(complete(2), 2) == 2
        assert storage_capacity_alpha(complete(3), 2) == 4
        assert storage_capacity_alpha(complete(4), 2) == 8
        assert storage_capacity_alpha(empty(3), 2) == 1
        assert storage_capacity_alpha(star(6), 2) == 2  # Capa = 1
        assert storage_capacity_alpha(Graph(0, ()), 2) == 1

    def test_index_coding_examples(self):
        assert index_coding_length(complete(4), 2) == 1
        assert index_coding_length(empty(4), 2) == 4
        assert index_coding_length(star(6), 2) == 5
        assert index_coding_length(Graph(0, ()), 2) == 0

    def test_index_coding_matches_chi_log(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(0, 4), 0.5)
            conf = build_confusion_graph(g, 2).graph
            expected = math.ceil(math.log2(chromatic_number(conf))) if g.n else 0
            assert index_coding_length(g, 2) == expected


def canonical(g):
    """The lexicographically least relabeled edge list: equal on isomorphic graphs."""
    return min(
        tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges()))
        for p in itertools.permutations(range(g.n))
    )


def plain_alpha(g, q):
    """alpha(Conf_q(G)) by the plain branch and bound on the built graph."""
    return independence_number(build_confusion_graph(g, q).graph)


def base_bounds(g, q):
    """(q**(n - cc(G)), q**(n - alpha(G))), the bounds around alpha(Conf_q(G))."""
    comp = g.complement()
    return q ** (g.n - chromatic_number(comp)), q ** (g.n - max_clique(comp))


def count_builds(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_confusion_graph(*args, **kwargs)

    monkeypatch.setattr(crownkernel.exact, "build_confusion_graph", counted)
    return calls


def forbid_builds(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("build_confusion_graph called")

    monkeypatch.setattr(crownkernel.exact, "build_confusion_graph", fail)


class TestStorageCapacityAlpha:
    def test_matches_plain_search_on_all_5_vertex_graphs(self, catalog5):
        for g, alpha, _, _, _ in catalog5:
            assert storage_capacity_alpha(g, 2) == alpha

    def test_matches_plain_search_on_all_4_vertex_graphs_q3(self):
        # alpha(Conf_q) is the same on isomorphic graphs, and the plain
        # search's time depends on the labeling (35-75 s on three labelings
        # of K4 minus an edge, milliseconds on the other three), so it runs
        # once per isomorphism class, on the class's last labeling.
        graphs = list(all_labeled_graphs(4))
        last = {canonical(g): g for g in graphs}
        assert len(last) == 11
        reference = {key: plain_alpha(g, 3) for key, g in last.items()}
        for g in graphs:
            assert storage_capacity_alpha(g, 3) == reference[canonical(g)]

    def test_gap_search_matches_plain_search(self, monkeypatch):
        graphs = [cycle(5), cycle(7)]
        # Seeded gap graphs; on some 8-vertex gap graphs the plain reference
        # runs for minutes, so this seed keeps its total near two seconds.
        rng = random.Random(2)
        for n in (6, 6, 7, 7, 8):
            while True:
                g = random_graph(rng, n, 0.5)
                lo, hi = base_bounds(g, 2)
                if lo != hi:
                    graphs.append(g)
                    break
        assert base_bounds(cycle(5), 2) == (4, 8)
        expected = [plain_alpha(g, 2) for g in graphs]
        assert expected[0] == 5
        calls = count_builds(monkeypatch)
        assert [storage_capacity_alpha(g, 2) for g in graphs] == expected
        assert len(calls) == len(graphs)

    def test_equal_bounds_build_nothing(self, monkeypatch):
        graphs = [complete(4), star(6), empty(4), Graph(0, ())]
        assert all(lo == hi for lo, hi in (base_bounds(g, 2) for g in graphs))
        expected = [plain_alpha(g, 2) for g in graphs]
        forbid_builds(monkeypatch)
        assert [storage_capacity_alpha(g, 2) for g in graphs] == expected == [8, 2, 1, 1]

    def test_caps_before_allocation(self, monkeypatch):
        forbid_builds(monkeypatch)
        with pytest.raises(CapExceeded) as err:
            storage_capacity_alpha(path(13), 2)
        exc = err.value
        assert (exc.what, exc.needed, exc.cap) == ("independence solver vertex count", 8192, 4096)
        with pytest.raises(CapExceeded) as err:
            storage_capacity_alpha(path(13), 2, Caps(alpha=4))
        exc = err.value
        assert (exc.what, exc.needed, exc.cap) == ("independence solver vertex count", 8192, 4)
        with pytest.raises(ValueError):
            storage_capacity_alpha(path(3), 1, Caps(alpha=0))

    def test_closed_sandwich_takes_at_most_two_clique_searches(self, catalog5, monkeypatch):
        closed = [(g, alpha) for g, alpha, *_ in catalog5 if len(set(base_bounds(g, 2))) == 1]
        assert len(closed) > 900
        calls = []
        grow = crownkernel.exact._grow_clique

        def counted(*args):
            calls.append(args)
            return grow(*args)

        monkeypatch.setattr(crownkernel.exact, "_grow_clique", counted)
        for g, alpha in closed:
            del calls[:]
            assert storage_capacity_alpha(g, 2) == alpha
            assert len(calls) <= 2

    def test_base_graph_ignores_the_chi_cap(self):
        assert storage_capacity_alpha(complete(4), 2, Caps(chi=1)) == 8
        assert storage_capacity_alpha(cycle(5), 2, Caps(chi=1)) == 5


def plain_ind(g, q, alpha=None):
    """(Ind_q(G), colors asked of is_colorable on the confusion graph), from
    chi >= max(omega, ceil(q**n / alpha)) on the built confusion graph, both
    by the plain branch and bound over all of it, then the colorability
    search up to the clique-cover number."""
    if g.n == 0:
        return 0, []
    conf = build_confusion_graph(g, q).graph
    if alpha is None:
        alpha = independence_number(conf)
    lower = max(max_clique(conf), math.ceil(conf.n / alpha))
    ell = 0
    while q**ell < lower:
        ell += 1
    cover_number = chromatic_number(g.complement())
    asked = []
    while ell < cover_number:
        if q**ell >= conf.n:
            return ell, asked
        asked.append(q**ell)
        if is_colorable(conf, q**ell):
            return ell, asked
        ell += 1
    return cover_number, asked


def count_colorability(monkeypatch):
    """Records (vertex count, k) of each DSATUR search, the k-colorability
    question index_coding_length asks of its confusion graph."""
    calls = []
    search = crownkernel.exact._dsatur

    def counted(graph, k, *args, **kwargs):
        calls.append((graph.n, k))
        return search(graph, k, *args, **kwargs)

    monkeypatch.setattr(crownkernel.exact, "_dsatur", counted)
    return calls


class TestIndexCodingLength:
    def check(self, monkeypatch, cases, q):
        """Ind_q, one confusion-graph build at most, and, on graphs without
        isolated vertices (which are dropped first), the same colorability
        questions as the plain bounds ask: the lower bound is the same."""
        builds = count_builds(monkeypatch)
        colorability = count_colorability(monkeypatch)
        for g, (ind, asked) in cases:
            del builds[:], colorability[:]
            assert index_coding_length(g, q) == ind
            assert len(builds) <= 1
            if all(g.adj):
                assert [k for n, k in colorability if n == q**g.n] == asked

    def test_matches_plain_bounds_on_all_5_vertex_graphs(self, catalog5, monkeypatch):
        cases = [(g, plain_ind(g, 2, alpha)) for g, alpha, _, _, _ in catalog5]
        self.check(monkeypatch, cases, 2)

    def test_matches_plain_bounds_on_all_4_vertex_graphs_q3(self, monkeypatch):
        # Ind_q is the same on isomorphic graphs, and the plain bounds take
        # over 5 s on some labelings (a single edge other than {2, 3}), so the
        # reference runs on each isomorphism class's last labeling.
        graphs = list(all_labeled_graphs(4))
        last = {canonical(g): g for g in graphs}
        reference = {key: plain_ind(g, 3) for key, g in last.items()}
        self.check(monkeypatch, [(g, reference[canonical(g)]) for g in graphs], 3)

    def test_alpha_gap_graphs(self, monkeypatch):
        graphs = [cycle(5), cycle(7)]
        assert [lo != hi for lo, hi in (base_bounds(g, 2) for g in graphs)] == [True, True]
        cases = [(g, plain_ind(g, 2)) for g in graphs]
        assert [ind for _, (ind, _) in cases] == [3, 4]
        self.check(monkeypatch, cases, 2)

    def test_caps_before_allocation(self, monkeypatch):
        forbid_builds(monkeypatch)
        with pytest.raises(CapExceeded) as err:
            index_coding_length(path(13), 2)
        exc = err.value
        assert (exc.what, exc.needed, exc.cap) == ("index coding solver confusion size", 8192, 512)
        with pytest.raises(CapExceeded) as err:
            index_coding_length(path(13), 2, Caps(chi=4))
        exc = err.value
        assert (exc.what, exc.needed, exc.cap) == ("index coding solver confusion size", 8192, 4)
        with pytest.raises(ValueError):
            index_coding_length(path(3), 1, Caps(chi=0))

    def test_ignores_the_alpha_cap(self):
        assert index_coding_length(cycle(5), 2, Caps(alpha=1)) == 3

    def test_colorability_loop_alone_pins_ind(self, catalog5, monkeypatch):
        # alpha = q**n is a valid upper bound on alpha(Conf_q(G)), so the
        # counting bound drops to 1 and the DSATUR loop over the confusion
        # graph must find Ind_q itself.  This catches a loop that always
        # answers colorable; one that never does would pass, since no graph
        # within the default caps is known with Ind_q < cc(G).
        cases = [(g, 2, ind) for g, _, _, ind, _ in catalog5]
        cases += [(g, 3, index_coding_length(g, 3)) for g in all_labeled_graphs(4)]

        confs = []
        searched = []
        search = crownkernel.exact._dsatur

        def weak(g, q, caps, conf):
            confs.append(conf)
            return crownkernel.exact._chi(g.complement())[0], q**g.n

        def counted(graph, k, clique):
            searched.append(any(graph is conf for conf in confs))
            return search(graph, k, clique)

        monkeypatch.setattr(crownkernel.exact, "_cover_and_alpha", weak)
        monkeypatch.setattr(crownkernel.exact, "_dsatur", counted)
        for g, q, ind in cases:
            del confs[:]
            assert index_coding_length(g, q) == ind
        assert any(searched)

    def test_one_full_clique_search_on_the_base_graph_only(self, catalog5, monkeypatch):
        cases = [(g, ind) for g, _, _, ind, _ in catalog5] + [(cycle(5), 3), (cycle(7), 4)]

        def refuse(*args, **kwargs):
            raise AssertionError("is_colorable called")

        searched = []
        full = crownkernel.exact.max_clique_set

        def counted(graph):
            searched.append(graph.n)
            return full(graph)

        monkeypatch.setattr(crownkernel.exact, "is_colorable", refuse)
        monkeypatch.setattr(crownkernel.exact, "max_clique_set", counted)
        for g, ind in cases:
            del searched[:]
            assert index_coding_length(g, 2) == ind
            assert searched == [sum(map(bool, g.adj))]  # the complement of G minus I


class TestGF:
    def test_is_prime(self):
        assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert not is_prime(1)

    def test_rank_examples(self):
        assert gf_rank(GFMatrix(3, ((1, 2), (2, 1)))) == 1
        assert gf_rank(GFMatrix(2, ((1, 0), (0, 1)))) == 2
        assert gf_rank(GFMatrix(2, ((0, 0), (0, 0)))) == 0
        # rank drops over GF(2) but not over the rationals
        assert gf_rank(GFMatrix(2, ((1, 1), (1, 1)))) == 1

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            GFMatrix(4, ((1,),))  # modulus not prime
        with pytest.raises(ValueError):
            GFMatrix(2, ((1, 0), (1,)))  # ragged
        with pytest.raises(ValueError):
            GFMatrix(2, ((2, 0), (0, 1)))  # entry out of field

    def test_matrix_represents(self):
        assert matrix_represents(GFMatrix(2, ((1, 0), (0, 1))), empty(2))
        assert matrix_represents(GFMatrix(2, ((1, 1), (1, 1))), complete(2))
        assert not matrix_represents(GFMatrix(2, ((0, 0), (0, 1))), empty(2))
        assert not matrix_represents(GFMatrix(2, ((1, 1), (1, 1))), empty(2))


class TestMinrank:
    def test_examples(self):
        assert minrank(complete(5), 2) == 1
        assert minrank(empty(4), 2) == 4
        assert minrank(Graph.from_edges(3, [(0, 1)]), 2) == 2
        assert minrank(cycle(5), 2) == 3
        assert minrank(star(6), 2) == 5
        assert minrank(Graph(0, ()), 2) == 0

    def test_bounds_random(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 5), 0.5)
            mr = minrank(g, 2)
            assert independence_number(g) <= mr <= len(greedy_clique_cover(g))

    def test_normalization_is_lossless(self):
        for g in all_labeled_graphs(3):
            assert minrank_pattern_bruteforce(g, 2) == minrank_full_bruteforce(g, 2)
            assert minrank(g, 2) == minrank_full_bruteforce(g, 2)
        for g in all_labeled_graphs(2):
            assert minrank_pattern_bruteforce(g, 3) == minrank_full_bruteforce(g, 3)
            assert minrank(g, 3) == minrank_full_bruteforce(g, 3)

    def test_gf3(self):
        assert minrank(complete(3), 3) == 1
        assert minrank(empty(3), 3) == 3

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            minrank(complete(2), 4)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            minrank(complete(6), 2, Caps(minrank=1000))

    def test_isolated_vertices_add_one_each(self, catalog5):
        # Dropping the 995 isolated vertices first leaves the search only C5.
        assert minrank(Graph.from_edges(1000, cycle(5).edges()), 2) == 998
        for g, *_, mr in catalog5[::101] + [(cycle(5), 3), (cycle(7), 4)]:
            for extra in (1, 3):
                assert minrank(Graph.from_edges(g.n + extra, g.edges()), 2) == mr + extra


class TestCliqueCoverConstructions:
    def test_index_code_decodes_everything(self):
        for q in (2, 3):
            for g in (path(4), complete(3), star(5), empty(3)):
                cover = greedy_clique_cover(g)
                code = clique_cover_index_code(g, q, cover)
                assert code.length == len(cover)
                for message in itertools.product(range(q), repeat=g.n):
                    codeword = code.encode(message)
                    for i in range(g.n):
                        side = {j: message[j] for j in g.neighbors(i)}
                        assert code.decode(i, codeword, side) == message[i]

    def test_minrank_matrix_represents_and_has_cover_rank(self):
        for p in (2, 3):
            for g in (path(4), complete(4), star(5), empty(3)):
                cover = greedy_clique_cover(g)
                mat = clique_cover_minrank_matrix(g, cover, p)
                assert matrix_represents(mat, g)
                assert gf_rank(mat) == len(cover)

    def test_rejects_invalid_cover(self):
        with pytest.raises(ValueError):
            clique_cover_index_code(path(3), 2, [frozenset({0, 2})])
        with pytest.raises(ValueError):
            clique_cover_minrank_matrix(path(3), [frozenset({0})], 2)


class TestOracles:
    def test_storage_examples(self):
        assert oracle_storage_code(complete(2), 2) == 2
        assert oracle_storage_code(complete(3), 2) == 4
        assert oracle_storage_code(Graph(1, (0,)), 2) == 1
        assert oracle_storage_code(Graph(1, (0,)), 3) == 1
        assert oracle_storage_code(Graph(0, ()), 2) == 1

    def test_storage_matches_alpha(self):
        for g in all_labeled_graphs(3):
            assert oracle_storage_code(g, 2) == storage_capacity_alpha(g, 2)

    def test_index_examples(self):
        assert oracle_index_code(complete(2)) == 1
        assert oracle_index_code(complete(3)) == 1
        assert oracle_index_code(empty(2)) == 2
        assert oracle_index_code(path(3)) == 2
        assert oracle_index_code(Graph(0, ())) == 0

    def test_index_matches_solver(self):
        for g in all_labeled_graphs(3):
            assert oracle_index_code(g) == index_coding_length(g, 2)

    def test_oracle_caps(self):
        with pytest.raises(CapExceeded):
            oracle_storage_code(complete(4), 2)
        with pytest.raises(CapExceeded):
            oracle_index_code(complete(4))
        with pytest.raises(CapExceeded):
            oracle_index_code(complete(2), q=3)
