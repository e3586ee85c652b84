"""End-to-end acceptance checks.

Each test prints a single pass/fail line (run with -s to see them); all
numeric claims are exact integer comparisons.
"""

import contextlib
import itertools
import random
import time

from crownkernel import Graph, kernelize
from crownkernel.exact import (
    build_confusion_graph,
    chromatic_number,
    clique_cover_index_code,
    clique_cover_minrank_matrix,
    gf_rank,
    independence_number,
    index_coding_length,
    matrix_represents,
    minrank,
    storage_capacity_alpha,
)
from crownkernel.generators import gen_crown_planted, gen_gnp, gen_star
from crownkernel.graph import greedy_clique_cover, induced_subgraph
from crownkernel.pipeline import (
    decide_dual_index_coding,
    decide_dual_minrank,
    decide_storage_capacity,
)

from conftest import all_labeled_graphs
from oracles import (
    minrank_full_bruteforce,
    minrank_pattern_bruteforce,
    oracle_index_code,
    oracle_storage_code,
)


@contextlib.contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {title}")
        raise
    print(f"criterion {num}: PASS - {title}")


def test_criterion_01_kernel_size_guarantee():
    with criterion(1, "kernel size bound over 1000 instances, k in 1..10"):
        rng = random.Random(2024)
        instances = []
        for _ in range(800):
            n = rng.randint(1, 60)
            p = rng.choice([0.05, 0.1, 0.3])
            instances.append(gen_gnp(n, p, rng))
        for _ in range(100):
            instances.append(gen_star(rng.randint(1, 60)))
        for _ in range(100):
            c = rng.randint(1, 10)
            h = rng.randint(1, c)
            r = rng.randint(0, 20)
            instances.append(gen_crown_planted(c, h, r, rng)[0])
        assert len(instances) == 1000
        for g in instances:
            for k in range(1, 11):
                kernel, kk, trace = kernelize(g, k)
                assert kk <= k
                assert kernel.n == trace.kernel_n <= max(3 * kk - 3, 0)


def test_criterion_02_decision_equivalence_sc(catalog5):
    with criterion(2, "SC_2 pipeline vs direct on all labeled 5-vertex graphs"):
        for g, alpha, _, _, _ in catalog5:
            for k in range(6):
                assert decide_storage_capacity(g, k).answer == (alpha >= 2**k)


def test_criterion_03_decision_equivalence_dic_dmr(catalog5):
    with criterion(3, "DIC_2 and DMR/GF(2) pipeline vs direct, same instances"):
        for g, _, _, ind, mr in catalog5:
            for k in range(6):
                assert decide_dual_index_coding(g, k).answer == (ind <= 5 - k)
                assert decide_dual_minrank(g, k).answer == (mr <= 5 - k)


def test_criterion_04_crown_rule_equalities():
    with criterion(4, "crown-rule equalities on 100 planted instances, n <= 7"):
        rng = random.Random(7)
        count = 0
        while count < 100:
            c = rng.randint(1, 5)
            h = rng.randint(1, min(c, 7 - c, 3))
            r = rng.randint(0, 7 - c - h)
            g, dec = gen_crown_planted(c, h, r, rng)
            assert g.n <= 7
            body, _ = induced_subgraph(g, dec.body)
            assert storage_capacity_alpha(g, 2) == storage_capacity_alpha(
                body, 2
            ) * 2 ** len(dec.head)
            assert index_coding_length(g, 2) == index_coding_length(body, 2) + len(
                dec.crown
            )
            assert minrank(g, 2) == minrank(body, 2) + len(dec.crown)
            count += 1


def test_criterion_05_isolated_rule_equalities():
    with criterion(5, "isolated-rule equalities on all labeled graphs, n <= 5"):
        for base_n in range(5):
            for base in all_labeled_graphs(base_n):
                g = Graph(base.n + 1, base.adj + (0,))  # append isolated vertex
                conf_g = build_confusion_graph(g, 2).graph
                conf_base = build_confusion_graph(base, 2).graph
                assert independence_number(conf_g) == independence_number(conf_base)
                assert chromatic_number(conf_g) == 2 * chromatic_number(conf_base)
                assert minrank(g, 2) == minrank(base, 2) + 1


def test_criterion_06_definition_oracles():
    with criterion(6, "definition-level oracles match the solvers"):
        for n in range(4):  # q = 2, q**n <= 8
            for g in all_labeled_graphs(n):
                assert oracle_storage_code(g, 2) == storage_capacity_alpha(g, 2)
                assert oracle_index_code(g, 2) == index_coding_length(g, 2)
        single = Graph(1, (0,))
        for q in range(3, 9):  # q**1 <= 8
            assert oracle_storage_code(single, q) == storage_capacity_alpha(single, q)
            assert oracle_storage_code(Graph(0, ()), q) == 1


def test_criterion_07_construction_lemmas():
    with criterion(7, "clique-cover index code and minrank matrix constructions"):
        for q, max_n in ((2, 5), (3, 4)):
            for n in range(max_n + 1):
                for g in all_labeled_graphs(n):
                    cover = greedy_clique_cover(g)
                    code = clique_cover_index_code(g, q, cover)
                    for message in itertools.product(range(q), repeat=n):
                        codeword = code.encode(message)
                        for i in range(n):
                            side = {j: message[j] for j in g.neighbors(i)}
                            assert code.decode(i, codeword, side) == message[i]
                    mat = clique_cover_minrank_matrix(g, cover, q)
                    assert matrix_represents(mat, g)
                    assert gf_rank(mat) == len(cover)


def test_criterion_08_minrank_normalization():
    with criterion(8, "minrank pattern enumeration equals full brute force"):
        for n in range(4):
            for g in all_labeled_graphs(n):
                assert minrank_pattern_bruteforce(g, 2) == minrank_full_bruteforce(
                    g, 2
                )
        for n in range(3):
            for g in all_labeled_graphs(n):
                assert minrank_pattern_bruteforce(g, 3) == minrank_full_bruteforce(
                    g, 3
                )


def test_criterion_09_duality_and_union(catalog5):
    with criterion(9, "duality, counting bound, and union lemma"):
        for g, alpha, chi, ind, _ in catalog5:
            assert 2**ind * alpha >= 2**g.n
            assert alpha * chi >= 2**g.n
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(0, 6)
            edges = [
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4
            ]
            g = Graph.from_edges(n, edges)
            side1 = {v for v in range(n) if rng.random() < 0.5}
            side2 = set(range(n)) - side1
            g1, _ = induced_subgraph(g, side1)
            g2, _ = induced_subgraph(g, side2)
            assert storage_capacity_alpha(g, 2) >= storage_capacity_alpha(
                g1, 2
            ) * storage_capacity_alpha(g2, 2)
            assert index_coding_length(g, 2) <= index_coding_length(
                g1, 2
            ) + index_coding_length(g2, 2)
            assert minrank(g, 2) <= minrank(g1, 2) + minrank(g2, 2)


def test_criterion_10_desk_scale_end_to_end():
    with criterion(10, "G(50, 0.08), k=3 decided in <10s with kernel <= 6"):
        g = gen_gnp(50, 0.08, random.Random(4242))
        start = time.perf_counter()
        report = decide_storage_capacity(g, 3)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert report.kernel_n <= 6
        if report.confusion_size is not None:
            assert report.confusion_size <= 64
