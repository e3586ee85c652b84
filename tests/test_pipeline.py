import dataclasses
import random
import time
import types

import pytest

import crownkernel
import crownkernel.pipeline
from crownkernel import (
    CAPACITY,
    INDEX_CODING,
    MINRANK,
    compute_values,
    decide,
    decide_dual_index_coding,
    decide_dual_minrank,
    decide_storage_capacity,
    lift_value,
)
from crownkernel.exact import (
    build_confusion_graph,
    independence_number,
    index_coding_length,
    minrank,
)
from crownkernel.generators import gen_crown_planted

from conftest import all_labeled_graphs, complete, empty, path, random_graph, star


def untimed(report):
    return dataclasses.replace(report, timings={})


def test_all_names_no_module():
    # a submodule in __all__ would shadow names like ``graph`` on a star import
    assert not [
        name for name in crownkernel.__all__
        if isinstance(getattr(crownkernel, name), types.ModuleType)
    ]
    assert "decide" in crownkernel.__all__


class TestDecide:
    def test_star6_examples(self):
        g = star(6)
        assert decide_storage_capacity(g, 1).answer
        assert not decide_storage_capacity(g, 2).answer
        assert decide_dual_index_coding(g, 1).answer  # Ind = 5 <= 6 - 1
        assert not decide_dual_index_coding(g, 2).answer
        assert decide_dual_minrank(g, 1).answer
        assert not decide_dual_minrank(g, 2).answer

    def test_k4_examples(self):
        g = complete(4)
        assert decide_storage_capacity(g, 3).answer  # alpha = 8 = 2**3
        assert not decide_storage_capacity(g, 4).answer
        assert decide_dual_index_coding(g, 3).answer  # Ind = 1 <= 4 - 3
        assert decide_dual_minrank(g, 3).answer
        assert not decide_dual_minrank(g, 4).answer

    def test_k_zero_always_yes(self):
        for g in (empty(3), complete(3)):
            assert decide_storage_capacity(g, 0).answer
            assert decide_dual_index_coding(g, 0).answer
            assert decide_dual_minrank(g, 0).answer

    def test_report_bookkeeping(self):
        report = decide_storage_capacity(star(6), 2)
        assert report.kernel_n == report.trace.kernel_n
        assert report.kernel_k == report.trace.kernel_k
        assert "kernelize_s" in report.timings and "solve_s" in report.timings

    def test_minrank_trace_carries_no_alphabet_size(self):
        # K4 with k = 3 is its own kernel; p is a field modulus, so the trace
        # records no q, and a capacity lift through it is refused.
        for p in (2, 3):
            trace = decide_dual_minrank(complete(4), 3, p).trace
            assert trace.q is None and (trace.kernel_n, trace.kernel_k) == (4, 3)
            assert lift_value(trace, 2, MINRANK) == 2
            with pytest.raises(ValueError, match="capacity lifting needs the alphabet size q"):
                lift_value(trace, 1, CAPACITY)
        assert decide_storage_capacity(complete(4), 3, 3).trace.q == 3

    def test_short_circuit_sets_yes(self):
        g = complete(40)  # matching of size 13 >= any small k
        report = decide_storage_capacity(g, 3)
        assert report.answer and report.trace.short_circuit
        assert report.confusion_size is None

    def test_monotone_in_k(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 7), 0.3)
            for decide in (
                decide_storage_capacity,
                decide_dual_index_coding,
                decide_dual_minrank,
            ):
                answers = [decide(g, k).answer for k in range(g.n + 2)]
                # once NO, stays NO
                assert all(a or not b for a, b in zip(answers, answers[1:]))

    def test_parameter_checks(self):
        g = star(3)
        with pytest.raises(ValueError, match="field modulus 4 is not prime"):
            decide_dual_minrank(g, 1, p=4)
        with pytest.raises(ValueError, match="alphabet size q must be >= 2"):
            decide(INDEX_CODING, g, 1, q=1)
        with pytest.raises(ValueError, match="unknown problem"):
            decide("chromatic", g, 1)

    def test_pipeline_matches_direct_n4(self):
        for g in all_labeled_graphs(4):
            alpha = independence_number(build_confusion_graph(g, 2).graph)
            ind = index_coding_length(g, 2)
            mr = minrank(g, 2)
            for k in range(g.n + 1):
                sc = decide_storage_capacity(g, k)
                dic = decide_dual_index_coding(g, k)
                dmr = decide_dual_minrank(g, k)
                assert sc.answer == (alpha >= 2**k)
                assert dic.answer == (ind <= g.n - k)
                assert dmr.answer == (mr <= g.n - k)
                for problem, report in ((CAPACITY, sc), (INDEX_CODING, dic), (MINRANK, dmr)):
                    assert untimed(decide(problem, g, k)) == untimed(report)


class TestTrivialAnswers:
    """k' = 0 is YES and k' > n' is NO, on any kernel and with no solver:
    Capa_q(G') <= n' and Ind_q(G'), minrank(G') >= 0."""

    @pytest.fixture
    def no_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solver called")

        for name in ("storage_capacity_alpha", "index_coding_length", "minrank"):
            monkeypatch.setattr(crownkernel.pipeline, name, refuse)

    def test_k_far_beyond_the_kernel_is_no_at_once(self):
        start = time.process_time()
        assert not decide(CAPACITY, star(6), 10**9, q=3).answer
        assert time.process_time() - start < 1

    def test_k_beyond_the_kernel_is_no_within_the_caps(self):
        report = decide(INDEX_CODING, path(20), 40)
        assert not report.answer and (report.kernel_n, report.kernel_k) == (20, 40)

    @pytest.mark.parametrize("problem", [CAPACITY, INDEX_CODING, MINRANK])
    def test_no_solver_runs(self, problem, no_solver):
        # One crown step (|H| = 2) takes k from 5 to 3, and the rest has a
        # matching of size 3.
        hub, _ = gen_crown_planted(5, 3, 5, random.Random(2))
        report = decide(problem, hub, 5)
        assert report.answer and report.trace.short_circuit
        assert [step.kind for step in report.trace.steps] == ["crown"]
        assert report.confusion_size is None
        for k in (0, -1):
            report = decide(problem, hub, k)
            assert report.answer and not report.trace.short_circuit
            assert (report.kernel_n, report.kernel_k, report.confusion_size) == (0, 0, None)
        # k' = 1 on the empty graph the star's crown step leaves, and
        # k' = n + 1 on the hub, which no crown step can shrink.
        for g, k in ((star(6), 2), (hub, hub.n + 1)):
            report = decide(problem, g, k)
            assert not report.answer and report.kernel_k > report.kernel_n
            assert report.confusion_size is None
        with pytest.raises(AssertionError, match="solver called"):
            decide(problem, complete(3), 2)


class TestComputeValues:
    def test_star6(self):
        report = compute_values(star(6))
        assert (report.alpha, report.index_coding_length, report.minrank) == (2, 5, 5)

    def test_k4(self):
        report = compute_values(complete(4))
        assert (report.alpha, report.index_coding_length, report.minrank) == (8, 1, 1)

    def test_empty4(self):
        report = compute_values(empty(4))
        assert (report.alpha, report.index_coding_length, report.minrank) == (1, 4, 4)
        assert report.residual_n == 0  # all vertices removed as isolated

    def test_matches_direct_small(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(0, 6), rng.choice([0.15, 0.5]))
            report = compute_values(g)
            assert report.alpha == independence_number(
                build_confusion_graph(g, 2).graph
            )
            assert report.index_coding_length == index_coding_length(g, 2)
            assert report.minrank == minrank(g, 2)

    def test_duality_invariants(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(0, 7), 0.3)
            r = compute_values(g)
            assert r.alpha * 2**r.index_coding_length >= 2**g.n
            assert r.index_coding_length <= r.minrank <= g.n

    def test_value_trace_is_liftable(self):
        report = compute_values(star(6))
        assert report.trace.kernel_k == 0 and not report.trace.short_circuit
