import dataclasses
import random

import pytest

from crownkernel import (
    CAPACITY,
    CrownDecomposition,
    Graph,
    INDEX_CODING,
    K0,
    MINRANK,
    check_crown,
    induced_subgraph,
    isolated_vertices,
    kernelize,
    lift_value,
    replay_trace,
    verify_trace,
)
from crownkernel.exact import (
    build_confusion_graph,
    independence_number,
    index_coding_length,
    minrank,
    storage_capacity_alpha,
)
from crownkernel.generators import gen_crown_planted, gen_gnp
from crownkernel.kernel import CrownReduction, IsolatedRemoval, ReductionTrace

from conftest import all_labeled_graphs, complete, empty, path, random_graph, star


def isolated_rule(g):
    """Remove all isolated vertices; the reduced graph and the set removed."""
    removed = isolated_vertices(g)
    return induced_subgraph(g, set(range(g.n)) - removed)[0], removed


def crown_rule(g, dec, k):
    """Replace (G, k) by (G[R], k - |H|) for a valid crown decomposition."""
    assert check_crown(g, dec) is None
    return induced_subgraph(g, dec.body)[0], k - len(dec.head)


class TestIsolatedRule:
    def test_edgeless(self):
        g2, removed = isolated_rule(empty(4))
        assert g2 == K0 and removed == {0, 1, 2, 3}

    def test_k2_plus_isolated(self):
        g2, removed = isolated_rule(Graph.from_edges(3, [(0, 1)]))
        assert g2.n == 2 and g2.m == 1 and removed == {2}

    def test_no_isolated(self):
        g = complete(5)
        g2, removed = isolated_rule(g)
        assert g2 == g and removed == set()


class TestCrownRule:
    def test_small_star_empty_body(self):
        g = star(3)
        dec = CrownDecomposition(
            crown=frozenset({1, 2}), head=frozenset({0}), body=frozenset(),
            witness=((0, 1),),
        )
        g2, k2 = crown_rule(g, dec, 2)
        assert g2 == K0 and k2 == 1

    def test_star5_with_body(self):
        g = star(5)
        dec = CrownDecomposition(
            crown=frozenset({2, 3, 4}), head=frozenset({0}), body=frozenset({1}),
            witness=((0, 2),),
        )
        g2, k2 = crown_rule(g, dec, 2)
        assert g2.n == 1 and g2.m == 0 and k2 == 1

    def test_k_equals_head_size(self):
        g = star(3)
        dec = CrownDecomposition(
            crown=frozenset({1, 2}), head=frozenset({0}), body=frozenset(),
            witness=((0, 1),),
        )
        assert crown_rule(g, dec, 1)[1] == 0

    def test_invalid_crown_rejected(self):
        g = star(4)
        dec = CrownDecomposition(
            crown=frozenset({0}), head=frozenset({1}), body=frozenset({2, 3}),
            witness=((1, 0),),
        )
        # the "crown" is the star's center, adjacent to the body
        assert check_crown(g, dec) == "crown-body-edge"


class TestKernelize:
    def test_k_zero_returns_sentinel(self):
        kernel, kk, trace = kernelize(complete(5), 0)
        assert kernel == K0 and kk == 0
        assert trace.steps == () and not trace.short_circuit

    def test_negative_k_same_as_zero(self):
        kernel, kk, trace = kernelize(complete(5), -3)
        assert kernel == K0 and kk == 0 and trace.steps == ()

    def test_star6_trace(self):
        kernel, kk, trace = kernelize(star(6), 2)
        assert kernel == K0 and kk == 1
        kinds = [step.kind for step in trace.steps]
        assert kinds == ["crown", "isolated"]
        crown_step = trace.steps[0]
        assert len(crown_step.head) == 1 and len(crown_step.crown) == 4
        assert trace.capacity_offset == 1 and trace.dual_offset == 5

    def test_k2_matching_short_circuit(self):
        kernel, kk, trace = kernelize(Graph.from_edges(2, [(0, 1)]), 1)
        assert kernel == K0 and kk == 0 and trace.short_circuit

    def test_kernel_bound_random(self):
        rng = random.Random(4)
        for _ in range(150):
            g = random_graph(rng, rng.randint(0, 30), rng.choice([0.05, 0.15, 0.4]))
            k = rng.randint(0, 8)
            kernel, kk, trace = kernelize(g, k)
            assert trace.kernel_n == kernel.n
            assert trace.kernel_k == kk <= max(k, 0)
            assert kernel.n <= max(3 * kk - 3, 0)
            if trace.short_circuit:
                assert kernel.n == 0 and kk == 0

    def test_replay_reproduces_kernel(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 25), rng.choice([0.1, 0.3]))
            k = rng.randint(1, 6)
            kernel, _, trace = kernelize(g, k)
            if not trace.short_circuit:
                assert replay_trace(g, trace) == kernel
            assert verify_trace(g, trace) is None

    def test_decision_preservation_small(self):
        # kernel equivalence against direct confusion-graph solving, n <= 4
        for g in all_labeled_graphs(4):
            alpha = independence_number(build_confusion_graph(g, 2).graph)
            ind = index_coding_length(g, 2)
            mr = minrank(g, 2)
            for k in range(5):
                kernel, kk, trace = kernelize(g, k)
                sc_direct = alpha >= 2**k
                if trace.short_circuit:
                    assert sc_direct
                    assert ind <= g.n - k
                    assert mr <= g.n - k
                else:
                    alpha_kernel = independence_number(
                        build_confusion_graph(kernel, 2).graph
                    )
                    assert sc_direct == (alpha_kernel >= 2**kk)
                    assert (ind <= g.n - k) == (
                        index_coding_length(kernel, 2) <= kernel.n - kk
                    )
                    assert (mr <= g.n - k) == (minrank(kernel, 2) <= kernel.n - kk)


class TestLiftValue:
    def _star6_value_trace(self):
        residual, _, trace = kernelize(star(6), None, 2)
        return residual, trace

    def test_star6_dual_lift(self):
        residual, trace = self._star6_value_trace()
        ind_kernel = index_coding_length(residual, 2)
        assert lift_value(trace, ind_kernel, INDEX_CODING) == 5
        mr_kernel = minrank(residual, 2)
        assert lift_value(trace, mr_kernel, MINRANK) == 5

    def test_star6_capacity_lift(self):
        residual, trace = self._star6_value_trace()
        alpha_kernel = storage_capacity_alpha(residual, 2)
        assert lift_value(trace, alpha_kernel, CAPACITY) == 2  # Capa = 1 = log2(2)

    def test_empty_trace_is_identity(self):
        _, _, trace = kernelize(complete(4), 3, q=2)
        if not trace.short_circuit:
            assert lift_value(trace, 7, INDEX_CODING) == 7

    def test_sentinel_kernel_refused(self):
        # k = 0 yields the sentinel K0, not the residual; the lift would
        # give alpha 1 and Ind 0 where the values are 8 and 2
        g = gen_gnp(5, 0.5, random.Random(3))
        kernel, _, trace = kernelize(g, 0, 2)
        assert not trace.short_circuit and not trace.steps and kernel.n == trace.kernel_n == 0
        assert (storage_capacity_alpha(g, 2), index_coding_length(g, 2)) == (8, 2)
        for problem in (CAPACITY, INDEX_CODING, MINRANK):
            with pytest.raises(ValueError, match="sentinel"):
                lift_value(trace, 1, problem)

    def test_short_circuit_refused(self):
        _, _, trace = kernelize(Graph.from_edges(2, [(0, 1)]), 1, q=2)
        assert trace.short_circuit
        with pytest.raises(ValueError):
            lift_value(trace, 1, CAPACITY)


class TestRuleEqualities:
    def test_isolated_rule_lemma_small(self):
        # per removed vertex: alpha unchanged, chi doubles, minrank increments
        from crownkernel.exact import chromatic_number

        for base in all_labeled_graphs(3):
            g = Graph(base.n + 1, base.adj + (0,))
            g2, removed = isolated_rule(g)
            assert removed  # vertex 3 is always isolated here
            conf_g = build_confusion_graph(g, 2).graph
            conf_g2 = build_confusion_graph(g2, 2).graph
            assert independence_number(conf_g) == independence_number(conf_g2)
            assert chromatic_number(conf_g) == 2 ** len(removed) * chromatic_number(
                conf_g2
            )
            assert minrank(g, 2) == minrank(g2, 2) + len(removed)

    def test_crown_rule_lemma_planted(self):
        rng = random.Random(11)
        for _ in range(15):
            c, h = rng.randint(1, 3), 1
            r = rng.randint(0, 6 - c - h)
            g, dec = gen_crown_planted(c, max(h, 1), r, rng)
            body_graph, k2 = crown_rule(g, dec, 3)
            assert k2 == 3 - len(dec.head)
            assert storage_capacity_alpha(g, 2) == storage_capacity_alpha(
                body_graph, 2
            ) * 2 ** len(dec.head)
            assert index_coding_length(g, 2) == index_coding_length(body_graph, 2) + c
            assert minrank(g, 2) == minrank(body_graph, 2) + c


def test_verify_trace_detects_tampering():
    # K_{1,5}: the crown step ({2, 3, 4, 5}, {0}) leaves leaf 1 isolated.
    g = star(6)
    _, _, trace = kernelize(g, 2)
    crown_step, isolated = trace.steps
    assert crown_step.witness == ((0, 2),) and isolated.vertices == (1,)
    # The head matched to the body vertex 1 instead of a crown vertex.
    forged = dataclasses.replace(crown_step, witness=((0, 1),))
    bad = dataclasses.replace(trace, steps=(forged, isolated))
    assert verify_trace(g, bad) == "crown-step-witness-not-a-matching-of-head-into-crown"
    with pytest.raises(ValueError, match="crown-step-witness-not-a-matching-of-head-into-crown"):
        replay_trace(g, bad)
    # Leaf 1 is not isolated before the crown step removes the centre.
    swapped = dataclasses.replace(trace, steps=(isolated, crown_step))
    assert verify_trace(g, swapped) == "isolated-step-vertex-not-isolated"


def test_kernel_size_and_parameter_are_derived_from_the_steps():
    # Only isolated vertices go, so the kernel keeps 17 vertices and k' = 7;
    # another input k gives another k', with the same kernel.
    g, _ = gen_crown_planted(12, 3, 5, random.Random(1))
    kernel, kk, trace = kernelize(g, 7)
    assert (kernel.n, kk) == (17, 7) and verify_trace(g, trace) is None
    assert (trace.kernel_n, trace.kernel_k, trace.dual_offset) == (17, 7, 3)
    other = dataclasses.replace(trace, input_k=9)
    assert (other.kernel_n, other.kernel_k) == (17, 9) and verify_trace(g, other) is None


@pytest.mark.parametrize("forged", [1, 6, 8, 99])
def test_verify_trace_rejects_a_forged_kernel_parameter(forged):
    # k' is derived from the input k, and a YES through a matching holds
    # only for the k' it has edges for: P12's 2-matching certifies k = 2,
    # and no other k, although P12 has a matching of 6 edges.
    g = path(12)
    kernel, kk, trace = kernelize(g, 2, 2)
    assert (kernel, kk) == (K0, 0) and trace.matching == ((0, 1), (2, 3))
    assert trace.decides_yes and verify_trace(g, trace) is None
    bad = dataclasses.replace(trace, input_k=forged)
    assert verify_trace(g, bad) == "matching-size-not-k"


def test_verify_trace_holds_value_mode_to_kernel_parameter_zero():
    # Value mode records no k, so k' is 0, and it may not end on a matching.
    g = path(7)
    _, kk, trace = kernelize(g, None)
    assert kk == trace.kernel_k == 0 and trace.input_k is None and trace.matching is None
    assert verify_trace(g, trace) is None
    forged = dataclasses.replace(trace, matching=((0, 1), (2, 3), (4, 5)))
    assert verify_trace(g, forged) == "matching-in-value-mode"


@pytest.mark.parametrize("q", [1, 0, -3])
def test_alphabet_size_below_2_is_refused(q):
    g = star(6)
    for k in (None, 2):
        with pytest.raises(ValueError, match="alphabet size q must be >= 2"):
            kernelize(g, k, q=q)
    _, _, trace = kernelize(g, None, q=2)
    bad = dataclasses.replace(trace, q=q)
    assert verify_trace(g, bad) == "input-q-below-2"
    for problem in (CAPACITY, INDEX_CODING, MINRANK):
        with pytest.raises(ValueError, match="alphabet size q must be >= 2"):
            lift_value(bad, 1, problem)


class TestVerifyTraceMalformedSteps:
    def _trace(self, g, steps):
        return ReductionTrace(input_n=g.n, input_m=g.m, input_k=1, q=2, steps=tuple(steps))

    def test_overlapping_crown_step_is_not_a_partition(self):
        g = Graph.from_edges(2, [(0, 1)])
        step = CrownReduction(crown=(0,), head=(0, 1), witness=((1, 0),))
        assert verify_trace(g, self._trace(g, [step])) == "crown-step-not-a-partition"

    @pytest.mark.parametrize("bad", [-1, 2, 10**30, "0"])
    def test_unknown_vertex_ids(self, bad):
        g = Graph.from_edges(2, [(0, 1)])
        crown = CrownReduction(crown=(bad,), head=(0,), witness=((0, bad),))
        assert verify_trace(g, self._trace(g, [crown])) == "crown-step-unknown-vertex"
        isolated = IsolatedRemoval((bad,))
        assert verify_trace(g, self._trace(g, [isolated])) == "isolated-step-unknown-vertex"
        with pytest.raises(ValueError):
            replay_trace(g, self._trace(g, [isolated]))

    def test_isolated_step_with_a_live_neighbor(self):
        # Path 0-1-2: vertex 2 has the live neighbor 1.
        g = path(3)
        steps = [IsolatedRemoval((2,))]
        assert verify_trace(g, self._trace(g, steps)) == "isolated-step-vertex-not-isolated"

    def test_isolated_step_after_its_neighbors_are_gone(self):
        # Star 0-{1, 2} plus the edge 3-4: the crown step ({1, 2}, {0}) leaves
        # 1 and 2 removed, so none of 3, 4 is isolated yet.
        g = Graph.from_edges(5, [(0, 1), (0, 2), (3, 4)])
        crown = CrownReduction(crown=(1, 2), head=(0,), witness=((0, 1),))
        steps = [crown, IsolatedRemoval((3,))]
        assert verify_trace(g, self._trace(g, steps)) == "isolated-step-vertex-not-isolated"
        assert verify_trace(g, self._trace(g, [crown])) is None

    def test_crown_step_with_a_crown_body_edge(self):
        # Star 0-{1, 2, 3} plus the edge 3-4: crown vertex 3 touches body vertex 4.
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        step = CrownReduction(crown=(1, 2, 3), head=(0,), witness=((0, 1),))
        assert verify_trace(g, self._trace(g, [step])) == "crown-step-crown-body-edge"

    def test_crown_step_with_a_crown_crown_edge(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        step = CrownReduction(crown=(1, 2), head=(0,), witness=((0, 1),))
        assert verify_trace(g, self._trace(g, [step])) == "crown-step-crown-not-independent"

    @pytest.mark.parametrize("order", [(1, 2, 3, 4), (4, 3, 2, 1), (3, 1, 4, 2), (4, 1, 3, 2)])
    def test_crown_step_names_the_lowest_offender_in_any_order(self, order):
        # Star 0-{1, 2, 3, 4} plus the edges 2-5 and 3-4: crown vertex 2
        # touches body vertex 5, and crown vertices 3 and 4 touch each other.
        # The lowest offender, 2, names the reason whatever the list's order.
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 5), (3, 4)])
        step = CrownReduction(crown=order, head=(0,), witness=((0, 1),))
        assert verify_trace(g, self._trace(g, [step])) == "crown-step-crown-body-edge"

    def test_crown_step_whose_head_cannot_be_matched(self):
        # Heads 0 and 1 both see only crown vertex 2, so no witness matches
        # both into the crown.
        g = Graph.from_edges(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
        for witness, reason in [
            (((0, 2), (1, 2)), "witness-not-a-matching-of-head-into-crown"),
            (((0, 2), (1, 3)), "witness-not-a-matching-of-head-into-crown"),
            (((0, 2),), "witness-size"),
        ]:
            step = CrownReduction(crown=(2,), head=(0, 1), witness=witness)
            assert verify_trace(g, self._trace(g, [step])) == "crown-step-" + reason

    def test_removed_vertex_is_unknown_to_later_steps(self):
        g = empty(2)
        steps = [IsolatedRemoval((0, 1)), IsolatedRemoval((1,))]
        assert verify_trace(g, self._trace(g, steps)) == "isolated-step-unknown-vertex"

    def test_duplicate_isolated_vertex_cannot_inflate_the_dual_offset(self):
        g = empty(2)
        steps = [IsolatedRemoval((0, 0, 1))]
        assert verify_trace(g, self._trace(g, steps)) == "isolated-step-duplicate-vertex"

    def test_duplicate_crown_vertex_is_rejected(self):
        # K_{1,5} (centre 0) plus the edge 6-7; a crown vertex listed twice
        # would pass every count and then fail lift_value.
        g = Graph.from_edges(8, [(0, v) for v in range(1, 6)] + [(6, 7)])
        _, _, trace = kernelize(g, None, 2)
        step = trace.steps[0]
        assert step == CrownReduction(crown=(2, 3, 4, 5), head=(0,), witness=((0, 2),))
        forged = dataclasses.replace(step, crown=step.crown + (2,))
        bad = dataclasses.replace(trace, steps=(forged,) + trace.steps[1:])
        assert verify_trace(g, bad) == "crown-step-duplicate-vertex"


class TestVerifyTraceMatching:
    """The k'-matching that ends a decision is the evidence for its YES."""

    def test_matching_ends_must_be_live_after_the_steps(self):
        # K_{1,5} plus the edge 6-7: the crown step removes {0, 2, 3, 4, 5}
        # and leaves k' = 1, which the edge 6-7 meets.
        g = Graph.from_edges(8, [(0, v) for v in range(1, 6)] + [(6, 7)])
        crown = CrownReduction(crown=(2, 3, 4, 5), head=(0,), witness=((0, 2),))
        trace = ReductionTrace(g.n, g.m, 2, 2, (crown, IsolatedRemoval((1,))), ((6, 7),))
        assert trace.decides_yes and verify_trace(g, trace) is None
        moved = dataclasses.replace(trace, matching=((0, 1),))
        assert verify_trace(g, moved) == "matching-vertex-not-live"
        unknown = dataclasses.replace(trace, matching=((6, 8),))
        assert verify_trace(g, unknown) == "matching-vertex-not-live"

    @pytest.mark.parametrize("matching", [((0, 2), (3, 4)), ((1, 2), (2, 3)), ((0, 1), (0, 1))])
    def test_matching_must_be_a_matching_of_the_graph(self, matching):
        # P6: 0-2 is no edge, and the other two reuse a vertex.
        g = path(6)
        _, _, trace = kernelize(g, 2, 2)
        assert trace.matching == ((0, 1), (2, 3)) and verify_trace(g, trace) is None
        bad = dataclasses.replace(trace, matching=matching)
        assert verify_trace(g, bad) == "matching-invalid"

    def test_crown_steps_that_use_up_k_decide_yes(self):
        # K_{1,5} with k = 1: the crown step ({1, .., 5}, {0}) takes |H| = 1,
        # so k' = 0 with no matching, and the trace's kernel is the sentinel K0.
        g = star(6)
        crown = CrownReduction(crown=(1, 2, 3, 4, 5), head=(0,), witness=((0, 1),))
        trace = ReductionTrace(g.n, g.m, 1, 2, (crown,))
        assert verify_trace(g, trace) is None and trace.decides_yes
        assert (trace.kernel_n, trace.kernel_k, trace.capacity_offset) == (0, 0, 1)
        with pytest.raises(ValueError, match="sentinel"):
            lift_value(trace, 1, CAPACITY)


class TestLiveMaskReduction:
    def test_unreduced_kernel_is_the_input_graph(self):
        g = complete(4)
        kernel, kk, trace = kernelize(g, 3)
        assert trace.steps == () and not trace.short_circuit
        assert kernel is g and kk == 3

    def test_kernel_ids_follow_input_order(self):
        # Star 0-{1..5} plus a disjoint 4-clique on 6..9: the crown step
        # removes the center and leaves 2..5, leaf 1 is then isolated, and
        # the kernel is the clique relabelled 0..3.
        edges = [(0, v) for v in range(1, 6)]
        edges += [(u, v) for u in range(6, 10) for v in range(u + 1, 10)]
        g = Graph.from_edges(10, edges)
        kernel, kk, trace = kernelize(g, 4)
        assert trace.steps == (
            CrownReduction(crown=(2, 3, 4, 5), head=(0,), witness=((0, 2),)),
            IsolatedRemoval((1,)),
        )
        assert kernel == complete(4) and kk == 3
        assert replay_trace(g, trace) == kernel
