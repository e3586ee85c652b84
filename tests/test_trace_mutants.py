"""Every single-field change of a trace is refused or describes an
equivalent reduction.

The traces are ``kernelize``'s at q = 2 on a fixed set of graphs with at
most 8 vertices, for k from -1 to n//2 + 1 and in value mode.  A mutant
changes one field of a trace's JSON document: an integer becomes itself
plus or minus 1 or any id in [-1, n], a list loses or repeats one element,
or a null becomes 0, 1 or [[0, 1]].  Each mutant must fail
``trace_from_dict`` or ``verify_trace``, or be equivalent, judged by the
exact solvers on the input graph at q = 2:

* a trace that decides YES must be on an input that is YES for all three
  problems;
* any other trace must lift the values of ``replay_trace``'s graph to the
  direct values, and decide (G', k') as the direct decision on (G, k) goes.

The reduction rules do not depend on q, so a mutant of ``input.q`` is judged
at q = 2 too.
"""

import dataclasses
import json
import random

from crownkernel import CAPACITY, INDEX_CODING, MINRANK, kernelize, lift_value, replay_trace
from crownkernel.exact import index_coding_length, minrank, storage_capacity_alpha
from crownkernel.formats import FormatError, trace_from_dict, trace_to_dict
from crownkernel.generators import gen_crown_planted, gen_gnp
from crownkernel.kernel import verify_trace

from conftest import path, star

GRAPHS = {
    "P8": path(8),
    "K_1,5": star(6),
    "K_1,7": star(8),
    "gnp-7-0.4": gen_gnp(7, 0.4, random.Random(7)),
    "planted-3-1-2": gen_crown_planted(3, 1, 2, random.Random(1))[0],
    "planted-4-2-2": gen_crown_planted(4, 2, 2, random.Random(2))[0],
    "planted-3-2-3": gen_crown_planted(3, 2, 3, random.Random(3), extra_prob=0.6)[0],
}

PROBLEMS = (CAPACITY, INDEX_CODING, MINRANK)


_VALUES = {}


def values(g):
    """alpha(Conf_2(G)), Ind_2(G) and minrank over GF(2), in PROBLEMS order."""
    if g not in _VALUES:
        _VALUES[g] = (storage_capacity_alpha(g, 2), index_coding_length(g, 2), minrank(g, 2))
    return _VALUES[g]


def is_yes(g, k):
    """The decision on (G, k) for each problem, in PROBLEMS order."""
    alpha, ind, mr = values(g)
    return (alpha >= 2**k, ind <= g.n - k, mr <= g.n - k)


def mutants(doc, n):
    """Every single-field mutant of the JSON document ``doc``."""

    def changes(node, where):
        if isinstance(node, (bool, str)):
            return
        if isinstance(node, int):
            for value in {node - 1, node + 1, *range(-1, n + 1)} - {node}:
                yield where, value
        elif node is None:
            for value in (0, 1, [[0, 1]]):
                yield where, value
        elif isinstance(node, list):
            for idx, item in enumerate(node):
                yield where, node[:idx] + node[idx + 1:]
                yield where, node[: idx + 1] + node[idx:]
                yield from changes(item, where + (idx,))
        else:
            for key, item in node.items():
                yield from changes(item, where + (key,))

    text = json.dumps(doc)
    for where, value in changes(doc, ()):
        mutant = json.loads(text)
        node = mutant
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        yield mutant


def is_equivalent(g, trace):
    """True if an accepted trace says nothing false about (G, k)."""
    if trace.decides_yes:
        return all(is_yes(g, trace.input_k))
    kernel = replay_trace(g, trace)
    at_2 = dataclasses.replace(trace, q=2)
    lifted = [lift_value(at_2, value, problem) for value, problem in zip(values(kernel), PROBLEMS)]
    if lifted != list(values(g)):
        return False
    if trace.input_k is None:
        return True
    assert kernel.n == trace.kernel_n
    return is_yes(kernel, trace.kernel_k) == is_yes(g, trace.input_k)


def test_every_single_field_mutant_is_refused_or_equivalent():
    traces = [
        (g, kernelize(g, k, 2)[2])
        for g in GRAPHS.values()
        for k in [*range(-1, g.n // 2 + 2), None]
    ]
    assert sum(any(step.kind == "crown" for step in t.steps) for _, t in traces) >= 5
    assert sum(t.matching is not None for _, t in traces) >= 5
    counts = {"format": 0, "verify": 0, "equivalent": 0}
    for g, trace in traces:
        doc = trace_to_dict(trace)
        assert verify_trace(g, trace) is None and is_equivalent(g, trace)
        for mutant in mutants(doc, g.n):
            try:
                forged = trace_from_dict(mutant)
            except FormatError:
                counts["format"] += 1
                continue
            if verify_trace(g, forged) is not None:
                counts["verify"] += 1
                continue
            assert is_equivalent(g, forged), mutant
            counts["equivalent"] += 1
    assert all(counts.values()) and sum(counts.values()) > 3000, counts
