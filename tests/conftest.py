import itertools
import random

import pytest

from crownkernel import Graph
from crownkernel.exact import (
    build_confusion_graph,
    chromatic_number,
    independence_number,
    index_coding_length,
    minrank,
)


def all_labeled_graphs(n):
    """Yield every labeled graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def complete(n):
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def star(n):
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def path(n):
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def empty(n):
    return Graph.from_edges(n, [])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def catalog5():
    """alpha(Conf_2), chi(Conf_2), Ind_2, minrank over GF(2) for every labeled
    graph on 5 vertices; alpha is the plain branch and bound on the built
    confusion graph, the reference for storage_capacity_alpha."""
    entries = []
    for g in all_labeled_graphs(5):
        conf = build_confusion_graph(g, 2).graph
        alpha = independence_number(conf)
        chi = chromatic_number(conf)
        ind = index_coding_length(g, 2)
        mr = minrank(g, 2)
        entries.append((g, alpha, chi, ind, mr))
    return entries
