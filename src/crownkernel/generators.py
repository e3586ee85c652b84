"""Deterministic instance generators for the CLI and the benchmark harness.

All randomness flows through an explicit ``random.Random`` so a (family,
params, seed) triple always reproduces the same instance.
"""

from __future__ import annotations

import random
from typing import Iterable

from .crown import CrownDecomposition
from .graph import Edge, Graph


def gen_empty(n: int) -> Graph:
    return Graph.from_edges(n, [])


def gen_complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def gen_star(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def gen_path(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
    return Graph.from_edges(n, edges)


def gen_gnp(n: int, prob: float, rng: random.Random) -> Graph:
    if not 0.0 <= prob <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    edges: list[Edge] = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < prob:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def gen_crown_planted(
    c_size: int,
    h_size: int,
    r_size: int,
    rng: random.Random,
    extra_prob: float = 0.3,
) -> tuple[Graph, CrownDecomposition]:
    """Graph with a planted crown decomposition as ground truth.

    Layout: crown C = 0..c-1, head H = c..c+h-1, body R = the rest.  Edges:
    the planted H-into-C matching, then random extra H-C and H-R edges and a
    random graph on R, each with probability ``extra_prob``.  No C-C or C-R
    edges are ever added, so the decomposition always verifies.
    """
    if c_size < 1 or h_size < 1:
        raise ValueError("crown and head must be nonempty")
    if h_size > c_size:
        raise ValueError("head larger than crown cannot be matched into it")
    if r_size < 0:
        raise ValueError("negative body size")
    crown = list(range(c_size))
    head = list(range(c_size, c_size + h_size))
    body = list(range(c_size + h_size, c_size + h_size + r_size))
    witness = tuple((head[i], crown[i]) for i in range(h_size))
    edges: list[Edge] = list(witness)
    planted = set(witness)
    for h in head:
        for c in crown:
            if (h, c) not in planted and rng.random() < extra_prob:
                edges.append((h, c))
        for r in body:
            if rng.random() < extra_prob:
                edges.append((h, r))
    for i, u in enumerate(body):
        for v in body[i + 1 :]:
            if rng.random() < extra_prob:
                edges.append((u, v))
    g = Graph.from_edges(c_size + h_size + r_size, edges)
    dec = CrownDecomposition(
        crown=frozenset(crown), head=frozenset(head), body=frozenset(body), witness=witness
    )
    return g, dec


FAMILIES = ("gnp", "star", "path", "cycle", "complete", "empty", "crown-planted")


def generate(family: str, *, n: int = 0, prob: float = 0.0, c: int = 0, h: int = 0,
             r: int = 0, seed: int = 0) -> tuple[Graph, CrownDecomposition | None]:
    """Dispatch a family name to its generator; crown-planted also returns
    the planted decomposition."""
    rng = random.Random(seed)
    if family == "gnp":
        return gen_gnp(n, prob, rng), None
    if family == "star":
        return gen_star(n), None
    if family == "path":
        return gen_path(n), None
    if family == "cycle":
        return gen_cycle(n), None
    if family == "complete":
        return gen_complete(n), None
    if family == "empty":
        return gen_empty(n), None
    if family == "crown-planted":
        g, dec = gen_crown_planted(c, h, r, rng)
        return g, dec
    raise ValueError(f"unknown family {family!r}")
