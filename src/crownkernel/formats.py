"""Parsing and serialization: DIMACS edge format, JSON adjacency instances,
trace files, and crown sidecar files.

DIMACS is 1-indexed on disk and converted to 0-indexed at the boundary.
Trace JSON is strict: unknown fields are rejected so fixtures stay bit-stable.
"""

from __future__ import annotations

import json
from typing import AbstractSet, Any

from .crown import CrownDecomposition
from .graph import Edge, Graph
from .kernel import CrownReduction, IsolatedRemoval, ReductionStep, ReductionTrace


class FormatError(ValueError):
    """Unparseable or inconsistent on-disk artifact."""


# ---------------------------------------------------------------------------
# Graph instances


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS edge format in one pass; every edge is checked as it is
    read, so the adjacency is valid by construction.

    The pass also counts the distinct edges, which seeds ``Graph.m``.  A
    vertex's first neighbor set is the ``1 << v`` of that neighbor itself,
    one int per id shared by all its neighbors, so a sparse vertex with a
    high-id neighbor allocates no int of its own.
    """
    n = None
    adj: list[int] = []
    one_bit: list[int] = []  # one_bit[v] is 1 << v once made, else 0
    m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        if fields[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'e u v'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad edge line") from exc
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise FormatError(f"line {lineno}: edge ({u}, {v}) out of range")
            u -= 1
            v -= 1
            bit_v = one_bit[v]
            if not bit_v:
                bit_v = one_bit[v] = 1 << v
            elif adj[u] & bit_v:
                continue  # a duplicate edge
            bit_u = one_bit[u]
            if not bit_u:
                bit_u = one_bit[u] = 1 << u
            adj[u] = adj[u] | bit_v if adj[u] else bit_v
            adj[v] = adj[v] | bit_u if adj[v] else bit_u
            m += 1
        elif fields[0].startswith("c"):
            continue
        elif fields[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise FormatError(f"line {lineno}: expected 'p edge n m'")
            try:
                n = int(fields[2])
                int(fields[3])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad problem line") from exc
            if n < 0:
                raise FormatError(f"line {lineno}: negative vertex count")
            adj = [0] * n
            one_bit = [0] * n
        else:
            raise FormatError(f"line {lineno}: unknown record {fields[0]!r}")
    if n is None:
        raise FormatError("missing 'p edge' line")
    return Graph._trusted(n, tuple(adj), m)


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


_INSTANCE_KEYS = {"n", "adj", "k", "q", "p"}


def parse_instance_json(text: str) -> tuple[Graph, dict[str, int]]:
    """Parse a JSON adjacency instance; returns the graph and optional
    parameters (k, q, p) found alongside it."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError("instance JSON must be an object")
    unknown = set(obj) - _INSTANCE_KEYS
    if unknown:
        raise FormatError(f"unknown instance fields: {sorted(unknown)}")
    if "n" not in obj or "adj" not in obj:
        raise FormatError("instance JSON needs 'n' and 'adj'")
    n = obj["n"]
    adj = obj["adj"]
    if not _is_int(n) or not isinstance(adj, list) or len(adj) != n:
        raise FormatError("'adj' must list one neighbor list per vertex")
    edges: list[Edge] = []
    for u, nbrs in enumerate(adj):
        if not isinstance(nbrs, list):
            raise FormatError(f"adjacency of vertex {u} is not a list")
        for v in nbrs:
            if not _is_int(v):
                raise FormatError(f"non-integer neighbor of vertex {u}")
            edges.append((u, v))
    try:
        g = Graph.from_edges(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    meta = {key: obj[key] for key in ("k", "q", "p") if key in obj}
    for key, value in meta.items():
        if not _is_int(value):
            raise FormatError(f"parameter {key!r} must be an integer")
    return g, meta


def write_instance_json(g: Graph, meta: dict[str, int] | None = None) -> str:
    obj: dict[str, Any] = {"n": g.n, "adj": [g.neighbors(v) for v in range(g.n)]}
    if meta:
        obj.update(meta)
    return json.dumps(obj, indent=2) + "\n"


def load_instance(path: str, fmt: str | None = None) -> tuple[Graph, dict[str, int]]:
    """Load a graph instance; format chosen by flag or file extension."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "dimacs"
    if fmt == "json":
        return parse_instance_json(text)
    if fmt == "dimacs":
        return parse_dimacs(text), {}
    raise FormatError(f"unknown format {fmt!r}")


def dump_graph(g: Graph, fmt: str) -> str:
    if fmt == "json":
        return write_instance_json(g)
    if fmt == "dimacs":
        return write_dimacs(g)
    raise FormatError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Trace files


def _require_keys(
    obj: Any, allowed: AbstractSet[str], required: AbstractSet[str], where: str
) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise FormatError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise FormatError(f"{where}: missing fields {sorted(missing)}")


def _list(obj: dict, key: str, where: str) -> list:
    """The value ``obj[key]``, which must be a JSON list."""
    value = obj[key]
    if not isinstance(value, list):
        raise FormatError(f"{where}: {key!r} must be a list")
    return value


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int(obj: dict, key: str, where: str) -> int:
    """The value ``obj[key]``, which must be an integer (a bool is none)."""
    value = obj[key]
    if not _is_int(value):
        raise FormatError(f"{where}: {key!r} must be an integer")
    return value


def _pairs(obj: dict, key: str, where: str) -> tuple[Edge, ...]:
    """The value ``obj[key]``, which must be a JSON list of integer pairs."""
    pairs = _list(obj, key, where)
    for idx, edge in enumerate(pairs):
        if not (isinstance(edge, list) and len(edge) == 2 and all(map(_is_int, edge))):
            raise FormatError(f"{where}: {key!r}[{idx}] must be a pair of integer vertex ids")
    return tuple(tuple(edge) for edge in pairs)


TRACE_VERSION = 2
_INPUT_KEYS = frozenset({"n", "m", "k", "q"})
_TRACE_KEYS = frozenset({"version", "input", "steps", "matching"})
_CROWN_KEYS = frozenset({"kind", "H", "C", "witness"})


def trace_to_dict(trace: ReductionTrace, answer: bool | None = None) -> dict:
    """The version-2 trace document: the input, the steps with their
    witnesses, and the k'-matching (or null); nothing derived."""
    steps = []
    for step in trace.steps:
        if isinstance(step, IsolatedRemoval):
            steps.append({"kind": "isolated", "vertices": list(step.vertices)})
        else:
            steps.append(
                {
                    "kind": "crown",
                    "H": list(step.head),
                    "C": list(step.crown),
                    "witness": [list(edge) for edge in step.witness],
                }
            )
    obj: dict[str, Any] = {
        "version": TRACE_VERSION,
        "input": {"n": trace.input_n, "m": trace.input_m, "k": trace.input_k, "q": trace.q},
        "steps": steps,
        "matching": None if trace.matching is None else [list(e) for e in trace.matching],
    }
    if answer is not None:
        obj["answer"] = answer
    return obj


def trace_from_dict(obj: dict) -> ReductionTrace:
    """Read a version-2 trace document; any other version is refused."""
    version = obj.get("version") if isinstance(obj, dict) else TRACE_VERSION
    if version != TRACE_VERSION or not _is_int(version):
        raise FormatError(f"trace: 'version' must be {TRACE_VERSION}, not {version!r}")
    _require_keys(obj, _TRACE_KEYS | {"answer"}, _TRACE_KEYS, "trace")
    inp = obj["input"]
    _require_keys(inp, _INPUT_KEYS, _INPUT_KEYS, "trace.input")
    if "answer" in obj and not isinstance(obj["answer"], bool):
        raise FormatError("trace: 'answer' must be true or false")
    steps: list[ReductionStep] = []
    for idx, step in enumerate(_list(obj, "steps", "trace")):
        where = f"trace.steps[{idx}]"
        if not isinstance(step, dict) or "kind" not in step:
            raise FormatError(f"{where}: missing kind")
        if step["kind"] == "isolated":
            _require_keys(step, {"kind", "vertices"}, {"kind", "vertices"}, where)
            steps.append(IsolatedRemoval(tuple(_list(step, "vertices", where))))
        elif step["kind"] == "crown":
            _require_keys(step, _CROWN_KEYS, _CROWN_KEYS, where)
            crown, head = (tuple(_list(step, key, where)) for key in ("C", "H"))
            steps.append(CrownReduction(crown, head, _pairs(step, "witness", where)))
        else:
            raise FormatError(f"{where}: unknown kind {step['kind']!r}")
    return ReductionTrace(
        input_n=_int(inp, "n", "trace.input"),
        input_m=_int(inp, "m", "trace.input"),
        input_k=None if inp["k"] is None else _int(inp, "k", "trace.input"),
        q=None if inp["q"] is None else _int(inp, "q", "trace.input"),
        steps=tuple(steps),
        matching=None if obj["matching"] is None else _pairs(obj, "matching", "trace"),
    )


# ---------------------------------------------------------------------------
# Crown sidecar files


def crown_to_dict(dec: CrownDecomposition) -> dict:
    return {
        "C": sorted(dec.crown),
        "H": sorted(dec.head),
        "R": sorted(dec.body),
        "witness": [list(edge) for edge in dec.witness],
    }


def crown_from_dict(obj: dict) -> CrownDecomposition:
    """Read a crown file.  ``C``, ``H`` and ``R`` must be lists of distinct
    integers and ``witness`` a list of integer pairs; whether they are
    vertices of the graph is ``check_crown``'s question."""
    _require_keys(obj, {"C", "H", "R", "witness"}, {"C", "H", "R", "witness"}, "crown")
    parts = []
    for key in ("C", "H", "R"):
        ids = _list(obj, key, "crown")
        if not all(map(_is_int, ids)):
            raise FormatError(f"crown: {key!r} must list integer vertex ids")
        if len(set(ids)) != len(ids):
            raise FormatError(f"crown: {key!r} lists a vertex twice")
        parts.append(frozenset(ids))
    crown, head, body = parts
    return CrownDecomposition(crown, head, body, _pairs(obj, "witness", "crown"))
