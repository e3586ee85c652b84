"""crownkernel benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.  One
closed-loop client in this single process sends the next op as soon as the
previous one has answered, since callers of ``decide`` and ``solve`` wait
for each answer.  An op is what ``crownkernel decide`` or ``crownkernel
solve`` does without argparse and files: parse the DIMACS text, decide (or
compute values), serialise the trace to JSON and back, and verify it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a second, traced
loop gives the per-layer ones.  The exit code is 0 unless an output check
failed for a reason other than a per-op deadline miss.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(SRC))

import crownkernel  # noqa: E402

if not Path(crownkernel.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"crownkernel imported from {crownkernel.__file__}, not from {SRC}")

from crownkernel import formats, kernel, pipeline  # noqa: E402
from crownkernel.exact import CapExceeded  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Every time is CPU time of the one thread that runs the ops.  They do no
# I/O, so on an idle machine CPU time is wall time; on a shared virtual
# machine it leaves out the time the host deschedules it, which swings wall
# time by up to 2x from one second to the next.  (process_time would do, but
# the kernel coarsens it to whole ticks while ITIMER_PROF is armed.)
CLOCK = time.thread_time
# Per-op latency limit; a miss fails the op.  It sits between the slowest
# catalogue op that finishes (up to 1.1 s) and the fastest that does not (2.1 s),
# with room on both sides for the machine's speed drift.
DEADLINE_S = 1.5
REFERENCE_DEADLINE_S = 2 * DEADLINE_S  # an op that meets its deadline has a reference
# The host switches, for seconds at a time, between a fast and a slow state:
# the CPU time of the same op, or of a fixed calibration loop, is about 1.7
# times longer in the slow one, and runs minutes apart spend different
# shares of their time in each.  So the end-to-end times are read at one
# fixed speed: each is scaled by CALIBRATION_REF_S over the median time of
# the calibrations taken around it (two before, two after).  A calibration
# is the fastest of CALIBRATION_REPEATS runs of a fixed loop, which keeps a
# stray interrupt out of it.  The loop calls nothing in the program, so a
# change to the program moves the scaled times as much as the raw ones.
CALIBRATION_MASK = int("10110010" * 250, 2)
CALIBRATION_REPEATS = 3
CALIBRATION_REF_S = 0.0005
# Set-up runs at least 3 times and until 1 s of it has been timed; setup_s is
# the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


class DeadlineMiss(BaseException):
    """Raised from SIGPROF when an op runs past its deadline.

    A BaseException, so no ``except Exception`` in the program can swallow it.
    """


def _alarm(signum, frame):
    raise DeadlineMiss


def calibrate() -> float:
    """Least CPU time of scanning the bits of a 2000-bit integer into a dict."""
    best = math.inf
    for _ in range(CALIBRATION_REPEATS):
        start = CLOCK()
        mask, seen = CALIBRATION_MASK, {}
        while mask:
            low = mask & -mask
            seen[low.bit_length() - 1] = len(seen)
            mask ^= low
        best = min(best, CLOCK() - start)
    return best


def with_deadline(fn, seconds: float):
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)


# ---------------------------------------------------------------------------
# One op


def execute(op: workloads.Op, text: str):
    """Run one op as the CLI composes it; returns (answer, verify reason, kernel n, n)."""
    g = formats.parse_dimacs(text)
    if op.kind == "values":
        report = pipeline.compute_values(g, q=op.q, p=op.q)
        answer = (report.alpha, report.index_coding_length, report.minrank)
        doc = formats.trace_to_dict(report.trace)
        kernel_n = report.residual_n
    else:
        report = getattr(pipeline, workloads.DECIDE[op.kind])(g, op.k, op.q)
        answer = report.answer
        doc = formats.trace_to_dict(report.trace, answer=report.answer)
        kernel_n = report.kernel_n
    trace = formats.trace_from_dict(json.loads(json.dumps(doc)))
    return answer, kernel.verify_trace(g, trace), kernel_n, g.n


@dataclass
class Outcome:
    cpu: float  # CPU seconds the op took, failed or not
    status: str  # ok, deadline, cap, error, reject; check() adds wrong, no-reference
    kernel_n: int = 0
    n: int = 0
    answer: object = None
    detail: str = ""


    @property
    def latency(self) -> float:
        """Seconds, or +inf for a failed op."""
        return self.cpu if self.status == "ok" else math.inf


def run_op(op: workloads.Op, inst: workloads.Instance) -> Outcome:
    start = CLOCK()
    try:
        answer, reason, kernel_n, n = with_deadline(lambda: execute(op, inst.text), DEADLINE_S)
    except DeadlineMiss:
        return Outcome(CLOCK() - start, "deadline")
    except CapExceeded as exc:
        return Outcome(CLOCK() - start, "cap", detail=str(exc))
    except Exception as exc:  # any raise fails the op; the run reports it
        return Outcome(CLOCK() - start, "error", detail=f"{type(exc).__name__}: {exc}")
    cpu = CLOCK() - start
    if reason is not None:
        return Outcome(cpu, "reject", kernel_n, n, answer, reason)
    return Outcome(cpu, "ok", kernel_n, n, answer)


# Failures that are recorded as deadline misses; any other failure is a wrong output.
MISSED = ("deadline", "no-reference")


def check(workload: workloads.Workload, records: list, tail: list) -> None:
    """Compare each answer with its graph's reference.

    References are computed once, after the timed loop, for the graphs that
    have an answer to check.  An answer that differs becomes ``wrong``; one
    whose reference ran past the deadline becomes ``no-reference``.
    """
    kinds: dict[int, set] = {}
    for idx, outcome in records:
        if outcome.status == "ok":
            op = workload.ops[idx]
            kinds.setdefault(op.gid, set()).add(op.kind)
    refs = {}
    for gid, needed in kinds.items():
        inst = workload.instances[gid]

        def guard(value: str, fn):
            try:
                return with_deadline(fn, REFERENCE_DEADLINE_S)
            except DeadlineMiss:
                tail.append({"phase": "reference", "value": value, "q": inst.q,
                             "params": inst.params, "deadline_s": REFERENCE_DEADLINE_S})
                return None

        refs[gid] = workloads.reference_values(inst, needed, guard)
    for idx, outcome in records:
        if outcome.status != "ok":
            continue
        op = workload.ops[idx]
        want = workloads.expected(op, outcome.n, refs[op.gid])
        if want is None:
            outcome.status = "no-reference"
        elif outcome.answer != want:
            outcome.status = "wrong"
            outcome.detail = f"got {outcome.answer}, want {want}"


# ---------------------------------------------------------------------------
# Phases of a run


def speed_scale(calibrations: list[float]) -> float:
    """Factor that reads a time at the calibration's reference speed."""
    return CALIBRATION_REF_S / statistics.median(calibrations)


def setup(
    name: str, seed: int, tiny: bool, repeats: int, min_s: float
) -> tuple[workloads.Workload, float]:
    """Build the workload at least ``repeats`` times and for at least ``min_s``
    seconds; returns it and the median scaled build time."""
    raw, times, built = 0.0, [], None
    before = [calibrate() for _ in range(5)]
    while len(times) < repeats or raw < min_s:
        start = CLOCK()
        workload = workloads.SETUPS[name](seed, tiny)
        elapsed = CLOCK() - start
        after = [calibrate() for _ in range(5)]
        raw += elapsed
        times.append(elapsed * speed_scale(before + after))
        before = after
        if built is not None and [i.text for i in built.instances] != [
            i.text for i in workload.instances
        ]:
            raise RuntimeError("set-up is not deterministic for a fixed seed")
        built = workload
    return built, statistics.median(times)


@dataclass
class Loop:
    records: list[tuple[int, Outcome]] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)  # around each op

    def scales(self) -> list[float]:
        """Each record's speed_scale, from the calibrations around it."""
        cal = self.calibration
        return [speed_scale(cal[max(0, j - 1) : j + 3]) for j in range(len(self.records))]



def closed_loop(workload, seconds: float, rng: random.Random, tracer=None) -> Loop:
    """Send ops one after another in passes over all ops, each in a fresh
    seeded order, until the first pass that ends after ``seconds``.

    Whole passes keep every op's share of the samples fixed, so percentiles
    do not depend on where the clock happened to stop.  A full garbage
    collection before each op, outside its timing, starts every op from the
    same interpreter state, whatever the ops before it left behind.
    """
    loop = Loop()
    elapsed = 0.0
    while True:
        order = list(range(len(workload.ops)))
        rng.shuffle(order)
        for idx in order:
            op = workload.ops[idx]
            inst = workload.instances[op.gid]
            gc.collect()
            loop.calibration.append(calibrate())
            if tracer is None:
                outcome = run_op(op, inst)
            else:
                depth = tracer.depth
                with tracer.span("bench.op"):
                    outcome = run_op(op, inst)
                    tracer.settle(depth + 1)
            loop.records.append((idx, outcome))
            elapsed += outcome.cpu
        if elapsed >= seconds:
            loop.calibration.append(calibrate())
            return loop


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks; failed ops sit at
    +inf, and a rank next to one is +inf too."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    if lo == pos or ordered[lo] == ordered[lo + 1]:
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * (pos - lo)


def op_latencies(loop: Loop) -> dict[int, float]:
    """Each op's median latency over the passes of the run.

    Percentiles are taken over these medians.  Over the raw samples a
    percentile often falls where one op's samples end and the next op's
    begin, and then reads the single slowest or fastest sample of an op,
    which one stray pause of the host moves.
    """
    samples: dict[int, list[float]] = {}
    for (idx, o), scale in zip(loop.records, loop.scales()):
        samples.setdefault(idx, []).append(o.latency * scale)
    return {idx: statistics.median(values) for idx, values in samples.items()}


def end_to_end(workload, loop: Loop, setup_s: float) -> dict:
    medians = op_latencies(loop)
    latencies = list(medians.values())
    ok = sum(o.status == "ok" for _, o in loop.records)
    per_kind: dict[str, list[float]] = {}
    for idx, latency in medians.items():
        per_kind.setdefault(workload.ops[idx].kind, []).append(latency)
    p50 = percentile(latencies, 0.5)
    # The client waits the whole deadline for an op that misses it, whatever
    # the machine's speed; every other op counts at the reference speed.
    busy = sum(
        DEADLINE_S if o.status == "deadline" else o.cpu * scale
        for (_, o), scale in zip(loop.records, loop.scales())
    )
    # A solve op answers SC, DIC and DMR at once, so each per-problem median is
    # the op median there.
    problem_p50 = {k: percentile(per_kind[k], 0.5) if k in per_kind else p50 for k in workloads.DECIDE}
    sizes: dict[int, tuple[int, int]] = {}
    for idx, o in loop.records:
        if o.status == "ok":
            sizes[idx] = (o.kernel_n, o.n)
    kernel_frac = sum(k for k, _ in sizes.values()) / max(1, sum(n for _, n in sizes.values()))
    return {
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "ops_per_s": (ok / busy, "1/s"),
        "sc_p50_ms": (problem_p50["sc"] * 1e3, "ms"),
        "dic_p50_ms": (problem_p50["dic"] * 1e3, "ms"),
        "dmr_p50_ms": (problem_p50["dmr"] * 1e3, "ms"),
        "kernel_frac": (kernel_frac, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


LAYERS = ("graph", "crown", "kernel", "pipeline", "exact", "formats", "bench")

# Per-function metrics: span name -> which of calls / self_s to report.
FUNCTION_METRICS = {
    "graph.Graph": ("calls", "self_s"),
    "graph.induced_subgraph": ("calls", "self_s"),
    "graph.isolated_vertices": ("self_s",),
    "graph.greedy_maximal_matching": ("self_s",),
    "graph.max_bipartite_matching": ("calls", "self_s"),
    "graph.min_vertex_cover_bipartite": ("self_s",),
    "crown.find_crown_or_matching": ("calls", "self_s"),
    "crown.check_crown": ("self_s",),
    "kernel.kernelize": ("calls", "self_s"),
    "kernel.verify_trace": ("calls", "self_s"),
    "pipeline.decide": ("self_s",),
    "pipeline.compute_values": ("self_s",),
    "exact.build_confusion_graph": ("calls", "self_s"),
    "exact.independence_number": ("calls", "self_s"),
    "exact.storage_capacity_alpha": ("self_s",),
    "exact.max_clique_set": ("calls", "self_s"),
    "exact.index_coding_length": ("self_s",),
    "exact.chromatic_number": ("calls", "self_s"),
    "exact.is_colorable": ("calls", "self_s"),
    "exact.dsatur_coloring": ("self_s",),
    "exact.minrank": ("calls", "self_s"),
    "formats.parse_dimacs": ("self_s",),
    "formats.trace_to_dict": ("self_s",),
    "formats.trace_from_dict": ("self_s",),
}

COUNTERS = (
    "graph.max_bipartite_matching.matched",
    "crown.find_crown_or_matching.crowns",
    "kernel.kernelize.steps",
    "kernel.kernelize.kernel_n",
    "kernel.verify_trace.rejects",
    "pipeline.compute_values.residual_n",
    "exact.build_confusion_graph.vertices",
    "exact.build_confusion_graph.edges",
    "exact.is_colorable.yes",
    "formats.parse_dimacs.bytes",
)


def per_layer(tracer: Tracer, loop: Loop, untraced: Loop) -> dict:
    ops = tracer.self_times("bench.op")
    out = {}
    for name, fields in FUNCTION_METRICS.items():
        calls, self_s = ops.get(name, (0, 0.0))
        if "calls" in fields:
            out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    for name in COUNTERS:
        out[name] = (tracer.counters[name], "bytes" if name.endswith(".bytes") else "count")
    statuses = [o.status for _, o in loop.records]
    out["exact.cap_exceeded"] = (statuses.count("cap"), "count")
    out["bench.deadline_misses"] = (statuses.count("deadline"), "count")
    out["bench.failed_frac"] = (sum(s != "ok" for s in statuses) / len(statuses), "frac")
    out["generators.self_s"] = (tracer.self_times("bench.setup").get("generators", (0, 0.0))[1], "s")
    op_time = sum(self_s for _, self_s in ops.values())
    for layer in LAYERS:
        share = sum(s for name, (_, s) in ops.items() if name.split(".")[0] == layer)
        out[f"layer.{layer}.self_frac"] = (share / op_time if op_time else 0.0, "frac")
    # Both loops send the same seeded op sequence; compare the ops that
    # succeeded in both, at the reference speed.
    both = [
        (t.latency * ts, u.latency * us)
        for (_, t), ts, (_, u), us in zip(loop.records, loop.scales(), untraced.records, untraced.scales())
        if t.status == u.status == "ok"
    ]
    ratio = sum(t for t, _ in both) / sum(u for _, u in both) if both else 0.0
    out["bench.trace_overhead_frac"] = (ratio, "frac")
    return out


# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    previous = signal.signal(signal.SIGPROF, _alarm)
    try:
        return _run(name, seed, seconds, trace, tiny)
    finally:
        signal.signal(signal.SIGPROF, previous)


def _run(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    tail: list[dict] = []
    repeats, min_s = (1, 0.0) if trace or tiny else (SETUP_REPEATS, SETUP_MIN_S)
    workload, setup_s = setup(name, seed, tiny, repeats, min_s)
    tracer = None
    if trace:
        # Untraced first, then the same seeded op sequence with tracing on.
        untraced = closed_loop(workload, seconds / 4, random.Random(seed))
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                workloads.SETUPS[name](seed, tiny)
            loop = closed_loop(workload, seconds, random.Random(seed), tracer)
        finally:
            tracer.uninstall()
        check(workload, untraced.records + loop.records, tail)
        metrics = per_layer(tracer, loop, untraced)
    else:
        loop = closed_loop(workload, seconds, random.Random(seed))
        check(workload, loop.records, tail)
        metrics = end_to_end(workload, loop, setup_s)

    missed: dict[int, int] = {}
    wrong = []
    for idx, outcome in loop.records:
        if outcome.status in MISSED:
            missed[idx] = missed.get(idx, 0) + 1
        elif outcome.status != "ok":
            wrong.append((idx, outcome))
    for idx, count in sorted(missed.items()):
        op = workload.ops[idx]
        tail.append({"phase": "timed", "op": op.kind, "k": op.k, "q": op.q,
                     "params": workload.instances[op.gid].params, "misses": count,
                     "deadline_s": DEADLINE_S})
    for idx, outcome in wrong[:5]:
        op = workload.ops[idx]
        print(f"check failed: {outcome.status} on {op.kind} k={op.k} "
              f"{workload.instances[op.gid].params}: {outcome.detail}", file=sys.stderr)
    if tail:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"tail-{name}-{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps({"workload": name, "seed": seed, "ops": tail}, indent=1))
        print(f"{len(tail)} deadline records in {path}", file=sys.stderr)
    if tracer is not None and not tiny:
        OUT.mkdir(exist_ok=True)
        tracer.dump(str(OUT / f"spans-{name}-{seed}.json"))
    return {
        "correct": not wrong,
        "attempted": len(loop.records),
        "failed": sum(o.status != "ok" for _, o in loop.records),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{key:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
