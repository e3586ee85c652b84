"""Command-line surface.

Subcommands: kernelize, decide, solve, gen, verify.  Exit codes:
0 success (or YES), 1 NO / verification failure, 2 usage or parse error,
3 exact-solver cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .crown import check_crown
from .exact import CapExceeded, Caps
from .formats import (
    FormatError,
    crown_from_dict,
    crown_to_dict,
    dump_graph,
    load_instance,
    trace_from_dict,
    trace_to_dict,
)
from .generators import FAMILIES, generate
from .graph import GraphError
from .kernel import CAPACITY, INDEX_CODING, MINRANK, ReductionTrace, kernelize, verify_trace
from .pipeline import DecisionReport, compute_values, decide

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_CAP = 3

PROBLEMS = {"sc": CAPACITY, "dic": INDEX_CODING, "dmr": MINRANK}


def _caps_from_args(args: argparse.Namespace) -> Caps:
    return Caps(alpha=args.cap_alpha, chi=args.cap_chi, minrank=args.cap_minrank)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is below 1")
    return int(text)


def _add_cap_flags(parser: argparse.ArgumentParser) -> None:
    defaults = Caps()
    parser.add_argument("--cap-alpha", type=_positive_int, default=defaults.alpha)
    parser.add_argument("--cap-chi", type=_positive_int, default=defaults.chi)
    parser.add_argument("--cap-minrank", type=_positive_int, default=defaults.minrank)


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _report_dict(report: DecisionReport) -> dict:
    return {
        "answer": report.answer,
        "kernel": {"n": report.kernel_n, "k": report.kernel_k},
        "confusion_size": report.confusion_size,
        "timings": report.timings,
        "trace": trace_to_dict(report.trace, answer=report.answer),
    }


def _parameter(args: argparse.Namespace, meta: dict, name: str) -> int:
    """k, q or p: the flag, else the instance, else 2 (q and p); no k is a usage error."""
    value = getattr(args, name)
    if value is None:
        value = meta.get(name)
    if value is None and name == "k":
        raise ValueError("no parameter k (use --k or embed it in the instance)")
    return 2 if value is None else value


def cmd_kernelize(args: argparse.Namespace) -> int:
    graph, meta = load_instance(args.input, args.format)
    kernel, kk, trace = kernelize(graph, _parameter(args, meta, "k"), q=_parameter(args, meta, "q"))
    trace_json = json.dumps(trace_to_dict(trace), indent=2) + "\n"
    if args.out:
        _write(args.out + ".trace.json", trace_json)
        _write(args.out + ".kernel." + ("json" if args.format == "json" else "col"),
               dump_graph(kernel, args.format or "dimacs"))
    else:
        combined = {
            "kernel": {"n": kernel.n, "k": kk},
            "trace": trace_to_dict(trace),
            "kernel_graph": {"n": kernel.n, "adj": [kernel.neighbors(v) for v in range(kernel.n)]},
        }
        sys.stdout.write(json.dumps(combined, indent=2) + "\n")
    return EXIT_OK


def cmd_decide(args: argparse.Namespace) -> int:
    graph, meta = load_instance(args.input, args.format)
    problem = PROBLEMS[args.problem]
    q = _parameter(args, meta, "p" if problem == MINRANK else "q")
    report = decide(problem, graph, _parameter(args, meta, "k"), q=q, caps=_caps_from_args(args))
    print("YES" if report.answer else "NO")
    _write(args.out, json.dumps(_report_dict(report), indent=2) + "\n")
    return EXIT_OK if report.answer else EXIT_NO


def cmd_solve(args: argparse.Namespace) -> int:
    graph, meta = load_instance(args.input, args.format)
    q, p = _parameter(args, meta, "q"), _parameter(args, meta, "p")
    report = compute_values(graph, q=q, p=p, caps=_caps_from_args(args))
    exponent = None
    power = 1
    for e in range(report.trace.input_n + 1):
        if power == report.alpha:
            exponent = e
            break
        power *= q
    obj = {
        "q": report.q,
        "p": report.p,
        "alpha": report.alpha,
        "capacity": f"log_{q}({report.alpha})" if exponent is None else exponent,
        "index_coding_length": report.index_coding_length,
        "minrank": report.minrank,
        "residual_n": report.residual_n,
        "trace": trace_to_dict(report.trace),
    }
    _write(args.out, json.dumps(obj, indent=2) + "\n")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        graph, planted = generate(
            args.family, n=args.n, prob=args.prob, c=args.c, h=args.h, r=args.r,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.family == "crown-planted" and args.out is None:
        print("error: crown-planted needs --out for the sidecar file", file=sys.stderr)
        return EXIT_USAGE
    fmt = args.format or "dimacs"
    _write(args.out, dump_graph(graph, fmt))
    if planted is not None:
        _write(args.out + ".crown.json", json.dumps(crown_to_dict(planted), indent=2) + "\n")
    return EXIT_OK


def _answer_reason(trace: ReductionTrace, answer: bool | None) -> str | None:
    """``answer-contradicts-trace`` when a verified trace decides the answer
    by itself and the recorded ``answer`` says otherwise: YES on a
    k'-matching or k' <= 0, NO on k' > n'.  An answer the exact solver gave
    on the kernel carries no certificate and is not checked."""
    decided = trace.decides_yes or trace.kernel_k > trace.kernel_n
    if answer is None or not decided or answer == trace.decides_yes:
        return None
    return "answer-contradicts-trace"


def cmd_verify(args: argparse.Namespace) -> int:
    graph, _ = load_instance(args.input, args.format)
    with open(args.artifact, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
    if isinstance(obj, dict) and "steps" in obj:
        trace = trace_from_dict(obj)
        reason = verify_trace(graph, trace) or _answer_reason(trace, obj.get("answer"))
    else:
        dec = crown_from_dict(obj)
        reason = check_crown(graph, dec)
    if reason is None:
        print("OK")
        return EXIT_OK
    print(f"FAIL: {reason}")
    return EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crownkernel",
        description="Kernelization and exact solving for storage capacity, "
        "index coding length, and minrank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kern = sub.add_parser("kernelize", help="reduce an instance and emit kernel + trace")
    p_kern.add_argument("input")
    p_kern.add_argument("--k", type=int, default=None)
    p_kern.add_argument("--q", type=int, default=None)
    p_kern.add_argument("--format", choices=["dimacs", "json"], default=None)
    p_kern.add_argument("--out", default=None, help="output prefix for kernel and trace files")
    p_kern.set_defaults(func=cmd_kernelize)

    p_dec = sub.add_parser("decide", help="decide sc / dic / dmr on an instance")
    p_dec.add_argument("problem", choices=list(PROBLEMS))
    p_dec.add_argument("input")
    p_dec.add_argument("--k", type=int, default=None)
    p_dec.add_argument("--q", type=int, default=None)
    p_dec.add_argument("--p", type=int, default=None)
    p_dec.add_argument("--format", choices=["dimacs", "json"], default=None)
    p_dec.add_argument("--out", default=None)
    _add_cap_flags(p_dec)
    p_dec.set_defaults(func=cmd_decide)

    p_solve = sub.add_parser("solve", help="compute exact values for an instance")
    p_solve.add_argument("input")
    p_solve.add_argument("--q", type=int, default=None)
    p_solve.add_argument("--p", type=int, default=None)
    p_solve.add_argument("--format", choices=["dimacs", "json"], default=None)
    p_solve.add_argument("--out", default=None)
    _add_cap_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("family", choices=list(FAMILIES))
    p_gen.add_argument("--n", type=int, default=0)
    p_gen.add_argument("--prob", type=float, default=0.0)
    p_gen.add_argument("--c", type=int, default=0)
    p_gen.add_argument("--h", type=int, default=0)
    p_gen.add_argument("--r", type=int, default=0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--format", choices=["dimacs", "json"], default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_ver = sub.add_parser("verify", help="verify a trace or crown file against an instance")
    p_ver.add_argument("input")
    p_ver.add_argument("artifact")
    p_ver.add_argument("--format", choices=["dimacs", "json"], default=None)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    raise SystemExit(main())
