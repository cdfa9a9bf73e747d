"""Command-line front end: build graphs, apply LC/ELC, run verification suites.

Every run is deterministic for a fixed argv + seed + input files: randomized
suites draw from a PCG64 generator seeded by --seed, and all JSON output uses
sorted keys. Exit codes are a stable contract: 0 pass, 1 verification
failure, 2 usage or resource error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import encoding, graph as gr, statevector as sv
from .errors import GselcError
from .report import Report

ENV_MAX_QUBITS = "GSELC_MAX_QUBITS"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

_PARSER = None  # built by the first ``main`` call and reused by the later ones


def _max_qubits(args: argparse.Namespace) -> int:
    """The dense-state qubit cap: --max-qubits, else $GSELC_MAX_QUBITS, else 20.

    Also checks --tol, so a bad limit of either kind exits 2 before any work.
    """
    cap = args.max_qubits
    if cap is None:  # the flag wins, and then the environment is not read
        env = os.environ.get(ENV_MAX_QUBITS)
        try:
            cap = sv.DEFAULT_MAX_QUBITS if env is None else int(env)
        except ValueError as exc:
            raise GselcError(f"{ENV_MAX_QUBITS} must be an integer, got {env!r}") from exc
    if cap < 1:
        raise GselcError(f"max qubits must be at least 1, got {cap}")
    if not 0 < args.tol < math.inf:  # also false for nan
        raise GselcError(f"tolerance must be positive and finite, got {args.tol}")
    return cap


def _check_out(out_path: str | None) -> None:
    """Fail before any work if --out names a directory, or a file that cannot be written there; this
    creates and truncates nothing."""
    parent = os.path.dirname(out_path or "") or "."
    if out_path and (os.path.isdir(out_path) or not os.path.isdir(parent)
                     or not os.access(out_path if os.path.exists(out_path) else parent, os.W_OK)):
        raise GselcError(f"--out {out_path} is a directory or cannot be written")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _graph_doc(g: gr.Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_graph(source: str) -> gr.Graph:
    if source == "-":
        return gr.from_json(sys.stdin.read())
    with open(source, "r", encoding="utf-8") as fh:
        return gr.from_json(fh.read())


def _parse_graph_spec(spec: str) -> gr.Graph:
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise GselcError(f"graph spec {spec!r} must look like kind:arg")
    if kind == "file":
        return _load_graph(arg)
    try:
        count = int(arg)
    except ValueError as exc:
        raise GselcError(f"graph spec {spec!r} needs an integer argument") from exc
    makers = {"star": gr.star, "cycle": gr.cycle, "path": gr.path, "empty": gr.new_empty}
    if kind not in makers:
        raise GselcError(f"unknown graph kind {kind!r}; expected star, cycle, path, empty, file")
    return makers[kind](count)


def _parse_op(op: str) -> tuple[int, ...]:
    """The vertices of one operation: lc:V is (V,), elc:A,B is (A, B)."""
    kind, sep, arg = op.partition(":")
    try:
        if kind == "lc" and sep:
            return (int(arg),)
        if kind == "elc" and sep:
            a, b = arg.split(",")
            return int(a), int(b)
    except ValueError:
        pass
    raise GselcError(f"bad operation {op!r}; expected lc:V or elc:A,B")


def cmd_graph(args: argparse.Namespace) -> int:
    """One graph, built from a spec or read from a file, written as canonical JSON or DOT."""
    g = _parse_graph_spec(args.spec)
    text = gr.to_dot(g) if args.format == "dot" else gr.to_json(g) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    steps = []
    for op in args.ops:
        vertices = _parse_op(op)
        if len(vertices) == 2:  # an ELC is traced as its literal three-LC decomposition
            lcs = []
            g = gr.elc_via_lcs(g, *vertices, lcs)
            steps += [{"op": f"lc:{vertex}", "graph": _graph_doc(h)} for vertex, h in lcs]
        else:
            g = gr.local_complement(g, *vertices)
            steps.append({"op": op, "graph": _graph_doc(g)})
    text = _dump_json({"steps": steps, "result": _graph_doc(g)}) if args.trace else gr.to_json(g) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _suite_theorem1(args: argparse.Namespace, trials: int) -> Report:
    side = 6  # the largest graph of a pair; checked before any case, whatever the seed
    sv._check_cap(2 * side, args.max_qubits)
    # the scan checks its own largest draw first, and has its own generator
    scan = sv.scan_theorem1_shared_neighbors(
        trials=50, seed=args.seed, tol=args.tol, max_qubits=args.max_qubits
    )
    rng = np.random.default_rng(args.seed)
    failures = []
    worst = 0.0
    for t in range(trials):
        n1 = int(rng.integers(1, side + 1))
        n2 = int(rng.integers(1, side + 1))
        g1 = gr.random_graph(rng, n1)
        g2 = gr.random_graph(rng, n2)
        c1 = int(rng.integers(0, n1))
        c2 = int(rng.integers(0, n2))
        rep = sv.verify_theorem1(g1, c1, g2, c2, args.tol, args.max_qubits)
        worst = max(worst, rep.details["max_amp_diff"])
        if not rep.passed:
            failures.append({"trial": t, "report": rep.details})
    return Report(
        passed=not failures,
        details={
            "suite": "theorem1",
            "seed": args.seed,
            "trials": trials,
            "failures": failures,
            "max_amp_diff": worst,
            "tol": args.tol,
            # excluded regime, recorded but never asserted
            "shared_neighborhood_scan": scan.details,
        },
    )


def _suite_vertex_lc(args: argparse.Namespace, _trials: int | None) -> Report:
    largest = 5
    sv._check_cap(largest, args.max_qubits)  # before any case
    checked = 0
    failures = []
    for n in range(0, largest + 1):
        for g in gr.all_graphs(n):
            for a in range(n):
                rep = sv.verify_vertex_lc(g, a, args.tol, args.max_qubits)
                checked += 1
                if not rep.passed:
                    failures.append({"edges": [list(e) for e in g.edges()], "vertex": a})
    return Report(
        passed=not failures,
        details={
            "suite": "vertex-lc",
            "cases_checked": checked,
            "failures": failures,
            "tol": args.tol,
        },
    )


def _suite_stabilizers(args: argparse.Namespace, trials: int) -> Report:
    largest = 8
    sv._check_cap(largest, args.max_qubits)  # before any case, whatever the seed
    rng = np.random.default_rng(args.seed)
    failures = []
    for t in range(trials):
        n = int(rng.integers(1, largest + 1))
        g = gr.random_graph(rng, n)
        rep = sv.verify_stabilizers(g, args.tol, args.max_qubits)
        if not rep.passed:
            failures.append({"trial": t, "report": rep.details})
    return Report(
        passed=not failures,
        details={
            "suite": "stabilizers",
            "seed": args.seed,
            "trials": trials,
            "failures": failures,
            "tol": args.tol,
        },
    )


def _suite_cs2(args: argparse.Namespace, _trials: int | None) -> Report:
    rep, direct_log, elc_log = encoding.build_logical_cluster(2, args.tol, args.max_qubits)
    details = dict(
        rep.details,
        suite="cs2",
        logical_cz_count=direct_log.count_cz("logical_cz"),
        cz_saving=direct_log.count_cz() - elc_log.count_cz(),
        counts_ok=encoding.counts_match(2, direct_log, elc_log),
    )
    del details["n_qubits"]
    return Report(passed=rep.passed, details=details)


def _suite_chain(args: argparse.Namespace, n_logical: int) -> Report:
    # the 5N-qubit build first: it checks the length, then the cap, before any state
    build, _, _ = encoding.build_logical_cluster(n_logical, args.tol, args.max_qubits)
    steps = encoding.verify_chain_elc_steps(n_logical, args.tol, args.max_qubits)
    return Report(
        passed=steps.passed and build.passed,
        details={
            "suite": f"chain:{n_logical}",
            "core_steps": steps.details,
            "logical_build": build.details,
        },
    )


# Each suite takes the parsed arguments, with the qubit cap and seed resolved,
# and one parameter: N for chain:N, otherwise --trials or its default. The
# default is None for the suites that draw no random cases; only the others
# read --trials and --seed.
SUITES = {
    "theorem1": (_suite_theorem1, 200),
    "vertex-lc": (_suite_vertex_lc, None),
    "stabilizers": (_suite_stabilizers, 50),
    "cs2": (_suite_cs2, None),
    "chain": (_suite_chain, None),
}


def cmd_verify(args: argparse.Namespace) -> int:
    args.max_qubits = _max_qubits(args)
    suite = args.suite
    if args.trials is not None and args.trials < 1:
        raise GselcError(f"--trials must be at least 1, got {args.trials}")
    if args.seed is not None and args.seed < 0:
        raise GselcError(f"--seed must be non-negative, got {args.seed}")
    name, sep, arg = suite.partition(":")
    if name not in SUITES or (name == "chain") != bool(sep):
        raise GselcError(
            f"unknown suite {suite!r}; expected theorem1, vertex-lc, stabilizers, cs2, chain:N"
        )
    run_suite, default_trials = SUITES[name]
    if default_trials is None and (args.trials, args.seed) != (None, None):
        randomized = " and ".join(key for key, (_, trials) in SUITES.items() if trials is not None)
        raise GselcError(f"--trials and --seed apply only to {randomized}, not {suite}")
    args.seed = 0 if args.seed is None else args.seed
    param = default_trials if args.trials is None else args.trials
    if sep:
        try:
            param = int(arg)
        except ValueError as exc:
            raise GselcError(f"bad chain suite {suite!r}; expected chain:N") from exc
    report = run_suite(args, param)
    if args.format == "text":
        status = "PASS" if report.passed else "FAIL"
        _emit(f"{status} {suite}\n", args.out)
    else:
        _emit(_dump_json({"passed": report.passed, "details": report.details}), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_encode(args: argparse.Namespace) -> int:
    rep, _, _ = encoding.build_logical_cluster(args.n_logical, args.tol, _max_qubits(args))
    wanted = ("direct", "elc") if args.method == "both" else (args.method,)
    doc = {
        "n_logical": args.n_logical,
        "constructions": [rep.details[name] for name in wanted],
    }
    _emit(_dump_json(doc), args.out)
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gselc",
        description="Graph states, local/edge local complementation, and logical cluster-state verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p: argparse.ArgumentParser, formats=()) -> None:
        # the first format is the default
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0], help=f"output format (default {formats[0]})")
        p.add_argument("--out", metavar="PATH", default=None, help="write output to PATH instead of stdout")

    def limits(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-qubits", type=int, default=None, help="dense-state qubit cap (default 20; env GSELC_MAX_QUBITS)")
        p.add_argument("--tol", type=float, default=1e-9, help="state-equality tolerance (default 1e-9)")

    p_graph = sub.add_parser("graph", help="construct a graph (star:N, cycle:N, path:N, empty:N, file:PATH)")
    p_graph.add_argument("spec")
    output(p_graph, formats=("json", "dot"))
    p_graph.set_defaults(func=cmd_graph)

    p_apply = sub.add_parser("apply", help="apply lc:V / elc:A,B operations to a graph file")
    p_apply.add_argument("graph", help="graph JSON file, or - for stdin")
    p_apply.add_argument("ops", nargs="+", help="operations, e.g. lc:0 elc:1,2")
    p_apply.add_argument("--trace", action="store_true", help="emit every intermediate graph of the LC decomposition")
    output(p_apply)
    p_apply.set_defaults(func=cmd_apply)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help="theorem1 | vertex-lc | stabilizers | cs2 | chain:N")
    p_verify.add_argument("--trials", type=int, default=None, help="randomized-suite trial count")
    p_verify.add_argument("--seed", type=int, default=None, help="PRNG seed for randomized suites (default 0)")
    limits(p_verify)
    output(p_verify, formats=("json", "text"))
    p_verify.set_defaults(func=cmd_verify)

    p_encode = sub.add_parser("encode", help="build logical cluster states and report gate counts")
    p_encode.add_argument("--n-logical", type=int, default=2, help="even number of logical qubits (default 2)")
    p_encode.add_argument("--method", choices=("direct", "elc", "both"), default="both")
    limits(p_encode)
    output(p_encode)
    p_encode.set_defaults(func=cmd_encode)

    return parser


def main(argv=None) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    args = _PARSER.parse_args(argv)
    try:
        _check_out(args.out)  # every subcommand takes --out
        return args.func(args)
    except (GselcError, OSError, ValueError, MemoryError) as exc:
        # library and resource failures are one-line usage errors, never tracebacks
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
