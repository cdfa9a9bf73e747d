"""The benchmark's workloads, their output checks, and the workload child.

Each workload runs a fixed batch of cases per pass through the public
``gselc`` API and checks every output. Run as a script, this file is the
workload child started by ``run.py``: it builds the inputs from the seed,
runs passes until the time budget is spent, and prints one JSON line.

Workloads, and why each exists:

- ``encode-20q``: ``gselc verify cs2``, ``gselc verify chain:4`` and
  ``gselc encode --n-logical 4 --method both`` through ``gselc.cli.main``.
  About 140 gates on one evolving 20-qubit state per build, so the time is
  in the gate kernels, the per-gate copy and the norm check.
- ``theorem1-wide``: seeded pairs of graphs with 8-10 vertices each (16-20
  qubits) passed to ``gselc.verify_theorem1``. Each case prepares the graph
  states of the joined pair (32-40 edges) and of its ELC graph (58-77 edges)
  and applies three gates, which isolates state preparation from gate
  application. Each pass also runs the shared-neighbour scan once, as a
  negative control.
- ``sweep-small``: ``gselc verify theorem1``, ``vertex-lc`` and
  ``stabilizers`` through ``gselc.cli.main``: thousands of cases on at most
  12 qubits, where graph-object and per-call overhead outweigh the kernels.
  Runnable by name but not listed in ``BENCHMARK.json``: its pure-Python
  timings follow the speed swings of a shared host too closely to pass the
  benchmark's spread bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gselc
from gselc import cli, graph as gr, statevector as sv
from gselc.report import Report

from tracer import Patch, Tracer

HERE = Path(__file__).resolve().parent
CHAIN4_REFERENCE = HERE / "reference" / "chain4.json"
OUT_DIR = HERE / "out"
MAX_PROBLEMS_KEPT = 20


@dataclass
class PassResult:
    """One pass over a workload's batch: wall time, case latencies and check outcomes."""

    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str], cases: int = 1, failed: int | None = None):
        """Count ``cases`` attempted cases; they fail if ``problems`` is non-empty."""
        self.attempted += cases
        if failed is None:
            failed = cases if problems else 0
        self.failed += failed
        self.problems.extend(f"{label}: {p}" for p in problems)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``gselc`` invocation; returns the exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _checked(check, *args) -> list[str]:
    """Run an output check; output missing the expected fields is a failed check."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output ({type(exc).__name__}: {exc})"]


def _suite_doc(rc: int, text: str) -> tuple[list[str], dict]:
    """Exit code 0 and ``"passed": true`` in the JSON report."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    doc = json.loads(text)
    if doc.get("passed") is not True:
        problems.append("report says passed is not true")
    return problems, doc


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} is {got!r}, expected {want!r}")


SCAN_TRIALS = 50  # what ``gselc verify theorem1`` asks the scan for


def _scan_problems(scan: dict) -> list[str]:
    """Negative control: Theorem 1 excludes edges whose ends share a neighbour,
    so the shared-neighbour scan must check every case it was asked for and
    find at least one phase counterexample."""
    problems: list[str] = []
    _expect(problems, "scan cases_checked", scan["cases_checked"], SCAN_TRIALS)
    if scan["equal_up_to_phase"] >= scan["cases_checked"] or scan["first_counterexample"] is None:
        problems.append("negative control did not fire: scan found no phase counterexample")
    return problems


class Encode20q:
    name = "encode-20q"

    def __init__(self, seed: int):
        # the inputs are fixed command lines; the seed changes nothing here
        self.reference = CHAIN4_REFERENCE.read_text(encoding="utf-8")
        self.cases = [
            ("verify cs2", ["verify", "cs2"], self._check_cs2),
            ("verify chain:4", ["verify", "chain:4"], self._check_chain4),
            (
                "encode --n-logical 4",
                ["encode", "--n-logical", "4", "--method", "both"],
                self._check_encode,
            ),
        ]

    @staticmethod
    def _check_cs2(rc: int, text: str) -> list[str]:
        problems, doc = _suite_doc(rc, text)
        d = doc["details"]
        _expect(problems, "direct CZ count", d["direct"]["cz_count"], 35)
        _expect(problems, "logical CZ count", d["logical_cz_count"], 25)
        _expect(problems, "ELC CZ count", d["elc"]["cz_count"], 19)
        _expect(problems, "ELC Hadamard count", d["elc"]["hadamard_count"], 2)
        return problems

    def _check_chain4(self, rc: int, text: str) -> list[str]:
        problems, _ = _suite_doc(rc, text)
        if text != self.reference:
            problems.append(f"stdout differs from {CHAIN4_REFERENCE.name}")
        return problems

    @staticmethod
    def _check_encode(rc: int, text: str) -> list[str]:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        doc = json.loads(text)
        _expect(problems, "n_logical", doc["n_logical"], 4)
        by_name = {c["construction"]: c for c in doc["constructions"]}
        for name, cz in (("direct", 95), ("elc", 39)):
            _expect(problems, f"{name} CZ count", by_name[name]["cz_count"], cz)
            _expect(problems, f"{name} equal_to_reference", by_name[name]["equal_to_reference"], True)
        return problems

    def warm_up(self) -> None:
        run_cli(self.cases[-1][1])

    def run_pass(self, tamper=None, traced: bool = False) -> PassResult:
        res = PassResult()
        start = time.perf_counter()
        for label, argv, check in self.cases:
            t = time.perf_counter()
            out = run_cli(argv)
            res.latencies.append(time.perf_counter() - t)
            if tamper is not None:
                out = tamper(label, out)
            res.record(label, _checked(check, *out))
        res.seconds = time.perf_counter() - start
        return res


# theorem1-wide batch: every pair of sizes in 8..10. Edge counts and core
# degrees are fixed per size so that every seed costs the same; the seed
# draws which edges, which cores and which edge the negative control toggles.
THEOREM1_SIZES = tuple((n1, n2) for n1 in (8, 9, 10) for n2 in (8, 9, 10))
THEOREM1_EDGES = {8: 16, 9: 18, 10: 20}
THEOREM1_CORE_DEGREE = {8: 5, 9: 5, 10: 6}


@dataclass(frozen=True)
class Theorem1Case:
    g1: gr.Graph
    c1: int
    g2: gr.Graph
    c2: int
    toggle: tuple[int, int]

    @property
    def elc_edges(self) -> int:
        """Edges of the ELC graph: both graphs, the core edge, and the complete
        bipartite graph the ELC adds between the two core neighbourhoods."""
        d1 = self.g1.degree(self.c1)
        d2 = self.g2.degree(self.c2)
        return self.g1.edge_count + self.g2.edge_count + 1 + d1 * d2


def _graph_with_core(rng: np.random.Generator, n: int) -> tuple[gr.Graph, int]:
    core = int(rng.integers(n))
    others = [v for v in range(n) if v != core]
    degree = THEOREM1_CORE_DEGREE[n]
    nbrs = rng.choice(others, size=degree, replace=False)
    pairs = [(a, b) for i, a in enumerate(others) for b in others[i + 1 :]]
    rest = rng.choice(len(pairs), size=THEOREM1_EDGES[n] - degree, replace=False)
    edges = [(core, int(v)) for v in nbrs] + [pairs[int(k)] for k in rest]
    return gr.from_edges(n, edges), core


def theorem1_inputs(seed: int, sizes=THEOREM1_SIZES) -> list[Theorem1Case]:
    rng = np.random.default_rng(seed)
    cases = []
    for n1, n2 in sizes:
        g1, c1 = _graph_with_core(rng, n1)
        g2, c2 = _graph_with_core(rng, n2)
        u, v = sorted(int(x) for x in rng.choice(n1 + n2, size=2, replace=False))
        cases.append(Theorem1Case(g1, c1, g2, c2, (u, v)))
    return cases


class Theorem1Wide:
    name = "theorem1-wide"

    def __init__(self, seed: int, sizes=THEOREM1_SIZES):
        self.seed = seed
        self.cases = theorem1_inputs(seed, sizes)

    @staticmethod
    def _check(case: Theorem1Case, rep: Report) -> list[str]:
        problems = [] if rep.passed else ["report says passed is false"]
        n1, c2 = case.g1.n, case.c2 + case.g1.n
        _expect(problems, "n_qubits", rep.details["n_qubits"], n1 + case.g2.n)
        joined = gr.toggle_edge(gr.disjoint_union(case.g1, case.g2), case.c1, c2)
        elc = gr.elc_via_lcs(joined, case.c1, c2)
        rhs_edges = rep.details["rhs_graph_edges"]
        _expect(problems, "ELC edge count", len(rhs_edges), case.elc_edges)
        if rhs_edges != [list(e) for e in elc.edges()]:
            problems.append("ELC graph differs from the LC(a) LC(b) LC(a) composition")
        # negative control: one toggled edge must break exact equality
        lhs = sv.apply_gates(
            sv.graph_state(gr.disjoint_union(case.g1, case.g2)),
            [sv.Gate.cz(case.c1, c2), sv.Gate.h(case.c1), sv.Gate.h(c2)],
        )
        wrong = sv.graph_state(gr.toggle_edge(elc, *case.toggle))
        if sv.equal_exact(lhs, wrong):
            problems.append(f"negative control did not fire: toggled edge {case.toggle}")
        return problems

    def warm_up(self) -> None:
        case = self.cases[-1]
        self._check(case, gselc.verify_theorem1(case.g1, case.c1, case.g2, case.c2))

    def run_pass(self, tamper=None, traced: bool = False) -> PassResult:
        res = PassResult()
        start = time.perf_counter()
        for i, case in enumerate(self.cases):
            label = f"case {i} ({case.g1.n}+{case.g2.n} qubits)"
            t = time.perf_counter()
            rep = gselc.verify_theorem1(case.g1, case.c1, case.g2, case.c2)
            res.latencies.append(time.perf_counter() - t)
            if tamper is not None:
                rep = tamper(label, rep)
            res.record(label, _checked(self._check, case, rep))
        scan = sv.scan_theorem1_shared_neighbors(trials=SCAN_TRIALS, seed=self.seed)
        if tamper is not None:
            scan = tamper("shared-neighbour scan", scan)
        res.record("shared-neighbour scan", _checked(_scan_problems, scan.details))
        res.seconds = time.perf_counter() - start
        return res


SWEEP_THEOREM1_TRIALS = 1500
SWEEP_STABILIZER_TRIALS = 1000
# every graph on 0..5 labelled vertices, once per vertex
VERTEX_LC_CASES = sum(n << (n * (n - 1) // 2) for n in range(6))
SWEEP_VERIFY_FUNCTIONS = ("verify_theorem1", "verify_vertex_lc", "verify_stabilizers")


def _timed(fn, latencies: list[float]):
    def timed(*args, **kwargs):
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        latencies.append(time.perf_counter() - t)
        return out

    return timed


class SweepSmall:
    name = "sweep-small"

    def __init__(
        self,
        seed: int,
        theorem1_trials: int = SWEEP_THEOREM1_TRIALS,
        stabilizer_trials: int = SWEEP_STABILIZER_TRIALS,
    ):
        self.theorem1_trials = theorem1_trials
        self.stabilizer_trials = stabilizer_trials
        self.cases = [
            (
                "verify theorem1",
                ["verify", "theorem1", "--trials", str(theorem1_trials), "--seed", str(seed)],
                self._check_theorem1,
                theorem1_trials,
            ),
            ("verify vertex-lc", ["verify", "vertex-lc"], self._check_vertex_lc, VERTEX_LC_CASES),
            (
                "verify stabilizers",
                ["verify", "stabilizers", "--trials", str(stabilizer_trials), "--seed", str(seed)],
                self._check_stabilizers,
                stabilizer_trials,
            ),
        ]

    def _check_theorem1(self, rc: int, text: str) -> list[str]:
        problems, doc = _suite_doc(rc, text)
        d = doc["details"]
        _expect(problems, "trials", d["trials"], self.theorem1_trials)
        return problems + _scan_problems(d["shared_neighborhood_scan"])

    @staticmethod
    def _check_vertex_lc(rc: int, text: str) -> list[str]:
        problems, doc = _suite_doc(rc, text)
        _expect(problems, "cases_checked", doc["details"]["cases_checked"], VERTEX_LC_CASES)
        return problems

    def _check_stabilizers(self, rc: int, text: str) -> list[str]:
        problems, doc = _suite_doc(rc, text)
        _expect(problems, "trials", doc["details"]["trials"], self.stabilizer_trials)
        return problems

    def warm_up(self) -> None:
        run_cli(self.cases[-1][1])

    def run_pass(self, tamper=None, traced: bool = False) -> PassResult:
        """Cases are the CLI runs plus every library ``verify_*`` call inside them.

        Untraced, the ``verify_*`` calls are timed one by one for the latency
        percentiles; traced, the spans replace that timing.
        """
        res = PassResult()
        latencies: list[float] = []
        probe = contextlib.nullcontext()
        if not traced:
            fns = [getattr(sv, name) for name in SWEEP_VERIFY_FUNCTIONS]
            probe = Patch([(fn, _timed(fn, latencies)) for fn in fns])
        start = time.perf_counter()
        with probe:
            for label, argv, check, inner_cases in self.cases:
                rc, text = run_cli(argv)
                if tamper is not None:
                    rc, text = tamper(label, (rc, text))
                problems = _checked(check, rc, text)
                res.record(label, problems)
                try:
                    inner_failed = len(json.loads(text)["details"]["failures"])
                except (KeyError, TypeError, ValueError):
                    inner_failed = inner_cases
                res.record(f"{label} cases", [], cases=inner_cases, failed=min(inner_failed, inner_cases))
        res.seconds = time.perf_counter() - start
        if not traced:
            expected = sum(c[3] for c in self.cases)
            if len(latencies) != expected:
                res.record("verify_* calls", [f"{len(latencies)} timed, expected {expected}"])
            res.latencies = latencies
        return res


WORKLOADS = {w.name: w for w in (Encode20q, Theorem1Wide, SweepSmall)}

# Host-speed calibration: a fixed mix of interpreter work and array work on
# an array larger than a core's L2 cache, calling nothing in gselc. A shared
# host's speed drifts by up to 1.5x for minutes at a time; timed next to every
# pass, this shows how fast the host ran while the pass did.
CALIBRATION_LOOP = 1_200_000
CALIBRATION_AMPS = 1 << 19
CALIBRATION_ROUNDS = 80


def calibrate() -> float:
    """Seconds the calibration work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i
    a = np.full(CALIBRATION_AMPS, 0.5 + 0.5j)
    for _ in range(CALIBRATION_ROUNDS):
        b = a.copy()
        b *= 1j
        np.vdot(b, b)
    return time.perf_counter() - start


def run_passes(workload, budget_s: float, tracer: Tracer | None = None) -> list[dict]:
    """Passes until the next one would end past ``budget_s``; at least one.

    A timed calibration runs before the first pass and after every pass,
    outside the passes' times; each pass records the mean of the two that
    bracket it.
    """
    passes = []
    start = time.perf_counter()
    gc.collect()
    before_s = calibrate()
    while True:
        if tracer is not None:
            tracer.reset()
        res = workload.run_pass(traced=tracer is not None)
        gc.collect()
        after_s = calibrate()
        record = {
            "seconds": res.seconds,
            "calibration_s": (before_s + after_s) / 2,
            "latencies": res.latencies,
            "attempted": res.attempted,
            "failed": res.failed,
            "problems": res.problems[:MAX_PROBLEMS_KEPT],
        }
        if tracer is not None:
            record["layers"] = tracer.summary()
        passes.append(record)
        before_s = after_s
        if time.perf_counter() - start + res.seconds + after_s > budget_s:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark workload child; prints one JSON line")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    # the first run of the largest case, and of the calibration, pays for lazy
    # imports and for the allocator's first large blocks; later runs do not
    workload.warm_up()
    calibrate()
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    if args.trace:
        # untraced and traced passes share the budget; their difference is
        # the tracing overhead
        doc["passes"] = run_passes(workload, args.seconds / 2)
        tracer = Tracer()
        with tracer.patch():
            doc["traced_passes"] = run_passes(workload, args.seconds / 2, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        np.savez_compressed(spans_path, names=np.array(tracer.names), **tracer.arrays())
        doc["spans_file"] = str(spans_path.relative_to(HERE.parent))
    else:
        doc["passes"] = run_passes(workload, args.seconds)
    doc["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
