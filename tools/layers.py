"""Per-layer timings of gselc, written to BENCH_<label>.json.

    python3 tools/layers.py --label NAME [--repeat 7] [--src src] [--out .]
    python3 tools/layers.py --label A --src TREE_A --label B --src TREE_B [...]

Each layer is run once to warm up, then ``--repeat`` times under
``time.perf_counter``; the record keeps the best and the median. In-process
layers also get one more run under ``tracemalloc`` for their traced peak
(Python and numpy allocations). The bit-row graph ops, the bottom layer, make
``GRAPH_OP_CALLS`` calls per timed run. The CLI layers run as subprocesses, each
timed from start to exit, with the peak RSS of the child as the child reads it
from ``/proc/self/status`` (Linux); ``gselc encode --n-logical 4`` is also timed in
process through ``cli.main``, stdout captured, for the parser and the build
per call. ``--src`` picks the tree under test, so one copy of this script can
time another checkout. Given twice, with two labels, it times two trees in one
run (A/B mode): both packages are imported side by side, and each repeat of a
layer runs both trees, first A then B, then B then A, so that a drift of the
host's speed falls on both; each tree gets its own BENCH_<label>.json. A layer
whose call a tree does not have (the batched graph-state builder, in a tree
from before it) is left out of that tree's file. Standard library and numpy
only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a bit-row graph op takes microseconds: each of its timed runs makes this many calls
GRAPH_OP_CALLS = 1000
# a gselc CLI run that writes its peak resident set, the VmHWM line, to stderr as it exits
CLI_CHILD = """import atexit, sys
def peak():
    with open("/proc/self/status") as status:
        print(next(line for line in status if line.startswith("VmHWM:")), end="", file=sys.stderr)
atexit.register(peak)
from gselc.cli import run
run()
"""
# CLI runs, each with the argv of its golden: the shortcut build's two, then the other suites
CLI_RUNS = {
    "cli: gselc encode --n-logical 4": ["encode", "--n-logical", "4"],
    "cli: gselc verify chain:4": ["verify", "chain:4"],
    "cli: gselc verify theorem1 --seed 0": ["verify", "theorem1", "--seed", "0"],
    "cli: gselc verify stabilizers --seed 0": ["verify", "stabilizers", "--seed", "0"],
    "cli: gselc verify cs2": ["verify", "cs2"],
    "cli: gselc verify vertex-lc": ["verify", "vertex-lc"],
}


def load_tree(src: Path, name: str) -> str:
    """Import the ``gselc`` package under ``src`` as the top-level package ``name``, so that two
    trees load side by side (the package imports its modules relatively); returns ``name``."""
    init = src / "gselc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no gselc package under {src}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return name


def in_process_layers(package: str):
    """(name, parameters, zero-argument call) for each in-process layer of the loaded ``package``, bottom up."""
    import numpy as np

    cli, enc, gr, sv = (importlib.import_module(f"{package}.{m}") for m in ("cli", "encoding", "graph", "statevector"))

    dense = gr.random_graph(np.random.default_rng(0), 20)
    a, b = dense.edges()[0]
    pairs = [(i, j) for i in range(20) for j in range(i + 1, 20)]
    hundred = [pairs[int(k)] for k in np.random.default_rng(1).choice(len(pairs), 100, replace=False)]
    path = sv.graph_state(gr.path(20))
    rng = np.random.default_rng(4200)
    g1, g2 = gr.random_graph(rng, 10), gr.random_graph(rng, 10)
    union = gr.disjoint_union(g1, g2)
    toggled = gr.toggle_edge(gr.edge_local_complement(gr.toggle_edge(union, 1, 14), 1, 14), 0, 19)
    rng = np.random.default_rng(4300)
    s1, s2 = gr.random_graph(rng, 6), gr.random_graph(rng, 6)
    m1, m2 = gr.random_graph(rng, 8), gr.random_graph(rng, 8)
    rng = np.random.default_rng(4400)
    eights = [gr.random_graph(rng, 8) for _ in range(50)]
    batch = getattr(sv, "_graph_states", None)
    cz, h = sv.Gate.cz, sv.Gate.h
    seeded = {"graph": "random_graph(default_rng(0), 20)", "edges": dense.edge_count, "calls": GRAPH_OP_CALLS}
    return [
        ("graph op: local_complement(g, 0)", seeded, repeated(lambda: gr.local_complement(dense, 0))),
        (f"graph op: edge_local_complement(g, {a}, {b})", seeded,
         repeated(lambda: gr.edge_local_complement(dense, a, b))),
        ("graph op: mask_vertices((1 << 20) - 1)", {"calls": GRAPH_OP_CALLS},
         repeated(lambda: gr.mask_vertices((1 << 20) - 1))),
        ("graph op: from_edges(20, 100 edges)", {"edges": "100 of the 190 pairs, default_rng(1)",
                                                 "calls": GRAPH_OP_CALLS},
         repeated(lambda: gr.from_edges(20, hundred))),
        ("sign vector: _sign_vector(20, rows)", {"n": 20, "graph": "random_graph(default_rng(0), 20)",
                                                 "edges": dense.edge_count},
         lambda: sv._sign_vector(20, dense.rows)),
        ("state: graph_state(path(20))", {"n": 20}, lambda: sv.graph_state(gr.path(20))),
        ("state batch: _graph_states(8, 50 graphs)", {"n": 8, "graphs": "random_graph(default_rng(4400), 8) 50 times"},
         None if batch is None else lambda: batch(8, eights)),
        ("state: graph_state of the same 50 graphs, one at a time", {"n": 8, "graphs": "as the batch"},
         lambda: [sv.graph_state(g) for g in eights]),
        ("kernel: apply_gates [CZ(3, 17)]", {"n": 20, "state": "graph_state(path(20))"},
         lambda: sv.apply_gates(path, [cz(3, 17)])),
        ("kernel: apply_gates [CZ(3, 17), H(0), H(1)]", {"n": 20, "state": "graph_state(path(20))"},
         lambda: sv.apply_gates(path, [cz(3, 17), h(0), h(1)])),
        ("kernel: apply_gates [H(1)]", {"n": 20, "state": "graph_state(path(20))", "dtype": "float64"},
         lambda: sv.apply_gates(path, [h(1)])),
        ("build: build_logical_cluster(2)", {"n": 10}, lambda: enc.build_logical_cluster(2)),
        ("build: build_logical_cluster(4)", {"n": 20}, lambda: enc.build_logical_cluster(4)),
        ("cli in process: main(['encode', '--n-logical', '4'])", {"n": 20, "stdout": "captured"},
         lambda: in_process_cli(cli, ["encode", "--n-logical", "4"])),
        ("verify: verify_theorem1, 12 qubits (dense oracle)",
         {"n": 12, "graphs": "random_graph(default_rng(4300), 6) twice", "cores": [2, 3]},
         lambda: sv.verify_theorem1(s1, 2, s2, 3)),
        ("verify: verify_theorem1, 16 qubits, core at qubit 15 (one 2^16 tile)",
         {"n": 16, "graphs": "random_graph(default_rng(4300), 8) twice, after the 6-vertex pair", "cores": [4, 15]},
         lambda: sv.verify_theorem1(m1, 4, m2, 7)),
        ("verify: verify_theorem1, 20 qubits", {"n": 20, "graphs": "random_graph(default_rng(4200), 10) twice",
                                                "cores": [3, 9]},
         lambda: sv.verify_theorem1(g1, 3, g2, 9)),
        ("negative control: graph_state, apply_gates [CZ(1, 14), H(1), H(14)], toggled graph_state, equal_exact",
         {"n": 20, "graphs": "random_graph(default_rng(4200), 10) twice", "cores": [1, 14],
          "toggled": "edge (0, 19) of the ELC graph"},
         lambda: negative_control(sv, union, toggled)),
        ("scan: scan_theorem1_shared_neighbors(trials=50, seed=1)", {"trials": 50, "seed": 1, "n": "3-8"},
         lambda: sv.scan_theorem1_shared_neighbors(trials=50, seed=1)),
    ]


def negative_control(sv, union, toggled) -> None:
    """Theorem 1's dense negative control, as the benchmark's ``theorem1-wide`` runs it: the joined
    pair's graph state, one CZ and H on each core, against the ELC graph with one edge toggled."""
    lhs = sv.apply_gates(sv.graph_state(union), [sv.Gate.cz(1, 14), sv.Gate.h(1), sv.Gate.h(14)])
    if sv.equal_exact(lhs, sv.graph_state(toggled)):
        raise SystemExit("the negative control found a toggled edge equal")


def repeated(call):
    """``call`` made ``GRAPH_OP_CALLS`` times in one run."""

    def run():
        for _ in range(GRAPH_OP_CALLS):
            call()

    return run


def in_process_cli(cli, argv: list[str]) -> None:
    """One ``cli.main`` call in this interpreter, its output captured: the parser and the build,
    without the interpreter start and the imports that the subprocess runs below also time."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"gselc {' '.join(argv)} exited non-zero")


def alternated(calls, repeat: int) -> list[list]:
    """Each of ``calls`` made once to warm up, then ``repeat`` times in turn, the order reversed on
    every other repeat; the results, by call."""
    for call in calls:
        call()
    results = [[] for _ in calls]
    for r in range(repeat):
        for i in range(len(calls)) if r % 2 == 0 else reversed(range(len(calls))):
            results[i].append(calls[i]())
    return results


def timed(call):
    """``call`` as a call that returns its wall time."""

    def run() -> float:
        start = time.perf_counter()
        call()
        return time.perf_counter() - start

    return run


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_cli(argv: list[str], src: Path) -> tuple[float, float]:
    """Wall time and peak RSS (MB) of one ``gselc`` run in a fresh interpreter.

    The peak is the child's own high-water mark, which it reads from ``/proc/self/status`` (Linux) as
    it exits. ``os.wait4``'s ``ru_maxrss`` would not do: a spawned child inherits the resident set of
    this process as its high-water mark at exec, so it would read this process's size.
    """
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", CLI_CHILD, *argv], env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if child.returncode != 0:
        raise SystemExit(f"gselc {' '.join(argv)} exited {child.returncode}")
    return elapsed, int(child.stderr.split()[-2]) / 1024  # "VmHWM: <kB> kB"


def record(name: str, params: dict, times: list[float], peak_key: str, peak: float) -> dict:
    return {"layer": name, "params": params, "runs": len(times), "best_s": min(times),
            "median_s": statistics.median(times), peak_key: round(peak, 3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", action="append", required=True,
                        help="file name part: BENCH_<label>.json; twice, with --src twice, for A/B mode")
    parser.add_argument("--repeat", type=int, default=7, help="timed runs per layer (default 7)")
    parser.add_argument("--src", type=Path, action="append", help="the tree under test (default src); twice for A/B mode")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory for the JSON files")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    srcs = [src.resolve() for src in args.src or [ROOT / "src"]]
    if len(srcs) > 2 or len(args.label) != len(srcs) or len(set(args.label)) != len(srcs):
        parser.error("give one --label and at most one --src, or two distinct labels and two --src")
    packages = [load_tree(src, f"gselc_tree{i}") for i, src in enumerate(srcs)]
    import numpy as np

    records = [[] for _ in srcs]
    for layers in zip(*map(in_process_layers, packages)):
        present = [(rec, layer) for rec, layer in zip(records, layers) if layer[2] is not None]
        times = alternated([timed(call) for _, (_, _, call) in present], args.repeat)
        for (rec, (name, params, call)), t in zip(present, times):
            rec.append(record(name, params, t, "traced_peak_mb", traced_peak_mb(call)))
    for name, cli_argv in CLI_RUNS.items():
        # the warm-up run also warms the file cache
        runs = alternated([lambda src=src: run_cli(cli_argv, src) for src in srcs], args.repeat)
        for rec, r in zip(records, runs):
            rec.append(record(name, {"argv": cli_argv}, [t for t, _ in r], "peak_rss_mb", max(p for _, p in r)))
    host = {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "cpus": os.cpu_count()}
    for label, rec in zip(args.label, records):
        other = [x for x in args.label if x != label]
        doc = {"label": label, "repeat": args.repeat, "alternated_with": other[0] if other else None,
               "host": host, "layers": rec}
        path = args.out / f"BENCH_{label}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        for r in rec:
            peak = r.get("traced_peak_mb", r.get("peak_rss_mb"))
            print(f"{r['median_s'] * 1e3:9.3f} ms median {r['best_s'] * 1e3:9.3f} ms best {peak:8.3f} MB  {r['layer']}")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
