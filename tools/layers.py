"""Per-layer timings of gselc, written to BENCH_<label>.json.

    python3 tools/layers.py --label NAME [--repeat 7] [--src src] [--out .]

Each layer is run once to warm up, then ``--repeat`` times under
``time.perf_counter``; the record keeps the best and the median. In-process
layers also get one more run under ``tracemalloc`` for their traced peak
(Python and numpy allocations). The CLI layers run as subprocesses, each
timed from start to exit, with the peak RSS of the child as
``os.wait4`` reports it; ``gselc encode --n-logical 4`` is also timed in
process through ``cli.main``, stdout captured, for the parser and the build
per call. ``--src`` picks the tree under test, so one copy of this script can
time another checkout. Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
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
# the shortcut build's CLI runs, with the argv of their goldens
CLI_RUNS = {
    "cli: gselc encode --n-logical 4": ["encode", "--n-logical", "4"],
    "cli: gselc verify chain:4": ["verify", "chain:4"],
}


def in_process_layers():
    """(name, parameters, zero-argument call) for each in-process layer, bottom up."""
    import numpy as np

    from gselc import cli
    from gselc import encoding as enc
    from gselc import graph as gr
    from gselc import statevector as sv

    dense = gr.random_graph(np.random.default_rng(0), 20)
    path = sv.graph_state(gr.path(20))
    rng = np.random.default_rng(4200)
    g1, g2 = gr.random_graph(rng, 10), gr.random_graph(rng, 10)
    rng = np.random.default_rng(4300)
    s1, s2 = gr.random_graph(rng, 6), gr.random_graph(rng, 6)
    m1, m2 = gr.random_graph(rng, 8), gr.random_graph(rng, 8)
    cz, h = sv.Gate.cz, sv.Gate.h
    return [
        ("sign vector: _sign_vector(20, rows)", {"n": 20, "graph": "random_graph(default_rng(0), 20)",
                                                 "edges": dense.edge_count},
         lambda: sv._sign_vector(20, dense.rows)),
        ("state: graph_state(path(20))", {"n": 20}, lambda: sv.graph_state(gr.path(20))),
        ("kernel: apply_gates [CZ(3, 17)]", {"n": 20, "state": "graph_state(path(20))"},
         lambda: sv.apply_gates(path, [cz(3, 17)])),
        ("kernel: apply_gates [CZ(3, 17), H(0), H(1)]", {"n": 20, "state": "graph_state(path(20))"},
         lambda: sv.apply_gates(path, [cz(3, 17), h(0), h(1)])),
        ("build: build_logical_cluster(2)", {"n": 10}, lambda: enc.build_logical_cluster(2)),
        ("build: build_logical_cluster(4)", {"n": 20}, lambda: enc.build_logical_cluster(4)),
        ("cli in process: main(['encode', '--n-logical', '4'])", {"n": 20, "stdout": "captured"},
         lambda: in_process_cli(cli, ["encode", "--n-logical", "4"])),
        ("verify: verify_theorem1, 12 qubits (dense oracle)",
         {"n": 12, "graphs": "random_graph(default_rng(4300), 6) twice", "cores": [2, 3]},
         lambda: sv.verify_theorem1(s1, 2, s2, 3)),
        ("verify: verify_theorem1, 16 qubits, core at qubit 15 (one 2^16 tile, class walk)",
         {"n": 16, "graphs": "random_graph(default_rng(4300), 8) twice, after the 6-vertex pair", "cores": [4, 15]},
         lambda: sv.verify_theorem1(m1, 4, m2, 7)),
        ("verify: verify_theorem1, 20 qubits", {"n": 20, "graphs": "random_graph(default_rng(4200), 10) twice",
                                                "cores": [3, 9]},
         lambda: sv.verify_theorem1(g1, 3, g2, 9)),
    ]


def in_process_cli(cli, argv: list[str]) -> None:
    """One ``cli.main`` call in this interpreter, its output captured: the parser and the build,
    without the interpreter start and the imports that the subprocess runs below also time."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"gselc {' '.join(argv)} exited non-zero")


def time_calls(call, repeat: int) -> list[float]:
    call()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return times


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_cli(argv: list[str], src: Path) -> tuple[float, float]:
    """Wall time and peak RSS (MB) of one ``gselc`` run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", "from gselc.cli import run; run()", *argv],
                             env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"gselc {' '.join(argv)} exited {child.returncode}")
    return elapsed, usage.ru_maxrss / 1024  # KB on Linux


def record(name: str, params: dict, times: list[float], peak_key: str, peak: float) -> dict:
    return {"layer": name, "params": params, "runs": len(times), "best_s": min(times),
            "median_s": statistics.median(times), peak_key: round(peak, 3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="file name part: BENCH_<label>.json")
    parser.add_argument("--repeat", type=int, default=7, help="timed runs per layer (default 7)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the tree under test")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory for the JSON file")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    records = []
    for name, params, call in in_process_layers():
        times = time_calls(call, args.repeat)
        records.append(record(name, params, times, "traced_peak_mb", traced_peak_mb(call)))
    for name, cli_argv in CLI_RUNS.items():
        runs = [run_cli(cli_argv, src) for _ in range(args.repeat + 1)][1:]  # the first warms the file cache
        records.append(record(name, {"argv": cli_argv}, [t for t, _ in runs], "peak_rss_mb", max(p for _, p in runs)))
    doc = {
        "label": args.label,
        "repeat": args.repeat,
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "layers": records,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for r in records:
        peak = r.get("traced_peak_mb", r.get("peak_rss_mb"))
        print(f"{r['median_s'] * 1e3:9.3f} ms median {r['best_s'] * 1e3:9.3f} ms best {peak:8.3f} MB  {r['layer']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
