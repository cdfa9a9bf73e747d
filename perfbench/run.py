"""Benchmark entry point for gselc: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload encode-20q --seed 1 --seconds 55 --trace 0

It measures set-up time in fresh interpreters, then runs the
workload in a single child process (``workloads.py``) with BLAS thread
pools pinned to 1, against ``src/`` through ``PYTHONPATH``. Pass and case
times are scaled to a host of reference speed by a calibration timed next to
every pass (see ``host_scale``). With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it reports the per-layer metrics from a traced run. The last
line of stdout is the result JSON. The exit code is 0 when every output
check and negative control held, 1 when one failed, 2 when the benchmark
could not run. A full record with the environment is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOADS = ("encode-20q", "theorem1-wide", "sweep-small")
# fresh interpreters timed on each side of the workload child, so that set-up
# time is sampled at two moments of the host's speed
SETUP_RUNS = 8
SETUP_PROGRAM = "import gselc.cli; gselc.cli.build_parser()"
# workloads.calibrate() takes about this long on the 2-vCPU host whose runs
# set the bounds in BENCHMARK.json; host-scaled times are in its seconds
CALIBRATION_REFERENCE_S = 0.2
RUN_TIMEOUT_S = 160  # for the child; the set-up runs after it need a few more
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not run; reported on stderr with exit code 2."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({name: "1" for name in PINNED_THREADS})
    return env


def measure_setup(env: dict[str, str], runs: int) -> list[float]:
    """Wall time from a fresh interpreter to ``gselc.cli`` imported and its parser built."""
    times = []
    for _ in range(runs):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROGRAM], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t)
    return times


def run_child(args: argparse.Namespace, env: dict[str, str], timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload child exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def totals(passes: list[dict]) -> tuple[int, int]:
    return sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes)


def host_scale(calibration_s: float) -> float:
    """Reference calibration time over a measured one.

    A shared host runs the same pass from 3.2 to 5.7 s within ten minutes, in
    stretches of tens of seconds to minutes, so a whole run, or a whole set of
    runs, can fall in a slow stretch. ``workloads.calibrate`` runs before and
    after every pass and calls nothing in gselc; scaled by this factor, a time
    reads as it would on a host of reference speed. The calibration follows
    the host and not the program: a slower program still reads slower.
    """
    return CALIBRATION_REFERENCE_S / calibration_s


def case_latencies(passes: list[dict]) -> list[float]:
    """Each case's median host-scaled latency over the passes; every pass runs
    the same batch."""
    scaled = ([t * host_scale(p["calibration_s"]) for t in p["latencies"]] for p in passes)
    return [median(repeats) for repeats in zip(*scaled)]


def pass_s(passes: list[dict]) -> float:
    """Median host-scaled pass wall time."""
    return median(p["seconds"] * host_scale(p["calibration_s"]) for p in passes)


def end_to_end(child: dict, setup_times: list[float]) -> dict[str, float]:
    passes = child["passes"]
    latencies = case_latencies(passes)
    attempted, failed = totals(passes)
    return {
        # set-up runs just before and after the child, so the child's
        # calibrations tell the host's speed for it too
        "setup_s": median(setup_times) * host_scale(median(p["calibration_s"] for p in passes)),
        "verdict_s": pass_s(passes),
        "case_ms_p50": median(latencies) * 1e3,
        "case_ms_p99": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": child["peak_rss_kb"] / 1024,
        "pass_frac": (attempted - failed) / attempted,
    }


def per_layer(child: dict) -> dict[str, float]:
    """Counts from the last traced pass, layer times as the median over traced
    passes, pass times host-scaled as for ``verdict_s``."""
    traced = child["traced_passes"]
    metrics = dict(traced[-1]["layers"])
    for name in metrics:
        if name.endswith("self_s"):
            metrics[name] = median(p["layers"][name] for p in traced)
    traced_s = pass_s(traced)
    untraced_s = pass_s(child["passes"])
    metrics["trace.verdict_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    return metrics


def failed_frac(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def result_line(spec: list[dict], metrics: dict[str, float], attempted: int, failed: int) -> dict:
    """The result object; only the metrics ``BENCHMARK.json`` names, in its units."""
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }


def environment(seed: int, child: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gselc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        # the ceiling keeps git from reading any directory above the checkout
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass  # not a git checkout; the source digest identifies the code
    return {
        "python": child["python"],
        "numpy": child["numpy"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if not (SRC / "gselc" / "cli.py").is_file():
            raise BenchError(f"no gselc sources under {SRC}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        env = child_env()
        setup_times = []
        if not args.trace:
            # the first launch is discarded: it may compile bytecode, which
            # later launches reuse
            setup_times = measure_setup(env, SETUP_RUNS + 1)[1:]
        child = run_child(args, env, RUN_TIMEOUT_S - (time.perf_counter() - started))
        if not args.trace:
            setup_times += measure_setup(env, SETUP_RUNS)
        attempted, failed = totals(child["passes"] + child.get("traced_passes", []))
        if args.trace:
            metrics, names = per_layer(child), spec["per_layer"]
        else:
            metrics, names = end_to_end(child, setup_times), spec["end_to_end"]
        result = result_line(names, metrics, attempted, failed)
    except (BenchError, OSError, ValueError, KeyError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2

    record = {
        "environment": environment(args.seed, child),
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        # the latency percentiles are taken over the batch's cases, each case
        # timed once per pass and represented by its median
        "cases_per_pass": len(case_latencies(child["passes"])),
        "passes": len(child["passes"]),
        "failed_frac": failed_frac(attempted, failed),
        "setup_runs_s": setup_times,
        "passes_s": [p["seconds"] for p in child["passes"]],
        "calibration_s": [p["calibration_s"] for p in child["passes"]],
        "traced_passes_s": [p["seconds"] for p in child.get("traced_passes", [])],
        "problems": [x for p in child["passes"] + child.get("traced_passes", []) for x in p["problems"]],
        "spans_file": child.get("spans_file"),
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"samples cases_per_pass={record['cases_per_pass']} passes={record['passes']} "
          f"failed_frac={record['failed_frac']:.6g}")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
