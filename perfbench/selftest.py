"""Smoke-size self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
- every metric ``BENCHMARK.json`` names is produced, on every workload, with
  tracing off and on (one pass each, ``--seconds 1``);
- a wrong verdict injected into the benchmark's own copy of a result counts
  as a failed case, raises ``failed_frac`` and makes the run incorrect;
- the seed changes the ``theorem1-wide`` inputs, and the same seed repeats them;
- without ``src/`` run.py exits nonzero and prints no result.

Exit code 0 when every check held, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from gselc.report import Report  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{label} exits 0 (got {proc.returncode}: {proc.stderr.strip()})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{label} reports every {key} metric with its unit")
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            check(result["correct"] and result["failed"] == 0, f"{label} passes its output checks")


def flip_verdict(label, output):
    """Tamper hook: report a failure where the program reported a pass."""
    if isinstance(output, Report):
        return Report(passed=False, details=output.details)
    rc, text = output
    doc = json.loads(text)
    doc["passed"] = False
    return rc, json.dumps(doc)


def injected_failures() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    batches = {
        "theorem1-wide": workloads.Theorem1Wide(1, sizes=[(8, 8), (8, 9)]),
        "sweep-small": workloads.SweepSmall(1, theorem1_trials=20, stabilizer_trials=20),
    }
    for name, workload in batches.items():
        clean = workload.run_pass()
        check(clean.failed == 0, f"{name}: untampered pass has no failures")
        first = [True]

        def tamper_first(label, output):
            if first[0]:
                first[0] = False
                return flip_verdict(label, output)
            return output

        res = workload.run_pass(tamper=tamper_first)
        check(res.failed >= 1, f"{name}: injected wrong verdict counts as a failed case")
        frac = run.failed_frac(res.attempted, res.failed)
        check(frac > 0, f"{name}: failed_frac {frac:.3g} > 0 after injection")
        child = {"passes": [{"attempted": res.attempted, "failed": res.failed, "seconds": res.seconds,
                             "latencies": res.latencies or [res.seconds],
                             "calibration_s": run.CALIBRATION_REFERENCE_S}],
                 "peak_rss_kb": 1}
        metrics = run.end_to_end(child, [0.1])
        result = run.result_line(spec["end_to_end"], metrics, res.attempted, res.failed)
        check(not result["correct"], f"{name}: result with an injected failure is not correct")
        check(metrics["pass_frac"] < 1, f"{name}: pass_frac {metrics['pass_frac']:.6g} < 1")


def seeds() -> None:
    a = workloads.theorem1_inputs(1)
    check(a == workloads.theorem1_inputs(1), "theorem1-wide: the same seed gives the same inputs")
    check(a != workloads.theorem1_inputs(2), "theorem1-wide: another seed gives other inputs")
    check(all(50 <= case.elc_edges <= 80 for case in a), "theorem1-wide: ELC graphs have 50-80 edges")


def refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without src/ run.py exits nonzero ({proc.returncode}) and prints no result")


if __name__ == "__main__":
    seeds()
    injected_failures()
    refuses_without_sources()
    metric_names()
    print(f"{len(failures)} failed")
    sys.exit(1 if failures else 0)
