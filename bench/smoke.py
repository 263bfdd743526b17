"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke.py

Runs every workload in BENCHMARK.json once untraced and once traced with
`--size tiny`.  It checks that the result line has the metrics and units
BENCHMARK.json lists, that no operation failed, that every operation
that did not pass carries a reason, and that the traced run passes its
coverage self-check (run.py exits 1 when that check fails).  Last, it
checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark's
files.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import suppress
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: {message}")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = run_bench(ROOT, workload, trace)
            require(proc.returncode == 0,
                    f"{label} exited {proc.returncode}:\n{proc.stderr}")
            *_, report_line, result_line = proc.stdout.splitlines()
            report = json.loads(report_line)["report"]
            result = json.loads(result_line)
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{label}: result keys {sorted(result)}")
            require(result["attempted"] >= 1, f"{label}: nothing attempted")
            require(result["correct"] and result["failed"] == 0,
                    f"{label}: failed operations {report['operations']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == units[trace], f"{label}: metrics {got}")
            for op in report["operations"]:
                require(op["outcome"] == "pass" or bool(op["reason"]),
                        f"{label}: {op['op']} is {op['outcome']} without a reason")
            require(report["fingerprints"]["seed"] == 1, f"{label}: fingerprint seed")
            outcomes = [op["outcome"] for op in report["operations"]]
            print(f"ok  {label}: attempted {result['attempted']}, outcomes "
                  f"{ {o: outcomes.count(o) for o in sorted(set(outcomes))} }")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench(bare, workloads[0], 0)
        require(proc.returncode != 0 and not proc.stdout.strip(),
                f"without sources the benchmark exited {proc.returncode} and printed "
                f"{proc.stdout!r}")
        print("ok  refuses to run without the ldpkit sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with suppress(OSError):
            bare.parent.rmdir()  # only when no benchmark run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
