"""ldpkit benchmark: CLI-driven workloads, end-to-end metrics, traced per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload ldp-planar --seed 1 --seconds 35 --trace 0

One process, one client, closed loop: the workload's fixed operation
list is run through `ldpkit.cli.main`, in-process, operation after
operation, round after round, while another round fits in `--seconds`
(at least one round runs).  Every round repeats the same inputs, which
come from `--seed`; every operation's artifacts are checked against an
oracle and must be bit-identical across rounds.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` untraced and traced rounds alternate and the last line
reports the per-layer metrics plus the tracing overhead.  The line
before it is a JSON report: environment, per-operation times, outcomes,
failure reasons and artifact fingerprints.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the values the process was started with; BLAS reads these at import time
INHERITED_THREADS = {v: os.environ.get(v) for v in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, suppress  # noqa: E402
from pathlib import Path  # noqa: E402

import yaml  # noqa: E402

from tracing import PER_LAYER, CoverageError, Tracer, check_coverage, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS, CheckFailed, Unconverged  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "pass_share": "ratio"}

# what a fresh user process does before its first operation
_SETUP_PROBE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "from ldpkit import cli; from ldpkit.models import make_model; "
    "[make_model(name, params) for name, params in json.loads(sys.argv[2])]"
)


def measure_setup(models: list) -> float:
    """Wall time of a fresh process that imports the CLI and makes the models."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), json.dumps(models)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_inherited": INHERITED_THREADS,
        "platform": platform.platform(),
    }


def fingerprint(out: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


def run_op(cli, op, config: Path, out: Path) -> dict:
    """One timed CLI call, then its output check outside the timed region."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    stderr = io.StringIO()
    crash = None
    t0 = time.perf_counter()
    try:
        with redirect_stderr(stderr):
            code = cli.main([op.command, "--config", str(config), "--out", str(out)])
    except Exception as err:  # a crash is one failed operation, not a failed run
        code, crash = None, f"{type(err).__name__}: {err}"
    seconds = time.perf_counter() - t0
    record = {"op": op.name, "seconds": seconds, "outcome": "pass", "reason": None}
    if code != 0:
        record.update(outcome="failed",
                      reason=crash or f"exit {code}: {stderr.getvalue().strip()}")
    else:
        try:
            op.check(out)
        except Unconverged as err:
            record.update(outcome="unconverged", reason=str(err))
        except CheckFailed as err:
            record.update(outcome="failed", reason=str(err))
        except Exception as err:  # an unreadable artifact fails the check
            record.update(outcome="failed", reason=f"{type(err).__name__}: {err}")
    record["artifacts"] = fingerprint(out)
    record["artifact_bytes"] = sum(f.stat().st_size for f in out.iterdir())
    return record


def run_round(cli, ops, configs, work: Path, first: dict | None) -> list[dict]:
    records = []
    for op, config in zip(ops, configs):
        rec = run_op(cli, op, config, work / "out" / f"{len(records)}")
        if first is not None and rec["artifacts"] != first[op.name]:
            changed = sorted(k for k in rec["artifacts"]
                             if rec["artifacts"][k] != first[op.name].get(k))
            rec.update(outcome="failed",
                       reason=f"artifacts differ from the first round: {changed}")
        records.append(rec)
    return records


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size_name: str = "full") -> tuple[dict, dict]:
    """Run one benchmark; returns (result line, report)."""
    loadavg = os.getloadavg()
    workload = WORKLOADS[workload_name]
    size = SIZES[size_name]
    models = workload.models(size)
    # set-up is timed once before each untraced round, and the rest at the
    # end, so that its median spans the run like the rounds do
    setup: list[float] = []
    setup_target = 0 if trace else SETUP_REPEATS

    sys.path.insert(0, str(SRC))
    from ldpkit import cli

    ops = workload.ops(random.Random(seed), size)
    work = ROOT / ".bench_work" / f"{workload_name}-{os.getpid()}"
    tracer = Tracer()
    rounds = []
    try:
        configs = []
        for i, op in enumerate(ops):
            path = work / "configs" / f"{i}.yaml"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(yaml.safe_dump(op.config, sort_keys=False))
            configs.append(path)

        first = None
        start = time.perf_counter()
        # untraced rounds; with tracing, untraced and traced rounds alternate
        kinds = [False, True] if trace else [False]
        while True:
            if setup_target > len(setup):
                setup.append(measure_setup(models))
            for traced in kinds:
                if traced:
                    tracer.spans.clear()
                    tracer.install()
                try:
                    records = run_round(cli, ops, configs, work, first)
                finally:
                    tracer.uninstall()
                if first is None:
                    first = {r["op"]: r["artifacts"] for r in records}
                rnd = {"traced": traced, "records": records,
                       "seconds": sum(r["seconds"] for r in records)}
                if traced:
                    rnd["layers"] = layer_metrics(
                        tracer.spans, sum(r["artifact_bytes"] for r in records))
                    check_coverage(rnd["layers"], workload.layers)
                rounds.append(rnd)
            elapsed = time.perf_counter() - start
            cycle = elapsed / (len(rounds) / len(kinds))
            if elapsed + cycle > seconds:
                break
        while setup_target > len(setup):
            setup.append(measure_setup(models))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    records = [r for rnd in rounds for r in rnd["records"]]
    attempted = len(records)
    failed = sum(r["outcome"] == "failed" for r in records)
    passed = sum(r["outcome"] == "pass" for r in records)
    untraced = [rnd["seconds"] for rnd in rounds if not rnd["traced"]]
    if trace:
        traced = [rnd for rnd in rounds if rnd["traced"]]
        values = {name: statistics.median(rnd["layers"][name] for rnd in traced)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(rnd["seconds"] for rnd in traced)
                                      - statistics.median(untraced))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_share": passed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {
        "workload": workload_name,
        "seed": seed,
        "size": size_name,
        "environment": {**environment(), "loadavg_start": loadavg},
        "setup_s": setup,
        "rounds": [{"traced": rnd["traced"], "seconds": rnd["seconds"]} for rnd in rounds],
        "operations": [
            {k: r[k] for k in ("op", "seconds", "outcome", "reason")} for r in records
        ],
        "fingerprints": {"seed": seed, "artifacts": first},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny: the smoke test's operation sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "ldpkit" / "__init__.py").is_file():
        print(f"bench: no ldpkit sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.size)
    except CoverageError as err:
        print(f"bench: trace coverage check failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
