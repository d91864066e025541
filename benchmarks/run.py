"""Benchmark launcher for nc2ent.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

Each workload runs in its own process (worker.py) as a closed loop with one
client, with OpenBLAS/OpenMP pinned to one thread. A run does a fixed number
of operations: whole rounds of the workload's input mix, as many as take
about S seconds at the workload's nominal rate, so every run with the same S
does the same work whatever the machine's speed.

--trace 0 prints the end-to-end metrics; set-up time is the median over
SETUP_SAMPLES fresh processes. --trace 1 runs the same operations untraced
and then traced, prints the per-layer metrics and the tracing overhead, and
writes the spans to benchmarks/results/. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("discrete-small", "discrete-large", "gcnot-surface", "modesplit-jobs")
SETUP_SAMPLES = 3
SMOKE_OPS = {"discrete-small": 20, "discrete-large": 2, "gcnot-surface": 2, "modesplit-jobs": 4}
RUN_BUDGET_S = 170          # a whole invocation ends within this, or fails
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE = time.monotonic() + RUN_BUDGET_S


class WorkerError(RuntimeError):
    pass


def worker(workload: str, seed: int, ops: int, mode: str, spans_out: Path | None = None) -> dict:
    """Run worker.py once and return its JSON line; the worker is killed if
    the invocation's time budget runs out."""
    env = dict(os.environ, **THREAD_PINS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--ops", str(ops), "--mode", mode]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    timeout = max(1.0, DEADLINE - time.monotonic())
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(run: dict, setup_samples: list[float]) -> dict:
    """Operations completed per second of timed time, latency percentiles in
    which a failed operation counts as the slowest operation of the run,
    set-up time and peak memory."""
    times = run["times_s"]
    failed = set(run["failed"])
    slowest = max(times)
    latencies = sorted(1e3 * (slowest if i in failed else t) for i, t in enumerate(times))
    return {
        "ops_per_s": {"value": (len(times) - len(failed)) / sum(times), "unit": "1/s"},
        "op_ms_p50": {"value": nearest_rank(latencies, 0.5), "unit": "ms"},
        "op_ms_p90": {"value": nearest_rank(latencies, 0.9), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MiB"},
    }


def report(run: dict, metrics: dict) -> dict:
    for line in run["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    for kind, count in run["failures"].items():
        print(f"failed operations: {count} x {kind}", file=sys.stderr)
    print(f"timed operations: {sum(run['times_s']):.3f} s at reference speed, "
          f"{sum(run['cpus_s']):.3f} s CPU, {sum(run['walls_s']):.3f} s wall", file=sys.stderr)
    return {"correct": run["error_count"] == 0, "attempted": len(run["times_s"]),
            "failed": len(run["failed"]), "metrics": metrics}


def measure(workload: str, seed: int, ops: int, setup_samples: int = SETUP_SAMPLES) -> dict:
    run = worker(workload, seed, ops, "run")
    setups = [run["setup_s"]] + [worker(workload, seed, ops, "setup")["setup_s"]
                                 for _ in range(setup_samples - 1)]
    return report(run, end_to_end(run, setups))


def measure_traced(workload: str, seed: int, ops: int) -> dict:
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{workload}-seed{seed}.json"
    plain = worker(workload, seed, ops, "run")
    traced = worker(workload, seed, ops, "trace", spans_out=spans)
    from tracing import metric_units  # imports nc2ent: main() has put src/ on the path
    units = metric_units()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in traced["per_layer"].items()}
    overhead = 100.0 * (sum(traced["times_s"]) / sum(plain["times_s"]) - 1.0)
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return report(traced, metrics)


def smoke() -> int:
    """Every workload at a few operations, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        for label, result in (("run", measure(workload, 0, SMOKE_OPS[workload], setup_samples=1)),
                              ("trace", measure_traced(workload, 0, SMOKE_OPS[workload]))):
            good = result["correct"] and result["attempted"] == SMOKE_OPS[workload]
            ok &= good
            print(json.dumps({"workload": workload, "mode": label, "correct": result["correct"],
                              "attempted": result["attempted"], "failed": result["failed"],
                              "metrics": len(result["metrics"])}))
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at a few operations")
    args = parser.parse_args()
    if not (HERE.parent / "src" / "nc2ent" / "__init__.py").is_file():
        print(f"no nc2ent sources under {HERE.parent / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        import workloads
        ops = workloads.op_count(workloads.WORKLOADS[args.workload], args.seconds)
        result = (measure_traced if args.trace else measure)(args.workload, args.seed, ops)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    tag = "trace" if args.trace else "run"
    (RESULTS / f"{tag}-{args.workload}-seed{args.seed}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
