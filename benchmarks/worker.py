"""One workload in one process: generate the inputs, warm up, run every
operation in a closed loop with one client, check each output after its timer
stops, and print one JSON line.

Started by run.py with the BLAS thread count pinned to 1. Modes:
  run    time every operation
  setup  stop before the first timed operation (a set-up sample)
  trace  as run, with spans recorded around the library's public functions

Times are CPU time at a fixed reference speed. This machine switches between
a fast state and one about 40 % slower, for fractions of a second up to
minutes, and the share of slow time changes from run to run. So a probe, a
fixed task of the same two kinds of work as the operations, runs between
operations. Each operation's CPU time is scaled by REFERENCE_PROBE_S over the
mean of the probes before and after it; the raw CPU time is reported too.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "nc2ent" / "__init__.py").is_file():
    sys.exit(f"no nc2ent sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (needs src on the path)
from tracing import Tracer  # noqa: E402

MAX_REPORTED_ERRORS = 5
WARMUP_SEED = 2**32 - 1
REFERENCE_PROBE_S = 0.75e-3  # about the probe's CPU time in the fast state
SETUP_PROBES = 3            # probes after the imports and again after warm-up
_PROBE_MATRIX = np.add.outer(np.arange(16.0), np.arange(16.0)) % 5


def probe() -> float:
    """CPU seconds of a fixed task: a pure-Python loop and small symmetric
    eigenproblems, the interpreter and LAPACK work the operations do."""
    start = time.process_time()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    for _ in range(6):
        np.linalg.eigvalsh(_PROBE_MATRIX)
    return time.process_time() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace"), default="run")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    early_probe = statistics.median(probe() for _ in range(SETUP_PROBES))
    inputs = wl.inputs(args.seed, args.ops)
    # one untimed warm-up operation of each kind, on inputs that do not depend on the seed
    for warm in {_kind(x): x for x in wl.inputs(WARMUP_SEED, wl.round_size)}.values():
        try:
            wl.run(warm)
        except Exception:
            if not wl.may_fail(warm):
                raise
    # CPU time of this process since it started: interpreter start-up, imports,
    # input generation and warm-up
    usage = resource.getrusage(resource.RUSAGE_SELF)
    setup_cpu_s = usage.ru_utime + usage.ru_stime
    late_probe = statistics.median(probe() for _ in range(SETUP_PROBES))
    setup_s = setup_cpu_s * 2.0 * REFERENCE_PROBE_S / (early_probe + late_probe)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s}))
        return 0

    tracer = Tracer() if args.mode == "trace" else None
    run = wl.run
    if tracer is not None:
        tracer.install()
        run = tracer.root(wl.run)
    cpus, walls, probes, failed, errors, failures = [], [], [probe()], [], [], {}
    for index, inp in enumerate(inputs):
        wall = time.perf_counter()
        start = time.process_time()
        try:
            out = run(inp)
        except Exception as exc:
            out = exc
        cpus.append(time.process_time() - start)
        walls.append(time.perf_counter() - wall)
        if isinstance(out, Exception):
            failed.append(index)
            key = f"{type(out).__name__}: {str(out).split('=')[0]}"
            failures[key] = failures.get(key, 0) + 1
            if not wl.may_fail(inp):
                errors.append(f"operation {index}: raised {key}")
        else:
            try:
                wl.check(inp, out)
            except workloads.CheckFailure as exc:
                errors.append(f"operation {index}: {exc}")
            except Exception:
                errors.append(f"operation {index}: check raised\n{traceback.format_exc()}")
        probes.append(probe())
    if tracer is not None:
        tracer.uninstall()
    times = [2.0 * REFERENCE_PROBE_S * t / (before + after)
             for t, before, after in zip(cpus, probes, probes[1:])]

    result = {
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "times_s": times,
        "cpus_s": cpus,
        "walls_s": walls,
        "failed": failed,
        "failures": failures,
        "errors": errors[:MAX_REPORTED_ERRORS],
        "error_count": len(errors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))
    return 0


def _kind(inp) -> tuple:
    """Operations of one kind share a code path: discrete edge or regular
    operations, modesplit jobs by mode and input, one kind for gcnot."""
    return (getattr(inp, "edge", None), getattr(inp, "max_rounds", None),
            len(getattr(inp, "unitaries", ())))


if __name__ == "__main__":
    sys.exit(main())
