"""Reference figures: the single-call timings that ROADMAP North star §1 lists
as the first baseline, re-measured with this benchmark's settings.

    python3 benchmarks/reference.py

Prints one JSON object and writes it to benchmarks/results/reference.json.
Each library timing is the median wall time of a few calls in one process
with OpenBLAS pinned to one thread (set by this script before numpy loads).
symmetric_power_matrix at dimension 12376 writes a dense 12376 x 12376
complex matrix (up to 2.4 GB, touched sparsely).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

import nc2ent as nc  # noqa: E402


def median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def conversion_ms(dim: int, repeats: int) -> float:
    cs = nc.random_classical_set(dim, np.random.default_rng(dim))
    split = nc.make_split(cs, nc.default_epsilon(cs))
    return median_ms(lambda: nc.build_conversion(cs, split), repeats)


def tunneling_matrix_ms() -> float:
    """symmetric_power_matrix on Sym^6(C^12): the collective tunneling
    rotation of K=6 levels in two modes, dimension C(17, 11) = 12376."""
    k, n = 6, 6
    r, t = 0.6, 0.8
    eye = np.eye(k)
    single = np.block([[r * eye, t * eye], [t * eye, -r * eye]])
    assert math.comb(n + 2 * k - 1, 2 * k - 1) == 12376
    return median_ms(lambda: nc.symmetric_power_matrix(single, n), 1)


def command_s(args: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=REPO, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return elapsed


def main() -> int:
    zero = nc.basis_state(2, 0)
    figures = {
        "build_conversion_ms": {"D=8": conversion_ms(8, 9), "D=16": conversion_ms(16, 5),
                                "D=32": conversion_ms(32, 3)},
        "sweep_surface_64x64_ms": median_ms(
            lambda: nc.sweep_surface(np.linspace(1.5708, 3.13, 64), np.linspace(0.02, 1.0, 64), zero), 3),
        "optimal_epsilon_ms": median_ms(lambda: nc.optimal_epsilon(2.0, zero), 5),
        "symmetric_power_matrix_12376_ms": tunneling_matrix_ms(),
    }
    cli = [sys.executable, "-c", "from nc2ent.cli import main; main()"]
    figures["verify_suite_all_s"] = command_s(cli + ["verify", "--suite", "all", "--seed", "0"])
    figures["tier1_s"] = command_s([sys.executable, "-m", "pytest", "-q",
                                    "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    figures["environment"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "reference.json").write_text(json.dumps(figures, indent=1))
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
