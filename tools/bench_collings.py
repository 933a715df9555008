"""Time rotform's subset determinant expansion, collings_det, and write a
JSON file with one row per matrix size.

    python tools/bench_collings.py --src parent=../parent/src --src change=src --out BENCH.json

Each --src LABEL=PATH names the `src` directory of a rotform checkout.  Every
label runs in its own Python process, with one BLAS thread, that imports
rotform from PATH, so two versions are measured by the same code on the same
inputs.  The input at size n is the split `rotform identities` makes of a
uniform(-1, 1) matrix drawn with seed n: D its diagonal, B the rest.  A row
holds n, the seed, the min and the spread (max - min) of the CPU time of
RUNS calls, the tracemalloc peak of one more call, and the error against
det(D + B) from mpmath at 60 digits, divided by the term mass
prod_i (|d_i| + |row i of B|_2), with that error over n eps beside it.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc

import mpmath
import numpy as np

SIZES = (4, 8, 12, 15, 16, 20)
RUNS = 5
_ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def measure(src):
    """The rows for the rotform under src, measured in this process."""
    sys.path.insert(0, os.path.abspath(src))
    from rotform import collings_det

    rows = []
    for n in SIZES:
        A = np.random.default_rng(n).uniform(-1, 1, (n, n))
        D = np.diag(np.diag(A))
        B = A - D
        collings_det(D, B)  # warm up
        times = []
        for _ in range(RUNS):
            start = time.process_time()
            value = collings_det(D, B)
            times.append(time.process_time() - start)
        tracemalloc.start()
        try:
            collings_det(D, B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with mpmath.workdps(60):
            exact = mpmath.det(mpmath.matrix(A.tolist()))
            error = float(abs(mpmath.mpf(value) - exact))
        mass = float(np.prod(np.abs(np.diag(D)) + np.linalg.norm(B, axis=1)))
        rows.append({
            "n": n,
            "seed": n,
            "cpu_ms_min": 1e3 * min(times),
            "cpu_ms_spread": 1e3 * (max(times) - min(times)),
            "tracemalloc_peak_mb": peak / 1e6,
            "error_over_mass": error / mass,
            "error_over_n_eps_mass": error / (n * np.finfo(float).eps * mass),
        })
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", metavar="LABEL=PATH")
    parser.add_argument("--out")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(measure(args.worker), sys.stdout)
        return
    if not args.src or not args.out:
        parser.error("--src and --out are required")
    results = {}
    for spec in args.src:
        label, sep, path = spec.partition("=")
        if not sep or not os.path.isdir(path):
            parser.error(f"--src wants LABEL=PATH with PATH a directory: {spec!r}")
        out = subprocess.run(
            [sys.executable, __file__, "--worker", path],
            env={**os.environ, **_ONE_THREAD}, check=True, capture_output=True, text=True,
        ).stdout
        results[label] = json.loads(out)
    doc = {
        "function": "rotform.collings_det",
        "input": "D = diag(A), B = A - D, A uniform(-1, 1) from numpy default_rng(n)",
        "timer": f"time.process_time, one BLAS thread, min and spread of {RUNS} runs after one warm-up",
        "memory": "tracemalloc peak of one call",
        "oracle": "mpmath.det at 60 digits",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
