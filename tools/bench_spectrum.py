"""Time rotform's general spectrum, real_spectrum, and the eigenstructure
built on it, and write a JSON file with one row per function and matrix size.

    python tools/bench_spectrum.py --src parent=../parent/src --src change=src --out BENCH.json

Each --src LABEL=PATH names the `src` directory of a rotform checkout.  Every
label runs in its own Python process, with one BLAS thread, that imports
rotform from PATH, so two versions are measured by the same code on the same
inputs.  At size n the timed input is a uniform(-1, 1) matrix drawn with
seed n.  A row holds n, the seed, the min and the spread (max - min) of the
CPU time of RUNS calls after one warm-up, how many of REQUESTS further
uniform(-1, 1) matrices (seeds 1000 n + k) ended in NumericalError, the
exit code 3 of the CLI, and for n <= ORACLE_MAX_N the largest eigenvalue
error over max|A|: the Hausdorff distance between the eigenvalues the
function lists (pairs with both conjugates) and those of mpmath.eig at 50
digits, computed once per matrix and shared by every label.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import mpmath
import numpy as np

SIZES = (2, 4, 8, 16, 32, 48, 64)
RUNS = 5
REQUESTS = 20
ORACLE_MAX_N = 32
_ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _matrix(seed, n):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))


def _values(name, result):
    """[re, im] of every eigenvalue a result lists, pairs with both conjugates."""
    if name == "real_spectrum":
        reals = [v for v, _ in result.real_eigs]
    else:
        reals = [e.value for e in result.entries]
    pairs = [z for z, _ in result.complex_pairs]
    return [[v, 0.0] for v in reals] + [[z.real, s * z.imag] for z in pairs for s in (1, -1)]


def measure(src):
    """The rows for the rotform under src, measured in this process; each
    row carries the listed eigenvalues of its timed matrix as `values`."""
    sys.path.insert(0, os.path.abspath(src))
    import rotform

    rows = []
    for name in ("real_spectrum", "eigenstructure"):
        func = getattr(rotform, name)
        for n in SIZES:
            A = _matrix(n, n)
            result = func(A)  # warm up
            times = []
            for _ in range(RUNS):
                start = time.process_time()
                func(A)
                times.append(time.process_time() - start)
            refused = 0
            for k in range(REQUESTS):
                try:
                    func(_matrix(1000 * n + k, n))
                except rotform.NumericalError:
                    refused += 1
            rows.append({
                "function": name,
                "n": n,
                "seed": n,
                "cpu_ms_min": 1e3 * min(times),
                "cpu_ms_spread": 1e3 * (max(times) - min(times)),
                "refused": refused,
                "requests": REQUESTS,
                "values": _values(name, result),
            })
    return rows


def _reference(n):
    """Eigenvalues of the seed-n matrix from mpmath.eig at 50 digits."""
    with mpmath.workdps(50):
        values = mpmath.eig(mpmath.matrix(_matrix(n, n).tolist()), left=False, right=False)
        return np.array([complex(z) for z in values])


def _hausdorff(got, ref):
    """Largest distance from a point of either set to the nearest of the other."""
    D = np.abs(got[:, None] - ref[None, :])
    return float(max(D.min(axis=0).max(), D.min(axis=1).max()))


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
    references = {n: _reference(n) for n in SIZES if n <= ORACLE_MAX_N}
    for rows in results.values():
        for row in rows:
            values = row.pop("values")
            ref = references.get(row["n"])
            if ref is not None:
                got = np.array([complex(re, im) for re, im in values])
                scale = float(np.max(np.abs(_matrix(row["n"], row["n"]))))
                row["eig_error_over_maxabs"] = _hausdorff(got, ref) / scale
    doc = {
        "functions": ["rotform.real_spectrum", "rotform.eigenstructure"],
        "input": "A uniform(-1, 1) from numpy default_rng(seed)",
        "timer": f"time.process_time, one BLAS thread, min and spread of {RUNS} runs after one warm-up",
        "refused": f"NumericalError count over {REQUESTS} matrices with seeds 1000 n + k",
        "oracle": f"mpmath.eig at 50 digits, n <= {ORACLE_MAX_N}; Hausdorff distance over max|A|",
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
