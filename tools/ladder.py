"""Time rotform layer by layer over a ladder of sizes, check each result
against an independent oracle, and write one JSON file keyed by layer.

    python tools/ladder.py --src parent=../parent/src --src change=src --out BENCH.json

Each --src LABEL=PATH names the `src` directory of a rotform checkout.  Every
label runs in its own Python process, with one BLAS thread, that imports
rotform from PATH, so two versions are measured by the same code on the same
inputs.  A row holds the min and spread (max - min) of the CPU time of RUNS
calls after one warm-up.  Each worker runs REPEATS times, the labels taking
turns, and a row keeps the repeat with the lowest min: on a shared virtual
machine a whole process can be off by tens of percent.  The oracles run once,
in this process, for every label.  The layers:

- collings_det(D, B): D the diagonal and B the rest of a uniform(-1, 1) matrix
  with seed n.  Adds the tracemalloc peak of one more call and the error
  against mpmath's det at 60 digits over the term mass
  prod_i (|d_i| + |row i of B|_2), and over n eps times that mass.
- spectrum: real_spectrum and eigenstructure of a uniform(-1, 1) matrix with
  seed n.  Adds how many of REQUESTS more (seeds 1000 n + k) ended in
  NumericalError (CLI exit 3) and, for n <= ORACLE_MAX_N, the Hausdorff
  distance over max|A| from the listed eigenvalues (pairs with both
  conjugates) to mpmath.eig's at 50 digits.
- frenet_report at POINT on the helix field (-y, x, C) / |(-y, x, C)| with its
  analytic and with a differenced Jacobian, and on grids of m^3 samples of it
  for m in GRID_SIZES, spacing 2 HALF_WIDTH / (m - 1), POINT the middle node
  (the frenet:grid request of perfbench's cli_small).  Adds the FlowField.at
  queries of one call, kappa, tau and their absolute errors against
  tests/test_frenet.py::helix_reference.
- analyze: `rotform analyze` through the in-process cli.main on a
  uniform(-1, 1) matrix with seed n, in each of the three bases.  Adds the
  exit code and the sym_eigen calls of one request, counted in every rotform
  module that holds the function.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types

import mpmath
import numpy as np

RUNS = 5
REPEATS = 3
COLLINGS_SIZES = (4, 8, 12, 15, 16, 20)
SPECTRUM_SIZES = (2, 4, 8, 16, 32, 48, 64)
REQUESTS = 20
ORACLE_MAX_N = 32
C = 0.5
POINT = (1.0, 0.2, 0.1)
HALF_WIDTH = 0.16
GRID_SIZES = (5, 9, 17, 33)
ANALYZE_SIZES = (2, 4, 8, 16, 32, 48, 64)
BASES = ("given", "expansion", "skew-canonical")
_ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _uniform(seed, n):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))


def _timed(func, *args):
    """The result of a warm-up call, and the min and spread of RUNS more."""
    result = func(*args)
    times = []
    for _ in range(RUNS):
        start = time.process_time()
        func(*args)
        times.append(time.process_time() - start)
    low, high = min(times), max(times)
    return result, {"cpu_ms_min": 1e3 * low, "cpu_ms_spread": 1e3 * (high - low)}


# --- collings_det ------------------------------------------------------------
def _split(n):
    """The seed-n matrix A, its diagonal part D and the rest B."""
    A = _uniform(n, n)
    D = np.diag(np.diag(A))
    return A, D, A - D


def collings_rows(rotform):
    """One row per n; `value` carries the expansion to the oracle."""
    rows = []
    for n in COLLINGS_SIZES:
        _, D, B = _split(n)
        value, timing = _timed(rotform.collings_det, D, B)
        tracemalloc.start()
        rotform.collings_det(D, B)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        rows.append({"n": n, "seed": n, **timing, "tracemalloc_peak_mb": peak / 1e6,
                     "value": value})
    return rows


def collings_document(results):
    exact = {}
    for rows in results.values():
        for row in rows:
            n = row["n"]
            A, D, B = _split(n)
            with mpmath.workdps(60):
                if n not in exact:
                    exact[n] = mpmath.det(mpmath.matrix(A.tolist()))
                error = float(abs(mpmath.mpf(row.pop("value")) - exact[n]))
            mass = float(np.prod(np.abs(np.diag(D)) + np.linalg.norm(B, axis=1)))
            row["error_over_mass"] = error / mass
            row["error_over_n_eps_mass"] = error / (n * np.finfo(float).eps * mass)
    return {
        "function": "rotform.collings_det",
        "input": "D = diag(A), B = A - D, A uniform(-1, 1) from numpy default_rng(n)",
        "memory": "tracemalloc peak of one call",
        "oracle": "mpmath.det at 60 digits",
        "results": results,
    }


# --- spectrum: real_spectrum and eigenstructure ------------------------------
def _listed(name, result):
    """[re, im] of every eigenvalue a result lists, pairs with both conjugates."""
    reals = ([v for v, _ in result.real_eigs] if name == "real_spectrum"
             else [e.value for e in result.entries])
    pairs = [z for z, _ in result.complex_pairs]
    return [[v, 0.0] for v in reals] + [[z.real, s * z.imag] for z in pairs for s in (1, -1)]


def spectrum_rows(rotform):
    """One row per function and n; `values` carries the listed eigenvalues to the oracle."""
    rows = []
    for name in ("real_spectrum", "eigenstructure"):
        func = getattr(rotform, name)
        for n in SPECTRUM_SIZES:
            result, timing = _timed(func, _uniform(n, n))
            refused = 0
            for k in range(REQUESTS):
                try:
                    func(_uniform(1000 * n + k, n))
                except rotform.NumericalError:
                    refused += 1
            rows.append({"function": name, "n": n, "seed": n, **timing, "refused": refused,
                         "requests": REQUESTS, "values": _listed(name, result)})
    return rows


def _hausdorff(got, ref):
    """Largest distance from a point of either set to the nearest of the other."""
    D = np.abs(got[:, None] - ref[None, :])
    return float(max(D.min(axis=0).max(), D.min(axis=1).max()))


def spectrum_document(results):
    reference = {}
    for rows in results.values():
        for row in rows:
            n, values = row["n"], row.pop("values")
            if n > ORACLE_MAX_N:
                continue
            A = _uniform(n, n)
            if n not in reference:
                with mpmath.workdps(50):
                    eigs = mpmath.eig(mpmath.matrix(A.tolist()), left=False, right=False)
                    reference[n] = np.array([complex(z) for z in eigs])
            got = np.array([complex(re, im) for re, im in values])
            row["eig_error_over_maxabs"] = _hausdorff(got, reference[n]) / float(np.max(np.abs(A)))
    return {
        "functions": ["rotform.real_spectrum", "rotform.eigenstructure"],
        "input": "A uniform(-1, 1) from numpy default_rng(seed)",
        "refused": f"NumericalError count over {REQUESTS} matrices with seeds 1000 n + k",
        "oracle": f"mpmath.eig at 50 digits, n <= {ORACLE_MAX_N}; Hausdorff distance over max|A|",
        "results": results,
    }


# --- frenet_report -----------------------------------------------------------
def _fields(frenet):
    """(label, m, spacing, FlowField) of every benchmarked field."""
    out = [("helix analytic", None, None, frenet.helix_field(C)),
           ("helix differenced", None, None, frenet.helix_field(C, analytic=False))]
    for m in GRID_SIZES:
        h = 2.0 * HALF_WIDTH / (m - 1)
        origin = np.array(POINT) - h * (m // 2)
        X, Y, Z = np.meshgrid(*(origin[i] + h * np.arange(m) for i in range(3)), indexing="ij")
        V = np.stack([-Y, X, np.full_like(X, C)], axis=-1)
        V /= np.linalg.norm(V, axis=-1, keepdims=True)
        out.append((f"helix grid m={m}", m, h, frenet.grid_field(origin, [h, h, h], V)))
    return out


def frenet_rows(rotform):
    frenet = rotform.frenet
    x = np.array(POINT)
    rows = []
    for label, m, h, field in _fields(frenet):
        (forms, _), timing = _timed(frenet.frenet_report, field, x)
        calls = []

        def counted(y, evaluator=field.evaluator):
            calls.append(1)
            return evaluator(y)

        frenet.frenet_report(frenet.FlowField(counted, field.jacobian, field.fd_step), x)
        rows.append({"field": label, "m": m, "spacing": h, **timing, "field_queries": len(calls),
                     "kappa": forms.data.kappa, "tau": forms.data.tau})
    return rows


def frenet_document(results):
    sys.path[:0] = [os.path.join(_REPO, "src"), os.path.join(_REPO, "tests")]
    from test_frenet import helix_reference  # imported with this checkout's rotform

    kappa, tau = helix_reference(float(np.hypot(POINT[0], POINT[1])), C)
    for rows in results.values():
        for row in rows:
            row["kappa_error"] = abs(row["kappa"] - kappa)
            row["tau_error"] = abs(row["tau"] - tau)
    return {
        "function": "rotform.frenet.frenet_report",
        "field": f"helix (-y, x, c) / |(-y, x, c)| with c = {C}, at x = {list(POINT)}",
        "grids": f"m^3 samples, spacing {2 * HALF_WIDTH} / (m - 1), x the middle node",
        "oracle": "tests/test_frenet.py::helix_reference, absolute errors of kappa and tau",
        "reference": {"kappa": kappa, "tau": tau},
        "results": results,
    }


# --- analyze -----------------------------------------------------------------
def _quiet(main, argv):
    """The exit code of main(argv), with the report and messages discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _sym_eigen_calls(rotform, func, *args):
    """How many times func(*args) calls sym_eigen, through any rotform module."""
    original, calls = rotform.linalg.sym_eigen, []

    def counted(*a, **k):
        calls.append(1)
        return original(*a, **k)

    holders = [m for m in vars(rotform).values()
               if isinstance(m, types.ModuleType) and getattr(m, "sym_eigen", None) is original]
    for module in holders:
        module.sym_eigen = counted
    try:
        func(*args)
    finally:
        for module in holders:
            module.sym_eigen = original
    return len(calls)


def analyze_rows(rotform):
    main = importlib.import_module("rotform.cli").main
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in ANALYZE_SIZES:
            path = os.path.join(tmp, f"uniform{n}.txt")
            np.savetxt(path, _uniform(n, n))
            for basis in BASES:
                argv = ["analyze", "--input", path, "--basis", basis]
                code, timing = _timed(_quiet, main, argv)
                rows.append({"n": n, "seed": n, "basis": basis, **timing, "exit": code,
                             "sym_eigen_calls": _sym_eigen_calls(rotform, _quiet, main, argv)})
    return rows


def analyze_document(results):
    return {
        "command": "rotform analyze --input A --basis B, through rotform.cli.main in process",
        "input": "A uniform(-1, 1) from numpy default_rng(n), written by numpy.savetxt",
        "counts": "sym_eigen_calls: calls of linalg.sym_eigen in one request, an exact count",
        "results": results,
    }


# --- harness -----------------------------------------------------------------
# layer: (rows(rotform) in a worker, document({label: rows}) in this process)
LAYERS = {
    "collings_det": (collings_rows, collings_document),
    "spectrum": (spectrum_rows, spectrum_document),
    "frenet_report": (frenet_rows, frenet_document),
    "analyze": (analyze_rows, analyze_document),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", metavar="LABEL=PATH")
    parser.add_argument("--out")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:  # every layer's rows for the rotform under this path
        sys.path.insert(0, os.path.abspath(args.worker))
        import rotform

        json.dump({layer: rows(rotform) for layer, (rows, _) in LAYERS.items()}, sys.stdout)
        return
    if not args.src or not args.out:
        parser.error("--src and --out are required")
    sources = [spec.partition("=") for spec in args.src]
    for label, sep, path in sources:
        if not sep or not os.path.isdir(path):
            parser.error(f"--src wants LABEL=PATH with PATH a directory: {label + sep + path!r}")
    results = {layer: {} for layer in LAYERS}
    for _ in range(REPEATS):
        for label, _, path in sources:
            measured = json.loads(subprocess.run(
                [sys.executable, __file__, "--worker", path],
                env={**os.environ, **_ONE_THREAD}, check=True, capture_output=True, text=True,
            ).stdout)
            for layer, rows in measured.items():
                best = results[layer].setdefault(label, rows)
                for i, row in enumerate(rows):
                    if row["cpu_ms_min"] < best[i]["cpu_ms_min"]:
                        best[i] = row
    doc = {
        "timer": f"time.process_time, one BLAS thread, min and spread of {RUNS} runs after one "
                 f"warm-up, from the best of {REPEATS} processes per label",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "layers": {layer: document(results[layer]) for layer, (_, document) in LAYERS.items()},
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
