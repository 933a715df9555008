"""Time rotform's Frenet report, frenet_report, on the helix field and on
trilinear grids sampled from it, and write a JSON file with one row per field.

    python tools/bench_frenet.py --src parent=../parent/src --src change=src --out BENCH.json

Each --src LABEL=PATH names the `src` directory of a rotform checkout.  Every
label runs in its own Python process, with one BLAS thread, that imports
rotform from PATH, so two versions are measured by the same code on the same
inputs.  The fields are the helix field (-y, x, C) / |(-y, x, C)| with its
analytic Jacobian, the same field with a differenced Jacobian, and grid
fields of m^3 samples of it for m in GRID_SIZES, with spacing
2 HALF_WIDTH / (m - 1) and POINT as the middle node (as in the frenet:grid
request of perfbench's cli_small).  Every report is taken at POINT.  A row
holds the min and the spread (max - min) of the CPU time of RUNS calls after
one warm-up, the number of FlowField.at queries of one call, kappa and tau,
and their absolute errors against tests/test_frenet.py::helix_reference.
Each worker runs REPEATS times, the labels taking turns, and a row keeps the
repeat with the lowest min: on a shared virtual machine the speed of a whole
process can be off by tens of percent.
"""

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np

C = 0.5
POINT = (1.0, 0.2, 0.1)
HALF_WIDTH = 0.16
GRID_SIZES = (5, 9, 17, 33)
RUNS = 5
REPEATS = 3
_ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def measure(src):
    """The rows for the rotform under src, measured in this process."""
    sys.path.insert(0, os.path.abspath(src))
    from rotform import frenet

    x = np.array(POINT)
    rows = []
    for label, m, h, field in _fields(frenet):
        forms, _ = frenet.frenet_report(field, x)  # warm up
        times = []
        for _ in range(RUNS):
            start = time.process_time()
            frenet.frenet_report(field, x)
            times.append(time.process_time() - start)
        calls = []

        def counted(y, evaluator=field.evaluator):
            calls.append(1)
            return evaluator(y)

        frenet.frenet_report(frenet.FlowField(counted, field.jacobian, field.fd_step), x)
        rows.append({
            "field": label,
            "m": m,
            "spacing": h,
            "cpu_ms_min": 1e3 * min(times),
            "cpu_ms_spread": 1e3 * (max(times) - min(times)),
            "field_queries": len(calls),
            "kappa": forms.data.kappa,
            "tau": forms.data.tau,
        })
    return rows


def _helix_reference():
    """tests/test_frenet.py::helix_reference, imported with this checkout's rotform."""
    sys.path[:0] = [os.path.join(_REPO, "src"), os.path.join(_REPO, "tests")]
    path = os.path.join(_REPO, "tests", "test_frenet.py")
    spec = importlib.util.spec_from_file_location("test_frenet", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.helix_reference


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
    sources = []
    for spec in args.src:
        label, sep, path = spec.partition("=")
        if not sep or not os.path.isdir(path):
            parser.error(f"--src wants LABEL=PATH with PATH a directory: {spec!r}")
        sources.append((label, path))
    results = {}
    for _ in range(REPEATS):
        for label, path in sources:
            rows = json.loads(subprocess.run(
                [sys.executable, __file__, "--worker", path],
                env={**os.environ, **_ONE_THREAD}, check=True, capture_output=True, text=True,
            ).stdout)
            best = results.setdefault(label, rows)
            for i, row in enumerate(rows):
                if row["cpu_ms_min"] < best[i]["cpu_ms_min"]:
                    best[i] = row
    kappa, tau = _helix_reference()(float(np.hypot(POINT[0], POINT[1])), C)
    for rows in results.values():
        for row in rows:
            row["kappa_error"] = abs(row["kappa"] - kappa)
            row["tau_error"] = abs(row["tau"] - tau)
    doc = {
        "function": "rotform.frenet.frenet_report",
        "field": f"helix (-y, x, c) / |(-y, x, c)| with c = {C}, at x = {list(POINT)}",
        "grids": f"m^3 samples, spacing {2 * HALF_WIDTH} / (m - 1), x the middle node",
        "timer": f"time.process_time, one BLAS thread, min and spread of {RUNS} runs after one "
                 f"warm-up, from the best of {REPEATS} processes per label",
        "oracle": "tests/test_frenet.py::helix_reference, absolute errors of kappa and tau",
        "reference": {"kappa": kappa, "tau": tau},
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
