"""Run one fixed corpus of `rotform` CLI requests against two or more
checkouts and report whether every request ends the same way.

    python tools/report_parity.py --src parent=../parent/src --src change=src

Each --src LABEL=PATH names the `src` directory of a rotform checkout.  Every
request runs in a fresh Python interpreter that imports rotform from PATH,
so numpy's once-per-location warnings reach stderr the same way a user sees
them.  The corpus:

- analyze for n = 2..8 on random, symmetric, skew and integer matrices, in
  the given, expansion and skew-canonical bases;
- planar on five 2x2 matrices at scales 1e-5, 1 and 1e5;
- identities for n = 1..16, 24 and 32 (seeded), on uniform(-1, 1) * 1e150 at
  n = 3, 6, on the 8 x 8 Hilbert matrix and on diag(10^-k), k = 0..16, where
  the minor sums and the identity residuals that use them show;
- frenet on the helix, the circular field and a grid field;
- malformed requests;
- analyze on near-multiple eigenvalues, where cluster decisions show:
  diag(1, 1 + 1e-8, 3), diag(1, 1, 1, 1.000012, 5), and Q D Q^T with
  D = diag(1, 1, 1 + g, 2.5, 4) for g = 1e-6 and 1e-9.

The matrices are drawn from fixed numpy seeds and written once to a
temporary directory that every run shares.  A request counts as identical
when exit code, stdout and stderr agree byte for byte with the first label,
after each checkout's PATH in stderr is replaced by `<src>` (numpy's
warnings name the file they come from).  Such a stderr that differs only in
the line numbers after `<src>` still counts as different, but is marked, since
moving code shifts them.
For a request that differs the tool prints the exit codes, the last stderr
lines when they differ, and the largest absolute difference per report key
(list indices folded to []), or `differs` for a key whose non-numeric value
or shape changed.  Exits 0 when every request is identical, 1 otherwise.
"""

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

_RUN = "import sys; from rotform.cli import main; sys.exit(main(sys.argv[1:]))"
_BASES = ("given", "expansion", "skew-canonical")


def _grid(A):
    return "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in A)


def _helix(p, c=0.5):
    return np.array([-p[1], p[0], c]) / np.sqrt(p[0] ** 2 + p[1] ** 2 + c * c)


def corpus(workdir):
    """(label, argv) of every request; writes the input files into workdir."""

    def matrix(name, A):
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(_grid(A))
        return name

    requests = []
    for n in range(2, 9):
        rng = np.random.default_rng(n)
        G = rng.standard_normal((n, n))
        kinds = {"random": G, "symmetric": G + G.T, "skew": G - G.T,
                 "integer": rng.integers(-3, 4, (n, n)).astype(float)}
        for kind, A in kinds.items():
            path = matrix(f"{kind}{n}.txt", A)
            for basis in _BASES:
                requests.append((f"analyze {kind} n={n} {basis}",
                                 ["analyze", "--input", path, "--basis", basis]))
    planar = {"rotation": [[0, -1], [1, 0]], "jordan": [[2, 1], [0, 2]],
              "distinct": [[1, 2], [3, 4]], "identity": [[1, 0], [0, 1]],
              "random": np.random.default_rng(2).uniform(-1, 1, (2, 2))}
    for kind, A in planar.items():
        for scale in (1e-5, 1.0, 1e5):
            path = matrix(f"planar-{kind}-{scale:g}.txt", scale * np.asarray(A, float))
            requests.append((f"planar {kind} x{scale:g}", ["planar", "--input", path]))
    for n in (*range(1, 17), 24, 32):
        requests.append((f"identities n={n}", ["identities", "--params", f"n={n}", "--seed", "1"]))
    hilbert = 1.0 / (np.arange(8)[:, None] + np.arange(8)[None, :] + 1.0)
    graded = np.diag(10.0 ** -np.arange(17))
    for kind, A in (("hilbert n=8", hilbert), ("diag 10^-k k=0..16", graded)):
        path = matrix(f"{kind.split()[0]}.txt", A)
        requests.append((f"identities {kind}", ["identities", "--input", path]))
    for n in (3, 6):
        path = matrix(f"big{n}.txt", 1e150 * np.random.default_rng(0).uniform(-1, 1, (n, n)))
        requests.append((f"identities 1e150 n={n}", ["identities", "--input", path]))
    h, m = 0.02, 5
    origin = np.array([1.0, 0.0, 0.0]) - h * (m // 2)
    values = [[[_helix(origin + h * np.array([i, j, k])).tolist() for k in range(m)]
               for j in range(m)] for i in range(m)]
    with open(os.path.join(workdir, "grid.json"), "w") as fh:
        json.dump({"origin": origin.tolist(), "spacing": [h, h, h], "values": values}, fh)
    requests += [
        ("frenet helix", ["frenet", "--field", "helix", "--params", "c=0.5", "--point", "1,0.2,0.1"]),
        ("frenet helix r", ["frenet", "--field", "helix", "--params", "c=0.3,r=2"]),
        ("frenet circular", ["frenet", "--field", "circular", "--params", "r=1.5"]),
        ("frenet grid", ["frenet", "--field", "file:grid.json", "--point", "1,0,0"]),
    ]
    with open(os.path.join(workdir, "bad.txt"), "w") as fh:
        fh.write("1 2\n3 x\n")
    with open(os.path.join(workdir, "rect.txt"), "w") as fh:
        fh.write("1 2\n3 4\n5 6\n")
    three = matrix("three.txt", np.arange(9.0).reshape(3, 3))
    requests += [
        ("malformed no input", ["analyze"]),
        ("malformed token", ["analyze", "--input", "bad.txt"]),
        ("malformed not square", ["analyze", "--input", "rect.txt"]),
        ("malformed missing file", ["planar", "--input", "missing.txt"]),
        ("malformed planar 3x3", ["planar", "--input", three]),
        ("malformed tol name", ["analyze", "--input", three, "--tol", "bogus=1"]),
        ("malformed tol value", ["analyze", "--input", three, "--tol", "rank_tol=x"]),
        ("malformed tol inf", ["analyze", "--input", three, "--tol", "residual_tol=inf"]),
        ("unreachable certificate", ["analyze", "--input", three, "--tol", "eig_off_tol=1e-300"]),
        ("malformed basis", ["planar", "--input", three, "--basis", "expansion"]),
        ("malformed seed", ["identities", "--seed", "-1"]),
        ("malformed params", ["identities", "--params", "n=2.5"]),
        ("malformed dimension", ["identities", "--params", "n=0"]),
        ("malformed field", ["frenet", "--field", "vortex", "--point", "1,0,0"]),
        ("malformed point", ["frenet", "--field", "helix", "--point", "1,0"]),
        ("frenet straight flow", ["frenet", "--field", "helix", "--params", "c=1e9",
                                  "--point", "1,0,0"]),
        ("frenet singular", ["frenet", "--field", "circular", "--point", "0,0,0"]),
        ("frenet outside grid", ["frenet", "--field", "file:grid.json", "--point", "5,0,0"]),
    ]
    near = {"diag gap 1e-8": np.diag([1.0, 1.0 + 1e-8, 3.0]),
            "diag triple gap 1.2e-5": np.diag([1.0, 1.0, 1.0, 1.000012, 5.0])}
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))
    for gap in (1e-6, 1e-9):
        near[f"QDQ^T gap {gap:g}"] = Q @ np.diag([1.0, 1.0, 1.0 + gap, 2.5, 4.0]) @ Q.T
    for kind, A in near.items():
        path = matrix(f"near {kind}.txt".replace(" ", "-"), A)
        requests.append((f"analyze near-multiple {kind}", ["analyze", "--input", path]))
    return requests


def run_one(src, argv, workdir):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", _RUN, *argv], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr.replace(os.path.abspath(src), "<src>")


def key_differences(a, b, key="", out=None):
    """{folded key: largest |a - b|, or 'differs'} over two parsed reports."""
    out = {} if out is None else out
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            key_differences(a[k], b[k], f"{key}.{k}" if key else k, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            key_differences(x, y, key + "[]", out)
    elif (isinstance(a, (int, float)) and isinstance(b, (int, float))
          and not isinstance(a, bool) and not isinstance(b, bool)):
        if a != b:
            prior = out.get(key, 0.0)
            out[key] = prior if prior == "differs" else max(prior, abs(a - b))
    elif a != b:
        out[key] = "differs"
    return out


def _unnumbered(text):
    """text with the line numbers after <src> file names dropped."""
    return re.sub(r"(<src>[^:\s]*\.py):\d+:", r"\1:", text)


def _last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", metavar="LABEL=PATH", required=True)
    args = parser.parse_args(argv)
    sources = []
    for spec in args.src:
        label, sep, path = spec.partition("=")
        if not sep or not os.path.isdir(path):
            parser.error(f"--src wants LABEL=PATH with PATH a directory: {spec!r}")
        sources.append((label, path))
    with tempfile.TemporaryDirectory(prefix="report-parity-") as workdir:
        requests = corpus(workdir)
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            futures = {(name, label): pool.submit(run_one, path, argv, workdir)
                       for name, argv in requests for label, path in sources}
            results = {key: future.result() for key, future in futures.items()}
    identical = 0
    for name, _ in requests:
        outcomes = [(label, results[name, label]) for label, _ in sources]
        (first, base), rest = outcomes[0], outcomes[1:]
        if all(outcome == base for _, outcome in rest):
            identical += 1
            continue
        print(f"DIFFERS {name}")
        for label, (code, out, err) in outcomes:
            print(f"  {label}: exit {code}, stderr: {_last_line(err)!r}")
        for label, (_, _, err) in rest:
            if err != base[2] and _unnumbered(err) == _unnumbered(base[2]):
                print(f"  {label} vs {first}: stderr differs only in <src> line numbers")
        for label, (_, out, _) in rest:
            try:
                diffs = key_differences(json.loads(base[1]), json.loads(out))
            except json.JSONDecodeError:
                continue
            for key, diff in sorted(diffs.items()):
                shown = diff if diff == "differs" else f"{diff:.3g}"
                print(f"  {label} vs {first}: {key}: {shown}")
    print(f"{identical} of {len(requests)} requests identical across "
          f"{', '.join(label for label, _ in sources)}")
    return 0 if identical == len(requests) else 1


if __name__ == "__main__":
    sys.exit(main())
