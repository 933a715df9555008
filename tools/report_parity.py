"""Run one fixed corpus of `rotform` CLI requests against two or more
checkouts and report whether every request ends the same way.

    python tools/report_parity.py --src parent=../parent/src --src change=src

Each --src LABEL=PATH names the `src` directory of a rotform checkout.  Every
request runs in a fresh Python interpreter that imports rotform from PATH,
so numpy's once-per-location warnings reach stderr the same way a user sees
them.  The corpus:

- analyze for n = 2..8 on random, symmetric, skew and integer matrices, in
  the given, expansion and skew-canonical bases;
- planar on five 2x2 matrices at scales 1e-5, 1 and 1e5, on two of them at
  2^-500 and 2^500, and on the two borderline matrices of perfbench's
  cli_small, [[a, b], [+-1e-14 b, a]], whose discriminant +-4e-14 b^2 lies
  inside the rounding band of a double root;
- identities for n = 1..16, 24 and 32 (seeded), on uniform(-1, 1) * 1e150 at
  n = 3, 6, on the 8 x 8 Hilbert matrix and on diag(10^-k), k = 0..16, where
  the minor sums and the identity residuals that use them show, and on
  uniform(-1, 1) * 2^-300 (6 x 6) and * 1e100 (3 x 3), where a power or
  square of A leaves the double range;
- analyze in the three bases on uniform(-1, 1) * 1e160 and on a 1e160 skew
  matrix (3 x 3), whose degree-2 report values pass the double range;
- frenet on the helix, the circular field and a grid field, on the grid at
  a node, where the stencil along T crosses a cell face, near the upper
  corner, where the stencil leaves the grid, and where the Jacobian's
  stencil leaves it past two faces, so that the error names the first
  query outside in the order of the queries;
- malformed requests, among them identities on n = 100000000 and on a
  129 x 129 file, past the CLI's dimension limit, frenet --tol and
  analyze --point, options those commands do not read, and identities
  with a parameter c beside n and with n beside --input, which it does not read;
- requests argparse refuses or reads: analyze --basis bogus, identities
  --seed x, and --seed placed before the command;
- frenet with parameters it does not read: c and foo on the circular field,
  and r beside --point;
- planar with an --output in a missing directory and one that is a directory;
- malformed files: a grid file holding a JSON number, a grid origin "x", grid
  values with a ragged row, an --input file that is not UTF-8, and the helix
  grid with one sample null, with the spacing Infinity along x and with the
  origin NaN along x;
- analyze under --tol residual_tol=1e-17 on a uniform 4 x 4, whose expansion
  split certificate cannot be met;
- identities under --tol residual_tol=1e-30 (n = 5) and eig_off_tol=1e-300
  (n = 4), which its minor-sum anchors and its n = 4 audit cannot meet, and
  under rank_tol=1e-6;
- analyze on near-multiple eigenvalues, where cluster decisions show:
  diag(1, 1 + 1e-8, 3), diag(1, 1, 1, 1.000012, 5), and Q D Q^T with
  D = diag(1, 1, 1 + g, 2.5, 4) for g = 1e-6 and 1e-9;
- analyze in the three bases on integer similarities of J2(1) + [3] and
  J3(2) + [2] + [5], whose defective eigenvalues (gm < am) LAPACK returns as
  clusters with complex members;
- analyze in the given and skew-canonical bases on K = Q blockdiag(rates 1,
  1, 1, 4e-12) Q^T, Q = random_orthogonal(n, 0), for n = 8 and for n = 9
  with a zero block, where the rate 4e-12 lies below the kernel cut n rank_tol
  but leaves more in the skew block certificate than its bound allows;
- analyze in the three bases on a zero 3 x 3 and a 1 x 1 matrix, and with
  --tol rank_tol=1e-6 on a 4 x 4 whose skew part is 1e-8 of its symmetric
  part, so that it counts as zero only at that tolerance;
- analyze in the expansion basis on S + K for a random skew K and S =
  diag(1, 1, 3) or Q diag(1, 1, 3, 2) Q^T, whose repeated expansion
  eigenvalue takes the tie-break that orders eigenvectors.

The matrices are drawn from fixed numpy seeds and written once to a
temporary directory that every run shares.  A request counts as identical
when exit code, stdout and stderr agree byte for byte with the first label,
after each checkout's PATH in stderr is replaced by `<src>` (numpy's
warnings name the file they come from) and the random name of a report's
temporary file by `.report-<tmp>`.  Such a stderr that differs only in
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


def _integer_similar(J, seed):
    """S J S^-1 for S = L U, L and U unit triangular with entries in {-1, 0, 1} drawn
    from seed: an integer matrix with the Jordan form J, exact in floating point."""
    rng = np.random.default_rng(seed)
    L = np.tril(rng.integers(-1, 2, J.shape), -1) + np.eye(len(J))
    U = np.triu(rng.integers(-1, 2, J.shape), 1) + np.eye(len(J))
    return L @ U @ J @ np.rint(np.linalg.inv(U)) @ np.rint(np.linalg.inv(L))


def _random_orthogonal(n, seed):
    """rotform.random_orthogonal(n, seed), bit for bit: the Q of a seeded standard-normal
    sample, its columns signed by R's diagonal."""
    Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return Q * np.where(np.diag(R) < 0.0, -1.0, 1.0)


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
    for kind in ("distinct", "random"):
        for j in (-500, 500):
            path = matrix(f"planar-{kind}-2^{j}.txt", np.ldexp(np.asarray(planar[kind], float), j))
            requests.append((f"planar {kind} x2^{j}", ["planar", "--input", path]))
    a, b = 0.8, 1.3
    for sign in (1, -1):
        path = matrix(f"planar-borderline{sign:+d}.txt", np.array([[a, b], [sign * 1e-14 * b, a]]))
        requests.append((f"planar borderline {sign:+d}e-14 b", ["planar", "--input", path]))
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
    for kind, n, scale in (("2^-300", 6, 2.0**-300), ("1e100", 3, 1e100)):
        path = matrix(f"scaled{n}.txt", scale * np.random.default_rng(n).uniform(-1, 1, (n, n)))
        requests.append((f"identities {kind} n={n}", ["identities", "--input", path]))
    G = 1e160 * np.random.default_rng(3).uniform(-1, 1, (3, 3))
    for kind, A in (("random", G), ("skew", G - G.T)):
        path = matrix(f"huge-{kind}3.txt", A)
        for basis in _BASES:
            requests.append((f"analyze 1e160 {kind} n=3 {basis}",
                             ["analyze", "--input", path, "--basis", basis]))
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
        # the stencil along T (+-4e-4 T) crosses the cell face y = 0.02
        ("frenet grid stencil across a face",
         ["frenet", "--field", "file:grid.json", "--point", "1.013,0.0199,0.011"]),
        ("frenet grid near the upper corner",
         ["frenet", "--field", "file:grid.json", "--point", "1.0395,0.0395,0.0395"]),
        ("frenet grid stencil past the upper corner",
         ["frenet", "--field", "file:grid.json", "--point", "1.0399,0.0399,0.0399"]),
        # 1.7 h and 0.7 h below the faces x = 1.04 and y = 0.04, h = 1e-5 (1 + |x|): the
        # Jacobian's +2h point along axis 0 is the first query outside, before axis 1's +h
        ("frenet grid stencil past two faces",
         ["frenet", "--field", "file:grid.json",
          "--point=1.0399653036613956,0.039985713272339386,0.02"]),
    ]
    with open(os.path.join(workdir, "bad.txt"), "w") as fh:
        fh.write("1 2\n3 x\n")
    with open(os.path.join(workdir, "rect.txt"), "w") as fh:
        fh.write("1 2\n3 4\n5 6\n")
    three = matrix("three.txt", np.arange(9.0).reshape(3, 3))
    two = matrix("two.txt", np.array([[0.0, -1.0], [1.0, 0.0]]))
    wide = matrix("wide.txt", np.random.default_rng(129).uniform(-1, 1, (129, 129)))
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
        ("malformed dimension n=100000000", ["identities", "--params", "n=100000000"]),
        ("malformed dimension 129 x 129", ["identities", "--input", wide]),
        ("malformed field", ["frenet", "--field", "vortex", "--point", "1,0,0"]),
        ("malformed point", ["frenet", "--field", "helix", "--point", "1,0"]),
        ("frenet straight flow", ["frenet", "--field", "helix", "--params", "c=1e9",
                                  "--point", "1,0,0"]),
        ("frenet singular", ["frenet", "--field", "circular", "--point", "0,0,0"]),
        ("frenet outside grid", ["frenet", "--field", "file:grid.json", "--point", "5,0,0"]),
        ("unread option frenet --tol", ["frenet", "--field", "helix", "--point", "1,0,0",
                                        "--tol", "rank_tol=5"]),
        ("unread option analyze --point", ["analyze", "--input", three, "--point", "1,0,0"]),
        ("unread parameter identities c", ["identities", "--params", "n=3,c=2"]),
        ("unread parameter identities n beside --input",
         ["identities", "--input", three, "--params", "n=5"]),
        ("malformed basis choice", ["analyze", "--input", three, "--basis", "bogus"]),
        ("malformed seed value", ["identities", "--seed", "x"]),
        ("option before the command", ["--seed", "3", "identities", "--params", "n=2"]),
        ("unread parameter frenet c and foo on circular",
         ["frenet", "--field", "circular", "--params", "c=0.3,foo=1,r=1.5"]),
        ("unread parameter frenet r beside --point",
         ["frenet", "--field", "helix", "--params", "c=0.5,r=2", "--point", "1,0,0"]),
        ("unwritable output missing directory",
         ["planar", "--input", two, "--output", "missing_dir/r.json"]),
        ("unwritable output a directory", ["planar", "--input", two, "--output", "outdir"]),
    ]
    ragged = [[[[1.0, 0.0, 0.0]] * 2, [[1.0, 0.0, 0.0]]]] * 2  # one row holds one vector, not two
    bad_grids = {"number": 3, "origin": {"origin": "x", "spacing": [1, 1, 1], "values": []},
                 "ragged": {"origin": [0, 0, 0], "spacing": [1, 1, 1], "values": ragged}}
    for kind, obj in bad_grids.items():
        with open(os.path.join(workdir, f"grid-{kind}.json"), "w") as fh:
            json.dump(obj, fh)
        requests.append((f"malformed grid file {kind}",
                         ["frenet", "--field", f"file:grid-{kind}.json", "--point", "1,0,0"]))
    with open(os.path.join(workdir, "latin1.txt"), "wb") as fh:
        fh.write(b"\xff\xfe1 2\n3 4\n")
    requests.append(("malformed input not UTF-8", ["planar", "--input", "latin1.txt"]))
    values[4][4][4] = [1.0, 0.0, None]  # written as null, read as NaN
    with open(os.path.join(workdir, "grid-null.json"), "w") as fh:
        json.dump({"origin": origin.tolist(), "spacing": [h, h, h], "values": values}, fh)
    requests.append(("malformed grid file null sample",
                     ["frenet", "--field", "file:grid-null.json", "--point", "1,0,0"]))
    values[4][4][4] = _helix(origin + h * 4).tolist()
    for kind, start, step in (("spacing Infinity", origin, [np.inf, h, h]),
                              ("origin NaN", [np.nan, 0.0, 0.0], [h, h, h])):
        name = f"grid-{kind.replace(' ', '-')}.json"
        with open(os.path.join(workdir, name), "w") as fh:  # json writes Infinity and NaN
            json.dump({"origin": list(start), "spacing": step, "values": values}, fh)
        requests.append((f"malformed grid file {kind}",
                         ["frenet", "--field", f"file:{name}", "--point", "1,0,0"]))
    split = matrix("split4.txt", np.random.default_rng(3).uniform(-1, 1, (4, 4)))
    requests.append(("unreachable split certificate residual_tol=1e-17",
                     ["analyze", "--input", split, "--tol", "residual_tol=1e-17"]))
    os.mkdir(os.path.join(workdir, "outdir"))
    for n, tol in ((5, "residual_tol=1e-30"), (4, "eig_off_tol=1e-300"), (4, "rank_tol=1e-6")):
        requests.append((f"identities n={n} {tol}",
                         ["identities", "--params", f"n={n}", "--tol", tol]))
    near = {"diag gap 1e-8": np.diag([1.0, 1.0 + 1e-8, 3.0]),
            "diag triple gap 1.2e-5": np.diag([1.0, 1.0, 1.0, 1.000012, 5.0])}
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))
    for gap in (1e-6, 1e-9):
        near[f"QDQ^T gap {gap:g}"] = Q @ np.diag([1.0, 1.0, 1.0 + gap, 2.5, 4.0]) @ Q.T
    for kind, A in near.items():
        path = matrix(f"near {kind}.txt".replace(" ", "-"), A)
        requests.append((f"analyze near-multiple {kind}", ["analyze", "--input", path]))
    defective = {"J2(1)+3 n=3": (np.diag([1.0, 1, 3]) + np.diag([1.0, 0], 1), 7),
                 "J3(2)+2+5 n=5": (np.diag([2.0, 2, 2, 2, 5]) + np.diag([1.0, 1, 0, 0], 1), 0)}
    for kind, (J, seed) in defective.items():
        path = matrix(f"defective-{kind.split()[0]}.txt", _integer_similar(J, seed))
        for basis in _BASES:
            requests.append((f"analyze defective {kind} {basis}",
                             ["analyze", "--input", path, "--basis", basis]))
    for n in (8, 9):
        B, i = np.zeros((n, n)), np.arange(0, 8, 2)
        B[i, i + 1] = (1.0, 1.0, 1.0, 4e-12)
        Q = _random_orthogonal(n, 0)
        path = matrix(f"skew-band{n}.txt", Q @ (B - B.T) @ Q.T)
        for basis in ("given", "skew-canonical"):
            requests.append((f"analyze skew rates 1, 1, 1, 4e-12 n={n} {basis}",
                             ["analyze", "--input", path, "--basis", basis]))
    G = np.random.default_rng(4).uniform(-1, 1, (4, 4))
    edges = {"zero n=3": (np.zeros((3, 3)), []), "n=1": (np.array([[0.7]]), []),
             "skew 1e-8 of sym n=4 rank_tol=1e-6": (G + G.T + 1e-8 * (G - G.T),
                                                    ["--tol", "rank_tol=1e-6"])}
    for kind, (A, tol) in edges.items():
        path = matrix(f"edge-{kind.split()[0]}.txt", A)
        for basis in _BASES:
            requests.append((f"analyze {kind} {basis}",
                             ["analyze", "--input", path, "--basis", basis, *tol]))
    K = np.random.default_rng(6).uniform(-1, 1, (4, 4))
    Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))
    ties = {"diag(1, 1, 3)": np.diag([1.0, 1.0, 3.0]) + (K - K.T)[:3, :3],
            "Q diag(1, 1, 3, 2) Q^T": Q @ np.diag([1.0, 1.0, 3.0, 2.0]) @ Q.T + K - K.T}
    for i, (kind, A) in enumerate(ties.items()):
        path = matrix(f"tie{i}.txt", A)
        requests.append((f"analyze repeated expansion eigenvalue {kind} + skew expansion",
                         ["analyze", "--input", path, "--basis", "expansion"]))
    return requests


def run_one(src, argv, workdir):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", _RUN, *argv], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=300)
    err = proc.stderr.replace(os.path.abspath(src), "<src>")
    return proc.returncode, proc.stdout, re.sub(r"\.report-\w{8}", ".report-<tmp>", err)


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
