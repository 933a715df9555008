"""Seeded inputs for the three benchmark workloads.

Only numpy is used here, never rotform: the program under test receives the
generated inputs and nothing else.  A workload is a sequence of rounds; round
r of a workload is a pure function of (seed, r), so the same seed gives the
same corpus.  Every operation carries the ground truth its oracle needs.
"""

from dataclasses import dataclass, field
import json
import os

import numpy as np

WORKLOADS = ("spectral_dense", "identities_sweep", "cli_small")

# spectral_dense: families per dimension.  Every family appears at the desk
# sizes, and random dense matrices with their 1e-6 and 1e6 copies at every
# size.  The large sizes keep fewer families so one round stays near ten
# seconds at the seed commit, where a single n = 32 matrix costs about 1.7 s;
# n = 32 drops the 1e6 copy, whose overflow the unscaled n = 32 matrix
# already shows.
_SCALED = ("random@1e-6", "random@1e6")
_ALL_FAMILIES = ("random", "symmetric", "skew", "normal", "defective", "repeated")
SPECTRAL_PLAN = (
    (4, _ALL_FAMILIES + _SCALED + ("normal@1e-6", "normal@1e6")),
    (8, _ALL_FAMILIES + _SCALED + ("normal@1e-6", "normal@1e6")),
    (12, _ALL_FAMILIES + _SCALED + ("normal@1e-6", "normal@1e6")),
    (16, _ALL_FAMILIES + _SCALED),
    (20, ("random", "normal", "defective") + _SCALED),
    (24, ("random",) + _SCALED),
    (32, ("random", "random@1e-6")),
)
SPECTRAL_FUNCTIONS = (
    "eigenstructure", "normality_report", "expansion_eigenbasis", "skew_canonical_basis",
)
# n = 3..16 with n = 3 twice: with 15 requests a round, the median and the
# 90th percentile fall inside one dimension's samples (n = 9 and n = 15), not
# on the boundary between two, where they would swing between dimensions.
IDENTITY_DIMS = (3,) + tuple(range(3, 17))
ANALYZE_DIMS = (2, 3, 4, 6)
BASIS_MODES = ("given", "expansion", "skew-canonical")

_WORKLOAD_TAG = {name: i for i, name in enumerate(WORKLOADS)}


@dataclass
class Op:
    """One request of a workload.

    kind is the public function name (spectral_dense) or the CLI command;
    argv is set for CLI requests; truth holds what the oracle needs;
    known_defect names the known rotform defect the request runs into.
    """

    kind: str
    label: str
    matrix: np.ndarray = None
    argv: tuple = None
    expect_exit: int = 0
    truth: dict = field(default_factory=dict)
    known_defect: str = ""


def _rng(workload, seed, round_index):
    return np.random.default_rng([int(seed), _WORKLOAD_TAG[workload], int(round_index)])


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.where(np.diag(R) < 0, -1.0, 1.0)


def _similarity(rng, n):
    """A random similarity with condition number of order ten."""
    while True:
        S = rng.uniform(-1.0, 1.0, size=(n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
        if np.linalg.cond(S) < 50.0:
            return S


def _spread_values(rng, k, lo=-2.0, hi=2.0):
    """k real values on an even grid with jitter, so no two are close."""
    if k == 0:
        return np.zeros(0)
    grid = np.linspace(lo, hi, k)
    step = (hi - lo) / max(k - 1, 1)
    return grid + rng.uniform(-0.2, 0.2, size=k) * step


def _block_diag(blocks, n):
    M = np.zeros((n, n))
    pos = 0
    for blk in blocks:
        m = blk.shape[0]
        M[pos:pos + m, pos:pos + m] = blk
        pos += m
    return M


def _family_matrix(rng, family, n):
    """(matrix, truth) for one unscaled family member.

    truth["eigs"] lists the exact eigenvalues with repetition (None when only
    numpy can say), truth["gm"] maps each real eigenvalue to its geometric
    multiplicity, and truth["mult"] is the largest algebraic multiplicity.
    """
    if family == "random":
        return rng.standard_normal((n, n)), {"eigs": None, "gm": None, "mult": 1}
    if family == "symmetric":
        d = _spread_values(rng, n)
        Q = _orthogonal(rng, n)
        A = Q @ np.diag(d) @ Q.T
        A = 0.5 * (A + A.T)
        return A, {"eigs": list(d), "gm": {float(x): 1 for x in d}, "mult": 1}
    if family in ("skew", "normal"):
        pairs = n // 2 if family == "skew" else max(1, n // 4)
        rates = rng.uniform(0.5, 2.0, size=pairs)
        centres = np.zeros(pairs) if family == "skew" else rng.uniform(-2.0, 2.0, size=pairs)
        reals = _spread_values(rng, n - 2 * pairs)
        blocks = [np.array([[a, b], [-b, a]]) for a, b in zip(centres, rates)]
        blocks += [np.array([[x]]) for x in reals]
        Q = _orthogonal(rng, n)
        A = Q @ _block_diag(blocks, n) @ Q.T
        if family == "skew":
            A = 0.5 * (A - A.T)
        eigs = [complex(a, s * b) for a, b in zip(centres, rates) for s in (1, -1)]
        eigs += [complex(x) for x in reals]
        return A, {"eigs": eigs, "gm": {float(x): 1 for x in reals}, "mult": 1}
    if family == "defective":
        # two 2x2 Jordan blocks (geometric multiplicity 1) plus simple values
        vals = _spread_values(rng, n - 2)
        diag = np.sort(np.concatenate([vals[:2], vals]))
        J = np.diag(diag)
        J[np.arange(n - 1), np.arange(1, n)] = diag[:-1] == diag[1:]
        S = _similarity(rng, n)
        return S @ J @ np.linalg.inv(S), {"eigs": [complex(x) for x in diag],
                                          "gm": {float(x): 1 for x in vals}, "mult": 2}
    if family == "repeated":
        # one eigenvalue of multiplicity 3, diagonalisable (geometric multiplicity 3)
        vals = _spread_values(rng, n - 2)
        diag = np.concatenate([[vals[0], vals[0]], vals])
        S = _similarity(rng, n)
        gm = {float(x): 1 for x in vals}
        gm[float(vals[0])] = 3
        eigs = [complex(x) for x in diag]
        return S @ np.diag(diag) @ np.linalg.inv(S), {"eigs": eigs, "gm": gm, "mult": 3}
    raise ValueError(f"unknown family {family!r}")


def _scaled(family):
    if "@" in family:
        base, factor = family.split("@")
        return base, float(factor)
    return family, 1.0


def spectral_matrices(seed, round_index):
    """[(label, matrix, truth)] for one spectral_dense round, ascending in n."""
    rng = _rng("spectral_dense", seed, round_index)
    out = []
    for n, families in SPECTRAL_PLAN:
        for family in families:
            base, factor = _scaled(family)
            A, truth = _family_matrix(rng, base, n)
            A = factor * A
            truth = dict(truth)
            if truth["eigs"] is not None:
                truth["eigs"] = [factor * z for z in truth["eigs"]]
                truth["gm"] = {factor * k: v for k, v in truth["gm"].items()}
            truth["family"] = base
            truth["scale"] = factor
            out.append((f"{family}/n={n}", A, truth))
    return out


def known_defect(fn, family, factor, n):
    """Why rotform is known to get this spectral_dense request wrong, or "".

    At the seed commit eigenstructure fails or returns a spectrum the oracle
    rejects on these cells (ROADMAP item 2: absolute scale floors, and
    Durand-Kerner roots of the characteristic polynomial that diverge, or
    lose digits when eigenvalues lie close or coincide).  Sampled per cell:
    eigenstructure fails on every 1e-6 copy and on every 1e6 copy from n = 8;
    skew spectra are wrong on 1 of 250 matrices at n = 8 and 6 of 80 at
    n = 16, where close rotation rates meet a well-conditioned eigenproblem;
    the triple eigenvalue of the repeated family loses its eigenvectors on 3
    of 1500 matrices at n = 4; at n = 24 every family fails on some matrices.
    The requests stay in the corpus and are timed and checked like the rest;
    run.py reports them apart.
    """
    if fn != "eigenstructure":
        return ""
    if factor != 1.0:
        return "eigenstructure of a scaled copy"
    if n >= 24:
        return "eigenstructure at n >= 24"
    if family == "skew":
        return "eigenstructure of a skew matrix"
    if family == "repeated":
        return "eigenstructure of a triple eigenvalue"
    return ""


def spectral_round(seed, round_index):
    ops = []
    for label, A, truth in spectral_matrices(seed, round_index):
        for fn in SPECTRAL_FUNCTIONS:
            # the canonical bases refuse a zero symmetric or skew part by contract
            if fn == "expansion_eigenbasis" and truth["family"] == "skew":
                continue
            if fn == "skew_canonical_basis" and truth["family"] == "symmetric":
                continue
            defect = known_defect(fn, truth["family"], truth["scale"], A.shape[0])
            ops.append(Op(kind=fn, label=f"{fn}:{label}", matrix=A, truth=truth,
                          known_defect=defect))
    return ops


def identities_round(seed, round_index):
    rng = _rng("identities_sweep", seed, round_index)
    ops = []
    for n in IDENTITY_DIMS:
        cli_seed = int(rng.integers(0, 2**31 - 1))
        argv = ("identities", "--seed", str(cli_seed), "--params", f"n={n}")
        ops.append(Op(kind="identities", label=f"identities:n={n}", argv=argv,
                      truth={"n": n}))
    return ops


# --- cli_small -----------------------------------------------------------------

def _write(path, text):
    with open(path, "w") as handle:
        handle.write(text)
    return path


def _grid_text(A):
    return "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in A)


def _json_text(A):
    return json.dumps({"n": int(A.shape[0]), "rows": A.tolist()})


def _planar_inputs(rng):
    def complex_pair():
        a = rng.uniform(-2.0, 2.0)
        b, c = rng.uniform(0.5, 2.0, size=2)
        return np.array([[a, b], [-c, a + rng.uniform(-0.5, 0.5)]])

    lam = rng.uniform(-2.0, 2.0)
    b = rng.uniform(0.5, 2.0)
    tiny = 1e-14 * b  # discriminant +-4e-14 b^2: inside the rounding band of a double root
    return [
        ("complex", complex_pair()),
        ("complex", complex_pair()),
        ("repeated", lam * np.eye(2)),
        ("repeated", np.array([[lam, b], [0.0, lam]])),
        ("borderline", np.array([[lam, b], [tiny, lam]])),
        ("borderline", np.array([[lam, b], [-tiny, lam]])),
    ]


def _helix_grid(c, centre, h=0.02, m=9):
    """Samples of the unit helix field (-y, x, c)/|(-y, x, c)| on an m^3 grid."""
    origin = np.asarray(centre, dtype=float) - h * (m // 2)
    axis = np.arange(m) * h
    X, Y, Z = np.meshgrid(origin[0] + axis, origin[1] + axis, origin[2] + axis, indexing="ij")
    V = np.stack([-Y, X, np.full_like(X, c)], axis=-1)
    V /= np.linalg.norm(V, axis=-1, keepdims=True)
    return {"origin": origin.tolist(), "spacing": [h, h, h], "values": V.tolist()}


def _point_flag(point):
    # the "=" form keeps argparse from reading a leading minus sign as a flag
    return "--point=" + ",".join(repr(float(x)) for x in point)


def cli_round(seed, round_index, workdir):
    """One cli_small round; input files are written into workdir."""
    rng = _rng("cli_small", seed, round_index)
    ops = []
    for i, (family, A) in enumerate(_planar_inputs(rng)):
        path = _write(os.path.join(workdir, f"planar{i}.txt"), _grid_text(A))
        ops.append(Op(kind="planar", label=f"planar:{family}", matrix=A,
                      argv=("planar", "--input", path)))
    for n in ANALYZE_DIMS:
        for mode in BASIS_MODES:
            for fmt in ("grid", "json"):
                # dense samples have non-zero symmetric and skew parts, which
                # the expansion and skew-canonical modes require
                A = rng.uniform(-1.0, 1.0, size=(n, n))
                text = _grid_text(A) if fmt == "grid" else _json_text(A)
                path = _write(os.path.join(workdir, f"analyze-{n}-{mode}-{fmt}.txt"), text)
                probe_seed = int(rng.integers(0, 1000))
                ops.append(Op(kind="analyze", label=f"analyze:n={n}:{mode}:{fmt}", matrix=A,
                              argv=("analyze", "--input", path, "--basis", mode,
                                    "--seed", str(probe_seed))))
    for _ in range(2):
        c = rng.uniform(0.2, 1.0)
        r = rng.uniform(0.5, 2.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        point = (r * np.cos(phi), r * np.sin(phi), rng.uniform(-1.0, 1.0))
        ops.append(Op(kind="frenet", label="frenet:helix",
                      argv=("frenet", "--field", "helix", "--params", f"c={c!r}",
                            _point_flag(point)),
                      truth={"field": "helix", "c": c, "point": point}))
    r = rng.uniform(0.5, 3.0)
    ops.append(Op(kind="frenet", label="frenet:circular",
                  argv=("frenet", "--field", "circular", "--params", f"r={r!r}"),
                  truth={"field": "circular", "c": 0.0, "point": (r, 0.0, 0.0)}))
    c = rng.uniform(0.3, 0.8)
    point = (rng.uniform(0.8, 1.5), 0.0, 0.0)
    grid_path = _write(os.path.join(workdir, "field.json"), json.dumps(_helix_grid(c, point)))
    ops.append(Op(kind="frenet", label="frenet:grid",
                  argv=("frenet", "--field", f"file:{grid_path}", _point_flag(point)),
                  truth={"field": "grid", "c": c, "point": point}))
    ops.extend(_malformed_ops(rng, workdir))
    return ops


def _malformed_ops(rng, workdir):
    """Requests that must be refused with exit code 2."""
    n = int(rng.integers(2, 5))
    good = _write(os.path.join(workdir, "good.txt"), _grid_text(rng.uniform(-1, 1, size=(n, n))))
    bad_token = _write(os.path.join(workdir, "bad-token.txt"), "1 2\n3 oops\n")
    ragged = _write(os.path.join(workdir, "ragged.txt"), "1 2 3\n4 5 6\n")
    no_rows = _write(os.path.join(workdir, "no-rows.json"), '{"n": 2}')
    three = _write(os.path.join(workdir, "three.txt"), _grid_text(np.eye(3)))
    missing = os.path.join(workdir, "does-not-exist.txt")
    cases = [
        ("bad-token", ("analyze", "--input", bad_token)),
        ("not-square", ("analyze", "--input", ragged)),
        ("json-keys", ("analyze", "--input", no_rows)),
        ("bad-tol", ("analyze", "--input", good, "--tol", "bogus=1")),
        ("planar-3x3", ("planar", "--input", three)),
        ("unknown-field", ("frenet", "--field", "vortex", "--point", "1,0,0")),
        ("missing-file", ("analyze", "--input", missing)),
        ("bad-basis", ("analyze", "--input", good, "--basis", "bogus")),
    ]
    return [Op(kind="malformed", label=f"malformed:{name}", argv=argv, expect_exit=2)
            for name, argv in cases]


def workload_round(workload, seed, round_index, workdir):
    if workload == "spectral_dense":
        return spectral_round(seed, round_index)
    if workload == "identities_sweep":
        return identities_round(seed, round_index)
    if workload == "cli_small":
        return cli_round(seed, round_index, workdir)
    raise ValueError(f"unknown workload {workload!r}")
