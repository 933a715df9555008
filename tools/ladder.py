"""Time rotform layer by layer over a ladder of sizes, check each result
against an independent oracle, and write one JSON file keyed by layer.

    python tools/ladder.py --src parent=../parent/src --src change=src --out BENCH.json

Each --layer NAME (repeatable) keeps the file to that layer; without one, every layer runs.

Each --src LABEL=PATH names the `src` directory of a rotform checkout.  One
process, with one BLAS thread, loads every tree as a package of its own
(src/rotform imports only relatively).  A row times the labels call against
call on the same inputs: one warm-up per label, then PAIRS rounds of one call
per label, in --src order reversed every other round, all while the inputs
exist.  Per label it holds the min and spread (max - min) of the PAIRS CPU
times; each label after the first adds the median and quartiles of its
per-round time ratio to the first label (ratio_median, ratio_q1, ratio_q3)
and the rounds it was faster (wins).  The oracles run once per label:

- collings_det(D, B): D the diagonal and B the rest of a uniform(-1, 1) matrix
  with seed n.  Adds the tracemalloc peak of one more call and the error
  against mpmath's det at 60 digits over the term mass
  prod_i (|d_i| + |row i of B|_2), and over n eps times that mass.
- spectrum: real_spectrum and eigenstructure on three families of n x n
  matrices (SPECTRUM_FAMILIES): uniform(-1, 1); clustered, Q diag(1, 1, 2,
  ..., n - 1) Q^T for Q the orthogonal factor of a standard-normal draw, where
  1 is double with a two-dimensional eigenspace; and jordan, an integer
  similarity of the same diagonal with J[0, 1] = 1, where 1 is double with a
  one-dimensional eigenspace.  Call k of a label takes the matrix with seed
  [n, k], so every call starts on a new draw and times no result kept from
  the one before (jordan has only three members at n = 2, so draws repeat
  there).  Adds how many of REQUESTS more (seeds 1000 n + k) ended in
  NumericalError (CLI exit 3), for clustered and jordan how many of those
  listed the construction's real eigenvalues with its multiplicities
  (as_built: algebraic for real_spectrum, geometric for eigenstructure, and
  no complex pair), and the Hausdorff distance over max|A| from the
  warm-up's listed eigenvalues (pairs with both conjugates) to mpmath.eig's
  at 50 digits for uniform with n <= ORACLE_MAX_N, to the construction's
  for the other families.
- skew_canonical_basis of a uniform(-1, 1) matrix, for n in SKEW_SIZES: the
  spectrum sizes and odd n, where the skew part has a one-dimensional
  kernel.  Call k of a label takes the matrix with seed [n, k].  Adds the
  kernel dimension, how many of REQUESTS more (seeds 1000 n + k) ended in
  NumericalError and, for n <= ORACLE_MAX_N, the largest distance over
  max|K| from the warm-up's rates to the positive imaginary parts,
  descending, of mpmath.eig of the skew part K at 50 digits.
- normal: normal_power_basis and normal_invariant_recover on Q D Q^T, D the
  block diagonal of n // 2 rotation-scaling blocks [[a, b], [-b, a]] and, for odd
  n, one real entry c, for n in NORMAL_SIZES and three families (NORMAL_FAMILIES):
  distinct, a and c uniform(-1, 1); tied, a = c = 1, where the expansion form
  is I and the whole basis comes from the refinement by K^2; and skew, a = c = 0,
  where the symmetric part is rounding noise; b is uniform(0.5, 2) and Q the
  orthogonal factor of a standard-normal draw.  Call k of a label takes the matrix
  with seed [n, k].  Adds how many of REQUESTS more (seeds 1000 n + k) ended in
  NumericalError (a timed call may end so too), for normal_power_basis the warm-up's
  largest check (checks_max) and, for normal_invariant_recover, the largest error
  of the warm-up's pm^k against e_k of the construction's eigenvalues a +- i b and
  c in mpmath at 50 digits, over e_k of their moduli, or over 1 where that is 0
  (e_n of an odd skew n); each null where the warm-up was refused.
- frenet_report at POINT on the helix field (-y, x, C) / |(-y, x, C)| with its
  analytic and with a differenced Jacobian, and on grids of m^3 samples of it
  for m in GRID_SIZES, spacing 2 HALF_WIDTH / (m - 1), POINT the middle node
  (the frenet:grid request of perfbench's cli_small).  A grid row's call builds
  its field from the sample arrays, as a request does, so no call reads a cell
  that an earlier call has read.  Adds the FlowField.at
  queries of one call, kappa, tau and their absolute errors against
  tests/test_frenet.py::helix_reference.
- analyze: `rotform analyze` through the in-process cli.main on a
  uniform(-1, 1) matrix with seed n, for n in ANALYZE_SIZES, in each of the
  three bases from a grid file and in the given basis from a JSON matrix
  object (input: grid or json).  Adds the exit code and the sym_eigen calls
  of one request, counted in every rotform module that holds the function.
- identities: `rotform identities --seed n --params n=n` through the in-process
  cli.main, for n in IDENTITIES_SIZES, on the command's own uniform(-1, 1) matrix
  with seed n.  Adds the exit code, the linalg._rel calls of one request, counted in
  every rotform module that holds the function, and the largest error of that
  request's pm^k against tests/oracles.py::minor_sums_exact over e_k of the row
  norms of A (null where the request failed).
- session: the four analyses of perfbench's spectral_dense (SESSION) in its
  order on one uniform(-1, 1) matrix, for n in SPECTRUM_SIZES.  Call k of a
  label takes the matrix with seed [n, k], so each session starts on a matrix
  the label has not seen and times no result kept from the one before.  Adds
  the sym_eigen calls of one more session and the digest of the warm-up's
  four results, their dataclass fields with arrays by their bytes.  A row per
  analysis in SESSION_STEPS times that analysis alone on the same matrices,
  each after the analyses before it in the session ran on it untimed, as they
  do in spectral_dense; its calls and digest are of the analysis and those
  before it, and of the analysis's own warm-up result.
"""

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import itertools
import json
import os
import platform
import sys
import tempfile
import time
import tracemalloc
import types
from fractions import Fraction

import mpmath
import numpy as np

PAIRS = 41
COLLINGS_SIZES = (4, 8, 12, 15, 16, 20)
SPECTRUM_SIZES = (2, 4, 8, 16, 32, 48, 64)
SKEW_SIZES = (2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 48, 64)
REQUESTS = 20
ORACLE_MAX_N = 32
C = 0.5
POINT = (1.0, 0.2, 0.1)
HALF_WIDTH = 0.16
GRID_SIZES = (5, 9, 17, 33)
NORMAL_SIZES = (3, 4, 6, 8, 12, 16)
ANALYZE_SIZES = (2, 3, 4, 6, 8, 16, 32, 48, 64)
BASES = ("given", "expansion", "skew-canonical")
IDENTITIES_SIZES = (2, 4, 8, 16, 32)
SESSION = ("eigenstructure", "normality_report", "expansion_eigenbasis", "skew_canonical_basis")
SESSION_STEPS = ("normality_report",)
_ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LOADS = itertools.count()


def _uniform(seed, n):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))


def load_rotform(path):
    """rotform from the src directory PATH, as a package under a name of its own."""
    name, package = f"rotform_{next(_LOADS)}", os.path.join(os.path.abspath(path), "rotform")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _paired(packages, call, before=None):
    """call(rotform) for each {label: rotform}: the warm-up results and each label's timing
    cells from PAIRS rounds of one call per label, the order reversed every other round;
    before(rotform), where given, runs ahead of each call, untimed."""
    labels = list(packages)
    before = before or (lambda rf: None)
    results = {}
    for label in labels:
        before(packages[label])
        results[label] = call(packages[label])
    times = {label: [] for label in labels}
    for r in range(PAIRS):
        for label in labels[::-1] if r % 2 else labels:
            before(packages[label])
            start = time.process_time()
            call(packages[label])
            times[label].append(time.process_time() - start)
    first, cells = np.array(times[labels[0]]), {}
    for label in labels:
        t = np.array(times[label])
        cells[label] = {"cpu_ms_min": 1e3 * float(t.min()), "cpu_ms_spread": 1e3 * float(np.ptp(t))}
        if label != labels[0]:
            q1, median, q3 = np.percentile(t / first, [25, 50, 75]).tolist()
            cells[label].update(ratio_median=median, ratio_q1=q1, ratio_q3=q3,
                                wins=int(np.sum(t < first)))
    return results, cells


def _attempt(rotform, func, A):
    """func(A), or None where it ended in rotform's NumericalError."""
    try:
        return func(A)
    except rotform.NumericalError:
        return None


def _outcomes(rotform, func, make, n):
    """func on REQUESTS more n x n matrices make(1000 n + k, n): each result, or None
    where it ended in rotform's NumericalError."""
    return [_attempt(rotform, func, make(1000 * n + k, n)) for k in range(REQUESTS)]


def _fresh(packages, make, n, call, before=None):
    """_paired over call(rotform, A), call k of each label on its own make([n, k], n), after
    before(rotform, A), untimed, where given."""
    matrices = [make([n, k], n) for k in range(PAIRS + 1)]
    feeds = {rf: iter(matrices) for rf in packages.values()}  # one sequence per label
    current = {}

    def prepare(rf):
        current[rf] = next(feeds[rf])
        if before:
            before(rf, current[rf])

    return _paired(packages, lambda rf: call(rf, current[rf]), prepare)


# --- collings_det ------------------------------------------------------------
def _split(n):
    """The seed-n matrix A, its diagonal part D and the rest B."""
    A = _uniform(n, n)
    D = np.diag(np.diag(A))
    return A, D, A - D


def collings_rows(packages):
    """One row per n and label; `value` carries the expansion to the oracle."""
    rows = {label: [] for label in packages}
    for n in COLLINGS_SIZES:
        _, D, B = _split(n)
        values, timing = _paired(packages, lambda rf: rf.collings_det(D, B))
        for label, rf in packages.items():
            tracemalloc.start()
            rf.collings_det(D, B)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            rows[label].append({"n": n, "seed": n, **timing[label],
                                "tracemalloc_peak_mb": peak / 1e6, "value": values[label]})
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
def _diagonal(n):
    """The diagonal 1, 1, 2, ..., n - 1 of the clustered and jordan families."""
    return np.concatenate([[1.0], np.arange(1.0, n)])


def _clustered(seed, n):
    """Q diag(1, 1, 2, ..., n - 1) Q^T, Q the orthogonal factor of a standard-normal draw."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return Q @ np.diag(_diagonal(n)) @ Q.T


def _jordan(seed, n):
    """S J S^-1 for J = diag(1, 1, 2, ..., n - 1) with J[0, 1] = 1 and S = L U, L and U
    unit bidiagonal with entries in {-1, 0, 1}: an integer matrix, exact in floats."""
    rng = np.random.default_rng(seed)
    J = np.diag(_diagonal(n))
    J[0, 1] = 1.0
    L = np.eye(n) + np.diag(rng.integers(-1, 2, n - 1).astype(float), -1)
    U = np.eye(n) + np.diag(rng.integers(-1, 2, n - 1).astype(float), 1)
    return L @ U @ J @ np.rint(np.linalg.inv(U)) @ np.rint(np.linalg.inv(L))


SPECTRUM_FAMILIES = {"uniform": _uniform, "clustered": _clustered, "jordan": _jordan}


def _listed(name, result):
    """[re, im] of every eigenvalue a result lists, pairs with both conjugates."""
    reals = ([v for v, _ in result.real_eigs] if name == "real_spectrum"
             else [e.value for e in result.entries])
    pairs = [z for z, _ in result.complex_pairs]
    return [[v, 0.0] for v in reals] + [[z.real, s * z.imag] for z in pairs for s in (1, -1)]


def spectrum_rows(packages):
    """One row per function, family, n and label; `values` carries the listed eigenvalues
    of the warm-up to the oracle."""
    rows = {label: [] for label in packages}
    for name in ("real_spectrum", "eigenstructure"):
        for family, make in SPECTRUM_FAMILIES.items():
            for n in SPECTRUM_SIZES:
                results, timing = _fresh(packages, make, n, lambda rf, A: getattr(rf, name)(A))
                for label, rf in packages.items():
                    outcomes = _outcomes(rf, getattr(rf, name), make, n)
                    rows[label].append({
                        "function": name, "family": family, "n": n, **timing[label],
                        "refused": outcomes.count(None), "requests": REQUESTS,
                        "as_built": None if family == "uniform" else sum(
                            r is not None and _multiplicities(name, r) == _built(family, name, n)
                            for r in outcomes),
                        "values": _listed(name, results[label])})
    return rows


def _multiplicities(name, result):
    """The real eigenvalues' multiplicities, algebraic for real_spectrum and geometric for
    eigenstructure, or None when the result lists a complex pair."""
    if result.complex_pairs:
        return None
    if name == "real_spectrum":
        return [m for _, m in result.real_eigs]
    return [e.geometric_multiplicity for e in result.entries]


def _built(family, name, n):
    """The multiplicities of 1, 2, ..., n - 1 by construction: 1 is double, with a
    two-dimensional eigenspace in clustered and a one-dimensional one in jordan."""
    first = 1 if family == "jordan" and name == "eigenstructure" else 2
    return [first] + [1] * (n - 2)


def _hausdorff(got, ref):
    """Largest distance from a point of either set to the nearest of the other."""
    D = np.abs(got[:, None] - ref[None, :])
    return float(max(D.min(axis=0).max(), D.min(axis=1).max()))


def spectrum_document(results):
    reference = {}
    for rows in results.values():
        for row in rows:
            family, n, values = row["family"], row["n"], row.pop("values")
            A = SPECTRUM_FAMILIES[family]([n, 0], n)  # the warm-up's matrix
            if family != "uniform":
                reference[family, n] = _diagonal(n)
            elif n > ORACLE_MAX_N:
                continue
            elif (family, n) not in reference:
                with mpmath.workdps(50):
                    eigs = mpmath.eig(mpmath.matrix(A.tolist()), left=False, right=False)
                    reference[family, n] = np.array([complex(z) for z in eigs])
            got = np.array([complex(re, im) for re, im in values])
            row["eig_error_over_maxabs"] = (_hausdorff(got, reference[family, n])
                                            / float(np.max(np.abs(A))))
    return {
        "functions": ["rotform.real_spectrum", "rotform.eigenstructure"],
        "input": "call k of a label on the family's matrix with seed [n, k], k = 0 the warm-up: "
                 "uniform(-1, 1) from numpy default_rng; clustered Q diag(1, 1, 2, ..., n - 1) "
                 "Q^T; jordan S J S^-1 with J that diagonal and J[0, 1] = 1, S integer",
        "refused": f"NumericalError count over {REQUESTS} matrices with seeds 1000 n + k",
        "as_built": f"of the {REQUESTS}, how many list 1, 2, ..., n - 1 with the construction's "
                    "multiplicities (algebraic for real_spectrum, geometric for eigenstructure) "
                    "and no complex pair; null for uniform",
        "oracle": f"the warm-up's eigenvalues: mpmath.eig at 50 digits for uniform, n <= "
                  f"{ORACLE_MAX_N}; the construction's otherwise; Hausdorff distance over max|A|",
        "results": results,
    }


# --- skew_canonical_basis ----------------------------------------------------
def skew_rows(packages):
    """One row per n and label; `lambdas` carries the warm-up's rates to the oracle."""
    rows = {label: [] for label in packages}
    for n in SKEW_SIZES:
        results, timing = _fresh(packages, _uniform, n, lambda rf, A: rf.skew_canonical_basis(A))
        for label, rf in packages.items():
            block = results[label]
            rows[label].append({"n": n, **timing[label], "zero_dim": block.zero_dim,
                                "refused": _outcomes(rf, rf.skew_canonical_basis, _uniform,
                                                     n).count(None),
                                "requests": REQUESTS, "lambdas": list(block.lambdas)})
    return rows


def skew_document(results):
    reference = {}
    for rows in results.values():
        for row in rows:
            n, lambdas = row["n"], np.array(row.pop("lambdas"))
            if n > ORACLE_MAX_N:
                continue
            A = _uniform([n, 0], n)  # the warm-up's matrix
            K = 0.5 * (A - A.T)
            if n not in reference:
                with mpmath.workdps(50):
                    eigs = mpmath.eig(mpmath.matrix(K.tolist()), left=False, right=False)
                    reference[n] = np.sort([float(mpmath.im(z)) for z in eigs])[::-1]
            error = np.abs(lambdas - reference[n][: len(lambdas)]).max(initial=0.0)
            row["rate_error_over_maxabs"] = float(error) / float(np.max(np.abs(K)))
    return {
        "function": "rotform.skew_canonical_basis",
        "input": "call k of a label on A uniform(-1, 1) from numpy default_rng([n, k]), "
                 "k = 0 the warm-up",
        "refused": f"NumericalError count over {REQUESTS} matrices with seeds 1000 n + k",
        "oracle": f"mpmath.eig of K = (A - A^T) / 2 at 50 digits, n <= {ORACLE_MAX_N}; the "
                  "largest distance from the rates to its imaginary parts, descending, over max|K|",
        "results": results,
    }


# --- normal: normal_power_basis and normal_invariant_recover -----------------
def _normal_parts(seed, n, family):
    """(Q, a, b, c) of the seed's Q D Q^T: the blocks' centres a and rates b, the real
    entry c of an odd n, and Q the orthogonal factor of a standard-normal draw."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = n // 2
    b = rng.uniform(0.5, 2.0, m)
    if family == "tied":
        return Q, np.ones(m), b, 1.0
    if family == "skew":
        return Q, np.zeros(m), b, 0.0
    return Q, rng.uniform(-1.0, 1.0, m), b, rng.uniform(-1.0, 1.0)


def _normal_family(family):
    def make(seed, n):
        Q, a, b, c = _normal_parts(seed, n, family)
        D, i = np.zeros((n, n)), np.arange(0, n - 1, 2)
        D[i, i] = D[i + 1, i + 1] = a
        D[i, i + 1], D[i + 1, i] = b, -b
        if n % 2:
            D[-1, -1] = c
        return Q @ D @ Q.T
    return make


NORMAL_FAMILIES = {family: _normal_family(family) for family in ("distinct", "tied", "skew")}
NORMAL = ("normal_power_basis", "normal_invariant_recover")


def normal_rows(packages):
    """One row per function, family, n and label; `pms` carries the warm-up's minor sums
    to the oracle, and checks_max is the warm-up's largest check."""
    rows = {label: [] for label in packages}
    for name in NORMAL:
        for family, make in NORMAL_FAMILIES.items():
            for n in NORMAL_SIZES:
                results, timing = _fresh(packages, make, n,
                                         lambda rf, A: _attempt(rf, getattr(rf, name), A))
                for label, rf in packages.items():
                    outcomes, result = _outcomes(rf, getattr(rf, name), make, n), results[label]
                    rows[label].append({
                        "function": name, "family": family, "n": n, **timing[label],
                        "refused": outcomes.count(None), "requests": REQUESTS,
                        "checks_max": (max(result[1].values())
                                       if name == NORMAL[0] and result else None),
                        "pms": result[0] if name == NORMAL[1] and result else None})
    return rows


def normal_document(results):
    reference = {}
    for rows in results.values():
        for row in rows:
            family, n, pms = row["family"], row["n"], row.pop("pms")
            if (family, n) not in reference:
                _, a, b, c = _normal_parts([n, 0], n, family)  # the warm-up's matrix
                eigs = [complex(x, s * y) for x, y in zip(a, b) for s in (1, -1)] + [c] * (n % 2)
                with mpmath.workdps(50):
                    exact = [mpmath.mpc(z) for z in eigs]
                    masses = _elementary([abs(z) for z in exact])  # e_n 0 for an odd skew n
                    reference[family, n] = list(zip(_elementary(exact), [m or 1 for m in masses]))
            row["pm_error_over_mass"] = None if pms is None else max(
                float(abs(pm - e) / mass) for pm, (e, mass) in zip(pms, reference[family, n]))
    return {
        "functions": [f"rotform.{name}" for name in NORMAL],
        "input": "call k of a label on Q D Q^T from numpy default_rng([n, k]), k = 0 the "
                 "warm-up: D blockdiag([[a, b], [-b, a]], ..., [c]), b uniform(0.5, 2); a, c "
                 "uniform(-1, 1) for distinct, 1 for tied, 0 for skew; Q the orthogonal "
                 "factor of a standard-normal draw",
        "checks": "checks_max: the largest of the warm-up's normal_power_basis checks",
        "refused": f"NumericalError count over {REQUESTS} matrices with seeds 1000 n + k",
        "oracle": "e_k of the construction's eigenvalues a +- i b and c in mpmath at 50 digits; "
                  "the largest |pm^k - e_k| over e_k of the moduli (over 1 where that is 0), "
                  "for normal_invariant_recover",
        "results": results,
    }


def _elementary(values):
    """e_1, ..., e_n of the n values, by the product recurrence in their arithmetic."""
    e = [1] + [0] * len(values)
    for v in values:
        for j in range(len(values), 0, -1):
            e[j] += v * e[j - 1]
    return e[1:]


# --- frenet_report -----------------------------------------------------------
def _fields(frenet):
    """(label, m, spacing, make) of every benchmarked field, make() its FlowField: the
    helix fields built once, a grid field built anew by each call from arrays built once,
    as a request builds its field from the grid file's."""
    helix = frenet.helix_field(C), frenet.helix_field(C, analytic=False)
    out = [("helix analytic", None, None, lambda: helix[0]),
           ("helix differenced", None, None, lambda: helix[1])]
    for m in GRID_SIZES:
        h = 2.0 * HALF_WIDTH / (m - 1)
        origin = np.array(POINT) - h * (m // 2)
        X, Y, Z = np.meshgrid(*(origin[i] + h * np.arange(m) for i in range(3)), indexing="ij")
        V = np.stack([-Y, X, np.full_like(X, C)], axis=-1)
        V /= np.linalg.norm(V, axis=-1, keepdims=True)
        make = functools.partial(frenet.grid_field, origin, [h, h, h], V)
        out.append((f"helix grid m={m}", m, h, make))
    return out


def frenet_rows(packages):
    x = np.array(POINT)
    fields = {rf: _fields(rf.frenet) for rf in packages.values()}  # built by each rotform
    rows = {label: [] for label in packages}
    for i in range(len(GRID_SIZES) + 2):
        results, timing = _paired(packages,
                                  lambda rf: rf.frenet.frenet_report(fields[rf][i][3](), x))
        for label, rf in packages.items():
            name, m, h, make = fields[rf][i]
            field, calls = make(), []

            def counted(y, evaluator=field.evaluator):
                calls.append(1)
                return evaluator(y)

            rf.frenet.frenet_report(rf.frenet.FlowField(counted, field.jacobian, field.fd_step), x)
            data = results[label][0].data
            rows[label].append({"field": name, "m": m, "spacing": h, **timing[label],
                                "field_queries": len(calls), "kappa": data.kappa, "tau": data.tau})
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
    return _report(main, argv)[0]


def _report(main, argv):
    """(exit code, report text) of main(argv), its messages discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return main(argv), out.getvalue()


def _calls(rotform, name, func, *args):
    """How many times func(*args) calls linalg's function name, through any rotform
    module, and what it returned."""
    original, calls = getattr(rotform.linalg, name), []

    def counted(*a, **k):
        calls.append(1)
        return original(*a, **k)

    holders = [m for m in vars(rotform).values()
               if isinstance(m, types.ModuleType) and getattr(m, name, None) is original]
    for module in holders:
        setattr(module, name, counted)
    try:
        result = func(*args)
    finally:
        for module in holders:
            setattr(module, name, original)
    return len(calls), result


def analyze_rows(packages):
    """Per n, a row per basis on the grid file and one on the JSON file in the given basis."""
    mains = {rf: importlib.import_module(rf.__name__ + ".cli").main for rf in packages.values()}
    rows = {label: [] for label in packages}
    with tempfile.TemporaryDirectory() as tmp:
        for n in ANALYZE_SIZES:
            grid, obj = os.path.join(tmp, f"uniform{n}.txt"), os.path.join(tmp, f"uniform{n}.json")
            np.savetxt(grid, _uniform(n, n))
            with open(obj, "w") as fh:
                json.dump({"n": n, "rows": _uniform(n, n).tolist()}, fh)
            for form, path, basis in [("grid", grid, b) for b in BASES] + [("json", obj, "given")]:
                argv = ["analyze", "--input", path, "--basis", basis]
                codes, timing = _paired(packages, lambda rf: _quiet(mains[rf], argv))
                for label, rf in packages.items():
                    calls, _ = _calls(rf, "sym_eigen", _quiet, mains[rf], argv)
                    rows[label].append({"n": n, "seed": n, "basis": basis, "input": form,
                                        **timing[label], "exit": codes[label],
                                        "sym_eigen_calls": calls})
    return rows


def analyze_document(results):
    return {
        "command": "rotform analyze --input A --basis B, through rotform.cli.main in process",
        "input": "A uniform(-1, 1) from numpy default_rng(n), written by numpy.savetxt (grid) or "
                 "as a JSON matrix object of its floats (json)",
        "counts": "sym_eigen_calls: calls of linalg.sym_eigen in one request, an exact count",
        "results": results,
    }


# --- identities --------------------------------------------------------------
def identities_rows(packages):
    """One row per n and label; `pms` carries the counted request's minor sums to the oracle."""
    mains = {rf: importlib.import_module(rf.__name__ + ".cli").main for rf in packages.values()}
    rows = {label: [] for label in packages}
    for n in IDENTITIES_SIZES:
        argv = ["identities", "--seed", str(n), "--params", f"n={n}"]
        _, timing = _paired(packages, lambda rf: _quiet(mains[rf], argv))
        for label, rf in packages.items():
            calls, (code, text) = _calls(rf, "_rel", _report, mains[rf], argv)
            pms = json.loads(text)["invariants"]["principal_minor_sums"] if code == 0 else None
            rows[label].append({"n": n, "seed": n, **timing[label], "exit": code,
                                "rel_calls": calls, "pms": pms})
    return rows


def identities_document(results):
    sys.path[:0] = [os.path.join(_REPO, "src"), os.path.join(_REPO, "tests")]
    from oracles import minor_sums_exact  # imported with this checkout's rotform

    reference = {}
    for rows in results.values():
        for row in rows:
            n, pms = row["n"], row.pop("pms")
            if n not in reference:
                A = _uniform(n, n)  # the request's matrix
                masses = _elementary(np.linalg.norm(A, axis=1).tolist())
                reference[n] = list(zip(minor_sums_exact(A), masses))
            row["pm_error_over_mass"] = None if pms is None else max(
                float(abs(Fraction(pm) - exact)) / mass
                for pm, (exact, mass) in zip(pms, reference[n]))
    return {
        "command": "rotform identities --seed n --params n=n, through rotform.cli.main in process",
        "input": "A uniform(-1, 1) from numpy default_rng(n), drawn by the command",
        "counts": "rel_calls: calls of linalg._rel in one request, an exact count",
        "oracle": "tests/oracles.py::minor_sums_exact, exact; the largest |pm^k - exact| over "
                  "e_k of A's row norms",
        "results": results,
    }


# --- session: the analyses of one matrix, in turn ----------------------------
def _text(obj):
    """Deterministic text of a result: dataclass fields in order, arrays by their bytes."""
    if isinstance(obj, np.ndarray):
        return f"array{obj.shape}:{obj.tobytes().hex()}"
    if hasattr(obj, "__dataclass_fields__"):
        return type(obj).__name__ + "(" + ",".join(
            f"{k}={_text(getattr(obj, k))}" for k in obj.__dataclass_fields__) + ")"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_text(k)}:{_text(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_text, obj)) + "]"
    return repr(obj)


def digest(obj):
    return hashlib.sha256(_text(obj).encode()).hexdigest()


def _session(rotform, A, names=SESSION):
    return [getattr(rotform, name)(A) for name in names]


def session_rows(packages):
    """Per n and label, a row for the whole session and one for each analysis in
    SESSION_STEPS, timed alone after the analyses before it in SESSION ran untimed."""
    rows = {label: [] for label in packages}
    for n in SPECTRUM_SIZES:
        for analysis in ("session", *SESSION_STEPS):
            names = SESSION if analysis == "session" else (analysis,)
            ahead = SESSION[:SESSION.index(names[0])]
            results, timing = _fresh(packages, _uniform, n,
                                     functools.partial(_session, names=names),
                                     functools.partial(_session, names=ahead))
            for label, rf in packages.items():
                calls, _ = _calls(rf, "sym_eigen", _session, rf, _uniform([n, PAIRS + 1], n),
                                  ahead + names)
                rows[label].append({"analysis": analysis, "n": n, **timing[label],
                                    "sym_eigen_calls": calls, "digest": digest(results[label])})
    return rows


def session_document(results):
    return {
        "functions": [f"rotform.{name}" for name in SESSION],
        "analysis": "session: the four in turn; an analysis's name: that one alone, timed "
                    "after the ones before it in the session ran untimed on the same matrix",
        "input": f"call k of a label on A uniform(-1, 1) from numpy default_rng([n, k]): "
                 f"k = 0 the warm-up, 1..{PAIRS} timed, {PAIRS + 1} counted",
        "counts": "sym_eigen_calls: calls of linalg.sym_eigen in one session, or in the "
                  "analysis and those before it, an exact count",
        "digest": "sha256 of the warm-up's results, arrays by their bytes",
        "results": results,
    }


# --- harness -----------------------------------------------------------------
# layer: (rows({label: rotform}) -> {label: rows}, document({label: rows}))
LAYERS = {
    "collings_det": (collings_rows, collings_document),
    "spectrum": (spectrum_rows, spectrum_document),
    "skew_canonical_basis": (skew_rows, skew_document),
    "normal": (normal_rows, normal_document),
    "frenet_report": (frenet_rows, frenet_document),
    "analyze": (analyze_rows, analyze_document),
    "identities": (identities_rows, identities_document),
    "session": (session_rows, session_document),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", metavar="LABEL=PATH", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--layer", action="append", choices=sorted(LAYERS),
                        help="measure only this layer (repeatable); default all")
    args = parser.parse_args(argv)
    sources = [spec.partition("=") for spec in args.src]
    for label, sep, path in sources:
        if not sep or not os.path.isdir(path):
            parser.error(f"--src wants LABEL=PATH with PATH a directory: {label + sep + path!r}")
    packages = {label: load_rotform(path) for label, _, path in sources}
    doc = {
        "timer": f"time.process_time, one BLAS thread, all labels in one process; per row a "
                 f"warm-up, then {PAIRS} rounds of one call per label, reversed in odd rounds",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "layers": {layer: document(rows(packages)) for layer, (rows, document) in LAYERS.items()
                   if not args.layer or layer in args.layer},
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    if any(os.environ.get(name) != value for name, value in _ONE_THREAD.items()):
        # numpy reads the BLAS thread count when it loads, so start again with it set
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **_ONE_THREAD})
    main()
