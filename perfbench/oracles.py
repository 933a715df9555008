"""Independent checks of rotform's results.

Nothing here calls rotform.  Eigenvalues come from numpy's LAPACK eig (or
mpmath for the small structured cases), minor sums from np.poly, symmetric
spectra from eigvalsh, skew rates from the SVD, Frenet curvature and torsion
from the helix closed forms.  Every tolerance is relative to the size of the
matrix, so a result that is right at one scale is right at every scale.

Each check returns None when the result is accepted and a one-line reason
when it is rejected.
"""

from math import comb
import json

import numpy as np

EPS = float(np.finfo(float).eps)
# Multiplier on the backward-stable error n * eps * |A| before a result is
# called wrong.  Roots of the characteristic polynomial lose several digits
# against a backward-stable solver (about 1e-10 relative at n = 16), which is
# the documented method and not a wrong answer; 1e6 accepts that loss while a
# missing eigenvalue, a wrong multiplicity or a scale-dependent answer, all
# off by O(|A|), is still rejected.
SLACK = 1e6


def _norm2(A):
    return float(np.linalg.norm(A, 2)) if A.size else 0.0


def _condition_numbers(A):
    """Eigenvalues of A and their condition numbers |x||y| / |y^H x|."""
    w, V = np.linalg.eig(A)
    with np.errstate(all="ignore"):
        try:
            W = np.linalg.inv(V)
            kappa = np.linalg.norm(W, axis=1) * np.linalg.norm(V, axis=0)
        except np.linalg.LinAlgError:
            kappa = np.full(len(w), np.inf)
    kappa = np.where(np.isfinite(kappa), kappa, 1.0 / EPS)
    return w, kappa


def _mpmath_eigs(A):
    import mpmath

    with mpmath.workdps(40):
        ev, _ = mpmath.eig(mpmath.matrix(A.tolist()))
        return np.array([complex(z) for z in ev])


def reference_spectrum(A, truth):
    """(oracle eigenvalues, per-eigenvalue match tolerance).

    A cluster of algebraic multiplicity m moves by eps^(1/m) under rounding,
    so the tolerance of each eigenvalue is |A| (SLACK n eps kappa)^(1/m), with
    kappa its condition number for simple ones and m read from the generator's
    ground truth where there is one.
    """
    n = A.shape[0]
    scale = _norm2(A)
    w, kappa = _condition_numbers(A)
    known = truth.get("eigs")
    if known is not None and n <= 4:
        w = _mpmath_eigs(A)
        kappa = np.ones(n)
    mult = np.ones(n, dtype=int)
    if known is not None:
        known = np.asarray(known, dtype=complex)
        for i, z in enumerate(w):
            nearest = known[np.argmin(np.abs(known - z))]
            mult[i] = int(np.sum(np.abs(known - nearest) <= 1e-12 * max(scale, 1e-300)))
    tol = np.empty(n)
    for i in range(n):
        k = kappa[i] if mult[i] == 1 else 1.0
        tol[i] = scale * (SLACK * n * EPS * max(1.0, k)) ** (1.0 / mult[i])
    return w, tol


def check_eigen_report(A, truth, real_entries, complex_pairs, bromwich):
    """real_entries: [(value, geometric multiplicity, [vectors])];
    complex_pairs: [(z with Im z > 0, multiplicity)]; bromwich: (nu, N, mu, M)."""
    n = A.shape[0]
    scale = _norm2(A)
    w, tol = reference_spectrum(A, truth)
    targets = [complex(v) for v, _, _ in real_entries]
    targets += [complex(z) for z, _ in complex_pairs]
    targets += [complex(z).conjugate() for z, _ in complex_pairs]
    if not targets:
        return "no eigenvalues reported"
    targets = np.array(targets)
    hits = np.zeros(len(targets), dtype=int)
    worst_tol = np.zeros(len(targets))
    for z, t in zip(w, tol):
        j = int(np.argmin(np.abs(targets - z)))
        if abs(targets[j] - z) > t:
            return f"eigenvalue {z:.6g} unmatched: nearest reported {targets[j]:.6g}, tolerance {t:.2e}"
        hits[j] += 1
        worst_tol[j] = max(worst_tol[j], t)
    n_real = len(real_entries)
    n_pairs = len(complex_pairs)
    for k, (z, m) in enumerate(complex_pairs):
        if complex(z).imag <= 0:
            return f"complex pair {z} has non-positive imaginary part"
        got = (hits[n_real + k], hits[n_real + n_pairs + k])
        if got != (m, m):
            return f"complex pair {z:.6g} claims multiplicity {m}, oracle finds {got}"
    truth_gm = truth.get("gm")
    for k, (value, gm, vectors) in enumerate(real_entries):
        if hits[k] == 0:
            return f"spurious real eigenvalue {value:.6g}"
        if gm != len(vectors) or not 1 <= gm <= hits[k]:
            return f"eigenvalue {value:.6g}: geometric multiplicity {gm} with algebraic {hits[k]}"
        if truth_gm:
            keys = np.array(list(truth_gm))
            expect = truth_gm[float(keys[np.argmin(np.abs(keys - value))])]
        else:
            expect = 1 if hits[k] == 1 else None
        if expect is not None and gm != expect:
            return f"eigenvalue {value:.6g}: geometric multiplicity {gm}, expected {expect}"
        V = np.array(vectors, dtype=float).reshape(len(vectors), n)
        ortho = float(np.max(np.abs(V @ V.T - np.eye(len(vectors))))) if len(vectors) else 0.0
        if ortho > 1e-8:
            return f"eigenspace of {value:.6g} is not orthonormal: {ortho:.2e}"
        bound = 10.0 * worst_tol[k] + SLACK * n * EPS * scale
        for v in V:
            res = float(np.linalg.norm(A @ v - value * v))
            if res > bound:
                return f"eigenvector of {value:.6g}: |Av - lv| = {res:.2e} > {bound:.2e}"
    nu, N, mu, M = bromwich
    for z, t in zip(w, tol):
        slack = t + SLACK * n * EPS * scale
        if not (nu - slack <= z.real <= N + slack and mu - slack <= z.imag <= M + slack):
            return f"Bromwich box {bromwich} misses eigenvalue {z:.6g}"
    return None


def _commutator_share(A):
    fro = float(np.linalg.norm(A))
    if fro == 0.0:
        return 0.0
    return float(np.linalg.norm(A @ A.T - A.T @ A)) / (fro * fro)


def check_normality(A, is_normal):
    share = _commutator_share(A)
    if share <= 1e-10 and not is_normal:
        return f"normal matrix (|AA^T - A^TA| share {share:.1e}) reported as not normal"
    if share >= 1e-6 and is_normal:
        return f"non-normal matrix (|AA^T - A^TA| share {share:.1e}) reported as normal"
    return None


def _orthogonality_gap(P):
    return float(np.max(np.abs(P.T @ P - np.eye(P.shape[1]))))


def check_expansion_eigenbasis(A, split):
    scale = _norm2(A)
    n = A.shape[0]
    P = np.asarray(split.basis, dtype=float)
    if _orthogonality_gap(P) > 1e-9:
        return f"expansion basis is not orthogonal: {_orthogonality_gap(P):.2e}"
    ref = np.linalg.eigvalsh(0.5 * (A + A.T))[::-1]
    gap = float(np.max(np.abs(np.asarray(split.D) - ref)))
    if gap > 1e-9 * scale:
        return f"expansion eigenvalues off by {gap:.2e} (scale {scale:.2e})"
    S = np.asarray(split.S)
    recon = float(np.max(np.abs(P.T @ A @ P - np.diag(split.D) - S)))
    if recon > 1e-9 * scale * n or float(np.max(np.abs(S + S.T))) > 1e-12 * scale:
        return f"A is not diag(D) + S in the expansion basis: residual {recon:.2e}"
    return None


def check_skew_canonical_basis(A, block):
    n = A.shape[0]
    K = 0.5 * (A - A.T)
    scale = _norm2(K)
    P = np.asarray(block.basis, dtype=float)
    if P.shape != (n, n) or _orthogonality_gap(P) > 1e-9:
        return "skew-canonical basis is not an orthogonal n x n matrix"
    lams = np.asarray(block.lambdas, dtype=float)
    if block.zero_dim != n - 2 * len(lams):
        return f"zero_dim {block.zero_dim} does not complete {len(lams)} blocks to n = {n}"
    if np.any(lams <= 0) or np.any(np.diff(lams) > 1e-9 * scale):
        return "rotation rates are not positive and descending"
    sv = np.linalg.svd(K, compute_uv=False)
    big = int(np.sum(sv > 1e-6 * scale))
    small = int(np.sum(sv <= 1e-10 * scale))
    if not big <= 2 * len(lams) <= n - small:
        return f"{len(lams)} rotation blocks, but K has {big} clear non-zero singular values"
    off = float(np.max(np.abs(lams - sv[0:2 * len(lams):2]))) if len(lams) else 0.0
    if off > 1e-7 * scale:
        return f"rotation rates off by {off:.2e} (scale {scale:.2e})"
    C = P.T @ K @ P
    for k, lam in enumerate(lams):
        i = 2 * k
        if abs(abs(C[i, i + 1]) - lam) > 1e-7 * scale:
            return f"block {k} carries {C[i, i + 1]:.6g}, not rate {lam:.6g}"
        C[i, i + 1] = C[i + 1, i] = 0.0
    rest = float(np.max(np.abs(C))) if C.size else 0.0
    if rest > 1e-7 * scale:
        return f"skew part is not block diagonal in the basis: residual {rest:.2e}"
    return None


def check_spectral(kind, A, truth, result):
    """Oracle for one spectral_dense library call."""
    if kind == "eigenstructure":
        entries = [(e.value, e.geometric_multiplicity, [np.asarray(v) for v in e.eigenspace])
                   for e in result.entries]
        return check_eigen_report(A, truth, entries, result.complex_pairs, result.bromwich)
    if kind == "normality_report":
        reason = check_normality(A, result.is_normal)
        if reason is None and result.expansion_eigenvalues:
            ref = np.linalg.eigvalsh(0.5 * (A + A.T))[::-1]
            gap = float(np.max(np.abs(np.asarray(result.expansion_eigenvalues) - ref)))
            if gap > 1e-9 * _norm2(A):
                reason = f"expansion eigenvalues off by {gap:.2e}"
        return reason
    if kind == "expansion_eigenbasis":
        return check_expansion_eigenbasis(A, result)
    if kind == "skew_canonical_basis":
        return check_skew_canonical_basis(A, result)
    raise ValueError(f"no oracle for {kind!r}")


# --- CLI reports -----------------------------------------------------------------

def _rows_equal(doc_matrix, A):
    return doc_matrix["n"] == A.shape[0] and np.array_equal(np.array(doc_matrix["rows"]), A)


def check_analyze(A, doc):
    if not _rows_equal(doc["input"], A):
        return "echoed input does not re-parse bit-exactly"
    n = A.shape[0]
    B = A
    if doc["basis_mode"] != "given":
        P = np.array(doc["basis"], dtype=float)
        B = np.array(doc["matrix_in_basis"], dtype=float)
        if _orthogonality_gap(P) > 1e-9:
            return "working basis is not orthogonal"
        if float(np.max(np.abs(P.T @ A @ P - B))) > 1e-9 * _norm2(A) * n:
            return "matrix_in_basis is not P^T A P"
    spec = doc["spectral"]
    entries = [(e["value"], e["geometric_multiplicity"], e["eigenspace"])
               for e in spec["real_eigenvalues"]]
    pairs = [(complex(p["re"], p["im"]), p["multiplicity"]) for p in spec["complex_pairs"]]
    box = spec["bromwich"]
    bromwich = (box["real_min"], box["real_max"], box["imag_min"], box["imag_max"])
    reason = check_eigen_report(B, {"eigs": None, "gm": None}, entries, pairs, bromwich)
    if reason:
        return reason
    reason = check_normality(B, doc["normality"]["is_normal"])
    if reason:
        return reason
    forms = doc["forms"]
    scale = _norm2(B)
    if float(np.max(np.abs(np.array(forms["expansion_matrix"]) - 0.5 * (B + B.T)))) > 1e-12 * scale:
        return "expansion form is not the symmetric part"
    for key, trace in forms["rotation_traces"].items():
        k, l = (int(x) - 1 for x in key.split(","))
        if abs(trace - (B[l, k] - B[k, l])) > 1e-12 * scale:
            return f"rotation form ({key}) has trace {trace}, expected B[l,k] - B[k,l]"
    probe = forms["decomposition_probe"]
    u = np.array(probe["u"])
    w = B @ u
    e = probe["expansion"]
    r_sq = sum(v * v for v in probe["rotations"].values())
    if abs(e - u @ w) > 1e-12 * scale or abs(w @ w - e * e - r_sq) > 1e-9 * scale * scale:
        return "decomposition probe breaks |A u|^2 = e^2 + sum r^2"
    return None


def _planar_reference(A):
    a, b, c, d = A[0, 0], A[0, 1], A[1, 0], A[1, 1]
    disc = (a - d) ** 2 + 4.0 * b * c
    root = np.sqrt(complex(disc))
    return disc, (0.5 * (a + d - root), 0.5 * (a + d + root))


def check_planar(A, doc):
    if not _rows_equal(doc["input"], A):
        return "echoed input does not re-parse bit-exactly"
    planar = doc["planar"]
    fro2 = float(np.sum(A * A))
    disc, ref = _planar_reference(A)
    got = sorted((complex(z["re"], z["im"]) for z in planar["eigenvalues"]),
                 key=lambda z: (z.real, z.imag))
    ref = sorted(ref, key=lambda z: (z.real, z.imag))
    tol = np.sqrt(fro2) * np.sqrt(SLACK * EPS)
    if any(abs(g - r) > tol for g, r in zip(got, ref)):
        return f"eigenvalues {got} differ from the quadratic formula {ref}"
    cls = planar["classification"]
    rel = disc / fro2 if fro2 else 0.0
    if rel < -1e-12:
        allowed = {"complex"}
    elif rel > 1e-12:
        allowed = {"real-distinct"}
    elif max(abs(A[0, 1]), abs(A[1, 0]), abs(A[0, 0] - A[1, 1])) <= 1e-14 * np.sqrt(fro2):
        allowed = {"repeated-gm2"}
    else:
        allowed = {"repeated-gm1", "complex", "real-distinct"}
    if cls not in allowed:
        return f"classified {cls!r}; discriminant share {rel:.2e} allows {sorted(allowed)}"
    zeros = {"complex": 0, "repeated-gm1": 1, "real-distinct": 2, "repeated-gm2": "inf"}
    if planar["zero_count"] != zeros[cls]:
        return f"zero count {planar['zero_count']} contradicts {cls!r}"
    return None


def check_frenet(truth, doc):
    x, y, z = truth["point"]
    c = truth["c"]
    r2 = x * x + y * y
    kappa, tau = np.sqrt(r2) / (r2 + c * c), c / (r2 + c * c)
    T_ref = np.array([-y, x, c]) / np.sqrt(r2 + c * c)
    grid = truth["field"] == "grid"
    tol_kt, tol_T = (1e-2, 1e-3) if grid else (1e-7, 1e-9)
    if abs(doc["kappa"] - kappa) > tol_kt * max(1.0, kappa):
        return f"kappa {doc['kappa']} vs closed form {kappa}"
    if abs(doc["tau"] - tau) > tol_kt * max(1.0, kappa):
        return f"tau {doc['tau']} vs closed form {tau}"
    F = np.array([doc["frame"]["T"], doc["frame"]["N"], doc["frame"]["B"]])
    if float(np.max(np.abs(F @ F.T - np.eye(3)))) > 1e-8:
        return "Frenet frame is not orthonormal"
    if float(np.max(np.abs(F[0] - T_ref))) > tol_T:
        return "tangent is not the field value"
    if np.linalg.det(F) < 0:
        return "Frenet frame is left-handed"
    return None


def check_identities(n, doc):
    A = np.array(doc["input"]["rows"], dtype=float)
    if A.shape != (n, n):
        return f"input echo has shape {A.shape}, expected {(n, n)}"
    inv = doc["invariants"]
    ref = np.real(np.poly(A))
    s = max(_norm2(A), 1e-300)
    for k in range(1, n + 1):
        expect = (-1) ** k * ref[k]
        bound = 1e-9 * n * comb(n, k) * s ** k
        if abs(inv["principal_minor_sums"][k - 1] - expect) > bound:
            return f"minor sum pm{k} = {inv['principal_minor_sums'][k - 1]} vs np.poly {expect}"
    # Hadamard: the subset terms sum in absolute value to at most
    # prod_i (|d_i| + |row i of the off-diagonal part|)
    d = np.diag(A)
    rows = np.linalg.norm(A - np.diag(d), axis=1)
    term_mass = float(np.prod(np.abs(d) + rows))
    bound = SLACK * n * EPS * term_mass / max(1.0, abs(float(np.linalg.det(A))))
    if inv["collings_residual"] > bound:
        return f"collings expansion disagrees with det: residual {inv['collings_residual']:.2e}"
    ecs = inv["euler_cauchy_stokes"]
    shear = np.array(ecs["shear"])
    twist = np.array(ecs["twist"])
    scale = float(np.max(np.abs(A)))
    if abs(ecs["theta"] - np.trace(A)) > 1e-12 * n * scale:
        return "theta is not the trace"
    recon = (ecs["theta"] / n) * np.eye(n) + shear + twist
    if (float(np.max(np.abs(recon - A))) > 1e-12 * n * scale
            or float(np.max(np.abs(shear - shear.T))) > 0
            or abs(np.trace(shear)) > 1e-12 * n * scale
            or float(np.max(np.abs(twist + twist.T))) > 0):
        return "mean/shear/twist split does not reassemble A"
    return None


def check_cli(op, code, stdout, stderr):
    """Oracle for one CLI request, given its exit code and captured streams."""
    if op.expect_exit != 0:
        if stdout:
            return "refused request still wrote a report"
        if not stderr.strip():
            return "refused request gave no message"
        return None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"report does not parse as JSON: {exc.msg}"
    if doc.get("command") != op.kind:
        return f"report is for command {doc.get('command')!r}"
    if op.kind == "analyze":
        return check_analyze(op.matrix, doc)
    if op.kind == "planar":
        return check_planar(op.matrix, doc)
    if op.kind == "frenet":
        return check_frenet(op.truth, doc)
    if op.kind == "identities":
        return check_identities(op.truth["n"], doc)
    raise ValueError(f"no oracle for {op.kind!r}")
