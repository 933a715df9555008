"""Independent reference computations used to check the library.

Everything here deliberately avoids the code paths under test: ranks come
from hand-rolled row reduction, characteristic polynomials from permutation
expansion, minor sums from explicit subset enumeration, symmetric
eigen-decompositions from cyclic Jacobi rotations (the library's former
solver), and eigenvalues from numpy where a library oracle is wanted.  The
identity residuals here are assembled from the form definitions (one QForm
per power and plane), which the library's closed forms replace.  The subset
determinant expansion and the power-form recurrence step are kept here as
the plain loops the library's batched versions replace.  The full spectrum
by Durand-Kerner roots of the trace-recurrence characteristic polynomial,
with multiplicity-aware Newton polish, is the library's former general
eigenvalue path, kept unchanged as polynomial_spectrum (its union-find
clustering is the library's _cluster_points).
"""

from itertools import combinations, permutations

import numpy as np

from rotform import (
    DEFAULT_TOL,
    InputError,
    NumericalError,
    apply_quasi_rotation,
    evaluate,
    expansion_form,
    plane_pairs,
    principal_minor_sums,
    rotation_form,
)
from rotform.linalg import Spectrum, _cluster_points, as_square, char_poly_coeffs, maxabs
from rotform.quasirot import rotation_values

_JACOBI_MAX_SWEEPS = 100
_ROOT_MAX_ITER = 600


def row_reduce_rank(M, tol=1e-9):
    """Rank by Gaussian elimination with partial pivoting."""
    A = np.array(M, dtype=float)
    rows, cols = A.shape
    rank = 0
    row = 0
    for col in range(cols):
        pivot = row + int(np.argmax(np.abs(A[row:, col]))) if row < rows else None
        if pivot is None or abs(A[pivot, col]) <= tol:
            continue
        A[[row, pivot]] = A[[pivot, row]]
        A[row] = A[row] / A[row, col]
        for r in range(rows):
            if r != row:
                A[r] = A[r] - A[r, col] * A[row]
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def char_poly_by_permutations(A):
    """Coefficients of det(xI - A), highest degree first, via the Leibniz
    expansion with polynomial entries.  Exponential; keep n <= 6."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    total = np.zeros(n + 1)
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        poly = np.array([1.0])
        for i in range(n):
            entry = np.array([1.0, -A[i, i]]) if perm[i] == i else np.array([-A[i, perm[i]]])
            poly = np.convolve(poly, entry)
        padded = np.zeros(n + 1)
        padded[n + 1 - len(poly):] = poly
        total += sign * padded
    return total


def minor_sum_by_enumeration(A, k):
    """Sum of all k x k principal minors by direct subset enumeration."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    total = 0.0
    for subset in combinations(range(n), k):
        idx = np.ix_(subset, subset)
        total += float(np.linalg.det(A[idx]))
    return total


def planar_eigs_direct(A):
    """Eigenvalues of a 2x2 matrix straight from the quadratic formula."""
    tr = A[0, 0] + A[1, 1]
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    disc = complex(tr * tr - 4.0 * det)
    root = np.sqrt(disc)
    return (0.5 * (tr - root), 0.5 * (tr + root))


def jordan_shear(lam, mu):
    """Shear block at lam stacked on a scalar direction mu: the standard
    repeated-eigenvalue example with geometric multiplicity one."""
    return np.array([[lam, 1.0, 0.0], [0.0, lam, 0.0], [0.0, 0.0, mu]])


def rotation_scaling_block(a, b):
    """2x2 block with eigenvalues a +- b i."""
    return np.array([[a, b], [-b, a]])


def random_normal_matrix(rng, n, force_block=True):
    """Q . blockdiag(rotation-scaling blocks, reals) . Q^T; normal, and
    non-symmetric whenever a block is present."""
    blocks = []
    remaining = n
    if force_block:
        blocks.append(rotation_scaling_block(rng.uniform(-2, 2), rng.uniform(0.5, 2.0)))
        remaining -= 2
    while remaining >= 2 and rng.uniform() < 0.5:
        blocks.append(rotation_scaling_block(rng.uniform(-2, 2), rng.uniform(0.5, 2.0)))
        remaining -= 2
    diag = rng.uniform(-2, 2, size=remaining)
    core = np.zeros((n, n))
    pos = 0
    for blk in blocks:
        core[pos:pos + 2, pos:pos + 2] = blk
        pos += 2
    for d in diag:
        core[pos, pos] = d
        pos += 1
    M = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    return Q @ core @ Q.T


def random_unit(rng, n):
    while True:
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def similarity_with_jordan(rng, blocks):
    """S . J . S^-1 for J assembled from (value, size, defective) blocks.

    defective=True builds a Jordan block (geometric multiplicity 1),
    otherwise value * I of the given size.  S is a moderately conditioned
    random similarity, so geometric multiplicities survive numerically.
    """
    n = sum(size for _, size, _ in blocks)
    J = np.zeros((n, n))
    pos = 0
    for value, size, defective in blocks:
        J[pos:pos + size, pos:pos + size] = value * np.eye(size)
        if defective:
            for i in range(size - 1):
                J[pos + i, pos + i + 1] = 1.0
        pos += size
    while True:
        S = rng.uniform(-1.0, 1.0, size=(n, n)) + 2.0 * np.eye(n)
        if abs(np.linalg.det(S)) > 0.5:
            break
    return S @ J @ np.linalg.inv(S)


def _rel(total, terms):
    denom = max(1.0, max((abs(t) for t in terms), default=0.0))
    return abs(total) / denom


def _powers(A):
    out = [np.eye(A.shape[0])]
    for _ in range(A.shape[0]):
        out.append(out[-1] @ A)
    return out


def ch_form_residuals_by_definition(A, u):
    """ch_form_residuals with every term the value of a built form at u."""
    n = A.shape[0]
    pm = (1.0,) + principal_minor_sums(A)
    pows = _powers(A)
    e_terms = [
        (-1.0) ** k * pm[k] * evaluate(expansion_form(pows[n - k]), u) for k in range(n + 1)
    ]
    rotation = {}
    for pair in plane_pairs(n):
        r_terms = [
            (-1.0) ** k * pm[k] * evaluate(rotation_form(pows[n - k], pair), u)
            for k in range(n)
        ]
        rotation[pair] = _rel(sum(r_terms), r_terms)
    return _rel(sum(e_terms), e_terms), rotation


def ch_trace_residuals_by_definition(A):
    """ch_trace_residuals with every term the trace of a built form."""
    n = A.shape[0]
    pm = (1.0,) + principal_minor_sums(A)
    pows = _powers(A)
    e_terms = [
        (-1.0) ** k * pm[k] * float(np.trace(expansion_form(pows[n - k]).matrix))
        for k in range(n)
    ]
    e_terms.append((-1.0) ** n * n * pm[n])
    rotation = {}
    for pair in plane_pairs(n):
        r_terms = [
            (-1.0) ** k * pm[k] * float(np.trace(rotation_form(pows[n - k], pair).matrix))
            for k in range(n)
        ]
        rotation[pair] = _rel(sum(r_terms), r_terms)
    return _rel(sum(e_terms), e_terms), rotation


def _offdiag_norm(A):
    off = A - np.diag(np.diag(A))
    return float(np.linalg.norm(off))


def jacobi_sym_eigen(Q, tol=DEFAULT_TOL):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, P) with the columns of P the matching
    orthonormal eigenvectors.  Convergence is declared when the off-diagonal
    Frobenius norm drops below eig_off_tol * ||Q||_F; more than
    100 sweeps raises NumericalError.  Unconditionally robust at desk scale
    (n up to ~64); not meant for large matrices.
    """
    A = as_square(Q, "symmetric matrix")
    n = A.shape[0]
    gap = maxabs(A - A.T)
    if gap > tol.residual_tol * maxabs(A):
        raise InputError(f"matrix is not symmetric within tolerance: max|Q - Q^T| = {gap:.3e}")
    A = 0.5 * (A + A.T)
    P = np.eye(n)
    if n == 1:
        return np.diag(A).copy(), P
    fro = float(np.linalg.norm(A))
    if fro == 0.0:
        return np.zeros(n), P
    target = tol.eig_off_tol * fro
    skip = 0.01 * target / n
    off = _offdiag_norm(A)
    for _ in range(_JACOBI_MAX_SWEEPS):
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                theta = 0.5 * (A[q, q] - A[p, p]) / apq
                t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, q] = A[q, p] = 0.0
                bas_p = P[:, p].copy()
                bas_q = P[:, q].copy()
                P[:, p] = c * bas_p - s * bas_q
                P[:, q] = s * bas_p + c * bas_q
        off = _offdiag_norm(A)
    if off > target:
        raise NumericalError(
            f"Jacobi iteration did not converge in {_JACOBI_MAX_SWEEPS} sweeps: "
            f"off-diagonal norm {off:.3e}, target {target:.3e}",
            residual=off,
        )
    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    return w[order], P[:, order]


def collings_det_loop(Dd, B):
    """det(D + B) by the subset expansion, one Python iteration per subset:
    by size, then lexicographically, adding d_part * b_part to a running
    total.  Inputs are assumed valid (square, matching, D diagonal)."""
    Dd = np.asarray(Dd, dtype=float)
    B = np.asarray(B, dtype=float)
    n = Dd.shape[0]
    d = np.diag(Dd)
    total = 0.0
    indices = list(range(n))
    for size in range(n + 1):
        for theta in combinations(indices, size):
            comp = [i for i in indices if i not in theta]
            d_part = float(np.prod(d[comp])) if comp else 1.0
            if theta:
                sub = B[np.ix_(theta, theta)]
                b_part = float(np.linalg.det(sub))
            else:
                b_part = 1.0
            total += d_part * b_part
    return total


def power_form_step_loop(A, m, u):
    """power_form_step with the rotation right-hand side summed plane by
    plane: rhs_r[pq] = e_m r_1[pq] + sum over kl of r_m[kl] (A R_kl u).(R_pq u).
    u is assumed unit."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    pows = [np.eye(n), A]
    for _ in range(m):
        pows.append(pows[-1] @ A)
    e_m = float(u @ (pows[m] @ u))
    e_1 = float(u @ (A @ u))
    r_m = rotation_values(pows[m], u)
    r_T = rotation_values(A.T, u)
    lhs_e = float(u @ (pows[m + 1] @ u))
    rhs_e = e_m * e_1 + sum(r_m[pair] * r_T[pair] for pair in plane_pairs(n))

    r_1 = rotation_values(A, u)
    images = {pair: A @ apply_quasi_rotation(u, pair) for pair in plane_pairs(n)}
    lhs_r = rotation_values(pows[m + 1], u)
    rhs_r = {}
    for pq in plane_pairs(n):
        rot_pq = apply_quasi_rotation(u, pq)
        acc = e_m * r_1[pq]
        for kl in plane_pairs(n):
            acc += r_m[kl] * float(images[kl] @ rot_pq)
        rhs_r[pq] = acc
    return lhs_e, rhs_e, lhs_r, rhs_r


def _poly_roots_simultaneous(coeffs):
    """All roots of a monic real polynomial by simultaneous (Durand-Kerner) iteration."""
    c = np.asarray(coeffs, dtype=complex)
    n = len(c) - 1
    if n == 1:
        return np.array([-c[1]])
    radius = 1.0 + max(abs(x) for x in c[1:])
    k = np.arange(n)
    z = radius * np.exp(1j * (2.0 * np.pi * k / n + 0.4))
    for _ in range(_ROOT_MAX_ITER):
        p = np.polyval(c, z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        denom = np.prod(diff, axis=1)
        step = p / denom
        z = z - step
        if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(z))):
            break
    return z


def _polish_root(coeffs, z, mult, iters=60):
    """Refine a root of multiplicity mult.

    A mult-fold root of p is a simple root of the (mult-1)-th derivative, so
    plain Newton against that derivative stays well conditioned where p itself
    is flat.  Returns (root, final step size); the step size doubles as a
    resolution certificate: it stays near machine precision only when the
    claimed multiplicity matches the actual cluster structure.
    """
    poly = np.poly1d(coeffs)
    for _ in range(mult - 1):
        poly = poly.deriv()
    dpoly = poly.deriv()
    best = z
    best_val = abs(poly(z))
    last_step = np.inf
    for _ in range(iters):
        val = poly(z)
        dval = dpoly(z)
        if dval == 0:
            break
        step = val / dval
        z = z - step
        last_step = abs(step)
        cur = abs(poly(z))
        if cur < best_val:
            best, best_val = z, cur
        if last_step <= 1e-16 * (1.0 + abs(z)):
            break
    dbest = dpoly(best)
    final_step = abs(poly(best) / dbest) if dbest != 0 else last_step
    return best, final_step


class _SpectrumRetry(Exception):
    """Internal: the current clustering radius could not resolve the roots."""


def _extract_spectrum(coeffs, raw, cluster_tol, scale, imag_thresh, n):
    clusters = _cluster_points(list(raw), cluster_tol)
    refined = []
    for group in clusters:
        mult = len(group)
        center = sum(group) / mult
        root, step = _polish_root(coeffs, center, mult)
        refined.append((root, mult, step))

    merged = []
    for z, mult, step in sorted(refined, key=lambda t: (t[0].real, t[0].imag)):
        if merged and abs(merged[-1][0] - z) <= 1e-8 * scale:
            prev, prev_mult, prev_step = merged[-1]
            total = prev_mult + mult
            merged[-1] = ((prev * prev_mult + z * mult) / total, total, max(step, prev_step))
        else:
            merged.append((z, mult, step))

    coeff_scale = max(1.0, float(np.max(np.abs(coeffs))))
    for z, mult, step in merged:
        if step > 1e-9 * scale:
            raise _SpectrumRetry(
                f"root near {z:.6g} is unresolved at multiplicity {mult}: "
                f"final Newton step {step:.3e}"
            )
        bound = 1e-10 * coeff_scale * max(1.0, abs(z)) ** n
        residual = abs(np.polyval(coeffs, z))
        if residual > bound:
            raise _SpectrumRetry(
                f"|p({z:.6g})| = {residual:.3e} exceeds the backward bound {bound:.3e}"
            )

    reals = []
    complexes = []
    for z, mult, _ in merged:
        if abs(z.imag) <= imag_thresh:
            reals.append((float(z.real), mult))
        else:
            complexes.append((z, mult))

    pairs = []
    used = [False] * len(complexes)
    for i, (z, mult) in enumerate(complexes):
        if used[i] or z.imag < 0:
            continue
        match = None
        for j, (w, wm) in enumerate(complexes):
            if used[j] or j == i or w.imag > 0:
                continue
            if abs(np.conj(w) - z) <= 1e-7 * scale and wm == mult:
                match = j
                break
        if match is None:
            raise _SpectrumRetry(f"unpaired complex root {z:.6g} (multiplicity {mult})")
        used[i] = used[match] = True
        w = complexes[match][0]
        pairs.append((complex(0.5 * (z.real + w.real), 0.5 * (z.imag - w.imag)), mult))
    if not all(used):
        leftovers = [z for i, (z, _) in enumerate(complexes) if not used[i]]
        raise _SpectrumRetry(f"unpaired complex roots {leftovers}")

    reals.sort(key=lambda t: t[0])
    pairs.sort(key=lambda t: (t[0].real, t[0].imag))
    return tuple(reals), tuple(pairs)


def polynomial_spectrum(A, tol=DEFAULT_TOL):
    """Full spectrum of A as roots of its characteristic polynomial.

    Real roots are separated from conjugate pairs by an imaginary-part
    threshold.  Repeated eigenvalues come back as one entry with the right
    algebraic multiplicity: root clusters are collapsed and re-polished as
    simple roots of the matching derivative, escalating the clustering radius
    when the residual or resolution certificates say the structure was not
    resolved (a multiplicity-m cluster has radius ~eps^(1/m), so no single
    radius fits every multiplicity).  Adequate for n up to ~16; the
    characteristic-polynomial route is not meant for large matrices.
    """
    A = as_square(A)
    n = A.shape[0]
    coeffs = char_poly_coeffs(A)
    if n == 1:
        return Spectrum(1, ((float(A[0, 0]), 1),), ())
    raw = _poly_roots_simultaneous(coeffs)
    scale = 1.0 + float(np.max(np.abs(raw)))
    imag_thresh = max(1e-9 * scale, n * tol.rank_tol * max(1.0, maxabs(A)))

    failure = None
    for level in (2e-5, 3e-4, 3e-3):
        try:
            reals, pairs = _extract_spectrum(coeffs, raw, level * scale, scale, imag_thresh, n)
        except _SpectrumRetry as exc:
            failure = exc
            continue
        spectrum = Spectrum(n, reals, pairs)
        if spectrum.total_multiplicity() != n:
            raise NumericalError(
                f"spectrum multiplicities sum to {spectrum.total_multiplicity()}, expected {n}"
            )
        return spectrum
    raise NumericalError(f"root iteration did not converge: {failure}")
