"""Independent reference computations used to check the library.

Everything here deliberately avoids the code paths under test: ranks come
from hand-rolled row reduction, characteristic polynomials from permutation
expansion, minor sums from explicit subset enumeration, symmetric
eigen-decompositions from cyclic Jacobi rotations (the library's former
solver), and eigenvalues from numpy where a library oracle is wanted.  The
identity residuals here are assembled from the form definitions (one QForm
per power and plane), which the library's closed forms replace, and are
normalised by the library's own _rel, so both sides share one definition of
a relative residual.  The subset determinant expansion and the power-form
recurrence step are kept here as the plain loops the library's batched
versions replace; det_exact, mpmath's determinant at 60 digits, is the
exact reference for the subset expansion, whose Schur-complement recursion
rounds unlike a per-subset LU.  minor_sums_exact gives the exact minor
sums of a float matrix by Faddeev-LeVerrier over the integers, the reference
for the library's eigenvalue route; char_poly_by_traces is the library's
former Newton trace recurrence.  The full spectrum by Durand-Kerner roots of
that trace-recurrence characteristic polynomial, with multiplicity-aware
Newton polish, is the library's former general eigenvalue path, kept
unchanged as polynomial_spectrum (its single-linkage clustering at a given
radius is the library's _cluster_points).  The skew block reduction by deflation, one certified
eigen-solve of Ksub^T Ksub and one projector SVD per rotation plane, is the
library's former skew_canonical_basis, kept as
skew_canonical_basis_deflation.  The identity residuals with one Python
iteration and one _rel call per plane pair, and one rotation_form_matrix
per pair in the Gram trace identity, are the library's former
ch_form_residuals, ch_trace_residuals, pm2_identity_residual,
gram_trace_identity_residual, power_form_step and invariant_report, kept
unchanged with the suffix _per_pair; they share the library's _Parts.
The per-pair loops of quasirot and qforms (the wedge of two vectors, the
reassembly, the skew coefficients and their matrix, the change of basis of
a rotation plane, the rotation traces and the rotation form in a new basis)
are the library's former code, kept unchanged with the suffix _loop, and
model_rotation_forms_by_hand is the former frenet.model_rotation_forms.
diagonal_rotation_recursion, the rotation recurrence of power_form_step
specialised to a basis direction, is the library's former function of that
name, an oracle for power_form_step, and diagonal_rotation_recursion_by_dicts
its earlier form, which read each rotation value from a dict over all plane
pairs.  trilinear_reference is the former 8-corner loop of
frenet.GridField, whose gather must round the same, and cluster_points_loop
is the former _cluster_points at a given radius, by its minimax loop alone
(the library now squares the reach of one step instead);
sign_fix_loop is the former per-column loop of linalg._sign_fix.
integer_similar and jordan_form build integer matrices with a known Jordan
form, exact in floating point; INTEGER_JORDAN_CASES lists four.
Every oracle here takes its rotation values and traces from these loops,
so none shares the library's pair index, except rotation_values and
reassemble: the library's former quasirot functions of those names, which
nothing in it called, kept for the tests of the paper's claims.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, prod

import mpmath
import numpy as np

from rotform import (
    DEFAULT_TOL,
    FieldError,
    InputError,
    NumericalError,
    SkewBlockForm,
    apply_quasi_rotation,
    evaluate,
    expansion_form,
    plane_pairs,
    principal_minor_sums,
    rotation_form,
    sym_eigen,
)
from rotform.invariants import (
    InvariantReport,
    _Parts,
    _parts,
    _pm2,
    _rel,
    cayley_hamilton_residual,
    euler_cauchy_stokes,
    n4_det_identity_residual,
    newton_residuals,
    pm2_sym_skew_residual,
)
from rotform.qforms import QForm, rotation_form_matrix
from rotform.linalg import (
    Spectrum,
    _cluster_points,
    as_square,
    as_unit as _unit,
    as_vector,
    binary_scale,
    matrix_powers,
    maxabs,
)
from rotform.quasirot import RotationCoeffs, _rotation_sum, _wedge_values, check_plane_pair

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


def char_poly_by_traces(A):
    """Monic characteristic polynomial coefficients, highest degree first, by
    Newton's trace recurrence k pm^k = sum_{i=1..k} (-1)^(i-1) pm^(k-i) tr(A^i):
    the library's former minor-sum route, which shares no eigenvalue solver
    with it.  Unstable for larger n (Wilkinson, 1965); keep n small."""
    p = [float(np.trace(M)) for M in matrix_powers(as_square(A), A.shape[0])[1:]]
    pm = [1.0]
    for k in range(1, len(p) + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1.0) ** (i - 1) * pm[k - i] * p[i - 1]
        pm.append(acc / k)
    return np.array([(-1.0) ** k * value for k, value in enumerate(pm)])


def minor_sums_exact(A):
    """pm^1..pm^n of the float matrix A as exact Fractions.

    The entries times 2^s are integers B, and Faddeev-LeVerrier over the
    integers (M_1 = I, c_k = tr(B M_k) / k, M_(k+1) = B M_k - c_k I) divides
    exactly, with pm^k = (-1)^(k-1) c_k / 2^(s k).  About 0.3 s at n = 32.
    """
    entries = [[Fraction(x) for x in row] for row in np.asarray(A, dtype=float).tolist()]
    n = len(entries)
    s = max(f.denominator.bit_length() - 1 for row in entries for f in row)
    B = np.array([[int(f * 2**s) for f in row] for row in entries], dtype=object)
    identity = np.eye(n, dtype=int).astype(object)
    M, pm = identity, []
    for k in range(1, n + 1):
        BM = B.dot(M)
        c, rest = divmod(int(np.trace(BM)), k)
        assert rest == 0
        pm.append(Fraction((-1) ** (k - 1) * c, 2 ** (s * k)))
        M = BM - c * identity
    return tuple(pm)


def plane_coefficients_binomial(lam, s2, n):
    """c[0..n] of a coupled plane's equation in normal_invariant_recover by the binomial
    double sum: c[p] = sum over m < p, p - m odd, of C(p, m) lam^m s2^((p - m - 1) / 2),
    for the plane's eigenvalues lam +- i b and its entry s2 = -b^2 of S^2."""
    return [0.0] + [
        sum(comb(p, p - m) * lam**m * s2 ** ((p - m - 1) // 2) for m in range(p) if (p - m) % 2 == 1)
        for p in range(1, n + 1)
    ]


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


def integer_similar(rng, J):
    """S J S^-1 for S = L U with L, U unit triangular and entries in {-1, 0, 1}:
    an integer matrix with the Jordan form J, exact in floating point."""
    n = len(J)
    L = np.tril(rng.integers(-1, 2, (n, n)), -1) + np.eye(n, dtype=np.int64)
    U = np.triu(rng.integers(-1, 2, (n, n)), 1) + np.eye(n, dtype=np.int64)
    S = L @ U
    S_inv = np.rint(np.linalg.inv(U)).astype(np.int64) @ np.rint(np.linalg.inv(L)).astype(np.int64)
    assert np.array_equal(S @ S_inv, np.eye(n, dtype=np.int64))
    return (S @ np.asarray(J, dtype=np.int64) @ S_inv).astype(float)


def jordan_form(*blocks):
    """Block diagonal of Jordan blocks (value, size)."""
    n = sum(size for _, size in blocks)
    J = np.zeros((n, n), dtype=np.int64)
    start = 0
    for value, size in blocks:
        for i in range(start, start + size):
            J[i, i] = value
            if i + 1 < start + size:
                J[i, i + 1] = 1
        start += size
    return J


# (value, size) Jordan blocks and the real eigenvalues with geometric multiplicities
INTEGER_JORDAN_CASES = {
    "J2(1)+1+3-2": (((1, 2), (1, 1), (3, 1), (-2, 1)), [(-2.0, 1), (1.0, 2), (3.0, 1)]),
    "J3(2)+2+5": (((2, 3), (2, 1), (5, 1)), [(2.0, 2), (5.0, 1)]),
    "diag(1,1,1,2,2,2)": (((1, 1),) * 3 + ((2, 1),) * 3, [(1.0, 3), (2.0, 3)]),
    "diag(1..6)": (tuple((k, 1) for k in range(1, 7)), [(float(k), 1) for k in range(1, 7)]),
}


def _powers(A):
    out = [np.eye(A.shape[0])]
    for _ in range(A.shape[0]):
        out.append(out[-1] @ A)
    return out


def ch_form_residuals_by_definition(A, u):
    """ch_form_residuals with every term the value of a built form at u."""
    n = A.shape[0]
    scale = maxabs(A)
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
        rotation[pair] = _rel(sum(r_terms), r_terms, scale, n)
    return _rel(sum(e_terms), e_terms, scale, n), rotation


def ch_trace_residuals_by_definition(A):
    """ch_trace_residuals with every term the trace of a built form."""
    n = A.shape[0]
    scale = maxabs(A)
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
        rotation[pair] = _rel(sum(r_terms), r_terms, scale, n)
    return _rel(sum(e_terms), e_terms, scale, n), rotation


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


def det_exact(M, digits=60):
    """det M by mpmath's LU at `digits` significant digits, as an mpf."""
    with mpmath.workdps(digits):
        try:
            return +mpmath.det(mpmath.matrix(np.asarray(M, dtype=float).tolist()))
        except TypeError:
            # mpmath's LU finds no pivot when a column of the reduced matrix
            # is exactly zero (it indexes with None); the determinant is 0.
            return mpmath.mpf(0)


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
    r_m = rotation_values_loop(pows[m], u)
    r_T = rotation_values_loop(A.T, u)
    lhs_e = float(u @ (pows[m + 1] @ u))
    rhs_e = e_m * e_1 + sum(r_m[pair] * r_T[pair] for pair in plane_pairs(n))

    r_1 = rotation_values_loop(A, u)
    images = {pair: A @ apply_quasi_rotation(u, pair) for pair in plane_pairs(n)}
    lhs_r = rotation_values_loop(pows[m + 1], u)
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
    clusters = [[raw[i] for i in group] for group in _cluster_points(list(raw), cluster_tol)]
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
    coeffs = char_poly_by_traces(A)
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


def skew_canonical_basis_deflation(A, tol=DEFAULT_TOL):
    """Orthonormal basis reducing the skew part to rotation blocks, one plane
    at a time: the library's former skew_canonical_basis.

    Returns blocks ordered by descending rotation rate lambda > 0; in that
    basis the skew part equals -sum lambda_k [R_(k, k+1)] over odd k, and each
    lambda equals minus half the trace of the matching rotation form.
    """
    A = as_square(A)
    n = A.shape[0]
    K = 0.5 * (A - A.T)
    if maxabs(K) <= tol.rank_tol * maxabs(A):
        raise InputError("skew part is zero (symmetric matrix); use expansion_eigenbasis")
    zero_thresh = n * tol.rank_tol * maxabs(K)

    C = np.eye(n)
    planes = []
    lambdas = []
    kernel = []
    while C.shape[1] > 0:
        Ksub = C.T @ K @ C
        w, V = sym_eigen(Ksub.T @ Ksub, tol)
        s = np.sqrt(np.clip(w, 0.0, None))
        i = int(np.argmax(s))
        if s[i] <= zero_thresh:
            kernel = [C @ V[:, j] for j in range(V.shape[1])]
            break
        v = V[:, i]
        Kv = Ksub @ v
        lam = float(np.linalg.norm(Kv))
        wvec = Kv / lam
        planes.append((C @ wvec, C @ v))
        lambdas.append(lam)
        d = C.shape[1]
        proj = np.eye(d) - np.outer(v, v) - np.outer(wvec, wvec)
        U, sv, _ = np.linalg.svd(proj)
        C = C @ U[:, : d - 2]

    cols = []
    for x1, x2 in planes:
        cols.extend([x1, x2])
    cols.extend(kernel)
    P = np.column_stack(cols)
    zero_dim = len(kernel)
    if 2 * len(planes) + zero_dim != n:
        raise NumericalError(
            f"block reduction accounted for {2 * len(planes) + zero_dim} of {n} dimensions"
        )
    return SkewBlockForm(basis=P, lambdas=tuple(lambdas), zero_dim=zero_dim)


def ch_form_residuals_per_pair(A, u):
    """ch_form_residuals with one _rel call per plane pair."""
    s = _parts(A)
    n, pm = s.n, s.pm
    u = _unit(u, "u")
    if len(u) != n:
        raise InputError("probe vector must match the matrix dimension")
    e_terms = [(-1.0) ** k * pm[k] * float(u @ (s.pows[n - k] @ u)) for k in range(n + 1)]
    expansion_residual = _rel(sum(e_terms), e_terms, s.scale, n)
    values = [rotation_values_loop(s.pows[n - k], u) for k in range(n)]
    rotation_residuals = {}
    for pair in plane_pairs(n):
        r_terms = [(-1.0) ** k * pm[k] * values[k][pair] for k in range(n)]
        rotation_residuals[pair] = _rel(sum(r_terms), r_terms, s.scale, n)
    return expansion_residual, rotation_residuals


def ch_trace_residuals_per_pair(A):
    """ch_trace_residuals with one _rel call per plane pair."""
    s = _parts(A)
    n, pm = s.n, s.pm
    e_terms = [(-1.0) ** k * pm[k] * s.traces[n - k - 1] for k in range(n)]
    e_terms.append((-1.0) ** n * n * pm[n])
    expansion_residual = _rel(sum(e_terms), e_terms, s.scale, n)
    traces = [rotation_traces_loop(s.pows[n - k]) for k in range(n)]
    rotation_residuals = {}
    for pair in plane_pairs(n):
        r_terms = [(-1.0) ** k * pm[k] * traces[k][pair] for k in range(n)]
        rotation_residuals[pair] = _rel(sum(r_terms), r_terms, s.scale, n)
    return expansion_residual, rotation_residuals


def pm2_identity_residual_per_pair(A):
    """pm2_identity_residual with the traces from rotation_traces_loop."""
    s = _parts(A)
    if s.n < 2:
        raise InputError("the second minor sum needs n >= 2")
    pm2 = s.pm[2]
    pm2_sym = _pm2(s.sym)
    trace_sq = sum(t ** 2 for t in rotation_traces_loop(s.A).values())
    rhs = pm2_sym + 0.25 * trace_sq
    return _rel(pm2 - rhs, [pm2, pm2_sym, 0.25 * trace_sq], s.scale, 2)


def gram_trace_identity_residual_per_pair(A):
    """gram_trace_identity_residual with one rotation_form_matrix per pair."""
    s = _parts(A)
    A, n = s.A, s.n
    lhs = n * float(np.sum(A * A))
    tr_e = float(np.trace(A))  # equals tr of the expansion form exactly
    rot_sq = 0.0
    pm2_rot = 0.0
    for pair in plane_pairs(n):
        M = rotation_form_matrix(A, pair)
        rot_sq += float(np.trace(M @ M))
        pm2_rot += _pm2(M)
    trace_sq = sum(t ** 2 for t in rotation_traces_loop(A).values())
    first = _rel(lhs - 2.0 * rot_sq - tr_e**2, [lhs, 2.0 * rot_sq, tr_e**2], s.scale, 2)
    if n < 2:
        return first
    terms = [lhs, 4.0 * pm2_rot, 2.0 * trace_sq, tr_e**2]
    second = _rel(lhs - (-4.0 * pm2_rot + 2.0 * trace_sq + tr_e**2), terms, s.scale, 2)
    return max(first, second)


def power_form_step_per_pair(A, m, u):
    """power_form_step with dicts of rotation values and the contraction
    vector from reassemble_loop."""
    s = _parts(A, m + 1)
    A, n, pows = s.A, s.n, s.pows
    if m < 1:
        raise InputError("power step needs m >= 1")
    u = _unit(u, "u")
    if len(u) != n:
        raise InputError("probe vector must match the matrix dimension")
    e_m = float(u @ (pows[m] @ u))
    e_1 = float(u @ (A @ u))
    r_m = rotation_values_loop(pows[m], u)
    r_T = rotation_values_loop(A.T, u)
    lhs_e = float(u @ (pows[m + 1] @ u))
    rhs_e = e_m * e_1 + sum(r_m[pair] * r_T[pair] for pair in plane_pairs(n))

    # The sum over kl of r_m[kl] (A R_kl u).(R_pq u) is (A w).(R_pq u) with
    # w = sum r_m[kl] R_kl u.  w must come from the coefficients r_m: taking
    # it as A^m u - e_m u would make the recurrence hold by construction.
    r_1 = rotation_values_loop(A, u)
    lhs_r = rotation_values_loop(pows[m + 1], u)
    cross = _wedge_values_loop(u, A @ reassemble_loop(0.0, r_m, u))
    rhs_r = {pq: e_m * r_1[pq] + cross[pq] for pq in plane_pairs(n)}
    return lhs_e, rhs_e, lhs_r, rhs_r


def invariant_report_per_pair(A, seed=0, power_steps=3):
    """invariant_report from the per-pair identities above."""
    s = _Parts(A, power_steps + 1)
    n = s.n
    rng = np.random.default_rng(seed)

    def unit_sample():
        while True:
            v = rng.standard_normal(n)
            norm = float(np.linalg.norm(v))
            if norm > 1e-6:
                return v / norm

    u = unit_sample()
    v = unit_sample()
    residuals = {}
    for k, value in enumerate(newton_residuals(s), start=1):
        residuals[f"newton_{k}"] = value
    residuals["ch_vector"] = cayley_hamilton_residual(s, u, v)
    e_res, r_res = ch_form_residuals_per_pair(s, u)
    residuals["ch_expansion"] = e_res
    for (k, l), value in r_res.items():
        residuals[f"ch_rotation_{k}_{l}"] = value
    e_res, r_res = ch_trace_residuals_per_pair(s)
    residuals["tr_ch_expansion"] = e_res
    for (k, l), value in r_res.items():
        residuals[f"tr_ch_rotation_{k}_{l}"] = value
    if n >= 2:
        residuals["pm2"] = pm2_identity_residual_per_pair(s)
        residuals["pm2_sym_skew"] = pm2_sym_skew_residual(s)
    residuals["gram_trace"] = gram_trace_identity_residual_per_pair(s)
    for m in range(1, power_steps + 1):
        lhs_e, rhs_e, lhs_r, rhs_r = power_form_step_per_pair(s, m, u)
        residuals[f"power_expansion_{m}"] = _rel(lhs_e - rhs_e, [lhs_e, rhs_e], s.scale, m + 1)
        residuals[f"power_rotation_{m}"] = max(
            (_rel(lhs_r[p] - rhs_r[p], [lhs_r[p], rhs_r[p]], s.scale, m + 1) for p in lhs_r),
            default=0.0,
        )
    if n == 4:
        residuals["n4_det"] = n4_det_identity_residual(s)
    return InvariantReport(
        pms=tuple(prod([s.unit] * k, start=s.pm[k]) for k in range(1, n + 1)),
        residuals=residuals,
        ecs=euler_cauchy_stokes(s),
    )


def _wedge_values_loop(u, w):
    """(u w^T - w u^T)[k, l] for every plane pair: the rotation-form values at
    u of any matrix that sends u to w."""
    M = np.outer(u, w) - np.outer(w, u)
    return {(k, l): float(M[k - 1, l - 1]) for k, l in plane_pairs(len(u))}


def rotation_values_loop(A, u):
    """All rotation-form values A(u).R_kl(u) at once, keyed by plane pair."""
    return _wedge_values_loop(u, A @ u)


def rotation_values(A, u):
    """All rotation-form values A(u).R_kl(u) at once, keyed by plane pair."""
    A = as_square(A)
    u = as_vector(u)
    if len(u) != A.shape[0]:
        raise InputError("dimension mismatch between matrix and vector")
    return _wedge_values(u, A @ u)


def reassemble(c0, coeffs, v):
    """c0*v + sum over pairs coeffs[(k,l)] * R_kl(v), for any mapping coeffs:
    a plane pair it lacks counts as 0, a key that is no plane pair is refused."""
    v = as_vector(v)
    values = dict(coeffs.items())
    c = np.array([values.pop(pair, 0.0) for pair in plane_pairs(len(v))])
    if values:
        raise InputError(f"not plane pairs of dimension {len(v)}: {list(values)}")
    return c0 * v + _rotation_sum(c, len(v)) @ v


def diagonal_rotation_recursion(A, m, pq):
    """The basis-direction specialisation of the rotation recurrence.

    For u = b_p the cross terms collapse onto four sums over single planes;
    returns (lhs, rhs) for the (p, q) rotation form of A^(m+1) at b_p.  The
    (k, l) rotation value of M at b_p is M[l, p] if k = p, -M[k, p] if l = p, else 0.
    Formed on X = A / binary_scale(A), scaled back as in power_form_step.
    """
    A = as_square(A)
    n = A.shape[0]
    p, q = check_plane_pair(n, pq)
    back = [binary_scale(A)] * (m + 1)  # degree m + 1
    X = A / back[0]
    pows = matrix_powers(X, m + 1)
    i, j = p - 1, q - 1
    rhs = 0.0  # the (p, q) terms, then l in (p, q), (q, n], [1, p) as the recurrence adds them
    for l in (i, j, *range(i + 1, j), *range(j + 1, n), *range(i)):
        rhs += float(pows[m][l, i] * X[j, l])
    return prod(back, start=float(pows[m + 1][j, i])), prod(back, start=rhs)


def diagonal_rotation_recursion_by_dicts(A, m, pq):
    """diagonal_rotation_recursion with every rotation value read from a
    rotation_values_loop dict over all plane pairs, up to n + 2 of them."""
    A = as_square(A)
    n = A.shape[0]
    p, q = check_plane_pair(n, pq)
    pows = matrix_powers(A, m + 1)
    b = np.eye(n)  # b[i - 1] is the basis vector b_i
    r_m = rotation_values_loop(pows[m], b[p - 1])
    lhs = rotation_values_loop(pows[m + 1], b[p - 1])[(p, q)]
    rhs = pows[m][p - 1, p - 1] * rotation_values_loop(A, b[p - 1])[(p, q)]
    rhs += r_m[(p, q)] * A[q - 1, q - 1]
    for l in range(p + 1, q):
        rhs += r_m[(p, l)] * rotation_values_loop(A, b[l - 1])[(l, q)]
    for l in range(q + 1, n + 1):
        rhs -= r_m[(p, l)] * rotation_values_loop(A, b[l - 1])[(q, l)]
    for k in range(1, p):
        rhs -= r_m[(k, p)] * rotation_values_loop(A, b[k - 1])[(k, q)]
    return lhs, rhs


def reassemble_loop(c0, coeffs, v):
    """c0*v + sum over pairs coeffs[(k,l)] * R_kl(v)."""
    out = c0 * v.copy()
    for (k, l), c in coeffs.items():
        out[l - 1] += c * v[k - 1]
        out[k - 1] -= c * v[l - 1]
    return out


def skew_rotation_coeffs_loop(S):
    """Coefficients of a skew matrix over the quasi-rotation basis: c(k,l) = -S[k,l]."""
    n = S.shape[0]
    return RotationCoeffs(n, {(k, l): float(-S[k - 1, l - 1]) for k, l in plane_pairs(n)})


def coeffs_to_matrix_loop(coeffs):
    """Sum of coeffs[(k,l)] * [R_kl]; always skew."""
    n = coeffs.n
    M = np.zeros((n, n))
    for (k, l), c in coeffs.items():
        M[l - 1, k - 1] += c
        M[k - 1, l - 1] -= c
    return M


def rotation_change_of_basis_loop(P, pq):
    """c(k, l) = -(P^l_p P^k_q - P^l_q P^k_p), so that sum c(k,l) [R_kl]
    equals P [R_pq] P^T."""
    n = P.shape[0]
    p, q = check_plane_pair(n, pq)
    coeffs = {}
    for k, l in plane_pairs(n):
        coeffs[(k, l)] = float(
            -(P[l - 1, p - 1] * P[k - 1, q - 1] - P[l - 1, q - 1] * P[k - 1, p - 1])
        )
    return RotationCoeffs(n, coeffs)


def rotation_traces_loop(A):
    """Trace of every rotation form of A, keyed by plane pair: A[l,k] - A[k,l]."""
    return {(k, l): float(A[l - 1, k - 1] - A[k - 1, l - 1]) for k, l in plane_pairs(A.shape[0])}


def rotation_form_change_of_basis_loop(A, P, pq):
    """The (p, q) rotation form of the P-basis as the sum of the original
    rotation forms, one rotation_form_matrix per plane pair."""
    n = A.shape[0]
    coeffs = rotation_change_of_basis_loop(P, pq)
    M = np.zeros((n, n))
    for pair, c in coeffs.items():
        M += c * rotation_form_matrix(A, pair)
    return QForm(n, M)


def model_rotation_forms_by_hand(kappa, tau, sigma):
    """The rotation forms of frenet.model_shape_matrix, written out."""
    half = 0.5 * (sigma - tau)
    return {
        (1, 2): np.array([[kappa, 0.0, half], [0.0, kappa, 0.0], [half, 0.0, 0.0]]),
        (1, 3): np.array([[0.0, -half, 0.0], [-half, 0.0, 0.5 * kappa], [0.0, 0.5 * kappa, 0.0]]),
        (2, 3): np.array(
            [[0.0, 0.0, -0.5 * kappa], [0.0, tau - sigma, 0.0], [-0.5 * kappa, 0.0, tau - sigma]]
        ),
    }


def trilinear_reference(grid, x):
    """The value of the frenet.GridField grid at x, by a loop over the 8
    corners: weights (wx * wy) * wz, added to a zero vector in (dx, dy, dz)
    order, and the sum divided by its np.linalg.norm."""
    rel = (np.asarray(x, dtype=float) - grid.origin) / grid.spacing
    dims = grid.values.shape[:3]
    if np.any(rel < 0.0) or any(rel[i] > dims[i] - 1 for i in range(3)):
        raise FieldError(f"point {tuple(float(v) for v in x)} lies outside the sampled grid")
    i0 = np.minimum(rel.astype(int), np.array(dims) - 2)
    f = rel - i0
    out = np.zeros(3)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                weight = (
                    (f[0] if dx else 1.0 - f[0])
                    * (f[1] if dy else 1.0 - f[1])
                    * (f[2] if dz else 1.0 - f[2])
                )
                out += weight * grid.values[i0[0] + dx, i0[1] + dy, i0[2] + dz]
    return out / float(np.linalg.norm(out))


def cluster_points_loop(points, tol):
    """Single-linkage groups at radius tol by the n-step minimax loop."""
    z = np.asarray(points)
    M = np.abs(z[:, None] - z[None, :])
    for k in range(len(z)):
        np.minimum(M, np.maximum.outer(M[:, k], M[k]), out=M)
    groups = {}
    for p, label in zip(points, (M <= tol).argmax(axis=1).tolist()):
        groups.setdefault(label, []).append(p)
    return list(groups.values())


def sign_fix_loop(P, tol):
    """Make the first component above rank_tol in each unit column positive."""
    Q = P.copy()
    for col in Q.T:
        lead = col[np.abs(col) > tol.rank_tol]
        if lead.size and lead[0] < 0.0:
            col *= -1.0
    return Q


def _axis_stencil_loop(x, h):
    """The 12 points of a differenced Jacobian at x: axis by axis, x - 2h e, x - h e,
    x + h e, x + 2h e along each."""
    return [y for e in np.eye(3) for y in (x - 2.0 * h * e, x - h * e, x + h * e, x + 2.0 * h * e)]


def field_jacobian_loop(field, x):
    """The differenced Jacobian of frenet.field_jacobian by a loop over the axes:
    column j is the fourth-order central difference of field.at along e_j at
    _axis_stencil_loop(x, h), h = field.step(x)."""
    x = np.asarray(x, dtype=float)
    h = field.step(x)
    J = np.zeros((3, 3))
    for j in range(3):
        f1, f2, f3, f4 = (field.at(y) for y in _axis_stencil_loop(x, h)[4 * j : 4 * j + 4])
        J[:, j] = (f1 - 8.0 * f2 + 8.0 * f3 - f4) / (12.0 * h)
    return J


def frenet_query_points(field, x):
    """The 65 points that frenet_report queries on a differenced field, in order:
    x and its 12 Jacobian points, then for each y of x - 2h T, x - h T, x + h T,
    x + 2h T (T = field.at(x), h = 10 field.step(x)) y and its 12 Jacobian points."""
    x = np.asarray(x, dtype=float)
    T, h = field.at(x), 10.0 * field.step(x)
    points = []
    for y in (x, x - 2.0 * h * T, x - h * T, x + h * T, x + 2.0 * h * T):
        points += [y, *_axis_stencil_loop(y, field.step(y))]
    return points
