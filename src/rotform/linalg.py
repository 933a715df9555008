"""Dense real matrix kernel.

Certified symmetric eigensolver (LAPACK eigh plus a one-shot residual
check), characteristic polynomial coefficients via trace recurrences, full
(possibly complex) spectra via simultaneous root iteration, SVD nullspaces,
and seeded orthogonal sampling.  Everything targets desk scale (n up to a few
dozen) and favours robustness and reproducibility over asymptotics.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

_ROOT_MAX_ITER = 600


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative thresholds shared by the numerical kernels.

    rank_tol is scaled by n * max|A| before use as an absolute threshold;
    eig_off_tol bounds the sym_eigen certificate (off-diagonal norm of the
    eigenbasis transform, relative to the Frobenius norm of the matrix being
    diagonalised; values below about 1e-14 cannot be met and end in
    NumericalError); residual_tol governs identity and residual checks.
    All three must be finite and strictly positive.
    """

    eig_off_tol: float = 1e-12
    rank_tol: float = 1e-12
    residual_tol: float = 1e-9

    def __post_init__(self):
        values = (self.eig_off_tol, self.rank_tol, self.residual_tol)
        if not all(0 < v < np.inf for v in values):
            raise InputError("tolerance values must be finite and strictly positive")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues and conjugate complex pairs with algebraic multiplicities."""

    n: int
    real_eigs: tuple      # ((value, multiplicity), ...) ascending in value
    complex_pairs: tuple  # ((a + b j with b > 0, multiplicity), ...)

    def total_multiplicity(self):
        return sum(m for _, m in self.real_eigs) + 2 * sum(m for _, m in self.complex_pairs)


def as_square(A, name="matrix"):
    """Coerce to a finite square float array, raising InputError otherwise."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise InputError(f"{name} must be square n x n with n >= 1, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InputError(f"{name} has non-finite entries")
    return A


def as_vector(u, name="vector"):
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise InputError(f"{name} must be one-dimensional, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise InputError(f"{name} has non-finite components")
    return u


def maxabs(A):
    A = np.asarray(A)
    return float(np.max(np.abs(A))) if A.size else 0.0


def check_orthogonal(P, tol=1e-10, name="basis matrix"):
    """Require max|P^T P - I| <= tol; returns P as a float array."""
    P = as_square(P, name)
    gap = maxabs(P.T @ P - np.eye(P.shape[0]))
    if gap > tol:
        raise InputError(f"{name} is not orthogonal: max|P^T P - I| = {gap:.3e}")
    return P


def sym_eigen(Q, tol=DEFAULT_TOL):
    """Eigen-decomposition of a symmetric matrix by LAPACK (np.linalg.eigh).

    Returns (eigenvalues ascending, P) with the columns of P the matching
    orthonormal eigenvectors.  Q counts as symmetric when max|Q - Q^T| is
    at most residual_tol * max|Q|, else InputError.  The result is certified
    once against the matrix: with Qh = Q / max|Q|, the off-diagonal
    Frobenius norm of P^T Qh P must not exceed eig_off_tol * ||Qh||_F, else
    NumericalError.  Both tests are scale-free; eig_off_tol below about
    1e-14 cannot be met in double precision.  A solver failure also raises
    NumericalError.
    """
    A = as_square(Q, "symmetric matrix")
    gap = maxabs(A - A.T)
    if gap > tol.residual_tol * maxabs(A):
        raise InputError(f"matrix is not symmetric within tolerance: max|Q - Q^T| = {gap:.3e}")
    A = 0.5 * (A + A.T)
    try:
        w, P = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
    Ah = A / (maxabs(A) or 1.0)
    D = P.T @ Ah @ P
    off = float(np.linalg.norm(D - np.diag(np.diag(D))))
    target = tol.eig_off_tol * float(np.linalg.norm(Ah))
    if off > target:
        raise NumericalError(
            f"eigenbasis certificate failed: off-diagonal norm {off:.3e} of the "
            f"normalised matrix in its eigenbasis exceeds {target:.3e}",
            residual=off,
        )
    return w, P


def matrix_powers(A, top):
    """[I, A, A^2, ..., A^top], by repeated multiplication."""
    out = [np.eye(A.shape[0]), A]
    for _ in range(top - 1):
        out.append(out[-1] @ A)
    return out[: top + 1]


def power_traces(A, kmax):
    """tr(A^k) for k = 1..kmax."""
    return [float(np.trace(M)) for M in matrix_powers(as_square(A), kmax)[1:]]


def principal_minor_sums(A):
    """Sums of k x k principal minors, k = 1..n, via the trace recurrence."""
    A = as_square(A)
    return minor_sums_from_traces(power_traces(A, A.shape[0]))


def minor_sums_from_traces(p):
    """pm^1..pm^n from p = (tr A, ..., tr A^n).

    pm^1 = tr(A), pm^n = det(A); the sequence follows
    k * pm^k = sum_{i=1..k} (-1)^(i-1) pm^(k-i) tr(A^i).
    """
    pm = [1.0]
    for k in range(1, len(p) + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1.0) ** (i - 1) * pm[k - i] * p[i - 1]
        pm.append(acc / k)
    return tuple(pm[1:])


def char_poly_coeffs(A):
    """Monic characteristic polynomial coefficients, highest degree first.

    p(x) = x^n - pm^1 x^(n-1) + pm^2 x^(n-2) - ... + (-1)^n pm^n.
    """
    pm = principal_minor_sums(A)
    coeffs = [1.0]
    for k, value in enumerate(pm, start=1):
        coeffs.append((-1.0) ** k * value)
    return np.array(coeffs)


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


def _cluster_points(points, tol):
    """Group complex points whose mutual distance stays within tol (union-find)."""
    m = len(points)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(points[i] - points[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(points[i])
    return list(groups.values())


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


def real_spectrum(A, tol=DEFAULT_TOL):
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


def nullspace(A, tol=DEFAULT_TOL, abs_threshold=None):
    """Orthonormal basis of the numerical kernel of A.

    Singular directions with s <= threshold count as kernel (ties favour the
    larger kernel).  The default threshold is n * rank_tol * max|A|; pass
    abs_threshold to override it, e.g. when A carries eigenvalue error.
    """
    A = as_square(A)
    n = A.shape[0]
    threshold = abs_threshold
    if threshold is None:
        threshold = n * tol.rank_tol * maxabs(A)
    _, s, vh = np.linalg.svd(A)
    vecs = [vh[i].copy() for i in range(n) if s[i] <= threshold]
    return vecs


def random_orthogonal(n, seed):
    """Deterministic random orthogonal matrix: QR orthonormalisation of a
    seeded standard-normal sample, with column signs fixed by R's diagonal."""
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs
