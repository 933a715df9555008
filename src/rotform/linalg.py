"""Dense real matrix kernel.

Certified symmetric eigensolver (LAPACK eigh plus a one-shot residual
check), characteristic polynomial coefficients via trace recurrences, full
(possibly complex) spectra from LAPACK eigvals of the normalised matrix with
each eigenvalue cluster certified against that matrix, SVD nullspaces, and
seeded orthogonal sampling.  Everything targets desk scale (n up to a few
dozen) and favours robustness and reproducibility over asymptotics.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative thresholds shared by the numerical kernels.

    rank_tol is scaled by n * max|A| before use as an absolute threshold
    (nullspace ranks, and the smallest singular value of A - lambda I that
    certifies each eigenvalue lambda from real_spectrum);
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


# Clustering radii in units of A / max|A|, widest first.  A cluster that
# fails its certificates is split at the next radius, and below the last
# one into single eigenvalues; no radius is ever widened.
_CLUSTER_LADDER = (3e-3, 3e-4, 2e-5)
# An m-fold eigenvalue moves by about (n eps)^(1/m) under rounding, so an
# m-cluster may spread that far, times _SPREAD_FACTOR.
_SPREAD_FACTOR = 10.0


def _cluster_points(points, tol):
    """Group complex points whose mutual distance stays within tol (union-find)."""
    m = len(points)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    z = np.asarray(points)
    for i, j in zip(*np.nonzero(np.triu(np.abs(z[:, None] - z[None, :]) <= tol, 1))):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(points[i])
    return list(groups.values())


def _resolve_clusters(Ah, points, ladder, sigma_tol):
    """(centroid, multiplicity) of each certified cluster of the eigenvalues
    points of Ah, one entry per real eigenvalue and per conjugate pair.

    Clustering is symmetric under conjugation, so a cluster with points on
    both sides of the real axis (or on it) is its own mirror image and
    stands for a real eigenvalue; a cluster above the axis stands for a pair
    with its mirror below, which is skipped.  A cluster is accepted when its
    spread from the centroid is within _SPREAD_FACTOR (n eps)^(1/m) and
    sigma_min(Ah - z I) <= sigma_tol at the centroid and at the midpoint
    between the centroid and each member: the pseudospectrum of a perturbed
    m-fold eigenvalue covers those points, while between distinct eigenvalues
    of a normal matrix sigma_min is about half their gap.  A cluster that
    fails is split at the next radius; a single eigenvalue that fails raises
    NumericalError.
    """
    n = Ah.shape[0]
    eps = np.finfo(float).eps
    accepted = []
    groups = _cluster_points(points, ladder[0]) if ladder else [[z] for z in points]
    for group in groups:
        imag = [z.imag for z in group]
        if max(imag) < 0.0:
            continue
        m = len(group)
        centre = complex(sum(group) / m)
        spread = max(abs(z - centre) for z in group)
        if min(imag) <= 0.0:
            centre = centre.real
        ok = spread <= _SPREAD_FACTOR * (n * eps) ** (1.0 / m)
        if ok:
            midpoints = [0.5 * (centre + z) for z in group] if m > 1 else []
            shifts = np.array([centre] + midpoints)
            shifted = Ah[None] - shifts[:, None, None] * np.eye(n)
            sigma = float(np.max(np.linalg.svd(shifted, compute_uv=False)[:, -1]))
            ok = sigma <= sigma_tol
        if ok:
            accepted.append((centre, m))
        elif m > 1:
            accepted.extend(_resolve_clusters(Ah, group, ladder[1:], sigma_tol))
        else:
            raise NumericalError(
                f"eigenvalue {centre:.6g} of A / max|A| fails its certificate: "
                f"sigma_min = {sigma:.3e} exceeds {sigma_tol:.3e}",
                residual=sigma,
            )
    return accepted


def _sort_pairs(pairs, tie):
    """Pairs by real part, with real parts within tie of a run's first one
    counted equal and that run ordered by imaginary part."""
    runs = []
    for z, m in sorted(pairs, key=lambda t: t[0].real):
        if runs and z.real - runs[-1][0][0].real <= tie:
            runs[-1].append((z, m))
        else:
            runs.append([(z, m)])
    return tuple(p for run in runs for p in sorted(run, key=lambda t: t[0].imag))


def real_spectrum(A, tol=DEFAULT_TOL):
    """Full spectrum of A, real eigenvalues and conjugate pairs, each with
    its algebraic multiplicity.

    With s = max|A|, the eigenvalues of A / s come from LAPACK
    (np.linalg.eigvals, Hessenberg QR, backward stable), are grouped on the
    cluster ladder (an m-fold eigenvalue splits into m points about
    (n eps)^(1/m) apart, so no single radius fits every multiplicity), and
    each cluster is certified against the normalised matrix by
    sigma_min(A / s - z I) <= n rank_tol at its centroid and at the
    midpoints towards its members (see _resolve_clusters) before the
    centroid is rescaled by s.  A zero matrix has the
    eigenvalue 0 with multiplicity n.  Measured right on random n up to 64.
    """
    A = as_square(A)
    n = A.shape[0]
    s = maxabs(A)
    if s == 0.0:
        return Spectrum(n, ((0.0, n),), ())
    Ah = A / s
    try:
        raw = [complex(z) for z in np.linalg.eigvals(Ah)]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
    reals, pairs = [], []
    for centre, m in _resolve_clusters(Ah, raw, _CLUSTER_LADDER, n * tol.rank_tol):
        if isinstance(centre, complex):
            pairs.append((centre * s, m))
        else:
            reals.append((centre * s, m))
    reals.sort(key=lambda t: t[0])
    return Spectrum(n, tuple(reals), _sort_pairs(pairs, _CLUSTER_LADDER[-1] * s))


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
