"""Dense real matrix kernel.

Certified symmetric eigensolver (LAPACK eigh plus a one-shot residual
check), principal-minor sums from the spectrum checked against pm^2 and det,
full spectra from LAPACK eigvals of A / max|A|, each single-linkage
eigenvalue cluster certified against that matrix or cut at its longest link,
SVD nullspaces, and seeded unit and orthogonal sampling.  At desk scale (n up
to a few dozen), robustness and reproducibility come before asymptotics.
"""

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import InputError, NumericalError


@dataclass(frozen=True)
class ToleranceConfig:
    """The one tolerance policy of the matrix analyses (frenet keeps its own).

    Each test of whether a quantity is zero, equal or small compares it with
    a field below, or a multiple of one listed here, times n where the test
    uses n, times max|X|^d for X the matrix judged and d the quantity's
    degree in X.  No threshold has an absolute floor, so every decision on
    c X is the one on X, c > 0; a degree-2 quantity is formed on
    X = A / binary_scale(A), where it cannot under- or overflow.  Functions
    without a tol use DEFAULT_TOL.

    eig_off_tol (1e-12): the certificates of sym_eigen (see there) and
    skew_canonical_basis; below about 1e-14 they end in NumericalError.
    rank_tol (1e-12), a quantity is zero:
      - n rank_tol max|X|: nullspace singular values and eigenstructure's
        eigenspaces (X = A), skew_canonical_basis's rates and kernel (X = K / max|K|),
        real_spectrum's sigma_min (X = A/s) and tie between real parts of pairs (X = A);
      - rank_tol max|X|^d: a zero symmetric or skew part of A, a zero
        planar rotation-form eigenvalue (d = 1) and the planar borderline
        product (d = 2), a QForm's asymmetry, collings_det's off-diagonal D;
      - rank_tol: the leading component that fixes a unit vector's sign.
    residual_tol (1e-9), a residual is small:
      - residual_tol max|X|^d: sym_eigen's asymmetry, rotation-form values
        at a unit common zero, expansion_eigenbasis's residual,
        zero_subspace_extend's values over |x||y| (d = 1), the normality
        commutator (d = 2), the CLI's decomposition probe (d = 0);
      - 10 residual_tol max|X| (1e-8): nearby eigenvalues counted equal by
        skew_square_structure (X = (A/p)^2, top |eigenvalue|), normal_power_basis;
      - residual_tol / 10 max|X|^d (1e-10): a skew input's asymmetry
        (d = 1), a given vector's unit length (as_unit) and a given basis's
        orthogonality (d = 0), a coupling skew entry in normal_invariant_recover.
      - residual_tol e_k(r), r the row norms of A / binary_scale(A): the anchors
        of principal_minor_sums, pm^2 (k = 2) and pm^n (k = n).
    Here s = max|A|.  Identity residuals divide by max(max|term|, s^d)
    (invariants._rel).  All three fields must be finite and positive.
    """

    eig_off_tol: float = 1e-12
    rank_tol: float = 1e-12
    residual_tol: float = 1e-9

    def __post_init__(self):
        values = (self.eig_off_tol, self.rank_tol, self.residual_tol)
        if not all(0 < v < np.inf for v in values):
            raise InputError("tolerance values must be finite and strictly positive")


DEFAULT_TOL = ToleranceConfig()
_MAX_ENTRY = np.finfo(float).max / 4


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues and conjugate complex pairs with algebraic multiplicities."""

    n: int
    real_eigs: tuple      # ((value, multiplicity), ...) ascending in value
    complex_pairs: tuple  # ((a + b j with b > 0, multiplicity), ...)

    def total_multiplicity(self):
        return sum(m for _, m in self.real_eigs) + 2 * sum(m for _, m in self.complex_pairs)


def as_square(A, name="matrix"):
    """Coerce to a square float array with finite entries of size at most max
    float / 4, where sums of two entries stay finite; raise InputError otherwise."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise InputError(f"{name} must be square n x n with n >= 1, got shape {A.shape}")
    if not maxabs(A) <= _MAX_ENTRY:
        raise InputError(f"{name} needs finite entries of size <= max float / 4 = {_MAX_ENTRY:.3g}")
    return A


def as_vector(u, name="vector"):
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise InputError(f"{name} must be one-dimensional, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise InputError(f"{name} has non-finite components")
    return u


def as_unit(u, name="vector", tol=DEFAULT_TOL.residual_tol / 10):
    """u as a vector whose length is 1 within tol; nothing is normalised."""
    u = as_vector(u, name)
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > tol:
        raise InputError(f"{name} must be unit length: norm = {norm:.12g}")
    return u


def as_direction(u, n, name="direction"):
    """The unit vector along u, a non-zero n-vector."""
    u = as_vector(u, name)
    if len(u) != n:
        raise InputError(f"{name} must have {n} components, got {len(u)}")
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise InputError(f"{name} must be non-zero")
    return u / norm


def maxabs(A):
    A = np.asarray(A)
    return float(np.max(np.abs(A))) if A.size else 0.0


def binary_scale(A):
    """The power of two p with p <= max|A| < 2 p (1/2 for a zero A): A / p is
    exact, so a degree-d value formed on A / p, times p^d, keeps every bit."""
    return float(np.ldexp(1.0, np.frexp(maxabs(A))[1] - 1))


def check_orthogonal(P, name="basis matrix"):
    """Require max|P^T P - I| <= residual_tol / 10; returns P as a float array."""
    P = as_square(P, name)
    gap = maxabs(P.T @ P - np.eye(P.shape[0]))
    if gap > DEFAULT_TOL.residual_tol / 10:
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


def _pm2(M):
    """Second minor sum, over i < j of the 2 x 2 minors M[i,i] M[j,j] - M[i,j] M[j,i],
    each formed on its own: rounding stays within n^2 eps e_2 of M's row norms."""
    d = np.diag(M)
    return float(d[1:] @ np.cumsum(d)[:-1]) - float(np.sum(np.triu(M * M.T, 1)))


def principal_minor_sums(A):
    """Sums pm^1..pm^n of the k x k principal minors of A.

    pm^1 = tr A; pm^k, k >= 2, is e_k of the eigenvalues of the exact X = A / p,
    p = binary_scale(A), by np.poly's product recurrence (Rehman & Ipsen,
    SIMAX 32, 2011), real part, times p^k as a float product, so pm^k(2^j A)
    = 2^(jk) pm^k(A) bit for bit.  Anchors computed another way certify it:
    pm^2 against _pm2(X) and pm^n against det(X) by LU, each within
    residual_tol e_k(r), r the row norms of X, the Hadamard mass that bounds
    every k-subset minor; else NumericalError.
    """
    A = as_square(A)
    n = A.shape[0]
    if n == 1:
        return (float(A[0, 0]),)
    p = binary_scale(A)
    X = A / p
    try:
        e = [(-1.0) ** k * c for k, c in enumerate(np.poly(X).real.tolist())]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
    r = np.hypot.reduce(X, axis=1)  # np.linalg.norm squares a row of 1e-200 to 0
    for k, value, mass in ((2, _pm2(X), float(r[1:] @ np.cumsum(r)[:-1])),
                           (n, float(np.linalg.det(X)), float(np.prod(r)))):
        if not abs(e[k] - value) <= DEFAULT_TOL.residual_tol * mass:
            raise NumericalError(f"minor sum pm^{k} of A / {p:g} is {e[k]:.6e} from the spectrum "
                                 f"but {value:.6e} by another route (row-norm mass {mass:.3e})",
                                 residual=abs(e[k] - value))
    return (float(np.trace(A)),) + tuple(prod([p] * k, start=e[k]) for k in range(2, n + 1))


def char_poly_coeffs(A):
    """Coefficients of x^n - pm^1 x^(n-1) + ... + (-1)^n pm^n, highest degree first."""
    return np.array([(-1.0) ** k * v for k, v in enumerate((1.0,) + principal_minor_sums(A))])


# An m-fold eigenvalue moves by about (n eps)^(1/m) under rounding, so an
# m-cluster may spread that far, times _SPREAD_FACTOR.
_SPREAD_FACTOR = 10.0


def _cluster_points(points, tol=None):
    """Single-linkage groups of complex points, in order of first member.

    After the loop M[i, j] is the longest step on the best chain from point i
    to point j.  Points share a group when it is at most tol; without tol,
    when it is below the longest of all, which cuts each longest link
    together with its conjugate mirror.
    """
    z = np.asarray(points)
    M = np.abs(z[:, None] - z[None, :])
    for k in range(len(z)):
        M = np.minimum(M, np.maximum.outer(M[:, k], M[k]))
    labels = (M <= tol if tol is not None else M < M.max()).argmax(axis=1)
    return [[p for p, own in zip(points, labels) if own == label]
            for label in dict.fromkeys(labels)]


def _resolve_clusters(Ah, points, groups, sigma_tol):
    """(centroid, multiplicity) of each certified cluster that the groups of
    the eigenvalues points of Ah split into, one entry per real eigenvalue
    and per conjugate pair; the multiplicities add up to len(points).

    Grouping is symmetric under conjugation, so a cluster with points on
    both sides of the real axis (or on it) stands for a real eigenvalue and
    one above the axis for a pair whose mirror below is skipped.  A cluster
    of m is accepted when its spread from the centroid is within
    _SPREAD_FACTOR (n eps)^(1/m); when, for 1 < m < n, the (m+1)-th nearest
    point is at least eps^(-1/(2m)) spreads away (a relative gap after Dhillon
    & Parlett, LAA 387, 2004: a rounded m-fold eigenvalue keeps eps^(-1/m), a
    decade-graded run 10); and when sigma_min(Ah - z I) <= sigma_tol at the
    centroid and at the midpoints towards its members, which the
    pseudospectrum of a perturbed m-fold eigenvalue covers (Rump, LAA 324,
    2001; Trefethen & Embree, 2005).  A failing cluster is cut at its longest
    single-linkage step, or raises NumericalError if it is one or equal points.
    """
    n = Ah.shape[0]
    eps = np.finfo(float).eps
    accepted = []
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
        if ok and 1 < m < n:
            ok = spread <= eps ** (0.5 / m) * np.partition(np.abs(points - centre), m)[m]
        if ok:
            midpoints = [0.5 * (centre + z) for z in group] if m > 1 else []
            shifts = np.array([centre] + midpoints)
            shifted = Ah[None] - shifts[:, None, None] * np.eye(n)
            sigma = float(np.max(np.linalg.svd(shifted, compute_uv=False)[:, -1]))
            ok = sigma <= sigma_tol
        if ok:
            accepted.append((centre, m))
            continue
        parts = _cluster_points(group)
        if len(parts) == 1:
            raise NumericalError(
                f"eigenvalue {centre:.6g} of A / max|A| (multiplicity {m}) fails its "
                f"certificate: sigma_min = {sigma:.3e} exceeds {sigma_tol:.3e}",
                residual=sigma,
            )
        accepted.extend(_resolve_clusters(Ah, points, parts, sigma_tol))
    return accepted


def ascending_runs(values, tol):
    """(start, stop) index ranges splitting ascending values into runs whose
    members lie within tol of their run's first value."""
    runs = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[start] > tol:
            runs.append((start, i))
            start = i
    return runs


def _sort_pairs(pairs, tie):
    """Pairs by real part, with real parts within tie of a run's first one
    counted equal and that run ordered by imaginary part."""
    pairs = sorted(pairs, key=lambda t: t[0].real)
    runs = ascending_runs([z.real for z, _ in pairs], tie)
    return tuple(p for a, b in runs for p in sorted(pairs[a:b], key=lambda t: t[0].imag))


def real_spectrum(A, tol=DEFAULT_TOL):
    """Full spectrum of A, real eigenvalues and conjugate pairs, each with
    its algebraic multiplicity.

    With s = max|A|, the eigenvalues of A / s come from LAPACK
    (np.linalg.eigvals, Hessenberg QR, backward stable), are grouped by
    single linkage at 3e-3, and each group is certified against A / s, by
    sigma_min(A / s - z I) <= n rank_tol among other tests, or cut at its
    longest link until its parts pass (see _resolve_clusters).  Centroids
    are rescaled by s; multiplicities add up to n; pairs with real parts
    within n rank_tol s go by imaginary part.  A zero matrix has the
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
    groups = _cluster_points(raw, 3e-3)
    for centre, m in _resolve_clusters(Ah, np.array(raw), groups, n * tol.rank_tol):
        (pairs if isinstance(centre, complex) else reals).append((centre * s, m))
    reals.sort(key=lambda t: t[0])
    return Spectrum(n, tuple(reals), _sort_pairs(pairs, n * tol.rank_tol * s))


def nullspace(A, tol=DEFAULT_TOL, abs_threshold=None):
    """Orthonormal basis of the numerical kernel of A.

    Singular directions with s <= threshold count as kernel (ties favour the
    larger kernel).  The default threshold is n * rank_tol * max|A|; pass
    abs_threshold to override it, e.g. when A carries eigenvalue error.
    """
    A = as_square(A)
    n = A.shape[0]
    if abs_threshold is None:
        abs_threshold = n * tol.rank_tol * maxabs(A)
    _, s, vh = np.linalg.svd(A)
    return [vh[i].copy() for i in range(n) if s[i] <= abs_threshold]


def random_unit(rng, n):
    """A seeded unit n-vector: a standard-normal draw over its norm, drawn
    again while the norm is at most 1e-6."""
    while True:
        v = rng.standard_normal(n)
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return v / norm


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
