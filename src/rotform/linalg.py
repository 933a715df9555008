"""Dense real matrix kernel.

The matrix record (_Matrix, the one place X = A / binary_scale(A) is formed),
certified symmetric eigensolver (eigh of Q / binary_scale(Q) plus a one-shot
residual check), principal-minor sums from the spectrum checked against pm^2
and det, full spectra from one LAPACK eig of A / max|A|, simple eigenvalues
certified by their eigenvector's residual and single-linkage clusters by SVDs
or cut, eigenspaces and nullspaces by one SVD rank rule, and seeded sampling.
For n up to a few dozen, robustness and reproducibility come before asymptotics.
"""

import numbers
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from math import frexp, inf, isnan, ldexp, nan, prod, sqrt

import numpy as np

from .errors import InputError, NumericalError


def _positive(value, name):
    """value as a float, for a real number, Python's or numpy's but not a bool, that is finite
    and > 0, a ToleranceConfig field among them; anything else, NaN among it, is InputError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < inf:
        raise InputError(f"{name} must be a finite number > 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ToleranceConfig:
    """The one tolerance policy of the matrix analyses (frenet keeps its own).

    Each test of whether a quantity is zero, equal or small compares it with
    a field below, or a multiple of one listed here, times n where the test
    uses n, times max|X|^d for X the matrix judged and d the quantity's
    degree in X.  No threshold has an absolute floor, so every decision on
    c X is the one on X, c > 0; a degree-2 quantity is formed on the record's
    X = A / binary_scale(A) (_Matrix.X), where it cannot under- or overflow.
    A function without a tol judges at its matrix record's (_Matrix.tol),
    DEFAULT_TOL for an array; an input check at DEFAULT_TOL.

    eig_off_tol (1e-12): the certificates of sym_eigen (see there), of an
    eigenbasis that a matrix record adopts (_Matrix.adopt_eigen) and of
    skew_canonical_basis; below about 1e-14 they end in NumericalError.
    rank_tol (1e-12), a quantity is zero:
      - n rank_tol max|X|: nullspace singular values (X = A), the skew kernel's rates, cut
        within the certificate (X = K / max|K|), real_spectrum's residual or sigma_min and the
        eigenspaces from that SVD (X = A/s), and its tie between real parts of pairs (X = A);
        the rank of normal_invariant_recover's row-scaled power system (X, n columns);
      - rank_tol max|X|^d: a zero symmetric or skew part of A, a zero
        planar rotation-form eigenvalue (d = 1) and the planar borderline
        product (d = 2), a QForm's asymmetry, collings_det's off-diagonal D;
      - rank_tol: the leading component that fixes a unit vector's sign.
    residual_tol (1e-9), a residual is small:
      - residual_tol max|X|^d: sym_eigen's asymmetry, rotation-form values
        at a unit common zero, expansion_eigenbasis's residual,
        zero_subspace_extend's values over |x||y| (d = 1), the normality
        commutator (d = 2), the CLI's decomposition probe, normal_power_basis's checks (d = 0);
      - 10 residual_tol max|X| (1e-8): nearby expansion eigenvalues counted equal by
        normal_power_basis (X = A), which solves K^2 once on each such run, and nearby
        rates by skew_square_structure (X's top rate, X = A / p), a run within it of 0 as 0;
      - residual_tol / 10 max|X|^d (1e-10): a skew input's asymmetry (as_skew,
        d = 1), a given vector's unit length (as_unit) and a given basis's
        orthogonality (d = 0), a coupling skew entry in normal_invariant_recover.
      - the record's residual_tol e_k(r), r the row norms of its X: the
        anchors of principal_minor_sums, pm^2 (k = 2) and pm^n (k = n).
    Here s = max|A|.  Identity residuals and normal_power_basis's checks divide by
    max(max|term|, s^d) (_rel).  All three fields must be finite and positive.
    """

    eig_off_tol: float = 1e-12
    rank_tol: float = 1e-12
    residual_tol: float = 1e-9

    def __post_init__(self):
        try:
            for name in ("eig_off_tol", "rank_tol", "residual_tol"):
                _positive(getattr(self, name), name)
        except InputError:
            raise InputError("tolerance values must be finite and strictly positive") from None


DEFAULT_TOL = ToleranceConfig()
_MAX_ENTRY = np.finfo(float).max / 4
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues and conjugate complex pairs with algebraic multiplicities."""

    n: int
    real_eigs: tuple      # ((value, multiplicity), ...) ascending in value
    complex_pairs: tuple  # ((a + b j with b > 0, multiplicity), ...)
    # per real eigenvalue, an orthonormal basis of its eigenspace (see real_spectrum)
    real_vectors: tuple = field(default=(), compare=False, repr=False)

    def total_multiplicity(self):
        return sum(m for _, m in self.real_eigs) + 2 * sum(m for _, m in self.complex_pairs)


def _real(A, name):
    """A as a float array, for an array or nested sequence of real numbers; a complex one
    with a non-zero imaginary part, or one of object, string or any other dtype that is not
    a number, is InputError (np.asarray(A, dtype=float) keeps the real part, with only a
    warning, and reads strings as numbers)."""
    A = np.asarray(A)
    kind = A.dtype.kind
    if kind == "c":
        if A.imag.any():
            raise InputError(f"{name} must be real, got a non-zero imaginary part")
        return A.real.astype(float)  # a contiguous copy, not the strided view .real is
    if kind not in "fiub":
        raise InputError(f"{name} must hold real numbers, got dtype {A.dtype}")
    return A.astype(float, copy=False)


def as_square(A, name="matrix"):
    """Coerce to a square float array with finite entries of size at most max
    float / 4, where sums of two entries stay finite; raise InputError otherwise."""
    return _square(A, name)[0]


def _square(A, name):
    """as_square(A, name) and max|A|, which it checks."""
    A = _real(A, name)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise InputError(f"{name} must be square n x n with n >= 1, got shape {A.shape}")
    m = maxabs(A)
    if not m <= _MAX_ENTRY:
        raise InputError(f"{name} needs finite entries of size <= max float / 4 = {_MAX_ENTRY:.3g}")
    return A, m


def as_vector(u, name="vector"):
    u = _real(u, name)
    if u.ndim != 1 or u.size < 1:
        raise InputError(f"{name} must be one-dimensional, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise InputError(f"{name} has non-finite components")
    return u


def _index(value, lo, message):
    """value as a Python int, for an integer >= lo (any integer when lo is None), Python's
    or numpy's but not a bool; anything else is InputError(message).  int() would truncate
    1.5 and take True, and a numpy integer kept as it is wraps in its own arithmetic."""
    try:
        if isinstance(value, bool):
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise InputError(message) from None
    if lo is not None and index < lo:
        raise InputError(message)
    return index


def as_unit(u, name="vector", tol=DEFAULT_TOL.residual_tol / 10):
    """u as a vector whose length is 1 within tol; nothing is normalised."""
    u = as_vector(u, name)
    norm = _norm(u)
    if abs(norm - 1.0) > tol:
        raise InputError(f"{name} must be unit length: norm = {norm:.12g}")
    return u


def as_skew(S, name="matrix", tol=DEFAULT_TOL.residual_tol / 10):
    """S as a square array whose max|S + S^T| is within tol max|S|; nothing is made skew."""
    S, m = _square(S, name)
    gap = maxabs(S + S.T)
    if gap > tol * m:
        raise InputError(f"{name} is not skew-symmetric: max|S + S^T| = {gap:.3e}")
    return S


def as_direction(u, n, name="direction"):
    """The unit vector along u, a non-zero n-vector."""
    return _direction(u, n, name)[1]


def _direction(u, n, name):
    """as_vector(u, name) and as_direction(u, n, name)."""
    u = as_vector(u, name)
    if len(u) != n:
        raise InputError(f"{name} must have {n} components, got {len(u)}")
    norm = _norm(u)
    if norm == 0.0:
        raise InputError(f"{name} must be non-zero")
    return u, u / norm


def _norm(x):
    """The Frobenius norm of an array, real or complex: of a real x, float(np.linalg.norm(x))
    bit for bit, by the same dot over x.ravel("K") without its dispatch."""
    x = x.ravel("K")
    return sqrt(np.vdot(x, x).real)


def maxabs(A):
    A = np.asarray(A)
    return float(np.abs(A).max()) if A.size else 0.0


def _rel(total, terms, scale, degree):
    """|total| relative to the largest term along axis 0, and at least to
    scale^degree for an identity of that degree in X with max|X| = scale, or
    0.0 where that denominator is 0: a float for one identity, a list for an
    array of them.  A float total with a flat sequence of float terms is one
    identity, worked in Python floats: abs and max are exact and the division
    is one IEEE operation, so it keeps the array path's bits.  A NaN term or
    scale gives NaN, as np.maximum does, and so does a NaN total over a
    non-zero denominator; the report writer refuses NaN (CLI exit code 3)."""
    floor = prod([scale] * degree)
    if isinstance(total, float):
        size = [abs(t) for t in terms]
        denom = nan if isnan(sum(size)) or isnan(floor) else max(0.0, floor, *size)
        return float(abs(total) / denom) if denom else 0.0
    denom = np.maximum(np.abs(terms).max(axis=0, initial=0.0), floor)
    out = np.zeros(np.shape(denom))
    return np.divide(np.abs(total), denom, out=out, where=denom != 0).tolist()


def binary_scale(A):
    """The power of two p with p <= max|A| < 2 p (1/2 for a zero A), A an array or
    the float max|A|: A / p is exact, so a degree-d value on A / p, times p^d, keeps every bit."""
    return ldexp(1.0, frexp(A if isinstance(A, float) else maxabs(A))[1] - 1)


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
    at most residual_tol * max|Q|, else InputError.  eigh solves the exact
    X = Q / binary_scale(Q), so 2^j Q gives 2^j w and the same P bit for bit.
    The result is certified once: with Qh = X / max|X|, the off-diagonal
    Frobenius norm of P^T Qh P must not exceed eig_off_tol * ||Qh||_F, else
    NumericalError, as on a solver failure.  Both tests are scale-free;
    eig_off_tol below about 1e-14 cannot be met in double precision.
    """
    A, m = _square(Q, "symmetric matrix")
    gap = maxabs(A - A.T)
    if gap > tol.residual_tol * m:
        raise InputError(f"matrix is not symmetric within tolerance: max|Q - Q^T| = {gap:.3e}")
    p = binary_scale(m)
    X = (A + A.T) / (2.0 * p)
    try:
        w, P = np.linalg.eigh(X)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
    off, target = _eigenbasis_gap(X, maxabs(X), P, tol)
    if off > target:
        raise NumericalError(
            f"eigenbasis certificate failed: off-diagonal norm {off:.3e} of the "
            f"normalised matrix in its eigenbasis exceeds {target:.3e}", residual=off)
    return w * p, P


def _eigenbasis_gap(Q, m, P, tol):
    """sym_eigen's certificate of the eigenbasis P of the symmetric Q, m = max|Q|: the
    off-diagonal Frobenius norm of P^T Qh P, Qh = Q / m, and its bound eig_off_tol ||Qh||_F."""
    Qh = Q / (m or 1.0)
    D = P.T @ Qh @ P
    np.fill_diagonal(D, 0.0)
    return _norm(D), tol.eig_off_tol * _norm(Qh)


class _kept:
    """functools.cached_property without its lock: func(record), formed on first use and kept
    in the record's __dict__, where it shadows this descriptor from then on.  Python 3.11's
    cached_property takes one lock, shared by all instances, at every first use."""

    def __init__(self, func):
        self.func = func

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.func(record)
        return value


class _Matrix:
    """A, checked once by as_square, its one ToleranceConfig tol, and what its
    analyses share, each formed on first use and kept: max|A| (scale), p =
    binary_scale(A), X = A / p (the one place a record forms it), the parts sym and
    skew, their max|.| and whether each is zero at tol, sym_eigen(sym, tol), the expansion
    split and skew_eigen: max|K| of a non-zero skew part K, X = K / max|K| and eigh of i X,
    certified.  The analyses, decompose, principal_minor_sums and the identities take it in
    place of A."""

    def __init__(self, A, tol):
        self.A, self.n, self.tol = A, A.shape[0], tol

    scale = _kept(lambda self: maxabs(self.A))
    p = _kept(lambda self: binary_scale(self.scale))
    X = _kept(lambda self: self.A / self.p)
    sym = _kept(lambda self: 0.5 * (self.A + self.A.T))
    skew = _kept(lambda self: 0.5 * (self.A - self.A.T))
    sym_max = _kept(lambda self: maxabs(self.sym))
    skew_max = _kept(lambda self: maxabs(self.skew))
    sym_zero = _kept(lambda self: self.sym_max <= self.tol.rank_tol * self.scale)
    skew_zero = _kept(lambda self: self.skew_max <= self.tol.rank_tol * self.scale)
    eigen = _kept(lambda self: sym_eigen(self.sym, self.tol))

    @_kept
    def skew_eigen(self):
        """(s, X, w, Z): s = max|K|, X = K / s and the eigh of the Hermitian H = i X, certified
        as sym_eigen is: the off-diagonal Frobenius norm of Z^H H Z is within eig_off_tol
        ||X||_F, else NumericalError."""
        s = self.skew_max
        X = self.skew / s
        H = 1j * X
        w, Z = np.linalg.eigh(H)
        D = Z.conj().T @ H @ Z
        np.fill_diagonal(D, 0.0)
        off, target = _norm(D), self.tol.eig_off_tol * _norm(X)
        if off > target:
            raise NumericalError(
                f"skew eigenbasis certificate failed: off-diagonal norm {off:.3e} of i K / "
                f"max|K| in its eigenbasis exceeds {target:.3e}", residual=off)
        return s, X, w, Z

    @_kept
    def split(self):
        """(P, D, S) with A = P (diag(D) + S) P^T, S skew, as expansion_eigenbasis orders them."""
        w, P = self.eigen
        P, v = _sign_fix(P, self.tol), w.tolist()
        if all(a < b for a, b in zip(v, v[1:])):  # no tie: descending w is w reversed
            order = np.arange(self.n - 1, -1, -1)
        else:  # by -w, then by -P[0, i], -P[1, i], ...
            order = np.lexsort((*(-P)[::-1], -w))
        P = P[:, order]
        B = P.T @ self.A @ P
        S = 0.5 * (B - B.T)
        G = B - S  # B - diag(B) - S off the diagonal, 0 on it
        np.fill_diagonal(G, 0.0)
        gap = maxabs(G)
        if gap > self.tol.residual_tol * self.scale:
            raise NumericalError(f"eigenbasis failed to diagonalise the symmetric part: "
                                 f"residual {gap:.3e}", residual=gap)
        return P, w[order], S

    def adopt_eigen(self, w, P):
        """Keep (w, P), ascending eigenvalues and eigenbasis of sym known from elsewhere,
        as eigen if P passes sym_eigen's certificate; else sym_eigen solves on first use."""
        off, target = _eigenbasis_gap(self.sym, self.sym_max, P, self.tol)
        if off <= target:
            self.eigen = (w, P)


def _matrix(A, tol=None):
    """A's record under tol (if None, a record's own or DEFAULT_TOL): a record under
    it passes through, else a new one holds its checked A; an array is checked once."""
    if not isinstance(A, _Matrix):
        return _Matrix(as_square(A), DEFAULT_TOL if tol is None else tol)
    return A if tol is None or tol is A.tol or tol == A.tol else _Matrix(A.A, tol)


_last = None  # the record _shared built last


def _shared(A, tol=None):
    """_matrix(A, tol), but an array's record is kept until the next array's: a call on
    the same shape, tol and float64 bits gets it back with all it has formed.  It holds a
    read-only copy of A, so no caller can change it; the CLI builds its records by _matrix."""
    global _last
    if isinstance(A, _Matrix):
        return _matrix(A, tol)
    tol, A, last = DEFAULT_TOL if tol is None else tol, _real(A, "matrix"), _last
    if last is None or (last.tol, last.A.shape, last.A.tobytes()) != (tol, A.shape, A.tobytes()):
        last = _last = _Matrix(as_square(A).copy(order="C"), tol)
        last.A.flags.writeable = False
    return last


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
    d = M.diagonal()
    return float(d[1:] @ d.cumsum()[:-1]) - float(np.where(_upper(len(d)), M * M.T, 0.0).sum())


@lru_cache(maxsize=64)
def _upper(n):
    """The read-only n x n mask of the entries above the diagonal, as np.triu(., 1) keeps."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def principal_minor_sums(A):
    """Sums pm^1..pm^n of the k x k principal minors of A, an array or a record.

    pm^1 = tr A; pm^k, k >= 2, is e_k of the eigenvalues of the record's exact
    X = A / p, p = binary_scale(A), by np.poly's product recurrence (Rehman & Ipsen,
    SIMAX 32, 2011), real part, times p^k as a float product, so pm^k(2^j A)
    = 2^(jk) pm^k(A) bit for bit.  Anchors computed another way certify it:
    pm^2 against _pm2(X) and pm^n against det(X) by LU, each within
    residual_tol e_k(r) of the record's tol, r the row norms of X, the Hadamard
    mass that bounds every k-subset minor; else NumericalError.
    """
    M = _matrix(A)
    A, n = M.A, M.n
    if n == 1:
        return (float(A[0, 0]),)
    p, X = M.p, M.X
    try:
        e = [(-1.0) ** k * c for k, c in enumerate(np.poly(X).real.tolist())]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
    r = np.hypot.reduce(X, axis=1)  # np.linalg.norm squares a row of 1e-200 to 0
    for k, value, mass in ((2, _pm2(X), float(r[1:] @ r.cumsum()[:-1])),
                           (n, float(np.linalg.det(X)), float(r.prod()))):
        if not abs(e[k] - value) <= M.tol.residual_tol * mass:
            raise NumericalError(f"minor sum pm^{k} of A / {p:g} is {e[k]:.6e} from the spectrum "
                                 f"but {value:.6e} by another route (row-norm mass {mass:.3e})",
                                 residual=abs(e[k] - value))
    return (float(A.trace()),) + tuple(prod([p] * k, start=e[k]) for k in range(2, n + 1))


def char_poly_coeffs(A):
    """Coefficients of x^n - pm^1 x^(n-1) + ... + (-1)^n pm^n, highest degree first."""
    return np.array([(-1.0) ** k * v for k, v in enumerate((1.0,) + principal_minor_sums(A))])


# An m-fold eigenvalue moves by about (n eps)^(1/m) under rounding, so an
# m-cluster may spread that far, times _SPREAD_FACTOR.
_SPREAD_FACTOR = 10.0


def _cluster_points(points, tol=None):
    """Single-linkage groups of complex points, as index lists, in order of first member.

    With tol, points share a group when a chain of steps of at most tol joins
    them: the reach of one step, squared until it stops growing.  Without tol,
    the loop makes M[i, j] the longest step on the best chain from point i to
    point j, and points share a group when it is below the longest of all,
    which cuts each longest link together with its conjugate mirror.
    """
    z = np.asarray(points)
    M = np.abs(z[:, None] - z[None, :])
    if tol is None:
        for k in range(len(z)):
            np.minimum(M, np.maximum.outer(M[:, k], M[k]), out=M)
        joined = M < M.max()
    else:
        joined = M <= tol
        if np.count_nonzero(joined) == len(z):
            return [[i] for i in range(len(z))]  # only the diagonal: no chain joins two points
        while not np.array_equal(wider := joined @ joined.astype(float) > 0, joined):
            joined = wider
    groups = {}
    for i, label in enumerate(joined.argmax(axis=1).tolist()):
        groups.setdefault(label, []).append(i)
    return list(groups.values())


def _resolve_clusters(Ah, z, X, groups, sigma_tol, certified):
    """(centroid, multiplicity, basis) of each certified cluster that the groups of indices
    i into z, Ah's eigenvalues with eigenvectors X[:, i], split into, one entry per real
    eigenvalue and per conjugate pair; the multiplicities add up to the number of indices.

    Grouping is symmetric under conjugation, so a cluster with points on
    both sides of the real axis (or on it) stands for a real eigenvalue and
    one above the axis for a pair whose mirror below is skipped.  A cluster
    of m is accepted when its spread from the centroid is within
    _SPREAD_FACTOR (n eps)^(1/m); when, for 1 < m < n, the (m+1)-th nearest
    point of z is at least eps^(-1/(2m)) spreads away (a relative gap after Dhillon
    & Parlett, LAA 387, 2004: a rounded m-fold eigenvalue keeps eps^(-1/m), a
    decade-graded run 10); and when sigma_min(Ah - z I) <= sigma_tol at the
    centroid and at the midpoints towards its members on or above the axis
    (a mirror's has the same sigma_min; a real member's stays real), which
    the pseudospectrum of a perturbed m-fold eigenvalue covers (Rump, LAA
    324, 2001; Trefethen & Embree, 2005), unless it is one index i with
    certified[i].  The basis, read for a real centroid only, is then
    X[:, i].real, else the kernel from that SVD (_kernel).  A failing
    cluster is cut at its longest single-linkage step, or raises
    NumericalError if it is one or equal points.
    """
    n, accepted, points, lone = Ah.shape[0], [], z.tolist(), certified.tolist()
    for group in groups:
        values, m = [points[i] for i in group], len(group)
        imag = [v.imag for v in values]
        if max(imag) < 0.0:
            continue
        centre = complex(sum(values) / m)
        spread = max(abs(v - centre) for v in values)
        if min(imag) <= 0.0:
            centre = centre.real
        ok = spread <= _SPREAD_FACTOR * (n * _EPS) ** (1.0 / m)
        if ok and 1 < m < n:
            ok = spread <= _EPS ** (0.5 / m) * np.partition(np.abs(z - centre), m)[m]
        basis = (X[:, group[0]].real,) if m == 1 and lone[group[0]] else None
        if ok and basis is None:
            shifts = [centre] + [0.5 * (centre + (v if v.imag else v.real))
                                 for v in values if m > 1 and v.imag >= 0.0]
            sigma, basis = _kernel(Ah, shifts, sigma_tol)
            ok = sigma <= sigma_tol
        if ok:
            accepted.append((centre, m, basis))
            continue
        parts = [[group[j] for j in part] for part in _cluster_points(values)]
        if len(parts) == 1:
            raise NumericalError(f"eigenvalue {centre:.6g} of A / max|A| (multiplicity {m}) "
                                 f"fails its certificate: sigma_min = {sigma:.3e} exceeds "
                                 f"{sigma_tol:.3e}", residual=sigma)
        accepted.extend(_resolve_clusters(Ah, z, X, parts, sigma_tol, certified))
    return accepted


def _kernel(X, shifts, bound):
    """The one SVD rank rule: the largest sigma_min(X - z I) over the shifts z and, for a
    real first z, the right singular vectors of its X - z I with singular values at most
    bound, by a real SVD (a complex one gives arbitrary phases); the rest in one batch.
    X may be tall when its one shift is 0; I then has X's shape."""
    eye, sigma, basis = np.eye(*X.shape), 0.0, ()
    if not isinstance(shifts[0], complex):
        _, s, vh = np.linalg.svd(X - shifts[0] * eye)
        sigma, basis, shifts = s[-1], tuple(vh[s <= bound]), shifts[1:]
    if shifts:
        batch = X - np.array(shifts)[:, None, None] * eye
        sigma = max(sigma, np.linalg.svd(batch, compute_uv=False)[:, -1].max())
    return float(sigma), basis


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

    With s = max|A|, the eigenvalues z and eigenvectors X of A / s come from one LAPACK
    eig (Hessenberg QR, backward stable), are grouped by single linkage at 3e-3 as
    indices into z, so each member keeps its own column x of X, and each group is
    certified against A / s by sigma_min(A / s - z I) <= n rank_tol among other tests,
    or cut at its longest link until its parts pass (see _resolve_clusters).  A lone z
    needs no SVD when |A / s x - z x| for LAPACK's unit x, which bounds that sigma_min,
    plus 4 n eps (|A / s|_F + |z|) for its rounding is within n rank_tol; real_vectors
    holds the x of each real z so certified, else the kernel of A / s - z I at n
    rank_tol from the SVD that certified z.  Centroids are rescaled by s; multiplicities
    add up to n; pairs with real parts within n rank_tol s go by imaginary part.  A
    zero matrix has the eigenvalue 0 with multiplicity n.  Measured right on random n
    up to 64.
    """
    M = _shared(A, tol)
    A, n, s = M.A, M.n, M.scale
    if s == 0.0:
        return Spectrum(n, ((0.0, n),), (), (tuple(np.eye(n)),))
    Ah = A / s
    try:
        w, X = np.linalg.eig(Ah)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
    z, sigma_tol = w.astype(complex), n * tol.rank_tol
    R = Ah @ X - X * w
    rounding = 4 * n * _EPS * (_norm(Ah) + np.abs(w))
    # the column norms by np.linalg.norm's own expression
    certified = np.sqrt(np.add.reduce((R.conj() * R).real, axis=0)) + rounding <= sigma_tol
    found = _resolve_clusters(Ah, z, X, _cluster_points(z, 3e-3), sigma_tol, certified)
    pairs = [(c * s, m) for c, m, _ in found if isinstance(c, complex)]
    reals = sorted([(c * s, m, b) for c, m, b in found if not isinstance(c, complex)],
                   key=lambda t: t[0])
    return Spectrum(n, tuple((v, m) for v, m, _ in reals), _sort_pairs(pairs, sigma_tol * s),
                    tuple(x for *_, x in reals))


def _sign_fix(P, tol):
    """Make the first component above rank_tol in each unit column positive: by the signs
    of the first row, in Python floats, when all its components are above rank_tol (the
    usual case), else by the first such component of each column."""
    first = P[0].tolist()
    if all(abs(x) > tol.rank_tol for x in first):
        return P * [-1.0 if x < 0.0 else 1.0 for x in first]
    big = np.abs(P) > tol.rank_tol
    lead = (P * big)[big.argmax(axis=0), np.arange(P.shape[1])]  # +-0.0 where none is above
    return P * np.where(lead < 0.0, -1.0, 1.0)


def nullspace(A, tol=DEFAULT_TOL, abs_threshold=None):
    """Orthonormal basis of the numerical kernel of A.

    Singular directions with s <= threshold count as kernel (ties favour the
    larger kernel), by _kernel.  The default threshold is n * rank_tol * max|A|;
    pass abs_threshold, finite and > 0, to override it.  The SVD of the exact
    A / binary_scale(A) makes 2^j A's basis A's, bit for bit.
    """
    A = as_square(A)
    p = binary_scale(m := maxabs(A))
    bound = (A.shape[0] * tol.rank_tol * m if abs_threshold is None
             else _positive(abs_threshold, "abs_threshold"))
    return list(_kernel(A / p, [0.0], bound / p)[1])


def random_unit(rng, n):
    """A seeded unit n-vector: a standard-normal draw over its norm, drawn
    again while the norm is at most 1e-6."""
    while True:
        v = rng.standard_normal(n)
        norm = _norm(v)
        if norm > 1e-6:
            return v / norm


def random_orthogonal(n, seed):
    """Deterministic random orthogonal matrix: QR orthonormalisation of a
    seeded standard-normal sample, with column signs fixed by R's diagonal."""
    n = _index(n, 1, f"dimension must be an integer >= 1, got {n!r}")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs
