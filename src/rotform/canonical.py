"""Canonical orthonormal bases attached to a matrix and normality analysis.

Two bases matter here: the eigenbasis of the symmetric part, in which the
matrix splits into a diagonal D plus a skew S whose entries are half the
rotation-form traces, and the block basis of the skew part, in which the skew
part becomes 2x2 rotation blocks plus a kernel.  Each comes from one LAPACK
eigen-solve that the matrix record keeps: eigh of the symmetric part, and eigh
of the Hermitian i K / max|K| for the skew part K, whose eigenvectors' real and
imaginary parts span the rotation planes; the trailing columns of one complete
QR of the planes span the kernel.  Neither squares the matrix.  The normal route
(_normal_powers) forms each power and K^2 once and refines the expansion solve by
K^2 alone, for normal_power_basis and normal_invariant_recover.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .linalg import DEFAULT_TOL, ascending_runs, matrix_powers, maxabs
from .linalg import _matrix, _rel, _shared, _sign_fix, sym_eigen
from .quasirot import _pair_entries, _pair_index


@dataclass(frozen=True)
class DSSplit:
    """A in the eigenbasis of its symmetric part: diagonal + skew."""

    basis: np.ndarray  # columns are the new basis vectors
    D: np.ndarray      # eigenvalues of the symmetric part, descending
    S: np.ndarray      # strictly skew remainder in that basis


@dataclass(frozen=True)
class SkewBlockForm:
    """Skew part reduced to 2x2 blocks [[0, lam], [-lam, 0]] plus a kernel."""

    basis: np.ndarray
    lambdas: tuple     # one positive value per block, descending
    zero_dim: int


@dataclass(frozen=True)
class NormalityReport:
    is_normal: bool
    violating_pairs: tuple  # (i, j, rotation trace, expansion eigenvalue gap)
    commutator_norm: float  # max|DS - SD| of X = A / p over max|X|^2: scale-free
    expansion_eigenvalues: tuple


def expansion_eigenbasis(A, tol=DEFAULT_TOL):
    """Eigenbasis of the symmetric part, with A re-expressed as diag(D) + S.

    D is sorted descending; repeated eigenvalues by the descending lexicographic
    order of the (sign-fixed) eigenvectors, so unit vectors keep index order.
    In the returned basis S[q, p] equals half the trace of the (p, q) rotation
    form for p < q.
    """
    M = _shared(A, tol)
    if M.sym_zero:
        raise InputError("expansion form is zero (pure skew matrix); use skew_canonical_basis")
    P, D, S = M.split
    return DSSplit(basis=P.copy(), D=D.copy(), S=S.copy())


def skew_canonical_basis(A, tol=DEFAULT_TOL):
    """Orthonormal basis reducing the skew part to rotation blocks.

    Returns blocks ordered by descending rotation rate lambda > 0; in that
    basis the skew part equals -sum lambda_k [R_(k, k+1)] over odd k, and each
    lambda equals minus half the trace of the matching rotation form.
    Each rate, a positive eigenvalue of i X, X = K / max|K| (the record's skew_eigen), spans
    the plane sqrt(2) Im z, sqrt(2) Re z of its eigenvector z; rates r <= n rank_tol are cut,
    smallest first, while sqrt(2 sum r^2) stays within the certificate's eig_off_tol ||X||_F.
    One complete QR of the planes, whose trailing columns are the kernel, keeps P orthogonal.
    """
    M = _shared(A, tol)
    if M.skew_zero:
        raise InputError("skew part is zero (symmetric matrix); use expansion_eigenbasis")
    s, X, w, Z = M.skew_eigen
    bound = tol.eig_off_tol * float(np.linalg.norm(X))
    cut_norm = np.hypot.accumulate(np.where(w > M.n * tol.rank_tol, np.inf, np.maximum(w, 0.0)))
    Z = Z[:, cut_norm.searchsorted(bound / np.sqrt(2.0), side="right"):][:, ::-1]
    m = Z.shape[1]
    planes = np.sqrt(2.0) * np.stack([Z.imag, Z.real], axis=2).reshape(M.n, 2 * m)
    P, R = np.linalg.qr(planes, mode="complete")
    P[:, : 2 * m] *= np.where(np.diag(R) < 0.0, -1.0, 1.0)
    C = P.T @ X @ P
    k = np.arange(0, 2 * m, 2)
    lambdas = C[k, k + 1]
    C[k, k + 1] -= lambdas
    C[k + 1, k] += lambdas
    off = float(np.linalg.norm(C))
    if off > bound:
        raise NumericalError(f"skew block certificate failed: residual {off:.3e}", residual=off)
    return SkewBlockForm(basis=P, lambdas=tuple(map(float, s * lambdas)), zero_dim=M.n - 2 * m)


def normality_report(A, tol=DEFAULT_TOL):
    """Normality via the diagonal-plus-skew split: A is normal exactly when
    D and S commute, i.e. no skew entry couples distinct expansion eigenvalues.

    Purely symmetric or purely skew matrices short-circuit to normal.
    """
    M = _shared(A, tol)
    p = M.p  # the degree-2 commutator is judged on A / p
    scale = M.scale / p
    threshold = tol.residual_tol * (scale * scale)
    if M.sym_zero or M.skew_zero:
        eigs = () if M.sym_zero else tuple(float(x) for x in M.eigen[0][::-1])
        return NormalityReport(is_normal=True, violating_pairs=(), commutator_norm=0.0,
                               expansion_eigenvalues=eigs)
    _, w, T = M.split
    D, S = w / p, T / p
    comm = D[:, None] * S - S * D[None, :]
    comm_norm = maxabs(comm)
    K, L = _pair_index(M.n)
    hit = np.abs(comm[K, L]) > threshold
    violations = zip((K[hit] + 1).tolist(), (L[hit] + 1).tolist(),
                     _pair_entries(T)[hit].tolist(), (w[K] - w[L])[hit].tolist())
    return NormalityReport(
        is_normal=comm_norm <= threshold,
        violating_pairs=tuple(violations),
        commutator_norm=comm_norm / (scale * scale),
        expansion_eigenvalues=tuple(float(x) for x in w),
    )


def _refine_blocks(M, F):
    """Common orthonormal eigenbasis of sym(A), A the record M, and a symmetric F that
    commutes with it: the record's solve, each run of eigenvalues tied within 10 residual_tol
    max|A| turned into F's eigenbasis on that run's span."""
    w, U, tol = *M.eigen, M.tol
    blocks = []
    for a, b in ascending_runs(w, 10 * tol.residual_tol * M.scale):
        V = U[:, a:b]
        if b - a > 1:
            B = V.T @ F @ V
            V = V @ sym_eigen(0.5 * (B + B.T), tol)[1]
        blocks.append(V)
    return _sign_fix(np.hstack(blocks), tol)


def _normal_powers(M):
    """The normal route's one pass over the record M of a normal A: (P, Z, F) with Z[k] = X^k,
    k = 0..n, X = A / p, Z[n + 1] = K^2 for K the skew part of X, P the record's expansion
    solve refined by K^2 alone and F[k] = P^T sym(Z[k]) P.  H = sym(X) and K commute, so each
    sym(X^k) = sum_i C(k, 2i) H^(k - 2i) K^(2i) is a polynomial in H and K^2, and the common
    eigenbasis of those two diagonalises every power's symmetric part."""
    report = normality_report(M, M.tol)
    if not report.is_normal:
        raise InputError(f"matrix is not normal: commutator norm {report.commutator_norm:.3e}")
    K = 0.5 * (M.X - M.X.T)
    Z = matrix_powers(M.X, M.n) + [K @ K]
    P = _refine_blocks(M, Z[-1])
    return P, Z, [P.T @ (0.5 * (W + W.T)) @ P for W in Z]


def normal_power_basis(A, tol=DEFAULT_TOL):
    """Basis simultaneously diagonalising the symmetric parts of all powers
    X^k (k = 1..n) of X = A / p for a normal matrix A, with the square of the
    skew part diagonal as well: sym(A)'s eigenbasis refined by K^2 alone (_normal_powers).

    Returns (basis, checks): the off-diagonal of each power's symmetric part and of K^2, K the
    skew part of X, and [H, K^2], H = sym(X), each by _rel on the term X^k, K^2 or H K^2, so
    2^j A gives A's basis and checks bit for bit; one above residual_tol is NumericalError.
    """
    P, Z, F = _normal_powers(M := _matrix(A, tol))
    x, HK = M.scale / M.p, 0.5 * (Z[1] + Z[1].T) @ Z[-1]  # max|X|; H K^2, transposed K^2 H
    checked = np.array(F[1:] + [HK - HK.T])  # P^T sym(X^k) P, k = 1..n, P^T K^2 P, [H, K^2]
    off = np.abs(checked - checked * np.eye(M.n)).max(axis=(1, 2)).tolist()
    size = np.abs(np.array(Z[1:] + [HK])).max(axis=(1, 2)).tolist()  # of X^k, K^2 and H K^2
    degrees = {f"expansion_power_{k}": k for k in range(1, M.n + 1)}
    degrees.update(skew_square=2, power_commutator_max=3)
    checks = {key: _rel(v, [s], x, d) for (key, d), v, s in zip(degrees.items(), off, size)}
    for key, value in checks.items():
        if value > tol.residual_tol:
            raise NumericalError(f"check {key} = {value:.3e} exceeds residual_tol", residual=value)
    return P, checks
