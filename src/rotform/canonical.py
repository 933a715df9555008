"""Canonical orthonormal bases attached to a matrix and normality analysis.

Two bases matter here: the eigenbasis of the symmetric part, in which the
matrix splits into a diagonal D plus a skew S whose entries are half the
rotation-form traces, and the block basis of the skew part, in which the skew
part becomes 2x2 rotation blocks plus a kernel.  Each comes from one LAPACK
eigen-solve that the matrix record keeps: eigh of the symmetric part, and eigh
of the Hermitian i K / max|K| for the skew part K, whose eigenvectors' real and
imaginary parts span the rotation planes; the trailing columns of one complete
QR of the planes span the kernel.  Neither squares the matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .linalg import DEFAULT_TOL, ascending_runs, matrix_powers, maxabs
from .linalg import _matrix, _shared, _sign_fix, sym_eigen
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


def _refine_blocks(M, family):
    """Common orthonormal eigenbasis of sym(A), A the record M, and a commuting
    family of symmetric matrices: the record's solve, refined eigenspace by eigenspace."""
    w, U, tol = *M.eigen, M.tol
    blocks = [U[:, a:b] for a, b in ascending_runs(w, 10 * tol.residual_tol * maxabs(M.sym))]
    for F in family:
        thr = 10 * tol.residual_tol * maxabs(F)
        new_blocks = []
        for V in blocks:
            if V.shape[1] == 1:
                new_blocks.append(V)
                continue
            B = V.T @ F @ V
            w, U = sym_eigen(0.5 * (B + B.T), tol)
            new_blocks.extend(V @ U[:, a:b] for a, b in ascending_runs(w, thr))
        blocks = new_blocks
    return _sign_fix(np.hstack(blocks), tol)


def normal_power_basis(A, tol=DEFAULT_TOL):
    """Basis simultaneously diagonalising the symmetric parts of all powers
    X^k (k = 1..n) of X = A / p for a normal matrix A, with the square of the
    skew part diagonal as well.

    Returns (basis, checks): the off-diagonal residual per power and of K^2,
    K the skew part of X, and the largest commutator norm among the symmetric
    power parts, all measured on X, so 2^j A gives A's basis and checks bit for bit.
    """
    M = _matrix(A, tol)
    report = normality_report(M, tol)
    if not report.is_normal:
        raise InputError(
            f"matrix is not normal: commutator norm {report.commutator_norm:.3e}"
        )
    K = 0.5 * (M.X - M.X.T)
    sym_powers = [0.5 * (Y + Y.T) for Y in matrix_powers(M.X, M.n)[1:]]
    K2 = K @ K
    P = _refine_blocks(M, sym_powers[1:] + [K2])

    checks = {}
    comm_max = 0.0
    for p, Mp in enumerate(sym_powers, start=1):
        checks[f"expansion_power_{p}"] = _offdiag_max(P.T @ Mp @ P)
        for Mq in sym_powers[p:]:
            comm_max = max(comm_max, maxabs(Mp @ Mq - Mq @ Mp))
    checks["skew_square"] = _offdiag_max(P.T @ K2 @ P)
    checks["power_commutator_max"] = float(comm_max)
    return P, checks


def _offdiag_max(M):
    off = M - np.diag(np.diag(M))
    return float(maxabs(off))
