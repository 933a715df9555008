"""Expansion and rotation quadratic forms of a matrix, and the decomposition
of its action into an expansion along u plus plane rotations of u.

The expansion form of A evaluates to A(u).u; the rotation form for the plane
(k, l) evaluates to A(u).R_kl(u).  Their common zeros are exactly the
eigenvectors of A, which is what the spectral module exploits.

Basis-change convention, used package-wide: the columns of P are the new
basis vectors expressed in the old basis, so representations transform as
[A]_new = P^T [A]_old P.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import (
    DEFAULT_TOL,
    _direction,
    _matrix,
    _norm,
    as_square,
    as_vector,
    check_orthogonal,
    maxabs,
    sym_eigen,
)
from .quasirot import (
    RotationCoeffs,
    _pair_entries,
    _rotation_sum,
    _wedge,
    check_plane_pair,
    coeffs_to_matrix,
    plane_pairs,
    quasi_rotation,
    rotation_change_of_basis,
)


@dataclass(frozen=True)
class QForm:
    """Symmetric matrix representation of a quadratic form."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        M = as_square(self.matrix, "form matrix")
        if M.shape[0] != self.n:
            raise InputError(f"form matrix shape {M.shape} does not match n = {self.n}")
        gap = maxabs(M - M.T)
        if gap > DEFAULT_TOL.rank_tol * maxabs(M):
            raise InputError(f"form matrix is not symmetric: max|M - M^T| = {gap:.3e}")
        object.__setattr__(self, "matrix", 0.5 * (M + M.T))


@dataclass(frozen=True)
class FormFamily:
    """Expansion form and all rotation forms of one matrix in one basis."""

    basis: np.ndarray   # columns are the working basis vectors
    expansion: QForm
    rotations: dict     # (k, l) -> QForm


@dataclass(frozen=True)
class Decomposition:
    """A(u) split into e*u plus plane-rotation terms with coefficients r."""

    u: np.ndarray
    e: float
    r: RotationCoeffs
    residual: float


def expansion_form(A):
    """Symmetric part of A, as a quadratic form: u -> A(u).u."""
    A = as_square(A)
    return QForm(A.shape[0], 0.5 * (A + A.T))


def rotation_form(A, pair):
    """Quadratic form u -> A(u).R_kl(u), the rotation of u by A in the (k, l) plane.

    Matrix representation: symmetric part of [R_kl]^T [A].  Only the k and l
    rows and columns can be non-zero.
    """
    A = as_square(A)
    return QForm(A.shape[0], rotation_form_matrix(A, pair))


def rotation_form_matrix(A, pair):
    """The symmetric matrix of rotation_form(A, pair), without a QForm."""
    n = A.shape[0]
    k, l = check_plane_pair(n, pair)
    X = np.zeros((n, n))
    X[k - 1, :] = A[l - 1, :]
    X[l - 1, :] = -A[k - 1, :]
    return 0.5 * (X + X.T)


def rotation_traces(A):
    """Trace of every rotation form of a checked square A, keyed by plane pair: A[l,k] - A[k,l]."""
    return dict(zip(plane_pairs(A.shape[0]), _pair_entries(A).tolist()))


def evaluate(q, u):
    u = as_vector(u)
    if len(u) != q.n:
        raise InputError(f"dimension mismatch: form is {q.n}-dimensional, vector is {len(u)}")
    return float(u @ q.matrix @ u)


def polar(q, u, v):
    """Polar form B(u, v) = u^T M v; B(u, u) recovers the quadratic form."""
    u = as_vector(u)
    v = as_vector(v)
    if len(u) != q.n or len(v) != q.n:
        raise InputError(f"dimension mismatch: form is {q.n}-dimensional")
    return float(u @ q.matrix @ v)


def zero_subspace_extend(q, W, w, tol=DEFAULT_TOL):
    """Whether adjoining w to the zero set W keeps the span zero-valued.

    Every vector of W and w itself must already be zeros of the form; the
    answer is True exactly when the polar form of w against each member of W
    vanishes.
    """
    w = as_vector(w, "candidate vector")
    bound = tol.residual_tol * maxabs(q.matrix)

    def _require_zero(x, label):
        value = evaluate(q, x)
        nx = float(np.linalg.norm(x))
        if abs(value) > bound * nx * nx:
            raise InputError(f"{label} is not a zero of the form: |Q(v)| = {abs(value):.3e}")

    basis = [as_vector(x, f"W[{i}]") for i, x in enumerate(W)]
    for i, x in enumerate(basis):
        _require_zero(x, f"W[{i}]")
    _require_zero(w, "candidate vector")

    nw = float(np.linalg.norm(w))
    for x in basis:
        nx = float(np.linalg.norm(x))
        if abs(polar(q, w, x)) > bound * nw * nx:
            return False
    return True


def form_average(q):
    """Mean value of the form over the unit sphere: tr(M)/n."""
    return float(np.trace(q.matrix)) / q.n


def form_extremes(q, tol=DEFAULT_TOL):
    """(min, max, argmin, argmax) of the form on the unit sphere."""
    w, P = sym_eigen(q.matrix, tol)
    return float(w[0]), float(w[-1]), P[:, 0].copy(), P[:, -1].copy()


def decompose(A, u):
    """Split A(u) into expansion and rotation parts evaluated at u-hat.

    A(u) = e*u + sum r(k,l) R_kl(u) with e the expansion of the unit direction
    and r the rotation-form values there; the stored residual is the relative
    reconstruction error (absolute when A(u) = 0), all formed on the record's
    X = A / p and scaled back by p, so no norm under- or overflows.
    """
    M = _matrix(A)
    u, e, r, residual, _ = _decompose(M, u)
    r = RotationCoeffs(M.n, dict(zip(plane_pairs(M.n), r.tolist())))
    return Decomposition(u=u.copy(), e=e, r=r, residual=residual)


def _decompose(M, u):
    """decompose's parts for the record M: (u, e, r, residual, X u) with u the checked vector,
    e the expansion and r the rotation values in plane_pairs order, both scaled back by p,
    and X u on the record's X = A / p."""
    u, uhat = _direction(u, M.n, "u")
    p, X = M.p, M.X
    Xuhat = X @ uhat
    e = float(uhat @ Xuhat)
    r = _wedge(uhat, Xuhat)  # the rotation values, in plane_pairs order
    Xu = X @ u
    err = _norm(Xu - (e * u + _rotation_sum(r, M.n) @ u))
    norm_Xu = _norm(Xu)
    residual = err / norm_Xu if norm_Xu > 0.0 else err * p
    return u, e * p, r * p, residual, Xu


def commutator_forms(A, pair):
    """Rotation form split into the symmetric-part commutator piece and the
    skew-part anti-commutator piece; they sum to rotation_form(A, pair) and the
    commutator piece is traceless."""
    M = _matrix(A)
    R = quasi_rotation(M.n, pair)
    sym_part = 0.5 * (M.sym @ R - R @ M.sym)
    skew_part = -0.5 * (M.skew @ R + R @ M.skew)
    return QForm(M.n, sym_part), QForm(M.n, skew_part)


def rotation_form_change_of_basis(A, P, pq):
    """Rotation form for the (p, q) plane of the P-basis, expressed on the
    original coordinates as a combination of the original rotation forms."""
    A = as_square(A)
    C = coeffs_to_matrix(rotation_change_of_basis(P, pq))  # P is checked there
    if C.shape[0] != A.shape[0]:
        raise InputError("basis dimension does not match the matrix")
    # The (k, l) form is sym([R_kl]^T A), so the combination is sym(C^T A).
    X = C.T @ A
    return QForm(A.shape[0], 0.5 * (X + X.T))


def rotation_trace_sum(A, P):
    """Sum over p < q of the traces of the rotation forms computed in the
    P-basis; equals -2 times the summed strict upper entries of the skew part
    in that basis.

    Zero in every basis when A is symmetric, and unchanged by proper planar
    rotations when n = 2; for n >= 3 the value genuinely depends on the basis
    (conjugation moves the all-ones skew pairing matrix), so treat it as a
    per-basis quantity.
    """
    A = as_square(A)
    P = check_orthogonal(P)
    return float(sum(rotation_traces(P.T @ A @ P).values()))


def form_family(A, basis=None):
    """All forms of A in the given orthonormal basis (identity by default)."""
    A = as_square(A)
    n = A.shape[0]
    if basis is None:
        P = np.eye(n)
        B = A
    else:
        P = check_orthogonal(basis)
        if P.shape[0] != n:
            raise InputError("basis dimension does not match the matrix")
        B = P.T @ A @ P
    rotations = {pair: rotation_form(B, pair) for pair in plane_pairs(n)}
    return FormFamily(basis=P.copy(), expansion=expansion_form(B), rotations=rotations)
