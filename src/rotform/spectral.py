"""Eigenstructure through the rotation forms.

A direction is an eigenvector exactly when every rotation form vanishes on
it, and the dimension of a maximal common-zero subspace is the geometric
multiplicity of the matching eigenvalue.  Eigenspaces are constructed from
nullspaces and then verified against that common-zero criterion; any
disagreement is flagged rather than silently accepted.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .linalg import (
    DEFAULT_TOL,
    as_square,
    as_vector,
    maxabs,
    nullspace,
    real_spectrum,
    sym_eigen,
)
from .qforms import (
    ZERO_FORM_REL,
    evaluate,
    expansion_form,
    is_zero_part,
    rotation_form,
    rotation_values,
)


@dataclass(frozen=True)
class SpectralEntry:
    value: float
    geometric_multiplicity: int
    eigenspace: tuple            # orthonormal vectors
    rotation_residual: float     # max |rotation form| over the eigenspace basis


@dataclass(frozen=True)
class SpectralReport:
    entries: tuple
    complex_pairs: tuple
    bromwich: tuple              # (nu, N, mu, M)
    flags: tuple                 # tolerance failures, empty when clean


@dataclass(frozen=True)
class PlanarReport:
    """Complete two-dimensional classification.

    zero_count counts the zeros of the rotation form on a half-turn of
    directions: 0 (complex pair), 1 (repeated eigenvalue, one eigendirection),
    2 (real distinct), or infinity (pure expansion).
    """

    eigs: tuple                  # two python complex numbers
    classification: str
    zero_count: float            # 0, 1, 2 or math.inf
    rep_in_u_basis: np.ndarray   # 2x2 representation in the (u, u-perp) frame, or None
    expansion_eigs: tuple
    rotation_eigs: tuple
    borderline: bool


def common_zero_check(A, u, tol=None):
    """True when every rotation form vanishes on u within tol.

    tol is an absolute bound on the form values at the unit direction; by
    default it is 1e-9 * max(1, max|A|).  Equivalent to A(u-hat) having no
    component orthogonal to u-hat beyond the same tolerance.
    """
    A = as_square(A)
    u = as_vector(u)
    nu = float(np.linalg.norm(u))
    if nu == 0.0:
        raise InputError("cannot test the zero vector for common zeros")
    if tol is None:
        tol = DEFAULT_TOL.residual_tol * max(1.0, maxabs(A))
    uhat = u / nu
    values = rotation_values(A, uhat)
    return max(abs(v) for v in values.values()) <= tol if values else True


def bromwich_bounds(A, tol=DEFAULT_TOL):
    """(nu, N, mu, M): eigenvalue real parts lie in [nu, N] (extremes of the
    expansion form), imaginary parts in [mu, M] (extreme rotation rates of the
    skew part, zero for symmetric input).

    The top rotation rate is |K v| for v the top right singular vector of
    the skew part K, found as in the first step of skew_canonical_basis.
    """
    A = as_square(A)
    w, _ = sym_eigen(0.5 * (A + A.T), tol)
    nu, N = float(w[0]), float(w[-1])
    K = 0.5 * (A - A.T)
    if is_zero_part(K, A):
        return (nu, N, 0.0, 0.0)
    w, V = sym_eigen(K.T @ K, tol)
    v = V[:, int(np.argmax(np.sqrt(np.clip(w, 0.0, None))))]
    top = float(np.linalg.norm(K @ v))
    return (nu, N, -top, top)


def eigenstructure(A, tol=DEFAULT_TOL):
    """Real eigenvalues with geometric multiplicities from common zeros.

    Each eigenspace comes from the nullspace of A - lambda I and every basis
    vector is re-checked against the rotation forms; failures are reported in
    flags.  Complex pairs and the containment bounds ride along.
    """
    A = as_square(A)
    n = A.shape[0]
    spectrum = real_spectrum(A, tol)
    scale = maxabs(A)
    cz_tol = tol.residual_tol * scale
    entries = []
    flags = []
    for lam, _mult in spectrum.real_eigs:
        shifted = A - lam * np.eye(n)
        threshold = max(n * tol.rank_tol * maxabs(shifted), 1e-8 * scale)
        basis = nullspace(shifted, tol, abs_threshold=threshold)
        if not basis:
            flags.append(
                f"no eigenvector found at reported eigenvalue {lam:.12g} "
                f"(rank threshold {threshold:.3e})"
            )
        residual = 0.0
        for vec in basis:
            values = rotation_values(A, vec)
            vec_res = max(abs(v) for v in values.values()) if values else 0.0
            residual = max(residual, vec_res)
            if vec_res > cz_tol:
                flags.append(
                    f"eigenvector of {lam:.12g} fails the common-zero check: "
                    f"rotation residual {vec_res:.3e} exceeds {cz_tol:.3e}"
                )
        entries.append(
            SpectralEntry(
                value=float(lam),
                geometric_multiplicity=len(basis),
                eigenspace=tuple(basis),
                rotation_residual=float(residual),
            )
        )
    if n % 2 == 1 and not entries:
        raise NumericalError("odd dimension must produce at least one real eigenvalue")
    return SpectralReport(
        entries=tuple(entries),
        complex_pairs=spectrum.complex_pairs,
        bromwich=bromwich_bounds(A, tol),
        flags=tuple(flags),
    )


def planar_analyze(A, u=None, tol=DEFAULT_TOL):
    """Full planar theory for a 2x2 matrix.

    Eigenvalues are mean-expansion plus/minus sqrt(-product of the rotation
    form eigenvalues); the sign pattern of those two rotation eigenvalues
    yields the zero count and the classification.  With u supplied, the 2x2
    representation in the (u-hat, u-hat-perp) frame is included.
    """
    A = as_square(A)
    if A.shape[0] != 2:
        raise InputError(f"planar analysis needs a 2x2 matrix, got {A.shape[0]}x{A.shape[0]}")
    scale = max(1.0, maxabs(A))
    e_form = expansion_form(A)
    r_form = rotation_form(A, (1, 2))
    we, _ = sym_eigen(e_form.matrix, tol)
    wr, _ = sym_eigen(r_form.matrix, tol)
    mean = 0.5 * (we[0] + we[1])
    product = float(wr[0] * wr[1])
    zero_eig = ZERO_FORM_REL * scale
    z1 = abs(wr[0]) <= zero_eig
    z2 = abs(wr[1]) <= zero_eig
    borderline = (not z1 and not z2) and abs(product) <= 1e-12 * scale * scale

    if z1 and z2:
        zero_count = math.inf
        classification = "repeated-gm2"
        eigs = (complex(mean), complex(mean))
    elif z1 != z2:
        zero_count = 1.0
        classification = "repeated-gm1"
        eigs = (complex(mean), complex(mean))
    elif borderline:
        zero_count = 1.0
        classification = "repeated-gm1"
        eigs = (complex(mean), complex(mean))
    elif product < 0.0:
        zero_count = 2.0
        classification = "real-distinct"
        root = math.sqrt(-product)
        eigs = (complex(mean - root), complex(mean + root))
    else:
        zero_count = 0.0
        classification = "complex"
        root = math.sqrt(product)
        eigs = (complex(mean, -root), complex(mean, root))

    rep = None
    if u is not None:
        u = as_vector(u)
        if len(u) != 2:
            raise InputError("direction for the planar frame must be two-dimensional")
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            raise InputError("direction for the planar frame must be non-zero")
        uhat = u / nu
        uperp = np.array([-uhat[1], uhat[0]])
        rep = np.array(
            [
                [evaluate(e_form, uhat), -evaluate(r_form, uperp)],
                [evaluate(r_form, uhat), evaluate(e_form, uperp)],
            ]
        )
    return PlanarReport(
        eigs=eigs,
        classification=classification,
        zero_count=zero_count,
        rep_in_u_basis=rep,
        expansion_eigs=(float(we[0]), float(we[1])),
        rotation_eigs=(float(wr[0]), float(wr[1])),
        borderline=borderline,
    )


def skew_square_structure(A, tol=DEFAULT_TOL, skew_tol=1e-10):
    """Eigenspaces of the square of a skew matrix, each invariant under the
    matrix itself; returns (eigenvalue, orthonormal basis, invariance residual)
    triples ordered by ascending eigenvalue."""
    A = as_square(A)
    gap = maxabs(A + A.T)
    if gap > skew_tol * max(maxabs(A), 1e-300):
        raise InputError(f"matrix is not skew-symmetric: max|A + A^T| = {gap:.3e}")
    A2 = A @ A
    w, V = sym_eigen(A2, tol)
    n = A.shape[0]
    cluster_tol = 1e-8 * max(1.0, float(np.max(np.abs(w))) if n else 1.0)
    out = []
    start = 0
    for i in range(1, n + 1):
        if i == n or w[i] - w[start] > cluster_tol:
            block = V[:, start:i]
            proj = block @ block.T
            residual = 0.0
            for j in range(block.shape[1]):
                image = A @ block[:, j]
                residual = max(residual, float(np.linalg.norm(image - proj @ image)))
            out.append((float(np.mean(w[start:i])), block, residual))
            start = i
    return out
