"""Eigenstructure through the rotation forms.

A direction is an eigenvector exactly when every rotation form vanishes on
it, and the dimension of a maximal common-zero subspace is the geometric
multiplicity of the matching eigenvalue.  Each eigenspace is the one
real_spectrum certified its eigenvalue with, verified against that
common-zero criterion, and any disagreement is flagged rather than silently
accepted.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .canonical import SkewBlockForm, skew_canonical_basis
from .errors import InputError, NumericalError
from .linalg import (
    DEFAULT_TOL,
    _Matrix,
    _matrix,
    _shared,
    _sign_fix,
    ascending_runs,
    as_direction,
    as_skew,
    as_square,
    maxabs,
    real_spectrum,
    sym_eigen,
)
from .qforms import rotation_form_matrix
from .quasirot import _wedge


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
    default it is residual_tol * max|A| (1e-9 * max|A|), so the answer for
    c A is the one for A.  Equivalent to A(u-hat) having no component
    orthogonal to u-hat beyond the same tolerance.
    """
    A = as_square(A)
    uhat = as_direction(u, A.shape[0], "u")
    if tol is None:
        tol = DEFAULT_TOL.residual_tol * maxabs(A)
    return maxabs(_wedge(uhat, A @ uhat)) <= tol


def bromwich_bounds(A, tol=DEFAULT_TOL):
    """(nu, N, mu, M): eigenvalue real parts lie in [nu, N] (extremes of the
    expansion form), imaginary parts in [mu, M] (extreme rotation rates of the
    skew part, zero for symmetric input).

    The top rotation rate of the skew part K, its spectral norm ||K||_2, is
    max|K| times the top eigenvalue of i K / max|K| (the record's skew_eigen).
    """
    M = _shared(A, tol)
    w, _ = M.eigen
    nu, N = float(w[0]), float(w[-1])
    if M.skew_zero:
        return (nu, N, 0.0, 0.0)
    top = M.skew_eigen[0] * float(M.skew_eigen[2][-1])
    return (nu, N, -top, top)


def eigenstructure(A, tol=DEFAULT_TOL):
    """Real eigenvalues with geometric multiplicities from common zeros.

    Each eigenspace is the basis real_spectrum certified lambda with, of at
    least one vector: its residual-certified eigenvector, else the kernel from
    its SVD.  Every basis vector, signed by _sign_fix, is re-checked against
    the rotation forms; failures are reported in flags.  A geometric
    multiplicity above the algebraic one raises NumericalError.  Complex
    pairs and the containment bounds ride along.
    """
    M = _shared(A, tol)
    A, n, scale = M.A, M.n, M.scale
    spectrum = real_spectrum(M, tol)
    cz_tol = tol.residual_tol * scale
    entries, flags = [], []
    V = _sign_fix(np.reshape(sum(spectrum.real_vectors, ()), (-1, n)).T, tol).T
    # A @ vec one vector at a time: a matrix product's columns may differ in the last bit
    W = np.reshape([A @ vec for vec in V], V.shape)
    step = max(1, 32768 // (n * n))  # vectors per batch: about 2^14 wedge pairs, kept in cache
    signed = zip(V, itertools.chain.from_iterable(
        np.abs(_wedge(V[i:i + step], W[i:i + step])).max(axis=1, initial=0.0).tolist()
        for i in range(0, len(V), step)))
    for (lam, mult), basis in zip(spectrum.real_eigs, spectrum.real_vectors):
        if len(basis) > mult:
            raise NumericalError(f"eigenvalue {lam:.12g} has {len(basis)} kernel directions "
                                 f"at {n * tol.rank_tol * scale:.3e}, more than its "
                                 f"multiplicity {mult}")
        basis, residuals = zip(*(next(signed) for _ in basis))
        flags.extend(f"eigenvector of {lam:.12g} fails the common-zero check: rotation "
                     f"residual {r:.3e} exceeds {cz_tol:.3e}" for r in residuals if r > cz_tol)
        entries.append(SpectralEntry(float(lam), len(basis), basis, max(residuals, default=0.0)))
    return SpectralReport(tuple(entries), spectrum.complex_pairs, bromwich_bounds(M, tol),
                          tuple(flags))


def planar_analyze(A, u=None, tol=DEFAULT_TOL):
    """Full planar theory for a 2x2 matrix.

    Eigenvalues are mean-expansion plus/minus sqrt(-product of the rotation
    form eigenvalues); the sign pattern of those two rotation eigenvalues
    yields the zero count and the classification.  With u supplied, the 2x2
    representation in the (u-hat, u-hat-perp) frame is included.
    """
    M = _matrix(A, tol)
    if M.n != 2:
        raise InputError(f"planar analysis needs a 2x2 matrix, got {M.n}x{M.n}")
    R = rotation_form_matrix(M.A, (1, 2))
    we, _ = M.eigen
    wr, _ = sym_eigen(R, tol)
    mean = 0.5 * (we[0] + we[1])
    p = M.p  # the degree-2 product is formed on A / p
    product = float((wr[0] / p) * (wr[1] / p))
    zero_eig = tol.rank_tol * M.scale / p
    z1, z2 = (abs(x / p) <= zero_eig for x in wr)
    borderline = (not z1 and not z2) and abs(product) <= zero_eig * M.scale / p
    if z1 and z2:
        zero_count, classification, eigs = math.inf, "repeated-gm2", (complex(mean),) * 2
    elif z1 != z2 or borderline:
        zero_count, classification, eigs = 1.0, "repeated-gm1", (complex(mean),) * 2
    elif product < 0.0:
        zero_count, classification, root = 2.0, "real-distinct", math.sqrt(-product) * p
        eigs = (complex(mean - root), complex(mean + root))
    else:
        zero_count, classification, root = 0.0, "complex", math.sqrt(product) * p
        eigs = (complex(mean, -root), complex(mean, root))
    rep = None
    if u is not None:
        uhat = as_direction(u, 2, "direction for the planar frame")
        uperp = np.array([-uhat[1], uhat[0]])
        rep = np.array([[uhat @ M.sym @ uhat, -(uperp @ R @ uperp)],
                        [uhat @ R @ uhat, uperp @ M.sym @ uperp]])
    return PlanarReport(
        eigs=eigs,
        classification=classification,
        zero_count=zero_count,
        rep_in_u_basis=rep,
        expansion_eigs=(float(we[0]), float(we[1])),
        rotation_eigs=(float(wr[0]), float(wr[1])),
        borderline=borderline,
    )


def _rescaled(x, p, k, name):
    """x p^k as float products, x a value on X = A / p; NumericalError naming it when the
    product leaves the double range: not finite, or 0 or subnormal from a non-zero x."""
    value = math.prod((p,) * k, start=x)
    if not math.isfinite(value) or (x != 0.0 and abs(value) < sys.float_info.min):
        raise NumericalError(f"{name} {x:.6g} * {p:.6g}^{k} leaves the double range")
    return value


def skew_square_structure(A, tol=DEFAULT_TOL):
    """Eigenspaces of the square of a skew matrix, each invariant under the matrix itself, as
    (eigenvalue, orthonormal basis, invariance residual) by ascending eigenvalue: the planes of
    skew_canonical_basis at -r^2, r its rates on X = A / p tied within 10 residual_tol max r, then
    its kernel, with a run within that tie of 0, at 0.0; rescaled by _rescaled's rule."""
    M = _Matrix(as_skew(A, tol=tol.residual_tol / 10), tol)
    form = SkewBlockForm(np.eye(M.n), (), M.n) if M.skew_zero else skew_canonical_basis(M, tol)
    r = np.repeat(np.append(form.lambdas, 0.0) / M.p, [2] * len(form.lambdas) + [form.zero_dim])
    out, tie = [], 10 * tol.residual_tol * r[0]
    for start, stop in ascending_runs(-r, tie):
        image = M.X @ (block := form.basis[:, start:stop])
        residual = float(np.max(np.linalg.norm(image - block @ (block.T @ image), axis=0)))
        value = -float(np.mean(r[start:stop] ** 2)) if r[start] > tie else 0.0
        out.append((_rescaled(value, M.p, 2, "skew square eigenvalue"),
                    block, _rescaled(residual, M.p, 1, "invariance residual")))
    return out
