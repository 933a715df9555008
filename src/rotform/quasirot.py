"""Two-plane quasi-rotations and the expansions built on them.

A quasi-rotation of the (k, l) basis plane sends b_k -> b_l, b_l -> -b_k and
annihilates every other basis vector; it is skew and rank 2.  Plane pairs are
1-based (k, l), k < l, in lexicographic order at the public boundary; inside
the package, per-pair arrays run in that order over K, L = triu_indices(n, 1),
the 0-based pair index that only this module builds.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError
from .linalg import DEFAULT_TOL, _index, _positive, as_skew, as_unit, as_vector, check_orthogonal


def plane_pairs(n):
    """Lexicographic (k, l) pairs, 1 <= k < l <= n."""
    for k in range(1, n):
        for l in range(k + 1, n + 1):
            yield (k, l)


@lru_cache(maxsize=64)
def _pair_index(n):
    """(K, L) = triu_indices(n, 1), the plane_pairs order 0-based; read-only, as shared."""
    K, L = np.triu_indices(n, 1)
    K.flags.writeable = L.flags.writeable = False
    return K, L


def _wedge(u, W):
    """(u w^T - w u^T)[K, L] for each row w of W: the rotation values at u of a map u -> w;
    for rows u of a stack, with the matching rows of W."""
    K, L = _pair_index(u.shape[-1])
    return u[..., K] * W[..., L] - W[..., K] * u[..., L]


def _rotation_sum(c, n):
    """The skew n x n matrix sum over the plane pairs of c[kl] [R_kl], one per row of c."""
    K, L = _pair_index(n)
    M = np.zeros(c.shape[:-1] + (n, n))
    M[..., L, K] = c
    return M - M.swapaxes(-1, -2)


def _pair_entries(X):
    """X[..., L, K] - X[..., K, L]: the traces of the rotation forms of X."""
    K, L = _pair_index(X.shape[-1])
    return X[..., L, K] - X[..., K, L]


def check_plane_pair(n, pair):
    """pair as Python ints (k, l), 1 <= k < l <= n, for a pair of integers, Python's or
    numpy's but not bools; anything else is InputError."""
    message = f"plane pair must be a (k, l) index pair, got {pair!r}"
    try:
        k, l = pair
    except (TypeError, ValueError):
        raise InputError(message) from None
    k, l = _index(k, None, message), _index(l, None, message)
    if not (1 <= k < l <= n):
        raise InputError(f"invalid plane pair {pair!r} for dimension {n}: need 1 <= k < l <= n")
    return k, l


@dataclass(frozen=True)
class RotationCoeffs:
    """A real coefficient for every plane pair of dimension n."""

    n: int
    values: dict

    def __post_init__(self):
        expected = set(plane_pairs(self.n))
        got = set(self.values)
        if got != expected:
            raise InputError(
                f"coefficient domain mismatch for dimension {self.n}: "
                f"missing {sorted(expected - got)}, extra {sorted(got - expected)}"
            )

    def __getitem__(self, pair):
        k, l = check_plane_pair(self.n, pair)
        return self.values[(k, l)]

    def items(self):
        for pair in plane_pairs(self.n):
            yield pair, self.values[pair]

    def vector(self):
        return np.array([self.values[pair] for pair in plane_pairs(self.n)])

    def norm_sq(self):
        return float(sum(v * v for _, v in self.items()))


def quasi_rotation(n, pair):
    """Matrix of the quasi-rotation of the (k, l) plane: entry (l, k) = 1, (k, l) = -1."""
    k, l = check_plane_pair(n, pair)
    R = np.zeros((n, n))
    R[l - 1, k - 1] = 1.0
    R[k - 1, l - 1] = -1.0
    return R


def apply_quasi_rotation(u, pair):
    """u^k b_l - u^l b_k; orthogonal to u, zero on the complement of the plane."""
    u = as_vector(u)
    k, l = check_plane_pair(len(u), pair)
    out = np.zeros_like(u)
    out[l - 1] = u[k - 1]
    out[k - 1] = -u[l - 1]
    return out


def almost_orthogonal_expand(u, v, unit_tol=DEFAULT_TOL.residual_tol / 10):
    """Expand u over the unit vector v and its quasi-rotated images.

    Returns (c0, coeffs) with c0 = u.v and coeffs[(k, l)] = u.R_kl(v); the
    reassembly c0*v + sum coeffs*R_kl(v) reproduces u and the coefficient
    squares sum to ||u||^2.  v must already be unit within unit_tol, finite
    and > 0; nothing is normalised silently.
    """
    u = as_vector(u)
    v = as_unit(v, "expansion axis", _positive(unit_tol, "unit_tol"))
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return float(u @ v), RotationCoeffs(len(u), _wedge_values(v, u))


def _wedge_values(u, w):
    """The wedge of u and w keyed by plane pair."""
    return dict(zip(plane_pairs(len(u)), _wedge(u, w).tolist()))


def skew_rotation_coeffs(S):
    """Coefficients of a skew matrix over the quasi-rotation basis: c(k,l) = -S[k,l]."""
    S = as_skew(S, "skew matrix")
    n = S.shape[0]
    K, L = _pair_index(n)
    return RotationCoeffs(n, dict(zip(plane_pairs(n), (-S[K, L]).tolist())))


def coeffs_to_matrix(coeffs):
    """Sum of coeffs[(k,l)] * [R_kl]; always skew."""
    return _rotation_sum(coeffs.vector(), coeffs.n)


def rotation_change_of_basis(P, pq):
    """Express the quasi-rotation of the (p, q) plane of the basis given by the
    columns of P as a combination of the plane rotations of the original basis.

    c(k, l) = P^k_p P^l_q - P^k_q P^l_p, the wedge of columns p and q of P, so
    that sum c(k,l) [R_kl] equals P [R_pq] P^T.
    """
    P = check_orthogonal(P)
    n = P.shape[0]
    p, q = check_plane_pair(n, pq)
    return RotationCoeffs(n, _wedge_values(P[:, p - 1], P[:, q - 1]))
