"""Trace and determinant identities relating a matrix to its expansion and
rotation forms.

Every *_residual function returns a residual that an exact identity would
make zero, over max(max|term|, max|A|^d) for an identity of degree d in A;
the test suite and the CLI report them.  The identity terms come from
closed forms of the forms rather than from built form matrices:
the (k, l) rotation form of M has trace M[l,k] - M[k,l] and value
rotation_values(M, u) at u, the expansion form has trace tr M and value
u.Mu, and pm^2 of M is (tr(M)^2 - tr(M^2)) / 2.  The test suite checks each
closed form against the form definitions.  invariant_report computes the
powers, minor sums and symmetric/skew parts of its matrix once and hands
them to every identity.

The subset determinant expansion and the diagonal-plus-skew determinant
audit live here too, as does the linear system that recovers the
characteristic-polynomial coefficients of a normal matrix from its form
eigenvalues.  The subset expansion takes each principal minor from one
pivoted LU, in stacked determinant calls over blocks of subsets, and adds
its terms in subset order; at n = 16 it costs about 0.14 s of CPU time.
The rotation power recurrence contracts its double sum over plane pairs to
one vector, so its right-hand side costs O(n^2) work per step instead of
(n(n-1)/2)^2 dot products.
"""

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb, prod

import numpy as np

from .errors import InputError, NumericalError
from .canonical import expansion_eigenbasis, normal_power_basis
from .linalg import (
    DEFAULT_TOL,
    as_square,
    as_vector,
    matrix_powers,
    maxabs,
    minor_sums_from_traces,
)
from .qforms import is_zero_part, rotation_form_matrix, rotation_traces
from .quasirot import _wedge_values, check_plane_pair, plane_pairs, reassemble, rotation_values

COLLINGS_MAX_DIM = 20  # largest n the 2^n subset expansion accepts by default
# Subsets per stacked determinant call in collings_det.  At n = 16 blocks of
# this size peak at 1.4 MB (tracemalloc); one stack per subset size peaks at
# 8.8 MB and grows the resident set by about 11 MB.
_SUBSET_BLOCK = 1024


@dataclass(frozen=True)
class InvariantReport:
    pms: tuple
    residuals: dict  # name -> relative residual
    ecs: tuple       # (theta, shear matrix, twist matrix)


class _Parts:
    """What the identities of one matrix share, each computed once: max|A|,
    the powers I, A, ..., A^top (top >= n), pm^0..pm^n from their traces,
    and the symmetric and skew parts."""

    def __init__(self, A, top=0):
        self.A = A = as_square(A)
        self.n = n = A.shape[0]
        self.scale = maxabs(A)
        self.pows = matrix_powers(A, max(n, top))
        self.traces = [float(np.trace(M)) for M in self.pows[1 : n + 1]]
        self.pm = (1.0,) + minor_sums_from_traces(self.traces)
        self.sym = 0.5 * (A + A.T)
        self.skew = 0.5 * (A - A.T)


def _parts(A, top=0):
    """The shared quantities of A; invariant_report passes its own through."""
    return A if isinstance(A, _Parts) else _Parts(A, top)


def _rel(total, terms, scale, degree):
    """|total| relative to the largest term, and at least to scale^degree for
    an identity of that degree in a matrix with max|A| = scale.  The power is
    a product, so scaling A by a power of two scales it exactly."""
    denom = max(max((abs(t) for t in terms), default=0.0), prod([scale] * degree))
    return abs(total) / denom if denom else 0.0


def _pm2(M):
    """Second minor sum (tr(M)^2 - tr(M^2)) / 2; bit-identical to
    principal_minor_sums(M)[1]."""
    t = float(np.trace(M))
    return (t * t - float(np.trace(M @ M))) / 2


def _unit(u, name="vector"):
    u = as_vector(u, name)
    nu = float(np.linalg.norm(u))
    if abs(nu - 1.0) > DEFAULT_TOL.residual_tol / 10:
        raise InputError(f"{name} must be unit length: norm = {nu:.12g}")
    return u


def newton_residuals(A):
    """Relative residual of the k-th trace identity, k = 1..n.

    tr(A^k) - pm1 tr(A^(k-1)) + ... + (-1)^(k-1) pm^(k-1) tr(A) + (-1)^k n pm^k
    must equal (n-k)(-1)^k pm^k.
    """
    s = _parts(A)
    n, pm, traces = s.n, s.pm, s.traces
    out = []
    for k in range(1, n + 1):
        terms = [traces[k - 1]]
        for j in range(1, k):
            terms.append((-1.0) ** j * pm[j] * traces[k - j - 1])
        terms.append((-1.0) ** k * pm[k] * n)
        rhs = (n - k) * (-1.0) ** k * pm[k]
        out.append(_rel(sum(terms) - rhs, terms + [rhs], s.scale, k))
    return out


def cayley_hamilton_residual(A, u, v):
    """The characteristic polynomial annihilates A, probed against unit u, v:
    sum over k of (-1)^k pm^k (A^(n-k) u).v, relative to the term sizes."""
    s = _parts(A)
    n, pm = s.n, s.pm
    u = _unit(u, "u")
    v = _unit(v, "v")
    if len(u) != n or len(v) != n:
        raise InputError("probe vectors must match the matrix dimension")
    terms = [(-1.0) ** k * pm[k] * float((s.pows[n - k] @ u) @ v) for k in range(n + 1)]
    return _rel(sum(terms), terms, s.scale, n)


def ch_form_residuals(A, u):
    """Characteristic-polynomial identities for the expansion and rotation
    forms of the powers of A, evaluated at a unit vector.

    Returns (expansion residual, {pair: rotation residual}).
    """
    s = _parts(A)
    n, pm = s.n, s.pm
    u = _unit(u, "u")
    if len(u) != n:
        raise InputError("probe vector must match the matrix dimension")
    e_terms = [(-1.0) ** k * pm[k] * float(u @ (s.pows[n - k] @ u)) for k in range(n + 1)]
    expansion_residual = _rel(sum(e_terms), e_terms, s.scale, n)
    values = [rotation_values(s.pows[n - k], u) for k in range(n)]
    rotation_residuals = {}
    for pair in plane_pairs(n):
        r_terms = [(-1.0) ** k * pm[k] * values[k][pair] for k in range(n)]
        rotation_residuals[pair] = _rel(sum(r_terms), r_terms, s.scale, n)
    return expansion_residual, rotation_residuals


def ch_trace_residuals(A):
    """Trace versions of the form identities: the expansion line gains an
    n * det term, the rotation lines close without one."""
    s = _parts(A)
    n, pm = s.n, s.pm
    e_terms = [(-1.0) ** k * pm[k] * s.traces[n - k - 1] for k in range(n)]
    e_terms.append((-1.0) ** n * n * pm[n])
    expansion_residual = _rel(sum(e_terms), e_terms, s.scale, n)
    traces = [rotation_traces(s.pows[n - k]) for k in range(n)]
    rotation_residuals = {}
    for pair in plane_pairs(n):
        r_terms = [(-1.0) ** k * pm[k] * traces[k][pair] for k in range(n)]
        rotation_residuals[pair] = _rel(sum(r_terms), r_terms, s.scale, n)
    return expansion_residual, rotation_residuals


def pm2_identity_residual(A):
    """pm^2 of A equals pm^2 of the expansion form plus a quarter of the
    summed squared rotation-form traces."""
    s = _parts(A)
    if s.n < 2:
        raise InputError("the second minor sum needs n >= 2")
    pm2 = s.pm[2]
    pm2_sym = _pm2(s.sym)
    trace_sq = sum(t ** 2 for t in rotation_traces(s.A).values())
    rhs = pm2_sym + 0.25 * trace_sq
    return _rel(pm2 - rhs, [pm2, pm2_sym, 0.25 * trace_sq], s.scale, 2)


def pm2_sym_skew_residual(A):
    """pm^2 splits across the symmetric and skew parts."""
    s = _parts(A)
    if s.n < 2:
        raise InputError("the second minor sum needs n >= 2")
    pm2 = s.pm[2]
    pm2_sym = _pm2(s.sym)
    pm2_skew = _pm2(s.skew)
    return _rel(pm2 - pm2_sym - pm2_skew, [pm2, pm2_sym, pm2_skew], s.scale, 2)


def gram_trace_identity_residual(A):
    """n tr(A A^T) against the rotation/expansion invariants, both printed
    forms; returns the larger of the two relative residuals."""
    s = _parts(A)
    A, n = s.A, s.n
    lhs = n * float(np.sum(A * A))
    tr_e = float(np.trace(A))  # equals tr of the expansion form exactly
    rot_sq = 0.0
    pm2_rot = 0.0
    for pair in plane_pairs(n):
        M = rotation_form_matrix(A, pair)
        rot_sq += float(np.trace(M @ M))
        pm2_rot += _pm2(M)
    trace_sq = sum(t ** 2 for t in rotation_traces(A).values())
    first = _rel(lhs - 2.0 * rot_sq - tr_e**2, [lhs, 2.0 * rot_sq, tr_e**2], s.scale, 2)
    if n < 2:
        return first
    terms = [lhs, 4.0 * pm2_rot, 2.0 * trace_sq, tr_e**2]
    second = _rel(lhs - (-4.0 * pm2_rot + 2.0 * trace_sq + tr_e**2), terms, s.scale, 2)
    return max(first, second)


def euler_cauchy_stokes(A):
    """Unique split into mean expansion, traceless shear and twist:
    A = (theta/n) I + Sigma + Omega."""
    s = _parts(A)
    theta = float(np.trace(s.A))
    sigma = s.sym - (theta / s.n) * np.eye(s.n)
    return theta, sigma, s.skew


def collings_det(Dd, B, max_dim=COLLINGS_MAX_DIM):
    """det(D + B) for diagonal D as a sum over all index subsets theta of
    det(B[theta, theta]) times the product of d over the complement of theta.

    Cost 2^n; guarded at n <= max_dim.  Subsets run by size, then
    lexicographically, in blocks of _SUBSET_BLOCK: each block's principal
    minors come from one stacked np.linalg.det call (one LU each) and its
    terms are added to the running total one at a time, in subset order.
    """
    Dd = as_square(Dd, "diagonal matrix")
    B = as_square(B)
    n = Dd.shape[0]
    if B.shape[0] != n:
        raise InputError("matrices must share a dimension")
    off = Dd - np.diag(np.diag(Dd))
    if maxabs(off) > DEFAULT_TOL.rank_tol * maxabs(Dd):
        raise InputError("first argument must be diagonal")
    if n > max_dim:
        raise InputError(f"subset expansion is 2^n; refusing n = {n} > {max_dim}")
    d = np.diag(Dd)
    total = 0.0
    for size in range(n + 1):
        subsets = combinations(range(n), size)
        remaining = comb(n, size)
        while remaining:
            count = min(remaining, _SUBSET_BLOCK)
            remaining -= count
            th = np.fromiter(
                chain.from_iterable(islice(subsets, count)), np.intp, count * size
            ).reshape(count, size)
            minors = np.linalg.det(B[th[:, :, None], th[:, None, :]])
            inside = np.zeros((count, n), dtype=bool)
            inside[np.arange(count)[:, None], th] = True
            d_parts = np.prod(np.where(inside, 1.0, d), axis=1)
            total = float(np.cumsum(np.concatenate(([total], d_parts * minors)))[-1])
    return total


def n4_det_identity_residual(A):
    """Audit of the six-term determinant identity for the diagonal-plus-skew
    split of a 4x4 matrix; the relative residual is reported, not asserted."""
    s = _parts(A)
    if s.n != 4:
        raise InputError("this determinant audit is specific to 4x4 matrices")
    if is_zero_part(s.sym, s.A):
        D = np.zeros((4, 4))
        S = s.skew
    else:
        split = expansion_eigenbasis(s.A)
        D = np.diag(split.D)
        S = split.S
    det_a = s.pm[4]
    rhs = (
        float(np.prod(np.diag(D)))
        + float(np.linalg.det(S))
        - float(np.trace(D @ D @ S @ S))
        - 0.5 * float(np.trace(S @ D @ S @ D))
        + float(np.trace(S @ D @ S)) * float(np.trace(D))
        + _pm2(D) * _pm2(S)
    )
    return _rel(det_a - rhs, [det_a], s.scale, 4)


def normal_invariant_recover(A, tol=DEFAULT_TOL):
    """Recover the minor sums pm^1..pm^n of a normal, non-symmetric matrix
    from the eigenvalues of its power expansion forms and the skew entries.

    Assembles one equation per basis direction from the diagonalised power
    forms plus one per coupled plane from the skew closed form, solves by
    least squares, and returns (pm estimates, system rank).  The system is
    built for A / max|A|, whose minor sums pm^k are then scaled by max|A|^k:
    the columns of A's own system scale as max|A|^1..max|A|^n.  Rank below
    n raises NumericalError with the assembled system attached.
    """
    A = as_square(A)
    n = A.shape[0]
    if is_zero_part(0.5 * (A - A.T), A, tol):
        raise InputError("matrix is symmetric; the power system degenerates")
    scale = maxabs(A)
    A = A / scale
    P, _checks = normal_power_basis(A, tol)

    pows = matrix_powers(A, n)
    diag_powers = []  # diag_powers[p][i] = eigenvalue of the p-th power form
    for p in range(n + 1):
        M = P.T @ (0.5 * (pows[p] + pows[p].T)) @ P
        diag_powers.append(np.diag(M).copy())
    B = P.T @ A @ P
    S = 0.5 * (B - B.T)
    S2 = S @ S
    lam_e = diag_powers[1]

    rows = []
    rhs = []
    for i in range(n):
        row = [(-1.0) ** k * diag_powers[n - k][i] for k in range(1, n + 1)]
        rows.append(row)
        rhs.append(-diag_powers[n][i])

    for k in range(n):
        for l in range(k + 1, n):
            if abs(S[l, k]) <= tol.residual_tol / 10:
                continue
            c = [0.0] * (n + 1)  # c[p] for p = 1..n
            for p in range(1, n + 1):
                acc = 0.0
                for m in range(p):
                    if (p - m) % 2 == 1:
                        acc += (
                            comb(p, p - m)
                            * lam_e[l] ** m
                            * S2[l, l] ** ((p - m - 1) // 2)
                        )
                c[p] = acc
            row = [0.0] * n
            for j in range(1, n):
                row[j - 1] = (-1.0) ** j * c[n - j]
            rows.append(row)
            rhs.append(-c[n])

    M = np.array(rows)
    b = np.array(rhs)
    norms = np.linalg.norm(np.column_stack([M, b]), axis=1)
    norms[norms == 0.0] = 1.0
    M_scaled = M / norms[:, None]
    b_scaled = b / norms
    rank = int(np.linalg.matrix_rank(M_scaled))
    if rank < n:
        raise NumericalError(
            f"power system is rank deficient: rank {rank} < {n}",
            system=(M, b),
        )
    solution, *_ = np.linalg.lstsq(M_scaled, b_scaled, rcond=None)
    return tuple(float(x) * scale**k for k, x in enumerate(solution, start=1)), rank


def power_form_step(A, m, u):
    """One step of the power recurrences for the expansion and rotation forms.

    Returns (lhs_e, rhs_e, lhs_r, rhs_r): the expansion form of A^(m+1) at
    unit u against its recurrence value, and per-pair rotation forms of
    A^(m+1) against theirs.
    """
    s = _parts(A, m + 1)
    A, n, pows = s.A, s.n, s.pows
    if m < 1:
        raise InputError("power step needs m >= 1")
    u = _unit(u, "u")
    if len(u) != n:
        raise InputError("probe vector must match the matrix dimension")
    e_m = float(u @ (pows[m] @ u))
    e_1 = float(u @ (A @ u))
    r_m = rotation_values(pows[m], u)
    r_T = rotation_values(A.T, u)
    lhs_e = float(u @ (pows[m + 1] @ u))
    rhs_e = e_m * e_1 + sum(r_m[pair] * r_T[pair] for pair in plane_pairs(n))

    # The sum over kl of r_m[kl] (A R_kl u).(R_pq u) is (A w).(R_pq u) with
    # w = sum r_m[kl] R_kl u.  w must come from the coefficients r_m: taking
    # it as A^m u - e_m u would make the recurrence hold by construction.
    r_1 = rotation_values(A, u)
    lhs_r = rotation_values(pows[m + 1], u)
    cross = _wedge_values(u, A @ reassemble(0.0, r_m, u))
    rhs_r = {pq: e_m * r_1[pq] + cross[pq] for pq in plane_pairs(n)}
    return lhs_e, rhs_e, lhs_r, rhs_r


def diagonal_rotation_recursion(A, m, pq):
    """The basis-direction specialisation of the rotation recurrence.

    For u = b_p the cross terms collapse onto four sums over single planes;
    returns (lhs, rhs) for the (p, q) rotation form of A^(m+1) at b_p.
    """
    A = as_square(A)
    n = A.shape[0]
    p, q = check_plane_pair(n, pq)
    pows = matrix_powers(A, m + 1)
    b = np.eye(n)  # b[i - 1] is the basis vector b_i
    r_m = rotation_values(pows[m], b[p - 1])
    lhs = rotation_values(pows[m + 1], b[p - 1])[(p, q)]
    rhs = pows[m][p - 1, p - 1] * rotation_values(A, b[p - 1])[(p, q)]
    rhs += r_m[(p, q)] * A[q - 1, q - 1]
    for l in range(p + 1, q):
        rhs += r_m[(p, l)] * rotation_values(A, b[l - 1])[(l, q)]
    for l in range(q + 1, n + 1):
        rhs -= r_m[(p, l)] * rotation_values(A, b[l - 1])[(q, l)]
    for k in range(1, p):
        rhs -= r_m[(k, p)] * rotation_values(A, b[k - 1])[(k, q)]
    return lhs, rhs


def invariant_report(A, seed=0, power_steps=3):
    """All identity residuals for one matrix, with seeded probe vectors."""
    s = _Parts(A, power_steps + 1)
    n = s.n
    rng = np.random.default_rng(seed)

    def unit_sample():
        while True:
            v = rng.standard_normal(n)
            norm = float(np.linalg.norm(v))
            if norm > 1e-6:
                return v / norm

    u = unit_sample()
    v = unit_sample()
    residuals = {}
    for k, value in enumerate(newton_residuals(s), start=1):
        residuals[f"newton_{k}"] = value
    residuals["ch_vector"] = cayley_hamilton_residual(s, u, v)
    e_res, r_res = ch_form_residuals(s, u)
    residuals["ch_expansion"] = e_res
    for (k, l), value in r_res.items():
        residuals[f"ch_rotation_{k}_{l}"] = value
    e_res, r_res = ch_trace_residuals(s)
    residuals["tr_ch_expansion"] = e_res
    for (k, l), value in r_res.items():
        residuals[f"tr_ch_rotation_{k}_{l}"] = value
    if n >= 2:
        residuals["pm2"] = pm2_identity_residual(s)
        residuals["pm2_sym_skew"] = pm2_sym_skew_residual(s)
    residuals["gram_trace"] = gram_trace_identity_residual(s)
    for m in range(1, power_steps + 1):
        lhs_e, rhs_e, lhs_r, rhs_r = power_form_step(s, m, u)
        residuals[f"power_expansion_{m}"] = _rel(lhs_e - rhs_e, [lhs_e, rhs_e], s.scale, m + 1)
        residuals[f"power_rotation_{m}"] = max(
            (_rel(lhs_r[p] - rhs_r[p], [lhs_r[p], rhs_r[p]], s.scale, m + 1) for p in lhs_r),
            default=0.0,
        )
    if n == 4:
        residuals["n4_det"] = n4_det_identity_residual(s)
    return InvariantReport(
        pms=s.pm[1:],
        residuals=residuals,
        ecs=euler_cauchy_stokes(s),
    )
