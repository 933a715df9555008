"""Trace and determinant identities relating a matrix to its expansion and
rotation forms.

Every *_residual function returns a residual that an exact identity would
make zero, over max(max|term|, max|A|^d) for an identity of degree d in A;
the test suite and the CLI report them.  The identity terms come from
closed forms, which the test suite checks against the form definitions:
the (k, l) rotation form of M has trace M[l,k] - M[k,l] and value
(u (Mu)^T - (Mu) u^T)[k,l] at u, the expansion form has trace tr M and
value u.Mu, pm^2 of M is the sum of its 2 x 2 principal minors (_pm2),
and the (k, l) rotation form M_kl of A has tr(M_kl^2) = (|A_k|^2 + |A_l|^2
+ A[l,k]^2 + A[k,l]^2 - 2 A[k,k] A[l,l]) / 2, with A_k the k-th row of A.

The minor sums come from the spectrum (linalg.principal_minor_sums), not
the power traces, so the Newton residuals compare two independent routes.
invariant_report computes the powers, minor sums and symmetric/skew parts
of its matrix once, with the per-pair quantities as arrays over the plane
pairs (see quasirot): the rotation traces of every power once per matrix,
its rotation values once per probe vector.  Per-pair terms are summed along
the power axis in the order of the scalar identities.

The subset determinant expansion and the diagonal-plus-skew determinant
audit live here too, as does the linear system that recovers the
characteristic-polynomial coefficients of a normal matrix from its form
eigenvalues.  The subset expansion takes all principal minors from one
shared Schur-complement recursion, vectorised over the prefixes of each
length; at n = 16 it costs about 7 ms of CPU time, at n = 20 about 0.12 s.
The rotation power recurrence contracts its double sum over plane pairs to
one vector, so its right-hand side costs O(n^2) work per step.
"""

from dataclasses import dataclass
from math import comb, prod

import numpy as np

from .errors import InputError, NumericalError
from .canonical import expansion_eigenbasis, normal_power_basis
from .linalg import (
    DEFAULT_TOL,
    _pm2,
    as_square,
    as_unit,
    matrix_powers,
    maxabs,
    principal_minor_sums,
    random_unit,
)
from .qforms import is_zero_part
from .quasirot import _pair_entries, _pair_index, _rotation_sum, _wedge
from .quasirot import check_plane_pair, plane_pairs

COLLINGS_MAX_DIM = 20  # largest n the 2^n subset expansion accepts by default
# Terms per stack in collings_det: 0.6 MB peak; 2^12 runs 1.8x slower, 2^16 peaks at 2.1 MB.
_SUBSET_LEAF = 2**14


@dataclass(frozen=True)
class InvariantReport:
    pms: tuple
    residuals: dict  # name -> relative residual
    ecs: tuple       # (theta, shear matrix, twist matrix)


class _Parts:
    """What the identities of one matrix share, each computed once: max|A|,
    the powers I, A, ..., A^top (top >= n), pm^0..pm^n and (-1)^k pm^k, the
    symmetric and skew parts, the rotation traces T[p] of every power, and
    tr(M_kl^2) of every rotation form M_kl of A."""

    def __init__(self, A, top=0):
        self.A = A = as_square(A)
        self.n = n = A.shape[0]
        self.scale = maxabs(A)
        self.pows = np.array(matrix_powers(A, max(n, top)))
        self.traces = [float(np.trace(M)) for M in self.pows[1 : n + 1]]
        self.pm = (1.0,) + principal_minor_sums(A)
        self.signed = [(-1.0) ** k * self.pm[k] for k in range(n + 1)]
        self.sym = 0.5 * (A + A.T)
        self.skew = 0.5 * (A - A.T)
        self.T = _pair_entries(self.pows)
        self.trace_sq = sum(t ** 2 for t in self.T[1].tolist())  # of A, in pair order
        K, L = _pair_index(n)
        rows = np.sum(A * A, axis=1)
        self.form_sq = 0.5 * (rows[K] + rows[L] + A[L, K] ** 2 + A[K, L] ** 2
                              - 2.0 * A[K, K] * A[L, L])
        self._probe = None

    def probe(self, u):
        """(u, W, e, V, VT) at unit u: W[p] = A^p u, e[p] = u.A^p u (by vecdot,
        which rounds like u @ w; W @ u does not), V[p] the rotation values of
        A^p and VT those of A^T."""
        if self._probe is None or not np.array_equal(self._probe[0], u):
            W = self.pows @ u
            VT = _wedge(u, self.A.T @ u)
            self._probe = (u.copy(), W, np.vecdot(W, u), _wedge(u, W), VT)
        return self._probe


def _parts(A, top=0):
    """The shared quantities of A; invariant_report passes its own through."""
    return A if isinstance(A, _Parts) else _Parts(A, top)


def _rel(total, terms, scale, degree):
    """|total| relative to the largest term along axis 0, and at least to
    scale^degree for an identity of that degree in a matrix with max|A| =
    scale: a float for one identity, a list for an array of them.  The power
    is a product, so scaling A by a power of two scales it exactly."""
    denom = np.maximum(np.abs(terms).max(axis=0, initial=0.0), prod([scale] * degree))
    out = np.zeros(np.shape(denom))
    return np.divide(np.abs(total), denom, out=out, where=denom != 0).tolist()


def _probed(A, u, top=0):
    """The shared parts of A and their probe at u, a unit n-vector."""
    s = _parts(A, top)
    u = as_unit(u, "u")
    if len(u) != s.n:
        raise InputError("probe vector must match the matrix dimension")
    return s, s.probe(u)


def newton_residuals(A):
    """Relative residual of the k-th trace identity, k = 1..n.

    tr(A^k) - pm1 tr(A^(k-1)) + ... + (-1)^(k-1) pm^(k-1) tr(A) + (-1)^k n pm^k
    must equal (n-k)(-1)^k pm^k.
    """
    s = _parts(A)
    n, pm, traces = s.n, s.pm, s.traces
    out = []
    for k in range(1, n + 1):
        terms = [traces[k - 1]] + [s.signed[j] * traces[k - j - 1] for j in range(1, k)]
        terms.append(s.signed[k] * n)
        rhs = (n - k) * (-1.0) ** k * pm[k]
        out.append(_rel(sum(terms) - rhs, terms + [rhs], s.scale, k))
    return out


def cayley_hamilton_residual(A, u, v):
    """The characteristic polynomial annihilates A, probed against unit u, v:
    sum over k of (-1)^k pm^k (A^(n-k) u).v, relative to the term sizes."""
    s, (_, W, *_) = _probed(A, u)
    n = s.n
    v = as_unit(v, "v")
    if len(v) != n:
        raise InputError("probe vectors must match the matrix dimension")
    terms = [s.signed[k] * float(W[n - k] @ v) for k in range(n + 1)]
    return _rel(sum(terms), terms, s.scale, n)


def _ch_lines(s, e_terms, rot):
    """The residual of e_terms and, per pair, that of the terms
    (-1)^k pm^k rot[n - k], k < n, added in k order."""
    n = s.n
    r_terms = np.array(s.signed[:n])[:, None] * rot[n:0:-1]
    return (_rel(sum(e_terms), e_terms, s.scale, n),
            _rel(np.cumsum(r_terms, axis=0)[-1], r_terms, s.scale, n))


def ch_form_residuals(A, u):
    """Characteristic-polynomial identities for the expansion and rotation
    forms of the powers of A, evaluated at a unit vector.

    Returns (expansion residual, {pair: rotation residual}).
    """
    s, (_, _, e, V, _) = _probed(A, u)
    e_res, r_res = _ch_lines(s, [s.signed[k] * float(e[s.n - k]) for k in range(s.n + 1)], V)
    return e_res, dict(zip(plane_pairs(s.n), r_res))


def ch_trace_residuals(A):
    """Trace versions of the form identities: the expansion line gains an
    n * det term, the rotation lines close without one."""
    s = _parts(A)
    n = s.n
    e_terms = [s.signed[k] * s.traces[n - k - 1] for k in range(n)]
    e_terms.append((-1.0) ** n * n * s.pm[n])
    e_res, r_res = _ch_lines(s, e_terms, s.T)
    return e_res, dict(zip(plane_pairs(s.n), r_res))


def pm2_identity_residual(A):
    """pm^2 of A equals pm^2 of the expansion form plus a quarter of the
    summed squared rotation-form traces."""
    s = _parts(A)
    if s.n < 2:
        raise InputError("the second minor sum needs n >= 2")
    pm2, pm2_sym, quarter = s.pm[2], _pm2(s.sym), 0.25 * s.trace_sq
    return _rel(pm2 - (pm2_sym + quarter), [pm2, pm2_sym, quarter], s.scale, 2)


def pm2_sym_skew_residual(A):
    """pm^2 splits across the symmetric and skew parts."""
    s = _parts(A)
    if s.n < 2:
        raise InputError("the second minor sum needs n >= 2")
    pm2, pm2_sym, pm2_skew = s.pm[2], _pm2(s.sym), _pm2(s.skew)
    return _rel(pm2 - pm2_sym - pm2_skew, [pm2, pm2_sym, pm2_skew], s.scale, 2)


def gram_trace_identity_residual(A):
    """n tr(A A^T) against the rotation/expansion invariants, both printed
    forms; returns the larger of the two relative residuals.  tr M_kl and
    tr M_kl^2 of each rotation form come from their closed forms."""
    s = _parts(A)
    A, n = s.A, s.n
    lhs = n * float(np.sum(A * A))
    tr_e = float(np.trace(A))  # equals tr of the expansion form exactly
    rot_sq = float(np.sum(s.form_sq))
    pm2_rot = float(np.sum(0.5 * (s.T[1] ** 2 - s.form_sq)))
    first = _rel(lhs - 2.0 * rot_sq - tr_e**2, [lhs, 2.0 * rot_sq, tr_e**2], s.scale, 2)
    if n < 2:
        return first
    terms = [lhs, 4.0 * pm2_rot, 2.0 * s.trace_sq, tr_e**2]
    second = _rel(lhs - (-4.0 * pm2_rot + 2.0 * s.trace_sq + tr_e**2), terms, s.scale, 2)
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

    Cost about 2^n; guarded at n <= max_dim.  The minors share their Schur
    complements (Griffin & Tsatsomeros, LAA 419, 2006): index k splits each
    term into one without k, weighted d_k - delta, and one with k, weighted
    by the pivot p + delta, where delta = 0 if p's column is zero and lifts
    |p| to its row's largest entry otherwise, so no multiplier exceeds 1.
    Rows and columns are first scaled by exact powers of two.  The error
    stays below n eps prod_i (|d_i| + |row i of B|_2) on every family tested.
    """
    Dd = as_square(Dd, "diagonal matrix")
    B = as_square(B)
    n = Dd.shape[0]
    if B.shape[0] != n:
        raise InputError("matrices must share a dimension")
    d = np.diag(Dd)
    if maxabs(Dd - np.diag(d)) > DEFAULT_TOL.rank_tol * maxabs(Dd):
        raise InputError("first argument must be diagonal")
    if n > max_dim:
        raise InputError(f"subset expansion is 2^n; refusing n = {n} > {max_dim}")
    _, e = np.frexp(np.abs(B).max(axis=1, initial=0.0))
    B = np.ldexp(B, -e[:, None])
    _, f = np.frexp(np.abs(B).max(axis=0, initial=0.0))
    s = e + f
    total, todo = 0.0, [(np.ldexp(B, -f)[None], np.ones(1))]  # stacked complements, weights
    while todo:  # depth first, in stacks of at most _SUBSET_LEAF terms
        M, w = todo.pop()
        while M.shape[1] and (len(M) == 1 or len(M) << M.shape[1] <= _SUBSET_LEAF):
            k = n - M.shape[1]
            p, row, col, rest = M[:, 0, 0], M[:, 0, 1:], M[:, 1:, 0], M[:, 1:, 1:]
            shift = np.maximum(np.abs(row).max(axis=1, initial=0.0) - np.abs(p), 0.0)
            delta = np.copysign(np.where(col.any(axis=1), shift, 0.0), p)
            piv = p + delta
            mult = np.divide(row, piv[:, None], out=np.zeros_like(row), where=piv[:, None] != 0)
            M = np.concatenate([rest, rest - col[:, :, None] * mult[:, None, :]])
            w = np.concatenate([w * (d[k] - np.ldexp(delta, s[k])), w * np.ldexp(piv, s[k])])
        if M.shape[1]:
            h = len(M) // 2
            todo += [(M[h:], w[h:]), (M[:h], w[:h])]
        else:
            total += float(np.sum(w))
    return total


def n4_det_identity_residual(A):
    """Audit of the six-term determinant identity for the diagonal-plus-skew
    split of a 4x4 matrix; the relative residual is reported, not asserted."""
    s = _parts(A)
    if s.n != 4:
        raise InputError("this determinant audit is specific to 4x4 matrices")
    if is_zero_part(s.sym, s.A):
        D, S = np.zeros((4, 4)), s.skew
    else:
        split = expansion_eigenbasis(s.A)
        D, S = np.diag(split.D), split.S
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
    # diag_powers[p][i] = eigenvalue of the p-th power form
    diag_powers = [np.diag(P.T @ (0.5 * (M + M.T)) @ P) for M in pows]
    B = P.T @ A @ P
    S = 0.5 * (B - B.T)
    S2 = S @ S
    lam_e = diag_powers[1]

    rows = [[(-1.0) ** k * diag_powers[n - k][i] for k in range(1, n + 1)] for i in range(n)]
    rhs = [-diag_powers[n][i] for i in range(n)]

    for k in range(n):
        for l in range(k + 1, n):
            if abs(S[l, k]) <= tol.residual_tol / 10:
                continue
            c = [0.0] + [  # c[p] for p = 1..n
                sum(
                    comb(p, p - m) * lam_e[l] ** m * S2[l, l] ** ((p - m - 1) // 2)
                    for m in range(p)
                    if (p - m) % 2 == 1
                )
                for p in range(1, n + 1)
            ]
            rows.append([(-1.0) ** j * c[n - j] for j in range(1, n)] + [0.0])
            rhs.append(-c[n])

    M, b = np.array(rows), np.array(rhs)
    norms = np.linalg.norm(np.column_stack([M, b]), axis=1)
    norms[norms == 0.0] = 1.0
    M_scaled = M / norms[:, None]
    b_scaled = b / norms
    rank = int(np.linalg.matrix_rank(M_scaled))
    if rank < n:
        raise NumericalError(f"power system is rank deficient: rank {rank} < {n}", system=(M, b))
    solution, *_ = np.linalg.lstsq(M_scaled, b_scaled, rcond=None)
    return tuple(float(x) * scale**k for k, x in enumerate(solution, start=1)), rank


def _power_step(s, m, probe):
    """power_form_step on the shared parts, with per-pair arrays."""
    u, _, e, V, VT = probe
    e_m = float(e[m])
    rhs_e = e_m * float(e[1]) + sum((V[m] * VT).tolist())
    # The sum over kl of r_m[kl] (A R_kl u).(R_pq u) is (A w).(R_pq u) with
    # w = sum r_m[kl] R_kl u.  w must come from the coefficients r_m: taking
    # it as A^m u - e_m u would make the recurrence hold by construction.
    w = _rotation_sum(V[m], s.n) @ u
    rhs_r = e_m * V[1] + _wedge(u, s.A @ w)
    return float(e[m + 1]), rhs_e, V[m + 1], rhs_r


def power_form_step(A, m, u):
    """One step of the power recurrences for the expansion and rotation forms.

    Returns (lhs_e, rhs_e, lhs_r, rhs_r): the expansion form of A^(m+1) at
    unit u against its recurrence value, and per-pair rotation forms of
    A^(m+1) against theirs.
    """
    if m < 1:
        raise InputError("power step needs m >= 1")
    s, probe = _probed(A, u, m + 1)
    lhs_e, rhs_e, lhs_r, rhs_r = _power_step(s, m, probe)
    pairs = list(plane_pairs(s.n))
    return lhs_e, rhs_e, dict(zip(pairs, lhs_r.tolist())), dict(zip(pairs, rhs_r.tolist()))


def diagonal_rotation_recursion(A, m, pq):
    """The basis-direction specialisation of the rotation recurrence.

    For u = b_p the cross terms collapse onto four sums over single planes;
    returns (lhs, rhs) for the (p, q) rotation form of A^(m+1) at b_p.  The
    (k, l) rotation value of M at b_p is M[l, p] if k = p, -M[k, p] if l = p, else 0.
    """
    A = as_square(A)
    n = A.shape[0]
    p, q = check_plane_pair(n, pq)
    pows = matrix_powers(A, m + 1)
    i, j = p - 1, q - 1
    rhs = 0.0  # the (p, q) terms, then l in (p, q), (q, n], [1, p) as the recurrence adds them
    for l in (i, j, *range(i + 1, j), *range(j + 1, n), *range(i)):
        rhs += float(pows[m][l, i] * A[j, l])
    return float(pows[m + 1][j, i]), rhs


def invariant_report(A, seed=0, power_steps=3):
    """All identity residuals for one matrix, with seeded probe vectors."""
    s = _Parts(A, power_steps + 1)
    n = s.n
    rng = np.random.default_rng(seed)
    u = random_unit(rng, n)
    v = random_unit(rng, n)
    residuals = {f"newton_{k}": r for k, r in enumerate(newton_residuals(s), start=1)}
    residuals["ch_vector"] = cayley_hamilton_residual(s, u, v)
    e_res, r_res = ch_form_residuals(s, u)
    residuals["ch_expansion"] = e_res
    residuals.update((f"ch_rotation_{k}_{l}", r) for (k, l), r in r_res.items())
    e_res, r_res = ch_trace_residuals(s)
    residuals["tr_ch_expansion"] = e_res
    residuals.update((f"tr_ch_rotation_{k}_{l}", r) for (k, l), r in r_res.items())
    if n >= 2:
        residuals["pm2"] = pm2_identity_residual(s)
        residuals["pm2_sym_skew"] = pm2_sym_skew_residual(s)
    residuals["gram_trace"] = gram_trace_identity_residual(s)
    probe = s.probe(u)
    for m in range(1, power_steps + 1):
        lhs_e, rhs_e, lhs_r, rhs_r = _power_step(s, m, probe)
        residuals[f"power_expansion_{m}"] = _rel(lhs_e - rhs_e, [lhs_e, rhs_e], s.scale, m + 1)
        r_res = _rel(lhs_r - rhs_r, [lhs_r, rhs_r], s.scale, m + 1)
        residuals[f"power_rotation_{m}"] = max(r_res, default=0.0)
    if n == 4:
        residuals["n4_det"] = n4_det_identity_residual(s)
    return InvariantReport(pms=s.pm[1:], residuals=residuals, ecs=euler_cauchy_stokes(s))
