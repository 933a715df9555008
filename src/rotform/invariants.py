"""Trace and determinant identities relating a matrix to its expansion and
rotation forms.

Every *_residual function returns a residual that an exact identity would
make zero, over max(max|term|, max|X|^d) for an identity of degree d, all
formed on the record's X = A / binary_scale(A): no term under- or overflows,
and every 2^j A has the same X.  The test suite and the CLI report them.  The
terms come from closed forms, which the test suite checks against the form
definitions: the (k, l) rotation form of M has trace M[l,k] - M[k,l] and
value (u (Mu)^T - (Mu) u^T)[k,l] at u, the expansion form has trace tr M and
value u.Mu, pm^2 of M is the sum of its 2 x 2 principal minors (_pm2), and
the (k, l) rotation form M_kl of A has tr(M_kl^2) = (|A_k|^2 + |A_l|^2
+ A[l,k]^2 + A[k,l]^2 - 2 A[k,k] A[l,l]) / 2, with A_k the k-th row of A.

The minor sums come from the spectrum (linalg.principal_minor_sums), not
the power traces, so the Newton residuals compare two independent routes.
invariant_report builds the record of X once (_Parts): its powers, minor
sums and parts, with the per-pair quantities as arrays over the plane
pairs (see quasirot): the rotation traces of every power once per matrix,
its rotation values once per probe vector.  Per-pair terms are summed along
the power axis in the order of the scalar identities.

The subset determinant expansion and the diagonal-plus-skew determinant
audit live here too, as does the linear system that recovers the
characteristic-polynomial coefficients of a normal matrix from its form
eigenvalues: its basis and power forms come from canonical's one pass
(_normal_powers), a coupled plane's coefficients from Im(z^k) / Im z.  The
subset expansion takes all principal minors from one shared Schur-complement
recursion, vectorised over the prefixes of each length: about 4 ms of CPU
time at n = 16, 40 to 70 ms at n = 20.  The rotation
power recurrence contracts its double sum over plane pairs to one vector,
so its right-hand side costs O(n^2) work per step.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, prod

import numpy as np

from .errors import InputError, NumericalError
from .canonical import _normal_powers
from .linalg import (
    DEFAULT_TOL,
    _Matrix,
    _index,
    _kernel,
    _matrix,
    _pm2,
    _rel,
    _shared,
    as_square,
    as_unit,
    matrix_powers,
    maxabs,
    principal_minor_sums,
    random_unit,
)
from .quasirot import _pair_entries, _pair_index, _rotation_sum, _wedge
from .quasirot import plane_pairs

COLLINGS_MAX_DIM = 20  # largest n the 2^n subset expansion accepts by default
# Terms per stack in collings_det: 0.6 MB peak; 2^12 is 2x slower, 2^16 10-30% faster at 2.4 MB.
_SUBSET_LEAF = 2**14


@dataclass(frozen=True)
class InvariantReport:
    pms: tuple
    residuals: dict  # name -> relative residual
    ecs: tuple       # (theta, shear matrix, twist matrix)


class _Parts(_Matrix):
    """The record of X = A / p that the identities of one matrix share, built on
    A's record, which checks A and forms X; unit is p = binary_scale(A) (a
    degree-d value of A is p^d times X's).  It adds, each once, the powers I, X,
    ..., X^top (top >= n), pm^0..pm^n and (-1)^k pm^k, the parts' pm^2, the
    rotation traces T[q] of every power, sum T[1]^2 and every tr(M_kl^2)."""

    def __init__(self, A, top=0):
        M = _matrix(A)
        super().__init__(M.X, M.tol)
        self.unit = M.p
        A, n = self.A, self.n
        self.pows = np.array(matrix_powers(A, max(n, top)))
        self.traces = self.pows[1 : n + 1].trace(axis1=1, axis2=2).tolist()
        self.pm = (1.0,) + principal_minor_sums(self)
        self.signed = [(-1.0) ** k * self.pm[k] for k in range(n + 1)]
        self.T = _pair_entries(self.pows)
        self.trace_sq = sum(t ** 2 for t in self.T[1].tolist())
        K, L = _pair_index(n)
        rows = (A * A).sum(axis=1)
        self.form_sq = 0.5 * (rows[K] + rows[L] + A[L, K] ** 2 + A[K, L] ** 2
                              - 2.0 * A[K, K] * A[L, L])
        self.pm2_sym, self.pm2_skew = _pm2(self.sym), _pm2(self.skew)
        self._probe = None

    def probe(self, u):
        """(u, W, e, V, VT) at unit u: W[p] = A^p u, the floats e[p] = u.A^p u by vecdot (it
        rounds like u @ w, W @ u does not), V[p] and VT the rotation values of A^p, A^T."""
        if self._probe is None or not np.array_equal(self._probe[0], u):
            W = self.pows @ u
            VT = _wedge(u, self.A.T @ u)
            self._probe = (u.copy(), W, np.vecdot(W, u).tolist(), _wedge(u, W), VT)
        return self._probe


def _parts(A, top=0):
    """The shared quantities of A (an array or a record); _Parts pass through."""
    return A if isinstance(A, _Parts) else _Parts(A, top)


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
    terms = [c * x for c, x in zip(s.signed, np.vecdot(W[n::-1], v).tolist())]
    return _rel(sum(terms), terms, s.scale, n)


def _ch_lines(s, e_terms, rot):
    """The residual of e_terms and, per pair, that of the terms
    (-1)^k pm^k rot[n - k], k < n, added in k order."""
    n = s.n
    r_terms = np.array(s.signed[:n])[:, None] * rot[n:0:-1]
    return (_rel(sum(e_terms), e_terms, s.scale, n),
            _rel(r_terms.cumsum(axis=0)[-1], r_terms, s.scale, n))


def ch_form_residuals(A, u):
    """Characteristic-polynomial identities for the expansion and rotation
    forms of the powers of A, evaluated at a unit vector.

    Returns (expansion residual, {pair: rotation residual}).
    """
    s, (_, _, e, V, _) = _probed(A, u)
    e_res, r_res = _ch_lines(s, [c * x for c, x in zip(s.signed, e[s.n :: -1])], V)
    return e_res, dict(zip(_pair_names(s.n)[0], r_res))


def ch_trace_residuals(A):
    """Trace versions of the form identities: the expansion line gains an
    n * det term, the rotation lines close without one."""
    s = _parts(A)
    n = s.n
    e_terms = [s.signed[k] * s.traces[n - k - 1] for k in range(n)]
    e_terms.append((-1.0) ** n * n * s.pm[n])
    e_res, r_res = _ch_lines(s, e_terms, s.T)
    return e_res, dict(zip(_pair_names(s.n)[0], r_res))


@lru_cache(maxsize=64)
def _pair_names(n):
    """The plane pairs of dimension n and the report's names of their ch and tr_ch residuals."""
    pairs = tuple(plane_pairs(n))
    return pairs, *(tuple(f"{kind}_rotation_{k}_{l}" for k, l in pairs) for kind in ("ch", "tr_ch"))


def pm2_identity_residual(A):
    """pm^2 of A equals pm^2 of the expansion form plus a quarter of the
    summed squared rotation-form traces."""
    s = _parts(A)
    if s.n < 2:
        raise InputError("the second minor sum needs n >= 2")
    pm2, pm2_sym, quarter = s.pm[2], s.pm2_sym, 0.25 * s.trace_sq
    return _rel(pm2 - (pm2_sym + quarter), [pm2, pm2_sym, quarter], s.scale, 2)


def pm2_sym_skew_residual(A):
    """pm^2 splits across the symmetric and skew parts."""
    s = _parts(A)
    if s.n < 2:
        raise InputError("the second minor sum needs n >= 2")
    pm2, pm2_sym, pm2_skew = s.pm[2], s.pm2_sym, s.pm2_skew
    return _rel(pm2 - pm2_sym - pm2_skew, [pm2, pm2_sym, pm2_skew], s.scale, 2)


def gram_trace_identity_residual(A):
    """n tr(A A^T) against the rotation/expansion invariants, both printed
    forms; returns the larger of the two relative residuals.  tr M_kl and
    tr M_kl^2 of each rotation form come from their closed forms."""
    s = _parts(A)
    A, n = s.A, s.n
    lhs = n * float((A * A).sum())
    tr_sq = s.traces[0] ** 2  # tr A equals tr of the expansion form exactly
    rot_sq = float(s.form_sq.sum())
    pm2_rot = float((0.5 * (s.T[1] ** 2 - s.form_sq)).sum())
    first = _rel(lhs - 2.0 * rot_sq - tr_sq, [lhs, 2.0 * rot_sq, tr_sq], s.scale, 2)
    if n < 2:
        return first
    terms = [lhs, 4.0 * pm2_rot, 2.0 * s.trace_sq, tr_sq]
    second = _rel(lhs - (-4.0 * pm2_rot + 2.0 * s.trace_sq + tr_sq), terms, s.scale, 2)
    return max(first, second)


def euler_cauchy_stokes(A):
    """Unique split into mean expansion, traceless shear and twist:
    A = (theta/n) I + Sigma + Omega."""
    s = _parts(A)
    theta = s.traces[0]
    sigma = s.sym - (theta / s.n) * np.eye(s.n)
    return theta * s.unit, sigma * s.unit, s.skew * s.unit


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
    total, todo = 0.0, [(np.ldexp(B, -f)[..., None], np.ones(1))]  # (m, m, L) stacks, weights
    while todo:  # depth first, in stacks of at most _SUBSET_LEAF terms
        M, w = todo.pop()
        while len(M) and (len(w) == 1 or len(w) << len(M) <= _SUBSET_LEAF):
            k = n - len(M)
            p, row, col, rest = M[0, 0], M[0, 1:], M[1:, 0], M[1:, 1:]
            shift = np.maximum(np.abs(row).max(axis=0, initial=0.0) - np.abs(p), 0.0)
            delta = np.copysign(np.where(col.any(axis=0), shift, 0.0), p)
            piv = p + delta
            mult = np.divide(row, piv, out=np.zeros_like(row), where=piv != 0)
            M = np.concatenate([rest, rest - col[:, None] * mult], axis=2)
            w = np.concatenate([w * (d[k] - np.ldexp(delta, s[k])), w * np.ldexp(piv, s[k])])
        if len(M):
            h = len(w) // 2
            todo += [(M[..., h:], w[h:]), (M[..., :h], w[:h])]
        else:
            total += float(np.sum(w))
    return total


def n4_det_identity_residual(A):
    """Audit of the six-term determinant identity for the diagonal-plus-skew
    split of a 4x4 matrix; the relative residual is reported, not asserted."""
    s = _parts(A)
    if s.n != 4:
        raise InputError("this determinant audit is specific to 4x4 matrices")
    if s.sym_zero:
        D, S = np.zeros((4, 4)), s.skew
    else:
        _, D, S = s.split
        D = np.diag(D)
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
    least squares through QR, and returns (pm estimates, system rank), the
    rank by linalg's one SVD rank rule on the row-scaled system.  The system is
    built for X = A / p, p = binary_scale(A), whose pm^k come back times p^k
    as float products: the columns of A's own system scale as p^1..p^n.
    Rank below n raises NumericalError with the assembled system attached.
    """
    M = _matrix(A, tol)
    n = M.n
    if M.skew_zero:
        raise InputError("matrix is symmetric; the power system degenerates")
    p, A = M.p, M.X
    coupled = tol.residual_tol / 10 * maxabs(A)
    P, _, F = _normal_powers(M)
    E = np.array([np.diag(Fk) for Fk in F[: n + 1]])  # E[k][i]: eigenvalue of the k-th power form
    B = P.T @ A @ P
    S = 0.5 * (B - B.T)

    rows = list((-1.0) ** np.arange(1, n + 1) * E[n - 1 :: -1].T)
    rhs = list(-E[n])
    K, L = _pair_index(n)
    for l in L[np.abs(S[L, K]) > coupled].tolist():
        # the plane's eigenvalue lam_e + i |S[l]|, |S[l]| = sqrt(-S^2[l, l]) for skew S
        c = _plane_coefficients(complex(E[1, l], np.linalg.norm(S[l])), n)
        rows.append([(-1.0) ** j * c[n - j] for j in range(1, n)] + [0.0])
        rhs.append(-c[n])

    M, b = np.array(rows), np.array(rhs)
    norms = np.linalg.norm(np.column_stack([M, b]), axis=1)
    norms[norms == 0.0] = 1.0
    M_scaled = M / norms[:, None]
    b_scaled = b / norms
    rank = n - len(_kernel(M_scaled, [0.0], n * tol.rank_tol * maxabs(M_scaled))[1])
    if rank < n:
        raise NumericalError(f"power system is rank deficient: rank {rank} < {n}", system=(M, b))
    Q, R = np.linalg.qr(M_scaled)
    solution = np.linalg.solve(R, Q.T @ b_scaled)
    return tuple(prod([p] * k, start=float(x)) for k, x in enumerate(solution, start=1)), rank


def _plane_coefficients(z, n):
    """c[k] = Im(z^k) / Im z, k = 0..n, for z = a + i b, b > 0, an eigenvalue of a coupled
    plane: the imaginary part of p(z) = 0, p the characteristic polynomial, over b."""
    return [(z**k).imag / z.imag for k in range(n + 1)]


def _power_steps(s, first, last, probe):
    """power_form_step on the shared parts for m = first..last, a row per m: the
    expansion values and their recurrences as lists, the per-pair ones as arrays."""
    u, _, e, V, VT = probe
    m = slice(first, last + 1)
    rhs_e = [e_m * e[1] + sum(row) for e_m, row in zip(e[m], (V[m] * VT).tolist())]
    # The sum over kl of r_m[kl] (A R_kl u).(R_pq u) is (A w).(R_pq u) with
    # w = sum r_m[kl] R_kl u.  w must come from the coefficients r_m: taking
    # it as A^m u - e_m u would make the recurrence hold by construction.
    w = _rotation_sum(V[m], s.n) @ u
    rhs_r = np.array(e[m])[:, None] * V[1] + _wedge(u, (s.A @ w[..., None])[..., 0])
    return e[first + 1 : last + 2], rhs_e, V[first + 1 : last + 2], rhs_r


def power_form_step(A, m, u):
    """One step of the power recurrences for the expansion and rotation forms.

    Returns (lhs_e, rhs_e, lhs_r, rhs_r): the expansion form of A^(m+1) at
    unit u against its recurrence value, and per-pair rotation forms of
    A^(m+1) against theirs.
    """
    m = _index(m, 1, "power step needs an integer m >= 1")
    s, probe = _probed(A, u, m + 1)
    (lhs_e,), (rhs_e,), *per_pair = _power_steps(s, m, m, probe)
    pairs, back = _pair_names(s.n)[0], [s.unit] * (m + 1)  # A's units, as float products
    lhs_r, rhs_r = ({pq: prod(back, start=x) for pq, x in zip(pairs, r[0].tolist())}
                    for r in per_pair)
    return prod(back, start=lhs_e), prod(back, start=rhs_e), lhs_r, rhs_r


def invariant_report(A, seed=0, power_steps=3):
    """All identity residuals for one matrix (an array or a record), with seeded probes;
    seed and power_steps are integers >= 0, Python's or numpy's, not bools."""
    seed, power_steps = (_index(value, 0, f"{name} must be an integer >= 0, got {value!r}")
                         for name, value in (("seed", seed), ("power_steps", power_steps)))
    s = _Parts(_shared(A), power_steps + 1)
    n = s.n
    pms = tuple(prod([s.unit] * k, start=s.pm[k]) for k in range(1, n + 1))
    for k, value in enumerate(pms, start=1):
        if not isfinite(value):
            raise NumericalError(f"minor sum pm^{k} = {s.pm[k]:.6g} * {s.unit:.6g}^{k} "
                                 "leaves the double range")
    rng = np.random.default_rng(seed)
    u = random_unit(rng, n)
    v = random_unit(rng, n)
    residuals = {f"newton_{k}": r for k, r in enumerate(newton_residuals(s), start=1)}
    residuals["ch_vector"] = cayley_hamilton_residual(s, u, v)
    _, ch_names, tr_ch_names = _pair_names(n)
    residuals["ch_expansion"], r_res = ch_form_residuals(s, u)
    residuals.update(zip(ch_names, r_res.values()))
    residuals["tr_ch_expansion"], r_res = ch_trace_residuals(s)
    residuals.update(zip(tr_ch_names, r_res.values()))
    if n >= 2:
        residuals["pm2"] = pm2_identity_residual(s)
        residuals["pm2_sym_skew"] = pm2_sym_skew_residual(s)
    residuals["gram_trace"] = gram_trace_identity_residual(s)
    steps = _power_steps(s, 1, power_steps, s.probe(u))
    for m, (lhs_e, rhs_e, lhs_r, rhs_r) in enumerate(zip(*steps), start=1):
        residuals[f"power_expansion_{m}"] = _rel(lhs_e - rhs_e, [lhs_e, rhs_e], s.scale, m + 1)
        r_res = _rel(lhs_r - rhs_r, [lhs_r, rhs_r], s.scale, m + 1)
        residuals[f"power_rotation_{m}"] = max(r_res, default=0.0)
    if n == 4:
        residuals["n4_det"] = n4_det_identity_residual(s)
    return InvariantReport(pms=pms, residuals=residuals, ecs=euler_cauchy_stokes(s))
