"""Metamorphic properties: relations between two runs of one analysis.

The paper's spectrum, forms, Bromwich box and trace/determinant identities
are homogeneous in A, so scaling A by c > 0 must leave every classification,
every multiplicity and every relative residual as it was; A and its
transpose share their spectrum and Bromwich box; under an orthogonal
change of basis the rotation forms move as rotation_form_change_of_basis
says and normality is kept.  Each relation is
checked on seeded random matrices, with hypothesis choosing seeds and scales
deterministically.
"""

import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotform import (
    DEFAULT_TOL,
    NumericalError,
    QForm,
    bromwich_bounds,
    collings_det,
    common_zero_check,
    eigenstructure,
    form_family,
    invariant_report,
    normal_invariant_recover,
    normal_power_basis,
    normality_report,
    planar_analyze,
    plane_pairs,
    principal_minor_sums,
    random_orthogonal,
    real_spectrum,
    rotation_form_change_of_basis,
    skew_canonical_basis,
    skew_square_structure,
    sym_eigen,
    zero_subspace_extend,
)
from rotform import linalg
from rotform.cli import _forms_section
from rotform.linalg import _cluster_points, _matrix

from oracles import (
    INTEGER_JORDAN_CASES,
    diagonal_rotation_recursion,
    integer_similar,
    jordan_form,
    jordan_shear,
    random_normal_matrix,
    random_unit,
    rotation_scaling_block,
    skew_canonical_basis_deflation,
)

SEEDS = st.integers(0, 2**32 - 1)


def _planar_family(seed):
    """A random 2x2 matrix, or one of the classification's boundary cases."""
    rng = np.random.default_rng(seed)
    kind = seed % 4
    if kind == 0:
        return jordan_shear(rng.uniform(-1, 1), 0.0)[:2, :2] * rng.uniform(0.1, 1)
    if kind == 1:
        return rotation_scaling_block(rng.uniform(-1, 1), rng.uniform(0.1, 1))
    if kind == 2:
        return rng.uniform(-1, 1) * np.eye(2)
    return rng.uniform(-1, 1, (2, 2))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=SEEDS, c=st.sampled_from([1e-8, 1e-6, 1e6, 1e8]))
def test_planar_classification_is_scale_free(seed, c):
    A = _planar_family(seed)
    base = planar_analyze(A)
    scaled = planar_analyze(c * A)
    assert scaled.classification == base.classification
    assert scaled.zero_count == base.zero_count
    assert scaled.borderline == base.borderline
    for z, w in zip(scaled.eigs, base.eigs):
        assert abs(z - c * w) <= 1e-12 * c * np.max(np.abs(A))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=SEEDS, eigenvector=st.booleans())
def test_default_common_zero_check_is_scale_free(seed, eigenvector):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    M = rng.uniform(-1, 1, (n, n))
    A = M + M.T if eigenvector else M
    u = sym_eigen(A)[1][:, 0] if eigenvector else random_unit(rng, n)
    expected = common_zero_check(A, u)
    assert expected == eigenvector
    assert common_zero_check(1e-12 * A, u) == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=SEEDS, c=st.sampled_from([1e-10, 1e10]))
def test_zero_subspace_extend_is_scale_free(seed, c):
    # In the eigenbasis of diag(a, -b, 0) the vectors (sqrt b, +-sqrt a, 0)
    # and e3 are zeros; the first two have polar value 2ab, e3 none.
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.1, 2.0, 2)
    P = random_orthogonal(3, seed)
    M = P @ np.diag([a, -b, 0.0]) @ P.T
    x = P @ np.array([np.sqrt(b), np.sqrt(a), 0.0])
    y = P @ np.array([np.sqrt(b), -np.sqrt(a), 0.0])
    z = P[:, 2]
    for scale in (1.0, c):
        q = QForm(3, scale * M)
        assert zero_subspace_extend(q, [x], y) is False
        assert zero_subspace_extend(q, [x], z) is True
        assert zero_subspace_extend(q, [x, y], z) is True


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=SEEDS, c=st.sampled_from([1e-6, 1e-3, 1e3, 1e6]))
def test_skew_square_blocks_are_scale_free(seed, c):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    M = rng.standard_normal((n, n))
    A = M - M.T
    base = skew_square_structure(A)
    scaled = skew_square_structure(c * A)
    assert [b.shape[1] for _, b, _ in scaled] == [b.shape[1] for _, b, _ in base]
    assert len(base) == (n + 1) // 2
    top = max(abs(v) for v, _, _ in base)
    for (v, _, r), (w, _, _) in zip(scaled, base):
        assert abs(v - c * c * w) <= 1e-12 * c * c * top
        assert r <= 1e-12 * c * np.max(np.abs(A))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=SEEDS, exponent=st.integers(-6, 3))
def test_normal_invariant_recover_is_scale_free(seed, exponent):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    A = random_normal_matrix(rng, n)
    c = 10.0**exponent
    pm, rank = normal_invariant_recover(c * A)
    assert rank == n
    s = c * np.max(np.abs(A))
    for k, (got, want) in enumerate(zip(pm, principal_minor_sums(A)), start=1):
        assert abs(got - c**k * want) <= 1e-10 * s**k


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 8))
def test_identity_residuals_are_scale_free(seed, n):
    # Scaling by a power of two is exact, so every residual built from
    # homogeneous terms must come back bit for bit; n4_det goes through eigh.
    A = np.random.default_rng(seed).uniform(-1, 1, (n, n))
    base = invariant_report(A, seed=seed).residuals
    for c in (2.0**20, 2.0**-20):
        scaled = invariant_report(c * A, seed=seed).residuals
        assert scaled.keys() == base.keys()
        for key, value in base.items():
            if key == "n4_det":
                assert max(value, scaled[key]) <= 1e-13
            else:
                assert scaled[key] == value, key


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 12), j=st.sampled_from([-20, -3, 5, 30]))
def test_collings_det_scales_exactly_by_powers_of_two(seed, n, j):
    # Row and column scales, pivots, shifts and weights all scale by 2^j
    # without rounding, so det(2^j (D + B)) comes back as 2^(jn) det exactly.
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, (n, n)) * 2.0 ** rng.uniform(-30, 30, n)[:, None]
    D = np.diag(np.diag(A)) * (seed % 2)  # half the cases pivot on a zero diagonal
    B = A - np.diag(np.diag(A))
    scaled = collings_det(np.ldexp(D, j), np.ldexp(B, j))
    assert scaled == np.ldexp(collings_det(D, B), j * n)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([12, 16, 24]))
def test_identity_residuals_are_scale_free_at_larger_n(seed, n):
    # The per-pair residuals are summed over pair arrays; power-of-two
    # scaling must still give every residual back bit for bit.
    A = np.random.default_rng(seed).uniform(-1, 1, (n, n))
    base = invariant_report(A, seed=seed).residuals
    for c in (2.0**20, 2.0**-20):
        scaled = invariant_report(c * A, seed=seed).residuals
        assert scaled.keys() == base.keys()
        for key, value in base.items():
            assert scaled[key] == value, key


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 8))
def test_identity_residuals_are_bit_identical_across_the_double_range(seed, n):
    # invariant_report forms everything on A / binary_scale(A), the same
    # bits for every 2^j A, so no residual moves, n4_det included; a minor
    # sum comes back as 2^(jk) pm^k, or NumericalError when that overflows.
    A = np.random.default_rng(seed).uniform(-1, 1, (n, n))
    base = invariant_report(A, seed=seed)
    for j in (-1000, -300, -60, 60, 300, 900):
        overflow = [k for k, pm in enumerate(base.pms, start=1)
                    if pm and math.frexp(pm)[1] + j * k > 1024]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if overflow:
                with pytest.raises(NumericalError, match=rf"minor sum pm\^{overflow[0]} "):
                    invariant_report(np.ldexp(A, j), seed=seed)
                continue
            scaled = invariant_report(np.ldexp(A, j), seed=seed)
        assert scaled.residuals == base.residuals, j
        for k, (got, pm) in enumerate(zip(scaled.pms, base.pms), start=1):
            want = math.ldexp(pm, j * k)
            if abs(want) >= sys.float_info.min or want == 0.0:
                assert got == want, (j, k)
            else:  # below the normal range each product rounds on its own
                assert abs(got) <= sys.float_info.min, (j, k)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 8), j=st.sampled_from([-1000, -500, 500, 900]))
def test_sym_eigen_scales_exactly_by_powers_of_two(seed, n, j):
    # eigh solves Q / binary_scale(Q), the same bits for every 2^j Q, while
    # LAPACK rescales a matrix past about 1e+-146 by a factor that is no power of two
    G = np.random.default_rng(seed).standard_normal((n, n))
    Q = G + G.T
    assert np.array_equal(np.ldexp(np.ldexp(Q, j), -j), Q)  # 2^j Q is exact
    w, P = sym_eigen(Q)
    w_scaled, P_scaled = sym_eigen(np.ldexp(Q, j))
    assert w_scaled.tobytes() == np.ldexp(w, j).tobytes()
    assert P_scaled.tobytes() == P.tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_sym_eigen_scales_subnormal_matrices_exactly(seed):
    # max|2^-1060 Q| is below 2^-1024, where 1 / binary_scale would overflow;
    # small integers keep 2^-1060 Q exact, so its X = Q / p is Q's
    rng = np.random.default_rng(seed)
    G = rng.integers(-5, 6, (2 + seed % 6,) * 2).astype(float)
    Q = G + G.T
    w, P = sym_eigen(Q)
    w_scaled, P_scaled = sym_eigen(np.ldexp(Q, -1060))
    assert np.all(np.isfinite(w_scaled))
    assert w_scaled.tobytes() == np.ldexp(w, -1060).tobytes()
    assert P_scaled.tobytes() == P.tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=SEEDS, j=st.sampled_from([-500, 500]))
def test_planar_values_scale_exactly_by_powers_of_two(seed, j):
    A = _planar_family(seed)
    u = random_unit(np.random.default_rng(seed), 2)
    base = planar_analyze(A, u)
    scaled = planar_analyze(np.ldexp(A, j), u)
    assert (scaled.classification, scaled.zero_count, scaled.borderline) == (
        base.classification, base.zero_count, base.borderline)
    assert scaled.eigs == tuple(complex(math.ldexp(z.real, j), math.ldexp(z.imag, j))
                                for z in base.eigs)
    for got, want in ((scaled.expansion_eigs, base.expansion_eigs),
                      (scaled.rotation_eigs, base.rotation_eigs),
                      (scaled.rep_in_u_basis, base.rep_in_u_basis)):
        assert np.ldexp(np.asarray(want), j).tobytes() == np.asarray(got).tobytes()


# At 1e+-160 and 1e+-200 a degree-2 quantity of A (K^T K, A A, a product of
# two form eigenvalues) under- or overflows; 1e+-8 are ordinary scales.
EXTREME_SCALES = [1e-200, 1e-160, 1e-8, 1e8, 1e160, 1e200]


def _spectral_family(seed):
    """A random matrix, a random skew matrix (a kernel for odd n), or a
    symmetric matrix with a repeated eigenvalue, plus a skew part for odd
    seeds."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    kind = seed % 3
    if kind == 0:
        return rng.standard_normal((n, n))
    M = rng.standard_normal((n, n))
    if kind == 1:
        return M - M.T
    Q = random_orthogonal(n, seed)
    d = rng.uniform(-2, 2, n)
    d[1] = d[0]
    S = Q @ np.diag(d) @ Q.T
    return 0.5 * (S + S.T) + 0.5 * (M - M.T) * (seed % 2)


def _skew_from_rates(rates, zero_dim, seed):
    """Q . blockdiag(rate_k [[0, 1], [-1, 0]], 0_(zero_dim)) . Q^T."""
    n = 2 * len(rates) + zero_dim
    core = np.zeros((n, n))
    for k, rate in enumerate(rates):
        core[2 * k, 2 * k + 1] = rate
        core[2 * k + 1, 2 * k] = -rate
    Q = random_orthogonal(n, seed)
    return Q @ core @ Q.T


def _skew_family(seed, n):
    """Random, repeated-rate, close-rate and small-rate-beside-kernel skew
    matrices of dimension n."""
    rng = np.random.default_rng(seed)
    kind = seed % 4
    if kind == 0:
        M = rng.standard_normal((n, n))
        return M - M.T
    pairs = n // 2
    if kind == 1:
        rates = [rng.uniform(0.5, 2.0)] * pairs
        if pairs > 2:
            rates[-1] = rng.uniform(0.5, 2.0)
        return _skew_from_rates(rates, n % 2, seed)
    if kind == 2:
        rates = [1.0, 1.0 + 1e-9][:pairs] + list(rng.uniform(0.1, 3.0, max(pairs - 2, 0)))
        return _skew_from_rates(rates, n % 2, seed)
    small = [1.0, 5e-5, 1e-9, 1e-10]
    rates = small[: max(1, min(len(small), pairs - 1))]
    return _skew_from_rates(rates, n - 2 * len(rates), seed)


def _block_form(lambdas, n):
    target = np.zeros((n, n))
    for k, lam in enumerate(lambdas):
        target[2 * k, 2 * k + 1] = lam
        target[2 * k + 1, 2 * k] = -lam
    return target


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=SEEDS, c=st.sampled_from(EXTREME_SCALES))
def test_skew_rates_and_bromwich_box_scale(seed, c):
    A = _spectral_family(seed)
    K = 0.5 * (A - A.T)
    if np.any(K != 0.0):
        base = skew_canonical_basis(A)
        scaled = skew_canonical_basis(c * A)
        assert scaled.zero_dim == base.zero_dim
        assert len(scaled.lambdas) == len(base.lambdas)
        for x, y in zip(scaled.lambdas, base.lambdas):
            assert abs(x / c - y) <= 1e-12 * np.max(np.abs(K))
    for x, y in zip(bromwich_bounds(c * A), bromwich_bounds(A)):
        assert abs(x / c - y) <= 1e-12 * np.max(np.abs(A))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=SEEDS, c=st.sampled_from(EXTREME_SCALES))
def test_eigenstructure_multiplicities_are_scale_free(seed, c):
    A = _spectral_family(seed)
    base = eigenstructure(A)
    scaled = eigenstructure(c * A)
    assert scaled.flags == ()
    assert [e.geometric_multiplicity for e in scaled.entries] == [
        e.geometric_multiplicity for e in base.entries
    ]
    assert [m for _, m in scaled.complex_pairs] == [m for _, m in base.complex_pairs]
    for x, y in zip(scaled.bromwich, base.bromwich):
        assert abs(x / c - y) <= 1e-12 * np.max(np.abs(A))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=SEEDS)
def test_skew_rates_and_bromwich_real_bounds_are_orthogonally_invariant(seed):
    A = _spectral_family(seed)
    Q = random_orthogonal(A.shape[0], seed + 1)
    B = Q @ A @ Q.T
    scale = np.max(np.abs(A))
    if np.any(A != A.T):
        base = skew_canonical_basis(A)
        moved = skew_canonical_basis(B)
        assert moved.zero_dim == base.zero_dim
        assert len(moved.lambdas) == len(base.lambdas)
        for x, y in zip(moved.lambdas, base.lambdas):
            assert abs(x - y) <= 1e-12 * scale
    for x, y in zip(bromwich_bounds(B)[:2], bromwich_bounds(A)[:2]):
        assert abs(x - y) <= 1e-12 * scale


@settings(derandomize=True, max_examples=120, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 16))
def test_skew_canonical_basis_matches_deflation_oracle(seed, n):
    A = _skew_family(seed, n)
    scale = np.max(np.abs(A))
    new = skew_canonical_basis(A)
    old = skew_canonical_basis_deflation(A)
    assert new.zero_dim == old.zero_dim
    assert len(new.lambdas) == len(old.lambdas)
    assert np.max(np.abs(np.subtract(new.lambdas, old.lambdas))) <= 1e-13 * scale
    P = new.basis
    assert np.max(np.abs(P.T @ P - np.eye(n))) <= 1e-12
    reduced = P.T @ A @ P
    assert np.max(np.abs(reduced - _block_form(new.lambdas, n))) <= 1e-12 * scale


@settings(derandomize=True, max_examples=120, deadline=None)
@given(seed=SEEDS, c=st.sampled_from([1e-170, 1e170]))
def test_degree_two_decisions_are_scale_free(seed, c):
    A = _planar_family(seed)
    base = planar_analyze(A)
    scaled = planar_analyze(c * A)
    assert (scaled.classification, scaled.zero_count, scaled.borderline) == (
        base.classification, base.zero_count, base.borderline
    )
    for z, w in zip(scaled.eigs, base.eigs):
        assert abs(z / c - w) <= 1e-12 * np.max(np.abs(A))

    rng = np.random.default_rng(seed)
    B = random_normal_matrix(rng, 4) if seed % 2 else rng.standard_normal((4, 4))
    base = normality_report(B)
    scaled = normality_report(c * B)
    assert scaled.is_normal == base.is_normal == bool(seed % 2)
    assert [v[:2] for v in scaled.violating_pairs] == [v[:2] for v in base.violating_pairs]
    for x, y in zip(scaled.expansion_eigenvalues, base.expansion_eigenvalues):
        assert abs(x / c - y) <= 1e-12 * np.max(np.abs(B))

    M = rng.standard_normal((6, 6))
    S = M - M.T
    assert [b.shape[1] for _, b, _ in skew_square_structure(S)] == [2, 2, 2]
    # the eigenvalues of (c S)^2 are c^2 times those of S^2: past the double range for both c
    with pytest.raises(NumericalError, match="skew square eigenvalue .* leaves the double range"):
        skew_square_structure(c * S)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=SEEDS, j=st.sampled_from([-500, -400, 0, 400, 500]))
def test_commutator_norm_is_scale_free(seed, j):
    # measured on X = A / p over max|X|^2, with the expansion eigenbasis solved on
    # sym(A) / p, so 2^j A gives A's value bit for bit
    rng = np.random.default_rng(seed)
    A = random_normal_matrix(rng, 4) if seed % 2 else rng.uniform(-1.0, 1.0, (4, 4))
    base = normality_report(A)
    scaled = normality_report(math.ldexp(1.0, j) * A)
    assert scaled.commutator_norm == base.commutator_norm
    assert scaled.is_normal == base.is_normal
    assert [v[:2] for v in scaled.violating_pairs] == [v[:2] for v in base.violating_pairs]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 6))
def test_normal_power_basis_is_the_same_for_every_power_of_two_multiple(seed, n):
    """The powers, K^2 and every check are formed on X = A / p, so 2^j A gives
    A's basis and checks bit for bit, all finite, and 1e+-80 A no error or warning."""
    A = random_normal_matrix(np.random.default_rng(seed), n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P, checks = normal_power_basis(A)
        assert all(math.isfinite(value) for value in checks.values())
        for j in (-600, -300, 300, 600):
            scaled, scaled_checks = normal_power_basis(np.ldexp(A, j))
            assert scaled.tobytes() == P.tobytes() and repr(scaled_checks) == repr(checks), j
        for c in (1e-80, 1e80):
            normal_power_basis(c * A)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_eigenstructure_of_transpose_has_the_same_spectrum_and_box(seed):
    A = _spectral_family(seed)
    base = eigenstructure(A)
    moved = eigenstructure(A.T)
    scale = np.max(np.abs(A))
    assert moved.flags == ()
    assert len(moved.entries) == len(base.entries)
    for x, y in zip(moved.entries, base.entries):
        assert abs(x.value - y.value) <= 1e-10 * scale
        assert x.geometric_multiplicity == y.geometric_multiplicity
    assert [m for _, m in moved.complex_pairs] == [m for _, m in base.complex_pairs]
    for (z, _), (w, _) in zip(moved.complex_pairs, base.complex_pairs):
        assert abs(z - w) <= 1e-10 * scale
    for x, y in zip(moved.bromwich, base.bromwich):
        assert abs(x - y) <= 1e-12 * scale


@settings(derandomize=True, max_examples=120, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 8), c=st.sampled_from([1e-8, 1.0, 1e8]))
def test_rotation_forms_follow_an_orthogonal_change_of_basis(seed, n, c):
    rng = np.random.default_rng(seed)
    A = c * rng.uniform(-1, 1, (n, n))
    Q = random_orthogonal(n, seed + 1)
    family = form_family(A, Q)
    pairs = list(plane_pairs(n))
    for pq in (pairs[0], pairs[-1], pairs[int(rng.integers(len(pairs)))]):
        moved = Q.T @ rotation_form_change_of_basis(A, Q, pq).matrix @ Q
        assert np.max(np.abs(moved - family.rotations[pq].matrix)) <= 1e-12 * np.max(np.abs(A))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 8))
def test_normality_is_orthogonally_invariant(seed, n):
    rng = np.random.default_rng(seed)
    A = random_normal_matrix(rng, n) if seed % 2 else rng.standard_normal((n, n))
    Q = random_orthogonal(n, seed + 1)
    expected = normality_report(A).is_normal
    assert expected == bool(seed % 2)
    assert normality_report(Q @ A @ Q.T).is_normal == expected


def _near_multiple_family(seed):
    """n = 3..11 with 2 to 6 distinct eigenvalues spaced U(0.5, 2), repeated,
    one gap set to 10^U(-10, -2): Q D Q^T for even seeds, S D S^-1 with
    cond(S) <= 10 for odd ones.  Returns (A, values, multiplicities, gap)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    k = int(rng.integers(2, min(6, n) + 1))
    gaps = rng.uniform(0.5, 2.0, k - 1)
    gap = gaps[rng.integers(k - 1)] = 10.0 ** rng.uniform(-10, -2)
    values = rng.uniform(-2, 2) + np.concatenate([[0.0], np.cumsum(gaps)])
    mult = 1 + rng.multinomial(n - k, np.ones(k) / k)
    D = np.diag(np.repeat(values, mult))
    Q = random_orthogonal(n, seed)
    if seed % 2 == 0:
        return Q @ D @ Q.T, values, list(mult), gap
    S = Q @ np.diag(rng.uniform(1, 10, n)) @ random_orthogonal(n, seed + 1)
    return S @ D @ np.linalg.inv(S), values, list(mult), gap


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=SEEDS)
def test_near_multiple_eigenvalues_have_multiplicities_that_add_up(seed):
    A, values, mult, gap = _near_multiple_family(seed)
    spectrum = real_spectrum(A)
    entries = eigenstructure(A).entries
    reported = [e.value for e in entries]
    gms = [e.geometric_multiplicity for e in entries]
    assert reported == [v for v, _ in spectrum.real_eigs]
    assert all(x < y for x, y in zip(reported, reported[1:]))
    assert sum(gms) <= len(A)
    assert all(g <= m for g, (_, m) in zip(gms, spectrum.real_eigs))
    scale = np.max(np.abs(A))
    if gap >= 1e-8 * scale:
        assert gms == mult
        assert np.max(np.abs(np.array(reported) - values)) <= 1e-10 * scale


def _assert_residual_certificates_are_sound(A):
    """Every eigenvalue z of A / max|A| that real_spectrum certified by its
    eigenvector's residual has sigma_min(A / max|A| - z I) <= n rank_tol by SVD."""
    with mock.patch.object(linalg, "_resolve_clusters", wraps=linalg._resolve_clusters) as spy:
        real_spectrum(A)
    Ah, w, _, _, sigma_tol, certified = spy.call_args_list[0].args
    assert sigma_tol == len(A) * DEFAULT_TOL.rank_tol
    for z in w[certified]:
        assert np.linalg.svd(Ah - z * np.eye(len(A)), compute_uv=False)[-1] <= sigma_tol
    return w[certified]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 32))
def test_residual_certificates_are_sound_on_uniform_matrices(seed, n):
    A = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
    assert len(_assert_residual_certificates_are_sound(A)) == n


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=SEEDS)
def test_residual_certificates_are_sound_near_multiple_eigenvalues(seed):
    _assert_residual_certificates_are_sound(_near_multiple_family(seed)[0])


def _assert_eigenspace_bases_are_certified(A):
    """Every real eigenvalue lambda has an orthonormal basis of at least one v with
    |Ah v - lh v| <= n rank_tol + 4 n eps (|Ah|_F + |lh|), for Ah = A / max|A| and
    lh = lambda / max|A|: the bound that certified lambda, with its rounding."""
    spectrum = real_spectrum(A)
    n, s, eps = len(A), np.max(np.abs(A)), np.finfo(float).eps
    Ah = A / s
    assert len(spectrum.real_vectors) == len(spectrum.real_eigs)
    for (lam, _), basis in zip(spectrum.real_eigs, spectrum.real_vectors):
        V, lh = np.array(basis).T, lam / s
        assert V.shape[1] >= 1
        assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= 4 * n * eps
        bound = n * DEFAULT_TOL.rank_tol + 4 * n * eps * (np.linalg.norm(Ah) + abs(lh))
        assert np.max(np.linalg.norm(Ah @ V - lh * V, axis=0)) <= bound


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=SEEDS)
def test_eigenspace_bases_are_certified_near_multiple_eigenvalues(seed):
    # alone, and beside one far eigenvalue t that sets max|A ⊕ [t]|
    A = _near_multiple_family(seed)[0]
    C = np.zeros((len(A) + 1,) * 2)
    C[:-1, :-1], C[-1, -1] = A, 10 * max(np.max(np.abs(A)), 1.0)
    _assert_eigenspace_bases_are_certified(A)
    _assert_eigenspace_bases_are_certified(C)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=SEEDS, case=st.sampled_from(sorted(INTEGER_JORDAN_CASES)))
def test_eigenspace_bases_are_certified_on_integer_jordan_similarities(seed, case):
    blocks, _ = INTEGER_JORDAN_CASES[case]
    _assert_eigenspace_bases_are_certified(
        integer_similar(np.random.default_rng(seed), jordan_form(*blocks)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=SEEDS, c=st.sampled_from([1e-8, 3.7, 1e8]))
def test_spectrum_values_follow_scaling_and_orthogonal_similarity(seed, c):
    A = _spectral_family(seed)
    Q = random_orthogonal(len(A), seed + 1)
    base = real_spectrum(A)
    scale = np.max(np.abs(A))
    for moved, factor in ((real_spectrum(c * A), c), (real_spectrum(Q @ A @ Q.T), 1.0)):
        assert [m for _, m in moved.real_eigs] == [m for _, m in base.real_eigs]
        assert [m for _, m in moved.complex_pairs] == [m for _, m in base.complex_pairs]
        for (x, _), (y, _) in zip(moved.real_eigs + moved.complex_pairs,
                                  base.real_eigs + base.complex_pairs):
            assert abs(x / factor - y) <= 1e-10 * scale


def _close_pair_components(points, tol):
    """Groups of points joined by chains of steps at most tol, by search."""
    groups, seen = [], set()
    for start in range(len(points)):
        if start in seen:
            continue
        members, frontier = {start}, [start]
        while frontier:
            i = frontier.pop()
            near = {j for j in range(len(points)) if abs(points[i] - points[j]) <= tol}
            frontier += sorted(near - members)
            members |= near
        seen |= members
        groups.append([points[i] for i in sorted(members)])
    return groups


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 12))
def test_single_linkage_groups_and_cuts_keep_conjugate_mirrors(seed, n):
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 4, (n, 2)) * rng.choice([1e-9, 1e-4, 0.3])
    points = [complex(x) for x, _ in grid[: n - n // 3]]
    for x, y in grid[n - n // 3:]:
        points += [complex(x, y + 1.0), complex(x, -y - 1.0)]
    steps = sorted({abs(a - b) for a in points for b in points})
    for tol in (1e-9, 1e-4, 0.3, 1.0):
        groups = [[points[i] for i in g] for g in _cluster_points(points, tol)]
        assert groups == _close_pair_components(points, tol)
    # the cut keeps every step shorter than the longest single-linkage step
    longest = next(t for t in steps if len(_close_pair_components(points, t)) == 1)
    parts = [[points[i] for i in g] for g in _cluster_points(points)]
    assert parts == _close_pair_components(points, max(t for t in steps if t < longest or t == 0))
    assert len(parts) > 1 or longest == 0
    canon = {tuple(sorted(part, key=lambda z: (z.real, z.imag))) for part in parts}
    assert canon == {tuple(sorted((z.conjugate() for z in part), key=lambda z: (z.real, z.imag)))
                     for part in parts}



@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 6))
def test_norm_identity_gap_is_the_same_for_every_power_of_two_multiple(seed, n):
    """The analyze probe's norm identity gap is formed on X = A / binary_scale(A)
    and taken over |Xu|^2, so 2^j A reports A's gap bit for bit."""
    A = np.random.default_rng(seed).uniform(-1, 1, (n, n))
    gaps = set()
    for j in (-500, 0, 500):
        M = _matrix(np.ldexp(A, j))
        section = _forms_section(M, seed, bromwich_bounds(M))
        gaps.add(repr(section["decomposition_probe"]["norm_identity_gap"]))
    assert len(gaps) == 1


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 6), data=st.data())
def test_diagonal_rotation_recursion_follows_power_of_two_scaling(seed, n, data):
    """At 2^j A the pair (lhs, rhs) is A's times 2^(j (m + 1)), bit for bit,
    wherever that is a normal double, and never NaN or a numpy warning."""
    A = np.random.default_rng(seed).uniform(-1, 1, (n, n))
    pair = data.draw(st.sampled_from(list(plane_pairs(n))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (1, 2, 3):
            base = diagonal_rotation_recursion(A, m, pair)
            for j in (-300, -60, 60, 300):
                scaled = diagonal_rotation_recursion(np.ldexp(A, j), m, pair)
                for value, got in zip(base, scaled):
                    assert not math.isnan(got)
                    try:
                        want = math.ldexp(value, j * (m + 1))
                    except OverflowError:
                        continue
                    if abs(want) >= np.finfo(float).tiny or value == 0.0:
                        assert got == want, (m, j)
