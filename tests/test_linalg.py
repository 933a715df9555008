import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotform import (
    DEFAULT_TOL,
    InputError,
    NumericalError,
    ToleranceConfig,
    eigenstructure,
    nullspace,
    planar_analyze,
    principal_minor_sums,
    random_orthogonal,
    real_spectrum,
    sym_eigen,
)
from rotform import linalg
from rotform.linalg import char_poly_coeffs

from oracles import (
    char_poly_by_permutations,
    char_poly_by_traces,
    cluster_points_loop,
    jacobi_sym_eigen,
    jordan_shear,
    minor_sum_by_enumeration,
    minor_sums_exact,
    polynomial_spectrum,
    row_reduce_rank,
    sign_fix_loop,
    similarity_with_jordan,
)


class TestSymEigen:
    def test_already_diagonal(self):
        w, P = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])
        # eigenvectors are the basis vectors, permuted to ascending order
        np.testing.assert_allclose(np.abs(P), np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_exchange_matrix(self):
        w, P = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
        inv = np.array([1.0, -1.0]) / np.sqrt(2.0)
        sym = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert min(np.linalg.norm(P[:, 0] - inv), np.linalg.norm(P[:, 0] + inv)) < 1e-12
        assert min(np.linalg.norm(P[:, 1] - sym), np.linalg.norm(P[:, 1] + sym)) < 1e-12

    def test_reconstruction_residual_5x5(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((5, 5))
        Q = M + M.T
        w, P = sym_eigen(Q)
        residual = np.linalg.norm(P @ np.diag(w) @ P.T - Q) / np.linalg.norm(Q)
        assert residual < 1e-10

    def test_matches_library_eigensolver(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((6, 6))
        Q = M + M.T
        w, _ = sym_eigen(Q)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(Q), atol=1e-10)

    def test_bulk_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            M = rng.standard_normal((n, n))
            Q = M + M.T
            w, P = sym_eigen(Q)
            scale = np.linalg.norm(Q) or 1.0
            assert np.linalg.norm(P @ np.diag(w) @ P.T - Q) / scale < 1e-10
            assert np.max(np.abs(P.T @ P - np.eye(n))) < 1e-10

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # the symmetry test is relative, so scale cannot hide an asymmetry
        for solver in (sym_eigen, jacobi_sym_eigen):
            with pytest.raises(InputError):
                solver(1e-12 * np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_zero_and_scalar(self):
        w, P = sym_eigen(np.zeros((3, 3)))
        np.testing.assert_allclose(w, np.zeros(3))
        np.testing.assert_array_equal(P, np.eye(3))
        w, P = sym_eigen(np.array([[4.0]]))
        np.testing.assert_allclose(w, [4.0])

    @pytest.mark.parametrize("c", [1e-200, 1e-8, 1e8, 1e200])
    def test_eigenvalues_scale_with_input(self, c):
        rng = np.random.default_rng(14)
        for n in range(2, 9):
            M = rng.standard_normal((n, n))
            Q = M + M.T
            w = sym_eigen(Q)[0]
            # relative to the spectral scale max|w|, which every eigenvalue shares
            np.testing.assert_allclose(sym_eigen(c * Q)[0] / c, w,
                                       rtol=0, atol=1e-13 * np.max(np.abs(w)))

    @staticmethod
    def _cluster_projectors(w, P, gap):
        """Projectors onto the eigenspaces of runs of w spaced at most gap apart."""
        groups = [[0]]
        for i in range(1, len(w)):
            if w[i] - w[i - 1] <= gap:
                groups[-1].append(i)
            else:
                groups.append([i])
        return [P[:, g] @ P[:, g].T for g in groups]

    @pytest.mark.parametrize("repeated", [False, True])
    def test_agrees_with_jacobi_reference(self, repeated):
        rng = np.random.default_rng(15)
        for n in range(2, 17):
            if repeated:
                values = rng.choice([-2.0, 0.5, 3.0], size=n)
                R = random_orthogonal(n, seed=n)
                Q = R.T @ np.diag(values) @ R
            else:
                M = rng.standard_normal((n, n))
                Q = M + M.T
            scale = np.max(np.abs(Q))
            w, P = sym_eigen(Q)
            w_ref, P_ref = jacobi_sym_eigen(Q)
            np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-12 * scale)
            gap = 1e-8 * scale
            mine = self._cluster_projectors(w, P, gap)
            ref = self._cluster_projectors(w_ref, P_ref, gap)
            assert len(mine) == len(ref)
            if repeated:
                assert len(mine) == len(set(values))
            for E, E_ref in zip(mine, ref):
                assert np.max(np.abs(E - E_ref)) <= 1e-10

    def test_certificate_rejects_unreachable_bound(self):
        rng = np.random.default_rng(16)
        M = rng.standard_normal((5, 5))
        with pytest.raises(NumericalError):
            sym_eigen(M + M.T, ToleranceConfig(eig_off_tol=1e-300))

    def test_default_certificate_passes_large_and_graded(self):
        rng = np.random.default_rng(17)
        M = rng.standard_normal((64, 64))
        Q = M + M.T
        w, P = sym_eigen(Q)
        assert np.linalg.norm(P @ np.diag(w) @ P.T - Q) / np.linalg.norm(Q) < 1e-12
        graded = 10.0 ** np.arange(-8, 9)
        w, _ = sym_eigen(np.diag(graded))
        np.testing.assert_allclose(w, graded, rtol=1e-14, atol=0)

    def test_solver_failure_is_numerical_error(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NumericalError, match="did not converge"):
            sym_eigen(np.eye(2))


class TestRealSpectrum:
    def test_pure_rotation(self):
        spec = real_spectrum(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert spec.real_eigs == ()
        assert len(spec.complex_pairs) == 1
        z, mult = spec.complex_pairs[0]
        assert mult == 1
        np.testing.assert_allclose([z.real, z.imag], [0.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        spec = real_spectrum(np.diag([1.0, 2.0, 3.0]))
        assert [m for _, m in spec.real_eigs] == [1, 1, 1]
        np.testing.assert_allclose([v for v, _ in spec.real_eigs], [1.0, 2.0, 3.0], atol=1e-12)

    def test_companion_double_root(self):
        # companion matrix of (x - 1)^2 (x + 2) = x^3 - 3x + 2
        C = np.array([[0.0, 0.0, -2.0], [1.0, 0.0, 3.0], [0.0, 1.0, 0.0]])
        spec = real_spectrum(C)
        assert spec.complex_pairs == ()
        values = {round(v, 6): m for v, m in spec.real_eigs}
        assert values == {1.0: 2, -2.0: 1}
        for v, _ in spec.real_eigs:
            assert abs(v - round(v)) < 1e-10

    def test_multiplicities_sum_and_poly_residual(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            A = rng.uniform(-1.0, 1.0, (n, n))
            spec = real_spectrum(A)
            assert spec.total_multiplicity() == n
            coeffs = char_poly_by_traces(A)
            bound = 1e-8 * np.max(np.abs(coeffs))
            for lam, _ in spec.real_eigs:
                assert abs(np.polyval(coeffs, lam)) < bound

    def test_matches_library_eigenvalues(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            A = rng.uniform(-1.0, 1.0, (n, n))
            spec = real_spectrum(A)
            mine = sorted(v for v, m in spec.real_eigs for _ in range(m))
            ref = sorted(x.real for x in np.linalg.eigvals(A) if abs(x.imag) < 1e-9)
            assert len(mine) == len(ref)
            np.testing.assert_allclose(mine, ref, atol=1e-8)


def _listed(spec):
    """Every eigenvalue of a Spectrum, repeated by multiplicity, pairs as both conjugates."""
    out = [complex(v) for v, m in spec.real_eigs for _ in range(m)]
    for z, m in spec.complex_pairs:
        out += [z, z.conjugate()] * m
    return out


def _match_distance(got, ref):
    """Largest distance of a greedy one-to-one nearest matching of got onto ref."""
    ref = list(ref)
    assert len(got) == len(ref)
    worst = 0.0
    for z in got:
        j = int(np.argmin([abs(z - r) for r in ref]))
        worst = max(worst, abs(z - ref.pop(j)))
    return worst


def _skew_with_rates(rates, n, seed):
    """Q K Q^T for K block-diagonal with the given rotation rates (zeros after)."""
    K = np.zeros((n, n))
    for k, rate in enumerate(rates):
        K[2 * k, 2 * k + 1], K[2 * k + 1, 2 * k] = rate, -rate
    Q = random_orthogonal(n, seed=seed)
    A = Q @ K @ Q.T
    return 0.5 * (A - A.T)


class TestSpectrumFromMatrix:
    """real_spectrum: eigvals of A / max|A|, clustered and certified against the matrix."""

    @pytest.mark.parametrize("c", [1e-8, 1e-6, 1e6, 1e8])
    def test_scales_with_input(self, c):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = 3 + seed % 6
            A = rng.standard_normal((n, n))
            base, scaled = real_spectrum(A), real_spectrum(c * A)
            assert [m for _, m in scaled.real_eigs] == [m for _, m in base.real_eigs]
            assert [m for _, m in scaled.complex_pairs] == [m for _, m in base.complex_pairs]
            got = np.array([v for v, _ in scaled.real_eigs + scaled.complex_pairs])
            want = c * np.array([v for v, _ in base.real_eigs + base.complex_pairs])
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * c * np.max(np.abs(A))
            gm = [e.geometric_multiplicity for e in eigenstructure(A).entries]
            report = eigenstructure(c * A)
            assert [e.geometric_multiplicity for e in report.entries] == gm
            assert [m for _, m in report.complex_pairs] == [m for _, m in base.complex_pairs]

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_large_random_accepted_and_right(self, n):
        for seed in range(10):
            A = np.random.default_rng(100 * n + seed).standard_normal((n, n))
            spec = real_spectrum(A)
            assert spec.total_multiplicity() == n
            assert _match_distance(_listed(spec), np.linalg.eigvals(A)) <= 1e-10 * np.linalg.norm(A, 2)

    def test_wilkinson_twenty_within_its_condition_numbers(self):
        # upper bidiagonal, diagonal 20..1, superdiagonal 20: eigenvalues 1..20
        # with condition numbers up to 5e12
        W = np.diag(np.arange(20.0, 0.0, -1.0)) + np.diag(np.full(19, 20.0), 1)
        w, V = np.linalg.eig(W)
        kappa = (np.linalg.norm(np.linalg.inv(V), axis=1) * np.linalg.norm(V, axis=0))
        kappa = kappa[np.argsort(w.real)]
        eps = np.finfo(float).eps
        spec = real_spectrum(W)
        assert spec.real_eigs == tuple((float(k), 1) for k in range(1, 21))
        for seed in range(3):
            Q = random_orthogonal(20, seed=seed)
            spec = real_spectrum(Q @ W @ Q.T)
            assert spec.complex_pairs == ()
            values = np.array([v for v, m in spec.real_eigs for _ in range(m)])
            bound = 10 * 20 * eps * np.linalg.norm(W, 2) * kappa
            assert np.all(np.abs(values - np.arange(1.0, 21.0)) <= bound)

    def test_graded_diagonal(self):
        graded = 10.0 ** np.arange(-8, 9)
        spec = real_spectrum(np.diag(graded))
        assert [m for _, m in spec.real_eigs] == [1] * 17 and spec.complex_pairs == ()
        np.testing.assert_allclose([v for v, _ in spec.real_eigs], graded, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("gap", [1e-5, 1e-9])
    def test_close_rotation_rates_stay_two_pairs(self, gap):
        # 1e-5 apart the cluster is too wide for a double pair; 1e-9 apart its
        # centroid fails the sigma_min certificate
        for n in range(4, 11):
            A = _skew_with_rates([1.0, 1.0 + gap], n, seed=n)
            spec = real_spectrum(A)
            assert [m for _, m in spec.complex_pairs] == [1, 1]
            np.testing.assert_allclose([z.imag for z, _ in spec.complex_pairs],
                                       [1.0, 1.0 + gap], rtol=0, atol=1e-12)
            assert spec.real_eigs == (() if n < 5 else ((pytest.approx(0.0, abs=1e-14), n - 4),))

    def test_cluster_centred_on_an_eigenvalue_is_split(self):
        # the centroid of each triple is itself an eigenvalue, so the
        # centroid's sigma_min alone cannot split them
        spec = real_spectrum(np.diag([-1e-3, 0.0, 1e-3, 1.0]))
        assert spec.real_eigs == ((-1e-3, 1), (0.0, 1), (1e-3, 1), (1.0, 1))
        spec = real_spectrum(_skew_with_rates([1.0 - 3e-4, 1.0, 1.0 + 3e-4], 6, seed=6))
        assert [m for _, m in spec.complex_pairs] == [1, 1, 1]

    def test_spectrum_symmetric_about_a_member_is_not_merged(self):
        # within the widest radius, spread allowances of 10 (n eps)^(1/m) for
        # m >= 3 admit these groups, and each centroid is an eigenvalue; the
        # midpoints between centroid and members are not
        spec = real_spectrum(np.diag([-2.0, -1.0, 0.0, 1.0, 2.0, 1000.0]))
        assert spec.real_eigs == tuple((v, 1) for v in (-2.0, -1.0, 0.0, 1.0, 2.0, 1000.0))
        spec = real_spectrum(np.diag([-5e-5, 0.0, 5e-5, 1.0]))
        assert spec.real_eigs == ((-5e-5, 1), (0.0, 1), (5e-5, 1), (1.0, 1))
        spec = real_spectrum(_skew_with_rates([1.0, 5e-5], 5, seed=5))
        assert [m for _, m in spec.real_eigs] == [1]
        assert spec.real_eigs[0][0] == pytest.approx(0.0, abs=1e-14)
        assert [m for _, m in spec.complex_pairs] == [1, 1]
        np.testing.assert_allclose([z.imag for z, _ in spec.complex_pairs], [5e-5, 1.0],
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_jordan_blocks_keep_algebraic_multiplicity(self, size):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            A = similarity_with_jordan(rng, [(1.5, size, True), (-1.0, 1, False), (3.0, 1, False)])
            spec = real_spectrum(A)
            assert [m for _, m in spec.real_eigs] == [1, size, 1]
            assert spec.complex_pairs == ()
            assert spec.real_eigs[1][0] == pytest.approx(1.5, abs=1e-10)

    @pytest.mark.parametrize("size", [4, 5])
    def test_jordan_block_beside_a_close_eigenvalue_stays_whole(self, size):
        # rounding spreads the block over about (eps kappa)^(1/size) max|A|,
        # so the eigenvalue 0.5 away is the nearest the separation test meets
        for seed in range(20):
            rng = np.random.default_rng(seed)
            A = similarity_with_jordan(rng, [(1.5, size, True), (1.0, 1, False), (3.0, 1, False)])
            spec = real_spectrum(A)
            assert [m for _, m in spec.real_eigs] == [1, size, 1]
            assert spec.complex_pairs == ()

    def test_zero_matrix(self):
        spec = real_spectrum(np.zeros((4, 4)))
        assert spec.real_eigs == ((0.0, 4),) and spec.complex_pairs == ()

    def test_solver_failure_is_numerical_error(self, monkeypatch):
        def failing_eig(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", failing_eig)
        with pytest.raises(NumericalError, match="did not converge"):
            real_spectrum(np.eye(2))

    def test_failing_residuals_fall_back_to_the_svd(self, monkeypatch):
        # eigenvectors moved by 1e-6 fail every residual certificate, so each
        # eigenvalue is judged by sigma_min from an SVD, with the same outcome
        rng = np.random.default_rng(4)
        cases = [rng.uniform(-1.0, 1.0, (n, n)) for n in (2, 5, 9, 16)]
        cases.append(similarity_with_jordan(rng, [(1.5, 2, True), (-1.0, 1, False), (3.0, 1, False)]))
        expected = [real_spectrum(A) for A in cases]
        eig, svd = np.linalg.eig, np.linalg.svd
        svd_calls = []

        def perturbed_eig(a):
            w, X = eig(a)
            return w, X + 1e-6 * rng.standard_normal(X.shape)

        def counted_svd(*args, **kwargs):
            svd_calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", perturbed_eig)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        for A, spec in zip(cases, expected):
            del svd_calls[:]
            fallback = real_spectrum(A)
            assert fallback == spec
            assert [len(basis) for basis in fallback.real_vectors] == [1] * len(spec.real_eigs)
            assert len(svd_calls) >= len(spec.real_eigs) + len(spec.complex_pairs)

    @pytest.mark.parametrize("j", [-600, -1, 1, 600])
    def test_power_of_two_scaling_is_exact(self, j):
        # A / max|A| is the same matrix for every 2^j A, so values, vectors
        # and residuals scale bit for bit
        rng = np.random.default_rng(7)
        Q = random_orthogonal(5, seed=7)
        cases = [rng.uniform(-1.0, 1.0, (n, n)) for n in (1, 3, 8, 17)]
        cases += [np.diag([1.0, 1.0, 3.0]), Q @ np.diag([1.0, 1.0, 1.0, 3.0, -2.0]) @ Q.T]
        for A in cases:
            base, scaled = real_spectrum(A), real_spectrum(np.ldexp(A, j))
            assert scaled.real_eigs == tuple((np.ldexp(v, j), m) for v, m in base.real_eigs)
            assert scaled.complex_pairs == tuple(
                (complex(np.ldexp(z.real, j), np.ldexp(z.imag, j)), m) for z, m in base.complex_pairs)
            for e, f in zip(eigenstructure(A).entries, eigenstructure(np.ldexp(A, j)).entries,
                            strict=True):
                assert f.value == np.ldexp(e.value, j)
                assert f.geometric_multiplicity == e.geometric_multiplicity
                assert np.array_equal(f.eigenspace, e.eigenspace)
                assert f.rotation_residual == np.ldexp(e.rotation_residual, j)

    def test_certificate_rejects_unreachable_rank_tolerance(self):
        A = np.random.default_rng(3).standard_normal((5, 5))
        with pytest.raises(NumericalError, match="certificate"):
            real_spectrum(A, ToleranceConfig(rank_tol=1e-300))

    def test_pairs_ascend_by_rate_in_every_basis(self):
        for n in range(4, 11):
            rates = np.random.default_rng(n).uniform(0.5, 2.0, size=n // 2)
            A = _skew_with_rates(rates, n, seed=n)
            Q = random_orthogonal(n, seed=100 + n)
            for B in (A, Q @ A @ Q.T):
                imag = [z.imag for z, _ in real_spectrum(B).complex_pairs]
                np.testing.assert_allclose(imag, np.sort(rates), rtol=1e-12)

    def test_agrees_with_polynomial_reference(self):
        rng = np.random.default_rng(23)
        cases = [np.diag([1.0, 2.0, 3.0]), jordan_shear(3.0, 1.0),
                 np.array([[0.0, 0.0, -2.0], [1.0, 0.0, 3.0], [0.0, 1.0, 0.0]])]
        cases += [rng.uniform(-1.0, 1.0, (n, n)) for n in rng.integers(2, 9, size=150)]
        for A in cases:
            mine, ref = real_spectrum(A), polynomial_spectrum(A)
            assert [m for _, m in mine.real_eigs] == [m for _, m in ref.real_eigs]
            assert [m for _, m in mine.complex_pairs] == [m for _, m in ref.complex_pairs]
            for (z, _), (w, _) in zip(mine.real_eigs + mine.complex_pairs,
                                      ref.real_eigs + ref.complex_pairs):
                assert abs(z - w) <= 1e-8 * max(1.0, abs(w))


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert nullspace(np.eye(3)) == []

    def test_zero_matrix_full_kernel(self):
        vecs = nullspace(np.zeros((3, 3)))
        assert len(vecs) == 3

    def test_shear_example_eigenspace_dimension(self):
        A = jordan_shear(3.0, 1.0)
        shifted = A - 3.0 * np.eye(3)
        vecs = nullspace(shifted)
        assert len(vecs) == 1
        assert 3 - row_reduce_rank(shifted) == 1

    def test_vectors_are_orthonormal_kernel_members(self):
        rng = np.random.default_rng(31)
        V = rng.standard_normal((4, 2))
        A = V @ V.T  # rank 2 in dimension 4
        vecs = nullspace(A, abs_threshold=1e-9)
        assert len(vecs) == 2
        G = np.array([[float(a @ b) for b in vecs] for a in vecs])
        np.testing.assert_allclose(G, np.eye(2), atol=1e-12)
        for v in vecs:
            assert np.linalg.norm(A @ v) < 1e-9


class TestPrincipalMinorSums:
    def test_identity(self):
        np.testing.assert_allclose(principal_minor_sums(np.eye(3)), (3.0, 3.0, 1.0))

    def test_two_by_two(self):
        np.testing.assert_allclose(principal_minor_sums(np.array([[1.0, 2.0], [3.0, 4.0]])),
                                   (5.0, -2.0))

    def test_against_cofactor_char_poly(self):
        rng = np.random.default_rng(41)
        A = rng.uniform(-1.0, 1.0, (4, 4))
        ref = char_poly_by_permutations(A)
        np.testing.assert_allclose(char_poly_coeffs(A), ref, atol=1e-12)

    def test_against_minor_enumeration(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4, 5):
            A = rng.uniform(-1.0, 1.0, (n, n))
            pm = principal_minor_sums(A)
            for k in range(1, n + 1):
                assert abs(pm[k - 1] - minor_sum_by_enumeration(A, k)) < 1e-10

    def test_basis_invariance(self):
        rng = np.random.default_rng(43)
        for trial in range(20):
            n = int(rng.integers(2, 7))
            A = rng.uniform(-1.0, 1.0, (n, n))
            P = random_orthogonal(n, seed=trial)
            pm1 = np.array(principal_minor_sums(A))
            pm2 = np.array(principal_minor_sums(P.T @ A @ P))
            np.testing.assert_allclose(pm1, pm2, rtol=1e-9, atol=1e-9)

    def test_trace_and_determinant_endpoints(self):
        rng = np.random.default_rng(44)
        A = rng.uniform(-1.0, 1.0, (5, 5))
        pm = principal_minor_sums(A)
        assert pm[0] == pytest.approx(np.trace(A), abs=1e-13)
        assert pm[-1] == pytest.approx(np.linalg.det(A), rel=1e-10, abs=1e-12)


def _uniform_or_symmetric(n, seed, symmetric):
    A = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
    return A + A.T if symmetric else A


def _eigen_mass(A):
    """e_1..e_n of the eigenvalue moduli of A, the scale of each minor sum's error."""
    return np.poly(-np.abs(np.linalg.eigvals(A)))[1:]


class TestMinorSumsFromSpectrum:
    # The former trace recurrence reached 3.3e-6 e_k(|lambda|) on uniform and 9.8 on
    # symmetric matrices at n = 32; the spectrum route stays near 2.4e-13.
    @pytest.mark.parametrize("n", [8, 16, 24, 32])
    @pytest.mark.parametrize("symmetric", [False, True])
    @settings(derandomize=True, max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_exact_minor_sums(self, n, symmetric, seed):
        A = _uniform_or_symmetric(n, seed, symmetric)
        pm = principal_minor_sums(A)
        mass = _eigen_mass(A)
        for k, exact in enumerate(minor_sums_exact(A), start=1):
            assert abs(Fraction(pm[k - 1]) - exact) <= 1e-12 * mass[k - 1], k

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), j=st.integers(-30, 30))
    def test_power_of_two_scaling_is_exact(self, seed, n, j):
        A = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
        pm = principal_minor_sums(A)
        scaled = principal_minor_sums(np.ldexp(A, j))
        assert scaled == tuple(float(np.ldexp(v, j * k)) for k, v in enumerate(pm, start=1))

    @pytest.mark.parametrize("n", [24, 32])
    @settings(derandomize=True, max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), symmetric=st.booleans())
    def test_scaling_and_change_of_basis(self, n, seed, symmetric):
        A = _uniform_or_symmetric(n, seed, symmetric)
        pm = np.array(principal_minor_sums(A))
        mass = _eigen_mass(A)
        powers = np.arange(1, n + 1)
        for c in (1e-8, 3.7, 1e8):
            gap = np.abs(np.array(principal_minor_sums(c * A)) / c**powers - pm)
            assert np.all(gap <= 1e-11 * mass), c
        Q = random_orthogonal(n, seed % 1000)
        gap = np.abs(np.array(principal_minor_sums(Q @ A @ Q.T)) - pm)
        assert np.all(gap <= 1e-11 * mass)

    @pytest.mark.parametrize("A", [
        np.diag([1.0, 1e-8]),
        np.diag(10.0 ** -np.arange(17)),
        np.array([[1.0, 1.0], [1e-8, 1e-8]]),
        np.diag([1.0] * 5 + [1e-8]) @ np.random.default_rng(1).uniform(-1, 1, (6, 6)),
        np.diag([1.0] * 5 + [1e-200]) @ np.random.default_rng(1).uniform(-1, 1, (6, 6)),
        np.diag(10.0 ** -np.arange(8)) @ np.random.default_rng(2).uniform(-1, 1, (8, 8)),
        np.random.default_rng(3).standard_normal((9, 2))
        @ np.random.default_rng(4).standard_normal((2, 9)),
        np.diag(np.ones(6), 1),
        np.triu(-np.cos(1.2) * np.ones((10, 10)), 1) + np.eye(10),
        np.random.default_rng(5).integers(-3, 4, (7, 7)).astype(float),
        np.zeros((4, 4)),
    ], ids=["diag-1e-8", "diag-graded", "small-row-2x2", "small-row", "tiny-row", "row-graded",
            "rank-2", "nilpotent", "kahan", "integer", "zero"])
    def test_hard_inputs_pass_the_anchors_and_match_exact(self, A):
        # Within 1e-12 of e_k of the row norms, the mass the anchors use; the
        # trace form of pm^2 and a squared row norm of 1e-200 refused some.
        mass = np.poly(-np.hypot.reduce(A, axis=1))[1:]
        for k, (got, exact) in enumerate(zip(principal_minor_sums(A), minor_sums_exact(A))):
            assert abs(Fraction(got) - exact) <= 1e-12 * mass[k], k + 1

    @pytest.mark.parametrize("c", [1e150, 1e-150])
    def test_extreme_scales_pass_without_warnings(self, c):
        # A RuntimeWarning fails the test (pyproject filterwarnings); pm^k
        # beyond the double range comes back as inf or 0.
        B = np.random.default_rng(6).uniform(-1, 1, (6, 6))
        base, mass = principal_minor_sums(B), np.poly(-np.hypot.reduce(B, axis=1))[1:]
        for k, (got, want) in enumerate(zip(principal_minor_sums(c * B), base), start=1):
            if np.isfinite(got) and np.isfinite(c**k):
                assert abs(got - c**k * want) <= 1e-12 * c**k * mass[k - 1], k

    def test_pm2_anchor_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "_pm2", lambda M: 1.0)
        with pytest.raises(NumericalError, match=r"pm\^2"):
            principal_minor_sums(np.random.default_rng(8).uniform(-1, 1, (5, 5)))

    def test_a_failing_eigenvalue_solver_is_numerical_error(self, monkeypatch):
        def failing(X):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np, "poly", failing)
        with pytest.raises(NumericalError, match="^eigenvalue solver failed: Eigenvalues did"):
            principal_minor_sums(np.random.default_rng(9).uniform(-1, 1, (5, 5)))

    def test_determinant_anchor_disagreement_raises(self, monkeypatch):
        poly = np.poly
        monkeypatch.setattr(np, "poly", lambda X: poly(X) + 1e-6 * np.eye(6)[5])
        with pytest.raises(NumericalError, match=r"pm\^5"):
            principal_minor_sums(np.random.default_rng(9).uniform(-1, 1, (5, 5)))


class TestRandomOrthogonal:
    def test_dimension_one(self):
        P = random_orthogonal(1, seed=5)
        assert abs(abs(P[0, 0]) - 1.0) < 1e-15

    def test_orthogonality(self):
        P = random_orthogonal(4, seed=7)
        assert np.max(np.abs(P.T @ P - np.eye(4))) < 1e-12
        assert abs(abs(np.linalg.det(P)) - 1.0) < 1e-10

    def test_determinism(self):
        np.testing.assert_array_equal(random_orthogonal(6, seed=99), random_orthogonal(6, seed=99))

    def test_rejects_bad_dimension(self):
        with pytest.raises(InputError):
            random_orthogonal(0, seed=1)


class TestToleranceConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            ToleranceConfig(eig_off_tol=0.0)
        for field in ("eig_off_tol", "rank_tol", "residual_tol"):
            with pytest.raises(InputError):
                ToleranceConfig(**{field: np.inf})

    def test_defaults(self):
        assert DEFAULT_TOL.residual_tol == 1e-9


class TestEntryLimit:
    """Entries above max float / 4 are refused where a matrix enters; the
    symmetric and skew parts of an accepted matrix stay finite."""

    TOP = [[1e308, -1e308], [1e308, 1e308]]

    def test_top_of_the_double_range_is_input_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="max float / 4"):
                planar_analyze(self.TOP)
            with pytest.raises(InputError, match="max float / 4"):
                eigenstructure(self.TOP)

    def test_non_finite_entries_are_input_error(self):
        with pytest.raises(InputError, match="finite entries"):
            eigenstructure([[np.inf, 0.0], [0.0, np.nan]])

    @pytest.mark.parametrize("u, message", [
        (np.ones((2, 2)), r"^vector must be one-dimensional, got shape \(2, 2\)$"),
        ([1.0, np.nan], "^vector has non-finite components$"),
    ], ids=["2-D", "NaN"])
    def test_a_vector_must_be_one_dimensional_and_finite(self, u, message):
        with pytest.raises(InputError, match=message):
            linalg.as_vector(u)

    def test_largest_eigenvalue_below_the_limit_is_still_reported(self):
        report = eigenstructure(1e306 * np.ones((32, 32)))
        assert report.flags == ()
        top = max(entry.value for entry in report.entries)
        assert abs(top - 3.2e307) <= 1e-12 * 3.2e307


class TestClusterPoints:
    @staticmethod
    def spectrum(seed):
        """Eigenvalues of A / max|A|, as real_spectrum groups them: a
        uniform(-1, 1) matrix for even seeds; for odd seeds an orthogonal
        similarity of a diagonal with repeated entries, whose copies land
        within rounding of each other."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 49))
        if seed % 2:
            Q = random_orthogonal(n, seed)
            A = Q @ np.diag(rng.integers(-3, 4, n).astype(float)) @ Q.T
        else:
            A = rng.uniform(-1.0, 1.0, (n, n))
        return list(np.linalg.eigvals(A / np.max(np.abs(A))))

    def test_groups_equal_the_minimax_loop_on_seeded_spectra(self):
        close = []
        for seed in range(80):
            points = self.spectrum(seed)
            for tol in (3e-3, 1e-9):
                groups = [[points[i] for i in g] for g in linalg._cluster_points(points, tol)]
                assert groups == cluster_points_loop(points, tol)
                close.append(len(groups) < len(points))
        assert any(close) and not all(close)  # both with and without close pairs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8), cols=st.integers(0, 8))
def test_sign_fix_gives_the_bytes_of_the_column_loop(seed, rows, cols):
    # columns with zeros, components near rank_tol and no component above it
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-14, 2, (rows, cols))
    P[rng.random((rows, cols)) < 0.3] = 0.0
    P[:, rng.random(cols) < 0.2] = 0.0
    fixed = linalg._sign_fix(P, DEFAULT_TOL)
    assert fixed.shape == P.shape and fixed.tobytes() == sign_fix_loop(P, DEFAULT_TOL).tobytes()


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


def _bits(x):
    return np.float64(x).tobytes()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(total=_FLOATS, terms=st.lists(_FLOATS, max_size=34), scale=_FLOATS,
       degree=st.integers(0, 32))
def test_rel_on_floats_gives_the_bits_of_its_array_path(total, terms, scale, degree):
    # one identity in Python floats against the same data as arrays, NaN and signed zeros
    # included; a 0-d total takes the array path
    got = linalg._rel(total, terms, scale, degree)
    with np.errstate(all="ignore"):
        ref = linalg._rel(np.array(total), np.array(terms, dtype=float), scale, degree)
    assert type(got) is float and type(ref) is float
    assert _bits(got) == _bits(ref) or (np.isnan(got) and np.isnan(ref))


@pytest.mark.parametrize("n", range(1, 33))
def test_pm2_sums_the_upper_triangle_that_triu_keeps(n):
    for seed in range(20):
        M = np.random.default_rng([n, seed]).standard_normal((n, n))
        d = np.diag(M)
        ref = float(d[1:] @ np.cumsum(d)[:-1]) - float(np.sum(np.triu(M * M.T, 1)))
        assert _bits(linalg._pm2(M)) == _bits(ref)
