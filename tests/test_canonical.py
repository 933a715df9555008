import numpy as np
import pytest

import rotform
from rotform import (
    DEFAULT_TOL,
    InputError,
    NumericalError,
    expansion_eigenbasis,
    normal_power_basis,
    normality_report,
    plane_pairs,
    normal_invariant_recover,
    quasi_rotation,
    random_orthogonal,
    rotation_form,
    skew_canonical_basis,
)

from oracles import jordan_shear, minor_sums_exact, random_normal_matrix, rotation_scaling_block


def block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    pos = 0
    for b in blocks:
        out[pos:pos + b.shape[0], pos:pos + b.shape[0]] = b
        pos += b.shape[0]
    return out


class TestExpansionEigenbasis:
    def test_recovers_diag_plus_skew(self):
        D = np.diag([5.0, 2.0, -1.0])
        S = np.array([[0.0, 0.3, -0.2], [-0.3, 0.0, 0.7], [0.2, -0.7, 0.0]])
        split = expansion_eigenbasis(D + S)
        np.testing.assert_allclose(split.D, [5.0, 2.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(split.basis), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(np.abs(split.S), np.abs(S), atol=1e-12)

    def test_shear_example(self):
        split = expansion_eigenbasis(jordan_shear(3.0, 1.0))
        np.testing.assert_allclose(split.D, [3.5, 2.5, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        expected = np.array([[s, s, 0.0], [s, -s, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(split.basis, expected, atol=1e-12)
        np.testing.assert_allclose(
            split.S, np.array([[0.0, -0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]), atol=1e-12
        )

    def test_random_reconstruction(self):
        rng = np.random.default_rng(1)
        A = rng.uniform(-1, 1, (5, 5))
        split = expansion_eigenbasis(A)
        rebuilt = split.basis @ (np.diag(split.D) + split.S) @ split.basis.T
        assert np.max(np.abs(rebuilt - A)) < 1e-10
        assert np.all(np.diff(split.D) <= 1e-12)  # descending
        np.testing.assert_allclose(split.S, -split.S.T, atol=1e-15)

    def test_skew_entries_are_half_rotation_traces(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(-1, 1, (4, 4))
        split = expansion_eigenbasis(A)
        B = split.basis.T @ A @ split.basis
        for p, q in plane_pairs(4):
            half_trace = 0.5 * np.trace(rotation_form(B, (p, q)).matrix)
            assert split.S[q - 1, p - 1] == pytest.approx(half_trace, abs=1e-12)

    def test_rejects_pure_skew(self):
        with pytest.raises(InputError, match="skew"):
            expansion_eigenbasis(np.array([[0.0, 1.0], [-1.0, 0.0]]))


class TestSkewCanonicalBasis:
    def test_planar_block(self):
        block = skew_canonical_basis(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert block.zero_dim == 0
        np.testing.assert_allclose(block.lambdas, [1.0], atol=1e-12)
        K = np.array([[0.0, 1.0], [-1.0, 0.0]])
        reduced = block.basis.T @ K @ block.basis
        np.testing.assert_allclose(reduced, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-12)

    def test_odd_dimension_forces_kernel(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((3, 3))
        A = M - M.T
        block = skew_canonical_basis(A)
        assert len(block.lambdas) == 1
        assert block.zero_dim == 1

    def test_reduction_and_sign_convention(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((5, 5))
        A = M - M.T
        block = skew_canonical_basis(A)
        n = 5
        target = np.zeros((n, n))
        for i, lam in enumerate(block.lambdas):
            assert lam > 0.0
            target[2 * i, 2 * i + 1] = lam
            target[2 * i + 1, 2 * i] = -lam
        reduced = block.basis.T @ A @ block.basis
        np.testing.assert_allclose(reduced, target, atol=1e-9)
        # blocks ordered by descending rate
        assert list(block.lambdas) == sorted(block.lambdas, reverse=True)

    def test_matches_quasi_rotation_combination(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((4, 4))
        A = M - M.T
        block = skew_canonical_basis(A)
        reduced = block.basis.T @ A @ block.basis
        combo = np.zeros((4, 4))
        for i, lam in enumerate(block.lambdas):
            combo -= lam * quasi_rotation(4, (2 * i + 1, 2 * i + 2))
        np.testing.assert_allclose(reduced, combo, atol=1e-9)

    def test_lambdas_equal_negative_half_rotation_traces(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((6, 6))
        A = M - M.T
        block = skew_canonical_basis(A)
        reduced = block.basis.T @ A @ block.basis
        for i, lam in enumerate(block.lambdas):
            pair = (2 * i + 1, 2 * i + 2)
            trace = np.trace(rotation_form(reduced, pair).matrix)
            assert lam == pytest.approx(-0.5 * trace, abs=1e-10)

    def test_block_eigenvalues_pure_imaginary(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, 4))
        A = M - M.T
        block = skew_canonical_basis(A)
        eigs = np.linalg.eigvals(A)
        rates = sorted(abs(e.imag) for e in eigs)
        expected = sorted([lam for lam in block.lambdas for _ in range(2)])
        np.testing.assert_allclose(rates, expected, atol=1e-10)
        assert np.max(np.abs(eigs.real)) < 1e-10

    def test_rejects_symmetric(self):
        with pytest.raises(InputError, match="symmetric"):
            skew_canonical_basis(np.eye(3))

    def test_a_rate_near_the_kernel_cut_keeps_its_certificate(self):
        # K = Q blockdiag(rates 1, 1, 1, r) Q^T: whether r is cut into the kernel or kept
        # as a block, the returned basis must pass the certificate
        for r in (2e-12, 4e-12, 6e-12):
            rates = block_diag(*(lam * np.array([[0.0, 1.0], [-1.0, 0.0]]) for lam in (1, 1, 1, r)))
            for seed in range(10):
                Q = random_orthogonal(8, seed)
                K = Q @ rates @ Q.T
                block = skew_canonical_basis(K)
                target = block_diag(*(lam * np.array([[0.0, 1.0], [-1.0, 0.0]])
                                      for lam in block.lambdas), np.zeros((block.zero_dim,) * 2))
                reduced = block.basis.T @ K @ block.basis
                bound = DEFAULT_TOL.eig_off_tol * np.linalg.norm(K)
                assert np.linalg.norm(reduced - target) <= bound, (r, seed)


class TestNormalityReport:
    def test_normal_block_matrix(self):
        A = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        rep = normality_report(A)
        assert rep.is_normal
        assert rep.violating_pairs == ()
        assert np.max(np.abs(A @ A.T - A.T @ A)) < 1e-12  # oracle
        # the repeated expansion eigenvalue pair carries the skew block
        values = sorted(rep.expansion_eigenvalues)
        assert values[0] == pytest.approx(values[1], abs=1e-12)

    def test_shear_example_not_normal(self):
        rep = normality_report(jordan_shear(3.0, 1.0))
        assert not rep.is_normal
        assert len(rep.violating_pairs) == 1
        i, j, trace, gap = rep.violating_pairs[0]
        assert (i, j) == (1, 2)
        assert trace == pytest.approx(1.0, abs=1e-12)
        assert gap == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_is_normal(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((4, 4))
        rep = normality_report(M + M.T)
        assert rep.is_normal and rep.violating_pairs == () and rep.commutator_norm == 0.0

    def test_pure_skew_is_normal(self):
        rep = normality_report(np.array([[0.0, 2.0], [-2.0, 0.0]]))
        assert rep.is_normal

    def test_agrees_with_commutation_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            n = int(rng.integers(3, 6))
            if trial % 2 == 0:
                A = random_normal_matrix(rng, n)
                expected = True
            else:
                A = rng.uniform(-1, 1, (n, n))
                gap = np.max(np.abs(A @ A.T - A.T @ A))
                expected = gap <= 1e-9 * max(1.0, np.max(np.abs(A)) ** 2)
            assert normality_report(A).is_normal == expected


class TestNormalPowerBasis:
    def test_rotation_scaling_block_plus_axis(self):
        A = block_diag(rotation_scaling_block(1.0, 0.7), np.array([[2.0]]))
        P, checks = normal_power_basis(A)
        for key, value in checks.items():
            assert value < 1e-9, (key, value)
        S = 0.5 * (P.T @ A @ P - (P.T @ A @ P).T)
        off = S @ S - np.diag(np.diag(S @ S))
        assert np.max(np.abs(off)) < 1e-10

    def test_symmetric_matrix_trivial(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((3, 3))
        P, checks = normal_power_basis(M + M.T)
        assert checks["skew_square"] == 0.0
        assert checks["power_commutator_max"] < 1e-9

    def test_random_normal_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            A = random_normal_matrix(rng, 4)
            P, checks = normal_power_basis(A)
            assert np.max(np.abs(P.T @ P - np.eye(4))) < 1e-10
            for key, value in checks.items():
                assert value < 1e-9, (key, value)

    def test_rejects_non_normal(self):
        with pytest.raises(InputError, match="not normal"):
            normal_power_basis(jordan_shear(3.0, 1.0))

    @pytest.mark.parametrize("seed", range(20))
    def test_tied_expansion_eigenvalues_refine_within_their_block(self, seed):
        # Q blockdiag(B(1), B(3), B(5)) Q^T, B(r) = [[1, r], [-r, 1]]: the expansion
        # form is I, so every refinement step solves a block that rounding leaves
        # a little asymmetric
        Q = random_orthogonal(6, seed)
        A = Q @ block_diag(*(rotation_scaling_block(1.0, r) for r in (1.0, 3.0, 5.0))) @ Q.T
        P, checks = normal_power_basis(A)
        assert np.max(np.abs(P.T @ P - np.eye(6))) < 1e-12
        for key, value in checks.items():
            assert value < 1e-9, (key, value)
        pms, rank = normal_invariant_recover(A)
        assert rank == 6
        for got, exact in zip(pms, minor_sums_exact(A)):
            assert abs(got - float(exact)) <= 1e-8 * max(1.0, abs(float(exact)))

    @staticmethod
    def ladder_normal(n, k, tied):
        # tools/ladder.py's distinct and tied families at even n: Q blockdiag([[a, b], [-b, a]],
        # ...) Q^T from default_rng([n, k]), b uniform(0.5, 2), a uniform(-1, 1) or 1
        rng = np.random.default_rng([n, k])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = rng.uniform(0.5, 2.0, n // 2)
        a = np.ones(n // 2) if tied else rng.uniform(-1.0, 1.0, n // 2)
        return Q @ block_diag(*map(rotation_scaling_block, a, b)) @ Q.T

    @pytest.mark.parametrize("n", [8, 12, 16])
    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    def test_every_check_is_relative_to_what_it_checks(self, n, tied):
        # measured on X^k itself, not absolutely, each check stays at rounding although
        # X^16 may have entries near 2^16
        for k in range(20):
            P, checks = normal_power_basis(self.ladder_normal(n, k, tied))
            assert list(checks)[-2:] == ["skew_square", "power_commutator_max"]
            assert max(checks.values()) <= 1e-12, (k, max(checks, key=checks.get))

    @staticmethod
    def near_skew(seed):
        # sym(A) is rounding noise, 1e-16 to 2e-16 of max|A|
        R = np.array([[0.0, 1.0], [-1.0, 0.0]])
        Q = random_orthogonal(6, seed)
        return Q @ block_diag(R, 2 * R, 3 * R) @ Q.T

    @pytest.mark.parametrize("seed", range(5))
    def test_a_noise_symmetric_part_is_one_tied_run(self, seed):
        # the tie is relative to max|A|, so the noise eigenvalues form one run that K^2
        # refines, and K^2 comes out diagonal
        A = self.near_skew(seed)
        P, checks = normal_power_basis(A)
        assert max(checks.values()) <= 1e-12, checks
        S = P.T @ A @ P
        off = S @ S - np.diag(np.diag(S @ S))
        assert np.max(np.abs(off)) < 1e-12

    def test_a_failing_check_is_refused_by_name(self, monkeypatch):
        # with the tie relative to max|sym A| no run is tied, K^2 never refines the basis,
        # and the checks that catch it end in NumericalError
        A = self.near_skew(0)
        ratio = np.max(np.abs(A + A.T)) / 2 / np.max(np.abs(A))
        runs = rotform.canonical.ascending_runs
        monkeypatch.setattr(rotform.canonical, "ascending_runs",
                            lambda w, tie: runs(w, tie * ratio))
        with pytest.raises(NumericalError, match=r"^check \w+ = \S+ exceeds residual_tol$"):
            normal_power_basis(A)
