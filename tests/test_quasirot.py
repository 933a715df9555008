import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rotform import (
    InputError,
    almost_orthogonal_expand,
    apply_quasi_rotation,
    plane_pairs,
    quasi_rotation,
    rotation_change_of_basis,
    random_orthogonal,
    rotation_form,
    skew_rotation_coeffs,
)
from rotform.quasirot import (
    RotationCoeffs,
    check_plane_pair,
    coeffs_to_matrix,
)

from oracles import reassemble


class TestQuasiRotationMatrix:
    def test_planar(self):
        np.testing.assert_array_equal(quasi_rotation(2, (1, 2)),
                                      np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_three_dim_13(self):
        R = quasi_rotation(3, (1, 3))
        expected = np.zeros((3, 3))
        expected[2, 0] = 1.0
        expected[0, 2] = -1.0
        np.testing.assert_array_equal(R, expected)

    def test_annihilates_off_plane_basis_vectors(self):
        n = 5
        for k, l in plane_pairs(n):
            R = quasi_rotation(n, (k, l))
            for m in range(1, n + 1):
                e = np.zeros(n)
                e[m - 1] = 1.0
                image = R @ e
                if m == k:
                    np.testing.assert_array_equal(image, apply_quasi_rotation(e, (k, l)))
                    assert image[l - 1] == 1.0
                elif m == l:
                    assert image[k - 1] == -1.0
                else:
                    assert not image.any()

    def test_skew_and_rank_two(self):
        R = quasi_rotation(6, (2, 5))
        np.testing.assert_array_equal(R, -R.T)
        assert np.linalg.matrix_rank(R) == 2

    def test_invalid_pairs(self):
        with pytest.raises(InputError):
            quasi_rotation(3, (2, 2))
        with pytest.raises(InputError):
            quasi_rotation(3, (3, 1))
        with pytest.raises(InputError):
            quasi_rotation(3, (1, 4))
        with pytest.raises(InputError):
            check_plane_pair(3, "12")
        with pytest.raises(InputError, match=r"^plane pair must be a \(k, l\) index pair"):
            check_plane_pair(3, ("one", 2))


@pytest.mark.parametrize("call", [
    lambda: quasi_rotation(3, (1.5, 2.9)),
    lambda: quasi_rotation(3, (True, 2)),
    lambda: rotation_form(np.eye(3), (1.9, 2)),
    lambda: check_plane_pair(3, (1, 2.0)),
    lambda: check_plane_pair(3, (np.float64(1.0), 2)),
    lambda: check_plane_pair(3, (1, np.True_)),
], ids=["floats", "bool", "form float", "integral float", "numpy float", "numpy bool"])
def test_an_index_that_is_no_integer_is_refused(call):
    with pytest.raises(InputError, match=r"^plane pair must be a \(k, l\) index pair"):
        call()


def test_numpy_integer_indices_come_back_as_python_ints():
    pair = check_plane_pair(4, (np.int64(1), np.uint8(3)))
    assert pair == (1, 3) and all(type(k) is int for k in pair)


class TestApplyQuasiRotation:
    def test_planar_quarter_turn(self):
        u = np.array([3.0, -2.0])
        np.testing.assert_array_equal(apply_quasi_rotation(u, (1, 2)), np.array([2.0, 3.0]))

    def test_basis_vector_maps_across_plane(self):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        out = apply_quasi_rotation(e1, (1, 3))
        np.testing.assert_array_equal(out, np.array([0.0, 0.0, 1.0, 0.0]))

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, 4, elements=st.floats(-100, 100)))
    def test_always_orthogonal_to_input(self, u):
        for pair in plane_pairs(4):
            assert abs(float(u @ apply_quasi_rotation(u, pair))) <= 1e-12 * max(1.0, float(u @ u))


class TestAlmostOrthogonalExpand:
    def test_axis_vector_reduces_to_components(self):
        u = np.array([2.0, -3.0, 5.0])
        v = np.array([1.0, 0.0, 0.0])
        c0, coeffs = almost_orthogonal_expand(u, v)
        assert c0 == 2.0
        assert coeffs[(1, 2)] == -3.0
        assert coeffs[(1, 3)] == 5.0
        assert coeffs[(2, 3)] == 0.0

    def test_self_expansion(self):
        v = np.array([0.6, 0.8, 0.0])
        c0, coeffs = almost_orthogonal_expand(v, v)
        assert c0 == pytest.approx(1.0, abs=1e-14)
        assert all(abs(c) < 1e-14 for _, c in coeffs.items())

    def test_random_reconstruction_and_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = rng.standard_normal(5)
            v = rng.standard_normal(5)
            v = v / np.linalg.norm(v)
            c0, coeffs = almost_orthogonal_expand(u, v)
            rebuilt = reassemble(c0, coeffs, v)
            assert np.linalg.norm(rebuilt - u) < 1e-10 * max(1.0, np.linalg.norm(u))
            total = c0 * c0 + coeffs.norm_sq()
            assert abs(total - float(u @ u)) < 1e-10 * max(1.0, float(u @ u))

    def test_rejects_non_unit_axis(self):
        with pytest.raises(InputError):
            almost_orthogonal_expand(np.ones(3), np.array([1.0, 1.0, 0.0]))

    def test_rejects_vectors_of_different_lengths(self):
        with pytest.raises(InputError, match="^dimension mismatch: 2 vs 3$"):
            almost_orthogonal_expand(np.ones(2), np.array([1.0, 0.0, 0.0]))


class TestSquaredRotationIdentity:
    def test_reassembles_negative_scaled_vector(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5, 8):
            u = rng.standard_normal(n)
            total = np.zeros(n)
            for pair in plane_pairs(n):
                R = quasi_rotation(n, pair)
                total += R @ (R @ u)
            np.testing.assert_allclose(-total / (n - 1), u, atol=1e-12)


class TestSpanAndGeneration:
    def test_rotated_images_span_complement(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 5, 8):
            v = rng.standard_normal(n)
            cols = [v] + [apply_quasi_rotation(v, pair) for pair in plane_pairs(n)]
            assert np.linalg.matrix_rank(np.column_stack(cols)) == n

    def test_matrices_span_skew_space(self):
        n = 5
        stack = np.array([quasi_rotation(n, pair).ravel() for pair in plane_pairs(n)])
        assert stack.shape[0] == n * (n - 1) // 2
        assert np.linalg.matrix_rank(stack) == n * (n - 1) // 2


class TestSkewRotationCoeffs:
    def test_planar_block(self):
        S = np.array([[0.0, 1.7], [-1.7, 0.0]])
        coeffs = skew_rotation_coeffs(S)
        assert coeffs[(1, 2)] == -1.7

    def test_zero_matrix(self):
        coeffs = skew_rotation_coeffs(np.zeros((3, 3)))
        assert all(c == 0.0 for _, c in coeffs.items())

    def test_random_skew_roundtrip_exact(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((4, 4))
        S = M - M.T
        coeffs = skew_rotation_coeffs(S)
        np.testing.assert_allclose(coeffs_to_matrix(coeffs), S, atol=1e-15)

    def test_rejects_non_skew(self):
        with pytest.raises(InputError):
            skew_rotation_coeffs(np.eye(3))


class TestRotationChangeOfBasis:
    def test_identity_basis(self):
        coeffs = rotation_change_of_basis(np.eye(4), (2, 4))
        for pair, c in coeffs.items():
            assert c == (1.0 if pair == (2, 4) else 0.0)

    def test_planar_rotation_preserves_coefficient(self):
        for angle in (0.3, 1.2, -0.7):
            P = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            coeffs = rotation_change_of_basis(P, (1, 2))
            assert coeffs[(1, 2)] == pytest.approx(1.0, abs=1e-14)

    def test_reassembly_matches_conjugation(self):
        # conjugation oracle: the combination must equal P [R_pq] P^T
        for seed in range(5):
            P = random_orthogonal(3, seed=seed)
            for pq in plane_pairs(3):
                coeffs = rotation_change_of_basis(P, pq)
                target = P @ quasi_rotation(3, pq) @ P.T
                np.testing.assert_allclose(coeffs_to_matrix(coeffs), target, atol=1e-10)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(InputError):
            rotation_change_of_basis(np.array([[1.0, 1.0], [0.0, 1.0]]), (1, 2))


class TestRotationCoeffsType:
    def test_domain_must_be_exact(self):
        with pytest.raises(InputError):
            RotationCoeffs(3, {(1, 2): 1.0})

    def test_vector_roundtrip(self):
        coeffs = RotationCoeffs(3, {(2, 3): 3.0, (1, 2): 1.0, (1, 3): 2.0})
        np.testing.assert_array_equal(coeffs.vector(), [1.0, 2.0, 3.0])
        assert coeffs[(1, 3)] == 2.0
