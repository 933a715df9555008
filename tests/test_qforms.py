import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rotform import (
    InputError,
    QForm,
    commutator_forms,
    decompose,
    evaluate,
    expansion_eigenbasis,
    expansion_form,
    form_average,
    form_extremes,
    form_family,
    plane_pairs,
    polar,
    random_orthogonal,
    rotation_form,
    rotation_form_change_of_basis,
    rotation_trace_sum,
    zero_subspace_extend,
)
from oracles import rotation_values


def three_dim_form_matrices(A):
    """Entry formulas for the four forms on E^3, written out by hand."""
    a = A
    half = 0.5
    e = np.array([
        [a[0, 0], half * (a[0, 1] + a[1, 0]), half * (a[0, 2] + a[2, 0])],
        [half * (a[0, 1] + a[1, 0]), a[1, 1], half * (a[1, 2] + a[2, 1])],
        [half * (a[0, 2] + a[2, 0]), half * (a[1, 2] + a[2, 1]), a[2, 2]],
    ])
    r12 = np.array([
        [a[1, 0], half * (a[1, 1] - a[0, 0]), half * a[1, 2]],
        [half * (a[1, 1] - a[0, 0]), -a[0, 1], -half * a[0, 2]],
        [half * a[1, 2], -half * a[0, 2], 0.0],
    ])
    r13 = np.array([
        [a[2, 0], half * a[2, 1], half * (a[2, 2] - a[0, 0])],
        [half * a[2, 1], 0.0, -half * a[0, 1]],
        [half * (a[2, 2] - a[0, 0]), -half * a[0, 1], -a[0, 2]],
    ])
    r23 = np.array([
        [0.0, half * a[2, 0], -half * a[1, 0]],
        [half * a[2, 0], a[2, 1], half * (a[2, 2] - a[1, 1])],
        [-half * a[1, 0], half * (a[2, 2] - a[1, 1]), -a[1, 2]],
    ])
    return e, r12, r13, r23


class TestExpansionForm:
    def test_two_by_two(self):
        q = expansion_form(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(q.matrix, np.array([[1.0, 2.5], [2.5, 4.0]]))

    def test_symmetric_fixed_point(self):
        S = np.array([[2.0, -1.0], [-1.0, 5.0]])
        np.testing.assert_array_equal(expansion_form(S).matrix, S)

    def test_skew_gives_zero_form(self):
        S = np.array([[0.0, 3.0], [-3.0, 0.0]])
        np.testing.assert_array_equal(expansion_form(S).matrix, np.zeros((2, 2)))

    def test_trace_preserved_exactly(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(-1, 1, (5, 5))
        assert np.trace(expansion_form(A).matrix) == np.trace(A)


class TestRotationForm:
    def test_two_by_two(self):
        q = rotation_form(np.array([[1.0, 2.0], [3.0, 4.0]]), (1, 2))
        np.testing.assert_array_equal(q.matrix, np.array([[3.0, 1.5], [1.5, -2.0]]))

    def test_identity_has_zero_rotation(self):
        for n in (2, 3, 5):
            for pair in plane_pairs(n):
                assert not rotation_form(np.eye(n), pair).matrix.any()

    def test_three_dim_entry_formulas(self):
        rng = np.random.default_rng(1)
        A = rng.uniform(-2.0, 2.0, (3, 3))
        e, r12, r13, r23 = three_dim_form_matrices(A)
        np.testing.assert_allclose(expansion_form(A).matrix, e, atol=1e-15)
        np.testing.assert_allclose(rotation_form(A, (1, 2)).matrix, r12, atol=1e-15)
        np.testing.assert_allclose(rotation_form(A, (1, 3)).matrix, r13, atol=1e-15)
        np.testing.assert_allclose(rotation_form(A, (2, 3)).matrix, r23, atol=1e-15)

    def test_only_plane_rows_and_columns_touched(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(-1, 1, (6, 6))
        M = rotation_form(A, (2, 5)).matrix
        mask = np.zeros((6, 6), dtype=bool)
        mask[1, :] = mask[:, 1] = mask[4, :] = mask[:, 4] = True
        assert not M[~mask].any()

    def test_evaluation_formula(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(-1, 1, (4, 4))
        u = rng.standard_normal(4)
        w = A @ u
        for (k, l) in plane_pairs(4):
            direct = w[l - 1] * u[k - 1] - w[k - 1] * u[l - 1]
            assert evaluate(rotation_form(A, (k, l)), u) == pytest.approx(direct, abs=1e-12)


class TestEvaluatePolar:
    def test_identity_on_unit_vector(self):
        q = QForm(3, np.eye(3))
        assert evaluate(q, np.array([0.6, 0.8, 0.0])) == pytest.approx(1.0)

    def test_balanced_indefinite(self):
        q = QForm(2, np.diag([1.0, -1.0]))
        assert evaluate(q, np.array([1.0, 1.0]) / np.sqrt(2)) == pytest.approx(0.0, abs=1e-15)

    def test_planar_forms_at_basis_vector(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        e1 = np.array([1.0, 0.0])
        assert evaluate(expansion_form(A), e1) == A[0, 0]
        assert evaluate(rotation_form(A, (1, 2)), e1) == A[1, 0]

    def test_polar_diagonal_orthogonal_directions(self):
        q = QForm(3, np.diag([1.0, -1.0, 0.0]))
        assert polar(q, np.array([1.0, 0, 0]), np.array([0.0, 0, 1])) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (2, 3), elements=st.floats(-10, 10)))
    def test_polarization_identity(self, uv):
        u, v = uv
        rng = np.random.default_rng(4)
        M = rng.standard_normal((3, 3))
        q = QForm(3, M + M.T)
        lhs = 2.0 * polar(q, u, v)
        rhs = evaluate(q, u + v) - evaluate(q, u) - evaluate(q, v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_polar_matches_quadratic(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((4, 4))
        q = QForm(4, M + M.T)
        u = rng.standard_normal(4)
        assert polar(q, u, u) == pytest.approx(evaluate(q, u), rel=1e-12)


class TestZeroSubspaceExtend:
    def test_kernel_vector_always_extends(self):
        q = QForm(3, np.diag([1.0, -1.0, 0.0]))
        W = [np.array([1.0, 1.0, 0.0]) / np.sqrt(2)]
        assert zero_subspace_extend(q, W, np.array([0.0, 0.0, 1.0])) is True

    def test_independent_zero_line_fails(self):
        q = QForm(3, np.diag([1.0, -1.0, 0.0]))
        W = [np.array([1.0, 1.0, 0.0]) / np.sqrt(2)]
        w = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        assert zero_subspace_extend(q, W, w) is False

    def test_rejects_non_zero_member(self):
        q = QForm(3, np.diag([1.0, -1.0, 0.0]))
        with pytest.raises(InputError, match="W\\[0\\]"):
            zero_subspace_extend(q, [np.array([1.0, 0.0, 0.0])], np.array([0.0, 0.0, 1.0]))


class TestFormAverage:
    def test_diagonal(self):
        assert form_average(QForm(3, np.diag([1.0, 2.0, 3.0]))) == 2.0

    def test_traceless(self):
        assert form_average(QForm(2, np.array([[1.0, 0.5], [0.5, -1.0]]))) == 0.0

    def test_achieved_at_all_sign_corners(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 4, 5, 6):
            q = QForm(n, np.diag(rng.uniform(-2, 2, n)))
            avg = form_average(q)
            for bits in range(2 ** n):
                signs = np.array([1.0 if bits & (1 << i) else -1.0 for i in range(n)])
                corner = signs / np.sqrt(n)
                assert evaluate(q, corner) == pytest.approx(avg, abs=1e-12)


class TestFormExtremes:
    def test_diagonal(self):
        lo, hi, vmin, vmax = form_extremes(QForm(3, np.diag([-1.0, 0.0, 2.0])))
        assert (lo, hi) == (-1.0, 2.0)
        np.testing.assert_allclose(np.abs(vmin), [1, 0, 0], atol=1e-14)
        np.testing.assert_allclose(np.abs(vmax), [0, 0, 1], atol=1e-14)

    def test_identity(self):
        lo, hi, _, _ = form_extremes(QForm(2, np.eye(2)))
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    def test_bounds_hold_on_random_unit_sample(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, 4))
        q = QForm(4, M + M.T)
        lo, hi, _, _ = form_extremes(q)
        U = rng.standard_normal((10_000, 4))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        values = np.einsum("ij,jk,ik->i", U, q.matrix, U)
        assert values.min() >= lo - 1e-12
        assert values.max() <= hi + 1e-12


class TestDecompose:
    def test_planar_basis_vector(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        dec = decompose(A, np.array([1.0, 0.0]))
        assert dec.e == 1.0
        assert dec.r[(1, 2)] == 3.0
        assert dec.residual < 1e-15

    def test_eigenvector_of_symmetric_matrix(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((4, 4))
        Q = M + M.T
        w, P = np.linalg.eigh(Q)
        dec = decompose(Q, P[:, 2])
        assert dec.e == pytest.approx(w[2], abs=1e-10)
        assert all(abs(c) < 1e-10 for _, c in dec.r.items())

    def test_basis_vector_in_expansion_eigenbasis(self):
        rng = np.random.default_rng(9)
        A = rng.uniform(-1, 1, (4, 4))
        split = expansion_eigenbasis(A)
        B = split.basis.T @ A @ split.basis
        for p in range(1, 5):
            e_p = np.zeros(4)
            e_p[p - 1] = 1.0
            dec = decompose(B, e_p)
            assert dec.e == pytest.approx(split.D[p - 1], abs=1e-10)
            for q in range(p + 1, 5):
                half_trace = 0.5 * np.trace(rotation_form(B, (p, q)).matrix)
                assert dec.r[(p, q)] == pytest.approx(half_trace, abs=1e-10)

    def test_reconstruction_and_norm_identity_random(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            A = rng.uniform(-1, 1, (n, n))
            u = rng.standard_normal(n)
            dec = decompose(A, u)
            assert dec.residual < 1e-10
            uhat = u / np.linalg.norm(u)
            w = A @ uhat
            assert abs(float(w @ w) - dec.e ** 2 - dec.r.norm_sq()) < 1e-10 * max(1.0, float(w @ w))

    def test_rejects_zero_vector(self):
        with pytest.raises(InputError):
            decompose(np.eye(2), np.zeros(2))

    def test_zero_image_uses_absolute_residual(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        dec = decompose(A, np.array([1.0, 0.0]))  # A annihilates this direction
        assert dec.e == 0.0
        assert dec.r[(1, 2)] == 0.0
        assert dec.residual < 1e-12


class TestCommutatorForms:
    def test_symmetric_input_kills_skew_piece(self):
        S = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 1.0], [0.0, 1.0, 3.0]])
        _, skew_part = commutator_forms(S, (1, 2))
        assert not skew_part.matrix.any()

    def test_skew_input_kills_sym_piece(self):
        K = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
        sym_part, _ = commutator_forms(K, (1, 3))
        assert not sym_part.matrix.any()

    def test_pieces_sum_to_rotation_form(self):
        rng = np.random.default_rng(11)
        A = rng.uniform(-1, 1, (4, 4))
        for pair in plane_pairs(4):
            sym_part, skew_part = commutator_forms(A, pair)
            np.testing.assert_allclose(
                sym_part.matrix + skew_part.matrix,
                rotation_form(A, pair).matrix,
                atol=1e-12,
            )
            assert abs(np.trace(sym_part.matrix)) < 1e-12


class TestRotationFormBasisChange:
    def test_identity_basis(self):
        rng = np.random.default_rng(12)
        A = rng.uniform(-1, 1, (3, 3))
        for pair in plane_pairs(3):
            np.testing.assert_allclose(
                rotation_form_change_of_basis(A, np.eye(3), pair).matrix,
                rotation_form(A, pair).matrix,
                atol=1e-14,
            )

    def test_matches_direct_computation_in_new_basis(self):
        rng = np.random.default_rng(13)
        A = rng.uniform(-1, 1, (3, 3))
        for seed in range(4):
            P = random_orthogonal(3, seed=seed)
            B = P.T @ A @ P
            for pair in plane_pairs(3):
                combined = rotation_form_change_of_basis(A, P, pair).matrix
                direct = rotation_form(B, pair).matrix
                np.testing.assert_allclose(P.T @ combined @ P, direct, atol=1e-10)

    def test_eigenvector_stays_a_common_zero(self):
        A = np.diag([1.0, 2.0, 3.0]) + np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]])
        u = np.array([1.0, 0.0, 0.0])  # eigenvector for 1
        P = random_orthogonal(3, seed=5)
        for pair in plane_pairs(3):
            q = rotation_form_change_of_basis(A, P, pair)
            assert abs(evaluate(q, u)) < 1e-12


class TestRotationTraceSum:
    def test_symmetric_vanishes_in_every_basis(self):
        S = np.array([[1.0, 0.5], [0.5, 2.0]])
        assert rotation_trace_sum(S, np.eye(2)) == 0.0
        assert abs(rotation_trace_sum(S, random_orthogonal(2, seed=3))) < 1e-12

    def test_identity_basis_formula(self):
        rng = np.random.default_rng(14)
        A = rng.uniform(-1, 1, (4, 4))
        skew = 0.5 * (A - A.T)
        expected = -2.0 * sum(skew[k - 1, l - 1] for k, l in plane_pairs(4))
        assert rotation_trace_sum(A, np.eye(4)) == pytest.approx(expected, abs=1e-12)

    def test_matches_summing_form_traces_in_new_basis(self):
        # two-route oracle: the skew-entry shortcut against literally building
        # every rotation form in the new basis and summing traces
        rng = np.random.default_rng(15)
        A = rng.uniform(-1, 1, (5, 5))
        for seed in range(6):
            P = random_orthogonal(5, seed=seed)
            B = P.T @ A @ P
            direct = sum(np.trace(rotation_form(B, pair).matrix) for pair in plane_pairs(5))
            assert rotation_trace_sum(A, P) == pytest.approx(direct, abs=1e-12)

    def test_planar_proper_rotation_invariance(self):
        rng = np.random.default_rng(16)
        A = rng.uniform(-1, 1, (2, 2))
        base = rotation_trace_sum(A, np.eye(2))
        for angle in (0.3, 1.1, 2.9):
            P = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            assert rotation_trace_sum(A, P) == pytest.approx(base, abs=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="the summed rotation trace is a per-basis quantity for n >= 3: "
        "conjugation does not fix the all-ones skew pairing matrix, so the "
        "claimed invariance under arbitrary orthonormal basis change fails",
    )
    def test_claimed_invariance_across_generic_bases(self):
        rng = np.random.default_rng(15)
        A = rng.uniform(-1, 1, (5, 5))
        base = rotation_trace_sum(A, np.eye(5))
        for seed in range(6):
            P = random_orthogonal(5, seed=seed)
            assert rotation_trace_sum(A, P) == pytest.approx(base, abs=1e-9)


class TestFamilyInvariants:
    def test_expansion_matches_symmetric_action(self):
        rng = np.random.default_rng(16)
        A = rng.uniform(-1, 1, (5, 5))
        Asym = 0.5 * (A + A.T)
        for _ in range(20):
            u = rng.standard_normal(5)
            u /= np.linalg.norm(u)
            assert evaluate(expansion_form(A), u) == pytest.approx(float(u @ Asym @ u), abs=1e-12)

    def test_skew_part_reconstructed_from_rotation_traces(self):
        rng = np.random.default_rng(17)
        A = rng.uniform(-1, 1, (5, 5))
        family = form_family(A)
        rebuilt = np.zeros((5, 5))
        for (k, l), q in family.rotations.items():
            R = np.zeros((5, 5))
            R[l - 1, k - 1] = 1.0
            R[k - 1, l - 1] = -1.0
            rebuilt += 0.5 * np.trace(q.matrix) * R
        np.testing.assert_allclose(rebuilt, 0.5 * (A - A.T), atol=1e-12)

    def test_family_trace_identity(self):
        rng = np.random.default_rng(18)
        A = rng.uniform(-1, 1, (4, 4))
        family = form_family(A)
        skew = 0.5 * (A - A.T)
        for (k, l), q in family.rotations.items():
            assert np.trace(q.matrix) == pytest.approx(-2.0 * skew[k - 1, l - 1], abs=1e-13)

    def test_forms_linearly_independent(self):
        rng = np.random.default_rng(19)
        for n in (3, 4, 5):
            A = rng.uniform(-1, 1, (n, n))
            family = form_family(A)
            stack = [family.expansion.matrix.ravel()]
            stack += [q.matrix.ravel() for q in family.rotations.values()]
            stack = np.array(stack)
            assert np.linalg.matrix_rank(stack) == n * (n - 1) // 2 + 1

    def test_rotation_values_match_forms(self):
        rng = np.random.default_rng(20)
        A = rng.uniform(-1, 1, (5, 5))
        u = rng.standard_normal(5)
        values = rotation_values(A, u)
        for pair in plane_pairs(5):
            assert values[pair] == pytest.approx(evaluate(rotation_form(A, pair), u), abs=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: QForm(3, np.eye(2)), r"^form matrix shape \(2, 2\) does not match n = 3$"),
    (lambda: QForm(2, [[1.0, 2.0], [0.0, 1.0]]), "^form matrix is not symmetric"),
    (lambda: evaluate(expansion_form(np.eye(2)), [1.0, 0.0, 0.0]),
     "^dimension mismatch: form is 2-dimensional, vector is 3$"),
    (lambda: polar(expansion_form(np.eye(2)), [1.0, 0.0], [1.0, 0.0, 0.0]),
     "^dimension mismatch: form is 2-dimensional$"),
    (lambda: rotation_form_change_of_basis(np.eye(2), np.eye(3), (1, 2)),
     "^basis dimension does not match the matrix$"),
    (lambda: form_family(np.eye(2), np.eye(3)), "^basis dimension does not match the matrix$"),
], ids=["QForm shape", "QForm asymmetric", "evaluate", "polar", "change of basis",
        "form family"])
def test_an_input_that_does_not_fit_is_refused(call, message):
    with pytest.raises(InputError, match=message):
        call()
