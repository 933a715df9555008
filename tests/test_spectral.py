import json
import math

import numpy as np
import pytest

import rotform.linalg
from rotform.cli import main
from rotform import (
    InputError,
    NumericalError,
    bromwich_bounds,
    common_zero_check,
    eigenstructure,
    evaluate,
    expansion_eigenbasis,
    expansion_form,
    planar_analyze,
    random_orthogonal,
    real_spectrum,
    rotation_form,
    skew_canonical_basis,
    skew_square_structure,
)

from oracles import (
    INTEGER_JORDAN_CASES,
    integer_similar,
    jordan_form,
    jordan_shear,
    planar_eigs_direct,
    rotation_scaling_block,
    row_reduce_rank,
    similarity_with_jordan,
)


class TestCommonZeroCheck:
    def test_eigenvector_of_diagonal(self):
        assert common_zero_check(np.diag([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 0.0]))

    def test_rotation_has_no_common_zero(self):
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        rng = np.random.default_rng(0)
        for _ in range(25):
            u = rng.standard_normal(2)
            assert not common_zero_check(A, u)

    def test_shear_example_directions(self):
        A = jordan_shear(3.0, 1.0)
        split = expansion_eigenbasis(A)
        B = split.basis.T @ A @ split.basis
        b3 = np.array([0.0, 0.0, 1.0])
        diag_dir = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert common_zero_check(B, b3)
        assert common_zero_check(B, diag_dir)
        # no other common-zero directions: scan a grid of unit vectors
        rng = np.random.default_rng(1)
        for _ in range(200):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            if common_zero_check(B, u, tol=1e-6):
                alignment = max(abs(float(u @ b3)), abs(float(u @ diag_dir)))
                assert alignment > 1.0 - 1e-6

    def test_matches_orthogonal_component_criterion(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(-1, 1, (4, 4))
        for _ in range(50):
            u = rng.standard_normal(4)
            uhat = u / np.linalg.norm(u)
            w = A @ uhat
            tangential = w - float(w @ uhat) * uhat
            forms_zero = common_zero_check(A, u, tol=1e-8)
            geometric_zero = np.linalg.norm(tangential) <= 1e-8 * np.max(np.abs(A)) * 4
            assert forms_zero == geometric_zero

    def test_rejects_zero_vector(self):
        with pytest.raises(InputError):
            common_zero_check(np.eye(2), np.zeros(2))

    def test_rejects_wrong_length_vector(self):
        with pytest.raises(InputError, match="3 components"):
            common_zero_check(np.eye(3), np.ones(2))


class TestEigenstructure:
    def test_identity_full_multiplicity(self):
        rep = eigenstructure(np.eye(3))
        assert len(rep.entries) == 1
        entry = rep.entries[0]
        assert entry.value == pytest.approx(1.0, abs=1e-12)
        assert entry.geometric_multiplicity == 3
        assert rep.flags == ()

    def test_shear_example(self):
        rep = eigenstructure(jordan_shear(3.0, 1.0))
        assert [e.value for e in rep.entries] == pytest.approx([1.0, 3.0], abs=1e-9)
        assert [e.geometric_multiplicity for e in rep.entries] == [1, 1]
        span_1 = rep.entries[0].eigenspace[0]
        span_3 = rep.entries[1].eigenspace[0]
        np.testing.assert_allclose(np.abs(span_1), [0.0, 0.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(np.abs(span_3), [1.0, 0.0, 0.0], atol=1e-9)
        assert rep.flags == ()

    def test_pure_rotation(self):
        rep = eigenstructure(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert rep.entries == ()
        assert len(rep.complex_pairs) == 1
        np.testing.assert_allclose(rep.bromwich, (0.0, 0.0, -1.0, 1.0), atol=1e-12)

    def test_expansion_recovers_eigenvalue(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            A = rng.uniform(-1, 1, (n, n))
            rep = eigenstructure(A)
            e_form = expansion_form(A)
            for entry in rep.entries:
                for vec in entry.eigenspace:
                    assert evaluate(e_form, vec) == pytest.approx(entry.value, abs=1e-9)

    def test_eigenspaces_of_distinct_values_disjoint(self):
        rng = np.random.default_rng(4)
        A = similarity_with_jordan(rng, [(2.0, 2, False), (-1.0, 2, True), (0.5, 1, False)])
        rep = eigenstructure(A)
        gms = {round(e.value, 6): e.geometric_multiplicity for e in rep.entries}
        assert gms == {2.0: 2, -1.0: 1, 0.5: 1}
        for i, a in enumerate(rep.entries):
            for b in rep.entries[i + 1:]:
                for u in a.eigenspace:
                    for v in b.eigenspace:
                        assert abs(float(u @ v)) < 1.0 - 1e-6

    def test_geometric_multiplicity_against_row_reduction(self):
        rng = np.random.default_rng(5)
        cases = [
            [(1.0, 2, True), (4.0, 1, False)],
            [(2.0, 3, True)],
            [(2.0, 2, False), (2.0, 2, True)],  # gm 3 for eigenvalue 2
            [(0.0, 2, True), (1.0, 2, False)],
        ]
        for blocks in cases:
            A = similarity_with_jordan(rng, blocks)
            rep = eigenstructure(A)
            for entry in rep.entries:
                n = A.shape[0]
                oracle = n - row_reduce_rank(A - entry.value * np.eye(n), tol=1e-7)
                assert entry.geometric_multiplicity == oracle


class TestMultiplicitiesAddUp:
    """Geometric multiplicities of distinct eigenvalues add up to at most n
    and none exceeds its algebraic multiplicity."""

    @staticmethod
    def _pairs(A):
        return [(e.value, e.geometric_multiplicity) for e in eigenstructure(A).entries]

    def test_gap_below_the_old_floor_gives_two_simple_eigenvalues(self):
        pairs = self._pairs(np.diag([1.0, 1.0 + 1e-8, 3.0]))
        assert [g for _, g in pairs] == [1, 1, 1]
        assert [v for v, _ in pairs] == pytest.approx([1.0, 1.0 + 1e-8, 3.0], abs=1e-13)

    def test_triple_beside_a_close_neighbour_is_listed_once(self):
        pairs = self._pairs(np.diag([1.0, 1.0, 1.0, 1.000012, 5.0]))
        assert [g for _, g in pairs] == [3, 1, 1]
        assert [v for v, _ in pairs] == pytest.approx([1.0, 1.000012, 5.0], abs=1e-13)

    @pytest.mark.parametrize("diagonal, expected", [
        ("1 0 0\n0 1.00000001 0\n0 0 3\n", [(1.0, 1), (1.00000001, 1), (3.0, 1)]),
        ("1 0 0 0 0\n0 1 0 0 0\n0 0 1 0 0\n0 0 0 1.000012 0\n0 0 0 0 5\n",
         [(1.0, 3), (1.000012, 1), (5.0, 1)]),
    ], ids=["gap-1e-8", "triple-beside-1.2e-5"])
    def test_cli_analyze_reports_each_eigenvalue_once(self, tmp_path, diagonal, expected):
        (tmp_path / "m.txt").write_text(diagonal)
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(tmp_path / "m.txt"), "--output", str(out)]) == 0
        entries = json.loads(out.read_text())["spectral"]["real_eigenvalues"]
        assert [e["geometric_multiplicity"] for e in entries] == [g for _, g in expected]
        assert [e["value"] for e in entries] == pytest.approx([v for v, _ in expected], abs=1e-13)

    @pytest.mark.parametrize("blocks, expected", INTEGER_JORDAN_CASES.values(),
                             ids=list(INTEGER_JORDAN_CASES))
    def test_integer_jordan_oracle(self, blocks, expected):
        J = jordan_form(*blocks)
        rng = np.random.default_rng(len(J) + int(np.trace(J)))
        for _ in range(30):
            A = integer_similar(rng, J)
            pairs = self._pairs(A)
            assert [g for _, g in pairs] == [g for _, g in expected]
            assert [v for v, _ in pairs] == pytest.approx(
                [v for v, _ in expected], abs=1e-6 * np.max(np.abs(A)))

    def test_more_kernel_directions_than_the_multiplicity_is_refused(self, monkeypatch):
        kernel = rotform.linalg._kernel

        def one_too_many(X, shifts, bound):
            sigma, basis = kernel(X, shifts, bound)
            return sigma, basis + (np.ones(len(X)) / np.sqrt(len(X)),)

        monkeypatch.setattr(rotform.linalg, "_kernel", one_too_many)
        with pytest.raises(NumericalError, match="multiplicity"):
            eigenstructure(np.diag([1.0, 1.0, 3.0]))


class TestBromwichBounds:
    def test_pure_rotation(self):
        np.testing.assert_allclose(
            bromwich_bounds(np.array([[0.0, -1.0], [1.0, 0.0]])), (0.0, 0.0, -1.0, 1.0),
            atol=1e-12,
        )

    def test_symmetric_collapses_imaginary_range(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((4, 4))
        Q = M + M.T
        nu, N, mu, Mx = bromwich_bounds(Q)
        assert mu == 0.0 and Mx == 0.0
        eigs = np.linalg.eigvalsh(Q)
        assert nu <= eigs[0] + 1e-9 and eigs[-1] <= N + 1e-9

    def test_shear_example(self):
        A = jordan_shear(3.0, 1.0)
        nu, N, mu, M = bromwich_bounds(A)
        assert nu == pytest.approx(1.0, abs=1e-9)
        assert N == pytest.approx(3.5, abs=1e-9)
        assert mu == pytest.approx(-0.5, abs=1e-9)
        assert M == pytest.approx(0.5, abs=1e-9)
        for lam in (3.0, 3.0, 1.0):
            assert nu - 1e-9 <= lam <= N + 1e-9

    def test_containment_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            A = rng.uniform(-1, 1, (n, n))
            nu, N, mu, M = bromwich_bounds(A)
            for z in np.linalg.eigvals(A):
                assert nu - 1e-9 <= z.real <= N + 1e-9
                assert mu - 1e-9 <= z.imag <= M + 1e-9

    def test_top_rate_matches_block_reduction(self):
        rng = np.random.default_rng(8)
        for n in range(2, 13):
            for A in (rng.uniform(-1, 1, (n, n)), rng.standard_normal((n, n)) * 1e3):
                rates = skew_canonical_basis(A).lambdas
                _, _, mu, M = bromwich_bounds(A)
                assert M == -mu
                assert abs(M - max(rates)) <= 1e-13 * np.max(np.abs(A))


class TestPlanarAnalyze:
    def test_pure_rotation_row(self):
        rep = planar_analyze(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert rep.classification == "complex"
        assert rep.zero_count == 0
        np.testing.assert_allclose(rep.rotation_eigs, (1.0, 1.0), atol=1e-12)
        assert rep.eigs[0] == pytest.approx(-1j) and rep.eigs[1] == pytest.approx(1j)

    def test_jordan_row(self):
        rep = planar_analyze(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert rep.classification == "repeated-gm1"
        assert rep.zero_count == 1
        assert rep.eigs[0] == pytest.approx(2.0, abs=1e-12)

    def test_pure_expansion_row(self):
        rep = planar_analyze(2.5 * np.eye(2))
        assert rep.classification == "repeated-gm2"
        assert rep.zero_count == math.inf
        assert rep.eigs[0] == pytest.approx(2.5)

    def test_real_distinct_row(self):
        rep = planar_analyze(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert rep.classification == "real-distinct"
        assert rep.zero_count == 2
        lo = (5.0 - np.sqrt(33.0)) / 2.0
        hi = (5.0 + np.sqrt(33.0)) / 2.0
        assert rep.eigs[0].real == pytest.approx(lo, abs=1e-10)
        assert rep.eigs[1].real == pytest.approx(hi, abs=1e-10)

    def test_representation_in_direction_frame(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        rep = planar_analyze(A, u=np.array([1.0, 0.0]))
        np.testing.assert_allclose(rep.rep_in_u_basis, A, atol=1e-12)
        rng = np.random.default_rng(8)
        u = rng.standard_normal(2)
        rep2 = planar_analyze(A, u=u)
        # similar matrix: same trace and determinant
        assert np.trace(rep2.rep_in_u_basis) == pytest.approx(np.trace(A), abs=1e-12)
        assert np.linalg.det(rep2.rep_in_u_basis) == pytest.approx(np.linalg.det(A), abs=1e-10)

    def test_eigenvalues_match_direct_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            A = rng.uniform(-1, 1, (2, 2))
            rep = planar_analyze(A)
            lo, hi = planar_eigs_direct(A)
            assert abs(rep.eigs[0] - lo) < 1e-10
            assert abs(rep.eigs[1] - hi) < 1e-10

    def test_average_expansion_is_half_trace(self):
        rng = np.random.default_rng(10)
        A = rng.uniform(-1, 1, (2, 2))
        rep = planar_analyze(A)
        assert 0.5 * (rep.expansion_eigs[0] + rep.expansion_eigs[1]) == pytest.approx(
            0.5 * np.trace(A), abs=1e-12
        )

    def test_definite_rotation_form_means_complex(self):
        # rotation-scaling blocks rotate every direction the same way
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rotation_scaling_block(rng.uniform(-1, 1), rng.uniform(0.2, 2.0))
            rep = planar_analyze(A)
            assert rep.classification == "complex"
            assert rep.rotation_eigs[0] * rep.rotation_eigs[1] > 0
            assert real_spectrum(A).real_eigs == ()

    def test_definite_planar_block_embedded_in_three_dims(self):
        A = np.zeros((3, 3))
        A[:2, :2] = rotation_scaling_block(1.0, 0.8)
        A[2, 2] = 2.0
        rep = eigenstructure(A)
        assert len(rep.entries) == 1
        assert rep.entries[0].value == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(np.abs(rep.entries[0].eigenspace[0]), [0, 0, 1], atol=1e-9)
        # the (1,2) rotation form restricted to its plane is definite
        M = rotation_form(A, (1, 2)).matrix[:2, :2]
        w = np.linalg.eigvalsh(M)
        assert w[0] * w[1] > 0

    def test_borderline_rotation_product_reported(self):
        # rotation-form eigenvalues 1e-5 and 1e-8: individually non-zero but
        # their product sits below the repeated-boundary threshold
        A = np.array([[1.0, -1e-8], [1e-5, 1.0]])
        rep = planar_analyze(A)
        assert rep.borderline
        assert rep.classification == "repeated-gm1"
        assert rep.eigs[0] == pytest.approx(1.0, abs=1e-6)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(InputError):
            planar_analyze(np.eye(3))


class TestSkewSquareStructure:
    def test_planar_block(self):
        s = 1.7
        A = np.array([[0.0, s], [-s, 0.0]])
        out = skew_square_structure(A)
        assert len(out) == 1
        value, basis, residual = out[0]
        assert value == pytest.approx(-s * s, abs=1e-12)
        assert basis.shape == (2, 2)
        assert residual < 1e-12

    def test_odd_dimension_kernel(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((3, 3))
        A = M - M.T
        out = skew_square_structure(A)
        values = sorted(v for v, _, _ in out)
        assert values[0] < 0.0
        assert values[-1] == pytest.approx(0.0, abs=1e-10)
        dims = {round(v, 8): b.shape[1] for v, b, _ in out}
        assert sorted(dims.values()) == [1, 2]

    def test_generic_four_dim_two_planes(self):
        rng = np.random.default_rng(13)
        M = rng.standard_normal((4, 4))
        A = M - M.T
        out = skew_square_structure(A)
        assert [b.shape[1] for _, b, _ in out] == [2, 2]
        for _, _, residual in out:
            assert residual < 1e-9

    def test_invariance_of_eigenspaces(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            M = rng.standard_normal((n, n))
            A = M - M.T
            if np.max(np.abs(A)) < 1e-12:
                continue
            for _, _, residual in skew_square_structure(A):
                assert residual < 1e-9

    @pytest.mark.parametrize("rate", [1e-4, 1e-3])
    def test_a_small_rate_keeps_its_plane_and_its_value(self, rate):
        # K = Q blockdiag(J, rate J, [0]) Q^T: read from the rates, -rate^2 keeps its digits and
        # its plane; from the eigenvalues of K^2 it would lie within 1e-8 of the kernel's 0 at
        # rate 1e-4 and be 1.7e-10 off at 1e-3
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        B = np.zeros((5, 5))
        B[:2, :2], B[2:4, 2:4] = J, rate * J
        Q = random_orthogonal(5, 0)
        out = skew_square_structure(Q @ B @ Q.T)
        assert [b.shape[1] for _, b, _ in out] == [2, 2, 1]
        assert abs(out[0][0] + 1.0) <= 1e-12
        assert abs(out[1][0] + rate * rate) <= 1e-12 * rate * rate
        assert out[2][0] == 0.0

    def test_rejects_non_skew(self):
        with pytest.raises(InputError):
            skew_square_structure(np.eye(2))

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_an_eigenvalue_past_the_double_range_is_refused(self, scale):
        # -scale^2 overflows to -inf at 1e160 and underflows to -0.0 at 1e-170
        A = scale * np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NumericalError, match="skew square eigenvalue .* leaves the double range"):
            skew_square_structure(A)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_the_kernel_of_an_odd_skew_matrix_is_exactly_zero_at_every_scale(self, n):
        # the kernel's value on X is round-off, which would leave the range at c = 1e-150
        M = np.random.default_rng(n).standard_normal((n, n))
        base = skew_square_structure(M - M.T)
        for c in (1.0, 1e-150, 1e150):
            out = skew_square_structure(c * (M - M.T))
            assert [b.shape[1] for _, b, _ in out] == [2] * (n // 2) + [1]
            assert out[-1][0] == 0.0
            for (v, _, _), (w, _, _) in zip(out[:-1], base):
                assert abs(v - c * c * w) <= 1e-12 * abs(c * c * w)

    def test_an_eigenvalue_inside_the_double_range_is_the_float_product(self):
        [(value, _, residual)] = skew_square_structure(1e150 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert value == -(1e150 * 1e150) and math.isfinite(value)
        assert residual == 0.0
