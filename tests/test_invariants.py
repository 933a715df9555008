import re
import tracemalloc
from math import prod

import mpmath
import numpy as np
import pytest

from rotform import (
    InputError,
    cayley_hamilton_residual,
    ch_form_residuals,
    ch_trace_residuals,
    collings_det,
    euler_cauchy_stokes,
    expansion_form,
    gram_trace_identity_residual,
    invariant_report,
    n4_det_identity_residual,
    newton_residuals,
    normal_invariant_recover,
    pm2_identity_residual,
    power_form_step,
    principal_minor_sums,
    rotation_form,
)
from rotform import evaluate, plane_pairs, qforms
from rotform.invariants import _Parts, _pm2, diagonal_rotation_recursion, pm2_sym_skew_residual
from rotform.qforms import rotation_form_matrix, rotation_traces, rotation_values

from oracles import (
    ch_form_residuals_by_definition,
    ch_form_residuals_per_pair,
    ch_trace_residuals_by_definition,
    ch_trace_residuals_per_pair,
    collings_det_loop,
    det_exact,
    diagonal_rotation_recursion_by_dicts,
    gram_trace_identity_residual_per_pair,
    invariant_report_per_pair,
    jordan_shear,
    power_form_step_loop,
    power_form_step_per_pair,
    random_normal_matrix,
    random_unit,
    rotation_scaling_block,
)


def block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    pos = 0
    for b in blocks:
        out[pos:pos + b.shape[0], pos:pos + b.shape[0]] = b
        pos += b.shape[0]
    return out


class TestNewtonResiduals:
    def test_first_identity_exact(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5):
            A = rng.uniform(-1, 1, (n, n))
            assert newton_residuals(A)[0] == 0.0

    def test_diagonal_matrix(self):
        assert max(newton_residuals(np.diag([1.0, 2.0, 3.0]))) < 1e-12

    def test_random_six_dim(self):
        rng = np.random.default_rng(1)
        A = rng.uniform(-1, 1, (6, 6))
        assert max(newton_residuals(A)) < 1e-9


class TestCayleyHamiltonResidual:
    def test_one_dim_exact(self):
        assert cayley_hamilton_residual(np.array([[3.7]]), np.array([1.0]), np.array([-1.0])) == 0.0

    def test_random_four_dim(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(-1, 1, (4, 4))
        for _ in range(20):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            assert cayley_hamilton_residual(A, u, v) < 1e-9

    def test_basis_sum_recovers_trace_identity(self):
        # summing the probe over u = v = b_i results in the order-n trace identity
        rng = np.random.default_rng(3)
        n = 4
        A = rng.uniform(-1, 1, (n, n))
        pm = (1.0,) + principal_minor_sums(A)
        pows = [np.eye(n)]
        for _ in range(n):
            pows.append(pows[-1] @ A)
        total = 0.0
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            total += sum((-1.0) ** k * pm[k] * float((pows[n - k] @ e) @ e) for k in range(n + 1))
        trace_line = sum((-1.0) ** k * pm[k] * np.trace(pows[n - k]) for k in range(n + 1))
        assert total == pytest.approx(trace_line, abs=1e-12)
        assert abs(total) < 1e-9

    def test_rejects_non_unit(self):
        with pytest.raises(InputError):
            cayley_hamilton_residual(np.eye(2), np.array([2.0, 0.0]), np.array([1.0, 0.0]))


class TestChFormResiduals:
    def test_symmetric_eigenvector_collapses(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((3, 3))
        Q = M + M.T
        _, P = np.linalg.eigh(Q)
        e_res, r_res = ch_form_residuals(Q, P[:, 1])
        assert e_res < 1e-12
        assert max(r_res.values()) < 1e-12

    def test_random_three_dim_many_probes(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(-1, 1, (3, 3))
        for _ in range(100):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            e_res, r_res = ch_form_residuals(A, u)
            assert e_res < 1e-9
            assert max(r_res.values()) < 1e-9

    def test_planar_collapse_to_trace_and_determinant(self):
        # the n = 2 identities: trace is shared with the expansion form, and
        # det(A) = det of the rotation form + quarter square of the trace
        rng = np.random.default_rng(6)
        for _ in range(50):
            A = rng.uniform(-1, 1, (2, 2))
            assert np.trace(A) == pytest.approx(np.trace(expansion_form(A).matrix), abs=1e-13)
            det_rot = np.linalg.det(rotation_form(A, (1, 2)).matrix)
            assert np.linalg.det(A) == pytest.approx(
                det_rot + 0.25 * np.trace(expansion_form(A).matrix) ** 2, abs=1e-12
            )


class TestChTraceResiduals:
    def test_planar_lines_explicitly(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(-1, 1, (2, 2))
        A2 = A @ A
        e_line = (
            np.trace(expansion_form(A2).matrix)
            - np.trace(A) * np.trace(expansion_form(A).matrix)
            + 2.0 * np.linalg.det(A)
        )
        r_line = (
            np.trace(rotation_form(A2, (1, 2)).matrix)
            - np.trace(A) * np.trace(rotation_form(A, (1, 2)).matrix)
        )
        assert abs(e_line) < 1e-12
        assert abs(r_line) < 1e-12
        e_res, r_res = ch_trace_residuals(A)
        assert e_res < 1e-12 and max(r_res.values()) < 1e-12

    def test_random_five_dim(self):
        rng = np.random.default_rng(8)
        A = rng.uniform(-1, 1, (5, 5))
        e_res, r_res = ch_trace_residuals(A)
        assert e_res < 1e-9
        assert max(r_res.values()) < 1e-9


class TestPm2Identities:
    def test_hand_arithmetic(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        # -2 = -2.25 + (1/4) * 1^2
        assert principal_minor_sums(A)[1] == pytest.approx(-2.0)
        assert principal_minor_sums(expansion_form(A).matrix)[1] == pytest.approx(-2.25)
        assert np.trace(rotation_form(A, (1, 2)).matrix) == pytest.approx(1.0)
        assert pm2_identity_residual(A) < 1e-15

    def test_symmetric_collapse(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((4, 4))
        assert pm2_identity_residual(M + M.T) < 1e-13

    def test_random_six_dim(self):
        rng = np.random.default_rng(10)
        A = rng.uniform(-1, 1, (6, 6))
        assert pm2_identity_residual(A) < 1e-9
        assert pm2_sym_skew_residual(A) < 1e-9


class TestGramTraceIdentity:
    def test_identity_matrix(self):
        for n in (1, 2, 5):
            assert gram_trace_identity_residual(np.eye(n)) < 1e-14

    def test_hand_arithmetic(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        # 2 * 30 = 2 * 17.5 + 25
        assert 2.0 * np.sum(A * A) == pytest.approx(60.0)
        M = rotation_form(A, (1, 2)).matrix
        assert np.trace(M @ M) == pytest.approx(17.5)
        assert gram_trace_identity_residual(A) < 1e-15

    def test_random_four_dim_both_forms(self):
        rng = np.random.default_rng(11)
        A = rng.uniform(-1, 1, (4, 4))
        assert gram_trace_identity_residual(A) < 1e-9


class TestEulerCauchyStokes:
    def test_identity_matrix(self):
        theta, shear, twist = euler_cauchy_stokes(np.eye(3))
        assert theta == 3.0
        assert not shear.any() and not twist.any()

    def test_skew_input(self):
        K = np.array([[0.0, 2.0], [-2.0, 0.0]])
        theta, shear, twist = euler_cauchy_stokes(K)
        assert theta == 0.0
        assert not shear.any()
        np.testing.assert_array_equal(twist, K)

    def test_reconstruction_and_structure(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 5):
            A = rng.uniform(-1, 1, (n, n))
            theta, shear, twist = euler_cauchy_stokes(A)
            assert theta == pytest.approx(np.trace(A), abs=1e-13)
            assert abs(np.trace(shear)) < 1e-12
            np.testing.assert_allclose(shear, shear.T, atol=1e-15)
            np.testing.assert_allclose(twist, -twist.T, atol=1e-15)
            rebuilt = (theta / n) * np.eye(n) + shear + twist
            np.testing.assert_allclose(rebuilt, A, atol=1e-15)


class TestCollingsDet:
    def test_two_by_two_closed_form(self):
        D = np.diag([2.0, 5.0])
        B = np.array([[1.0, 3.0], [-4.0, 0.5]])
        expected = 2.0 * 5.0 + np.linalg.det(B) + 2.0 * 0.5 + 5.0 * 1.0
        assert collings_det(D, B) == pytest.approx(expected, abs=1e-12)

    def test_zero_diagonal(self):
        rng = np.random.default_rng(13)
        B = rng.uniform(-1, 1, (4, 4))
        assert collings_det(np.zeros((4, 4)), B) == pytest.approx(np.linalg.det(B), abs=1e-12)

    def test_random_five_dim_against_lu(self):
        rng = np.random.default_rng(14)
        D = np.diag(rng.uniform(-2, 2, 5))
        B = rng.uniform(-1, 1, (5, 5))
        assert abs(collings_det(D, B) - np.linalg.det(D + B)) < 1e-10

    def test_rejects_non_diagonal(self):
        with pytest.raises(InputError):
            collings_det(np.ones((2, 2)), np.eye(2))

    def test_rejects_oversize(self):
        with pytest.raises(InputError):
            collings_det(np.eye(21), np.eye(21))


EPS = np.finfo(float).eps


def _term_mass(D, B):
    """prod_i (|d_i| + |row i of B|_2): it bounds every term of the subset
    expansion, and so |det(D + B)|."""
    return float(np.prod(np.abs(np.diag(D)) + np.linalg.norm(B, axis=1)))


def _assert_near_exact(D, B):
    """collings_det is within n eps times the term mass of the exact
    determinant, here mpmath's at 60 digits."""
    bound = len(D) * EPS * _term_mass(D, B)
    gap = float(abs(mpmath.mpf(collings_det(D, B)) - det_exact(D + B)))
    assert gap <= bound, (len(D), gap / bound if bound else gap)


class TestCollingsBatched:
    """The Schur-complement recursion against the exact determinant and the
    one-subset-at-a-time loop.  The recursion rounds differently from a
    pivoted LU per subset, so both comparisons are bounds in units of
    n eps times the term mass, not bit equality."""

    @staticmethod
    def _split(A):
        D = np.diag(np.diag(A))
        return D, A - D

    def _cases(self, rng, n):
        A = rng.uniform(-1, 1, (n, n))
        graded = 2.0 ** rng.uniform(-30, 30, n)
        return [
            self._split(A),
            self._split(rng.integers(-5, 6, (n, n)).astype(float)),
            self._split(np.triu(A)),
            (np.diag(rng.uniform(-2, 2, n)), A - np.diag(np.diag(A))),
            self._split(1e-6 * A),
            self._split(1e6 * A),
            self._split(graded[:, None] * A),
            self._split(A * graded[None, :]),
        ]

    def test_within_bound_of_exact_and_loop(self):
        rng = np.random.default_rng(41)
        cases = [case for n in range(1, 13) for case in self._cases(rng, n)]
        cases.append(self._split(rng.uniform(-1, 1, (14, 14))))
        for D, B in cases:
            _assert_near_exact(D, B)
            n = len(D)
            gap = abs(collings_det(D, B) - collings_det_loop(D, B))
            assert gap <= 4 * n * EPS * _term_mass(D, B), n

    def test_working_set_stays_small_at_sixteen(self):
        # stacks of at most _SUBSET_LEAF terms bound the working set; one stack
        # per subset size would peak near 9 MB at n = 16, which `rotform identities` runs
        D, B = self._split(np.random.default_rng(43).uniform(-1, 1, (16, 16)))
        tracemalloc.start()
        try:
            collings_det(D, B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_diagonal_check_is_relative(self):
        with pytest.raises(InputError):
            collings_det(1e-13 * np.ones((2, 2)), np.zeros((2, 2)))

    def test_working_set_at_twenty(self):
        # the largest n the expansion accepts; the per-subset LUs peaked
        # at 2.7 MB here
        D, B = self._split(np.random.default_rng(44).uniform(-1, 1, (20, 20)))
        tracemalloc.start()
        try:
            collings_det(D, B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2_700_000

    # Structured B on which a pivot is zero, a row or column vanishes, or
    # the determinant cancels: the shift and its removal must stay exact
    # where the expansion is, and within the bound elsewhere.

    def test_zero_diagonal(self):
        rng = np.random.default_rng(45)
        for n in range(2, 11):
            B = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(B, 0.0)
            _assert_near_exact(np.diag(rng.uniform(-2, 2, n)), B)
            _assert_near_exact(np.zeros((n, n)), B)

    def test_zero_b_gives_the_diagonal_product(self):
        rng = np.random.default_rng(46)
        for n in range(1, 11):
            d = rng.uniform(-2, 2, n)
            assert collings_det(np.diag(d), np.zeros((n, n))) == prod(d.tolist())

    def test_strictly_triangular_b_gives_the_diagonal_product(self):
        rng = np.random.default_rng(47)
        for n in range(1, 11):
            d = rng.uniform(-2, 2, n)
            A = rng.uniform(-1, 1, (n, n))
            for B in (np.triu(A, 1), np.tril(A, -1)):
                assert collings_det(np.diag(d), B) == prod(d.tolist())

    def test_low_rank(self):
        rng = np.random.default_rng(48)
        for n in range(2, 11):
            X, Y = rng.uniform(-1, 1, (2, n, 2))
            for rank in (1, 2):
                B = X[:, :rank] @ Y[:, :rank].T
                _assert_near_exact(np.diag(rng.uniform(-1, 1, n)), B)
                _assert_near_exact(*self._split(B))

    def test_skew_b_with_zero_diagonal_matrix(self):
        rng = np.random.default_rng(49)
        for n in range(1, 11):
            A = rng.uniform(-1, 1, (n, n))
            _assert_near_exact(np.zeros((n, n)), A - A.T)

    def test_similarity_graded(self):
        # this draw holds a 10 x 10 case that misses the bound by 1.5 times
        # when only the rows, not the columns, are scaled
        rng = np.random.default_rng(67)
        for n in range(2, 11):
            g = 2.0 ** rng.uniform(-30, 30, n)
            _assert_near_exact(*self._split(g[:, None] * rng.uniform(-1, 1, (n, n)) / g[None, :]))

    def test_zero_row(self):
        rng = np.random.default_rng(51)
        for n in range(2, 11):
            D, B = self._split(rng.uniform(-1, 1, (n, n)))
            i = int(rng.integers(n))
            B[i] = 0.0
            _assert_near_exact(D, B)
            D[i, i] = 0.0
            assert collings_det(D, B) == 0.0


class TestN4DetAudit:
    def test_symmetric_reduces_to_diagonal_determinant(self):
        rng = np.random.default_rng(15)
        M = rng.standard_normal((4, 4))
        assert n4_det_identity_residual(M + M.T) < 1e-12

    def test_skew_reduces_to_skew_determinant(self):
        rng = np.random.default_rng(16)
        M = rng.standard_normal((4, 4))
        assert n4_det_identity_residual(M - M.T) < 1e-12

    def test_random_audit_values_are_tiny(self):
        # report-only audit; empirically the printed identity is exact
        rng = np.random.default_rng(17)
        worst = max(n4_det_identity_residual(rng.uniform(-1, 1, (4, 4))) for _ in range(100))
        assert np.isfinite(worst)
        assert worst < 1e-10

    def test_rejects_wrong_dimension(self):
        with pytest.raises(InputError):
            n4_det_identity_residual(np.eye(3))


class TestOddTracePowerCancellation:
    def test_trace_even_in_skew_part(self):
        rng = np.random.default_rng(18)
        for n in (2, 3, 5):
            D = np.diag(rng.uniform(-2, 2, n))
            M = rng.standard_normal((n, n))
            S = M - M.T
            plus = np.eye(n)
            minus = np.eye(n)
            for k in range(1, 7):
                plus = plus @ (D + S)
                minus = minus @ (D - S)
                gap = abs(np.trace(plus) - np.trace(minus))
                assert gap < 1e-9 * max(1.0, abs(np.trace(plus)))


class TestNormalInvariantRecover:
    def test_two_rotation_blocks(self):
        A = block_diag(rotation_scaling_block(1.0, 0.5), rotation_scaling_block(-0.5, 1.5))
        pm, rank = normal_invariant_recover(A)
        assert rank == 4
        direct = principal_minor_sums(A)
        np.testing.assert_allclose(pm, direct, atol=1e-8)

    def test_three_dim_normal_example(self):
        A = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        pm, rank = normal_invariant_recover(A)
        assert rank == 3
        np.testing.assert_allclose(pm, (4.0, 6.0, 4.0), atol=1e-8)

    def test_random_constructed_normals(self):
        rng = np.random.default_rng(19)
        for n in (3, 4):
            for _ in range(10):
                A = random_normal_matrix(rng, n)
                pm, rank = normal_invariant_recover(A)
                assert rank == n
                np.testing.assert_allclose(pm, principal_minor_sums(A), atol=1e-7)

    def test_rejects_symmetric(self):
        rng = np.random.default_rng(20)
        M = rng.standard_normal((3, 3))
        with pytest.raises(InputError, match="symmetric"):
            normal_invariant_recover(M + M.T)

    def test_rejects_non_normal(self):
        with pytest.raises(InputError, match="not normal"):
            normal_invariant_recover(jordan_shear(3.0, 1.0))


class TestPowerFormStep:
    def test_planar_hand_case(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        lhs_e, rhs_e, lhs_r, rhs_r = power_form_step(A, 1, np.array([1.0, 0.0]))
        assert lhs_e == pytest.approx(7.0, abs=1e-12)
        assert rhs_e == pytest.approx(7.0, abs=1e-12)
        assert lhs_r[(1, 2)] == pytest.approx(rhs_r[(1, 2)], abs=1e-12)

    def test_symmetric_eigenvector_gives_powers(self):
        rng = np.random.default_rng(21)
        M = rng.standard_normal((3, 3))
        Q = M + M.T
        w, P = np.linalg.eigh(Q)
        u = P[:, 2]
        for m in (1, 2, 3):
            lhs_e, rhs_e, _, _ = power_form_step(Q, m, u)
            assert lhs_e == pytest.approx(w[2] ** (m + 1), rel=1e-10)
            assert rhs_e == pytest.approx(w[2] ** (m + 1), rel=1e-10)

    def test_random_recurrence_residuals(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            A = rng.uniform(-1, 1, (n, n))
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            for m in (1, 2, 3):
                lhs_e, rhs_e, lhs_r, rhs_r = power_form_step(A, m, u)
                assert abs(lhs_e - rhs_e) < 1e-9 * max(1.0, abs(lhs_e))
                for pair in lhs_r:
                    assert abs(lhs_r[pair] - rhs_r[pair]) < 1e-9 * max(1.0, abs(lhs_r[pair]))

    def test_diagonal_recursion_term_by_term(self):
        rng = np.random.default_rng(23)
        A = rng.uniform(-1, 1, (4, 4))
        for m in (1, 2, 3):
            for p in range(1, 4):
                for q in range(p + 1, 5):
                    lhs, rhs = diagonal_rotation_recursion(A, m, (p, q))
                    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_diagonal_recursion_equals_dict_version_exactly(self):
        rng = np.random.default_rng(24)
        for n in range(2, 9):
            A = rng.uniform(-1, 1, (n, n))
            for m in (1, 2, 3):
                for pair in plane_pairs(n):
                    assert diagonal_rotation_recursion(A, m, pair) == (
                        diagonal_rotation_recursion_by_dicts(A, m, pair)
                    ), (n, m, pair)

    def test_rejects_non_unit(self):
        with pytest.raises(InputError):
            power_form_step(np.eye(2), 1, np.array([2.0, 0.0]))

    def test_matches_plane_by_plane_loop(self):
        # lhs_e, rhs_e and lhs_r are computed as before; rhs_r sums the
        # cross terms in another order, so it agrees to rounding
        rng = np.random.default_rng(44)
        for n in range(2, 11):
            A = rng.uniform(-1, 1, (n, n))
            u = random_unit(rng, n)
            for m in (1, 2, 3):
                lhs_e, rhs_e, lhs_r, rhs_r = power_form_step(A, m, u)
                ref = power_form_step_loop(A, m, u)
                assert (lhs_e, rhs_e, lhs_r) == ref[:3]
                assert rhs_r.keys() == ref[3].keys()
                bound = 1e-13 * max(abs(v) for v in ref[3].values())
                for pair, value in ref[3].items():
                    assert abs(rhs_r[pair] - value) <= bound, (n, m, pair)


class TestResidualSweepWideDimensions:
    def test_all_residual_operations_up_to_eight(self):
        rng = np.random.default_rng(26)
        for trial in range(100):
            n = 2 + trial % 7
            A = rng.uniform(-1.0, 1.0, (n, n))
            report = invariant_report(A, seed=trial)
            for key, value in report.residuals.items():
                assert value < 1e-9, (n, key, value)


class TestInvariantReport:
    def test_report_is_complete_and_small(self):
        rng = np.random.default_rng(24)
        A = rng.uniform(-1, 1, (4, 4))
        report = invariant_report(A, seed=3)
        assert len(report.pms) == 4
        assert "n4_det" in report.residuals
        for key, value in report.residuals.items():
            assert value < 1e-9, (key, value)

    def test_no_n4_key_for_other_dimensions(self):
        rng = np.random.default_rng(25)
        report = invariant_report(rng.uniform(-1, 1, (3, 3)), seed=0)
        assert "n4_det" not in report.residuals

    def test_exact_residual_key_set(self):
        rng = np.random.default_rng(27)
        for n in (2, 3, 4, 5):
            pairs = [f"{k}_{l}" for k, l in plane_pairs(n)]
            expected = {f"newton_{k}" for k in range(1, n + 1)}
            expected |= {"ch_vector", "ch_expansion", "tr_ch_expansion", "pm2", "pm2_sym_skew",
                         "gram_trace"}
            expected |= {f"ch_rotation_{p}" for p in pairs}
            expected |= {f"tr_ch_rotation_{p}" for p in pairs}
            expected |= {f"power_{kind}_{m}" for kind in ("expansion", "rotation")
                         for m in (1, 2, 3)}
            if n == 4:
                expected.add("n4_det")
            report = invariant_report(rng.uniform(-1, 1, (n, n)), seed=n)
            assert set(report.residuals) == expected, n

    def test_builds_no_form_objects(self, monkeypatch):
        built = []
        original = qforms.QForm.__post_init__

        def counting(form):
            built.append(form.n)
            original(form)

        monkeypatch.setattr(qforms.QForm, "__post_init__", counting)
        A = np.random.default_rng(28).uniform(-1, 1, (12, 12))
        report = invariant_report(A, seed=1)
        assert len(report.residuals) > 100
        assert built == []


class TestClosedForms:
    """The closed forms the identities use against the form definitions."""

    def test_rotation_form_traces_and_values(self):
        rng = np.random.default_rng(29)
        for n in (2, 3, 5, 8):
            M = rng.standard_normal((n, n))
            u = rng.standard_normal(n)
            traces = rotation_traces(M)
            values = rotation_values(M, u)
            for k, l in plane_pairs(n):
                form = rotation_form(M, (k, l))
                assert float(np.trace(form.matrix)) == traces[(k, l)] == M[l - 1, k - 1] - M[k - 1, l - 1]
                np.testing.assert_array_equal(rotation_form_matrix(M, (k, l)), form.matrix)
                assert values[(k, l)] == pytest.approx(evaluate(form, u), abs=1e-12)

    def test_expansion_form_trace_and_value(self):
        rng = np.random.default_rng(30)
        for n in (1, 2, 4, 7):
            M = rng.standard_normal((n, n))
            u = rng.standard_normal(n)
            form = expansion_form(M)
            assert float(np.trace(form.matrix)) == float(np.trace(M))
            assert float(u @ (M @ u)) == pytest.approx(evaluate(form, u), abs=1e-12)

    def test_rotation_form_trace_and_square_trace(self):
        # tr M_kl = A[l,k] - A[k,l] and tr M_kl^2 = (|A_k|^2 + |A_l|^2 +
        # A[l,k]^2 + A[k,l]^2 - 2 A[k,k] A[l,l]) / 2 per plane pair
        rng = np.random.default_rng(33)
        for n in (2, 3, 6, 9):
            A = rng.standard_normal((n, n))
            s = _Parts(A)
            bound = 1e-14 * n * np.max(np.abs(A)) ** 2
            for j, pair in enumerate(plane_pairs(n)):
                M = rotation_form_matrix(A, pair)
                assert s.T[1][j] == float(np.trace(M))
                assert abs(s.form_sq[j] - float(np.trace(M @ M))) <= bound, (n, pair)

    def test_second_minor_sum_bit_identical(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 6):
            M = rng.standard_normal((n, n))
            for part in (0.5 * (M + M.T), 0.5 * (M - M.T), M):
                assert _pm2(part) == principal_minor_sums(part)[1]

    def test_residuals_match_form_definitions(self):
        rng = np.random.default_rng(32)
        for n in (2, 3, 5, 8):
            A = rng.uniform(-1, 1, (n, n))
            u = random_unit(rng, n)
            e_res, r_res = ch_form_residuals(A, u)
            e_def, r_def = ch_form_residuals_by_definition(A, u)
            assert e_res == pytest.approx(e_def, abs=1e-12)
            assert r_res.keys() == r_def.keys()
            for pair in r_def:
                assert r_res[pair] == pytest.approx(r_def[pair], abs=1e-12)
            assert ch_trace_residuals(A) == ch_trace_residuals_by_definition(A)


# Residuals the pair arrays give bit for bit; the others agree to 5e-14.
_BIT_IDENTICAL = re.compile(
    r"newton_\d+|ch_vector|ch_expansion|ch_rotation_\d+_\d+|tr_ch_rotation_\d+_\d+"
    r"|pm2_sym_skew|n4_det"
)
_PARITY_DIMS = list(range(1, 17)) + [24, 32]


class TestPerPairParity:
    """The identities over pair arrays against the per-pair loops they replace."""

    @pytest.mark.parametrize("n", _PARITY_DIMS)
    def test_report_matches_per_pair_report(self, n):
        rng = np.random.default_rng(300 + n)
        for seed in range(2):
            A = rng.uniform(-1, 1, (n, n))
            report = invariant_report(A, seed=seed)
            ref = invariant_report_per_pair(A, seed=seed)
            assert report.pms == ref.pms
            assert list(report.residuals) == list(ref.residuals)
            for key, value in ref.residuals.items():
                if _BIT_IDENTICAL.fullmatch(key):
                    assert report.residuals[key] == value, (n, key)
                else:
                    assert abs(report.residuals[key] - value) <= 5e-14, (n, key)

    @pytest.mark.parametrize("n", _PARITY_DIMS)
    def test_public_functions_match_per_pair_loops(self, n):
        rng = np.random.default_rng(400 + n)
        A = rng.uniform(-1, 1, (n, n))
        u = random_unit(rng, n)
        assert ch_form_residuals(A, u) == ch_form_residuals_per_pair(A, u)
        assert ch_trace_residuals(A) == ch_trace_residuals_per_pair(A)
        gram = gram_trace_identity_residual(A)
        assert abs(gram - gram_trace_identity_residual_per_pair(A)) <= 5e-14
        for m in (1, 2, 3):
            lhs_e, rhs_e, lhs_r, rhs_r = power_form_step(A, m, u)
            ref = power_form_step_per_pair(A, m, u)
            assert (lhs_e, rhs_e, lhs_r) == ref[:3]
            assert list(rhs_r) == list(ref[3])
            bound = 1e-13 * max(map(abs, ref[3].values()), default=0.0)
            for pair, value in ref[3].items():
                assert abs(rhs_r[pair] - value) <= bound, (n, m, pair)

    def test_one_dimension_has_no_pairs(self):
        report = invariant_report(np.array([[0.7]]), seed=0)
        assert not [key for key in report.residuals if "ch_rotation" in key]
        for m in (1, 2, 3):
            assert report.residuals[f"power_rotation_{m}"] == 0.0
