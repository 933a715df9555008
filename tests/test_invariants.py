import re
import tracemalloc
from math import prod

import mpmath
import numpy as np
import pytest

from rotform import (
    DEFAULT_TOL,
    InputError,
    NumericalError,
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
    random_orthogonal,
    rotation_form,
)
from rotform import evaluate, plane_pairs, qforms
from rotform.invariants import _Parts, _plane_coefficients, _pm2, pm2_sym_skew_residual
from rotform.linalg import binary_scale
from rotform.qforms import rotation_form_matrix, rotation_traces
from oracles import rotation_values

from oracles import (
    ch_form_residuals_by_definition,
    ch_form_residuals_per_pair,
    ch_trace_residuals_by_definition,
    ch_trace_residuals_per_pair,
    collings_det_loop,
    det_exact,
    diagonal_rotation_recursion,
    diagonal_rotation_recursion_by_dicts,
    gram_trace_identity_residual_per_pair,
    invariant_report_per_pair,
    jordan_shear,
    plane_coefficients_binomial,
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

    def test_within_bound_of_exact_where_stacks_split(self):
        # n = 15 and 16 are the first sizes whose stacks outgrow _SUBSET_LEAF
        # and are split for the depth-first walk
        rng = np.random.default_rng(61)
        for n in (15, 16):
            for D, B in self._cases(rng, n):
                _assert_near_exact(D, B)


def _pinned_cases(n):
    """(D, B) on which collings_det is pinned bit for bit, in the order of
    _PINNED_BITS[n]: random, integer, triangular, a zero row in B, a zero
    diagonal in B, D = 0, graded rows and columns, and 1e-6- and 1e6-scaled."""
    rng = np.random.default_rng(900 + n)
    A = rng.uniform(-1, 1, (n, n))
    off = A - np.diag(np.diag(A))
    graded = 2.0 ** rng.uniform(-30, 30, n)
    d = rng.uniform(-2, 2, n)
    zero_row = off.copy()
    zero_row[n // 2] = 0.0

    def split(M):
        return np.diag(np.diag(M)), M - np.diag(np.diag(M))

    return [
        split(A),
        split(rng.integers(-5, 6, (n, n)).astype(float)),
        split(np.triu(A)),
        (np.diag(np.diag(A)), zero_row),
        (np.diag(d), off),
        (np.zeros((n, n)), A),
        split(graded[:, None] * A * graded[None, ::-1]),
        split(1e-6 * A),
        split(1e6 * A),
    ]


# float.hex(collings_det(D, B)) on _pinned_cases(n), n = 1..20: a change to
# how the Schur-complement stacks are laid out or split must not move a bit.
_PINNED_BITS = {
    1: ("0x1.c95473f529110p-2", "-0x1.0000000000000p+0", "0x1.c95473f529110p-2",
         "0x1.c95473f529110p-2", "-0x1.2f4650f72dba4p-1", "0x1.c95473f529110p-2",
         "0x1.2cebcb0c66b06p+51", "0x1.df8b8f097d9ecp-22", "0x1.b424ce65f99e0p+18"),
    2: ("-0x1.30b249b9b825bp-1", "-0x1.4000000000000p+3", "-0x1.c05b5cb1f7728p-4",
         "-0x1.c05b5cb1f7728p-4", "0x1.52b9ac43c7622p-2", "-0x1.30b249b9b825bp-1",
         "-0x1.8595cc1d8df46p-32", "-0x1.4f046c3205332p-41", "-0x1.151eaaeb5157fp+39"),
    3: ("0x1.dc77b13da589cp-3", "-0x1.4000000000000p+4", "0x1.6a4b014c960bcp-5",
         "0x1.7e217123d2fc3p-3", "0x1.e1224802f46c3p-1", "0x1.dc77b13da589bp-3",
         "0x1.5bc701f4c3bf0p-81", "0x1.12aa330a1c54dp-62", "0x1.9d450c6ae97cdp+57"),
    4: ("-0x1.f5dd1aadc51a8p-2", "0x1.6800000000000p+6", "0x1.00389d1456a5cp-5",
         "-0x1.4c95c2f8bfa2bp-5", "-0x1.56041d135c478p-4", "-0x1.f5dd1aadc51a9p-2",
         "-0x1.293e36d7e96c6p+21", "-0x1.2f5ba4ee03e2bp-81", "-0x1.9f21c50f2c9e0p+78"),
    5: ("0x1.3c4a7f642a6e0p-2", "0x1.aa40000000000p+11", "0x1.6539f67f03d0fp-3",
         "0x1.392a7c959946cp-1", "-0x1.d8a47c471ea56p+0", "0x1.3c4a7f642a6dfp-2",
         "0x1.942cd3521a2c0p+5", "0x1.90f24cc70021bp-102", "0x1.f304eb8bba3e0p+97"),
    6: ("0x1.c45616e0f6d7bp-2", "-0x1.2e3fffffffff0p+13", "-0x1.481d3d897b41cp-10",
         "0x1.c2513fede6ae4p-4", "-0x1.6550b8cb425c9p-1", "0x1.c45616e0f6d7cp-2",
         "0x1.534d28e8bb2c8p+128", "0x1.2ca107f7c88cbp-121", "0x1.544cccc836cd5p+118"),
    7: ("-0x1.024142f7543dcp+0", "0x1.a0a0000000060p+12", "0x1.900ac958f9cecp-14",
         "-0x1.91462503a5166p-2", "0x1.b9a14c36a26f0p-2", "-0x1.024142f7543dap+0",
         "-0x1.f05493509aba0p+159", "-0x1.67f470039df0cp-140", "-0x1.7293e0b8be704p+139"),
    8: ("-0x1.9344a740b5b1ap-1", "0x1.4638000000001p+16", "0x1.668601aab4358p-16",
         "-0x1.2af5001f33a20p-5", "-0x1.910f94f630bf0p-4", "-0x1.9344a740b5b22p-1",
         "-0x1.31b1a13a66190p-18", "-0x1.26b044d91f278p-160", "-0x1.13ed6278cc7dbp+159"),
    9: ("0x1.e8dfa870f3c24p+2", "0x1.2f36cfffffff0p+21", "0x1.2b1937c4d8811p-16",
         "0x1.2ce0ed0a9860cp+1", "-0x1.d9dc95bff902ap+1", "0x1.e8dfa870f3c1ep+2",
         "0x1.7e200495a8524p-18", "0x1.76992dcb9dd26p-177", "0x1.3f01446d754a9p+182"),
    10: ("0x1.067e128c637d8p+0", "0x1.d190cc800000ap+26", "-0x1.5cbe8d7a3b8a0p-15",
          "0x1.63401f83852cbp+1", "-0x1.b623ad0b96280p-6", "0x1.067e128c637e2p+0",
          "0x1.c2f9295500000p-32", "0x1.a5cf239de8f60p-200", "0x1.46b2ed225db58p+199"),
    11: ("-0x1.3db08ddc93f5cp+2", "-0x1.b7bcaae00003cp+28", "0x1.ace4764dcfcb1p-13",
          "-0x1.cb12dc22c5a1ep-2", "-0x1.563dfd8bd264cp+5", "-0x1.3db08ddc93f70p+2",
          "0x1.5300000000000p+14", "-0x1.0ba72bdbca690p-217", "-0x1.791499754a19ep+221"),
    12: ("-0x1.285ff0b1d3190p-4", "0x1.2f5637480001cp+30", "-0x1.34f35b32e62f1p-14",
          "-0x1.81026cba7ee20p-1", "0x1.32df908f01173p+7", "-0x1.285ff0b1d3140p-4",
          "-0x1.2b4a008000000p+113", "-0x1.05d30eb3e5e20p-243", "-0x1.4f7bfe2214f90p+235"),
    13: ("0x1.4ad921181111dp+3", "0x1.ef84b05c27fd4p+37", "-0x1.4a95ea5657f43p-26",
          "-0x1.0466bd30c5b20p-4", "-0x1.1a4aa6c005e82p+8", "0x1.4ad9211811142p+3",
          "0x1.d83bbde7fba00p-27", "0x1.327a0f76e3421p-256", "0x1.652855e7bd0c7p+262"),
    14: ("-0x1.95c53f967f3aep+7", "-0x1.e7ab4a2fd0020p+38", "-0x1.9d843176e8d34p-21",
          "-0x1.99dcb77e0b000p-2", "-0x1.0385efc219240p+7", "-0x1.95c53f967f3e8p+7",
          "-0x1.4ad14fd3fdeb0p-31", "-0x1.8a238cadeaf67p-272", "-0x1.a1bed2dbb1851p+286"),
    15: ("-0x1.7591874014cc4p+8", "-0x1.dc3c82e126a54p+44", "0x1.4f130f89e9555p-21",
          "0x1.f6b8a349cfcdcp+2", "-0x1.1db422b59eb6dp+10", "-0x1.7591874014ccbp+8",
          "-0x1.7d1ce754e76d6p-129", "-0x1.7c7c7807b1adbp-291", "-0x1.6ec6c9297d784p+307"),
    16: ("0x1.535527c679f14p+9", "-0x1.dfd9cd96e6c3ap+48", "-0x1.761bf858554f4p-22",
          "0x1.1ac5b2c30645cp+6", "0x1.515dfc07c7098p+10", "0x1.535527c679ee5p+9",
          "0x1.e80ad85554800p+159", "0x1.6a67b1e193893p-310", "0x1.3dbaa7752c6e0p+328"),
    17: ("0x1.5bfb0ffe84fbcp+5", "-0x1.0371c8c7fbdb2p+49", "-0x1.749f5d00392acp-21",
          "0x1.89a4341cd535cp+2", "-0x1.f1e698fb311f4p+9", "0x1.5bfb0ffe8cee6p+5",
          "0x1.07e9bbfd11990p+224", "0x1.85b1a9100051cp-334", "0x1.36bb83700c878p+344"),
    18: ("0x1.dfca66cdcd51ap+9", "-0x1.8a6fb5e8359bcp+56", "-0x1.597b07fe3394bp-25",
          "0x1.41b199556a19fp+9", "0x1.958a6ff65bf0bp+13", "0x1.dfca66cdcd300p+9",
          "0x1.1068000000000p+92", "0x1.19b3c233842dcp-349", "0x1.9895fa1f6fc6ap+368"),
    19: ("0x1.47b61d00e5d26p+10", "-0x1.01333b0ba884ep+59", "-0x1.e4ece57de09d2p-20",
          "0x1.8ad0d007d98e2p+10", "0x1.3f2bb985e6a30p+12", "0x1.47b61d00e6350p+10",
          "0x1.ff80000000000p+17", "0x1.9383e2f9a124cp-369", "0x1.0a25e1b149cc0p+389"),
    20: ("0x1.ce5a712e22e20p+9", "-0x1.1c1667ac820b4p+60", "0x1.df92e3bfb7e55p-33",
          "0x1.6df6d06f139c0p+8", "0x1.27e3335faaa8ap+13", "0x1.ce5a712e22a20p+9",
          "0x1.19eb400000000p-182", "0x1.2a7a59b59a380p-389", "0x1.6619e323f7c18p+408"),
}


class TestCollingsPinned:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_bits(self, n):
        got = tuple(float.hex(collings_det(D, B)) for D, B in _pinned_cases(n))
        assert got == _PINNED_BITS[n]


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

    def test_a_minor_sum_past_the_double_range_comes_back_infinite(self):
        # The system is built on A / binary_scale(A) and pm^k comes back as a
        # float product, so pm^8 of about 1e320 is inf, as in principal_minor_sums.
        A = 1e40 * random_normal_matrix(np.random.default_rng(0), 8)
        pm, rank = normal_invariant_recover(A)
        direct = principal_minor_sums(A)
        assert rank == 8 and pm[-1] == direct[-1] == np.inf
        np.testing.assert_allclose(pm[:-1], direct[:-1], rtol=1e-10)

    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    def test_plane_coefficients_are_the_binomial_sums(self, n):
        # Im(z^k) / Im z against the sum over the odd powers of i b in (a + i b)^k, within
        # k eps of its term mass sum C(k, m) |a|^m b^(k - m - 1) <= k (|a| + b)^(k - 1)
        rng = np.random.default_rng(n)
        for a, b in [(1.0, 1e-9), (-0.5, 1.0), (0.0, 2.0)] + list(zip(rng.uniform(-2, 2, 20),
                                                                       rng.uniform(0.01, 2, 20))):
            got = _plane_coefficients(complex(a, b), n)
            want = plane_coefficients_binomial(a, -b * b, n)
            for k, (x, y) in enumerate(zip(got, want)):
                assert abs(x - y) <= 4 * k * np.finfo(float).eps * (abs(a) + b) ** max(k - 1, 0)

    def test_rejects_symmetric(self):
        rng = np.random.default_rng(20)
        M = rng.standard_normal((3, 3))
        with pytest.raises(InputError, match="symmetric"):
            normal_invariant_recover(M + M.T)

    def test_rejects_non_normal(self):
        with pytest.raises(InputError, match="not normal"):
            normal_invariant_recover(jordan_shear(3.0, 1.0))

    def test_a_rank_deficient_system_is_refused_with_the_system(self):
        # two equal planes give the same rows twice: the power system has rank 2
        B = rotation_scaling_block(0.5, 1.0)
        Q = random_orthogonal(4, 0)
        message = r"^power system is rank deficient: rank 2 < 4$"
        with pytest.raises(NumericalError, match=message) as info:
            normal_invariant_recover(Q @ block_diag(B, B) @ Q.T)
        M, b = info.value.system
        assert M.shape[1] == 4 and b.shape == (M.shape[0],)


@pytest.mark.parametrize("call, message", [
    (lambda: ch_form_residuals(np.eye(3), [1.0, 0.0]), "^probe vector must match"),
    (lambda: cayley_hamilton_residual(np.eye(3), [1.0, 0.0, 0.0], [1.0, 0.0]),
     "^probe vectors must match"),
    (lambda: pm2_identity_residual(np.eye(1)), "^the second minor sum needs n >= 2$"),
    (lambda: pm2_sym_skew_residual(np.eye(1)), "^the second minor sum needs n >= 2$"),
    (lambda: collings_det(np.eye(2), np.eye(3)), "^matrices must share a dimension$"),
    (lambda: power_form_step(np.eye(2), 0, [1.0, 0.0]), "^power step needs an integer m >= 1$"),
    (lambda: power_form_step(np.eye(3), 1.5, [1.0, 0.0, 0.0]),
     "^power step needs an integer m >= 1$"),
    (lambda: power_form_step(np.eye(3), True, [1.0, 0.0, 0.0]),
     "^power step needs an integer m >= 1$"),
], ids=["u length", "v length", "pm2 at n = 1", "pm2 sym skew at n = 1",
        "collings dimensions", "power step m = 0", "power step m = 1.5", "power step m = True"])
def test_an_input_that_does_not_fit_is_refused(call, message):
    with pytest.raises(InputError, match=message):
        call()


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

    def test_power_form_step_at_a_basis_direction_matches_the_diagonal_recursion(self):
        rng = np.random.default_rng(25)
        for n in (2, 4, 6):
            A = rng.uniform(-1, 1, (n, n))
            for m in (1, 2, 3):
                for p in range(1, n):
                    _, _, lhs_r, rhs_r = power_form_step(A, m, np.eye(n)[p - 1])
                    for q in range(p + 1, n + 1):
                        lhs, rhs = diagonal_rotation_recursion(A, m, (p, q))
                        assert abs(lhs_r[p, q] - lhs) <= 1e-14 * max(1.0, abs(lhs))
                        assert abs(rhs_r[p, q] - rhs) <= 1e-14 * max(1.0, abs(rhs))

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

    @pytest.mark.parametrize("kwargs", [
        {"power_steps": -1}, {"power_steps": True}, {"power_steps": 2.5}, {"seed": -1},
        {"seed": 1.5}, {"seed": np.True_}, {"seed": "1"},
    ], ids=["steps -1", "steps True", "steps 2.5", "seed -1", "seed 1.5", "seed np.True_",
            "seed str"])
    def test_a_seed_or_step_count_that_is_no_integer_from_zero_is_refused(self, kwargs):
        name, value = next(iter(kwargs.items()))
        with pytest.raises(InputError, match=f"^{name} must be an integer >= 0, got "):
            invariant_report(np.eye(3), **kwargs)

    @pytest.mark.parametrize("seed, steps", [(np.int64(2), np.uint8(0)),
                                             (np.uint8(7), np.uint8(255))],
                             ids=["zero steps", "uint8 255 steps"])
    def test_numpy_integers_and_zero_steps_are_accepted(self, seed, steps):
        # uint8 arithmetic would wrap steps + 1 to 0; the report must run all 255 steps.
        A = np.random.default_rng(26).uniform(-1, 1, (3, 3))
        report = invariant_report(A, seed=seed, power_steps=steps)
        ref = invariant_report(A, seed=int(seed), power_steps=int(steps))
        assert (report.pms, report.residuals) == (ref.pms, ref.residuals)
        assert sum(key.startswith("power_") for key in report.residuals) == 2 * int(steps)

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
            bound = 1e-14 * n * np.max(np.abs(s.A)) ** 2
            for j, pair in enumerate(plane_pairs(n)):
                M = rotation_form_matrix(s.A, pair)
                assert s.T[1][j] == float(np.trace(M))
                assert abs(s.form_sq[j] - float(np.trace(M @ M))) <= bound, (n, pair)

    def test_second_minor_sum_within_anchor_bound(self):
        # The closed form and the spectrum route agree within residual_tol
        # times e_2 of the row norms, the bound principal_minor_sums enforces.
        rng = np.random.default_rng(31)
        for n in (2, 3, 6):
            M = rng.standard_normal((n, n))
            for part in (0.5 * (M + M.T), 0.5 * (M - M.T), M):
                r = np.linalg.norm(part, axis=1)
                mass = sum(r[i] * r[j] for i in range(n) for j in range(i + 1, n))
                gap = abs(_pm2(part) - principal_minor_sums(part)[1])
                assert gap <= DEFAULT_TOL.residual_tol * mass

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
        p = binary_scale(A)  # the per-pair step shares _Parts, in the units of A / p
        for m in (1, 2, 3):
            lhs_e, rhs_e, lhs_r, rhs_r = power_form_step(A, m, u)
            lhs, rhs, *per_pair = power_form_step_per_pair(A, m, u)
            ref = [prod([p] * (m + 1), start=x) for x in (lhs, rhs)]
            ref += [{pair: prod([p] * (m + 1), start=x) for pair, x in r.items()} for r in per_pair]
            assert (lhs_e, rhs_e, lhs_r) == tuple(ref[:3])
            assert list(rhs_r) == list(ref[3])
            bound = 1e-13 * max(map(abs, ref[3].values()), default=0.0)
            for pair, value in ref[3].items():
                assert abs(rhs_r[pair] - value) <= bound, (n, m, pair)

    def test_one_dimension_has_no_pairs(self):
        report = invariant_report(np.array([[0.7]]), seed=0)
        assert not [key for key in report.residuals if "ch_rotation" in key]
        for m in (1, 2, 3):
            assert report.residuals[f"power_rotation_{m}"] == 0.0
