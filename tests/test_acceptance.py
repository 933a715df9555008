"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 4a is a known, documented failure: the published eigenvalue
set for the (1,3) rotation form of the worked example omits two entries that
the definition forces, so the definition-true values cannot match it (see the
failure message for the full computation).
"""

import json

import numpy as np
import pytest

import rotform as rf
from rotform.invariants import pm2_sym_skew_residual

from oracles import (
    jordan_shear,
    planar_eigs_direct,
    random_normal_matrix,
    reassemble,
    rotation_scaling_block,
    row_reduce_rank,
    similarity_with_jordan,
)


def _criterion(tag, body):
    try:
        body()
    except AssertionError as exc:
        first = str(exc).splitlines()[0] if str(exc) else "assertion failed"
        print(f"\nACCEPTANCE {tag}: FAIL - {first}")
        raise
    print(f"\nACCEPTANCE {tag}: PASS")


def test_c01_main_decomposition():
    def body():
        rng = np.random.default_rng(101)
        for trial in range(1000):
            n = 2 + trial % 7
            A = rng.uniform(-1.0, 1.0, (n, n))
            u = rng.standard_normal(n)
            dec = rf.decompose(A, u)
            assert dec.residual < 1e-10, f"reconstruction residual {dec.residual:.3e}"
            uhat = u / np.linalg.norm(u)
            w = A @ uhat
            gap = abs(float(w @ w) - dec.e ** 2 - dec.r.norm_sq())
            assert gap < 1e-10 * max(1.0, float(w @ w)), f"norm identity gap {gap:.3e}"

    _criterion("01 main-decomposition", body)


def test_c02_almost_orthogonal_expansion():
    def body():
        rng = np.random.default_rng(102)
        for trial in range(1000):
            n = 2 + trial % 7
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            c0, coeffs = rf.almost_orthogonal_expand(u, v)
            rebuilt = reassemble(c0, coeffs, v)
            norm_u = np.linalg.norm(u)
            assert np.linalg.norm(rebuilt - u) < 1e-12 * max(1.0, norm_u)
            assert abs(c0 * c0 + coeffs.norm_sq() - norm_u ** 2) < 1e-12 * max(1.0, norm_u ** 2)
            # the squared plane rotations reassemble -(n-1) times the vector
            total = np.zeros(n)
            for pair in rf.plane_pairs(n):
                total += rf.apply_quasi_rotation(rf.apply_quasi_rotation(u, pair), pair)
            assert np.linalg.norm(u + total / (n - 1)) < 1e-12 * max(1.0, norm_u)

    _criterion("02 almost-orthogonal-expansion", body)


def test_c03_planar_theory():
    def body():
        rng = np.random.default_rng(103)
        for _ in range(1000):
            A = rng.uniform(-1.0, 1.0, (2, 2))
            rep = rf.planar_analyze(A)
            lo, hi = planar_eigs_direct(A)
            assert abs(rep.eigs[0] - lo) < 1e-10, f"eig mismatch {rep.eigs[0]} vs {lo}"
            assert abs(rep.eigs[1] - hi) < 1e-10
        rows = [
            (np.array([[0.0, -1.0], [1.0, 0.0]]), "complex", 0.0),
            (rotation_scaling_block(0.7, 1.3), "complex", 0.0),
            (np.array([[2.0, 1.0], [0.0, 2.0]]), "repeated-gm1", 1.0),
            (np.array([[1.0, 2.0], [3.0, 4.0]]), "real-distinct", 2.0),
            (np.diag([1.0, 3.0]), "real-distinct", 2.0),
            (2.5 * np.eye(2), "repeated-gm2", np.inf),
        ]
        for A, expected_class, expected_zero in rows:
            rep = rf.planar_analyze(A)
            assert rep.classification == expected_class, (
                f"{A.tolist()} classified {rep.classification}, expected {expected_class}"
            )
            assert rep.zero_count == expected_zero

    _criterion("03 planar-theory", body)


def _worked_example_forms():
    A = jordan_shear(3.0, 1.0)
    split = rf.expansion_eigenbasis(A)
    B = split.basis.T @ A @ split.basis
    return A, split, B


def test_c04a_worked_example_rotation_eigen_sets():
    def body():
        lam, mu = 3.0, 1.0
        _, _, B = _worked_example_forms()
        printed = {
            (1, 2): sorted([0.0, 0.0, 1.0]),
            (1, 3): sorted([0.0, abs(0.5 * (mu - lam - 0.5)), -abs(0.5 * (mu - lam - 0.5))]),
            (2, 3): sorted([
                0.0,
                0.5 * np.sqrt(0.25 + (mu - lam + 0.5) ** 2),
                -0.5 * np.sqrt(0.25 + (mu - lam + 0.5) ** 2),
            ]),
        }
        for pair, expected in printed.items():
            w, _ = rf.sym_eigen(rf.rotation_form(B, pair).matrix)
            computed = sorted(w)
            assert np.allclose(computed, expected, atol=1e-10), (
                f"rotation form {pair} eigenvalues {np.round(computed, 10).tolist()} do not "
                f"match the published set {np.round(expected, 10).tolist()}; the published "
                f"(1,3) display omits the two -(1/2)A^1_2 = 1/4 entries that the definition "
                f"forces (A^1_2 = -1/2 in the diagonalising basis), which moves the non-zero "
                f"pair from ±1.25 to ±sqrt(26)/4 ≈ ±1.274754878. The "
                f"definition-true matrix is [[0,0,-5/4],[0,0,1/4],[-5/4,1/4,0]]."
            )

    _criterion("04a worked-example-rotation-eigen-sets", body)


def test_c04b_worked_example_zeros_multiplicities_skew():
    def body():
        A, split, B = _worked_example_forms()
        b3 = np.array([0.0, 0.0, 1.0])
        diag_dir = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert rf.common_zero_check(B, b3, tol=1e-10)
        assert rf.common_zero_check(B, diag_dir, tol=1e-10)
        rng = np.random.default_rng(104)
        for _ in range(500):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            if rf.common_zero_check(B, u, tol=1e-6):
                alignment = max(abs(float(u @ b3)), abs(float(u @ diag_dir)))
                assert alignment > 1.0 - 1e-6, f"extra common zero {u.tolist()}"
        rep = rf.eigenstructure(A)
        assert [e.value for e in rep.entries] == pytest.approx([1.0, 3.0], abs=1e-9)
        assert [e.geometric_multiplicity for e in rep.entries] == [1, 1]
        block = rf.skew_canonical_basis(A)
        assert block.zero_dim == 1
        np.testing.assert_allclose(block.lambdas, [0.5], atol=1e-10)
        skew_eigs = sorted(np.linalg.eigvals(0.5 * (A - A.T)), key=lambda z: z.imag)
        np.testing.assert_allclose([z.imag for z in skew_eigs], [-0.5, 0.0, 0.5], atol=1e-12)
        np.testing.assert_allclose([z.real for z in skew_eigs], [0.0, 0.0, 0.0], atol=1e-12)

    _criterion("04b worked-example-zeros-multiplicities-skew", body)


def test_c05_bromwich_bounds():
    def body():
        rng = np.random.default_rng(105)
        for trial in range(1000):
            n = 2 + trial % 7
            A = rng.uniform(-1.0, 1.0, (n, n))
            nu, N, mu, M = rf.bromwich_bounds(A)
            for z in np.linalg.eigvals(A):
                assert nu - 1e-9 <= z.real <= N + 1e-9, (
                    f"real part {z.real} outside [{nu}, {N}]"
                )
                assert mu - 1e-9 <= z.imag <= M + 1e-9, (
                    f"imag part {z.imag} outside [{mu}, {M}]"
                )

    _criterion("05 bromwich-bounds", body)


def test_c06_eigenstructure_oracle_equivalence():
    def body():
        rng = np.random.default_rng(106)
        constructions = [
            lambda: similarity_with_jordan(rng, [(2.0, 2, True), (-1.0, 1, False)]),
            lambda: similarity_with_jordan(rng, [(1.0, 2, False), (3.0, 2, False)]),
            lambda: similarity_with_jordan(rng, [(2.0, 3, True), (0.0, 1, False)]),
            lambda: similarity_with_jordan(rng, [(1.0, 2, False), (1.0, 2, True)]),
            lambda: similarity_with_jordan(rng, [(0.5, 3, False), (2.0, 2, True)]),
        ]
        for trial in range(500):
            if trial % 2 == 0:
                n = 2 + trial % 4
                A = rng.uniform(-1.0, 1.0, (n, n))
            else:
                A = constructions[(trial // 2) % len(constructions)]()
            rep = rf.eigenstructure(A)
            assert rep.flags == (), f"tolerance flags on trial {trial}: {rep.flags}"
            n = A.shape[0]
            for entry in rep.entries:
                oracle = n - row_reduce_rank(A - entry.value * np.eye(n), tol=1e-7)
                assert entry.geometric_multiplicity == oracle, (
                    f"gm mismatch at eigenvalue {entry.value}: "
                    f"{entry.geometric_multiplicity} vs oracle {oracle}"
                )

    _criterion("06 eigenstructure-oracle-equivalence", body)


def test_c07_identity_suite():
    def body():
        rng = np.random.default_rng(107)
        for trial in range(1000):
            n = 2 + trial % 5
            A = rng.uniform(-1.0, 1.0, (n, n))
            for k, value in enumerate(rf.newton_residuals(A), start=1):
                assert value < 1e-9, f"newton k={k}: {value:.3e}"
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            assert rf.cayley_hamilton_residual(A, u, v) < 1e-9
            e_res, r_res = rf.ch_form_residuals(A, u)
            assert e_res < 1e-9 and max(r_res.values()) < 1e-9
            e_res, r_res = rf.ch_trace_residuals(A)
            assert e_res < 1e-9 and max(r_res.values()) < 1e-9
            assert rf.pm2_identity_residual(A) < 1e-9
            assert pm2_sym_skew_residual(A) < 1e-9
            assert rf.gram_trace_identity_residual(A) < 1e-9
            for m in (1, 2, 3):
                lhs_e, rhs_e, lhs_r, rhs_r = rf.power_form_step(A, m, u)
                assert abs(lhs_e - rhs_e) < 1e-9 * max(1.0, abs(lhs_e), abs(rhs_e))
                for pair in lhs_r:
                    assert abs(lhs_r[pair] - rhs_r[pair]) < 1e-9 * max(
                        1.0, abs(lhs_r[pair]), abs(rhs_r[pair])
                    )

    _criterion("07 identity-suite", body)


def test_c08_collings_expansion():
    def body():
        D = np.diag([2.0, 5.0])
        B = np.array([[1.0, 3.0], [-4.0, 0.5]])
        closed = 2.0 * 5.0 + np.linalg.det(B) + 2.0 * 0.5 + 5.0 * 1.0
        assert rf.collings_det(D, B) == closed
        rng = np.random.default_rng(108)
        for trial in range(200):
            n = 1 + trial % 8
            D = np.diag(rng.uniform(-2.0, 2.0, n))
            B = rng.uniform(-1.0, 1.0, (n, n))
            direct = float(np.linalg.det(D + B))
            gap = abs(rf.collings_det(D, B) - direct)
            assert gap < 1e-10 * max(1.0, abs(direct)), f"n={n}: gap {gap:.3e}"

    _criterion("08 collings-expansion", body)


def _normality_bullets_consistent(A):
    """Evaluate the five normality characterisations and cross-check them."""
    scale = max(1.0, np.max(np.abs(A)))
    oracle = np.max(np.abs(A @ A.T - A.T @ A)) <= 1e-9 * scale * scale
    rep = rf.normality_report(A)
    assert rep.is_normal == oracle, f"report {rep.is_normal} vs commutation oracle {oracle}"
    assert rep.is_normal == (rep.violating_pairs == ())
    symmetric = np.max(np.abs(A - A.T)) <= 1e-9 * scale
    skew = np.max(np.abs(A + A.T)) <= 1e-9 * scale
    if symmetric or skew:
        assert rep.is_normal
        return
    split = rf.expansion_eigenbasis(A)
    gaps = np.abs(split.D[:, None] - split.D[None, :])
    trace_matrix = 2.0 * np.abs(split.S)  # |tr| of each rotation form
    distinct_tol = 1e-6 * scale
    trace_tol = 1e-6 * scale
    # normal iff no rotation trace couples distinct expansion eigenvalues
    coupled = False
    n = A.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if gaps[i, j] > distinct_tol and trace_matrix[i, j] > trace_tol:
                coupled = True
    assert rep.is_normal == (not coupled)
    all_distinct = all(
        gaps[i, j] > distinct_tol for i in range(n) for j in range(i + 1, n)
    )
    if all_distinct:
        if any(trace_matrix[i, j] > trace_tol for i in range(n) for j in range(i + 1, n)):
            assert not rep.is_normal
        assert rep.is_normal == symmetric
    if rep.is_normal and not symmetric:
        assert not all_distinct, "normal non-symmetric input must repeat an expansion eigenvalue"


def test_c09_normal_operator_suite():
    def body():
        rng = np.random.default_rng(109)
        for trial in range(500):
            n = 3 + trial % 4
            _normality_bullets_consistent(random_normal_matrix(rng, n))
        for trial in range(500):
            n = 3 + trial % 4
            A = rng.uniform(-1.0, 1.0, (n, n))
            _normality_bullets_consistent(A)
        for trial in range(100):
            n = 3 + trial % 2
            A = random_normal_matrix(rng, n)
            pm, rank = rf.normal_invariant_recover(A)
            assert rank == n, f"rank {rank} < {n}"
            direct = rf.principal_minor_sums(A)
            for a, b in zip(pm, direct):
                assert abs(a - b) < 1e-7 * max(1.0, abs(b)), f"pm mismatch {a} vs {b}"

    _criterion("09 normal-operator-suite", body)


def test_c10_n4_determinant_audit(tmp_path):
    def body():
        rng = np.random.default_rng(110)
        residuals = np.array([
            rf.n4_det_identity_residual(rng.uniform(-1.0, 1.0, (4, 4))) for _ in range(1000)
        ])
        assert np.all(np.isfinite(residuals)), "audit produced non-finite residuals"
        stats = {
            "trials": 1000,
            "max": float(residuals.max()),
            "mean": float(residuals.mean()),
            "median": float(np.median(residuals)),
            "p99": float(np.quantile(residuals, 0.99)),
        }
        report_path = tmp_path / "n4_determinant_audit.json"
        report_path.write_text(json.dumps(stats, indent=2) + "\n")
        print(
            f"\n n4 determinant audit over {stats['trials']} trials: "
            f"max {stats['max']:.3e}, mean {stats['mean']:.3e}, "
            f"median {stats['median']:.3e} (report: {report_path})"
        )
        # deliberately no bound assertion: the distribution itself is the finding
        # (empirically machine-precision, consistent with the identity being exact)

    _criterion("10 n4-determinant-audit", body)


def test_c11_frenet():
    def body():
        for r, c in ((1.0, 0.5), (2.0, 0.25)):
            field = rf.helix_field(c, analytic=False)  # difference-limited path
            point = np.array([r, 0.0, 0.0])
            _, _, _, kappa, tau = rf.frenet_frame(field, point)
            s2 = r * r + c * c
            assert abs(kappa - r / s2) < 1e-5, f"kappa {kappa} vs {r / s2}"
            assert abs(tau - c / s2) < 1e-5, f"tau {tau} vs {c / s2}"
            data = rf.shape_map_frenet(field, point)
            w = np.array([data.sigma - data.tau, 0.0, -data.kappa])
            assert np.linalg.norm(data.shape_matrix @ w) < 1e-6 * np.linalg.norm(w)
            cmp = rf.model_compare(field, point)
            assert cmp.delta_12 == pytest.approx(data.kappa, abs=1e-5), (
                "tangent-row discrepancy must be reported"
            )
        circ = rf.circular_field(analytic=False)
        _, _, _, kappa, tau = rf.frenet_frame(circ, np.array([2.0, 0.0, 0.0]))
        assert abs(tau) < 1e-6
        assert abs(kappa - 0.5) < 1e-6

    _criterion("11 frenet", body)


def test_c12_cli_determinism_and_errors(tmp_path):
    def body():
        from rotform.cli import main

        matrix = tmp_path / "m.txt"
        matrix.write_text("3 1 0\n0 3 0\n0 0 1\n")
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for command in (
            ["analyze", "--input", str(matrix), "--seed", "9"],
            ["identities", "--seed", "9", "--params", "n=4"],
            ["frenet", "--field", "helix", "--params", "c=0.5", "--point", "1,0,0"],
        ):
            assert main(command + ["--output", str(out1)]) == 0
            assert main(command + ["--output", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes(), f"{command[0]} not deterministic"
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n3 zzz\n")
        import io
        from contextlib import redirect_stderr

        buf = io.StringIO()
        with redirect_stderr(buf):
            code = main(["analyze", "--input", str(bad)])
        assert code == 2
        assert ":2:3:" in buf.getvalue(), f"no location info in: {buf.getvalue()}"

    _criterion("12 cli-determinism-and-errors", body)
