"""How often an analysis runs the analyses and kernels below it, counted
with wrappers: each quantity is computed once per matrix."""

import numpy as np
import pytest

import rotform.canonical
import rotform.invariants
import rotform.linalg
import rotform.qforms
import rotform.quasirot
import rotform.spectral
from rotform import (
    bromwich_bounds,
    common_zero_check,
    eigenstructure,
    expansion_eigenbasis,
    invariant_report,
    normal_invariant_recover,
    normal_power_basis,
    normality_report,
    plane_pairs,
    random_orthogonal,
    real_spectrum,
    skew_canonical_basis,
    sym_eigen,
)

from oracles import diagonal_rotation_recursion, random_normal_matrix


def _count(monkeypatch, modules, name):
    calls = []
    if np.linalg in modules:  # np.linalg.norm(., 2) reaches svd through numpy.linalg._linalg
        modules = [*modules, np.linalg._linalg]
    for module in modules:
        original = getattr(module, name, None)
        if original is None:
            continue

        def counted(*args, _original=original, **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n", [2, 5, 8])
def test_skew_canonical_basis_runs_no_sym_eigen(monkeypatch, n):
    calls = _count(monkeypatch, [rotform.canonical], "sym_eigen")
    M = np.random.default_rng(n).standard_normal((n, n))
    block = skew_canonical_basis(M)
    assert len(block.lambdas) == n // 2
    assert calls == []


@pytest.mark.parametrize("n", [2, 5, 8])
def test_skew_canonical_basis_runs_no_svd(monkeypatch, n):
    # the kernel is the trailing columns of the planes' complete QR
    svds = _count(monkeypatch, [np.linalg], "svd")
    kernels = _count(monkeypatch, [rotform.canonical, rotform.linalg], "nullspace")
    block = skew_canonical_basis(np.random.default_rng(n).standard_normal((n, n)))
    assert block.zero_dim == n % 2
    assert (svds, kernels) == ([], [])


def test_normal_invariant_recover_builds_one_record(monkeypatch):
    built = []
    original = rotform.linalg._Matrix.__init__

    def recorded(self, *args):
        built.append(type(self))
        original(self, *args)

    A = random_normal_matrix(np.random.default_rng(2), 4)
    monkeypatch.setattr(rotform.linalg._Matrix, "__init__", recorded)
    normal_invariant_recover(A)
    assert built == [rotform.linalg._Matrix]


def test_normal_power_basis_of_a_symmetric_matrix_runs_one_sym_eigen(monkeypatch):
    # the refinement starts from the record's solve, which normality_report made
    calls = _count(monkeypatch, [rotform.canonical, rotform.linalg], "sym_eigen")
    M = np.random.default_rng(12).standard_normal((4, 4))
    normal_power_basis(M + M.T)
    assert len(calls) == 1


def _tied_normal():
    # Q blockdiag(B(1), B(3), B(5)) Q^T, B(r) = [[1, r], [-r, 1]]: the expansion form is I
    Q = random_orthogonal(6, 0)
    B = np.zeros((6, 6))
    for i, r in enumerate((1.0, 3.0, 5.0)):
        B[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[1.0, r], [-r, 1.0]]
    return Q @ B @ Q.T


def test_normal_power_basis_refines_by_the_skew_square_alone(monkeypatch):
    # the record's solve of sym(A) = I, then one solve of K^2 on its one tied run
    calls = _count(monkeypatch, [rotform.canonical, rotform.linalg], "sym_eigen")
    normal_power_basis(_tied_normal())
    assert len(calls) == 2


def test_normal_invariant_recover_forms_the_powers_once(monkeypatch):
    calls = _count(monkeypatch, [rotform.canonical, rotform.invariants], "matrix_powers")
    pms, rank = normal_invariant_recover(_tied_normal())
    assert rank == 6 and len(calls) == 1


def test_bromwich_bounds_runs_one_sym_eigen(monkeypatch):
    calls = _count(monkeypatch, [rotform.spectral, rotform.linalg], "sym_eigen")
    bromwich_bounds(np.random.default_rng(1).standard_normal((6, 6)))
    assert len(calls) == 1


def test_normal_invariant_recover_runs_one_normality_report(monkeypatch):
    calls = _count(monkeypatch, [rotform.canonical, rotform.invariants], "normality_report")
    A = random_normal_matrix(np.random.default_rng(2), 4)
    normal_invariant_recover(A)
    assert len(calls) == 1


def test_invariant_report_runs_one_matrix_powers_and_no_per_pair_forms(monkeypatch):
    powers = _count(monkeypatch, [rotform.invariants], "matrix_powers")
    modules = [rotform.invariants, rotform.qforms, rotform.quasirot]
    per_pair = {
        name: _count(monkeypatch, modules, name)
        for name in ("rotation_values", "rotation_traces", "rotation_form_matrix")
    }
    invariant_report(np.random.default_rng(3).uniform(-1, 1, (9, 9)), seed=1)
    assert len(powers) == 1
    assert per_pair == {name: [] for name in per_pair}


def test_spectral_and_identity_analyses_build_no_rotation_value_dicts(monkeypatch):
    modules = [rotform.spectral, rotform.invariants, rotform.qforms, rotform.quasirot]
    calls = _count(monkeypatch, modules, "rotation_values")
    A = np.random.default_rng(5).uniform(-1, 1, (7, 7))
    S = A + A.T
    eigenstructure(S)
    common_zero_check(S, sym_eigen(S)[1][:, 0])
    common_zero_check(A, np.ones(7))
    invariant_report(A, seed=2)
    assert calls == []


def test_diagonal_rotation_recursion_builds_no_rotation_value_dicts(monkeypatch):
    modules = [rotform.invariants, rotform.qforms, rotform.quasirot]
    calls = _count(monkeypatch, modules, "rotation_values")
    A = np.random.default_rng(6).uniform(-1, 1, (6, 6))
    for pair in plane_pairs(6):
        diagonal_rotation_recursion(A, 2, pair)
    assert calls == []


@pytest.mark.parametrize("n", [2, 8, 32])
def test_real_spectrum_of_distinct_eigenvalues_runs_no_svd(monkeypatch, n):
    calls = _count(monkeypatch, [np.linalg], "svd")
    spectrum = real_spectrum(np.random.default_rng(n).uniform(-1, 1, (n, n)))
    assert spectrum.total_multiplicity() == n
    assert calls == []


@pytest.mark.parametrize("n", [2, 8, 32])
def test_eigenstructure_of_distinct_eigenvalues_runs_no_svd(monkeypatch, n):
    # the Bromwich box reads the top rotation rate from the skew part's eigh
    calls = _count(monkeypatch, [np.linalg], "svd")
    report = eigenstructure(np.random.default_rng(n).uniform(-1, 1, (n, n)))
    assert report.bromwich[3] > 0.0
    assert calls == []


@pytest.mark.parametrize("n", [4, 9, 32])
def test_the_four_spectral_analyses_of_one_array_solve_the_skew_part_once(monkeypatch, n):
    svds = _count(monkeypatch, [np.linalg], "svd")
    kinds = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        kinds.append(a.dtype.kind)
        return eigh(a, *args, **kwargs)

    for module in (np.linalg, np.linalg._linalg):
        monkeypatch.setattr(module, "eigh", recorded)
    monkeypatch.setattr(rotform.linalg, "_last", None)  # no record kept from an earlier test
    A = np.random.default_rng(n).uniform(-1, 1, (n, n))
    for analysis in (eigenstructure, normality_report, expansion_eigenbasis, skew_canonical_basis):
        analysis(A)
    assert (kinds.count("c"), svds) == (1, [])


def test_eigenstructure_runs_no_svd_beyond_those_of_real_spectrum(monkeypatch):
    # the eigenspaces come from the SVDs that certified their eigenvalues
    calls = _count(monkeypatch, [np.linalg], "svd")
    Q = random_orthogonal(3, seed=8)
    for A in (np.diag([1.0, 1.0, 3.0]), Q @ np.diag([1.0, 1.0, 3.0]) @ Q.T):
        del calls[:]
        real_spectrum(A)
        certified = len(calls)
        del calls[:]
        report = eigenstructure(A)
        assert [e.geometric_multiplicity for e in report.entries] == [2, 1]
        assert certified >= 1 and len(calls) == certified


def test_a_simple_real_eigenvalue_without_a_residual_certificate_costs_one_svd(monkeypatch):
    # eigenvectors moved by 1e-6 fail every residual certificate
    eig = np.linalg.eig

    def perturbed_eig(a):
        w, X = eig(a)
        return w, X + 1e-6 * np.random.default_rng(0).standard_normal(X.shape)

    monkeypatch.setattr(np.linalg, "eig", perturbed_eig)
    calls = _count(monkeypatch, [np.linalg], "svd")
    Q = random_orthogonal(4, seed=3)
    report = eigenstructure(Q @ np.diag([-1.0, 0.5, 2.0, 3.0]) @ Q.T)
    assert [e.geometric_multiplicity for e in report.entries] == [1, 1, 1, 1]
    assert len(calls) == 4


def test_eigenstructure_signs_every_eigenspace_in_one_call(monkeypatch):
    calls = _count(monkeypatch, [rotform.spectral], "_sign_fix")
    M = np.random.default_rng(13).uniform(-1, 1, (6, 6))
    report = eigenstructure(M + M.T)
    assert len(report.entries) == 6
    assert len(calls) == 1


@pytest.mark.parametrize("basis, sym_eigens", [("given", 1), ("expansion", 1),
                                               ("skew-canonical", 1)])
def test_analyze_solves_the_expansion_form_once_per_matrix(monkeypatch, tmp_path, capsys,
                                                           basis, sym_eigens):
    from rotform.cli import main

    path = tmp_path / "A.txt"
    np.savetxt(path, np.random.default_rng(9).uniform(-1, 1, (4, 4)))
    modules = [rotform.linalg, rotform.spectral, rotform.canonical, rotform.qforms]
    calls = _count(monkeypatch, modules, "sym_eigen")
    eigs = _count(monkeypatch, [np.linalg], "eig")
    assert main(["analyze", "--input", str(path), "--basis", basis]) == 0
    assert capsys.readouterr().out
    # the matrix in the expansion basis takes the solve of A's expansion form, certified
    assert (len(calls), len(eigs)) == (sym_eigens, 1)


def test_planar_checks_its_input_once_and_builds_no_qform(monkeypatch, tmp_path, capsys):
    from rotform.cli import main

    A = np.array([[0.3, -1.2], [0.7, 0.4]])
    path = tmp_path / "A.txt"
    np.savetxt(path, A)
    checked = []
    original = rotform.linalg.as_square

    def recorded(X, *args, **kwargs):
        checked.append(np.array(X))
        return original(X, *args, **kwargs)

    for module in (rotform.linalg, rotform.spectral, rotform.qforms, rotform.quasirot):
        if getattr(module, "as_square", None) is original:
            monkeypatch.setattr(module, "as_square", recorded)
    solves = _count(monkeypatch, [rotform.linalg, rotform.spectral], "sym_eigen")
    built = []
    monkeypatch.setattr(rotform.qforms.QForm, "__post_init__", built.append)
    assert main(["planar", "--input", str(path)]) == 0
    assert capsys.readouterr().out
    assert built == [] and len(solves) <= 2
    assert sum(X.shape == A.shape and np.array_equal(X, A) for X in checked) == 1


def test_analyze_checks_its_input_once(monkeypatch, tmp_path, capsys):
    from rotform.cli import main

    A = np.random.default_rng(9).uniform(-1, 1, (4, 4))
    path = tmp_path / "A.txt"
    np.savetxt(path, A)
    checked = []
    original = rotform.linalg.as_square

    def recorded(X, *args, **kwargs):
        checked.append(np.array(X))
        return original(X, *args, **kwargs)

    for module in (rotform.linalg, rotform.spectral, rotform.canonical, rotform.qforms,
                   rotform.quasirot):
        if getattr(module, "as_square", None) is original:
            monkeypatch.setattr(module, "as_square", recorded)
    assert main(["analyze", "--input", str(path)]) == 0
    assert capsys.readouterr().out
    A = np.loadtxt(path)  # the matrix as the report reads it
    assert sum(X.shape == A.shape and np.array_equal(X, A) for X in checked) == 1


def test_frenet_builds_no_qform_and_checks_no_square_matrix(monkeypatch, capsys):
    from rotform.cli import main

    modules = [rotform.linalg, rotform.qforms, rotform.quasirot, rotform.frenet]
    checked = _count(monkeypatch, modules, "as_square")
    built = []
    monkeypatch.setattr(rotform.qforms.QForm, "__post_init__", built.append)
    assert main(["frenet", "--field", "helix", "--point", "1,0,0"]) == 0
    assert capsys.readouterr().out
    # the rotation forms of the shape matrix are kept as plain symmetric matrices
    assert (built, checked) == ([], [])


def test_identities_scales_by_binary_scale_at_most_twice(monkeypatch, capsys):
    import rotform.cli
    from rotform.cli import main

    modules = [rotform.linalg, rotform.invariants, rotform.spectral, rotform.qforms, rotform.cli]
    calls = _count(monkeypatch, modules, "binary_scale")
    assert main(["identities", "--params", "n=12", "--seed", "3"]) == 0
    assert capsys.readouterr().out
    # p of A, read by the identities and the subset expansion, and p of X inside pm^k
    assert len(calls) <= 2


@pytest.mark.parametrize("record", [False, True])
def test_invariant_report_builds_one_record_of_x(monkeypatch, record):
    built = []
    original = rotform.linalg._Matrix.__init__

    def recorded(self, *args):
        built.append(type(self))
        original(self, *args)

    A = np.random.default_rng(4).uniform(-1, 1, (4, 4))
    M = rotform.linalg._matrix(A) if record else A
    monkeypatch.setattr(rotform.linalg._Matrix, "__init__", recorded)
    report = invariant_report(M, seed=1)
    assert "n4_det" in report.residuals
    # the record of A, unless handed in, and the identities' record of X = A / p
    # built on it; the n = 4 determinant audit builds none of its own
    assert built == [rotform.linalg._Matrix] * (not record) + [rotform.invariants._Parts]
