"""The matrix record (linalg._Matrix): every analysis that takes it returns
what it returns for the plain array.  A record judges under one tolerance,
its own: its zero-part decisions and symmetric eigenproblem are made at it,
and the eigenproblem may be one adopted from elsewhere once it passes the
record's certificate.  An analysis handed a record under another tolerance
answers as it does for the plain array."""

import ast
import dataclasses
import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotform import (
    DEFAULT_TOL,
    InputError,
    NumericalError,
    ToleranceConfig,
    bromwich_bounds,
    decompose,
    eigenstructure,
    expansion_eigenbasis,
    normality_report,
    principal_minor_sums,
    random_orthogonal,
    real_spectrum,
    skew_canonical_basis,
    skew_rotation_coeffs,
    skew_square_structure,
    sym_eigen,
)
from rotform import linalg
from rotform.linalg import _matrix

LOOSE = ToleranceConfig(rank_tol=1e-6)
ANALYSES = (real_spectrum, eigenstructure, bromwich_bounds, normality_report,
            expansion_eigenbasis, skew_canonical_basis)


def _same(a, b):
    """Equal types and bits throughout: arrays by their bytes, floats by repr."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return type(a) is type(b) and repr(a) == repr(b)


def _outcome(func, *args):
    try:
        return func(*args)
    except (InputError, NumericalError) as exc:
        return type(exc), str(exc)


def _family(seed, n):
    """Random, symmetric, skew, zero, or scaled by 2^-600 or 1e200."""
    rng = np.random.default_rng(seed)
    G = rng.uniform(-1, 1, (n, n))
    return [G, G + G.T, G - G.T, np.zeros((n, n)), np.ldexp(G, -600), 1e200 * G][seed % 6]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7))
def test_analyses_of_a_record_equal_those_of_its_array(seed, n):
    A = _family(seed, n)
    u = np.random.default_rng(seed + 1).standard_normal(n)
    for tol in (DEFAULT_TOL, LOOSE):
        M = _matrix(A)  # one record shared by every analysis, as analyze does
        for func in ANALYSES:
            assert _same(_outcome(func, M, tol), _outcome(func, A, tol)), func.__name__
        assert _same(_outcome(decompose, M, u), _outcome(decompose, A, u))


def test_a_record_passes_through_and_an_array_is_checked():
    M = _matrix(np.eye(3))
    assert _matrix(M) is M
    with pytest.raises(InputError):
        _matrix(np.ones((2, 3)))
    with pytest.raises(InputError):
        _matrix([[np.inf]])


def _skew_nearly_zero():
    """A skew part 1e-8 of the symmetric one: zero at rank_tol 1e-6 only."""
    G = np.random.default_rng(20).uniform(-1, 1, (4, 4))
    return G + G.T + 1e-8 * (G - G.T)


@pytest.mark.parametrize("own", [DEFAULT_TOL, LOOSE])
def test_a_record_answers_under_its_own_tolerance(own):
    A = _skew_nearly_zero()
    M = _matrix(A, own)
    assert M.tol is own and _matrix(M) is M and _matrix(M, own) is M
    assert _matrix(M, dataclasses.replace(own)) is M  # an equal tolerance keeps the record
    assert M.skew_zero == (own is LOOSE) and not M.sym_zero
    for func in (bromwich_bounds, normality_report, skew_canonical_basis):
        assert _same(_outcome(func, M, own), _outcome(func, A, own)), func.__name__
    assert (bromwich_bounds(M, own)[2:] == (0.0, 0.0)) == (own is LOOSE)


@pytest.mark.parametrize("own", [DEFAULT_TOL, LOOSE])
def test_an_analysis_of_a_record_under_another_tolerance_answers_as_for_the_array(own):
    A = _skew_nearly_zero()
    other = LOOSE if own is DEFAULT_TOL else DEFAULT_TOL
    M = _matrix(A, own)
    decided = M.skew_zero, M.eigen  # made at the record's own tolerance first
    for func in ANALYSES:
        assert _same(_outcome(func, M, other), _outcome(func, A, other)), func.__name__
    assert (M.skew_zero, M.eigen) == decided
    N = _matrix(M, other)
    assert N is not M and N.A is M.A and N.tol is other and N.skew_zero == (other is LOOSE)


def test_the_minor_sum_anchors_are_judged_at_the_records_residual_tol():
    A = np.random.default_rng(0).uniform(-1, 1, (5, 5))  # identities --params n=5
    strict = ToleranceConfig(residual_tol=1e-30)
    assert principal_minor_sums(_matrix(A)) == principal_minor_sums(A)
    with pytest.raises(NumericalError, match=r"pm\^2"):
        principal_minor_sums(_matrix(A, strict))


def test_an_adopted_eigenbasis_is_kept_only_when_it_passes_the_records_certificate():
    """The matrix B in A's expansion basis adopts the known solve, as analyze
    does: eigenvalues D ascending on the unit vectors, which diagonalise
    B's symmetric part up to rounding.  A basis that does not is refused,
    and sym_eigen solves instead; so does a certificate no basis can meet."""
    A = np.random.default_rng(22).uniform(-1, 1, (5, 5))
    split = expansion_eigenbasis(A)
    B = split.basis.T @ A @ split.basis
    known = (split.D[::-1], np.eye(5)[:, ::-1])
    M = _matrix(B)
    M.adopt_eigen(*known)
    w, P = M.eigen
    assert w is known[0] and P is known[1]
    np.testing.assert_allclose(w, sym_eigen(M.sym)[0], rtol=0.0, atol=1e-14)
    unreachable = ToleranceConfig(eig_off_tol=1e-300)
    for P, tol in ((random_orthogonal(5, seed=3), DEFAULT_TOL), (known[1], unreachable)):
        M = _matrix(B, tol)
        M.adopt_eigen(known[0], P)
        assert "eigen" not in vars(M)
        assert _same(_outcome(lambda: M.eigen), _outcome(sym_eigen, M.sym, tol))


def _module_names():
    """(file name, line, name) of every name, attribute and imported name in the
    package's modules other than linalg."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(linalg.__file__), "*.py"))):
        base = os.path.basename(path)
        if base == "linalg.py":
            continue
        for node in ast.walk(ast.parse(open(path).read(), path)):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", None), getattr(node, "attr", None)])
            for name in names:
                yield base, getattr(node, "lineno", None), name


def test_only_linalg_scales_by_binary_scale():
    # every other module reads p and X = A / p from the matrix record
    assert [hit for hit in _module_names() if hit[2] == "binary_scale"] == []


def test_only_linalg_makes_svd_rank_decisions():
    # every SVD rank decision goes through linalg._kernel; __init__ re-exports nullspace
    assert [hit for hit in _module_names() if hit[2] in ("svd", "matrix_rank", "lstsq", "pinv")
            or (hit[2] == "nullspace" and hit[0] != "__init__.py")] == []


def test_only_linalg_calls_eigh():
    # the symmetric part is solved by sym_eigen, the skew part by the record's skew_eigen
    assert [hit for hit in _module_names() if hit[2] == "eigh"] == []


@pytest.mark.parametrize("excess, refused", [(0.5, False), (2.0, True)])
def test_the_skew_inputs_share_one_check(excess, refused):
    """skew_square_structure and skew_rotation_coeffs take S while max|S + S^T|
    is within residual_tol / 10 max|S| (linalg.as_skew) and refuse it beyond."""
    G = np.random.default_rng(23).uniform(-1, 1, (4, 4))
    S = G - G.T
    S[0, 1] += excess * DEFAULT_TOL.residual_tol / 10 * np.max(np.abs(S))
    for func in (skew_square_structure, skew_rotation_coeffs):
        if refused:
            with pytest.raises(InputError, match="is not skew-symmetric"):
                func(S)
        else:
            func(S)
