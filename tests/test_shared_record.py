"""The record the analyses of one array share across calls (linalg._shared):
a call on the bits of the last array, under its tolerance, reuses that
array's record and answers exactly as a first call would.  The record owns
a read-only copy of the array, returns no array of its own, raises again
what it raised, and the CLI neither reads nor writes it."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotform.canonical
import rotform.qforms
import rotform.spectral
from rotform import (
    InputError,
    NumericalError,
    ToleranceConfig,
    bromwich_bounds,
    eigenstructure,
    expansion_eigenbasis,
    invariant_report,
    normality_report,
    real_spectrum,
    skew_canonical_basis,
)
from rotform import linalg

ANALYSES = (eigenstructure, normality_report, expansion_eigenbasis, skew_canonical_basis,
            bromwich_bounds, real_spectrum, invariant_report)
LOOSE = ToleranceConfig(rank_tol=1e-6)


def _text(obj):
    """Deterministic text of a result: dataclass fields, arrays by their bytes."""
    if isinstance(obj, np.ndarray):
        return f"array{obj.shape}{obj.dtype}:{obj.tobytes().hex()}"
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__ + "(" + ",".join(
            f"{f.name}={_text(getattr(obj, f.name))}" for f in dataclasses.fields(obj)) + ")"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_text(k)}:{_text(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return type(obj).__name__ + "[" + ",".join(map(_text, obj)) + "]"
    return f"{type(obj).__name__}:{obj!r}"


def _outcome(func, A, *args):
    try:
        return _text(func(A, *args))
    except (InputError, NumericalError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _cold(func, A, *args):
    """func's outcome on A with nothing kept from an earlier call."""
    linalg._last = None
    return _outcome(func, np.array(A), *args)


def _family(seed, n):
    """Random, symmetric, skew, normal, diagonal with a tie, zero, or 1e-6 and 1e6 copies."""
    rng = np.random.default_rng(seed)
    G = rng.uniform(-1, 1, (n, n))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    tied = np.diag(np.r_[np.ones(n - n // 2), 3.0 * np.ones(n // 2)])
    return [G, G + G.T, G - G.T, Q @ (G - G.T + np.eye(n)) @ Q.T, tied, np.zeros((n, n)),
            1e-6 * G, 1e6 * G][seed % 8]


def _count(monkeypatch, name, modules):
    calls = []
    for module in modules:
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       order=st.lists(st.tuples(st.sampled_from(ANALYSES), st.booleans()),
                      min_size=1, max_size=12))
def test_any_order_of_analyses_answers_as_cold_calls(seed, n, order):
    # two matrices of one shape, taken in turn or again: hits and misses interleave
    A, B = _family(seed, n), _family(seed + 1, n)
    warm = [(func, second, _outcome(func, B if second else A)) for func, second in order]
    for func, second, outcome in warm:
        assert outcome == _cold(func, B if second else A), func.__name__


@pytest.mark.parametrize("change", ["entry", "scale", "sign of zero"])
def test_an_array_changed_in_place_is_analysed_afresh(change):
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 1, (5, 5))
    A[rng.random((5, 5)) < 0.5] = 0.0
    before = [_outcome(func, A) for func in ANALYSES]
    if change == "entry":
        A[0, 1] += 0.25
    elif change == "scale":
        A *= 2.0
    else:
        A[A == 0.0] = -0.0  # equal as numbers, not as bits, nor in every result
    after = [_outcome(func, A) for func in ANALYSES]
    assert after == [_cold(func, A) for func in ANALYSES]
    assert after != before


def test_the_kept_record_owns_a_read_only_copy():
    A = np.random.default_rng(2).uniform(-1, 1, (4, 4))
    M = linalg._shared(A)
    assert M.A is not A and not np.shares_memory(M.A, A)
    assert not M.A.flags.writeable
    assert linalg._shared(A.copy()) is M
    # _matrix keeps its contract: a new record of the caller's array, every time
    assert linalg._matrix(A) is not linalg._matrix(A)
    assert linalg._matrix(A).A is A


def _arrays(obj):
    """Every numpy array a result holds."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)


@pytest.mark.parametrize("seed", range(8))
def test_a_caller_that_overwrites_a_result_leaves_the_next_call_alone(seed):
    A = _family(seed, 6)
    results = []
    for func in ANALYSES:
        try:
            results.append(func(A))
        except (InputError, NumericalError):
            pass
    arrays = [a for result in results for a in _arrays(result)]
    assert arrays
    for a in arrays:
        a[...] = np.nan  # each is the caller's own, writeable array
    again = [_outcome(func, A) for func in ANALYSES]
    assert again == [_cold(func, A) for func in ANALYSES]


def test_the_same_bits_under_another_tolerance_get_their_own_solve(monkeypatch):
    A = np.random.default_rng(3).uniform(-1, 1, (6, 6))
    calls = _count(monkeypatch, "sym_eigen", [linalg])
    normality_report(A)
    normality_report(A, LOOSE)
    assert len(calls) == 2
    normality_report(A, LOOSE)
    expansion_eigenbasis(A, LOOSE)
    assert len(calls) == 2
    for func in (normality_report, expansion_eigenbasis, eigenstructure):
        assert _outcome(func, A, LOOSE) == _cold(func, A, LOOSE)


def test_a_refused_input_is_refused_again():
    A = np.random.default_rng(4).uniform(-1, 1, (4, 4))
    tight = ToleranceConfig(eig_off_tol=1e-30)  # no eigenbasis certificate can pass
    for _ in range(2):
        with pytest.raises(NumericalError, match="eigenbasis certificate failed"):
            normality_report(A, tight)
        with pytest.raises(InputError, match="expansion form is zero"):
            expansion_eigenbasis(A - A.T)
    bad = A.copy()
    bad[1, 2] = np.inf
    for _ in range(2):
        with pytest.raises(InputError, match="finite entries"):
            eigenstructure(bad)
    assert _outcome(normality_report, A, tight) == _cold(normality_report, A, tight)


def test_a_hit_runs_no_sym_eigen(monkeypatch):
    A = np.random.default_rng(5).uniform(-1, 1, (8, 8))
    calls = _count(monkeypatch, "sym_eigen", [linalg, rotform.spectral, rotform.canonical])
    eigenstructure(A)
    assert len(calls) == 1
    for func in ANALYSES:
        func(A)
    func(A.copy())
    assert len(calls) == 1


def _request(tmp_path):
    path = tmp_path / "A.txt"
    np.savetxt(path, np.random.default_rng(9).uniform(-1, 1, (5, 5)))
    return path, ["analyze", "--input", str(path), "--basis", "expansion"]


@pytest.mark.parametrize("library_first", [False, True])
def test_the_cli_neither_reads_nor_writes_the_kept_record(monkeypatch, tmp_path, capsys,
                                                          library_first):
    from rotform.cli import main

    path, argv = _request(tmp_path)
    if library_first:
        A = np.loadtxt(path)  # the bits the request reads
        for func in ANALYSES:
            func(A)
    kept = linalg._last
    fields = {k: id(v) for k, v in vars(kept).items()} if kept is not None else None
    modules = [linalg, rotform.spectral, rotform.canonical, rotform.qforms]
    solves = _count(monkeypatch, "sym_eigen", modules)
    eigs = _count(monkeypatch, "eig", [np.linalg])
    reports = []
    for _ in range(2):
        del solves[:], eigs[:]
        assert main(argv) == 0
        reports.append(capsys.readouterr().out)
        assert (len(solves), len(eigs)) == (1, 1)
    assert reports[0] == reports[1]
    assert linalg._last is kept  # and nothing of it was adopted or formed
    assert fields is None or {k: id(v) for k, v in vars(kept).items()} == fields
