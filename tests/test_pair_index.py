"""One home for plane-pair quantities: quasirot alone builds the pair index,
and every per-pair function matches the plain loop it replaced (kept in
oracles.py).  The loops and the arrays form the same products, so the
results are bit-identical up to the sign of a zero, except where a sum now
runs in another order: the reassembly and the rotation form in a new basis,
which are held to a tolerance fixed by the dtype."""

import re
from pathlib import Path

import numpy as np
import pytest

import rotform
from rotform import (
    InputError,
    eigenstructure,
    invariant_report,
    plane_pairs,
    random_orthogonal,
    rotation_change_of_basis,
    rotation_form_change_of_basis,
    skew_rotation_coeffs,
)
from rotform.frenet import model_rotation_forms
from rotform.qforms import rotation_traces
from rotform.quasirot import (
    RotationCoeffs,
    _pair_index,
    coeffs_to_matrix,
)

from oracles import (
    coeffs_to_matrix_loop,
    model_rotation_forms_by_hand,
    reassemble,
    reassemble_loop,
    rotation_change_of_basis_loop,
    rotation_form_change_of_basis_loop,
    rotation_traces_loop,
    rotation_values,
    rotation_values_loop,
    skew_rotation_coeffs_loop,
)

DIMS = range(1, 33)


def _coeffs(n, rng):
    """Random coefficients for every plane pair of dimension n (none at n = 1)."""
    c = rng.standard_normal(n * (n - 1) // 2)
    return c, RotationCoeffs(n, dict(zip(plane_pairs(n), c.tolist())))


def _sample_pairs(n, rng):
    """All pairs for small n, else the first, the last and two random ones."""
    pairs = list(plane_pairs(n))
    if len(pairs) <= 6:
        return pairs
    picks = rng.choice(len(pairs), 2, replace=False)
    return [pairs[0], pairs[-1]] + [pairs[i] for i in picks]


@pytest.mark.parametrize("n", DIMS)
def test_rotation_values_and_traces_match_their_loops(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    u = rng.standard_normal(n)
    assert rotation_values(A, u) == rotation_values_loop(A, u)
    assert rotation_traces(A) == rotation_traces_loop(A)


@pytest.mark.parametrize("n", DIMS)
def test_skew_coefficients_and_their_matrix_match_their_loops(n):
    rng = np.random.default_rng(100 + n)
    M = rng.standard_normal((n, n))
    S = M - M.T
    assert skew_rotation_coeffs(S) == skew_rotation_coeffs_loop(S)
    _, coeffs = _coeffs(n, rng)
    assert np.array_equal(coeffs_to_matrix(coeffs), coeffs_to_matrix_loop(coeffs))


@pytest.mark.parametrize("n", DIMS[1:])
def test_change_of_basis_matches_its_loops(n):
    rng = np.random.default_rng(200 + n)
    P = random_orthogonal(n, n)
    A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4)
    for pq in _sample_pairs(n, rng):
        assert rotation_change_of_basis(P, pq) == rotation_change_of_basis_loop(P, pq)
        got = rotation_form_change_of_basis(A, P, pq).matrix
        want = rotation_form_change_of_basis_loop(A, P, pq).matrix
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(A))


@pytest.mark.parametrize("n", DIMS)
def test_reassemble_matches_its_loop(n):
    rng = np.random.default_rng(300 + n)
    c0 = float(rng.standard_normal())
    c, coeffs = _coeffs(n, rng)
    v = rng.standard_normal(n)
    bound = 1e-15 * n * max(abs(c0), np.max(np.abs(c), initial=0.0)) * np.sum(np.abs(v))
    want = reassemble_loop(c0, coeffs, v)
    for mapping in (coeffs, dict(coeffs.items())):
        assert np.max(np.abs(reassemble(c0, mapping, v) - want)) <= bound


def test_reassemble_counts_a_missing_pair_as_zero_and_refuses_other_keys():
    v = np.array([1.0, 2.0, 3.0])
    partial = {(1, 3): 0.5}
    np.testing.assert_array_equal(reassemble(2.0, partial, v), reassemble_loop(2.0, partial, v))
    for key in [(2, 1), (0, 1), (1, 4)]:
        with pytest.raises(InputError, match="not plane pairs"):
            reassemble(2.0, {(1, 2): 1.0, key: 1.0}, v)


@pytest.mark.parametrize("seed", range(20))
def test_model_rotation_forms_match_the_hand_written_matrices(seed):
    rng = np.random.default_rng(seed)
    kappa, tau, sigma = rng.standard_normal(3)
    if seed % 4 == 0:
        sigma = tau
    got = model_rotation_forms(kappa, tau, sigma)
    want = model_rotation_forms_by_hand(kappa, tau, sigma)
    assert list(got) == list(want)
    for pair in want:
        assert np.array_equal(got[pair], want[pair])


def test_pair_index_is_built_once_per_dimension(monkeypatch):
    calls = []
    original = np.triu_indices

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "triu_indices", counted)
    _pair_index.cache_clear()
    A = np.random.default_rng(4).uniform(-1, 1, (16, 16))
    for seed in range(3):
        invariant_report(A, seed=seed)
        eigenstructure(A)
    assert calls == [(16, 1)]
    K, L = _pair_index(16)
    assert not K.flags.writeable and not L.flags.writeable


def test_only_quasirot_builds_the_pair_index():
    pattern = re.compile(r"triu_indices|bincount")
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(rotform.__file__).parent.glob("*.py"))
        if path.name != "quasirot.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert hits == []
