"""Metamorphic properties: relations between two runs of one analysis.

The paper's spectrum, forms, Bromwich box and trace/determinant identities
are homogeneous in A, so scaling A by c > 0 must leave every classification,
every multiplicity and every relative residual as it was.  Each relation is
checked on seeded random matrices, with hypothesis choosing seeds and scales
deterministically.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rotform import (
    QForm,
    common_zero_check,
    invariant_report,
    normal_invariant_recover,
    planar_analyze,
    principal_minor_sums,
    random_orthogonal,
    skew_square_structure,
    sym_eigen,
    zero_subspace_extend,
)

from oracles import jordan_shear, random_normal_matrix, random_unit, rotation_scaling_block

SEEDS = st.integers(0, 2**32 - 1)


def _planar_family(seed):
    """A random 2x2 matrix, or one of the classification's boundary cases."""
    rng = np.random.default_rng(seed)
    kind = seed % 4
    if kind == 0:
        return jordan_shear(rng.uniform(-1, 1), 0.0)[:2, :2] * rng.uniform(0.1, 1)
    if kind == 1:
        return rotation_scaling_block(rng.uniform(-1, 1), rng.uniform(0.1, 1))
    if kind == 2:
        return rng.uniform(-1, 1) * np.eye(2)
    return rng.uniform(-1, 1, (2, 2))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=SEEDS, c=st.sampled_from([1e-8, 1e-6, 1e6, 1e8]))
def test_planar_classification_is_scale_free(seed, c):
    A = _planar_family(seed)
    base = planar_analyze(A)
    scaled = planar_analyze(c * A)
    assert scaled.classification == base.classification
    assert scaled.zero_count == base.zero_count
    assert scaled.borderline == base.borderline
    for z, w in zip(scaled.eigs, base.eigs):
        assert abs(z - c * w) <= 1e-12 * c * np.max(np.abs(A))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=SEEDS, eigenvector=st.booleans())
def test_default_common_zero_check_is_scale_free(seed, eigenvector):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    M = rng.uniform(-1, 1, (n, n))
    A = M + M.T if eigenvector else M
    u = sym_eigen(A)[1][:, 0] if eigenvector else random_unit(rng, n)
    expected = common_zero_check(A, u)
    assert expected == eigenvector
    assert common_zero_check(1e-12 * A, u) == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=SEEDS, c=st.sampled_from([1e-10, 1e10]))
def test_zero_subspace_extend_is_scale_free(seed, c):
    # In the eigenbasis of diag(a, -b, 0) the vectors (sqrt b, +-sqrt a, 0)
    # and e3 are zeros; the first two have polar value 2ab, e3 none.
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.1, 2.0, 2)
    P = random_orthogonal(3, seed)
    M = P @ np.diag([a, -b, 0.0]) @ P.T
    x = P @ np.array([np.sqrt(b), np.sqrt(a), 0.0])
    y = P @ np.array([np.sqrt(b), -np.sqrt(a), 0.0])
    z = P[:, 2]
    for scale in (1.0, c):
        q = QForm(3, scale * M)
        assert zero_subspace_extend(q, [x], y) is False
        assert zero_subspace_extend(q, [x], z) is True
        assert zero_subspace_extend(q, [x, y], z) is True


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=SEEDS, c=st.sampled_from([1e-6, 1e-3, 1e3, 1e6]))
def test_skew_square_blocks_are_scale_free(seed, c):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    M = rng.standard_normal((n, n))
    A = M - M.T
    base = skew_square_structure(A)
    scaled = skew_square_structure(c * A)
    assert [b.shape[1] for _, b, _ in scaled] == [b.shape[1] for _, b, _ in base]
    assert len(base) == (n + 1) // 2
    top = max(abs(v) for v, _, _ in base)
    for (v, _, r), (w, _, _) in zip(scaled, base):
        assert abs(v - c * c * w) <= 1e-12 * c * c * top
        assert r <= 1e-12 * c * np.max(np.abs(A))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=SEEDS, exponent=st.integers(-6, 3))
def test_normal_invariant_recover_is_scale_free(seed, exponent):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    A = random_normal_matrix(rng, n)
    c = 10.0**exponent
    pm, rank = normal_invariant_recover(c * A)
    assert rank == n
    s = c * np.max(np.abs(A))
    for k, (got, want) in enumerate(zip(pm, principal_minor_sums(A)), start=1):
        assert abs(got - c**k * want) <= 1e-10 * s**k


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 8))
def test_identity_residuals_are_scale_free(seed, n):
    # Scaling by a power of two is exact, so every residual built from
    # homogeneous terms must come back bit for bit; n4_det goes through eigh.
    A = np.random.default_rng(seed).uniform(-1, 1, (n, n))
    base = invariant_report(A, seed=seed).residuals
    for c in (2.0**20, 2.0**-20):
        scaled = invariant_report(c * A, seed=seed).residuals
        assert scaled.keys() == base.keys()
        for key, value in base.items():
            if key == "n4_det":
                assert max(value, scaled[key]) <= 1e-13
            else:
                assert scaled[key] == value, key
