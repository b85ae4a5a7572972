"""Basis factorization: LU solves and rank-one column replacement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parasimplex.errors import SingularBasis, UpdateDegenerate
from parasimplex.linalg import REFRESH_LIMIT, BasisFactorization

SOLVE_TOL = 1e-10


def test_identity_single_update():
    f = BasisFactorization(np.eye(2))
    ratio = f.replace_column(0, np.array([2.0, 0.0]))
    assert ratio == pytest.approx(2.0)  # det doubles
    np.testing.assert_allclose(f.solve(np.array([4.0, 6.0])), [2.0, 6.0],
                               atol=SOLVE_TOL)
    np.testing.assert_allclose(
        f.solve_transpose(np.array([4.0, 6.0])), [2.0, 6.0], atol=SOLVE_TOL
    )


def test_self_replacement_is_identity():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((5, 5))
    f = BasisFactorization(B.copy())
    ratio = f.replace_column(2, B[:, 2].copy())
    assert ratio == pytest.approx(1.0, abs=1e-9)
    rhs = rng.standard_normal(5)
    np.testing.assert_allclose(f.solve(rhs), np.linalg.solve(B, rhs),
                               atol=1e-9)


def test_duplicate_column_raises_degenerate():
    f = BasisFactorization(np.eye(2))
    # replacing column 0 with e_1 would make the basis singular
    with pytest.raises(UpdateDegenerate):
        f.replace_column(0, np.array([0.0, 1.0]))
    # the factorization must still be usable afterwards
    np.testing.assert_allclose(f.solve(np.array([1.0, 2.0])), [1.0, 2.0])


def test_singular_matrix_rejected():
    with pytest.raises(SingularBasis):
        BasisFactorization(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularBasis):
        BasisFactorization(np.zeros((3, 3)))


def test_solve_transpose_matches_dense():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((6, 6))
    f = BasisFactorization(B.copy())
    cols = [rng.standard_normal(6) for _ in range(4)]
    M = B.copy()
    for i, a in enumerate(cols):
        f.replace_column(i, a)
        M[:, i] = a
    rhs = rng.standard_normal(6)
    np.testing.assert_allclose(f.solve(rhs), np.linalg.solve(M, rhs),
                               atol=1e-8)
    np.testing.assert_allclose(f.solve_transpose(rhs),
                               np.linalg.solve(M.T, rhs), atol=1e-8)


def test_long_update_chain_matches_dense():
    # the chain itself never refactorizes; the engine's refresh bounds it
    rng = np.random.default_rng(3)
    n = 4
    f = BasisFactorization(np.eye(n))
    M = np.eye(n)
    for step in range(REFRESH_LIMIT + 10):
        k = step % n
        a = rng.standard_normal(n) + 2.0 * np.eye(n)[:, k]
        f.replace_column(k, a)
        M[:, k] = a
    assert f.updates_since_refactor == REFRESH_LIMIT + 10
    rhs = rng.standard_normal(n)
    np.testing.assert_allclose(f.solve(rhs), np.linalg.solve(M, rhs),
                               atol=1e-7)


def test_condition_estimate_positive():
    f = BasisFactorization(np.diag([1.0, 1e-3]))
    assert f.condition_estimate() >= 1.0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_update_sequences_match_dense(data):
    n = data.draw(st.integers(2, 6))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + n * np.eye(n)
    f = BasisFactorization(M.copy())
    for _ in range(data.draw(st.integers(1, 12))):
        k = int(rng.integers(n))
        a = rng.standard_normal(n) + n * np.eye(n)[:, k]
        try:
            f.replace_column(k, a)
        except UpdateDegenerate:
            continue  # unlucky draw; factorization stays on the previous basis
        M[:, k] = a
        rhs = rng.standard_normal(n)
        np.testing.assert_allclose(f.solve(rhs), np.linalg.solve(M, rhs),
                                   atol=1e-7)
