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


# ------------------------------------------------ split slack/structural base


def _assemble(cols, slack_rows):
    """The dense basis a split factorization stands for."""
    m = len(slack_rows)
    B = np.zeros((m, m))
    struct = [pos for pos in range(m) if slack_rows[pos] < 0]
    B[:, struct] = cols
    for pos, row in enumerate(slack_rows):
        if row >= 0:
            B[row, pos] = 1.0
    return B


def _mixed_basis(rng, m, k):
    """Random m x k structural columns mixed with m - k unit slack columns,
    in shuffled positions and covering a random row set."""
    rows = rng.permutation(m)[: m - k]
    slack_rows = np.full(m, -1)
    slack_rows[rng.permutation(m)[: m - k]] = rows
    cols = rng.standard_normal((m, k)) + 3.0 * np.eye(m)[:, :k]
    return cols, slack_rows


@pytest.mark.parametrize("k", [0, 1, 3, 7])
def test_split_base_matches_dense(k):
    rng = np.random.default_rng(100 + k)
    m = 7
    cols, slack_rows = _mixed_basis(rng, m, k)
    B = _assemble(cols, slack_rows)
    f = BasisFactorization(cols, slack_rows)
    for _ in range(3):
        rhs = rng.standard_normal(m)
        np.testing.assert_allclose(f.solve(rhs), np.linalg.solve(B, rhs),
                                   atol=SOLVE_TOL)
        np.testing.assert_allclose(f.solve_transpose(rhs),
                                   np.linalg.solve(B.T, rhs), atol=SOLVE_TOL)
    assert f.norm_inf == pytest.approx(np.abs(B).sum(axis=1).max())


def test_all_structural_split_equals_square_constructor():
    rng = np.random.default_rng(5)
    B = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
    a = BasisFactorization(B)
    b = BasisFactorization(B, np.full(5, -1))
    rhs = rng.standard_normal(5)
    np.testing.assert_array_equal(a.solve(rhs), b.solve(rhs))
    np.testing.assert_array_equal(a.solve_transpose(rhs), b.solve_transpose(rhs))


def test_split_base_transpose_is_exactly_zero_off_support():
    # all slack except one structural slot: B' y = e_p touches only the
    # core rows and the one slack row of position p
    rng = np.random.default_rng(9)
    cols, slack_rows = _mixed_basis(rng, 8, 1)
    f = BasisFactorization(cols, slack_rows)
    p = int(np.flatnonzero(slack_rows >= 0)[0])
    y = f.solve_transpose(np.eye(8)[p])
    assert set(np.flatnonzero(y)) <= {int(slack_rows[p])} | set(
        np.flatnonzero(~np.isin(np.arange(8), slack_rows)))


def test_split_base_chain_with_slack_swaps_matches_dense():
    rng = np.random.default_rng(21)
    m = 6
    cols, slack_rows = _mixed_basis(rng, m, 2)
    M = _assemble(cols, slack_rows)
    f = BasisFactorization(cols, slack_rows)
    slack_pos = [int(p) for p in np.flatnonzero(slack_rows >= 0)]
    struct_pos = [int(p) for p in np.flatnonzero(slack_rows < 0)]
    free_rows = sorted(set(range(m)) - set(int(r) for r in slack_rows))
    swaps = [
        (slack_pos[0], rng.standard_normal(m) + 3.0 * np.eye(m)[:, slack_rows[slack_pos[0]]]),
        (struct_pos[0], np.eye(m)[free_rows[0]]),    # structural -> slack
        (slack_pos[1], rng.standard_normal(m) + 3.0 * np.eye(m)[:, slack_rows[slack_pos[1]]]),
        (struct_pos[1], np.eye(m)[free_rows[1]]),    # structural -> slack
        (struct_pos[0], rng.standard_normal(m) + 3.0 * np.eye(m)[:, free_rows[0]]),
    ]
    for k, a in swaps:
        f.replace_column(k, a)
        M[:, k] = a
        rhs = rng.standard_normal(m)
        np.testing.assert_allclose(f.solve(rhs), np.linalg.solve(M, rhs),
                                   atol=1e-9)
        np.testing.assert_allclose(f.solve_transpose(rhs),
                                   np.linalg.solve(M.T, rhs), atol=1e-9)


def test_singular_core_raises():
    # the two structural columns agree on the rows no slack covers
    cols = np.array([[1.0, 2.0], [2.0, 4.0], [5.0, -1.0]])
    with pytest.raises(SingularBasis):
        BasisFactorization(cols, [-1, 2, -1])
    with pytest.raises(SingularBasis):  # one slack column in two slots
        BasisFactorization(np.ones((3, 1)), [0, 0, -1])


def test_split_replacement_to_singular_raises_degenerate():
    rng = np.random.default_rng(4)
    cols, slack_rows = _mixed_basis(rng, 5, 2)
    f = BasisFactorization(cols, slack_rows)
    struct = np.flatnonzero(slack_rows < 0)
    # a copy of one structural column into the other structural slot
    with pytest.raises(UpdateDegenerate):
        f.replace_column(int(struct[1]), cols[:, 0])
    # a covered slack column into a structural slot
    row = int(slack_rows[slack_rows >= 0][0])
    with pytest.raises(UpdateDegenerate):
        f.replace_column(int(struct[0]), np.eye(5)[row])
    B = _assemble(cols, slack_rows)
    rhs = rng.standard_normal(5)
    np.testing.assert_allclose(f.solve(rhs), np.linalg.solve(B, rhs),
                               atol=SOLVE_TOL)


def test_split_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        BasisFactorization(np.ones((3, 2)), [-1, 0, 1])  # 2 columns, 1 slot
    with pytest.raises(ValueError):
        BasisFactorization(np.ones((3, 2)))  # not square, no slack slots
