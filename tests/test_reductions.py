"""LP constructions for the three estimators and coordinate recovery."""

import numpy as np
import pytest

from parasimplex.core import ProgramKind, SolutionPath, Termination, segment_breakpoint
from parasimplex.engine import solve_path
from parasimplex.errors import ComplementarityViolation, InfeasibleAtLargeLambda
from parasimplex.reductions import (
    DantzigInstance,
    DiffNetInstance,
    OriginalSegment,
    SUPPORT_TOL,
    SvmInstance,
    build_dantzig,
    build_diffnet,
    build_svm,
    recover_dantzig,
    recover_diffnet,
    recover_svm,
)

VAL_TOL = 1e-8


def test_dantzig_blocks():
    X = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, -1.0, 2.0])
    p = build_dantzig(DantzigInstance(X, y))
    G = X.T @ X
    g = X.T @ y
    assert p.kind is ProgramKind.LESS_EQUAL
    assert p.A.shape == (4, 4)
    np.testing.assert_allclose(p.A[:2, :2], G)
    np.testing.assert_allclose(p.A[:2, 2:], -G)
    np.testing.assert_allclose(p.A[2:, :2], -G)
    np.testing.assert_allclose(p.A[2:, 2:], G)
    np.testing.assert_allclose(p.b, np.concatenate([g, -g]))
    assert np.all(p.b_bar == 1.0) and np.all(p.c == -1.0) and np.all(p.c_bar == 0.0)


def test_dantzig_shape_mismatch():
    with pytest.raises(ValueError):
        DantzigInstance(np.eye(3), np.ones(2))


def test_dantzig_lambda_zero_solves_normal_equations():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((12, 4))
    theta_true = np.array([1.0, -2.0, 0.5, 0.0])
    y = X @ theta_true + 0.01 * rng.standard_normal(12)
    path = solve_path(build_dantzig(DantzigInstance(X, y)))
    theta0 = recover_dantzig(path).value_at(0.0)
    lstsq = np.linalg.lstsq(X, y, rcond=None)[0]
    np.testing.assert_allclose(theta0, lstsq, atol=1e-6)


def test_dantzig_sign_equivariance():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((10, 3))
    y = rng.standard_normal(10)
    pos = recover_dantzig(solve_path(build_dantzig(DantzigInstance(X, y))))
    neg = recover_dantzig(solve_path(build_dantzig(DantzigInstance(X, -y))))
    for lam in (0.0, 0.3, 1.0):
        np.testing.assert_allclose(pos.value_at(lam), -neg.value_at(lam),
                                   atol=VAL_TOL)


def test_recover_dantzig_infers_width_from_slacks():
    p = build_dantzig(DantzigInstance(np.eye(2), np.array([2.0, -1.0])))
    path = solve_path(p)
    assert recover_dantzig(path).value_at(0.0).shape == (2,)
    np.testing.assert_allclose(
        recover_dantzig(path, d=2).value_at(0.0), [2.0, -1.0], atol=VAL_TOL
    )


def test_recover_complementarity_guard():
    seg_path = SolutionPath(
        segments=[],
        termination=Termination.REACHED_TARGET,
        terminal_lambda=0.0,
        num_cols=4,
    )
    from parasimplex.core import PathSegment

    seg_path.segments.append(
        PathSegment(
            lambda_lo=0.0, lambda_hi=1.0, n_cols=4,
            primal_indices=np.array([0, 1]),
            primal_base=np.array([1.0, 2.0]),   # theta+ and theta- both on
            primal_slope=np.zeros(2),
            dual_indices=np.array([2, 3]),
            dual_base=np.zeros(2), dual_slope=np.zeros(2),
        )
    )
    with pytest.raises(ComplementarityViolation):
        recover_dantzig(seg_path, d=1)


def test_svm_layout_and_start_basis():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    y = np.array([1.0, -1.0, 1.0])
    p, basis = build_svm(SvmInstance(X, y))
    n, d = X.shape
    assert p.kind is ProgramKind.EQUALITY
    assert p.A.shape == (n + 1, 2 * n + 2 * d + 3)
    Z = y[:, None] * X
    np.testing.assert_allclose(p.A[:n, :n], np.eye(n))
    np.testing.assert_allclose(p.A[:n, n:2 * n], -np.eye(n))
    np.testing.assert_allclose(p.A[:n, 2 * n:2 * n + d], Z)
    np.testing.assert_allclose(p.A[:n, 2 * n + 2 * d], y)
    # norm-budget row touches theta halves and the norm slack only
    np.testing.assert_allclose(p.A[n, 2 * n:2 * n + 2 * d], 1.0)
    assert p.A[n, -1] == 1.0
    np.testing.assert_allclose(p.b, [1.0, 1.0, 1.0, 0.0])
    np.testing.assert_allclose(p.b_bar, [0.0, 0.0, 0.0, 1.0])
    # hinge block carries the objective
    assert np.all(p.c[:n] == -1.0) and np.all(p.c[n:] == 0.0)
    # starting basis is the hinge block plus the norm slack, and it is I
    assert basis == [0, 1, 2, 2 * n + 2 * d + 2]
    np.testing.assert_allclose(p.A[:, basis], np.eye(n + 1))


def test_svm_label_validation():
    with pytest.raises(ValueError):
        SvmInstance(np.eye(2), np.array([1.0, 2.0]))


def test_svm_generic_data_has_no_large_lambda_start():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((6, 2))
    y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    p, basis = build_svm(SvmInstance(X, y))
    with pytest.raises(InfeasibleAtLargeLambda):
        solve_path(p, initial_basis=basis)


def test_svm_balanced_data_gives_trivial_path():
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    inst = SvmInstance(X, y)
    p, basis = build_svm(inst)
    path = solve_path(p, initial_basis=basis, lambda_target=0.25)
    assert path.termination is Termination.REACHED_TARGET
    assert path.num_pivots == 0
    orig = recover_svm(path, inst)
    seg = orig.segment_at(1.0)
    np.testing.assert_allclose(seg.value(1.0), [0.0, 0.0], atol=VAL_TOL)
    assert seg.intercept(1.0) == pytest.approx(0.0, abs=VAL_TOL)


def test_diffnet_blocks_encode_the_linear_map():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((2, 3))   # m1 x d1
    Z = rng.standard_normal((4, 2))   # d2 x m2
    Y = rng.standard_normal((2, 2))   # m1 x m2
    inst = DiffNetInstance(X, Z, Y)
    p = build_diffnet(inst)
    m1, d1, d2, m2 = inst.dims
    nD, nW = d1 * d2, m1 * m2
    assert p.kind is ProgramKind.LESS_EQUAL
    assert p.A.shape == (2 * nW, 2 * nD)
    G = np.kron(Z.T, X)
    np.testing.assert_allclose(p.A[:nW, :nD], G)
    np.testing.assert_allclose(p.A[nW:, nD:], G)
    np.testing.assert_allclose(p.A[:nW, nD:], -G)
    np.testing.assert_allclose(p.b[:nW], Y.flatten(order="F"))
    np.testing.assert_allclose(p.b_bar, np.ones(2 * nW))
    np.testing.assert_allclose(p.c, -np.ones(2 * nD))

    # a planted D reproduces vec(X D Z) through the top block
    D = rng.standard_normal((d1, d2))
    xsplit = np.concatenate([
        np.maximum(D, 0).flatten(order="F"),
        np.maximum(-D, 0).flatten(order="F"),
    ])
    np.testing.assert_allclose(
        p.A[:nW] @ xsplit, (X @ D @ Z).flatten(order="F"), atol=1e-10
    )


def test_diffnet_rectangular_path_recovers_d1_by_d2():
    # G = Z' kron X is 4 x 12: the template's blocks are not square and D is
    # 3 x 4, so a row/column or C/F-order mix-up shows in the residual
    rng = np.random.default_rng(3)
    X = rng.standard_normal((2, 3))
    Z = rng.standard_normal((4, 2))
    Y = rng.standard_normal((2, 2))
    inst = DiffNetInstance(X, Z, Y)
    path = solve_path(build_diffnet(inst), lambda_target=0.0)
    assert path.termination in (Termination.LAMBDA_NONPOSITIVE,
                                Termination.REACHED_TARGET)
    orig = recover_diffnet(path, inst)
    assert path.num_pivots > 0
    for seg, support in zip(orig.segments, orig.supports):
        assert seg.base.shape == seg.slope.shape == (3, 4)
        lam = max(segment_breakpoint(seg), 0.0)
        D = seg.value(lam)
        assert np.abs(X @ D @ Z - Y).max() <= lam + 1e-9 * (1.0 + lam)
        want = np.flatnonzero(np.abs(D.flatten(order="F")) > SUPPORT_TOL)
        assert support == frozenset(want.tolist())
    assert len(orig.supports[-1]) > 0


def test_diffnet_scalar_closed_form():
    inst = DiffNetInstance.from_covariances(np.array([[2.0]]), np.array([[1.0]]))
    path = solve_path(build_diffnet(inst))
    orig = recover_diffnet(path, inst)
    for lam in (0.0, 0.25, 0.5, 1.0, 2.0):
        want = max((1.0 - lam) / 2.0, 0.0)
        assert orig.value_at(lam)[0, 0] == pytest.approx(want, abs=VAL_TOL)


def test_diffnet_equal_covariances_stay_at_zero():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((3, 3))
    S = M @ M.T + 3.0 * np.eye(3)
    inst = DiffNetInstance.from_covariances(S, S)
    path = solve_path(build_diffnet(inst))
    assert path.num_pivots == 0
    orig = recover_diffnet(path, inst)
    np.testing.assert_allclose(orig.value_at(0.0), np.zeros((3, 3)), atol=VAL_TOL)


def test_diffnet_recovers_precision_difference_at_zero():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((2, 2))
    S_X = A @ A.T + 2.0 * np.eye(2)
    B = rng.standard_normal((2, 2))
    S_Y = B @ B.T + 2.0 * np.eye(2)
    inst = DiffNetInstance.from_covariances(S_X, S_Y)
    path = solve_path(build_diffnet(inst))
    delta = recover_diffnet(path, inst).value_at(0.0)
    want = np.linalg.inv(S_Y) - np.linalg.inv(S_X)
    np.testing.assert_allclose(delta, want, atol=1e-6)


def test_diffnet_path_matches_enumeration_oracle():
    from parasimplex.oracle import check_path_against_oracle

    rng = np.random.default_rng(40)
    A = rng.standard_normal((2, 2))
    S_X = A @ A.T + 2.0 * np.eye(2)
    B = rng.standard_normal((2, 2))
    S_Y = B @ B.T + 2.0 * np.eye(2)
    p = build_diffnet(DiffNetInstance.from_covariances(S_X, S_Y))
    path = solve_path(p)
    report = check_path_against_oracle(p, path, samples_per_segment=3)
    assert report.passed, report.failures[:3]


def test_diffnet_dimension_validation():
    with pytest.raises(ValueError):
        DiffNetInstance(np.ones((2, 3)), np.ones((4, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        DiffNetInstance.from_covariances(np.eye(2), np.eye(3))


def test_original_segment_affine_eval():
    seg = OriginalSegment(0.0, 2.0, np.array([1.0, 0.0]), np.array([-1.0, 2.0]),
                          intercept_base=0.5, intercept_slope=1.0)
    np.testing.assert_allclose(seg.value(2.0), [-1.0, 4.0])
    assert seg.intercept(2.0) == 2.5


def test_supports_follow_the_soft_threshold():
    p = build_dantzig(DantzigInstance(np.eye(2), np.array([3.0, 1.0])))
    orig = recover_dantzig(solve_path(p))
    assert orig.supports[0] == frozenset()
    assert orig.supports[1] == frozenset({0})
    assert orig.supports[2] == frozenset({0, 1})
