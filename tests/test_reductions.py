"""LP constructions for the three estimators and coordinate recovery."""

import dataclasses

import numpy as np
import pytest

from parasimplex.core import (
    ParametricProgram,
    PathSegment,
    ProgramKind,
    SolutionPath,
    Termination,
    evaluate_primal,
    segment_breakpoint,
)
from parasimplex.engine import solve_path
from parasimplex.experiments import DiffNetGenConfig, gen_diffnet
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
    diffnet_sparsity_stop,
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
    np.testing.assert_allclose(p.A.to_dense()[:2, :2], G)
    np.testing.assert_allclose(p.A.to_dense()[:2, 2:], -G)
    np.testing.assert_allclose(p.A.to_dense()[2:, :2], -G)
    np.testing.assert_allclose(p.A.to_dense()[2:, 2:], G)
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
    # an equality program's path has no slacks to infer d from
    eq = ParametricProgram([[1.0, 1.0]], [1.0], [0.0], [-1.0, -2.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="d cannot be inferred: path has no slack info"):
        recover_dantzig(solve_path(eq, initial_basis=[0]))


def test_recover_complementarity_guard():
    seg_path = SolutionPath(
        segments=[],
        termination=Termination.REACHED_TARGET,
        terminal_lambda=0.0,
        num_cols=4,
    )
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
    np.testing.assert_allclose(p.A.to_dense()[:n, :n], np.eye(n))
    np.testing.assert_allclose(p.A.to_dense()[:n, n:2 * n], -np.eye(n))
    np.testing.assert_allclose(p.A.to_dense()[:n, 2 * n:2 * n + d], Z)
    np.testing.assert_allclose(p.A.to_dense()[:n, 2 * n + 2 * d], y)
    # norm-budget row touches theta halves and the norm slack only
    np.testing.assert_allclose(p.A.to_dense()[n, 2 * n:2 * n + 2 * d], 1.0)
    assert p.A.to_dense()[n, -1] == 1.0
    np.testing.assert_allclose(p.b, [1.0, 1.0, 1.0, 0.0])
    np.testing.assert_allclose(p.b_bar, [0.0, 0.0, 0.0, 1.0])
    # hinge block carries the objective
    assert np.all(p.c[:n] == -1.0) and np.all(p.c[n:] == 0.0)
    # starting basis is the hinge block plus the norm slack, and it is I
    assert basis == [0, 1, 2, 2 * n + 2 * d + 2]
    np.testing.assert_allclose(p.A.to_dense()[:, basis], np.eye(n + 1))


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


def _svm_path(n, d, pieces):
    """A hand-built path in build_svm's column layout from pieces
    (lambda_lo, lambda_hi, columns, base, slope)."""
    cols = 2 * n + 2 * d + 3
    none = np.array([], dtype=np.intp)
    return SolutionPath(num_cols=cols, terminal_lambda=0.0, segments=[
        PathSegment(lo, hi, cols, np.array(idx), np.array(base, dtype=float),
                    np.array(slope, dtype=float), none, none * 0.0, none * 0.0)
        for lo, hi, idx, base, slope in pieces
    ])


def test_recover_svm_matches_dense_reference():
    n, d = 3, 4
    tp, tm, i0 = 2 * n, 2 * n + d, 2 * n + 2 * d  # theta+, theta-, theta0+
    path = _svm_path(n, d, [
        (2.0, np.inf, [0, 1, tp + 0, tm + 2, i0],
         [0.2, 0.5, 0.3, 0.2, 0.7], [0.1, -0.2, 0.05, 0.1, -0.1]),
        # theta+[1] is 0 at the breakpoint lambda = 1, so not in the support
        (1.0, 2.0, [n + 2, tp + 1, tm + 0, tm + 3, i0 + 1, i0 + 2],
         [0.4, -0.5, 0.25, 1.5, 0.3, 0.1], [0.2, 0.5, -0.05, -0.5, 0.4, 1.0]),
        # theta0 halves both off: the intercept is exactly zero
        (0.0, 1.0, [2, tm + 3, i0 + 2], [1.0, 0.6, 0.5], [-0.5, 0.2, 0.3]),
    ])
    orig = recover_svm(path, SvmInstance(np.ones((n, d)), np.ones(n)))
    assert path.terminal_lambda == 0.0 and len(orig.segments) == 3
    supports = [orig.support_at(segment_breakpoint(s)) for s in orig.segments]
    for seg, got, support in zip(path.segments, orig.segments, supports):
        assert (got.lambda_lo, got.lambda_hi) == (seg.lambda_lo, seg.lambda_hi)
        bp = segment_breakpoint(seg)
        for lam in (bp, bp + 0.5):
            x = evaluate_primal(seg, lam)
            np.testing.assert_allclose(got.value(lam), x[tp:tm] - x[tm:i0],
                                       rtol=0, atol=1e-15)
            assert got.intercept(lam) == pytest.approx(x[i0] - x[i0 + 1],
                                                      rel=0, abs=1e-15)
        x = evaluate_primal(seg, bp)
        want = np.flatnonzero(np.abs(x[tp:tm] - x[tm:i0]) > SUPPORT_TOL)
        assert support == frozenset(want.tolist())
    assert [sorted(s) for s in supports] == [[0, 2], [0, 3], [3]]
    assert orig.segments[1].intercept(1.5) == pytest.approx(-(0.3 + 1.5 * 0.4))
    assert orig.segments[2].intercept_base == orig.segments[2].intercept_slope == 0


# n=3, d=2: hinge halves 0-2 and 3-5, theta 6-7 and 8-9, theta0 10 and 11
@pytest.mark.parametrize("columns, name", [
    ([0, 3], "hinge"),
    ([6, 8], "theta"),
    ([10, 11], "theta0"),
    ([10, 11, 7, 9, 2, 5], "hinge"),  # checked in the order hinge, theta, theta0
    ([10, 11, 6, 8], "theta"),
])
def test_recover_svm_names_the_overlapping_split(columns, name):
    k = len(columns)
    path = _svm_path(3, 2, [(0.0, 1.0, columns, [1.0] * k, [0.0] * k)])
    with pytest.raises(ComplementarityViolation, match=f"^{name} split"):
        recover_svm(path, SvmInstance(np.ones((3, 2)), np.ones(3)))


def test_sparsity_stop_agrees_with_recovered_supports():
    S_X, S_Y, delta0 = gen_diffnet(DiffNetGenConfig(d=8, n=100, sparsity=3,
                                                    rng_seed=5))
    want = int(np.count_nonzero(np.abs(delta0) > SUPPORT_TOL))
    inst = DiffNetInstance.from_covariances(S_X, S_Y)
    path = solve_path(build_diffnet(inst),
                      stop_callback=diffnet_sparsity_stop(inst, want))
    assert path.termination is Termination.REACHED_TARGET
    orig = recover_diffnet(path, inst)
    supports = [orig.support_at(segment_breakpoint(s)) for s in orig.segments]
    sizes = [len(s) for s in supports]
    assert len(sizes) > 2
    assert max(sizes[:-1]) < want <= sizes[-1]
    # the path stops at a breakpoint; support_at uses the same column-major indices
    D = orig.value_at(path.terminal_lambda)
    flat = np.flatnonzero(np.abs(D).ravel(order="F") > SUPPORT_TOL)
    assert orig.support_at(path.terminal_lambda) == frozenset(flat.tolist()) == supports[-1]
    # a segment open below, such as a path's only one, never stops it
    open_below = dataclasses.replace(path.segments[-1], lambda_lo=-np.inf)
    assert diffnet_sparsity_stop(inst, 1)(open_below) is False


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
    np.testing.assert_allclose(p.A.to_dense()[:nW, :nD], G)
    np.testing.assert_allclose(p.A.to_dense()[nW:, nD:], G)
    np.testing.assert_allclose(p.A.to_dense()[:nW, nD:], -G)
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
        p.A.to_dense()[:nW] @ xsplit, (X @ D @ Z).flatten(order="F"), atol=1e-10
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
    supports = [orig.support_at(segment_breakpoint(s)) for s in orig.segments]
    for seg, support in zip(orig.segments, supports):
        assert seg.base.shape == seg.slope.shape == (3, 4)
        lam = max(segment_breakpoint(seg), 0.0)
        D = seg.value(lam)
        assert np.abs(X @ D @ Z - Y).max() <= lam + 1e-9 * (1.0 + lam)
        want = np.flatnonzero(np.abs(D.flatten(order="F")) > SUPPORT_TOL)
        assert support == frozenset(want.tolist())
    assert len(supports[-1]) > 0


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
    supports = [orig.support_at(segment_breakpoint(s)) for s in orig.segments]
    assert supports[0] == frozenset()
    assert supports[1] == frozenset({0})
    assert supports[2] == frozenset({0, 1})
    # between the breakpoints 3 and 1, and below 1
    assert [orig.support_at(lam) for lam in (3.5, 2.0, 0.5)] == [set(), {0}, {0, 1}]


def _dense_split(seg, lo, w):
    """u = u_plus - u_minus in columns lo : lo + 2w of one segment, formed
    densely from its six arrays: the per-segment reference for recovery."""
    base, slope = np.zeros((2, seg.n_cols))
    base[seg.primal_indices], slope[seg.primal_indices] = seg.primal_base, seg.primal_slope
    b, s = base[lo:lo + 2 * w].reshape(2, w), slope[lo:lo + 2 * w].reshape(2, w)
    return b[0] - b[1], s[0] - s[1]


def _sup_norm_path(pieces, d):
    """A hand-built path over the 2d split columns of a sup-norm program from
    pieces (lambda_lo, lambda_hi, columns, base)."""
    none = np.array([], dtype=np.intp)
    return SolutionPath(num_cols=2 * d, terminal_lambda=0.0, segments=[
        PathSegment(lo, hi, 2 * d, np.array(idx), np.array(base, dtype=float),
                    np.zeros(len(idx)), none, none * 0.0, none * 0.0)
        for lo, hi, idx, base in pieces
    ])


# d = 2 recovers the three segments two at a time, d = 4 all at once
@pytest.mark.parametrize("d", [2, 4])
def test_recovery_names_the_first_segment_with_overlapping_halves(d):
    # coordinate i's halves are columns i and d + i; segments 1 and 2 both overlap
    path = _sup_norm_path([(2.0, np.inf, [0, d + 1], [1.0, 1.0]),
                           (1.5, 2.0, [0, d], [1.0, 2.0]),
                           (0.0, 1.5, [1, d + 1, 0, d], [1.0, 3.0, 1.0, 1.0])], d)
    with pytest.raises(ComplementarityViolation,
                       match=r"^theta split has overlapping halves at lambda=1\.5 "
                             r"\(max product 2\.000e\+00\)$"):
        recover_dantzig(path, d=d)
    path.segments[1:2] = []
    with pytest.raises(ComplementarityViolation, match="lambda=0 .*3.000e"):
        recover_dantzig(path, d=d)


def test_recover_svm_names_the_first_segment_before_its_split():
    # segment 0 overlaps in theta, segment 1 in hinge: segment 0's theta is named
    path = _svm_path(3, 2, [(1.0, np.inf, [6, 8], [1.0, 1.0], [0.0, 0.0]),
                            (0.0, 1.0, [0, 3], [1.0, 1.0], [0.0, 0.0])])
    with pytest.raises(ComplementarityViolation, match="^theta split .* lambda=1 "):
        recover_svm(path, SvmInstance(np.ones((3, 2)), np.ones(3)))


def test_an_empty_path_recovers_to_no_segments():
    inst = DiffNetInstance(np.ones((2, 3)), np.ones((4, 2)), np.ones((2, 2)))
    assert recover_dantzig(SolutionPath(), d=3).segments == []
    assert recover_diffnet(SolutionPath(), inst).segments == []
    assert recover_svm(SolutionPath(), SvmInstance(np.ones((3, 2)), np.ones(3))).segments == []


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_recovery_equals_the_dense_reference_byte_for_byte():
    rng = np.random.default_rng(12)
    dantzig = solve_path(build_dantzig(DantzigInstance(rng.standard_normal((30, 60)),
                                                       rng.standard_normal(30))),
                         lambda_target=0.0)
    assert dantzig.num_pivots > 150  # several windows
    # the rectangular diffnet: D is 3 x 4
    diffnet = DiffNetInstance(rng.standard_normal((2, 3)), rng.standard_normal((4, 2)),
                              rng.standard_normal((2, 2)))
    dn_path = solve_path(build_diffnet(diffnet))
    for orig, path, w in [(recover_dantzig(dantzig), dantzig, 60),
                          (recover_diffnet(dn_path, diffnet), dn_path, 12)]:
        assert len(orig.segments) == len(path.segments) > 1
        for got, seg in zip(orig.segments, path.segments):
            assert (got.lambda_lo, got.lambda_hi) == (seg.lambda_lo, seg.lambda_hi)
            want_base, want_slope = _dense_split(seg, 0, w)
            _same_bytes(got.base.ravel(order="F"), want_base)
            _same_bytes(got.slope.ravel(order="F"), want_slope)
    assert recover_diffnet(dn_path, diffnet).segments[0].base.shape == (3, 4)
    # theta-[0] and theta0- alone with a zero base: 0 - 0.0 is +0.0, not -0.0
    n, d = 3, 4
    tp, tm, i0 = 2 * n, 2 * n + d, 2 * n + 2 * d
    path = _svm_path(n, d, [
        (2.0, np.inf, [0, tp + 1, tm + 0, i0 + 1], [0.2, 0.3, 0.0, 0.0], [0.1, 0.05, 0.5, 1.0]),
        (1.0, 2.0, [n + 2, tm + 2, tp + 3, i0], [0.4, 0.25, -0.5, 0.3], [0.2, -0.05, 0.5, 0.4]),
    ])
    orig = recover_svm(path, SvmInstance(np.ones((n, d)), np.ones(n)))
    for got, seg in zip(orig.segments, path.segments):
        (want_base, want_slope), (b0, s0) = _dense_split(seg, tp, d), _dense_split(seg, i0, 1)
        _same_bytes(got.base, want_base)
        _same_bytes(got.slope, want_slope)
        _same_bytes(np.array([got.intercept_base, got.intercept_slope]), np.concatenate([b0, s0]))
    assert np.signbit(orig.segments[0].base).tolist() == [False] * d


def test_sparsity_stop_decides_like_the_dense_reference():
    S_X, S_Y, _ = gen_diffnet(DiffNetGenConfig(d=8, n=100, sparsity=3, rng_seed=5))
    inst = DiffNetInstance.from_covariances(S_X, S_Y)
    nD = 64
    path = solve_path(build_diffnet(inst), lambda_target=0.0)
    assert path.num_pivots > 10
    stops = {want: diffnet_sparsity_stop(inst, want) for want in range(1, 20)}
    for seg in path.segments[1:]:
        x = evaluate_primal(seg, seg.lambda_lo)
        on = np.abs(x[:2 * nD].reshape(2, nD)) > SUPPORT_TOL
        count = np.count_nonzero(on.any(axis=0))
        dense = PathSegment(seg.lambda_lo, seg.lambda_hi, seg.n_cols, seg.primal_indices,
                            seg.primal_base, seg.primal_slope, seg.dual_indices,
                            seg.dual_base, seg.dual_slope)
        for want, stop in stops.items():
            assert stop(seg) == stop(dense) == (count >= want)
