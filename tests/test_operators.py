"""Constraint operators: each kind against its own dense matrix, sup-norm
paths against the dense-G program, and what a build holds in memory."""

import tracemalloc

import numpy as np
import pytest

from parasimplex.core import ParametricProgram
from parasimplex.engine import solve_path
from parasimplex.experiments import (
    DantzigGenConfig,
    DiffNetGenConfig,
    gen_dantzig,
    gen_diffnet,
)
from parasimplex.operators import DenseMatrix, Gram, Kron, SupNorm, WithSlacks
from parasimplex.reductions import (
    SUPPORT_TOL,
    DantzigInstance,
    DiffNetInstance,
    build_dantzig,
    build_diffnet,
    diffnet_sparsity_stop,
)

BP_TOL = 1e-9
OP_TOL = 1e-12


def _rng():
    return np.random.default_rng(20261018)


def _kinds():
    rng = _rng()
    return {
        "dense": DenseMatrix(rng.standard_normal((5, 7))),
        "gram-d-above-n": Gram(rng.standard_normal((4, 9))),
        "kron-rectangular": Kron(rng.standard_normal((2, 3)),
                                 rng.standard_normal((4, 2))),
        "kron-square": Kron(rng.standard_normal((3, 3)),
                            rng.standard_normal((3, 3))),
    }


def _with_slacks():
    k = _kinds()
    return {
        "slacks-dense": WithSlacks(k["dense"]),
        "slacks-supnorm-gram": WithSlacks(SupNorm(k["gram-d-above-n"])),
        "slacks-supnorm-kron": WithSlacks(SupNorm(k["kron-rectangular"])),
    }


_OPS = [
    *_kinds().items(),
    *((f"supnorm-{name}", SupNorm(G)) for name, G in _kinds().items()),
    *_with_slacks().items(),
]


def _unit_rows(cols):
    """Per column of ``cols``, the row i where it is e_i, else -1."""
    return np.array([int(np.argmax(c)) if np.count_nonzero(c) == 1 and c.max() == 1.0
                     else -1 for c in cols.T])


@pytest.mark.parametrize("op", [op for _, op in _OPS], ids=[k for k, _ in _OPS])
def test_operator_matches_its_dense_matrix(op):
    rng = _rng()
    A = op.to_dense()
    m, n = A.shape
    assert op.shape == (m, n)
    assert op.nbytes <= A.nbytes
    for j in range(n):
        np.testing.assert_allclose(op.column(j), A[:, j], atol=OP_TOL)
    S = rng.permutation(n)[: max(1, n // 2)]
    np.testing.assert_array_equal(op.unit_rows(S), _unit_rows(A[:, S]))
    if isinstance(op, WithSlacks):  # S mixes structural and slack columns
        assert 0 < np.count_nonzero(S >= op.A.shape[1]) < len(S)
        # the gathers take structural columns only
        for call in (lambda: op.columns(S), lambda: op.times_columns(S, np.ones(len(S)))):
            with pytest.raises(IndexError):
                call()
        S = S[S < op.A.shape[1]]
    np.testing.assert_allclose(op.columns(S), A[:, S], atol=OP_TOL)
    x = rng.standard_normal(len(S))
    np.testing.assert_allclose(op.times_columns(S, x), A[:, S] @ x, atol=OP_TOL)
    R, xR = np.r_[S, S], np.r_[x, x]  # a repeated column adds up
    np.testing.assert_allclose(op.times_columns(R, xR), A[:, R] @ xR, atol=OP_TOL)
    y_full = rng.standard_normal(m)
    y_sparse = np.zeros(m)
    y_sparse[m - 1] = 2.5
    for y in (y_full, y_sparse, np.zeros(m)):
        np.testing.assert_allclose(op.rmatvec(y), A.T @ y, atol=OP_TOL)
    # a block of vectors, one per column, costs one product
    xs = rng.standard_normal((len(S), 3))
    np.testing.assert_allclose(op.times_columns(S, xs), A[:, S] @ xs, atol=OP_TOL)
    np.testing.assert_allclose(op.times_columns(R, np.r_[xs, xs]), A[:, R] @ np.r_[xs, xs],
                               atol=OP_TOL)
    ys = np.column_stack([y_full, y_sparse, np.zeros(m)])
    for Y in (ys, ys[:, 1:2], np.zeros((m, 2))):
        np.testing.assert_allclose(op.rmatvec(Y), A.T @ Y, atol=OP_TOL)


@pytest.mark.parametrize("op", [op for _, op in _OPS], ids=[k for k, _ in _OPS])
def test_column_indices_count_from_the_end_and_stop_at_n(op):
    A = op.to_dense()
    n = A.shape[1]
    S = np.arange(-n, 0)
    for j in S:
        np.testing.assert_allclose(op.column(j), A[:, j], atol=OP_TOL)
    np.testing.assert_array_equal(op.unit_rows(S), op.unit_rows(S + n))
    bad_gathers = []
    if isinstance(op, WithSlacks):  # the gathers take structural columns only
        bad_gathers = [-1, op.A.shape[1]]  # the last and the first slack
        S = S[S + n < op.A.shape[1]]
    np.testing.assert_allclose(op.columns(S), A[:, S], atol=OP_TOL)
    x = _rng().standard_normal(len(S))
    np.testing.assert_allclose(op.times_columns(S, x), A[:, S] @ x, atol=OP_TOL)
    for bad in (n, -n - 1):
        for call in (lambda: op.column(bad), lambda: op.columns(np.array([0, bad])),
                     lambda: op.times_columns(np.array([bad]), np.ones(1)),
                     lambda: op.unit_rows(np.array([bad]))):
            with pytest.raises(IndexError):
                call()
    for bad in bad_gathers:
        for call in (lambda: op.columns(np.array([0, bad])),
                     lambda: op.times_columns(np.array([bad]), np.ones(1))):
            with pytest.raises(IndexError):
                call()


def _integer_kinds():
    """Each kind under SupNorm inside WithSlacks, over small nonzero
    integers: every product is exact, so it equals the dense one."""
    rng = _rng()
    ints = lambda *shape: rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], shape)
    return {"dense": DenseMatrix(ints(5, 7)), "gram": Gram(ints(4, 9)),
            "kron": Kron(ints(2, 3), ints(4, 2))}


@pytest.mark.parametrize("kind", ["dense", "gram", "kron"])
def test_one_buffer_products_equal_the_dense_ones_byte_for_byte(kind):
    """[A'y; y] and [top; -top] are written into one buffer. They equal
    the two nested concatenations they replace byte for byte, -0.0
    included, and the products with ``to_dense()`` exactly."""
    G = _integer_kinds()[kind]
    op = WithSlacks(SupNorm(G))
    A = op.to_dense()
    (r, d), (m, n) = G.shape, A.shape
    for j in (0, d - 1, d, 2 * d - 1):  # each half of the split columns
        top = G.column(j % d) if j < d else -G.column(j % d)
        assert op.column(j).tobytes() == np.concatenate([top, -top]).tobytes()
        np.testing.assert_array_equal(op.column(j), A[:, j])
    rng = _rng()
    y = rng.integers(-3, 4, m).astype(float)
    e = np.zeros(m)
    e[r + 1] = -2.0  # a sparse y: DenseMatrix and Gram read its support only
    for Y in (y, e, np.zeros(m), np.column_stack([y, e, y]), np.column_stack([y, e]).T.copy().T):
        v = G.rmatvec(Y[:r] - Y[r:])
        nested = np.concatenate([np.concatenate([v, -v]), Y])
        got = op.rmatvec(Y)
        assert got.shape == nested.shape and got.tobytes() == nested.tobytes()
        np.testing.assert_array_equal(got, A.T @ Y)


def test_kron_columns_are_kron_of_factor_rows_and_columns():
    rng = _rng()
    X, Z = rng.standard_normal((2, 3)), rng.standard_normal((4, 2))
    G = Kron(X, Z)
    assert G.shape == (4, 12)
    for b in range(4):
        for a in range(3):
            np.testing.assert_array_equal(G.column(a + 3 * b), np.kron(Z[b], X[:, a]))
    U = rng.standard_normal((3, 4))
    np.testing.assert_allclose(G.to_dense() @ U.flatten(order="F"),
                               (X @ U @ Z).flatten(order="F"), atol=OP_TOL)


def test_operators_hold_only_their_factors():
    rng = _rng()
    X, Z = rng.standard_normal((40, 40)), rng.standard_normal((40, 40))
    K = SupNorm(Kron(X, Z))
    assert K.shape == (3200, 3200)
    assert K.nbytes == X.nbytes + Z.nbytes
    assert WithSlacks(K).nbytes == K.nbytes
    Xg = rng.standard_normal((10, 50))
    assert SupNorm(Gram(Xg)).nbytes == Xg.nbytes
    assert DenseMatrix(Xg).nbytes == Xg.nbytes


@pytest.mark.parametrize("make, name", [
    (lambda M: DenseMatrix(M), "A"),
    (lambda M: Gram(M, "DantzigInstance.X"), "DantzigInstance.X"),
    (lambda M: Kron(np.eye(2), M, ("X", "Z")), "Z"),
    (lambda M: Kron(M, np.eye(2), ("X", "Z")), "X"),
])
def test_operators_reject_non_finite_factors_by_name(make, name):
    M = np.eye(2)
    M[1, 0] = np.inf
    with pytest.raises(ValueError, match=f"non-finite entries in {name}$"):
        make(M)


def test_builders_name_the_non_finite_input():
    X = np.eye(3)
    X[0, 2] = np.nan
    with pytest.raises(ValueError, match="DantzigInstance.X"):
        build_dantzig(DantzigInstance(X, np.ones(3)))
    with pytest.raises(ValueError, match="DantzigInstance.X"):
        build_dantzig(DantzigInstance(X[:2], np.ones(2)))  # the Gram kind
    with pytest.raises(ValueError, match="DiffNetInstance.Z"):
        build_diffnet(DiffNetInstance.from_covariances(np.eye(3), X))


def test_builders_choose_the_kind_from_the_shapes():
    rng = _rng()
    tall = build_dantzig(DantzigInstance(rng.standard_normal((6, 4)), np.ones(6)))
    wide = build_dantzig(DantzigInstance(rng.standard_normal((4, 6)), np.ones(4)))
    net = build_diffnet(DiffNetInstance.from_covariances(np.eye(3), 2 * np.eye(3)))
    assert type(tall.A.G) is DenseMatrix
    assert type(wide.A.G) is Gram
    assert type(net.A.G) is Kron


# ------------------------------------------- paths against the dense-G program


def _dense_program(p):
    """``p`` with its constraint operator formed as one dense matrix."""
    return ParametricProgram(A=p.A.to_dense(), b=p.b, b_bar=p.b_bar, c=p.c,
                             c_bar=p.c_bar, kind=p.kind)


def _dantzig(n, d):
    X, y, _ = gen_dantzig(DantzigGenConfig(n=n, d=d, rng_seed=1))
    return build_dantzig(DantzigInstance(X, y)), {}


def _diffnet(d, stop):
    S_X, S_Y, delta0 = gen_diffnet(DiffNetGenConfig(d=d, n=100, sparsity=4, rng_seed=3))
    inst = DiffNetInstance.from_covariances(S_X, S_Y)
    if not stop:
        return build_diffnet(inst), {}
    want = int(np.count_nonzero(np.abs(delta0) > SUPPORT_TOL))
    return build_diffnet(inst), {"stop_callback": diffnet_sparsity_stop(inst, want)}


@pytest.mark.parametrize("instance, kind", [
    (lambda: _dantzig(n=60, d=30), DenseMatrix),
    (lambda: _dantzig(n=30, d=60), Gram),
    (lambda: _diffnet(d=10, stop=False), Kron),
    (lambda: _diffnet(d=25, stop=True), Kron),
], ids=["dantzig-n60-d30", "dantzig-n30-d60", "diffnet-d10", "diffnet-d25-sparsity"])
def test_structured_paths_follow_the_dense_g_program(instance, kind):
    p, opts = instance()
    assert type(p.A.G) is kind
    structured = solve_path(p, **opts)
    dense = solve_path(_dense_program(p), **opts)
    assert structured.num_pivots > 10
    assert [(e.entering, e.leaving) for e in structured.events] == [
        (e.entering, e.leaving) for e in dense.events]
    assert structured.termination is dense.termination
    assert [s.lambda_lo for s in structured.segments] == pytest.approx(
        [s.lambda_lo for s in dense.segments], abs=BP_TOL)


def test_diffnet_build_holds_no_dense_g():
    # The dense A of this program is 3200 x 3200, 82 MB.
    S_X, S_Y, _ = gen_diffnet(DiffNetGenConfig(d=40, n=100, sparsity=4, rng_seed=3))
    inst = DiffNetInstance.from_covariances(S_X, S_Y)
    tracemalloc.start()
    try:
        p = build_diffnet(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.A.shape == (3200, 3200)
    assert peak < 1 << 20


def test_solve_never_forms_the_dense_matrix(monkeypatch):
    programs = [_dantzig(n=60, d=30), _dantzig(n=30, d=60), _diffnet(d=10, stop=True)]
    calls = []

    def spy(self):
        calls.append(type(self).__name__)
        raise AssertionError("to_dense called during a solve")

    for kind in (DenseMatrix, Gram, Kron, SupNorm, WithSlacks):
        monkeypatch.setattr(kind, "to_dense", spy)
    for p, opts in programs:
        path = solve_path(p, check_certificates=True, **opts)
        assert path.num_pivots > 10
    assert calls == []
