"""Brute-force enumeration oracle and path cross-checking."""

import numpy as np
import pytest

from parasimplex import oracle
from parasimplex.core import ParametricProgram, PathSegment, ProgramKind
from parasimplex.engine import solve_path
from parasimplex.errors import SizeGuard
from parasimplex.oracle import (
    RANDOM_MAX_COLS,
    RANDOM_MAX_ROWS,
    BasisEnumeration,
    OracleStatus,
    brute_force_optimum,
    check_path_against_oracle,
    random_less_equal,
)
from parasimplex.reductions import DantzigInstance, build_dantzig

GAP_TOL = 1e-7


def test_soft_threshold_value():
    # |theta| minimization with |theta - 3| <= lam at lam=1: theta = 2
    p = build_dantzig(DantzigInstance(np.eye(1), np.array([3.0])))
    res = brute_force_optimum(p, 1.0)
    assert res.status is OracleStatus.OPTIMAL
    assert res.value == pytest.approx(-2.0, abs=GAP_TOL)
    assert res.x[0] == pytest.approx(2.0, abs=GAP_TOL)  # theta_plus
    assert res.x[1] == pytest.approx(0.0, abs=GAP_TOL)  # theta_minus


def test_infeasible_program():
    p = ParametricProgram(A=[[1.0]], b=[-1.0], b_bar=[0.0], c=[-1.0],
                          c_bar=[0.0], kind=ProgramKind.LESS_EQUAL)
    assert brute_force_optimum(p, 0.0).status is OracleStatus.INFEASIBLE


def test_unbounded_zero_row():
    # max x subject to 0*x = 0: no invertible basis exists at all
    p = ParametricProgram(A=[[0.0]], b=[0.0], b_bar=[0.0], c=[1.0],
                          c_bar=[0.0], kind=ProgramKind.EQUALITY)
    assert brute_force_optimum(p, 0.0).status is OracleStatus.UNBOUNDED


def test_zero_row_bounded_when_cost_unhelpful():
    p = ParametricProgram(A=[[0.0]], b=[0.0], b_bar=[0.0], c=[-1.0],
                          c_bar=[0.0], kind=ProgramKind.EQUALITY)
    res = brute_force_optimum(p, 0.0)
    assert res.status is OracleStatus.OPTIMAL and res.value == 0.0


def test_unbounded_via_improving_ray():
    # max x1 s.t. -x1 + s = 1: the ray (1, 1) improves forever
    p = ParametricProgram(A=[[-1.0]], b=[1.0], b_bar=[0.0], c=[1.0],
                          c_bar=[0.0], kind=ProgramKind.LESS_EQUAL)
    assert brute_force_optimum(p, 0.0).status is OracleStatus.UNBOUNDED


def test_size_guard():
    with pytest.raises(SizeGuard):
        BasisEnumeration(
            ParametricProgram(
                A=np.ones((1, 25)), b=[1.0], b_bar=[0.0],
                c=-np.ones(25), c_bar=np.zeros(25), kind=ProgramKind.EQUALITY,
            )
        )


def test_enumeration_reuse_is_deterministic():
    rng = np.random.default_rng(100)
    p = random_less_equal(rng)
    enum = BasisEnumeration(p)
    a = enum.optimum(1.0)
    b = enum.optimum(1.0)
    assert a.value == b.value
    np.testing.assert_array_equal(a.x, b.x)
    c = brute_force_optimum(p, 1.0)
    assert c.value == pytest.approx(a.value, abs=1e-12)


def test_enumeration_without_cached_inverses_matches_the_cached_one(monkeypatch):
    # tall programs (m = 15 over 22 standard-form columns: 170,544 bases of
    # 15 x 15) exceed the inverse cache and invert each chunk per call
    rng = np.random.default_rng(20260817)
    programs = [random_less_equal(rng) for _ in range(20)]
    cached = [BasisEnumeration(p) for p in programs]
    monkeypatch.setattr(oracle, "_INV_CACHE_FLOATS", 0)
    for p, enum in zip(programs, cached):
        fresh = BasisEnumeration(p)
        assert all(inv is not None for _, inv in enum._chunks)
        assert all(inv is None for _, inv in fresh._chunks)
        for lam in (0.0, 0.5, 2.0, 10.0):
            a, b = enum.optimum(lam), fresh.optimum(lam)
            assert a.status is b.status
            assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
            assert (a.x is None) == (b.x is None)
            assert a.x is None or a.x.tobytes() == b.x.tobytes()


def test_path_check_accepts_correct_path():
    rng = np.random.default_rng(2)
    p = random_less_equal(rng)
    rep = check_path_against_oracle(p, solve_path(p), samples_per_segment=6)
    assert rep.passed, rep.failures
    assert rep.samples_checked > 0
    assert rep.worst_rel_gap <= GAP_TOL


def test_path_check_catches_corrupted_slope():
    rng = np.random.default_rng(4)
    p = random_less_equal(rng)
    path = solve_path(p)
    # a dense copy of a segment with a nonempty basis, its slope corrupted
    k, seg = next((k, s) for k, s in enumerate(path.segments) if s.primal_indices.size)
    path.segments[k] = PathSegment(
        seg.lambda_lo, seg.lambda_hi, seg.n_cols, seg.primal_indices, seg.primal_base,
        seg.primal_slope + 0.37, seg.dual_indices, seg.dual_base, seg.dual_slope)
    rep = check_path_against_oracle(p, path, samples_per_segment=6)
    assert not rep.passed
    assert rep.failures


def test_random_program_shape_contract():
    rng = np.random.default_rng(17)
    for _ in range(25):
        p = random_less_equal(rng)
        assert 1 <= p.m <= 6 and 1 <= p.n <= 12
        assert p.kind is ProgramKind.LESS_EQUAL
        assert np.all(p.c <= 0.0)
        assert np.all(p.b_bar == 1.0) and np.all(p.c_bar == 0.0)


def _random_less_equal_by_rows(rng):
    """``random_less_equal`` as it drew its cost: one row at a time."""
    m = int(rng.integers(1, RANDOM_MAX_ROWS + 1))
    n = int(rng.integers(1, RANDOM_MAX_COLS + 1))
    A = rng.uniform(-2.0, 2.0, size=(m, n))
    b = rng.uniform(-2.0, 2.0, size=m)
    c = rng.uniform(-2.0, 2.0, size=n)
    while np.any(c > 0.0):
        c = rng.uniform(-2.0, 2.0, size=n)
    return A, b, c


@pytest.mark.parametrize("seed", [1, 2, 20260817])
def test_random_program_draws_as_row_by_row(seed):
    # the seeded corpora (AC1's is 20260817) stay the same programs, and the
    # generator ends where the row-by-row draws left it
    rng, rows = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        p = random_less_equal(rng)
        A, b, c = _random_less_equal_by_rows(rows)
        assert np.array_equal(p.A.to_dense(), A)
        assert np.array_equal(p.b, b) and np.array_equal(p.c, c)
    assert rng.bit_generator.state == rows.bit_generator.state


def test_small_corpus_paths_match_oracle():
    rng = np.random.default_rng(20260817)
    for _ in range(15):
        p = random_less_equal(rng)
        rep = check_path_against_oracle(p, solve_path(p), samples_per_segment=4)
        assert rep.passed, rep.failures
