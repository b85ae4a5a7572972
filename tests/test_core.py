"""Program containers, standard-form conversion, partitions, path segments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parasimplex.core import (
    BasisPartition,
    ParametricProgram,
    PathSegment,
    ProgramKind,
    SolutionPath,
    Termination,
    evaluate_dual,
    evaluate_primal,
    segment_breakpoint,
    to_standard_form,
)

EVAL_TOL = 1e-12


def _toy_program(kind=ProgramKind.LESS_EQUAL):
    return ParametricProgram(
        A=[[1.0, 2.0], [3.0, 4.0]],
        b=[1.0, 2.0],
        b_bar=[1.0, 1.0],
        c=[-1.0, -1.0],
        c_bar=[0.0, 0.0],
        kind=kind,
    )


def test_program_accepts_kind_strings():
    p = _toy_program(kind="less_equal")
    assert p.kind is ProgramKind.LESS_EQUAL
    with pytest.raises(ValueError):
        _toy_program(kind="banana")


def test_program_shape_validation():
    with pytest.raises(ValueError):
        ParametricProgram(A=[[1.0, 2.0]], b=[1.0, 2.0], b_bar=[0.0],
                          c=[0.0, 0.0], c_bar=[0.0, 0.0])
    with pytest.raises(ValueError):
        ParametricProgram(A=[[1.0]], b=[1.0], b_bar=[1.0],
                          c=[0.0, 1.0], c_bar=[0.0])
    with pytest.raises(ValueError):
        ParametricProgram(A=[[np.nan]], b=[1.0], b_bar=[1.0],
                          c=[0.0], c_bar=[0.0])


def test_equality_more_rows_than_cols_rejected():
    with pytest.raises(ValueError):
        ParametricProgram(A=np.ones((3, 2)), b=np.zeros(3), b_bar=np.zeros(3),
                          c=np.zeros(2), c_bar=np.zeros(2),
                          kind=ProgramKind.EQUALITY)


def test_cost_rhs_objective():
    p = _toy_program()
    np.testing.assert_allclose(p.rhs(2.0), [3.0, 4.0])
    np.testing.assert_allclose(p.cost(2.0), [-1.0, -1.0])
    assert p.cost(0.0) @ np.array([1.0, 1.0]) == -2.0


def test_to_standard_form_appends_identity_slacks():
    p = _toy_program()
    std, info = to_standard_form(p)
    assert std.kind is ProgramKind.EQUALITY
    assert std.n == p.n + p.m
    np.testing.assert_allclose(std.A.to_dense()[:, p.n:], np.eye(p.m))
    np.testing.assert_allclose(std.A.to_dense()[:, :p.n], p.A.to_dense())
    assert np.all(std.c[p.n:] == 0.0) and np.all(std.c_bar[p.n:] == 0.0)
    assert info.original_n == p.n
    assert std.n - info.original_n == p.m  # the slack count


def test_standard_form_skips_rechecks_but_user_programs_keep_them():
    # to_standard_form trusts the vectors of an already-checked program ...
    std, _ = to_standard_form(_toy_program())
    checked = ParametricProgram(std.A, std.b, std.b_bar, std.c, std.c_bar)
    assert std.kind is checked.kind and std.A is checked.A
    for name in ("b", "b_bar", "c", "c_bar"):
        assert getattr(std, name).dtype == float
        np.testing.assert_array_equal(getattr(std, name), getattr(checked, name))
    # ... while a program a user builds is checked entry by entry
    for name in ("b", "b_bar", "c", "c_bar"):
        fields = dict(A=[[1.0, 2.0]], b=[1.0], b_bar=[1.0], c=[0.0, 1.0], c_bar=[0.0, 0.0])
        fields[name] = [np.nan] * len(fields[name])
        with pytest.raises(ValueError, match=f"non-finite entries in {name}"):
            ParametricProgram(**fields, kind=ProgramKind.LESS_EQUAL)


def test_to_standard_form_passthrough_for_equality():
    p = _toy_program(kind=ProgramKind.EQUALITY)
    std, info = to_standard_form(p)
    assert std is p and info is None


def test_partition_swap_and_lookup():
    part = BasisPartition.from_basic(5, [3, 1])
    # always kept sorted
    np.testing.assert_array_equal(part.basic, [1, 3])
    np.testing.assert_array_equal(part.nonbasic, [0, 2, 4])
    assert 3 in part.basic and 2 in part.nonbasic
    assert part.position(1) == 0 and part.position(2) == 1

    part.swap(basic_pos=0, nonbasic_pos=2)  # 1 leaves, 4 enters
    assert sorted(part.basic) == [3, 4]
    assert sorted(part.nonbasic) == [0, 1, 2]
    assert 4 in part.basic and 1 in part.nonbasic
    # positions stay consistent with the (re-sorted) arrays
    for pos, col in enumerate(part.basic):
        assert part.position(col) == pos


@pytest.mark.parametrize("column", [-1, 4, 9])
def test_partition_rejects_out_of_range_columns(column):
    # -1 must not wrap around to the last column
    with pytest.raises(ValueError, match=f"column {column} is out of range"):
        BasisPartition.from_basic(4, [column, 2])
    with pytest.raises(ValueError, match=f"column {column} is out of range"):
        BasisPartition(4, [2], [0, 1, column])


def test_partition_rejects_repeated_columns():
    # a column repeated within one list, with the counts still adding up to n
    with pytest.raises(ValueError, match="duplicate column"):
        BasisPartition(4, [1, 1], [0, 2])
    with pytest.raises(ValueError, match="duplicate column"):
        BasisPartition(4, [1, 3], [0, 3])
    # too few columns to be a repeat: column 2 is in neither list
    with pytest.raises(ValueError, match="partition does not cover all columns"):
        BasisPartition(3, [0], [1])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_partition_swaps_keep_bijection(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    basic = data.draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True)
    )
    part = BasisPartition.from_basic(n, basic)
    for _ in range(data.draw(st.integers(0, 8))):
        bp = data.draw(st.integers(0, m - 1))
        np_ = data.draw(st.integers(0, n - m - 1))
        leaving, entering = part.basic[bp], part.nonbasic[np_]
        part.swap(bp, np_)
        assert part.basic[bp] == entering and part.nonbasic[np_] == leaving
        combined = sorted(part.basic) + sorted(part.nonbasic)
        assert sorted(combined) == list(range(n))
        for pos, col in enumerate(part.basic):
            assert col not in part.nonbasic and part.position(col) == pos
        for pos, col in enumerate(part.nonbasic):
            assert col not in part.basic and part.position(col) == pos


def _segment():
    return PathSegment(
        lambda_lo=1.0,
        lambda_hi=3.0,
        n_cols=4,
        primal_indices=np.array([0, 2]),
        primal_base=np.array([1.0, -2.0]),
        primal_slope=np.array([0.5, 1.0]),
        dual_indices=np.array([1, 3]),
        dual_base=np.array([4.0, 0.0]),
        dual_slope=np.array([-1.0, 2.0]),
    )


def test_segment_contains_and_evaluate():
    seg = _segment()
    assert seg.contains(2.0) and seg.contains(1.0) and seg.contains(3.0)
    assert not seg.contains(0.5)
    x = evaluate_primal(seg, 2.0)
    np.testing.assert_allclose(x, [2.0, 0.0, 0.0, 0.0], atol=EVAL_TOL)
    z = evaluate_dual(seg, 2.0)
    np.testing.assert_allclose(z, [0.0, 2.0, 0.0, 4.0], atol=EVAL_TOL)
    with pytest.raises(ValueError):
        evaluate_primal(seg, 0.0)


@pytest.mark.parametrize("lo, hi, want", [
    (1.0, 3.0, 1.0),
    (-np.inf, 3.0, 3.0),
    (-np.inf, np.inf, 0.0),
    (np.inf, -2.0, -2.0),
    (np.nan, 3.0, 3.0),
    (np.float64(-np.inf), np.float64(2.5), 2.5),
    (-np.inf, np.nan, 0.0),
    (np.nan, np.nan, 0.0),
])
def test_segment_breakpoint_is_the_lower_end_else_the_upper_else_zero(lo, hi, want):
    seg = _segment()
    seg.lambda_lo, seg.lambda_hi = lo, hi
    got = segment_breakpoint(seg)
    assert got == want and type(got) is float


def test_solution_path_lookup():
    seg1 = _segment()
    seg2 = _segment()
    seg2.lambda_lo, seg2.lambda_hi = 3.0, float("inf")
    path = SolutionPath(segments=[seg2, seg1], num_cols=4,
                        termination=Termination.REACHED_TARGET,
                        terminal_lambda=1.0)
    assert path.segment_at(10.0) is seg2
    assert path.segment_at(2.0) is seg1
    with pytest.raises(ValueError):
        path.segment_at(0.0)
    assert path.num_pivots == 0
    bps = path.breakpoints()
    assert 3.0 in bps and 1.0 in bps
