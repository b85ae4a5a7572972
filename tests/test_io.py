"""Serialization round trips for programs, paths, and benchmark output."""

import csv
import json

import numpy as np
import pytest

from parasimplex import io as pio
from parasimplex.core import (
    CompactSegment,
    ParametricProgram,
    PathSegment,
    ProgramKind,
    SolutionPath,
    Termination,
    to_standard_form,
)
from parasimplex.engine import solve_path
from parasimplex.experiments import (
    BenchRecord,
    DantzigGenConfig,
    DiffNetGenConfig,
    gen_dantzig,
    gen_diffnet,
)
from parasimplex.linalg import REFRESH_LIMIT
from parasimplex.reductions import (
    DantzigInstance,
    DiffNetInstance,
    OriginalSegment,
    PathInOriginalCoords,
    build_dantzig,
    build_diffnet,
    recover_dantzig,
    recover_diffnet,
)


def _program():
    return build_dantzig(DantzigInstance(np.eye(2), np.array([3.0, 1.0])))


def test_matrix_csv_roundtrip(tmp_path):
    M = np.array([[1.5, -2.0], [0.0, 1e-17]])
    f = tmp_path / "m.csv"
    pio.save_matrix_csv(f, M)
    np.testing.assert_allclose(pio.load_matrix_csv(f), M, rtol=0, atol=0)


def test_matrix_csv_tolerates_header(tmp_path):
    f = tmp_path / "h.csv"
    f.write_text("alpha,beta\n1,2\n3,4\n")
    np.testing.assert_array_equal(pio.load_matrix_csv(f),
                                  [[1.0, 2.0], [3.0, 4.0]])


def test_vector_csv(tmp_path):
    f = tmp_path / "v.csv"
    pio.save_matrix_csv(f, np.array([[1.0], [2.0], [3.0]]))
    np.testing.assert_array_equal(pio.load_vector_csv(f), [1.0, 2.0, 3.0])


def test_program_json_roundtrip(tmp_path):
    p = _program()
    f = tmp_path / "p.json"
    pio.save_program_json(f, p)
    q = pio.load_program_json(f)
    assert q.kind is ProgramKind.LESS_EQUAL
    np.testing.assert_array_equal(q.A.to_dense(), p.A.to_dense())
    np.testing.assert_array_equal(q.b, p.b)
    np.testing.assert_array_equal(q.b_bar, p.b_bar)
    np.testing.assert_array_equal(q.c, p.c)
    np.testing.assert_array_equal(q.c_bar, p.c_bar)


def test_program_json_dimension_check(tmp_path):
    p = _program()
    f = tmp_path / "p.json"
    pio.save_program_json(f, p)
    doc = json.loads(f.read_text())
    doc["n"] = 99
    f.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        pio.load_program_json(f)


def test_program_coo_roundtrip(tmp_path):
    p = _program()
    f = tmp_path / "p.coo"
    pio.save_program_coo(f, p)
    first = f.read_text().splitlines()[0]
    assert first == f"psm-coo m={p.m} n={p.n} kind=less_equal"
    q = pio.load_program_coo(f)
    np.testing.assert_array_equal(q.A.to_dense(), p.A.to_dense())
    np.testing.assert_array_equal(q.b, p.b)
    np.testing.assert_array_equal(q.b_bar, p.b_bar)
    np.testing.assert_array_equal(q.c, p.c)
    assert q.kind is ProgramKind.LESS_EQUAL


def test_program_coo_skips_comments_and_blank_lines(tmp_path):
    plain, commented = tmp_path / "plain.coo", tmp_path / "commented.coo"
    pio.save_program_coo(plain, _program())
    lines = plain.read_text().splitlines()
    commented.write_text("# a comment before the header\n\n" + lines[0] + "\n"
                         + "\n  # indented\n\n".join(lines[1:]) + "\n\n")
    p, q = pio.load_program_coo(plain), pio.load_program_coo(commented)
    np.testing.assert_array_equal(q.A.to_dense(), p.A.to_dense())
    for field in ("b", "b_bar", "c", "c_bar"):
        np.testing.assert_array_equal(getattr(q, field), getattr(p, field))
    assert q.kind is p.kind


def test_program_coo_bad_header(tmp_path):
    f = tmp_path / "bad.coo"
    f.write_text("coo m=1 n=1 kind=equality\n")
    with pytest.raises(ValueError):
        pio.load_program_coo(f)


@pytest.mark.parametrize("record", [
    "A -1 0 1.0", "A 5 1 1.0", "A 0 2 1.0",
    "b 2 1.0", "bbar -1 1.0", "c 2 1.0", "cbar 7 1.0",
])
def test_program_coo_index_out_of_range(tmp_path, record):
    # a negative index must not wrap around to the last row or column
    f = tmp_path / "bad.coo"
    f.write_text(f"psm-coo m=2 n=2 kind=less_equal\n{record}\n")
    with pytest.raises(ValueError, match="out of range") as exc:
        pio.load_program_coo(f)
    assert record.split()[0] in str(exc.value)


@pytest.mark.parametrize("key", ["A", "b", "b_bar", "c", "c_bar"])
def test_program_json_missing_key(tmp_path, key):
    f = tmp_path / "p.json"
    pio.save_program_json(f, _program())
    doc = json.loads(f.read_text())
    del doc[key]
    f.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"no {key} key"):
        pio.load_program_json(f)


def test_path_json_roundtrip(tmp_path):
    path = solve_path(_program())
    f = tmp_path / "path.json"
    pio.save_path_json(f, path)
    back = pio.load_path_json(f)
    assert back.termination is Termination.LAMBDA_NONPOSITIVE
    assert back.num_cols == path.num_cols
    assert back.slack_info.original_n == path.slack_info.original_n
    assert len(back.segments) == len(path.segments)
    assert back.segments[0].lambda_hi == float("inf")
    for a, b in zip(path.segments, back.segments):
        assert a.lambda_lo == b.lambda_lo
        np.testing.assert_array_equal(a.primal_indices, b.primal_indices)
        np.testing.assert_array_equal(a.primal_base, b.primal_base)
        np.testing.assert_array_equal(a.dual_slope, b.dual_slope)
    assert len(back.events) == len(path.events)
    for ea, eb in zip(path.events, back.events):
        assert ea.entering == eb.entering and ea.leaving == eb.leaving
        assert ea.kind is eb.kind and ea.lambda_star == eb.lambda_star
        assert ea.t == eb.t and ea.s_bar == eb.s_bar
    # infinities encoded as strings, not Infinity literals
    assert "Infinity" not in f.read_text()
    # and NaN as "nan", not a NaN literal
    path.terminal_lambda = float("nan")
    pio.save_path_json(f, path)
    assert '"terminal_lambda":"nan"' in f.read_text()
    assert np.isnan(pio.load_path_json(f).terminal_lambda)


def test_path_json_roundtrip_of_a_segment_unbounded_both_ways(tmp_path):
    # the slack basis is optimal for every lambda: one segment, (-inf, inf)
    p = ParametricProgram([[1.0]], [1.0], [0.0], [-1.0], [0.0], kind="less_equal")
    path = solve_path(p)
    assert [(s.lambda_lo, s.lambda_hi) for s in path.segments] == [(-np.inf, np.inf)]
    f = tmp_path / "path.json"
    pio.save_path_json(f, path)
    assert '"lambda_lo":"-inf"' in f.read_text()
    back = pio.load_path_json(f)
    assert [(s.lambda_lo, s.lambda_hi) for s in back.segments] == [(-np.inf, np.inf)]
    assert back.termination is path.termination and back.num_pivots == 0
    for field in ("primal_indices", "primal_base", "dual_indices", "dual_base"):
        np.testing.assert_array_equal(getattr(back.segments[0], field),
                                      getattr(path.segments[0], field))


def test_path_json_save_load_save_is_byte_identical(tmp_path):
    X, y, _ = gen_dantzig(DantzigGenConfig(n=15, d=10, s=3), rng=np.random.default_rng(2))
    path = solve_path(build_dantzig(DantzigInstance(X, y)))
    assert path.num_pivots > 3
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    pio.save_path_json(first, path)
    pio.save_path_json(second, pio.load_path_json(first))
    assert second.read_bytes() == first.read_bytes()
    text = first.read_text()
    assert '"inf"' in text and not any(c in text for c in " \n")


def _whole_document(sol):
    """The path JSON as one ``json.dumps`` of the whole document, as it was
    written before the writer streamed it."""
    return json.dumps({
        "num_cols": sol.num_cols,
        "termination": sol.termination.value,
        "terminal_lambda": pio._enc_float(sol.terminal_lambda),
        "termination_detail": sol.termination_detail,
        "slack_info": None if sol.slack_info is None else pio._fields_doc(sol.slack_info),
        "segments": [pio._segment_doc(s) for s in sol.segments],
        "events": [pio._fields_doc(e) for e in sol.events],
    }, separators=(",", ":"))


@pytest.mark.parametrize("case", ["inf-end", "no-events", "compact-windows",
                                  "equality-windows"])
def test_path_json_streams_the_bytes_of_the_whole_document(tmp_path, case):
    if case == "inf-end":
        path = solve_path(_program())
    elif case == "no-events":
        path = _signed_zero_paths()[0]
    elif case == "compact-windows":  # 308 pivots: six windows closed by a refresh
        X, y, _ = gen_dantzig(DantzigGenConfig(n=50, d=150, rng_seed=1))
        path = solve_path(build_dantzig(DantzigInstance(X, y)))
        assert path.num_pivots == 308
    else:  # a Dantzig program's standard form, [A | I] as one dense equality program
        X, y, _ = gen_dantzig(DantzigGenConfig(n=60, d=30, rng_seed=1))
        std, info = to_standard_form(build_dantzig(DantzigInstance(X, y)))
        dense = ParametricProgram(A=std.A.to_dense(), b=std.b, b_bar=std.b_bar,
                                  c=std.c, c_bar=std.c_bar)
        path = solve_path(dense, initial_basis=range(info.original_n, std.n))
        assert path.slack_info is None and path.num_pivots > REFRESH_LIMIT
    if case != "no-events":
        assert all(isinstance(s, CompactSegment) for s in path.segments)
    assert (case == "no-events") == (not path.events)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    pio.save_path_json(first, path)
    assert first.read_text() == _whole_document(path)
    assert '"lambda_hi":"inf"' in first.read_text()
    pio.save_path_json(second, pio.load_path_json(first))
    assert second.read_bytes() == first.read_bytes()


# A path JSON as written while each segment kept the pivot into it
# ("entering", "leaving") and slack_info kept its row count ("num_rows"):
# the solved _program().
_OLD_PATH_JSON = (
    '{"num_cols":8,"termination":"lambda_nonpositive","terminal_lambda":0.0,'
    '"termination_detail":"","slack_info":{"original_n":4,"num_rows":4},"segments":['
    '{"lambda_lo":3.0,"lambda_hi":"inf",'
    '"primal":{"indices":[4,5,6,7],"base":[3.0,1.0,-3.0,-1.0],"slope":[1.0,1.0,1.0,1.0]},'
    '"dual":{"indices":[0,1,2,3],"base":[1.0,1.0,1.0,1.0],"slope":[0.0,0.0,0.0,0.0]},'
    '"entering":null,"leaving":null},'
    '{"lambda_lo":1.0,"lambda_hi":3.0,'
    '"primal":{"indices":[4,5,0,7],"base":[0.0,1.0,3.0,-1.0],"slope":[2.0,1.0,-1.0,1.0]},'
    '"dual":{"indices":[6,1,2,3],"base":[1.0,1.0,2.0,1.0],"slope":[0.0,0.0,0.0,0.0]},'
    '"entering":0,"leaving":6},'
    '{"lambda_lo":-0.0,"lambda_hi":1.0,'
    '"primal":{"indices":[4,5,0,1],"base":[0.0,0.0,3.0,1.0],"slope":[2.0,2.0,-1.0,-1.0]},'
    '"dual":{"indices":[6,7,2,3],"base":[1.0,1.0,2.0,2.0],"slope":[0.0,0.0,0.0,0.0]},'
    '"entering":1,"leaving":7}],"events":['
    '{"kind":"dual","entering":0,"leaving":6,"lambda_star":3.0,"t":3.0,"t_bar":-1.0,'
    '"s":1.0,"s_bar":0.0},'
    '{"kind":"dual","entering":1,"leaving":7,"lambda_star":1.0,"t":1.0,"t_bar":-1.0,'
    '"s":1.0,"s_bar":0.0}]}'
)


def test_path_json_with_per_segment_pivots_and_row_count_loads(tmp_path):
    f = tmp_path / "old.json"
    f.write_text(_OLD_PATH_JSON)
    back = pio.load_path_json(f)
    assert back.num_cols == 8 and back.slack_info.original_n == 4
    assert back.termination is Termination.LAMBDA_NONPOSITIVE and back.terminal_lambda == 0.0
    assert [(s.lambda_lo, s.lambda_hi) for s in back.segments] == [
        (3.0, float("inf")), (1.0, 3.0), (0.0, 1.0)]
    assert [s.primal_indices.tolist() for s in back.segments] == [
        [4, 5, 6, 7], [4, 5, 0, 7], [4, 5, 0, 1]]
    np.testing.assert_array_equal(back.segments[2].primal_slope, [2.0, 2.0, -1.0, -1.0])
    np.testing.assert_array_equal(back.segments[1].dual_base, [1.0, 1.0, 2.0, 1.0])
    # the pivots into segments 1 and 2 are read from the events alone
    assert [(e.kind.value, e.entering, e.leaving, e.lambda_star) for e in back.events] == [
        ("dual", 0, 6, 3.0), ("dual", 1, 7, 1.0)]
    # it is the path solved now, and is written back without the dropped keys
    new = tmp_path / "new.json"
    pio.save_path_json(new, solve_path(_program()))
    pio.save_path_json(f, back)
    assert f.read_bytes() == new.read_bytes()
    doc = json.loads(f.read_text())
    assert doc["slack_info"] == {"original_n": 4}
    assert all(set(s) == {"lambda_lo", "lambda_hi", "primal", "dual"} for s in doc["segments"])


def test_path_json_keeps_termination_detail(tmp_path):
    unbounded = ParametricProgram(A=[[-1.0]], b=[1.0], b_bar=[0.0], c=[1.0],
                                  c_bar=[-1.0], kind=ProgramKind.LESS_EQUAL)
    path = solve_path(unbounded)
    assert path.termination is Termination.UNBOUNDED and path.termination_detail
    f = tmp_path / "path.json"
    pio.save_path_json(f, path)
    assert pio.load_path_json(f).termination_detail == path.termination_detail
    # files written before the field existed load with an empty detail
    doc = json.loads(f.read_text())
    del doc["termination_detail"]
    f.write_text(json.dumps(doc))
    assert pio.load_path_json(f).termination_detail == ""


def test_path_csv_rows(tmp_path):
    path = solve_path(_program())
    f = tmp_path / "path.csv"
    pio.save_path_csv(f, path)
    with open(f) as fh:
        rows = list(csv.DictReader(fh))
    expected = sum(len(s.primal_indices) for s in path.segments)
    assert len(rows) == expected
    assert set(rows[0]) == {"segment_id", "lambda_lo", "lambda_hi",
                            "var_index", "base", "slope"}
    assert rows[0]["lambda_hi"] == "inf"


def test_original_path_csv_with_violations(tmp_path):
    path = solve_path(_program())
    orig = recover_dantzig(path)
    f = tmp_path / "orig.csv"
    pio.save_original_path_csv(f, orig, violations=[0.0] * len(orig.segments))
    with open(f) as fh:
        rows = list(csv.DictReader(fh))
    assert "violation_at_lo" in rows[0]
    # only segments with active variables produce rows
    assert {r["segment_id"] for r in rows} <= {"0", "1", "2"}


def _original_path_csv_row_by_row(path, orig, violations=None):
    """One csv.writerow per entry: the reference for the batched writer."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["segment_id", "lambda_lo", "lambda_hi",
                  "var_index", "base", "slope"]
        if violations is not None:
            header.append("violation_at_lo")
        w.writerow(header)
        for sid, seg in enumerate(orig.segments):
            base = np.asarray(seg.base).flatten(order="F")
            slope = np.asarray(seg.slope).flatten(order="F")
            for j in np.flatnonzero((base != 0.0) | (slope != 0.0)):
                row = [sid, repr(float(seg.lambda_lo)),
                       repr(float(seg.lambda_hi)),
                       int(j), repr(float(base[j])), repr(float(slope[j]))]
                if violations is not None:
                    row.append(repr(float(violations[sid])))
                w.writerow(row)


def _path_csv_row_by_row(path, sol):
    """One csv.writerow per entry: the reference for the primal path writer."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["segment_id", "lambda_lo", "lambda_hi",
                    "var_index", "base", "slope"])
        for sid, seg in enumerate(sol.segments):
            for j, base, slope in zip(
                seg.primal_indices, seg.primal_base, seg.primal_slope
            ):
                w.writerow([sid, repr(float(seg.lambda_lo)),
                            repr(float(seg.lambda_hi)),
                            int(j), repr(float(base)), repr(float(slope))])


def _signed_zero_paths():
    """A primal and a recovered path whose first segment reaches lambda =
    inf and whose entries include -0.0, which must be written as "-0.0"."""
    none = np.array([], dtype=np.intp)
    sol = SolutionPath(segments=[
        PathSegment(1.5, np.inf, 3, np.array([0, 2]), np.array([-0.0, 2.5]),
                    np.array([1.0, -0.0]), none, none * 0.0, none * 0.0),
        PathSegment(0.0, 1.5, 3, np.array([2]), np.array([1e-300]),
                    np.array([-3.0]), none, none * 0.0, none * 0.0),
    ])
    orig = PathInOriginalCoords(segments=[
        OriginalSegment(1.5, np.inf, np.array([-0.0, 0.0, 7.0]),
                        np.array([1.0, 0.0, -0.0])),
        OriginalSegment(0.0, 1.5, np.array([0.1, -0.0, 0.0]),
                        np.array([0.0, -2.0, 0.0])),
    ])
    return sol, orig


def test_original_path_csv_is_byte_identical_to_row_by_row(tmp_path):
    X, y, _ = gen_dantzig(DantzigGenConfig(n=20, d=8, rng_seed=4))
    orig = recover_dantzig(solve_path(build_dantzig(DantzigInstance(X, y))))
    S_X, S_Y, _ = gen_diffnet(DiffNetGenConfig(d=4, n=50, sparsity=2, rng_seed=2))
    inst = DiffNetInstance.from_covariances(S_X, S_Y)
    matrix = recover_diffnet(solve_path(build_diffnet(inst)), inst)
    _, signed = _signed_zero_paths()
    rng = np.random.default_rng(0)
    cases = [
        (orig, rng.standard_normal(len(orig.segments)) * 1e-11),
        (orig, None),
        (matrix, None),  # matrix segments are written column-major
        (signed, [-0.0, 1e-12]),
    ]
    for k, (o, violations) in enumerate(cases):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        pio.save_original_path_csv(got, o, violations)
        _original_path_csv_row_by_row(want, o, violations)
        assert len(want.read_bytes().splitlines()) > len(o.segments)
        assert got.read_bytes() == want.read_bytes()
    assert b",inf,0,-0.0,1.0,-0.0\r\n" in got.read_bytes()


def test_original_path_csv_writes_the_intercept_last(tmp_path):
    # An SVM path: theta_0 is written as coordinate d, exactly as if it were
    # appended to the estimate, and dropped where it is zero.
    orig = PathInOriginalCoords(segments=[
        OriginalSegment(2.0, np.inf, np.array([0.3, 0.0, -0.2]),
                        np.array([0.05, 0.0, 0.1]),
                        intercept_base=0.7, intercept_slope=-0.1),
        OriginalSegment(1.0, 2.0, np.array([0.0, 1.5, 0.0]),
                        np.array([0.0, -0.5, 0.0]),
                        intercept_base=0.0, intercept_slope=-0.4),
        OriginalSegment(0.0, 1.0, np.array([0.0, 0.0, 0.6]),
                        np.array([0.0, 0.0, 0.2]),
                        intercept_base=-0.0, intercept_slope=0.0),
    ])
    augmented = PathInOriginalCoords(segments=[
        OriginalSegment(s.lambda_lo, s.lambda_hi,
                        np.append(s.base, s.intercept_base),
                        np.append(s.slope, s.intercept_slope))
        for s in orig.segments
    ])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    pio.save_original_path_csv(got, orig)
    _original_path_csv_row_by_row(want, augmented)
    assert got.read_bytes() == want.read_bytes()
    rows = got.read_bytes().splitlines()
    assert b"0,2.0,inf,3,0.7,-0.1" in rows and b"1,1.0,2.0,3,0.0,-0.4" in rows
    assert not any(r.startswith(b"2,") and b",3," in r for r in rows)


def test_path_csv_is_byte_identical_to_row_by_row(tmp_path):
    X, y, _ = gen_dantzig(DantzigGenConfig(n=20, d=8, rng_seed=4))
    signed, _ = _signed_zero_paths()
    for k, path in enumerate([solve_path(build_dantzig(DantzigInstance(X, y))),
                              signed]):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        pio.save_path_csv(got, path)
        _path_csv_row_by_row(want, path)
        assert len(want.read_bytes().splitlines()) > len(path.segments)
        assert got.read_bytes() == want.read_bytes()
    assert b"0,1.5,inf,0,-0.0,1.0\r\n" in got.read_bytes()


def test_bench_csv(tmp_path):
    records = [BenchRecord(0, 4, 10, 7, 0.5, 1e-12, True, 2.0)]
    f = tmp_path / "bench.csv"
    pio.save_bench_csv(f, records)
    with open(f) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["pivots"] == "7" and rows[0]["support_ok"] == "1"
    assert rows[0]["termination"] == "reached_target"


def test_summary_json_encodes_nonfinite(tmp_path):
    f = tmp_path / "s.json"
    pio.save_summary_json(f, {"a": 1.0, "b": float("inf")})
    doc = json.loads(f.read_text())
    assert doc == {"a": 1.0, "b": "inf"}
