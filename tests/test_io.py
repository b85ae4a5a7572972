"""Serialization round trips for programs, paths, and benchmark output."""

import csv
import json

import numpy as np
import pytest

from parasimplex import io as pio
from parasimplex.core import ParametricProgram, ProgramKind, Termination
from parasimplex.engine import solve_path
from parasimplex.experiments import (
    BenchRecord,
    DantzigGenConfig,
    DiffNetGenConfig,
    gen_dantzig,
    gen_diffnet,
)
from parasimplex.reductions import (
    DantzigInstance,
    DiffNetInstance,
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
    np.testing.assert_array_equal(q.A, p.A)
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
    np.testing.assert_array_equal(q.A, p.A)
    np.testing.assert_array_equal(q.b, p.b)
    np.testing.assert_array_equal(q.b_bar, p.b_bar)
    np.testing.assert_array_equal(q.c, p.c)
    assert q.kind is ProgramKind.LESS_EQUAL


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
        assert a.entering == b.entering and a.leaving == b.leaving
    assert len(back.events) == len(path.events)
    for ea, eb in zip(path.events, back.events):
        assert ea.kind is eb.kind and ea.lambda_star == eb.lambda_star
        assert ea.t == eb.t and ea.s_bar == eb.s_bar
    # infinities encoded as strings, not Infinity literals
    assert "Infinity" not in f.read_text()


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


def test_original_path_csv_is_byte_identical_to_row_by_row(tmp_path):
    X, y, _ = gen_dantzig(DantzigGenConfig(n=20, d=8, rng_seed=4))
    orig = recover_dantzig(solve_path(build_dantzig(DantzigInstance(X, y))))
    S_X, S_Y, _ = gen_diffnet(DiffNetGenConfig(d=4, n=50, sparsity=2, rng_seed=2))
    inst = DiffNetInstance.from_covariances(S_X, S_Y)
    matrix = recover_diffnet(solve_path(build_diffnet(inst)), inst)
    rng = np.random.default_rng(0)
    cases = [
        (orig, rng.standard_normal(len(orig.segments)) * 1e-11),
        (orig, None),
        (matrix, None),  # matrix segments are written column-major
    ]
    for k, (o, violations) in enumerate(cases):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        pio.save_original_path_csv(got, o, violations)
        _original_path_csv_row_by_row(want, o, violations)
        assert len(want.read_bytes().splitlines()) > len(o.segments)
        assert got.read_bytes() == want.read_bytes()


def test_path_csv_is_byte_identical_to_row_by_row(tmp_path):
    X, y, _ = gen_dantzig(DantzigGenConfig(n=20, d=8, rng_seed=4))
    path = solve_path(build_dantzig(DantzigInstance(X, y)))
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as f:  # one csv.writerow per entry
        w = csv.writer(f)
        w.writerow(["segment_id", "lambda_lo", "lambda_hi",
                    "var_index", "base", "slope"])
        for sid, seg in enumerate(path.segments):
            for j, base, slope in zip(
                seg.primal_indices, seg.primal_base, seg.primal_slope
            ):
                w.writerow([sid, repr(float(seg.lambda_lo)),
                            repr(float(seg.lambda_hi)),
                            int(j), repr(float(base)), repr(float(slope))])
    got = tmp_path / "got.csv"
    pio.save_path_csv(got, path)
    assert len(want.read_bytes().splitlines()) > len(path.segments)
    assert got.read_bytes() == want.read_bytes()


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
