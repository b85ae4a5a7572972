"""End-to-end checks of the argparse front end.

Everything but the ``python -m parasimplex`` check goes through
``cli.main(argv)`` directly -- no subprocesses -- so exit codes and
stdout/stderr are observable with capsys.
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parasimplex import cli
from parasimplex import io as pio
from parasimplex.core import ParametricProgram, ProgramKind
from parasimplex.engine import solve_path
from parasimplex.experiments import breakpoint_violations, stop_options
from parasimplex.reductions import DantzigInstance, build_dantzig, recover_dantzig

VIOLATION_TOL = 1e-9


def _soft_threshold_program(y=(3.0, 1.0)):
    """Identity-design instance whose path is the exact soft threshold."""
    return build_dantzig(DantzigInstance(np.eye(len(y)), np.asarray(y)))


def _write_program(tmp_path, program, name="prog.json"):
    dst = tmp_path / name
    if dst.suffix == ".json":
        pio.save_program_json(dst, program)
    else:
        pio.save_program_coo(dst, program)
    return dst


# ---------------------------------------------------------------- usage


def test_missing_subcommand_exits_64():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == cli.EXIT_USAGE


def test_missing_required_argument_exits_64():
    with pytest.raises(SystemExit) as exc:
        cli.main(["dantzig", "--x", "only_half.csv"])
    assert exc.value.code == cli.EXIT_USAGE


def test_unreadable_program_file_exits_64(tmp_path, capsys):
    rc = cli.main(["solve", str(tmp_path / "missing.json")])
    assert rc == cli.EXIT_USAGE
    assert "input error" in capsys.readouterr().err


def test_bad_stop_rule_exits_64(tmp_path, capsys):
    X = np.eye(2)
    pio.save_matrix_csv(tmp_path / "X.csv", X)
    pio.save_matrix_csv(tmp_path / "y.csv", np.array([[1.0], [2.0]]))
    rc = cli.main([
        "dantzig", "--x", str(tmp_path / "X.csv"),
        "--y", str(tmp_path / "y.csv"), "--stop-rule", "bogus",
    ])
    assert rc == cli.EXIT_USAGE
    assert "bad stop rule" in capsys.readouterr().err


def test_sparsity_rule_rejected_for_regression(tmp_path, capsys):
    pio.save_matrix_csv(tmp_path / "X.csv", np.eye(2))
    pio.save_matrix_csv(tmp_path / "y.csv", np.array([[1.0], [2.0]]))
    rc = cli.main([
        "dantzig", "--x", str(tmp_path / "X.csv"),
        "--y", str(tmp_path / "y.csv"), "--stop-rule", "sparsity:3",
    ])
    assert rc == cli.EXIT_USAGE


@pytest.mark.parametrize("text", ["", "a,b\n"], ids=["empty", "header-only"])
def test_csv_without_rows_exits_64(tmp_path, capsys, text):
    (tmp_path / "X.csv").write_text(text)
    pio.save_matrix_csv(tmp_path / "y.csv", np.array([[1.0], [2.0]]))
    rc = cli.main(["dantzig", "--x", str(tmp_path / "X.csv"),
                   "--y", str(tmp_path / "y.csv")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert err.splitlines() == [f"input error: {tmp_path / 'X.csv'} has no numeric rows"]


# ---------------------------------------------------------------- solve


def test_solve_json_with_outputs(tmp_path, capsys):
    src = _write_program(tmp_path, _soft_threshold_program())
    out_json = tmp_path / "path.json"
    out_csv = tmp_path / "path.csv"
    rc = cli.main([
        "solve", str(src), "--out-json", str(out_json),
        "--out-csv", str(out_csv),
    ])
    assert rc == cli.EXIT_OK
    line = capsys.readouterr().out
    assert "termination=lambda_nonpositive" in line
    assert "pivots=2" in line

    reloaded = pio.load_path_json(out_json)
    assert reloaded.num_pivots == 2
    assert out_csv.exists() and out_csv.stat().st_size > 0


def test_solve_coo_input(tmp_path):
    src = _write_program(tmp_path, _soft_threshold_program(), name="prog.txt")
    assert cli.main(["solve", str(src)]) == cli.EXIT_OK


def test_solve_pivot_budget_exits_4(tmp_path, capsys):
    src = _write_program(tmp_path, _soft_threshold_program())
    rc = cli.main(["solve", str(src), "--max-pivots", "1"])
    assert rc == cli.EXIT_PIVOT_CAP
    assert "termination=iteration_cap" in capsys.readouterr().out


def test_solve_positive_target(tmp_path, capsys):
    src = _write_program(tmp_path, _soft_threshold_program())
    rc = cli.main(["solve", str(src), "--target", "2.0"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "termination=reached_target" in out
    assert "pivots=1" in out


def test_solve_infeasible_exits_2(tmp_path, capsys):
    p = ParametricProgram(A=[[1.0]], b=[-1.0], b_bar=[1.0], c=[-1.0],
                          c_bar=[0.0], kind=ProgramKind.LESS_EQUAL)
    src = _write_program(tmp_path, p)
    rc = cli.main(["solve", str(src)])
    assert rc == cli.EXIT_NO_SOLUTION
    assert "termination=infeasible" in capsys.readouterr().out


def test_solve_unbounded_exits_2(tmp_path, capsys):
    p = ParametricProgram(A=[[-1.0]], b=[1.0], b_bar=[0.0], c=[1.0],
                          c_bar=[-1.0], kind=ProgramKind.LESS_EQUAL)
    src = _write_program(tmp_path, p)
    rc = cli.main(["solve", str(src)])
    assert rc == cli.EXIT_NO_SOLUTION
    assert "termination=unbounded" in capsys.readouterr().out


def test_solve_no_path_prints_the_reason_to_stderr(tmp_path, capsys):
    p = ParametricProgram(A=[[-1.0]], b=[1.0], b_bar=[0.0], c=[1.0],
                          c_bar=[-1.0], kind=ProgramKind.LESS_EQUAL)
    src = _write_program(tmp_path, p)
    rc = cli.main(["solve", str(src)])
    assert rc == cli.EXIT_NO_SOLUTION
    captured = capsys.readouterr()
    assert captured.out.startswith("termination=unbounded")
    assert len(captured.out.splitlines()) == 1
    assert "entering column 0" in captured.err


def test_solve_out_json_keeps_the_reason(tmp_path, capsys):
    p = ParametricProgram(A=[[-1.0]], b=[1.0], b_bar=[0.0], c=[1.0],
                          c_bar=[-1.0], kind=ProgramKind.LESS_EQUAL)
    src = _write_program(tmp_path, p, name="unb.json")
    out_json = tmp_path / "o.json"
    rc = cli.main(["solve", str(src), "--out-json", str(out_json)])
    assert rc == cli.EXIT_NO_SOLUTION
    reason = capsys.readouterr().err.strip()
    assert "entering column 0" in reason
    assert json.loads(out_json.read_text())["termination_detail"] == reason


def test_solve_equality_needs_basis(tmp_path, capsys):
    p = ParametricProgram(A=[[1.0, 1.0]], b=[1.0], b_bar=[1.0],
                          c=[-1.0, -2.0], c_bar=[0.0, 0.0],
                          kind=ProgramKind.EQUALITY)
    src = _write_program(tmp_path, p)
    assert cli.main(["solve", str(src)]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main(["solve", str(src), "--basis", "0"]) == cli.EXIT_OK


@pytest.mark.parametrize("basis", ["-1,2", "9,2"])
def test_solve_out_of_range_basis_exits_64(tmp_path, capsys, basis):
    src = _write_program(tmp_path, _soft_threshold_program(y=(3.0,)), name="prog.coo")
    out_json = tmp_path / "o.json"
    rc = cli.main(["solve", str(src), f"--basis={basis}", "--out-json", str(out_json)])
    assert rc == cli.EXIT_USAGE
    column = basis.split(",")[0]
    assert f"column {column} is out of range" in capsys.readouterr().err
    assert not out_json.exists()


@pytest.mark.parametrize("name, text", [
    ("prog.coo", "psm-coo m=2 n=2 kind=less_equal\nA -1 0 1.0\n"),
    ("prog.coo", "psm-coo m=2 n=2 kind=less_equal\nA 5 1 1.0\n"),
    ("prog.coo", ""),
    ("prog.coo", "psm-coo m=1 n=1 kind=less_equal\nA 0 0\n"),
    ("prog.coo", "psm-coo m=1 n=1 kind=less_equal\nq 0 1\n"),
    ("prog.coo", "psm-coo m=1 n=1 kind=less_equal\nb 0\n"),
    ("prog.json", json.dumps({"A": [[1.0]], "b": [1.0], "c": [-1.0],
                              "c_bar": [0.0], "kind": "less_equal"})),
    ("prog.json", "3"),
    ("prog.json", json.dumps({"m": 5, "A": [[1.0], [2.0]], "b": [1.0, 1.0],
                              "b_bar": [1.0, 1.0], "c": [-1.0], "c_bar": [0.0],
                              "kind": "less_equal"})),
])
def test_solve_malformed_program_exits_64(tmp_path, capsys, name, text):
    src = tmp_path / name
    src.write_text(text)
    assert cli.main(["solve", str(src)]) == cli.EXIT_USAGE
    assert "input error" in capsys.readouterr().err


def test_solve_basis_of_the_wrong_size_exits_64(tmp_path, capsys):
    src = tmp_path / "prog.json"
    src.write_text(json.dumps({"A": [[1, 0, 1], [0, 1, 1]], "b": [1, 1], "b_bar": [1, 1],
                               "c": [-1, -1, -1], "c_bar": [0, 0, 0], "kind": "equality"}))
    assert cli.main(["solve", str(src), "--basis", "0"]) == cli.EXIT_USAGE
    assert "basis size 1 != row count 2" in capsys.readouterr().err


def test_solve_empty_optimality_window_exits_2(tmp_path, capsys):
    # the basis {0, 1} is optimal only for lambda in [2, 1]
    src = tmp_path / "prog.json"
    src.write_text(json.dumps({"A": [[1, 0], [0, 1]], "b": [-2, 1], "b_bar": [1, -1],
                               "c": [0, 0], "c_bar": [0, 0], "kind": "equality"}))
    assert cli.main(["solve", str(src), "--basis", "0,1"]) == cli.EXIT_NO_SOLUTION
    assert "empty optimality window" in capsys.readouterr().err


def test_solve_singular_starting_basis_exits_3(tmp_path, capsys):
    # columns 0 and 1 are equal, so the starting basis cannot be factored
    src = tmp_path / "prog.json"
    src.write_text(json.dumps({"A": [[1, 1, 0], [2, 2, 1]], "b": [1, 1], "b_bar": [1, 1],
                               "c": [-1, -1, -1], "c_bar": [0, 0, 0], "kind": "equality"}))
    assert cli.main(["solve", str(src), "--basis", "0,1"]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: ")


# ------------------------------------------------------------- dantzig


def test_dantzig_full_path_with_violation_column(tmp_path, capsys):
    X = np.eye(3)
    y = np.array([3.0, 1.0, 2.0])
    pio.save_matrix_csv(tmp_path / "X.csv", X)
    pio.save_matrix_csv(tmp_path / "y.csv", y.reshape(-1, 1))
    out = tmp_path / "theta_path.csv"
    rc = cli.main([
        "dantzig", "--x", str(tmp_path / "X.csv"),
        "--y", str(tmp_path / "y.csv"),
        "--stop-rule", "value:0", "--out", str(out),
    ])
    assert rc == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "terminal_support_size=3" in text

    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows, "path CSV should contain the active coordinates"
    # every recorded breakpoint satisfies the residual-vs-lambda constraint
    for row in rows:
        assert float(row["violation_at_lo"]) <= VIOLATION_TOL


def _gen_dantzig_files(tmp_path, seed):
    assert cli.main(["gen", "dantzig", "--n", "60", "--d", "120", "--s", "4",
                     "--seed", str(seed), "--out-dir", str(tmp_path / "data")]) == cli.EXIT_OK
    return tmp_path / "data" / "X.csv", tmp_path / "data" / "y.csv"


def test_dantzig_reports_the_support_at_the_terminal_lambda(tmp_path, capsys):
    # The last segment's lower breakpoint lies below the path-demo target,
    # where the estimate has 9 nonzeros; at the target it has 10.
    x_csv, y_csv = _gen_dantzig_files(tmp_path, seed=14)
    assert cli.main(["dantzig", "--x", str(x_csv), "--y", str(y_csv)]) == cli.EXIT_OK
    assert "terminal_support_size=10" in capsys.readouterr().out.splitlines()


def test_dantzig_violation_column_is_breakpoint_violations(tmp_path, capsys):
    x_csv, y_csv = _gen_dantzig_files(tmp_path, seed=14)
    out = tmp_path / "theta_path.csv"
    rc = cli.main(["dantzig", "--x", str(x_csv), "--y", str(y_csv), "--out", str(out)])
    assert rc == cli.EXIT_OK
    X, y = pio.load_matrix_csv(x_csv), pio.load_vector_csv(y_csv)
    inst = DantzigInstance(X, y)
    orig = recover_dantzig(solve_path(build_dantzig(inst), stop_options("path-demo", inst)))
    want = breakpoint_violations(X, y, orig)
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    # a segment whose estimate is all zero has no rows
    assert len({r["segment_id"] for r in rows}) > len(want) // 2
    for r in rows:
        assert float(r["violation_at_lo"]) == want[int(r["segment_id"])]


@pytest.mark.parametrize("sigma", ["-1", "2"])
def test_dantzig_sigma_under_value_rule_exits_64(tmp_path, capsys, sigma):
    pio.save_matrix_csv(tmp_path / "X.csv", np.eye(2))
    pio.save_matrix_csv(tmp_path / "y.csv", np.array([[1.0], [2.0]]))
    rc = cli.main(["dantzig", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "y.csv"),
                   "--stop-rule", "value:0", "--sigma", sigma])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.err.startswith("input error: --sigma applies only to")
    assert captured.out == ""


def test_dantzig_full_path_to_zero_exits_0(tmp_path, capsys):
    # the last breakpoint of a generic full path is lambda* ~ 1e-14
    rc = cli.main([
        "gen", "dantzig", "--n", "60", "--d", "30", "--seed", "1",
        "--out-dir", str(tmp_path),
    ])
    assert rc == cli.EXIT_OK
    rc = cli.main([
        "dantzig", "--x", str(tmp_path / "X.csv"),
        "--y", str(tmp_path / "y.csv"), "--stop-rule", "value:0",
    ])
    assert rc == cli.EXIT_OK
    assert "termination=lambda_nonpositive" in capsys.readouterr().out


def test_dantzig_singular_refactorization_still_writes_the_path(tmp_path, capsys, monkeypatch):
    from parasimplex import linalg
    from parasimplex.errors import SingularBasis
    from parasimplex.experiments import DantzigGenConfig, gen_dantzig

    X, y, _ = gen_dantzig(DantzigGenConfig(n=60, d=30, rng_seed=1))
    pio.save_matrix_csv(tmp_path / "X.csv", X)
    pio.save_matrix_csv(tmp_path / "y.csv", y.reshape(-1, 1))
    real, calls = linalg.BasisFactorization, []

    def factor(*args):  # the start factorizes; the first refresh finds B singular
        calls.append(args)
        if len(calls) == 2:
            raise SingularBasis("forced singular basis")
        return real(*args)

    monkeypatch.setattr(linalg, "BasisFactorization", factor)
    out = tmp_path / "theta_path.csv"
    rc = cli.main(["dantzig", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "y.csv"),
                   "--stop-rule", "value:0", "--out", str(out)])
    assert rc == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "termination=numerical_failure" in captured.out
    assert f"segments={linalg.REFRESH_LIMIT}" in captured.out
    assert "forced singular basis" in captured.err
    with open(out, newline="") as f:
        sids = {int(row["segment_id"]) for row in csv.DictReader(f)}
    assert sids <= set(range(linalg.REFRESH_LIMIT)) and max(sids) == linalg.REFRESH_LIMIT - 1


def test_dantzig_named_stop_rule_runs(tmp_path, capsys):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 6))
    X *= np.sqrt(20) / np.linalg.norm(X, axis=0)
    theta0 = np.zeros(6)
    theta0[:2] = (1.5, -1.5)
    y = X @ theta0 + 0.1 * rng.normal(size=20)
    pio.save_matrix_csv(tmp_path / "X.csv", X)
    pio.save_matrix_csv(tmp_path / "y.csv", y.reshape(-1, 1))
    rc = cli.main([
        "dantzig", "--x", str(tmp_path / "X.csv"),
        "--y", str(tmp_path / "y.csv"),
        "--stop-rule", "path-demo", "--sigma", "0.1",
    ])
    assert rc == cli.EXIT_OK
    assert "termination=" in capsys.readouterr().out


# ----------------------------------------------------------------- svm


def test_svm_balanced_labels(tmp_path, capsys):
    # sum of y_i x_i vanishes, so the all-slack start is optimal at large
    # lambda and the zero classifier traces cleanly down
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    pio.save_matrix_csv(tmp_path / "X.csv", X)
    pio.save_matrix_csv(tmp_path / "y.csv", y.reshape(-1, 1))
    out = tmp_path / "w_path.csv"
    rc = cli.main([
        "svm", "--x", str(tmp_path / "X.csv"),
        "--y", str(tmp_path / "y.csv"), "--out", str(out),
    ])
    assert rc == cli.EXIT_OK
    assert "terminal_support_size=" in capsys.readouterr().out
    assert out.exists()


def test_svm_unbalanced_labels_exit_2(tmp_path, capsys):
    X = np.array([[1.0, 0.0], [0.5, 1.0], [0.25, -1.0]])
    y = np.array([1.0, 1.0, -1.0])
    pio.save_matrix_csv(tmp_path / "X.csv", X)
    pio.save_matrix_csv(tmp_path / "y.csv", y.reshape(-1, 1))
    rc = cli.main([
        "svm", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "y.csv"),
    ])
    assert rc == cli.EXIT_NO_SOLUTION
    assert "no path" in capsys.readouterr().err


# ------------------------------------------------------------- diffnet


def _diffnet_files(tmp_path, d=3, n=60, sparsity=1, seed=5):
    from parasimplex.experiments import DiffNetGenConfig, gen_diffnet

    S_X, S_Y, _delta0 = gen_diffnet(
        DiffNetGenConfig(d=d, n=n, sparsity=sparsity, rng_seed=seed)
    )
    pio.save_matrix_csv(tmp_path / "SX.csv", S_X)
    pio.save_matrix_csv(tmp_path / "SY.csv", S_Y)
    return tmp_path / "SX.csv", tmp_path / "SY.csv"


def test_diffnet_value_rule(tmp_path, capsys):
    sx, sy = _diffnet_files(tmp_path)
    out = tmp_path / "delta_path.csv"
    rc = cli.main([
        "diffnet", "--sx", str(sx), "--sy", str(sy),
        "--stop-rule", "value:0.05", "--out", str(out),
    ])
    assert rc == cli.EXIT_OK
    assert "terminal_support_size=" in capsys.readouterr().out
    assert out.exists()


def test_diffnet_sparsity_rule(tmp_path, capsys):
    sx, sy = _diffnet_files(tmp_path)
    rc = cli.main([
        "diffnet", "--sx", str(sx), "--sy", str(sy),
        "--stop-rule", "sparsity:1",
    ])
    assert rc == cli.EXIT_OK
    assert "termination=" in capsys.readouterr().out


def test_diffnet_non_finite_covariance_names_the_input(tmp_path, capsys):
    sx, sy = _diffnet_files(tmp_path)
    S_X = pio.load_matrix_csv(sx)
    S_X[1, 2] = np.nan
    pio.save_matrix_csv(sx, S_X)
    rc = cli.main(["diffnet", "--sx", str(sx), "--sy", str(sy)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert "input error: non-finite entries in DiffNetInstance.X" in err


def test_dantzig_complementarity_violation_exits_3(tmp_path, capsys, monkeypatch):
    from parasimplex.errors import ComplementarityViolation

    def recover(path):
        raise ComplementarityViolation("theta split overlaps")

    monkeypatch.setattr(cli, "recover_dantzig", recover)
    pio.save_matrix_csv(tmp_path / "X.csv", np.eye(2))
    pio.save_matrix_csv(tmp_path / "y.csv", np.array([[3.0], [1.0]]))
    rc = cli.main(["dantzig", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "y.csv"),
                   "--stop-rule", "value:0"])
    assert rc == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err == "error: theta split overlaps\n"
    assert captured.out == ""


# ----------------------------------------------------------- gen/bench


def test_gen_dantzig_files(tmp_path):
    rc = cli.main([
        "gen", "dantzig", "--n", "20", "--d", "8", "--s", "2",
        "--seed", "7", "--out-dir", str(tmp_path / "data"),
    ])
    assert rc == cli.EXIT_OK
    X = pio.load_matrix_csv(tmp_path / "data" / "X.csv")
    y = pio.load_vector_csv(tmp_path / "data" / "y.csv")
    theta0 = pio.load_vector_csv(tmp_path / "data" / "theta0.csv")
    assert X.shape == (20, 8) and y.shape == (20,) and theta0.shape == (8,)
    assert np.count_nonzero(theta0) == 2


def test_gen_diffnet_files(tmp_path):
    rc = cli.main([
        "gen", "diffnet", "--n", "40", "--d", "4", "--s", "2",
        "--seed", "9", "--out-dir", str(tmp_path / "data"),
    ])
    assert rc == cli.EXIT_OK
    S_X = pio.load_matrix_csv(tmp_path / "data" / "SX.csv")
    S_Y = pio.load_matrix_csv(tmp_path / "data" / "SY.csv")
    delta0 = pio.load_matrix_csv(tmp_path / "data" / "delta0.csv")
    assert S_X.shape == S_Y.shape == delta0.shape == (4, 4)


def test_bench_dantzig_outputs(tmp_path, capsys):
    out_csv = tmp_path / "runs.csv"
    out_summary = tmp_path / "summary.json"
    rc = cli.main([
        "bench", "dantzig", "--n", "30", "--d", "12", "--s", "2",
        "--seed", "3", "--reps", "2",
        "--out-csv", str(out_csv), "--out-summary", str(out_summary),
    ])
    assert rc == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "pivots_mean=" in text and "support_rate=" in text
    with open(out_summary) as f:
        stats = json.load(f)
    assert stats["runs"] == 2.0 and stats["completed"] == 2.0
    with open(out_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert all(r["termination"] == "reached_target" for r in rows)


def test_bench_diffnet_runs(tmp_path, capsys):
    rc = cli.main([
        "bench", "diffnet", "--n", "80", "--d", "4", "--s", "2",
        "--seed", "1", "--reps", "1",
    ])
    assert rc == cli.EXIT_OK
    assert "violation_mean=" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["dantzig", "--x", "{X}", "--y", "{y}", "--stop-rule", "value:nan"],
    ["dantzig", "--x", "{X}", "--y", "{y}", "--stop-rule", "value:inf"],
    ["solve", "{prog}", "--target", "nan"],
    ["solve", "{prog}", "--target", "inf"],
    ["solve", "{prog}", "--max-pivots", "-3"],
    ["bench", "dantzig", "--n", "20", "--d", "8", "--reps", "-1"],
    ["bench", "diffnet", "--n", "40", "--d", "3", "--s", "1", "--reps", "0"],
    ["gen", "dantzig", "--n", "0", "--out-dir", "{out}"],
    ["diffnet", "--sx", "{SX}", "--sy", "{SY}", "--stop-rule", "sparsity:-2"],
    ["gen", "diffnet", "--s", "-1", "--out-dir", "{out}"],
    ["bench", "diffnet", "--n", "40", "--d", "3", "--s", "-2", "--reps", "1"],
    ["gen", "dantzig", "--sigma", "nan", "--out-dir", "{out}"],
    ["dantzig", "--x", "{X}", "--y", "{y}", "--sigma", "-1"],
    ["gen", "diffnet", "--d", "0", "--out-dir", "{out}"],
    ["diffnet", "--sx", "{SX}", "--sy", "{SY}", "--stop-rule", "path-demo"],
], ids=["value-nan", "value-inf", "target-nan", "target-inf", "max-pivots-negative",
        "reps-negative", "reps-zero", "gen-n-zero", "sparsity-negative", "gen-s-negative",
        "bench-s-negative", "gen-sigma-nan", "sigma-negative", "gen-d-zero",
        "diffnet-named-rule"])
def test_malformed_numeric_input_exits_64(tmp_path, capsys, argv):
    pio.save_matrix_csv(tmp_path / "X.csv", np.eye(2))
    pio.save_matrix_csv(tmp_path / "y.csv", np.array([[1.0], [2.0]]))
    sx, sy = _diffnet_files(tmp_path)
    files = {"X": tmp_path / "X.csv", "y": tmp_path / "y.csv", "SX": sx, "SY": sy,
             "prog": _write_program(tmp_path, _soft_threshold_program()),
             "out": tmp_path / "gen"}
    rc = cli.main([a.format(**files) for a in argv])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert "input error" in captured.err and captured.out == ""
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("argv, flag", [
    (["gen", "diffnet", "--sigma", "5", "--out-dir", "{out}"], "--sigma"),
    (["bench", "diffnet", "--n", "40", "--d", "3", "--s", "1", "--reps", "1",
      "--sigma", "nan"], "--sigma"),
    (["bench", "diffnet", "--n", "40", "--d", "3", "--s", "1", "--reps", "1",
      "--stop-rule", "garbage"], "--stop-rule"),
], ids=["gen-sigma", "bench-sigma", "bench-stop-rule"])
def test_dantzig_only_flag_on_diffnet_exits_64(tmp_path, capsys, argv, flag):
    rc = cli.main([a.format(out=tmp_path / "gen") for a in argv])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.err.startswith(f"input error: {flag} is dantzig-only")
    assert captured.out == ""
    assert not (tmp_path / "gen").exists()


# --------------------------------------------------------------- trace


def test_trace_env_streams_pivot_lines(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PSM_LOG", "trace")
    src = _write_program(tmp_path, _soft_threshold_program())
    rc = cli.main(["solve", str(src)])
    assert rc == cli.EXIT_OK
    err = capsys.readouterr().err
    pivot_lines = [ln for ln in err.splitlines() if ln.count("\t") == 6]
    assert len(pivot_lines) == 2


# ---------------------------------------------------------------- module


def test_python_m_parasimplex_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "parasimplex", "--help"], cwd=src,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: parasimplex" in proc.stdout
