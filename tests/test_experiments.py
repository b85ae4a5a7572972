"""Instance generators, stop rules, and the benchmark drivers."""

import dataclasses
import math

import numpy as np
import pytest

from parasimplex import experiments
from parasimplex.engine import solve_path
from parasimplex.errors import SingularBasis
from parasimplex.experiments import (
    AMPLITUDE,
    BenchRecord,
    DantzigGenConfig,
    DiffNetGenConfig,
    breakpoint_violations,
    feasibility_violation,
    gen_dantzig,
    gen_diffnet,
    run_dantzig_bench,
    run_diffnet_bench,
    stop_lambda,
    stop_options,
    summarize,
)
from parasimplex.reductions import DantzigInstance, build_dantzig, recover_dantzig

VIOLATION_TOL = 1e-9


def test_gen_dantzig_shapes_and_scaling():
    cfg = DantzigGenConfig(n=40, d=15, s=4, sigma=0.5, rng_seed=1)
    X, y, theta0 = gen_dantzig(cfg)
    assert X.shape == (40, 15) and y.shape == (40,) and theta0.shape == (15,)
    np.testing.assert_allclose(np.linalg.norm(X, axis=0),
                               math.sqrt(40) * np.ones(15), rtol=1e-12)
    assert np.count_nonzero(theta0) == 4
    # active magnitudes never collapse toward zero
    assert np.abs(theta0[theta0 != 0]).min() >= AMPLITUDE


def test_gen_dantzig_deterministic_and_noiseless():
    cfg = DantzigGenConfig(n=20, d=8, s=2, sigma=0.0, rng_seed=99)
    X1, y1, t1 = gen_dantzig(cfg)
    X2, y2, t2 = gen_dantzig(cfg)
    np.testing.assert_array_equal(X1, X2)
    np.testing.assert_array_equal(y1, y2)
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_allclose(y1, X1 @ t1, atol=1e-12)  # sigma = 0


def test_gen_dantzig_rejects_oversparse():
    with pytest.raises(ValueError):
        gen_dantzig(DantzigGenConfig(n=10, d=3, s=4))


def test_gen_diffnet_structure():
    cfg = DiffNetGenConfig(d=6, n=200, sparsity=3, rng_seed=5)
    S_X, S_Y, delta0 = gen_diffnet(cfg)
    assert S_X.shape == (6, 6) and S_Y.shape == (6, 6)
    np.testing.assert_allclose(S_X, S_X.T, atol=1e-12)
    np.testing.assert_allclose(S_Y, S_Y.T, atol=1e-12)
    np.testing.assert_allclose(delta0, delta0.T, atol=1e-12)
    off = delta0[~np.eye(6, dtype=bool)]
    assert np.count_nonzero(off) == 6  # 3 upper entries mirrored
    assert np.all(np.linalg.eigvalsh(S_X) > 0)
    assert np.all(np.linalg.eigvalsh(S_Y) > 0)


def test_gen_diffnet_zero_sparsity_degenerates():
    S_X, S_Y, delta0 = gen_diffnet(DiffNetGenConfig(d=4, n=50, sparsity=0,
                                                    rng_seed=2))
    np.testing.assert_array_equal(delta0, np.zeros((4, 4)))


def test_gen_diffnet_rejects_too_many_entries():
    with pytest.raises(ValueError):
        gen_diffnet(DiffNetGenConfig(d=3, sparsity=10))


def test_stop_lambda_rules():
    base = 1.5 * math.sqrt(80 * math.log(30))
    assert stop_lambda("path-demo", 80, 30, 1.5) == pytest.approx(base)
    assert stop_lambda("benchmark", 80, 30, 1.5) == pytest.approx(2 * base)
    with pytest.raises(ValueError):
        stop_lambda("everything", 10, 10, 1.0)


def test_feasibility_violation_sign():
    X = np.eye(2)
    y = np.array([2.0, 0.0])
    # theta = 0: correlation is X'y, so violation is |X'y|_max - lam
    assert feasibility_violation(X, y, np.zeros(2), 1.0) == pytest.approx(1.0)
    assert feasibility_violation(X, y, np.zeros(2), 2.0) == pytest.approx(0.0)
    assert feasibility_violation(X, y, np.zeros(2), 3.0) == pytest.approx(-1.0)


def test_dantzig_bench_records():
    cfg = DantzigGenConfig(n=30, d=12, s=2, sigma=0.5, rng_seed=123)
    records = run_dantzig_bench(cfg, stop_rule="path-demo", repetitions=3)
    assert len(records) == 3
    for r in records:
        assert r.termination == "reached_target"
        assert r.pivot_count > 0
        assert r.max_feas_violation <= VIOLATION_TOL
        assert r.terminal_lambda == pytest.approx(
            stop_lambda("path-demo", 30, 12, 0.5)
        )
    # reruns with the same root seed are identical
    again = run_dantzig_bench(cfg, stop_rule="path-demo", repetitions=3)
    assert [r.pivot_count for r in again] == [r.pivot_count for r in records]


def test_dantzig_bench_max_violation_is_the_largest_breakpoint_violation():
    # instance 1's largest violation is at its last segment's breakpoint,
    # which lies below the terminal lambda
    cfg = DantzigGenConfig(n=60, d=120, s=4, rng_seed=11)
    records = run_dantzig_bench(cfg, stop_rule="path-demo", repetitions=2)
    for r, child in zip(records, np.random.SeedSequence(cfg.rng_seed).spawn(2)):
        X, y, _ = gen_dantzig(cfg, rng=np.random.default_rng(child))
        inst = DantzigInstance(X, y)
        path = solve_path(build_dantzig(inst), stop_options("path-demo", inst, cfg.sigma))
        assert r.max_feas_violation == max(breakpoint_violations(X, y, recover_dantzig(path)))


def test_diffnet_bench_records():
    cfg = DiffNetGenConfig(d=4, n=120, sparsity=2, rng_seed=77)
    records = run_diffnet_bench(cfg, repetitions=2)
    assert len(records) == 2
    for r in records:
        assert r.pivot_count >= 0
        assert np.isfinite(r.terminal_lambda)
        # stopping rule: the residual never exceeds the terminal lambda by
        # more than roundoff
        assert r.max_feas_violation <= VIOLATION_TOL


@pytest.mark.parametrize("run", [
    lambda: run_dantzig_bench(DantzigGenConfig(n=30, d=12, s=2, sigma=0.5, rng_seed=123),
                              stop_rule="path-demo", repetitions=3),
    lambda: run_diffnet_bench(DiffNetGenConfig(d=4, n=120, sparsity=2, rng_seed=77),
                              repetitions=3),
], ids=["dantzig", "diffnet"])
def test_bench_records_a_failed_solve(monkeypatch, run):
    clean, calls = run(), []

    def solve(*args):
        calls.append(args)
        if len(calls) == 2:
            raise SingularBasis("forced singular basis")
        return solve_path(*args)

    monkeypatch.setattr(experiments, "solve_path", solve)
    records = run()
    failed = records[1]
    assert failed.pivot_count == -1 and failed.termination == "SingularBasis"
    assert math.isnan(failed.max_feas_violation) and not failed.support_recovered
    for r, c in zip(records, clean):
        if r is not failed:
            assert dataclasses.replace(r, wall_time=0.0) == dataclasses.replace(c, wall_time=0.0)
    assert summarize(records)["completed"] == len(clean) - 1 == 2


def test_summarize_math():
    records = [
        BenchRecord(0, 5, 5, 10, 1.0, 0.0, True, 0.5),
        BenchRecord(1, 5, 5, 20, 3.0, -1e-12, False, 0.5),
        BenchRecord(2, 5, 5, -1, 0.1, float("nan"), False, float("nan"),
                    termination="NumericalFailure"),
    ]
    out = summarize(records)
    assert out["runs"] == 3.0 and out["completed"] == 2.0
    assert out["pivots_mean"] == pytest.approx(15.0)
    assert out["pivots_se"] == pytest.approx(5.0)
    assert out["violation_mean"] == 0.0  # clamped at zero
    assert out["support_rate"] == pytest.approx(0.5)


def test_summarize_empty():
    assert summarize([]) == {"runs": 0.0, "completed": 0.0}
