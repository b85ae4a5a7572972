"""Differential oracle: path objectives against scipy's HiGHS.

At one lambda inside every segment, ``c(lambda)' x(lambda)`` of the traced
path must match an independent ``scipy.optimize.linprog(method="highs")``
solve of the same program (<= or equality kind) to relative ``OBJ_RTOL``,
and x(lambda) must be feasible. For Dantzig and diffnet the recovered estimate is checked too:
its l1 norm must match the HiGHS optimum and it must meet its sup-norm
bound. This reaches programs far beyond the 24 columns the
basis-enumeration oracle can handle.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from parasimplex.core import (
    ParametricProgram,
    ProgramKind,
    Termination,
    evaluate_primal,
)
from parasimplex.engine import solve_path
from parasimplex.experiments import (
    DantzigGenConfig,
    DiffNetGenConfig,
    gen_dantzig,
    gen_diffnet,
    stop_lambda,
)
from parasimplex.reductions import (
    DantzigInstance,
    DiffNetInstance,
    build_dantzig,
    build_diffnet,
    recover_dantzig,
    recover_diffnet,
)

OBJ_RTOL = 1e-7
FEAS_RTOL = 1e-9


def _sample(seg, floor):
    """A lambda inside the part of ``seg`` at or above ``floor``."""
    lo = max(seg.lambda_lo, floor)
    hi = seg.lambda_hi
    if math.isinf(hi):
        return lo + 1.0 + abs(lo)
    return 0.5 * (lo + hi)


def _check_against_highs(p, path, floor, estimate=None):
    """``estimate(lam)``, if given, returns the recovered estimate u and
    its sup-norm residual, which must be at most lam."""
    n = p.n
    A = p.A.to_dense()
    equality = p.kind is ProgramKind.EQUALITY
    checked = 0
    for k, seg in enumerate(path.segments):
        lam = _sample(seg, floor)
        cost, rhs = p.c + lam * p.c_bar, p.b + lam * p.b_bar
        x = evaluate_primal(seg, lam)[:n]
        tol = FEAS_RTOL * (1.0 + float(np.abs(rhs).max()))
        assert x.min() >= -tol, f"segment {k}: negative x at lambda={lam:.6g}"
        excess = A @ x - rhs
        assert float((np.abs(excess) if equality else excess).max()) <= tol, (
            f"segment {k}: A x violates b(lambda) at lambda={lam:.6g}")
        rows = {"A_eq": A, "b_eq": rhs} if equality else {"A_ub": A, "b_ub": rhs}
        res = linprog(-cost, **rows, bounds=(0, None), method="highs")
        assert res.status == 0, f"segment {k}: HiGHS says {res.message}"
        want, got = -res.fun, float(cost @ x)
        assert abs(got - want) <= OBJ_RTOL * (1.0 + abs(want)), (
            f"segment {k}: objective {got:.12g}, HiGHS {want:.12g} "
            f"at lambda={lam:.6g}")
        if estimate is not None:
            u, resid = estimate(lam)
            l1 = float(np.abs(u).sum())
            assert abs(l1 - res.fun) <= OBJ_RTOL * (1.0 + abs(res.fun)), (
                f"segment {k}: ||u||_1 = {l1:.12g}, HiGHS {res.fun:.12g} "
                f"at lambda={lam:.6g}")
            assert resid <= lam + tol, (
                f"segment {k}: sup-norm residual {resid:.12g} > lambda={lam:.12g}")
        checked += 1
    return checked


def test_dantzig_target_path_matches_highs():
    cfg = DantzigGenConfig(n=100, d=250, s=5, sigma=1.0, rng_seed=7)
    X, y, _ = gen_dantzig(cfg)
    p = build_dantzig(DantzigInstance(X, y))
    target = stop_lambda("benchmark", cfg.n, cfg.d, cfg.sigma)
    path = solve_path(p, lambda_target=target)
    assert path.num_pivots > 0
    orig = recover_dantzig(path)

    def estimate(lam):
        theta = orig.value_at(lam)
        return theta, float(np.abs(X.T @ (y - X @ theta)).max())

    assert _check_against_highs(p, path, target, estimate) == len(path.segments)


def test_diffnet_path_matches_highs():
    S_X, S_Y, _ = gen_diffnet(DiffNetGenConfig(d=10, n=100, sparsity=4, rng_seed=3))
    inst = DiffNetInstance.from_covariances(S_X, S_Y)
    p = build_diffnet(inst)
    # Down to 2% of the first breakpoint: ~65 segments, one refresh. The
    # full path has ~385 and a HiGHS solve takes ~30 ms here.
    target = 0.02 * solve_path(p, max_pivots=0).segments[0].lambda_lo
    path = solve_path(p, lambda_target=target)
    assert path.num_pivots > 50
    orig = recover_diffnet(path, inst)

    def estimate(lam):
        D = orig.value_at(lam)
        return D, float(np.abs(S_X @ D @ S_Y - (S_X - S_Y)).max())

    assert _check_against_highs(p, path, target, estimate) == len(path.segments)


def test_lad_lasso_path_matches_highs():
    # LAD-Lasso, min ||y - X beta||_1 + lambda ||beta||_1, as the equality
    # program [X, -X, I, -I] (beta+, beta-, r+, r-) = y with c_bar = -1 on
    # beta and b_bar = 0: the lambda is in the cost, not the rhs.
    rng = np.random.default_rng(20261018)
    n, d = 60, 20
    X = rng.standard_normal((n, d))
    beta = np.zeros(d)
    beta[:3] = (3.0, -2.0, 1.5)
    y = X @ beta + rng.standard_t(2, size=n)
    p = ParametricProgram(
        A=np.hstack([X, -X, np.eye(n), -np.eye(n)]),
        b=y, b_bar=np.zeros(n),
        c=np.r_[np.zeros(2 * d), -np.ones(2 * n)],
        c_bar=np.r_[-np.ones(2 * d), np.zeros(2 * n)],
        kind=ProgramKind.EQUALITY,
    )
    # beta = 0 and the residual y held by r+ or r-, whichever is nonnegative
    residual_basis = np.where(y >= 0, 2 * d, 2 * d + n) + np.arange(n)
    path = solve_path(p, initial_basis=residual_basis)
    assert path.termination is Termination.LAMBDA_NONPOSITIVE
    assert path.num_pivots > 50
    assert _check_against_highs(p, path, path.terminal_lambda) == len(path.segments)


def _random_program(rng):
    """A <= program whose slack basis is optimal for large lambda: the rhs
    b + lambda grows and the cost c - lambda c_bar falls, so both primal and
    dual pivots occur on the way down."""
    m = int(rng.integers(20, 120))
    n = int(rng.integers(50, 301))
    return ParametricProgram(
        A=rng.uniform(-1.0, 2.0, size=(m, n)),
        b=rng.uniform(-1.0, 2.0, size=m),
        b_bar=np.ones(m),
        c=rng.uniform(-1.0, 1.0, size=n),
        c_bar=-rng.uniform(0.5, 1.5, size=n),
        kind=ProgramKind.LESS_EQUAL,
    )


@pytest.mark.parametrize("seed", range(10))
def test_random_programs_match_highs(seed):
    rng = np.random.default_rng([20261018, seed])
    p = _random_program(rng)
    path = solve_path(p)
    assert path.num_pivots > 0
    lam = path.terminal_lambda
    assert _check_against_highs(p, path, lam) == len(path.segments)
    if path.termination is Termination.INFEASIBLE:
        # The lambdas with a feasible point form an interval, so a status of
        # infeasible at lambda* must hold at any lambda below it.
        below = lam - 1e-3 * (1.0 + abs(lam))
        res = linprog(-(p.c + below * p.c_bar), A_ub=p.A.to_dense(),
                      b_ub=p.b + below * p.b_bar,
                      bounds=(0, None), method="highs")
        assert res.status == 2, f"HiGHS finds lambda={below:.6g} {res.message}"
