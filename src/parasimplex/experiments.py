"""Synthetic instance generators and benchmark drivers.

Generators follow the usual sparse-recovery simulation recipes: gaussian
designs with renormalized columns and a sparse ground truth for regression,
and a pair of covariance models differing by a sparse perturbation of the
precision matrix for the matrix estimator. All randomness flows through
numpy Generators seeded from the config, so runs are reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import segment_breakpoint
from .engine import SolveOptions, solve_path
from .errors import ParasimplexError
from .reductions import (
    SUPPORT_TOL,
    DantzigInstance,
    DiffNetInstance,
    build_dantzig,
    build_diffnet,
    diffnet_sparsity_stop,
    recover_dantzig,
    recover_diffnet,
)


@dataclass
class DantzigGenConfig:
    """Sparse linear model y = X theta0 + sigma * noise.

    Columns of X are rescaled to length sqrt(n). The s active coefficients
    get magnitude amplitude + |N(0,1)| with random signs, so none of them
    is vanishingly small.
    """

    n: int = 100
    d: int = 250
    s: int = 5
    sigma: float = 1.0
    amplitude: float = 1.0
    rng_seed: Optional[int] = None


def gen_dantzig(
    cfg: DantzigGenConfig, rng: Optional[np.random.Generator] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (X, y, theta0) for one regression instance."""
    if min(cfg.n, cfg.d) < 1:
        raise ValueError(f"n and d must be >= 1, got n={cfg.n}, d={cfg.d}")
    if cfg.s > cfg.d:
        raise ValueError("sparsity s cannot exceed dimension d")
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    X = rng.standard_normal((cfg.n, cfg.d))
    norms = np.linalg.norm(X, axis=0)
    norms[norms == 0.0] = 1.0
    X *= math.sqrt(cfg.n) / norms
    theta0 = np.zeros(cfg.d)
    support = rng.choice(cfg.d, size=cfg.s, replace=False)
    signs = rng.choice((-1.0, 1.0), size=cfg.s)
    theta0[support] = signs * (cfg.amplitude + np.abs(rng.standard_normal(cfg.s)))
    y = X @ theta0 + cfg.sigma * rng.standard_normal(cfg.n)
    return X, y, theta0


@dataclass
class DiffNetGenConfig:
    """Two gaussian populations whose precision matrices differ sparsely.

    Sigma_X = U' diag(lam) U with a square standard-normal U and lam uniform
    on [1, 2]; the second precision matrix adds a sparse symmetric
    perturbation D1 (``sparsity`` nonzero upper-triangle entries, mirrored,
    each magnitude * N(0,1)) shifted by 2|lambda_min(D1)| I to keep the sum
    positive definite. The target difference of precisions is Delta0 = -D.
    Empirical covariances use n samples each and the 1/n centered estimator.
    """

    d: int = 25
    n: int = 100
    sparsity: int = 4
    magnitude: float = 1.0
    rng_seed: Optional[int] = None


def gen_diffnet(
    cfg: DiffNetGenConfig, rng: Optional[np.random.Generator] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (S_X, S_Y, Delta0) with Delta0 the true precision difference."""
    if min(cfg.n, cfg.d) < 1:
        raise ValueError(f"n and d must be >= 1, got n={cfg.n}, d={cfg.d}")
    d = cfg.d
    max_offdiag = d * (d - 1) // 2
    if cfg.sparsity > max_offdiag:
        raise ValueError("sparsity exceeds number of upper-triangle entries")
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    U = rng.standard_normal((d, d))
    lam = rng.uniform(1.0, 2.0, size=d)
    Sigma_X = U.T @ (lam[:, None] * U)
    Sigma_X = 0.5 * (Sigma_X + Sigma_X.T)
    Omega_X = np.linalg.inv(Sigma_X)

    D1 = np.zeros((d, d))
    if cfg.sparsity > 0:
        iu, ju = np.triu_indices(d, k=1)
        pick = rng.choice(len(iu), size=cfg.sparsity, replace=False)
        vals = cfg.magnitude * rng.standard_normal(cfg.sparsity)
        D1[iu[pick], ju[pick]] = vals
        D1[ju[pick], iu[pick]] = vals
    shift = 2.0 * abs(float(np.linalg.eigvalsh(D1).min())) if cfg.sparsity else 0.0
    D = D1 + shift * np.eye(d)
    Omega_Y = 0.5 * ((Omega_X + D) + (Omega_X + D).T)
    Sigma_Y = np.linalg.inv(Omega_Y)
    Sigma_Y = 0.5 * (Sigma_Y + Sigma_Y.T)

    def _empirical(Sigma: np.ndarray) -> np.ndarray:
        L = np.linalg.cholesky(Sigma)
        data = rng.standard_normal((cfg.n, d)) @ L.T
        data -= data.mean(axis=0)
        return data.T @ data / cfg.n

    return _empirical(Sigma_X), _empirical(Sigma_Y), -D


def stop_lambda(rule: str, n: int, d: int, sigma: float) -> float:
    """Regularization level at which to stop tracing the path.

    ``path-demo`` uses sigma * sqrt(n log d) (the estimation-error scale for
    sqrt(n)-length columns); ``benchmark`` doubles it to keep the traced
    prefix short and well-conditioned.
    """
    base = sigma * math.sqrt(n * math.log(d))
    if rule == "path-demo":
        return base
    if rule == "benchmark":
        return 2.0 * base
    raise ValueError(f"unknown stop rule {rule!r}")


def feasibility_violation(
    X: np.ndarray, y: np.ndarray, theta: np.ndarray, lam: float
) -> float:
    """||X'(y - X theta)||_inf - lam; positive means the constraint is broken."""
    return float(np.abs(X.T @ (y - X @ theta)).max(initial=0.0)) - lam


@dataclass
class BenchRecord:
    instance_id: int
    d: int
    n: int
    pivot_count: int
    wall_time: float
    max_feas_violation: float
    support_recovered: bool
    terminal_lambda: float
    termination: str = "reached_target"


def _failure_record(
    rep: int, cfg_d: int, cfg_n: int, t0: float, exc: Exception
) -> BenchRecord:
    return BenchRecord(
        instance_id=rep, d=cfg_d, n=cfg_n, pivot_count=-1,
        wall_time=time.perf_counter() - t0,
        max_feas_violation=float("nan"), support_recovered=False,
        terminal_lambda=float("nan"), termination=type(exc).__name__,
    )


def run_dantzig_bench(
    cfg: DantzigGenConfig,
    stop_rule: str = "benchmark",
    repetitions: int = 10,
) -> List[BenchRecord]:
    """Solve ``repetitions`` independent regression instances down to the
    stop level, recording pivots, timing, worst constraint violation over
    the breakpoints, and whether the terminal support covers theta0's."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    root = np.random.SeedSequence(cfg.rng_seed)
    target = stop_lambda(stop_rule, cfg.n, cfg.d, cfg.sigma)
    records: List[BenchRecord] = []
    for rep, child in enumerate(root.spawn(repetitions)):
        X, y, theta0 = gen_dantzig(cfg, rng=np.random.default_rng(child))
        program = build_dantzig(DantzigInstance(X, y))
        t0 = time.perf_counter()
        try:
            path = solve_path(program, SolveOptions(lambda_target=target))
        except ParasimplexError as exc:
            records.append(_failure_record(rep, cfg.d, cfg.n, t0, exc))
            continue
        elapsed = time.perf_counter() - t0
        orig = recover_dantzig(path)
        worst = -np.inf
        for seg in path.segments:
            lam = max(segment_breakpoint(seg), path.terminal_lambda)
            theta = orig.value_at(lam)
            worst = max(worst, feasibility_violation(X, y, theta, lam))
        theta_end = orig.value_at(path.terminal_lambda)
        estimated = set(np.flatnonzero(np.abs(theta_end) > SUPPORT_TOL))
        truth = set(np.flatnonzero(theta0))
        records.append(
            BenchRecord(
                instance_id=rep, d=cfg.d, n=cfg.n,
                pivot_count=path.num_pivots, wall_time=elapsed,
                max_feas_violation=float(worst) if np.isfinite(worst) else 0.0,
                support_recovered=truth.issubset(estimated),
                terminal_lambda=path.terminal_lambda,
                termination=path.termination.value,
            )
        )
    return records


def run_diffnet_bench(
    cfg: DiffNetGenConfig,
    repetitions: int = 5,
    target_nnz: Optional[int] = None,
) -> List[BenchRecord]:
    """Trace the matrix-estimator path until the estimate has target_nnz
    nonzeros (default: the true sparsity of Delta0), then check that the
    recovered support is contained in the truth's."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    root = np.random.SeedSequence(cfg.rng_seed)
    records: List[BenchRecord] = []
    for rep, child in enumerate(root.spawn(repetitions)):
        S_X, S_Y, Delta0 = gen_diffnet(cfg, rng=np.random.default_rng(child))
        inst = DiffNetInstance.from_covariances(S_X, S_Y)
        program = build_diffnet(inst)
        want = target_nnz if target_nnz is not None else int(
            np.count_nonzero(np.abs(Delta0) > SUPPORT_TOL)
        )
        t0 = time.perf_counter()
        try:
            path = solve_path(
                program,
                SolveOptions(stop_callback=diffnet_sparsity_stop(inst, want)),
            )
        except ParasimplexError as exc:
            records.append(_failure_record(rep, cfg.d, cfg.n, t0, exc))
            continue
        elapsed = time.perf_counter() - t0
        orig = recover_diffnet(path, inst)
        lam_end = path.terminal_lambda
        delta_end = orig.value_at(lam_end)
        est = set(map(tuple, np.argwhere(np.abs(delta_end) > SUPPORT_TOL)))
        truth = set(map(tuple, np.argwhere(np.abs(Delta0) > SUPPORT_TOL)))
        resid = float(np.abs(S_X @ delta_end @ S_Y - (S_X - S_Y)).max(initial=0.0))
        records.append(
            BenchRecord(
                instance_id=rep, d=cfg.d, n=cfg.n,
                pivot_count=path.num_pivots, wall_time=elapsed,
                max_feas_violation=resid - lam_end,
                support_recovered=est.issubset(truth),
                terminal_lambda=lam_end,
                termination=path.termination.value,
            )
        )
    return records


def summarize(records: List[BenchRecord]) -> Dict[str, float]:
    """Mean and standard error of the key outcomes over completed runs."""
    done = [r for r in records if r.pivot_count >= 0]
    out: Dict[str, float] = {
        "runs": float(len(records)),
        "completed": float(len(done)),
    }
    if not done:
        return out

    def _mean_se(vals: List[float], name: str) -> None:
        arr = np.asarray(vals, dtype=float)
        out[f"{name}_mean"] = float(arr.mean())
        out[f"{name}_se"] = float(
            arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
        )

    _mean_se([r.pivot_count for r in done], "pivots")
    _mean_se([r.wall_time for r in done], "seconds")
    _mean_se([max(r.max_feas_violation, 0.0) for r in done], "violation")
    out["support_rate"] = float(
        np.mean([1.0 if r.support_recovered else 0.0 for r in done])
    )
    return out
