"""Synthetic instance generators and benchmark drivers.

Generators follow the usual sparse-recovery simulation recipes: gaussian
designs with renormalized columns and a sparse ground truth for regression,
and a pair of covariance models differing by a sparse perturbation of the
precision matrix for the matrix estimator. All randomness flows through
numpy Generators seeded from the config, so runs are reproducible.
``stop_options`` turns a stop-rule string into solve options for the
command line and the benchmark drivers alike.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .core import SolutionPath, segment_breakpoint
from .engine import SolveOptions, solve_path
from .errors import ParasimplexError
from .reductions import (
    SUPPORT_TOL,
    DantzigInstance,
    DiffNetInstance,
    PathInOriginalCoords,
    build_dantzig,
    build_diffnet,
    diffnet_sparsity_stop,
    recover_dantzig,
    recover_diffnet,
)


AMPLITUDE = 1.0  # least |theta0_j| on the support (gen_dantzig)
MAGNITUDE = 1.0  # scale of the precision perturbation's entries (gen_diffnet)


@dataclass
class DantzigGenConfig:
    """Sparse linear model y = X theta0 + sigma * noise.

    Columns of X are rescaled to length sqrt(n). The s active coefficients
    get magnitude AMPLITUDE + |N(0,1)| with random signs, so none of them
    is vanishingly small.
    """

    n: int = 100
    d: int = 250
    s: int = 5
    sigma: float = 1.0
    rng_seed: Optional[int] = None


def gen_dantzig(
    cfg: DantzigGenConfig, rng: Optional[np.random.Generator] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (X, y, theta0) for one regression instance."""
    if min(cfg.n, cfg.d) < 1:
        raise ValueError(f"n and d must be >= 1, got n={cfg.n}, d={cfg.d}")
    if not 0 <= cfg.s <= cfg.d:
        raise ValueError(f"sparsity s must be in [0, d], got s={cfg.s}, d={cfg.d}")
    if not 0.0 <= cfg.sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {cfg.sigma}")
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    X = rng.standard_normal((cfg.n, cfg.d))
    norms = np.linalg.norm(X, axis=0)
    norms[norms == 0.0] = 1.0
    X *= math.sqrt(cfg.n) / norms
    theta0 = np.zeros(cfg.d)
    support = rng.choice(cfg.d, size=cfg.s, replace=False)
    signs = rng.choice((-1.0, 1.0), size=cfg.s)
    theta0[support] = signs * (AMPLITUDE + np.abs(rng.standard_normal(cfg.s)))
    y = X @ theta0 + cfg.sigma * rng.standard_normal(cfg.n)
    return X, y, theta0


@dataclass
class DiffNetGenConfig:
    """Two gaussian populations whose precision matrices differ sparsely.

    Sigma_X = U' diag(lam) U with a square standard-normal U and lam uniform
    on [1, 2]; the second precision matrix adds a sparse symmetric
    perturbation D1 (``sparsity`` nonzero upper-triangle entries, mirrored,
    each MAGNITUDE * N(0,1)) shifted by 2|lambda_min(D1)| I to keep the sum
    positive definite. The target difference of precisions is Delta0 = -D.
    Empirical covariances use n samples each and the 1/n centered estimator.
    """

    d: int = 25
    n: int = 100
    sparsity: int = 4
    rng_seed: Optional[int] = None


def gen_diffnet(
    cfg: DiffNetGenConfig, rng: Optional[np.random.Generator] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (S_X, S_Y, Delta0) with Delta0 the true precision difference."""
    if min(cfg.n, cfg.d) < 1:
        raise ValueError(f"n and d must be >= 1, got n={cfg.n}, d={cfg.d}")
    d = cfg.d
    max_offdiag = d * (d - 1) // 2
    if not 0 <= cfg.sparsity <= max_offdiag:
        raise ValueError(f"sparsity must be in [0, {max_offdiag}], the number of "
                         f"upper-triangle entries, got {cfg.sparsity}")
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
        vals = MAGNITUDE * rng.standard_normal(cfg.sparsity)
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
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    base = sigma * math.sqrt(n * math.log(d))
    if rule == "path-demo":
        return base
    if rule == "benchmark":
        return 2.0 * base
    raise ValueError(f"unknown stop rule {rule!r}")


def stop_options(
    rule: str, inst: Union[DantzigInstance, DiffNetInstance], sigma: float = 1.0
) -> SolveOptions:
    """Solve options that end ``inst``'s path where ``rule`` says.

    ``value:<lambda>`` stops at a given level. ``path-demo`` and
    ``benchmark`` stop at ``stop_lambda``'s noise-scaled level for a
    ``DantzigInstance`` with noise scale sigma. ``sparsity:<k>`` stops once
    a ``DiffNetInstance``'s estimate has k nonzeros.
    """
    if rule in ("path-demo", "benchmark"):
        if not isinstance(inst, DantzigInstance):
            raise ValueError("diffnet stop rule must be value:<lambda> or sparsity:<k>")
        n, d = inst.X.shape
        return SolveOptions(lambda_target=stop_lambda(rule, n, d, sigma))
    kind, sep, arg = rule.partition(":")
    if sep and kind == "value":
        return SolveOptions(lambda_target=float(arg))
    if sep and kind == "sparsity":
        k = int(arg)
        if k < 0:
            raise ValueError(f"sparsity:<k> needs k >= 0, got {k}")
        if not isinstance(inst, DiffNetInstance):
            raise ValueError("sparsity stop rule is only for diffnet")
        return SolveOptions(stop_callback=diffnet_sparsity_stop(inst, k))
    raise ValueError(
        f"bad stop rule {rule!r}: expected path-demo, benchmark, "
        "value:<lambda>, or sparsity:<k>"
    )


def feasibility_violation(
    X: np.ndarray, y: np.ndarray, theta: np.ndarray, lam: float
) -> float:
    """||X'(y - X theta)||_inf - lam; positive means the constraint is broken."""
    return float(np.abs(X.T @ (y - X @ theta)).max(initial=0.0)) - lam


def breakpoint_violations(
    X: np.ndarray, y: np.ndarray, orig: PathInOriginalCoords
) -> List[float]:
    """``feasibility_violation`` of each recovered Dantzig segment at its
    own ``segment_breakpoint``, highest lambda first."""
    lams = [segment_breakpoint(seg) for seg in orig.segments]
    return [feasibility_violation(X, y, seg.value(lam), lam)
            for seg, lam in zip(orig.segments, lams)]


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


def _run_bench(
    cfg: Union[DantzigGenConfig, DiffNetGenConfig],
    repetitions: int,
    draw: Callable[[np.random.Generator], tuple],
) -> List[BenchRecord]:
    """One record per instance drawn from a child of cfg's seed.

    ``draw(rng)`` returns the instance's program, its SolveOptions, and a
    ``score(path) -> (max_feas_violation, support_recovered)``. Only the
    solve is timed; a ParasimplexError becomes a failed record (pivot_count
    -1, termination the error's class name).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    root = np.random.SeedSequence(cfg.rng_seed)
    records: List[BenchRecord] = []
    for rep, child in enumerate(root.spawn(repetitions)):
        program, opts, score = draw(np.random.default_rng(child))
        t0 = time.perf_counter()
        try:
            path = solve_path(program, opts)
        except ParasimplexError as exc:
            nan = float("nan")
            records.append(BenchRecord(rep, cfg.d, cfg.n, -1, time.perf_counter() - t0,
                                       nan, False, nan, type(exc).__name__))
            continue
        elapsed = time.perf_counter() - t0
        records.append(BenchRecord(rep, cfg.d, cfg.n, path.num_pivots, elapsed, *score(path),
                                   path.terminal_lambda, path.termination.value))
    return records


def run_dantzig_bench(
    cfg: DantzigGenConfig,
    stop_rule: str = "benchmark",
    repetitions: int = 10,
) -> List[BenchRecord]:
    """Solve ``repetitions`` independent regression instances down to the
    stop level, recording pivots, timing, worst constraint violation over
    the breakpoints, and whether the terminal support covers theta0's."""

    def draw(rng: np.random.Generator) -> tuple:
        X, y, theta0 = gen_dantzig(cfg, rng=rng)
        inst = DantzigInstance(X, y)

        def score(path: SolutionPath) -> Tuple[float, bool]:
            orig = recover_dantzig(path)
            truth = frozenset(np.flatnonzero(theta0).tolist())
            return (max(breakpoint_violations(X, y, orig), default=0.0),
                    truth <= orig.support_at(path.terminal_lambda))

        return build_dantzig(inst), stop_options(stop_rule, inst, cfg.sigma), score

    return _run_bench(cfg, repetitions, draw)


def run_diffnet_bench(
    cfg: DiffNetGenConfig,
    repetitions: int = 5,
    target_nnz: Optional[int] = None,
) -> List[BenchRecord]:
    """Trace the matrix-estimator path until the estimate has target_nnz
    nonzeros (default: the true sparsity of Delta0), then check that the
    recovered support is contained in the truth's."""

    def draw(rng: np.random.Generator) -> tuple:
        S_X, S_Y, Delta0 = gen_diffnet(cfg, rng=rng)
        inst = DiffNetInstance.from_covariances(S_X, S_Y)
        truth = frozenset(np.flatnonzero(np.abs(Delta0).ravel(order="F") > SUPPORT_TOL).tolist())
        want = target_nnz if target_nnz is not None else len(truth)

        def score(path: SolutionPath) -> Tuple[float, bool]:
            lam_end = path.terminal_lambda
            orig = recover_diffnet(path, inst)
            delta_end = orig.value_at(lam_end)
            resid = float(np.abs(S_X @ delta_end @ S_Y - (S_X - S_Y)).max(initial=0.0))
            return resid - lam_end, orig.support_at(lam_end) <= truth

        opts = SolveOptions(stop_callback=diffnet_sparsity_stop(inst, want))
        return build_diffnet(inst), opts, score

    return _run_bench(cfg, repetitions, draw)


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
