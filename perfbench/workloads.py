"""The benchmark's workloads: seeded inputs, one timed operation, and the
checks on its outputs.

An operation is one estimator path: build the program, ``solve_path``,
recover the estimate (and, on the full path, write it as a CSV the way
``parasimplex dantzig --out`` does). Inputs are generated outside the timed
region from ``(seed, instance)``; checks run outside it too.

Why these workloads:

- ``dantzig-target`` (the library quick start) takes 5-8 pivots, so fixed
  per-solve costs dominate: certificate, the first factorization, the
  standard-form copy. A change to per-pivot work should leave it alone.
- ``dantzig-fullpath`` runs the same family to lambda = 0: about 900
  pivots, so per-pivot work, plus recovery and the CSV write over hundreds
  of segments.
- ``diffnet-sparsity`` has a 3200 x 6400 standard form and stops after 48
  pivots with certificates off: memory and large-m costs, no certificate
  work.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ContextManager, Optional

import numpy as np

from parasimplex import engine, experiments, io, reductions
from parasimplex.core import SolutionPath, Termination

import layers

# AC3's bound on ||X'(y - X theta)||_inf - lambda at every breakpoint:
# FEAS_RTOL * (1 + lambda). On the full path it is taken relative to
# 1 + lambda + ||X'y||_inf instead: near lambda = 0 the terms are
# O(||X'y||_inf) ~ 300, so 1e-9 (1 + lambda) asks for 3e-12 of them, and
# full paths reach 4e-9 there (1e-11 relative, 100x inside the engine's own
# certificate tolerance). The target workload keeps AC3's bound as stated.
FEAS_RTOL = 1e-9
# A full path must end within ZERO_RTOL * (1 + ||X'y||_inf) of lambda = 0.
ZERO_RTOL = 1e-9
# ||theta||_1 at the terminal lambda against HiGHS, relative.
HIGHS_RTOL = 1e-7
# The diffnet residual may exceed lambda_end by this much, relative.
RESID_RTOL = 1e-9
# Statuses that claim no path exists below the last breakpoint.
NO_PATH = (Termination.INFEASIBLE, Termination.UNBOUNDED,
           Termination.NUMERICAL_FAILURE)

Span = Callable[[str], ContextManager[None]]


@dataclass
class Outcome:
    """What an operation returned, with its timed phases."""

    build_s: float
    solve_s: float
    path_s: float
    program_mb: float
    path: SolutionPath
    orig: reductions.PathInOriginalCoords
    write_mb: float = 0.0
    worst_violation: Optional[float] = None  # set by the Dantzig check


@dataclass
class Verdict:
    ok: bool
    mismatch: bool = False  # passed every check to lambda ~ 0, status says no path
    detail: str = ""


def path_mb(path: SolutionPath) -> float:
    return layers.mb(*(a for s in path.segments for a in (
        s.primal_indices, s.primal_base, s.primal_slope,
        s.dual_indices, s.dual_base, s.dual_slope)))


def _breakpoint(seg, fallback: float) -> float:
    """A segment's lower end, or ``fallback`` when that is not finite."""
    return float(seg.lambda_lo) if math.isfinite(seg.lambda_lo) else fallback


class Dantzig:
    """n=100, d=250, s=5, sigma=1 regression paths with certificates on."""

    cfg = experiments.DantzigGenConfig(n=100, d=250, s=5, sigma=1.0)

    def __init__(self, full_path: bool, out_dir: Path):
        self.full_path = full_path
        # Operations in the RSS pass. A full path takes ~8 s, and its peak
        # varies smoothly with the path's length.
        self.rss_ops = 1 if full_path else 5
        self.target = 0.0 if full_path else experiments.stop_lambda(
            "benchmark", self.cfg.n, self.cfg.d, self.cfg.sigma)
        self.csv_path = out_dir / "fullpath.csv"

    def inputs(self, seed: int, instance: int):
        rng = np.random.default_rng([seed, instance])
        X, y, _ = experiments.gen_dantzig(self.cfg, rng=rng)
        return X, y

    def build(self, inputs):
        X, y = inputs
        return reductions.build_dantzig(reductions.DantzigInstance(X, y))

    def run(self, inputs, span: Span) -> Outcome:
        X, y = inputs
        t0 = time.perf_counter()
        with span("reductions.build"):
            program = self.build(inputs)
        t1 = time.perf_counter()
        with span("engine.solve"):
            path = engine.solve_path(
                program, engine.SolveOptions(lambda_target=self.target))
        t2 = time.perf_counter()
        with span("reductions.recover"):
            orig = reductions.recover_dantzig(path)
        if self.full_path:
            with span("experiments.violations"):
                violations = []
                for seg in orig.segments:
                    lam = _breakpoint(seg, seg.lambda_hi if math.isfinite(
                        seg.lambda_hi) else 0.0)
                    violations.append(experiments.feasibility_violation(
                        X, y, seg.value(lam), lam))
            with span("io.write"):
                io.save_original_path_csv(self.csv_path, orig, violations)
        t3 = time.perf_counter()
        return Outcome(
            build_s=t1 - t0, solve_s=t2 - t1, path_s=t3 - t0,
            program_mb=layers.mb(program.A), path=path, orig=orig,
            write_mb=self.csv_path.stat().st_size / 1e6 if self.full_path else 0.0,
        )

    def check(self, inputs, out: Outcome) -> Verdict:
        X, y = inputs
        path, orig = out.path, out.orig
        lam_end = float(path.terminal_lambda)
        scale = 1.0 + float(np.abs(X.T @ y).max())
        feas_base = scale if self.full_path else 1.0
        worst = -math.inf
        for k, seg in enumerate(orig.segments):
            lam = max(_breakpoint(seg, lam_end), lam_end)
            v = experiments.feasibility_violation(X, y, seg.value(lam), lam)
            worst = max(worst, v)
            if v > FEAS_RTOL * (feas_base + lam):
                return Verdict(False, detail=f"segment {k}: violation {v:.3e} "
                                             f"at lambda={lam:.6g}")
        out.worst_violation = worst
        if not self.full_path:
            if path.termination is not Termination.REACHED_TARGET \
                    or lam_end != self.target:
                return Verdict(False, detail=f"stopped short: {path.termination.value} "
                                             f"at lambda={lam_end:.6g}")
            return Verdict(True)
        if path.termination is Termination.ITERATION_CAP \
                or lam_end > ZERO_RTOL * scale:
            return Verdict(False, detail=f"stopped short: {path.termination.value} "
                                         f"at lambda={lam_end:.6g}")
        bad = self._check_csv(out, scale)
        if bad:
            return Verdict(False, detail=bad)
        return Verdict(True, mismatch=path.termination in NO_PATH)

    def _check_csv(self, out: Outcome, scale: float) -> str:
        """Read the written CSV back: values round-trip, every
        ``violation_at_lo`` is within the bound, the lowest breakpoint is ~0."""
        segs = out.orig.segments
        lowest = math.inf
        with open(self.csv_path, newline="") as f:
            rows = csv.reader(f)
            if next(rows)[-1] != "violation_at_lo":
                return "CSV has no violation_at_lo column"
            for sid, lo, _, j, base, slope, viol in rows:
                seg, j = segs[int(sid)], int(j)
                if float(base) != seg.base[j] or float(slope) != seg.slope[j]:
                    return f"CSV segment {sid} entry {j} does not round-trip"
                lo = float(lo)
                if float(viol) > FEAS_RTOL * (scale + max(lo, 0.0)):  # full path only
                    return f"CSV segment {sid}: violation_at_lo={viol}"
                lowest = min(lowest, lo)
        if lowest > ZERO_RTOL * scale:
            return f"CSV lowest breakpoint {lowest:.6g} is not ~0"
        return ""

    def warm_up(self, inputs) -> None:
        engine.solve_path(self.build(inputs), lambda_target=self.target,
                          max_pivots=2)

    def cross_check(self, inputs, out: Outcome) -> Optional[Callable[[], str]]:
        """||theta||_1 at the terminal lambda against HiGHS on an
        independently written copy of the LP; returns the check to run
        later, holding only what it needs."""
        X, y = inputs
        lam = max(float(out.path.terminal_lambda), 0.0)
        l1 = float(np.abs(out.orig.value_at(out.path.terminal_lambda)).sum())

        def against_highs() -> str:
            from scipy.optimize import linprog

            G, g = X.T @ X, X.T @ y
            res = linprog(
                np.ones(2 * G.shape[0]),
                A_ub=np.block([[G, -G], [-G, G]]),
                b_ub=np.concatenate([g + lam, lam - g]),
                bounds=(0, None), method="highs",
            )
            if res.status != 0:
                return f"HiGHS status {res.status}: {res.message}"
            if abs(res.fun - l1) > HIGHS_RTOL * (1.0 + abs(res.fun)):
                return f"||theta||_1={l1:.12g} but HiGHS gives {res.fun:.12g}"
            return ""

        return against_highs


class DiffNet:
    """d=40, n=100, sparsity=4 precision differences, stopped once the
    estimate has as many nonzeros as Delta0, certificates off."""

    cfg = experiments.DiffNetGenConfig(d=40, n=100, sparsity=4)
    # Operations in the RSS pass. A path that reaches the 50-update refresh
    # holds two factorizations (~750 MB, against ~590 MB); the median of five
    # is that of the common case unless three of them do.
    rss_ops = 5

    def inputs(self, seed: int, instance: int):
        rng = np.random.default_rng([seed, instance])
        S_X, S_Y, delta0 = experiments.gen_diffnet(self.cfg, rng=rng)
        want = int(np.count_nonzero(np.abs(delta0) > reductions.SUPPORT_TOL))
        return S_X, S_Y, want

    def build(self, inputs):
        S_X, S_Y, _ = inputs
        return reductions.build_diffnet(
            reductions.DiffNetInstance.from_covariances(S_X, S_Y))

    def run(self, inputs, span: Span) -> Outcome:
        S_X, S_Y, want = inputs
        nD = S_X.shape[0] * S_Y.shape[0]

        def enough(seg) -> bool:
            # The parasimplex diffnet --stop-rule sparsity:<want> rule.
            lam = seg.lambda_lo
            if not math.isfinite(lam):
                return False
            keep = seg.primal_indices < 2 * nD
            vals = seg.primal_base[keep] + lam * seg.primal_slope[keep]
            idx = seg.primal_indices[keep] % nD
            return np.unique(idx[np.abs(vals) > reductions.SUPPORT_TOL]).size >= want

        t0 = time.perf_counter()
        with span("reductions.build"):
            program = self.build(inputs)
        t1 = time.perf_counter()
        with span("engine.solve"):
            path = engine.solve_path(program, engine.SolveOptions(
                lambda_target=0.0, stop_callback=enough, check_certificates=False))
        t2 = time.perf_counter()
        with span("reductions.recover"):
            orig = reductions.recover_diffnet(
                path, reductions.DiffNetInstance.from_covariances(S_X, S_Y))
        t3 = time.perf_counter()
        return Outcome(build_s=t1 - t0, solve_s=t2 - t1, path_s=t3 - t0,
                       program_mb=layers.mb(program.A), path=path, orig=orig)

    def check(self, inputs, out: Outcome) -> Verdict:
        S_X, S_Y, want = inputs
        path = out.path
        lam_end = float(path.terminal_lambda)
        if path.termination is not Termination.REACHED_TARGET:
            return Verdict(False, detail=f"stopped short: {path.termination.value} "
                                         f"at lambda={lam_end:.6g}")
        delta = out.orig.value_at(lam_end)
        nnz = int(np.count_nonzero(np.abs(delta) > reductions.SUPPORT_TOL))
        if nnz < want:
            return Verdict(False, detail=f"{nnz} nonzeros, wanted {want}")
        resid = float(np.abs(S_X @ delta @ S_Y - (S_X - S_Y)).max())
        if resid > lam_end + RESID_RTOL * (1.0 + lam_end):
            return Verdict(False, detail=f"||S_X D S_Y - (S_X - S_Y)||_max="
                                         f"{resid:.12g} > lambda={lam_end:.12g}")
        return Verdict(True)

    def warm_up(self, inputs) -> None:
        engine.solve_path(self.build(inputs), check_certificates=False,
                          max_pivots=2)

    def cross_check(self, inputs, out: Outcome) -> Optional[Callable[[], str]]:
        return None  # HiGHS takes seconds even at d=25; no reference here


def make(name: str, out_dir: Path):
    if name == "dantzig-target":
        return Dantzig(full_path=False, out_dir=out_dir)
    if name == "dantzig-fullpath":
        return Dantzig(full_path=True, out_dir=out_dir)
    if name == "diffnet-sparsity":
        return DiffNet()
    raise ValueError(f"unknown workload {name!r}")
