"""Brute-force LP oracle for verifying solver output on small problems.

Enumerates every basis of the standard-form program, so its answers are
independent of any pivoting logic. Intended for test corpora only: the
instance must have at most 24 standard-form columns and at most 200,000
candidate bases, otherwise SizeGuard is raised.

The oracle decides OPTIMAL / UNBOUNDED / INFEASIBLE at a fixed lambda:

* feasibility: some invertible basis solves A_B x = b + lambda*b_bar with
  x >= -1e-9 (for full-row-rank A this is exact LP feasibility);
* unboundedness: some basis exhibits an improving extreme ray (direction
  A_B^{-1} a_j <= 0 with negative reduced cost), checked over all bases so
  it does not depend on which vertices happen to be feasible;
* otherwise the optimum is the best feasible basic solution.

Rank-deficient corner case: when no basis passes the determinant filter at
all, a zero right-hand side is answered directly (x = 0, or UNBOUNDED if a
zero column has positive cost) and anything else is reported INFEASIBLE.
That is correct for the full-row-rank instances this oracle is used on, but
is stated here as a limitation rather than a theorem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .core import ParametricProgram, SolutionPath, evaluate_primal, to_standard_form
from .errors import SizeGuard

MAX_COLS = 24
MAX_BASES = 200_000
CHUNK = 20_000
DET_RTOL = 1e-12          # vs. the Hadamard bound of the submatrix
FEAS_ABS = 1e-9
RESID_RTOL = 1e-8
RAY_TOL = 1e-9
VALUE_RTOL = 1e-7
_INV_CACHE_FLOATS = 30_000_000
RANDOM_MAX_ROWS, RANDOM_MAX_COLS = 6, 12  # sizes drawn by random_less_equal


class OracleStatus(Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


@dataclass
class OracleResult:
    status: OracleStatus
    x: Optional[np.ndarray]   # standard-form coordinates, None unless OPTIMAL
    value: float              # +inf if unbounded, nan if infeasible


@dataclass
class OracleReport:
    """Outcome of sampling a solution path against the oracle."""

    passed: bool
    samples_checked: int
    worst_rel_gap: float
    worst_lambda: float
    failures: List[str] = field(default_factory=list)


def _chunked_combinations(n: int, m: int, size: int) -> Iterator[np.ndarray]:
    it = itertools.combinations(range(n), m)
    while True:
        block = list(itertools.islice(it, size))
        if not block:
            return
        yield np.asarray(block, dtype=np.intp)


class BasisEnumeration:
    """All invertible bases of one standard-form program, reused across lambdas.

    Basis inverses are cached when they fit in a modest memory budget;
    otherwise each optimum() call refactorizes chunk by chunk.
    """

    def __init__(self, program: ParametricProgram):
        program = to_standard_form(program)[0]
        m, n = program.m, program.n
        if n > MAX_COLS:
            raise SizeGuard(f"{n} columns exceeds the {MAX_COLS}-column cap")
        n_candidates = math.comb(n, m)
        if n_candidates > MAX_BASES:
            raise SizeGuard(
                f"{n_candidates} candidate bases exceeds the {MAX_BASES} cap"
            )
        self.program = program
        self.A = program.A.to_dense()
        self._At = self.A.T.copy()
        col_norms = np.linalg.norm(self.A, axis=0)
        cache_inv = n_candidates * m * m <= _INV_CACHE_FLOATS
        self._chunks: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []
        self.n_bases = 0
        for cols in _chunked_combinations(n, m, CHUNK):
            subA = self._At[cols].transpose(0, 2, 1)
            dets = np.linalg.det(subA)
            hadamard = np.prod(col_norms[cols], axis=1)
            keep = np.abs(dets) > DET_RTOL * hadamard
            if not keep.any():
                continue
            kept = cols[keep]
            inv = np.linalg.inv(subA[keep]) if cache_inv else None
            self._chunks.append((kept, inv))
            self.n_bases += len(kept)
        # Improving-ray existence is lambda-free when the cost is static.
        self._static_cost = not np.any(self.program.c_bar)
        self._ray_cache: Optional[bool] = None

    def _iter_prepared(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for cols, inv in self._chunks:
            if inv is None:
                inv = np.linalg.inv(self._At[cols].transpose(0, 2, 1))
            yield cols, inv

    def _ray_exists(self, lam: float) -> bool:
        if self._static_cost and self._ray_cache is not None:
            return self._ray_cache
        cost = self.program.cost(lam)
        A = self.A
        found = False
        for cols, inv in self._iter_prepared():
            cB = cost[cols]
            ys = np.einsum("kmi,km->ki", inv, cB)
            z = ys @ A - cost[None, :]
            np.put_along_axis(z, cols, 0.0, axis=1)
            improving = z < -RAY_TOL
            if not improving.any():
                continue
            dirs = np.einsum("kij,jn->kin", inv, A)
            ray_ok = dirs.max(axis=1) <= RAY_TOL
            if np.any(improving & ray_ok):
                found = True
                break
        if self._static_cost:
            self._ray_cache = found
        return found

    def _no_basis_fallback(self, cost: np.ndarray, rhs: np.ndarray) -> OracleResult:
        if np.abs(rhs).max(initial=0.0) > FEAS_ABS:
            return OracleResult(OracleStatus.INFEASIBLE, None, float("nan"))
        col_inf = np.abs(self.A).max(axis=0, initial=0.0)
        zero_cols = col_inf <= DET_RTOL * max(1.0, float(col_inf.max(initial=0.0)))
        if np.any(zero_cols & (cost > RAY_TOL)):
            return OracleResult(OracleStatus.UNBOUNDED, None, float("inf"))
        return OracleResult(
            OracleStatus.OPTIMAL, np.zeros(self.program.n), 0.0
        )

    def optimum(self, lam: float) -> OracleResult:
        """Exact LP answer at one lambda by scanning every basis."""
        cost = self.program.cost(lam)
        rhs = self.program.rhs(lam)
        if self.n_bases == 0:
            return self._no_basis_fallback(cost, rhs)
        rhs_scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
        best_val = -np.inf
        best_x: Optional[np.ndarray] = None
        feasible_found = False
        for cols, inv in self._iter_prepared():
            xs = inv @ rhs
            subA = self._At[cols].transpose(0, 2, 1)
            resid = np.abs((subA @ xs[..., None])[..., 0] - rhs).max(axis=1)
            ok = (xs.min(axis=1) >= -FEAS_ABS) & (resid <= RESID_RTOL * rhs_scale)
            if not ok.any():
                continue
            feasible_found = True
            vals = np.where(ok, (cost[cols] * xs).sum(axis=1), -np.inf)
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val = float(vals[k])
                best_x = np.zeros(self.program.n)
                best_x[cols[k]] = xs[k]
        if not feasible_found:
            return OracleResult(OracleStatus.INFEASIBLE, None, float("nan"))
        if self._ray_exists(lam):
            return OracleResult(OracleStatus.UNBOUNDED, None, float("inf"))
        return OracleResult(OracleStatus.OPTIMAL, best_x, best_val)


def brute_force_optimum(p: ParametricProgram, lam: float) -> OracleResult:
    """One-shot oracle call (builds the enumeration, answers, discards it)."""
    return BasisEnumeration(p).optimum(lam)


def _sample_window(lo: float, hi: float) -> Tuple[float, float]:
    if np.isinf(lo) and np.isinf(hi):
        return 0.0, 10.0
    if np.isinf(hi):
        return lo, lo + 10.0 * (1.0 + abs(lo))
    if np.isinf(lo):
        return hi - 10.0 * (1.0 + abs(hi)), hi
    return lo, hi


def check_path_against_oracle(
    p: ParametricProgram,
    path: SolutionPath,
    samples_per_segment: int = 10,
    rel_tol: float = VALUE_RTOL,
) -> OracleReport:
    """Sample every path segment and compare objective values to the oracle.

    At each sampled lambda the path's point must be feasible and its
    objective must match the enumerated optimum to within
    rel_tol * (1 + |optimum|). Infinite segment ends are clamped to a
    width-10 window before sampling.
    """
    p_std, _ = to_standard_form(p)
    enum = BasisEnumeration(p_std)
    failures: List[str] = []
    worst_gap = 0.0
    worst_lam = float("nan")
    checked = 0
    for seg in path.segments:
        lo, hi = _sample_window(seg.lambda_lo, seg.lambda_hi)
        for lam in np.linspace(lo, hi, samples_per_segment):
            lam = float(lam)
            x = evaluate_primal(seg, lam)
            checked += 1
            rhs = p_std.rhs(lam)
            feas_scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
            primal_err = float(np.abs(enum.A @ x - rhs).max(initial=0.0))
            if primal_err > VALUE_RTOL * feas_scale or x.min(initial=0.0) < -VALUE_RTOL:
                failures.append(
                    f"lambda={lam:.6g}: path point infeasible "
                    f"(residual {primal_err:.3e}, min x {x.min():.3e})"
                )
                continue
            res = enum.optimum(lam)
            if res.status is not OracleStatus.OPTIMAL:
                failures.append(
                    f"lambda={lam:.6g}: oracle says {res.status.value}, "
                    "path claims a finite optimum"
                )
                continue
            val = float(p_std.cost(lam) @ x)
            gap = abs(val - res.value) / (1.0 + abs(res.value))
            if gap > worst_gap:
                worst_gap = gap
                worst_lam = lam
            if gap > rel_tol:
                failures.append(
                    f"lambda={lam:.6g}: path objective {val:.12g} vs "
                    f"oracle {res.value:.12g} (rel gap {gap:.3e})"
                )
    return OracleReport(
        passed=not failures,
        samples_checked=checked,
        worst_rel_gap=worst_gap,
        worst_lambda=worst_lam,
        failures=failures,
    )


def random_less_equal(rng: np.random.Generator) -> ParametricProgram:
    """Random small inequality-form instance for corpus testing.

    Entries are uniform on [-2, 2] with b_bar = 1 and c_bar = 0; the static
    cost is redrawn until every entry is nonpositive, which makes the slack
    basis optimal for all large lambda (so the path starts there without a
    phase-1). The draws come in blocks of rows, about 2^n of them in all,
    and ``rng`` is left where drawing one row at a time would leave it.
    """
    m = int(rng.integers(1, RANDOM_MAX_ROWS + 1))
    n = int(rng.integers(1, RANDOM_MAX_COLS + 1))
    A = rng.uniform(-2.0, 2.0, size=(m, n))
    b = rng.uniform(-2.0, 2.0, size=m)
    hit = np.empty(0, dtype=np.intp)
    while not hit.size:
        state = rng.bit_generator.state
        hit = np.flatnonzero((rng.uniform(-2.0, 2.0, size=(4096, n)) <= 0.0).all(axis=1))
    rng.bit_generator.state = state  # the block again, up to its first nonpositive row
    c = rng.uniform(-2.0, 2.0, size=(hit[0] + 1, n))[-1]
    return ParametricProgram(
        A=A,
        b=b,
        b_bar=np.ones(m),
        c=c,
        c_bar=np.zeros(n),
        kind="less_equal",
    )
