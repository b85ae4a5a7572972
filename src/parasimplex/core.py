"""Core data types for parametric linear programs and their solution paths.

A parametric program is a family of linear programs indexed by a scalar
``lam >= 0``::

    maximize    (c + lam * c_bar)' x
    subject to  A x  =  b + lam * b_bar     (or  A x <= b + lam * b_bar)
                  x >= 0

The solver tracks an optimal basic solution as ``lam`` decreases, producing a
piecewise-linear path: on each segment both the primal solution and the dual
reduced costs are affine in ``lam``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

# Slack allowed when testing whether a lambda lies inside a segment.
INTERVAL_TOL = 1e-9


class ProgramKind(Enum):
    EQUALITY = "equality"
    LESS_EQUAL = "less_equal"


class Termination(Enum):
    """Why a path stopped."""

    REACHED_TARGET = "reached_target"
    LAMBDA_NONPOSITIVE = "lambda_nonpositive"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"
    ITERATION_CAP = "iteration_cap"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class ParametricProgram:
    """A parametric LP ``max (c + lam c_bar)'x`` s.t. ``Ax (=|<=) b + lam b_bar, x >= 0``.

    Attributes:
        A: constraint matrix, shape (m, n), full row rank assumed.
        b, b_bar: base and perturbation right-hand sides, shape (m,).
        c, c_bar: base and perturbation objective vectors, shape (n,).
        kind: whether rows are equalities or <= inequalities.
    """

    A: np.ndarray
    b: np.ndarray
    b_bar: np.ndarray
    c: np.ndarray
    c_bar: np.ndarray
    kind: ProgramKind = ProgramKind.EQUALITY

    def __post_init__(self) -> None:
        self.kind = ProgramKind(self.kind)
        self.A = np.ascontiguousarray(np.atleast_2d(np.asarray(self.A, dtype=float)))
        m, n = self.A.shape
        for name in ("b", "b_bar", "c", "c_bar"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            setattr(self, name, v)
        if self.b.shape != (m,) or self.b_bar.shape != (m,):
            raise ValueError(f"rhs vectors must have shape ({m},)")
        if self.c.shape != (n,) or self.c_bar.shape != (n,):
            raise ValueError(f"cost vectors must have shape ({n},)")
        for name in ("A", "b", "b_bar", "c", "c_bar"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite entries in {name}")
        if m > n and self.kind is ProgramKind.EQUALITY:
            raise ValueError("equality program with more rows than columns")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def cost(self, lam: float) -> np.ndarray:
        return self.c + lam * self.c_bar

    def rhs(self, lam: float) -> np.ndarray:
        return self.b + lam * self.b_bar


@dataclass(frozen=True)
class SlackInfo:
    """Bookkeeping for a <=-to-= conversion: columns ``original_n ..
    original_n + m - 1`` are the appended slacks, in row order."""

    original_n: int
    num_rows: int


def to_standard_form(p: ParametricProgram) -> Tuple[ParametricProgram, Optional[SlackInfo]]:
    """Append one slack column per row to turn <= rows into equalities.

    Slacks get zero cost in both c and c_bar. Equality programs pass through
    unchanged (info is None).
    """
    if p.kind is ProgramKind.EQUALITY:
        return p, None
    m, n = p.m, p.n
    A = np.hstack([p.A, np.eye(m)])
    c = np.concatenate([p.c, np.zeros(m)])
    c_bar = np.concatenate([p.c_bar, np.zeros(m)])
    std = ParametricProgram(A, p.b.copy(), p.b_bar.copy(), c, c_bar, ProgramKind.EQUALITY)
    return std, SlackInfo(original_n=n, num_rows=m)


class BasisPartition:
    """An ordered split of column indices into basic and nonbasic lists.

    Order matters: the i-th basic index owns the i-th entries of the basic
    value vectors, and likewise for nonbasic reduced costs.
    """

    __slots__ = ("basic", "nonbasic", "_pos")

    def __init__(self, n: int, basic: np.ndarray, nonbasic: np.ndarray):
        self.basic = np.asarray(basic, dtype=np.intp)
        self.nonbasic = np.asarray(nonbasic, dtype=np.intp)
        for idx in (self.basic, self.nonbasic):
            bad = idx[(idx < 0) | (idx >= n)]
            if bad.size:
                raise ValueError(f"column {int(bad[0])} is out of range for {n} columns")
        if len(self.basic) + len(self.nonbasic) != n:
            raise ValueError("partition does not cover all columns")
        self._pos = np.full(n, -1, dtype=np.intp)
        self._pos[self.basic] = np.arange(len(self.basic))
        self._pos[self.nonbasic] = np.arange(len(self.nonbasic))
        if np.any(self._pos < 0):  # n columns in range miss one only by repeats
            raise ValueError("duplicate column index in partition")

    @classmethod
    def from_basic(cls, n: int, basic) -> "BasisPartition":
        basic = np.asarray(sorted(basic), dtype=np.intp)
        mask = np.ones(n, dtype=bool)
        mask[basic[(basic >= 0) & (basic < n)]] = False  # __init__ rejects the rest
        return cls(n, basic, np.flatnonzero(mask))

    def position(self, j: int) -> int:
        """Index of column j within its own list (basic or nonbasic)."""
        return int(self._pos[j])

    def swap(self, basic_pos: int, nonbasic_pos: int) -> None:
        """Exchange the variables at the given list positions."""
        i = self.basic[basic_pos]
        j = self.nonbasic[nonbasic_pos]
        self.basic[basic_pos] = j
        self.nonbasic[nonbasic_pos] = i
        self._pos[j] = basic_pos
        self._pos[i] = nonbasic_pos

    def __repr__(self) -> str:  # pragma: no cover
        return f"BasisPartition(basic={self.basic.tolist()})"


@dataclass
class PathSegment:
    """One affine piece of the solution path, valid for lambda in
    [lambda_lo, lambda_hi].

    Primal support entries evaluate as ``base + lam * slope`` at the listed
    column indices (all other coordinates are zero); dual entries likewise
    give reduced costs on the nonbasic columns.
    """

    lambda_lo: float
    lambda_hi: float
    n_cols: int
    primal_indices: np.ndarray
    primal_base: np.ndarray
    primal_slope: np.ndarray
    dual_indices: np.ndarray
    dual_base: np.ndarray
    dual_slope: np.ndarray
    entering: Optional[int] = None
    leaving: Optional[int] = None

    def contains(self, lam: float) -> bool:
        return segment_contains(self, lam)


def segment_contains(segment, lam: float) -> bool:
    """Whether lam lies in ``[lambda_lo, lambda_hi]`` up to INTERVAL_TOL
    (relative); works for either kind of segment, like ``segment_breakpoint``."""
    tol = INTERVAL_TOL * (1.0 + abs(lam))
    return segment.lambda_lo - tol <= lam <= segment.lambda_hi + tol


def segment_breakpoint(segment) -> float:
    """A segment's breakpoint: its lower end, else its upper end, else 0.

    Works for any segment with ``lambda_lo``/``lambda_hi`` (standard-form or
    original coordinates).
    """
    for lam in (segment.lambda_lo, segment.lambda_hi):
        if np.isfinite(lam):
            return float(lam)
    return 0.0


def evaluate_primal(segment: PathSegment, lam: float) -> np.ndarray:
    """Dense primal solution of a segment at a given lambda.

    Raises ValueError if lam lies outside the segment's interval (up to a
    small tolerance).
    """
    return _dense_at(segment, lam, segment.primal_indices,
                     segment.primal_base, segment.primal_slope)


def evaluate_dual(segment: PathSegment, lam: float) -> np.ndarray:
    """Dense reduced-cost vector of a segment at a given lambda (basic
    coordinates are zero); raises like ``evaluate_primal``."""
    return _dense_at(segment, lam, segment.dual_indices,
                     segment.dual_base, segment.dual_slope)


def _dense_at(segment: PathSegment, lam: float, idx: np.ndarray,
              base: np.ndarray, slope: np.ndarray) -> np.ndarray:
    if not segment.contains(lam):
        raise ValueError(
            f"lambda={lam} outside segment interval "
            f"[{segment.lambda_lo}, {segment.lambda_hi}]"
        )
    v = np.zeros(segment.n_cols)
    v[idx] = base + lam * slope
    return v


class PivotKind(Enum):
    PRIMAL = "primal"
    DUAL = "dual"


@dataclass(frozen=True)
class PivotEvent:
    """Record of one basis exchange at a breakpoint."""

    kind: PivotKind
    entering: int
    leaving: int
    lambda_star: float
    t: float
    t_bar: float
    s: float
    s_bar: float


@dataclass
class SolutionPath:
    """The full piecewise-linear path, highest lambda first."""

    segments: List[PathSegment] = field(default_factory=list)
    events: List[PivotEvent] = field(default_factory=list)
    termination: Termination = Termination.REACHED_TARGET
    terminal_lambda: float = float("nan")
    num_cols: int = 0
    slack_info: Optional[SlackInfo] = None
    # Why a pivot failed, when one ended the path; "" otherwise.
    termination_detail: str = ""

    @property
    def num_pivots(self) -> int:
        return len(self.events)

    def segment_at(self, lam: float) -> PathSegment:
        for seg in self.segments:
            if seg.contains(lam):
                return seg
        raise ValueError(f"lambda={lam} not covered by any segment")

    def breakpoints(self) -> List[float]:
        """Lambda values where the basis changed (each segment's lower end)."""
        return [seg.lambda_lo for seg in self.segments]
