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

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Tuple

import numpy as np

from .operators import Operator, WithSlacks, as_operator

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
        A: constraint matrix, shape (m, n), full row rank assumed, held as
            an ``operators.Operator``; an array is wrapped as a DenseMatrix.
        b, b_bar: base and perturbation right-hand sides, shape (m,).
        c, c_bar: base and perturbation objective vectors, shape (n,).
        kind: whether rows are equalities or <= inequalities.
    """

    A: Operator
    b: np.ndarray
    b_bar: np.ndarray
    c: np.ndarray
    c_bar: np.ndarray
    kind: ProgramKind = ProgramKind.EQUALITY

    def __post_init__(self) -> None:
        self.kind = ProgramKind(self.kind)
        self.A = as_operator(self.A)  # checks its entries are finite
        m, n = self.A.shape
        for name in ("b", "b_bar", "c", "c_bar"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            setattr(self, name, v)
        if self.b.shape != (m,) or self.b_bar.shape != (m,):
            raise ValueError(f"rhs vectors must have shape ({m},)")
        if self.c.shape != (n,) or self.c_bar.shape != (n,):
            raise ValueError(f"cost vectors must have shape ({n},)")
        for name in ("b", "b_bar", "c", "c_bar"):
            if not np.isfinite(getattr(self, name)).all():
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
    num_cols - 1`` of the path are the appended slacks, in row order."""

    original_n: int


def to_standard_form(p: ParametricProgram) -> Tuple[ParametricProgram, Optional[SlackInfo]]:
    """Append one slack column per row to turn <= rows into equalities; the
    constraint operator becomes ``WithSlacks(A)``, ``[A | I]`` held as A.

    Slacks get zero cost in both c and c_bar. Equality programs pass through
    unchanged (info is None). The vectors come from p, which its own
    construction checked, so the checks of ``__post_init__`` are not rerun.
    """
    if p.kind is ProgramKind.EQUALITY:
        return p, None
    pad = np.zeros(p.m)
    std = object.__new__(ParametricProgram)
    vars(std).update(A=WithSlacks(p.A), b=p.b.copy(), b_bar=p.b_bar.copy(),
                     c=np.concatenate([p.c, pad]), c_bar=np.concatenate([p.c_bar, pad]),
                     kind=ProgramKind.EQUALITY)
    return std, SlackInfo(original_n=p.n)


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
            if idx.size and not 0 <= idx.min() <= idx.max() < n:
                bad = idx[(idx < 0) | (idx >= n)][0]
                raise ValueError(f"column {int(bad)} is out of range for {n} columns")
        if len(self.basic) + len(self.nonbasic) != n:
            raise ValueError("partition does not cover all columns")
        self._pos = np.full(n, -1, dtype=np.intp)
        self._pos[self.basic] = np.arange(len(self.basic))
        self._pos[self.nonbasic] = np.arange(len(self.nonbasic))
        if (self._pos < 0).any():  # n columns in range miss one only by repeats
            raise ValueError("duplicate column index in partition")

    @classmethod
    def from_basic(cls, n: int, basic) -> "BasisPartition":
        basic = np.sort(np.asarray(basic, dtype=np.intp))
        mask = np.ones(n, dtype=bool)
        lo, hi = basic.searchsorted((0, n))
        mask[basic[lo:hi]] = False  # the columns in range; __init__ rejects the rest
        return cls(n, basic, mask.nonzero()[0])

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
    give reduced costs on the nonbasic columns. The pivot into segment k > 0
    is ``SolutionPath.events[k - 1]``. It holds the whole dictionary, O(n)
    numbers; ``solve_path`` returns every segment as a ``CompactSegment``.
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

    def contains(self, lam: float) -> bool:
        return segment_contains(self, lam)

    def primal_below(self, hi: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The primal (indices, base, slope) at the columns below ``hi``."""
        idx, base, slope = self.primal_indices, self.primal_base, self.primal_slope
        keep = (idx < hi).nonzero()[0]  # np.flatnonzero's wrapper is slower than masks
        return idx.take(keep), base.take(keep), slope.take(keep)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.primal_indices, self.primal_base, self.primal_slope,
                                      self.dual_indices, self.dual_base, self.dual_slope))


@dataclass(slots=True, eq=False)
class CompactSegment:
    """A segment of a solved path: its interval and its primal entries at
    columns below ``n_structural``, the caller's columns (all of an equality
    program's), O(k) numbers on a <= program. ``solve_path`` stores every
    segment this way once nothing reads it dense: once its certificate
    batch passes, or at once when it is in none. It reads like a
    ``PathSegment``; its six arrays are ``rebuilt(pos)``, dictionary ``pos``
    of its window, replayed from the window's first partition bit for bit.
    """

    lambda_lo: float
    lambda_hi: float
    n_cols: int
    n_structural: int
    structural: Tuple[np.ndarray, np.ndarray, np.ndarray]
    rebuilt: Callable[[int], Tuple[np.ndarray, ...]] = field(repr=False)
    pos: int

    (primal_indices, primal_base, primal_slope, dual_indices, dual_base, dual_slope) = (
        property(lambda seg, k=k: seg.rebuilt(seg.pos)[k]) for k in range(6))
    contains = PathSegment.contains

    def primal_below(self, hi: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``PathSegment.primal_below`` from the stored entries (themselves at ``n_structural``)."""
        if hi == self.n_structural:
            return self.structural
        if hi > self.n_structural:
            return PathSegment.primal_below(self, hi)
        keep = (self.structural[0] < hi).nonzero()[0]
        return tuple(a.take(keep) for a in self.structural)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.structural)


def segment_contains(segment, lam: float) -> bool:
    """Whether lam lies in ``[lambda_lo, lambda_hi]`` up to INTERVAL_TOL
    (relative); works for either kind of segment, like ``segment_breakpoint``."""
    tol = INTERVAL_TOL * (1.0 + abs(lam))
    return segment.lambda_lo - tol <= lam <= segment.lambda_hi + tol


def segment_at(segments, lam: float):
    """The first of ``segments`` that contains lam (``segment_contains``);
    raises ValueError when none does."""
    for seg in segments:
        if segment_contains(seg, lam):
            return seg
    raise ValueError(f"lambda={lam} not covered by any segment")


def segment_breakpoint(segment) -> float:
    """A segment's breakpoint: its lower end, else its upper end, else 0.

    Works for any segment with ``lambda_lo``/``lambda_hi`` (standard-form or
    original coordinates).
    """
    for lam in (segment.lambda_lo, segment.lambda_hi):
        if math.isfinite(lam):  # np.isfinite costs 1.3 us on a Python float
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
    """The full piecewise-linear path, highest lambda first; ``events[k - 1]``
    is the pivot from segment k - 1 into segment k. Reading the arrays of
    a ``CompactSegment`` rebuilds its window; the path keeps the last one."""

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
        return segment_at(self.segments, lam)

    @property
    def nbytes(self) -> int:
        """The bytes its segments' arrays hold, as ``Operator.nbytes``; not
        the caller's program, the last window rebuilt (a cache), nor each
        window's (basic, nonbasic) lists, which its replays hold."""
        return sum(seg.nbytes for seg in self.segments)

    def breakpoints(self) -> List[float]:
        """Lambda values where the basis changed (each segment's lower end)."""
        return [seg.lambda_lo for seg in self.segments]
