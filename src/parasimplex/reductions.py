"""Reductions from three sparse-learning estimators to parametric LPs.

Each builder emits a ParametricProgram whose lambda is the estimator's
regularization level, so one solve_path call yields the whole regularization
path. Free variables are handled by positive/negative splits (theta =
theta_plus - theta_minus with both halves >= 0), and each recover_* maps
standard-form solutions back to the statistical parameters.

Builders:
    build_dantzig  -- l1 minimization s.t. ||X'(y - X theta)||_inf <= lambda
    build_svm      -- l1-constrained soft-margin linear classifier
    build_diffnet  -- ||X D Z - Y||_inf <= lambda with D sparse (difference
                      of precision matrices when X, Z are covariances)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Optional, Tuple

import numpy as np

from .core import (
    ParametricProgram,
    PathSegment,
    ProgramKind,
    SolutionPath,
    Termination,
    segment_breakpoint,
    segment_contains,
)
from .errors import ComplementarityViolation

# Entries larger than this (in absolute value) count as support.
SUPPORT_TOL = 1e-9
# theta_plus * theta_minus above this at a breakpoint signals an engine bug.
COMPL_TOL = 1e-12


def _set_xy(inst) -> None:
    """Store a frozen instance's X as a float matrix and y as a float vector
    with one entry per row of X."""
    X = np.atleast_2d(np.asarray(inst.X, dtype=float))
    y = np.asarray(inst.y, dtype=float).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X row count must match len(y)")
    object.__setattr__(inst, "X", X)
    object.__setattr__(inst, "y", y)


@dataclass(frozen=True)
class DantzigInstance:
    """Regression data: design X (n x d) and response y (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        _set_xy(self)


@dataclass(frozen=True)
class SvmInstance:
    """Classification data: features X (n x d), labels y in {-1, +1}."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        _set_xy(self)
        if not np.all(np.isin(self.y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")


@dataclass(frozen=True)
class DiffNetInstance:
    """Data for the matrix problem min ||D||_1 s.t. ||X D Z - Y||_inf <= lambda.

    The differential-network case sets X = S_X, Z = S_Y, Y = S_X - S_Y
    (empirical covariances), for which D estimates the difference of the two
    precision matrices.
    """

    X: np.ndarray
    Z: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if Y.shape != (X.shape[0], Z.shape[1]):
            raise ValueError(
                f"Y must be {X.shape[0]}x{Z.shape[1]} to match X rows and Z columns"
            )
        for name, M in (("X", X), ("Z", Z), ("Y", Y)):
            object.__setattr__(self, name, M)

    @classmethod
    def from_covariances(cls, S_X: np.ndarray, S_Y: np.ndarray) -> "DiffNetInstance":
        S_X = np.asarray(S_X, dtype=float)
        S_Y = np.asarray(S_Y, dtype=float)
        if S_X.shape != S_Y.shape or S_X.shape[0] != S_X.shape[1]:
            raise ValueError("covariance matrices must be square and same shape")
        return cls(X=S_X, Z=S_Y, Y=S_X - S_Y)

    @property
    def dims(self) -> Tuple[int, int, int, int]:
        """(m1, d1, d2, m2): X is m1 x d1, D is d1 x d2, Z is d2 x m2."""
        return self.X.shape[0], self.X.shape[1], self.Z.shape[0], self.Z.shape[1]


@dataclass
class OriginalSegment:
    """One path piece in original coordinates: value(lam) = base + lam*slope.

    ``base``/``slope`` are d-vectors (Dantzig, SVM weights) or d1 x d2
    matrices (matrix problems). SVM segments additionally carry the affine
    intercept pieces.
    """

    lambda_lo: float
    lambda_hi: float
    base: np.ndarray
    slope: np.ndarray
    intercept_base: float = 0.0
    intercept_slope: float = 0.0

    def value(self, lam: float) -> np.ndarray:
        return self.base + lam * self.slope

    def intercept(self, lam: float) -> float:
        return self.intercept_base + lam * self.intercept_slope


@dataclass
class PathInOriginalCoords:
    """A recovered solution path plus per-breakpoint support sets."""

    segments: List[OriginalSegment] = field(default_factory=list)
    supports: List[FrozenSet[int]] = field(default_factory=list)
    termination: Termination = Termination.REACHED_TARGET
    terminal_lambda: float = float("nan")

    def segment_at(self, lam: float) -> OriginalSegment:
        for seg in self.segments:
            if segment_contains(seg, lam):
                return seg
        raise ValueError(f"lambda={lam} not covered by any segment")

    def value_at(self, lam: float) -> np.ndarray:
        return self.segment_at(lam).value(lam)


def build_dantzig(inst: DantzigInstance) -> ParametricProgram:
    """LP for l1 minimization subject to ||X'(y - X theta)||_inf <= lambda.

    The sup-norm program of ``_sup_norm_program`` with G = X'X and g = X'y:
    2d <= rows over the 2d split columns of theta = theta_plus - theta_minus.
    The slack basis is optimal for every lambda >= ||X'y||_inf, so no phase-1
    is needed.
    """
    return _sup_norm_program(inst.X.T @ inst.X, inst.X.T @ inst.y)


def _sup_norm_program(G: np.ndarray, g: np.ndarray) -> ParametricProgram:
    """The <= program for min ||u||_1 s.t. ||G u - g||_inf <= lambda over
    the split u = u_plus - u_minus:

        [[ G, -G],     [ g]
         [-G,  G]] x <= [-g] + lambda,   c = -1, c_bar = 0, b_bar = 1.

    Both Dantzig (G = X'X) and diffnet (G = Z' kron X) are this program.
    """
    r, d = G.shape
    # Filled in place: np.block's temporaries took half of the build.
    A = np.empty((2 * r, 2 * d))
    A[:r, :d] = G
    np.negative(G, out=A[:r, d:])
    A[r:, :d] = A[:r, d:]
    A[r:, d:] = G
    return ParametricProgram(
        A=A, b=np.concatenate([g, -g]), b_bar=np.ones(2 * r), c=-np.ones(2 * d),
        c_bar=np.zeros(2 * d), kind=ProgramKind.LESS_EQUAL,
    )


def build_svm(inst: SvmInstance) -> Tuple[ParametricProgram, List[int]]:
    """Equality-form LP for the l1-constrained soft-margin classifier.

    minimize sum(hinge) s.t. y_i(x_i' theta + theta_0) >= 1 - hinge_i and
    ||theta||_1 <= lambda. Columns, in order: hinge t_plus (n), surplus
    t_minus (n), theta_plus (d), theta_minus (d), theta0_plus, theta0_minus,
    norm slack w. Rows: n margin equalities (b=1) and one norm-budget row
    (b=0, b_bar=1).

    Returns the program and the canonical starting basis {t_plus block, w},
    which is primal-feasible for every lambda >= 0 (t_plus = 1, w = lambda).
    Whether it is *dual*-feasible at large lambda depends on the data — for
    generic data it is not, and initialize raises InfeasibleAtLargeLambda;
    sign-balanced data (sum_i y_i x_i = 0 and sum_i y_i = 0) admits the
    basis and yields the constant path theta = 0, hinge = 1.
    """
    X, y = inst.X, inst.y
    n, d = X.shape
    Z = y[:, None] * X
    cols = 2 * n + 2 * d + 3
    A = np.zeros((n + 1, cols))
    A[:n, 0:n] = np.eye(n)
    A[:n, n:2 * n] = -np.eye(n)
    A[:n, 2 * n:2 * n + d] = Z
    A[:n, 2 * n + d:2 * n + 2 * d] = -Z
    A[:n, 2 * n + 2 * d] = y
    A[:n, 2 * n + 2 * d + 1] = -y
    A[n, 2 * n:2 * n + 2 * d] = 1.0
    A[n, 2 * n + 2 * d + 2] = 1.0
    b = np.concatenate([np.ones(n), [0.0]])
    b_bar = np.concatenate([np.zeros(n), [1.0]])
    c = np.zeros(cols)
    c[:n] = -1.0
    program = ParametricProgram(
        A=A, b=b, b_bar=b_bar, c=c, c_bar=np.zeros(cols),
        kind=ProgramKind.EQUALITY,
    )
    basis = list(range(n)) + [2 * n + 2 * d + 2]
    return program, basis


def build_diffnet(inst: DiffNetInstance) -> ParametricProgram:
    """Inequality-form LP for min ||D||_1 s.t. ||X D Z - Y||_inf <= lambda.

    The product X D Z is vectorized column-major, vec(X D Z) = G vec(D) with
    G = Z' kron X ((m1*m2) x (d1*d2)), so this is the sup-norm program of
    ``_sup_norm_program`` with g = vec(Y) over the split D = D_plus - D_minus.

    An intermediate product variable C = X D would carry its defining
    equalities with zero right-hand side; every basis would then hold C
    entries at exactly zero and the path would crawl through long degenerate
    stretches. Substituting C out keeps the same D-path with none of that.

    The slack start (D = 0, slacks = +-vec(Y) + lambda) is feasible and
    optimal for every lambda >= ||Y||_max, so no explicit basis is needed.
    """
    return _sup_norm_program(np.kron(inst.Z.T, inst.X), inst.Y.flatten(order="F"))


def _dense_affine(seg: PathSegment, limit: int) -> Tuple[np.ndarray, np.ndarray]:
    """Dense (base, slope) arrays over the first ``limit`` columns."""
    base = np.zeros(limit)
    slope = np.zeros(limit)
    keep = seg.primal_indices < limit
    base[seg.primal_indices[keep]] = seg.primal_base[keep]
    slope[seg.primal_indices[keep]] = seg.primal_slope[keep]
    return base, slope


def _check_split_complement(
    plus: np.ndarray, minus: np.ndarray, lam: float, what: str
) -> None:
    worst = float(np.abs(plus * minus).max(initial=0.0))
    if worst > COMPL_TOL:
        raise ComplementarityViolation(
            f"{what} split has overlapping halves at lambda={lam:.6g} "
            f"(max product {worst:.3e})"
        )


def _support_of(values: np.ndarray) -> FrozenSet[int]:
    return frozenset(int(i) for i in np.flatnonzero(np.abs(values) > SUPPORT_TOL))


def diffnet_sparsity_stop(
    inst: DiffNetInstance, want: int
) -> Callable[[PathSegment], bool]:
    """A ``stop_callback`` for build_diffnet paths: true once the estimate
    at a segment's breakpoint has at least ``want`` nonzero entries of D."""
    m1, d1, d2, m2 = inst.dims
    nD = d1 * d2

    def enough(segment: PathSegment) -> bool:
        lam = segment.lambda_lo
        if not np.isfinite(lam):
            return False
        keep = segment.primal_indices < 2 * nD
        vals = segment.primal_base[keep] + lam * segment.primal_slope[keep]
        idx = segment.primal_indices[keep] % nD
        return np.unique(idx[np.abs(vals) > SUPPORT_TOL]).size >= want

    return enough


def recover_dantzig(path: SolutionPath, d: Optional[int] = None) -> PathInOriginalCoords:
    """Map a Dantzig path back to theta = theta_plus - theta_minus, checking
    split complementarity and recording the support at every breakpoint.
    ``d`` defaults to the width implied by the path's slack bookkeeping.
    """
    if d is None:
        if path.slack_info is None:
            raise ValueError("d cannot be inferred: path has no slack info")
        d = path.slack_info.original_n // 2
    return _recover_sup_norm(path, d, "theta", (d,))


def recover_svm(path: SolutionPath, inst: SvmInstance) -> PathInOriginalCoords:
    """Map an SVM path back to (theta, theta_0); predictions are
    sign(theta_0 + theta' z)."""
    n, d = inst.X.shape
    out = PathInOriginalCoords(
        termination=path.termination, terminal_lambda=path.terminal_lambda
    )
    for seg in path.segments:
        base, slope = _dense_affine(seg, 2 * n + 2 * d + 3)
        lam = segment_breakpoint(seg)
        x = base + lam * slope
        _check_split_complement(x[:n], x[n:2 * n], lam, "hinge")
        tp = slice(2 * n, 2 * n + d)
        tm = slice(2 * n + d, 2 * n + 2 * d)
        _check_split_complement(x[tp], x[tm], lam, "theta")
        i0 = 2 * n + 2 * d
        _check_split_complement(x[i0:i0 + 1], x[i0 + 1:i0 + 2], lam, "theta0")
        theta_base = base[tp] - base[tm]
        theta_slope = slope[tp] - slope[tm]
        out.segments.append(
            OriginalSegment(
                seg.lambda_lo,
                seg.lambda_hi,
                theta_base,
                theta_slope,
                intercept_base=base[i0] - base[i0 + 1],
                intercept_slope=slope[i0] - slope[i0 + 1],
            )
        )
        out.supports.append(_support_of(theta_base + lam * theta_slope))
    return out


def recover_diffnet(path: SolutionPath, inst: DiffNetInstance) -> PathInOriginalCoords:
    """Map a matrix-problem path back to D = D_plus - D_minus (d1 x d2).

    Support sets use column-major flat indices into D.
    """
    m1, d1, d2, m2 = inst.dims
    return _recover_sup_norm(path, d1 * d2, "D", (d1, d2))


def _recover_sup_norm(
    path: SolutionPath, d: int, name: str, shape: Tuple[int, ...]
) -> PathInOriginalCoords:
    """Map a ``_sup_norm_program`` path back to u = u_plus - u_minus.

    Checks split complementarity at every breakpoint, reshapes u
    column-major to ``shape`` and records its support (flat indices) there.
    """
    out = PathInOriginalCoords(
        termination=path.termination, terminal_lambda=path.terminal_lambda
    )
    for seg in path.segments:
        base, slope = _dense_affine(seg, 2 * d)
        lam = segment_breakpoint(seg)
        x = base + lam * slope
        _check_split_complement(x[:d], x[d:], lam, name)
        u_base = base[:d] - base[d:]
        u_slope = slope[:d] - slope[d:]
        out.segments.append(OriginalSegment(
            seg.lambda_lo, seg.lambda_hi,
            u_base.reshape(shape, order="F"), u_slope.reshape(shape, order="F"),
        ))
        out.supports.append(_support_of(u_base + lam * u_slope))
    return out
