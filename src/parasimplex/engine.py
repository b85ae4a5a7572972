"""Path-following engine: track an optimal basis while lambda decreases.

For a parametric program (equality kind)

    maximize (c + lam c_bar)' x   s.t.   A x = b + lam b_bar,  x >= 0

a basis B induces the dictionary quantities

    x*_B = A_B^{-1} b          x~_B = A_B^{-1} b_bar
    z*_N = (A_B^{-1} A_N)' c_B - c_N
    z~_N = (A_B^{-1} A_N)' c_bar_B - c_bar_N

and the dictionary is optimal exactly for lam in [lambda_star, lambda_max]
where both x_B(lam) = x*_B + lam x~_B and z_N(lam) = z*_N + lam z~_N are
nonnegative. ``solve_path`` starts from a basis that is optimal for all large
lam, repeatedly computes the next breakpoint lambda_star, performs the pivot
that restores optimality just below it, and emits one affine path segment per
basis visited. A <= program is solved as its standard form ``[A | I]`` with
the unit slack columns left implicit (see ``DictionaryState``).
"""

from __future__ import annotations

import ctypes
import logging
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TextIO, Tuple

import numpy as np

from . import linalg
from .core import (
    BasisPartition,
    ParametricProgram,
    PathSegment,
    PivotEvent,
    PivotKind,
    ProgramKind,
    SlackInfo,
    SolutionPath,
    Termination,
)
from .errors import (
    InfeasibleAtLargeLambda,
    InfeasibleProblem,
    NumericalFailure,
    UnboundedDirection,
    UpdateDegenerate,
)

logger = logging.getLogger(__name__)


def _keep_freed_heap() -> None:
    """Fix glibc's heap thresholds at the ceiling its own adaptation reaches.

    A build and solve allocate and free arrays of a few MB (the program's
    constraint matrix, the basis gather and LU; the solve forms no standard
    form). glibc serves those from the heap only once it has freed an
    mmap block as large, and returns the heap top to the system whenever
    twice that is free, so back-to-back solves of mid-sized programs
    page-fault all of their arrays back in, a large and erratic share of a
    short solve. Process-wide; no effect off glibc.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's dynamic maximum
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice that, as glibc sets it


_keep_freed_heap()

# Sign tolerance for feasibility of base/perturbation entries; a breakpoint
# within FEAS_TOL * (1 + first breakpoint) of zero counts as lambda = 0.
FEAS_TOL = 1e-9
# Smallest denominator admitted to a ratio test.
RATIO_TOL = 1e-9
# Certificate residuals must stay below CERT_TOL * (1 + scale).
CERT_TOL = 1e-7
# Relative slack when comparing candidate breakpoints and ratio-test ties.
BREAKPOINT_RTOL = 1e-12
# A' y reads only the rows of A where y is nonzero when they are at most this
# share of all rows; gathering rows costs 3-5x a plain A' y per row read.
SPARSE_ROWS_FRAC = 0.2


@dataclass
class SolveOptions:
    """Knobs for ``solve_path``.

    Attributes:
        lambda_target: stop once lambda_star falls to or below this value.
        max_pivots: hard cap on basis exchanges (IterationCap termination);
            None means 10x the column count of the standard-form program.
        check_certificates: verify an optimality certificate after every
            pivot (with one refactorize-and-retry on failure).
        stop_callback: called with each newly emitted segment; returning
            True ends the path early (ReachedTarget).
        trace: writable text stream receiving one tab-separated line per
            pivot: pivot#, kind, entering, leaving, lambda_star, t, s.
    """

    lambda_target: float = 0.0
    max_pivots: Optional[int] = None
    check_certificates: bool = True
    stop_callback: Optional[Callable[[PathSegment], bool]] = None
    trace: Optional[TextIO] = None


@dataclass(frozen=True)
class TightConstraint:
    """The coordinate whose sign constraint becomes active at lambda_star."""

    column: int
    in_basis: bool  # True: basic x-entry tight; False: nonbasic z-entry tight


@dataclass
class CertificateReport:
    """Residuals of an optimality certificate at a fixed lambda."""

    lambda_value: float
    primal_residual: float
    dual_residual: float
    complementarity: float
    duality_gap: float
    tolerance: float
    passed: bool


class DictionaryState:
    """Mutable solver state: partition, factorization, dictionary vectors.

    The state works in standard-form numbering. A <= program's slack column
    ``n + i`` is the unit vector e_i; it is never stored, and ``slack``
    records the layout (None for an equality program). Apart from the
    structural basic columns that ``refresh`` hands to the factorization,
    the engine reads the constraint matrix only through ``column``,
    ``rmatvec`` and ``basic_times``, so slack columns are handled there
    alone.
    """

    def __init__(self, program: ParametricProgram, partition: BasisPartition):
        self.program = program
        self.num_cols = _num_cols(program)
        self.slack: Optional[SlackInfo] = (
            SlackInfo(original_n=program.n, num_rows=program.m)
            if self.num_cols > program.n else None
        )
        pad = np.zeros(self.num_cols - program.n)
        self.c = np.concatenate([program.c, pad])
        self.c_bar = np.concatenate([program.c_bar, pad])
        if len(partition.basic) != program.m:
            raise ValueError(
                f"basis size {len(partition.basic)} != row count {program.m}"
            )
        self.partition = partition
        # refresh() sets fact, xB_base, xB_pert, zN_base and zN_pert
        self.lambda_lo = float("-inf")
        self.lambda_hi = float("inf")
        self.refresh()

    def column(self, j: int) -> np.ndarray:
        """Standard-form column j: ``A[:, j]``, or e_i for slack ``n + i``."""
        n = self.program.n
        if j < n:
            return self.program.A[:, j]
        e = np.zeros(self.program.m)
        e[j - n] = 1.0
        return e

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Standard-form ``[A | I]' y = [A' y ; y]`` (just ``A' y`` without
        slacks)."""
        aty = _transpose_times(self.program.A, y)
        return aty if self.slack is None else np.concatenate([aty, y])

    def basic_times(self, xB: np.ndarray) -> np.ndarray:
        """``[A | I] x`` for x zero off the basis, with basic values ``xB``:
        ``A[:, S] x_S`` plus each basic slack value on its own row, O(mk)."""
        B = self.partition.basic
        n = self.program.n
        structural = B < n
        ax = self.program.A[:, B[structural]] @ xB[structural]
        ax[B[~structural] - n] += xB[~structural]
        return ax

    def refresh(self) -> None:
        """Rebuild the factorization and all dictionary vectors from scratch."""
        p = self.program
        B = self.partition.basic
        N = self.partition.nonbasic
        slack_rows = np.where(B >= p.n, B - p.n, -1)
        self.fact = linalg.BasisFactorization(p.A[:, B[slack_rows < 0]], slack_rows)
        self.xB_base = self.fact.solve(p.b)
        self.xB_pert = self.fact.solve(p.b_bar)
        y = self.fact.solve_transpose(self.c[B])
        self.zN_base = self.rmatvec(y)[N] - self.c[N]
        if np.any(self.c_bar):
            y_bar = self.fact.solve_transpose(self.c_bar[B])
            self.zN_pert = self.rmatvec(y_bar)[N] - self.c_bar[N]
        else:
            self.zN_pert = np.zeros(len(N))

    def segment(
        self,
        lambda_lo: float,
        lambda_hi: float,
        entering: Optional[int] = None,
        leaving: Optional[int] = None,
    ) -> PathSegment:
        return PathSegment(
            lambda_lo=lambda_lo,
            lambda_hi=lambda_hi,
            n_cols=self.num_cols,
            primal_indices=self.partition.basic.copy(),
            primal_base=self.xB_base.copy(),
            primal_slope=self.xB_pert.copy(),
            dual_indices=self.partition.nonbasic.copy(),
            dual_base=self.zN_base.copy(),
            dual_slope=self.zN_pert.copy(),
            entering=entering,
            leaving=leaving,
        )


def _num_cols(p: ParametricProgram) -> int:
    """Column count of the standard form: n, plus one slack per <= row."""
    return p.n + (p.m if p.kind is ProgramKind.LESS_EQUAL else 0)


def _transpose_times(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``A' y``, reading only the rows of A in the support of y when that
    support is small. Basis solves leave y zero on every slack row the
    update chain has not touched."""
    rows = np.flatnonzero(y)
    if rows.size > SPARSE_ROWS_FRAC * len(y):
        return A.T @ y
    return y[rows] @ A[rows]


def initialize(p: ParametricProgram, basic: Sequence[int]) -> DictionaryState:
    """Build a DictionaryState and verify it is optimal for large lambda.

    ``basic`` is in standard-form numbering: slack ``n + i`` of a <= program
    is the unit column of row i.

    Raises:
        SingularBasis: the chosen basis matrix cannot be factorized.
        InfeasibleAtLargeLambda: no lambda makes this dictionary optimal —
            some entry has a (near-)zero perturbation with a negative base,
            or the window [lambda_star, lambda_max] is empty.
    """
    partition = BasisPartition.from_basic(_num_cols(p), basic)
    state = DictionaryState(p, partition)

    for base, pert, what in (
        (state.xB_base, state.xB_pert, "basic value"),
        (state.zN_base, state.zN_pert, "reduced cost"),
    ):
        dead = (np.abs(pert) <= RATIO_TOL) & (base < -FEAS_TOL)
        if np.any(dead):
            k = int(np.flatnonzero(dead)[0])
            raise InfeasibleAtLargeLambda(
                f"{what} at slot {k} is negative ({base[k]:.3e}) with no "
                "perturbation to repair it"
            )

    lam_star, _ = compute_lambda_star(state)
    lam_max = compute_lambda_max(state)
    if lam_star > lam_max + FEAS_TOL * (1.0 + abs(lam_max)):
        raise InfeasibleAtLargeLambda(
            f"empty optimality window: lambda_star={lam_star:.6g} exceeds "
            f"lambda_max={lam_max:.6g}"
        )
    state.lambda_lo = lam_star
    state.lambda_hi = lam_max
    return state


def compute_lambda_star(
    state: DictionaryState,
) -> Tuple[float, Optional[TightConstraint]]:
    """Smallest lambda for which the current dictionary stays optimal.

    Scans ``-base/pert`` over entries with positive perturbation in both the
    reduced-cost and basic-value families; the largest such ratio is the next
    breakpoint. Returns (-inf, None) when no entry constrains the dictionary
    from below. Within a family ties break toward the smaller column index;
    across families the nonbasic (reduced-cost) candidate wins ties.
    """
    best_lam = float("-inf")
    best: Optional[TightConstraint] = None

    for base, pert, cols, in_basis in (
        (state.zN_base, state.zN_pert, state.partition.nonbasic, False),
        (state.xB_base, state.xB_pert, state.partition.basic, True),
    ):
        mask = pert > RATIO_TOL
        if not np.any(mask):
            continue
        idx = np.flatnonzero(mask)
        top, pos = _largest_ratio(-base[idx] / pert[idx], idx, cols)
        # the nonbasic family is scanned first, so it keeps cross-family ties
        if top > best_lam + BREAKPOINT_RTOL * (1.0 + abs(top)):
            best_lam = top
            best = TightConstraint(column=int(cols[pos]), in_basis=in_basis)
    return best_lam, best


def compute_lambda_max(state: DictionaryState) -> float:
    """Largest lambda for which the current dictionary stays optimal (+inf
    when nothing constrains it from above)."""
    best = float("inf")
    for base, pert in (
        (state.zN_base, state.zN_pert),
        (state.xB_base, state.xB_pert),
    ):
        mask = pert < -RATIO_TOL
        if np.any(mask):
            best = min(best, float((-base[mask] / pert[mask]).min()))
    return best


def _largest_ratio(
    ratios: np.ndarray, idx: np.ndarray, cols: np.ndarray
) -> Tuple[float, int]:
    """The largest of ``ratios`` (taken at positions ``idx``) and the
    position it belongs to; ratios within BREAKPOINT_RTOL of it tie, and
    ties go to the smallest column index ``cols[pos]``."""
    top = float(ratios.max())
    tie = idx[ratios >= top - BREAKPOINT_RTOL * (1.0 + abs(top))]
    return top, int(tie[np.argmin(cols[tie])])


def _ratio_pick(
    deltas: np.ndarray, values_at_lam: np.ndarray, cols: np.ndarray
) -> Optional[int]:
    """Position maximizing delta / value among positive deltas.

    Values below FEAS_TOL (degenerate, possibly tiny-negative from roundoff)
    count as an infinite ratio and win outright. Ties break toward the
    smallest column index. Returns None when no delta exceeds RATIO_TOL.
    """
    cand = np.flatnonzero(deltas > RATIO_TOL)
    if cand.size == 0:
        return None
    vals = values_at_lam[cand]
    degenerate = cand[vals < FEAS_TOL]
    if degenerate.size:
        return int(degenerate[np.argmin(cols[degenerate])])
    return _largest_ratio(deltas[cand] / vals, cand, cols)[1]


def _delta_z(state: DictionaryState, basic_pos: int) -> np.ndarray:
    """Row of the dictionary matrix: Delta z_N for leaving basic position."""
    e = np.zeros(state.program.m)
    e[basic_pos] = 1.0
    v = state.fact.solve_transpose(e)
    return -state.rmatvec(v)[state.partition.nonbasic]


def _exchange(
    state: DictionaryState,
    kB: int,
    kN: int,
    a_j: np.ndarray,
    dxB: np.ndarray,
    dzN: np.ndarray,
    kind: PivotKind,
    lam_star: float,
) -> PivotEvent:
    """Apply the basis exchange at (basic pos kB) <-> (nonbasic pos kN),
    where ``a_j`` is the entering column and ``dxB = B^{-1} a_j``.

    Step lengths are taken from the tight coordinates; all four dictionary
    vectors are updated in place and the swapped slots receive the step
    lengths themselves (the leaving variable's new reduced cost is (s, s_bar),
    the entering variable's new basic value is (t, t_bar)).
    """
    part = state.partition
    i = int(part.basic[kB])
    j = int(part.nonbasic[kN])
    dx_i = dxB[kB]
    dz_j = dzN[kN]

    t = state.xB_base[kB] / dx_i
    t_bar = state.xB_pert[kB] / dx_i
    s = state.zN_base[kN] / dz_j
    s_bar = state.zN_pert[kN] / dz_j

    # May raise UpdateDegenerate; state is untouched in that case.
    state.fact.replace_column(kB, a_j)

    state.xB_base -= t * dxB
    state.xB_base[kB] = t
    state.xB_pert -= t_bar * dxB
    state.xB_pert[kB] = t_bar
    state.zN_base -= s * dzN
    state.zN_base[kN] = s
    state.zN_pert -= s_bar * dzN
    state.zN_pert[kN] = s_bar

    part.swap(kB, kN)
    return PivotEvent(
        kind=kind,
        entering=j,
        leaving=i,
        lambda_star=lam_star,
        t=float(t),
        t_bar=float(t_bar),
        s=float(s),
        s_bar=float(s_bar),
    )


def primal_pivot(state: DictionaryState, entering: int, lam_star: float) -> PivotEvent:
    """Bring nonbasic column ``entering`` into the basis (its reduced cost
    hit zero at lam_star).

    The leaving variable maximizes Delta x_i / x_i(lam_star) over rows with
    Delta x_i > RATIO_TOL. Raises UnboundedDirection when no row blocks.
    """
    kN = state.partition.position(entering)
    a_j = state.column(entering)
    dxB = state.fact.solve(a_j)
    xvals = state.xB_base + lam_star * state.xB_pert
    kB = _ratio_pick(dxB, xvals, state.partition.basic)
    if kB is None:
        raise UnboundedDirection(
            f"no blocking basic variable for entering column {entering}: "
            f"program is unbounded below lambda={lam_star:.6g}"
        )
    dzN = _delta_z(state, kB)
    return _exchange(state, kB, kN, a_j, dxB, dzN, PivotKind.PRIMAL, lam_star)


def dual_pivot(state: DictionaryState, leaving: int, lam_star: float) -> PivotEvent:
    """Drop basic column ``leaving`` from the basis (its value hit zero at
    lam_star).

    The entering variable maximizes Delta z_j / z_j(lam_star) over columns
    with Delta z_j > RATIO_TOL. Raises InfeasibleProblem when none exists.
    """
    kB = state.partition.position(leaving)
    dzN = _delta_z(state, kB)
    zvals = state.zN_base + lam_star * state.zN_pert
    kN = _ratio_pick(dzN, zvals, state.partition.nonbasic)
    if kN is None:
        raise InfeasibleProblem(
            f"no entering column for leaving basic variable {leaving}: "
            f"program is infeasible below lambda={lam_star:.6g}"
        )
    a_j = state.column(state.partition.nonbasic[kN])
    dxB = state.fact.solve(a_j)
    return _exchange(state, kB, kN, a_j, dxB, dzN, PivotKind.DUAL, lam_star)


def verify_certificate(
    p: ParametricProgram,
    x: np.ndarray,
    z: np.ndarray,
    lam: float,
    basic: Optional[Sequence[int]] = None,
) -> CertificateReport:
    """Check that (x, z) certify optimality of the LP at a fixed lambda.

    Dual multipliers y are recovered from the basis when ``basic`` is given
    (y = A_B^{-T} c_B(lam)), otherwise by least squares on A' y = z + c(lam);
    reduced costs are then recomputed from scratch, so drift in the caller's
    z does not mask dual infeasibility. Residuals:

        primal_residual:  ||A x - b(lam)||_inf, plus any negative x entry
        dual_residual:    max(0, -min_j zhat_j)
        complementarity:  max_j |x_j * z_j|
        duality_gap:      |c(lam)' x - b(lam)' y|

    Each must be <= CERT_TOL * (1 + scale of the quantities involved).
    """
    if p.kind is not ProgramKind.EQUALITY:
        raise ValueError("certificates are checked on equality-kind programs")
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    cost = p.cost(lam)
    if basic is not None:
        B = np.asarray(basic, dtype=np.intp)
        y = np.linalg.solve(p.A[:, B].T, cost[B])
    else:
        y, *_ = np.linalg.lstsq(p.A.T, z + cost, rcond=None)
    return _certificate_residuals(
        x, z, y, p.A @ x, _transpose_times(p.A, y), cost, p.rhs(lam), lam
    )[0]


def _certificate_residuals(
    x: np.ndarray,
    z: np.ndarray,
    y: np.ndarray,
    ax: np.ndarray,
    aty: np.ndarray,
    cost: np.ndarray,
    rhs: np.ndarray,
    lam: float,
) -> Tuple[CertificateReport, np.ndarray]:
    """The residuals of ``verify_certificate`` for given multipliers y and
    the products ``ax = A x`` and ``aty = A' y``, plus the recomputed
    reduced costs ``zhat = A' y - c(lam)``."""
    zhat = aty - cost

    rp = max(
        float(np.abs(ax - rhs).max()),
        float(max(0.0, -x.min(initial=0.0))),
    )
    rd = float(max(0.0, -zhat.min(initial=0.0)))
    rc = float(np.abs(x * z).max(initial=0.0))
    primal_obj = float(cost @ x)
    dual_obj = float(rhs @ y)
    gap = abs(primal_obj - dual_obj)

    ok = (
        rp <= CERT_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0)))
        and rd <= CERT_TOL * (1.0 + float(np.abs(cost).max(initial=0.0)))
        and rc <= CERT_TOL * (1.0 + float(np.abs(x).max(initial=0.0)) * float(np.abs(z).max(initial=0.0)))
        and gap <= CERT_TOL * (1.0 + abs(primal_obj) + abs(dual_obj))
    )
    report = CertificateReport(
        lambda_value=lam,
        primal_residual=rp,
        dual_residual=rd,
        complementarity=rc,
        duality_gap=gap,
        tolerance=CERT_TOL,
        passed=ok,
    )
    return report, zhat


def _post_pivot_ok(state: DictionaryState, lam: float) -> bool:
    """A posteriori optimality check of the dictionary at ``lam``.

    y comes from the maintained factorization, so nothing here trusts it:
    ``A_B' y = c_B(lam)`` must hold to CERT_TOL, (x, z, y) must pass the
    residuals of ``verify_certificate``, and the maintained reduced costs
    must agree with ``A_N' y - c_N(lam)`` (complementarity is structural for
    dictionary solutions, so this is the check that catches accumulated
    update error in z). ``A x`` is formed from the basic columns alone,
    O(mk); ``A' y`` is the one product with all of A.
    """
    B = state.partition.basic
    N = state.partition.nonbasic
    cost = state.c + lam * state.c_bar
    y = state.fact.solve_transpose(cost[B])
    xB = state.xB_base + lam * state.xB_pert
    zN = state.zN_base + lam * state.zN_pert
    x = np.zeros(state.num_cols)
    x[B] = xB
    z = np.zeros(state.num_cols)
    z[N] = zN
    report, zhat = _certificate_residuals(
        x, z, y, state.basic_times(xB), state.rmatvec(y), cost,
        state.program.rhs(lam), lam,
    )
    basis_residual = float(np.abs(zhat[B]).max(initial=0.0))
    if basis_residual > CERT_TOL * (1.0 + float(np.abs(cost).max(initial=0.0))):
        logger.debug("A_B' y - c_B residual %.3e at lambda=%g", basis_residual, lam)
        return False
    if not report.passed:
        logger.debug("certificate failed at lambda=%g: %s", lam, report)
        return False
    zhat_n = zhat[N]
    scale = 1.0 + float(np.abs(zhat_n).max(initial=0.0))
    drift = float(np.abs(zhat_n - zN).max(initial=0.0))
    if drift > CERT_TOL * scale:
        logger.debug("dictionary drift %.3e at lambda=%g", drift, lam)
        return False
    return True


def _pivot_at(state: DictionaryState, tight: TightConstraint, lam_star: float) -> PivotEvent:
    if tight.in_basis:
        return dual_pivot(state, tight.column, lam_star)
    return primal_pivot(state, tight.column, lam_star)


# Pivot failures that end a path, and the status each one reports.
_FAILURE_STATUS = {
    UnboundedDirection: Termination.UNBOUNDED,
    InfeasibleProblem: Termination.INFEASIBLE,
    NumericalFailure: Termination.NUMERICAL_FAILURE,
}


def solve_path(
    p: ParametricProgram,
    options: Optional[SolveOptions] = None,
    initial_basis: Optional[Sequence[int]] = None,
    **kwargs,
) -> SolutionPath:
    """Follow the optimal-basis path of ``p`` from large lambda downward.

    The factorization is rebuilt from the basis columns every
    ``linalg.REFRESH_LIMIT`` updates, and whenever a post-pivot check fails.

    Args:
        p: the parametric program. <= programs are solved in standard-form
            coordinates, one unit slack column per row after the n
            structural ones; the slacks stay implicit (``[A | I]`` is never
            formed). The returned path is expressed in those coordinates and
            carries ``slack_info`` for mapping back.
        options: SolveOptions; keyword arguments override its fields
            (e.g. ``solve_path(p, lambda_target=1.5)``).
        initial_basis: basic column indices (standard-form numbering).
            Required for equality programs; defaults to the slack basis for
            <= programs.

    Returns:
        SolutionPath with one segment per dictionary visited (highest lambda
        first) and one PivotEvent per basis exchange. A breakpoint within
        FEAS_TOL * (1 + first breakpoint) of zero ends the path with
        LAMBDA_NONPOSITIVE. A path ended by an unbounded, infeasible or
        numerically failed pivot keeps that error's message in
        ``termination_detail``.

    Raises:
        ValueError: lambda_target is NaN or max_pivots is negative.
        InfeasibleAtLargeLambda: the starting basis is never optimal.
        SingularBasis: the starting basis cannot be factorized.
        NumericalFailure is *not* raised: it is reported as a termination
        status after the refactorize-and-retry protocol fails.
    """
    opts = options or SolveOptions()
    if kwargs:
        opts = SolveOptions(**{**opts.__dict__, **kwargs})
    if np.isnan(opts.lambda_target):
        raise ValueError("lambda_target is NaN")
    if opts.max_pivots is not None and opts.max_pivots < 0:
        raise ValueError(f"max_pivots must be >= 0, got {opts.max_pivots}")

    if initial_basis is not None:
        basic = list(initial_basis)
    elif p.kind is ProgramKind.LESS_EQUAL:
        basic = list(range(p.n, p.n + p.m))
    else:
        raise ValueError("equality programs need an initial_basis")

    state = initialize(p, basic)
    max_pivots = opts.max_pivots if opts.max_pivots is not None else 10 * state.num_cols
    path = SolutionPath(num_cols=state.num_cols, slack_info=state.slack)
    lam_hi = state.lambda_hi
    # For Dantzig the first breakpoint is ||X'y||_inf, the scale of lambda.
    first = state.lambda_lo
    zero_tol = FEAS_TOL * (1.0 + (abs(first) if np.isfinite(first) else 0.0))
    entering: Optional[int] = None
    leaving: Optional[int] = None
    pivots = 0

    while True:
        lam_star, tight = compute_lambda_star(state)
        seg = state.segment(lam_star, lam_hi, entering, leaving)
        path.segments.append(seg)
        nonpositive = lam_star <= zero_tol

        reached = lam_star <= opts.lambda_target and (
            opts.lambda_target > 0.0 or not nonpositive
        )
        if tight is None or reached:  # tight is None: optimal all the way down
            path.termination = Termination.REACHED_TARGET
            path.terminal_lambda = opts.lambda_target
            break
        if nonpositive:
            path.termination = Termination.LAMBDA_NONPOSITIVE
            path.terminal_lambda = max(lam_star, 0.0) + 0.0  # drop -0.0
            break
        if opts.stop_callback is not None and opts.stop_callback(seg):
            path.termination = Termination.REACHED_TARGET
            path.terminal_lambda = lam_star
            break
        if pivots >= max_pivots:
            path.termination = Termination.ITERATION_CAP
            path.terminal_lambda = lam_star
            break

        try:
            event = _checked_pivot(state, tight, lam_star, opts)
        except tuple(_FAILURE_STATUS) as exc:
            path.termination = _FAILURE_STATUS[type(exc)]
            path.termination_detail = str(exc)
            path.terminal_lambda = lam_star
            break

        pivots += 1
        path.events.append(event)
        entering, leaving = event.entering, event.leaving
        if opts.trace is not None:
            opts.trace.write(
                f"{pivots}\t{event.kind.value}\t{event.entering}\t{event.leaving}"
                f"\t{event.lambda_star:.12g}\t{event.t:.6g}\t{event.s:.6g}\n"
            )
        if state.fact.updates_since_refactor >= linalg.REFRESH_LIMIT:
            state.refresh()
        lam_hi = lam_star

    return path


def _checked_pivot(
    state: DictionaryState,
    tight: TightConstraint,
    lam_star: float,
    opts: SolveOptions,
) -> PivotEvent:
    """One pivot with the certificate/retry protocol.

    On a failed post-pivot check the exchange is undone in the partition (a
    degenerate update fails before it); then everything is refactorized
    from scratch, the breakpoint is recomputed, and the pivot is retried
    once. A second failure is a NumericalFailure.
    """
    for retry in (False, True):
        try:
            event = _pivot_at(state, tight, lam_star)
        except UpdateDegenerate as exc:
            if retry:
                raise NumericalFailure(f"degenerate update on retry: {exc}") from exc
        else:
            if not opts.check_certificates or _post_pivot_ok(state, lam_star):
                return event
            if retry:
                raise NumericalFailure(
                    f"certificate still failing after refactorization at "
                    f"lambda*={lam_star:.6g}"
                )
            part = state.partition
            part.swap(part.position(event.entering), part.position(event.leaving))
        state.refresh()
        lam2, tight = compute_lambda_star(state)
        if tight is None:
            raise NumericalFailure(
                "breakpoint vanished after refactorization (was "
                f"lambda*={lam_star:.6g})"
            )
        logger.info(
            "retrying pivot after refactorization: lambda*=%.9g -> %.9g",
            lam_star, lam2,
        )
        lam_star = lam2
