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
basis visited. A <= program is solved as its standard form ``[A | I]``, an
operator that keeps the unit slack columns implicit (``to_standard_form``).
Segments are certified in windows between refactorizations only, and all
numerical trouble has one recovery step, described at ``solve_path``.
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
    SolutionPath,
    Termination,
    to_standard_form,
)
from .errors import (
    InfeasibleAtLargeLambda,
    InfeasibleProblem,
    SingularBasis,
    UnboundedDirection,
    UpdateDegenerate,
)

logger = logging.getLogger(__name__)


def _keep_freed_heap() -> None:
    """Fix glibc's heap thresholds at the ceiling its own adaptation reaches.

    A solve allocates and frees arrays of a few MB (the basis gather and
    its LU, the update chain's block, the products with the constraint
    operator; it forms neither the standard form nor a structured
    constraint matrix). glibc serves those from the heap only once it has
    freed an mmap block as large, and returns the heap top to the system
    whenever twice that is free, so back-to-back solves of mid-sized
    programs page-fault all of their arrays back in, a large and erratic
    share of a short solve. Process-wide; no effect off glibc.
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
# A window is certified in batches of at most this many n-vectors, so the
# batch's temporaries stay cache-sized on programs with many columns.
CERT_BATCH_FLOATS = 1 << 18


@dataclass
class SolveOptions:
    """Knobs for ``solve_path``.

    Attributes:
        lambda_target: stop once lambda_star falls to or below this value.
        max_pivots: hard cap on basis exchanges (IterationCap termination);
            None means 10x the column count of the standard-form program.
        check_certificates: certify every segment a pivot produces, in one
            batch per refactorization window (see ``solve_path``).
        stop_callback: called with each newly emitted segment; returning
            True ends the path early (ReachedTarget). Must be pure: it can
            see segments that a recovery replaces, then the redone ones.
        trace: writable text stream receiving one tab-separated line per
            pivot: pivot#, kind, entering, leaving, lambda_star, t, s,
            written once the pivot's window certifies.
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

    ``program`` is an equality program; ``initialize`` turns a <= program
    into its standard form first. The engine reads the constraint operator
    ``program.A`` only through ``column``, ``columns``, ``times_columns``,
    ``rmatvec`` and ``unit_rows``, so structure such as implicit slack
    columns is the operator's alone.
    """

    def __init__(self, program: ParametricProgram, partition: BasisPartition):
        self.program = program
        if len(partition.basic) != program.m:
            raise ValueError(
                f"basis size {len(partition.basic)} != row count {program.m}"
            )
        self.partition = partition
        # refresh() sets fact, xB_base/pert, zN_base/pert and y_base/pert
        self.lambda_lo = float("-inf")
        self.lambda_hi = float("inf")
        self.refresh()

    def refresh(self) -> None:
        """Rebuild the factorization and all dictionary vectors from scratch."""
        p = self.program
        B = self.partition.basic
        N = self.partition.nonbasic
        unit_rows = p.A.unit_rows(B)
        self.fact = linalg.BasisFactorization(
            p.A.columns(B[unit_rows < 0]), unit_rows)
        self.xB_base = self.fact.solve(p.b)
        self.xB_pert = self.fact.solve(p.b_bar)
        self.y_base = self.fact.solve_transpose(p.c[B])
        self.zN_base = p.A.rmatvec(self.y_base)[N] - p.c[N]
        if np.any(p.c_bar):
            self.y_pert = self.fact.solve_transpose(p.c_bar[B])
            self.zN_pert = p.A.rmatvec(self.y_pert)[N] - p.c_bar[N]
        else:
            self.y_pert = np.zeros(p.m)
            self.zN_pert = np.zeros(len(N))

    def entry(self, lam: float) -> Tuple[PathSegment, np.ndarray]:
        """This dictionary as a window entry certified at ``lam``: a segment
        ending there, and the duals y(lam)."""
        return self.segment(lam, lam), self.y_base + lam * self.y_pert

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
            n_cols=self.program.n,
            primal_indices=self.partition.basic.copy(),
            primal_base=self.xB_base.copy(),
            primal_slope=self.xB_pert.copy(),
            dual_indices=self.partition.nonbasic.copy(),
            dual_base=self.zN_base.copy(),
            dual_slope=self.zN_pert.copy(),
            entering=entering,
            leaving=leaving,
        )


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
    p, _ = to_standard_form(p)
    partition = BasisPartition.from_basic(p.n, basic)
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


def _delta_z(state: DictionaryState, basic_pos: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row of the dictionary matrix: Delta z_N for leaving basic position,
    and the v = B^{-T} e_r it comes from."""
    e = np.zeros(state.program.m)
    e[basic_pos] = 1.0
    v = state.fact.solve_transpose(e)
    return -state.program.A.rmatvec(v)[state.partition.nonbasic], v


def _exchange(
    state: DictionaryState,
    kB: int,
    kN: int,
    a_j: np.ndarray,
    dxB: np.ndarray,
    dzN: np.ndarray,
    v: np.ndarray,
    kind: PivotKind,
    lam_star: float,
) -> PivotEvent:
    """Apply the basis exchange at (basic pos kB) <-> (nonbasic pos kN),
    where ``a_j`` is the entering column, ``dxB = B^{-1} a_j`` and
    ``dzN = -(A' v)_N`` for ``v = B^{-T} e_kB``.

    Step lengths are taken from the tight coordinates; all four dictionary
    vectors are updated in place and the swapped slots receive the step
    lengths themselves (the leaving variable's new reduced cost is (s, s_bar),
    the entering variable's new basic value is (t, t_bar)). The duals move
    with the reduced costs, y += s v (Vanderbei, ch. 6).
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

    # Reuses the solve that gave dxB. May raise UpdateDegenerate; state is
    # untouched in that case.
    state.fact.replace_column(kB, a_j)

    state.xB_base -= t * dxB
    state.xB_base[kB] = t
    state.xB_pert -= t_bar * dxB
    state.xB_pert[kB] = t_bar
    state.zN_base -= s * dzN
    state.zN_base[kN] = s
    state.zN_pert -= s_bar * dzN
    state.zN_pert[kN] = s_bar
    state.y_base += s * v
    if s_bar:  # zero whenever c_bar is
        state.y_pert += s_bar * v

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
    a_j = state.program.A.column(entering)
    dxB = state.fact.solve(a_j)
    xvals = state.xB_base + lam_star * state.xB_pert
    kB = _ratio_pick(dxB, xvals, state.partition.basic)
    if kB is None:
        raise UnboundedDirection(
            f"no blocking basic variable for entering column {entering}: "
            f"program is unbounded below lambda={lam_star:.6g}"
        )
    dzN, v = _delta_z(state, kB)
    return _exchange(state, kB, kN, a_j, dxB, dzN, v, PivotKind.PRIMAL, lam_star)


def dual_pivot(state: DictionaryState, leaving: int, lam_star: float) -> PivotEvent:
    """Drop basic column ``leaving`` from the basis (its value hit zero at
    lam_star).

    The entering variable maximizes Delta z_j / z_j(lam_star) over columns
    with Delta z_j > RATIO_TOL. Raises InfeasibleProblem when none exists.
    """
    kB = state.partition.position(leaving)
    dzN, v = _delta_z(state, kB)
    zvals = state.zN_base + lam_star * state.zN_pert
    kN = _ratio_pick(dzN, zvals, state.partition.nonbasic)
    if kN is None:
        raise InfeasibleProblem(
            f"no entering column for leaving basic variable {leaving}: "
            f"program is infeasible below lambda={lam_star:.6g}"
        )
    a_j = state.program.A.column(state.partition.nonbasic[kN])
    dxB = state.fact.solve(a_j)
    return _exchange(state, kB, kN, a_j, dxB, dzN, v, PivotKind.DUAL, lam_star)


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
    dense = ParametricProgram(p.A.to_dense(), p.b, p.b_bar, p.c, p.c_bar)
    A = dense.A.M
    if basic is not None:
        B = np.asarray(basic, dtype=np.intp)
        y = np.linalg.solve(A[:, B].T, cost[B])
    else:
        y, *_ = np.linalg.lstsq(A.T, z + cost, rcond=None)
    # a window of one, with x and z given on every column
    res, passed, *_ = _residuals(
        dense, np.array([lam]), np.arange(p.n)[None], x[None], z[None], y[None])
    return CertificateReport(lam, *res[0].tolist(), CERT_TOL, bool(passed[0]))


def _residuals(p: ParametricProgram, lams: np.ndarray, S: np.ndarray, xS: np.ndarray,
               zS: np.ndarray, Y: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The residuals of ``verify_certificate`` for W certificates at once.

    Row w is the certificate at ``lams[w]``: x is ``xS[w]`` on the columns
    ``S[w]`` (zero elsewhere), z is ``zS[w]`` there and y is ``Y[w]``. One
    product of A with the union of the S, and one of A' with Y. Returns the
    residual rows (primal, dual, complementarity, gap), the pass flags, the
    rows ``zhat = A' y - c(lam)`` and each ``max |c(lam)|``.
    """
    U = np.flatnonzero(np.bincount(S.ravel(), minlength=p.n))
    pos = np.empty(p.n, dtype=np.intp)
    pos[U] = np.arange(len(U))
    xU = np.zeros((len(U), len(lams)))  # x of certificate w in column w
    xU.ravel()[pos[S] * len(lams) + np.arange(len(lams))[:, None]] = xS
    lam_col = lams[:, None]
    cost = p.c + lam_col * p.c_bar if p.c_bar.any() else p.c[None]
    rhs = p.b + lam_col * p.b_bar
    zhat = np.subtract(p.A.rmatvec(Y.T).T, cost, order="C")
    cost_max = np.abs(cost).max(axis=1, initial=0.0)
    rp = np.maximum(np.abs(p.A.times_columns(U, xU).T - rhs).max(axis=1, initial=0.0),
                    -xS.min(axis=1, initial=0.0))
    rd = -zhat.min(axis=1, initial=0.0) + 0.0  # drop -0.0
    rc = np.abs(xS * zS).max(axis=1, initial=0.0)
    x_max, z_max = (np.abs(v).max(axis=1, initial=0.0) for v in (xS, zS))
    primal_obj = p.c[U] @ xU + lams * (p.c_bar[U] @ xU)
    dual_obj = np.einsum("ij,ij->i", rhs, Y)
    gap = np.abs(primal_obj - dual_obj)
    passed = (
        (rp <= CERT_TOL * (1.0 + np.abs(rhs).max(axis=1, initial=0.0)))
        & (rd <= CERT_TOL * (1.0 + cost_max))
        & (rc <= CERT_TOL * (1.0 + x_max * z_max))
        & (gap <= CERT_TOL * (1.0 + np.abs(primal_obj) + np.abs(dual_obj)))
    )
    return np.stack([rp, rd, rc, gap], axis=1), passed, zhat, cost_max


def _post_pivot_ok(
    p: ParametricProgram, window: Sequence[Tuple[PathSegment, np.ndarray]]
) -> bool:
    """A posteriori optimality check of a window of dictionaries.

    Each entry is a segment, checked at its ``lambda_hi``, and the duals y
    kept there. Nothing here trusts them: ``A_B' y = c_B(lam)`` must hold to
    CERT_TOL, (x, z, y) must pass the residuals of ``verify_certificate``,
    and the segment's reduced costs must agree with ``A_N' y - c_N(lam)``
    (complementarity is structural for dictionary solutions, so this is the
    check that catches accumulated update error in z).
    """
    step = max(1, CERT_BATCH_FLOATS // p.n)
    if len(window) > step:
        return all(_post_pivot_ok(p, window[i:i + step]) for i in range(0, len(window), step))
    segs = [seg for seg, _ in window]
    lams = np.array([seg.lambda_hi for seg in segs])
    lam_col, rows = lams[:, None], np.arange(len(segs))[:, None]

    def stack(field):  # one row per entry
        return np.array([getattr(seg, field) for seg in segs])

    B, N = stack("primal_indices"), stack("dual_indices")
    xB = stack("primal_base") + lam_col * stack("primal_slope")
    # z is zero on each entry's basis, where its x lives
    res, passed, zhat, cost_max = _residuals(
        p, lams, B, xB, np.zeros_like(xB), np.array([y for _, y in window]))
    at = rows * p.n  # row offsets into the flat zhat
    basis_residual = np.abs(np.take(zhat, B + at)).max(axis=1, initial=0.0)
    zhat_n = np.take(zhat, N + at)
    zN = stack("dual_base") + lam_col * stack("dual_slope")
    drift = np.abs(zhat_n - zN).max(axis=1, initial=0.0)
    scale = 1.0 + np.abs(zhat_n).max(axis=1, initial=0.0)
    bad_basis = basis_residual > CERT_TOL * (1.0 + cost_max)
    bad_drift = drift > CERT_TOL * scale
    failed = np.flatnonzero(bad_basis | bad_drift | ~passed)
    for w in failed:
        if bad_basis[w]:
            logger.debug("A_B' y - c_B residual %.3e at lambda=%g", basis_residual[w], lams[w])
        elif not passed[w]:
            logger.debug("certificate failed at lambda=%g: residuals %s", lams[w], res[w])
        else:
            logger.debug("dictionary drift %.3e at lambda=%g", drift[w], lams[w])
    return failed.size == 0


def _pivot_at(state: DictionaryState, tight: TightConstraint, lam_star: float) -> PivotEvent:
    if tight.in_basis:
        return dual_pivot(state, tight.column, lam_star)
    return primal_pivot(state, tight.column, lam_star)


# Pivot failures that end a path, and the status each one reports.
_FAILURE_STATUS = {
    UnboundedDirection: Termination.UNBOUNDED,
    InfeasibleProblem: Termination.INFEASIBLE,
}


def solve_path(
    p: ParametricProgram,
    options: Optional[SolveOptions] = None,
    initial_basis: Optional[Sequence[int]] = None,
    **kwargs,
) -> SolutionPath:
    """Follow the optimal-basis path of ``p`` from large lambda downward.

    The factorization is rebuilt from the basis columns every
    ``linalg.REFRESH_LIMIT`` updates. With certificates on, every segment a
    pivot produces is certified before it is returned: those since the last
    rebuild are checked in one batch at the next one and where the path
    ends, however it ends (``_post_pivot_ok``).

    Numerical trouble has one recovery step: refactorize at segment k,
    dropping the segments and pivots from k on, and emit k again from the
    fresh factorization. A failed window checks its dictionaries alone up
    to the first one failing and redoes the segment before it, the last
    one certified (none failing alone: the window passes). A degenerate
    update, once the window up to it certifies, redoes its own segment. A
    second failure at the same segment ends the path.

    Args:
        p: the parametric program. <= programs are solved as their
            standard form (``to_standard_form``), one unit slack column per
            row after the n structural ones, held implicitly. The returned
            path is expressed in those coordinates and carries
            ``slack_info`` for mapping back.
        options: SolveOptions; keyword arguments override its fields
            (e.g. ``solve_path(p, lambda_target=1.5)``).
        initial_basis: basic column indices (standard-form numbering).
            Required for equality programs; defaults to the slack basis for
            <= programs.

    Returns:
        SolutionPath with one segment per dictionary visited (highest lambda
        first) and one PivotEvent per basis exchange. A breakpoint within
        FEAS_TOL * (1 + first breakpoint) of zero ends the path with
        LAMBDA_NONPOSITIVE. NUMERICAL_FAILURE means a pivot failed again
        after refactorization, or a later refactorization found its basis
        singular; the path ends with its last certified segment. A path
        ended by a failed pivot or refactorization keeps the reason in
        ``termination_detail``.

    Raises:
        ValueError: lambda_target is NaN or max_pivots is negative.
        InfeasibleAtLargeLambda: the starting basis is never optimal.
        SingularBasis: the starting basis cannot be factorized.
    """
    opts = options or SolveOptions()
    if kwargs:
        opts = SolveOptions(**{**opts.__dict__, **kwargs})
    if np.isnan(opts.lambda_target):
        raise ValueError("lambda_target is NaN")
    if opts.max_pivots is not None and opts.max_pivots < 0:
        raise ValueError(f"max_pivots must be >= 0, got {opts.max_pivots}")

    std, slack_info = to_standard_form(p)
    if initial_basis is not None:
        basic = list(initial_basis)
    elif p.kind is ProgramKind.LESS_EQUAL:
        basic = list(range(p.n, std.n))
    else:
        raise ValueError("equality programs need an initial_basis")

    state = initialize(std, basic)
    max_pivots = opts.max_pivots if opts.max_pivots is not None else 10 * std.n
    path = SolutionPath(num_cols=std.n, slack_info=slack_info)
    lam_hi = state.lambda_hi
    # For Dantzig the first breakpoint is ||X'y||_inf, the scale of lambda.
    first = state.lambda_lo
    zero_tol = FEAS_TOL * (1.0 + (abs(first) if np.isfinite(first) else 0.0))
    entering: Optional[int] = None
    leaving: Optional[int] = None
    # The window: path.segments[start:], from a fresh factorization on.
    start, duals, traced = 0, [], 0
    # The segment last redone, and its breakpoint before the redo.
    retried, was = -1, 0.0

    while True:
        k = len(path.segments)
        lam_star, tight = compute_lambda_star(state)
        vanished = tight is None and k == retried
        if vanished:  # the path ends at the breakpoint as first found
            lam_star = was
        seg = state.segment(lam_star, lam_hi, entering, leaving)
        path.segments.append(seg)
        nonpositive = lam_star <= zero_tol

        reached = lam_star <= opts.lambda_target and (
            opts.lambda_target > 0.0 or not nonpositive
        )
        end: Optional[Tuple[Termination, float, str]] = None
        # Set when the pivot out of segment ``redo`` failed: the segment to
        # refactorize at, and the reason should it fail there again.
        redo, failed = None, ""
        if vanished:
            end = (Termination.NUMERICAL_FAILURE, lam_star, "breakpoint vanished "
                   f"after refactorization (was lambda*={was:.6g})")
        elif tight is None or reached:  # tight is None: optimal all the way down
            end = (Termination.REACHED_TARGET, opts.lambda_target, "")
        elif nonpositive:
            end = (Termination.LAMBDA_NONPOSITIVE, max(lam_star, 0.0) + 0.0, "")  # drop -0.0
        elif opts.stop_callback is not None and opts.stop_callback(seg):
            end = (Termination.REACHED_TARGET, lam_star, "")
        elif len(path.events) >= max_pivots:
            end = (Termination.ITERATION_CAP, lam_star, "")
        else:
            try:
                event = _pivot_at(state, tight, lam_star)
            except UpdateDegenerate as exc:
                redo, failed = k, f"degenerate update on retry: {exc}"
            except tuple(_FAILURE_STATUS) as exc:
                end = (_FAILURE_STATUS[type(exc)], lam_star, str(exc))
            else:
                path.events.append(event)
                entering, leaving, lam_hi = event.entering, event.leaving, lam_star
                if opts.check_certificates:
                    duals.append(state.y_base + lam_star * state.y_pert)
        refresh = not (end or failed) and (
            state.fact.updates_since_refactor >= linalg.REFRESH_LIMIT)

        if opts.check_certificates and (end or refresh or failed):
            # the segment of the last pivot is not emitted before a refresh
            window = list(zip(path.segments[start + 1:], duals))
            if refresh:
                window.append(state.entry(lam_star))
            if window and not _post_pivot_ok(state.program, window):
                # each entry alone up to the first failing one (None: all pass)
                w = next((w for w, entry in enumerate(window) if len(window) == 1
                          or not _post_pivot_ok(state.program, [entry])), None)
                if w is not None:
                    redo, refresh = start + w, False
                    failed = ("certificate still failing after refactorization "
                              f"at lambda*={path.segments[redo].lambda_lo:.6g}")
        if redo is not None:
            head = path.segments[redo]
            del path.segments[redo + 1:], path.events[redo:]
            if redo == retried:
                end, redo = (Termination.NUMERICAL_FAILURE, head.lambda_lo, failed), None
            else:
                logger.info("pivot at lambda*=%.9g failed; refactorizing there", head.lambda_lo)
                retried, was = redo, head.lambda_lo
                state.partition = BasisPartition(
                    std.n, head.primal_indices.copy(), head.dual_indices.copy())
                lam_hi, entering, leaving = head.lambda_hi, head.entering, head.leaving
        if redo is not None or refresh:
            try:
                state.refresh()
            except SingularBasis as exc:
                # the path ends with its last segment, without the pivot out of it
                del path.events[len(path.segments) - 1:]
                lam = path.segments[-1].lambda_lo
                end = (Termination.NUMERICAL_FAILURE, lam,
                       f"refactorization failed at lambda*={lam:.6g}: {exc}")
            else:
                if redo is not None:
                    path.segments.pop()  # emitted again from the fresh factorization
                    start, duals = redo, []
                    continue
                start, duals = k + 1, []
        if opts.trace is not None and (end or refresh or not opts.check_certificates):
            for pivot, ev in enumerate(path.events[traced:], start=traced + 1):
                opts.trace.write(
                    f"{pivot}\t{ev.kind.value}\t{ev.entering}\t{ev.leaving}"
                    f"\t{ev.lambda_star:.12g}\t{ev.t:.6g}\t{ev.s:.6g}\n")
            traced = len(path.events)
        if end:
            path.termination, path.terminal_lambda, path.termination_detail = end
            break

    return path
