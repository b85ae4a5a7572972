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

Every segment goes into the path as a ``CompactSegment`` as soon as nothing
reads it dense, and ``_replay`` rebuilds its dictionary on demand from its
window's first partition.
"""

from __future__ import annotations

import ctypes
import logging
import mmap
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .core import (
    BasisPartition,
    CompactSegment,
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
# A window is certified in batches of max(1, CERT_BATCH_FLOATS // n) entries
# (n columns), so a batch's stacked arrays hold about this many floats (a
# refresh's check adds the dictionary it replaces). This bounds a check's
# memory, not its speed: past its fixed cost, its time per entry is flat.
CERT_BATCH_FLOATS = 1 << 18


@dataclass
class SolveOptions:
    """Knobs for ``solve_path``.

    Attributes:
        lambda_target: stop once lambda_star falls to or below this value.
        max_pivots: hard cap on basis exchanges (IterationCap termination);
            None means 10x the column count of the standard-form program.
        check_certificates: certify every segment a pivot produces, in
            batches of ``max(1, CERT_BATCH_FLOATS // n)`` checked as they
            fill, plus at a refresh the dictionary it replaces (see
            ``solve_path``).
        stop_callback: called with each newly emitted segment; returning
            True ends the path early (ReachedTarget). Must be pure: it can
            see segments that a recovery replaces, then the redone ones.

    A solve's pivots are read from the returned path's ``events``; the
    CLI's per-pivot lines are printed from there once the solve returns.
    """

    lambda_target: float = 0.0
    max_pivots: Optional[int] = None
    check_certificates: bool = True
    stop_callback: Optional[Callable[[PathSegment], bool]] = None


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
    columns is the operator's alone. ``initialize`` leaves the breakpoint it
    priced in ``lambda_lo`` and ``tight``.
    """

    def __init__(self, program: ParametricProgram, partition: BasisPartition):
        self.program = program
        if len(partition.basic) != program.m:
            raise ValueError(f"basis size {len(partition.basic)} != row count {program.m}")
        self.partition = partition
        # False when c_bar = 0: then zN_pert stays +-0 and z_N(lam) is zN_base
        self.zN_moves = bool(program.c_bar.any())
        # refresh() sets fact, xB_base/pert, zN_base/pert and y_base/pert;
        # pivots move y only while _duals_kept (cleared where nothing reads y)
        self._duals_kept = True
        self.lambda_lo, self.lambda_hi = float("-inf"), float("inf")
        self.tight: Optional[TightConstraint] = None
        self.refresh()

    def refresh(self) -> None:
        """Rebuild the factorization and all dictionary vectors from scratch."""
        p, B = self.program, self.partition.basic
        unit_rows = p.A.unit_rows(B)
        S = B[unit_rows < 0]  # none in a slack basis
        self.fact = linalg.BasisFactorization(
            p.A.columns(S) if len(S) else np.empty((p.m, 0)), unit_rows)
        self.xB_base = self.fact.solve(p.b)
        self.xB_pert = self.fact.solve(p.b_bar)
        self.y_base, self.zN_base = self._duals(p.c)
        self.y_pert, self.zN_pert = self._duals(p.c_bar)

    def _duals(self, c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """y = B^{-T} c_B and the reduced costs A_N' y - c_N; a cost that is
        zero on the basis (c_bar, or c at a slack start) needs neither."""
        B, N = self.partition.basic, self.partition.nonbasic
        if not c[B].any():
            return np.zeros(self.program.m), 0.0 - c[N]
        y = self.fact.solve_transpose(c[B])
        return y, self.program.A.rmatvec(y)[N] - c[N]

    def duals(self, lam: float) -> np.ndarray:
        """The duals y(lam) = y_base + lam * y_pert, as a new array. Current
        after pivots only in a state that keeps its duals: one from
        ``initialize``, or a ``solve_path`` with certificates on."""
        return self.y_base + lam * self.y_pert

    def entry(self, lam: float) -> Tuple[PathSegment, np.ndarray]:
        """This dictionary as a window entry certified at ``lam``: a segment
        ending there, and the duals y(lam)."""
        return self.segment(lam, lam), self.duals(lam)

    def segment(self, lambda_lo: float, lambda_hi: float) -> PathSegment:
        part = self.partition
        return PathSegment(  # PathSegment's fields in order: interval, n_cols, primal, dual
            lambda_lo, lambda_hi, self.program.n,
            part.basic.copy(), self.xB_base.copy(), self.xB_pert.copy(),
            part.nonbasic.copy(), self.zN_base.copy(), self.zN_pert.copy())


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
    if p.kind is not ProgramKind.EQUALITY:
        p, _ = to_standard_form(p)
    state = DictionaryState(p, BasisPartition.from_basic(p.n, basic))

    for base, pert, what in (
        (state.xB_base, state.xB_pert, "basic value"),
        (state.zN_base, state.zN_pert, "reduced cost"),
    ):
        dead = (np.abs(pert) <= RATIO_TOL) & (base < -FEAS_TOL)
        if dead.any():
            k = int(dead.argmax())  # the first dead slot
            raise InfeasibleAtLargeLambda(f"{what} at slot {k} is negative ({base[k]:.3e}) "
                                          "with no perturbation to repair it")

    lam_star, state.tight = compute_lambda_star(state)
    lam_max = compute_lambda_max(state)
    if lam_star > lam_max + FEAS_TOL * (1.0 + abs(lam_max)):
        raise InfeasibleAtLargeLambda(f"empty optimality window: lambda_star={lam_star:.6g} "
                                      f"exceeds lambda_max={lam_max:.6g}")
    state.lambda_lo, state.lambda_hi = lam_star, lam_max
    return state


def compute_lambda_star(
    state: DictionaryState,
) -> Tuple[float, Optional[TightConstraint]]:
    """Smallest lambda for which the current dictionary stays optimal.

    Scans ``-base/pert`` over entries with positive perturbation in both the
    reduced-cost and basic-value families; the largest such ratio is the next
    breakpoint. Returns (-inf, None) when no entry constrains the dictionary
    from below. Within a family ties break toward the smaller column index;
    across families the nonbasic (reduced-cost) candidate wins ties. A
    program with c_bar = 0 (every estimator) skips the reduced-cost family,
    which never prices. Each family is one pass of quotients ``base/pert``.
    """
    best_lam = float("-inf")
    best: Optional[TightConstraint] = None

    for base, pert, cols, in_basis in (
        (state.zN_base, state.zN_pert, state.partition.nonbasic, False),
        (state.xB_base, state.xB_pert, state.partition.basic, True),
    )[not state.zN_moves:]:
        with np.errstate(divide="ignore", invalid="ignore"):  # off the candidates
            q = base / pert
        cand = pert > RATIO_TOL
        q[~cand] = np.inf
        top = -float(q[q.argmin()]) if len(q) else -np.inf  # -(b/p) is exactly -b/p
        if top == 0.0:  # of tied +-0s, the one the max over the candidates gives
            top = float((-base[cand] / pert[cand]).max())
        # the nonbasic family is scanned first, so it keeps cross-family ties
        if top > best_lam + BREAKPOINT_RTOL * (1.0 + abs(top)):
            tie = cols.take((q <= BREAKPOINT_RTOL * (1.0 + abs(top)) - top).nonzero()[0])
            best_lam, best = top, TightConstraint(column=int(tie[tie.argmin()]), in_basis=in_basis)
    return best_lam, best


def compute_lambda_max(state: DictionaryState) -> float:
    """Largest lambda for which the current dictionary stays optimal (+inf
    when nothing constrains it from above)."""
    best = float("inf")
    for base, pert in (
        (state.zN_base, state.zN_pert),
        (state.xB_base, state.xB_pert),
    ):
        idx = (pert < -RATIO_TOL).nonzero()[0]
        if idx.size:
            best = min(best, float((-base[idx] / pert[idx]).min()))
    return best


def _ratio_pick(
    deltas: np.ndarray, values_at_lam: np.ndarray, cols: np.ndarray
) -> Optional[int]:
    """Position maximizing delta / value among positive deltas.

    Values below FEAS_TOL (degenerate, possibly tiny-negative from roundoff)
    count as an infinite ratio and win outright. Ratios within
    BREAKPOINT_RTOL of the largest tie, and ties break toward the smallest
    column index. Returns None when no delta exceeds RATIO_TOL.
    """
    cand = (deltas > RATIO_TOL).nonzero()[0]
    if cand.size == 0:
        return None
    vals = values_at_lam.take(cand)
    tie = cand.take((vals < FEAS_TOL).nonzero()[0])  # the degenerate ones
    if not tie.size:
        ratios = deltas.take(cand)
        ratios /= vals
        top = float(ratios[ratios.argmax()])
        tie = cand.take((ratios >= top - BREAKPOINT_RTOL * (1.0 + abs(top))).nonzero()[0])
    return int(tie[cols.take(tie).argmin()])


def _delta_z(state: DictionaryState, basic_pos: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row of the dictionary matrix: Delta z_N for leaving basic position,
    and the v = B^{-T} e_r it comes from. The BTRAN is handed r itself, so
    its update term is row r of the chain's P, read, not multiplied."""
    v = state.fact.solve_transpose(basic_pos)
    dz = state.program.A.rmatvec(v).take(state.partition.nonbasic)
    return np.negative(dz, out=dz), v


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
    with the reduced costs, y += s v (Vanderbei, ch. 6), where the state keeps
    them. A zero s_bar moves neither z~_N nor y~.
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
    if s_bar:  # zero whenever c_bar is, as on every sup-norm program
        state.zN_pert -= s_bar * dzN
    state.zN_pert[kN] = s_bar
    if state._duals_kept:
        state.y_base += s * v
        if s_bar:
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
    On a program with c_bar = 0, z_j(lam_star) is z*_j itself, read without
    a pass over the zero z~_N.
    """
    kB = state.partition.position(leaving)
    dzN, v = _delta_z(state, kB)
    zvals = state.zN_base + lam_star * state.zN_pert if state.zN_moves else state.zN_base
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
    # a window of one, with x given on every column
    res, scale, _ = _residuals(dense, np.array([lam]), np.arange(p.n)[None], x[None], y[None])
    res[0, 2] = np.abs(x * z).max(initial=0.0)
    scale[0, 2] = np.abs(x).max(initial=0.0) * np.abs(z).max(initial=0.0)
    passed = bool(np.all(res[0] <= CERT_TOL * (1.0 + scale[0])))
    return CertificateReport(lam, *res[0].tolist(), CERT_TOL, passed)


def _residuals(p: ParametricProgram, lams: np.ndarray, S: np.ndarray, xS: np.ndarray,
               Y: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The residuals of ``verify_certificate`` for W certificates at once.

    Row w is the certificate at ``lams[w]``: x is ``xS[w]`` on the distinct
    columns ``S[w]`` (zero elsewhere) and y is ``Y[w]``. One product of A'
    with Y, and one of A with the structural columns of the S; a unit column
    adds its x to its row. Returns, one row per certificate, the residuals
    (primal, dual, complementarity, gap) and the scales they are measured
    against, and ``zhat = A' y - c(lam)``. Complementarity is left at zero,
    as for z zero on S (a basis); ``verify_certificate`` fills it in.
    """
    (W, s), m = S.shape, p.m
    cost = p.c + lams[:, None] * p.c_bar if p.c_bar.any() else p.c[None]
    rhs = np.multiply.outer(lams, p.b_bar)
    rhs += p.b
    zhat = np.subtract(p.A.rmatvec(Y.T).T, cost, order="C")
    flat, x = S.ravel(), xS.ravel()
    rows = p.A.unit_rows(flat)
    f = (rows < 0).nonzero()[0]
    U = np.bincount(flat[f], minlength=p.n).nonzero()[0]
    xU = np.zeros((len(U), W))  # x of certificate w in column w
    xU[U.searchsorted(flat[f]), f // s] = x[f]
    rows[f] = m  # structural entries go to a spare row m, unit ones to their own row
    rows.reshape(W, s)[...] += np.arange(0, W * (m + 1), m + 1)[:, None]  # m + 1 bins each
    ax = np.bincount(rows, x, W * (m + 1)).reshape(W, m + 1)[:, :m]
    ax += p.A.times_columns(U, xU).T
    ax -= rhs
    res, scale = np.zeros((2, W, 4))
    res[:, 0] = np.maximum(np.abs(ax, out=ax).max(axis=1, initial=0.0),
                           -xS.min(axis=1, initial=0.0))
    res[:, 1] = 0.0 - zhat.min(axis=1, initial=0.0)  # 0.0, not -0.0
    primal_obj = np.einsum("ij,ij->i", p.c[S], xS)
    if p.c_bar.any():
        primal_obj += lams * np.einsum("ij,ij->i", p.c_bar[S], xS)
    dual_obj = np.einsum("ij,ij->i", rhs, Y)
    res[:, 3] = np.abs(primal_obj - dual_obj)
    scale[:, 0] = np.abs(rhs, out=rhs).max(axis=1, initial=0.0)
    scale[:, 1] = np.abs(cost).max(axis=1, initial=0.0)
    scale[:, 3] = np.abs(primal_obj) + np.abs(dual_obj)
    return res, scale, zhat


def _window_verdicts(p: ParametricProgram,
                     window: Sequence[Tuple[PathSegment, np.ndarray]]) -> np.ndarray:
    """A posteriori optimality check of a window of dictionaries: one bool
    per entry, True where the entry passes.

    Each entry is a segment, checked at its ``lambda_hi``, and the duals y
    kept there. Nothing here trusts them: ``A_B' y = c_B(lam)`` must hold to
    CERT_TOL, (x, z, y) must pass the residuals of ``verify_certificate``,
    and the segment's reduced costs must agree with ``A_N' y - c_N(lam)``
    (complementarity is structural for dictionary solutions, so this is the
    check that catches accumulated update error in z). An entry's verdict is
    its row of the batch, so it depends on that entry alone (up to roundoff
    at a tolerance's edge); a NaN fails. The window's segments are stacked
    once, basic entries then nonbasic ones, for one product with A' and one
    with the structural basic columns.
    """
    m, W = p.m, len(window)
    segs = [seg for seg, _ in window]
    lams = np.array([seg.lambda_hi for seg in segs])
    idx = np.concatenate([s.primal_indices for s in segs] + [s.dual_indices for s in segs])
    base = np.concatenate([s.primal_base for s in segs] + [s.dual_base for s in segs])
    xz = np.concatenate([s.primal_slope for s in segs] + [s.dual_slope for s in segs])
    B, N = idx[:W * m].reshape(W, m), idx[W * m:].reshape(W, -1)  # one row per entry
    x, z = xz[:W * m].reshape(W, m), xz[W * m:].reshape(W, -1)
    x *= lams[:, None]
    z *= lams[:, None]
    xz += base
    res, scale, zhat = _residuals(p, lams, B, x, np.array([y for _, y in window]))
    at = np.arange(0, zhat.size, p.n)[:, None]  # idx, through its views B and N, into zhat
    B += at
    N += at
    zhat = zhat.take(idx)  # A_B' y - c_B(lam), then A_N' y - c_N(lam)
    zB, zN = zhat[:W * m].reshape(W, m), zhat[W * m:].reshape(W, -1)
    basis = np.abs(zB).max(axis=1, initial=0.0)
    drift = np.abs(np.subtract(zN, z, out=z), out=z).max(axis=1, initial=0.0)
    bad_basis = ~(basis <= CERT_TOL * (1.0 + scale[:, 1]))
    bad_cert = ~(res <= CERT_TOL * (1.0 + scale)).all(axis=1)
    if not (bad_basis.any() or bad_cert.any()) and drift.max() <= CERT_TOL:
        return np.ones(W, dtype=bool)  # the drift's scale, 1 + max |zhat_N|, is at least 1
    bad_drift = ~(drift <= CERT_TOL * (1.0 + np.abs(zN).max(axis=1, initial=0.0)))
    bad = bad_basis | bad_cert | bad_drift
    for w in np.flatnonzero(bad):
        if bad_basis[w]:
            logger.debug("A_B' y - c_B residual %.3e at lambda=%g", basis[w], lams[w])
        elif bad_cert[w]:
            logger.debug("certificate failed at lambda=%g: residuals %s", lams[w], res[w])
        else:
            logger.debug("dictionary drift %.3e at lambda=%g", drift[w], lams[w])
    return ~bad


def _post_pivot_ok(p: ParametricProgram, window: Sequence[Tuple[PathSegment, np.ndarray]]) -> bool:
    """Whether every entry of a window passes (``_window_verdicts``)."""
    return bool(_window_verdicts(p, window).all())


def _pivot_at(state: DictionaryState, tight: TightConstraint, lam_star: float) -> PivotEvent:
    if tight.in_basis:
        return dual_pivot(state, tight.column, lam_star)
    return primal_pivot(state, tight.column, lam_star)


def _replay(program: ParametricProgram, basic: np.ndarray, nonbasic: np.ndarray,
            events: Tuple[PivotEvent, ...]) -> List[Tuple[np.ndarray, ...]]:
    """The six arrays of each dictionary of a window: a fresh state at its
    first partition, then ``_pivot_at`` for each of ``events``. They are
    read-only views of one anonymous mapping, returned to the system with its
    last view, so a caller that holds many windows at once leaves no mark on
    the heap ``_keep_freed_heap`` keeps."""
    state = DictionaryState(program, BasisPartition(program.n, basic.copy(), nonbasic.copy()))
    state._duals_kept = False
    W, n, m = len(events) + 1, program.n, program.m
    vals = np.frombuffer(mmap.mmap(-1, 3 * W * n * 8)).reshape(W, 3, n)
    idx = vals[:, 0].view(np.intp)  # per dictionary: indices, base, slope
    for w, ev in enumerate((None, *events)):  # dictionary 0 is the fresh one
        if ev is not None:
            dual = ev.kind is PivotKind.DUAL
            again = _pivot_at(state, TightConstraint(ev.leaving if dual else ev.entering, dual),
                              ev.lambda_star)
            if (again.entering, again.leaving) != (ev.entering, ev.leaving):
                raise RuntimeError(f"replay diverged at lambda*={ev.lambda_star:.6g}")
        idx[w, :m], idx[w, m:] = state.partition.basic, state.partition.nonbasic
        vals[w, 1:, :m] = state.xB_base, state.xB_pert
        vals[w, 1:, m:] = state.zN_base, state.zN_pert
    vals.flags.writeable = idx.flags.writeable = False  # every reader shares them
    return [(idx[w, :m], vals[w, 1, :m], vals[w, 2, :m], idx[w, m:], vals[w, 1, m:],
             vals[w, 2, m:]) for w in range(W)]


def _rebuilder(program: ParametricProgram, basis: Tuple[np.ndarray, np.ndarray],
               events: List[PivotEvent], cache: list) -> Callable[[int], Tuple[np.ndarray, ...]]:
    """``CompactSegment.rebuilt`` for the window whose first partition is
    ``basis``, (basic, nonbasic): its dictionary ``pos``, ``_replay``ed over
    ``events``. ``cache``, shared by a path's windows, holds the last one.
    The closure holds no reference to the path, so a path is freed by
    reference counting alone."""

    def rebuilt(pos: int) -> Tuple[np.ndarray, ...]:
        if cache[0] is not basis:
            cache[:] = None, None  # free the last window before this one
            cache[:] = basis, _replay(program, *basis, tuple(events))
        return cache[1][pos]

    return rebuilt


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
    ``linalg.REFRESH_LIMIT`` updates; the segments since the last rebuild
    form a window. With certificates on, every segment a pivot produces is
    certified before it is returned: a window's segments are checked in
    batches of ``max(1, CERT_BATCH_FLOATS // n)`` entries, each as it fills,
    and the rest at the next rebuild and where the path ends, however it
    ends. Each check is one ``_post_pivot_ok`` call on one batch; a
    refresh's adds the one dictionary the refresh replaces. A segment stays
    dense only while something reads it so: the stop callback during its
    call, and its batch until it passes (a window's first segment is in no
    batch). Then it goes into the path as a ``CompactSegment``, replayed on
    demand from the window's first partition.

    Numerical trouble has one recovery step: refactorize at segment k,
    dropping the segments and pivots from k on, and emit k again from the
    fresh factorization. k's partition is the window's first with its pivots
    applied, so nothing is replayed. A failed batch redoes the segment
    before its first failing dictionary, the last one certified; the
    batch's ``_window_verdicts`` name that dictionary. A degenerate update,
    once the window up to it certifies, redoes its own segment. A second
    failure at the same segment ends the path.

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
        ValueError: lambda_target is NaN or +inf, or max_pivots is negative.
        InfeasibleAtLargeLambda: the starting basis is never optimal.
        SingularBasis: the starting basis cannot be factorized.
    """
    opts = options or SolveOptions()
    if kwargs:
        opts = SolveOptions(**{**opts.__dict__, **kwargs})
    if np.isnan(opts.lambda_target) or opts.lambda_target == np.inf:
        raise ValueError(f"lambda_target is {opts.lambda_target}; no path reaches it")
    if opts.max_pivots is not None and opts.max_pivots < 0:
        raise ValueError(f"max_pivots must be >= 0, got {opts.max_pivots}")

    if initial_basis is None and p.kind is ProgramKind.EQUALITY:
        raise ValueError("equality programs need an initial_basis")
    std, slack_info = to_standard_form(p)
    # the slack basis unless told otherwise
    state = initialize(std, np.arange(p.n, std.n) if initial_basis is None else initial_basis)
    state._duals_kept = opts.check_certificates  # only certificates read y
    max_pivots = opts.max_pivots if opts.max_pivots is not None else 10 * std.n
    path = SolutionPath(num_cols=std.n, slack_info=slack_info)
    # For Dantzig the first breakpoint is ||X'y||_inf, the scale of lambda.
    first = state.lambda_lo
    zero_tol = FEAS_TOL * (1.0 + (abs(first) if np.isfinite(first) else 0.0))
    # The window: path.segments[start:], from a fresh factorization on. Its
    # segments after the first wait in ``batch`` (with their duals) to be
    # certified; those from path.segments[done] on are not yet compact.
    start, batch, step = 0, [], max(1, CERT_BATCH_FLOATS // std.n)
    replayed = [None, None]  # the last window rebuilt (_rebuilder)
    # The segment last redone, and its breakpoint before the redo.
    retried, was = -1, 0.0
    priced = state.lambda_lo, state.tight  # the first dictionary's breakpoint

    while True:
        k = len(path.segments)
        lam_star, tight = priced or compute_lambda_star(state)
        priced = None
        vanished = tight is None and k == retried
        if vanished:  # the path ends at the breakpoint as first found
            lam_star = was
        # segment k's upper end is segment k - 1's lower end
        seg = state.segment(lam_star, path.segments[-1].lambda_lo if k else state.lambda_hi)
        path.segments.append(seg)
        if k == start:
            basis = seg.primal_indices, seg.dual_indices  # the window's first partition
            record: List[PivotEvent] = []  # the pivots into the window's compact segments
            rebuilt, done = _rebuilder(std, basis, record, replayed), start
        elif opts.check_certificates:  # checked at its upper end, where its pivot left it
            batch.append((seg, state.duals(seg.lambda_hi)))
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
                path.events.append(_pivot_at(state, tight, lam_star))
            except UpdateDegenerate as exc:
                redo, failed = k, f"degenerate update on retry: {exc}"
            except tuple(_FAILURE_STATUS) as exc:
                end = (_FAILURE_STATUS[type(exc)], lam_star, str(exc))
        refresh = not (end or failed) and (
            state.fact.updates_since_refactor >= linalg.REFRESH_LIMIT)

        if opts.check_certificates and (end or refresh or failed or len(batch) == step):
            # the segment of the last pivot is not emitted before a refresh
            window = batch + [state.entry(lam_star)] if refresh else batch
            if window and not _post_pivot_ok(state.program, window):
                w = int(np.argmin(_window_verdicts(state.program, window)))  # the first bad one
                redo, refresh = k - len(batch) + w, False
                failed = ("certificate still failing after refactorization "
                          f"at lambda*={path.segments[redo].lambda_lo:.6g}")
            batch = []
        if redo is not None:
            head = path.segments[redo]
            del path.segments[redo + 1:], path.events[redo:]
            if redo == retried:
                end, redo = (Termination.NUMERICAL_FAILURE, head.lambda_lo, failed), None
            else:
                logger.info("pivot at lambda*=%.9g failed; refactorizing there", head.lambda_lo)
                retried, was, end = redo, head.lambda_lo, None
                state.partition = part = BasisPartition(std.n, basis[0].copy(), basis[1].copy())
                for ev in path.events[start:redo]:
                    part.swap(part.position(ev.leaving), part.position(ev.entering))
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
        if not batch:  # no batch pending: nothing reads them dense any more
            record[:] = path.events[start:len(path.segments) - 1]  # a redo may drop one
            path.segments[done:] = [
                CompactSegment(s.lambda_lo, s.lambda_hi, s.n_cols, p.n, s.primal_below(p.n),
                               rebuilt, pos)
                for pos, s in enumerate(path.segments[done:], done - start)]
            done = len(path.segments)
        if end:
            path.termination, path.terminal_lambda, path.termination_detail = end
            break
        if redo is not None or refresh:
            start = len(path.segments)

    return path
