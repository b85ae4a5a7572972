"""Path engine: breakpoint selection, pivoting, terminations, certificates."""

import dataclasses
import gc
import itertools
import logging
import platform
import tracemalloc
import weakref

import numpy as np
import pytest

from parasimplex import cli, engine, linalg
from parasimplex import io as pio
from parasimplex.core import (
    BasisPartition,
    CompactSegment,
    ParametricProgram,
    PathSegment,
    ProgramKind,
    Termination,
    evaluate_primal,
    to_standard_form,
)
from parasimplex.engine import (
    SolveOptions,
    compute_lambda_max,
    compute_lambda_star,
    initialize,
    solve_path,
    verify_certificate,
)
from parasimplex.errors import InfeasibleAtLargeLambda, SingularBasis, UpdateDegenerate
from parasimplex.experiments import (
    DantzigGenConfig,
    DiffNetGenConfig,
    gen_dantzig,
    gen_diffnet,
)
from parasimplex.operators import WithSlacks
from parasimplex.oracle import random_less_equal
from parasimplex.reductions import (
    SUPPORT_TOL,
    DantzigInstance,
    DiffNetInstance,
    build_dantzig,
    build_diffnet,
    diffnet_sparsity_stop,
    recover_dantzig,
    recover_diffnet,
)

BP_TOL = 1e-9
CONT_TOL = 1e-8


class _FakeState:
    """Bare carrier of dictionary vectors for the breakpoint routines."""

    def __init__(self, zN_base, zN_pert, xB_base, xB_pert, n=None):
        self.zN_base = np.asarray(zN_base, dtype=float)
        self.zN_pert = np.asarray(zN_pert, dtype=float)
        self.xB_base = np.asarray(xB_base, dtype=float)
        self.xB_pert = np.asarray(xB_pert, dtype=float)
        nb = len(self.zN_base)
        m = len(self.xB_base)
        n = n or (nb + m)
        # nonbasic columns come first, basic columns after
        self.partition = BasisPartition.from_basic(n, list(range(nb, nb + m)))
        # a state derives this from its program's c_bar; here a zero z~_N stands in
        self.zN_moves = bool(self.zN_pert.any())


def test_lambda_star_worked_example():
    state = _FakeState(
        zN_base=[-2.0, 3.0], zN_pert=[1.0, 0.5],
        xB_base=[-1.0, 2.0], xB_pert=[1.0, 1.0],
    )
    lam, tight = compute_lambda_star(state)
    assert lam == pytest.approx(2.0, abs=BP_TOL)
    assert tight.column == 0 and not tight.in_basis


def test_lambda_max_from_negative_perturbations():
    state = _FakeState(
        zN_base=[-2.0, 3.0], zN_pert=[1.0, 0.5],
        xB_base=[-1.0, 3.0], xB_pert=[1.0, -0.5],
    )
    assert compute_lambda_max(state) == pytest.approx(6.0, abs=BP_TOL)
    # and nothing below caps it when all perturbations are nonnegative
    state2 = _FakeState([0.0], [1.0], [1.0], [0.0])
    assert compute_lambda_max(state2) == float("inf")


def test_lambda_star_no_candidates_is_minus_inf():
    state = _FakeState([1.0], [0.0], [1.0], [-1.0])
    lam, tight = compute_lambda_star(state)
    assert lam == float("-inf") and tight is None


def test_lambda_star_cross_family_tie_prefers_nonbasic():
    # both families hit ratio 2; reduced-cost side must win even though the
    # basic column has the smaller index
    state = _FakeState(
        zN_base=[-2.0], zN_pert=[1.0],
        xB_base=[-4.0], xB_pert=[2.0],
    )
    state.partition = BasisPartition.from_basic(2, [0])  # basic col 0, nonbasic col 1
    lam, tight = compute_lambda_star(state)
    assert lam == pytest.approx(2.0)
    assert tight.column == 1 and not tight.in_basis


def test_lambda_star_within_family_tie_prefers_small_column():
    state = _FakeState(
        zN_base=[-2.0, -2.0, -1.0], zN_pert=[1.0, 1.0, 1.0],
        xB_base=[1.0], xB_pert=[0.0],
    )
    lam, tight = compute_lambda_star(state)
    assert lam == pytest.approx(2.0)
    assert tight.column == 0


def _pick(deltas, values, cols):
    return engine._ratio_pick(np.array(deltas, dtype=float), np.array(values, dtype=float),
                              np.array(cols, dtype=np.intp))


def test_ratio_pick_degenerate_candidates_win_with_the_smallest_column():
    # positions 1 and 3 are degenerate; position 0's ratio of 1e8 still loses,
    # and of the degenerate pair the smaller column (2, at position 3) wins
    assert _pick([100.0, 5.0, 3.0, 2.0], [1e-6, 0.0, 2.0, 1e-12], [0, 4, 1, 2]) == 3


def test_ratio_pick_tiny_negative_value_counts_as_degenerate():
    assert _pick([1.0, 50.0], [-1e-15, 1.0], [3, 1]) == 0


def test_ratio_pick_near_ties_go_to_the_smallest_column():
    # ratios 2 and 2 + 1e-13 tie within BREAKPOINT_RTOL; the smaller column wins
    # over the larger ratio, and position 2's smaller ratio never enters
    assert _pick([2.0, 2.0 + 1e-13, 1.0], [1.0, 1.0, 1.0], [3, 5, 0]) == 0
    # 1e-9 apart they do not tie, so the larger ratio wins
    assert _pick([2.0, 2.0 + 1e-9, 1.0], [1.0, 1.0, 1.0], [3, 5, 0]) == 1


def test_ratio_pick_needs_a_delta_above_ratio_tol():
    assert _pick([engine.RATIO_TOL, -1.0, 0.0], [1.0, 0.0, 2.0], [0, 1, 2]) is None
    # a degenerate entry whose delta is too small is no candidate either
    assert _pick([0.1 * engine.RATIO_TOL, 1.0], [0.0, 1.0], [0, 1]) == 1


# The gather-based scans the one-pass ones replaced, kept as references.
def _ref_largest_ratio(ratios, idx, cols):
    top = float(ratios.max())
    tie = idx[(ratios >= top - engine.BREAKPOINT_RTOL * (1.0 + abs(top))).nonzero()[0]]
    return top, int(tie[cols[tie].argmin()])


def _ref_lambda_star(state):
    best_lam, best = float("-inf"), None
    for base, pert, cols, in_basis in (
        (state.zN_base, state.zN_pert, state.partition.nonbasic, False),
        (state.xB_base, state.xB_pert, state.partition.basic, True),
    ):
        idx = (pert > engine.RATIO_TOL).nonzero()[0]
        if not idx.size:
            continue
        top, pos = _ref_largest_ratio(-base[idx] / pert[idx], idx, cols)
        if top > best_lam + engine.BREAKPOINT_RTOL * (1.0 + abs(top)):
            best_lam, best = top, (int(cols[pos]), in_basis)
    return best_lam, best


def _ref_lambda_max(state):
    best = float("inf")
    for base, pert in ((state.zN_base, state.zN_pert), (state.xB_base, state.xB_pert)):
        idx = (pert < -engine.RATIO_TOL).nonzero()[0]
        if idx.size:
            best = min(best, float((-base[idx] / pert[idx]).min()))
    return best


def _ref_ratio_pick(deltas, values_at_lam, cols):
    cand = (deltas > engine.RATIO_TOL).nonzero()[0]
    if cand.size == 0:
        return None
    vals = values_at_lam[cand]
    degenerate = cand[(vals < engine.FEAS_TOL).nonzero()[0]]
    if degenerate.size:
        return int(degenerate[cols[degenerate].argmin()])
    return _ref_largest_ratio(deltas[cand] / vals, cand, cols)[1]


def _planted(rng, size, target):
    """(base, pert) of ``size`` entries whose candidates (pert > RATIO_TOL)
    have ratios -base/pert below ``target``, except a few that tie with it
    within BREAKPOINT_RTOL / 3; some perturbations sit at or below
    RATIO_TOL, and some bases are +-0."""
    pert = rng.standard_normal(size) * rng.choice([1e-3, 1.0, 1e3], size)
    ratio = target - np.abs(rng.standard_normal(size)) * rng.choice([1e-6, 1.0], size)
    at = rng.choice(size, min(size, 3), replace=False)
    pert[at] = np.abs(pert[at]) + 0.5
    ratio[at] = target * (1.0 + rng.uniform(-3e-13, 3e-13, len(at)))
    base = -ratio * pert
    pert[rng.random(size) < 0.1] = engine.RATIO_TOL * rng.choice([0.5, 1.0])
    zero = rng.random(size) < 0.1
    base[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))
    return base, pert


def _random_state(rng, m, nb, z_moves=True, target=None):
    n = m + nb
    cols = rng.permutation(n)
    target = rng.uniform(0.5, 2.0) if target is None else target
    xB_base, xB_pert = _planted(rng, m, target)
    if z_moves:
        zN_base, zN_pert = _planted(rng, nb, target)
    else:  # c_bar = 0: z~_N is +-0, as a pivot's 0 / dz leaves it
        zN_base, zN_pert = rng.standard_normal(nb), np.copysign(0.0, rng.standard_normal(nb))
    state = _FakeState(zN_base, zN_pert, xB_base, xB_pert, n)
    state.partition = BasisPartition(n, cols[:m], cols[m:])
    state.zN_moves = z_moves
    return state


@pytest.mark.parametrize("seed", range(40))
def test_one_pass_scans_pick_as_the_gathering_ones(seed):
    rng = np.random.default_rng([20261020, seed])
    m, nb = rng.integers(1, 40), [0, 1, 7, 60][seed % 4]  # nb = 0: no nonbasic family
    cases = [_random_state(rng, m, nb), _random_state(rng, m, nb, z_moves=False),
             _random_state(rng, m, nb, target=0.0)]  # a breakpoint at lambda = +-0
    empty = _random_state(rng, m, nb)  # no candidate in either family
    empty.xB_pert[:] = -np.abs(empty.xB_pert)
    empty.zN_pert[:] = engine.RATIO_TOL
    cases.append(empty)
    for state in cases:
        lam, tight = compute_lambda_star(state)
        want_lam, want = _ref_lambda_star(state)
        assert np.float64(lam).tobytes() == np.float64(want_lam).tobytes()
        assert (tight and (tight.column, tight.in_basis)) == want
        assert compute_lambda_max(state) == _ref_lambda_max(state)
        for deltas, values, cols in (
            (state.zN_pert, state.zN_base, state.partition.nonbasic),
            (state.xB_pert, state.xB_base, state.partition.basic),
            (state.xB_pert, np.where(rng.random(m) < 0.2, rng.choice([0.0, -1e-15, 0.5e-9], m),
                                     np.abs(state.xB_base)), state.partition.basic),
        ):
            assert engine._ratio_pick(deltas, values, cols) == _ref_ratio_pick(deltas, values, cols)


def test_sup_norm_reduced_costs_never_move_with_lambda():
    """c_bar = 0 on every estimator, so z~_N stays +-0 pivot after pivot:
    the breakpoint scan skips it and finds what the full scan finds."""
    X, y, _ = gen_dantzig(DantzigGenConfig(n=20, d=30, s=3), rng=np.random.default_rng(6))
    p = build_dantzig(DantzigInstance(X, y))
    state = initialize(p, np.arange(p.n, p.n + p.m))
    assert not state.zN_moves
    lam, tight = state.lambda_lo, state.tight
    for _ in range(25):
        engine._pivot_at(state, tight, lam)
        assert not state.zN_pert.any()
        lam, tight = compute_lambda_star(state)
        assert (lam, (tight.column, tight.in_basis)) == _ref_lambda_star(state)


def _identity_dantzig(y=(3.0, 1.0)):
    return build_dantzig(DantzigInstance(np.eye(len(y)), np.array(y)))


def test_soft_threshold_path():
    """Identity design: theta_j(lam) = sign(y_j) * max(|y_j| - lam, 0)."""
    p = _identity_dantzig()
    path = solve_path(p)
    assert path.termination is Termination.LAMBDA_NONPOSITIVE
    assert path.num_pivots == 2
    orig = recover_dantzig(path)
    for lam in (0.0, 0.5, 1.0, 1.7, 2.5, 3.0, 4.0):
        want = np.sign([3.0, 1.0]) * np.maximum(np.abs([3.0, 1.0]) - lam, 0.0)
        np.testing.assert_allclose(orig.value_at(lam), want, atol=1e-9)
    # breakpoints at |y| values
    los = sorted(s.lambda_lo for s in path.segments)
    assert los[0] <= 0.0
    assert los[1] == pytest.approx(1.0, abs=BP_TOL)
    assert los[2] == pytest.approx(3.0, abs=BP_TOL)


def test_all_zero_rhs_is_optimal_everywhere():
    p = ParametricProgram(A=[[1.0]], b=[0.0], b_bar=[0.0], c=[-1.0],
                          c_bar=[0.0], kind=ProgramKind.LESS_EQUAL)
    path = solve_path(p)
    assert path.termination is Termination.REACHED_TARGET
    assert path.num_pivots == 0
    seg = path.segments[0]
    assert seg.lambda_lo == float("-inf") and seg.lambda_hi == float("inf")
    np.testing.assert_allclose(evaluate_primal(seg, 0.0), [0.0, 0.0])


def test_unbounded_direction_detected():
    # max (1 - lam) x  s.t.  -x <= 1: entering column has no blocking row
    p = ParametricProgram(A=[[-1.0]], b=[1.0], b_bar=[0.0], c=[1.0],
                          c_bar=[-1.0], kind=ProgramKind.LESS_EQUAL)
    path = solve_path(p)
    assert path.termination is Termination.UNBOUNDED
    assert path.terminal_lambda == pytest.approx(1.0, abs=BP_TOL)


def test_failed_pivot_reports_its_reason():
    # the unbounded program above: column 0 enters and nothing blocks it
    p = ParametricProgram(A=[[-1.0]], b=[1.0], b_bar=[0.0], c=[1.0],
                          c_bar=[-1.0], kind=ProgramKind.LESS_EQUAL)
    path = solve_path(p)
    assert path.termination is Termination.UNBOUNDED
    assert "entering column 0" in path.termination_detail
    assert solve_path(_identity_dantzig()).termination_detail == ""


def test_infeasible_below_breakpoint():
    # x + s = lam - 1 turns negative below lam = 1 and no pivot can fix it
    p = ParametricProgram(A=[[1.0]], b=[-1.0], b_bar=[1.0], c=[-1.0],
                          c_bar=[0.0], kind=ProgramKind.LESS_EQUAL)
    path = solve_path(p)
    assert path.termination is Termination.INFEASIBLE
    assert path.terminal_lambda == pytest.approx(1.0, abs=BP_TOL)


def test_infeasible_at_large_lambda_raises():
    # positive static cost on a <= program: the slack start is never optimal
    p = ParametricProgram(A=[[1.0]], b=[1.0], b_bar=[1.0], c=[1.0],
                          c_bar=[0.0], kind=ProgramKind.LESS_EQUAL)
    with pytest.raises(InfeasibleAtLargeLambda):
        solve_path(p)


def test_equality_program_requires_basis():
    p = ParametricProgram(A=[[1.0, 1.0]], b=[1.0], b_bar=[1.0],
                          c=[-1.0, 0.0], c_bar=[0.0, 0.0],
                          kind=ProgramKind.EQUALITY)
    with pytest.raises(ValueError):
        solve_path(p)
    path = solve_path(p, initial_basis=[1])
    assert path.termination in (Termination.LAMBDA_NONPOSITIVE,
                                Termination.REACHED_TARGET)


def test_iteration_cap():
    path = solve_path(_identity_dantzig(), max_pivots=1)
    assert path.termination is Termination.ITERATION_CAP
    assert path.num_pivots == 1


def test_reached_target_midway():
    path = solve_path(_identity_dantzig(), lambda_target=2.0)
    assert path.termination is Termination.REACHED_TARGET
    assert path.terminal_lambda == 2.0
    assert path.num_pivots == 1  # only the lam=3 breakpoint is crossed


def test_stop_callback():
    seen = []

    def stop(seg):
        seen.append(seg)
        return np.isfinite(seg.lambda_lo) and seg.lambda_lo <= 1.5

    path = solve_path(_identity_dantzig(), stop_callback=stop)
    assert path.termination is Termination.REACHED_TARGET
    assert path.terminal_lambda == pytest.approx(1.0, abs=BP_TOL)
    assert len(seen) >= 1


def test_refresh_limit_one_gives_same_path(monkeypatch):
    p = _identity_dantzig((5.0, -2.0))
    a = solve_path(p)
    monkeypatch.setattr(linalg, "REFRESH_LIMIT", 1)
    b = solve_path(p)
    assert a.num_pivots == b.num_pivots
    for sa, sb in zip(a.segments, b.segments):
        assert sa.lambda_lo == pytest.approx(sb.lambda_lo, abs=1e-9)


def test_initialize_rejects_bad_window():
    # basic value negative with zero perturbation: never feasible
    p = ParametricProgram(A=[[1.0, 1.0]], b=[-1.0], b_bar=[0.0],
                          c=[-1.0, -1.0], c_bar=[0.0, 0.0],
                          kind=ProgramKind.LESS_EQUAL)
    std, _ = to_standard_form(p)
    with pytest.raises(InfeasibleAtLargeLambda):
        initialize(std, [2])


def test_segments_tile_the_lambda_axis():
    rng = np.random.default_rng(5150)
    for _ in range(20):
        p = random_less_equal(rng)
        path = solve_path(p)
        assert path.segments[0].lambda_hi == float("inf")
        for prev, nxt in zip(path.segments, path.segments[1:]):
            assert prev.lambda_lo == nxt.lambda_hi  # exact float handoff
            assert nxt.lambda_hi > nxt.lambda_lo - 1e-15
        los = [s.lambda_lo for s in path.segments]
        assert all(a >= b for a, b in zip(los, los[1:]))


def test_no_basis_repeats_along_path():
    rng = np.random.default_rng(777)
    for _ in range(20):
        p = random_less_equal(rng)
        path = solve_path(p)
        std, info = to_standard_form(p)
        basic = set(range(info.original_n, std.n))
        seen = {frozenset(basic)}
        for ev in path.events:
            basic.discard(ev.leaving)
            basic.add(ev.entering)
            key = frozenset(basic)
            assert key not in seen
            seen.add(key)


def test_adjacent_segments_agree_at_breakpoints():
    rng = np.random.default_rng(31337)
    for _ in range(25):
        p = random_less_equal(rng)
        path = solve_path(p)
        for hi_seg, lo_seg in zip(path.segments, path.segments[1:]):
            lam = hi_seg.lambda_lo
            a = evaluate_primal(hi_seg, lam)
            b = evaluate_primal(lo_seg, lam)
            scale = 1.0 + max(np.abs(a).max(), np.abs(b).max())
            assert np.abs(a - b).max() <= CONT_TOL * scale


def test_certificate_passes_on_path_and_fails_when_corrupted():
    p = _identity_dantzig()
    std, _ = to_standard_form(p)
    path = solve_path(p)
    seg = path.segment_at(0.5)
    x = evaluate_primal(seg, 0.5)
    z = np.zeros(std.n)
    z[seg.dual_indices] = seg.dual_base + 0.5 * seg.dual_slope
    rep = verify_certificate(std, x, z, 0.5)
    assert rep.passed
    assert rep.complementarity == 0.0  # structural for dictionary solutions

    x_bad = x.copy()
    x_bad[0] += 1e-3
    assert not verify_certificate(std, x_bad, z, 0.5).passed

    # moving a dual value off its true line must show up as dual infeasibility
    z_bad = z.copy()
    z_bad[:] = z - 1e-3
    rep_bad = verify_certificate(std, x, z_bad, 0.5)
    assert not rep_bad.passed or rep_bad.dual_residual > 0


def test_certificate_requires_equality_kind():
    p = _identity_dantzig()
    with pytest.raises(ValueError):
        verify_certificate(p, np.zeros(p.n), np.zeros(p.n), 1.0)


def test_options_kwargs_override():
    opts = SolveOptions(lambda_target=5.0)
    path = solve_path(_identity_dantzig(), opts, lambda_target=2.0)
    assert path.terminal_lambda == 2.0
    # the original options object is untouched
    assert opts.lambda_target == 5.0


# ------------------------------------------------- verification and refresh


def _regression_program(n=60, d=30, seed=1):
    X, y, _ = gen_dantzig(DantzigGenConfig(n=n, d=d, rng_seed=seed))
    return X, y, build_dantzig(DantzigInstance(X, y))


def _pivoted_state(pivots=3):
    """A Dantzig dictionary a few pivots down its path, its slack columns
    implicit, and the lambda of its last breakpoint."""
    _, _, p = _regression_program(n=20, d=8, seed=4)
    state = initialize(p, list(range(p.n, p.n + p.m)))
    for _ in range(pivots):
        lam, tight = compute_lambda_star(state)
        engine._pivot_at(state, tight, lam)
    return state, lam


def _pivot_sequence(path):
    return [(ev.entering, ev.leaving) for ev in path.events]


def test_full_regression_path_ends_lambda_nonpositive():
    # the last breakpoint is lambda* ~ 1e-14, not exactly zero
    X, y, p = _regression_program()
    path = solve_path(p)
    assert path.termination is Termination.LAMBDA_NONPOSITIVE
    assert path.terminal_lambda >= 0.0
    theta = recover_dantzig(path).value_at(0.0)
    ols, *_ = np.linalg.lstsq(X, y, rcond=None)
    np.testing.assert_allclose(theta, ols, atol=1e-9)


def _certify(state, lam):
    """The engine's check of ``state`` as a window of one at ``lam``."""
    return engine._post_pivot_ok(state.program, [state.entry(lam)])


def test_post_pivot_check_passes_on_clean_dictionary():
    state, lam = _pivoted_state()
    assert _certify(state, lam)


def test_post_pivot_check_catches_reduced_cost_drift(caplog):
    state, lam = _pivoted_state()
    state.zN_base = state.zN_base + 1e-3
    with caplog.at_level(logging.DEBUG, logger="parasimplex.engine"):
        assert not _certify(state, lam)
    assert "drift" in caplog.text


def test_post_pivot_check_catches_wrong_factorization(caplog):
    # the check solves nothing itself: a wrong factorization shows through
    # the duals the next pivot updates with it
    state, _ = _pivoted_state()
    state.fact = linalg.BasisFactorization(np.eye(state.program.m))
    lam, tight = compute_lambda_star(state)
    engine._pivot_at(state, tight, lam)
    with caplog.at_level(logging.DEBUG, logger="parasimplex.engine"):
        assert not _certify(state, lam)
    assert "A_B' y - c_B residual" in caplog.text


@pytest.mark.parametrize("slot", ["structural", "slack"])
def test_post_pivot_check_reads_every_basic_value(caplog, slot):
    # A x is formed from the basic entries only; a wrong value in either
    # kind of basic slot must still show up as a primal residual
    state, lam = _pivoted_state()
    is_slack = state.program.A.unit_rows(state.partition.basic) >= 0
    assert is_slack.any() and (~is_slack).any()
    k = int(np.flatnonzero(is_slack if slot == "slack" else ~is_slack)[0])
    state.xB_base[k] += 1e-3
    with caplog.at_level(logging.DEBUG, logger="parasimplex.engine"):
        assert not _certify(state, lam)
    assert "certificate failed" in caplog.text


def test_failed_check_is_retried_on_a_fresh_factorization(monkeypatch):
    _, _, p = _regression_program(n=20, d=8, seed=4)
    clean = solve_path(p)
    real = engine._post_pivot_ok
    calls = []

    def fail_once(p, window):
        calls.append(window)
        return len(calls) > 1 and real(p, window)

    monkeypatch.setattr(engine, "_post_pivot_ok", fail_once)
    retried = solve_path(p)
    assert _pivot_sequence(retried) == _pivot_sequence(clean)
    assert retried.termination is clean.termination
    assert [s.lambda_lo for s in retried.segments] == pytest.approx(
        [s.lambda_lo for s in clean.segments], abs=BP_TOL)


def test_check_failing_twice_is_numerical_failure(monkeypatch):
    _, _, p = _regression_program(n=20, d=8, seed=4)
    clean = solve_path(p)
    first_breakpoint = clean.events[0].lambda_star
    sizes = []

    def fail(p, window):
        sizes.append(len(window))
        return False

    monkeypatch.setattr(engine, "_post_pivot_ok", fail)
    path = solve_path(p)
    assert path.termination is Termination.NUMERICAL_FAILURE
    assert path.num_pivots == 0
    assert path.terminal_lambda == pytest.approx(first_breakpoint, abs=BP_TOL)
    # the window of the whole path failed; its verdicts (the real ones, all
    # passing) put the first failure at entry 0, so the first segment was
    # redone, and the same window failed again
    W = clean.num_pivots
    assert W > 1 and sizes == [W, W]


def _corrupt_reduced_costs(monkeypatch, at_pivot):
    """Add 1e-3 to every maintained reduced cost right after the exchange
    numbered ``at_pivot`` (from 1, redone pivots included); returns the
    sizes of the windows checked."""
    real_exchange, real_check = engine._exchange, engine._post_pivot_ok
    exchanges, sizes = [], []

    def exchange(state, *args):
        event = real_exchange(state, *args)
        exchanges.append(event)
        if len(exchanges) == at_pivot:
            state.zN_base += 1e-3
        return event

    def check(p, window):
        sizes.append(len(window))
        return real_check(p, window)

    monkeypatch.setattr(engine, "_exchange", exchange)
    monkeypatch.setattr(engine, "_post_pivot_ok", check)
    return sizes


def _same_path(a, b):
    assert _pivot_sequence(a) == _pivot_sequence(b)
    assert a.termination is b.termination
    assert [s.lambda_lo for s in a.segments] == pytest.approx(
        [s.lambda_lo for s in b.segments], abs=BP_TOL)


@pytest.mark.parametrize("batch", [None, 3], ids=["one-batch", "batches-of-3"])
def test_corrupted_window_rolls_back_to_the_clean_path(monkeypatch, batch):
    _, _, p = _regression_program()
    clean = solve_path(p)
    assert clean.num_pivots > linalg.REFRESH_LIMIT
    if batch:  # a window too large for one batch is certified in several
        monkeypatch.setattr(engine, "CERT_BATCH_FLOATS", batch * (p.n + p.m))
        _same_path(solve_path(p), clean)
    sizes = _corrupt_reduced_costs(monkeypatch, at_pivot=5)
    path = solve_path(p)
    _same_path(path, clean)
    # the check holding the first window's entry 4, the dictionary of pivot 5,
    # failed; the segment before it was redone, so the entries from there on
    # were checked again (batches are checked as they fill)
    upto = next(n for n in itertools.accumulate(sizes) if n > 4)
    assert sizes[0] > 1 and sum(sizes) == clean.num_pivots + upto - 4
    theta = recover_dantzig(path).value_at(0.0)
    np.testing.assert_allclose(theta, recover_dantzig(clean).value_at(0.0), atol=1e-9)


def _dantzig_then(A2, b2, b_bar2, c2, c_bar2):
    """The identity Dantzig program (pivots at lambda = 3 and 1) beside a
    one-row block that ends the path once lambda falls to 0.5."""
    p = _identity_dantzig()
    A = np.block([[p.A.to_dense(), np.zeros((p.m, 1))], [np.zeros((1, p.n)), np.array(A2)]])
    return ParametricProgram(A=A, b=np.r_[p.b, b2], b_bar=np.r_[p.b_bar, b_bar2],
                             c=np.r_[p.c, c2], c_bar=np.r_[p.c_bar, c_bar2],
                             kind=ProgramKind.LESS_EQUAL)


@pytest.mark.parametrize("case", ["unbounded", "infeasible", "iteration_cap",
                                  "target", "lambda_nonpositive"])
def test_a_window_is_certified_however_the_path_ends(monkeypatch, case):
    kwargs = {}
    if case == "unbounded":  # x enters at lambda = 0.5, nothing blocks it
        p = _dantzig_then([[-1.0]], 1.0, 0.0, 0.5, -1.0)
    elif case == "infeasible":  # x + s = lambda - 0.5
        p = _dantzig_then([[1.0]], -0.5, 1.0, -1.0, 0.0)
    else:
        p = _regression_program(n=20, d=8, seed=4)[2]
        kwargs = {"iteration_cap": {"max_pivots": 5}, "lambda_nonpositive": {},
                  "target": {"lambda_target": solve_path(p).segments[5].lambda_lo}}[case]
    clean = solve_path(p, **kwargs)
    assert clean.termination.value == case.replace("target", "reached_target")
    assert clean.num_pivots >= 2
    sizes = _corrupt_reduced_costs(monkeypatch, at_pivot=1)
    path = solve_path(p, **kwargs)
    _same_path(path, clean)
    assert path.terminal_lambda == clean.terminal_lambda
    assert sizes[0] == clean.num_pivots  # the one window, checked at the end


def test_stop_callback_sees_the_replayed_segment_again(monkeypatch):
    _, _, p = _regression_program()
    stop_at = solve_path(p).segments[10].lambda_lo
    seen = []

    def stop(seg):
        # the pivot into a segment is path.events, which a callback does not
        # see; it sees the basis that pivot made
        seen.append((frozenset(seg.primal_indices.tolist()), seg.lambda_lo))
        return seg.lambda_lo <= stop_at

    clean = solve_path(p, stop_callback=stop)
    clean_seen, seen[:] = list(seen), []
    _corrupt_reduced_costs(monkeypatch, at_pivot=3)
    path = solve_path(p, stop_callback=stop)
    _same_path(path, clean)
    # it fired on a corrupted segment, then again on the clean ones from the
    # redone segment 2 (the last one before the corrupted pivot 3) on
    assert sum(lam <= stop_at for _, lam in seen) == 2
    redone, again = seen[-len(clean_seen[2:]):], clean_seen[2:]
    assert [s[0] for s in redone] == [s[0] for s in again]
    assert [s[1] for s in redone] == pytest.approx([s[1] for s in again], abs=BP_TOL)
    assert len(seen) > len(clean_seen)


def test_trace_writes_a_rolled_back_pivot_once(tmp_path, capsys, caplog, monkeypatch):
    _, _, p = _regression_program()
    src = tmp_path / "prog.json"
    pio.save_program_json(src, p)
    _corrupt_reduced_costs(monkeypatch, at_pivot=5)
    paths = []  # what the CLI's solve returned

    def solve(*args, **kwargs):
        paths.append(solve_path(*args, **kwargs))
        return paths[-1]

    monkeypatch.setattr(cli, "solve_path", solve)
    monkeypatch.setenv("PSM_LOG", "trace")
    caplog.set_level(logging.INFO, logger="parasimplex")
    assert cli.main(["solve", str(src)]) == cli.EXIT_OK
    assert "failed; refactorizing there" in caplog.text  # a pivot was rolled back
    [path] = paths
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "\t" in ln]
    assert len(lines) == path.num_pivots
    assert all(len(ln.split("\t")) == 7 for ln in lines)
    assert [int(ln.split("\t")[0]) for ln in lines] == list(range(1, path.num_pivots + 1))
    assert [(int(ln.split("\t")[2]), int(ln.split("\t")[3])) for ln in lines] == \
        _pivot_sequence(path)


def test_a_failed_window_redoes_the_segment_before_its_first_bad_dictionary(monkeypatch):
    _, _, p = _regression_program()
    clean = solve_path(p)
    bad = 45  # inside the first window, which the refresh closes at 50
    assert clean.num_pivots > linalg.REFRESH_LIMIT > bad
    sizes = _corrupt_reduced_costs(monkeypatch, at_pivot=bad)
    exchanges = _degenerate_updates(monkeypatch, lambda call: False)  # counts them
    real_verdicts, passes = engine._window_verdicts, []

    def verdicts(p, window):
        passes.append(len(window))
        return real_verdicts(p, window)

    monkeypatch.setattr(engine, "_window_verdicts", verdicts)
    _same_path(solve_path(p), clean)
    # the window failed its check, one more pass over its verdicts found its
    # first corrupted dictionary (entry bad - 1), and the window from the
    # redone segment on passed; each check is one pass
    assert sizes == [linalg.REFRESH_LIMIT, clean.num_pivots - bad + 1]
    assert passes == [linalg.REFRESH_LIMIT] * 2 + sizes[1:]
    # pivots 1-50, then again from segment 44 on: 45-50 are done twice
    assert len(exchanges) == clean.num_pivots + linalg.REFRESH_LIMIT - bad + 1


def _certified_windows(monkeypatch, p):
    """The (standard-form program, window) pairs ``solve_path`` certifies on p."""
    real, windows = engine._post_pivot_ok, []

    def check(std, window):
        windows.append((std, list(window)))
        return real(std, window)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_post_pivot_ok", check)
        solve_path(p, max_pivots=3 * linalg.REFRESH_LIMIT)
    return windows


def _corrupted(window, w, field):
    """``window`` with entry w's first basic value, first reduced cost or
    first dual moved by 1e-3; the other entries are shared."""
    seg, y = window[w]
    if field == "y":
        y = y + np.eye(len(y))[0] * 1e-3
    else:
        values = getattr(seg, field).copy()
        values[0] += 1e-3
        seg = dataclasses.replace(seg, **{field: values})
    return window[:w] + [(seg, y)] + window[w + 1:]


@pytest.mark.parametrize("kind", ["gram", "kron", "dense"])
def test_a_batched_verdict_is_that_of_the_entries_alone(monkeypatch, kind):
    if kind == "gram":  # d > n: G = X'X is held as X
        X, y, _ = gen_dantzig(DantzigGenConfig(n=20, d=40, s=3, rng_seed=5))
        p = build_dantzig(DantzigInstance(X, y))
    elif kind == "kron":
        p = _diffnet_program(d=5)
    else:
        p = next(q for q in map(random_less_equal, map(np.random.default_rng, range(50)))
                 if solve_path(q).num_pivots >= 4)
    windows = _certified_windows(monkeypatch, p)
    inner = windows[0][0].A.A  # the program's own operator, inside WithSlacks
    assert type(getattr(inner, "G", inner)).__name__ == {
        "gram": "Gram", "kron": "Kron", "dense": "DenseMatrix"}[kind]
    for std, window in windows:
        assert engine._post_pivot_ok(std, window)
        for field in ("primal_base", "dual_base", "y"):
            bad = _corrupted(window, len(window) // 2, field)
            alone = [engine._post_pivot_ok(std, [entry]) for entry in bad]
            assert alone.count(False) == 1
            assert engine._window_verdicts(std, bad).tolist() == alone
            assert engine._post_pivot_ok(std, bad) == all(alone)


def test_corruption_after_a_random_pivot_recovers_the_clean_path(monkeypatch):
    # each path is one window, and some end infeasible
    endings = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        p = random_less_equal(rng)
        clean = solve_path(p)
        if clean.num_pivots < 2:
            continue
        with monkeypatch.context() as patch:
            _corrupt_reduced_costs(patch, at_pivot=int(rng.integers(1, clean.num_pivots + 1)))
            _same_path(solve_path(p), clean)
        endings.add(clean.termination)
    assert Termination.INFEASIBLE in endings


def _degenerate_updates(monkeypatch, fail):
    """Make ``replace_column`` raise UpdateDegenerate on the calls for which
    ``fail(call_number)`` is true (numbered from 1)."""
    real = linalg.BasisFactorization.replace_column
    calls = []

    def replace(self, k, a_new):
        calls.append(k)
        if fail(len(calls)):
            raise UpdateDegenerate(f"forced at position {k}")
        return real(self, k, a_new)

    monkeypatch.setattr(linalg.BasisFactorization, "replace_column", replace)
    return calls


def test_degenerate_update_is_retried_on_a_fresh_factorization(monkeypatch):
    _, _, p = _regression_program(n=20, d=8, seed=4)
    clean = solve_path(p)
    calls = _degenerate_updates(monkeypatch, lambda call: call == 1)
    retried = solve_path(p)
    assert len(calls) == clean.num_pivots + 1
    assert _pivot_sequence(retried) == _pivot_sequence(clean)
    assert retried.termination is clean.termination
    assert [s.lambda_lo for s in retried.segments] == pytest.approx(
        [s.lambda_lo for s in clean.segments], abs=BP_TOL)


def test_degenerate_update_twice_is_numerical_failure(monkeypatch):
    _, _, p = _regression_program(n=20, d=8, seed=4)
    calls = _degenerate_updates(monkeypatch, lambda call: True)
    path = solve_path(p)
    assert len(calls) == 2
    assert path.termination is Termination.NUMERICAL_FAILURE
    assert path.num_pivots == 0
    assert "degenerate update on retry" in path.termination_detail


def test_degenerate_update_mid_window_closes_it_and_redoes_its_segment(monkeypatch):
    _, _, p = _regression_program()
    clean = solve_path(p)
    fail_at = 20  # inside the first window, which the refresh closes at 50
    assert clean.num_pivots > linalg.REFRESH_LIMIT > fail_at
    calls = _degenerate_updates(monkeypatch, lambda call: call == fail_at)
    real_check, checks = engine._post_pivot_ok, []

    def check(p, window):
        checks.append((len(window), real_check(p, window)))
        return checks[-1][1]

    monkeypatch.setattr(engine, "_post_pivot_ok", check)
    path = solve_path(p)
    _same_path(path, clean)
    assert len(calls) == clean.num_pivots + 1
    # the segments before the failed pivot were certified as one window
    assert checks[0] == (fail_at - 1, True)


def test_breakpoint_vanishing_on_retry_is_numerical_failure(monkeypatch):
    _, _, p = _regression_program(n=20, d=8, seed=4)
    first_breakpoint = solve_path(p).events[0].lambda_star
    _degenerate_updates(monkeypatch, lambda call: call == 1)
    real, calls = engine.compute_lambda_star, []

    def lambda_star(state):  # initialize (it prices the first pivot), then the retry
        calls.append(state)
        return real(state) if len(calls) < 2 else (float("-inf"), None)

    monkeypatch.setattr(engine, "compute_lambda_star", lambda_star)
    path = solve_path(p)
    assert path.termination is Termination.NUMERICAL_FAILURE
    assert "breakpoint vanished" in path.termination_detail
    assert path.num_pivots == 0 and len(path.segments) == 1
    assert path.terminal_lambda == path.segments[0].lambda_lo == pytest.approx(
        first_breakpoint, abs=BP_TOL)


def _singular_factorization(monkeypatch, call):
    """Make the factorization numbered ``call`` (from 1) raise SingularBasis."""
    real = linalg.BasisFactorization
    calls = []

    def factor(*args, **kwargs):
        calls.append(args)
        if len(calls) == call:
            raise SingularBasis("forced singular basis")
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "BasisFactorization", factor)
    return calls


@pytest.mark.parametrize("where", ["refresh", "retry"])
def test_singular_refactorization_ends_the_path(monkeypatch, where):
    _, _, p = _regression_program()
    clean = solve_path(p)
    assert clean.num_pivots > linalg.REFRESH_LIMIT
    if where == "retry":  # the first pivot's update fails, then its refactorization
        _degenerate_updates(monkeypatch, lambda call: call == 1)
    _singular_factorization(monkeypatch, call=2)
    path = solve_path(p)
    assert path.termination is Termination.NUMERICAL_FAILURE
    assert "forced singular basis" in path.termination_detail
    assert len(path.segments) == path.num_pivots + 1
    # the path is the clean one up to the last segment kept
    kept = linalg.REFRESH_LIMIT - 1 if where == "refresh" else 0
    assert path.num_pivots == kept
    assert _pivot_sequence(path) == _pivot_sequence(clean)[:kept]
    assert path.terminal_lambda == path.segments[-1].lambda_lo
    assert path.terminal_lambda == pytest.approx(clean.segments[kept].lambda_lo, abs=BP_TOL)


def test_singular_starting_basis_raises():
    # columns 0 and 1 are parallel
    p = ParametricProgram(A=[[1.0, 2.0, 1.0], [2.0, 4.0, 0.0]], b=[1.0, 1.0],
                          b_bar=[1.0, 1.0], c=[-1.0, -1.0, -1.0],
                          c_bar=[0.0, 0.0, 0.0], kind=ProgramKind.EQUALITY)
    with pytest.raises(SingularBasis):
        solve_path(p, initial_basis=[0, 1])


def _dense_equality_program():
    std, info = to_standard_form(_regression_program()[2])
    dense = ParametricProgram(A=std.A.to_dense(), b=std.b, b_bar=std.b_bar,
                              c=std.c, c_bar=std.c_bar)
    return dense, list(range(info.original_n, std.n))


def test_certificates_do_not_change_the_pivots():
    _, _, p = _regression_program(n=20, d=8, seed=4)
    on = solve_path(p, check_certificates=True)
    off = solve_path(p, check_certificates=False)
    assert on.num_pivots > 0
    assert _pivot_sequence(on) == _pivot_sequence(off)


@pytest.mark.parametrize("program", [
    lambda: (_regression_program(n=20, d=40, seed=4)[2], None),
    lambda: (_diffnet_program(), None),
    _dense_equality_program,
], ids=["dantzig-gram", "diffnet-kron", "dense-equality"])
def test_certificates_leave_every_segment_array_unchanged(program):
    # certifying reads the dictionaries and never writes them
    p, basis = program()
    on = solve_path(p, check_certificates=True, initial_basis=basis)
    off = solve_path(p, check_certificates=False, initial_basis=basis)
    assert on.num_pivots > linalg.REFRESH_LIMIT  # more than one window
    assert _pivot_sequence(on) == _pivot_sequence(off)
    for a, b in zip(on.segments, off.segments, strict=True):
        for name in ("lambda_lo", "lambda_hi", "primal_indices", "primal_base",
                     "primal_slope", "dual_indices", "dual_base", "dual_slope"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_zero_perturbed_costs_keep_z_and_y_pert_exactly_zero(monkeypatch):
    # c_bar = 0, as on every sup-norm program: every s_bar is zero, so no
    # pivot moves z~_N or y~ and they stay exactly zero down to lambda = 0
    _, _, p = _regression_program()
    assert not p.c_bar.any()
    real, pivots = engine._exchange, []

    def exchange(state, *args):
        ev = real(state, *args)
        assert ev.s_bar == 0.0
        assert not (state.zN_pert.any() or state.y_pert.any())
        pivots.append(ev)
        return ev

    monkeypatch.setattr(engine, "_exchange", exchange)
    path = solve_path(p)
    assert path.termination is Termination.LAMBDA_NONPOSITIVE
    assert len(pivots) == path.num_pivots > linalg.REFRESH_LIMIT  # refreshes too
    assert not any(seg.dual_slope.any() for seg in path.segments)


def _bits(path):
    """A path's events (all fields) and segments (interval and six arrays),
    as bytes, so that 0.0 and -0.0 differ."""
    out = [(ev.kind, ev.entering, ev.leaving,
            np.array([ev.lambda_star, ev.t, ev.t_bar, ev.s, ev.s_bar]).tobytes())
           for ev in path.events]
    for seg in path.segments:
        out.append(np.array([seg.lambda_lo, seg.lambda_hi]).tobytes())
        out.extend(getattr(seg, name).tobytes() for name in (
            "primal_indices", "primal_base", "primal_slope",
            "dual_indices", "dual_base", "dual_slope"))
    return out


def test_without_certificates_no_pivot_moves_the_duals(monkeypatch):
    # only certificates read y, so a solve without them leaves y_base as
    # each refresh set it; the path is the certified one bit for bit
    _, _, p = _regression_program()
    real, moved = engine._pivot_at, []

    def pivot_at(state, tight, lam):
        y = state.y_base.copy()
        ev = real(state, tight, lam)
        moved.append(state.y_base.tobytes() != y.tobytes())
        return ev

    monkeypatch.setattr(engine, "_pivot_at", pivot_at)
    off = solve_path(p, check_certificates=False)
    assert len(moved) == off.num_pivots > linalg.REFRESH_LIMIT and not any(moved)
    moved.clear()
    on = solve_path(p, check_certificates=True)
    assert len(moved) == on.num_pivots and all(moved)
    moved.clear()
    assert _bits(off) == _bits(on)  # reads the compact segments: _replay keeps no duals
    assert moved and not any(moved)


def test_refresh_bounds_the_update_chain(monkeypatch):
    _, _, p = _regression_program()
    chain = []
    refreshes = []
    real_replace = linalg.BasisFactorization.replace_column
    real_refresh = engine.DictionaryState.refresh

    def replace(self, k, a_new):
        out = real_replace(self, k, a_new)
        chain.append(self.updates_since_refactor)
        return out

    def refresh(self):
        refreshes.append(len(chain))
        real_refresh(self)

    monkeypatch.setattr(linalg.BasisFactorization, "replace_column", replace)
    monkeypatch.setattr(engine.DictionaryState, "refresh", refresh)
    path = solve_path(p)
    assert path.num_pivots > linalg.REFRESH_LIMIT
    assert max(chain) == linalg.REFRESH_LIMIT
    # one refresh builds the start state, then one per REFRESH_LIMIT updates
    assert refreshes == [0] + list(range(
        linalg.REFRESH_LIMIT, path.num_pivots + 1, linalg.REFRESH_LIMIT))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_freed_arrays_are_reused_without_page_faults():
    # Back-to-back solves free and reallocate arrays of a few MB; the heap
    # must keep them rather than fault fresh pages in for every solve.
    import resource

    np.ones(1 << 20)  # 8 MB, freed at once
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(1 << 20)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


# ------------------------------------------- split factorization in the engine


def _diffnet_program(d=10, seed=3):
    S_X, S_Y, _ = gen_diffnet(DiffNetGenConfig(d=d, n=100, sparsity=4, rng_seed=seed))
    return build_diffnet(DiffNetInstance.from_covariances(S_X, S_Y))


def _factor_dense_basis(monkeypatch):
    """Make the engine LU-factor the whole m x m basis A[:, basic]; returns
    the list of bases factored.

    The unit columns assembled here equal the slack columns of A exactly,
    so the factored matrix is A[:, basic] bit for bit.
    """
    split = linalg.BasisFactorization
    factored = []

    def dense(cols, slack_rows=None):
        if slack_rows is None:
            return split(cols)
        m = len(slack_rows)
        B = np.zeros((m, m))
        B[:, np.asarray(slack_rows) < 0] = cols
        for pos, row in enumerate(slack_rows):
            if row >= 0:
                B[row, pos] = 1.0
        factored.append(B)
        return split(B)

    monkeypatch.setattr(linalg, "BasisFactorization", dense)
    return factored


@pytest.mark.parametrize("program", [
    lambda: _regression_program()[2],
    _diffnet_program,
], ids=["dantzig-n60-d30", "diffnet-d10"])
def test_split_factorization_follows_the_dense_path(monkeypatch, program):
    p = program()
    split = solve_path(p)
    with monkeypatch.context() as mp:
        factored = _factor_dense_basis(mp)
        dense = solve_path(p)
    assert len(factored) > 1  # the start and at least one refresh
    assert split.num_pivots > linalg.REFRESH_LIMIT
    assert _pivot_sequence(split) == _pivot_sequence(dense)
    assert split.termination is dense.termination
    assert [s.lambda_lo for s in split.segments] == pytest.approx(
        [s.lambda_lo for s in dense.segments], abs=BP_TOL)


def test_lu_factor_sees_only_the_structural_core(monkeypatch):
    _, _, p = _regression_program()
    dims, structural = [], []
    real_lu = linalg.lu_factor
    real_refresh = engine.DictionaryState.refresh

    def lu_factor(a, *args, **kwargs):
        dims.append(np.shape(a)[0])
        return real_lu(a, *args, **kwargs)

    def refresh(self):
        structural.append(int(np.sum(self.program.A.unit_rows(self.partition.basic) < 0)))
        real_refresh(self)

    monkeypatch.setattr(linalg, "lu_factor", lu_factor)
    monkeypatch.setattr(engine.DictionaryState, "refresh", refresh)
    path = solve_path(p)
    assert path.num_pivots > linalg.REFRESH_LIMIT
    assert structural[0] == 0  # the all-slack start factors nothing
    assert dims == [k for k in structural if k > 0]


# ------------------------------------------------------ implicit slack columns


def _materialized_path(p):
    """``p`` solved as its ``[A | I]`` formed as one dense equality program,
    from the slack basis; the whole basis is factored."""
    std, info = to_standard_form(p)
    dense = ParametricProgram(A=std.A.to_dense(), b=std.b, b_bar=std.b_bar,
                              c=std.c, c_bar=std.c_bar)
    return solve_path(dense, initial_basis=range(info.original_n, std.n))


def _random_programs(count=10, seed=4242):
    rng = np.random.default_rng(seed)
    return [random_less_equal(rng) for _ in range(count)]


@pytest.mark.parametrize("programs", [
    lambda: [_regression_program()[2]],
    lambda: [_diffnet_program()],
    _random_programs,
], ids=["dantzig-n60-d30", "diffnet-d10", "random-10"])
def test_implicit_slacks_follow_the_materialized_path(programs):
    for p in programs():
        implicit = solve_path(p)
        materialized = _materialized_path(p)
        assert implicit.num_cols == materialized.num_cols == p.n + p.m
        assert _pivot_sequence(implicit) == _pivot_sequence(materialized)
        assert implicit.termination is materialized.termination
        assert [s.lambda_lo for s in implicit.segments] == pytest.approx(
            [s.lambda_lo for s in materialized.segments], abs=BP_TOL)


def test_solve_never_forms_the_standard_form(monkeypatch):
    calls = []

    def spy(self):
        calls.append(self)
        raise AssertionError("[A | I] formed during a solve")

    monkeypatch.setattr(WithSlacks, "to_dense", spy)
    _, _, p = _regression_program(n=100, d=200, seed=2)
    assert (p.m, p.n) == (400, 400)
    tracemalloc.start()
    try:
        path = solve_path(p, max_pivots=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.num_pivots == 20
    assert calls == []
    assert peak < 8 * p.m * (p.n + p.m)  # the bytes of [A | I]


# ------------------------------------------- compact windows, rebuilt on demand

_ARRAYS = ("primal_indices", "primal_base", "primal_slope",
           "dual_indices", "dual_base", "dual_slope")


def _long_dantzig():
    """A Dantzig full path of 308 pivots: six windows closed by a refresh,
    then the last."""
    X, y, _ = gen_dantzig(DantzigGenConfig(n=50, d=150, rng_seed=1))
    return DantzigInstance(X, y)


def _dense_as_emitted(monkeypatch, p, **kwargs):
    """Solve p, recording each dense segment as the solve makes it compact
    (``primal_below`` selects the entries it keeps), in that order."""
    real, dense = PathSegment.primal_below, []

    def primal_below(self, hi):
        dense.append(self)
        return real(self, hi)

    with monkeypatch.context() as patch:
        patch.setattr(PathSegment, "primal_below", primal_below)
        return solve_path(p, **kwargs), dense


def _count_rebuilds(monkeypatch):
    """Count fresh dictionaries built from here on: a replay starts with one."""
    real, calls = engine.DictionaryState.refresh, []

    def refresh(self):
        calls.append(1)
        real(self)

    monkeypatch.setattr(engine.DictionaryState, "refresh", refresh)
    return calls


@pytest.mark.parametrize("case", ["certified", "certificates-off", "redo", "diffnet",
                                  "equality"])
def test_compact_segments_rebuild_as_emitted(monkeypatch, case):
    p, basis = {"diffnet": lambda: (_diffnet_program(), None),
                "equality": _dense_equality_program}.get(
        case, lambda: (build_dantzig(_long_dantzig()), None))()
    if case == "redo":
        sizes = _corrupt_reduced_costs(monkeypatch, at_pivot=5)
    path, emitted = _dense_as_emitted(monkeypatch, p, initial_basis=basis,
                                      check_certificates=case != "certificates-off")
    assert path.num_pivots > linalg.REFRESH_LIMIT
    # every segment is compact, each window's first and the last window's too
    assert all(isinstance(seg, CompactSegment) for seg in path.segments)
    # each window is one batch here, so nothing compact was dropped by the redo
    assert len(emitted) == len(path.segments)
    starts = [k for k, seg in enumerate(path.segments) if seg.pos == 0]
    if case == "redo":  # the first window failed at pivot 5; segment 4 was redone
        assert sizes[0] > 4 and starts[:2] == [0, 4]
    assert len(starts) == len({id(seg.rebuilt) for seg in path.segments}) >= 2
    for k, seg in enumerate(path.segments):  # positions count from the window's first
        first = max(s for s in starts if s <= k)
        assert seg.pos == k - first and seg.rebuilt is path.segments[first].rebuilt
    n0 = p.n  # the caller's columns: all of an equality program's
    for k, (seg, was) in enumerate(zip(path.segments, emitted, strict=True)):
        assert (seg.lambda_lo, seg.lambda_hi, seg.n_cols, seg.n_structural) == (
            was.lambda_lo, was.lambda_hi, was.n_cols, n0)
        for name in _ARRAYS:
            a, b = getattr(seg, name), getattr(was, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (k, name)
            assert not a.flags.writeable  # shared by every reader of the window
        for a, b in zip(seg.structural, was.primal_below(n0), strict=True):  # all it holds
            assert a.dtype == b.dtype and np.array_equal(a, b), k
        for hi in (n0 // 2, n0, seg.n_cols):  # stored entries, then (on <=) rebuilt ones
            for a, b in zip(seg.primal_below(hi), was.primal_below(hi), strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b), (k, hi)
        np.testing.assert_array_equal(evaluate_primal(seg, seg.lambda_lo),
                                      evaluate_primal(was, was.lambda_lo))


def test_reading_the_segments_in_order_rebuilds_each_window_once(monkeypatch):
    path = solve_path(build_dantzig(_long_dantzig()))
    windows = len({id(seg.rebuilt) for seg in path.segments if isinstance(seg, CompactSegment)})
    assert windows == 7  # six closed by a refresh, and the last
    rebuilds = _count_rebuilds(monkeypatch)

    def read_all():
        for seg in path.segments:
            for name in _ARRAYS:
                getattr(seg, name)
        return len(rebuilds)

    assert read_all() == windows
    path.segments.reverse()  # the last window read is still held
    assert read_all() == 2 * windows - 1


def test_recovery_rebuilds_no_window(monkeypatch, tmp_path):
    inst = _long_dantzig()
    dantzig = solve_path(build_dantzig(inst))
    S_X, S_Y, _ = gen_diffnet(DiffNetGenConfig(d=10, n=100, sparsity=4, rng_seed=3))
    dn = DiffNetInstance.from_covariances(S_X, S_Y)
    diffnet = solve_path(build_diffnet(dn))
    for path in (dantzig, diffnet):
        assert any(isinstance(seg, CompactSegment) for seg in path.segments)
    rebuilds = _count_rebuilds(monkeypatch)
    orig = recover_dantzig(dantzig)
    orig.support_at(0.0)
    pio.save_original_path_csv(tmp_path / "theta.csv", orig)
    recover_diffnet(diffnet, dn).support_at(diffnet.terminal_lambda)
    stop = diffnet_sparsity_stop(dn, 1000)
    assert not any(stop(seg) for seg in diffnet.segments)
    assert rebuilds == []


def test_a_path_holds_a_fraction_of_its_dense_segments():
    path = solve_path(build_dantzig(_long_dantzig()))
    assert path.num_pivots > 150
    dense = sum(getattr(seg, name).nbytes for seg in path.segments for name in _ARRAYS)
    assert path.nbytes <= 0.25 * dense
    # an equality program's segments keep their primal entries, all structural
    p, basis = _dense_equality_program()
    eq = solve_path(p, initial_basis=basis)
    assert eq.num_pivots > linalg.REFRESH_LIMIT
    primal = sum(getattr(seg, name).nbytes for seg in eq.segments for name in _ARRAYS[:3])
    assert eq.nbytes == primal < sum(
        getattr(seg, name).nbytes for seg in eq.segments for name in _ARRAYS)


def test_a_replay_that_diverges_raises(monkeypatch):
    path = solve_path(_regression_program()[2])
    real = engine._pivot_at

    def pivot_at(state, tight, lam):  # the replay's pivot takes another column in
        return dataclasses.replace(real(state, tight, lam), entering=-1)

    monkeypatch.setattr(engine, "_pivot_at", pivot_at)
    with pytest.raises(RuntimeError, match="replay diverged"):
        path.segments[1].dual_base


@pytest.mark.parametrize("certify", [True, False], ids=["certified", "certificates-off"])
def test_a_solved_path_is_freed_by_reference_counting(certify):
    # a replay closure that held the path would make a cycle, and each
    # path's rebuilt window would wait for the cyclic collector
    p = build_dantzig(_long_dantzig())
    gc.disable()
    try:
        path = solve_path(p, check_certificates=certify)
        compact = [seg for seg in path.segments if isinstance(seg, CompactSegment)]
        assert len({id(seg.rebuilt) for seg in compact}) >= 2
        assert compact[0].dual_base.size  # the path's rebuilt window is now held
        alive = weakref.ref(path)
        del path, compact
        assert alive() is None
    finally:
        gc.enable()


def test_a_sparsity_stopped_diffnet_solve_holds_no_dense_window():
    # perfbench's diffnet-sparsity shape: m = 3200, 48 pivots, no refresh, so
    # every segment is in one window; dense, they alone took 7.5 MB
    S_X, S_Y, delta0 = gen_diffnet(DiffNetGenConfig(d=40, n=100, sparsity=4),
                                   rng=np.random.default_rng([1, 0]))
    inst = DiffNetInstance.from_covariances(S_X, S_Y)
    p = build_diffnet(inst)
    stop = diffnet_sparsity_stop(inst, int(np.count_nonzero(np.abs(delta0) > SUPPORT_TOL)))
    tracemalloc.start()
    try:
        path = solve_path(p, check_certificates=False, stop_callback=stop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.termination is Termination.REACHED_TARGET
    assert path.num_pivots > 40 and path.nbytes < 0.3e6
    assert peak <= 3e6


def _refreshes(monkeypatch):
    """Record each ``DictionaryState.refresh``: the state and its basis."""
    real, calls = engine.DictionaryState.refresh, []

    def refresh(self):
        calls.append((self, self.partition.basic.copy()))
        real(self)

    monkeypatch.setattr(engine.DictionaryState, "refresh", refresh)
    return calls


def test_batches_are_certified_as_they_fill(monkeypatch):
    _, _, p = _regression_program()
    clean = solve_path(p)

    def corrupted(at_pivot):
        with monkeypatch.context() as patch:
            sizes = _corrupt_reduced_costs(patch, at_pivot)
            refreshes = _refreshes(patch)
            return solve_path(p), sizes, refreshes

    _, _, whole = corrupted(at_pivot=9)  # each window in one batch
    monkeypatch.setattr(engine, "CERT_BATCH_FLOATS", 4 * (p.n + p.m))
    with monkeypatch.context() as patch:
        sizes = _corrupt_reduced_costs(patch, at_pivot=10 ** 6)  # counts the checks
        batched = solve_path(p)
    # four entries a check, and a refresh's check adds the dictionary it refreshes
    assert sizes[:12] == [4] * 12 and max(sizes) <= 4 + 1
    assert batched.events == clean.events
    for a, b in zip(batched.segments, clean.segments, strict=True):
        assert (a.lambda_lo, a.lambda_hi) == (b.lambda_lo, b.lambda_hi)
        for name in _ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name))
    # pivot 9's dictionary is the first entry of the third batch, so the
    # segment redone, 8, was already compact: its basis comes from the
    # window's first partition and its pivots, with no replay
    path, sizes, refreshes = corrupted(at_pivot=9)
    _same_path(path, clean)
    assert sizes[:3] == [4] * 3
    assert len({id(state) for state, _ in refreshes}) == 1  # the solve's own
    assert len(refreshes) == len(whole)
    for (_, basis), (_, again) in zip(refreshes, whole):
        assert np.array_equal(basis, again)
    assert np.array_equal(refreshes[1][1], clean.segments[8].primal_indices)


def test_a_refresh_that_lands_on_a_full_batch_is_one_check(monkeypatch):
    # 5,300 standard-form columns, so a batch holds 49 entries: the refresh
    # at pivot 50 adds the dictionary it replaces to a full batch
    X, y, _ = gen_dantzig(DantzigGenConfig(n=100, d=1325, s=5), rng=np.random.default_rng(1))
    p = build_dantzig(DantzigInstance(X, y))
    off = solve_path(p, max_pivots=120, check_certificates=False)
    real, passes = engine._window_verdicts, []

    def verdicts(p, window):
        passes.append(len(window))
        return real(p, window)

    monkeypatch.setattr(engine, "_window_verdicts", verdicts)
    on = solve_path(p, max_pivots=120)
    assert engine.CERT_BATCH_FLOATS // on.num_cols == linalg.REFRESH_LIMIT - 1
    assert passes == [linalg.REFRESH_LIMIT] * 2 + [20]
    assert on.events == off.events
    for a, b in zip(on.segments, off.segments, strict=True):
        assert (a.lambda_lo, a.lambda_hi) == (b.lambda_lo, b.lambda_hi)
        for name in _ARRAYS:
            x, z = getattr(a, name), getattr(b, name)
            assert x.dtype == z.dtype and x.tobytes() == z.tobytes()


@pytest.mark.parametrize("certify", [True, False], ids=["certified", "certificates-off"])
def test_a_windows_first_segment_goes_compact_as_it_is_emitted(monkeypatch, certify):
    # the stop callback sees segment k in iteration k; a window's first
    # segment is in no batch, so it goes compact before the next call
    seen, made, real = [], [], engine.CompactSegment

    def compact(*args):
        seg = real(*args)
        made.append((seg.pos, len(seen)))
        return seg

    monkeypatch.setattr(engine, "CompactSegment", compact)
    path = solve_path(build_dantzig(_long_dantzig()), check_certificates=certify,
                      stop_callback=seen.append)
    assert len(made) == len(path.segments) == len(seen) + 1  # the last ends the path
    starts = [k for k, seg in enumerate(path.segments) if seg.pos == 0]
    assert len(starts) == 7
    for k in starts:
        assert made[k] == (0, k + 1)
