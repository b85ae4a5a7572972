"""Path engine: breakpoint selection, pivoting, terminations, certificates."""

import io
import logging
import platform
import tracemalloc

import numpy as np
import pytest

from parasimplex import core, engine, linalg
from parasimplex.core import (
    BasisPartition,
    ParametricProgram,
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
from parasimplex.errors import InfeasibleAtLargeLambda, UpdateDegenerate
from parasimplex.experiments import (
    DantzigGenConfig,
    DiffNetGenConfig,
    gen_dantzig,
    gen_diffnet,
)
from parasimplex.oracle import random_less_equal
from parasimplex.reductions import (
    DantzigInstance,
    DiffNetInstance,
    build_dantzig,
    build_diffnet,
    recover_dantzig,
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


def test_trace_stream():
    buf = io.StringIO()
    solve_path(_identity_dantzig(), trace=buf)
    lines = [ln for ln in buf.getvalue().splitlines() if ln]
    assert len(lines) == 2
    assert all(len(ln.split("\t")) == 7 for ln in lines)


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


def test_post_pivot_check_passes_on_clean_dictionary():
    state, lam = _pivoted_state()
    assert engine._post_pivot_ok(state, lam)


def test_post_pivot_check_catches_reduced_cost_drift(caplog):
    state, lam = _pivoted_state()
    state.zN_base = state.zN_base + 1e-3
    with caplog.at_level(logging.DEBUG, logger="parasimplex.engine"):
        assert not engine._post_pivot_ok(state, lam)
    assert "drift" in caplog.text


def test_post_pivot_check_catches_wrong_factorization(caplog):
    state, lam = _pivoted_state()
    state.fact = linalg.BasisFactorization(np.eye(state.program.m))
    with caplog.at_level(logging.DEBUG, logger="parasimplex.engine"):
        assert not engine._post_pivot_ok(state, lam)
    assert "A_B' y - c_B residual" in caplog.text


@pytest.mark.parametrize("slot", ["structural", "slack"])
def test_post_pivot_check_reads_every_basic_value(caplog, slot):
    # A x is formed from the basic entries only; a wrong value in either
    # kind of basic slot must still show up as a primal residual
    state, lam = _pivoted_state()
    is_slack = state.partition.basic >= state.program.n
    assert is_slack.any() and (~is_slack).any()
    k = int(np.flatnonzero(is_slack if slot == "slack" else ~is_slack)[0])
    state.xB_base[k] += 1e-3
    with caplog.at_level(logging.DEBUG, logger="parasimplex.engine"):
        assert not engine._post_pivot_ok(state, lam)
    assert "certificate failed" in caplog.text


def test_failed_check_is_retried_on_a_fresh_factorization(monkeypatch):
    _, _, p = _regression_program(n=20, d=8, seed=4)
    clean = solve_path(p)
    real = engine._post_pivot_ok
    calls = []

    def fail_once(state, lam):
        calls.append(lam)
        return len(calls) > 1 and real(state, lam)

    monkeypatch.setattr(engine, "_post_pivot_ok", fail_once)
    retried = solve_path(p)
    assert _pivot_sequence(retried) == _pivot_sequence(clean)
    assert retried.termination is clean.termination
    assert [s.lambda_lo for s in retried.segments] == pytest.approx(
        [s.lambda_lo for s in clean.segments], abs=BP_TOL)


def test_check_failing_twice_is_numerical_failure(monkeypatch):
    _, _, p = _regression_program(n=20, d=8, seed=4)
    first_breakpoint = solve_path(p).events[0].lambda_star
    monkeypatch.setattr(engine, "_post_pivot_ok", lambda state, lam: False)
    path = solve_path(p)
    assert path.termination is Termination.NUMERICAL_FAILURE
    assert path.num_pivots == 0
    assert path.terminal_lambda == pytest.approx(first_breakpoint, abs=BP_TOL)


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


def test_certificates_do_not_change_the_pivots():
    _, _, p = _regression_program(n=20, d=8, seed=4)
    on = solve_path(p, check_certificates=True)
    off = solve_path(p, check_certificates=False)
    assert on.num_pivots > 0
    assert _pivot_sequence(on) == _pivot_sequence(off)


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
        structural.append(int(np.sum(self.partition.basic < self.slack.original_n)))
        real_refresh(self)

    monkeypatch.setattr(linalg, "lu_factor", lu_factor)
    monkeypatch.setattr(engine.DictionaryState, "refresh", refresh)
    path = solve_path(p)
    assert path.num_pivots > linalg.REFRESH_LIMIT
    assert structural[0] == 0  # the all-slack start factors nothing
    assert dims == [k for k in structural if k > 0]


# ------------------------------------------------------ implicit slack columns


def _materialized_path(p):
    """``p`` solved as its ``[A | I]`` equality program from the slack basis."""
    std, info = to_standard_form(p)
    return solve_path(std, initial_basis=range(info.original_n, std.n))


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
    real = core.to_standard_form

    def spy(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(core, "to_standard_form", spy)
    monkeypatch.setattr(engine, "to_standard_form", spy, raising=False)
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
