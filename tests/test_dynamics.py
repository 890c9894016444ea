"""Transient stepping: pressure elimination, accuracy, guards, stationarity.

The pressure elimination is checked against a dense block solve of the raw
coupled equations (a second, independent route to the same fields), and the
time steppers are checked against scalar reductions of the model that hold
exactly when the gas fraction is zero: the film decouples and every cell
follows the single-bubble ordinary differential equation.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import filmcav.dynamics as dynamics
from filmcav.dynamics import (
    MODE_INERTIAL, ChordCarry, StepConfig, TransientState, TransientWatch,
    eliminate_pressure, initial_state, run_transient,
    step_inertial, step_inertialess,
)
from filmcav.elliptic import (assemble_operator, convective_divergence,
                              film_pencil, film_residual)
from filmcav.errors import (ConfigurationError, PositivityLossError,
                            StepFailureError)
from filmcav.grid import BC_DIRICHLET, BC_PERIODIC, Grid, gap_function, grid_for_params
from filmcav.physics import (PhysicalParams, compute_derived, eval_f1,
                             eval_f2, eval_f3, eval_f4, eval_f5)
from filmcav.stationary import solve_stationary

DEFAULT = PhysicalParams()

#: boundary cases of the convection tests; their ids also name the one
#: convection scheme, first-order upwind
UPWIND_BCS = pytest.mark.parametrize("bc", [BC_PERIODIC, BC_DIRICHLET],
                                     ids=lambda bc: f"{bc}-upwind")


def test_step_config_validation():
    with pytest.raises(ConfigurationError):
        StepConfig(dt=0.0)
    with pytest.raises(ConfigurationError):
        StepConfig(dt=np.inf)
    with pytest.raises(ConfigurationError):
        StepConfig(picard_tol=0.0)
    with pytest.raises(ConfigurationError):
        StepConfig(picard_tol=1e-2)
    with pytest.raises(ConfigurationError):
        StepConfig(picard_max=0)
    with pytest.raises(ConfigurationError):
        StepConfig(mode="semi-implicit")
    # the error tolerance lies strictly between picard_tol and 1
    for error_tol in (0.0, 1e-8, 1e-9, 1.0, 2.0):
        with pytest.raises(ConfigurationError, match="error_tol"):
            StepConfig(picard_tol=1e-8, error_tol=error_tol)
    assert StepConfig(picard_tol=1e-8, error_tol=2e-8).error_tol == 2e-8


def test_initial_state():
    g = Grid(4, 5, 1.0, 1.0)
    s = initial_state(g, DEFAULT)
    assert s.t == 0.0
    assert np.all(s.R == DEFAULT.R0)
    assert s.Rdot is None
    s = initial_state(g, DEFAULT, mode=MODE_INERTIAL)
    assert s.Rdot is not None and np.all(s.Rdot == 0.0)


@pytest.mark.parametrize("bc", [BC_PERIODIC, BC_DIRICHLET])
def test_pressure_elimination_matches_dense_block_solve(bc):
    # Solve the raw coupled pair -- film equation plus growth law -- as one
    # dense 2n x 2n system and compare field by field.
    rng = np.random.default_rng(61)
    p = PhysicalParams(ecc=0.3)
    grid = Grid(8, 6, 2.0 * np.pi * p.J_r, p.B, bc_x1=bc)
    R = p.R0 * rng.uniform(0.85, 1.15, size=grid.shape)
    h = gap_function(grid, p)
    U = (2.0, 0.5)
    G, pres = eliminate_pressure(grid, R, h, U, p)

    n = grid.n_cells
    K = assemble_operator(grid, eval_f3(R, p) * h ** 3).toarray()
    conv = convective_divergence(grid, U, h * eval_f4(R, p)).ravel()
    A = np.zeros((2 * n, 2 * n))
    b = np.zeros(2 * n)
    A[:n, :n] = K
    A[:n, n:] = np.diag((h * eval_f5(R, p)).ravel())
    b[:n] = -conv
    A[n:, :n] = np.eye(n)
    A[n:, n:] = np.diag((R * eval_f2(R, p)).ravel())
    b[n:] = eval_f1(R, p).ravel()
    x = np.linalg.solve(A, b)
    assert np.allclose(pres.ravel(), x[:n], rtol=1e-9,
                       atol=1e-9 * np.max(np.abs(x[:n])))
    assert np.allclose(G.ravel(), x[n:], rtol=1e-9,
                       atol=1e-9 * np.max(np.abs(x[n:])))


def test_pressure_elimination_satisfies_both_equations():
    rng = np.random.default_rng(67)
    p = PhysicalParams(ecc=0.25)
    grid = grid_for_params(p, 12, 6)
    R = p.R0 * rng.uniform(0.9, 1.1, size=grid.shape)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    G, pres = eliminate_pressure(grid, R, h, U, p)
    # growth law holds pointwise by construction
    assert np.allclose(pres + R * eval_f2(R, p) * G, eval_f1(R, p),
                       rtol=1e-12, atol=1e-9)
    # film equation residual is small against its gross flux magnitude
    K = assemble_operator(grid, eval_f3(R, p) * h ** 3)
    conv = convective_divergence(grid, U, h * eval_f4(R, p)).ravel()
    resid = K @ pres.ravel() + (h * eval_f5(R, p) * G).ravel() + conv
    gross = abs(K) @ np.abs(pres.ravel()) + np.abs(conv)
    assert np.linalg.norm(resid) < 1e-9 * np.linalg.norm(gross)


def test_zero_gas_fraction_decouples_the_film():
    # With alpha0 = 0 the mixture closures lose their radius dependence
    # (f5 = 0) and the entrained flux is uniform on a parallel gap, so the
    # slaved pressure is identically zero and the growth rate is the scalar
    # single-bubble law in every cell.
    rng = np.random.default_rng(71)
    p = PhysicalParams(alpha0=0.0, ecc=0.0)
    grid = grid_for_params(p, 8, 5)
    R = p.R0 * rng.uniform(0.8, 1.2, size=grid.shape)
    h = gap_function(grid, p)
    G, pres = eliminate_pressure(grid, R, h, (p.surface_speed, 0.0), p)
    assert np.max(np.abs(pres)) < 1e-9
    want = eval_f1(R, p) / (R * eval_f2(R, p))
    assert np.allclose(G, want, rtol=1e-9)


def _jacobian_case(bc, shape=(8, 6), scales=(1.0, 1.0), U=(2.0, -0.5),
                   seed=73):
    """A rough radius field on an eccentric gap, sliding in both directions
    by default; ``scales`` stretch the journal domain's two lengths."""
    rng = np.random.default_rng(seed)
    p = PhysicalParams(ecc=0.3)
    grid = Grid(*shape, scales[0] * 2.0 * np.pi * p.J_r, scales[1] * p.B,
                bc_x1=bc)
    R = p.R0 * rng.uniform(0.85, 1.15, size=grid.shape)
    return p, grid, R, gap_function(grid, p), U, 1e-3


#: one sliding-velocity component in m/s: zero, or either sign
SPEEDS = st.one_of(st.just(0.0), st.floats(0.5, 4.0), st.floats(-4.0, -0.5))


@UPWIND_BCS
@settings(max_examples=6)
@given(shape=st.tuples(st.integers(4, 12), st.integers(4, 12)),
       scales=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
       U=st.tuples(SPEEDS, SPEEDS), seed=st.integers(0, 2 ** 32 - 1))
@example(shape=(8, 6), scales=(1.0, 1.0), U=(2.0, -0.5), seed=73)
def test_backward_euler_jacobian_matches_finite_differences(bc, shape, scales,
                                                            U, seed):
    # At the slaved rate S = G(R), F(R, G(R)) = 0 gives G' = P^-1 B, so the
    # step matrix P - dt B is P (I - dt G'(R)): compare with central
    # differences of the backward-Euler residual R - R_old - dt G(R).
    p, grid, R, h, U, dt = _jacobian_case(bc, shape, scales, U, seed)
    G, _ = eliminate_pressure(grid, R, h, U, p)
    B, P = film_pencil(grid, R, G, h, U, p)
    A = P - dt * B

    n = grid.n_cells
    eps = 1e-6 * p.R0
    J = np.eye(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        Gp, _ = eliminate_pressure(grid, R + e.reshape(grid.shape), h, U, p)
        Gm, _ = eliminate_pressure(grid, R - e.reshape(grid.shape), h, U, p)
        J[:, j] -= dt * (Gp - Gm).ravel() / (2.0 * eps)
    want = P.toarray() @ J
    err = np.linalg.norm(A.toarray() - want) / np.linalg.norm(want - P.toarray())
    assert err < 1e-8, err


def _off_solution(bc, seed=83):
    """The Jacobian case of :func:`_jacobian_case` as the start ``R_old`` of
    a step, with a positive iterate ``x`` that does not solve it."""
    p, grid, R_old, h, U, dt = _jacobian_case(bc)
    rng = np.random.default_rng(seed)
    x = R_old * rng.uniform(0.95, 1.05, size=grid.shape)
    return p, grid, R_old, x, h, U, dt


@UPWIND_BCS
def test_pencil_residual_is_the_implicit_equation_times_the_pencil(bc):
    # P (R_old + dt G(x) - x) = -dt F(x, S) at the backward-difference rate
    # S = (x - R_old) / dt, with the pencil P = M diag(x f2)
    p, grid, R_old, x, h, U, dt = _off_solution(bc)
    G, _ = eliminate_pressure(grid, x, h, U, p)
    S = (x - R_old) / dt
    F, _ = film_residual(grid, x, S, h, U, p)
    _, P = film_pencil(grid, x, S, h, U, p)
    lhs = P @ (R_old + dt * G - x).ravel()
    want = -dt * F.ravel()
    assert np.linalg.norm(lhs - want) <= 1e-12 * np.linalg.norm(want)


@UPWIND_BCS
def test_pencil_residual_jacobian_matches_finite_differences(bc):
    # d/dx F(x, (x - R_old) / dt) = (P - dt B) / dt at the backward-
    # difference rate; the error is measured against the part of the
    # Jacobian beyond P / dt, as in the finite-difference test of the step
    # matrix at the slaved rate
    p, grid, R_old, x, h, U, dt = _off_solution(bc)
    B, P = film_pencil(grid, x, (x - R_old) / dt, h, U, p)
    A = P - dt * B

    def residual(y):
        return film_residual(grid, y, (y - R_old) / dt, h, U, p)[0]

    n = grid.n_cells
    eps = 1e-6 * p.R0
    J = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        Fp = residual(x + e.reshape(grid.shape))
        Fm = residual(x - e.reshape(grid.shape))
        J[:, j] = (Fp - Fm).ravel() / (2.0 * eps)
    err = (np.linalg.norm(A.toarray() / dt - J)
           / np.linalg.norm(J - P.toarray() / dt))
    assert err < 1e-8, err


def _picard_reference(grid, R, h, U, p, dts):
    """Backward Euler by plain fixed-point iteration, solved to rounding,
    with the step sizes ``dts``."""
    for dt in dts:
        x = R
        for _ in range(500):
            G, _ = eliminate_pressure(grid, x, h, U, p)
            x_next = R + dt * G
            done = np.max(np.abs(x_next - x)) < 1e-14 * np.max(np.abs(x))
            x = x_next
            if done:
                break
        else:
            raise AssertionError("reference Picard loop did not converge")
        R = x
    return R


@pytest.mark.parametrize("carried", [True, False])
def test_chord_newton_steps_match_plain_picard(carried):
    p = PhysicalParams(ecc=0.4)
    grid = grid_for_params(p, 16, 8)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    cfg = StepConfig(dt=3e-4, picard_tol=1e-10)
    state = initial_state(grid, p)
    chord = ChordCarry() if carried else None
    iterations = []
    dts = []
    for _ in range(10):
        state, stats = step_inertialess(grid, state, h, U, p, cfg, chord=chord)
        iterations.append(stats.iterations)
        dts.append(stats.dt_used)
    assert max(iterations) > 2             # the chord iteration did the work
    ref = _picard_reference(grid, initial_state(grid, p).R, h, U, p, dts)
    assert np.max(np.abs(state.R - ref) / ref) < 1e-8


def _scalar_rate(r, params):
    return eval_f1(r, params) / (r * eval_f2(r, params))


def _scalar_rk4(r0, dt, n, params):
    r = r0
    for _ in range(n):
        k1 = _scalar_rate(r, params)
        k2 = _scalar_rate(r + 0.5 * dt * k1, params)
        k3 = _scalar_rate(r + 0.5 * dt * k2, params)
        k4 = _scalar_rate(r + dt * k3, params)
        r = r + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return r


def test_backward_euler_tracks_the_scalar_reduction():
    p = PhysicalParams(alpha0=0.0, ecc=0.0)
    grid = grid_for_params(p, 4, 4)
    h = gap_function(grid, p)
    dt, n = 1e-6, 100
    state = TransientState(t=0.0, R=np.full(grid.shape, 1.05 * p.R0))
    cfg = StepConfig(dt=dt, picard_tol=1e-10)
    for _ in range(n):
        state, _ = step_inertialess(grid, state, h, (0.0, 0.0), p, cfg)
    ref = _scalar_rk4(1.05 * p.R0, dt / 100.0, 100 * n, p)
    assert state.t == pytest.approx(n * dt, rel=1e-12)
    assert np.allclose(state.R, ref, rtol=2e-4)
    assert np.ptp(state.R) < 1e-12 * p.R0        # uniformity is preserved


def test_backward_euler_is_first_order():
    p = PhysicalParams(alpha0=0.0, ecc=0.0)
    grid = grid_for_params(p, 4, 4)
    h = gap_function(grid, p)
    T = 4e-4
    ref = _scalar_rk4(1.1 * p.R0, T / 40000, 40000, p)
    errors = []
    for n in (20, 40, 80):
        cfg = StepConfig(dt=T / n, picard_tol=1e-12, picard_max=200)
        state = TransientState(t=0.0, R=np.full(grid.shape, 1.1 * p.R0))
        for _ in range(n):
            state, _ = step_inertialess(grid, state, h, (0.0, 0.0), p, cfg)
        errors.append(abs(float(state.R[0, 0]) - ref))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 0.8) and np.all(orders < 1.2), orders


def _journal_case(ecc=0.4, shape=(16, 8)):
    p = PhysicalParams(ecc=ecc)
    grid = grid_for_params(p, *shape)
    return p, grid, gap_function(grid, p), (p.surface_speed, 0.0)


def test_error_test_rejects_and_retries_smaller():
    # a first step of 2e-3 s from rest overshoots the fast transient by far:
    # the error test rejects it, counts the rejections apart from the
    # halvings, and retries at smaller sizes until the estimate passes
    p, grid, h, U = _journal_case()
    cfg = StepConfig(dt=2e-3)
    chord = ChordCarry()
    state, stats = step_inertialess(grid, initial_state(grid, p), h, U, p,
                                    cfg, chord=chord)
    assert stats.rejections >= 1 and stats.halvings == 0
    assert cfg.dt * 0.2 ** stats.rejections <= stats.dt_used < cfg.dt
    assert stats.iterations > stats.rejections + 1   # every attempt counts
    assert 0.0 < chord.err_prev <= 1.0          # the accepted estimate passed
    # the next step starts from the controller's proposal
    proposal = chord.dt_next
    _, stats = step_inertialess(grid, state, h, U, p, cfg, chord=chord)
    assert stats.rejections == 0 and stats.dt_used == proposal


def test_every_accepted_step_solves_the_implicit_equation():
    # A state within 1e-11 of stationary moves by far less than picard_tol
    # under an explicit update even at a long step, yet backward Euler at
    # that step is a different equation: the accepted step must solve it.
    p, grid, h, U = _journal_case()
    R_s, _, report = solve_stationary(grid, h, U, p)
    assert report.converged
    i, j = np.indices(grid.shape)
    R_old = R_s * (1.0 + 1e-11 * (-1.0) ** (i + j))
    dt, cfg = 0.5, StepConfig(dt=0.5)
    new, stats = step_inertialess(
        grid, TransientState(t=0.0, R=R_old), h, U, p, cfg)
    assert stats.dt_used == dt
    residual = np.max(np.abs(R_old + dt * new.Rdot - new.R))
    assert residual / np.max(np.abs(new.R)) < cfg.picard_tol


def test_step_iterations_count_the_pressure_eliminations(monkeypatch):
    calls = []
    eliminate = dynamics.eliminate_pressure

    def counted(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "eliminate_pressure", counted)
    p, grid, h, U = _journal_case()
    cfg = StepConfig(dt=2e-3)
    state = initial_state(grid, p)
    state.Rdot, _ = eliminate(grid, state.R, h, U, p)
    chord = ChordCarry()
    # from rest the error test rejects the first three attempts, each after
    # the one elimination that certifies its iterate, then a plain step
    # follows; a step from a state without a rate counts its own elimination
    counts = []
    for given in (True, True, False):
        calls.clear()
        if not given:
            state.Rdot = None
        state, stats = step_inertialess(grid, state, h, U, p, cfg, chord=chord)
        assert stats.iterations == len(calls)
        counts.append(len(calls))
    assert counts == [4, 1, 2]


def test_chained_steps_eliminate_once_at_the_first_start_state(monkeypatch):
    # a returned state carries the rate and pressure of the elimination that
    # certified it, so steps chained without a carry eliminate at their
    # start state only in the first call, whose state has no rate yet
    radii = []
    eliminate = dynamics.eliminate_pressure

    def counted(grid, R, *args):
        radii.append(R)
        return eliminate(grid, R, *args)

    monkeypatch.setattr(dynamics, "eliminate_pressure", counted)
    p, grid, h, U = _journal_case()
    cfg = StepConfig()
    state = initial_state(grid, p)
    at_start = []
    for _ in range(5):
        radii.clear()
        start = state.R
        state, stats = step_inertialess(grid, state, h, U, p, cfg)
        assert stats.iterations == len(radii)
        at_start.append(any(np.array_equal(R, start) for R in radii))
        G, pres = eliminate(grid, state.R, h, U, p)
        assert np.array_equal(state.Rdot, G) and np.array_equal(state.p, pres)
    assert at_start == [True, False, False, False, False]


def test_run_trace_counts_the_work_of_the_run(monkeypatch):
    # every pressure elimination but the run's first is counted in some
    # step's iterations, and every chord LU in some step's factorizations
    eliminations, factorizations = [], []
    eliminate, factorize = dynamics.eliminate_pressure, dynamics._factorize
    monkeypatch.setattr(dynamics, "eliminate_pressure",
                        lambda *a, **k: eliminations.append(1)
                        or eliminate(*a, **k))
    monkeypatch.setattr(dynamics, "_factorize",
                        lambda A: factorizations.append(1) or factorize(A))
    p, grid, h, U = _journal_case()
    res = run_transient(grid, initial_state(grid, p), h, U, p, StepConfig(),
                        n_steps=5000)
    assert res.converged
    stats = res.step_stats
    assert len(eliminations) == 1 + int(np.sum(stats["iterations"]))
    assert len(factorizations) == int(np.sum(stats["factorizations"]))
    assert len(factorizations) >= res.steps     # one LU per attempt at least


def test_step_size_grows_at_most_fivefold():
    # from a needlessly small initial step, through the error-limited
    # transient, to the slow tail far past the nominal step
    p, grid, h, U = _journal_case(ecc=0.2, shape=(8, 4))
    res = run_transient(grid, initial_state(grid, p), h, U, p,
                        StepConfig(dt=1e-8), n_steps=4000)
    assert res.converged
    dt = res.step_stats["dt_used"]
    assert dt[0] == 1e-8
    ratios = dt[1:] / dt[:-1]
    assert np.max(ratios) <= 5.0 * (1.0 + 1e-12)
    assert np.max(ratios) == pytest.approx(5.0)   # the clamp was reached
    assert np.max(dt) > 100 * 3e-4


def _fixed_step_history(grid, h, U, p, dt, stationarity_tol=1e-8):
    """Step times and radius and pressure extrema of backward Euler at the
    fixed step ``dt`` (each step is error-tested once against a loose
    tolerance, which it passes), until the rate drops below the tolerance."""
    state = initial_state(grid, p)
    cfg = StepConfig(dt=dt, error_tol=0.5)
    rows = []
    while True:
        R_old = state.R
        state, stats = step_inertialess(grid, state, h, U, p, cfg)
        assert stats.dt_used == dt and stats.halvings == 0
        rows.append((state.t, state.R.max() / p.R0, state.R.min() / p.R0,
                     state.p.max(), state.p.min()))
        if np.max(np.abs(state.R - R_old)) / (dt * p.R0) < stationarity_tol:
            break
    return dict(zip(("t", "max_Rhat", "min_Rhat", "max_p", "min_p"),
                    np.array(rows).T))


def test_error_control_is_no_less_accurate_than_the_fixed_step():
    # History extrema at each run's own step times, against a run with a
    # hundredfold tighter tolerance (interpolated in time): the default
    # error-controlled run is at least as accurate, column by column, as
    # backward Euler at the fixed nominal step 3e-4 s.
    p, grid, h, U = _journal_case()

    def adaptive(error_tol):
        res = run_transient(grid, initial_state(grid, p), h, U, p,
                            StepConfig(dt=3e-4, error_tol=error_tol), 5000)
        assert res.converged
        return res

    ref = adaptive(1e-6).history
    run = adaptive(1e-4)
    fixed = _fixed_step_history(grid, h, U, p, 3e-4)
    assert run.steps < len(fixed["t"])
    for col in ("max_Rhat", "min_Rhat", "max_p", "min_p"):
        scale = np.max(np.abs(ref[col]))
        errors = [np.max(np.abs(hist[col] - np.interp(hist["t"], ref["t"],
                                                      ref[col]))) / scale
                  for hist in (run.history, fixed)]
        assert errors[0] <= errors[1], (col, errors)


def test_rest_state_is_an_exact_fixed_point():
    # Parallel gap at the equilibrium radius: the slaved fields vanish and
    # the run declares stationarity immediately.
    p = PhysicalParams(ecc=0.0)
    consts = compute_derived(p)
    grid = grid_for_params(p, 8, 4)
    h = gap_function(grid, p)
    state = TransientState(t=0.0, R=np.full(grid.shape, consts.R_bar))
    res = run_transient(grid, state, h, (p.surface_speed, 0.0), p,
                        StepConfig(dt=1e-4), n_steps=20)
    assert res.converged
    assert res.steps == 1
    assert np.allclose(res.state.R, consts.R_bar, rtol=1e-12)
    assert res.rate < 1e-8


def test_positivity_guard_raises_after_exhausting_halvings():
    p = PhysicalParams(ecc=0.0)
    grid = grid_for_params(p, 4, 4)
    h = gap_function(grid, p)
    dt = 1e-4
    crash = np.full(grid.shape, -2100.0 * p.R0 / dt)
    state = TransientState(t=0.0, R=np.full(grid.shape, p.R0), Rdot=crash)
    with pytest.raises(PositivityLossError):
        step_inertialess(grid, state, h, (0.0, 0.0), p, StepConfig(dt=dt))


def test_stalled_iteration_raises_step_failure(monkeypatch):
    # One Picard iteration is never enough away from equilibrium, at any of
    # the fallback step sizes, so the stall is reported as such.  With one
    # elimination per attempt no update could be tested, so no chord LU is
    # built.
    factorizations = []
    factorize = dynamics._factorize
    monkeypatch.setattr(dynamics, "_factorize",
                        lambda A: factorizations.append(1) or factorize(A))
    p = PhysicalParams(alpha0=0.0, ecc=0.0)
    grid = grid_for_params(p, 4, 4)
    h = gap_function(grid, p)
    state = TransientState(t=0.0, R=np.full(grid.shape, 1.2 * p.R0))
    cfg = StepConfig(dt=1e-3, picard_tol=1e-8, picard_max=1)
    with pytest.raises(StepFailureError):
        step_inertialess(grid, state, h, (0.0, 0.0), p, cfg)
    assert factorizations == []


def test_run_reports_critical_radius_instead_of_raising():
    p = PhysicalParams(ecc=0.0)
    consts = compute_derived(p)
    grid = grid_for_params(p, 4, 4)
    h = gap_function(grid, p)
    state = TransientState(t=0.0, R=np.full(grid.shape, 1.0001 * consts.R_crit))
    res = run_transient(grid, state, h, (0.0, 0.0), p,
                        StepConfig(dt=1e-9), n_steps=5)
    assert not res.converged
    assert res.failure is not None and "critical" in res.failure
    assert res.failed_step == 1


def test_history_recording_stride():
    p = PhysicalParams(alpha0=0.0, ecc=0.0)
    grid = grid_for_params(p, 4, 4)
    h = gap_function(grid, p)
    state = TransientState(t=0.0, R=np.full(grid.shape, 1.02 * p.R0))
    watch = TransientWatch(stationarity_tol=1e-30)
    res = run_transient(grid, state, h, (0.0, 0.0), p,
                        StepConfig(dt=1e-7), n_steps=6, watch=watch)
    assert res.steps == 6
    assert set(res.history) == {"t", "rate", "min_Rhat", "max_Rhat",
                                "min_p", "max_p"}
    # one history row and one step statistics row per step
    assert len(res.history["t"]) == 6
    assert set(res.step_stats) == {"t", "dt_used", "iterations",
                                   "factorizations", "halvings", "rejections"}
    assert len(res.step_stats["t"]) == 6
    assert np.allclose(res.step_stats["t"], np.cumsum(res.step_stats["dt_used"]),
                       rtol=1e-12)
    assert np.array_equal(res.history["t"], res.step_stats["t"])
    assert np.all(res.step_stats["iterations"] >= 1)
    assert np.all(res.step_stats["halvings"] == 0)


def test_run_sets_the_step_index_of_a_step_failure(monkeypatch):
    p = PhysicalParams(alpha0=0.0, ecc=0.0)
    grid = grid_for_params(p, 4, 4)
    h = gap_function(grid, p)
    state = TransientState(t=0.0, R=np.full(grid.shape, 1.02 * p.R0))
    real_step = dynamics.step_inertialess
    injected = StepFailureError("injected failure")
    calls = []

    def failing_third_step(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise injected
        return real_step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step_inertialess", failing_third_step)
    res = run_transient(grid, state, h, (0.0, 0.0), p, StepConfig(dt=1e-7),
                        n_steps=6,
                        watch=TransientWatch(stationarity_tol=1e-30))
    assert res.failed_step == 3 and res.steps == 2
    assert res.failure == "injected failure"
    assert len(res.step_stats["t"]) == 2


def test_inertial_mode_requires_wall_velocity():
    p = PhysicalParams(ecc=0.0)
    grid = grid_for_params(p, 4, 4)
    h = gap_function(grid, p)
    state = TransientState(t=0.0, R=np.full(grid.shape, p.R0))
    with pytest.raises(ConfigurationError):
        step_inertial(grid, state, h, (0.0, 0.0), p,
                      StepConfig(dt=1e-9, mode=MODE_INERTIAL))


# Mild laboratory-scale parameters: the single-bubble dynamics is a lightly
# damped 20 rad/s oscillator (the water/oil defaults are overdamped by nine
# decades and out of reach of any explicit integrator).
TAME = PhysicalParams(rho_l=1000.0, mu_l=1.0, rho_g=900.0, mu_g=0.01,
                      kappa_s=0.0, k_poly=1.4, sigma=1.0, P0=1000.0,
                      p_bnd=980.0, R0=0.1, alpha0=0.0, J_r=1.0, B=1.0,
                      h0=1.0 / 32.0, ecc=0.0, omega=0.0)


def _oscillator_rhs(_, y):
    r, v = y
    return [v, -1.5 * v ** 2 / r - v * eval_f2(r, TAME) + eval_f1(r, TAME) / r]


def test_inertial_stepper_tracks_the_oscillator_reduction():
    # alpha0 = 0, parallel gap, no sliding: every cell obeys the classical
    # second-order bubble equation; reference from an adaptive integrator.
    grid = grid_for_params(TAME, 4, 4)
    h = gap_function(grid, TAME)
    r_init = 1.05 * TAME.R0
    dt, n = 1e-3, 200

    ref = solve_ivp(_oscillator_rhs, (0.0, n * dt), [r_init, 0.0],
                    method="DOP853", rtol=1e-12, atol=1e-14)
    state = TransientState(t=0.0, R=np.full(grid.shape, r_init),
                           Rdot=np.zeros(grid.shape))
    cfg = StepConfig(dt=dt, mode=MODE_INERTIAL)
    for _ in range(n):
        state, _ = step_inertial(grid, state, h, (0.0, 0.0), TAME, cfg)
    assert np.allclose(state.R, ref.y[0, -1], rtol=1e-8)
    assert np.allclose(state.Rdot, ref.y[1, -1], rtol=1e-6, atol=1e-12)


def test_inertial_stepper_is_fourth_order():
    grid = grid_for_params(TAME, 4, 4)
    h = gap_function(grid, TAME)
    r_init = 1.05 * TAME.R0
    T = 0.32
    ref = solve_ivp(_oscillator_rhs, (0.0, T), [r_init, 0.0],
                    method="DOP853", rtol=1e-13, atol=1e-15).y[0, -1]
    errors = []
    for n in (8, 16):
        state = TransientState(t=0.0, R=np.full(grid.shape, r_init),
                               Rdot=np.zeros(grid.shape))
        cfg = StepConfig(dt=T / n, mode=MODE_INERTIAL)
        for _ in range(n):
            state, _ = step_inertial(grid, state, h, (0.0, 0.0), TAME, cfg)
        errors.append(abs(float(state.R[0, 0]) - ref))
    order = np.log2(errors[0] / errors[1])
    assert order > 3.6, (errors, order)


def test_inertial_positivity_guard():
    grid = grid_for_params(TAME, 4, 4)
    h = gap_function(grid, TAME)
    state = TransientState(t=0.0, R=np.full(grid.shape, TAME.R0),
                           Rdot=np.full(grid.shape, -1e6 * TAME.R0))
    with pytest.raises(PositivityLossError):
        step_inertial(grid, state, h, (0.0, 0.0), TAME,
                      StepConfig(dt=1.0, mode=MODE_INERTIAL))


def test_inertial_run_trace_counts_every_pressure_solve(monkeypatch):
    # the inertial twin of test_run_trace_counts_the_work_of_the_run: every
    # pressure solve but the run's first is counted in some step's
    # iterations, the three later stages and the end-of-step pressure of
    # every attempt, those of attempts dropped by a halving too
    solves = []
    accelerate = dynamics._wall_acceleration
    monkeypatch.setattr(dynamics, "_wall_acceleration",
                        lambda *a, **k: solves.append(1) or accelerate(*a, **k))
    grid = grid_for_params(TAME, 4, 4)
    h = gap_function(grid, TAME)
    state = TransientState(t=0.0, R=np.full(grid.shape, 1.05 * TAME.R0),
                           Rdot=np.full(grid.shape, -60.0 * TAME.R0))
    res = run_transient(grid, state, h, (0.0, 0.0), TAME,
                        StepConfig(dt=1e-3, mode=MODE_INERTIAL), n_steps=50,
                        watch=TransientWatch(stationarity_tol=0.0))
    assert res.steps == 50 and res.failure is None
    assert np.sum(res.step_stats["halvings"]) > 0
    assert len(solves) == 1 + int(np.sum(res.step_stats["iterations"]))


def test_inertial_step_starts_from_the_pressure_its_state_carries(monkeypatch):
    # the first RK4 stage takes the pressure the previous step solved at the
    # same (R, V): the run's first solve, then four a step
    solves = []
    accelerate = dynamics._wall_acceleration
    monkeypatch.setattr(dynamics, "_wall_acceleration",
                        lambda *a, **k: solves.append(1) or accelerate(*a, **k))
    grid = grid_for_params(TAME, 4, 4)
    h = gap_function(grid, TAME)
    res = run_transient(grid, initial_state(grid, TAME, MODE_INERTIAL), h,
                        (0.0, 0.0), TAME,
                        StepConfig(dt=1e-3, mode=MODE_INERTIAL), n_steps=20,
                        watch=TransientWatch(stationarity_tol=0.0))
    assert res.steps == 20 and np.sum(res.step_stats["halvings"]) == 0
    assert len(solves) == 1 + 4 * 20
    assert np.all(res.step_stats["iterations"] == 4)


def test_run_transient_reaches_the_target_rate():
    p = PhysicalParams(ecc=0.15)
    grid = grid_for_params(p, 24, 6)
    h = gap_function(grid, p)
    state = initial_state(grid, p)
    res = run_transient(grid, state, h, (p.surface_speed, 0.0), p,
                        StepConfig(dt=3e-4), n_steps=3200,
                        watch=TransientWatch(stationarity_tol=1e-6))
    assert res.converged
    assert res.rate < 1e-6
    assert res.failure is None
    assert all(len(v) == res.steps for v in res.step_stats.values())
    assert np.all(np.diff(res.step_stats["t"]) > 0.0)
    consts = compute_derived(p)
    assert res.max_Rhat * p.R0 < consts.R_crit
    assert res.min_p > consts.p_cav - 1e-6 * abs(consts.p_cav)
