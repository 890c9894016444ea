"""Transient stepping: pressure elimination, accuracy, guards, stationarity.

The pressure elimination is checked against a dense block solve of the raw
coupled equations (a second, independent route to the same fields), and the
time steppers are checked against scalar reductions of the model that hold
exactly when the gas fraction is zero: the film decouples and every cell
follows the single-bubble ordinary differential equation.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import filmcav.dynamics as dynamics
import filmcav.elliptic as elliptic
import filmcav.physics as physics
from filmcav.dynamics import (
    MODE_INERTIAL, MODE_INERTIALESS, ChordCarry, StepConfig, TransientState,
    _wall_acceleration, eliminate_pressure, initial_state, run_transient,
    step_inertial, step_inertialess,
)
from filmcav.elliptic import film_pencil, film_residual
from filmcav.errors import (ConfigurationError, PositivityLossError,
                            StepFailureError)
from filmcav.grid import (BC_DIRICHLET, BC_PERIODIC, Grid, gap_function,
                          grid_for_params, mirror_half)
from filmcav.physics import PhysicalParams, compute_derived
from filmcav.stationary import solve_stationary
from oracles import (assemble_operator, convective_divergence, eval_f1,
                     eval_f2, eval_f3, eval_f4, eval_f5,
                     manufactured_transient, slaved_state)

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
        StepConfig(mode="semi-implicit")
    # the error tolerance lies strictly between picard_tol and 1
    for error_tol in (0.0, 1e-8, 1e-9, 1.0, 2.0):
        with pytest.raises(ConfigurationError, match="error_tol"):
            StepConfig(picard_tol=1e-8, error_tol=error_tol)
    assert StepConfig(picard_tol=1e-8, error_tol=2e-8).error_tol == 2e-8


def test_initial_state():
    g = Grid(4, 5, 1.0, 1.0)
    h = gap_function(g, DEFAULT)
    s = initial_state(g, h, (0.0, 0.0), DEFAULT)
    assert s.t == 0.0
    assert np.all(s.R == DEFAULT.R0)
    s = initial_state(g, h, (0.0, 0.0), DEFAULT, mode=MODE_INERTIAL)
    assert np.all(s.Rdot == 0.0)


def test_initial_state_is_slaved_to_its_radius_field():
    # a start state is complete: the quasi-static one carries the rate and
    # pressure of the elimination at R0, the inertial one the pressure of
    # the inertial model at R0 and zero wall velocity
    p, grid, h, U = _journal_case(shape=(8, 4))
    R0 = np.full(grid.shape, p.R0)
    s = initial_state(grid, h, U, p)
    G, pres = eliminate_pressure(grid, R0, h, U, p)
    assert np.array_equal(s.Rdot, G) and np.array_equal(s.p, pres)
    s = initial_state(grid, h, U, p, mode=MODE_INERTIAL)
    _, pres = _wall_acceleration(grid, R0, np.zeros(grid.shape), h, U, p)
    assert np.array_equal(s.p, pres)


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


@pytest.mark.parametrize("bc", [BC_PERIODIC, BC_DIRICHLET])
def test_inertial_pressure_satisfies_the_film_equation(bc):
    # at a free wall velocity V the pressure solves the film equation with
    # squeeze rate V, and the acceleration is the Rayleigh-Plesset law there
    rng = np.random.default_rng(73)
    p = PhysicalParams(ecc=0.3)
    grid = Grid(8, 6, 2.0 * np.pi * p.J_r, p.B, bc_x1=bc)
    R = p.R0 * rng.uniform(0.85, 1.15, size=grid.shape)
    V = p.R0 * rng.normal(scale=100.0, size=grid.shape)
    h = gap_function(grid, p)
    U = (2.0, 0.5)
    acc, pres = _wall_acceleration(grid, R, V, h, U, p)
    K = assemble_operator(grid, eval_f3(R, p) * h ** 3)
    conv = convective_divergence(grid, U, h * eval_f4(R, p)).ravel()
    squeeze = (h * eval_f5(R, p) * V).ravel()
    resid = K @ pres.ravel() + squeeze + conv
    gross = abs(K) @ np.abs(pres.ravel()) + np.abs(squeeze) + np.abs(conv)
    assert np.linalg.norm(resid) < 1e-12 * np.linalg.norm(gross)
    law = -1.5 * V ** 2 / R - V * eval_f2(R, p) + (eval_f1(R, p) - pres) / R
    assert np.allclose(acc, law, rtol=1e-12, atol=0.0)


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
    F, _, _ = film_residual(grid, x, S, h, U, p)
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
    state = start = initial_state(grid, h, U, p)
    chord = ChordCarry() if carried else None
    iterations = []
    dts = []
    for _ in range(10):
        state, stats = step_inertialess(grid, state, h, U, p, cfg, chord=chord)
        iterations.append(stats.iterations)
        dts.append(stats.dt_used)
    assert max(iterations) > 2             # the chord iteration did the work
    ref = _picard_reference(grid, start.R, h, U, p, dts)
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
    state = slaved_state(grid, np.full(grid.shape, 1.05 * p.R0), h,
                         (0.0, 0.0), p)
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
        cfg = StepConfig(dt=T / n, picard_tol=1e-12)
        state = slaved_state(grid, np.full(grid.shape, 1.1 * p.R0), h,
                             (0.0, 0.0), p)
        for _ in range(n):
            state, _ = step_inertialess(grid, state, h, (0.0, 0.0), p, cfg)
        errors.append(abs(float(state.R[0, 0]) - ref))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 0.8) and np.all(orders < 1.2), orders


@pytest.mark.parametrize("bc,error_80", [(BC_PERIODIC, 7.388e-5),
                                         (BC_DIRICHLET, 2.187e-5)])
def test_manufactured_transient_is_first_order_in_time(monkeypatch, bc,
                                                        error_80):
    # the stepper solves the film equation less its value at (R*, dR*/dt)
    # at the step's end, so R*(x, t) solves the space-discrete problem
    # exactly and the error at t = T is the time error of backward Euler
    # on the coupled film and bubbles (alpha0 = 0.1: the mass term acts)
    p = PhysicalParams(ecc=0.3)
    grid = mirror_half(grid_for_params(p, 16, 8, bc))
    h, U = gap_function(grid, p), (p.surface_speed, 0.0)
    a, T = 0.05, 0.01
    source = None

    def residual(*args):
        F, pressure, mobility = film_residual(*args)
        return F - source, pressure, mobility

    monkeypatch.setattr(dynamics, "film_residual", residual)
    errors = []
    for n in (10, 20, 40, 80):
        dt = T / n
        R, Rdot = manufactured_transient(grid, p, a, T, 0.0)
        f1, f2 = physics.eval_wall(R, p)
        state = TransientState(0.0, R, Rdot, f1 - R * f2 * Rdot)
        cfg = StepConfig(dt=dt, error_tol=0.5, picard_tol=1e-12)
        for _ in range(n):
            source = film_residual(grid, *manufactured_transient(
                grid, p, a, T, state.t + dt), h, U, p)[0]
            state, stats = step_inertialess(grid, state, h, U, p, cfg)
            assert (stats.dt_used, stats.halvings, stats.rejections) == (
                dt, 0, 0)
        exact = manufactured_transient(grid, p, a, T, state.t)[0]
        errors.append(np.abs(state.R - exact).max()
                      / compute_derived(p).R_bar)
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders >= 0.9) & (orders <= 1.1)), orders
    assert errors[-1] == pytest.approx(error_80, rel=0.1)


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
    state, stats = step_inertialess(grid, initial_state(grid, h, U, p), h, U,
                                    p, cfg, chord=chord)
    assert stats.rejections >= 1 and stats.halvings == 0
    assert cfg.dt * 0.2 ** stats.rejections <= stats.dt_used < cfg.dt
    # at least one chord update per attempt, rejected ones included
    assert stats.iterations >= stats.rejections + 1
    assert 0.0 < chord.err_prev <= 1.0          # the accepted estimate passed
    # the next step starts from the controller's proposal
    proposal = chord.dt_next
    _, stats = step_inertialess(grid, state, h, U, p, cfg, chord=chord)
    assert stats.rejections == 0 and stats.dt_used == proposal


def test_every_accepted_step_solves_the_implicit_equation():
    # A state within 1e-11 of stationary moves by far less than picard_tol
    # under an explicit update even at a long step, yet backward Euler at
    # that step is a different equation: the accepted step must solve it,
    # with the rate G of the pressure elimination at the new radius field.
    p, grid, h, U = _journal_case()
    R_s, _, report = solve_stationary(grid, h, U, p)
    assert report.converged
    i, j = np.indices(grid.shape)
    R_old = R_s * (1.0 + 1e-11 * (-1.0) ** (i + j))
    dt, cfg = 0.5, StepConfig(dt=0.5)
    new, stats = step_inertialess(
        grid, slaved_state(grid, R_old, h, U, p), h, U, p, cfg)
    assert stats.dt_used == dt
    G, _ = eliminate_pressure(grid, new.R, h, U, p)
    residual = np.max(np.abs(R_old + dt * G - new.R))
    assert residual / np.max(np.abs(new.R)) < cfg.picard_tol


def test_every_state_of_a_run_is_certified_by_the_elimination():
    # the pressure elimination is the oracle of the chord stopping test: at
    # every accepted state of a run to stationarity, its rate solves the
    # backward-Euler equation of the step to picard_tol, and its pressure
    # is the state's
    p, grid, h, U = _journal_case()
    cfg = StepConfig()
    start = initial_state(grid, h, U, p)
    states = [start]
    res = run_transient(grid, start, h, U, p, cfg, n_steps=5000,
                        stationarity_tol=1e-8,
                        on_step=lambda step, state: states.append(state))
    assert res.converged and len(states) == res.steps + 1
    for old, new in zip(states, states[1:]):
        G, pres = eliminate_pressure(grid, new.R, h, U, p)
        scale = np.max(np.abs(new.R))
        residual = np.max(np.abs(old.R + (new.t - old.t) * G - new.R))
        assert residual < cfg.picard_tol * scale
        assert (np.max(np.abs(new.p - pres))
                < cfg.picard_tol * np.max(np.abs(pres)))


@pytest.mark.parametrize("ecc", [0.05, 0.2])
def test_states_on_reused_factors_are_certified_at_milder_eccentricity(ecc):
    # the same oracle where short early steps amplify the error of a state
    # accepted on a reused chord factor most: with a contraction-aware
    # test ten times looser, the pressure clause failed here by up to 3x
    p, grid, h, U = _journal_case(ecc, (8, 4))
    cfg = StepConfig()
    states = [initial_state(grid, h, U, p)]
    res = run_transient(grid, states[0], h, U, p, cfg, n_steps=5000,
                        stationarity_tol=1e-8,
                        on_step=lambda step, state: states.append(state))
    assert res.converged
    assert np.sum(res.step_stats["factorizations"]) < res.steps
    for old, new in zip(states, states[1:]):
        G, pres = eliminate_pressure(grid, new.R, h, U, p)
        residual = np.max(np.abs(old.R + (new.t - old.t) * G - new.R))
        assert residual < cfg.picard_tol * np.max(np.abs(new.R))
        assert (np.max(np.abs(new.p - pres))
                < cfg.picard_tol * np.max(np.abs(pres)))


def test_step_iterations_count_the_chord_updates(monkeypatch):
    # every chord update evaluates the film equation once; a step makes no
    # pressure elimination
    residuals, eliminations = [], []
    residual = dynamics.film_residual
    monkeypatch.setattr(dynamics, "film_residual",
                        lambda *a: residuals.append(1) or residual(*a))
    p, grid, h, U = _journal_case()
    cfg = StepConfig(dt=2e-3)
    state = initial_state(grid, h, U, p)
    monkeypatch.setattr(dynamics, "eliminate_pressure",
                        lambda *a: eliminations.append(1))
    chord = ChordCarry()
    # from rest the error test rejects the first three attempts, each after
    # at least one update, then plain steps follow; only the first step of
    # the fresh carry must factor, later ones may reuse its factor
    counts = []
    for least_lus in (1, 0, 0):
        residuals.clear()
        state, stats = step_inertialess(grid, state, h, U, p, cfg, chord=chord)
        assert stats.iterations == len(residuals)
        assert least_lus <= stats.factorizations <= stats.iterations
        counts.append((stats.rejections, len(residuals)))
    assert [r for r, _ in counts] == [3, 0, 0]
    assert counts[0][1] >= 4 and all(n >= 1 for _, n in counts)
    assert eliminations == []


def test_chained_steps_eliminate_once_at_the_first_start_state(monkeypatch):
    # the one pressure elimination of a chain of steps is the one that
    # initial_state makes at R0: a returned state carries its backward rate
    # and the pressure the film equation defines at that rate, and the next
    # step starts from them
    radii = []
    eliminate = dynamics.eliminate_pressure

    def counted(grid, R, *args):
        radii.append(R)
        return eliminate(grid, R, *args)

    monkeypatch.setattr(dynamics, "eliminate_pressure", counted)
    p, grid, h, U = _journal_case()
    cfg = StepConfig()
    state = initial_state(grid, h, U, p)
    assert len(radii) == 1 and np.all(radii[0] == p.R0)
    for _ in range(5):
        start = state.R
        state, stats = step_inertialess(grid, state, h, U, p, cfg)
        assert stats.iterations >= 1
        assert np.array_equal(state.Rdot, (state.R - start) / stats.dt_used)
        _, pres, _ = film_residual(grid, state.R, state.Rdot, h, U, p)
        assert np.array_equal(state.p, pres)
    assert len(radii) == 1


def test_run_trace_counts_the_work_of_the_run(monkeypatch):
    # the start state's pressure elimination is the run's only one; every
    # other film-equation evaluation is a chord update counted in some
    # step's iterations, and every chord LU in some step's factorizations
    eliminations, residuals, factorizations = [], [], []
    eliminate, residual, factorize = (dynamics.eliminate_pressure,
                                      dynamics.film_residual,
                                      dynamics._factorize)
    monkeypatch.setattr(dynamics, "eliminate_pressure",
                        lambda *a, **k: eliminations.append(1)
                        or eliminate(*a, **k))
    monkeypatch.setattr(dynamics, "film_residual",
                        lambda *a: residuals.append(1) or residual(*a))
    monkeypatch.setattr(dynamics, "_factorize",
                        lambda A: factorizations.append(1) or factorize(A))
    p, grid, h, U = _journal_case()
    res = run_transient(grid, initial_state(grid, h, U, p), h, U, p,
                        StepConfig(), n_steps=5000, stationarity_tol=1e-8)
    assert res.converged
    stats = res.step_stats
    assert len(eliminations) == 1
    assert len(residuals) == 1 + int(np.sum(stats["iterations"]))
    assert len(factorizations) == int(np.sum(stats["factorizations"]))
    assert 1 <= len(factorizations) < res.steps   # steps reuse the factor


def test_at_most_one_chord_factor_is_alive(monkeypatch):
    # the carried factor is released before its successor is built, and the
    # carry, with its last factor, is dropped when run_transient returns
    live, peak, built = [0], [0], []
    factorize = dynamics._factorize

    class Counted:
        def __init__(self, lu):
            self._lu = lu
            live[0] += 1
            peak[0] = max(peak[0], live[0])
            built.append(1)

        def solve(self, rhs):
            return self._lu.solve(rhs)

        def __del__(self):
            live[0] -= 1

    monkeypatch.setattr(dynamics, "_factorize",
                        lambda A: Counted(factorize(A)))
    p, grid, h, U = _journal_case()
    res = run_transient(grid, initial_state(grid, h, U, p), h, U, p,
                        StepConfig(), n_steps=5000, stationarity_tol=1e-8)
    assert res.converged and len(built) > 1
    assert peak[0] == 1
    assert live[0] == 0


def _carry_after_steps(n):
    p, grid, h, U = _journal_case()
    cfg = StepConfig()
    chord = ChordCarry()
    state = initial_state(grid, h, U, p)
    for _ in range(n):
        state, _ = step_inertialess(grid, state, h, U, p, cfg, chord=chord)
    return (grid, state, h, U, p, cfg), chord


@pytest.mark.parametrize("ratio", [2.5, 0.4])
def test_a_step_size_far_from_the_factor_updates_on_it_first(ratio,
                                                              monkeypatch):
    # the same carry reuses its factor at the step size the controller
    # proposed, and at one moved far from it the carried factor still
    # serves the first updates: only a weak contraction refactors
    args, chord = _carry_after_steps(5)
    events = []
    residual, factorize = dynamics.film_residual, dynamics._factorize
    monkeypatch.setattr(dynamics, "film_residual",
                        lambda *a: events.append("F") or residual(*a))
    monkeypatch.setattr(dynamics, "_factorize",
                        lambda A: events.append("LU") or factorize(A))
    _, stats = step_inertialess(*args, chord=replace(chord))
    assert stats.factorizations == 0 and "LU" not in events
    events.clear()
    dt = ratio * chord.dt_next
    _, stats = step_inertialess(*args, chord=replace(chord, dt_next=dt))
    assert events[:2] == ["F", "F"]
    if ratio < 1.0:
        assert stats.dt_used == dt and stats.factorizations == 0


def test_step_size_grows_at_most_fivefold():
    # from a needlessly small initial step, through the error-limited
    # transient, to the slow tail far past the nominal step
    p, grid, h, U = _journal_case(ecc=0.2, shape=(8, 4))
    res = run_transient(grid, initial_state(grid, h, U, p), h, U, p,
                        StepConfig(dt=1e-8), n_steps=4000,
                        stationarity_tol=1e-8)
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
    state = initial_state(grid, h, U, p)
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
        res = run_transient(grid, initial_state(grid, h, U, p), h, U, p,
                            StepConfig(dt=3e-4, error_tol=error_tol), 5000,
                            1e-8)
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
    U = (p.surface_speed, 0.0)
    state = slaved_state(grid, np.full(grid.shape, consts.R_bar), h, U, p)
    res = run_transient(grid, state, h, U, p, StepConfig(dt=1e-4), n_steps=20,
                        stationarity_tol=1e-8)
    assert res.converged
    assert res.steps == 1
    assert np.allclose(res.state.R, consts.R_bar, rtol=1e-12)
    assert res.rate < 1e-8


def test_a_first_chord_update_never_accepts():
    # near rest the first update of a fresh carry's own factor is tiny but
    # not zero: with no contraction measured yet, a second update decides
    p = PhysicalParams(ecc=0.0)
    grid = grid_for_params(p, 8, 4)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    R = np.full(grid.shape, compute_derived(p).R_bar * (1.0 + 1e-10))
    _, stats = step_inertialess(grid, slaved_state(grid, R, h, U, p), h, U,
                                p, StepConfig())
    assert (stats.iterations, stats.factorizations) == (2, 1)


def test_positivity_guard_raises_after_exhausting_halvings():
    p = PhysicalParams(ecc=0.0)
    grid = grid_for_params(p, 4, 4)
    h = gap_function(grid, p)
    dt = 1e-4
    state = slaved_state(grid, np.full(grid.shape, p.R0), h, (0.0, 0.0), p)
    state.Rdot = np.full(grid.shape, -2100.0 * p.R0 / dt)   # a crash rate
    with pytest.raises(PositivityLossError):
        step_inertialess(grid, state, h, (0.0, 0.0), p, StepConfig(dt=dt))


def test_stalled_iteration_raises_step_failure(monkeypatch):
    # The extrapolated start alone is never accepted away from equilibrium,
    # at any of the fallback step sizes, so the stall is reported as such.
    # With no chord update allowed no chord LU is built.
    monkeypatch.setattr(dynamics, "MAX_CHORD_UPDATES", 0)
    factorizations = []
    factorize = dynamics._factorize
    monkeypatch.setattr(dynamics, "_factorize",
                        lambda A: factorizations.append(1) or factorize(A))
    p = PhysicalParams(alpha0=0.0, ecc=0.0)
    grid = grid_for_params(p, 4, 4)
    h = gap_function(grid, p)
    state = slaved_state(grid, np.full(grid.shape, 1.2 * p.R0), h, (0.0, 0.0),
                         p)
    cfg = StepConfig(dt=1e-3, picard_tol=1e-8)
    with pytest.raises(StepFailureError):
        step_inertialess(grid, state, h, (0.0, 0.0), p, cfg)
    assert factorizations == []


def test_steps_started_within_rounding_of_rest_converge():
    # at rest the chord updates are rounding noise of max|x| that never
    # contracts; an update at the rounding floor converges the attempt
    # instead of spending every update and halving to a stall
    p = PhysicalParams(ecc=0.0)
    grid = grid_for_params(p, 8, 4)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    for k in range(-300, 301, 3):
        R = np.full(grid.shape, p.R0 * (1.0 + k * 1e-16))
        _, stats = step_inertialess(grid, slaved_state(grid, R, h, U, p), h,
                                    U, p, StepConfig())
        assert stats.halvings == 0, k


def _poisoned_film_residual(monkeypatch, call):
    """Make the ``call``-th film residual of ``dynamics`` (1-based) NaN,
    every one for ``call = None``."""
    calls = []
    real = dynamics.film_residual

    def poisoned(*args):
        calls.append(1)
        F, *rest = real(*args)
        return (F * np.nan if call in (None, len(calls)) else F, *rest)

    monkeypatch.setattr(dynamics, "film_residual", poisoned)


def test_non_finite_chord_iterate_halves_the_step(monkeypatch):
    # NaN passes a bare positivity test; the iterate it poisons must fail
    # the attempt, not reach the next residual as a configuration error
    p = PhysicalParams(ecc=0.3)
    grid = grid_for_params(p, 16, 8)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    state = initial_state(grid, h, U, p)
    _poisoned_film_residual(monkeypatch, 2)
    new, stats = step_inertialess(grid, state, h, U, p, StepConfig())
    assert stats.halvings == 1
    assert np.all(np.isfinite(new.R)) and np.all(np.isfinite(new.p))


def test_non_finite_rk4_stage_halves_the_step(monkeypatch):
    # the first pressure solve of the step, at the second stage
    p = replace(TAME, ecc=0.3)
    grid = grid_for_params(p, 16, 8)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    state = initial_state(grid, h, U, p, mode=MODE_INERTIAL)
    _poisoned_film_residual(monkeypatch, 1)
    new, stats = step_inertial(grid, state, h, U, p,
                               StepConfig(dt=1e-4, mode=MODE_INERTIAL))
    assert stats.halvings == 1
    assert np.all(np.isfinite(new.R)) and np.all(np.isfinite(new.p))


@pytest.mark.parametrize("mode", [MODE_INERTIALESS, MODE_INERTIAL])
def test_a_non_finite_iterate_is_named_as_such(mode, monkeypatch):
    # a film residual that is NaN at every call poisons every attempt: the
    # step gives up after its halvings with the blow-up error, and that
    # error names a non-finite iterate, not a sign loss
    p = PhysicalParams(ecc=0.3)
    grid = grid_for_params(p, 16, 8)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    state = initial_state(grid, h, U, p, mode=mode)
    _poisoned_film_residual(monkeypatch, None)
    step = step_inertial if mode == MODE_INERTIAL else step_inertialess
    with pytest.raises(PositivityLossError, match="non-finite") as err:
        step(grid, state, h, U, p, StepConfig(mode=mode))
    assert "positive cone" not in str(err.value)


def test_a_step_assembles_only_the_pencils_of_its_chord_factors(
        monkeypatch):
    # film_residual builds no matrix: the assembler runs for the B and P
    # of every chord LU and for nothing else, however many chord updates
    # reuse a factor
    assembled = []
    assemble = elliptic._assemble
    monkeypatch.setattr(elliptic, "_assemble",
                        lambda *a: assembled.append(1) or assemble(*a))
    p, grid, h, U = _journal_case()
    state = initial_state(grid, h, U, p)
    assembled.clear()                   # the start state's elimination
    chord = ChordCarry()
    updates = factorizations = 0
    for _ in range(8):
        state, stats = step_inertialess(grid, state, h, U, p, StepConfig(),
                                        chord=chord)
        updates += stats.iterations
        factorizations += stats.factorizations
    assert len(assembled) == 2 * factorizations
    assert updates >= 2 * factorizations > 0


def test_run_reports_critical_radius_instead_of_raising():
    p = PhysicalParams(ecc=0.0)
    consts = compute_derived(p)
    grid = grid_for_params(p, 4, 4)
    h = gap_function(grid, p)
    state = slaved_state(grid, np.full(grid.shape, 1.0001 * consts.R_crit), h,
                         (0.0, 0.0), p)
    res = run_transient(grid, state, h, (0.0, 0.0), p,
                        StepConfig(dt=1e-9), n_steps=5, stationarity_tol=1e-8)
    assert not res.converged
    assert res.failure is not None and "critical" in res.failure
    assert res.failed_step == 1


def test_history_recording_stride():
    p = PhysicalParams(alpha0=0.0, ecc=0.0)
    grid = grid_for_params(p, 4, 4)
    h = gap_function(grid, p)
    state = slaved_state(grid, np.full(grid.shape, 1.02 * p.R0), h, (0.0, 0.0),
                         p)
    res = run_transient(grid, state, h, (0.0, 0.0), p,
                        StepConfig(dt=1e-7), n_steps=6, stationarity_tol=1e-30)
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
    state = slaved_state(grid, np.full(grid.shape, 1.02 * p.R0), h, (0.0, 0.0),
                         p)
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
                        n_steps=6, stationarity_tol=1e-30)
    assert res.failed_step == 3 and res.steps == 2
    assert res.failure == "injected failure"
    assert len(res.step_stats["t"]) == 2


def test_inertial_mode_requires_wall_velocity():
    # a state is complete from its first instant: none is built without its
    # wall velocity and pressure, and the inertial start is at rest
    p = PhysicalParams(ecc=0.0)
    grid = grid_for_params(p, 4, 4)
    h = gap_function(grid, p)
    R = np.full(grid.shape, p.R0)
    with pytest.raises(TypeError):
        TransientState(t=0.0, R=R)
    with pytest.raises(TypeError):
        TransientState(t=0.0, R=R, Rdot=np.zeros(grid.shape))
    state = initial_state(grid, h, (0.0, 0.0), p, mode=MODE_INERTIAL)
    new, _ = step_inertial(grid, state, h, (0.0, 0.0), p,
                           StepConfig(dt=1e-9, mode=MODE_INERTIAL))
    assert new.t == 1e-9 and np.all(new.R > 0.0)


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
    state = slaved_state(grid, np.full(grid.shape, r_init), h, (0.0, 0.0),
                         TAME, V=np.zeros(grid.shape))
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
        state = slaved_state(grid, np.full(grid.shape, r_init), h,
                             (0.0, 0.0), TAME, V=np.zeros(grid.shape))
        cfg = StepConfig(dt=T / n, mode=MODE_INERTIAL)
        for _ in range(n):
            state, _ = step_inertial(grid, state, h, (0.0, 0.0), TAME, cfg)
        errors.append(abs(float(state.R[0, 0]) - ref))
    order = np.log2(errors[0] / errors[1])
    assert order > 3.6, (errors, order)


def test_inertial_positivity_guard():
    grid = grid_for_params(TAME, 4, 4)
    h = gap_function(grid, TAME)
    state = slaved_state(grid, np.full(grid.shape, TAME.R0), h, (0.0, 0.0),
                         TAME, V=np.full(grid.shape, -1e6 * TAME.R0))
    with pytest.raises(PositivityLossError):
        step_inertial(grid, state, h, (0.0, 0.0), TAME,
                      StepConfig(dt=1.0, mode=MODE_INERTIAL))


def test_inertial_run_trace_counts_every_pressure_solve(monkeypatch):
    # the inertial twin of test_run_trace_counts_the_work_of_the_run: every
    # pressure solve of the run from a complete state is counted in some
    # step's iterations, the three later stages and the end-of-step
    # pressure of every attempt, those of attempts dropped by a halving too
    grid = grid_for_params(TAME, 4, 4)
    h = gap_function(grid, TAME)
    state = slaved_state(grid, np.full(grid.shape, 1.05 * TAME.R0), h,
                         (0.0, 0.0), TAME,
                         V=np.full(grid.shape, -60.0 * TAME.R0))
    solves = []
    accelerate = dynamics._wall_acceleration
    monkeypatch.setattr(dynamics, "_wall_acceleration",
                        lambda *a, **k: solves.append(1) or accelerate(*a, **k))
    res = run_transient(grid, state, h, (0.0, 0.0), TAME,
                        StepConfig(dt=1e-3, mode=MODE_INERTIAL), n_steps=50,
                        stationarity_tol=0.0)
    assert res.steps == 50 and res.failure is None
    assert np.sum(res.step_stats["halvings"]) > 0
    assert len(solves) == int(np.sum(res.step_stats["iterations"]))


def test_inertial_step_starts_from_the_pressure_its_state_carries(monkeypatch):
    # the first RK4 stage takes the pressure the previous step solved at the
    # same (R, V): the start state's solve, then four a step
    solves = []
    accelerate = dynamics._wall_acceleration
    monkeypatch.setattr(dynamics, "_wall_acceleration",
                        lambda *a, **k: solves.append(1) or accelerate(*a, **k))
    grid = grid_for_params(TAME, 4, 4)
    h = gap_function(grid, TAME)
    res = run_transient(grid, initial_state(grid, h, (0.0, 0.0), TAME,
                                            MODE_INERTIAL), h,
                        (0.0, 0.0), TAME,
                        StepConfig(dt=1e-3, mode=MODE_INERTIAL), n_steps=20,
                        stationarity_tol=0.0)
    assert res.steps == 20 and np.sum(res.step_stats["halvings"]) == 0
    assert len(solves) == 1 + 4 * 20
    assert np.all(res.step_stats["iterations"] == 4)


def test_an_inertial_step_reads_the_wall_law_once_per_stage_plus_one(
        monkeypatch):
    # the four pressure stages read f1 and f2 in their film residual alone
    # (the acceleration needs neither), and the first stage's acceleration
    # reads them once at the pressure its state carries
    p = replace(TAME, alpha0=0.05, ecc=0.3)
    grid = grid_for_params(p, 16, 8)
    h = gap_function(grid, p)
    state = initial_state(grid, h, (p.surface_speed, 0.0), p, MODE_INERTIAL)
    calls = []
    wall = physics._wall
    monkeypatch.setattr(physics, "_wall",
                        lambda *a: calls.append(1) or wall(*a))
    _, stats = step_inertial(grid, state, h, (p.surface_speed, 0.0), p,
                             StepConfig(dt=1e-4, mode=MODE_INERTIAL))
    assert stats.halvings == 0 and stats.iterations == 4
    assert len(calls) == 4 + 1


def test_run_transient_reaches_the_target_rate():
    p = PhysicalParams(ecc=0.15)
    grid = grid_for_params(p, 24, 6)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    res = run_transient(grid, initial_state(grid, h, U, p), h, U, p,
                        StepConfig(dt=3e-4), n_steps=3200,
                        stationarity_tol=1e-6)
    assert res.converged
    assert res.rate < 1e-6
    assert res.failure is None
    assert all(len(v) == res.steps for v in res.step_stats.values())
    assert np.all(np.diff(res.step_stats["t"]) > 0.0)
    consts = compute_derived(p)
    assert res.max_Rhat * p.R0 < consts.R_crit
    assert res.min_p > consts.p_cav - 1e-6 * abs(consts.p_cav)


def _poisoned_chord(monkeypatch, poisoned):
    """Scale the film residual of the chord calls whose index (from 1)
    ``poisoned`` accepts by 1e9, which scales their updates alike."""
    calls = []
    residual = dynamics.film_residual

    def film_residual(*args):
        calls.append(1)
        F, *rest = residual(*args)
        return (F * 1e9 if poisoned(len(calls)) else F, *rest)

    monkeypatch.setattr(dynamics, "film_residual", film_residual)
    return calls


def test_a_diverging_chord_update_halves_the_step(monkeypatch):
    # the second update of the first attempt grows far past the first: the
    # attempt is a stall, and the step is retried at half its size
    p, grid, h, U = _journal_case()
    state = initial_state(grid, h, U, p)
    _poisoned_chord(monkeypatch, lambda call: call == 2)
    cfg = StepConfig(dt=3e-5)          # a size the error test accepts
    _, stats = step_inertialess(grid, state, h, U, p, cfg)
    assert (stats.halvings, stats.rejections) == (1, 0)
    assert stats.dt_used == 0.5 * cfg.dt


def test_a_divergence_stall_after_every_halving_says_so(monkeypatch):
    # every attempt diverges at its second update, long before it has spent
    # its MAX_CHORD_UPDATES, and the failure names the stall
    p, grid, h, U = _journal_case()
    state = initial_state(grid, h, U, p)
    calls = _poisoned_chord(monkeypatch, lambda call: call % 2 == 0)
    with pytest.raises(StepFailureError, match="iteration stalled"):
        step_inertialess(grid, state, h, U, p, StepConfig())
    assert len(calls) == 2 * (dynamics.MAX_HALVINGS + 1)


def test_a_chord_iterate_off_the_positive_cone_halves_the_step(monkeypatch):
    # the first chord update of the step crosses zero: the attempt is
    # rejected as a sign loss, and the step is retried at half its size
    solves = []
    factorize = dynamics._factorize

    class Poisoned:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, rhs):
            solves.append(1)
            delta = self._lu.solve(rhs)
            return np.full_like(delta, -1.0) if len(solves) == 1 else delta

    monkeypatch.setattr(dynamics, "_factorize",
                        lambda A: Poisoned(factorize(A)))
    p, grid, h, U = _journal_case()
    cfg = StepConfig(dt=3e-5)          # a size the error test accepts
    _, stats = step_inertialess(grid, initial_state(grid, h, U, p), h, U, p,
                                cfg)
    assert (stats.halvings, stats.rejections) == (1, 0)
    assert stats.dt_used == 0.5 * cfg.dt


def test_exhausted_error_test_retries_raise_step_failure(monkeypatch):
    # with the step-size ratio bounded below by 1, a rejected attempt is
    # retried at the same size and rejected again, MAX_HALVINGS times
    monkeypatch.setattr(dynamics, "GROWTH_LIMITS", (1.0, 5.0))
    p, grid, h, U = _journal_case()
    with pytest.raises(StepFailureError, match="error estimate stayed above"):
        step_inertialess(grid, initial_state(grid, h, U, p), h, U, p,
                         StepConfig(dt=2e-3))
