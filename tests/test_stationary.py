"""Newton solve for stationary states: residual, Jacobian, convergence.

The Jacobian is validated against directional finite differences of the
residual; the solver against exactness of the rest state, against strict
growth of the radius maximum along the eccentricity ladder, against the
guarded stop at the critical radius, and against a manufactured solution
of the coupled balance, whose exact error gives the discretization's order
along each axis.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import filmcav.stationary as stationary
from filmcav.elliptic import _factorize, film_pencil, film_residual
from filmcav.errors import (ConfigurationError, SolverFailureError,
                            SupercriticalRadiusError)
from filmcav.grid import (BC_DIRICHLET, BC_PERIODIC, gap_function,
                          grid_for_params, mirror_half)
from filmcav.physics import PhysicalParams, compute_derived
from filmcav.stationary import (
    StationarySolveConfig, solve_stationary, stationary_residual,
    trivial_solution,
)
from oracles import damped_newton, eval_f1, manufactured_stationary

DEFAULT = PhysicalParams()

#: boundary cases of the convection tests; their ids also name the one
#: convection scheme, first-order upwind
UPWIND_BCS = pytest.mark.parametrize("bc", [BC_PERIODIC, BC_DIRICHLET],
                                     ids=lambda bc: f"{bc}-upwind")


def _jacobian(grid, R, h, U, p):
    """The Newton matrix of the stationary solve: ``B`` at zero rate."""
    return film_pencil(grid, R, np.zeros(grid.shape), h, U, p)[0]


def test_solve_config_validation():
    with pytest.raises(ConfigurationError):
        StationarySolveConfig(newton_tol=0.0)
    with pytest.raises(ConfigurationError):
        StationarySolveConfig(newton_tol=np.inf)


def test_rest_state_is_exact_for_parallel_gap():
    p = PhysicalParams(ecc=0.0)
    grid = grid_for_params(p, 16, 6)
    h = gap_function(grid, p)
    R, pres = trivial_solution(grid, p)
    phi, scale = stationary_residual(grid, R, h, (p.surface_speed, 0.0), p)
    assert np.linalg.norm(phi) / scale < 1e-12
    assert np.all(pres == 0.0)


def test_rest_state_is_exact_without_sliding():
    # Eccentric gap but no entrainment: the uniform equilibrium radius
    # zeroes both flux terms identically.
    p = PhysicalParams(ecc=0.35, omega=0.0)
    grid = grid_for_params(p, 16, 6)
    h = gap_function(grid, p)
    R, _ = trivial_solution(grid, p)
    phi, scale = stationary_residual(grid, R, h, (0.0, 0.0), p)
    assert np.linalg.norm(phi) / scale < 1e-12
    Rs, ps, report = solve_stationary(grid, h, (0.0, 0.0), p)
    assert report.converged
    assert report.newton_iterations == [0]
    assert np.allclose(Rs, R, rtol=1e-15)


@UPWIND_BCS
def test_residual_scale_bounds_the_residual(bc):
    rng = np.random.default_rng(73)
    p = PhysicalParams(ecc=0.3)
    grid = grid_for_params(p, 12, 6, bc)
    h = gap_function(grid, p)
    for _ in range(10):
        R = p.R0 * rng.uniform(0.7, 1.4, size=grid.shape)
        phi, scale = stationary_residual(grid, R, h, (p.surface_speed, 0.0), p)
        assert np.linalg.norm(phi) <= scale


def test_jacobian_matches_directional_differences():
    # The residual is smooth in R; symmetric differences at a step of
    # 1e-7 R0 agree with the assembled Jacobian to ~1e-9 (measured), so a
    # sign error or missing term in any of the three Jacobian pieces would
    # exceed this bound by orders of magnitude.
    rng = np.random.default_rng(5)
    p = PhysicalParams(ecc=0.3)
    grid = grid_for_params(p, 10, 6)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    R = p.R0 * rng.uniform(0.9, 1.15, size=grid.shape)
    J = _jacobian(grid, R, h, U, p)
    t = 1e-7 * p.R0
    for _ in range(5):
        v = rng.normal(size=grid.shape)
        v /= np.max(np.abs(v))
        hi, _ = stationary_residual(grid, R + t * v, h, U, p)
        lo, _ = stationary_residual(grid, R - t * v, h, U, p)
        fd = (hi - lo) / (2.0 * t)
        got = J @ v.ravel()
        assert np.linalg.norm(got - fd) <= 1e-7 * np.linalg.norm(fd)


@UPWIND_BCS
def test_stationary_balance_is_the_film_equation_at_zero_rate(bc):
    # Phi(R) = -F(R, 0), and F is affine in the rate: F(R, S) = F(R, 0) + P S
    rng = np.random.default_rng(97)
    p = PhysicalParams(ecc=0.3)
    grid = grid_for_params(p, 10, 6, bc)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    R = p.R0 * rng.uniform(0.85, 1.15, size=grid.shape)
    S = rng.normal(scale=10.0, size=grid.shape)
    phi, scale = stationary_residual(grid, R, h, U, p)
    F0, p0, _ = film_residual(grid, R, np.zeros(grid.shape), h, U, p)
    assert np.array_equal(p0, eval_f1(R, p))
    assert np.linalg.norm(phi + F0.ravel()) <= 1e-14 * scale
    F, _, _ = film_residual(grid, R, S, h, U, p)
    _, P = film_pencil(grid, R, S, h, U, p)
    want = P @ S.ravel()
    err = np.linalg.norm((F - F0).ravel() - want)
    assert err <= 1e-12 * np.linalg.norm(want)


def test_stationary_pressure_is_the_equilibrium_pressure():
    p = PhysicalParams(ecc=0.2)
    grid = grid_for_params(p, 24, 8)
    h = gap_function(grid, p)
    R, pres, report = solve_stationary(grid, h, (p.surface_speed, 0.0), p)
    assert report.converged
    assert np.array_equal(pres, eval_f1(R, p))


def test_eccentricity_ladder_monotone_maxima():
    maxima = []
    for ecc in (0.1, 0.2, 0.3, 0.4):
        p = PhysicalParams(ecc=ecc)
        grid = grid_for_params(p, 48, 12)
        h = gap_function(grid, p)
        R, _, report = solve_stationary(grid, h, (p.surface_speed, 0.0), p)
        assert report.converged, ecc
        assert report.final_residual < 1e-10
        maxima.append(float(np.max(R)) / p.R0)
    assert maxima[0] > 1.0
    assert all(a < b for a, b in zip(maxima, maxima[1:])), maxima
    consts = compute_derived(DEFAULT)
    assert maxima[-1] * DEFAULT.R0 < consts.R_crit


def test_supercritical_eccentricity_raises():
    p = PhysicalParams(ecc=0.45)
    grid = grid_for_params(p, 48, 12)
    h = gap_function(grid, p)
    with pytest.raises(SupercriticalRadiusError):
        solve_stationary(grid, h, (p.surface_speed, 0.0), p)


def test_budget_starved_direct_solve_reports_a_message(monkeypatch):
    # Five iterations are too few at this amplitude (measured: the solve
    # takes 13, three of them Newton steps and ten chord steps); the
    # shortfall is reported, not raised.
    p = PhysicalParams(ecc=0.40)
    grid = grid_for_params(p, 32, 8)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    monkeypatch.setattr(stationary, "NEWTON_MAX", 5)
    _, _, report = solve_stationary(grid, h, U, p)
    assert not report.converged
    assert report.message is not None
    assert report.stage_fractions == [1.0]
    assert report.newton_iterations == [5]


def _chord_reevaluating(grid, h, U, p, cfg):
    """Residual history and iteration count of the chord Newton loop that
    evaluates the residual at the top of every iteration, so once more at
    each accepted iterate."""
    R, _ = trivial_solution(grid, p)
    history, iters, lu = [], 0, None

    def norm_at(R):
        return np.linalg.norm(stationary_residual(grid, R, h, U, p)[0])

    while True:
        phi, scale = stationary_residual(grid, R, h, U, p)
        norm_phi = np.linalg.norm(phi)
        history.append(float(norm_phi) / scale)
        if history[-1] < cfg.newton_tol or iters == stationary.NEWTON_MAX:
            return history, iters
        iters += 1
        if lu is not None:
            R_new = R + lu.solve(-phi).reshape(grid.shape)
            norm_new = norm_at(R_new) if np.all(R_new > 0.0) else np.inf
            if norm_new * stationary.NEWTON_CONTRACTION > norm_phi:
                lu = None
            if norm_new <= (1.0 - 1e-4) * norm_phi:
                R = R_new
                continue
        lu = _factorize(_jacobian(grid, R, h, U, p))
        delta = lu.solve(-phi).reshape(grid.shape)
        lam = 1.0
        while True:
            R_new = R + lam * delta
            if np.all(R_new > 0.0) and (norm_at(R_new)
                                        <= (1.0 - 1e-4 * lam) * norm_phi):
                break
            lam *= 0.5
        R = R_new


def test_each_state_is_evaluated_once(monkeypatch):
    # The accepted trial's residual is the next iterate's: the solve
    # evaluates the rest state and then each chord or line-search trial,
    # once each.
    p = PhysicalParams(ecc=0.3)
    grid = grid_for_params(p, 16, 8)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    cfg = StationarySolveConfig()
    history, iters = _chord_reevaluating(grid, h, U, p, cfg)
    states = []

    def counted(grid, R, *args):
        states.append(np.array(R, dtype=float).tobytes())
        return stationary_residual(grid, R, *args)

    monkeypatch.setattr(stationary, "stationary_residual", counted)
    _, _, report = solve_stationary(grid, h, U, p, cfg)
    assert report.converged
    rest, _ = trivial_solution(grid, p)
    trials = len(set(states[1:]))
    assert states[0] == rest.tobytes()
    assert trials >= iters > 1
    assert len(states) == 1 + trials
    # the same arithmetic as the loop that re-evaluates
    assert report.residual_history == history
    assert report.newton_iterations == [iters]


def test_chord_solve_matches_full_newton():
    # the held factor changes the path to the root, not the root: on both
    # x1 closures and two grids the chord solve and the full damped Newton
    # oracle end alike, at one radius field when they converge
    cfg = StationarySolveConfig()
    critical = chord_steps = 0
    for n1, bc, ecc in itertools.product((16, 32), (BC_PERIODIC, BC_DIRICHLET),
                                         (0.05, 0.2, 0.35, 0.6)):
        p = PhysicalParams(ecc=ecc)
        grid = grid_for_params(p, n1, 8, bc)
        h = gap_function(grid, p)
        U = (p.surface_speed, 0.0)
        try:
            R_ref, converged = damped_newton(grid, h, U, p, cfg.newton_tol)
        except SupercriticalRadiusError:
            with pytest.raises(SupercriticalRadiusError):
                solve_stationary(grid, h, U, p, cfg)
            critical += 1
            continue
        R, _, report = solve_stationary(grid, h, U, p, cfg)
        assert report.converged == converged, (n1, bc, ecc)
        if converged:
            assert np.max(np.abs(R - R_ref) / R_ref) <= 1e-7, (n1, bc, ecc)
            chord_steps += report.newton_iterations[0] - report.factorizations
    assert critical > 0 and chord_steps > 0


def test_at_most_one_newton_factor_is_alive(monkeypatch):
    # the held factor is released before its successor is built and
    # dropped when solve_stationary returns
    live, peak, built = [0], [0], []
    factorize = stationary._factorize

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

    monkeypatch.setattr(stationary, "_factorize",
                        lambda A: Counted(factorize(A)))
    p = PhysicalParams(ecc=0.4)
    grid = grid_for_params(p, 32, 8)
    h = gap_function(grid, p)
    _, _, report = solve_stationary(grid, h, (p.surface_speed, 0.0), p)
    assert report.converged and len(built) == report.factorizations > 1
    assert peak[0] == 1
    assert live[0] == 0


def test_chord_iterate_at_the_critical_radius_raises(monkeypatch):
    # with R_crit just below the converged maximum, the first iterate to
    # reach it is a chord step's, which is checked like a Newton step's
    p = PhysicalParams(ecc=0.3)
    grid = grid_for_params(p, 16, 8)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    R, _, report = solve_stationary(grid, h, U, p)
    assert report.converged
    consts = dataclasses.replace(compute_derived(p),
                                 R_crit=float(np.max(R)) * (1.0 - 1e-9))
    monkeypatch.setattr(stationary, "compute_derived", lambda params: consts)
    with pytest.raises(SupercriticalRadiusError):
        solve_stationary(grid, h, U, p)


def _unconverged_at_the_start(report):
    """The solve stopped before its first iterate, without raising."""
    assert not report.converged and report.message
    assert report.newton_iterations == [0]
    assert len(report.residual_history) == 1


def test_singular_newton_matrix_is_reported_unconverged(monkeypatch):
    def singular(A):
        raise SolverFailureError("sparse LU failed: Factor is exactly singular")

    monkeypatch.setattr(stationary, "_factorize", singular)
    p = PhysicalParams(ecc=0.3)
    grid = grid_for_params(p, 16, 8)
    R, _, report = solve_stationary(grid, gap_function(grid, p),
                                    (p.surface_speed, 0.0), p)
    _unconverged_at_the_start(report)
    assert report.message.startswith(
        "Newton stopped short of the tolerance: singular Newton matrix B, "
        "sparse LU failed: Factor is exactly singular (final relative ")
    assert report.factorizations == 0
    assert np.array_equal(R, trivial_solution(grid, p)[0])


def test_no_descending_step_is_reported_unconverged(monkeypatch):
    # every trial returns the rest state's residual, so none decreases:
    # the fresh factor's Newton step is halved MAX_BACKTRACKS times
    p = PhysicalParams(ecc=0.3)
    grid = grid_for_params(p, 16, 8)
    h = gap_function(grid, p)
    U = (p.surface_speed, 0.0)
    at_rest = stationary_residual(grid, trivial_solution(grid, p)[0], h, U, p)
    calls = []
    monkeypatch.setattr(stationary, "stationary_residual",
                        lambda *args: calls.append(1) or at_rest)
    R, _, report = solve_stationary(grid, h, U, p)
    _unconverged_at_the_start(report)
    assert report.message.startswith(
        "Newton stopped short of the tolerance: no descending step in "
        f"{stationary.MAX_BACKTRACKS} trials (final relative residual ")
    assert report.factorizations == 1
    assert len(calls) == 1 + stationary.MAX_BACKTRACKS
    assert np.array_equal(R, trivial_solution(grid, p)[0])


def test_non_finite_trial_is_rejected(monkeypatch):
    # +inf passes a bare positivity test; the chord trial it poisons must
    # fail, and the fresh factor's Newton step then continues the solve
    solves = []
    factorize = stationary._factorize

    class Poisoned:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, rhs):
            solves.append(1)
            x = self._lu.solve(rhs)
            if len(solves) == 2:                     # the first chord step
                x[0] = np.inf
            return x

    monkeypatch.setattr(stationary, "_factorize",
                        lambda A: Poisoned(factorize(A)))
    p = PhysicalParams(ecc=0.3)
    grid = grid_for_params(p, 16, 8)
    R, _, report = solve_stationary(grid, gap_function(grid, p),
                                    (p.surface_speed, 0.0), p)
    assert report.converged and len(solves) > 2
    assert np.all(np.isfinite(R))


# ---------------------------------------------------------------------------
# Manufactured solution of the coupled stationary balance
# ---------------------------------------------------------------------------

#: max |R_h - R*| / R_bar of the manufactured solve at 128 x 64, a = 0.05
MANUFACTURED_ERROR_128x64 = {BC_PERIODIC: 2.355e-2, BC_DIRICHLET: 1.026e-2}


def _manufactured_error(monkeypatch, bc, n1, n2, amplitude):
    """``max |R_h - R*| / R_bar`` of the stationary solve, on the mirror half
    of the default journal's ``n1 x n2`` grid, of the balance less the
    source of :func:`oracles.manufactured_stationary`."""
    grid = mirror_half(grid_for_params(DEFAULT, n1, n2, bc))
    R_star, source = manufactured_stationary(grid, DEFAULT, amplitude)

    def with_source(*args):
        F, p, mobility = film_residual(*args)
        return F - source, p, mobility

    monkeypatch.setattr(stationary, "film_residual", with_source)
    R, _, report = solve_stationary(grid, gap_function(grid, DEFAULT),
                                    (DEFAULT.surface_speed, 0.0), DEFAULT)
    assert report.converged, report.message
    return float(np.abs(R - R_star).max()) / compute_derived(DEFAULT).R_bar


@UPWIND_BCS
def test_manufactured_solution_is_first_order_along_x1(monkeypatch, bc):
    # first-order upwind convection along the flow sets the x1 order; the
    # error at 128 x 64 pins today's constant, so a worse one shows
    pytest.importorskip("sympy")
    errors = [_manufactured_error(monkeypatch, bc, n1, 64, 0.05)
              for n1 in (64, 128, 256)]
    orders = np.log2(np.divide(errors[:-1], errors[1:]))
    assert np.all((orders >= 0.85) & (orders <= 1.15)), orders
    assert errors[1] == pytest.approx(MANUFACTURED_ERROR_128x64[bc], rel=0.1)


@UPWIND_BCS
def test_manufactured_solution_is_second_order_across_the_film(monkeypatch,
                                                                bc):
    # across the film only the centred diffusion acts; n1 = 1024 keeps the
    # x1 error below the x2 error up to n2 = 8 (from 8 to 16 the x1 floor
    # takes over: the Dirichlet order reads 1.71)
    pytest.importorskip("sympy")
    coarse, fine = (_manufactured_error(monkeypatch, bc, 1024, n2, 0.2)
                    for n2 in (4, 8))
    assert np.log2(coarse / fine) >= 1.8
