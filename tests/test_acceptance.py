"""Acceptance gate: ten end-to-end checks, one verdict line each.

Each test prints ``[ACCEPTANCE nn] PASS/FAIL - <what was checked>`` (visible
with ``pytest -s``) and then asserts, so the suite result mirrors the
verdict lines.  The desk-scale (128x32) transient runs are shared through a
session fixture because three criteria inspect them.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from filmcav.dynamics import (StepConfig, initial_state, run_transient,
                              step_inertialess)
from filmcav.elliptic import solve_spd
from filmcav.grid import (BC_DIRICHLET, BC_PERIODIC, Grid, gap_function,
                          grid_for_params)
from filmcav.physics import (PhysicalParams, compute_derived, eval_alpha,
                             eval_f1_prime)
from filmcav.stability import hurwitz_analysis
from filmcav.stationary import solve_stationary
from oracles import (apply_A2, assemble_LG, assemble_operator, centers,
                     constant_gap_spectrum_LF,
                     constant_gap_spectrum_LG, critical_speed,
                     eval_alpha_prime, eval_f1, eval_f2, eval_f2_prime,
                     eval_f3, eval_f3_prime, eval_f4,
                     eval_f4_prime, eval_f5, eval_f5_prime, field_norms,
                     slaved_state,
                     trivial_branch_spectrum_LF, trivial_LG_eigenvalue)

DESK = (128, 32)
DT = 3e-4
SWEEP_ECCS = (0.1, 0.2, 0.3, 0.4, 0.5)

# Gentle parameter set for the speed-threshold criterion: the bubble
# oscillator is underdamped there, so the inertial spectra sit at O(1)
# scales and the threshold crossing is numerically clean.
GENTLE = PhysicalParams(rho_l=1000.0, mu_l=1.0, rho_g=900.0, mu_g=0.01,
                        kappa_s=0.0, k_poly=1.4, sigma=1.0, P0=1000.0,
                        p_bnd=980.0, R0=0.1, alpha0=0.1, J_r=1.0, B=1.0,
                        h0=1.0 / 32.0, ecc=0.0, omega=0.0)


def _verdict(num, description, ok, detail=""):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _exact_laplacian_eigenvalues(n1, n2, L1, L2):
    """Literal 5-point Dirichlet-Laplacian eigenvalue formula (oracle)."""
    dx, dy = L1 / n1, L2 / n2
    k1 = np.arange(1, n1 + 1)
    k2 = np.arange(1, n2 + 1)
    e1 = (4.0 / dx ** 2) * np.sin(k1 * np.pi / (2 * n1)) ** 2
    e2 = (4.0 / dy ** 2) * np.sin(k2 * np.pi / (2 * n2)) ** 2
    return (e1[:, None] + e2[None, :]).ravel()


@pytest.fixture(scope="session")
def desk_transients():
    """One desk-scale transient per sweep eccentricity (Table-1 physics)."""
    runs = {}
    for ecc in SWEEP_ECCS:
        params = PhysicalParams(ecc=ecc)
        grid = grid_for_params(params, *DESK)
        h = gap_function(grid, params)
        U = (params.surface_speed, 0.0)
        start = time.monotonic()
        res = run_transient(grid, initial_state(grid, h, U, params), h, U,
                            params, StepConfig(dt=DT), 2500, 1e-8)
        runs[ecc] = (res, time.monotonic() - start, grid, h, params)
    return runs


def test_criterion_01_trivial_stationary_state():
    params = PhysicalParams(ecc=0.3, omega=0.0)
    consts = compute_derived(params)

    # Independent bisection oracle on the static pressure balance.
    def balance(r):
        return (params.P0 * (params.R0 / r) ** (3.0 * params.k_poly)
                - params.p_bnd - 2.0 * params.sigma / r) / params.rho_l

    lo, hi = 0.5 * params.R0, 4.0 * params.R0
    assert balance(lo) > 0.0 > balance(hi)
    while (hi - lo) > 1e-10 * lo:
        mid = 0.5 * (lo + hi)
        if balance(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    R_bar = 0.5 * (lo + hi)

    grid = grid_for_params(params, *DESK)
    h = gap_function(grid, params)
    start = time.monotonic()
    res = run_transient(grid, initial_state(grid, h, (0.0, 0.0), params), h,
                        (0.0, 0.0), params, StepConfig(dt=DT), 200, 1e-8)
    elapsed = time.monotonic() - start

    radius_err = float(np.max(np.abs(res.state.R - R_bar))) / R_bar
    p_inf = float(np.max(np.abs(res.state.p)))
    ok = (res.converged and radius_err <= 1e-9
          and p_inf < 1e-10 * abs(consts.p_cav) and elapsed < 10.0)
    _verdict(1, "no-sliding transient lands on the bisection rest radius "
                "with vanishing pressure",
             ok, f"radius err {radius_err:.2e}, |p|_inf {p_inf:.2e}, "
                 f"{elapsed:.2f}s")


def test_criterion_02_massless_trivial_branch_spectrum():
    params = PhysicalParams()
    c = compute_derived(params)
    n = 32
    grid = Grid(n, n, 1.0, 1.0, bc_x1=BC_DIRICHLET)
    R = np.full(grid.shape, c.R_bar)
    h = np.full(grid.shape, params.h0)
    eig = np.linalg.eigvals(assemble_LG(grid, R, h, (0.0, 0.0), params))

    kappa = _exact_laplacian_eigenvalues(n, n, 1.0, 1.0)
    lam = trivial_LG_eigenvalue(kappa, params)
    worst = float(np.max(np.abs(np.sort(eig.real) - np.sort(lam))
                         / np.abs(np.sort(lam))))
    real_negative = bool(np.all(eig.real < 0.0)
                         and np.max(np.abs(eig.imag)) == 0.0)
    ok = worst <= 1e-6 and real_negative
    _verdict(2, "quasi-static spectrum on the 32x32 Dirichlet parallel gap "
                "matches the modal closed form",
             ok, f"worst rel {worst:.2e}, real-negative {real_negative}")


def test_criterion_03_inertial_trivial_branch_spectrum():
    params = PhysicalParams()
    c = compute_derived(params)
    n = 32
    lam = trivial_branch_spectrum_LF(params, n, n)
    kappa = _exact_laplacian_eigenvalues(n, n, 1.0, 1.0)
    gamma = c.b5 * c.b_r / (c.b3 * params.h0 ** 2 * kappa)

    # Normalized quadratic residual of each eigenvalue against its best
    # matching mode.
    lam_col = lam[:, None]
    residual = np.abs(lam_col ** 2 + (c.b2 + gamma)[None, :] * lam_col + c.b1)
    gross = (np.abs(lam_col) ** 2
             + (c.b2 + gamma)[None, :] * np.abs(lam_col) + c.b1)
    worst = float(np.max(np.min(residual / gross, axis=1)))
    ok = (lam.size == 2 * kappa.size and worst <= 1e-8
          and bool(np.all(lam.real < 0.0)))
    _verdict(3, "inertial spectrum eigenvalues satisfy their modal "
                "quadratics on the same grid",
             ok, f"worst residual {worst:.2e}, count {lam.size}")


def _exact_det(M):
    if len(M) == 1:
        return M[0][0]
    total = Fraction(0)
    for j in range(len(M)):
        if M[0][j] == 0:
            continue
        total += (-1) ** j * M[0][j] * _exact_det(
            [row[:j] + row[j + 1:] for row in M[1:]])
    return total


def test_criterion_04_hurwitz_determinant_forms():
    rng = np.random.default_rng(23)
    worst = 0.0
    exact_ok = True
    factor_ok = True
    for _ in range(50):
        p_bnd = rng.uniform(500.0, 2000.0)
        rho_l = rng.uniform(500.0, 2000.0)
        params = PhysicalParams(
            rho_l=rho_l, mu_l=rng.uniform(0.05, 5.0),
            rho_g=rng.uniform(0.5, min(900.0, rho_l)),
            mu_g=rng.uniform(1e-3, 0.1),
            kappa_s=rng.uniform(0.0, 0.05),
            k_poly=float(rng.choice([1.0, 1.4])),
            sigma=rng.uniform(0.3, 3.0),
            P0=p_bnd * rng.uniform(1.01, 1.5), p_bnd=p_bnd,
            R0=rng.uniform(0.02, 0.2), alpha0=rng.uniform(0.01, 0.4),
            J_r=1.0, B=1.0, h0=rng.uniform(1.0 / 64.0, 1.0 / 8.0),
            ecc=0.0, omega=0.0)
        k = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        rep = hurwitz_analysis(params, rng.uniform(0.0, 20.0), k)

        a0, b0 = Fraction(rep.alpha0), Fraction(rep.beta0)
        a1, b1, a2 = (Fraction(rep.alpha1), Fraction(rep.beta1),
                      Fraction(rep.alpha2))
        closed = [b0, b0 * a1 - a0 * b1, None, None]
        closed[2] = closed[1] * b1 - b0 * b0 * a2
        closed[3] = a2 * closed[2]
        H = [[b0, b1, 0, 0], [a0, a1, a2, 0],
             [0, b0, b1, 0], [0, a0, a1, a2]]
        direct = [_exact_det([row[:m] for row in H[:m]])
                  for m in (1, 2, 3, 4)]
        exact_ok &= closed == direct
        factor_ok &= (direct[3] == a2 * direct[2]
                      and rep.deltas[3] == rep.alpha2 * rep.deltas[2])

        gross2 = float(b0 * a1 + a0 * b1)
        gross3 = (float(abs(closed[1])) * float(b1)
                  + float(b0) ** 2 * float(abs(a2)))
        grosses = (float(b0), gross2, gross3, float(abs(a2)) * gross3)
        for floats in (rep.deltas, rep.deltas_direct):
            for value, exact, gross in zip(floats, direct, grosses):
                worst = max(worst,
                            abs(value - float(exact)) / max(gross, 1e-300))
    ok = exact_ok and factor_ok and worst <= 1e-12
    _verdict(4, "closed-form stability determinants equal direct Hurwitz "
                "minors over 50 random draws",
             ok, f"exact match {exact_ok}, factorization {factor_ok}, "
                 f"float dev {worst:.2e}")


def test_criterion_05_speed_threshold_flip():
    start = time.monotonic()
    u_crit = critical_speed(GENTLE)
    lf_low = constant_gap_spectrum_LF(GENTLE, 0.9 * u_crit, 64, 64)
    lf_high = constant_gap_spectrum_LF(GENTLE, 1.1 * u_crit, 64, 64)
    lg_low = constant_gap_spectrum_LG(GENTLE, 0.9 * u_crit, 64, 64)
    lg_high = constant_gap_spectrum_LG(GENTLE, 1.1 * u_crit, 64, 64)
    elapsed = time.monotonic() - start

    margin = 1e-8
    flip = (lf_low.real.max() < -margin and lf_high.real.max() > margin)
    massless_stable = (lg_low.real.max() < -margin
                       and lg_high.real.max() < -margin)
    ok = flip and massless_stable and elapsed < 120.0
    _verdict(5, "inertial verdict flips across the modal critical speed "
                "while the quasi-static operator stays stable",
             ok, f"U_crit {u_crit:.6g} at mode (1, 1), LF max Re "
                 f"{lf_low.real.max():.3g} -> {lf_high.real.max():.3g}, "
                 f"{elapsed:.1f}s")


def test_criterion_06_journal_regression(desk_transients):
    res, elapsed, grid, h, params = desk_transients[0.4]
    consts = compute_derived(params)
    p_floor = consts.p_cav - 1e-6 * abs(consts.p_cav)
    final_min_p = float(np.min(res.state.p))
    rhat_crit = consts.R_crit / params.R0
    ok = (res.converged and final_min_p >= p_floor
          and res.max_Rhat < rhat_crit)
    _verdict(6, "journal run at ecc 0.4 converges with pressures above the "
                "vapor floor and subcritical radii",
             ok, f"steps {res.steps}, min p {final_min_p:.6g} >= "
                 f"{p_floor:.6g}, max Rhat {res.max_Rhat:.6g} < "
                 f"{rhat_crit:.6g}, {elapsed:.0f}s")


def test_criterion_07_eccentricity_sweep_band(desk_transients):
    maxima = [desk_transients[e][0].max_Rhat for e in SWEEP_ECCS]
    converged = {e: desk_transients[e][0].converged for e in SWEEP_ECCS}
    increasing = all(a < b for a, b in zip(maxima, maxima[1:]))
    low_ok = all(converged[e] for e in SWEEP_ECCS if e <= 0.35)
    high_fails = any(not converged[e] for e in SWEEP_ECCS if e >= 0.45)
    ok = increasing and low_ok and high_fails
    detail = ", ".join(f"{e}:{'ok' if converged[e] else 'fail'}/"
                       f"{m:.4f}" for e, m in zip(SWEEP_ECCS, maxima))
    _verdict(7, "peak bubble radius grows strictly with eccentricity and "
                "convergence is lost inside the stated band", ok, detail)


def test_criterion_08_critical_radius_range():
    params = PhysicalParams()
    consts = compute_derived(params)
    rhat_crit = consts.R_crit / params.R0
    ok = 1.7 <= rhat_crit <= 1.9
    _verdict(8, "derived critical radius ratio sits in [1.7, 1.9]",
             ok, f"Rhat_crit {rhat_crit:.6f}")


def test_criterion_09_property_suites():
    # (a) squeeze-feedback pairing positivity, 100 random draws.
    rng = np.random.default_rng(41)
    pairing_ok = True
    for trial in range(100):
        params = PhysicalParams(ecc=float(rng.uniform(0.0, 0.5)))
        grid = Grid(8, 6, 2.0 * np.pi * params.J_r, params.B,
                    bc_x1=BC_PERIODIC if trial % 2 == 0 else BC_DIRICHLET)
        R = params.R0 * rng.uniform(0.7, 1.3, size=grid.shape)
        h = gap_function(grid, params)
        w = rng.normal(size=grid.shape)
        response = apply_A2(grid, R, h, w, params)
        pairing = float(np.sum(-eval_f5(R, params) * h * response * w)
                        * grid.dx1 * grid.dx2)
        pairing_ok &= pairing > 0.0

    # (b) analytic radius derivatives against central differences.
    params = PhysicalParams()
    R = params.R0 * rng.uniform(0.7, 1.5, size=200)
    t = 1e-5 * params.R0
    deriv_worst = 0.0
    for f, fp in ((eval_alpha, eval_alpha_prime), (eval_f1, eval_f1_prime),
                  (eval_f2, eval_f2_prime), (eval_f3, eval_f3_prime),
                  (eval_f4, eval_f4_prime), (eval_f5, eval_f5_prime)):
        fd = (f(R + t, params) - f(R - t, params)) / (2.0 * t)
        scale = np.maximum(np.abs(fd), np.max(np.abs(fd)) * 1e-12)
        deriv_worst = max(deriv_worst,
                          float(np.max(np.abs(fp(R, params) - fd) / scale)))

    # (c) manufactured-solution convergence order of the film operator.
    def exact(x, y):
        return np.sin(2 * np.pi * x) * np.sin(np.pi * y)

    def forcing(x, y):
        sx, cx = np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)
        sy, cy = np.sin(np.pi * y), np.cos(np.pi * y)
        c = 1.5 + 0.5 * sx * sy
        return -((np.pi * cx * sy) * (2 * np.pi * cx * sy)
                 + c * (-4 * np.pi ** 2 * sx * sy)
                 + (0.5 * np.pi * sx * cy) * (np.pi * sx * cy)
                 + c * (-np.pi ** 2 * sx * sy))

    errors = []
    for n in (16, 32, 64):
        grid = Grid(n, n, 1.0, 1.0)
        X, Y = centers(grid)
        K = assemble_operator(grid, 1.5 + 0.5 * exact(X, Y))
        errors.append(field_norms(grid, solve_spd(K, forcing(X, Y), grid)
                                  - exact(X, Y))["L2"])
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    order_min = float(np.min(orders))

    # (d) uniform-data reduction against a classical RK4 oracle.
    params0 = PhysicalParams(alpha0=0.0, ecc=0.0)
    grid = grid_for_params(params0, 4, 4)
    h = gap_function(grid, params0)
    dt, steps = 1e-6, 100
    state = slaved_state(grid, np.full(grid.shape, 1.05 * params0.R0), h,
                         (0.0, 0.0), params0)
    cfg = StepConfig(dt=dt, picard_tol=1e-12)
    for _ in range(steps):
        state, _ = step_inertialess(grid, state, h, (0.0, 0.0), params0, cfg)

    def rate(r):
        return eval_f1(r, params0) / (r * eval_f2(r, params0))

    r = 1.05 * params0.R0
    for _ in range(steps * 100):
        k1 = rate(r)
        k2 = rate(r + 0.005 * dt * k1)
        k3 = rate(r + 0.005 * dt * k2)
        k4 = rate(r + 0.01 * dt * k3)
        r += dt / 600.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    ode_err = abs(float(state.R[0, 0]) - r) / r

    ok = (pairing_ok and deriv_worst <= 1e-6 and order_min >= 1.9
          and ode_err <= 1e-4)
    _verdict(9, "monotone pairing, derivative checks, diffusion order, and "
                "the RK4 cross-check all hold",
             ok, f"pairing {pairing_ok}, deriv {deriv_worst:.2e}, "
                 f"order {order_min:.3f}, ode {ode_err:.2e}")


def test_criterion_10_stationary_transient_agreement(desk_transients):
    worst = 0.0
    times_ok = True
    solves_ok = True
    details = []
    for ecc in (0.1, 0.2, 0.3):
        res, transient_time, grid, h, params = desk_transients[ecc]
        start = time.monotonic()
        R_s, _, report = solve_stationary(
            grid, h, (params.surface_speed, 0.0), params)
        newton_time = time.monotonic() - start
        gap = float(np.max(np.abs(R_s - res.state.R))) / params.R0
        worst = max(worst, gap)
        times_ok &= transient_time < 60.0 and newton_time < 60.0
        solves_ok &= report.converged and res.converged
        details.append(f"{ecc}:{gap:.2e}")
    ok = solves_ok and worst <= 1e-6 and times_ok
    _verdict(10, "Newton equilibria agree with transient long-time limits "
                 "for mild eccentricities",
             ok, ", ".join(details))
