"""Direct computation of stationary states of the coupled film model.

A stationary state has zero squeeze rate, which forces the film pressure to
equal the bubble-equilibrium pressure pointwise, ``p_s = f1(R_s)``.  The
radius field alone then satisfies the nonlinear balance

    Phi(R) = -Div( f3(R) h^3 Grad f1(R) ) + Div( U h f4(R) ) = 0,

which is the film equation of :func:`elliptic.film_residual` at zero
growth rate, ``Phi(R) = -F(R, 0)``: a Newton root of ``Phi`` is *the same
fixed point* the transient integrator relaxes to (not merely a consistent
one).  The Newton matrix is ``B`` of :func:`elliptic.film_pencil` at
``S = 0``, the exact derivative of the discrete balance and the same
linearization the stepper and the spectra use.  :func:`stationary_residual`
takes ``Phi`` from one call of :func:`elliptic.film_residual` and its scale
from that call's face coefficients, :func:`elliptic.flux_scale`: no
residual builds a matrix.

Whenever ``U = 0`` or the gap is parallel (``h - min h = 0``) the uniform
rest state ``(R_bar, 0)`` is an exact stationary solution; it is the Newton
starting point.

The solve is a chord Newton (Kelley, *Solving Nonlinear Equations with
Newton's Method*, SIAM 2003) on one damped line search: the chord step on
the LU of ``B`` held across iterations is a single full-length trial, and a
failed one, or one that cuts ``||Phi||`` less than ``NEWTON_CONTRACTION``
times, drops the factor; after a failed one the same iterate takes the
halved Newton step of a fresh LU (see :func:`solve_stationary`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, SolverFailureError,
                     SupercriticalRadiusError)
from .grid import Grid, ensure_field
from .elliptic import _factorize, film_pencil, film_residual, flux_scale
from .physics import PhysicalParams, compute_derived, eval_wall, radius_fault

MAX_BACKTRACKS = 20
#: most Newton iterations of one solve
NEWTON_MAX = 40
#: a held factor of ``B`` is kept after a chord step only if the step cut
#: ``||Phi||`` at least this many times
NEWTON_CONTRACTION = 4.0


@dataclass(frozen=True)
class StationarySolveConfig:
    """Newton settings.

    ``newton_tol`` is a relative residual tolerance: the discrete balance is
    declared satisfied when ``||Phi||_2`` has fallen to that fraction of the
    scale of :func:`stationary_residual`, the gross (sign-less) diffusive
    flux plus the net entrained divergence of every cell.
    """

    newton_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.newton_tol < np.inf:
            raise ConfigurationError("newton_tol must be finite and positive")


@dataclass
class StationaryReport:
    """Convergence record of :func:`solve_stationary`.

    ``newton_iterations`` counts the accepted iterates, chord and Newton
    steps alike (a rejected chord trial is none), and ``factorizations``
    the LU factorizations of the Newton matrix ``B``.
    """

    converged: bool
    stage_fractions: list[float] = field(default_factory=list)
    newton_iterations: list[int] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)
    final_residual: float = np.inf
    factorizations: int = 0
    message: str | None = None


def trivial_solution(grid: Grid, params: PhysicalParams
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The uniform rest state ``(R_bar, 0)``, exact whenever ``U = 0`` or
    the gap is parallel."""
    return (np.full(grid.shape, compute_derived(params).R_bar),
            np.zeros(grid.shape))


def stationary_residual(grid: Grid, R: np.ndarray, h: np.ndarray,
                        U: tuple[float, float], params: PhysicalParams
                        ) -> tuple[np.ndarray, float]:
    """Discrete stationary balance and its flux scale.

    Returns ``(Phi, scale)`` with ``Phi = -F(R, 0)`` of
    :func:`elliptic.film_residual`, raveled.  ``scale`` is the 2-norm of
    ``|K| (|f1| + p_char) + |F + K f1|``, the gross diffusive flux of each
    cell at the pressure plus the characteristic equilibrium-pressure scale
    ``p_char = (2 sigma/R0 + |P0 - p_bnd|) / rho_l``, and its net entrained
    divergence: by the triangle inequality it bounds ``||Phi||_2``.  The
    pressure floor keeps ``||Phi||_2 / scale`` meaningful at the rest
    state, where the true fluxes vanish to the rounding level of the
    equilibrium radius and a purely field-based scale would degenerate.
    """
    F, f1, mobility = film_residual(grid, R, np.zeros(grid.shape), h, U,
                                    params)
    p_char = (2.0 * params.sigma / params.R0
              + abs(params.P0 - params.p_bnd)) / params.rho_l
    return -F.ravel(), max(flux_scale(grid, F, f1, mobility, p_char), 1e-300)


def solve_stationary(grid: Grid, h: np.ndarray, U: tuple[float, float],
                     params: PhysicalParams,
                     cfg: StationarySolveConfig | None = None
                     ) -> tuple[np.ndarray, np.ndarray, StationaryReport]:
    """Newton solve for the stationary pair ``(R_s, p_s)``.

    Chord Newton from the uniform rest state, at most ``NEWTON_MAX``
    iterations.  Each accepts one trial ``R + lam delta`` that keeps ``R``
    finite and positive and cuts ``||Phi||`` to ``1 - 1e-4 lam`` of its value:
    the chord step on a held LU of ``B`` at ``lam = 1`` alone or, when there is
    no factor or the chord trial failed, the Newton step on a fresh LU at the
    iterate, ``lam`` halved up to ``MAX_BACKTRACKS`` times.  The factor is kept
    only after a chord step that cut ``||Phi||`` at least
    ``NEWTON_CONTRACTION`` times.  At most one factor is alive, none after the
    return.  Raises :class:`SupercriticalRadiusError` when an accepted iterate,
    chord or Newton, reaches the critical radius.  A solve that stops short of
    ``cfg.newton_tol`` (its iterations spent, a singular Jacobian, or no
    descending step) is reported unconverged with a ``message`` that names
    which of the three ended it, not raised.  The report's ``stage_fractions``
    is ``[1.0]``, ``newton_iterations`` holds the one iteration count and
    ``factorizations`` the LUs of ``B``.
    """
    cfg = cfg or StationarySolveConfig()
    R_crit = compute_derived(params).R_crit
    hf = ensure_field(grid, h, "h")
    report = StationaryReport(converged=False, stage_fractions=[1.0])
    R, _ = trivial_solution(grid, params)
    iters = 0
    phi, scale = stationary_residual(grid, R, hf, U, params)
    # allocated after the first residual, whose stencil build is the peak
    zero_rate = np.zeros(grid.shape)
    lu = None                                       # the held factor of B
    stop = f"NEWTON_MAX = {NEWTON_MAX} iterations spent"

    def descend(delta, steps):
        # the first of ``steps`` trials R + lam delta, lam = 1, 1/2, ..., that
        # is finite, positive and cuts ||Phi|| to 1 - 1e-4 lam of its value
        lam = 1.0
        for _ in range(steps):
            R_new = R + lam * delta.reshape(grid.shape)
            if radius_fault(R_new) is None:
                trial = (R_new, *stationary_residual(grid, R_new, hf, U,
                                                     params))
                if np.linalg.norm(trial[1]) <= (1.0 - 1e-4 * lam) * norm_phi:
                    return trial
            lam *= 0.5
        return None

    while True:
        report.final_residual = float(np.linalg.norm(phi)) / scale
        report.residual_history.append(report.final_residual)
        if report.final_residual < cfg.newton_tol or iters == NEWTON_MAX:
            break
        norm_phi = np.linalg.norm(phi)
        trial = None if lu is None else descend(lu.solve(-phi), 1)  # chord
        if (trial is None
                or np.linalg.norm(trial[1]) * NEWTON_CONTRACTION > norm_phi):
            lu = None                       # refactor now or at the next use
        if trial is None:                           # damped Newton step
            try:
                lu = _factorize(film_pencil(grid, R, zero_rate, hf, U,
                                            params)[0])
            except SolverFailureError as exc:
                stop = f"singular Newton matrix B, {exc}"
                break
            report.factorizations += 1
            trial = descend(lu.solve(-phi), MAX_BACKTRACKS)
            if trial is None:
                stop = f"no descending step in {MAX_BACKTRACKS} trials"
                break
        iters += 1
        R, phi, scale = trial
        if float(np.max(R)) >= R_crit:
            raise SupercriticalRadiusError(
                f"stationary iterate reached the critical radius "
                f"(max R_hat = {float(np.max(R)) / params.R0:.4f}); the "
                "monotone pressure-radius response ends there and the "
                "solve refuses to continue")
    report.newton_iterations.append(iters)
    report.converged = report.final_residual < cfg.newton_tol
    if not report.converged:
        report.message = (f"Newton stopped short of the tolerance: {stop} "
                          f"(final relative residual {report.final_residual:.3e})")
    p = eval_wall(R, params)[0]
    return R, p, report
