"""Transient integration of the coupled film/bubble dynamics.

The quasi-static (inertialess) model evolves the radius field by

    dR/dt = G(R),   G = (f1(R) - p) / (R f2(R)),

where the film pressure ``p`` is slaved to ``R``: the elimination is the
root in ``S`` of the film equation ``F(R, S)`` of
:func:`elliptic.film_residual`.  ``F`` is affine in ``S``,
``F(R, S) = F(R, 0) + P S`` with ``P`` of the pencil
:func:`elliptic.film_pencil`, so the root is one solve

    P G = -F(R, 0),

uniquely solvable for any positive radius field (``P`` is similar to an
SPD matrix, see :func:`elliptic.solve_spd`), and ``p = f1 - R f2 G``
follows pointwise.

Time stepping is backward Euler.  Every step attempt solves the implicit
equation ``R - R_old - dt G(R) = 0`` from a second-order extrapolated start
by chord Newton on its pencil form: the film equation ``F(x, S)`` of
:func:`elliptic.film_residual` at the backward-difference rate
``S = (x - R_old) / dt``, which costs face sums, no matrix and no
pressure elimination.  Since ``F(x, 0) = -P G(x)``, ``P (R_old + dt G(x)
- x) = -dt F``: ``F`` vanishes exactly at the backward-Euler solution.  Its
Newton matrix ``P - dt B`` comes from the pencil ``(B, P)`` of
:func:`elliptic.film_pencil`, the linearization the stationary solver and
the spectra use as well, formed in place on the shared 5-point pattern.  As stiff BDF codes keep their Newton
matrix (Brown, Byrne & Hindmarsh, "VODE", SISC 1989), the factor outlives the
attempt: the run's :class:`ChordCarry` holds it from attempt to attempt and
step to step.  The iteration decides from its own updates alone.  It
refactors at the current iterate, releasing the old factor first, only when
it has no factor or when an update shrinks by less than 10x from the best
one.  It converges on the estimate of the remaining error, ``theta / (1 -
theta) update <= 1e-3 picard_tol`` with ``theta`` the ratio of successive
updates (Hairer & Wanner, *Solving ODEs II*, §IV.8), or on an update at the
rounding floor ``64 eps max|x|``, the only way a first update, with no
``theta`` yet, converges (at rest, updates are noise that never contracts).
The factor 1e-3 is small because the state's rate ``S = (x - R_old) / dt``
carries the error of ``x`` over ``dt``: at 1e-2, the pressure of short early
steps missed the elimination's by up to 3.1 ``picard_tol max|p|`` (measured
at ecc 0.05-0.3 on 8x4 to 32x16 grids).  The new state is ``x`` with its
backward rate ``S`` and the growth-law pressure ``f1(x) - x f2(x) S``, where
``F(x, S) = 0`` holds to the chord tolerance.
A step whose iterate turns non-positive or non-finite, or whose iteration
stalls, is rejected and retried at half the step size (at most 10 halvings)
before a failure is declared.

The step size is error-controlled.  The difference between the solved
step and the extrapolated start is a free error estimate, in the manner of
the Milne device (Hairer & Wanner, *Solving ODEs II*, §IV.8); a step whose
estimate exceeds ``error_tol`` is retried smaller, and an accepted one
proposes the next step size by Gustafsson's PI controller (ACM TOMS 1991).
Since the start extrapolates the rate to the end of the step, the estimate
shrinks like ``dt^3`` on a smooth solution (8x per halving, measured), one
order faster than the local error of backward Euler itself.  ``dt`` is only
the initial step, so the slow relaxation tail is crossed in steps that grow
with the time scale of the decay.  An optional inertial mode
integrates the full second-order wall dynamics with classical RK4 at the
fixed step ``dt``, under the same guard on its stages, on the film equation
at the wall velocity ``V``: ``K (R dV/dt + 3/2 V^2) = -F(R, V)``.

A :class:`TransientState` is ``(t, R, Rdot, p)`` from its first instant:
:func:`initial_state` slaves the start's pressure to its data (the run's
one pressure elimination), and every step returns the rate and pressure of
its new state.  The module writes no files; :func:`run_transient` hands
each step to its caller's ``on_step``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse.linalg import SuperLU

from .errors import (ConfigurationError, PositivityLossError, StepFailureError)
from .grid import Grid, ensure_field
from .elliptic import (_factorize, film_pencil, film_residual,
                       mobility_operator, solve_spd)
from .physics import PhysicalParams, compute_derived, eval_wall, radius_fault

MODE_INERTIALESS = "inertialess"
MODE_INERTIAL = "inertial"

#: per-step columns of :attr:`TransientResult.step_stats`
STEP_STATS_KEYS = ("t", "dt_used", "iterations", "factorizations",
                   "halvings", "rejections")
#: per-recorded-step columns of :attr:`TransientResult.history`
HISTORY_KEYS = ("t", "rate", "min_Rhat", "max_Rhat", "min_p", "max_p")

#: most halvings, and most error-test retries, of one step
MAX_HALVINGS = 10

#: most chord updates of one backward-Euler attempt; an attempt that spends
#: them without converging has stalled
MAX_CHORD_UPDATES = 59

#: a chord iteration that shrinks the update by less than this factor
#: refactors the Newton matrix at the current iterate
CHORD_CONTRACTION = 10.0

#: an attempt converges once the contraction estimate ``theta / (1 - theta)
#: * update`` of the remaining error, ``theta`` the ratio of two successive
#: updates, is at most ``CHORD_KAPPA * picard_tol``
CHORD_KAPPA = 1e-3

#: an update at most this fraction of ``max|x|`` is rounding noise, which
#: never contracts at rest: it converges the attempt
CHORD_FLOOR = 64.0 * np.finfo(float).eps

#: PI step-size controller (Gustafsson, ACM TOMS 1991): exponents of the
#: current and the previous error (each over ``error_tol``), safety factor,
#: and the bounds of the step-size ratio
PI_EXPONENTS = (0.35, 0.2)
SAFETY = 0.9
GROWTH_LIMITS = (0.2, 5.0)


@dataclass(frozen=True)
class StepConfig:
    """Time-step settings.

    ``dt`` is the initial backward-Euler step and the fixed inertial (RK4)
    step.  ``error_tol`` bounds the distance between a solved
    backward-Euler step and its extrapolated start, in max norm relative to
    ``max|R|`` (required in ``(picard_tol, 1)``); the step size follows from
    it.  That distance shrinks like ``dt^3``, one order faster than the
    local error of backward Euler, so it does not bound that error.
    ``picard_tol`` is the chord Newton stopping test of the backward-Euler
    solve (required in (0, 1e-3]): an attempt converges at the iterate
    ``x + delta`` once ``theta / (1 - theta) max|delta| <= CHORD_KAPPA
    picard_tol max|x|``, ``theta`` the ratio of its last two updates, or at
    the rounding floor ``max|delta| <= CHORD_FLOOR max|x|``, so a
    ``picard_tol`` below ``CHORD_FLOOR / CHORD_KAPPA`` (1.4e-11) cannot be
    asked for.  ``mode`` selects quasi-static or inertial wall dynamics.
    """

    dt: float = 3e-4
    error_tol: float = 1e-4
    picard_tol: float = 1e-8
    mode: str = MODE_INERTIALESS

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ConfigurationError("dt must be finite and positive")
        if not 0.0 < self.picard_tol <= 1e-3:
            raise ConfigurationError("picard_tol must lie in (0, 1e-3], got "
                                     f"{self.picard_tol!r}")
        if not self.picard_tol < self.error_tol < 1.0:
            raise ConfigurationError("error_tol must lie in (picard_tol, 1), "
                                     f"got {self.error_tol!r}")
        if self.mode not in (MODE_INERTIALESS, MODE_INERTIAL):
            raise ConfigurationError(f"mode must be '{MODE_INERTIALESS}' or "
                                     f"'{MODE_INERTIAL}', got {self.mode!r}")


@dataclass
class TransientState:
    """Solution snapshot: time, radius field, wall velocity ``Rdot = dR/dt``
    and the slaved film pressure, all four from the first instant.  ``Rdot``
    is the independent velocity ``V`` of the inertial model, and in the
    quasi-static one the backward rate of the step that produced the state
    (the start's: the rate of its pressure elimination)."""

    t: float
    R: np.ndarray
    Rdot: np.ndarray
    p: np.ndarray


@dataclass
class StepStats:
    """Work of one accepted step: ``iterations``, the chord Newton updates
    over all its attempts (in inertial mode, its pressure solves, at the
    three later RK4 stages and the new state of every attempt),
    ``factorizations``, the chord Newton LUs over all its attempts (0 when
    they all reused the carried factor),
    ``halvings`` after a positivity loss or a stall, ``rejections`` by the
    error test, and the step size ``dt_used``."""

    iterations: int
    halvings: int
    dt_used: float
    rejections: int = 0
    factorizations: int = 0


@dataclass
class ChordCarry:
    """The predictor, controller and chord-factor history one backward-Euler
    step hands the next (a step's start rate is ``state.Rdot``).

    ``G_prev`` and ``dt_prev`` (the rate at the start of the last accepted
    step and that step's size) feed the second-order predictor.
    ``err_prev`` is that step's error estimate over ``error_tol`` and
    ``dt_next`` the step size the controller proposed for the next step (0
    before any step: start at ``StepConfig.dt``).  ``lu`` is the chord
    factor of ``P - dt B`` the last attempt used (None before any), at
    whatever step size it was built.  A carry belongs to one
    :func:`run_transient` call, and its factor is dropped with it when the
    call returns.
    """

    G_prev: np.ndarray | None = None
    dt_prev: float = 0.0
    err_prev: float = 1.0
    dt_next: float = 0.0
    lu: SuperLU | None = None


def initial_state(grid: Grid, h: np.ndarray, U: tuple[float, float],
                  params: PhysicalParams, mode: str = MODE_INERTIALESS
                  ) -> TransientState:
    """Uniform start at ``R = R0`` with its slaved pressure: at zero wall
    velocity in inertial mode, and in the quasi-static one at the rate of
    the pressure elimination at ``R0``."""
    R = np.full(grid.shape, params.R0)
    if mode == MODE_INERTIAL:
        V = np.zeros(grid.shape)
        return TransientState(0.0, R, V,
                              _wall_acceleration(grid, R, V, h, U, params)[1])
    return TransientState(0.0, R, *eliminate_pressure(grid, R, h, U, params))


def eliminate_pressure(grid: Grid, R: np.ndarray, h: np.ndarray,
                       U: tuple[float, float], params: PhysicalParams
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Slave the film pressure to the radius field.

    Returns ``(G, p)`` where ``G = dR/dt`` of the quasi-static dynamics,
    the root in ``S`` of the film equation: ``P G = -F(R, 0)`` with ``P``
    of :func:`elliptic.film_pencil` at ``(R, 0)``, solved by
    :func:`elliptic.solve_spd`, which verifies the residual on every call;
    and ``p = f1 - R f2 G`` the film pressure of the growth law.
    """
    Rf = ensure_field(grid, R, "R")
    zero = np.zeros(grid.shape)
    F, f1, _ = film_residual(grid, Rf, zero, h, U, params)
    G = solve_spd(film_pencil(grid, Rf, zero, h, U, params)[1], -F, grid)
    return G, f1 - Rf * eval_wall(Rf, params)[1] * G


def _acceleration(R: np.ndarray, V: np.ndarray, p: np.ndarray,
                  params: PhysicalParams) -> np.ndarray:
    """Radial wall acceleration of the inertial model at film pressure
    ``p``: the first RK4 stage's, at the pressure its state carries."""
    f1, f2 = eval_wall(R, params)
    return -1.5 * V ** 2 / R - V * f2 + (f1 - p) / R


def _wall_acceleration(grid: Grid, R: np.ndarray, V: np.ndarray,
                       h: np.ndarray, U: tuple[float, float],
                       params: PhysicalParams
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Radial wall acceleration of the inertial model and the film pressure
    ``p``, the root of the film equation at ``S = V``: ``K y = F`` for
    ``(F, p_g)`` of :func:`elliptic.film_residual`, ``K`` its mobility
    operator, and ``p = p_g + y``.
    Since ``p_g = f1 - R f2 V``, the wall law's ``f1`` and ``f2`` terms
    cancel from the acceleration, which is ``-(3/2 V^2 + y) / R``."""
    F, p, mobility = film_residual(grid, R, V, h, U, params)
    y = solve_spd(mobility_operator(grid, mobility), F, grid)
    return -(1.5 * V ** 2 + y) / R, p + y


def _blow_up(lost: str, t: float) -> PositivityLossError:
    """The error of a step whose last attempt lost its iterate as ``lost``."""
    what = ("left the positive cone" if lost == "non-positive"
            else "turned non-finite (NaN or inf)")
    return PositivityLossError(
        f"radius field {what} at t = {t:.6g} even after {MAX_HALVINGS} "
        "step halvings (blow-up)")


def _relative(update: np.ndarray, x: np.ndarray) -> float:
    return float(np.max(np.abs(update))) / max(float(np.max(np.abs(x))), 1e-300)


def _next_step_factor(err: float, err_prev: float) -> float:
    """PI step-size ratio from the accepted step's error ``err`` and the
    previous one's ``err_prev``, both over ``error_tol``."""
    # an error under 1e-4 of the tolerance counts as 1e-4: the growth
    # limit binds there anyway, and a zero error has no power
    err, err_prev = max(err, 1e-4), max(err_prev, 1e-4)
    fac = SAFETY * err ** -PI_EXPONENTS[0] * err_prev ** PI_EXPONENTS[1]
    return min(max(fac, GROWTH_LIMITS[0]), GROWTH_LIMITS[1])


def step_inertialess(grid: Grid, state: TransientState, h: np.ndarray,
                     U: tuple[float, float], params: PhysicalParams,
                     step_cfg: StepConfig, chord: ChordCarry | None = None
                     ) -> tuple[TransientState, StepStats]:
    """One error-controlled backward-Euler step of the quasi-static dynamics.

    The implicit equation ``R_new = R_old + dt G(R_new)`` is solved by
    chord Newton on its pencil form, ``x <- x - dt A^-1 F(x, S)`` with
    ``F`` from :func:`elliptic.film_residual` at ``S = (x - R_old) / dt``
    and the Newton matrix ``A = P - dt B`` of the pencil
    :func:`elliptic.film_pencil` at ``(x, S)``, from the predictor
    ``pred = R_old + dt (G_n + (G_n - G_{n-1}) dt / dt_prev)`` (the explicit
    update ``R_old + dt G_n`` without a history).  An attempt uses the
    factor of ``A`` that ``chord`` carries, or factors ``A`` at its first
    iterate when there is none; it refactors at the current iterate when an
    update is not ``CHORD_CONTRACTION`` times smaller than the best one,
    releasing the old factor first.  The attempt converges at the first
    iterate whose update (relative to ``max|x|``), times ``theta / (1 -
    theta)`` with ``theta`` the ratio of the last two updates, is at most
    ``CHORD_KAPPA * picard_tol``, or whose update is at most
    ``CHORD_FLOOR``, the rounding level of ``x``.  The start rate ``G_n`` is
    ``state.Rdot``.  ``chord`` carries the predictor history, the proposed
    step size and the factor between steps and is updated in place; without
    it the step starts at ``step_cfg.dt`` and builds its own factor.

    The error of the solved step is estimated as
    ``max|R_new - pred| / max|R_new|``; without a history, as half that
    distance to the explicit update (forward and backward Euler err by
    opposite leading terms).  An estimate above ``error_tol`` rejects the
    attempt, which is retried at ``dt max(0.2, 0.9 (error_tol/err)^(1/2))``.
    An accepted step stores its estimate and the next step size proposed by
    the PI controller in ``chord``.

    A step attempt is rejected -- and ``dt`` halved -- when an iterate, the
    explicit start included, is not finite and positive or when the iteration
    stalls (update growing well past its best value, or ``MAX_CHORD_UPDATES``
    updates spent without converging).  More than ``MAX_HALVINGS`` halvings
    raise :class:`StepFailureError` after a stall and
    :class:`PositivityLossError` after a lost iterate, whose message names
    the last attempt's as non-positive or non-finite; more than
    ``MAX_HALVINGS`` error-test retries raise :class:`StepFailureError`.

    Returns the new state ``(t + dt, x, S, f1(x) - x f2(x) S)``, with
    ``S = (x - R_old) / dt``, and the step statistics (``iterations`` counts
    every chord update of the call, ``factorizations`` every chord LU: 0
    for a step that only reused the carried factor).
    """
    R_old, G_n = state.R, state.Rdot
    updates = 0
    factorizations = 0
    chord = chord or ChordCarry()
    tol = step_cfg.picard_tol
    dt = chord.dt_next or step_cfg.dt
    halvings = 0
    rejections = 0
    while True:
        x = R_old + dt * G_n
        if chord.G_prev is None:
            pred, weight = x, 0.5
        else:
            pred = x + dt * dt / chord.dt_prev * (G_n - chord.G_prev)
            weight = 1.0
        converged = False
        lost = radius_fault(x)                           # reject: halve dt
        if lost is None:
            if radius_fault(pred) is None:
                x = pred
            best, prev = np.inf, 0.0
            for _ in range(MAX_CHORD_UPDATES):
                S = (x - R_old) / dt
                rhs = -dt * film_residual(grid, x, S, h, U, params)[0].ravel()
                delta = None if chord.lu is None else chord.lu.solve(rhs)
                if (chord.lu is None
                        or _relative(delta, x) * CHORD_CONTRACTION > best):
                    # release the old factor first: building the new one
                    # while the old is alive fragments the native heap,
                    # and peak RSS then creeps up by megabytes over a run
                    chord.lu = None
                    B, A = film_pencil(grid, x, S, h, U, params)
                    A.data -= dt * B.data                # P - dt B
                    chord.lu = _factorize(A)
                    factorizations += 1
                    delta = chord.lu.solve(rhs)
                update = _relative(delta, x)
                updates += 1
                if update > 10.0 * best and update > 100.0 * tol:
                    break        # diverging past its best: a stall, halve dt
                best = min(best, update)
                x = x + delta.reshape(grid.shape)
                lost = radius_fault(x)
                if lost is not None:
                    break                                # reject: halve dt
                # theta / (1 - theta) update <= kappa tol at
                # theta = update / prev, times prev - update: the first
                # update, with no theta, passes only at the rounding floor
                converged = (update <= CHORD_FLOOR or update * update
                             <= CHORD_KAPPA * tol * (prev - update))
                prev = update
                if converged:
                    break
        if converged:
            err = weight * _relative(x - pred, x) / step_cfg.error_tol
            if err <= 1.0:
                chord.dt_next = dt * _next_step_factor(err, chord.err_prev)
                chord.err_prev = err
                chord.G_prev, chord.dt_prev = G_n, dt
                S = (x - R_old) / dt
                f1, f2 = eval_wall(x, params)
                p = f1 - x * f2 * S
                return (TransientState(state.t + dt, x, S, p),
                        StepStats(updates, halvings, dt, rejections,
                                  factorizations))
            rejections += 1
            if rejections > MAX_HALVINGS:
                raise StepFailureError(
                    f"backward-Euler error estimate stayed above error_tol = "
                    f"{step_cfg.error_tol:.3g} at t = {state.t:.6g} after "
                    f"{MAX_HALVINGS} retries (dt = {dt:.3g})")
            dt *= max(GROWTH_LIMITS[0], SAFETY * err ** -0.5)
            continue
        halvings += 1
        if halvings > MAX_HALVINGS:
            if lost is not None:
                raise _blow_up(lost, state.t)
            raise StepFailureError(
                f"backward-Euler chord iteration stalled at t = {state.t:.6g} "
                f"(dt = {dt:.3g} after {MAX_HALVINGS} halvings)")
        dt *= 0.5


def step_inertial(grid: Grid, state: TransientState, h: np.ndarray,
                  U: tuple[float, float], params: PhysicalParams,
                  step_cfg: StepConfig) -> tuple[TransientState, StepStats]:
    """One classical RK4 step of the inertial wall dynamics.

    The stage function is ``(R, V) -> (V, -3/2 V²/R - V f2(R) +
    (f1(R) - p(R, V))/R)``.  The first stage takes the pressure the state
    carries; the three later stages and the new state each re-slave it.  A
    stage radius that is not finite and positive, or a non-finite
    acceleration, rejects the attempt, which is retried at half the step
    size; after ``MAX_HALVINGS`` halvings :class:`PositivityLossError`
    names the last attempt's loss, a non-positive or a non-finite one.  The
    step's ``iterations`` counts the pressure solves of all its attempts.
    """
    R0, V0 = state.R, state.Rdot
    a0 = _acceleration(R0, V0, state.p, params)
    solves = 0
    dt = step_cfg.dt
    halvings = 0
    while True:
        kR, kV = [V0], [a0]
        for c in (0.5, 0.5, 1.0, None):          # None: the new state
            if c is None:
                R = R0 + dt / 6.0 * (kR[0] + 2 * kR[1] + 2 * kR[2] + kR[3])
                V = V0 + dt / 6.0 * (kV[0] + 2 * kV[1] + 2 * kV[2] + kV[3])
            else:
                R, V = R0 + c * dt * kR[-1], V0 + c * dt * kV[-1]
            lost = radius_fault(R)
            if lost is not None:
                break                                    # reject: halve dt
            solves += 1
            acc, p = _wall_acceleration(grid, R, V, h, U, params)
            if not np.all(np.isfinite(acc)):
                lost = "non-finite"
                break                                    # reject: halve dt
            kR.append(V)
            kV.append(acc)
        else:
            return (TransientState(t=state.t + dt, R=R, Rdot=V, p=p),
                    StepStats(solves, halvings, dt))
        halvings += 1
        if halvings > MAX_HALVINGS:
            raise _blow_up(lost, state.t)
        dt *= 0.5


@dataclass
class TransientResult:
    """Outcome of :func:`run_transient`.

    ``history`` and ``step_stats`` hold one entry per completed step:
    ``history`` its end time, update rate and field extrema
    (:data:`HISTORY_KEYS`), ``step_stats`` its end time ``t``, ``dt_used``,
    chord-update ``iterations`` (in inertial mode, pressure solves), chord
    LU ``factorizations``, ``halvings`` and error-test ``rejections``.
    """

    converged: bool
    steps: int
    state: TransientState
    rate: float
    max_Rhat: float
    min_Rhat: float
    max_p: float
    min_p: float
    history: dict[str, np.ndarray]
    step_stats: dict[str, np.ndarray]
    failure: str | None = None
    failed_step: int | None = None


def run_transient(grid: Grid, state: TransientState, h: np.ndarray,
                  U: tuple[float, float], params: PhysicalParams,
                  step_cfg: StepConfig, n_steps: int, stationarity_tol: float,
                  on_step: Callable[[int, TransientState], None] | None = None
                  ) -> TransientResult:
    """March the transient model from ``state`` and watch for stationarity
    or failure.

    Records the normalized update rate ``max|dR|/(dt R0)``, the radius and
    pressure extrema per step, and stops early on stationarity (the rate
    below ``stationarity_tol``, units 1/s), on reaching the critical radius
    ``R_crit`` of ``compute_derived(params)``, where the monotone
    quasi-static response (and with it the model's validity) ends, or on
    step failure, which is reported in the result (its message in
    ``failure``, its step in ``failed_step``) rather than raised.
    ``on_step(step, state)``, when given, sees every completed step's index
    and new state before these tests.

    Backward-Euler steps hand each other one :class:`ChordCarry`, local to
    the call, with the chord factor: the first starts at ``step_cfg.dt``,
    every later one at the size the error controller proposed.  The carry
    and its factor are dropped when the call returns.  Inertial (RK4) steps
    start at ``step_cfg.dt``.
    """
    R_crit = compute_derived(params).R_crit
    hf = ensure_field(grid, h, "h")

    hist: dict[str, list] = {k: [] for k in HISTORY_KEYS}
    trace: dict[str, list] = {k: [] for k in STEP_STATS_KEYS}
    chord = ChordCarry()
    start = state
    converged = False
    failure = None
    failed_step = None
    rate = np.inf
    steps_done = 0

    for step in range(1, n_steps + 1):
        R_prev = state.R
        try:
            if step_cfg.mode == MODE_INERTIALESS:
                state, stats = step_inertialess(grid, state, hf, U, params,
                                                step_cfg, chord=chord)
            else:
                state, stats = step_inertial(grid, state, hf, U, params,
                                             step_cfg)
        except StepFailureError as exc:
            failure = str(exc)
            failed_step = step
            break
        steps_done = step
        for key, val in zip(STEP_STATS_KEYS, (
                state.t, stats.dt_used, stats.iterations,
                stats.factorizations, stats.halvings, stats.rejections)):
            trace[key].append(val)
        rate = float(np.max(np.abs(state.R - R_prev)) / (stats.dt_used * params.R0))
        rhat_max = float(np.max(state.R)) / params.R0
        for key, val in zip(HISTORY_KEYS, (
                state.t, rate, float(np.min(state.R)) / params.R0, rhat_max,
                float(np.min(state.p)), float(np.max(state.p)))):
            hist[key].append(val)
        if on_step is not None:
            on_step(step, state)
        if rhat_max * params.R0 >= R_crit:
            failure = (f"radius reached the critical value at step {step} "
                       f"(max R_hat = {rhat_max:.4f}); quasi-static response "
                       "is no longer monotone")
            failed_step = step
            break
        if rate < stationarity_tol:
            converged = True
            break

    return TransientResult(
        converged=converged, steps=steps_done, state=state, rate=rate,
        max_Rhat=max([float(np.max(start.R)) / params.R0, *hist["max_Rhat"]]),
        min_Rhat=min([float(np.min(start.R)) / params.R0, *hist["min_Rhat"]]),
        max_p=max([float(np.max(start.p)), *hist["max_p"]]),
        min_p=min([float(np.min(start.p)), *hist["min_p"]]),
        history={k: np.asarray(v) for k, v in hist.items()},
        step_stats={k: np.asarray(v) for k, v in trace.items()},
        failure=failure, failed_step=failed_step)
