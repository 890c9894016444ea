"""Transient integration of the coupled film/bubble dynamics.

The quasi-static (inertialess) model evolves the radius field by

    dR/dt = G(R),   G = (f1(R) - p) / (R f2(R)),

where the film pressure ``p`` is slaved to ``R`` through the Reynolds
equation.  Substituting ``p = f1(R) - R f2(R) S`` into the pressure
equation turns the elimination into a single sparse solve

    ( K(R) - diag(h f5 / (R f2)) ) y = K(R) f1(R) + Div(U h f4(R)),

with ``K = -Div(f3(R) h^3 Grad .)`` SPD and ``-h f5/(R f2) >= 0``, so the
shifted operator ``M`` stays symmetric positive definite: the slaving is
uniquely solvable for any positive radius field, and ``S = y / (R f2)``,
``p = f1 - y`` follow pointwise.

Time stepping is backward Euler.  Every step attempt solves the implicit
equation ``R - R_old - dt G(R) = 0`` from a second-order extrapolated start
by chord Newton on its pencil form: the film equation ``F(x, S)`` of
:func:`elliptic.film_residual` at the backward-difference rate
``S = (x - R_old) / dt``, which costs one assembly and one product, no
pressure elimination.  With ``y = x f2 S``, ``F = M y - K f1 - Div(U h f4)``,
so ``P (R_old + dt G(x) - x) = -dt F`` with ``P = M diag(x f2)``: ``F``
vanishes exactly at the backward-Euler solution.  Its Newton matrix
``P - dt B`` comes from the pencil ``(B, P)`` of :func:`elliptic.film_pencil`,
the linearization the stationary solver and the spectra use as well, formed
in place on the shared 5-point pattern.  It is factored at the first iterate
and refactored when an iteration shrinks the update by less than 100x; the
factor belongs to the attempt and is dropped with it.  Once the update falls
below ``picard_tol`` (or the iterations run out), one pressure elimination
certifies the iterate and gives the new state's rate and pressure.  A step
that loses positivity, whose iteration stalls or whose iterate fails its
certification is rejected and retried at half the step size (at most 10
halvings) before a failure is declared.

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
fixed step ``dt``, under the same positivity guard.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, PositivityLossError, StepFailureError)
from .grid import Grid, ensure_field, export_fields_csv
from .elliptic import (_factorize, _stencil, assemble_operator,
                       convective_divergence, film_pencil, film_residual,
                       solve_spd)
from .physics import (PhysicalParams, compute_derived, eval_f1, eval_f2,
                      eval_f3, eval_f4, eval_f5)

MODE_INERTIALESS = "inertialess"
MODE_INERTIAL = "inertial"

#: per-step columns of :attr:`TransientResult.step_stats`
STEP_STATS_KEYS = ("t", "dt_used", "iterations", "factorizations",
                   "halvings", "rejections")
#: per-recorded-step columns of :attr:`TransientResult.history`
HISTORY_KEYS = ("t", "rate", "min_Rhat", "max_Rhat", "min_p", "max_p")

#: most halvings, and most error-test retries, of one step
MAX_HALVINGS = 10

#: a chord iteration that shrinks the update by less than this factor
#: refactors the Newton matrix at the current iterate
CHORD_CONTRACTION = 100.0

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
    ``picard_tol`` is the relative residual threshold of the backward-Euler
    solve (required in (0, 1e-3]): an iterate ``x`` is accepted when
    ``max|R_old + dt G(x) - x| < picard_tol max|x|``.  ``picard_max`` bounds
    the iterations of one step attempt: at most ``picard_max - 1`` chord
    updates, then the one pressure elimination that tests the iterate (with
    ``picard_max = 1`` the extrapolated start is tested as it is).  ``mode``
    selects quasi-static or inertial wall dynamics.
    """

    dt: float = 3e-4
    error_tol: float = 1e-4
    picard_tol: float = 1e-8
    picard_max: int = 60
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
        if self.picard_max < 1:
            raise ConfigurationError("picard_max must be at least 1")
        if self.mode not in (MODE_INERTIALESS, MODE_INERTIAL):
            raise ConfigurationError(f"mode must be '{MODE_INERTIALESS}' or "
                                     f"'{MODE_INERTIAL}', got {self.mode!r}")


@dataclass
class TransientState:
    """Solution snapshot: time, radius field, wall velocity ``Rdot = dR/dt``
    and the slaved film pressure.  ``Rdot`` is the independent velocity
    ``V`` of the inertial model, and in the quasi-static one the rate
    ``G(R)`` of the elimination that gave ``p`` (``None`` before any)."""

    t: float
    R: np.ndarray
    Rdot: np.ndarray | None = None
    p: np.ndarray | None = None


@dataclass
class StepStats:
    """Work of one accepted step: ``iterations``, the pressure eliminations
    over all its attempts (in inertial mode, its pressure solves, at the
    three later RK4 stages and the new state of every attempt),
    ``factorizations``, the chord Newton LUs over all its attempts,
    ``halvings`` after a positivity loss or a stall, ``rejections`` by the
    error test, and the step size ``dt_used``."""

    iterations: int
    halvings: int
    dt_used: float
    rejections: int = 0
    factorizations: int = 0


@dataclass
class ChordCarry:
    """The predictor and controller history one backward-Euler step hands
    the next; it holds no factor (a step's start rate is ``state.Rdot``).

    ``G_prev`` and ``dt_prev`` (the rate at the start of the last accepted
    step and that step's size) feed the second-order predictor.
    ``err_prev`` is that step's error estimate over ``error_tol`` and
    ``dt_next`` the step size the controller proposed for the next step (0
    before any step: start at ``StepConfig.dt``).
    """

    G_prev: np.ndarray | None = None
    dt_prev: float = 0.0
    err_prev: float = 1.0
    dt_next: float = 0.0


def initial_state(grid: Grid, params: PhysicalParams,
                  mode: str = MODE_INERTIALESS) -> TransientState:
    """Uniform start at ``R = R0``, at zero wall velocity in inertial mode
    and with no rate yet (``Rdot = None``) in the quasi-static one."""
    R = np.full(grid.shape, params.R0)
    Rdot = np.zeros(grid.shape) if mode == MODE_INERTIAL else None
    return TransientState(t=0.0, R=R, Rdot=Rdot)


def eliminate_pressure(grid: Grid, R: np.ndarray, h: np.ndarray,
                       U: tuple[float, float], params: PhysicalParams
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Slave the film pressure to the radius field.

    Returns ``(G, p)`` where ``G = dR/dt`` of the quasi-static dynamics and
    ``p`` the film pressure.  The defining linear system is solved in its
    symmetric-positive-definite form by :func:`elliptic.solve_spd`, which
    verifies the residual on every call.
    """
    Rf = ensure_field(grid, R, "R")
    hf = ensure_field(grid, h, "h")
    f1 = eval_f1(Rf, params)
    Rf2 = Rf * eval_f2(Rf, params)
    coeff = eval_f3(Rf, params) * hf ** 3
    K = assemble_operator(grid, coeff)
    conv = convective_divergence(grid, U, hf * eval_f4(Rf, params))
    shift = -hf * eval_f5(Rf, params) / Rf2          # >= 0
    rhs = K @ f1.ravel() + conv.ravel()
    M = K                                # shifted in place: K is spent
    M.data[_stencil(grid).diag] += shift.ravel()
    y = solve_spd(M, rhs, grid)
    return y / Rf2, f1 - y


def _acceleration(R: np.ndarray, V: np.ndarray, p: np.ndarray,
                  params: PhysicalParams) -> np.ndarray:
    """Radial wall acceleration of the inertial model at film pressure ``p``."""
    return (-1.5 * V ** 2 / R - V * eval_f2(R, params)
            + (eval_f1(R, params) - p) / R)


def _wall_acceleration(grid: Grid, R: np.ndarray, V: np.ndarray,
                       h: np.ndarray, U: tuple[float, float],
                       params: PhysicalParams
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Radial wall acceleration of the inertial model and the film pressure."""
    K = assemble_operator(grid, eval_f3(R, params) * h ** 3)
    conv = convective_divergence(grid, U, h * eval_f4(R, params))
    squeeze = h * eval_f5(R, params) * V
    p = solve_spd(K, -(conv + squeeze).ravel(), grid)
    return _acceleration(R, V, p, params), p


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
    update ``R_old + dt G_n`` without a history).  Each attempt factors
    ``A`` at its first iterate, refactors it at the current iterate when an
    iteration shrinks the update by less than ``CHORD_CONTRACTION``, and
    drops it when it ends.  Once an update falls below ``picard_tol`` (or
    at the last of ``picard_max`` iterations, with no update), one pressure
    elimination certifies the iterate: it is accepted only if
    ``max|R_old + dt G(x) - x| < picard_tol max|x|``.  The start rate
    ``G_n`` is ``state.Rdot``, eliminated at ``state.R`` only when ``None``.
    ``chord`` carries the predictor history and the proposed step size
    between steps and is updated in place; without it the step starts at
    ``step_cfg.dt``.

    The error of the solved step is estimated as
    ``max|R_new - pred| / max|R_new|``; without a history, as half that
    distance to the explicit update (forward and backward Euler err by
    opposite leading terms).  An estimate above ``error_tol`` rejects the
    attempt, which is retried at ``dt max(0.2, 0.9 (error_tol/err)^(1/2))``.
    An accepted step stores its estimate and the next step size proposed by
    the PI controller in ``chord``.

    A step attempt is rejected -- and ``dt`` halved -- when an iterate
    leaves the positive cone or when the iteration stalls (update growing
    well past its best value, ``picard_max`` iterations spent, or an
    iterate that fails its certification).  More than ``MAX_HALVINGS``
    halvings raise :class:`StepFailureError` after a stall and
    :class:`PositivityLossError` after a sign loss; more than
    ``MAX_HALVINGS`` error-test retries raise :class:`StepFailureError`.

    Returns the new state, whose ``Rdot`` and ``p`` come from the
    elimination that certified it, and the step statistics (``iterations``
    counts every pressure elimination of the call, ``factorizations`` every
    chord LU).
    """
    R_old, G_n = state.R, state.Rdot
    total_iters = 0
    factorizations = 0
    if G_n is None:
        G_n, _ = eliminate_pressure(grid, R_old, h, U, params)
        total_iters = 1
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
        accepted = None
        sign_loss = np.any(x <= 0.0)                     # reject: halve dt
        if not sign_loss:
            if np.all(pred > 0.0):
                x = pred
            best = np.inf
            lu = None
            stalled = False
            for _ in range(step_cfg.picard_max - 1):
                S = (x - R_old) / dt
                F, _ = film_residual(grid, x, S, h, U, params)
                rhs = -dt * F.ravel()
                delta = None if lu is None else lu.solve(rhs)
                if lu is None or _relative(delta, x) * CHORD_CONTRACTION > best:
                    # release the old factor first: building the new one
                    # while the old is alive fragments the native heap,
                    # and peak RSS then creeps up by megabytes over a run
                    lu = None
                    B, A = film_pencil(grid, x, S, h, U, params)
                    A.data -= dt * B.data                # P - dt B
                    lu = _factorize(A)
                    factorizations += 1
                    delta = lu.solve(rhs)
                update = _relative(delta, x)
                if update > 10.0 * best and update > 100.0 * tol:
                    stalled = True       # diverging past its best: reject early
                    break
                best = min(best, update)
                x = x + delta.reshape(grid.shape)
                if np.any(x <= 0.0):
                    sign_loss = True
                    break                                # reject: halve dt
                if update < tol:
                    break
            if not (stalled or sign_loss):
                # the one elimination of the attempt certifies its iterate
                total_iters += 1
                G_x, p_x = eliminate_pressure(grid, x, h, U, params)
                if _relative(R_old + dt * G_x - x, x) < tol:
                    accepted = TransientState(state.t + dt, x, G_x, p_x)
        if accepted is not None:
            err = (weight * _relative(accepted.R - pred, accepted.R)
                   / step_cfg.error_tol)
            if err <= 1.0:
                chord.dt_next = dt * _next_step_factor(err, chord.err_prev)
                chord.err_prev = err
                chord.G_prev, chord.dt_prev = G_n, dt
                return accepted, StepStats(total_iters, halvings, dt,
                                           rejections, factorizations)
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
            if sign_loss:
                raise PositivityLossError(
                    f"radius field left the positive cone at t = {state.t:.6g} "
                    f"even after {MAX_HALVINGS} step halvings (blow-up)")
            raise StepFailureError(
                f"backward-Euler iteration did not converge within "
                f"{step_cfg.picard_max} iterations at t = {state.t:.6g} "
                f"(dt = {dt:.3g} after {MAX_HALVINGS} halvings)")
        dt *= 0.5


def step_inertial(grid: Grid, state: TransientState, h: np.ndarray,
                  U: tuple[float, float], params: PhysicalParams,
                  step_cfg: StepConfig) -> tuple[TransientState, StepStats]:
    """One classical RK4 step of the inertial wall dynamics.

    The stage function is ``(R, V) -> (V, -3/2 V²/R - V f2(R) +
    (f1(R) - p(R, V))/R)``.  The first stage takes the pressure the state
    carries (solved only when ``state.p`` is ``None``); the three later
    stages and the new state each re-slave it.  A non-positive stage radius
    rejects the attempt, which is retried at half the step size.  The
    step's ``iterations`` counts the pressure solves of all its attempts.
    """
    if state.Rdot is None:
        raise ConfigurationError("inertial stepping needs a state with Rdot")
    R0, V0 = state.R, state.Rdot
    solves = int(state.p is None)
    a0 = (_wall_acceleration(grid, R0, V0, h, U, params)[0] if solves
          else _acceleration(R0, V0, state.p, params))
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
            if np.any(R <= 0.0):
                break                                    # reject: halve dt
            solves += 1
            acc, p = _wall_acceleration(grid, R, V, h, U, params)
            kR.append(V)
            kV.append(acc)
        else:
            return (TransientState(t=state.t + dt, R=R, Rdot=V, p=p),
                    StepStats(solves, halvings, dt))
        halvings += 1
        if halvings > MAX_HALVINGS:
            raise PositivityLossError(
                f"radius field left the positive cone at t = {state.t:.6g} "
                f"even after {MAX_HALVINGS} step halvings (blow-up)")
        dt *= 0.5


@dataclass
class TransientWatch:
    """Run supervision: stationarity threshold and snapshots.

    ``stationarity_tol`` declares the run stationary when
    ``max|R_new - R_old| / (dt R0)`` drops below it (units 1/s).
    ``snapshot_every`` > 0 writes ``snapshot_<step>.csv`` into ``out_dir``.
    Whatever the watch, a run ends unsuccessfully as soon as the radius
    field reaches the critical radius, where the monotone quasi-static
    response (and with it the model's validity) ends.
    """

    stationarity_tol: float = 1e-8
    snapshot_every: int = 0
    out_dir: Path | None = None


@dataclass
class TransientResult:
    """Outcome of :func:`run_transient`.

    ``history`` and ``step_stats`` hold one entry per completed step:
    ``history`` its end time, update rate and field extrema
    (:data:`HISTORY_KEYS`), ``step_stats`` its end time ``t``, ``dt_used``,
    pressure-elimination ``iterations`` (in inertial mode, pressure
    solves), chord LU ``factorizations``,
    ``halvings`` and error-test ``rejections``.
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
                  step_cfg: StepConfig, n_steps: int,
                  watch: TransientWatch | None = None) -> TransientResult:
    """March the transient model and watch for stationarity or failure.

    Records the normalized update rate ``max|dR|/(dt R0)``, the radius and
    pressure extrema per step, and stops early on stationarity, on reaching
    the critical radius ``R_crit`` of ``compute_derived(params)``, or on
    step failure, which is reported in the result (its message in
    ``failure``, its step in ``failed_step``) rather than raised.

    Backward-Euler steps hand each other one :class:`ChordCarry`: the first
    starts at ``step_cfg.dt``, every later one at the size the error
    controller proposed.  Inertial (RK4) steps start at ``step_cfg.dt``.
    """
    watch = watch or TransientWatch()
    R_crit = compute_derived(params).R_crit
    hf = ensure_field(grid, h, "h")

    hist: dict[str, list] = {k: [] for k in HISTORY_KEYS}
    trace: dict[str, list] = {k: [] for k in STEP_STATS_KEYS}
    chord = ChordCarry()
    if step_cfg.mode == MODE_INERTIALESS:
        Rdot, p0 = eliminate_pressure(grid, state.R, hf, U, params)
    else:
        if state.Rdot is None:
            raise ConfigurationError("inertial run needs a state with Rdot")
        Rdot = state.Rdot
        _, p0 = _wall_acceleration(grid, state.R, Rdot, hf, U, params)
    state = start = TransientState(state.t, state.R, Rdot, p0)
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
        if (watch.snapshot_every > 0 and watch.out_dir is not None
                and step % watch.snapshot_every == 0):
            os.makedirs(watch.out_dir, exist_ok=True)
            export_fields_csv(Path(watch.out_dir) / f"snapshot_{step}.csv",
                              grid, params, state.R, state.p)
        if rhat_max * params.R0 >= R_crit:
            failure = (f"radius reached the critical value at step {step} "
                       f"(max R_hat = {rhat_max:.4f}); quasi-static response "
                       "is no longer monotone")
            failed_step = step
            break
        if rate < watch.stationarity_tol:
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
