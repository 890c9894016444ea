"""Command-line front end.

Subcommands map to the run modes: ``transient`` (time marching with
snapshot/midline/summary artifacts), ``stationary`` (Newton solve),
``stability`` (stationary branch + linearized spectra + modal threshold
analysis), and ``sweep`` (the plain transient or stationary run of each
parameter value, with an aggregated CSV).  Every output directory receives
a MANIFEST documenting file names and column schemas; outputs are
deterministic for a fixed configuration.

Every configuration is mirror-symmetric about ``x2 = L2/2``, so for an even
``n2`` every run solves the lower half of the grid
(:func:`~filmcav.grid.mirror_half`) and renders every field table of the
whole grid from it, snapshots included; ``stability`` unfolds its state
onto the whole grid and hands that grid's pencil to
:func:`~filmcav.stability.mirror_spectrum`, and writes the modal report of
:func:`~filmcav.stability.modal_report`: the CLI holds no spectral algebra.

The CLI runs one BLAS thread: its work is sparse LU, triangular solves
and ARPACK's small dense kernels, where a second thread spends CPU and no
wall time.  Importing this module sets ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` to 1 where the environment does not set them, before
it imports numpy; a user's own setting wins, and a library user who
imported numpy first keeps the threads numpy started with.

Exit codes: 0 success, 2 configuration error (an unwritable output
directory included), 3 numerical failure (solver breakdown or an
unconverged run).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from .config import (MODE_STABILITY, MODE_STATIONARY, MODE_SWEEP,
                     MODE_TRANSIENT, RunConfig, config_for_sweep_value,
                     parse_config)
from .dynamics import (HISTORY_KEYS, MODE_INERTIAL, STEP_STATS_KEYS,
                       TransientResult, TransientState, initial_state,
                       run_transient)
from .elliptic import film_pencil, film_residual, mobility_operator
from .errors import (ConfigurationError, SolverFailureError, StepFailureError,
                     SupercriticalRadiusError)
from .grid import (CSV_HEADER, Grid, gap_function, mirror_half, render_csv,
                   render_fields_csv, unfold)
from .physics import PhysicalParams, compute_derived, eval_alpha
from .stability import (DENSE_ASSEMBLY_LIMIT, assemble_LF, compute_spectrum,
                        essential_edge_line, mirror_spectrum, modal_report,
                        render_spectrum_csv)
from .stationary import StationaryReport, solve_stationary

MIDLINE_HEADER = "x1,R_hat,p_scaled,p_gauge_Pa,alpha"
SWEEP_HEADER = "value,converged,max_Rhat,min_phat,max_alpha"
HISTORY_HEADER = ",".join(HISTORY_KEYS)
TRACE_HEADER = ",".join(STEP_STATS_KEYS)

#: the errors a run reports as a numerical failure (exit 3)
_NUMERICAL_FAILURES = (SolverFailureError, StepFailureError,
                       SupercriticalRadiusError)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def _write_run(out: Path, entries: list[tuple[str, str | None, str]]) -> None:
    """Write the ``(name, text, description)`` entries of a run directory
    in order, then its ``MANIFEST.txt`` from the same list.  A ``None``
    text marks a pattern entry whose files are written elsewhere."""
    lines = ["# output files", ""]
    for name, text, desc in entries:
        if text is not None:
            _write_text(out / name, text)
        lines += [name, f"    {desc}"]
    _write_text(out / "MANIFEST.txt", "\n".join(lines) + "\n")


def render_midline_csv(grid: Grid, params: PhysicalParams, R: np.ndarray,
                       p: np.ndarray) -> str:
    """Midline sample of the exported field quantities of the solved
    ``grid``: a mirror grid's last row, the average of the whole grid's two
    center rows, which are mirror images, or the center row of a whole grid
    of odd ``n2``.  A whole grid of even ``n2`` has no center row."""
    if not grid.mirror and grid.n2 % 2 == 0:
        raise ConfigurationError(f"a whole grid of even n2 = {grid.n2} has "
                                 "no center row; pass its mirror half")
    row = -1 if grid.mirror else grid.n2 // 2
    r_mid = np.asarray(R, dtype=float)[:, row]
    p_mid = np.asarray(p, dtype=float)[:, row]
    return render_csv(MIDLINE_HEADER, [grid.x1, r_mid / params.R0, p_mid,
                                       params.rho_l * p_mid,
                                       eval_alpha(r_mid, params)])


_FIELDS_DESC = (f"cell-centered fields, columns `{CSV_HEADER}`; "
                "row-major with x2 varying fastest, 9 significant digits")


def _midline_desc(grid: Grid) -> str:
    """MANIFEST entry of ``midline.csv`` of the solved ``grid``."""
    rows = ("average of the two center rows" if grid.mirror
            else "the center row")
    return f"mid-width profile ({rows}), columns `{MIDLINE_HEADER}`"


def _half_desc(half: Grid, closing: str) -> str:
    """MANIFEST note of a run solved on ``half``: ``closing`` for a mirror
    grid (:func:`mirror_half` of an even ``n2``), nothing otherwise."""
    if not half.mirror:
        return ""
    return ("; the run solved the lower half of the grid, x2 < L2/2, with a "
            "zero-flux symmetry plane at x2 = L2/2, and every field file "
            "holds its mirror image as the upper half" + closing)


def _transient_summary(res: TransientResult, config: RunConfig) -> str:
    derived = compute_derived(config.params)
    lines = [
        f"converged = {str(res.converged).lower()}",
        f"steps = {res.steps}",
        f"iterations = {int(np.sum(res.step_stats['iterations']))}",
        f"factorizations = {int(np.sum(res.step_stats['factorizations']))}",
        f"final_time_s = {res.state.t:.9g}",
        f"stationarity_rate_per_s = {res.rate:.9g}",
        f"stationarity_tol_per_s = {config.stationarity_tol:.9g}",
        f"min_Rhat = {res.min_Rhat:.9g}",
        f"max_Rhat = {res.max_Rhat:.9g}",
        f"min_p_scaled = {res.min_p:.9g}",
        f"max_p_scaled = {res.max_p:.9g}",
        f"p_cav_scaled = {derived.p_cav:.9g}",
        f"Rhat_crit = {derived.R_crit / config.params.R0:.9g}",
    ]
    if res.failure is not None:
        lines.append(f"failure = {res.failure}")
        lines.append(f"failed_step = {res.failed_step}")
    return "\n".join(lines) + "\n"


def _stationary_summary(report: StationaryReport, R: np.ndarray,
                        p: np.ndarray, params: PhysicalParams) -> str:
    lines = [
        f"converged = {str(report.converged).lower()}",
        f"final_relative_residual = {report.final_residual:.9g}",
        f"stage_fractions = {','.join(f'{s:.9g}' for s in report.stage_fractions)}",
        ("newton_iterations = "
         f"{','.join(str(i) for i in report.newton_iterations)}"),
        f"factorizations = {report.factorizations}",
        f"max_Rhat = {float(np.max(R)) / params.R0:.9g}",
        f"min_Rhat = {float(np.min(R)) / params.R0:.9g}",
        f"min_p_scaled = {float(np.min(p)):.9g}",
        f"max_p_scaled = {float(np.max(p)):.9g}",
    ]
    if report.message:
        lines.append(f"message = {report.message}")
    lines.append("residual_history = "
                 + ",".join(f"{r:.3e}" for r in report.residual_history))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _transient(config: RunConfig) -> TransientResult:
    """Time-march the configured model on the mirror half of its grid (the
    whole grid when ``n2`` is odd) and write every artifact of the run.  The
    field tables and snapshots are the whole grid's, rendered from the
    solved grid by :func:`~filmcav.grid.render_fields_csv`, each distinct
    value formatted once."""
    grid = config.make_grid()
    half = mirror_half(grid)
    params = config.params
    h = gap_function(half, params)
    U = config.velocity
    out = Path(config.output_dir)

    def write_snapshot(step: int, state: TransientState) -> None:
        if step % config.snapshot_every == 0:
            _write_text(out / f"snapshot_{step}.csv",
                        render_fields_csv(half, params, state.R, state.p))

    res = run_transient(half, initial_state(half, h, U, params,
                                            mode=config.step.mode),
                        h, U, params, config.step, config.n_steps,
                        config.stationarity_tol,
                        write_snapshot if config.snapshot_every > 0 else None)

    R, p = res.state.R, res.state.p
    entries = [
        ("fields_final.csv", render_fields_csv(half, params, R, p),
         _FIELDS_DESC),
        ("midline.csv", render_midline_csv(half, params, R, p),
         _midline_desc(half)),
        ("history.csv", render_csv(HISTORY_HEADER, res.history.values()),
         f"per-step diagnostics, columns `{HISTORY_HEADER}`"),
        ("trace.csv", render_csv(TRACE_HEADER, res.step_stats.values()),
         f"per-step solver work, columns `{TRACE_HEADER}`: step end time, "
         "step size used, chord Newton updates (in inertial mode, pressure "
         "solves) and chord Newton LU factorizations over all attempts (0 "
         "for a step that reuses the carried factor), step halvings after a "
         "positivity loss or a stalled iteration, and attempts rejected by "
         "the error test"),
        ("summary.txt", _transient_summary(res, config),
         "run outcome (key = value lines); `iterations` and "
         "`factorizations` are the column sums of trace.csv"
         + _half_desc(half, "; its stopping and step tests are max norms, "
                      "which the mirror image does not change")),
    ]
    if config.snapshot_every > 0:
        entries.append((f"snapshot_<step>.csv (every {config.snapshot_every} "
                        "steps)", None, _FIELDS_DESC))
    _write_run(out, entries)
    return res


def cmd_transient(config: RunConfig) -> int:
    """Time-march the configured model and write field artifacts."""
    res = _transient(config)
    print(f"transient: converged={str(res.converged).lower()} "
          f"steps={res.steps} max_Rhat={res.max_Rhat:.6g} -> "
          f"{Path(config.output_dir)}")
    return 0 if res.converged else 3


def _stationary(config: RunConfig
                ) -> tuple[np.ndarray, np.ndarray, StationaryReport]:
    """Solve directly for the stationary state on the mirror half of the
    grid (the whole grid when ``n2`` is odd) and write every artifact of
    the run; return the state on that solved grid.  The field tables are
    the whole grid's, rendered from the solved grid by
    :func:`~filmcav.grid.render_fields_csv`, each distinct value formatted
    once."""
    grid = config.make_grid()
    half = mirror_half(grid)
    params = config.params
    R_s, p_s, report = solve_stationary(half, gap_function(half, params),
                                        config.velocity, params,
                                        config.newton)
    _write_run(Path(config.output_dir), [
        ("fields_final.csv", render_fields_csv(half, params, R_s, p_s),
         _FIELDS_DESC),
        ("midline.csv", render_midline_csv(half, params, R_s, p_s),
         _midline_desc(half)),
        ("summary.txt", _stationary_summary(report, R_s, p_s, params),
         "solver report (key = value lines); `newton_iterations` counts the "
         "accepted iterates, chord and Newton steps alike, and "
         "`factorizations` the LU factorizations of the Newton matrix; "
         "`final_relative_residual` and `residual_history` are "
         "`||Phi||_2 / scale`, scale the gross diffusive flux at the pressure "
         "floor `p_char` plus the entrained divergence"
         + _half_desc(half, "; the half grid's scale omits the gross flux "
                      "across that plane, so its relative residual is never "
                      "below the whole grid's at the same state (about 2 % "
                      "above it on the default 128x32 grid)")),
    ])
    return R_s, p_s, report


def cmd_stationary(config: RunConfig) -> int:
    """Solve directly for the stationary state and write field artifacts."""
    _, _, report = _stationary(config)
    print(f"stationary: converged={str(report.converged).lower()} "
          f"residual={report.final_residual:.3e} -> {Path(config.output_dir)}")
    return 0 if report.converged else 3


def cmd_stability(config: RunConfig) -> int:
    """Stationary branch, linearized spectra, and modal speed thresholds."""
    grid = config.make_grid()
    inertial = config.step.mode == MODE_INERTIAL
    if inertial and grid.n_cells > DENSE_ASSEMBLY_LIMIT:
        raise ConfigurationError(
            f"the inertial spectrum is dense, limited to {DENSE_ASSEMBLY_LIMIT}"
            f" cells; grid has {grid.n_cells}")
    half, params, U = mirror_half(grid), config.params, config.velocity
    R_half, p_half, report = solve_stationary(
        half, gap_function(half, params), U, params, config.newton)
    if not report.converged:
        raise SolverFailureError(f"stationary solve failed: {report.message}")
    R_s = unfold(half, R_half)
    # both spectra before the first file: a run that fails writes nothing
    h = gap_function(grid, params)
    zero_rate = np.zeros(grid.shape)
    B, P = film_pencil(grid, R_s, zero_rate, h, U, params)
    rep_G = mirror_spectrum(half, B, P)
    if inertial:
        K = mobility_operator(grid, film_residual(grid, R_s, zero_rate, h, U,
                                                  params)[2])
        rep_F = compute_spectrum(assemble_LF(R_s, K, B, P))

    lines = [
        f"operator L_G: verdict = {rep_G.verdict}, max real part = "
        f"{rep_G.max_real_part:.9g}",
        f"operator L_G: {rep_G.eigenvalues.size} rightmost eigenvalues "
        f"listed, every other eigenvalue has real part <= {rep_G.bound:.9g}",
        essential_edge_line(R_half, params, rep_G),
    ]
    entries = [
        ("fields_stationary.csv",
         render_fields_csv(half, params, R_half, p_half),
         _FIELDS_DESC + _half_desc(half, "; the spectra linearize about "
                                   "that whole field")),
        ("spectrum_LG.csv", render_spectrum_csv(rep_G),
         "the k rightmost eigenvalues of each mirror-symmetry block of the "
         "quasi-static linearization (the whole operator for an odd n2), "
         "sorted together, conjugate pairs whole, columns `re,im`; the real "
         "part of every other eigenvalue is bounded in stability_summary.txt"),
    ]
    if inertial:
        lines.append(f"operator L_F: verdict = {rep_F.verdict}, "
                     f"max real part = {rep_F.max_real_part:.9g}")
        entries.append(("spectrum_LF.csv", render_spectrum_csv(rep_F),
                        "eigenvalues of the inertial linearization, columns "
                        "`re,im`"))

    modal_text, scope, modal_line = modal_report(grid, params, U)
    entries.append(("hurwitz.txt", modal_text, "modal polynomial analysis "
                    "at the minimal critical mode of the configured L1 x L2 "
                    "rectangle (parallel gap, zero pressure on all edges); "
                    + scope))
    lines.append(modal_line)
    lines.append(f"operator L_G work: {rep_G.factorizations} LU "
                 f"factorizations, {rep_G.applications} ARPACK operator "
                 "applications")
    entries.append(("stability_summary.txt", "\n".join(lines) + "\n",
                    "verdicts, the number of listed L_G eigenvalues with the "
                    "real-part bound of the unlisted ones, the right edge of "
                    "the essential spectrum of L_G (max over the cells of "
                    "m = f1'(R)/(R f2(R)), the relaxation rate of one bubble "
                    "at frozen film pressure, with the R_hat of its cell) "
                    "and whether it or the listed max real part governs, "
                    "the modal critical speed of a geometry within its "
                    "analysis, and last the sparse LU factorizations and "
                    "ARPACK operator applications of the L_G solve, pole "
                    "estimates included, summed over the mirror-symmetry "
                    "blocks (plain text)"))
    _write_run(Path(config.output_dir), entries)
    for line in lines:
        print(line)
    return 0


def _sweep_row(value: float, converged: bool, *numbers: float) -> str:
    return ",".join([f"{value:.9g}", str(converged).lower()]
                    + [f"{x:.9g}" for x in numbers])


def _point_name(config: RunConfig, value: float) -> str:
    """Directory name of one sweep point, ``sweep_<axis>_<value:g>``."""
    return f"sweep_{config.sweep_axis}_{value:g}"


def _sweep_point(args: tuple[RunConfig, float]) -> str:
    """One sweep evaluation (top-level for process pools): the plain run of
    the point's configuration, mapped to its ``sweep.csv`` row."""
    config, value = args
    sub = replace(config_for_sweep_value(config, value),
                  output_dir=str(Path(config.output_dir)
                                 / _point_name(config, value)))
    params = sub.params
    p_cav = abs(compute_derived(params).p_cav)
    try:
        if config.sweep_solver == MODE_STATIONARY:
            R_s, p_s, report = _stationary(sub)
            return _sweep_row(value, report.converged,
                              float(np.max(R_s)) / params.R0,
                              float(np.min(p_s)) / p_cav,
                              float(np.max(eval_alpha(R_s, params))))
        res = _transient(sub)
        return _sweep_row(value, res.converged, res.max_Rhat, res.min_p / p_cav,
                          float(eval_alpha(res.max_Rhat * params.R0, params)))
    except _NUMERICAL_FAILURES as exc:
        _write_run(Path(sub.output_dir), [
            ("summary.txt", f"failure = {exc}\n", "the numerical failure "
             "that ended the run, one `failure = <message>` line")])
        return _sweep_row(value, False, *[float("nan")] * 3)


def cmd_sweep(config: RunConfig) -> int:
    """Run the configured parameter sweep; point failures are recorded in
    the aggregate CSV and the sweep continues."""
    if config.sweep_axis == "none":
        raise ConfigurationError("sweep mode needs sweep_axis = ecc or omega")
    if not config.sweep_values:
        raise ConfigurationError("sweep mode needs a nonempty sweep_values "
                                 "list")
    # points whose values print alike under %g would share one directory
    taken = {}
    for v in config.sweep_values:
        name = _point_name(config, v)
        if name in taken:
            raise ConfigurationError(
                f"sweep_values entries {taken[name]!r} and {v!r} share the "
                f"point directory {name}/")
        taken[name] = v
    jobs = [(config, v) for v in config.sweep_values]
    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(job) for job in jobs]

    lines = [SWEEP_HEADER] + rows
    _write_run(Path(config.output_dir), [
        ("sweep.csv", "\n".join(lines) + "\n", "one row per swept value, "
         f"columns `{SWEEP_HEADER}`; min_phat is the scaled pressure minimum "
         "normalized by |min f1| (cavitation level = -1)"),
        (f"sweep_{config.sweep_axis}_<value>/", None, "the plain "
         f"`{config.sweep_solver}` run of the point's configuration: its "
         "artifacts and its MANIFEST.txt; the summary.txt of a point that "
         "failed numerically names the failure"),
    ])
    for line in lines:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filmcav",
        description="Thin-film lubrication with a dispersed micro-bubble "
                    "field: transient runs, stationary solves, linear "
                    "stability, and parameter sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in ((MODE_TRANSIENT, "time-march the coupled model"),
                           (MODE_STATIONARY, "solve for a stationary state"),
                           (MODE_STABILITY, "spectra and modal thresholds"),
                           (MODE_SWEEP, "run a parameter sweep")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None,
                       help="path to a key = value configuration file")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (overrides output_dir)")
        p.add_argument("--workers", type=int, default=None,
                       help="concurrent sweep evaluations (overrides workers)")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read config file {args.config!r}: {exc}") from exc
        config = parse_config(text)
    else:
        config = RunConfig()
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    return config


_DISPATCH = {
    MODE_TRANSIENT: cmd_transient,
    MODE_STATIONARY: cmd_stationary,
    MODE_STABILITY: cmd_stability,
    MODE_SWEEP: cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        return _DISPATCH[args.command](config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
