"""End-to-end tests of the command-line front end.

Each test runs ``main(argv)`` in process against a small configuration and
inspects exit codes plus written artifacts; one subprocess test covers the
``python -m`` entry point.  Exit-code contract: 0 success, 2 configuration
error, 3 numerical failure.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st

import filmcav
from filmcav import cli, physics, stability, stationary
from filmcav.cli import MIDLINE_HEADER, SWEEP_HEADER, TRACE_HEADER, main
from filmcav.config import parse_config
from filmcav.dynamics import initial_state, run_transient
from filmcav.errors import ConfigurationError
from filmcav.grid import (BC_DIRICHLET, BC_PERIODIC, CSV_HEADER, Grid,
                          gap_function, grid_for_params, mirror_half,
                          render_fields_csv, unfold)
from filmcav.physics import PhysicalParams, compute_derived
from oracles import critical_speed, fields_csv, midline_csv

DEFAULT = PhysicalParams()
DESK = grid_for_params(DEFAULT, 128, 32)


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _assert_manifest_matches(out):
    """``out`` holds exactly the files its MANIFEST.txt names, each entry
    matching at least one: ``<step>`` and ``<value>`` match a number, and a
    name ending in ``/`` is a directory."""
    lines = (out / "MANIFEST.txt").read_text(encoding="utf-8").splitlines()
    names = [line.split()[0] for line in lines[2:] if not line.startswith(" ")]
    patterns = [re.escape(name).replace("<step>", r"\d+")
                .replace("<value>", r"[-+.\w]+") for name in names]
    present = [p.name + "/" * p.is_dir() for p in out.iterdir()
               if p.name != "MANIFEST.txt"]
    unlisted = [f for f in present
                if not any(re.fullmatch(p, f) for p in patterns)]
    missing = [n for n, p in zip(names, patterns)
               if not any(re.fullmatch(p, f) for f in present)]
    assert (unlisted, missing) == ([], [])


def test_transient_writes_documented_artifacts(tmp_path):
    cfg = _write(tmp_path, "ecc = 0.2\nn1 = 8\nn2 = 4\nn_steps = 4000\n")
    out = tmp_path / "out"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 0

    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "converged = true" in summary
    assert "steps = 56" in summary

    fields = (out / "fields_final.csv").read_text(encoding="utf-8")
    assert fields.splitlines()[0] == CSV_HEADER
    assert len(fields.splitlines()) == 1 + 8 * 4

    midline = (out / "midline.csv").read_text(encoding="utf-8")
    assert midline.splitlines()[0] == MIDLINE_HEADER
    assert len(midline.splitlines()) == 1 + 8

    history = _load_csv(out / "history.csv")
    assert history.shape[1] == 6
    # Time column is strictly increasing.
    assert np.all(np.diff(history[:, 0]) > 0.0)

    trace = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert (trace[0] == TRACE_HEADER
            == "t,dt_used,iterations,factorizations,halvings,rejections")
    rows = _load_csv(out / "trace.csv")
    assert rows.shape == (56, 6)
    assert np.allclose(rows[:, 0], history[:, 0], rtol=1e-9)
    # step end times are the running sum of the step sizes used, and the
    # history ends where the trace does
    assert np.allclose(rows[:, 0], np.cumsum(rows[:, 1]), rtol=1e-9)
    assert history[-1, 0] == rows[-1, 0]
    assert np.all(rows[:, 2] >= 1)

    manifest = (out / "MANIFEST.txt").read_text(encoding="utf-8")
    for name in ("fields_final.csv", "midline.csv", "history.csv",
                 "trace.csv", "summary.txt"):
        assert name in manifest


def test_transient_summary_totals_the_trace(tmp_path):
    # the summary's work counts are the column sums of trace.csv
    cfg = _write(tmp_path, "ecc = 0.2\nn1 = 8\nn2 = 4\nn_steps = 4000\n")
    out = tmp_path / "out"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    summary = dict(line.split(" = ", 1) for line in lines)
    rows = _load_csv(out / "trace.csv")
    columns = TRACE_HEADER.split(",")
    for key in ("iterations", "factorizations"):
        assert int(summary[key]) == int(rows[:, columns.index(key)].sum())
    assert 1 <= int(summary["factorizations"]) < int(summary["steps"])


def test_transient_snapshots_and_early_stop(tmp_path):
    cfg = _write(tmp_path, "ecc = 0.2\nn1 = 8\nn2 = 4\nn_steps = 3\n"
                           "stationarity_tol = 1e9\nsnapshot_every = 1\n")
    out = tmp_path / "out"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 0
    snap = (out / "snapshot_1.csv").read_text(encoding="utf-8")
    assert snap.splitlines()[0] == CSV_HEADER
    assert "snapshot_<step>.csv" in (out / "MANIFEST.txt").read_text()
    _assert_manifest_matches(out)


def test_transient_nonconvergence_is_exit_3(tmp_path):
    # Strong eccentricity on the coarse grid takes about 120 steps to settle;
    # a run that ends its step budget first must flag that rather than
    # claim success.
    cfg = _write(tmp_path, "ecc = 0.6\nn1 = 8\nn2 = 4\nn_steps = 60\n")
    out = tmp_path / "out"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 3
    assert "converged = false" in (out / "summary.txt").read_text()


def _summary(out):
    lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def test_transient_critical_radius_writes_its_failure_lines(tmp_path):
    # at ecc = 0.9 the radius reaches the critical value before the run
    # settles: the summary names the failure and the step that met it
    cfg = _write(tmp_path, "ecc = 0.9\nn1 = 32\nn2 = 8\n")
    out = tmp_path / "out"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 3
    summary = _summary(out)
    assert summary["failure"].startswith(
        "radius reached the critical value at step 124 ")
    assert summary["failed_step"] == "124"


def test_transient_singular_factorization_is_exit_3(tmp_path, monkeypatch,
                                                    capsys):
    # SuperLU raises a bare RuntimeError on an exactly singular matrix; the
    # run reports it as a numerical failure, not as a traceback
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr("scipy.sparse.linalg.splu", singular)
    cfg = _write(tmp_path, "ecc = 0.2\nn1 = 8\nn2 = 4\nn_steps = 5\n")
    out = tmp_path / "out"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 3
    assert "exactly singular" in capsys.readouterr().err


def test_transient_rest_state_is_exact(tmp_path):
    # Parallel gap without sliding: the initial uniform state is already
    # stationary, pressures vanish identically.
    cfg = _write(tmp_path, "ecc = 0.0\nomega = 0.0\nn1 = 8\nn2 = 4\n"
                           "n_steps = 10\n")
    out = tmp_path / "out"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 0
    rows = _load_csv(out / "fields_final.csv")
    assert np.ptp(rows[:, 2]) == 0.0
    assert np.max(np.abs(rows[:, 3])) == 0.0
    assert "steps = 1" in (out / "summary.txt").read_text()


def test_stationary_writes_artifacts(tmp_path):
    cfg = _write(tmp_path, "ecc = 0.2\nn1 = 16\nn2 = 8\n")
    out = tmp_path / "out"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "converged = true" in summary
    assert "final_relative_residual" in summary
    for name in ("fields_final.csv", "midline.csv", "MANIFEST.txt"):
        assert (out / name).exists()
    _assert_manifest_matches(out)


def test_stationary_summary_counts_the_factorizations(tmp_path,
                                                    monkeypatch):
    # the summary's factorizations line is the solve's count of LUs of the
    # Newton matrix, fewer than its iterations when chord steps reuse one
    calls = []
    factorize = stationary._factorize
    monkeypatch.setattr(stationary, "_factorize",
                        lambda A: calls.append(1) or factorize(A))
    cfg = _write(tmp_path, "ecc = 0.3\nn1 = 32\nn2 = 8\n")
    out = tmp_path / "out"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    summary = dict(line.split(" = ", 1) for line in lines)
    assert int(summary["factorizations"]) == len(calls)
    assert 1 <= len(calls) < int(summary["newton_iterations"])


def test_stationary_unconverged_is_exit_3_with_its_message(tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(stationary, "NEWTON_MAX", 1)
    cfg = _write(tmp_path, "ecc = 0.3\nn1 = 16\nn2 = 8\n")
    out = tmp_path / "out"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 3
    summary = _summary(out)
    assert (summary["converged"], summary["newton_iterations"]) == ("false",
                                                                    "1")
    assert summary["message"].startswith(
        "Newton stopped short of the tolerance: NEWTON_MAX = 1 iterations "
        "spent (final relative residual ")


def test_manifest_names_the_midline_rows_of_an_odd_grid(tmp_path):
    # with odd n2 the midline is the center row itself, as MANIFEST says
    cfg = _write(tmp_path, "ecc = 0.2\nn1 = 8\nn2 = 5\n")
    out = tmp_path / "out"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
    manifest = (out / "MANIFEST.txt").read_text(encoding="utf-8")
    assert "mid-width profile (the center row)" in manifest
    assert "average" not in manifest
    fields = _load_csv(out / "fields_final.csv")
    midline = _load_csv(out / "midline.csv")
    assert np.array_equal(midline[:, 1], fields[2::5, 2])


def _record_calls(monkeypatch, name):
    """Wrap ``cli.<name>`` to keep the grid and the result of each call."""
    calls = []
    solve = getattr(cli, name)

    def recorded(grid, *args, **kwargs):
        calls.append((grid, solve(grid, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(cli, name, recorded)
    return calls


def test_even_grid_stationary_solves_the_mirror_half(tmp_path, monkeypatch):
    # the CLI solves the lower half with a zero-flux mid-plane and unfolds
    # it; the unfolded state is a converged state of the full grid, and the
    # full-grid solve finds the same fields
    calls = _record_calls(monkeypatch, "solve_stationary")
    cfg = _write(tmp_path, "ecc = 0.3\nn1 = 16\nn2 = 8\n")
    out = tmp_path / "out"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
    config = parse_config(Path(cfg).read_text(encoding="utf-8"))
    grid, params = config.make_grid(), config.params
    [(half, (R_half, _, report))] = calls
    assert half == mirror_half(grid) and half.n2 == 4
    R = unfold(half, R_half)
    h = gap_function(grid, params)
    phi, scale = stationary.stationary_residual(grid, R, h, config.velocity,
                                                params)
    assert np.linalg.norm(phi) / scale < config.newton.newton_tol
    R_full, _, full = stationary.solve_stationary(grid, h, config.velocity,
                                                  params, config.newton)
    assert full.converged and report.converged
    assert abs(R - R_full).max() <= 1e-10 * R_full.max()
    fields = _load_csv(out / "fields_final.csv")
    assert np.allclose(fields[:, 2], R.ravel() / params.R0, rtol=1e-8,
                       atol=0.0)


def test_even_grid_transient_runs_on_the_mirror_half(tmp_path, monkeypatch):
    # the mirror-half run takes the full grid's steps and work and ends
    # within picard_tol of its state; snapshots are full-grid fields too
    calls = _record_calls(monkeypatch, "run_transient")
    cfg = _write(tmp_path, "ecc = 0.2\nn1 = 8\nn2 = 4\nn_steps = 4000\n"
                           "snapshot_every = 20\n")
    out = tmp_path / "out"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 0
    config = parse_config(Path(cfg).read_text(encoding="utf-8"))
    grid, params, U = config.make_grid(), config.params, config.velocity
    [(half, res)] = calls
    assert half == mirror_half(grid) and half.n2 == 2
    h = gap_function(grid, params)
    full = run_transient(grid, initial_state(grid, h, U, params), h, U,
                         params, config.step, config.n_steps,
                         config.stationarity_tol)
    assert res.converged and full.converged and res.steps == full.steps == 56
    for key in ("iterations", "factorizations"):
        assert np.array_equal(res.step_stats[key], full.step_stats[key])
    R = unfold(half, res.state.R)
    assert (abs(R - full.state.R).max()
            <= config.step.picard_tol * full.state.R.max())
    snapshot = _load_csv(out / "snapshot_20.csv")
    assert snapshot.shape[0] == grid.n_cells
    R_hat = snapshot[:, 2].reshape(grid.shape)
    assert np.array_equal(R_hat, R_hat[:, ::-1])


@pytest.mark.parametrize("command", ["stationary", "transient"])
def test_odd_grid_runs_solve_their_own_grid(tmp_path, monkeypatch, command):
    # no cell row ends at the mid-plane of an odd n2: the whole grid
    name = "solve_stationary" if command == "stationary" else "run_transient"
    calls = _record_calls(monkeypatch, name)
    cfg = _write(tmp_path, "ecc = 0.2\nn1 = 8\nn2 = 5\nn_steps = 4000\n")
    assert main([command, "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 0
    [(grid, _)] = calls
    assert grid == Grid(8, 5, 2.0 * np.pi * PhysicalParams().J_r,
                        PhysicalParams().B) and not grid.mirror


def test_the_mirror_half_residual_never_reads_below_the_full_grid():
    # the half grid's scale omits the gross flux across the mid-plane, so at
    # one state its relative residual is at least the full grid's: a
    # mirror-half solve stops no earlier than the full solve would.  At the
    # desk's n2 = 32 that flux is a small share of the scale (about 2 %)
    params = PhysicalParams(ecc=0.3)
    grid = Grid(32, 32, 2.0 * np.pi * params.J_r, params.B)
    half = mirror_half(grid)
    U = (params.surface_speed, 0.0)
    R_s, _, _ = stationary.solve_stationary(half, gap_function(half, params),
                                            U, params)
    wobble = np.random.default_rng(83).uniform(0.9, 1.1, size=half.shape)
    for R in (R_s, R_s * wobble):
        relative = []
        for g, field in ((half, R), (grid, unfold(half, R))):
            phi, scale = stationary.stationary_residual(
                g, field, gap_function(g, params), U, params)
            relative.append(np.linalg.norm(phi) / scale)
        assert relative[1] <= relative[0] < 1.05 * relative[1]


def test_stationary_supercritical_is_exit_3(tmp_path, capsys):
    cfg = _write(tmp_path, "ecc = 0.55\nn1 = 16\nn2 = 8\n")
    rc = main(["stationary", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_stability_trivial_branch_both_stable(tmp_path, capsys):
    cfg = _write(tmp_path, "ecc = 0.0\nomega = 0.0\nn1 = 8\nn2 = 8\n"
                           "bc_x1 = dirichlet-zero\nstep_mode = inertial\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "stability_summary.txt").read_text(encoding="utf-8")
    assert "operator L_G: verdict = stable" in summary
    assert "operator L_F: verdict = stable" in summary
    for name in ("fields_stationary.csv", "spectrum_LG.csv",
                 "spectrum_LF.csv", "hurwitz.txt", "MANIFEST.txt"):
        assert (out / name).exists()
    assert (out / "spectrum_LG.csv").read_text().splitlines()[0] == "re,im"
    hurwitz = (out / "hurwitz.txt").read_text(encoding="utf-8")
    assert "critical speed" in hurwitz
    assert "sign changes" in hurwitz
    assert "verdict = stable" in capsys.readouterr().out
    _assert_manifest_matches(out)


def test_stability_without_inertia_skips_the_inertial_spectrum(tmp_path):
    cfg = _write(tmp_path, "ecc = 0.0\nomega = 0.0\nn1 = 8\nn2 = 8\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "spectrum_LG.csv").exists()
    assert not (out / "spectrum_LF.csv").exists()
    summary = (out / "stability_summary.txt").read_text(encoding="utf-8")
    assert "L_F" not in summary


# Gentle parameters with J_r = 1/(2 pi); the periodic direction then has
# unit length, so the modal threshold analysis applies verbatim to the
# dense operators assembled on the computational domain.
_GENTLE = (
    "rho_l = 1000.0\nmu_l = 1.0\nrho_g = 900.0\nmu_g = 0.01\n"
    "kappa_s = 0.0\nk_poly = 1.4\nsigma = 1.0\nP0 = 1000.0\np_bnd = 980.0\n"
    "R0 = 0.1\nalpha0 = 0.1\nJ_r = {jr!r}\nB = 1.0\nh0 = 0.03125\n"
    "ecc = 0.0\nomega = {omega!r}\n"
    "n1 = 16\nn2 = 16\nbc_x1 = dirichlet-zero\nstep_mode = inertial\n")


@pytest.mark.parametrize("factor,f_verdict", [(0.9, "stable"),
                                              (1.1, "unstable")])
def test_stability_verdict_flips_across_critical_speed(tmp_path, factor,
                                                       f_verdict):
    jr = 1.0 / (2.0 * np.pi)
    params = parse_config(_GENTLE.format(jr=jr, omega=0.0)).params
    u_crit = critical_speed(params)
    cfg = _write(tmp_path, _GENTLE.format(jr=jr, omega=factor * u_crit / jr))
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "stability_summary.txt").read_text(encoding="utf-8")
    assert f"operator L_F: verdict = {f_verdict}" in summary
    # The quasi-static hierarchy stays stable on both sides.
    assert "operator L_G: verdict = stable" in summary
    # a 1 x 1 all-Dirichlet parallel gap is the analysis's own setting
    hurwitz = (out / "hurwitz.txt").read_text(encoding="utf-8")
    assert "the configured geometry is within the analysis" in hurwitz
    assert "outside the analysis" not in hurwitz
    assert f"minimal modal critical speed = {u_crit:.9g} m/s" in summary


def test_stability_names_geometry_outside_the_modal_analysis(tmp_path):
    cfg = _write(tmp_path, "ecc = 0.2\nn1 = 8\nn2 = 4\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    hurwitz = (out / "hurwitz.txt").read_text(encoding="utf-8")
    scope = hurwitz.splitlines()[1]
    assert scope.startswith("outside the analysis: ")
    assert "x1 is periodic" in scope and "ecc = 0.2 > 0" in scope
    manifest = (out / "MANIFEST.txt").read_text(encoding="utf-8")
    assert "outside the analysis: x1 is periodic" in manifest
    summary = (out / "stability_summary.txt").read_text(encoding="utf-8")
    # the modal line closes the results; the L_G work line follows them
    assert summary.splitlines()[-2] == ("minimal modal critical speed not "
                                        f"printed, {scope}")
    assert summary.splitlines()[-1].startswith("operator L_G work: ")


def test_stability_summary_counts_the_work_of_the_LG_solve(tmp_path,
                                                           monkeypatch):
    # the last summary line counts the LUs and ARPACK operator applications
    # of the pencil solve, the pole estimate's included: what a wrapped
    # operator sees, and the same line in two identical runs
    lus, applications = [], []
    factorize, largest = stability._factorize, stability._largest_modulus
    monkeypatch.setattr(stability, "_factorize",
                        lambda A: lus.append(1) or factorize(A))
    monkeypatch.setattr(stability, "_largest_modulus",
                        lambda matvec, *a, **kw: largest(
                            lambda x: applications.append(1) or matvec(x),
                            *a, **kw))
    cfg = _write(tmp_path, "ecc = 0.2\nn1 = 16\nn2 = 8\n")
    lines = []
    for run in ("first", "second"):
        lus.clear()
        applications.clear()
        out = tmp_path / run
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "stability_summary.txt").read_text(encoding="utf-8")
        lines.append(summary.splitlines()[-1])
        assert lines[-1] == (f"operator L_G work: {len(lus)} LU "
                             f"factorizations, {len(applications)} ARPACK "
                             "operator applications")
        assert len(lus) >= 2 and len(applications) > 0
    assert lines[0] == lines[1]
    assert "ARPACK operator applications" in (
        out / "MANIFEST.txt").read_text(encoding="utf-8")


def test_stability_holds_one_factor_at_a_time(tmp_path, monkeypatch):
    # the stationary solve and the spectrum of each symmetry block in turn
    # each release their LU before the next is built, and none outlives
    # the run
    live, peak, built = [0], [0], []

    class Counted:
        def __init__(self, lu, owner):
            self._lu = lu
            live[0] += 1
            peak[0] = max(peak[0], live[0])
            built.append(owner)

        def solve(self, rhs):
            return self._lu.solve(rhs)

        def __del__(self):
            live[0] -= 1

    for module in (stationary, stability):
        monkeypatch.setattr(module, "_factorize",
                            lambda A, f=module._factorize, owner=module:
                            Counted(f(A), owner))
    cfg = _write(tmp_path, "ecc = 0.2\nn1 = 16\nn2 = 8\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    assert (peak[0], live[0]) == (1, 0)
    # the pole estimate and at least one Cayley pole per block
    lus = built.count(stability)
    assert lus >= 4 and stationary in built
    summary = (out / "stability_summary.txt").read_text(encoding="utf-8")
    assert summary.splitlines()[-1].startswith(
        f"operator L_G work: {lus} LU factorizations, ")


def test_stability_at_an_odd_n2_runs_one_block(tmp_path):
    # no cell row ends at the mid-plane: the run keeps the whole grid, and
    # its one block is the whole pencil at the whole grid's own state
    text = "ecc = 0.2\nn1 = 16\nn2 = 5\n"
    config = parse_config(text)
    grid = config.make_grid()
    assert mirror_half(grid) is grid
    params, U = config.params, config.velocity
    h = gap_function(grid, params)
    R_s, _, report = stationary.solve_stationary(grid, h, U, params,
                                                 config.newton)
    assert report.converged
    rep = stability.pencil_spectrum(*cli.film_pencil(
        grid, R_s, np.zeros(grid.shape), h, U, params))
    out = tmp_path / "out"
    assert main(["stability", "--config", _write(tmp_path, text), "--out",
                 str(out)]) == 0
    lines = (out / "stability_summary.txt").read_text(
        encoding="utf-8").splitlines()
    assert lines[0] == (f"operator L_G: verdict = {rep.verdict}, max real "
                        f"part = {rep.max_real_part:.9g}")
    assert lines[1].startswith(f"operator L_G: {rep.eigenvalues.size} ")
    assert lines[-1] == (f"operator L_G work: {rep.factorizations} LU "
                         f"factorizations, {rep.applications} ARPACK "
                         "operator applications")
    assert "lower half" not in (out / "MANIFEST.txt").read_text(
        encoding="utf-8")


_EDGE_LINE = re.compile(r"operator L_G: essential spectrum edge max "
                        r"f1'/\(R f2\) = (\S+) at R_hat = (\S+), (.*)")


@pytest.mark.parametrize("n1,n2,ecc,edge,rhat,max_real,governs", [
    (32, 16, 0.4, -124.806383, 1.56509239, -152.874034,
     "right of the listed max real part: the edge governs, the listed "
     "eigenvalues approximate it from the left"),
    (16, 8, 0.3, -549.939943, 1.21939927, -291.244857,
     "left of the listed max real part, which governs")])
def test_stability_summary_prints_the_essential_spectrum_edge(
        tmp_path, n1, n2, ecc, edge, rhat, max_real, governs):
    # the third line: the edge max m of the essential spectrum of L_G, the
    # R_hat of its cell, and which of it and the listed max real part
    # governs; at ecc 0.4 the listed eigenvalues lie left of the edge, at
    # 0.3 a point eigenvalue lies right of it.  The other lines keep their
    # places
    cfg = _write(tmp_path, f"ecc = {ecc}\nn1 = {n1}\nn2 = {n2}\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "stability_summary.txt").read_text(
        encoding="utf-8").splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("operator L_G: verdict = stable, max real ")
    assert lines[1].startswith("operator L_G: ")
    assert lines[-2].startswith("minimal modal critical speed not printed")
    assert lines[-1].startswith("operator L_G work: ")
    found = _EDGE_LINE.fullmatch(lines[2])
    assert found is not None, lines[2]
    assert float(lines[0].rsplit(" ", 1)[1]) == pytest.approx(max_real,
                                                              rel=1e-6)
    assert float(found[1]) == pytest.approx(edge, rel=1e-6)
    assert float(found[2]) == pytest.approx(rhat, rel=1e-6)
    assert found[3] == governs
    assert "essential spectrum of L_G" in (out / "MANIFEST.txt").read_text(
        encoding="utf-8")


@pytest.mark.parametrize("ecc", [0.0, 0.1])
def test_stability_without_bubbles_has_no_modal_threshold(tmp_path, ecc):
    # alpha0 = 0 leaves the film dynamically passive: the squeeze coupling
    # sigma1 vanishes, Delta3 no longer depends on U, and no speed is
    # critical; the summary prints it only for a geometry the modes describe
    cfg = _write(tmp_path, f"alpha0 = 0.0\necc = {ecc}\nn1 = 16\nn2 = 8\n"
                 "bc_x1 = dirichlet-zero\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    hurwitz = (out / "hurwitz.txt").read_text(encoding="utf-8")
    assert "critical speed for this mode: inf m/s" in hurwitz
    summary = (out / "stability_summary.txt").read_text(encoding="utf-8")
    assert ("minimal modal critical speed = inf m/s" if ecc == 0.0 else
            "minimal modal critical speed not printed, outside the analysis: "
            "ecc = 0.1 > 0") in summary


def test_stability_lists_rightmost_eigenvalues_above_dense_limit(tmp_path):
    # 160 x 32 = 5120 cells: above DENSE_ASSEMBLY_LIMIT, where the dense L_G
    # used to refuse the run (exit 2); the sparse pencil route certifies it
    cfg = _write(tmp_path, "n1 = 160\nn2 = 32\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "stability_summary.txt").read_text(encoding="utf-8")
    first, second = summary.splitlines()[:2]
    assert first.startswith("operator L_G: verdict = stable, max real part")
    count = int(second.split()[2])
    assert second.startswith(f"operator L_G: {count} rightmost eigenvalues "
                             "listed, every other eigenvalue has real part <=")
    rows = _load_csv(out / "spectrum_LG.csv")
    assert rows.shape == (count, 2)
    bound = float(second.rsplit(" ", 1)[1])
    max_real = float(first.rsplit(" ", 1)[1])
    assert bound < max_real == pytest.approx(rows[:, 0].max(), rel=1e-8)
    # L_F is still dense: the inertial run is refused before any work
    cfg = _write(tmp_path, "n1 = 160\nn2 = 32\nstep_mode = inertial\n")
    out = tmp_path / "inertial"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_stability_uncertified_spectrum_is_exit_3(tmp_path, monkeypatch,
                                                  capsys):
    # a pencil with more unstable eigenvalues than the route lists cannot
    # be certified: the run fails rather than print an unproven verdict.
    # The fake is mirror-symmetric like a film pencil, its values on the
    # lower-half cells repeated on their mirror cells, so each symmetry
    # block holds 16 unstable eigenvalues against the 14 it lists
    lower = np.linspace(1.0, 20.0, 16).reshape(8, 2)
    eigenvalues = np.hstack([lower, lower[:, ::-1]]).ravel()
    pencil = (sp.diags(eigenvalues).tocsc(), sp.identity(32, format="csc"))
    monkeypatch.setattr("filmcav.cli.film_pencil", lambda *a: pencil)
    cfg = _write(tmp_path, "ecc = 0.2\nn1 = 8\nn2 = 4\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 3
    assert "not certified" in capsys.readouterr().err
    # both spectra come before the first file: the failed run writes none
    assert not out.exists()


def test_stability_unconverged_branch_is_exit_3(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.setattr("filmcav.stationary.NEWTON_MAX", 1)
    cfg = _write(tmp_path, "ecc = 0.4\nn1 = 16\nn2 = 8\n")
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 3
    assert "stationary solve failed" in capsys.readouterr().err
    assert not out.exists()


def test_stability_unconverged_branch_names_its_exit(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setattr("filmcav.stationary.NEWTON_MAX", 1)
    cfg = _write(tmp_path, "ecc = 0.4\nn1 = 16\nn2 = 8\n")
    assert main(["stability", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 3
    assert "NEWTON_MAX = 1 iterations spent" in capsys.readouterr().err


def test_transient_started_at_rest_converges_in_one_step(tmp_path):
    # P0 = p_bnd + 2 sigma / R0 puts R0 at rest within rounding; the chord
    # updates are then rounding noise, accepted at the rounding floor
    cfg = _write(tmp_path, "R0 = 5e-7\nP0 = 241325.0\necc = 0.0\n"
                           "n1 = 32\nn2 = 8\n")
    out = tmp_path / "out"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "converged = true\n" in summary and "steps = 1\n" in summary


def test_sweep_aggregates_and_records_failures(tmp_path, capsys):
    cfg = _write(tmp_path, "n1 = 12\nn2 = 6\nsweep_axis = ecc\n"
                           "sweep_values = 0.1,0.2,0.55\n"
                           "sweep_solver = stationary\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0

    lines = (out / "sweep.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["true", "true", "false"]
    # Bubble growth strengthens with eccentricity; the failed point is
    # recorded as NaN and the sweep carries on.
    assert float(rows[1][2]) > float(rows[0][2]) > 1.0
    assert rows[2][2] == "nan"
    _assert_manifest_matches(out)
    for value in ("0.1", "0.2", "0.55"):
        assert (out / f"sweep_ecc_{value}" / "summary.txt").exists()
        _assert_manifest_matches(out / f"sweep_ecc_{value}")
    assert (out / "sweep_ecc_0.1" / "fields_final.csv").exists()
    # the failed point's MANIFEST names its one file, the failure record
    failed = out / "sweep_ecc_0.55"
    assert sorted(p.name for p in failed.iterdir()) == ["MANIFEST.txt",
                                                        "summary.txt"]
    manifest = (failed / "MANIFEST.txt").read_text(encoding="utf-8")
    assert "summary.txt" in manifest and "failure" in manifest
    assert (failed / "summary.txt").read_text(
        encoding="utf-8").startswith("failure = ")
    assert "sweep.csv" in (out / "MANIFEST.txt").read_text()
    assert "0.55,false,nan" in capsys.readouterr().out


@pytest.mark.parametrize("solver", ["transient", "stationary"])
def test_sweep_points_are_plain_runs(tmp_path, solver):
    # Each point of a sweep is the plain run of its configuration: the same
    # files, names and bytes, MANIFEST included.
    base = "n1 = 8\nn2 = 4\nn_steps = 4000\n"
    cfg = _write(tmp_path, base + "sweep_axis = ecc\n"
                 f"sweep_values = 0.1,0.2\nsweep_solver = {solver}\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert [r[:2] for r in rows] == [["0.1", "true"], ["0.2", "true"]]
    assert 1.0 < float(rows[0][2]) < float(rows[1][2])
    for value in ("0.1", "0.2"):
        single = tmp_path / f"single_{value}"
        path = tmp_path / f"single_{value}.cfg"
        path.write_text(base + f"ecc = {value}\n", encoding="utf-8")
        assert main([solver, "--config", str(path), "--out",
                     str(single)]) == 0
        point = out / f"sweep_ecc_{value}"
        _assert_manifest_matches(point)
        names = sorted(p.name for p in point.iterdir())
        assert names == sorted(p.name for p in single.iterdir())
        assert "MANIFEST.txt" in names and "midline.csv" in names
        for name in names:
            assert (point / name).read_bytes() == (single / name).read_bytes()
    if solver == "transient":
        summary = (out / "sweep_ecc_0.2" / "summary.txt").read_text()
        assert "steps = 56" in summary


def test_sweep_workers_do_not_change_results(tmp_path):
    text = ("n1 = 12\nn2 = 6\nsweep_axis = ecc\nsweep_values = 0.1,0.2\n"
            "sweep_solver = stationary\n")
    cfg = _write(tmp_path, text)
    assert main(["sweep", "--config", cfg, "--out",
                 str(tmp_path / "serial")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "pooled"),
                 "--workers", "2"]) == 0
    serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
    pooled = (tmp_path / "pooled" / "sweep.csv").read_bytes()
    assert serial == pooled


def test_identical_configs_give_bitwise_identical_outputs(tmp_path):
    runs = (("transient", "ecc = 0.3\nn1 = 8\nn2 = 4\nn_steps = 40\n"
                          "stationarity_tol = 1e-4\n"),
            ("stability", "ecc = 0.3\nn1 = 32\nn2 = 16\n"))
    for command, text in runs:
        cfg = _write(tmp_path, text)
        outs = (tmp_path / command / "a", tmp_path / command / "b")
        for out in outs:
            main([command, "--config", cfg, "--out", str(out)])
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes())


def test_derived_constants_are_computed_once_per_material(tmp_path,
                                                          monkeypatch):
    # every layer of a run reads the one cached constant set of its
    # material: one bisection (R_bar; R_crit has a closed form) per
    # distinct material, and an eccentricity or speed sweep, which changes
    # no closure, shares one
    assert compute_derived(PhysicalParams()) is compute_derived(PhysicalParams())
    assert (compute_derived(PhysicalParams(ecc=0.1, omega=5.0, h0=1e-5))
            is compute_derived(PhysicalParams()))
    bisections = []
    real_bisect = physics._bisect

    def counted(*args):
        bisections.append(args)
        return real_bisect(*args)

    monkeypatch.setattr(physics, "_bisect", counted)
    runs = (("stability", "n1 = 8\nn2 = 4\n", 1),
            ("sweep", "n1 = 8\nn2 = 4\nsweep_axis = ecc\n"
                      "sweep_values = 0.1,0.25,0.4\n"
                      "sweep_solver = stationary\n", 1),
            ("sweep", "n1 = 8\nn2 = 4\nsweep_axis = omega\n"
                      "sweep_values = 60,100,140\n"
                      "sweep_solver = stationary\n", 1))
    for command, text, expected in runs:
        physics._derived.cache_clear()   # earlier tests fill the cache
        bisections.clear()
        assert main([command, "--config", _write(tmp_path, text), "--out",
                     str(tmp_path / command)]) == 0
        assert len(bisections) == expected, command


def test_configuration_errors_are_exit_2(tmp_path, capsys):
    rc = main(["transient", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err

    for key in ("frobnicate", "k_max", "continuation_steps"):
        assert main(["transient", "--config",
                     _write(tmp_path, f"{key} = 1\n")]) == 2
        assert f"unknown configuration key '{key}'" in capsys.readouterr().err
    assert main(["stationary", "--config",
                 _write(tmp_path, "ecc = 1.2\n")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, extra", [
    ("stationary", "n1 = 8\nn2 = 4\n", []),
    ("sweep", "n1 = 8\nn2 = 4\nsweep_axis = ecc\nsweep_values = 0.1,0.2\n"
              "sweep_solver = stationary\n", ["--workers", "2"]),
], ids=["stationary", "pooled-sweep"])
def test_unwritable_output_directory_is_exit_2(tmp_path, capsys, command,
                                               text, extra):
    # the output directory would lie below a regular file; in the pooled
    # sweep the error is raised in a worker process
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert main([command, "--config", _write(tmp_path, text), "--out",
                 str(blocker / "sub")] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write ")
    assert err.count("\n") == 1


def test_subcommand_is_the_only_run_mode(tmp_path, capsys):
    # a `mode` key is not a setting: it is rejected, not silently overridden
    cfg = _write(tmp_path, "mode = stationary\nn1 = 8\nn2 = 4\n")
    out = tmp_path / "out"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 2
    assert "unknown configuration key 'mode'" in capsys.readouterr().err
    assert not out.exists()


def test_gas_denser_than_liquid_is_exit_2(tmp_path, capsys):
    # f5 <= 0 needs rho_g <= rho_l; the default liquid has rho_l = 854
    cfg = _write(tmp_path, "rho_g = 900\nn1 = 8\nn2 = 4\n")
    out = tmp_path / "out"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 2
    assert "'rho_g'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_module_entry_point(tmp_path):
    cfg = _write(tmp_path, "ecc = 0.2\nn1 = 8\nn2 = 4\n")
    # the child imports the same filmcav as this test, installed or not
    source = str(Path(filmcav.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "filmcav.cli", "stationary", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "stationary: converged=true" in proc.stdout
    assert (tmp_path / "out" / "fields_final.csv").exists()


def test_midline_of_a_whole_grid_of_even_n2_is_rejected():
    # no cell row of a whole even-n2 grid is its midline: the run renders
    # the midline from the mirror half, whose last row it is
    grid = Grid(6, 4, 1.0, 1.0)
    R = np.full(grid.shape, DEFAULT.R0)
    with pytest.raises(ConfigurationError, match="even n2"):
        cli.render_midline_csv(grid, DEFAULT, R, np.zeros(grid.shape))


@given(shape=st.tuples(st.integers(4, 12), st.integers(4, 12)),
       lengths=st.tuples(st.floats(1e-4, 1e4), st.floats(1e-4, 1e4)),
       bc_x1=st.sampled_from([BC_PERIODIC, BC_DIRICHLET]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(shape=DESK.shape, lengths=(DESK.L1, DESK.L2), bc_x1=BC_PERIODIC,
         seed=1)
def test_field_tables_of_the_solved_grid_are_the_unfolded_fields_tables(
        shape, lengths, bc_x1, seed):
    # the tables rendered from the solved grid (the mirror half of an even
    # n2, the whole grid of an odd one) are, byte for byte, the whole grid's
    # tables of the unfolded fields with every number formatted
    grid = Grid(*shape, *lengths, bc_x1=bc_x1)
    solved = mirror_half(grid)
    rng = np.random.default_rng(seed)
    R = DEFAULT.R0 * rng.uniform(0.2, 2.2, size=solved.shape)
    p = (rng.choice([-1.0, 1.0], size=solved.shape)
         * 10.0 ** rng.uniform(-8.0, 9.0, size=solved.shape))
    R_whole, p_whole = unfold(solved, R), unfold(solved, p)
    assert render_fields_csv(solved, DEFAULT, R, p) == fields_csv(
        grid, DEFAULT, R_whole, p_whole)
    assert cli.render_midline_csv(solved, DEFAULT, R, p) == midline_csv(
        grid, DEFAULT, R_whole, p_whole)
