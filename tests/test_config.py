"""Tests for the flat key-value run configuration."""

import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from filmcav.cli import main
from filmcav.config import (
    KNOWN_KEYS,
    MODE_STATIONARY,
    RunConfig,
    config_for_sweep_value,
    parse_config,
    render_config,
)
from filmcav.dynamics import MODE_INERTIAL, MODE_INERTIALESS, StepConfig
from filmcav.errors import ConfigurationError
from filmcav.grid import BC_DIRICHLET, BC_PERIODIC
from filmcav.physics import PhysicalParams
from filmcav.stationary import StationarySolveConfig


def test_defaults_are_the_documented_desk_scale():
    config = RunConfig()
    assert config.params == PhysicalParams()
    assert (config.n1, config.n2) == (128, 32)
    assert config.bc_x1 == BC_PERIODIC
    assert config.step.dt == 3e-4
    assert config.step.error_tol == 1e-4
    assert config.step.mode == MODE_INERTIALESS
    assert config.n_steps == 20000
    assert config.stationarity_tol == 1e-8
    assert config.snapshot_every == 0
    assert config.sweep_axis == "none"
    assert config.sweep_values == ()
    assert config.newton == StationarySolveConfig()
    assert config.workers == 1


def test_empty_and_minimal_text_fill_defaults():
    assert parse_config("") == RunConfig()
    config = parse_config("ecc = 0.3\n")
    assert config.params.ecc == 0.3
    assert config == RunConfig(params=PhysicalParams(ecc=0.3))


def test_comments_and_blank_lines_ignored():
    text = """
    # leading comment

    ecc = 0.25   # trailing comment
    n1 = 64
    """
    config = parse_config(text)
    assert config.params.ecc == 0.25
    assert config.n1 == 64


@pytest.mark.parametrize("config", [
    RunConfig(),
    RunConfig(params=PhysicalParams(ecc=0.4, omega=2500.0 / 3.0),
              n1=48, n2=12, bc_x1=BC_DIRICHLET,
              step=StepConfig(dt=1e-3 / 3.0, error_tol=2e-5 / 3.0,
                              picard_tol=1e-9, mode=MODE_INERTIAL),
              n_steps=777, stationarity_tol=2e-7, snapshot_every=50,
              output_dir="artifacts/run one",
              newton=StationarySolveConfig(newton_tol=1e-9), workers=3),
    RunConfig(sweep_axis="ecc",
              sweep_values=(0.1, 0.2, 1.0 / 3.0),
              sweep_solver=MODE_STATIONARY),
], ids=["defaults", "custom", "sweep"])
def test_render_parse_round_trip_is_exact(config):
    assert parse_config(render_config(config)) == config


def test_unknown_key_rejected_by_name():
    for key in ("frobnicate", "solver_method", "solver_tol",
                "solver_max_iter", "k_max", "continuation_steps", "mode",
                "stability_margin", "picard_max", "newton_max"):
        with pytest.raises(ConfigurationError, match=key):
            parse_config(f"{key} = 3\n")


README = Path(__file__).resolve().parents[1] / "README.md"
#: a fenced code block: its info string and its body
FENCED = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
#: a backticked ``key = value`` span whose value is a plain config value
#: (words or numbers, comma-separated), not a formula like ``U = (..)``
ASSIGNMENT = re.compile(r"`([A-Za-z_]\w*) = ([\w.+-]+(?:,\s*[\w.+-]+)*,?)`")


def test_readme_names_only_known_keys():
    # a deleted key must not stay in the documentation
    text = README.read_text(encoding="utf-8")
    blocks = FENCED.findall(text)
    ini = [body for info, body in blocks if info == "ini"]
    assert ini
    for body in ini:
        parse_config(body)                 # rejects unknown keys by name
    prose = FENCED.sub("", text)
    spans = ASSIGNMENT.findall(prose)
    assert spans
    for key, value in spans:
        if (key, value) != ("key", "value"):   # the format's placeholder
            assert key in KNOWN_KEYS, f"`{key} = {value}`"


def test_known_keys_are_the_rendered_keys():
    # a key the parser accepts but no configuration renders is stale
    config = RunConfig(sweep_axis="ecc", sweep_values=(0.1, 0.2))
    rendered = {line.partition("=")[0].strip()
                for line in render_config(config).splitlines()
                if line and not line.startswith("#")}
    assert rendered == KNOWN_KEYS


def test_repeated_key_rejected_by_name():
    with pytest.raises(ConfigurationError, match="repeated.*'n1'"):
        parse_config("n1 = 16\nn1 = 32\n")


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_config("n1 = 16\nn2 32\n")


def test_invalid_value_reports_key():
    with pytest.raises(ConfigurationError, match="'n1'"):
        parse_config("n1 = twelve\n")
    with pytest.raises(ConfigurationError, match="'dt'"):
        parse_config("dt = fast\n")
    with pytest.raises(ConfigurationError, match="'sweep_values'"):
        parse_config("sweep_values = 0.1,x\n")
    with pytest.raises(ConfigurationError, match="'newton_tol'"):
        parse_config("newton_tol = inf\n")
    with pytest.raises(ConfigurationError, match="'sweep_values'"):
        parse_config("sweep_values = 0.1, nan\n")


def test_out_of_range_physical_values_rejected():
    with pytest.raises(ConfigurationError):
        parse_config("ecc = 1.2\n")
    with pytest.raises(ConfigurationError):
        parse_config("ecc = -0.1\n")


@pytest.mark.parametrize("line", [
    "step_mode = warp",
    "bc_x1 = open",
    "n1 = 3",
    "n2 = 2",
    "n_steps = 0",
    "stationarity_tol = 0.0",
    "snapshot_every = -1",
    "sweep_axis = viscosity",
    "sweep_solver = stability",
    "workers = 0",
    "error_tol = 1e-9",
    "error_tol = 1.0",
    "newton_tol = inf",
    "dt = inf",
    "stationarity_tol = inf",
    "omega = nan",
    "kappa_s = nan",
    "sweep_values = 0.1, inf",
    # settings built in Python, past the parser's finiteness check
    {"stationarity_tol": np.inf},
    {"sweep_axis": "omega", "sweep_values": (np.nan,)},
    {"sweep_axis": "omega", "sweep_values": (np.inf,)},
])
def test_run_setting_validation(line):
    with pytest.raises(ConfigurationError):
        if isinstance(line, dict):
            RunConfig(**line)
        else:
            parse_config(line + "\n")


def test_sweep_mode_needs_axis_and_values(tmp_path, capsys):
    # the sweep command checks its axis and values before it makes a
    # directory
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    for text, key in (("sweep_values = 0.1\n", "sweep_axis"),
                      ("sweep_axis = ecc\n", "sweep_values")):
        cfg.write_text(text, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()
    # Axis-specific ranges, checked as each point's parameters: ecc lives in
    # [0, 1), omega must be >= 0.
    with pytest.raises(ConfigurationError,
                       match=r"sweep_values entry 1\.0: ecc must lie"):
        parse_config("sweep_axis = ecc\nsweep_values = 0.1,1.0\n")
    with pytest.raises(ConfigurationError,
                       match="sweep_values entry -5.0: parameter 'omega'"):
        parse_config("sweep_axis = omega\nsweep_values = -5.0\n")


def test_sweep_values_parse_and_reject_a_shared_point_directory(tmp_path,
                                                               capsys):
    config = parse_config("sweep_axis = ecc\nsweep_values = 0.1, 0.3 ,0.2,\n")
    assert config.sweep_values == (0.1, 0.3, 0.2)

    # each point writes to sweep_ecc_<value:g>/: values that print alike,
    # exact repeats among them, are rejected before any directory exists
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    for values, first, second in (("0.1,0.2,0.1", "0.1", "0.1"),
                                  ("0.1,0.1000001", "0.1", "0.1000001")):
        text = ("n1 = 8\nn2 = 4\nsweep_axis = ecc\nsweep_solver = stationary"
                f"\nsweep_values = {values}\n")
        assert parse_config(text).sweep_values == tuple(
            float(v) for v in values.split(","))
        cfg.write_text(text, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (f"entries {first} and {second} share the point directory "
                "sweep_ecc_0.1/") in err
        assert not out.exists()


def test_nested_solver_keys_route_to_their_configs():
    config = parse_config(
        "step_mode = inertial\ndt = 1e-5\npicard_tol = 1e-9\n"
        "error_tol = 1e-6\nnewton_tol = 1e-9\n")
    assert config.step == StepConfig(dt=1e-5, error_tol=1e-6, picard_tol=1e-9,
                                     mode=MODE_INERTIAL)
    assert config.newton == StationarySolveConfig(newton_tol=1e-9)


def _settings(config):
    """(section, field) -> value over every field of a RunConfig and of its
    settings objects; section "" is the RunConfig itself."""
    leaves = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            leaves.update({(f.name, g.name): getattr(value, g.name)
                           for g in fields(value)})
        else:
            leaves[("", f.name)] = value
    return leaves


def test_every_physical_parameter_is_a_config_key():
    # every setting differs from its default here
    params = PhysicalParams()
    custom = RunConfig(
        params=replace(params, k_poly=1.0, **{
            f.name: 0.5 * getattr(params, f.name) for f in fields(params)
            if f.name != "k_poly"}),
        n1=48, n2=12, bc_x1=BC_DIRICHLET,
        step=StepConfig(dt=1e-5, error_tol=1e-5, picard_tol=1e-9,
                        mode=MODE_INERTIAL),
        n_steps=777, stationarity_tol=2e-7, snapshot_every=50,
        output_dir="elsewhere",
        newton=StationarySolveConfig(newton_tol=1e-9),
        sweep_axis="ecc", sweep_values=(0.25,), sweep_solver=MODE_STATIONARY,
        workers=3)
    defaults = _settings(RunConfig())
    wanted = _settings(custom)
    assert all(wanted[leaf] != defaults[leaf] for leaf in defaults)

    # each key, given alone, sets exactly one setting, and each setting has
    # exactly one key
    owner = {}
    for line in render_config(custom).splitlines():
        if not line or line.startswith("#"):
            continue
        got = _settings(parse_config(line + "\n"))
        changed = [leaf for leaf in defaults if got[leaf] != defaults[leaf]]
        assert len(changed) == 1, line
        assert got[changed[0]] == wanted[changed[0]], line
        assert changed[0] not in owner, line
        owner[changed[0]] = line.partition("=")[0].strip()
    assert set(owner) == set(defaults)
    assert set(owner.values()) == KNOWN_KEYS
    assert owner[("step", "mode")] == "step_mode"
    assert all(owner[("params", f.name)] == f.name for f in fields(params))


def test_config_for_sweep_value_substitutes_the_axis():
    base = parse_config("sweep_axis = ecc\n"
                        "sweep_values = 0.1,0.2\nsweep_solver = stationary\n")
    point = config_for_sweep_value(base, 0.2)
    assert point == replace(base, params=replace(base.params, ecc=0.2),
                            sweep_axis="none", sweep_values=())

    base_w = parse_config("sweep_axis = omega\nsweep_values = 100.0\n")
    point_w = config_for_sweep_value(base_w, 100.0)
    assert point_w.params.omega == 100.0
    assert point_w.sweep_axis == "none"

    with pytest.raises(ConfigurationError):
        config_for_sweep_value(RunConfig(), 0.1)


def test_grid_and_velocity_derived_from_params():
    config = parse_config("n1 = 16\nn2 = 8\nomega = 300.0\n")
    grid = config.make_grid()
    assert (grid.n1, grid.n2) == (16, 8)
    assert grid.bc_x1 == BC_PERIODIC
    assert grid.L1 == pytest.approx(2.0 * np.pi * config.params.J_r)
    assert grid.L2 == config.params.B
    assert config.velocity == (300.0 * config.params.J_r, 0.0)
