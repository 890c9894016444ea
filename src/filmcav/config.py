"""Flat key-value run configuration: parsing, validation, rendering.

The file format is one ``key = value`` assignment per line, with ``#``
comments and blank lines ignored.  Keys match the physical-parameter field
names plus run/solver settings; every key has a documented default, unknown
or repeated keys are rejected by name, and ``parse_config(render_config(c))``
reproduces ``c`` exactly (floats are rendered with full round-trip
precision).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .errors import ConfigurationError
from .grid import BC_DIRICHLET, BC_PERIODIC, Grid, grid_for_params
from .dynamics import StepConfig
from .physics import PhysicalParams, params_fields
from .stationary import StationarySolveConfig

log = logging.getLogger(__name__)

MODE_TRANSIENT = "transient"
MODE_STATIONARY = "stationary"
MODE_STABILITY = "stability"
MODE_SWEEP = "sweep"
RUN_MODES = (MODE_TRANSIENT, MODE_STATIONARY, MODE_STABILITY, MODE_SWEEP)

SWEEP_AXES = ("none", "ecc", "omega")

_PHYSICS_KEYS = params_fields()

#: key -> (converter, default-documentation); all defaults live in the
#: dataclass definitions below / in PhysicalParams.
_INT_KEYS = ("n1", "n2", "picard_max", "n_steps", "snapshot_every",
             "newton_max", "continuation_steps", "k_max", "workers")
_FLOAT_KEYS = _PHYSICS_KEYS + ("dt", "picard_tol", "stationarity_tol",
                               "newton_tol", "stability_margin")
_STR_KEYS = ("mode", "step_mode", "bc_x1", "sweep_axis", "sweep_solver",
             "output_dir")
_LIST_KEYS = ("sweep_values",)

KNOWN_KEYS = frozenset(_INT_KEYS) | frozenset(_FLOAT_KEYS) \
    | frozenset(_STR_KEYS) | frozenset(_LIST_KEYS)


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description."""

    params: PhysicalParams = PhysicalParams()
    n1: int = 128
    n2: int = 32
    bc_x1: str = BC_PERIODIC
    mode: str = MODE_TRANSIENT
    step: StepConfig = StepConfig()
    n_steps: int = 20000
    stationarity_tol: float = 1e-8
    snapshot_every: int = 0
    output_dir: str = "out"
    newton: StationarySolveConfig = StationarySolveConfig(continuation_steps=8)
    sweep_axis: str = "none"
    sweep_values: tuple[float, ...] = ()
    sweep_solver: str = MODE_TRANSIENT
    stability_margin: float = 1e-8
    k_max: int = 8
    workers: int = 1

    def __post_init__(self):
        if self.mode not in RUN_MODES:
            raise ConfigurationError(
                f"mode must be one of {', '.join(RUN_MODES)}, got {self.mode!r}")
        if self.n1 < 4 or self.n2 < 4:
            raise ConfigurationError("n1 and n2 must be at least 4")
        if self.bc_x1 not in (BC_PERIODIC, BC_DIRICHLET):
            raise ConfigurationError(f"bc_x1 must be '{BC_PERIODIC}' or "
                                     f"'{BC_DIRICHLET}', got {self.bc_x1!r}")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be at least 1")
        if not self.stationarity_tol > 0.0:
            raise ConfigurationError("stationarity_tol must be positive")
        if self.snapshot_every < 0:
            raise ConfigurationError("snapshot_every must be >= 0")
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigurationError(
                f"sweep_axis must be one of {', '.join(SWEEP_AXES)}, "
                f"got {self.sweep_axis!r}")
        if self.sweep_solver not in (MODE_TRANSIENT, MODE_STATIONARY):
            raise ConfigurationError("sweep_solver must be 'transient' or "
                                     f"'stationary', got {self.sweep_solver!r}")
        if not self.stability_margin > 0.0:
            raise ConfigurationError("stability_margin must be positive")
        if self.k_max < 1:
            raise ConfigurationError("k_max must be at least 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if self.mode == MODE_SWEEP:
            if self.sweep_axis == "none":
                raise ConfigurationError(
                    "sweep mode needs sweep_axis = ecc or omega")
            if not self.sweep_values:
                raise ConfigurationError(
                    "sweep mode needs a nonempty sweep_values list")
        for v in self.sweep_values:
            if self.sweep_axis == "ecc" and not 0.0 <= v < 1.0:
                raise ConfigurationError(
                    f"sweep_values entry {v!r} outside the eccentricity "
                    "range [0, 1)")
            if self.sweep_axis == "omega" and v < 0.0:
                raise ConfigurationError(
                    f"sweep_values entry {v!r} is a negative rotation speed")

    def make_grid(self) -> Grid:
        return grid_for_params(self.params, self.n1, self.n2, self.bc_x1)

    @property
    def velocity(self) -> tuple[float, float]:
        """Entrainment velocity of the journal surface, ``(omega J_r, 0)``."""
        return (self.params.omega * self.params.J_r, 0.0)


def _parse_value(key: str, raw: str):
    try:
        if key in _LIST_KEYS:
            items = [s.strip() for s in raw.split(",") if s.strip()]
            return tuple(float(s) for s in items)
        if key in _INT_KEYS:
            return int(raw)
        if key in _STR_KEYS:
            return raw
        return float(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"invalid value for key '{key}': {raw!r}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate flat ``key = value`` configuration text.

    Unknown and repeated keys are rejected by name; duplicate sweep values
    are dropped (order-preserving) with a logged warning.
    """
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in KNOWN_KEYS:
            raise ConfigurationError(f"unknown configuration key '{key}'")
        if key in values:
            raise ConfigurationError(f"repeated configuration key '{key}'")
        values[key] = _parse_value(key, raw)

    if "sweep_values" in values:
        vals = values["sweep_values"]
        deduped = tuple(dict.fromkeys(vals))
        if len(deduped) != len(vals):
            log.warning("dropping %d duplicate sweep value(s)",
                        len(vals) - len(deduped))
        values["sweep_values"] = deduped

    params = PhysicalParams(**{k: values.pop(k) for k in _PHYSICS_KEYS
                               if k in values})
    step_kwargs = {}
    for cfg_key, field_name in (("dt", "dt"), ("picard_tol", "picard_tol"),
                                ("picard_max", "picard_max"),
                                ("step_mode", "mode")):
        if cfg_key in values:
            step_kwargs[field_name] = values.pop(cfg_key)
    step = StepConfig(**step_kwargs)
    newton_kwargs = {k: values.pop(k) for k in
                     ("newton_tol", "newton_max", "continuation_steps")
                     if k in values}
    newton_defaults = {"continuation_steps": 8}
    newton = StationarySolveConfig(**{**newton_defaults, **newton_kwargs})
    return RunConfig(params=params, step=step, newton=newton, **values)


def render_config(config: RunConfig) -> str:
    """Render a configuration as parseable text (exact round trip)."""
    p = config.params
    lines = ["# physical parameters"]
    for name in _PHYSICS_KEYS:
        lines.append(f"{name} = {getattr(p, name)!r}")
    lines += [
        "",
        "# grid",
        f"n1 = {config.n1}",
        f"n2 = {config.n2}",
        f"bc_x1 = {config.bc_x1}",
        "",
        "# run",
        f"mode = {config.mode}",
        f"n_steps = {config.n_steps}",
        f"stationarity_tol = {config.stationarity_tol!r}",
        f"snapshot_every = {config.snapshot_every}",
        f"output_dir = {config.output_dir}",
        f"workers = {config.workers}",
        "",
        "# time stepping",
        f"dt = {config.step.dt!r}",
        f"picard_tol = {config.step.picard_tol!r}",
        f"picard_max = {config.step.picard_max}",
        f"step_mode = {config.step.mode}",
        "",
        "# stationary solver",
        f"newton_tol = {config.newton.newton_tol!r}",
        f"newton_max = {config.newton.newton_max}",
        f"continuation_steps = {config.newton.continuation_steps}",
        "",
        "# stability",
        f"stability_margin = {config.stability_margin!r}",
        f"k_max = {config.k_max}",
        "",
        "# sweep",
        f"sweep_axis = {config.sweep_axis}",
        f"sweep_solver = {config.sweep_solver}",
    ]
    if config.sweep_values:
        rendered = ",".join(repr(v) for v in config.sweep_values)
        lines.append(f"sweep_values = {rendered}")
    return "\n".join(lines) + "\n"


def config_for_sweep_value(config: RunConfig, value: float) -> RunConfig:
    """The per-point configuration of a sweep: the axis value substituted,
    mode switched to the point solver."""
    if config.sweep_axis == "ecc":
        params = replace(config.params, ecc=value)
    elif config.sweep_axis == "omega":
        params = replace(config.params, omega=value)
    else:
        raise ConfigurationError("sweep axis is 'none'")
    return replace(config, params=params, mode=config.sweep_solver,
                   sweep_axis="none", sweep_values=())
