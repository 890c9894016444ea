"""Flat key-value run configuration: parsing, validation, rendering.

The file format is one ``key = value`` assignment per line, with ``#``
comments and blank lines ignored.  The keys come from one table built from
the dataclass fields of :class:`RunConfig` and of its three settings
objects (``params``, ``step``, ``newton``): each field is one key named
after it (``step.mode`` is ``step_mode``), its default is the dataclass
default, and its value is parsed by the type of that default.  Unknown or
repeated keys and non-finite floats are rejected by name, and
``parse_config(render_config(c))`` reproduces ``c`` exactly (floats are
rendered with full round-trip precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace

from .errors import ConfigurationError
from .grid import BC_PERIODIC, Grid, grid_for_params
from .dynamics import StepConfig
from .physics import PhysicalParams
from .stationary import StationarySolveConfig

MODE_TRANSIENT = "transient"
MODE_STATIONARY = "stationary"
MODE_STABILITY = "stability"
MODE_SWEEP = "sweep"

SWEEP_AXES = ("none", "ecc", "omega")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description."""

    params: PhysicalParams = PhysicalParams()
    n1: int = 128
    n2: int = 32
    bc_x1: str = BC_PERIODIC
    step: StepConfig = StepConfig()
    n_steps: int = 20000
    stationarity_tol: float = 1e-8
    snapshot_every: int = 0
    output_dir: str = "out"
    newton: StationarySolveConfig = StationarySolveConfig()
    sweep_axis: str = "none"
    sweep_values: tuple[float, ...] = ()
    sweep_solver: str = MODE_TRANSIENT
    workers: int = 1

    def __post_init__(self):
        self.make_grid()                 # checks n1, n2 and bc_x1
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be at least 1")
        if not 0.0 < self.stationarity_tol < math.inf:
            raise ConfigurationError("stationarity_tol must be finite and "
                                     "positive")
        if self.snapshot_every < 0:
            raise ConfigurationError("snapshot_every must be >= 0")
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigurationError(
                f"sweep_axis must be one of {', '.join(SWEEP_AXES)}, "
                f"got {self.sweep_axis!r}")
        if self.sweep_solver not in (MODE_TRANSIENT, MODE_STATIONARY):
            raise ConfigurationError("sweep_solver must be 'transient' or "
                                     f"'stationary', got {self.sweep_solver!r}")
        if self.workers < 1:
            raise ConfigurationError("workers must be at least 1")
        for v in self.sweep_values if self.sweep_axis != "none" else ():
            try:                         # the point's parameters check v
                replace(self.params, **{self.sweep_axis: v})
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"sweep_values entry {v!r}: {exc}") from None

    def make_grid(self) -> Grid:
        return grid_for_params(self.params, self.n1, self.n2, self.bc_x1)

    @property
    def velocity(self) -> tuple[float, float]:
        """Entrainment velocity of the journal surface, ``(omega J_r, 0)``."""
        return (self.params.surface_speed, 0.0)


#: settings fields whose key is not their field name
_RENAMED = {("step", "mode"): "step_mode"}
#: section -> the comment line that heads it in rendered text
_SECTION_TITLES = {"params": "physical parameters", None: "run",
                   "step": "time stepping", "newton": "stationary solver"}


def _key_table() -> dict[str, tuple[str | None, str, object]]:
    """key -> (section, field, default) over every field of ``RunConfig``
    and of its settings objects; section ``None`` is ``RunConfig`` itself."""
    defaults = RunConfig()
    table = {}
    for f in fields(RunConfig):
        default = getattr(defaults, f.name)
        if not is_dataclass(default):
            table[f.name] = (None, f.name, default)
            continue
        for sub in fields(default):
            key = _RENAMED.get((f.name, sub.name), sub.name)
            table[key] = (f.name, sub.name, getattr(default, sub.name))
    return table


_KEYS = _key_table()
KNOWN_KEYS = frozenset(_KEYS)


def _parse_value(key: str, raw: str):
    """Parse by the type of the key's default: int, float, str, or a
    comma-separated tuple of floats.  Every float must be finite."""
    default = _KEYS[key][2]
    try:
        values = ([float(s) for s in raw.split(",") if s.strip()]
                  if isinstance(default, tuple) else [type(default)(raw)])
    except ValueError as exc:
        raise ConfigurationError(
            f"invalid value for key '{key}': {raw!r}") from exc
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        raise ConfigurationError(f"key '{key}' needs finite values, got {raw!r}")
    return tuple(values) if isinstance(default, tuple) else values[0]


def parse_config(text: str) -> RunConfig:
    """Parse and validate flat ``key = value`` configuration text.

    Unknown and repeated keys are rejected by name.
    """
    given: dict[str | None, dict[str, object]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigurationError(f"unknown configuration key '{key}'")
        section, name, _ = _KEYS[key]
        if name in given.setdefault(section, {}):
            raise ConfigurationError(f"repeated configuration key '{key}'")
        given[section][name] = _parse_value(key, raw.strip())

    run = given.pop(None, {})
    defaults = RunConfig()
    return replace(defaults, **run, **{
        section: replace(getattr(defaults, section), **kwargs)
        for section, kwargs in given.items()})


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def render_config(config: RunConfig) -> str:
    """Render a configuration as parseable text (exact round trip)."""
    lines = []
    for section, title in _SECTION_TITLES.items():
        lines += ["", f"# {title}"]
        owner = config if section is None else getattr(config, section)
        for key, (key_section, name, _) in _KEYS.items():
            if key_section == section and getattr(owner, name) != ():
                lines.append(f"{key} = {_render_value(getattr(owner, name))}")
    return "\n".join(lines[1:]) + "\n"


def config_for_sweep_value(config: RunConfig, value: float) -> RunConfig:
    """The per-point configuration of a sweep: the axis value substituted
    and the sweep settings cleared."""
    if config.sweep_axis == "none":
        raise ConfigurationError("sweep axis is 'none'")
    return replace(config, sweep_axis="none", sweep_values=(),
                   params=replace(config.params, **{config.sweep_axis: value}))
