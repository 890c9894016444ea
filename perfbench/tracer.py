"""Span recorder for a traced filmcav CLI run, and the per-layer metrics
computed from its spans.

The tracer works from outside the program: ``install`` replaces every public
function of the ``filmcav`` modules, under every name a caller looks it up
by, with a wrapper that records a span (name, start, end, parent).  Because
the modules import each other's functions by name (``from .elliptic import
solve_spd``), a function is rebound in every module namespace that holds it,
not only in the module that defines it; otherwise those calls would be
missed.  ``scipy.sparse.linalg.splu`` is wrapped once and its spans are
charged to the layer of their parent span.

Spans stay in memory and are written once, when the run ends.  A few counts
are read at the boundary where the program reports them: ``StepStats`` from
``step_inertialess``, ``StationaryReport`` from ``solve_stationary`` and the
size of each file the CLI and the grid exporter write.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import Counter

#: filmcav modules whose public functions are layers
LAYERS = ("physics", "grid", "elliptic", "dynamics", "stationary",
          "stability", "config", "cli")

SPLU = "scipy.splu"

#: private functions that are still layer boundaries: every artifact the
#: CLI writes outside the grid and spectrum exporters goes through it
PRIVATE_BOUNDARIES = {"cli": ("_write_text",)}


def _file_bytes(counter):
    def after(counts, args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[0]
        counts[counter] += os.path.getsize(path)
    return after


def _step_stats(counts, args, kwargs, result):
    stats = result[1]
    counts["dynamics.steps"] += 1
    counts["dynamics.picard_iterations"] += stats.iterations
    counts["dynamics.halvings"] += stats.halvings


def _stationary_report(counts, args, kwargs, result):
    report = result[2]
    counts["stationary.newton_iterations"] += sum(report.newton_iterations)
    counts["stationary.continuation_stages"] += len(report.stage_fractions)


#: span name -> hook reading the program's own report from the return value
AFTER = {
    "dynamics.step_inertialess": _step_stats,
    "stationary.solve_stationary": _stationary_report,
    "grid.export_fields_csv": _file_bytes("grid.bytes_written"),
    "cli._write_text": _file_bytes("cli.bytes_written"),
}


class Tracer:
    """In-memory spans ``[name, start, end, parent_index]`` and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(counts, args, kwargs, result)
            return result
        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every filmcav layer and ``splu``."""
    import scipy.sparse.linalg as spla
    import filmcav.cli  # imports every layer

    modules = [sys.modules[f"filmcav.{layer}"] for layer in LAYERS]
    wrapped: dict[int, object] = {}
    for layer, module in zip(LAYERS, modules):
        for name, obj in vars(module).items():
            public = not name.startswith("_") \
                or name in PRIVATE_BOUNDARIES.get(layer, ())
            if (public and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                span = f"{layer}.{name}"
                wrapped[id(obj)] = tracer.wrap(span, obj, AFTER.get(span))
    for module in modules + [sys.modules["filmcav"]]:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, name, wrapped[id(obj)])
    dispatch = filmcav.cli._DISPATCH
    for command, fn in dispatch.items():
        dispatch[command] = wrapped[id(fn)]
    spla.splu = tracer.wrap(SPLU, spla.splu)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced process
# ---------------------------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTable:
    """Durations, self times and parent layers of one run's spans."""

    def __init__(self, spans: list[list]):
        self.names = [s[0] for s in spans]
        self.parents = [s[3] for s in spans]
        self.durations = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for dur, parent in zip(self.durations, self.parents):
            if parent >= 0:
                child_time[parent] += dur
        self.self_times = [d - c for d, c in zip(self.durations, child_time)]
        # a splu span belongs to the layer of the span that called it
        self.layers = [
            _layer(self.names[p]) if n == SPLU and p >= 0 else _layer(n)
            for n, p in zip(self.names, self.parents)]

    def select(self, names=None, layer=None, prefix=None) -> list[int]:
        return [i for i, n in enumerate(self.names)
                if (names is None or n in names)
                and (layer is None or self.layers[i] == layer)
                and (prefix is None or n.startswith(prefix))]

    def calls(self, idx: list[int]) -> int:
        """Entries into the group: spans whose parent is outside it."""
        group = set(idx)
        return sum(1 for i in idx if self.parents[i] not in group)

    def total_s(self, idx: list[int]) -> float:
        group = set(idx)
        return sum(self.durations[i] for i in idx
                   if self.parents[i] not in group)

    def self_s(self, idx: list[int]) -> float:
        return sum(self.self_times[i] for i in idx)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process, by benchmark name."""
    t = SpanTable(spans)
    c = Counter(counts)
    m: dict[str, float] = {}

    def group(key, idx, stats):
        for stat in stats:
            if stat == "calls":
                m[f"{key}.calls"] = t.calls(idx)
            elif stat == "s":
                m[f"{key}.s"] = t.total_s(idx)
            else:
                m[f"{key}.self_s"] = t.self_s(idx)

    group("elliptic.factorize", t.select({SPLU}, layer="elliptic"),
          ("calls", "s"))
    group("elliptic.solve_spd", t.select({"elliptic.solve_spd"}),
          ("calls", "self_s"))
    m["elliptic.factorizations_per_solve"] = _ratio(
        m["elliptic.factorize.calls"], m["elliptic.solve_spd.calls"])
    group("elliptic.assemble_operator",
          t.select({"elliptic.assemble_operator",
                    "elliptic.assemble_diffusion"}), ("calls", "self_s"))
    group("elliptic.convective",
          t.select({"elliptic.convective_divergence",
                    "elliptic.convective_divergence_matrix",
                    "elliptic.assemble_couette_rhs"}), ("calls", "self_s"))
    group("elliptic.diffusion_sensitivity",
          t.select({"elliptic.diffusion_sensitivity"}), ("calls", "self_s"))

    for key in ("steps", "picard_iterations", "halvings"):
        m[f"dynamics.{key}"] = c[f"dynamics.{key}"]
    group("dynamics.eliminate_pressure",
          t.select({"dynamics.eliminate_pressure"}), ("calls", "self_s"))
    m["dynamics.eliminations_per_step"] = _ratio(
        m["dynamics.eliminate_pressure.calls"], m["dynamics.steps"])
    group("dynamics.step", t.select({"dynamics.step_inertialess",
                                     "dynamics.step_inertial"}), ("self_s",))

    m["stationary.newton_iterations"] = c["stationary.newton_iterations"]
    group("stationary.residual", t.select({"stationary.stationary_residual"}),
          ("calls", "self_s"))
    group("stationary.jacobian", t.select({"stationary.stationary_jacobian"}),
          ("calls", "self_s"))
    group("stationary.factorize", t.select({SPLU}, layer="stationary"),
          ("calls", "s"))
    m["stationary.residuals_per_iteration"] = _ratio(
        m["stationary.residual.calls"], m["stationary.newton_iterations"])
    m["stationary.continuation_stages"] = c["stationary.continuation_stages"]

    group("stability.spectrum", t.select({"stability.compute_spectrum"}),
          ("s",))
    group("stability.assemble_LG", t.select({"stability.assemble_LG"}),
          ("self_s",))
    group("stability.factorize", t.select({SPLU}, layer="stability"), ("s",))
    group("stability.export_spectrum_csv",
          t.select({"stability.export_spectrum_csv"}), ("s",))
    group("stability.hurwitz",
          t.select({"stability.critical_speed", "stability.hurwitz_analysis",
                    "stability.hurwitz_matrix",
                    "stability.hurwitz_report_text"}), ("s",))

    group("physics.eval", t.select(prefix="physics.eval_"),
          ("calls", "self_s"))
    group("physics.compute_derived", t.select({"physics.compute_derived"}),
          ("s",))
    group("grid.export_fields_csv",
          t.select({"grid.export_fields_csv", "grid.render_fields_csv"}),
          ("calls", "self_s"))
    m["grid.bytes_written"] = c["grid.bytes_written"]
    group("config.parse_config", t.select({"config.parse_config"}), ("s",))
    group("cli", t.select(layer="cli"), ("self_s",))
    m["cli.bytes_written"] = c["cli.bytes_written"]
    return m


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced processes, metric by metric; counts stay whole."""
    out = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        whole = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if whole
                    else statistics.median)(values)
    return out
