"""Desk-scale simulator and stability analyzer for thin-film lubrication
coupled to a dispersed micro-bubble field.

The film pressure obeys a compressible Reynolds equation whose mixture
density and viscosity depend on the local bubble radius; the radius field
evolves by spherical-bubble dynamics driven by that same pressure.  The
package provides the coupled transient integrator, a direct stationary
solver, certified linearized-operator spectra, a modal sliding-speed
instability analysis, and a CLI for runs, sweeps, and reports.
"""

from .errors import (ConfigurationError, NonPositiveRadiusError,
                     PositivityLossError, SolverFailureError,
                     StepFailureError, SupercriticalRadiusError)
from .physics import (DerivedConstants, PhysicalParams, compute_derived,
                      eval_alpha, eval_f1, eval_f2, eval_f3, eval_f4,
                      eval_f5)
from .grid import (Grid, ensure_field, export_fields_csv, gap_function,
                   grid_for_params)
from .dynamics import (StepConfig, TransientResult, TransientState,
                       TransientWatch, eliminate_pressure, initial_state,
                       run_transient, step_inertial, step_inertialess)
from .stationary import (StationaryReport, StationarySolveConfig,
                         solve_stationary, stationary_residual,
                         trivial_solution)
from .stability import (HurwitzReport, SpectrumReport, assemble_LF,
                        compute_spectrum, hurwitz_analysis, pencil_spectrum,
                        sigma_constants)
from .config import RunConfig, parse_config, render_config

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "NonPositiveRadiusError", "PositivityLossError",
    "SolverFailureError", "StepFailureError", "SupercriticalRadiusError",
    "DerivedConstants", "PhysicalParams", "compute_derived", "eval_alpha",
    "eval_f1", "eval_f2", "eval_f3", "eval_f4", "eval_f5",
    "Grid", "ensure_field", "export_fields_csv", "gap_function",
    "grid_for_params",
    "StepConfig", "TransientResult", "TransientState", "TransientWatch",
    "eliminate_pressure", "initial_state", "run_transient",
    "step_inertial", "step_inertialess",
    "StationaryReport", "StationarySolveConfig", "solve_stationary",
    "stationary_residual", "trivial_solution",
    "HurwitzReport", "SpectrumReport", "assemble_LF", "compute_spectrum",
    "hurwitz_analysis", "pencil_spectrum", "sigma_constants",
    "RunConfig", "parse_config", "render_config",
    "__version__",
]
