"""Exception types shared across the package.

The command-line driver maps these onto exit codes: configuration problems
(bad keys, out-of-range parameters) exit with 2, runtime failures
(non-convergence, solver breakdown, loss of positivity) exit with 3.
"""

from __future__ import annotations


class ConfigurationError(ValueError):
    """A parameter, grid or run setting violates its documented contract."""


class NonPositiveRadiusError(ValueError):
    """A bubble-radius value was zero or negative where a positive one is required."""


class SolverFailureError(RuntimeError):
    """A linear or nonlinear solve failed: a singular factorization, or a
    residual above its tolerance."""


class StepFailureError(RuntimeError):
    """A time step could not be completed (fixed-point iteration exhausted)."""


class PositivityLossError(StepFailureError):
    """The radius field left the positive cone, or turned non-finite, even
    after step-size halving; the message says which.

    This is the numerical blow-up signal: the discrete dynamics are driving
    some bubble radius through zero faster than the step guard can follow.
    """


class SupercriticalRadiusError(RuntimeError):
    """An iterate reached the critical radius where the quasi-static bubble
    response stops being monotone; the solver's working regime ends there."""
