"""Bubble-mixture closures and derived constants.

The model couples a compressible thin-film (Reynolds) equation for the
density-scaled film pressure ``p`` (units m²/s², i.e. gauge pressure divided
by the liquid density) with quasi-static or inertial dynamics of a dispersed
field of micro-bubbles of common local radius ``R(x, t)``.  All material
behaviour enters through five scalar closures of ``R``:

``f1(R)``
    density-scaled net pressure at the bubble wall when the film is at gauge
    pressure zero: polytropic gas core minus ambient offset minus capillary
    pressure.  Its root ``R_bar`` is the equilibrium radius; its minimiser
    ``R_crit`` bounds the monotone-response regime, and ``p_cav = f1(R_crit)``
    is the lowest film pressure the bubble field can balance.
``f2(R)``
    wall-damping coefficient (shear plus interface dilatational viscosity).
``f3(R)``
    pressure mobility of the mixture, ``rho_mix / (12 mu_eff)``.
``f4(R)``
    density-scaled transport coefficient of the entrained (Couette) flux.
``f5(R)``
    squeeze coupling, ``d f4 / dR``; non-positive while bubbles dilute the
    mixture, so radius growth acts as a volume source on the film.

The gas fraction follows a fixed-count dispersion law
``alpha(R) = alpha0 (R/R0)^3 / (1 + alpha0 (R/R0)^3)``.

Every valid :class:`PhysicalParams` meets the five standing hypotheses on
``(0, R_crit)``: ``f2, f3, f4 > 0`` by their form, ``f1' < 0`` by the
definition of ``R_crit``, and ``f5 <= 0`` because ``rho_g <= rho_l``.

Every ``eval_*`` function accepts scalars or numpy arrays and raises
:class:`~filmcav.errors.NonPositiveRadiusError` for non-positive radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NonPositiveRadiusError

# 1 atm in Pa; parameter files always carry pressures in Pa.
P_ATM = 101325.0

# Default reference pressure: the gas pressure of a bubble of radius R0 in
# mechanical equilibrium with an ambient at 1 atm (Laplace balance), so that
# the reference radius is also the equilibrium radius of the default setup.
_P0_EQUILIBRIUM = P_ATM + 2.0 * 3.5e-2 / 3.85e-7


@dataclass(frozen=True)
class PhysicalParams:
    """Material, geometric and operating parameters.

    Defaults describe an oil-lubricated journal bearing with a dilute
    air micro-bubble dispersion.  Pressures are in Pa (1 atm = 101325),
    lengths in m, viscosities in Pa·s (``kappa_s`` in Pa·s·m).

    ``rho_g <= rho_l`` keeps the squeeze coupling ``f5`` non-positive, as
    the SPD pressure elimination and the squeeze-feedback sign both need.

    Attributes
    ----------
    rho_l, mu_l : float
        Liquid density (kg/m³) and viscosity.
    rho_g, mu_g : float
        Gas density (kg/m³) and viscosity.
    kappa_s : float
        Surface dilatational viscosity of the bubble interface (Pa·s·m).
    k_poly : float
        Polytropic exponent of the gas core; 1 (isothermal) or 1.4 (adiabatic).
    sigma : float
        Surface tension (N/m).
    P0 : float
        Gas pressure inside a bubble of radius ``R0`` (Pa).  The default is
        ``p_bnd + 2 sigma / R0`` so the reference radius is the equilibrium
        radius at the default ambient pressure.
    p_bnd : float
        Ambient (boundary) pressure (Pa); film pressures are gauge relative
        to it.
    R0 : float
        Reference bubble radius (m).
    alpha0 : float
        Gas fraction at ``R = R0``; ``alpha0 = 0`` describes a bubble field
        that is dynamically passive for the film (no squeeze coupling).
    J_r, B : float
        Journal radius and width (m); the film domain is
        ``[0, 2 pi J_r] x [0, B]``.
    h0 : float
        Radial clearance (m).
    ecc : float
        Eccentricity ratio in [0, 1): gap ``h = h0 (1 - ecc cos(x1/J_r))``.
    omega : float
        Rotation speed (rad/s); the entrainment speed is ``U = omega J_r``.
    """

    rho_l: float = 854.0
    mu_l: float = 7.1e-3
    rho_g: float = 1.0
    mu_g: float = 1.81e-5
    kappa_s: float = 7.85e-5
    k_poly: float = 1.4
    sigma: float = 3.5e-2
    P0: float = _P0_EQUILIBRIUM
    p_bnd: float = P_ATM
    R0: float = 3.85e-7
    alpha0: float = 0.1
    J_r: float = 25.4e-3
    B: float = 25.4e-3
    h0: float = 2.54e-5
    ecc: float = 0.4
    omega: float = 2.0 * np.pi * 1000.0 / 60.0

    def __post_init__(self):
        positive = ("rho_l", "mu_l", "rho_g", "mu_g", "k_poly", "sigma",
                    "P0", "p_bnd", "R0", "J_r", "B", "h0")
        for name in positive:
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigurationError(f"parameter '{name}' must be finite and "
                                         f"positive, got {getattr(self, name)!r}")
        for name in ("kappa_s", "omega"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigurationError(f"parameter '{name}' must be finite and "
                                         f"non-negative, got {getattr(self, name)!r}")
        if self.rho_g > self.rho_l:
            raise ConfigurationError(f"parameter 'rho_g' = {self.rho_g!r} exceeds "
                                     f"rho_l = {self.rho_l!r}, breaking f5 <= 0")
        if not 0.0 <= self.alpha0 < 1.0:
            raise ConfigurationError(f"alpha0 must lie in [0, 1), got {self.alpha0!r}")
        if not 0.0 <= self.ecc < 1.0:
            raise ConfigurationError(f"ecc must lie in [0, 1), got {self.ecc!r}")
        if self.k_poly not in (1.0, 1.4):
            raise ConfigurationError("k_poly must be 1 (isothermal) or 1.4 "
                                     f"(adiabatic), got {self.k_poly!r}")

    @property
    def surface_speed(self) -> float:
        """Entrainment speed omega * J_r (m/s)."""
        return self.omega * self.J_r


def _as_positive_radius(R):
    r = np.asarray(R, dtype=float)
    if np.any(r <= 0.0) or not np.all(np.isfinite(r)):
        raise NonPositiveRadiusError("bubble radius must be positive and finite")
    return r


def _match(R, values):
    # return a scalar when the input was a scalar
    return float(values) if np.isscalar(R) or np.ndim(R) == 0 else values


def eval_alpha(R, params: PhysicalParams):
    """Gas fraction of the mixture at radius ``R``."""
    r = _as_positive_radius(R)
    a = params.alpha0 * (r / params.R0) ** 3
    return _match(R, a / (1.0 + a))


def eval_alpha_prime(R, params: PhysicalParams):
    """d alpha / dR."""
    r = _as_positive_radius(R)
    a = params.alpha0 * (r / params.R0) ** 3
    da = 3.0 * params.alpha0 * r ** 2 / params.R0 ** 3
    return _match(R, da / (1.0 + a) ** 2)


def _alpha_second(R, params: PhysicalParams):
    r = _as_positive_radius(R)
    a = params.alpha0 * (r / params.R0) ** 3
    da = 3.0 * params.alpha0 * r ** 2 / params.R0 ** 3
    dda = 6.0 * params.alpha0 * r / params.R0 ** 3
    return _match(R, dda / (1.0 + a) ** 2 - 2.0 * da ** 2 / (1.0 + a) ** 3)


def eval_f1(R, params: PhysicalParams):
    """Density-scaled bubble-wall pressure balance (m²/s²).

    ``f1(R) = (P0 (R0/R)^{3k} - p_bnd - 2 sigma / R) / rho_l``.  A bubble at
    radius ``R`` is in quasi-static equilibrium with film pressure
    ``p = f1(R)``; ``f1 - p > 0`` drives growth.
    """
    r = _as_positive_radius(R)
    gas = params.P0 * (params.R0 / r) ** (3.0 * params.k_poly)
    return _match(R, (gas - params.p_bnd - 2.0 * params.sigma / r) / params.rho_l)


def eval_f1_prime(R, params: PhysicalParams):
    """d f1 / dR."""
    r = _as_positive_radius(R)
    n = 3.0 * params.k_poly
    gas = -n * params.P0 * params.R0 ** n / r ** (n + 1.0)
    return _match(R, (gas + 2.0 * params.sigma / r ** 2) / params.rho_l)


def eval_f2(R, params: PhysicalParams):
    """Wall-damping coefficient 4 (mu_l + kappa_s / R) / (rho_l R²), units 1/s."""
    r = _as_positive_radius(R)
    return _match(R, 4.0 * (params.mu_l + params.kappa_s / r) / (params.rho_l * r ** 2))


def eval_f2_prime(R, params: PhysicalParams):
    """d f2 / dR."""
    r = _as_positive_radius(R)
    return _match(R, -4.0 * (2.0 * params.mu_l / r ** 3
                             + 3.0 * params.kappa_s / r ** 4) / params.rho_l)


def eval_f3(R, params: PhysicalParams):
    """Pressure mobility of the mixture: rho_mix / (12 mu_eff), units s/m².

    This is the diffusion coefficient of the film equation written in the
    density-scaled pressure (m²/s²): dividing the compressible-film flux
    ``rho_mix h³ / (12 mu_eff) · grad(p_phys)`` by ``rho_l`` and substituting
    ``p_phys = rho_l p`` cancels the two liquid-density factors, leaving the
    *absolute* mixture density in the numerator.
    """
    r = _as_positive_radius(R)
    al = eval_alpha(r, params)
    num = (1.0 - al) * params.rho_l + al * params.rho_g
    den = 12.0 * ((1.0 - al) * params.mu_l + al * params.mu_g)
    return _match(R, num / den)


def eval_f3_prime(R, params: PhysicalParams):
    """d f3 / dR (chain rule through the gas fraction)."""
    r = _as_positive_radius(R)
    al = eval_alpha(r, params)
    dal = eval_alpha_prime(r, params)
    num = (1.0 - al) * params.rho_l + al * params.rho_g
    dnum = params.rho_g - params.rho_l
    den = 12.0 * ((1.0 - al) * params.mu_l + al * params.mu_g)
    dden = 12.0 * (params.mu_g - params.mu_l)
    return _match(R, dal * (dnum * den - num * dden) / den ** 2)


def eval_f4(R, params: PhysicalParams):
    """Entrained-flux coefficient ½ [1 + alpha (rho_g/rho_l - 1)]."""
    r = _as_positive_radius(R)
    al = eval_alpha(r, params)
    return _match(R, 0.5 * (1.0 + al * (params.rho_g / params.rho_l - 1.0)))


def eval_f4_prime(R, params: PhysicalParams):
    """d f4 / dR; identical to the squeeze coupling f5 for this closure."""
    r = _as_positive_radius(R)
    return _match(R, 0.5 * (params.rho_g / params.rho_l - 1.0)
                  * eval_alpha_prime(r, params))


def eval_f5(R, params: PhysicalParams):
    """Squeeze coupling ½ (rho_g/rho_l - 1) alpha'(R); non-positive, since
    valid parameters have ``rho_g <= rho_l``."""
    return eval_f4_prime(R, params)


def eval_f5_prime(R, params: PhysicalParams):
    """d f5 / dR."""
    r = _as_positive_radius(R)
    return _match(R, 0.5 * (params.rho_g / params.rho_l - 1.0)
                  * _alpha_second(r, params))


# ---------------------------------------------------------------------------
# Derived constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivedConstants:
    """Reference state and linearization constants.

    ``R_bar`` is the equilibrium radius (root of f1), ``R_crit`` the
    minimiser of f1 bounding the monotone regime, ``p_cav = f1(R_crit)``
    the lowest balanceable film pressure.  The ``b*`` constants are the
    linearization coefficients about the uniform state

        b1 = -f1'(R_bar)/R_bar   b2 = f2(R_bar)    b3 = f3(R_bar)
        b5 = -f5(R_bar) = -f4'(R_bar)              b_r = 1/R_bar
    """

    R_bar: float
    R_crit: float
    p_cav: float
    b1: float
    b2: float
    b3: float
    b5: float
    b_r: float


def _bisect(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Plain bisection to a bracket of relative width 1e-12."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ConfigurationError("no sign change of the target function in the "
                                 f"search bracket [{lo:g}, {hi:g}]")
    while hi - lo > 1e-12 * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


@lru_cache(maxsize=32)
def compute_derived(params: PhysicalParams) -> DerivedConstants:
    """Locate the reference state by bisection and build the constant set.

    The constants depend on ``params`` alone, so the 32 most recently used
    parameter sets are cached and every caller shares the frozen result.

    ``R_crit`` is found first from the sign change of f1' (the derivative is
    negative for small radii — gas compression dominates — and positive for
    large ones where capillarity decays slower); ``R_bar`` then comes from
    the sign change of f1 on ``[1e-3 R0, R_crit]``.  Raises
    :class:`ConfigurationError` when a bracket carries no sign change.
    """
    f1p = lambda r: eval_f1_prime(r, params)

    lo = 1e-3 * params.R0
    if f1p(lo) >= 0.0:
        raise ConfigurationError("f1 is not decreasing at small radii; "
                                 "parameter set is outside the model's regime")
    hi = params.R0
    for _ in range(200):
        if f1p(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise ConfigurationError("no sign change of f1' found: the pressure "
                                 "response has no critical radius")
    R_crit = _bisect(f1p, lo, hi)

    R_bar = _bisect(lambda r: eval_f1(r, params), 1e-3 * params.R0, R_crit)

    return DerivedConstants(
        R_bar=R_bar,
        R_crit=R_crit,
        p_cav=eval_f1(R_crit, params),
        b1=-eval_f1_prime(R_bar, params) / R_bar,
        b2=eval_f2(R_bar, params),
        b3=eval_f3(R_bar, params),
        b5=-eval_f5(R_bar, params),
        b_r=1.0 / R_bar,
    )
