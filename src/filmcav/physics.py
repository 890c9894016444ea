"""Bubble-mixture closures and derived constants.

The model couples a compressible thin-film (Reynolds) equation for the
density-scaled film pressure ``p`` (units m²/s², i.e. gauge pressure divided
by the liquid density) with quasi-static or inertial dynamics of a dispersed
field of micro-bubbles of common local radius ``R(x, t)``.  All material
behaviour enters through five scalar closures of ``R`` in two laws.  The
wall law ``R R'' + 3/2 R'^2 = f1(R) - p - R f2(R) R'`` moves each bubble:

``f1(R)``
    density-scaled net pressure at the bubble wall when the film is at gauge
    pressure zero: polytropic gas core minus ambient offset minus capillary
    pressure.  Its root ``R_bar`` is the equilibrium radius; its minimiser
    ``R_crit`` bounds the monotone-response regime, and ``p_cav = f1(R_crit)``
    is the lowest film pressure the bubble field can balance.
``f2(R)``
    wall-damping coefficient (shear plus interface dilatational viscosity).

The mixture law, through the gas fraction ``alpha = a / (1 + a)``, ``a =
alpha0 (R/R0)^3`` of a fixed bubble count, sets the film equation:

``f3(R)``
    pressure mobility ``rho_mix / (12 mu_eff)`` (s/m²): the film flux
    ``rho_mix h³ / (12 mu_eff) grad(p_phys)`` over ``rho_l``, at ``p_phys =
    rho_l p``, keeps the *absolute* mixture density in the numerator.
``f4(R)``
    density-scaled transport coefficient of the entrained (Couette) flux.
``f5(R)``
    squeeze coupling, ``d f4 / dR``; non-positive while bubbles dilute the
    mixture, so radius growth acts as a volume source on the film.

Every valid :class:`PhysicalParams` meets the five standing hypotheses on
``(0, R_crit)``: ``f2, f3, f4 > 0`` by their form, ``f1' < 0`` by the
definition of ``R_crit``, and ``f5 <= 0`` because ``rho_g <= rho_l``.

Each formula is written once.  :func:`eval_wall` gives ``(f1, f2)`` from one
validation of ``R`` and no gas fraction; the film equation reads ``_closures``
``(f1 … f5)`` and ``_closure_slopes`` ``(f1', f2', f3', f5')`` (``f4' = f5``),
each from one validation and one gas fraction.  The public ``eval_*`` take
scalars or arrays and raise :class:`~filmcav.errors.NonPositiveRadiusError`
where :func:`radius_fault`, the one test of a radius field, finds a fault.
``R_crit`` has a closed form; :func:`compute_derived` bisects for ``R_bar``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    the solvability of the pressure elimination and the squeeze-feedback
    sign both need.

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


def radius_fault(R) -> str | None:
    """Why ``R`` is no radius field: ``"non-finite"`` when an entry is NaN
    or infinite, ``"non-positive"`` when one is at most 0, else None."""
    if np.all((0.0 < R) & (R < np.inf)):             # NaN fails both
        return None
    return "non-positive" if np.all(np.isfinite(R)) else "non-finite"


def _as_positive_radius(R):
    r = np.asarray(R, dtype=float)
    if radius_fault(r) is not None:
        raise NonPositiveRadiusError("bubble radius must be positive and finite")
    return r


def _match(R, values):
    # return a scalar when the input was a scalar
    return float(values) if np.isscalar(R) or np.ndim(R) == 0 else values


def _mixture(r, params: PhysicalParams):
    """The gas fraction at validated radii ``r`` and what the closures read
    of it: ``a = alpha0 (r/R0)^3``, ``da = d a / dR``, ``alpha = a / (1 +
    a)``, ``alpha'``, and ``rho_mix`` and ``12 mu_eff`` of ``f3``."""
    a = params.alpha0 * (r / params.R0) ** 3
    da = 3.0 * params.alpha0 * r ** 2 / params.R0 ** 3
    al = a / (1.0 + a)
    return (a, da, al, da / (1.0 + a) ** 2,
            (1.0 - al) * params.rho_l + al * params.rho_g,
            12.0 * ((1.0 - al) * params.mu_l + al * params.mu_g))


def _wall(r, params: PhysicalParams):
    """``(f1, f2)`` at validated radii ``r``; no gas fraction."""
    gas = params.P0 * (params.R0 / r) ** (3.0 * params.k_poly)
    return ((gas - params.p_bnd - 2.0 * params.sigma / r) / params.rho_l,
            4.0 * (params.mu_l + params.kappa_s / r) / (params.rho_l * r ** 2))


def _closures(R, params: PhysicalParams):
    """``(f1, f2, f3, f4, f5)`` at ``R``, from one validation and one gas
    fraction (``f5 = f4'``)."""
    r = _as_positive_radius(R)
    _, _, al, dal, num, den = _mixture(r, params)
    return (*_wall(r, params),
            num / den,
            0.5 * (1.0 + al * (params.rho_g / params.rho_l - 1.0)),
            0.5 * (params.rho_g / params.rho_l - 1.0) * dal)


def _closure_slopes(R, params: PhysicalParams):
    """``(f1', f2', f3', f5')`` at ``R``, from one validation and one gas
    fraction (``f4' = f5`` is a value of :func:`_closures`)."""
    r = _as_positive_radius(R)
    a, da, al, dal, num, den = _mixture(r, params)
    n = 3.0 * params.k_poly
    gas = -n * params.P0 * params.R0 ** n / r ** (n + 1.0)
    dda = 6.0 * params.alpha0 * r / params.R0 ** 3
    ddal = dda / (1.0 + a) ** 2 - 2.0 * da ** 2 / (1.0 + a) ** 3
    return ((gas + 2.0 * params.sigma / r ** 2) / params.rho_l,
            -4.0 * (2.0 * params.mu_l / r ** 3
                    + 3.0 * params.kappa_s / r ** 4) / params.rho_l,
            dal * ((params.rho_g - params.rho_l) * den
                   - num * (12.0 * (params.mu_g - params.mu_l))) / den ** 2,
            0.5 * (params.rho_g / params.rho_l - 1.0) * ddal)


def eval_alpha(R, params: PhysicalParams):
    """Gas fraction of the mixture at radius ``R``."""
    return _match(R, _mixture(_as_positive_radius(R), params)[2])


def eval_wall(R, params: PhysicalParams):
    """The bubble-wall law ``(f1, f2)`` at radius ``R``: ``f1 = (P0
    (R0/R)^{3k} - p_bnd - 2 sigma / R) / rho_l`` (m²/s²), the film pressure
    a bubble of radius ``R`` balances, and the damping ``f2 = 4 (mu_l +
    kappa_s / R) / (rho_l R²)`` (1/s)."""
    f1, f2 = _wall(_as_positive_radius(R), params)
    return _match(R, f1), _match(R, f2)


def eval_f1_prime(R, params: PhysicalParams):
    """d f1 / dR."""
    return _match(R, _closure_slopes(R, params)[0])


# ---------------------------------------------------------------------------
# Derived constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivedConstants:
    """Reference state and linearization constants.

    ``R_bar`` is the equilibrium radius (root of f1), ``R_crit = R0 (3k P0
    R0 / 2 sigma)^(1/(3k-1))`` the minimiser of f1 bounding the monotone
    regime, ``p_cav = f1(R_crit) < 0`` the lowest balanceable film pressure.
    The ``b*`` constants are the linearization coefficients about the uniform
    state

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
    flo = fn(lo)
    if flo == 0.0:
        return lo
    if not (lo < hi < np.inf and flo * fn(hi) <= 0.0):
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


def compute_derived(params: PhysicalParams) -> DerivedConstants:
    """Locate the reference state and build the constant set.

    The constants depend on the material parameters alone: the geometry
    (``J_r``, ``B``, ``h0``, ``ecc``) and the speed ``omega`` enter no
    closure.  The 32 most recently used materials are cached, so every
    caller, and every point of an eccentricity or speed sweep, shares one
    frozen result.

    ``R_crit``, the root of f1' where gas decompression and capillarity
    balance, is the Blake critical radius ``R0 (3k P0 R0 / 2
    sigma)^(1/(3k-1))`` (Brennen, *Cavitation and Bubble Dynamics*, 1995,
    §2.6).  ``R_bar`` is bisected on ``[1e-3 R0, R_crit]``, whose upper end
    has ``f1(R_crit) = -(p_bnd + 2 sigma (1 - 1/3k) / R_crit) / rho_l < 0``;
    ``b2``, ``b3`` and ``b5`` come from one closure pass at ``R_bar``.  Raises
    :class:`ConfigurationError` when that bracket holds no root of f1:
    ``R_bar``, or ``R_crit``, lies below ``1e-3 R0``.
    """
    return _derived(replace(params, J_r=1.0, B=1.0, h0=1.0, ecc=0.0,
                            omega=0.0))


@lru_cache(maxsize=32)
def _derived(params: PhysicalParams) -> DerivedConstants:
    n = 3.0 * params.k_poly
    R_crit = params.R0 * (n * params.P0 * params.R0
                          / (2.0 * params.sigma)) ** (1.0 / (n - 1.0))
    R_bar = _bisect(lambda r: eval_wall(r, params)[0], 1e-3 * params.R0,
                    R_crit)
    _, f2, f3, _, f5 = _closures(R_bar, params)
    return DerivedConstants(
        R_bar=R_bar, R_crit=R_crit, p_cav=eval_wall(R_crit, params)[0],
        b1=-eval_f1_prime(R_bar, params) / R_bar, b2=float(f2), b3=float(f3),
        b5=-float(f5), b_r=1.0 / R_bar)
