"""Test oracles: dense references and closed forms that no CLI run calls.

The tests gate the package's discretization against these:

* the ``eval_*`` closures and slopes that the package evaluates only
  inside the two closure passes or the wall law of :mod:`filmcav.physics`,
  one each;
* ``assemble_LG`` forms the dense quasi-static operator ``P^{-1} B`` from
  the same pencil :func:`filmcav.elliptic.film_pencil` that the certified
  sparse spectrum uses;
* ``assemble_operator`` is the mobility operator ``K`` of a coefficient
  field and ``convective_divergence`` the upwind entrained divergence as
  a field, the two terms :func:`filmcav.elliptic.film_residual` sums face
  by face without a matrix;
* ``diffusion_sensitivity`` and ``convective_divergence_matrix`` are the
  matrices of the sensitivity and the upwind convective fluxes that
  :func:`filmcav.elliptic.film_pencil` sums face by face (the latter
  decides each face's upwind side itself), and ``apply_A2``
  the squeeze response of the pressure equation;
* ``centers`` gives the cell-center coordinates of a grid as fields and
  ``field_norms`` the area-weighted norms of a field;
* ``fields_csv`` and ``midline_csv`` render the field table and the
  midline of whole-grid fields, every number of every row formatted: the
  reference of the renderers that take a solved mirror grid and format
  each distinct value once;
* ``slaved_state`` completes a hand-built transient state at any radius
  field with the rate and pressure the dynamics slaves to it;
* ``damped_newton`` is the stationary solve with a fresh LU of ``B`` at
  every iterate, the reference of the package's chord solve;
* for a parallel gap both linearized operators block-diagonalize exactly
  over the cross-film Dirichlet sine modes of the 5-point stencil: the
  ``constant_gap_spectrum_*`` helpers exploit that to reach resolutions far
  beyond dense assembly, and the ``trivial_*`` helpers give the per-mode
  closed forms at the rest state;
* ``critical_speed`` is the smallest modal instability threshold of the
  Routh-Hurwitz analysis.

The parallel-gap oracles take the physical parameters alone and read the
rest-state constants of :func:`filmcav.physics.compute_derived`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from filmcav.dynamics import (TransientState, _wall_acceleration,
                              eliminate_pressure)
from filmcav import physics
from filmcav.cli import MIDLINE_HEADER
from filmcav.elliptic import (_assemble, _convective_fluxes,
                              _diffusion_fluxes, _factorize,
                              _sensitivity_fluxes, _stencil, film_pencil,
                              solve_spd)
from filmcav.errors import SupercriticalRadiusError
from filmcav.grid import CSV_HEADER, Grid, ensure_field, render_csv
from filmcav.physics import (PhysicalParams, compute_derived, eval_alpha,
                             eval_f1_prime)
from filmcav.stability import hurwitz_analysis
from filmcav.stationary import (MAX_BACKTRACKS, NEWTON_MAX,
                                stationary_residual, trivial_solution)


# ---------------------------------------------------------------------------
# Closures the package reads only from the closure passes or the wall law
# ---------------------------------------------------------------------------

def eval_f1(R, params: PhysicalParams):
    """Density-scaled bubble-wall pressure balance f1 of the wall law."""
    return physics.eval_wall(R, params)[0]


def eval_f2(R, params: PhysicalParams):
    """Wall-damping coefficient f2 of the wall law."""
    return physics.eval_wall(R, params)[1]


def eval_f3(R, params: PhysicalParams):
    """Pressure mobility of the mixture, rho_mix / (12 mu_eff)."""
    return physics._match(R, physics._closures(R, params)[2])


def eval_alpha_prime(R, params: PhysicalParams):
    """d alpha / dR."""
    return physics._match(R, physics._mixture(
        physics._as_positive_radius(R), params)[3])


def eval_f2_prime(R, params: PhysicalParams):
    """d f2 / dR."""
    return physics._match(R, physics._closure_slopes(R, params)[1])


def eval_f3_prime(R, params: PhysicalParams):
    """d f3 / dR (chain rule through the gas fraction)."""
    return physics._match(R, physics._closure_slopes(R, params)[2])


def eval_f4(R, params: PhysicalParams):
    """Entrained-flux coefficient ½ [1 + alpha (rho_g/rho_l - 1)]."""
    return physics._match(R, physics._closures(R, params)[3])


def eval_f4_prime(R, params: PhysicalParams):
    """d f4 / dR; identical to the squeeze coupling f5 for this closure."""
    return physics._match(R, physics._closures(R, params)[4])


def eval_f5(R, params: PhysicalParams):
    """Squeeze coupling ½ (rho_g/rho_l - 1) alpha'(R) = f4'(R); non-positive,
    since valid parameters have ``rho_g <= rho_l``."""
    return physics._match(R, physics._closures(R, params)[4])


def eval_f5_prime(R, params: PhysicalParams):
    """d f5 / dR."""
    return physics._match(R, physics._closure_slopes(R, params)[3])


# ---------------------------------------------------------------------------
# Dense and matrix forms of the package operators
# ---------------------------------------------------------------------------

def assemble_LG(grid: Grid, R_s: np.ndarray, h: np.ndarray,
                U: tuple[float, float], params: PhysicalParams) -> np.ndarray:
    """Dense matrix ``P^{-1} B`` of the pencil :func:`elliptic.film_pencil`
    at ``(R_s, 0)``, the test oracle of :func:`pencil_spectrum`.

    Columns are obtained simultaneously by one sparse factorization of
    ``P`` applied to ``B``.
    """
    B, P = film_pencil(grid, R_s, np.zeros(grid.shape), h, U, params)
    return _factorize(P).solve(B.toarray())


def assemble_operator(grid: Grid, coeff: np.ndarray) -> sp.csr_matrix:
    """``K = -Div(c Grad .)`` for a positive cellwise coefficient: a
    symmetric positive definite CSR matrix acting on flattened fields
    (row-major cell order), the matrix whose face coefficients
    :func:`filmcav.elliptic.film_residual` returns at ``c = f3 h^3``."""
    return _assemble(*_diffusion_fluxes(grid, coeff))


def convective_divergence(grid: Grid, U: tuple[float, float],
                          w: np.ndarray) -> np.ndarray:
    """Cellwise divergence of the entrained flux ``U w`` as a field: the
    upwind face fluxes of the package summed into the cells (``C`` acting
    on ones).  A face carries the upstream cell's ``w``, a Dirichlet face
    the interior one."""
    st, _, flux, edge = _convective_fluxes(grid, U, w)
    n = grid.n_cells
    div = (np.bincount(st.A, flux, minlength=n)
           - np.bincount(st.B, flux, minlength=n)
           + np.bincount(st.cell, edge, minlength=n))
    return div.reshape(grid.shape)


def diffusion_sensitivity(grid: Grid, coeff_prime: np.ndarray,
                          potential: np.ndarray) -> sp.csr_matrix:
    """Matrix form of ``S -> Div( c'(R) S Grad q )`` at a frozen potential q.

    This is the exact derivative of the assembled diffusion term with
    respect to its coefficient field: faces differentiate the arithmetic
    mean (half the perturbation from each neighbour), Dirichlet faces keep
    the ghost-reflected potential and the own-cell coefficient.
    """
    return _assemble(*_sensitivity_fluxes(grid, coeff_prime, potential))


def convective_divergence_matrix(grid: Grid, U: tuple[float, float],
                                 w: np.ndarray) -> sp.csr_matrix:
    """Matrix form ``C`` of ``S -> Div(U w S)`` for a frozen weight field
    ``w``, whose action on ones is :func:`convective_divergence`.

    ``U`` is the constant entrainment velocity.  A face carries the
    upstream cell's value of ``w S`` (upwind, by the sign of each velocity
    component, decided here face by face, not by the package's cached
    selection); a Dirichlet face carries the adjacent interior value.
    """
    wf = ensure_field(grid, w, "weight field").ravel()
    st = _stencil(grid)
    vel = np.asarray(U, dtype=float)
    u = vel[st.face_axis]
    a = np.where(u > 0.0, u * wf[st.A] / st.face_dx, 0.0)
    b = np.where(u > 0.0, 0.0, u * wf[st.B] / st.face_dx)
    edge = st.edge_side * vel[st.edge_axis] * wf[st.cell] / st.edge_dx
    return _assemble(st, a, b, edge)


def apply_A2(grid: Grid, R: np.ndarray, h: np.ndarray, S: np.ndarray,
             params: PhysicalParams) -> np.ndarray:
    """Pressure response to a radius growth-rate field ``S``.

    Solves ``Div(f3(R) h^3 Grad A2) = h f5(R) S``; linear in ``S``.  Growth
    where bubbles dilute the mixture (f5 < 0) pressurizes the film, which
    is the stabilizing squeeze feedback: the weighted pairing
    ``sum (-f5) h A2(R, w) w dA >= 0`` holds exactly for the discrete
    operator.
    """
    Rf = ensure_field(grid, R, "R")
    hf = ensure_field(grid, h, "h")
    K = assemble_operator(grid, eval_f3(Rf, params) * hf ** 3)
    rhs = hf * eval_f5(Rf, params) * ensure_field(grid, S, "S")
    return solve_spd(K, -rhs.ravel(), grid)


def centers(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Broadcastable center coordinate arrays (X1, X2), each (n1, n2)."""
    return np.meshgrid(grid.x1, (np.arange(grid.n2) + 0.5) * grid.dx2,
                       indexing="ij")


def field_norms(grid: Grid, values: np.ndarray) -> dict[str, float]:
    """Area-weighted L2 and L1 norms plus the pointwise maximum."""
    arr = ensure_field(grid, values)
    dA = grid.dx1 * grid.dx2
    return {
        "L2": float(np.sqrt(np.sum(arr ** 2) * dA)),
        "L1": float(np.sum(np.abs(arr)) * dA),
        "Linf": float(np.max(np.abs(arr))),
    }


def fields_csv(grid: Grid, params: PhysicalParams, R: np.ndarray,
               p_scaled: np.ndarray) -> str:
    """The field table of fields on the whole ``grid``: columns
    ``x1,x2,R_hat,p_scaled,p_gauge_Pa,alpha`` of every cell, row-major."""
    Rf = ensure_field(grid, R, "R")
    pf = ensure_field(grid, p_scaled, "p")
    X1, X2 = centers(grid)
    return render_csv(CSV_HEADER, [
        X1.ravel(), X2.ravel(),
        (Rf / params.R0).ravel(),
        pf.ravel(),
        (params.rho_l * pf).ravel(),
        eval_alpha(Rf, params).ravel(),
    ])


def midline_csv(grid: Grid, params: PhysicalParams, R: np.ndarray,
                p: np.ndarray) -> str:
    """The midline table of fields on the whole ``grid``: the average of the
    two center rows (the center row when ``n2`` is odd) of each quantity."""
    j = grid.n2 // 2

    def profile(values):
        return (0.5 * (values[:, j - 1] + values[:, j]) if grid.n2 % 2 == 0
                else values[:, j])

    r_mid, p_mid = profile(R), profile(p)
    return render_csv(MIDLINE_HEADER, [grid.x1, r_mid / params.R0, p_mid,
                                       params.rho_l * p_mid,
                                       profile(eval_alpha(R, params))])


def slaved_state(grid: Grid, R: np.ndarray, h: np.ndarray,
                 U: tuple[float, float], params: PhysicalParams,
                 V: np.ndarray | None = None) -> TransientState:
    """Complete transient state at ``t = 0`` and radius field ``R``: with the
    rate and pressure of the pressure elimination at ``R``, or, given a wall
    velocity ``V``, with the film pressure of the inertial model at
    ``(R, V)``."""
    if V is None:
        return TransientState(0.0, R, *eliminate_pressure(grid, R, h, U,
                                                          params))
    return TransientState(0.0, R, V,
                          _wall_acceleration(grid, R, V, h, U, params)[1])


def damped_newton(grid: Grid, h: np.ndarray, U: tuple[float, float],
                  params: PhysicalParams, newton_tol: float
                  ) -> tuple[np.ndarray, bool]:
    """Full damped Newton solve of the stationary balance, the reference of
    the chord solve :func:`filmcav.stationary.solve_stationary`.

    From the rest state, at most ``NEWTON_MAX`` iterations, each a fresh LU
    of ``B`` at the iterate and a step halved until ``||Phi||`` decreases.
    Returns ``(R, converged)``; raises :class:`SupercriticalRadiusError`
    when an iterate reaches the critical radius.
    """
    R_crit = compute_derived(params).R_crit
    R, _ = trivial_solution(grid, params)
    phi, scale = stationary_residual(grid, R, h, U, params)
    for _ in range(NEWTON_MAX):
        norm_phi = np.linalg.norm(phi)
        if norm_phi / scale < newton_tol:
            break
        B = film_pencil(grid, R, np.zeros(grid.shape), h, U, params)[0]
        delta = _factorize(B).solve(-phi).reshape(grid.shape)
        lam = 1.0
        for _ in range(MAX_BACKTRACKS):
            R_new = R + lam * delta
            if np.all(R_new > 0.0):
                phi_new, scale_new = stationary_residual(grid, R_new, h, U,
                                                         params)
                if np.linalg.norm(phi_new) <= (1.0 - 1e-4 * lam) * norm_phi:
                    break
            lam *= 0.5
        else:
            break
        R, phi, scale = R_new, phi_new, scale_new
        if float(np.max(R)) >= R_crit:
            raise SupercriticalRadiusError("iterate reached R_crit")
    return R, bool(np.linalg.norm(phi) / scale < newton_tol)


# ---------------------------------------------------------------------------
# Parallel-gap closed forms and separated spectra
# ---------------------------------------------------------------------------

def dirichlet_laplacian_eigenvalues_1d(n: int, dx: float) -> np.ndarray:
    """Exact eigenvalues of the 1D 5-point-stencil Dirichlet second
    difference (cell-centered, ghost reflection): ``(4/dx^2) sin^2(k pi/(2n))``
    for ``k = 1..n``."""
    k = np.arange(1, n + 1)
    return (4.0 / dx ** 2) * np.sin(k * np.pi / (2 * n)) ** 2


def dirichlet_laplacian_eigenvalues(n1: int, n2: int, L1: float, L2: float
                                    ) -> np.ndarray:
    """All eigenvalues of the all-Dirichlet 5-point Laplacian on an
    ``n1 x n2`` cell-centered grid over ``[0,L1] x [0,L2]`` (flattened)."""
    k1 = dirichlet_laplacian_eigenvalues_1d(n1, L1 / n1)
    k2 = dirichlet_laplacian_eigenvalues_1d(n2, L2 / n2)
    return (k1[:, None] + k2[None, :]).ravel()


def trivial_LG_eigenvalue(kappa, params: PhysicalParams):
    """Relaxation rate of the quasi-static model's mode with Laplacian
    eigenvalue ``kappa`` at the uniform rest state:
    ``-kappa h0^2 d3 d1 / (b5 + kappa h0^2 d3)`` with ``d1 = b1 / b2`` and
    ``d3 = R_bar b3 b2``, the constants those of ``compute_derived(params)``."""
    c = compute_derived(params)
    d1, d3 = c.b1 / c.b2, c.R_bar * c.b3 * c.b2
    kh = np.asarray(kappa, dtype=float) * params.h0 ** 2
    return -(kh * d3 * d1 / (c.b5 + kh * d3))


def _stable_quadratic_roots(b: float, c: float) -> tuple[complex, complex]:
    """Roots of ``x^2 + b x + c`` without cancellation."""
    disc = b * b - 4.0 * c
    if disc >= 0.0:
        q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
        if q == 0.0:
            return 0.0 + 0.0j, 0.0 + 0.0j
        return complex(q), complex(c / q)
    im = 0.5 * np.sqrt(-disc)
    return complex(-0.5 * b, im), complex(-0.5 * b, -im)


def trivial_LF_roots(kappa: float, params: PhysicalParams
                     ) -> tuple[complex, complex]:
    """The inertial mode pair at the rest state: roots of
    ``lam^2 + (b2 + gamma) lam + b1`` with
    ``gamma = b5 b_r / (b3 h0^2 kappa)``, the constants those of
    ``compute_derived(params)``."""
    c = compute_derived(params)
    gamma = c.b5 * c.b_r / (c.b3 * params.h0 ** 2 * kappa)
    return _stable_quadratic_roots(c.b2 + gamma, c.b1)


def _dirichlet_second_difference_1d(n: int, dx: float) -> np.ndarray:
    """Dense ``-d^2/dx^2`` on a cell-centered line with ghost reflection."""
    T = np.zeros((n, n))
    i = np.arange(n)
    T[i, i] = 2.0
    T[i[:-1], i[:-1] + 1] = -1.0
    T[i[1:], i[1:] - 1] = -1.0
    T[0, 0] = 3.0
    T[n - 1, n - 1] = 3.0
    return T / dx ** 2


def _convection_1d(n: int, dx: float, u: float, w: float) -> np.ndarray:
    """Dense 1D mirror of :func:`convective_divergence_matrix` (upwind) on
    a Dirichlet line with constant weight ``w``."""
    C = np.zeros((n, n))
    if u == 0.0:
        return C
    for i in range(n - 1):
        src = i if u > 0.0 else i + 1
        C[i, src] += u * w / dx
        C[i + 1, src] -= u * w / dx
    C[0, 0] += -u * w / dx
    C[n - 1, n - 1] += u * w / dx
    return C


def _constant_gap_blocks(params: PhysicalParams, U_norm: float, n1: int,
                         n2: int, L1: float, L2: float):
    """Per-cross-mode (x2) reduced operators for a parallel gap at rest.

    With every coefficient field constant, the only x2 coupling is the
    shared Laplacian, so conjugating by its cross-film sine modes is an
    exact block diagonalization of the discrete operators: block ``m`` sees
    the 1D streamwise operators shifted by the m-th cross eigenvalue.
    """
    R_bar, h0 = compute_derived(params).R_bar, params.h0
    f1p = float(eval_f1_prime(R_bar, params))
    f2v = float(eval_f2(R_bar, params))
    f3v = float(eval_f3(R_bar, params))
    f4p = float(eval_f4_prime(R_bar, params))
    f5v = float(eval_f5(R_bar, params))
    cbar = f3v * h0 ** 3
    K1 = cbar * _dirichlet_second_difference_1d(n1, L1 / n1)
    C1 = _convection_1d(n1, L1 / n1, U_norm, h0 * f4p)
    kappa2 = dirichlet_laplacian_eigenvalues_1d(n2, L2 / n2)
    for k2 in kappa2:
        K_m = K1 + cbar * k2 * np.eye(n1)
        yield K_m, C1, R_bar, f1p, f2v, h0 * f5v


def constant_gap_spectrum_LG(params: PhysicalParams, U_norm: float,
                             n1: int, n2: int, L1: float = 1.0,
                             L2: float = 1.0) -> np.ndarray:
    """All ``n1*n2`` eigenvalues of the quasi-static linearization on an
    all-Dirichlet rectangle with parallel gap, via exact cross-mode
    separation (equals the dense assembly's spectrum)."""
    eigs = []
    for K_m, C1, R_bar, f1p, f2v, hf5 in _constant_gap_blocks(
            params, U_norm, n1, n2, L1, L2):
        M_m = R_bar * f2v * K_m - hf5 * np.eye(K_m.shape[0])
        rhs = f1p * K_m + C1
        eigs.append(np.linalg.eigvals(np.linalg.solve(M_m, rhs)))
    return np.sort_complex(np.concatenate(eigs))


def constant_gap_spectrum_LF(params: PhysicalParams, U_norm: float,
                             n1: int, n2: int, L1: float = 1.0,
                             L2: float = 1.0) -> np.ndarray:
    """All ``2 n1 n2`` eigenvalues of the inertial linearization on an
    all-Dirichlet rectangle with parallel gap (exact cross-mode separation)."""
    eigs = []
    for K_m, C1, R_bar, f1p, f2v, hf5 in _constant_gap_blocks(
            params, U_norm, n1, n2, L1, L2):
        n = K_m.shape[0]
        Pi1 = np.linalg.solve(K_m, -C1)
        Pi2 = np.linalg.solve(K_m, -hf5 * np.eye(n))
        b21 = (f1p * np.eye(n) - Pi1) / R_bar
        b22 = -f2v * np.eye(n) - Pi2 / R_bar
        block = np.vstack([np.hstack([np.zeros((n, n)), np.eye(n)]),
                           np.hstack([b21, b22])])
        eigs.append(np.linalg.eigvals(block))
    return np.sort_complex(np.concatenate(eigs))


def trivial_branch_spectrum_LF(params: PhysicalParams, n1: int, n2: int,
                               L1: float = 1.0, L2: float = 1.0
                               ) -> np.ndarray:
    """Inertial rest-state spectrum (``U = 0``) through the assembled
    diffusion operator.

    At rest the linearization commutes with the constant-coefficient
    diffusion operator, so each of its eigenvalues ``kappa`` contributes the
    mode pair of :func:`trivial_LF_roots`.  The ``kappa`` are extracted from
    the assembled symmetric blocks with ``eigvalsh`` — backward-stable at any
    parameter magnitudes — instead of a nonsymmetric companion solve whose
    absolute error floor (``~norm * eps``) swamps near-zero real parts at
    stiff physical constants.
    """
    cbar = float(eval_f3(compute_derived(params).R_bar, params)) * params.h0 ** 3
    eigs = []
    for K_m, _C1, _R_bar, _f1p, _f2v, _hf5 in _constant_gap_blocks(
            params, 0.0, n1, n2, L1, L2):
        for kappa in np.linalg.eigvalsh(K_m) / cbar:
            eigs.extend(trivial_LF_roots(float(kappa), params))
    return np.sort_complex(np.array(eigs))


# ---------------------------------------------------------------------------
# Routh-Hurwitz modal threshold
# ---------------------------------------------------------------------------

def critical_speed(params: PhysicalParams, L1: float = 1.0,
                   L2: float = 1.0) -> float:
    """Smallest modal instability threshold on the ``L1 x L2`` rectangle:
    that of mode ``(1, 1)``.

    ``U_crit^2 = 4 b1 b2 (sigma2 + kappa b2) / sigma1`` with ``b1, b2 > 0``
    and ``sigma1 >= 0`` grows with the mode's Laplacian eigenvalue
    ``kappa``, so the fundamental pair minimizes it over all modes
    (``inf`` when ``sigma1 = 0``).
    """
    return float(np.sqrt(hurwitz_analysis(params, 0.0, (1, 1), L1,
                                          L2).U_crit_sq))
