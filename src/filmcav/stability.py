"""Linear stability of stationary states.

Both linearized evolution operators come from the one linearization of the
film equation, the pencil ``(B, P) = elliptic.film_pencil`` at
``(R_s, S = 0)``, where the film pressure is ``p_s = f1(R_s)`` (the Newton
stationary solver factors the same ``B``, the stepper ``P - dt B``):

* ``L_G`` — the quasi-static model linearized about ``(R_s, p_s)``, the
  growth-rate derivative ``P^{-1} B`` of the sparse pencil

      B w = lam P w,   P = K diag(R_s f2(R_s)) - diag(h f5(R_s)),

  with ``K = -Div(f3(R_s) h^3 Grad .)``.  :func:`pencil_spectrum` finds
  its rightmost eigenvalues without forming ``L_G``: ARPACK on the Cayley
  transform ``(B - s P)^{-1} (B + s P)``, which maps the open right
  half-plane onto ``|theta| > 1``, and a certificate that bounds the real
  part of every eigenvalue it does not list.

* ``L_F`` — the inertial model linearized at ``(R_s, 0)``, assembled dense:
  block matrix ``[[0, I], [diag(1/R_s) K^{-1} B,
  -diag(f2) + diag(1/R_s) K^{-1} diag(h f5)]]``.

The sliding-speed instability mechanism is quantified mode-by-mode on an
``L1 x L2`` rectangle with a parallel gap and homogeneous Dirichlet values:
each mode pair ``k = (k1, k2)``, with Laplacian eigenvalue
``pi^2 (k1^2/L1^2 + k2^2/L2^2)``, has a quartic characteristic polynomial
whose Routh-Hurwitz determinant sequence counts unstable roots, and whose
third determinant is affine in the squared speed — its root is the exact
modal instability threshold.  The modal analysis takes the physical
parameters alone and reads the rest-state constants of
:func:`physics.compute_derived`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, SolverFailureError
from .grid import Grid, ensure_field, render_csv
from .elliptic import _factorize, assemble_operator, film_pencil
from .physics import (PhysicalParams, compute_derived, eval_f2, eval_f3,
                      eval_f5)

DENSE_ASSEMBLY_LIMIT = 4096
SPECTRUM_SIZE_LIMIT = 8192

#: eigenvalues the sparse pencil route asks ARPACK for (at most ``n - 2``)
RIGHTMOST_COUNT = 16
#: ARPACK tolerance of the spectral-radius estimate that places the pole
POLE_ESTIMATE_TOL = 1e-2
#: an uncertified attempt multiplies the pole by POLE_GROWTH, at most
#: POLE_RAISES times
POLE_GROWTH = 4.0
POLE_RAISES = 3
#: largest normwise backward error accepted for a listed eigenpair
BACKWARD_ERROR_TOL = 1e-10

VERDICT_STABLE = "stable"
VERDICT_UNSTABLE = "unstable"
VERDICT_MARGINAL = "marginal"

TAG_LG = "L_G"
TAG_LF = "L_F"


@dataclass
class SpectrumReport:
    """Eigenvalues of a linearized evolution operator with a verdict.

    ``verdict`` applies the ``margin`` of the call that built the report:
    "stable" when every real part is below ``-margin``, "unstable" when
    some real part exceeds ``+margin``, and "marginal" otherwise
    (eigenvalues inside the margin band decide nothing at finite
    resolution).  ``eigenvalues`` may be the rightmost part of the
    spectrum only; ``bound`` then bounds the real part of every eigenvalue
    not listed (``-inf`` when the list is the whole spectrum).
    """

    eigenvalues: np.ndarray
    max_real_part: float
    verdict: str
    operator_tag: str
    bound: float = -np.inf


def _verdict(max_real: float, margin: float) -> str:
    """The three-way rule shared by the dense and the sparse spectra."""
    if max_real < -margin:
        return VERDICT_STABLE
    if max_real > margin:
        return VERDICT_UNSTABLE
    return VERDICT_MARGINAL


# ---------------------------------------------------------------------------
# Linearization about a general stationary state
# ---------------------------------------------------------------------------

def assemble_LF(grid: Grid, R_s: np.ndarray, h: np.ndarray,
                U: tuple[float, float], params: PhysicalParams) -> np.ndarray:
    """Dense 2x2-block matrix of the linearized inertial evolution at
    ``(R_s, 0)``: state ordering is (radius perturbation, rate perturbation).
    Refuses grids above 4096 cells (dense output)."""
    if grid.n_cells > DENSE_ASSEMBLY_LIMIT:
        raise ConfigurationError(
            f"dense assembly limited to {DENSE_ASSEMBLY_LIMIT} cells, "
            f"grid has {grid.n_cells}")
    Rf = ensure_field(grid, R_s, "R_s")
    hf = ensure_field(grid, h, "h")
    B = film_pencil(grid, Rf, np.zeros(grid.shape), hf, U, params)[0]
    K = assemble_operator(grid, eval_f3(Rf, params) * hf ** 3)
    n = grid.n_cells
    lower = _factorize(K).solve(
        np.hstack([B.toarray(), np.diag((hf * eval_f5(Rf, params)).ravel())]))
    lower /= Rf.ravel()[:, None]
    lower[:, n:] -= np.diag(eval_f2(Rf, params).ravel())
    top = np.hstack([np.zeros((n, n)), np.eye(n)])
    return np.vstack([top, lower])


def compute_spectrum(matrix: np.ndarray, margin: float = 1e-8,
                     operator_tag: str = TAG_LG) -> SpectrumReport:
    """Full eigendecomposition with a three-way stability verdict."""
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigurationError("spectrum needs a square matrix")
    if A.shape[0] > SPECTRUM_SIZE_LIMIT:
        raise ConfigurationError(
            f"dense spectrum limited to size {SPECTRUM_SIZE_LIMIT}, "
            f"matrix has {A.shape[0]}")
    eigs = np.sort_complex(np.linalg.eigvals(A))
    max_real = float(np.max(eigs.real))
    return SpectrumReport(eigenvalues=eigs, max_real_part=max_real,
                          verdict=_verdict(max_real, margin),
                          operator_tag=operator_tag)


# ---------------------------------------------------------------------------
# Certified rightmost eigenvalues of a sparse pencil
# ---------------------------------------------------------------------------

def _largest_modulus(matvec, n: int, k: int, v0: np.ndarray, tol: float):
    """``k`` eigenpairs of largest modulus of a real operator (ARPACK)."""
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    try:
        return spla.eigs(op, k=k, which="LM", v0=v0, tol=tol)
    except spla.ArpackError as exc:
        raise SolverFailureError(f"ARPACK: {exc}") from exc


def _complete_pairs(lam: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a real pencil with a conjugate pair that the
    list splits completed, and ``+0`` imaginary parts on the real ones."""
    lam = np.where(lam.imag == 0.0, lam.real + 0j, lam)
    partners = [np.conj(z) for z in lam if z.imag != 0.0
                and not np.any(np.isclose(lam, np.conj(z), rtol=1e-12,
                                          atol=0.0))]
    return np.sort_complex(np.concatenate([lam, partners]))


def pencil_spectrum(B: sp.spmatrix, P: sp.spmatrix, margin: float = 1e-8,
                    operator_tag: str = TAG_LG) -> SpectrumReport:
    """Certified rightmost eigenvalues of the sparse pencil ``B w = lam P w``.

    ARPACK, started from ones, finds the ``k = min(RIGHTMOST_COUNT, n - 2)``
    eigenvalues ``theta`` of largest modulus of the Cayley transform
    ``(B - s P)^{-1} (B + s P)``, factored once, and
    ``lam = s (theta + 1) / (theta - 1)`` maps them back.  For a pole
    ``s > 0``, ``|theta| > 1`` holds exactly on the open right half-plane,
    and every eigenvalue not returned lies in the Apollonius disk
    ``|theta| <= r`` of the smallest returned modulus ``r``, whose real
    parts are at most ``bound = -s (1 - r) / (1 + r)`` when ``r <= 1``.

    The report is returned only when it is certified: ``r <= 1``, the
    largest listed real part is at least ``bound`` (so it is the largest of
    the whole spectrum), and every pair's normwise backward error
    ``|B v - lam P v|_1 / ((|B|_1 + |lam| |P|_1) |v|_1)`` is at most
    ``BACKWARD_ERROR_TOL``.  The pole starts at ``s = 2 rho``, with ``rho``
    a fixed-start ARPACK estimate of the spectral radius of ``P^{-1} B``
    (deterministic, and ``|theta - 1| >= 4/3`` for ``|lam| <= rho``, so the
    map back is well conditioned); an uncertified attempt multiplies it by
    ``POLE_GROWTH``, and after ``POLE_RAISES`` raises
    :class:`SolverFailureError` is raised.  The listed eigenvalues keep
    conjugate pairs whole.
    """
    B = sp.csc_matrix(B, dtype=float)
    P = sp.csc_matrix(P, dtype=float)
    n = B.shape[0]
    if B.shape != (n, n) or P.shape != (n, n):
        raise ConfigurationError("a pencil needs two square matrices of one "
                                 f"size, got {B.shape} and {P.shape}")
    k = min(RIGHTMOST_COUNT, n - 2)
    if k < 1:
        raise ConfigurationError(f"pencil of size {n} is too small")
    v0 = np.ones(n)
    lu = _factorize(P)
    theta, _ = _largest_modulus(lambda x: lu.solve(B @ x), n, 1, v0,
                                POLE_ESTIMATE_TOL)
    del lu  # released before the Cayley factor is built
    pole = 2.0 * float(np.abs(theta).max())
    norm_B, norm_P = spla.norm(B, 1), spla.norm(P, 1)
    for _ in range(POLE_RAISES + 1):
        try:
            lu = _factorize(B - pole * P)
            plus = (B + pole * P).tocsr()
            theta, V = _largest_modulus(lambda x: lu.solve(plus @ x), n, k,
                                        v0, 0.0)
        except SolverFailureError as exc:
            reason = str(exc)
        else:
            lam = pole * (theta + 1.0) / (theta - 1.0)
            r = float(np.abs(theta).min())
            bound = -pole * (1.0 - r) / (1.0 + r)
            max_real = float(lam.real.max())
            eta = float(np.max(
                np.abs(B @ V - (P @ V) * lam).sum(axis=0)
                / ((norm_B + np.abs(lam) * norm_P) * np.abs(V).sum(axis=0))))
            if r > 1.0:
                reason = (f"all {k} listed eigenvalues lie in the right "
                          "half-plane, the others are not bounded")
            elif max_real < bound:
                reason = (f"largest listed real part {max_real:.9g} is below "
                          f"the bound {bound:.9g} of the unlisted ones")
            elif eta > BACKWARD_ERROR_TOL:
                reason = f"eigenpair backward error {eta:.3e}"
            else:
                return SpectrumReport(
                    eigenvalues=_complete_pairs(lam), max_real_part=max_real,
                    verdict=_verdict(max_real, margin),
                    operator_tag=operator_tag, bound=bound)
        pole *= POLE_GROWTH
    raise SolverFailureError(
        f"rightmost eigenvalues of {operator_tag} not certified with Cayley "
        f"poles up to {pole / POLE_GROWTH:.6g}: {reason}")


def export_spectrum_csv(path, report: SpectrumReport) -> None:
    """Write the eigenvalues to ``path`` as ``re,im`` rows of
    :func:`grid.render_csv`, 12 significant digits."""
    lam = report.eigenvalues
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_csv("re,im", [lam.real, lam.imag], digits=12))


# ---------------------------------------------------------------------------
# Routh-Hurwitz modal analysis (L1 x L2 rectangle, parallel gap)
# ---------------------------------------------------------------------------

def sigma_constants(params: PhysicalParams) -> tuple[float, float]:
    """The two squeeze-coupling strengths of the parallel-gap analysis:
    ``sigma2 = b5 b_r / (b3 h0^2)`` and ``sigma1 = b5^2 b_r^2 / (b3^2 h0^4)``
    (the transport coupling ``-f4'`` equals the squeeze coupling ``b5``), so
    ``sigma1 = sigma2^2``."""
    c = compute_derived(params)
    sigma2 = c.b5 * c.b_r / (c.b3 * params.h0 ** 2)
    sigma1 = (c.b5 ** 2 * c.b_r ** 2) / (c.b3 ** 2 * params.h0 ** 4)
    return sigma1, sigma2


@dataclass
class HurwitzReport:
    """Modal stability polynomial data for mode pair ``k = (k1, k2)``.

    ``deltas`` holds the leading-minor determinants (Delta1..Delta4) in
    closed form; ``deltas_direct`` the same from literal determinant
    evaluation of the Hurwitz matrix.  ``sign_changes`` counts variations
    in the Routh sequence {alpha0, Delta1, Delta2/Delta1, Delta3/Delta2,
    Delta4/Delta3} — the number of eigenvalue pairs pushed into the right
    half plane.  ``U_crit_sq`` is the squared sliding speed at which
    Delta3 crosses zero for this mode (``inf`` without squeeze coupling,
    ``sigma1 = 0``, where Delta3 does not depend on the speed).
    """

    k: tuple[int, int]
    alpha0: float
    beta0: float
    alpha1: float
    beta1: float
    alpha2: float
    deltas: tuple[float, float, float, float]
    deltas_direct: tuple[float, float, float, float]
    sign_changes: int
    U_crit_sq: float


def hurwitz_matrix(alpha0: float, beta0: float, alpha1: float, beta1: float,
                   alpha2: float) -> np.ndarray:
    """The 4x4 Hurwitz matrix of
    ``P(lam) = alpha0 lam^4 + beta0 lam^3 + alpha1 lam^2 + beta1 lam + alpha2``."""
    return np.array([
        [beta0, beta1, 0.0, 0.0],
        [alpha0, alpha1, alpha2, 0.0],
        [0.0, beta0, beta1, 0.0],
        [0.0, alpha0, alpha1, alpha2],
    ])


def hurwitz_analysis(params: PhysicalParams, U_norm: float,
                     k_pair: tuple[int, int], L1: float = 1.0,
                     L2: float = 1.0) -> HurwitzReport:
    """Routh-Hurwitz data of the mode ``k_pair`` of the ``L1 x L2``
    rectangle at sliding speed ``U_norm``.

    Both mode indices must be at least 1 (the boundary kills constant
    cross modes).  Determinants are produced twice — closed forms and
    literal minors — and the modal threshold ``U_crit_sq`` is the exact
    root of the affine-in-``U^2`` third determinant,
    ``4 b1 b2 (sigma2 + kappa b2) / sigma1`` with the mode's Laplacian
    eigenvalue ``kappa = pi^2 (k1^2/L1^2 + k2^2/L2^2)``, or ``inf`` when
    ``sigma1 = 0`` (``alpha0 = 0``).
    """
    k1, k2 = int(k_pair[0]), int(k_pair[1])
    if k1 < 1 or k2 < 1:
        raise ConfigurationError(
            f"mode indices must be positive, got ({k1}, {k2})")
    c = compute_derived(params)
    sigma1, sigma2 = sigma_constants(params)
    b1, b2 = c.b1, c.b2
    pi2k = np.pi ** 2 * (k1 * k1 / L1 ** 2 + k2 * k2 / L2 ** 2)

    alpha0 = 4.0 * pi2k
    beta0 = 4.0 * sigma2 + 8.0 * pi2k * b2
    alpha1 = 4.0 * sigma2 * b2 + 4.0 * pi2k * (b2 ** 2 + 2.0 * b1)
    beta1 = 4.0 * sigma2 * b1 + 8.0 * pi2k * b1 * b2
    alpha2 = 4.0 * pi2k * b1 ** 2 + sigma1 * U_norm ** 2

    d1 = beta0
    d2 = beta0 * alpha1 - alpha0 * beta1
    d3 = beta0 * alpha1 * beta1 - alpha0 * beta1 ** 2 - beta0 ** 2 * alpha2
    d4 = alpha2 * d3
    H = hurwitz_matrix(alpha0, beta0, alpha1, beta1, alpha2)
    direct = tuple(float(np.linalg.det(H[:m, :m])) for m in range(1, 5))

    seq = [alpha0, d1]
    for num, den in ((d2, d1), (d3, d2), (d4, d3)):
        seq.append(num / den if den != 0.0 else np.nan)
    signs = np.sign(seq)
    sign_changes = int(np.sum(signs[:-1] * signs[1:] < 0))

    U_crit_sq = (4.0 * b1 * b2 * (sigma2 + pi2k * b2) / sigma1
                 if sigma1 > 0.0 else np.inf)
    return HurwitzReport(k=(k1, k2), alpha0=alpha0, beta0=beta0,
                         alpha1=alpha1, beta1=beta1, alpha2=alpha2,
                         deltas=(d1, d2, d3, d4), deltas_direct=direct,
                         sign_changes=sign_changes, U_crit_sq=U_crit_sq)


def hurwitz_report_text(report: HurwitzReport) -> str:
    """Human-readable rendering for file output."""
    d = report.deltas
    dd = report.deltas_direct
    lines = [
        f"mode k = ({report.k[0]}, {report.k[1]})",
        (f"coefficients: alpha0 = {report.alpha0:.9g}, beta0 = {report.beta0:.9g}, "
         f"alpha1 = {report.alpha1:.9g}, beta1 = {report.beta1:.9g}, "
         f"alpha2 = {report.alpha2:.9g}"),
        (f"determinants (closed form): {d[0]:.9g}, {d[1]:.9g}, {d[2]:.9g}, "
         f"{d[3]:.9g}"),
        (f"determinants (direct):      {dd[0]:.9g}, {dd[1]:.9g}, {dd[2]:.9g}, "
         f"{dd[3]:.9g}"),
        f"sign changes (unstable roots): {report.sign_changes}",
        f"critical squared speed for this mode: {report.U_crit_sq:.9g} m^2/s^2",
        f"critical speed for this mode: {np.sqrt(report.U_crit_sq):.9g} m/s",
    ]
    return "\n".join(lines) + "\n"
