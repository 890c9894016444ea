"""Tests for the linear stability toolbox.

Dual routes used as oracles here (the dense ``L_G``, the separated spectra,
the closed forms and the modal critical speed live in ``tests/oracles.py``):

* dense Jacobian assemblies are checked against central finite differences
  of the nonlinear growth-rate / wall-acceleration maps at a computed
  stationary state;
* separated (per-mode) parallel-gap spectra are checked against brute-force
  dense eigendecompositions of the assembled operators;
* closed-form eigenvalue and determinant expressions are checked against
  ``np.roots`` / exact ``fractions.Fraction`` determinant expansions;
* the certified sparse-pencil spectrum is checked against pencils with
  known eigenvalues, the dense ``L_G`` and the separated spectra, and the
  spectra of the pencil's two mirror-symmetry blocks against the whole
  pencil's;
* the splitting of the growth pencil into the local relaxation rate
  ``m = f1' / (R f2)`` and a first-order rest is checked against the
  oracles' matrix forms of the diffusion sensitivity and the convection.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import filmcav.stability as stability
from filmcav.stability import _mirror_blocks
from filmcav.dynamics import _wall_acceleration, eliminate_pressure
from filmcav.elliptic import film_pencil, film_residual, mobility_operator
from filmcav.errors import ConfigurationError, SolverFailureError
from filmcav.grid import (BC_DIRICHLET, BC_PERIODIC, Grid, gap_function,
                          grid_for_params, mirror_half, unfold)
from filmcav.physics import (PhysicalParams, compute_derived, eval_f1_prime,
                             eval_wall)
from filmcav.stability import (
    RIGHTMOST_COUNT,
    VERDICT_MARGINAL,
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    assemble_LF,
    compute_spectrum,
    hurwitz_analysis,
    hurwitz_report_text,
    mirror_spectrum,
    pencil_spectrum,
    render_spectrum_csv,
    sigma_constants,
)
from filmcav.stationary import solve_stationary
from oracles import (
    _dirichlet_second_difference_1d,
    _stable_quadratic_roots,
    assemble_LG,
    assemble_operator,
    constant_gap_spectrum_LF,
    constant_gap_spectrum_LG,
    convective_divergence_matrix,
    critical_speed,
    diffusion_sensitivity,
    dirichlet_laplacian_eigenvalues,
    dirichlet_laplacian_eigenvalues_1d,
    eval_f3,
    eval_f3_prime,
    eval_f5,
    trivial_branch_spectrum_LF,
    trivial_LF_roots,
    trivial_LG_eigenvalue,
)

# Gentle parameter set: the bubble oscillator is underdamped (stiffness 418,
# damping 0.4 in 1/s units) so inertial spectra have O(1) real parts and
# dense eigensolves stay well conditioned.
TAME = PhysicalParams(rho_l=1000.0, mu_l=1.0, rho_g=900.0, mu_g=0.01,
                      kappa_s=0.0, k_poly=1.4, sigma=1.0, P0=1000.0,
                      p_bnd=980.0, R0=0.1, alpha0=0.1, J_r=1.0, B=1.0,
                      h0=1.0 / 32.0, ecc=0.0, omega=0.0)


def _pair_distance(a, b):
    """Max over either set of the distance to the nearest point of the other.

    Robust eigenvalue-set comparison: sorting complex arrays is unstable for
    nearly-degenerate conjugate pairs, a nearest-neighbour metric is not.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    m = np.abs(b[None, :] - a[:, None])
    return max(float(m.min(axis=1).max()), float(m.min(axis=0).max()))


@pytest.fixture(scope="module")
def journal_state():
    """Converged stationary state on a small journal grid."""
    params = PhysicalParams(ecc=0.2)
    grid = grid_for_params(params, 12, 6)
    h = gap_function(grid, params)
    U = (params.surface_speed, 0.0)
    R_s, p_s, report = solve_stationary(grid, h, U, params)
    assert report.converged
    return grid, R_s, h, U, params


def test_growth_jacobian_matches_finite_differences(journal_state):
    grid, R_s, h, U, params = journal_state
    LG = assemble_LG(grid, R_s, h, U, params)
    rng = np.random.default_rng(2)
    t = 1e-7 * params.R0
    for _ in range(4):
        v = rng.normal(size=grid.shape)
        v /= np.max(np.abs(v))
        Gp, _ = eliminate_pressure(grid, R_s + t * v, h, U, params)
        Gm, _ = eliminate_pressure(grid, R_s - t * v, h, U, params)
        fd = ((Gp - Gm) / (2.0 * t)).ravel()
        got = LG @ v.ravel()
        assert np.linalg.norm(got - fd) <= 1e-7 * np.linalg.norm(fd)


def _inertial_operator(grid, R_s, h, U, params):
    """``L_F`` at ``(R_s, 0)`` as the stability run builds it: the pencil
    and the mobility operator of the film equation there."""
    zero = np.zeros(grid.shape)
    K = mobility_operator(grid, film_residual(grid, R_s, zero, h, U, params)[2])
    return assemble_LF(R_s, K, *film_pencil(grid, R_s, zero, h, U, params))


def test_inertial_jacobian_blocks_match_acceleration_derivatives(journal_state):
    grid, R_s, h, U, params = journal_state
    n = grid.n_cells
    LF = _inertial_operator(grid, R_s, h, U, params)
    assert LF.shape == (2 * n, 2 * n)
    # Top row blocks are the exact kinematic identity d(R)/dt = Rdot.
    assert np.all(LF[:n, :n] == 0.0)
    assert np.array_equal(LF[:n, n:], np.eye(n))

    V0 = np.zeros(grid.shape)
    rng = np.random.default_rng(5)
    t_R = 1e-7 * params.R0
    t_V = 1e-3
    for _ in range(3):
        v = rng.normal(size=grid.shape)
        v /= np.max(np.abs(v))
        ap, _ = _wall_acceleration(grid, R_s + t_R * v, V0, h, U, params)
        am, _ = _wall_acceleration(grid, R_s - t_R * v, V0, h, U, params)
        fd = ((ap - am) / (2.0 * t_R)).ravel()
        got = LF[n:, :n] @ v.ravel()
        assert np.linalg.norm(got - fd) <= 1e-7 * np.linalg.norm(fd)

        ap, _ = _wall_acceleration(grid, R_s, t_V * v, h, U, params)
        am, _ = _wall_acceleration(grid, R_s, -t_V * v, h, U, params)
        fd = ((ap - am) / (2.0 * t_V)).ravel()
        got = LF[n:, n:] @ v.ravel()
        # The acceleration is affine in the wall velocity at Rdot = 0, so
        # the central difference is exact up to rounding.
        assert np.linalg.norm(got - fd) <= 1e-12 * np.linalg.norm(fd)


def test_inertial_operator_is_the_companion_of_the_quadratic_pencil(
        journal_state):
    # K diag(R_s) times the lower block row of L_F is [B, -P]: L_F is the
    # companion matrix of lam^2 K diag(R_s) + lam P - B
    grid, R_s, h, U, params = journal_state
    n = grid.n_cells
    zero = np.zeros(grid.shape)
    B, P = film_pencil(grid, R_s, zero, h, U, params)
    mobility = film_residual(grid, R_s, zero, h, U, params)[2]
    LF = assemble_LF(R_s, mobility_operator(grid, mobility), B, P)
    K = assemble_operator(grid, eval_f3(R_s, params) * h ** 3)
    got = K @ (R_s.ravel()[:, None] * LF[n:, :])
    expected = np.hstack([B.toarray(), -P.toarray()])
    scale = max(np.abs(B).max(), np.abs(P).max())
    assert np.abs(got - expected).max() <= 1e-13 * scale


def test_separated_spectra_match_dense_assemblies():
    c = compute_derived(TAME)
    grid = Grid(16, 16, 1.0, 1.0, bc_x1=BC_DIRICHLET)
    R = np.full(grid.shape, c.R_bar)
    h = np.full(grid.shape, TAME.h0)
    U_norm = 3.0

    LG = assemble_LG(grid, R, h, (U_norm, 0.0), TAME)
    dense = np.linalg.eigvals(LG)
    separated = constant_gap_spectrum_LG(TAME, U_norm, 16, 16)
    assert separated.size == dense.size
    scale = np.abs(separated).max()
    assert _pair_distance(dense, separated) <= 1e-11 * scale

    LF = _inertial_operator(grid, R, h, (U_norm, 0.0), TAME)
    dense_f = np.linalg.eigvals(LF)
    separated_f = constant_gap_spectrum_LF(TAME, U_norm, 16, 16)
    assert separated_f.size == dense_f.size
    scale_f = np.abs(separated_f).max()
    assert _pair_distance(dense_f, separated_f) <= 1e-11 * scale_f


def test_parallel_gap_massless_spectrum_matches_closed_form():
    eig = np.sort(constant_gap_spectrum_LG(TAME, 0.0, 12, 12).real)
    kappa = np.sort(dirichlet_laplacian_eigenvalues(12, 12, 1.0, 1.0))
    predicted = np.sort(np.array(
        [trivial_LG_eigenvalue(k, TAME) for k in kappa]))
    assert np.max(np.abs(eig - predicted) / np.abs(predicted)) <= 1e-12
    full = constant_gap_spectrum_LG(TAME, 0.0, 12, 12)
    assert np.max(np.abs(full.imag)) == 0.0
    assert full.real.max() < 0.0


@pytest.mark.parametrize("params", [TAME, PhysicalParams()],
                         ids=["tame", "default"])
def test_trivial_branch_inertial_spectrum_matches_root_finder(params):
    c = compute_derived(params)
    got = trivial_branch_spectrum_LF(params, 12, 12)
    kappa = dirichlet_laplacian_eigenvalues(12, 12, 1.0, 1.0)
    expected = []
    for k in kappa:
        gamma = c.b5 * c.b_r / (c.b3 * params.h0 ** 2 * k)
        expected.extend(np.roots([1.0, c.b2 + gamma, c.b1]))
    expected = np.array(expected)
    assert got.size == expected.size
    assert _pair_distance(got, expected) <= 1e-12 * np.abs(expected).max()
    assert np.all(got.real < 0.0)


def test_trivial_branch_roots_satisfy_quadratic():
    params = PhysicalParams()
    c = compute_derived(params)
    kappa = dirichlet_laplacian_eigenvalues(24, 8, 1.3, 0.7)
    for k in kappa:
        gamma = c.b5 * c.b_r / (c.b3 * params.h0 ** 2 * k)
        for lam in trivial_LF_roots(k, params):
            residual = lam * lam + (c.b2 + gamma) * lam + c.b1
            gross = abs(lam) ** 2 + (c.b2 + gamma) * abs(lam) + c.b1
            assert abs(residual) <= 1e-12 * gross
            assert lam.real < 0.0


def test_oscillator_roots_satisfy_vieta():
    # Overdamped branch: huge damping splits the roots by nine decades.
    c = compute_derived(PhysicalParams())
    r1, r2 = _stable_quadratic_roots(c.b2, c.b1)
    assert abs((r1 + r2) / (-c.b2) - 1.0) <= 1e-12
    assert abs((r1 * r2) / c.b1 - 1.0) <= 1e-12
    assert r1.imag == 0.0 and r2.imag == 0.0
    assert r1.real < 0.0 and r2.real < 0.0

    # Underdamped branch: a strictly complex conjugate pair.
    ct = compute_derived(TAME)
    s1, s2 = _stable_quadratic_roots(ct.b2, ct.b1)
    assert s1 == np.conj(s2)
    assert s1.imag != 0.0
    assert abs((s1 + s2) / (-ct.b2) - 1.0) <= 1e-12
    assert abs((s1 * s2) / ct.b1 - 1.0) <= 1e-12


def test_laplacian_eigenvalue_formula_matches_matrix_route():
    for n, dx in ((8, 0.125), (16, 0.031), (5, 1.7)):
        matrix_route = np.linalg.eigvalsh(_dirichlet_second_difference_1d(n, dx))
        formula = np.sort(dirichlet_laplacian_eigenvalues_1d(n, dx))
        assert np.max(np.abs(matrix_route - formula) / formula) <= 1e-12

    # 2D values are all pairwise sums of the 1D ones.
    L1, L2 = 1.3, 0.7
    two_d = np.sort(dirichlet_laplacian_eigenvalues(3, 4, L1, L2))
    e1 = dirichlet_laplacian_eigenvalues_1d(3, L1 / 3)
    e2 = dirichlet_laplacian_eigenvalues_1d(4, L2 / 4)
    by_loops = np.sort(np.array([a + b for a in e1 for b in e2]))
    assert np.allclose(two_d, by_loops, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("params", [TAME, PhysicalParams()],
                         ids=["tame", "default"])
def test_sigma_constants_identity(params):
    c = compute_derived(params)
    sigma1, sigma2 = sigma_constants(params)
    assert sigma2 > 0.0
    assert abs(sigma2 / (c.b5 * c.b_r / (c.b3 * params.h0 ** 2)) - 1.0) <= 1e-14
    # -f4' == b5 for this model family, which collapses sigma1 to sigma2^2.
    assert abs(sigma1 / sigma2 ** 2 - 1.0) <= 1e-12


def _exact_det(M):
    """Cofactor-expansion determinant over exact Fractions."""
    if len(M) == 1:
        return M[0][0]
    total = Fraction(0)
    for j in range(len(M)):
        if M[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _exact_det(minor)
    return total


def test_hurwitz_closed_forms_equal_direct_determinants():
    rng = np.random.default_rng(11)
    for draw in range(50):
        p_bnd = rng.uniform(500.0, 2000.0)
        rho_l = rng.uniform(500.0, 2000.0)
        params = PhysicalParams(
            rho_l=rho_l, mu_l=rng.uniform(0.05, 5.0),
            rho_g=rng.uniform(0.5, min(900.0, rho_l)),
            mu_g=rng.uniform(1e-3, 0.1),
            kappa_s=rng.uniform(0.0, 0.05),
            k_poly=float(rng.choice([1.0, 1.4])),
            sigma=rng.uniform(0.3, 3.0),
            P0=p_bnd * rng.uniform(1.01, 1.5), p_bnd=p_bnd,
            R0=rng.uniform(0.02, 0.2), alpha0=rng.uniform(0.01, 0.4),
            J_r=1.0, B=1.0, h0=rng.uniform(1.0 / 64.0, 1.0 / 8.0),
            ecc=0.0, omega=0.0)
        k = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        report = hurwitz_analysis(params, rng.uniform(0.0, 20.0), k)

        a0 = Fraction(report.alpha0)
        b0 = Fraction(report.beta0)
        a1 = Fraction(report.alpha1)
        b1 = Fraction(report.beta1)
        a2 = Fraction(report.alpha2)
        d1 = b0
        d2 = b0 * a1 - a0 * b1
        d3 = d2 * b1 - b0 * b0 * a2
        d4 = a2 * d3
        H = [[b0, b1, 0, 0], [a0, a1, a2, 0],
             [0, b0, b1, 0], [0, a0, a1, a2]]
        direct = [_exact_det([row[:m] for row in H[:m]]) for m in (1, 2, 3, 4)]
        # Closed forms and leading principal minors agree exactly, and the
        # last minor factors exactly through the constant coefficient.
        assert [d1, d2, d3, d4] == direct, f"draw {draw}"
        assert direct[3] == a2 * direct[2]
        assert report.deltas[3] == report.alpha2 * report.deltas[2]

        gross2 = float(b0 * a1 + a0 * b1)
        gross3 = float(abs(d2)) * float(b1) + float(b0) ** 2 * float(abs(a2))
        grosses = (float(b0), gross2, gross3, float(abs(a2)) * gross3)
        for floats in (report.deltas, report.deltas_direct):
            for value, exact, gross in zip(floats, direct, grosses):
                assert abs(value - float(exact)) <= 1e-12 * max(gross, 1e-300)


def test_hurwitz_critical_speed_zeroes_third_determinant():
    report0 = hurwitz_analysis(TAME, 0.0, (1, 1))
    u_crit = float(np.sqrt(report0.U_crit_sq))

    at = hurwitz_analysis(TAME, u_crit, (1, 1))
    gross = abs(at.deltas[1]) * at.beta1 + at.beta0 ** 2 * abs(at.alpha2)
    assert abs(at.deltas[2]) <= 1e-12 * gross

    low = hurwitz_analysis(TAME, 0.9 * u_crit, (1, 1))
    high = hurwitz_analysis(TAME, 1.1 * u_crit, (1, 1))
    assert low.deltas[2] > 0.0 > high.deltas[2]
    assert low.sign_changes == 0
    assert high.sign_changes == 2
    # Independent count of open-right-half-plane roots of the quartic.
    for report in (low, high):
        roots = np.roots([report.alpha0, report.beta0, report.alpha1,
                          report.beta1, report.alpha2])
        assert int(np.sum(roots.real > 0.0)) == report.sign_changes


def test_critical_speed_minimizes_over_modes():
    u_crit = critical_speed(TAME)
    assert u_crit == pytest.approx(8.648208542983802, rel=1e-9)
    thresholds = [hurwitz_analysis(TAME, 0.0, k).U_crit_sq
                  for k in ((1, 1), (1, 2), (2, 2), (3, 1))]
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))


@given(L1=st.floats(0.1, 10.0), L2=st.floats(0.1, 10.0),
       alpha0=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
def test_fundamental_mode_has_the_smallest_threshold(L1, L2, alpha0):
    # critical_speed evaluates mode (1, 1) alone: no mode with indices up
    # to 8 may have a lower threshold on any rectangle
    params = PhysicalParams(alpha0=alpha0)
    fundamental = hurwitz_analysis(params, 0.0, (1, 1), L1, L2).U_crit_sq
    for k1 in range(1, 9):
        for k2 in range(1, 9):
            other = hurwitz_analysis(params, 0.0, (k1, k2), L1, L2)
            assert fundamental <= other.U_crit_sq, (k1, k2)
    assert critical_speed(params, L1, L2) == np.sqrt(fundamental)


@pytest.mark.parametrize("L1,L2", [(2.0, 0.5), (3.0, 1.0)])
def test_critical_speed_of_the_rectangle_flips_its_spectrum(L1, L2):
    # The modal threshold of an L1 x L2 rectangle uses its own Laplacian
    # eigenvalue pi^2 (k1^2/L1^2 + k2^2/L2^2); the separated inertial
    # spectrum on that rectangle turns unstable between 0.9 and 1.1 times it.
    u_crit = critical_speed(TAME, L1=L1, L2=L2)
    report = hurwitz_analysis(TAME, 0.0, (1, 1), L1=L1, L2=L2)
    kappa = np.pi ** 2 * (1.0 / L1 ** 2 + 1.0 / L2 ** 2)
    assert report.alpha0 == pytest.approx(4.0 * kappa, rel=1e-14)
    low = constant_gap_spectrum_LF(TAME, 0.9 * u_crit, 32, 32, L1, L2)
    high = constant_gap_spectrum_LF(TAME, 1.1 * u_crit, 32, 32, L1, L2)
    assert low.real.max() < -1e-3
    assert high.real.max() > 1e-3


def test_hurwitz_rejects_nonpositive_mode_indices():
    for k in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ConfigurationError):
            hurwitz_analysis(TAME, 1.0, k)


def test_inertial_spectrum_flips_across_critical_speed():
    u_crit = critical_speed(TAME)
    low = constant_gap_spectrum_LF(TAME, 0.9 * u_crit, 32, 32)
    high = constant_gap_spectrum_LF(TAME, 1.1 * u_crit, 32, 32)
    assert low.real.max() < -1e-3
    assert high.real.max() > 1e-3
    # The massless hierarchy stays firmly stable at the same speed.
    massless = constant_gap_spectrum_LG(TAME, 1.1 * u_crit, 32, 32)
    assert massless.real.max() < -1.0


def test_verdict_classification(monkeypatch):
    stable = compute_spectrum(np.diag([-1.0, -2.0]))
    assert stable.verdict == VERDICT_STABLE
    assert stable.max_real_part == -1.0
    assert compute_spectrum(np.diag([-1.0, 1e-3])).verdict == VERDICT_UNSTABLE
    assert compute_spectrum(np.diag([-1.0, 1e-12])).verdict == VERDICT_MARGINAL
    # A wider margin widens the marginal band.
    monkeypatch.setattr("filmcav.stability.VERDICT_MARGIN", 1.5)
    wide = compute_spectrum(np.diag([-1.0, -2.0]))
    assert wide.verdict == VERDICT_MARGINAL


def test_spectrum_input_validation():
    with pytest.raises(ConfigurationError):
        compute_spectrum(np.zeros((3, 4)))


def test_spectrum_csv_round_trip():
    report = compute_spectrum(np.array([[0.0, -2.5], [2.5, -1e-7]]))
    lines = render_spectrum_csv(report).strip().split("\n")
    assert lines[0] == "re,im"
    assert len(lines) == 1 + report.eigenvalues.size
    parsed = np.array([[float(tok) for tok in line.split(",")]
                       for line in lines[1:]])
    back = parsed[:, 0] + 1j * parsed[:, 1]
    assert _pair_distance(back, report.eigenvalues) <= 1e-10 * 2.5


def test_journal_spectrum_approaches_parallel_limit():
    base_params = PhysicalParams(ecc=0.0)
    grid = grid_for_params(base_params, 16, 8)
    c = compute_derived(base_params)
    U = (base_params.surface_speed, 0.0)
    R_flat = np.full(grid.shape, c.R_bar)
    h_flat = gap_function(grid, base_params)
    base = np.linalg.eigvals(assemble_LG(grid, R_flat, h_flat, U, base_params))
    scale = np.abs(base).max()

    distances = []
    for ecc in (0.04, 0.02, 0.01):
        params = PhysicalParams(ecc=ecc)
        h = gap_function(grid, params)
        R_s, _, report = solve_stationary(grid, h, U, params)
        assert report.converged
        eig = np.linalg.eigvals(assemble_LG(grid, R_s, h, U, params))
        distances.append(_pair_distance(base, eig))
    assert distances[0] > distances[1] > distances[2]
    assert distances[2] <= 0.02 * scale


def test_hurwitz_report_text_lists_both_determinant_routes():
    text = hurwitz_report_text(hurwitz_analysis(TAME, 2.0, (1, 2)))
    assert "mode k = (1, 2)" in text
    assert "determinants (closed form):" in text
    assert "determinants (direct):" in text
    assert "sign changes" in text
    assert "critical speed for this mode:" in text


# ---------------------------------------------------------------------------
# Certified rightmost eigenvalues of a sparse pencil
# ---------------------------------------------------------------------------

def _known_pencil(real_eigs, pairs=(), seed=0):
    """A sparse pencil ``(B, P)`` with known eigenvalues: ``P^{-1} B = T``
    is block upper triangular, with the real eigenvalues as 1x1 blocks and
    each pair ``a +- b i`` as a block ``[[a, b], [-b, a]]``, in a shuffled
    order and coupled by a second superdiagonal (so ``T`` is not normal);
    ``P`` is a diagonally dominant random tridiagonal matrix."""
    rng = np.random.default_rng(seed)
    blocks = ([np.array([[x]]) for x in real_eigs]
              + [np.array([[a, b], [-b, a]]) for a, b in pairs])
    T = sp.block_diag([blocks[i] for i in rng.permutation(len(blocks))])
    n = T.shape[0]
    T = T + sp.diags(rng.uniform(-50.0, 50.0, n - 2), 2)
    P = sp.diags([rng.uniform(-1.0, 1.0, n - 1),
                  rng.uniform(4.0, 5.0, n),
                  rng.uniform(-1.0, 1.0, n - 1)], [-1, 0, 1])
    return (P @ T).tocsc(), P.tocsc(), T.toarray()


def _stable_set(count=120, pair_count=20, seed=0):
    rng = np.random.default_rng(seed)
    real = list(-np.geomspace(50.0, 2500.0, count))
    pairs = list(zip(rng.uniform(-2500.0, -60.0, pair_count),
                     rng.uniform(1.0, 500.0, pair_count)))
    return real, pairs


def _check_certificate(report, spectrum):
    """Listed eigenvalues belong to the spectrum, the listed maximum is the
    maximum of the spectrum, and every unlisted one is within the bound."""
    scale = np.abs(spectrum).max()
    for lam in report.eigenvalues:
        assert np.abs(spectrum - lam).min() <= 1e-9 * max(abs(lam), 1e-3 * scale)
    top = spectrum.real.max()
    assert abs(report.max_real_part - top) <= 1e-10 * max(abs(top), 1e-3 * scale)
    listed = np.array([np.abs(report.eigenvalues - z).min()
                       <= 1e-9 * max(abs(z), 1e-3 * scale) for z in spectrum])
    assert listed.sum() == report.eigenvalues.size
    assert np.all(spectrum[~listed].real
                  <= report.bound + 1e-9 * abs(report.bound))
    # conjugate pairs whole, real eigenvalues with a +0 imaginary part
    lam = report.eigenvalues
    for z in lam[lam.imag != 0.0]:
        assert np.conj(z) in lam
    assert not np.any(np.signbit(lam.imag[lam.imag == 0.0]))


@pytest.mark.parametrize("extra,verdict", [
    ((), VERDICT_STABLE),
    ((5e3,), VERDICT_UNSTABLE),
    ((1e-3,), VERDICT_UNSTABLE),
    ((0.0,), VERDICT_MARGINAL),
    ((1e-12,), VERDICT_MARGINAL),
], ids=["stable", "far-unstable", "near-unstable", "zero", "inside-margin"])
def test_pencil_spectrum_is_certified_on_known_pencils(extra, verdict):
    real, pairs = _stable_set()
    B, P, T = _known_pencil(real + list(extra), pairs)
    report = pencil_spectrum(B, P)
    dense = compute_spectrum(T)
    assert report.verdict == dense.verdict == verdict
    _check_certificate(report, dense.eigenvalues)
    assert report.bound < 0.0
    assert report.eigenvalues.size in (RIGHTMOST_COUNT, RIGHTMOST_COUNT + 1)


def test_pencil_spectrum_of_a_small_pencil_lists_all_but_two():
    B, P, T = _known_pencil([-1.0, -3.0, -7.0, -20.0], [(-2.0, 5.0),
                                                       (-40.0, 1.0)], seed=3)
    report = pencil_spectrum(B, P)
    assert report.eigenvalues.size in (6, 7)
    _check_certificate(report, np.linalg.eigvals(T))


def test_pencil_spectrum_raises_the_pole_past_far_complex_eigenvalues():
    # at the first pole 2 rho the ten pairs -55 +- (2000..2500) i have
    # larger |theta| than the rightmost eigenvalue -50 and fill the list;
    # their real parts are below the bound, so the pole is raised
    real, _ = _stable_set()
    pairs = [(-55.0, b) for b in np.linspace(2000.0, 2500.0, 10)]
    B, P, T = _known_pencil(real, pairs, seed=1)
    report = pencil_spectrum(B, P)
    assert report.max_real_part == pytest.approx(-50.0, rel=1e-10)
    _check_certificate(report, np.linalg.eigvals(T))


def test_pencil_spectrum_holds_one_factor_at_a_time(monkeypatch):
    # on the pencil above, whose first Cayley attempt is refused, the raise
    # releases that attempt's factor before it factors at the new pole, and
    # no factor outlives the call
    live, peak, built = [0], [0], []
    factorize = stability._factorize

    class Counted:
        def __init__(self, lu):
            self._lu = lu
            live[0] += 1
            peak[0] = max(peak[0], live[0])
            built.append(1)

        def solve(self, rhs):
            return self._lu.solve(rhs)

        def __del__(self):
            live[0] -= 1

    monkeypatch.setattr(stability, "_factorize",
                        lambda A: Counted(factorize(A)))
    real, _ = _stable_set()
    pairs = [(-55.0, b) for b in np.linspace(2000.0, 2500.0, 10)]
    B, P, T = _known_pencil(real, pairs, seed=1)
    report = pencil_spectrum(B, P)
    _check_certificate(report, np.linalg.eigvals(T))
    assert len(built) == 3           # the pole estimate and two poles
    assert peak[0] == 1
    assert live[0] == 0


def test_pencil_spectrum_reports_a_failed_cayley_factorization(monkeypatch):
    # the pole estimate factors P; every Cayley factor after it fails, at
    # each pole in turn, and the refusal names the sparse LU
    calls = []
    factorize = stability._factorize

    def failing(A):
        calls.append(1)
        if len(calls) > 1:
            raise SolverFailureError("sparse LU failed: Factor is exactly "
                                     "singular")
        return factorize(A)

    monkeypatch.setattr(stability, "_factorize", failing)
    real, pairs = _stable_set()
    B, P, _ = _known_pencil(real, pairs)
    with pytest.raises(SolverFailureError,
                       match="not certified.*sparse LU failed"):
        pencil_spectrum(B, P)
    assert len(calls) == 2 + stability.POLE_RAISES


def test_pencil_spectrum_refuses_inaccurate_eigenpairs(monkeypatch):
    monkeypatch.setattr("filmcav.stability.BACKWARD_ERROR_TOL", 1e-30)
    real, pairs = _stable_set()
    B, P, _ = _known_pencil(real, pairs)
    with pytest.raises(SolverFailureError, match="backward error"):
        pencil_spectrum(B, P)


def test_pencil_spectrum_refuses_to_certify_a_crowded_right_half_plane():
    # more unstable eigenvalues than listed ones: every pole leaves some
    # unlisted eigenvalue outside the unit circle, so nothing bounds them
    real, pairs = _stable_set()
    B, P, _ = _known_pencil(real + list(np.linspace(1.0, 20.0, 20)), pairs)
    with pytest.raises(SolverFailureError, match="not certified"):
        pencil_spectrum(B, P)


def test_pencil_spectrum_rejects_mismatched_matrices():
    with pytest.raises(ConfigurationError):
        pencil_spectrum(sp.identity(6), sp.identity(5))
    with pytest.raises(ConfigurationError):
        pencil_spectrum(sp.identity(2), sp.identity(2))


@pytest.mark.parametrize("ecc", [0.2, 0.4])
def test_pencil_spectrum_matches_dense_growth_operator(ecc):
    params = PhysicalParams(ecc=ecc)
    grid = grid_for_params(params, 32, 16)
    h = gap_function(grid, params)
    U = (params.surface_speed, 0.0)
    R_s, _, report = solve_stationary(grid, h, U, params)
    assert report.converged
    B, P = film_pencil(grid, R_s, np.zeros(grid.shape), h, U, params)
    sparse = pencil_spectrum(B, P)
    dense = compute_spectrum(assemble_LG(grid, R_s, h, U, params))
    assert sparse.verdict == dense.verdict == VERDICT_STABLE
    _check_certificate(sparse, dense.eigenvalues)


def _mirror_state(ecc, n1, n2, bc=BC_PERIODIC):
    """The stationary state as the stability run solves it, on the mirror
    half of a journal grid and unfolded, with the whole grid's pencil."""
    params = PhysicalParams(ecc=ecc)
    grid = grid_for_params(params, n1, n2, bc)
    half = mirror_half(grid)
    U = (params.surface_speed, 0.0)
    R_s, _, report = solve_stationary(half, gap_function(half, params), U,
                                      params)
    assert report.converged
    R_s, h = unfold(half, R_s), gap_function(grid, params)
    B, P = film_pencil(grid, R_s, np.zeros(grid.shape), h, U, params)
    return grid, half, R_s, h, U, params, B, P


@pytest.mark.parametrize("ecc", [0.2, 0.4])
@pytest.mark.parametrize("bc", [BC_PERIODIC, BC_DIRICHLET])
def test_mirror_blocks_hold_the_whole_pencil_spectrum(bc, ecc):
    grid, half, *_, B, P = _mirror_state(ecc, 16, 8, bc)
    # the premise: the pencil commutes with the mirror permutation
    mirror = np.arange(grid.n_cells).reshape(grid.shape)[:, ::-1].ravel()
    for M in (B, P):
        assert abs(M - M[mirror][:, mirror]).max() <= 1e-14 * abs(M).max()
    whole = scipy.linalg.eigvals(B.toarray(), P.toarray())
    blocks = _mirror_blocks(half, B, P)
    assert [b.shape for pencil in blocks for b in pencil] == [(64, 64)] * 4
    folded = np.concatenate([scipy.linalg.eigvals(b.toarray(), p.toarray())
                             for b, p in blocks])
    # one to one by assignment: sorting mismatches near-degenerate pairs
    cost = np.abs(whole[:, None] - folded[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert rows.size == whole.size == folded.size
    assert cost[rows, cols].max() <= 1e-12 * np.abs(whole).max()


@pytest.mark.parametrize("ecc", [0.2, 0.4])
def test_mirror_block_spectra_certify_the_whole_pencil(ecc):
    # each block certified on its own certifies the union: its largest
    # real part is the whole pencil's, every listed eigenvalue is one of
    # the dense L_G, and the larger bound holds every unlisted one
    grid, half, R_s, h, U, params, B, P = _mirror_state(ecc, 32, 16)
    union = mirror_spectrum(half, B, P)
    whole = pencil_spectrum(B, P)
    assert union.max_real_part == pytest.approx(whole.max_real_part,
                                                 rel=1e-10)
    dense = compute_spectrum(assemble_LG(grid, R_s, h, U, params)).eigenvalues
    scale = np.abs(dense).max()
    listed = union.eigenvalues
    near = np.abs(dense[:, None] - listed[None, :]) <= 1e-9 * np.maximum(
        np.abs(listed), 1e-3 * scale)
    assert np.all(near.any(axis=0))
    bound = union.bound
    assert bound < union.max_real_part
    assert np.all(dense[~near.any(axis=1)].real <= bound + 1e-9 * abs(bound))


def test_mirror_spectrum_reports_an_unstable_antisymmetric_block():
    # B = D + c J with D diagonal and mirror-symmetric and J the mirror
    # permutation: the symmetric block is D + c, the antisymmetric D - c,
    # so c = -2 keeps the first stable and lifts the second's top to 1.5
    half = mirror_half(Grid(16, 8, 1.0, 1.0))
    n = 2 * half.n_cells
    d = unfold(half, -(np.arange(half.n_cells) + 0.5).reshape(half.shape))
    mirror = np.arange(n).reshape(half.n1, 2 * half.n2)[:, ::-1].ravel()
    J = sp.csr_matrix((np.ones(n), (np.arange(n), mirror)), shape=(n, n))
    B = (sp.diags(d.ravel()) - 2.0 * J).tocsr()
    P = sp.identity(n, format="csr")
    sym, anti = [pencil_spectrum(*block)
                 for block in _mirror_blocks(half, B, P)]
    assert sym.verdict == VERDICT_STABLE
    assert anti.verdict == VERDICT_UNSTABLE
    union = mirror_spectrum(half, B, P)
    assert union.verdict == VERDICT_UNSTABLE
    assert union.max_real_part == anti.max_real_part
    assert union.max_real_part == pytest.approx(1.5, rel=1e-10)
    assert union.bound == max(sym.bound, anti.bound)
    assert union.factorizations == sym.factorizations + anti.factorizations
    assert union.applications == sym.applications + anti.applications
    assert np.array_equal(union.eigenvalues, np.sort_complex(
        np.concatenate([sym.eigenvalues, anti.eigenvalues])))


@pytest.mark.parametrize("factor", [0.0, 1.1])
def test_pencil_spectrum_matches_separated_parallel_gap_spectrum(factor):
    c = compute_derived(TAME)
    u_crit = critical_speed(TAME)
    U_norm = factor * u_crit
    grid = Grid(128, 32, 1.0, 1.0, bc_x1=BC_DIRICHLET)
    R = np.full(grid.shape, c.R_bar)
    h = np.full(grid.shape, TAME.h0)
    B, P = film_pencil(grid, R, np.zeros(grid.shape), h, (U_norm, 0.0), TAME)
    sparse = pencil_spectrum(B, P)
    separated = constant_gap_spectrum_LG(TAME, U_norm, 128, 32)
    assert sparse.verdict == VERDICT_STABLE
    _check_certificate(sparse, separated)


@pytest.mark.parametrize("ecc", [0.3, 0.4])
@pytest.mark.parametrize("bc", [BC_PERIODIC, BC_DIRICHLET])
def test_growth_pencil_splits_into_local_relaxation_and_a_first_order_rest(
        bc, ecc):
    # at S = 0 the K diag(f1') parts of B and P diag(m) cancel, with
    # m = f1' / (R f2) a bubble's relaxation rate at frozen film pressure:
    # B - P diag(m) = -Dsens(f3' h^3, f1) + C(h f5) + diag(h f5 m), the
    # splitting behind the essential spectrum of L_G (the range of m)
    params = PhysicalParams(ecc=ecc)
    grid = Grid(16, 8, 2.0 * np.pi * params.J_r, params.B, bc_x1=bc)
    R = params.R0 * np.random.default_rng(73).uniform(0.8, 1.2, grid.shape)
    h, U = gap_function(grid, params), (params.surface_speed, 0.0)
    B, P = film_pencil(grid, R, np.zeros(grid.shape), h, U, params)
    f1, f2 = eval_wall(R, params)
    m = eval_f1_prime(R, params) / (R * f2)
    hf5 = h * eval_f5(R, params)
    rest = (-diffusion_sensitivity(grid, eval_f3_prime(R, params) * h ** 3, f1)
            + convective_divergence_matrix(grid, U, hf5)
            + sp.diags((hf5 * m).ravel()))
    assert abs(B - P @ sp.diags(m.ravel()) - rest).max() <= 1e-13 * abs(B).max()
