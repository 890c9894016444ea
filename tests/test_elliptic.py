"""Finite-volume diffusion/convection operators and the SPD solves.

The assembled matrices are checked against independent per-cell flux loops
(written out with explicit ghost values), against manufactured smooth
solutions under grid refinement, and against exact linearity/duality
identities of the discrete operators.  The structural properties (symmetry
and definiteness, agreement of matrix and field forms, conservation, exact
derivatives) are checked as ``hypothesis`` properties over drawn grid
shapes, domain lengths and velocities, each with the original hand-picked
case kept as an explicit example.
"""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given
from hypothesis import strategies as st

import filmcav.dynamics as dynamics
import filmcav.elliptic as elliptic
import filmcav.physics as physics
from filmcav.elliptic import (film_pencil, film_residual, mobility_operator,
                              solve_spd)
from filmcav.errors import ConfigurationError, SolverFailureError
from filmcav.grid import (BC_DIRICHLET, BC_PERIODIC, Grid, gap_function,
                          mirror_half, unfold)
from filmcav.physics import PhysicalParams, eval_f1_prime
from filmcav.stationary import stationary_residual
from oracles import (apply_A2, assemble_operator, centers,
                     convective_divergence,
                     convective_divergence_matrix,
                     diffusion_sensitivity, eval_f1, eval_f2, eval_f2_prime,
                     eval_f3, eval_f3_prime, eval_f4,
                     eval_f4_prime, eval_f5, eval_f5_prime, field_norms)

DEFAULT = PhysicalParams()

#: boundary cases of the convection tests; their ids also name the one
#: convection scheme, first-order upwind
UPWIND_BCS = pytest.mark.parametrize("bc", [BC_PERIODIC, BC_DIRICHLET],
                                     ids=lambda bc: f"{bc}-upwind")

SHAPES = st.tuples(st.integers(4, 12), st.integers(4, 12))
LENGTHS = st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0))
SEEDS = st.integers(0, 2 ** 32 - 1)
#: one velocity component: zero, or either sign
SPEEDS = st.one_of(st.just(0.0), st.floats(0.1, 3.0), st.floats(-3.0, -0.1))


def apply_diffusion_by_loops(grid, c, q):
    """-Div(c grad q) via explicit neighbour loops (independent oracle).

    Face coefficients are arithmetic means; a missing neighbour across a
    Dirichlet edge is a ghost cell carrying value -q and the cell's own
    coefficient, so the face value vanishes.
    """
    n1, n2 = grid.shape
    out = np.zeros((n1, n2))
    periodic = grid.bc_x1 == BC_PERIODIC
    for i in range(n1):
        for j in range(n2):
            acc = 0.0
            for di in (-1, +1):
                ii = i + di
                if 0 <= ii < n1:
                    cf = 0.5 * (c[i, j] + c[ii, j])
                    acc += cf * (q[i, j] - q[ii, j]) / grid.dx1 ** 2
                elif periodic:
                    ii %= n1
                    cf = 0.5 * (c[i, j] + c[ii, j])
                    acc += cf * (q[i, j] - q[ii, j]) / grid.dx1 ** 2
                else:
                    acc += c[i, j] * 2.0 * q[i, j] / grid.dx1 ** 2
            for dj in (-1, +1):
                jj = j + dj
                if 0 <= jj < n2:
                    cf = 0.5 * (c[i, j] + c[i, jj])
                    acc += cf * (q[i, j] - q[i, jj]) / grid.dx2 ** 2
                else:
                    acc += c[i, j] * 2.0 * q[i, j] / grid.dx2 ** 2
            out[i, j] = acc
    return out


@pytest.mark.parametrize("bc", [BC_PERIODIC, BC_DIRICHLET])
def test_assembled_matrix_matches_loop_oracle(bc):
    rng = np.random.default_rng(11)
    grid = Grid(6, 5, 1.4, 0.9, bc_x1=bc)
    for _ in range(5):
        c = rng.uniform(0.5, 2.0, size=grid.shape)
        q = rng.normal(size=grid.shape)
        K = assemble_operator(grid, c)
        got = (K @ q.ravel()).reshape(grid.shape)
        assert np.allclose(got, apply_diffusion_by_loops(grid, c, q),
                           rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("bc", [BC_PERIODIC, BC_DIRICHLET])
@given(shape=SHAPES, lengths=LENGTHS, seed=SEEDS)
@example(shape=(6, 6), lengths=(1.0, 2.0), seed=3)
def test_assembled_matrix_is_spd(bc, shape, lengths, seed):
    rng = np.random.default_rng(seed)
    grid = Grid(*shape, *lengths, bc_x1=bc)
    K = assemble_operator(grid, rng.uniform(0.2, 3.0, size=grid.shape))
    asym = (K - K.T).toarray()
    assert np.max(np.abs(asym)) == 0.0
    eigs = np.linalg.eigvalsh(K.toarray())
    assert eigs.min() > 0.0


def test_assembly_rejects_nonpositive_coefficient():
    grid = Grid(4, 4, 1.0, 1.0)
    c = np.ones(grid.shape)
    c[1, 1] = 0.0
    with pytest.raises(ConfigurationError):
        assemble_operator(grid, c)
    c[1, 1] = -0.5
    with pytest.raises(ConfigurationError):
        assemble_operator(grid, c)


def test_variable_coefficient_solution_is_second_order():
    # Manufactured solution on the unit square, periodic in x1, ambient at
    # the x2 edges: p = sin(2 pi x) sin(pi y) with mobility
    # c = 1.5 + 0.5 sin(2 pi x) sin(pi y).
    def exact(x, y):
        return np.sin(2 * np.pi * x) * np.sin(np.pi * y)

    def coeff(x, y):
        return 1.5 + 0.5 * np.sin(2 * np.pi * x) * np.sin(np.pi * y)

    def forcing(x, y):
        sx, cx = np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)
        sy, cy = np.sin(np.pi * y), np.cos(np.pi * y)
        c = 1.5 + 0.5 * sx * sy
        c_x = np.pi * cx * sy
        c_y = 0.5 * np.pi * sx * cy
        p_x = 2 * np.pi * cx * sy
        p_y = np.pi * sx * cy
        p_xx = -4 * np.pi ** 2 * sx * sy
        p_yy = -np.pi ** 2 * sx * sy
        return -(c_x * p_x + c * p_xx + c_y * p_y + c * p_yy)

    errors = []
    for n in (16, 32, 64):
        grid = Grid(n, n, 1.0, 1.0)
        X, Y = centers(grid)
        K = assemble_operator(grid, coeff(X, Y))
        u = solve_spd(K, forcing(X, Y), grid)
        errors.append(field_norms(grid, u - exact(X, Y))["L2"])
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.9), f"observed orders {orders}"


@UPWIND_BCS
@given(shape=SHAPES, lengths=LENGTHS, U=st.tuples(SPEEDS, SPEEDS), seed=SEEDS)
@example(shape=(6, 5), lengths=(1.1, 0.8), U=None, seed=19)
def test_convective_matrix_agrees_with_field_form(bc, shape, lengths, U,
                                                  seed):
    # Div(U w S) assembled as a matrix in S must match the field form of
    # the product w*S: every face rule is linear in the transported value,
    # on every boundary.
    rng = np.random.default_rng(seed)
    grid = Grid(*shape, *lengths, bc_x1=bc)
    velocities = ([U] if U is not None else
                  [(2.0, 0.7), (-1.3, -0.5), (1.5, -2.0), (0.0, 1.0),
                   (1.0, 0.0)])
    for U in velocities:
        w = rng.normal(size=grid.shape)
        S = rng.normal(size=grid.shape)
        M = convective_divergence_matrix(grid, U, w)
        got = (M @ S.ravel()).reshape(grid.shape)
        want = convective_divergence(grid, U, w * S)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-13)


@UPWIND_BCS
def test_cached_upwind_faces_follow_the_velocity_signs(bc):
    # the upwind side of every face is cached per grid and signs of U:
    # velocities of opposite signs, back to back on one grid, must each
    # match the oracle, which decides every face's upwind side itself
    rng = np.random.default_rng(61)
    grid = Grid(7, 5, 1.3, 0.9, bc_x1=bc)
    w = rng.uniform(0.5, 1.5, size=grid.shape)
    for U in ((1.7, 0.0), (-1.7, 0.0), (0.0, 1.7), (1.7, -1.7), (0.0, 0.0)):
        want = (convective_divergence_matrix(grid, U, np.ones(grid.shape))
                @ w.ravel())
        got = convective_divergence(grid, U, w).ravel()
        np.testing.assert_allclose(got, want, rtol=1e-13, err_msg=str(U),
                                   atol=1e-13 * np.abs(want).max())


def test_constant_transported_field_has_zero_divergence():
    for bc in (BC_PERIODIC, BC_DIRICHLET):
        grid = Grid(5, 6, 1.0, 1.0, bc_x1=bc)
        div = convective_divergence(grid, (1.7, -0.4),
                                    np.full(grid.shape, 2.25))
        assert np.max(np.abs(div)) < 1e-13


@given(shape=SHAPES, lengths=LENGTHS, u=SPEEDS.filter(bool), seed=SEEDS)
@example(shape=(8, 5), lengths=(2.0, 1.0), u=1.0, seed=5)
@example(shape=(8, 5), lengths=(2.0, 1.0), u=-2.5, seed=5)
def test_periodic_convection_telescopes_to_zero_total(shape, lengths, u, seed):
    # Flow along the periodic direction only: every face flux leaves one
    # cell and enters another, so the total divergence vanishes and so does
    # every column sum of the matrix form (mass is conserved for any S).
    rng = np.random.default_rng(seed)
    grid = Grid(*shape, *lengths, bc_x1=BC_PERIODIC)
    w = rng.normal(size=grid.shape)
    div = convective_divergence(grid, (u, 0.0), w)
    assert abs(div.sum()) < 1e-12 * np.abs(div).max()
    C = convective_divergence_matrix(grid, (u, 0.0), w)
    column_sums = np.asarray(C.sum(axis=0)).ravel()
    assert np.max(np.abs(column_sums)) <= 1e-12 * abs(C).max()


def test_convection_scheme_orders():
    # Smooth periodic profile advected along x1: the upwind face is
    # first-order accurate.
    def profile(x):
        return np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)

    def derivative(x):
        return 2 * np.pi * np.cos(2 * np.pi * x) - 1.2 * np.pi * np.sin(4 * np.pi * x)

    u = 1.8
    err = []
    for n in (32, 64, 128):
        grid = Grid(n, 4, 1.0, 1.0, bc_x1=BC_PERIODIC)
        X, _ = centers(grid)
        div = convective_divergence(grid, (u, 0.0), profile(X))
        err.append(np.max(np.abs(div - u * derivative(X))))
    orders = np.log2(np.array(err[:-1]) / np.array(err[1:]))
    assert np.all(orders > 0.85), orders


@pytest.mark.parametrize("bc", [BC_PERIODIC, BC_DIRICHLET])
@given(shape=SHAPES, lengths=LENGTHS, seed=SEEDS)
@example(shape=(6, 5), lengths=(1.2, 0.9), seed=23)
def test_diffusion_sensitivity_is_the_exact_derivative(bc, shape, lengths,
                                                       seed):
    # The assembly is linear in its coefficient, so a symmetric difference
    # of K(c +/- t cp S) q recovers Div(cp S grad q) to rounding.
    rng = np.random.default_rng(seed)
    grid = Grid(*shape, *lengths, bc_x1=bc)
    c = rng.uniform(1.0, 2.0, size=grid.shape)
    cp = rng.uniform(-0.3, 0.3, size=grid.shape)
    q = rng.normal(size=grid.shape)
    S = rng.uniform(-0.5, 0.5, size=grid.shape)
    M = diffusion_sensitivity(grid, cp, q)
    got = M @ S.ravel()
    t = 0.5
    hi = assemble_operator(grid, c + t * cp * S) @ q.ravel()
    lo = assemble_operator(grid, c - t * cp * S) @ q.ravel()
    want = -(hi - lo) / (2.0 * t)
    assert np.allclose(got, want, rtol=1e-11, atol=1e-11)


def test_solve_matches_dense_reference():
    rng = np.random.default_rng(31)
    grid = Grid(6, 6, 1.0, 1.0)
    K = assemble_operator(grid, rng.uniform(0.5, 2.0, size=grid.shape))
    b = rng.normal(size=grid.n_cells)
    x = solve_spd(K, b, grid)
    ref = np.linalg.solve(K.toarray(), b)
    assert np.allclose(x.ravel(), ref, rtol=1e-10, atol=1e-12)
    # a repeated solve returns the same answer
    assert np.array_equal(solve_spd(K, b, grid), x)


def test_solve_rejects_wrong_sized_rhs():
    grid = Grid(4, 4, 1.0, 1.0)
    K = assemble_operator(grid, np.ones(grid.shape))
    with pytest.raises(ConfigurationError):
        solve_spd(K, np.ones(grid.n_cells + 1), grid)


def test_singular_matrix_is_a_solver_failure():
    # SuperLU reports an exactly singular matrix as a bare RuntimeError;
    # the solve turns it into the package's numerical-failure error.
    grid = Grid(4, 4, 1.0, 1.0)
    zero = sp.csr_matrix((grid.n_cells, grid.n_cells))
    with pytest.raises(SolverFailureError, match="singular"):
        solve_spd(zero, np.ones(grid.n_cells), grid)


def test_residual_check_rejects_a_wrong_factorization(monkeypatch):
    # A factorization of 1.001 K solves K x = b with relative residual
    # about 1e-3, far above RESIDUAL_TOL: the check must catch it.
    rng = np.random.default_rng(41)
    grid = Grid(16, 16, 1.0, 1.0)
    K = assemble_operator(grid, rng.uniform(0.5, 2.0, size=grid.shape))
    b = rng.normal(size=grid.n_cells)
    splu = elliptic.spla.splu
    monkeypatch.setattr(elliptic.spla, "splu",
                        lambda A, **kw: splu(1.001 * A, **kw))
    with pytest.raises(SolverFailureError, match="residual"):
        solve_spd(K, b, grid)


def test_factorization_matches_the_default_panel_lu():
    # panel size 1 changes only the blocking of the supernodal updates: a
    # nonsymmetric flux Jacobian solves like SuperLU's default LU, for one
    # and for several right-hand sides at once
    rng = np.random.default_rng(53)
    p = PhysicalParams(ecc=0.3)
    grid = Grid(16, 8, 2.0, 1.0, bc_x1=BC_PERIODIC)
    R = p.R0 * rng.uniform(0.9, 1.1, size=grid.shape)
    h = p.h0 * rng.uniform(0.5, 1.5, size=grid.shape)
    B, _ = film_pencil(grid, R, np.zeros(grid.shape), h,
                       (p.surface_speed, 0.0), p)
    reference = spla.splu(B.tocsc(), permc_spec="MMD_AT_PLUS_A")
    lu = elliptic._factorize(B)
    for b in (rng.normal(size=grid.n_cells),
              rng.normal(size=(grid.n_cells, 3))):
        x, ref = lu.solve(b), reference.solve(b)
        assert x.shape == b.shape
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


#: scipy.sparse.linalg entry points that factor by SuperLU
SUPERLU_CALLS = {"splu", "spilu", "spsolve", "factorized"}


def test_superlu_is_called_only_by_factorize():
    # the one place that calls SuperLU, also for the names it is imported by
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        names = ([node.attr] if isinstance(node, ast.Attribute)
                 else [node.id] if isinstance(node, ast.Name)
                 else [a.name for a in node.names]
                 if isinstance(node, ast.ImportFrom) else [])
        found.extend((where, n) for n in names if n in SUPERLU_CALLS)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(elliptic.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == [("elliptic._factorize", "splu")]


@UPWIND_BCS
def test_flux_jacobian_equals_its_composed_form(bc):
    # B is summed face by face in one assembly and P scales the data of K;
    # the oracle composes both from the public operators at a rate S != 0,
    # B = K diag(f1' - S (R f2)') - Dsens(p) + C + diag(h f5' S) with
    # p = f1 - R f2 S, and P = K diag(R f2) - diag(h f5)
    rng = np.random.default_rng(59)
    p = PhysicalParams(ecc=0.3)
    grid = Grid(9, 6, 2.0, 1.5, bc_x1=bc)
    R = p.R0 * rng.uniform(0.8, 1.2, size=grid.shape)
    S = rng.normal(scale=10.0, size=grid.shape)
    h = p.h0 * rng.uniform(0.5, 1.5, size=grid.shape)
    U = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
    B, P = film_pencil(grid, R, S, h, U, p)
    K = assemble_operator(grid, eval_f3(R, p) * h ** 3)
    Rf2 = R * eval_f2(R, p)
    dRf2 = eval_f2(R, p) + R * eval_f2_prime(R, p)
    B_ref = (K @ sp.diags((eval_f1_prime(R, p) - S * dRf2).ravel())
             - diffusion_sensitivity(grid, eval_f3_prime(R, p) * h ** 3,
                                     eval_f1(R, p) - Rf2 * S)
             + convective_divergence_matrix(grid, U, h * eval_f4_prime(R, p))
             + sp.diags((h * eval_f5_prime(R, p) * S).ravel()))
    P_ref = K @ sp.diags(Rf2.ravel()) - sp.diags((h * eval_f5(R, p)).ravel())
    assert abs(B - B_ref).max() <= 1e-13 * abs(B).max()
    assert abs(P - P_ref).max() <= 1e-13 * abs(P).max()
    # both live on the pattern of K: the full 5-point stencil
    for M in (B, P):
        assert np.array_equal(M.indptr, K.indptr)
        assert np.array_equal(M.indices, K.indices)


@UPWIND_BCS
@pytest.mark.parametrize("shape", [(16, 8), (12, 6)])
def test_the_mirror_half_is_the_restriction_of_the_full_grid(bc, shape):
    # on fields symmetric about x2 = L2/2 the mid-plane face carries no flux
    # (equal potentials, zero sensitivity gradient, U2 = 0), so the half
    # grid's film equation is the lower half of the full one, and its pencil
    # is the full pencil folded onto symmetric vectors, A11 + A12 J
    rng = np.random.default_rng(61)
    p = PhysicalParams(ecc=0.3)
    grid = Grid(*shape, 2.0 * np.pi * p.J_r, p.B, bc_x1=bc)
    half = mirror_half(grid)
    assert half.mirror and half.shape == (shape[0], shape[1] // 2)
    R_half = p.R0 * rng.uniform(0.8, 1.2, size=half.shape)
    S_half = rng.normal(scale=10.0, size=half.shape)
    R, S = unfold(half, R_half), unfold(half, S_half)
    assert np.array_equal(R, R[:, ::-1]) and np.array_equal(S, S[:, ::-1])
    U = (p.surface_speed, 0.0)
    h, h_half = gap_function(grid, p), gap_function(half, p)
    lower = np.s_[:, :half.n2]
    F, pres, _ = film_residual(grid, R, S, h, U, p)
    F_half, p_half, _ = film_residual(half, R_half, S_half, h_half, U, p)
    assert abs(F_half - F[lower]).max() <= 1e-14 * abs(F).max()
    assert abs(p_half - pres[lower]).max() <= 1e-15 * abs(pres).max()
    cells = np.arange(grid.n_cells).reshape(grid.shape)
    rows, mirrored = cells[lower].ravel(), cells[:, ::-1][lower].ravel()
    for full, folded in zip(film_pencil(grid, R, S, h, U, p),
                            film_pencil(half, R_half, S_half, h_half, U, p)):
        dense = full.toarray()
        ref = dense[np.ix_(rows, rows)] + dense[np.ix_(rows, mirrored)]
        assert abs(folded.toarray() - ref).max() <= 1e-14 * abs(dense).max()


@UPWIND_BCS
@pytest.mark.parametrize("mirror", [False, True], ids=["whole", "mirror"])
def test_the_flux_form_is_the_matrix_form(bc, mirror):
    # film_residual sums one flux per face and per edge without a matrix:
    # its F is -(K p + h f5 S + C 1) of the oracle matrices, the K that
    # mobility_operator assembles from its face coefficients is the
    # oracle's bit for bit, and the stationary scale is its matrix form
    # |K| (|f1| + p_char) + |F + K f1|
    rng = np.random.default_rng(79)
    p = PhysicalParams(ecc=0.3)
    grid = Grid(12, 8, 2.0 * np.pi * p.J_r, p.B, bc_x1=bc)
    if mirror:
        grid = mirror_half(grid)
    R = p.R0 * rng.uniform(0.8, 1.2, size=grid.shape)
    S = rng.normal(scale=10.0, size=grid.shape)
    h, U = gap_function(grid, p), (p.surface_speed, 0.0 if mirror else 0.7)
    F, pres, mobility = film_residual(grid, R, S, h, U, p)
    K = assemble_operator(grid, eval_f3(R, p) * h ** 3)
    got = mobility_operator(grid, mobility)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(K, name))
    Kp = K @ pres.ravel()
    ref = -(Kp + (h * eval_f5(R, p) * S).ravel()
            + convective_divergence_matrix(grid, U, h * eval_f4(R, p))
            @ np.ones(grid.n_cells))
    assert np.abs(F.ravel() - ref).max() <= 1e-14 * np.abs(Kp).max()
    F0, f1, _ = film_residual(grid, R, np.zeros(grid.shape), h, U, p)
    F0, f1 = F0.ravel(), f1.ravel()
    p_char = (2.0 * p.sigma / p.R0 + abs(p.P0 - p.p_bnd)) / p.rho_l
    want = np.linalg.norm(abs(K) @ (np.abs(f1) + p_char)
                          + np.abs(F0 + K @ f1))
    phi, scale = stationary_residual(grid, R, h, U, p)
    assert np.array_equal(phi, -F0)
    assert abs(scale - want) <= 1e-14 * want


def test_the_film_equation_validates_the_radius_once_per_pass(monkeypatch):
    # film_residual evaluates its five closures in one pass, film_pencil
    # its closures and their slopes in two: one validation of R each
    calls = []
    validate = physics._as_positive_radius
    monkeypatch.setattr(physics, "_as_positive_radius",
                        lambda R: calls.append(1) or validate(R))
    p = PhysicalParams(ecc=0.3)
    grid = Grid(8, 4, 2.0 * np.pi * p.J_r, p.B)
    R = p.R0 * np.random.default_rng(67).uniform(0.8, 1.2, size=grid.shape)
    S, h, U = np.ones(grid.shape), gap_function(grid, p), (p.surface_speed, 0.0)
    film_residual(grid, R, S, h, U, p)
    assert len(calls) == 1
    calls.clear()
    film_pencil(grid, R, S, h, U, p)
    assert len(calls) <= 2


def test_an_accepted_step_makes_no_closure_pass_beyond_its_film_equation(
        monkeypatch):
    # the new state's pressure reads the wall law, which needs no gas
    # fraction: every mixture pass of a step is the one of a film residual
    # or one of the two of a film pencil
    calls = Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    p = PhysicalParams(ecc=0.3)
    grid = Grid(16, 8, 2.0 * np.pi * p.J_r, p.B)
    h, U = gap_function(grid, p), (p.surface_speed, 0.0)
    state = dynamics.initial_state(grid, h, U, p)
    for module, name in ((physics, "_mixture"), (dynamics, "film_residual"),
                         (dynamics, "film_pencil")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    dynamics.step_inertialess(grid, state, h, U, p, dynamics.StepConfig())
    assert calls["film_residual"] > 0 and calls["film_pencil"] > 0
    assert calls["_mixture"] == (calls["film_residual"]
                                 + 2 * calls["film_pencil"])


def test_squeeze_response_is_linear_in_the_rate():
    rng = np.random.default_rng(53)
    p = PhysicalParams(ecc=0.2)
    grid = Grid(6, 5, 2.0 * np.pi * p.J_r, p.B)
    R = p.R0 * rng.uniform(0.8, 1.2, size=grid.shape)
    h = gap_function(grid, p)
    S1 = rng.normal(size=grid.shape)
    S2 = rng.normal(size=grid.shape)
    combo = apply_A2(grid, R, h, 2.0 * S1 - 0.7 * S2, p)
    parts = 2.0 * apply_A2(grid, R, h, S1, p) - 0.7 * apply_A2(grid, R, h, S2, p)
    assert np.allclose(combo, parts, rtol=1e-9, atol=1e-12)


def test_squeeze_feedback_pairing_is_nonnegative():
    # The discrete energy identity: pairing the squeeze response against its
    # own source with weight (-f5) h is a quadratic form of the SPD diffusion
    # operator, hence >= 0 for every rate field.  100 randomized draws.
    rng = np.random.default_rng(59)
    p = PhysicalParams(ecc=0.0)
    for trial in range(100):
        ecc = rng.uniform(0.0, 0.5)
        pp = PhysicalParams(ecc=float(ecc))
        grid = Grid(8, 6, 2.0 * np.pi * pp.J_r, pp.B,
                    bc_x1=BC_PERIODIC if trial % 2 == 0 else BC_DIRICHLET)
        R = pp.R0 * rng.uniform(0.7, 1.3, size=grid.shape)
        h = gap_function(grid, pp)
        w = rng.normal(size=grid.shape)
        A2 = apply_A2(grid, R, h, w, pp)
        pairing = np.sum(-eval_f5(R, pp) * h * A2 * w) * grid.dx1 * grid.dx2
        assert pairing >= -1e-12 * np.max(np.abs(A2)) * np.max(np.abs(w))
        assert pairing > 0.0
