"""Grid geometry, gap profile, field validation, norms and CSV rendering."""

import io

import numpy as np
import pytest

from filmcav.errors import ConfigurationError
from filmcav.grid import (
    BC_PERIODIC, CSV_HEADER, Grid, ensure_field, gap_function,
    grid_for_params, mirror_half, render_fields_csv, unfold,
)
from filmcav.physics import PhysicalParams, eval_alpha
from oracles import centers, field_norms

DEFAULT = PhysicalParams()


def test_grid_spacing_and_centers():
    g = Grid(n1=8, n2=5, L1=2.0, L2=1.25)
    assert g.dx1 == pytest.approx(0.25)
    assert g.dx2 == pytest.approx(0.25)
    assert g.shape == (8, 5)
    assert g.n_cells == 40
    assert g.dx1 * g.dx2 == pytest.approx(0.0625)
    # cell centers: first at dx/2, last at L - dx/2, uniformly spaced
    assert g.x1[0] == pytest.approx(0.125)
    assert g.x1[-1] == pytest.approx(2.0 - 0.125)
    assert np.allclose(np.diff(g.x1), g.dx1)
    X1, X2 = centers(g)
    assert X2[0, 0] == pytest.approx(0.125)
    assert X2[0, -1] == pytest.approx(1.25 - 0.125)
    assert np.allclose(np.diff(X2[0]), g.dx2)
    assert X1.shape == g.shape and X2.shape == g.shape
    # X1 varies along axis 0 only, X2 along axis 1 only
    assert np.allclose(X1[:, 0], g.x1)
    assert np.allclose(X1[:, 3], g.x1)
    assert np.allclose(X2[2, :], X2[0])


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid(n1=3, n2=8, L1=1.0, L2=1.0)
    with pytest.raises(ConfigurationError):
        Grid(n1=8, n2=3, L1=1.0, L2=1.0)
    with pytest.raises(ConfigurationError):
        Grid(n1=8, n2=8, L1=0.0, L2=1.0)
    with pytest.raises(ConfigurationError):
        Grid(n1=8, n2=8, L1=1.0, L2=-2.0)
    with pytest.raises(ConfigurationError):
        Grid(n1=4, n2=4, L1=np.inf, L2=1.0)
    with pytest.raises(ConfigurationError):
        Grid(n1=4, n2=4, L1=1.0, L2=np.inf)
    with pytest.raises(ConfigurationError):
        Grid(n1=8, n2=8, L1=1.0, L2=1.0, bc_x1="reflecting")


def test_mirror_half_keeps_the_cells_of_the_lower_half():
    g = Grid(n1=8, n2=6, L1=2.0, L2=1.5, bc_x1="dirichlet-zero")
    half = mirror_half(g)
    assert (half.n1, half.n2, half.L1, half.L2) == (8, 3, 2.0, 0.75)
    assert half.mirror and half.bc_x1 == g.bc_x1 and not g.mirror
    # the same cells: spacing and centers are bitwise the lower half's
    assert half.dx2 == g.dx2 and np.array_equal(centers(half)[1],
                                                centers(g)[1][:, :3])
    f = np.arange(24.0).reshape(8, 3)
    full = unfold(half, f)
    assert full.shape == g.shape
    assert np.array_equal(full[:, :3], f) and np.array_equal(full, full[:, ::-1])
    # no cell row ends at the mid-plane of an odd grid: it stays whole
    odd = Grid(n1=8, n2=5, L1=2.0, L2=1.25)
    assert mirror_half(odd) is odd
    assert unfold(odd, np.ones(odd.shape)).shape == odd.shape
    # a mirror grid needs 2 cells across its half, any other grid 4
    assert mirror_half(Grid(n1=4, n2=4, L1=1.0, L2=1.0)).n2 == 2
    with pytest.raises(ConfigurationError):
        Grid(n1=4, n2=1, L1=1.0, L2=1.0, mirror=True)


def test_grid_for_params_is_the_journal_rectangle():
    g = grid_for_params(DEFAULT, 16, 8)
    assert g.L1 == pytest.approx(2.0 * np.pi * DEFAULT.J_r, rel=1e-15)
    assert g.L2 == pytest.approx(DEFAULT.B, rel=1e-15)
    assert g.bc_x1 == BC_PERIODIC


def test_gap_profile_matches_literal_formula():
    p = PhysicalParams(ecc=0.3)
    g = grid_for_params(p, 24, 6)
    h = gap_function(g, p)
    assert h.shape == g.shape
    expected = p.h0 * (1.0 - p.ecc * np.cos(g.x1 / p.J_r))
    for j in range(g.n2):                       # constant along the axial axis
        assert np.allclose(h[:, j], expected, rtol=1e-14)
    # narrowest gap sits next to x1 = 0 (the centers straddle it)
    assert np.argmin(h[:, 0]) in (0, g.n1 - 1)
    assert np.min(h) == pytest.approx(
        p.h0 * (1.0 - p.ecc * np.cos(0.5 * g.dx1 / p.J_r)), rel=1e-14)


def test_gap_is_uniform_for_centered_shaft():
    g = grid_for_params(DEFAULT, 12, 5)
    h = gap_function(g, PhysicalParams(ecc=0.0))
    assert np.all(h == DEFAULT.h0)


def test_gap_rejects_touching_surfaces():
    g = grid_for_params(DEFAULT, 8, 4)
    for ecc in (1.0, 1.2):
        with pytest.raises(ConfigurationError):
            gap_function(g, PhysicalParams(ecc=ecc))


def test_ensure_field_accepts_flat_input_and_validates():
    g = Grid(4, 6, 1.0, 1.0)
    flat = list(range(24))
    arr = ensure_field(g, np.asarray(flat, dtype=float))
    assert arr.shape == (4, 6)
    assert arr[1, 2] == 8.0                     # row-major cell order
    with pytest.raises(ConfigurationError):
        ensure_field(g, np.zeros(23))
    bad = np.zeros(g.shape)
    bad[2, 3] = np.nan
    with pytest.raises(ConfigurationError):
        ensure_field(g, bad)
    bad[2, 3] = np.inf
    with pytest.raises(ConfigurationError):
        ensure_field(g, bad)


def test_field_norms_constant_field():
    g = Grid(8, 8, 2.0, 3.0)
    norms = field_norms(g, np.full(g.shape, -1.5))
    assert norms["L2"] == pytest.approx(1.5 * np.sqrt(6.0), rel=1e-14)
    assert norms["L1"] == pytest.approx(1.5 * 6.0, rel=1e-14)
    assert norms["Linf"] == pytest.approx(1.5, rel=1e-15)


def test_field_norms_random_fields_match_literal_sums():
    rng = np.random.default_rng(42)
    g = Grid(7, 5, 1.3, 0.7)
    for _ in range(20):
        v = rng.normal(size=g.shape)
        norms = field_norms(g, v)
        dA = g.dx1 * g.dx2
        assert norms["L2"] == pytest.approx(np.sqrt((v ** 2).sum() * dA), rel=1e-13)
        assert norms["L1"] == pytest.approx(np.abs(v).sum() * dA, rel=1e-13)
        assert norms["Linf"] == pytest.approx(np.abs(v).max(), rel=1e-15)


def test_csv_layout_and_columns():
    rng = np.random.default_rng(7)
    p = PhysicalParams(ecc=0.2)
    g = grid_for_params(p, 5, 4)
    R = p.R0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=g.shape))
    pres = rng.normal(scale=50.0, size=g.shape)
    text = render_fields_csv(g, p, R, pres)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + g.n_cells
    data = np.loadtxt(lines[1:], delimiter=",")
    # row-major ordering: x2 cycles fastest
    assert data[0, 0] == pytest.approx(g.x1[0], rel=1e-8)
    assert data[1, 0] == pytest.approx(g.x1[0], rel=1e-8)
    assert data[1, 1] == pytest.approx(centers(g)[1][0, 1], rel=1e-8)
    assert data[g.n2, 0] == pytest.approx(g.x1[1], rel=1e-8)
    # columns carry 9 significant digits of the defining quantities
    assert np.allclose(data[:, 2], (R / p.R0).ravel(), rtol=1e-8)
    assert np.allclose(data[:, 3], pres.ravel(), rtol=1e-8)
    assert np.allclose(data[:, 4], (p.rho_l * pres).ravel(), rtol=1e-8)
    assert np.allclose(data[:, 5], eval_alpha(R, p).ravel(), rtol=1e-8)


def test_csv_gauge_pressure_is_rescaled_by_liquid_density():
    g = Grid(4, 4, 1.0, 1.0)
    pres = np.full(g.shape, -208.0)
    text = render_fields_csv(g, DEFAULT, np.full(g.shape, DEFAULT.R0), pres)
    data = np.loadtxt(text.strip().split("\n")[1:], delimiter=",")
    assert np.allclose(data[:, 4], DEFAULT.rho_l * -208.0, rtol=1e-8)


def test_csv_matches_the_savetxt_oracle():
    # The rows are formatted in one pass; the text must be the one
    # np.savetxt writes, for negative, tiny (exponent form) and large values.
    rng = np.random.default_rng(11)
    p = PhysicalParams(ecc=0.3)
    g = grid_for_params(p, 12, 7)
    R = p.R0 * rng.choice([1e-7, 1.0, 3.0], size=g.shape) \
        * rng.uniform(0.5, 1.5, size=g.shape)
    pres = rng.choice([-1e9, -1.0, -3e-12, 0.0, 2e-12, 1.0, 7e13],
                      size=g.shape) * rng.uniform(0.5, 1.5, size=g.shape)
    X1, X2 = centers(g)
    cols = np.column_stack([X1.ravel(), X2.ravel(), (R / p.R0).ravel(),
                            pres.ravel(), (p.rho_l * pres).ravel(),
                            eval_alpha(R, p).ravel()])
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    np.savetxt(buf, cols, fmt="%.9g", delimiter=",")
    text = render_fields_csv(g, p, R, pres)
    assert "e-" in text and "e+" in text and ",-" in text
    assert text == buf.getvalue()
