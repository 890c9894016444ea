"""Cell-centered rectangular grid, gap geometry, the CSV format of
every artifact table, and field rendering.

The film domain is the rectangle ``[0, L1] x [0, L2]``; for the journal
setting ``L1 = 2 pi J_r`` (circumferential, usually periodic) and
``L2 = B`` (axial, pressure fixed to ambient at both edges).  All fields
live at cell centers ``((i + 1/2) dx1, (j + 1/2) dx2)`` and are stored as
``(n1, n2)`` arrays; flattened vectors use the row-major cell index
``i * n2 + j``.

Every configuration the CLI runs is mirror-symmetric about the mid-plane
``x2 = L2/2``: the gap depends on ``x1`` alone, the entrainment is along
``x1`` and both ``x2`` edges are at ambient pressure.  A mirror grid is the
lower half of such a domain, its high-``x2`` edge the symmetry plane, where
the film carries no flux.  :func:`mirror_half` gives it for an even ``n2``
and :func:`unfold` maps its fields back onto the whole grid;
:func:`render_fields_csv` writes them on the whole grid without unfolding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .physics import PhysicalParams, eval_alpha

BC_PERIODIC = "periodic"
BC_DIRICHLET = "dirichlet-zero"

# Column layout of every exported field file.
CSV_HEADER = "x1,x2,R_hat,p_scaled,p_gauge_Pa,alpha"


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on ``[0, L1] x [0, L2]``.

    ``bc_x1`` selects the circumferential closure ("periodic" for a full
    journal, "dirichlet-zero" for a pad open at both ends); the axial
    boundary ``x2`` is at ambient pressure ("dirichlet-zero"), except
    that on a ``mirror`` grid the high-``x2`` edge is a symmetry plane:
    the grid is the lower half of a domain symmetric about it, and no flux
    crosses it.  A mirror grid needs ``n2 >= 2`` cells, any other grid 4.
    """

    n1: int
    n2: int
    L1: float
    L2: float
    bc_x1: str = BC_PERIODIC
    mirror: bool = False

    def __post_init__(self):
        n2_min = 2 if self.mirror else 4
        if self.n1 < 4 or self.n2 < n2_min:
            raise ConfigurationError(f"grid needs at least 4 x {n2_min} cells, "
                                     f"got {self.n1} x {self.n2}")
        if not (0.0 < self.L1 < np.inf and 0.0 < self.L2 < np.inf):
            raise ConfigurationError("domain lengths must be finite and "
                                     "positive")
        if self.bc_x1 not in (BC_PERIODIC, BC_DIRICHLET):
            raise ConfigurationError(f"bc_x1 must be '{BC_PERIODIC}' or "
                                     f"'{BC_DIRICHLET}', got {self.bc_x1!r}")

    @property
    def dx1(self) -> float:
        return self.L1 / self.n1

    @property
    def dx2(self) -> float:
        return self.L2 / self.n2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    @property
    def n_cells(self) -> int:
        return self.n1 * self.n2

    @property
    def x1(self) -> np.ndarray:
        """Cell-center coordinates along x1, shape (n1,)."""
        return (np.arange(self.n1) + 0.5) * self.dx1


def grid_for_params(params: PhysicalParams, n1: int, n2: int,
                    bc_x1: str = BC_PERIODIC) -> Grid:
    """Journal-bearing grid: ``[0, 2 pi J_r] x [0, B]``."""
    return Grid(n1=n1, n2=n2, L1=2.0 * np.pi * params.J_r, L2=params.B, bc_x1=bc_x1)


def mirror_half(grid: Grid) -> Grid:
    """The lower half ``(n1, n2/2, L1, L2/2)`` of a whole ``grid`` as a
    mirror grid, or ``grid`` itself when ``n2`` is odd and no cell row ends
    at the mid-plane."""
    if grid.n2 % 2:
        return grid
    return Grid(n1=grid.n1, n2=grid.n2 // 2, L1=grid.L1, L2=0.5 * grid.L2,
                bc_x1=grid.bc_x1, mirror=True)


def unfold(grid: Grid, field: np.ndarray) -> np.ndarray:
    """A field of ``grid`` on the whole domain: ``[f, f[:, ::-1]]`` on a
    mirror grid, the field itself on any other."""
    f = ensure_field(grid, field)
    return np.hstack([f, f[:, ::-1]]) if grid.mirror else f


def gap_function(grid: Grid, params: PhysicalParams) -> np.ndarray:
    """Film thickness ``h = h0 (1 - ecc cos(x1 / J_r))`` as an (n1, n2) field.

    The minimum gap ``h0 (1 - ecc)`` sits at ``x1 = 0``.  On the journal
    domain ``L1 = 2 pi J_r`` the profile closes periodically.
    """
    h_line = params.h0 * (1.0 - params.ecc * np.cos(grid.x1 / params.J_r))
    return np.repeat(h_line[:, None], grid.n2, axis=1)


def ensure_field(grid: Grid, values: np.ndarray, name: str = "field") -> np.ndarray:
    """Validate shape and finiteness of a scalar field; returns it as (n1, n2)."""
    arr = np.asarray(values, dtype=float)
    if arr.size != grid.n_cells:
        raise ConfigurationError(f"{name} has {arr.size} values, grid has "
                                 f"{grid.n_cells} cells")
    arr = arr.reshape(grid.shape)
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} contains non-finite values")
    return arr


def render_csv(header: str, columns, digits: int = 9) -> str:
    """CSV text: the ``header`` line, then one comma-separated line per
    index of the equal-length ``columns``, ``digits`` significant digits."""
    cols = np.column_stack(list(columns))
    row = ",".join([f"%.{digits}g"] * cols.shape[1]) + "\n"
    return header + "\n" + (row * cols.shape[0]) % tuple(cols.ravel().tolist())


def _texts(values: np.ndarray) -> np.ndarray:
    """Each of ``values`` as its :func:`render_csv` text and a comma."""
    return np.array(render_csv("", [values]).split(), dtype=object) + ","


def render_fields_csv(grid: Grid, params: PhysicalParams,
                      R: np.ndarray, p_scaled: np.ndarray) -> str:
    """Serialize the solution fields of the solved ``grid`` to CSV text on
    the whole grid.

    Columns are ``x1,x2,R_hat,p_scaled,p_gauge_Pa,alpha`` with rows in
    row-major cell order of the whole grid (x2 fastest); values carry 9
    significant digits.  ``p_gauge_Pa`` is the dimensional gauge pressure
    ``rho_l * p_scaled``.  On a mirror grid the rows of the upper half
    repeat those of their mirror cells (:func:`unfold`), so the text equals
    that of the unfolded fields on the whole grid.  Each distinct value is
    formatted once: every coordinate once, and each solved cell's
    ``R_hat,p_scaled,p_gauge_Pa,alpha`` once, its mirror cell's row reusing
    that text.
    """
    Rf = ensure_field(grid, R, "R")
    pf = ensure_field(grid, p_scaled, "p")
    cells = render_csv("", [(Rf / params.R0).ravel(), pf.ravel(),
                            (params.rho_l * pf).ravel(),
                            eval_alpha(Rf, params).ravel()])
    cells = np.array(cells.splitlines(keepends=True)[1:],
                     dtype=object).reshape(grid.shape)
    if grid.mirror:
        cells = np.hstack([cells, cells[:, ::-1]])
    # a mirror grid's dx2 is the whole grid's, L2/2 over n2/2 cells
    table = np.empty(cells.shape + (3,), dtype=object)
    table[..., 0] = _texts(grid.x1)[:, None]
    table[..., 1] = _texts((np.arange(cells.shape[1]) + 0.5) * grid.dx2)
    table[..., 2] = cells
    return CSV_HEADER + "\n" + "".join(table.ravel().tolist())
