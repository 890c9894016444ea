"""Cell-centered rectangular grid, gap geometry, the CSV format of
every artifact table, and field export.

The film domain is the rectangle ``[0, L1] x [0, L2]``; for the journal
setting ``L1 = 2 pi J_r`` (circumferential, usually periodic) and
``L2 = B`` (axial, pressure fixed to ambient at both edges).  All fields
live at cell centers ``((i + 1/2) dx1, (j + 1/2) dx2)`` and are stored as
``(n1, n2)`` arrays; flattened vectors use the row-major cell index
``i * n2 + j``.
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
    boundary ``x2`` is always at ambient pressure ("dirichlet-zero").
    """

    n1: int
    n2: int
    L1: float
    L2: float
    bc_x1: str = BC_PERIODIC

    def __post_init__(self):
        if self.n1 < 4 or self.n2 < 4:
            raise ConfigurationError("grid needs at least 4 cells per direction, "
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

    @property
    def x2(self) -> np.ndarray:
        """Cell-center coordinates along x2, shape (n2,)."""
        return (np.arange(self.n2) + 0.5) * self.dx2

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable center coordinate arrays (X1, X2), each (n1, n2)."""
        return np.meshgrid(self.x1, self.x2, indexing="ij")


def grid_for_params(params: PhysicalParams, n1: int, n2: int,
                    bc_x1: str = BC_PERIODIC) -> Grid:
    """Journal-bearing grid: ``[0, 2 pi J_r] x [0, B]``."""
    return Grid(n1=n1, n2=n2, L1=2.0 * np.pi * params.J_r, L2=params.B, bc_x1=bc_x1)


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


def render_fields_csv(grid: Grid, params: PhysicalParams,
                      R: np.ndarray, p_scaled: np.ndarray) -> str:
    """Serialize the solution fields to CSV text.

    Columns are ``x1,x2,R_hat,p_scaled,p_gauge_Pa,alpha`` with rows in
    row-major cell order (x2 fastest); values carry 9 significant digits.
    ``p_gauge_Pa`` is the dimensional gauge pressure ``rho_l * p_scaled``.
    """
    Rf = ensure_field(grid, R, "R")
    pf = ensure_field(grid, p_scaled, "p")
    X1, X2 = grid.centers()
    return render_csv(CSV_HEADER, [
        X1.ravel(), X2.ravel(),
        (Rf / params.R0).ravel(),
        pf.ravel(),
        (params.rho_l * pf).ravel(),
        eval_alpha(Rf, params).ravel(),
    ])


def export_fields_csv(path, grid: Grid, params: PhysicalParams,
                      R: np.ndarray, p_scaled: np.ndarray) -> None:
    """Write :func:`render_fields_csv` output to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_fields_csv(grid, params, R, p_scaled))
