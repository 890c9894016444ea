"""Finite-volume elliptic operators for the film-pressure equation.

The pressure problem is a divergence-form diffusion with a mobility that
depends on the local bubble radius,

    Div( f3(R) h^3 Grad p ) = Div( U h f4(R) ) + h f5(R) dR/dt ,

discretized on the cell-centered grid with a 5-point stencil: face
coefficients are arithmetic means of the adjacent cell values, Dirichlet
boundaries are enforced by ghost-cell reflection (ghost value = -interior
value, so the face value vanishes), the symmetry plane of a mirror grid
(its high-``x2`` edge, :func:`filmcav.grid.mirror_half`) by an even ghost
(ghost value = interior value, so the face carries no flux and has no edge
term), and the entrained (Couette) flux is
upwinded, the one convection scheme.  The assembled operator ``K`` represents
``-Div(c Grad .)`` and is symmetric positive definite, which is what makes
the coupled pressure elimination uniquely solvable.

Every operator here comes from one face stencil per grid (built once and
cached): the interior and periodic faces, the Dirichlet edge cells and the
fixed 5-point CSR pattern.  Each operator is a short coefficient rule that
gives every face flux ``F = a S_A + b S_B`` and every edge its diagonal
term; one assembler sums them into the pattern.  The rules are the
diffusion operator ``K``, the convective divergence ``C`` (summed into
``B`` of :func:`film_pencil` face by face) and the sensitivity of the
diffusion term to its coefficient at a frozen potential; the upwind side
of every face is cached per grid and signs of ``U``.

The film equation :func:`film_residual` is the pressure equation above at
``dR/dt = S`` and the pressure ``p = f1(R) - R f2(R) S`` the growth law gives,
written as a conservation law: one flux per face, diffusive plus entrained,
summed into the cells with the edge terms, and no matrix.  Its one
linearization is the pencil ``(B, P)`` of :func:`film_pencil`.  The
Newton stationary solver factors ``B`` at ``S = 0``, the implicit stepper
``P - dt B`` at the backward-difference rate, and the spectra use the pencil
at ``S = 0``.  No other module assembles the film equation or its
mobility operator ``K``: the stationary balance is ``-F(R, 0)`` with the
:func:`flux_scale` of its face coefficients, the pressure elimination
solves the pencil's ``P``, and the inertial pressure solve and ``L_F``
assemble ``K`` from those coefficients by :func:`mobility_operator`.
Each call takes its closures from one pass of :mod:`filmcav.physics` per
kind.

Every sparse LU of the package is built by :func:`_factorize`, which fixes
the column ordering (minimum degree on ``A^T + A``) and SuperLU's panel
size (1), and reports an exactly singular matrix as
:class:`SolverFailureError`; :func:`solve_spd` is the one solve that
verifies its residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, SolverFailureError
from .grid import BC_DIRICHLET, BC_PERIODIC, Grid, ensure_field
from .physics import PhysicalParams, _closure_slopes, _closures

#: largest relative residual ``|K x - b| / |b|`` a solve may return
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class _FaceStencil:
    """The 5-point finite-volume structure of one grid.

    Faces are cell pairs ``(A, B)``, ``B`` the upper neighbour of ``A``
    along ``face_axis`` (the periodic x1 wrap pairs the last row with the
    first).  Edge entries are the cells next to a Dirichlet boundary, with
    that boundary's axis and side (-1 low, +1 high).  ``*_dx`` and
    ``*_dx2`` hold the spacing across each face or edge and its square.
    The four matrix entries of every face, then the diagonal entry of every
    edge, are summed into the CSR pattern ``(indptr, indices)`` by the 0/1
    matrix ``scatter``: its row ``s`` lists the entries that land in
    pattern slot ``s``, face batch by face batch, so that each diagonal
    accumulates in one fixed order.  ``diag`` holds each cell's diagonal
    slot in the pattern.  Index arrays are int32; gathers use
    ``take``, which reads them as they are, where ``[]`` indexing would
    first copy them to int64 on every call.
    """

    A: np.ndarray
    B: np.ndarray
    face_axis: np.ndarray
    face_dx: np.ndarray
    face_dx2: np.ndarray
    cell: np.ndarray
    edge_axis: np.ndarray
    edge_side: np.ndarray
    edge_dx: np.ndarray
    edge_dx2: np.ndarray
    scatter: sp.csr_matrix
    indptr: np.ndarray
    indices: np.ndarray
    diag: np.ndarray


@lru_cache(maxsize=32)
def _stencil(grid: Grid) -> _FaceStencil:
    """The face stencil of ``grid`` (cached: grids are immutable)."""
    n = grid.n_cells
    idx = np.arange(n).reshape(grid.shape)
    # face batches (A, B, axis) and Dirichlet edges (cells, axis, side)
    batches = [(idx[:-1, :], idx[1:, :], 0), (idx[:, :-1], idx[:, 1:], 1)]
    if grid.bc_x1 == BC_PERIODIC:
        batches.append((idx[-1, :], idx[0, :], 0))
    edges = [(idx[:, 0], 1, -1.0)]
    if not grid.mirror:                  # a mirror plane carries no flux
        edges.append((idx[:, -1], 1, 1.0))
    if grid.bc_x1 == BC_DIRICHLET:
        edges += [(idx[0, :], 0, -1.0), (idx[-1, :], 0, 1.0)]

    def column(groups, k):
        return np.concatenate([np.broadcast_to(g[k], g[0].shape).ravel()
                               for g in groups])

    A, B, face_axis = (column(batches, k) for k in range(3))
    cell, edge_axis, edge_side = (column(edges, k) for k in range(3))
    batch = column([(a, k) for k, (a, _, _) in enumerate(batches)], 1)
    # entries in the order the assembler lists their values:
    # (A, A), (B, B), (A, B), (B, A) for every face, then (cell, cell)
    rows = np.concatenate([A, B, A, B, cell])
    cols = np.concatenate([A, B, B, A, cell])
    group = np.concatenate([4 * batch + k for k in range(4)]
                           + [np.full(cell.size, 4 * len(batches))])
    order = np.argsort(group, kind="stable")
    pattern, slot = np.unique(rows * n + cols, return_inverse=True)
    slot = slot.ravel()[order]
    # each scatter row keeps its entries in listing order (the CSR product
    # sums a row in stored order), so every sum is the same at every call
    by_slot = np.argsort(slot, kind="stable")
    starts = np.searchsorted(slot[by_slot], np.arange(pattern.size + 1))
    i32 = np.int32
    scatter = sp.csr_matrix((np.ones(order.size), order[by_slot].astype(i32),
                             starts.astype(i32)),
                            shape=(pattern.size, order.size))
    dx = np.array([grid.dx1, grid.dx2])
    dx2 = np.array([grid.dx1 ** 2, grid.dx2 ** 2])
    return _FaceStencil(
        A=A.astype(i32), B=B.astype(i32), face_axis=face_axis.astype(i32),
        face_dx=dx[face_axis], face_dx2=dx2[face_axis], cell=cell.astype(i32),
        edge_axis=edge_axis.astype(i32), edge_side=edge_side,
        edge_dx=dx[edge_axis], edge_dx2=dx2[edge_axis], scatter=scatter,
        indptr=np.searchsorted(pattern, n * np.arange(n + 1)).astype(i32),
        indices=(pattern % n).astype(i32),
        diag=np.searchsorted(pattern, (n + 1) * np.arange(n)).astype(i32))


def _assemble(st: _FaceStencil, a: np.ndarray, b: np.ndarray,
              edge: np.ndarray) -> sp.csr_matrix:
    """CSR matrix of the face fluxes ``F = a S_A + b S_B`` (row ``A`` gains
    ``F``, row ``B`` loses it) plus ``edge`` on each edge cell's diagonal."""
    data = st.scatter @ np.concatenate([a, -b, b, -a, edge])
    n = st.indptr.size - 1
    return sp.csr_matrix((data, st.indices.copy(), st.indptr.copy()),
                         shape=(n, n))


def _factorize(matrix: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of ``matrix``: the one place that calls SuperLU.

    The column order is minimum degree on ``A^T + A`` (``MMD_AT_PLUS_A``)
    and the panel size is 1, which on the 5-point matrices of this package
    takes about a ninth less time than SuperLU's default panel of 10
    (3.6 against 4.0 ms for ``B`` and ``P - dt B`` at 128x32, 2 vCPUs).

    Raises :class:`SolverFailureError` when SuperLU finds the matrix
    exactly singular.
    """
    try:
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         panel_size=1)
    except RuntimeError as exc:
        raise SolverFailureError(f"sparse LU failed: {exc}") from exc


def solve_spd(matrix: sp.csr_matrix, rhs: np.ndarray,
              grid: Grid) -> np.ndarray:
    """Solve a system by sparse LU with residual verification.

    The matrix is SPD or similar to an SPD matrix.  The package solves two:
    the mobility operator ``K`` of :func:`mobility_operator` (the inertial
    pressure) and the pencil's ``P = K diag(R f2) - diag(h f5)`` of
    :func:`film_pencil` (the pressure elimination).  ``P = M D`` with ``M =
    K - diag(h f5 / (R f2))`` SPD, since ``f5 <= 0``, and ``D = diag(R f2)
    > 0``, so ``P`` is similar to the SPD matrix ``D^1/2 M D^1/2`` and
    nonsingular.

    Returns the solution shaped like the grid.  Raises
    :class:`SolverFailureError` if the matrix is singular or the relative
    residual exceeds ``RESIDUAL_TOL``.
    """
    b = np.asarray(rhs, dtype=float).ravel()
    n = matrix.shape[0]
    if b.size != n:
        raise ConfigurationError(f"rhs has {b.size} entries, operator has {n}")
    x = _factorize(matrix).solve(b)
    scale = np.linalg.norm(b)
    if scale > 0.0:
        resid = np.linalg.norm(matrix @ x - b)
        if not resid <= RESIDUAL_TOL * scale + 1e-300:
            raise SolverFailureError(
                f"linear solve residual {resid:.3e} exceeds tol*|rhs| = "
                f"{RESIDUAL_TOL * scale:.3e}")
    return x.reshape(grid.shape)


# ---------------------------------------------------------------------------
# Coefficient rules on the face stencil
# ---------------------------------------------------------------------------

def _diffusion_fluxes(grid: Grid, coeff: np.ndarray):
    """Face coefficients ``(a, b)`` and edge terms of ``K = -Div(c Grad .)``
    for a positive ``c``: a Dirichlet edge's flux is ``2 c q / dx^2``."""
    c = ensure_field(grid, coeff, "diffusion coefficient").ravel()
    if np.any(c <= 0.0):
        raise ConfigurationError("diffusion coefficient must be positive")
    st = _stencil(grid)
    cf = 0.5 * (c.take(st.A) + c.take(st.B)) / st.face_dx2
    return st, cf, -cf, 2.0 * c.take(st.cell) / st.edge_dx2


@lru_cache(maxsize=32)
def _upwind(grid: Grid, forward: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The faces with positive velocity along their axis (``forward`` per
    axis) and the upwind cell of every face, ``A`` on those and ``B`` on the
    others (cached: it depends on the grid and the signs of ``U`` alone)."""
    st = _stencil(grid)
    mask = np.array(forward).take(st.face_axis)
    return mask, np.where(mask, st.A, st.B)


def _convective_fluxes(grid: Grid, U: tuple[float, float], w: np.ndarray):
    """``(st, forward, flux, edge)`` of ``S -> Div(U w S)``: a face's flux
    ``u w / dx`` at its upwind cell is its coefficient ``a`` on the
    ``forward`` faces and ``b`` on the others; ``edge`` the edge terms."""
    wf = ensure_field(grid, w, "weight field").ravel()
    st = _stencil(grid)
    vel = np.asarray(U, dtype=float)
    forward, up = _upwind(grid, tuple((vel > 0.0).tolist()))
    flux = vel.take(st.face_axis) * wf.take(up) / st.face_dx
    edge = st.edge_side * vel.take(st.edge_axis) * wf.take(st.cell) / st.edge_dx
    return st, forward, flux, edge


def _sensitivity_fluxes(grid: Grid, coeff_prime: np.ndarray,
                        potential: np.ndarray):
    """Face coefficients ``(a, b)`` and edge terms of
    ``S -> Div( c'(R) S Grad q )``."""
    cp = ensure_field(grid, coeff_prime, "coefficient derivative").ravel()
    q = ensure_field(grid, potential, "potential").ravel()
    st = _stencil(grid)
    g = (q.take(st.B) - q.take(st.A)) / st.face_dx2
    return (st, 0.5 * cp.take(st.A) * g, 0.5 * cp.take(st.B) * g,
            -2.0 * cp.take(st.cell) * q.take(st.cell) / st.edge_dx2)


def _cell_sums(st: _FaceStencil, face: np.ndarray, sign: float,
               edge: np.ndarray) -> np.ndarray:
    """Each cell's sum of the values ``face`` of the faces it is ``A`` of,
    ``sign`` times those of the faces it is ``B`` of, and its ``edge``
    values: ``sign = -1`` moves each face's flux from ``A`` to ``B``."""
    n = st.diag.size
    return (np.bincount(st.A, face, minlength=n)
            + sign * np.bincount(st.B, face, minlength=n)
            + np.bincount(st.cell, edge, minlength=n))


def film_residual(grid: Grid, R: np.ndarray, S: np.ndarray, h: np.ndarray,
                  U: tuple[float, float], params: PhysicalParams
                  ) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The film equation at the radius field ``R`` and the growth rate ``S``.

    Returns ``(F, p, mobility)``: ``p = f1(R) - R f2(R) S`` is the film
    pressure the growth law gives for ``S``, ``F = -(K p + h f5(R) S +
    Div(U h f4(R)))`` the film flux balance at ``(p, S)`` and ``mobility =
    (cf, ke)`` the face and edge coefficients of the mobility operator
    ``K = -Div(f3(R) h^3 Grad .)``, which :func:`mobility_operator`
    assembles.  ``F`` is summed into the cells from one flux per face, the
    diffusive ``cf (p_A - p_B)`` plus the upwind entrained flux of
    :func:`_convective_fluxes`, and one per edge: no matrix is built.  ``F``
    is affine in ``S``, ``F(R, S) = F(R, 0) + P S`` with ``P`` of
    :func:`film_pencil`.
    """
    Rf = ensure_field(grid, R, "R")
    Sf = ensure_field(grid, S, "S")
    hf = ensure_field(grid, h, "h")
    st = _stencil(grid)   # before any closure: a first call's build is its peak
    f1, f2, f3, f4, f5 = _closures(Rf, params)
    _, cf, _, ke = _diffusion_fluxes(grid, f3 * hf ** 3)
    _, _, flux, edge = _convective_fluxes(grid, U, hf * f4)
    p = f1 - Rf * f2 * Sf
    q = p.ravel()
    face = cf * (q.take(st.A) - q.take(st.B)) + flux
    F = (-_cell_sums(st, face, -1.0, ke * q.take(st.cell) + edge)
         - (hf * f5 * Sf).ravel())
    return F.reshape(grid.shape), p, (cf, ke)


def mobility_operator(grid: Grid, mobility: tuple) -> sp.csr_matrix:
    """``K = -Div(f3 h^3 Grad .)``, symmetric positive definite, assembled
    from the face and edge coefficients ``(cf, ke)`` of
    :func:`film_residual`: the one assembly of ``K``, for the callers that
    factor it or make it dense."""
    cf, ke = mobility
    return _assemble(_stencil(grid), cf, -cf, ke)


def flux_scale(grid: Grid, F: np.ndarray, p: np.ndarray, mobility: tuple,
               floor: float) -> float:
    """The 2-norm of ``|K| (|p| + floor) + |F + K p|`` for the balance ``F``,
    the pressure ``p`` and the ``mobility`` of one :func:`film_residual`
    call, summed from its face coefficients without ``K``: the
    off-diagonal entries of ``K`` are ``-cf``, so ``|K| q`` adds
    ``cf (q_A + q_B)`` to both cells of a face."""
    st = _stencil(grid)
    cf, ke = mobility
    p = p.ravel()
    q = np.abs(p) + floor
    d = cf * (p.take(st.A) - p.take(st.B))
    g = cf * (q.take(st.A) + q.take(st.B))
    net = np.abs(F.ravel() + _cell_sums(st, d, -1.0, ke * p.take(st.cell)))
    return float(np.linalg.norm(_cell_sums(st, g, 1.0, ke * q.take(st.cell))
                                + net))


def film_pencil(grid: Grid, R: np.ndarray, S: np.ndarray, h: np.ndarray,
                U: tuple[float, float], params: PhysicalParams
                ) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The one linearization of the film equation: ``B = -dF/dR`` at fixed
    ``S`` and ``P = dF/dS`` for ``F`` of :func:`film_residual`,

        B = K diag(f1' - S (R f2)') - Dsens(f3' h^3, p) + C(h f4')
            + diag(h f5' S),     p = f1 - R f2 S,
        P = K diag(R f2) - diag(h f5),

    with ``Dsens(c', q)`` the sensitivity ``S -> Div(c' S Grad q)`` of
    :func:`_sensitivity_fluxes` and ``C(w)`` the upwind divergence
    ``S -> Div(U w S)`` of :func:`_convective_fluxes`.  ``B`` is summed
    face by face and assembled once, ``P`` scales the data of ``K`` by
    ``R f2`` of each entry's column, and both add their diagonal terms
    through the stencil's diagonal slots: both live on the 5-point pattern
    of ``K``.
    """
    Rf = ensure_field(grid, R, "R")
    Sf = ensure_field(grid, S, "S")
    hf = ensure_field(grid, h, "h")
    f1, f2, f3, _, f5 = _closures(Rf, params)
    df1, df2, df3, df5 = _closure_slopes(Rf, params)
    h3 = hf ** 3
    Rf2 = Rf * f2
    st, ka, kb, ke = _diffusion_fluxes(grid, f3 * h3)
    _, sa, sb, se = _sensitivity_fluxes(grid, df3 * h3, f1 - Rf2 * Sf)
    _, forward, cf, ce = _convective_fluxes(grid, U, hf * f5)  # f4' = f5
    d = (df1 - Sf * (f2 + Rf * df2)).ravel()
    B = _assemble(st, ka * d.take(st.A) - sa + np.where(forward, cf, 0.0),
                  kb * d.take(st.B) - sb + np.where(forward, 0.0, cf),
                  ke * d.take(st.cell) - se + ce)
    B.data[st.diag] += (hf * df5 * Sf).ravel()
    P = _assemble(st, ka, kb, ke)
    P.data *= Rf2.ravel().take(st.indices)
    P.data[st.diag] -= (hf * f5).ravel()
    return B, P
