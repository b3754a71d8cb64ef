"""Discrete divergence-form elliptic operators with homogeneous Dirichlet data.

The assembled matrix acts on interior nodes only; Dirichlet rows are
eliminated.  Assembly certifies the M-matrix sign pattern, which is the
discrete comparison-principle certificate used throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import (CoefficientField, EllipticityError, Grid, GridFunction,
                    check_ellipticity)

# direct factorization below this many unknowns, diagonally preconditioned CG above
DIRECT_SOLVE_LIMIT = 100_000
CG_RELATIVE_TOL = 1e-12
RESIDUAL_BOUND = 1e-10  # scaled by (1 + |rhs|_inf)


class LinearSolveError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (achieved residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SparseOperator:
    """Symmetric M-matrix discretization of -div(M grad .) on interior nodes."""

    grid: Grid
    matrix: sp.csc_matrix
    alpha: float
    beta: float

    @property
    def n_unknowns(self) -> int:
        return self.matrix.shape[0]

    def interior_of(self, u: GridFunction) -> np.ndarray:
        return u.interior().reshape(-1)

    def full_from_interior(self, vec: np.ndarray) -> GridFunction:
        full = np.zeros(self.grid.shape)
        sl = tuple(slice(1, -1) for _ in range(self.grid.dim))
        full[sl] = vec.reshape(self.grid.interior_shape)
        return GridFunction(self.grid, full)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec


def _face_average(nodal: np.ndarray, axis: int) -> np.ndarray:
    lo = [slice(None)] * nodal.ndim
    hi = [slice(None)] * nodal.ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return 0.5 * (nodal[tuple(lo)] + nodal[tuple(hi)])


def _verify_m_matrix(matrix: sp.csc_matrix) -> None:
    coo = matrix.tocoo()
    off = coo.data[coo.row != coo.col]
    if off.size and np.max(off) > 1e-14:
        raise EllipticityError("assembled operator has a positive off-diagonal entry")
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    scale = np.abs(matrix.diagonal())
    if np.min(row_sums) < -1e-12 * np.max(scale):
        raise EllipticityError("assembled operator lost weak diagonal dominance")


def _difference(cells: int) -> sp.spmatrix:
    """Node-to-face differences along one axis, shape (cells, cells + 1)."""
    return sp.diags([-np.ones(cells), np.ones(cells)], [0, 1],
                    shape=(cells, cells + 1))


def node_matrix(grid: Grid, coefficients: CoefficientField) -> sp.csr_matrix:
    """-div(M grad .) on every node, boundary included: sum_axis D^T W D.

    D maps nodal values to differences on the cell faces of one axis and W
    holds the diagonal coefficient, averaged arithmetically onto those faces,
    over h^2.  The matrix is symmetric; its rows at interior nodes are the
    3-point / 5-point stencil.
    """
    total = None
    for axis, h in enumerate(grid.h):
        factors = [sp.identity(s) for s in grid.shape]
        factors[axis] = _difference(grid.cells[axis])
        diff = functools.reduce(sp.kron, factors)
        weight = _face_average(coefficients.entries[..., axis, axis], axis) / h ** 2
        term = diff.T @ sp.diags(weight.ravel()) @ diff
        total = term if total is None else total + term
    return total.tocsr()


def assemble(grid: Grid, coefficients: CoefficientField) -> SparseOperator:
    """Assemble the 3-point / 5-point divergence-form stencil on interior nodes.

    Nodal coefficient matrices are averaged arithmetically onto cell faces,
    which keeps the assembled matrix symmetric.  Only diagonal coefficient
    matrices fit the 5-point pattern; off-diagonal entries are rejected.
    """
    alpha, beta = check_ellipticity(coefficients)
    if not coefficients.is_diagonal():
        raise ValueError(
            "5-point assembly supports diagonal coefficient matrices only")
    interior = np.flatnonzero(~grid.frame_mask())
    matrix = node_matrix(grid, coefficients)[interior][:, interior].tocsc()
    _verify_m_matrix(matrix)
    return SparseOperator(grid, matrix, alpha, beta)


def _solve_interior(op: SparseOperator, rhs: np.ndarray) -> np.ndarray:
    if op.n_unknowns <= DIRECT_SOLVE_LIMIT:
        return spla.splu(op.matrix).solve(rhs)
    precond = spla.LinearOperator(
        op.matrix.shape, matvec=lambda v: v / op.matrix.diagonal())
    sol, info = spla.cg(op.matrix, rhs, rtol=CG_RELATIVE_TOL, atol=0.0,
                        maxiter=20 * op.n_unknowns, M=precond)
    if info != 0:
        res = float(np.max(np.abs(op.matrix @ sol - rhs)))
        raise LinearSolveError("conjugate gradient did not converge", res)
    return sol


def solve_linear(op: SparseOperator, rhs: GridFunction) -> GridFunction:
    """Solve op u = rhs with zero boundary values.

    The residual is verified against 1e-10 * (1 + |rhs|_inf); one or two
    iterative-refinement sweeps absorb factorization rounding.
    """
    if rhs.grid != op.grid:
        raise ValueError("rhs lives on a different grid")
    b = op.interior_of(rhs)
    x = _solve_interior(op, b)
    bound = RESIDUAL_BOUND * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    for _ in range(2):
        res = b - op.matrix @ x
        if np.max(np.abs(res), initial=0.0) <= bound:
            break
        x = x + _solve_interior(op, res)
    residual = float(np.max(np.abs(b - op.matrix @ x), initial=0.0))
    if residual > bound:
        raise LinearSolveError("linear solve residual above tolerance", residual)
    return op.full_from_interior(x)


@dataclass(frozen=True)
class MeasureData:
    """Finite atomic measure: (location, mass) pairs, locations strictly interior."""

    atoms: tuple[tuple[tuple[float, ...], float], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "MeasureData":
        atoms = []
        for loc, mass in pairs:
            loc_t = (float(loc),) if np.isscalar(loc) else tuple(float(x) for x in loc)
            atoms.append((loc_t, float(mass)))
        return cls(tuple(atoms))


def _nearest_interior_node(grid: Grid, location: tuple[float, ...]) -> tuple[int, ...]:
    idx = []
    for x, lo, hi, h, c in zip(location, grid.lo, grid.hi, grid.h, grid.cells):
        if not (lo < x < hi):
            raise ValueError(f"measure location {location} is not strictly interior")
        r = (x - lo) / h
        base = int(np.floor(r))
        frac = r - base
        k = base + (1 if frac > 0.5 else 0)   # ties toward the lower index
        k = min(max(k, 1), c - 1)
        idx.append(k)
    return tuple(idx)


def solve_measure(op: SparseOperator, mu: MeasureData) -> GridFunction:
    """Discrete Green-type solution of op u = mu.

    Each point mass becomes a nodal load mass/h (1-D) or mass/(hx*hy) (2-D)
    at the nearest interior node, so 1-D piecewise-linear solutions are
    reproduced exactly at nodes.
    """
    load = np.zeros(op.grid.shape)
    vol = op.grid.cell_volume()
    for loc, mass in mu.atoms:
        if len(loc) != op.grid.dim:
            raise ValueError("measure location dimension does not match grid")
        node = _nearest_interior_node(op.grid, loc)
        load[node] += mass / vol
    return solve_linear(op, GridFunction(op.grid, load))
