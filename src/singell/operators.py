"""Discrete divergence-form elliptic operators with homogeneous Dirichlet data.

The assembled matrix acts on interior nodes only; Dirichlet rows are
eliminated.  Assembly certifies the M-matrix sign pattern, which is the
discrete comparison-principle certificate used throughout.  This module is
also the one place that holds sparse matrices and decides how they are
solved: `SparseOperator.solver(shift)` solves (A + diag(shift)) x = b by
banded Cholesky in 1-D and by multigrid-preconditioned CG in 2-D.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import (CoefficientField, EllipticityError, Grid, GridFunction,
                    check_ellipticity)

COARSE_SIZE = 256           # multigrid levels stop at or below this many unknowns
CG_RELATIVE_TOL = 1e-13
CG_MAX_ITERATIONS = 500
JACOBI_WEIGHT = 0.8
SMOOTHING_SWEEPS = 2        # damped Jacobi sweeps before and after a coarse correction
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

    @functools.cached_property
    def _bands(self) -> np.ndarray:
        """Upper banded storage of a 1-D matrix: superdiagonal over diagonal."""
        return np.stack([np.r_[0.0, self.matrix.diagonal(1)], self.matrix.diagonal()])

    def solver(self, shift: Optional[np.ndarray] = None
               ) -> Callable[[np.ndarray], np.ndarray]:
        """Solver for (A + diag(shift)) x = b with shift >= 0 (None: A itself).

        1-D: LAPACK `solveh_banded` on A's bands plus the shift.  2-D: CG with
        a geometric V-cycle where the interior coarsens, SuperLU elsewhere.
        """
        if self.grid.dim == 1:
            bands = self._bands if shift is None else np.stack(
                [self._bands[0], self._bands[1] + shift])
            return functools.partial(sla.solveh_banded, bands)
        matrix = self.matrix if shift is None else (self.matrix + sp.diags(shift)).tocsc()
        coarse = _coarse_shapes(self.grid.interior_shape)
        if not coarse:
            return spla.splu(matrix).solve
        return _Multigrid(matrix, self.grid.interior_shape, coarse)

    @functools.cached_property
    def solve(self) -> Callable[[np.ndarray], np.ndarray]:
        """`solver()` for A itself, built on first use and kept with it."""
        return self.solver()

    def eliminate(self, mask: np.ndarray) -> "SparseOperator":
        """A with the masked unknowns' rows and columns cut to the diagonal (SPD)."""
        keep = sp.diags((~mask).astype(float))
        diagonal = sp.diags(np.where(mask, self.matrix.diagonal(), 0.0))
        matrix = (keep @ self.matrix @ keep + diagonal).tocsc()
        return SparseOperator(self.grid, matrix, self.alpha, self.beta)


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
    """Interior-node-to-face differences along one axis, shape (cells, cells - 1).

    Face k joins nodes k and k + 1; interior node j is node j + 1.
    """
    return sp.diags([-np.ones(cells - 1), np.ones(cells - 1)], [-1, 0],
                    shape=(cells, cells - 1))


def assemble(grid: Grid, coefficients: CoefficientField) -> SparseOperator:
    """Assemble the 3-point / 5-point divergence-form stencil on interior nodes.

    The matrix is sum_axis D^T W D: D maps interior nodal values (Dirichlet
    zeros eliminated) to differences on the cell faces of one axis and W
    holds the diagonal coefficient, averaged arithmetically onto those faces,
    over h^2, which keeps the matrix symmetric.  Only diagonal coefficient
    matrices fit the 5-point pattern; off-diagonal entries are rejected.
    """
    alpha, beta = check_ellipticity(coefficients)
    if not coefficients.is_diagonal():
        raise ValueError(
            "5-point assembly supports diagonal coefficient matrices only")
    matrix = None
    for axis, h in enumerate(grid.h):
        factors = [sp.identity(n) for n in grid.interior_shape]
        factors[axis] = _difference(grid.cells[axis])
        diff = functools.reduce(sp.kron, factors)
        faces = [slice(1, -1)] * grid.dim
        faces[axis] = slice(None)
        nodal = coefficients.entries[tuple(faces) + (axis, axis)]
        weight = _face_average(nodal, axis) / h ** 2
        term = diff.T @ sp.diags(weight.ravel()) @ diff
        matrix = term if matrix is None else matrix + term
    matrix = matrix.tocsc()
    matrix.sort_indices()
    _verify_m_matrix(matrix)
    return SparseOperator(grid, matrix, alpha, beta)


def _interpolation_1d(n: int) -> sp.csr_matrix:
    """Linear interpolation from (n - 1)/2 to n interior nodes (n odd)."""
    coarse = np.arange((n - 1) // 2)
    rows = np.concatenate([2 * coarse, 2 * coarse + 1, 2 * coarse + 2])
    cols = np.tile(coarse, 3)
    vals = np.repeat([0.5, 1.0, 0.5], coarse.size)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, coarse.size))


@functools.lru_cache(maxsize=16)
def _interpolation(shape: tuple[int, ...]) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Tensor-product interpolation P onto `shape` (C order) and R = P^T."""
    interp = functools.reduce(sp.kron, [_interpolation_1d(n) for n in shape]).tocsr()
    return interp, interp.T.tocsr()


def _coarse_shapes(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Shapes of the coarser levels below `shape`; empty if none can be formed."""
    shapes = []
    while (len(shape) >= 2 and all(n % 2 == 1 and n >= 7 for n in shape)
           and np.prod(shape) > COARSE_SIZE):
        shape = tuple((n - 1) // 2 for n in shape)
        shapes.append(shape)
    return shapes


class _Multigrid:
    """CG preconditioned by a symmetric geometric V-cycle.

    Every level but the coarsest smooths with damped Jacobi; the coarse
    matrices are Galerkin products P^T A P and the coarsest is factorized.
    The Jacobi divisor is the diagonal, raised to half the absolute row sum
    where a Galerkin matrix loses diagonal dominance (strong anisotropy), so
    the smoother stays convergent and the V-cycle stays SPD.
    """

    def __init__(self, matrix: sp.spmatrix, shape: tuple[int, ...],
                 coarse: list[tuple[int, ...]]):
        self.matrix = matrix.tocsr()
        self.levels = []          # (matrix, omega / divisor, P, R) per smoothed level
        fine = self.matrix
        for level_shape in [shape] + coarse[:-1]:
            interp, restrict = _interpolation(level_shape)
            divisor = np.maximum(fine.diagonal(),
                                 0.5 * np.asarray(abs(fine).sum(axis=1)).ravel())
            self.levels.append((fine, JACOBI_WEIGHT / divisor, interp, restrict))
            fine = (restrict @ fine @ interp).tocsr()
        self.coarse_solve = spla.splu(fine.tocsc()).solve

    def _vcycle(self, r: np.ndarray) -> np.ndarray:
        stack = []
        for matrix, scale, _, restrict in self.levels:
            x = scale * r
            for _ in range(SMOOTHING_SWEEPS - 1):
                x += scale * (r - matrix @ x)
            stack.append((r, x))
            r = restrict @ (r - matrix @ x)
        e = self.coarse_solve(r)
        for (matrix, scale, interp, _), (r, x) in zip(reversed(self.levels),
                                                     reversed(stack)):
            x += interp @ e
            for _ in range(SMOOTHING_SWEEPS):
                x += scale * (r - matrix @ x)
            e = x
        return e

    def __call__(self, b: np.ndarray) -> np.ndarray:
        precond = spla.LinearOperator(self.matrix.shape, matvec=self._vcycle,
                                      dtype=float)
        x, info = spla.cg(self.matrix, b, rtol=CG_RELATIVE_TOL, atol=0.0,
                          maxiter=CG_MAX_ITERATIONS, M=precond)
        if info != 0:
            res = float(np.max(np.abs(self.matrix @ x - b)))
            raise LinearSolveError("multigrid-preconditioned CG did not converge", res)
        return x


def solve_linear(op: SparseOperator, rhs: GridFunction) -> GridFunction:
    """Solve op u = rhs with zero boundary values.

    The residual is verified against 1e-10 * (1 + |rhs|_inf); one or two
    iterative-refinement sweeps absorb factorization or CG rounding.
    """
    if rhs.grid != op.grid:
        raise ValueError("rhs lives on a different grid")
    b = op.interior_of(rhs)
    x = op.solve(b)
    bound = RESIDUAL_BOUND * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    for _ in range(2):
        res = b - op.matrix @ x
        if np.max(np.abs(res), initial=0.0) <= bound:
            break
        x = x + op.solve(res)
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
