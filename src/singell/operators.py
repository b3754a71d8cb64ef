"""Discrete divergence-form elliptic operators with homogeneous Dirichlet data.

The assembled matrix acts on interior nodes only; Dirichlet rows are
eliminated.  Assembly writes it straight into diagonal (DIA) storage and
certifies the M-matrix sign pattern there, which is the discrete
comparison-principle certificate used throughout.  This module is
also the one place that holds sparse matrices and decides how they are
solved: `SparseOperator.solver(shift, rtol)` solves (A + diag(shift)) x = b,
for one shift or for each row of a (k, n) stack of shifts, as a sweep's
lockstep Newton step needs.  A grid that does not coarsen, every 1-D grid
among them, gets the package's only direct solve (`_Banded`): LAPACK banded
Cholesky (`pttrf`/`pbtrf`, the pair `solveh_banded` runs), factored once
per solver, of the block-diagonal concatenation of the stack's systems.
Every other grid gets CG on A's multigrid hierarchy, built once per
operator, with one CG per row of a stack.  Products with A and with every
smoothed level run in diagonal (DIA) storage, offsets ascending (Saad,
Iterative Methods for Sparse Linear Systems, 2nd ed., SIAM 2003, sec. 3.4):
each row then sums its entries in the CSR column order, so the products
are bit-identical to CSR ones and read no index array.  A's CSR form
`matrix` is derived once from its diagonals, for the Galerkin products
only: a 1-D operator reads its two bands, and every operator its rounding
floor, off the diagonals, so no 1-D grid forms CSR.  Each solver adds the
shift to one row of a copy of every level's diagonals, smooths with damped
Jacobi and solves the coarsest level by `_Banded`.  CG stops at the
relative residual `rtol`: `CG_RELATIVE_TOL` for A's own solves, a looser
forcing term for inexact Newton steps.  Every solver counts the CG
iterations it ran in `iterations` (0 if direct; per row for a stack) and
keeps in `failures` the rows of a stack whose CG failed.  Each row of a
stack is bit for bit its own solver.  `SparseOperator.harmonic_lift` is
the one discrete harmonic lift of a node set, one penalized solve on A's
own hierarchy: the solver's start and the harmonic comparison both use it.

A computed residual b - A x cannot fall below the rounding error of A x,
which Higham's bound for k-term dot products puts at eps k |A|_inf |x|_inf,
k the most entries in a row of A (3 in 1-D, 5 in 2-D; Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., SIAM 2002, sec. 3.1).
`SparseOperator.rounding_floor(x)` is that term; `solve_linear` accepts a
residual up to RESIDUAL_BOUND (1 + |b|_inf) plus it, and the Newton bound
of `singell.solver` adds it too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import CoefficientField, EllipticityError, Grid, GridFunction

COARSE_SIZE = 256           # multigrid levels stop at or below this many unknowns
CG_RELATIVE_TOL = 1e-13
CG_MAX_ITERATIONS = 500
JACOBI_WEIGHT = 0.8
SMOOTHING_SWEEPS = 2        # damped Jacobi sweeps before and after a coarse correction
RESIDUAL_BOUND = 1e-10  # scaled by (1 + |rhs|_inf)
LIFT_PENALTY = 1e12     # weight on the mask of the lift solve, in units of max diag A


class LinearSolveError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (achieved residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SparseOperator:
    """Symmetric M-matrix discretization of -div(M grad .) on interior nodes,
    held in diagonal storage, offsets ascending: its products equal the
    CSR ones bit for bit."""

    grid: Grid
    diagonals: sp.dia_matrix

    @property
    def n_unknowns(self) -> int:
        return self.diagonals.shape[0]

    def interior_of(self, u: GridFunction) -> np.ndarray:
        return u.interior().reshape(-1)

    def full_from_interior(self, vec: np.ndarray) -> GridFunction:
        full = np.zeros(self.grid.shape)
        full[(slice(1, -1),) * self.grid.dim] = vec.reshape(self.grid.interior_shape)
        return GridFunction(self.grid, full)

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """A in canonical CSR, derived once from `diagonals`: the Galerkin
        products of a grid that coarsens take it."""
        return self.diagonals.tocsr()

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.diagonals @ vec

    @functools.cached_property
    def _product_error_scale(self) -> float:
        """eps k |A|_inf, with k the most entries in a row of A, both read
        off the diagonals: a DIA product with ones sums each row in CSR
        column order, of the nonzero pattern for k and of |A| for the norm."""
        ones = np.ones(self.n_unknowns)
        pattern = sp.dia_matrix(((self.diagonals.data != 0).astype(float),
                                 self.diagonals.offsets), shape=self.diagonals.shape)
        entries = int(np.max(pattern @ ones))
        norm = float(np.max(abs(self.diagonals) @ ones))
        return np.finfo(float).eps * entries * norm

    def rounding_floor(self, x: np.ndarray):
        """eps k |A|_inf |x|_inf: the rounding error a computed A x may carry;
        one value per row of a stack of vectors."""
        return self._product_error_scale * np.abs(x).max(axis=-1, initial=0.0)

    @functools.cached_property
    def _hierarchy(self) -> tuple[list[tuple], tuple]:
        """A's Galerkin levels, (A_l in diagonal storage, the row of its main
        diagonal in A_l.data, |A_l| row sums, P, R, P 1) each, and the
        coarsest matrix (A itself where the grid does not coarsen) as
        `_coarse_bands` returns it.  The CSR Galerkin products are formed
        once here and not kept.  A 1-D grid has no coarse level, and its
        bands are the rows of offsets +1 and 0 of `diagonals` (the one at
        +1 holds A[j - 1, j] at column j, 0 at column 0): no CSR is formed."""
        if self.grid.dim == 1:
            offsets = list(self.diagonals.offsets)
            bands = self.diagonals.data[[offsets.index(1), offsets.index(0)]]
            return [], (bands, self.grid.interior_shape, (0,))
        levels = []
        matrix = self.matrix
        shapes = [self.grid.interior_shape] + _coarse_shapes(self.grid.interior_shape)
        for shape in shapes[:-1]:
            interp, restrict, interp_rows = _interpolation(shape)
            stored = matrix.todia() if levels else self.diagonals
            # every row holds its diagonal, so this is scipy's abs(matrix).sum(axis=1)
            # without the copy: the same reduction, bit for bit
            abs_rows = np.add.reduceat(np.abs(matrix.data), matrix.indptr[:-1])
            levels.append((stored, int(np.flatnonzero(stored.offsets == 0)[0]),
                           abs_rows, interp, restrict, interp_rows))
            matrix = restrict @ matrix @ interp
            matrix.sort_indices()   # canonical: the next product sums in column order
        return levels, _coarse_bands(matrix, shapes[-1])

    @property
    def direct(self) -> bool:
        """`solver` solves directly, so it ignores `rtol`: the grid has no
        coarse level (every 1-D grid)."""
        return not self._hierarchy[0]

    def solver(self, shift: Optional[np.ndarray] = None,
               rtol=CG_RELATIVE_TOL) -> Callable[[np.ndarray], np.ndarray]:
        """Solver for (A + diag(shift)) x = b with shift >= 0 (None: A itself).

        The one place that chooses the method.  On a grid with no coarse
        level (every 1-D grid), banded Cholesky on A's bands plus the shift,
        direct (`_Banded`; `rtol` is ignored).  Otherwise CG to relative
        residual `rtol`, preconditioned by a V-cycle on A's cached hierarchy
        with the shift and its coarse images on the diagonals (`_Multigrid`).
        A (k, n) stack of shifts gives the solver of the k systems, with
        `rtol` one value or one per row: one `_Banded` of the stack, or one
        `_Multigrid` per row (`_PerRow`).  It maps a (k, n) stack of
        right-hand sides to the stack of solutions, each row bit for bit the
        one the row's own solver computes.
        """
        levels, coarsest = self._hierarchy
        shift = np.zeros(self.n_unknowns) if shift is None else shift
        if not levels:
            return _Banded(*coarsest, shift)
        if shift.ndim == 1:
            return _Multigrid(self._hierarchy, shift, rtol)
        return _PerRow([_Multigrid(self._hierarchy, row, row_rtol) for row, row_rtol
                        in zip(shift, np.broadcast_to(rtol, len(shift)))])

    @functools.cached_property
    def solve(self) -> Callable[[np.ndarray], np.ndarray]:
        """`solver()` for A itself, built on first use and kept with it."""
        return self.solver()

    def harmonic_lift(self, mask: np.ndarray, rtol=CG_RELATIVE_TOL) -> np.ndarray:
        """The discrete harmonic lift phi of the interior nodes in `mask`:
        1 on the mask, (A phi)_i = 0 off it and 0 on the boundary.

        phi is 1_mask + y with (A + s diag(1_mask)) y = -A 1_mask off the
        mask and 0 on it, s = LIFT_PENALTY max diag A: the penalty pins y to
        about 1/LIFT_PENALTY of its size on the mask, and the right-hand side
        stays of the size of A 1_mask, so `rtol` bounds the relative residual
        of A phi off the mask.  One `solver` call, on A's own hierarchy; phi
        is then set to 1 on the mask and clipped to [0, 1].  An empty or
        full mask needs no solve.
        """
        phi = mask.astype(float)
        if not mask.any() or mask.all():
            return phi
        penalty = LIFT_PENALTY * float(self.diagonals.diagonal().max())
        y = self.solver(penalty * phi, rtol=rtol)(np.where(mask, 0.0, -self.apply(phi)))
        return np.where(mask, 1.0, np.clip(y, 0.0, 1.0))


def _verify_m_matrix(diagonals: sp.dia_matrix) -> None:
    main = diagonals.offsets == 0
    if np.max(diagonals.data[~main], initial=0.0) > 1e-14:
        raise EllipticityError("assembled operator has a positive off-diagonal entry")
    row_sums = diagonals @ np.ones(diagonals.shape[1])
    scale = np.abs(diagonals.data[main])
    if np.min(row_sums) < -1e-12 * np.max(scale):
        raise EllipticityError("assembled operator lost weak diagonal dominance")


def face_weights(coefficients: CoefficientField) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis a, M_aa = entries[..., a] averaged arithmetically onto the
    faces below and above each interior node (two interior-shaped arrays)."""
    dim = coefficients.grid.dim
    out = []
    for axis in range(dim):
        faces = [slice(1, -1)] * dim
        faces[axis] = slice(None)
        nodal = coefficients.entries[tuple(faces) + (axis,)]
        weight = 0.5 * (np.delete(nodal, -1, axis) + np.delete(nodal, 0, axis))
        out.append((np.delete(weight, -1, axis), np.delete(weight, 0, axis)))
    return out


def assemble(grid: Grid, coefficients: CoefficientField) -> SparseOperator:
    """Assemble the 3-point / 5-point divergence-form stencil on interior nodes.

    The matrix is sum_axis D^T W D, D the differences of interior nodal
    values (Dirichlet zeros eliminated) across the cell faces of one axis and
    W the diagonal coefficient on those faces (`face_weights`) over h^2,
    which keeps the matrix symmetric.  It is written straight into diagonal
    storage, offsets ascending, data[k, j] = A[j - offset_k, j]: the
    diagonal carries the sum of node j's face weights w, and the diagonals
    at -+stride of an axis carry -w of the face above and below node j on
    it, 0 where that face lies on the boundary.  A field on another grid
    raises ValueError.
    """
    if coefficients.grid != grid:
        raise ValueError("coefficient field lives on a different grid")
    coefficients.ellipticity    # EllipticityError for a field that fails
    shape = grid.interior_shape
    diagonal = 0.0
    below, above = [], []       # (offset, data) of each axis's neighbour diagonals
    for axis, ((lower, upper), h) in enumerate(zip(face_weights(coefficients), grid.h)):
        lower, upper = lower / h ** 2, upper / h ** 2
        diagonal = diagonal + (lower + upper)
        stride = int(np.prod(shape[axis + 1:]))
        # A[j + stride, j] and A[j - stride, j]: -w of the faces above and
        # below node j, 0 on the last and the first layer of the axis
        up, down = -upper, -lower
        up[(slice(None),) * axis + (-1,)] = 0.0
        down[(slice(None),) * axis + (0,)] = 0.0
        below.append((-stride, up))
        above.append((stride, down))
    # offsets ascend: -stride_0 < -stride_1 < 0 < stride_1 < stride_0
    offsets, data = zip(*below, (0, diagonal), *above[::-1])
    size = int(np.prod(shape))
    diagonals = sp.dia_matrix((np.stack(data).reshape(len(data), size), offsets),
                              shape=(size, size))
    _verify_m_matrix(diagonals)
    return SparseOperator(grid, diagonals)


def _interpolation_1d(n: int) -> sp.csr_matrix:
    """Linear interpolation from n // 2 to n interior nodes (one-sided at an even end)."""
    coarse = np.arange(n // 2)
    rows = np.concatenate([2 * coarse, 2 * coarse + 1, 2 * coarse + 2])
    cols = np.tile(coarse, 3)
    vals = np.repeat([0.5, 1.0, 0.5], coarse.size)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n + 1, coarse.size))[:n]


@functools.lru_cache(maxsize=16)
def _interpolation(shape: tuple[int, ...]) -> tuple[sp.csr_matrix, sp.csr_matrix,
                                                    np.ndarray]:
    """Tensor-product interpolation P onto `shape` (C order), R = P^T and P 1."""
    interp = functools.reduce(sp.kron, [_interpolation_1d(n) for n in shape]).tocsr()
    rows = np.asarray(interp.sum(axis=1)).ravel()
    rows.setflags(write=False)
    return interp, interp.T.tocsr(), rows


def _coarse_shapes(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Shapes of the coarser levels below `shape`; empty if none can be formed."""
    shapes = []
    while len(shape) >= 2 and min(shape) >= 7 and np.prod(shape) > COARSE_SIZE:
        shape = tuple(n // 2 for n in shape)
        shapes.append(shape)
    return shapes


def _coarse_bands(matrix: sp.csr_matrix, shape: tuple[int, ...]) -> tuple:
    """The coarsest level as `_Banded` takes it: (bands, shape, axes).

    The unknowns of `matrix` are the nodes of `shape` in C order; they are
    renumbered in the C order of the axes transposed to `axes`, the shortest
    axis last, so that the bandwidth w is at most the shortest axis plus one
    (nine-point Galerkin stencils).  In 1-D w is 1 and the bands are
    superdiagonal over diagonal, which `SparseOperator._hierarchy` reads
    straight off A's diagonals instead.  Entry (i, j), i <= j, of the
    renumbered matrix sits at bands[w + i - j, j], LAPACK's upper band
    storage.
    """
    axes = tuple(np.argsort([-n for n in shape], kind="stable"))
    order = np.arange(matrix.shape[0]).reshape(shape).transpose(axes).ravel()
    number = np.argsort(order, kind="stable")
    coo = matrix.tocoo()
    rows, cols = number[coo.row], number[coo.col]
    upper = rows <= cols
    width = int(np.max(cols - rows))
    bands = np.zeros((width + 1, matrix.shape[0]))
    bands[width + rows[upper] - cols[upper], cols[upper]] = coo.data[upper]
    return bands, shape, axes


class _Banded:
    """Banded Cholesky solve of (B + diag(s)) x = b for B given as
    `_coarse_bands` and a shift s of shape (n,), or of the k systems of a
    (k, n) shift stack, mapping a (k, n) stack of right-hand sides to its
    solutions: one shift is the stack of one.  Direct, so no CG iterations.

    The k systems are factored once, here, as their block-diagonal
    concatenation: the tiled bands couple no two blocks.  The LAPACK routine
    is the one `solveh_banded` runs before its solve (`pttrf` on two bands,
    `pbtrf` otherwise; Anderson et al., LAPACK Users' Guide, 3rd ed., SIAM
    1999), and `bands` holds the factor in the same layout, so each block is
    bit for bit `solveh_banded` on its shifted bands as long as every value
    stays finite: the factor and the solve multiply a zero coupling by a
    neighbouring block's value, and 0 * inf is NaN.  So a solution of a
    stack of more than one with a non-finite entry is solved again row by
    row.
    """

    def __init__(self, bands: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...],
                 shift: np.ndarray):
        self.unshifted, self.shape, self.axes, self.shift = bands, shape, axes, shift
        self.iterations = np.zeros(len(shift), dtype=int) if shift.ndim == 2 else 0
        self.failures: dict[int, LinearSolveError] = {}
        self.bands = np.concatenate([bands] * (shift.size // bands.shape[1]), axis=1)
        self.bands[-1] += self._renumbered(shift).ravel()
        if len(self.bands) == 2:    # factored in place (overwrite_d, overwrite_e = 1, 1)
            *_, info = sla.lapack.dpttrf(self.bands[1], self.bands[0, 1:], 1, 1)
        else:
            self.bands, info = sla.lapack.dpbtrf(self.bands)
        _check_lapack(info)

    def _renumbered(self, v: np.ndarray) -> np.ndarray:
        """The rows of v, one vector or a stack, in the band numbering (a
        view of a contiguous v)."""
        return v.reshape((-1,) + self.shape).transpose((0,) + tuple(a + 1 for a in self.axes))

    def _solve(self, b: np.ndarray) -> np.ndarray:
        if len(self.bands) == 2:
            x, info = sla.lapack.dpttrs(self.bands[1], self.bands[0, 1:], b)
        else:
            x, info = sla.lapack.dpbtrs(self.bands, b)
        _check_lapack(info)
        return x

    def __call__(self, b: np.ndarray) -> np.ndarray:
        x = np.empty(b.shape)
        renumbered = self._renumbered(x)   # a view: writing it fills x
        renumbered[...] = self._solve(self._renumbered(b).ravel()).reshape(renumbered.shape)
        if b.ndim == 2 and len(b) > 1 and not np.isfinite(x).all():
            return np.array([_Banded(self.unshifted, self.shape, self.axes, shift)(row)
                             for shift, row in zip(self.shift, b)])
        return x


def _check_lapack(info: int) -> None:
    """Raise as `solveh_banded` does on a nonzero LAPACK `info`."""
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal LAPACK call")


class _Multigrid:
    """CG on A + diag(d), preconditioned by a symmetric geometric V-cycle.

    Level l is A's P^T A P plus diag(d_l), d_{l+1} = R (d_l * P 1) the
    row-lumped image of d_l, added to the main-diagonal row of a copy of the
    cached level's DIA data, so every sweep, residual and CG product is one
    DIA product.  Damped Jacobi smooths every level but the coarsest, which
    is solved by banded Cholesky (`_Banded`), factored here once; a grid
    with no coarse level takes `_Banded` alone.  Sweeps and residuals update
    in place.  The divisor max(diagonal, half the absolute row sum) keeps
    the smoother convergent on anisotropic Galerkin levels, so the V-cycle
    stays SPD.
    """

    def __init__(self, hierarchy: tuple[list[tuple], tuple], shift: np.ndarray,
                 rtol: float):
        levels, coarsest = hierarchy
        self.rtol = rtol
        self.iterations = 0       # CG iterations over all calls
        self.failures: dict[int, LinearSolveError] = {}   # a failed CG raises
        self.levels = []          # (A_l + diag(d_l), omega / divisor, P, R) per smoothed level
        for matrix, main, abs_rows, interp, restrict, interp_rows in levels:
            data = matrix.data.copy()
            data[main] += shift
            shifted = sp.dia_matrix((data, matrix.offsets), shape=matrix.shape)
            divisor = np.maximum(data[main], 0.5 * (abs_rows + shift))
            self.levels.append((shifted, JACOBI_WEIGHT / divisor, interp, restrict))
            shift = restrict @ (shift * interp_rows)
        self.coarse_solve = _Banded(*coarsest, shift)

    def _vcycle(self, r: np.ndarray) -> np.ndarray:
        stack = []
        for matrix, scale, _, restrict in self.levels:
            x = scale * r
            for _ in range(SMOOTHING_SWEEPS - 1):
                _smooth(matrix, scale, r, x)
            stack.append((r, x))
            t = matrix @ x
            r = restrict @ np.subtract(r, t, out=t)
        e = self.coarse_solve(r)
        for (matrix, scale, interp, _), (r, x) in zip(reversed(self.levels),
                                                     reversed(stack)):
            x += interp @ e
            for _ in range(SMOOTHING_SWEEPS):
                _smooth(matrix, scale, r, x)
            e = x
        return e

    def _count(self, _x: np.ndarray) -> None:
        self.iterations += 1

    def __call__(self, b: np.ndarray) -> np.ndarray:
        system = self.levels[0][0]
        precond = spla.LinearOperator(system.shape, matvec=self._vcycle, dtype=float)
        x, info = spla.cg(system, b, rtol=self.rtol, atol=0.0,
                          maxiter=CG_MAX_ITERATIONS, M=precond,
                          callback=self._count)
        if info != 0:
            res = float(np.max(np.abs(system @ x - b)))
            raise LinearSolveError("multigrid-preconditioned CG did not converge", res)
        return x


class _PerRow:
    """Solver of a (k, n) stack by one solver per row.  A row whose solve
    raises LinearSolveError comes back as NaN, with the error kept in
    `failures` under the row's index, and the other rows still solve;
    `iterations` holds each row's CG iterations."""

    def __init__(self, rows: list["_Multigrid"]):
        self.rows = rows
        self.failures: dict[int, LinearSolveError] = {}

    @property
    def iterations(self) -> np.ndarray:
        return np.array([solve.iterations for solve in self.rows])

    def __call__(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        for i, (solve, row) in enumerate(zip(self.rows, b)):
            try:
                x[i] = solve(row)
            except LinearSolveError as exc:
                self.failures[i] = exc
                x[i] = np.nan
        return x


def _smooth(matrix: sp.dia_matrix, scale: np.ndarray, r: np.ndarray,
            x: np.ndarray) -> None:
    """One damped Jacobi sweep x += scale (r - matrix x), in place."""
    t = matrix @ x
    np.subtract(r, t, out=t)
    t *= scale
    x += t


def solve_linear(op: SparseOperator, rhs: GridFunction) -> GridFunction:
    """Solve op u = rhs with zero boundary values.

    The residual is verified against RESIDUAL_BOUND (1 + |rhs|_inf) plus the
    rounding floor of A u (`SparseOperator.rounding_floor`); one or two
    iterative-refinement sweeps absorb factorization or CG rounding.
    """
    if rhs.grid != op.grid:
        raise ValueError("rhs lives on a different grid")
    b = op.interior_of(rhs)
    bound = RESIDUAL_BOUND * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    x = op.solve(b)
    for refinement in range(3):
        res = b - op.apply(x)
        residual = float(np.max(np.abs(res), initial=0.0))
        if residual <= bound + op.rounding_floor(x):
            return op.full_from_interior(x)
        if refinement < 2:
            x = x + op.solve(res)
    raise LinearSolveError("linear solve residual above tolerance", residual)


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
        k = int(np.ceil((x - lo) / h - 0.5))   # ties toward the lower index
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
