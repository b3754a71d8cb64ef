"""Uniform tensor grids, nodal fields, coefficient matrices and problem data.

Everything here is immutable after construction; instances are safe to share
read-only across threads.  A datum is checked in one place: `ProblemSpec`
samples it on its grid and refuses the sample unless every value is finite
and nonnegative (NaN and inf included); the datum classes only describe f.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np


class EllipticityError(ValueError):
    """A coefficient field or its assembled operator is not uniformly elliptic."""


def _axis_tuple(value, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),)
    vals = tuple(float(v) for v in value)
    if len(vals) not in (1, 2):
        raise ValueError(f"{name} must be scalar or length 1-2, got {value!r}")
    return vals


@dataclass(frozen=True)
class Grid:
    """Uniform tensor mesh on a 1-D interval or 2-D box, boundary nodes included."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    cells: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple((b - a) / c for a, b, c in zip(self.lo, self.hi, self.cells))

    @property
    def shape(self) -> tuple[int, ...]:
        """Nodes per axis (cells + 1)."""
        return tuple(c + 1 for c in self.cells)

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(c - 1 for c in self.cells)

    def axes(self) -> list[np.ndarray]:
        """Node coordinates per axis.  The last node is hi itself: lo + h*cells
        can miss it by an ulp, and a box ending on hi must hold that node."""
        return [np.append(a + hh * np.arange(c), b)
                for a, b, hh, c in zip(self.lo, self.hi, self.h, self.cells)]

    def meshes(self) -> list[np.ndarray]:
        """Node coordinates broadcast to the full grid shape ('ij' indexing)."""
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def box_mask(self, box) -> np.ndarray:
        """Nodes in the closed box (lo, hi); corners are scalars in 1-D."""
        lo, hi = (_axis_tuple(corner, "box corner") for corner in box)
        mask = np.ones(self.shape, dtype=bool)
        for mesh, a, b in zip(self.meshes(), lo, hi):
            mask &= (mesh >= a) & (mesh <= b)
        return mask

    def frame_mask(self) -> np.ndarray:
        """Nodes on the boundary of the domain."""
        mask = np.ones(self.shape, dtype=bool)
        mask[tuple(slice(1, -1) for _ in range(self.dim))] = False
        return mask


def _cell_count(c) -> int:
    """A cell count as an int; ValueError unless it is an integral number
    (an int, or a float with no fractional part; not a bool or a string)."""
    integral = (isinstance(c, (int, np.integer))
                or (isinstance(c, (float, np.floating)) and float(c).is_integer()))
    if isinstance(c, bool) or not integral:
        raise ValueError(f"cell counts must be integers, got {c!r}")
    return int(c)


def make_uniform_grid(lo, hi, cells) -> Grid:
    """Build an equispaced grid; extent and cell counts are validated per axis."""
    lo_t = _axis_tuple(lo, "lo")
    hi_t = _axis_tuple(hi, "hi")
    cells_t = tuple(_cell_count(c) for c in ((cells,) if np.ndim(cells) == 0 else cells))
    if not (len(lo_t) == len(hi_t) == len(cells_t)):
        raise ValueError("lo, hi and cells must agree in dimension")
    for a, b in zip(lo_t, hi_t):
        if not a < b:
            raise ValueError(f"degenerate extent: lo={a} >= hi={b}")
    for c in cells_t:
        if c < 4:
            raise ValueError(f"need at least 4 cells per axis, got {c}")
    return Grid(lo_t, hi_t, cells_t)


@dataclass(frozen=True)
class GridFunction:
    """Nodal values on a grid.  The value buffer is frozen on construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"value shape {vals.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.zeros(grid.shape))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def interior(self) -> np.ndarray:
        sl = tuple(slice(1, -1) for _ in range(self.grid.dim))
        return self.values[sl]


@dataclass(frozen=True)
class CoefficientField:
    """Per-node diagonal coefficient matrix M = diag(entries[..., a]), entries
    of shape grid.shape + (dim,): the 3-/5-point stencil has no cross term."""

    grid: Grid
    entries: np.ndarray

    def __post_init__(self):
        shape = self.grid.shape + (self.grid.dim,)
        ent = np.array(self.entries, dtype=float, copy=True)
        if ent.shape != shape:
            raise ValueError(f"entry shape {ent.shape}, expected {shape}")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @classmethod
    def identity(cls, grid: Grid) -> "CoefficientField":
        return cls(grid, np.ones(grid.shape + (grid.dim,)))

    @classmethod
    def constant(cls, grid: Grid, matrix) -> "CoefficientField":
        """M = matrix at every node; ValueError unless it is d x d and diagonal."""
        d = grid.dim
        mat = np.atleast_2d(np.asarray(matrix, dtype=float))
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape}, expected {(d, d)}")
        if not np.all(mat[~np.eye(d, dtype=bool)] == 0.0):
            raise ValueError(f"coefficient matrix {mat.tolist()} is not diagonal; "
                             f"the 3-/5-point stencil takes a diagonal M only")
        return cls(grid, np.broadcast_to(np.diag(mat), grid.shape + (d,)))

    @functools.cached_property
    def ellipticity(self) -> tuple[float, float]:
        """Field-wide ellipticity certificate (alpha, beta), scanned once per
        field (the entries are frozen): the smallest and the largest entry,
        M's extreme eigenvalues.

        Raises EllipticityError for alpha <= 0 and for an infinite beta;
        each check is written so that a NaN fails it.  Nothing is cached for
        a bad field, so every read raises.
        """
        alpha, beta = float(np.min(self.entries)), float(np.max(self.entries))
        if not alpha > 0.0:
            raise EllipticityError(
                f"ellipticity violated: smallest eigenvalue {alpha} <= 0")
        if not math.isfinite(beta):
            raise EllipticityError(
                f"ellipticity violated: largest eigenvalue {beta} is not finite")
        return alpha, beta

    @functools.cached_property
    def operator(self):
        """A = -div(M grad .) on this field's grid (`operators.assemble`),
        assembled on first read: A and its multigrid hierarchy live as long
        as the field, so every problem and every exponent on it shares them."""
        from . import operators     # operators imports grids
        return operators.assemble(self.grid, self)


# --- data for the right-hand side ------------------------------------------

@dataclass(frozen=True)
class ConstantDatum:
    """f = value everywhere."""
    value: float


@dataclass(frozen=True)
class IndicatorDatum:
    """f = value on the closed sub-box [lo, hi], zero outside.

    Nodes exactly on the sub-box boundary take the inside value.
    """
    value: float
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", _axis_tuple(self.lo, "lo"))
        object.__setattr__(self, "hi", _axis_tuple(self.hi, "hi"))
        for a, b in zip(self.lo, self.hi):
            if not a < b:
                raise ValueError("indicator sub-box is degenerate")


@dataclass(frozen=True)
class TabulatedDatum:
    """f given nodally."""
    field: GridFunction


Datum = Union[ConstantDatum, IndicatorDatum, TabulatedDatum]


def sample_datum(datum: Datum, grid: Grid) -> np.ndarray:
    if isinstance(datum, ConstantDatum):
        return np.full(grid.shape, datum.value)
    if isinstance(datum, IndicatorDatum):
        if len(datum.lo) != grid.dim:
            raise ValueError("indicator sub-box dimension does not match grid")
        return np.where(grid.box_mask((datum.lo, datum.hi)), datum.value, 0.0)
    if isinstance(datum, TabulatedDatum):
        if datum.field.grid != grid:
            raise ValueError("tabulated datum lives on a different grid")
        return datum.field.values.copy()
    raise TypeError(f"unknown datum {datum!r}")


def _check_gamma(gamma: float) -> None:
    if not 0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")


@dataclass(frozen=True)
class ProblemSpec:
    """Domain, coefficients, datum and exponent.  The datum is sampled once
    and refused (ValueError) unless every sampled value is finite and
    nonnegative, a check that NaN fails; where it is positive is read off
    those values (`datum_values()`, e.g. `sweeps.limit_check_applies`), not
    annotated."""

    grid: Grid
    coefficients: CoefficientField
    datum: Datum
    gamma: float

    def __post_init__(self):
        _check_gamma(self.gamma)
        if self.coefficients.grid != self.grid:
            raise ValueError("coefficient field lives on a different grid")
        f = sample_datum(self.datum, self.grid)
        if not (np.min(f) >= 0.0 and np.max(f) < np.inf):    # NaN fails both
            raise ValueError("datum must be finite and nonnegative")
        f.setflags(write=False)
        object.__setattr__(self, "_datum_values", f)   # not a field: eq, repr, replace ignore it

    def with_gamma(self, gamma: float) -> "ProblemSpec":
        """This problem at exponent gamma: `replace(self, gamma=gamma)` without
        sampling the datum again (only gamma differs, so its checks are the
        gamma check alone)."""
        _check_gamma(gamma)
        spec = copy.copy(self)
        object.__setattr__(spec, "gamma", gamma)
        return spec

    def datum_values(self) -> np.ndarray:
        """`sample_datum(datum, grid)`, sampled once on construction; read-only."""
        return self._datum_values

    def omega_box(self) -> Optional[tuple[tuple[float, ...], tuple[float, ...]]]:
        """The indicator sub-box, when the datum is an indicator."""
        if isinstance(self.datum, IndicatorDatum):
            return self.datum.lo, self.datum.hi
        return None
