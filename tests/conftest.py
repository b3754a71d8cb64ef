import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import singell.operators as ops
import singell.solver as solver_module
from singell import (CoefficientField, ConstantDatum, GridFunction, IndicatorDatum,
                     ProblemSpec, TabulatedDatum, make_uniform_grid)


def interval_spec(gamma, cells, lo=-1.0, hi=1.0, value=1.0):
    grid = make_uniform_grid(lo, hi, cells)
    return ProblemSpec(grid, CoefficientField.identity(grid),
                       ConstantDatum(value), gamma=gamma)


def matched_spec(gamma, cells):
    """Indicator datum on (-1, 1) inside the interval (-2, 2)."""
    grid = make_uniform_grid(-2.0, 2.0, cells)
    return ProblemSpec(grid, CoefficientField.identity(grid),
                       IndicatorDatum(1.0, -1.0, 1.0), gamma=gamma)


def square_spec(gamma, cells):
    grid = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (cells, cells))
    return ProblemSpec(grid, CoefficientField.identity(grid),
                       ConstantDatum(1.0), gamma=gamma)


def lazer_mckenna_spec(dim, cells, gamma):
    """The manufactured oracle of Lazer and McKenna (Proc. AMS 111 (1991)
    721-730) and its exact nodal solution.

    phi > 0 in Omega, phi = 0 on the boundary and -lap phi = lam phi; then
    u = phi^alpha, alpha = 2/(gamma+1), solves -lap u = f/u^gamma with
    f = alpha (lam phi^2 + (1 - alpha) |grad phi|^2), positive inside.
    1-D: phi = cos(pi t/2) on (-1, 1), lam = pi^2/4.  2-D: phi = sin(pi x)
    sin(pi y) on the unit square, lam = 2 pi^2.  A boundary node carries
    phi ~ 1e-16 and phi^alpha is not small at large gamma, so compare u
    on interior nodes only.
    """
    alpha = 2.0 / (gamma + 1.0)
    if dim == 1:
        grid = make_uniform_grid(-1.0, 1.0, cells)
        (t,) = grid.meshes()
        lam = np.pi ** 2 / 4.0
        phi = np.cos(np.pi * t / 2.0)
        grad2 = (np.pi / 2.0 * np.sin(np.pi * t / 2.0)) ** 2
    else:
        grid = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (cells, cells))
        x, y = grid.meshes()
        lam = 2.0 * np.pi ** 2
        phi = np.sin(np.pi * x) * np.sin(np.pi * y)
        grad2 = np.pi ** 2 * ((np.cos(np.pi * x) * np.sin(np.pi * y)) ** 2
                              + (np.sin(np.pi * x) * np.cos(np.pi * y)) ** 2)
    phi = np.maximum(phi, 0.0)
    f = alpha * (lam * phi ** 2 + (1.0 - alpha) * grad2)
    spec = ProblemSpec(grid, CoefficientField.identity(grid),
                       TabulatedDatum(GridFunction(grid, f)), gamma=gamma)
    return spec, phi ** alpha


def reference_harmonic(grid, mask):
    """SuperLU solve of the Laplacian on the interior nodes outside `mask`
    (a node mask of `grid`) only: 1 on the mask's interior nodes, harmonic
    off the mask and 0 on the boundary."""
    lap = None
    for axis, h in enumerate(grid.h):
        c = grid.cells[axis]
        factors = [sp.identity(n) for n in grid.shape]
        factors[axis] = sp.diags([-np.ones(c), np.ones(c)], [0, 1],
                                 shape=(c, c + 1))
        diff = functools.reduce(sp.kron, factors)
        term = diff.T @ diff / h ** 2
        lap = term if lap is None else lap + term
    lap = lap.tocsr()
    mask, frame = mask.ravel(), grid.frame_mask().ravel()
    lift = (mask & ~frame).astype(float)
    unknown = np.flatnonzero(~mask & ~frame)
    rows = lap[unknown]
    lift[unknown] = spla.splu(rows[:, unknown].tocsc()).solve(-(rows @ lift))
    return lift.reshape(grid.shape)


def harmonic_lift(grid, mask):
    """`SparseOperator.harmonic_lift` of the interior nodes of `mask` (a
    node mask of `grid`) on the Laplacian of `grid`, as nodal values."""
    op = ops.assemble(grid, CoefficientField.identity(grid))
    interior = (slice(1, -1),) * grid.dim
    return op.full_from_interior(op.harmonic_lift(mask[interior].ravel())).values


def record_direct_solves(monkeypatch):
    """Make SuperLU fail and record the unknown count of every banded direct
    solve that singell builds; returns the list the counts go to."""
    sizes = []

    class Recording(ops._Banded):
        def __init__(self, bands, *args):
            sizes.append(bands.shape[1])
            super().__init__(bands, *args)

    def no_superlu(*args, **kwargs):
        raise AssertionError("singell called SuperLU")

    monkeypatch.setattr(ops, "_Banded", Recording)
    monkeypatch.setattr(spla, "splu", no_superlu)
    return sizes


def record_assemblies(monkeypatch):
    """Record the grid of every `operators.assemble` call; returns the list."""
    grids, real = [], ops.assemble

    def counted(grid, coefficients):
        grids.append(grid)
        return real(grid, coefficients)

    monkeypatch.setattr(ops, "assemble", counted)
    return grids


def record_newton_steps(monkeypatch):
    """Record the Newton iterations of every regularized solve that singell
    runs, so that any solve a start makes counts too: one entry per
    `_regularized_stack` call, the iterations of its slowest converged row
    (a lockstep iterates as long as that row); returns the list."""
    steps = []
    real = solver_module._regularized_stack

    def recording(*args, **kwargs):
        outcomes = real(*args, **kwargs)
        steps.append(max((o.iterations for o in outcomes if not isinstance(o, Exception)),
                         default=0))
        return outcomes

    monkeypatch.setattr(solver_module, "_regularized_stack", recording)
    return steps


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
