import numpy as np
import pytest
import scipy.sparse.linalg as spla

import singell.operators as ops
from singell import (CoefficientField, ConstantDatum, IndicatorDatum,
                     ProblemSpec, make_uniform_grid)


def interval_spec(gamma, cells, lo=-1.0, hi=1.0, value=1.0,
                  support="strictly_positive"):
    grid = make_uniform_grid(lo, hi, cells)
    return ProblemSpec(grid, CoefficientField.identity(grid),
                       ConstantDatum(value), gamma=gamma, support=support)


def matched_spec(gamma, cells):
    """Indicator datum on (-1, 1) inside the interval (-2, 2)."""
    grid = make_uniform_grid(-2.0, 2.0, cells)
    return ProblemSpec(grid, CoefficientField.identity(grid),
                       IndicatorDatum(1.0, -1.0, 1.0), gamma=gamma,
                       support="compact")


def square_spec(gamma, cells):
    grid = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (cells, cells))
    return ProblemSpec(grid, CoefficientField.identity(grid),
                       ConstantDatum(1.0), gamma=gamma,
                       support="strictly_positive")


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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
