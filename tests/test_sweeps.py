import functools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import singell.operators as ops
from singell import (CoefficientField, GridFunction, InconclusiveCheckError,
                     MeasureHistogram, NonlinearSolveError, ProblemSpec,
                     conjecture_experiment, extract_atoms, fitted_depth_bound,
                     limit_equation_check, log_diagnostic, make_uniform_grid,
                     measure_histogram, run_sweep, solve_singular)
from singell.config import load_config
from singell.grids import IndicatorDatum
from singell.sweeps import _harmonic_outside
from conftest import interval_spec, matched_spec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SQUARE_HOLE = CONFIGS / "square_hole.json"


def reference_harmonic(grid, omega):
    """SuperLU solve of the Laplacian on the nodes outside the box only."""
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
    box = grid.box_mask(omega).ravel()
    edge = box & (abs(lap) @ ~box > 0)
    unknown = np.flatnonzero(~box & ~grid.frame_mask().ravel())
    lift = edge.astype(float)
    rows = lap[unknown]
    lift[unknown] = spla.splu(rows[:, unknown].tocsc()).solve(-(rows @ lift))
    return lift.reshape(grid.shape)


class TestLogDiagnostic:
    def test_constant_one(self):
        g = make_uniform_grid(-1.0, 1.0, 16)
        u = GridFunction(g, np.ones(g.shape))
        for n in (3.0, 40.0, 400.0):
            z = log_diagnostic(u, n)
            np.testing.assert_allclose(z, math.log(n + 1.0), atol=1e-12)

    def test_gamma3_center_value(self):
        spec = interval_spec(3.0, 1024)
        sol = solve_singular(spec)
        z = log_diagnostic(sol.u, 3.0)
        center = np.argmin(np.abs(spec.grid.axes()[0]))
        assert abs(z[center] - math.log(4.0)) <= 5e-3

    def test_zero_maps_to_infinity(self):
        g = make_uniform_grid(-1.0, 1.0, 16)
        z = log_diagnostic(GridFunction.zeros(g), 5.0)
        assert np.all(np.isinf(z))

    def test_fitted_bound_excludes_boundary_zeros(self):
        spec = matched_spec(10.0, 128)
        sol = solve_singular(spec)
        f = spec.datum_values()
        bound = fitted_depth_bound(sol.u, 10.0, (-0.5, 0.5), f)
        assert np.isfinite(bound)


class TestHistogram:
    def test_total_is_sum_of_cells(self):
        spec = matched_spec(40.0, 512)
        sol = solve_singular(spec)
        hist = measure_histogram(sol.u, spec, 40.0, shell_distances=(0.1, 0.5))
        assert np.isclose(hist.total, float(np.sum(hist.cell_masses)), rtol=0,
                          atol=0)
        assert 0.0 <= hist.shell_fractions[0.1] <= hist.shell_fractions[0.5] <= 1.0

    def test_zero_datum_zero_histogram(self):
        grid = make_uniform_grid(-2.0, 2.0, 64)
        spec = ProblemSpec(grid, CoefficientField.identity(grid),
                           IndicatorDatum(0.0, -1.0, 1.0), gamma=5.0,
                           support="compact")
        u = GridFunction(grid, np.ones(grid.shape))
        hist = measure_histogram(u, spec, 5.0, shell_distances=(0.1,))
        assert hist.total == 0.0
        assert hist.shell_fractions[0.1] == 0.0

    def test_requires_indicator(self):
        spec = interval_spec(5.0, 64)
        u = GridFunction(spec.grid, np.ones(spec.grid.shape))
        with pytest.raises(ValueError):
            measure_histogram(u, spec, 5.0)


class TestLimitEquationCheck:
    def _histogram(self, grid, masses):
        omega = ((-1.0,), (1.0,))
        return MeasureHistogram(grid, masses, float(np.sum(masses)), {}, omega)

    def test_zero_histogram_zero_limit(self):
        g = make_uniform_grid(-2.0, 2.0, 64)
        hist = self._histogram(g, np.zeros(g.shape))
        gap = limit_equation_check(GridFunction.zeros(g), hist,
                                   CoefficientField.identity(g))
        assert gap == 0.0

    def test_single_synthetic_atom_exact(self):
        g = make_uniform_grid(-1.0, 1.0, 64)
        masses = np.zeros(g.shape)
        center = np.argmin(np.abs(g.axes()[0]))
        masses[center] = 1.0
        t = g.axes()[0]
        tent = GridFunction(g, (1.0 - np.abs(t)) / 2.0)
        hist = MeasureHistogram(g, masses, 1.0, {}, ((-0.5,), (0.5,)))
        gap = limit_equation_check(tent, hist, CoefficientField.identity(g))
        assert gap <= 1e-10

    def test_non_separable_clusters_inconclusive(self):
        g = make_uniform_grid(-1.0, 1.0, 64)
        h = g.h[0]
        masses = np.zeros(g.shape)
        center = np.argmin(np.abs(g.axes()[0]))
        masses[center] = 1.0
        masses[center + 2] = 1.0
        hist = MeasureHistogram(g, masses, 2.0, {}, ((-0.5,), (0.5,)))
        with pytest.raises(InconclusiveCheckError):
            limit_equation_check(GridFunction.zeros(g), hist,
                                 CoefficientField.identity(g))

    def test_atoms_carry_full_mass(self):
        spec = matched_spec(160.0, 512)
        sol = solve_singular(spec)
        hist = measure_histogram(sol.u, spec, 160.0)
        atoms = extract_atoms(hist)
        assert len(atoms.atoms) == 2
        assert np.isclose(sum(m for _, m in atoms.atoms), hist.total,
                          rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name, count", [("matched_indicator", 2),
                                             ("square_hole", 4)])
    def test_mirror_symmetric_configs_give_equal_atoms(self, name, count):
        # cells equidistant from two centroids split their mass between them
        config = load_config(CONFIGS / f"{name}.json")
        n = config.n_list[-1]
        sol = solve_singular(replace(config.spec, gamma=n), config.m_schedule)
        atoms = extract_atoms(measure_histogram(sol.u, config.spec, n))
        masses = [m for _, m in atoms.atoms]
        assert len(masses) == count
        assert max(masses) - min(masses) <= 1e-12 * max(masses)


class TestRunSweep:
    def test_single_row(self):
        spec = matched_spec(10.0, 128)
        report = run_sweep(spec, [10.0], compacta=[(-0.5, 0.5)])
        assert len(report.rows) == 1
        assert not report.rows[0].failed
        assert report.limit_u is not None

    def test_compact_masses_bounded_positive_masses_growing(self):
        compact = run_sweep(matched_spec(10.0, 512), [10, 20, 40],
                            compacta=[(-0.5, 0.5)], shell_distances=(0.1,))
        totals = [r.total_mass for r in compact.rows]
        assert max(totals) <= 2.0 * totals[0]
        assert compact.histogram is not None

        positive = run_sweep(interval_spec(10.0, 512), [10, 20, 40],
                             compacta=[(-0.5, 0.5)])
        totals = [r.total_mass for r in positive.rows]
        assert totals[0] < totals[1] < totals[2]
        assert positive.histogram is None

    def test_v_bounds_and_certificate(self):
        report = run_sweep(interval_spec(10.0, 512), [10, 50, 100],
                           compacta=[(-0.5, 0.5)])
        for row in report.rows:
            assert row.v_sup <= 1.0
            assert row.v_h1_seminorm <= 10.0
            assert row.certificate <= 1.0
        for row in report.rows:
            if row.n >= 50:
                assert row.sup_norm <= 1.1

    def test_fitted_depth_bounded(self):
        report = run_sweep(matched_spec(10.0, 512), [10, 40, 160],
                           compacta=[(-0.5, 0.5)])
        depths = [r.fitted_depth[0] for r in report.rows]
        assert max(depths) <= 4.0

    def test_requires_increasing_n(self):
        with pytest.raises(ValueError):
            run_sweep(matched_spec(10.0, 64), [10, 10])
        with pytest.raises(ValueError):
            run_sweep(matched_spec(10.0, 64), [2, 10])

    def test_row_failure_recorded_sweep_continues(self, monkeypatch):
        import singell.sweeps as sweeps_mod

        real = sweeps_mod.solve_singular

        def flaky(spec, schedule, **kw):
            if spec.gamma == 20.0:
                raise NonlinearSolveError("synthetic breakdown", [])
            return real(spec, schedule, **kw)

        monkeypatch.setattr(sweeps_mod, "solve_singular", flaky)
        report = run_sweep(matched_spec(10.0, 128), [10, 20, 40],
                           compacta=[(-0.5, 0.5)])
        assert [r.failed for r in report.rows] == [False, True, False]
        assert "synthetic breakdown" in report.rows[1].error
        assert report.limit_u is not None   # largest successful solve survives

    def test_programming_error_propagates(self, monkeypatch):
        import singell.sweeps as sweeps_mod

        def broken(spec, schedule, **kw):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(sweeps_mod, "solve_singular", broken)
        with pytest.raises(TypeError, match="synthetic programming error"):
            run_sweep(matched_spec(10.0, 128), [10, 20])


class TestConjecture:
    def test_1d_outer_harmonic(self):
        spec = matched_spec(40.0, 512)
        report = conjecture_experiment(spec, 40.0)
        assert np.isfinite(report.harmonic_gap)
        assert report.harmonic_gap <= 0.2
        assert 0.0 <= report.outer_v_sup <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(cells=st.integers(8, 200), data=st.data())
    def test_1d_harmonic_is_piecewise_linear(self, cells, data):
        g = make_uniform_grid(-2.0, 2.0, cells)
        t = g.axes()[0]
        i0 = data.draw(st.integers(2, cells - 3))
        i1 = data.draw(st.integers(i0 + 1, cells - 2))
        a, b = t[i0], t[i1]
        exact = np.where(t < a, (t - t[0]) / (a - t[0]),
                         np.where(t > b, (t[-1] - t) / (t[-1] - b), 0.0))
        exact[i0] = exact[i1] = 1.0
        harmonic = _harmonic_outside(g, (a, b)).values
        assert np.max(np.abs(harmonic - exact)) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(kx=st.integers(4, 6), ky=st.integers(4, 6),
           height=st.floats(0.5, 2.0), data=st.data())
    def test_2d_harmonic_matches_superlu_reference(self, kx, ky, height, data):
        grid = make_uniform_grid((0.0, 0.0), (1.0, height), (2 ** kx, 2 ** ky))
        lo, hi = [], []
        for t, c in zip(grid.axes(), grid.cells):
            i0 = data.draw(st.integers(1, c - 2))
            i1 = data.draw(st.integers(i0 + 1, c - 1))
            lo.append(t[i0])
            hi.append(t[i1])
        omega = (tuple(lo), tuple(hi))
        harmonic = _harmonic_outside(grid, omega).values
        # the CG stopping error: at most 9.1e-13 over 500 random boxes
        assert np.max(np.abs(harmonic - reference_harmonic(grid, omega))) <= 2e-12

    def test_square_factorizes_only_the_coarsest_level(self, monkeypatch):
        config = load_config(SQUARE_HOLE)
        sizes = []
        real = spla.splu

        def recording(matrix, *args, **kwargs):
            sizes.append(matrix.shape[0])
            return real(matrix, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", recording)
        conjecture_experiment(config.spec, config.n_list[-1],
                              m_schedule=config.m_schedule)
        coarse = ops._coarse_shapes(config.spec.grid.interior_shape)
        assert sizes and max(sizes) <= int(np.prod(coarse[-1]))

    def test_1d_runs_no_superlu(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: calls.append(args))
        report = conjecture_experiment(matched_spec(40.0, 256), 40.0)
        assert np.isfinite(report.harmonic_gap)
        assert calls == []

    def test_2d_smoke(self):
        grid = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (32, 32))
        spec = ProblemSpec(grid, CoefficientField.identity(grid),
                           IndicatorDatum(1.0, (0.25, 0.25), (0.75, 0.75)),
                           gamma=10.0, support="compact")
        report = conjecture_experiment(spec, 10.0)
        assert np.isfinite(report.harmonic_gap)
        assert np.isfinite(report.outer_v_sup)

    def test_requires_identity_coefficients(self):
        grid = make_uniform_grid(-2.0, 2.0, 64)
        spec = ProblemSpec(grid, CoefficientField.constant(grid, [[2.0]]),
                           IndicatorDatum(1.0, -1.0, 1.0), gamma=5.0,
                           support="compact")
        with pytest.raises(ValueError):
            conjecture_experiment(spec, 5.0)
