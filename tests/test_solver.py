import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import singell.operators as ops
from singell import (GridFunction, NonlinearSolveError,
                     UndefinedCertificateError, from_quasilinear,
                     linfty_certificate, make_uniform_grid,
                     quasilinear_residual, singular_residual, solve_regularized,
                     solve_singular, to_quasilinear)
from singell.config import load_config
from conftest import interval_spec, matched_spec

SQUARE_HOLE = Path(__file__).resolve().parents[1] / "configs" / "square_hole.json"


class TestSolveRegularized:
    def test_gamma3_center_value(self):
        spec = interval_spec(3.0, 512)
        it = solve_regularized(spec, 10 ** 6)
        t = spec.grid.axes()[0]
        center = np.argmin(np.abs(t))
        assert abs(it.u.values[center] - 1.0) <= 2e-3

    def test_zero_datum(self):
        for gamma, m in ((1.0, 1), (3.0, 100), (20.0, 10 ** 6)):
            spec = interval_spec(gamma, 32, value=0.0, support="general")
            it = solve_regularized(spec, m)
            assert it.u.sup_norm() == 0.0

    def test_monotone_in_m(self):
        spec = interval_spec(1.0, 128)
        u_prev = None
        for m in (1, 2, 4, 8, 16):
            it = solve_regularized(spec, m)
            if u_prev is not None:
                assert np.all(it.u.values >= u_prev - 1e-10)
            u_prev = it.u.values

    def test_positivity(self):
        spec = matched_spec(8.0, 128)
        it = solve_regularized(spec, 4 ** 6)
        assert np.min(it.u.interior()) > 0.0

    def test_nonconvergence_reports_trace(self):
        spec = interval_spec(5.0, 128)
        bad_start = GridFunction.zeros(spec.grid)
        with pytest.raises(NonlinearSolveError) as err:
            solve_regularized(spec, 4 ** 8, initial=bad_start, max_iterations=1)
        assert len(err.value.residual_trace) >= 1

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            solve_regularized(interval_spec(2.0, 32), 0)


class TestSolveSingular:
    def test_gamma3_closed_form(self):
        spec = interval_spec(3.0, 1024)
        sol = solve_singular(spec)
        t = spec.grid.axes()[0]
        exact = np.sqrt(np.maximum(1.0 - t ** 2, 0.0))
        err = np.max(np.abs(sol.u.values - exact)[np.abs(t) <= 0.9])
        # boundary-limited first-order convergence: ~0.65 * h at this resolution
        assert err <= 2e-3

    def test_trace_monotone(self):
        spec = interval_spec(2.0, 128)
        sol = solve_singular(spec, [1, 4, 16, 64, 256])
        for a, b in zip(sol.trace, sol.trace[1:]):
            assert np.all(b.u.values >= a.u.values - 1e-10)

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            solve_singular(interval_spec(2.0, 32), [1, 1, 2])

    def test_symmetric_spec_gives_even_solution(self):
        spec = matched_spec(12.0, 256)
        sol = solve_singular(spec)
        assert np.max(np.abs(sol.u.values - sol.u.values[::-1])) <= 1e-9

    def test_gap_reported_when_not_stabilized(self):
        spec = interval_spec(3.0, 128)
        sol = solve_singular(spec, [1, 4])
        assert not sol.stabilized
        assert sol.gap > 0.0

    def test_1d_runs_no_superlu(self, monkeypatch):
        # 1-D systems are tridiagonal: banded Cholesky, never a sparse LU
        calls = []
        monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: calls.append(args))
        sol = solve_singular(matched_spec(40.0, 256))
        assert sum(it.iterations for it in sol.trace) > 0
        assert calls == []


class TestMultigridPath:
    """The shipped 64^2 square: multigrid-preconditioned CG in every Newton step."""

    @pytest.fixture(scope="class")
    def square(self):
        spec = load_config(SQUARE_HOLE).spec
        assert spec.grid.cells == (64, 64)
        sizes = []
        real = spla.splu

        def recording(matrix, *args, **kwargs):
            sizes.append(matrix.shape[0])
            return real(matrix, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spla, "splu", recording)
            sol = solve_singular(spec)
        return spec, sol, sizes

    def test_matches_forced_direct_path(self, square, monkeypatch):
        spec, sol, _ = square
        monkeypatch.setattr(ops, "COARSE_SIZE", 10 ** 12)
        direct = solve_singular(spec)
        assert ([it.iterations for it in sol.trace]
                == [it.iterations for it in direct.trace])
        assert np.max(np.abs(sol.u.values - direct.u.values)) <= 1e-12

    def test_no_fine_grid_factorization(self, square):
        # a later change must not silently bring back fine-grid LU fill-in
        spec, sol, sizes = square
        coarsest = int(np.prod(ops._coarse_shapes(spec.grid.interior_shape)[-1]))
        assert coarsest <= ops.COARSE_SIZE
        newton = sum(it.iterations for it in sol.trace)
        assert len(sizes) >= newton
        assert max(sizes) <= coarsest

    def test_one_operator_hierarchy_per_solve(self, square):
        # the operator builds its solver once; each Newton step one for J
        _, sol, sizes = square
        newton = sum(it.iterations for it in sol.trace)
        assert len(sizes) == newton + 1


class TestQuasilinearMap:
    def test_zero_maps_to_zero(self):
        g = make_uniform_grid(-1.0, 1.0, 16)
        v = to_quasilinear(GridFunction.zeros(g), 3.0)
        assert v.sup_norm() == 0.0

    def test_gamma3_closed_form_value(self):
        g = make_uniform_grid(-1.0, 1.0, 64)
        t = g.axes()[0]
        u = GridFunction(g, np.sqrt(np.maximum(1.0 - t ** 2, 0.0)))
        v = to_quasilinear(u, 3.0)
        center = np.argmin(np.abs(t))
        assert abs(v.values[center] - 0.25) <= 1e-14
        np.testing.assert_allclose(v.values, (1.0 - t ** 2) ** 2 / 4.0, atol=1e-14)

    def test_gamma1_power_map(self):
        g = make_uniform_grid(0.0, 1.0, 32)
        t = g.axes()[0]
        v = to_quasilinear(GridFunction(g, t), 1.0)
        np.testing.assert_allclose(v.values, t ** 2 / 2.0, atol=1e-15)

    def test_round_trip(self, rng):
        g = make_uniform_grid(0.0, 1.0, 64)
        # keep u away from the region where u^(gamma+1) underflows double
        # precision entirely (u < 0.17 at gamma = 400)
        for gamma, lo in ((1.0, 0.05), (3.0, 0.05), (40.0, 0.05), (400.0, 0.2)):
            u = GridFunction(g, lo + rng.random(g.shape))
            back = from_quasilinear(to_quasilinear(u, gamma), gamma)
            assert np.max(np.abs(back.values - u.values) / u.values) <= 1e-12


class TestResiduals:
    def test_gamma3_residual_small_away_from_boundary(self):
        spec = interval_spec(3.0, 1024)
        sol = solve_singular(spec)
        v = to_quasilinear(sol.u, 3.0)
        res = quasilinear_residual(v, 3.0, spec.datum_values(), floor=1e-3)
        assert res.masked_sup <= 5e-3

    def test_limit_form_residual_decreases(self):
        sups = []
        for cells in (256, 512, 1024):
            g = make_uniform_grid(-1.0, 1.0, cells)
            t = g.axes()[0]
            v = GridFunction(g, 2.0 / np.pi ** 2 * np.cos(np.pi * t / 2.0) ** 2)
            res = quasilinear_residual(v, math.inf, np.ones(g.shape))
            sups.append(res.masked_sup)
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] <= 5e-3

    def test_vacuous_when_all_masked(self):
        g = make_uniform_grid(-1.0, 1.0, 16)
        res = quasilinear_residual(GridFunction.zeros(g), 3.0, np.zeros(g.shape))
        assert res.vacuous
        assert res.masked_sup == 0.0

    def test_singular_residual_converged_solution(self):
        spec = interval_spec(3.0, 256)
        sol = solve_singular(spec)
        res = singular_residual(sol.u, spec)
        # the last regularization level leaves ~gamma/m * f/u^(gamma+1),
        # largest at the boundary layer
        assert res.masked_sup <= 5e-3
        t = spec.grid.axes()[0]
        center = np.abs(t[1:-1]) <= 0.5
        assert np.max(np.abs(res.field.values[1:-1][center])) <= 1e-6


class TestCertificate:
    def test_gamma3_quarter(self):
        g = make_uniform_grid(-1.0, 1.0, 256)
        t = g.axes()[0]
        u = GridFunction(g, np.sqrt(np.maximum(1.0 - t ** 2, 0.0)))
        assert abs(linfty_certificate(u, 3.0, np.ones(g.shape)) - 0.25) <= 1e-12

    def test_definition(self, rng):
        g = make_uniform_grid(0.0, 1.0, 32)
        u = GridFunction(g, rng.random(g.shape))
        gamma = 7.0
        expected = u.sup_norm() ** (gamma + 1.0) / (gamma + 1.0)
        assert np.isclose(linfty_certificate(u, gamma, np.ones(g.shape)), expected)

    def test_zero_datum_undefined(self):
        g = make_uniform_grid(0.0, 1.0, 16)
        u = GridFunction(g, np.ones(g.shape))
        with pytest.raises(UndefinedCertificateError):
            linfty_certificate(u, 2.0, np.zeros(g.shape))
