import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings, strategies as st

import singell.operators as ops
import singell.solver as solver_module
from singell import (CoefficientField, GridFunction, IndicatorDatum,
                     NonlinearSolveError, ProblemSpec, SparseOperator,
                     UndefinedCertificateError, from_quasilinear,
                     linfty_certificate, make_uniform_grid,
                     quasilinear_residual, singular_residual, solve_regularized,
                     solve_singular, to_quasilinear)
from singell.config import load_config
from conftest import interval_spec, matched_spec, record_direct_solves

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SQUARE_HOLE = CONFIGS / "square_hole.json"


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

    def test_line_search_never_evaluates_the_current_iterate(self, monkeypatch):
        # a trial equal to the iterate is a stall: it ends the m-step unevaluated
        events = []
        real_rhs, real_solver = solver_module._regularized_rhs, SparseOperator.solver

        def rhs(f, u, eps, gamma):
            events.append(u.copy())
            return real_rhs(f, u, eps, gamma)

        def solver(self, shift=None, **kwargs):
            if shift is not None:          # one Jacobian solve per Newton step
                events.append(None)
            return real_solver(self, shift, **kwargs)

        monkeypatch.setattr(solver_module, "_regularized_rhs", rhs)
        monkeypatch.setattr(SparseOperator, "solver", solver)
        config = load_config(CONFIGS / "matched_indicator.json")
        solve_singular(replace(config.spec, gamma=20.0), config.m_schedule)
        steps = [i for i, event in enumerate(events) if event is None]
        assert steps
        for i, j in zip(steps, steps[1:] + [len(events)]):
            current = events[i - 1]        # the RHS that formed this step
            assert not any(np.array_equal(trial, current)
                           for trial in events[i + 1:j])

    def test_cold_start_at_clip_raises(self):
        # max(A^-1 f, 0) clips the RHS near the boundary at large m and no
        # step lowers the capped residual: that iterate is no solution
        config = load_config(CONFIGS / "uniform_interval_sweep.json")
        spec = replace(config.spec, gamma=160.0)
        with pytest.raises(NonlinearSolveError, match="clipped"):
            solve_regularized(spec, 4 ** 6)

    def test_1d_direct_path_counts_no_linear_iterations(self):
        sol = solve_singular(interval_spec(3.0, 128), [1, 4, 16])
        assert all(it.iterations > 0 for it in sol.trace)
        assert all(it.linear_iterations == 0 for it in sol.trace)

    def test_nan_direction_raises_after_one_step(self, monkeypatch):
        real, steps = SparseOperator.solver, []

        def poisoned(self, shift=None, **kwargs):
            if shift is None:
                return real(self)
            steps.append(shift)
            return real(self, np.full_like(shift, np.nan), **kwargs)

        monkeypatch.setattr(SparseOperator, "solver", poisoned)
        with pytest.raises(NonlinearSolveError) as err:
            solve_regularized(interval_spec(5.0, 128), 4 ** 4)
        assert len(steps) == 1
        assert len(err.value.residual_trace) == 1


class TestSolveSingular:
    def test_gamma3_closed_form(self):
        spec = interval_spec(3.0, 1024)
        sol = solve_singular(spec)
        t = spec.grid.axes()[0]
        exact = np.sqrt(np.maximum(1.0 - t ** 2, 0.0))
        err = np.max(np.abs(sol.u.values - exact)[np.abs(t) <= 0.9])
        # boundary-limited first-order convergence: ~0.65 * h at this resolution
        assert err <= 2e-3

    def test_one_entry_schedule_is_not_stabilized(self):
        # nothing is compared, so there is no gap to report
        sol = solve_singular(interval_spec(3.0, 64), [1])
        assert not sol.stabilized
        assert sol.gap == math.inf

    def test_trace_monotone(self):
        spec = interval_spec(2.0, 128)
        sol = solve_singular(spec, [1, 4, 16, 64, 256])
        for a, b in zip(sol.trace, sol.trace[1:]):
            assert np.all(b.u.values >= a.u.values - 1e-10)

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            solve_singular(interval_spec(2.0, 32), [1, 1, 2])

    def test_schedule_entries_at_least_1(self):
        with pytest.raises(ValueError):
            solve_singular(interval_spec(2.0, 32), [0, 4])

    def test_symmetric_spec_gives_even_solution(self):
        spec = matched_spec(12.0, 256)
        sol = solve_singular(spec)
        assert np.max(np.abs(sol.u.values - sol.u.values[::-1])) <= 1e-9

    def test_gap_reported_when_not_stabilized(self):
        spec = interval_spec(3.0, 128)
        sol = solve_singular(spec, [1, 4])
        assert not sol.stabilized
        assert sol.gap > 0.0

    def test_given_operator_gives_the_same_solution(self, monkeypatch):
        spec = matched_spec(12.0, 128)
        fresh = solve_singular(spec, [1, 16, 256])
        op = ops.assemble(spec.grid, spec.coefficients)
        monkeypatch.setattr(solver_module, "assemble", None)   # never called
        shared = solve_singular(spec, [1, 16, 256], operator=op)
        assert np.array_equal(shared.u.values, fresh.u.values)

    def test_operator_on_another_grid_raises(self):
        spec = matched_spec(12.0, 128)
        other = matched_spec(12.0, 64)
        op = ops.assemble(other.grid, other.coefficients)
        with pytest.raises(ValueError, match="does not match"):
            solve_singular(spec, [1, 16], operator=op)
        # one m-step too: another interval with the same unknown count would
        # solve the wrong problem, another count fail to reshape
        spec = interval_spec(3.0, 64)
        for other in (interval_spec(3.0, 64, lo=0.0, hi=3.0), interval_spec(3.0, 32)):
            op = ops.assemble(other.grid, other.coefficients)
            with pytest.raises(ValueError, match="does not match"):
                solve_regularized(spec, 16, operator=op)

    def test_1d_runs_no_superlu(self, monkeypatch):
        # 1-D systems are tridiagonal: banded Cholesky, never a sparse LU
        calls = []
        monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: calls.append(args))
        sol = solve_singular(matched_spec(40.0, 256))
        assert sum(it.iterations for it in sol.trace) > 0
        assert calls == []

    @pytest.mark.parametrize("name, gamma, budget", [
        ("square_hole", None, 23), ("matched_indicator", 400.0, 32),
        ("cubic_interval", None, 25), ("uniform_interval_sweep", None, 26)])
    def test_newton_steps_within_budget(self, name, gamma, budget):
        # starts shifted from the previous iterate alone took 45, 53, 55, 57;
        # a residual bound without its rounding floor took 34, 45, 43, 53;
        # the schedule 4^0, ..., 4^12 in place of 16^0, ..., 16^6 took 34, 37, 32, 43
        config = load_config(CONFIGS / f"{name}.json")
        spec = config.spec if gamma is None else replace(config.spec, gamma=gamma)
        sol = solve_singular(spec, config.m_schedule)
        assert sum(it.iterations for it in sol.trace) <= budget

    def test_default_schedule_ends_at_4_to_the_12(self):
        schedule = solver_module.default_m_schedule()
        assert schedule[-1] == 4 ** 12
        assert all(b == 16 * a for a, b in zip(schedule, schedule[1:]))

    @pytest.mark.parametrize("name, gamma", [
        ("square_hole", None), ("matched_indicator", 10.0),
        ("matched_indicator", 400.0)])
    def test_default_schedule_matches_the_4k_schedule(self, name, gamma):
        # the last m decides the answer; the steps to it only cost work
        config = load_config(CONFIGS / f"{name}.json")
        spec = config.spec if gamma is None else replace(config.spec, gamma=gamma)
        sol = solve_singular(spec)
        ref = solve_singular(spec, [4 ** k for k in range(13)])
        assert len(sol.trace) == 7
        assert np.max(np.abs(sol.u.values - ref.u.values)) <= 1e-12 * np.max(ref.u.values)

    @pytest.mark.parametrize("name, gamma", [("square_hole", None)] + [
        (name, gamma) for name in ("cubic_interval", "matched_indicator",
                                   "uniform_interval_sweep")
        for gamma in load_config(CONFIGS / f"{name}.json").n_list])
    def test_no_m_step_stalls(self, name, gamma):
        # the Newton bound lies above the rounding floor of the residual, so
        # every m-step ends by the bound or by a negligible update; the 1-D
        # sweep exponents include each 1-D config's own
        config = load_config(CONFIGS / f"{name}.json")
        spec = config.spec if gamma is None else replace(config.spec, gamma=gamma)
        sol = solve_singular(spec, config.m_schedule)
        assert not any(it.stalled for it in sol.trace)


def _m_schedules():
    """Strictly increasing m-schedules of 2-6 entries, geometric or not."""
    def ragged(first, ratios):
        schedule = [first]
        for r in ratios:
            schedule.append(max(schedule[-1] + 1, round(schedule[-1] * r)))
        return schedule
    geometric = st.builds(lambda first, q, size: [first * q ** k for k in range(size)],
                          st.integers(1, 4), st.integers(2, 16), st.integers(2, 6))
    return geometric | st.builds(ragged, st.integers(1, 4),
                                 st.lists(st.floats(1.5, 16.0), min_size=1, max_size=5))


def _indicator_spec(dim, cells, gamma, value, lo, width):
    """Indicator datum on a box in the unit interval (4 * cells) or square."""
    if dim == 1:
        grid = make_uniform_grid(0.0, 1.0, 4 * cells)
        box = (lo[0], lo[0] + width[0])
    else:
        grid = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (cells, cells))
        box = (lo, tuple(a + w for a, w in zip(lo, width)))
    return ProblemSpec(grid, CoefficientField.identity(grid),
                       IndicatorDatum(value, *box), gamma=gamma, support="compact")


class TestExtrapolatedStart:
    """The extrapolated warm start changes the work of an m-step, not its answer."""

    def test_one_iterate_gives_the_shift(self):
        spec = matched_spec(10.0, 64)
        it = solve_regularized(spec, 4)
        pos = spec.datum_values() > 0
        shifted = it.u.values.copy()
        shifted[pos] += 1.0 / 4 - 1.0 / 16
        start = solver_module._extrapolated_start([it], 1.0 / 16, pos.astype(float))
        assert np.array_equal(start, shifted)

    def test_three_iterates_reproduce_a_quadratic(self):
        grid = make_uniform_grid(0.0, 1.0, 8)
        a, b, c = (np.linspace(1.0, 2.0, 9) * k for k in (1.0, -3.0, 5.0))
        recent = [solver_module.RegularizedIterate(
            m, GridFunction(grid, a + b / m + c / m ** 2), 1, 0.0) for m in (1, 4, 16)]
        pos = (np.arange(9) % 2).astype(float)
        start = solver_module._extrapolated_start(recent, 1.0 / 64, pos)
        assert np.allclose(start, a + b / 64 + c / 64 ** 2, rtol=0.0, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(dim=st.sampled_from([1, 2]), cells=st.integers(8, 24),
           gamma=st.floats(3.0, 400.0), value=st.floats(0.1, 10.0),
           lo=st.tuples(st.floats(0.05, 0.45), st.floats(0.05, 0.45)),
           width=st.tuples(st.floats(0.1, 0.5), st.floats(0.1, 0.5)),
           schedule=_m_schedules())
    def test_iterates_match_shift_only_start(self, dim, cells, gamma, value, lo,
                                             width, schedule):
        spec = _indicator_spec(dim, cells, gamma, value, lo, width)
        # the reference: each m starts from the previous iterate shifted by
        # the change in 1/m where f > 0
        pos = spec.datum_values() > 0
        reference, initial = [], None
        for k, m in enumerate(schedule):
            if k:
                shifted = reference[-1].copy()
                shifted[pos] += 1.0 / schedule[k - 1] - 1.0 / m
                initial = GridFunction(spec.grid, shifted)
            try:
                reference.append(solve_regularized(spec, m, initial=initial).u.values)
            except NonlinearSolveError:
                break
        assume(reference)
        # no m-step may raise where the shift-only start did not
        trace = solve_singular(spec, schedule[:len(reference)]).trace
        for it, ref in zip(trace, reference):
            assert np.max(np.abs(it.u.values - ref)) <= 1e-10 * np.max(ref)


class TestMonotoneInM:
    """u_m is nondecreasing in m on random indicator problems."""

    @settings(max_examples=20, deadline=None)
    @given(dim=st.sampled_from([1, 2]), cells=st.integers(8, 24),
           gamma=st.floats(0.5, 40.0), value=st.floats(0.1, 10.0),
           lo=st.tuples(st.floats(0.05, 0.45), st.floats(0.05, 0.45)),
           width=st.tuples(st.floats(0.1, 0.5), st.floats(0.1, 0.5)))
    def test_iterates_nondecreasing(self, dim, cells, gamma, value, lo, width):
        spec = _indicator_spec(dim, cells, gamma, value, lo, width)
        sol = solve_singular(spec, [4 ** k for k in range(7)])
        for a, b in zip(sol.trace, sol.trace[1:]):
            assert np.all(b.u.values >= a.u.values - 1e-10)


def _recording_cg(rtols):
    """`spla.cg` that appends the rtol of every call to `rtols`."""
    real = spla.cg

    def cg(*args, **kwargs):
        rtols.append(kwargs["rtol"])
        return real(*args, **kwargs)
    return cg


class TestComparisonPrinciple:
    """f1 <= f2 gives u1 <= u2 on random nested indicator problems."""

    @settings(max_examples=20, deadline=None)
    @given(dim=st.sampled_from([1, 2]), cells=st.integers(16, 32),
           gamma=st.floats(0.5, 40.0), value=st.floats(0.1, 10.0),
           scale=st.floats(0.1, 1.0),
           lo=st.tuples(st.floats(0.05, 0.45), st.floats(0.05, 0.45)),
           width=st.tuples(st.floats(0.1, 0.5), st.floats(0.1, 0.5)),
           shrink=st.tuples(st.floats(0.0, 0.45), st.floats(0.0, 0.45)))
    @example(dim=2, cells=24, gamma=10.0, value=1.0, scale=0.5,
             lo=(0.25, 0.25), width=(0.5, 0.5), shrink=(0.1, 0.2))
    def test_larger_datum_larger_solution(self, dim, cells, gamma, value, scale,
                                          lo, width, shrink):
        # the smaller datum has a smaller value on a sub-box of the larger one
        hi = tuple(a + w for a, w in zip(lo, width))
        inner_lo = tuple(a + s * w for a, s, w in zip(lo, shrink, width))
        inner_hi = tuple(b - s * w for b, s, w in zip(hi, shrink, width))
        if dim == 1:
            grid = make_uniform_grid(0.0, 1.0, 4 * cells)
            boxes = ((inner_lo[0], inner_hi[0]), (lo[0], hi[0]))
        else:
            grid = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (cells, cells))
            boxes = ((inner_lo, inner_hi), (lo, hi))
        u = []
        for v, box in zip((scale * value, value), boxes):
            spec = ProblemSpec(grid, CoefficientField.identity(grid),
                               IndicatorDatum(v, *box), gamma=gamma,
                               support="compact")
            u.append(solve_singular(spec, [4 ** k for k in range(7)]).u.values)
        assert np.all(u[0] <= u[1] + 1e-10)


class TestReflectionSymmetry:
    """Mirrored data give the mirrored solution on random indicator problems.

    Box corners sit at cell midpoints, so which nodes a box holds does not
    depend on rounding.
    """

    @staticmethod
    def _solve(grid, box, gamma, value):
        spec = ProblemSpec(grid, CoefficientField.identity(grid),
                           IndicatorDatum(value, *box), gamma=gamma,
                           support="compact")
        return solve_singular(spec, [4 ** k for k in range(7)]).u.values

    def _check(self, shape, corners, gamma, value):
        """`corners` holds per axis the cells (i, j) whose midpoints bound the box."""
        grid = make_uniform_grid((0.0,) * len(shape), (1.0,) * len(shape), shape)
        lo = [(i + 0.5) / n for n, (i, _) in zip(shape, corners)]
        hi = [(j + 0.5) / n for n, (_, j) in zip(shape, corners)]
        u = self._solve(grid, (lo, hi), gamma, value)
        bound = 1e-12 * np.max(u)
        mirrored = ([1.0 - hi[0]] + lo[1:], [1.0 - lo[0]] + hi[1:])
        assert np.max(np.abs(self._solve(grid, mirrored, gamma, value)[::-1]
                             - u)) <= bound
        if len(shape) == 2 and shape[0] == shape[1]:
            swapped = self._solve(grid, (lo[::-1], hi[::-1]), gamma, value)
            assert np.max(np.abs(swapped.T - u)) <= bound

    @settings(max_examples=12, deadline=None)
    @given(dim=st.sampled_from([1, 2]), cells=st.integers(24, 32),
           extra=st.sampled_from([0, 8]), gamma=st.floats(0.5, 40.0),
           value=st.floats(0.1, 10.0), data=st.data())
    def test_mirrored_box_mirrored_solution(self, dim, cells, extra, gamma,
                                            value, data):
        shape = (4 * cells,) if dim == 1 else (cells, cells + extra)
        corners = []
        for n in shape:
            i = data.draw(st.integers(0, n - 2))
            corners.append((i, data.draw(st.integers(i + 1, n - 1))))
        self._check(shape, corners, gamma, value)

    def test_square_24_multigrid(self):
        self._check((24, 24), [(6, 17), (4, 12)], 10.0, 1.0)


class TestMultigridPath:
    """The shipped 64^2 square: multigrid-preconditioned CG in every Newton step."""

    @pytest.fixture(scope="class")
    def square(self):
        spec = load_config(SQUARE_HOLE).spec
        assert spec.grid.cells == (64, 64)
        levels = []
        interpolation = ops._interpolation

        def galerkin_level(shape):
            levels.append(shape)
            return interpolation(shape)

        with pytest.MonkeyPatch.context() as mp:
            sizes = record_direct_solves(mp)
            mp.setattr(ops, "_interpolation", galerkin_level)
            sol = solve_singular(spec)
        return spec, sol, sizes, levels

    @pytest.fixture(scope="class")
    def cg_work(self):
        """The square's solve with every CG call's rtol and every V-cycle recorded."""
        rtols, vcycles = [], []
        real_vcycle = ops._Multigrid._vcycle

        def vcycle(self, r):
            vcycles.append(None)
            return real_vcycle(self, r)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spla, "cg", _recording_cg(rtols))
            mp.setattr(ops._Multigrid, "_vcycle", vcycle)
            sol = solve_singular(load_config(SQUARE_HOLE).spec)
        return sol, rtols, len(vcycles)

    def test_inexact_newton_vcycles(self, cg_work):
        # every Newton step solved to rtol 1e-13 took 430 V-cycles here
        _, _, vcycles = cg_work
        assert vcycles <= 200

    def test_forcing_term_reaches_cg(self, cg_work):
        sol, rtols, _ = cg_work
        # the cold start A^-1 f, only a Newton start, then one CG solve per
        # Newton step
        assert len(rtols) == 1 + sum(it.iterations for it in sol.trace)
        assert rtols[0] == solver_module.ETA_MAX
        newton = rtols[1:]
        assert all(ops.CG_RELATIVE_TOL <= r <= solver_module.ETA_MAX for r in newton)
        assert newton[0] == solver_module.ETA_MAX
        assert sum(it.linear_iterations for it in sol.trace) > 0

    def test_operator_solves_stay_tight(self, monkeypatch):
        rtols = []
        monkeypatch.setattr(spla, "cg", _recording_cg(rtols))
        grid = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (32, 32))
        op = ops.assemble(grid, CoefficientField.identity(grid))
        ops.solve_linear(op, GridFunction(grid, np.ones(grid.shape)))
        op.solve(np.ones(op.n_unknowns))
        assert len(rtols) >= 2
        assert all(r == ops.CG_RELATIVE_TOL for r in rtols)

    def test_matches_forced_direct_path(self, square, monkeypatch):
        spec, sol, _, _ = square
        monkeypatch.setattr(ops, "COARSE_SIZE", 10 ** 12)
        direct = solve_singular(spec)
        # inexact Newton may take a few more steps than the exact direct path
        newton = sum(it.iterations for it in sol.trace)
        assert newton <= 1.25 * sum(it.iterations for it in direct.trace)
        assert np.max(np.abs(sol.u.values - direct.u.values)) <= 1e-12

    def test_no_fine_grid_factorization(self, square):
        # a later change must not silently bring back fine-grid fill-in: the
        # only direct solves are banded Cholesky on the coarsest level, and
        # SuperLU, made to fail, is never called
        spec, sol, sizes, _ = square
        coarsest = int(np.prod(ops._coarse_shapes(spec.grid.interior_shape)[-1]))
        assert coarsest <= ops.COARSE_SIZE
        newton = sum(it.iterations for it in sol.trace)
        assert len(sizes) >= newton
        assert max(sizes) <= coarsest

    def test_one_operator_hierarchy_per_solve(self, square):
        # the operator builds its solver once; each Newton step one for J;
        # each solver holds exactly one coarsest-level banded solve
        _, sol, sizes, _ = square
        newton = sum(it.iterations for it in sol.trace)
        assert len(sizes) == newton + 1

    def test_one_galerkin_hierarchy_per_solve(self, square):
        # P^T A P is formed once per level; a Newton step adds only its shift
        spec, _, _, levels = square
        shape = spec.grid.interior_shape
        assert levels == [shape] + ops._coarse_shapes(shape)[:-1]


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
        res = quasilinear_residual(v, 3.0, spec.datum_values(),
                                   coefficients=spec.coefficients, floor=1e-3)
        assert res.masked_sup <= 5e-3

    def test_limit_form_residual_decreases(self):
        sups = []
        for cells in (256, 512, 1024):
            g = make_uniform_grid(-1.0, 1.0, cells)
            t = g.axes()[0]
            v = GridFunction(g, 2.0 / np.pi ** 2 * np.cos(np.pi * t / 2.0) ** 2)
            res = quasilinear_residual(v, math.inf, np.ones(g.shape),
                                       coefficients=CoefficientField.identity(g))
            sups.append(res.masked_sup)
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] <= 5e-3

    def test_residual_applies_the_coefficients(self):
        # M = 2 scales the discrete solution's v by 1/2 (2 c^(g+1) = 1 for
        # u = c u_I), and the M-residual of v/2 is the plain residual of v
        spec = interval_spec(3.0, 256)
        doubled = replace(spec, coefficients=CoefficientField.constant(spec.grid, [[2.0]]))
        sups = []
        for s, floor in ((doubled, 1e-3), (spec, 2e-3)):
            v = to_quasilinear(solve_singular(s).u, 3.0)
            sups.append(quasilinear_residual(v, 3.0, s.datum_values(),
                                             coefficients=s.coefficients,
                                             floor=floor).masked_sup)
        assert abs(sups[0] - sups[1]) <= 1e-4 * sups[1]

    def test_divergence_term_is_the_assembled_operator(self, rng):
        # residual = A v + w G with w = 1/2 at gamma = 1 and w = 1 in the
        # limit form, so A v = 2 res(1) - res(inf) on a variable diagonal M
        g = make_uniform_grid((0.0, 0.0), (1.0, 2.0), (12, 9))
        entries = np.zeros(g.shape + (2, 2))
        entries[..., 0, 0] = 1.0 + rng.random(g.shape)
        entries[..., 1, 1] = 1.0 + rng.random(g.shape)
        coefficients = CoefficientField(g, entries)
        values = np.zeros(g.shape)
        values[1:-1, 1:-1] = 0.5 + rng.random(g.interior_shape)
        v = GridFunction(g, values)
        half, full = (quasilinear_residual(v, gamma, np.zeros(g.shape),
                                           coefficients=coefficients).field.interior()
                      for gamma in (1.0, math.inf))
        op = ops.assemble(g, coefficients)
        expected = op.apply(op.interior_of(v))
        np.testing.assert_allclose((2.0 * half - full).ravel(), expected,
                                   rtol=0.0, atol=1e-12 * np.max(np.abs(expected)))

    def test_vacuous_when_all_masked(self):
        g = make_uniform_grid(-1.0, 1.0, 16)
        res = quasilinear_residual(GridFunction.zeros(g), 3.0, np.zeros(g.shape),
                                   coefficients=CoefficientField.identity(g))
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
