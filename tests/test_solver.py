import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

import singell.operators as ops
import singell.solver as solver_module
from singell import (CoefficientField, GridFunction, IndicatorDatum,
                     NonlinearSolveError, ProblemSpec, SparseOperator,
                     UndefinedCertificateError, from_quasilinear,
                     linfty_certificate, make_uniform_grid,
                     quasilinear_residual, singular_residual, solve_regularized,
                     solve_singular, to_quasilinear)
from singell.config import load_config
from conftest import (interval_spec, matched_spec, record_assemblies,
                      record_direct_solves, record_newton_steps, square_spec)

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
            spec = interval_spec(gamma, 32, value=0.0)
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

    def test_nonconvergence_reports_trace(self, monkeypatch):
        spec = interval_spec(5.0, 128)
        bad_start = GridFunction.zeros(spec.grid)
        monkeypatch.setattr(solver_module, "MAX_ITERATIONS", 1)
        with pytest.raises(NonlinearSolveError, match="within 1 iterations") as err:
            solve_regularized(spec, 4 ** 8, initial=bad_start)
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
            if np.ndim(shift) == 2:        # one Jacobian solve per Newton step
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
        # f > 0 at every interior node; the cold start max(A^-1 f, 0) clips
        # the RHS near the boundary at large m and no step lowers the capped
        # residual: that iterate is no solution
        config = load_config(CONFIGS / "uniform_interval_sweep.json")
        spec = replace(config.spec, gamma=160.0)
        op = ops.assemble(spec.grid, spec.coefficients)
        cold = np.maximum(op.solver(rtol=solver_module.ETA_MAX)(
            solver_module._interior_datum(spec)), 0.0)
        with pytest.raises(NonlinearSolveError, match="clipped"):
            solve_regularized(spec, 4 ** 6, initial=op.full_from_interior(cold))

    @pytest.mark.parametrize("m", [4 ** 6, math.inf])
    def test_v_start_converges_at_gamma_160(self, m, monkeypatch):
        # f > 0 next to the boundary, so the start is the v-start; the cold
        # start max(A^-1 f, 0) clipped the RHS near the boundary here and no
        # step lowered the capped residual.  Every Newton step counts.
        config = load_config(CONFIGS / "uniform_interval_sweep.json")
        spec = replace(config.spec, gamma=160.0)
        steps = record_newton_steps(monkeypatch)
        it = solve_regularized(spec, m)
        assert it.m == m and not it.stalled
        assert sum(steps) <= 11
        assert np.min(it.u.interior()) > 0.0

    def test_start_vanishing_off_the_support_at_m_infinity(self):
        # at eps = 0 the Jacobian shift gamma g/(u + eps) is 0/0 where f = 0
        # and u = 0; it is 0 there, and Newton converges to the default solve
        spec = matched_spec(10.0, 256)
        start = GridFunction(spec.grid, (spec.datum_values() > 0).astype(float))
        it = solve_regularized(spec, math.inf, initial=start)
        ref = solve_singular(spec).u.values
        assert np.max(np.abs(it.u.values - ref)) <= 1e-10 * np.max(ref)

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

    def test_default_solve_at_m_infinity_is_stabilized(self):
        for spec in (interval_spec(3.0, 64), matched_spec(10.0, 64)):
            sol = solve_singular(spec)
            assert [it.m for it in sol.trace] == [math.inf]
            assert sol.stabilized
            assert sol.gap == math.inf
        # a finite schedule may end at m = inf; its gap is the last m-step's
        sol = solve_singular(matched_spec(10.0, 64), [16, math.inf])
        assert sol.stabilized
        assert 0.0 < sol.gap < 1.0 / 16

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

    @pytest.mark.parametrize("schedule", [[math.inf, math.inf], [math.inf, 4],
                                          [math.nan], [1, math.nan]])
    def test_inf_only_last_and_no_nan(self, schedule):
        with pytest.raises(ValueError):
            solver_module.check_m_schedule(schedule)

    def test_symmetric_spec_gives_even_solution(self):
        spec = matched_spec(12.0, 256)
        sol = solve_singular(spec)
        assert np.max(np.abs(sol.u.values - sol.u.values[::-1])) <= 1e-9

    def test_gap_reported_when_not_stabilized(self):
        spec = interval_spec(3.0, 128)
        sol = solve_singular(spec, [1, 4])
        assert not sol.stabilized
        assert sol.gap > 0.0

    def test_exponents_share_the_fields_operator(self, monkeypatch):
        # two exponents of one problem assemble A once, and reading the
        # field's A solves bit for bit what a fresh field's A solves
        fresh = solve_singular(matched_spec(12.0, 128), [1, 16, 256])
        spec = matched_spec(20.0, 128)
        calls = record_assemblies(monkeypatch)
        solve_singular(spec, [1, 16, 256])
        shared = solve_singular(spec.with_gamma(12.0), [1, 16, 256])
        assert calls == [spec.grid]
        assert np.array_equal(shared.u.values, fresh.u.values)

    def test_1d_runs_no_superlu(self, monkeypatch):
        # 1-D systems are tridiagonal: banded Cholesky, never a sparse LU
        calls = []
        monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: calls.append(args))
        sol = solve_singular(matched_spec(40.0, 256))
        assert sum(it.iterations for it in sol.trace) > 0
        assert calls == []

    @pytest.mark.parametrize("name, gamma, budget", [
        ("square_hole", None, 8), ("matched_indicator", 400.0, 10),
        ("cubic_interval", None, 13), ("uniform_interval_sweep", None, 13)])
    def test_newton_steps_within_budget(self, name, gamma, budget, monkeypatch):
        # every Newton step of the solve counts; the continuation over
        # 16^0, ..., 16^6 took 21, 20, 25, 26 (lift start, extrapolated
        # predictors), and the cold start alone does not converge at m = inf
        # on the two positive data
        config = load_config(CONFIGS / f"{name}.json")
        spec = config.spec if gamma is None else replace(config.spec, gamma=gamma)
        steps = record_newton_steps(monkeypatch)
        sol = solve_singular(spec, config.m_schedule)
        assert len(sol.trace) == 1
        assert sum(steps) <= budget

    @pytest.mark.parametrize("cells", [256, 1024, 4096, 16384])
    def test_matched_sweep_lockstep_iterations_within_budget(self, cells):
        # the lockstep runs as many Newton iterations as its slowest row;
        # the continuation over 16^0, ..., 16^6 took 21, 21, 20, 22 in 7 m-steps
        config = load_config(CONFIGS / "matched_indicator.json")
        shipped = matched_spec(10.0, 1024)
        assert (config.spec.grid, config.spec.datum) == (shipped.grid, shipped.datum)
        traces = [sol.trace for sol in solver_module.solve_lockstep(
            matched_spec(10.0, cells), config.n_list, config.m_schedule)]
        assert all(len(trace) == 1 for trace in traces)
        assert max(trace[0].iterations for trace in traces) <= 10

    def test_default_schedule_is_m_infinity(self):
        assert solver_module.default_m_schedule() == [math.inf]

    @pytest.mark.parametrize("name, gamma", [
        ("square_hole", None), ("matched_indicator", 10.0),
        ("matched_indicator", 400.0)])
    def test_default_schedule_matches_the_4k_schedule(self, name, gamma):
        # the last m decides the answer; the steps to it only cost work
        config = load_config(CONFIGS / f"{name}.json")
        spec = config.spec if gamma is None else replace(config.spec, gamma=gamma)
        sol = solve_singular(spec)
        ref = solve_singular(spec, [4 ** k for k in range(13)] + [math.inf])
        assert len(sol.trace) == 1
        assert np.max(np.abs(sol.u.values - ref.u.values)) <= 1e-12 * np.max(ref.u.values)

    @pytest.mark.parametrize("name", ["square_hole", "matched_indicator",
                                      "cubic_interval", "uniform_interval_sweep"])
    def test_default_answer_within_the_tail_of_the_16k_schedule(self, name):
        # the last m = 4^12 of 16^0, ..., 16^6 leaves a regularization tail of
        # about 1/4^12 = 6e-8 relative
        spec = load_config(CONFIGS / f"{name}.json").spec
        sol = solve_singular(spec)
        ref = solve_singular(spec, [16 ** k for k in range(7)])
        assert np.max(np.abs(sol.u.values - ref.u.values)) <= 1e-6 * np.max(ref.u.values)

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
                       IndicatorDatum(value, *box), gamma=gamma)


class TestIndependentMSteps:
    """Every m-step of a schedule starts from the data's start at its
    exponent, so it is the solve at its m alone, bit for bit."""

    def test_every_m_step_starts_from_the_data(self, monkeypatch):
        spec = matched_spec(10.0, 64)
        starts, real = [], solver_module.solve_regularized

        def recording(spec, m, *, initial, **kwargs):
            starts.append(initial.values)
            return real(spec, m, initial=initial, **kwargs)

        monkeypatch.setattr(solver_module, "solve_regularized", recording)
        solve_singular(spec, [4, 16, math.inf])
        _, _, start = _lift(spec)
        assert len(starts) == 3
        for initial in starts:
            assert np.array_equal(initial, start.start(10.0).values)

    @settings(max_examples=25, deadline=None)
    @given(dim=st.sampled_from([1, 2]), cells=st.integers(8, 24),
           gamma=st.floats(3.0, 400.0), value=st.floats(0.1, 10.0),
           lo=st.tuples(st.floats(0.05, 0.45), st.floats(0.05, 0.45)),
           width=st.tuples(st.floats(0.1, 0.5), st.floats(0.1, 0.5)),
           schedule=_m_schedules())
    def test_every_m_step_is_the_direct_solve(self, dim, cells, gamma, value, lo,
                                              width, schedule):
        spec = _indicator_spec(dim, cells, gamma, value, lo, width)
        trace = solve_singular(spec, schedule).trace      # no m-step raises
        assert [it.m for it in trace] == schedule
        for it in trace:
            assert np.array_equal(it.u.values, solve_regularized(spec, it.m).u.values)
        for a, b in zip(trace, trace[1:]):
            assert np.all(b.u.values >= a.u.values - 1e-10)


def _lift(spec):
    return (spec.coefficients.operator, solver_module._interior_datum(spec),
            solver_module._Start(spec))


class TestSupportLift:
    """The harmonic lift phi of S = {f > 0} and the capacity level c of the
    start c phi, where f = 0 next to the boundary."""

    @pytest.fixture(scope="class", params=["matched_indicator", "square_hole"])
    def lifted(self, request):
        return _lift(load_config(CONFIGS / f"{request.param}.json").spec)

    def test_one_on_the_support_between_zero_and_one(self, lifted):
        _, f_int, lift = lifted
        assert lift.log_ratio is not None
        assert np.all(lift.phi[f_int > 0] == 1.0)
        assert np.all((lift.phi >= 0.0) & (lift.phi <= 1.0))
        assert np.min(lift.phi) > 0.0            # harmonic, positive off S

    def test_harmonic_off_the_support(self, lifted):
        # A phi off S is minus the residual of the lift solve, which stops
        # at relative residual ETA_MAX (the penalty on S adds ~1e-12 of it)
        op, f_int, lift = lifted
        off = f_int <= 0
        rhs = op.apply((f_int > 0).astype(float))[off]
        assert (np.linalg.norm(op.apply(lift.phi)[off])
                <= solver_module.ETA_MAX * np.linalg.norm(rhs))

    @pytest.mark.parametrize("shape", [(96,), (24, 24), (32, 40)])
    def test_mirrored_data_mirrored_lift(self, shape):
        # box corners at cell midpoints: the mirrored box holds the mirrored nodes
        grid = make_uniform_grid((0.0,) * len(shape), (1.0,) * len(shape), shape)
        lo = [3.5 / n for n in shape]
        hi = [(n // 2 + 2.5) / n for n in shape]
        lifts = []
        for box in ((lo, hi), ([1.0 - hi[0]] + lo[1:], [1.0 - lo[0]] + hi[1:])):
            corners = box if len(shape) == 2 else (box[0][0], box[1][0])
            spec = ProblemSpec(grid, CoefficientField.identity(grid),
                               IndicatorDatum(1.0, *corners), gamma=3.0)
            _, _, lift = _lift(spec)
            lifts.append(lift)
        phi, mirrored = (lift.phi.reshape(grid.interior_shape) for lift in lifts)
        assert np.max(np.abs(mirrored[::-1] - phi)) <= 1e-14
        assert abs(lifts[1].log_ratio - lifts[0].log_ratio) <= 1e-14

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0, 10.0, 40.0, 160.0, 400.0])
    def test_capacity_level_solves_its_equation(self, lifted, gamma):
        # c^(gamma+1) sum_S A phi = sum_S f, in the log domain
        op, f_int, lift = lifted
        pos = f_int > 0
        level = op.interior_of(lift.start(gamma))[pos]
        assert np.all(level == level[0]) and level[0] > 0.0
        flux = float(np.sum(op.apply(lift.phi)[pos]))
        assert abs((gamma + 1.0) * math.log(level[0]) + math.log(flux)
                   - math.log(float(np.sum(f_int[pos])))) <= 1e-12

    def test_start_is_the_lift_at_the_capacity_level(self, lifted):
        op, f_int, lift = lifted
        assert lift.v0 is None
        pos = f_int > 0
        ratio = np.sum(f_int[pos]) / np.sum(op.apply(lift.phi)[pos])
        start = op.interior_of(lift.start(20.0))
        c = start[pos][0]
        assert np.array_equal(start, c * lift.phi)
        assert abs(c ** 21 / ratio - 1.0) <= 1e-12

    def test_no_lift_on_strictly_positive_or_zero_data(self):
        # positive data take the v-start, zero data start at 0: no phi
        for value in (1.0, 0.0):
            _, _, lift = _lift(interval_spec(3.0, 64, value=value))
            assert lift.log_ratio is None and lift.phi is None
        assert lift.v0 is None
        assert lift.start(3.0).sup_norm() == 0.0

    @pytest.mark.parametrize("name, lifts", [("cubic_interval", 0), ("edge_indicator", 0),
                                             ("matched_indicator", 1), ("square_hole", 1)])
    def test_only_the_lift_start_builds_phi(self, name, lifts, monkeypatch):
        # an indicator that reaches the first interior node takes the v-start
        if name == "edge_indicator":
            grid = make_uniform_grid(0.0, 1.0, 64)
            spec = ProblemSpec(grid, CoefficientField.identity(grid),
                               IndicatorDatum(1.0, 0.5 / 64, 0.5), gamma=20.0)
        else:
            spec = load_config(CONFIGS / f"{name}.json").spec
        calls, real = [], SparseOperator.harmonic_lift

        def recording(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(SparseOperator, "harmonic_lift", recording)
        solve_singular(spec)
        assert len(calls) == lifts


class TestVStart:
    """Where f > 0 next to the boundary the first start is
    ((gamma+1) v0)^(1/(gamma+1)), v0 = max(A^-1 f, 0) the solution of the
    gamma = 0 problem."""

    @pytest.mark.parametrize("spec", [interval_spec(10.0, 128), square_spec(10.0, 32)],
                             ids=["interval", "square"])
    def test_start_is_the_power_map_of_the_gamma_0_solve(self, spec):
        op, f_int, start = _lift(spec)
        assert start.log_ratio is None and start.phi is None
        v0 = op.full_from_interior(
            np.maximum(op.solver(rtol=solver_module.ETA_MAX)(f_int), 0.0))
        assert np.array_equal(start.v0.values, v0.values)
        for gamma in (1.0, 40.0, 400.0):
            assert np.array_equal(start.start(gamma).values,
                                  from_quasilinear(v0, gamma).values)
            expected = ((gamma + 1.0) * v0.values) ** (1.0 / (gamma + 1.0))
            np.testing.assert_allclose(start.start(gamma).values, expected,
                                       rtol=1e-13, atol=0.0)

    def test_the_rule_follows_the_data_next_to_the_boundary(self):
        # a box that reaches the first interior node takes the v-start, one
        # node short of it the lift
        grid = make_uniform_grid(0.0, 1.0, 64)
        for lo, lifted in ((0.5 / 64, False), (1.5 / 64, True)):
            spec = ProblemSpec(grid, CoefficientField.identity(grid),
                               IndicatorDatum(1.0, lo, 0.5), gamma=20.0)
            _, _, start = _lift(spec)
            assert (start.log_ratio is not None) == lifted
            assert (start.phi is not None) == lifted
            assert (start.v0 is None) == lifted
            assert solve_singular(spec).stabilized

    def test_a_sweep_runs_one_newton_stack(self, monkeypatch):
        config = load_config(CONFIGS / "uniform_interval_sweep.json")
        calls, real = [], solver_module._regularized_stack

        def recording(spec, gammas, m, *args, **kwargs):
            calls.append((list(gammas), m))
            return real(spec, gammas, m, *args, **kwargs)

        monkeypatch.setattr(solver_module, "_regularized_stack", recording)
        solver_module.solve_lockstep(config.spec, config.n_list)
        assert calls == [(list(config.n_list), math.inf)]

    @pytest.mark.parametrize("name, budget", [("uniform_interval_sweep", 11),
                                              ("cubic_interval", 8)])
    def test_lockstep_iterations_within_budget(self, name, budget, monkeypatch):
        # every Newton iteration of the sweep counts
        config = load_config(CONFIGS / f"{name}.json")
        steps = record_newton_steps(monkeypatch)
        sols = solver_module.solve_lockstep(config.spec, config.n_list)
        assert all(len(sol.trace) == 1 for sol in sols)
        assert sum(steps) <= budget

    @pytest.mark.parametrize("spec", [interval_spec(10.0, 128), square_spec(10.0, 16)],
                             ids=["interval", "square"])
    def test_a_failed_start_solve_fails_every_row(self, spec, monkeypatch):
        # the start's one linear solve is the only solve without a shift
        real = SparseOperator.solver

        def failing_start(self, shift=None, **kwargs):
            if shift is None:
                def fail(b):
                    raise ops.LinearSolveError("synthetic start failure", 1.0)
                return fail
            return real(self, shift, **kwargs)

        monkeypatch.setattr(SparseOperator, "solver", failing_start)
        with pytest.raises(ops.LinearSolveError, match="synthetic start failure"):
            solve_singular(spec)
        outcomes = solver_module.solve_lockstep(spec, [10.0, 20.0])
        assert len(outcomes) == 2
        assert all(isinstance(o, ops.LinearSolveError)
                   and "synthetic start failure" in str(o) for o in outcomes)


class TestMonotoneInM:
    """u_m is nondecreasing in m, up to the default solve at m = inf."""

    @staticmethod
    def _check(spec):
        sol = solve_singular(spec, [4 ** k for k in range(7)])
        for a, b in zip(sol.trace, sol.trace[1:]):
            assert np.all(b.u.values >= a.u.values - 1e-10)
        limit = solve_singular(spec).u.values
        for it in sol.trace:
            assert np.all(limit >= it.u.values - 1e-10)

    @settings(max_examples=20, deadline=None)
    @given(dim=st.sampled_from([1, 2]), cells=st.integers(8, 24),
           gamma=st.floats(0.5, 40.0), value=st.floats(0.1, 10.0),
           lo=st.tuples(st.floats(0.05, 0.45), st.floats(0.05, 0.45)),
           width=st.tuples(st.floats(0.1, 0.5), st.floats(0.1, 0.5)))
    def test_iterates_nondecreasing(self, dim, cells, gamma, value, lo, width):
        self._check(_indicator_spec(dim, cells, gamma, value, lo, width))

    @pytest.mark.parametrize("gamma", [0.5, 3.0, 40.0])
    def test_strictly_positive_iterates_nondecreasing(self, gamma):
        self._check(interval_spec(gamma, 128))


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
                               IndicatorDatum(v, *box), gamma=gamma)
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
                           IndicatorDatum(value, *box), gamma=gamma)
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
        # the support lift of the cold start, only a Newton start, then one
        # CG solve per Newton step
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
        entries = np.zeros(g.shape + (2,))
        entries[..., 0] = 1.0 + rng.random(g.shape)
        entries[..., 1] = 1.0 + rng.random(g.shape)
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
