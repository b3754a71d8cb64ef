import collections
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st

import singell.operators as ops
import singell.solver as solver_mod
import singell.sweeps as sweeps_mod
from singell import (CoefficientField, ConstantDatum, GridFunction, MeasureHistogram,
                     NonlinearSolveError, ProblemSpec, SweepRow,
                     conjecture_experiment, extract_atoms, limit_equation_check,
                     make_uniform_grid, measure_histogram, quasilinear_residual,
                     run_sweep, solve_singular, to_quasilinear)
from singell.config import load_config
from singell.grids import Grid, IndicatorDatum, TabulatedDatum
from singell.solver import RESIDUAL_FLOOR, mass_density_stack, solve_lockstep
from singell.sweeps import (box_masks, check_limit, describe_solution,
                            fitted_depth_stack, limit_check_applies,
                            log_depth_stack)
from conftest import (harmonic_lift, interval_spec, matched_spec, record_assemblies,
                      record_direct_solves, reference_harmonic)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SQUARE_HOLE = CONFIGS / "square_hole.json"


def atom_field(grid, atoms):
    """The atoms of a node measure as a node array of their masses."""
    field = np.zeros(grid.shape)
    for loc, mass in atoms.atoms:
        node = tuple(int(round((x - a) / h)) for x, a, h in zip(loc, grid.lo, grid.h))
        field[node] += mass
    return field


class TestLogDiagnostic:
    def test_constant_one(self):
        g = make_uniform_grid(-1.0, 1.0, 16)
        u = np.ones((1,) + g.shape)
        for n in (3.0, 40.0, 400.0):
            z = log_depth_stack(u, [n])[0]
            np.testing.assert_allclose(z, math.log(n + 1.0), atol=1e-12)

    def test_gamma3_center_value(self):
        spec = interval_spec(3.0, 1024)
        sol = solve_singular(spec)
        z = log_depth_stack(sol.u.values[None], [3.0])[0]
        center = np.argmin(np.abs(spec.grid.axes()[0]))
        assert abs(z[center] - math.log(4.0)) <= 5e-3

    def test_zero_maps_to_infinity(self):
        g = make_uniform_grid(-1.0, 1.0, 16)
        z = log_depth_stack(np.zeros((1,) + g.shape), [5.0])
        assert np.all(np.isinf(z))

    def test_fitted_bound_excludes_boundary_zeros(self):
        spec = matched_spec(10.0, 128)
        sol = solve_singular(spec)
        f = spec.datum_values()
        box = (-0.5, 0.5)
        z = log_depth_stack(sol.u.values.reshape(1, -1), [10.0])
        bound = fitted_depth_stack(z, box_masks(spec.grid, [box]), [box], f)[0, 0]
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
                           IndicatorDatum(0.0, -1.0, 1.0), gamma=5.0)
        u = GridFunction(grid, np.ones(grid.shape))
        hist = measure_histogram(u, spec, 5.0, shell_distances=(0.1,))
        assert hist.total == 0.0
        assert hist.shell_fractions[0.1] == 0.0

    def test_requires_indicator(self):
        spec = interval_spec(5.0, 64)
        u = GridFunction(spec.grid, np.ones(spec.grid.shape))
        with pytest.raises(ValueError):
            measure_histogram(u, spec, 5.0)

    def test_other_exponent_samples_no_datum(self, monkeypatch):
        spec = matched_spec(10.0, 128)
        u = solve_singular(spec).u
        expected = (mass_density_stack(u.values[None], [40.0], spec.datum_values())[0]
                    * spec.grid.cell_volume())
        calls = []
        real = Grid.box_mask
        monkeypatch.setattr(Grid, "box_mask",
                            lambda grid, box: calls.append(box) or real(grid, box))
        hist = measure_histogram(u, spec, 40.0, shell_distances=(0.1,))
        assert calls == []
        assert np.array_equal(hist.cell_masses, expected)
        assert hist.total == float(np.sum(expected))


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

    def test_atoms_carry_full_mass(self):
        spec = matched_spec(160.0, 512)
        sol = solve_singular(spec)
        hist = measure_histogram(sol.u, spec, 160.0)
        atoms = extract_atoms(hist)
        assert len(atoms.atoms) == 2
        assert np.isclose(sum(m for _, m in atoms.atoms), hist.total,
                          rtol=1e-12, atol=0)

    # the mirror maps of each config's grid and datum, as maps of node arrays
    MIRRORS = {"matched_indicator": [lambda a: a[::-1]],
               "square_hole": [lambda a: a[::-1], lambda a: a[:, ::-1],
                               lambda a: a.T]}

    @pytest.mark.parametrize("name", sorted(MIRRORS))
    def test_mirror_symmetric_configs_give_equal_atoms(self, name):
        # nodes equidistant from two faces split their mass between them, so
        # the measure keeps every mirror symmetry of the data, and its mass
        config = load_config(CONFIGS / f"{name}.json")
        n = config.n_list[-1]
        sol = solve_singular(replace(config.spec, gamma=n), config.m_schedule)
        hist = measure_histogram(sol.u, config.spec, n)
        field = atom_field(sol.u.grid, extract_atoms(hist))
        assert np.isclose(np.sum(field), hist.total, rtol=1e-12, atol=0)
        for mirror in self.MIRRORS[name]:
            assert np.max(np.abs(mirror(field) - field)) <= 1e-12 * np.max(field)

    def test_each_face_collects_its_mass_at_its_mean_depth(self):
        # 1-D: depths 0.25 and 0.5 below the lower face, weights 3 and 1,
        # mean depth 0.3125, snapped to the line at depth 0.25
        g = make_uniform_grid(-2.0, 2.0, 16)
        masses = np.zeros(g.shape)
        masses[[5, 6, 11]] = 3.0, 1.0, 2.0        # t = -0.75, -0.5, 0.75
        hist = MeasureHistogram(g, masses, 6.0, {}, ((-1.0,), (1.0,)))
        assert extract_atoms(hist).atoms == (((-0.75,), 4.0), ((0.75,), 2.0))
        # 2-D: the lower x face's mean depth 0.09375 snaps to x = 0.375; the
        # tangential coordinate y of each node is kept
        g = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
        masses = np.zeros(g.shape)
        masses[3, 4], masses[2, 5], masses[4, 3] = 3.0, 1.0, 1.0
        hist = MeasureHistogram(g, masses, 5.0, {}, ((0.25, 0.25), (0.75, 0.75)))
        assert extract_atoms(hist).atoms == (((0.375, 0.5), 3.0),
                                             ((0.375, 0.625), 1.0),
                                             ((0.5, 0.375), 1.0))

    def test_square_gap_falls_with_n(self):
        spec = load_config(SQUARE_HOLE).spec
        gaps = []
        for n in (20.0, 80.0, 400.0):
            sol = solve_singular(spec.with_gamma(n))
            gaps.append(check_limit(sol.u, spec, n).gap)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.02


def removed_support_rule(spec) -> bool:
    """The limit-check gate when a "compact" annotation decided it: a
    positive indicator whose box lies strictly inside the domain on every axis."""
    datum, grid = spec.datum, spec.grid
    return datum.value > 0 and all(lo < a and b < hi for a, b, lo, hi
                                   in zip(datum.lo, datum.hi, grid.lo, grid.hi))


@st.composite
def indicator_problems(draw):
    """A 1-D or 2-D grid with arbitrary float extents and an indicator box
    whose faces sit on the domain's ends, on nodes, between nodes, outside
    the domain or anywhere."""
    lo, hi, cells, box_lo, box_hi = [], [], [], [], []
    for _ in range(draw(st.sampled_from([1, 2]))):
        x0 = draw(st.floats(-10.0, 10.0))
        x1 = x0 + draw(st.floats(1e-3, 20.0))
        assume(x0 < x1)
        c = draw(st.integers(4, 64))
        h = (x1 - x0) / c
        face = st.one_of(st.sampled_from([x0, x1]),
                         st.integers(-2, c + 2).map(lambda i: x0 + i * h),
                         st.integers(-2, c + 1).map(lambda i: x0 + (i + 0.5) * h),
                         st.floats(x0 - 1.0, x1 + 1.0))
        a, b = sorted((draw(face), draw(face)))
        assume(a < b)
        lo.append(x0), hi.append(x1), cells.append(c), box_lo.append(a), box_hi.append(b)
    grid = make_uniform_grid(lo, hi, cells)
    datum = IndicatorDatum(draw(st.sampled_from([0.0, 0.5, 2.0])), box_lo, box_hi)
    return ProblemSpec(grid, CoefficientField.identity(grid), datum, gamma=10.0)


class TestLimitCheckApplies:
    """The gate reads compactness off the sampled datum: an indicator, f > 0
    at some node and f = 0 at every boundary node."""

    @settings(max_examples=300, deadline=None)
    @given(spec=indicator_problems())
    def test_removed_rule_on_boxes_that_hold_a_node(self, spec):
        datum = spec.datum
        holds_node = bool(np.any(spec.grid.box_mask((datum.lo, datum.hi))))
        assert limit_check_applies(spec) == (removed_support_rule(spec) and holds_node)

    def test_box_ending_on_hi_does_not_apply(self):
        # lo + h*cells lands an ulp past hi on this grid; the last node is hi
        grid = make_uniform_grid(-0.044, 1.926, 10)
        spec = ProblemSpec(grid, CoefficientField.identity(grid),
                           IndicatorDatum(1.0, 0.5, 1.926), gamma=10.0)
        assert not removed_support_rule(spec) and not limit_check_applies(spec)

    def test_box_between_nodes_does_not_apply(self):
        # inside the domain, but no node in the box: f = 0 everywhere
        grid = make_uniform_grid(-2.0, 2.0, 8)
        spec = ProblemSpec(grid, CoefficientField.identity(grid),
                           IndicatorDatum(1.0, 0.1, 0.4), gamma=10.0)
        assert removed_support_rule(spec) and not limit_check_applies(spec)

    def test_only_indicator_data(self):
        # data vanishing on the boundary but not an indicator stay unchecked
        grid = make_uniform_grid(-1.0, 1.0, 16)
        bump = np.maximum(0.5 - np.abs(grid.axes()[0]), 0.0)
        for datum in (ConstantDatum(1.0), TabulatedDatum(GridFunction(grid, bump))):
            spec = ProblemSpec(grid, CoefficientField.identity(grid), datum, gamma=10.0)
            assert not limit_check_applies(spec)

    @pytest.mark.parametrize("name, applies", [
        ("matched_indicator", True), ("square_hole", True),
        ("cubic_interval", False), ("uniform_interval_sweep", False)])
    def test_shipped_configs(self, name, applies):
        assert limit_check_applies(load_config(CONFIGS / f"{name}.json").spec) is applies


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

    def test_assembles_once_per_sweep(self, monkeypatch):
        grids = record_assemblies(monkeypatch)
        spec = interval_spec(10.0, 128)
        report = run_sweep(spec, [10, 20, 40])
        assert not any(r.failed for r in report.rows)
        assert grids == [spec.grid]

    def test_one_spec_assembles_once(self, monkeypatch):
        # the solve, its description, its singular residual and a copy of
        # the spec at another exponent all read the one field's A
        grids = record_assemblies(monkeypatch)
        spec = matched_spec(10.0, 128)
        sol = solve_singular(spec)
        describe_solution(sol, [(-0.5, 0.5)])
        solver_mod.singular_residual(sol.u, spec)
        other = replace(spec, gamma=20.0)
        assert other.coefficients is spec.coefficients
        solver_mod.singular_residual(solve_singular(other).u, other)
        assert grids == [spec.grid]

    def test_1d_sweep_and_limit_check_form_no_csr(self):
        # a 1-D operator reads its bands and its rounding-floor scale off
        # its diagonals: no solve or diagnostic converts A to CSR
        config = load_config(CONFIGS / "matched_indicator.json")
        spec = config.spec
        op = spec.coefficients.operator
        solve_singular(spec)
        assert "matrix" not in vars(op)
        report = run_sweep(spec, config.n_list, config.compacta,
                           shell_distances=config.shell_distances,
                           m_schedule=config.m_schedule,
                           residual_floor=config.residual_floor)
        assert not any(r.failed for r in report.rows)
        n = config.n_list[-1]
        check_limit(solve_singular(spec.with_gamma(n)).u, spec, n, config.shell_distances)
        assert "matrix" not in vars(op)

    def test_requires_increasing_n(self):
        with pytest.raises(ValueError):
            run_sweep(matched_spec(10.0, 64), [10, 10])
        with pytest.raises(ValueError):
            run_sweep(matched_spec(10.0, 64), [2, 10])

    def test_row_failure_recorded_sweep_continues(self, monkeypatch):
        real = solver_mod._check_iterate

        def flaky(m, gamma, *args):
            if gamma == 20.0:
                raise NonlinearSolveError("synthetic breakdown", [])
            return real(m, gamma, *args)

        monkeypatch.setattr(solver_mod, "_check_iterate", flaky)
        report = run_sweep(matched_spec(10.0, 128), [10, 20, 40],
                           compacta=[(-0.5, 0.5)])
        assert [r.failed for r in report.rows] == [False, True, False]
        assert "synthetic breakdown" in report.rows[1].error
        assert report.limit_u is not None   # largest successful solve survives

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(solver_mod, "_check_iterate", broken)
        with pytest.raises(TypeError, match="synthetic programming error"):
            run_sweep(matched_spec(10.0, 128), [10, 20])


def assert_same_trace(a, b):
    """Two m-schedules bit for bit alike: every step's counts and iterate."""
    def steps(trace):
        return [(it.m, it.iterations, it.linear_iterations, it.stalled, it.residual)
                for it in trace]
    assert steps(a) == steps(b)
    assert all(np.array_equal(x.u.values, y.u.values) for x, y in zip(a, b))


def assert_same_solve(a, b):
    assert (a.gap, a.stabilized) == (b.gap, b.stabilized)
    assert np.array_equal(a.u.values, b.u.values)
    assert_same_trace(a.trace, b.trace)


def scalar_row(sol, compacta, floor=RESIDUAL_FLOOR) -> SweepRow:
    """The row of `sol` written out in plain numpy, sharing no kernel with
    `describe_stack`: the minimum over each box, the flat sums of the mass
    density, the certificate sup^(n+1)/((n+1)|f|_inf), the depth
    max(log(n+1) - (n+1) log u)^+ over the admissible box nodes, and the
    H^1 seminorm of v summed axis by axis.  Only the power map and the
    quasilinear residual are the package's."""
    spec, u, n = sol.spec, sol.u, sol.spec.gamma
    f = spec.datum_values()
    positive = np.max(f) > 0
    boxes = [spec.grid.box_mask(box) for box in compacta]
    inner = np.zeros(f.shape, dtype=bool)
    inner[(slice(1, -1),) * f.ndim] = True
    support = inner & (f > 0)
    density = np.zeros(f.shape)
    with np.errstate(divide="ignore"):
        density[support] = np.exp(np.minimum(
            np.log(f[support]) - n * np.log(u.values[support]), 700.0))
        depth = math.log(n + 1.0) - (n + 1.0) * np.log(u.values)
    vol = u.grid.cell_volume()
    v = to_quasilinear(u, n)
    h1 = math.sqrt(sum(float(np.sum((np.diff(v.values, axis=ax) / h) ** 2)) * vol
                       for ax, h in enumerate(u.grid.h)))
    admissible = ~(np.isinf(depth) & (f == 0.0))
    return SweepRow(
        n=n, sup_norm=float(np.max(np.abs(u.values))),
        compacta_min=tuple(float(np.min(u.values[box])) for box in boxes),
        total_mass=float(np.sum(density) * vol),
        local_masses=tuple(float(np.sum(np.where(box, density, 0.0)) * vol)
                           for box in boxes),
        quasilinear_residual=quasilinear_residual(
            v, n, f, coefficients=spec.coefficients, floor=floor).masked_sup,
        certificate=(float(np.max(np.abs(u.values))) ** (n + 1.0)
                     / ((n + 1.0) * float(np.max(np.abs(f)))) if positive else None),
        fitted_depth=tuple(float(np.max(np.maximum(depth, 0.0)[box & admissible]))
                           if positive else None for box in boxes),
        v_sup=v.sup_norm(), v_h1_seminorm=h1)


def assert_rows_agree(row, ref):
    """`row` is `ref`, the certificate to 1e-13 relative (the kernel
    evaluates it in the log domain) and every other field exactly."""
    assert replace(row, certificate=None) == replace(ref, certificate=None)
    if ref.certificate is None:
        assert row.certificate is None
    else:
        assert math.isclose(row.certificate, ref.certificate, rel_tol=1e-13)


class TestLockstep:
    """A sweep solves its exponents in lockstep; each row must be the solve
    its exponent gets alone."""

    def check_rows_equal_solo_solves(self, spec, ns, compacta):
        """Each row is the solve of its exponent alone, described alone
        (`describe_solution`) and field by field by plain formulas
        (`scalar_row`)."""
        report = run_sweep(spec, ns, compacta)
        for n, row, trace in zip(ns, report.rows, report.traces):
            try:
                alone = solve_singular(replace(spec, gamma=n))
            except NonlinearSolveError as exc:   # the same failure, the same text
                assert (row.failed, row.error, trace) == (True, str(exc), None)
                continue
            assert row == describe_solution(alone, compacta)
            # each mass sums its row in the pairwise order of a flat sum
            assert_rows_agree(row, scalar_row(alone, compacta))
            assert_same_trace(trace, alone.trace)
        return report

    @settings(max_examples=12, deadline=None)
    @given(ns=st.lists(st.floats(3.0, 400.0), min_size=1, max_size=7, unique=True),
           cells=st.integers(64, 512), matched=st.booleans())
    def test_rows_equal_solo_solves_1d(self, ns, cells, matched):
        spec = matched_spec(10.0, cells) if matched else interval_spec(10.0, cells)
        self.check_rows_equal_solo_solves(spec, sorted(ns), [(-0.5, 0.5)])

    def test_no_exponents_no_rows(self):
        report = run_sweep(matched_spec(10.0, 64), [])
        assert report.rows == report.traces == ()
        assert report.limit_u is None

    def test_rows_equal_solo_solves_square(self):
        config = load_config(SQUARE_HOLE)
        grid = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (24, 24))
        spec = ProblemSpec(grid, CoefficientField.identity(grid), config.spec.datum,
                           gamma=20.0)
        self.check_rows_equal_solo_solves(spec, [5.0, 20.0, 60.0],
                                          [((0.3, 0.3), (0.7, 0.7))])

    def test_rows_equal_solo_solves_zero_datum(self):
        spec = interval_spec(10.0, 128, value=0.0)
        report = self.check_rows_equal_solo_solves(spec, [3.0, 10.0, 40.0],
                                                   [(-0.5, 0.5), (-0.9, 0.9)])
        for row in report.rows:
            assert (row.certificate, row.fitted_depth) == (None, (None, None))
            assert row.total_mass == row.sup_norm == 0.0

    def test_rows_equal_solo_solves_2d_two_compacta(self):
        grid = make_uniform_grid((0.0, 0.0), (1.0, 1.2), (24, 30))
        spec = ProblemSpec(grid, CoefficientField.identity(grid),
                           IndicatorDatum(1.0, (0.25, 0.3), (0.75, 0.8)),
                           gamma=20.0)
        report = self.check_rows_equal_solo_solves(
            spec, [5.0, 20.0, 60.0],
            [((0.3, 0.35), (0.7, 0.75)), ((0.1, 0.2), (0.9, 0.6))])
        assert all(len(row.fitted_depth) == 2 for row in report.rows)

    def test_failed_row_leaves_the_other_rows_unchanged(self, monkeypatch):
        spec, ns = matched_spec(10.0, 128), [10.0, 20.0, 40.0]
        clean = solve_lockstep(spec, ns)
        real, poisoned = ops.SparseOperator.solver, []

        def solver(self, shift=None, rtol=ops.CG_RELATIVE_TOL):
            if shift is not None and shift.ndim == 2 and not poisoned:
                poisoned.append(shift.shape)
                shift = shift.copy()
                shift[1] = np.nan         # the first Newton step of n = 20
            return real(self, shift, rtol)

        monkeypatch.setattr(ops.SparseOperator, "solver", solver)
        outcomes = solve_lockstep(spec, ns)
        assert poisoned == [(3, spec.grid.cells[0] - 1)]
        assert isinstance(outcomes[1], NonlinearSolveError)
        assert "non-finite Newton direction at iteration 1" in str(outcomes[1])
        for i in (0, 2):
            assert_same_solve(outcomes[i], clean[i])

    def test_a_row_failed_at_one_m_is_not_solved_at_later_m(self, monkeypatch):
        spec, ns, schedule = matched_spec(10.0, 128), [10.0, 20.0, 40.0], [4, 16, math.inf]
        real_check, real_stack, sizes = solver_mod._check_iterate, solver_mod._regularized_stack, []

        def check(m, gamma, *args):
            if (m, gamma) == (4, 20.0):
                raise NonlinearSolveError("synthetic failure at m = 4", [])
            return real_check(m, gamma, *args)

        def stack(spec, gammas, *args):
            sizes.append(len(gammas))
            return real_stack(spec, gammas, *args)

        monkeypatch.setattr(solver_mod, "_check_iterate", check)
        monkeypatch.setattr(solver_mod, "_regularized_stack", stack)
        outcomes = solve_lockstep(spec, ns, schedule)
        assert sizes == [3, 2, 2]
        assert isinstance(outcomes[1], NonlinearSolveError)
        assert "synthetic failure at m = 4" in str(outcomes[1])
        for i in (0, 2):
            assert_same_solve(outcomes[i], solve_singular(spec.with_gamma(ns[i]), schedule))


def count_description_work(monkeypatch) -> collections.Counter:
    """Count the calls of `Grid.box_mask`, `Grid.meshes` and
    `operators.face_weights` (under every name a singell module holds it by)."""
    counts = collections.Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in ("box_mask", "meshes"):
        monkeypatch.setattr(Grid, name, counting(name, getattr(Grid, name)))
    real = ops.face_weights
    counted = counting("face_weights", real)
    for module in (ops, solver_mod, sweeps_mod):
        if getattr(module, "face_weights", None) is real:
            monkeypatch.setattr(module, "face_weights", counted)
    return counts


class TestDescriptionWork:
    """A sweep describes its rows as one stack: the masks, the face weights
    and the support of f are computed once per sweep, not once per row."""

    @pytest.mark.parametrize("make_spec", [matched_spec, interval_spec])
    def test_one_row_and_seven_rows_do_the_same_mask_work(self, monkeypatch,
                                                          make_spec):
        counts = count_description_work(monkeypatch)

        def work(ns):
            # a fresh spec: another run on the same field would reuse its A
            counts.clear()
            report = run_sweep(make_spec(10.0, 128), ns, [(-0.5, 0.5), (-0.9, 0.9)],
                               shell_distances=(0.1,))
            assert not any(row.failed for row in report.rows)
            return dict(counts)

        one = work([400.0])
        assert min(one.get(name, 0) for name in ("box_mask", "meshes", "face_weights")) > 0
        assert work([10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 400.0]) == one


class TestConjecture:
    def test_requires_indicator(self):
        with pytest.raises(ValueError, match="requires an indicator datum"):
            conjecture_experiment(interval_spec(5.0, 64), 5.0)

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
                         np.where(t > b, (t[-1] - t) / (t[-1] - b), 1.0))
        harmonic = harmonic_lift(g, g.box_mask((a, b)))
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
        box = grid.box_mask((tuple(lo), tuple(hi)))
        # the CG stopping error and the penalty: at most 4.7e-13 over 200 random boxes
        assert np.max(np.abs(harmonic_lift(grid, box) - reference_harmonic(grid, box))) <= 2e-12

    def test_2d_harmonic_anisotropic_box_matches_superlu_reference(self):
        # hy = 8 hx: any large entry of rhs on the penalized box rows would
        # loosen CG's relative stop past the bound here
        grid = make_uniform_grid((0.0, 0.0), (1.0, 2.0), (64, 16))
        box = grid.box_mask(((0.09375, 0.125), (0.65625, 1.5)))
        assert np.max(np.abs(harmonic_lift(grid, box) - reference_harmonic(grid, box))) <= 2e-12

    def test_square_factorizes_only_the_coarsest_level(self, monkeypatch):
        # banded Cholesky on the coarsest level only; SuperLU, made to fail, is never called
        config = load_config(SQUARE_HOLE)
        sizes = record_direct_solves(monkeypatch)
        conjecture_experiment(config.spec, config.n_list[-1],
                              m_schedule=config.m_schedule)
        coarse = ops._coarse_shapes(config.spec.grid.interior_shape)
        assert sizes and max(sizes) <= int(np.prod(coarse[-1]))

    def test_assembles_once(self, monkeypatch):
        # the solve and the harmonic profile share one operator and its one
        # multigrid hierarchy (one coarsest level per hierarchy)
        grids = record_assemblies(monkeypatch)
        hierarchies, coarse_bands = [], ops._coarse_bands

        def counted(*args):
            hierarchies.append(args)
            return coarse_bands(*args)

        monkeypatch.setattr(ops, "_coarse_bands", counted)
        spec = load_config(SQUARE_HOLE).spec
        report = conjecture_experiment(spec, 20.0)
        assert np.isfinite(report.harmonic_gap)
        assert grids == [spec.grid]
        assert len(hierarchies) == 1

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
                           gamma=10.0)
        report = conjecture_experiment(spec, 10.0)
        assert np.isfinite(report.harmonic_gap)
        assert np.isfinite(report.outer_v_sup)

    def test_anisotropic_gap_to_the_operators_lift_falls_like_1_over_n(self):
        # M = diag(1, 4) on the 64^2 inner-box square: the profile is A's own
        # lift, and u_n approaches it outside the box at about 1/n
        spec = load_config(SQUARE_HOLE).spec
        spec = replace(spec, coefficients=CoefficientField.constant(
            spec.grid, [[1.0, 0.0], [0.0, 4.0]]))
        ns = [20.0, 80.0, 400.0, 800.0]
        gaps = [conjecture_experiment(spec, n).harmonic_gap for n in ns]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert all(4.0 <= n * gap <= 8.0 for n, gap in zip(ns, gaps))
        # the identity operator's lift is no limit of these solutions
        box = spec.grid.box_mask(spec.omega_box())
        identity = harmonic_lift(spec.grid, box)
        u = solve_singular(spec.with_gamma(800.0)).u.values
        assert np.max(np.abs(u - identity)[~box]) > 5 * gaps[-1]
