"""Acceptance suite: every quantitative target runs at its stated tolerance
and prints one [criterion N] PASS/FAIL line with the measured values.

Three checks encode targets beyond what the pinned second-order scheme or the
finite-n asymptotic rates can deliver; they are kept at their stated
tolerances and fail honestly with the measured value printed:
  criterion 1  (sup error 1e-4 at 1024 cells; the boundary square-root
                singularity limits the scheme to first order, ~1.3e-3),
  criterion 3b (closed form within 1e-6 of pi at n = 1e5; the gamma-ratio
                deviation is 2*log(2)*pi/(n-1) ~ 4.4e-5),
  criterion 6b (local mass below 1e-3 at n = 400; the interior density is
                ~1/((n+1) v) which decays only like 1/n, ~0.09).
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from singell import (CoefficientField, GridFunction, assemble, beta_integral,
                     beta_integral_inverse, beta_total_closed_form,
                     extract_atoms, first_zero, gamma_fn, limit_profiles,
                     lower_matching_bound, make_uniform_grid, matching_constant,
                     matching_slope_gap, quasilinear_residual, solve_linear,
                     solve_measure, solve_regularized, solve_singular,
                     to_quasilinear, upper_matching_bound)
from singell.analytic import OneDProfile
from singell.sweeps import describe_solution, measure_histogram
from conftest import (interval_spec, lazer_mckenna_spec, matched_spec,
                      record_newton_steps, square_spec)

SWEEP_N = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 400.0)
ORACLE_CELLS = {1: (256, 1024, 4096), 2: (32, 64, 128, 256)}
ORACLE_GAMMAS = (3.0, 20.0, 100.0)
# the u-scheme's sup error over interior nodes at gamma = 3, per grid of ORACLE_CELLS
ORACLE_ERRORS_GAMMA_3 = {1: (1.630e-2, 8.155e-3, 4.077e-3),
                         2: (4.469e-2, 3.230e-2, 2.300e-2, 1.630e-2)}


def record(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def matched_solutions():
    """Indicator datum on (-1,1) in (-2,2), 1024 cells, one solve per n."""
    out = {}
    for n in SWEEP_N:
        out[n] = solve_singular(matched_spec(n, 1024))
    return out


@pytest.fixture(scope="module")
def uniform_solutions():
    """Constant datum 1 on (-1,1), 1024 cells, one solve per n."""
    out = {}
    for n in (10.0, 40.0, 160.0, 400.0):
        out[n] = solve_singular(interval_spec(n, 1024))
    return out


def test_criterion_1_closed_form_oracle():
    started = time.perf_counter()
    spec = interval_spec(3.0, 1024)
    sol = solve_singular(spec, [4 ** k for k in range(13)])
    elapsed = time.perf_counter() - started
    t = spec.grid.axes()[0]
    exact = np.sqrt(np.maximum(1.0 - t ** 2, 0.0))
    gap = np.abs(sol.u.values - exact)
    err = float(np.max(gap[np.abs(t) <= 0.9]))
    ok = err <= 1e-4 and elapsed <= 10.0
    record(1, ok, f"sup error on |t|<=0.9 = {err:.3e} (target 1e-4; over all "
                  f"nodes {float(np.max(gap)):.3e}), runtime {elapsed:.2f}s (target 10s)")


@pytest.fixture(scope="module")
def oracle_solves():
    """(dim, gamma, cells) -> (sup error over interior nodes, Newton steps)
    of the default solve of the Lazer-McKenna oracle, the steps of every
    Newton solve it runs counted."""
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        steps = record_newton_steps(patch)
        for dim, cells_list in ORACLE_CELLS.items():
            for gamma in ORACLE_GAMMAS:
                for cells in cells_list:
                    spec, exact = lazer_mckenna_spec(dim, cells, gamma)
                    steps.clear()
                    sol = solve_singular(spec)
                    inner = (slice(1, -1),) * dim
                    error = float(np.max(np.abs(sol.u.values - exact)[inner]))
                    out[dim, gamma, cells] = error, sum(steps)
    return out


def test_oracle_u_scheme_errors(oracle_solves):
    # the u-scheme's stencil sees the d^(2/(gamma+1)) cusp at the boundary;
    # these pins are its errors today, with a 10% margin
    for dim, cells_list in ORACLE_CELLS.items():
        for gamma in ORACLE_GAMMAS:
            row = ", ".join(f"{cells}{'^2' if dim == 2 else ''} "
                            f"{oracle_solves[dim, gamma, cells][0]:.3e}"
                            for cells in cells_list)
            print(f"[oracle] {dim}-D gamma = {gamma:g}: sup error on interior nodes {row}")
    for dim, cells_list in ORACLE_CELLS.items():
        for cells, pinned in zip(cells_list, ORACLE_ERRORS_GAMMA_3[dim]):
            assert oracle_solves[dim, 3.0, cells][0] <= 1.1 * pinned


def test_oracle_1d_error_halves_per_refinement(oracle_solves):
    # order 1/2 in h at gamma = 3: each 4x refinement halves the error
    errors = [oracle_solves[1, 3.0, cells][0] for cells in ORACLE_CELLS[1]]
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.9 <= coarse / fine <= 2.1


def test_oracle_newton_steps_within_budget(oracle_solves):
    # one Newton solve from the v-start of the gamma = 0 solve, at every
    # exponent and grid
    steps = {key: it for key, (_, it) in oracle_solves.items()}
    print(f"[oracle] Newton steps: {min(steps.values())}-{max(steps.values())}")
    assert max(steps.values()) <= 10


def test_criterion_2_amplitude_match():
    started = time.perf_counter()
    alpha3 = OneDProfile.for_interval(1.0, 3).amplitude
    details = [f"alpha_3 = {alpha3:.2e}-close to 1" if abs(alpha3 - 1) <= 1e-12
               else f"alpha_3 off: {alpha3}"]
    ok = abs(alpha3 - 1.0) <= 1e-12
    for n in (3, 5, 9):
        spec = interval_spec(float(n), 2048)
        sol = solve_singular(spec)
        t = spec.grid.axes()[0]
        center = int(np.argmin(np.abs(t)))
        gap = abs(sol.u.values[center] - OneDProfile.for_interval(1.0, n).amplitude)
        details.append(f"n={n}: |u(0)-alpha| = {gap:.2e}")
        ok = ok and gap <= 1e-3
    elapsed = time.perf_counter() - started
    ok = ok and elapsed <= 30.0
    record(2, ok, "; ".join(details) + f"; runtime {elapsed:.1f}s (target 30s)")


def test_criterion_3a_quadrature_gamma_identity():
    started = time.perf_counter()
    gaps = {}
    for n in (3, 5, 9, 33, 129):
        total, _ = quad(lambda h: 1.0, 0.0, 1.0, weight="alg",
                        wvar=(-0.5, -(n - 3.0) / (2.0 * (n - 1.0))))
        gaps[n] = abs(total - beta_total_closed_form(n))
    elapsed = time.perf_counter() - started
    worst = max(gaps.values())
    ok = worst <= 1e-9 and elapsed <= 1.0
    record("3a", ok, f"max |quadrature - gamma closed form| = {worst:.2e} "
                     f"(target 1e-9), runtime {elapsed:.2f}s (target 1s)")


def test_criterion_3b_limit_value_pi():
    value = beta_total_closed_form(10 ** 5)
    gap = abs(value - math.pi)
    ok = gap <= 1e-6
    record("3b", ok, f"|closed form at n=1e5 - pi| = {gap:.3e} (target 1e-6); "
                     f"deviation is 2 log(2) pi/(n-1) by expansion")


def test_criterion_4_matched_construction():
    started = time.perf_counter()
    c3 = matching_constant(3)
    details = [f"|c_3 - 1| = {abs(c3 - 1.0):.2e}"]
    ok = abs(c3 - 1.0) <= 1e-8
    cs = {}
    for n in (3, 5, 9, 33, 400):
        cs[n] = matching_constant(n)
        inside = lower_matching_bound(n) < cs[n] <= upper_matching_bound(n)
        ok = ok and inside
        if not inside:
            details.append(f"n={n}: c outside bracket")
    c400_gap = abs(cs[400] - 2.0 / math.pi ** 2)
    t400_gap = abs(first_zero(cs[400], 400) - 1.0)
    details.append(f"|c_400 - 2/pi^2| = {c400_gap:.4f} (target 0.01)")
    details.append(f"|T_400 - 1| = {t400_gap:.4f} (target 0.02)")
    ok = ok and c400_gap <= 0.01 and t400_gap <= 0.02
    elapsed = time.perf_counter() - started
    ok = ok and elapsed <= 60.0
    record(4, ok, "; ".join(details) + f"; runtime {elapsed:.1f}s (target 60s)")


def test_criterion_5_limit_profile():
    lim = limit_profiles(geometry="matched")
    ts = np.linspace(-2.0, 2.0, 401)
    v_lim = lim.v(ts)
    errors = []
    for n in (50, 100, 200, 400):
        prof = OneDProfile.for_matched(n)
        errors.append(float(np.max(np.abs(prof.v(ts) - v_lim))))
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    ok = errors[-1] <= 0.05 and monotone
    record(5, ok, f"sup errors over n=(50,100,200,400): "
                  f"{', '.join(f'{e:.4f}' for e in errors)} "
                  f"(target <= 0.05 at 400, monotone decrease)")


def test_criterion_6a_compact_mass_bounded(matched_solutions):
    masses = {n: describe_solution(matched_solutions[n]).total_mass
              for n in SWEEP_N}
    bound = 2.0 * masses[10.0]
    worst = max(masses.values())
    ok = worst <= bound
    record("6a", ok, f"total masses in [{min(masses.values()):.4f}, "
                     f"{worst:.4f}], bound 2 x mass(10) = {bound:.4f}")


def test_criterion_6b_local_mass_vanishing(matched_solutions):
    locals_ = {n: describe_solution(matched_solutions[n], [(-0.9, 0.9)])
               .local_masses[0] for n in SWEEP_N}
    decreasing = all(locals_[b] < locals_[a]
                     for a, b in zip(SWEEP_N, SWEEP_N[1:]))
    final = locals_[400.0]
    ok = decreasing and final <= 1e-3
    record("6b", ok, f"local mass over (-0.9,0.9): decreasing={decreasing}, "
                     f"at n=400 = {final:.4f} (target 1e-3); the interior "
                     f"density decays like 1/n")


def test_criterion_6c_positive_datum_mass_growth():
    masses = {}
    for n in (10.0, 40.0, 160.0):
        spec = interval_spec(n, 4096)
        sol = solve_singular(spec)
        masses[n] = describe_solution(sol).total_mass
    ratio = masses[160.0] / masses[10.0]
    increasing = masses[10.0] < masses[40.0] < masses[160.0]
    ok = ratio >= 3.0 and increasing
    record("6c", ok, f"positive-datum masses strictly increasing={increasing}, "
                     f"mass(160)/mass(10) = {ratio:.2f} (target >= 3)")


def test_criterion_7_concentration_and_reconstruction(matched_solutions):
    sol = matched_solutions[400.0]
    spec = sol.spec
    hist = measure_histogram(sol.u, spec, 400.0, shell_distances=(0.1,))
    fraction = hist.shell_fractions[0.1]
    atoms = extract_atoms(hist)
    op = assemble(spec.grid, spec.coefficients)
    reconstructed = solve_measure(op, atoms)
    gap_u = float(np.max(np.abs(reconstructed.values - sol.u.values)))
    t = spec.grid.axes()[0]
    hat = limit_profiles(geometry="matched").u(t)
    gap_hat = float(np.max(np.abs(reconstructed.values - hat)))
    ok = fraction >= 0.95 and gap_u <= 0.02 and gap_hat <= 0.02
    record(7, ok, f"mass fraction within 0.1 of the support edge = "
                  f"{fraction:.4f} (target 0.95); |reconstruction - u_400| = "
                  f"{gap_u:.4f}, |reconstruction - hat| = {gap_hat:.4f} "
                  f"(targets 0.02)")


def test_criterion_8a_compacta_convergence_1d(matched_solutions,
                                              uniform_solutions):
    ok = True
    details = []
    for label, solutions in (("indicator", matched_solutions),
                             ("uniform", uniform_solutions)):
        ns = sorted(solutions)
        gaps = []
        for n in ns:
            u = solutions[n].u
            t = u.grid.axes()[0]
            mask = np.abs(t) <= 0.5
            gaps.append(float(np.max(np.abs(u.values[mask] - 1.0))))
        decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
        ok = ok and decreasing and gaps[-1] <= 0.05
        details.append(f"{label}: final max|u-1| on [-0.5,0.5] = {gaps[-1]:.4f}, "
                       f"decreasing={decreasing}")
    record("8a", ok, "; ".join(details) + " (target <= 0.05 at n=400)")


def test_criterion_8b_square_smoke():
    started = time.perf_counter()
    sols = {n: solve_singular(square_spec(n, 64)) for n in (5.0, 20.0)}
    u20 = sols[20.0].u
    x, y = u20.grid.meshes()
    mask = (np.abs(x - 0.5) <= 0.25) & (np.abs(y - 0.5) <= 0.25)
    gap = float(np.max(np.abs(u20.values[mask] - 1.0)))
    elapsed = time.perf_counter() - started
    ok = gap <= 0.2 and elapsed <= 120.0
    record("8b", ok, f"2-D max|u_20 - 1| on the center quarter = {gap:.4f} "
                     f"(target 0.2), runtime {elapsed:.1f}s (target 120s)")


def test_criterion_9_quasilinear_consistency():
    # mask floor 1e-3: the default floor keeps boundary-layer nodes where the
    # discrete power map has O(1) relative error, which no refinement removes
    floor = 1e-3
    ok = True
    details = []
    for n in (3.0, 9.0):
        sups = {}
        for cells in (512, 1024):
            spec = interval_spec(n, cells)
            sol = solve_singular(spec)
            v = to_quasilinear(sol.u, n)
            res = quasilinear_residual(v, n, spec.datum_values(),
                                       coefficients=spec.coefficients, floor=floor)
            sups[cells] = res.masked_sup
        ratio = sups[512] / sups[1024]
        ok = ok and sups[1024] <= 5e-3 and ratio >= 3.0
        details.append(f"n={n:g}: residual at 1024 = {sups[1024]:.2e} "
                       f"(target 5e-3), halving ratio = {ratio:.2f} (target 3)")
    record(9, ok, "; ".join(details))


def test_criterion_10_property_suites(rng):
    checks = {}

    grid = make_uniform_grid(-1.0, 1.0, 64)
    ent = (1.0 + rng.random(grid.shape))[:, None]
    op = assemble(grid, CoefficientField(grid, ent))
    coo = op.matrix.tocoo()
    checks["m-matrix"] = bool(np.all(coo.data[coo.row != coo.col] <= 0.0))

    op_i = assemble(grid, CoefficientField.identity(grid))
    r1 = rng.random(grid.shape)
    r2 = r1 + rng.random(grid.shape)
    u1 = solve_linear(op_i, GridFunction(grid, r1))
    u2 = solve_linear(op_i, GridFunction(grid, r2))
    checks["comparison"] = bool(np.all(u1.values <= u2.values + 1e-10))

    spec = interval_spec(2.0, 128)
    prev = None
    monotone = True
    for m in (1, 4, 16, 64):
        it = solve_regularized(spec, m)
        if prev is not None:
            monotone = monotone and bool(np.all(it.u.values >= prev - 1e-10))
        prev = it.u.values
    checks["m-monotonicity"] = monotone

    xs = 0.5 + 9.0 * rng.random(50)
    checks["gamma-recurrence"] = bool(all(
        abs(gamma_fn(x + 1.0) - x * gamma_fn(x)) <= 1e-11 * gamma_fn(x + 1.0)
        for x in xs))

    total = beta_integral(1.0, 9)
    checks["beta-roundtrip"] = bool(all(
        abs(beta_integral(beta_integral_inverse(y, 9), 9) - y) <= 1e-9
        for y in total * rng.random(8)))

    cs = np.linspace(lower_matching_bound(9) * 1.001, upper_matching_bound(9), 6)
    gaps = [matching_slope_gap(9, c) for c in cs]
    checks["matching-monotone"] = bool(all(b > a for a, b in zip(gaps, gaps[1:])))

    failed = [k for k, v in checks.items() if not v]
    record(10, not failed,
           f"{len(checks)} property suites, failing: {failed or 'none'}")
