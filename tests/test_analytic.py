import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta, betaincinv

import singell.analytic as analytic
from singell import (OneDProfile, beta_integral, beta_integral_inverse,
                     beta_total_closed_form, excess, first_zero, gamma_fn,
                     glued_profile, limit_profiles, lower_matching_bound,
                     matching_constant, matching_slope_gap, profile_amplitude,
                     profile_value, truncate, upper_matching_bound)
from singell.solver import solve_singular
from singell.sweeps import check_n_list
from conftest import interval_spec


class TestGammaFunction:
    def test_known_values(self):
        assert abs(gamma_fn(1.0) - 1.0) <= 1e-14
        assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) <= 1e-14
        assert abs(gamma_fn(3.5) - 2.5 * 1.5 * 0.5 * math.sqrt(math.pi)) <= 1e-12

    def test_recurrence(self, rng):
        for x in 0.5 + 9.5 * rng.random(200):
            assert abs(gamma_fn(x + 1.0) - x * gamma_fn(x)) <= 1e-11 * gamma_fn(x + 1.0)

    def test_against_math_gamma(self, rng):
        for x in 0.05 + 19.0 * rng.random(300):
            assert abs(gamma_fn(x) - math.gamma(x)) <= 1e-12 * abs(math.gamma(x))

    def test_domain(self):
        for x in (0.0, -1.0, -0.5):
            with pytest.raises(ValueError):
                gamma_fn(x)


class TestBetaIntegral:
    def test_n3_closed_form(self):
        for x in (0.0, 0.04, 0.25, 0.5, 0.81, 1.0):
            assert abs(beta_integral(x, 3) - 2.0 * math.sqrt(x)) <= 1e-11

    def test_total_matches_gamma_route(self):
        # QUADPACK with the endpoint singularities as algebraic weights
        for n in (5, 9, 33):
            total, _ = quad(lambda h: 1.0, 0.0, 1.0, weight="alg",
                            wvar=(-0.5, -(n - 3.0) / (2.0 * (n - 1.0))))
            assert abs(beta_integral(1.0, n) - total) <= 1e-9
            assert abs(total - beta_total_closed_form(n)) <= 1e-9

    def test_limit_integrand_is_pi(self):
        # both exponents tend to 1/2, so B_n(1) -> pi with deviation
        # 2 log(2) pi / (n - 1) to leading order
        for n in (1e3, 1e4, 1e5):
            deviation = math.pi - beta_integral(1.0, n)
            expected = 2.0 * math.log(2.0) * math.pi / (n - 1.0)
            assert abs(deviation / expected - 1.0) <= 5e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_integral(-0.1, 5)
        with pytest.raises(ValueError):
            beta_integral(1.1, 5)
        with pytest.raises(ValueError):
            beta_integral(0.5, 2.5)

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 1.0, 21)
        for n in (3, 7, 50):
            vals = [beta_integral(x, n) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestBetaInverse:
    def test_zero(self):
        assert beta_integral_inverse(0.0, 7) == 0.0

    def test_n3_closed_form(self):
        assert abs(beta_integral_inverse(1.0, 3) - 0.25) <= 1e-11
        for y in (0.2, 0.9, 1.7):
            assert abs(beta_integral_inverse(y, 3) - y * y / 4.0) <= 1e-11

    def test_round_trip(self, rng):
        assert abs(beta_integral_inverse(beta_integral(0.7, 7), 7) - 0.7) <= 1e-9
        for n in (3, 5, 9, 33, 129):
            total = beta_integral(1.0, n)
            for y in total * rng.random(12):
                x = beta_integral_inverse(y, n)
                assert abs(beta_integral(x, n) - y) <= 1e-9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            beta_integral_inverse(-0.1, 5)
        with pytest.raises(ValueError):
            beta_integral_inverse(beta_integral(1.0, 5) + 1e-3, 5)

    @pytest.mark.parametrize("shape", [(), (13,), (4, 6)])
    @pytest.mark.parametrize("complement", [False, True])
    def test_deduplicated_inverse_matches_elementwise(self, rng, shape,
                                                      complement):
        # repeated values, both clipped ends and the endpoint band
        for n in (3, 9, 400):
            a, b = 0.5, 0.5 + 1.0 / (n - 1.0)
            total = beta(a, b)
            pool = np.array([-1e-13, 0.0, 0.3 * total, 0.3 * total,
                             total * (1.0 - 1e-13), total, total + 1e-10])
            y = rng.choice(np.concatenate([pool, total * rng.random(3)]),
                           size=shape)
            want = np.empty(shape)
            for idx in np.ndindex(shape):
                yc = min(max(float(y[idx]), 0.0), float(total))
                if yc >= total - 1e-12 * (1.0 + total):
                    want[idx] = 0.0 if complement else 1.0
                elif complement:
                    want[idx] = betaincinv(b, a, (total - yc) / total)
                else:
                    want[idx] = betaincinv(a, b, yc / total)
            got = analytic._invert(y, n, complement=complement)
            assert np.shape(got) == shape
            assert np.array_equal(got, want)

    def test_flat_unique_inverse_keeps_the_shape(self, monkeypatch):
        # numpy 1.x returns the inverse indices of np.unique flat
        real = np.unique

        def flat_inverse(*args, **kwargs):
            values, index = real(*args, **kwargs)
            return values, index.ravel()
        y = np.linspace(0.0, 1.0, 24).reshape(4, 6)
        want = analytic._invert(y, 9)
        monkeypatch.setattr(np, "unique", flat_inverse)
        assert np.array_equal(analytic._invert(y, 9), want) and want.shape == (4, 6)


class TestParametrization:
    def test_amplitude_n3_is_one(self):
        assert abs(profile_amplitude(1.0, 3) - 1.0) <= 1e-12

    def test_first_zero_n3(self):
        assert abs(first_zero(2.0, 3) - 2.0) <= 1e-12

    def test_consistency_of_parametrizations(self):
        for radius in (0.5, 1.0, 2.0):
            for n in (3, 5, 9, 33, 129):
                alpha = profile_amplitude(radius, n)
                c = math.exp((n + 1.0) * math.log(alpha)) / (n - 1.0)
                assert abs(first_zero(c, n) - radius) <= 1e-10

    def test_amplitude_limit(self):
        n = 400
        value = profile_amplitude(1.0, n) ** (n + 1.0) / (n + 1.0)
        assert abs(value - 2.0 / math.pi ** 2) <= 1e-3


class TestProfile:
    def test_initial_value(self):
        for n, c in ((3, 1.0), (9, 0.5), (400, 0.21)):
            assert abs(profile_value(0.0, n, c) - 1.0) <= 1e-12

    def test_n3_closed_form(self):
        for t in (0.3, 0.7, 1.0, 1.3):
            exact = math.sqrt(1.0 - t * t / 2.0)
            assert abs(profile_value(t, 3, 1.0) - exact) <= 1e-10

    def test_zero_at_first_zero(self):
        for n, c in ((3, 1.0), (9, 0.39), (33, 0.25)):
            T = first_zero(c, n)
            assert profile_value(T, n, c) <= 1e-8

    def test_domain(self):
        T = first_zero(1.0, 3)
        with pytest.raises(ValueError):
            profile_value(T + 0.1, 3, 1.0)
        with pytest.raises(ValueError):
            profile_value(-0.1, 3, 1.0)

    def test_ode_identity(self):
        # centered second difference of w against -1/(c(n-1)w^n), step 1e-4
        step = 1e-4
        for n, c in ((3, 1.0), (9, 0.39)):
            T = first_zero(c, n)
            for t in np.linspace(0.1 * T, 0.85 * T, 7):
                wm = profile_value(t - step, n, c)
                w0 = profile_value(t, n, c)
                wp = profile_value(t + step, n, c)
                second = (wm - 2.0 * w0 + wp) / step ** 2
                target = -1.0 / (c * (n - 1.0) * w0 ** n)
                assert abs(second - target) <= 1e-4 * abs(target)

    def test_monotone_in_strength(self):
        for t in (0.4, 0.9):
            vals = [profile_value(t, 9, c) for c in (0.31, 0.4, 0.6, 1.0)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_decreasing_and_concave(self):
        prof = OneDProfile.for_matched(9)
        ts = np.linspace(0.0, prof.t_zero * 0.999, 40)
        w = prof.w(ts)
        assert np.all(np.diff(w) < 0.0)
        assert np.all(np.diff(w, 2) < 1e-12)


class TestMatchingConstant:
    def test_n3_is_one(self):
        assert abs(matching_constant(3) - 1.0) <= 1e-8

    def test_bracket_membership(self):
        for n in (5, 9, 33):
            c = matching_constant(n)
            assert lower_matching_bound(n) < c <= upper_matching_bound(n)

    def test_gap_negative_at_lower_end(self):
        for n in (5, 9, 33):
            c_lo = lower_matching_bound(n) * (1.0 + 1e-6)
            assert matching_slope_gap(n, c_lo) < 0.0

    def test_gap_monotone_increasing(self):
        for n in (5, 33):
            cs = np.linspace(lower_matching_bound(n) * 1.001,
                             upper_matching_bound(n), 8)
            gaps = [matching_slope_gap(n, c) for c in cs]
            assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_limit_value(self):
        assert abs(matching_constant(400) - 2.0 / math.pi ** 2) <= 0.01

    def test_float_path_matches_array_path(self):
        # the reference: F evaluated through the array inversion
        def gap_by_arrays(n, c):
            y = np.asarray(math.sqrt(2.0 / c))
            x1 = float(analytic._invert(y, n))
            xi1 = float(analytic._invert(y, n, complement=True))
            return xi1 ** ((n + 1.0) / (n - 1.0)) - 2.0 / (c * (n - 1.0) ** 2) * x1

        for n in (3, 4.5, 9, 33, 100, 400):
            lo, hi = lower_matching_bound(n), upper_matching_bound(n)
            for c in np.linspace(lo * (1.0 + 1e-6), hi, 40):
                assert matching_slope_gap(n, c) == gap_by_arrays(n, c)

    def test_gap_below_the_bracket_is_a_domain_error(self):
        with pytest.raises(ValueError):
            matching_slope_gap(9, 0.5 * lower_matching_bound(9))

    @pytest.mark.parametrize("n", [3, 5, 9, 33, 400])
    def test_few_evaluations_and_small_gap(self, monkeypatch, n):
        calls = []
        gap = analytic.matching_slope_gap

        def counted(n_, c):
            calls.append(c)
            return gap(n_, c)

        monkeypatch.setattr(analytic, "matching_slope_gap", counted)
        c = matching_constant(n)
        assert len(calls) <= 16
        assert abs(gap(n, c)) <= analytic.ROOT_TOL

    def test_accurate_against_a_tighter_root(self, monkeypatch):
        # |F| <= ROOT_TOL leaves c within 1e-10 relative of the root solved
        # to |F| <= 1e-13, evenly over the exponent range
        ns = np.linspace(3.0, 400.0, 100)
        constants = [matching_constant(n) for n in ns]
        monkeypatch.setattr(analytic, "ROOT_TOL", 1e-13)
        for n, c in zip(ns, constants):
            reference = matching_constant(n)
            assert abs(c - reference) <= 1e-10 * reference, n

    def test_failed_final_check_raises(self, monkeypatch):
        # the result is accepted only through |F(c)| <= ROOT_TOL
        monkeypatch.setattr(analytic, "matching_slope_gap", lambda n, c: 1.0)
        with pytest.raises(analytic.ConstructionError, match="fails its check"):
            matching_constant(9)

    @pytest.mark.parametrize("n", [1e4, 1e6, 1e8])
    def test_large_exponents(self, n):
        # c / c_lower - 1 is about 4/n: 4e-8 at n = 1e8
        c = matching_constant(n)
        assert lower_matching_bound(n) < c <= upper_matching_bound(n)
        assert abs(matching_slope_gap(n, c)) <= analytic.ROOT_TOL

    def test_work_counter(self, monkeypatch):
        # one betainc per Newton step, betaincinv only in the final check
        counts = {"betainc": 0, "betaincinv": 0, "gap": 0}
        in_gap = []
        real_betainc, real_betaincinv = analytic.betainc, analytic.betaincinv
        real_gap = analytic.matching_slope_gap

        def betainc(*args):
            counts["betainc"] += 1
            return real_betainc(*args)

        def betaincinv(*args):
            assert in_gap, "betaincinv outside the final check"
            counts["betaincinv"] += 1
            return real_betaincinv(*args)

        def gap(n, c):
            counts["gap"] += 1
            in_gap.append(True)
            try:
                return real_gap(n, c)
            finally:
                in_gap.pop()

        monkeypatch.setattr(analytic, "betainc", betainc)
        monkeypatch.setattr(analytic, "betaincinv", betaincinv)
        monkeypatch.setattr(analytic, "matching_slope_gap", gap)
        for n in np.concatenate([np.linspace(3.0, 400.0, 200),
                                 np.geomspace(3.0, 400.0, 50)]):
            counts.update(betainc=0, betaincinv=0, gap=0)
            matching_constant(n)
            assert counts["betainc"] <= 8, (n, counts)
            assert counts["gap"] == 1 and counts["betaincinv"] <= 2, (n, counts)

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(analytic, "MAX_ROOT_STEPS", 2)
        with pytest.raises(analytic.ConstructionError, match="did not converge"):
            matching_constant(9)

    @pytest.mark.parametrize("n", [1e155, 1e300])
    def test_overflowing_exponent_raises_construction_error(self, n):
        # (n - 1)^2 overflows a float from about n = 1.3e154 on
        with pytest.raises(analytic.ConstructionError, match="overflows"):
            matching_constant(n)
        with pytest.raises(analytic.ConstructionError, match="overflows"):
            analytic.matching_slope_gap(n, 2.0)


class TestGluedProfile:
    def test_boundary_zero(self):
        for n in (3, 9):
            c = matching_constant(n)
            assert glued_profile(2.0, n, c) == 0.0

    def test_n3_value(self):
        assert abs(glued_profile(1.5, 3, 1.0) - math.sqrt(0.5) * 0.5) <= 1e-10

    def test_c1_matching_at_interface(self):
        # the construction forces w'(1) = -w(1); the slope comes from the
        # first-integral formula of the shooting reduction
        for n in (3, 9, 33):
            c = matching_constant(n)
            w1 = profile_value(1.0, n, c)
            slope = -math.sqrt(2.0 / (c * (n - 1.0) ** 2)) * math.sqrt(
                w1 ** (1.0 - n) - 1.0)
            assert abs(slope + w1) <= 1e-7

    def test_domain(self):
        with pytest.raises(ValueError):
            glued_profile(2.1, 3, 1.0)


class TestProfilePowers:
    """w^{n+1} and y^{n+1} check their domain like the profiles do."""

    @pytest.mark.parametrize("t", [-0.1, 2.5])
    def test_profile_power_domain(self, t):
        with pytest.raises(ValueError):
            analytic.profile_power(t, 3, 1.0)
        with pytest.raises(ValueError):
            analytic.profile_power(np.array([0.0, t]), 3, 1.0)

    @pytest.mark.parametrize("t", [-0.1, 2.1])
    def test_glued_profile_power_domain(self, t):
        with pytest.raises(ValueError):
            analytic.glued_profile_power(t, 3, 1.0)
        with pytest.raises(ValueError):
            analytic.glued_profile_power(np.array([1.0, t]), 3, 1.0)

    def test_values_inside_the_domain(self):
        for n in (3, 9, 400):
            c = matching_constant(n)
            T = first_zero(c, n)
            ts = np.linspace(0.0, T, 9)
            want = np.exp((n + 1.0) * analytic._log_profile(ts, n, c))
            assert np.array_equal(analytic.profile_power(ts, n, c), want)
            tg = np.linspace(0.0, 2.0, 9)
            want = np.exp(np.minimum((n + 1.0) * analytic._log_glued(tg, n, c),
                                     700.0))
            assert np.array_equal(analytic.glued_profile_power(tg, n, c), want)
        # n = 3, c = 1: w^4 = (1 - t^2/2)^2, zero at the first zero sqrt(2)
        assert abs(analytic.profile_power(1.0, 3, 1.0) - 0.25) <= 1e-12
        assert analytic.profile_power(math.sqrt(2.0), 3, 1.0) == 0.0
        assert analytic.glued_profile_power(2.0, 3, 1.0) == 0.0


def _domain_by_mask(t, t_max):
    """The domain check and clip of profile evaluation, by mask and np.clip."""
    t = np.asarray(t, dtype=float)
    if np.any((t < -1e-12) | (t > t_max * (1.0 + 1e-12))):
        raise ValueError(f"t outside the profile domain [0, {t_max}]")
    return np.clip(t, 0.0, t_max)


def _invert_by_clip(y, n, complement=False):
    """`analytic._invert` with its clip to [0, B_n(1)] by np.clip."""
    a, b = 0.5, 0.5 + 1.0 / (n - 1.0)
    total = beta(a, b)
    values, index = np.unique(np.clip(y, 0.0, total), return_inverse=True)
    index = index.reshape(np.shape(y))
    end = values >= total - 1e-12 * (1.0 + total)
    if complement:
        return np.where(end, 0.0, betaincinv(b, a, (total - values) / total))[index]
    return np.where(end, 1.0, betaincinv(a, b, values / total))[index]


class TestEvaluationBitIdentity:
    """Profile evaluations at fixed (n, c) equal, bit for bit, those through
    the masked domain check and np.clip kept above as the reference."""

    # (n, c): matched constants at n = 3, 9 and 400, and one c in between
    CASES = [(3.0, 1.0), (9.0, 0.3899796443628447), (57.5, 0.23),
             (400.0, 0.2060916556642008)]

    @staticmethod
    def evaluations(n, c):
        T = first_zero(c, n)
        inside = np.linspace(-T, T, 1025)
        glued = np.linspace(-2.0, 2.0, 1025)
        band = [0.0, 1e-13 * T, T * (1.0 - 1e-13), T, T * (1.0 + 1e-13)]
        gband = [0.0, 1.0, 2.0 * (1.0 - 1e-13), 2.0, 2.0 * (1.0 + 1e-13)]
        interval = OneDProfile(n=n, c=c, t_zero=T, kind="interval", radius=T)
        matched = OneDProfile(n=n, c=c, t_zero=T, kind="matched")
        out = []
        for t in (inside, inside[::-1].reshape(25, 41), np.array(band),
                  np.array(band[2:]), 0.5 * T, T * (1.0 + 1e-13), -1e-13):
            out += [interval.w(t), interval.u(t), interval.v(t),
                    analytic.profile_power(np.abs(t), n, c),
                    analytic.profile_value(np.abs(t), n, c)]
        for t in (glued, glued.reshape(41, 25), np.array(gband), 1.5, 2.0,
                  -2.0 * (1.0 + 1e-13)):
            out += [matched.y(t), matched.u(t), matched.v(t),
                    analytic.glued_profile(np.abs(t), n, c),
                    analytic.glued_profile_power(np.abs(t), n, c)]
        return out

    @pytest.mark.parametrize("n, c", CASES)
    def test_bit_identical_to_the_masked_clip(self, monkeypatch, n, c):
        with monkeypatch.context() as patch:
            patch.setattr(analytic, "_domain", _domain_by_mask)
            patch.setattr(analytic, "_invert", _invert_by_clip)
            want = self.evaluations(n, c)
        got = self.evaluations(n, c)
        for g, w in zip(got, want, strict=True):
            assert type(g) is type(w)
            assert np.array_equal(g, w)
            assert np.shape(g) == np.shape(w)

    def test_out_of_domain_still_raises(self):
        n, c = self.CASES[1]
        T = first_zero(c, n)
        for evaluate, t_max in ((analytic.profile_value, T), (analytic.profile_power, T),
                                (analytic.glued_profile, 2.0),
                                (analytic.glued_profile_power, 2.0)):
            for t in (-1e-11, -0.1, t_max * (1.0 + 1e-11), 1.5 * t_max):
                for bad in (t, np.array([0.5 * t_max, t]), np.full((2, 3), t)):
                    with pytest.raises(ValueError):
                        evaluate(bad, n, c)

    def test_empty_and_nan_arrays(self):
        n, c = self.CASES[1]
        assert analytic.profile_value(np.array([]), n, c).shape == (0,)
        assert np.isnan(analytic.glued_profile(np.array([np.nan, 1.0]), n, c)[0])


class TestLimitProfiles:
    def test_interval_center(self):
        lim = limit_profiles(1.0, "interval")
        assert abs(lim.v(0.0) - 2.0 / math.pi ** 2) <= 1e-15

    def test_matched_values(self):
        lim = limit_profiles(geometry="matched")
        assert lim.v(1.5) == 0.0
        assert lim.u(1.5) == 0.5

    def test_g_endpoints(self):
        for radius in (0.5, 1.0, 3.0):
            lim = limit_profiles(radius, "interval")
            assert abs(lim.g(0.0) - 1.0) <= 1e-15
            assert abs(lim.g(radius)) <= 1e-15
            assert abs(lim.g(-radius)) <= 1e-15


class TestCrossValidation:
    def test_profile_matches_discrete_solution(self):
        # analytic w against the discrete solve, scaled by the amplitude
        for n in (3, 5, 9):
            spec = interval_spec(float(n), 2048)
            sol = solve_singular(spec)
            prof = OneDProfile.for_interval(1.0, n)
            t = spec.grid.axes()[0]
            mask = np.abs(t) <= 0.9
            analytic_u = prof.amplitude * prof.w(t[mask])
            err = np.max(np.abs(sol.u.values[mask] - analytic_u))
            assert err <= 2e-3


# every entry point that takes an exponent n, as a function of n
EXPONENT_ENTRY_POINTS = {
    "beta_integral": lambda n: beta_integral(0.5, n),
    "beta_integral_inverse": lambda n: beta_integral_inverse(0.5, n),
    "beta_total_closed_form": beta_total_closed_form,
    "lower_matching_bound": lower_matching_bound,
    "upper_matching_bound": upper_matching_bound,
    "first_zero": lambda n: first_zero(1.0, n),
    "profile_amplitude": lambda n: profile_amplitude(1.0, n),
    "profile_value": lambda n: profile_value(0.5, n, 1.0),
    "profile_power": lambda n: analytic.profile_power(0.5, n, 1.0),
    "matching_slope_gap": lambda n: matching_slope_gap(n, 2.0),
    "matching_constant": matching_constant,
    "glued_profile": lambda n: glued_profile(0.5, n, 1.0),
    "glued_profile_power": lambda n: analytic.glued_profile_power(0.5, n, 1.0),
    "for_interval": lambda n: OneDProfile.for_interval(1.0, n),
    "for_matched": OneDProfile.for_matched,
    "check_n_list": lambda n: check_n_list([3.0, n]),
}


@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 2.5])
@pytest.mark.parametrize("entry", list(EXPONENT_ENTRY_POINTS))
def test_exponent_rule_refuses_nan_inf_and_below_3(entry, n):
    # one rule, `analytic.check_n`, written so that a NaN fails it
    with pytest.raises(ValueError, match="exponent n must be finite and >= 3"):
        EXPONENT_ENTRY_POINTS[entry](n)


def test_check_n_list_checks_each_entry_before_the_order():
    with pytest.raises(ValueError, match="exponent n must be finite and >= 3"):
        check_n_list([5.0, 4.0, math.nan])
    with pytest.raises(ValueError, match="strictly increasing"):
        check_n_list([5.0, 4.0])


@pytest.mark.parametrize("call, message", [
    (lambda: first_zero(math.nan, 5), "profile strength c must be positive"),
    (lambda: limit_profiles(radius=math.nan), "radius must be positive"),
    (lambda: OneDProfile.for_interval(math.nan, 5), "radius must be positive"),
    (lambda: truncate(1.0, math.nan), "truncation level must be positive"),
    (lambda: excess(1.0, math.nan), "truncation level must be positive")],
    ids=["first_zero", "limit_profiles", "for_interval", "truncate", "excess"])
def test_range_checks_refuse_nan(call, message):
    # each check is written `not x > 0`, so a NaN fails it
    with pytest.raises(ValueError, match=message):
        call()
