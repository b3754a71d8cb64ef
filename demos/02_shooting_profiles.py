#!/usr/bin/env python3
"""The exact 1-D side: singular quadrature, matching constants, limit profiles.

The shooting solution w with w(0) = 1, w'(0) = 0, -w'' = 1/(c(n-1) w^n) is
recovered by inverting B_n(1 - w^{n-1}) = sqrt(2/c) t, where B_n is the
incomplete beta function B(x; 1/2, 1/2 + 1/(n-1)), an integral with endpoint
singularities.  Its total B_n(1) has a Gamma-function closed form; QUADPACK's
algebraic-weight rule integrates the singular integrand directly, which gives
a dual route.

Two parametrizations matter:
  * interval: pick c so the first zero lands at the interval radius R
    (uniform datum on (-R, R));
  * matched: pick c so the inner profile glues C^1 to the straight line
    w(1)(2 - t) hitting zero at t = 2 (indicator datum on (-1, 1) in (-2, 2)).
As n grows, c_n drops to 2/pi^2, the first zero drops to 1, and the rescaled
power v_n = c(n-1)/(n+1) y^{n+1} approaches (2/pi^2) cos^2(pi t / 2) cut off
at |t| = 1.
"""

import math

import numpy as np
from scipy.integrate import quad

from singell import (OneDProfile, beta_total_closed_form, first_zero,
                     limit_profiles, lower_matching_bound, matching_constant,
                     upper_matching_bound)


def main():
    print("dual route to B_n(1): QUADPACK algebraic-weight quadrature vs "
          "Gamma closed form")
    for n in (3, 5, 9, 33, 129):
        total, _ = quad(lambda h: 1.0, 0.0, 1.0, weight="alg",
                        wvar=(-0.5, -(n - 3.0) / (2.0 * (n - 1.0))))
        closed = beta_total_closed_form(n)
        print(f"  n={n:>3}: quadrature {total:.12f}   closed {closed:.12f}   "
              f"diff {abs(total - closed):.1e}")
    print(f"  limiting value (both exponents 1/2): pi = {math.pi:.12f}")

    print("\nmatched parametrization: c_n, brackets, first zero")
    print(f"{'n':>4}  {'c_lower':>9}  {'c_n':>9}  {'c_upper':>9}  {'T_n':>8}")
    for n in (3, 5, 9, 33, 100, 400):
        c = matching_constant(n)
        print(f"{n:>4}  {lower_matching_bound(n):>9.5f}  {c:>9.5f}  "
              f"{upper_matching_bound(n):>9.5f}  {first_zero(c, n):>8.5f}")
    print(f"limit values: c -> 2/pi^2 = {2 / math.pi ** 2:.5f}, T -> 1")

    print("\nconvergence of the rescaled power profile to the cosine limit")
    lim = limit_profiles(geometry="matched")
    ts = np.linspace(-2.0, 2.0, 801)
    v_lim = lim.v(ts)
    for n in (50, 100, 200, 400):
        prof = OneDProfile.for_matched(n)
        err = float(np.max(np.abs(prof.v(ts) - v_lim)))
        print(f"  n={n:>3}: sup |v_n - (2/pi^2) cos^2(pi t/2) chi| = {err:.5f}")

    prof = OneDProfile.for_matched(400)
    for t in (0.0, 0.5, 1.0, 1.5, 2.0):
        print(f"  y_400({t:.1f}) = {float(prof.y(t)):.6f}   "
              f"u_400 = {float(prof.u(t)):.6f}   v_400 = {float(prof.v(t)):.6f}")


if __name__ == "__main__":
    main()
