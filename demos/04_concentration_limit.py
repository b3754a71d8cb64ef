#!/usr/bin/env python3
"""Where the right-hand side mass goes, and the measure-data limit equation.

For the indicator datum on (-1, 1) inside (-2, 2), the density f/u_n^n
concentrates at the support edge as n grows.  At n = 400 the histogram is
projected onto the boundary of the support: each node's mass goes to its
nearer end, and each end's mass to the grid node at its mass-weighted mean
depth, two point masses just inside +-1.  Solving the linear problem with
those atoms as data, on the operator the solve used, reconstructs a hat
profile that matches both the computed u_400 and the piecewise-linear
pointwise limit (1 inside, 2 - |t| outside).
"""

import numpy as np

from singell import (CoefficientField, IndicatorDatum, ProblemSpec, extract_atoms,
                     limit_profiles, make_uniform_grid, measure_histogram,
                     solve_measure, solve_singular)


def main():
    grid = make_uniform_grid(-2.0, 2.0, 1024)
    spec = ProblemSpec(grid, CoefficientField.identity(grid),
                       IndicatorDatum(1.0, -1.0, 1.0), gamma=400.0)
    sol = solve_singular(spec)
    (step,) = sol.trace
    print(f"solved at n = 400, m = {step.m} in {step.iterations} Newton steps; "
          f"sup u = {sol.u.sup_norm():.6f}")

    hist = measure_histogram(sol.u, spec, 400.0,
                             shell_distances=(0.05, 0.1, 0.2))
    print(f"total mass = {hist.total:.5f}")
    for d, frac in sorted(hist.shell_fractions.items()):
        print(f"  fraction within {d:4.2f} of the support edge: {frac:.4f}")

    atoms = extract_atoms(hist)
    print("mass projected onto the support edge (location, mass):")
    for loc, mass in atoms.atoms:
        print(f"  ({loc[0]:+.4f}, {mass:.4f})")

    reconstructed = solve_measure(spec.coefficients.operator, atoms)
    t = grid.axes()[0]
    hat = limit_profiles(geometry="matched").u(t)
    print(f"sup |reconstruction - u_400| = "
          f"{np.max(np.abs(reconstructed.values - sol.u.values)):.4f}")
    print(f"sup |reconstruction - hat profile| = "
          f"{np.max(np.abs(reconstructed.values - hat)):.4f}")


if __name__ == "__main__":
    main()
