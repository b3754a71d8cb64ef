#!/usr/bin/env python3
"""The mass dichotomy as the exponent grows.

The integral of f/u_n^n behaves in two opposite ways depending on the datum:
  * indicator datum with support strictly inside the domain: the mass stays
    bounded (and heads to the size of the boundary jump of the limit),
    while the contribution of any region strictly inside the support decays
    like 1/n;
  * datum bounded below on every interior region: the mass blows up, so no
    measure-data limit equation can exist.
Both sweeps also track sup |u_n - 1| on the middle of the support, the
uniform-convergence diagnostic.
"""

from singell import (CoefficientField, ConstantDatum, IndicatorDatum,
                     ProblemSpec, make_uniform_grid, run_sweep)


def indicator_spec(cells):
    grid = make_uniform_grid(-2.0, 2.0, cells)
    return ProblemSpec(grid, CoefficientField.identity(grid),
                       IndicatorDatum(1.0, -1.0, 1.0), gamma=10.0)


def uniform_spec(cells):
    grid = make_uniform_grid(-1.0, 1.0, cells)
    return ProblemSpec(grid, CoefficientField.identity(grid),
                       ConstantDatum(1.0), gamma=10.0)


def show(report, label):
    print(f"\n{label}")
    print(f"{'n':>6} {'total mass':>12} {'mass(|t|<0.9)':>14} "
          f"{'min u [-.5,.5]':>15} {'certificate':>12}")
    for row in report.rows:
        print(f"{row.n:>6.0f} {row.total_mass:>12.5f} "
              f"{row.local_masses[1]:>14.5f} {row.compacta_min[0]:>15.5f} "
              f"{row.certificate:>12.5f}")


def main():
    ns = [10, 20, 40, 80, 160, 320, 400]
    compacta = [(-0.5, 0.5), (-0.9, 0.9)]

    compact = run_sweep(indicator_spec(1024), ns, compacta=compacta,
                        shell_distances=(0.1,))
    show(compact, "indicator datum on (-1,1) inside (-2,2): bounded mass")
    totals = [r.total_mass for r in compact.rows]
    print(f"mass trend: {totals[0]:.4f} -> {totals[-1]:.4f} "
          f"(boundary-jump prediction: 2)")
    print(f"fraction within 0.1 of the support edge at n=400: "
          f"{compact.histogram.shell_fractions[0.1]:.4f}")

    positive = run_sweep(uniform_spec(4096), ns[:5], compacta=compacta)
    show(positive, "uniform datum on (-1,1): unbounded mass")
    totals = [r.total_mass for r in positive.rows]
    print(f"growth factor mass(160)/mass(10) = {totals[4] / totals[0]:.2f}")


if __name__ == "__main__":
    main()
