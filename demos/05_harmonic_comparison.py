#!/usr/bin/env python3
"""Exploratory: is the limit harmonic outside the support?

For indicator data the computed u_n flattens to 1 on the support and decays
outside; the natural guess for the limit outside the support closure is the
function harmonic for the problem's own operator -div(M grad) (here M = I),
with value 1 on the support edge and 0 on the outer boundary.  This compares
the two at large n, in 1-D (where the harmonic profile is the exact linear
hat wing) and on a square with an inner box.  Numbers are reported, not
asserted: the 2-D statement is unproven.
"""

from singell import (CoefficientField, IndicatorDatum, ProblemSpec,
                     conjecture_experiment, make_uniform_grid)


def main():
    grid = make_uniform_grid(-2.0, 2.0, 1024)
    spec = ProblemSpec(grid, CoefficientField.identity(grid),
                       IndicatorDatum(1.0, -1.0, 1.0), gamma=400.0,
                       support="compact")
    report = conjecture_experiment(spec, 400.0)
    print("1-D, indicator on (-1,1) in (-2,2), n = 400:")
    print(f"  sup |u_n - harmonic| outside the support closure: "
          f"{report.harmonic_gap:.4f}")
    print(f"  sup of v_n outside the support: {report.outer_v_sup:.2e}")

    grid2 = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (64, 64))
    spec2 = ProblemSpec(grid2, CoefficientField.identity(grid2),
                        IndicatorDatum(1.0, (0.25, 0.25), (0.75, 0.75)),
                        gamma=40.0, support="compact")
    report2 = conjecture_experiment(spec2, 40.0)
    print("\n2-D, inner box (0.25,0.75)^2 in the unit square, n = 40:")
    print(f"  sup |u_n - harmonic| outside the box closure: "
          f"{report2.harmonic_gap:.4f}")
    print(f"  sup of v_n outside the box: {report2.outer_v_sup:.2e}")
    print(f"  ({report2.nodes_compared} nodes compared)")


if __name__ == "__main__":
    main()
