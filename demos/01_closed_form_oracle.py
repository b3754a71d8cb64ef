#!/usr/bin/env python3
"""Exponent 3 on the unit interval: the one case with a pencil-and-paper answer.

With datum 1 on (-1, 1) and gamma = 3 the singular problem -u'' = 1/u^3,
u(+-1) = 0 is solved exactly by u(t) = sqrt(1 - t^2): substitute and check.
The demo solves the regularized scheme on a sequence of grids and tabulates
the nodal error against that closed form, showing the first-order rate forced
by the square-root boundary behavior, then maps to the quasilinear variable
v = u^4/4 = (1 - t^2)^2/4 and evaluates the transformed equation's residual.
"""

import numpy as np

from singell import (CoefficientField, ConstantDatum, ProblemSpec,
                     make_uniform_grid, quasilinear_residual, solve_singular,
                     to_quasilinear)


def spec_for(cells):
    grid = make_uniform_grid(-1.0, 1.0, cells)
    return ProblemSpec(grid, CoefficientField.identity(grid),
                       ConstantDatum(1.0), gamma=3.0)


def main():
    print("grid refinement against u(t) = sqrt(1 - t^2), error on |t| <= 0.9")
    print(f"{'cells':>6}  {'sup error':>12}  {'rate':>6}")
    prev = None
    for cells in (128, 256, 512, 1024, 2048):
        spec = spec_for(cells)
        sol = solve_singular(spec)
        t = spec.grid.axes()[0]
        exact = np.sqrt(np.maximum(1.0 - t ** 2, 0.0))
        err = float(np.max(np.abs(sol.u.values - exact)[np.abs(t) <= 0.9]))
        rate = f"{np.log2(prev / err):.2f}" if prev else "  --"
        print(f"{cells:>6}  {err:>12.3e}  {rate:>6}")
        prev = err

    spec = spec_for(1024)
    sol = solve_singular(spec)
    v = to_quasilinear(sol.u, 3.0)
    t = spec.grid.axes()[0]
    v_exact = (1.0 - t ** 2) ** 2 / 4.0
    print(f"\nquasilinear variable v = u^4/4: v(0) = {v.values[len(t)//2]:.6f} "
          f"(closed form 0.25)")
    print(f"sup |v - (1-t^2)^2/4| = {np.max(np.abs(v.values - v_exact)):.3e}")
    res = quasilinear_residual(v, 3.0, spec.datum_values(),
                               coefficients=spec.coefficients, floor=1e-3)
    print(f"residual of -v'' + (3/4) v'^2/v - 1 (mask floor 1e-3): "
          f"{res.masked_sup:.3e} over {res.evaluated} nodes")


if __name__ == "__main__":
    main()
