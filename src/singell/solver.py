"""Monotone regularized solver for -div(M grad u) = f/u^gamma, u|_boundary = 0.

The singular right-hand side is regularized to f/(u + 1/m)^gamma and solved
for an increasing schedule of m; the iterates increase monotonically and the
outer loop stops on a nodal sup-gap.  All power evaluations run in the log
domain so exponents up to gamma ~ 400 stay representable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grids import GridFunction, ProblemSpec
from .operators import SparseOperator, assemble

LOG_CAP = 300.0          # cap on log(f/(u+eps)^gamma); keeps Jacobian entries finite
VALUE_FLOOR = 1e-300     # floor for log-domain evaluation of u^gamma in diagnostics
UPDATE_TOL = 1e-12       # relative Newton update
RESIDUAL_TOL = 1e-11     # scaled by (1 + |f|_inf)
SCHEDULE_GAP_TOL = 1e-9  # nodal sup-gap between consecutive schedule entries
DEFAULT_MAX_ITERATIONS = 200


class NonlinearSolveError(RuntimeError):
    def __init__(self, message: str, residual_trace: list[float]):
        super().__init__(message)
        self.residual_trace = residual_trace


class UndefinedCertificateError(ValueError):
    pass


def default_m_schedule(k_max: int = 12) -> list[int]:
    return [4 ** k for k in range(k_max + 1)]


def _regularized_rhs(f: np.ndarray, u: np.ndarray, eps: float, gamma: float) -> np.ndarray:
    """f/(u+eps)^gamma where f > 0, zero elsewhere; exponent capped."""
    out = np.zeros_like(u)
    pos = f > 0
    if np.any(pos):
        base = np.maximum(u[pos] + eps, VALUE_FLOOR)
        lg = np.log(f[pos]) - gamma * np.log(base)
        out[pos] = np.exp(np.minimum(lg, LOG_CAP))
    return out


@dataclass(frozen=True)
class RegularizedIterate:
    m: int
    u: GridFunction
    iterations: int
    residual: float


def solve_regularized(spec: ProblemSpec, m: int, *,
                      initial: Optional[GridFunction] = None,
                      operator: Optional[SparseOperator] = None,
                      max_iterations: int = DEFAULT_MAX_ITERATIONS) -> RegularizedIterate:
    """One damped-Newton solve of the regularized problem at index m.

    Newton runs on F(u) = A u - f/(u + 1/m)^gamma with the iterate clipped to
    u >= 0 between steps.  A few Picard sweeps seed the iteration, but only
    while they reduce the residual: for large gamma an unconditional Picard
    step diverges violently near the fixed point.
    """
    if m < 1:
        raise ValueError("regularization index m must be >= 1")
    op = operator if operator is not None else assemble(spec.grid, spec.coefficients)
    f = spec.datum_values()
    f_int = f[tuple(slice(1, -1) for _ in range(spec.grid.dim))].reshape(-1)
    gamma = float(spec.gamma)
    eps = 1.0 / m
    res_bound = RESIDUAL_TOL * (1.0 + float(np.max(f_int, initial=0.0)))

    if not np.any(f_int > 0):
        zero = GridFunction.zeros(spec.grid)
        return RegularizedIterate(m, zero, 0, 0.0)

    A = op.matrix
    if initial is not None:
        u = np.maximum(op.interior_of(initial), 0.0)
    else:
        u = np.maximum(op.solve(f_int), 0.0)

    def residual_of(vec):
        return float(np.max(np.abs(A @ vec - _regularized_rhs(f_int, vec, eps, gamma))))

    res = residual_of(u)
    trace = [res]

    # guarded Picard warm-up
    for _ in range(3):
        cand = np.maximum(op.solve(_regularized_rhs(f_int, u, eps, gamma)), 0.0)
        cand_res = residual_of(cand)
        if cand_res >= res:
            break
        u, res = cand, cand_res
        trace.append(res)

    for it in range(1, max_iterations + 1):
        if res <= res_bound:
            sol = op.full_from_interior(u)
            _check_positive(sol, f)
            return RegularizedIterate(m, sol, it - 1, res)
        g = _regularized_rhs(f_int, u, eps, gamma)
        F = A @ u - g
        du = op.solver(gamma * g / (u + eps))(-F)
        lam = 1.0
        u_new, res_new = u, res
        while True:
            cand = np.maximum(u + lam * du, 0.0)
            cand_res = residual_of(cand)
            if cand_res < res or lam < 1e-12:
                u_new, res_new = cand, cand_res
                break
            lam *= 0.5
        rel_update = float(np.max(np.abs(u_new - u))) / max(1.0, float(np.max(np.abs(u_new))))
        u, res = u_new, res_new
        trace.append(res)
        if rel_update <= UPDATE_TOL or res <= res_bound:
            sol = op.full_from_interior(u)
            _check_positive(sol, f)
            return RegularizedIterate(m, sol, it, res)

    raise NonlinearSolveError(
        f"regularized solve (m={m}, gamma={gamma}) did not converge within "
        f"{max_iterations} iterations; last residual {res:.3e}", trace)


def _check_positive(u: GridFunction, f: np.ndarray) -> None:
    if np.any(f > 0) and float(np.min(u.interior())) <= 0.0:
        raise NonlinearSolveError(
            "converged iterate is not strictly positive at interior nodes", [])


@dataclass(frozen=True)
class SingularSolution:
    spec: ProblemSpec
    u: GridFunction
    trace: tuple[RegularizedIterate, ...]
    stabilized: bool
    gap: float
    diagnostics: dict


def solve_singular(spec: ProblemSpec,
                   m_schedule: Optional[Sequence[int]] = None, *,
                   compacta: Sequence = (),
                   max_iterations: int = DEFAULT_MAX_ITERATIONS) -> SingularSolution:
    """Outer limit m -> infinity over an increasing regularization schedule.

    Each m warm-starts from the previous solution shifted by the change in
    regularization where f > 0 (the combination u_m + 1/m is nearly constant
    there, so the shift lands the Newton iterate inside its basin even for
    gamma in the hundreds).  Convergence is declared on the nodal sup-gap,
    not the residual: the singular right-hand side amplifies residuals near
    the boundary while monotone convergence makes the gap a faithful rule.
    """
    schedule = list(m_schedule) if m_schedule is not None else default_m_schedule()
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("m-schedule must be non-empty and strictly increasing")

    op = assemble(spec.grid, spec.coefficients)
    f = spec.datum_values()
    trace: list[RegularizedIterate] = []
    u_prev: Optional[GridFunction] = None
    eps_prev = None
    gap = np.inf
    stabilized = False

    for m in schedule:
        eps = 1.0 / m
        initial = None
        if u_prev is not None:
            shifted = u_prev.values.copy()
            shifted[f > 0] += (eps_prev - eps)
            initial = GridFunction(spec.grid, shifted)
        it = solve_regularized(spec, m, initial=initial, operator=op,
                               max_iterations=max_iterations)
        trace.append(it)
        if u_prev is not None:
            gap = float(np.max(np.abs(it.u.values - u_prev.values)))
            if gap <= SCHEDULE_GAP_TOL:
                stabilized = True
                u_prev = it.u
                break
        u_prev, eps_prev = it.u, eps

    u = u_prev if u_prev is not None else GridFunction.zeros(spec.grid)
    diag = {
        "sup_norm": u.sup_norm(),
        "total_mass": total_singular_mass(u, spec),
        "compacta_min": tuple(compactum_min(u, box) for box in compacta),
        "gap": gap if np.isfinite(gap) else 0.0,
        "stabilized": stabilized or len(schedule) == 1,
    }
    return SingularSolution(spec, u, tuple(trace), diag["stabilized"], diag["gap"], diag)


def compactum_min(u: GridFunction, box) -> float:
    mask = u.grid.box_mask(box)
    if not np.any(mask):
        raise ValueError(f"compactum {box} contains no grid nodes")
    return float(np.min(u.values[mask]))


def singular_mass_density(u: GridFunction, spec: ProblemSpec) -> np.ndarray:
    """Nodal values of f/u^gamma at interior nodes, log-domain, floored at 1e-300.

    Boundary nodes carry zero weight: u vanishes there by the Dirichlet
    condition, and the improper integral of f/u^gamma is approximated by the
    interior nodal sum.
    """
    f = spec.datum_values()
    out = np.zeros(u.grid.shape)
    pos = (f > 0) & ~u.grid.frame_mask()
    if np.any(pos):
        base = np.maximum(u.values[pos], VALUE_FLOOR)
        lg = np.log(f[pos]) - spec.gamma * np.log(base)
        out[pos] = np.exp(np.minimum(lg, 700.0))
    return out


def total_singular_mass(u: GridFunction, spec: ProblemSpec, box=None) -> float:
    """Trapezoid-weight integral of f/u^gamma, optionally over a sub-box."""
    dens = singular_mass_density(u, spec)
    if box is not None:
        dens = np.where(u.grid.box_mask(box), dens, 0.0)
    return float(np.sum(dens) * u.grid.cell_volume())


# --- quasilinear side --------------------------------------------------------

def to_quasilinear(u: GridFunction, gamma: float) -> GridFunction:
    """Nodal power map v = u^(gamma+1)/(gamma+1)."""
    if float(np.min(u.values)) < 0:
        raise ValueError("power map requires u >= 0")
    vals = np.zeros(u.grid.shape)
    pos = u.values > 0
    lg = (gamma + 1.0) * np.log(u.values[pos]) - np.log(gamma + 1.0)
    vals[pos] = np.exp(np.minimum(lg, 700.0))   # underflow falls through to 0
    return GridFunction(u.grid, vals)


def from_quasilinear(v: GridFunction, gamma: float) -> GridFunction:
    """Inverse power map u = ((gamma+1) v)^(1/(gamma+1))."""
    if float(np.min(v.values)) < 0:
        raise ValueError("inverse power map requires v >= 0")
    vals = np.zeros(v.grid.shape)
    pos = v.values > 0
    lg = (np.log(v.values[pos]) + np.log(gamma + 1.0)) / (gamma + 1.0)
    vals[pos] = np.exp(lg)
    return GridFunction(v.grid, vals)


@dataclass(frozen=True)
class ResidualField:
    """Nodal residual; masked (non-evaluated) nodes carry zero in the field."""

    field: GridFunction
    masked_sup: float
    evaluated: int
    masked: int

    @property
    def vacuous(self) -> bool:
        return self.evaluated == 0


def _centered_residual(v: np.ndarray, grid, gamma: float, f: np.ndarray,
                       floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Interior residual of -lap v + (g/(g+1)) |grad v|^2 / v - f, and its mask.

    gamma = inf selects the limit coefficient 1 on the gradient term.
    """
    weight = 1.0 if np.isinf(gamma) else gamma / (gamma + 1.0)
    interior = (slice(1, -1),) * grid.dim
    vi = v[interior]
    lap = grad2 = 0.0
    for axis, h in enumerate(grid.h):
        below, above = list(interior), list(interior)
        below[axis], above[axis] = slice(None, -2), slice(2, None)
        vb, va = v[tuple(below)], v[tuple(above)]
        lap = lap + (vb - 2.0 * vi + va) / h ** 2
        grad2 = grad2 + ((va - vb) / (2.0 * h)) ** 2
    fi = f[interior]
    mask = vi >= floor
    with np.errstate(divide="ignore", invalid="ignore"):
        res = -lap + weight * grad2 / np.where(mask, vi, np.nan) - fi
    return res, mask


def quasilinear_residual(v: GridFunction, gamma: float, f, *,
                         floor: float = 1e-10) -> ResidualField:
    """Residual of the quasilinear equation for v, masked where v < floor.

    The lower-order term |grad v|^2 / v is 0/0 where v vanishes, so nodes
    below the floor are masked and counted instead of evaluated.
    """
    f_vals = f.values if isinstance(f, GridFunction) else np.asarray(f, dtype=float)
    res, mask = _centered_residual(v.values, v.grid, gamma, f_vals, floor)
    field = np.full(v.grid.shape, np.nan)
    sl = tuple(slice(1, -1) for _ in range(v.grid.dim))
    field[sl] = res
    evaluated = int(np.sum(mask))
    sup = float(np.max(np.abs(res[mask]))) if evaluated else 0.0
    out = GridFunction(v.grid, np.nan_to_num(field, nan=0.0))
    return ResidualField(out, sup, evaluated, int(mask.size - evaluated))


def singular_residual(u: GridFunction, spec: ProblemSpec, *,
                      floor: float = 1e-10) -> ResidualField:
    """Residual of the assembled singular equation A u - f/u^gamma.

    Nodes with u below the floor (where f > 0) are masked: the true residual
    is unbounded there.
    """
    op = assemble(spec.grid, spec.coefficients)
    sl = tuple(slice(1, -1) for _ in range(spec.grid.dim))
    ui = op.interior_of(u)
    res = op.apply(ui) - singular_mass_density(u, spec)[sl].ravel()
    mask = ~((spec.datum_values()[sl].ravel() > 0) & (ui < floor))
    evaluated = int(np.sum(mask))
    sup = float(np.max(np.abs(res[mask]))) if evaluated else 0.0
    return ResidualField(op.full_from_interior(np.where(mask, res, 0.0)), sup,
                         evaluated, int(mask.size - evaluated))


def linfty_certificate(u: GridFunction, gamma: float, f) -> float:
    """|u|_inf^(gamma+1) / ((gamma+1) |f|_inf); bounded uniformly in gamma."""
    f_vals = f.values if isinstance(f, GridFunction) else np.asarray(f, dtype=float)
    f_sup = float(np.max(np.abs(f_vals)))
    if f_sup == 0.0:
        raise UndefinedCertificateError("certificate undefined for f == 0")
    u_sup = u.sup_norm()
    if u_sup == 0.0:
        return 0.0
    lg = (gamma + 1.0) * np.log(u_sup) - np.log(gamma + 1.0) - np.log(f_sup)
    return float(np.exp(np.clip(lg, -745.0, 700.0)))
