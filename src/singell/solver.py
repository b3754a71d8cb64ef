"""Monotone regularized solver for -div(M grad u) = f/u^gamma, u|_boundary = 0.

The singular right-hand side is regularized to f/(u + 1/m)^gamma and solved
for an increasing schedule of m; the iterates increase monotonically and the
outer loop stops on a nodal sup-gap.  Each regularized problem is solved by
damped inexact Newton: a step's linear solve only has to reach the relative
tolerance of an Eisenstat-Walker forcing term, which tightens as the Newton
residual falls.  All power evaluations run in the log domain so exponents up
to gamma ~ 400 stay representable.

A Newton solve ends when its residual |A u - g|_inf, g = f/(u + 1/m)^gamma,
meets

    RESIDUAL_TOL (1 + |f|_inf) + eps (k |A|_inf |u|_inf + (1 + gamma) |g|_inf),

the requested tolerance plus the rounding floor of the two terms: Higham's
k-term dot-product bound for A u (`SparseOperator.rounding_floor`, k = 3 in
1-D and 5 in 2-D) and about gamma ulps for g, which is evaluated through
exp and log.  The bound follows the iterate, so it is recomputed after
every accepted step; without the floor it sits below what a computed
residual can reach on fine 1-D grids, and no m-step there ends by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grids import CoefficientField, GridFunction, ProblemSpec
from .operators import CG_RELATIVE_TOL, SparseOperator, assemble, face_weights

LOG_CAP = 300.0          # cap on log(f/(u+eps)^gamma); keeps Jacobian entries finite
VALUE_FLOOR = 1e-300     # floor for log-domain evaluation of u^gamma in diagnostics
UPDATE_TOL = 1e-12       # relative Newton update
RESIDUAL_TOL = 1e-11     # scaled by (1 + |f|_inf); the rounding floor is added
SCHEDULE_GAP_TOL = 1e-9  # nodal sup-gap between consecutive schedule entries
ETA_MAX = 1e-2           # largest forcing term: CG rtol of a Newton step's solve
DEFAULT_MAX_ITERATIONS = 200
EXTRAPOLATION_DEPTH = 3  # converged iterates an m-step's start extrapolates from
RESIDUAL_FLOOR = 1e-10   # default mask floor of the residual diagnostics


class NonlinearSolveError(RuntimeError):
    def __init__(self, message: str, residual_trace: list[float]):
        super().__init__(message)
        self.residual_trace = residual_trace


class UndefinedCertificateError(ValueError):
    pass


def default_m_schedule() -> list[int]:
    """16^0, ..., 16^6: the last m is 4^12, reached in 7 m-steps.

    Only the last m decides the answer; the others are a continuation path,
    and the extrapolated start of each m-step (`_extrapolated_start`) keeps
    Newton inside its basin over a ratio of 16 between consecutive m."""
    return [16 ** k for k in range(7)]


def check_m_schedule(schedule: Sequence[int]) -> list[int]:
    """The schedule as a list; ValueError unless non-empty, strictly increasing, m >= 1."""
    schedule = list(schedule)
    if not schedule or schedule[0] < 1 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("m-schedule must be non-empty and strictly increasing, "
                         "with every m >= 1")
    return schedule


def _regularized_rhs(log_f: tuple[np.ndarray, np.ndarray], u: np.ndarray, eps: float,
                     gamma: float) -> np.ndarray:
    """f/(u+eps)^gamma where f > 0, zero elsewhere; exponent capped.

    `log_f` is (pos, log f[pos]), pos the indices where f > 0."""
    pos, log_values = log_f
    out = np.zeros_like(u)
    base = np.maximum(u[pos] + eps, VALUE_FLOOR)
    out[pos] = np.exp(np.minimum(log_values - gamma * np.log(base), LOG_CAP))
    return out


def _forcing_term(res: float, res_prev: float, eta_prev: float,
                  res_bound: float) -> float:
    """Eisenstat-Walker choice 2 (gamma 0.9, alpha 2) with its safeguard.

    Eisenstat and Walker, SIAM J. Sci. Comput. 17 (1996) 16-32.  The floor
    stops CG from solving past half the Newton residual bound `res_bound`
    (the current one, rounding floor included), and the result stays in
    [CG_RELATIVE_TOL, ETA_MAX].
    """
    eta = 0.9 * (res / res_prev) ** 2
    safeguard = 0.9 * eta_prev ** 2
    if safeguard > 0.1:
        eta = max(eta, safeguard)
    eta = max(eta, 0.5 * res_bound / res)
    return min(ETA_MAX, max(CG_RELATIVE_TOL, eta))


@dataclass(frozen=True)
class RegularizedIterate:
    m: int
    u: GridFunction
    iterations: int
    residual: float
    linear_iterations: int = 0   # CG iterations over the Newton steps (0 if direct)
    stalled: bool = False        # ended because halving no longer moved the iterate


def _extrapolated_start(recent: Sequence[RegularizedIterate], eps: float,
                        pos: np.ndarray) -> np.ndarray:
    """Lagrange extrapolation in eps = 1/m of u + eps [f > 0] through `recent`.

    `recent` holds the last converged iterates u_j at eps_j and `pos` is the
    indicator of f > 0; the result is the extrapolant at eps minus
    eps [f > 0], summed as sum_j w_j u_j + (sum_j w_j eps_j - eps) [f > 0].
    With one iterate (w = 1) that is the shift u_j + (eps_j - eps) [f > 0] to
    the last bit; with more, the weights reproduce eps and it extrapolates u
    itself, the predictor of a numerical continuation (Allgower and Georg,
    Introduction to Numerical Continuation Methods, SIAM 2003, ch. 2).
    """
    epsilons = [1.0 / it.m for it in recent]
    weights = [np.prod([(eps - eps_k) / (eps_j - eps_k)
                        for k, eps_k in enumerate(epsilons) if k != j])
               for j, eps_j in enumerate(epsilons)]
    shift = sum(w * eps_j for w, eps_j in zip(weights, epsilons)) - eps
    return sum(w * it.u.values for w, it in zip(weights, recent)) + shift * pos


def solve_regularized(spec: ProblemSpec, m: int, *,
                      initial: Optional[GridFunction] = None,
                      operator: Optional[SparseOperator] = None,
                      max_iterations: int = DEFAULT_MAX_ITERATIONS) -> RegularizedIterate:
    """One damped inexact-Newton solve of the regularized problem at index m.

    Newton runs on F(u) = A u - f/(u + 1/m)^gamma from `initial` (or from
    max(A^-1 f, 0), with A^-1 f solved only to ETA_MAX: it is a start),
    with the iterate clipped to u >= 0.  Step k solves its Jacobian system
    to the relative tolerance of the forcing term eta_k
    (ETA_MAX at the first step, then `_forcing_term`; Dembo, Eisenstat and
    Steihaug, SINUM 19 (1982) 400-408), and halves until the exact residual
    falls.  The solve stops when the residual meets its bound (the module
    docstring's; it is recomputed at every accepted iterate), when the
    relative update is negligible, or when halving no longer moves the
    iterate (a stall: no representable step lowers the residual).  An
    iterate whose right-hand side is still clipped at e^LOG_CAP is no
    solution: it raises NonlinearSolveError.
    """
    if m < 1:
        raise ValueError("regularization index m must be >= 1")
    op = operator if operator is not None else assemble(spec.grid, spec.coefficients)
    f = spec.datum_values()
    f_int = f[tuple(slice(1, -1) for _ in range(spec.grid.dim))].reshape(-1)
    gamma = float(spec.gamma)
    eps = 1.0 / m
    tolerance = RESIDUAL_TOL * (1.0 + float(np.max(f_int, initial=0.0)))

    if not np.any(f_int > 0):
        zero = GridFunction.zeros(spec.grid)
        return RegularizedIterate(m, zero, 0, 0.0)
    pos = np.flatnonzero(f_int > 0)
    log_f = (pos, np.log(f_int[pos]))

    A = op.diagonals
    if initial is not None:
        u = np.maximum(op.interior_of(initial), 0.0)
    else:
        u = np.maximum(op.solver(rtol=ETA_MAX)(f_int), 0.0)

    def residual_of(vec):
        rhs = _regularized_rhs(log_f, vec, eps, gamma)
        return float(np.max(np.abs(A @ vec - rhs))), rhs

    def bound_at(vec, rhs):
        return (tolerance + op.rounding_floor(vec)
                + np.finfo(float).eps * (1.0 + gamma) * float(np.max(rhs)))

    res, g = residual_of(u)
    res_bound = bound_at(u, g)
    trace = [res]
    it = linear_iterations = 0
    eta, stalled = ETA_MAX, False
    while res > res_bound:
        if it == max_iterations:
            raise NonlinearSolveError(
                f"regularized solve (m={m}, gamma={gamma}) did not converge within "
                f"{max_iterations} iterations; last residual {res:.3e}", trace)
        it += 1
        if it > 1:
            eta = _forcing_term(res, trace[-2], eta, res_bound)
        solve = op.solver(gamma * g / (u + eps), rtol=eta)
        du = solve(g - A @ u)
        if not np.all(np.isfinite(du)):
            raise NonlinearSolveError(
                f"regularized solve (m={m}, gamma={gamma}): non-finite Newton "
                f"direction at iteration {it}", trace)
        linear_iterations += solve.iterations
        # halve until the residual falls; a trial equal to u is a stall
        lam = 1.0
        cand = np.maximum(u + du, 0.0)
        while not np.array_equal(cand, u):
            cand_res, cand_g = residual_of(cand)
            if cand_res < res:
                break
            lam *= 0.5
            cand = np.maximum(u + lam * du, 0.0)
        else:
            stalled = True
            break
        rel_update = float(np.max(np.abs(cand - u))) / max(1.0, float(np.max(np.abs(cand))))
        u, res, g = cand, cand_res, cand_g
        res_bound = bound_at(u, g)
        trace.append(res)
        if rel_update <= UPDATE_TOL:
            break
    if float(np.max(g)) >= np.exp(LOG_CAP):
        raise NonlinearSolveError(
            f"regularized solve (m={m}, gamma={gamma}) ended after {it} iterations "
            f"at an iterate whose right-hand side is clipped at e^{LOG_CAP:g}", trace)
    sol = op.full_from_interior(u)
    _check_positive(sol, f)
    return RegularizedIterate(m, sol, it, res, linear_iterations, stalled)


def _check_positive(u: GridFunction, f: np.ndarray) -> None:
    if np.any(f > 0) and float(np.min(u.interior())) <= 0.0:
        raise NonlinearSolveError(
            "converged iterate is not strictly positive at interior nodes", [])


@dataclass(frozen=True)
class SingularSolution:
    spec: ProblemSpec
    u: GridFunction
    trace: tuple[RegularizedIterate, ...]
    stabilized: bool    # the last schedule gap is at most SCHEDULE_GAP_TOL
    gap: float          # inf when the schedule has a single entry


def solve_singular(spec: ProblemSpec,
                   m_schedule: Optional[Sequence[int]] = None, *,
                   operator: Optional[SparseOperator] = None) -> SingularSolution:
    """Outer limit m -> infinity over an increasing regularization schedule,
    by default `default_m_schedule()` (16^0, ..., 16^6).

    Returns the solve only: the last iterate, the per-m trace and the last
    nodal sup-gap between consecutive iterates; `singell.sweeps` reads the
    diagnostics off it.

    Each m warm-starts from a polynomial extrapolation in eps = 1/m through
    the last EXTRAPOLATION_DEPTH converged iterates (`_extrapolated_start`).
    The iterates depend smoothly on eps, so the extrapolant lands close to
    the next one.  From a single previous iterate it is that iterate shifted
    by the change in regularization where f > 0 (u_m + 1/m is nearly
    constant there, which keeps the Newton start inside its basin even for
    gamma in the hundreds).  `solve_regularized` clips the start to u >= 0.
    Convergence is declared on the nodal sup-gap, not the residual: the
    singular right-hand side amplifies residuals near the boundary while
    monotone convergence makes the gap a faithful rule.  A one-entry
    schedule compares nothing: its gap is inf and it is not stabilized.
    `operator` is the assembled A of `spec` (a sweep assembles it once for
    all exponents); one on another grid raises ValueError.
    """
    schedule = check_m_schedule(m_schedule if m_schedule is not None
                                else default_m_schedule())

    if operator is not None and operator.grid != spec.grid:
        raise ValueError(f"operator grid {operator.grid} does not match the "
                         f"problem grid {spec.grid}")
    op = operator if operator is not None else assemble(spec.grid, spec.coefficients)
    pos = (spec.datum_values() > 0).astype(float)
    trace: list[RegularizedIterate] = []
    gap = np.inf
    for m in schedule:
        recent = trace[-EXTRAPOLATION_DEPTH:]
        initial = (GridFunction(spec.grid, _extrapolated_start(recent, 1.0 / m, pos))
                   if recent else None)
        it = solve_regularized(spec, m, initial=initial, operator=op)
        if trace:
            gap = float(np.max(np.abs(it.u.values - trace[-1].u.values)))
        trace.append(it)
        if gap <= SCHEDULE_GAP_TOL:
            break
    return SingularSolution(spec, trace[-1].u, tuple(trace), gap <= SCHEDULE_GAP_TOL, gap)


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


def quasilinear_residual(v: GridFunction, gamma: float, f, *,
                         coefficients: CoefficientField,
                         floor: float = RESIDUAL_FLOOR) -> ResidualField:
    """Residual of -div(M grad v) + (g/(g+1)) grad v.M grad v / v - f at the
    interior nodes, masked where v < floor.

    The divergence term is `assemble`'s stencil (`face_weights`); the
    centred gradient term takes M at the node.  With M = I every product is
    by 1.0: the plain Laplacian to the last bit.  The gradient term is 0/0
    where v vanishes, so nodes below the floor are masked and counted
    instead of evaluated.  gamma = inf selects the limit coefficient 1.
    """
    grid = v.grid
    if coefficients.grid != grid:
        raise ValueError("coefficient field lives on a different grid")
    f_vals = f.values if isinstance(f, GridFunction) else np.asarray(f, dtype=float)
    weight = 1.0 if np.isinf(gamma) else gamma / (gamma + 1.0)
    interior = (slice(1, -1),) * grid.dim
    vi = v.values[interior]
    lap = grad2 = 0.0
    for axis, ((lower, upper), h) in enumerate(zip(face_weights(coefficients), grid.h)):
        below, above = list(interior), list(interior)
        below[axis], above[axis] = slice(None, -2), slice(2, None)
        vb, va = v.values[tuple(below)], v.values[tuple(above)]
        lap = lap + (lower * vb - (lower + upper) * vi + upper * va) / h ** 2
        nodal = coefficients.entries[interior + (axis, axis)]
        grad2 = grad2 + nodal * ((va - vb) / (2.0 * h)) ** 2
    mask = vi >= floor
    with np.errstate(divide="ignore", invalid="ignore"):
        res = -lap + weight * grad2 / np.where(mask, vi, np.nan) - f_vals[interior]
    field = np.zeros(grid.shape)
    field[interior] = res
    evaluated = int(np.sum(mask))
    sup = float(np.max(np.abs(res[mask]))) if evaluated else 0.0
    return ResidualField(GridFunction(grid, np.nan_to_num(field, nan=0.0)), sup,
                         evaluated, int(mask.size - evaluated))


def singular_residual(u: GridFunction, spec: ProblemSpec, *,
                      floor: float = RESIDUAL_FLOOR) -> ResidualField:
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
