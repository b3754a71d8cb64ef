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

A sweep's exponents share the grid, the datum and the m-schedule, so they
are solved in lockstep (`solve_lockstep`): each Newton iteration advances
the stack of their iterates with one stacked Jacobian solve, and everything
else is evaluated per row, so every row is bit for bit the solve of its
exponent alone.  `solve_singular` and `solve_regularized` are the case of
one exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence

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
                     gamma: np.ndarray) -> np.ndarray:
    """f/(u+eps)^gamma where f > 0, zero elsewhere; exponent capped.

    `u` is a stack of iterates, one row per exponent in `gamma`, and
    `log_f` is (pos, log f[pos]), pos the indices where f > 0."""
    pos, log_values = log_f
    out = np.zeros_like(u)
    base = np.maximum(u.take(pos, axis=1) + eps, VALUE_FLOOR)
    out[:, pos] = np.exp(np.minimum(log_values - gamma[:, None] * np.log(base), LOG_CAP))
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


def _check_iterate(m: int, gamma: float, u: np.ndarray, g: np.ndarray,
                   iterations: int, trace: list[float]) -> None:
    """NonlinearSolveError unless the last Newton iterate of one exponent is
    a solution: its right-hand side g must not be clipped at e^LOG_CAP and
    its interior values u must be strictly positive (f > 0 somewhere)."""
    if float(np.max(g)) >= np.exp(LOG_CAP):
        raise NonlinearSolveError(
            f"regularized solve (m={m}, gamma={gamma}) ended after {iterations} "
            f"iterations at an iterate whose right-hand side is clipped at "
            f"e^{LOG_CAP:g}", trace)
    if float(np.min(u)) <= 0.0:
        raise NonlinearSolveError(
            "converged iterate is not strictly positive at interior nodes", [])


@dataclass
class _Rows:
    """The rows of a stacked Newton solve still iterating; row j of every
    array belongs to the exponent at position index[j] of the stack."""

    index: np.ndarray
    gamma: np.ndarray
    u: np.ndarray                  # interior iterates, one row each
    au: np.ndarray                 # A u
    g: np.ndarray                  # f/(u + 1/m)^gamma
    res: np.ndarray                # |A u - g|_inf
    bound: np.ndarray              # the residual bound at u
    eta: np.ndarray                # forcing terms
    linear_iterations: np.ndarray

    def take(self, keep: np.ndarray) -> "_Rows":
        if keep.all():
            return self
        return _Rows(*(getattr(self, field.name)[keep] for field in fields(self)))


def _regularized_stack(spec: ProblemSpec, gammas: Sequence[float], m: int,
                       initials: Sequence[Optional[GridFunction]], op: SparseOperator,
                       max_iterations: int = DEFAULT_MAX_ITERATIONS) -> list:
    """Damped inexact Newton in lockstep on the regularized problems of
    `spec`'s datum at index m, one per exponent in `gammas`.

    Each iteration advances the (k, n) stack of iterates with one stacked
    Jacobian solve (`SparseOperator.solver` on the stack of shifts); the
    right-hand sides, residuals, their bounds, the forcing terms, the step
    halving and every stop are evaluated per row, so each row is bit for bit
    the solve its exponent would get alone.  A row leaves the stack when it
    stops or fails.  Returns per exponent its RegularizedIterate or the
    NonlinearSolveError / LinearSolveError it failed with; any other
    exception propagates.  `initials` holds each row's start (None: the cold
    start max(A^-1 f, 0), solved once for every row that takes it).
    """
    f = spec.datum_values()
    f_int = f[tuple(slice(1, -1) for _ in range(spec.grid.dim))].reshape(-1)
    if not np.any(f_int > 0):
        return [RegularizedIterate(m, GridFunction.zeros(spec.grid), 0, 0.0)
                for _ in gammas]
    eps = 1.0 / m
    tolerance = RESIDUAL_TOL * (1.0 + float(np.max(f_int, initial=0.0)))
    pos = np.flatnonzero(f_int > 0)
    log_f = (pos, np.log(f_int[pos]))
    A = op.diagonals
    k = len(gammas)
    outcomes: list = [None] * k
    traces: list[list[float]] = [[] for _ in range(k)]
    it = 0                         # Newton iterations, the same for every row

    def residuals(u, gamma):
        g = _regularized_rhs(log_f, u, eps, gamma)
        au = (A @ u.T).T
        return np.abs(au - g).max(axis=1), g, au

    def bounds(u, g, gamma):
        return (tolerance + op.rounding_floor(u)
                + np.finfo(float).eps * (1.0 + gamma) * g.max(axis=1))

    def leave(rows, stop, stalled):
        """Rows `stop` end: each as its iterate, or as the error of its check."""
        for j in np.flatnonzero(stop):
            i = rows.index[j]
            try:
                _check_iterate(m, float(rows.gamma[j]), rows.u[j], rows.g[j], it,
                               traces[i])
            except NonlinearSolveError as exc:
                outcomes[i] = exc
                continue
            outcomes[i] = RegularizedIterate(
                m, op.full_from_interior(rows.u[j]), it, float(rows.res[j]),
                int(rows.linear_iterations[j]), bool(stalled[j]))
        return rows.take(~stop)

    def fail(rows, failed, error):
        """Rows `failed` end as error(j), j their row in `rows`."""
        for j in np.flatnonzero(failed):
            outcomes[rows.index[j]] = error(j)
        return rows.take(~failed)

    gamma = np.array(gammas, dtype=float)
    u = np.empty((k, op.n_unknowns))
    cold = None
    for row, initial in zip(u, initials):
        if initial is not None:
            np.maximum(op.interior_of(initial), 0.0, out=row)
        else:
            if cold is None:
                cold = np.maximum(op.solver(rtol=ETA_MAX)(f_int), 0.0)
            row[:] = cold
    res, g, au = residuals(u, gamma)
    rows = _Rows(np.arange(k), gamma, u, au, g, res, bounds(u, g, gamma),
                 np.full(k, ETA_MAX), np.zeros(k, dtype=int))
    for trace, r in zip(traces, res.tolist()):
        trace.append(r)
    stop, stalled = rows.res <= rows.bound, np.zeros(k, dtype=bool)
    while True:
        if stop.any():
            rows = leave(rows, stop, stalled)
        if rows.index.size and it == max_iterations:
            rows = fail(rows, np.ones(rows.index.size, dtype=bool), lambda j: NonlinearSolveError(
                f"regularized solve (m={m}, gamma={float(rows.gamma[j])}) did not "
                f"converge within {max_iterations} iterations; last residual "
                f"{rows.res[j]:.3e}", traces[rows.index[j]]))
        if not rows.index.size:
            return outcomes
        it += 1
        if it > 1:
            for j, i in enumerate(rows.index):
                rows.eta[j] = _forcing_term(float(rows.res[j]), traces[i][-2],
                                            float(rows.eta[j]), float(rows.bound[j]))
        solve = op.solver(rows.gamma[:, None] * rows.g / (rows.u + eps), rtol=rows.eta)
        du = solve(rows.g - rows.au)
        rows.linear_iterations += solve.iterations
        finite = np.isfinite(du).all(axis=1)
        if not finite.all():
            rows = fail(rows, ~finite, lambda j: solve.failures.get(j) or NonlinearSolveError(
                f"regularized solve (m={m}, gamma={float(rows.gamma[j])}): non-finite "
                f"Newton direction at iteration {it}", traces[rows.index[j]]))
            du = du[finite]
            if not rows.index.size:
                return outcomes
        # halve until the residual falls; a trial equal to u is a stall.  An
        # index array selects the rows still halving, slice(None) the whole
        # stack without a copy (the common case: every row takes its full step)
        size = rows.index.size
        lam, search = np.ones(size), np.arange(size)
        stalled = np.zeros(size, dtype=bool)
        cand = np.maximum(rows.u + du, 0.0)
        accepted = None                # (res, g, A u) of the rows' new iterates
        while search.size:
            sel = slice(None) if search.size == size else search
            same = (cand[sel] == rows.u[sel]).all(axis=1)
            if same.any():             # a stalled row keeps its iterate
                halted = search[same]
                stalled[halted], cand[halted] = True, rows.u[halted]
                search = search[~same]
                continue
            r, g, au = residuals(cand[sel], rows.gamma[sel])
            better = r < rows.res[sel]
            if search.size == size and better.all():
                accepted = r, g, au
                break
            if accepted is None:       # start from the current iterates
                accepted = rows.res.copy(), rows.g.copy(), rows.au.copy()
            done = search[better]
            for new, trial in zip(accepted, (r, g, au)):
                new[done] = trial[better]
            search = search[~better]
            lam[search] *= 0.5
            cand[search] = np.maximum(rows.u[search] + lam[search, None] * du[search], 0.0)
        rel_update = (np.abs(cand - rows.u).max(axis=1)
                      / np.maximum(1.0, np.abs(cand).max(axis=1)))
        if accepted is not None:
            rows.u, (rows.res, rows.g, rows.au) = cand, accepted
            rows.bound = bounds(rows.u, rows.g, rows.gamma)
        for i, r, halted in zip(rows.index, rows.res.tolist(), stalled):
            if not halted:
                traces[i].append(r)
        stop = stalled | (rel_update <= UPDATE_TOL) | (rows.res <= rows.bound)


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
    solution: it raises NonlinearSolveError.  This is the one-exponent case
    of the lockstep solve `_regularized_stack`.  `operator` is the assembled
    A of `spec`; one on another grid raises ValueError.
    """
    if m < 1:
        raise ValueError("regularization index m must be >= 1")
    op = _operator_for(spec, operator)
    (outcome,) = _regularized_stack(spec, [spec.gamma], m, [initial], op, max_iterations)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass(frozen=True)
class SingularSolution:
    spec: ProblemSpec
    u: GridFunction
    trace: tuple[RegularizedIterate, ...]
    stabilized: bool    # the last schedule gap is at most SCHEDULE_GAP_TOL
    gap: float          # inf when the schedule has a single entry


def _solve_schedule(specs: Sequence[ProblemSpec], schedule: Sequence[int],
                    regularize: Callable) -> list:
    """The outer limit over `schedule` for specs that differ only in gamma.

    For each m, `regularize(m, active specs, their starts)` solves the
    regularized problems of the rows still running and returns per row its
    RegularizedIterate or the error it failed with; a failed row leaves with
    that error and one whose gap is at most SCHEDULE_GAP_TOL stops.  Returns
    per spec its SingularSolution or its error.
    """
    if not specs:
        return []
    pos = (specs[0].datum_values() > 0).astype(float)
    grid = specs[0].grid
    traces: list[list[RegularizedIterate]] = [[] for _ in specs]
    gaps = [np.inf] * len(specs)
    outcomes: list = [None] * len(specs)
    active = list(range(len(specs)))
    for m in schedule:
        if not active:
            break
        initials = [GridFunction(grid, _extrapolated_start(
                        traces[i][-EXTRAPOLATION_DEPTH:], 1.0 / m, pos))
                    if traces[i] else None for i in active]
        running = []
        for i, it in zip(active, regularize(m, [specs[i] for i in active], initials)):
            if isinstance(it, Exception):
                outcomes[i] = it
                continue
            if traces[i]:
                gaps[i] = float(np.max(np.abs(it.u.values - traces[i][-1].u.values)))
            traces[i].append(it)
            if gaps[i] > SCHEDULE_GAP_TOL:
                running.append(i)
        active = running
    for i, spec in enumerate(specs):
        if outcomes[i] is None:
            outcomes[i] = SingularSolution(spec, traces[i][-1].u, tuple(traces[i]),
                                           gaps[i] <= SCHEDULE_GAP_TOL, gaps[i])
    return outcomes


def _operator_for(spec: ProblemSpec, operator: Optional[SparseOperator]) -> SparseOperator:
    if operator is None:
        return assemble(spec.grid, spec.coefficients)
    if operator.grid != spec.grid:
        raise ValueError(f"operator grid {operator.grid} does not match the "
                         f"problem grid {spec.grid}")
    return operator


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
    `operator` is the assembled A of `spec`; one on another grid raises
    ValueError.  This is the one-exponent case of `solve_lockstep`, with
    each m-step one `solve_regularized` call.
    """
    schedule = check_m_schedule(m_schedule if m_schedule is not None
                                else default_m_schedule())
    op = _operator_for(spec, operator)

    def regularize(m, specs, initials):
        return [solve_regularized(specs[0], m, initial=initials[0], operator=op)]

    (sol,) = _solve_schedule([spec], schedule, regularize)
    return sol


def solve_lockstep(spec: ProblemSpec, gammas: Sequence[float],
                   m_schedule: Optional[Sequence[int]] = None, *,
                   operator: Optional[SparseOperator] = None) -> list:
    """`solve_singular` for every exponent in `gammas` at once: each m-step
    of the shared schedule runs one lockstep Newton solve
    (`_regularized_stack`) on the rows still running.

    Returns per exponent its SingularSolution, bit for bit the one
    `solve_singular(replace(spec, gamma=n), m_schedule)` gives, or the
    NonlinearSolveError / LinearSolveError that exponent's solve raises
    there; the other rows continue.  Any other exception propagates.
    """
    schedule = check_m_schedule(m_schedule if m_schedule is not None
                                else default_m_schedule())
    op = _operator_for(spec, operator)

    def regularize(m, specs, initials):
        return _regularized_stack(spec, [s.gamma for s in specs], m, initials, op)

    return _solve_schedule([replace(spec, gamma=float(n)) for n in gammas],
                           schedule, regularize)


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
