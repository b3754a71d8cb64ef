"""Monotone regularized solver for -div(M grad u) = f/u^gamma, u|_boundary = 0.

The singular right-hand side is regularized to f/(u + 1/m)^gamma.  The
discrete problem at m = inf (eps = 1/m = 0) is well posed, and by default
it is solved directly, in one Newton solve; an explicit finite schedule of
m solves the paper's approximations, each on its own, and their iterates
increase monotonically in m.  A singular solve is its trace
(`SingularSolution`).  Each regularized problem is solved by damped
inexact Newton: a step's linear solve only has to reach the relative
tolerance of an Eisenstat-Walker forcing term, which tightens as the Newton
residual falls.  All power evaluations run in the log domain, so large
exponents stay representable.  Measured at 1024 cells on the matched
problem (f = 1 on (-1, 1) in (-2, 2)) and on f = 1, every default solve
with gamma from 0.01 to 1e8 converges, gamma = 1e6 and 1e8 in 13-17 Newton
steps, and so does every f = c with c from 1e-12 to 1e12 at gamma = 10 and
at gamma = 400.

A Newton solve ends when its residual |A u - g|_inf, g = f/(u + 1/m)^gamma,
meets

    RESIDUAL_TOL (1 + |f|_inf) + eps (k |A|_inf |u|_inf + (1 + gamma) |g|_inf),

the requested tolerance plus the rounding floor of the two terms: Higham's
k-term dot-product bound for A u (`SparseOperator.rounding_floor`, k = 3 in
1-D and 5 in 2-D) and about gamma ulps for g, which is evaluated through
exp and log.  The bound follows the iterate, so it is recomputed after
every accepted step; without the floor it sits below what a computed
residual can reach on fine 1-D grids, and no solve there ends by it.

A solve starts from a function that already has the shape of the
large-gamma solution, chosen by the data once per call (`_Start`); it
depends on the exponent, not on m, so every m-step of a schedule starts
from it.  Where f = 0 at every interior node next to the boundary, that is
the discrete harmonic lift phi of S = {interior nodes with f > 0} (phi = 1
on S, A phi = 0 off S, 0 on the boundary; `SparseOperator.harmonic_lift`)
scaled to the capacity level at which the equation at m = inf summed over S
balances.  Otherwise it is the paper's transformation
v = u^(gamma+1)/(gamma+1), which barely moves with gamma: at gamma = 0 the
problem is linear, -div(M grad v) = f, so one linear solve gives
v0 = max(A^-1 f, 0), and ((gamma+1) v0)^(1/(gamma+1)) is the start of
every exponent.

A sweep's exponents share the grid, the datum and the m-schedule, so they
are solved in lockstep (`solve_lockstep`): each Newton iteration advances
the stack of their iterates with one stacked Jacobian solve, and everything
else is evaluated per row, so every row is bit for bit the solve of its
exponent alone.  `solve_singular` and `solve_regularized` are the case of
one exponent.  All of them, and every diagnostic here, share the field's
A and its hierarchy (`CoefficientField.operator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .grids import CoefficientField, GridFunction, ProblemSpec
from .operators import CG_RELATIVE_TOL, LinearSolveError

LOG_CAP = 300.0          # cap on log(f/(u+eps)^gamma); keeps Jacobian entries finite
VALUE_FLOOR = 1e-300     # floor for log-domain evaluation of u^gamma in diagnostics
UPDATE_TOL = 1e-12       # relative Newton update
RESIDUAL_TOL = 1e-11     # scaled by (1 + |f|_inf); the rounding floor is added
ETA_MAX = 1e-2           # largest forcing term: CG rtol of a Newton step's solve
MAX_ITERATIONS = 200     # Newton steps of a regularized solve; then it fails
RESIDUAL_FLOOR = 1e-10   # default mask floor of the residual diagnostics


class NonlinearSolveError(RuntimeError):
    def __init__(self, message: str, residual_trace: list[float]):
        super().__init__(message)
        self.residual_trace = residual_trace


class UndefinedCertificateError(ValueError):
    pass


def default_m_schedule() -> list[float]:
    """[inf]: one Newton solve of the discrete singular problem (eps = 0)."""
    return [math.inf]


def check_m_schedule(schedule: Sequence[float]) -> list[float]:
    """The schedule as a list; ValueError unless non-empty, strictly increasing
    and m >= 1, with only its last entry allowed to be inf."""
    schedule = list(schedule)
    if (not schedule or not schedule[0] >= 1
            or any(not b > a for a, b in zip(schedule, schedule[1:]))):
        raise ValueError("m-schedule must be non-empty and strictly increasing, "
                         "with every m >= 1")
    return schedule


def _regularized_rhs(log_f: tuple, u: np.ndarray, eps: float,
                     gamma: np.ndarray, cap: float = LOG_CAP) -> np.ndarray:
    """f/(u+eps)^gamma where f > 0, zero elsewhere; log-domain, u + eps
    floored at VALUE_FLOOR, the exponent capped at `cap`.

    `u` is a stack of iterates, one row per exponent in `gamma`, and
    `log_f` is (pos, log f[pos]), pos the indices where f > 0 or, where
    those are contiguous, their slice.  At eps = 0 no add is made."""
    pos, log_values = log_f
    out = np.zeros(u.shape)
    base = u[:, pos] + eps if eps else u[:, pos]
    lg = np.log(np.maximum(base, VALUE_FLOOR))
    lg *= gamma[:, None]
    np.subtract(log_values, lg, out=lg)
    out[:, pos] = np.exp(np.minimum(lg, cap, out=lg), out=lg)
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
    m: float                     # the regularization index; inf is eps = 0
    u: GridFunction
    iterations: int
    residual: float
    linear_iterations: int = 0   # CG iterations over the Newton steps (0 if direct)
    stalled: bool = False        # ended because halving no longer moved the iterate


class _Start:
    """The start of a solve, chosen by the data once per call; it depends
    on the exponent only, so it is the start of every m.

    Where f = 0 at every interior node next to the boundary, `start` is the
    lift c phi of S = {interior nodes with f > 0}.  phi is the discrete
    harmonic lift of S: 1 on S, (A phi)_i = 0 off S and 0 on the boundary
    (`SparseOperator.harmonic_lift`), solved only to ETA_MAX: a start needs
    its shape, not its last digits.  With u = c on S the equation at m = inf
    summed over S is c^(gamma+1) sum_S (A phi) = sum_S f, which gives the
    capacity level c = e^(log_ratio / (gamma+1)).  Otherwise `start` is the
    v-start ((gamma+1) v0)^(1/(gamma+1)), where v0 = max(A^-1 f, 0) solves
    the gamma = 0 problem (solved only to ETA_MAX), and phi is not built.
    Where S is empty the start is 0.  Either branch can fail only in a
    linear solve, by LinearSolveError.
    """

    def __init__(self, spec: ProblemSpec):
        f_int = _interior_datum(spec)
        support = f_int > 0
        self._op = op = spec.coefficients.operator
        self.phi: Optional[np.ndarray] = None
        self.log_ratio: Optional[float] = None
        self.v0: Optional[GridFunction] = None
        if not support.any():
            return
        edge = np.ones(op.grid.interior_shape, dtype=bool)
        edge[(slice(1, -1),) * op.grid.dim] = False
        if support[edge.reshape(-1)].any():
            self.v0 = op.full_from_interior(np.maximum(op.solver(rtol=ETA_MAX)(f_int), 0.0))
            return
        self.phi = op.harmonic_lift(support, rtol=ETA_MAX)
        flux = float(np.sum(op.apply(self.phi)[support]))
        self.log_ratio = math.log(float(np.sum(f_int[support]))) - math.log(flux)

    def start(self, gamma: float) -> GridFunction:
        """The start of a regularized solve at exponent gamma, for every m."""
        if self.v0 is not None:
            return from_quasilinear(self.v0, gamma)
        if self.phi is None:
            return GridFunction.zeros(self._op.grid)
        return self._op.full_from_interior(math.exp(self.log_ratio / (gamma + 1.0)) * self.phi)


def _check_iterate(m: float, gamma: float, u: np.ndarray, g: np.ndarray,
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
    g: np.ndarray                  # f/(u + 1/m)^gamma
    rhs: np.ndarray                # g - A u, the right-hand side of a Newton step
    res: np.ndarray                # |A u - g|_inf
    bound: np.ndarray              # the residual bound at u
    eta: np.ndarray                # forcing terms
    linear_iterations: np.ndarray

    def take(self, keep: np.ndarray) -> "_Rows":
        if keep.all():
            return self
        return _Rows(*(getattr(self, field.name)[keep] for field in fields(self)))


def _regularized_stack(spec: ProblemSpec, gammas: Sequence[float], m: float,
                       initials: Sequence[GridFunction]) -> list:
    """Damped inexact Newton in lockstep on the regularized problems of
    `spec`'s datum at index m, one per exponent in `gammas`.

    Each iteration advances the (k, n) stack of iterates with one stacked
    Jacobian solve (`SparseOperator.solver` on the stack of shifts); the
    right-hand sides, residuals, their bounds, the forcing terms, the step
    halving and every stop are evaluated per row, so each row is bit for bit
    the solve its exponent would get alone.  A row leaves the stack when it
    stops or fails, and fails if still running after MAX_ITERATIONS steps.
    Returns per exponent its RegularizedIterate or the NonlinearSolveError /
    LinearSolveError it failed with; any other exception propagates.
    `initials` holds each row's start; A is the spec's field's.
    """
    op = spec.coefficients.operator
    f_int = _interior_datum(spec)
    if not np.any(f_int > 0):
        return [RegularizedIterate(m, GridFunction.zeros(spec.grid), 0, 0.0)
                for _ in gammas]
    eps = 1.0 / m
    ulp = np.finfo(float).eps
    tolerance = RESIDUAL_TOL * (1.0 + float(np.max(f_int, initial=0.0)))
    pos = np.flatnonzero(f_int > 0)
    log_f = (pos, np.log(f_int[pos]))
    if pos[-1] - pos[0] + 1 == pos.size:       # contiguous: a slice, no gather
        log_f = (slice(pos[0], pos[-1] + 1), log_f[1])
    k = len(gammas)
    outcomes: list = [None] * k
    traces: list[list[float]] = [[] for _ in range(k)]
    it = 0                         # Newton iterations, the same for every row
    direct = op.direct

    def residuals(u, gamma):
        g = _regularized_rhs(log_f, u, eps, gamma)
        rhs = g - op.apply(u.T).T
        return np.abs(rhs).max(axis=1), g, rhs

    def bounds(u, g, gamma):
        return tolerance + op.rounding_floor(u) + ulp * (1.0 + gamma) * g.max(axis=1)

    def leave(rows, stop, outcome):
        """Rows `stop` end, row j of `rows` as outcome(j)."""
        for j in np.flatnonzero(stop):
            outcomes[rows.index[j]] = outcome(j)
        return rows.take(~stop)

    def result(j):
        """Row j's iterate, or the error of its check (`_check_iterate`)."""
        try:
            _check_iterate(m, float(rows.gamma[j]), rows.u[j], rows.g[j], it,
                           traces[rows.index[j]])
        except NonlinearSolveError as exc:
            return exc
        return RegularizedIterate(
            m, op.full_from_interior(rows.u[j]), it, float(rows.res[j]),
            int(rows.linear_iterations[j]), bool(stalled[j]))

    gamma = np.array(gammas, dtype=float)
    u = np.empty((k, op.n_unknowns))
    for row, initial in zip(u, initials):
        np.maximum(op.interior_of(initial), 0.0, out=row)
    res, g, rhs = residuals(u, gamma)
    rows = _Rows(np.arange(k), gamma, u, g, rhs, res, bounds(u, g, gamma),
                 np.full(k, ETA_MAX), np.zeros(k, dtype=int))
    for trace, r in zip(traces, res.tolist()):
        trace.append(r)
    stop, stalled = rows.res <= rows.bound, np.zeros(k, dtype=bool)
    while True:
        if stop.any():
            rows = leave(rows, stop, result)
        if rows.index.size and it == MAX_ITERATIONS:
            rows = leave(rows, np.ones(rows.index.size, dtype=bool), lambda j: NonlinearSolveError(
                f"regularized solve (m={m}, gamma={float(rows.gamma[j])}) did not "
                f"converge within {MAX_ITERATIONS} iterations; last residual "
                f"{rows.res[j]:.3e}", traces[rows.index[j]]))
        if not rows.index.size:
            return outcomes
        it += 1
        if it > 1 and not direct:      # a direct solve ignores its forcing term
            for j, i in enumerate(rows.index):
                rows.eta[j] = _forcing_term(float(rows.res[j]), traces[i][-2],
                                            float(rows.eta[j]), float(rows.bound[j]))
        base = rows.u + eps if eps else rows.u
        solve = op.solver(rows.gamma[:, None] * rows.g / np.maximum(base, VALUE_FLOOR),
                          rtol=rows.eta)
        du = solve(rows.rhs)
        if not direct:                 # and runs no CG iterations
            rows.linear_iterations += solve.iterations
        finite = np.isfinite(du).all(axis=1)
        if not finite.all():
            rows = leave(rows, ~finite, lambda j: solve.failures.get(j) or NonlinearSolveError(
                f"regularized solve (m={m}, gamma={float(rows.gamma[j])}): non-finite "
                f"Newton direction at iteration {it}", traces[rows.index[j]]))
            du = du[finite]
            if not rows.index.size:
                return outcomes
        # halve until the residual falls; a trial equal to u (max |cand - u|
        # = 0, the same pass that gives the update size) is a stall.  An
        # index array selects the rows still halving, slice(None) the whole
        # stack without a copy (the common case: every row takes its full step)
        size = rows.index.size
        lam, search = np.ones(size), np.arange(size)
        stalled = np.zeros(size, dtype=bool)
        cand = np.maximum(rows.u + du, 0.0)
        change = np.empty(size)        # max |cand - u| of each row's last trial
        accepted = None                # (res, g, rhs) of the rows' new iterates
        while search.size:
            sel = slice(None) if search.size == size else search
            change[sel] = np.abs(cand[sel] - rows.u[sel]).max(axis=1)
            same = change[sel] == 0.0
            if same.any():             # a stalled row keeps its iterate
                halted = search[same]
                stalled[halted], cand[halted] = True, rows.u[halted]
                search = search[~same]
                continue
            r, g, rhs = residuals(cand[sel], rows.gamma[sel])
            better = r < rows.res[sel]
            if search.size == size and better.all():
                accepted = r, g, rhs
                break
            if accepted is None:       # start from the current iterates
                accepted = rows.res.copy(), rows.g.copy(), rows.rhs.copy()
            done = search[better]
            for new, trial in zip(accepted, (r, g, rhs)):
                new[done] = trial[better]
            search = search[~better]
            lam[search] *= 0.5
            cand[search] = np.maximum(rows.u[search] + lam[search, None] * du[search], 0.0)
        rel_update = change / np.maximum(1.0, cand.max(axis=1))   # cand >= 0
        if accepted is not None:
            rows.u, (rows.res, rows.g, rows.rhs) = cand, accepted
            rows.bound = bounds(rows.u, rows.g, rows.gamma)
        for i, r, halted in zip(rows.index.tolist(), rows.res.tolist(), stalled.tolist()):
            if not halted:
                traces[i].append(r)
        stop = stalled | (rel_update <= UPDATE_TOL) | (rows.res <= rows.bound)


def solve_regularized(spec: ProblemSpec, m: float, *,
                      initial: Optional[GridFunction] = None) -> RegularizedIterate:
    """One damped inexact-Newton solve of the regularized problem at index m.

    Newton runs on F(u) = A u - f/(u + 1/m)^gamma, m = inf being eps = 0,
    from `initial` (or from the data's start, `_Start`, which does not
    depend on m), with the iterate clipped to u >= 0.  Step k solves its
    Jacobian system to the relative tolerance of the forcing term eta_k
    (ETA_MAX at the first step, then `_forcing_term`; Dembo, Eisenstat and
    Steihaug, SINUM 19 (1982) 400-408), and halves until the exact residual
    falls.  The solve stops when the residual meets its bound (the module
    docstring's; it is recomputed at every accepted iterate), when the
    relative update is negligible, or when halving no longer moves the
    iterate (a stall: no representable step lowers the residual).  A solve
    still running after MAX_ITERATIONS steps, and one ending at an iterate
    whose right-hand side is clipped at e^LOG_CAP (no solution), raise
    NonlinearSolveError.  It is the one-exponent case of the lockstep solve
    `_regularized_stack`, on the field's A (`CoefficientField.operator`).
    """
    if not m >= 1:
        raise ValueError("regularization index m must be >= 1")
    if initial is None:
        initial = _Start(spec).start(spec.gamma)
    (outcome,) = _regularized_stack(spec, [spec.gamma], m, [initial])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass(frozen=True)
class SingularSolution:
    """A singular solve as its trace: one RegularizedIterate per m of the
    schedule, each from the data's start; the rest is read off the trace."""

    spec: ProblemSpec
    trace: tuple[RegularizedIterate, ...]

    @property
    def u(self) -> GridFunction:
        """The solution: the iterate at the last m."""
        return self.trace[-1].u

    @property
    def stabilized(self) -> bool:
        """Solved at m = inf: the last schedule entry is inf."""
        return math.isinf(self.trace[-1].m)

    @property
    def gap(self) -> float:
        """Sup gap of the last two iterates; inf for one entry."""
        return (float(np.max(np.abs(self.u.values - self.trace[-2].u.values)))
                if len(self.trace) > 1 else math.inf)


def _interior_datum(spec: ProblemSpec) -> np.ndarray:
    """f at the interior nodes, in the order of the operator's unknowns."""
    return spec.datum_values()[(slice(1, -1),) * spec.grid.dim].reshape(-1)


def solve_singular(spec: ProblemSpec,
                   m_schedule: Optional[Sequence[float]] = None) -> SingularSolution:
    """The discrete singular solution: by default (`default_m_schedule()`)
    one Newton solve at m = inf, eps = 0; with an explicit increasing
    `m_schedule` one `solve_regularized(spec, m)` call per m, each from the
    start of the data (`_Start`, set up once), whose iterates make the trace.

    Returns the solve only (`singell.sweeps` reads the diagnostics off it)
    and raises the error of the first m-step, or of the start, that fails.
    Every m-step reads the field's A (`CoefficientField.operator`).  This is
    the one-exponent case of `solve_lockstep`.
    """
    schedule = check_m_schedule(default_m_schedule() if m_schedule is None else m_schedule)
    start = _Start(spec).start(spec.gamma)
    return SingularSolution(spec, tuple(solve_regularized(spec, m, initial=start)
                                        for m in schedule))


def solve_lockstep(spec: ProblemSpec, gammas: Sequence[float],
                   m_schedule: Optional[Sequence[float]] = None) -> list:
    """`solve_singular` for every exponent in `gammas` at once: each m-step
    of the shared schedule runs one lockstep Newton solve
    (`_regularized_stack`) on the rows that have not failed, every row from
    its exponent's start, and the rows share the start's one linear solve
    and the field's A (`CoefficientField.operator`).

    Returns per exponent its SingularSolution, bit for bit the one
    `solve_singular(spec.with_gamma(n), m_schedule)` gives, or the
    NonlinearSolveError / LinearSolveError that exponent's solve raises
    there: a row that fails at an m is not solved at later ones, and a
    failed start fails every row.  Any other exception propagates.
    """
    schedule = check_m_schedule(default_m_schedule() if m_schedule is None else m_schedule)
    specs = [spec.with_gamma(float(n)) for n in gammas]
    if not specs:
        return []
    try:
        start = _Start(spec)
    except LinearSolveError as exc:
        return [exc] * len(specs)
    starts = [start.start(s.gamma) for s in specs]
    outcomes: list = [() for _ in specs]      # a row's trace so far, or its error
    for m in schedule:
        rows = [i for i, o in enumerate(outcomes) if isinstance(o, tuple)]
        if not rows:
            break
        for i, it in zip(rows, _regularized_stack(spec, [specs[i].gamma for i in rows], m,
                                                  [starts[i] for i in rows])):
            outcomes[i] = it if isinstance(it, Exception) else outcomes[i] + (it,)
    return [SingularSolution(s, o) if isinstance(o, tuple) else o
            for s, o in zip(specs, outcomes)]


# --- diagnostics of a stack of solutions --------------------------------------
#
# Each formula lives in one kernel that takes a (k, *shape) stack of nodal
# values with one exponent per row and evaluates the whole stack at once.  A
# sum runs along the contiguous last axis of the stack reshaped to
# (k, nodes), so every row adds its nodes in the pairwise order of its own
# flat sum.  The one-solution functions are the stack of one.

def mass_density_stack(u: np.ndarray, gamma, f: np.ndarray) -> np.ndarray:
    """f/u^gamma row by row of the stack u, gamma one exponent per row, at the
    interior nodes where f > 0, 0 at every other node: `_regularized_rhs`
    at eps = 0 with the exponent capped at 700, not LOG_CAP."""
    support = np.zeros(f.shape, dtype=bool)
    inner = (slice(1, -1),) * f.ndim
    support[inner] = f[inner] > 0
    pos = np.flatnonzero(support)
    return _regularized_rhs((pos, np.log(f.ravel()[pos])), u.reshape(len(u), -1), 0.0,
                            np.asarray(gamma, dtype=float), cap=700.0).reshape(u.shape)


def mass_stack(density: np.ndarray, cell_volume: float,
               masks: Optional[np.ndarray] = None) -> np.ndarray:
    """Trapezoid-weight integrals of a (k, nodes) stack of densities: one per
    row, or with (c, nodes) node masks one per row and mask, (k, c), each
    the sum over every node with the density zeroed off the mask."""
    if masks is not None:
        density = np.where(masks, density[:, None], 0.0)
    return np.sum(density, axis=-1) * cell_volume


def singular_mass_density(u: GridFunction, spec: ProblemSpec) -> np.ndarray:
    """Nodal values of f/u^gamma at interior nodes, log-domain, floored at 1e-300.

    Boundary nodes carry zero weight: u vanishes there by the Dirichlet
    condition, and the improper integral of f/u^gamma is approximated by the
    interior nodal sum.  `mass_density_stack` of one row.
    """
    return mass_density_stack(u.values[None], [spec.gamma], spec.datum_values())[0]


def total_singular_mass(u: GridFunction, spec: ProblemSpec, box=None) -> float:
    """Trapezoid-weight integral of f/u^gamma, optionally over a sub-box."""
    masks = None if box is None else u.grid.box_mask(box).reshape(1, -1)
    dens = singular_mass_density(u, spec).reshape(1, -1)
    return float(mass_stack(dens, u.grid.cell_volume(), masks).ravel()[0])


# --- quasilinear side --------------------------------------------------------

def quasilinear_stack(u: np.ndarray, gamma) -> np.ndarray:
    """Nodal power map v = u^(gamma+1)/(gamma+1) row by row of the stack u,
    gamma one exponent per row; log-domain, 0 where u = 0."""
    if float(np.min(u)) < 0:
        raise ValueError("power map requires u >= 0")
    g1 = np.reshape(gamma, (-1,) + (1,) * (u.ndim - 1)) + 1.0
    with np.errstate(divide="ignore"):
        lg = g1 * np.log(u) - np.log(g1)
    return np.exp(np.minimum(lg, 700.0))   # underflow falls through to 0


def to_quasilinear(u: GridFunction, gamma: float) -> GridFunction:
    """Nodal power map v = u^(gamma+1)/(gamma+1): `quasilinear_stack` of one row."""
    return GridFunction(u.grid, quasilinear_stack(u.values[None], [gamma])[0])


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


def quasilinear_residual_stack(v: np.ndarray, gamma, f: np.ndarray,
                               coefficients: CoefficientField,
                               floor: float = RESIDUAL_FLOOR) -> tuple:
    """Residual of -div(M grad v) + (g/(g+1)) grad v.M grad v / v - f at the
    interior nodes, row by row of the stack v, g one exponent per row.

    The divergence term is the field's A (`CoefficientField.operator`) on
    the interior values: v's boundary values are taken as the Dirichlet
    zeros; the gradient term is sum_a entries[..., a] (D0_a v)^2, D0_a the
    centred difference.  Returns the (k, *interior) residuals (NaN where
    masked), the mask of the nodes evaluated (v >= floor) and each row's sup
    over them (0 when none is).  The sup sits where v is near the floor,
    where |grad v|^2/v turns rounding-level changes of u into changes in
    about the 7th digit: on strictly positive data only about 7 of its
    printed digits are sound.
    """
    grid = coefficients.grid
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(invalid="ignore"):
        weight = np.where(np.isinf(gamma), 1.0, gamma / (gamma + 1.0))
    inner = (slice(1, -1),) * grid.dim
    interior = (slice(None),) + inner
    vi = v[interior]
    k = len(v)
    div = coefficients.operator.apply(vi.reshape(k, -1).T).T.reshape(vi.shape)
    grad2 = 0.0
    for axis, h in enumerate(grid.h):
        below, above = list(interior), list(interior)
        below[axis + 1], above[axis + 1] = slice(None, -2), slice(2, None)
        nodal = coefficients.entries[inner + (axis,)]
        grad2 = grad2 + nodal * ((v[tuple(above)] - v[tuple(below)]) / (2.0 * h)) ** 2
    mask = vi >= floor
    with np.errstate(divide="ignore", invalid="ignore"):
        res = (div + weight.reshape((-1,) + (1,) * grid.dim) * grad2
               / np.where(mask, vi, np.nan) - f[inner])
    sup = np.max(np.abs(res).reshape(k, -1), axis=-1, where=mask.reshape(k, -1),
                 initial=0.0)
    return res, mask, sup


def quasilinear_residual(v: GridFunction, gamma: float, f, *,
                         coefficients: CoefficientField,
                         floor: float = RESIDUAL_FLOOR) -> ResidualField:
    """Residual of -div(M grad v) + (g/(g+1)) grad v.M grad v / v - f at the
    interior nodes, masked where v < floor.

    The divergence term is the field's A on the interior values (v's
    boundary values are taken as the Dirichlet zeros); the centred gradient
    term takes M at the node.  The gradient term is 0/0 where v vanishes,
    so nodes below the floor are masked and counted instead of evaluated.  gamma = inf selects the limit coefficient 1.
    `quasilinear_residual_stack` of one row.
    """
    grid = v.grid
    if coefficients.grid != grid:
        raise ValueError("coefficient field lives on a different grid")
    f_vals = f.values if isinstance(f, GridFunction) else np.asarray(f, dtype=float)
    res, mask, sup = quasilinear_residual_stack(v.values[None], [gamma], f_vals,
                                                coefficients, floor)
    field = np.zeros(grid.shape)
    field[(slice(1, -1),) * grid.dim] = res[0]
    evaluated = int(np.sum(mask))
    return ResidualField(GridFunction(grid, np.nan_to_num(field, nan=0.0)),
                         float(sup[0]), evaluated, int(mask.size - evaluated))


def singular_residual(u: GridFunction, spec: ProblemSpec, *,
                      floor: float = RESIDUAL_FLOOR) -> ResidualField:
    """Residual of the singular equation A u - f/u^gamma, A the field's
    (`CoefficientField.operator`).

    Nodes with u below the floor (where f > 0) are masked: the true residual
    is unbounded there.
    """
    op = spec.coefficients.operator
    sl = tuple(slice(1, -1) for _ in range(spec.grid.dim))
    ui = op.interior_of(u)
    res = op.apply(ui) - singular_mass_density(u, spec)[sl].ravel()
    mask = ~((spec.datum_values()[sl].ravel() > 0) & (ui < floor))
    evaluated = int(np.sum(mask))
    sup = float(np.max(np.abs(res[mask]))) if evaluated else 0.0
    return ResidualField(op.full_from_interior(np.where(mask, res, 0.0)), sup,
                         evaluated, int(mask.size - evaluated))


def certificate_stack(u_sup: np.ndarray, gamma, f) -> np.ndarray:
    """|u|_inf^(gamma+1) / ((gamma+1) |f|_inf) per row, from the rows' sup
    norms u_sup and exponents gamma; log-domain, 0 where u_sup = 0."""
    f_sup = float(np.max(np.abs(f)))
    if f_sup == 0.0:
        raise UndefinedCertificateError("certificate undefined for f == 0")
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(divide="ignore"):
        lg = (gamma + 1.0) * np.log(u_sup) - np.log(gamma + 1.0) - np.log(f_sup)
    return np.where(u_sup == 0.0, 0.0, np.exp(np.clip(lg, -745.0, 700.0)))


def linfty_certificate(u: GridFunction, gamma: float, f) -> float:
    """|u|_inf^(gamma+1) / ((gamma+1) |f|_inf); bounded uniformly in gamma.
    `certificate_stack` of one row."""
    f_vals = f.values if isinstance(f, GridFunction) else np.asarray(f, dtype=float)
    return float(certificate_stack(np.array([u.sup_norm()]), [gamma], f_vals)[0])
