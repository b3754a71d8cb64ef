"""Exponent sweeps and the diagnostics that quantify the large-exponent limit:
sup norms, compacta minima, masses, the log-depth diagnostic, the discrete
concentration histogram, the measure-data limit-equation check, and the
harmonic-comparison experiments (reported, never asserted).

The one description of a solution: `describe_stack` turns a (k, *shape)
stack of solutions into their `SweepRow`s at once, one kernel call per
diagnostic on the whole stack, with the compacta's masks and the support
of f computed once; `run_sweep` describes its successful rows as one
stack, and `describe_solution` (what `solve` writes) is the stack of one.
Each diagnostic formula has one home, its stack kernel.  `check_limit`
checks the limit equation, for every command: the mass f/u^n, projected
onto the boundary of the support box (`extract_atoms`), is the data of one
linear solve on the field's A (`CoefficientField.operator`), which the
solve used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analytic import check_n
from .grids import (CoefficientField, Grid, GridFunction, IndicatorDatum,
                    ProblemSpec)
from .operators import MeasureData, solve_measure
from .solver import (RESIDUAL_FLOOR, SingularSolution, certificate_stack,
                     mass_density_stack, mass_stack, quasilinear_residual_stack,
                     quasilinear_stack, solve_lockstep, solve_singular,
                     to_quasilinear)


ATOM_TIE_RTOL = 1e-9         # face depths this close (relative to h) tie


# --- log-depth diagnostic ------------------------------------------------------

def log_depth_stack(u: np.ndarray, n) -> np.ndarray:
    """z = -log(u^{n+1}/(n+1)) row by row of the stack u, n one exponent per
    row; log-domain, +inf where u = 0."""
    n1 = np.reshape(n, (-1,) + (1,) * (u.ndim - 1)) + 1.0
    # math.log, not np.log: the two can differ in the last bit, and the
    # fitted depths that sweep.csv reports keep libm's constant
    log_n1 = np.array([math.log(m) for m in n1.ravel()]).reshape(n1.shape)
    with np.errstate(divide="ignore"):
        return log_n1 - n1 * np.log(u)


def box_masks(grid: Grid, boxes: Sequence) -> np.ndarray:
    """The (c, nodes) stack of the boxes' node masks (`Grid.box_mask`), flat."""
    return np.array([grid.box_mask(box).ravel() for box in boxes],
                    dtype=bool).reshape(len(boxes), grid.node_count)


def fitted_depth_stack(z: np.ndarray, masks: np.ndarray, boxes: Sequence,
                       f_values: Optional[np.ndarray] = None) -> np.ndarray:
    """sup of z^+ over each box, (k, c), the empirical lower-bound constant,
    for a (k, nodes) stack z and the boxes' (c, nodes) masks; with f_values,
    nodes where z = inf and f = 0 are left out (u = 0 off the support of f
    carries no lower-bound information)."""
    admissible = np.broadcast_to(masks, (len(z),) + masks.shape)
    if f_values is not None:
        admissible = admissible & ~(np.isinf(z) & (f_values.ravel() == 0.0))[:, None]
    empty = ~admissible.any(axis=-1)
    if empty.any():
        box = boxes[np.argwhere(empty)[0][1]]
        raise ValueError(f"compactum {box} contains no admissible nodes")
    return np.max(np.broadcast_to(np.maximum(z, 0.0)[:, None], admissible.shape),
                  axis=-1, where=admissible, initial=-np.inf)


# --- concentration histogram ----------------------------------------------------

@dataclass(frozen=True)
class MeasureHistogram:
    grid: Grid
    cell_masses: np.ndarray            # nodal mass * cell volume
    total: float
    shell_fractions: dict
    omega: tuple                       # indicator sub-box (lo, hi)

    def __post_init__(self):
        masses = np.array(self.cell_masses, dtype=float, copy=True)
        masses.setflags(write=False)
        object.__setattr__(self, "cell_masses", masses)


def _face_depths(grid: Grid, omega) -> np.ndarray:
    """Depth of each node below each face of the sub-box omega, (dim, 2,
    *shape): [axis, 0] is x - lo and [axis, 1] is hi - x along that axis,
    negative beyond the face."""
    lo, hi = omega
    return np.stack([np.stack([x - a, b - x])
                     for x, a, b in zip(grid.meshes(), lo, hi)])


def _distance_to_box_boundary(grid: Grid, omega) -> np.ndarray:
    """Distance from each node to the boundary of the sub-box omega.

    This is |signed distance| of the box: per axis, the excess of the node
    over the box extent is negative inside and positive outside.
    """
    excess = -np.min(_face_depths(grid, omega), axis=1)
    outside = np.sqrt(np.sum(np.maximum(excess, 0.0) ** 2, axis=0))
    inside = -np.max(excess, axis=0)   # positive depth when inside
    return np.where(np.all(excess <= 0, axis=0), inside, outside)


def measure_histogram(u: GridFunction, spec: ProblemSpec, n: float,
                      shell_distances: Sequence[float] = ()) -> MeasureHistogram:
    """Per-cell masses of f/u^n and their concentration near the support edge."""
    omega = spec.omega_box()
    if omega is None:
        raise ValueError("histogram requires an indicator datum")
    masses = (mass_density_stack(u.values[None], [float(n)], spec.datum_values())[0]
              * u.grid.cell_volume())
    total = float(np.sum(masses))
    dist = _distance_to_box_boundary(u.grid, omega)
    fractions = {float(d): float(np.sum(masses[dist <= d]) / total) if total > 0 else 0.0
                 for d in shell_distances}
    return MeasureHistogram(u.grid, masses, total, fractions, omega)


# --- the limit measure on the support edge and the limit-equation check ----------

def extract_atoms(hist: MeasureHistogram) -> MeasureData:
    """Project the histogram's mass onto the boundary of omega, as node atoms.

    Each node sends its mass to the nearest face of the box omega; faces
    whose depths agree to ATOM_TIE_RTOL of the largest grid step split it
    equally, so mirror-symmetric data give a mirror-symmetric measure.  Each
    face collects its mass on the grid line parallel to it at the face's
    mass-weighted mean depth, snapped to the nearest line; the tangential
    coordinates do not change.  One atom per node that receives mass, in
    node order; the atoms carry the full histogram mass.
    """
    grid, (lo, hi) = hist.grid, hist.omega
    depths = _face_depths(grid, hist.omega).reshape((2 * grid.dim,) + grid.shape)
    nearest = depths <= np.min(depths, axis=0) + ATOM_TIE_RTOL * max(grid.h)
    shares = hist.cell_masses * nearest / np.sum(nearest, axis=0)
    load = np.zeros(grid.shape)
    for face, (share, depth) in enumerate(zip(shares, depths)):
        face_mass = np.sum(share)
        if face_mass <= 0:
            continue
        axis, side = divmod(face, 2)
        mean_depth = np.sum(share * depth) / face_mass
        line = (lo[axis] + mean_depth, hi[axis] - mean_depth)[side]
        index = min(max(round((line - grid.lo[axis]) / grid.h[axis]), 1),
                    grid.cells[axis] - 1)
        load[(slice(None),) * axis + (index,)] += np.sum(share, axis=axis)
    nodes = np.nonzero(load)
    locations = np.stack([x[i] for x, i in zip(grid.axes(), nodes)], axis=1)
    return MeasureData(tuple(zip(map(tuple, locations.tolist()),
                                 load[nodes].tolist())))


def limit_equation_check(u_limit: GridFunction, hist: MeasureHistogram,
                         coefficients: CoefficientField, *,
                         atoms: Optional[MeasureData] = None) -> float:
    """Reconstruct u from the limit measure on the field's A
    (`CoefficientField.operator`) and return sup |u_rec - u_limit|.

    `atoms` is `extract_atoms(hist)`, extracted here when not given.
    """
    if atoms is None:
        atoms = extract_atoms(hist)
    reconstructed = solve_measure(coefficients.operator, atoms)
    return float(np.max(np.abs(reconstructed.values - u_limit.values)))


def limit_check_applies(spec: ProblemSpec) -> bool:
    """An indicator datum whose sampled values are compactly supported:
    f > 0 at some node and f = 0 at every boundary node.  For an indicator
    that is its box strictly inside the domain on every axis, holding a node."""
    f = spec.datum_values()
    return (isinstance(spec.datum, IndicatorDatum) and bool(np.any(f > 0))
            and not np.any(f[spec.grid.frame_mask()]))


@dataclass(frozen=True)
class LimitCheck:
    histogram: MeasureHistogram
    atoms: MeasureData               # the mass projected onto the boundary of omega
    gap: float                       # sup |u_rec - u_limit|


def check_limit(u_limit: GridFunction, spec: ProblemSpec, n: float,
                shell_distances: Sequence[float] = ()) -> LimitCheck:
    """The histogram of f/u^n, its limit measure (extracted once) and the
    limit-equation gap, on the field's A: the one the solve of u_limit used."""
    hist = measure_histogram(u_limit, spec, n, shell_distances)
    atoms = extract_atoms(hist)
    return LimitCheck(hist, atoms, limit_equation_check(
        u_limit, hist, spec.coefficients, atoms=atoms))


# --- sweep orchestration ----------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    n: float
    sup_norm: float
    compacta_min: tuple
    total_mass: float
    local_masses: tuple
    quasilinear_residual: float
    certificate: Optional[float]     # None when f = 0
    fitted_depth: tuple
    v_sup: float
    v_h1_seminorm: float
    failed: bool = False
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepReport:
    spec: ProblemSpec
    n_list: tuple
    compacta: tuple
    rows: tuple
    limit_u: Optional[GridFunction]
    histogram: Optional[MeasureHistogram]
    limit_check: Optional[float]
    traces: tuple         # per row its solve's RegularizedIterates; None if it failed


def h1_seminorm_stack(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Discrete H^1 seminorm of each row of the (k, *shape) stack v."""
    k, vol = len(v), grid.cell_volume()
    total = 0.0
    for ax, h in enumerate(grid.h):
        total = total + np.sum(((np.diff(v, axis=ax + 1) / h) ** 2).reshape(k, -1),
                               axis=-1) * vol
    return np.sqrt(total)


def compactum_min_stack(u: np.ndarray, masks: np.ndarray, boxes: Sequence) -> np.ndarray:
    """min of u over each box, (k, c), for a (k, nodes) stack u and the
    boxes' (c, nodes) masks."""
    empty = ~masks.any(axis=-1)
    if empty.any():
        raise ValueError(f"compactum {boxes[np.argmax(empty)]} contains no grid nodes")
    return np.min(np.broadcast_to(u[:, None], (len(u),) + masks.shape), axis=-1,
                  where=masks, initial=np.inf)


def describe_stack(spec: ProblemSpec, ns: Sequence[float], u: np.ndarray,
                   compacta: Sequence = (),
                   residual_floor: float = RESIDUAL_FLOOR) -> list[SweepRow]:
    """`describe_solution` of each row of the (k, *shape) stack u, the
    solutions of spec's datum at the exponents ns, all rows at once.

    Each diagnostic is one kernel call on the whole stack; the compacta's
    masks and the support of f are computed once.  The log depth z is only
    evaluated where a fitted depth is asked for.
    """
    grid, f = spec.grid, spec.datum_values()
    k, gamma = len(ns), np.asarray(ns, dtype=float)
    flat = u.reshape(k, -1)
    positive = np.max(f) > 0
    v = quasilinear_stack(u, gamma)
    _, _, residual = quasilinear_residual_stack(v, gamma, f, spec.coefficients,
                                                residual_floor)
    masks = box_masks(grid, compacta)
    mins = compactum_min_stack(flat, masks, compacta)
    density = mass_density_stack(u, gamma, f).reshape(k, -1)
    total = mass_stack(density, grid.cell_volume())
    local = mass_stack(density, grid.cell_volume(), masks)
    sup = np.max(np.abs(flat), axis=-1)
    certificate = (certificate_stack(sup, gamma, f).tolist() if positive
                   else [None] * k)
    depth = (fitted_depth_stack(log_depth_stack(flat, gamma), masks, compacta, f)
             .tolist() if positive and compacta else [[None] * len(compacta)] * k)
    v_sup = np.max(np.abs(v.reshape(k, -1)), axis=-1)
    h1 = h1_seminorm_stack(v, grid)
    columns = zip(sup.tolist(), map(tuple, mins.tolist()), total.tolist(),
                  map(tuple, local.tolist()), residual.tolist(), certificate,
                  map(tuple, depth), v_sup.tolist(), h1.tolist())
    return [SweepRow(float(n), *row) for n, row in zip(ns, columns)]


def describe_solution(sol: SingularSolution, compacta: Sequence = (),
                      residual_floor: float = RESIDUAL_FLOOR) -> SweepRow:
    """The row the paper reads off u_n, n = sol.spec.gamma: sup u_n, the
    masses of f/u_n^n, compacta minima and fitted depths, and for
    v_n = u_n^(n+1)/(n+1) its norms and quasilinear residual (masked where
    v_n < residual_floor).  The certificate and the fitted depths are None
    when f = 0: no node of a compactum then carries a lower bound.
    `describe_stack` of one row.
    """
    (row,) = describe_stack(sol.spec, [sol.spec.gamma], sol.u.values[None],
                            compacta, residual_floor)
    return row


def _failed_row(n: float, error: Exception, compacta) -> SweepRow:
    """The row of an exponent whose solve failed: NaN values, the error's text."""
    nans = (math.nan,) * len(compacta)
    return SweepRow(n, math.nan, nans, math.nan, nans, math.nan, math.nan,
                    nans, math.nan, math.nan, failed=True, error=str(error))


def check_n_list(n_list: Sequence[float]) -> list[float]:
    """The sweep exponents as floats: each passes `analytic.check_n` (finite,
    at least 3), and the list is strictly increasing."""
    ns = [check_n(n) for n in n_list]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    return ns


def run_sweep(spec: ProblemSpec, n_list: Sequence[float],
              compacta: Sequence = (), *,
              shell_distances: Sequence[float] = (),
              m_schedule: Optional[Sequence[float]] = None,
              residual_floor: float = RESIDUAL_FLOOR) -> SweepReport:
    """The exponents' singular solves in lockstep (`solve_lockstep`), the
    successful rows described as one stack (`describe_stack`).

    Every exponent and the limit check share the field's A
    (`CoefficientField.operator`).
    Numeric per-row failures (a nonlinear or linear solve that does not
    converge) are recorded in the row and the other rows continue; any
    other exception propagates.  The largest successful solve doubles as
    the empirical pointwise limit; when `limit_check_applies` to the datum,
    `check_limit` attaches the concentration histogram and the measure-data
    reconstruction gap (None when the check does not apply).
    """
    ns = check_n_list(n_list)
    outcomes = solve_lockstep(spec, ns, m_schedule)
    solved = [s if isinstance(s, SingularSolution) else None for s in outcomes]
    ok = [s for s in solved if s is not None]
    # the successful rows, described as one stack, in the order of ns
    described = iter(describe_stack(spec, [s.spec.gamma for s in ok],
                                    np.stack([s.u.values for s in ok]),
                                    compacta, residual_floor) if ok else ())
    rows = tuple(next(described) if s is not None else _failed_row(n, outcome, compacta)
                 for n, s, outcome in zip(ns, solved, outcomes))
    last_sol = ok[-1] if ok else None
    limit_u = last_sol.u if last_sol is not None else None
    check = (check_limit(limit_u, spec, last_sol.spec.gamma, shell_distances)
             if last_sol is not None and limit_check_applies(spec) else None)
    return SweepReport(spec, tuple(ns), tuple(compacta), rows, limit_u,
                       check.histogram if check else None,
                       check.gap if check else None,
                       tuple(s.trace if s is not None else None for s in solved))


# --- harmonic comparison (reported, never asserted) -------------------------------

@dataclass(frozen=True)
class ConjectureReport:
    n: float
    harmonic_gap: float       # sup |u_n - harmonic| outside the support closure
    outer_v_sup: float        # sup of v_n outside the support
    inner_boundary_value: float   # boundary value imposed on the support edge
    nodes_compared: int


def conjecture_experiment(spec: ProblemSpec, n_large: float, *,
                          m_schedule: Optional[Sequence[float]] = None
                          ) -> ConjectureReport:
    """Compare u_n with the harmonic profile outside the support closure.

    The profile is the discrete harmonic lift of the box's interior nodes
    for the problem's own A = -div(M grad) (`SparseOperator.harmonic_lift`,
    to CG_RELATIVE_TOL): 1 on the box, A-harmonic outside it and 0 on the
    boundary; only its values outside the box are compared.  The datum must
    be an indicator (ValueError otherwise); any M qualifies.
    Emits numbers only; nothing here is asserted.  The field's A and its
    one multigrid hierarchy serve the solve and the profile.
    """
    omega = spec.omega_box()
    if omega is None:
        raise ValueError("harmonic comparison requires an indicator datum")
    op = spec.coefficients.operator
    sol = solve_singular(spec.with_gamma(float(n_large)), m_schedule)
    box = spec.grid.box_mask(omega)
    interior = (slice(1, -1),) * spec.grid.dim
    harmonic = op.full_from_interior(op.harmonic_lift(box[interior].ravel()))

    outside = ~box
    gap = float(np.max(np.abs(sol.u.values - harmonic.values)[outside], initial=0.0))
    outer_v = float(np.max(to_quasilinear(sol.u, n_large).values[outside], initial=0.0))
    return ConjectureReport(float(n_large), gap, outer_v, 1.0,
                            int(np.sum(outside)))
