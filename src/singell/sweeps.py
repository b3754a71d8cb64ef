"""Exponent sweeps and the diagnostics that quantify the large-exponent limit:
sup norms, compacta minima, masses, the log-depth diagnostic, the discrete
concentration histogram, the measure-data limit-equation check, and the
harmonic-comparison experiments (reported, never asserted).

The one description of a solution: `describe_solution` turns a solve into its
`SweepRow` and `check_limit` checks the limit equation, for every command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .grids import (CoefficientField, Grid, GridFunction, IndicatorDatum,
                    ProblemSpec)
from .operators import MeasureData, SparseOperator, assemble, solve_measure
from .solver import (RESIDUAL_FLOOR, SingularSolution, linfty_certificate,
                     quasilinear_residual, singular_mass_density, solve_lockstep,
                     solve_singular, to_quasilinear, total_singular_mass)


class InconclusiveCheckError(RuntimeError):
    pass


class HarmonicComparisonError(ValueError):
    """The problem is outside the harmonic comparison's scope."""


CLUSTER_MASS_SHARE = 0.01    # a cell seeds a cluster when it holds >= 1% of total
ATOM_TIE_RTOL = 1e-9         # centroids this close (relative squared distance) tie


# --- log-depth diagnostic ------------------------------------------------------

def log_diagnostic(u: GridFunction, n: float) -> np.ndarray:
    """z = -log(u^{n+1}/(n+1)), log-domain; +inf where u = 0."""
    vals = np.full(u.grid.shape, np.inf)
    pos = u.values > 0
    vals[pos] = math.log(n + 1.0) - (n + 1.0) * np.log(u.values[pos])
    return vals


def fitted_depth_bound(u: GridFunction, n: float, box,
                       f_values: Optional[np.ndarray] = None) -> float:
    """sup of z^+ over the compactum; the empirical lower-bound constant.

    Nodes where u = 0 map to +inf and are excluded when they lie outside the
    support of f (they carry no lower-bound information there).
    """
    z = log_diagnostic(u, n)
    mask = u.grid.box_mask(box)
    if f_values is not None:
        mask &= ~(np.isinf(z) & (f_values == 0.0))
    if not np.any(mask):
        raise ValueError(f"compactum {box} contains no admissible nodes")
    return float(np.max(np.maximum(z[mask], 0.0)))


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


def _distance_to_box_boundary(grid: Grid, omega) -> np.ndarray:
    """Distance from each node to the boundary of the sub-box omega.

    This is |signed distance| of the box: per axis, the excess of the node
    over the box extent is negative inside and positive outside.
    """
    lo, hi = omega
    excess = np.stack([np.maximum(a - x, x - b)
                       for x, a, b in zip(grid.meshes(), lo, hi)])
    outside = np.sqrt(np.sum(np.maximum(excess, 0.0) ** 2, axis=0))
    inside = -np.max(excess, axis=0)   # positive depth when inside
    return np.where(np.all(excess <= 0, axis=0), inside, outside)


def measure_histogram(u: GridFunction, spec: ProblemSpec, n: float,
                      shell_distances: Sequence[float] = ()) -> MeasureHistogram:
    """Per-cell masses of f/u^n and their concentration near the support edge."""
    omega = spec.omega_box()
    if omega is None:
        raise ValueError("histogram requires a compactly-contained indicator datum")
    gamma_spec = replace(spec, gamma=float(n)) if spec.gamma != n else spec
    masses = singular_mass_density(u, gamma_spec) * u.grid.cell_volume()
    total = float(np.sum(masses))
    dist = _distance_to_box_boundary(u.grid, omega)
    fractions = {float(d): float(np.sum(masses[dist <= d]) / total) if total > 0 else 0.0
                 for d in shell_distances}
    return MeasureHistogram(u.grid, masses, total, fractions, omega)


# --- atom extraction and the limit-equation check --------------------------------

def _connected_clusters(mask: np.ndarray) -> list[np.ndarray]:
    """Connected components of a boolean node mask (2 / 4 neighborhood)."""
    clusters = []
    visited = np.zeros_like(mask)
    idxs = np.argwhere(mask)
    for start in idxs:
        start = tuple(start)
        if visited[start]:
            continue
        stack = [start]
        comp = []
        visited[start] = True
        while stack:
            node = stack.pop()
            comp.append(node)
            for ax in range(mask.ndim):
                for step in (-1, 1):
                    nb = list(node)
                    nb[ax] += step
                    if 0 <= nb[ax] < mask.shape[ax]:
                        nb_t = tuple(nb)
                        if mask[nb_t] and not visited[nb_t]:
                            visited[nb_t] = True
                            stack.append(nb_t)
        clusters.append(np.array(comp))
    return clusters


def extract_atoms(hist: MeasureHistogram) -> MeasureData:
    """Collapse the histogram to point masses.

    Cells holding at least 1% of the total mass seed connected clusters;
    every cell's mass is then assigned to the nearest cluster centroid, so
    the atoms carry the full histogram mass.  A cell whose squared distances
    to several centroids are within ATOM_TIE_RTOL of the nearest splits its
    mass equally among them, so mirror-symmetric data give equal atoms.
    """
    total = hist.total
    if total <= 0:
        return MeasureData(())
    mask = hist.cell_masses >= CLUSTER_MASS_SHARE * total
    clusters = _connected_clusters(mask)
    if not clusters:
        raise InconclusiveCheckError("no concentration cluster found")
    meshes = hist.grid.meshes()
    centroids = []
    for comp in clusters:
        sel = tuple(comp.T)
        w = hist.cell_masses[sel]
        centroids.append(tuple(float(np.sum(m[sel] * w) / np.sum(w)) for m in meshes))
    coords = np.stack([m.ravel() for m in meshes], axis=1)
    cents = np.asarray(centroids)
    d2 = ((coords[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    nearest = d2 <= (1.0 + ATOM_TIE_RTOL) * np.min(d2, axis=1, keepdims=True)
    masses = hist.cell_masses.ravel() @ (nearest / np.sum(nearest, axis=1, keepdims=True))
    return MeasureData(tuple(zip(centroids, masses.tolist())))


def _cluster_separation(atoms: MeasureData) -> float:
    locs = [np.asarray(loc) for loc, _ in atoms.atoms]
    if len(locs) < 2:
        return np.inf
    return min(float(np.linalg.norm(a - b))
               for i, a in enumerate(locs) for b in locs[i + 1:])


def limit_equation_check(u_limit: GridFunction, hist: MeasureHistogram,
                         coefficients: CoefficientField, *,
                         atoms: Optional[MeasureData] = None) -> float:
    """Reconstruct u from the collapsed measure and return sup |u_rec - u_limit|.

    `atoms` is `extract_atoms(hist)`, extracted here when not given.
    Clusters closer than 4h are not separable on the grid and the check is
    inconclusive.
    """
    if atoms is None:
        atoms = extract_atoms(hist)
    h_max = max(hist.grid.h)
    if _cluster_separation(atoms) <= 4.0 * h_max:
        raise InconclusiveCheckError("concentration clusters are not separable")
    op = assemble(hist.grid, coefficients)
    reconstructed = solve_measure(op, atoms)
    return float(np.max(np.abs(reconstructed.values - u_limit.values)))


def limit_check_applies(spec: ProblemSpec) -> bool:
    """An indicator datum with compact support (`ProblemSpec` has put its box inside)."""
    return spec.support == "compact" and isinstance(spec.datum, IndicatorDatum)


@dataclass(frozen=True)
class LimitCheck:
    histogram: MeasureHistogram
    atoms: Optional[MeasureData]     # None when no cluster was found
    gap: Optional[float]             # sup |u_rec - u_limit|; None if inconclusive
    inconclusive: Optional[str] = None   # why, when it is


def check_limit(u_limit: GridFunction, spec: ProblemSpec, n: float,
                shell_distances: Sequence[float] = ()) -> LimitCheck:
    """The histogram of f/u^n, its atoms (extracted once) and the
    limit-equation gap; an inconclusive check keeps the histogram and says why."""
    hist = measure_histogram(u_limit, spec, n, shell_distances)
    try:
        atoms = extract_atoms(hist)
        gap = limit_equation_check(u_limit, hist, spec.coefficients, atoms=atoms)
    except InconclusiveCheckError as exc:
        return LimitCheck(hist, None, None, str(exc))
    return LimitCheck(hist, atoms, gap)


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


def _h1_seminorm(v: GridFunction) -> float:
    vol = v.grid.cell_volume()
    return math.sqrt(sum(float(np.sum((np.diff(v.values, axis=ax) / h) ** 2)) * vol
                         for ax, h in enumerate(v.grid.h)))


def compactum_min(u: GridFunction, box) -> float:
    mask = u.grid.box_mask(box)
    if not np.any(mask):
        raise ValueError(f"compactum {box} contains no grid nodes")
    return float(np.min(u.values[mask]))


def describe_solution(sol: SingularSolution, compacta: Sequence = (),
                      residual_floor: float = RESIDUAL_FLOOR) -> SweepRow:
    """The row the paper reads off u_n, n = sol.spec.gamma: sup u_n, the
    masses of f/u_n^n, compacta minima and fitted depths, and for
    v_n = u_n^(n+1)/(n+1) its norms and quasilinear residual (masked where
    v_n < residual_floor).  The certificate and the fitted depths are None
    when f = 0: no node of a compactum then carries a lower bound.
    """
    spec, u = sol.spec, sol.u
    n, f = spec.gamma, spec.datum_values()
    positive = np.max(f) > 0
    v = to_quasilinear(u, n)
    res = quasilinear_residual(v, n, f, coefficients=spec.coefficients,
                               floor=residual_floor)
    return SweepRow(
        n=float(n),
        sup_norm=u.sup_norm(),
        compacta_min=tuple(compactum_min(u, box) for box in compacta),
        total_mass=total_singular_mass(u, spec),
        local_masses=tuple(total_singular_mass(u, spec, box) for box in compacta),
        quasilinear_residual=res.masked_sup,
        certificate=linfty_certificate(u, n, f) if positive else None,
        fitted_depth=tuple(fitted_depth_bound(u, n, box, f) if positive else None
                           for box in compacta),
        v_sup=v.sup_norm(),
        v_h1_seminorm=_h1_seminorm(v),
    )


def _sweep_row(n: float, outcome, compacta,
               residual_floor: float) -> SweepRow:
    """The row of exponent n from its lockstep outcome: `describe_solution`
    of its solve, or a failed row (NaN values, the error's text)."""
    if isinstance(outcome, SingularSolution):
        return describe_solution(outcome, compacta, residual_floor)
    nans = (math.nan,) * len(compacta)
    return SweepRow(n, math.nan, nans, math.nan, nans, math.nan, math.nan,
                    nans, math.nan, math.nan, failed=True, error=str(outcome))


def check_n_list(n_list: Sequence[float]) -> list[float]:
    """The sweep exponents as floats: finite, strictly increasing, each at least 3."""
    ns = [float(n) for n in n_list]
    if not all(math.isfinite(n) for n in ns):
        raise ValueError("sweep exponents must be finite")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    if any(n < 3 for n in ns):
        raise ValueError("sweep exponents must be >= 3")
    return ns


def run_sweep(spec: ProblemSpec, n_list: Sequence[float],
              compacta: Sequence = (), *,
              shell_distances: Sequence[float] = (),
              m_schedule: Optional[Sequence[int]] = None,
              residual_floor: float = RESIDUAL_FLOOR) -> SweepReport:
    """The exponents' singular solves in lockstep (`solve_lockstep`), each
    row from `describe_solution`.

    A is assembled once and shared by every exponent.  Numeric per-row
    failures (a nonlinear or linear solve that does not converge) are
    recorded in the row and the other rows continue; any other exception
    propagates.  The largest successful solve doubles as the empirical
    pointwise limit; when `limit_check_applies` to the datum, `check_limit`
    attaches the concentration histogram and the measure-data
    reconstruction gap (None when the check is inconclusive).
    """
    ns = check_n_list(n_list)
    op = assemble(spec.grid, spec.coefficients)
    outcomes = solve_lockstep(spec, ns, m_schedule, operator=op)
    solved = [s if isinstance(s, SingularSolution) else None for s in outcomes]
    last_sol = next((s for s in reversed(solved) if s is not None), None)
    limit_u = last_sol.u if last_sol is not None else None
    check = (check_limit(limit_u, spec, last_sol.spec.gamma, shell_distances)
             if last_sol is not None and limit_check_applies(spec) else None)
    return SweepReport(spec, tuple(ns), tuple(compacta),
                       tuple(_sweep_row(n, s, compacta, residual_floor)
                             for n, s in zip(ns, outcomes)),
                       limit_u,
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


def _harmonic_outside(op: SparseOperator, omega) -> GridFunction:
    """Laplace solve on the grid restriction of the domain minus the sub-box;
    `op` is the operator assembled with identity coefficients on its grid.

    Dirichlet data: 1 on the sub-box edge (box nodes with a grid neighbour
    outside the box), 0 strictly inside the sub-box and on the outer
    boundary, which wins where the two meet.  The box nodes are eliminated
    symmetrically, so the solve runs on the whole interior grid: their rows
    and columns of the Laplacian are replaced by its diagonal.
    """
    grid = op.grid
    box = grid.box_mask(omega)
    near_outside = np.zeros_like(box)
    for axis in range(grid.dim):
        for step in (-1, 1):
            # wraps only onto frame nodes, which are dropped below
            near_outside |= np.roll(~box, step, axis)
    interior = (slice(1, -1),) * grid.dim
    lift = (box & near_outside)[interior].ravel().astype(float)
    box = box[interior].ravel()

    rhs = np.where(box, 0.0, -op.apply(lift))
    values = op.eliminate(box).solve(rhs)
    return op.full_from_interior(np.where(box, lift, values))


def conjecture_experiment(spec: ProblemSpec, n_large: float, *,
                          m_schedule: Optional[Sequence[int]] = None
                          ) -> ConjectureReport:
    """Compare u_n with the harmonic profile outside the support closure.

    Requires identity coefficients and a compactly-contained indicator datum
    (HarmonicComparisonError otherwise).  Emits numbers only; nothing here
    is asserted.  The operator is assembled once, for the solve and the
    harmonic profile.
    """
    ident = CoefficientField.identity(spec.grid)
    if not np.allclose(spec.coefficients.entries, ident.entries):
        raise HarmonicComparisonError(
            "harmonic comparison requires identity coefficients")
    omega = spec.omega_box()
    if omega is None:
        raise HarmonicComparisonError(
            "harmonic comparison requires an indicator datum")
    op = assemble(spec.grid, spec.coefficients)
    sol = solve_singular(replace(spec, gamma=float(n_large)), m_schedule, operator=op)
    harmonic = _harmonic_outside(op, omega)

    outside = ~spec.grid.box_mask(omega)
    gap = float(np.max(np.abs(sol.u.values - harmonic.values)[outside], initial=0.0))
    outer_v = float(np.max(to_quasilinear(sol.u, n_large).values[outside], initial=0.0))
    return ConjectureReport(float(n_large), gap, outer_v, 1.0,
                            int(np.sum(outside)))
