"""Exponent sweeps and the diagnostics that quantify the large-exponent limit:
sup norms, compacta minima, masses, the log-depth diagnostic, the discrete
concentration histogram, the measure-data limit-equation check, and the
harmonic-comparison experiments (reported, never asserted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .grids import (CoefficientField, Grid, GridFunction, IndicatorDatum,
                    ProblemSpec)
from .operators import LinearSolveError, MeasureData, assemble, solve_measure
from .solver import (NonlinearSolveError, SingularSolution, linfty_certificate,
                     quasilinear_residual, singular_mass_density,
                     solve_singular, to_quasilinear, total_singular_mass)


class InconclusiveCheckError(RuntimeError):
    pass


class HarmonicComparisonError(ValueError):
    """The problem is outside the harmonic comparison's scope."""


DEFAULT_RESIDUAL_FLOOR = 1e-10
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
    if spec.support == "compact" and not isinstance(spec.datum, IndicatorDatum):
        raise ValueError("histogram shells require an indicator datum")
    omega = spec.omega_box()
    if omega is None:
        raise ValueError("histogram requires a compactly-contained indicator datum")
    gamma_spec = replace(spec, gamma=float(n)) if spec.gamma != n else spec
    masses = singular_mass_density(u, gamma_spec) * u.grid.cell_volume()
    total = float(np.sum(masses))
    dist = _distance_to_box_boundary(u.grid, omega)
    fractions = {}
    for d in shell_distances:
        if total > 0:
            fractions[float(d)] = float(np.sum(masses[dist <= d]) / total)
        else:
            fractions[float(d)] = 0.0
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
                         coefficients: CoefficientField) -> float:
    """Reconstruct u from the collapsed measure and return sup |u_rec - u_limit|.

    Clusters closer than 4h are not separable on the grid and the check is
    inconclusive.
    """
    atoms = extract_atoms(hist)
    h_max = max(hist.grid.h)
    if _cluster_separation(atoms) <= 4.0 * h_max:
        raise InconclusiveCheckError("concentration clusters are not separable")
    op = assemble(hist.grid, coefficients)
    reconstructed = solve_measure(op, atoms)
    return float(np.max(np.abs(reconstructed.values - u_limit.values)))


# --- sweep orchestration ----------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    n: float
    sup_norm: float
    compacta_min: tuple
    total_mass: float
    local_masses: tuple
    quasilinear_residual: float
    certificate: float
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


def _h1_seminorm(v: GridFunction) -> float:
    grid = v.grid
    vol = grid.cell_volume()
    acc = 0.0
    for ax in range(grid.dim):
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        diff = (v.values[tuple(hi)] - v.values[tuple(lo)]) / grid.h[ax]
        acc += float(np.sum(diff ** 2)) * vol
    return math.sqrt(acc)


def _sweep_row(spec: ProblemSpec, n: float, compacta, m_schedule,
               residual_floor: float) -> tuple[SweepRow, Optional[SingularSolution]]:
    spec_n = replace(spec, gamma=float(n))
    try:
        sol = solve_singular(spec_n, m_schedule, compacta=compacta)
    except (NonlinearSolveError, LinearSolveError) as exc:
        # numeric per-row failures are recorded, the sweep continues
        row = SweepRow(n, math.nan, (), math.nan, (), math.nan, math.nan, (),
                       math.nan, math.nan, failed=True, error=str(exc))
        return row, None
    u = sol.u
    f = spec_n.datum_values()
    v = to_quasilinear(u, n)
    res = quasilinear_residual(v, n, f, floor=residual_floor)
    row = SweepRow(
        n=float(n),
        sup_norm=sol.diagnostics["sup_norm"],
        compacta_min=sol.diagnostics["compacta_min"],
        total_mass=sol.diagnostics["total_mass"],
        local_masses=tuple(total_singular_mass(u, spec_n, box) for box in compacta),
        quasilinear_residual=res.masked_sup,
        certificate=linfty_certificate(u, n, f),
        fitted_depth=tuple(fitted_depth_bound(u, n, box, f) for box in compacta),
        v_sup=v.sup_norm(),
        v_h1_seminorm=_h1_seminorm(v),
    )
    return row, sol


def run_sweep(spec: ProblemSpec, n_list: Sequence[float],
              compacta: Sequence = (), *,
              shell_distances: Sequence[float] = (),
              m_schedule: Optional[Sequence[int]] = None,
              residual_floor: float = DEFAULT_RESIDUAL_FLOOR) -> SweepReport:
    """One singular solve per exponent, all diagnostics filled.

    Numeric per-row failures (a nonlinear or linear solve that does not
    converge) are recorded in the row and the sweep continues; any other
    exception propagates.  The largest successful solve doubles as the
    empirical pointwise limit; when the datum is a compactly-contained
    indicator the concentration histogram and the measure-data reconstruction
    check are attached.
    """
    ns = [float(n) for n in n_list]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    if any(n < 3 for n in ns):
        raise ValueError("sweep exponents must be >= 3")

    results = [_sweep_row(spec, n, compacta, m_schedule, residual_floor)
               for n in ns]

    rows = tuple(r for r, _ in results)
    last_sol = next((s for _, s in reversed(results) if s is not None), None)

    histogram = None
    limit_check = None
    limit_u = last_sol.u if last_sol is not None else None
    if (last_sol is not None and spec.support == "compact"
            and isinstance(spec.datum, IndicatorDatum)):
        n_last = next(r.n for r in reversed(rows) if not r.failed)
        histogram = measure_histogram(limit_u, spec, n_last, shell_distances)
        try:
            limit_check = limit_equation_check(limit_u, histogram,
                                               spec.coefficients)
        except InconclusiveCheckError:
            limit_check = None
    return SweepReport(spec, tuple(ns), tuple(compacta), rows, limit_u,
                       histogram, limit_check)


# --- harmonic comparison (reported, never asserted) -------------------------------

@dataclass(frozen=True)
class ConjectureReport:
    n: float
    harmonic_gap: float       # sup |u_n - harmonic| outside the support closure
    outer_v_sup: float        # sup of v_n outside the support
    inner_boundary_value: float   # boundary value imposed on the support edge
    nodes_compared: int


def _harmonic_outside(grid: Grid, omega) -> GridFunction:
    """Laplace solve on the grid restriction of the domain minus the sub-box.

    Dirichlet data: 1 on the sub-box edge (box nodes with a grid neighbour
    outside the box), 0 strictly inside the sub-box and on the outer
    boundary, which wins where the two meet.  The box nodes are eliminated
    symmetrically, so the solve runs on the whole interior grid: their rows
    and columns of the Laplacian are replaced by its diagonal.
    """
    box = grid.box_mask(omega)
    near_outside = np.zeros_like(box)
    for axis in range(grid.dim):
        for step in (-1, 1):
            # wraps only onto frame nodes, which are dropped below
            near_outside |= np.roll(~box, step, axis)
    interior = (slice(1, -1),) * grid.dim
    lift = (box & near_outside)[interior].ravel().astype(float)
    box = box[interior].ravel()

    op = assemble(grid, CoefficientField.identity(grid))
    rhs = np.where(box, op.matrix.diagonal() * lift, -op.apply(lift))
    values = op.eliminate(box).solve(rhs)
    return op.full_from_interior(np.where(box, lift, values))


def conjecture_experiment(spec: ProblemSpec, n_large: float, *,
                          m_schedule: Optional[Sequence[int]] = None
                          ) -> ConjectureReport:
    """Compare u_n with the harmonic profile outside the support closure.

    Requires identity coefficients and a compactly-contained indicator datum
    (HarmonicComparisonError otherwise).  Emits numbers only; nothing here
    is asserted.
    """
    ident = CoefficientField.identity(spec.grid)
    if not np.allclose(spec.coefficients.entries, ident.entries):
        raise HarmonicComparisonError(
            "harmonic comparison requires identity coefficients")
    omega = spec.omega_box()
    if omega is None:
        raise HarmonicComparisonError(
            "harmonic comparison requires an indicator datum")
    spec_n = replace(spec, gamma=float(n_large))
    sol = solve_singular(spec_n, m_schedule)
    harmonic = _harmonic_outside(spec.grid, omega)

    outside = ~spec.grid.box_mask(omega)
    gap = float(np.max(np.abs(sol.u.values[outside] - harmonic.values[outside]))) \
        if np.any(outside) else 0.0
    v = to_quasilinear(sol.u, n_large)
    outer_v = float(np.max(v.values[outside])) if np.any(outside) else 0.0
    return ConjectureReport(float(n_large), gap, outer_v, 1.0,
                            int(np.sum(outside)))
