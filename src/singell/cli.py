"""Command-line front end.

Commands (the COMMANDS table): solve, sweep, oned, limit-check, conjecture.
Each takes --config <path> and --out <dir>; solve additionally accepts --n to
override the exponent.  Every command but solve reads its exponents from
sweep.n_list, which must then be non-empty, and at most analytic.N_CAP for
oned; limit-check needs `limit_check_applies`, conjecture an indicator datum.
A config that cannot be built or fails these is refused before the output
directory is made.  solve, sweep and oned write the formats that
output.formats lists; limit-check and conjecture always write their one
JSON file (limit_check.json, conjecture.json), whatever output.formats
holds.  Exit codes: 0 success, 1 numeric failure, 2 invalid config.
solution.csv has one layout in any dimension: the axis columns, then u and
v, one row per node in C order.  An undefined value is null in JSON and an
empty CSV field, and m = inf is written as null.  A failed sweep row keeps
the header's shape in sweep.csv; summary.json lists it in failed_rows and
leaves it out of total_masses.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import analytic
from .config import ConfigError, ExperimentConfig, load_config
from .operators import LinearSolveError
from .reporting import FLOAT_FORMAT, svg_line_plot, write_csv, write_json
from .solver import NonlinearSolveError, solve_singular, to_quasilinear
from .sweeps import (check_limit, conjecture_experiment, describe_solution,
                     limit_check_applies, run_sweep)

NUMERIC_ERRORS = (NonlinearSolveError, LinearSolveError, analytic.ConstructionError)


def _regularization_steps(trace) -> list[dict]:
    """Per m-step of a solve: its m (null for m = inf, which JSON cannot
    hold), Newton and CG iterations, stall and residual."""
    return [{"m": it.m if math.isfinite(it.m) else None, "iterations": it.iterations,
             "linear_iterations": it.linear_iterations, "stalled": it.stalled,
             "residual": it.residual} for it in trace]


def cmd_solve(config: ExperimentConfig, out: Path) -> int:
    spec = config.spec
    grid = spec.grid
    sol = solve_singular(spec, config.m_schedule)
    u = sol.u
    v = to_quasilinear(u, spec.gamma)
    axis_names = ["t"] if grid.dim == 1 else ["x", "y"]
    if "csv" in config.formats:
        write_csv(out / "solution.csv",
                  axis_names + ["u (singular solution)", "v = u^(g+1)/(g+1)"],
                  np.column_stack([u.values.ravel(), v.values.ravel()]), grid=grid)

    row = describe_solution(sol, residual_floor=config.residual_floor)
    summary = {
        "label": config.label,
        "tolerances": config.tolerances,
        "gamma": spec.gamma,
        "sup_norm_u": row.sup_norm,
        "sup_norm_v": row.v_sup,
        "total_mass": row.total_mass,
        "stabilized": sol.stabilized,
        "schedule_gap": sol.gap if math.isfinite(sol.gap) else None,
        "quasilinear_residual": row.quasilinear_residual,
        "linfty_certificate": row.certificate,
        "regularization_steps": _regularization_steps(sol.trace),
    }
    if "json" in config.formats:
        write_json(out / "summary.json", summary)
    if "svg" in config.formats:
        # the line along the first axis through the middle of the others
        line = (slice(None),) + tuple(n // 2 for n in grid.shape[1:])
        suffix = "" if grid.dim == 1 else " centerline"
        x = grid.axes()[0].tolist()
        series = {name + suffix: (x, w.values[line].tolist())
                  for name, w in (("u", u), ("v", v))}
        svg_line_plot(out / "profile.svg", series,
                      title=f"{config.label}: gamma = {spec.gamma:g}",
                      xlabel=axis_names[0], ylabel="value")
    return 0


def cmd_sweep(config: ExperimentConfig, out: Path) -> int:
    report = run_sweep(config.spec, config.n_list, config.compacta,
                       shell_distances=config.shell_distances,
                       m_schedule=config.m_schedule,
                       residual_floor=config.residual_floor)
    k = len(config.compacta)
    header = (["n (exponent)", "sup_norm_u", "total_mass (integral f/u^n)"]
              + [f"min_u_compactum_{i}" for i in range(k)]
              + [f"local_mass_compactum_{i}" for i in range(k)]
              + [f"fitted_depth_compactum_{i}" for i in range(k)]
              + ["quasilinear_residual", "linfty_certificate", "v_sup",
                 "v_h1_seminorm", "error"])
    rows = [[r.n, r.sup_norm, r.total_mass, *r.compacta_min, *r.local_masses,
             *r.fitted_depth, r.quasilinear_residual, r.certificate, r.v_sup,
             r.v_h1_seminorm, r.error] for r in report.rows]
    if "csv" in config.formats:
        write_csv(out / "sweep.csv", header, rows)
    summary = {
        "label": config.label,
        "tolerances": config.tolerances,
        "n_list": list(report.n_list),
        "failed_rows": [r.n for r in report.rows if r.failed],
        "total_masses": {str(r.n): r.total_mass for r in report.rows if not r.failed},
        "histogram_total": report.histogram.total if report.histogram else None,
        "shell_fractions": (report.histogram.shell_fractions
                            if report.histogram else None),
        "limit_equation_gap": report.limit_check,
        "regularization_steps": {
            str(r.n): _regularization_steps(trace) if trace is not None else None
            for r, trace in zip(report.rows, report.traces)},
    }
    if "json" in config.formats:
        write_json(out / "summary.json", summary)
    if "svg" in config.formats:
        ok = [r for r in report.rows if not r.failed]
        ns = [r.n for r in ok]
        svg_line_plot(out / "sweep.svg",
                      {"total mass": (ns, [r.total_mass for r in ok]),
                       "sup |u|": (ns, [r.sup_norm for r in ok])},
                      title=f"{config.label}: exponent sweep",
                      xlabel="n", ylabel="value")
    return 0 if any(not r.failed for r in report.rows) else 1


def cmd_oned(config: ExperimentConfig, out: Path) -> int:
    geometry, radius = config.oned_geometry, config.oned_radius
    profile = analytic.OneDProfile
    if geometry == "matched":    # the glued profile on [0, 2]
        build, evaluate = profile.for_matched, profile.y
        sample = lambda prof: np.arange(17) / 8.0
    else:                        # the shooting profile on [0, R], up to its zero
        build, evaluate = partial(profile.for_interval, radius), profile.w
        sample = lambda prof: np.minimum(radius * np.arange(9) / 8.0, prof.t_zero)
    rows, profiles = [], {}
    for n in config.n_list:
        prof = build(n)
        rows.append([n, prof.c, analytic.lower_matching_bound(n),
                     analytic.upper_matching_bound(n), prof.t_zero,
                     prof.amplitude])
        ts = sample(prof)
        profiles["n=" + FLOAT_FORMAT % n] = (ts.tolist(),
                                             evaluate(prof, ts).tolist())
    header = ["n (exponent)", "c (profile strength)", "c_lower_bound",
              "c_upper_bound", "T (first zero)", "alpha (amplitude)"]
    if "csv" in config.formats:
        write_csv(out / "oned.csv", header, rows)
        ts0 = next(iter(profiles.values()))[0]
        prof_rows = np.column_stack([ts0, *(y for _, y in profiles.values())])
        write_csv(out / "profiles.csv", ["t", *profiles], prof_rows)
    if "json" in config.formats:
        write_json(out / "summary.json", {
            "label": config.label, "geometry": geometry,
            "rows": [dict(zip(["n", "c_n", "c_lower", "c_upper", "T_n", "alpha_n"],
                              r)) for r in rows]})
    if "svg" in config.formats:
        svg_line_plot(out / "profiles.svg", profiles,
                      title=f"{config.label}: shooting profiles ({geometry})",
                      xlabel="t", ylabel="profile")
    return 0


def cmd_limit_check(config: ExperimentConfig, out: Path) -> int:
    spec = config.spec
    n = config.n_list[-1]
    sol = solve_singular(spec.with_gamma(float(n)), config.m_schedule)
    check = check_limit(sol.u, spec, n, config.shell_distances)
    write_json(out / "limit_check.json", {
        "label": config.label,
        "n": n,
        "atoms": [{"location": list(loc), "mass": mass}
                  for loc, mass in check.atoms.atoms],
        "total_mass": check.histogram.total,
        "shell_fractions": check.histogram.shell_fractions,
        "reconstruction_gap": check.gap,
    })
    return 0


def cmd_conjecture(config: ExperimentConfig, out: Path) -> int:
    report = conjecture_experiment(config.spec, config.n_list[-1],
                                   m_schedule=config.m_schedule)
    write_json(out / "conjecture.json", {
        "label": config.label,
        "n": report.n,
        "harmonic_gap": report.harmonic_gap,
        "outer_v_sup": report.outer_v_sup,
        "inner_boundary_value": report.inner_boundary_value,
        "nodes_compared": report.nodes_compared,
    })
    return 0


COMMANDS = {"solve": cmd_solve, "sweep": cmd_sweep, "oned": cmd_oned,
            "limit-check": cmd_limit_check, "conjecture": cmd_conjecture}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    far more than a parse, and in-process callers run many commands."""
    parser = argparse.ArgumentParser(
        prog="singell",
        description="Singular elliptic solves, exponent sweeps and limit checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment JSON")
        p.add_argument("--out", required=True, help="output directory")
        if name == "solve":
            p.add_argument("--n", type=float, default=None,
                           help="override the exponent gamma")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "solve":
            if args.n is not None:
                try:
                    spec = config.spec.with_gamma(args.n)
                except ValueError as exc:
                    raise ConfigError(f"invalid --n: {exc}") from exc
                config = replace(config, spec=spec)
        elif not config.n_list:
            raise ConfigError(f"{args.command} requires a non-empty sweep.n_list")
        elif args.command == "oned" and config.n_list[-1] > analytic.N_CAP:
            raise ConfigError(f"oned evaluates profiles up to n = {analytic.N_CAP}, "
                              f"got sweep.n_list entry {config.n_list[-1]:g}")
        elif args.command == "limit-check" and not limit_check_applies(config.spec):
            raise ConfigError("limit-check requires an indicator datum that is positive "
                              "at some node and zero at every boundary node")
        elif args.command == "conjecture" and config.spec.omega_box() is None:
            raise ConfigError("harmonic comparison requires an indicator datum")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
