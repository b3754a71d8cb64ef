"""Span tracing from outside the program, and the per-layer metrics.

`Tracer.install` wraps singell's public functions at the module attribute
where each is defined and at every singell module that imported it, plus
`scipy.sparse.linalg.splu`, through which singell makes every sparse LU
factorization.  A span records name, pass, start, end and the index of its
parent span; spans stay in memory until `Tracer.write` at exit.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

import scipy.sparse.linalg

# (module, public name) pairs traced; the span name is "<layer>.<name>".
FUNCTIONS = [
    ("singell.operators", "assemble"),
    ("singell.operators", "solve_measure"),
    ("singell.solver", "solve_singular"),
    ("singell.solver", "solve_regularized"),
    ("singell.solver", "quasilinear_residual"),
    ("singell.solver", "singular_residual"),
    ("singell.sweeps", "run_sweep"),
    ("singell.sweeps", "measure_histogram"),
    ("singell.sweeps", "extract_atoms"),
    ("singell.sweeps", "limit_equation_check"),
    ("singell.sweeps", "conjecture_experiment"),
    ("singell.analytic", "matching_constant"),
    ("singell.analytic", "beta_integral"),
    ("singell.analytic", "beta_integral_inverse"),
    ("singell.analytic", "beta_total_closed_form"),
    ("singell.config", "load_config"),
    ("singell.reporting", "write_csv"),
    ("singell.reporting", "write_json"),
    ("singell.reporting", "svg_line_plot"),
    ("singell.cli", "main"),
]
PROFILE_METHODS = ("u", "v", "w", "y")     # OneDProfile evaluators
BETA = ("analytic.beta_integral", "analytic.beta_integral_inverse",
        "analytic.beta_total_closed_form")
PROFILES = tuple(f"analytic.OneDProfile.{m}" for m in PROFILE_METHODS)
WRITERS = ("reporting.write_csv", "reporting.write_json",
           "reporting.svg_line_plot")
LU = ("operators.splu", "operators.lu_solve")

# Work counters: identical on every traced pass of one workload and seed.
COUNTERS = ("operators.lu_calls", "operators.lu_fill_nnz",
            "operators.assemble_calls", "solver.singular_calls",
            "solver.m_steps", "solver.newton_steps", "sweeps.failed_rows",
            "analytic.matching_calls", "analytic.profile_points")


def _annotate(name, rec, args, kwargs, out):
    if name == "solver.solve_regularized":
        rec["iterations"] = out.iterations
    elif name == "solver.solve_singular":
        rec["stabilized"] = bool(out.stabilized)
    elif name == "sweeps.run_sweep":
        rec["failed_rows"] = sum(1 for r in out.rows if r.failed)
    elif name in PROFILES:
        rec["points"] = int(getattr(args[1], "size", 1))
    elif name in WRITERS:
        rec["bytes"] = os.path.getsize(args[0])
    elif name == "cli.main":
        argv = args[0] if args else kwargs.get("argv")
        rec["command"] = argv[0] if argv else None


class _Factor:
    """A SuperLU factor whose triangular solves are traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, key):
        return getattr(self._lu, key)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.pass_index = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {"name": name, "pass": self.pass_index,
                   "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec["error"] = True
                raise
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
            _annotate(name, rec, args, kwargs, out)
            return out
        return traced

    def _splu(self, fn):
        traced = self.wrap("operators.splu", fn)

        @functools.wraps(fn)
        def factor(*args, **kwargs):
            at = len(self.spans)
            lu = traced(*args, **kwargs)
            # SuperLU's stored nnz of L + U, supernode padding included
            self.spans[at]["nnz"] = int(lu.nnz)
            return _Factor(lu, self.wrap("operators.lu_solve", lu.solve))
        return factor

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "singell" or k.startswith("singell.")]
        for mod_name, attr in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(f"{mod_name.split('.')[1]}.{attr}", orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)
        profile_cls = sys.modules["singell.analytic"].OneDProfile
        for meth in PROFILE_METHODS:
            self._patch(profile_cls, meth,
                        self.wrap(f"analytic.OneDProfile.{meth}",
                                  vars(profile_cls)[meth]))
        self._patch(scipy.sparse.linalg, "splu",
                    self._splu(scipy.sparse.linalg.splu))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def ancestors(span: dict, spans: list[dict]):
    """Enclosing spans of `span`, innermost first."""
    parent = span["parent"]
    while parent is not None:
        yield spans[parent]
        parent = spans[parent]["parent"]


def layer_metrics(spans: list[dict], pass_index: int) -> dict:
    """Per-layer metrics of one pass; `spans` is the whole span list."""
    mine = [(i, s) for i, s in enumerate(spans) if s["pass"] == pass_index]

    def dur(s):
        return s["end"] - s["start"]

    def named(*names):
        return [s for _, s in mine if s["name"] in names]

    def under(s_list, names):
        return [s for s in s_list
                if any(a["name"] in names for a in ancestors(s, spans))]

    def outermost(names):
        return [s for s in named(*names)
                if not any(a["name"] in names for a in ancestors(s, spans))]

    def total(s_list):
        return float(sum(dur(s) for s in s_list))

    children = {}
    for _, s in mine:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def self_time(names):
        return float(sum(dur(s) - total(children.get(i, []))
                         for i, s in mine if s["name"] in names))

    lu = named("operators.splu")
    singular = named("solver.solve_singular")
    regularized = named("solver.solve_regularized")
    newton = sum(s.get("iterations", 0) for s in regularized)
    lu_in_solver = under(lu, ("solver.solve_singular",))
    solver_inner = under(named(*LU, "operators.assemble"),
                         ("solver.solve_singular",))
    conj = named("sweeps.conjecture_experiment")
    conj_solves = under(singular, ("sweeps.conjecture_experiment",))
    fill = max((s.get("nnz", 0) for s in lu), default=0)
    profiles = outermost(PROFILES)
    return {
        "operators.lu_calls": len(lu),
        "operators.lu_s": total(lu),
        "operators.lu_solve_s": total(named("operators.lu_solve")),
        "operators.lu_fill_nnz": fill,
        "operators.lu_fill_bytes_computed": 12 * fill,
        "operators.assemble_calls": len(named("operators.assemble")),
        "operators.assemble_s": total(named("operators.assemble")),
        "operators.solve_measure_s": total(named("operators.solve_measure")),
        "solver.singular_calls": len(singular),
        "solver.singular_s": total(singular),
        "solver.m_steps": len(regularized),
        "solver.newton_steps": newton,
        "solver.self_s": total(singular) - total(solver_inner),
        "solver.lu_per_newton": len(lu_in_solver) / newton if newton else 0.0,
        "solver.stabilized_share": (statistics.fmean(
            s.get("stabilized", False) for s in singular) if singular else 0.0),
        "solver.residual_s": total(outermost(("solver.quasilinear_residual",
                                              "solver.singular_residual"))),
        "sweeps.run_sweep_s": total(named("sweeps.run_sweep")),
        "sweeps.diag_s": self_time(("sweeps.run_sweep",)),
        "sweeps.histogram_s": total(named("sweeps.measure_histogram")),
        "sweeps.limit_check_s": total(outermost(("sweeps.limit_equation_check",
                                                 "sweeps.extract_atoms"))),
        "sweeps.conjecture_self_s": total(conj) - total(conj_solves),
        "sweeps.failed_rows": sum(s.get("failed_rows", 0)
                                  for s in named("sweeps.run_sweep")),
        "analytic.matching_calls": len(named("analytic.matching_constant")),
        "analytic.matching_s": total(named("analytic.matching_constant")),
        "analytic.profile_points": sum(s.get("points", 0) for s in profiles),
        "analytic.profile_eval_s": total(profiles),
        "analytic.beta_s": total(outermost(BETA)),
        "config.load_s": total(named("config.load_config")),
        "reporting.write_s": total(named(*WRITERS)),
        "reporting.bytes": sum(s.get("bytes", 0) for s in named(*WRITERS)),
        "cli.self_s": self_time(("cli.main",)),
    }
