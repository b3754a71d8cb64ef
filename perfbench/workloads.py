"""The three benchmark workloads: generated configs, one timed pass, checks.

Every workload drives the in-process CLI (`singell.cli.main`) in a closed
loop: one client, each command starting after the previous one returns.  A
workload owns its generated configs and output directories under `work`;
`run_pass` is the timed body and `check_pass` reads the pass's outputs
afterwards (untimed), adding one operation per check to `ops`.  Library
calls go through `singell.<name>` at call time, so that a traced run's
wrappers see them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import singell
import singell.cli
from singell.config import load_config

from tracing import ancestors

# err_exact sanity bound: about 1.5x the solver's first-order error against
# the closed form at 1024 cells (1.73e-3 at n = 80, the worst exponent).
ERR_EXACT_MAX = 2.5e-3
# square-2d reference tolerances: a tenth of the first-order discretization
# error (~1.5e-3) on u-valued outputs; the mass f/u^20 amplifies a relative
# change in u by the exponent, hence 20 x 1.5e-4.
SQUARE_U_TOL = 1.5e-4
SQUARE_MASS_RTOL = 3e-3
# analytic identities (criterion 3a and the inversion round trip)
ANALYTIC_TOL = 1e-9
# v_n -> v_infinity at rate 1/n: n * sup|v_n - v_inf| is 0.89..0.99 on [3, 400]
LIMIT_RATE_MAX = 1.5

SQUARE_CELLS = 128
SQUARE_SIDES = (7, 8, 9)           # box side in sixteenths
SHIPPED_BOX = (4, 8, 4, 8)         # (x corner, x side, y corner, y side) / 16
PROFILE_EXPONENTS = 32
PROFILE_V_POINTS = 401


class Ops:
    """Operation ledger: CLI commands, sweep rows and correctness checks."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.log(f"FAILED {name}: {detail}")
        return ok


def _write_config(path: Path, raw: dict) -> str:
    path.write_text(json.dumps(raw, indent=2) + "\n")
    return str(path)


def _cli(command: str, config: str, out: Path) -> int:
    return singell.cli.main([command, "--config", config, "--out", str(out)])


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def err_exact(matched_config: str, exponents) -> float:
    """max over n of sup |u_n - u_n^exact| on the matched 1-D problem."""
    config = load_config(matched_config)
    t = config.spec.grid.axes()[0]
    worst = 0.0
    for n in exponents:
        sol = singell.solve_singular(replace(config.spec, gamma=float(n)),
                             config.m_schedule)
        exact = singell.OneDProfile.for_matched(float(n)).u(t)
        worst = max(worst, float(np.max(np.abs(sol.u.values - exact))))
    return worst


class Workload:
    name = ""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work

    def shipped(self, name: str) -> dict:
        return json.loads((self.root / "configs" / name).read_text())

    def before_pass(self, index: int) -> None:
        """Untimed preparation of pass `index`; pass 0 is prepared in set-up."""

    def run_pass(self) -> None:
        raise NotImplementedError

    def check_pass(self, ops: Ops) -> None:
        raise NotImplementedError

    def check_trace(self, spans: list, pass_index: int, ops: Ops) -> None:
        """Checks on a traced pass's spans, beyond the run's own."""

    def err_exact(self) -> float:
        raise NotImplementedError


class Sweep1D(Workload):
    """`sweep` then `limit-check` on the matched-indicator config."""

    name = "sweep-1d"

    def __init__(self, root, work, seed):
        super().__init__(root, work)
        raw = self.shipped("matched_indicator.json")
        if seed != 0:
            rng = np.random.default_rng(seed)
            draws = np.exp(rng.uniform(math.log(10.0), math.log(400.0), 6))
            raw["sweep"]["n_list"] = sorted(float(n) for n in draws) + [400.0]
        self.n_list = [float(n) for n in raw["sweep"]["n_list"]]
        self.tolerances = raw["sweep"]["tolerances"]
        self.config = _write_config(work / "sweep.json", raw)

    def run_pass(self):
        self.rc = (_cli("sweep", self.config, self.work / "sweep"),
                   _cli("limit-check", self.config, self.work / "limit"))

    def check_pass(self, ops):
        ops.add("cli sweep exit", self.rc[0] == 0, f"exit {self.rc[0]}")
        ops.add("cli limit-check exit", self.rc[1] == 0, f"exit {self.rc[1]}")
        summary = _read_json(self.work / "sweep" / "summary.json")
        failed = set(summary["failed_rows"])
        for n in self.n_list:
            ops.add(f"sweep row n={n:g}",
                    str(n) in summary["total_masses"] and n not in failed,
                    f"row failed or missing, failed_rows={sorted(failed)}")
        masses = [summary["total_masses"][str(n)] for n in self.n_list
                  if str(n) in summary["total_masses"]]
        factor = self.tolerances["total_mass_bound_factor"]
        ops.add("total mass bounded", bool(masses)
                and max(masses) <= factor * masses[0],
                f"masses {masses}, bound {factor} x first")
        limit = _read_json(self.work / "limit" / "limit_check.json")
        gap_max = self.tolerances["reconstruction_gap_max"]
        ops.add("reconstruction gap", limit["reconstruction_gap"] <= gap_max,
                f"{limit['reconstruction_gap']:.4g} > {gap_max}")
        frac_min = self.tolerances["shell_fraction_min"]
        frac = limit["shell_fractions"].get("0.1", 0.0)
        ops.add("shell fraction within 0.1", frac >= frac_min,
                f"{frac:.4f} < {frac_min}")

    def err_exact(self):
        return err_exact(self.config, self.n_list)


def _canonical_axis(corner: int, side: int) -> tuple[int, int]:
    return min(corner, 16 - corner - side), side


def square_key(box) -> str:
    """Reference key of a box, invariant under the square's symmetries.

    The identity-coefficient problem on the unit square is invariant under
    x -> 1-x, y -> 1-y and x <-> y, so one recorded solve covers all boxes
    that these map onto each other.
    """
    ax, sx, ay, sy = box
    a, b = sorted((_canonical_axis(ax, sx), _canonical_axis(ay, sy)))
    return f"{a[0]},{a[1]};{b[0]},{b[1]}"


def square_keys() -> list[str]:
    """Every reference key the seeded box distribution can produce."""
    axes = sorted({_canonical_axis(a, s) for s in SQUARE_SIDES
                   for a in range(2, 15 - s)})
    return [f"{a[0]},{a[1]};{b[0]},{b[1]}"
            for i, a in enumerate(axes) for b in axes[i:]]


def square_box(seed: int) -> tuple[int, int, int, int]:
    """Grid-aligned inner box in sixteenths, at least 2/16 from the edge."""
    if seed == 0:
        return SHIPPED_BOX
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        side = int(rng.choice(SQUARE_SIDES))
        out += [int(rng.integers(2, 15 - side)), side]
    return tuple(out)


class Square2D(Workload):
    """`solve` then `conjecture` on the inner-box square at 128^2, n = 20."""

    name = "square-2d"

    def __init__(self, root, work, seed, box=None):
        super().__init__(root, work)
        self.box = box if box is not None else square_box(seed)
        ax, sx, ay, sy = self.box
        raw = self.shipped("square_hole.json")
        raw["problem"]["cells"] = [SQUARE_CELLS, SQUARE_CELLS]
        raw["problem"]["datum"]["box"] = [[ax / 16, ay / 16],
                                          [(ax + sx) / 16, (ay + sy) / 16]]
        self.gamma = float(raw["problem"]["gamma"])
        self.config = _write_config(work / "square.json", raw)
        self.matched = _write_config(work / "matched.json",
                                     self.shipped("matched_indicator.json"))
        refs = Path(__file__).parent / "square_refs.json"
        self.ref = (json.loads(refs.read_text()).get(square_key(self.box))
                    if refs.is_file() else None)

    def run_pass(self):
        self.rc = (_cli("solve", self.config, self.work / "solve"),
                   _cli("conjecture", self.config, self.work / "conj"))

    def outputs(self) -> dict:
        summary = _read_json(self.work / "solve" / "summary.json")
        conj = _read_json(self.work / "conj" / "conjecture.json")
        steps = summary["regularization_steps"]
        return {"sup_norm_u": summary["sup_norm_u"],
                "total_mass": summary["total_mass"],
                "harmonic_gap": conj["harmonic_gap"],
                "m_steps": len(steps),
                "newton_steps": sum(s["iterations"] for s in steps)}

    def check_pass(self, ops):
        ops.add("cli solve exit", self.rc[0] == 0, f"exit {self.rc[0]}")
        ops.add("cli conjecture exit", self.rc[1] == 0, f"exit {self.rc[1]}")
        if not ops.add("square reference recorded", self.ref is not None,
                       f"no reference for box {self.box}"):
            return
        got = self.outputs()
        for key in ("sup_norm_u", "harmonic_gap"):
            ops.add(f"square {key}",
                    abs(got[key] - self.ref[key]) <= SQUARE_U_TOL,
                    f"{got[key]!r} vs recorded {self.ref[key]!r}")
        ops.add("square total_mass",
                abs(got["total_mass"] - self.ref["total_mass"])
                <= SQUARE_MASS_RTOL * abs(self.ref["total_mass"]),
                f"{got['total_mass']!r} vs recorded {self.ref['total_mass']!r}")

    def check_trace(self, spans, pass_index, ops):
        """Traced Newton and m-step counts of `solve` match its summary.json."""
        under = [s for s in spans if s["pass"] == pass_index
                 and s["name"] == "solver.solve_regularized"
                 and any(a["name"] == "cli.main" and a.get("command") == "solve"
                         for a in ancestors(s, spans))]
        traced = (len(under), sum(s["iterations"] for s in under))
        got = self.outputs()
        ops.add("traced steps match summary.json",
                traced == (got["m_steps"], got["newton_steps"]),
                f"traced (m, newton) {traced} vs summary "
                f"{(got['m_steps'], got['newton_steps'])}")

    def err_exact(self):
        return err_exact(self.matched, [self.gamma])


class Profiles1D(Workload):
    """`oned` on matched and interval configs plus direct profile evaluation.

    Each pass draws fresh exponents, so the per-n quadrature cache never
    hits across passes; within a pass every n is reused across the two
    commands and the evaluations.
    """

    name = "profiles-1d"

    def __init__(self, root, work, seed):
        super().__init__(root, work)
        self.rng = np.random.default_rng(seed)
        self.matched_raw = self.shipped("matched_indicator.json")
        self.interval_raw = self.shipped("cubic_interval.json")
        self.interval_raw["oned"] = {"geometry": "interval", "radius": 1.0}
        self.nodes = np.linspace(-2.0, 2.0,
                                 self.matched_raw["problem"]["cells"] + 1)
        self.v_points = np.linspace(-2.0, 2.0, PROFILE_V_POINTS)
        self.first_exponents = None
        self.prepare()

    def prepare(self):
        """Draw the next pass's exponents and write its configs (untimed)."""
        ns = np.unique(self.rng.uniform(3.0, 400.0, PROFILE_EXPONENTS))
        self.ns = [float(n) for n in ns]
        if self.first_exponents is None:
            self.first_exponents = self.ns
        self.matched_raw["sweep"]["n_list"] = self.ns
        self.interval_raw["sweep"]["n_list"] = self.ns
        self.configs = (_write_config(self.work / "matched.json", self.matched_raw),
                        _write_config(self.work / "interval.json",
                                      self.interval_raw))

    def before_pass(self, index):
        if index > 0:
            self.prepare()

    def run_pass(self):
        self.rc = (_cli("oned", self.configs[0], self.work / "matched"),
                   _cli("oned", self.configs[1], self.work / "interval"))
        limit = singell.limit_profiles(geometry="matched")
        v_limit = limit.v(self.v_points)
        self.rates, self.u_end = [], []
        for n in self.ns:
            prof = singell.OneDProfile.for_matched(n)
            u = prof.u(self.nodes)
            v = prof.v(self.v_points)
            self.u_end.append(max(abs(float(u[0])), abs(float(u[-1]))))
            self.rates.append(n * float(np.max(np.abs(v - v_limit))))
        self.round_trips = []
        for n in self.ns[::8]:
            quad_gap = abs(singell.beta_integral(1.0, n)
                           - singell.beta_total_closed_form(n))
            inv = [abs(singell.beta_integral_inverse(singell.beta_integral(x, n), n)
                       - x)
                   for x in (0.1, 0.5, 0.9)]
            self.round_trips.append((n, quad_gap, max(inv)))

    def check_pass(self, ops):
        ops.add("cli oned matched exit", self.rc[0] == 0, f"exit {self.rc[0]}")
        ops.add("cli oned interval exit", self.rc[1] == 0, f"exit {self.rc[1]}")
        matched = _read_csv(self.work / "matched" / "oned.csv")
        interval = _read_csv(self.work / "interval" / "oned.csv")
        ops.add("oned rows", len(matched) == len(interval) == len(self.ns),
                f"{len(matched)} matched, {len(interval)} interval rows "
                f"for {len(self.ns)} exponents")
        for row in matched:
            n, c, lo, hi = row[:4]
            ops.add(f"matching constant in bounds n={n:g}", lo < c <= hi,
                    f"c={c!r} outside ({lo!r}, {hi!r}]")
        for row in interval:
            ops.add(f"interval first zero n={row[0]:g}",
                    abs(row[4] - 1.0) <= ANALYTIC_TOL, f"T={row[4]!r}")
        for n, rate, end in zip(self.ns, self.rates, self.u_end):
            ops.add(f"v_n -> v_inf rate n={n:g}",
                    rate <= LIMIT_RATE_MAX and end == 0.0,
                    f"n*sup|v_n-v_inf|={rate:.3g}, |u(+-2)|={end:.3g}")
        for n, quad_gap, inv in self.round_trips:
            ops.add(f"quadrature vs Gamma n={n:g}", quad_gap <= ANALYTIC_TOL,
                    f"gap {quad_gap:.3e}")
            ops.add(f"inversion round trip n={n:g}", inv <= ANALYTIC_TOL,
                    f"max error {inv:.3e}")

    def err_exact(self):
        return err_exact(self.configs[0], self.first_exponents[::2])


def _read_csv(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row] for row in rows[1:]]


WORKLOADS = {w.name: w for w in (Sweep1D, Square2D, Profiles1D)}
