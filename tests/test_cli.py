import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import singell.operators as ops
from singell.cli import build_parser, main
from singell.config import load_config
from singell.grids import make_uniform_grid
from singell.reporting import svg_line_plot, write_csv
from singell.solver import NonlinearSolveError, solve_singular

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GAMMA3 = {
    "label": "gamma3-interval",
    "problem": {
        "domain": [-1.0, 1.0],
        "cells": 1024,
        "coefficients": {"kind": "identity"},
        "datum": {"kind": "constant", "value": 1.0},
        "gamma": 3.0,
    },
    "sweep": {"n_list": [3.0]},
    "output": {"formats": ["csv", "json", "svg"]},
}

SECTION6 = {
    "label": "matched-indicator",
    "problem": {
        "domain": [-2.0, 2.0],
        "cells": 1024,
        "coefficients": {"kind": "identity"},
        "datum": {"kind": "indicator", "value": 1.0, "box": [-1.0, 1.0]},
        "gamma": 10.0,
    },
    "sweep": {
        "n_list": [400.0],
        "shell_distances": [0.1],
        "compacta": [[-0.5, 0.5]],
    },
    "oned": {"geometry": "matched"},
    "output": {"formats": ["csv", "json"]},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_float_table_is_written_as_field_by_field(tmp_path):
    # an array's rows give the same bytes as the same rows as lists of floats
    rows = np.random.default_rng(3).standard_normal((40, 4)) * np.logspace(-300, 300, 4)
    rows[:4, 1] = [np.nan, np.inf, -np.inf, -0.0]
    write_csv(tmp_path / "array.csv", ["a", "b", "c", "d"], rows)
    write_csv(tmp_path / "lists.csv", ["a", "b", "c", "d"], rows.tolist())
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()


# 1-D; 2-D with unequal cells; negative and non-unit domains
@pytest.mark.parametrize("lo, hi, cells", [
    (0.0, 1.0, 16),
    ((0.0, 0.0), (1.0, 1.0), (8, 12)),
    (-2.5, 7.3, 10),
    ((-3.7, 0.1), (2.3, 0.35), (6, 9)),
])
def test_grid_table_is_written_as_its_node_table(tmp_path, lo, hi, cells):
    # each axis formatted once: the same bytes as the float table of
    # the meshes and the fields, column by column
    grid = make_uniform_grid(lo, hi, cells)
    fields = (np.random.default_rng(4).standard_normal((grid.node_count, 3))
              * np.logspace(-200, 200, 3))
    fields[:4, 0] = [0.0, 1e-300, 5e-324, -0.0]
    fields[-3:, 2] = [5e-324, 1e-300, 0.0]
    header = ["t"] if grid.dim == 1 else ["x", "y"]
    header = header + ["a", "b", "c"]
    write_csv(tmp_path / "grid.csv", header, fields, grid=grid)
    table = np.column_stack([*(mesh.ravel() for mesh in grid.meshes()), fields])
    write_csv(tmp_path / "table.csv", header, table)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()


def _polylines_by_fstrings(series, width=640, height=440):
    """The polyline points of `svg_line_plot`, one f-string per point."""
    margin_l, margin_t = 70, 40
    plot_w, plot_h = width - margin_l - 20, height - margin_t - 55
    xs = [x for xv, _ in series.values() for x in xv]
    ys = [y for _, yv in series.values() for y in yv if math.isfinite(y)]
    if not xs or not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return margin_t + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    return [" ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xv, yv)
                     if math.isfinite(y)) for xv, yv in series.values()]


def _polyline_points(path):
    return [line.split('points="')[1].split('"')[0]
            for line in path.read_text().splitlines() if line.startswith("<polyline")]


SVG_SERIES = {
    "profiles": {f"n={n}": (list(np.arange(17) / 8.0),
                            list(np.exp(-n * (np.arange(17) / 8.0) ** 2)))
                 for n in (3.0, 9.5, 400.0)},
    "non_finite": {"a": ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, math.nan, math.inf, -2.5, -math.inf]),
                   "b": ([-1.0, 5.0], [0.25, 1e-300])},
    "integers": {"a": ([1, 2, 3, 10], [4, 2, 2, 7])},
    "one_point": {"a": ([0.5], [0.5])},
    "flat": {"a": ([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])},
    "no_finite_y": {"a": ([0.0, 1.0], [math.nan, math.inf])},
    "random": {str(k): (list(np.sort(np.random.default_rng(k + 3).standard_normal(257)) * 1e3),
                        list(np.random.default_rng(k + 9).standard_normal(257) * 10.0 ** k))
               for k in range(-3, 4)},
}


@pytest.mark.parametrize("case", list(SVG_SERIES))
def test_svg_polyline_text_is_the_per_point_fstring_text(tmp_path, case):
    series = SVG_SERIES[case]
    svg_line_plot(tmp_path / "plot.svg", series, title="t", xlabel="x", ylabel="y")
    assert _polyline_points(tmp_path / "plot.svg") == _polylines_by_fstrings(series)


@pytest.mark.parametrize("config", ["cubic_interval", "matched_indicator",
                                    "uniform_interval_sweep"])
def test_shipped_svg_polylines_are_the_fstring_text(tmp_path, monkeypatch, config):
    # profile.svg, sweep.svg and profiles.svg of each shipped config with SVG
    plotted = {}

    def recorded(path, series, **kwargs):
        plotted[Path(path).name] = series
        svg_line_plot(path, series, **kwargs)

    monkeypatch.setattr("singell.cli.svg_line_plot", recorded)
    cfg = str(CONFIGS / f"{config}.json")
    for command in ("solve", "sweep", "oned"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
    assert sorted(plotted) == ["profile.svg", "profiles.svg", "sweep.svg"]
    for path in tmp_path.glob("*/*.svg"):
        assert _polyline_points(path) == _polylines_by_fstrings(plotted[path.name])


@pytest.mark.parametrize("formats", ["csv", "json", {"csv": True}, 3],
                         ids=["string", "short_string", "object", "number"])
def test_output_formats_not_a_list_is_config_error(tmp_path, capsys, formats):
    # a string is not split into its characters
    payload = json.loads(json.dumps(GAMMA3))
    payload["output"]["formats"] = formats
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output.formats must be a list of strings")
    assert repr(formats) in err
    assert not out.exists()


class TestSolveCommand:
    def test_gamma3_csv_matches_oracle(self, tmp_path):
        cfg = write_config(tmp_path, GAMMA3)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "solution.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t,")
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        t, u = data[:, 0], data[:, 1]
        mask = np.abs(t) <= 0.9
        # boundary-limited first-order scheme: ~1.3e-3 at 1024 cells
        assert np.max(np.abs(u[mask] - np.sqrt(1.0 - t[mask] ** 2))) <= 2e-3
        assert (out / "summary.json").exists()
        assert (out / "profile.svg").exists()

    def test_invalid_config_exit_2_no_files(self, tmp_path):
        bad = json.loads(json.dumps(SECTION6))
        bad["problem"]["datum"]["box"] = [-3.0, 1.0]   # not inside the domain
        cfg = write_config(tmp_path, bad)
        out = tmp_path / "out"
        assert main(["limit-check", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("schedule", [{"m_schedule_k_max": 12},
                                          {"m_schedule": []},
                                          {"m_schedule": [4, 1]},
                                          {"m_schedule": [0, 4]}],
                             ids=["removed_k_max_key", "empty", "decreasing",
                                  "zero_m"])
    def test_invalid_m_schedule_exit_2_no_files(self, tmp_path, capsys, schedule):
        bad = json.loads(json.dumps(GAMMA3))
        bad["sweep"] = {"n_list": [3.0], **schedule}
        cfg = write_config(tmp_path, bad)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_2d_solution_csv_layout(self, tmp_path):
        payload = json.loads((CONFIGS / "square_hole.json").read_text())
        payload["problem"]["cells"] = [32, 32]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "solution.csv").read_text().strip().splitlines()
        assert lines[0].startswith("x,y,")
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert data.shape == (33 * 33, 4)
        config = load_config(cfg)
        xm, ym = config.spec.grid.meshes()
        assert np.array_equal(data[:, 0], xm.ravel())
        assert np.array_equal(data[:, 1], ym.ravel())
        u = solve_singular(config.spec, config.m_schedule).u.values
        assert np.array_equal(data[:, 2], u.ravel())

    def test_support_key_rejected(self, tmp_path, capsys):
        # the data decide their support; the removed annotation is an unknown key
        old = json.loads(json.dumps(SECTION6))
        old["problem"]["support"] = "compact"
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, old),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: unknown keys ['support'] in problem")
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        bad = json.loads(json.dumps(GAMMA3))
        bad["problem"]["typo_key"] = 1
        cfg = write_config(tmp_path, bad)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_zero_datum_zero_columns(self, tmp_path):
        zero = json.loads(json.dumps(GAMMA3))
        zero["problem"]["datum"]["value"] = 0.0
        zero["problem"]["cells"] = 64
        cfg = write_config(tmp_path, zero)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "solution.csv").read_text().strip().splitlines()
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.all(data[:, 1] == 0.0)
        assert np.all(data[:, 2] == 0.0)

    def test_n_override(self, tmp_path):
        small = json.loads(json.dumps(GAMMA3))
        small["problem"]["cells"] = 128
        cfg = write_config(tmp_path, small)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out), "--n", "5"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["gamma"] == 5.0

    @pytest.mark.parametrize("n", ["0", "-3", "nan", "inf"])
    def test_invalid_n_override_is_config_error(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, GAMMA3)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out), "--n", n]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not out.exists()

    def test_one_entry_schedule_gap_is_null(self, tmp_path):
        payload = json.loads(json.dumps(GAMMA3))
        payload["problem"]["cells"] = 64
        payload["sweep"]["m_schedule"] = [1]
        payload["output"] = {"formats": ["json"]}
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schedule_gap"] is None
        assert summary["stabilized"] is False

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_shipped_config_solves_at_m_infinity(self, tmp_path, name):
        # JSON has no inf: m = inf is written as null, and the file must
        # parse without the non-standard Infinity and NaN tokens
        out = tmp_path / "out"
        assert main(["solve", "--config", str(CONFIGS / name), "--out", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"summary.json holds {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert summary["stabilized"] is True
        assert summary["schedule_gap"] is None
        (step,) = summary["regularization_steps"]
        assert step["m"] is None and step["iterations"] > 0
        # every start is one linear solve at most: no base Newton solve to report
        assert "base_iterations" not in summary

    @pytest.mark.parametrize("schedule", [None, [4, 64, 1024]], ids=["default", "three_steps"])
    def test_one_solve_regularized_call_per_m_step(self, tmp_path, monkeypatch, schedule):
        # perfbench's square-2d check counts the traced spans of the module
        # attribute `singell.solver.solve_regularized` under `solve` and their
        # Newton steps against summary.json's regularization_steps
        import singell.solver as solver_mod
        iterations, real = [], solver_mod.solve_regularized

        def counting(*args, **kwargs):
            it = real(*args, **kwargs)
            iterations.append(it.iterations)
            return it

        monkeypatch.setattr(solver_mod, "solve_regularized", counting)
        payload = json.loads((CONFIGS / "square_hole.json").read_text())
        payload["problem"]["cells"] = [32, 32]
        payload["output"] = {"formats": ["json"]}
        if schedule is not None:
            payload["sweep"]["m_schedule"] = schedule
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        steps = json.loads((out / "summary.json").read_text())["regularization_steps"]
        assert len(iterations) == (1 if schedule is None else 3)
        assert iterations == [s["iterations"] for s in steps]

    def test_summary_reports_work_counters(self, tmp_path):
        counts = {}
        for dim, config in ((1, GAMMA3), (2, json.loads(
                (CONFIGS / "square_hole.json").read_text()))):
            payload = json.loads(json.dumps(config))
            payload["problem"]["cells"] = 128 if dim == 1 else [32, 32]
            payload["output"] = {"formats": ["json"]}
            out = tmp_path / f"out{dim}"
            assert main(["solve", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 0
            steps = json.loads((out / "summary.json").read_text())["regularization_steps"]
            assert all(isinstance(s["stalled"], bool) for s in steps)
            counts[dim] = sum(s["linear_iterations"] for s in steps)
        # 1-D steps are direct solves; 2-D steps run CG
        assert counts[1] == 0
        assert counts[2] > 0


class TestSweepCommand:
    def test_deterministic_reruns(self, tmp_path):
        cfg_payload = json.loads(json.dumps(SECTION6))
        cfg_payload["problem"]["cells"] = 256
        cfg_payload["sweep"]["n_list"] = [10.0, 20.0]
        cfg = write_config(tmp_path, cfg_payload)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == \
            (out2 / "summary.json").read_bytes()

    def test_header_names_quantities(self, tmp_path):
        cfg_payload = json.loads(json.dumps(SECTION6))
        cfg_payload["problem"]["cells"] = 128
        cfg_payload["sweep"]["n_list"] = [10.0]
        cfg = write_config(tmp_path, cfg_payload)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "sweep.csv").read_text().splitlines()[0]
        assert "total_mass (integral f/u^n)" in header
        assert "n (exponent)" in header


    def test_zero_datum_sweep_has_no_certificate(self, tmp_path):
        payload = {"problem": {"domain": [-1.0, 1.0], "cells": 64,
                               "datum": {"kind": "constant", "value": 0.0}},
                   "sweep": {"n_list": [3.0, 5.0], "compacta": [[-0.5, 0.5]]}}
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        for row in rows:
            fields = dict(zip(header, row))
            assert fields["linfty_certificate"] == fields["error"] == ""
            assert fields["fitted_depth_compactum_0"] == ""

    def test_row_is_the_solve_summary(self, tmp_path):
        # `solve` and `sweep` describe one solution with one function
        payload = json.loads(json.dumps(SECTION6))
        payload["problem"]["cells"] = 128
        payload["sweep"]["n_list"] = [payload["problem"]["gamma"]]
        cfg = write_config(tmp_path, payload)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "w")]) == 0
        summary = json.loads((tmp_path / "s" / "summary.json").read_text())
        with open(tmp_path / "w" / "sweep.csv", newline="") as fh:
            header, row = list(csv.reader(fh))
        fields = dict(zip(header, row))
        for key, column in (("sup_norm_u", "sup_norm_u"),
                            ("total_mass", "total_mass (integral f/u^n)"),
                            ("sup_norm_v", "v_sup"),
                            ("quasilinear_residual", "quasilinear_residual"),
                            ("linfty_certificate", "linfty_certificate")):
            assert summary[key] == float(fields[column]), key

    def test_limit_gap_is_the_limit_check_gap(self, tmp_path):
        cfg = str(CONFIGS / "matched_indicator.json")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        assert main(["limit-check", "--config", cfg,
                     "--out", str(tmp_path / "l")]) == 0
        sweep = json.loads((tmp_path / "s" / "summary.json").read_text())
        check = json.loads((tmp_path / "l" / "limit_check.json").read_text())
        assert sweep["limit_equation_gap"] == check["reconstruction_gap"]
        assert sweep["histogram_total"] == check["total_mass"]
        assert sweep["shell_fractions"] == check["shell_fractions"]

    def test_failed_row_keeps_header_shape(self, tmp_path, monkeypatch):
        import singell.solver as solver_mod
        real = solver_mod._check_iterate

        def flaky(m, gamma, *args):
            if gamma == 20.0:
                raise NonlinearSolveError(
                    "regularized solve (m=4, gamma=20.0) did not converge "
                    "within 200 iterations; last residual 1.000e-03", [])
            return real(m, gamma, *args)

        monkeypatch.setattr(solver_mod, "_check_iterate", flaky)
        payload = json.loads(json.dumps(SECTION6))
        payload["problem"]["cells"] = 128
        payload["sweep"]["n_list"] = [10.0, 20.0]
        payload["sweep"]["compacta"] = [[-0.5, 0.5], [-0.9, 0.9]]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [len(header)] * 2
        failed = dict(zip(header, rows[1]))
        per_compactum = [k for k in header if "compactum" in k]
        assert len(per_compactum) == 6
        assert all(failed[k] == "nan" for k in per_compactum)
        assert "did not converge" in failed["error"]

        def refuse(token):
            raise ValueError(f"summary.json holds {token}")

        # a failed row is listed in failed_rows and has no total mass
        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert summary["failed_rows"] == [20.0]
        assert list(summary["total_masses"]) == ["10.0"]


class TestOnedCommand:
    def test_matched_n3_row(self, tmp_path):
        payload = json.loads(json.dumps(SECTION6))
        payload["sweep"]["n_list"] = [3.0]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["oned", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "oned.csv").read_text().strip().splitlines()
        row = [float(v) for v in lines[1].split(",")]
        n, c_n, c_lo, c_hi, t_zero, alpha = row
        assert abs(c_n - 1.0) <= 1e-8
        assert abs(t_zero - math.sqrt(2.0)) <= 1e-10
        assert (out / "profiles.csv").exists()

    def test_close_exponents_get_distinct_profile_columns(self, tmp_path):
        payload = json.loads(json.dumps(SECTION6))
        payload["sweep"]["n_list"] = [10.0, 10.000001]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["oned", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "profiles.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "n=10", "n=10.000000999999999"]
        assert all(len(row) == 3 for row in rows)
        assert any(row[1] != row[2] for row in rows[1:])


class TestLimitCheckCommand:
    def test_matched_atoms(self, tmp_path):
        cfg = write_config(tmp_path, SECTION6)
        out = tmp_path / "out"
        assert main(["limit-check", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "limit_check.json").read_text())
        atoms = payload["atoms"]
        assert len(atoms) == 2
        for atom in atoms:
            assert abs(abs(atom["location"][0]) - 1.0) <= 0.05
            assert abs(atom["mass"] - 1.0) <= 0.05
        assert payload["reconstruction_gap"] <= 0.02

    def test_square_hole_gap_below_0_2(self, tmp_path):
        out = tmp_path / "out"
        assert main(["limit-check", "--config", str(CONFIGS / "square_hole.json"),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "limit_check.json").read_text())
        assert payload["reconstruction_gap"] < 0.2

    def test_indicator_touching_the_boundary_is_config_error(self, tmp_path, capsys):
        payload = json.loads(json.dumps(SECTION6))
        payload["problem"]["datum"]["box"] = [-2.0, 1.0]
        out = tmp_path / "out"
        assert main(["limit-check", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: limit-check requires")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_indicator_touching_the_boundary_solves(self, tmp_path, capsys, command):
        # only limit-check needs the datum to vanish on the boundary
        payload = json.loads(json.dumps(SECTION6))
        payload["problem"]["cells"] = 64
        payload["problem"]["datum"]["box"] = [-2.0, 1.0]
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        if command == "sweep":
            assert json.loads((out / "summary.json").read_text())[
                "limit_equation_gap"] is None


class TestConjectureCommand:
    def test_2d_report_finite(self, tmp_path):
        payload = {
            "label": "square-hole",
            "problem": {
                "domain": [[0.0, 0.0], [1.0, 1.0]],
                "cells": [32, 32],
                "datum": {"kind": "indicator", "value": 1.0,
                          "box": [[0.25, 0.25], [0.75, 0.75]]},
                "gamma": 10.0,
            },
            "sweep": {"n_list": [10.0], "m_schedule": [4 ** k for k in range(11)]},
            "output": {"formats": ["json"]},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["conjecture", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "conjecture.json").read_text())
        assert math.isfinite(report["harmonic_gap"])
        assert math.isfinite(report["outer_v_sup"])

    @pytest.mark.parametrize("name", ["cubic_interval.json",
                                      "uniform_interval_sweep.json"])
    def test_non_indicator_datum_is_config_error(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        assert main(["conjecture", "--config", str(CONFIGS / name),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: harmonic comparison requires an indicator datum\n")
        assert not out.exists()

    def test_anisotropic_coefficients_are_compared(self, tmp_path, capsys):
        payload = json.loads((CONFIGS / "square_hole.json").read_text())
        payload["problem"]["coefficients"] = {"kind": "constant",
                                              "matrix": [[1.0, 0.0], [0.0, 4.0]]}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["conjecture", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "conjecture.json").read_text())
        assert 0.0 < report["harmonic_gap"] < 0.3


def _mutated(command, path, value):
    payload = json.loads(json.dumps(GAMMA3))
    payload["problem"]["cells"] = 64
    *keys, last = path
    block = payload
    for key in keys:
        block = block[key]
    block[last] = value
    return command, payload


INVALID_CONFIGS = {
    "two_cells": _mutated("solve", ["problem", "cells"], 2),
    "reversed_domain": _mutated("solve", ["problem", "domain"], [1.0, -1.0]),
    "three_entry_domain": _mutated("solve", ["problem", "domain"],
                                   [-1.0, 0.0, 1.0]),
    "degenerate_box": _mutated("solve", ["problem", "datum"],
                               {"kind": "indicator", "box": [0.5, 0.5]}),
    "tabulated_wrong_shape": _mutated("solve", ["problem", "datum"],
                                      {"kind": "tabulated",
                                       "values": [1.0, 2.0]}),
    "value_not_a_number": _mutated("solve", ["problem", "datum", "value"],
                                   "abc"),
    "negative_datum": _mutated("solve", ["problem", "datum", "value"], -1.0),
    "matrix_wrong_shape": _mutated("solve", ["problem", "coefficients"],
                                   {"kind": "constant",
                                    "matrix": [[1.0, 0.0], [0.0, 1.0]]}),
    "matrix_negative_definite": _mutated("solve", ["problem", "coefficients"],
                                         {"kind": "constant",
                                          "matrix": [[-1.0]]}),
    # elliptic, but the 5-point stencil takes a diagonal M only
    "off_diagonal_matrix": _mutated("solve", ["problem"], {
        "domain": [[0.0, 0.0], [1.0, 1.0]], "cells": [8, 8],
        "coefficients": {"kind": "constant", "matrix": [[1.0, 0.5], [0.5, 1.0]]},
        "datum": {"kind": "constant", "value": 1.0}, "gamma": 3.0}),
    # [[1, null], [null, 1]]: a NaN off-diagonal entry is not 0
    "off_diagonal_nan": _mutated("solve", ["problem"], {
        "domain": [[0.0, 0.0], [1.0, 1.0]], "cells": [8, 8],
        "coefficients": {"kind": "constant", "matrix": [[1.0, None], [None, 1.0]]},
        "datum": {"kind": "constant", "value": 1.0}, "gamma": 3.0}),
    "n_below_3": _mutated("sweep", ["sweep", "n_list"], [2.0]),
    "n_not_increasing": _mutated("oned", ["sweep", "n_list"], [5.0, 3.0]),
    # malformed problem values are refused, not crashed on
    "gamma_a_list": _mutated("solve", ["problem", "gamma"], [3]),
    "gamma_null": _mutated("solve", ["problem", "gamma"], None),
    "gamma_a_boolean": _mutated("solve", ["problem", "gamma"], True),
    "gamma_a_string": _mutated("solve", ["problem", "gamma"], "3"),
    "domain_a_number": _mutated("solve", ["problem", "domain"], 5),
    "domain_null": _mutated("solve", ["problem", "domain"], None),
    "cells_null": _mutated("solve", ["problem", "cells"], None),
    "box_a_number": _mutated("solve", ["problem", "datum"],
                             {"kind": "indicator", "box": 5}),
    "box_null_corner": _mutated("solve", ["problem", "datum"],
                                {"kind": "indicator", "box": [None, 1.0]}),
    "problem_a_number": _mutated("solve", ["problem"], 5),
    "datum_a_number": _mutated("solve", ["problem", "datum"], 5),
    "sweep_a_number": _mutated("sweep", ["sweep"], 5),
    # [[null]] reads as NaN, which the ellipticity certificate refuses
    "matrix_nan": _mutated("solve", ["problem", "coefficients"],
                           {"kind": "constant", "matrix": [[None]]}),
}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda path: path.stem)
def test_shipped_config_loads(path):
    assert load_config(path).spec.grid.dim in (1, 2)


@pytest.mark.parametrize("case", list(INVALID_CONFIGS), ids=list(INVALID_CONFIGS))
def test_invalid_config_exit_2_no_output(tmp_path, capsys, case):
    command, payload = INVALID_CONFIGS[case]
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def _matched_hole(command, path, value, config="matched_indicator"):
    """`config` (matched_indicator.json by default) at 64 cells with `path`
    set to `value`; the string "1e400" stands for that JSON literal, which
    overflows to inf."""
    payload = json.loads((CONFIGS / f"{config}.json").read_text())
    payload["problem"]["cells"] = 64
    *keys, last = path
    block = payload
    for key in keys:
        block = block.setdefault(key, {})
    block[last] = value
    return command, json.dumps(payload).replace('"1e400"', "1e400")


CONFIG_HOLES = {
    "n_list_nan_sweep": _matched_hole("sweep", ["sweep", "n_list"], [10.0, math.nan]),
    "n_list_nan_oned": _matched_hole("oned", ["sweep", "n_list"], [10.0, math.nan]),
    "n_list_inf_sweep": _matched_hole("sweep", ["sweep", "n_list"], [10.0, "1e400"]),
    "n_list_inf_limit_check": _matched_hole("limit-check", ["sweep", "n_list"],
                                            [10.0, "1e400"]),
    "n_list_entry_not_a_number": _matched_hole("sweep", ["sweep", "n_list"], [[10.0]]),
    "compactum_not_a_pair": _matched_hole("sweep", ["sweep", "compacta"], [[0.5]]),
    "compactum_three_entries": _matched_hole("sweep", ["sweep", "compacta"],
                                             [[-0.5, 0.0, 0.5]]),
    "compactum_a_number": _matched_hole("sweep", ["sweep", "compacta"], [0.5]),
    "compactum_reversed": _matched_hole("sweep", ["sweep", "compacta"], [[0.5, -0.5]]),
    "compactum_outside_domain": _matched_hole("sweep", ["sweep", "compacta"],
                                              [[2.5, 3.0]]),
    "compactum_2d_on_1d_grid": _matched_hole("sweep", ["sweep", "compacta"],
                                             [[[-0.5, -0.5], [0.5, 0.5]]]),
    "shell_distance_not_a_number": _matched_hole("sweep", ["sweep", "shell_distances"],
                                                 ["abc"]),
    "residual_floor_not_a_number": _matched_hole("sweep", ["sweep", "residual_floor"],
                                                 "abc"),
    "radius_not_a_number": _matched_hole("oned", ["oned", "radius"], "abc"),
    "radius_zero": _matched_hole("oned", ["oned"], {"geometry": "interval", "radius": 0.0}),
    "radius_negative": _matched_hole("oned", ["oned"],
                                     {"geometry": "interval", "radius": -1.0}),
    "tolerances_a_list": _matched_hole("sweep", ["sweep", "tolerances"], [1.0, 2.0]),
    "tolerances_a_string": _matched_hole("sweep", ["sweep", "tolerances"], "abc"),
    "m_schedule_not_integer": _matched_hole("sweep", ["sweep", "m_schedule"],
                                            [1.5, 16]),
    "compactum_on_the_boundary_only": _matched_hole("sweep", ["sweep", "compacta"],
                                                    [[2.0, 2.5]]),
    "datum_value_nan": _matched_hole("sweep", ["problem", "datum", "value"], math.nan),
    "residual_floor_zero": _matched_hole("sweep", ["sweep", "residual_floor"], 0.0),
    # a cell count that is not an integral number is refused, not truncated
    "cells_fractional": _matched_hole("solve", ["problem", "cells"], 64.5),
    "cells_fractional_2d": _matched_hole("solve", ["problem", "cells"], [64, 64.5],
                                         config="square_hole"),
    "cells_a_string": _matched_hole("solve", ["problem", "cells"], "64"),
}


@pytest.mark.parametrize("case", list(CONFIG_HOLES), ids=list(CONFIG_HOLES))
def test_config_hole_exit_2_before_output(tmp_path, capsys, case):
    command, text = CONFIG_HOLES[case]
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("geometry", ["matched", "interval"])
def test_oned_exponent_above_the_cap_is_config_error(tmp_path, capsys, geometry):
    # profiles are evaluated up to N_CAP; above it oned is refused, not crashed
    payload = json.loads(json.dumps(SECTION6))
    payload["sweep"]["n_list"] = [10.0, 500.0]
    payload["oned"] = {"geometry": geometry}
    out = tmp_path / "out"
    assert main(["oned", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: oned evaluates profiles up to n = 400")
    assert "500" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "oned", "limit-check",
                                     "conjecture"])
def test_empty_n_list_is_config_error(tmp_path, capsys, command):
    payload = json.loads(json.dumps(SECTION6))
    payload["sweep"]["n_list"] = []
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "limit-check"])
def test_one_assembly_per_command(tmp_path, monkeypatch, command):
    # the solve and the limit check share one A: count `assemble` wherever
    # a singell module bound it
    grids, real = [], ops.assemble

    def counted(grid, coefficients):
        grids.append(grid)
        return real(grid, coefficients)

    for name, module in list(sys.modules.items()):
        if name == "singell" or name.startswith("singell."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)
    cfg = str(CONFIGS / "matched_indicator.json")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(grids) == 1


def test_parser_built_once_and_reused():
    # building costs far more than a parse; one parse must not leak into the next
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["solve", "--config", "a.json", "--out", "o", "--n", "3"])
    second = parser.parse_args(["sweep", "--config", "b.json", "--out", "p"])
    assert (first.command, first.n, first.config) == ("solve", 3.0, "a.json")
    assert (second.command, second.config) == ("sweep", "b.json")
    assert not hasattr(second, "n")


def test_cli_import_leaves_out_costly_scipy_modules():
    # each is slow to import and would add its cost to every CLI start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, singell.cli; print(' '.join(m for m in "
            "('scipy.integrate', 'scipy.optimize', 'scipy.ndimage') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.strip() == ""
