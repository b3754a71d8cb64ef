"""Experiment configuration: JSON in, validated ProblemSpec and run plans out.

One JSON file per experiment; every tolerance and threshold used by a run
lives in the file so results are self-describing.  Unknown keys are rejected
at every level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .grids import (CoefficientField, ConstantDatum, Datum, GridFunction,
                    IndicatorDatum, ProblemSpec, TabulatedDatum,
                    check_ellipticity, make_uniform_grid)
from .solver import RESIDUAL_FLOOR, check_m_schedule
from .sweeps import check_n_list


class ConfigError(ValueError):
    pass


def _require_keys(block: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _build_coefficients(block: Optional[dict], grid) -> CoefficientField:
    if block is None:
        return CoefficientField.identity(grid)
    _require_keys(block, {"kind", "matrix"}, {"kind"}, "problem.coefficients")
    kind = block["kind"]
    if kind == "identity":
        return CoefficientField.identity(grid)
    if kind == "constant":
        if "matrix" not in block:
            raise ConfigError("constant coefficients need a 'matrix'")
        coefficients = CoefficientField.constant(grid, block["matrix"])
        if not coefficients.is_diagonal():
            raise ConfigError("problem.coefficients: the 5-point assembly supports "
                              "diagonal coefficient matrices only")
        return coefficients
    raise ConfigError(f"unknown coefficient kind {kind!r}")


def _build_datum(block: dict, grid) -> Datum:
    _require_keys(block, {"kind", "value", "box", "values"}, {"kind"},
                  "problem.datum")
    kind = block["kind"]
    if kind == "constant":
        return ConstantDatum(float(block.get("value", 1.0)))
    if kind == "indicator":
        if "box" not in block:
            raise ConfigError("indicator datum needs a 'box': [lo, hi]")
        lo, hi = block["box"]
        return IndicatorDatum(float(block.get("value", 1.0)), lo, hi)
    if kind == "tabulated":
        if "values" not in block:
            raise ConfigError("tabulated datum needs nodal 'values'")
        return TabulatedDatum(GridFunction(grid, np.asarray(block["values"])))
    raise ConfigError(f"unknown datum kind {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    spec: ProblemSpec
    n_list: tuple
    m_schedule: Optional[tuple]
    compacta: tuple
    shell_distances: tuple
    residual_floor: float
    tolerances: dict
    oned_geometry: str
    oned_radius: float
    formats: tuple
    label: str


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    _require_keys(raw, {"problem", "sweep", "output", "oned", "label"},
                  {"problem"}, "config")
    prob = raw["problem"]
    _require_keys(prob, {"domain", "cells", "coefficients", "datum", "gamma",
                         "support"}, {"domain", "cells", "datum"}, "problem")
    try:
        lo, hi = prob["domain"]
        grid = make_uniform_grid(lo, hi, prob["cells"])
        coeffs = _build_coefficients(prob.get("coefficients"), grid)
        check_ellipticity(coeffs)
        spec = ProblemSpec(grid, coeffs, _build_datum(prob["datum"], grid),
                           gamma=float(prob.get("gamma", 1.0)),
                           support=prob.get("support", "general"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid problem: {exc}") from exc

    sweep = raw.get("sweep", {})
    _require_keys(sweep, {"n_list", "m_schedule", "compacta", "shell_distances",
                          "residual_floor", "tolerances"}, set(), "sweep")
    try:
        n_list = tuple(check_n_list(sweep.get("n_list", ())))
        m_schedule = (tuple(check_m_schedule([int(m) for m in sweep["m_schedule"]]))
                      if "m_schedule" in sweep else None)
    except ValueError as exc:
        raise ConfigError(f"invalid sweep: {exc}") from exc
    compacta = tuple((tuple(np.atleast_1d(c[0]).astype(float)),
                      tuple(np.atleast_1d(c[1]).astype(float)))
                     for c in sweep.get("compacta", ()))
    shells = tuple(float(d) for d in sweep.get("shell_distances", ()))
    floor = float(sweep.get("residual_floor", RESIDUAL_FLOOR))
    tolerances = dict(sweep.get("tolerances", {}))

    oned = raw.get("oned", {})
    _require_keys(oned, {"geometry", "radius"}, set(), "oned")
    geometry = oned.get("geometry", "interval")
    if geometry not in ("interval", "matched"):
        raise ConfigError(f"unknown oned geometry {geometry!r}")
    radius = float(oned.get("radius", 1.0))

    output = raw.get("output", {})
    _require_keys(output, {"formats"}, set(), "output")
    formats = tuple(output.get("formats", ("csv", "json", "svg")))
    for fmt in formats:
        if fmt not in ("csv", "json", "svg"):
            raise ConfigError(f"unknown output format {fmt!r}")

    return ExperimentConfig(spec=spec, n_list=n_list, m_schedule=m_schedule,
                            compacta=compacta, shell_distances=shells,
                            residual_floor=floor, tolerances=tolerances,
                            oned_geometry=geometry, oned_radius=radius,
                            formats=formats,
                            label=str(raw.get("label", "experiment")))
