"""Experiment configuration: JSON in, validated ProblemSpec and run plans out.

One JSON file per experiment; every tolerance and threshold used by a run
lives in the file so results are self-describing.  Unknown keys are rejected
at every level, and so is a block that is not an object.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .grids import (CoefficientField, ConstantDatum, Datum, GridFunction,
                    IndicatorDatum, ProblemSpec, TabulatedDatum, make_uniform_grid)
from .solver import RESIDUAL_FLOOR, check_m_schedule
from .sweeps import check_n_list


class ConfigError(ValueError):
    pass


def _require_keys(block: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {block!r}")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _number(value, where: str) -> float:
    """A finite JSON number (a boolean is none) as a float."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _numbers(value, where: str) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return [_number(v, where) for v in value]


def _box(value, where: str) -> tuple:
    """A box [lo, hi] as (lo, hi) tuples of numbers; a corner is a number or
    a list of numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a pair [lo, hi], got {value!r}")
    return tuple(tuple(_numbers(corner if isinstance(corner, (list, tuple)) else [corner],
                                where)) for corner in value)


def _compactum(value, grid, where: str) -> tuple:
    """A compactum [lo, hi] as (lo, hi) tuples: a corner is a number in 1-D
    and one number per axis otherwise, and the box holds an interior node."""
    lo, hi = _box(value, where)
    if not len(lo) == len(hi) == grid.dim:
        raise ConfigError(f"{where} {value!r} does not have {grid.dim} "
                          f"coordinate(s) per corner")
    if not np.any(grid.box_mask((lo, hi)) & ~grid.frame_mask()):
        raise ConfigError(f"{where} {value!r} contains no interior grid node")
    return lo, hi


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
        return CoefficientField.constant(grid, block["matrix"])
    raise ConfigError(f"unknown coefficient kind {kind!r}")


def _build_datum(block: dict, grid) -> Datum:
    _require_keys(block, {"kind", "value", "box", "values"}, {"kind"},
                  "problem.datum")
    kind = block["kind"]
    if kind == "constant":
        return ConstantDatum(_number(block.get("value", 1.0), "problem.datum.value"))
    if kind == "indicator":
        if "box" not in block:
            raise ConfigError("indicator datum needs a 'box': [lo, hi]")
        lo, hi = _box(block["box"], "problem.datum.box")
        return IndicatorDatum(_number(block.get("value", 1.0), "problem.datum.value"),
                              lo, hi)
    if kind == "tabulated":
        if "values" not in block:
            raise ConfigError("tabulated datum needs nodal 'values'")
        return TabulatedDatum(GridFunction(grid, np.asarray(block["values"])))
    raise ConfigError(f"unknown datum kind {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    spec: ProblemSpec
    n_list: tuple
    m_schedule: Optional[tuple]   # None: the default, one solve at m = inf
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
    _require_keys(prob, {"domain", "cells", "coefficients", "datum", "gamma"},
                  {"domain", "cells", "datum"}, "problem")
    try:
        lo, hi = _box(prob["domain"], "problem.domain")
        grid = make_uniform_grid(lo, hi, prob["cells"])
        coeffs = _build_coefficients(prob.get("coefficients"), grid)
        coeffs.ellipticity          # EllipticityError for a field that fails
        spec = ProblemSpec(grid, coeffs, _build_datum(prob["datum"], grid),
                           gamma=_number(prob.get("gamma", 1.0), "problem.gamma"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid problem: {exc}") from exc

    sweep = raw.get("sweep", {})
    _require_keys(sweep, {"n_list", "m_schedule", "compacta", "shell_distances",
                          "residual_floor", "tolerances"}, set(), "sweep")
    schedule = sweep.get("m_schedule")
    if schedule is not None:
        schedule = _numbers(schedule, "sweep.m_schedule")
        if not all(m.is_integer() for m in schedule):
            raise ConfigError(f"sweep.m_schedule entries must be integers, got {schedule!r}")
    try:
        n_list = tuple(check_n_list(_numbers(sweep.get("n_list", []), "sweep.n_list")))
        m_schedule = (tuple(check_m_schedule([int(m) for m in schedule]))
                      if schedule is not None else None)
    except ValueError as exc:
        raise ConfigError(f"invalid sweep: {exc}") from exc
    compacta = sweep.get("compacta", [])
    if not isinstance(compacta, (list, tuple)):
        raise ConfigError(f"sweep.compacta must be a list, got {compacta!r}")
    compacta = tuple(_compactum(c, grid, f"sweep.compacta[{i}]")
                     for i, c in enumerate(compacta))
    shells = tuple(_numbers(sweep.get("shell_distances", []), "sweep.shell_distances"))
    floor = _number(sweep.get("residual_floor", RESIDUAL_FLOOR), "sweep.residual_floor")
    if floor <= 0:
        raise ConfigError(f"sweep.residual_floor must be positive, got {floor!r}")
    tolerances = sweep.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError(f"sweep.tolerances must be an object, got {tolerances!r}")
    tolerances = dict(tolerances)

    oned = raw.get("oned", {})
    _require_keys(oned, {"geometry", "radius"}, set(), "oned")
    geometry = oned.get("geometry", "interval")
    if geometry not in ("interval", "matched"):
        raise ConfigError(f"unknown oned geometry {geometry!r}")
    radius = _number(oned.get("radius", 1.0), "oned.radius")
    if radius <= 0:
        raise ConfigError(f"oned.radius must be positive, got {radius!r}")

    output = raw.get("output", {})
    _require_keys(output, {"formats"}, set(), "output")
    formats = output.get("formats", ["csv", "json", "svg"])
    if not isinstance(formats, list):
        raise ConfigError(f"output.formats must be a list of strings, got {formats!r}")
    for fmt in formats:
        if fmt not in ("csv", "json", "svg"):
            raise ConfigError(f"unknown output format {fmt!r} in output.formats")

    return ExperimentConfig(spec=spec, n_list=n_list, m_schedule=m_schedule,
                            compacta=compacta, shell_distances=shells,
                            residual_floor=floor, tolerances=tolerances,
                            oned_geometry=geometry, oned_radius=radius,
                            formats=tuple(formats),
                            label=str(raw.get("label", "experiment")))
