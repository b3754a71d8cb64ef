"""The benchmark's workloads write configs from the shipped ones; every config
they write must load under the current schema.

`perfbench/workloads.py` is imported read-only, with `perfbench` on the path
(it imports its sibling `tracing`), and each workload is built in a temporary
directory at a few seeds.  Nothing is run or timed.
"""

import importlib
import sys
from pathlib import Path

import pytest

from singell.config import load_config

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench as it is
    return importlib.import_module("workloads")


@pytest.mark.parametrize("seed", range(4))
def test_workload_configs_load(workloads, tmp_path, seed):
    built = {}
    for name in ("Sweep1D", "Square2D", "Profiles1D"):
        work = tmp_path / name
        work.mkdir()
        built[name] = getattr(workloads, name)(ROOT, work, seed)
    paths = [built["Sweep1D"].config, built["Square2D"].config,
             built["Square2D"].matched, *built["Profiles1D"].configs]
    assert len(paths) == 5
    for path in paths:
        assert load_config(path).spec.grid.dim in (1, 2)
