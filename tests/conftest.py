from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from kgunits import compile_schema, load_catalog, parse_quads, partition
from kgunits.fdo import UpriMinter

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def fixture_dataset(name: str):
    return parse_quads(fixture_text(name), "trig")


@pytest.fixture(scope="session")
def catalog():
    return load_catalog(fixture_text("catalog.cat"))


@pytest.fixture(scope="session")
def schemas():
    return compile_schema(fixture_text("schemas.sus"))


def at_level(report, level: str) -> tuple:
    """The correspondences of an alignment report at one granularity level."""
    return tuple(c for c in report.correspondences if c.level == level)


def partitioned(name: str, catalog, schemas, seed: int = 7):
    dataset = fixture_dataset(name)
    return partition(dataset, schemas, catalog, UpriMinter(seed=seed))


def benchmark_module(name: str):
    """The benchmark's ``perfbench/<name>.py``, loaded by path under its own
    name, the name by which the benchmark's modules import one another."""
    path = PERFBENCH / f"{name}.py"
    module = sys.modules.get(name)
    if module is None or Path(module.__file__).resolve() != path:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module
