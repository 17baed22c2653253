from __future__ import annotations

from pathlib import Path

import pytest

from kgunits import compile_schema, load_catalog, parse_quads, partition
from kgunits.fdo import UpriMinter

FIXTURES = Path(__file__).parent / "fixtures"


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
