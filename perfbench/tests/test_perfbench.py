"""Tests of the benchmark itself: generator determinism, the expected
counts at a tiny size, and the self-time arithmetic of the tracer."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    a = gen.generate(workload, 5, 12, tmp_path / "a")
    b = gen.generate(workload, 5, 12, tmp_path / "b")
    c = gen.generate(workload, 6, 12, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert a["summary"] == b["summary"]
    data = {"organize-large": "input.trig", "reason-organized": "organized.nq",
            "align-versions": "version-b.trig"}[workload]
    assert (tmp_path / "a" / data).read_bytes() != (tmp_path / "c" / data).read_bytes()
    assert a["summary"] == c["summary"], "every seed asks for the same amount of work"


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_expected_counts_hold_at_a_tiny_size(workload, tmp_path):
    spec = gen.generate(workload, 3, 8, tmp_path)
    op = run.checked(run.run_op(tmp_path, spec["argv"], gen.config_files(workload)),
                     spec, tmp_path)
    assert op["problems"] == []
    assert op["wall_s"] > 0 and op["rss_mb"] > 0 and op["setup_s"] > 0


def test_checks_catch_a_wrong_count(tmp_path):
    spec = gen.generate("reason-organized", 3, 8, tmp_path)
    op = run.run_op(tmp_path, spec["argv"], gen.config_files("reason-organized"))
    spec["summary"] = dict(spec["summary"], disputes=spec["summary"]["disputes"] + 1)
    assert run.checked(op, spec, tmp_path)["problems"]


def test_partition_law_reader_flags_a_triple_in_two_units():
    trig = (
        "@prefix ex: <https://example.org/kg/> .\n"
        "@prefix su: <https://vocab.kgunits.org/> .\n\n"
        "ex:u1 {\n    ex:a ex:p \"x y .\" .\n}\n"
        "ex:u2 {\n    ex:a ex:p \"x y .\" .\n}\n"
        "su:graph/units {\n"
        "    ex:u1 su:hasSemanticUnitSubject ex:a .\n"
        "    ex:u2 su:hasSemanticUnitSubject ex:a .\n}\n"
    )
    triple = ("<https://example.org/kg/a>", "<https://example.org/kg/p>", '"x y ."')
    problems = checks.check_partition_law(trig, [triple], 2)
    assert problems and "sits in 2 unit data graphs" in problems[0]
    assert checks.check_partition_law(trig.replace("ex:u2 {\n    ex:a", "ex:u2 {\n    ex:b"),
                                      [triple], 2) == [
        "partition law: 1 unit data triples not in the input"]


def _span(name, start, end, parent, value=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": "t",
            "value": value}


def test_self_time_subtracts_children_once():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("units.partition", 1.0, 4.0, 0),
        _span("store.QuadDataset.graph", 2.0, 3.0, 1, [100, 4]),
        _span("store.QuadDataset.graph", 5.0, 9.0, 0, [100, 1]),
        # Overlapping children are merged, not subtracted twice.
        _span("rdfio.serialize_quads", 5.5, 8.0, 3, 10),
        _span("rdfio.serialize_trig", 6.0, 8.5, 3, 10),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.5, 2.5])
    assert sum(selfs[:4]) + (8.5 - 5.5) == pytest.approx(10.0)


def test_layer_metrics_from_a_synthetic_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("rdfio.serialize_quads", 1.0, 5.0, 0, 40),
        _span("rdfio.serialize_trig", 1.5, 4.5, 1, 40),
        _span("store.QuadDataset.graph", 2.0, 2.5, 2, [30, 10]),
        _span("store.QuadDataset.graph", 3.0, 3.5, 2, [30, 5]),
        _span("units.partition", 6.0, 7.0, 0, 12),
        _span("units.partition", 7.0, 8.0, 0, 12),
    ]
    m = tracer.op_metrics(spans)
    assert m["rdfio.serialize_calls"] == 1
    assert m["rdfio.bytes_out"] == 40
    assert m["rdfio.serialize_s"] == pytest.approx(1.0 + 2.0)
    assert m["store.graph_calls"] == 2
    assert m["store.graph_s"] == pytest.approx(1.0)
    assert m["store.graph_scan_ratio"] == pytest.approx(60 / 15)
    assert m["units.partition_calls"] == 2
    assert m["units.statement_units"] == 24
    assert m["units.partition_s"] == pytest.approx(2.0)
    assert m["align.correspondences"] == 0 and m["logic.useful_ground_share"] == 0.0
    layers = tracer.layer_self(spans)
    assert layers["rdfio"] == pytest.approx(3.0) and layers["cli"] == pytest.approx(4.0)


def test_exponent_and_missing_names():
    assert tracer.exponent(4.0, 1.0) == pytest.approx(1.0)
    assert tracer.exponent(16.0, 1.0) == pytest.approx(2.0)
    assert tracer.exponent(1.0, 0.0) == 0.0
    missing = tracer.missing_names([n for n in tracer.REQUIRED if n != "units.partition"])
    assert missing == ["units.partition"]
    assert not math.isnan(tracer.op_metrics([])["store.graph_scan_ratio"])


def test_trimmed_mean_drops_the_extremes():
    assert run._trimmed_mean([]) == 0.0
    assert run._trimmed_mean([2.0, 4.0]) == pytest.approx(3.0)
    values = [1.0] + [2.0] * 8 + [50.0]
    assert run._trimmed_mean(values) == pytest.approx(2.0)
