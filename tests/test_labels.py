from __future__ import annotations

import logging
import subprocess
import sys
from pathlib import Path

import pytest

from kgunits.cli import main
from kgunits.errors import LabelError
from kgunits.fdo import UpriMinter
from kgunits.schemas import compile_schema
from kgunits.store import Iri, Quad, QuadDataset
from kgunits.units import label_templates, partition, render_dynamic_label

from conftest import FIXTURES, fixture_dataset, partitioned

EX = "https://example.org/kg/"
REL = "https://example.org/rel/"
SUC = "https://example.org/su-class/"


def test_travel_label_renders_paper_sentence(catalog, schemas):
    result = partitioned("travel.trig", catalog, schemas)
    dataset = fixture_dataset("travel.trig")
    (unit,) = [u for u in result.units if u.schema_class == SUC + "travel"]
    label = render_dynamic_label(unit, dataset, catalog, schemas)
    assert label == "Carla travels by train from Paris to Berlin on the 29th of June 2022"


def test_resolved_templates_label_like_schemas(catalog, schemas):
    result = partitioned("travel.trig", catalog, schemas)
    dataset = fixture_dataset("travel.trig")
    templates = label_templates(schemas, catalog)
    for unit in result.units:
        assert render_dynamic_label(unit, dataset, catalog, templates=templates) == (
            render_dynamic_label(unit, dataset, catalog, schemas)
        )
    with pytest.raises(TypeError, match="not both"):
        render_dynamic_label(result.units[0], dataset, catalog, schemas, templates=templates)



def test_unbound_adjunct_drops_its_text(catalog, schemas):
    # The optional ``travels-on`` adjunct is absent: its placeholder goes
    # together with the " on the " text leading up to it.
    ds = QuadDataset(
        [
            Quad(EX + "alice", REL + "travels-by", Iri(EX + "t1"), EX + "g"),
            Quad(EX + "alice", REL + "travels-from", Iri(EX + "a"), EX + "g"),
            Quad(EX + "alice", REL + "travels-to", Iri(EX + "b"), EX + "g"),
        ]
    )
    result = partition(ds, schemas, catalog, UpriMinter(seed=1))
    (unit,) = result.units
    assert render_dynamic_label(unit, ds, catalog, schemas) == "alice travels by t1 from a to b"


def test_unbound_leading_adjunct_drops_text_from_start(catalog):
    schemas = compile_schema(
        f"""
unit <{SUC}dated> anchor <{REL}p>
relation qualitative
template ?s <{REL}p> ?o
template ?s <{REL}on> ?d
subject ?s
arg ?o
adjunct ?d
label "on {{d}}, {{s}} meets {{o}}"
"""
    )
    ds = QuadDataset([Quad(EX + "a", REL + "p", Iri(EX + "b"), EX + "g")])
    result = partition(ds, schemas, catalog, UpriMinter(seed=1))
    (unit,) = result.units
    assert render_dynamic_label(unit, ds, catalog, schemas) == ", a meets b"

def test_has_part_label(catalog, schemas):
    result = partitioned("hand_assertional.trig", catalog, schemas)
    dataset = fixture_dataset("hand_assertional.trig")
    (unit,) = [u for u in result.units if u.schema_class == SUC + "has-part"]
    label = render_dynamic_label(unit, dataset, catalog, schemas)
    assert label == "Lars' right hand has part Lars' right thumb"


def test_template_without_placeholders_verbatim(catalog):
    schemas = compile_schema(
        f"""
unit <{SUC}fixed> anchor <{REL}p>
relation qualitative
template ?s <{REL}p> ?o
subject ?s
arg ?o
label "a fixed sentence"
"""
    )
    ds = QuadDataset([Quad(EX + "a", REL + "p", Iri(EX + "b"), EX + "g")])
    result = partition(ds, schemas, catalog, UpriMinter(seed=1))
    (unit,) = result.units
    assert render_dynamic_label(unit, ds, catalog, schemas) == "a fixed sentence"


def test_missing_label_falls_back_to_local_name(catalog, schemas, caplog):
    result = partitioned("hand_bare.trig", catalog, schemas)
    dataset = fixture_dataset("hand_bare.trig")
    (unit,) = result.units
    with caplog.at_level(logging.WARNING):
        label = render_dynamic_label(unit, dataset, catalog, schemas)
    assert label == "LarsRightHand has part LarsRightThumb"
    assert any("no label" in r.message for r in caplog.records)


def test_label_stage_warns_once_per_unlabelled_resource(catalog, schemas, caplog, tmp_path):
    """endangered.trig names some unlabelled resources in several units."""

    def warned(records):
        return [r.args[0] for r in records if r.msg.startswith("no label")]

    result = partitioned("endangered.trig", catalog, schemas, seed=1)
    per_unit = []
    for unit in result.units:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="kgunits"):
            render_dynamic_label(unit, result.dataset, catalog, schemas)
        per_unit += warned(caplog.records)
    assert len(per_unit) > len(set(per_unit))

    caplog.clear()
    argv = ["label", str(FIXTURES / "endangered.trig"), "--out", str(tmp_path)]
    argv += ["--schemas", str(FIXTURES / "schemas.sus")]
    argv += ["--catalog", str(FIXTURES / "catalog.cat"), "--seed", "1"]
    with caplog.at_level(logging.WARNING, logger="kgunits"):
        assert main(argv) == 0
    assert sorted(warned(caplog.records)) == sorted(set(per_unit))


def test_label_stage_writes_one_warning_line_per_unlabelled_resource(tmp_path):
    """The bytes a run writes to stderr for its warnings, which the logging
    module's last-resort handler writes when no handler is configured."""
    source = Path(__file__).parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(source)!r}); from kgunits.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    argv = ["label", str(FIXTURES / "endangered.trig"), "--seed", "1", "--out", str(tmp_path)]
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, check=True)
    resources = ["kg/Site", "kg/Species", "iucn/Endangered", "iucn/LeastConcern"]
    assert result.stderr == b"".join(
        b"no label for https://example.org/%s; using local name\n" % r.encode() for r in resources
    )


def test_unbound_placeholder_raises(catalog):
    schemas = compile_schema(
        f"""
unit <{SUC}broken> anchor <{REL}p>
relation qualitative
template ?s <{REL}p> ?o
subject ?s
arg ?o
label "{{s}} and {{ghost}}"
"""
    )
    ds = QuadDataset([Quad(EX + "a", REL + "p", Iri(EX + "b"), EX + "g")])
    result = partition(ds, schemas, catalog, UpriMinter(seed=1))
    with pytest.raises(LabelError):
        render_dynamic_label(result.units[0], ds, catalog, schemas)


def test_identification_unit_builtin_label(catalog, schemas):
    result = partitioned("identify_named.trig", catalog, schemas)
    dataset = fixture_dataset("identify_named.trig")
    (unit,) = result.units
    label = render_dynamic_label(unit, dataset, catalog, schemas)
    assert label == "Lars' right hand is an instance of Hand"
