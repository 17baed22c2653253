from __future__ import annotations

import logging
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import label_oracle
from kgunits import vocab
from kgunits.cli import main
from kgunits.errors import LabelError
from kgunits.fdo import UpriMinter
from kgunits.schemas import StatementSchema, compile_schema
from kgunits.store import Iri, Literal, Quad, QuadDataset
from kgunits.units import (
    ARGUMENT,
    StatementUnit,
    UnitObject,
    label_templates,
    partition,
    render_dynamic_label,
)

from conftest import FIXTURES, fixture_dataset, partitioned

EX = "https://example.org/kg/"
REL = "https://example.org/rel/"
SUC = "https://example.org/su-class/"


def _label(unit, dataset, catalog, schemas):
    return render_dynamic_label(unit, dataset, catalog, label_templates(schemas, catalog))


def test_travel_label_renders_paper_sentence(catalog, schemas):
    result = partitioned("travel.trig", catalog, schemas)
    dataset = fixture_dataset("travel.trig")
    (unit,) = [u for u in result.units if u.schema_class == SUC + "travel"]
    label = _label(unit, dataset, catalog, schemas)
    assert label == "Carla travels by train from Paris to Berlin on the 29th of June 2022"


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
    assert _label(unit, ds, catalog, schemas) == "alice travels by t1 from a to b"


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
    assert _label(unit, ds, catalog, schemas) == ", a meets b"

def test_has_part_label(catalog, schemas):
    result = partitioned("hand_assertional.trig", catalog, schemas)
    dataset = fixture_dataset("hand_assertional.trig")
    (unit,) = [u for u in result.units if u.schema_class == SUC + "has-part"]
    label = _label(unit, dataset, catalog, schemas)
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
    assert _label(unit, ds, catalog, schemas) == "a fixed sentence"


def test_missing_label_falls_back_to_local_name(catalog, schemas, caplog):
    result = partitioned("hand_bare.trig", catalog, schemas)
    dataset = fixture_dataset("hand_bare.trig")
    (unit,) = result.units
    with caplog.at_level(logging.WARNING):
        label = _label(unit, dataset, catalog, schemas)
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
            _label(unit, result.dataset, catalog, schemas)
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
        _label(result.units[0], ds, catalog, schemas)


def test_identification_unit_builtin_label(catalog, schemas):
    result = partitioned("identify_named.trig", catalog, schemas)
    dataset = fixture_dataset("identify_named.trig")
    (unit,) = result.units
    label = _label(unit, dataset, catalog, schemas)
    assert label == "Lars' right hand is an instance of Hand"


# -- the renderer against the one it replaced -------------------------------------

_CLS = SUC + "generated"
_ID_CLS = vocab.NAMED_INDIVIDUAL_IDENTIFICATION_UNIT
_ADJUNCTS = ("a1", "a2", "x{y")
_NAMES = ["s", "?s", "o", "?o", "c", "a1", "?a1", "a2", "x{y", "ghost"]
_TERMS = {"s": Iri(EX + "alice"), "c": Iri(EX + "Person"), "a1": Iri(EX + "bob"),
          "a2": Literal("5"), "x{y": Iri(EX + "carl")}
_DATASET = QuadDataset([Quad(EX + "alice", vocab.RDFS_LABEL, Literal("Alice"), EX + "g"),
                        Quad(EX + "carl", vocab.RDFS_LABEL, Literal("Carl"), EX + "g")])


@st.composite
def _label_templates(draw):
    """Text before, between and after 0-4 placeholders, some adjacent; a
    text's '{' makes a name that holds '{'. A schema's label closes its
    last '{'."""
    text = st.text(alphabet="ab ,{}", max_size=3)
    pieces = [draw(text)]
    for _ in range(draw(st.integers(0, 4))):
        pieces += ["{%s}" % draw(st.sampled_from(_NAMES)), draw(text)]
    return "".join(pieces)


def _outcome(render, unit, *args, **kwargs):
    warned: set[str] = set()
    try:
        label = render(unit, _DATASET, *args, warned=warned, **kwargs)
    except LabelError as exc:
        label = f"LabelError: {exc}"
    return label, warned


@given(
    template=_label_templates().filter(lambda t: t.rfind("{") <= t.rfind("}")),
    declared=st.sampled_from([_CLS, _ID_CLS, vocab.IS_ABOUT_STATEMENT_UNIT, None]),
    unit_class=st.sampled_from([_CLS, _ID_CLS, vocab.IS_ABOUT_STATEMENT_UNIT, SUC + "other", None]),
    bound=st.frozensets(st.sampled_from(sorted(_TERMS))),
    objects=st.sampled_from([(), (None,), ("o",), ("o", "a2")]),
)
@example("{a1}, {s} meets {o}", _CLS, _CLS, frozenset({"s"}), ("o",))  # unbound first
@example("{s} meets {?a1} on {a2}", _CLS, _CLS, frozenset({"a2"}), ("o",))  # unbound middle
@example("{s} meets {o} on {a2}.", _CLS, _CLS, frozenset(), ("o",))  # unbound last
@example("{s}{o}{?a1}{x{y}", _CLS, _CLS, frozenset({"a1", "x{y"}), ("o",))  # adjacent
@example("a fixed sentence", _CLS, _CLS, frozenset(), ())  # no placeholder
@example("", _ID_CLS, _ID_CLS, frozenset({"c"}), ())  # identification class, empty label
def test_renderer_equals_the_oracle_on_generated_templates(
    catalog, template, declared, unit_class, bound, objects
):
    """Generated templates and units: the same label, the same warned
    resources and the same ``LabelError`` as the renderer with its second
    lookup and its placeholder loop."""
    schemas = [] if declared is None else [StatementSchema(
        declared, REL + "p", (), "s", ("o",), adjunct_vars=_ADJUNCTS, label_template=template)]
    unit = StatementUnit(
        EX + "u", frozenset(), EX + "alice",
        tuple(UnitObject(Iri(EX + "dora"), ARGUMENT, var) for var in objects), (),
        schema_class=unit_class, anchor_predicate=REL + "p" if objects else None,
        bindings=tuple((name, _TERMS[name]) for name in sorted(bound)),
    )
    new = _outcome(render_dynamic_label, unit, catalog, label_templates(schemas, catalog))
    assert new == _outcome(label_oracle.render_dynamic_label, unit, catalog, schemas)


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.trig")))
def test_renderer_equals_the_oracle_on_every_fixture_unit(catalog, schemas, fixture):
    result = partitioned(fixture, catalog, schemas)
    templates = label_templates(schemas, catalog)
    for unit in result.units:
        new = render_dynamic_label(unit, result.dataset, catalog, templates)
        assert new == label_oracle.render_dynamic_label(unit, result.dataset, catalog, schemas)


def test_identification_class_a_schema_leaves_unlabelled_keeps_its_adjuncts(catalog, schemas):
    """A schema that declares an identification class with an empty label:
    the class takes its built-in label and the schema's adjuncts."""
    declared = compile_schema(
        f"""
unit <{_ID_CLS}> anchor <{REL}p>
relation qualitative
template ?s <{REL}p> ?o
template ?s <{REL}on> ?d
subject ?s
arg ?o
adjunct ?d
"""
    ) + schemas
    templates = label_templates(declared, catalog)
    assert templates[_ID_CLS] == ("{s} is an instance of {c}", ("d",))
    result = partitioned("identify_named.trig", catalog, schemas)
    (unit,) = result.units
    label = render_dynamic_label(unit, result.dataset, catalog, templates)
    assert label == label_oracle.render_dynamic_label(unit, result.dataset, catalog, declared)
    assert label == "Lars' right hand is an instance of Hand"
