from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgunits import vocab
from kgunits.errors import BlankNodeError, ParseError
from kgunits.rdfio import parse_quads, serialize_quads
from kgunits.store import Iri, Literal, Quad, QuadDataset

EX = "https://example.org/kg/"
REL = "https://example.org/rel/"


def test_empty_documents():
    assert len(parse_quads("", "nquads")) == 0
    assert len(parse_quads("", "trig")) == 0
    assert serialize_quads(QuadDataset(), "nquads") == ""


def test_single_quad_nquads():
    text = (
        f"<{EX}LarsRightHand> <{REL}has-part> <{EX}LarsRightThumb> <{EX}g1> .\n"
    )
    ds = parse_quads(text, "nquads")
    assert len(ds) == 1
    quad = ds.quads[0]
    assert quad.subject == EX + "LarsRightHand"
    assert quad.graph == EX + "g1"


def test_nquads_default_graph_assignment():
    ds = parse_quads(f"<{EX}s> <{REL}p> <{EX}o> .", "nquads")
    assert ds.quads[0].graph == vocab.DEFAULT_GRAPH


def test_blank_node_rejected_everywhere():
    with pytest.raises(BlankNodeError):
        parse_quads(f"_:b0 <{REL}p> <{EX}o> <{EX}g> .", "nquads")
    with pytest.raises(BlankNodeError):
        parse_quads(f"<{EX}s> <{REL}p>_:b0 <{EX}g> .".replace("p>_", "p> _"), "nquads")
    with pytest.raises(BlankNodeError):
        parse_quads("@prefix ex: <https://example.org/> .\nex:g { _:b ex:p ex:o . }", "trig")
    with pytest.raises(BlankNodeError):
        parse_quads(
            "@prefix ex: <https://example.org/> .\nex:g { ex:s ex:p [] . }", "trig"
        )


def test_syntax_error_carries_position():
    good = f"<{EX}s> <{REL}p> <{EX}o> <{EX}g> ."
    with pytest.raises(ParseError) as err:
        parse_quads(good + "\nnot-an-iri .", "nquads")
    assert err.value.line == 2
    assert err.value.column >= 1


def test_trig_literals_and_sugar():
    text = """
@prefix ex: <https://example.org/kg/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:g {
    ex:s a ex:Thing ;
        ex:count 3 ;
        ex:weight 5.0 ;
        ex:flag true ;
        ex:name "Lars' \\"right\\" hand"@en ;
        ex:note "plain" .
}
"""
    ds = parse_quads(text, "trig")
    objects = {q.predicate: q.object for q in ds}
    assert objects[vocab.RDF_TYPE] == Iri(EX + "Thing")
    assert objects[EX + "count"] == Literal("3", datatype=vocab.XSD_INTEGER)
    assert objects[EX + "weight"] == Literal("5.0", datatype=vocab.XSD_DECIMAL)
    assert objects[EX + "flag"] == Literal("true", datatype=vocab.XSD_BOOLEAN)
    assert objects[EX + "name"].language == "en"
    assert objects[EX + "name"].lexical == 'Lars\' "right" hand'
    assert objects[EX + "note"] == Literal("plain")


def test_trig_dotted_local_names():
    text = """
@prefix ex: <https://example.org/kg/> .
ex:g { ex:v1.2 ex:p ex:doi10.1000..182 . ex:s ex:p ex:o.}
ex:s ex:p "x"@en.
"""
    ds = parse_quads(text, "trig")
    assert {(q.subject, q.object) for q in ds} == {
        (EX + "v1.2", Iri(EX + "doi10.1000..182")),
        (EX + "s", Iri(EX + "o")),
        (EX + "s", Literal("x", language="en")),
    }
    assert parse_quads(serialize_quads(ds, "trig"), "trig") == ds


def test_trig_undeclared_prefix_errors():
    with pytest.raises(ParseError):
        parse_quads("ex:g { ex:s ex:p ex:o . }", "trig")


def _sample_dataset():
    return QuadDataset(
        [
            Quad(EX + "s1", REL + "p", Iri(EX + "o1"), EX + "g1"),
            Quad(EX + "s1", REL + "p", Literal("5.0", datatype=vocab.XSD_DECIMAL), EX + "g1"),
            Quad(EX + "s2", REL + "q", Literal("zwei", language="de"), EX + "g2"),
            Quad(EX + "s3", REL + "r", Literal('tricky "quote"\nline'), EX + "g2"),
        ]
    )


@pytest.mark.parametrize("syntax", ["nquads", "trig"])
def test_round_trip(syntax):
    ds = _sample_dataset()
    text = serialize_quads(ds, syntax)
    assert parse_quads(text, syntax) == ds


@pytest.mark.parametrize("syntax", ["nquads", "trig"])
def test_serialization_is_insertion_order_independent(syntax):
    quads = list(_sample_dataset())
    rng = random.Random(13)
    reference = serialize_quads(QuadDataset(quads), syntax)
    for _ in range(5):
        rng.shuffle(quads)
        assert serialize_quads(QuadDataset(quads), syntax) == reference


# A '.' may sit inside a local name but neither starts nor ends one.
_iri_local = st.from_regex(r"[a-zXYZ0-9]([a-zXYZ0-9.]{0,6}[a-zXYZ0-9])?", fullmatch=True)
_literal_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), min_codepoint=9),
    max_size=20,
)


@st.composite
def _quads(draw):
    subject = EX + draw(_iri_local)
    predicate = REL + draw(_iri_local)
    graph = EX + "g" + draw(_iri_local)
    if draw(st.booleans()):
        obj = Iri(EX + draw(_iri_local))
    else:
        language = draw(st.sampled_from([None, "en", "de"]))
        if language:
            obj = Literal(draw(_literal_text), language=language)
        else:
            datatype = draw(
                st.sampled_from([vocab.XSD_STRING, vocab.XSD_INTEGER, EX + "dt"])
            )
            obj = Literal(draw(_literal_text), datatype=datatype)
    return Quad(subject, predicate, obj, graph)


@settings(max_examples=60, deadline=None)
@given(st.lists(_quads(), max_size=12), st.sampled_from(["nquads", "trig"]))
def test_round_trip_property(quads, syntax):
    ds = QuadDataset(quads)
    # Declared prefixes make TriG write prefixed names, dotted ones included.
    prefixes = {**vocab.PREFIXES, "ex": EX, "rel": REL}
    assert parse_quads(serialize_quads(ds, syntax, prefixes), syntax) == ds


def test_single_triple_dataset_serializes_to_one_nquads_line():
    ds = QuadDataset(
        [Quad(EX + "LarsRightHand", REL + "has-part", Iri(EX + "LarsRightThumb"), EX + "g1")]
    )
    text = serialize_quads(ds, "nquads")
    assert text.count("\n") == 1
    assert parse_quads(text, "nquads") == ds


def test_layer_totality_every_quad_tagged_once():
    from kgunits.store import DEFAULT_CATALOG

    ds = _sample_dataset()
    data, units = ds.split_layers(DEFAULT_CATALOG)
    assert len(data) + len(units) == len(ds)
    assert set(data) | set(units) == set(ds)
    # re-tagging is idempotent
    assert ds.split_layers(DEFAULT_CATALOG) == (data, units)


def test_unknown_syntax_rejected():
    with pytest.raises(ParseError):
        parse_quads("", "turtle")
    with pytest.raises(ParseError):
        serialize_quads(QuadDataset(), "turtle")
