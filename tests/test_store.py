from __future__ import annotations

import pytest

from kgunits import vocab
from kgunits.errors import (
    AmbiguousResourceKindError,
    CatalogError,
    UnknownResourceError,
)
from kgunits.store import (
    DEFAULT_CATALOG,
    Iri,
    Literal,
    Quad,
    QuadDataset,
    ResourceKind,
    classify_resource,
    is_absolute_iri,
    load_catalog,
    local_name,
)

EX = "https://example.org/kg/"
REL = "https://example.org/rel/"
FMA = "http://purl.org/sig/ont/fma/"


def q(s, p, o, g=EX + "g1"):
    obj = o if isinstance(o, (Iri, Literal)) else Iri(o)
    return Quad(s, p, obj, g)


def test_absolute_iri_validation():
    assert is_absolute_iri("https://example.org/x")
    assert is_absolute_iri("urn:uuid:1234")
    assert not is_absolute_iri("")
    assert not is_absolute_iri("no-scheme")
    assert not is_absolute_iri("http://bad space")
    assert not is_absolute_iri("relative/path")
    assert not is_absolute_iri("https://example.org/x\n")  # '$' would take it


def test_local_name():
    assert local_name("https://example.org/kg/LarsRightHand") == "LarsRightHand"
    assert local_name("https://example.org/ns#thing") == "thing"
    assert local_name("urn:x:tail") == "tail"


def test_dataset_dedup_and_canonical_order():
    a = q(EX + "s", REL + "p", EX + "o")
    b = q(EX + "a", REL + "p", EX + "o")
    ds1 = QuadDataset([a, b, a])
    ds2 = QuadDataset([b, a])
    assert len(ds1) == 2
    assert ds1 == ds2
    assert ds1.quads == ds2.quads


def test_terms_and_quads_carry_no_instance_dict():
    for value in (Iri(EX + "a"), Literal("x"), Literal("hallo", language="de"),
                  Quad(EX + "s", EX + "p", Iri(EX + "o"), EX + "g")):
        assert not hasattr(value, "__dict__")


def test_literal_language_forces_langstring_datatype():
    lit = Literal("hallo", language="de")
    assert lit.datatype == vocab.RDF_LANGSTRING


def test_layer_split_on_raw_dataset_is_all_data(catalog):
    ds = QuadDataset([q(EX + "s", REL + "p", EX + "o")])
    data, units = ds.split_layers(catalog)
    assert len(data) == 1 and not units


def test_layer_split_structural_and_unit_graphs(catalog):
    unit = EX + "unit1"
    quads = [
        # data graph of the declared unit, talking about another unit
        q(EX + "s", REL + "p", EX + "o", g=unit),
        # declaration lives outside any unit data graph
        q(unit, catalog.has_semantic_unit_subject, EX + "s", g=vocab.UNITS_GRAPH),
        q(unit, catalog.type, vocab.ASSERTIONAL_STATEMENT_UNIT, g=vocab.UNITS_GRAPH),
    ]
    ds = QuadDataset(quads)
    data, units = ds.split_layers(catalog)
    assert len(data) == 1
    assert len(units) == 2
    assert ds.unit_graphs(catalog) == {unit}
    assert unit in ds.unit_resources(catalog)


def test_layer_split_data_graph_may_mention_units(catalog):
    # A quad inside a declared unit data graph stays data even when its
    # subject is another unit (statements about statements).
    unit_a = EX + "unitA"
    unit_b = EX + "unitB"
    quads = [
        q(EX + "x", catalog.type, EX + "C", g=unit_a),
        q(unit_a, catalog.type, vocab.NEGATION_UNIT, g=unit_b),
        q(unit_a, catalog.has_semantic_unit_subject, EX + "x", g=vocab.UNITS_GRAPH),
        q(unit_b, catalog.has_semantic_unit_subject, unit_a, g=vocab.UNITS_GRAPH),
    ]
    data, units = QuadDataset(quads).split_layers(catalog)
    data_graphs = {quad.graph for quad in data}
    assert data_graphs == {unit_a, unit_b}
    assert len(units) == 2


def test_classify_named_individual(catalog):
    ds = QuadDataset([q(EX + "LarsRightHand", catalog.type, FMA + "Hand")])
    assert (
        classify_resource(ds, EX + "LarsRightHand", catalog)
        == ResourceKind.NAMED_INDIVIDUAL
    )
    assert classify_resource(ds, FMA + "Hand", catalog) == ResourceKind.ONTOLOGY_CLASS


def test_classify_some_and_every_instance(catalog):
    ds = QuadDataset(
        [
            q(EX + "someHandX", catalog.some_instance_of, FMA + "Hand"),
            q(EX + "everyHand", catalog.every_instance_of, FMA + "Hand"),
        ]
    )
    assert classify_resource(ds, EX + "someHandX", catalog) == ResourceKind.SOME_INSTANCE
    assert classify_resource(ds, EX + "everyHand", catalog) == ResourceKind.EVERY_INSTANCE


def test_classify_property_resource(catalog):
    ds = QuadDataset([q(EX + "a", REL + "has-part", EX + "b")])
    assert (
        classify_resource(ds, REL + "has-part", catalog)
        == ResourceKind.PROPERTY_RESOURCE
    )


def test_classify_semantic_unit_resource(catalog):
    unit = EX + "unit1"
    ds = QuadDataset(
        [
            q(EX + "s", REL + "p", EX + "o", g=unit),
            q(unit, catalog.has_semantic_unit_subject, EX + "s", g=vocab.UNITS_GRAPH),
        ]
    )
    assert (
        classify_resource(ds, unit, catalog) == ResourceKind.SEMANTIC_UNIT_RESOURCE
    )


def test_classify_unknown_resource(catalog):
    ds = QuadDataset([q(EX + "a", REL + "p", EX + "b")])
    with pytest.raises(UnknownResourceError):
        classify_resource(ds, EX + "absent", catalog)


def test_classify_ambiguous_kinds(catalog):
    ds = QuadDataset(
        [
            q(EX + "r", catalog.type, EX + "C"),
            q(EX + "r", catalog.some_instance_of, EX + "C"),
        ]
    )
    with pytest.raises(AmbiguousResourceKindError):
        classify_resource(ds, EX + "r", catalog)


def test_classify_instance_vs_class_conflict(catalog):
    ds = QuadDataset(
        [
            q(EX + "r", catalog.type, EX + "C"),
            q(EX + "x", catalog.type, EX + "r"),
        ]
    )
    with pytest.raises(AmbiguousResourceKindError):
        classify_resource(ds, EX + "r", catalog)


def test_catalog_rejects_duplicate_iris():
    with pytest.raises(CatalogError):
        load_catalog(
            "term child <https://example.org/same>\n"
            "term index <https://example.org/same>\n"
        )


def test_catalog_partial_orders_load(catalog):
    assert REL + "has-part" in catalog.partial_orders
    assert DEFAULT_CATALOG.partial_orders == ()


def test_catalog_predicate_sets_are_built_once(catalog):
    assert catalog.affiliations is catalog.affiliations
    assert catalog.structural_properties is catalog.structural_properties
    assert catalog.affiliations == {
        catalog.type: ResourceKind.NAMED_INDIVIDUAL,
        catalog.some_instance_of: ResourceKind.SOME_INSTANCE,
        catalog.every_instance_of: ResourceKind.EVERY_INSTANCE,
    }
    assert catalog.index in catalog.structural_properties
