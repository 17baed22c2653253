"""The one writer and the one reader of the quads that declare a unit."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgunits import vocab
from kgunits.compound import build_all, compound_quads
from kgunits.fdo import UpriMinter
from kgunits.store import Iri, Literal, Quad, declaration_quads, read_declarations

import declaration_oracle
from conftest import FIXTURES, partitioned

EX = "https://example.org/kg/"
_IRIS = st.sampled_from([EX + name for name in "abcdef"])


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        _IRIS,
        st.tuples(st.frozensets(_IRIS), st.one_of(st.none(), _IRIS), st.lists(_IRIS, max_size=4)),
        max_size=4,
    ),
    st.sampled_from([vocab.UNITS_GRAPH, EX + "np/head"]),
)
def test_declarations_read_back(catalog, units, graph):
    quads = [
        q
        for upri, (classes, subject, associated) in units.items()
        for q in declaration_quads(upri, classes, subject, associated, catalog, graph)
    ]
    assert {q.graph for q in quads} <= {graph}
    classes, subjects, associated = read_declarations(quads, catalog)
    for upri, (unit_classes, subject, members) in units.items():
        assert classes.get(upri, set()) == unit_classes
        assert subjects.get(upri) == subject
        assert associated.get(upri, []) == members
    assert set(classes) | set(subjects) | set(associated) <= set(units)


def _predicates(catalog):
    return st.sampled_from(
        [
            catalog.type,
            catalog.has_semantic_unit_subject,
            catalog.has_associated_semantic_unit,
            catalog.label,
        ]
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reader_equals_the_replaced_loops_on_any_quads(catalog, data):
    """Literal objects, repeated subjects and foreign predicates included."""
    objects = st.one_of(_IRIS.map(Iri), st.sampled_from([Literal("a"), Literal("b")]))
    quads = data.draw(
        st.lists(st.builds(Quad, _IRIS, _predicates(catalog), objects, _IRIS), max_size=20)
    )
    classes, subjects, associated = read_declarations(quads, catalog)
    assert (subjects, classes) == declaration_oracle.adopted_declarations(quads, catalog)
    assert (associated, classes, subjects) == declaration_oracle.compound_declarations(
        quads, catalog
    )


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.trig")))
def test_readers_equal_the_replaced_loops_on_fixtures(catalog, schemas, fixture):
    """On each fixture as ``pipeline`` hands it downstream: organized, with
    the declarations of its compound units."""
    result = partitioned(fixture, catalog, schemas, seed=3)
    compounds = build_all(result, catalog, UpriMinter(seed=4))
    dataset = result.dataset.merge(compound_quads(list(compounds.all_units()), catalog))
    units_layer = dataset.split_layers(catalog)[1]
    classes, subjects, _ = read_declarations(units_layer, catalog)
    assert subjects and classes
    assert (subjects, classes) == declaration_oracle.adopted_declarations(units_layer, catalog)
    classes, subjects, associated = read_declarations(dataset, catalog)
    assert associated
    assert (associated, classes, subjects) == declaration_oracle.compound_declarations(
        dataset, catalog
    )
