"""Differential tests: the memoized dataset views and the ``ResourceKinds``
table against the whole-dataset scans they replaced (``scan_oracle``)."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scan_oracle
from kgunits import vocab
from kgunits.align import ProcessedGraph, align_graphs
from kgunits.compound import build_all
from kgunits.errors import AmbiguousResourceKindError, UnknownResourceError
from kgunits.fdo import UpriMinter
from kgunits.store import (
    DEFAULT_CATALOG,
    Iri,
    Literal,
    Quad,
    QuadDataset,
    ResourceKind,
    ResourceKinds,
    classify_resource,
    load_catalog,
)
from kgunits.units import label_index, partition

from conftest import fixture_dataset

EX = "https://example.org/kg/"
NODES = [EX + name for name in ("a", "b", "c", "d", "u")]
UNIT = EX + "u"
GRAPHS = [EX + "g", UNIT, vocab.UNITS_GRAPH]
ABSENT = EX + "absent"
# The default terms, and a catalog that renames the class-affiliation term.
CATALOGS = [DEFAULT_CATALOG, load_catalog("term type <https://example.org/ns/isA>\n")]


def _quad(s, p, o, g=EX + "g"):
    return Quad(s, p, o if isinstance(o, Literal) else Iri(o), g)


def _catalog_terms(catalog):
    return [
        catalog.type,
        catalog.some_instance_of,
        catalog.every_instance_of,
        catalog.label,
        catalog.has_semantic_unit_subject,
        catalog.has_associated_semantic_unit,
        catalog.has_linked_semantic_unit,
        catalog.object_described_by_semantic_unit,
        catalog.index,
    ]


@st.composite
def _datasets(draw):
    """Small datasets over one shared pool of names, so that one resource
    can be a node, a predicate, a class and a unit at once."""
    catalog = draw(st.sampled_from(CATALOGS))
    predicates = NODES + _catalog_terms(catalog)
    objects = st.one_of(
        st.sampled_from(NODES + [catalog.label]).map(Iri),
        st.sampled_from(["x", "y"]).map(Literal),
    )
    quads = draw(
        st.lists(
            st.builds(
                Quad,
                st.sampled_from(NODES + [catalog.label]),
                st.sampled_from(predicates),
                objects,
                st.sampled_from(GRAPHS),
            ),
            max_size=14,
        )
    )
    return QuadDataset(quads), catalog


def _outcome(classify, dataset, resource, catalog):
    try:
        return classify(dataset, resource, catalog)
    except (UnknownResourceError, AmbiguousResourceKindError) as exc:
        return type(exc), str(exc)


C = DEFAULT_CATALOG
_NAMED_CASES = [
    # unit resources, one typed inside its own unit graph
    [_quad(UNIT, C.has_semantic_unit_subject, EX + "a", vocab.UNITS_GRAPH),
     _quad(UNIT, C.type, EX + "c", UNIT), _quad(EX + "a", EX + "b", EX + "c", UNIT)],
    # type + someInstanceOf: ambiguous affiliation
    [_quad(EX + "a", C.type, EX + "c"), _quad(EX + "a", C.some_instance_of, EX + "c")],
    # someInstanceOf + everyInstanceOf
    [_quad(EX + "a", C.every_instance_of, EX + "c"),
     _quad(EX + "a", C.some_instance_of, EX + "d")],
    # an instance in class position
    [_quad(EX + "a", C.type, EX + "c"), _quad(EX + "b", C.every_instance_of, EX + "a")],
    # a predicate that is also used as a node
    [_quad(EX + "a", EX + "b", EX + "c"), _quad(EX + "b", EX + "d", EX + "c")],
    # a labelled property stays a property
    [_quad(EX + "a", EX + "b", EX + "c"), _quad(EX + "b", C.label, Literal("part of"))],
    # a resource occurring only as a graph name or a label subject
    [_quad(EX + "a", C.label, Literal("x"))],
    # a literal-object affiliation does not make the category mixed
    [_quad(EX + "a", C.type, Literal("x")), _quad(EX + "a", C.some_instance_of, EX + "c")],
    [],
]


def _assert_kinds_match(dataset, catalog):
    category_of = ResourceKinds.of(dataset, catalog).category_of
    lenient = scan_oracle.category_index(dataset, catalog)
    for resource in sorted(scan_oracle.resources(dataset)) + NODES + [ABSENT]:
        assert _outcome(classify_resource, dataset, resource, catalog) == _outcome(
            scan_oracle.classify_resource, dataset, resource, catalog
        ), resource
        assert category_of(resource) == lenient(resource), resource


@settings(max_examples=150, deadline=None)
@given(_datasets())
def test_kind_table_matches_scanning_classifier(case):
    _assert_kinds_match(*case)


@pytest.mark.parametrize("quads", _NAMED_CASES)
def test_kind_table_matches_scanning_classifier_on_named_cases(quads):
    _assert_kinds_match(QuadDataset(quads), C)


@settings(max_examples=100, deadline=None)
@given(_datasets())
def test_memoized_views_equal_fresh_scans(case):
    dataset, catalog = case
    views = {
        "resources": (dataset.resources, scan_oracle.resources(dataset)),
        "unit_graphs": (lambda: dataset.unit_graphs(catalog),
                        scan_oracle.unit_graphs(dataset, catalog)),
        "unit_resources": (lambda: dataset.unit_resources(catalog),
                           scan_oracle.unit_resources(dataset, catalog)),
        "split_layers": (lambda: dataset.split_layers(catalog),
                         scan_oracle.split_layers(dataset, catalog)),
        "label_index": (lambda: label_index(dataset, catalog),
                        scan_oracle.label_index(dataset, catalog)),
    }
    for name, (view, scanned) in views.items():
        first = view()
        assert first == scanned, name
        assert view() is first, f"{name} is not memoized"
    # The by-graph and by-subject indexes serve these.
    assert dataset.graph_names() == scan_oracle.graph_names(dataset)
    for name in GRAPHS + [ABSENT]:
        assert dataset.graph(name) == scan_oracle.graph(dataset, name)
    for subject in NODES + [catalog.label, ABSENT]:
        assert dataset.about(subject) == scan_oracle.about(dataset, subject)


def test_kind_tables_are_kept_per_catalog():
    default, renamed = CATALOGS
    dataset = QuadDataset([_quad(EX + "a", renamed.type, EX + "c")])
    assert classify_resource(dataset, EX + "a", renamed) == ResourceKind.NAMED_INDIVIDUAL
    # Under the default terms the renamed type is a plain predicate.
    with pytest.raises(UnknownResourceError):
        classify_resource(dataset, EX + "a", default)
    assert classify_resource(dataset, EX + "a", renamed) == ResourceKind.NAMED_INDIVIDUAL


def test_layers_and_kinds_are_built_once_per_dataset_and_catalog(
    monkeypatch, catalog, schemas
):
    """A rescan per call (the quadratic path the kind table removed) fails
    here: the layer split and the kind table must each be built exactly once
    for every dataset that partition, compound building and alignment read."""
    builds: Counter = Counter()
    alive = []  # keeps counted datasets alive so that their ids stay unique
    original = QuadDataset._view

    def counting_view(self, name, view_catalog, build):
        def counted():
            builds[(id(self), name, id(view_catalog))] += 1
            alive.append(self)
            return build()

        return original(self, name, view_catalog, counted)

    monkeypatch.setattr(QuadDataset, "_view", counting_view)
    graphs = []
    for seed in (3, 5):
        part = partition(
            fixture_dataset("antenna_item.trig"), schemas, catalog, UpriMinter(seed=seed)
        )
        compounds = build_all(part, catalog, UpriMinter(seed=seed + 1))
        graphs.append(ProcessedGraph(part, compounds, catalog))
    align_graphs(*graphs)

    for graph in graphs:
        for name in ("split_layers", "kinds"):
            assert builds[(id(graph.partition.dataset), name, id(catalog))] == 1, name
    assert max(builds.values()) == 1
