from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgunits import vocab
from kgunits.compound import (
    CONTEXT,
    DATASET,
    ORDERED_LIST,
    SET,
    _order_walk,
    build_all,
    build_context_units,
    build_granular_item_groups,
    build_granularity_tree_units,
    build_item_group_units,
    build_item_units,
    build_quality_measurement_units,
    build_typed_statement_units,
    compound_quads,
    make_collection_unit,
    reconstruct_compounds,
)
from kgunits.errors import CollectionError
from kgunits.fdo import UpriMinter
from kgunits.store import Iri, Quad, QuadDataset
from kgunits.units import partition

import compound_oracle
from compound_oracle import build_item_group_units as oracle_item_group_units
from conftest import FIXTURES, fixture_dataset, partitioned

EX = "https://example.org/kg/"
REL = "https://example.org/rel/"
SUC = "https://example.org/su-class/"


def _pipeline(name, catalog, schemas, seed=7):
    result = partitioned(name, catalog, schemas, seed=seed)
    compounds = build_all(result, catalog, UpriMinter(seed=seed + 1))
    return result, compounds


# -- typed statement units --------------------------------------------------


def test_typed_unit_merges_reference_and_identifications(catalog, schemas):
    result = partitioned("hand_assertional.trig", catalog, schemas)
    typed, gaps = build_typed_statement_units(result, UpriMinter(seed=9))
    assert len(typed) == 1
    (unit,) = typed
    assert len(unit.associated) == 3
    assert gaps == []
    reference = result.units_by_upri[unit.associated[0]]
    assert reference.schema_class == SUC + "has-part"
    assert unit.subject == reference.subject


def test_identification_units_produce_no_typed_units(catalog, schemas):
    result = partitioned("identify_named.trig", catalog, schemas)
    typed, _ = build_typed_statement_units(result, UpriMinter(seed=9))
    assert typed == []


def test_typed_unit_count_matches_content_units(catalog, schemas):
    for name in ("hand_assertional.trig", "publication_frames.trig", "weight.trig", "antenna_item.trig"):
        result = partitioned(name, catalog, schemas)
        typed, _ = build_typed_statement_units(result, UpriMinter(seed=9))
        expected = sum(1 for u in result.units if not u.is_identification)
        assert len(typed) == expected, name


def test_typed_unit_records_gap_for_unidentified_resource(catalog, schemas):
    result = partitioned("hand_bare.trig", catalog, schemas)
    typed, gaps = build_typed_statement_units(result, UpriMinter(seed=9))
    assert len(typed) == 1
    assert len(gaps) == 2  # neither hand nor thumb carries an identification


# -- quality measurement units ----------------------------------------------


def test_weight_quality_measurement_unit(catalog, schemas):
    result = partitioned("weight.trig", catalog, schemas)
    typed, _ = build_typed_statement_units(result, UpriMinter(seed=9))
    quality = build_quality_measurement_units(typed, result, UpriMinter(seed=10))
    assert len(quality) == 1
    (qm,) = quality
    assert qm.subject == EX + "objectX"
    assert len(qm.associated) == 2
    assert len(qm.links) == 1


def test_two_measurements_share_one_quality_compound(catalog, schemas):
    quads = list(fixture_dataset("weight.trig"))
    quads += [
        Quad(EX + "weightQ1", REL + "has-value", _lit("5.1"), EX + "g2"),
        Quad(EX + "weightQ1", REL + "has-unit", Iri(EX + "unit/Kilogram2"), EX + "g2"),
    ]
    result = partition(QuadDataset(quads), _schemas(), _catalog(), UpriMinter(seed=3))
    typed, _ = build_typed_statement_units(result, UpriMinter(seed=9))
    quality = build_quality_measurement_units(typed, result, UpriMinter(seed=10))
    assert len(quality) == 1
    assert len(quality[0].associated) == 3  # quality + two measurements


def test_no_quantitative_units_no_quality_compounds(catalog, schemas):
    result = partitioned("hand_assertional.trig", catalog, schemas)
    typed, _ = build_typed_statement_units(result, UpriMinter(seed=9))
    assert build_quality_measurement_units(typed, result, UpriMinter(seed=10)) == []


def _lit(value):
    from kgunits.store import Literal

    return Literal(value, datatype=vocab.XSD_DECIMAL)


def _catalog():
    from conftest import fixture_text
    from kgunits import load_catalog

    return load_catalog(fixture_text("catalog.cat"))


def _schemas():
    from conftest import fixture_text
    from kgunits import compile_schema

    return compile_schema(fixture_text("schemas.sus"))


# -- item units ---------------------------------------------------------------


def test_class_item_unit_over_universal_statements(catalog, schemas):
    result, compounds = _pipeline("antenna_item.trig", catalog, schemas)
    assert len(compounds.items) == 1
    (item,) = compounds.items
    assert vocab.CLASS_ITEM_UNIT in item.classes
    assert item.subject == EX + "everyAntennaType1"
    universal = [
        u.upri for u in result.units
        if vocab.UNIVERSAL_STATEMENT_UNIT in u.classes and not u.is_identification
    ]
    assert len(universal) == 4
    assert set(universal) <= set(item.associated)


def test_instance_item_unit_for_shared_subject(catalog, schemas):
    result, compounds = _pipeline("publication_frames.trig", catalog, schemas)
    by_subject = {i.subject: i for i in compounds.items}
    organism = by_subject[EX + "organism1"]
    assert vocab.INSTANCE_ITEM_UNIT in organism.classes
    member_units = [result.units_by_upri[u] for u in organism.associated if u in result.units_by_upri]
    assert all(u.subject == EX + "organism1" for u in member_units)


def test_empty_partition_no_items(catalog, schemas):
    from kgunits.units import partition as run

    result = run(QuadDataset(), schemas, catalog, UpriMinter(seed=1))
    items = build_item_units(result, [], [], catalog, UpriMinter(seed=2))
    assert items == []


def test_text_resource_hybrid_item_unit(catalog, schemas):
    from kgunits.store import Literal

    quads = [
        Quad(EX + "objective1", vocab.RDF_TYPE, Iri(EX + "ObjectiveSpec"), EX + "g"),
        Quad(EX + "objective1", vocab.DESCRIPTION, Literal("study the thing"), EX + "g"),
        Quad(EX + "objective1", vocab.MENTIONS, Iri(EX + "thing1"), EX + "g"),
        Quad(EX + "thing1", vocab.RDF_TYPE, Iri(EX + "Thing"), EX + "g"),
    ]
    result = partition(QuadDataset(quads), [], catalog, UpriMinter(seed=1))
    typed, _ = build_typed_statement_units(result, UpriMinter(seed=2))
    items = build_item_units(result, typed, [], catalog, UpriMinter(seed=3))
    hybrid = [i for i in items if vocab.TEXT_RESOURCE_HYBRID_ITEM_UNIT in i.classes]
    assert len(hybrid) == 1
    assert hybrid[0].subject == EX + "objective1"


# -- item group units ---------------------------------------------------------


def test_reciprocal_links_one_group(catalog):
    schemas = _schemas() + list(
        __import__("kgunits").compile_schema(
            f"""
unit <{SUC}parent-of> anchor <{REL}parent-of>
relation qualitative
template ?s <{REL}parent-of> ?o
subject ?s
arg ?o

unit <{SUC}child-of> anchor <{REL}child-of>
relation qualitative
template ?s <{REL}child-of> ?o
subject ?s
arg ?o
"""
        )
    )
    quads = [
        Quad(EX + "father", vocab.RDF_TYPE, Iri(EX + "Person"), EX + "g"),
        Quad(EX + "daughter", vocab.RDF_TYPE, Iri(EX + "Person"), EX + "g"),
        Quad(EX + "father", REL + "parent-of", Iri(EX + "daughter"), EX + "g"),
        Quad(EX + "daughter", REL + "child-of", Iri(EX + "father"), EX + "g"),
    ]
    result = partition(QuadDataset(quads), schemas, catalog, UpriMinter(seed=4))
    typed, _ = build_typed_statement_units(result, UpriMinter(seed=5))
    items = build_item_units(result, typed, [], catalog, UpriMinter(seed=6))
    assert len(items) == 2
    groups = build_item_group_units(items, result, catalog, UpriMinter(seed=7))
    assert len(groups) == 1
    (group,) = groups
    directions = {(a, b) for _, a, b in group.links}
    assert len(directions) == 2  # two opposite-direction item links
    assert vocab.INSTANCE_ITEM_GROUP_UNIT in group.classes


def test_class_axiom_item_group(catalog, schemas):
    result, compounds = _pipeline("antenna_triangle.trig", catalog, schemas)
    assert len(compounds.groups) == 1
    (group,) = compounds.groups
    assert vocab.CLASS_AXIOM_ITEM_GROUP_UNIT in group.classes


def test_unlinked_items_become_singleton_groups(catalog, schemas):
    quads = [
        Quad(EX + "a", vocab.RDF_TYPE, Iri(EX + "A"), EX + "g"),
        Quad(EX + "a", REL + "has-part", Iri(EX + "a2"), EX + "g"),
        Quad(EX + "b", vocab.RDF_TYPE, Iri(EX + "B"), EX + "g"),
        Quad(EX + "b", REL + "has-part", Iri(EX + "b2"), EX + "g"),
    ]
    result = partition(QuadDataset(quads), schemas, catalog, UpriMinter(seed=4))
    typed, _ = build_typed_statement_units(result, UpriMinter(seed=5))
    items = build_item_units(result, typed, [], catalog, UpriMinter(seed=6))
    groups = build_item_group_units(items, result, catalog, UpriMinter(seed=7))
    assert len(items) == 2
    assert len(groups) == 2
    assert all(sum(1 for m in g.associated if m in {i.upri for i in items}) == 1 for g in groups)


def test_every_item_in_exactly_one_group(catalog, schemas):
    for name in ("publication_frames.trig", "antenna_item.trig", "antenna_triangle.trig", "weight.trig"):
        _, compounds = _pipeline(name, catalog, schemas)
        membership = {}
        for group in compounds.groups:
            for member in group.associated:
                membership.setdefault(member, []).append(group.upri)
        for item in compounds.items:
            assert len(membership.get(item.upri, [])) == 1, name


_NODES = st.integers(0, 7)
_RELATIONS = st.sampled_from(["has-part", "part-of", "found-at", "longer-than"])


@st.composite
def _item_graphs(draw):
    """A random graph of relations and class affiliations over eight
    resources, and a random subset of its item units to group: the units
    of the items left out become orphans that may touch several groups."""
    quads = [
        Quad(f"{EX}r{s}", REL + rel, Iri(f"{EX}r{o}"), EX + "g")
        for s, rel, o in draw(st.lists(st.tuples(_NODES, _RELATIONS, _NODES), max_size=14))
    ]
    quads += [
        Quad(f"{EX}r{n}", vocab.RDF_TYPE, Iri(EX + cls), EX + "g")
        for n, cls in draw(st.lists(st.tuples(_NODES, st.sampled_from("AB")), max_size=6))
    ]
    keep = draw(st.lists(st.booleans(), min_size=8, max_size=8))
    return QuadDataset(quads), keep


@settings(max_examples=150, deadline=None)
@given(_item_graphs())
def test_item_groups_equal_the_rescanning_oracle(catalog, schemas, case):
    dataset, keep = case
    result = partition(dataset, schemas, catalog, UpriMinter(seed=4))
    typed, _ = build_typed_statement_units(result, UpriMinter(seed=5))
    items = build_item_units(result, typed, [], catalog, UpriMinter(seed=6))
    items = [i for i, k in zip(items, keep) if k]
    assert build_item_group_units(
        items, result, catalog, UpriMinter(seed=7)
    ) == oracle_item_group_units(items, result, catalog, UpriMinter(seed=7))


@st.composite
def _order_graphs(draw):
    """Random edges of the two partial orders over eight resources, with
    relations and class affiliations: several components per order, cycles,
    transitive edges, roots sharing nodes, and items about tree nodes."""
    orders = st.sampled_from(["has-part", "before", "found-at"])
    quads = [
        Quad(f"{EX}r{s}", REL + rel, Iri(f"{EX}r{o}"), EX + "g")
        for s, rel, o in draw(st.lists(st.tuples(_NODES, orders, _NODES), max_size=16))
    ]
    quads += [
        Quad(f"{EX}r{n}", vocab.RDF_TYPE, Iri(EX + cls), EX + "g")
        for n, cls in draw(st.lists(st.tuples(_NODES, st.sampled_from("AB")), max_size=6))
    ]
    return QuadDataset(quads)


def _has_part_star(leaves: int) -> QuadDataset:
    """A ``has-part`` star: each leaf has part one shared hub, so each leaf
    roots a tree of its own, and the hub and two leaves are typed."""
    quads = [Quad(f"{EX}leaf{i}", REL + "has-part", Iri(EX + "hub"), EX + "g") for i in range(leaves)]
    quads += [Quad(f"{EX}{n}", vocab.RDF_TYPE, Iri(EX + "A"), EX + "g") for n in ("hub", "leaf0", "leaf7")]
    return QuadDataset(quads)


@settings(max_examples=150, deadline=None)
@given(_order_graphs())
@example(_has_part_star(60))
def test_granularity_builders_equal_the_rescanning_oracles(catalog, schemas, dataset):
    result = partition(dataset, schemas, catalog, UpriMinter(seed=4))
    typed, _ = build_typed_statement_units(result, UpriMinter(seed=5))
    items = build_item_units(result, typed, [], catalog, UpriMinter(seed=6))
    trees = build_granularity_tree_units(result, catalog, UpriMinter(seed=8), typed)
    assert trees == compound_oracle.build_granularity_tree_units(
        result, catalog, UpriMinter(seed=8), typed
    )
    assert build_granular_item_groups(
        list(trees.units), items, UpriMinter(seed=9)
    ) == compound_oracle.build_granular_item_groups(
        list(trees.units), items, result, UpriMinter(seed=9)
    )


_DIAMOND = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("a", "d")]


@st.composite
def _digraphs(draw):
    """Edges over six nodes: acyclic ones (each edge from a lesser node to a
    greater) or any, so with self-loops and 2-cycles; often a diamond with
    its transitive edge, and often a second part apart from the first."""
    nodes = st.sampled_from("abcdef")
    edges = draw(st.lists(st.tuples(nodes, nodes), max_size=12))
    if draw(st.booleans()):
        edges = [(a, b) for a, b in edges if a < b]
    if draw(st.booleans()):
        edges += _DIAMOND
    if draw(st.booleans()):
        edges += [("x", "y"), ("y", "z"), ("x", "z")]
    return set(edges)


@settings(max_examples=300, deadline=None)
@given(_digraphs())
@example({("a", "a")})
@example({("a", "b"), ("b", "a")})
@example(set(_DIAMOND))
@example({("a", "b"), ("c", "d")})
def test_order_walk_equals_the_three_walks_it_replaced(edges):
    """One walk finds the old search's first cycle (self-loops and 2-cycles
    included), or else the old per-edge transitive reduction (a diamond
    loses its transitive edge), each node's children along it in sorted
    order, and the roots."""
    nodes = {n for e in edges for n in e}
    cycle, reduced, roots = _order_walk(edges)
    assert cycle == compound_oracle._find_cycle(nodes, edges)
    if cycle is None:
        assert {(a, b) for a, bs in reduced.items() for b in bs} == (
            compound_oracle._transitive_reduction(nodes, edges)
        )
        assert set(reduced) == nodes
        assert all(bs == sorted(bs) for bs in reduced.values())
        assert roots == sorted(nodes - {b for _, b in edges})


def test_order_walk_takes_a_chain_deeper_than_the_recursion_limit():
    """The old recursive cycle search raised ``RecursionError`` on a chain
    of about a thousand nodes, and ``compound`` ended in a traceback."""
    nodes = [f"n{i:05d}" for i in range(5000)]
    edges = set(zip(nodes, nodes[1:]))
    cycle, reduced, roots = _order_walk(edges)
    assert cycle is None and roots == [nodes[0]]
    assert reduced == {**{a: [b] for a, b in zip(nodes, nodes[1:])}, nodes[-1]: []}
    assert _order_walk(edges | {(nodes[-1], nodes[0])})[0] == nodes + [nodes[0]]


# -- granularity trees ----------------------------------------------------------


def test_parthood_granularity_trees(catalog, schemas):
    result = partitioned("publication_frames.trig", catalog, schemas)
    trees = build_granularity_tree_units(result, catalog, UpriMinter(seed=8), [])
    assert trees.cycles == ()
    by_subject = {t.subject: t for t in trees.units}
    organism_tree = by_subject[EX + "organism1"]
    assert organism_tree.order_predicate == REL + "has-part"
    assert set(organism_tree.edges) == {
        (EX + "organism1", EX + "head1"),
        (EX + "head1", EX + "eye1"),
    }
    # dataset1 --has-part--> description1 is its own tree
    assert EX + "dataset1" in by_subject


def test_single_edge_trivial_tree(catalog, schemas):
    result = partitioned("hand_bare.trig", catalog, schemas)
    trees = build_granularity_tree_units(result, catalog, UpriMinter(seed=8), [])
    assert len(trees.units) == 1
    (tree,) = trees.units
    assert tree.subject == EX + "LarsRightHand"
    assert tree.edges == ((EX + "LarsRightHand", EX + "LarsRightThumb"),)


def test_cycle_reported_and_skipped(catalog, schemas):
    quads = [
        Quad(EX + "a", REL + "has-part", Iri(EX + "b"), EX + "g"),
        Quad(EX + "b", REL + "has-part", Iri(EX + "a"), EX + "g"),
    ]
    result = partition(QuadDataset(quads), schemas, catalog, UpriMinter(seed=4))
    trees = build_granularity_tree_units(result, catalog, UpriMinter(seed=8), [])
    assert trees.units == ()
    assert len(trees.cycles) == 1


def test_transitive_edge_reduced_but_still_associated(catalog, schemas):
    quads = [
        Quad(EX + "a", REL + "has-part", Iri(EX + "b"), EX + "g"),
        Quad(EX + "b", REL + "has-part", Iri(EX + "c"), EX + "g"),
        Quad(EX + "a", REL + "has-part", Iri(EX + "c"), EX + "g"),
    ]
    result = partition(QuadDataset(quads), schemas, catalog, UpriMinter(seed=4))
    trees = build_granularity_tree_units(result, catalog, UpriMinter(seed=8), [])
    (tree,) = trees.units
    assert set(tree.edges) == {(EX + "a", EX + "b"), (EX + "b", EX + "c")}
    # the a->c statement unit stays associated with the tree unit
    ac_units = [u.upri for u in result.units if (u.subject, u.argument_iris()) == (EX + "a", (EX + "c",))]
    assert set(ac_units) <= set(tree.associated)


def test_multi_root_component_splits(catalog, schemas):
    quads = [
        Quad(EX + "r1", REL + "has-part", Iri(EX + "shared"), EX + "g"),
        Quad(EX + "r2", REL + "has-part", Iri(EX + "shared"), EX + "g"),
    ]
    result = partition(QuadDataset(quads), schemas, catalog, UpriMinter(seed=4))
    trees = build_granularity_tree_units(result, catalog, UpriMinter(seed=8), [])
    assert sorted(t.subject for t in trees.units) == [EX + "r1", EX + "r2"]


def test_granular_item_groups_join_trees_and_items(catalog, schemas):
    result, compounds = _pipeline("publication_frames.trig", catalog, schemas)
    by_subject = {g.subject: g for g in compounds.granular}
    organism_group = by_subject[EX + "organism1"]
    tree = next(t for t in compounds.trees.units if t.subject == EX + "organism1")
    assert organism_group.associated[0] == tree.upri
    tree_nodes = {n for e in tree.edges for n in e}
    item_subjects = {
        i.subject for i in compounds.items if i.upri in organism_group.associated
    }
    assert item_subjects <= tree_nodes


# -- context units ---------------------------------------------------------------


def test_three_frames_three_context_units(catalog, schemas):
    result = partitioned("publication_frames.trig", catalog, schemas)
    contexts = build_context_units(result, catalog, UpriMinter(seed=8))
    assert len(contexts.units) == 3
    assert len(contexts.boundaries) == 2
    assert contexts.degenerate == ()
    # every statement unit lands in exactly one context unit
    seen = {}
    for ctx in contexts.units:
        for member in ctx.associated:
            seen.setdefault(member, []).append(ctx.upri)
    for unit in result.units:
        assert len(seen.get(unit.upri, [])) == 1


def test_connected_dataset_single_context(catalog, schemas):
    result = partitioned("hand_assertional.trig", catalog, schemas)
    contexts = build_context_units(result, catalog, UpriMinter(seed=8))
    assert len(contexts.units) == 1


def test_random_k_component_dataset(catalog, schemas):
    rng = random.Random(23)
    for _ in range(5):
        k = rng.randint(1, 6)
        quads = []
        expected_nodes = {}
        for c in range(k):
            size = rng.randint(1, 4)
            nodes = [f"{EX}c{c}n{i}" for i in range(size + 1)]
            for i in range(size):
                quads.append(
                    Quad(nodes[i], REL + "has-part", Iri(nodes[i + 1]), EX + "g")
                )
            expected_nodes[c] = nodes
        result = partition(QuadDataset(quads), schemas, catalog, UpriMinter(seed=4))
        contexts = build_context_units(result, catalog, UpriMinter(seed=8))
        # union-find oracle over the same edges
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for q in quads:
            a, b = find(q.subject), find(q.object.value)
            if a != b:
                parent[a] = b
        expected = len({find(n) for c in expected_nodes for n in expected_nodes[c]})
        assert len(contexts.units) == expected


_KIND_PREDICATES = st.sampled_from([vocab.RDF_TYPE, vocab.SOME_INSTANCE_OF, vocab.EVERY_INSTANCE_OF])


@st.composite
def _context_graphs(draw):
    """Instance edges, kind-predicate edges and literal objects over eight
    resources, plus is-about quads whose endpoints may share a context, lie
    in two, or lie in none (a literal object, or one no other quad names)."""
    resource = _NODES.map(lambda n: f"{EX}r{n}")
    quads = [
        Quad(s, REL + rel, Iri(o), EX + "g")
        for s, rel, o in draw(st.lists(st.tuples(resource, _RELATIONS, resource), max_size=12))
    ]
    # One kind predicate per resource: partition refuses mixed affiliations.
    kind = draw(st.lists(_KIND_PREDICATES, min_size=8, max_size=8))
    quads += [
        Quad(f"{EX}r{n}", kind[n], Iri(EX + cls), EX + "g")
        for n, cls in draw(st.lists(st.tuples(_NODES, st.sampled_from("AB")), max_size=6))
    ]
    quads += [
        Quad(s, REL + "weight", _lit(n), EX + "g")
        for s, n in draw(st.lists(st.tuples(resource, st.integers(0, 3)), max_size=4))
    ]
    about = st.one_of(resource.map(Iri), st.just(_lit(1)))
    quads += [
        Quad(s, vocab.IS_ABOUT, o, EX + "g")
        for s, o in draw(st.lists(st.tuples(resource, about), max_size=4))
    ]
    return QuadDataset(quads)


@settings(max_examples=150, deadline=None)
@given(_context_graphs())
def test_context_units_equal_the_union_find_oracle(catalog, schemas, dataset):
    result = partition(dataset, schemas, catalog, UpriMinter(seed=4))
    assert build_context_units(
        result, catalog, UpriMinter(seed=8)
    ) == compound_oracle.build_context_units(result, catalog, UpriMinter(seed=8))


@pytest.mark.parametrize(
    "about, reason",
    [
        ("b", "both endpoints in one context unit"),
        # ex:c occurs only as the object of the is-about quad, so no unit's
        # subject lies in its component and it has no context unit.
        ("c", "endpoint outside every context unit"),
    ],
)
def test_degenerate_is_about_flagged(catalog, schemas, about, reason):
    quads = [
        Quad(EX + "a", REL + "has-part", Iri(EX + "b"), EX + "g"),
        Quad(EX + "a", catalog.is_about, Iri(EX + about), EX + "g"),
    ]
    result = partition(QuadDataset(quads), schemas, catalog, UpriMinter(seed=4))
    contexts = build_context_units(result, catalog, UpriMinter(seed=8))
    assert contexts.boundaries == ()
    assert [d.split(": ", 1)[1] for d in contexts.degenerate] == [reason]


# -- collections -------------------------------------------------------------------


def test_ordered_list_indexes_run_from_zero(catalog):
    members = [EX + "authorA", EX + "authorB", EX + "authorC"]
    compound, memberships = make_collection_unit(
        ORDERED_LIST, members, catalog, UpriMinter(seed=9)
    )
    assert len(memberships) == 3
    assert [m.argument_iris()[0] for m in memberships] == members
    indexes = sorted(
        int(q.object.lexical) for q in compound.extra_quads if q.predicate == catalog.index
    )
    assert indexes == [0, 1, 2]
    assert vocab.ORDERED_LIST_UNIT in compound.classes


def test_set_unit_rejects_duplicates(catalog):
    with pytest.raises(CollectionError):
        make_collection_unit(SET, [EX + "a", EX + "a"], catalog, UpriMinter(seed=9))


def test_empty_dataset_unit_is_valid(catalog):
    compound, memberships = make_collection_unit(DATASET, [], catalog, UpriMinter(seed=9))
    assert compound.kind == DATASET
    assert compound.associated == ()
    assert memberships == []


def test_dataset_unit_rejects_unknown_members(catalog):
    with pytest.raises(CollectionError):
        make_collection_unit(
            DATASET, [EX + "ghost"], catalog, UpriMinter(seed=9), known_units=set()
        )


def test_collection_units_persist_and_reload(catalog, schemas):
    """A collection unit persists as its ``compound_quads`` (with the
    ordered-list indexes) and each membership unit's data graph and
    declaration."""
    from kgunits.store import declaration_quads
    from kgunits.units import partition as run

    compound, memberships = make_collection_unit(
        ORDERED_LIST, [EX + "authorA", EX + "authorB"], catalog, UpriMinter(seed=9)
    )
    quads = compound_quads([compound], catalog)
    for m in memberships:
        quads += m.quads
        quads += declaration_quads(m.upri, m.classes, m.subject, (), catalog)
    dataset = QuadDataset(quads)
    # the synthesized membership units are adopted on re-partition
    result = run(dataset, schemas, catalog, UpriMinter(seed=10))
    assert {u.upri for u in result.units} == {m.upri for m in memberships}
    assert all(u.adopted for u in result.units)
    rebuilt = reconstruct_compounds(dataset, catalog)
    assert [c.upri for c in rebuilt] == [compound.upri]
    assert set(rebuilt[0].associated) == {m.upri for m in memberships}


# -- cross-cutting invariants ---------------------------------------------------


def test_compound_data_graph_is_union_of_members(catalog, schemas):
    # In the dataset compounds.trig holds, the graphs a compound unit's
    # statement units name hold exactly those units' quads.
    result, compounds = _pipeline("publication_frames.trig", catalog, schemas)
    lookup = {u.upri: u for u in result.units}
    merged = result.dataset.merge(compound_quads(list(compounds.all_units()), catalog))
    for compound in compounds.all_units():
        members = [lookup[m] for m in compound.associated if m in lookup]
        assert {q for m in members for q in merged.graph(m.upri)} == {
            q for m in members for q in m.quads
        }


def test_statement_unit_documented_in_one_location(catalog, schemas):
    # A statement unit may be associated with several compound units while
    # its quads exist under exactly one graph name.
    result, compounds = _pipeline("publication_frames.trig", catalog, schemas)
    lookup = {u.upri: u for u in result.units}
    membership = {}
    for compound in compounds.all_units():
        for member in compound.associated:
            if member in lookup:
                membership.setdefault(member, set()).add(compound.upri)
    multi = [m for m, cs in membership.items() if len(cs) >= 2]
    assert multi, "fixture should associate some unit with several compounds"
    for upri in membership:
        graphs = {q.graph for q in lookup[upri].quads}
        assert graphs == {upri}


def test_compound_quads_and_reconstruction(catalog, schemas):
    result, compounds = _pipeline("weight.trig", catalog, schemas)
    quads = compound_quads(list(compounds.all_units()), catalog)
    merged = result.dataset.merge(quads)
    rebuilt = reconstruct_compounds(merged, catalog)
    by_upri = {c.upri: c for c in rebuilt}
    for compound in compounds.all_units():
        assert compound.upri in by_upri
        assert set(by_upri[compound.upri].associated) == set(compound.associated)
        assert by_upri[compound.upri].subject == compound.subject


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.trig")))
def test_reconstruction_equals_the_whole_dataset_reader_on_fixtures(catalog, schemas, fixture):
    """Reading classes and subjects only for the resources with associated
    units rebuilds what reading every declaration rebuilt, on each fixture
    as ``pipeline`` hands it to ``nanopub``."""
    result, compounds = _pipeline(fixture, catalog, schemas)
    merged = result.dataset.merge(compound_quads(list(compounds.all_units()), catalog))
    downstream = partition(merged, schemas, catalog, UpriMinter(seed=5)).dataset
    rebuilt = reconstruct_compounds(downstream, catalog)
    assert rebuilt
    assert rebuilt == compound_oracle.reconstruct_compounds(downstream, catalog)
