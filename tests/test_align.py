from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgunits import align
from kgunits.align import (
    LEVEL_GROUP,
    LEVEL_ITEM,
    LEVEL_STATEMENT,
    ProcessedGraph,
    align_graphs,
    render_report,
)
from kgunits.compound import build_all
from kgunits.fdo import UpriMinter
from kgunits.rdfio import parse_quads
from kgunits.store import Iri, Literal, Quad, QuadDataset
from kgunits.units import partition

import align_oracle
from align_oracle import _jaccard_bags, greedy_match_signatures
from conftest import FIXTURES, at_level, fixture_text

EX = "https://example.org/kg/"
REL = "https://example.org/rel/"
# Fixtures merged into one larger graph for the generated version pairs.
MERGED = (
    "publication_frames.trig",
    "weight.trig",
    "travel.trig",
    "antenna_item.trig",
    "endangered.trig",
    "hand_assertional.trig",
)


def _process(dataset, catalog, schemas, seed):
    part = partition(dataset, schemas, catalog, UpriMinter(seed=seed))
    compounds = build_all(part, catalog, UpriMinter(seed=seed + 1))
    return ProcessedGraph(part, compounds, catalog)


def _fixture_graph(name, catalog, schemas, seed=31):
    return _process(parse_quads(fixture_text(name), "trig"), catalog, schemas, seed)


def test_self_alignment_is_identity(catalog, schemas):
    graph = _fixture_graph("publication_frames.trig", catalog, schemas)
    report = align_graphs(graph, graph)
    assert report.diagnostic is None
    assert report.unmatched_left == () and report.unmatched_right == ()
    for c in report.correspondences:
        assert c.score == 1
        assert c.left == c.right


def test_same_source_different_seeds_full_statement_correspondence(catalog, schemas):
    dataset = parse_quads(fixture_text("publication_frames.trig"), "trig")
    a = _process(dataset, catalog, schemas, seed=100)
    b = _process(dataset, catalog, schemas, seed=200)
    report = align_graphs(a, b)
    statements = at_level(report, LEVEL_STATEMENT)
    assert len(statements) == len(a.partition.units)
    assert all(c.score == 1 for c in statements)
    assert not [u for level, u in report.unmatched_left if level == LEVEL_STATEMENT]


def _renamed(dataset, catalog) -> QuadDataset:
    """The dataset with every instance IRI moved under ``EX/mirror/``."""
    # Instance resources are everything except class-position resources
    # (objects of the class-affiliation predicates) and predicates.
    classes = {
        q.object.value
        for q in dataset
        if q.predicate in catalog.affiliations and isinstance(q.object, Iri)
    }

    def rename(iri: str) -> str:
        if iri in classes or not iri.startswith(EX):
            return iri
        return iri.replace(EX, EX + "mirror/")

    return QuadDataset(
        [
            Quad(
                rename(q.subject),
                q.predicate,
                Iri(rename(q.object.value)) if isinstance(q.object, Iri) else q.object,
                q.graph,
            )
            for q in dataset
        ]
    )


def _merged_dataset() -> QuadDataset:
    return QuadDataset(
        [q for name in MERGED for q in parse_quads(fixture_text(name), "trig")]
    )


def _edited(dataset: QuadDataset, edits: int) -> QuadDataset:
    """The dataset with its first ``edits`` edits applied, cycling through
    a changed literal, a dropped relation and an added relation."""
    quads = list(dataset)
    literals = [i for i, q in enumerate(quads) if isinstance(q.object, Literal)]
    relations = [i for i, q in enumerate(quads) if q.predicate.startswith(REL)]
    graph = quads[0].graph
    drop: set[int] = set()
    for k in range(edits):
        if k % 3 == 0:
            i = literals[k // 3]
            quads[i] = Quad(
                quads[i].subject,
                quads[i].predicate,
                Literal(quads[i].object.lexical + " (edited)", quads[i].object.datatype),
                quads[i].graph,
            )
        elif k % 3 == 1:
            drop.add(relations[-1 - k // 3])
        else:
            quads.append(
                Quad(EX + f"added{k}", REL + "has-part", Iri(EX + f"added{k}-part"), graph)
            )
    return QuadDataset([q for i, q in enumerate(quads) if i not in drop])


def test_uniform_instance_renaming_preserves_report(catalog, schemas):
    dataset = parse_quads(fixture_text("publication_frames.trig"), "trig")
    renamed = _renamed(dataset, catalog)
    a = _process(dataset, catalog, schemas, seed=100)
    b = _process(renamed, catalog, schemas, seed=100)
    c = _process(dataset, catalog, schemas, seed=100)
    base = align_graphs(a, c)
    mirrored = align_graphs(a, b)

    def shape(report):
        return sorted((c.level, c.score) for c in report.correspondences)

    assert shape(base) == shape(mirrored)
    assert all(c.score == 1 for c in at_level(mirrored, LEVEL_STATEMENT))


def test_disjoint_unit_classes_empty_report_with_diagnostic(catalog, schemas):
    from kgunits.schemas import compile_schema

    a = _fixture_graph("hand_assertional.trig", catalog, schemas)
    other_schemas = compile_schema(
        """
unit <https://example.org/other/rel> anchor <https://example.org/rel2/linked>
relation qualitative
template ?s <https://example.org/rel2/linked> ?o
subject ?s
arg ?o
"""
    )
    quads = [
        Quad(EX + "n1", "https://example.org/rel2/linked", Iri(EX + "n2"), EX + "g")
    ]
    b = _process(QuadDataset(quads), catalog, other_schemas, seed=5)
    report = align_graphs(a, b)
    assert report.correspondences == ()
    assert report.diagnostic is not None
    assert report.unmatched_left and report.unmatched_right


def test_perfect_match_symmetry(catalog, schemas):
    dataset = parse_quads(fixture_text("weight.trig"), "trig")
    a = _process(dataset, catalog, schemas, seed=100)
    b = _process(dataset, catalog, schemas, seed=200)
    forward = align_graphs(a, b)
    backward = align_graphs(b, a)
    ones_f = {(c.level, c.left, c.right) for c in forward.correspondences if c.score == 1}
    ones_b = {(c.level, c.right, c.left) for c in backward.correspondences if c.score == 1}
    assert ones_f == ones_b


def test_hierarchy_consistency(catalog, schemas):
    dataset = parse_quads(fixture_text("publication_frames.trig"), "trig")
    a = _process(dataset, catalog, schemas, seed=100)
    b = _process(dataset, catalog, schemas, seed=200)
    report = align_graphs(a, b)
    group_pairs = {(c.left, c.right) for c in at_level(report, LEVEL_GROUP)}
    item_pairs = {(c.left, c.right) for c in at_level(report, LEVEL_ITEM)}
    items_a = {i.upri: i for i in a.compounds.items}
    items_b = {i.upri: i for i in b.compounds.items}
    groups_a = {g.upri: g for g in a.compounds.groups}
    groups_b = {g.upri: g for g in b.compounds.groups}
    # every item correspondence sits inside a matched group pair
    for l, r in item_pairs:
        containing = [
            (gl, gr)
            for gl, gr in group_pairs
            if l in groups_a[gl].associated and r in groups_b[gr].associated
        ]
        assert containing
    # every statement correspondence between item members sits inside a
    # matched item pair
    for c in at_level(report, LEVEL_STATEMENT):
        holders_l = [i for i in items_a.values() if c.left in i.associated]
        holders_r = [i for i in items_b.values() if c.right in i.associated]
        if holders_l and holders_r:
            assert any(
                (hl.upri, hr.upri) in item_pairs
                for hl in holders_l
                for hr in holders_r
            )


def test_report_rendering(catalog, schemas):
    graph = _fixture_graph("hand_assertional.trig", catalog, schemas)
    text = render_report(align_graphs(graph, graph))
    assert "statement\t" in text
    assert "\t1\n" in text


# ---------------------------------------------------------------------------
# The bucketed matcher against the all-pairs oracle
# ---------------------------------------------------------------------------

_KEYS = st.sampled_from(["p", "q", "r", "s", "t"])
_BAGS = st.dictionaries(_KEYS, st.integers(1, 3), max_size=4).map(Counter)
_SETS = st.frozensets(_KEYS, max_size=4)


@st.composite
def _matching_case(draw, signatures):
    """Unique left and right ids (lengths drawn independently), each with a
    signature from a small pool, so ties, empty signatures and ids sharing
    one signature are common."""
    pool = draw(st.lists(signatures, min_size=1, max_size=5))
    left = draw(st.lists(st.sampled_from("abcdefghij"), unique=True, max_size=8))
    right = draw(st.lists(st.sampled_from("abcdefghij"), unique=True, max_size=8))
    sig_l = {l: draw(st.sampled_from(pool) | signatures) for l in left}
    sig_r = {r: draw(st.sampled_from(pool) | signatures) for r in right}
    return left, right, sig_l, sig_r


@settings(max_examples=300, deadline=None)
@given(_matching_case(_BAGS))
def test_greedy_match_equals_all_pairs_oracle_on_bags(case):
    """Bags matched as sets of (key, copy) pairs pair up as the Counters
    scored with the bag Jaccard do."""
    left, right, sig_l, sig_r = case
    bags_l = {l: align._bag(sig) for l, sig in sig_l.items()}
    bags_r = {r: align._bag(sig) for r, sig in sig_r.items()}
    assert align._greedy_match(left, right, bags_l, bags_r) == greedy_match_signatures(
        left, right, sig_l, sig_r, _jaccard_bags
    )


@settings(max_examples=300, deadline=None)
@given(_matching_case(_SETS))
def test_greedy_match_equals_all_pairs_oracle_on_sets(case):
    left, right, sig_l, sig_r = case
    assert align._greedy_match(left, right, sig_l, sig_r) == greedy_match_signatures(
        left, right, sig_l, sig_r
    )


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(_KEYS, st.integers(0, 4), max_size=3).map(Counter),
    st.dictionaries(_KEYS, st.integers(0, 4), max_size=3).map(Counter),
)
def test_bag_as_set_scores_and_compares_as_the_bag(a, b):
    assert align._jaccard(align._bag(a), align._bag(b)) == _jaccard_bags(a, b)
    assert (align._bag(a) == align._bag(b)) == (a == b)


_EMPTY, _P, _PQ = frozenset(), frozenset("p"), frozenset("pq")


@pytest.mark.parametrize(
    "left, right, sig_l, sig_r, expected",
    [
        # Two empty signatures score 1; empty against non-empty scores 0.
        (["a", "b"], ["x"], {"a": _EMPTY, "b": _PQ}, {"x": _EMPTY}, [("a", "x", 1)]),
        # Equal signatures: each left id takes the smallest free right id.
        (
            ["b", "a"],
            ["y", "x", "z"],
            {"a": _PQ, "b": _PQ},
            {"x": _PQ, "y": _PQ, "z": _P},
            [("a", "x", 1), ("b", "y", 1)],
        ),
        # A tie below 1 is broken by the left id, then by the right id.
        (
            ["a", "b"],
            ["x", "y"],
            {"a": _PQ, "b": _PQ},
            {"x": frozenset("pr"), "y": frozenset("qr")},
            [("a", "x", Fraction(1, 3)), ("b", "y", Fraction(1, 3))],
        ),
    ],
)
def test_greedy_match_named_cases(left, right, sig_l, sig_r, expected):
    got = align._greedy_match(left, right, sig_l, sig_r)
    assert got == expected
    assert got == greedy_match_signatures(left, right, sig_l, sig_r)


def _version_pair(name, catalog, schemas):
    if name == "generated":
        dataset = _merged_dataset()
        changed = _edited(_renamed(dataset, catalog), edits=6)
        return (
            _process(dataset, catalog, schemas, seed=100),
            _process(changed, catalog, schemas, seed=200),
        )
    dataset = parse_quads(fixture_text(name), "trig")
    return (
        _process(dataset, catalog, schemas, seed=100),
        _process(_edited(dataset, edits=2), catalog, schemas, seed=200),
    )


@pytest.mark.parametrize("name", ["publication_frames.trig", "weight.trig", "generated"])
def test_align_graphs_equals_all_pairs_oracle(catalog, schemas, monkeypatch, name):
    a, b = _version_pair(name, catalog, schemas)
    report = align_graphs(a, b)
    monkeypatch.setattr(align, "_greedy_match", greedy_match_signatures)
    assert report == align_graphs(a, b)
    assert any(c.score != 1 for c in report.correspondences)


# ---------------------------------------------------------------------------
# The scoped levels against the level-by-level oracle
# ---------------------------------------------------------------------------

_TRIG_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.trig"))


@pytest.mark.parametrize("name", ["publication_frames.trig", "weight.trig", "generated"])
def test_align_graphs_equals_level_by_level_oracle(catalog, schemas, name):
    a, b = _version_pair(name, catalog, schemas)
    assert align_graphs(a, b) == align_oracle.align_graphs(a, b)
    assert align_graphs(b, a) == align_oracle.align_graphs(b, a)


@settings(max_examples=40, deadline=None)
@given(
    names=st.lists(st.sampled_from(_TRIG_FIXTURES), min_size=1, max_size=4, unique=True),
    rename=st.booleans(),
    edits=st.integers(0, 7),
    seed=st.integers(0, 1000),
)
def test_align_graphs_equals_oracle_on_generated_versions(
    catalog, schemas, names, rename, edits, seed
):
    """Whole reports agree on merged fixtures (items, orphans and free
    units alike) against a renamed and edited copy, in both directions."""
    dataset = QuadDataset(
        [q for name in names for q in parse_quads(fixture_text(name), "trig")]
    )
    literals = sum(isinstance(q.object, Literal) for q in dataset)
    relations = sum(q.predicate.startswith(REL) for q in dataset)
    changed = _edited(
        _renamed(dataset, catalog) if rename else dataset,
        min(edits, 3 * literals, 3 * relations + 1),
    )
    a = _process(dataset, catalog, schemas, seed=seed)
    b = _process(changed, catalog, schemas, seed=seed + 2)
    assert align_graphs(a, b) == align_oracle.align_graphs(a, b)
    assert align_graphs(b, a) == align_oracle.align_graphs(b, a)


def _count_scores(monkeypatch) -> Counter:
    calls: Counter = Counter()
    real = align._jaccard

    def counted(x, y):
        calls["_jaccard"] += 1
        return real(x, y)

    monkeypatch.setattr(align, "_jaccard", counted)
    return calls


def test_self_alignment_scores_no_pair(catalog, schemas, monkeypatch):
    """Every signature has an equal partner, so buckets match everything."""
    graph = _process(_merged_dataset(), catalog, schemas, seed=100)
    calls = _count_scores(monkeypatch)
    report = align_graphs(graph, graph)
    assert report.unmatched_left == () and report.unmatched_right == ()
    assert sum(calls.values()) == 0


def test_one_edit_scores_few_pairs(catalog, schemas, monkeypatch):
    """One changed record leaves only a handful of pairs to score, not
    every left x right pair."""
    dataset = _merged_dataset()
    a = _process(dataset, catalog, schemas, seed=100)
    b = _process(_edited(_renamed(dataset, catalog), edits=1), catalog, schemas, seed=200)
    calls = _count_scores(monkeypatch)
    report = align_graphs(a, b)
    assert any(c.score != 1 for c in report.correspondences)
    assert 0 < sum(calls.values()) <= 8
