"""Hierarchical alignment of two organized knowledge graphs.

Matching walks the representational-granularity levels top down: item
group units first, item units inside matched groups, statement units
inside matched items (then the rest inside matched groups, then those in
no group), finally individual triples of perfectly matched statement
units. Candidates are compared by signatures built purely from shared
vocabulary (unit classes, subject classes, canonicalized data graphs),
so uniformly renaming instance identifiers on one side changes nothing.
Matching is greedy with a lexicographic tie-break; scores are exact
rationals (Jaccard overlap), and score 1 means structural identity. A
statement unit's signature is a set of keys; an item's or a group's is a
bag, compared as the set of its (key, copy) pairs, whose set Jaccard is
the bag Jaccard.

The greedy takes candidate pairs in ``(-score, left, right)`` order and
keeps each pair whose two ids are still free. It never scores all pairs:
a score is 1 exactly when the two signatures are equal (two empty
signatures included), so the right ids are bucketed by signature and each
left id, in sorted order, takes the smallest free right id of its bucket;
these are the pairs the greedy would take first. No pair left over then
has equal signatures, and a score is above 0 exactly when the two
signatures share a key, so an inverted index from key to the remaining
right ids yields the only pairs that need a score.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable
from functools import cached_property

from ._record import record
from .compound import CompoundResult, CompoundUnit
from .store import Iri, VocabularyCatalog
from .units import PartitionResult, StatementUnit

LEVEL_GROUP = "item-group"
LEVEL_ITEM = "item"
LEVEL_STATEMENT = "statement"
LEVEL_TRIPLE = "triple"


@record
class Correspondence:
    level: str
    left: str
    right: str
    score: Fraction


@record
class AlignmentReport:
    correspondences: tuple[Correspondence, ...]
    unmatched_left: tuple[tuple[str, str], ...]  # (level, upri)
    unmatched_right: tuple[tuple[str, str], ...]
    diagnostic: str | None = None


@record
class ProcessedGraph:
    """A graph after partitioning and compounding, ready for alignment."""

    partition: PartitionResult
    compounds: CompoundResult
    catalog: VocabularyCatalog

    @cached_property
    def subject_classes(self) -> dict[str, frozenset[str]]:
        """Classes each resource's identification units affiliate it with."""
        classes: dict[str, set[str]] = {}
        for unit in self.partition.units:
            if unit.is_identification:
                classes.setdefault(unit.subject, set()).update(unit.argument_iris())
        return {resource: frozenset(c) for resource, c in classes.items()}

    @cached_property
    def items_by_upri(self) -> dict[str, CompoundUnit]:
        return {i.upri: i for i in self.compounds.items}


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


def _subject_classes(graph: ProcessedGraph, resource: str) -> frozenset[str]:
    return graph.subject_classes.get(resource, frozenset())


def _canonical_graph(unit: StatementUnit, catalog: VocabularyCatalog) -> str:
    """Canonical rendering of the unit's data graph with instance
    identifiers replaced by placeholders (minimal over all assignments)."""
    affiliations = catalog.affiliations
    instances: set[str] = set()
    for q in unit.quads:
        instances.add(q.subject)
        if isinstance(q.object, Iri) and q.predicate not in affiliations:
            instances.add(q.object.value)
    instances.discard(unit.subject)
    locals_sorted = sorted(instances)

    def render(assignment: dict[str, str]) -> str:
        rows = []
        for q in unit.quads:
            s = assignment.get(q.subject, q.subject)
            if isinstance(q.object, Iri):
                o = assignment.get(q.object.value, q.object.value)
            else:
                o = f'"{q.object.lexical}"^^{q.object.datatype}'
            rows.append(f"{s} {q.predicate} {o}")
        return "\n".join(sorted(rows))

    base = {unit.subject: "?s"}
    if not locals_sorted:
        return render(base)
    if len(locals_sorted) > 6:
        # Degenerate safeguard; statement units are tiny in practice.
        assignment = dict(base)
        for i, r in enumerate(locals_sorted):
            assignment[r] = f"?{i}"
        return render(assignment)
    best = None
    slots = [f"?{i}" for i in range(len(locals_sorted))]
    for perm in itertools.permutations(slots):
        assignment = dict(base)
        assignment.update(zip(locals_sorted, perm))
        text = render(assignment)
        if best is None or text < best:
            best = text
    return best


def _statement_signature(
    graph: ProcessedGraph, unit: StatementUnit
) -> frozenset:
    items: set = {("class", c) for c in unit.classes}
    items.add(("subject-classes", _subject_classes(graph, unit.subject)))
    items.add(("graph", _canonical_graph(unit, graph.catalog)))
    return frozenset(items)


def _item_signature(graph: ProcessedGraph, item: CompoundUnit) -> frozenset:
    lookup = graph.partition.units_by_upri
    keys = [("class", c) for c in item.classes]
    keys.append(("subject-classes", _subject_classes(graph, item.subject)))
    keys += [("member", u.classes) for m in item.associated if (u := lookup.get(m)) is not None]
    return _bag(keys)


def _group_signature(graph: ProcessedGraph, group: CompoundUnit) -> frozenset:
    items_by_upri = graph.items_by_upri
    lookup = graph.partition.units_by_upri
    keys = []
    for member in group.associated:
        item = items_by_upri.get(member)
        if item is not None:
            keys.append(("item", item.classes, _subject_classes(graph, item.subject)))
        else:
            unit = lookup.get(member)
            if unit is not None:
                keys.append(("orphan", unit.classes))
    return _bag(keys)


def _bag(keys: Iterable) -> frozenset:
    """The multiset of ``keys`` as the set of its ``(key, i)`` pairs, ``i``
    below the key's count: two bags are equal exactly when these sets are,
    and their set Jaccard is the bag Jaccard (sum of min over sum of max)."""
    return frozenset((key, i) for key, n in Counter(keys).items() for i in range(n))


def _jaccard(a: frozenset, b: frozenset) -> Fraction:
    from fractions import Fraction

    union = len(a | b)
    if union == 0:
        return Fraction(1)
    return Fraction(len(a & b), union)


# ---------------------------------------------------------------------------
# Greedy matching
# ---------------------------------------------------------------------------


def _greedy_match(
    left: Iterable[str], right: Iterable[str], sig_l: dict, sig_r: dict
) -> list[tuple[str, str, Fraction]]:
    """Injective matching, best scores first, ties broken by identifier.

    The same list as scoring every pair with ``_jaccard`` and taking the
    pairs above 0 in ``(-score, l, r)`` order (see the module docstring).
    """
    from fractions import Fraction

    buckets: dict = {}
    for r in sorted(set(right), reverse=True):
        buckets.setdefault(sig_r[r], []).append(r)
    out = []
    rest: list[str] = []
    for l in sorted(set(left)):
        equal = buckets.get(sig_l[l])
        if equal:
            out.append((l, equal.pop(), Fraction(1)))
        else:
            rest.append(l)
    index: dict = {}
    for unused in buckets.values():
        for r in unused:
            for key in sig_r[r]:
                index.setdefault(key, []).append(r)
    pairs = []
    for l in rest:
        for r in {r for key in sig_l[l] for r in index.get(key, ())}:
            pairs.append((_jaccard(sig_l[l], sig_r[r]), l, r))
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    used_l: set[str] = set()
    used_r: set[str] = set()
    for s, l, r in pairs:
        if l in used_l or r in used_r:
            continue
        used_l.add(l)
        used_r.add(r)
        out.append((l, r, s))
    return out


def align_graphs(a: ProcessedGraph, b: ProcessedGraph) -> AlignmentReport:
    """Step-by-step alignment along the granularity levels.

    Each level is a list of scopes, pairs of id lists (left, right), and an
    id is matched only inside its scope. Triples pair up inside perfectly
    matched statement units.
    """
    from fractions import Fraction  # loads decimal; only the commands that align need both

    registry_a = {u.schema_class for u in a.partition.units if u.schema_class}
    registry_b = {u.schema_class for u in b.partition.units if u.schema_class}
    if registry_a and registry_b and not registry_a & registry_b:
        return AlignmentReport(
            (),
            tuple((LEVEL_STATEMENT, u.upri) for u in a.partition.units),
            tuple((LEVEL_STATEMENT, u.upri) for u in b.partition.units),
            "no shared statement-unit classes between the two graphs",
        )

    correspondences: list[Correspondence] = []
    unmatched_left: list[tuple[str, str]] = []
    unmatched_right: list[tuple[str, str]] = []

    def align_level(level, scopes, ids_a: dict, ids_b: dict, signature):
        """Match inside each scope; record the pairs, then the sorted ids
        of ``ids_a`` and ``ids_b`` that no scope matched."""
        sig_a = {u: signature(a, x) for u, x in ids_a.items()}
        sig_b = {u: signature(b, x) for u, x in ids_b.items()}
        pairs = [p for l, r in scopes for p in _greedy_match(l, r, sig_a, sig_b)]
        correspondences.extend(Correspondence(level, l, r, s) for l, r, s in pairs)
        unmatched_left.extend((level, u) for u in sorted(ids_a.keys() - {p[0] for p in pairs}))
        unmatched_right.extend((level, u) for u in sorted(ids_b.keys() - {p[1] for p in pairs}))
        return pairs

    def members(pairs, holders_a: dict, holders_b: dict, pool_a, pool_b):
        """One scope per matched pair: the members of each side in its pool."""
        return [
            ([u for u in holders_a[l].associated if u in pool_a],
             [u for u in holders_b[r].associated if u in pool_b])
            for l, r, _ in pairs
        ]

    # The greedy is injective inside one scope only. No id is matched twice
    # because the scopes of one level are disjoint for every ``build_all``
    # result, a condition this code does not check: groups are the
    # components over all items, so each item lies in exactly one group; a
    # statement unit lies in at most one item, the item of its subject; an
    # orphan unit is attached to one group only (the least of its roots);
    # and the free units lie in no group and no item.
    groups_a = {g.upri: g for g in a.compounds.groups}
    groups_b = {g.upri: g for g in b.compounds.groups}
    group_pairs = align_level(
        LEVEL_GROUP, [(groups_a, groups_b)], groups_a, groups_b, _group_signature
    )
    items_a, items_b = a.items_by_upri, b.items_by_upri
    item_pairs = align_level(
        LEVEL_ITEM, members(group_pairs, groups_a, groups_b, items_a, items_b),
        items_a, items_b, _item_signature,
    )
    units_a, units_b = a.partition.units_by_upri, b.partition.units_by_upri
    itemless_a = units_a.keys() - {m for i in items_a.values() for m in i.associated}
    itemless_b = units_b.keys() - {m for i in items_b.values() for m in i.associated}
    free = (
        itemless_a - {m for g in groups_a.values() for m in g.associated},
        itemless_b - {m for g in groups_b.values() for m in g.associated},
    )
    statement_pairs = align_level(
        LEVEL_STATEMENT,
        members(item_pairs, items_a, items_b, units_a, units_b)
        + members(group_pairs, groups_a, groups_b, itemless_a, itemless_b)
        + [free],
        units_a, units_b, _statement_signature,
    )
    for l, r, s in statement_pairs:
        if s == 1:
            correspondences.extend(
                Correspondence(LEVEL_TRIPLE, lk, rk, Fraction(1))
                for lk, rk in zip(_quad_rows(units_a[l]), _quad_rows(units_b[r]))
            )
    return AlignmentReport(tuple(correspondences), tuple(unmatched_left), tuple(unmatched_right))


def _quad_rows(unit: StatementUnit) -> list[str]:
    rows = []
    for q in sorted(unit.quads, key=lambda q: (q.predicate, q)):
        if isinstance(q.object, Iri):
            o = f"<{q.object.value}>"
        else:
            o = f'"{q.object.lexical}"'
        rows.append(f"<{q.subject}> <{q.predicate}> {o}")
    return rows


def render_report(report: AlignmentReport) -> str:
    """One correspondence per line: level, left, right, score."""
    lines = []
    if report.diagnostic:
        lines.append(f"# {report.diagnostic}\n")
    for c in report.correspondences:
        lines.append(f"{c.level}\t{c.left}\t{c.right}\t{c.score}\n")
    for level, upri in report.unmatched_left:
        lines.append(f"unmatched-left\t{level}\t{upri}\n")
    for level, upri in report.unmatched_right:
        lines.append(f"unmatched-right\t{level}\t{upri}\n")
    return "".join(lines)
