"""Hierarchical alignment of two organized knowledge graphs.

Matching walks the representational-granularity levels top down: item
group units first, item units inside matched groups, statement units
inside matched items, finally individual triples of perfectly matched
statement units. Candidates are compared by signatures built purely from
shared vocabulary (unit classes, subject classes, canonicalized data
graphs), so uniformly renaming instance identifiers on one side changes
nothing. Matching is greedy with a lexicographic tie-break; scores are
exact rationals (Jaccard overlap), and score 1 means structural identity.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .compound import CompoundResult, CompoundUnit
from .store import Iri, Quad, QuadDataset, VocabularyCatalog
from .units import PartitionResult, StatementUnit

LEVEL_GROUP = "item-group"
LEVEL_ITEM = "item"
LEVEL_STATEMENT = "statement"
LEVEL_TRIPLE = "triple"


@dataclass(frozen=True)
class Correspondence:
    level: str
    left: str
    right: str
    score: Fraction


@dataclass(frozen=True)
class AlignmentReport:
    correspondences: tuple[Correspondence, ...]
    unmatched_left: tuple[tuple[str, str], ...]  # (level, upri)
    unmatched_right: tuple[tuple[str, str], ...]
    diagnostic: str | None = None

    def at_level(self, level: str) -> tuple[Correspondence, ...]:
        return tuple(c for c in self.correspondences if c.level == level)


@dataclass(frozen=True)
class ProcessedGraph:
    """A graph after partitioning and compounding, ready for alignment."""

    dataset: QuadDataset
    partition: PartitionResult
    compounds: CompoundResult
    catalog: VocabularyCatalog

    def items(self) -> tuple[CompoundUnit, ...]:
        return self.compounds.items

    def groups(self) -> tuple[CompoundUnit, ...]:
        return self.compounds.groups

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
    kind_preds = catalog.kind_predicates
    instances: set[str] = set()
    for q in unit.quads:
        instances.add(q.subject)
        if isinstance(q.object, Iri) and q.predicate not in kind_preds:
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


def _item_signature(graph: ProcessedGraph, item: CompoundUnit) -> Counter:
    lookup = graph.partition.units_by_upri
    bag: Counter = Counter()
    for c in item.classes:
        bag[("class", c)] += 1
    bag[("subject-classes", _subject_classes(graph, item.subject))] += 1
    for member in item.associated:
        unit = lookup.get(member)
        if unit is not None:
            bag[("member", unit.classes)] += 1
    return bag


def _group_signature(graph: ProcessedGraph, group: CompoundUnit) -> Counter:
    items_by_upri = graph.items_by_upri
    lookup = graph.partition.units_by_upri
    bag: Counter = Counter()
    for member in group.associated:
        item = items_by_upri.get(member)
        if item is not None:
            bag[
                ("item", item.classes, _subject_classes(graph, item.subject))
            ] += 1
        else:
            unit = lookup.get(member)
            if unit is not None:
                bag[("orphan", unit.classes)] += 1
    return bag


def _jaccard_sets(a: frozenset, b: frozenset) -> Fraction:
    union = len(a | b)
    if union == 0:
        return Fraction(1)
    return Fraction(len(a & b), union)


def _jaccard_bags(a: Counter, b: Counter) -> Fraction:
    keys = set(a) | set(b)
    inter = sum(min(a[k], b[k]) for k in keys)
    union = sum(max(a[k], b[k]) for k in keys)
    if union == 0:
        return Fraction(1)
    return Fraction(inter, union)


# ---------------------------------------------------------------------------
# Greedy matching
# ---------------------------------------------------------------------------


def _greedy_match(
    left: Iterable[str], right: Iterable[str], sig_l: dict, sig_r: dict, jaccard
) -> list[tuple[str, str, Fraction]]:
    """Injective matching, best scores first, ties broken by identifier.

    The same list as scoring every pair with ``jaccard`` and taking the
    pairs above 0 in ``(-score, l, r)`` order (see the module docstring).
    """

    def hashable(sig):
        return frozenset(sig.items()) if isinstance(sig, Counter) else sig

    buckets: dict = {}
    for r in sorted(set(right), reverse=True):
        buckets.setdefault(hashable(sig_r[r]), []).append(r)
    out = []
    rest: list[str] = []
    for l in sorted(set(left)):
        equal = buckets.get(hashable(sig_l[l]))
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
            pairs.append((jaccard(sig_l[l], sig_r[r]), l, r))
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
    """Step-by-step alignment along the granularity levels."""
    registry_a = {u.schema_class for u in a.partition.units if u.schema_class}
    registry_b = {u.schema_class for u in b.partition.units if u.schema_class}
    if registry_a and registry_b and not registry_a & registry_b:
        return AlignmentReport(
            correspondences=(),
            unmatched_left=tuple(
                (LEVEL_STATEMENT, u.upri) for u in a.partition.units
            ),
            unmatched_right=tuple(
                (LEVEL_STATEMENT, u.upri) for u in b.partition.units
            ),
            diagnostic="no shared statement-unit classes between the two graphs",
        )

    correspondences: list[Correspondence] = []
    unmatched_left: list[tuple[str, str]] = []
    unmatched_right: list[tuple[str, str]] = []

    # Level 1: item group units.
    groups_a = {g.upri: g for g in a.groups()}
    groups_b = {g.upri: g for g in b.groups()}
    sig_ga = {u: _group_signature(a, g) for u, g in groups_a.items()}
    sig_gb = {u: _group_signature(b, g) for u, g in groups_b.items()}
    group_pairs = _greedy_match(groups_a, groups_b, sig_ga, sig_gb, _jaccard_bags)
    matched_ga = {l for l, _, _ in group_pairs}
    matched_gb = {r for _, r, _ in group_pairs}
    correspondences += [
        Correspondence(LEVEL_GROUP, l, r, s) for l, r, s in group_pairs
    ]
    unmatched_left += [(LEVEL_GROUP, u) for u in sorted(set(groups_a) - matched_ga)]
    unmatched_right += [(LEVEL_GROUP, u) for u in sorted(set(groups_b) - matched_gb)]

    # Level 2: item units inside matched groups.
    items_a = a.items_by_upri
    items_b = b.items_by_upri
    sig_ia = {u: _item_signature(a, i) for u, i in items_a.items()}
    sig_ib = {u: _item_signature(b, i) for u, i in items_b.items()}
    item_pairs: list[tuple[str, str, Fraction]] = []
    for gl, gr, _ in group_pairs:
        left_items = [u for u in groups_a[gl].associated if u in items_a]
        right_items = [u for u in groups_b[gr].associated if u in items_b]
        item_pairs += _greedy_match(
            left_items, right_items, sig_ia, sig_ib, _jaccard_bags
        )
    matched_ia = {l for l, _, _ in item_pairs}
    matched_ib = {r for _, r, _ in item_pairs}
    correspondences += [Correspondence(LEVEL_ITEM, l, r, s) for l, r, s in item_pairs]
    unmatched_left += [(LEVEL_ITEM, u) for u in sorted(set(items_a) - matched_ia)]
    unmatched_right += [(LEVEL_ITEM, u) for u in sorted(set(items_b) - matched_ib)]

    # Level 3: statement units inside matched items, then orphans inside
    # matched groups, then units outside any group.
    units_a = a.partition.units_by_upri
    units_b = b.partition.units_by_upri
    sig_sa = {u.upri: _statement_signature(a, u) for u in a.partition.units}
    sig_sb = {u.upri: _statement_signature(b, u) for u in b.partition.units}

    statement_pairs: list[tuple[str, str, Fraction]] = []
    used_a: set[str] = set()
    used_b: set[str] = set()
    for il, ir, _ in item_pairs:
        left_units = [u for u in items_a[il].associated if u in units_a]
        right_units = [u for u in items_b[ir].associated if u in units_b]
        for l, r, s in _greedy_match(
            left_units, right_units, sig_sa, sig_sb, _jaccard_sets
        ):
            if l not in used_a and r not in used_b:
                statement_pairs.append((l, r, s))
                used_a.add(l)
                used_b.add(r)
    in_items_a = {m for i in items_a.values() for m in i.associated}
    in_items_b = {m for i in items_b.values() for m in i.associated}
    for gl, gr, _ in group_pairs:
        left_units = [
            u
            for u in groups_a[gl].associated
            if u in units_a and u not in in_items_a and u not in used_a
        ]
        right_units = [
            u
            for u in groups_b[gr].associated
            if u in units_b and u not in in_items_b and u not in used_b
        ]
        for l, r, s in _greedy_match(
            left_units, right_units, sig_sa, sig_sb, _jaccard_sets
        ):
            statement_pairs.append((l, r, s))
            used_a.add(l)
            used_b.add(r)
    in_groups_a = {m for g in groups_a.values() for m in g.associated} | in_items_a
    in_groups_b = {m for g in groups_b.values() for m in g.associated} | in_items_b
    free_a = [u for u in units_a if u not in in_groups_a and u not in used_a]
    free_b = [u for u in units_b if u not in in_groups_b and u not in used_b]
    for l, r, s in _greedy_match(free_a, free_b, sig_sa, sig_sb, _jaccard_sets):
        statement_pairs.append((l, r, s))
        used_a.add(l)
        used_b.add(r)

    correspondences += [
        Correspondence(LEVEL_STATEMENT, l, r, s) for l, r, s in statement_pairs
    ]
    unmatched_left += [
        (LEVEL_STATEMENT, u) for u in sorted(set(units_a) - used_a)
    ]
    unmatched_right += [
        (LEVEL_STATEMENT, u) for u in sorted(set(units_b) - used_b)
    ]

    # Level 4: triples of perfectly matched statement units.
    for l, r, s in statement_pairs:
        if s != 1:
            continue
        left_rows = _quad_rows(units_a[l])
        right_rows = _quad_rows(units_b[r])
        for (lk, _), (rk, _) in zip(left_rows, right_rows):
            correspondences.append(Correspondence(LEVEL_TRIPLE, lk, rk, Fraction(1)))

    return AlignmentReport(
        correspondences=tuple(correspondences),
        unmatched_left=tuple(unmatched_left),
        unmatched_right=tuple(unmatched_right),
    )


def _quad_rows(unit: StatementUnit) -> list[tuple[str, Quad]]:
    rows = []
    for q in sorted(unit.quads, key=lambda q: (q.predicate,) + q.key()):
        if isinstance(q.object, Iri):
            o = f"<{q.object.value}>"
        else:
            o = f'"{q.object.lexical}"'
        rows.append((f"<{q.subject}> <{q.predicate}> {o}", q))
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
