"""Reference versions of `kgunits.align`, the oracles of the differential
tests in `test_align.py`.

`greedy_match` is the all-pairs greedy matcher that `kgunits.align` used
before it matched equal signatures by bucket and scored only pairs that
share a key: it scores every left × right pair, so it is obviously the
greedy the module docstring describes.

`align_graphs` is the level-by-level alignment as it was written before
each level became a list of scopes: every level spelled out on its own,
with ``used`` sets that keep a statement unit from being matched in two
scopes. It reads the statement signature from `kgunits.align`, but keeps
the item and group signatures as the Counters they were before
`kgunits.align` compared bags as sets of (key, copy) pairs, and scores
them with the bag Jaccard `_jaccard_bags`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from kgunits.align import (
    LEVEL_GROUP,
    LEVEL_ITEM,
    LEVEL_STATEMENT,
    LEVEL_TRIPLE,
    AlignmentReport,
    Correspondence,
    ProcessedGraph,
    _quad_rows,
    _statement_signature,
    _subject_classes,
)
from kgunits.compound import CompoundUnit


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


def greedy_match(
    left: list[str], right: list[str], score
) -> list[tuple[str, str, Fraction]]:
    """Injective matching, best scores first, ties broken by identifier."""
    pairs = []
    for l in left:
        for r in right:
            s = score(l, r)
            if s > 0:
                pairs.append((s, l, r))
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    used_l: set[str] = set()
    used_r: set[str] = set()
    out = []
    for s, l, r in pairs:
        if l in used_l or r in used_r:
            continue
        used_l.add(l)
        used_r.add(r)
        out.append((l, r, s))
    return out


def greedy_match_signatures(left, right, sig_l, sig_r, jaccard=_jaccard_sets):
    """`greedy_match` with the call signature of `kgunits.align._greedy_match`,
    scoring with ``jaccard`` (the set Jaccard unless told otherwise)."""
    return greedy_match(left, right, lambda l, r: jaccard(sig_l[l], sig_r[r]))


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
    groups_a = {g.upri: g for g in a.compounds.groups}
    groups_b = {g.upri: g for g in b.compounds.groups}
    sig_ga = {u: _group_signature(a, g) for u, g in groups_a.items()}
    sig_gb = {u: _group_signature(b, g) for u, g in groups_b.items()}
    group_pairs = greedy_match_signatures(groups_a, groups_b, sig_ga, sig_gb, _jaccard_bags)
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
        item_pairs += greedy_match_signatures(
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
        for l, r, s in greedy_match_signatures(
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
        for l, r, s in greedy_match_signatures(
            left_units, right_units, sig_sa, sig_sb, _jaccard_sets
        ):
            statement_pairs.append((l, r, s))
            used_a.add(l)
            used_b.add(r)
    in_groups_a = {m for g in groups_a.values() for m in g.associated} | in_items_a
    in_groups_b = {m for g in groups_b.values() for m in g.associated} | in_items_b
    free_a = [u for u in units_a if u not in in_groups_a and u not in used_a]
    free_b = [u for u in units_b if u not in in_groups_b and u not in used_b]
    for l, r, s in greedy_match_signatures(free_a, free_b, sig_sa, sig_sb, _jaccard_sets):
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
        for lk, rk in zip(_quad_rows(units_a[l]), _quad_rows(units_b[r])):
            correspondences.append(Correspondence(LEVEL_TRIPLE, lk, rk, Fraction(1)))

    return AlignmentReport(
        correspondences=tuple(correspondences),
        unmatched_left=tuple(unmatched_left),
        unmatched_right=tuple(unmatched_right),
    )
