"""The item-group builder that `kgunits.compound` used before it attached
orphans through a resource-to-component map and grouped links by root.

Kept as the oracle of the differential test in `test_compound.py`: each
orphan walks every component in sorted order, and each component rescans
every link, so it is obviously the rule the docstring states.
"""

from __future__ import annotations

from kgunits import vocab
from kgunits.compound import ITEM_GROUP, CompoundUnit, _resource_kind
from kgunits.store import Iri, ResourceKind, VocabularyCatalog
from kgunits.units import PartitionResult


def build_item_group_units(
    items: list[CompoundUnit],
    partition: PartitionResult,
    catalog: VocabularyCatalog,
    minter,
) -> list[CompoundUnit]:
    """Connected components of the item-link graph.

    A statement unit whose subject is the subject of item A and one of
    whose object arguments is the subject of item B links A to B. Units
    that belong to no item unit attach to the group whose resources they
    touch.
    """
    item_by_subject = {i.subject: i for i in items}
    links: list[tuple[str, str, str]] = []  # (statement unit, item A, item B)
    for u in sorted(partition.units, key=lambda u: u.upri):
        a = item_by_subject.get(u.subject)
        if a is None:
            continue
        for obj in u.argument_iris():
            b = item_by_subject.get(obj)
            if b is not None and b.upri != a.upri:
                links.append((u.upri, a.upri, b.upri))

    parent: dict[str, str] = {i.upri: i.upri for i in items}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: str, y: str):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for _, a, b in links:
        union(a, b)

    components: dict[str, list[CompoundUnit]] = {}
    for i in items:
        components.setdefault(find(i.upri), []).append(i)

    # Units that are members of some item unit.
    inside_items: set[str] = set()
    for i in items:
        inside_items.update(i.associated)

    # Orphans attach to the group whose item subjects or data resources
    # they touch.
    resources_by_component: dict[str, set[str]] = {}
    lookup = {u.upri: u for u in partition.units}
    for root, comp_items in components.items():
        resources: set[str] = set()
        for item in comp_items:
            resources.add(item.subject)
            for member in item.associated:
                unit = lookup.get(member)
                if unit is not None:
                    for q in unit.quads:
                        resources.add(q.subject)
                        if isinstance(q.object, Iri):
                            resources.add(q.object.value)
        resources_by_component[root] = resources

    orphans_by_component: dict[str, list[str]] = {root: [] for root in components}
    for u in sorted(partition.units, key=lambda u: u.upri):
        if u.upri in inside_items:
            continue
        touched = {u.subject} | set(u.argument_iris())
        for root in sorted(components):
            if touched & resources_by_component[root]:
                orphans_by_component[root].append(u.upri)
                break

    out: list[CompoundUnit] = []
    for root in sorted(components):
        comp_items = sorted(components[root], key=lambda i: i.upri)
        member_upris = [i.upri for i in comp_items] + orphans_by_component[root]
        comp_links = tuple(
            (via, a, b)
            for via, a, b in links
            if find(a) == root
        )
        subject_kinds = {
            _resource_kind(partition.dataset, i.subject, catalog) for i in comp_items
        }
        classes = {vocab.ITEM_GROUP_UNIT}
        if subject_kinds and subject_kinds <= {
            ResourceKind.SOME_INSTANCE,
            ResourceKind.EVERY_INSTANCE,
        }:
            if ResourceKind.EVERY_INSTANCE in subject_kinds:
                classes.add(vocab.CLASS_AXIOM_ITEM_GROUP_UNIT)
            else:
                classes.add(vocab.CLASS_ITEM_GROUP_UNIT)
        elif subject_kinds <= {
            ResourceKind.NAMED_INDIVIDUAL,
            ResourceKind.SEMANTIC_UNIT_RESOURCE,
        }:
            classes.add(vocab.INSTANCE_ITEM_GROUP_UNIT)
        out.append(
            CompoundUnit(
                upri=minter(),
                kind=ITEM_GROUP,
                classes=frozenset(classes),
                associated=tuple(dict.fromkeys(member_upris)),
                subject=None,
                links=comp_links,
            )
        )
    return out
