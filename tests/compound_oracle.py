"""Compound builders as `kgunits.compound` wrote them before they became
linear: the item-group builder before it attached orphans through a
resource-to-component map and grouped links by root, and the granularity
builders before they grouped edges by component and items by subject.
The context builder is kept as it was before its union-find became the
shared `compound._components`, except that, like the builder, it reads an
is-about endpoint whose component holds no unit as outside every context
instead of failing with a `KeyError`. `reconstruct_compounds` is kept as
it was when it read the declarations of every typed resource, before it
read classes and subjects only for the resources with associated units.
The granularity builder's three graph helpers are kept as they were before
one depth-first walk (`compound._order_walk`) took their place: the cycle
search, a transitive reduction that searches once per edge, and a walk
per tree root, each over its own adjacency.

Kept as the oracles of the differential tests in `test_compound.py`: each
orphan walks every component in sorted order, each component rescans every
link, each tree root rescans every edge and each tree rescans every item,
so each is obviously the rule its docstring states.
"""

from __future__ import annotations

from kgunits import vocab
from kgunits.compound import (
    CONTEXT,
    GRANULAR_ITEM_GROUP,
    GRANULARITY_TREE,
    ITEM_GROUP,
    CompoundUnit,
    ContextResult,
    TreeResult,
    _KIND_CLASS,
    _resource_kind,
)
from kgunits.store import Iri, QuadDataset, ResourceKind, VocabularyCatalog, read_declarations
from kgunits.units import PartitionResult, StatementUnit


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


def build_granularity_tree_units(
    partition: PartitionResult,
    catalog: VocabularyCatalog,
    minter,
    typed: list[CompoundUnit] | None = None,
) -> TreeResult:
    """Trees induced by the catalog's partial-order predicates.

    Antisymmetry is checked operationally: a directed cycle in the edge set
    disqualifies its whole component. Transitive edges are dropped for the
    tree shape but their statement units stay associated with the tree.
    """
    typed = typed or []
    typed_by_ref: dict[str, str] = {t.associated[0]: t.upri for t in typed}
    trees: list[CompoundUnit] = []
    cycles: list[str] = []
    for predicate in sorted(catalog.partial_orders):
        units = [
            u
            for u in partition.units
            if u.anchor_predicate == predicate and not u.is_identification
        ]
        if not units:
            continue
        edges: dict[tuple[str, str], list[StatementUnit]] = {}
        for u in units:
            for obj in u.argument_iris():
                edges.setdefault((u.subject, obj), []).append(u)
        nodes = sorted({n for e in edges for n in e})
        adjacency: dict[str, set[str]] = {n: set() for n in nodes}
        for a, b in edges:
            adjacency[a].add(b)

        components = _weak_components(nodes, edges)
        for comp in components:
            comp_edges = {e for e in edges if e[0] in comp}
            cycle = _find_cycle(comp, comp_edges)
            if cycle:
                cycles.append(
                    f"{predicate}: cycle through {' -> '.join(cycle)}; component skipped"
                )
                continue
            reduced = _transitive_reduction(comp, comp_edges)
            incoming = {b for _, b in reduced}
            roots = sorted(n for n in comp if n not in incoming and any(a == n for a, _ in reduced))
            if not roots and len(comp) == 1:
                continue
            for root in roots:
                reachable = _reachable(root, reduced)
                tree_edges = tuple(
                    sorted((a, b) for a, b in reduced if a in reachable and b in reachable)
                )
                member_units = sorted(
                    {
                        u.upri
                        for (a, b), us in edges.items()
                        if a in reachable and b in reachable
                        for u in us
                    }
                )
                associated = list(member_units)
                for m in member_units:
                    t = typed_by_ref.get(m)
                    if t:
                        associated.append(t)
                trees.append(
                    CompoundUnit(
                        upri=minter(),
                        kind=GRANULARITY_TREE,
                        classes=frozenset({vocab.GRANULARITY_TREE_UNIT}),
                        associated=tuple(associated),
                        subject=root,
                        edges=tree_edges,
                        order_predicate=predicate,
                    )
                )
    return TreeResult(units=tuple(trees), cycles=tuple(cycles))


def _find_cycle(nodes: set[str], edges: set[tuple[str, str]]) -> list[str] | None:
    adjacency: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        adjacency[a].append(b)
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {n: WHITE for n in nodes}
    path: list[str] = []

    def visit(n: str) -> list[str] | None:
        colour[n] = GREY
        path.append(n)
        for nb in sorted(adjacency[n]):
            if colour[nb] == GREY:
                return path[path.index(nb) :] + [nb]
            if colour[nb] == WHITE:
                found = visit(nb)
                if found:
                    return found
        colour[n] = BLACK
        path.pop()
        return None

    for n in sorted(nodes):
        if colour[n] == WHITE:
            found = visit(n)
            if found:
                return found
    return None


def _transitive_reduction(
    nodes: set[str], edges: set[tuple[str, str]]
) -> set[tuple[str, str]]:
    adjacency: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in edges:
        adjacency[a].add(b)

    def reachable_without(a: str, b: str) -> bool:
        # Is b reachable from a via a path of length >= 2?
        stack = [nb for nb in adjacency[a] if nb != b]
        seen = set(stack)
        while stack:
            cur = stack.pop()
            if cur == b:
                return True
            for nb in adjacency[cur]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return False

    return {e for e in edges if not reachable_without(*e)}


def _reachable(root: str, edges: set[tuple[str, str]]) -> set[str]:
    adjacency: dict[str, set[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
    out = {root}
    stack = [root]
    while stack:
        cur = stack.pop()
        for nb in adjacency.get(cur, ()):
            if nb not in out:
                out.add(nb)
                stack.append(nb)
    return out


def build_granular_item_groups(
    trees: list[CompoundUnit],
    items: list[CompoundUnit],
    partition: PartitionResult,
    minter,
) -> list[CompoundUnit]:
    """Derived view joining each granularity tree with the item units whose
    subjects are tree nodes."""
    out: list[CompoundUnit] = []
    for tree in sorted(trees, key=lambda t: t.upri):
        tree_nodes = {n for e in tree.edges for n in e}
        member_items = sorted(
            i.upri for i in items if i.subject in tree_nodes
        )
        if not member_items:
            continue
        out.append(
            CompoundUnit(
                upri=minter(),
                kind=GRANULAR_ITEM_GROUP,
                classes=frozenset({vocab.GRANULAR_ITEM_GROUP_UNIT}),
                associated=tuple([tree.upri] + member_items),
                subject=tree.subject,
                order_predicate=tree.order_predicate,
            )
        )
    return out


def _weak_components(nodes: list[str], edges) -> list[set[str]]:
    neighbours: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen: set[str] = set()
    out: list[set[str]] = []
    for n in nodes:
        if n in seen:
            continue
        comp = {n}
        stack = [n]
        while stack:
            cur = stack.pop()
            for nb in neighbours[cur]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        out.append(comp)
    return out


def build_context_units(
    partition: PartitionResult,
    catalog: VocabularyCatalog,
    minter,
) -> ContextResult:
    """Connected components of the data layer once is-about quads are set
    aside; each is-about statement unit marks the border between the two
    context units its endpoints fall into.

    Connectivity runs along instance-to-instance edges: class-affiliation
    predicates and literal objects do not connect, otherwise two unrelated
    frames sharing an ontology class would collapse into one.
    """
    is_about_units = [
        u for u in partition.units if vocab.IS_ABOUT_STATEMENT_UNIT in u.classes
    ]
    is_about_upris = {u.upri for u in is_about_units}

    kind_preds = {catalog.type, catalog.some_instance_of, catalog.every_instance_of}
    nodes: set[str] = set()
    edges: list[tuple[str, str]] = []
    for u in partition.units:
        if u.upri in is_about_upris:
            continue
        for q in u.quads:
            nodes.add(q.subject)
            if q.predicate in kind_preds:
                continue
            if isinstance(q.object, Iri):
                nodes.add(q.object.value)
                edges.append((q.subject, q.object.value))
    for u in is_about_units:
        nodes.add(u.subject)
        for obj in u.argument_iris():
            nodes.add(obj)

    parent = {n: n for n in sorted(nodes)}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    component_of = {n: find(n) for n in nodes}
    units_by_component: dict[str, list[str]] = {}
    for u in sorted(partition.units, key=lambda u: u.upri):
        if u.upri in is_about_upris:
            continue
        root = component_of.get(u.subject)
        if root is None:
            continue
        units_by_component.setdefault(root, []).append(u.upri)

    context_by_component: dict[str, str] = {}
    contexts: list[CompoundUnit] = []
    boundary_tuples: list[tuple[str, str, str]] = []
    degenerate: list[str] = []
    pending_members: dict[str, list[str]] = {
        root: list(members) for root, members in sorted(units_by_component.items())
    }

    # is-about units belong to the context of their subject; resolve after
    # component membership is known.
    for u in sorted(is_about_units, key=lambda u: u.upri):
        root = component_of.get(u.subject)
        if root is not None:
            pending_members.setdefault(root, []).append(u.upri)

    for root in sorted(pending_members):
        upri = minter()
        context_by_component[root] = upri
        contexts.append(
            CompoundUnit(
                upri=upri,
                kind=CONTEXT,
                classes=frozenset({vocab.CONTEXT_UNIT}),
                associated=tuple(dict.fromkeys(pending_members[root])),
                subject=None,
            )
        )

    for u in sorted(is_about_units, key=lambda u: u.upri):
        # An endpoint whose component holds no unit has no context unit.
        subj_ctx = context_by_component.get(component_of.get(u.subject))
        obj_roots = [component_of.get(o) for o in u.argument_iris()]
        obj_ctx = context_by_component.get(obj_roots[0]) if obj_roots else None
        if subj_ctx is None or obj_ctx is None:
            degenerate.append(f"{u.upri}: endpoint outside every context unit")
            continue
        if subj_ctx == obj_ctx:
            degenerate.append(f"{u.upri}: both endpoints in one context unit")
            continue
        boundary_tuples.append((u.upri, subj_ctx, obj_ctx))

    return ContextResult(
        units=tuple(contexts),
        boundaries=tuple(boundary_tuples),
        degenerate=tuple(degenerate),
    )


def reconstruct_compounds(
    dataset: QuadDataset, catalog: VocabularyCatalog
) -> list[CompoundUnit]:
    """Rebuild compound units from their semantic-units-layer declarations
    (association, class, and subject quads)."""
    classes, subjects, associated = read_declarations(dataset, catalog)

    class_to_kind = {cls: kind for kind, cls in _KIND_CLASS.items()}
    out: list[CompoundUnit] = []
    for upri in sorted(associated):
        declared = frozenset(classes.get(upri, set()))
        kind = "compound"
        for cls in sorted(declared):
            if cls in class_to_kind:
                kind = class_to_kind[cls]
                break
        out.append(
            CompoundUnit(
                upri=upri,
                kind=kind,
                classes=declared or frozenset({vocab.COMPOUND_UNIT}),
                associated=tuple(sorted(dict.fromkeys(associated[upri]))),
                subject=subjects.get(upri),
            )
        )
    return out
