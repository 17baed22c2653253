"""Compound units: semantically meaningful collections of other units.

A compound unit carries no data graph of its own; merging the data graphs
of its associated units is its data graph. The builders here are pure
functions over a finished partition. Build order matters for the first
three (typed, then quality measurement, then item units); trees and
contexts only need the partition.
"""

from __future__ import annotations

from . import vocab
from ._record import record
from .errors import AmbiguousResourceKindError, CollectionError, UnknownResourceError
from .store import (
    Iri,
    Literal,
    Quad,
    QuadDataset,
    ResourceKind,
    ResourceKinds,
    VocabularyCatalog,
    classify_resource,
    declaration_quads,
    read_declarations,
)
from .units import ARGUMENT, PartitionResult, StatementUnit, UnitObject

TYPED_STATEMENT = "typed-statement"
QUALITY_MEASUREMENT = "quality-measurement"
ITEM = "item"
ITEM_GROUP = "item-group"
GRANULARITY_TREE = "granularity-tree"
GRANULAR_ITEM_GROUP = "granular-item-group"
CONTEXT = "context"
DATASET = "dataset"
ORDERED_LIST = "ordered-list"
UNORDERED_LIST = "unordered-list"
SET = "set"

_KIND_CLASS = {
    TYPED_STATEMENT: vocab.TYPED_STATEMENT_UNIT,
    QUALITY_MEASUREMENT: vocab.QUALITY_MEASUREMENT_UNIT,
    ITEM: vocab.ITEM_UNIT,
    ITEM_GROUP: vocab.ITEM_GROUP_UNIT,
    GRANULARITY_TREE: vocab.GRANULARITY_TREE_UNIT,
    GRANULAR_ITEM_GROUP: vocab.GRANULAR_ITEM_GROUP_UNIT,
    CONTEXT: vocab.CONTEXT_UNIT,
    DATASET: vocab.DATASET_UNIT,
    ORDERED_LIST: vocab.ORDERED_LIST_UNIT,
    UNORDERED_LIST: vocab.UNORDERED_LIST_UNIT,
    SET: vocab.SET_UNIT,
}
_CLASS_KIND = {cls: kind for kind, cls in _KIND_CLASS.items()}


@record
class CompoundUnit:
    upri: str
    classes: frozenset[str]
    associated: tuple[str, ...]
    subject: str | None = None
    links: tuple[tuple[str, str, str], ...] = ()  # (via statement unit, from, to)
    members: tuple[str, ...] = ()  # ordered members of dataset/list units
    edges: tuple[tuple[str, str], ...] = ()  # (parent, child) resources of trees
    order_predicate: str | None = None
    extra_quads: tuple[Quad, ...] = ()

    @property
    def kind(self) -> str:
        """The kind of the least (in IRI order) of the unit's classes that
        names one, ``"compound"`` when none does."""
        kinded = [c for c in self.classes if c in _CLASS_KIND]
        return _CLASS_KIND[min(kinded)] if kinded else "compound"


@record
class ContextResult:
    units: tuple[CompoundUnit, ...]
    boundaries: tuple[tuple[str, str, str], ...]  # (is-about unit, ctx of subject, ctx of object)
    degenerate: tuple[str, ...] = ()


@record
class TreeResult:
    units: tuple[CompoundUnit, ...]
    cycles: tuple[str, ...] = ()


def _resource_kind(
    dataset: QuadDataset, resource: str, catalog: VocabularyCatalog
) -> ResourceKind | None:
    try:
        return classify_resource(dataset, resource, catalog)
    except (UnknownResourceError, AmbiguousResourceKindError):
        return None


def _category(dataset: QuadDataset, resource: str, catalog: VocabularyCatalog) -> str | None:
    """The subject category of ``resource``, ``None`` for no instance-like kind."""
    return ResourceKinds.CATEGORIES.get(_resource_kind(dataset, resource, catalog))


# ---------------------------------------------------------------------------
# Typed statement units
# ---------------------------------------------------------------------------


def build_typed_statement_units(
    partition: PartitionResult,
    minter,
) -> tuple[list[CompoundUnit], list[str]]:
    """One typed statement unit per non-identification statement unit.

    Associated are the reference unit plus the identification units of all
    resources its data graph mentions; a referenced resource without an
    identification unit is recorded as a gap, not an error.
    """
    id_by_resource: dict[str, StatementUnit] = {}
    for u in partition.units:
        if u.is_identification:
            id_by_resource.setdefault(u.subject, u)

    typed: list[CompoundUnit] = []
    gaps: list[str] = []
    for unit in sorted(partition.units, key=lambda u: u.upri):
        if unit.is_identification:
            continue
        referenced = {unit.subject}
        for q in unit.quads:
            referenced.add(q.subject)
            if isinstance(q.object, Iri):
                referenced.add(q.object.value)
        associated = [unit.upri]
        for resource in sorted(referenced):
            ident = id_by_resource.get(resource)
            if ident is not None:
                associated.append(ident.upri)
            else:
                gaps.append(
                    f"typed unit for {unit.upri}: no identification unit for {resource}"
                )
        typed.append(
            CompoundUnit(
                upri=minter(),
                classes=frozenset({vocab.TYPED_STATEMENT_UNIT}),
                associated=tuple(dict.fromkeys(associated)),
                subject=unit.subject,
            )
        )
    return typed, gaps


# ---------------------------------------------------------------------------
# Quality measurement units
# ---------------------------------------------------------------------------


def build_quality_measurement_units(
    typed: list[CompoundUnit],
    partition: PartitionResult,
    minter,
) -> list[CompoundUnit]:
    """Group each qualitative typed unit with every quantitative typed unit
    whose subject is one of its object arguments."""
    lookup = partition.units_by_upri

    def reference(compound: CompoundUnit) -> StatementUnit:
        return lookup[compound.associated[0]]

    quantitative_by_subject: dict[str, list[CompoundUnit]] = {}
    for t in typed:
        ref = reference(t)
        if vocab.QUANTITATIVE_STATEMENT_UNIT in ref.classes:
            quantitative_by_subject.setdefault(ref.subject, []).append(t)

    out: list[CompoundUnit] = []
    for t in sorted(typed, key=lambda c: c.upri):
        ref = reference(t)
        if vocab.QUANTITATIVE_STATEMENT_UNIT in ref.classes:
            continue
        measurements: list[CompoundUnit] = []
        for obj in ref.argument_iris():
            measurements.extend(quantitative_by_subject.get(obj, []))
        if not measurements:
            continue
        measurements.sort(key=lambda c: c.upri)
        links = tuple(
            (ref.upri, ref.upri, lookup[m.associated[0]].upri) for m in measurements
        )
        out.append(
            CompoundUnit(
                upri=minter(),
                classes=frozenset({vocab.QUALITY_MEASUREMENT_UNIT}),
                associated=tuple([t.upri] + [m.upri for m in measurements]),
                subject=ref.subject,
                links=links,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Item units
# ---------------------------------------------------------------------------


def build_item_units(
    partition: PartitionResult,
    typed: list[CompoundUnit],
    quality: list[CompoundUnit],
    catalog: VocabularyCatalog,
    minter,
) -> list[CompoundUnit]:
    """One item unit per subject that carries at least one statement beyond
    its own identification.

    Measurement statement units stay inside their quality measurement
    compound and do not open an item unit of their own.
    """
    typed_by_upri = {t.upri: t for t in typed}
    absorbed_refs: set[str] = set()
    for q in quality:
        for t_upri in q.associated[1:]:
            t = typed_by_upri.get(t_upri)
            if t is not None:
                absorbed_refs.add(t.associated[0])

    members_by_subject: dict[str, list[str]] = {}

    def add(subject: str, upri: str):
        members_by_subject.setdefault(subject, []).append(upri)

    has_content: set[str] = set()
    for u in partition.units:
        if u.upri in absorbed_refs:
            continue
        add(u.subject, u.upri)
        if not u.is_identification:
            has_content.add(u.subject)
    for t in typed:
        if t.associated[0] in absorbed_refs:
            continue
        add(t.subject, t.upri)
    for q in quality:
        add(q.subject, q.upri)

    data, _ = partition.dataset.split_layers(catalog)
    descriptions: set[str] = set()
    mentions: set[str] = set()
    for q in data:
        if q.predicate == catalog.description and isinstance(q.object, Literal):
            descriptions.add(q.subject)
        elif q.predicate == catalog.mentions:
            mentions.add(q.subject)

    out: list[CompoundUnit] = []
    for subject in sorted(has_content):
        classes = {vocab.ITEM_UNIT}
        category = _category(partition.dataset, subject, catalog)
        if subject in descriptions and subject in mentions:
            classes.add(vocab.TEXT_RESOURCE_HYBRID_ITEM_UNIT)
        elif category == vocab.ASSERTIONAL_STATEMENT_UNIT:
            classes.add(vocab.INSTANCE_ITEM_UNIT)
        elif category is not None:
            classes.add(vocab.CLASS_ITEM_UNIT)
        out.append(
            CompoundUnit(
                upri=minter(),
                classes=frozenset(classes),
                associated=tuple(sorted(dict.fromkeys(members_by_subject[subject]))),
                subject=subject,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Item group units
# ---------------------------------------------------------------------------


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

    root_of = _components([i.upri for i in items], [(a, b) for _, a, b in links])
    components: dict[str, list[CompoundUnit]] = {}
    for i in items:
        components.setdefault(root_of[i.upri], []).append(i)

    # Units that are members of some item unit.
    inside_items: set[str] = set()
    for i in items:
        inside_items.update(i.associated)

    # Orphans attach to the first group, in sorted order, whose item
    # subjects or data resources they touch.
    first_component: dict[str, str] = {}
    lookup = partition.units_by_upri
    for root in sorted(components):
        for item in components[root]:
            first_component.setdefault(item.subject, root)
            for member in item.associated:
                unit = lookup.get(member)
                if unit is not None:
                    for q in unit.quads:
                        first_component.setdefault(q.subject, root)
                        if isinstance(q.object, Iri):
                            first_component.setdefault(q.object.value, root)
    orphans_by_component: dict[str, list[str]] = {root: [] for root in components}
    for u in sorted(partition.units, key=lambda u: u.upri):
        if u.upri in inside_items:
            continue
        roots = [
            first_component[r]
            for r in (u.subject, *u.argument_iris())
            if r in first_component
        ]
        if roots:
            orphans_by_component[min(roots)].append(u.upri)

    links_by_component: dict[str, list[tuple[str, str, str]]] = {}
    for link in links:
        links_by_component.setdefault(root_of[link[1]], []).append(link)

    out: list[CompoundUnit] = []
    for root in sorted(components):
        comp_items = sorted(components[root], key=lambda i: i.upri)
        member_upris = [i.upri for i in comp_items] + orphans_by_component[root]
        comp_links = tuple(links_by_component.get(root, ()))
        categories = {_category(partition.dataset, i.subject, catalog) for i in comp_items}
        classes = {vocab.ITEM_GROUP_UNIT}
        if categories <= {vocab.ASSERTIONAL_STATEMENT_UNIT}:
            classes.add(vocab.INSTANCE_ITEM_GROUP_UNIT)
        elif categories <= {vocab.CONTINGENT_STATEMENT_UNIT, vocab.UNIVERSAL_STATEMENT_UNIT}:
            if vocab.UNIVERSAL_STATEMENT_UNIT in categories:
                classes.add(vocab.CLASS_AXIOM_ITEM_GROUP_UNIT)
            else:
                classes.add(vocab.CLASS_ITEM_GROUP_UNIT)
        out.append(
            CompoundUnit(
                upri=minter(),
                classes=frozenset(classes),
                associated=tuple(dict.fromkeys(member_upris)),
                subject=None,
                links=comp_links,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Granularity tree units
# ---------------------------------------------------------------------------


def build_granularity_tree_units(
    partition: PartitionResult,
    catalog: VocabularyCatalog,
    minter,
    typed: list[CompoundUnit],
) -> TreeResult:
    """Trees induced by the catalog's partial-order predicates.

    Antisymmetry is checked operationally: a directed cycle in the edge set
    disqualifies its whole component. Transitive edges are dropped for the
    tree shape but their statement units stay associated with the tree.
    """
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
        units_from: dict[str, list[StatementUnit]] = {}  # by the source of their edges
        for u in units:
            for obj in u.argument_iris():
                edges.setdefault((u.subject, obj), []).append(u)
                units_from.setdefault(u.subject, []).append(u)
        root_of = _components({n for e in edges for n in e}, edges)
        # The edges of each component, in the order of ``edges``.
        by_component: dict[str, dict] = {}
        for (a, b), us in edges.items():
            by_component.setdefault(root_of[a], {})[a, b] = us
        for _, comp_edges in sorted(by_component.items()):
            cycle, reduced, roots = _order_walk(comp_edges)
            if cycle:
                cycles.append(
                    f"{predicate}: cycle through {' -> '.join(cycle)}; component skipped"
                )
                continue
            for root in roots:
                # The tree is what the reduced edges reach from its root.
                tree, stack, tree_edges = {root}, [root], []
                while stack:
                    a = stack.pop()
                    for b in reduced[a]:
                        tree_edges.append((a, b))
                        if b not in tree:
                            tree.add(b)
                            stack.append(b)
                member_units = sorted({u.upri for n in tree for u in units_from.get(n, ())})
                associated = member_units + [typed_by_ref[m] for m in member_units if m in typed_by_ref]
                trees.append(
                    CompoundUnit(
                        upri=minter(),
                        classes=frozenset({vocab.GRANULARITY_TREE_UNIT}),
                        associated=tuple(associated),
                        subject=root,
                        edges=tuple(sorted(tree_edges)),
                        order_predicate=predicate,
                    )
                )
    return TreeResult(units=tuple(trees), cycles=tuple(cycles))


def _components(nodes, edges) -> dict[str, str]:
    """Map each node to the least node of its component, edges read as
    undirected; every edge endpoint must be among ``nodes``."""
    parent = {n: n for n in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def _order_walk(edges) -> tuple[list[str] | None, dict[str, list[str]], list[str]]:
    """One depth-first walk over a component's edges, taking nodes and each
    node's children in sorted order. If it meets a cycle it returns the path
    from the repeated node back to it. Otherwise it returns each node's
    children along the edges that are not transitive (a -> b is transitive
    when b is a descendant of another child of a), in sorted order, and the
    roots in sorted order. The walk keeps its own stack, so a long chain
    cannot exhaust the interpreter's recursion limit, and holds each node's
    descendants as an integer bit set, so a deep order costs n² bits."""
    children: dict[str, list[str]] = {}
    for a, b in sorted(edges):
        children.setdefault(a, []).append(b)
        children.setdefault(b, [])
    bit = {n: 1 << i for i, n in enumerate(children)}
    seen: set[str] = set()
    below: dict[str, int] = {}  # the nodes the walk has finished
    reduced: dict[str, list[str]] = {}
    for start in sorted(children):
        if start in seen:
            continue
        seen.add(start)
        stack = [(start, iter(children[start]))]
        while stack:
            n, rest = stack[-1]
            c = next((c for c in rest if c not in below), None)
            if c is None:
                stack.pop()
                via = 0
                for c in children[n]:
                    via |= below[c]
                reduced[n] = [c for c in children[n] if not via & bit[c]]
                below[n] = via | sum(bit[c] for c in children[n])
            elif c in seen:  # on the path: a cycle
                path = [m for m, _ in stack]
                return path[path.index(c) :] + [c], {}, []
            else:
                seen.add(c)
                stack.append((c, iter(children[c])))
    return None, reduced, sorted(set(children) - {b for _, b in edges})


# ---------------------------------------------------------------------------
# Granular item group units
# ---------------------------------------------------------------------------


def build_granular_item_groups(
    trees: list[CompoundUnit],
    items: list[CompoundUnit],
    minter,
) -> list[CompoundUnit]:
    """Derived view joining each granularity tree with the item units whose
    subjects are tree nodes."""
    items_about: dict[str, list[str]] = {}
    for i in items:
        items_about.setdefault(i.subject, []).append(i.upri)
    out: list[CompoundUnit] = []
    for tree in sorted(trees, key=lambda t: t.upri):
        tree_nodes = {n for e in tree.edges for n in e}
        member_items = sorted(u for n in tree_nodes for u in items_about.get(n, ()))
        if not member_items:
            continue
        out.append(
            CompoundUnit(
                upri=minter(),
                classes=frozenset({vocab.GRANULAR_ITEM_GROUP_UNIT}),
                associated=tuple([tree.upri] + member_items),
                subject=tree.subject,
                order_predicate=tree.order_predicate,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Context units
# ---------------------------------------------------------------------------


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

    affiliations = catalog.affiliations
    nodes: set[str] = set()
    edges: list[tuple[str, str]] = []
    for u in partition.units:
        if u.upri in is_about_upris:
            continue
        for q in u.quads:
            nodes.add(q.subject)
            if q.predicate in affiliations:
                continue
            if isinstance(q.object, Iri):
                nodes.add(q.object.value)
                edges.append((q.subject, q.object.value))
    for u in is_about_units:
        nodes.add(u.subject)
        for obj in u.argument_iris():
            nodes.add(obj)

    component_of = _components(nodes, edges)
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


# ---------------------------------------------------------------------------
# Dataset and list units
# ---------------------------------------------------------------------------


def make_collection_unit(
    kind: str,
    members: list[str],
    catalog: VocabularyCatalog,
    minter,
    known_units: set[str] | None = None,
) -> tuple[CompoundUnit, list[StatementUnit]]:
    """Create a dataset or list unit over the given members.

    Dataset units reference existing semantic units directly. List units
    synthesize one membership statement unit per member; ordered lists
    index the memberships 0..n-1; set units reject duplicate members.
    """
    if kind == DATASET:
        if known_units is not None:
            unknown = [m for m in members if m not in known_units]
            if unknown:
                raise CollectionError(f"unknown semantic units: {', '.join(unknown)}")
        upri = minter()
        return (
            CompoundUnit(
                upri=upri,
                classes=frozenset({vocab.DATASET_UNIT}),
                associated=tuple(members),
                members=tuple(members),
            ),
            [],
        )
    if kind not in (ORDERED_LIST, UNORDERED_LIST, SET):
        raise CollectionError(f"unknown collection kind: {kind}")
    if kind == SET and len(set(members)) != len(members):
        dupes = sorted({m for m in members if members.count(m) > 1})
        raise CollectionError(f"set unit members must be unique: {', '.join(dupes)}")

    list_upri = minter()
    memberships: list[StatementUnit] = []
    extra_quads: list[Quad] = []
    for position, member in enumerate(members):
        m_upri = minter()
        quad = Quad(list_upri, catalog.child, Iri(member), m_upri)
        classes = {vocab.MEMBERSHIP_STATEMENT_UNIT, vocab.QUALITATIVE_STATEMENT_UNIT}
        memberships.append(
            StatementUnit(
                upri=m_upri,
                classes=frozenset(classes),
                subject=list_upri,
                objects=(UnitObject(Iri(member), ARGUMENT, "o"),),
                quads=(quad,),
                schema_class=vocab.MEMBERSHIP_STATEMENT_UNIT,
                anchor_predicate=catalog.child,
            )
        )
        if kind == ORDERED_LIST:
            extra_quads.append(
                Quad(
                    m_upri,
                    catalog.index,
                    Literal(str(position), datatype=vocab.XSD_INTEGER),
                    vocab.UNITS_GRAPH,
                )
            )
    compound = CompoundUnit(
        upri=list_upri,
        classes=frozenset({_KIND_CLASS[kind], vocab.LIST_UNIT}),
        associated=tuple(m.upri for m in memberships),
        members=tuple(members),
        extra_quads=tuple(extra_quads),
    )
    return compound, memberships


# ---------------------------------------------------------------------------
# Pipeline aggregation and serialization
# ---------------------------------------------------------------------------


@record
class CompoundResult:
    typed: tuple[CompoundUnit, ...]
    quality: tuple[CompoundUnit, ...]
    items: tuple[CompoundUnit, ...]
    groups: tuple[CompoundUnit, ...]
    trees: TreeResult
    granular: tuple[CompoundUnit, ...]
    contexts: ContextResult
    gaps: tuple[str, ...]

    def all_units(self) -> tuple[CompoundUnit, ...]:
        return (
            self.typed
            + self.quality
            + self.items
            + self.groups
            + self.trees.units
            + self.granular
            + self.contexts.units
        )


def build_all(
    partition: PartitionResult, catalog: VocabularyCatalog, minter
) -> CompoundResult:
    typed, gaps = build_typed_statement_units(partition, minter)
    quality = build_quality_measurement_units(typed, partition, minter)
    items = build_item_units(partition, typed, quality, catalog, minter)
    groups = build_item_group_units(items, partition, catalog, minter)
    trees = build_granularity_tree_units(partition, catalog, minter, typed)
    granular = build_granular_item_groups(list(trees.units), items, minter)
    contexts = build_context_units(partition, catalog, minter)
    return CompoundResult(
        typed=tuple(typed),
        quality=tuple(quality),
        items=tuple(items),
        groups=tuple(groups),
        trees=trees,
        granular=tuple(granular),
        contexts=contexts,
        gaps=tuple(gaps),
    )


def compound_quads(
    compounds: list[CompoundUnit], catalog: VocabularyCatalog
) -> list[Quad]:
    """Semantic-units-layer quads documenting the compound units."""
    graph = vocab.UNITS_GRAPH
    quads: list[Quad] = []
    for c in sorted(compounds, key=lambda c: c.upri):
        quads.extend(declaration_quads(c.upri, c.classes, c.subject, c.associated, catalog))
        for via, a, b in c.links:
            if c.kind == ITEM_GROUP:
                quads.append(Quad(a, catalog.has_linked_semantic_unit, Iri(b), graph))
                quads.append(
                    Quad(via, catalog.object_described_by_semantic_unit, Iri(b), graph)
                )
            else:
                quads.append(
                    Quad(a, catalog.object_described_by_semantic_unit, Iri(b), graph)
                )
        quads.extend(c.extra_quads)
    return quads


def reconstruct_compounds(
    dataset: QuadDataset, catalog: VocabularyCatalog
) -> list[CompoundUnit]:
    """Rebuild compound units from their semantic-units-layer declarations
    (association, class, and subject quads)."""
    _, _, associated = read_declarations(
        (q for q in dataset if q.predicate == catalog.has_associated_semantic_unit), catalog
    )
    classes, subjects, _ = read_declarations((q for q in dataset if q.subject in associated), catalog)

    out: list[CompoundUnit] = []
    for upri in sorted(associated):
        declared = frozenset(classes.get(upri, set()))
        out.append(
            CompoundUnit(
                upri=upri,
                classes=declared or frozenset({vocab.COMPOUND_UNIT}),
                associated=tuple(sorted(dict.fromkeys(associated[upri]))),
                subject=subjects.get(upri),
            )
        )
    return out


def render_report(compounds: list[CompoundUnit]) -> str:
    """One record per compound unit: upri, kind, subject, associated."""
    lines = []
    for c in sorted(compounds, key=lambda c: (c.kind, c.upri)):
        subject = c.subject or "-"
        lines.append(f"{c.upri}\t{c.kind}\t{subject}\t{','.join(c.associated)}\n")
    return "".join(lines)
