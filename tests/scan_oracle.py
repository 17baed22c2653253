"""Scanning reference implementations of the dataset's derived views.

These are the straightforward whole-dataset scans that the memoized views
and the ``ResourceKinds`` table in ``kgunits.store`` replace. Each answer
is recomputed from the quads on every call, so they serve as the oracle
for differential tests.
"""

from __future__ import annotations

from kgunits import vocab
from kgunits.errors import AmbiguousResourceKindError, UnknownResourceError
from kgunits.store import Iri, Literal, Quad, QuadDataset, ResourceKind, VocabularyCatalog


def resources(dataset: QuadDataset) -> frozenset[str]:
    out: set[str] = set()
    for q in dataset:
        out.add(q.subject)
        out.add(q.predicate)
        out.add(q.graph)
        if isinstance(q.object, Iri):
            out.add(q.object.value)
    return frozenset(out)


def graph(dataset: QuadDataset, name: str) -> tuple[Quad, ...]:
    return tuple(q for q in dataset if q.graph == name)


def graph_names(dataset: QuadDataset) -> tuple[str, ...]:
    return tuple(sorted({q.graph for q in dataset}))


def about(dataset: QuadDataset, subject: str) -> tuple[Quad, ...]:
    return tuple(q for q in dataset if q.subject == subject)


def label_index(dataset: QuadDataset, catalog: VocabularyCatalog) -> dict[str, str]:
    out: dict[str, str] = {}
    for q in dataset:
        if q.predicate == catalog.label and isinstance(q.object, Literal):
            out.setdefault(q.subject, q.object.lexical)
    return out


def unit_graphs(dataset: QuadDataset, catalog: VocabularyCatalog) -> frozenset[str]:
    declared = set()
    for q in dataset:
        if q.predicate in (
            catalog.has_semantic_unit_subject,
            catalog.has_associated_semantic_unit,
        ):
            declared.add(q.subject)
    return frozenset(declared)


def unit_resources(dataset: QuadDataset, catalog: VocabularyCatalog) -> frozenset[str]:
    out: set[str] = set()
    for q in dataset:
        if q.predicate == catalog.has_semantic_unit_subject:
            out.add(q.subject)
        elif q.predicate in (
            catalog.has_associated_semantic_unit,
            catalog.has_linked_semantic_unit,
            catalog.object_described_by_semantic_unit,
        ):
            out.add(q.subject)
            if isinstance(q.object, Iri):
                out.add(q.object.value)
    return frozenset(out)


def split_layers(
    dataset: QuadDataset, catalog: VocabularyCatalog
) -> tuple[tuple[Quad, ...], tuple[Quad, ...]]:
    structural = catalog.structural_properties
    declared = unit_graphs(dataset, catalog)
    unit_res = unit_resources(dataset, catalog)
    data: list[Quad] = []
    units: list[Quad] = []
    for q in dataset:
        if q.predicate in structural:
            units.append(q)
        elif q.graph not in declared and (
            q.subject in unit_res
            or (isinstance(q.object, Iri) and q.object.value in unit_res)
        ):
            units.append(q)
        else:
            data.append(q)
    return tuple(data), tuple(units)


def classify_resource(
    dataset: QuadDataset, resource: str, catalog: VocabularyCatalog
) -> ResourceKind:
    """The per-call scan that ``ResourceKinds`` replaced."""
    if resource not in resources(dataset):
        raise UnknownResourceError(f"resource does not occur in dataset: {resource}")

    if resource in unit_resources(dataset, catalog):
        return ResourceKind.SEMANTIC_UNIT_RESOURCE

    data, _ = split_layers(dataset, catalog)
    subject_kind_preds: set[str] = set()
    typed_subject = False
    class_position = False
    non_predicate_occurrence = False
    predicate_occurrence = False
    for q in data:
        if q.predicate == resource:
            predicate_occurrence = True
        if (q.subject == resource and q.predicate != catalog.label) or (
            isinstance(q.object, Iri) and q.object.value == resource
        ):
            non_predicate_occurrence = True
        if q.subject == resource:
            if q.predicate == catalog.some_instance_of:
                subject_kind_preds.add("some")
            elif q.predicate == catalog.every_instance_of:
                subject_kind_preds.add("every")
            elif q.predicate == catalog.type:
                typed_subject = True
        if (
            q.predicate in (catalog.type, catalog.some_instance_of, catalog.every_instance_of)
            and isinstance(q.object, Iri)
            and q.object.value == resource
        ):
            class_position = True

    if len(subject_kind_preds) > 1 or (subject_kind_preds and typed_subject):
        raise AmbiguousResourceKindError(
            f"{resource} carries more than one mutually exclusive class affiliation"
        )
    instance_kind: ResourceKind | None = None
    if "some" in subject_kind_preds:
        instance_kind = ResourceKind.SOME_INSTANCE
    elif "every" in subject_kind_preds:
        instance_kind = ResourceKind.EVERY_INSTANCE
    elif typed_subject:
        instance_kind = ResourceKind.NAMED_INDIVIDUAL

    if instance_kind is not None and class_position:
        raise AmbiguousResourceKindError(
            f"{resource} occurs both as an instance and as an ontology class"
        )
    if instance_kind is not None:
        return instance_kind
    if class_position:
        return ResourceKind.ONTOLOGY_CLASS
    if predicate_occurrence and not non_predicate_occurrence:
        return ResourceKind.PROPERTY_RESOURCE
    if predicate_occurrence and non_predicate_occurrence:
        raise AmbiguousResourceKindError(
            f"{resource} occurs both as a predicate and as a node"
        )
    raise UnknownResourceError(
        f"resource kind of {resource} cannot be resolved from the dataset"
    )


def category_index(dataset: QuadDataset, catalog: VocabularyCatalog):
    """The separate lenient pass that ``ResourceKinds.category_of`` replaced:
    the subject category of each resource, from its class affiliations with
    an IRI object; mixed affiliations give ``None``."""
    data, _ = dataset.split_layers(catalog)
    unit_resources = dataset.unit_resources(catalog)
    tags: dict[str, str] = {}
    mixed: set[str] = set()
    kind_preds = {
        catalog.type: vocab.ASSERTIONAL_STATEMENT_UNIT,
        catalog.some_instance_of: vocab.CONTINGENT_STATEMENT_UNIT,
        catalog.every_instance_of: vocab.UNIVERSAL_STATEMENT_UNIT,
    }
    for q in data:
        category = kind_preds.get(q.predicate)
        if category is None or not isinstance(q.object, Iri):
            continue
        previous = tags.get(q.subject)
        if previous is not None and previous != category:
            mixed.add(q.subject)
        tags[q.subject] = category

    def lookup(subject: str) -> str | None:
        if subject in unit_resources:
            return vocab.ASSERTIONAL_STATEMENT_UNIT
        if subject in mixed:
            return None
        return tags.get(subject)

    return lookup
