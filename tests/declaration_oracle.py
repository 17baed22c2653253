"""The loops that read unit declarations before `store.read_declarations`
replaced them: the one `units._adopt_units` ran over the semantic-units
layer and the one `compound.reconstruct_compounds` ran over a whole
dataset. Kept as the oracles of the differential tests in
`test_declarations.py`.
"""

from __future__ import annotations

from kgunits.store import Iri, Quad, VocabularyCatalog


def adopted_declarations(units_layer: tuple[Quad, ...], catalog: VocabularyCatalog):
    """(subjects, classes) as `_adopt_units` read them."""
    subjects: dict[str, str] = {}
    classes: dict[str, set[str]] = {}
    for q in units_layer:
        if q.predicate == catalog.has_semantic_unit_subject and isinstance(q.object, Iri):
            subjects.setdefault(q.subject, q.object.value)
        elif q.predicate == catalog.type and isinstance(q.object, Iri):
            classes.setdefault(q.subject, set()).add(q.object.value)
    return subjects, classes


def compound_declarations(dataset, catalog: VocabularyCatalog):
    """(associated, classes, subjects) as `reconstruct_compounds` read them."""
    associated: dict[str, list[str]] = {}
    classes: dict[str, set[str]] = {}
    subjects: dict[str, str] = {}
    for q in dataset:
        if q.predicate == catalog.has_associated_semantic_unit and isinstance(
            q.object, Iri
        ):
            associated.setdefault(q.subject, []).append(q.object.value)
        elif q.predicate == catalog.type and isinstance(q.object, Iri):
            classes.setdefault(q.subject, set()).add(q.object.value)
        elif q.predicate == catalog.has_semantic_unit_subject and isinstance(
            q.object, Iri
        ):
            subjects.setdefault(q.subject, q.object.value)
    return associated, classes, subjects
