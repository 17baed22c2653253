"""The provenance writer and reader and the nanopublication reader as they
were before one field table drove both record functions and the head was
read through `store.read_declarations`, and the nanopublication writer as it
was when it returned a record of four sorted graphs instead of one dataset.
Kept as the oracles of the differential tests in `test_fdo.py`.
"""

from __future__ import annotations

from kgunits import vocab
from kgunits._record import record
from kgunits.errors import NanopubError
from kgunits.fdo import ParsedNanopub, ProvenanceRecord
from kgunits.store import (
    Iri,
    Literal,
    Quad,
    QuadDataset,
    VocabularyCatalog,
    declaration_quads,
    is_absolute_iri,
)


def _agent_term(value: str):
    return Iri(value) if is_absolute_iri(value) else Literal(value)


def _record_quads(record: ProvenanceRecord, about: str, graph: str) -> list[Quad]:
    quads = [
        Quad(about, vocab.META_CREATOR, _agent_term(record.creator), graph),
        Quad(
            about,
            vocab.META_CREATED,
            Literal(record.created, datatype=vocab.XSD_DATETIME),
            graph,
        ),
    ]
    if record.application:
        quads.append(Quad(about, vocab.META_APPLICATION, Literal(record.application), graph))
    if record.title:
        quads.append(Quad(about, vocab.META_TITLE, Literal(record.title), graph))
    for contributor in record.contributors:
        quads.append(Quad(about, vocab.META_CONTRIBUTOR, _agent_term(contributor), graph))
    if record.last_updated:
        quads.append(
            Quad(
                about,
                vocab.META_UPDATED,
                Literal(record.last_updated, datatype=vocab.XSD_DATETIME),
                graph,
            )
        )
    return quads


def _record_from_quads(quads: list[Quad]) -> ProvenanceRecord:
    creator = ""
    created = ""
    application = None
    title = None
    contributors: list[str] = []
    last_updated = None
    for q in sorted(quads):
        value = q.object.value if isinstance(q.object, Iri) else q.object.lexical
        if q.predicate == vocab.META_CREATOR:
            creator = value
        elif q.predicate == vocab.META_CREATED:
            created = value
        elif q.predicate == vocab.META_APPLICATION:
            application = value
        elif q.predicate == vocab.META_TITLE:
            title = value
        elif q.predicate == vocab.META_CONTRIBUTOR:
            contributors.append(value)
        elif q.predicate == vocab.META_UPDATED:
            last_updated = value
    return ProvenanceRecord(
        creator=creator,
        created=created,
        application=application,
        title=title,
        contributors=tuple(contributors),
        last_updated=last_updated,
    )


def parse_nanopublication(
    dataset: QuadDataset, catalog: VocabularyCatalog
) -> ParsedNanopub:
    """Reconstruct the unit and metadata records from nanopub quads."""
    heads = [
        q
        for q in dataset
        if q.predicate == catalog.type
        and isinstance(q.object, Iri)
        and q.object.value == vocab.NANOPUBLICATION
    ]
    if len(heads) != 1:
        raise NanopubError(f"expected exactly one nanopublication head, found {len(heads)}")
    np_upri = heads[0].subject
    head_g = heads[0].graph
    head_quads = dataset.graph(head_g)

    def link(predicate: str) -> str:
        for q in head_quads:
            if q.subject == np_upri and q.predicate == predicate and isinstance(q.object, Iri):
                return q.object.value
        raise NanopubError(f"head graph lacks {predicate}")

    assertion_g = link(vocab.HAS_ASSERTION)
    prov_g = link(vocab.HAS_PROVENANCE)
    pub_g = link(vocab.HAS_PUBLICATION_INFO)

    prov_quads = list(dataset.graph(prov_g))
    pub_quads = list(dataset.graph(pub_g))
    if not prov_quads:
        raise NanopubError(f"head references missing provenance graph {prov_g}")
    if not pub_quads:
        raise NanopubError(f"head references missing publication-info graph {pub_g}")

    classes = frozenset(
        q.object.value
        for q in head_quads
        if q.subject != np_upri
        and q.predicate == catalog.type
        and isinstance(q.object, Iri)
    )
    subject = None
    associations: list[str] = []
    unit_upri = assertion_g
    for q in head_quads:
        if q.predicate == catalog.has_semantic_unit_subject and isinstance(q.object, Iri):
            subject = q.object.value
            unit_upri = q.subject
        elif q.predicate == catalog.has_associated_semantic_unit and isinstance(q.object, Iri):
            associations.append(q.object.value)
            unit_upri = q.subject

    assertion = tuple(dataset.graph(assertion_g))
    if not assertion and not associations:
        raise NanopubError(
            f"assertion graph {assertion_g} is empty and the head lists no associations"
        )
    if assertion and unit_upri != assertion_g:
        raise NanopubError(
            f"assertion graph name {assertion_g} does not match unit {unit_upri}"
        )

    schema_upri = None
    for q in pub_quads:
        if q.predicate == vocab.META_SCHEMA and isinstance(q.object, Iri):
            schema_upri = q.object.value

    return ParsedNanopub(
        upri=np_upri,
        unit_upri=unit_upri,
        classes=classes,
        subject=subject,
        assertion=assertion,
        associations=tuple(associations),
        provenance=_record_from_quads(prov_quads),
        pubinfo=_record_from_quads(
            [q for q in pub_quads if q.predicate != vocab.META_SCHEMA]
        ),
        schema_upri=schema_upri,
    )


@record
class Nanopublication:
    upri: str
    head: tuple[Quad, ...]
    assertion: tuple[Quad, ...]
    provenance: tuple[Quad, ...]
    pubinfo: tuple[Quad, ...]

    def dataset(self) -> QuadDataset:
        return QuadDataset(self.head + self.assertion + self.provenance + self.pubinfo)


def emit_nanopublication(
    unit,
    prov: ProvenanceRecord,
    pubinfo: ProvenanceRecord,
    catalog: VocabularyCatalog,
) -> Nanopublication:
    """Package one semantic unit (statement or compound) as a nanopub.

    Graph names are derived from the unit identifier, so emission is
    deterministic. The assertion graph of a statement unit is its data
    graph; compound units keep an empty assertion graph and carry their
    associations in the head. The publication info links the unit's
    statement schema, if it has one.
    """
    prov.validate()
    pubinfo.validate()
    unit_upri = unit.upri
    np_upri = unit_upri.rstrip("/") + "/np"
    head_g = np_upri + "/head"
    prov_g = np_upri + "/provenance"
    pub_g = np_upri + "/pubinfo"
    assertion_g = unit_upri

    data_quads = tuple(getattr(unit, "quads", ()) or ())
    associated = tuple(getattr(unit, "associated", ()) or ())
    if not data_quads and not associated:
        raise NanopubError(
            f"unit {unit_upri} has neither a data graph nor associated units"
        )

    head: list[Quad] = [
        Quad(np_upri, catalog.type, Iri(vocab.NANOPUBLICATION), head_g),
        Quad(np_upri, vocab.HAS_ASSERTION, Iri(assertion_g), head_g),
        Quad(np_upri, vocab.HAS_PROVENANCE, Iri(prov_g), head_g),
        Quad(np_upri, vocab.HAS_PUBLICATION_INFO, Iri(pub_g), head_g),
    ]
    classes = getattr(unit, "classes", ()) or ()
    subject = getattr(unit, "subject", None)
    head += declaration_quads(unit_upri, classes, subject, associated, catalog, head_g)

    # Compound units keep an empty assertion graph; associations live in
    # the head instead.
    assertion = () if associated else tuple(q.rehome(assertion_g) for q in data_quads)

    prov_quads = _record_quads(prov, assertion_g, prov_g)
    pub_quads = _record_quads(pubinfo, np_upri, pub_g)
    schema_upri = getattr(unit, "schema_class", None)
    if schema_upri:
        pub_quads.append(Quad(np_upri, vocab.META_SCHEMA, Iri(schema_upri), pub_g))

    return Nanopublication(
        upri=np_upri,
        head=tuple(sorted(head)),
        assertion=tuple(sorted(assertion)),
        provenance=tuple(sorted(prov_quads)),
        pubinfo=tuple(sorted(pub_quads)),
    )
