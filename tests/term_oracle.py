"""Terms, quads and atoms as they were before they became tuples in their
own canonical order: frozen slotted records that compared field by field,
with the order defined outside them by ``term_key``, ``Quad.key`` and
``Atom.key``, and ``QuadDataset`` deduplicating and sorting by ``Quad.key``.

The records were built by ``kgunits._record.record``, which
``test_record.py`` checked against these ``dataclasses`` twins. Kept as
the oracle of the differential tests in ``test_terms.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from kgunits import vocab


@dataclass(frozen=True, slots=True, order=True)
class Iri:
    value: str

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Literal:
    lexical: str
    datatype: str = vocab.XSD_STRING
    language: str | None = None

    def __post_init__(self):
        if self.language is not None:
            object.__setattr__(self, "datatype", vocab.RDF_LANGSTRING)

    def __str__(self) -> str:
        return self.lexical


Term = Union[Iri, Literal]


def term_key(term: Term) -> tuple:
    """Total order over terms: IRIs before literals, then lexicographic."""
    if isinstance(term, Iri):
        return (0, term.value, "", "")
    return (1, term.lexical, term.datatype, term.language or "")


@dataclass(frozen=True, slots=True)
class Quad:
    subject: str
    predicate: str
    object: Term
    graph: str

    def key(self) -> tuple:
        return (self.graph, self.subject, self.predicate) + term_key(self.object)

    def rehome(self, graph: str) -> "Quad":
        return Quad(self.subject, self.predicate, self.object, graph)


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: str
    terms: tuple[str, ...] = field(default=())
    negated: bool = False  # classical negation

    def complement(self) -> "Atom":
        return Atom(self.predicate, self.terms, not self.negated)

    def key(self) -> tuple:
        return (self.predicate, self.terms, self.negated)


def dataset_quads(quads) -> tuple[Quad, ...]:
    """The quads of ``QuadDataset(quads)``: the first of each key, in key
    order."""
    seen: dict[tuple, Quad] = {}
    for quad in quads:
        seen.setdefault(quad.key(), quad)
    return tuple(seen[k] for k in sorted(seen))
