"""Terms, quads, atoms and rules as they were before they became tuples:
frozen slotted records that compared field by field. The order of terms,
quads and atoms was defined outside them by ``term_key``, ``Quad.key`` and
``Atom.key``, and ``QuadDataset`` deduplicated and sorted by ``Quad.key``;
rules had no order, and their atoms are today's ``logic.Atom`` tuples.

The records were built by ``kgunits._record.record``, which
``test_record.py`` checked against these ``dataclasses`` twins. Kept as
the oracle of the differential tests in ``test_terms.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from kgunits import logic, vocab
from kgunits.errors import UnsafeRuleError


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


@dataclass(frozen=True, slots=True)
class Rule:
    head: logic.Atom
    positive: tuple[logic.Atom, ...] = ()
    negative: tuple[logic.Atom, ...] = ()

    @property
    def is_fact(self) -> bool:
        return not self.positive and not self.negative

    def variables(self) -> frozenset[str]:
        out = set(self.head.variables())
        for a in self.positive + self.negative:
            out |= a.variables()
        return frozenset(out)

    def check_safety(self):
        positive_vars = set()
        for a in self.positive:
            positive_vars |= a.variables()
        for v in sorted(self.head.variables() - positive_vars):
            raise UnsafeRuleError(
                f"unsafe rule: head variable {v} does not occur in the positive body: "
                f"{self.render()}"
            )
        for a in self.negative:
            for v in sorted(a.variables() - positive_vars):
                raise UnsafeRuleError(
                    f"unsafe rule: variable {v} occurs only under default negation: "
                    f"{self.render()}"
                )

    def render(self, prefixes: dict[str, str] | None = None) -> str:
        head = self.head.render(prefixes)
        if self.is_fact:
            return f"{head}."
        body = [a.render(prefixes) for a in self.positive]
        body += [f"not {a.render(prefixes)}" for a in self.negative]
        return f"{head} :- {', '.join(body)}."


def dataset_quads(quads) -> tuple[Quad, ...]:
    """The quads of ``QuadDataset(quads)``: the first of each key, in key
    order."""
    seen: dict[tuple, Quad] = {}
    for quad in quads:
        seen.setdefault(quad.key(), quad)
    return tuple(seen[k] for k in sorted(seen))
