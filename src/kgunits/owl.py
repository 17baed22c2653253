"""Abstract-syntax OWL axioms and their deterministic text form.

The translation emits axioms as abstract syntax rather than RDF: complex
class expressions would need blank nodes in an RDF mapping, and the whole
point of the model is to have none. Entities are plain IRI strings.

Every node renders as ``Name(arg, ...)``: its class name, then its fields
in declaration order, with a tuple field spread into one argument per
element and an ``int`` printed as it is. An entity is shortened against a
prefix map: the longest namespace it extends wins, ties in table order.
The field annotations also tell the pattern parser (``translate``) what may
stand in each argument of an ``emit`` expression.
"""

from __future__ import annotations

from typing import Union

from ._record import fields, record
from .logic import _shortener


@record
class SomeValuesFrom:
    property: str
    filler: ClassExpr


@record
class AllValuesFrom:
    property: str
    filler: ClassExpr


@record
class ComplementOf:
    expr: ClassExpr


@record
class IntersectionOf:
    operands: tuple[ClassExpr, ...]


@record
class OneOf:
    individuals: tuple[str, ...]


@record
class QualifiedCardinality:
    property: str
    cardinality: int
    filler: ClassExpr


@record
class ClassAssertion:
    expr: ClassExpr
    individual: str


@record
class ObjectPropertyAssertion:
    property: str
    source: str
    target: str


@record
class NegativeObjectPropertyAssertion:
    property: str
    source: str
    target: str


@record
class SubClassOf:
    sub: ClassExpr
    sup: ClassExpr


ClassExpr = Union[
    str,
    SomeValuesFrom,
    AllValuesFrom,
    ComplementOf,
    IntersectionOf,
    OneOf,
    QualifiedCardinality,
]

OwlAxiom = Union[
    ClassAssertion,
    ObjectPropertyAssertion,
    NegativeObjectPropertyAssertion,
    SubClassOf,
]


def render_axiom(axiom: OwlAxiom, prefixes: dict[str, str] | None = None) -> str:
    return _render(axiom, _shortener(prefixes))


def render_axioms(axioms, prefixes: dict[str, str] | None = None) -> str:
    """One axiom per line, sorted; equal inputs render byte-identically.
    Each distinct entity is shortened once per call."""
    shorten = _shortener(prefixes)
    lines = sorted(_render(a, shorten) for a in axioms)
    return "".join(line + "\n" for line in lines)


def _render(node, shorten) -> str:
    if isinstance(node, str):
        return shorten(node)
    if isinstance(node, int):
        return str(node)
    args = []
    for f in fields(node):
        value = getattr(node, f.name)
        args.extend(value if isinstance(value, tuple) else (value,))
    return f"{type(node).__name__}({', '.join(_render(a, shorten) for a in args)})"
