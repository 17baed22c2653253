"""The per-class ladders that `kgunits.translate` and `kgunits.owl` used
before one walk over the dataclass fields replaced them.

Kept as the oracle of the differential test in `test_translate.py`: each
OWL class is spelled out by hand, so the variables a template mentions,
its instantiation and its text form are obviously what the abstract
syntax says.
"""

from __future__ import annotations

from kgunits.errors import PatternError
from kgunits.logic import is_variable
from kgunits.owl import (
    AllValuesFrom,
    ClassAssertion,
    ComplementOf,
    IntersectionOf,
    NegativeObjectPropertyAssertion,
    ObjectPropertyAssertion,
    OneOf,
    QualifiedCardinality,
    SomeValuesFrom,
    SubClassOf,
)
from kgunits.translate import Fresh, skolem


def template_variables(node) -> set[str]:
    out: set[str] = set()
    if isinstance(node, str):
        if is_variable(node):
            out.add(node)
        return out
    if isinstance(node, Fresh):
        for key in node.keys:
            if is_variable(key):
                out.add(key)
        return out
    if isinstance(node, (ClassAssertion,)):
        return template_variables(node.expr) | template_variables(node.individual)
    if isinstance(node, (ObjectPropertyAssertion, NegativeObjectPropertyAssertion)):
        return (
            template_variables(node.property)
            | template_variables(node.source)
            | template_variables(node.target)
        )
    if isinstance(node, SubClassOf):
        return template_variables(node.sub) | template_variables(node.sup)
    if isinstance(node, (SomeValuesFrom, AllValuesFrom)):
        return template_variables(node.property) | template_variables(node.filler)
    if isinstance(node, ComplementOf):
        return template_variables(node.expr)
    if isinstance(node, IntersectionOf):
        out = set()
        for operand in node.operands:
            out |= template_variables(operand)
        return out
    if isinstance(node, OneOf):
        out = set()
        for i in node.individuals:
            out |= template_variables(i)
        return out
    if isinstance(node, QualifiedCardinality):
        out = template_variables(node.property) | template_variables(node.filler)
        if isinstance(node.cardinality, str):
            out |= template_variables(node.cardinality)
        return out
    return out


def instantiate(node, binding: dict[str, str]):
    if isinstance(node, str):
        if is_variable(node):
            return binding[node]
        return node
    if isinstance(node, Fresh):
        keys = tuple(binding.get(k, k) if is_variable(k) else k for k in node.keys)
        return skolem(node.tag, *keys)
    if isinstance(node, ClassAssertion):
        return ClassAssertion(
            instantiate(node.expr, binding), instantiate(node.individual, binding)
        )
    if isinstance(node, ObjectPropertyAssertion):
        return ObjectPropertyAssertion(
            instantiate(node.property, binding),
            instantiate(node.source, binding),
            instantiate(node.target, binding),
        )
    if isinstance(node, NegativeObjectPropertyAssertion):
        return NegativeObjectPropertyAssertion(
            instantiate(node.property, binding),
            instantiate(node.source, binding),
            instantiate(node.target, binding),
        )
    if isinstance(node, SubClassOf):
        return SubClassOf(instantiate(node.sub, binding), instantiate(node.sup, binding))
    if isinstance(node, SomeValuesFrom):
        return SomeValuesFrom(
            instantiate(node.property, binding), instantiate(node.filler, binding)
        )
    if isinstance(node, AllValuesFrom):
        return AllValuesFrom(
            instantiate(node.property, binding), instantiate(node.filler, binding)
        )
    if isinstance(node, ComplementOf):
        return ComplementOf(instantiate(node.expr, binding))
    if isinstance(node, IntersectionOf):
        return IntersectionOf(tuple(instantiate(o, binding) for o in node.operands))
    if isinstance(node, OneOf):
        return OneOf(tuple(instantiate(i, binding) for i in node.individuals))
    if isinstance(node, QualifiedCardinality):
        cardinality = node.cardinality
        if isinstance(cardinality, str):
            value = instantiate(cardinality, binding)
            try:
                cardinality = int(value)
            except ValueError as exc:
                raise PatternError(
                    f"cardinality slot bound to non-integer {value!r}"
                ) from exc
        return QualifiedCardinality(
            instantiate(node.property, binding), cardinality, instantiate(node.filler, binding)
        )
    raise PatternError(f"cannot instantiate template node {node!r}")


def _entity(value: str, prefixes: dict[str, str]) -> str:
    best = None
    best_len = -1
    for name, ns in prefixes.items():
        if value.startswith(ns) and len(ns) > best_len and len(value) > len(ns):
            best, best_len = name, len(ns)
    if best is None:
        return value
    return f"{best}:{value[best_len:]}"


def render_expr(expr, prefixes: dict[str, str]) -> str:
    if isinstance(expr, str):
        return _entity(expr, prefixes)
    if isinstance(expr, SomeValuesFrom):
        return (
            f"SomeValuesFrom({_entity(expr.property, prefixes)}, "
            f"{render_expr(expr.filler, prefixes)})"
        )
    if isinstance(expr, AllValuesFrom):
        return (
            f"AllValuesFrom({_entity(expr.property, prefixes)}, "
            f"{render_expr(expr.filler, prefixes)})"
        )
    if isinstance(expr, ComplementOf):
        return f"ComplementOf({render_expr(expr.expr, prefixes)})"
    if isinstance(expr, IntersectionOf):
        inner = ", ".join(render_expr(e, prefixes) for e in expr.operands)
        return f"IntersectionOf({inner})"
    if isinstance(expr, OneOf):
        inner = ", ".join(_entity(i, prefixes) for i in expr.individuals)
        return f"OneOf({inner})"
    if isinstance(expr, QualifiedCardinality):
        return (
            f"QualifiedCardinality({_entity(expr.property, prefixes)}, "
            f"{expr.cardinality}, {render_expr(expr.filler, prefixes)})"
        )
    raise TypeError(f"not a class expression: {expr!r}")


def render_axiom(axiom, prefixes: dict[str, str] | None = None) -> str:
    prefixes = prefixes or {}
    if isinstance(axiom, ClassAssertion):
        return (
            f"ClassAssertion({render_expr(axiom.expr, prefixes)}, "
            f"{_entity(axiom.individual, prefixes)})"
        )
    if isinstance(axiom, ObjectPropertyAssertion):
        return (
            f"ObjectPropertyAssertion({_entity(axiom.property, prefixes)}, "
            f"{_entity(axiom.source, prefixes)}, {_entity(axiom.target, prefixes)})"
        )
    if isinstance(axiom, NegativeObjectPropertyAssertion):
        return (
            f"NegativeObjectPropertyAssertion({_entity(axiom.property, prefixes)}, "
            f"{_entity(axiom.source, prefixes)}, {_entity(axiom.target, prefixes)})"
        )
    if isinstance(axiom, SubClassOf):
        return (
            f"SubClassOf({render_expr(axiom.sub, prefixes)}, "
            f"{render_expr(axiom.sup, prefixes)})"
        )
    raise TypeError(f"not an axiom: {axiom!r}")


def render_axioms(axioms, prefixes: dict[str, str] | None = None) -> str:
    lines = sorted(render_axiom(a, prefixes) for a in axioms)
    return "".join(line + "\n" for line in lines)
