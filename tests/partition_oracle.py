"""Nested-loop reference implementation of statement-schema matching.

``units._enumerate_candidates`` joins the templates of a schema through
the ``logic`` join engine. This is the matcher it replaces: for each anchor
quad, every quad of each other template's predicate in the same graph is
tried in canonical order. It serves as the oracle for differential tests.
"""

from __future__ import annotations

from kgunits import vocab
from kgunits.schemas import QUALITATIVE, StatementSchema, TripleTemplate, Var
from kgunits.store import Iri, Literal, Quad, Term
from kgunits.units import _Candidate


def quads_by_predicate(quads) -> dict[str, list[Quad]]:
    out: dict[str, list[Quad]] = {}
    for q in quads:
        out.setdefault(q.predicate, []).append(q)
    for group in out.values():
        group.sort(key=lambda q: q.key())
    return out


def _unify(binding: dict[str, Term], var: str, term: Term) -> dict[str, Term] | None:
    bound = binding.get(var)
    if bound is None:
        out = dict(binding)
        out[var] = term
        return out
    return binding if bound == term else None


def _match_template(
    schema: StatementSchema,
    template: TripleTemplate,
    quad: Quad,
    binding: dict[str, Term],
) -> dict[str, Term] | None:
    if template.predicate != quad.predicate:
        return None
    if isinstance(template.subject, Var):
        binding = _unify(binding, template.subject.name, Iri(quad.subject))
        if binding is None:
            return None
    elif template.subject != quad.subject:
        return None
    obj = template.object
    if isinstance(obj, Var):
        term = quad.object
        if obj.name in schema.numeric_vars:
            if not (
                isinstance(term, Literal) and term.datatype in vocab.NUMERIC_DATATYPES
            ):
                return None
        elif obj.name in schema.argument_vars and schema.relation == QUALITATIVE:
            # Arguments of a qualitative statement are always resources.
            if not isinstance(term, Iri):
                return None
        return _unify(binding, obj.name, term)
    return binding if obj == quad.object else None


def enumerate_candidates(
    schema: StatementSchema, quads_by_pred: dict[str, list[Quad]]
) -> list[_Candidate]:
    anchor = schema.anchor_template
    required = list(schema.required_templates())
    if anchor not in required:
        required.insert(0, anchor)
    candidates: list[_Candidate] = []
    for anchor_quad in quads_by_pred.get(anchor.predicate, ()):
        binding = _match_template(schema, anchor, anchor_quad, {})
        if binding is None:
            continue
        # One schema instantiation never spans input graphs.
        locality = anchor_quad.graph
        partials = [(binding, {anchor_quad.key(): anchor_quad})]
        dead = False
        for template in required:
            if template is anchor:
                continue
            extended = []
            for b, claimed in partials:
                for quad in quads_by_pred.get(template.predicate, ()):
                    if quad.graph != locality:
                        continue
                    nb = _match_template(schema, template, quad, b)
                    if nb is not None:
                        nc = dict(claimed)
                        nc[quad.key()] = quad
                        extended.append((nb, nc))
            if not extended:
                dead = True
                break
            partials = extended
        if dead:
            continue
        for b, claimed in partials:
            matched = len(required)
            unbound = 0
            for template in schema.adjunct_templates():
                hits = 0
                for quad in quads_by_pred.get(template.predicate, ()):
                    if quad.graph != locality:
                        continue
                    nb = _match_template(schema, template, quad, b)
                    if nb is not None:
                        claimed = dict(claimed)
                        claimed[quad.key()] = quad
                        hits += 1
                        # First match (in canonical quad order) binds the
                        # adjunct variables for label rendering.
                        if hits == 1:
                            b = nb
                if hits:
                    matched += 1
                else:
                    unbound += 1
            candidates.append(
                _Candidate(
                    schema=schema,
                    binding=b,
                    claimed=claimed,
                    templates_matched=matched,
                    unbound_adjuncts=unbound,
                )
            )
    # Deduplicate candidates that claim exactly the same quads for the same
    # schema (possible with constant-only templates).
    unique: dict[tuple, _Candidate] = {}
    for cand in candidates:
        key = (schema.unit_class, tuple(sorted(cand.claimed)))
        unique.setdefault(key, cand)
    return list(unique.values())
