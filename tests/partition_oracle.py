"""Nested-loop reference implementation of statement-schema matching.

``units._enumerate_candidates`` joins the templates of a schema through
the ``logic`` join engine. This is the matcher it replaces: for each anchor
quad, every quad of each other template's predicate in the same graph is
tried in canonical order. It serves as the oracle for differential tests.

``adopt_units`` is ``units._adopt_units`` as it was before it matched each
declared schema once over all the adopted graphs: here every adopted unit
of a declared schema sorts its own quads, indexes them and plans and runs
its schema's join alone (``rebind_schema``).
"""

from __future__ import annotations

from kgunits import vocab
from kgunits._record import replace
from kgunits.schemas import QUALITATIVE, StatementSchema, TripleTemplate, Var
from kgunits.store import Iri, Literal, Quad, Term, VocabularyCatalog, read_declarations
from kgunits.units import (
    StatementUnit,
    _Candidate,
    _enumerate_candidates,
    _identification_unit,
    _quad_index,
    _schema_unit,
    _untyped_unit,
)


def quads_by_predicate(quads) -> dict[str, list[Quad]]:
    out: dict[str, list[Quad]] = {}
    for q in quads:
        out.setdefault(q.predicate, []).append(q)
    for group in out.values():
        group.sort()
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
        partials = [(binding, {anchor_quad: None})]
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
                        nc[quad] = None
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
                        claimed[quad] = None
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
                    claimed=tuple(sorted(claimed)),
                    templates_matched=matched,
                    unbound_adjuncts=unbound,
                )
            )
    # Deduplicate candidates that claim exactly the same quads for the same
    # schema (possible with constant-only templates).
    unique: dict[tuple, _Candidate] = {}
    for cand in candidates:
        key = (schema.unit_class, cand.claimed)
        unique.setdefault(key, cand)
    return list(unique.values())


def adopt_units(
    adopted_quads: list[Quad],
    units_layer: tuple[Quad, ...],
    schemas: list[StatementSchema],
    catalog: VocabularyCatalog,
) -> list[StatementUnit]:
    """One unit per declared unit data graph, in UPRI order, with the
    declared classes and subject (by default its first quad's) and the
    parts its quads give it."""
    by_graph: dict[str, list[Quad]] = {}
    for q in adopted_quads:
        by_graph.setdefault(q.graph, []).append(q)

    classes, subjects, _ = read_declarations(units_layer, catalog)
    by_class: dict[str, StatementSchema] = {s.unit_class: s for s in schemas}
    out: list[StatementUnit] = []
    for upri in sorted(by_graph):
        quads = sorted(by_graph[upri])
        declared = classes.get(upri, set())
        subject = subjects.get(upri) or quads[0].subject
        id_class = declared & vocab.IDENTIFICATION_UNIT_CLASSES
        schema = next((by_class[c] for c in sorted(declared) if c in by_class), None)
        if id_class:
            unit = _identification_unit(subject, quads, catalog, min(id_class))
        elif schema is not None:
            unit = rebind_schema(schema, quads)
        else:
            unit = _untyped_unit(subject, quads)
        out.append(replace(
            unit,
            upri=upri,
            classes=frozenset(declared or {vocab.UNTYPED_STATEMENT_UNIT}),
            subject=subject,
            adopted=True,
        ))
    return out


def rebind_schema(schema: StatementSchema, quads: list[Quad]) -> StatementUnit:
    """The unit of ``schema``'s best match over an adopted unit's ``quads``
    in key order, or without a match, of ``schema`` over its untyped
    parts."""
    candidates = _enumerate_candidates(schema, _quad_index(quads))
    if candidates:
        return _schema_unit(schema, min(candidates, key=lambda c: c.order_key).binding, quads)
    return replace(
        _untyped_unit(quads[0].subject, quads),
        schema_class=schema.unit_class,
        anchor_predicate=schema.anchor_predicate,
    )
