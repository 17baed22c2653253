"""Partitioning a data graph into statement units.

Every data-layer quad ends up in exactly one statement unit: identification
triples are swept into per-resource identification units, schema matches
claim their instantiations, and whatever remains becomes a singleton
fallback unit. Quads already homed in a declared unit data graph are
adopted unchanged, which makes partitioning idempotent and lets organized
datasets round-trip through the pipeline stages.

Schema templates join through ``logic``'s engine, as rule bodies and OWL
guards do: each schema is a plan of ``JoinStep``s over one hashed
``AtomIndex`` of the quads.
"""

from __future__ import annotations

import re
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from . import vocab
from ._record import record
from .errors import (
    AmbiguousResourceKindError,
    ClassificationError,
    OverlapConflictError,
    UnknownResourceError,
)
from .logic import Atom, AtomIndex, JoinStep
from .schemas import (
    QUALITATIVE,
    QUANTITATIVE,
    StatementSchema,
    TripleTemplate,
    Var,
)
from .store import (
    INSTANCE_KINDS,
    InstanceKind,
    Iri,
    Literal,
    Quad,
    QuadDataset,
    ResourceKinds,
    Term,
    VocabularyCatalog,
    classify_resource,
    declaration_quads,
    local_name,
    read_declarations,
)

ARGUMENT = "argument"
ADJUNCT = "adjunct"


@record
class UnitObject:
    term: Term
    role: str
    var: str | None = None


@record
class StatementUnit:
    upri: str
    classes: frozenset[str]
    subject: str
    objects: tuple[UnitObject, ...]
    quads: tuple[Quad, ...]
    schema_class: str | None = None
    anchor_predicate: str | None = None
    bindings: tuple[tuple[str, Term], ...] = ()
    adopted: bool = False

    @property
    def is_identification(self) -> bool:
        return bool(self.classes & vocab.IDENTIFICATION_UNIT_CLASSES)

    def argument_iris(self) -> tuple[str, ...]:
        return tuple(
            o.term.value
            for o in self.objects
            if o.role == ARGUMENT and isinstance(o.term, Iri)
        )


@record
class Classification:
    relation: str
    subject_category: str
    markers: frozenset[str]


@record
class PartitionResult:
    units: tuple[StatementUnit, ...]
    triple_map: dict
    fallback_units: tuple[StatementUnit, ...]
    dataset: QuadDataset
    warnings: tuple[str, ...] = ()

    @cached_property
    def units_by_upri(self) -> dict[str, StatementUnit]:
        return {u.upri: u for u in self.units}


# ---------------------------------------------------------------------------
# Schema matching
# ---------------------------------------------------------------------------


def _builtin_schemas(
    schemas: list[StatementSchema], catalog: VocabularyCatalog
) -> list[StatementSchema]:
    """Schemas every partition understands without declaration: frame-of-
    reference boundaries (is-about) and collection membership (child)."""
    anchored = {s.anchor_predicate for s in schemas}
    return schemas + [
        StatementSchema(
            unit_class=unit_class,
            anchor_predicate=anchor,
            templates=(TripleTemplate(Var("s"), anchor, Var("o")),),
            subject_var="s",
            argument_vars=("o",),
            label_template=label,
        )
        for anchor, unit_class, label in (
            (catalog.is_about, vocab.IS_ABOUT_STATEMENT_UNIT, "{s} is about {o}"),
            (catalog.child, vocab.MEMBERSHIP_STATEMENT_UNIT, "{s} has member {o}"),
        )
        if anchor not in anchored
    ]


@record
class _Candidate:
    schema: StatementSchema
    binding: dict[str, Term]
    claimed: tuple[Quad, ...]  # in canonical order
    templates_matched: int
    unbound_adjuncts: int

    @property
    def rank(self) -> tuple:
        return (-self.templates_matched, self.unbound_adjuncts, self.schema.unit_class)

    @property
    def order_key(self) -> tuple:
        return self.rank + (self.claimed,)


def _quad_index(quads) -> AtomIndex:
    """The quads, given in canonical order, as atoms ``predicate(graph,
    Iri(subject), object, quad)``. The subject is an ``Iri`` so that a
    variable binds the same term in subject and in object position; the
    quad rides along for the template that matches it to claim."""
    return AtomIndex(Atom(q.predicate, (q.graph, Iri(q.subject), q.object, q)) for q in quads)


def _template_atom(template: TripleTemplate, position: int) -> Atom:
    """The template as an atom over ``_quad_index``: schema variable ``?x``
    is ``Vx`` and ``Q<position>`` takes the claimed quad. Every template
    shares the graph variable ``G``: one schema instantiation never spans
    input graphs, the locality boundary that keeps co-occurring n-ary
    statements (e.g. two measurements of one quality) apart."""
    subject = template.subject if isinstance(template.subject, Var) else Iri(template.subject)
    terms = [f"V{t.name}" if isinstance(t, Var) else t for t in (subject, template.object)]
    return Atom(template.predicate, ("G", *terms, f"Q{position}"))


def _admitted(schema: StatementSchema, template: TripleTemplate, variables, bindings):
    """The bindings in which the template's object variable holds a term
    of the type the schema restricts it to: numeric variables take numeric
    literals, and the arguments of a qualitative schema take IRIs."""
    var = template.object.name if isinstance(template.object, Var) else None
    if var in schema.numeric_vars:
        i = variables["V" + var]
        return [
            b for b in bindings
            if isinstance(b[i], Literal) and b[i].datatype in vocab.NUMERIC_DATATYPES
        ]
    if var in schema.argument_vars and schema.relation == QUALITATIVE:
        i = variables["V" + var]
        return [b for b in bindings if isinstance(b[i], Iri)]
    return bindings


def _enumerate_candidates(schema: StatementSchema, index: AtomIndex) -> list[_Candidate]:
    """Every instantiation of the schema in the ``_quad_index``: the
    anchor, then the other required templates, joined in that order, and
    then each adjunct template in order against the binding as it stands.
    An adjunct's first match in quad order claims its quad and binds its
    variables for label rendering; without a match it stays unbound."""
    anchor = schema.anchor_template
    required = [anchor, *(t for t in schema.required_templates() if t is not anchor)]
    adjuncts = schema.adjunct_templates()
    variables: dict[str, int] = {}
    bindings: list[tuple] = [()]
    steps = JoinStep.plan([_template_atom(t, i) for i, t in enumerate(required)], variables)
    for template, step in zip(required, steps):
        bindings = _admitted(schema, template, variables, index.extend(step, bindings))
    # Candidates that claim exactly the same quads for the same schema
    # (possible with constant-only templates) are one candidate.
    unique: dict[tuple, _Candidate] = {}
    for binding in bindings:
        known = variables
        for i, template in enumerate(adjuncts, len(required)):
            trial = dict(known)
            (step,) = JoinStep.plan([_template_atom(template, i)], trial)
            hits = _admitted(schema, template, trial, index.extend(step, [binding]))
            if hits:
                binding, known = hits[0], trial
        values = dict(zip(known, binding))
        claimed = tuple(sorted({q for name, q in values.items() if name[0] == "Q"}))
        binding = {name[1:]: t for name, t in values.items() if name[0] == "V"}
        matched = sum(name[0] == "Q" for name in known)
        unmatched = len(required) + len(adjuncts) - matched
        candidate = _Candidate(schema, binding, claimed, matched, unmatched)
        unique.setdefault((schema.unit_class, claimed), candidate)
    return list(unique.values())


def _resolve_overlaps(candidates: list[_Candidate]) -> list[_Candidate]:
    claimed_by: dict[Quad, _Candidate] = {}
    winners: list[_Candidate] = []
    for cand in sorted(candidates, key=lambda c: c.order_key):
        conflicts = {id(claimed_by[k]): claimed_by[k] for k in cand.claimed if k in claimed_by}
        if not conflicts:
            for k in cand.claimed:
                claimed_by[k] = cand
            winners.append(cand)
            continue
        for other in conflicts.values():
            if other.rank == cand.rank:
                g, s, p, o = min(set(cand.claimed) & set(other.claimed))
                # Named as (graph, subject, predicate, term kind, value or
                # lexical form, datatype, language), both term kinds padded to seven.
                shared = (g, s, p, *o, "", "")[:7]
                raise OverlapConflictError(
                    f"triple {shared} claimed by two equally ranked matches of "
                    f"{other.schema.unit_class} and {cand.schema.unit_class}"
                )
        # Every conflicting claim is strictly better ranked; drop this match.
    return winners


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------


def partition(
    dataset: QuadDataset,
    schemas: list[StatementSchema],
    catalog: VocabularyCatalog,
    minter=None,
) -> PartitionResult:
    """Map every data-layer quad to exactly one statement unit.

    Newly formed units receive freshly minted identifiers and their quads
    are re-homed into the graph named by that identifier; units already
    declared in the input are adopted as they stand. Semantic-units-layer
    quads are never partitioned.
    """
    if minter is None:
        from .fdo import UpriMinter

        minter = UpriMinter(vocab.DEFAULT_MINT_NS)

    data, units_layer = dataset.split_layers(catalog)
    unit_graphs = dataset.unit_graphs(catalog)
    warnings: list[str] = []

    adopted_quads = [q for q in data if q.graph in unit_graphs]
    fresh_quads = [q for q in data if q.graph not in unit_graphs]

    category_of = ResourceKinds.of(dataset, catalog).category_of
    adopted = _adopt_units(adopted_quads, units_layer, schemas, catalog)
    triple_map: dict[Quad, str] = {q: u["upri"] for u in adopted for q in u["quads"]}

    id_groups, remaining = _identification_pass(fresh_quads, catalog)

    all_schemas = _builtin_schemas(list(schemas), catalog)
    index = _quad_index(remaining)
    candidates: list[_Candidate] = []
    for schema in sorted(all_schemas, key=lambda s: s.unit_class):
        candidates.extend(_enumerate_candidates(schema, index))
    winners = _resolve_overlaps(candidates)

    claimed = {q for cand in winners for q in cand.claimed}
    leftovers = [q for q in remaining if q not in claimed]

    # The fields of each new unit in a deterministic order; each is minted
    # and re-homed, then every unit is built once, knowing every UPRI.
    fresh: list[dict] = []
    for (resource, id_class), quads in sorted(id_groups.items()):
        fresh.append(_identification_unit(resource, sorted(quads), catalog, id_class))
    for c in sorted(winners, key=lambda c: c.order_key):
        fresh.append(_schema_unit(c.schema, c.binding, c.claimed))
    fresh.extend(_untyped_unit(q.subject, [q]) for q in sorted(leftovers))
    for unit in fresh:
        upri = minter()
        subject = unit["subject"]
        if unit.get("schema_class") and not unit["classes"] & vocab.IDENTIFICATION_UNIT_CLASSES:
            if category_of(subject) is None:
                warnings.append(f"subject {subject} of unit {upri} has no identification unit")
        for q in unit["quads"]:
            triple_map[q] = upri
        unit.update(upri=upri, quads=tuple(q.rehome(upri) for q in unit["quads"]))

    upris = {u["upri"] for u in adopted + fresh}
    units = [_completed(u, category_of, catalog, upris) for u in adopted + fresh]
    fallback_units = tuple(
        u for u in units if not u.adopted and vocab.UNTYPED_STATEMENT_UNIT in u.classes
    )
    organized = QuadDataset(
        [q for u in units for q in u.quads]
        + list(units_layer)
        + [q for u in units for q in declaration_quads(u.upri, u.classes, u.subject, (), catalog)]
    )
    return PartitionResult(
        units=tuple(units),
        triple_map=triple_map,
        fallback_units=fallback_units,
        dataset=organized,
        warnings=tuple(warnings),
    )


def _identification_pass(
    quads: list[Quad], catalog: VocabularyCatalog
) -> tuple[dict, list[Quad]]:
    """Sweep class-affiliation, label, and cardinality triples into one
    identification unit per (resource, identification class)."""
    affiliations = catalog.affiliations
    kind_of: dict[str, InstanceKind] = {}
    for q in quads:
        kind = affiliations.get(q.predicate)
        if kind is not None and isinstance(q.object, Iri):
            row = INSTANCE_KINDS[kind]
            existing = kind_of.setdefault(q.subject, row)
            if existing != row:
                raise AmbiguousResourceKindError(
                    f"{q.subject} has both {existing.term} and {row.term} class affiliations"
                )

    groups: dict[tuple[str, str], list[Quad]] = {}
    remaining: list[Quad] = []
    for q in quads:
        row = kind_of.get(q.subject)
        if row is not None and (
            q.predicate in affiliations
            or q.predicate in (catalog.label, catalog.qualified_cardinality)
        ):
            groups.setdefault((q.subject, row.identification_class), []).append(q)
        else:
            remaining.append(q)
    return groups, remaining


def _identification_unit(
    subject: str, quads: list[Quad], catalog: VocabularyCatalog, unit_class: str
) -> dict:
    """The fields, all but the UPRI, of the identification unit of
    ``subject`` over its ``quads`` in canonical order. The anchor is the
    class affiliation with an IRI object, the one that decides the
    resource's kind. The unit is qualitative even when an affiliation has a
    numeric literal object."""
    affiliations = catalog.affiliations
    objects: list[UnitObject] = []
    bindings: list[tuple[str, Term]] = [("s", Iri(subject))]
    anchor = catalog.type
    for q in quads:
        if q.predicate in affiliations:
            objects.append(UnitObject(q.object, ARGUMENT, "c"))
            if isinstance(q.object, Iri):
                anchor = q.predicate
            if not any(n == "c" for n, _ in bindings):
                bindings.append(("c", q.object))
        elif q.predicate == catalog.label:
            objects.append(UnitObject(q.object, ADJUNCT, "l"))
            if not any(n == "l" for n, _ in bindings):
                bindings.append(("l", q.object))
        elif q.predicate == catalog.qualified_cardinality:
            objects.append(UnitObject(q.object, ADJUNCT, "n"))
            bindings.append(("n", q.object))
    return dict(
        classes={unit_class, vocab.QUALITATIVE_STATEMENT_UNIT},
        subject=subject,
        objects=tuple(objects),
        quads=tuple(quads),
        schema_class=unit_class,
        anchor_predicate=anchor,
        bindings=tuple(bindings),
    )


def _schema_unit(schema: StatementSchema, binding: dict[str, Term], quads: list[Quad]) -> dict:
    """The fields, all but the UPRI, of the unit of ``schema`` over
    ``quads`` in canonical order, where the schema's variables take
    ``binding``. Its objects are the bound argument variables, then the
    bound adjunct variables; the schema's relation, not the terms bound,
    makes it qualitative or quantitative."""
    subject = binding.get(schema.subject_var)
    relation = (
        vocab.QUANTITATIVE_STATEMENT_UNIT
        if schema.relation == QUANTITATIVE
        else vocab.QUALITATIVE_STATEMENT_UNIT
    )
    return dict(
        classes={schema.unit_class, relation},
        subject=str(subject),
        objects=tuple(
            UnitObject(binding[var], role, var)
            for role, names in ((ARGUMENT, schema.argument_vars), (ADJUNCT, schema.adjunct_vars))
            for var in names
            if var in binding
        ),
        quads=tuple(quads),
        schema_class=schema.unit_class,
        anchor_predicate=schema.anchor_predicate,
        bindings=tuple(sorted(binding.items())),
    )


def _untyped_unit(subject: str, quads: list[Quad]) -> dict:
    """The fields, all but the UPRI, of the untyped unit of ``quads`` in
    canonical order: the objects of the quads about ``subject`` are its
    unnamed arguments and the first quad's predicate is its anchor."""
    return dict(
        classes={vocab.UNTYPED_STATEMENT_UNIT},
        subject=subject,
        objects=tuple(UnitObject(q.object, ARGUMENT, None) for q in quads if q.subject == subject),
        quads=tuple(quads),
        anchor_predicate=quads[0].predicate,
    )


def _completed(
    unit: dict, category_of, catalog: VocabularyCatalog, upris: set[str]
) -> StatementUnit:
    """The ``StatementUnit`` of a new or an adopted unit's fields, with the
    classes its parts imply: its subject's category unless it has one, the
    qualitative or quantitative class unless it has one (quantitative when
    an argument is a numeric literal), the cardinality-restriction class
    for an identification unit with a qualified cardinality, and the
    disagreement class when its quads type another unit among ``upris``,
    the UPRIs of every unit, as a negation unit."""
    classes = set(unit["classes"])
    if classes.isdisjoint(vocab.SUBJECT_CATEGORY_CLASSES):
        category = category_of(unit["subject"])
        if category:
            classes.add(category)
    if classes.isdisjoint((vocab.QUALITATIVE_STATEMENT_UNIT, vocab.QUANTITATIVE_STATEMENT_UNIT)):
        numeric = any(
            o.role == ARGUMENT
            and isinstance(o.term, Literal)
            and o.term.datatype in vocab.NUMERIC_DATATYPES
            for o in unit["objects"]
        )
        classes.add(
            vocab.QUANTITATIVE_STATEMENT_UNIT if numeric else vocab.QUALITATIVE_STATEMENT_UNIT
        )
    quads = unit["quads"]
    if not classes.isdisjoint(vocab.IDENTIFICATION_UNIT_CLASSES) and any(
        q.predicate == catalog.qualified_cardinality for q in quads
    ):
        classes.add(vocab.CARDINALITY_RESTRICTION_UNIT)
    if any(s != unit["upri"] for s in _negated_units(quads, upris, catalog)):
        classes.add(vocab.DISAGREEMENT_UNIT)
    return StatementUnit(**{**unit, "classes": frozenset(classes)})


def _negated_units(quads, upris: set[str], catalog: VocabularyCatalog) -> list[str]:
    """The units among ``upris`` that ``quads``, a unit's data graph, type
    (with the catalog's ``type``) as negation units, in quad order."""
    return [
        q.subject
        for q in quads
        if q.predicate == catalog.type
        and q.object == Iri(vocab.NEGATION_UNIT)
        and q.subject in upris
    ]


# ---------------------------------------------------------------------------
# Adoption of pre-declared units
# ---------------------------------------------------------------------------


def _adopt_units(
    adopted_quads: list[Quad],
    units_layer: tuple[Quad, ...],
    schemas: list[StatementSchema],
    catalog: VocabularyCatalog,
) -> list[dict]:
    """The fields of one unit per declared unit data graph, in UPRI order,
    with the declared classes and subject (by default its first quad's) and
    the parts its quads give it. The quads arrive in canonical order, so
    each graph's quads are in canonical order.

    A graph declared with the class of a declared schema, and not as an
    identification unit, takes the best-ranked (least ``order_key``) match
    of that schema in the graph, or without one the schema's untyped
    parts. The matches come from one ``_enumerate_candidates`` run per
    distinct schema over one ``_quad_index`` of those graphs' quads: a
    match never spans graphs, because every template shares the graph
    variable ``G``."""
    by_graph: dict[str, list[Quad]] = {}
    for q in adopted_quads:
        by_graph.setdefault(q.graph, []).append(q)

    classes, subjects, _ = read_declarations(units_layer, catalog)
    by_class: dict[str, StatementSchema] = {s.unit_class: s for s in schemas}
    schema_of: dict[str, StatementSchema] = {}
    for upri in by_graph:
        declared = classes.get(upri, set())
        schema = next((by_class[c] for c in sorted(declared) if c in by_class), None)
        if schema is not None and not declared & vocab.IDENTIFICATION_UNIT_CLASSES:
            schema_of[upri] = schema
    index = _quad_index(q for q in adopted_quads if q.graph in schema_of)
    best: dict[str, _Candidate] = {}
    for schema in {s.unit_class: s for s in schema_of.values()}.values():
        for cand in _enumerate_candidates(schema, index):
            upri = cand.claimed[0].graph
            if schema_of[upri] is schema and (
                upri not in best or cand.order_key < best[upri].order_key
            ):
                best[upri] = cand

    out: list[dict] = []
    for upri in sorted(by_graph):
        quads = by_graph[upri]
        declared = classes.get(upri, set())
        subject = subjects.get(upri) or quads[0].subject
        id_class = declared & vocab.IDENTIFICATION_UNIT_CLASSES
        schema = schema_of.get(upri)
        if id_class:
            unit = _identification_unit(subject, quads, catalog, min(id_class))
        elif upri in best:
            unit = _schema_unit(schema, best[upri].binding, quads)
        elif schema is not None:
            unit = _untyped_unit(quads[0].subject, quads)
            unit.update(schema_class=schema.unit_class, anchor_predicate=schema.anchor_predicate)
        else:
            unit = _untyped_unit(subject, quads)
        unit.update(
            upri=upri,
            classes=frozenset(declared or {vocab.UNTYPED_STATEMENT_UNIT}),
            subject=subject,
            adopted=True,
        )
        out.append(unit)
    return out


# ---------------------------------------------------------------------------
# Classification and labels
# ---------------------------------------------------------------------------


def classify_unit(
    unit: StatementUnit, dataset: QuadDataset, catalog: VocabularyCatalog
) -> Classification:
    """Dual-axis classification of one statement unit."""
    if vocab.QUANTITATIVE_STATEMENT_UNIT in unit.classes:
        relation = QUANTITATIVE
    else:
        relation = QUALITATIVE
    try:
        kind = classify_resource(dataset, unit.subject, catalog)
    except (UnknownResourceError, AmbiguousResourceKindError) as exc:
        raise ClassificationError(
            f"subject kind of {unit.subject} unresolvable: {exc}"
        ) from exc
    category = ResourceKinds.CATEGORIES.get(kind)
    if category is None:
        raise ClassificationError(
            f"subject {unit.subject} of {unit.upri} is a {kind.value}; "
            f"statement units need an instance-like subject"
        )
    markers = frozenset(unit.classes & vocab.MARKER_CLASSES)
    return Classification(
        relation=relation,
        subject_category={
            vocab.ASSERTIONAL_STATEMENT_UNIT: "assertional",
            vocab.CONTINGENT_STATEMENT_UNIT: "contingent",
            vocab.UNIVERSAL_STATEMENT_UNIT: "universal",
        }[category],
        markers=markers,
    )


def label_index(dataset: QuadDataset, catalog: VocabularyCatalog) -> Mapping[str, str]:
    """First (in canonical order) label literal per resource; built once
    per dataset and catalog."""

    def build():
        out: dict[str, str] = {}
        for q in dataset:
            if q.predicate == catalog.label and isinstance(q.object, Literal):
                out.setdefault(q.subject, q.object.lexical)
        return MappingProxyType(out)

    return dataset._view("labels", catalog, build)


def label_templates(
    schemas: list[StatementSchema], catalog: VocabularyCatalog
) -> dict[str, tuple[str, tuple[str, ...]]]:
    """Unit class -> (label template, adjunct variables) of the first
    schema, declared or built in, that defines the class. An identification
    class that no schema labels takes its ``INSTANCE_KINDS`` label and keeps
    the schema's adjuncts."""
    out: dict[str, tuple[str, tuple[str, ...]]] = {}
    for s in _builtin_schemas(list(schemas), catalog):
        out.setdefault(s.unit_class, (s.label_template, s.adjunct_vars))
    for row in INSTANCE_KINDS.values():
        template, adjuncts = out.get(row.identification_class, ("", ()))
        out[row.identification_class] = (template or row.label, adjuncts)
    return out


def render_dynamic_label(
    unit: StatementUnit,
    dataset: QuadDataset,
    catalog: VocabularyCatalog,
    templates: Mapping[str, tuple[str, tuple[str, ...]]],
    *,
    warned: set[str] | None = None,
) -> str:
    """Substitute resource labels into the unit's label template.

    The template of the unit's class comes from ``templates``, the
    ``label_templates`` of the schemas; a class without one reads
    ``{s} <anchor local name> {args}``. Resources without a label fall back
    to their IRI local name, with a warning logged once per resource not yet
    in ``warned`` (a pass over many units shares one set); literals render
    as their lexical form. A placeholder naming an adjunct the unit left
    unbound is dropped together with the template text since the previous
    placeholder.
    """
    from .errors import LabelError

    template, adjuncts = templates.get(unit.schema_class, ("", ()))
    if not template:
        parts = ["{s}", local_name(unit.anchor_predicate or "relates to")]
        bound = [o for o in unit.objects if o.var]
        if bound:
            parts.extend("{%s}" % o.var for o in bound)
        elif unit.objects:
            parts.append("{o}")
        template = " ".join(parts)

    labels = label_index(dataset, catalog)
    if warned is None:
        warned = set()
    bindings = dict(unit.bindings)
    bindings.setdefault("s", Iri(unit.subject))
    if unit.objects and "o" not in bindings:
        bindings["o"] = unit.objects[0].term

    def substitute(name: str) -> str:
        if name not in bindings:
            raise LabelError(
                f"label template for {unit.upri} references unbound placeholder {{{name}}}"
            )
        term = bindings[name]
        if isinstance(term, Literal):
            return term.lexical
        label = labels.get(term.value)
        if label is None:
            if term.value not in warned:
                warned.add(term.value)
                _warn("no label for %s; using local name", term.value)
            return local_name(term.value)
        return label

    # Text, then (placeholder name, text) pairs.
    pieces = re.split(r"\{([^}]*)\}", template)
    out = [pieces[0]]
    for name, text in zip(pieces[1::2], pieces[2::2]):
        name = name.lstrip("?")
        if name in adjuncts and name not in bindings:
            out.pop()
        else:
            out.append(substitute(name))
        out.append(text)
    return "".join(out)


def _warn(message: str, *args) -> None:
    """Log a warning to ``kgunits.units``. ``logging`` is loaded by the first
    warning, so a run that warns about nothing never loads it."""
    import logging

    logging.getLogger(__name__).warning(message, *args)
