"""The dual semantics: statement units as logic-program facts, and guarded
translation patterns that rewrite stable models into OWL axioms.

Every statement unit contributes its unit-class atoms, its subject link,
and its content triples both as plain binary atoms (what rules reason
over) and as ``asserts(unit, s, p, o)`` atoms that keep each triple
anchored to the unit stating it. Patterns match against a stable model;
default negation in a guard is absence from the model, which is what lets
a negation unit suppress the plain translation of the statement it negates.

Skolem constants are minted deterministically: the "inst" tag is keyed by
the some-instance resource itself, so every pattern that mentions the same
resource produces the same fresh individual and co-reference survives
translation.
"""

from __future__ import annotations

from typing import get_args

from . import vocab
from ._record import fields, record, replace
from .errors import PatternError
from .fdo import sha256_hex
from .logic import Atom, AtomIndex, JoinStep, LogicProgram, Rule, _shortener, is_variable, parse_rules
from .owl import (
    AllValuesFrom,
    ClassAssertion,
    ClassExpr,
    ComplementOf,
    IntersectionOf,
    NegativeObjectPropertyAssertion,
    ObjectPropertyAssertion,
    OneOf,
    OwlAxiom,
    QualifiedCardinality,
    SomeValuesFrom,
    SubClassOf,
    _render,
)
from .schemas import QUALITATIVE, StatementSchema
from .store import IRI_TOKEN_RE, NUMBER_RE, Iri, VocabularyCatalog, is_absolute_iri, setting_lines
from .units import PartitionResult, StatementUnit, _negated_units

WILDCARD = "_"


@record
class Fresh:
    """Skolem slot: instantiates to a deterministic fresh constant."""

    tag: str
    keys: tuple[str, ...]


def skolem(tag: str, *keys: str) -> str:
    digest = sha256_hex("\x1f".join(keys))[:12]
    return f"sk:{tag}:{digest}"


@record
class TranslationPattern:
    pattern_id: str
    positive: tuple[Atom, ...]
    negative: tuple[Atom, ...]
    outputs: tuple[object, ...]  # axiom templates; leaves may be variables

    def __post_init__(self):
        bound = set()
        for atom in self.positive:
            bound |= atom.variables()
        for atom in self.negative:
            loose = {
                t for t in atom.terms if is_variable(t) and t not in bound
            }
            if loose:
                raise PatternError(
                    f"pattern {self.pattern_id}: negative guard variable(s) "
                    f"{', '.join(sorted(loose))} not bound by the positive guard"
                )
        for template in self.outputs:
            for var in _template_variables(template):
                if var not in bound:
                    raise PatternError(
                        f"pattern {self.pattern_id}: output variable {var} "
                        f"not bound by the positive guard"
                    )


def _template_variables(node) -> set[str]:
    """The variables a template mentions; a ``Fresh`` contributes its keys,
    never its tag."""
    if isinstance(node, str):
        return {node} if is_variable(node) else set()
    if isinstance(node, int):
        return set()
    if isinstance(node, Fresh):
        node = node.keys
    if isinstance(node, tuple):
        return set().union(*map(_template_variables, node))
    return set().union(*(_template_variables(getattr(node, f.name)) for f in fields(node)))


# ---------------------------------------------------------------------------
# Facts
# ---------------------------------------------------------------------------


def _term_constant(term) -> str:
    """Logic-program constant for an RDF term. Numeric literals stay bare
    so cardinality slots read as integers; other literals keep quotes so
    their lexical forms cannot collide with the variable convention."""
    if isinstance(term, Iri):
        return term.value
    if term.datatype in vocab.NUMERIC_DATATYPES:
        return term.lexical
    return f'"{term.lexical}"'


def facts_from_units(partition: PartitionResult, catalog: VocabularyCatalog) -> list[Atom]:
    """Ground atoms describing the partition: each unit's subject and
    classes, and each quad it holds, as a relation and as an assertion by
    the unit."""
    atoms: set[Atom] = set()
    for unit in partition.units:
        atoms.add(Atom(catalog.has_semantic_unit_subject, (unit.upri, unit.subject)))
        for cls in unit.classes:
            atoms.add(Atom(cls, (unit.upri,)))
        for _, s, p, o in unit.quads:
            obj = _term_constant(o)
            atoms.add(Atom(p, (s, obj)))
            atoms.add(Atom(vocab.ASSERTS, (unit.upri, s, p, obj)))
    return sorted(atoms)


def default_rules() -> LogicProgram:
    """Rules every reasoning run includes.

    A unit that is both a negation unit and an assertional statement unit
    is a negated assertional statement unit; and a unit that some data
    graph types as a negation unit (disagreement) counts as one.
    """
    x = "X"
    return LogicProgram(
        (
            Rule(
                Atom(vocab.NEGATED_ASSERTIONAL_STATEMENT_UNIT, (x,)),
                (
                    Atom(vocab.NEGATION_UNIT, (x,)),
                    Atom(vocab.ASSERTIONAL_STATEMENT_UNIT, (x,)),
                ),
            ),
            Rule(
                Atom(vocab.NEGATION_UNIT, (x,)),
                (Atom(vocab.RDF_TYPE, (x, vocab.NEGATION_UNIT)),),
            ),
        )
    )


# ---------------------------------------------------------------------------
# Built-in patterns
# ---------------------------------------------------------------------------


def builtin_patterns(
    schemas: list[StatementSchema], catalog: VocabularyCatalog
) -> list[TranslationPattern]:
    """The core ontology-design patterns plus one family per qualitative
    schema's anchor relation."""
    U, X, Y, Z, C, D, N, W = "U", "X", "Y", "Z", "C", "D", "N", "W"
    t = catalog.type
    sio = catalog.some_instance_of
    eio = catalog.every_instance_of
    not_negated = Atom(vocab.NEGATION_UNIT, (U,))
    patterns = [
        TranslationPattern(
            "named-individual-identification",
            positive=(
                Atom(vocab.NAMED_INDIVIDUAL_IDENTIFICATION_UNIT, (U,)),
                Atom(vocab.ASSERTS, (U, Y, t, Z)),
            ),
            negative=(not_negated,),
            outputs=(ClassAssertion(Z, Y),),
        ),
        TranslationPattern(
            "negated-identification",
            positive=(
                Atom(vocab.NEGATED_ASSERTIONAL_STATEMENT_UNIT, (U,)),
                Atom(vocab.NAMED_INDIVIDUAL_IDENTIFICATION_UNIT, (U,)),
                Atom(vocab.ASSERTS, (U, Y, t, Z)),
            ),
            negative=(),
            outputs=(ClassAssertion(ComplementOf(Z), Y),),
        ),
        TranslationPattern(
            "some-instance-identification",
            positive=(
                Atom(vocab.SOME_INSTANCE_IDENTIFICATION_UNIT, (U,)),
                Atom(vocab.ASSERTS, (U, Y, sio, C)),
            ),
            negative=(not_negated, Atom(vocab.CARDINALITY_RESTRICTION_UNIT, (U,))),
            outputs=(ClassAssertion(C, Fresh("inst", (Y,))),),
        ),
        TranslationPattern(
            "every-instance-identification",
            positive=(
                Atom(vocab.EVERY_INSTANCE_IDENTIFICATION_UNIT, (U,)),
                Atom(vocab.ASSERTS, (U, Y, eio, C)),
            ),
            negative=(not_negated,),
            outputs=(
                ClassAssertion(vocab.COLLECTION, Y),
                SubClassOf(C, SomeValuesFrom(vocab.MEMBER_OF, OneOf((Y,)))),
                SubClassOf(OneOf((Y,)), AllValuesFrom(vocab.HAS_MEMBER, C)),
            ),
        ),
        TranslationPattern(
            "cardinality-restriction",
            positive=(
                Atom(vocab.CARDINALITY_RESTRICTION_UNIT, (U,)),
                Atom(vocab.ASSERTS, (U, Y, catalog.qualified_cardinality, N)),
                Atom(vocab.ASSERTS, (U, Y, sio, W)),
            ),
            negative=(not_negated,),
            outputs=(
                ClassAssertion(
                    IntersectionOf(
                        (
                            vocab.COLLECTION,
                            QualifiedCardinality(vocab.HAS_MEMBER, N, W),
                        )
                    ),
                    Fresh("inst", (Y,)),
                ),
            ),
        ),
    ]
    for schema in sorted(schemas, key=lambda s: s.unit_class):
        if schema.relation != QUALITATIVE:
            continue
        if schema.unit_class in vocab.IDENTIFICATION_UNIT_CLASSES:
            continue
        K = schema.unit_class
        P = schema.anchor_predicate
        asserts = Atom(vocab.ASSERTS, (U, X, P, Y))
        some_x, every_x = Atom(sio, (X, C)), Atom(eio, (X, C))
        some_y, any_y = Atom(sio, (Y, D)), Atom(sio, (Y, WILDCARD))
        inst_x, inst_y = Fresh("inst", (X,)), Fresh("inst", (Y,))
        # member, unit status, extra positive guards, negative guards, axiom
        family = (
            ("assertional", vocab.ASSERTIONAL_STATEMENT_UNIT, (), (not_negated, any_y),
             ObjectPropertyAssertion(P, X, Y)),
            ("assertional-some-object", vocab.ASSERTIONAL_STATEMENT_UNIT, (some_y,),
             (not_negated,), ObjectPropertyAssertion(P, X, inst_y)),
            ("contingent", vocab.CONTINGENT_STATEMENT_UNIT, (some_x,), (not_negated, any_y),
             ObjectPropertyAssertion(P, inst_x, Y)),
            ("contingent-some-object", vocab.CONTINGENT_STATEMENT_UNIT, (some_x, some_y),
             (not_negated,), ObjectPropertyAssertion(P, inst_x, inst_y)),
            ("universal", vocab.UNIVERSAL_STATEMENT_UNIT, (every_x, some_y), (not_negated,),
             SubClassOf(C, SomeValuesFrom(P, D))),
            ("negated", vocab.NEGATED_ASSERTIONAL_STATEMENT_UNIT, (), (any_y,),
             NegativeObjectPropertyAssertion(P, X, Y)),
            ("negated-absence", vocab.NEGATED_ASSERTIONAL_STATEMENT_UNIT, (some_y,), (),
             ClassAssertion(ComplementOf(SomeValuesFrom(P, D)), X)),
        )
        patterns.extend(
            TranslationPattern(
                f"rel:{K}:{member}", (Atom(K, (U,)), Atom(status, (U,)), asserts, *guards),
                negative, (axiom,),
            )
            for member, status, guards, negative, axiom in family
        )
    return patterns


# ---------------------------------------------------------------------------
# Pattern evaluation
# ---------------------------------------------------------------------------


def _bound_values(slots, binding: tuple) -> tuple:
    return tuple(binding[s] if isinstance(s, int) else s for s in slots)


def _negative_holds(signature: tuple, slots, index, binding: tuple) -> bool:
    """True when some model atom matches the bound negative guard; a ``_``
    left after substitution matches anything."""
    values = _bound_values(slots, binding)
    positions = tuple(i for i, v in enumerate(values) if v != WILDCARD)
    return bool(index.lookup(signature, positions, tuple(values[i] for i in positions)))


def _instantiate(node, binding: dict[str, str]):
    """The template with its variables bound and each ``Fresh`` minted; a
    bound cardinality slot becomes an ``int``."""
    if isinstance(node, str):
        return binding[node] if is_variable(node) else node
    if isinstance(node, int):
        return node
    if isinstance(node, tuple):
        return tuple(_instantiate(n, binding) for n in node)
    if isinstance(node, Fresh):
        return skolem(node.tag, *_instantiate(node.keys, binding))
    if isinstance(node, QualifiedCardinality) and isinstance(node.cardinality, str):
        value = _instantiate(node.cardinality, binding)
        try:
            node = replace(node, cardinality=int(value))
        except ValueError as exc:
            raise PatternError(f"cardinality slot bound to non-integer {value!r}") from exc
    return type(node)(*(_instantiate(getattr(node, f.name), binding) for f in fields(node)))


def _axiom_well_formed(axiom) -> bool:
    """Drop instantiations whose individual slots ended up with literal
    lexical forms; OWL object assertions need IRI-named individuals."""
    if isinstance(axiom, (ObjectPropertyAssertion, NegativeObjectPropertyAssertion)):
        return all(
            is_absolute_iri(v) or v.startswith("sk:")
            for v in (axiom.source, axiom.target)
        )
    if isinstance(axiom, ClassAssertion):
        return is_absolute_iri(axiom.individual) or axiom.individual.startswith("sk:")
    return True


def translate_to_owl(
    model, patterns: list[TranslationPattern]
) -> list[OwlAxiom]:
    """Apply every pattern under every guard-satisfying substitution."""
    index = AtomIndex(sorted(model))
    axioms: set[OwlAxiom] = set()
    for pattern in patterns:
        variables: dict[str, int] = {}
        bindings: list[tuple] = [()]
        for step in JoinStep.plan(pattern.positive, variables, WILDCARD):
            bindings = index.extend(step, bindings)
        negative = [
            ((a.predicate, a.negated, len(a.terms)), a.slots(variables))
            for a in pattern.negative
        ]
        for values in bindings:
            if any(_negative_holds(sig, slots, index, values) for sig, slots in negative):
                continue
            binding = dict(zip(variables, values))
            for template in pattern.outputs:
                axiom = _instantiate(template, binding)
                if _axiom_well_formed(axiom):
                    axioms.add(axiom)
    shorten = _shortener(None)  # render_axiom's text, with one shortener for the whole sort
    return sorted(axioms, key=lambda axiom: _render(axiom, shorten))


# ---------------------------------------------------------------------------
# Conflicts and disputes
# ---------------------------------------------------------------------------


@record
class ConflictReport:
    classical: tuple[tuple[str, str], ...]  # rendered (p, -p) pairs
    disputes: tuple[tuple[str, str], ...]  # (disagreement unit, disputed unit)
    suppressed: tuple[str, ...] = ()  # units whose plain translation is off

    @property
    def empty(self) -> bool:
        return not self.classical and not self.disputes


def check_conflicts(
    model,
    units: tuple[StatementUnit, ...] = (),
    prefixes: dict[str, str] | None = None,
) -> ConflictReport:
    """Classical (p, -p) pairs in the model plus dispute records for every
    unit some disagreement unit targets."""
    classical: list[tuple[str, str]] = []
    model_set = set(model)
    for atom in sorted(model_set):
        if not atom.negated and atom.complement() in model_set:
            classical.append(
                (atom.render(prefixes), atom.complement().render(prefixes))
            )

    unit_upris = {u.upri for u in units}
    disputes: list[tuple[str, str]] = []
    for unit in sorted(units, key=lambda u: u.upri):
        if vocab.DISAGREEMENT_UNIT not in unit.classes:
            continue
        disputes.extend((unit.upri, target) for target in _negated_units(unit, unit_upris))
    suppressed = tuple(sorted({target for _, target in disputes}))
    return ConflictReport(
        classical=tuple(classical),
        disputes=tuple(disputes),
        suppressed=suppressed,
    )


# ---------------------------------------------------------------------------
# Pattern files
# ---------------------------------------------------------------------------


def parse_patterns(
    text: str, prefixes: dict[str, str] | None = None
) -> list[TranslationPattern]:
    """Parse user-defined translation patterns.

    Format, line oriented::

        pattern my-pattern
        when su:NegationUnit(U), su:asserts(U, Y, rdf:type, Z)
        emit ClassAssertion(ComplementOf(Z), Y)

    ``when`` atoms follow the rule syntax (``not`` for default negation);
    ``emit`` takes one axiom expression per line; ``fresh(tag, X)`` mints a
    Skolem constant. Each argument must have the type its field declares
    in ``owl``: an ``emit`` starts with ``ClassAssertion``,
    ``ObjectPropertyAssertion``, ``NegativeObjectPropertyAssertion`` or
    ``SubClassOf``; an entity position (and each ``OneOf`` member) takes a
    name or ``fresh(...)``; a class position also takes a class
    expression; a cardinality takes an integer or a name bound to one; and
    ``fresh(...)`` takes names and integers only. Anything else is a
    ``PatternError``.
    """
    prefixes = prefixes or {}
    patterns: list[TranslationPattern] = []
    name = None
    positive: list[Atom] = []
    negative: list[Atom] = []
    outputs: list = []

    def flush():
        nonlocal name, positive, negative, outputs
        if name is not None:
            patterns.append(
                TranslationPattern(name, tuple(positive), tuple(negative), tuple(outputs))
            )
        name, positive, negative, outputs = None, [], [], []

    for lineno, line in setting_lines(text):
        if line.startswith("pattern "):
            flush()
            name = line[len("pattern ") :].strip()
        elif line.startswith("when "):
            if name is None:
                raise PatternError(f"line {lineno}: 'when' before 'pattern'")
            body = line[len("when ") :].strip().rstrip(".")
            # Leading newlines make the rule parser count lines as the file does.
            program = parse_rules("\n" * (lineno - 1) + f"__head__ :- {body}.", prefixes)
            rule = program.rules[0]
            positive.extend(rule.positive)
            negative.extend(rule.negative)
        elif line.startswith("emit "):
            if name is None:
                raise PatternError(f"line {lineno}: 'emit' before 'pattern'")
            outputs.append(_parse_axiom_expr(line[len("emit ") :].strip(), prefixes, lineno))
        else:
            raise PatternError(f"line {lineno}: cannot parse pattern line: {line!r}")
    flush()
    return patterns


# An expression head names an OWL class; the annotation of the field an
# argument fills says what may stand there. The top of an ``emit`` line is
# an ``OwlAxiom``; ``fresh(...)`` takes leaves only.
_HEADS = {cls.__name__: cls for cls in get_args(OwlAxiom) + get_args(ClassExpr)[1:]}
_SLOTS = {
    "OwlAxiom": ("an axiom", get_args(OwlAxiom)),
    "ClassExpr": ("a class expression", get_args(ClassExpr) + (Fresh,)),
    "str": ("an entity", (str, Fresh)),
    "int": ("an integer", (str, int)),
    "leaf": ("a name or integer", (str, int)),
}


def _parse_axiom_expr(text: str, prefixes: dict[str, str], lineno: int):
    expr, rest = _parse_expr(text, prefixes, lineno, "OwlAxiom")
    if rest.strip():
        raise PatternError(f"line {lineno}: trailing text after expression: {rest!r}")
    return expr


def _parse_expr(text: str, prefixes: dict[str, str], lineno: int, slot: str):
    """The expression at the start of ``text`` and the text after it. The
    expression must be what ``slot``, a key of ``_SLOTS``, admits."""
    text = text.lstrip()
    if text.startswith("<"):
        m = IRI_TOKEN_RE.match(text)
        if m is None:
            problem = "not an absolute IRI" if ">" in text else "unterminated IRI"
            raise PatternError(f"line {lineno}: {problem} near {text[:20]!r}")
        expr, rest = m.group(1), text[m.end() :]
    else:
        i = 0
        while i < len(text) and text[i] not in ",() \t":
            i += 1
        token, rest = text[:i], text[i:]
        if not token:
            raise PatternError(f"line {lineno}: expected expression near {text[:20]!r}")
        if rest.startswith("("):
            expr, rest = _parse_call(token, rest[1:], prefixes, lineno)
        else:
            expr = _parse_leaf(token, prefixes, lineno)
    what, admitted = _SLOTS[slot]
    if not isinstance(expr, admitted):
        raise PatternError(f"line {lineno}: expected {what}, got {_describe(expr)}")
    return expr, rest


def _describe(expr) -> str:
    if isinstance(expr, (str, int)):
        return repr(expr)
    return "fresh(...)" if isinstance(expr, Fresh) else f"{type(expr).__name__}(...)"


def _parse_call(head: str, text: str, prefixes: dict[str, str], lineno: int):
    if head == "fresh":
        args, rest = _parse_args(head, text, prefixes, lineno, [], "leaf")
        return Fresh(str(args[0]), tuple(str(a) for a in args[1:])), rest
    cls = _HEADS.get(head)
    if cls is None:
        raise PatternError(f"line {lineno}: unknown expression head {head!r}")
    *fixed, last = [f.type for f in fields(cls)]
    if not last.startswith("tuple["):
        args, rest = _parse_args(head, text, prefixes, lineno, fixed + [last], None)
        return cls(*args), rest
    spread = last.removeprefix("tuple[").removesuffix(", ...]")
    args, rest = _parse_args(head, text, prefixes, lineno, fixed, spread)
    return cls(*args[: len(fixed)], tuple(args[len(fixed) :])), rest


def _parse_args(head, text, prefixes, lineno, fixed: list[str], spread: str | None):
    """The arguments of ``head(`` up to its ``)``, each checked against its
    field's type: one per ``fixed`` field, then any number of ``spread``."""
    args = []
    rest = text
    while True:
        slot = fixed[len(args)] if len(args) < len(fixed) else spread
        if slot is None:
            raise PatternError(f"line {lineno}: {head} takes {len(fixed)} arguments")
        arg, rest = _parse_expr(rest, prefixes, lineno, slot)
        args.append(arg)
        rest = rest.lstrip()
        if rest.startswith(","):
            rest = rest[1:]
            continue
        if rest.startswith(")"):
            rest = rest[1:]
            break
        raise PatternError(f"line {lineno}: expected ',' or ')' in {head}")
    if len(args) < len(fixed):
        raise PatternError(
            f"line {lineno}: {head} takes {len(fixed)} arguments, got {len(args)}"
        )
    return args, rest


def _parse_leaf(token: str, prefixes: dict[str, str], lineno: int):
    """A prefixed name, variable, integer or bare symbol."""
    if ":" in token:
        prefix, _, local = token.partition(":")
        if prefix in prefixes:
            return prefixes[prefix] + local
    if token.isdigit():  # digits of any script; only ASCII ones make a number
        if not NUMBER_RE.fullmatch(token):
            raise PatternError(f"line {lineno}: not an integer: {token!r}")
        return int(token)
    return token
