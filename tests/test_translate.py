from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logic_oracle as oracle
import owl_oracle
import translate_oracle
from kgunits import compile_schema, load_catalog, vocab
from kgunits.errors import PatternError
from kgunits.logic import Atom, ground_program, stable_models
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
    render_axiom,
    render_axioms,
)
from kgunits.schemas import QUALITATIVE, QUANTITATIVE, StatementSchema, TripleTemplate, Var
from kgunits.store import DEFAULT_CATALOG
from kgunits.translate import (
    Fresh,
    TranslationPattern,
    _instantiate,
    _template_variables,
    builtin_patterns,
    check_conflicts,
    default_rules,
    facts_from_units,
    parse_patterns,
    skolem,
    translate_to_owl,
)
from kgunits.units import _builtin_schemas

from conftest import benchmark_module, fixture_dataset, fixture_text, partitioned

EX = "https://example.org/kg/"
REL = "https://example.org/rel/"
SUC = "https://example.org/su-class/"
FMA = "http://purl.org/sig/ont/fma/"
PO = "https://example.org/plant/"
UBERON = "https://example.org/uberon/"


def _model(result, catalog, bound=2048):
    facts = facts_from_units(result, catalog)
    program = ground_program(default_rules(), facts)
    models = stable_models(program, bound=bound)
    assert len(models) == 1
    return models[0]


def _axioms(name, catalog, schemas):
    result = partitioned(name, catalog, schemas)
    model = _model(result, catalog)
    return translate_to_owl(model, builtin_patterns(schemas, catalog)), result, model


# -- facts --------------------------------------------------------------------


def test_facts_for_identification_unit(catalog, schemas):
    result = partitioned("identify_named.trig", catalog, schemas)
    facts = set(facts_from_units(result, catalog))
    (unit,) = result.units
    assert Atom(vocab.RDF_TYPE, (EX + "LarsRightHand", FMA + "Hand")) in facts
    assert Atom(vocab.NAMED_INDIVIDUAL_IDENTIFICATION_UNIT, (unit.upri,)) in facts
    assert Atom(catalog.has_semantic_unit_subject, (unit.upri, EX + "LarsRightHand")) in facts
    assert (
        Atom(vocab.ASSERTS, (unit.upri, EX + "LarsRightHand", vocab.RDF_TYPE, FMA + "Hand"))
        in facts
    )


def test_facts_for_negated_unit(catalog, schemas):
    result = partitioned("fruit_negation.trig", catalog, schemas)
    facts = set(facts_from_units(result, catalog))
    negated = EX + "unit-pome-id"
    assert Atom(vocab.NEGATION_UNIT, (negated,)) in facts
    assert Atom(vocab.ASSERTIONAL_STATEMENT_UNIT, (negated,)) in facts


def test_empty_partition_empty_facts(catalog, schemas):
    from kgunits.fdo import UpriMinter
    from kgunits.store import QuadDataset
    from kgunits.units import partition

    result = partition(QuadDataset(), schemas, catalog, UpriMinter(seed=1))
    assert facts_from_units(result, catalog) == []


# -- worked translations --------------------------------------------------------


def test_plain_assertional_relation(catalog, schemas):
    axioms, _, _ = _axioms("hand_assertional.trig", catalog, schemas)
    assert (
        ObjectPropertyAssertion(
            REL + "has-part", EX + "LarsRightHand", EX + "LarsRightThumb"
        )
        in axioms
    )


def test_universal_hand_thumb_subclassof(catalog, schemas):
    axioms, _, _ = _axioms("hand_universal.trig", catalog, schemas)
    assert (
        SubClassOf(FMA + "Hand", SomeValuesFrom(REL + "has-part", FMA + "Thumb"))
        in axioms
    )


def test_every_instance_three_axiom_collection(catalog, schemas):
    axioms, _, _ = _axioms("identify_every.trig", catalog, schemas)
    rendered = [render_axiom(a) for a in axioms]
    assert len(axioms) == 3
    assert ClassAssertion(vocab.COLLECTION, EX + "everyHand") in axioms
    assert any("SomeValuesFrom" in r and "memberOf" in r for r in rendered)
    assert any("AllValuesFrom" in r and "hasMember" in r for r in rendered)


def test_negated_identification_complement_with_suppression(catalog, schemas):
    axioms, _, _ = _axioms("fruit_negation.trig", catalog, schemas)
    assert ClassAssertion(ComplementOf(PO + "PomeFruit"), EX + "fruitX") in axioms
    assert ClassAssertion(PO + "PomeFruit", EX + "fruitX") not in axioms
    assert ClassAssertion(PO + "Fruit", EX + "fruitX") in axioms


def test_cardinality_pair_with_shared_skolem(catalog, schemas):
    axioms, _, _ = _axioms("head_cardinality.trig", catalog, schemas)
    sk = skolem("inst", EX + "someEyesC")
    rendered = render_axioms(axioms)
    assert (
        f"ClassAssertion(IntersectionOf({vocab.COLLECTION}, "
        f"QualifiedCardinality({vocab.HAS_MEMBER}, 3, {UBERON}Eye)), {sk})"
        in rendered
    )
    assert ObjectPropertyAssertion(REL + "part-of", EX + "headX", sk) in axioms
    # plain some-instance class assertion is absorbed into the pair
    assert ClassAssertion(UBERON + "Eye", sk) not in axioms


def test_negated_relation_negative_property_assertion(catalog, schemas):
    axioms, _, _ = _axioms("fruit_negated_relation.trig", catalog, schemas)
    assert (
        NegativeObjectPropertyAssertion(
            REL + "part-of", EX + "fruitX", EX + "orangePlantY"
        )
        in axioms
    )
    assert not any(isinstance(a, ObjectPropertyAssertion) for a in axioms)


def test_absence_statement_translation(catalog, schemas):
    axioms, _, _ = _axioms("head_absence.trig", catalog, schemas)
    assert (
        ClassAssertion(
            ComplementOf(SomeValuesFrom(REL + "has-part", UBERON + "Antenna")),
            EX + "headX",
        )
        in axioms
    )
    assert not any(isinstance(a, ObjectPropertyAssertion) for a in axioms)


def test_contingent_relation_skolemizes_both_ends(catalog, schemas):
    axioms, _, _ = _axioms("hand_contingent.trig", catalog, schemas)
    expected = ObjectPropertyAssertion(
        REL + "has-part",
        skolem("inst", EX + "someHandX"),
        skolem("inst", EX + "someThumbX"),
    )
    assert expected in axioms
    assert ClassAssertion(FMA + "Hand", skolem("inst", EX + "someHandX")) in axioms


def test_skolem_determinism_across_runs(catalog, schemas):
    first, _, model = _axioms("head_cardinality.trig", catalog, schemas)
    second = translate_to_owl(model, builtin_patterns(schemas, catalog))
    assert render_axioms(first) == render_axioms(second)


def test_guard_soundness_negation_suppresses_plain_pattern(catalog, schemas):
    for name, forbidden in (
        ("fruit_negation.trig", ClassAssertion(PO + "PomeFruit", EX + "fruitX")),
        (
            "fruit_negated_relation.trig",
            ObjectPropertyAssertion(REL + "part-of", EX + "fruitX", EX + "orangePlantY"),
        ),
    ):
        axioms, result, model = _axioms(name, catalog, schemas)
        negated = [u.upri for u in result.units if vocab.NEGATION_UNIT in u.classes]
        assert negated
        assert forbidden not in axioms


# -- conflicts -------------------------------------------------------------------


def test_dispute_reported_and_suppressed(catalog, schemas):
    result = partitioned("fruit_disagreement.trig", catalog, schemas)
    model = _model(result, catalog)
    report = check_conflicts(model, result.units)
    assert report.disputes == ((EX + "unit-dissent", EX + "unit-claim"),)
    assert report.suppressed == (EX + "unit-claim",)
    # the disputed identification's plain translation is off
    axioms = translate_to_owl(model, builtin_patterns(schemas, catalog))
    assert ClassAssertion(PO + "PomeFruit", EX + "fruitX") not in axioms
    assert ClassAssertion(ComplementOf(PO + "PomeFruit"), EX + "fruitX") in axioms


def test_classical_conflict_pair_reported():
    model = frozenset(
        {Atom("haspart", ("x", "t")), Atom("haspart", ("x", "t"), negated=True)}
    )
    report = check_conflicts(model)
    assert len(report.classical) == 1


def test_conflict_free_fixture_empty_report(catalog, schemas):
    result = partitioned("hand_assertional.trig", catalog, schemas)
    model = _model(result, catalog)
    report = check_conflicts(model, result.units)
    assert report.empty


# -- pattern machinery ------------------------------------------------------------


def test_pattern_safety_checked():
    with pytest.raises(PatternError):
        TranslationPattern(
            "bad",
            positive=(Atom("p", ("X",)),),
            negative=(),
            outputs=(ClassAssertion("Y", "X"),),
        )
    with pytest.raises(PatternError):
        TranslationPattern(
            "bad-negative",
            positive=(Atom("p", ("X",)),),
            negative=(Atom("q", ("Z",)),),
            outputs=(),
        )


def test_wildcard_negative_guard():
    pattern = TranslationPattern(
        "only-unrelated",
        positive=(Atom("p", ("X",)),),
        negative=(Atom("q", ("X", "_")),),
        outputs=(ClassAssertion("https://example.org/C", "X"),),
    )
    model = {
        Atom("p", ("https://example.org/a",)),
        Atom("p", ("https://example.org/b",)),
        Atom("q", ("https://example.org/b", "https://example.org/z")),
    }
    axioms = translate_to_owl(model, [pattern])
    assert axioms == [
        ClassAssertion("https://example.org/C", "https://example.org/a")
    ]


def test_parse_patterns_round_trip(catalog):
    text = """
pattern complement-demo
when su:NegationUnit(U), su:asserts(U, Y, rdf:type, Z)
emit ClassAssertion(ComplementOf(Z), Y)
emit ClassAssertion(fresh(witness, U), Y)
"""
    (pattern,) = parse_patterns(text, catalog.prefixes)
    assert pattern.pattern_id == "complement-demo"
    assert pattern.positive[0].predicate == vocab.NEGATION_UNIT
    assert isinstance(pattern.outputs[0], ClassAssertion)
    assert isinstance(pattern.outputs[1].expr, Fresh)


def test_parse_patterns_reads_every_head(catalog):
    text = """
pattern all-heads
when su:NegationUnit(U), su:asserts(U, Y, rdf:type, Z)
emit SubClassOf(IntersectionOf(Z, ComplementOf(OneOf(Y, fresh(t, U)))), AllValuesFrom(rel:p, Z))
emit ClassAssertion(QualifiedCardinality(rel:p, 3, SomeValuesFrom(rel:q, Z)), fresh(t, U, 7))
emit ObjectPropertyAssertion(rel:p, Y, <https://example.org/kg/o>)
emit NegativeObjectPropertyAssertion(rel:p, Y, ex:o)
emit ClassAssertion(QualifiedCardinality(rel:p, U, Z), Y)
"""
    (pattern,) = parse_patterns(text, catalog.prefixes)
    rel, u, y, z = REL, "U", "Y", "Z"
    assert pattern.outputs == (
        SubClassOf(
            IntersectionOf((z, ComplementOf(OneOf((y, Fresh("t", (u,))))))),
            AllValuesFrom(rel + "p", z),
        ),
        ClassAssertion(
            QualifiedCardinality(rel + "p", 3, SomeValuesFrom(rel + "q", z)),
            Fresh("t", (u, "7")),
        ),
        ObjectPropertyAssertion(rel + "p", y, EX + "o"),
        NegativeObjectPropertyAssertion(rel + "p", y, EX + "o"),
        ClassAssertion(QualifiedCardinality(rel + "p", u, z), y),
    )


@pytest.mark.parametrize(
    "emit, message",
    [
        ("ClassAssertion(<http://x, Y)", "unterminated IRI"),
        ("ClassAssertion(ex:C\u00b2, \u00b2)", "not an integer: '\u00b2'"),
        ("QualifiedCardinality(rel:p, \u00b2, Z)", "not an integer"),
        # Arabic-Indic digits are no integer either, nor is an IRI that breaks the
        # one IRI rule, though a '>' closes it.
        ("ClassAssertion(QualifiedCardinality(rel:p, \u0661\u0662, Z), Y)", "not an integer: '\u0661\u0662'"),
        ("ClassAssertion(<https://e.org/a b>, Y)", "not an absolute IRI"),
        ("ClassAssertion(<e.org/C>, Y)", "not an absolute IRI"),
        ("<http://x/C>", "expected an axiom, got 'http://x/C'"),
        ("Y", "expected an axiom, got 'Y'"),
        ("fresh(t, U)", "expected an axiom, got fresh(...)"),
        ("ComplementOf(Z)", "expected an axiom, got ComplementOf(...)"),
        ("ClassAssertion(SubClassOf(Z, Z), U)", "expected a class expression, got SubClassOf(...)"),
        ("ClassAssertion(Z, ComplementOf(Z))", "expected an entity, got ComplementOf(...)"),
        ("ClassAssertion(Z, 3)", "expected an entity, got 3"),
        ("ClassAssertion(3, Y)", "expected a class expression, got 3"),
        ("ClassAssertion(OneOf(Y, ComplementOf(Z)), Y)", "expected an entity"),
        ("ObjectPropertyAssertion(fresh(t, Y), Y, SomeValuesFrom(rel:p, Z))", "expected an entity"),
        ("ClassAssertion(QualifiedCardinality(rel:p, fresh(t, U), Z), Y)", "expected an integer"),
        ("ClassAssertion(Z, fresh(t, ComplementOf(Z)))", "expected a name or integer"),
        ("ClassAssertion(Z, fresh(t, fresh(u, Y)))", "expected a name or integer"),
        ("ClassAssertion(Z)", "ClassAssertion takes 2 arguments, got 1"),
        ("SubClassOf(Z, Z, Z)", "SubClassOf takes 2 arguments"),
        ("ClassAssertion(Frob(Z), Y)", "unknown expression head 'Frob'"),
        ("ClassAssertion(Z Y)", "expected ',' or ')' in ClassAssertion"),
        ("ClassAssertion(, Y)", "expected expression"),
        ("ClassAssertion(Z, Y) Y", "trailing text"),
    ],
)
def test_malformed_emit_is_a_pattern_error(catalog, emit, message):
    text = (
        "pattern bad\nwhen su:NegationUnit(U), su:asserts(U, Y, rdf:type, Z)\n"
        f"emit {emit}\n"
    )
    with pytest.raises(PatternError, match="line 3: .*" + re.escape(message)):
        parse_patterns(text, catalog.prefixes)


def test_translate_is_deterministic_output_order(catalog, schemas):
    axioms, _, _ = _axioms("publication_frames.trig", catalog, schemas)
    rendered = [render_axiom(a) for a in axioms]
    assert rendered == sorted(rendered)


# -- guard matching against the term-by-term oracle ----------------------------

_NODES = (EX + "a", EX + "b", "_")
_GUARD_VARS = ("X", "Y")


def _guard(terms):
    return st.builds(
        Atom, st.sampled_from(("p", "q")), st.lists(terms, max_size=2).map(tuple), st.booleans()
    )


@st.composite
def _patterns(draw):
    """Guards with constants, ``_`` wildcards and repeated variables; the
    model may hold ``_`` itself, which a negative guard's substitution
    turns into a wildcard. The output names one Skolem individual per
    binding, so every distinct binding shows in the axioms."""
    positive = tuple(draw(st.lists(_guard(st.sampled_from(_NODES + _GUARD_VARS)), max_size=2)))
    bound = tuple(sorted({t for a in positive for t in a.terms if t in _GUARD_VARS}))
    negative = tuple(draw(st.lists(_guard(st.sampled_from(_NODES + bound)), max_size=2)))
    outputs = (ClassAssertion(EX + "Bound", Fresh("binding", bound)),)
    return TranslationPattern("random", positive, negative, outputs)


@settings(max_examples=200, deadline=None)
@given(
    st.frozensets(_guard(st.sampled_from(_NODES)), max_size=12),
    st.lists(_patterns(), max_size=3),
)
def test_guard_matching_matches_oracle(model, patterns):
    assert translate_to_owl(model, patterns) == oracle.translate_to_owl(model, patterns)


def test_guard_repeated_variable_and_wildcards():
    a, b = EX + "a", EX + "b"
    model = frozenset(
        {Atom("p", (a, a)), Atom("p", (a, b)), Atom("p", (b, "_")), Atom("q", (b, a))}
    )

    def bound(*values):
        return ClassAssertion(EX + "Bound", skolem("binding", *values))

    def run(positive, negative=()):
        variables = sorted({t for g in positive for t in g.terms if t in ("X", "Y")})
        output = ClassAssertion(EX + "Bound", Fresh("binding", tuple(variables)))
        pattern = TranslationPattern("case", positive, negative, (output,))
        axioms = translate_to_owl(model, [pattern])
        assert axioms == oracle.translate_to_owl(model, [pattern])
        return set(axioms)

    # A variable seen twice in one guard matches equal arguments only.
    assert run((Atom("p", ("X", "X")),)) == {bound(a)}
    # ``_`` in a guard matches any argument and binds nothing.
    assert run((Atom("p", ("X", "_")),)) == {bound(a), bound(b)}
    # A bound variable whose value is ``_`` turns into a wildcard under
    # default negation: q(b, ·) exists, so X = b is suppressed.
    assert run((Atom("p", (b, "Y")),), (Atom("q", (b, "Y")),)) == set()
    assert run((Atom("p", ("X", "Y")),), (Atom("q", ("Y", "X")),)) == {bound(a, a), bound(b, "_")}


# -- the field walk against the per-class ladders (owl_oracle) ------------------

_NS = ("https://ex.org/a/", "https://ex.org/a/b/", "https://ex.org/c#")
_TEMPLATE_VARS = ("X", "Y", "N")
_LEAVES = st.sampled_from(
    _TEMPLATE_VARS + tuple(ns + local for ns in _NS for local in ("", "k", "b/k")) + ("plain",)
)
# A tag that looks like a variable must still not be substituted.
_FRESH = st.builds(
    Fresh, st.sampled_from(("inst", "X")), st.lists(_LEAVES, max_size=2).map(tuple)
)
_ENTITIES = st.one_of(_LEAVES, _FRESH)
_CLASSES = st.recursive(
    _ENTITIES,
    lambda inner: st.one_of(
        st.builds(SomeValuesFrom, _ENTITIES, inner),
        st.builds(AllValuesFrom, _ENTITIES, inner),
        st.builds(ComplementOf, inner),
        st.builds(IntersectionOf, st.lists(inner, max_size=3).map(tuple)),
        st.builds(OneOf, st.lists(_ENTITIES, max_size=3).map(tuple)),
        st.builds(
            QualifiedCardinality, _ENTITIES, st.one_of(st.integers(0, 12), st.just("N")), inner
        ),
    ),
    max_leaves=8,
)
_TEMPLATES = st.one_of(
    st.builds(ClassAssertion, _CLASSES, _ENTITIES),
    st.builds(ObjectPropertyAssertion, _ENTITIES, _ENTITIES, _ENTITIES),
    st.builds(NegativeObjectPropertyAssertion, _ENTITIES, _ENTITIES, _ENTITIES),
    st.builds(SubClassOf, _CLASSES, _CLASSES),
)
_BINDINGS = st.fixed_dictionaries(
    {
        "X": st.sampled_from(_NS + tuple(ns + "x" for ns in _NS)),
        "Y": st.sampled_from(tuple(ns + "b/y" for ns in _NS)),
        # A cardinality slot bound to an integer or to a non-integer.
        "N": st.sampled_from(("0", "3", "12", "three", "3.5", _NS[0] + "n")),
    }
)
# Nested namespaces, and aliases: two names for one namespace tie on
# length, and the earlier one in the table wins.
_PREFIX_TABLES = st.lists(
    st.tuples(st.sampled_from("pqrs"), st.sampled_from(_NS)), unique_by=lambda kv: kv[0], max_size=4
).map(dict)


def _instantiated(instantiate, template, binding):
    try:
        return instantiate(template, binding)
    except PatternError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TEMPLATES, min_size=1, max_size=4), _BINDINGS, _PREFIX_TABLES)
def test_owl_walk_equals_the_per_class_ladders(templates, binding, prefixes):
    axioms = []
    for template in templates:
        assert _template_variables(template) == owl_oracle.template_variables(template)
        axiom = _instantiated(_instantiate, template, binding)
        assert axiom == _instantiated(owl_oracle.instantiate, template, binding)
        if not isinstance(axiom, str):
            axioms.append(axiom)
            assert render_axiom(axiom, prefixes) == owl_oracle.render_axiom(axiom, prefixes)
    assert render_axioms(axioms, prefixes) == owl_oracle.render_axioms(axioms, prefixes)


# -- built-in tables against the constructors they replaced -------------------


def _assert_builtins_match_oracles(schemas, catalog):
    """The pattern family table and the schema table give the items the
    spelled-out constructors gave, in the same order."""
    assert builtin_patterns(schemas, catalog) == translate_oracle.builtin_patterns(
        schemas, catalog
    )
    assert _builtin_schemas(list(schemas), catalog) == translate_oracle.builtin_schemas(
        list(schemas), catalog
    )


@pytest.mark.parametrize("default", [False, True], ids=["fixture-catalog", "default-catalog"])
def test_builtins_match_oracles_on_fixture_schemas(catalog, schemas, default):
    _assert_builtins_match_oracles(schemas, DEFAULT_CATALOG if default else catalog)


def test_builtins_match_oracles_on_benchmark_schemas():
    gen = benchmark_module("gen")
    _assert_builtins_match_oracles(compile_schema(gen.SCHEMAS), load_catalog(gen.CATALOG))


_FIXTURE_CATALOG = load_catalog(fixture_text("catalog.cat"))
_UNIT_CLASSES = (
    SUC + "has-part",
    SUC + "part-of",
    vocab.NAMED_INDIVIDUAL_IDENTIFICATION_UNIT,
    vocab.SOME_INSTANCE_IDENTIFICATION_UNIT,
    vocab.EVERY_INSTANCE_IDENTIFICATION_UNIT,
    vocab.IS_ABOUT_STATEMENT_UNIT,
    vocab.MEMBERSHIP_STATEMENT_UNIT,
)


def _schema(unit_class: str, anchor: str, relation: str) -> StatementSchema:
    return StatementSchema(
        unit_class=unit_class,
        anchor_predicate=anchor,
        templates=(TripleTemplate(Var("s"), anchor, Var("o")),),
        subject_var="s",
        argument_vars=("o",),
        numeric_vars=frozenset({"o"} if relation == QUANTITATIVE else ()),
        relation=relation,
        label_template="{s} relates to {o}",
    )


@st.composite
def _schema_sets(draw):
    """A catalog and schemas over a few unit classes (identification ones
    among them) whose anchors may be the catalog's is-about or child."""
    catalog = draw(st.sampled_from((DEFAULT_CATALOG, _FIXTURE_CATALOG)))
    anchors = (REL + "has-part", REL + "part-of", catalog.is_about, catalog.child)
    schemas = draw(
        st.lists(
            st.builds(
                _schema,
                st.sampled_from(_UNIT_CLASSES),
                st.sampled_from(anchors),
                st.sampled_from((QUALITATIVE, QUANTITATIVE)),
            ),
            max_size=6,
        )
    )
    return schemas, catalog


@settings(max_examples=200, deadline=None)
@given(_schema_sets())
def test_builtins_match_oracles_on_generated_schemas(drawn):
    _assert_builtins_match_oracles(*drawn)
