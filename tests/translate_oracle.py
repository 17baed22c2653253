"""The built-in translation patterns and statement schemas as they were
written before each became a table: `builtin_patterns` spells out the
seven-member qualitative family once per schema, and `builtin_schemas`
(`units._builtin_schemas`) spells out the is-about and membership schemas
one by one. Kept as the oracles of the differential tests in
`test_translate.py`.
"""

from __future__ import annotations

from kgunits import vocab
from kgunits.logic import Atom
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
from kgunits.schemas import QUALITATIVE, StatementSchema, TripleTemplate, Var
from kgunits.store import VocabularyCatalog
from kgunits.translate import WILDCARD, Fresh, TranslationPattern


def builtin_patterns(
    schemas: list[StatementSchema], catalog: VocabularyCatalog
) -> list[TranslationPattern]:
    """The core ontology-design patterns plus one family per qualitative
    schema's anchor relation."""
    U, X, Y, Z, C, D, N, W = "U", "X", "Y", "Z", "C", "D", "N", "W"
    t = catalog.type
    sio = catalog.some_instance_of
    eio = catalog.every_instance_of
    patterns = [
        TranslationPattern(
            "named-individual-identification",
            positive=(
                Atom(vocab.NAMED_INDIVIDUAL_IDENTIFICATION_UNIT, (U,)),
                Atom(vocab.ASSERTS, (U, Y, t, Z)),
            ),
            negative=(Atom(vocab.NEGATION_UNIT, (U,)),),
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
            negative=(
                Atom(vocab.NEGATION_UNIT, (U,)),
                Atom(vocab.CARDINALITY_RESTRICTION_UNIT, (U,)),
            ),
            outputs=(ClassAssertion(C, Fresh("inst", (Y,))),),
        ),
        TranslationPattern(
            "every-instance-identification",
            positive=(
                Atom(vocab.EVERY_INSTANCE_IDENTIFICATION_UNIT, (U,)),
                Atom(vocab.ASSERTS, (U, Y, eio, C)),
            ),
            negative=(Atom(vocab.NEGATION_UNIT, (U,)),),
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
            negative=(Atom(vocab.NEGATION_UNIT, (U,)),),
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
        if schema.unit_class in (
            vocab.NAMED_INDIVIDUAL_IDENTIFICATION_UNIT,
            vocab.SOME_INSTANCE_IDENTIFICATION_UNIT,
            vocab.EVERY_INSTANCE_IDENTIFICATION_UNIT,
        ):
            continue
        K = schema.unit_class
        P = schema.anchor_predicate
        tag = f"rel:{K}"
        patterns.extend(
            [
                TranslationPattern(
                    f"{tag}:assertional",
                    positive=(
                        Atom(K, (U,)),
                        Atom(vocab.ASSERTIONAL_STATEMENT_UNIT, (U,)),
                        Atom(vocab.ASSERTS, (U, X, P, Y)),
                    ),
                    negative=(
                        Atom(vocab.NEGATION_UNIT, (U,)),
                        Atom(sio, (Y, WILDCARD)),
                    ),
                    outputs=(ObjectPropertyAssertion(P, X, Y),),
                ),
                TranslationPattern(
                    f"{tag}:assertional-some-object",
                    positive=(
                        Atom(K, (U,)),
                        Atom(vocab.ASSERTIONAL_STATEMENT_UNIT, (U,)),
                        Atom(vocab.ASSERTS, (U, X, P, Y)),
                        Atom(sio, (Y, D)),
                    ),
                    negative=(Atom(vocab.NEGATION_UNIT, (U,)),),
                    outputs=(ObjectPropertyAssertion(P, X, Fresh("inst", (Y,))),),
                ),
                TranslationPattern(
                    f"{tag}:contingent",
                    positive=(
                        Atom(K, (U,)),
                        Atom(vocab.CONTINGENT_STATEMENT_UNIT, (U,)),
                        Atom(vocab.ASSERTS, (U, X, P, Y)),
                        Atom(sio, (X, C)),
                    ),
                    negative=(
                        Atom(vocab.NEGATION_UNIT, (U,)),
                        Atom(sio, (Y, WILDCARD)),
                    ),
                    outputs=(ObjectPropertyAssertion(P, Fresh("inst", (X,)), Y),),
                ),
                TranslationPattern(
                    f"{tag}:contingent-some-object",
                    positive=(
                        Atom(K, (U,)),
                        Atom(vocab.CONTINGENT_STATEMENT_UNIT, (U,)),
                        Atom(vocab.ASSERTS, (U, X, P, Y)),
                        Atom(sio, (X, C)),
                        Atom(sio, (Y, D)),
                    ),
                    negative=(Atom(vocab.NEGATION_UNIT, (U,)),),
                    outputs=(
                        ObjectPropertyAssertion(
                            P, Fresh("inst", (X,)), Fresh("inst", (Y,))
                        ),
                    ),
                ),
                TranslationPattern(
                    f"{tag}:universal",
                    positive=(
                        Atom(K, (U,)),
                        Atom(vocab.UNIVERSAL_STATEMENT_UNIT, (U,)),
                        Atom(vocab.ASSERTS, (U, X, P, Y)),
                        Atom(eio, (X, C)),
                        Atom(sio, (Y, D)),
                    ),
                    negative=(Atom(vocab.NEGATION_UNIT, (U,)),),
                    outputs=(SubClassOf(C, SomeValuesFrom(P, D)),),
                ),
                TranslationPattern(
                    f"{tag}:negated",
                    positive=(
                        Atom(K, (U,)),
                        Atom(vocab.NEGATED_ASSERTIONAL_STATEMENT_UNIT, (U,)),
                        Atom(vocab.ASSERTS, (U, X, P, Y)),
                    ),
                    negative=(Atom(sio, (Y, WILDCARD)),),
                    outputs=(NegativeObjectPropertyAssertion(P, X, Y),),
                ),
                TranslationPattern(
                    f"{tag}:negated-absence",
                    positive=(
                        Atom(K, (U,)),
                        Atom(vocab.NEGATED_ASSERTIONAL_STATEMENT_UNIT, (U,)),
                        Atom(vocab.ASSERTS, (U, X, P, Y)),
                        Atom(sio, (Y, D)),
                    ),
                    negative=(),
                    outputs=(
                        ClassAssertion(ComplementOf(SomeValuesFrom(P, D)), X),
                    ),
                ),
            ]
        )
    return patterns


def builtin_schemas(
    schemas: list[StatementSchema], catalog: VocabularyCatalog
) -> list[StatementSchema]:
    """Schemas every partition understands without declaration: frame-of-
    reference boundaries (is-about) and collection membership (child)."""
    anchored = {s.anchor_predicate for s in schemas}
    extra = []
    if catalog.is_about not in anchored:
        extra.append(
            StatementSchema(
                unit_class=vocab.IS_ABOUT_STATEMENT_UNIT,
                anchor_predicate=catalog.is_about,
                templates=(TripleTemplate(Var("s"), catalog.is_about, Var("o")),),
                subject_var="s",
                argument_vars=("o",),
                label_template="{s} is about {o}",
            )
        )
    if catalog.child not in anchored:
        extra.append(
            StatementSchema(
                unit_class=vocab.MEMBERSHIP_STATEMENT_UNIT,
                anchor_predicate=catalog.child,
                templates=(TripleTemplate(Var("s"), catalog.child, Var("o")),),
                subject_var="s",
                argument_vars=("o",),
                label_template="{s} has member {o}",
            )
        )
    return schemas + extra
