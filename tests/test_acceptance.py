"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines alongside the pytest verdict.
"""

from __future__ import annotations

import itertools
import random
import re
import time
from fractions import Fraction

from kgunits import vocab
from kgunits.align import LEVEL_STATEMENT, ProcessedGraph, align_graphs
from kgunits.cli import main as cli_main
from kgunits.compound import (
    DATASET,
    ORDERED_LIST,
    SET,
    UNORDERED_LIST,
    build_all,
    make_collection_unit,
)
from kgunits.fdo import (
    ProvenanceRecord,
    UpriMinter,
    apply_access_policy,
    emit_nanopublication,
    load_policy,
    parse_nanopublication,
    redact_dataset,
)
from kgunits.logic import (
    Atom,
    LogicProgram,
    Rule,
    ground_program,
    least_model,
    parse_rules,
    stable_models,
)
from kgunits.owl import render_axiom, render_axioms
from kgunits.rdfio import parse_quads, serialize_quads
from kgunits.schemas import StatementSchema, TripleTemplate, Var, compile_schema
from kgunits.store import Iri, Literal, Quad, QuadDataset
from kgunits.translate import (
    builtin_patterns,
    check_conflicts,
    default_rules,
    facts_from_units,
    translate_to_owl,
)
from kgunits.units import partition

from conftest import FIXTURES, at_level, fixture_dataset, fixture_text, partitioned

EX = "https://example.org/kg/"
REL = "https://example.org/rel/"
SUC = "https://example.org/su-class/"
FMA = "http://purl.org/sig/ont/fma/"
PO = "https://example.org/plant/"

PROV = ProvenanceRecord(
    creator="https://example.org/agents/alice", created="2023-05-01T10:00:00+00:00"
)


def _passed(number: int, name: str):
    print(f"ACCEPTANCE {number} ({name}): PASS")


# -- 1. partition law -----------------------------------------------------------


def _schema_pool() -> list[StatementSchema]:
    pool = []
    for i in range(9):
        pool.append(
            StatementSchema(
                unit_class=f"{SUC}gen-rel-{i}",
                anchor_predicate=f"{REL}gen-p{i}",
                templates=(
                    TripleTemplate(Var("s"), f"{REL}gen-p{i}", Var("o")),
                ),
                subject_var="s",
                argument_vars=("o",),
            )
        )
    pool.append(
        StatementSchema(
            unit_class=f"{SUC}gen-measurement",
            anchor_predicate=f"{REL}gen-value",
            templates=(
                TripleTemplate(Var("q"), f"{REL}gen-value", Var("v")),
                TripleTemplate(Var("q"), f"{REL}gen-unit", Var("u")),
            ),
            subject_var="q",
            argument_vars=("v", "u"),
            numeric_vars=frozenset({"v"}),
            relation="quantitative",
        )
    )
    return pool


def _generate_dataset(rng: random.Random, pool: list[StatementSchema]):
    chosen = rng.sample(pool, rng.randint(3, 10))
    quads: list[Quad] = []
    counter = 0
    for _ in range(rng.randint(20, 150)):
        schema = rng.choice(chosen)
        counter += 1
        subject = f"{EX}gen/s{counter}"
        if schema.relation == "quantitative":
            quads.append(
                Quad(
                    subject,
                    f"{REL}gen-value",
                    Literal(str(rng.randint(0, 99)), datatype=vocab.XSD_INTEGER),
                    EX + f"gen/g{counter}",
                )
            )
            quads.append(
                Quad(subject, f"{REL}gen-unit", Iri(EX + "gen/unit"), EX + f"gen/g{counter}")
            )
        else:
            counter += 1
            quads.append(
                Quad(
                    subject,
                    schema.anchor_predicate,
                    Iri(f"{EX}gen/o{counter}"),
                    EX + "gen/g0",
                )
            )
        if rng.random() < 0.4:
            quads.append(
                Quad(subject, vocab.RDF_TYPE, Iri(EX + "gen/C"), EX + "gen/g0")
            )
    rng.shuffle(quads)
    return QuadDataset(quads), chosen


def test_acceptance_1_partition_law(catalog):
    rng = random.Random(4242)
    pool = _schema_pool()
    started = time.monotonic()
    for run in range(100):
        dataset, chosen = _generate_dataset(rng, pool)
        result = partition(dataset, chosen, catalog, UpriMinter(seed=run))
        data, _ = dataset.split_layers(catalog)
        data_keys = set(data)
        # totality and single-valuedness of the triple -> unit map
        assert set(result.triple_map) == data_keys
        # union of the unit data graphs is the data layer and pairwise
        # intersections are empty: exact set arithmetic
        per_unit: dict[str, set[tuple]] = {}
        for key, upri in result.triple_map.items():
            per_unit.setdefault(upri, set()).add(key)
        lookup = {u.upri: u for u in result.units}
        union: set[tuple] = set()
        for upri, covered in per_unit.items():
            assert not union & covered
            union |= covered
            assert len(covered) == len(lookup[upri].quads)
        assert union == data_keys
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"partition law suite took {elapsed:.2f}s"
    _passed(1, "partition law on 100 generated datasets")


# -- 2. fixture inventories ---------------------------------------------------------


def test_acceptance_2_fixture_inventories(catalog, schemas):
    def units_of(name):
        return partitioned(name, catalog, schemas)

    r = units_of("hand_bare.trig")
    assert len(r.units) == 1
    assert r.units[0].schema_class == SUC + "has-part"

    for name, cls in (
        ("identify_named.trig", vocab.NAMED_INDIVIDUAL_IDENTIFICATION_UNIT),
        ("identify_some.trig", vocab.SOME_INSTANCE_IDENTIFICATION_UNIT),
        ("identify_every.trig", vocab.EVERY_INSTANCE_IDENTIFICATION_UNIT),
    ):
        r = units_of(name)
        assert len(r.units) == 1 and cls in r.units[0].classes, name

    for name, category in (
        ("hand_assertional.trig", vocab.ASSERTIONAL_STATEMENT_UNIT),
        ("hand_contingent.trig", vocab.CONTINGENT_STATEMENT_UNIT),
        ("hand_universal.trig", vocab.UNIVERSAL_STATEMENT_UNIT),
    ):
        r = units_of(name)
        assert len(r.units) == 3, name
        (content,) = [u for u in r.units if not u.is_identification]
        assert category in content.classes, name

    # The typed statement unit merges the reference statement with the
    # identification units of both referenced resources.
    r = units_of("hand_assertional.trig")
    compounds = build_all(r, catalog, UpriMinter(seed=8))
    assert len(compounds.typed) == 1
    assert len(compounds.typed[0].associated) == 3

    # One class item unit gathers the four universal statements that
    # share an every-instance subject.
    r = units_of("antenna_item.trig")
    compounds = build_all(r, catalog, UpriMinter(seed=8))
    assert len(compounds.items) == 1
    item = compounds.items[0]
    assert vocab.CLASS_ITEM_UNIT in item.classes
    universal = [
        u.upri
        for u in r.units
        if not u.is_identification and vocab.UNIVERSAL_STATEMENT_UNIT in u.classes
    ]
    assert len(universal) == 4 and set(universal) <= set(item.associated)

    # Three frames of reference separated by two is-about boundaries.
    r = units_of("publication_frames.trig")
    compounds = build_all(r, catalog, UpriMinter(seed=8))
    assert len(compounds.contexts.units) == 3
    assert len(compounds.contexts.boundaries) == 2

    # Negation, absence, negated relation, cardinality, and
    # disagreement inventories.
    r = units_of("fruit_negation.trig")
    assert len(r.units) == 2
    assert sum(1 for u in r.units if vocab.NEGATION_UNIT in u.classes) == 1

    r = units_of("head_absence.trig")
    assert len(r.units) == 2
    assert sum(1 for u in r.units if vocab.NEGATION_UNIT in u.classes) == 1

    r = units_of("fruit_negated_relation.trig")
    assert len(r.units) == 3
    assert sum(1 for u in r.units if vocab.NEGATION_UNIT in u.classes) == 1

    r = units_of("head_cardinality.trig")
    assert len(r.units) == 3
    assert (
        sum(1 for u in r.units if vocab.CARDINALITY_RESTRICTION_UNIT in u.classes) == 1
    )

    r = units_of("fruit_disagreement.trig")
    assert len(r.units) == 2
    assert sum(1 for u in r.units if vocab.DISAGREEMENT_UNIT in u.classes) == 1
    model = _stable_model(r, catalog)
    report = check_conflicts(model, r.units)
    assert len(report.disputes) == 1

    _passed(2, "curated fixtures reproduce their expected inventories")


# -- 3. stable-model oracle equivalence ----------------------------------------------


def _oracle_stable_models(program: LogicProgram) -> list[frozenset[Atom]]:
    atoms = sorted({a for r in program.rules for a in (r.head, *r.positive, *r.negative)})
    out = []
    for bits in itertools.product((False, True), repeat=len(atoms)):
        candidate = frozenset(a for a, bit in zip(atoms, bits) if bit)
        reduct = tuple(
            Rule(r.head, r.positive)
            for r in program.rules
            if not any(n in candidate for n in r.negative)
        )
        if least_model(reduct) == candidate and not any(
            a.complement() in candidate for a in candidate if a.negated
        ):
            out.append(candidate)
    out.sort(key=sorted)
    return out


def test_acceptance_3_stable_model_oracle():
    rng = random.Random(777)
    started = time.monotonic()
    for _ in range(200):
        n = rng.randint(2, 12)
        atoms = [Atom(f"p{i}") for i in range(n)]
        rules = []
        for _ in range(rng.randint(1, 2 * n)):
            head = rng.choice(atoms)
            pool = [a for a in atoms if a != head]
            rng.shuffle(pool)
            n_pos = rng.randint(0, min(2, len(pool)))
            n_neg = rng.randint(0, min(2, len(pool) - n_pos))
            rules.append(
                Rule(head, tuple(pool[:n_pos]), tuple(pool[n_pos : n_pos + n_neg]))
            )
        program = LogicProgram(tuple(rules))
        assert len({a for r in rules for a in (r.head, *r.positive, *r.negative)}) <= 12
        assert stable_models(program, bound=32) == _oracle_stable_models(program)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"stable-model suite took {elapsed:.2f}s"
    _passed(3, "solver equals exhaustive reduct oracle on 200 programs")


# -- 4. non-monotonicity witness -------------------------------------------------------


def test_acceptance_4_non_monotonicity_witness():
    rules = "has-part(X, thumb) :- instance-of(X, hand), not lacks-part(X, thumb).\n"
    base = parse_rules(rules + "instance-of(x, hand).")
    inferred = Atom("has-part", ("x", "thumb"))
    (model,) = stable_models(ground_program(base, []))
    assert inferred in model
    extended = parse_rules(rules + "instance-of(x, hand).\nlacks-part(x, thumb).")
    (model,) = stable_models(ground_program(extended, []))
    assert inferred not in model
    _passed(4, "default thumb inference retracted by contrary fact")


# -- 5. OWL translation conformance -----------------------------------------------------


def _stable_model(result, catalog):
    facts = facts_from_units(result, catalog)
    models = stable_models(ground_program(default_rules(catalog), facts), bound=4096)
    assert len(models) == 1
    return models[0]


def _normalized_axioms(name, catalog, schemas) -> list[str]:
    result = partitioned(name, catalog, schemas)
    model = _stable_model(result, catalog)
    axioms = translate_to_owl(model, builtin_patterns(schemas, catalog))
    rendered = render_axioms(axioms, dict(catalog.prefixes)).splitlines()
    fresh: dict[str, str] = {}

    def sub(match: re.Match) -> str:
        token = match.group(0)
        fresh.setdefault(token, f"fresh{len(fresh) + 1}")
        return fresh[token]

    return [re.sub(r"sk:[A-Za-z-]+:[0-9a-f]+", sub, line) for line in rendered]


def test_acceptance_5_owl_translation_conformance(catalog, schemas):
    # (a) universal hand/thumb
    lines = _normalized_axioms("hand_universal.trig", catalog, schemas)
    assert "SubClassOf(fma:Hand, SomeValuesFrom(rel:has-part, fma:Thumb))" in lines

    # (b) cardinality pair sharing one fresh individual
    lines = _normalized_axioms("head_cardinality.trig", catalog, schemas)
    assert (
        "ClassAssertion(IntersectionOf(su:Collection, "
        "QualifiedCardinality(su:hasMember, 3, uberon:Eye)), fresh1)" in lines
    )
    assert "ObjectPropertyAssertion(rel:part-of, ex:headX, fresh1)" in lines

    # (c) complement assertion with plain-pattern suppression
    lines = _normalized_axioms("fruit_negation.trig", catalog, schemas)
    assert "ClassAssertion(ComplementOf(po:PomeFruit), ex:fruitX)" in lines
    assert "ClassAssertion(po:PomeFruit, ex:fruitX)" not in lines
    assert "ClassAssertion(po:Fruit, ex:fruitX)" in lines

    # (d) the three-axiom collection encoding of an every-instance resource
    lines = _normalized_axioms("identify_every.trig", catalog, schemas)
    assert lines == [
        "ClassAssertion(su:Collection, ex:everyHand)",
        "SubClassOf(OneOf(ex:everyHand), AllValuesFrom(su:hasMember, fma:Hand))",
        "SubClassOf(fma:Hand, SomeValuesFrom(su:memberOf, OneOf(ex:everyHand)))",
    ]
    _passed(5, "four worked translations match token-for-token")


# -- 6. nanopublication round-trip --------------------------------------------------------


def test_acceptance_6_nanopub_round_trip(catalog, schemas):
    seen_kinds = set()
    for name in ("hand_assertional.trig", "publication_frames.trig", "weight.trig", "head_cardinality.trig"):
        result = partitioned(name, catalog, schemas)
        compounds = build_all(result, catalog, UpriMinter(seed=77))
        units = list(result.units) + list(compounds.all_units())
        known = {u.upri for u in units}
        ds_unit, _ = make_collection_unit(
            DATASET, sorted(known)[:3], catalog, UpriMinter(seed=78), known_units=known
        )
        ol_unit, memberships = make_collection_unit(
            ORDERED_LIST, [EX + "a", EX + "b"], catalog, UpriMinter(seed=79)
        )
        set_unit, set_members = make_collection_unit(
            SET, [EX + "a", EX + "b"], catalog, UpriMinter(seed=80)
        )
        ul_unit, ul_members = make_collection_unit(
            UNORDERED_LIST, [EX + "a", EX + "a"], catalog, UpriMinter(seed=81)
        )
        units += (
            [ds_unit, ol_unit, set_unit, ul_unit]
            + memberships
            + set_members
            + ul_members
        )
        for unit in units:
            kind = getattr(unit, "kind", "statement")
            seen_kinds.add(kind)
            np = emit_nanopublication(unit, PROV, PROV, catalog)
            text = serialize_quads(np, "trig", dict(catalog.prefixes))
            parsed = parse_nanopublication(parse_quads(text, "trig"), catalog)
            assert parsed.unit_upri == unit.upri
            assert set(parsed.assertion) == set(getattr(unit, "quads", ()) or ())
            assert sorted(parsed.associations) == sorted(
                getattr(unit, "associated", ()) or ()
            )
            assert parsed.provenance == PROV
            assert parsed.pubinfo == PROV
    assert {
        "statement",
        "typed-statement",
        "quality-measurement",
        "item",
        "item-group",
        "granularity-tree",
        "granular-item-group",
        "context",
        "dataset",
        "ordered-list",
        "unordered-list",
        "set",
    } <= seen_kinds
    _passed(6, "nanopub parse/emit identity across every unit kind")


# -- 7. alignment identity and renaming invariance -------------------------------------------


def test_acceptance_7_alignment(catalog, schemas):
    dataset = fixture_dataset("publication_frames.trig")

    def process(ds, seed):
        part = partition(ds, schemas, catalog, UpriMinter(seed=seed))
        comps = build_all(part, catalog, UpriMinter(seed=seed + 1))
        return ProcessedGraph(part, comps, catalog)

    graph = process(dataset, 300)
    self_report = align_graphs(graph, graph)
    assert self_report.unmatched_left == () and self_report.unmatched_right == ()
    assert all(c.score == Fraction(1) for c in self_report.correspondences)

    classes = {
        q.object.value
        for q in dataset
        if q.predicate in catalog.affiliations and isinstance(q.object, Iri)
    }

    def rename(iri):
        if iri in classes or not iri.startswith(EX):
            return iri
        return iri.replace(EX, EX + "renamed/")

    renamed = QuadDataset(
        Quad(
            rename(q.subject),
            q.predicate,
            Iri(rename(q.object.value)) if isinstance(q.object, Iri) else q.object,
            q.graph,
        )
        for q in dataset
    )
    other = process(renamed, 400)
    report = align_graphs(graph, other)
    statements = at_level(report, LEVEL_STATEMENT)
    assert len(statements) == len(graph.partition.units)
    assert all(c.score == Fraction(1) for c in statements)
    _passed(7, "self-alignment all-1 and renaming-invariant statement matching")


# -- 8. access policy ---------------------------------------------------------------------


def test_acceptance_8_access_policy(catalog, schemas):
    result = partitioned("endangered.trig", catalog, schemas)
    policy = load_policy(fixture_text("endangered.pol"))
    decision = apply_access_policy(
        list(result.units), policy, result.dataset, catalog, {}
    )
    location_units = {
        u.upri
        for u in result.units
        if u.schema_class == SUC + "found-at" and u.subject == EX + "speciesX"
    }
    assert set(decision.hidden) == location_units
    assert len(decision.hidden) == 2
    assert len(decision.visible) == len(result.units) - 2
    redacted = redact_dataset(result.dataset, decision.hidden, catalog)
    hidden_quads = {
        q for u in result.units if u.upri in location_units for q in u.quads
    }
    text = serialize_quads(redacted, "trig", dict(catalog.prefixes))
    reparsed = parse_quads(text, "trig")
    assert not hidden_quads & set(reparsed)
    _passed(8, "endangered-species policy hides exactly the location units")


# -- 9. pipeline determinism -----------------------------------------------------------------


def test_acceptance_9_pipeline_determinism(tmp_path, capsys):
    args = [
        "pipeline",
        str(FIXTURES / "publication_frames.trig"),
        "--schemas",
        str(FIXTURES / "schemas.sus"),
        "--catalog",
        str(FIXTURES / "catalog.cat"),
        "--seed",
        "99",
    ]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and names1
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    _passed(9, "seeded pipeline runs are byte-identical")
