from __future__ import annotations

import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kgunits import cli, fdo, vocab
from kgunits.compound import CompoundUnit, build_all, compound_quads, reconstruct_compounds
from kgunits.errors import (
    CollectionError,
    MintError,
    NanopubError,
    PolicyError,
    ProvenanceError,
)
from kgunits.fdo import (
    AccessPolicy,
    PolicyRule,
    ProvenanceRecord,
    UpriMinter,
    apply_access_policy,
    emit_nanopublication,
    load_policy,
    mint_upri,
    parse_nanopublication,
    redact_dataset,
    sha256_hex,
)
from kgunits.rdfio import parse_quads, serialize_quads
from kgunits.store import Iri, Literal, Quad, QuadDataset
from kgunits.translate import skolem
from kgunits.units import StatementUnit

import fdo_oracle
from conftest import FIXTURES, fixture_text, partitioned

EX = "https://example.org/kg/"
SUC = "https://example.org/su-class/"

PROV = ProvenanceRecord(creator="https://example.org/agents/alice", created="2023-05-01T10:00:00+00:00")
PUB = ProvenanceRecord(creator="https://example.org/agents/alice", created="2023-05-02T10:00:00+00:00", title="demo")


@given(st.text())
@example("")
@example("Zürich \x1f 東京 \U0001f600")
def test_sha256_hex_is_hashlib_sha256_of_the_utf8_text(text):
    assert sha256_hex(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_seeded_digests_keep_their_values():
    """A seed, a run tag and a skolem name are SHA-256 digests; these values
    are in every seeded artifact, so they must not change with the digest's
    implementation."""
    assert cli.hash_seed(3, "partition") == 174265183814932
    assert UpriMinter(seed=3).mint() == "https://data.kgunits.org/u4e07408562-00001"
    assert skolem("inst", EX + "someHand") == "sk:inst:0f4b98e845c9"


def test_mint_unseeded_unique():
    minter = UpriMinter("https://example.org/mint/")
    assert minter() != minter()


def test_mint_seeded_deterministic_sequence():
    first = UpriMinter("https://example.org/mint/", seed=42)
    second = UpriMinter("https://example.org/mint/", seed=42)
    a = [first() for _ in range(5)]
    b = [second() for _ in range(5)]
    assert a == b
    assert len(set(a)) == 5


def test_mint_ten_thousand_no_collisions():
    minter = UpriMinter("https://example.org/mint/", seed=1)
    assert len({minter() for _ in range(10000)}) == 10000
    minter = UpriMinter("https://example.org/mint/")
    assert len({minter() for _ in range(10000)}) == 10000


def test_mint_malformed_namespace():
    with pytest.raises(MintError):
        mint_upri("not a namespace")


def test_provenance_validation():
    with pytest.raises(ProvenanceError):
        ProvenanceRecord(creator="", created="2023-01-01T00:00:00+00:00").validate()
    with pytest.raises(ProvenanceError):
        ProvenanceRecord(creator="a", created="").validate()
    with pytest.raises(ProvenanceError):
        ProvenanceRecord(creator="a", created="2999-01-01T00:00:00+00:00").validate()
    ProvenanceRecord(creator="a", created="2020-01-01T00:00:00+00:00").validate()


def test_statement_unit_nanopub_round_trip(catalog, schemas):
    result = partitioned("hand_bare.trig", catalog, schemas)
    (unit,) = result.units
    dataset = emit_nanopublication(unit, PROV, PUB, catalog)
    # structural invariant: four graphs, head links the other three
    graphs = set(dataset.graph_names())
    assert len(graphs) == 4
    assert [q.object.value for q in dataset if q.predicate == vocab.HAS_ASSERTION] == [unit.upri]
    parsed = parse_nanopublication(dataset, catalog)
    assert parsed.unit_upri == unit.upri
    assert set(parsed.assertion) == set(unit.quads)
    assert parsed.provenance == PROV
    assert parsed.pubinfo == PUB
    assert parsed.schema_upri == unit.schema_class


def test_compound_unit_nanopub_round_trip(catalog, schemas):
    result = partitioned("weight.trig", catalog, schemas)
    compounds = build_all(result, catalog, UpriMinter(seed=5))
    compound = compounds.quality[0]
    np = emit_nanopublication(compound, PROV, PUB, catalog)
    assert np.graph(compound.upri) == ()  # compound assertion graph stays empty
    parsed = parse_nanopublication(np, catalog)
    assert parsed.unit_upri == compound.upri
    assert set(parsed.associations) == set(compound.associated)
    assert parsed.subject == compound.subject
    assert parsed.provenance == PROV


def test_nanopub_round_trip_survives_serialization(catalog, schemas):
    result = partitioned("hand_assertional.trig", catalog, schemas)
    unit = result.units[0]
    np = emit_nanopublication(unit, PROV, PUB, catalog)
    text = serialize_quads(np, "trig", dict(catalog.prefixes))
    parsed = parse_nanopublication(parse_quads(text, "trig"), catalog)
    assert set(parsed.assertion) == set(unit.quads)


def test_nanopub_missing_provenance_graph_rejected(catalog, schemas):
    result = partitioned("hand_bare.trig", catalog, schemas)
    np = emit_nanopublication(result.units[0], PROV, PUB, catalog)
    broken = QuadDataset([q for q in np if not q.graph.endswith("/provenance")])
    with pytest.raises(NanopubError):
        parse_nanopublication(broken, catalog)


def test_nanopub_dangling_head_reference_rejected(catalog, schemas):
    result = partitioned("hand_bare.trig", catalog, schemas)
    np = emit_nanopublication(result.units[0], PROV, PUB, catalog)
    quads = []
    for q in np:
        if q.predicate == vocab.HAS_PROVENANCE:
            q = Quad(q.subject, q.predicate, Iri(EX + "nowhere"), q.graph)
        quads.append(q)
    with pytest.raises(NanopubError):
        parse_nanopublication(QuadDataset(quads), catalog)


def test_nanopub_requires_mandatory_provenance(catalog, schemas):
    result = partitioned("hand_bare.trig", catalog, schemas)
    bad = ProvenanceRecord(creator="", created="2023-01-01T00:00:00+00:00")
    with pytest.raises(ProvenanceError):
        emit_nanopublication(result.units[0], bad, PUB, catalog)


@pytest.mark.parametrize("predicate", ["type", "has_semantic_unit_subject"])
def test_nanopub_head_declaring_two_units_rejected(catalog, schemas, predicate):
    result = partitioned("hand_bare.trig", catalog, schemas)
    np = emit_nanopublication(result.units[0], PROV, PUB, catalog)
    head_g = result.units[0].upri + "/np/head"
    extra = Quad(EX + "otherUnit", getattr(catalog, predicate), Iri(EX + "Thing"), head_g)
    with pytest.raises(NanopubError, match="declares 2 units"):
        parse_nanopublication(QuadDataset([*np, extra]), catalog)


# -- the record and nanopub readers against the oracles -------------------------


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.trig")))
def test_parse_nanopublication_equals_the_oracle_on_fixtures(catalog, schemas, fixture):
    result = partitioned(fixture, catalog, schemas)
    units = [*result.units, *build_all(result, catalog, UpriMinter(seed=5)).all_units()]
    assert units
    for unit in units:
        dataset = emit_nanopublication(unit, PROV, PUB, catalog)
        parsed = parse_nanopublication(dataset, catalog)
        assert parsed == fdo_oracle.parse_nanopublication(dataset, catalog)
        assert parsed.schema_upri == getattr(unit, "schema_class", None)


# Field values: absolute IRIs (an agent is then written as an IRI) and other text.
_VALUES = st.sampled_from([EX + "alice", "urn:agent:bob"]) | st.text(min_size=1)
_OPTIONAL = st.none() | _VALUES
_FIELD_PREDICATES = [
    vocab.META_CREATOR, vocab.META_CREATED, vocab.META_APPLICATION, vocab.META_TITLE,
    vocab.META_CONTRIBUTOR, vocab.META_UPDATED, vocab.META_SCHEMA,
]


def _in_key_order(agents: list[str]) -> tuple[str, ...]:
    """Contributors as the reader gives them back: in the key order of their quads."""
    return tuple(sorted(agents, key=fdo_oracle._agent_term))


@given(
    st.builds(
        ProvenanceRecord,
        creator=_VALUES,
        created=_VALUES,
        application=_OPTIONAL,
        title=_OPTIONAL,
        contributors=st.lists(_VALUES, max_size=3).map(_in_key_order),
        last_updated=_OPTIONAL,
    )
)
def test_record_quads_equal_the_oracle_and_read_back(record):
    quads = fdo._record_quads(record, EX + "unit", EX + "unit/np/provenance")
    assert quads == fdo_oracle._record_quads(record, EX + "unit", EX + "unit/np/provenance")
    assert fdo._record_from_quads(quads) == record


@given(st.lists(st.tuples(st.sampled_from(_FIELD_PREDICATES), _VALUES), max_size=8))
def test_record_reader_equals_the_oracle_on_any_field_quads(pairs):
    """A field given twice keeps its last value in key order; other predicates are skipped."""
    quads = [Quad(EX + "np", p, fdo_oracle._agent_term(v), EX + "np/pubinfo") for p, v in pairs]
    assert fdo._record_from_quads(quads) == fdo_oracle._record_from_quads(quads)


# -- the nanopublication writer against its oracle ------------------------------


def _old_emit(unit, prov, pubinfo, catalog) -> QuadDataset:
    """The oracle's four sorted graphs, as one dataset."""
    old = fdo_oracle.emit_nanopublication(unit, prov, pubinfo, catalog)
    return QuadDataset(old.head + old.assertion + old.provenance + old.pubinfo)


def _emit_outcome(emit, unit, prov, pubinfo, catalog):
    """The dataset ``emit`` gives, or the type of the error it raised."""
    try:
        return emit(unit, prov, pubinfo, catalog)
    except NanopubError as exc:
        return type(exc)


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.trig")))
def test_emit_nanopublication_equals_the_oracle_on_fixtures(catalog, schemas, fixture):
    """Every statement unit, built compound and compound read back from the
    compound dataset (what the ``nanopub`` stage emits) gives the oracle's quads."""
    result = partitioned(fixture, catalog, schemas)
    compounds = list(build_all(result, catalog, UpriMinter(seed=5)).all_units())
    merged = result.dataset.merge(compound_quads(compounds, catalog))
    units = [*result.units, *compounds, *reconstruct_compounds(merged, catalog)]
    for unit in units:
        assert emit_nanopublication(unit, PROV, PUB, catalog) == _old_emit(unit, PROV, PUB, catalog)


_UPRIS = st.sampled_from([EX + "u1", EX + "u2/", "urn:unit:3"])
_IRIS = st.sampled_from([EX + "a", EX + "b", SUC + "has-part", "urn:x:c"])
_TERMS = _IRIS.map(Iri) | st.text(max_size=4).map(Literal)
_QUADS = st.lists(st.builds(Quad, _IRIS, _IRIS, _TERMS, _IRIS), max_size=4).map(tuple)
_CLASSES = st.frozensets(_IRIS, max_size=2)
_UNITS = st.builds(
    StatementUnit, upri=_UPRIS, classes=_CLASSES, subject=_IRIS, objects=st.just(()),
    quads=_QUADS, schema_class=st.none() | _IRIS,
) | st.builds(
    CompoundUnit, upri=_UPRIS, kind=st.just("typed-statement"), classes=_CLASSES,
    associated=st.lists(_UPRIS, max_size=3).map(tuple), subject=st.none() | _IRIS,
) | st.builds(  # any unit with associations is packaged as a compound, quads or not
    SimpleNamespace, upri=_UPRIS, classes=_CLASSES, subject=_IRIS, quads=_QUADS,
    associated=st.lists(_UPRIS, max_size=3).map(tuple),
)
_STAMPS = st.sampled_from(["2023-05-01T10:00:00+00:00", "2020-01-01T00:00:00Z", "2020-01-01"])
_RECORDS = st.builds(
    ProvenanceRecord,
    creator=_VALUES,
    created=_STAMPS,
    application=_OPTIONAL,
    title=_OPTIONAL,
    contributors=st.lists(_VALUES, max_size=3).map(tuple),
    last_updated=st.none() | _STAMPS,
)


@given(_UNITS, _RECORDS, _RECORDS)
def test_emit_nanopublication_equals_the_oracle_on_generated_units(catalog, unit, prov, pubinfo):
    """Statement units with and without a schema class, compounds with 0-3
    associations, records with optional fields and 0-3 contributors: the same
    dataset, or the same error for a unit with neither quads nor associations."""
    new = _emit_outcome(emit_nanopublication, unit, prov, pubinfo, catalog)
    assert new == _emit_outcome(_old_emit, unit, prov, pubinfo, catalog)


_UNIT = StatementUnit(EX + "u", frozenset(), EX + "s", (), (Quad(EX + "s", EX + "p", Iri(EX + "o"), EX + "g"),))


@pytest.mark.parametrize("unit, prov, pubinfo, error", [
    (CompoundUnit(EX + "u", "typed-statement", frozenset(), ()), PROV, PUB, NanopubError),
    (StatementUnit(EX + "u", frozenset(), EX + "s", (), ()), PROV, PUB, NanopubError),
    (_UNIT, ProvenanceRecord(creator="", created=PROV.created), PUB, ProvenanceError),
    (_UNIT, PROV, ProvenanceRecord(creator=PUB.creator, created="yesterday"), ProvenanceError),
    (_UNIT, PROV, ProvenanceRecord(PUB.creator, PUB.created, last_updated="2999-01-01"), ProvenanceError),
])
def test_emit_nanopublication_raises_as_the_oracle_does(catalog, unit, prov, pubinfo, error):
    for emit in (emit_nanopublication, fdo_oracle.emit_nanopublication):
        with pytest.raises(error):
            emit(unit, prov, pubinfo, catalog)


# -- access policies ------------------------------------------------------------


def _endangered(catalog, schemas):
    result = partitioned("endangered.trig", catalog, schemas)
    policy = load_policy(fixture_text("endangered.pol"))
    return result, policy


def test_policy_parse_and_shape():
    policy = load_policy(fixture_text("endangered.pol"))
    assert len(policy.rules) == 2
    assert policy.rules[0].effect == "deny"
    assert policy.rules[0].unit_class == SUC + "found-at"
    assert policy.rules[1] == PolicyRule("*", "always", "allow")


def test_policy_malformed_rule_rejected():
    with pytest.raises(PolicyError):
        load_policy("deny stuff whenever")


def test_endangered_species_locations_hidden(catalog, schemas):
    result, policy = _endangered(catalog, schemas)
    decision = apply_access_policy(
        list(result.units), policy, result.dataset, catalog, {}
    )
    location_units = [u for u in result.units if u.schema_class == SUC + "found-at"]
    endangered = [u.upri for u in location_units if u.subject == EX + "speciesX"]
    open_units = [u.upri for u in location_units if u.subject == EX + "speciesY"]
    assert sorted(decision.hidden) == sorted(endangered)
    assert len(decision.hidden) == 2
    visible_upris = {u.upri for u in decision.visible}
    assert set(open_units) <= visible_upris
    # every other unit about species X stays visible
    other = [
        u.upri
        for u in result.units
        if u.subject == EX + "speciesX" and u.upri not in endangered
    ]
    assert set(other) <= visible_upris


def test_empty_policy_is_identity(catalog, schemas):
    result = partitioned("endangered.trig", catalog, schemas)
    decision = apply_access_policy(
        list(result.units), AccessPolicy(), result.dataset, catalog, {}
    )
    assert decision.hidden == ()
    assert len(decision.visible) == len(result.units)


def test_policy_monotonicity(catalog, schemas):
    result, policy = _endangered(catalog, schemas)
    baseline = apply_access_policy(
        list(result.units), AccessPolicy(), result.dataset, catalog, {}
    )
    restricted = apply_access_policy(
        list(result.units), policy, result.dataset, catalog, {}
    )
    more = AccessPolicy(
        rules=(PolicyRule(SUC + "has-part", "always", "deny"),) + policy.rules
    )
    harder = apply_access_policy(list(result.units), more, result.dataset, catalog, {})
    assert len(harder.visible) <= len(restricted.visible) <= len(baseline.visible)


def test_requester_condition(catalog, schemas):
    result = partitioned("endangered.trig", catalog, schemas)
    policy = AccessPolicy(
        rules=(
            PolicyRule("*", "requester", "deny", "role", "guest"),
            PolicyRule("*", "always", "allow"),
        )
    )
    guest = apply_access_policy(
        list(result.units), policy, result.dataset, catalog, {"role": "guest"}
    )
    staff = apply_access_policy(
        list(result.units), policy, result.dataset, catalog, {"role": "staff"}
    )
    assert guest.visible == ()
    assert len(staff.visible) == len(result.units)


def test_policy_rule_condition_is_a_scope():
    # The condition string of a hand-made rule is checked, so a rule in the
    # old "requester.role=guest" form cannot load and silently never match.
    with pytest.raises(PolicyError, match="unknown policy condition"):
        PolicyRule("*", "requester.role=guest", "deny")
    rule = load_policy("deny * when requester.role = <https://example.org/Guest>").rules[0]
    assert rule == PolicyRule("*", "requester", "deny", "role", "https://example.org/Guest")


def test_redaction_removes_hidden_data_graphs(catalog, schemas):
    result, policy = _endangered(catalog, schemas)
    decision = apply_access_policy(
        list(result.units), policy, result.dataset, catalog, {}
    )
    redacted = redact_dataset(result.dataset, decision.hidden, catalog)
    hidden_lookup = {u.upri: u for u in result.units if u.upri in set(decision.hidden)}
    remaining_graphs = {x.graph for x in redacted}
    hidden_quads = set()
    for unit in hidden_lookup.values():
        for q in unit.quads:
            assert q.graph not in remaining_graphs
            hidden_quads.add(q)
    assert not hidden_quads & set(redacted)
    # no occurrence data for the endangered species survives, while the
    # open species' location does
    found_at = "https://example.org/rel/found-at"
    assert not any(
        q.predicate == found_at and q.subject == EX + "speciesX" for q in redacted
    )
    assert any(
        q.predicate == found_at and q.subject == EX + "speciesY" for q in redacted
    )


def test_opaque_references_kept(catalog, schemas):
    result, policy = _endangered(catalog, schemas)
    compounds = build_all(result, catalog, UpriMinter(seed=5))
    units = list(result.units) + list(compounds.all_units())
    decision = apply_access_policy(units, policy, result.dataset, catalog, {})
    assert decision.opaque_references
    hidden = set(decision.hidden)
    for compound_upri, member in decision.opaque_references:
        assert member in hidden
