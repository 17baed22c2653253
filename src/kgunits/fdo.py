"""FAIR-digital-object plumbing: identifier minting, provenance records,
nanopublication packaging, and access-policy filtering.

A nanopublication wraps one semantic unit in four named graphs: the head
graph wires the other three together, the assertion graph is the unit's
data graph (empty for compound units, whose head carries the associations
instead), and the provenance/publication-info graphs serialize the two
metadata records.
"""

from __future__ import annotations

import re

from . import vocab
from ._record import record
from .errors import MintError, NanopubError, PolicyError, ProvenanceError
from .store import (
    IRI_TOKEN,
    Iri,
    Literal,
    Quad,
    QuadDataset,
    VocabularyCatalog,
    declaration_quads,
    is_absolute_iri,
    local_name,
    read_declarations,
    setting_lines,
)

try:  # the interpreter's own SHA-256: hashlib loads OpenSSL's libcrypto (4 ms, 3.6 MB)
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256


def sha256_hex(text: str) -> str:
    """The hex SHA-256 digest of ``text`` in UTF-8: seeds, run tags, skolems."""
    return _sha256(text.encode("utf-8")).hexdigest()


class UpriMinter:
    """Mints unique identifiers under a namespace.

    Unseeded minters derive identifiers from random UUIDs; a seeded minter
    produces the same sequence on every run, which is what makes pipeline
    outputs reproducible. The counter is the only mutable state here.
    """

    def __init__(self, namespace: str = vocab.DEFAULT_MINT_NS, seed: int | None = None):
        if not is_absolute_iri(namespace):
            raise MintError(f"namespace is not an absolute IRI: {namespace}")
        self.namespace = namespace if namespace.endswith(("/", "#", ":")) else namespace + "/"
        self.seed = seed
        self._count = 0
        self._run_tag = None if seed is None else sha256_hex(str(seed))[:10]

    def __call__(self) -> str:
        return self.mint()

    def mint(self) -> str:
        self._count += 1
        if self._run_tag is not None:
            return f"{self.namespace}u{self._run_tag}-{self._count:05d}"
        import uuid  # loads platform; a seeded run does without both

        return f"{self.namespace}u{uuid.uuid4().hex}"


def mint_upri(namespace: str, seed: int | None = None) -> str:
    """One-shot mint; prefer holding a :class:`UpriMinter` for sequences."""
    return UpriMinter(namespace, seed).mint()


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


@record
class ProvenanceRecord:
    creator: str
    created: str  # ISO-8601 timestamp
    application: str | None = None
    title: str | None = None
    contributors: tuple[str, ...] = ()
    last_updated: str | None = None

    def validate(self, now: datetime | None = None):
        if not self.creator:
            raise ProvenanceError("creator is mandatory")
        if not self.created:
            raise ProvenanceError("creation date is mandatory")
        from datetime import datetime, timezone  # only where a time is stamped or checked

        reference = now or datetime.now(timezone.utc)
        for label, value in (("created", self.created), ("last_updated", self.last_updated)):
            if value is None:
                continue
            stamp = _parse_timestamp(value)
            if stamp > reference:
                raise ProvenanceError(f"{label} date {value} lies in the future")


def _parse_timestamp(value: str) -> datetime:
    from datetime import datetime, timezone

    try:
        stamp = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ProvenanceError(f"not an ISO-8601 timestamp: {value}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp


def _agent_term(value: str):
    return Iri(value) if is_absolute_iri(value) else Literal(value)


def _timestamp_term(value: str) -> Literal:
    return Literal(value, datatype=vocab.XSD_DATETIME)


# Each ProvenanceRecord field, its predicate and the term its value is
# written as: a set field gives one quad, ``contributors`` one per value.
_RECORD_FIELDS = (
    ("creator", vocab.META_CREATOR, _agent_term),
    ("created", vocab.META_CREATED, _timestamp_term),
    ("application", vocab.META_APPLICATION, Literal),
    ("title", vocab.META_TITLE, Literal),
    ("contributors", vocab.META_CONTRIBUTOR, _agent_term),
    ("last_updated", vocab.META_UPDATED, _timestamp_term),
)
_FIELD_OF = {predicate: name for name, predicate, _ in _RECORD_FIELDS}


def _record_quads(record: ProvenanceRecord, about: str, graph: str) -> list[Quad]:
    quads = []
    for name, predicate, term in _RECORD_FIELDS:
        value = getattr(record, name)
        values = value if name == "contributors" else (value,) if value else ()
        quads += (Quad(about, predicate, term(v), graph) for v in values)
    return quads


def _record_from_quads(quads: list[Quad]) -> ProvenanceRecord:
    """The record ``_record_quads`` wrote: a single-valued field keeps its
    last value in canonical order, and quads of other predicates are skipped."""
    fields = {"creator": "", "created": "", "contributors": ()}
    for q in sorted(quads):
        if name := _FIELD_OF.get(q.predicate):
            value = str(q.object)
            fields[name] = (*fields[name], value) if name == "contributors" else value
    return ProvenanceRecord(**fields)


# ---------------------------------------------------------------------------
# Nanopublications
# ---------------------------------------------------------------------------


def emit_nanopublication(
    unit,
    prov: ProvenanceRecord,
    pubinfo: ProvenanceRecord,
    catalog: VocabularyCatalog,
) -> QuadDataset:
    """Package one semantic unit (statement or compound) as a nanopub: the
    dataset of its head, assertion, provenance and publication-info graphs.

    Graph names are derived from the unit identifier, so emission is
    deterministic. The assertion graph of a statement unit is its data
    graph; compound units keep an empty assertion graph and carry their
    associations in the head. The publication info links the unit's
    statement schema, if it has one.
    """
    prov.validate()
    pubinfo.validate()
    unit_upri = unit.upri
    np_upri = unit_upri.rstrip("/") + "/np"
    head_g = np_upri + "/head"
    prov_g = np_upri + "/provenance"
    pub_g = np_upri + "/pubinfo"

    data_quads = tuple(getattr(unit, "quads", ()) or ())
    associated = tuple(getattr(unit, "associated", ()) or ())
    if not data_quads and not associated:
        raise NanopubError(
            f"unit {unit_upri} has neither a data graph nor associated units"
        )

    quads = [
        Quad(np_upri, catalog.type, Iri(vocab.NANOPUBLICATION), head_g),
        Quad(np_upri, vocab.HAS_ASSERTION, Iri(unit_upri), head_g),
        Quad(np_upri, vocab.HAS_PROVENANCE, Iri(prov_g), head_g),
        Quad(np_upri, vocab.HAS_PUBLICATION_INFO, Iri(pub_g), head_g),
    ]
    classes = getattr(unit, "classes", ()) or ()
    subject = getattr(unit, "subject", None)
    quads += declaration_quads(unit_upri, classes, subject, associated, catalog, head_g)
    # The assertion graph is named by the unit; a compound's stays empty.
    if not associated:
        quads += (q.rehome(unit_upri) for q in data_quads)
    quads += _record_quads(prov, unit_upri, prov_g)
    quads += _record_quads(pubinfo, np_upri, pub_g)
    if schema_upri := getattr(unit, "schema_class", None):
        quads.append(Quad(np_upri, vocab.META_SCHEMA, Iri(schema_upri), pub_g))
    return QuadDataset(quads)


@record
class ParsedNanopub:
    upri: str
    unit_upri: str
    classes: frozenset[str]
    subject: str | None
    assertion: tuple[Quad, ...]
    associations: tuple[str, ...]
    provenance: ProvenanceRecord
    pubinfo: ProvenanceRecord
    schema_upri: str | None = None


def parse_nanopublication(
    dataset: QuadDataset, catalog: VocabularyCatalog
) -> ParsedNanopub:
    """Reconstruct the unit and metadata records from nanopub quads."""
    heads = [
        q
        for q in dataset
        if q.predicate == catalog.type
        and isinstance(q.object, Iri)
        and q.object.value == vocab.NANOPUBLICATION
    ]
    if len(heads) != 1:
        raise NanopubError(f"expected exactly one nanopublication head, found {len(heads)}")
    np_upri = heads[0].subject
    head_g = heads[0].graph
    head_quads = dataset.graph(head_g)

    def link(predicate: str) -> str:
        for q in head_quads:
            if q.subject == np_upri and q.predicate == predicate and isinstance(q.object, Iri):
                return q.object.value
        raise NanopubError(f"head graph lacks {predicate}")

    assertion_g = link(vocab.HAS_ASSERTION)
    prov_g = link(vocab.HAS_PROVENANCE)
    pub_g = link(vocab.HAS_PUBLICATION_INFO)

    prov_quads = list(dataset.graph(prov_g))
    pub_quads = list(dataset.graph(pub_g))
    if not prov_quads:
        raise NanopubError(f"head references missing provenance graph {prov_g}")
    if not pub_quads:
        raise NanopubError(f"head references missing publication-info graph {pub_g}")

    # The unit's declarations: every head quad but those about the np itself.
    classes, subjects, associated = read_declarations(
        (q for q in head_quads if q.subject != np_upri), catalog
    )
    declared = classes.keys() | subjects.keys() | associated.keys()
    if len(declared) > 1:
        raise NanopubError(f"head graph declares {len(declared)} units: {sorted(declared)}")
    unit_upri = declared.pop() if declared else assertion_g
    associations = tuple(associated.get(unit_upri, ()))

    assertion = tuple(dataset.graph(assertion_g))
    if not assertion and not associations:
        raise NanopubError(
            f"assertion graph {assertion_g} is empty and the head lists no associations"
        )
    if assertion and unit_upri != assertion_g:
        raise NanopubError(
            f"assertion graph name {assertion_g} does not match unit {unit_upri}"
        )

    schema_upri = None
    for q in pub_quads:
        if q.predicate == vocab.META_SCHEMA and isinstance(q.object, Iri):
            schema_upri = q.object.value

    return ParsedNanopub(
        upri=np_upri,
        unit_upri=unit_upri,
        classes=frozenset(classes.get(unit_upri, ())),
        subject=subjects.get(unit_upri),
        assertion=assertion,
        associations=associations,
        provenance=_record_from_quads(prov_quads),
        pubinfo=_record_from_quads(pub_quads),
        schema_upri=schema_upri,
    )


# ---------------------------------------------------------------------------
# Access policies
# ---------------------------------------------------------------------------


@record
class PolicyRule:
    unit_class: str  # IRI or "*"
    condition: str  # "always", or the scope of key=value: "requester" or "subject"
    effect: str  # "allow" | "deny"
    key: str = ""  # requester attribute, or local name of a subject's predicate
    value: str = ""  # the value to equal; an <IRI> is kept without brackets

    def __post_init__(self):
        if self.condition not in ("always", "requester", "subject"):
            raise PolicyError(f"unknown policy condition: {self.condition!r}")


@record
class AccessPolicy:
    rules: tuple[PolicyRule, ...] = ()


# Groups: effect, target IRI (none for '*'), scope, key, IRI or bare value, or
# an unsupported condition. ``re`` compiles it at the first policy read, out
# of the start-up of runs without a policy: it is the costliest compile here.
_RULE = (
    rf"(allow|deny)\s+(?:\*|{IRI_TOKEN})(?:\s+when\s+(?:always"
    rf"|(requester|subject)\.([A-Za-z_][\w-]*)\s*=\s*(?:{IRI_TOKEN}|([^<\s]\S*))|(.*)))?"
)


def load_policy(text: str) -> AccessPolicy:
    """Parse the ordered rule list: ``deny <classIRI> when subject.key=value``."""
    rules: list[PolicyRule] = []
    for lineno, line in setting_lines(text):
        m = re.fullmatch(_RULE, line)
        if not m:
            raise PolicyError(f"line {lineno}: cannot parse policy rule: {line!r}")
        effect, target, scope, key, iri, value, unsupported = m.groups()
        if unsupported is not None:
            raise PolicyError(f"line {lineno}: unsupported condition: {unsupported!r}")
        rules.append(PolicyRule(target or "*", scope or "always", effect, key or "", iri or value or ""))
    return AccessPolicy(rules=tuple(rules))


def _condition_holds(rule: PolicyRule, unit, dataset: QuadDataset, context: dict[str, str]) -> bool:
    if rule.condition == "always":
        return True
    if rule.condition == "requester":
        return context.get(rule.key) == rule.value
    # subject.<localName>: any data quad about the unit's subject whose
    # predicate has that local name and whose object equals the value.
    subject = getattr(unit, "subject", None)
    if subject is None:
        return False
    for q in dataset.about(subject):
        if local_name(q.predicate) != rule.key:
            continue
        if str(q.object) == rule.value:
            return True
    return False


@record
class PolicyDecision:
    visible: tuple
    hidden: tuple[str, ...]
    opaque_references: tuple[tuple[str, str], ...]  # (compound, hidden member)


def apply_access_policy(
    units: list,
    policy: AccessPolicy,
    dataset: QuadDataset,
    catalog: VocabularyCatalog,
    context: dict[str, str] | None = None,
) -> PolicyDecision:
    """First-match-wins filtering; default effect is allow.

    Hiding a unit never hides its subject's other units. Compound units
    that reference a hidden unit keep the bare association identifier but
    are reported as opaque references.
    """
    context = context or {}
    hidden: list[str] = []
    visible: list = []
    for unit in units:
        effect = "allow"
        for rule in policy.rules:
            if rule.unit_class != "*" and rule.unit_class not in unit.classes:
                continue
            if not _condition_holds(rule, unit, dataset, context):
                continue
            effect = rule.effect
            break
        if effect == "deny":
            hidden.append(unit.upri)
        else:
            visible.append(unit)
    hidden_set = set(hidden)
    opaque: list[tuple[str, str]] = []
    for unit in visible:
        for member in getattr(unit, "associated", ()) or ():
            if member in hidden_set:
                opaque.append((unit.upri, member))
    return PolicyDecision(
        visible=tuple(visible),
        hidden=tuple(sorted(hidden_set)),
        opaque_references=tuple(opaque),
    )


def redact_dataset(
    dataset: QuadDataset, hidden: tuple[str, ...], catalog: VocabularyCatalog
) -> QuadDataset:
    """Serialization-boundary enforcement: drop every quad of a hidden
    unit's data graph plus its subject linkage, keep bare references, and
    mark the remaining stubs as restricted."""
    hidden_set = set(hidden)
    kept: list[Quad] = []
    for q in dataset:
        if q.graph in hidden_set:
            continue
        if q.subject in hidden_set and q.predicate == catalog.has_semantic_unit_subject:
            continue
        kept.append(q)
    for upri in sorted(hidden_set):
        kept.append(
            Quad(upri, catalog.type, Iri(vocab.RESTRICTED_UNIT), vocab.UNITS_GRAPH)
        )
    return QuadDataset(kept)
