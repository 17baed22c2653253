"""Blank-node-free quad model and the two-layer view of a knowledge graph.

A dataset is an immutable snapshot of quads. Every quad carries an explicit
graph name; the graph name of a statement unit's data graph is the unit's
own identifier, so referring to the graph refers to the unit. Derived views
(indexes, the split between the data graph layer and the semantic-units
graph layer, resource kinds) are computed once and memoized on the
snapshot, which never changes, so they are no second source of truth.

This module also owns the declaration format of a semantic unit: the
``rdf:type`` quads of its classes, its ``hasSemanticUnitSubject`` quad and
its ``hasAssociatedSemanticUnit`` quads. ``declaration_quads`` is the one
writer and ``read_declarations`` the one reader of that format.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from functools import cached_property, wraps
from itertools import chain, groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Union

from . import vocab
from ._record import _field, _Named, _new, factory, fields, record
from .errors import (
    AmbiguousResourceKindError,
    CatalogError,
    UnknownResourceError,
)

# An absolute IRI, RFC 3987 as RDF 1.1 TriG restricts it: a scheme, ':', a body.
_IRI = r"[A-Za-z][A-Za-z0-9+.-]*:[^\x00-\x20<>\"{}|^`\\]*"
_IRI_RE = re.compile(_IRI)
# The one IRI token of .sus, .cat, .pol, .lp and .pat files: an absolute IRI in
# angle brackets, group 1 its body. Escapes are TriG and N-Quads syntax only.
IRI_TOKEN = f"<({_IRI})>"
IRI_TOKEN_RE = re.compile(IRI_TOKEN)
# INTEGER or DECIMAL of TriG, ASCII digits only; "" matches too, so fullmatch a token.
NUMBER_RE = re.compile(r"(?:[+-]?[0-9]+(?:\.[0-9]+)?)?")
# A prefix name the TriG reader reads back: ASCII PN_PREFIX, or "" (the empty name).
PN_PREFIX_RE = re.compile(r"(?:[A-Za-z](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?")


def is_absolute_iri(value: str) -> bool:
    """True for syntactically valid absolute IRIs (scheme + body, no spaces)."""
    return _IRI_RE.fullmatch(value) is not None


def local_name(iri: str) -> str:
    """Fragment or last path segment of an IRI, for fallback display."""
    for sep in ("#", "/", ":"):
        head, _, tail = iri.rpartition(sep)
        if head and tail:
            return tail
    return iri


class Iri(_Named):
    """An IRI term, the tuple ``(0, value)``. Terms are tuples in the
    canonical order: IRIs before literals, then by their fields in order."""

    __slots__ = ()
    _args = ("value",)
    value = _field(1, "the IRI")

    def __new__(cls, value: str):
        return _new(cls, (0, value))

    def __str__(self) -> str:
        return self.value


class Literal(_Named):
    """A literal term, the tuple ``(1, lexical, datatype, language or "")``;
    a language tag makes the datatype ``rdf:langString``."""

    __slots__ = ()
    _args = ("lexical", "datatype", "language")
    lexical = _field(1, "the lexical form")
    datatype = _field(2, "the datatype IRI")

    def __new__(
        cls, lexical: str, datatype: str = vocab.XSD_STRING, language: str | None = None
    ):
        if language is None:
            return _new(cls, (1, lexical, datatype, ""))
        return _new(cls, (1, lexical, vocab.RDF_LANGSTRING, language))

    @property
    def language(self) -> str | None:
        return self[3] or None

    def __str__(self) -> str:
        return self.lexical


Term = Union[Iri, Literal]


class Quad(_Named):
    """A quad, the tuple ``(graph, subject, predicate, object)``, so quads
    sort in the canonical order: by graph, subject, predicate, then object.
    The constructor takes the fields in triple order, the graph last."""

    __slots__ = ()
    _args = ("subject", "predicate", "object", "graph")
    graph = _field(0, "the graph name")
    subject = _field(1, "the subject IRI")
    predicate = _field(2, "the predicate IRI")
    object = _field(3, "the object term")

    def __new__(cls, subject: str, predicate: str, object: Term, graph: str):
        return _new(cls, (graph, subject, predicate, object))

    def rehome(self, graph: str) -> "Quad":
        return _new(Quad, (graph, *self[1:]))


def _memoized(method):
    """Memoize a view of the dataset, per catalog when the method takes one."""

    @wraps(method)
    def view(self, *catalog):
        key = catalog[0] if catalog else None
        return self._view(method.__name__, key, lambda: method(self, *catalog))

    return view


class QuadDataset:
    """Immutable, duplicate-free collection of quads.

    Insertion order is irrelevant: iteration and serialization follow the
    canonical (graph, subject, predicate, object) order.
    """

    __slots__ = ("_quads", "_views")

    def __init__(self, quads: Iterable[Quad] = ()):
        self._quads = tuple(sorted(set(quads)))
        self._views: dict[tuple, tuple] = {}

    def _view(self, name: str, catalog: "VocabularyCatalog | None", build: Callable):
        """``build()``, computed once per (name, catalog). A catalog cannot be
        hashed, so the key is its identity; the entry keeps the catalog alive
        so that no other catalog can take over that identity."""
        key = (name, id(catalog))
        entry = self._views.get(key)
        if entry is None:
            entry = self._views[key] = (catalog, build())
        return entry[1]

    @property
    def quads(self) -> tuple[Quad, ...]:
        return self._quads

    def __len__(self) -> int:
        return len(self._quads)

    def __iter__(self) -> Iterator[Quad]:
        return iter(self._quads)

    def __contains__(self, quad: Quad) -> bool:
        return quad in self._by_subject().get(quad.subject, ())

    def __eq__(self, other) -> bool:
        return isinstance(other, QuadDataset) and self._quads == other._quads

    def __hash__(self) -> int:
        return hash(self._quads)

    def merge(self, *extra: Iterable[Quad]) -> "QuadDataset":
        return QuadDataset(chain(self._quads, *extra))

    @_memoized
    def _by_graph(self) -> dict[str, tuple[Quad, ...]]:
        # The canonical order sorts by graph first: each graph is one run.
        return {name: tuple(run) for name, run in groupby(self._quads, itemgetter(0))}

    @_memoized
    def _by_subject(self) -> dict[str, list[Quad]]:
        out: dict[str, list[Quad]] = {}
        for q in self._quads:
            out.setdefault(q.subject, []).append(q)
        return out

    def graph(self, name: str) -> tuple[Quad, ...]:
        return self._by_graph().get(name, ())

    def graph_names(self) -> tuple[str, ...]:
        return tuple(self._by_graph())

    def about(self, subject: str) -> tuple[Quad, ...]:
        """Quads whose subject is ``subject``, in canonical order."""
        return tuple(self._by_subject().get(subject, ()))

    @_memoized
    def resources(self) -> frozenset[str]:
        """All IRIs occurring in subject, predicate, object, or graph position."""
        out: set[str] = set()
        for g, s, p, o in self._quads:
            out.update((g, s, p))
            if isinstance(o, Iri):
                out.add(o.value)
        return frozenset(out)

    # -- layer split -------------------------------------------------------

    @_memoized
    def unit_graphs(self, catalog: "VocabularyCatalog") -> frozenset[str]:
        """Graph names declared as semantic-unit data graphs."""
        declaring = (catalog.has_semantic_unit_subject, catalog.has_associated_semantic_unit)
        return frozenset(s for _, s, p, _ in self._quads if p in declaring)

    @_memoized
    def unit_resources(self, catalog: "VocabularyCatalog") -> frozenset[str]:
        """Resources that stand for semantic units."""
        out: set[str] = set()
        for _, s, p, o in self._quads:
            if p == catalog.has_semantic_unit_subject:
                out.add(s)
            elif p in (
                catalog.has_associated_semantic_unit,
                catalog.has_linked_semantic_unit,
                catalog.object_described_by_semantic_unit,
            ):
                out.add(s)
                if isinstance(o, Iri):
                    out.add(o.value)
        return frozenset(out)

    @_memoized
    def split_layers(
        self, catalog: "VocabularyCatalog"
    ) -> tuple[tuple[Quad, ...], tuple[Quad, ...]]:
        """Partition the quads into (data layer, semantic-units layer).

        A quad belongs to the semantic-units layer when its predicate is one
        of the structural properties, or when it mentions a semantic-unit
        resource outside any declared unit data graph. Quads inside a
        declared unit data graph always belong to the data layer, which is
        what lets data graphs talk about other units (statements about
        statements) without being swallowed by the organizational layer.
        """
        structural = catalog.structural_properties
        unit_graphs = self.unit_graphs(catalog)
        unit_resources = self.unit_resources(catalog)
        data: list[Quad] = []
        units: list[Quad] = []
        for q in self._quads:
            g, s, p, o = q
            if p in structural:
                units.append(q)
            elif g not in unit_graphs and (
                s in unit_resources or (isinstance(o, Iri) and o.value in unit_resources)
            ):
                units.append(q)
            else:
                data.append(q)
        return tuple(data), tuple(units)


# ---------------------------------------------------------------------------
# Unit declarations
# ---------------------------------------------------------------------------


def declaration_quads(
    upri: str,
    classes: Iterable[str],
    subject: str | None,
    associated: Iterable[str],
    catalog: "VocabularyCatalog",
    graph: str = vocab.UNITS_GRAPH,
) -> list[Quad]:
    """The quads in ``graph`` that declare unit ``upri``: one ``rdf:type``
    per class, its subject if it has one, and its associated units."""
    quads = [Quad(upri, catalog.type, Iri(cls), graph) for cls in sorted(classes)]
    if subject:
        quads.append(Quad(upri, catalog.has_semantic_unit_subject, Iri(subject), graph))
    quads.extend(
        Quad(upri, catalog.has_associated_semantic_unit, Iri(member), graph)
        for member in associated
    )
    return quads


def read_declarations(
    quads: Iterable[Quad], catalog: "VocabularyCatalog"
) -> tuple[dict[str, set[str]], dict[str, str], dict[str, list[str]]]:
    """The declared classes, first subject and associated units (in quad
    order) of each resource, from the IRI-object declaration quads."""
    classes: dict[str, set[str]] = {}
    subjects: dict[str, str] = {}
    associated: dict[str, list[str]] = {}
    for _, s, p, o in quads:
        if not isinstance(o, Iri):
            continue
        if p == catalog.type:
            classes.setdefault(s, set()).add(o.value)
        elif p == catalog.has_semantic_unit_subject:
            subjects.setdefault(s, o.value)
        elif p == catalog.has_associated_semantic_unit:
            associated.setdefault(s, []).append(o.value)
    return classes, subjects, associated


# ---------------------------------------------------------------------------
# Hand-written settings
# ---------------------------------------------------------------------------

# A string, or a '#' at the start of a line or after ASCII whitespace.
_STRING_OR_COMMENT = re.compile(r'"(?:[^"\\]|\\.)*"|(?<!\S)#', re.ASCII)
# A field of a catalog or schema line: a run of anything but ASCII
# whitespace, so no character an IRI may hold (U+00A0, say) splits its token.
FIELD_RE = re.compile(r"\S+", re.ASCII)


def setting_lines(text: str) -> Iterator[tuple[int, str]]:
    """The 1-based number and the stripped text of each line of a catalog,
    schema, policy, pattern or config file that is not blank once its
    comment is cut. Lines end at ``\n`` only, as in TriG and rule files, so
    an IRI may hold U+2028. A comment starts at a ``#`` at the start of the
    line or after ASCII whitespace, outside a ``"..."`` string, so
    ``<...#frag>`` is no comment."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        for m in _STRING_OR_COMMENT.finditer(line):
            if m.group() == "#":
                line = line[: m.start()]
                break
        line = line.strip()
        if line:
            yield lineno, line


# ---------------------------------------------------------------------------
# Vocabulary catalog
# ---------------------------------------------------------------------------


@record
class VocabularyCatalog:
    """The structural vocabulary, one field per catalog term (the field of
    ``term hasSemanticUnitSubject`` is ``has_semantic_unit_subject``), plus
    the registered partial-order predicates and the prefixes."""

    has_semantic_unit_subject: str = vocab.HAS_SEMANTIC_UNIT_SUBJECT
    has_associated_semantic_unit: str = vocab.HAS_ASSOCIATED_SEMANTIC_UNIT
    has_linked_semantic_unit: str = vocab.HAS_LINKED_SEMANTIC_UNIT
    object_described_by_semantic_unit: str = vocab.OBJECT_DESCRIBED_BY_SEMANTIC_UNIT
    some_instance_of: str = vocab.SOME_INSTANCE_OF
    every_instance_of: str = vocab.EVERY_INSTANCE_OF
    is_about: str = vocab.IS_ABOUT
    type: str = vocab.RDF_TYPE
    label: str = vocab.RDFS_LABEL
    qualified_cardinality: str = vocab.QUALIFIED_CARDINALITY
    index: str = vocab.INDEX
    child: str = vocab.CHILD
    mentions: str = vocab.MENTIONS
    description: str = vocab.DESCRIPTION
    partial_orders: tuple[str, ...] = ()
    prefixes: Mapping[str, str] = factory(lambda: dict(vocab.PREFIXES))

    def __post_init__(self):
        values = [getattr(self, name) for name in _TERMS.values()]
        if len(values) != len(set(values)):
            dupes = sorted({v for v in values if values.count(v) > 1})
            raise CatalogError(f"catalog entries not distinct: {', '.join(dupes)}")
        for key, name in _TERMS.items():
            iri = getattr(self, name)
            if not is_absolute_iri(iri):
                raise CatalogError(f"catalog term {key} is not an absolute IRI: {iri}")
        for iri in self.partial_orders:
            if not is_absolute_iri(iri):
                raise CatalogError(f"partial-order predicate is not an IRI: {iri}")

    @cached_property
    def structural_properties(self) -> frozenset[str]:
        return frozenset(
            {
                self.has_semantic_unit_subject,
                self.has_associated_semantic_unit,
                self.has_linked_semantic_unit,
                self.object_described_by_semantic_unit,
                self.index,
            }
        )

    @cached_property
    def affiliations(self) -> dict[str, ResourceKind]:
        """Class-affiliation predicate -> the instance kind it gives."""
        return {getattr(self, _TERMS[row.term]): kind for kind, row in INSTANCE_KINDS.items()}


# Catalog key -> field name: ``hasSemanticUnitSubject`` -> ``has_semantic_unit_subject``.
_TERMS = {
    re.sub(r"_(.)", lambda m: m.group(1).upper(), f.name): f.name
    for f in fields(VocabularyCatalog)
    if f.name not in ("partial_orders", "prefixes")
}

DEFAULT_CATALOG = VocabularyCatalog()


def load_catalog(text: str) -> VocabularyCatalog:
    """Parse the declarative catalog format.

    Lines: ``term <key> <iri>``, ``partial-order <iri>``,
    ``prefix <name:> <iri>`` (a name ``PN_PREFIX_RE`` matches). A term the
    catalog does not name keeps its default; an unknown term key is an
    error. ``setting_lines`` cuts the comments.
    """
    terms: dict[str, str] = {}
    partial_orders: list[str] = []
    prefixes = dict(vocab.PREFIXES)
    for lineno, line in setting_lines(text):
        parts = FIELD_RE.findall(line)
        if parts[0] == "term" and len(parts) == 3:
            if parts[1] not in _TERMS:
                raise CatalogError(f"line {lineno}: unknown catalog term: {parts[1]}")
            terms[_TERMS[parts[1]]] = _strip_angle(parts[2], lineno)
        elif parts[0] == "partial-order" and len(parts) == 2:
            partial_orders.append(_strip_angle(parts[1], lineno))
        elif parts[0] == "prefix" and len(parts) == 3:
            name = parts[1].rstrip(":")
            if not PN_PREFIX_RE.fullmatch(name):
                raise CatalogError(f"line {lineno}: prefix name is not a TriG PN_PREFIX: {name!r}")
            prefixes[name] = _strip_angle(parts[2], lineno)
        else:
            raise CatalogError(f"line {lineno}: cannot parse catalog line: {line!r}")
    return VocabularyCatalog(
        **terms, partial_orders=tuple(dict.fromkeys(partial_orders)), prefixes=prefixes
    )


def _strip_angle(token: str, lineno: int) -> str:
    m = IRI_TOKEN_RE.fullmatch(token)
    if m is None:
        raise CatalogError(f"line {lineno}: expected <IRI>, got {token!r}")
    return m.group(1)


# ---------------------------------------------------------------------------
# Resource kinds
# ---------------------------------------------------------------------------


class ResourceKind(Enum):
    NAMED_INDIVIDUAL = "named-individual"
    SOME_INSTANCE = "some-instance"
    EVERY_INSTANCE = "every-instance"
    ONTOLOGY_CLASS = "ontology-class"
    PROPERTY_RESOURCE = "property-resource"
    SEMANTIC_UNIT_RESOURCE = "semantic-unit-resource"


# One row per instance kind: the catalog term of the class affiliation that
# gives a resource the kind, the class of the resource's identification unit,
# the subject category of the units about it and the identification label.
InstanceKind = namedtuple("InstanceKind", "term identification_class category label")
INSTANCE_KINDS = {
    ResourceKind.NAMED_INDIVIDUAL: InstanceKind(
        "type", vocab.NAMED_INDIVIDUAL_IDENTIFICATION_UNIT,
        vocab.ASSERTIONAL_STATEMENT_UNIT, "{s} is an instance of {c}"),
    ResourceKind.SOME_INSTANCE: InstanceKind(
        "someInstanceOf", vocab.SOME_INSTANCE_IDENTIFICATION_UNIT,
        vocab.CONTINGENT_STATEMENT_UNIT, "{s} is some instance of {c}"),
    ResourceKind.EVERY_INSTANCE: InstanceKind(
        "everyInstanceOf", vocab.EVERY_INSTANCE_IDENTIFICATION_UNIT,
        vocab.UNIVERSAL_STATEMENT_UNIT, "{s} is every instance of {c}"),
}


class ResourceKinds:
    """The kind of every resource of a dataset, from one pass over its data
    layer. ``kind_of`` answers as ``classify_resource`` documents;
    ``category_of`` is the lenient subject-category reading partition uses."""

    # The statement-unit category a subject of each instance-like kind gives.
    CATEGORIES = {kind: row.category for kind, row in INSTANCE_KINDS.items()} | {
        ResourceKind.SEMANTIC_UNIT_RESOURCE: vocab.ASSERTIONAL_STATEMENT_UNIT
    }

    @staticmethod
    def of(dataset: QuadDataset, catalog: VocabularyCatalog) -> "ResourceKinds":
        """The table of ``dataset``, built once per catalog."""
        return dataset._view("kinds", catalog, lambda: ResourceKinds(dataset, catalog))

    def __init__(self, dataset: QuadDataset, catalog: VocabularyCatalog):
        self._resources = dataset.resources()
        self._units = dataset.unit_resources(catalog)
        affiliations = catalog.affiliations
        self._affiliations: dict[str, set[ResourceKind]] = {}
        self._iri_affiliations: dict[str, set[ResourceKind]] = {}
        self._classes: set[str] = set()  # objects of a class affiliation
        self._predicates: set[str] = set()
        self._nodes: set[str] = set()
        for q in dataset.split_layers(catalog)[0]:
            self._predicates.add(q.predicate)
            obj = q.object.value if isinstance(q.object, Iri) else None
            # A label for the resource does not count as a node occurrence, so
            # labelled properties still classify as property resources.
            if q.predicate != catalog.label:
                self._nodes.add(q.subject)
            if obj is not None:
                self._nodes.add(obj)
            kind = affiliations.get(q.predicate)
            if kind is not None:
                self._affiliations.setdefault(q.subject, set()).add(kind)
                if obj is not None:
                    self._classes.add(obj)
                    self._iri_affiliations.setdefault(q.subject, set()).add(kind)

    def kind_of(self, resource: str) -> ResourceKind:
        if resource not in self._resources:
            raise UnknownResourceError(f"resource does not occur in dataset: {resource}")
        if resource in self._units:
            return ResourceKind.SEMANTIC_UNIT_RESOURCE
        affiliations = self._affiliations.get(resource, ())
        if len(affiliations) > 1:
            raise AmbiguousResourceKindError(
                f"{resource} carries more than one mutually exclusive class affiliation"
            )
        if affiliations:
            if resource in self._classes:
                raise AmbiguousResourceKindError(
                    f"{resource} occurs both as an instance and as an ontology class"
                )
            return next(iter(affiliations))
        if resource in self._classes:
            return ResourceKind.ONTOLOGY_CLASS
        if resource in self._predicates:
            if resource in self._nodes:
                raise AmbiguousResourceKindError(
                    f"{resource} occurs both as a predicate and as a node"
                )
            return ResourceKind.PROPERTY_RESOURCE
        raise UnknownResourceError(
            f"resource kind of {resource} cannot be resolved from the dataset"
        )

    def category_of(self, resource: str) -> str | None:
        """The category of ``resource`` as a unit subject, or ``None``. Only
        affiliations with an IRI object count, mixed ones give ``None``, and
        a unit resource is assertional. Unlike ``kind_of`` it never raises."""
        if resource in self._units:
            return self.CATEGORIES[ResourceKind.SEMANTIC_UNIT_RESOURCE]
        kinds = self._iri_affiliations.get(resource, ())
        return self.CATEGORIES[next(iter(kinds))] if len(kinds) == 1 else None


def classify_resource(
    dataset: QuadDataset, resource: str, catalog: VocabularyCatalog
) -> ResourceKind:
    """Resolve the kind of a resource occurring in the dataset.

    The three instance kinds (named individual, some-instance,
    every-instance) are mutually exclusive; holding two of them is an
    error. A resource that stands for a semantic unit keeps that kind even
    when a data graph types it, since units are the individuals the
    discursive layer talks about.
    """
    return ResourceKinds.of(dataset, catalog).kind_of(resource)
