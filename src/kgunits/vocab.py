"""Fixed IRIs used across the toolkit.

Everything minted by this library lives under the ``su:`` namespace; the
handful of external terms (rdf:type, rdfs:label, IAO isAbout,
owl:qualifiedCardinality) keep their well-known identifiers.
"""

from __future__ import annotations

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
IAO_NS = "http://purl.obolibrary.org/obo/"
DCT_NS = "http://purl.org/dc/terms/"
NANOPUB_NS = "http://www.nanopub.org/nschema#"

# Namespace for the toolkit's own vocabulary (unit classes, structural
# properties, metadata terms) and the default namespace for minted unit
# identifiers.
SU_NS = "https://vocab.kgunits.org/"
DEFAULT_MINT_NS = "https://data.kgunits.org/"

RDF_TYPE = RDF_NS + "type"
RDFS_LABEL = RDFS_NS + "label"

XSD_STRING = XSD_NS + "string"
XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_BOOLEAN = XSD_NS + "boolean"
XSD_DATETIME = XSD_NS + "dateTime"
RDF_LANGSTRING = RDF_NS + "langString"

NUMERIC_DATATYPES = frozenset(
    XSD_NS + local
    for local in (
        "integer",
        "decimal",
        "double",
        "float",
        "long",
        "int",
        "short",
        "byte",
        "nonNegativeInteger",
        "positiveInteger",
        "unsignedInt",
        "unsignedLong",
    )
)

# Structural properties of the semantic-units graph layer.
HAS_SEMANTIC_UNIT_SUBJECT = SU_NS + "hasSemanticUnitSubject"
HAS_ASSOCIATED_SEMANTIC_UNIT = SU_NS + "hasAssociatedSemanticUnit"
HAS_LINKED_SEMANTIC_UNIT = SU_NS + "hasLinkedSemanticUnit"
OBJECT_DESCRIBED_BY_SEMANTIC_UNIT = SU_NS + "objectDescribedBySemanticUnit"
INDEX = SU_NS + "index"

# Data-layer properties with fixed meaning.
SOME_INSTANCE_OF = SU_NS + "someInstanceOf"
EVERY_INSTANCE_OF = SU_NS + "everyInstanceOf"
IS_ABOUT = IAO_NS + "IAO_0000136"
MENTIONS = IAO_NS + "IAO_0000142"
QUALIFIED_CARDINALITY = OWL_NS + "qualifiedCardinality"
CHILD = SU_NS + "child"
DESCRIPTION = DCT_NS + "description"

# Collection theory used by the OWL translation of every-instance resources.
COLLECTION = SU_NS + "Collection"
MEMBER_OF = SU_NS + "memberOf"
HAS_MEMBER = SU_NS + "hasMember"

# Statement-unit classes.
ASSERTIONAL_STATEMENT_UNIT = SU_NS + "AssertionalStatementUnit"
CONTINGENT_STATEMENT_UNIT = SU_NS + "ContingentStatementUnit"
UNIVERSAL_STATEMENT_UNIT = SU_NS + "UniversalStatementUnit"
QUALITATIVE_STATEMENT_UNIT = SU_NS + "QualitativeStatementUnit"
QUANTITATIVE_STATEMENT_UNIT = SU_NS + "QuantitativeStatementUnit"
NAMED_INDIVIDUAL_IDENTIFICATION_UNIT = SU_NS + "NamedIndividualIdentificationUnit"
SOME_INSTANCE_IDENTIFICATION_UNIT = SU_NS + "SomeInstanceIdentificationUnit"
EVERY_INSTANCE_IDENTIFICATION_UNIT = SU_NS + "EveryInstanceIdentificationUnit"
NEGATION_UNIT = SU_NS + "NegationUnit"
CARDINALITY_RESTRICTION_UNIT = SU_NS + "CardinalityRestrictionUnit"
DISAGREEMENT_UNIT = SU_NS + "DisagreementUnit"
IS_ABOUT_STATEMENT_UNIT = SU_NS + "IsAboutStatementUnit"
UNTYPED_STATEMENT_UNIT = SU_NS + "UntypedStatementUnit"
MEMBERSHIP_STATEMENT_UNIT = SU_NS + "MembershipStatementUnit"

IDENTIFICATION_UNIT_CLASSES = frozenset(
    {
        NAMED_INDIVIDUAL_IDENTIFICATION_UNIT,
        SOME_INSTANCE_IDENTIFICATION_UNIT,
        EVERY_INSTANCE_IDENTIFICATION_UNIT,
    }
)

SUBJECT_CATEGORY_CLASSES = frozenset(
    {
        ASSERTIONAL_STATEMENT_UNIT,
        CONTINGENT_STATEMENT_UNIT,
        UNIVERSAL_STATEMENT_UNIT,
    }
)

MARKER_CLASSES = frozenset(
    {
        NEGATION_UNIT,
        CARDINALITY_RESTRICTION_UNIT,
        DISAGREEMENT_UNIT,
        IS_ABOUT_STATEMENT_UNIT,
    }
)

# Compound-unit classes.
COMPOUND_UNIT = SU_NS + "CompoundUnit"
TYPED_STATEMENT_UNIT = SU_NS + "TypedStatementUnit"
QUALITY_MEASUREMENT_UNIT = SU_NS + "QualityMeasurementUnit"
ITEM_UNIT = SU_NS + "ItemUnit"
INSTANCE_ITEM_UNIT = SU_NS + "InstanceItemUnit"
CLASS_ITEM_UNIT = SU_NS + "ClassItemUnit"
TEXT_RESOURCE_HYBRID_ITEM_UNIT = SU_NS + "TextResourceHybridItemUnit"
ITEM_GROUP_UNIT = SU_NS + "ItemGroupUnit"
INSTANCE_ITEM_GROUP_UNIT = SU_NS + "InstanceItemGroupUnit"
CLASS_ITEM_GROUP_UNIT = SU_NS + "ClassItemGroupUnit"
CLASS_AXIOM_ITEM_GROUP_UNIT = SU_NS + "ClassAxiomItemGroupUnit"
GRANULARITY_TREE_UNIT = SU_NS + "GranularityTreeUnit"
GRANULAR_ITEM_GROUP_UNIT = SU_NS + "GranularItemGroupUnit"
CONTEXT_UNIT = SU_NS + "ContextUnit"
DATASET_UNIT = SU_NS + "DatasetUnit"
LIST_UNIT = SU_NS + "ListUnit"
ORDERED_LIST_UNIT = SU_NS + "OrderedListUnit"
UNORDERED_LIST_UNIT = SU_NS + "UnorderedListUnit"
SET_UNIT = SU_NS + "SetUnit"

# Access-control marker for unit references a requester may see but not open.
RESTRICTED_UNIT = SU_NS + "RestrictedUnit"

# Derived predicate: a negated assertional statement unit. Inferred by the
# built-in rule from NegationUnit + AssertionalStatementUnit, never asserted.
NEGATED_ASSERTIONAL_STATEMENT_UNIT = SU_NS + "NegatedAssertionalStatementUnit"

# Reified content atom anchoring a triple to the statement unit asserting it:
# asserts(unit, subject, predicate, object).
ASSERTS = SU_NS + "asserts"

# Nanopublication head-graph schema.
NANOPUBLICATION = NANOPUB_NS + "Nanopublication"
HAS_ASSERTION = NANOPUB_NS + "hasAssertion"
HAS_PROVENANCE = NANOPUB_NS + "hasProvenance"
HAS_PUBLICATION_INFO = NANOPUB_NS + "hasPublicationInfo"

# Metadata terms; the README documents the mapping onto the common
# provenance vocabularies so deployments can swap these for PROV-O/DCT.
META_CREATOR = SU_NS + "meta/creator"
META_CREATED = SU_NS + "meta/created"
META_APPLICATION = SU_NS + "meta/creationApplication"
META_TITLE = SU_NS + "meta/title"
META_CONTRIBUTOR = SU_NS + "meta/contributor"
META_UPDATED = SU_NS + "meta/lastUpdated"
META_SCHEMA = SU_NS + "meta/modelledWithSchema"

# Graph that hosts semantic-units-layer quads written by this toolkit.
UNITS_GRAPH = SU_NS + "graph/units"
DEFAULT_GRAPH = SU_NS + "graph/default"

PREFIXES = {
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "xsd": XSD_NS,
    "owl": OWL_NS,
    "su": SU_NS,
    "np": NANOPUB_NS,
    "obo": IAO_NS,
    "dct": DCT_NS,
}
