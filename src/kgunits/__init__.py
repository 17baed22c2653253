"""Organize RDF knowledge graphs into semantic units.

The toolkit partitions a data graph into statement units, composes them
into compound units, grounds them in a dual logic-program / OWL semantics,
and packages each unit as a nanopublication-style FAIR digital object.
"""

from .store import (
    DEFAULT_CATALOG,
    Iri,
    Literal,
    Quad,
    QuadDataset,
    ResourceKind,
    VocabularyCatalog,
    classify_resource,
    load_catalog,
)
from .rdfio import parse_quads, serialize_quads
from .schemas import StatementSchema, compile_schema
from .units import (
    PartitionResult,
    StatementUnit,
    classify_unit,
    partition,
    render_dynamic_label,
)
from .compound import CompoundUnit, build_all, make_collection_unit
from .fdo import (
    AccessPolicy,
    ProvenanceRecord,
    UpriMinter,
    apply_access_policy,
    emit_nanopublication,
    load_policy,
    mint_upri,
    parse_nanopublication,
)
from .logic import LogicProgram, ground_program, herbrand_size, parse_rules, stable_models
from .translate import (
    builtin_patterns,
    check_conflicts,
    facts_from_units,
    translate_to_owl,
)
from .align import ProcessedGraph, align_graphs

__version__ = "0.1.0"

__all__ = [
    "AccessPolicy",
    "CompoundUnit",
    "DEFAULT_CATALOG",
    "Iri",
    "Literal",
    "LogicProgram",
    "PartitionResult",
    "ProcessedGraph",
    "ProvenanceRecord",
    "Quad",
    "QuadDataset",
    "ResourceKind",
    "StatementSchema",
    "StatementUnit",
    "UpriMinter",
    "VocabularyCatalog",
    "align_graphs",
    "apply_access_policy",
    "build_all",
    "builtin_patterns",
    "check_conflicts",
    "classify_resource",
    "classify_unit",
    "compile_schema",
    "emit_nanopublication",
    "facts_from_units",
    "ground_program",
    "herbrand_size",
    "load_catalog",
    "load_policy",
    "make_collection_unit",
    "mint_upri",
    "parse_nanopublication",
    "parse_quads",
    "parse_rules",
    "partition",
    "render_dynamic_label",
    "serialize_quads",
    "stable_models",
    "translate_to_owl",
]
