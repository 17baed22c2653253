"""Exception types shared across the package."""

from __future__ import annotations


class KgUnitsError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(KgUnitsError):
    """Malformed input document; carries a 1-based line/column position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class BlankNodeError(ParseError):
    """A blank node appeared in the input; the quad model forbids them."""


class CatalogError(KgUnitsError):
    """Invalid vocabulary catalog document or duplicate catalog entries."""


class SchemaError(KgUnitsError):
    """Statement schema document violates the grammar or an invariant."""


class UnknownResourceError(KgUnitsError):
    """Resource does not occur in the dataset."""


class AmbiguousResourceKindError(KgUnitsError):
    """Two mutually exclusive resource kinds both match one resource."""


class OverlapConflictError(KgUnitsError):
    """Two equally ranked schema matches claim the same triple."""


class LabelError(KgUnitsError):
    """A dynamic-label template references an unbound placeholder."""


class ClassificationError(KgUnitsError):
    """A statement unit's subject kind cannot be resolved."""


class RuleError(KgUnitsError):
    """Malformed rule document."""


class UnsafeRuleError(RuleError):
    """Rule with a variable that does not occur in the positive body."""


class BoundExceededError(KgUnitsError):
    """Ground program larger than the configured solver bound."""


class PatternError(KgUnitsError):
    """Malformed translation pattern or unbound output variable."""


class MintError(KgUnitsError):
    """Malformed namespace passed to the identifier minter."""


class NanopubError(KgUnitsError):
    """Nanopublication violates the four-named-graph schema."""


class ProvenanceError(KgUnitsError):
    """Provenance record misses a mandatory field or dates are invalid."""


class PolicyError(KgUnitsError):
    """Malformed access policy document."""


class CollectionError(KgUnitsError):
    """Invalid collection unit request (duplicate set member, unknown member)."""
