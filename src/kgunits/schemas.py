"""Statement schemas: the graph patterns that define statement-unit classes.

A schema names a statement-unit class, declares the triple templates whose
instantiation constitutes one statement, marks which object variables are
arguments (required to complete the predicate's meaning) and which are
adjuncts (optional extras), and carries a human-readable label template.

Schema documents are line oriented; ``unit`` starts a new schema::

    unit <https://example.org/su-class/has-part> anchor <https://example.org/rel/hasPart>
    relation qualitative
    template ?s <https://example.org/rel/hasPart> ?o
    subject ?s
    arg ?o
    label "{s} has part {o}"

Object slots in templates may be variables (``?x``), IRIs (``<...>``), or
literal constants (``"..."``, numbers). ``arg ?v numeric`` restricts the
variable to numeric literals, which is what makes a schema quantitative.
"""

from __future__ import annotations

import re

from . import vocab
from ._record import record
from .errors import SchemaError
from .store import FIELD_RE, IRI_TOKEN_RE, NUMBER_RE, Iri, Literal, Term, setting_lines

QUALITATIVE = "qualitative"
QUANTITATIVE = "quantitative"


@record
class Var:
    name: str


@record
class TripleTemplate:
    subject: "Var | str"
    predicate: str
    object: "Var | Term"

    def variables(self) -> frozenset[str]:
        out = set()
        if isinstance(self.subject, Var):
            out.add(self.subject.name)
        if isinstance(self.object, Var):
            out.add(self.object.name)
        return frozenset(out)


@record
class StatementSchema:
    unit_class: str
    anchor_predicate: str
    templates: tuple[TripleTemplate, ...]
    subject_var: str
    argument_vars: tuple[str, ...]
    adjunct_vars: tuple[str, ...] = ()
    numeric_vars: frozenset[str] = frozenset()
    relation: str = QUALITATIVE
    label_template: str = ""

    @property
    def anchor_template(self) -> TripleTemplate:
        for t in self.templates:
            if t.predicate == self.anchor_predicate:
                return t
        raise SchemaError(
            f"schema {self.unit_class}: no template uses anchor predicate "
            f"{self.anchor_predicate}"
        )

    def required_templates(self) -> tuple[TripleTemplate, ...]:
        """Templates that must match for the schema to apply.

        A template other than the anchor is optional when the only new
        thing it binds is adjunct information: all its variables are
        adjuncts or the subject, and at least one adjunct variable occurs
        in it. The anchor is always required.
        """
        anchor = self.anchor_template
        adjuncts = set(self.adjunct_vars)
        optional_pool = adjuncts | {self.subject_var}
        required = []
        for t in self.templates:
            t_vars = t.variables()
            if t != anchor and t_vars & adjuncts and t_vars <= optional_pool:
                continue
            required.append(t)
        return tuple(required)

    def adjunct_templates(self) -> tuple[TripleTemplate, ...]:
        required = set(self.required_templates())
        return tuple(t for t in self.templates if t not in required)

    def validate(self):
        if not self.templates:
            raise SchemaError(f"schema {self.unit_class}: no templates")
        self.anchor_template
        all_vars = set()
        for t in self.templates:
            all_vars |= t.variables()
        if self.subject_var not in all_vars:
            raise SchemaError(
                f"schema {self.unit_class}: subject variable ?{self.subject_var} "
                f"does not occur in any template"
            )
        for v in list(self.argument_vars) + list(self.adjunct_vars):
            if v not in all_vars:
                raise SchemaError(
                    f"schema {self.unit_class}: declared variable ?{v} "
                    f"does not occur in any template"
                )
        if set(self.argument_vars) & set(self.adjunct_vars):
            raise SchemaError(
                f"schema {self.unit_class}: a variable cannot be both argument and adjunct"
            )
        if self.relation == QUANTITATIVE:
            if not (set(self.argument_vars) & self.numeric_vars):
                raise SchemaError(
                    f"schema {self.unit_class}: quantitative schema needs at least "
                    f"one numeric argument slot"
                )
        elif self.relation == QUALITATIVE:
            if set(self.argument_vars) & self.numeric_vars:
                raise SchemaError(
                    f"schema {self.unit_class}: qualitative schema cannot have "
                    f"numeric arguments"
                )
        else:
            raise SchemaError(
                f"schema {self.unit_class}: unknown relation kind {self.relation!r}"
            )
        if self.label_template.rfind("{") > self.label_template.rfind("}"):
            raise SchemaError(
                f"schema {self.unit_class}: label {self.label_template!r} has a '{{' "
                f"that no later '}}' closes"
            )


_VAR_TOKEN = re.compile(r"^\?([A-Za-z_][A-Za-z0-9_]*)$")
_LABEL_RE = re.compile(r'^label\s+"(.*)"\s*$')


def _parse_iri(token: str, lineno: int) -> str:
    m = IRI_TOKEN_RE.fullmatch(token)
    if not m:
        raise SchemaError(f"line {lineno}: expected <IRI>, got {token!r}")
    return m.group(1)


def _parse_slot(token: str, lineno: int, *, object_position: bool):
    m = _VAR_TOKEN.match(token)
    if m:
        return Var(m.group(1))
    m = IRI_TOKEN_RE.fullmatch(token)
    if m:
        return Iri(m.group(1)) if object_position else m.group(1)
    if object_position:
        if token.startswith('"') and token.endswith('"') and len(token) >= 2:
            return Literal(token[1:-1])
        if NUMBER_RE.fullmatch(token):
            datatype = vocab.XSD_DECIMAL if "." in token else vocab.XSD_INTEGER
            return Literal(token, datatype=datatype)
    raise SchemaError(f"line {lineno}: cannot parse slot {token!r}")


class _SchemaBuilder:
    def __init__(self, unit_class: str, anchor: str, lineno: int):
        self.unit_class = unit_class
        self.anchor = anchor
        self.lineno = lineno
        self.templates: list[TripleTemplate] = []
        self.subject_var: str | None = None
        self.argument_vars: list[str] = []
        self.adjunct_vars: list[str] = []
        self.numeric_vars: set[str] = set()
        self.relation = QUALITATIVE
        self.label = ""

    def build(self) -> StatementSchema:
        if self.subject_var is None:
            raise SchemaError(
                f"schema {self.unit_class} (line {self.lineno}): missing subject declaration"
            )
        schema = StatementSchema(
            unit_class=self.unit_class,
            anchor_predicate=self.anchor,
            templates=tuple(self.templates),
            subject_var=self.subject_var,
            argument_vars=tuple(self.argument_vars),
            adjunct_vars=tuple(self.adjunct_vars),
            numeric_vars=frozenset(self.numeric_vars),
            relation=self.relation,
            label_template=self.label,
        )
        schema.validate()
        return schema


def compile_schema(text: str) -> list[StatementSchema]:
    """Compile a schema document into validated statement schemas."""
    schemas: list[StatementSchema] = []
    current: _SchemaBuilder | None = None
    for lineno, line in setting_lines(text):
        parts = FIELD_RE.findall(line)
        head = parts[0]
        if head == "unit":
            if current is not None:
                schemas.append(current.build())
            if len(parts) != 4 or parts[2] != "anchor":
                raise SchemaError(
                    f"line {lineno}: expected 'unit <classIRI> anchor <predIRI>'"
                )
            current = _SchemaBuilder(
                _parse_iri(parts[1], lineno), _parse_iri(parts[3], lineno), lineno
            )
            continue
        if current is None:
            raise SchemaError(f"line {lineno}: directive before any 'unit' line")
        if head == "template":
            if len(parts) != 4:
                raise SchemaError(f"line {lineno}: expected 'template ?s <pred> ?o'")
            subject = _parse_slot(parts[1], lineno, object_position=False)
            predicate = _parse_iri(parts[2], lineno)
            obj = _parse_slot(parts[3], lineno, object_position=True)
            current.templates.append(TripleTemplate(subject, predicate, obj))
        elif head == "subject":
            if len(parts) != 2:
                raise SchemaError(f"line {lineno}: expected 'subject ?var'")
            var = _parse_slot(parts[1], lineno, object_position=False)
            if not isinstance(var, Var):
                raise SchemaError(f"line {lineno}: subject must be a variable")
            current.subject_var = var.name
        elif head == "arg":
            if len(parts) not in (2, 3):
                raise SchemaError(f"line {lineno}: expected 'arg ?var [numeric]'")
            var = _parse_slot(parts[1], lineno, object_position=False)
            if not isinstance(var, Var):
                raise SchemaError(f"line {lineno}: arg must be a variable")
            current.argument_vars.append(var.name)
            if len(parts) == 3:
                if parts[2] != "numeric":
                    raise SchemaError(f"line {lineno}: unknown arg modifier {parts[2]!r}")
                current.numeric_vars.add(var.name)
        elif head == "adjunct":
            if len(parts) != 2:
                raise SchemaError(f"line {lineno}: expected 'adjunct ?var'")
            var = _parse_slot(parts[1], lineno, object_position=False)
            if not isinstance(var, Var):
                raise SchemaError(f"line {lineno}: adjunct must be a variable")
            current.adjunct_vars.append(var.name)
        elif head == "relation":
            if len(parts) != 2 or parts[1] not in (QUALITATIVE, QUANTITATIVE):
                raise SchemaError(
                    f"line {lineno}: expected 'relation qualitative|quantitative'"
                )
            current.relation = parts[1]
        elif head == "label":
            m = _LABEL_RE.match(line)
            if not m:
                raise SchemaError(f'line {lineno}: expected label "..."')
            current.label = m.group(1)
        else:
            raise SchemaError(f"line {lineno}: unknown directive {head!r}")
    if current is not None:
        schemas.append(current.build())
    return schemas
