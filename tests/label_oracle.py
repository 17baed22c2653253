"""The label renderer as `kgunits.units` wrote it before `label_templates`
became the one table from a unit class to its template: a second lookup in
`_BUILTIN_LABELS` for an identification class that no schema labels, the
choice of schemas or resolved templates, and a loop over the template's
characters that cuts each placeholder at the next '}'.

Kept as the oracle of the differential tests in `test_labels.py`.
"""

from __future__ import annotations

from typing import Mapping

from kgunits.errors import LabelError
from kgunits.schemas import StatementSchema
from kgunits.store import INSTANCE_KINDS, Iri, Literal, QuadDataset, VocabularyCatalog, local_name
from kgunits.units import StatementUnit, _builtin_schemas, _warn, label_index

_BUILTIN_LABELS = {row.identification_class: row.label for row in INSTANCE_KINDS.values()}


def label_templates(
    schemas: list[StatementSchema], catalog: VocabularyCatalog
) -> dict[str, tuple[str, tuple[str, ...]]]:
    """Unit class -> (label template, adjunct variables) of the first
    schema, declared or built in, that defines the class."""
    out: dict[str, tuple[str, tuple[str, ...]]] = {}
    for s in _builtin_schemas(list(schemas), catalog):
        out.setdefault(s.unit_class, (s.label_template, s.adjunct_vars))
    return out


def render_dynamic_label(
    unit: StatementUnit,
    dataset: QuadDataset,
    catalog: VocabularyCatalog,
    schemas: list[StatementSchema] | None = None,
    *,
    templates: Mapping[str, tuple[str, tuple[str, ...]]] | None = None,
    warned: set[str] | None = None,
) -> str:
    """Substitute resource labels into the unit's label template.

    The template comes from ``schemas`` or, for a pass over many units,
    from ``templates``: the ``label_templates`` of the schemas, resolved
    once. Pass one or the other. Resources without a label fall back to
    their IRI local name, with a warning logged once per resource not yet
    in ``warned`` (a pass over many units shares one set); literals render
    as their lexical form. A placeholder naming an adjunct the unit left
    unbound is dropped together with the template text since the previous
    placeholder.
    """
    if schemas is not None and templates is not None:
        raise TypeError("render_dynamic_label takes schemas or templates, not both")
    template, adjuncts = "", ()
    if unit.schema_class:
        if templates is None:
            templates = label_templates(schemas or [], catalog)
        template, adjuncts = templates.get(unit.schema_class, ("", ()))
    if not template:
        template = _BUILTIN_LABELS.get(unit.schema_class or "", "")
    if not template:
        parts = ["{s}", local_name(unit.anchor_predicate or "relates to")]
        bound = [o for o in unit.objects if o.var]
        if bound:
            parts.extend("{%s}" % o.var for o in bound)
        elif unit.objects:
            parts.append("{o}")
        template = " ".join(parts)

    labels = label_index(dataset, catalog)
    if warned is None:
        warned = set()
    bindings = dict(unit.bindings)
    bindings.setdefault("s", Iri(unit.subject))
    if unit.objects and "o" not in bindings:
        bindings["o"] = unit.objects[0].term

    def substitute(name: str) -> str:
        if name not in bindings:
            raise LabelError(
                f"label template for {unit.upri} references unbound placeholder {{{name}}}"
            )
        term = bindings[name]
        if isinstance(term, Literal):
            return term.lexical
        label = labels.get(term.value)
        if label is None:
            if term.value not in warned:
                warned.add(term.value)
                _warn("no label for %s; using local name", term.value)
            return local_name(term.value)
        return label

    out = []
    since_placeholder = 0  # len(out) right after the previous placeholder
    i = 0
    while i < len(template):
        ch = template[i]
        if ch == "{":
            j = template.index("}", i)
            name = template[i + 1 : j].lstrip("?")
            if name in adjuncts and name not in bindings:
                del out[since_placeholder:]
            else:
                out.append(substitute(name))
            since_placeholder = len(out)
            i = j + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)

