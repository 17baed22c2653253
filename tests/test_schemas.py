from __future__ import annotations

import pytest

from kgunits import vocab
from kgunits.errors import SchemaError
from kgunits.schemas import QUALITATIVE, QUANTITATIVE, compile_schema
from kgunits.store import Literal

SUC = "https://example.org/su-class/"
REL = "https://example.org/rel/"

HAS_PART = f"""
unit <{SUC}has-part> anchor <{REL}has-part>
relation qualitative
template ?s <{REL}has-part> ?o
subject ?s
arg ?o
label "{{s}} has part {{o}}"
"""

WEIGHT = f"""
unit <{SUC}weight-measurement> anchor <{REL}has-value>
relation quantitative
template ?q <{REL}has-value> ?v
template ?q <{REL}has-unit> ?u
subject ?q
arg ?v numeric
arg ?u
label "{{q}} measures {{v}} {{u}}"
"""


def test_has_part_schema_compiles():
    (schema,) = compile_schema(HAS_PART)
    assert schema.unit_class == SUC + "has-part"
    assert schema.anchor_predicate == REL + "has-part"
    assert schema.relation == QUALITATIVE
    assert schema.subject_var == "s"
    assert schema.argument_vars == ("o",)
    assert len(schema.templates) == 1


def test_weight_schema_compiles_quantitative():
    (schema,) = compile_schema(WEIGHT)
    assert schema.relation == QUANTITATIVE
    assert "v" in schema.numeric_vars
    assert len(schema.templates) == 2
    assert schema.anchor_template.predicate == REL + "has-value"


def test_many_schemas_in_one_document():
    schemas = compile_schema(HAS_PART + "\n" + WEIGHT)
    assert [s.unit_class for s in schemas] == [
        SUC + "has-part",
        SUC + "weight-measurement",
    ]


def test_quantitative_without_numeric_slot_rejected():
    bad = WEIGHT.replace("arg ?v numeric", "arg ?v")
    with pytest.raises(SchemaError):
        compile_schema(bad)


def test_qualitative_with_numeric_argument_rejected():
    bad = HAS_PART.replace("arg ?o", "arg ?o numeric")
    with pytest.raises(SchemaError):
        compile_schema(bad)


def test_subject_variable_must_occur():
    bad = HAS_PART.replace("subject ?s", "subject ?nope")
    with pytest.raises(SchemaError):
        compile_schema(bad)


def test_missing_subject_rejected():
    bad = HAS_PART.replace("subject ?s\n", "")
    with pytest.raises(SchemaError):
        compile_schema(bad)


def test_anchor_must_match_some_template():
    bad = HAS_PART.replace(f"anchor <{REL}has-part>", f"anchor <{REL}other>")
    with pytest.raises(SchemaError):
        compile_schema(bad)


def test_grammar_errors_carry_line_numbers():
    with pytest.raises(SchemaError) as err:
        compile_schema("unit gibberish")
    assert "line 1" in str(err.value)


def test_directive_before_unit_rejected():
    with pytest.raises(SchemaError):
        compile_schema("subject ?s")


def test_adjunct_and_argument_disjoint():
    bad = HAS_PART.replace("arg ?o", "arg ?o\nadjunct ?o")
    with pytest.raises(SchemaError):
        compile_schema(bad)


@pytest.mark.parametrize("label", ["{s} has part {o", "{", "{s} has part {o}{", "{s}} has {"])
def test_label_with_unclosed_brace_rejected(label):
    bad = HAS_PART.replace('label "{s} has part {o}"', f'label "{label}"')
    with pytest.raises(SchemaError, match=f"schema {SUC}has-part: label"):
        compile_schema(bad)



def _with_constant_template(token: str) -> str:
    """``HAS_PART`` plus a template whose object is ``token`` (line 5)."""
    return HAS_PART.replace("subject ?s", f"template ?s <{REL}p> {token}\nsubject ?s")


@pytest.mark.parametrize(
    "token, datatype",
    [("12", vocab.XSD_INTEGER), ("-3", vocab.XSD_INTEGER), ("+4.50", vocab.XSD_DECIMAL)],
)
def test_template_number_is_a_typed_constant(token, datatype):
    (schema,) = compile_schema(_with_constant_template(token))
    assert schema.templates[1].object == Literal(token, datatype=datatype)


@pytest.mark.parametrize("token", ["١٢", "+٣.٤", "1.٥", "²", "1²"])
def test_template_number_takes_ascii_digits_only(token):
    """As in TriG and N-Quads, a number is written in ASCII digits; other
    decimal digits make no number."""
    with pytest.raises(SchemaError, match="line 5: cannot parse slot"):
        compile_schema(_with_constant_template(token))
