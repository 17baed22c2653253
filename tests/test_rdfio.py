from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgunits import vocab
from kgunits.errors import BlankNodeError, ParseError
from kgunits.rdfio import (
    parse_nquads,
    parse_quads,
    parse_trig,
    serialize_nquads,
    serialize_quads,
    serialize_trig,
    trig_pieces,
)
from kgunits.store import Iri, Literal, Quad, QuadDataset

import rdfio_oracle

EX = "https://example.org/kg/"
REL = "https://example.org/rel/"


def test_empty_documents():
    assert len(parse_quads("", "nquads")) == 0
    assert len(parse_quads("", "trig")) == 0
    assert serialize_quads(QuadDataset(), "nquads") == ""


def test_single_quad_nquads():
    text = (
        f"<{EX}LarsRightHand> <{REL}has-part> <{EX}LarsRightThumb> <{EX}g1> .\n"
    )
    ds = parse_quads(text, "nquads")
    assert len(ds) == 1
    quad = ds.quads[0]
    assert quad.subject == EX + "LarsRightHand"
    assert quad.graph == EX + "g1"


def test_nquads_default_graph_assignment():
    ds = parse_quads(f"<{EX}s> <{REL}p> <{EX}o> .", "nquads")
    assert ds.quads[0].graph == vocab.DEFAULT_GRAPH


def test_blank_node_rejected_everywhere():
    with pytest.raises(BlankNodeError):
        parse_quads(f"_:b0 <{REL}p> <{EX}o> <{EX}g> .", "nquads")
    with pytest.raises(BlankNodeError):
        parse_quads(f"<{EX}s> <{REL}p>_:b0 <{EX}g> .".replace("p>_", "p> _"), "nquads")
    with pytest.raises(BlankNodeError):
        parse_quads("@prefix ex: <https://example.org/> .\nex:g { _:b ex:p ex:o . }", "trig")
    with pytest.raises(BlankNodeError):
        parse_quads(
            "@prefix ex: <https://example.org/> .\nex:g { ex:s ex:p [] . }", "trig"
        )


def test_syntax_error_carries_position():
    good = f"<{EX}s> <{REL}p> <{EX}o> <{EX}g> ."
    with pytest.raises(ParseError) as err:
        parse_quads(good + "\nnot-an-iri .", "nquads")
    assert err.value.line == 2
    assert err.value.column >= 1


def test_trig_literals_and_sugar():
    text = """
@prefix ex: <https://example.org/kg/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:g {
    ex:s a ex:Thing ;
        ex:count 3 ;
        ex:weight 5.0 ;
        ex:flag true ;
        ex:name "Lars' \\"right\\" hand"@en ;
        ex:note "plain" .
}
"""
    ds = parse_quads(text, "trig")
    objects = {q.predicate: q.object for q in ds}
    assert objects[vocab.RDF_TYPE] == Iri(EX + "Thing")
    assert objects[EX + "count"] == Literal("3", datatype=vocab.XSD_INTEGER)
    assert objects[EX + "weight"] == Literal("5.0", datatype=vocab.XSD_DECIMAL)
    assert objects[EX + "flag"] == Literal("true", datatype=vocab.XSD_BOOLEAN)
    assert objects[EX + "name"].language == "en"
    assert objects[EX + "name"].lexical == 'Lars\' "right" hand'
    assert objects[EX + "note"] == Literal("plain")


def test_trig_dotted_local_names():
    text = """
@prefix ex: <https://example.org/kg/> .
ex:g { ex:v1.2 ex:p ex:doi10.1000..182 . ex:s ex:p ex:o.}
ex:s ex:p "x"@en.
"""
    ds = parse_quads(text, "trig")
    assert {(q.subject, q.object) for q in ds} == {
        (EX + "v1.2", Iri(EX + "doi10.1000..182")),
        (EX + "s", Iri(EX + "o")),
        (EX + "s", Literal("x", language="en")),
    }
    assert parse_quads(serialize_quads(ds, "trig"), "trig") == ds


@pytest.mark.parametrize(
    "separator, obj",
    [("\r\n ", "ex:C"), ("#c\n", "ex:C"), ("\r", "ex:C"), ("", f"<{EX}C>"), ("", '"C"')],
)
def test_trig_a_keyword_ends_at_any_delimiter(separator, obj):
    """``a`` is the keyword whenever the next character cannot continue a
    prefixed name; ``a:b`` and ``ab:c`` stay names."""
    text = f"@prefix ex: <{EX}> .\n@prefix a: <{REL}> .\nex:s a{separator}{obj} ; a:b ex:o .\n"
    predicates = {q.predicate for q in parse_trig(text)}
    assert predicates == {vocab.RDF_TYPE, REL + "b"}


@pytest.mark.parametrize(
    "tail",
    ['"abc\\u12', '"abc\\', '"""ab\\U0001F6', f"<{EX}\\u00", f"<{EX}\\"],
)
def test_trig_escape_truncated_at_end_of_input(tail):
    with pytest.raises(ParseError) as err:
        parse_trig(f"@prefix ex: <{EX}> .\nex:s ex:p {tail}")
    assert err.value.line == 2


@pytest.mark.parametrize("position", ["string", "iri"])
@pytest.mark.parametrize(
    "escape",
    ["\\u+041", "\\u 41 ", "\\u0_41", "\\U0000_041", "\\U+0000041", "\\u\u0660\u0660\u0664\u0661",
     "\\uD800", "\\U0000DFFF", "\\U00110000"],
)
def test_unicode_escape_takes_only_hex_digits(escape, position):
    """A sign, a space, ``_`` or a non-ASCII digit is not a hex digit, though
    ``int(digits, 16)`` would read each of them; a surrogate or a number
    past U+10FFFF names no character that UTF-8 can write."""
    obj = f'"x{escape}"' if position == "string" else f"<{EX}x{escape}>"
    for parse in (parse_trig, parse_nquads):
        with pytest.raises(ParseError, match="invalid unicode escape") as err:
            parse(f"<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> {obj} .\n")
        assert err.value.line == 2


@pytest.mark.parametrize(
    "escape, char", [("\\u0041", "A"), ("\\u00e9", "\u00e9"), ("\\U0001F600", "\U0001F600")]
)
def test_unicode_escape_with_hex_digits(escape, char):
    for obj, expected in ((f'"x{escape}"', Literal("x" + char)), (f"<{EX}x{escape}>", Iri(EX + "x" + char))):
        assert [q.object for q in parse_trig(f"<{EX}s> <{EX}p> {obj} .")] == [expected]


def test_unused_prefix_is_not_declared():
    """A literal holding ``owl:`` declares no prefix; only the names the
    compacted IRIs use are declared."""
    ds = QuadDataset([Quad(EX + "s", REL + "p", Literal("see owl: docs"), EX + "g")])
    text = serialize_trig(ds, {"ex": EX, "owl": vocab.OWL_NS, "rel": REL, "x": REL})
    assert text.startswith(f"@prefix ex: <{EX}> .\n@prefix rel: <{REL}> .\n\nex:g {{\n")
    assert parse_trig(text) == ds


def test_trig_undeclared_prefix_errors():
    with pytest.raises(ParseError):
        parse_quads("ex:g { ex:s ex:p ex:o . }", "trig")


def _sample_dataset():
    return QuadDataset(
        [
            Quad(EX + "s1", REL + "p", Iri(EX + "o1"), EX + "g1"),
            Quad(EX + "s1", REL + "p", Literal("5.0", datatype=vocab.XSD_DECIMAL), EX + "g1"),
            Quad(EX + "s2", REL + "q", Literal("zwei", language="de"), EX + "g2"),
            Quad(EX + "s3", REL + "r", Literal('tricky "quote"\nline'), EX + "g2"),
        ]
    )


@pytest.mark.parametrize("syntax", ["nquads", "trig"])
def test_round_trip(syntax):
    ds = _sample_dataset()
    text = serialize_quads(ds, syntax)
    assert parse_quads(text, syntax) == ds


@pytest.mark.parametrize("syntax", ["nquads", "trig"])
def test_serialization_is_insertion_order_independent(syntax):
    quads = list(_sample_dataset())
    rng = random.Random(13)
    reference = serialize_quads(QuadDataset(quads), syntax)
    for _ in range(5):
        rng.shuffle(quads)
        assert serialize_quads(QuadDataset(quads), syntax) == reference


# A '.' may sit inside a local name but neither starts nor ends one.
_iri_local = st.from_regex(r"[a-zXYZ0-9]([a-zXYZ0-9.]{0,6}[a-zXYZ0-9])?", fullmatch=True)
_literal_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), min_codepoint=9),
    max_size=20,
)


@st.composite
def _quads(draw):
    subject = EX + draw(_iri_local)
    predicate = REL + draw(_iri_local)
    graph = EX + "g" + draw(_iri_local)
    if draw(st.booleans()):
        obj = Iri(EX + draw(_iri_local))
    else:
        language = draw(st.sampled_from([None, "en", "de"]))
        if language:
            obj = Literal(draw(_literal_text), language=language)
        else:
            datatype = draw(
                st.sampled_from([vocab.XSD_STRING, vocab.XSD_INTEGER, EX + "dt"])
            )
            obj = Literal(draw(_literal_text), datatype=datatype)
    return Quad(subject, predicate, obj, graph)


@settings(max_examples=60, deadline=None)
@given(st.lists(_quads(), max_size=12), st.sampled_from(["nquads", "trig"]))
def test_round_trip_property(quads, syntax):
    ds = QuadDataset(quads)
    # Declared prefixes make TriG write prefixed names, dotted ones included.
    prefixes = {**vocab.PREFIXES, "ex": EX, "rel": REL}
    assert parse_quads(serialize_quads(ds, syntax, prefixes), syntax) == ds


def test_single_triple_dataset_serializes_to_one_nquads_line():
    ds = QuadDataset(
        [Quad(EX + "LarsRightHand", REL + "has-part", Iri(EX + "LarsRightThumb"), EX + "g1")]
    )
    text = serialize_quads(ds, "nquads")
    assert text.count("\n") == 1
    assert parse_quads(text, "nquads") == ds


def test_layer_totality_every_quad_tagged_once():
    from kgunits.store import DEFAULT_CATALOG

    ds = _sample_dataset()
    data, units = ds.split_layers(DEFAULT_CATALOG)
    assert len(data) + len(units) == len(ds)
    assert set(data) | set(units) == set(ds)
    # re-tagging is idempotent
    assert ds.split_layers(DEFAULT_CATALOG) == (data, units)


def test_unknown_syntax_rejected():
    with pytest.raises(ParseError):
        parse_quads("", "turtle")
    with pytest.raises(ParseError):
        serialize_quads(QuadDataset(), "turtle")


# ---------------------------------------------------------------------------
# Differential tests against the character-at-a-time reader and the
# unmemoized writer kept in rdfio_oracle.
# ---------------------------------------------------------------------------


def _outcome(parse, text):
    """What a parser makes of ``text``: the dataset, or the failure with its
    type, message and position."""
    try:
        return parse(text)
    except Exception as exc:  # the oracle's own failures must be matched too
        return (type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "column", None))


_ws = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\r", "#c\n", " # note\n", "\n# <x> \"y\n  "])
# Mostly characters an IRI may hold; the rest make it invalid once unescaped.
_esc_char = st.sampled_from(["é", "x", "-", "\U0001F600"] * 4 + [">", " ", '"', "\\"])


@st.composite
def _escaped_iri(draw):
    parts = [EX]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 2)):
            parts.append(draw(_iri_local))
        else:
            ch = draw(_esc_char)
            parts.append(f"\\u{ord(ch):04X}" if ord(ch) <= 0xFFFF and draw(st.booleans()) else f"\\U{ord(ch):08X}")
    return "<" + "".join(parts) + ">"


_string_piece = st.one_of(
    st.text(alphabet="ab é\t'#<>.:;", max_size=4),
    st.sampled_from(['\\"', "\\\\", "\\n", "\\t", "\\'", "\\u00E9", "\\U0001F600", "\\r"]),
)


@st.composite
def _string(draw):
    pieces = draw(st.lists(_string_piece, max_size=5))
    if draw(st.booleans()):
        # Long form: raw newlines and lone quotes allowed inside.
        extra = draw(st.lists(st.sampled_from(["\n", "\r\n", '"', '""', "x"]), max_size=3))
        body = "".join(draw(st.permutations(pieces + extra)))
        text = f'"""{body}"""'
    else:
        text = '"' + "".join(pieces) + '"'
    suffix = draw(st.sampled_from(["", "@en", "@de-AT", "^^xsd:integer", f"^^<{EX}dt>", "^^ex:dt.v1"]))
    return text + suffix


_number = st.from_regex(r"[+-]?[0-9]{1,3}(\.[0-9]{1,2})?", fullmatch=True)


@st.composite
def _object_text(draw):
    kind = draw(st.sampled_from(["iri", "name", "string", "number", "boolean"]))
    if kind == "iri":
        return draw(_escaped_iri())
    if kind == "name":
        return "ex:" + draw(_iri_local)
    if kind == "string":
        return draw(_string())
    if kind == "number":
        return draw(_number)
    return draw(st.sampled_from(["true", "false"]))


@st.composite
def _trig_documents(draw):
    ws = lambda: draw(_ws)  # noqa: E731
    out = [f"@prefix ex:{ws()}<{EX}> .{ws()}", f"PREFIX xsd: <{vocab.XSD_NS}>{ws()}"]
    for _ in range(draw(st.integers(1, 3))):
        triples = []
        for _ in range(draw(st.integers(1, 3))):
            subject = draw(st.one_of(_escaped_iri(), _iri_local.map("ex:".__add__)))
            predicate = draw(st.sampled_from(["a", "ex:p", f"<{REL}p>", "ex:p.q"]))
            objects = f"{ws()},{ws()}".join(draw(st.lists(_object_text(), min_size=1, max_size=3)))
            triples.append(f"{subject}{ws()}{predicate}{ws()}{objects}")
        block = f"{ws()};{ws()}ex:p ex:o{ws()}.{ws()}".join(triples)
        graph = draw(st.sampled_from(["ex:g", f"<{EX}g2>", "GRAPH ex:g3", ""]))
        if graph:
            out.append(f"{graph}{ws()}{{{ws()}{block}{ws()}}}{ws()}")
        else:
            out.append(f"{block}{ws()}.{ws()}")
    return "".join(out)


@st.composite
def _nquads_documents(draw):
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        # N-Quads has no prefixed names, so no ^^xsd:... datatype either.
        obj = draw(st.one_of(_escaped_iri(), _string().filter(lambda s: ":" not in s.rpartition('"')[2])))
        graph = draw(st.sampled_from(["", f" <{EX}g>", f"\t<{EX}g\\u0031>"]))
        end = draw(st.sampled_from(["\n", "\r\n", " # c\n", ""]))
        lines.append(f"{draw(_escaped_iri())} <{REL}p>\t{obj}{graph} .{end}")
    return "\n".join(lines)


def _mutate(draw, text):
    i = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["truncate", "delete", "insert", "escape"]))
    if how == "truncate":
        return text[:i]
    if how == "escape":
        # Mostly within a string or an IRI: end the input inside an escape,
        # or put in an escape whose digits are not all hex.
        opens = [j + 1 for j, ch in enumerate(text) if ch in '<"']
        i = draw(st.sampled_from(opens)) if opens else i
        if draw(st.booleans()):
            return text[:i] + draw(st.sampled_from(["\\", "\\u", "\\u12", "\\U0001F6"]))
        return text[:i] + draw(st.sampled_from(["\\u+041", "\\u 41 ", "\\u0_41", "\\U0000_041"])) + text[i:]
    if how == "delete":
        return text[:i] + text[i + 1 :]
    return text[:i] + draw(st.sampled_from(list('<>"\\\n#.{}:x ;,@^_[u'))) + text[i:]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(["trig", "nquads"]), st.booleans())
def test_parse_matches_character_scanner(data, syntax, mutated):
    """Same dataset, or the same error type, message, line and column, as
    the character-at-a-time scanner, on generated and mutated documents."""
    text = data.draw(_trig_documents() if syntax == "trig" else _nquads_documents())
    if mutated:
        text = _mutate(data.draw, text)
    parse, oracle_parse = {
        "trig": (parse_trig, rdfio_oracle.parse_trig),
        "nquads": (parse_nquads, rdfio_oracle.parse_nquads),
    }[syntax]
    assert _outcome(parse, text) == _outcome(oracle_parse, text)


_HEAD = f"@prefix ex: <{EX}> .\nex:g {{\n  ex:s ex:p "


@pytest.mark.parametrize(
    "text",
    [
        _HEAD + f"<{EX}o",  # unterminated IRI
        _HEAD + '"abc',  # unterminated string
        _HEAD + '"""ab\nc"',  # unterminated long string
        _HEAD + '"ab\nc" . }',  # newline in a short string
        _HEAD + '"a\\qb" . }',  # bad string escape
        _HEAD + '"""a\n\\qb""" . }',  # bad escape in a long string
        _HEAD + "<https://example.org/\\x41> . }",  # bad IRI escape
        _HEAD + "<https://example.org/\\u00G1> . }",  # bad unicode digits
        _HEAD + "<relative/iri> . }",  # relative IRI
        _HEAD + "<https://exa\nmple.org/> . }",  # newline inside an IRI
        _HEAD + f"<{EX}o\n> . }}",  # newline ending an IRI
        _HEAD + "+.5 . }",  # sign without digits
        _HEAD + "\u00b2 . }",  # a superscript digit is not an ASCII digit
        _HEAD + "1\u00b2 . }",  # nor after one
        _HEAD + "\u0661\u0662 . }",  # Arabic-Indic digits
        _HEAD + "+\u0663.\u0664 . }",  # nor in a signed decimal
        _HEAD + '"x"@ . }',  # empty language tag, which N-Quads cannot write back
        _HEAD + '"abc\\u12',  # input ends inside a string's unicode escape
        _HEAD + '"abc\\',  # input ends after a string's backslash
        _HEAD + f"<{EX}\\U0001",  # input ends inside an IRI's unicode escape
    ],
)
def test_malformed_trig_fails_like_character_scanner(text):
    with pytest.raises(ParseError) as err:
        parse_trig(text)
    assert _outcome(parse_trig, text) == _outcome(rdfio_oracle.parse_trig, text)
    assert err.value.line >= 3


@pytest.mark.parametrize(
    "text",
    [
        f"<{EX}s> <{REL}p> <{EX}o> .\n<{EX}s>\n<{REL}p> <{EX}o> .\n",  # a line break between terms
        f"<{EX}s> <{REL}p> <{EX}o> # note\n<{EX}g> .\n",  # a comment ends the line
        f'<{EX}s> <{REL}p> "a\r\nb" .\n',  # CRLF inside a short string
        f"<{EX}s> <{REL}p> <{EX}o> <{EX}g\\u00> .\n",  # short unicode escape
        f"<{EX}s> <{REL}p> <{EX}o\n> .\n",  # newline ending an IRI
    ],
)
def test_malformed_nquads_fails_like_character_scanner(text):
    with pytest.raises(ParseError):
        parse_nquads(text)
    assert _outcome(parse_nquads, text) == _outcome(rdfio_oracle.parse_nquads, text)


_PREFIX_TABLE = {
    "ex": "https://example.org/",
    "kg": "https://example.org/kg/",
    "kgalias": "https://example.org/kg/",
    "k": "https://example.org/k",
    "kgdash": "https://example.org/kg-",
    "rel": REL,
    "xsd": vocab.XSD_NS,
}
_NAMESPACES = sorted(set(_PREFIX_TABLE.values())) + ["https://other.example/"]
_any_iri = st.builds(
    str.__add__, st.sampled_from(_NAMESPACES), st.text(alphabet="ab0_.-/:#é", max_size=5)
)


@st.composite
def _serializable_quads(draw):
    if draw(st.booleans()):
        obj = Iri(draw(_any_iri))
    else:
        lexical = draw(st.text(alphabet=st.sampled_from(list('ab"\\\n\r\t\x00\x1f\x7f é')), max_size=6))
        lexical += draw(st.sampled_from(["", " ex: ", "kg:x", "see rel: docs"]))
        if draw(st.booleans()):
            obj = Literal(lexical, language="en")
        else:
            obj = Literal(lexical, datatype=draw(st.sampled_from([vocab.XSD_STRING, draw(_any_iri)])))
    return Quad(draw(_any_iri), draw(_any_iri), obj, draw(_any_iri))


_OTHER = "https://other.example/"


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_serializable_quads(), max_size=10),
    st.one_of(st.none(), st.dictionaries(st.sampled_from(sorted(_PREFIX_TABLE)), st.sampled_from(_NAMESPACES))),
)
@example([], None)
@example([Quad(_OTHER + "s", _OTHER + "p", Literal("x", datatype=_OTHER + "d"), _OTHER + "g")], _PREFIX_TABLE)
@example([Quad(EX + "s", REL + "p", Iri(EX + o), EX + "g") for o in "abc"], _PREFIX_TABLE)
def test_serialize_matches_unmemoized_writer(quads, prefixes):
    """Byte-identical output under nested namespaces, two names bound to one
    namespace and local names valid only under the shorter namespace; also
    for an empty dataset, one that uses no prefix and one with one graph.
    The pieces are the header, then one piece per graph, since every graph
    here is shorter than a piece."""
    ds = QuadDataset(quads)
    header, *graphs = trig_pieces(ds, prefixes)
    assert header + "".join(graphs) == rdfio_oracle.serialize_trig(ds, prefixes)
    assert serialize_trig(ds, prefixes) == rdfio_oracle.serialize_trig(ds, prefixes)
    assert all(line.startswith("@prefix ") for line in header.rstrip("\n").splitlines())
    assert len(graphs) == len(ds.graph_names())
    for name, piece in zip(ds.graph_names(), graphs):
        assert parse_trig(header + piece) == QuadDataset(ds.graph(name))
    text = serialize_trig(ds, _PREFIX_TABLE)
    assert text == rdfio_oracle.serialize_trig(ds, _PREFIX_TABLE)
    assert serialize_nquads(ds) == rdfio_oracle.serialize_nquads(ds)
    # The declared prefixes are exactly those of the compacted IRIs.
    iris = {v for q in ds for v in (q.subject, q.predicate, q.graph)}
    iris |= {q.object.value for q in ds if isinstance(q.object, Iri)}
    iris |= {q.object.datatype for q in ds if isinstance(q.object, Literal)
             and q.object.language is None and q.object.datatype != vocab.XSD_STRING}
    forms = [rdfio_oracle._compact(iri, _PREFIX_TABLE) for iri in iris]
    declared = {line.split()[1][:-1] for line in text.splitlines() if line.startswith("@prefix ")}
    assert declared == {f.split(":", 1)[0] for f in forms if not f.startswith("<")}


def test_compaction_picks_the_longest_namespace_with_a_valid_local_name():
    ds = QuadDataset(
        [
            Quad("https://example.org/kg/a.b", REL + "p", Iri("https://example.org/kg-"), EX + "g"),
            Quad("https://example.org/kg-.x", REL + "p", Iri("https://example.org/a"), EX + "g"),
        ]
    )
    text = serialize_trig(ds, _PREFIX_TABLE)
    assert "    k:g-.x rel:p ex:a .\n" in text
    assert "    kg:a.b rel:p k:g- .\n" in text
    assert text == rdfio_oracle.serialize_trig(ds, _PREFIX_TABLE)
