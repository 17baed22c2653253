"""One lexical rule for every reader of ``<IRI>`` tokens, and the README's
worked examples of the settings and rules formats.

TriG and N-Quads take an IRI through their scanner, which also decodes
``\\u`` escapes; the settings and rules readers (``.cat``, ``.sus``,
``.pol``, ``.lp``, ``.pat``) take ``store.IRI_TOKEN``, an absolute IRI in
angle brackets without escapes. Either way a token is accepted with the
same IRI by every reader or rejected by every reader with a
``KgUnitsError``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgunits.errors import KgUnitsError
from kgunits.fdo import load_policy
from kgunits.logic import parse_rules
from kgunits.rdfio import parse_nquads, parse_trig
from kgunits.schemas import compile_schema
from kgunits.store import is_absolute_iri, load_catalog
from kgunits.translate import parse_patterns

P = "<https://e.org/p>"

# Each reader takes an IRI token and gives back the IRI it read there.
SETTINGS_READERS = {
    ".cat partial-order": lambda t: load_catalog(f"partial-order {t}\n").partial_orders[0],
    ".cat prefix": lambda t: load_catalog(f"prefix e: {t}\n").prefixes["e"],
    ".sus unit": lambda t: compile_schema(
        f"unit {t} anchor {P}\ntemplate ?s {P} ?o\nsubject ?s\n"
    )[0].unit_class,
    ".sus predicate": lambda t: compile_schema(
        f"unit {P} anchor {t}\ntemplate ?s {t} ?o\nsubject ?s\n"
    )[0].templates[0].predicate,
    ".sus template object": lambda t: compile_schema(
        f"unit {P} anchor {P}\ntemplate ?s {P} {t}\nsubject ?s\n"
    )[0].templates[0].object.value,
    ".lp": lambda t: parse_rules(f"p({t}).").rules[0].head.terms[0],
    ".pat when": lambda t: parse_patterns(
        f"pattern x\nwhen p({t}, Y)\nemit ClassAssertion(Y, Y)\n"
    )[0].positive[0].terms[0],
    ".pat emit": lambda t: parse_patterns(
        f"pattern x\nwhen p(Y)\nemit ClassAssertion({t}, Y)\n"
    )[0].outputs[0].expr,
    ".pol target": lambda t: load_policy(f"deny {t}\n").rules[0].unit_class,
    ".pol condition value": lambda t: load_policy(
        f"deny * when subject.status={t}\n"
    ).rules[0].value,
}
READERS = {
    "TriG": lambda t: parse_trig(f"{t} {P} {P} .").quads[0].subject,
    "N-Quads": lambda t: parse_nquads(f"{t} {P} {P} .\n").quads[0].subject,
    **SETTINGS_READERS,
}


def _read(reader, token: str) -> str | None:
    """The IRI ``reader`` reads from ``token``, or None if it rejects it."""
    try:
        return reader(token)
    except KgUnitsError:
        return None


# (token, the IRI every reader reads, or None where every reader rejects it)
_TABLE = [
    ("<https://e.org/x>", "https://e.org/x"),
    ("<urn:uuid:1234>", "urn:uuid:1234"),
    ("<https://e.org/x#frag>", "https://e.org/x#frag"),
    # Characters an IRI may hold that Unicode calls whitespace or a line end.
    ("<https://e.org/a\u00a0#b>", "https://e.org/a\u00a0#b"),
    ("<https://e.org/a\u2028b>", "https://e.org/a\u2028b"),
    ("<https://e.org/caf\u00e9>", "https://e.org/caf\u00e9"),
    ("<e.org/rel>", None),
    ('<https://e.org/C"x>', None),
    ("<https://e.org/C{x}>", None),
    ("<https://e.org/C|x>", None),
    ("<https://e.org/C^x>", None),
    ("<https://e.org/C`x>", None),
    ("<https://e.org/a b>", None),
    ("<https://e.org/s\n>", None),
    ("<https://e.org/x", None),
    ("<>", None),
]


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("token, iri", _TABLE, ids=[token for token, _ in _TABLE])
def test_every_reader_reads_an_iri_token_alike(reader, token, iri):
    assert _read(READERS[reader], token) == iri


@pytest.mark.parametrize("reader", list(READERS))
def test_only_trig_and_nquads_decode_escapes(reader):
    expected = "https://e.org/aA" if reader in ("TriG", "N-Quads") else None
    assert _read(READERS[reader], "<https://e.org/a\\u0041>") == expected


_CHARS = "aZ09+-.:/#%?=&_~()," + ' \t\n\r\x00\x1f\x7f<>"{}|^`\\' + "\x85\u00a0\u00e9\u0661\u2028\u3000"


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.text(alphabet=_CHARS, max_size=12),
        st.builds(
            "{}:{}".format,
            st.sampled_from(["https", "urn", "x-y.z+1", "9a", ""]),
            st.text(alphabet=_CHARS, max_size=10),
        ),
    ),
    st.sampled_from(list(SETTINGS_READERS)),
)
@example("https://e.org/x\n", ".lp")
@example("https://e.org/a b", ".pat emit")
def test_settings_readers_read_back_exactly_the_absolute_iris(value, reader):
    read = _read(SETTINGS_READERS[reader], f"<{value}>")
    assert (read == value) == is_absolute_iri(value)


# -- the README's worked examples ---------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"

_PARSERS = {
    "sus": lambda text, prefixes: compile_schema(text),
    "cat": lambda text, prefixes: load_catalog(text).partial_orders,
    "lp": lambda text, prefixes: parse_rules(text, prefixes).rules,
    "pat": lambda text, prefixes: parse_patterns(text, prefixes),
    "pol": lambda text, prefixes: load_policy(text).rules,
}


def _readme_examples() -> list[tuple[str, str]]:
    """(format, text) of each fenced block under "File formats", the format
    being the last ``(`.ext`)`` the prose names before the block."""
    section = README.read_text(encoding="utf-8").split("\n## File formats\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    examples = []
    fmt = None
    for m in re.finditer(r"\(`\.(\w+)`\)|^```\n(.*?)^```$", section, re.M | re.S):
        if m.group(1):
            fmt = m.group(1)
        else:
            examples.append((fmt, m.group(2)))
    return examples


_EXAMPLES = _readme_examples()


def test_readme_shows_an_example_of_each_settings_and_rules_format():
    assert sorted({fmt for fmt, _ in _EXAMPLES}) == sorted(_PARSERS)


@pytest.mark.parametrize("fmt, text", _EXAMPLES, ids=[fmt for fmt, _ in _EXAMPLES])
def test_readme_example_parses(catalog, fmt, text):
    assert _PARSERS[fmt](text, catalog.prefixes)
