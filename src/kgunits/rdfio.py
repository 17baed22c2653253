"""Parsing and deterministic serialization of N-Quads and TriG documents.

The parsers cover the fragment the toolkit emits plus the usual authoring
conveniences (prefixes, ``a``, predicate/object lists, numeric and boolean
shorthand). Blank nodes are rejected outright: the quad model has no place
for them, and silently Skolemizing them would hide modelling mistakes.

Serialization is canonical: quads are written in (graph, subject,
predicate, object) order, so two datasets with equal quad sets always
produce byte-identical documents.

The scanner reads whole tokens: an IRI or string without escapes is one
``str.find`` and one slice, and a run of whitespace is one regex match,
with line and column advanced over the span. The TriG serializer
compacts each distinct IRI once per call, and returns the header and
each graph as its own piece, so a writer need not join the document.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import itemgetter

from . import vocab
from .errors import BlankNodeError, ParseError
from .store import NUMBER_RE, PN_PREFIX_RE, Iri, Literal, Quad, QuadDataset, Term, is_absolute_iri

_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
# A local name a prefixed name may carry: ASCII letters, digits, '_', '-'
# and '.', not starting with '-' or '.' and not ending with '.'.
_PN_LOCAL_RE = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?")
# Characters a lexical form cannot hold verbatim inside "...".
_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')
_ESCAPED = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}

# A token runs up to the next delimiter. Dots may sit inside a local name
# (``ex:v1.2``) but never end one, where a dot ends the statement instead.
_NAME_CHAR = r'[^ \t\r\n<>"{};,.#()\[\]]'
_TOKEN_RE = re.compile(rf"(?:{_NAME_CHAR}|\.+(?={_NAME_CHAR}))*")
# Whitespace and comments; between the terms of an N-Quads line, no newline.
_WS_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
_INLINE_WS_RE = re.compile(r"(?:[ \t\r]+|#[^\n]*)*")
_HEX_RE = re.compile(r"[0-9A-Fa-f]+")
# Lines per TriG piece: a one-graph document is written in bounded pieces.
_PIECE_LINES = 256


class _Scanner:
    """Scanner with 1-based line/column tracking."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _skip_to(self, end: int):
        """Advance over ``text[pos:end]`` in one step."""
        last = self.text.rfind("\n", self.pos, end)
        if last < 0:
            self.col += end - self.pos
        else:
            self.line += self.text.count("\n", self.pos, end)
            self.col = end - last
        self.pos = end

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)

    def blank_error(self) -> BlankNodeError:
        return BlankNodeError("blank node encountered; the model is blank-node-free", self.line, self.col)

    def skip_ws(self, newlines: bool = True):
        end = (_WS_RE if newlines else _INLINE_WS_RE).match(self.text, self.pos).end()
        if end != self.pos:
            self._skip_to(end)

    def expect(self, ch: str):
        if self.eof() or self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.advance()

    def read_iriref(self) -> str:
        self.expect("<")
        end = self.text.find(">", self.pos)
        if end >= 0 and "\\" not in self.text[self.pos : end]:
            iri = self.text[self.pos : end]
            self._skip_to(end + 1)
        else:
            iri = self._read_escaped_iriref()
        if not is_absolute_iri(iri):
            raise self.error(f"not a valid absolute IRI: <{iri}>")
        return iri

    def _read_escaped_iriref(self) -> str:
        out = []
        while True:
            if self.eof():
                raise self.error("unterminated IRI")
            ch = self.advance()
            if ch == ">":
                return "".join(out)
            if ch == "\\":
                out.append(self._read_unicode_escape())
            else:
                out.append(ch)

    def _read_unicode_escape(self) -> str:
        """The character of a ``\\u`` or ``\\U`` escape, read after its
        backslash; anything but 4 or 8 ASCII hex digits naming a Unicode
        scalar value (no surrogate, which UTF-8 cannot hold) is a ParseError."""
        kind = "" if self.eof() else self.advance()
        if kind not in ("u", "U"):
            raise self.error(f"invalid escape \\{kind} in IRI" if kind else "truncated escape at end of input")
        width = 4 if kind == "u" else 8
        digits = self.text[self.pos : self.pos + width]
        self._skip_to(self.pos + len(digits))
        if len(digits) < width:
            raise self.error(f"truncated unicode escape \\{kind}{digits} at end of input")
        code = int(digits, 16) if _HEX_RE.fullmatch(digits) else -1
        if not (0 <= code < 0xD800 or 0xE000 <= code <= 0x10FFFF):
            raise self.error(f"invalid unicode escape \\{kind}{digits}")
        return chr(code)

    def read_string(self) -> str:
        self.expect('"')
        long_form = self.text.startswith('""', self.pos)
        if long_form:  # """..."""
            self.advance()
            self.advance()
        close = '"""' if long_form else '"'
        end = self.text.find(close, self.pos)
        if end >= 0:
            span = self.text[self.pos : end]
            if "\\" not in span and (long_form or "\n" not in span):
                self._skip_to(end + len(close))
                return span
        return self._read_escaped_string(close)

    def _read_escaped_string(self, close: str) -> str:
        unterminated = "unterminated string literal" if close == '"' else "unterminated long string literal"
        out = []
        while True:
            if self.eof():
                raise self.error(unterminated)
            if self.text.startswith(close, self.pos):
                self._skip_to(self.pos + len(close))
                return "".join(out)
            ch = self.advance()
            if ch == "\n" and close == '"':
                raise self.error("newline in single-quoted string literal")
            if ch == "\\":
                if self.eof():
                    raise self.error(unterminated)
                esc = self.advance()
                if esc in _ESCAPES:
                    out.append(_ESCAPES[esc])
                elif esc in "uU":
                    self.pos -= 1
                    self.col -= 1
                    out.append(self._read_unicode_escape())
                else:
                    raise self.error(f"invalid string escape \\{esc}")
            else:
                out.append(ch)

    def read_token(self) -> str:
        token = _TOKEN_RE.match(self.text, self.pos).group()
        self.pos += len(token)
        self.col += len(token)  # a token never holds a newline
        return token

    def read_number(self) -> str:
        """The number at the cursor, or ""; the trailing '.' of a statement
        is not part of it."""
        token = NUMBER_RE.match(self.text, self.pos).group()
        self.pos += len(token)
        self.col += len(token)
        return token


# ---------------------------------------------------------------------------
# N-Quads
# ---------------------------------------------------------------------------


def parse_nquads(text: str) -> QuadDataset:
    """Parse an N-Quads document. Triples without a graph label land in the
    designated default graph so that every quad has a graph name."""
    scanner = _Scanner(text)
    quads: list[Quad] = []
    while True:
        scanner.skip_ws()
        if scanner.eof():
            break
        subject = _nq_resource(scanner)
        scanner.skip_ws(newlines=False)
        predicate = _nq_resource(scanner)
        scanner.skip_ws(newlines=False)
        obj = _nq_object(scanner)
        scanner.skip_ws(newlines=False)
        if scanner.peek() == "<":
            graph = scanner.read_iriref()
        elif scanner.peek() == "_":
            raise scanner.blank_error()
        else:
            graph = vocab.DEFAULT_GRAPH
        scanner.skip_ws(newlines=False)
        scanner.expect(".")
        quads.append(Quad(subject, predicate, obj, graph))
    return QuadDataset(quads)


def _nq_resource(scanner: _Scanner) -> str:
    if scanner.peek() == "_":
        raise scanner.blank_error()
    if scanner.peek() != "<":
        raise scanner.error("expected IRI")
    return scanner.read_iriref()


def _nq_object(scanner: _Scanner) -> Term:
    ch = scanner.peek()
    if ch == "_":
        raise scanner.blank_error()
    if ch == "<":
        return Iri(scanner.read_iriref())
    if ch == '"':
        return _literal_suffix(scanner, scanner.read_string())
    raise scanner.error("expected IRI or literal object")


def _literal_suffix(scanner: _Scanner, lexical: str, expand=None) -> Literal:
    """The literal ``lexical`` with the datatype or language tag that
    follows it, if any. A datatype is an IRI reference or, where the syntax
    has prefixed names, one that ``expand`` turns into an IRI."""
    if scanner.peek() == "^":
        scanner.expect("^")
        scanner.expect("^")
        if expand is None or scanner.peek() == "<":
            return Literal(lexical, datatype=scanner.read_iriref())
        return Literal(lexical, datatype=expand(scanner.read_token()))
    if scanner.peek() == "@":
        scanner.advance()
        tag = scanner.read_token()
        if not tag:
            raise scanner.error("empty language tag")
        return Literal(lexical, language=tag)
    return Literal(lexical)


# ---------------------------------------------------------------------------
# TriG
# ---------------------------------------------------------------------------


class _TrigParser:
    def __init__(self, text: str):
        self.s = _Scanner(text)
        self.prefixes: dict[str, str] = {}
        self.quads: list[Quad] = []

    def parse(self) -> QuadDataset:
        while True:
            self.s.skip_ws()
            if self.s.eof():
                break
            if self.s.peek() == "@":
                self._directive()
            elif self._lookahead_keyword("PREFIX"):
                self._consume_keyword("PREFIX")
                self._prefix()
            elif self._lookahead_keyword("GRAPH"):
                self._consume_keyword("GRAPH")
                self.s.skip_ws()
                name = self._resource()
                self._graph_block(name)
            else:
                # Either `<g> { ... }` or a default-graph triple block.
                mark = (self.s.pos, self.s.line, self.s.col)
                node = self._resource()
                self.s.skip_ws()
                if self.s.peek() == "{":
                    self._graph_block(node)
                else:
                    self.s.pos, self.s.line, self.s.col = mark
                    self._triples(vocab.DEFAULT_GRAPH)
                    self.s.skip_ws()
                    self.s.expect(".")
        return QuadDataset(self.quads)

    def _lookahead_keyword(self, word: str) -> bool:
        end = self.s.pos + len(word)
        if self.s.text[self.s.pos : end].upper() != word:
            return False
        return end >= len(self.s.text) or self.s.text[end] in " \t\r\n<#"

    def _consume_keyword(self, word: str):
        for _ in word:
            self.s.advance()

    def _directive(self):
        self.s.advance()  # '@'
        word = self.s.read_token()
        if word == "prefix":
            self._prefix()
            self.s.skip_ws()
            self.s.expect(".")
        elif word == "base":
            raise self.s.error("@base is not supported; use absolute IRIs")
        else:
            raise self.s.error(f"unknown directive @{word}")

    def _prefix(self):
        """The name, ':' and IRI of an ``@prefix`` or ``PREFIX`` directive."""
        self.s.skip_ws()
        name = self.s.read_token()
        if not name.endswith(":"):
            raise self.s.error("prefix name must end with ':'")
        if not PN_PREFIX_RE.fullmatch(name[:-1]):
            raise self.s.error(f"prefix name is not a TriG PN_PREFIX: {name[:-1]!r}")
        self.s.skip_ws()
        self.prefixes[name[:-1]] = self.s.read_iriref()

    def _graph_block(self, graph: str):
        self.s.skip_ws()
        self.s.expect("{")
        while True:
            self.s.skip_ws()
            if self.s.peek() == "}":
                self.s.advance()
                break
            if self.s.eof():
                raise self.s.error("unterminated graph block")
            self._triples(graph)
            self.s.skip_ws()
            if self.s.peek() == ".":
                self.s.advance()
            elif self.s.peek() != "}":
                raise self.s.error("expected '.' or '}' after triples")

    def _triples(self, graph: str):
        subject = self._resource()
        while True:
            self.s.skip_ws()
            predicate = self._predicate()
            while True:
                self.s.skip_ws()
                obj = self._object()
                self.quads.append(Quad(subject, predicate, obj, graph))
                self.s.skip_ws()
                if self.s.peek() == ",":
                    self.s.advance()
                    continue
                break
            if self.s.peek() == ";":
                self.s.advance()
                self.s.skip_ws()
                # A dangling ';' before '.' or '}' is tolerated.
                if self.s.peek() in ".}":
                    return
                continue
            return

    def _predicate(self) -> str:
        # ``a`` is the keyword when it is a whole token, not the start of
        # a prefixed name such as ``a:b`` or ``ab:c``.
        if self.s.peek() == "a" and _TOKEN_RE.match(self.s.text, self.s.pos).end() == self.s.pos + 1:
            self.s.advance()
            return vocab.RDF_TYPE
        return self._resource()

    def _resource(self) -> str:
        ch = self.s.peek()
        if ch == "_":
            raise self.s.blank_error()
        if ch == "[":
            raise self.s.blank_error()
        if ch == "<":
            return self.s.read_iriref()
        token = self.s.read_token()
        if not token:
            raise self.s.error("expected IRI or prefixed name")
        return self._expand(token)

    def _expand(self, token: str) -> str:
        if ":" not in token:
            raise self.s.error(f"not a prefixed name: {token!r}")
        prefix, _, local = token.partition(":")
        if prefix not in self.prefixes:
            raise self.s.error(f"undeclared prefix: {prefix}:")
        iri = self.prefixes[prefix] + local
        if not is_absolute_iri(iri):
            raise self.s.error(f"prefixed name expands to invalid IRI: {iri}")
        return iri

    def _object(self) -> Term:
        ch = self.s.peek()
        if ch == "_" or ch == "[" or ch == "(":
            raise self.s.blank_error()
        if ch == "<":
            return Iri(self.s.read_iriref())
        if ch == '"':
            return _literal_suffix(self.s, self.s.read_string(), self._expand)
        number = self.s.read_number()
        if number:
            datatype = vocab.XSD_DECIMAL if "." in number else vocab.XSD_INTEGER
            return Literal(number, datatype=datatype)
        token = self.s.read_token()
        if not token:
            raise self.s.error("expected object term")
        if token in ("true", "false"):
            return Literal(token, datatype=vocab.XSD_BOOLEAN)
        return Iri(self._expand(token))


def parse_trig(text: str) -> QuadDataset:
    return _TrigParser(text).parse()


def parse_quads(text: str, syntax: str = "trig") -> QuadDataset:
    """Parse ``text`` in the named syntax (``nquads`` or ``trig``)."""
    if syntax == "nquads":
        return parse_nquads(text)
    if syntax == "trig":
        return parse_trig(text)
    raise ParseError(f"unknown syntax: {syntax}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _escape(lexical: str) -> str:
    return _NEEDS_ESCAPE.sub(_escape_char, lexical)


def _escape_char(match: re.Match) -> str:
    ch = match.group()
    return _ESCAPED.get(ch) or f"\\u{ord(ch):04X}"


def _term(term: Term, iri) -> str:
    """``term`` as an N-Quads or TriG token, ``iri`` writing each IRI."""
    if isinstance(term, Iri):
        return iri(term.value)
    if term.language is not None:
        return f'"{_escape(term.lexical)}"@{term.language}'
    if term.datatype == vocab.XSD_STRING:
        return f'"{_escape(term.lexical)}"'
    return f'"{_escape(term.lexical)}"^^{iri(term.datatype)}'


def serialize_nquads(dataset: QuadDataset) -> str:
    iri = "<{}>".format
    return "".join(f"<{s}> <{p}> {_term(o, iri)} <{g}> .\n" for g, s, p, o in dataset)


class _Compacted(dict):
    """IRI -> ``name:local`` under the longest namespace of the prefix table
    that leaves a local name (a tie goes to the first name in the table's
    order, as the sort is stable), else ``<iri>``; each computed on first
    use, one per ``trig_pieces`` call."""

    def __init__(self, prefixes: dict[str, str]):
        self.table = sorted(prefixes.items(), key=lambda item: -len(item[1]))

    def __missing__(self, iri: str) -> str:
        for name, ns in self.table:
            if iri.startswith(ns) and _PN_LOCAL_RE.fullmatch(iri, len(ns)):
                out = f"{name}:{iri[len(ns):]}"
                break
        else:
            out = f"<{iri}>"
        self[iri] = out
        return out


def trig_pieces(dataset: QuadDataset, prefixes: dict[str, str] | None = None) -> list[str]:
    """Canonical TriG as pieces: the prefix header, then each graph in
    pieces of at most ``_PIECE_LINES`` lines. A writer can write them one
    by one instead of joining them, and holds about the document once."""
    prefixes = dict(sorted((prefixes or vocab.PREFIXES).items()))
    compacted = _Compacted(prefixes)
    iri = compacted.__getitem__
    pieces = [""]
    # The canonical order sorts by graph first: each graph is one run.
    for name, quads in groupby(dataset, itemgetter(0)):
        lines = [f"{compacted[name]} {{\n"]
        for _, s, p, o in quads:
            lines.append(f"    {compacted[s]} {compacted[p]} {_term(o, iri)} .\n")
            if len(lines) == _PIECE_LINES:
                pieces.append("".join(lines))
                lines.clear()
        lines.append("}\n")
        pieces.append("".join(lines))
    # The names the body uses are those its compacted IRIs were written with;
    # a name implies a nonempty body, which a blank line parts from the header.
    used = {form.partition(":")[0] for form in compacted.values() if not form.startswith("<")}
    if used:
        pieces[0] = "".join(f"@prefix {name}: <{prefixes[name]}> .\n" for name in sorted(used)) + "\n"
    return pieces


def serialize_trig(dataset: QuadDataset, prefixes: dict[str, str] | None = None) -> str:
    """Canonical TriG: sorted prefix header, graphs in sorted order, one
    triple per line."""
    return "".join(trig_pieces(dataset, prefixes))


def serialize_quads(
    dataset: QuadDataset, syntax: str = "trig", prefixes: dict[str, str] | None = None
) -> str:
    if syntax == "nquads":
        return serialize_nquads(dataset)
    if syntax == "trig":
        return serialize_trig(dataset, prefixes)
    raise ParseError(f"unknown syntax: {syntax}")
