"""Character-at-a-time reference implementations of the TriG/N-Quads I/O.

These are the straightforward versions that the whole-token scans and the
per-call compaction memo in ``kgunits.rdfio`` replace: the scanner reads
every IRI, string and run of whitespace one character at a time
through ``eof``/``peek``/``advance``, the serializer compacts every IRI
occurrence by scanning the whole prefix table (and declares the prefixes
those compactions used), and ``_escape`` walks the
lexical form character by character. The parsers themselves are the
library's own; only the scanner under them is swapped. They serve as the
oracle for differential tests.
"""

from __future__ import annotations

from contextlib import contextmanager

from kgunits import rdfio, vocab
from kgunits.rdfio import _ESCAPES
from kgunits.store import Iri, QuadDataset, Term, is_absolute_iri

_PN_LOCAL_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-."
)


class Scanner(rdfio._Scanner):
    def skip_ws(self, newlines: bool = True):
        while not self.eof():
            ch = self.peek()
            if ch == "#":
                while not self.eof() and self.peek() != "\n":
                    self.advance()
            elif ch in " \t\r" or (newlines and ch == "\n"):
                self.advance()
            else:
                return

    def read_iriref(self) -> str:
        self.expect("<")
        out = []
        while True:
            if self.eof():
                raise self.error("unterminated IRI")
            ch = self.advance()
            if ch == ">":
                break
            if ch == "\\":
                out.append(self._read_unicode_escape())
            else:
                out.append(ch)
        iri = "".join(out)
        if not is_absolute_iri(iri):
            raise self.error(f"not a valid absolute IRI: <{iri}>")
        return iri

    def read_string(self) -> str:
        self.expect('"')
        if self.text.startswith('""', self.pos):
            # Long string form """..."""
            self.advance()
            self.advance()
            return self._read_until_triple_quote()
        out = []
        while True:
            if self.eof():
                raise self.error("unterminated string literal")
            ch = self.advance()
            if ch == '"':
                break
            if ch == "\n":
                raise self.error("newline in single-quoted string literal")
            if ch == "\\":
                if self.eof():
                    raise self.error("unterminated string literal")
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
        return "".join(out)

    def _read_until_triple_quote(self) -> str:
        out = []
        while True:
            if self.eof():
                raise self.error("unterminated long string literal")
            if self.text.startswith('"""', self.pos):
                for _ in range(3):
                    self.advance()
                return "".join(out)
            ch = self.advance()
            if ch == "\\":
                if self.eof():
                    raise self.error("unterminated long string literal")
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


@contextmanager
def _oracle_scanner():
    """Run the library's parsers over the character scanner above."""
    saved = rdfio._Scanner
    rdfio._Scanner = Scanner
    try:
        yield
    finally:
        rdfio._Scanner = saved


def parse_trig(text: str) -> QuadDataset:
    with _oracle_scanner():
        return rdfio.parse_trig(text)


def parse_nquads(text: str) -> QuadDataset:
    with _oracle_scanner():
        return rdfio.parse_nquads(text)


def _escape(lexical: str) -> str:
    out = []
    for ch in lexical:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def _term_nq(term: Term) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if term.language is not None:
        return f'"{_escape(term.lexical)}"@{term.language}'
    if term.datatype == vocab.XSD_STRING:
        return f'"{_escape(term.lexical)}"'
    return f'"{_escape(term.lexical)}"^^<{term.datatype}>'


def serialize_nquads(dataset: QuadDataset) -> str:
    lines = []
    for q in dataset:
        lines.append(
            f"<{q.subject}> <{q.predicate}> {_term_nq(q.object)} <{q.graph}> .\n"
        )
    return "".join(lines)


def _compact(iri: str, prefixes: dict[str, str]) -> str:
    best_name = None
    best_len = -1
    for name, ns in prefixes.items():
        if iri.startswith(ns) and len(ns) > best_len:
            local = iri[len(ns) :]
            if local and all(c in _PN_LOCAL_OK for c in local) and not local.startswith(
                ("-", ".")
            ) and not local.endswith("."):
                best_name, best_len = name, len(ns)
    if best_name is None:
        return f"<{iri}>"
    return f"{best_name}:{iri[len(prefixes[best_name]):]}"


def _term_trig(term: Term, compact) -> str:
    if isinstance(term, Iri):
        return compact(term.value)
    if term.language is not None:
        return f'"{_escape(term.lexical)}"@{term.language}'
    if term.datatype == vocab.XSD_STRING:
        return f'"{_escape(term.lexical)}"'
    return f'"{_escape(term.lexical)}"^^{compact(term.datatype)}'


def serialize_trig(dataset: QuadDataset, prefixes: dict[str, str] | None = None) -> str:
    prefixes = dict(sorted((prefixes or vocab.PREFIXES).items()))
    used = set()

    def compact(iri: str) -> str:
        form = _compact(iri, prefixes)
        if not form.startswith("<"):
            used.add(form.split(":", 1)[0])
        return form

    out = []
    body = []
    for name in dataset.graph_names():
        body.append(f"{compact(name)} {{\n")
        for q in dataset.graph(name):
            line = (
                f"    {compact(q.subject)} "
                f"{compact(q.predicate)} "
                f"{_term_trig(q.object, compact)} .\n"
            )
            body.append(line)
        body.append("}\n")
    for name in sorted(used):
        out.append(f"@prefix {name}: <{prefixes[name]}> .\n")
    if out and body:
        out.append("\n")
    out.extend(body)
    return "".join(out)
