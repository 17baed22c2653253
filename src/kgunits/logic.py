"""Answer-set-style logic programs with default negation.

The fragment is deliberately small: function-free atoms, classical
negation as a paired atom namespace, and default negation in rule bodies.
Stable models follow the reduct semantics: M is stable when M is exactly
the least model of the program reduced by M's default-negated atoms.

Grounding instantiates every rule over the whole constant universe (the
Herbrand instantiation). Each rule is compiled once into positions that
pick its atoms' terms from a tuple of variable values, so an instance costs
one tuple pick and a set lookup, and objects are built only for new ones.

The solver enumerates candidate sets over the atoms that actually occur
under default negation (the reduct depends on nothing else), computes the
least model of each reduct in one pass with a counter of missing body
atoms per rule (Dowling & Gallier's linear-time Horn algorithm), and keeps
the candidates that reproduce themselves. That stays exact while avoiding
a sweep over all 2^n atom subsets; the test suite checks it against that
full sweep.
"""

from __future__ import annotations

import gc
import itertools
import re
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping

from .errors import BoundExceededError, RuleError, UnsafeRuleError


_VAR_RE = re.compile(r"^[A-Z][A-Za-z0-9_]*$")


def is_variable(token: str) -> bool:
    """Bare identifier tokens with an uppercase initial are variables;
    prefixed names, quoted strings, numbers, and IRIs are constants."""
    return bool(_VAR_RE.match(token))


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: str
    terms: tuple[str, ...] = ()
    negated: bool = False  # classical negation

    def variables(self) -> frozenset[str]:
        return frozenset(t for t in self.terms if is_variable(t))

    def slots(self, variables: dict[str, int]) -> tuple[int | str, ...]:
        """The terms with each variable replaced by its index in
        ``variables`` (numbered in order of first sight when absent);
        constants stay strings."""
        return tuple(
            variables.setdefault(t, len(variables)) if is_variable(t) else t
            for t in self.terms
        )

    def complement(self) -> "Atom":
        return Atom(self.predicate, self.terms, not self.negated)

    def key(self) -> tuple:
        return (self.predicate, self.terms, self.negated)

    def render(self, prefixes: Mapping[str, str] | None = None) -> str:
        return _render(self, _by_namespace_length(prefixes))


def render_atoms(atoms: Iterable[Atom], prefixes: Mapping[str, str] | None = None) -> list[str]:
    """Render each atom, shortening IRIs against ``prefixes`` (longest
    namespace first, ties in table order); the table is sorted once."""
    ordered = _by_namespace_length(prefixes)
    return [_render(atom, ordered) for atom in atoms]


def _by_namespace_length(prefixes: Mapping[str, str] | None) -> list[tuple[str, str]]:
    return sorted((prefixes or {}).items(), key=lambda kv: -len(kv[1]))


def _render(atom: Atom, ordered: list[tuple[str, str]]) -> str:
    text = ("-" if atom.negated else "") + _shorten(atom.predicate, ordered)
    if atom.terms:
        text += f"({', '.join(_shorten(t, ordered) for t in atom.terms)})"
    return text


def _shorten(token: str, ordered: list[tuple[str, str]]) -> str:
    for name, ns in ordered:
        if token.startswith(ns) and len(token) > len(ns):
            return f"{name}:{token[len(ns):]}"
    return token


@dataclass(frozen=True, slots=True)
class Rule:
    head: Atom
    positive: tuple[Atom, ...] = ()
    negative: tuple[Atom, ...] = ()

    @property
    def is_fact(self) -> bool:
        return not self.positive and not self.negative

    def variables(self) -> frozenset[str]:
        out = set(self.head.variables())
        for a in self.positive + self.negative:
            out |= a.variables()
        return frozenset(out)

    def check_safety(self):
        positive_vars = set()
        for a in self.positive:
            positive_vars |= a.variables()
        for v in sorted(self.head.variables() - positive_vars):
            raise UnsafeRuleError(
                f"unsafe rule: head variable {v} does not occur in the positive body: "
                f"{self.render()}"
            )
        for a in self.negative:
            for v in sorted(a.variables() - positive_vars):
                raise UnsafeRuleError(
                    f"unsafe rule: variable {v} occurs only under default negation: "
                    f"{self.render()}"
                )

    def render(self, prefixes: dict[str, str] | None = None) -> str:
        head = self.head.render(prefixes)
        if self.is_fact:
            return f"{head}."
        body = [a.render(prefixes) for a in self.positive]
        body += [f"not {a.render(prefixes)}" for a in self.negative]
        return f"{head} :- {', '.join(body)}."


@dataclass(frozen=True)
class LogicProgram:
    rules: tuple[Rule, ...] = ()

    def constants(self) -> frozenset[str]:
        out: set[str] = set()
        for rule in self.rules:
            for atom in (rule.head,) + rule.positive + rule.negative:
                out.update(t for t in atom.terms if not is_variable(t))
        return frozenset(out)

    def facts(self) -> tuple[Atom, ...]:
        return tuple(r.head for r in self.rules if r.is_fact)


# ---------------------------------------------------------------------------
# Rule parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>[%\#][^\n]*)
  | (?P<arrow>:-)
  | (?P<iri><[^<>\s]+>)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_-]*(?:\.[A-Za-z0-9_-]+)*:[A-Za-z0-9_][A-Za-z0-9_-]*(?:\.[A-Za-z0-9_-]+)*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_-]*(?:\.[A-Za-z0-9_-]+)*)
  | (?P<punct>[(),.\-])
""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    line = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise RuleError(f"line {line}: cannot tokenize near {text[pos:pos+20]!r}")
        kind = m.lastgroup
        value = m.group()
        line += value.count("\n")
        pos = m.end()
        if kind in ("ws", "comment"):
            continue
        tokens.append((kind, value, line))
    return tokens


class _RuleParser:
    def __init__(self, text: str, prefixes: dict[str, str] | None = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prefixes = prefixes or {}

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, -1)

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self) -> LogicProgram:
        rules: list[Rule] = []
        while self.pos < len(self.tokens):
            rules.append(self._rule())
        program = LogicProgram(tuple(rules))
        for rule in program.rules:
            rule.check_safety()
        return program

    def _rule(self) -> Rule:
        head = self._atom()
        kind, value, line = self._peek()
        positive: list[Atom] = []
        negative: list[Atom] = []
        if kind == "arrow":
            self._next()
            while True:
                kind, value, line = self._peek()
                if kind == "ident" and value == "not":
                    self._next()
                    negative.append(self._atom())
                else:
                    positive.append(self._atom())
                kind, value, line = self._peek()
                if kind == "punct" and value == ",":
                    self._next()
                    continue
                break
        kind, value, line = self._next()
        if not (kind == "punct" and value == "."):
            raise RuleError(f"line {line}: expected '.' to end rule, got {value!r}")
        return Rule(head, tuple(positive), tuple(negative))

    def _atom(self) -> Atom:
        negated = False
        kind, value, line = self._peek()
        if kind == "punct" and value == "-":
            negated = True
            self._next()
        predicate = self._term(predicate_position=True)
        terms: list[str] = []
        kind, value, line = self._peek()
        if kind == "punct" and value == "(":
            self._next()
            while True:
                terms.append(self._term(predicate_position=False))
                kind, value, line = self._peek()
                if kind == "punct" and value == ",":
                    self._next()
                    continue
                if kind == "punct" and value == ")":
                    self._next()
                    break
                raise RuleError(f"line {line}: expected ',' or ')' in argument list")
        return Atom(predicate, tuple(terms), negated)

    def _term(self, predicate_position: bool) -> str:
        kind, value, line = self._next()
        if kind == "iri":
            return value[1:-1]
        if kind == "string":
            # String constants keep their quotes so that arbitrary lexical
            # forms can never collide with the variable convention.
            return value
        if kind == "number":
            return value
        if kind == "pname":
            prefix, _, local = value.partition(":")
            if prefix in self.prefixes:
                return self.prefixes[prefix] + local
            return value
        if kind == "ident":
            if value == "not":
                raise RuleError(f"line {line}: 'not' is a keyword")
            return value
        raise RuleError(f"line {line}: expected a term, got {value!r}")


def parse_rules(text: str, prefixes: dict[str, str] | None = None) -> LogicProgram:
    """Parse ``head :- a, b, not c.`` rule documents.

    Prefixed names expand against ``prefixes``; bare uppercase tokens are
    variables, everything else is a constant. A leading ``-`` is classical
    negation.
    """
    return _RuleParser(text, prefixes).parse()


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector. Grounding and solving allocate
    tens of thousands of acyclic objects; the collections they would
    trigger re-traverse every live object and free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def ground_program(program: LogicProgram, facts: list[Atom] = ()) -> LogicProgram:
    """Instantiate every rule over the constant universe of the program and
    the supplied facts. Unsafe rules are rejected.

    Instances are deduped by their flat term tuple per rule shape, in
    program order, so the rules come out exactly as substituting each
    variable binding into each atom would give them.
    """
    facts = tuple(facts)
    offending = _first_nonground(facts)
    if offending is not None:
        raise RuleError(f"fact is not ground: {offending.render()}")
    for rule in program.rules:
        rule.check_safety()
    universe = set(program.constants())
    for atom in facts:
        universe.update(atom.terms)
    ordered_universe = sorted(universe)

    ground_rules = [Rule(a) for a in facts]
    seen: dict[tuple, set[tuple]] = {}
    for atom in facts:
        seen.setdefault(_shape((atom,), 0), set()).add(atom.terms)
    for rule in program.rules:
        variables = {v: i for i, v in enumerate(sorted(rule.variables()))}
        if variables and not ordered_universe:
            continue
        atoms = (rule.head,) + rule.positive + rule.negative
        shape_seen = seen.setdefault(_shape(atoms, len(rule.positive)), set())
        slots = [s for atom in atoms for s in atom.slots(variables)]
        constants = sorted({s for s in slots if isinstance(s, str)})
        # Constants ride along as one-value pools after the variables, so
        # every product tuple holds all the values the terms pick from.
        constant_at = {c: len(variables) + i for i, c in enumerate(constants)}
        pools = [ordered_universe] * len(variables) + [(c,) for c in constants]
        pick = _picker([constant_at.get(s, s) for s in slots])
        # Every variable occurs in some atom, so instances of one rule are
        # distinct; only rules grounded earlier can repeat them.
        flats = map(pick, itertools.product(*pools))
        if shape_seen:
            flats = itertools.filterfalse(shape_seen.__contains__, flats)
        flats = list(flats)
        shape_seen.update(flats)
        spans, start = [], 0
        for atom in atoms:
            spans.append((atom.predicate, start, start + len(atom.terms), atom.negated))
            start += len(atom.terms)
        (hp, h0, h1, hn), *body = spans
        positive, negative = body[: len(rule.positive)], body[len(rule.positive) :]
        for flat in flats:
            ground_rules.append(
                Rule(
                    Atom(hp, flat[h0:h1], hn),
                    tuple([Atom(p, flat[a:b], n) for p, a, b, n in positive]),
                    tuple([Atom(p, flat[a:b], n) for p, a, b, n in negative]),
                )
            )
    return LogicProgram(tuple(ground_rules))


def _shape(atoms: tuple[Atom, ...], n_positive: int) -> tuple:
    """Predicates, signs and arities of a rule's atoms: two rules are equal
    exactly when their shapes and flat term tuples are."""
    return (n_positive,) + tuple((a.predicate, a.negated, len(a.terms)) for a in atoms)


def _picker(positions: list[int]):
    """Callable returning the values at ``positions`` as a tuple
    (``itemgetter`` gives a bare value for one position, and needs one)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda values: tuple(values[i] for i in positions)


def _first_nonground(atoms) -> Atom | None:
    """First atom holding a variable, testing each distinct term once."""
    terms: set[str] = set()
    for atom in atoms:
        terms.update(atom.terms)
    variables = {t for t in terms if is_variable(t)}
    if not variables:
        return None
    return next(a for a in atoms if not variables.isdisjoint(a.terms))


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@_collector_paused()
def least_model(rules: tuple[Rule, ...]) -> frozenset[Atom]:
    """Least model of a definite rule set, in one pass. Only heads and
    positive bodies are read, so a reduct is the rules that survive it.

    Each rule counts its body atoms not yet derived and each atom lists
    the rules waiting on it (Dowling & Gallier's linear-time Horn
    algorithm); a rule fires when its count reaches zero.
    """
    missing = [len(rule.positive) for rule in rules]
    waiting: dict[Atom, list[int]] = {}
    queue: list[Atom] = []
    for i, rule in enumerate(rules):
        if not rule.positive:
            queue.append(rule.head)
        for atom in rule.positive:
            waiting.setdefault(atom, []).append(i)
    model: set[Atom] = set()
    while queue:
        atom = queue.pop()
        if atom in model:
            continue
        model.add(atom)
        for i in waiting.get(atom, ()):
            missing[i] -= 1
            if not missing[i]:
                queue.append(rules[i].head)
    return frozenset(model)


def program_atoms(program: LogicProgram) -> frozenset[Atom]:
    out: set[Atom] = set()
    for rule in program.rules:
        out.add(rule.head)
        out.update(rule.positive)
        out.update(rule.negative)
    return frozenset(out)


def _consistent(model: frozenset[Atom]) -> bool:
    return not any(a.complement() in model for a in model if a.negated)


def stable_models(program: LogicProgram, bound: int = 24) -> list[frozenset[Atom]]:
    """All stable models of a ground program.

    A negation-free program has exactly one stable model, its least
    fixpoint, and needs no candidate enumeration; only programs with
    default negation are subject to ``bound``, which caps the ground atom
    count before the exponential candidate sweep. Inconsistency is a valid
    empty result, not an error.
    """
    offending = _first_nonground(
        [a for rule in program.rules for a in (rule.head, *rule.positive, *rule.negative)]
    )
    if offending is not None:
        raise RuleError(f"program is not ground: {offending.render()}")

    negated_support = sorted(
        {a for rule in program.rules for a in rule.negative}, key=lambda a: a.key()
    )
    if not negated_support:
        model = least_model(program.rules)
        return [model] if _consistent(model) else []
    atoms = program_atoms(program)
    if len(atoms) > bound:
        raise BoundExceededError(
            f"ground program has {len(atoms)} atoms, solver bound is {bound}"
        )
    models: list[frozenset[Atom]] = []
    for bits in itertools.product((False, True), repeat=len(negated_support)):
        assumed_true = {a for a, bit in zip(negated_support, bits) if bit}
        reduct = tuple(r for r in program.rules if assumed_true.isdisjoint(r.negative))
        candidate = least_model(reduct)
        if {a for a in negated_support if a in candidate} != assumed_true:
            continue
        if not _consistent(candidate):
            continue
        if candidate not in models:
            models.append(candidate)
    models.sort(key=lambda m: sorted(a.key() for a in m))
    return models
