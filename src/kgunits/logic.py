"""Answer-set-style logic programs with default negation.

The fragment is deliberately small: function-free atoms, classical
negation as a paired atom namespace, and default negation in rule bodies.
Stable models follow the reduct semantics: M is stable when M is exactly
the least model of the program reduced by M's default-negated atoms.

The solver enumerates candidate sets over the atoms that actually occur
under default negation (the reduct depends on nothing else), computes the
least model of each reduct by forward chaining, and keeps the candidates
that reproduce themselves. That stays exact while avoiding a sweep over
all 2^n atom subsets; the test suite checks it against that full sweep.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import BoundExceededError, RuleError, UnsafeRuleError


_VAR_RE = re.compile(r"^[A-Z][A-Za-z0-9_]*$")


def is_variable(token: str) -> bool:
    """Bare identifier tokens with an uppercase initial are variables;
    prefixed names, quoted strings, numbers, and IRIs are constants."""
    return bool(_VAR_RE.match(token))


@dataclass(frozen=True)
class Atom:
    predicate: str
    terms: tuple[str, ...] = ()
    negated: bool = False  # classical negation

    def variables(self) -> frozenset[str]:
        return frozenset(t for t in self.terms if is_variable(t))

    def is_ground(self) -> bool:
        return not any(is_variable(t) for t in self.terms)

    def substitute(self, binding: dict[str, str]) -> "Atom":
        return Atom(
            self.predicate,
            tuple(binding.get(t, t) for t in self.terms),
            self.negated,
        )

    def complement(self) -> "Atom":
        return Atom(self.predicate, self.terms, not self.negated)

    def key(self) -> tuple:
        return (self.predicate, self.terms, self.negated)

    def render(self, prefixes: dict[str, str] | None = None) -> str:
        name = _shorten(self.predicate, prefixes)
        sign = "-" if self.negated else ""
        if not self.terms:
            return sign + name
        args = ", ".join(_shorten(t, prefixes) for t in self.terms)
        return f"{sign}{name}({args})"


def _shorten(token: str, prefixes: dict[str, str] | None) -> str:
    if prefixes:
        for name, ns in sorted(prefixes.items(), key=lambda kv: -len(kv[1])):
            if token.startswith(ns) and len(token) > len(ns):
                return f"{name}:{token[len(ns):]}"
    return token


@dataclass(frozen=True)
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


def ground_program(program: LogicProgram, facts: list[Atom] = ()) -> LogicProgram:
    """Instantiate every rule over the constant universe of the program and
    the supplied facts. Unsafe rules are rejected."""
    universe: set[str] = set(program.constants())
    for atom in facts:
        if not atom.is_ground():
            raise RuleError(f"fact is not ground: {atom.render()}")
        universe.update(atom.terms)
    fact_rules = tuple(Rule(a) for a in facts)

    ground_rules: list[Rule] = list(fact_rules)
    seen: set[tuple] = {_rule_key(r) for r in fact_rules}
    ordered_universe = sorted(universe)
    for rule in program.rules:
        rule.check_safety()
        variables = sorted(rule.variables())
        if not variables:
            key = _rule_key(rule)
            if key not in seen:
                seen.add(key)
                ground_rules.append(rule)
            continue
        if not ordered_universe:
            continue
        for combo in itertools.product(ordered_universe, repeat=len(variables)):
            binding = dict(zip(variables, combo))
            grounded = Rule(
                rule.head.substitute(binding),
                tuple(a.substitute(binding) for a in rule.positive),
                tuple(a.substitute(binding) for a in rule.negative),
            )
            key = _rule_key(grounded)
            if key not in seen:
                seen.add(key)
                ground_rules.append(grounded)
    return LogicProgram(tuple(ground_rules))


def _rule_key(rule: Rule) -> tuple:
    return (
        rule.head.key(),
        tuple(a.key() for a in rule.positive),
        tuple(a.key() for a in rule.negative),
    )


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def least_model(rules: tuple[Rule, ...]) -> frozenset[Atom]:
    """Least model of a definite (negation-free) rule set by forward
    chaining to fixpoint."""
    model: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.head in model:
                continue
            if all(a in model for a in rule.positive):
                model.add(rule.head)
                changed = True
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
    atoms = program_atoms(program)
    for atom in atoms:
        if not atom.is_ground():
            raise RuleError(f"program is not ground: {atom.render()}")

    negated_support = sorted(
        {a for rule in program.rules for a in rule.negative}, key=lambda a: a.key()
    )
    if not negated_support:
        model = least_model(tuple(Rule(r.head, r.positive) for r in program.rules))
        return [model] if _consistent(model) else []
    if len(atoms) > bound:
        raise BoundExceededError(
            f"ground program has {len(atoms)} atoms, solver bound is {bound}"
        )
    models: list[frozenset[Atom]] = []
    for bits in itertools.product((False, True), repeat=len(negated_support)):
        assumed_true = {a for a, bit in zip(negated_support, bits) if bit}
        reduct = tuple(
            Rule(rule.head, rule.positive)
            for rule in program.rules
            if not (set(rule.negative) & assumed_true)
        )
        candidate = least_model(reduct)
        if {a for a in negated_support if a in candidate} != assumed_true:
            continue
        if not _consistent(candidate):
            continue
        if candidate not in models:
            models.append(candidate)
    models.sort(key=lambda m: sorted(a.key() for a in m))
    return models
