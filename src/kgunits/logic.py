"""Answer-set-style logic programs with default negation.

The fragment is deliberately small: function-free atoms, classical
negation as a paired atom namespace, and default negation in rule bodies.
Stable models follow the reduct semantics: M is stable when M is exactly
the least model of the program reduced by M's default-negated atoms.

Grounding builds only the relevant program: the rule instances whose
positive body lies in the atoms derivable when default negation is
ignored, found by semi-naive evaluation over the facts (Ullman 1988).
That is exact: safety puts every variable in the positive body, and every
stable model lies inside the derivable atoms, so no dropped instance fires
in any reduct. Rule bodies, the OWL translation's guards and the templates
of statement schemas join through one engine: ``JoinStep`` plans run
against a hashed ``AtomIndex``, which in grounding grows with the
fixpoint. The size of the whole Herbrand instantiation, which the
``reason`` summary reports, is counted by ``herbrand_size`` without
building it.

The solver enumerates candidate sets over the atoms that actually occur
under default negation (the reduct depends on nothing else), computes the
least model of each reduct in one pass with a counter of missing body
atoms per rule (Dowling & Gallier's linear-time Horn algorithm), and keeps
the candidates that reproduce themselves. That stays exact while avoiding
a sweep over all 2^n atom subsets; the test suite checks it against that
full sweep. ``bound`` caps the number of those negated atoms.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Callable, Iterable, Mapping, NamedTuple

from ._record import _field, _Named, _new, record
from .errors import BoundExceededError, RuleError, UnsafeRuleError
from .store import IRI_TOKEN


DEFAULT_BOUND = 24  # most default-negated atoms the solver takes unless told otherwise
_VAR_RE = re.compile(r"^[A-Z][A-Za-z0-9_]*$")


def is_variable(token) -> bool:
    """Bare identifier tokens with an uppercase initial are variables;
    prefixed names, quoted strings, numbers, IRIs and every term that is
    not a string are constants."""
    return isinstance(token, str) and bool(_VAR_RE.match(token))


class Atom(_Named):
    """The tuple ``(predicate, terms, negated)``, so atoms sort by predicate,
    then terms, the classically negated one last."""

    __slots__ = ()
    _args = ("predicate", "terms", "negated")
    predicate = _field(0, "the predicate")
    terms = _field(1, "the argument terms")
    negated = _field(2, "classical negation")

    def __new__(cls, predicate: str, terms: tuple[str, ...] = (), negated: bool = False):
        return _new(cls, (predicate, terms, negated))

    def variables(self) -> frozenset[str]:
        return frozenset(t for t in self.terms if is_variable(t))

    def slots(self, variables: dict[str, int]) -> tuple[int | str, ...]:
        """The terms with each variable replaced by its index in
        ``variables`` (numbered in order of first sight when absent);
        constants stay as they are."""
        return tuple(
            variables.setdefault(t, len(variables)) if is_variable(t) else t
            for t in self.terms
        )

    def complement(self) -> "Atom":
        return Atom(self.predicate, self.terms, not self.negated)

    def render(self, prefixes: Mapping[str, str] | None = None) -> str:
        ordered = _by_namespace_length(prefixes)
        return _render(self, lambda token: _shorten(token, ordered))


def render_atoms(atoms: Iterable[Atom], prefixes: Mapping[str, str] | None = None) -> list[str]:
    """Render each atom, shortening IRIs against ``prefixes`` as
    ``_shortener`` does."""
    shorten = _shortener(prefixes)
    return [_render(atom, shorten) for atom in atoms]


def _shortener(prefixes: Mapping[str, str] | None) -> Callable[[str], str]:
    """Shortens IRIs against ``prefixes`` (longest namespace first, ties in
    table order); the table is sorted once and each distinct token is
    shortened once."""
    ordered = _by_namespace_length(prefixes)
    return functools.cache(lambda token: _shorten(token, ordered))


def _by_namespace_length(prefixes: Mapping[str, str] | None) -> list[tuple[str, str]]:
    return sorted((prefixes or {}).items(), key=lambda kv: -len(kv[1]))


def _render(atom: Atom, shorten: Callable[[str], str]) -> str:
    text = ("-" if atom.negated else "") + shorten(atom.predicate)
    if atom.terms:
        text += f"({', '.join(map(shorten, atom.terms))})"
    return text


def _shorten(token: str, ordered: list[tuple[str, str]]) -> str:
    for name, ns in ordered:
        if token.startswith(ns) and len(token) > len(ns):
            return f"{name}:{token[len(ns):]}"
    return token


class Rule(_Named):
    """The tuple ``(head, positive, negative)``: a head atom, the atoms of
    the positive body and those under default negation."""

    __slots__ = ()
    _args = ("head", "positive", "negative")
    head = _field(0, "the head atom")
    positive = _field(1, "the positive body")
    negative = _field(2, "the default-negated body")

    def __new__(cls, head: Atom, positive: tuple[Atom, ...] = (), negative: tuple[Atom, ...] = ()):
        return _new(cls, (head, positive, negative))

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


@record
class LogicProgram:
    rules: tuple[Rule, ...] = ()

    def constants(self) -> frozenset[str]:
        out: set[str] = set()
        for rule in self.rules:
            for atom in (rule.head,) + rule.positive + rule.negative:
                out.update(t for t in atom.terms if not is_variable(t))
        return frozenset(out)


# ---------------------------------------------------------------------------
# Rule parsing
# ---------------------------------------------------------------------------

_TOKEN_PATTERN = rf"""
    (?P<ws>\s+)
  | (?P<comment>[%\#][^\n]*)
  | (?P<arrow>:-)
  | (?P<iri>{IRI_TOKEN})
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>[0-9]+(?:\.[0-9]+)?)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_-]*(?:\.[A-Za-z0-9_-]+)*:[A-Za-z0-9_][A-Za-z0-9_-]*(?:\.[A-Za-z0-9_-]+)*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_-]*(?:\.[A-Za-z0-9_-]+)*)
  | (?P<punct>[(),.\-])
"""


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    token_re = re.compile(_TOKEN_PATTERN, re.VERBOSE)  # re's cache serves later parses
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    line = 1
    while pos < len(text):
        m = token_re.match(text, pos)
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
        # At end of input, errors name the line of the last token.
        self.end = (None, None, self.tokens[-1][2] if self.tokens else 1)
        self.pos = 0
        self.prefixes = prefixes or {}

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else self.end

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
            raise RuleError(f"line {line}: expected '.' to end rule, got {_shown(value)}")
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
        raise RuleError(f"line {line}: expected a term, got {_shown(value)}")


def _shown(value: str | None) -> str:
    return "end of input" if value is None else repr(value)


def parse_rules(text: str, prefixes: dict[str, str] | None = None) -> LogicProgram:
    """Parse ``head :- a, b, not c.`` rule documents.

    Prefixed names expand against ``prefixes``; bare uppercase tokens are
    variables, everything else is a constant. A leading ``-`` is classical
    negation.
    """
    return _RuleParser(text, prefixes).parse()


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


class JoinStep(NamedTuple):
    """How one body atom extends a binding (values by variable index):
    look up the atoms of ``signature`` whose arguments at ``fixed`` equal
    the constants or bound variables of ``fixed_slots``, keep those equal
    at each ``repeats`` pair of positions, and append the arguments at
    ``fresh`` as the values of the variables seen first here."""

    signature: tuple
    fixed: tuple[int, ...]
    fixed_slots: tuple
    fresh: tuple[int, ...]
    repeats: tuple[tuple[int, int], ...]

    @classmethod
    def plan(cls, atoms, variables: dict[str, int], wildcard: str | None = None) -> list["JoinStep"]:
        """One step per atom, in order, numbering each variable at first
        sight in ``variables``; an argument equal to ``wildcard`` matches
        anything and binds nothing."""
        steps = []
        for atom in atoms:
            known = len(variables)
            fixed, fixed_slots, new, repeats = [], [], {}, []
            for position, slot in enumerate(atom.slots(variables)):
                if slot == wildcard:
                    continue
                if not isinstance(slot, int) or slot < known:
                    fixed.append(position)
                    fixed_slots.append(slot)
                elif slot in new:
                    repeats.append((position, new[slot]))
                else:
                    new[slot] = position
            signature = (atom.predicate, atom.negated, len(atom.terms))
            steps.append(
                cls(signature, tuple(fixed), tuple(fixed_slots), tuple(new.values()), tuple(repeats))
            )
        return steps


class AtomIndex:
    """Atoms by predicate, sign and arity, each group in insertion order,
    hashed on first use by the values at a tuple of argument positions.
    ``add`` also files the atom in every table built so far, so the index
    grows with a fixpoint computation instead of being rebuilt."""

    def __init__(self, atoms: Iterable[Atom] = ()):
        self.groups: dict[tuple, list[tuple[str, ...]]] = {}
        self.tables: dict[tuple, dict[tuple[int, ...], dict[tuple, list]]] = {}
        for atom in atoms:
            self.add(atom)

    def add(self, atom: Atom):
        signature = (atom.predicate, atom.negated, len(atom.terms))
        terms = atom.terms
        self.groups.setdefault(signature, []).append(terms)
        if signature in self.tables:
            for positions, table in self.tables[signature].items():
                table.setdefault(tuple([terms[i] for i in positions]), []).append(terms)

    def lookup(self, signature: tuple, positions: tuple[int, ...], values: tuple):
        tables = self.tables.setdefault(signature, {})
        table = tables.get(positions)
        if table is None:
            table = tables[positions] = {}
            for terms in self.groups.get(signature, ()):
                table.setdefault(tuple([terms[i] for i in positions]), []).append(terms)
        return table.get(values, ())

    def extend(self, step: JoinStep, bindings: list[tuple]) -> list[tuple]:
        """Each binding extended by every indexed atom the step matches."""
        signature, fixed, fixed_slots, fresh, repeats = step
        extended = []
        for binding in bindings:
            values = tuple([binding[s] if isinstance(s, int) else s for s in fixed_slots])
            for terms in self.lookup(signature, fixed, values):
                if all(terms[a] == terms[b] for a, b in repeats):
                    extended.append(binding + tuple([terms[i] for i in fresh]))
        return extended


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


def ground_program(program: LogicProgram, facts: Iterable[Atom] = ()) -> LogicProgram:
    """The relevant ground program: the facts, and the instances of each
    rule whose positive body lies in the atoms derivable from the facts
    when default negation is ignored. Unsafe rules are rejected.

    The derivable atoms are computed by semi-naive evaluation: each round
    joins every rule once per positive body atom, that atom against the
    atoms new in the previous round and the rest against all atoms so far,
    so an instance is found in the round its last body atom arrives. Every
    binding found is an instance to keep; repeats, of the same rule or of
    an earlier one, are dropped.
    """
    facts = _checked(program, facts)
    rules: dict[Rule, None] = dict.fromkeys(Rule(atom) for atom in facts)
    derived = set(facts)
    delta = list(dict.fromkeys(facts))
    seeded = []
    for rule in program.rules:
        if not rule.positive:
            rules[rule] = None
            if rule.head not in derived:
                derived.add(rule.head)
                delta.append(rule.head)
        for j, first in enumerate(rule.positive):
            variables: dict[str, int] = {}
            steps = JoinStep.plan((first, *rule.positive[:j], *rule.positive[j + 1 :]), variables)
            parts = [
                (atom.predicate, atom.slots(variables), atom.negated)
                for atom in (rule.head, *rule.positive, *rule.negative)
            ]
            seeded.append((steps, parts, len(rule.positive)))
    index = AtomIndex()
    while delta:
        for atom in delta:
            index.add(atom)
        new, delta = AtomIndex(delta), []
        for (first, *rest), parts, n_positive in seeded:
            if first.signature not in new.groups:
                continue
            bindings = new.extend(first, [()])
            for step in rest:
                bindings = index.extend(step, bindings)
            for binding in bindings:
                atoms = [
                    Atom(p, tuple([binding[s] if isinstance(s, int) else s for s in slots]), n)
                    for p, slots, n in parts
                ]
                instance = Rule(atoms[0], tuple(atoms[1 : 1 + n_positive]), tuple(atoms[1 + n_positive :]))
                rules[instance] = None
                if instance.head not in derived:
                    derived.add(instance.head)
                    delta.append(instance.head)
    return LogicProgram(tuple(rules))


def herbrand_size(program: LogicProgram, facts: Iterable[Atom] = ()) -> int:
    """How many rules the Herbrand instantiation of ``program`` holds: the
    facts as body-less rules, then each rule over every binding of its
    variables to the constants of the program and the facts, an instance
    an earlier rule or fact already gave counted once. It is counted, not
    built: a rule with k variables has |U|^k instances, less the overlap
    with earlier rules of the same shape, found by unifying their slot
    patterns and enumerating only that overlap.
    """
    facts = _checked(program, facts)
    universe = set(program.constants())
    for atom in facts:
        universe.update(atom.terms)
    ordered = sorted(universe)
    size = len(facts)
    ground: dict[tuple, set[tuple]] = {}  # shape -> terms of earlier ground rules
    patterns: dict[tuple, list[tuple]] = {}  # shape -> slots of earlier rules with variables
    for atom in facts:
        ground.setdefault(_shape(0, (atom,)), set()).add(atom.terms)
    for rule in program.rules:
        atoms = (rule.head, *rule.positive, *rule.negative)
        variables: dict[str, int] = {}
        slots = tuple(s for atom in atoms for s in atom.slots(variables))
        width = len(variables)
        shape = _shape(len(rule.positive), atoms)
        earlier_ground = ground.setdefault(shape, set())
        earlier = patterns.setdefault(shape, [])
        if not width:
            if slots in earlier_ground or any(_unify(slots, 0, p) for p in earlier):
                continue
            earlier_ground.add(slots)
            size += 1
        elif ordered:
            overlaps = [
                overlap
                for other in (*earlier, *earlier_ground)
                if (overlap := _unify(slots, width, other)) is not None
            ]
            earlier.append(slots)
            size += len(ordered) ** width - _covered(overlaps, width, ordered)
    return size


def _shape(n_positive: int, atoms: tuple[Atom, ...]) -> tuple:
    """Predicates, signs and arities of a rule's atoms, head first, and the
    length of its positive body: two rules are equal exactly when their
    shapes and flat term tuples are."""
    return (n_positive,) + tuple((a.predicate, a.negated, len(a.terms)) for a in atoms)


def _unify(slots: tuple, width: int, other: tuple) -> tuple[tuple, int] | None:
    """The most general common instance of two flat slot patterns of one
    shape, as the value of each of the ``width`` variables of ``slots``:
    a constant, or the number of its free class; with the count of free
    classes. None when the patterns share no instance. The variables of
    ``other`` are numbered after those of ``slots``, so the two are apart.
    """
    parent: dict = {}  # variable -> a variable or constant it equals

    def root(node):
        while node in parent:
            node = parent[node]
        return node

    for a, b in zip(slots, other):
        x, y = root(a), root(b + width if isinstance(b, int) else b)
        if x == y:
            continue
        if isinstance(x, str):
            if isinstance(y, str):
                return None
            x, y = y, x
        parent[x] = y
    free: dict[int, int] = {}
    terms = [root(i) for i in range(width)]
    terms = [t if isinstance(t, str) else free.setdefault(t, len(free)) for t in terms]
    return tuple(terms), len(free)


def _covered(overlaps: list[tuple[tuple, int]], width: int, universe: list[str]) -> int:
    """How many of a rule's |U|^width bindings lie in at least one overlap."""
    if any(free == width for _, free in overlaps):
        return len(universe) ** width
    if len(overlaps) == 1:
        return len(universe) ** overlaps[0][1]
    covered = set()
    for terms, free in overlaps:
        for values in itertools.product(universe, repeat=free):
            covered.add(tuple([values[t] if isinstance(t, int) else t for t in terms]))
    return len(covered)


def _checked(program: LogicProgram, facts: Iterable[Atom]) -> tuple[Atom, ...]:
    """The facts as a tuple, once every fact is ground and every rule safe."""
    facts = tuple(facts)
    offending = _first_nonground(facts)
    if offending is not None:
        raise RuleError(f"fact is not ground: {offending.render()}")
    for rule in program.rules:
        rule.check_safety()
    return facts


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


def _consistent(model: frozenset[Atom]) -> bool:
    return not any(a.complement() in model for a in model if a.negated)


def stable_models(program: LogicProgram, bound: int = DEFAULT_BOUND) -> list[frozenset[Atom]]:
    """All stable models of a ground program.

    A negation-free program has exactly one stable model, its least
    fixpoint, and needs no candidate enumeration. Otherwise the candidates
    are the subsets of the default-negation support (the distinct atoms
    under ``not``), and ``bound`` caps that support before the exponential
    sweep. Inconsistency is a valid empty result, not an error.
    """
    offending = _first_nonground(
        [a for rule in program.rules for a in (rule.head, *rule.positive, *rule.negative)]
    )
    if offending is not None:
        raise RuleError(f"program is not ground: {offending.render()}")

    negated_support = sorted({a for rule in program.rules for a in rule.negative})
    if not negated_support:
        model = least_model(program.rules)
        return [model] if _consistent(model) else []
    if len(negated_support) > bound:
        raise BoundExceededError(
            f"default-negation support has {len(negated_support)} atoms, solver bound is {bound}"
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
    models.sort(key=sorted)
    return models
