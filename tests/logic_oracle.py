"""Reference implementations of grounding and the least model.

These are the straightforward versions that the relevance grounding, the
Herbrand count and the counter-based least model in ``kgunits.logic``
replace: the whole Herbrand instantiation is built, every rule instance by
substituting a binding dict into each atom, its relevant part is filtered
from it afterwards, and the least model is reached by re-scanning all
rules until nothing changes;
``stable_models`` enumerates reducts over them, copying every rule. The
guard matching of ``translate_to_owl`` tests every model atom of the
guard's predicate term by term. They serve as the oracle for differential
tests.
"""

from __future__ import annotations

import itertools

from kgunits.errors import BoundExceededError, RuleError
from kgunits.logic import Atom, LogicProgram, Rule, is_variable
from kgunits.owl import render_axiom
from kgunits.translate import WILDCARD, _axiom_well_formed, _instantiate


def ground_program(program: LogicProgram, facts: list[Atom] = ()) -> LogicProgram:
    universe: set[str] = set(program.constants())
    for atom in facts:
        if any(is_variable(t) for t in atom.terms):
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
                _substitute(rule.head, binding),
                tuple(_substitute(a, binding) for a in rule.positive),
                tuple(_substitute(a, binding) for a in rule.negative),
            )
            key = _rule_key(grounded)
            if key not in seen:
                seen.add(key)
                ground_rules.append(grounded)
    return LogicProgram(tuple(ground_rules))


def relevant_rules(program: LogicProgram) -> set[Rule]:
    """The rules of a ground program whose positive body lies in the least
    model of its positive projection (every rule with ``not`` dropped)."""
    derivable = least_model(tuple(Rule(r.head, r.positive) for r in program.rules))
    return {r for r in program.rules if derivable.issuperset(r.positive)}


def _substitute(atom: Atom, binding: dict[str, str]) -> Atom:
    return Atom(atom.predicate, tuple(binding.get(t, t) for t in atom.terms), atom.negated)


def _rule_key(rule: Rule) -> tuple:
    return (
        rule.head,
        rule.positive,
        rule.negative,
    )


def least_model(rules: tuple[Rule, ...]) -> frozenset[Atom]:
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


def stable_models(program: LogicProgram, bound: int = 24) -> list[frozenset[Atom]]:
    atoms: set[Atom] = set()
    for rule in program.rules:
        atoms.add(rule.head)
        atoms.update(rule.positive)
        atoms.update(rule.negative)
    negated_support = sorted(
        {a for rule in program.rules for a in rule.negative}
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
    models.sort(key=sorted)
    return models


def _consistent(model: frozenset[Atom]) -> bool:
    return not any(a.complement() in model for a in model if a.negated)


def translate_to_owl(model, patterns) -> list:
    index: dict[tuple[str, bool], list[Atom]] = {}
    for atom in sorted(model):
        index.setdefault((atom.predicate, atom.negated), []).append(atom)
    axioms = set()
    for pattern in patterns:
        bindings: list[dict[str, str]] = [{}]
        for guard in pattern.positive:
            extended = []
            for binding in bindings:
                for atom in index.get((guard.predicate, guard.negated), ()):
                    nb = _match_atom(guard, atom, binding)
                    if nb is not None:
                        extended.append(nb)
            bindings = extended
            if not bindings:
                break
        for binding in bindings:
            if any(_negative_holds(neg, index, binding) for neg in pattern.negative):
                continue
            for template in pattern.outputs:
                axiom = _instantiate(template, binding)
                if _axiom_well_formed(axiom):
                    axioms.add(axiom)
    return sorted(axioms, key=lambda a: render_axiom(a))


def _match_atom(pattern: Atom, atom: Atom, binding: dict[str, str]):
    if len(pattern.terms) != len(atom.terms):
        return None
    out = dict(binding)
    for p, value in zip(pattern.terms, atom.terms):
        if p == WILDCARD:
            continue
        if is_variable(p):
            if p in out:
                if out[p] != value:
                    return None
            else:
                out[p] = value
        elif p != value:
            return None
    return out


def _negative_holds(pattern: Atom, index, binding: dict[str, str]) -> bool:
    for atom in index.get((pattern.predicate, pattern.negated), ()):
        if _match_atom(_substitute(pattern, binding), atom, {}) is not None:
            return True
    return False
