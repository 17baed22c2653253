from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logic_oracle as oracle
from kgunits.errors import BoundExceededError, RuleError, UnsafeRuleError
from kgunits.logic import (
    Atom,
    LogicProgram,
    Rule,
    ground_program,
    least_model,
    parse_rules,
    program_atoms,
    render_atoms,
    stable_models,
)


def brute_force_stable_models(program: LogicProgram) -> list[frozenset[Atom]]:
    """Oracle: sweep all 2^n candidate atom sets and keep those equal to
    the least model of their own reduct."""
    atoms = sorted(program_atoms(program), key=lambda a: a.key())
    models = []
    for bits in itertools.product((False, True), repeat=len(atoms)):
        candidate = frozenset(a for a, bit in zip(atoms, bits) if bit)
        reduct = [
            Rule(r.head, r.positive)
            for r in program.rules
            if not any(n in candidate for n in r.negative)
        ]
        if least_model(tuple(reduct)) == candidate and not any(
            a.complement() in candidate for a in candidate if a.negated
        ):
            models.append(candidate)
    models.sort(key=lambda m: sorted(a.key() for a in m))
    return models


def test_parse_and_render_round_trip():
    program = parse_rules("p(a). q(X) :- p(X), not r(X).")
    assert len(program.rules) == 2
    rule = program.rules[1]
    assert rule.head.predicate == "q"
    assert rule.negative[0].predicate == "r"
    assert rule.render() == "q(X) :- p(X), not r(X)."


def test_classical_negation_parse():
    program = parse_rules("-p(a). q :- not -p(b).")
    assert program.rules[0].head.negated
    assert program.rules[1].negative[0].negated


def test_prefixed_names_expand():
    program = parse_rules(
        "rdf:type(x, fma:Hand).", prefixes={"rdf": "http://r/", "fma": "http://f/"}
    )
    atom = program.rules[0].head
    assert atom.predicate == "http://r/type"
    assert atom.terms == ("x", "http://f/Hand")


def test_unsafe_head_variable_rejected():
    with pytest.raises(UnsafeRuleError):
        parse_rules("p(X) :- not q(X).")


def test_unsafe_negative_variable_rejected():
    with pytest.raises(UnsafeRuleError):
        parse_rules("p :- q, not r(X).")


def test_grounding_counts():
    # one variable over the one-constant universe {x1}: a single instance
    program = parse_rules("hasthumb(X) :- hand(X), not thumbless(X).")
    ground = ground_program(program, [Atom("hand", ("x1",))])
    non_fact = [r for r in ground.rules if not r.is_fact]
    assert len(non_fact) == 1
    # two variables over three constants: nine instances
    program = parse_rules("p(X, Y) :- q(X), r(Y).")
    ground = ground_program(
        program, [Atom("q", ("a",)), Atom("r", ("b",)), Atom("q", ("c",))]
    )
    non_fact = [r for r in ground.rules if not r.is_fact]
    assert len(non_fact) == 9


def test_nonground_fact_rejected():
    with pytest.raises(RuleError):
        ground_program(LogicProgram(), [Atom("p", ("X",))])


def test_single_model_example():
    program = ground_program(parse_rules("p. q :- p, not r."), [])
    models = stable_models(program)
    assert models == [frozenset({Atom("p"), Atom("q")})]


def test_empty_program_has_empty_model():
    assert stable_models(LogicProgram()) == [frozenset()]


def test_even_loop_two_models():
    program = ground_program(parse_rules("p :- not q. q :- not p."), [])
    models = stable_models(program)
    assert len(models) == 2
    assert frozenset({Atom("p")}) in models
    assert frozenset({Atom("q")}) in models


def test_odd_loop_no_model():
    program = ground_program(parse_rules("p :- not p."), [])
    assert stable_models(program) == []


def test_classical_inconsistency_rejected():
    program = ground_program(parse_rules("p. -p."), [])
    assert stable_models(program) == []


def test_thumb_default_non_monotonic():
    base = "haspart(X, thumb) :- hand(X), not lackspart(X, thumb).\nhand(x1).\n"
    inferred = Atom("haspart", ("x1", "thumb"))
    models = stable_models(ground_program(parse_rules(base), []))
    assert len(models) == 1 and inferred in models[0]
    models = stable_models(
        ground_program(parse_rules(base + "lackspart(x1, thumb)."), [])
    )
    assert len(models) == 1 and inferred not in models[0]


def test_prototypical_statement_with_classical_exception():
    # "Typically true" knowledge guarded by the absence of an explicit
    # classically-negated exception.
    base = (
        "has-part(X, thumb) :- instance-of(X, hand), not -has-part(X, thumb).\n"
        "instance-of(x1, hand).\n"
    )
    inferred = Atom("has-part", ("x1", "thumb"))
    (model,) = stable_models(ground_program(parse_rules(base), []))
    assert inferred in model
    (model,) = stable_models(
        ground_program(parse_rules(base + "-has-part(x1, thumb)."), [])
    )
    assert inferred not in model
    assert Atom("has-part", ("x1", "thumb"), negated=True) in model


def test_monotone_fragment_equals_forward_chaining():
    rng = random.Random(99)
    atoms = [Atom(f"p{i}") for i in range(8)]
    for _ in range(25):
        rules = []
        for _ in range(rng.randint(1, 10)):
            head = rng.choice(atoms)
            body = tuple(rng.sample(atoms, rng.randint(0, 3)))
            rules.append(Rule(head, body))
        program = LogicProgram(tuple(rules))
        models = stable_models(program, bound=64)
        assert len(models) == 1
        assert models[0] == least_model(program.rules)


def test_bound_enforced_for_default_negation():
    rules = [Rule(Atom(f"p{i}"), (), (Atom(f"q{i}"),)) for i in range(20)]
    program = LogicProgram(tuple(rules))
    with pytest.raises(BoundExceededError):
        stable_models(program, bound=8)


def _random_program(rng: random.Random, n_atoms: int) -> LogicProgram:
    atoms = [Atom(f"p{i}") for i in range(n_atoms)]
    rules = []
    for _ in range(rng.randint(1, 2 * n_atoms)):
        head = rng.choice(atoms)
        pool = [a for a in atoms if a != head]
        rng.shuffle(pool)
        n_pos = rng.randint(0, min(2, len(pool)))
        n_neg = rng.randint(0, min(2, len(pool) - n_pos))
        positive = tuple(pool[:n_pos])
        negative = tuple(pool[n_pos : n_pos + n_neg])
        rules.append(Rule(head, positive, negative))
    return LogicProgram(tuple(rules))


def test_solver_matches_brute_force_oracle_randomized():
    rng = random.Random(7)
    for _ in range(60):
        program = _random_program(rng, rng.randint(2, 8))
        assert stable_models(program, bound=32) == brute_force_stable_models(program)


# ---------------------------------------------------------------------------
# Differential tests against the substituting grounder and fixpoint solver
# ---------------------------------------------------------------------------

PREDICATES = ("p", "q", "r")
CONSTANTS = ("a", "b", '"s"', "1")
VARIABLES = ("X", "Y", "Z")


def _atoms(terms):
    return st.builds(
        Atom,
        st.sampled_from(PREDICATES),
        st.lists(terms, max_size=2).map(tuple),
        st.booleans(),
    )


@st.composite
def _rules(draw):
    """Safe rules: head and default-negated atoms use only constants and
    variables of the positive body; all-constant bodies give variable-free
    rules."""
    positive = tuple(
        draw(st.lists(_atoms(st.sampled_from(CONSTANTS + VARIABLES)), max_size=2))
    )
    bound = sorted({t for a in positive for t in a.terms if t in VARIABLES})
    safe = st.sampled_from(CONSTANTS + tuple(bound))
    head = draw(_atoms(safe))
    negative = tuple(draw(st.lists(_atoms(safe), max_size=1)))
    return Rule(head, positive, negative)


def _renamed(rule: Rule, mapping: dict[str, str]) -> Rule:
    rename = lambda a: Atom(a.predicate, tuple(mapping.get(t, t) for t in a.terms), a.negated)
    return Rule(
        rename(rule.head), tuple(map(rename, rule.positive)), tuple(map(rename, rule.negative))
    )


@st.composite
def _programs(draw):
    """Random rules, some repeated verbatim or with variables renamed so
    that several rules ground to the same instances, plus ground facts over
    a few constants the rules may not mention."""
    rules = draw(st.lists(_rules(), max_size=4))
    for rule in list(rules):
        if draw(st.booleans()):
            order = draw(st.permutations(VARIABLES))
            rules.append(_renamed(rule, dict(zip(VARIABLES, order))))
    facts = draw(st.lists(_atoms(st.sampled_from(CONSTANTS + ("c",))), max_size=4))
    return LogicProgram(tuple(draw(st.permutations(rules)))), facts


def _stable_or_error(solve, program):
    try:
        return solve(program, bound=40)
    except BoundExceededError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(_programs())
def test_grounding_matches_substituting_oracle(case):
    program, facts = case
    ground = ground_program(program, facts)
    assert ground.rules == oracle.ground_program(program, facts).rules
    assert least_model(ground.rules) == oracle.least_model(ground.rules)
    assert _stable_or_error(stable_models, ground) == _stable_or_error(
        oracle.stable_models, ground
    )


def test_cross_rule_dedup_keeps_first_instance_order():
    # The fact, the variable-free rule and the renamed copy repeat
    # instances of earlier rules. Instances that differ only in arity
    # (p(a, b) :- q(a) against p(a) :- q(b, a)) or only in where a body
    # atom sits (positive or default-negated) are distinct.
    program = parse_rules(
        "p(X, Y) :- q(X), r(Y). p(a, b) :- q(a), r(b). p(Y, X) :- q(Y), r(X). q(a).\n"
        "p(X, b) :- q(X). p(a) :- q(b, a). s(a) :- q(a). s(a) :- not q(a)."
    )
    facts = [Atom("q", ("a",)), Atom("r", ("b",))]
    ground = ground_program(program, facts)
    assert ground.rules == oracle.ground_program(program, facts).rules
    assert len(ground.rules) == len(set(ground.rules))
    assert Rule(Atom("p", ("a", "b")), (Atom("q", ("a",)),)) in ground.rules
    assert Rule(Atom("p", ("a",)), (Atom("q", ("b", "a")),)) in ground.rules
    assert Rule(Atom("s", ("a",)), (), (Atom("q", ("a",)),)) in ground.rules


def test_stable_models_reports_nonground_atom():
    program = LogicProgram((Rule(Atom("p", ("a",)), (Atom("q", ("X",)),)),))
    with pytest.raises(RuleError, match=r"not ground: q\(X\)"):
        stable_models(program)


def test_render_atoms_tries_the_longest_namespace_first():
    """Equal lengths keep table order; a token equal to a namespace falls
    through to a shorter one."""
    prefixes = {
        "ex": "https://example.org/",
        "kg": "https://example.org/kg/",
        "ab": "https://example.org/ab/",
        "kg2": "https://example.org/kg/",
    }
    atoms = [
        Atom("https://example.org/kg/p", ("https://example.org/ab/x", "https://example.org/kg/", "C")),
        Atom("https://example.org/q", negated=True),
    ]
    assert render_atoms(atoms, prefixes) == ["kg:p(ab:x, ex:kg/, C)", "-ex:q"]
    assert render_atoms(atoms, prefixes) == [a.render(prefixes) for a in atoms]
    assert render_atoms(atoms) == [a.render() for a in atoms] == [
        "https://example.org/kg/p(https://example.org/ab/x, https://example.org/kg/, C)",
        "-https://example.org/q",
    ]
