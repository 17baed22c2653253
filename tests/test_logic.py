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
    herbrand_size,
    least_model,
    parse_rules,
    render_atoms,
    stable_models,
)


def brute_force_stable_models(program: LogicProgram) -> list[frozenset[Atom]]:
    """Oracle: sweep all 2^n candidate atom sets and keep those equal to
    the least model of their own reduct."""
    atoms = sorted({a for r in program.rules for a in (r.head, *r.positive, *r.negative)})
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
    models.sort(key=sorted)
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
    facts = [Atom("hand", ("x1",))]
    ground = ground_program(program, facts)
    non_fact = [r for r in ground.rules if not r.is_fact]
    assert len(non_fact) == 1
    assert herbrand_size(program, facts) == 1 + 1
    # two variables over three constants: nine Herbrand instances, of
    # which the two with q(X) and r(Y) among the facts are relevant
    program = parse_rules("p(X, Y) :- q(X), r(Y).")
    facts = [Atom("q", ("a",)), Atom("r", ("b",)), Atom("q", ("c",))]
    ground = ground_program(program, facts)
    non_fact = [r for r in ground.rules if not r.is_fact]
    assert {r.head for r in non_fact} == {Atom("p", ("a", "b")), Atom("p", ("c", "b"))}
    assert herbrand_size(program, facts) == 3 + 9


def test_herbrand_size_is_counted_not_built():
    """Over 200 constants: the first rule has 200^2 instances; the second
    and the third 200^2 each, less the 200 with X = Y they share with the
    first (they share none with each other); the fourth 200^3, less the
    union of all three; the fifth has a shape of its own."""
    program = parse_rules(
        "p(X, X, Z) :- q(X, X, Z). p(X, Y, a) :- q(X, Y, a). p(X, Y, b) :- q(X, Y, b).\n"
        "p(X, Y, Z) :- q(X, Y, Z). p(X, Y) :- q(X, Y, a)."
    )
    facts = [Atom("q", (f"c{i}", "a", "b")) for i in range(198)]
    n = 200
    expected = 198 + n**2 + 2 * (n**2 - n) + (n**3 - (3 * n**2 - 2 * n)) + n**2
    assert herbrand_size(program, facts) == expected


def test_nonground_fact_rejected():
    with pytest.raises(RuleError):
        ground_program(LogicProgram(), [Atom("p", ("X",))])


@pytest.mark.parametrize(
    "text, message",
    [
        ("r(X) :- ", "line 1: expected a term, got end of input"),
        ("p(X) :- q(X,", "line 1: expected a term, got end of input"),
        ("p(a).\nq(X) :- p(X)\n", "line 2: expected '.' to end rule, got end of input"),
    ],
)
def test_parse_error_at_end_of_input_says_so(text, message):
    with pytest.raises(RuleError) as info:
        parse_rules(text)
    assert str(info.value) == message


@pytest.mark.parametrize("number", ["12", "3.4"])
def test_number_term_is_ascii_digits(number):
    (rule,) = parse_rules(f"p(a).\nq({number}).").rules[1:]
    assert rule.head.terms == (number,)


@pytest.mark.parametrize("number", ["\u0661\u0662", "\u0663.\u0664", "1\u0662"])
def test_number_term_in_other_digits_is_an_error(number):
    # Arabic-Indic digits, which a Unicode \d would read as a number.
    with pytest.raises(RuleError, match="^line 2: cannot tokenize"):
        parse_rules(f"p(a).\nq({number}).")


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


def test_bound_counts_default_negated_atoms_only():
    # twenty atoms, one of them under default negation
    rules = [Rule(Atom(f"p{i}")) for i in range(18)] + [Rule(Atom("q"), (Atom("p0"),), (Atom("r"),))]
    (model,) = stable_models(LogicProgram(tuple(rules)), bound=1)
    assert Atom("q") in model
    rules.append(Rule(Atom("r"), (), (Atom("q"),)))
    with pytest.raises(BoundExceededError, match="support has 2 atoms, solver bound is 1"):
        stable_models(LogicProgram(tuple(rules)), bound=1)


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
CONSTANTS = ("a", "b", '"s"', "1", "_")  # "_" is a constant in rules, a wildcard only in guards
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
    """Random rules, some repeated verbatim, with variables renamed or with
    a variable fixed to a constant, so that several rules ground to some
    or all of the same instances, plus ground facts over a few constants
    the rules may not mention."""
    rules = draw(st.lists(_rules(), max_size=4))
    for rule in list(rules):
        if draw(st.booleans()):
            order = draw(st.permutations(VARIABLES))
            rules.append(_renamed(rule, dict(zip(VARIABLES, order))))
        if draw(st.booleans()):
            # the same rule with one variable fixed: part of its instances
            rules.append(_renamed(rule, {draw(st.sampled_from(VARIABLES)): draw(st.sampled_from(CONSTANTS))}))
    facts = draw(st.lists(_atoms(st.sampled_from(CONSTANTS + ("c",))), max_size=4))
    return LogicProgram(tuple(draw(st.permutations(rules)))), facts


def _check_against_herbrand(program: LogicProgram, facts) -> LogicProgram:
    """The relevant grounding against the Herbrand instantiation: equal to
    its relevant part as a set, with no rule twice; its size counted
    exactly; and the same stable models wherever the oracle solves."""
    ground = ground_program(program, facts)
    herbrand = oracle.ground_program(program, facts)
    assert set(ground.rules) == oracle.relevant_rules(herbrand)
    assert len(ground.rules) == len(set(ground.rules))
    assert herbrand_size(program, facts) == len(herbrand.rules)
    assert least_model(ground.rules) == oracle.least_model(ground.rules)
    try:
        expected = oracle.stable_models(herbrand, bound=40)
    except BoundExceededError:
        return ground
    assert stable_models(ground, bound=40) == expected
    return ground


@settings(max_examples=300, deadline=None)
@given(_programs())
def test_grounding_matches_substituting_oracle(case):
    program, facts = case
    _check_against_herbrand(program, facts)


def test_cross_rule_dedup_keeps_each_instance_once():
    # The fact, the variable-free rule and the renamed copy repeat
    # instances of earlier rules. Instances that differ only in arity
    # (p(a, b) :- q(a) against p(a) :- q(b, a)) or only in where a body
    # atom sits (positive or default-negated) are distinct.
    program = parse_rules(
        "p(X, Y) :- q(X), r(Y). p(a, b) :- q(a), r(b). p(Y, X) :- q(Y), r(X). q(a).\n"
        "p(X, b) :- q(X). p(a) :- q(b, a). s(a) :- q(a). s(a) :- not q(a)."
    )
    facts = [Atom("q", ("a",)), Atom("r", ("b",)), Atom("q", ("b", "a"))]
    ground = _check_against_herbrand(program, facts)
    assert Rule(Atom("p", ("a", "b")), (Atom("q", ("a",)),)) in ground.rules
    assert Rule(Atom("p", ("a",)), (Atom("q", ("b", "a")),)) in ground.rules
    assert Rule(Atom("s", ("a",)), (), (Atom("q", ("a",)),)) in ground.rules
    # Without the fact q(b, a) its rule has a Herbrand instance but no
    # relevant one.
    ground = _check_against_herbrand(program, facts[:2])
    assert not any(r.head == Atom("p", ("a",)) for r in ground.rules)


def test_relevant_grounding_joins_over_several_rounds():
    # a chain of derivations; bodies whose later atoms arrive in later
    # rounds than their first, joined through index tables built in an
    # earlier round; a body with a constant and a repeated variable
    program = parse_rules(
        "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z).\n"
        "loop(X) :- path(X, X). hub(X) :- path(a, X), not loop(X).\n"
        "from(X, Z) :- edge(X, Y), path(Y, Z). two(X, Z) :- path(X, Y), path(Y, Z)."
    )
    facts = [Atom("edge", pair) for pair in (("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"))]
    ground = _check_against_herbrand(program, facts)
    (model,) = stable_models(ground)
    assert {a.terms[0] for a in model if a.predicate == "loop"} == {"a", "b", "c"}
    assert {a.terms[0] for a in model if a.predicate == "hub"} == {"d"}


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


# Nested namespaces and two of equal length; a prefix table may also give
# one namespace two names.
_RENDER_NAMESPACES = [
    "https://example.org/",
    "https://example.org/kg/",
    "https://example.org/kg/x/",
    "https://example.org/ab/",
    "https://example.org/k",
]
_render_token = st.one_of(
    st.tuples(st.sampled_from(_RENDER_NAMESPACES), st.sampled_from(["", "p", "kg/", "x/y", "k"])).map("".join),
    st.sampled_from(["X", "c", '"lit"', "42", "https://other.example/z"]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(Atom, _render_token, st.lists(_render_token, max_size=3).map(tuple), st.booleans()),
        max_size=8,
    ),
    st.dictionaries(
        st.sampled_from(["ex", "kg", "kgx", "ab", "k", "alias"]), st.sampled_from(_RENDER_NAMESPACES), max_size=6
    ),
)
def test_render_atoms_matches_atom_render(atoms, prefixes):
    """Shortening each distinct token once per call gives what rendering
    atom by atom gives, under any prefix table."""
    assert render_atoms(atoms, prefixes) == [a.render(prefixes) for a in atoms]
