"""Differential tests of the terms, quads and atoms, which are tuples in
their own canonical order, against the records they replaced
(``term_oracle``), whose order was ``term_key``, ``Quad.key`` and
``Atom.key``: the same sort order, equality exactly where the old keys were
equal, hashes that agree with equality, the same fields, and the same
deduplicated, sorted ``QuadDataset``. Rules, tuples too, are compared with
the old ``Rule`` record on equality, hashing, their methods and the
programs grounded and solved from them."""

from __future__ import annotations

import copy
import itertools
import pickle
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import term_oracle as old
from kgunits import logic, store, vocab
from kgunits.errors import BoundExceededError, UnsafeRuleError
from kgunits.logic import Atom, LogicProgram, Rule
from kgunits.store import Iri, Quad, QuadDataset

EX = "https://example.org/"
# Few distinct values, so that draws collide and ties get compared.
_TEXT = st.sampled_from(["", "a", "b", "ab", "é", EX + "a", EX + "b"])
_IRI = st.tuples(st.just("iri"), _TEXT)
# With and without a language tag and a datatype, rdf:langString with no
# tag, and an empty tag, which old records held apart from no tag.
_LITERAL = st.tuples(
    st.just("literal"),
    _TEXT,
    st.sampled_from([None, vocab.XSD_STRING, vocab.XSD_INTEGER, vocab.RDF_LANGSTRING, EX + "dt"]),
    st.sampled_from([None, None, "", "en", "de"]),
)
_TERM = st.one_of(_IRI, _LITERAL)
_QUAD = st.tuples(_TEXT, _TEXT, _TERM, _TEXT)
_ATOM = st.tuples(_TEXT, st.lists(_TEXT, max_size=3).map(tuple), st.booleans())


def _term(module, spec):
    if spec[0] == "iri":
        return module.Iri(spec[1])
    _, lexical, datatype, language = spec
    if datatype is None:
        return module.Literal(lexical, language=language)
    return module.Literal(lexical, datatype, language)


def _quad(module, spec):
    subject, predicate, obj, graph = spec
    return module.Quad(subject, predicate, _term(module, obj), graph)


def _old_key(value):
    return old.term_key(value) if isinstance(value, (old.Iri, old.Literal)) else value.key()


def _agree(olds, news):
    """Sort order, ``==``, ``!=`` and hashes of ``news`` are those of the
    old keys of ``olds``; equal old records stay equal."""
    keys = [_old_key(v) for v in olds]
    order = sorted(range(len(news)), key=news.__getitem__)
    assert [keys[i] for i in order] == sorted(keys)
    for i, j in itertools.product(range(len(news)), repeat=2):
        assert (news[i] == news[j]) == (keys[i] == keys[j])
        assert (news[i] != news[j]) == (keys[i] != keys[j])
        assert (news[i] < news[j]) == (keys[i] < keys[j])
        if news[i] == news[j]:
            assert hash(news[i]) == hash(news[j])
        if olds[i] == olds[j]:
            assert news[i] == news[j]


def _same_term(new, before):
    assert type(new).__name__ == type(before).__name__
    assert str(new) == str(before)
    if isinstance(new, Iri):
        assert new.value == before.value
        assert repr(new) == repr(before)
    else:
        assert (new.lexical, new.datatype) == (before.lexical, before.datatype)
        assert new.language == (before.language or None)
        if before.language != "":
            assert repr(new) == repr(before)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TERM, min_size=1, max_size=8))
def test_terms_order_compare_and_hash_as_their_old_keys(specs):
    olds = [_term(old, s) for s in specs]
    news = [_term(store, s) for s in specs]
    _agree(olds, news)
    for new, before in zip(news, olds):
        _same_term(new, before)


@settings(max_examples=200, deadline=None)
@given(st.lists(_QUAD, min_size=1, max_size=8))
def test_quads_order_compare_and_dedupe_as_their_old_keys(specs):
    olds = [_quad(old, s) for s in specs]
    news = [_quad(store, s) for s in specs]
    _agree(olds, news)
    for new, before in zip(news, olds):
        assert (new.subject, new.predicate, new.graph) == (
            before.subject, before.predicate, before.graph
        )
        _same_term(new.object, before.object)
        assert _back(new.rehome(EX + "h")).key() == before.rehome(EX + "h").key()
    assert [_old_key(q) for q in old.dataset_quads(olds)] == [
        _old_key(_back(q)) for q in QuadDataset(news)
    ]


def _back(quad):
    """The old record of a new quad."""
    g, s, p, o = quad
    if isinstance(o, Iri):
        return old.Quad(s, p, old.Iri(o.value), g)
    return old.Quad(s, p, old.Literal(o.lexical, o.datatype, o.language), g)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ATOM, min_size=1, max_size=8))
def test_atoms_order_compare_and_hash_as_their_old_keys(specs):
    olds = [old.Atom(*s) for s in specs]
    news = [Atom(*s) for s in specs]
    _agree(olds, news)
    for new, before in zip(news, olds):
        assert (new.predicate, new.terms, new.negated) == (
            before.predicate, before.terms, before.negated
        )
        assert repr(new) == repr(before)
        assert new.complement() == Atom(*before.complement().key())


def test_terms_quads_and_atoms_survive_copy_and_pickle():
    """A tuple subclass copies through its constructor: each class names its
    arguments, which the slotted records' frozen fields did not allow."""
    quad = Quad(EX + "s", EX + "p", store.Literal("hallo", language="de"), EX + "g")
    for value in (Iri(EX + "a"), store.Literal("1", vocab.XSD_INTEGER), quad, Atom("p", ("a",), True)):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_rules_survive_copy_and_pickle():
    rule = Rule(Atom("p", ("X",)), (Atom("q", ("X", "a")),), (Atom("r", ("X",), True),))
    for twin in (copy.copy(rule), copy.deepcopy(rule), pickle.loads(pickle.dumps(rule))):
        assert type(twin) is Rule and twin == rule and repr(twin) == repr(rule)


# Few predicates, constants and variables, so that rules collide and ground
# to shared instances.
_RULE_TERMS = ("a", "b", "X", "Y")


def _rule_atoms(terms):
    return st.builds(
        Atom, st.sampled_from(("p", "q")), st.lists(terms, max_size=2).map(tuple), st.booleans()
    )


@st.composite
def _rule_fields(draw):
    """The head, positive body and negative body of a rule that is mostly
    safe: its head and negative body use constants, the variables of its
    positive body and, now and then, the unbound ``W``."""
    positive = draw(st.lists(_rule_atoms(st.sampled_from(_RULE_TERMS)), max_size=2))
    bound = sorted({t for a in positive for t in a.terms if logic.is_variable(t)})
    unsafe = ("W",) if draw(st.integers(0, 5)) == 0 else ()
    safe = st.sampled_from(("a", "b", *bound, *unsafe))
    head = draw(_rule_atoms(safe))
    negative = draw(st.lists(_rule_atoms(safe), max_size=1))
    return head, tuple(positive), tuple(negative)


def _outcome(call):
    """The value of ``call()``, or the type and text of what it raised."""
    try:
        return call()
    except (UnsafeRuleError, BoundExceededError) as exc:
        return type(exc), str(exc)


def _solved(program, facts, cls):
    """The ground program's rules, each of class ``cls``, as field tuples;
    its stable models; and the program's Herbrand size."""
    ground = logic.ground_program(program, facts)
    assert all(type(r) is cls for r in ground.rules)
    rules = [(r.head, r.positive, r.negative) for r in ground.rules]
    models = _outcome(lambda: logic.stable_models(ground, bound=8))
    return rules, models, logic.herbrand_size(program, facts)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_rule_fields(), min_size=1, max_size=5),
    st.lists(_rule_atoms(st.sampled_from(("a", "b", "c"))), max_size=4),
)
@example(  # an even loop through default negation: two stable models
    [(Atom("p", ("a",)), (), (Atom("q", ("a",)),)), (Atom("q", ("a",)), (), (Atom("p", ("a",)),))],
    [],
)
def test_rules_agree_with_the_old_rule_record(specs, facts):
    olds = [old.Rule(*spec) for spec in specs]
    news = [Rule(*spec) for spec in specs]
    for i, j in itertools.product(range(len(news)), repeat=2):
        assert (news[i] == news[j]) == (olds[i] == olds[j])
        assert (news[i] != news[j]) == (olds[i] != olds[j])
    for new, before in zip(news, olds):
        assert hash(new) == hash(before) and repr(new) == repr(before)
        assert new == (before.head, before.positive, before.negative)
        assert new.render() == before.render()
        assert new.is_fact == before.is_fact and new.variables() == before.variables()
        assert _outcome(new.check_safety) == _outcome(before.check_safety)
    # The grounder builds its rules as ``logic.Rule``: patched, the old class.
    with mock.patch.object(logic, "Rule", old.Rule):
        expected = _outcome(lambda: _solved(LogicProgram(tuple(olds)), facts, old.Rule))
    assert _outcome(lambda: _solved(LogicProgram(tuple(news)), facts, Rule)) == expected
