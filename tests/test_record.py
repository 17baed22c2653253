"""Differential test of the record helper against ``dataclasses``, the
oracle: every record class of kgunits behaves like a frozen dataclass twin
with the same fields, defaults and flags."""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgunits
from kgunits._record import factory, fields, replace
from kgunits.owl import AllValuesFrom, SomeValuesFrom
from kgunits.schemas import Var
from kgunits.store import Iri

RECORDS = sorted(
    (
        value
        for info in pkgutil.iter_modules(kgunits.__path__)
        for value in vars(importlib.import_module(f"kgunits.{info.name}")).values()
        if isinstance(value, type)
        and hasattr(value, "__record_fields__")
        and value.__module__ == f"kgunits.{info.name}"
    ),
    key=lambda cls: (cls.__module__, cls.__name__),
)

# Hashable values of several types, and absolute IRIs, which some
# ``__post_init__`` checks ask for.
VALUES = st.one_of(
    st.text(max_size=3),
    st.integers(0, 20).map(lambda i: f"https://e.org/{i}"),
    st.integers(-3, 3),
    st.none(),
    st.booleans(),
    st.tuples(st.text(max_size=2)),
    st.frozensets(st.integers(0, 3), max_size=2),
)


def _defaults(cls) -> dict:
    """The defaults a class declares, as class-level values."""
    return {name: vars(cls)[name] for name in cls.__annotations__ if name in vars(cls)}


def _twin(cls):
    defaults = _defaults(cls)
    specs = []
    for name, annotation in cls.__annotations__.items():
        default = defaults.get(name, dataclasses.MISSING)
        if isinstance(default, factory):
            specs.append((name, annotation, dataclasses.field(default_factory=default.make)))
        else:
            specs.append((name, annotation, dataclasses.field(default=default)))
    namespace = {}
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=True)


TWINS = {cls: _twin(cls) for cls in RECORDS}


def _outcome(call):
    """The value of ``call()``, or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return type(exc)


def _arguments(data, cls) -> tuple[tuple, dict]:
    """Values for every required field and some of the defaulted ones,
    the defaulted ones passed by position or by keyword."""
    names = list(cls.__annotations__)
    required = len(names) - len(_defaults(cls))
    count = data.draw(st.integers(required, len(names)))
    values = [data.draw(VALUES) for _ in range(count)]
    if data.draw(st.booleans()):
        return tuple(values), {}
    return tuple(values[:required]), dict(zip(names[required:], values[required:]))


def test_every_record_class_is_found():
    assert len(RECORDS) == 35
    assert not any("__slots__" in vars(cls) for cls in RECORDS)
    assert not any("__lt__" in vars(cls) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__[8:]}.{cls.__name__}")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_record_behaves_like_its_dataclass_twin(cls, data):
    twin = TWINS[cls]
    assert [(f.name, f.type) for f in fields(cls)] == [
        (f.name, f.type) for f in dataclasses.fields(twin)
    ]
    first = _arguments(data, cls)
    second = first if data.draw(st.booleans()) else _arguments(data, cls)
    a, twin_a = (_outcome(lambda: c(*first[0], **first[1])) for c in (cls, twin))
    b, twin_b = (_outcome(lambda: c(*second[0], **second[1])) for c in (cls, twin))
    failures = [x if isinstance(x, type) else None for x in (a, b, twin_a, twin_b)]
    assert failures[:2] == failures[2:]  # the same calls raise the same errors
    if any(failures):
        return
    assert fields(a) == fields(cls)
    assert repr(a) == repr(twin_a)
    assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(twin_a))
    assert (a == b) == (twin_a == twin_b)
    assert (a != b) == (twin_a != twin_b)
    assert a == a and a != twin_a
    name = data.draw(st.sampled_from([f.name for f in fields(cls)]))
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    value = data.draw(VALUES)
    changed = _outcome(lambda: replace(a, **{name: value}))
    twin_changed = _outcome(lambda: dataclasses.replace(twin_a, **{name: value}))
    assert _outcome(lambda: repr(changed)) == _outcome(lambda: repr(twin_changed))


def test_equality_holds_only_within_one_class():
    """Records of two classes are unequal even when their field tuples are
    equal, as between dataclasses."""
    assert Var("s") != Iri("s")
    assert SomeValuesFrom("p", "c") != AllValuesFrom("p", "c")
    for left, right in itertools.permutations(RECORDS, 2):
        values = ("s",) * len(fields(left))
        if len(fields(right)) != len(values):
            continue
        a, b = _outcome(lambda: left(*values)), _outcome(lambda: right(*values))
        if not isinstance(a, type) and not isinstance(b, type):
            assert a != b and not a == b
