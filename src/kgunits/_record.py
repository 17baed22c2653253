"""Frozen record classes, built without generating code per class.

``dataclasses`` compiles each class's methods from source with ``exec`` at
import, about a millisecond a class, and loads ``inspect``: a large share
of a kgunits command. ``record`` builds them from closures instead. It
builds the settings, schema, unit, OWL and report classes. The terms,
quads, atoms and rules, built by the thousand, are ``_Named`` tuples
(``store.Iri``, ``store.Literal``, ``store.Quad``, ``logic.Atom``,
``logic.Rule``), whose hash, equality and order are the tuple's own.
"""

from __future__ import annotations

import operator
from collections import namedtuple

Field = namedtuple("Field", "name type")  # the type is the annotation string
factory = namedtuple("factory", "make")  # a default made anew for each instance

try:  # the C getter of namedtuple's fields
    from _collections import _tuplegetter as _field
except ImportError:  # pragma: no cover - an interpreter without it
    _field = lambda index, doc: property(operator.itemgetter(index), doc=doc)  # noqa: E731
_new = tuple.__new__


class _Named(tuple):
    """A tuple with named fields; ``_args`` lists them in the order the
    constructor takes them, for ``repr`` and for copying."""

    __slots__ = ()

    def __getnewargs__(self):
        return tuple(getattr(self, name) for name in self._args)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._args)
        return f"{type(self).__name__}({pairs})"


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields, as
    ``dataclass(frozen=True)`` does, keeping the methods the class defines."""
    names = tuple(cls.__annotations__)
    body = vars(cls)
    defaults = {name: body[name] for name in names if name in body}
    post_init = body.get("__post_init__")
    get = operator.attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        values = vars(self)  # written directly, past the frozen __setattr__
        values.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in defaults:
                value = defaults[name]
                values[name] = value.make() if isinstance(value, factory) else value
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs or len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{type(self).__qualname__}({pairs})"

    methods = {
        "__init__": __init__,
        "__repr__": __repr__,
        "__eq__": _equality(key),
        "__hash__": lambda self: hash(key(self)),
        "__setattr__": _frozen,
        "__delattr__": _frozen,
    }
    for name, method in methods.items():
        if name not in body:
            setattr(cls, name, method)
    cls.__record_fields__ = tuple(Field(name, cls.__annotations__[name]) for name in names)
    return cls


def fields(record) -> tuple[Field, ...]:
    return record.__record_fields__


def _equality(key):
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    return __eq__


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r}")
