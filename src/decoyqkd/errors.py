"""Exception hierarchy, [0, 1] input check and value-class decorator shared across the package."""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, fields


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(ValueError):
    """Protocol parameters or observed rates are invalid or inadmissible."""


class ConvergenceError(RuntimeError):
    """The sc/s1 solver used up max_iter evaluations; carries the next iterate (sc, s1)."""

    def __init__(self, message: str, sc: float | None = None, s1: float | None = None):
        super().__init__(message)
        self.sc = sc
        self.s1 = s1


class ConfigError(ValueError):
    """A run configuration file or flag set is malformed."""


# A value above the largest float (inf, or an int past the float range) is
# not finite.  Comparing with it converts nothing, so nothing overflows.
_FLOAT_MAX = sys.float_info.max


def _shown(value: object) -> str:
    """value as a refusal prints it: an int too long for str() by its bit count."""
    try:
        return f"{value}"
    except ValueError:
        return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit integer"


def check_probability(name: str, value: float) -> None:
    """Raise ParameterError unless value is a finite number in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must lie in [0, 1], got {_shown(value)}")


def _frozen(cls: type) -> type:
    """``dataclass(frozen=True)`` whose ``__init__`` hands each record its fields as one dict.

    A frozen dataclass's own ``__init__`` stores each field by a call that
    gets past the class's ``__setattr__``.  The ``__init__`` installed here,
    made by one ``exec`` as dataclasses makes its own, sets a dict of the
    fields as the instance dict through the class's ``__dict__`` descriptor,
    then calls ``__post_init__`` if the class has one; a ``__post_init__``
    that normalises a field writes ``self.__dict__``.  Writing the fields
    into ``self.__dict__`` one by one builds as fast, but that dict shares
    its keys with the class, and CPython 3.11 does not specialise attribute
    reads on such a dict: every later read of the record would be slower.
    The signature (field names in order, defaults, annotations), frozen
    assignment, eq, hash, repr, ``fields``, ``replace``, copy and pickle are
    the dataclass ones.  Only plain positional fields are supported, and
    only documented classes: dataclass would give an undocumented class a
    docstring formed from ``object.__init__``, as this one is not yet set.
    """
    if not cls.__doc__:
        raise TypeError(f"{cls.__name__}: a record needs a docstring of its own")
    cls = dataclass(frozen=True, init=False)(cls)
    params = fields(cls)
    if any(f.default_factory is not MISSING or not f.init or f.kw_only for f in params):
        raise TypeError(f"{cls.__name__}: only plain positional fields are supported")
    names = [f.name for f in params]
    record = ", ".join(f"{name!r}: {name}" for name in names)
    lines = [f"def __init__({', '.join(['self', *names])}):", f"    _set_dict(self, {{{record}}})"]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace: dict = {}
    scope = {"__name__": cls.__module__, "_set_dict": vars(cls)["__dict__"].__set__}
    exec("\n".join(lines), scope, namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(f.default for f in params if f.default is not MISSING) or None
    init.__annotations__ = {**{f.name: f.type for f in params}, "return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
