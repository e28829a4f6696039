"""Immutable value records with a cheap constructor.

:func:`record` makes a class a frozen slotted dataclass, which keeps
``__eq__`` (class check included, so the two interval kinds never
compare equal), ``__hash__``, ``__repr__`` and read-only fields.  The
dataclass ``__init__`` stores through the frozen ``__setattr__`` guard;
the one installed here stores through the slot descriptors, at about
half the cost.  A record pickles as ``(cls, field values)``; a pickle
that restores a ``__dict__`` state fails to load.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

__all__ = ["record"]


def record(cls):
    """Class decorator: a frozen slotted dataclass with a slot-storing
    ``__init__`` and a ``(cls, field values)`` pickle."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    scope = {"_cls": cls}
    params = []
    for f in fields(cls):
        scope[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            scope[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    exec(f"def __init__(self, {', '.join(params)}):\n"
         + "".join(f"    _set_{n}(self, {n})\n" for n in names)
         + "def __reduce__(self):\n"
         + f"    return _cls, ({''.join(f'self.{n}, ' for n in names)})\n",
         scope)
    cls.__init__ = scope["__init__"]
    cls.__reduce__ = scope["__reduce__"]
    for hook in ("__getstate__", "__setstate__"):
        if hook in cls.__dict__:
            delattr(cls, hook)
    return cls
