"""Value semantics for plain record classes, which keep ``dataclasses`` and
``inspect`` out of every CLI call's start-up. A record's fields are the
parameters of its ``__init__``, which stores each under its own name;
equality, hash and repr follow them in order, as a frozen dataclass's do.
A mutable record sets ``__hash__ = None``."""


class Record:
    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"
