"""Domain error hierarchy shared by all modules, the JSON shape checks
every document reader uses, and :class:`Record`, the base of every record.

Every error carries a stable machine-readable ``code`` (its class name) and a
JSON-serializable ``witness`` identifying the offending data, so the CLI can
emit one-line diagnostics and exit 1.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for all expected, user-facing failures."""

    def __init__(self, message: str, witness: object = None) -> None:
        super().__init__(message)
        self.witness = witness

    @property
    def code(self) -> str:
        return type(self).__name__


# groups
class NotClosed(DomainError): pass
class NoIdentity(DomainError): pass
class MissingInverse(DomainError): pass
class NotAssociative(DomainError): pass
class OrderLimitExceeded(DomainError): pass
class UnknownPreset(DomainError): pass
class BadParameter(DomainError): pass


# liealg
class DimensionMismatch(DomainError): pass
class JacobiViolation(DomainError): pass


# cohomology
class IndexOutOfRange(DomainError): pass
class NotACocycle(DomainError): pass
class InternalInclusionViolation(DomainError): pass


# extensions
class NoSection(DomainError): pass
class DefectNotInKernel(DomainError): pass
class BaseMismatch(DomainError): pass


# projreps
class DefectNotScalar(DomainError): pass
class NotAHomomorphism(DomainError): pass
class SingularF(DomainError): pass
class NotEquivalent(DomainError): pass


# cli
class BadDocument(DomainError): pass


# JSON shape checks: the CLI reports the TypeError they raise as a BadDocument
def _json_int(doc: dict, key: str) -> int:
    """``doc[key]`` when it is a JSON integer; a float, bool or string raises
    ``TypeError`` rather than being truncated or coerced."""
    value = doc[key]
    if type(value) is not int:
        raise TypeError(f"{key} {value!r} is not an integer")
    return value


def _json_array(value, name: str) -> list:
    """``value`` when it is a JSON array; a string, which would be read one
    character at a time, or any other value raises ``TypeError``."""
    if type(value) is not list:
        raise TypeError(f"{name} {value!r} is not an array")
    return value


def _json_strings(value, name: str) -> None:
    """``TypeError`` unless ``value`` is a JSON array of strings."""
    for item in _json_array(value, name):
        if type(item) is not str:
            raise TypeError(f"{name} entry {item!r} is not a string")


class Record:
    """An immutable record: its fields are the names annotated in its class
    body, in order, each defaulting to a value assigned there.  A subclass gets
    ``__init__``, a ``Name(field=value, ...)`` repr and, with ``eq=True``,
    equality by class and :meth:`_key`, hashed unless ``hashable=False``;
    without it, equality is identity.  Setting or deleting an attribute raises
    ``AttributeError``."""

    def __init_subclass__(cls, eq: bool = False, hashable: bool = True) -> None:
        cls._fields = fields = tuple(cls.__annotations__)
        namespace = {"__name__": cls.__module__}
        # generated, so a bad call fails as on a written __init__ and no loop runs per record
        exec(f"def __init__(self, {', '.join(fields)}):\n    d = self.__dict__"
             + "".join(f"\n    d[{f!r}] = {f}" for f in fields), namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__defaults__ = tuple(vars(cls)[f] for f in fields if f in vars(cls)) or None
        if eq:
            cls.__eq__ = lambda self, other: (self._key() == other._key()
                                              if other.__class__ is self.__class__
                                              else NotImplemented)
            cls.__hash__ = (lambda self: hash(self._key())) if hashable else None

    def _key(self) -> tuple:
        """The values that equality and the hash read: every field."""
        return tuple([getattr(self, f) for f in self._fields])

    def __repr__(self) -> str:
        values = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
