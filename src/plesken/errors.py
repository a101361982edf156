"""Domain error hierarchy shared by all modules, and the JSON shape checks
every document reader uses.

Every error carries a stable machine-readable ``code`` (its class name) and a
JSON-serializable ``witness`` identifying the offending data, so the CLI can
emit one-line diagnostics and exit 1.
"""

from __future__ import annotations

from typing import Any


class DomainError(Exception):
    """Base class for all expected, user-facing failures."""

    def __init__(self, message: str, witness: Any = None) -> None:
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
