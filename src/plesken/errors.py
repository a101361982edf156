"""Domain error hierarchy shared by all modules.

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
class NotInvertibleModP(DomainError): pass
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
