"""Exception hierarchy for sospencil.

Every error raised on a documented failure path derives from
:class:`SospencilError`, so callers can distinguish "the input is bad" and
"the answer is certified negative" from genuine bugs. Errors that carry a
mathematical payload (infeasibility evidence, parse locations) expose it as
attributes rather than burying it in the message string.
"""

from __future__ import annotations


class SospencilError(Exception):
    """Base class for all documented sospencil failures."""


class StructuralError(SospencilError):
    """Input is structurally invalid (zero denominator, bad arity, ...)."""


class PreconditionError(SospencilError):
    """A documented precondition of the called routine does not hold."""


class CapacityError(SospencilError):
    """Problem size exceeds a documented capacity bound."""


class NotRepresentableError(SospencilError):
    """The polynomial has support outside the span of the requested basis."""


class NoCertificateError(SospencilError):
    """Certification failed; ``evidence`` is the certifier's
    InfeasibilityEvidence."""

    def __init__(self, message, evidence):
        super().__init__(message)
        self.evidence = evidence


class InternalConsistencyError(SospencilError):
    """A verified invariant failed; indicates a bug or an unservable input."""


class InconclusiveScanError(SospencilError):
    """A numeric scan evaluated no points, so no verdict is available."""


class ParseError(SospencilError):
    """Polynomial text could not be parsed; carries 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col
