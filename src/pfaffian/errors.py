"""Exception hierarchy shared across the toolkit."""


class PfaffianError(Exception):
    """Base class for all errors raised by this package."""


class ExpressionError(PfaffianError):
    """Base class for expression parsing/evaluation errors."""


class ParseError(ExpressionError):
    """Malformed expression text.  Carries the character offset of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class UnknownIdentifierError(ExpressionError):
    """Identifier that is neither a declared variable nor a known function."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r} at offset {offset}")
        self.name = name
        self.offset = offset


class EvalDomainError(ExpressionError):
    """Evaluation hit a point outside an operation's domain.

    Raised for division by zero, log of a non-positive value, sqrt of a
    negative value, and any operation whose result is not a finite float.
    """


class ArityError(ExpressionError):
    """Point length does not match the variable list of the context."""


class FormError(PfaffianError):
    """Base class for Pfaffian-form construction/usage errors."""


class SingularFormError(FormError):
    """Coefficient vector numerically zero at all sampled points."""


class OutOfDomainError(FormError):
    """Point lies outside the form's box domain."""


class AnalysisError(PfaffianError):
    """An analysis could not produce the requested result."""


class UnreachableTransversalError(AnalysisError):
    """A characteristic left the domain before hitting the transversal."""
