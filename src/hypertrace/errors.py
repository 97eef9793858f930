"""Exception hierarchy shared by every module in the package.

``ValidationError`` and its subclasses signal bad or inconsistent input;
``LimitExceeded`` signals that a configured resource budget would be
blown.  The command line maps the former to exit code 1 and the latter
to exit code 2.  ``_check_int`` is the integer check that modules and
``Budget`` share.
"""


class HypertraceError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HypertraceError, ValueError):
    """Invalid input or inconsistent arguments."""


class NonUniformEdge(ValidationError):
    """An edge does not consist of exactly m distinct vertices."""


class DuplicateEdge(ValidationError):
    """The same edge appears more than once."""


class VertexOutOfRange(ValidationError):
    """A vertex id falls outside 0..n-1."""


class NotAGraph(ValidationError):
    """An operation restricted to 2-uniform hosts received m != 2."""


class MixedUniformity(ValidationError):
    """Two operands have different uniformity m."""


class TrivialOperand(ValidationError):
    """An operand is too small for the requested construction."""


class InfeasibleQuery(ValidationError):
    """A localized-trace query can never be satisfied."""


class NotEulerian(ValidationError):
    """A digraph or root assignment violates the Euler conditions."""


class EmptyGraph(ValidationError):
    """A counting routine received a digraph with no vertices."""


class MissingProfileEntry(ValidationError):
    """A composition formula needs profile entries beyond the computed depth."""


class LimitExceeded(HypertraceError):
    """A configured enumeration or size budget would be exceeded."""


def _check_int(name: str, value: object, least: int) -> None:
    """Reject a value that is not an ``int`` (``bool`` included) or is
    below ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
