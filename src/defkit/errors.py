"""Exception hierarchy shared by all defkit modules, and `warn`, their one
warning writer."""

import sys


def warn(source: str, message: str) -> None:
    """Write the line `WARNING source: message` to the current `sys.stderr`,
    in one write. `source` is the warning module's `__name__`."""
    sys.stderr.write(f"WARNING {source}: {message}\n")


class DefkitError(Exception):
    """Base class for all toolkit errors."""


# corpus
class SchemaError(DefkitError):
    """Task file violates the expected JSON schema (missing field, wrong type)."""


class InvariantError(DefkitError):
    """A domain invariant does not hold (e.g. classification task without labels)."""


class ConfigError(InvariantError):
    """A backend or search setting is invalid (a usage error, not bad input)."""


class SizeError(DefkitError):
    """Requested split sizes exceed the available instances."""


# annotations
class DegenerateError(DefkitError):
    """Fleiss kappa is undefined: expected agreement equals 1."""


class ValidationError(DefkitError):
    """An annotation set fails validation against its task."""


# parse
class UnbalancedError(DefkitError):
    """Bracketed tree text has unbalanced parentheses."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class EmptyError(DefkitError):
    """Bracketed tree text contains no tree."""


class DepthError(DefkitError):
    """Requested depth is outside 1..Dep(T)."""


class RootRemovalError(DefkitError):
    """Attempted to remove the (possibly synthetic) root node."""


class UnknownNodeError(DefkitError):
    """Node id does not exist in the tree."""


# metrics
class EmptyReferenceListError(DefkitError):
    """rouge_l called with no references."""


# ablation
class EmptyDefinitionError(DefkitError):
    """Compression ratio of an empty (zero-token) full definition."""


# scorer / stdc
class ScorerError(DefkitError):
    """Failure while scoring a definition."""


class BackendError(ScorerError):
    """Generation backend failed (transport, HTTP, or contract violation)."""


class BackendTimeoutError(BackendError):
    """Generation backend did not answer within the request timeout."""


class EmptyResultError(DefkitError):
    """Compression produced an empty definition and empty results are disallowed."""


# triplet
class MissingSpanError(DefkitError):
    """Triplet extraction needs an InputContent and an ActionContent span."""
