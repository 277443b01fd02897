"""The exception classes, one for each way that defkit handles an error,
and `warn`, the package's one warning writer.

`main` ends a `ConfigError` with exit 64, a `BackendError` with 3 and any
other `DefkitError`, the base (a bad input that no subclass names), with 2.
`load_task_file` and `ScoreCache` catch `InvariantError`, of which
`ConfigError` is one; the CLI catches `UnbalancedError` to name the parse
file's line.
"""

import sys


def warn(source: str, message: str) -> None:
    """Write the line `WARNING source: message` to the current `sys.stderr`,
    in one write. `source` is the warning module's `__name__`."""
    sys.stderr.write(f"WARNING {source}: {message}\n")


class DefkitError(Exception):
    """Base class for all toolkit errors."""


class InvariantError(DefkitError):
    """A domain invariant does not hold (e.g. classification task without labels)."""


class ConfigError(InvariantError):
    """A backend or search setting is invalid (a usage error, not bad input)."""


class UnbalancedError(DefkitError):
    """Bracketed tree text has unbalanced parentheses."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class BackendError(DefkitError):
    """Generation backend failed (transport, timeout, HTTP, or contract violation)."""
