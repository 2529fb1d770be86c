"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code scheme: input problems exit 2,
numerical failures exit 3, configuration problems exit 4.
"""


class PyrokinError(Exception):
    """Base class for all package errors."""


class InputError(PyrokinError):
    """Malformed, missing, or structurally invalid input data."""


class ParseError(InputError):
    """Unparseable record in an input stream; carries the line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DomainError(PyrokinError):
    """Argument outside the mathematically valid domain of an operation."""


class ResolutionError(PyrokinError):
    """Data too coarse (or a window too wide) for the requested operation."""


class RankError(PyrokinError):
    """Degenerate regression input (e.g. zero variance in the regressor)."""


class BracketError(PyrokinError):
    """Root finding failed: no sign change inside the search bracket."""


class RangeError(PyrokinError):
    """Requested value outside the achievable range of a curve."""


class TrainingError(PyrokinError):
    """Model training diverged or could not proceed."""


class ConfigError(PyrokinError):
    """Invalid configuration value or combination."""
