"""Exception hierarchy shared across the package.

Each class declares the exit code and the message prefix the CLI uses for
it: input problems exit 2 (the default), numerical failures exit 3,
configuration problems exit 4. ``cli.main`` reads them from the raised
error and writes no code of its own.
"""


class PyrokinError(Exception):
    """Base class for all package errors."""

    exit_code = 2
    prefix = "error"


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


class NumericalError(PyrokinError):
    """A computation on valid input could not produce a result."""

    exit_code = 3
    prefix = "numerical error"


class RankError(NumericalError):
    """Degenerate regression input (e.g. zero variance in the regressor)."""


class TrainingError(NumericalError):
    """Model training diverged or could not proceed."""


class ConfigError(PyrokinError):
    """Invalid configuration value or combination."""

    exit_code = 4
    prefix = "config error"
