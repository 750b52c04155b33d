"""Exception types shared across the library.

The CLI maps these onto exit codes: ParseError -> 2, InputError and
ContractError -> 3, SizeCapError -> 4.
"""


class CwkitError(Exception):
    """Base class for all library errors."""


class InputError(CwkitError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class ContractError(CwkitError, RuntimeError):
    """A construction contract or internal invariant was violated."""


class SizeCapError(CwkitError, RuntimeError):
    """An exact oracle was asked to run, or the CLI to build, above a size cap."""


class ParseError(CwkitError, ValueError):
    """Malformed expression text; carries a line and column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
