"""Exception hierarchy.

Three branches matter to callers: :class:`ConfigError` (bad parameters,
CLI exit code 2), :class:`DataError` (bad or inconsistent inputs, exit
code 3), and :class:`DivergenceError` (numeric failure, exit code 4).
Plain I/O problems surface as the builtin ``FileNotFoundError`` /
``OSError`` and are treated like data errors by the CLI.
"""

from __future__ import annotations


class FgfError(Exception):
    """Base class for all library errors."""


class ConfigError(FgfError):
    """Invalid parameters or configuration."""


class InvalidConfigError(ConfigError):
    pass


class InvalidSpecError(ConfigError):
    """Split specification is malformed or inapplicable to the labels."""


class InvalidMetricError(ConfigError):
    pass


class KOutOfRangeError(ConfigError):
    """Neighbor count outside the valid range."""


class DataError(FgfError):
    """Input data is malformed or mutually inconsistent."""


class ParseError(DataError):
    """Unparseable file content.

    ``line`` is the 0-based line number, ``offset`` the 0-based field
    index within the line (None when the whole line is at fault).
    """

    def __init__(self, message: str, line: int | None = None, offset: int | None = None):
        super().__init__(message)
        self.line = line
        self.offset = offset


class NonFiniteValueError(DataError):
    """NaN or infinity where a finite value is required."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class DimensionMismatchError(DataError):
    pass


class LengthMismatchError(DataError):
    pass


class ZeroVectorError(DataError):
    """Zero-norm sample under a metric that cannot handle it."""


class NodeCountMismatchError(DataError):
    pass


class EmptyRowError(DataError):
    pass


class EmptyTrainSetError(DataError):
    pass


class ClassTooSmallError(DataError):
    pass


class InsufficientDataError(DataError):
    pass


class DivergenceError(FgfError):
    """Training produced non-finite or runaway values."""


class PipelineStageError(FgfError):
    """Wraps an error raised inside a named pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.__cause__ = cause
