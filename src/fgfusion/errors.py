"""Exception hierarchy.

Three branches matter to callers: :class:`ConfigError` (bad parameters,
CLI exit code 2), :class:`DataError` (bad or inconsistent inputs, exit
code 3), and :class:`DivergenceError` (numeric failure, exit code 4).
Plain I/O problems surface as the builtin ``FileNotFoundError`` /
``OSError`` and are treated like data errors by the CLI.
"""

from __future__ import annotations

from numbers import Integral, Real


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


def check_types(
    values: dict, annotations: dict, error: type[ConfigError] = InvalidConfigError
) -> None:
    """Raise ``error`` unless each of ``values`` holds what its string annotation
    names: a bool for ``bool``, an integer for ``int``, a real for ``float``, and a
    list of those for ``list[...]``; an ``... | None`` annotation also takes None.
    Other annotations are not checked. Numpy scalars pass, bools pass only as bool."""
    for name, value in values.items():
        annotation = annotations[name]
        kind = (
            bool if annotation == "bool"
            else Integral if "int" in annotation
            else Real if "float" in annotation
            else None
        )
        if kind is None or (value is None and annotation.endswith("None")):
            continue
        items = value if annotation.startswith("list") else [value]
        # JSON's true and false are bools, and a bool is an Integral too
        if not isinstance(items, (list, tuple)) or not all(
            isinstance(v, kind) and isinstance(v, bool) == (kind is bool) for v in items
        ):
            raise error(f"{name} must hold {kind.__name__} values, got {value!r}")


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


class NormRangeError(DataError):
    """Sample whose squared norm leaves float64's range: above max / 4, where
    the |a|^2 + |b|^2 of a distance would overflow, or 0 in a nonzero row."""


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
