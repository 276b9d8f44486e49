"""Exception types shared across the package.

The CLI maps these onto exit codes: DataError -> 2, NumericalError -> 3.
It maps OSError and plain ValueError to 2 and numpy's LinAlgError to 3 too,
so a broken caller contract also reads as a data error (ROADMAP open item 6).
"""


class TrafgenError(Exception):
    """Base class for errors raised by this package."""


class DataError(TrafgenError):
    """Input data is missing, malformed, or empty after filtering."""


class SegmentationError(DataError):
    """A flight could not be split into radar-vector and final-approach parts."""


class ClassificationError(DataError):
    """A flight could not be classified (too few usable points)."""


class NumericalError(TrafgenError):
    """A numerical routine failed (non-PSD matrix, degenerate solve, ...)."""
