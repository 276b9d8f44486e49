"""Exception types shared across the package.

The CLI maps these onto exit codes: DataError -> 2, NumericalError -> 3.
It also maps OSError to 2 and numpy's LinAlgError to 3. Any other exception,
a ValueError or KeyError raised by the program for instance, is a defect: it
is not mapped to an exit code and ends with a traceback. InvalidDeviation
never reaches the CLI: ingest excludes the flight that gives one, and
generation draws again.
"""


class DataError(Exception):
    """Input data is missing, malformed, or fails a check of the pipeline."""


class NumericalError(Exception):
    """A numerical routine failed (non-PSD matrix, degenerate solve, ...)."""


class InvalidDeviation(ValueError):
    """A deviation vector no trajectory can have: a non-positive transit time
    or distance, or a negative inter-arrival time."""
