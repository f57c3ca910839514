"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: DataError -> 3, ModelError -> 4,
ExplanationError -> 5. Usage problems are handled by argparse (exit 2).
"""


class LeafageError(Exception):
    """Base class for all errors raised by this package."""


class DataError(LeafageError):
    """Dataset ingestion, option or report validation, or serialization
    failed."""


class ModelError(LeafageError):
    """Classifier training or prediction failed."""


class ExplanationError(LeafageError):
    """An explanation could not be produced for the given instance."""


class NoEnemiesError(ExplanationError):
    """The model predicts a single class on the entire reference set, so
    no closest enemy exists."""
