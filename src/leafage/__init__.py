"""Local explanations for black-box binary classifiers.

Explanations pair per-feature importances with the most relevant
same-class and opposite-class training examples, derived from a linear
surrogate fitted around the closest training row the model labels
differently.  The package also ships six reference classifiers, a
simplified LIME-style baseline and the AUC-based local-fidelity
evaluation protocol used to compare them.

The top level holds the documented API; the pipeline's steps are
imported from their own modules, ``leafage.core``, ``leafage.lime`` and
``leafage.evaluation``.
"""
from .core import Example, Explanation, LeafageConfig, LocalSurrogate, explain
from .data import (
    Dataset,
    SplitSpec,
    Standardizer,
    generate_artificial,
    load_csv,
    one_vs_rest,
    train_test_split,
)
from .errors import (
    DataError,
    ExplanationError,
    LeafageError,
    ModelError,
    NoEnemiesError,
)
from .evaluation import FidelityConfig, FidelitySummary, results_table, run_setting
from .lime import LimeConfig

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Standardizer",
    "SplitSpec",
    "load_csv",
    "train_test_split",
    "one_vs_rest",
    "generate_artificial",
    "LeafageConfig",
    "LocalSurrogate",
    "Example",
    "Explanation",
    "explain",
    "LimeConfig",
    "FidelityConfig",
    "FidelitySummary",
    "run_setting",
    "results_table",
    "LeafageError",
    "DataError",
    "ModelError",
    "ExplanationError",
    "NoEnemiesError",
    "__version__",
]
