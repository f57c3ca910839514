"""Local explanations for black-box binary classifiers.

Explanations pair per-feature importances with the most relevant
same-class and opposite-class training examples, derived from a linear
surrogate fitted around the closest training row the model labels
differently.  The package also ships six reference classifiers, a
simplified LIME-style baseline and the AUC-based local-fidelity
evaluation protocol used to compare them.
"""
from .core import (
    Example,
    Explanation,
    LeafageConfig,
    LocalSurrogate,
    closest_enemy,
    dissimilarities,
    explain,
    feature_importances,
    fit_local_linear,
    retrieve_examples,
    sample_local_training_set,
)
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
from .evaluation import (
    FidelityConfig,
    FidelitySummary,
    auc,
    fidelity_sphere,
    results_table,
    run_setting,
    wilcoxon_signed_rank,
)
from .lime import LimeConfig, kernel_weights, lime_fit, lime_sample

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
    "closest_enemy",
    "sample_local_training_set",
    "fit_local_linear",
    "dissimilarities",
    "feature_importances",
    "retrieve_examples",
    "explain",
    "LimeConfig",
    "lime_sample",
    "kernel_weights",
    "lime_fit",
    "FidelityConfig",
    "FidelitySummary",
    "auc",
    "wilcoxon_signed_rank",
    "fidelity_sphere",
    "run_setting",
    "results_table",
    "LeafageError",
    "DataError",
    "ModelError",
    "ExplanationError",
    "NoEnemiesError",
    "__version__",
]
