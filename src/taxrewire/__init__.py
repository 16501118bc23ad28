"""Similarity-driven taxonomy rewiring and hierarchical text classification.

The package corrects an expert-defined class taxonomy from data (highly
similar leaf classes are regrouped by moving leaves, creating shared
parents, and deleting emptied nodes) and trains top-down or flat
logistic-regression classifiers over the result.
"""

from .corpus import (
    Dataset,
    DatasetFormatError,
    SparseVector,
    apply_tfidf,
    compute_idf,
    parse_dataset,
    parse_labels,
    serialize_dataset,
    split_train_validation,
    tfidf_normalize,
    with_constant_feature,
)
from .learner import (
    FingerprintMismatchError,
    LearnerError,
    ModelSet,
    WeightBlock,
    lr_objective_gradient,
    parse_model_set,
    predict_dataset,
    serialize_model_set,
    train_flat,
    train_node,
    train_topdown,
    tune_c,
)
from .metrics import (
    MetricsError,
    build_report,
    hier_f1,
    macro_f1,
    micro_f1,
    per_class_stats,
    rare_category_report,
)
from .rewire import (
    RewireError,
    RewireLog,
    collapse_chains,
    replay_log,
    rewire_hierarchy,
)
from .simgraph import (
    ScoreTable,
    SimilarPairSet,
    SimilarityError,
    all_pairs_scores,
    auto_threshold,
    class_centroids,
    cosine,
    knee_rank,
    select_at_knee,
    select_pairs,
)
from .synthbench import (
    BenchError,
    PlantConfig,
    PlantedBench,
    gen_planted,
    perfect_tree,
)
from .taxonomy import Taxonomy, TaxonomyError, parse_taxonomy, serialize_taxonomy

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
