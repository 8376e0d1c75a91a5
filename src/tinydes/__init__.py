"""Clustering-based dynamic ensemble selection with a compact binary model
format, a Python inference engine and a fixed-memory C89 emitter.

Numeric hot paths run numba-jitted by default; set ``TINYDES_BACKEND=numpy``
before import for the pure-numpy fallback.
"""

from ._kernels import BACKEND
from .cluster import KMeansModel, assign, fit_kmeans
from .data import (Dataset, FoldPlan, Standardizer, apply_standardizer,
                   fit_standardizer, invert_standardizer, load_csv, load_idx,
                   make_fold_plan, stratified_split)
from .errors import (CapacityError, ChecksumError, ClusterError, FormatError,
                     IoError, ModelCorruptError, NondeterminismError,
                     SelectionError, ShapeError, StratificationError,
                     TinyDesError, VoteError)
from .selection import (CompetenceModel, Dsel, SelectionResult,
                        build_competence_model, build_dsel,
                        des_clustering_predict, double_fault, majority_vote,
                        oracle_accuracy, single_best, static_selection)
from .tinyformat import (TinyEngine, emit_static_source, export_tiny,
                         load_tiny, tiny_predict)
from .trees import (ClassifierPool, DecisionTree, ForestSpec, PoolConfig,
                    generate_pool, predict_tree, train_tree)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CapacityError", "ChecksumError", "ClassifierPool", "ClusterError",
    "CompetenceModel", "Dataset", "DecisionTree", "Dsel", "FoldPlan",
    "ForestSpec", "FormatError", "IoError", "KMeansModel", "ModelCorruptError",
    "NondeterminismError", "PoolConfig", "SelectionError", "SelectionResult",
    "ShapeError", "Standardizer", "StratificationError", "TinyDesError",
    "TinyEngine", "VoteError",
    "apply_standardizer", "assign", "build_competence_model", "build_dsel",
    "des_clustering_predict", "double_fault", "emit_static_source",
    "export_tiny", "fit_kmeans", "fit_standardizer", "generate_pool",
    "invert_standardizer", "load_csv", "load_idx",
    "load_tiny", "majority_vote", "make_fold_plan", "oracle_accuracy",
    "predict_tree", "single_best", "static_selection", "stratified_split",
    "tiny_predict", "train_tree",
]
