"""Clustering-based dynamic ensemble selection with a compact binary model
format, a Python inference engine and a fixed-memory C89 emitter.

Numeric hot paths are vectorized numpy kernels; ``BACKEND`` names them.
"""

from ._kernels import BACKEND
from .cluster import KMeansModel, fit_kmeans
from .data import (Dataset, Standardizer, apply_standardizer, fit_standardizer,
                   load_csv, load_idx, make_fold_plan, stratified_split)
from .errors import (CapacityError, ChecksumError, ClusterError, FormatError,
                     IoError, ModelCorruptError, NondeterminismError,
                     SelectionError, ShapeError, StratificationError,
                     TinyDesError)
from .selection import (CompetenceModel, Dsel, SelectionResult,
                        build_competence_model, build_dsel,
                        des_clustering_predict, single_best, static_selection)
from .tinyformat import (TinyEngine, emit_static_source, export_tiny,
                         load_tiny, tiny_predict)
from .trees import ClassifierPool, generate_pool, train_tree

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CapacityError", "ChecksumError", "ClassifierPool", "ClusterError",
    "CompetenceModel", "Dataset", "Dsel", "FormatError", "IoError",
    "KMeansModel", "ModelCorruptError", "NondeterminismError",
    "SelectionError", "SelectionResult", "ShapeError", "Standardizer",
    "StratificationError", "TinyDesError", "TinyEngine",
    "apply_standardizer", "build_competence_model", "build_dsel",
    "des_clustering_predict", "emit_static_source", "export_tiny",
    "fit_kmeans", "fit_standardizer", "generate_pool", "load_csv",
    "load_idx", "load_tiny", "make_fold_plan", "single_best",
    "static_selection", "stratified_split", "tiny_predict", "train_tree",
]
