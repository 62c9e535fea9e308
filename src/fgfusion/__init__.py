"""Multi-modal feature fusion via extended Jaccard graphs and SGD embeddings.

Pipeline: per-modality k-NN graphs with Jaccard-corroborated edge weights,
edge-union fusion, Gaussian-kernel row normalization, and negative-sampling
SGD training of fused feature vectors, plus a split-and-classify
evaluation harness.
"""

__version__ = "0.1.0"

from .dataset import (
    EmbeddingMatrix,
    FeatureMatrix,
    LabelVector,
    load_embeddings,
    load_features,
    load_labels,
    save_embeddings,
    save_features,
    save_labels,
    synth_multimodal,
    validate_alignment,
)
from .ejgraph import SparseGraph, build_ejg, load_graph, save_graph
from .embed import TrainConfig, TrainReport, init_embeddings, sgd_step, train
from .evalharness import (
    PipelineConfig,
    PipelineResult,
    ResultRow,
    ResultTable,
    SplitSpec,
    knn_classify,
    make_splits,
    run_pipeline,
    sweep_report,
    zscore_concat,
)
from .fusion import (
    AffinityMatrix,
    SamplerTable,
    build_samplers,
    fuse_graphs,
    load_affinity,
    normalize_affinity,
    save_affinity,
)
from .knn import KnnIndex, build_index, pairwise_distances

__all__ = [
    "AffinityMatrix",
    "EmbeddingMatrix",
    "FeatureMatrix",
    "KnnIndex",
    "LabelVector",
    "PipelineConfig",
    "PipelineResult",
    "ResultRow",
    "ResultTable",
    "SamplerTable",
    "SparseGraph",
    "SplitSpec",
    "TrainConfig",
    "TrainReport",
    "build_ejg",
    "build_index",
    "build_samplers",
    "fuse_graphs",
    "init_embeddings",
    "knn_classify",
    "load_affinity",
    "load_embeddings",
    "load_features",
    "load_graph",
    "load_labels",
    "make_splits",
    "normalize_affinity",
    "pairwise_distances",
    "run_pipeline",
    "save_affinity",
    "save_embeddings",
    "save_features",
    "save_graph",
    "save_labels",
    "sgd_step",
    "sweep_report",
    "synth_multimodal",
    "train",
    "validate_alignment",
    "zscore_concat",
]
