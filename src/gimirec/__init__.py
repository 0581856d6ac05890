"""Multi-interest sequential recommender with interval-weighted global
co-occurrence context."""

__version__ = "0.1.0"

from .config import HyperParams, PRESETS, load_config
from .global_context import (AblationVariant, HopPairAccumulator,
                             NormalizedAdjacency, build_weighted_adjacency,
                             extract_hop_pairs, global_embeddings,
                             occurrence_weight)
from .ingest import (DatasetBundle, DatasetSplit, InteractionRecord,
                     Sequences, Vocab, filter_and_index, load_bundle,
                     parse_log, prepare, split_users)
from .model import ModelDims, ModelParams, load_checkpoint, save_checkpoint
from .recent import RecentWindow, make_window
from .serve_eval import (MetricsReport, evaluate, infer_interests, metrics, recommend,
                         top_n)
from .train import (AdamState, TrainingExample, adam_step, gradient_check,
                    run_gradient_checks, train_loop)

__all__ = [
    "AblationVariant", "AdamState", "DatasetBundle", "DatasetSplit",
    "HopPairAccumulator", "HyperParams", "InteractionRecord", "MetricsReport",
    "ModelDims", "ModelParams", "NormalizedAdjacency", "PRESETS",
    "RecentWindow", "Sequences", "TrainingExample", "Vocab", "adam_step",
    "build_weighted_adjacency", "evaluate", "extract_hop_pairs",
    "filter_and_index", "global_embeddings", "gradient_check", "infer_interests",
    "load_bundle", "load_checkpoint", "load_config", "make_window", "metrics",
    "occurrence_weight", "parse_log", "prepare", "recommend", "run_gradient_checks",
    "save_checkpoint", "split_users", "top_n", "train_loop",
]
