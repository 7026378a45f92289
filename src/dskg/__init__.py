"""Sequential knowledge-graph completion with a type-switched stacked LSTM.

The names below are the library's entry points: read and index triples
(``parse_triples``, ``index_dataset``), build and store a model
(``init_params``, ``save_checkpoint``, ``load_checkpoint``), train it
(``TrainConfig``, ``train``) and rank with it (``filtered_rank``,
``enhance_scores``; the batched passes are in ``dskg.evaluation`` and
``dskg.beam``). The ``dskg`` command (``dskg.cli``) runs the same pipeline.
"""

__version__ = "0.1.0"

from .data import (
    IndexedDataset,
    RawTriple,
    Vocabulary,
    augment_reverse,
    batch_iterator,
    build_vocabulary,
    index_dataset,
    parse_triples,
)
from .evaluation import EnhanceConfig, MetricsReport, enhance_scores, filtered_rank
from .model import ModelParams, init_params, load_checkpoint, save_checkpoint
from .training import TrainConfig, train

__all__ = [
    "EnhanceConfig",
    "IndexedDataset",
    "MetricsReport",
    "ModelParams",
    "RawTriple",
    "TrainConfig",
    "Vocabulary",
    "augment_reverse",
    "batch_iterator",
    "build_vocabulary",
    "enhance_scores",
    "filtered_rank",
    "index_dataset",
    "init_params",
    "load_checkpoint",
    "parse_triples",
    "save_checkpoint",
    "train",
]
