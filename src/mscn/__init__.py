"""Meta-corrected similarity training for noisy cross-modal retrieval.

The package trains two-branch embedding networks with an adaptive-margin
triplet loss whose per-pair scores come from a small correction network.
That correction network is itself trained by differentiating through a
virtual update of the main networks (bi-level optimization), and a Beta
mixture over its scores purifies noisy correspondences each epoch, with
two network pairs cross-feeding each other's purified sets.

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already
set: evaluation fans its chunks out over its own worker threads, and a
multi-threaded BLAS under each of them oversubscribes the cores.  The
setting only takes effect if numpy has not been imported yet.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .autodiff import (RecordError, ShapeMismatchError, Tape, Tensor,
                       backward, backward_retaining)
from .datagen import (Dataset, DatasetFormatError, GenConfig,
                      NoiseInjectionError, Split, generate, inject_noise,
                      read_dataset, write_dataset)
from .evalkit import RecallReport, evaluate, recall_at_k, score_matrix
from .meta_loop import (NonFiniteGradientError, TrainConfig, TrainResult,
                        bilevel_step, construct_meta_batch, train)
from .model import (CheckpointFormatError, DegenerateSimilarityError,
                    MainNetParams, MetaNetParams, all_pairs_scores,
                    cosine_scores, load_checkpoint, pair_score,
                    save_checkpoint)
from .objective import adaptive_margin, meta_loss, triplet_loss
from .purifier import (BetaMixture, MixtureFit, em_fit, moment_match,
                       moment_match_init, posterior_clean, purify)

__version__ = "0.1.0"

__all__ = [
    "BetaMixture", "CheckpointFormatError", "Dataset", "DatasetFormatError",
    "DegenerateSimilarityError", "GenConfig", "MainNetParams", "MetaNetParams",
    "MixtureFit", "NoiseInjectionError", "NonFiniteGradientError",
    "RecallReport", "RecordError", "ShapeMismatchError", "Split", "Tape",
    "Tensor", "TrainConfig", "TrainResult", "adaptive_margin",
    "all_pairs_scores", "backward", "backward_retaining", "bilevel_step",
    "construct_meta_batch", "cosine_scores", "em_fit", "evaluate", "generate",
    "inject_noise", "load_checkpoint", "meta_loss", "moment_match",
    "moment_match_init", "pair_score", "posterior_clean", "purify",
    "read_dataset", "recall_at_k", "save_checkpoint", "score_matrix",
    "train", "triplet_loss", "write_dataset",
]
