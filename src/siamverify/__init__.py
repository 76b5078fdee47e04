"""Siamese embedding network for disguised-face verification.

Pieces: a float64 tensor core with taped reverse-mode gradients, a
configurable VGG-style tied-weight network, a contrastive + regression + BCE
loss stack, a manifest-driven pair pipeline, an SGD trainer, and a ROC /
GAR@FAR evaluation harness.
"""

from .dataset import (AugmentConfig, ImageRecord, PairRecord, augment,
                      generate_pairs, load_image, merge_weak_labels,
                      parse_manifest)
from .evaluator import (RocCurve, ScoreSet, accuracy_at, best_accuracy,
                        gar_at_far, metrics_report, roc_curve, run_ablation,
                        score_pairs)
from .gradcheck import grad_check
from .losses import (LossBreakdown, LossConfig, bce_loss, class_weights,
                     contrastive_loss, cosine_distance, cosine_similarity,
                     mse_loss, total_loss)
from .network import (DEFAULT_FREEZE, NetworkParams, NetworkSpec, build_network,
                      forward_embedding, forward_head, freeze_prefix,
                      load_params, save_params, siamese_forward)
from .tensor import Graph, Tensor
from .trainer import TrainConfig, TrainLog, make_batches, sgd_step, train

__all__ = [
    "AugmentConfig", "ImageRecord", "PairRecord", "augment", "generate_pairs",
    "load_image", "merge_weak_labels", "parse_manifest",
    "RocCurve", "ScoreSet", "best_accuracy", "gar_at_far", "metrics_report",
    "accuracy_at", "roc_curve", "run_ablation", "score_pairs", "grad_check", "LossBreakdown",
    "LossConfig", "bce_loss", "class_weights", "contrastive_loss",
    "cosine_distance", "cosine_similarity", "mse_loss", "total_loss",
    "DEFAULT_FREEZE", "NetworkParams", "NetworkSpec", "build_network",
    "forward_embedding", "forward_head", "freeze_prefix",
    "load_params", "save_params", "siamese_forward", "Graph", "Tensor",
    "TrainConfig", "TrainLog", "make_batches", "sgd_step", "train",
]
__version__ = "0.1.0"
