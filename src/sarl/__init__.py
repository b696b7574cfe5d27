"""Multi-label classification head with transport-based attention.

A small numpy library: a tape-based autodiff core, semantic feature
learning, conditional-transport attention, asymmetric losses, region
score aggregation, ranking metrics, synthetic data, and a trainer.
"""

from .data import Dataset, SyntheticConfig, generate, load_dataset, save_dataset
from .head import (ModelBundle, ModelConfig, build_model, forward,
                   label_terms, load_checkpoint, sample_losses,
                   save_checkpoint)
from .losses import AslConfig, LossWeights, asl, total_loss
from .metrics import (MetricReport, PredictionSet, average_precision,
                      compute_report, mean_ap)
from .representation import EncoderConfig, FeatureMap
from .tensor import Tape, Tensor
from .training import (TrainConfig, adamw_step, ema_update, evaluate,
                       export_attention, train)

__all__ = [
    "Tape", "Tensor",
    "Dataset", "SyntheticConfig", "generate", "load_dataset", "save_dataset",
    "ModelBundle", "ModelConfig", "build_model", "forward",
    "label_terms", "load_checkpoint", "sample_losses", "save_checkpoint",
    "AslConfig", "LossWeights", "asl", "total_loss",
    "MetricReport", "PredictionSet", "average_precision", "compute_report",
    "mean_ap",
    "EncoderConfig", "FeatureMap",
    "TrainConfig", "adamw_step", "ema_update", "evaluate",
    "export_attention", "train",
]
__version__ = "0.1.0"
