"""Asymmetric classification loss and the combined training objective.

The asymmetric loss treats positive and negative labels differently:
positives get a focal factor (1 - p)^gamma_pos, negatives get p_m^gamma_neg
where p_m = max(p - clip, 0) shifts easy negatives to exactly zero loss.
The total objective adds the semantic-map loss and the transport loss to
the classification loss with two weights.

The loss itself is one closed-form tape op,
:func:`sarl.tensor.asymmetric_loss`: the probability clamp and the clip
act as masks on its gradient. So the classification loss records two ops
(sigmoid, loss), the semantic-map loss three (max, sigmoid, loss) and
the total four (two products, two sums). A training sample records one
op for all three: :func:`sarl.head.sample_losses` computes that chain,
with the same bits, as :func:`sarl.tensor.asl_objective`. With transport
disabled it records the classification loss's two.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .data import check_fields
from .tensor import Tensor

__all__ = [
    "AslConfig",
    "LossWeights",
    "asl",
    "classification_loss",
    "semantic_map_loss",
    "total_loss",
]

PROB_FLOOR = 1e-7


@dataclass
class AslConfig:
    """Focusing exponents and the negative-side probability shift."""

    gamma_pos: float = 0.0
    gamma_neg: float = 2.0
    clip: float = 0.05

    def __post_init__(self):
        check_fields(self)
        _check_nonnegative(self, "gamma_pos", "gamma_neg")
        if not 0.0 <= self.clip < 1.0:
            raise ValueError(f"clip={self.clip} must be in [0, 1)")


@dataclass
class LossWeights:
    """Scales for the semantic-map term (lambda1) and transport term (lambda2)."""

    lambda1: float = 0.04
    lambda2: float = 0.5

    def __post_init__(self):
        check_fields(self)
        _check_nonnegative(self, "lambda1", "lambda2")


def _check_nonnegative(cfg, *names):
    for name in names:
        if getattr(cfg, name) < 0:
            raise ValueError(f"{name}={getattr(cfg, name)} must be >= 0")


def asl(p, y, cfg: AslConfig) -> Tensor:
    """Asymmetric loss on probabilities, averaged over classes.

    Positive labels contribute -(1-p)^g+ log p, negatives contribute
    -(p_m)^g- log(1 - p_m) with p_m = max(p - clip, 0). Probabilities
    are clamped to [1e-7, 1 - 1e-7] first so the result stays finite.
    Always nonnegative. One tape record (:func:`sarl.tensor.asymmetric_loss`).
    """
    return T.asymmetric_loss(p, y, cfg.gamma_pos, cfg.gamma_neg, cfg.clip,
                             PROB_FLOOR)


def classification_loss(z: Tensor, y, cfg: AslConfig) -> Tensor:
    """Asymmetric loss applied to logits: asl(sigmoid(z), y)."""
    return asl(T.sigmoid(z), y, cfg)


def semantic_map_loss(m: Tensor, y, cfg: AslConfig) -> Tensor:
    """Asymmetric loss on the most confident patch per class.

    m is the (P x C) semantic map; the per-class max over patches is the
    class logit, so gradient reaches only each class's argmax patch.
    """
    peak = T.max_reduce(m, axis=0)
    return asl(T.sigmoid(peak), y, cfg)


def total_loss(l_cls, l_m, l_ot, w: LossWeights) -> Tensor:
    """l_cls + (lambda1 * l_m + lambda2 * l_ot)."""
    return T.add(l_cls, T.add(T.mul(l_m, w.lambda1), T.mul(l_ot, w.lambda2)))
