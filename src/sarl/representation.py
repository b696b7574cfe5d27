"""Patch features, global pooling, label embeddings, and semantic fusion.

One image becomes a grid of patch features F (P x d_v) through a small
strided conv encoder. Global spatial pooling, the columnwise mean,
compresses F into a single row F_G (1 x d_v), and fusing F_G with a
learnable label-embedding table gives one semantic-related feature row
per class, F_S (C x d_v). F, F_G and F_S are everything the transport
stage downstream needs.

An (N, H, W, C) stack of images runs through the same functions: F, F_G
and F_S gain a leading sample axis, (N, P, d_v), (N, 1, d_v) and
(N, C, d_v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import check_fields
from .tensor import Tensor

__all__ = [
    "ConfigError",
    "EncoderConfig",
    "EncoderParams",
    "FeatureMap",
    "SelfAttentionParams",
    "FusionParams",
    "xavier_uniform",
    "init_encoder",
    "patch_grid",
    "check_image_shape",
    "encode",
    "self_attention",
    "global_spatial_pool",
    "fuse_semantic",
]


class ConfigError(ValueError):
    """Inputs or parameter shapes disagree with the configuration."""


@dataclass
class EncoderConfig:
    """Settings for the tiny conv encoder.

    Each conv block is a 3x3 stride-2 convolution, so ``conv_blocks``
    halves the input resolution that many times; the result must land
    exactly on the ``grid_h`` x ``grid_w`` patch grid.
    """

    in_channels: int
    grid_h: int
    grid_w: int
    conv_blocks: int = 2

    def __post_init__(self):
        check_fields(self)
        for name in ("in_channels", "conv_blocks"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}={getattr(self, name)} must be >= 1")
        if self.grid_h < 1 or self.grid_w < 1:
            raise ConfigError(f"grid_h={self.grid_h}, grid_w={self.grid_w} must be >= 1")


@dataclass
class EncoderParams:
    """Conv kernels and biases, one pair per block.

    Kernel i is stored flattened as (CONV_KERNEL**2 * c_in, feature_dim)
    to match :func:`sarl.tensor.conv_encoder`.
    """

    kernels: list
    biases: list


@dataclass
class FeatureMap:
    """Patch features F plus the grid shape they came from.

    ``f`` holds the P = h*w patch rows of one image, (P, d_v), or of
    each image in a stack of N, (N, P, d_v); its sample axes are
    ``f.shape[:-2]``.
    """

    f: Tensor
    h: int
    w: int

    def __post_init__(self):
        shape = self.f.shape
        if (len(shape) not in (2, 3) or shape[-2] != self.h * self.w
                or not all(shape)):
            raise ConfigError(f"features of shape {shape} are not the (P, d_v) "
                              f"or (N, P, d_v) patch rows of a "
                              f"{self.h}x{self.w} grid")


@dataclass
class SelfAttentionParams:
    """Query/key/value projections, each d_v x d_v, sliced into n_heads
    heads; :func:`sarl.tensor.attention` refuses a count not dividing d_v."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    n_heads: int = 8


@dataclass
class FusionParams:
    """Affine map from concat(F_G, label row) down to d_v."""

    weight: Tensor
    bias: Tensor


def xavier_uniform(rng, n_in, n_out):
    limit = math.sqrt(6.0 / (n_in + n_out))
    return Tensor(rng.uniform(-limit, limit, size=(n_in, n_out)))


def init_encoder(rng, cfg: EncoderConfig, feature_dim) -> EncoderParams:
    kernels, biases = [], []
    c_in = cfg.in_channels
    for _ in range(cfg.conv_blocks):
        kernels.append(xavier_uniform(rng, T.CONV_KERNEL ** 2 * c_in,
                                      feature_dim))
        biases.append(Tensor(np.zeros(feature_dim)))
        c_in = feature_dim
    return EncoderParams(kernels, biases)


def patch_grid(conv_blocks, h, w):
    """The patch grid that ``conv_blocks`` conv blocks make of an h x w
    image."""
    for _ in range(conv_blocks):
        h, w = T.conv_output_size(h), T.conv_output_size(w)
    return h, w


def check_image_shape(cfg: EncoderConfig, image_shape, what="the image is"):
    """Refuse images of shape (..., H, W, C) that the encoder cannot
    take: a rank below 3, another channel count, or a size its conv
    blocks do not bring to the config's patch grid. ``what`` names the
    images in the message."""
    if len(image_shape) < 3:
        raise ConfigError(f"{what} of shape {image_shape}; the encoder "
                          f"takes (H, W, C) images")
    h, w, c_in = image_shape[-3:]
    grid_h, grid_w = patch_grid(cfg.conv_blocks, h, w)
    if c_in != cfg.in_channels or (grid_h, grid_w) != (cfg.grid_h, cfg.grid_w):
        raise ConfigError(
            f"{what} {h}x{w}x{c_in}, which the encoder makes a "
            f"{grid_h}x{grid_w} grid; the model takes {cfg.in_channels}-channel "
            f"images to a {cfg.grid_h}x{cfg.grid_w} grid")


def encode(x, cfg: EncoderConfig, params: EncoderParams) -> FeatureMap:
    """Turn an (H, W, C) image or an (N, H, W, C) stack (array or Tensor)
    into (P, d_v) or (N, P, d_v) patch features. One tape record
    (:func:`sarl.tensor.conv_encoder`), after
    :func:`check_image_shape`."""
    check_image_shape(cfg, x.shape)
    return FeatureMap(T.conv_encoder(x, params.kernels, params.biases),
                      cfg.grid_h, cfg.grid_w)


def self_attention(fm: FeatureMap, p: SelfAttentionParams) -> FeatureMap:
    """Scaled dot-product self-attention over patches, heads concatenated.

    Per head: softmax(Q Kt / sqrt(d)) V with d = d_v / n_heads, computed
    with the projections by one :func:`sarl.tensor.attention` call (one
    tape record), each sample of a stack attending over its own patches.
    There is no output projection, residual, or layer norm; head outputs
    are concatenated back to width d_v.
    """
    d_v = fm.f.shape[-1]
    if p.w_q.shape != (d_v, d_v):
        raise ConfigError(f"attention weights {p.w_q.shape} vs d_v={d_v}")
    return FeatureMap(T.attention(fm.f, p.w_q, p.w_k, p.w_v, p.n_heads),
                      fm.h, fm.w)


def global_spatial_pool(fm: FeatureMap) -> Tensor:
    """Columnwise mean over each sample's patches:
    F (P x d_v) -> F_G (1 x d_v), or (N, 1, d_v) for a stack."""
    return T.mean(fm.f, axis=-2, keepdims=True)


def fuse_semantic(f_g: Tensor, table: Tensor, p: FusionParams) -> Tensor:
    """Per-class affine fusion: row c = Linear(concat(F_G, l_c)).

    F_G acts as a shared prompt prepended to every label row; the output
    is the semantic-related feature table F_S (C x d_v), or (N, C, d_v)
    for an (N, 1, d_v) stack of F_G rows. One tape record
    (:func:`sarl.tensor.concat_linear`).
    """
    return T.concat_linear(f_g, table, p.weight, p.bias)
