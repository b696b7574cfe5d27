"""Patch features, global pooling, label embeddings, and semantic fusion.

One image becomes a grid of patch features F (P x d_v) through a small
strided conv encoder. Global spatial pooling compresses F into a single
row F_G (1 x d_v), and fusing F_G with a learnable label-embedding table
gives one semantic-related feature row per class, F_S (C x d_v). F, F_G
and F_S are everything the transport stage downstream needs.

An (N, H, W, C) stack of images runs through the same functions: F
stacks the N samples' patch rows into (N*P, d_v), and F_G and F_S gain a
leading sample axis, (N, 1, d_v) and (N, C, d_v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
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
    "init_label_embeddings",
    "init_self_attention",
    "init_fusion",
    "encode",
    "self_attention",
    "global_spatial_pool",
    "fuse_semantic",
]


LABEL_INIT_STD = 0.02


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
        for name in ("in_channels", "conv_blocks"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}={getattr(self, name)} must be >= 1")
        if self.grid_h < 1 or self.grid_w < 1:
            raise ConfigError(f"grid_h={self.grid_h}, grid_w={self.grid_w} must be >= 1")


@dataclass
class EncoderParams:
    """Conv kernels and biases, one pair per block.

    Kernel i is stored flattened as (CONV_KERNEL**2 * c_in, feature_dim)
    to match :func:`sarl.tensor.conv2d`.
    """

    kernels: list
    biases: list


@dataclass
class FeatureMap:
    """Patch features F plus the grid shape they came from.

    ``f`` holds the P = h*w patch rows of every sample, one after the
    other: (P, d_v) for one image (``samples=()``), (N*P, d_v) for a
    stack of N (``samples=(N,)``). :meth:`split` and :meth:`join` go
    between a stack and its single-image maps.
    """

    f: Tensor
    h: int
    w: int
    samples: tuple = ()

    def __post_init__(self):
        if self.f.shape[0] != math.prod(self.samples) * self.h * self.w:
            grids = f"{self.samples} stack of" if self.samples else "a"
            raise ConfigError(f"{self.f.shape[0]} patch rows cannot tile "
                              f"{grids} {self.h}x{self.w} grid")

    def per_sample(self) -> Tensor:
        """F as (*samples, P, d_v); for one image, F itself, unrecorded."""
        if not self.samples:
            return self.f
        return T.reshape(self.f, (*self.samples, self.h * self.w, self.f.shape[1]))

    def split(self) -> list:
        """One single-image map per sample; [self] for one image."""
        if not self.samples:
            return [self]
        return [FeatureMap(f, self.h, self.w) for f in T.unstack(self.per_sample())]

    @staticmethod
    def join(parts: list, samples: tuple) -> "FeatureMap":
        """The inverse of :meth:`split`: the parts' rows stacked in order."""
        if not samples:
            return parts[0]
        return FeatureMap(T.concat([p.f for p in parts], axis=0),
                          parts[0].h, parts[0].w, samples)


@dataclass
class SelfAttentionParams:
    """Query/key/value projections, each d_v x d_v, sliced into heads."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    n_heads: int = 8

    def __post_init__(self):
        d_v = self.w_q.shape[0]
        if self.n_heads < 1 or d_v % self.n_heads != 0:
            raise ConfigError(f"n_heads={self.n_heads} must be >= 1 and divide d_v={d_v}")


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


def init_label_embeddings(rng, num_classes, label_dim) -> Tensor:
    """The label table: one learnable label_dim row per class."""
    return Tensor(rng.normal(0.0, LABEL_INIT_STD, size=(num_classes, label_dim)))


def init_self_attention(rng, d_v, n_heads=8) -> SelfAttentionParams:
    return SelfAttentionParams(
        xavier_uniform(rng, d_v, d_v),
        xavier_uniform(rng, d_v, d_v),
        xavier_uniform(rng, d_v, d_v),
        n_heads=n_heads,
    )


def init_fusion(rng, d_v, label_dim) -> FusionParams:
    return FusionParams(
        xavier_uniform(rng, d_v + label_dim, d_v),
        Tensor(np.zeros(d_v)),
    )


def encode(x, cfg: EncoderConfig, params: EncoderParams) -> FeatureMap:
    """Turn an (H, W, C) image or an (N, H, W, C) stack (array or Tensor)
    into patch features."""
    if x.shape[-1] != cfg.in_channels:
        raise ConfigError(
            f"image has {x.shape[-1]} channels, config says {cfg.in_channels}")
    h = x
    last = cfg.conv_blocks - 1
    for i, (kern, bias) in enumerate(zip(params.kernels, params.biases)):
        h = T.conv2d(h, kern, bias)
        if i != last:
            h = T.relu(h)
    if h.shape[-3:-1] != (cfg.grid_h, cfg.grid_w):
        raise ConfigError(
            f"encoder produced a {h.shape[-3]}x{h.shape[-2]} grid, "
            f"config says {cfg.grid_h}x{cfg.grid_w}")
    f = T.reshape(h, (-1, h.shape[-1]))
    return FeatureMap(f, cfg.grid_h, cfg.grid_w, tuple(h.shape[:-3]))


def self_attention(fm: FeatureMap, p: SelfAttentionParams) -> FeatureMap:
    """Scaled dot-product self-attention over patches, heads concatenated.

    Per head: softmax(Q Kt / sqrt(d)) V with d = d_v / n_heads, computed
    by one :func:`sarl.tensor.attention` call, each sample attending
    over its own patches. There is no output projection, residual, or
    layer norm; head outputs are concatenated back to width d_v.
    """
    d_v = fm.f.shape[1]
    if p.w_q.shape != (d_v, d_v):
        raise ConfigError(f"attention weights {p.w_q.shape} vs d_v={d_v}")
    f = fm.per_sample()
    heads = T.attention(T.matmul(f, p.w_q), T.matmul(f, p.w_k),
                        T.matmul(f, p.w_v), p.n_heads)
    return FeatureMap(T.reshape(heads, fm.f.shape), fm.h, fm.w, fm.samples)


def global_spatial_pool(fm: FeatureMap, mode="avg") -> Tensor:
    """Columnwise mean (or max) over each sample's patches:
    F (P x d_v) -> F_G (1 x d_v), or (N, 1, d_v) for a stack."""
    if mode == "avg":
        return T.mean(fm.per_sample(), axis=-2, keepdims=True)
    if mode == "max":
        return T.max_reduce(fm.per_sample(), axis=-2, keepdims=True)
    raise ConfigError(f"unknown pooling mode {mode!r}")


def fuse_semantic(f_g: Tensor, table: Tensor, p: FusionParams) -> Tensor:
    """Per-class affine fusion: row c = Linear(concat(F_G, l_c)).

    F_G acts as a shared prompt prepended to every label row; the output
    is the semantic-related feature table F_S (C x d_v), or (N, C, d_v)
    for an (N, 1, d_v) stack of F_G rows.
    """
    rows = T.mul(np.ones((table.shape[0], 1), dtype=f_g.dtype), f_g)
    stacked = T.concat([rows, table], axis=-1)
    return T.add(T.matmul(stacked, p.weight), p.bias)
