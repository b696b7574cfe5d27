"""Model assembly: forward pass, region score aggregation, checkpoints.

The forward pass chains the representation stage (encode, self-attend,
pool, fuse) into the transport stage (bilinear scores, attention,
aligned features) and finishes with region score aggregation, which
turns per-patch class scores into one logit per class. Training mode
additionally produces the semantic map, the two mass distributions and
the transport loss; inference mode never touches labels. Inference also
takes an (N, H, W, C) stack of images in one call, through the same ops.

Checkpoints hold every parameter tensor as named 32-bit little-endian
payloads after a key=value manifest of the architecture, so a saved
float32 model reloads bit-identically. The loader reads only the current
format version and refuses a non-finite value by tensor name.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from . import losses
from . import tensor as T
from .data import FormatError, check_fields, parse_value, read_exact, read_text
from .losses import AslConfig, LossWeights, classification_loss
from .representation import (ConfigError, EncoderConfig, EncoderParams,
                             FeatureMap, FusionParams, SelfAttentionParams,
                             encode, fuse_semantic, global_spatial_pool,
                             init_encoder, self_attention, xavier_uniform)
from .tensor import Tensor
from .transport import (BilinearParams, bilinear_mass, cost_matrix, ct_loss,
                        init_bilinear, semantic_attention, semantic_map,
                        semantic_repr, source_distribution,
                        target_distribution)

__all__ = [
    "ClassifierParams",
    "ModelConfig",
    "ModelBundle",
    "ForwardOutput",
    "build_model",
    "forward",
    "region_score_aggregate",
    "sample_losses",
    "save_checkpoint",
    "load_checkpoint",
]

CKPT_MAGIC = b"SARLCKPT"
# version 1 also held bilinear.bias; such files are refused, not converted
CKPT_VERSION = 2
# a fixed manifest line: the conv encoder is the only encoder
ENCODER_MODE = "tiny-conv"


@dataclass
class ClassifierParams:
    """The final per-patch classifier: weights (d_v, C), bias (C,)."""

    weights: Tensor
    bias: Tensor


@dataclass
class ModelConfig:
    """Architecture hyperparameters plus the ablation switches."""

    num_classes: int
    feature_dim: int
    encoder: EncoderConfig
    label_dim: int = 16
    bilinear_dim: int = 32
    bilinear_out: int = 16
    n_heads: int = 8
    gsp_mode: str = "avg"
    disable_self_attn: bool = False
    disable_ot: bool = False
    disable_gsp_fusion: bool = False

    def __post_init__(self):
        check_fields(self)
        for name in ("num_classes", "feature_dim", "label_dim", "bilinear_dim",
                     "bilinear_out"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}={getattr(self, name)} must be >= 1")
        if self.n_heads < 1 or self.feature_dim % self.n_heads:
            raise ConfigError(f"n_heads={self.n_heads} must be >= 1 and "
                              f"divide d_v={self.feature_dim}")
        if self.gsp_mode not in ("avg", "max"):
            raise ConfigError(f"gsp_mode={self.gsp_mode!r} must be 'avg' or 'max'")


@dataclass
class ForwardOutput:
    """Everything one forward pass produces.

    attention and aligned exist whenever transport is enabled;
    semantic_map, theta, beta, cost, plans and transport_cost exist only
    when forward was given the labels. plans, the forward and backward
    plan, hold values only: no tape records them.
    """

    logits: Tensor
    features: FeatureMap
    semantic_features: Tensor
    aligned: Tensor
    attention: Tensor = None
    semantic_map: Tensor = None
    theta: Tensor = None
    beta: Tensor = None
    cost: Tensor = None
    plans: tuple = None
    transport_cost: Tensor = None


@dataclass
class ModelBundle:
    """All parameter groups plus the config that shaped them."""

    config: ModelConfig
    encoder: EncoderParams
    labels: Tensor
    attention: SelfAttentionParams
    fusion: FusionParams
    map_weights: Tensor
    bilinear: BilinearParams
    classifier: ClassifierParams

    def parameters(self) -> dict:
        """Name -> Tensor, in a fixed order shared with checkpoints."""
        named = {}
        for i, (kern, bias) in enumerate(zip(self.encoder.kernels,
                                             self.encoder.biases)):
            named[f"encoder.kernel{i}"] = kern
            named[f"encoder.bias{i}"] = bias
        named["labels.table"] = self.labels
        named["attention.w_q"] = self.attention.w_q
        named["attention.w_k"] = self.attention.w_k
        named["attention.w_v"] = self.attention.w_v
        named["fusion.weight"] = self.fusion.weight
        named["fusion.bias"] = self.fusion.bias
        named["map.weights"] = self.map_weights
        named["bilinear.u"] = self.bilinear.u
        named["bilinear.v"] = self.bilinear.v
        named["bilinear.mix"] = self.bilinear.mix
        named["bilinear.score"] = self.bilinear.score
        named["classifier.weights"] = self.classifier.weights
        named["classifier.bias"] = self.classifier.bias
        return named


# the label table's rows, one per class, start near 0
LABEL_INIT_STD = 0.02


def build_model(cfg: ModelConfig, seed=0, dtype=np.float64) -> ModelBundle:
    """Draw every parameter from one seeded stream in float64, then cast
    each once to ``dtype``, the precision of every step on the model."""
    rng = np.random.default_rng(seed)
    d_v = cfg.feature_dim
    model = ModelBundle(
        cfg, init_encoder(rng, cfg.encoder, d_v),
        Tensor(rng.normal(0.0, LABEL_INIT_STD,
                          size=(cfg.num_classes, cfg.label_dim))),
        SelfAttentionParams(*(xavier_uniform(rng, d_v, d_v) for _ in range(3)),
                            n_heads=cfg.n_heads),
        FusionParams(xavier_uniform(rng, d_v + cfg.label_dim, d_v),
                     Tensor(np.zeros(d_v))),
        xavier_uniform(rng, d_v, cfg.num_classes),
        init_bilinear(rng, d_v, cfg.bilinear_dim, cfg.bilinear_out),
        ClassifierParams(xavier_uniform(rng, d_v, cfg.num_classes),
                         Tensor(np.zeros(cfg.num_classes))))
    for p in model.parameters().values():
        p.data = p.data.astype(dtype, copy=False)
    return model


def region_score_aggregate(f_r: Tensor, cls: ClassifierParams) -> Tensor:
    """Pool patch scores into class logits.

    Patch scores w~ = F_R W + b are weighted by their own per-class
    softmax over patches: z_c = sum_p softmax_p(w~)[p, c] * w~[p, c].
    Adding a constant to one class's patch scores therefore shifts that
    logit by exactly the constant. F_R is (P, d_v) for one sample or
    (N, P, d_v) for a stack, giving (C,) or (N, C) logits. One tape
    record (:func:`sarl.tensor.softmax_pool`).
    """
    return T.softmax_pool(f_r, cls.weights, cls.bias)


def forward(x, model: ModelBundle, labels=None) -> ForwardOutput:
    """Run one sample, or a stack of samples, through the full head.

    x is an (H, W, channels) image or an (N, H, W, channels) stack. A
    stack runs through the same ops as one image, with a leading N axis
    on the logits (N, C), the features (N, P, d_v) and the attention
    (see :mod:`sarl.representation`); only self-attention and the
    bilinear scores are called once per sample. :func:`sarl.training.evaluate`
    scores a split this way, one call per chunk of samples.

    An image array is cast once here to the parameters' dtype, so an
    integer or float64 image runs a float32 model in float32; a Tensor
    image is left as it is, to keep its gradient. Given one image's
    binary label vector, cast likewise, the forward pass also builds the
    transport terms training needs: source and target distributions,
    cost matrix, plans and transport cost. The transport cost and both
    plans are one tape record, which reuses the attention as the forward
    plan's softmax and gives the plans as values off the tape, so a
    default training sample records 13 ops. Training still records one
    tape per sample, so labels go with one image only.
    """
    cfg = model.config
    dtype = model.labels.dtype
    if not isinstance(x, Tensor):
        x = np.asarray(x, dtype=dtype)
    shape = x.shape
    if len(shape) not in (3, 4) or not all(shape):
        raise ConfigError(f"forward takes an (H, W, C) image or an "
                          f"(N, H, W, C) stack, none of its axes empty, "
                          f"got shape {shape}")
    if labels is not None:
        labels = np.asarray(labels, dtype=dtype)
        if len(shape) != 3 or labels.shape != (cfg.num_classes,):
            raise ConfigError(
                f"labels go with one (H, W, C) image and {cfg.num_classes} "
                f"classes, got labels {labels.shape} for images {shape}")

    # self_attention and bilinear_mass take a stack as they are, but are
    # called once per sample: perfbench's tracer prices every call of
    # these two stages from its argument shapes and averages per call, so
    # chunk-sized calls mixed with training's one-sample calls would make
    # its per-layer counts depend on timing (ROADMAP item 1).
    fm = encode(x, cfg.encoder, model.encoder)
    stacked = len(shape) == 4
    rows = T.unstack(fm.f) if stacked else [fm.f]
    if not cfg.disable_self_attn:
        rows = [self_attention(FeatureMap(f, fm.h, fm.w), model.attention).f
                for f in rows]
        fm = FeatureMap(T.stack(rows) if stacked else rows[0], fm.h, fm.w)

    if cfg.disable_gsp_fusion:
        f_g = Tensor(np.zeros((*fm.f.shape[:-2], 1, cfg.feature_dim),
                              dtype=fm.f.dtype))
    else:
        f_g = global_spatial_pool(fm, cfg.gsp_mode)
    f_s = fuse_semantic(f_g, model.labels, model.fusion)

    if cfg.disable_ot:
        logits = region_score_aggregate(fm.f, model.classifier)
        return ForwardOutput(logits=logits, features=fm,
                             semantic_features=f_s, aligned=fm.f)

    masses = [bilinear_mass(f, s, model.bilinear) for f, s in
              zip(rows, T.unstack(f_s) if stacked else [f_s])]
    mass = T.stack(masses) if stacked else masses[0]
    attn = semantic_attention(mass)
    aligned = semantic_repr(attn, f_s)
    logits = region_score_aggregate(aligned, model.classifier)
    out = ForwardOutput(logits=logits, features=fm, semantic_features=f_s,
                        aligned=aligned, attention=attn)
    if labels is not None:
        out.semantic_map = semantic_map(fm.f, model.map_weights)
        out.theta = source_distribution(out.semantic_map, labels)
        out.beta = target_distribution(labels)
        out.cost = cost_matrix(fm.f, f_s)
        out.transport_cost, out.plans = ct_loss(mass, attn, out.theta,
                                                out.beta.data, out.cost)
    return out


def sample_losses(out: ForwardOutput, labels, asl_cfg: AslConfig,
                  weights: LossWeights):
    """Per-sample (total, l_cls, l_m, l_ot) given a training-mode forward.

    One tape record (:func:`sarl.tensor.asl_objective`), bit-identical to
    the :mod:`sarl.losses` chain; l_cls and l_m are values off the tape.
    With transport disabled the map and transport terms are zero and the
    total is the classification loss alone (two records).
    """
    if out.transport_cost is None:
        l_cls = classification_loss(out.logits, labels, asl_cfg)
        zero = Tensor(np.zeros((), dtype=out.logits.dtype))
        return l_cls, l_cls, zero, zero
    total, (l_cls, l_m) = T.asl_objective(
        out.logits, out.semantic_map, out.transport_cost, labels,
        asl_cfg.gamma_pos, asl_cfg.gamma_neg, asl_cfg.clip,
        losses.PROB_FLOOR, weights.lambda1, weights.lambda2)
    return total, Tensor(l_cls), Tensor(l_m), out.transport_cost


def _manifest_text(cfg: ModelConfig) -> str:
    """ModelConfig fields, then encoder.* EncoderConfig fields, then the mode."""
    pairs = [(f.name, getattr(cfg, f.name))
             for f in fields(ModelConfig) if f.name != "encoder"]
    pairs += [("encoder." + f.name, getattr(cfg.encoder, f.name))
              for f in fields(EncoderConfig)]
    pairs.append(("encoder.mode", ENCODER_MODE))
    return "".join(f"{k}={int(v) if isinstance(v, bool) else v}\n"
                   for k, v in pairs)


def _config_from_manifest(text: str) -> ModelConfig:
    entries = {}
    for line in text.split("\n"):
        if line:
            key, _, value = line.partition("=")
            if key in entries:
                raise FormatError(f"checkpoint manifest key {key!r} appears twice")
            entries[key] = value

    def take(key, kind=str):
        if key not in entries:
            raise FormatError(f"checkpoint manifest missing {key!r}")
        value = entries.pop(key)
        try:  # a flag is written as the integer 0 or 1
            parsed = parse_value(key, value, int if kind is bool else kind)
        except ValueError as exc:
            raise FormatError(f"checkpoint manifest key {exc}") from None
        if kind is bool and parsed not in (0, 1):
            raise FormatError(f"checkpoint manifest key {key!r} is "
                              f"{value!r}, not 0 or 1")
        return kind(parsed)

    def values(cls, prefix):
        kinds = get_type_hints(cls)
        return {f.name: take(prefix + f.name, kinds[f.name])
                for f in fields(cls) if f.name != "encoder"}

    # the mode says what the other keys mean, so it is checked first
    mode = take("encoder.mode")
    if mode != ENCODER_MODE:
        raise FormatError(f"checkpoint manifest key 'encoder.mode' is "
                          f"{mode!r}, expected {ENCODER_MODE!r}")
    model = values(ModelConfig, "")
    encoder = values(EncoderConfig, "encoder.")
    if entries:
        raise FormatError(f"unknown checkpoint manifest key {next(iter(entries))!r}")
    return ModelConfig(encoder=EncoderConfig(**encoder), **model)


def save_checkpoint(path, model: ModelBundle):
    """Write the manifest and every parameter as float32 little-endian."""
    manifest = _manifest_text(model.config).encode()
    params = model.parameters()
    buf = io.BytesIO()
    buf.write(CKPT_MAGIC)
    buf.write(struct.pack("<2I", CKPT_VERSION, len(manifest)))
    buf.write(manifest)
    buf.write(struct.pack("<I", len(params)))
    for name, tensor in params.items():
        encoded = name.encode()
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        shape = tensor.data.shape
        buf.write(struct.pack("<I", len(shape)))
        if shape:
            buf.write(struct.pack(f"<{len(shape)}I", *shape))
        buf.write(tensor.data.astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> ModelBundle:
    """Rebuild a float32 model from a checkpoint file."""
    with open(path, "rb") as fh:
        view = io.BytesIO(fh.read())
    magic = read_exact(view, len(CKPT_MAGIC), "magic")
    if magic != CKPT_MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0")
    version, manifest_len = struct.unpack("<2I", read_exact(view, 8, "header"))
    if version != CKPT_VERSION:
        raise FormatError(f"checkpoint version {version} is not supported: "
                          f"this build reads version {CKPT_VERSION}")
    manifest = read_text(view, manifest_len, "manifest")
    try:
        model = build_model(_config_from_manifest(manifest), seed=0,
                            dtype=np.float32)
    except ConfigError as exc:
        raise FormatError(f"checkpoint manifest describes no valid model: "
                          f"{exc}") from None
    params = model.parameters()
    (count,) = struct.unpack("<I", read_exact(view, 4, "tensor count"))
    if count != len(params):
        raise FormatError(
            f"checkpoint has {count} tensors, model wants {len(params)}")
    seen = set()
    for _ in range(count):
        (name_len,) = struct.unpack("<I", read_exact(view, 4, "name length"))
        name = read_text(view, name_len, "tensor name")
        if name not in params:
            raise FormatError(f"unknown tensor {name!r} in checkpoint")
        if name in seen:
            raise FormatError(f"tensor {name!r} appears twice in checkpoint")
        seen.add(name)
        (ndim,) = struct.unpack("<I", read_exact(view, 4, "rank"))
        shape = struct.unpack(f"<{ndim}I", read_exact(view, 4 * ndim, "shape")) if ndim else ()
        want = params[name].data.shape
        if shape != want:
            raise FormatError(f"tensor {name!r} has shape {shape}, model wants {want}")
        payload = np.frombuffer(read_exact(view, 4 * math.prod(shape),
                                           f"payload of {name!r}"),
                                dtype="<f4")
        bad = np.flatnonzero(~np.isfinite(payload))
        if bad.size:
            raise FormatError(f"tensor {name!r} holds a non-finite value "
                              f"{payload[bad[0]]} at flat index {bad[0]}")
        params[name].data = payload.reshape(shape).copy()
    if view.read(1):
        raise FormatError("trailing data after last tensor")
    return model
