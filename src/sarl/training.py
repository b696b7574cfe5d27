"""Training loop, optimizer, evaluation, and attention export.

The parameters' dtype sets the precision of a step: ``train`` builds a
float32 model and casts its label matrix once to that dtype, so every
value and gradient of a step is float32, and a saved checkpoint reloads
into an evaluation that is bit-identical to the one before saving.
Tests build float64 models and pass float64 labels. Training records
one tape per sample, gradients averaged over the batch, AdamW with
decoupled weight decay, and an optional EMA shadow of every parameter.
Shuffling draws from a dedicated seeded stream, so two runs with the
same config produce identical epoch logs and identical checkpoints.

``evaluate`` has no tape: it scores a split with one forward call per
chunk of samples, the chunk size fixed by an element budget
(``CHUNK_ELEMENTS``) on the largest array one sample builds. A sample's
scores do not depend on how a split is cut into calls: each chunk
starts a fresh set of rows, and a 2-D product gives each row the same
bits whatever the number of rows (checked at the default shape).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensor as T
from .data import (Dataset, SyntheticConfig, parse_value, read_manifest_lines,
                   write_manifest)
from .head import (ModelBundle, ModelConfig, build_model, forward,
                   sample_losses, save_checkpoint)
from .losses import AslConfig, LossWeights
from .metrics import (MetricReport, PredictionSet, check_cutoffs,
                      compute_report, format_report, report_entries,
                      write_predictions)
from .representation import EncoderConfig
from .tensor import Tape
from .transport import semantic_map

__all__ = [
    "TrainConfig",
    "OptimizerState",
    "TrainingError",
    "TrainResult",
    "config_from_file",
    "config_entries",
    "synthetic_config",
    "model_config",
    "init_optimizer",
    "adamw_step",
    "ema_update",
    "train",
    "chunk_size",
    "evaluate",
    "export_attention",
    "write_pgm",
]

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# evaluate's budget, in array elements, for the largest per-sample
# intermediate times the samples in one forward call
CHUNK_ELEMENTS = 2 ** 16


class TrainingError(RuntimeError):
    """Training aborted; the message names the offending rows or tensor."""


@dataclass
class TrainConfig:
    """Every knob for one run: data, architecture, optimization, ablations."""

    # data
    seed: int = 0
    n_train: int = 500
    n_test: int = 200
    num_classes: int = 6
    image_size: int = 8
    channels: int = 3
    signal: float = 3.0
    noise: float = 0.5
    cardinality: float = 1.5
    # architecture
    feature_dim: int = 32
    label_dim: int = 16
    bilinear_dim: int = 32
    bilinear_out: int = 16
    n_heads: int = 8
    gsp_mode: str = "avg"
    conv_blocks: int = 2
    # optimization
    lr: float = 2e-3
    batch_size: int = 16
    epochs: int = 50
    weight_decay: float = 1e-4
    lambda1: float = 0.04
    lambda2: float = 0.5
    gamma_pos: float = 0.0
    gamma_neg: float = 2.0
    clip: float = 0.05
    use_ema: bool = True
    ema_decay: float = 0.9997
    # ablations
    disable_self_attn: bool = False
    disable_ot: bool = False
    disable_gsp_fusion: bool = False

    def __post_init__(self):
        for name in ("lr", "batch_size", "epochs"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}={getattr(self, name)} must be positive")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay={self.weight_decay} must be >= 0")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ValueError(f"ema_decay {self.ema_decay} outside [0, 1]")
        asl_config(self)
        loss_weights(self)


def config_from_file(path, base: TrainConfig = None) -> TrainConfig:
    """Read key=value lines into a TrainConfig.

    Values go through :func:`sarl.data.parse_value` by field type. An
    unknown key, a value that does not parse or fails the TrainConfig
    checks, or a key given twice is a ValueError naming the key and its
    line.
    """
    base = base if base is not None else TrainConfig()
    kinds = {f.name: type(f.default) for f in fields(TrainConfig)}
    updates = {}
    for key, (lineno, value) in read_manifest_lines(path).items():
        if key not in kinds:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            updates[key] = parse_value(key, value, kinds[key])
            replace(base, **{key: updates[key]})  # each check reads one field
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return replace(base, **updates)


def config_entries(cfg: TrainConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}


def synthetic_config(cfg: TrainConfig) -> SyntheticConfig:
    return SyntheticConfig(
        seed=cfg.seed, n_train=cfg.n_train, n_test=cfg.n_test,
        num_classes=cfg.num_classes, height=cfg.image_size,
        width=cfg.image_size, channels=cfg.channels, signal=cfg.signal,
        noise=cfg.noise, cardinality=cfg.cardinality)


def model_config(cfg: TrainConfig) -> ModelConfig:
    grid = cfg.image_size
    for _ in range(cfg.conv_blocks):
        grid = T.conv_output_size(grid)
    encoder = EncoderConfig(in_channels=cfg.channels, grid_h=grid, grid_w=grid,
                            conv_blocks=cfg.conv_blocks)
    return ModelConfig(
        num_classes=cfg.num_classes, feature_dim=cfg.feature_dim,
        label_dim=cfg.label_dim, bilinear_dim=cfg.bilinear_dim,
        bilinear_out=cfg.bilinear_out, n_heads=cfg.n_heads,
        gsp_mode=cfg.gsp_mode, encoder=encoder,
        disable_self_attn=cfg.disable_self_attn,
        disable_ot=cfg.disable_ot,
        disable_gsp_fusion=cfg.disable_gsp_fusion)


def asl_config(cfg: TrainConfig) -> AslConfig:
    return AslConfig(gamma_pos=cfg.gamma_pos, gamma_neg=cfg.gamma_neg,
                     clip=cfg.clip)


def loss_weights(cfg: TrainConfig) -> LossWeights:
    return LossWeights(lambda1=cfg.lambda1, lambda2=cfg.lambda2)


@dataclass
class OptimizerState:
    """First/second moment buffers mirroring the parameter dict."""

    m: dict
    v: dict
    step: int = 0


def init_optimizer(params: dict) -> OptimizerState:
    return OptimizerState(
        m={name: np.zeros_like(p.data) for name, p in params.items()},
        v={name: np.zeros_like(p.data) for name, p in params.items()},
    )


def adamw_step(params: dict, grads: dict, state: OptimizerState, lr,
               weight_decay=0.0):
    """One decoupled-weight-decay Adam update, in place on params."""
    b1, b2 = ADAM_BETAS
    state.step += 1
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for name, p in params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = state.m[name] / bias1
        v_hat = state.v[name] / bias2
        update = m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * p.data
        p.data = (p.data - lr * update).astype(p.data.dtype, copy=False)


def ema_update(shadow: dict, params: dict, decay):
    """shadow <- decay * shadow + (1 - decay) * params, in place."""
    for name, p in params.items():
        shadow[name] = decay * shadow[name] + (1.0 - decay) * p.data
    return shadow


@dataclass
class TrainResult:
    model: ModelBundle
    history: list
    report: MetricReport
    predictions: PredictionSet
    shadow: dict = None


def _first_non_finite(tape: Tape, params: dict) -> str:
    for name, p in params.items():
        if not np.isfinite(p.data).all():
            return f"parameter {name}"
    for t in tape.tensors():
        if not np.isfinite(t.data).all():
            return f"op {t.op!r} output of shape {t.data.shape}"
    return "loss"


def train(cfg: TrainConfig, train_ds: Dataset, test_ds: Dataset,
          log=None, out_dir=None) -> TrainResult:
    """Run the full optimization and evaluate on the test split.

    Logs one line per epoch with the total loss and its three
    components, all averaged over the epoch's samples. When out_dir is
    given, writes model.ckpt (and model_ema.ckpt), predictions.txt and
    metrics.txt there.
    """
    say = log if log is not None else (lambda line: None)
    mcfg = model_config(cfg)
    acfg = asl_config(cfg)
    weights = loss_weights(cfg)
    dtype = np.float32  # the one precision of every step
    model = build_model(mcfg, seed=cfg.seed, dtype=dtype)
    params = model.parameters()
    state = init_optimizer(params)
    shadow = ({name: p.data.copy() for name, p in params.items()}
              if cfg.use_ema else None)
    shuffle_rng = np.random.default_rng([cfg.seed, 0x5EED])
    n = len(train_ds)
    images = train_ds.payload
    labels = train_ds.labels.astype(dtype)
    empty = np.flatnonzero(labels.sum(axis=1) == 0)
    if empty.size:
        rows = ", ".join(map(str, empty[:20])) + (", ..." if empty.size > 20 else "")
        raise TrainingError(f"{empty.size} training rows have no positive "
                            f"label: rows {rows}")

    for key, value in sorted(config_entries(cfg).items()):
        say(f"config {key}={value}")

    history = []
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        sums = {"total": 0.0, "cls": 0.0, "map": 0.0, "ot": 0.0}
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            grad_sum = {name: np.zeros_like(p.data)
                        for name, p in params.items()}
            for i in batch:
                with Tape() as tape:
                    out = forward(images[i], model, labels=labels[i])
                    total, l_cls, l_m, l_ot = sample_losses(
                        out, labels[i], acfg, weights)
                    if not np.isfinite(total.data):
                        raise TrainingError(
                            f"non-finite loss at epoch {epoch}, training row "
                            f"{i}; first bad tensor: "
                            + _first_non_finite(tape, params))
                    tape.backward(total)
                for name, p in params.items():
                    if p.grad is not None:
                        grad_sum[name] += p.grad
                sums["total"] += total.item()
                sums["cls"] += l_cls.item()
                sums["map"] += l_m.item()
                sums["ot"] += l_ot.item()
            grads = {name: g / len(batch) for name, g in grad_sum.items()}
            adamw_step(params, grads, state, cfg.lr,
                       weight_decay=cfg.weight_decay)
            if shadow is not None:
                ema_update(shadow, params, cfg.ema_decay)
        means = {key: value / n for key, value in sums.items()}
        history.append({"epoch": epoch, **means})
        say(f"epoch {epoch:3d}  loss {means['total']:.6f}  "
            f"cls {means['cls']:.6f}  map {means['map']:.6f}  "
            f"ot {means['ot']:.6f}")

    report, preds = evaluate(model, test_ds)
    say(f"final test mAP {report.mean_ap:.4f}")

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(os.path.join(out_dir, "model.ckpt"), model)
        if shadow is not None:
            ema = shadow_model(model, shadow)
            save_checkpoint(os.path.join(out_dir, "model_ema.ckpt"), ema)
        write_predictions(os.path.join(out_dir, "predictions.txt"), preds)
        write_manifest(os.path.join(out_dir, "metrics.txt"),
                       report_entries(report))
        say(format_report(report))
    return TrainResult(model, history, report, preds, shadow)


def shadow_model(model: ModelBundle, shadow: dict) -> ModelBundle:
    """A fresh bundle carrying the EMA weights; training weights untouched."""
    twin = build_model(model.config, seed=0,
                       dtype=next(iter(shadow.values())).dtype)
    for name, p in twin.parameters().items():
        p.data = shadow[name].copy()
    return twin


def chunk_size(cfg: ModelConfig, image_shape) -> int:
    """Samples per evaluate call of forward: CHUNK_ELEMENTS over the
    largest array one (H, W, C) image builds on the inference path, and
    at least 1. The candidates are each conv block's window columns and
    output, the attention's (heads, P, P) exp(logits) and the bilinear
    (P, C, d1) tanh."""
    h, w, c_in = image_shape
    largest = 0
    for _ in range(cfg.encoder.conv_blocks):
        h, w = T.conv_output_size(h), T.conv_output_size(w)
        largest = max(largest, h * w * max(T.CONV_KERNEL ** 2 * c_in,
                                           cfg.feature_dim))
        c_in = cfg.feature_dim
    num_p = h * w
    largest = max(largest, cfg.n_heads * num_p * num_p,
                  num_p * cfg.num_classes * cfg.bilinear_dim)
    return max(1, CHUNK_ELEMENTS // largest)


def evaluate(model: ModelBundle, ds: Dataset, threshold=0.5, top_k=3):
    """Score every sample (inference mode) and build the metric report.

    One forward call per chunk of :func:`chunk_size` samples.
    """
    n = len(ds)
    num_c = model.config.num_classes
    if ds.num_classes != num_c:
        raise ValueError(
            f"dataset has {ds.num_classes} classes, model wants {num_c}")
    check_cutoffs(threshold, top_k, num_c)
    if ds.payload.ndim != 4:
        raise ValueError(f"evaluate needs (N, H, W, C) images, got payload "
                         f"shape {ds.payload.shape}")
    step = chunk_size(model.config, ds.payload.shape[1:])
    scores = np.zeros((n, num_c))
    for lo in range(0, n, step):
        out = forward(ds.payload[lo:lo + step], model)
        scores[lo:lo + step] = T.sigmoid(out.logits).data
    preds = PredictionSet(scores, ds.labels.astype(np.uint8))
    return compute_report(preds, threshold=threshold, top_k=top_k), preds


def export_attention(model: ModelBundle, x, class_id, map_path, attn_path):
    """Write the semantic-map and attention columns for one class as PGM.

    The class's column over patches is reshaped to the patch grid and
    min-max scaled to [0, 255]; a constant column becomes all black.
    """
    if not 0 <= class_id < model.config.num_classes:
        raise ValueError(f"class_id={class_id} out of range: the model has "
                         f"{model.config.num_classes} classes")
    if model.config.disable_ot:
        raise ValueError("transport is disabled; no attention to export")
    if len(x.shape) != 3:
        raise ValueError(f"export_attention takes one (H, W, C) image, "
                         f"got shape {x.shape}")
    out = forward(x, model)
    grid_h, grid_w = out.features.h, out.features.w
    m = semantic_map(out.features.f, model.map_weights).data[:, class_id]
    write_pgm(map_path, m.reshape(grid_h, grid_w))
    b = out.attention.data[:, class_id]
    write_pgm(attn_path, b.reshape(grid_h, grid_w))


def write_pgm(path, grid):
    """Binary PGM (P5), min-max normalized; zero-range grids become black."""
    grid = np.asarray(grid, dtype=float)
    lo, hi = grid.min(), grid.max()
    if hi > lo:
        scaled = np.round((grid - lo) * (255.0 / (hi - lo)))
    else:
        scaled = np.zeros_like(grid)
    h, w = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(scaled.astype(np.uint8).tobytes())
