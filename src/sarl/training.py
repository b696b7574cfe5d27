"""Training loop, optimizer, evaluation, and attention export.

The parameters' dtype sets the precision of a step: ``train`` builds a
float32 model and casts its label matrix once to that dtype, so every
value and gradient of a step is float32, and a saved checkpoint reloads
into an evaluation that is bit-identical to the one before saving.
Tests build float64 models and pass float64 labels. Training records
one tape per sample, gradients averaged over the batch, AdamW with
decoupled weight decay, and an optional EMA shadow of every parameter.
:func:`init_optimizer` lays the parameters out as views of one flat
buffer, so the batch gradient sum, its finiteness check, AdamW and the
EMA are each a few whole-buffer numpy calls, with the same float
operations on each element as a loop over the parameters would do.
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
from .data import (Dataset, SyntheticConfig, check_fields, check_int,
                   parse_value, read_manifest_lines, write_manifest)
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
        check_fields(self)
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")
        for name in ("lr", "batch_size", "epochs", "image_size", "channels"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}={getattr(self, name)} must be positive")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay={self.weight_decay} must be >= 0")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ValueError(f"ema_decay {self.ema_decay} outside [0, 1]")
        synthetic_config(self)
        asl_config(self)
        loss_weights(self)
        model_config(self)


def config_from_file(path, base: TrainConfig = None,
                     overrides=None) -> TrainConfig:
    """Read key=value lines into a TrainConfig.

    Values go through :func:`sarl.data.parse_value` by field type. An
    unknown key, a value that does not parse, or a key given twice is a
    ValueError naming the key and its line. ``overrides`` (field name ->
    value, as the flags of `sarl train` give them) replace the file's
    values after its last line. A config that fails the TrainConfig
    checks is blamed on the first line, or override, after which the
    values read so far fail as the whole config does: a check may read
    two fields, as n_heads must divide feature_dim.
    """
    base = base if base is not None else TrainConfig()
    kinds = {f.name: type(f.default) for f in fields(TrainConfig)}
    updates, lines = {}, {}
    for key, (lineno, value) in read_manifest_lines(path).items():
        if key not in kinds:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            updates[key] = parse_value(key, value, kinds[key])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        lines[key] = f"line {lineno}: "
    for key, value in (overrides or {}).items():
        updates.pop(key, None)
        lines.pop(key, None)
        updates[key] = value
    try:
        return replace(base, **updates)
    except ValueError as exc:
        why = str(exc)
    read = {}
    for key, value in updates.items():  # the last pass reads them all
        read[key] = value
        try:
            replace(base, **read)
        except ValueError as exc:
            if str(exc) == why:
                raise ValueError(lines.get(key, "") + why) from None


def config_entries(cfg: TrainConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}


def _by_name(cls, cfg: TrainConfig, **renamed):
    """A ``cls`` config whose fields come from cfg's fields of the same
    name, except those given in ``renamed``."""
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)
                  if f.name not in renamed}, **renamed)


def synthetic_config(cfg: TrainConfig) -> SyntheticConfig:
    return _by_name(SyntheticConfig, cfg, height=cfg.image_size,
                    width=cfg.image_size)


def model_config(cfg: TrainConfig) -> ModelConfig:
    grid = cfg.image_size
    for _ in range(cfg.conv_blocks):
        grid = T.conv_output_size(grid)
    encoder = _by_name(EncoderConfig, cfg, in_channels=cfg.channels,
                       grid_h=grid, grid_w=grid)
    return _by_name(ModelConfig, cfg, encoder=encoder)


def asl_config(cfg: TrainConfig) -> AslConfig:
    return _by_name(AslConfig, cfg)


def loss_weights(cfg: TrainConfig) -> LossWeights:
    return _by_name(LossWeights, cfg)


@dataclass
class OptimizerState:
    """AdamW state over one flat buffer that every parameter views.

    ``weights`` holds the parameters end to end, in the order of the dict
    given to :func:`init_optimizer`, and each parameter's ``.data`` is a
    view of it. ``m`` and ``v``, the first and second moments, and a
    batch gradient are laid out alike; ``slices`` maps each parameter
    name to its slice of them.
    """

    weights: np.ndarray
    m: np.ndarray
    v: np.ndarray
    slices: dict
    shapes: dict
    step: int = 0

    def __post_init__(self):
        # two work buffers, so a step allocates no temporaries
        self.scratch = (np.empty_like(self.weights),
                        np.empty_like(self.weights))

    def views(self, flat) -> dict:
        """Name -> parameter-shaped view of a buffer laid out like weights."""
        return {name: flat[sl].reshape(self.shapes[name])
                for name, sl in self.slices.items()}

    def first_non_finite(self, flat):
        """The name of the parameter holding flat's first non-finite value,
        or None when every value is finite."""
        finite = np.isfinite(flat)
        if finite.all():
            return None
        offset = int(np.argmin(finite))
        return next(name for name, sl in self.slices.items()
                    if offset < sl.stop)


def init_optimizer(params: dict) -> OptimizerState:
    """Copy the parameters into one flat buffer and start AdamW on it.

    Each ``p.data`` is rebound to its view of ``state.weights``, so one
    whole-buffer update moves every parameter. All parameters must share
    one dtype; the first that differs is refused by name.
    """
    first = next(iter(params))
    dtype = params[first].data.dtype
    slices, shapes, lo = {}, {}, 0
    for name, p in params.items():
        if p.data.dtype != dtype:
            raise TypeError(f"parameter {name} is {p.data.dtype} but {first} "
                            f"is {dtype}: the optimizer buffer holds one dtype")
        slices[name] = slice(lo, lo + p.data.size)
        shapes[name] = p.data.shape
        lo += p.data.size
    weights = np.concatenate([p.data for p in params.values()], axis=None)
    for name, p in params.items():
        p.data = weights[slices[name]].reshape(shapes[name])
    return OptimizerState(weights, np.zeros_like(weights),
                          np.zeros_like(weights), slices, shapes)


def adamw_step(params: dict, grads, state: OptimizerState, lr,
               weight_decay=0.0):
    """One decoupled-weight-decay Adam update, in place on state.weights.

    ``params`` is the dict given to :func:`init_optimizer`, whose tensors
    view the buffer, so the update reaches them without reading it; a
    wrapper of the step can read the parameters there. ``grads`` is the
    batch gradient laid out like the buffer.
    Each element takes the operations of ``b1 * m + (1 - b1) * g``,
    ``b2 * v + (1 - b2) * (g * g)``, ``m_hat / (sqrt(v_hat) + eps) +
    weight_decay * w`` and ``w - lr * update`` in that order, so the
    bits do not depend on the buffer layout.
    """
    b1, b2 = ADAM_BETAS
    state.step += 1
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    w, m, v = state.weights, state.m, state.v
    a, b = state.scratch
    m *= b1
    np.multiply(grads, 1.0 - b1, out=a)
    m += a
    v *= b2
    np.multiply(grads, grads, out=a)
    a *= 1.0 - b2
    v += a
    np.divide(m, bias1, out=a)
    np.divide(v, bias2, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    np.multiply(w, weight_decay, out=b)
    a += b
    a *= lr
    w -= a


def ema_update(shadow, state: OptimizerState, decay):
    """shadow <- decay * shadow + (1 - decay) * state.weights, in place on
    the flat shadow buffer."""
    a = state.scratch[0]
    shadow *= decay
    np.multiply(state.weights, 1.0 - decay, out=a)
    shadow += a
    return shadow


@dataclass
class TrainResult:
    model: ModelBundle
    history: list
    report: MetricReport
    predictions: PredictionSet
    shadow: dict = None


def _first_non_finite(tape: Tape, state: OptimizerState) -> str:
    name = state.first_non_finite(state.weights)
    if name is not None:
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
    metrics.txt there. A non-finite sample loss, or a non-finite batch
    gradient before the optimizer step, aborts with a TrainingError that
    names the epoch, the training rows and the first bad tensor or
    parameter. An empty split, a split whose class count or (H, W, C)
    images differ from ``cfg``, a test split without a positive label
    and a training row without one are refused before anything is
    logged.
    """
    say = log if log is not None else (lambda line: None)
    mcfg = model_config(cfg)
    acfg = asl_config(cfg)
    weights = loss_weights(cfg)
    dtype = np.float32  # the one precision of every step
    model = build_model(mcfg, seed=cfg.seed, dtype=dtype)
    params = model.parameters()
    state = init_optimizer(params)
    shadow = state.weights.copy() if cfg.use_ema else None
    # each sample's leaf gradients add into their views of the batch sum;
    # an unused parameter (p.grad None) adds nothing, as its zeros would
    # to a sum that starts at +0
    grad_sum = np.empty_like(state.weights)
    leaves = list(zip(params.values(), state.views(grad_sum).values()))
    shuffle_rng = np.random.default_rng([cfg.seed, 0x5EED])
    n = len(train_ds)
    # here, not after the last epoch, where evaluate would refuse them
    want = (cfg.image_size, cfg.image_size, cfg.channels)
    for split, ds in (("training", train_ds), ("test", test_ds)):
        if not len(ds):
            raise TrainingError(f"the {split} split has no samples")
        dims = ds.payload.shape[1:]
        if ds.num_classes != cfg.num_classes or dims != want:
            raise TrainingError(
                f"the {split} split is {'x'.join(map(str, dims))} with "
                f"{ds.num_classes} classes, config wants "
                f"{'x'.join(map(str, want))} with {cfg.num_classes}")
    if not test_ds.labels.any():
        raise TrainingError("the test split has no positive label, so its "
                            "mAP is undefined")
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
            grad_sum.fill(0.0)
            for i in batch:
                with Tape() as tape:
                    out = forward(images[i], model, labels=labels[i])
                    total, l_cls, l_m, l_ot = sample_losses(
                        out, labels[i], acfg, weights)
                    if not np.isfinite(total.data):
                        raise TrainingError(
                            f"non-finite loss at epoch {epoch}, training row "
                            f"{i}; first bad tensor: "
                            + _first_non_finite(tape, state))
                    tape.backward(total)
                for p, view in leaves:
                    if p.grad is not None:
                        view += p.grad
                sums["total"] += total.item()
                sums["cls"] += l_cls.item()
                sums["map"] += l_m.item()
                sums["ot"] += l_ot.item()
            bad = state.first_non_finite(grad_sum)
            if bad is not None:
                raise TrainingError(
                    f"non-finite gradient of parameter {bad} at epoch "
                    f"{epoch}, training rows {', '.join(map(str, batch))}")
            grad_sum /= len(batch)
            adamw_step(params, grad_sum, state, cfg.lr,
                       weight_decay=cfg.weight_decay)
            if shadow is not None:
                ema_update(shadow, state, cfg.ema_decay)
        means = {key: value / n for key, value in sums.items()}
        history.append({"epoch": epoch, **means})
        say(f"epoch {epoch:3d}  loss {means['total']:.6f}  "
            f"cls {means['cls']:.6f}  map {means['map']:.6f}  "
            f"ot {means['ot']:.6f}")

    report, preds = evaluate(model, test_ds)
    say(f"final test mAP {report.mean_ap:.4f}")
    if shadow is not None:
        shadow = state.views(shadow)

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


def _check_image_shape(cfg: ModelConfig, image_shape, what):
    """Refuse (H, W, C) images that the model's encoder cannot take:
    another channel count, or a size its conv blocks do not bring to the
    model's patch grid. ``what`` names the images in the message."""
    h, w, c_in = image_shape
    enc = cfg.encoder
    grid_h, grid_w = h, w
    for _ in range(enc.conv_blocks):
        grid_h, grid_w = T.conv_output_size(grid_h), T.conv_output_size(grid_w)
    if c_in != enc.in_channels or (grid_h, grid_w) != (enc.grid_h, enc.grid_w):
        raise ValueError(
            f"{what} {h}x{w}x{c_in}, which the encoder makes a "
            f"{grid_h}x{grid_w} grid; the model takes {enc.in_channels}-channel "
            f"images to a {enc.grid_h}x{enc.grid_w} grid")


def evaluate(model: ModelBundle, ds: Dataset, threshold=0.5, top_k=3):
    """Score every sample (inference mode) and build the metric report.

    One forward call per chunk of :func:`chunk_size` samples.
    """
    n = len(ds)
    if n == 0:
        raise ValueError(f"evaluate needs at least one sample, got an empty "
                         f"split of payload shape {ds.payload.shape}")
    num_c = model.config.num_classes
    if ds.num_classes != num_c:
        raise ValueError(
            f"dataset has {ds.num_classes} classes, model wants {num_c}")
    check_cutoffs(threshold, top_k, num_c)
    if ds.payload.ndim != 4:
        raise ValueError(f"evaluate needs (N, H, W, C) images, got payload "
                         f"shape {ds.payload.shape}")
    _check_image_shape(model.config, ds.payload.shape[1:], "the split's images are")
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
    check_int("class_id", class_id)
    if not 0 <= class_id < model.config.num_classes:
        raise ValueError(f"class_id={class_id} out of range: the model has "
                         f"{model.config.num_classes} classes")
    if model.config.disable_ot:
        raise ValueError("transport is disabled; no attention to export")
    if len(x.shape) != 3:
        raise ValueError(f"export_attention takes one (H, W, C) image, "
                         f"got shape {x.shape}")
    _check_image_shape(model.config, x.shape, "the image is")
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
