"""Synthetic multi-label datasets, their binary file format, and statistics.

Each class owns a fixed random blob pattern. A sample draws a label
subset, stamps every present class's blob at a random position on a
noisy background, and records exactly those classes as positives. The
task is solvable (blobs are recoverable by template matching when the
noise is off) but not trivial, which is what a trainable stand-in for a
real detection-style dataset needs.

Files are deliberately simple: a fixed magic, little-endian u32 header
words, a float32 image payload, then one byte per label. A key=value
manifest accompanies splits so statistics can be read without the
payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FormatError",
    "SyntheticConfig",
    "Dataset",
    "DatasetStats",
    "generate",
    "save_dataset",
    "load_dataset",
    "stats",
    "write_manifest",
    "read_manifest",
]

MAGIC = b"SARL"
FORMAT_VERSION = 1
KIND_IMAGES = 0  # the header's kind word; images are the only payload
BLOB_SIZE = 3


class FormatError(ValueError):
    """A file does not match the declared binary or text format."""


@dataclass
class SyntheticConfig:
    """Generation settings; defaults give the standard desk-scale task."""

    seed: int = 0
    n_train: int = 500
    n_test: int = 200
    num_classes: int = 6
    height: int = 8
    width: int = 8
    channels: int = 3
    signal: float = 3.0
    noise: float = 0.5
    cardinality: float = 1.5

    def __post_init__(self):
        for name in ("n_train", "n_test", "num_classes", "height", "width",
                     "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 1.0 <= self.cardinality <= self.num_classes:
            raise ValueError(
                f"cardinality {self.cardinality} outside [1, {self.num_classes}]")
        if self.height < BLOB_SIZE or self.width < BLOB_SIZE:
            raise ValueError(f"images must be at least {BLOB_SIZE}x{BLOB_SIZE}")


@dataclass
class Dataset:
    """Images (N, H, W, channels) plus binary labels (N, C)."""

    payload: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.payload.shape[0] != self.labels.shape[0]:
            raise ValueError("payload and labels disagree on sample count")
        bad = np.flatnonzero(((self.labels != 0) & (self.labels != 1)).any(axis=1))
        if bad.size:
            raise ValueError(f"row {bad[0]}: labels must be 0 or 1, "
                             f"got {self.labels[bad[0]].tolist()}")

    def __len__(self):
        return self.payload.shape[0]

    @property
    def num_classes(self):
        return self.labels.shape[1]


@dataclass
class DatasetStats:
    n_samples: int
    num_classes: int
    cardinality: float
    class_counts: np.ndarray


def class_blobs(cfg: SyntheticConfig) -> np.ndarray:
    """The per-class stamp patterns, fixed by the config seed alone."""
    rng = np.random.default_rng([cfg.seed, 0xB10B])
    return rng.normal(size=(cfg.num_classes, BLOB_SIZE, BLOB_SIZE,
                            cfg.channels))


def _draw_label_count(rng, cfg: SyntheticConfig) -> int:
    # 1 + Binomial(C-1, (t-1)/(C-1)) has mean exactly t and at least one
    # positive; independent per-class draws conditioned on nonempty would
    # overshoot the cardinality target.
    if cfg.num_classes == 1:
        return 1
    p = (cfg.cardinality - 1.0) / (cfg.num_classes - 1.0)
    return 1 + int(rng.binomial(cfg.num_classes - 1, p))


def _render_split(rng, cfg: SyntheticConfig, n: int, blobs) -> Dataset:
    images = np.zeros((n, cfg.height, cfg.width, cfg.channels), dtype=np.float32)
    labels = np.zeros((n, cfg.num_classes), dtype=np.uint8)
    for i in range(n):
        img = rng.normal(0.0, cfg.noise,
                         size=(cfg.height, cfg.width, cfg.channels))
        count = _draw_label_count(rng, cfg)
        present = rng.choice(cfg.num_classes, size=count, replace=False)
        for c in present:
            top = rng.integers(0, cfg.height - BLOB_SIZE + 1)
            left = rng.integers(0, cfg.width - BLOB_SIZE + 1)
            img[top:top + BLOB_SIZE, left:left + BLOB_SIZE] += \
                cfg.signal * blobs[c]
            labels[i, c] = 1
        images[i] = img.astype(np.float32)
    return Dataset(images, labels)


def generate(cfg: SyntheticConfig):
    """Build (train, test) splits, reproducible from cfg.seed alone."""
    blobs = class_blobs(cfg)
    rng = np.random.default_rng([cfg.seed, 0xDA7A])
    train = _render_split(rng, cfg, cfg.n_train, blobs)
    test = _render_split(rng, cfg, cfg.n_test, blobs)
    return train, test


def save_dataset(path, ds: Dataset):
    dims = ds.payload.shape[1:]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<5I", FORMAT_VERSION, KIND_IMAGES, len(ds),
                             ds.num_classes, len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        fh.write(ds.payload.astype("<f4").tobytes())
        fh.write(ds.labels.astype(np.uint8).tobytes())


def _read_exact(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        offset = fh.tell() - len(data)
        raise FormatError(
            f"truncated {what}: wanted {n} bytes at offset {offset}, "
            f"got {len(data)}")
    return data


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
        version, kind, n, num_classes, ndim = struct.unpack(
            "<5I", _read_exact(fh, 20, "header"))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version} at byte 4")
        if kind != KIND_IMAGES:
            raise FormatError(
                f"payload kind {kind} at byte 8, expected {KIND_IMAGES} (images)")
        dims = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "dims"))
        per_sample = int(np.prod(dims, dtype=np.int64)) if dims else 1
        payload = np.frombuffer(
            _read_exact(fh, 4 * n * per_sample, "payload"), dtype="<f4")
        labels = np.frombuffer(
            _read_exact(fh, n * num_classes, "labels"), dtype=np.uint8)
        extra = fh.read(1)
        if extra:
            raise FormatError(f"trailing data at offset {fh.tell() - 1}")
    payload = payload.reshape((n,) + dims).copy()
    labels = labels.reshape(n, num_classes).copy()
    try:
        return Dataset(payload, labels)
    except ValueError as exc:
        raise FormatError(f"label bytes: {exc}") from None


def stats(ds: Dataset) -> DatasetStats:
    counts = ds.labels.astype(np.int64).sum(axis=0)
    return DatasetStats(
        n_samples=len(ds),
        num_classes=ds.num_classes,
        cardinality=float(counts.sum()) / len(ds),
        class_counts=counts,
    )


def write_manifest(path, entries: dict):
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def read_manifest(path) -> dict:
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries
