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

import io
import math
import struct
from dataclasses import dataclass, fields

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
    "parse_value",
    "check_int",
    "check_fields",
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
        check_fields(self)
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")
        for name in ("n_train", "n_test", "num_classes", "height", "width",
                     "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} must be >= 1")
        if not 1.0 <= self.cardinality <= self.num_classes:
            raise ValueError(
                f"cardinality {self.cardinality} outside [1, {self.num_classes}]")
        if self.height < BLOB_SIZE or self.width < BLOB_SIZE:
            raise ValueError(f"height={self.height}, width={self.width} must "
                             f"be >= {BLOB_SIZE}")
        if self.noise < 0:
            raise ValueError(f"noise={self.noise} must be >= 0")


@dataclass
class Dataset:
    """Finite images (N, H, W, channels) plus binary labels (N, C)."""

    payload: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.payload.shape[0] != self.labels.shape[0]:
            raise ValueError("payload and labels disagree on sample count")
        # min and max carry any NaN or inf and need no payload-sized mask
        if self.payload.size and not np.isfinite(
                [self.payload.min(), self.payload.max()]).all():
            bad = ~np.isfinite(self.payload)
            row = np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1))[0]
            raise ValueError(f"row {row}: image payload holds the non-finite "
                             f"value {self.payload[row][bad[row]][0]}")
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
    if ds.payload.ndim != 4 or ds.num_classes < 1:
        raise ValueError(f"the format holds (N, height, width, channels) images "
                         f"and >= 1 class, got payload {ds.payload.shape} and "
                         f"{ds.num_classes} classes")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<5I", FORMAT_VERSION, KIND_IMAGES, len(ds),
                             ds.num_classes, 3))
        fh.write(struct.pack("<3I", *ds.payload.shape[1:]))
        fh.write(ds.payload.astype("<f4").tobytes())
        fh.write(ds.labels.astype(np.uint8).tobytes())


def read_exact(view: io.BytesIO, n: int, what: str) -> bytes:
    """The next n bytes of an in-memory file; fewer left is a FormatError.

    n is checked against the bytes left before anything is read, so a size
    from a damaged header never becomes an allocation or an overflow.
    """
    start = view.tell()
    left = len(view.getbuffer()) - start
    if n > left:
        raise FormatError(
            f"truncated {what}: wanted {n} bytes at offset {start}, got {left}")
    return view.read(n)


def read_text(view: io.BytesIO, n: int, what: str) -> str:
    """The next n bytes decoded as UTF-8; a bad byte is a FormatError."""
    start = view.tell()
    data = read_exact(view, n, what)
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not UTF-8: byte {data[exc.start]:#04x} "
                          f"at offset {start + exc.start}") from None


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        view = io.BytesIO(fh.read())
    magic = read_exact(view, 4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    version, kind, n, num_classes, ndim = struct.unpack(
        "<5I", read_exact(view, 20, "header"))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version} at byte 4")
    if kind != KIND_IMAGES:
        raise FormatError(
            f"payload kind {kind} at byte 8, expected {KIND_IMAGES} (images)")
    if num_classes < 1:
        raise FormatError(f"header field num_classes={num_classes} at byte 16 "
                          f"must be >= 1")
    if ndim != 3:
        raise FormatError(f"header field ndim={ndim} at byte 20, expected 3 "
                          f"(height, width, channels)")
    dims = struct.unpack("<3I", read_exact(view, 12, "dims"))
    # Python ints: sizes from a damaged header cannot overflow
    payload = np.frombuffer(read_exact(
        view, 4 * n * math.prod(dims), f"payload (n={n}, dims={dims})"),
        dtype="<f4")
    labels = np.frombuffer(read_exact(
        view, n * num_classes, f"labels (n={n}, num_classes={num_classes})"),
        dtype=np.uint8)
    if view.read(1):
        raise FormatError(f"trailing data at offset {view.tell() - 1}")
    payload = payload.reshape((n,) + dims).copy()
    labels = labels.reshape(n, num_classes).copy()
    try:
        return Dataset(payload, labels)
    except ValueError as exc:  # the message names the row and the field
        raise FormatError(str(exc)) from None


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


def read_manifest_lines(path) -> dict:
    """key -> (line number, value); skips blanks and '#' comments.

    A line without '=' and a key given twice are FormatErrors.
    """
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in entries:
                raise FormatError(f"lines {entries[key][0]} and {lineno} both "
                                  f"set {key!r}")
            entries[key] = (lineno, value.strip())
    return entries


def read_manifest(path) -> dict:
    return {key: value for key, (_, value) in read_manifest_lines(path).items()}


def parse_value(key, text: str, kind: type):
    """The value ``text`` of ``key`` as an int, float, bool or str.

    int() and float() also take signs, spaces, '_' separators, 'nan' and
    'inf'. Here an integer is plain ASCII digits, a float is finite and
    has no '_', and a boolean is 1/true/yes/on or 0/false/no/off. A bad
    value is a ValueError naming the key.
    """
    if kind is bool:
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{key!r} is {text!r}, not a boolean")
    if kind is int:
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"{key!r} is {text!r}, not an integer")
        return int(text)
    if kind is float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if "_" in text or not math.isfinite(value):
            raise ValueError(f"{key!r} is {text!r}, not a finite number")
        return value
    return text


def check_int(name, value):
    """Refuse a value that is not an integer, or is a bool, naming it as
    :func:`parse_value` does."""
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, (int, np.integer))):
        raise ValueError(f"{name!r} is {value!r}, not an integer")


def check_fields(cfg):
    """Refuse a dataclass config whose int field holds no integer, whose
    bool field holds no bool, or whose float is NaN or infinite, naming
    the field as :func:`parse_value` does."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type in (int, "int"):
            check_int(f.name, value)
        elif (f.type in (bool, "bool")
              and not isinstance(value, (bool, np.bool_))):
            raise ValueError(f"{f.name!r} is {value!r}, not a boolean")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name!r} is {value}, not a finite number")
