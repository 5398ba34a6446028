"""Dataset ingestion and indexing.

Readers for the CIFAR-10 binary and MNIST IDX formats, channel
standardization with reusable statistics, per-class index construction, and
a deterministic toy generator (class template + Gaussian pixel noise) for
desk-scale runs and CI.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import Bound, bounded, check_fields
from .tensor import Tensor

CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes
MNIST_IMAGE_MAGIC = 0x00000803
MNIST_LABEL_MAGIC = 0x00000801
RESIZE_TO = Bound("MNIST image side in pixels", 1, int)
"""The range of ``load_mnist``'s ``resize_to``."""


class FormatError(ValueError):
    """Malformed dataset file; carries the byte offset of the defect."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class DatasetIndex:
    """Normalized image set with a per-class sample index."""

    images: Tensor                 # (N, C, H, W), standardized
    labels: np.ndarray             # (N,) int64
    per_class: list[list[int]]
    mean: np.ndarray               # per-channel stats used for normalization
    std: np.ndarray

    @property
    def num_classes(self):
        return len(self.per_class)

    @property
    def image_shape(self):
        return self.images.data.shape[1:]


def denormalize(x, mean, std):
    """Undo channel standardization: x * std + mean per channel of (..., C, H, W)."""
    c = mean.shape[0]
    return x * std.reshape(c, 1, 1) + mean.reshape(c, 1, 1)


def _build_index(raw, labels, num_classes, stats):
    """Standardize ``raw`` per channel and index it by class. The images are
    standardized in place: a C-contiguous float32 ``raw`` is taken over, so
    the caller hands in an array it no longer uses; any other is copied."""
    raw = np.ascontiguousarray(raw, dtype=np.float32)
    if stats is None:
        mean = raw.mean(axis=(0, 2, 3))
        std = raw.std(axis=(0, 2, 3))
    else:
        mean, std = (np.asarray(s, dtype=np.float32) for s in stats)
    std = np.where(std == 0, 1.0, std).astype(np.float32)
    mean = mean.astype(np.float32)
    raw -= mean[None, :, None, None]
    raw /= std[None, :, None, None]
    per_class = [[] for _ in range(num_classes)]
    for i, lab in enumerate(labels):
        per_class[int(lab)].append(i)
    return DatasetIndex(
        images=Tensor(raw),
        labels=labels.astype(np.int64),
        per_class=per_class,
        mean=mean,
        std=std,
    )


def load_cifar10(paths, stats=None):
    """Read one or more CIFAR-10 binary batch files.

    Each record is 1 label byte followed by 3072 pixel bytes (channel-planar
    R, G, B, row-major). Pixels are scaled to [0, 1] and standardized per
    channel; pass ``stats=(mean, std)`` to reuse training statistics.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    chunks, labels = [], []
    for path in paths:
        blob = Path(path).read_bytes()
        n, rem = divmod(len(blob), CIFAR_RECORD)
        if rem != 0 or n == 0:
            raise FormatError(f"{path}: truncated CIFAR-10 file", offset=n * CIFAR_RECORD)
        rec = np.frombuffer(blob, dtype=np.uint8).reshape(n, CIFAR_RECORD)
        lab = rec[:, 0]
        bad = np.nonzero(lab > 9)[0]
        if bad.size:
            i = int(bad[0])
            raise FormatError(f"{path}: label {int(lab[i])} > 9 at record {i}",
                              offset=i * CIFAR_RECORD)
        chunks.append(rec[:, 1:].reshape(n, 3, 32, 32))
        labels.append(lab)
    raw = np.divide(np.concatenate(chunks), 255.0, dtype=np.float32)  # one float32 array
    return _build_index(raw, np.concatenate(labels), 10, stats)


def _read_be32(blob, offset, path):
    if offset + 4 > len(blob):
        raise FormatError(f"{path}: truncated IDX header", offset=offset)
    return struct.unpack_from(">I", blob, offset)[0]


def load_mnist(images_path, labels_path, stats=None, resize_to=None):
    """Read an MNIST IDX image/label file pair.

    Grayscale (N, 1, 28, 28) scaled to [0, 1] then standardized; optionally
    center-crop or zero-pad the square images to ``resize_to`` pixels first.
    """
    if resize_to is not None:
        RESIZE_TO.check("resize_to", resize_to)
    img_blob = Path(images_path).read_bytes()
    magic = _read_be32(img_blob, 0, images_path)
    if magic != MNIST_IMAGE_MAGIC:
        raise FormatError(
            f"{images_path}: expected image magic {MNIST_IMAGE_MAGIC:#010x}, got {magic:#010x}",
            offset=0)
    n = _read_be32(img_blob, 4, images_path)
    rows = _read_be32(img_blob, 8, images_path)
    cols = _read_be32(img_blob, 12, images_path)
    if len(img_blob) != 16 + n * rows * cols:
        raise FormatError(f"{images_path}: payload is {len(img_blob) - 16} bytes, "
                          f"header promises {n * rows * cols}", offset=16)
    pixels = np.frombuffer(img_blob, dtype=np.uint8, offset=16).reshape(n, 1, rows, cols)

    lab_blob = Path(labels_path).read_bytes()
    magic = _read_be32(lab_blob, 0, labels_path)
    if magic != MNIST_LABEL_MAGIC:
        raise FormatError(
            f"{labels_path}: expected label magic {MNIST_LABEL_MAGIC:#010x}, got {magic:#010x}",
            offset=0)
    n_lab = _read_be32(lab_blob, 4, labels_path)
    if n_lab != n:
        raise FormatError(f"{labels_path}: {n_lab} labels for {n} images", offset=4)
    if len(lab_blob) != 8 + n_lab:
        raise FormatError(f"{labels_path}: payload is {len(lab_blob) - 8} bytes, "
                          f"header promises {n_lab}", offset=8)
    labels = np.frombuffer(lab_blob, dtype=np.uint8, offset=8)
    if labels.size and labels.max() > 9:
        i = int(np.nonzero(labels > 9)[0][0])
        raise FormatError(f"{labels_path}: label {int(labels[i])} > 9 at record {i}",
                          offset=8 + i)

    # The centred span of each axis is scaled straight into one zeroed float32
    # array of the final size, so no second copy of the set is made.
    shape = (rows, cols) if resize_to is None else (resize_to, resize_to)
    raw = np.zeros((n, 1, *shape), dtype=np.float32)
    src, dst = [], []
    for cur, size in zip((rows, cols), shape):
        span = min(cur, size)
        src.append(slice((cur - span) // 2, (cur - span) // 2 + span))
        dst.append(slice((size - span) // 2, (size - span) // 2 + span))
    np.divide(pixels[:, :, src[0], src[1]], 255.0, out=raw[:, :, dst[0], dst[1]],
              dtype=np.float32)
    return _build_index(raw, labels, 10, stats)


# ---------------------------------------------------------------------------
# toy generator


@dataclass(frozen=True)
class ToySpec:
    num_classes: int = bounded(4, "toy classes", 1, int)
    images_per_class: int = bounded(64, "toy images per class", 1, int)
    image_size: int = bounded(8, "toy image side in pixels", 1, int)
    channels: int = bounded(1, "toy image channels", 1, int)
    seed: int = bounded(0, "toy data seed", 0, int)
    noise_std: float = bounded(0.3, "toy pixel noise", 0, float)

    def __post_init__(self):
        check_fields(self)


def toy_templates(spec):
    """The fixed per-class template images of a toy spec."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    t = rng.normal(0.0, 1.0,
                   size=(spec.num_classes, spec.channels, spec.image_size, spec.image_size))
    return t.astype(np.float32)


def gen_toy(spec):
    """Deterministic toy dataset: class template + Gaussian pixel noise.

    Returns (train, test) DatasetIndex pairs with disjoint noise draws; test
    reuses the training normalization statistics.
    """
    templates = toy_templates(spec)
    flat = templates.reshape(spec.num_classes, -1)
    for a in range(spec.num_classes):
        for b in range(a + 1, spec.num_classes):
            differing = np.mean(flat[a] != flat[b])
            if differing < 0.25:
                raise ValueError(f"toy templates {a} and {b} differ in only "
                                 f"{differing:.0%} of pixels")
    labels = np.repeat(np.arange(spec.num_classes), spec.images_per_class)

    def split(stream, stats):
        # One class's noise at a time: the generator's stream, and so every
        # float32 value, is that of a single draw for the whole split.
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, stream]))
        raw = np.empty((labels.size, *templates.shape[1:]), dtype=np.float32)
        per = spec.images_per_class
        for cls, template in enumerate(templates):
            block = raw[cls * per:(cls + 1) * per]
            block[...] = rng.normal(0.0, spec.noise_std, size=block.shape)
            block += template
        return _build_index(raw, labels, spec.num_classes, stats)

    train = split(1, None)
    test = split(2, (train.mean, train.std))
    return train, test
