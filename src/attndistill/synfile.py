"""Self-describing binary container for synthetic sets ("DDS1").

Layout: magic "DDS1"; little-endian u32 header (version, count, C, H, W, K,
ipc); float32 LE pixel payload, row-major; u16 LE labels; u32
length-prefixed UTF-8 JSON manifest. Writes are byte-deterministic so
identical runs produce identical files.
"""
from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"DDS1"
VERSION = 1
_HEADER = struct.Struct("<7I")


class SynFileError(ValueError):
    """Synthetic-set file violates a format invariant."""


@dataclass
class SyntheticSet:
    """The learnable images plus their fixed class labels.

    The images carry no graph node: a distillation step wraps each class's
    rows in a leaf of its own and steps them in place."""

    images: Tensor            # (K * ipc, C, H, W)
    labels: np.ndarray        # (K * ipc,), class-major, never updated
    ipc: int

    @property
    def num_classes(self):
        return self.images.data.shape[0] // self.ipc


@dataclass
class RunManifest:
    """Everything needed to reproduce and reinterpret a run.

    duration_sec is kept out of the serialized artifact (written as null) so
    identical runs stay byte-identical; callers that want timing read it from
    the in-memory object.
    """

    tool_version: str
    seed: int
    dataset: dict                 # {"path": ..., "sha256": ..., possibly "toy": {...}}
    distill: dict
    encoder: dict
    stats: dict                   # {"mean": [...], "std": [...]}
    duration_sec: float | None = None
    eval: dict = field(default_factory=dict)

    def to_dict(self):
        d = asdict(self)
        d["duration_sec"] = None
        return d


def write_synthetic(path, syn, num_classes, manifest):
    """Serialize a synthetic set plus its manifest."""
    count, c, h, w = syn.images.data.shape
    if count != num_classes * syn.ipc:
        raise SynFileError(f"count {count} != num_classes {num_classes} * ipc {syn.ipc}")
    mdict = manifest.to_dict() if isinstance(manifest, RunManifest) else dict(manifest)
    mjson = json.dumps(mdict, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += _HEADER.pack(VERSION, count, c, h, w, num_classes, syn.ipc)
    blob += np.ascontiguousarray(syn.images.data, dtype="<f4").tobytes()
    blob += np.ascontiguousarray(syn.labels, dtype="<u2").tobytes()
    blob += struct.pack("<I", len(mjson))
    blob += mjson
    Path(path).write_bytes(bytes(blob))


def read_synthetic(path):
    """Parse and validate a DDS1 file; returns (SyntheticSet, manifest dict).

    Besides the layout, it checks that the set is not empty, that every
    pixel is finite, that the labels are class-major (``ipc`` of each class
    in [0, K), in order) and that the manifest is a UTF-8 JSON object.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise SynFileError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < 4 + _HEADER.size:
        raise SynFileError(f"{path}: truncated header")
    version, count, c, h, w, k, ipc = _HEADER.unpack_from(blob, 4)
    if version != VERSION:
        raise SynFileError(f"{path}: unsupported version {version}")
    if count != k * ipc:
        raise SynFileError(f"{path}: header count {count} != K {k} * ipc {ipc}")
    if count == 0:
        raise SynFileError(f"{path}: empty synthetic set (K {k}, ipc {ipc})")
    off = 4 + _HEADER.size
    pixel_bytes = count * c * h * w * 4
    if len(blob) < off + pixel_bytes + count * 2 + 4:
        raise SynFileError(
            f"{path}: payload length {len(blob) - off} inconsistent with header "
            f"count {count} ({pixel_bytes} pixel bytes expected)")
    pixels = np.frombuffer(blob, dtype="<f4", count=count * c * h * w,
                           offset=off).reshape(count, c, h, w)
    if not np.isfinite(pixels).all():
        first = int(np.argwhere(~np.isfinite(pixels))[0, 0])
        raise SynFileError(f"{path}: image {first} holds a non-finite pixel value")
    off += pixel_bytes
    labels = np.frombuffer(blob, dtype="<u2", count=count, offset=off).astype(np.int64)
    if labels.max() >= k:
        raise SynFileError(f"{path}: label {labels.max()} outside [0, {k})")
    if not np.array_equal(labels, np.repeat(np.arange(k), ipc)):
        raise SynFileError(f"{path}: labels are not class-major ({ipc} of each class in order)")
    off += count * 2
    (mlen,) = struct.unpack_from("<I", blob, off)
    off += 4
    if len(blob) != off + mlen:
        raise SynFileError(f"{path}: manifest length {mlen} inconsistent with file size")
    try:
        manifest = json.loads(blob[off:off + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SynFileError(f"{path}: manifest is not UTF-8 JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise SynFileError(f"{path}: manifest is a JSON {type(manifest).__name__}, not an object")
    syn = SyntheticSet(images=Tensor(pixels.copy()), labels=labels, ipc=ipc)
    return syn, manifest
