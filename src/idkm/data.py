"""Dataset ingestion, checkpoint persistence, and run reports.

Everything here is deterministic and offline: IDX files are parsed
bit-exactly, synthetic sets are seeded, and no function opens a network
connection (downloads are a CLI convenience that verifies digests).

Checkpoints store float32 payloads; training math runs in float64 and casts
at the save boundary.
"""

from __future__ import annotations

import gzip
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ParamError, ShapeError
from .nn import LayerSpec, Network
from .pq import Codebook, bits_per_weight

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801

CHECKPOINT_MAGIC = b"IDKMCKPT"
CHECKPOINT_VERSION = 1

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte.gz",
    "train_labels": "train-labels-idx1-ubyte.gz",
    "test_images": "t10k-images-idx3-ubyte.gz",
    "test_labels": "t10k-labels-idx1-ubyte.gz",
}

MNIST_SHA256 = {
    "train-images-idx3-ubyte.gz":
        "440fcabf73cc546fa21475e81ea370265605f56be210a4024d2ca8f203523609",
    "train-labels-idx1-ubyte.gz":
        "3552534a0a558bbed6aed32b30c495cca23d567ec52cac8be1a0730e8010255c",
    "t10k-images-idx3-ubyte.gz":
        "8d422c7b0a1c1c79245a5bcf07fe86e33eeafee792b84584aec276f5a2dbc4e6",
    "t10k-labels-idx1-ubyte.gz":
        "f7ae60f92e00ec6debd23a6088c31dbd2371eca3ffa0defaefb259924204aec6",
}


@dataclass
class Dataset:
    """Inputs plus integer labels, with basic consistency checks."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs)
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got shape {self.labels.shape}")
        if len(self.inputs) != len(self.labels):
            raise ShapeError(
                f"{len(self.inputs)} inputs vs {len(self.labels)} labels"
            )
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise FormatError(f"labels must be integers, got {self.labels.dtype}")
        if len(self.labels) and self.labels.min() < 0:
            raise FormatError("negative label")
        if not np.all(np.isfinite(self.inputs)):
            raise FormatError("non-finite input values")

    def __len__(self) -> int:
        return len(self.labels)

    def batches(self, batch_size: int, rng: np.random.Generator | None = None):
        """Yield (inputs, labels) slices; shuffles when an rng is given."""
        if batch_size < 1:
            raise ParamError(f"batch_size must be >= 1, got {batch_size}")
        order = np.arange(len(self))
        if rng is not None:
            order = rng.permutation(len(self))
        for start in range(0, len(self), batch_size):
            sel = order[start : start + batch_size]
            yield self.inputs[sel], self.labels[sel]


def _open_maybe_gzip(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx_array(path, expect_magic: int) -> np.ndarray:
    with _open_maybe_gzip(path) as fh:
        head = fh.read(4)
        if len(head) < 4:
            raise FormatError(f"{path}: truncated before magic (offset 0)")
        (magic,) = struct.unpack(">I", head)
        if magic != expect_magic:
            raise FormatError(
                f"{path}: bad magic 0x{magic:08x} at offset 0, "
                f"expected 0x{expect_magic:08x}"
            )
        ndim = magic & 0xFF
        dims_raw = fh.read(4 * ndim)
        if len(dims_raw) < 4 * ndim:
            raise FormatError(f"{path}: truncated in dimension header (offset 4)")
        dims = struct.unpack(f">{ndim}I", dims_raw)
        count = int(np.prod(dims))
        body = fh.read(count)
        if len(body) < count:
            raise FormatError(
                f"{path}: truncated payload at offset {4 + 4 * ndim + len(body)}, "
                f"expected {count} bytes"
            )
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after {count}-byte payload")
    return np.frombuffer(body, dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset.

    Images come out as (count, 1, height, width) float32 scaled to [0, 1];
    labels stay unsigned bytes. Gzipped files are handled transparently.
    """
    images = _read_idx_array(images_path, IDX_MAGIC_IMAGES)
    labels = _read_idx_array(labels_path, IDX_MAGIC_LABELS)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"{images.shape[0]} images but {labels.shape[0]} labels"
        )
    inputs = (images.astype(np.float32) / np.float32(255.0))[:, None, :, :]
    return Dataset(inputs=inputs, labels=labels.astype(np.int64))


def write_idx(images_path, labels_path, dataset: Dataset):
    """Inverse of load_idx for (count, 1, h, w) datasets; exact round-trip."""
    if dataset.inputs.ndim != 4 or dataset.inputs.shape[1] != 1:
        raise ShapeError(f"expected (n, 1, h, w) inputs, got {dataset.inputs.shape}")
    n, _, h, w = dataset.inputs.shape
    pixels = np.rint(np.asarray(dataset.inputs, dtype=np.float64) * 255.0)
    if pixels.min() < 0 or pixels.max() > 255:
        raise FormatError("pixel values outside [0, 1]")
    with _open_maybe_gzip_write(images_path) as fh:
        fh.write(struct.pack(">IIII", IDX_MAGIC_IMAGES, n, h, w))
        fh.write(pixels.astype(np.uint8).tobytes())
    with _open_maybe_gzip_write(labels_path) as fh:
        fh.write(struct.pack(">II", IDX_MAGIC_LABELS, n))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def _open_maybe_gzip_write(path):
    path = Path(path)
    if path.suffix == ".gz":
        # mtime=0 keeps gzip output reproducible byte-for-byte.
        return gzip.GzipFile(path, "wb", mtime=0)
    return open(path, "wb")


def mnist_paths(data_dir=None) -> dict[str, Path]:
    """Resolve the four MNIST file paths under data_dir or IDKM_DATA_DIR."""
    root = Path(data_dir or os.environ.get("IDKM_DATA_DIR", "data"))
    return {key: root / name for key, name in MNIST_FILES.items()}


def mnist_available(data_dir=None) -> bool:
    return all(p.exists() for p in mnist_paths(data_dir).values())


def load_mnist(data_dir=None, split: str = "train") -> Dataset:
    paths = mnist_paths(data_dir)
    if split not in ("train", "test"):
        raise ParamError(f"split must be train or test, got {split!r}")
    return load_idx(paths[f"{split}_images"], paths[f"{split}_labels"])


def synthetic_blobs(
    seed: int,
    classes: int,
    points_per_class: int,
    dim: int,
    separation: float,
) -> Dataset:
    """Gaussian blobs at deterministic centers, unit noise, shuffled.

    Centers depend only on (classes, dim, separation), never on the seed, so
    two seeds give train/eval splits of the same task. They sit at
    separation * (orthonormal directions) when dim >= classes, falling back
    to normalized random directions otherwise, so separation is measured in
    noise standard deviations. separation >= 4 gives a linearly separable
    set; separation = 0 collapses every class onto the origin.
    """
    if classes < 1 or points_per_class < 1 or dim < 1:
        raise ParamError("classes, points_per_class, and dim must all be >= 1")
    if not 0 <= separation < float("inf"):
        raise ParamError(f"separation must be finite and >= 0, got {separation}")
    rng = np.random.default_rng(seed)
    center_rng = np.random.default_rng(1_000_003 * classes + dim)
    raw = center_rng.normal(size=(dim, classes))
    if dim >= classes:
        q, _ = np.linalg.qr(raw)
        directions = q[:, :classes].T
    else:
        directions = raw.T / np.linalg.norm(raw.T, axis=1, keepdims=True)
    centers = separation * directions
    n = classes * points_per_class
    labels = np.repeat(np.arange(classes), points_per_class)
    inputs = centers[labels] + rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return Dataset(inputs=inputs[order], labels=labels[order].astype(np.int64))


def as_images(dataset: Dataset, channels: int, height: int, width: int) -> Dataset:
    """Reshape flat feature vectors into (n, c, h, w) image tensors."""
    n, feats = dataset.inputs.shape[0], int(np.prod(dataset.inputs.shape[1:]))
    if feats != channels * height * width:
        raise ShapeError(
            f"{feats} features cannot fill ({channels}, {height}, {width})"
        )
    return Dataset(
        inputs=dataset.inputs.reshape(n, channels, height, width),
        labels=dataset.labels,
    )


@dataclass
class Checkpoint:
    """In-memory view of a saved model: manifest plus decoded tensors."""

    manifest: dict
    weights: dict[str, np.ndarray]
    layers: tuple[LayerSpec, ...]
    codebooks: dict[str, Codebook] = field(default_factory=dict)

    def bits_per_weight(self) -> dict[str, float]:
        """Effective bits per weight for each stored codebook, from its shape."""
        return {
            layer: bits_per_weight(book.k, book.d)
            for layer, book in self.codebooks.items()
        }


def same_architecture(a: tuple[LayerSpec, ...], b: tuple[LayerSpec, ...]) -> bool:
    """Whether two layer lists agree in every layer's kind and shape fields;
    which layers are marked for quantization may differ."""
    def shapes(specs):
        return [{**_layer_spec_dict(s), "quantize": None} for s in specs]
    return shapes(a) == shapes(b)


def _layer_spec_dict(spec: LayerSpec) -> dict:
    entry = {"kind": spec.kind, "quantize": spec.quantize}
    if spec.kind == "dense":
        entry.update(in_features=spec.in_features, out_features=spec.out_features)
    elif spec.kind == "conv2d":
        entry.update(
            in_channels=spec.in_channels,
            out_channels=spec.out_channels,
            kernel=spec.kernel,
            stride=spec.stride,
            padding=spec.padding,
        )
    return entry


def save_checkpoint(
    path,
    net: Network,
    weights: dict[str, np.ndarray],
    config: dict | None = None,
    codebooks: dict[str, Codebook] | None = None,
):
    """Write magic + JSON manifest + contiguous little-endian float32 payload."""
    tensors = []
    blobs = []
    offset = 0
    for name in sorted(weights):
        blob = np.ascontiguousarray(weights[name], dtype="<f4")
        tensors.append(
            {"name": name, "shape": list(blob.shape), "offset": offset}
        )
        blobs.append(blob.tobytes())
        offset += len(blobs[-1])
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "architecture": [_layer_spec_dict(s) for s in net.layers],
        "tensors": tensors,
        "config": config or {},
    }
    if codebooks:
        entries = []
        for layer_key in sorted(codebooks):
            book = codebooks[layer_key]
            blob = np.ascontiguousarray(book.data, dtype="<f4")
            entries.append(
                {"layer": layer_key, "shape": list(blob.shape), "offset": offset}
            )
            blobs.append(blob.tobytes())
            offset += len(blobs[-1])
        manifest["codebooks"] = entries
    header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def _decode_tensor(payload: bytes, entry: dict, path) -> np.ndarray:
    shape = tuple(int(s) for s in entry["shape"])
    nbytes = int(np.prod(shape)) * 4
    start = int(entry["offset"])
    if start < 0 or start + nbytes > len(payload):
        raise FormatError(
            f"{path}: tensor {entry.get('name', entry.get('layer'))!r} spans "
            f"[{start}, {start + nbytes}) but payload is {len(payload)} bytes"
        )
    flat = np.frombuffer(payload, dtype="<f4", count=int(np.prod(shape)),
                         offset=start)
    return flat.reshape(shape).astype(np.float64)


def _manifest_entries(manifest: dict, key: str, label: str, path) -> list:
    """The manifest's `key` list, each entry checked to be decodable."""
    entries = manifest.get(key, [])
    if not isinstance(entries, list):
        raise FormatError(f"{path}: manifest {key!r} is not a list")
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get(label), str)
            and isinstance(entry.get("shape"), list)
            and all(isinstance(s, int) and s >= 0 for s in entry["shape"])
            and isinstance(entry.get("offset"), int)
        ):
            raise FormatError(
                f"{path}: {key} entry {entry!r} needs a {label!r} string, "
                f"a 'shape' list of sizes and an integer 'offset'"
            )
    return entries


def _manifest_layers(manifest: dict, path) -> tuple[LayerSpec, ...]:
    """The stored architecture, a non-empty list of entries each exactly as
    save_checkpoint writes it."""
    entries = manifest.get("architecture")
    try:
        specs = tuple(LayerSpec(**entry) for entry in entries)
        if specs and [_layer_spec_dict(s) for s in specs] == entries:
            return specs
    except (TypeError, ParamError):
        pass
    raise FormatError(f"{path}: manifest 'architecture' is not a list of layers")


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint; tensors come back as float64."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {magic!r}")
        size_field = fh.read(8)
        body = fh.read()
    if len(size_field) != 8:
        raise FormatError(f"{path}: truncated header ({len(size_field)} of 8 bytes)")
    (header_len,) = struct.unpack("<Q", size_field)
    try:
        manifest = json.loads(body[:header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    payload = body[header_len:]
    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(
            f"{path}: format version {version!r}, expected {CHECKPOINT_VERSION}"
        )
    if "tensors" not in manifest:
        raise FormatError(f"{path}: manifest lists no 'tensors'")
    layers = _manifest_layers(manifest, path)
    tensors = _manifest_entries(manifest, "tensors", "name", path)
    books = _manifest_entries(manifest, "codebooks", "layer", path)
    expected = sum(int(np.prod(e["shape"])) * 4 for e in tensors + books)
    if expected != len(payload):
        raise FormatError(
            f"{path}: manifest describes {expected} payload bytes, "
            f"file holds {len(payload)}"
        )
    weights = {e["name"]: _decode_tensor(payload, e, path) for e in tensors}
    codebooks = {
        e["layer"]: Codebook(_decode_tensor(payload, e, path)) for e in books
    }
    return Checkpoint(manifest, weights, layers, codebooks)


def append_jsonl(path, record: dict):
    """Append one record to a line-delimited report file."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
