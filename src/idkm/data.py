"""Dataset ingestion, checkpoint persistence, and run reports.

Everything here is deterministic and offline: IDX files are parsed
bit-exactly, synthetic sets are seeded, and no function opens a network
connection (downloads are a CLI convenience that verifies digests).

A checkpoint is an uncompressed NumPy .npz archive: a UTF-8 JSON manifest
(format version, architecture, config) plus one float32 member per tensor
and per codebook. The archive's CRC-32s catch a corrupted payload. Training
math runs in float64 and casts at the save boundary.
"""

from __future__ import annotations

import gzip
import json
import os
import struct
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ParamError, ShapeError
from .nn import LayerSpec, Network
from .pq import Codebook, bits_per_weight

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801

CHECKPOINT_VERSION = 2

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
        if not len(self.labels):
            raise FormatError("dataset holds no rows")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise FormatError(f"labels must be integers, got {self.labels.dtype}")
        if self.labels.min() < 0:
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


def _read_idx_array(path, expect_magic: int) -> np.ndarray:
    opener = gzip.open if Path(path).suffix == ".gz" else open
    with opener(path, "rb") as fh:
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
    if not len(labels):
        raise FormatError(f"{images_path}: holds no images")
    inputs = (images.astype(np.float32) / np.float32(255.0))[:, None, :, :]
    return Dataset(inputs=inputs, labels=labels.astype(np.int64))


def mnist_paths(data_dir=None) -> dict[str, Path]:
    """Resolve the four MNIST file paths under data_dir or IDKM_DATA_DIR."""
    root = Path(data_dir or os.environ.get("IDKM_DATA_DIR", "data"))
    return {key: root / name for key, name in MNIST_FILES.items()}


def mnist_available(data_dir=None, split: str | None = None) -> bool:
    """Whether the split's image/label pair ("train" or "test") is on disk;
    all four files when split is None."""
    return all(path.exists() for key, path in mnist_paths(data_dir).items()
               if split is None or key.startswith(f"{split}_"))


def load_mnist(data_dir=None, split: str = "train") -> Dataset:
    paths = mnist_paths(data_dir)
    if split not in ("train", "test"):
        raise ParamError(f"split must be train or test, got {split!r}")
    return load_idx(paths[f"{split}_images"], paths[f"{split}_labels"])


def synthetic_blobs(
    seed: int,
    classes: int = 4,
    points_per_class: int = 200,
    dim: int = 8,
    separation: float = 6.0,
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
    """Write an uncompressed .npz archive at exactly `path`: a JSON
    `manifest` plus one little-endian float32 member per `tensor/<name>`
    and `codebook/<layer>`, in sorted order."""
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "architecture": [_layer_spec_dict(s) for s in net.layers],
        "config": config or {},
    }
    members = {f"tensor/{name}": w for name, w in weights.items()}
    members.update({f"codebook/{k}": b.data for k, b in (codebooks or {}).items()})
    arrays = {
        key: np.ascontiguousarray(members[key], dtype="<f4") for key in sorted(members)
    }
    with open(path, "wb") as fh:
        text = json.dumps(manifest, sort_keys=True).encode("utf-8")
        np.savez(fh, manifest=np.array(text), **arrays)


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint; tensors come back as float64. Any
    failure to read the archive is a FormatError, so a corrupt file never
    loads."""
    if not zipfile.is_zipfile(path):
        raise FormatError(
            f"{path}: not a version-{CHECKPOINT_VERSION} checkpoint (no .npz archive)"
        )
    try:
        with np.load(path, allow_pickle=False) as archive:
            infos = archive.zip.infolist()
            if sum(i.file_size for i in infos) > os.path.getsize(path) or any(
                i.compress_type != zipfile.ZIP_STORED for i in infos
            ):
                raise FormatError(f"{path}: members compressed or larger than the file")
            members = {name: archive[name] for name in archive.files}
        manifest = json.loads(members.pop("manifest").item())
    except (AttributeError, KeyError, TypeError, ValueError, EOFError, MemoryError,
            zipfile.BadZipFile) as exc:
        raise FormatError(
            f"{path}: unreadable archive or manifest: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(
            f"{path}: format version {version!r}, expected {CHECKPOINT_VERSION}"
        )
    entries = manifest.get("architecture")
    try:
        layers = tuple(LayerSpec(**entry) for entry in entries)
    except (TypeError, ParamError):
        layers = ()
    # Each stored layer must be exactly as save_checkpoint writes it.
    if not layers or [_layer_spec_dict(s) for s in layers] != entries:
        raise FormatError(f"{path}: manifest 'architecture' is not a list of layers")
    sections = {"tensor": {}, "codebook": {}}
    for member, value in members.items():
        section, _, name = member.partition("/")
        if section not in sections or not isinstance(value, np.ndarray):
            raise FormatError(f"{path}: unknown member {member!r}")
        if value.dtype != np.dtype("<f4"):
            raise FormatError(f"{path}: {member!r} is {value.dtype}, not float32")
        if not np.isfinite(value).all():
            raise FormatError(f"{path}: {section} {name!r} holds non-finite values")
        if section == "codebook" and (value.ndim != 2 or 0 in value.shape):
            raise FormatError(f"{path}: {member!r} has shape {value.shape}, not k x d")
        sections[section][name] = value.astype(np.float64)
    weights = sections["tensor"]
    net = Network(layers=layers)
    stored = sorted((name, w.shape) for name, w in weights.items())
    if stored != sorted(net.param_shapes().items()):
        raise FormatError(
            f"{path}: tensors {stored} are not those of the stored architecture"
        )
    stray = sorted(set(sections["codebook"]) - set(net.quantized_keys()))
    if stray:
        raise FormatError(
            f"{path}: codebooks {stray} name no quantized tensor of the stored "
            "architecture"
        )
    codebooks = {k: Codebook(data) for k, data in sections["codebook"].items()}
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
