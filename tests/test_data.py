"""IDX parsing, synthetic blobs, checkpoint persistence, report files."""

import gzip
import io
import json
import re
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest

from idkm.cli import EXIT_DATA, main
from idkm.data import (
    MNIST_FILES,
    Dataset,
    append_jsonl,
    as_images,
    load_checkpoint,
    load_idx,
    load_mnist,
    mnist_available,
    mnist_paths,
    read_jsonl,
    save_checkpoint,
    synthetic_blobs,
)
from idkm.errors import FormatError, ParamError, ShapeError
from idkm.nn import LayerSpec, Network
from idkm.pq import Codebook

REPO = Path(__file__).resolve().parents[1]
PIXELS = bytes([0, 64, 128, 255, 10, 20, 30, 40])


def write_fixture(tmp_path, images=None, labels=None):
    """A 2-image 2x2 IDX pair with the bytes spelled out."""
    images_path = tmp_path / "images-idx3-ubyte"
    labels_path = tmp_path / "labels-idx1-ubyte"
    images_path.write_bytes(
        images if images is not None
        else struct.pack(">IIII", 0x803, 2, 2, 2) + PIXELS
    )
    labels_path.write_bytes(
        labels if labels is not None
        else struct.pack(">II", 0x801, 2) + bytes([3, 7])
    )
    return images_path, labels_path


class TestIdx:
    def test_hand_built_pair_parses_exactly(self, tmp_path):
        ds = load_idx(*write_fixture(tmp_path))
        assert ds.inputs.shape == (2, 1, 2, 2)
        assert ds.inputs.dtype == np.float32
        expected = np.frombuffer(PIXELS, dtype=np.uint8).reshape(2, 1, 2, 2)
        np.testing.assert_allclose(ds.inputs, expected / np.float32(255.0))
        assert ds.labels.tolist() == [3, 7]

    def test_label_magic_in_image_slot_is_rejected(self, tmp_path):
        bad = struct.pack(">IIII", 0x801, 2, 2, 2) + PIXELS
        images, labels = write_fixture(tmp_path, images=bad)
        with pytest.raises(FormatError, match="offset 0"):
            load_idx(images, labels)

    def test_truncated_payload_reports_offset(self, tmp_path):
        short = struct.pack(">IIII", 0x803, 2, 2, 2) + PIXELS[:5]
        images, labels = write_fixture(tmp_path, images=short)
        with pytest.raises(FormatError, match="truncated payload"):
            load_idx(images, labels)

    def test_truncated_header_is_rejected(self, tmp_path):
        images, labels = write_fixture(tmp_path, images=b"\x00\x00")
        with pytest.raises(FormatError, match="truncated"):
            load_idx(images, labels)

    def test_trailing_bytes_are_rejected(self, tmp_path):
        padded = struct.pack(">IIII", 0x803, 2, 2, 2) + PIXELS + b"\x00"
        images, labels = write_fixture(tmp_path, images=padded)
        with pytest.raises(FormatError, match="trailing"):
            load_idx(images, labels)

    def test_image_label_count_mismatch_rejected(self, tmp_path):
        one_label = struct.pack(">II", 0x801, 1) + bytes([3])
        images, labels = write_fixture(tmp_path, labels=one_label)
        with pytest.raises(FormatError, match="images but"):
            load_idx(images, labels)

    def test_gzip_files_load_transparently(self, tmp_path):
        raw_images, raw_labels = write_fixture(tmp_path)
        gz_images = tmp_path / "images.gz"
        gz_labels = tmp_path / "labels.gz"
        gz_images.write_bytes(gzip.compress(raw_images.read_bytes()))
        gz_labels.write_bytes(gzip.compress(raw_labels.read_bytes()))
        plain = load_idx(raw_images, raw_labels)
        zipped = load_idx(gz_images, gz_labels)
        np.testing.assert_array_equal(plain.inputs, zipped.inputs)
        np.testing.assert_array_equal(plain.labels, zipped.labels)

    def test_pair_with_no_images_is_rejected(self, tmp_path, capsys):
        empty_images = struct.pack(">IIII", 0x803, 0, 28, 28)
        empty_labels = struct.pack(">II", 0x801, 0)
        images, labels = write_fixture(tmp_path, empty_images, empty_labels)
        with pytest.raises(FormatError, match="holds no images"):
            load_idx(images, labels)
        # Through the CLI: a data error, not a crash in the first epoch.
        for name in MNIST_FILES.values():
            raw = empty_images if "images" in name else empty_labels
            (tmp_path / name).write_bytes(gzip.compress(raw))
        config = tmp_path / "mnist.ini"
        config.write_text((REPO / "configs" / "mnist.ini").read_text().replace(
            "[run]\n", f"[run]\ndata_dir = {tmp_path}\n"))
        code = main(["pretrain", "--config", str(config), "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "holds no images" in capsys.readouterr().err

    def test_mnist_paths_honor_the_environment(self, monkeypatch):
        monkeypatch.setenv("IDKM_DATA_DIR", "/nonexistent/mnist")
        paths = mnist_paths()
        assert all(str(p).startswith("/nonexistent/mnist") for p in paths.values())
        assert not mnist_available()

    @pytest.mark.mnist
    @pytest.mark.skipif(not mnist_available(), reason="MNIST files not present")
    def test_official_test_split_label_histogram(self):
        ds = load_mnist(split="test")
        assert len(ds) == 10000
        assert int((ds.labels == 0).sum()) == 980


class TestDataset:
    def test_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(inputs=np.zeros((3, 2)), labels=np.zeros(2, dtype=int))

    def test_float_labels_rejected(self):
        with pytest.raises(FormatError):
            Dataset(inputs=np.zeros((2, 2)), labels=np.zeros(2))

    def test_negative_labels_rejected(self):
        with pytest.raises(FormatError):
            Dataset(inputs=np.zeros((2, 2)), labels=np.array([-1, 0]))

    def test_no_rows_rejected(self):
        with pytest.raises(FormatError, match="no rows"):
            Dataset(inputs=np.zeros((0, 8)), labels=np.zeros(0, dtype=np.int64))

    def test_batches_cover_everything_once(self):
        ds = Dataset(inputs=np.arange(10.0)[:, None],
                     labels=np.arange(10) % 3)
        seen = np.concatenate([bx.ravel() for bx, _ in ds.batches(3)])
        np.testing.assert_array_equal(np.sort(seen), np.arange(10.0))
        with pytest.raises(ParamError):
            next(ds.batches(0))

    def test_shuffled_batches_are_seeded(self):
        ds = Dataset(inputs=np.arange(8.0)[:, None], labels=np.zeros(8, int))
        a = [bx.ravel().tolist() for bx, _ in
             ds.batches(4, rng=np.random.default_rng(1))]
        b = [bx.ravel().tolist() for bx, _ in
             ds.batches(4, rng=np.random.default_rng(1))]
        assert a == b


def lstsq_probe(train, test):
    """Least-squares linear probe accuracy, the classifier-free oracle."""
    x = np.hstack([train.inputs, np.ones((len(train), 1))])
    targets = np.eye(train.labels.max() + 1)[train.labels]
    coef, *_ = np.linalg.lstsq(x, targets, rcond=None)
    xt = np.hstack([test.inputs, np.ones((len(test), 1))])
    return float(((xt @ coef).argmax(axis=1) == test.labels).mean())


class TestBlobs:
    def test_seed_fixes_the_dataset(self):
        a = synthetic_blobs(3, classes=4, points_per_class=10, dim=6,
                            separation=5.0)
        b = synthetic_blobs(3, classes=4, points_per_class=10, dim=6,
                            separation=5.0)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_separation_collapses_the_classes(self):
        ds = synthetic_blobs(0, classes=3, points_per_class=50, dim=4,
                             separation=0.0)
        means = np.stack([ds.inputs[ds.labels == c].mean(axis=0)
                          for c in range(3)])
        assert np.all(np.abs(means) < 0.6)

    def test_separated_blobs_pass_a_linear_probe(self):
        ds = synthetic_blobs(1, classes=4, points_per_class=100, dim=8,
                             separation=6.0)
        assert lstsq_probe(ds, ds) >= 0.99

    def test_two_seeds_share_one_task(self):
        # Centers depend only on the geometry, so a probe fit on one seed
        # transfers to another; that is what makes train/eval splits honest.
        train = synthetic_blobs(0, classes=4, points_per_class=100, dim=8,
                                separation=6.0)
        test = synthetic_blobs(1, classes=4, points_per_class=50, dim=8,
                               separation=6.0)
        assert lstsq_probe(train, test) >= 0.95

    def test_parameter_validation(self):
        with pytest.raises(ParamError):
            synthetic_blobs(0, classes=0, points_per_class=1, dim=1,
                            separation=1.0)
        with pytest.raises(ParamError):
            synthetic_blobs(0, classes=1, points_per_class=1, dim=1,
                            separation=-1.0)

    def test_as_images_reshapes_and_checks(self):
        ds = synthetic_blobs(0, classes=2, points_per_class=3, dim=12,
                             separation=2.0)
        imgs = as_images(ds, 3, 2, 2)
        assert imgs.inputs.shape == (6, 3, 2, 2)
        with pytest.raises(ShapeError):
            as_images(ds, 1, 5, 5)


def small_net():
    return Network(layers=(
        LayerSpec(kind="dense", in_features=3, out_features=4, quantize=True),
        LayerSpec(kind="relu"),
        LayerSpec(kind="dense", in_features=4, out_features=2),
    ))


def _edit(change, save=np.savez):
    """A tampering that re-saves the checkpoint's archive after
    change(members), members keyed by name with the manifest as a string."""
    def tamper(path):
        with np.load(path, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        change(members)
        with open(path, "wb") as fh:
            save(fh, **members)
    return tamper


def _edit_manifest(change):
    """A tampering that rewrites the manifest's JSON through change(dict)."""
    def edit(members):
        manifest = json.loads(members["manifest"].item())
        change(manifest)
        members["manifest"] = np.array(json.dumps(manifest))
    return _edit(edit)


def _write(blob):
    return lambda path: path.write_bytes(blob)


def _flip_payload_byte(path):
    blob = bytearray(path.read_bytes())
    tensor = load_checkpoint(path).weights["layer0.w"].astype("<f4").tobytes()
    blob[blob.index(tensor)] ^= 0x01
    path.write_bytes(bytes(blob))


def _overstate_member_size(path):
    # The first central-directory record's uncompressed size, at byte 24.
    blob = bytearray(path.read_bytes())
    at = blob.index(b"PK\x01\x02") + 24
    blob[at : at + 4] = struct.pack("<I", 2**31)
    path.write_bytes(bytes(blob))


def _append_short_member(path):
    buf = io.BytesIO()
    np.save(buf, np.zeros(100, dtype="<f4"))
    with zipfile.ZipFile(path, "a") as archive:
        archive.writestr("tensor/layer9.w.npy", buf.getvalue()[:-40])


def _set_architecture(entries):
    return _edit_manifest(lambda m: m.update(architecture=entries))


class TestCheckpoint:
    def test_round_trip_is_bit_identical(self, tmp_path):
        net = small_net()
        weights = net.init_weights(5)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, net, weights, config={"note": "x"})
        ckpt = load_checkpoint(first)
        save_checkpoint(second, net, ckpt.weights, config={"note": "x"})
        assert first.read_bytes() == second.read_bytes()
        for name, tensor in weights.items():
            np.testing.assert_array_equal(
                ckpt.weights[name], tensor.astype("<f4").astype(np.float64)
            )

    def test_network_reconstructs_from_the_manifest(self, tmp_path):
        net = small_net()
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, net, net.init_weights(0))
        rebuilt = Network(layers=load_checkpoint(path).layers)
        assert rebuilt.layers == net.layers
        assert rebuilt.quantized_keys() == ("layer0.w",)

    def test_codebooks_carry_bits_per_weight(self, tmp_path):
        net = small_net()
        path = tmp_path / "d.ckpt"
        books = {"layer0.w": Codebook(np.arange(4.0).reshape(4, 1))}
        save_checkpoint(path, net, net.init_weights(0), codebooks=books)
        ckpt = load_checkpoint(path)
        assert ckpt.bits_per_weight() == {"layer0.w": 2.0}
        np.testing.assert_array_equal(
            ckpt.codebooks["layer0.w"].data, books["layer0.w"].data
        )

        # Bits come from the stored shape alone; no derived field is written.
        assert sorted(ckpt.manifest) == ["architecture", "config", "format_version"]

    def test_archive_is_written_at_the_given_path(self, tmp_path):
        net = small_net()
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, net, net.init_weights(0))
        assert [p.name for p in tmp_path.iterdir()] == ["e.ckpt"]
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
            assert archive.namelist() == [
                "manifest.npy", "tensor/layer0.b.npy", "tensor/layer0.w.npy",
                "tensor/layer2.b.npy", "tensor/layer2.w.npy",
            ]

    @pytest.mark.parametrize("section", ["tensors", "codebooks"])
    def test_non_finite_values_are_a_format_error(self, tmp_path, section):
        net = small_net()
        path = tmp_path / "n.ckpt"
        books = {"layer0.w": Codebook(np.arange(4.0).reshape(4, 1))}
        save_checkpoint(path, net, net.init_weights(0), codebooks=books)
        member = {"tensors": "tensor/layer0.w", "codebooks": "codebook/layer0.w"}

        def poison(members):
            members[member[section]].flat[0] = np.nan

        _edit(poison)(path)
        with pytest.raises(FormatError, match="'layer0.w' holds non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop, add", [
        ("layer2.b", {}),
        (None, {"layer1.w": np.zeros((2, 2))}),
        ("layer0.w", {"layer0.w": np.zeros((3, 4))}),
    ], ids=["missing", "extra", "wrong-shape"])
    def test_tensors_must_be_the_stored_architectures(self, tmp_path, drop, add):
        net = small_net()
        weights = {k: v for k, v in net.init_weights(0).items() if k != drop}
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, net, {**weights, **add})
        with pytest.raises(FormatError, match="stored architecture"):
            load_checkpoint(path)

    @pytest.mark.parametrize("book", [np.arange(4.0), np.zeros((0, 1)),
                                      np.zeros((4, 0))],
                             ids=["one-dimensional", "no-codewords", "zero-width"])
    def test_malformed_codebook_is_a_data_error(self, tmp_path, capsys, book):
        net = small_net()
        path = tmp_path / "b.ckpt"
        save_checkpoint(path, net, net.init_weights(0))
        _edit(lambda m: m.update({"codebook/layer0.w": book.astype("<f4")}))(path)
        with pytest.raises(FormatError, match="'codebook/layer0.w' has shape"):
            load_checkpoint(path)
        config = str(REPO / "configs" / "blobs.ini")
        code = main(["eval", "--config", config, "--checkpoint", str(path)])
        assert code == EXIT_DATA
        assert "'codebook/layer0.w' has shape" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["layer2.w", "layer0.b", "layer9.w"],
                             ids=["unmarked", "bias", "absent"])
    def test_codebook_must_name_a_quantized_tensor(self, tmp_path, capsys, name):
        # small_net marks only layer0.w; layer2.w is a dense weight it does
        # not mark, layer0.b a bias, and layer9.w no tensor at all.
        net = small_net()
        path = tmp_path / "q.ckpt"
        books = {"layer0.w": Codebook(np.arange(4.0).reshape(4, 1)),
                 name: Codebook(np.arange(2.0).reshape(2, 1))}
        save_checkpoint(path, net, net.init_weights(0), codebooks=books)
        with pytest.raises(FormatError, match=re.escape(f"codebooks ['{name}'] name no")):
            load_checkpoint(path)
        config = str(REPO / "configs" / "blobs.ini")
        for mode in ("float", "hard"):
            code = main(["eval", "--config", config, "--checkpoint", str(path),
                         "--mode", mode])
            assert code == EXIT_DATA
            assert "name no quantized tensor" in capsys.readouterr().err

    @pytest.mark.parametrize("tamper, error", [
        (_write(b"not a checkpoint"), "no .npz archive"),
        (_write(b"IDKMCKPT" + struct.pack("<Q", 2) + b"{}"),
         "not a version-2 checkpoint"),
        (lambda path: path.write_bytes(path.read_bytes()[:20]), "no .npz archive"),
        (_flip_payload_byte, "Bad CRC-32"),
        (_edit(lambda members: None, save=np.savez_compressed), "compressed"),
        (_overstate_member_size, "larger than the file"),
        (_append_short_member, "EOF: reading array data"),
        (_edit(lambda m: m.pop("manifest")), "KeyError: 'manifest'"),
        (_edit(lambda m: m.update(manifest=np.array("[1, 2]"))),
         "not a JSON object"),
        (_edit(lambda m: m.update(manifest=np.array("{"))), "JSONDecodeError"),
        (_edit_manifest(lambda m: m.update(format_version=1)), "format version"),
        (_edit_manifest(lambda m: m.pop("architecture")),
         "'architecture' is not a list"),
        (_set_architecture([]), "'architecture' is not a list"),
        (_set_architecture([{"kind": "pool", "quantize": False}]),
         "'architecture' is not a list"),
        (_set_architecture([{"kind": "relu", "quantize": False, "in_features": 3}]),
         "'architecture' is not a list"),
        (_edit(lambda m: [m.pop(k) for k in list(m) if k.startswith("tensor/")]),
         "stored architecture"),
        (_edit(lambda m: m.update(extra=np.zeros(2, dtype="<f4"))),
         "unknown member 'extra'"),
        (_edit(lambda m: m.update({"tensor/layer0.w": m["tensor/layer0.w"]
                                   .astype(np.float64)})),
         "'tensor/layer0.w' is float64, not float32"),
    ], ids=["not-an-archive", "version-1", "short-header", "flipped-byte",
            "deflated", "oversized", "short-member", "no-manifest",
            "manifest-not-object", "manifest-not-json", "wrong-version",
            "no-architecture", "empty-architecture", "unknown-layer-kind",
            "stray-layer-field", "no-tensors", "unknown-member", "float64-member"])
    def test_malformed_file_is_a_format_error(self, tmp_path, capsys, tamper, error):
        path = tmp_path / "h.ckpt"
        net = small_net()
        books = {"layer0.w": Codebook(np.arange(4.0).reshape(4, 1))}
        save_checkpoint(path, net, net.init_weights(0), codebooks=books)
        tamper(path)
        with pytest.raises(FormatError, match=re.escape(error)):
            load_checkpoint(path)
        config = str(REPO / "configs" / "blobs.ini")
        code = main(["eval", "--config", config, "--checkpoint", str(path)])
        assert code == EXIT_DATA
        assert "data error:" in capsys.readouterr().err


def test_jsonl_append_and_read(tmp_path):
    path = tmp_path / "report.jsonl"
    append_jsonl(path, {"epoch": 0, "loss": 1.5})
    append_jsonl(path, {"epoch": 1, "loss": 0.5})
    records = read_jsonl(path)
    assert records == [{"epoch": 0, "loss": 1.5}, {"epoch": 1, "loss": 0.5}]
