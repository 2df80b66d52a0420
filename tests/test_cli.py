"""Config parsing and the command-line entry point, end to end on blobs."""

import dataclasses
import json
import re
import urllib.error

import numpy as np
import pytest

import idkm.bench as bench_mod
import idkm.cli as cli
import idkm.gradcheck as gradcheck
import idkm.pq as pq
import idkm.training as training
from idkm.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    build_parser,
    main,
)
from idkm.config import ConfigError, build_train_config, parse_config
from idkm.data import load_checkpoint, mnist_paths, read_jsonl, save_checkpoint
from idkm.errors import AdjointDivergence, AdjointSingular
from idkm.gradients import GradBackend
from idkm.solver import InitStrategy
from idkm.training import TrainConfig

TINY_INI = """\
[run]
dataset = blobs
out = {out}
seed = 0

[data]
classes = 3
points_per_class = 40
dim = 6
separation = 6.0

[model]
loss = cross_entropy

[layer.0]
kind = dense
in_features = 6
out_features = 10
quantize = true

[layer.1]
kind = relu

[layer.2]
kind = dense
in_features = 10
out_features = 3
quantize = true

[pretrain]
lr = 0.1
epochs = 8
batch_size = 32
accuracy_floor = {floor}

[quantize]
k = 4
d = 1
tau = 0.001
lr = 0.01
epochs = 2
batch_size = 32
max_cluster_iters = 60
eps = 1e-7
backend = implicit
"""

# Image-shaped blobs through a strided, padded conv layer: the layer kind
# and [data] keys the paper's MNIST net runs on.
CONV_INI = """\
[run]
dataset = blobs
out = {out}
seed = 0

[data]
classes = 3
points_per_class = 40
dim = 36
separation = 6.0
image_channels = 1
image_height = 6
image_width = 6

[layer.0]
kind = conv2d
in_channels = 1
out_channels = 3
kernel = 3
stride = 2
padding = same
quantize = true

[layer.1]
kind = relu

[layer.2]
kind = flatten

[layer.3]
kind = dense
in_features = 27
out_features = 3
quantize = true

[pretrain]
lr = 0.1
epochs = 8
batch_size = 32
accuracy_floor = 0.9

[quantize]
k = 4
d = 1
tau = 0.001
lr = 0.01
epochs = 1
batch_size = 32
max_cluster_iters = 60
eps = 1e-7
"""

# Each `quantize` flag, and the TrainConfig fields it sets.
FLAG_OVERRIDES = [
    (["--backend", "jfb"], {"backend": GradBackend(kind="jfb")}),
    (["--k", "8"], {"k": 8}),
    (["--d", "2"], {"d": 2}),
    (["--tau", "0.002"], {"tau": 0.002}),
    (["--lr", "0.5"], {"learning_rate": 0.5}),
    (["--epochs", "5"], {"epochs": 5}),
    (["--max-cluster-iters", "7"], {"max_cluster_iters": 7}),
    (["--eps", "1e-5"], {"eps": 1e-5}),
    (["--fallback-jfb"], {"fallback_jfb": True}),
    (["--seed", "9"], {"seed": 9, "init": InitStrategy(seed=9)}),
]


@pytest.fixture
def tiny_config(tmp_path):
    def write(floor=0.9, **edits):
        text = TINY_INI.format(out=tmp_path / "run", floor=floor)
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "tiny.ini"
        path.write_text(text)
        return path
    return write


class TestParseConfig:
    def test_shipped_blobs_config(self):
        cfg = parse_config("configs/blobs.ini")
        assert cfg.dataset == "blobs"
        assert cfg.seed == 0
        assert cfg.loss == "cross_entropy"
        net = cfg.network()
        assert net.quantized_keys() == ("layer0.w", "layer2.w")
        assert cfg.quantize["backend"] == "implicit"
        assert cfg.quantize["tau"] == 5e-4

    def test_unknown_section_is_named(self, tiny_config):
        path = tiny_config()
        path.write_text(path.read_text() + "\n[optimizer]\nmomentum = 0.9\n")
        with pytest.raises(ConfigError, match=r"unknown section \[optimizer\]"):
            parse_config(path)

    @pytest.mark.parametrize(
        "old, new, name",
        [
            ("separation", "spread", "spread"),
            # Removed [quantize] keys: GradBackend's adjoint controls.
            ("backend = implicit", "backend = implicit\nalpha0 = 0.25", "alpha0"),
            ("backend = implicit", "backend = implicit\nmax_adjoint_iters = 500",
             "max_adjoint_iters"),
        ],
        ids=["spread", "alpha0", "max_adjoint_iters"],
    )
    def test_unknown_key_is_named(self, tiny_config, old, new, name):
        path = tiny_config()
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ConfigError, match=f"'{name}'"):
            parse_config(path)

    def test_warm_start_init_is_rejected_by_name(self, tiny_config, capsys):
        # Warm starts are what a training run does after its first step, and
        # k-means++ is the only cold start, so [quantize] takes no init key.
        path = tiny_config()
        path.write_text(path.read_text().replace(
            "backend = implicit", "backend = implicit\ninit = warm_start"))
        with pytest.raises(ConfigError, match="unknown key 'init'"):
            parse_config(path)
        assert main(["quantize", "--config", str(path)]) == EXIT_CONFIG
        assert "unknown key 'init'" in capsys.readouterr().err

    def test_layer_sections_must_be_contiguous(self, tiny_config):
        path = tiny_config()
        path.write_text(path.read_text().replace("[layer.2]", "[layer.5]"))
        with pytest.raises(ConfigError, match="layer"):
            parse_config(path)

    def test_override_precedence(self, tiny_config):
        cfg = parse_config(tiny_config())
        base = build_train_config(cfg, {})
        assert base.k == 4 and base.epochs == 2
        assert base.backend.kind == "implicit"
        over = build_train_config(
            cfg, {"k": 8, "epochs": None, "backend": "jfb"}
        )
        assert over.k == 8
        assert over.epochs == 2          # None-valued flags never override
        assert over.backend.kind == "jfb"

    @pytest.mark.parametrize(
        "argv, changed", FLAG_OVERRIDES, ids=[a[0][2:] for a, _ in FLAG_OVERRIDES]
    )
    def test_override_precedence_per_flag(self, tiny_config, argv, changed):
        # The file sets every key a flag overrides.
        path = tiny_config()
        path.write_text(path.read_text() + "fallback_jfb = false\nseed = 3\n")
        cfg = parse_config(path)
        command = ["quantize", "--config", str(path)]

        def built(args):
            namespace = build_parser().parse_args(command + args)
            return build_train_config(cfg, vars(namespace))

        base = built([])
        assert base == build_train_config(cfg)
        assert all(getattr(base, name) != value for name, value in changed.items())
        assert built(argv) == dataclasses.replace(base, **changed)

    def test_empty_quantize_section_keeps_the_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[run]\nseed = 7\n\n[quantize]\n")
        assert build_train_config(parse_config(path)) == dataclasses.replace(
            TrainConfig(), seed=7, init=InitStrategy(seed=7)
        )

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("quantize", "tau", "nan"),
            ("quantize", "tau", "inf"),
            ("quantize", "lr", "nan"),
            ("quantize", "lr", "inf"),
            ("quantize", "eps", "nan"),
            ("quantize", "eps", "inf"),
            ("pretrain", "lr", "nan"),
            ("pretrain", "accuracy_floor", "nan"),
        ],
    )
    def test_non_finite_setting_exits_three(
        self, tiny_config, capsys, section, key, value
    ):
        path = tiny_config()
        head, body = path.read_text().split(f"[{section}]")
        line = re.compile(rf"^{key} = .*$", re.MULTILINE)
        assert line.search(body)
        path.write_text(f"{head}[{section}]" + line.sub(f"{key} = {value}", body, 1))
        assert main([section, "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        if section == "quantize":
            code = main(["quantize", "--config", str(tiny_config()),
                         f"--{key}", value])
            assert code == EXIT_CONFIG

    @pytest.mark.parametrize("section", ["run", "pretrain", "quantize"])
    def test_negative_seed_key_exits_three(self, tiny_config, capsys, section):
        path = tiny_config()
        text = path.read_text().replace("seed = 0\n", "")
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\nseed = -1\n"))
        with pytest.raises(ConfigError, match=rf"\[{section}\] seed must be >= 0"):
            parse_config(path)
        assert main(["pretrain", "--config", str(path)]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "quantize", "eval"])
    def test_negative_seed_flag_exits_three(self, tiny_config, capsys, command):
        argv = [command, "--config", str(tiny_config()), "--seed", "-1"]
        assert main(argv) == EXIT_CONFIG
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err


class TestPipeline:
    def test_pretrain_quantize_eval_roundtrip(self, tiny_config, tmp_path, capsys):
        cfg_path = str(tiny_config())
        out = tmp_path / "run"

        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK
        assert (out / "pretrained.ckpt").exists()
        report = read_jsonl(out / "pretrain.jsonl")
        assert report[0]["type"] == "config"
        assert report[-1]["top1"] >= 0.9

        assert main(["quantize", "--config", cfg_path]) == EXIT_OK
        ckpt = load_checkpoint(out / "quantized-implicit.ckpt")
        assert set(ckpt.codebooks) == {"layer0.w", "layer2.w"}
        assert ckpt.bits_per_weight() == {"layer0.w": 2.0, "layer2.w": 2.0}
        report = read_jsonl(out / "quantize-implicit.jsonl")
        assert report[0]["type"] == "config"
        epochs = [r for r in report if r["type"] == "epoch"]
        assert [r["epoch"] for r in epochs] == [0, 1, 2]
        assert all(r["backend"] == "implicit" for r in epochs)
        assert all(r["retained_iterates"] == 1 for r in epochs[1:])

        capsys.readouterr()
        code = main(["eval", "--config", cfg_path, "--checkpoint",
                     str(out / "quantized-implicit.ckpt")])
        assert code == EXIT_OK
        shown = capsys.readouterr().out
        assert "mode hard" in shown
        assert "2 bits/weight" in shown

    @pytest.mark.parametrize("dataset", ["blobs", "mnist"])
    def test_eval_builds_only_its_eval_split(self, tiny_config, monkeypatch, dataset):
        # eval reads the eval split alone; building the training split too
        # cost blob eval most of its time, and decoded MNIST's 60,000
        # training images for nothing.
        cfg_path = str(tiny_config())
        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK
        eval_set = cli.synthetic_blobs(1, 3, 10, 6, 6.0)
        built = []
        if dataset == "mnist":
            cfg_path = str(tiny_config(**{"dataset = blobs": "dataset = mnist"}))
            monkeypatch.setattr(cli, "mnist_available", lambda data_dir, split: True)
            monkeypatch.setattr(cli, "load_mnist", lambda data_dir, split: (
                built.append(split) or eval_set))
        else:
            real = cli.synthetic_blobs
            monkeypatch.setattr(cli, "synthetic_blobs", lambda seed, *rest: (
                built.append(seed) or real(seed, *rest)))
        assert main(["eval", "--config", cfg_path]) == EXIT_OK
        assert built == (["test"] if dataset == "mnist" else [1])

    def test_conv_pipeline_roundtrips_the_layer_specs(self, tmp_path, capsys):
        cfg_path = tmp_path / "conv.ini"
        cfg_path.write_text(CONV_INI.format(out=tmp_path / "run"))
        out = tmp_path / "run"
        layers = parse_config(cfg_path).network().layers
        assert layers[0].padding == "same" and layers[0].stride == 2

        assert main(["pretrain", "--config", str(cfg_path)]) == EXIT_OK
        assert load_checkpoint(out / "pretrained.ckpt").layers == layers
        assert main(["quantize", "--config", str(cfg_path)]) == EXIT_OK
        ckpt = load_checkpoint(out / "quantized-implicit.ckpt")
        assert ckpt.layers == layers
        assert ckpt.weights["layer0.w"].shape == (3, 1, 3, 3)
        assert ckpt.bits_per_weight() == {"layer0.w": 2.0, "layer3.w": 2.0}

        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path), "--checkpoint",
                     str(out / "quantized-implicit.ckpt")]) == EXIT_OK
        assert "mode hard" in capsys.readouterr().out

    def test_failed_adjoint_without_fallback_exits_four(
        self, tiny_config, tmp_path, capsys, monkeypatch
    ):
        cfg_path = str(tiny_config())
        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK

        def refused(j_c):
            raise AdjointSingular("adjoint: planted refusal")

        monkeypatch.setattr(training, "adjoint_inverse", refused)
        capsys.readouterr()
        assert main(["quantize", "--config", cfg_path]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "planted refusal" in err
        assert not (tmp_path / "run" / "quantized-implicit.ckpt").exists()
        last = read_jsonl(tmp_path / "run" / "quantize-implicit.jsonl")[-1]
        assert last["type"] == "failure" and last["error"] == "AdjointSingular"
        assert "layer0.w" in last["message"] and "planted refusal" in last["message"]

    def test_singular_adjoint_falls_back_or_exits_four(
        self, tiny_config, tmp_path, capsys, monkeypatch
    ):
        # dF/dC* = I on layer2.w (30 weights at d = 1): I - dF/dC* is 0.
        cfg_path = str(tiny_config())
        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK
        real = pq.SoftAssignment.j_c.func

        def planted(asg):
            j_c = real(asg)
            return np.eye(len(j_c)) if asg.w.shape[1] == 30 else j_c

        monkeypatch.setattr(pq.SoftAssignment, "j_c", property(planted))
        report = tmp_path / "run" / "quantize-implicit.jsonl"
        assert main(["quantize", "--config", cfg_path, "--fallback-jfb"]) == EXIT_OK
        epochs = [r for r in read_jsonl(report) if r["type"] == "epoch"]
        assert [r["fallbacks"] for r in epochs[1:]] == [
            r["step"] - prev["step"] for prev, r in zip(epochs, epochs[1:])
        ]
        capsys.readouterr()
        assert main(["quantize", "--config", cfg_path]) == EXIT_NUMERIC
        assert "layer2.w: adjoint: I - dF/dC* is singular" in capsys.readouterr().err
        last = read_jsonl(report)[-1]
        assert last["type"] == "failure" and last["error"] == "AdjointSingular"

    def test_epoch_line_names_the_unconverged_solves(
        self, tiny_config, tmp_path, capsys
    ):
        # One update per solve leaves solves uncertified; the default cap
        # certifies every solve on this config, and then the line says nothing.
        cfg_path = str(tiny_config())
        report = tmp_path / "run" / "quantize-implicit.jsonl"
        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK
        for flags in (["--max-cluster-iters", "1"], []):
            capsys.readouterr()
            assert main(["quantize", "--config", cfg_path, *flags]) == EXIT_OK
            shown = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("epoch")]
            counts = [r["unconverged_solves"] for r in read_jsonl(report)
                      if r["type"] == "epoch"]
            assert len(shown) == len(counts) == 3
            assert any(counts) == bool(flags)
            for line, count in zip(shown, counts):
                tail = line.split("  retained ")[1]
                assert tail.endswith(f"  unconverged {count}") if count else (
                    tail.isdigit())

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_separation_exits_three(self, tiny_config, capsys, value):
        # A bad setting exits 3, before it can make non-finite data (exit 2).
        cfg_path = str(tiny_config(**{"separation = 6.0": f"separation = {value}"}))
        assert main(["pretrain", "--config", cfg_path]) == EXIT_CONFIG
        assert "separation must be finite and >= 0" in capsys.readouterr().err

    def test_soft_eval_with_non_finite_tau_exits_three(
        self, tiny_config, tmp_path, capsys
    ):
        cfg_path = str(tiny_config())
        ckpt = str(tmp_path / "run" / "quantized-implicit.ckpt")
        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK
        assert main(["quantize", "--config", cfg_path, "--epochs", "0"]) == EXIT_OK
        capsys.readouterr()
        for tau in ("nan", "inf"):
            code = main(["eval", "--config", cfg_path, "--checkpoint", ckpt,
                         "--mode", "soft", "--tau", tau])
            assert code == EXIT_CONFIG
            assert "tau must be positive and finite" in capsys.readouterr().err

    def test_quantize_backend_override_names_the_outputs(
        self, tiny_config, tmp_path
    ):
        cfg_path = str(tiny_config())
        out = tmp_path / "run"
        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK
        assert main(["quantize", "--config", cfg_path, "--backend", "jfb",
                     "--epochs", "1"]) == EXIT_OK
        assert (out / "quantized-jfb.ckpt").exists()
        report = read_jsonl(out / "quantize-jfb.jsonl")
        assert report[0]["train"]["epochs"] == 1

    def test_pretrain_floor_failure_is_a_check_error(self, tiny_config, capsys):
        cfg_path = str(tiny_config(floor=1.01))
        assert main(["pretrain", "--config", cfg_path]) == EXIT_CHECK
        assert "below the configured floor" in capsys.readouterr().err

    def test_readout_narrower_than_the_classes_exits_three(
        self, tiny_config, capsys
    ):
        # Three classes, two logits: label 2 indexes no logit.
        cfg_path = str(tiny_config(**{"in_features = 10\nout_features = 3":
                                      "in_features = 10\nout_features = 2"}))
        assert main(["pretrain", "--config", cfg_path]) == EXIT_CONFIG
        assert "outside 0..1 for 2 logits" in capsys.readouterr().err

    def test_bad_config_exits_three(self, tiny_config, capsys):
        path = tiny_config()
        path.write_text(path.read_text().replace("cross_entropy", "hinge"))
        assert main(["pretrain", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_checkpoint_exits_two(self, tiny_config, capsys):
        cfg_path = str(tiny_config())
        assert main(["quantize", "--config", cfg_path]) == EXIT_DATA
        assert "pretrain" in capsys.readouterr().err

    def test_architecture_mismatch_is_a_config_error(
        self, tiny_config, tmp_path
    ):
        cfg_path = str(tiny_config())
        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK
        widened = tiny_config(out_features="out_features")  # rewrite, then edit
        widened.write_text(
            widened.read_text().replace("out_features = 10", "out_features = 11")
        )
        assert main(["quantize", "--config", str(widened)]) == EXIT_CONFIG

    def test_layer_kind_mismatch_is_a_config_error(self, tiny_config, capsys):
        # relu and flatten hold no tensors, so only the stored layer list
        # tells these two configs apart.
        cfg_path = str(tiny_config())
        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK
        capsys.readouterr()
        flatten = tiny_config(**{"kind = relu": "kind = flatten"})
        assert main(["eval", "--config", str(flatten)]) == EXIT_CONFIG
        assert "['dense', 'relu', 'dense']" in capsys.readouterr().err
        # Which layers are marked for quantization is not architecture.
        unmarked = tiny_config(**{"out_features = 3\nquantize = true":
                                  "out_features = 3\nquantize = false"})
        assert main(["eval", "--config", str(unmarked)]) == EXIT_OK

    @pytest.mark.parametrize("command", ["eval", "quantize"])
    def test_non_finite_checkpoint_is_a_data_error(
        self, tiny_config, tmp_path, capsys, command
    ):
        cfg_path = str(tiny_config())
        net = parse_config(cfg_path).network()
        weights = net.init_weights(0)
        weights["layer0.w"][0, 0] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, net, weights)
        code = main([command, "--config", cfg_path, "--checkpoint", str(ckpt)])
        assert code == EXIT_DATA
        assert "'layer0.w' holds non-finite values" in capsys.readouterr().err

    def test_eval_codebooks_must_be_the_marked_layers(
        self, tiny_config, tmp_path, capsys
    ):
        cfg_path = str(tiny_config())
        ckpt = str(tmp_path / "run" / "quantized-implicit.ckpt")
        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK
        assert main(["quantize", "--config", cfg_path, "--epochs", "0"]) == EXIT_OK
        unmarked = str(tiny_config(**{"out_features = 3\nquantize = true":
                                      "out_features = 3\nquantize = false"}))
        capsys.readouterr()
        for mode in ([], ["--mode", "hard"], ["--mode", "soft"]):
            code = main(["eval", "--config", unmarked, "--checkpoint", ckpt, *mode])
            assert code == EXIT_CONFIG
            assert "['layer0.w', 'layer2.w']" in capsys.readouterr().err
        code = main(["eval", "--config", unmarked, "--checkpoint", ckpt,
                     "--mode", "float"])
        assert code == EXIT_OK
        assert "mode float" in capsys.readouterr().out


class TestGradcheckCommand:
    def test_small_suite_passes(self, capsys):
        assert main(["gradcheck", "--instances", "2", "--skip-fd"]) == EXIT_OK
        assert "gradcheck PASSED" in capsys.readouterr().out

    def test_identity_adjoint_injection_is_caught(self, capsys, monkeypatch):
        # An adjoint inverse that is the identity runs jfb in implicit's
        # place. The averaged-inverse check runs gradcheck's own solve, so
        # only the oracle line may fail.
        monkeypatch.setattr(gradcheck, "adjoint_inverse",
                            lambda j_c: np.eye(len(j_c)))
        code = main(["gradcheck", "--instances", "2", "--skip-fd"])
        assert code == EXIT_CHECK
        out = capsys.readouterr().out
        assert "gradcheck FAILED" in out
        failing = [line.split(":")[0].strip()
                   for line in out.splitlines() if "FAIL (tol" in line]
        assert failing == ["implicit vs unrolled"]

    def test_skipped_checks_are_reported_as_skipped(self, capsys):
        assert main(["gradcheck", "--instances", "1", "--skip-fd"]) == EXIT_OK
        out = capsys.readouterr().out
        assert len(re.findall(r"^.*: skipped$", out, re.MULTILINE)) == 3
        assert "finite diff  : skipped" in out
        assert "0.000e+00" not in out

    def test_averaged_adjoint_divergence_exits_four(self, capsys, monkeypatch):
        def diverged(seed):
            raise AdjointDivergence("adjoint: planted divergence")

        monkeypatch.setattr(gradcheck, "check_neumann", diverged)
        assert main(["gradcheck", "--instances", "1", "--skip-fd"]) == EXIT_NUMERIC
        assert ("numerical failure: adjoint: planted divergence"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["--instances", "0"], ["--instances", "-2"], ["--seed", "-1"],
    ])
    def test_bad_flag_exits_three(self, argv, capsys):
        assert main(["gradcheck", *argv]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{argv[0]} must be >= " in captured.err
        assert "PASSED" not in captured.out


class TestBenchCommand:
    def test_tiny_grid_reports_every_cell(self, tmp_path, capsys):
        code = main(["bench", "--t", "3", "--repeats", "1",
                     "--batch-size", "4", "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_jsonl(tmp_path / "bench.jsonl")
        assert {r["backend"] for r in rows} == {"jfb", "implicit", "unrolled"}
        assert all(r["t"] == 3 for r in rows)
        retained = {r["backend"]: r["retained"] for r in rows}
        assert retained == {"jfb": 1, "implicit": 1, "unrolled": 3}
        shown = capsys.readouterr().out
        assert "backend" in shown and "unrolled" in shown

    def test_backends_of_a_cell_are_timed_in_turn(self, monkeypatch):
        # A warm-up round, then each repeat steps every backend once, so a
        # slow spell of the host cannot fall on one backend's repeats alone.
        order = []
        real = bench_mod.quantized_train_step

        def recording(net, x, y, state, cfg):
            order.append(cfg.backend.kind)
            return real(net, x, y, state, cfg)

        monkeypatch.setattr(bench_mod, "quantized_train_step", recording)
        argv = ["bench", "--t", "2", "--repeats", "2", "--batch-size", "4"]
        assert main(argv) == EXIT_OK
        assert order == ["jfb", "implicit", "unrolled"] * 3

    def test_bad_grid_spec_exits_three(self, capsys):
        assert main(["bench", "--t", "3,x"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--t", ""], ["--k", " , "], ["--d", ","], ["--backends", ""],
        ["--repeats", "0"], ["--repeats", "-1"], ["--seed", "-1"],
        ["--batch-size", "-5"],
    ])
    def test_empty_grid_exits_three(self, argv, capsys):
        assert main(["bench", *argv, "--assert-ordering"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and argv[0] in err

    def test_ordering_needs_all_three_backends(self, capsys):
        code = main(["bench", "--t", "2", "--repeats", "1", "--batch-size", "4",
                     "--backends", "jfb,implicit", "--assert-ordering"])
        assert code == EXIT_CHECK
        captured = capsys.readouterr()
        assert "ordering holds" not in captured.out
        assert "k=4 d=1 t=2: no unrolled timing" in captured.err

    def test_no_cells_is_an_ordering_violation(self):
        assert bench_mod.ordering_violations([]) == ["no cells were timed"]

    def test_a_cell_whose_solves_stop_short_of_t_exits_three(self, capsys):
        # With one codeword every solve is at an exact fixed point after
        # one update, so t = 5 cannot be timed.
        assert main(["bench", "--k", "1", "--t", "5", "--repeats", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: k=1 d=1 t=5 jfb:" in err
        assert "the longest at update 1" in err

    def test_times_the_paper_net_of_the_mnist_config(self):
        # The acceptance criteria time timing_instance's net as the paper's.
        net = bench_mod.timing_instance()[0]
        assert net.layers == parse_config("configs/mnist.ini").layers


class TestFetchMnist:
    def test_unreachable_mirrors_exit_two(self, tmp_path, monkeypatch, capsys):
        def refuse(url, timeout=0):
            raise urllib.error.URLError("no route to host")

        monkeypatch.setattr("urllib.request.urlopen", refuse)
        code = main(["fetch-mnist", "--data-dir", str(tmp_path / "mnist")])
        assert code == EXIT_DATA
        assert "could not fetch" in capsys.readouterr().err

    def test_files_go_where_the_readers_look(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IDKM_DATA_DIR", str(tmp_path / "mnist"))
        fetched = []
        monkeypatch.setattr("idkm.cli._fetch_one",
                            lambda *args: fetched.append(args[-1]) or True)
        assert main(["fetch-mnist"]) == EXIT_OK
        assert fetched == list(mnist_paths().values())
        assert (tmp_path / "mnist").is_dir()
