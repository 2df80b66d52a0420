"""Command-line entry points.

Subcommands: pretrain (float baseline), quantize (cluster-aware training),
eval (checkpoint accuracy), gradcheck (derivative self-verification), bench
(timing/memory grid), fetch-mnist (digest-verified download). pretrain and
quantize write line-delimited JSON reports whose first record echoes the full
configuration; bench --out writes one record per cell. Exit codes: 0 success,
1 check failure, 2 missing or malformed data, 3 config error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
import urllib.error
import urllib.request
from pathlib import Path

from . import bench as bench_mod
from .config import (
    SECTION_TYPES,
    RunConfig,
    build_train_config,
    parse_config,
    pretrain_params,
)
from .data import (
    MNIST_SHA256,
    append_jsonl,
    as_images,
    load_checkpoint,
    load_mnist,
    mnist_available,
    mnist_paths,
    same_architecture,
    save_checkpoint,
    synthetic_blobs,
)
from .errors import ConfigError, FormatError, NumericsError, ParamError, ShapeError
from .gradcheck import run_suite
from .nn import Network
from .pq import bits_per_weight
from .training import TrainConfig, evaluate, train, train_float

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_DATA = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

MNIST_MIRRORS = (
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
)


def _seed_flag(args) -> int | None:
    """The --seed flag, None when unset; a negative seed is a config error."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _config_with_overrides(args) -> RunConfig:
    cfg = parse_config(args.config)
    if _seed_flag(args) is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    return cfg


def _dataset(cfg: RunConfig, split: str):
    """The config's "train" or "eval" split, and only that one."""
    if cfg.dataset == "mnist":
        part = "train" if split == "train" else "test"
        if not mnist_available(cfg.data_dir, part):
            root = mnist_paths(cfg.data_dir)["train_images"].parent
            raise FileNotFoundError(
                f"MNIST files not found under {root}; "
                f"run `idkm fetch-mnist --data-dir {root}` first"
            )
        return load_mnist(cfg.data_dir, part)
    data = cfg.data
    seed, points = cfg.seed, data.get("points_per_class", 200)
    if split == "eval":
        seed, points = seed + 1, max(points // 4, 1)
    dataset = synthetic_blobs(seed, data.get("classes", 4), points,
                              data.get("dim", 8), data.get("separation", 6.0))
    if "image_height" in data:
        dataset = as_images(
            dataset,
            data.get("image_channels", 1),
            data["image_height"],
            data.get("image_width", data["image_height"]),
        )
    return dataset


def _checkpoint(args, cfg: RunConfig, net: Network):
    """The --checkpoint (default <out>/pretrained.ckpt) and its path, loaded;
    refused when its layers are not the config's."""
    ckpt_path = Path(args.checkpoint or Path(cfg.out) / "pretrained.ckpt")
    if not ckpt_path.exists():
        raise FileNotFoundError(
            f"checkpoint {ckpt_path} not found; run `idkm pretrain` first"
        )
    ckpt = load_checkpoint(ckpt_path)
    if not same_architecture(net.layers, ckpt.layers):
        raise ConfigError(
            f"checkpoint architecture does not match config: config layers "
            f"{[s.kind for s in net.layers]}, checkpoint "
            f"{[s.kind for s in ckpt.layers]}"
        )
    return ckpt_path, ckpt


def _fresh_report(out: Path, name: str, echo: dict) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.unlink(missing_ok=True)
    append_jsonl(path, {"type": "config", **echo})
    return path


def cmd_pretrain(args) -> int:
    cfg = _config_with_overrides(args)
    net = Network(layers=cfg.layers)
    train_set, eval_set = _dataset(cfg, "train"), _dataset(cfg, "eval")
    out = Path(cfg.out)
    report = _fresh_report(out, "pretrain.jsonl",
                           {"command": "pretrain", **cfg.echo()})
    params = pretrain_params(cfg, vars(args))
    floor = params.pop("accuracy_floor", 0.0)
    if not math.isfinite(floor):
        raise ConfigError(f"[pretrain] accuracy_floor must be finite, got {floor}")

    def on_epoch(rec):
        append_jsonl(report, {"type": "epoch", **rec})
        print(f"epoch {rec['epoch']:>3}  loss {rec['loss']:.4f}  "
              f"top1 {rec['top1']:.4f}")

    history, weights = train_float(
        net,
        net.init_weights(cfg.seed),
        train_set,
        eval_set,
        on_epoch=on_epoch,
        **params,
    )
    ckpt_path = out / "pretrained.ckpt"
    save_checkpoint(ckpt_path, net, weights, config=cfg.echo())
    final = history[-1]["top1"] if history else evaluate(net, weights, eval_set)
    print(f"saved {ckpt_path}  final top1 {final:.4f}")
    if final < floor:
        print(f"error: accuracy {final:.4f} is below the configured floor "
              f"{floor}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_quantize(args) -> int:
    cfg = _config_with_overrides(args)
    net = Network(layers=cfg.layers)
    tcfg = build_train_config(cfg, vars(args))
    ckpt_path, ckpt = _checkpoint(args, cfg, net)
    train_set, eval_set = _dataset(cfg, "train"), _dataset(cfg, "eval")
    echo = {
        "command": "quantize",
        **cfg.echo(),
        "train": dataclasses.asdict(tcfg),
        "checkpoint": str(ckpt_path),
    }
    report = _fresh_report(Path(cfg.out),
                           f"quantize-{tcfg.backend.kind}.jsonl", echo)

    def on_epoch(rec):
        append_jsonl(report, {"type": "epoch", **rec})
        loss = "  --  " if rec["loss"] is None else f"{rec['loss']:.4f}"
        unconverged = rec["unconverged_solves"]
        print(f"epoch {rec['epoch']:>3}  loss {loss}  "
              f"hard {rec['top1_hard']:.4f}  soft {rec['top1_soft']:.4f}  "
              f"retained {rec['retained_iterates']}"
              + (f"  unconverged {unconverged}" if unconverged else ""))

    try:
        history, state = train(net, ckpt.weights, tcfg, train_set, eval_set,
                               on_epoch=on_epoch)
    except NumericsError as exc:
        append_jsonl(report, {"type": "failure", "error": type(exc).__name__,
                              "message": str(exc)})
        raise
    out_path = Path(cfg.out) / f"quantized-{tcfg.backend.kind}.ckpt"
    save_checkpoint(out_path, net, state.weights, config=echo,
                    codebooks=state.codebooks)
    last = history[-1]
    print(f"saved {out_path}")
    print(f"final top1 hard {last['top1_hard']:.4f}  "
          f"soft {last['top1_soft']:.4f}  "
          f"bits/weight {bits_per_weight(tcfg.k, tcfg.d):g}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _config_with_overrides(args)
    net = Network(layers=cfg.layers)
    _, ckpt = _checkpoint(args, cfg, net)
    eval_set = _dataset(cfg, "eval")
    mode = args.mode or ("hard" if ckpt.codebooks else "float")
    marked = set(net.quantized_keys())
    if mode != "float" and ckpt.codebooks and set(ckpt.codebooks) != marked:
        raise ConfigError(
            f"checkpoint codebooks {sorted(ckpt.codebooks)} do not match the "
            f"layers the config marks for quantization {sorted(marked)}"
        )
    tau = args.tau if args.tau is not None else (
        cfg.quantize.get("tau", TrainConfig.tau)
    )
    acc = evaluate(net, ckpt.weights, eval_set,
                   codebooks=ckpt.codebooks or None, mode=mode, tau=tau)
    print(f"top1 {acc:.4f}  mode {mode}")
    for layer, bits in sorted(ckpt.bits_per_weight().items()):
        print(f"{layer}: {bits:g} bits/weight")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.instances < 1:
        raise ConfigError(f"--instances must be >= 1, got {args.instances}")
    report = run_suite(
        instances=args.instances,
        base_seed=_seed_flag(args) or 0,
        with_fd=not args.skip_fd,
    )
    for line in report.lines():
        print(line)
    print("gradcheck PASSED" if report.passed else "gradcheck FAILED")
    return EXIT_OK if report.passed else EXIT_CHECK


def _grid_list(flag: str, text: str, convert=int) -> list:
    """The non-blank comma-separated entries of `text`; at least one."""
    try:
        values = [convert(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated integers, got {text!r}")
    if not values:
        raise ConfigError(f"{flag}: expected at least one value, got {text!r}")
    return values


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    if args.batch_size < 1:
        raise ConfigError(f"--batch-size must be >= 1, got {args.batch_size}")
    results = bench_mod.run_grid(
        t_values=_grid_list("--t", args.t),
        k_values=_grid_list("--k", args.k),
        d_values=_grid_list("--d", args.d),
        backends=tuple(_grid_list("--backends", args.backends, str.strip)),
        repeats=args.repeats,
        seed=_seed_flag(args) or 0,
        batch_size=args.batch_size,
    )
    print(bench_mod.HEADER)
    for res in results:
        print(res.row())
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "bench.jsonl"
        path.unlink(missing_ok=True)
        for res in results:
            append_jsonl(path, dataclasses.asdict(res))
        print(f"wrote {path}")
    if args.assert_ordering:
        problems = bench_mod.ordering_violations(results)
        if problems:
            for line in problems:
                print(f"ordering violation: {line}", file=sys.stderr)
            return EXIT_CHECK
        print("backward-time ordering holds: jfb < implicit < unrolled")
    return EXIT_OK


def _fetch_one(name: str, dest: Path) -> bool:
    want = MNIST_SHA256[name]
    if dest.exists():
        have = hashlib.sha256(dest.read_bytes()).hexdigest()
        if have == want:
            print(f"{name}: already present, digest ok")
            return True
        print(f"{name}: digest mismatch on existing file, refetching")
    for mirror in MNIST_MIRRORS:
        url = mirror + name
        try:
            with urllib.request.urlopen(url, timeout=120) as resp:
                blob = resp.read()
        except (urllib.error.URLError, OSError) as exc:
            print(f"{url}: {exc}", file=sys.stderr)
            continue
        digest = hashlib.sha256(blob).hexdigest()
        if digest != want:
            print(f"{url}: digest {digest[:12]}… does not match published "
                  f"value, trying next mirror", file=sys.stderr)
            continue
        dest.write_bytes(blob)
        print(f"{name}: fetched {len(blob)} bytes, digest ok")
        return True
    return False


def cmd_fetch_mnist(args) -> int:
    paths = mnist_paths(args.data_dir)
    root = paths["train_images"].parent
    root.mkdir(parents=True, exist_ok=True)
    for dest in paths.values():
        if not _fetch_one(dest.name, dest):
            print(f"error: could not fetch {dest.name} from any mirror",
                  file=sys.stderr)
            return EXIT_DATA
    print(f"MNIST ready under {root}")
    return EXIT_OK


def _add_run_flags(sp):
    sp.add_argument("--config", required=True, help="INI run configuration")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None, help="output directory override")


def _add_key_flags(sp, section: str, keys) -> None:
    """One flag per INI key, typed as the key; an unset flag is None."""
    for key in keys:
        kind = SECTION_TYPES[section][key]
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            sp.add_argument(flag, action="store_const", const=True)
        elif isinstance(kind, tuple):
            sp.add_argument(flag, choices=kind)
        else:
            sp.add_argument(flag, type=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idkm",
        description="Codebook quantization training with implicit gradients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pretrain", help="train the float baseline")
    _add_run_flags(sp)
    # As for quantize: --epochs and --seed override their [pretrain] keys.
    _add_key_flags(sp, "pretrain", ("epochs",))
    sp.set_defaults(func=cmd_pretrain)

    sp = sub.add_parser("quantize", help="quantization-aware training")
    _add_run_flags(sp)
    # Each flag overrides its [quantize] key, and so does --seed.
    _add_key_flags(sp, "quantize", ("backend", "k", "d", "tau", "lr", "epochs",
                                    "max_cluster_iters", "eps", "fallback_jfb"))
    sp.add_argument("--checkpoint", default=None,
                    help="pretrained checkpoint (default: <out>/pretrained.ckpt)")
    sp.set_defaults(func=cmd_quantize)

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_run_flags(sp)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--mode", choices=("hard", "soft", "float"), default=None)
    _add_key_flags(sp, "quantize", ("tau",))
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("gradcheck", help="verify the gradient backends")
    sp.add_argument("--instances", type=int, default=20)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--skip-fd", action="store_true",
                    help="skip the slower finite-difference comparisons")
    sp.set_defaults(func=cmd_gradcheck)

    sp = sub.add_parser("bench", help="time the backends over a grid")
    sp.add_argument("--t", default="30", help="comma list of iteration counts")
    sp.add_argument("--k", default="4", help="comma list of codebook sizes")
    sp.add_argument("--d", default="1", help="comma list of sub-vector dims")
    sp.add_argument("--backends", default="jfb,implicit,unrolled")
    sp.add_argument("--repeats", type=int, default=5)
    sp.add_argument("--batch-size", dest="batch_size", type=int, default=16)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--assert-ordering", action="store_true")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("fetch-mnist", help="download MNIST with digest checks")
    sp.add_argument("--data-dir", default=None)
    sp.set_defaults(func=cmd_fetch_mnist)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParamError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, FormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
