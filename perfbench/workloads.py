"""The benchmark's workloads, the checks on their outputs, and their metrics.

Training is a closed loop: each step waits for the previous one, so every
workload is one client stepping in sequence. A workload has a set-up, which
runs several times so its time is a median, and an episode: a fixed amount
of work that starts from the set-up's result and is repeated until the run
time is used up. Episodes replay the same batches from the same state, so
every episode must produce the same loss sequence; that is one of the
output checks. Only public functions of idkm are called, and the
per-module numbers come from spans placed around the names idkm looks up.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import idkm  # noqa: E402
import idkm.cli as cli  # noqa: E402
import idkm.config as config  # noqa: E402
import idkm.data as data  # noqa: E402
import idkm.gradients as gradients  # noqa: E402
import idkm.nn as nn  # noqa: E402
import idkm.pq as pq  # noqa: E402
import idkm.solver as solver  # noqa: E402
import idkm.training as training  # noqa: E402
from tracer import Tracer, median, step_totals  # noqa: E402

if not Path(idkm.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"idkm was imported from {idkm.__file__}, not {ROOT / 'src'}")

STEP_SPAN = "training.quantized_train_step"
WORK_DIR = ROOT / ".perfbench"
MIB = 2.0**20
# The tail is the highest percentile with at least this many steps beyond it.
TAIL_STEPS = 10
# Traced runs cycle through these episode kinds; see run().
TRACE_CYCLE = ("off", "spans", "memory")
# Seed of the training set, initial weights and float pretrain; see MlpSpec.
DATA_SEED = 0


@dataclass
class StepRecord:
    ms: float
    samples: int
    loss: float | None = None
    layers: dict = field(default_factory=dict)
    error: str | None = None
    # How many speed probes had run when the step started; see speed_at().
    probe_at: int = 0


@dataclass
class Episode:
    steps: list[StepRecord]
    complete: bool = True
    wall_s: float = 0.0
    top1_hard: float | None = None
    commands: list[int] = field(default_factory=list)
    # "off", "spans" or "memory", and the slice of the tracer's spans it made.
    trace: str = "off"
    spans: tuple[int, int] = (0, 0)
    # The slice of the run's speed probes taken during the episode.
    probes: tuple[int, int] = (0, 0)


# The speed probe: a fixed NumPy kernel that the benchmark times between
# its calls into idkm, never inside a traced span: once before each MLP
# step, PROBE_REPEATS times before each CLI command and each set-up. On a
# shared machine the CPU's speed drifts by a fifth over tens of seconds,
# which moved whole runs of identical work as much. Each reported time is
# scaled by PROBE_REFERENCE_S / (the median of the probes nearest to it;
# see speed_at()). PROBE_REFERENCE_S is about the median probe time on a
# 2-vCPU Xeon VM with Python 3.11, NumPy 2.4 and one BLAS thread. Over
# eight runs of one seed, scaling by the run's median probe cut the spread
# of run_s from 0.10-0.18 to 0.02-0.09 of its median; over four runs of
# one mlp-unrolled seed, scaling each step by its nearest probes instead cut
# the run-to-run spread of a step's time from 0.079 to 0.048 of its mean.
# The probe does not touch idkm, so a change to idkm cannot move it.
PROBE_REFERENCE_S = 3.5e-3
PROBE_REPEATS = 3
# speed_at() takes the median of up to 2 * PROBE_WINDOW + 1 probes: a few
# seconds around an MLP step, the neighbouring commands for a CLI step.
PROBE_WINDOW = 6
_PROBE_W = np.linspace(-1.0, 1.0, 5_000)[:, None]
_PROBE_C = np.array([[-0.5], [0.0], [0.5], [1.0]])


def probe(samples: list[float]) -> None:
    """Time a fixed NumPy kernel, a soft k-means update, into `samples`.

    It measures how fast the machine runs at that moment; see run().
    """
    t0 = time.perf_counter()
    for _ in range(4):
        logits = -np.abs(_PROBE_W - _PROBE_C.T) / 0.05
        att = np.exp(logits - logits.max(axis=1, keepdims=True))
        att /= att.sum(axis=1, keepdims=True)
        (att.T @ _PROBE_W) / att.sum(axis=0)[:, None]
    samples.append(time.perf_counter() - t0)


def speed_at(probes: list[float], at: int) -> float:
    """Scale factor to the reference speed for work done after `at` probes.

    The median of the probes on either side of that point, so a time is
    corrected by how fast the machine ran around it, not over the whole run.
    """
    window = probes[max(at - PROBE_WINDOW - 1, 0):at + PROBE_WINDOW]
    return PROBE_REFERENCE_S / median(window)


@contextlib.contextmanager
def recording_steps(steps: list[StepRecord], probes: list[float]):
    """Time every call of idkm.training.quantized_train_step into `steps`.

    This wrapper is installed in traced and untraced runs alike; it is how
    step latency is taken even when the CLI drives the training loop. Each
    record notes how many of `probes` had run before it.
    """
    original = training.quantized_train_step

    def timed(net, x, y, state, cfg):
        at = len(probes)
        t0 = time.perf_counter()
        try:
            weights, metrics = original(net, x, y, state, cfg)
        except Exception as exc:
            ms = (time.perf_counter() - t0) * 1e3
            steps.append(StepRecord(ms, len(x), error=f"{type(exc).__name__}: {exc}",
                                    probe_at=at))
            raise
        ms = (time.perf_counter() - t0) * 1e3
        steps.append(StepRecord(ms, len(x), metrics.loss, dict(metrics.per_layer),
                                probe_at=at))
        return weights, metrics

    training.quantized_train_step = timed
    try:
        yield
    finally:
        training.quantized_train_step = original


def _solve_info(result) -> dict:
    trace = result.trace or ()
    return {
        "iters": result.iterations,
        "converged": result.converged,
        "trace_bytes": sum(c.data.nbytes for c in trace),
    }


def install_tracer(tracer: Tracer) -> None:
    """Wrap each public function at the name its caller looks it up by."""
    for owner, attr, name in (
        (training, "quantized_train_step", STEP_SPAN),
        (training, "evaluate", "training.evaluate"),
        (cli, "evaluate", "training.evaluate"),
        (cli, "train", "training.train"),
        (cli, "train_float", "training.train_float"),
        (training, "init_codebook", "solver.init_codebook"),
        (pq, "attention", "pq.attention"),
        (solver, "attention", "pq.attention"),
        (gradients, "attention", "pq.attention"),
        (training, "soft_quantize", "pq.soft_quantize"),
        (training, "soft_quantize_vjp", "pq.soft_quantize_vjp"),
        (training, "partition_weights", "pq.partition_weights"),
        (training, "vjp_dC_dW", "gradients.vjp_dC_dW"),
        (training, "vjp_through_trace", "gradients.vjp_through_trace"),
        (gradients, "jacobians_of_F", "gradients.jacobians_of_F"),
        (training, "loss_and_grad", "nn.loss_and_grad"),
        (nn.Network, "forward", "nn.Network.forward"),
        (data, "synthetic_blobs", "data.synthetic_blobs"),
        (cli, "synthetic_blobs", "data.synthetic_blobs"),
        (cli, "save_checkpoint", "data.save_checkpoint"),
        (cli, "load_checkpoint", "data.load_checkpoint"),
        (config, "parse_config", "config.parse_config"),
        (cli, "parse_config", "config.parse_config"),
        (cli, "main", "cli.main"),
    ):
        tracer.wrap(owner, attr, name)
    tracer.wrap(training, "solve_fixed_point", "solver.solve_fixed_point", _solve_info)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class MlpSpec:
    """784 -> 128 -> 10 dense net on synthetic blobs, stepped directly.

    Every step runs quantized_train_step with the paper's settings (k=4,
    d=1, tau=5e-4, eps=1e-6, 30 cluster iterations) and codebooks
    warm-started from the previous step, as train() does.

    The training set, the float pretrain, the first codebook solve and the
    batch order use DATA_SEED, so every run replays one quantization run of
    one pretrained model, as a user re-running a fixed training script on
    one checkpoint does. The workload seed draws the eval split. Drawing
    the training set from the workload seed made the solver's work differ
    by up to a third between seeds; drawing the batch order from it moved
    the tail step of mlp-unrolled from 492 to 648 ms over six seeds, since
    that step is one of the few with the most cluster iterations (see
    README).
    """

    backend: str
    classes: int = 10
    dim: int = 784
    hidden: int = 128
    separation: float = 4.0
    points_per_class: int = 256
    eval_points_per_class: int = 64
    pretrain_lr: float = 0.1
    pretrain_epochs: int = 6
    batch_size: int = 128
    steps: int = 60
    setup_repeats: int = 3
    float_floor: float = 0.6
    top1_floor: float = 0.6

    def make(self, seed: int, work_dir: Path) -> "MlpWorkload":
        return MlpWorkload(self, seed)


class MlpWorkload:
    commands_per_episode = 0

    def __init__(self, spec: MlpSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.backend = spec.backend

    def setup(self) -> str:
        """Data, float pretrain and the first codebook solve."""
        s = self.spec
        self.train_set = data.synthetic_blobs(
            DATA_SEED, s.classes, s.points_per_class, s.dim, s.separation
        )
        self.eval_set = data.synthetic_blobs(
            self.seed + 1, s.classes, s.eval_points_per_class, s.dim, s.separation
        )
        self.net = nn.Network(layers=(
            nn.LayerSpec(kind="dense", in_features=s.dim, out_features=s.hidden,
                         quantize=True),
            nn.LayerSpec(kind="relu"),
            nn.LayerSpec(kind="dense", in_features=s.hidden,
                         out_features=s.classes, quantize=True),
        ))
        history, self.weights = training.train_float(
            self.net, self.net.init_weights(DATA_SEED), self.train_set, self.eval_set,
            learning_rate=s.pretrain_lr, epochs=s.pretrain_epochs,
            batch_size=s.batch_size, seed=DATA_SEED,
        )
        self.float_top1 = history[-1]["top1"]
        self.cfg = training.TrainConfig(
            k=4, d=1, tau=5e-4, eps=1e-6, max_cluster_iters=30,
            backend=gradients.GradBackend(kind=s.backend),
            batch_size=s.batch_size, epochs=1, fallback_jfb=True, seed=DATA_SEED,
            init=solver.InitStrategy(seed=DATA_SEED),
        )
        self.books = training.solve_codebooks(self.net, self.weights, self.cfg)
        return _digest(*(self.books[k].data for k in sorted(self.books)),
                       np.array([self.float_top1]))

    def checks(self) -> list[str]:
        if self.float_top1 < self.spec.float_floor:
            return [f"float top1 {self.float_top1:.4f} is below "
                    f"{self.spec.float_floor}"]
        return []

    def episode(self, steps: list[StepRecord], probes: list[float],
                deadline: float | None) -> Episode:
        """The fixed step loop, then a hard top-1 evaluation.

        The speed probe runs before every step. With a deadline, the loop
        may stop early once it has passed; such an episode is marked
        incomplete and gives steps but no wall time.
        """
        s, cfg = self.spec, self.cfg
        state = training.TrainState(weights=dict(self.weights),
                                    codebooks=dict(self.books))
        rng = np.random.default_rng(cfg.seed)
        first = len(steps)
        t0 = time.perf_counter()
        while len(steps) - first < s.steps:
            for bx, by in self.train_set.batches(cfg.batch_size, rng=rng):
                probe(probes)
                try:
                    state.weights, _ = training.quantized_train_step(
                        self.net, bx, by, state, cfg
                    )
                except Exception:
                    # Recorded as a failed step; training goes on from the
                    # weights the step did not update.
                    traceback.print_exc(file=sys.stderr)
                done = len(steps) - first
                if done == s.steps:
                    break
                if deadline is not None and time.perf_counter() > deadline:
                    return Episode(steps[first:], complete=False)
        top1 = training.evaluate(self.net, state.weights, self.eval_set,
                                 state.codebooks, mode="hard")
        return Episode(steps[first:], wall_s=time.perf_counter() - t0,
                       top1_hard=top1)


@dataclass(frozen=True)
class ConvSpec:
    """The paper's MNIST network, end to end through idkm.cli.main.

    Architecture and [quantize] values come from configs/mnist.ini; the data
    are MNIST-shaped synthetic blob images, because MNIST itself is not in
    the repository. The config's pretrain accuracy floor (0.97) is an MNIST
    figure; the derived config uses `float_floor` instead.

    As in MlpSpec, the data and the float pretrain use DATA_SEED; the
    workload seed becomes the [quantize] seed, which draws the quantization
    run's batch order and k-means++ initialization.

    quantize runs with --fallback-jfb. Without it, the adjoint of layer3.w
    diverges at some seeds and the command aborts; with it, that layer-step
    falls back to JFB and is counted in fallback_share.
    """

    config: str = "configs/mnist.ini"
    classes: int = 10
    points_per_class: int = 128
    separation: float = 12.0
    pretrain_epochs: int | None = None
    quantize_epochs: int = 6
    setup_repeats: int = 9
    float_floor: float = 0.8
    top1_floor: float = 0.75

    def make(self, seed: int, work_dir: Path) -> "ConvWorkload":
        return ConvWorkload(self, seed, work_dir)


_EVAL_LINE = re.compile(r"^top1 ([0-9.]+)  mode hard$", re.MULTILINE)


class ConvWorkload:
    commands_per_episode = 3

    def __init__(self, spec: ConvSpec, seed: int, work_dir: Path):
        self.spec = spec
        self.seed = seed
        self.work_dir = work_dir
        self.ini = work_dir / "conv-pipeline.ini"
        self.episodes = 0

    def setup(self) -> str:
        """Parse the shipped config, derive the blob-image one, make the data."""
        s = self.spec
        cfg = config.parse_config(ROOT / s.config)
        cfg.dataset = "blobs"
        cfg.seed = DATA_SEED
        cfg.quantize = {**cfg.quantize, "seed": self.seed}
        cfg.data = {
            "classes": s.classes, "points_per_class": s.points_per_class,
            "dim": 28 * 28, "separation": s.separation,
            "image_channels": 1, "image_height": 28, "image_width": 28,
        }
        cfg.pretrain = {**cfg.pretrain, "accuracy_floor": s.float_floor}
        if s.pretrain_epochs is not None:
            cfg.pretrain["epochs"] = s.pretrain_epochs
        parser = configparser.ConfigParser(interpolation=None)
        parser["run"] = {"dataset": cfg.dataset, "out": str(self.work_dir),
                         "seed": str(cfg.seed)}
        parser["data"] = {k: str(v) for k, v in cfg.data.items()}
        parser["model"] = {"loss": cfg.loss}
        for i, layer in enumerate(cfg.layers):
            parser[f"layer.{i}"] = {k: str(v) for k, v in vars(layer).items()}
        parser["pretrain"] = {k: str(v) for k, v in cfg.pretrain.items()}
        parser["quantize"] = {k: str(v) for k, v in cfg.quantize.items()}
        text = io.StringIO()
        parser.write(text)
        self.ini.write_text(text.getvalue())
        self.backend = cfg.quantize.get("backend", "implicit")
        derived = config.parse_config(self.ini)
        self.derived_ok = (derived.layers == cfg.layers
                           and derived.quantize == cfg.quantize
                           and derived.data == cfg.data)
        # The same two splits idkm.cli builds from this config.
        d = cfg.data
        splits = [
            data.as_images(
                data.synthetic_blobs(seed, d["classes"], points, d["dim"],
                                     d["separation"]),
                1, 28, 28,
            )
            for seed, points in ((cfg.seed, d["points_per_class"]),
                                 (cfg.seed + 1, max(d["points_per_class"] // 4, 1)))
        ]
        return _digest(text.getvalue().encode(),
                       *(x for split in splits for x in (split.inputs, split.labels)))

    def checks(self) -> list[str]:
        return [] if self.derived_ok else ["derived config does not round-trip"]

    def episode(self, steps: list[StepRecord], probes: list[float],
                deadline: float | None) -> Episode:
        """pretrain, quantize, eval: three CLI commands into a fresh out dir.

        The speed probe runs before every command; the deadline is not
        checked, as an episode takes a few seconds.
        """
        out = self.work_dir / f"episode-{self.episodes}"
        self.episodes += 1
        common = ["--config", str(self.ini), "--out", str(out)]
        argvs = (
            ["pretrain", *common],
            ["quantize", *common, "--epochs", str(self.spec.quantize_epochs),
             "--fallback-jfb"],
            ["eval", *common, "--checkpoint", str(out / "quantized-implicit.ckpt")],
        )
        first = len(steps)
        codes = []
        printed = io.StringIO()
        t0 = time.perf_counter()
        for argv in argvs:
            for _ in range(PROBE_REPEATS):
                probe(probes)
            try:
                with contextlib.redirect_stdout(printed):
                    codes.append(cli.main(argv))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                codes.append(-1)
        wall = time.perf_counter() - t0
        match = _EVAL_LINE.findall(printed.getvalue())
        return Episode(steps[first:], wall_s=wall, commands=codes,
                       top1_hard=float(match[-1]) if match else None)


WORKLOADS = {
    "mlp-implicit": MlpSpec(backend="implicit"),
    "mlp-unrolled": MlpSpec(backend="unrolled"),
    "conv-pipeline": ConvSpec(),
}


def _percentile(values: list[float], q: float) -> float:
    """q-th percentile; a failed step is +inf, so it ranks slowest."""
    with np.errstate(invalid="ignore"):
        return float(np.percentile(np.array(values), q))


def _per_index(episodes: list[Episode], value) -> list[float]:
    """For each step index of the episode, the median over its repeats."""
    count = max(len(e.steps) for e in episodes)
    return [
        median(value(e.steps[i]) for e in episodes if i < len(e.steps))
        for i in range(count)
    ]


def _output_checks(spec, workload, episodes, fingerprints) -> list[str]:
    problems = list(workload.checks())
    if len(set(fingerprints)) != 1:
        problems.append("set-up repetitions gave different results")
    reference = [s.loss for s in episodes[0].steps]
    for n, ep in enumerate(episodes):
        losses = [s.loss for s in ep.steps]
        if losses != reference[: len(losses)] or (ep.complete and len(losses) != len(reference)):
            problems.append(f"episode {n} replayed a different loss sequence")
        for i, step in enumerate(ep.steps):
            if step.error is not None:
                continue
            if not math.isfinite(step.loss):
                problems.append(f"episode {n} step {i}: loss {step.loss}")
            for layer, stats in step.layers.items():
                want = stats["iters"] if workload.backend == "unrolled" else 1
                if stats["retained"] != want:
                    problems.append(
                        f"episode {n} step {i} {layer}: retained "
                        f"{stats['retained']}, expected {want}"
                    )
        if any(code != 0 for code in ep.commands):
            problems.append(f"episode {n}: command exit codes {ep.commands}")
        if ep.complete:
            if ep.top1_hard is None or ep.top1_hard < spec.top1_floor:
                problems.append(
                    f"episode {n}: top1_hard {ep.top1_hard} below {spec.top1_floor}"
                )
            if ep.top1_hard != episodes[0].top1_hard:
                problems.append(f"episode {n}: top1_hard differs from episode 0")
    return problems


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _end_to_end(episodes, setups, probes, attempted, failed, layer_steps, fallbacks,
                scaled=True):
    """End-to-end metrics; times at the reference speed unless not `scaled`.

    `setups` holds (seconds, probes taken before it) per set-up repetition.
    A step or set-up is scaled by speed_at() its position, an episode's wall
    time by the median of the probes taken during the episode.
    """

    def speed(at):
        return speed_at(probes, at) if scaled else 1.0

    def wall(e):
        ref = PROBE_REFERENCE_S / median(probes[slice(*e.probes)])
        return e.wall_s * (ref if scaled else 1.0)

    ms = _per_index(episodes, lambda s: s.ms * speed(s.probe_at))
    ranked = _per_index(episodes,
                        lambda s: math.inf if s.error else s.ms * speed(s.probe_at))
    samples = [0 if s.error else s.samples for s in episodes[0].steps]
    n = len(ranked)
    tail_q = max(100.0 * (n - TAIL_STEPS) / n, 0.0)
    p50 = _percentile(ranked, 50)
    tail = _percentile(ranked, tail_q)
    problems = []
    if n <= TAIL_STEPS:
        problems.append(f"{n} steps are too few for a tail percentile")
    if not (math.isfinite(p50) and math.isfinite(tail)):
        problems.append("a reported step percentile falls on failed steps")
        p50, tail = (min(v, max(ms)) for v in (p50, tail))
    complete = [e for e in episodes if e.complete]
    metrics = {
        "setup_s": (median(t * speed(at) for t, at in setups), "s"),
        "run_s": (median(wall(e) for e in complete), "s"),
        "samples_per_s": (sum(samples) / (sum(ms) / 1e3), "samples/s"),
        "step_ms_p50": (p50, "ms"),
        "step_ms_tail": (tail, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_share": (1.0 - failed / attempted, "fraction"),
        "no_fallback_share": (1.0 - _share(fallbacks, layer_steps), "fraction"),
        "top1_hard": (median(e.top1_hard for e in complete if e.top1_hard is not None),
                      "fraction"),
    }
    info = {
        "steps_per_episode": n,
        "tail_percentile": tail_q,
        "solver_iters_per_episode": sum(
            l["iters"] for s in episodes[0].steps for l in s.layers.values()
        ),
    }
    return metrics, info, problems


def _at_reference_speed(metrics: dict, scale: float) -> dict:
    """Scale every time in `metrics` to the reference speed."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms") or unit.startswith("ms/"):
            value *= scale
        elif unit == "samples/s":
            value /= scale
        out[name] = (value, unit)
    return out


def _per_layer(spans: list, episodes: list[Episode]):
    """Module metrics from the spans of the traced episodes and the set-up.

    Times and counts come from episodes traced with spans only; memory
    peaks from the episodes that also ran tracemalloc, which slows
    Python-heavy code too much to time it.
    """

    def pool(mode):
        return [s for e in episodes if e.trace == mode for s in spans[slice(*e.spans)]]

    timed, mem = pool("spans"), pool("memory")
    step_spans = [s for s in timed if s.name == STEP_SPAN]
    steps = [s.step for s in step_spans]

    def named(name, where=timed):
        return [s for s in where if s.name == name]

    def per_step(name, value=lambda s: s.seconds * 1e3):
        return median(step_totals(named(name), steps, value))

    def per_call_ms(name, where=timed):
        return median(s.seconds * 1e3 for s in named(name, where))

    def peak_mib(name):
        return max((s.peak_bytes for s in named(name, mem) if s.step is not None),
                   default=0) / MIB

    in_steps = [s for s in timed if s.step is not None]
    solves = named("solver.solve_fixed_point", in_steps)
    solve_ms = sum(s.seconds for s in solves) * 1e3
    solve_iters = sum(s.info["iters"] for s in solves)
    vjps = named("gradients.vjp_dC_dW", in_steps)
    traced_spans = [e for e in episodes if e.trace == "spans"]
    traced_wall = median(e.wall_s for e in traced_spans)
    untraced_wall = median(e.wall_s for e in episodes if e.trace == "off")
    setup = spans[: episodes[0].spans[0]]
    outside = [s for s in setup + timed if s.step is None]
    pipeline_ms = sum(s.seconds for s in named("cli.main")) * 1e3 / len(traced_spans)
    retained = [sum(l["retained"] for l in s.layers.values())
                for e in traced_spans for s in e.steps if s.error is None]
    return {
        "training.quantized_train_step.self_ms":
            (median(s.self_seconds * 1e3 for s in step_spans), "ms/step"),
        "training.evaluate.ms": (per_call_ms("training.evaluate"), "ms/call"),
        "training.retained_iterates": (median(retained), "count/step"),
        "solver.solve_fixed_point.ms": (per_step("solver.solve_fixed_point"), "ms/step"),
        "solver.iters": (per_step("solver.solve_fixed_point", lambda s: s.info["iters"]),
                         "count/step"),
        "solver.ms_per_iter": (solve_ms / solve_iters if solve_iters else 0.0, "ms"),
        "solver.unconverged_share":
            (_share(sum(not s.info["converged"] for s in solves), len(solves)), "fraction"),
        "solver.trace_bytes":
            (per_step("solver.solve_fixed_point", lambda s: s.info["trace_bytes"]),
             "bytes/step"),
        "solver.init_codebook.ms": (per_call_ms("solver.init_codebook", outside), "ms"),
        "pq.attention.calls": (per_step("pq.attention", lambda s: 1), "count/step"),
        "pq.attention.ms": (per_step("pq.attention"), "ms/step"),
        "pq.soft_quantize.ms": (per_step("pq.soft_quantize"), "ms/step"),
        "pq.soft_quantize_vjp.ms": (per_step("pq.soft_quantize_vjp"), "ms/step"),
        "pq.partition_weights.ms": (per_step("pq.partition_weights"), "ms/step"),
        "gradients.vjp_dC_dW.ms": (per_step("gradients.vjp_dC_dW"), "ms/step"),
        "gradients.vjp_dC_dW.ok_share":
            (_share(sum(s.ok for s in vjps), len(vjps)), "fraction"),
        "gradients.vjp_through_trace.ms": (per_step("gradients.vjp_through_trace"), "ms/step"),
        "gradients.jacobians_of_F.calls":
            (per_step("gradients.jacobians_of_F", lambda s: 1), "count/step"),
        "gradients.jacobians_of_F.ms": (per_step("gradients.jacobians_of_F"), "ms/step"),
        "gradients.jacobians_of_F.peak_mib":
            (peak_mib("gradients.jacobians_of_F"), "MiB"),
        "step.peak_mib": (peak_mib(STEP_SPAN), "MiB"),
        "nn.loss_and_grad.ms": (per_step("nn.loss_and_grad"), "ms/step"),
        "nn.Network.forward.ms": (per_call_ms("nn.Network.forward"), "ms/call"),
        "data.synthetic_blobs.ms": (per_call_ms("data.synthetic_blobs", outside), "ms"),
        "data.save_checkpoint.ms": (per_call_ms("data.save_checkpoint"), "ms"),
        "data.load_checkpoint.ms": (per_call_ms("data.load_checkpoint"), "ms"),
        "config.parse_config.ms": (per_call_ms("config.parse_config", outside), "ms"),
        "cli.main.ms": (pipeline_ms, "ms"),
        "trace.overhead_ms": ((traced_wall - untraced_wall) * 1e3, "ms"),
        "trace.overhead_share": (traced_wall / untraced_wall - 1.0, "fraction"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, spec=None):
    """Run one workload in this process; returns (details, result).

    Untraced, episodes repeat until `seconds` have passed, and the last one
    may be cut short once a complete one exists. Traced, episodes cycle
    through untraced, spans only, and spans with tracemalloc peaks, always
    complete, until `seconds` have passed and each kind has run once.
    `result` is the object the benchmark prints last: end-to-end metrics
    when untraced, per-module metrics when traced, with every time given
    at the reference speed (see PROBE_REFERENCE_S).
    """
    spec = spec or WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    steps: list[StepRecord] = []
    probes: list[float] = []
    tracer = Tracer(STEP_SPAN)
    episodes: list[Episode] = []
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp, contextlib.ExitStack() as stack:
        workload = spec.make(seed, Path(tmp))
        if trace:
            install_tracer(tracer)
            stack.callback(tracer.remove)
            tracer.start(memory=False)
        stack.enter_context(recording_steps(steps, probes))
        setups, fingerprints = [], []
        for _ in range(spec.setup_repeats):
            for _ in range(PROBE_REPEATS):
                probe(probes)
            at = len(probes)
            t0 = time.perf_counter()
            fingerprints.append(workload.setup())
            setups.append((time.perf_counter() - t0, at))
        tracer.stop()
        setup_probes = probes[:]

        deadline = time.perf_counter() + seconds
        while True:
            mode = TRACE_CYCLE[len(episodes) % len(TRACE_CYCLE)] if trace else "off"
            may_cut = not trace and any(e.complete for e in episodes)
            first_span, first_probe = len(tracer.spans), len(probes)
            if mode != "off":
                tracer.start(memory=mode == "memory")
            episode = workload.episode(steps, probes, deadline if may_cut else None)
            tracer.stop()
            episode.wall_s -= sum(probes[first_probe:])
            episode.trace = mode
            episode.spans = (first_span, len(tracer.spans))
            episode.probes = (first_probe, len(probes))
            episodes.append(episode)
            if not episode.complete:
                break
            if (time.perf_counter() >= deadline
                    and (not trace or len(episodes) >= len(TRACE_CYCLE))):
                break

    problems = _output_checks(spec, workload, episodes, fingerprints)
    attempted = len(steps) + workload.commands_per_episode * len(episodes)
    failed = (sum(s.error is not None for s in steps)
              + sum(code != 0 for e in episodes for code in e.commands))
    # Every episode replays the first, so its layer-steps give the share.
    layers = [l for s in episodes[0].steps if s.error is None for l in s.layers.values()]
    fallbacks = sum(l["fallback"] for l in layers)
    episode_probes = probes[len(setup_probes):]
    scale = PROBE_REFERENCE_S / median(episode_probes)
    untraced = [e for e in episodes if e.trace == "off"]
    e2e, info, more = _end_to_end(untraced, setups, probes, attempted, failed,
                                  len(layers), fallbacks)
    measured, _, _ = _end_to_end(untraced, setups, probes, attempted, failed,
                                 len(layers), fallbacks, scaled=False)
    problems += more
    if trace:
        metrics = _at_reference_speed(_per_layer(tracer.spans, episodes), scale)
        metrics["failed_share"] = (failed / attempted, "fraction")
        metrics["fallback_share"] = (_share(fallbacks, len(layers)), "fraction")
        with open(WORK_DIR / f"spans-{name}-seed{seed}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.record()) + "\n")
    else:
        metrics = e2e
    details = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        **info,
        "episodes": len(episodes),
        "complete_episodes": sum(e.complete for e in episodes),
        "traced_episodes": sum(e.trace != "off" for e in episodes),
        "setup_repeats": spec.setup_repeats,
        "failed_share": failed / attempted,
        "fallback_share": _share(fallbacks, len(layers)),
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "end_to_end_as_measured": {k: v for k, (v, _) in measured.items()},
        "probe_ms": median(episode_probes) * 1e3,
        "setup_probe_ms": median(setup_probes) * 1e3,
        "speed_scale": scale,
        "errors": sorted({s.error for s in steps if s.error is not None}),
        "violations": problems,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return details, result
