"""Quantization-aware training: cluster, soft-quantize, differentiate, step.

Each training step re-clusters every marked layer's weights, evaluates the
network loss at the soft-quantized weights, and propagates gradients back to
the float weights along two routes: the direct path (codebook held fixed)
and the cluster path through dC*/dW via the configured gradient backend.
Plain SGD, no momentum. Biases are never quantized.

The solver evaluates each layer's distances, attention and column sums once
per iteration and once more at C*, in its residual pass. The soft quantizer,
its VJP and the cluster backward (including a jfb retry after a failed
adjoint) all reuse that last evaluation. Beyond the network's own arrays, a step therefore holds per
layer one m x k distance and one m x k attention matrix (float64), and,
during that layer's backward pass, its m x k x d unit distance directions.
For the 100,352-weight layer at k=4, d=1 each is 401,408 entries, 3.2 MB.
No backend forms a dense (k*d) x (d*m) Jacobian.

StepMetrics.retained_iterate_count records how many codebook snapshots a
step held for backward: 1 for the implicit and jfb backends regardless of
how many cluster iterations ran, and the full iteration count for unrolled,
which also evaluates one soft assignment per snapshot in its backward sweep.
That counter is the package's memory claim, asserted exactly in the tests.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import AdjointDivergence, ParamError, ShapeError
from .gradients import GradBackend, vjp_dC_dW, vjp_through_trace
from .nn import LOSS_KINDS, Network, loss_and_grad
from .pq import (
    Codebook,
    WeightMatrix,
    flatten_weights,
    hard_quantize,
    partition_weights,
    soft_quantize,
    soft_quantize_vjp,
)
from .solver import (
    FixedPointResult,
    InitStrategy,
    init_codebook,
    solve_fixed_point,
)


def bits_per_weight(k: int, d: int) -> float:
    """Effective storage cost of a k-codeword, d-dimensional codebook."""
    if k < 1 or d < 1:
        raise ParamError(f"k and d must be >= 1, got k={k}, d={d}")
    return math.log2(k) / d


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for quantization training.

    k and d apply to every quantized layer unless per_layer maps a weight
    key to its own (k, d). epochs=0 is allowed and means: cluster the
    pretrained weights once, evaluate, update nothing.
    """

    k: int = 4
    d: int = 1
    tau: float = 5e-4
    eps: float = 1e-6
    max_cluster_iters: int = 30
    backend: GradBackend = field(default_factory=GradBackend)
    learning_rate: float = 1e-4
    epochs: int = 100
    batch_size: int = 128
    loss_kind: str = "cross_entropy"
    init: InitStrategy = field(default_factory=InitStrategy)
    seed: int = 0
    fallback_jfb: bool = False
    record_trace: bool = False
    direct_path: bool = True
    cluster_path: bool = True
    per_layer: Mapping[str, tuple[int, int]] | None = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ParamError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ParamError(f"epochs must be >= 0, got {self.epochs}")
        if self.tau <= 0:
            raise ParamError(f"tau must be positive, got {self.tau}")
        if self.eps <= 0:
            raise ParamError(f"eps must be positive, got {self.eps}")
        if self.k < 1 or self.d < 1:
            raise ParamError(f"k and d must be >= 1, got k={self.k}, d={self.d}")
        if self.max_cluster_iters < 1:
            raise ParamError("max_cluster_iters must be >= 1")
        if self.batch_size < 1:
            raise ParamError("batch_size must be >= 1")
        if self.loss_kind not in LOSS_KINDS:
            raise ParamError(f"unknown loss {self.loss_kind!r}")

    def layer_kd(self, key: str) -> tuple[int, int]:
        if self.per_layer and key in self.per_layer:
            return self.per_layer[key]
        return self.k, self.d


@dataclass(frozen=True)
class StepMetrics:
    """Per-step instrumentation; scalar fields are maxima over layers."""

    loss: float
    retained_iterate_count: int
    cluster_iters: int
    residual: float
    wall_time_forward: float
    wall_time_backward: float
    per_layer: Mapping[str, dict] = field(default_factory=dict)


@dataclass
class TrainState:
    """Mutable loop state: float weights plus warm-start codebooks."""

    weights: dict[str, np.ndarray]
    codebooks: dict[str, Codebook] = field(default_factory=dict)
    step: int = 0


def _solve_layer(
    key: str,
    index: int,
    tensor: np.ndarray,
    state: TrainState,
    cfg: TrainConfig,
    record: bool,
) -> tuple[WeightMatrix, FixedPointResult]:
    """Partition one weight tensor and run the clustering solve."""
    k, d = cfg.layer_kd(key)
    wm = partition_weights(tensor.ravel(), d, allow_pad=True)
    if key in state.codebooks:
        strategy = InitStrategy(kind="warm_start", warm_codebook=state.codebooks[key])
    else:
        strategy = dataclasses.replace(cfg.init, seed=cfg.init.seed + index)
    c0 = init_codebook(wm, k, strategy)
    result = solve_fixed_point(
        wm, c0, cfg.tau, cfg.eps, cfg.max_cluster_iters, record_trace=record
    )
    return wm, result


def quantized_train_step(
    net: Network,
    x: np.ndarray,
    y: np.ndarray,
    state: TrainState,
    cfg: TrainConfig,
) -> tuple[dict[str, np.ndarray], StepMetrics]:
    """One step: solve codebooks, step SGD through the soft quantizer.

    Returns fresh weight arrays; `state` is only read except for the warm
    codebooks, which are refreshed so the next step starts near the previous
    solution. Layers without the quantize flag get plain SGD.
    """
    qkeys = net.quantized_keys()
    record = cfg.backend.kind == "unrolled" or cfg.record_trace

    t0 = time.perf_counter()
    solved: dict[str, tuple[WeightMatrix, FixedPointResult]] = {}
    run_weights = dict(state.weights)
    for index, key in enumerate(qkeys):
        wm, result = _solve_layer(key, index, state.weights[key], state, cfg, record)
        solved[key] = (wm, result)
        soft = soft_quantize(
            wm, result.codebook, cfg.tau, assignment=result.assignment
        )
        run_weights[key] = flatten_weights(soft).reshape(state.weights[key].shape)
    loss, grads = loss_and_grad(net, run_weights, x, y, cfg.loss_kind)
    t_forward = time.perf_counter() - t0

    t1 = time.perf_counter()
    new_weights: dict[str, np.ndarray] = {}
    per_layer: dict[str, dict] = {}
    for name, tensor in state.weights.items():
        if name not in solved:
            new_weights[name] = tensor - cfg.learning_rate * grads[name]
            continue
        # Popped, so the layer's soft assignment is freed after its backward.
        wm, result = solved.pop(name)
        stats = {
            "iters": result.iterations,
            "residual": result.residual,
            "retained": result.retained_codebooks,
            "degenerate": result.degenerate_clusters,
            "fallback": False,
        }
        upstream = partition_weights(grads[name].ravel(), wm.d, allow_pad=True)
        grad_direct, grad_book = soft_quantize_vjp(
            upstream.data, wm, result.codebook, cfg.tau,
            assignment=result.assignment,
        )
        total = np.zeros_like(wm.data)
        if cfg.direct_path:
            total += grad_direct
        if cfg.cluster_path:
            u_vec = grad_book.ravel()
            if cfg.backend.kind == "unrolled":
                flat_grad = vjp_through_trace(u_vec, wm, result.trace, cfg.tau)
            else:
                try:
                    flat_grad = vjp_dC_dW(
                        u_vec, wm, result.codebook, cfg.tau, cfg.backend,
                        assignment=result.assignment,
                    )
                except AdjointDivergence as exc:
                    if not cfg.fallback_jfb:
                        raise AdjointDivergence(f"{name}: {exc}") from exc
                    stats["fallback"] = True
                    fallback = dataclasses.replace(cfg.backend, kind="jfb")
                    flat_grad = vjp_dC_dW(
                        u_vec, wm, result.codebook, cfg.tau, fallback,
                        assignment=result.assignment,
                    )
            total += flat_grad.reshape(wm.d, wm.m)
        flat = total.T.ravel()[: tensor.size]
        new_weights[name] = tensor - cfg.learning_rate * flat.reshape(tensor.shape)
        state.codebooks[name] = result.codebook
        per_layer[name] = stats
    t_backward = time.perf_counter() - t1

    state.step += 1
    metrics = StepMetrics(
        loss=loss,
        retained_iterate_count=max(
            (s["retained"] for s in per_layer.values()), default=0
        ),
        cluster_iters=max((s["iters"] for s in per_layer.values()), default=0),
        residual=max((s["residual"] for s in per_layer.values()), default=0.0),
        wall_time_forward=t_forward,
        wall_time_backward=t_backward,
        per_layer=per_layer,
    )
    return new_weights, metrics


def quantize_weights(
    net: Network,
    weights: dict[str, np.ndarray],
    codebooks: Mapping[str, Codebook],
    mode: str = "hard",
    tau: float | None = None,
) -> dict[str, np.ndarray]:
    """Replace each clustered tensor by its codebook reconstruction."""
    if mode not in ("hard", "soft"):
        raise ParamError(f"mode must be hard or soft, got {mode!r}")
    if mode == "soft" and (tau is None or tau <= 0):
        raise ParamError("soft quantization needs a positive tau")
    out = dict(weights)
    for key in net.quantized_keys():
        if key not in codebooks:
            raise ShapeError(f"no codebook for quantized layer {key!r}")
        book = codebooks[key]
        wm = partition_weights(weights[key].ravel(), book.d, allow_pad=True)
        if mode == "hard":
            quantized = hard_quantize(wm, book)
        else:
            quantized = soft_quantize(wm, book, tau)
        out[key] = flatten_weights(quantized).reshape(weights[key].shape)
    return out


def evaluate(
    net: Network,
    weights: dict[str, np.ndarray],
    dataset,
    codebooks: Mapping[str, Codebook] | None = None,
    mode: str = "float",
    tau: float | None = None,
    batch_size: int = 256,
) -> float:
    """Top-1 accuracy; quantizes through `codebooks` first unless mode=float."""
    if mode != "float":
        if codebooks is None:
            raise ParamError(f"mode {mode!r} requires codebooks")
        weights = quantize_weights(net, weights, codebooks, mode=mode, tau=tau)
    hits = 0
    for bx, by in dataset.batches(batch_size):
        logits = net.forward(weights, bx)
        hits += int((logits.argmax(axis=1) == by).sum())
    return hits / len(dataset)


def solve_codebooks(
    net: Network, weights: dict[str, np.ndarray], cfg: TrainConfig
) -> dict[str, Codebook]:
    """Forward clustering solve for every quantized layer, no gradients."""
    state = TrainState(weights=weights)
    books: dict[str, Codebook] = {}
    for index, key in enumerate(net.quantized_keys()):
        _, result = _solve_layer(key, index, weights[key], state, cfg, record=False)
        books[key] = result.codebook
    return books


def _epoch_record(epoch, state, loss, last_metrics, cfg, hard_acc, soft_acc):
    k, d = cfg.k, cfg.d
    return {
        "epoch": epoch,
        "step": state.step,
        "loss": loss,
        "top1_hard": hard_acc,
        "top1_soft": soft_acc,
        "backend": cfg.backend.kind,
        "k": k,
        "d": d,
        "tau": cfg.tau,
        "cluster_iters": last_metrics.cluster_iters if last_metrics else 0,
        "residual": last_metrics.residual if last_metrics else 0.0,
        "retained_iterates": (
            last_metrics.retained_iterate_count if last_metrics else 0
        ),
        "t_forward_s": last_metrics.wall_time_forward if last_metrics else 0.0,
        "t_backward_s": last_metrics.wall_time_backward if last_metrics else 0.0,
    }


def train(
    net: Network,
    weights: dict[str, np.ndarray],
    cfg: TrainConfig,
    train_set,
    eval_set=None,
    on_epoch: Callable[[dict], None] | None = None,
) -> tuple[list[dict], TrainState]:
    """Run the full quantization loop; returns per-epoch records and state.

    Record 0 evaluates the clustered pretrained model before any update, so
    epochs=0 degenerates to a pure evaluation. Evaluation always reports the
    hard-quantized accuracy (the deployed model uses the codebook, not the
    soft surrogate); the soft number is carried alongside for comparison.
    """
    eval_set = eval_set if eval_set is not None else train_set
    state = TrainState(weights={k: np.array(v) for k, v in weights.items()})
    state.codebooks = solve_codebooks(net, state.weights, cfg)
    rng = np.random.default_rng(cfg.seed)

    def snapshot(epoch, mean_loss, last_metrics):
        hard = evaluate(
            net, state.weights, eval_set, state.codebooks, mode="hard"
        )
        soft = evaluate(
            net, state.weights, eval_set, state.codebooks, mode="soft", tau=cfg.tau
        )
        record = _epoch_record(
            epoch, state, mean_loss, last_metrics, cfg, hard, soft
        )
        if on_epoch:
            on_epoch(record)
        return record

    history = [snapshot(0, None, None)]
    for epoch in range(1, cfg.epochs + 1):
        losses = []
        last_metrics = None
        for bx, by in train_set.batches(cfg.batch_size, rng=rng):
            state.weights, last_metrics = quantized_train_step(
                net, bx, by, state, cfg
            )
            losses.append(last_metrics.loss)
        history.append(snapshot(epoch, float(np.mean(losses)), last_metrics))
    return history, state


def train_float(
    net: Network,
    weights: dict[str, np.ndarray],
    train_set,
    eval_set=None,
    learning_rate: float = 0.1,
    epochs: int = 20,
    batch_size: int = 128,
    loss_kind: str = "cross_entropy",
    seed: int = 0,
    on_epoch: Callable[[dict], None] | None = None,
) -> tuple[list[dict], dict[str, np.ndarray]]:
    """Plain-SGD float pretraining used to produce the starting checkpoint."""
    if learning_rate <= 0 or epochs < 0 or batch_size < 1:
        raise ParamError("bad pretraining hyperparameters")
    eval_set = eval_set if eval_set is not None else train_set
    weights = {k: np.array(v) for k, v in weights.items()}
    rng = np.random.default_rng(seed)
    history = []
    for epoch in range(1, epochs + 1):
        losses = []
        for bx, by in train_set.batches(batch_size, rng=rng):
            loss, grads = loss_and_grad(net, weights, bx, by, loss_kind)
            for name in weights:
                weights[name] = weights[name] - learning_rate * grads[name]
            losses.append(loss)
        record = {
            "epoch": epoch,
            "loss": float(np.mean(losses)),
            "top1": evaluate(net, weights, eval_set),
        }
        history.append(record)
        if on_epoch:
            on_epoch(record)
    return history, weights
