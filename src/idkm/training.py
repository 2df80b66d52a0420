"""Quantization-aware training: cluster, soft-quantize, differentiate, step.

Each training step re-clusters every marked layer's weights, evaluates the
network loss at the soft-quantized weights, and propagates gradients back to
the float weights along two routes: the direct path (codebook held fixed)
and the cluster path through dC*/dW via the configured gradient backend.
Plain SGD, no momentum. Biases are never quantized.

The solver evaluates each layer's distances, attention and column sums once
at its starting codebook and once after each update, and stops at C*, the
first iterate that evaluation certifies. The soft quantizer, its VJP and
the cluster backward (including a jfb retry after a failed adjoint) all
reuse that last evaluation, a pq.SoftAssignment, which also holds the
center update F and F's VJP (f_vjp) and dF/dC (j_c), which the cluster
backward runs. f_vjp and the soft quantizer's VJP run one backward pass
through the softmax and the distances (pq._att_vjp_cols). Beyond the
network's own arrays, a step therefore holds per layer one m x k distance
and one m x k attention matrix (float64), and, during that layer's backward
pass, its m x k x d unit distance directions. For the 100,352-weight layer
at k=4, d=1 each is 401,408 entries, 3.2 MB.
No backend forms a dense (k*d) x (d*m) Jacobian. A layer with at least
2 * pq.SPLIT_FLOOR of those entries runs each of these passes by column
blocks chosen from (k, m) alone; the CPU count sets only how many threads
take them, so the bits are the same on any CPU count (see pq). The arrays a
step holds are the same, and a worker thread holds only its block's
temporaries.

StepMetrics.retained_iterate_count records how many codebook snapshots a
step held for backward: 1 for the implicit and jfb backends regardless of
how many cluster iterations ran, and for unrolled the number of updates the
solve applied, which also evaluates one soft assignment per snapshot in its
backward sweep.
That counter is the package's memory claim, asserted exactly in the tests.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (
    AdjointDivergence,
    AdjointStalled,
    ParamError,
    ShapeError,
    require_positive_finite,
)
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


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for quantization training.

    k and d apply to every quantized layer. epochs=0 is allowed and means:
    cluster the pretrained weights once, evaluate, update nothing.
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

    def __post_init__(self):
        for name in ("learning_rate", "tau", "eps"):
            require_positive_finite(name, getattr(self, name))
        if self.epochs < 0:
            raise ParamError(f"epochs must be >= 0, got {self.epochs}")
        if self.k < 1 or self.d < 1:
            raise ParamError(f"k and d must be >= 1, got k={self.k}, d={self.d}")
        if self.max_cluster_iters < 1:
            raise ParamError("max_cluster_iters must be >= 1")
        if self.batch_size < 1:
            raise ParamError("batch_size must be >= 1")
        if self.loss_kind not in LOSS_KINDS:
            raise ParamError(f"unknown loss {self.loss_kind!r}")


@dataclass(frozen=True)
class StepMetrics:
    """Per-step instrumentation; scalar fields are maxima over layers.

    per_layer maps each quantized tensor to its solve's iterations,
    residual, converged flag, retained codebooks and clusters degenerate at
    C* ("degenerate", SoftAssignment.degenerate at the returned codebook),
    whether its gradient fell back to jfb, and, for the implicit backend,
    how its adjoint solve ended ("adjoint": converged, stalled or diverged).
    """

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
    """Partition one weight tensor and run the clustering solve, starting
    from the layer's codebook in `state` if it has one, else from cfg.init."""
    wm = partition_weights(tensor.ravel(), cfg.d)
    c0 = state.codebooks.get(key)
    if c0 is None:
        strategy = dataclasses.replace(cfg.init, seed=cfg.init.seed + index)
        c0 = init_codebook(wm, cfg.k, strategy)
    elif c0.data.shape != (cfg.k, cfg.d):
        raise ShapeError(
            f"{key}: warm codebook is {c0.k}x{c0.d}, expected {cfg.k}x{cfg.d}"
        )
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
    record = cfg.backend.kind == "unrolled"

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
            "converged": result.converged,
            "retained": result.retained_codebooks,
            "degenerate": result.degenerate_clusters,
            "fallback": False,
        }
        upstream = partition_weights(grads[name].ravel(), wm.d)
        grad_direct, grad_book = soft_quantize_vjp(
            upstream.data, wm, result.codebook, cfg.tau,
            assignment=result.assignment,
        )
        u_vec = grad_book.ravel()
        if cfg.backend.kind == "unrolled":
            flat_grad = vjp_through_trace(u_vec, wm, result.trace, cfg.tau)
        else:
            if cfg.backend.kind == "implicit":
                stats["adjoint"] = "converged"
            try:
                flat_grad = vjp_dC_dW(
                    u_vec, wm, result.codebook, cfg.tau, cfg.backend,
                    assignment=result.assignment,
                )
            except AdjointDivergence as exc:
                stats["adjoint"] = (
                    "stalled" if isinstance(exc, AdjointStalled) else "diverged"
                )
                if not cfg.fallback_jfb:
                    raise type(exc)(f"{name}: {exc}") from exc
                stats["fallback"] = True
                fallback = dataclasses.replace(cfg.backend, kind="jfb")
                flat_grad = vjp_dC_dW(
                    u_vec, wm, result.codebook, cfg.tau, fallback,
                    assignment=result.assignment,
                )
        total = grad_direct + flat_grad.reshape(wm.d, wm.m)
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
    if mode == "soft":
        require_positive_finite("tau", tau)
    out = dict(weights)
    for key in net.quantized_keys():
        if key not in codebooks:
            raise ShapeError(f"no codebook for quantized layer {key!r}")
        book = codebooks[key]
        wm = partition_weights(weights[key].ravel(), book.d)
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


def _epoch_record(epoch, state, loss, steps, cfg, hard_acc, soft_acc):
    """One report line; `steps` is the epoch's StepMetrics, empty for
    record 0. The per-step figures are the epoch's last step's, and
    unconverged_solves and fallbacks count over all its layer-steps."""
    last_metrics = steps[-1] if steps else None
    layer_steps = [stats for m in steps for stats in m.per_layer.values()]
    return {
        "epoch": epoch,
        "step": state.step,
        "loss": loss,
        "top1_hard": hard_acc,
        "top1_soft": soft_acc,
        "backend": cfg.backend.kind,
        "k": cfg.k,
        "d": cfg.d,
        "tau": cfg.tau,
        "cluster_iters": last_metrics.cluster_iters if last_metrics else 0,
        "residual": last_metrics.residual if last_metrics else 0.0,
        "retained_iterates": (
            last_metrics.retained_iterate_count if last_metrics else 0
        ),
        "t_forward_s": last_metrics.wall_time_forward if last_metrics else 0.0,
        "t_backward_s": last_metrics.wall_time_backward if last_metrics else 0.0,
        "unconverged_solves": sum(not stats["converged"] for stats in layer_steps),
        "fallbacks": sum(stats["fallback"] for stats in layer_steps),
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

    def snapshot(epoch, mean_loss, steps):
        hard = evaluate(
            net, state.weights, eval_set, state.codebooks, mode="hard"
        )
        soft = evaluate(
            net, state.weights, eval_set, state.codebooks, mode="soft", tau=cfg.tau
        )
        record = _epoch_record(epoch, state, mean_loss, steps, cfg, hard, soft)
        if on_epoch:
            on_epoch(record)
        return record

    history = [snapshot(0, None, [])]
    for epoch in range(1, cfg.epochs + 1):
        steps = []
        for bx, by in train_set.batches(cfg.batch_size, rng=rng):
            state.weights, metrics = quantized_train_step(net, bx, by, state, cfg)
            steps.append(metrics)
        mean_loss = float(np.mean([m.loss for m in steps]))
        history.append(snapshot(epoch, mean_loss, steps))
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
    require_positive_finite("learning_rate", learning_rate)
    if epochs < 0 or batch_size < 1:
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
