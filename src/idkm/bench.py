"""Timing and memory instrumentation over the gradient backends.

Runs full training steps on a fixed image-classification instance with the
convergence threshold set unreachably small, then reports median wall times.
A solve still stops at an exact fixed point (gap 0.0), as the conv layer's
does after 1 or 2 updates, so t pins only the layer that runs longest
(StepMetrics.cluster_iters and the retained-iterate column are maxima over
layers). That column is the memory story: it counts codebook snapshots held
for backward, which is t for unrolled and 1 for the other two backends.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .data import as_images, synthetic_blobs
from .errors import ParamError
from .gradients import GradBackend
from .nn import LayerSpec, Network
from .training import (
    TrainConfig,
    TrainState,
    quantized_train_step,
    solve_codebooks,
)

FORCE_ALL_ITERS_EPS = 1e-300


@dataclass(frozen=True)
class CellResult:
    backend: str
    k: int
    d: int
    t: int
    forward_s: float
    backward_s: float
    retained: int

    def row(self) -> str:
        return (
            f"{self.backend:<9} {self.k:>3} {self.d:>3} {self.t:>4} "
            f"{self.forward_s:>11.6f} {self.backward_s:>11.6f} {self.retained:>9}"
        )


HEADER = (
    f"{'backend':<9} {'k':>3} {'d':>3} {'t':>4} "
    f"{'forward_s':>11} {'backward_s':>11} {'retained':>9}"
)


def timing_instance(seed: int = 0, batch_size: int = 16):
    """A small convolutional classifier over synthetic 28x28 images."""
    net = Network(
        layers=(
            LayerSpec(kind="conv2d", in_channels=1, out_channels=4, kernel=3,
                      stride=4, quantize=True),
            LayerSpec(kind="relu"),
            LayerSpec(kind="flatten"),
            LayerSpec(kind="dense", in_features=196, out_features=10,
                      quantize=True),
        )
    )
    blobs = synthetic_blobs(
        seed=seed, classes=10, points_per_class=max(batch_size // 10 + 1, 2),
        dim=784, separation=4.0,
    )
    images = as_images(blobs, 1, 28, 28)
    x = images.inputs[:batch_size]
    y = images.labels[:batch_size]
    return net, net.init_weights(seed), x, y


def run_cell(
    net: Network,
    weights: dict[str, np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    backends,
    k: int,
    d: int,
    t: int,
    repeats: int = 5,
    seed: int = 0,
) -> list[CellResult]:
    """Median step timings for one (k, d, t) grid cell, one result per
    backend, in the order of `backends`.

    Codebooks are first solved to convergence, then every timed step warm
    starts there and runs t further iterations on its longest layer, else
    raises ParamError. Pinning t at the fixed point keeps the comparison fair:
    implicit differentiation assumes a stable solution (dF/dC* with spectral
    radius below 1), which a deliberately truncated solve does not provide.

    Every step starts from identical state. The first round, one step of
    each backend, is a discarded warm-up; each of the `repeats` rounds after
    it steps every backend in turn, so a slow spell of a shared host falls
    on all of them alike instead of on one backend's repeats.
    """
    cfgs = [
        TrainConfig(
            k=k,
            d=d,
            eps=FORCE_ALL_ITERS_EPS,
            max_cluster_iters=t,
            backend=GradBackend(kind=kind),
            epochs=1,
            batch_size=len(x),
            seed=seed,
        )
        for kind in backends
    ]
    warm_cfg = dataclasses.replace(cfgs[0], eps=1e-10, max_cluster_iters=3000)
    warm_books = solve_codebooks(net, weights, warm_cfg)

    timed: list[list] = [[] for _ in cfgs]
    for attempt in range(repeats + 1):
        for cfg, runs in zip(cfgs, timed):
            state = TrainState(
                weights={k2: v.copy() for k2, v in weights.items()},
                codebooks=dict(warm_books),
            )
            _, metrics = quantized_train_step(net, x, y, state, cfg)
            if metrics.cluster_iters != t:
                raise ParamError(f"k={k} d={d} t={t} {cfg.backend.kind}: every "
                                 f"layer's solve stopped at an exact fixed point, "
                                 f"the longest at update {metrics.cluster_iters}")
            if attempt > 0:
                runs.append(metrics)
    return [
        CellResult(
            backend=cfg.backend.kind,
            k=k,
            d=d,
            t=t,
            forward_s=float(np.median([m.wall_time_forward for m in runs])),
            backward_s=float(np.median([m.wall_time_backward for m in runs])),
            retained=runs[-1].retained_iterate_count,
        )
        for cfg, runs in zip(cfgs, timed)
    ]


def run_grid(
    t_values=(30,),
    k_values=(4,),
    d_values=(1,),
    backends=("jfb", "implicit", "unrolled"),
    repeats: int = 5,
    seed: int = 0,
    batch_size: int = 16,
) -> list[CellResult]:
    net, weights, x, y = timing_instance(seed=seed, batch_size=batch_size)
    results = []
    for t in t_values:
        for k in k_values:
            for d in d_values:
                results.extend(
                    run_cell(net, weights, x, y, backends, k, d, t,
                             repeats=repeats, seed=seed)
                )
    return results


def ordering_violations(results: list[CellResult]) -> list[str]:
    """Check backward-time ordering jfb < implicit < unrolled per cell.

    A cell without all three backends, or no cell at all, is a violation:
    an ordering that was not measured does not hold."""
    cells: dict[tuple[int, int, int], dict[str, float]] = {}
    for res in results:
        cells.setdefault((res.k, res.d, res.t), {})[res.backend] = res.backward_s
    if not cells:
        return ["no cells were timed"]
    problems = []
    for (k, d, t), times in sorted(cells.items()):
        missing = [b for b in ("jfb", "implicit", "unrolled") if b not in times]
        if missing:
            problems.append(f"k={k} d={d} t={t}: no {', '.join(missing)} timing")
        elif not times["jfb"] < times["implicit"] < times["unrolled"]:
            problems.append(
                f"k={k} d={d} t={t}: jfb={times['jfb']:.6f} "
                f"implicit={times['implicit']:.6f} "
                f"unrolled={times['unrolled']:.6f}"
            )
    return problems
