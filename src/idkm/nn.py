"""Minimal dense/conv network with hand-written reverse-mode gradients.

Four layer kinds (dense, conv2d, relu, flatten) cover the models trained
here. Convolution uses the cross-correlation convention with valid or same
padding. It gathers the input's windows into one (c·k·k) × (n·out_h·out_w)
patch matrix and runs as one GEMM each way: the forward pass, the weight
gradient and the input gradient. The backward sweep forms no gradient for
the input of the first layer with parameters, since nothing reads it.
Weights live in a plain dict keyed by layer name so the training loop can
swap quantized tensors in and out without touching the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, ParamError, ShapeError

LAYER_KINDS = ("dense", "conv2d", "relu", "flatten")
PADDING_MODES = ("valid", "same")


@dataclass(frozen=True)
class LayerSpec:
    """Shape and quantization parameters for one layer.

    Dense layers use in_features/out_features; conv2d layers use
    in_channels/out_channels/kernel/stride/padding. relu and flatten carry
    no parameters and ignore the shape fields. `quantize` marks the weight
    tensor (never the bias) for clustering during quantization training.
    """

    kind: str
    in_features: int = 0
    out_features: int = 0
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    padding: str = "valid"
    quantize: bool = False

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ParamError(f"unknown layer kind {self.kind!r}")
        if self.kind == "dense":
            if self.in_features < 1 or self.out_features < 1:
                raise ParamError("dense layer needs in_features and out_features >= 1")
        elif self.kind == "conv2d":
            if self.in_channels < 1 or self.out_channels < 1 or self.kernel < 1:
                raise ParamError("conv2d layer needs channels and kernel >= 1")
            if self.stride < 1:
                raise ParamError("conv2d stride must be >= 1")
            if self.padding not in PADDING_MODES:
                raise ParamError(f"padding must be one of {PADDING_MODES}")
        elif self.quantize:
            raise ParamError(f"{self.kind} layers carry no weights to quantize")

    @property
    def has_params(self) -> bool:
        return self.kind in ("dense", "conv2d")

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        if self.kind == "dense":
            return {"w": (self.out_features, self.in_features),
                    "b": (self.out_features,)}
        if self.kind == "conv2d":
            return {"w": (self.out_channels, self.in_channels,
                          self.kernel, self.kernel),
                    "b": (self.out_channels,)}
        return {}


def _same_pad(size: int, kernel: int, stride: int) -> tuple[int, int]:
    # Pad so output size = ceil(size / stride), split with the extra pixel after.
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def _conv_patches(x: np.ndarray, kernel: int, stride: int, padding: str):
    """Gather every kernel window of x into one patch matrix.

    Returns (patches, padded_shape, pads). patches has shape
    (c·kernel·kernel, n, out_h, out_w), its rows in w.reshape(o, -1)'s order,
    so a convolution is one GEMM. x is padded only when padding adds pixels.
    """
    n, c, h, w = x.shape
    ph = pw = (0, 0)
    if padding == "same":
        ph, pw = _same_pad(h, kernel, stride), _same_pad(w, kernel, stride)
    if any(ph + pw):
        x = np.pad(x, ((0, 0), (0, 0), ph, pw))
    hp, wp = x.shape[2], x.shape[3]
    if hp < kernel or wp < kernel:
        raise ShapeError(f"kernel {kernel} exceeds padded input {hp}x{wp}")
    out_h, out_w = (hp - kernel) // stride + 1, (wp - kernel) // stride + 1
    patches = np.empty((c, kernel, kernel, n, out_h, out_w), dtype=x.dtype)
    xc = x.transpose(1, 0, 2, 3)
    for i in range(kernel):
        for j in range(kernel):
            patches[:, i, j] = xc[:, :, i : i + stride * out_h : stride,
                                  j : j + stride * out_w : stride]
    return patches.reshape(-1, n, out_h, out_w), x.shape, (ph, pw)


def _conv_forward(x, w, b, spec: LayerSpec):
    patches, padded_shape, pads = _conv_patches(x, spec.kernel, spec.stride,
                                                spec.padding)
    y = w.reshape(len(w), -1) @ patches.reshape(len(patches), -1)
    y = (y + b[:, None]).reshape(len(w), *patches.shape[1:])
    return y.transpose(1, 0, 2, 3), (patches, padded_shape, pads, x.shape)


def _conv_backward(gy, spec: LayerSpec, cache, w=None):
    """Weight and bias gradients, and the input gradient when w is given."""
    patches, (_, c, hp, wp), (ph, pw), x_shape = cache
    k, s, out_h, out_w = spec.kernel, spec.stride, gy.shape[2], gy.shape[3]
    g = gy.transpose(1, 0, 2, 3).reshape(gy.shape[1], -1)
    gw = (g @ patches.reshape(len(patches), -1).T).reshape(-1, c, k, k)
    if w is None:
        return gw, g.sum(axis=1), None
    gpatch = (w.reshape(len(w), -1).T @ g).reshape(c, k, k, *patches.shape[1:])
    gxp = np.zeros((c, x_shape[0], hp, wp))
    for i in range(k):
        for j in range(k):
            gxp[:, :, i : i + s * out_h : s, j : j + s * out_w : s] += gpatch[:, i, j]
    gx = gxp.transpose(1, 0, 2, 3)[:, :, ph[0] : hp - ph[1], pw[0] : wp - pw[1]]
    return gw, g.sum(axis=1), gx


@dataclass
class Network:
    """A feed-forward stack of LayerSpecs operating on a weights dict.

    Weight tensors are external state keyed "layer{i}.w" / "layer{i}.b",
    which keeps quantization (which rewrites tensors between steps) out of
    the network's own bookkeeping.
    """

    layers: tuple[LayerSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.layers = tuple(self.layers)
        if not self.layers:
            raise ParamError("network needs at least one layer")

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {}
        for i, spec in enumerate(self.layers):
            for name, shape in spec.param_shapes().items():
                shapes[f"layer{i}.{name}"] = shape
        return shapes

    def quantized_keys(self) -> tuple[str, ...]:
        """Weight-tensor keys subject to clustering, in layer order."""
        return tuple(
            f"layer{i}.w"
            for i, spec in enumerate(self.layers)
            if spec.quantize and spec.has_params
        )

    def init_weights(self, seed: int = 0) -> dict[str, np.ndarray]:
        """He-normal weights, zero biases, deterministic in the seed."""
        rng = np.random.default_rng(seed)
        weights: dict[str, np.ndarray] = {}
        for i, spec in enumerate(self.layers):
            for name, shape in spec.param_shapes().items():
                if name == "b":
                    weights[f"layer{i}.{name}"] = np.zeros(shape)
                else:
                    fan_in = int(np.prod(shape[1:]))
                    weights[f"layer{i}.{name}"] = rng.normal(
                        0.0, np.sqrt(2.0 / fan_in), size=shape
                    )
        return weights

    def _check_weights(self, weights: dict[str, np.ndarray]):
        for name, shape in self.param_shapes().items():
            if name not in weights:
                raise ShapeError(f"missing weight tensor {name!r}")
            if tuple(weights[name].shape) != shape:
                raise ShapeError(
                    f"{name}: expected shape {shape}, got {tuple(weights[name].shape)}"
                )

    def forward(
        self, weights: dict[str, np.ndarray], x: np.ndarray, caches: list | None = None
    ) -> np.ndarray:
        """Run the stack; pass a list as `caches` to retain backward state."""
        self._check_weights(weights)
        out = np.asarray(x, dtype=np.float64)
        for i, spec in enumerate(self.layers):
            if spec.kind == "dense":
                if out.ndim != 2 or out.shape[1] != spec.in_features:
                    raise ShapeError(
                        f"layer{i}: dense expects (n, {spec.in_features}), "
                        f"got {out.shape}"
                    )
                w = weights[f"layer{i}.w"]
                cache = out
                out = out @ w.T + weights[f"layer{i}.b"]
            elif spec.kind == "conv2d":
                if out.ndim != 4 or out.shape[1] != spec.in_channels:
                    raise ShapeError(
                        f"layer{i}: conv2d expects (n, {spec.in_channels}, h, w), "
                        f"got {out.shape}"
                    )
                out, cache = _conv_forward(
                    out, weights[f"layer{i}.w"], weights[f"layer{i}.b"], spec
                )
            elif spec.kind == "relu":
                cache = out > 0
                out = np.maximum(out, 0.0)
            else:
                cache = out.shape
                out = out.reshape(out.shape[0], -1)
            if caches is not None:
                caches.append(cache)
        return out

    def backward(
        self,
        weights: dict[str, np.ndarray],
        caches: list,
        grad_out: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """Reverse sweep from d(loss)/d(output); returns grads per tensor.

        A conv layer's weight and input gradients are one GEMM each against
        its patch matrix. The sweep ends at the lowest-index layer with
        parameters and forms no gradient for that layer's input, which no
        tensor's gradient needs; so that layer's weights are not read.
        """
        grads: dict[str, np.ndarray] = {}
        first = next((i for i, s in enumerate(self.layers) if s.has_params),
                     len(self.layers))
        g = grad_out
        for i in range(len(self.layers) - 1, first - 1, -1):
            spec = self.layers[i]
            cache = caches[i]
            w = weights[f"layer{i}.w"] if spec.has_params and i > first else None
            if spec.kind == "dense":
                grads[f"layer{i}.w"] = g.T @ cache
                grads[f"layer{i}.b"] = g.sum(axis=0)
                g = None if w is None else g @ w
            elif spec.kind == "conv2d":
                grads[f"layer{i}.w"], grads[f"layer{i}.b"], g = _conv_backward(
                    g, spec, cache, w
                )
            elif spec.kind == "relu":
                g = g * cache
            else:
                g = g.reshape(cache)
        return grads


def _check_labels(logits: np.ndarray, labels: np.ndarray):
    """One integer label per row of 2-D logits, each indexing a logit:
    0 <= label < width."""
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ShapeError(f"labels shape {labels.shape} != ({logits.shape[0]},)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError(f"labels must be integers, got {labels.dtype}")
    width = logits.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= width):
        raise ShapeError(
            f"labels span {labels.min()}..{labels.max()}, outside 0..{width - 1} "
            f"for {width} logits"
        )


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits."""
    _check_labels(logits, labels)
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(n), labels]))
    probs = np.exp(shifted - log_z[:, None])
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / n


def squared_error(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared 2-norm against one-hot targets, with gradient."""
    _check_labels(logits, labels)
    n = logits.shape[0]
    diff = np.array(logits, dtype=np.float64)
    diff[np.arange(n), labels] -= 1.0
    loss = float((diff * diff).sum() / n)
    return loss, 2.0 * diff / n


LOSS_KINDS = ("cross_entropy", "squared_error")


def loss_and_grad(
    net: Network,
    weights: dict[str, np.ndarray],
    x: np.ndarray,
    labels: np.ndarray,
    loss_kind: str = "cross_entropy",
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss over one batch and exact gradients for every weight tensor."""
    if loss_kind not in LOSS_KINDS:
        raise ParamError(f"unknown loss {loss_kind!r}")
    if len(x) == 0:
        raise ParamError("batch is empty")
    caches: list = []
    logits = net.forward(weights, x, caches=caches)
    if loss_kind == "cross_entropy":
        loss, grad_out = softmax_cross_entropy(logits, labels)
    else:
        loss, grad_out = squared_error(logits, labels)
    if not np.isfinite(loss):
        raise NumericsError(f"non-finite loss {loss}")
    return loss, net.backward(weights, caches, grad_out)
