"""Layers, losses, and reverse-mode gradients for the small network stack."""

import numpy as np
import pytest

from idkm.errors import ParamError, ShapeError
from idkm.nn import (
    LayerSpec,
    Network,
    loss_and_grad,
    softmax_cross_entropy,
    squared_error,
)


def naive_conv2d(x, w, b, stride, padding):
    """Direct quadruple-loop cross-correlation used as an oracle."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    if padding == "same":
        out_h, out_w = -(-h // stride), -(-wd // stride)
        th = max((out_h - 1) * stride + kh - h, 0)
        tw = max((out_w - 1) * stride + kw - wd, 0)
        x = np.pad(x, ((0, 0), (0, 0),
                       (th // 2, th - th // 2), (tw // 2, tw - tw // 2)))
    else:
        out_h = (h - kh) // stride + 1
        out_w = (wd - kw) // stride + 1
    out = np.zeros((n, o, out_h, out_w))
    for ni in range(n):
        for oi in range(o):
            for i in range(out_h):
                for j in range(out_w):
                    acc = b[oi]
                    for ci in range(c):
                        for a in range(kh):
                            for bb in range(kw):
                                acc += (
                                    x[ni, ci, i * stride + a, j * stride + bb]
                                    * w[oi, ci, a, bb]
                                )
                    out[ni, oi, i, j] = acc
    return out


class TestLayerSpec:
    def test_dense_needs_feature_counts(self):
        with pytest.raises(ParamError):
            LayerSpec(kind="dense", in_features=0, out_features=3)

    def test_conv_needs_channels_kernel_and_stride(self):
        with pytest.raises(ParamError):
            LayerSpec(kind="conv2d", in_channels=1, out_channels=0, kernel=3)
        with pytest.raises(ParamError):
            LayerSpec(kind="conv2d", in_channels=1, out_channels=1, kernel=3,
                      stride=0)
        with pytest.raises(ParamError):
            LayerSpec(kind="conv2d", in_channels=1, out_channels=1, kernel=3,
                      padding="reflect")

    def test_weightless_layers_cannot_be_quantized(self):
        with pytest.raises(ParamError):
            LayerSpec(kind="relu", quantize=True)
        with pytest.raises(ParamError):
            LayerSpec(kind="flatten", quantize=True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParamError):
            LayerSpec(kind="dropout")

    def test_param_shapes(self):
        dense = LayerSpec(kind="dense", in_features=3, out_features=5)
        assert dense.param_shapes() == {"w": (5, 3), "b": (5,)}
        conv = LayerSpec(kind="conv2d", in_channels=2, out_channels=4, kernel=3)
        assert conv.param_shapes() == {"w": (4, 2, 3, 3), "b": (4,)}
        assert LayerSpec(kind="relu").param_shapes() == {}


class TestForward:
    def test_identity_dense_passes_input_through(self):
        net = Network(layers=(LayerSpec(kind="dense", in_features=3,
                                        out_features=3),))
        weights = {"layer0.w": np.eye(3), "layer0.b": np.zeros(3)}
        x = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(net.forward(weights, x), x)

    def test_relu_clamps_negatives(self):
        net = Network(layers=(LayerSpec(kind="relu"),))
        out = net.forward({}, np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    @pytest.mark.parametrize("stride,padding", [(1, "valid"), (2, "valid"),
                                                (2, "same")])
    def test_conv_matches_the_naive_loop(self, stride, padding):
        rng = np.random.default_rng(17)
        spec = LayerSpec(kind="conv2d", in_channels=2, out_channels=3,
                         kernel=3, stride=stride, padding=padding)
        net = Network(layers=(spec,))
        weights = {
            "layer0.w": rng.normal(size=(3, 2, 3, 3)),
            "layer0.b": rng.normal(size=3),
        }
        x = rng.normal(size=(2, 2, 7, 6))
        got = net.forward(weights, x)
        ref = naive_conv2d(x, weights["layer0.w"], weights["layer0.b"],
                           stride, padding)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, atol=1e-10, rtol=0)

    def test_same_padding_output_size(self):
        spec = LayerSpec(kind="conv2d", in_channels=1, out_channels=1,
                         kernel=3, stride=2, padding="same")
        net = Network(layers=(spec,))
        weights = {"layer0.w": np.ones((1, 1, 3, 3)), "layer0.b": np.zeros(1)}
        out = net.forward(weights, np.ones((1, 1, 5, 5)))
        assert out.shape == (1, 1, 3, 3)

    def test_input_shape_checked(self):
        net = Network(layers=(LayerSpec(kind="dense", in_features=3,
                                        out_features=2),))
        weights = {"layer0.w": np.zeros((2, 3)), "layer0.b": np.zeros(2)}
        with pytest.raises(ShapeError):
            net.forward(weights, np.zeros((1, 4)))

    def test_missing_and_misshapen_weights_checked(self):
        net = Network(layers=(LayerSpec(kind="dense", in_features=3,
                                        out_features=2),))
        with pytest.raises(ShapeError):
            net.forward({"layer0.w": np.zeros((2, 3))}, np.zeros((1, 3)))
        with pytest.raises(ShapeError):
            net.forward(
                {"layer0.w": np.zeros((3, 2)), "layer0.b": np.zeros(2)},
                np.zeros((1, 3)),
            )

    def test_empty_network_rejected(self):
        with pytest.raises(ParamError):
            Network(layers=())


class TestNetworkBookkeeping:
    def _net(self):
        return Network(layers=(
            LayerSpec(kind="conv2d", in_channels=1, out_channels=2, kernel=3,
                      quantize=True),
            LayerSpec(kind="relu"),
            LayerSpec(kind="flatten"),
            LayerSpec(kind="dense", in_features=8, out_features=4,
                      quantize=True),
            LayerSpec(kind="dense", in_features=4, out_features=2),
        ))

    def test_quantized_keys_in_layer_order(self):
        assert self._net().quantized_keys() == ("layer0.w", "layer3.w")

    def test_init_weights_deterministic_with_zero_biases(self):
        net = self._net()
        a = net.init_weights(3)
        b = net.init_weights(3)
        assert set(a) == set(net.param_shapes())
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
        np.testing.assert_array_equal(a["layer0.b"], np.zeros(2))


class TestLosses:
    def test_cross_entropy_frozen_value(self):
        loss, grad = softmax_cross_entropy(np.array([[0.0, 0.0]]),
                                           np.array([0]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        np.testing.assert_allclose(grad, [[-0.5, 0.5]], atol=1e-12)

    def test_cross_entropy_shape_checks(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros(3), np.array([0]))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0]))

    def test_squared_error_one_hot_encoding(self):
        loss, grad = squared_error(np.array([[0.5, 0.25]]), np.array([0]))
        assert loss == pytest.approx(0.25 + 0.0625, abs=1e-12)
        np.testing.assert_allclose(grad, [[-1.0, 0.5]], atol=1e-12)

    def test_squared_error_accepts_float_targets(self):
        logits = np.zeros((2, 3))
        loss, grad = squared_error(logits, np.zeros((2, 3)))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((2, 3)))

    def test_zero_network_zero_targets_zero_everything(self):
        net = Network(layers=(LayerSpec(kind="dense", in_features=2,
                                        out_features=2),))
        weights = {"layer0.w": np.zeros((2, 2)), "layer0.b": np.zeros(2)}
        loss, grads = loss_and_grad(
            net, weights, np.zeros((3, 2)), np.zeros((3, 2)),
            loss_kind="squared_error",
        )
        assert loss == 0.0
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_dense_squared_error_closed_form(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 4))
        x = rng.normal(size=(1, 4))
        y = np.array([1])
        net = Network(layers=(LayerSpec(kind="dense", in_features=4,
                                        out_features=3),))
        weights = {"layer0.w": w, "layer0.b": np.zeros(3)}
        loss, grads = loss_and_grad(net, weights, x, y,
                                    loss_kind="squared_error")
        target = np.array([[0.0, 1.0, 0.0]])
        diff = x @ w.T - target
        np.testing.assert_allclose(
            grads["layer0.w"], 2.0 * diff.T @ x, atol=1e-12
        )
        np.testing.assert_allclose(grads["layer0.b"], 2.0 * diff[0], atol=1e-12)

    def test_empty_batch_rejected(self):
        net = Network(layers=(LayerSpec(kind="dense", in_features=2,
                                        out_features=2),))
        weights = {"layer0.w": np.zeros((2, 2)), "layer0.b": np.zeros(2)}
        with pytest.raises(ParamError):
            loss_and_grad(net, weights, np.zeros((0, 2)),
                          np.zeros(0, dtype=int))

    def test_unknown_loss_rejected(self):
        net = Network(layers=(LayerSpec(kind="dense", in_features=2,
                                        out_features=2),))
        weights = {"layer0.w": np.zeros((2, 2)), "layer0.b": np.zeros(2)}
        with pytest.raises(ParamError):
            loss_and_grad(net, weights, np.zeros((1, 2)), np.array([0]),
                          loss_kind="hinge")


@pytest.mark.parametrize("loss_kind", ["cross_entropy", "squared_error"])
def test_gradients_match_finite_differences(loss_kind):
    """Whole-net reverse mode against central differences, h = 1e-5."""
    rng = np.random.default_rng(23)
    net = Network(layers=(
        LayerSpec(kind="conv2d", in_channels=1, out_channels=2, kernel=3,
                  stride=2, padding="same"),
        LayerSpec(kind="relu"),
        LayerSpec(kind="flatten"),
        LayerSpec(kind="dense", in_features=32, out_features=3),
    ))
    weights = net.init_weights(23)
    x = rng.normal(size=(4, 1, 7, 7))
    y = rng.integers(0, 3, size=4)

    _, grads = loss_and_grad(net, weights, x, y, loss_kind=loss_kind)
    for name, tensor in weights.items():
        fd = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            h = 1e-5
            for sign in (1.0, -1.0):
                bumped = {k: v.copy() for k, v in weights.items()}
                bumped[name][idx] += sign * h
                loss, _ = loss_and_grad(net, bumped, x, y, loss_kind=loss_kind)
                fd[idx] += sign * loss / (2 * h)
            it.iternext()
        err = np.linalg.norm(grads[name] - fd) / max(np.linalg.norm(fd), 1e-30)
        assert err <= 1e-4, f"{name}: {err}"
