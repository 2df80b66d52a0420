"""Quantization-aware training loop: gradients, instrumentation, reports."""

from collections import Counter

import numpy as np
import pytest

import idkm.gradcheck as gradcheck
import idkm.gradients as gradients
import idkm.pq as pq
import idkm.training as training
from idkm.data import synthetic_blobs
from idkm.errors import AdjointSingular, ParamError, ShapeError
from idkm.gradients import GradBackend
from idkm.nn import LayerSpec, Network, loss_and_grad
from idkm.pq import Codebook, SoftAssignment, bits_per_weight
from idkm.solver import InitStrategy
from idkm.training import (
    TrainConfig,
    TrainState,
    evaluate,
    quantize_weights,
    quantized_train_step,
    solve_codebooks,
    train,
    train_float,
)

REPORT_FIELDS = {
    "epoch", "step", "loss", "top1_hard", "top1_soft", "backend", "k", "d",
    "tau", "cluster_iters", "residual", "retained_iterates", "t_forward_s",
    "t_backward_s", "unconverged_solves", "fallbacks",
}


def blob_task(seed=0, points=40):
    data = synthetic_blobs(seed, classes=4, points_per_class=points, dim=8,
                           separation=6.0)
    net = Network(layers=(
        LayerSpec(kind="dense", in_features=8, out_features=12, quantize=True),
        LayerSpec(kind="relu"),
        LayerSpec(kind="dense", in_features=12, out_features=4, quantize=True),
    ))
    return net, net.init_weights(seed), data


def small_cfg(**kw):
    base = dict(
        k=4, d=1, tau=0.01, eps=1e-8, max_cluster_iters=200,
        learning_rate=0.05, epochs=1, batch_size=32,
        init=InitStrategy(seed=0), seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestBitsPerWeight:
    def test_frozen_values(self):
        assert bits_per_weight(8, 1) == 3.0
        assert bits_per_weight(2, 2) == 0.5
        assert bits_per_weight(4, 1) == 2.0

    def test_validation(self):
        with pytest.raises(ParamError):
            bits_per_weight(0, 1)
        with pytest.raises(ParamError):
            bits_per_weight(4, 0)


class TestTrainConfig:
    def test_zero_epochs_allowed_negative_rejected(self):
        assert small_cfg(epochs=0).epochs == 0
        with pytest.raises(ParamError):
            small_cfg(epochs=-1)

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ParamError):
            small_cfg(learning_rate=0.0)
        with pytest.raises(ParamError):
            small_cfg(tau=0.0)
        with pytest.raises(ParamError):
            small_cfg(k=0)
        with pytest.raises(ParamError):
            small_cfg(batch_size=0)
        with pytest.raises(ParamError):
            small_cfg(loss_kind="hinge")


class TestQuantizedStep:
    def test_unmarked_layers_get_plain_sgd(self):
        net = Network(layers=(
            LayerSpec(kind="dense", in_features=8, out_features=4),
        ))
        weights = net.init_weights(1)
        _, _, data = blob_task(1)
        x, y = data.inputs[:16], data.labels[:16]
        cfg = small_cfg()
        _, grads = loss_and_grad(net, weights, x, y, cfg.loss_kind)
        new_weights, metrics = quantized_train_step(
            net, x, y, TrainState(weights=dict(weights)), cfg
        )
        for name in weights:
            np.testing.assert_array_equal(
                new_weights[name],
                weights[name] - cfg.learning_rate * grads[name],
            )
        assert metrics.retained_iterate_count == 0
        assert metrics.per_layer == {}

    def test_lossless_when_weights_are_already_clustered(self):
        # Weights drawn from exactly k values cluster onto themselves, so the
        # quantized forward pass reproduces the float loss.
        net, _, data = blob_task(2)
        rng = np.random.default_rng(2)
        weights = {
            name: rng.choice([-0.5, 0.5], size=shape)
            for name, shape in net.param_shapes().items()
        }
        x, y = data.inputs[:16], data.labels[:16]
        cfg = small_cfg(k=2, tau=1e-6)
        float_loss, _ = loss_and_grad(net, weights, x, y, cfg.loss_kind)
        _, metrics = quantized_train_step(
            net, x, y, TrainState(weights=dict(weights)), cfg
        )
        assert metrics.loss == pytest.approx(float_loss, abs=1e-6)

    def test_backends_agree_after_one_step(self):
        net, weights, data = blob_task(3)
        x, y = data.inputs[:32], data.labels[:32]
        updates = {}
        for kind in ("unrolled", "implicit", "jfb"):
            cfg = small_cfg(
                eps=1e-11, max_cluster_iters=5000,
                backend=GradBackend(kind=kind),
            )
            new_weights, _ = quantized_train_step(
                net, x, y, TrainState(weights=dict(weights)), cfg
            )
            updates[kind] = np.concatenate(
                [(new_weights[n] - weights[n]).ravel() for n in sorted(weights)]
            )
        ref = np.linalg.norm(updates["unrolled"])
        assert np.linalg.norm(updates["implicit"] - updates["unrolled"]) / ref <= 1e-3
        # jfb drops the inverse factor, so it only tracks the direction
        cos = updates["jfb"] @ updates["unrolled"] / (
            np.linalg.norm(updates["jfb"]) * ref
        )
        assert cos > 0.99

    def test_retained_iterates_one_shot_vs_unrolled(self):
        net, weights, data = blob_task(4)
        x, y = data.inputs[:16], data.labels[:16]
        for kind in ("implicit", "jfb"):
            _, metrics = quantized_train_step(
                net, x, y, TrainState(weights=dict(weights)),
                small_cfg(backend=GradBackend(kind=kind)),
            )
            assert metrics.retained_iterate_count == 1
        forced_t = 4
        _, metrics = quantized_train_step(
            net, x, y, TrainState(weights=dict(weights)),
            small_cfg(backend=GradBackend(kind="unrolled"), eps=1e-300,
                      max_cluster_iters=forced_t),
        )
        assert metrics.cluster_iters == forced_t
        assert metrics.retained_iterate_count == forced_t

    def test_what_each_backend_keeps_for_its_backward_in_bytes(self, monkeypatch):
        # Besides `assignment` at C*, an unrolled solve keeps t * k * (d+1)
        # float64 sums and one more soft assignment, at trace[-1]; the
        # one-shot backends keep neither.
        results = {}
        real_solve = training.solve_fixed_point

        def solve(w, *args, **kwargs):
            results[w.m] = real_solve(w, *args, **kwargs)
            return results[w.m]

        monkeypatch.setattr(training, "solve_fixed_point", solve)
        net, weights, data = blob_task(4)
        x, y = data.inputs[:16], data.labels[:16]
        for kind in ("unrolled", "implicit", "jfb"):
            results.clear()
            cfg = small_cfg(k=4, d=2, backend=GradBackend(kind=kind))
            quantized_train_step(net, x, y, TrainState(weights=dict(weights)), cfg)
            assert len(results) == 2
            for m, result in results.items():
                if kind != "unrolled":
                    assert result.trace_sums is None
                    assert result.trace_assignment is None
                    continue
                t = result.iterations
                assert len(result.trace) == len(result.trace_sums) == t
                assert sum(a.nbytes + b.nbytes for a, b in result.trace_sums) == (
                    t * cfg.k * (cfg.d + 1) * 8
                )
                kept = result.trace_assignment
                assert isinstance(kept, SoftAssignment)
                assert kept.att.shape == kept.dist.shape == (cfg.k, m)
                np.testing.assert_array_equal(kept.c, result.trace[-1].data)

    def test_both_gradient_paths_are_live(self, monkeypatch):
        # The direct path (codebook held fixed) is the weight half of
        # soft_quantize_vjp; the cluster path is vjp_dC_dW. Zeroing either
        # must change the step.
        net, weights, data = blob_task(5)
        x, y = data.inputs[:16], data.labels[:16]
        real_cluster = training.vjp_dC_dW
        real_direct = training.soft_quantize_vjp

        def no_cluster(*args, **kwargs):
            return np.zeros_like(real_cluster(*args, **kwargs))

        def no_direct(*args, **kwargs):
            grad_w, grad_c = real_direct(*args, **kwargs)
            return np.zeros_like(grad_w), grad_c

        def step():
            out, _ = quantized_train_step(
                net, x, y, TrainState(weights=dict(weights)), small_cfg()
            )
            return np.concatenate([out[n].ravel() for n in sorted(out)])

        full = step()
        with monkeypatch.context() as patch:
            patch.setattr(training, "vjp_dC_dW", no_cluster)
            without_cluster = step()
        with monkeypatch.context() as patch:
            patch.setattr(training, "soft_quantize_vjp", no_direct)
            without_direct = step()
        assert not np.array_equal(full, without_cluster)
        assert not np.array_equal(full, without_direct)

    def test_warm_start_reuses_the_previous_codebook(self):
        net, weights, data = blob_task(6)
        x, y = data.inputs[:16], data.labels[:16]
        state = TrainState(weights=dict(weights))
        cfg = small_cfg()
        state.weights, first = quantized_train_step(net, x, y, state, cfg)
        assert set(state.codebooks) == set(net.quantized_keys())
        books = {k: v.data.copy() for k, v in state.codebooks.items()}
        cold_state = TrainState(weights=dict(state.weights))
        _, warm = quantized_train_step(net, x, y, state, cfg)
        _, cold = quantized_train_step(net, x, y, cold_state, cfg)
        # starting from the previous fixed point beats reseeding kmeans++
        assert warm.cluster_iters < cold.cluster_iters
        refreshed = [not np.array_equal(books[k], state.codebooks[k].data)
                     for k in books]
        assert all(refreshed)

    @pytest.mark.parametrize("shape", [(3, 1), (4, 2)])
    def test_warm_codebook_of_another_shape_is_refused(self, shape):
        net, weights, data = blob_task(6)
        x, y = data.inputs[:16], data.labels[:16]
        state = TrainState(weights=dict(weights))
        state.codebooks["layer2.w"] = Codebook(np.zeros(shape))
        with pytest.raises(ShapeError, match="layer2.w"):
            quantized_train_step(net, x, y, state, small_cfg())

    # The adjoint fails only where adjoint_inverse refuses I - dF/dC*; these
    # two plant that refusal on every layer.
    def test_divergence_surfaces_the_layer_name(self, monkeypatch):
        def refused(j_c):
            raise AdjointSingular("synthetic failure")

        monkeypatch.setattr(training, "adjoint_inverse", refused)
        net, weights, data = blob_task(7)
        x, y = data.inputs[:16], data.labels[:16]
        with pytest.raises(AdjointSingular, match="layer0.w"):
            quantized_train_step(
                net, x, y, TrainState(weights=dict(weights)), small_cfg()
            )

    def test_divergence_falls_back_to_jfb_when_asked(self, monkeypatch):
        def refused(j_c):
            raise AdjointSingular("synthetic failure")

        monkeypatch.setattr(training, "adjoint_inverse", refused)
        net, weights, data = blob_task(7)
        x, y = data.inputs[:16], data.labels[:16]
        state = TrainState(weights=dict(weights))
        _, metrics = quantized_train_step(
            net, x, y, state, small_cfg(fallback_jfb=True),
        )
        assert all(s["fallback"] for s in metrics.per_layer.values())
        # A layer that fell back keeps no chord for its next solve.
        assert state.chords == {}

    # dF/dC* planted on layer0.w (m = 96) as diag(1, 0, ...), which makes
    # I - dF/dC* singular, or as diag(1 - 1e-12, 0, ...), which leaves it
    # invertible with condition number 1e12, past COND_LIMIT.
    @pytest.mark.parametrize("corner", [1.0, 1.0 - 1e-12],
                             ids=["singular", "ill-conditioned"])
    def test_adjoint_outcome_is_reported_per_layer(self, monkeypatch, corner):
        real = pq.SoftAssignment.j_c.func

        def planted(asg):
            j_c = real(asg)
            if asg.w.shape[1] != 96:
                return j_c
            out = np.zeros_like(j_c)
            out[0, 0] = corner
            return out

        monkeypatch.setattr(pq.SoftAssignment, "j_c", property(planted))
        net, weights, data = blob_task(7)
        x, y = data.inputs[:16], data.labels[:16]
        state = TrainState(weights=dict(weights))
        _, metrics = quantized_train_step(
            net, x, y, state, small_cfg(fallback_jfb=True),
        )
        layers = metrics.per_layer
        assert (layers["layer0.w"]["adjoint"], layers["layer0.w"]["fallback"]) == (
            "singular", True)
        assert (layers["layer2.w"]["adjoint"], layers["layer2.w"]["fallback"]) == (
            "solved", False)
        assert set(state.chords) == {"layer2.w"}
        # Without the fallback the step raises, naming the layer.
        with pytest.raises(AdjointSingular, match="layer0.w: adjoint: I - dF/dC"):
            quantized_train_step(
                net, x, y, TrainState(weights=dict(weights)), small_cfg()
            )

    @pytest.mark.parametrize("kind", ["jfb", "unrolled"])
    def test_only_implicit_layers_report_an_adjoint(self, kind):
        net, weights, data = blob_task(7)
        x, y = data.inputs[:16], data.labels[:16]
        _, metrics = quantized_train_step(
            net, x, y, TrainState(weights=dict(weights)),
            small_cfg(backend=GradBackend(kind=kind)),
        )
        assert all("adjoint" not in s for s in metrics.per_layer.values())

    def test_large_layer_gets_the_exact_implicit_gradient(self, monkeypatch):
        # The 784 x 128 layer of the benchmark's MLP, 100,352 weights, whose
        # passes run by column blocks. Its cluster gradient is u (I - dF/dC*)^-1
        # dF/dW, here with dF/dW from gradcheck's dense oracle; at this step
        # rho(dF/dC*) is 0.87, and jfb's u dF/dW is 85% away from it.
        data = synthetic_blobs(0, classes=10, points_per_class=4, dim=784,
                               separation=4.0)
        net = Network(layers=(
            LayerSpec(kind="dense", in_features=784, out_features=128,
                      quantize=True),
            LayerSpec(kind="relu"),
            LayerSpec(kind="dense", in_features=128, out_features=10,
                      quantize=True),
        ))
        seen = {}
        real = training.vjp_dC_dW

        def recording(upstream, w, c_star, tau, **kwargs):
            out = real(upstream, w, c_star, tau, **kwargs)
            seen[w.m] = (upstream, w, c_star, kwargs["assignment"], out)
            return out

        monkeypatch.setattr(training, "vjp_dC_dW", recording)
        cfg = small_cfg(tau=5e-4, eps=1e-6, max_cluster_iters=30, batch_size=40)
        state = TrainState(weights=net.init_weights(0))
        _, metrics = quantized_train_step(
            net, data.inputs, data.labels, state, cfg
        )
        stats = metrics.per_layer["layer0.w"]
        assert (stats["adjoint"], stats["fallback"]) == ("solved", False)
        upstream, w, c_star, asg, out = seen[100_352]
        inverse = np.linalg.inv(np.eye(4) - asg.j_c)
        dense = gradcheck.dense_weight_jacobian(w.data, c_star.data, cfg.tau)
        expected = upstream @ inverse @ dense
        assert gradcheck.rel_err(out, expected) <= 1e-8
        np.testing.assert_array_equal(state.chords["layer0.w"], inverse)


def count_soft_assignments(monkeypatch):
    """Count distance and attention passes per layer size m, by patching
    pq's two kernels where pq.soft_assign, the one caller, looks them up.

    Returns the live counters, a snapshot of them taken right after each
    layer's solve (keyed by m), and the list of dense dF/dW builds.
    """
    passes = {"distances": Counter(), "attention": Counter()}
    after_solve = {}
    dense_builds = []
    distances, attention = pq._distances, pq.attention

    def counted_distances(wd, cd):
        passes["distances"][wd.shape[1]] += 1
        return distances(wd, cd)

    def counted_attention(dist, tau):
        passes["attention"][dist.shape[1]] += 1
        return attention(dist, tau)

    real_solve = training.solve_fixed_point

    def solve(w, *args, **kwargs):
        result = real_solve(w, *args, **kwargs)
        after_solve[w.m] = {kind: count[w.m] for kind, count in passes.items()}
        return result

    monkeypatch.setattr(pq, "_distances", counted_distances)
    monkeypatch.setattr(pq, "attention", counted_attention)
    monkeypatch.setattr(training, "solve_fixed_point", solve)
    monkeypatch.setattr(gradcheck, "dense_weight_jacobian",
                        lambda *args: dense_builds.append(args))
    return passes, after_solve, dense_builds


class TestOneSoftAssignmentPerStep:
    def test_implicit_with_jfb_retry_reuses_the_solvers_evaluation(self, monkeypatch):
        passes, after_solve, dense_builds = count_soft_assignments(monkeypatch)
        real = training.adjoint_inverse

        def invert_then_refuse(j_c):
            real(j_c)
            raise AdjointSingular("synthetic failure")

        monkeypatch.setattr(training, "adjoint_inverse", invert_then_refuse)
        net, weights, data = blob_task(7)
        x, y = data.inputs[:16], data.labels[:16]
        _, metrics = quantized_train_step(
            net, x, y, TrainState(weights=dict(weights)),
            small_cfg(fallback_jfb=True),
        )
        assert len(metrics.per_layer) == 2
        for name, stats in metrics.per_layer.items():
            m = weights[name].size
            assert stats["fallback"]
            assert passes["attention"][m] <= stats["iters"] + 1
            assert passes["distances"][m] == passes["attention"][m]
            # soft-quantize, its VJP, the adjoint and the fallback add no pass.
            assert after_solve[m] == {k: count[m] for k, count in passes.items()}
        assert dense_builds == []

    def test_unrolled_sweep_runs_t_minus_1_kernel_passes(self, monkeypatch):
        # The last update's VJP reuses the evaluation the solve kept at
        # trace[-1]; each of the t - 1 earlier ones is one pass of the
        # sweep kernel, and none goes through _distances or attention.
        passes, after_solve, dense_builds = count_soft_assignments(monkeypatch)
        sweeps = Counter()
        real_sweep = gradients.f_vjp_from_sums

        def counted_sweep(wd, *args):
            sweeps[wd.shape[1]] += 1
            return real_sweep(wd, *args)

        monkeypatch.setattr(gradients, "f_vjp_from_sums", counted_sweep)
        net, weights, data = blob_task(7)
        x, y = data.inputs[:16], data.labels[:16]
        for max_iters in (200, 1):
            sweeps.clear()
            _, metrics = quantized_train_step(
                net, x, y, TrainState(weights=dict(weights)),
                small_cfg(backend=GradBackend(kind="unrolled"),
                          max_cluster_iters=max_iters),
            )
            for name, stats in metrics.per_layer.items():
                m = weights[name].size
                assert (stats["iters"] > 1) == (max_iters > 1)
                assert sweeps[m] == stats["iters"] - 1
                assert passes["attention"][m] == after_solve[m]["attention"]
                assert passes["distances"][m] == passes["attention"][m]
        assert dense_builds == []


class TestQuantizeAndEvaluate:
    def test_hard_quantization_snaps_to_codewords(self):
        net, weights, _ = blob_task(8)
        cfg = small_cfg()
        books = solve_codebooks(net, weights, cfg)
        assert set(books) == set(net.quantized_keys())
        hard = quantize_weights(net, weights, books, mode="hard")
        for key in net.quantized_keys():
            values = set(np.round(books[key].data.ravel(), 12))
            assert set(np.round(hard[key].ravel(), 12)) <= values
        # biases pass through untouched
        np.testing.assert_array_equal(hard["layer0.b"], weights["layer0.b"])

    def test_quantize_weights_validation(self):
        net, weights, _ = blob_task(8)
        books = solve_codebooks(net, weights, small_cfg())
        with pytest.raises(ParamError):
            quantize_weights(net, weights, books, mode="soft")
        with pytest.raises(ParamError):
            quantize_weights(net, weights, books, mode="binary")
        with pytest.raises(ShapeError):
            quantize_weights(net, weights, {}, mode="hard")

    def test_constant_predictor_scores_perfectly(self):
        net = Network(layers=(
            LayerSpec(kind="dense", in_features=2, out_features=3),
        ))
        weights = {"layer0.w": np.zeros((3, 2)),
                   "layer0.b": np.array([1.0, 0.0, 0.0])}
        data = synthetic_blobs(0, classes=1, points_per_class=20, dim=2,
                               separation=0.0)
        assert evaluate(net, weights, data) == 1.0

    def test_eval_modes(self):
        net, weights, data = blob_task(9)
        books = solve_codebooks(net, weights, small_cfg())
        acc_float = evaluate(net, weights, data)
        acc_hard = evaluate(net, weights, data, books, mode="hard")
        assert 0.0 <= acc_float <= 1.0 and 0.0 <= acc_hard <= 1.0
        with pytest.raises(ParamError):
            evaluate(net, weights, data, books, mode="soft")
        with pytest.raises(ParamError):
            evaluate(net, weights, data, mode="hard")


def _strip_timings(record):
    return {k: v for k, v in record.items()
            if k not in ("t_forward_s", "t_backward_s")}


class TestTrainLoop:
    def test_epoch_records_carry_the_full_field_set(self):
        net, weights, data = blob_task(10, points=10)
        history, _ = train(net, weights, small_cfg(epochs=1), data)
        assert len(history) == 2
        for record in history:
            assert set(record) == REPORT_FIELDS

    def test_epoch_records_count_fallbacks(self, monkeypatch):
        # One planted singular adjoint, on layer2.w in the run's second step
        # (each step inverts layer0.w's, then layer2.w's); every solve
        # converges and no other adjoint fails.
        real = training.adjoint_inverse
        calls = Counter()

        def refuse_once(j_c):
            calls["adjoint"] += 1
            if calls["adjoint"] == 4:
                raise AdjointSingular("planted")
            return real(j_c)

        monkeypatch.setattr(training, "adjoint_inverse", refuse_once)
        net, weights, data = blob_task(10, points=10)
        history, _ = train(
            net, weights, small_cfg(epochs=2, fallback_jfb=True), data
        )
        assert [r["fallbacks"] for r in history] == [0, 1, 0]
        assert [r["unconverged_solves"] for r in history] == [0, 0, 0]

    def test_epoch_records_count_unconverged_solves(self, monkeypatch):
        steps = []
        real = training.quantized_train_step

        def recording_step(*args):
            out = real(*args)
            steps.append(out[1])
            return out

        monkeypatch.setattr(training, "quantized_train_step", recording_step)
        net, weights, data = blob_task(10, points=10)
        # Five updates are too few for both cold solves (Newton steps take
        # them to 52 and 29 updates) and for some of the warm ones.
        cfg = small_cfg(epochs=2, max_cluster_iters=5, fallback_jfb=True)
        history, _ = train(net, weights, cfg, data)
        half = len(steps) // 2
        expected = [
            sum(not stats["converged"] for m in epoch for stats in m.per_layer.values())
            for epoch in (steps[:half], steps[half:])
        ]
        assert [r["unconverged_solves"] for r in history] == [2, *expected]
        assert 0 < sum(expected) < 2 * len(steps)

    def test_record_zero_counts_the_cold_solves_at_the_cap(self, monkeypatch):
        # One update cannot converge either cold solve, and record 0, which
        # no training step precedes, reports both.
        cold = []
        real = training.solve_fixed_point

        def recording_solve(*args, **kwargs):
            cold.append(real(*args, **kwargs))
            return cold[-1]

        monkeypatch.setattr(training, "solve_fixed_point", recording_solve)
        net, weights, data = blob_task(10, points=10)
        history, _ = train(net, weights, small_cfg(epochs=0, max_cluster_iters=1), data)
        assert len(cold) == 2 and not any(result.converged for result in cold)
        assert history[0]["unconverged_solves"] == 2

    def test_only_the_cold_solves_take_newton_steps(self, monkeypatch):
        newton = []
        real = training.solve_fixed_point

        def recording_solve(*args, **kwargs):
            newton.append(kwargs["newton"])
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "solve_fixed_point", recording_solve)
        net, weights, data = blob_task(10, points=10)
        train(net, weights, small_cfg(epochs=1), data)
        assert newton == [True, True] + [False] * (len(newton) - 2)
        assert len(newton) > 2

    @pytest.mark.parametrize("kind", ["implicit", "jfb", "unrolled"])
    def test_a_step_without_codebooks_solves_cold_by_the_one_rule(
        self, monkeypatch, kind
    ):
        # Every solve from k-means++ takes Newton steps, but a recorded one,
        # whose trace cannot hold a guarded step.
        newton = []
        real = training.solve_fixed_point

        def recording_solve(*args, **kwargs):
            newton.append(kwargs["newton"])
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "solve_fixed_point", recording_solve)
        net, weights, data = blob_task(10, points=10)
        quantized_train_step(
            net, data.inputs[:16], data.labels[:16],
            TrainState(weights=dict(weights)),
            small_cfg(backend=GradBackend(kind=kind)),
        )
        assert newton == [kind != "unrolled"] * 2

    def test_zero_epochs_is_pure_evaluation(self):
        net, weights, data = blob_task(10, points=10)
        history, state = train(net, weights, small_cfg(epochs=0), data)
        assert len(history) == 1
        assert history[0]["loss"] is None
        assert history[0]["epoch"] == 0
        for name in weights:
            np.testing.assert_array_equal(state.weights[name], weights[name])

    def test_histories_are_deterministic(self):
        net, weights, data = blob_task(11, points=10)
        first, _ = train(net, weights, small_cfg(epochs=2), data)
        second, _ = train(net, weights, small_cfg(epochs=2), data)
        assert ([_strip_timings(r) for r in first]
                == [_strip_timings(r) for r in second])

    def test_loss_goes_down_on_blobs(self):
        net, weights, data = blob_task(12)
        history, _ = train(net, weights, small_cfg(epochs=3), data)
        assert history[-1]["loss"] < history[1]["loss"]
        assert history[-1]["top1_hard"] >= history[0]["top1_hard"] - 0.05

    def test_float_pretraining_reaches_the_blobs_ceiling(self):
        net, weights, data = blob_task(13, points=100)
        history, trained = train_float(
            net, weights, data, learning_rate=0.1, epochs=10, batch_size=32
        )
        assert history[-1]["top1"] >= 0.95
        assert evaluate(net, trained, data) >= 0.95

    def test_train_float_validates_hyperparameters(self):
        net, weights, data = blob_task(13, points=5)
        with pytest.raises(ParamError):
            train_float(net, weights, data, learning_rate=0.0)
