"""Partition layout, attention, and quantizer maps: frozen values + properties."""

import inspect
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import idkm.pq as pq
from idkm.data import synthetic_blobs
from idkm.errors import NumericsError, ParamError, ShapeError
from idkm.gradients import GradBackend
from idkm.nn import LayerSpec, Network
from idkm.pq import (
    Codebook,
    WeightMatrix,
    attention,
    flatten_weights,
    hard_quantize,
    nearest_indices,
    partition_weights,
    soft_assign,
    soft_quantize,
    soft_quantize_vjp,
)
from idkm.solver import InitStrategy, solve_fixed_point
from idkm.training import TrainConfig, train

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _scalar_weights(values) -> WeightMatrix:
    return partition_weights(np.asarray(values, dtype=float), 1)


def _scalar_codebook(values) -> Codebook:
    return Codebook(np.asarray(values, dtype=float).reshape(-1, 1))


class TestPartition:
    def test_divisible_vector_forms_columns(self):
        w = partition_weights([1.0, 2.0, 3.0, 4.0], 2)
        assert w.d == 2 and w.m == 2
        assert w.n == 4 and w.pad_count == 0
        np.testing.assert_array_equal(w.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_padding_appends_zeros_and_counts_them(self):
        w = partition_weights([1.0, 2.0, 3.0, 4.0, 5.0], 2)
        assert w.m == 3 and w.pad_count == 1
        np.testing.assert_array_equal(w.data[:, 2], [5.0, 0.0])

    def test_round_trip_strips_padding(self):
        flat = np.arange(7.0)
        w = partition_weights(flat, 3)
        np.testing.assert_array_equal(flatten_weights(w), flat)

    def test_empty_vector_rejected(self):
        with pytest.raises(ParamError):
            partition_weights([], 1)

    def test_nonpositive_d_rejected(self):
        with pytest.raises(ParamError):
            partition_weights([1.0], 0)

    def test_weight_matrix_shape_consistency_enforced(self):
        with pytest.raises(ShapeError):
            WeightMatrix(data=np.zeros((2, 3)), n=5, pad_count=0)
        with pytest.raises(ShapeError):
            WeightMatrix(data=np.zeros((2, 3)), n=4, pad_count=2)

    @pytest.mark.parametrize(
        "make, error, match",
        [
            (lambda: WeightMatrix(data=np.zeros(3), n=3, pad_count=0),
             ShapeError, "weight matrix must be 2-D, got 1-D"),
            (lambda: Codebook(np.zeros((2, 1, 1))),
             ShapeError, "codebook must be 2-D, got 3-D"),
            (lambda: Codebook(np.zeros((0, 2))),
             ParamError, "codebook needs at least one codeword"),
        ],
        ids=["1-d-weights", "3-d-codebook", "no-codewords"],
    )
    def test_every_refusal_of_a_layout_names_its_fault(self, make, error, match):
        with pytest.raises(error, match=match):
            make()

    def test_data_is_locked_against_mutation(self):
        w = partition_weights([1.0, 2.0], 1)
        with pytest.raises(ValueError):
            w.data[0, 0] = 9.0


class TestDistancesAndAttention:
    def test_two_points_two_codewords(self):
        w, c = _scalar_weights([0.0, 1.0]), _scalar_codebook([0.0, 2.0])
        dist = soft_assign(w.data, c.data, 1.0).dist
        np.testing.assert_array_equal(dist.T, [[0.0, 2.0], [1.0, 1.0]])

    def test_distances_are_norms_not_squared(self):
        w = partition_weights([3.0, 4.0], 2)
        c = Codebook([[0.0, 0.0]])
        dist = soft_assign(w.data, c.data, 1.0).dist
        assert dist[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_softmax_row_at_unit_temperature(self):
        a = attention(np.array([[0.0], [1.0]]), tau=1.0)
        np.testing.assert_allclose(
            a.T, [[0.7310585786, 0.2689414214]], atol=1e-9, rtol=0
        )

    def test_raw_kernel_takes_the_codeword_major_layout(self):
        # attention is soft_assign's k x m kernel: each column is one
        # sub-vector's softmax over the k codewords.
        rows = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 1.0]])
        expected = np.exp(-rows / 0.7)
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(
            attention(rows.T, tau=0.7).T, expected, atol=1e-15, rtol=0
        )
        np.testing.assert_array_equal(attention(np.array([[0.0, 1.0]]), 1.0), [[1.0, 1.0]])
        w, c = _scalar_weights([0.0, 1.0, 2.5]), _scalar_codebook([0.0, 2.0])
        asg = soft_assign(w.data, c.data, 0.7)
        np.testing.assert_array_equal(asg.att, attention(asg.dist, 0.7))

    def test_sharp_temperature_saturates_without_overflow(self):
        a = attention(np.array([[0.0], [1.0]]), tau=1e-6)
        np.testing.assert_allclose(a.T, [[1.0, 0.0]], atol=1e-12, rtol=0)
        assert np.all(np.isfinite(a))

    def test_equal_distances_give_uniform_rows(self):
        a = attention(np.full((4, 1), 3.0), tau=0.7)
        np.testing.assert_array_equal(a.T, np.full((1, 4), 0.25))

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ParamError):
            attention(np.array([[1.0]]), tau=0.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_tau_rejected(self, tau):
        # Unchecked, tau = inf gave every weight the codeword mean and
        # tau = nan failed as "non-finite entries" of the weight matrix.
        w, c = _scalar_weights([0.0, 1.0]), _scalar_codebook([0.0, 1.0])
        with pytest.raises(ParamError, match="tau must be positive and finite"):
            attention(np.array([[1.0]]), tau=tau)
        with pytest.raises(ParamError, match="tau must be positive and finite"):
            soft_quantize(w, c, tau)

    def test_dimension_mismatch_rejected(self):
        w, c = partition_weights([1.0, 2.0], 2), _scalar_codebook([0.0])
        with pytest.raises(ShapeError):
            nearest_indices(w, c)
        with pytest.raises(ShapeError):
            soft_quantize(w, c, 1.0)

    def test_attention_entries_must_be_finite(self):
        # Distances too large for tau overflow the softmax to nan. The raw
        # kernel returns it; the quantizer and the solver refuse it.
        w = _scalar_weights([1e300, 2e300])
        c = _scalar_codebook([-1e300, -1e300])
        with np.errstate(all="ignore"):
            assert np.all(np.isnan(attention(pq._distances(w.data, c.data), 1e-10)))
            with pytest.raises(NumericsError, match="non-finite"):
                soft_quantize(w, c, 1e-10)
            with pytest.raises(NumericsError, match="non-finite"):
                solve_fixed_point(w, c, tau=1e-10, eps=1e-8, max_iters=10)

    # The overflow above, from finite weights and codewords, is the
    # attention's fault, and each entry point says so.
    @pytest.mark.parametrize("entry", [
        lambda w, c: soft_assign(w.data, c.data, 1e-10),
        lambda w, c: soft_quantize(w, c, 1e-10),
        lambda w, c: solve_fixed_point(w, c, tau=1e-10, eps=1e-8, max_iters=10),
    ], ids=["soft_assign", "soft_quantize", "solve_fixed_point"])
    def test_an_attention_overflow_is_blamed_on_the_attention(self, entry):
        w = _scalar_weights([1e300, 2e300])
        c = _scalar_codebook([-1e300, -1e300])
        with np.errstate(all="ignore"), pytest.raises(
            NumericsError, match="^attention contains non-finite values$"
        ):
            entry(w, c)


class TestQuantizers:
    def test_nearest_tie_goes_to_lowest_index(self):
        idx = nearest_indices(_scalar_weights([1.0]), _scalar_codebook([0.0, 2.0]))
        assert idx.tolist() == [0]
        idx3 = nearest_indices(
            _scalar_weights([1.0]), _scalar_codebook([3.0, 0.0, 2.0])
        )
        assert idx3.tolist() == [1]

    def test_hard_quantize_replaces_with_nearest(self):
        q = hard_quantize(
            _scalar_weights([0.1, 0.9, 2.2]), _scalar_codebook([0.0, 1.0, 2.0])
        )
        np.testing.assert_array_equal(q.data, [[0.0, 1.0, 2.0]])

    def test_soft_midpoint_is_the_average(self):
        q = soft_quantize(_scalar_weights([0.5]), _scalar_codebook([0.0, 1.0]), 0.25)
        assert q.data[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_soft_matches_hard_when_gap_dominates_tau(self):
        w = _scalar_weights([0.1, 0.95])
        c = _scalar_codebook([0.0, 1.0])
        # smallest per-row distance gap is 0.7; 40*tau = 0.4 stays below it
        soft = soft_quantize(w, c, tau=0.01)
        hard = hard_quantize(w, c)
        np.testing.assert_allclose(soft.data, hard.data, atol=1e-9, rtol=0)

    def test_quantized_output_keeps_layout_fields(self):
        w = partition_weights(np.arange(5.0), 2)
        c = Codebook([[0.0, 0.0], [3.0, 4.0]])
        for q in (hard_quantize(w, c), soft_quantize(w, c, 0.5)):
            assert (q.n, q.pad_count, q.data.shape) == (5, 1, (2, 3))


class TestSoftQuantizeVjp:
    def test_single_codeword_gradients(self):
        # k=1 means the output is c_0 for every column: the codebook gradient
        # collects upstream column sums and the weights get nothing.
        rng = np.random.default_rng(3)
        w = partition_weights(rng.normal(size=8), 2)
        c = Codebook(rng.normal(size=(1, 2)))
        upstream = rng.normal(size=(2, 4))
        grad_w, grad_c = soft_quantize_vjp(upstream, w, c, tau=0.3)
        np.testing.assert_array_equal(grad_w, np.zeros((2, 4)))
        np.testing.assert_allclose(
            grad_c, upstream.sum(axis=1)[None, :], atol=1e-12, rtol=0
        )

    def test_assignment_taken_elsewhere_is_refused(self):
        # Equal shapes and tau do not make an evaluation at another
        # codebook or at other weights valid: its grad_c would be wrong.
        rng = np.random.default_rng(5)
        w, other = (partition_weights(rng.normal(size=12), 2) for _ in range(2))
        c1, c2 = (Codebook(rng.normal(size=(3, 2))) for _ in range(2))
        up = rng.normal(size=w.data.shape)
        at_c1 = soft_assign(w.data, c1.data, 0.1)
        with pytest.raises(ParamError, match="another codebook"):
            soft_quantize_vjp(up, w, c2, 0.1, assignment=at_c1)
        with pytest.raises(ParamError, match="other weights"):
            soft_quantize_vjp(up, other, c1, 0.1, assignment=at_c1)
        # Equal values in other arrays are the same point.
        copy = partition_weights(flatten_weights(w), 2)
        for got, want in zip(
            soft_quantize_vjp(up, copy, Codebook(c1.data), 0.1, assignment=at_c1),
            soft_quantize_vjp(up, w, c1, 0.1),
        ):
            np.testing.assert_array_equal(got, want)

    def test_huge_tau_freezes_attention(self):
        # Uniform attention that no longer reacts to inputs: grad_w vanishes
        # and each codeword receives 1/k of every upstream column.
        rng = np.random.default_rng(4)
        w = partition_weights(rng.normal(size=6), 1)
        c = Codebook(rng.normal(size=(3, 1)))
        upstream = rng.normal(size=(1, 6))
        grad_w, grad_c = soft_quantize_vjp(upstream, w, c, tau=1e12)
        np.testing.assert_allclose(grad_w, 0.0, atol=1e-9)
        expected = np.tile(upstream.sum(axis=1) / 3.0, (3, 1))
        np.testing.assert_allclose(grad_c, expected, atol=1e-9, rtol=0)

    def test_upstream_shape_must_match(self):
        w = _scalar_weights([1.0, 2.0])
        with pytest.raises(ShapeError):
            soft_quantize_vjp(np.zeros((2, 2)), w, _scalar_codebook([0.0]), 0.5)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_central_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 13))
        k = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        w = partition_weights(rng.normal(size=m * d), d)
        c = Codebook(rng.normal(size=(k, d)))
        upstream = rng.normal(size=(d, m))
        scale = float(np.median(soft_assign(w.data, c.data, 1.0).dist))
        tau = scale * (0.05, 0.3, 1.0)[seed % 3]

        def phi(wd, cd):
            wm = WeightMatrix(data=wd, n=m * d, pad_count=0)
            return float(
                (upstream * soft_quantize(wm, Codebook(cd), tau).data).sum()
            )

        fd_w = np.empty((d, m))
        for p in range(d):
            for i in range(m):
                h = 1e-6 * (1.0 + abs(w.data[p, i]))
                up, dn = w.data.copy(), w.data.copy()
                up[p, i] += h
                dn[p, i] -= h
                fd_w[p, i] = (phi(up, c.data) - phi(dn, c.data)) / (2 * h)
        fd_c = np.empty((k, d))
        for j in range(k):
            for p in range(d):
                h = 1e-6 * (1.0 + abs(c.data[j, p]))
                up, dn = c.data.copy(), c.data.copy()
                up[j, p] += h
                dn[j, p] -= h
                fd_c[j, p] = (phi(w.data, up) - phi(w.data, dn)) / (2 * h)

        grad_w, grad_c = soft_quantize_vjp(upstream, w, c, tau)
        got = np.concatenate([grad_w.ravel(), grad_c.ravel()])
        ref = np.concatenate([fd_w.ravel(), fd_c.ravel()])
        err = np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-30)
        assert err <= 1e-5


def _random_instance(seed, m, k, d):
    rng = np.random.default_rng(seed)
    w = partition_weights(rng.normal(size=m * d), d)
    c = Codebook(rng.normal(size=(k, d)))
    return w, c


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 24),
    k=st.integers(1, 8),
    d=st.integers(1, 3),
    log_tau=st.floats(-3.0, 1.0),
)
@PROPERTY_SETTINGS
def test_attention_rows_sum_to_one(seed, m, k, d, log_tau):
    w, c = _random_instance(seed, m, k, d)
    rows = soft_assign(w.data, c.data, 10.0**log_tau).att.T
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9, rtol=0)
    assert np.all(rows >= 0.0)


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 24),
    k=st.integers(1, 8),
    d=st.integers(1, 3),
    log_tau=st.floats(-3.0, 1.0),
)
@PROPERTY_SETTINGS
def test_soft_output_stays_in_codeword_hull(seed, m, k, d, log_tau):
    w, c = _random_instance(seed, m, k, d)
    q = soft_quantize(w, c, tau=10.0**log_tau)
    lo = c.data.min(axis=0) - 1e-12
    hi = c.data.max(axis=0) + 1e-12
    assert np.all(q.data.T >= lo) and np.all(q.data.T <= hi)


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(2, 24),
    k=st.integers(2, 8),
    d=st.integers(1, 3),
)
@PROPERTY_SETTINGS
def test_soft_limits_to_hard_below_the_gap(seed, m, k, d):
    from hypothesis import assume

    w, c = _random_instance(seed, m, k, d)
    dists = np.sort(soft_assign(w.data, c.data, 1.0).dist.T, axis=1)
    min_gap = float((dists[:, 1] - dists[:, 0]).min())
    assume(min_gap > 1e-6)
    tau = min_gap / 41.0
    soft = soft_quantize(w, c, tau)
    hard = hard_quantize(w, c)
    np.testing.assert_allclose(soft.data, hard.data, atol=1e-9, rtol=0)


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 24),
    k=st.integers(2, 8),
    d=st.integers(1, 3),
)
@PROPERTY_SETTINGS
def test_codebook_permutation_equivariance(seed, m, k, d):
    w, c = _random_instance(seed, m, k, d)
    perm = np.random.default_rng(seed + 1).permutation(k)
    permuted = Codebook(c.data[perm])
    tau = 0.5
    a = soft_assign(w.data, c.data, tau).att.T
    a_perm = soft_assign(w.data, permuted.data, tau).att.T
    np.testing.assert_allclose(a_perm, a[:, perm], atol=1e-13, rtol=0)
    np.testing.assert_allclose(
        soft_quantize(w, permuted, tau).data,
        soft_quantize(w, c, tau).data,
        atol=1e-12,
        rtol=0,
    )


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 64),
    d=st.integers(1, 5),
)
@PROPERTY_SETTINGS
def test_partition_flatten_round_trip(seed, n, d):
    flat = np.random.default_rng(seed).normal(size=n)
    w = partition_weights(flat, d)
    np.testing.assert_array_equal(flatten_weights(w), flat)
    assert w.m * d == n + w.pad_count


def test_soft_quantize_is_bit_deterministic():
    w, c = _random_instance(11, 17, 4, 2)
    first = soft_quantize(w, c, 5e-4).data
    second = soft_quantize(w, c, 5e-4).data
    np.testing.assert_array_equal(first, second)


# Column blocks. SPLIT_FLOOR and the CPU count are patched so that small
# seeded instances split into 2 or 4 blocks; unpatched, they run as one.
SPLIT_TOL = 1e-12


def _split(mp: pytest.MonkeyPatch, cpus: int, floor: int) -> None:
    """Patch pq to split by at least `floor` entries a block over `cpus`
    CPUs, on a pool of its own."""
    mp.setattr(pq, "SPLIT_FLOOR", floor)
    mp.setattr(pq, "_cpu_count", lambda: cpus)
    mp.setattr(pq, "_pool", None)


def _close_pool() -> None:
    if pq._pool is not None:
        pq._pool.shutdown()


def _kernel_outputs(w, c, tau, seed=0) -> dict:
    """Every output of the kernels that run by column blocks; the backward
    pass through the attention is in both VJPs."""
    rng = np.random.default_rng(seed)
    asg = soft_assign(w.data, c.data, tau)
    out = {
        "dist": asg.dist,
        "att": asg.att,
        "col_sums": asg.col_sums,
        "means": asg.means,
        "directions": asg.directions,
        "j_c": asg.j_c,
        "soft_quantize": soft_quantize(w, c, tau, asg).data,
    }
    v = rng.normal(size=c.data.size)
    out["f_vjp_c"], out["f_vjp_w"] = asg.f_vjp(v)
    out["sweep_c"], out["sweep_w"] = pq.f_vjp_from_sums(
        w.data, c.data, tau, asg.col_sums, asg.weighted_sums, v
    )
    out["sq_vjp_w"], out["sq_vjp_c"] = soft_quantize_vjp(
        rng.normal(size=w.data.shape), w, c, tau, asg
    )
    return out


def _split_in_a_child(w, c, want) -> int:
    """Exit code of a forked child that recomputes `want`, the attention of
    w against c at tau 0.05; a test failure if it runs past 30 s."""
    with warnings.catch_warnings():
        # Python 3.12+ warns that forking a threaded process may deadlock.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:  # the child must never return into the test run
            got = soft_assign(w.data, c.data, 0.05).att
            code = 0 if np.array_equal(got, want) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split never finished")
        time.sleep(0.01)
    return os.waitstatus_to_exitcode(done[1])


def _split_error(got: np.ndarray, want: np.ndarray, floor: float = 1e-300) -> float:
    """Largest difference relative to the largest magnitude of the tensor,
    or to `floor` if that is larger."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), floor))


# With this floor, _train_blobs' layers (k*m = 384 and 192) split into 4 and
# 2 blocks.
TRAIN_FLOOR = 64


def _train_blobs(backend: str = "implicit"):
    """(history, state) of a fixed-seed two-epoch training run on a small
    blobs task with two clustered layers."""
    data = synthetic_blobs(3, classes=4, points_per_class=30, dim=8, separation=6.0)
    net = Network(layers=(
        LayerSpec(kind="dense", in_features=8, out_features=12, quantize=True),
        LayerSpec(kind="relu"),
        LayerSpec(kind="dense", in_features=12, out_features=4, quantize=True),
    ))
    cfg = TrainConfig(
        k=4, d=1, tau=0.01, eps=1e-8, max_cluster_iters=200,
        backend=GradBackend(kind=backend), learning_rate=0.05, epochs=2,
        batch_size=32, init=InitStrategy(seed=0), seed=0,
    )
    return train(net, net.init_weights(3), cfg, data)


class TestColumnBlocks:
    def test_blocks_cover_the_columns_in_order(self):
        # The layout depends on (k, m) alone: no CPU count is patched.
        assert pq._column_blocks(4, 2 * pq.SPLIT_FLOOR // 4 - 1) is None
        blocks = pq._column_blocks(4, 100_352)
        assert [(b.start, b.stop) for b in blocks] == [
            (0, 25_088), (25_088, 50_176), (50_176, 75_264), (75_264, 100_352),
        ]
        # A power of two of blocks, each keeping at least SPLIT_FLOOR of the
        # k*m entries: 2 from 2 to 4 floors' worth, 4 from 4 to 8.
        assert len(pq._column_blocks(4, 2 * pq.SPLIT_FLOOR // 4)) == 2
        assert len(pq._column_blocks(4, 4 * pq.SPLIT_FLOOR // 4 - 1)) == 2
        assert len(pq._column_blocks(4, 4 * pq.SPLIT_FLOOR // 4)) == 4
        assert len(pq._column_blocks(4, 8 * pq.SPLIT_FLOOR // 4 - 1)) == 4

    # The floor is a `floors`-th of the k*m entries, which gives the largest
    # power of two not above `floors` blocks: 2, 2 and 4. With 3 CPUs and 4
    # blocks, the helpers take uneven shares.
    @pytest.mark.parametrize("cpus,floors", [(2, 2), (2, 3), (3, 6)])
    @pytest.mark.parametrize("k,d,tau", [(4, 1, 0.05), (16, 2, 0.5), (5, 3, 5e-3)])
    def test_split_kernels_match_one_block(self, cpus, floors, k, d, tau):
        w, c = _random_instance(3, 301, k, d)
        whole = _kernel_outputs(w, c, tau)
        with pytest.MonkeyPatch.context() as mp:
            _split(mp, cpus, floor=k * w.m // floors)
            split = _kernel_outputs(w, c, tau)
            assert len(pq._column_blocks(k, w.m)) == {2: 2, 3: 2, 6: 4}[floors]
            _close_pool()
        assert split.keys() == whole.keys()
        for name in whole:
            assert _split_error(split[name], whole[name]) <= SPLIT_TOL, name

    def test_split_results_repeat_bit_for_bit(self):
        w, c = _random_instance(5, 257, 16, 2)
        with pytest.MonkeyPatch.context() as mp:
            _split(mp, 3, floor=16 * 257 // 4)
            first = _kernel_outputs(w, c, 0.1)
            second = _kernel_outputs(w, c, 0.1)
            _close_pool()
        for name in first:
            np.testing.assert_array_equal(first[name], second[name], err_msg=name)

    def test_split_training_matches_one_block(self):
        whole_history, whole = _train_blobs()
        with pytest.MonkeyPatch.context() as mp:
            _split(mp, 2, floor=TRAIN_FLOOR)
            split_history, split = _train_blobs()
            _close_pool()
        assert [r["fallbacks"] for r in split_history] == [
            r["fallbacks"] for r in whole_history
        ]
        for name, want in whole.weights.items():
            assert _split_error(split.weights[name], want) <= SPLIT_TOL, name
        for name, book in whole.codebooks.items():
            assert _split_error(split.codebooks[name].data, book.data) <= SPLIT_TOL

    def test_split_training_is_bit_identical_on_any_cpu_count(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pq, "SPLIT_FLOOR", TRAIN_FLOOR)
            assert all(len(pq._column_blocks(4, m)) > 1 for m in (96, 48))
        # The unrolled run's sweep also runs pq.f_vjp_from_sums by blocks.
        states = {}
        for backend in ("implicit", "unrolled"):
            for cpus in (1, 2, 4):
                with pytest.MonkeyPatch.context() as mp:
                    _split(mp, cpus, floor=TRAIN_FLOOR)
                    _, states[backend, cpus] = _train_blobs(backend)
                    _close_pool()
        for (backend, cpus), got in states.items():
            want = states[backend, 1]
            for name in want.weights:
                np.testing.assert_array_equal(
                    got.weights[name], want.weights[name],
                    err_msg=f"{backend} {cpus} {name}",
                )
            for name in want.codebooks:
                np.testing.assert_array_equal(
                    got.codebooks[name].data, want.codebooks[name].data,
                    err_msg=f"{backend} {cpus} {name}",
                )

    def test_a_failing_block_raises_once_no_block_runs(self):
        running = []

        def kernel(columns, out):
            first = int(columns[0])
            running.append(first)
            time.sleep(0.01)
            out[...] = 1.0
            running.remove(first)
            if first == 0:
                raise ValueError("block 0")

        with pytest.MonkeyPatch.context() as mp:
            _split(mp, 2, floor=16)
            with pytest.raises(ValueError, match="block 0"):
                pq._by_columns(kernel, 1, 64, (np.arange(64.0), np.zeros(64)))
            assert running == []
            _close_pool()

    def test_workers_enter_no_public_function(self, monkeypatch):
        # perfbench traces public names such as pq.attention by replacing
        # them, and keeps one span stack for the calling thread.
        calls = []

        def recording(name, original):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return original(*args, **kwargs)
            return wrapper

        for name, value in vars(pq).items():
            if (not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == pq.__name__):
                monkeypatch.setattr(pq, name, recording(name, value))
        w, c = _random_instance(2, 301, 4, 2)
        with pytest.MonkeyPatch.context() as mp:
            _split(mp, 3, floor=4 * 301 // 4)
            _kernel_outputs(w, c, 0.05)
            _close_pool()
        assert ("attention", threading.main_thread()) in calls
        assert {thread for _, thread in calls} == {threading.main_thread()}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_splits_without_the_parents_threads(self):
        # The child has neither the parent's pool threads nor a parent
        # thread that held the pool lock as it forked.
        w, c = _random_instance(4, 64, 4, 1)
        holding, release = threading.Event(), threading.Event()

        def hold_the_pool_lock():
            with pq._pool_lock:
                holding.set()
                release.wait()

        with pytest.MonkeyPatch.context() as mp:
            _split(mp, 2, floor=4 * 64 // 4)
            want = soft_assign(w.data, c.data, 0.05).att
            assert _split_in_a_child(w, c, want) == 0
            holder = threading.Thread(target=hold_the_pool_lock)
            holder.start()
            holding.wait()
            try:
                assert _split_in_a_child(w, c, want) == 0
            finally:
                release.set()
                holder.join()
            _close_pool()

    def test_one_cpu_runs_every_block_on_the_calling_thread(self):
        threads = []

        def kernel(columns, out):
            threads.append(threading.current_thread())
            out[...] = columns
            return columns.sum()

        columns, out = np.arange(64.0), np.zeros(64)
        with pytest.MonkeyPatch.context() as mp:
            _split(mp, 1, floor=16)
            assert pq._by_columns(kernel, 1, 64, (columns, out)) == columns.sum()
            assert pq._pool is None
        assert threads == [threading.main_thread()] * 4
        np.testing.assert_array_equal(out, columns)

    def test_a_layer_below_the_floor_never_makes_the_pool(self, monkeypatch):
        monkeypatch.setattr(pq, "_pool", None)
        monkeypatch.setattr(pq, "_cpu_count", lambda: 8)
        m = 2 * pq.SPLIT_FLOOR // 4 - 1
        w, c = _random_instance(1, m, 4, 1)
        _kernel_outputs(w, c, 0.05)
        assert pq._pool is None


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(3, 40),
    k=st.integers(1, 8),
    d=st.integers(1, 3),
    cpus=st.integers(2, 3),
    blocks=st.integers(2, 6),
    log_tau=st.floats(-2.0, 1.0),
)
@PROPERTY_SETTINGS
def test_split_matches_one_block_for_any_shape(seed, m, k, d, cpus, blocks, log_tau):
    w, c = _random_instance(seed, m, k, d)
    tau = 10.0**log_tau
    whole = _kernel_outputs(w, c, tau, seed)
    with pytest.MonkeyPatch.context() as mp:
        _split(mp, cpus, floor=max(k * m // blocks, 1))
        split = _kernel_outputs(w, c, tau, seed)
        assert len(pq._column_blocks(k, m)) >= 2
        _close_pool()
    # Saturated attention, or k = 1, leaves j_c and the VJPs in c zero up to
    # rounding; those are held to SPLIT_TOL in absolute terms.
    for name in whole:
        assert _split_error(split[name], whole[name], floor=1.0) <= SPLIT_TOL, name
