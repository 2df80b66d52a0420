"""Partition layout, attention, and quantizer maps: frozen values + properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idkm.errors import NumericsError, ParamError, PartitionError, ShapeError
from idkm.pq import (
    AttentionMatrix,
    Codebook,
    DistanceMatrix,
    WeightMatrix,
    attention,
    distance_matrix,
    flatten_weights,
    hard_quantize,
    nearest_indices,
    partition_weights,
    soft_quantize,
    soft_quantize_vjp,
)

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
        w = partition_weights([1.0, 2.0, 3.0, 4.0, 5.0], 2, allow_pad=True)
        assert w.m == 3 and w.pad_count == 1
        np.testing.assert_array_equal(w.data[:, 2], [5.0, 0.0])

    def test_indivisible_without_padding_is_rejected(self):
        with pytest.raises(PartitionError):
            partition_weights([1.0, 2.0, 3.0], 2)

    def test_round_trip_strips_padding(self):
        flat = np.arange(7.0)
        w = partition_weights(flat, 3, allow_pad=True)
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

    def test_data_is_locked_against_mutation(self):
        w = partition_weights([1.0, 2.0], 1)
        with pytest.raises(ValueError):
            w.data[0, 0] = 9.0


class TestDistancesAndAttention:
    def test_two_points_two_codewords(self):
        d = distance_matrix(_scalar_weights([0.0, 1.0]), _scalar_codebook([0.0, 2.0]))
        np.testing.assert_array_equal(d.data, [[0.0, 2.0], [1.0, 1.0]])

    def test_distances_are_norms_not_squared(self):
        w = partition_weights([3.0, 4.0], 2)
        c = Codebook([[0.0, 0.0]])
        assert distance_matrix(w, c).data[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_softmax_row_at_unit_temperature(self):
        a = attention(DistanceMatrix([[0.0, 1.0]]), tau=1.0)
        np.testing.assert_allclose(
            a.data, [[0.7310585786, 0.2689414214]], atol=1e-9, rtol=0
        )

    def test_sharp_temperature_saturates_without_overflow(self):
        a = attention(DistanceMatrix([[0.0, 1.0]]), tau=1e-6)
        np.testing.assert_allclose(a.data, [[1.0, 0.0]], atol=1e-12, rtol=0)
        assert np.all(np.isfinite(a.data))

    def test_equal_distances_give_uniform_rows(self):
        a = attention(DistanceMatrix([[3.0, 3.0, 3.0, 3.0]]), tau=0.7)
        np.testing.assert_array_equal(a.data, np.full((1, 4), 0.25))

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ParamError):
            attention(DistanceMatrix([[1.0]]), tau=0.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_tau_rejected(self, tau):
        # Unchecked, tau = inf gave every weight the codeword mean and
        # tau = nan failed as "non-finite entries" of the weight matrix.
        w, c = _scalar_weights([0.0, 1.0]), _scalar_codebook([0.0, 1.0])
        with pytest.raises(ParamError, match="tau must be positive and finite"):
            attention(DistanceMatrix([[1.0]]), tau=tau)
        with pytest.raises(ParamError, match="tau must be positive and finite"):
            soft_quantize(w, c, tau)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            distance_matrix(partition_weights([1.0, 2.0], 2), _scalar_codebook([0.0]))

    def test_negative_distances_rejected(self):
        with pytest.raises(NumericsError):
            DistanceMatrix([[-1.0]])

    def test_attention_rows_must_be_stochastic(self):
        with pytest.raises(NumericsError):
            AttentionMatrix(data=[[0.5, 0.4]], tau=1.0)


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
        w = partition_weights(np.arange(5.0), 2, allow_pad=True)
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
        scale = float(np.median(distance_matrix(w, c).data))
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
    a = attention(distance_matrix(w, c), tau=10.0**log_tau)
    np.testing.assert_allclose(a.data.sum(axis=1), 1.0, atol=1e-9, rtol=0)
    assert np.all(a.data >= 0.0)


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
    dists = np.sort(distance_matrix(w, c).data, axis=1)
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
    a = attention(distance_matrix(w, c), tau)
    a_perm = attention(distance_matrix(w, permuted), tau)
    np.testing.assert_allclose(a_perm.data, a.data[:, perm], atol=1e-13, rtol=0)
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
    w = partition_weights(flat, d, allow_pad=True)
    np.testing.assert_array_equal(flatten_weights(w), flat)
    assert w.m * d == n + w.pad_count


def test_soft_quantize_is_bit_deterministic():
    w, c = _random_instance(11, 17, 4, 2)
    first = soft_quantize(w, c, 5e-4).data
    second = soft_quantize(w, c, 5e-4).data
    np.testing.assert_array_equal(first, second)
