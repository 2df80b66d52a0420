"""Gradient backends: analytic Jacobians, adjoint solves, backend agreement."""

import numpy as np
import pytest

from idkm.errors import AdjointDivergence, ParamError, ShapeError
from idkm.gradcheck import (
    FORWARD_EPS,
    FORWARD_MAX_ITERS,
    TOL_FD_BLOCKS,
    GradInstance,
    check_oracle_equivalence,
    check_update_blocks,
    fd_solve_jacobian,
    make_instance,
    rel_err,
)
from idkm.gradients import (
    GradBackend,
    implicit_dC_dW,
    jacobians_of_F,
    jfb_dC_dW,
    neumann_inverse,
    unrolled_dC_dW,
    vjp_dC_dW,
    vjp_through_trace,
)
from idkm.pq import (
    Codebook,
    WeightMatrix,
    partition_weights,
    soft_assign,
    soft_quantize,
    soft_quantize_vjp,
)
from idkm.solver import InitStrategy, init_codebook, solve_fixed_point

TIGHT = GradBackend(adjoint_eps=1e-12, max_adjoint_iters=4000)


def _converged_instance(seed, m, k, d, tau_factor=0.05):
    """Hand-rolled instance with a tightly converged fixed point."""
    rng = np.random.default_rng(seed)
    w = partition_weights(rng.normal(size=m * d), d)
    cols = w.data.T
    gaps = np.linalg.norm(cols[:, None, :] - cols[None, :, :], axis=2)
    tau = tau_factor * float(np.median(gaps[np.triu_indices(m, k=1)]))
    c0 = init_codebook(w, k, InitStrategy(seed=seed))
    result = solve_fixed_point(w, c0, tau, FORWARD_EPS, FORWARD_MAX_ITERS)
    assert result.converged
    return GradInstance(seed=seed, w=w, c0=c0, c_star=result.codebook, k=k, tau=tau)


class TestJacobiansOfF:
    def test_huge_tau_decouples_centers_and_averages_weights(self):
        # Uniform attention: F becomes the global mean for every center, so
        # dF/dC vanishes and dF/dW repeats a (1/m) identity pattern.
        inst = _converged_instance(0, m=10, k=3, d=2)
        jac = jacobians_of_F(inst.w, inst.c_star, tau=1e12)
        np.testing.assert_allclose(jac.j_c, 0.0, atol=1e-9)
        m = inst.w.m
        expected = np.zeros((3 * 2, 2 * m))
        for j in range(3):
            for p in range(2):
                expected[j * 2 + p, p * m : (p + 1) * m] = 1.0 / m
        np.testing.assert_allclose(jac.j_w, expected, atol=1e-9, rtol=0)

    def test_single_center_single_dim_is_the_plain_mean(self):
        w = partition_weights(np.array([0.5, 1.5, 4.0, -2.0]), 1)
        jac = jacobians_of_F(w, Codebook([[1.0]]), tau=0.3)
        np.testing.assert_allclose(jac.j_c, [[0.0]], atol=1e-12)
        np.testing.assert_allclose(jac.j_w, np.full((1, 4), 0.25), atol=1e-15)

    def test_blocks_match_finite_differences(self):
        inst = _converged_instance(12, m=12, k=3, d=2)
        err_c, err_w = check_update_blocks(inst)
        assert err_c <= 1e-5
        assert err_w <= 1e-5

    def test_shape_and_tau_validation(self):
        w = partition_weights(np.arange(4.0), 2)
        with pytest.raises(ShapeError):
            jacobians_of_F(w, Codebook([[0.0]]), tau=0.5)
        with pytest.raises(ParamError):
            jacobians_of_F(w, Codebook([[0.0, 0.0]]), tau=0.0)


def _assert_vjp_matches_dense(w, c, tau, seed):
    jac = jacobians_of_F(w, c, tau)
    v = np.random.default_rng(seed).normal(size=c.k * c.d)
    grad_c, grad_w = jac.vjp(v)
    assert rel_err(grad_c, v @ jac.j_c) <= 1e-12
    assert rel_err(grad_w, v @ jac.j_w) <= 1e-12


class TestMatrixFreeVjp:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_dense_blocks_on_gradcheck_instances(self, seed):
        inst = make_instance(seed)
        _assert_vjp_matches_dense(inst.w, inst.c_star, inst.tau, seed)

    @pytest.mark.parametrize("tau", [0.05, 0.3, 1.0, 3.0])
    def test_matches_the_dense_blocks_at_k16_d4(self, tau):
        rng = np.random.default_rng(int(100 * tau))
        w = partition_weights(rng.normal(size=40 * 4), 4)
        c = Codebook(rng.normal(size=(16, 4)))
        _assert_vjp_matches_dense(w, c, tau, seed=int(100 * tau))

    def test_shared_assignment_gives_the_same_linearisation(self):
        inst = make_instance(3)
        shared = soft_assign(inst.w.data, inst.c_star.data, inst.tau)
        fresh = jacobians_of_F(inst.w, inst.c_star, inst.tau)
        reused = jacobians_of_F(inst.w, inst.c_star, inst.tau, assignment=shared)
        np.testing.assert_array_equal(reused.j_c, fresh.j_c)

    def test_assignment_for_another_point_is_refused(self):
        inst = make_instance(3)
        shared = soft_assign(inst.w.data, inst.c_star.data, inst.tau)
        with pytest.raises(ParamError):
            jacobians_of_F(inst.w, inst.c_star, 2 * inst.tau, assignment=shared)
        fewer = Codebook(inst.c_star.data[:1])
        with pytest.raises(ShapeError):
            jacobians_of_F(inst.w, fewer, inst.tau, assignment=shared)


@pytest.mark.parametrize("offset", [0.0, 1e-301])
def test_sub_vector_on_a_codeword_has_one_zero_distance_rule(offset):
    # A sub-vector at (or within SAFE_DIV_EPS of) a codeword has no distance
    # direction. Central differences straddle the kink symmetrically, so they
    # see that pair's direction term as zero: both derivative routes must too.
    # (The squared offset 1e-301 underflows, so its distance computes as 0.)
    rng = np.random.default_rng(21)
    flat = rng.normal(size=7)
    flat[3] = offset
    w = partition_weights(flat, 1)
    c = Codebook([[-1.0], [0.0], [1.5]])
    tau = 0.5
    _assert_vjp_matches_dense(w, c, tau, seed=21)
    err_c, err_w = check_update_blocks(
        GradInstance(seed=21, w=w, c0=c, c_star=c, k=3, tau=tau)
    )
    assert err_c <= TOL_FD_BLOCKS and err_w <= TOL_FD_BLOCKS

    upstream = rng.normal(size=(1, 7))

    def phi(wd, cd):
        q = soft_quantize(WeightMatrix(data=wd, n=7, pad_count=0), Codebook(cd), tau)
        return float((upstream * q.data).sum())

    grad_w, grad_c = soft_quantize_vjp(upstream, w, c, tau)
    fd_w = _central_differences(lambda wd: phi(wd, c.data), w.data)
    fd_c = _central_differences(lambda cd: phi(w.data, cd), c.data)
    got = np.concatenate([grad_w.ravel(), grad_c.ravel()])
    assert np.all(np.isfinite(got))
    assert rel_err(got, np.concatenate([fd_w.ravel(), fd_c.ravel()])) <= 1e-5


def _central_differences(f, x):
    out = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        h = 1e-6 * (1.0 + abs(x[idx]))
        up, dn = x.copy(), x.copy()
        up[idx] += h
        dn[idx] -= h
        out[idx] = (f(up) - f(dn)) / (2 * h)
    return out


class TestNeumannInverse:
    def test_zero_matrix_returns_identity_exactly(self):
        out = neumann_inverse(np.zeros((3, 3)), GradBackend())
        np.testing.assert_array_equal(out, np.eye(3))

    def test_half_identity_doubles(self):
        out = neumann_inverse(0.5 * np.eye(4), GradBackend())
        np.testing.assert_allclose(out, 2.0 * np.eye(4), atol=1e-6, rtol=0)

    def test_matches_dense_solve_at_spectral_radius_08(self):
        rng = np.random.default_rng(21)
        mat = rng.normal(size=(6, 6))
        mat *= 0.8 / max(abs(np.linalg.eigvals(mat)))
        direct = np.linalg.solve(np.eye(6) - mat, np.eye(6))
        out = neumann_inverse(mat, GradBackend(max_adjoint_iters=4000))
        assert rel_err(out, direct) <= 1e-6

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            neumann_inverse(np.zeros((2, 3)), GradBackend())

    def test_restarts_recover_from_a_bad_alpha(self):
        # Plain iteration diverges on the -1.5 eigenvalue; halving alpha once
        # brings the averaged map inside the unit disc.
        spiky = np.diag([-1.5, 0.3, 0.2])
        direct = np.linalg.solve(np.eye(3) - spiky, np.eye(3))
        out = neumann_inverse(
            spiky, GradBackend(alpha0=1.0, max_adjoint_iters=4000)
        )
        assert rel_err(out, direct) <= 1e-6

    def test_divergence_without_restarts_raises(self):
        spiky = np.diag([-1.5, 0.3, 0.2])
        with pytest.raises(AdjointDivergence):
            neumann_inverse(spiky, GradBackend(alpha0=1.0, max_restarts=0))

    def test_unit_circle_crossing_raises_cleanly(self):
        with pytest.raises(AdjointDivergence):
            neumann_inverse(10.0 * np.eye(2), GradBackend(max_restarts=1))

    def test_slow_convergence_raises_instead_of_stalling(self):
        nearly_one = (1.0 - 1e-9) * np.eye(3)
        with pytest.raises(AdjointDivergence):
            neumann_inverse(nearly_one, GradBackend(max_adjoint_iters=50))

    def test_alpha_one_near_critical_radius_never_returns_nan(self):
        rng = np.random.default_rng(33)
        mat = rng.normal(size=(5, 5))
        mat *= 0.95 / max(abs(np.linalg.eigvals(mat)))
        backend = GradBackend(alpha0=1.0, max_adjoint_iters=4000)
        try:
            out = neumann_inverse(mat, backend)
        except AdjointDivergence:
            return
        assert np.all(np.isfinite(out))

    def test_backend_validation(self):
        with pytest.raises(ParamError):
            GradBackend(kind="neumann")
        with pytest.raises(ParamError):
            GradBackend(alpha0=0.0)
        with pytest.raises(ParamError):
            GradBackend(alpha0=1.5)
        with pytest.raises(ParamError):
            GradBackend(max_restarts=-1)
        with pytest.raises(ParamError):
            GradBackend(adjoint_eps=0.0)


class TestImplicit:
    def test_huge_tau_reduces_to_the_weight_block(self):
        inst = _converged_instance(1, m=9, k=2, d=1)
        jac = jacobians_of_F(inst.w, inst.c_star, tau=1e12)
        out = implicit_dC_dW(inst.w, inst.c_star, 1e12, GradBackend())
        np.testing.assert_array_equal(out, jac.j_w)

    def test_hard_limit_recovers_cluster_mean_rows(self):
        # Saturated attention: each center is the mean of its members, so the
        # derivative row carries 1/|cluster| on member columns and 0 elsewhere.
        points = np.array([-1.2, -1.0, -0.8, -1.1, 0.9, 1.0, 1.2, 1.15])
        w = partition_weights(points, 1)
        result = solve_fixed_point(
            w, Codebook([[-1.0], [1.0]]), tau=1e-3, eps=1e-12, max_iters=200
        )
        assert result.converged
        out = implicit_dC_dW(w, result.codebook, 1e-3, GradBackend())
        expected = np.zeros((2, 8))
        expected[0, :4] = 0.25
        expected[1, 4:] = 0.25
        np.testing.assert_allclose(out, expected, atol=1e-6, rtol=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_unrolled_oracle(self, seed):
        inst = make_instance(seed)
        err = check_oracle_equivalence(inst, GradBackend(max_adjoint_iters=4000))
        assert err <= 1e-4

    def test_matches_finite_differences_of_the_solve(self):
        inst = make_instance(7)
        out = implicit_dC_dW(
            inst.w, inst.c_star, inst.tau, GradBackend(max_adjoint_iters=4000)
        )
        assert rel_err(out, fd_solve_jacobian(inst)) <= 1e-3


class TestJfb:
    def test_is_the_weight_block_by_definition(self):
        inst = _converged_instance(2, m=14, k=4, d=1)
        np.testing.assert_array_equal(
            jfb_dC_dW(inst.w, inst.c_star, inst.tau),
            jacobians_of_F(inst.w, inst.c_star, inst.tau).j_w,
        )

    def test_coincides_with_implicit_when_centers_decouple(self):
        inst = _converged_instance(3, m=8, k=2, d=2)
        jfb = jfb_dC_dW(inst.w, inst.c_star, tau=1e12)
        imp = implicit_dC_dW(inst.w, inst.c_star, tau=1e12, backend=GradBackend())
        np.testing.assert_array_equal(jfb, imp)

    @pytest.mark.parametrize("seed", range(20))
    def test_keeps_a_descent_direction(self, seed):
        inst = make_instance(seed)
        jfb = jfb_dC_dW(inst.w, inst.c_star, inst.tau)
        imp = implicit_dC_dW(
            inst.w, inst.c_star, inst.tau, GradBackend(max_adjoint_iters=4000)
        )
        assert float(jfb.ravel() @ imp.ravel()) > 0.0


class TestUnrolled:
    def test_single_iteration_equals_the_weight_block_at_c0(self):
        inst = _converged_instance(4, m=10, k=3, d=1)
        out = unrolled_dC_dW(inst.w, inst.c0, inst.tau, eps=1e-30, max_iters=1)
        np.testing.assert_array_equal(
            out, jacobians_of_F(inst.w, inst.c0, inst.tau).j_w
        )

    def test_converged_run_matches_finite_differences(self):
        inst = make_instance(5)
        out = unrolled_dC_dW(
            inst.w, inst.c0, inst.tau, FORWARD_EPS, FORWARD_MAX_ITERS
        )
        assert rel_err(out, fd_solve_jacobian(inst)) <= 1e-3


class TestVjp:
    def test_basis_upstream_extracts_one_row(self):
        inst = _converged_instance(6, m=12, k=3, d=1)
        dense = implicit_dC_dW(inst.w, inst.c_star, inst.tau, TIGHT)
        for r in (0, 2):
            e = np.zeros(3)
            e[r] = 1.0
            row = vjp_dC_dW(e, inst.w, inst.c_star, inst.tau, TIGHT)
            assert rel_err(row, dense[r]) <= 1e-8

    def test_zero_upstream_gives_zero(self):
        inst = _converged_instance(6, m=12, k=3, d=1)
        out = vjp_dC_dW(np.zeros(3), inst.w, inst.c_star, inst.tau, GradBackend())
        np.testing.assert_array_equal(out, np.zeros(12))

    def test_random_upstream_matches_dense_lu_oracle(self):
        inst = _converged_instance(8, m=16, k=4, d=2)
        jac = jacobians_of_F(inst.w, inst.c_star, inst.tau)
        kd = jac.j_c.shape[0]
        m_star = np.linalg.solve(np.eye(kd) - jac.j_c, np.eye(kd))
        rng = np.random.default_rng(8)
        upstream = rng.normal(size=kd)
        upstream /= np.linalg.norm(upstream)
        ref = upstream @ m_star @ jac.j_w
        out = vjp_dC_dW(upstream, inst.w, inst.c_star, inst.tau, TIGHT)
        assert rel_err(out, ref) <= 1e-8

    def test_unrolled_kind_is_refused(self):
        inst = _converged_instance(6, m=12, k=3, d=1)
        with pytest.raises(ParamError):
            vjp_dC_dW(
                np.zeros(3), inst.w, inst.c_star, inst.tau,
                GradBackend(kind="unrolled"),
            )

    def test_upstream_length_checked(self):
        inst = _converged_instance(6, m=12, k=3, d=1)
        with pytest.raises(ShapeError):
            vjp_dC_dW(np.zeros(5), inst.w, inst.c_star, inst.tau, GradBackend())

    def test_trace_sweep_matches_the_materialized_unrolled_jacobian(self):
        inst = make_instance(9)
        result = solve_fixed_point(
            inst.w, inst.c0, inst.tau, FORWARD_EPS, FORWARD_MAX_ITERS,
            record_trace=True,
        )
        dense = unrolled_dC_dW(
            inst.w, inst.c0, inst.tau, FORWARD_EPS, FORWARD_MAX_ITERS
        )
        rng = np.random.default_rng(9)
        upstream = rng.normal(size=inst.k * inst.w.d)
        swept = vjp_through_trace(upstream, inst.w, result.trace, inst.tau)
        assert rel_err(swept, upstream @ dense) <= 1e-10


def test_implicit_and_jfb_need_no_trace():
    # The forward solve retains a single codebook and both one-shot backends
    # work from it alone; only the recorded trace enables the unrolled sweep.
    inst = make_instance(10)
    result = solve_fixed_point(
        inst.w, inst.c0, inst.tau, FORWARD_EPS, FORWARD_MAX_ITERS
    )
    assert result.trace is None
    assert result.retained_codebooks == 1
    implicit_dC_dW(inst.w, result.codebook, inst.tau, GradBackend())
    jfb_dC_dW(inst.w, result.codebook, inst.tau)
