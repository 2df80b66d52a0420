"""Gradient backends: analytic Jacobians, adjoint solves, backend agreement."""

import numpy as np
import pytest

from idkm.errors import (
    AdjointSingular,
    NumericsError,
    ParamError,
    ShapeError,
)
from idkm.gradcheck import (
    FORWARD_EPS,
    FORWARD_MAX_ITERS,
    TOL_FD_BLOCKS,
    TOL_FD_SOLVE,
    TOL_JFB_BLOCK,
    GradInstance,
    central_differences,
    check_jfb_block,
    check_oracle_equivalence,
    check_update_blocks,
    dense_dC_dW,
    dense_weight_jacobian,
    fd_solve_jacobian,
    make_instance,
    rel_err,
    run_suite,
)
from idkm.gradients import (
    ADJOINT_EPS,
    BACKEND_KINDS,
    COND_LIMIT,
    GradBackend,
    adjoint_inverse,
    vjp_dC_dW,
    vjp_through_trace,
)
import idkm.pq as pq
from idkm.pq import (
    Codebook,
    SoftAssignment,
    WeightMatrix,
    assignment_at,
    partition_weights,
    soft_assign,
    soft_quantize,
    soft_quantize_vjp,
)
from idkm.solver import (
    InitStrategy,
    fixed_point_map_F,
    init_codebook,
    solve_fixed_point,
)

JFB = GradBackend(kind="jfb")
UNROLLED = GradBackend(kind="unrolled")


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
    return GradInstance(seed=seed, w=w, c0=c0, c_star=result.codebook, tau=tau)


class TestJacobiansOfF:
    def test_huge_tau_decouples_centers_and_averages_weights(self):
        # Uniform attention: F becomes the global mean for every center, so
        # dF/dC vanishes and dF/dW repeats a (1/m) identity pattern.
        inst = _converged_instance(0, m=10, k=3, d=2)
        asg = assignment_at(inst.w, inst.c_star, tau=1e12)
        np.testing.assert_allclose(asg.j_c, 0.0, atol=1e-9)
        m = inst.w.m
        expected = np.zeros((3 * 2, 2 * m))
        for j in range(3):
            for p in range(2):
                expected[j * 2 + p, p * m : (p + 1) * m] = 1.0 / m
        dense_w = dense_weight_jacobian(inst.w.data, inst.c_star.data, 1e12)
        np.testing.assert_allclose(dense_w, expected, atol=1e-9, rtol=0)

    def test_single_center_single_dim_is_the_plain_mean(self):
        w = partition_weights(np.array([0.5, 1.5, 4.0, -2.0]), 1)
        asg = assignment_at(w, Codebook([[1.0]]), tau=0.3)
        np.testing.assert_allclose(asg.j_c, [[0.0]], atol=1e-12)
        dense_w = dense_weight_jacobian(w.data, np.array([[1.0]]), 0.3)
        np.testing.assert_allclose(dense_w, np.full((1, 4), 0.25), atol=1e-15)

    def test_blocks_match_finite_differences(self):
        inst = _converged_instance(12, m=12, k=3, d=2)
        err_c, err_w = check_update_blocks(inst)
        assert err_c <= 1e-5
        assert err_w <= 1e-5

    def test_shape_and_tau_validation(self):
        w = partition_weights(np.arange(4.0), 2)
        with pytest.raises(ShapeError):
            assignment_at(w, Codebook([[0.0]]), tau=0.5)
        with pytest.raises(ParamError):
            assignment_at(w, Codebook([[0.0, 0.0]]), tau=0.0)


def _assert_vjp_matches_dense(asg: SoftAssignment, seed):
    v = np.random.default_rng(seed).normal(size=asg.c.size)
    grad_c, grad_w = asg.f_vjp(v)
    assert rel_err(grad_c, v @ asg.j_c) <= 1e-12
    dense_w = dense_weight_jacobian(asg.w, asg.c, asg.tau)
    assert rel_err(grad_w, v @ dense_w) <= 1e-12


class TestMatrixFreeVjp:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_dense_blocks_on_gradcheck_instances(self, seed):
        inst = make_instance(seed)
        asg = assignment_at(inst.w, inst.c_star, inst.tau)
        _assert_vjp_matches_dense(asg, seed)

    @pytest.mark.parametrize("tau", [0.05, 0.3, 1.0, 3.0])
    def test_matches_the_dense_blocks_at_k16_d4(self, tau):
        rng = np.random.default_rng(int(100 * tau))
        w = partition_weights(rng.normal(size=40 * 4), 4)
        c = Codebook(rng.normal(size=(16, 4)))
        _assert_vjp_matches_dense(assignment_at(w, c, tau), seed=int(100 * tau))

    def test_shared_assignment_gives_the_same_linearisation(self):
        inst = make_instance(3)
        shared = soft_assign(inst.w.data, inst.c_star.data, inst.tau)
        fresh = assignment_at(inst.w, inst.c_star, inst.tau)
        reused = assignment_at(inst.w, inst.c_star, inst.tau, assignment=shared)
        assert reused is shared
        np.testing.assert_array_equal(reused.j_c, fresh.j_c)

    def test_assignment_for_another_point_is_refused(self):
        inst = make_instance(3)
        shared = soft_assign(inst.w.data, inst.c_star.data, inst.tau)
        with pytest.raises(ParamError):
            assignment_at(inst.w, inst.c_star, 2 * inst.tau, assignment=shared)
        fewer = Codebook(inst.c_star.data[:1])
        with pytest.raises(ShapeError):
            assignment_at(inst.w, fewer, inst.tau, assignment=shared)


def test_gradcheck_fails_on_a_planted_weight_vjp_error(monkeypatch):
    # implicit and jfb train with SoftAssignment.f_vjp, and so does the
    # unrolled sweep's last step; its earlier steps run pq.f_vjp_from_sums,
    # which the sweep oracle tests hold to f_vjp bit for bit. A 0.1% error in
    # f_vjp's v @ dF/dW then moves implicit and unrolled nearly alike, so the
    # jfb line, which checks the VJP against the dense dF/dW, must catch it.
    real = SoftAssignment.f_vjp

    def planted(self, v):
        grad_c, grad_w = real(self, v)
        return grad_c, 1.001 * grad_w

    assert run_suite(4, with_fd=False).passed
    monkeypatch.setattr(SoftAssignment, "f_vjp", planted)
    report = run_suite(4, with_fd=False)
    assert not report.passed
    assert report.jfb_block_err > 1e-4


def test_gradcheck_fails_on_a_planted_softmax_error(monkeypatch):
    # The dense dF/dW oracle computes its own softmax, so an error in the
    # column kernel every soft assignment runs shows on the jfb line.
    real = pq._softmax_cols
    inst = make_instance(0)
    assert check_jfb_block(inst) <= TOL_JFB_BLOCK
    monkeypatch.setattr(pq, "_softmax_cols",
                        lambda dist, att, tau: real(dist, att, 1.5 * tau))
    assert check_jfb_block(inst) > 1e-2


def test_skipped_finite_difference_checks_read_skipped():
    report = run_suite(1, with_fd=False)
    assert report.passed
    lines = report.lines()
    assert [line.split(":")[1].strip() for line in lines[2:5]] == ["skipped"] * 3
    assert all(line.endswith("ok") for line in lines[1:2] + lines[5:])
    assert not any("skipped" in line for line in run_suite(1).lines())


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
    _assert_vjp_matches_dense(assignment_at(w, c, tau), seed=21)
    err_c, err_w = check_update_blocks(
        GradInstance(seed=21, w=w, c0=c, c_star=c, tau=tau)
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
    """Gradient of a scalar f, shaped like x."""
    return central_differences(f, x, 1e-6).reshape(x.shape)


@pytest.mark.parametrize("d", [1, 3])
def test_soft_assignment_vjp_matches_central_differences(d):
    # f_vjp goes back through the softmax and the distances. Sub-vector 5
    # sits exactly on codeword 2, so that pair has no direction, as central
    # differences straddling the kink see it (to O(h): the |delta| * delta
    # terms there do not cancel); f_vjp must drop it as j_c and the oracle do.
    rng = np.random.default_rng(40 + d)
    wd = rng.normal(size=(d, 9))
    cd = rng.normal(size=(4, d))
    wd[:, 5] = cd[2]
    tau = 0.7
    v = rng.normal(size=(4, d))

    def phi(wd, cd):
        w = WeightMatrix(data=wd, n=wd.size, pad_count=0)
        return float((v * fixed_point_map_F(w, Codebook(cd), tau).data).sum())

    asg = soft_assign(wd, cd, tau)
    assert asg.dist[2, 5] == 0.0
    grad_c, grad_w = asg.f_vjp(v.ravel())
    fd_w = _central_differences(lambda x: phi(x, cd), wd)
    fd_c = _central_differences(lambda x: phi(wd, x), cd)
    assert rel_err(grad_w, fd_w.ravel()) <= TOL_FD_BLOCKS
    assert rel_err(grad_c, fd_c.ravel()) <= TOL_FD_BLOCKS
    _assert_vjp_matches_dense(asg, seed=40 + d)


class TestImplicit:
    def test_huge_tau_reduces_to_the_weight_block(self):
        inst = _converged_instance(1, m=9, k=2, d=1)
        out = dense_dC_dW(inst.w, inst.c_star, 1e12, GradBackend())
        np.testing.assert_array_equal(
            out, dense_dC_dW(inst.w, inst.c_star, 1e12, JFB)
        )
        dense_w = dense_weight_jacobian(inst.w.data, inst.c_star.data, 1e12)
        assert rel_err(out, dense_w) <= 1e-12

    def test_hard_limit_recovers_cluster_mean_rows(self):
        # Saturated attention: each center is the mean of its members, so the
        # derivative row carries 1/|cluster| on member columns and 0 elsewhere.
        points = np.array([-1.2, -1.0, -0.8, -1.1, 0.9, 1.0, 1.2, 1.15])
        w = partition_weights(points, 1)
        result = solve_fixed_point(
            w, Codebook([[-1.0], [1.0]]), tau=1e-3, eps=1e-12, max_iters=200
        )
        assert result.converged
        out = dense_dC_dW(w, result.codebook, 1e-3, GradBackend())
        expected = np.zeros((2, 8))
        expected[0, :4] = 0.25
        expected[1, 4:] = 0.25
        np.testing.assert_allclose(out, expected, atol=1e-6, rtol=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_unrolled_oracle(self, seed):
        inst = make_instance(seed)
        err = check_oracle_equivalence(inst)
        assert err <= 1e-4

    def test_matches_finite_differences_of_the_solve(self):
        inst = make_instance(7)
        out = dense_dC_dW(
            inst.w, inst.c_star, inst.tau, GradBackend()
        )
        assert rel_err(out, fd_solve_jacobian(inst)) <= 1e-3

    def test_stale_codeword_is_linearised_through_the_means(self):
        # The codeword at 50 draws no attention, so F keeps it stale and
        # finite differences of F put 1 on its diagonal: I - dF/dC would be
        # singular there. j_c linearises the means instead, with 0 in that
        # row and column, and the implicit dC*/dW it gives matches finite
        # differences of the whole solve, stale row 0 included.
        w = partition_weights(0.1 * np.random.default_rng(0).normal(size=40), 1)
        c0 = Codebook([[-0.1], [0.0], [0.1], [50.0]])
        c_star = solve_fixed_point(w, c0, 0.01, 1e-12, 50).codebook
        j_c = assignment_at(w, c_star, 0.01).j_c
        np.testing.assert_array_equal(j_c[3], 0.0)
        np.testing.assert_array_equal(j_c[:, 3], 0.0)
        fd_c = central_differences(
            lambda cd: fixed_point_map_F(w, Codebook(cd), 0.01).data,
            c_star.data, 1e-6,
        )
        np.testing.assert_allclose(fd_c[3], [0.0, 0.0, 0.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(fd_c[:3, 3], 0.0, atol=1e-9)

        out = dense_dC_dW(w, c_star, 0.01, GradBackend())
        np.testing.assert_array_equal(out[3], 0.0)
        inst = GradInstance(seed=0, w=w, c0=c0, c_star=c_star, tau=0.01)
        assert rel_err(out, fd_solve_jacobian(inst)) <= TOL_FD_SOLVE


class TestJfb:
    def test_is_the_weight_block_by_definition(self):
        inst = _converged_instance(2, m=14, k=4, d=1)
        jfb = dense_dC_dW(inst.w, inst.c_star, inst.tau, JFB)
        block = dense_weight_jacobian(inst.w.data, inst.c_star.data, inst.tau)
        assert rel_err(jfb, block) <= 1e-12

    def test_coincides_with_implicit_when_centers_decouple(self):
        inst = _converged_instance(3, m=8, k=2, d=2)
        jfb = dense_dC_dW(inst.w, inst.c_star, 1e12, JFB)
        imp = dense_dC_dW(inst.w, inst.c_star, 1e12, GradBackend())
        np.testing.assert_array_equal(jfb, imp)

    @pytest.mark.parametrize("seed", range(20))
    def test_keeps_a_descent_direction(self, seed):
        inst = make_instance(seed)
        jfb = dense_dC_dW(inst.w, inst.c_star, inst.tau, JFB)
        imp = dense_dC_dW(
            inst.w, inst.c_star, inst.tau, GradBackend()
        )
        assert float(jfb.ravel() @ imp.ravel()) > 0.0


class TestUnrolled:
    def test_single_iteration_equals_the_weight_block_at_c0(self):
        inst = _converged_instance(4, m=10, k=3, d=1)
        out = dense_dC_dW(
            inst.w, inst.c0, inst.tau, UNROLLED, eps=1e-30, max_iters=1
        )
        block = dense_weight_jacobian(inst.w.data, inst.c0.data, inst.tau)
        assert rel_err(out, block) <= 1e-12

    def test_converged_run_matches_finite_differences(self):
        inst = make_instance(5)
        out = dense_dC_dW(inst.w, inst.c0, inst.tau, UNROLLED)
        assert rel_err(out, fd_solve_jacobian(inst)) <= 1e-3


def _sweep_oracle(upstream, w, trace, tau):
    """The unrolled sweep as one fresh soft assignment and its f_vjp per
    recorded iterate, the loop vjp_through_trace must reproduce bit for bit."""
    total = np.zeros(w.d * w.m)
    v = np.asarray(upstream, dtype=np.float64).ravel()
    for step_input in reversed(trace):
        v, grad_w = assignment_at(w, step_input, tau).f_vjp(v)
        total += grad_w
    return total


class TestUnrolledSweep:
    def test_matches_the_oracle_with_a_stale_cluster_and_a_zero_distance(self):
        # Below the split floor. The codeword at 0.6 draws a nonzero
        # attention sum below DEGENERATE_FLOOR at every iterate, so the
        # floored scale shows; the 0.0 weight sits on a codeword of trace[0].
        flat = 0.1 * np.random.default_rng(0).normal(size=40)
        flat[7] = 0.0
        w = partition_weights(flat, 1)
        c0 = Codebook([[-0.1], [0.0], [0.1], [0.6]])
        result = solve_fixed_point(w, c0, 0.01, 1e-12, 50, record_trace=True)
        assert len(result.trace) >= 3
        assert all(0 < sums[3] < pq.DEGENERATE_FLOOR for sums, _ in result.trace_sums)
        assert pq._column_blocks(4, w.m) is None
        upstream = np.random.default_rng(1).normal(size=4)
        np.testing.assert_array_equal(
            vjp_through_trace(upstream, w, result, 0.01),
            _sweep_oracle(upstream, w, result.trace, 0.01),
        )

    def test_matches_the_oracle_on_a_column_split_layer(self):
        k, d, m = 4, 2, 2 * pq.SPLIT_FLOOR // 4
        rng = np.random.default_rng(2)
        w = partition_weights(rng.normal(size=d * m), d)
        c0 = init_codebook(w, k, InitStrategy(seed=2))
        result = solve_fixed_point(w, c0, 0.05, 1e-30, 4, record_trace=True)
        assert len(result.trace) == 4
        assert len(pq._column_blocks(k, m)) == 2
        upstream = rng.normal(size=k * d)
        np.testing.assert_array_equal(
            vjp_through_trace(upstream, w, result, 0.05),
            _sweep_oracle(upstream, w, result.trace, 0.05),
        )

    def test_upstream_length_checked(self):
        inst = _converged_instance(6, m=12, k=3, d=1)
        result = solve_fixed_point(inst.w, inst.c0, inst.tau, 1e-10, 50,
                                   record_trace=True)
        with pytest.raises(ShapeError, match=r"upstream length 5 != k\*d = 3"):
            vjp_through_trace(np.zeros(5), inst.w, result, inst.tau)

    def test_a_solve_without_its_trace_is_refused(self):
        inst = _converged_instance(6, m=12, k=3, d=1)
        result = solve_fixed_point(inst.w, inst.c0, inst.tau, 1e-10, 50)
        with pytest.raises(ParamError, match="record_trace"):
            vjp_through_trace(np.zeros(3), inst.w, result, inst.tau)


class TestVjp:
    def test_zero_upstream_gives_zero(self):
        inst = _converged_instance(6, m=12, k=3, d=1)
        inverse = adjoint_inverse(assignment_at(inst.w, inst.c_star, inst.tau).j_c)
        out = vjp_dC_dW(np.zeros(3), inst.w, inst.c_star, inst.tau, inverse=inverse)
        np.testing.assert_array_equal(out, np.zeros(12))

    def test_random_upstream_matches_dense_lu_oracle(self):
        inst = _converged_instance(8, m=16, k=4, d=2)
        j_c = assignment_at(inst.w, inst.c_star, inst.tau).j_c
        kd = j_c.shape[0]
        m_star = np.linalg.solve(np.eye(kd) - j_c, np.eye(kd))
        rng = np.random.default_rng(8)
        upstream = rng.normal(size=kd)
        upstream /= np.linalg.norm(upstream)
        # The inverse is applied, not skipped under ADJOINT_EPS.
        assert np.linalg.norm(upstream @ j_c) >= ADJOINT_EPS
        ref = upstream @ m_star @ dense_weight_jacobian(
            inst.w.data, inst.c_star.data, inst.tau
        )
        out = vjp_dC_dW(upstream, inst.w, inst.c_star, inst.tau,
                        inverse=adjoint_inverse(j_c))
        assert rel_err(out, ref) <= 1e-8

    @pytest.mark.parametrize("factor, applied", [(1 - 1e-9, False), (1 + 1e-9, True)])
    def test_inverse_is_skipped_only_below_adjoint_eps(self, factor, applied):
        # With j_c = s e_0 e_0^T, ||e_0 j_c|| = s, planted just either side
        # of ADJOINT_EPS; the inverse 2I doubles the upstream row it is
        # applied to.
        inst = _converged_instance(8, m=16, k=4, d=2)
        j_c = np.zeros((8, 8))
        j_c[0, 0] = factor * ADJOINT_EPS
        upstream = np.eye(8)[0]
        assert (np.linalg.norm(upstream @ j_c) >= ADJOINT_EPS) == applied
        asg = assignment_at(inst.w, inst.c_star, inst.tau)
        asg.__dict__["j_c"] = j_c  # planted over the cached property
        out = vjp_dC_dW(upstream, inst.w, inst.c_star, inst.tau, assignment=asg,
                        inverse=2.0 * np.eye(8))
        v = 2.0 * upstream if applied else upstream
        np.testing.assert_array_equal(out, asg.f_vjp(v)[1])

    def test_upstream_length_checked(self):
        inst = _converged_instance(6, m=12, k=3, d=1)
        with pytest.raises(ShapeError):
            vjp_dC_dW(np.zeros(5), inst.w, inst.c_star, inst.tau)

    @pytest.mark.parametrize("inverse, error, match", [
        (np.eye(2), ShapeError, r"adjoint inverse is \(2, 2\)"),
        (np.diag([1.0, np.nan, 1.0]), NumericsError,
         "adjoint inverse contains non-finite"),
    ], ids=["size", "nan"])
    def test_a_bad_inverse_is_refused(self, inverse, error, match):
        inst = _converged_instance(6, m=12, k=3, d=1)
        with pytest.raises(error, match=match):
            vjp_dC_dW(np.ones(3), inst.w, inst.c_star, inst.tau, inverse=inverse)


def _spectral(seed, n, radius):
    mat = np.random.default_rng(seed).normal(size=(n, n))
    return mat * (radius / max(abs(np.linalg.eigvals(mat))))


class TestNeumannInverse:
    """The averaged Neumann adjoint is gone; its backend kind stays refused."""

    def test_backend_validation(self):
        for kind in BACKEND_KINDS:
            assert GradBackend(kind=kind).kind == kind
        with pytest.raises(ParamError, match="unknown gradient backend 'neumann'"):
            GradBackend(kind="neumann")


class TestAdjointInverse:
    def test_matches_a_dense_solve(self):
        j_c = _spectral(5, 6, 0.95)
        direct = np.linalg.solve(np.eye(6) - j_c, np.eye(6))
        assert rel_err(adjoint_inverse(j_c), direct) <= 1e-12

    def test_singular_matrix_is_refused(self):
        with pytest.raises(AdjointSingular, match="is singular"):
            adjoint_inverse(np.diag([1.0, 0.5, 0.0]))

    def test_condition_past_the_limit_is_refused(self):
        # I - j_c = diag(1, 1/c): invertible, with 1-norm condition number c.
        for cond, refused in ((0.5 * COND_LIMIT, False), (2.0 * COND_LIMIT, True)):
            j_c = np.diag([0.0, 1.0 - 1.0 / cond])
            if refused:
                with pytest.raises(AdjointSingular, match="condition number"):
                    adjoint_inverse(j_c)
            else:
                adjoint_inverse(j_c)

    @pytest.mark.parametrize("j_c", [[0.1, 0.2, 0.3], np.zeros((2, 3))])
    def test_a_j_c_that_is_not_square_is_refused(self, j_c):
        # A 1-D j_c would broadcast into a 3 x 3 I - j_c and be inverted.
        with pytest.raises(ShapeError, match="j_c must be square"):
            adjoint_inverse(j_c)

    def test_given_inverse_is_the_one_used(self):
        # vjp_dC_dW applies the inverse it is given; the identity, or none,
        # gives jfb's bits.
        inst = _converged_instance(8, m=16, k=4, d=2)
        upstream = np.random.default_rng(8).normal(size=8)
        asg = assignment_at(inst.w, inst.c_star, inst.tau)
        inverse = adjoint_inverse(asg.j_c)
        np.testing.assert_array_equal(
            vjp_dC_dW(upstream, inst.w, inst.c_star, inst.tau, inverse=inverse),
            asg.f_vjp(upstream @ inverse)[1],
        )
        jfb = asg.f_vjp(upstream)[1]
        for identity in (None, np.eye(8)):
            np.testing.assert_array_equal(
                vjp_dC_dW(upstream, inst.w, inst.c_star, inst.tau, inverse=identity),
                jfb,
            )


# Each caller of pq.square_matrix: the name its refusals give the matrix,
# and a call handing it a 3 x 3 matrix (k*d = 3 on the instance).
GATED = {
    "adjoint_inverse": ("j_c", lambda inst, mat: adjoint_inverse(mat)),
    "vjp_dC_dW": ("adjoint inverse", lambda inst, mat: vjp_dC_dW(
        np.ones(3), inst.w, inst.c_star, inst.tau, inverse=mat)),
    "solve_fixed_point": ("chord", lambda inst, mat: solve_fixed_point(
        inst.w, inst.c_star, inst.tau, 1e-6, 5, chord=mat)),
}


@pytest.mark.parametrize("caller", list(GATED))
class TestSquareMatrixGate:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_matrix_is_a_numerics_error_naming_it(self, caller, bad):
        # Not AdjointSingular ("condition number nan"), which --fallback-jfb
        # would take for a singular adjoint.
        what, call = GATED[caller]
        mat = 0.1 * np.eye(3)
        mat[0, 1] = bad
        inst = _converged_instance(6, m=12, k=3, d=1)
        with pytest.raises(NumericsError,
                           match=f"^{what} contains non-finite values$") as info:
            call(inst, mat)
        assert info.type is NumericsError

    def test_a_ragged_matrix_is_a_shape_error_naming_it(self, caller):
        # Not NumPy's ValueError from the float64 conversion.
        what, call = GATED[caller]
        ragged = [[0.1, 0.0, 0.0], [0.0, 0.1], [0.0, 0.0, 0.1]]
        inst = _converged_instance(6, m=12, k=3, d=1)
        with pytest.raises(ShapeError, match=f"^{what} must be square"):
            call(inst, ragged)


def test_implicit_and_jfb_need_no_trace():
    # The forward solve retains a single codebook and both one-shot backends
    # work from it alone; only the recorded trace enables the unrolled sweep.
    inst = make_instance(10)
    result = solve_fixed_point(
        inst.w, inst.c0, inst.tau, FORWARD_EPS, FORWARD_MAX_ITERS
    )
    assert result.trace is None
    assert result.retained_codebooks == 1
    dense_dC_dW(inst.w, result.codebook, inst.tau, GradBackend())
    dense_dC_dW(inst.w, result.codebook, inst.tau, JFB)
