"""Fixed-point solver: initialization, update map, convergence semantics."""

import itertools

import numpy as np
import pytest

import idkm.solver as solver
from idkm.errors import AdjointSingular, ParamError, ShapeError
from idkm.gradcheck import make_instance
from idkm.gradients import adjoint_inverse, jacobians_of_F
from idkm.pq import Codebook, WeightMatrix, partition_weights
from idkm.solver import (
    FixedPointResult,
    InitStrategy,
    fixed_point_map_F,
    init_codebook,
    solve_fixed_point,
)


def _weights(values):
    return partition_weights(np.asarray(values, dtype=float), 1)


def _book(values):
    return Codebook(np.asarray(values, dtype=float).reshape(-1, 1))


BLOB_POINTS = [0.0, 0.1, 1.0, 1.1]


def best_two_means(points):
    """Exhaustive 2-partition k-means oracle: centers of the cheapest split."""
    points = np.asarray(points, dtype=float)
    best_cost, best_centers = np.inf, None
    for mask in itertools.product([0, 1], repeat=len(points)):
        mask = np.array(mask, dtype=bool)
        if not mask.any() or mask.all():
            continue
        centers = np.array([points[~mask].mean(), points[mask].mean()])
        assign = np.where(mask, centers[1], centers[0])
        cost = float(((points - assign) ** 2).sum())
        if cost < best_cost:
            best_cost, best_centers = cost, np.sort(centers)
    return best_centers


class TestInit:
    def test_kmeans_pp_is_deterministic_and_draws_points(self):
        rng = np.random.default_rng(0)
        w = partition_weights(rng.normal(size=24), 2)
        a = init_codebook(w, 4, InitStrategy(seed=5))
        b = init_codebook(w, 4, InitStrategy(seed=5))
        np.testing.assert_array_equal(a.data, b.data)
        cols = {tuple(col) for col in w.data.T}
        assert all(tuple(row) in cols for row in a.data)
        assert len({tuple(row) for row in a.data}) == 4

    def test_kmeans_pp_survives_coincident_points(self):
        w = _weights([2.0, 2.0, 2.0])
        c = init_codebook(w, 2, InitStrategy(seed=1))
        np.testing.assert_array_equal(c.data, [[2.0], [2.0]])

    def test_k_bounds(self):
        w = _weights([0.0, 1.0])
        with pytest.raises(ParamError):
            init_codebook(w, 3, InitStrategy())
        with pytest.raises(ParamError):
            init_codebook(w, 0, InitStrategy())


class TestUpdateMap:
    def test_single_center_moves_to_the_mean(self):
        w = _weights([1.0, 2.0, 6.0])
        out = fixed_point_map_F(w, _book([100.0]), tau=0.5)
        assert out.data[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_saturated_attention_gives_per_cluster_means(self):
        w = _weights([0.0, 0.2, 10.0, 10.2])
        out = fixed_point_map_F(w, _book([0.3, 9.8]), tau=1e-3)
        np.testing.assert_allclose(
            out.data.ravel(), [0.1, 10.1], atol=1e-12, rtol=0
        )

    def test_parameter_validation(self):
        w = _weights([0.0, 1.0])
        with pytest.raises(ParamError):
            fixed_point_map_F(w, _book([0.0]), tau=0.0)
        with pytest.raises(ShapeError):
            fixed_point_map_F(w, Codebook([[0.0, 0.0]]), tau=0.5)


class TestSolve:
    def test_well_separated_blobs_match_the_exhaustive_oracle(self):
        w = _weights(BLOB_POINTS)
        c0 = init_codebook(w, 2, InitStrategy(seed=0))
        result = solve_fixed_point(w, c0, tau=0.01, eps=1e-8, max_iters=200)
        assert result.converged
        oracle = best_two_means(BLOB_POINTS)
        np.testing.assert_allclose(oracle, [0.05, 1.05], atol=1e-12)
        np.testing.assert_allclose(
            np.sort(result.codebook.data.ravel()), oracle, atol=1e-4, rtol=0
        )

    def test_fixed_c0_terminates_in_one_iteration(self):
        w = _weights(BLOB_POINTS)
        c0 = init_codebook(w, 2, InitStrategy(seed=0))
        first = solve_fixed_point(w, c0, tau=0.01, eps=1e-8, max_iters=200)
        again = solve_fixed_point(
            w, first.codebook, tau=0.01, eps=1e-8, max_iters=200
        )
        assert again.iterations == 1
        assert again.converged

    def test_max_iters_one_reports_honest_residual(self):
        # tau comparable to the cluster gap keeps the centers crawling, so a
        # single iteration cannot reach the fixed point.
        w = _weights(BLOB_POINTS)
        result = solve_fixed_point(
            w, _book([0.4, 0.6]), tau=0.3, eps=1e-8, max_iters=1
        )
        assert result.iterations == 1
        assert not result.converged
        follow_up = fixed_point_map_F(w, result.codebook, 0.3)
        assert result.residual == float(
            np.linalg.norm(follow_up.data - result.codebook.data)
        )

    def test_residual_is_the_gap_of_the_returned_codebook(self):
        rng = np.random.default_rng(2)
        w = partition_weights(rng.normal(size=40), 2)
        c0 = init_codebook(w, 4, InitStrategy(seed=2))
        result = solve_fixed_point(w, c0, tau=0.1, eps=1e-9, max_iters=500)
        assert result.converged and result.iterations > 1
        mapped = fixed_point_map_F(w, result.codebook, 0.1)
        gap = float(np.linalg.norm(mapped.data - result.codebook.data))
        assert gap == result.residual
        assert gap < 1e-9
        np.testing.assert_array_equal(result.assignment.c, result.codebook.data)

    def test_trace_records_the_input_of_every_iteration(self):
        w = _weights(BLOB_POINTS)
        c0 = _book([0.4, 0.6])
        result = solve_fixed_point(
            w, c0, tau=0.01, eps=1e-10, max_iters=300, record_trace=True
        )
        assert len(result.trace) == result.iterations
        np.testing.assert_array_equal(result.trace[0].data, c0.data)
        for prev, nxt in zip(result.trace, result.trace[1:]):
            np.testing.assert_array_equal(
                fixed_point_map_F(w, prev, 0.01).data, nxt.data
            )
        np.testing.assert_array_equal(
            fixed_point_map_F(w, result.trace[-1], 0.01).data,
            result.codebook.data,
        )

    def test_retained_codebooks_counter(self):
        w = _weights(BLOB_POINTS)
        c0 = _book([0.4, 0.6])
        plain = solve_fixed_point(w, c0, 0.01, 1e-10, 50)
        traced = solve_fixed_point(w, c0, 0.01, 1e-10, 50, record_trace=True)
        assert plain.trace is None and plain.retained_codebooks == 1
        assert traced.retained_codebooks == traced.iterations > 1

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("case", ["converges", "max_iters", "fixed_c0"])
    def test_one_evaluation_per_update_plus_one(self, monkeypatch, case, record):
        # The loop stops at the iterate whose gap it has just evaluated: F at
        # c0, then one evaluation after each update, and no residual pass.
        rng = np.random.default_rng(4)
        w = partition_weights(rng.normal(size=40), 2)
        c0 = init_codebook(w, 4, InitStrategy(seed=4))
        tau, eps, max_iters = 0.1, 1e-9, 500
        if case == "max_iters":
            max_iters = 5
        elif case == "fixed_c0":
            c0 = solve_fixed_point(w, c0, tau, 1e-14, 1000).codebook
        calls = []
        real = solver.soft_assign

        def counting(wd, cd, t):
            calls.append(cd.copy())
            return real(wd, cd, t)

        monkeypatch.setattr(solver, "soft_assign", counting)
        result = solve_fixed_point(w, c0, tau, eps, max_iters, record_trace=record)
        assert len(calls) == result.iterations + 1
        np.testing.assert_array_equal(calls[0], c0.data)
        np.testing.assert_array_equal(calls[-1], result.codebook.data)
        # Every iterate before the returned one was evaluated uncertified.
        for cur, nxt in zip(calls[1:-1], calls[2:]):
            assert np.linalg.norm(nxt - cur) >= eps
        np.testing.assert_array_equal(result.assignment.c, result.codebook.data)
        if case == "converges":
            assert result.converged and result.iterations > 1
        elif case == "max_iters":
            assert not result.converged and result.iterations == 5
        else:
            assert result.converged and result.iterations == 1
        if record:
            assert len(result.trace) == result.iterations
            if case == "fixed_c0":
                np.testing.assert_array_equal(result.trace[0].data, c0.data)
        else:
            assert result.trace is None

    def test_max_iters_solve_applies_every_update(self):
        w = _weights(BLOB_POINTS)
        book = c0 = _book([0.4, 0.6])
        result = solve_fixed_point(w, c0, tau=0.3, eps=1e-8, max_iters=5)
        for _ in range(5):
            book = fixed_point_map_F(w, book, 0.3)
        np.testing.assert_array_equal(result.codebook.data, book.data)
        assert result.iterations == 5 and not result.converged

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(9)
        w = partition_weights(rng.normal(size=30), 2)
        c0 = init_codebook(w, 3, InitStrategy(seed=9))
        a = solve_fixed_point(w, c0, tau=0.05, eps=1e-8, max_iters=100)
        b = solve_fixed_point(w, c0, tau=0.05, eps=1e-8, max_iters=100)
        np.testing.assert_array_equal(a.codebook.data, b.codebook.data)
        assert (a.iterations, a.residual, a.converged) == (
            b.iterations,
            b.residual,
            b.converged,
        )

    def test_permuting_c0_permutes_the_solution(self):
        rng = np.random.default_rng(5)
        w = partition_weights(rng.normal(size=36), 2)
        c0 = init_codebook(w, 3, InitStrategy(seed=5))
        perm = np.array([2, 0, 1])
        base = solve_fixed_point(w, c0, tau=0.1, eps=1e-9, max_iters=500)
        shuffled = solve_fixed_point(
            w, Codebook(c0.data[perm]), tau=0.1, eps=1e-9, max_iters=500
        )
        assert base.iterations == shuffled.iterations
        np.testing.assert_allclose(
            shuffled.codebook.data, base.codebook.data[perm], atol=1e-10, rtol=0
        )

    def test_degenerate_cluster_keeps_stale_center(self):
        # One center sits so far away that its attention column underflows to
        # zero; it must stay put instead of dividing by zero.
        w = _weights([0.0, 0.5, 1.0])
        result = solve_fixed_point(
            w, _book([0.4, 1e6]), tau=0.01, eps=1e-8, max_iters=50
        )
        assert result.degenerate_clusters >= 1
        assert result.codebook.data[1, 0] == 1e6
        assert np.all(np.isfinite(result.codebook.data))
        assert result.codebook.data[0, 0] == pytest.approx(0.5, abs=1e-6)

        # A stale codeword through a long solve is one degenerate cluster at
        # C*, not one per update it stayed stale.
        w = partition_weights(0.1 * np.random.default_rng(0).normal(size=40), 1)
        c0 = _book([-0.1, 0.0, 0.1, 50.0])
        result = solve_fixed_point(w, c0, tau=0.01, eps=1e-12, max_iters=50)
        assert result.converged and result.iterations == 36
        assert result.degenerate_clusters == 1
        assert result.codebook.data[3, 0] == 50.0

    def test_parameter_validation(self):
        w = _weights([0.0, 1.0])
        c0 = _book([0.0])
        with pytest.raises(ParamError):
            solve_fixed_point(w, c0, tau=0.0, eps=1e-6, max_iters=5)
        with pytest.raises(ParamError):
            solve_fixed_point(w, c0, tau=0.1, eps=0.0, max_iters=5)
        with pytest.raises(ParamError):
            solve_fixed_point(w, c0, tau=0.1, eps=1e-6, max_iters=0)
        with pytest.raises(ParamError):
            solve_fixed_point(w, _book([0.0, 1.0, 2.0]), 0.1, 1e-6, 5)

    @pytest.mark.parametrize("name", ["tau", "eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1])
    def test_tau_and_eps_must_be_positive_and_finite(self, name, value):
        # Unchecked, eps = nan ran every iteration and reported residual 0,
        # eps = inf converged after one update, tau = nan raised a
        # NumericsError and tau = inf collapsed both centers to the mean.
        w, c0 = _weights([0.0, 0.1, 1.0, 1.1]), _book([0.0, 1.0])
        settings = {"tau": 0.1, "eps": 1e-6, name: value}
        with pytest.raises(ParamError, match=f"{name} must be positive"):
            solve_fixed_point(w, c0, max_iters=30, **settings)
        if name == "tau":
            with pytest.raises(ParamError, match="tau must be positive"):
                fixed_point_map_F(w, c0, tau=value)

    def test_result_fields_round_trip(self):
        result = FixedPointResult(
            codebook=_book([1.0]), iterations=3, residual=0.5, converged=False
        )
        assert result.retained_codebooks == 1
        assert (result.newton_kept, result.newton_rejected) == (0, False)


def _moved_instance(seed):
    """A gradcheck instance, its (I - dF/dC*)^-1 at C*, and its weights
    moved by 1e-3 N(0, 1): the start of a warm solve one step later."""
    inst = make_instance(seed)
    j_c = jacobians_of_F(inst.w, inst.c_star, inst.tau).j_c
    rng = np.random.default_rng(seed)
    moved = inst.w.data + 1e-3 * rng.normal(size=inst.w.data.shape)
    w = WeightMatrix(data=moved, n=inst.w.n, pad_count=inst.w.pad_count)
    return inst, w, j_c


def _counting(monkeypatch):
    calls = []
    real = solver.soft_assign

    def counting(wd, cd, t):
        calls.append(cd.copy())
        return real(wd, cd, t)

    monkeypatch.setattr(solver, "soft_assign", counting)
    return calls


class TestChordStep:
    EPS = 1e-6

    def test_lands_on_plain_iterations_fixed_point(self):
        # Both solves stop at a gap below eps, and a codebook with gap g is
        # within about ||(I - dF/dC*)^-1|| g of the fixed point, a norm near
        # 1 / (1 - rho(dF/dC*)); so the two ends are at most twice that
        # apart. Instance 6, rho 0.92, needs 72 plain updates.
        plain_evals = chord_evals = 0
        for seed in range(20):
            inst, w, j_c = _moved_instance(seed)
            inverse = adjoint_inverse(j_c)
            plain = solve_fixed_point(w, inst.c_star, inst.tau, self.EPS, 5000)
            warm = solve_fixed_point(
                w, inst.c_star, inst.tau, self.EPS, 5000, chord=inverse
            )
            assert plain.converged and warm.converged
            assert warm.newton_kept + warm.newton_rejected == 1
            bound = 2 * self.EPS * np.linalg.norm(inverse, 2)
            gap = np.linalg.norm(warm.codebook.data - plain.codebook.data)
            assert gap <= bound, (seed, gap, bound)
            plain_evals += plain.iterations + 1
            chord_evals += warm.iterations + 1 + warm.newton_rejected
        assert chord_evals < 0.6 * plain_evals

    @pytest.mark.parametrize("kept", [True, False])
    def test_evaluations_count_a_rejected_chord_step(self, monkeypatch, kept):
        # A kept chord step is the first update. A rejected one (here an
        # inverse 100 times too large) costs one evaluation and applies no
        # update, so the solve is plain iteration's, bit for bit.
        inst, w, j_c = _moved_instance(6)
        plain = solve_fixed_point(w, inst.c_star, inst.tau, self.EPS, 5000)
        chord = adjoint_inverse(j_c) if kept else 100.0 * np.eye(len(j_c))
        calls = _counting(monkeypatch)
        warm = solve_fixed_point(
            w, inst.c_star, inst.tau, self.EPS, 5000, chord=chord
        )
        assert (warm.newton_kept, warm.newton_rejected) == (kept, not kept)
        assert len(calls) == warm.iterations + 1 + (not kept)
        np.testing.assert_array_equal(calls[-1], warm.codebook.data)
        if kept:
            assert warm.iterations < plain.iterations
        else:
            assert warm.iterations == plain.iterations
            np.testing.assert_array_equal(warm.codebook.data, plain.codebook.data)

    def test_rejected_chord_step_still_applies_one_update(self):
        inst, w, j_c = _moved_instance(6)
        plain = solve_fixed_point(w, inst.c_star, inst.tau, self.EPS, 1)
        warm = solve_fixed_point(
            w, inst.c_star, inst.tau, self.EPS, 1, chord=100.0 * np.eye(len(j_c))
        )
        assert (warm.newton_kept, warm.newton_rejected, warm.iterations) == (0, True, 1)
        np.testing.assert_array_equal(warm.codebook.data, plain.codebook.data)

    def test_chord_is_checked(self):
        inst, w, j_c = _moved_instance(2)
        with pytest.raises(ShapeError, match="chord"):
            solve_fixed_point(w, inst.c_star, inst.tau, self.EPS, 5,
                              chord=np.eye(len(j_c) + 1))
        with pytest.raises(ParamError, match="trace"):
            solve_fixed_point(w, inst.c_star, inst.tau, self.EPS, 5,
                              record_trace=True, chord=adjoint_inverse(j_c))


class TestNewtonColdSolve:
    EPS = 1e-6

    def test_lands_on_plain_iterations_fixed_point_from_kmeans_pp(self):
        # The solve ends where plain iteration does, to within the bound
        # TestChordStep derives, at an attracting fixed point. The one
        # exception is pinned: instance 5's first step halves its gap
        # (0.245 -> 0.117) into the basin of another attracting fixed point.
        plain_evals = newton_evals = 0
        elsewhere = []
        for seed in range(20):
            inst = make_instance(seed)
            plain = solve_fixed_point(inst.w, inst.c0, inst.tau, self.EPS, 5000)
            cold = solve_fixed_point(
                inst.w, inst.c0, inst.tau, self.EPS, 5000, newton=True
            )
            assert plain.converged and cold.converged
            assert np.max(np.abs(np.linalg.eigvals(cold.assignment.j_c))) < 1
            j_c = jacobians_of_F(inst.w, plain.codebook, inst.tau).j_c
            inverse = adjoint_inverse(j_c)
            bound = 2 * self.EPS * np.linalg.norm(inverse, 2)
            if np.linalg.norm(cold.codebook.data - plain.codebook.data) > bound:
                elsewhere.append(seed)
            plain_evals += plain.iterations + 1
            newton_evals += cold.iterations + 1 + cold.newton_rejected
        assert elsewhere == [5]
        assert newton_evals < plain_evals

    @pytest.mark.parametrize("planted", ["rejected", "singular", "repelling"])
    def test_a_failed_first_step_gives_plain_iteration_bit_for_bit(
        self, monkeypatch, planted
    ):
        # A step that fails the halving test (here with 100 I for the
        # inverse) costs one evaluation and applies no update. A refused
        # I - dF/dC, or a dF/dC with spectral radius 1 or more (instance 0
        # starts at 1.61), tries no step and costs none.
        inst = make_instance(0 if planted == "repelling" else 2)
        plain = solve_fixed_point(inst.w, inst.c0, inst.tau, self.EPS, 5000)
        inverses = []

        def planted_inverse(j_c):
            inverses.append(j_c)
            if planted == "singular":
                raise AdjointSingular("planted")
            return 100.0 * np.eye(len(j_c))

        monkeypatch.setattr(solver, "adjoint_inverse", planted_inverse)
        calls = _counting(monkeypatch)
        cold = solve_fixed_point(
            inst.w, inst.c0, inst.tau, self.EPS, 5000, newton=True
        )
        rejected = planted == "rejected"
        assert (cold.newton_kept, cold.newton_rejected) == (0, rejected)
        assert len(inverses) == (planted != "repelling")
        assert len(calls) == plain.iterations + 1 + rejected
        assert cold.iterations == plain.iterations
        np.testing.assert_array_equal(cold.codebook.data, plain.codebook.data)

    def test_converges_where_plain_iteration_stops_at_the_cap(self):
        # Instance 97 needs 61 plain updates; five Newton steps do.
        inst = make_instance(97)
        plain = solve_fixed_point(inst.w, inst.c0, inst.tau, self.EPS, 30)
        cold = solve_fixed_point(inst.w, inst.c0, inst.tau, self.EPS, 30, newton=True)
        assert not plain.converged and plain.iterations == 30
        assert cold.converged and cold.iterations == cold.newton_kept == 5
        converged = solve_fixed_point(inst.w, inst.c0, inst.tau, self.EPS, 5000)
        assert np.linalg.norm(cold.codebook.data - converged.codebook.data) < 1e-5

    def test_newton_excludes_a_trace_and_a_chord(self):
        inst = make_instance(2)
        with pytest.raises(ParamError, match="trace"):
            solve_fixed_point(inst.w, inst.c0, inst.tau, self.EPS, 5,
                              record_trace=True, newton=True)
        with pytest.raises(ParamError, match="chord"):
            solve_fixed_point(inst.w, inst.c0, inst.tau, self.EPS, 5, newton=True,
                              chord=np.eye(inst.c0.data.size))
