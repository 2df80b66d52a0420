"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per criterion.
The MNIST criterion needs the dataset on disk (`idkm fetch-mnist`); it skips,
rather than fails, when the files are absent.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from idkm.bench import run_cell, timing_instance
from idkm.cli import EXIT_OK, main
from idkm.data import mnist_available, read_jsonl
from idkm.errors import AdjointDivergence
from idkm.gradcheck import (
    AveragedAdjoint,
    check_fd_solve,
    check_neumann,
    check_oracle_equivalence,
    check_update_blocks,
    make_instance,
    neumann_inverse,
)
from idkm.gradients import GradBackend
from idkm.pq import (
    Codebook,
    hard_quantize,
    partition_weights,
    soft_assign,
    soft_quantize,
)

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def instances():
    """Twenty seeded problems spanning m in [8, 64], k in {2,4,8}, d in {1,2}."""
    return [make_instance(seed) for seed in range(20)]


@pytest.fixture(scope="session")
def bench_cells():
    """Timed cells on the fixed conv+dense instance, every backend x t."""
    net, weights, x, y = timing_instance(seed=0, batch_size=16)
    cells = {}
    for t, repeats in ((5, 1), (30, 5), (100, 1)):
        for cell in run_cell(net, weights, x, y, ("jfb", "implicit", "unrolled"),
                             k=4, d=1, t=t, repeats=repeats):
            cells[cell.backend, t] = cell
    return cells


BACKEND = GradBackend()


def test_criterion_1_implicit_matches_the_unrolled_oracle(instances):
    start = time.perf_counter()
    worst = max(
        check_oracle_equivalence(inst, BACKEND) for inst in instances
    )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4, f"worst relative L2 vs unrolled oracle: {worst:.3e}"
    assert elapsed <= 60.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_2_gradients_match_finite_differences(instances):
    worst_solve = max(check_fd_solve(inst, BACKEND) for inst in instances)
    assert worst_solve <= 1e-3, (
        f"dC*/dW vs finite differences of the solve: {worst_solve:.3e}"
    )
    worst_c = worst_w = 0.0
    for inst in instances:
        err_c, err_w = check_update_blocks(inst)
        worst_c = max(worst_c, err_c)
        worst_w = max(worst_w, err_w)
    assert worst_c <= 1e-5, f"dF/dC vs finite differences: {worst_c:.3e}"
    assert worst_w <= 1e-5, f"dF/dW vs finite differences: {worst_w:.3e}"


def test_criterion_3_averaged_inverse_matches_dense_solves():
    worst = check_neumann(777, count=10)
    assert worst <= 1e-6, f"averaged iteration vs LU solve: {worst:.3e}"
    # the eigenvalue at -1.5 makes alpha0=1 diverge, so recovery above
    # genuinely exercised the restart path; without restarts it must raise
    spiky = np.diag([-1.5, 0.3, 0.2])
    with pytest.raises(AdjointDivergence):
        neumann_inverse(spiky, AveragedAdjoint(alpha0=1.0, max_restarts=0))


def test_criterion_4_one_shot_backends_retain_a_single_iterate(bench_cells):
    for t in (5, 30, 100):
        assert bench_cells["implicit", t].retained == 1
        assert bench_cells["jfb", t].retained == 1
        assert bench_cells["unrolled", t].retained == t


def test_criterion_5_backward_time_orders_jfb_implicit_unrolled(bench_cells):
    jfb = bench_cells["jfb", 30].backward_s
    implicit = bench_cells["implicit", 30].backward_s
    unrolled = bench_cells["unrolled", 30].backward_s
    assert jfb < implicit < unrolled, (
        f"backward seconds at t=30: jfb {jfb:.4f}, implicit {implicit:.4f}, "
        f"unrolled {unrolled:.4f}"
    )


@pytest.mark.mnist
@pytest.mark.slow
@pytest.mark.skipif(not mnist_available(), reason="MNIST files not on disk")
def test_criterion_6_mnist_accuracy_recovers_the_published_band(tmp_path):
    cfg = str(REPO / "configs" / "mnist.ini")
    out = tmp_path / "mnist"
    assert main(["pretrain", "--config", cfg, "--out", str(out)]) == EXIT_OK
    pre = read_jsonl(out / "pretrain.jsonl")
    assert pre[-1]["top1"] >= 0.97

    targets = {"implicit": 0.9501, "jfb": 0.9503}
    for backend, target in targets.items():
        code = main(["quantize", "--config", cfg, "--out", str(out),
                     "--backend", backend])
        assert code == EXIT_OK
        report = read_jsonl(out / f"quantize-{backend}.jsonl")
        final = [r for r in report if r["type"] == "epoch"][-1]
        assert abs(final["top1_hard"] - target) <= 0.03, (
            f"{backend}: hard top1 {final['top1_hard']:.4f}, "
            f"target {target} +/- 0.03"
        )


def test_criterion_7_blobs_quantization_holds_the_float_baseline(tmp_path):
    cfg = str(REPO / "configs" / "blobs.ini")
    out = tmp_path / "blobs"
    start = time.perf_counter()
    assert main(["pretrain", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["quantize", "--config", cfg, "--out", str(out)]) == EXIT_OK
    elapsed = time.perf_counter() - start
    float_top1 = read_jsonl(out / "pretrain.jsonl")[-1]["top1"]
    quant = read_jsonl(out / "quantize-implicit.jsonl")
    hard_top1 = [r for r in quant if r["type"] == "epoch"][-1]["top1_hard"]
    assert hard_top1 >= float_top1 - 0.05, (
        f"hard top1 {hard_top1:.4f} vs float baseline {float_top1:.4f}"
    )
    assert elapsed < 60.0, f"blobs pipeline took {elapsed:.1f}s"


def test_criterion_8_attention_rows_are_stochastic_and_sharpen_to_hard():
    worst_sum = 0.0
    worst_limit = 0.0
    checked = 0
    for seed in range(50):
        rng = np.random.default_rng(9_000 + seed)
        d = int(rng.integers(1, 3))
        m = int(rng.integers(4, 41))
        k = int(rng.integers(2, 9))
        w = partition_weights(rng.normal(size=m * d), d)
        c = Codebook(rng.normal(size=(k, d)))
        dists = soft_assign(w.data, c.data, 1.0).dist.T

        tau = 0.05 * float(np.median(dists))
        rows = soft_assign(w.data, c.data, tau).att.T
        worst_sum = max(worst_sum, float(np.abs(rows.sum(axis=1) - 1).max()))
        assert np.all(rows >= 0)

        ordered = np.sort(dists, axis=1)
        gap = float((ordered[:, 1] - ordered[:, 0]).min())
        if gap < 1e-6:
            continue
        soft = soft_quantize(w, c, gap / 41.0)
        hard = hard_quantize(w, c)
        worst_limit = max(
            worst_limit, float(np.abs(soft.data - hard.data).max())
        )
        checked += 1
    assert checked >= 40
    assert worst_sum <= 1e-9, f"worst |row sum - 1|: {worst_sum:.3e}"
    assert worst_limit <= 1e-9, (
        f"worst |soft - hard| at tau = gap/41: {worst_limit:.3e}"
    )


def test_criterion_9_memory_claim_at_the_largest_supported_scale(bench_cells):
    # Full ResNet-scale image training is outside what this numpy stack can
    # run; the memory claim is the retained-iterate contract, re-stated here
    # at the largest instance the suite times.
    for (kind, t), cell in bench_cells.items():
        expected = t if kind == "unrolled" else 1
        assert cell.retained == expected
