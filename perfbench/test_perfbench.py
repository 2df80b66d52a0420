"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload, that each per-module metric is non-zero exactly where its
module runs, that a step which raises is counted as failed, and that the
benchmark refuses to run where idkm's sources are absent.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess

import pytest

import workloads
from idkm.errors import NumericsError

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.0

TINY = {
    name: dataclasses.replace(
        spec, classes=4, dim=16, hidden=8, separation=6.0, points_per_class=64,
        eval_points_per_class=16, pretrain_epochs=4, steps=12, setup_repeats=2,
        float_floor=0.0, top1_floor=0.0,
    )
    for name, spec in workloads.WORKLOADS.items()
    if isinstance(spec, workloads.MlpSpec)
}
TINY["conv-pipeline"] = dataclasses.replace(
    workloads.WORKLOADS["conv-pipeline"], points_per_class=32, pretrain_epochs=2,
    quantize_epochs=4, setup_repeats=2, float_floor=0.0, top1_floor=0.0,
)

# Per-module metrics that are zero by construction where the module is not
# on the workload's path; every other metric must be non-zero everywhere.
ONLY_ON = {
    "solver.trace_bytes": {"mlp-unrolled"},
    "gradients.vjp_through_trace.ms": {"mlp-unrolled"},
    "gradients.vjp_dC_dW.ms": {"mlp-implicit", "conv-pipeline"},
    "gradients.vjp_dC_dW.ok_share": {"mlp-implicit", "conv-pipeline"},
    "data.save_checkpoint.ms": {"conv-pipeline"},
    "data.load_checkpoint.ms": {"conv-pipeline"},
    "config.parse_config.ms": {"conv-pipeline"},
    "cli.main.ms": {"conv-pipeline"},
}
# Zero when nothing failed or fell back, and signed differences of noise.
MAY_BE_ZERO = {"failed_share", "fallback_share", "solver.unconverged_share",
               "trace.overhead_ms", "trace.overhead_share"}

_runs: dict = {}


def tiny_run(name: str, trace: bool):
    if (name, trace) not in _runs:
        _runs[name, trace] = workloads.run(name, 0, SECONDS, trace, spec=TINY[name])
    return _runs[name, trace]


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace):
    details, result = tiny_run(name, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], details["violations"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_are_never_zero(name):
    _, result = tiny_run(name, False)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_module_metrics_are_non_zero_where_the_module_runs(name):
    _, result = tiny_run(name, True)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for metric, value in values.items():
        if metric in ONLY_ON:
            assert (value > 0) == (name in ONLY_ON[metric]), (metric, value)
        elif metric not in MAY_BE_ZERO:
            assert value > 0, metric


def test_retained_iterates_match_the_backend():
    for name in TINY:
        _, result = tiny_run(name, True)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if name == "mlp-unrolled":
            assert values["training.retained_iterates"] == values["solver.iters"]
        else:
            assert values["training.retained_iterates"] == 2  # one per layer


def test_counts_repeat_exactly_between_runs_of_one_seed():
    _, first = tiny_run("mlp-unrolled", True)
    _, again = workloads.run("mlp-unrolled", 0, SECONDS, True, spec=TINY["mlp-unrolled"])
    for metric in ("solver.iters", "pq.attention.calls",
                   "gradients.jacobians_of_F.calls", "solver.trace_bytes"):
        assert first["metrics"][metric] == again["metrics"][metric]


@pytest.mark.parametrize("name", ["mlp-implicit", "conv-pipeline"])
def test_a_step_that_raises_is_counted_as_failed(name, monkeypatch):
    original = workloads.training.quantized_train_step
    calls = []

    def third_step_raises(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise NumericsError("injected by the self-test")
        return original(*args, **kwargs)

    monkeypatch.setattr(workloads.training, "quantized_train_step", third_step_raises)
    details, result = workloads.run(name, 0, SECONDS, False, spec=TINY[name])
    ok_share = result["metrics"]["ok_share"]["value"]
    assert details["errors"] == ["NumericsError: injected by the self-test"]
    assert result["failed"] >= 1
    assert ok_share == pytest.approx(1 - result["failed"] / result["attempted"])
    assert details["failed_share"] == pytest.approx(1 - ok_share)
    if name == "conv-pipeline":
        # The quantize command exits non-zero, which fails the run's checks.
        assert not result["correct"]


def test_exits_non_zero_without_idkm_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(workloads.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "conv-pipeline", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
