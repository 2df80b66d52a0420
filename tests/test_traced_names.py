"""The names perfbench wraps in idkm, held in tier-1.

perfbench/ lies outside tier-1's testpaths; its own self-test fails when a
name its tracer wraps is gone. This test reaches that failure from tier-1,
and pins the wrapped names that exist only for the benchmark to one-line
aliases of pq's functions. It reads perfbench and changes nothing under it.
"""

import importlib
import sys
from pathlib import Path

import pytest

import idkm.cli as cli
import idkm.config as config
import idkm.data as data
import idkm.gradients as gradients
import idkm.nn as nn
import idkm.pq as pq
import idkm.solver as solver
import idkm.training as training

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (cli, config, data, gradients, nn, nn.Network, pq, solver, training)


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, imported from its own directory; sys.path
    and the imported modules are restored afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    fresh = [name for name in ("workloads", "tracer") if name not in sys.modules]
    yield importlib.import_module("workloads")
    for name in fresh:
        sys.modules.pop(name, None)


def _attributes():
    return [dict(vars(owner)) for owner in OWNERS]


def _changed(before, after):
    return sorted(
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, old, new in zip(OWNERS, before, after)
        for name in old.keys() | new.keys()
        if old.get(name) is not new.get(name)
    )


def test_the_tracer_wraps_its_names_and_restores_them(workloads):
    before = _attributes()
    tracer = workloads.Tracer(workloads.STEP_SPAN)
    try:
        workloads.install_tracer(tracer)
        wrapped = _changed(before, _attributes())
    finally:
        tracer.remove()
    assert {"idkm.gradients.jacobians_of_F", "idkm.gradients.attention",
            "idkm.solver.attention", "idkm.pq.attention"} <= set(wrapped)
    assert _changed(before, _attributes()) == []


def test_names_kept_only_for_the_benchmark_are_aliases():
    assert solver.attention is pq.attention
    assert gradients.attention is pq.attention
    assert gradients.jacobians_of_F is pq.assignment_at
