"""Soft k-means as repeated application of a fixed-point map.

One update F(C, W) recomputes the attention against the current centers and
replaces every center with its attention-weighted mean of sub-vectors. A
cold solve starts from a seeded k-means++ draw (init_codebook). The
solver iterates F until the current codebook's fixed-point gap ||F(C) - C||
drops below a tolerance, with an optional recorded trace of the codebook
entering every update. The trace is what an unrolled backward pass must
retain, so its length is the quantity measured by the memory
instrumentation; all other backends keep exactly one codebook.

The loop and fixed_point_map_F run one raw-array kernel, pq.soft_assign,
and take F from the SoftAssignment it returns: its `update` holds the new
centers, with the clusters in its `degenerate` mask kept stale, and raises
on a non-finite result. Validation runs only on entry and on the returned
codebook. Each evaluation of F serves twice: its gap ||F(C) - C|| decides
whether C is returned, and otherwise its update is the next iterate. So
the loop stops at the first iterate it has certified, and that iterate's
soft assignment is kept on the result for the training step's soft
quantizer and backward pass to reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParamError, require_positive_finite
# attention stays a name of this module: perfbench traces it as solver.attention.
from .pq import (  # noqa: F401
    Codebook, SoftAssignment, WeightMatrix, assignment_at, attention,
    require_same_dim, soft_assign,
)


@dataclass(frozen=True)
class InitStrategy:
    """The seed of a cold solve's k-means++ draw of its first codebook.

    A warm solve passes its previous codebook to solve_fixed_point instead.
    """

    seed: int = 0


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of a fixed-point solve.

    `residual` is the Frobenius gap ||F(C*) - C*|| evaluated at the returned
    codebook, the gap the loop stopped on, so a converged result satisfies
    the fixed-point condition to within eps by construction. `assignment` is
    the soft assignment of that last evaluation, taken at the returned
    codebook. `iterations` counts the updates applied, at least one. `trace`
    holds the codebook entering each update, in order, and only when
    recording was requested. `degenerate_clusters` counts the clusters
    degenerate at C*: those whose attention sum there is below the floor,
    so F keeps their centers stale.
    """

    codebook: Codebook
    iterations: int
    residual: float
    converged: bool
    trace: tuple[Codebook, ...] | None = None
    degenerate_clusters: int = field(default=0)
    assignment: SoftAssignment | None = field(default=None, repr=False, compare=False)

    @property
    def retained_codebooks(self) -> int:
        """Codebook snapshots held for a backward pass: len(trace), else 1."""
        return len(self.trace) if self.trace is not None else 1


def init_codebook(w: WeightMatrix, k: int, strategy: InitStrategy) -> Codebook:
    """Pick k initial centers from the sub-vectors of w by k-means++.

    Deterministic for a given strategy seed. The rows are drawn from
    distinct sub-vector indices.
    """
    if k < 1:
        raise ParamError(f"k must be >= 1, got {k}")
    if k > w.m:
        raise ParamError(f"k={k} exceeds the number of sub-vectors m={w.m}")
    rng = np.random.default_rng(strategy.seed)
    points = w.data.T
    # D^2 sampling. Already-chosen points have distance 0 and are
    # never redrawn; if every remaining point coincides with a center, fall
    # back to uniform sampling over the unchosen indices.
    chosen = [int(rng.integers(w.m))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(w.m, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(w.m), np.array(chosen))
            idx = int(rng.choice(remaining))
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return Codebook(points[chosen])


def fixed_point_map_F(w: WeightMatrix, c: Codebook, tau: float) -> Codebook:
    """One application of the center-update map F(C, W)."""
    return Codebook(assignment_at(w, c, tau).update)


def solve_fixed_point(
    w: WeightMatrix,
    c0: Codebook,
    tau: float,
    eps: float,
    max_iters: int,
    record_trace: bool = False,
) -> FixedPointResult:
    """Iterate C <- F(C, W) until the returned codebook is a fixed point
    to within eps.

    F is evaluated at c0 once, then each pass applies the update and
    evaluates F at the new iterate, stopping when that gap is below eps or
    after max_iters updates. At least one update is applied, so an already
    converged c0 returns F(c0). The reported residual is the gap of the
    returned codebook itself, so `converged` certifies ||F(C*) - C*|| < eps
    exactly, and that evaluation's soft assignment is returned with the
    result. A solve takes iterations + 1 evaluations of F.
    """
    require_positive_finite("tau", tau)
    require_positive_finite("eps", eps)
    if max_iters < 1:
        raise ParamError(f"max_iters must be >= 1, got {max_iters}")
    require_same_dim(w, c0)
    if c0.k > w.m:
        raise ParamError(f"k={c0.k} exceeds the number of sub-vectors m={w.m}")

    asg = soft_assign(w.data, c0.data, tau)
    trace: list[Codebook] | None = [] if record_trace else None
    for iterations in range(1, max_iters + 1):
        if record_trace:
            trace.append(Codebook(asg.c))
        asg = soft_assign(w.data, asg.update, tau)
        residual = float(np.linalg.norm(asg.update - asg.c))
        if residual < eps:
            break

    return FixedPointResult(
        codebook=Codebook(asg.c),
        iterations=iterations,
        residual=residual,
        converged=residual < eps,
        trace=tuple(trace) if record_trace else None,
        degenerate_clusters=int(asg.degenerate.sum()),
        assignment=asg,
    )
