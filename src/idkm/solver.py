"""Soft k-means as repeated application of a fixed-point map.

One update F(C, W) recomputes the attention against the current centers and
replaces every center with its attention-weighted mean of sub-vectors. The
solver iterates F until the Frobenius change drops below a tolerance, with an
optional recorded trace of every intermediate codebook. The trace is what an
unrolled backward pass must retain, so its length is the quantity measured by
the memory instrumentation; all other backends keep exactly one codebook.

The loop, the final residual pass and fixed_point_map_F run one raw-array
kernel, with validation only on entry and on the returned codebook. The
residual pass's soft assignment at the returned codebook is kept on the
result for the training step's soft quantizer and backward pass to reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, ParamError, ShapeError
# attention stays a name of this module: perfbench traces it as solver.attention.
from .pq import Codebook, SoftAssignment, WeightMatrix, attention, soft_assign  # noqa: F401

DEGENERATE_FLOOR = 1e-12

INIT_KINDS = ("kmeans_pp", "random_subset", "warm_start")


@dataclass(frozen=True)
class InitStrategy:
    """How the first codebook of a solve is chosen.

    kmeans_pp draws centers by distance-squared sampling over sub-vectors,
    random_subset draws k distinct sub-vectors uniformly, and warm_start
    reuses a previously converged codebook.
    """

    kind: str = "kmeans_pp"
    seed: int = 0
    warm_codebook: Codebook | None = None

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ParamError(f"unknown init kind {self.kind!r}")
        if self.kind == "warm_start" and self.warm_codebook is None:
            raise ParamError("warm_start requires warm_codebook")


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of a fixed-point solve.

    `residual` is the Frobenius gap ||F(C*) - C*|| evaluated at the returned
    codebook, so a converged result satisfies the fixed-point condition to
    within eps by construction. `assignment` is the soft assignment that
    residual pass computed at the returned codebook. `trace` holds the
    codebook entering each update, in order, and only when recording was
    requested.
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
    """Pick k initial centers from the sub-vectors of w.

    Deterministic for a given strategy seed. All strategies return rows
    drawn from distinct sub-vector indices (or the warm codebook verbatim).
    """
    if k < 1:
        raise ParamError(f"k must be >= 1, got {k}")
    if k > w.m:
        raise ParamError(f"k={k} exceeds the number of sub-vectors m={w.m}")
    if strategy.kind == "warm_start":
        warm = strategy.warm_codebook
        if warm.k != k or warm.d != w.d:
            raise ShapeError(
                f"warm codebook is {warm.k}x{warm.d}, expected {k}x{w.d}"
            )
        return warm

    rng = np.random.default_rng(strategy.seed)
    points = w.data.T
    if strategy.kind == "random_subset":
        idx = rng.choice(w.m, size=k, replace=False)
        return Codebook(points[idx])

    # kmeans++: D^2 sampling. Already-chosen points have distance 0 and are
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


def _update(
    wd: np.ndarray, cd: np.ndarray, tau: float
) -> tuple[np.ndarray, int, SoftAssignment]:
    """One soft k-means center update on raw arrays.

    Returns the new k x d centers, the number of degenerate clusters
    (attention column sums below the floor), whose centers are kept stale
    instead of dividing by zero, and the soft assignment at cd.
    """
    asg = soft_assign(wd, cd, tau)
    denom = np.maximum(asg.col_sums, DEGENERATE_FLOOR)
    new_cd = (asg.att @ wd.T) / denom[:, None]
    degenerate = asg.col_sums < DEGENERATE_FLOOR
    if degenerate.any():
        new_cd[degenerate] = cd[degenerate]
    if not np.all(np.isfinite(new_cd)):
        raise NumericsError("center update produced non-finite values")
    return new_cd, int(degenerate.sum()), asg


def fixed_point_map_F(w: WeightMatrix, c: Codebook, tau: float) -> Codebook:
    """One application of the center-update map F(C, W)."""
    if tau <= 0:
        raise ParamError(f"tau must be positive, got {tau}")
    if w.d != c.d:
        raise ShapeError(f"sub-vector dim {w.d} != codeword dim {c.d}")
    return Codebook(_update(w.data, c.data, tau)[0])


def solve_fixed_point(
    w: WeightMatrix,
    c0: Codebook,
    tau: float,
    eps: float,
    max_iters: int,
    record_trace: bool = False,
) -> FixedPointResult:
    """Iterate C <- F(C, W) until the update is smaller than eps.

    The reported residual is the fixed-point gap of the returned codebook
    itself, obtained with one extra (never recorded) evaluation of F, so
    `converged` certifies ||F(C*) - C*|| < eps exactly. That evaluation's
    soft assignment is returned with the result.
    """
    if tau <= 0:
        raise ParamError(f"tau must be positive, got {tau}")
    if eps <= 0:
        raise ParamError(f"eps must be positive, got {eps}")
    if max_iters < 1:
        raise ParamError(f"max_iters must be >= 1, got {max_iters}")
    if w.d != c0.d:
        raise ShapeError(f"sub-vector dim {w.d} != codeword dim {c0.d}")
    if c0.k > w.m:
        raise ParamError(f"k={c0.k} exceeds the number of sub-vectors m={w.m}")

    cur = c0.data
    trace: list[Codebook] | None = [] if record_trace else None
    degenerate = 0
    iterations = 0
    for _ in range(max_iters):
        nxt, deg, _ = _update(w.data, cur, tau)
        degenerate += deg
        if record_trace:
            trace.append(Codebook(cur))
        iterations += 1
        gap = float(np.linalg.norm(nxt - cur))
        cur = nxt
        if gap < eps:
            break

    final_map, _, assignment = _update(w.data, cur, tau)
    residual = float(np.linalg.norm(final_map - cur))
    return FixedPointResult(
        codebook=Codebook(cur),
        iterations=iterations,
        residual=residual,
        converged=residual < eps,
        trace=tuple(trace) if record_trace else None,
        degenerate_clusters=degenerate,
        assignment=assignment,
    )
