"""Soft k-means as repeated application of a fixed-point map.

One update F(C, W) recomputes the attention against the current centers and
replaces every center with its attention-weighted mean of sub-vectors. A
cold solve starts from a seeded k-means++ draw (init_codebook). The
solver iterates F until the current codebook's fixed-point gap ||F(C) - C||
drops below a tolerance, with an optional recorded trace of the codebook
entering every update, which an unrolled backward pass differentiates; its
length is the quantity the memory instrumentation measures, and every
other backend keeps exactly one codebook. A recorded solve also keeps what
the unrolled sweep would otherwise remake (FixedPointResult; README counts
the bytes).

The loop and fixed_point_map_F run one raw-array kernel, pq.soft_assign,
and take F from the SoftAssignment it returns: its `update` holds the new
centers, with the clusters in its `degenerate` mask kept stale, and raises
on a non-finite result. Validation runs only on entry and on the returned
codebook. Each evaluation of F serves twice: its gap ||F(C) - C|| decides
whether C is returned, and otherwise its update is the next iterate. So
the loop stops at the first iterate it has certified, and that iterate's
soft assignment is kept on the result for the training step's soft
quantizer and backward pass to reuse.

An update may instead be a guarded Newton step C + M (F(C) - C), with M an
(I - dF/dC)^-1, kept only if it halves the fixed-point gap (Kelley 1995);
a rejected step costs one evaluation and the plain update runs. A warm
solve may be given `chord`, the M the implicit adjoint formed at the
previous fixed point, for its first update; every later update is plain.
A solve may instead ask for `newton`: each update then tries the step with
M inverted from that evaluation's own dF/dC (gradients.adjoint_inverse),
as DEQ forward solves do (Bai, Kolter & Koltun 2019). The first rejected
step hands the rest of the solve to plain updates, and so does the first
evaluation where plain iteration does not contract (dF/dC with spectral
radius 1 or more) or I - dF/dC is singular. Training asks for it on every
solve it starts from k-means++, except a recorded one, whose trace cannot
hold a guarded step (training._solve_layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AdjointSingular, ParamError, require_positive_finite
from .gradients import adjoint_inverse
# attention stays a name of this module: perfbench traces it as solver.attention.
from .pq import (  # noqa: F401
    Codebook, SoftAssignment, WeightMatrix, assignment_at, attention,
    require_same_dim, soft_assign, square_matrix,
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
    codebook. `iterations` counts the updates applied, at least one;
    `newton_kept` of them were kept guarded Newton steps (a chord step or
    the solve's own). `newton_rejected` says whether a guarded step was
    rejected: that applies no update but costs an evaluation, so a solve
    takes iterations + 1 evaluations of F, plus one when `newton_rejected`.
    `trace` holds the codebook entering each update, in order, and only when
    recording was requested; so do the two fields the unrolled sweep
    reuses: `trace_sums`, the (col_sums, weighted_sums) of the evaluation
    each update applied, t * k * (d+1) floats in all, and
    `trace_assignment`, the whole soft assignment at trace[-1], one m x k
    distance and attention pair besides `assignment`'s. A solve without a
    trace keeps neither. `degenerate_clusters` counts the clusters
    degenerate at C*: those whose attention sum there is below the floor,
    so F keeps their centers stale.
    """

    codebook: Codebook
    iterations: int
    residual: float
    converged: bool
    trace: tuple[Codebook, ...] | None = None
    degenerate_clusters: int = field(default=0)
    newton_kept: int = 0
    newton_rejected: bool = False
    assignment: SoftAssignment | None = field(default=None, repr=False, compare=False)
    trace_sums: tuple[tuple[np.ndarray, np.ndarray], ...] | None = field(
        default=None, repr=False, compare=False
    )
    trace_assignment: SoftAssignment | None = field(
        default=None, repr=False, compare=False
    )

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


def _gap(asg: SoftAssignment) -> float:
    return float(np.linalg.norm(asg.update - asg.c))


def _guarded_step(
    w: WeightMatrix, asg: SoftAssignment, inverse: np.ndarray, tau: float
) -> SoftAssignment | None:
    """The evaluation at C + inverse (F(C) - C), with C = asg.c, if its gap
    is below half the gap at C; else None."""
    step = asg.update - asg.c
    newton = (inverse @ step.ravel()).reshape(step.shape)
    trial = soft_assign(w.data, asg.c + newton, tau)
    return trial if _gap(trial) < 0.5 * float(np.linalg.norm(step)) else None


def _newton_inverse(j_c: np.ndarray) -> np.ndarray | None:
    """adjoint_inverse(j_c) where plain iteration contracts: None when the
    spectral radius of j_c is 1 or more, or I - j_c is refused as singular.

    Newton converges to repelling fixed points as readily as to attracting
    ones, and plain iteration leaves a repelling one; from k-means++ starts,
    4 of 150 gradcheck instances ended on one without this test.
    """
    if np.max(np.abs(np.linalg.eigvals(j_c))) >= 1:
        return None
    try:
        return adjoint_inverse(j_c)
    except AdjointSingular:
        return None


def solve_fixed_point(
    w: WeightMatrix,
    c0: Codebook,
    tau: float,
    eps: float,
    max_iters: int,
    record_trace: bool = False,
    chord: np.ndarray | None = None,
    newton: bool = False,
) -> FixedPointResult:
    """Iterate C <- F(C, W) until the returned codebook is a fixed point
    to within eps.

    F is evaluated at c0 once, then each pass applies the update and
    evaluates F at the new iterate, stopping when that gap is below eps or
    after max_iters updates. At least one update is applied, so an already
    converged c0 returns F(c0). The reported residual is the gap of the
    returned codebook itself, so `converged` certifies ||F(C*) - C*|| < eps
    exactly, and that evaluation's soft assignment is returned with the
    result.

    `chord` is a (k*d) x (k*d) (I - dF/dC)^-1 taken at an earlier fixed
    point. The first update is then c0 + chord (F(c0) - c0) if the gap
    there is below half the gap at c0, else the plain F(c0); a ragged chord
    or one of another size is a ShapeError, one not finite a NumericsError.
    With `newton`, every update tries that step with adjoint_inverse of its
    own evaluation's dF/dC instead, until the first rejected step, or the
    first evaluation whose dF/dC has spectral radius 1 or more or is refused
    as singular; each update after that is plain. A guarded step is no
    update of F, so a recorded trace cannot hold one: a trace excludes both,
    and they exclude each other.
    """
    require_positive_finite("tau", tau)
    require_positive_finite("eps", eps)
    if max_iters < 1:
        raise ParamError(f"max_iters must be >= 1, got {max_iters}")
    require_same_dim(w, c0)
    if c0.k > w.m:
        raise ParamError(f"k={c0.k} exceeds the number of sub-vectors m={w.m}")
    if record_trace and (chord is not None or newton):
        raise ParamError("a guarded Newton step cannot be recorded in a trace")
    if chord is not None:
        if newton:
            raise ParamError("a solve takes a chord or its own Newton steps, not both")
        chord = square_matrix(chord, "chord", c0.data.size)

    asg = soft_assign(w.data, c0.data, tau)
    inverse, kept, rejected = chord, 0, False
    trace: list[Codebook] = []
    sums: list[tuple[np.ndarray, np.ndarray]] = []
    for iterations in range(1, max_iters + 1):
        if record_trace:
            trace.append(Codebook(asg.c))
            sums.append((asg.col_sums, asg.weighted_sums))
            entering = asg
        if newton:
            inverse = _newton_inverse(asg.j_c)
        trial = None if inverse is None else _guarded_step(w, asg, inverse, tau)
        if trial is not None:
            asg, kept = trial, kept + 1
        else:
            # A step failed or not tried ends the guarded steps.
            rejected = rejected or inverse is not None
            newton = False
            asg = soft_assign(w.data, asg.update, tau)
        inverse = None
        residual = _gap(asg)
        if residual < eps:
            break

    return FixedPointResult(
        codebook=Codebook(asg.c),
        iterations=iterations,
        residual=residual,
        converged=residual < eps,
        trace=tuple(trace) if record_trace else None,
        degenerate_clusters=int(asg.degenerate.sum()),
        newton_kept=kept,
        newton_rejected=rejected,
        assignment=asg,
        trace_sums=tuple(sums) if record_trace else None,
        trace_assignment=entering if record_trace else None,
    )
