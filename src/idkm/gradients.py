"""Gradient backends for differentiating the clustering solve.

Three ways to obtain the derivative of the converged codebook with respect
to the weights being clustered:

* ``unrolled``: chain rule through every update the solve applied, from the
  codebooks entering them (its trace; C* = F(trace[-1])). The solve stops at
  the first iterate it certifies, so no update past that is recorded. Exact
  for the computed iterate, but must retain the whole trace, so its memory
  and time grow linearly with the iteration count.
* ``implicit``: differentiate the fixed-point condition C* = F(C*, W) at the
  solution only. The adjoint row u (I - dF/dC*)^-1 is obtained by an
  averaged fixed-point iteration with alpha-halving restarts on divergence.
  Its residuals are predicted from one computed residual by doubling, with
  squares of the averaged step made as they are needed, and checked one
  step at a time, so it decides as the step-by-step loop does and raises
  AdjointStalled or AdjointDivergence when it fails.
* ``jfb``: zeroth-order truncation of the Neumann series for that inverse,
  i.e. the inverse is replaced by the identity and the backward pass costs a
  single Jacobian evaluation.

All three run one matrix-free linearisation of the center update, which
lives with F on pq.SoftAssignment and is reached through jacobians_of_F:
f_vjp contracts a row vector with dF/dC and dF/dW in O(m*k*d), and j_c is
the small (k*d) x (k*d) dF/dC that ``implicit``'s adjoint iterates on. A
training step reuses the soft assignment the forward solve kept at C* and
never forms a (k*d) x (d*m) block; ``unrolled`` evaluates one soft
assignment per recorded iterate. Each backend has one implementation:
vjp_dC_dW (implicit, jfb) and vjp_through_trace (unrolled). j_c is the
only Jacobian this module forms. The dense ones live in gradcheck: dC*/dW
stacks these VJPs over basis rows, and dF/dW (dense_weight_jacobian), with
a softmax of its own, is the independent oracle they are checked against.

Flattening conventions: a k x d codebook flattens row-major to length k*d
(codeword j, coordinate p maps to j*d + p); a d x m weight matrix flattens
row-major to length d*m (coordinate p, sub-vector i maps to p*m + i). All
Jacobians in this module are laid out over those flattenings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AdjointDivergence,
    AdjointStalled,
    ParamError,
    ShapeError,
    require_positive_finite,
)
# attention stays a name of this module: perfbench traces it as gradients.attention.
from .pq import (  # noqa: F401
    Codebook,
    SoftAssignment,
    WeightMatrix,
    assignment_at,
    attention,
)

BACKEND_KINDS = ("unrolled", "implicit", "jfb")

DIVERGENCE_CAP = 1e8
DIVERGENCE_GROWTH_STEPS = 10


@dataclass(frozen=True)
class GradBackend:
    """Backend choice plus the averaged-iteration controls.

    alpha0 is the initial averaging weight; each detected divergence restarts
    the iteration from the identity with alpha halved, at most max_restarts
    times before raising AdjointDivergence. An attempt that runs
    max_adjoint_iters steps without diverging raises AdjointStalled.
    """

    kind: str = "implicit"
    alpha0: float = 0.25
    max_adjoint_iters: int = 500
    max_restarts: int = 5
    adjoint_eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ParamError(f"unknown gradient backend {self.kind!r}")
        if not 0 < self.alpha0 <= 1:
            raise ParamError(f"alpha0 must be in (0, 1], got {self.alpha0}")
        if self.max_restarts < 0:
            raise ParamError("max_restarts must be >= 0")
        if self.max_adjoint_iters < 1:
            raise ParamError("max_adjoint_iters must be >= 1")
        require_positive_finite("adjoint_eps", self.adjoint_eps)


def jacobians_of_F(
    w: WeightMatrix,
    c_star: Codebook,
    tau: float,
    assignment: SoftAssignment | None = None,
) -> SoftAssignment:
    """The soft assignment at (c_star, w), whose f_vjp and j_c linearise
    one center update there: `assignment`, the solver's evaluation at
    c_star, once checked, else a fresh one.

    Valid at any point, not only fixed points; the unrolled sweep evaluates
    it along the whole trace.
    """
    return assignment_at(w, c_star, tau, assignment)


def _averaged_run(
    upstream: np.ndarray, j_c: np.ndarray, alpha: float, backend: GradBackend
) -> np.ndarray | None:
    """One attempt of _averaged_solve at alpha: an iterate whose directly
    computed residual is below backend.adjoint_eps, or None on divergence.
    Raises AdjointStalled when max_adjoint_iters steps decide nothing. Holds
    at most max_adjoint_iters rows of k*d floats, and one square per doubling."""
    eps = backend.adjoint_eps
    limit = backend.max_adjoint_iters
    squares = [(1.0 - alpha) * np.eye(upstream.size) + alpha * j_c]
    rows = np.empty((limit, upstream.size))
    x = upstream.copy()
    prev = np.inf
    growth = 0
    start = 0
    while True:
        rows[0] = upstream + x @ j_c - x
        res = [float(np.linalg.norm(rows[0]))]
        # res grows, by doubling, each time the loop reaches its end.
        for at, r in enumerate(res):
            if not eps <= r <= DIVERGENCE_CAP:
                if at and (r < eps or not np.isfinite(r)):
                    break
                return x if r < eps else None
            if r > prev:
                growth += 1
                if growth >= DIVERGENCE_GROWTH_STEPS:
                    return None
            else:
                growth = 0
            prev = r
            held = at + 1
            if held == len(res):
                if start + held == limit:
                    raise AdjointStalled(f"adjoint: residual still above {eps:g} "
                                         f"after {limit} iterations at alpha={alpha:g}")
                level = held.bit_length() - 1
                take = min(held, limit - start - held)
                with np.errstate(over="ignore", invalid="ignore"):
                    if level == len(squares):
                        squares.append(squares[-1] @ squares[-1])
                    new = rows[:take] @ squares[level]
                    res += np.sqrt(np.einsum("ij,ij->i", new, new)).tolist()
                rows[held:held + take] = new
        x = x + alpha * rows[:at].sum(axis=0)
        start += at


def _averaged_solve(
    upstream: np.ndarray, j_c: np.ndarray, backend: GradBackend
) -> np.ndarray:
    """Adjoint row v = upstream + v j_c by averaged iteration from upstream.

    Each step maps x to g(x) = upstream + x j_c and moves to
    alpha*g(x) + (1-alpha)*x. Divergence (ten consecutive residual increases,
    a residual above the cap, or non-finite values) restarts from upstream
    with alpha halved; reaching max_adjoint_iters without diverging raises
    AdjointStalled. Returns an iterate whose directly computed residual
    ||g(x) - x|| is below backend.adjoint_eps.

    An attempt (_averaged_run) predicts residuals from one computed from x:
    r_{n+1} = r_n M with M = (1-alpha) I + alpha j_c, so rows h..2h-1 are
    rows 0..h-1 times M^h, doubled as far as the checks reach, each square
    made when first needed. A predicted norm that is below the tolerance or
    not finite is computed directly, after x moves by alpha times the rows
    before it; so roundoff that floors the true residual stalls.
    """
    alpha = backend.alpha0
    attempts = backend.max_restarts + 1
    for _ in range(attempts):
        x = _averaged_run(upstream, j_c, alpha, backend)
        if x is not None:
            return x
        alpha *= 0.5
    raise AdjointDivergence(
        f"adjoint: diverged on all {attempts} attempts (final alpha={alpha * 2:g})"
    )


def vjp_dC_dW(
    upstream: np.ndarray,
    w: WeightMatrix,
    c_star: Codebook,
    tau: float,
    backend: GradBackend,
    assignment: SoftAssignment | None = None,
) -> np.ndarray:
    """Row-contracted form: upstream @ dC*/dW without materializing M*.

    Solves v = upstream + v j_c by averaged iteration (or takes
    v = upstream for the jfb backend) and returns v @ dF/dW, matrix-free.
    `assignment` is the solver's soft assignment at c_star; with it, no
    distance or attention pass runs here. The unrolled backend needs the
    forward trace and is served by vjp_through_trace.
    """
    upstream = np.asarray(upstream, dtype=np.float64).ravel()
    if upstream.size != c_star.k * c_star.d:
        raise ShapeError(
            f"upstream length {upstream.size} != k*d = {c_star.k * c_star.d}"
        )
    if backend.kind == "unrolled":
        raise ParamError("unrolled VJPs require the forward trace; "
                         "use vjp_through_trace")
    asg = jacobians_of_F(w, c_star, tau, assignment=assignment)
    if backend.kind == "jfb":
        return asg.f_vjp(upstream)[1]
    return asg.f_vjp(_averaged_solve(upstream, asg.j_c, backend))[1]


def vjp_through_trace(
    upstream: np.ndarray,
    w: WeightMatrix,
    trace: tuple[Codebook, ...],
    tau: float,
) -> np.ndarray:
    """Reverse sweep of the recorded solve, contracted with one upstream row.

    One soft assignment and one matrix-free VJP per recorded iterate, the
    codebook entering each update the solve applied.
    """
    total = np.zeros(w.d * w.m)
    v = np.asarray(upstream, dtype=np.float64).ravel()
    for step_input in reversed(trace):
        v, grad_w = jacobians_of_F(w, step_input, tau).f_vjp(v)
        total += grad_w
    return total
