"""Gradient backends for differentiating the clustering solve.

Three ways to obtain the derivative of the converged codebook with respect
to the weights being clustered:

* ``unrolled``: chain rule through every update the solve applied, from the
  codebooks entering them (its trace; C* = F(trace[-1])). The solve stops at
  the first iterate it certifies, so no update past that is recorded. Exact
  for the computed iterate, but must retain the whole trace, so its memory
  and time grow linearly with the iteration count. It keeps t codebooks
  and t * k * (d+1) sums, not t soft assignments, and remakes the m x k
  arrays of every iterate but the last on its reverse sweep (Griewank &
  Walther's recompute-instead-of-store trade).
* ``implicit``: differentiate the fixed-point condition C* = F(C*, W) at the
  solution only. The adjoint row v = u (I - dF/dC*)^-1 is one product with
  the inverse of the small (k*d) x (k*d) matrix I - dF/dC*, formed once per
  layer-step by adjoint_inverse, which raises AdjointSingular when that
  matrix is singular or its condition number is past COND_LIMIT. A training
  step keeps the inverse for the layer's next warm solve, whose first update
  is a chord step with it (solver.solve_fixed_point). A cold solve's Newton
  steps invert their own evaluation's dF/dC with it too.
* ``jfb``: zeroth-order truncation of the Neumann series for that inverse,
  i.e. the inverse is replaced by the identity and the backward pass costs a
  single Jacobian evaluation (Fung et al., Jacobian-free backpropagation).

All three run one matrix-free linearisation of the center update, which
lives with F on pq.SoftAssignment and is reached through pq.assignment_at:
f_vjp contracts a row vector with dF/dC and dF/dW in O(m*k*d), and j_c is
the small (k*d) x (k*d) dF/dC that ``implicit``'s adjoint inverts. A
training step reuses the soft assignment the forward solve kept at C* and
never forms a (k*d) x (d*m) block. ``unrolled`` runs f_vjp on the one the
solve kept at trace[-1], and each earlier iterate's VJP as one pass of
pq.f_vjp_from_sums, which gives f_vjp's bits from the sums the solve
recorded, remaking the distances, attention and unit directions a column
block at a time. implicit and jfb are one VJP, vjp_dC_dW, taken with
the adjoint inverse or without it; unrolled is vjp_through_trace. j_c is
the only Jacobian this module forms. The dense ones live in gradcheck: dC*/dW
stacks these VJPs over basis rows, and dF/dW (dense_weight_jacobian), with
a softmax of its own, is the independent oracle they are checked against.

Flattening conventions: a k x d codebook flattens row-major to length k*d
(codeword j, coordinate p maps to j*d + p); a d x m weight matrix flattens
row-major to length d*m (coordinate p, sub-vector i maps to p*m + i). All
Jacobians in this module are laid out over those flattenings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AdjointSingular, ParamError, ShapeError
from .pq import (  # noqa: F401
    Codebook, SoftAssignment, WeightMatrix, assignment_at, attention,
    f_vjp_from_sums, square_matrix,
)

# attention and this alias are kept only for perfbench's spans; the cluster
# VJPs below call the alias by its name so that the benchmark counts them.
jacobians_of_F = assignment_at

if TYPE_CHECKING:  # solver imports this module
    from .solver import FixedPointResult

BACKEND_KINDS = ("unrolled", "implicit", "jfb")

# I - dF/dC* is refused past this 1-norm condition number. Its inverse then
# keeps about 8 correct digits, as roundoff grows as cond * 2.2e-16.
COND_LIMIT = 1e8

# Where ||u dF/dC*|| is below this, u solves v = u + v dF/dC* to within it:
# vjp_dC_dW takes v = u, so implicit is jfb's bits where dF/dC* = 0.
ADJOINT_EPS = 1e-8


@dataclass(frozen=True)
class GradBackend:
    """Which of BACKEND_KINDS differentiates the clustering solve."""

    kind: str = "implicit"

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ParamError(f"unknown gradient backend {self.kind!r}")


def adjoint_inverse(j_c: np.ndarray) -> np.ndarray:
    """(I - j_c)^-1 for the (k*d) x (k*d) dF/dC* at a fixed point.

    Raises AdjointSingular only when I - j_c is singular, or when its 1-norm
    condition number ||I - j_c|| ||(I - j_c)^-1|| is past COND_LIMIT. A j_c
    that is ragged or not square is a ShapeError, one not finite a NumericsError.
    """
    j_c = square_matrix(j_c, "j_c")
    a = np.eye(len(j_c)) - j_c
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise AdjointSingular("adjoint: I - dF/dC* is singular") from None
    cond = float(np.linalg.norm(a, 1) * np.linalg.norm(inverse, 1))
    if not cond <= COND_LIMIT:
        raise AdjointSingular(f"adjoint: I - dF/dC* has condition number "
                              f"{cond:.3g}, past {COND_LIMIT:g}")
    return inverse


def vjp_dC_dW(
    upstream: np.ndarray,
    w: WeightMatrix,
    c_star: Codebook,
    tau: float,
    assignment: SoftAssignment | None = None,
    inverse: np.ndarray | None = None,
) -> np.ndarray:
    """Row-contracted form: upstream @ dC*/dW without materializing M*.

    Takes v = upstream @ inverse, where `inverse` is adjoint_inverse(j_c) at
    c_star, and returns v @ dF/dW, matrix-free. Without an inverse (jfb),
    and wherever ||upstream @ j_c|| is below ADJOINT_EPS, v = upstream.
    `assignment` is the solver's soft assignment at c_star; with it, no
    distance or attention pass runs here. An inverse that is ragged or not
    (k*d) x (k*d) is a ShapeError, and one not finite a NumericsError.
    """
    upstream = np.asarray(upstream, dtype=np.float64).ravel()
    size = c_star.k * c_star.d
    if upstream.size != size:
        raise ShapeError(f"upstream length {upstream.size} != k*d = {size}")
    if inverse is not None:
        inverse = square_matrix(inverse, "adjoint inverse", size)
    asg = jacobians_of_F(w, c_star, tau, assignment=assignment)
    v = upstream
    if inverse is not None and np.linalg.norm(upstream @ asg.j_c) >= ADJOINT_EPS:
        v = upstream @ inverse
    return asg.f_vjp(v)[1]


def vjp_through_trace(
    upstream: np.ndarray,
    w: WeightMatrix,
    result: FixedPointResult,
    tau: float,
) -> np.ndarray:
    """Reverse sweep of a solve run with record_trace, contracted with one
    upstream row: one matrix-free VJP of F per recorded iterate, the
    codebook entering each update the solve applied.

    The last update's VJP runs on the evaluation the solve kept at
    trace[-1] (pq.assignment_at), so nothing is remade there. Each earlier
    one is a single pass of pq.f_vjp_from_sums, from that update's recorded
    sums: its blocks remake their distances, attention and unit directions
    and drop them. The bits are those of assignment_at(w, c, tau).f_vjp
    over reversed(trace).
    """
    v = np.asarray(upstream, dtype=np.float64).ravel()
    trace = result.trace
    if not (trace and result.trace_sums):
        raise ParamError("the unrolled sweep needs a solve run with record_trace")
    k, d = trace[0].k, trace[0].d
    if v.size != k * d:
        raise ShapeError(f"upstream length {v.size} != k*d = {k * d}")
    last = jacobians_of_F(w, trace[-1], tau, assignment=result.trace_assignment)
    v, total = last.f_vjp(v)
    for step_input, (col_sums, weighted_sums) in zip(
        reversed(trace[:-1]), reversed(result.trace_sums[:-1])
    ):
        v, grad_w = f_vjp_from_sums(
            w.data, step_input.data, tau, col_sums, weighted_sums, v
        )
        total += grad_w
    return total
