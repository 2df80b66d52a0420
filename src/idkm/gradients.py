"""Gradient backends for differentiating the clustering solve.

Three ways to obtain the derivative of the converged codebook with respect
to the weights being clustered:

* ``unrolled``: chain rule through every recorded iteration of the solve.
  Exact for the computed iterate, but must retain the whole trace, so its
  memory and time grow linearly with the iteration count.
* ``implicit``: differentiate the fixed-point condition C* = F(C*, W) at the
  solution only. The inverse (I - dF/dC*)^-1 is obtained by an averaged
  fixed-point iteration with alpha-halving restarts on divergence.
* ``jfb``: zeroth-order truncation of the Neumann series for that inverse,
  i.e. the inverse is replaced by the identity and the backward pass costs a
  single Jacobian evaluation.

All three run one matrix-free linearisation of the center update
(ClusterJacobians): a row vector is contracted with dF/dW and dF/dC in
O(m*k*d) from the soft assignment the forward solve kept at C*, so a training
step evaluates distances and attention once per layer for its backward pass
and never forms a (k*d) x (d*m) block. ``implicit`` also builds the small
(k*d) x (k*d) dF/dC its adjoint iterates on; ``unrolled`` evaluates one soft
assignment per recorded iterate. The dense dF/dW, and the dense dC*/dW
routes built on it (implicit_dC_dW, jfb_dC_dW, unrolled_dC_dW), are oracles
for gradcheck and the tests.

Flattening conventions: a k x d codebook flattens row-major to length k*d
(codeword j, coordinate p maps to j*d + p); a d x m weight matrix flattens
row-major to length d*m (coordinate p, sub-vector i maps to p*m + i). All
Jacobians in this module are laid out over those flattenings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import AdjointDivergence, NumericsError, ParamError, ShapeError
from .pq import (
    SAFE_DIV_EPS,
    Codebook,
    DistanceMatrix,
    SoftAssignment,
    WeightMatrix,
    assignment_at,
    attention,
)
from .solver import DEGENERATE_FLOOR, solve_fixed_point

BACKEND_KINDS = ("unrolled", "implicit", "jfb")

DIVERGENCE_CAP = 1e8
DIVERGENCE_GROWTH_STEPS = 10


@dataclass(frozen=True)
class GradBackend:
    """Backend choice plus the averaged-iteration controls.

    alpha0 is the initial averaging weight; each detected divergence restarts
    the iteration from the identity with alpha halved, at most max_restarts
    times before raising AdjointDivergence.
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
        if self.adjoint_eps <= 0:
            raise ParamError("adjoint_eps must be positive")


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"{what} contains non-finite values")
    return arr


@dataclass(frozen=True)
class ClusterJacobians:
    """Linearisation of one center update F(C, W) at one soft assignment.

    With a = attention, s_j = max(column sum j, DEGENERATE_FLOOR), the
    update F_j = sum_i a_ij w_i / s_j and g_ij = (c_j - w_i)/||w_i - c_j||,
    a row vector v (k x d, flattened) gives

        e_ij = a_ij <v_j, w_i - F_j> / (tau s_j),   E_i = sum_j e_ij,
        (v dF/dW)_i = sum_j a_ij v_j / s_j + sum_j (e_ij - a_ij E_i) g_ij,
        (v dF/dC)_l = sum_i (a_il E_i - e_il) g_il,

    all in O(m*k*d), by vjp(). j_c is the small dense dF/dC, built on first
    use. j_w is the dense (k*d) x (d*m) dF/dW, built from scratch only on
    request: it is the gradcheck and test oracle, and no backend reads it.
    """

    assignment: SoftAssignment

    @cached_property
    def scale(self) -> np.ndarray:
        """Attention column sums, floored as the center update floors them."""
        return np.maximum(self.assignment.col_sums, DEGENERATE_FLOOR)

    @cached_property
    def means(self) -> np.ndarray:
        """k x d value of F at this point, before stale-center replacement."""
        asg = self.assignment
        return (asg.att @ asg.w.T) / self.scale[:, None]

    def vjp(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(v @ dF/dC, v @ dF/dW) for a length-k*d row vector v."""
        asg = self.assignment
        a, g = asg.att, asg.directions  # k x m, k x d x m
        v = np.asarray(v, dtype=np.float64).reshape(self.means.shape)
        # coef[j, i] = e_ij - a_ij E_i, built in place from <v_j, w_i - F_j>.
        coef = v @ asg.w
        coef -= (v * self.means).sum(axis=1)[:, None]
        coef *= a
        coef /= (asg.tau * self.scale)[:, None]
        coef -= a * coef.sum(axis=0)
        grad_c = -np.einsum("ji,jpi->jp", coef, g)
        grad_w = (v / self.scale[:, None]).T @ a
        grad_w += np.einsum("ji,jpi->pi", coef, g)
        return (
            _finite(grad_c.ravel(), "v @ dF/dC"),
            _finite(grad_w.ravel(), "v @ dF/dW"),
        )

    @cached_property
    def j_c(self) -> np.ndarray:
        """(k*d) x (k*d) dF/dC from one (k*d) x m GEMM plus k diagonal blocks."""
        asg = self.assignment
        a, g = asg.att, asg.directions
        k, d, m = g.shape
        # x[j, p, i] = a_ij (w_i - F_j)_p / (tau s_j) and y[l, q, i] = a_il g_ilq.
        x = (asg.w[None, :, :] - self.means[:, :, None]) * (
            a / (asg.tau * self.scale)[:, None]
        )[:, None, :]
        y = a[:, None, :] * g
        jc = (x.reshape(k * d, m) @ y.reshape(k * d, m).T).reshape(k, d, k, d)
        idx = np.arange(k)
        jc[idx, :, idx, :] -= np.einsum("jpi,jqi->jpq", x, g)
        return _finite(jc.reshape(k * d, k * d), "dF/dC")

    @cached_property
    def j_w(self) -> np.ndarray:
        """Dense (k*d) x (d*m) dF/dW; see dense_weight_jacobian."""
        asg = self.assignment
        return dense_weight_jacobian(asg.w, asg.c, asg.tau)


def dense_weight_jacobian(wd: np.ndarray, cd: np.ndarray, tau: float) -> np.ndarray:
    """dF/dW at (cd, wd) materialised entry by entry, from a fresh evaluation.

    The oracle the matrix-free vjp() is checked against, O(m*k*d^2) in
    memory. It shares neither the soft assignment nor the contraction
    order with vjp(), only the zero-distance rule.
    """
    d, m = wd.shape
    k = cd.shape[0]
    diff = cd[None, :, :] - wd.T[:, None, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    a = attention(DistanceMatrix(dist), tau).data
    s = np.maximum(a.sum(axis=0), DEGENERATE_FLOOR)
    f_out = (a.T @ wd.T) / s[:, None]
    far = (dist > SAFE_DIV_EPS)[:, :, None]
    g_dir = np.divide(diff, dist[:, :, None], out=np.zeros_like(diff), where=far)
    r_dev = wd.T[:, None, :] - f_out[None, :, :]
    gh = g_dir - np.einsum("il,ilq->iq", a, g_dir)[:, None, :]
    inv_ts = 1.0 / (tau * s)
    jw4 = np.einsum("ij,ijp,ijq->jpqi", a, r_dev, gh) * inv_ts[:, None, None, None]
    pidx = np.arange(d)
    jw4[:, pidx, pidx, :] += (a.T / s[:, None])[:, None, :]
    return _finite(jw4.reshape(k * d, d * m), "dF/dW")


def jacobians_of_F(
    w: WeightMatrix,
    c_star: Codebook,
    tau: float,
    assignment: SoftAssignment | None = None,
) -> ClusterJacobians:
    """Linearisation of one center update, evaluated at (c_star, w).

    Valid at any point, not only fixed points; the unrolled sweep evaluates
    it along the whole trace. `assignment`, the soft assignment the solver
    kept at c_star, saves a distance and attention pass. Coincident
    point/center pairs (distance at most SAFE_DIV_EPS) contribute zero
    direction, since the norm is not differentiable there.
    """
    return ClusterJacobians(assignment_at(w, c_star, tau, assignment))


def _averaged_solve(
    apply_map: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    backend: GradBackend,
    label: str,
) -> np.ndarray:
    """Averaged fixed-point iteration x <- alpha*g(x) + (1-alpha)*x.

    Divergence (ten consecutive residual increases, a residual above the cap,
    or non-finite values) restarts from `start` with alpha halved. Returns an
    iterate whose residual ||g(x) - x|| is below backend.adjoint_eps.
    """
    alpha = backend.alpha0
    attempts = backend.max_restarts + 1
    for attempt in range(attempts):
        x = start.copy()
        prev_res = np.inf
        growth = 0
        diverged = False
        for _ in range(backend.max_adjoint_iters):
            mapped = apply_map(x)
            res = float(np.linalg.norm(mapped - x))
            if not np.isfinite(res) or res > DIVERGENCE_CAP:
                diverged = True
                break
            if res < backend.adjoint_eps:
                return x
            growth = growth + 1 if res > prev_res else 0
            if growth >= DIVERGENCE_GROWTH_STEPS:
                diverged = True
                break
            x = alpha * mapped + (1.0 - alpha) * x
            prev_res = res
        if not diverged:
            raise AdjointDivergence(
                f"{label}: residual still above {backend.adjoint_eps:g} after "
                f"{backend.max_adjoint_iters} iterations at alpha={alpha:g}"
            )
        alpha *= 0.5
    raise AdjointDivergence(
        f"{label}: diverged on all {attempts} attempts (final alpha={alpha * 2:g})"
    )


def neumann_inverse(j_c: np.ndarray, backend: GradBackend) -> np.ndarray:
    """Solve M = j_c M + I by averaged iteration, yielding (I - j_c)^-1."""
    j_c = np.asarray(j_c, dtype=np.float64)
    if j_c.ndim != 2 or j_c.shape[0] != j_c.shape[1]:
        raise ShapeError(f"j_c must be square, got {j_c.shape}")
    eye = np.eye(j_c.shape[0])
    return _averaged_solve(lambda m: j_c @ m + eye, eye, backend, "adjoint inverse")


def implicit_dC_dW(
    w: WeightMatrix, c_star: Codebook, tau: float, backend: GradBackend
) -> np.ndarray:
    """Derivative of the fixed point with respect to the weights.

    Computed from the solution alone as (I - dF/dC*)^-1 dF/dW, so nothing
    from the forward solve needs to be retained.
    """
    jac = jacobians_of_F(w, c_star, tau)
    m_star = neumann_inverse(jac.j_c, backend)
    return m_star @ jac.j_w


def jfb_dC_dW(w: WeightMatrix, c_star: Codebook, tau: float) -> np.ndarray:
    """Jacobian-free approximation: the weight block of one update alone."""
    return jacobians_of_F(w, c_star, tau).j_w


def unrolled_dC_dW(
    w: WeightMatrix,
    c0: Codebook,
    tau: float,
    eps: float,
    max_iters: int,
) -> np.ndarray:
    """Exact derivative of the final iterate by a reverse sweep of the trace.

    Runs the forward solve with trace recording, then accumulates the chain
    rule backwards through every recorded update. The initial codebook is
    treated as a constant.
    """
    result = solve_fixed_point(w, c0, tau, eps, max_iters, record_trace=True)
    k_d = c0.k * c0.d
    total = np.zeros((k_d, w.d * w.m))
    carry = np.eye(k_d)
    for step_input in reversed(result.trace):
        jac = jacobians_of_F(w, step_input, tau)
        total += carry @ jac.j_w
        carry = carry @ jac.j_c
    return total


def vjp_dC_dW(
    upstream: np.ndarray,
    w: WeightMatrix,
    c_star: Codebook,
    tau: float,
    backend: GradBackend,
    assignment: SoftAssignment | None = None,
) -> np.ndarray:
    """Row-contracted form: upstream @ dC*/dW without materializing M*.

    Solves v = upstream + v j_c by the same averaged iteration (or takes
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
    jac = jacobians_of_F(w, c_star, tau, assignment=assignment)
    if backend.kind == "jfb":
        return jac.vjp(upstream)[1]
    j_c = jac.j_c
    v = _averaged_solve(
        lambda x: upstream + x @ j_c, upstream, backend, "adjoint VJP"
    )
    return jac.vjp(v)[1]


def vjp_through_trace(
    upstream: np.ndarray,
    w: WeightMatrix,
    trace: tuple[Codebook, ...],
    tau: float,
) -> np.ndarray:
    """Reverse sweep of the recorded solve, contracted with one upstream row.

    One soft assignment and one matrix-free VJP per recorded iterate.
    """
    total = np.zeros(w.d * w.m)
    v = np.asarray(upstream, dtype=np.float64).ravel()
    for step_input in reversed(trace):
        v, grad_w = jacobians_of_F(w, step_input, tau).vjp(v)
        total += grad_w
    return total
