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
  averaged fixed-point iteration with alpha-halving restarts on divergence,
  evaluated ADJOINT_BLOCK steps per NumPy call from repeated squares of the
  averaged step, at every k*d. It decides as the step-by-step loop does,
  and raises AdjointStalled or AdjointDivergence when it fails.
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
vjp_dC_dW (implicit, jfb) and vjp_through_trace (unrolled). A dense dC*/dW
exists only in gradcheck, which stacks these VJPs over basis rows, and the
dense dF/dW (dense_weight_jacobian) is the independent oracle they are
checked against.

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
from .pq import (
    DEGENERATE_FLOOR,
    SAFE_DIV_EPS,
    Codebook,
    DistanceMatrix,
    SoftAssignment,
    WeightMatrix,
    _finite,
    assignment_at,
    attention,
)

BACKEND_KINDS = ("unrolled", "implicit", "jfb")

DIVERGENCE_CAP = 1e8
DIVERGENCE_GROWTH_STEPS = 10
# Averaged adjoint steps evaluated per NumPy call, at most; see _averaged_solve.
ADJOINT_BLOCK = 64


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


def dense_weight_jacobian(wd: np.ndarray, cd: np.ndarray, tau: float) -> np.ndarray:
    """dF/dW at (cd, wd) materialised entry by entry, from a fresh evaluation.

    The oracle SoftAssignment.f_vjp is checked against, O(m*k*d^2) in
    memory. It shares neither the soft assignment nor the contraction
    order with f_vjp, only the zero-distance rule.
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
) -> SoftAssignment:
    """The soft assignment at (c_star, w), whose f_vjp and j_c linearise
    one center update there: `assignment`, the solver's evaluation at
    c_star, once checked, else a fresh one.

    Valid at any point, not only fixed points; the unrolled sweep evaluates
    it along the whole trace.
    """
    return assignment_at(w, c_star, tau, assignment)


def _residual_rows(
    first: np.ndarray, squares: list[np.ndarray], length: int
) -> np.ndarray:
    """The rows first M^0 ... first M^(length-1), by doubling the rows held:
    rows h..2h-1 are rows 0..h-1 times squares[i] = M^h, h = 2^i. Rows may
    overflow; see _averaged_solve."""
    rows = np.empty((length, first.size))
    rows[0] = first
    held = 1
    for square in squares:
        if held >= length:
            break
        take = min(held, length - held)
        rows[held:held + take] = rows[:take] @ square
        held += take
    return rows


def _averaged_solve(
    upstream: np.ndarray, j_c: np.ndarray, backend: GradBackend
) -> np.ndarray:
    """Adjoint row v = upstream + v j_c by averaged iteration from upstream.

    Each step maps x to g(x) = upstream + x j_c and moves to
    alpha*g(x) + (1-alpha)*x. Divergence (ten consecutive residual increases,
    a residual above the cap, or non-finite values) restarts from upstream
    with alpha halved; reaching max_adjoint_iters without diverging raises
    AdjointStalled. Returns an iterate whose directly computed residual
    ||g(x) - x|| is below backend.adjoint_eps, i.e. upstream (I - j_c)^-1 to
    that accuracy.

    The iteration runs ADJOINT_BLOCK steps per NumPy call, fewer only where
    max_adjoint_iters leaves fewer. The residual r = g(x) - x obeys
    r_{n+1} = r_n M with M = (1-alpha) I + alpha j_c, and
    x_{n+1} = x_n + alpha r_n, so a block's residuals are its first one
    (computed directly from its iterate) times M^0 ... M^(L-1). They are
    built by doubling from the squares M, M^2, ..., M^32, made once per
    attempt: about log2(ADJOINT_BLOCK) (k*d)^3 multiply-adds, and
    ADJOINT_BLOCK*k*d floats of rows plus six (k*d)^2 squares. The cap,
    tolerance and growth checks then run over the block in the loop's
    order, to the first step where one decides. A step whose predicted
    residual is below the tolerance starts the next block, where that
    residual is computed directly; so roundoff that floors the true
    residual leads to a stall, not to a return.
    """
    size = upstream.size
    alpha = backend.alpha0
    limit = backend.max_adjoint_iters
    attempts = backend.max_restarts + 1
    for _ in range(attempts):
        squares = [(1.0 - alpha) * np.eye(size) + alpha * j_c]
        with np.errstate(over="ignore", invalid="ignore"):
            while 2 ** len(squares) < ADJOINT_BLOCK:
                squares.append(squares[-1] @ squares[-1])
        x = upstream.copy()
        prev_res = np.inf
        growth = 0
        done = 0
        # Every break is a divergence; running out of steps is a stall.
        while done < limit:
            length = min(ADJOINT_BLOCK, limit - done)
            first = upstream + x @ j_c - x
            with np.errstate(over="ignore", invalid="ignore"):
                block = _residual_rows(first, squares, length)
                res = np.sqrt(np.einsum("ij,ij->i", block, block))
            res[0] = np.linalg.norm(first)
            finite = np.isfinite(res)
            if not finite[0]:
                break
            # A prediction that is not finite (an overflowed square of M times
            # a zero, say) is computed directly, as the next block's first.
            if not finite.all():
                length = int(np.argmin(finite))
                res = res[:length]
            # runs[i]: consecutive increases ending at step i, carried over
            # from the previous block while there has been no fall.
            steps = np.arange(length)
            rose = res > np.concatenate(([prev_res], res[:-1]))
            last_fall = np.maximum.accumulate(np.where(rose, -1, steps))
            runs = np.where(last_fall >= 0, steps - last_fall, growth + steps + 1)
            over = res > DIVERGENCE_CAP
            below = res < backend.adjoint_eps
            stop = over | below | (runs >= DIVERGENCE_GROWTH_STEPS)
            if stop.any():
                at = int(np.argmax(stop))
                if over[at] or not below[at]:
                    break
                if at == 0:
                    return x
                length = at
            x = x + alpha * block[:length].sum(axis=0)
            prev_res, growth = res[length - 1], runs[length - 1]
            done += length
        else:
            raise AdjointStalled(
                f"adjoint: residual still above {backend.adjoint_eps:g} after "
                f"{limit} iterations at alpha={alpha:g}"
            )
        alpha *= 0.5
    raise AdjointDivergence(
        f"adjoint: diverged on all {attempts} attempts (final alpha={alpha * 2:g})"
    )


def neumann_inverse(j_c: np.ndarray, backend: GradBackend) -> np.ndarray:
    """(I - j_c)^-1, row r being the adjoint solve vjp_dC_dW runs for e_r."""
    j_c = np.asarray(j_c, dtype=np.float64)
    if j_c.ndim != 2 or j_c.shape[0] != j_c.shape[1]:
        raise ShapeError(f"j_c must be square, got {j_c.shape}")
    return np.stack([_averaged_solve(e, j_c, backend) for e in np.eye(len(j_c))])


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
