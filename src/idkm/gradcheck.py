"""Self-checking harness for the gradient backends.

Generates seeded clustering instances, solves them tightly, and compares
every derivative route against an independent reference: the implicit
gradient against the unrolled sweep, the implicit gradient against central
finite differences of the converged solve, the analytic update Jacobians
against finite differences of a single update, and the jfb gradient against
the dense dF/dW. The CLI's gradcheck command and the test suite both run
through this module so they cannot drift apart.

It also holds the paper's matrix-free adjoint, the averaged fixed-point
iteration with alpha-halving restarts (_averaged_solve), a plain loop of one
product with dF/dC* a step. Training does not run it: it inverts I - dF/dC*
directly (gradients.adjoint_inverse). neumann_inverse stacks the averaged
solve over basis rows, and the last check holds it to a dense solve.

Every dense dC*/dW here is dense_dC_dW: the VJP a training step runs
(vjp_dC_dW, vjp_through_trace), probed with the k*d basis rows. So the
checks certify the code that trains, not a second implementation of it.
The one dense dF/dW is dense_weight_jacobian, which shares no kernel with
that code; the gradients module forms no dense Jacobian but the small j_c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AdjointDivergence,
    AdjointStalled,
    NumericsError,
    ParamError,
    ShapeError,
)
from .gradients import (
    ADJOINT_EPS, GradBackend, adjoint_inverse, jacobians_of_F, vjp_dC_dW,
    vjp_through_trace,
)
from .pq import (
    DEGENERATE_FLOOR,
    SAFE_DIV_EPS,
    Codebook,
    WeightMatrix,
    _finite,
    partition_weights,
)
from .solver import (
    InitStrategy,
    fixed_point_map_F,
    init_codebook,
    solve_fixed_point,
)

FORWARD_EPS = 1e-10
FORWARD_MAX_ITERS = 5000

TOL_ORACLE = 1e-4
TOL_FD_SOLVE = 1e-3
TOL_FD_BLOCKS = 1e-5
TOL_NEUMANN = 1e-6
TOL_JFB_BLOCK = 1e-12

# Central-difference steps (times 1 + |x|) of the solve and of one update.
FD_SOLVE_STEP = 1e-5
FD_UPDATE_STEP = 1e-6

# One row per check: the SuiteReport field holding its worst error, the
# label the report prints, and the tolerance it must not exceed.
CHECKS = (
    ("oracle_err", "implicit vs unrolled", TOL_ORACLE),
    ("fd_solve_err", "implicit vs finite diff", TOL_FD_SOLVE),
    ("fd_jc_err", "update dF/dC vs FD", TOL_FD_BLOCKS),
    ("fd_jw_err", "update dF/dW vs FD", TOL_FD_BLOCKS),
    ("jfb_block_err", "jfb vs dF/dW block", TOL_JFB_BLOCK),
    ("neumann_err", "averaged inverse vs LU", TOL_NEUMANN),
)


@dataclass(frozen=True)
class GradInstance:
    """One clustering problem plus its tightly converged solution."""

    seed: int
    w: WeightMatrix
    c0: Codebook
    c_star: Codebook
    tau: float


def rel_err(candidate: np.ndarray, reference: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(reference)), 1e-30)
    return float(np.linalg.norm(candidate - reference)) / denom


def make_instance(seed: int) -> GradInstance:
    """Seeded random instance with tau tied to the data's own scale.

    m is drawn from [8, 64], k from {2, 4, 8}, d from {1, 2}; tau is 5% of
    the median pairwise sub-vector distance so the attention is neither
    one-hot nor uniform. Seeds whose forward solve stalls before reaching
    the tight tolerance are skipped deterministically (the derivative
    comparisons are only meaningful at a converged point).
    """
    attempt = seed
    while True:
        rng = np.random.default_rng(attempt)
        m = int(rng.integers(8, 65))
        k = int(rng.choice([2, 4, 8]))
        d = int(rng.choice([1, 2]))
        flat = rng.normal(size=m * d)
        w = partition_weights(flat, d)
        cols = w.data.T
        gaps = np.linalg.norm(cols[:, None, :] - cols[None, :, :], axis=2)
        tau = 0.05 * float(np.median(gaps[np.triu_indices(m, k=1)]))
        c0 = init_codebook(w, k, InitStrategy(seed=attempt))
        result = solve_fixed_point(
            w, c0, tau, FORWARD_EPS, FORWARD_MAX_ITERS
        )
        if result.converged:
            return GradInstance(
                seed=attempt, w=w, c0=c0, c_star=result.codebook, tau=tau
            )
        attempt += 10_000


def dense_weight_jacobian(wd: np.ndarray, cd: np.ndarray, tau: float) -> np.ndarray:
    """dF/dW at (cd, wd) materialised entry by entry, from a fresh evaluation.

    The oracle SoftAssignment.f_vjp is checked against, O(m*k*d^2) in
    memory. It shares no kernel with f_vjp, not even the softmax, only the
    zero-distance rule.
    """
    d, m = wd.shape
    k = cd.shape[0]
    diff = cd[None, :, :] - wd.T[:, None, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    a = np.exp((dist.min(axis=1, keepdims=True) - dist) / tau)
    a /= a.sum(axis=1, keepdims=True)
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


def dense_dC_dW(
    w: WeightMatrix,
    c: Codebook,
    tau: float,
    backend: GradBackend,
    eps: float = FORWARD_EPS,
    max_iters: int = FORWARD_MAX_ITERS,
) -> np.ndarray:
    """(k*d) x (d*m) dC*/dW, row r being the training VJP of basis row e_r.

    For implicit and jfb, c is the fixed point and the rows come from
    vjp_dC_dW on one soft assignment at c, given its adjoint inverse for
    implicit. For unrolled, c is the initial codebook (held constant): a
    solve from it to (eps, max_iters) records its trace and the rows come
    from vjp_through_trace over that solve.
    """
    basis = np.eye(c.k * c.d)
    if backend.kind == "unrolled":
        result = solve_fixed_point(w, c, tau, eps, max_iters, record_trace=True)
        return np.stack([vjp_through_trace(e, w, result, tau) for e in basis])
    asg = jacobians_of_F(w, c, tau)
    inverse = adjoint_inverse(asg.j_c) if backend.kind == "implicit" else None
    return np.stack([vjp_dC_dW(e, w, c, tau, assignment=asg, inverse=inverse)
                     for e in basis])


def check_oracle_equivalence(inst: GradInstance, backend: GradBackend) -> float:
    """The backend's gradient vs the unrolled sweep, as relative L2 error."""
    reference = dense_dC_dW(inst.w, inst.c0, inst.tau, GradBackend(kind="unrolled"))
    candidate = dense_dC_dW(inst.w, inst.c_star, inst.tau, backend)
    return rel_err(candidate, reference)


def central_differences(f, x: np.ndarray, h_scale: float) -> np.ndarray:
    """Jacobian of f at x by central differences, one column per entry of x.

    Entries are taken in row-major order. Entry idx is moved by
    h = h_scale * (1 + |x[idx]|), first up, then down; its column is
    (f(x + h) - f(x - h)) / 2h, with f's output raveled.
    """
    cols = []
    for idx in np.ndindex(x.shape):
        h = h_scale * (1.0 + abs(x[idx]))
        outs = []
        for sign in (1.0, -1.0):
            bumped = x.copy()
            bumped[idx] += sign * h
            outs.append(np.ravel(f(bumped)))
        cols.append((outs[0] - outs[1]) / (2 * h))
    return np.stack(cols, axis=1)


def _moved(w: WeightMatrix, wd: np.ndarray) -> WeightMatrix:
    return WeightMatrix(data=wd, n=w.n, pad_count=w.pad_count)


def fd_solve_jacobian(inst: GradInstance) -> np.ndarray:
    """Central differences of the converged solve, column by column.

    Each perturbed solve warm-starts from the unperturbed solution so every
    column tracks the same fixed-point branch.
    """
    def solve(wd):
        res = solve_fixed_point(
            _moved(inst.w, wd), inst.c_star, inst.tau, 1e-12, FORWARD_MAX_ITERS
        )
        if not res.converged:
            raise NumericsError("a perturbed solve stalled")
        return res.codebook.data

    return central_differences(solve, inst.w.data, FD_SOLVE_STEP)


def check_fd_solve(inst: GradInstance, backend: GradBackend) -> float:
    candidate = dense_dC_dW(inst.w, inst.c_star, inst.tau, backend)
    return rel_err(candidate, fd_solve_jacobian(inst))


def fd_update_blocks(inst: GradInstance):
    """Finite differences of a single update in both arguments."""
    fd_c = central_differences(
        lambda cd: fixed_point_map_F(inst.w, Codebook(cd), inst.tau).data,
        inst.c_star.data, FD_UPDATE_STEP,
    )
    fd_w = central_differences(
        lambda wd: fixed_point_map_F(_moved(inst.w, wd), inst.c_star, inst.tau).data,
        inst.w.data, FD_UPDATE_STEP,
    )
    return fd_c, fd_w


def check_update_blocks(inst: GradInstance) -> tuple[float, float]:
    """SoftAssignment.j_c and the dense dF/dW oracle vs finite differences."""
    fd_c, fd_w = fd_update_blocks(inst)
    return (
        rel_err(jacobians_of_F(inst.w, inst.c_star, inst.tau).j_c, fd_c),
        rel_err(dense_weight_jacobian(inst.w.data, inst.c_star.data, inst.tau), fd_w),
    )


def check_jfb_block(inst: GradInstance) -> float:
    """jfb's dC*/dW, probed through vjp_dC_dW, vs the dense dF/dW oracle.

    The oracle shares no kernel with SoftAssignment.f_vjp, not even the
    softmax, so an error in the attention or in the matrix-free v @ dF/dW,
    which all three backends train with, shows here.
    """
    jfb = dense_dC_dW(inst.w, inst.c_star, inst.tau, GradBackend(kind="jfb"))
    oracle = dense_weight_jacobian(inst.w.data, inst.c_star.data, inst.tau)
    return rel_err(jfb, oracle)


DIVERGENCE_CAP = 1e8
DIVERGENCE_GROWTH_STEPS = 10


@dataclass(frozen=True)
class AveragedAdjoint:
    """Controls of the averaged adjoint iteration.

    alpha0 is the initial averaging weight; each detected divergence restarts
    the iteration from the identity with alpha halved, at most max_restarts
    times before raising AdjointDivergence. An attempt that runs
    max_adjoint_iters steps without diverging raises AdjointStalled.
    """

    alpha0: float = 0.25
    max_adjoint_iters: int = 500
    max_restarts: int = 5

    def __post_init__(self):
        if not 0 < self.alpha0 <= 1:
            raise ParamError(f"alpha0 must be in (0, 1], got {self.alpha0}")
        if self.max_restarts < 0:
            raise ParamError("max_restarts must be >= 0")
        if self.max_adjoint_iters < 1:
            raise ParamError("max_adjoint_iters must be >= 1")


def _averaged_solve(
    upstream: np.ndarray, j_c: np.ndarray, controls: AveragedAdjoint
) -> np.ndarray:
    """Adjoint row v = upstream + v j_c by averaged iteration from upstream.

    Each step maps x to g(x) = upstream + x j_c, one product with j_c, and
    returns x once the residual ||g(x) - x|| is below ADJOINT_EPS; otherwise
    it moves to alpha*g(x) + (1-alpha)*x. A residual that is not finite or is
    above DIVERGENCE_CAP, or that has risen DIVERGENCE_GROWTH_STEPS steps in a
    row, ends the attempt: the next starts again from upstream with alpha
    halved. An attempt that runs max_adjoint_iters steps without either
    raises AdjointStalled; when every attempt diverges, AdjointDivergence.
    """
    alpha = controls.alpha0
    attempts = controls.max_restarts + 1
    limit = controls.max_adjoint_iters
    for _ in range(attempts):
        x = upstream.copy()
        prev = np.inf
        growth = 0
        for _ in range(limit):
            mapped = upstream + x @ j_c
            res = float(np.linalg.norm(mapped - x))
            if not res <= DIVERGENCE_CAP:
                break
            if res < ADJOINT_EPS:
                return x
            growth = growth + 1 if res > prev else 0
            if growth >= DIVERGENCE_GROWTH_STEPS:
                break
            x = alpha * mapped + (1.0 - alpha) * x
            prev = res
        else:
            raise AdjointStalled(f"adjoint: residual still above {ADJOINT_EPS:g} "
                                 f"after {limit} iterations at alpha={alpha:g}")
        alpha *= 0.5
    raise AdjointDivergence(
        f"adjoint: diverged on all {attempts} attempts (final alpha={alpha * 2:g})"
    )


def neumann_inverse(j_c: np.ndarray, controls: AveragedAdjoint) -> np.ndarray:
    """(I - j_c)^-1, row r being the averaged adjoint solve for e_r."""
    j_c = np.asarray(j_c, dtype=np.float64)
    if j_c.ndim != 2 or j_c.shape[0] != j_c.shape[1]:
        raise ShapeError(f"j_c must be square, got {j_c.shape}")
    return np.stack([_averaged_solve(e, j_c, controls) for e in np.eye(len(j_c))])


def check_neumann(seed: int, count: int = 10) -> float:
    """The averaged adjoint solve, as neumann_inverse, vs a dense solve.

    Matrices are scaled to 2-norm 0.9 (hence spectral radius <= 0.9); one
    extra case carries an eigenvalue at -1.5 and starts at alpha0 = 1 so the
    divergence detector must kick in and recover by halving alpha.
    """
    rng = np.random.default_rng(seed)
    controls = AveragedAdjoint(max_adjoint_iters=4000)
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(4, 13))
        mat = rng.normal(size=(n, n))
        mat *= 0.9 / np.linalg.norm(mat, ord=2)
        direct = np.linalg.solve(np.eye(n) - mat, np.eye(n))
        worst = max(worst, rel_err(neumann_inverse(mat, controls), direct))

    spiky = np.diag([-1.5, 0.3, 0.2])
    restart = AveragedAdjoint(alpha0=1.0, max_adjoint_iters=4000)
    direct = np.linalg.solve(np.eye(3) - spiky, np.eye(3))
    worst = max(worst, rel_err(neumann_inverse(spiky, restart), direct))
    return worst


@dataclass
class SuiteReport:
    """Worst-case relative errors across the whole run. Without with_fd the
    fd_ checks did not run: their lines read skipped, and their 0.0 passes."""

    oracle_err: float = 0.0
    fd_solve_err: float = 0.0
    fd_jc_err: float = 0.0
    fd_jw_err: float = 0.0
    jfb_block_err: float = 0.0
    neumann_err: float = 0.0
    instances: int = 0
    with_fd: bool = True

    @property
    def passed(self) -> bool:
        return all(getattr(self, name) <= tol for name, _, tol in CHECKS)

    def lines(self) -> list[str]:
        lines = [f"{'instances checked':<25}: {self.instances}"]
        for name, label, tol in CHECKS:
            value = getattr(self, name)
            verdict = "ok" if value <= tol else f"FAIL (tol {tol:g})"
            shown = f"{value:.3e}  {verdict}"
            if not self.with_fd and name.startswith("fd_"):
                shown = "skipped"
            lines.append(f"{label:<25}: {shown}")
        return lines


def run_suite(
    instances: int = 20,
    base_seed: int = 0,
    with_fd: bool = True,
) -> SuiteReport:
    """Run every check; with_fd=False skips the slow finite-difference half."""
    backend = GradBackend()
    report = SuiteReport(instances=instances, with_fd=with_fd)
    for index in range(instances):
        inst = make_instance(base_seed + index)
        report.oracle_err = max(
            report.oracle_err, check_oracle_equivalence(inst, backend)
        )
        report.jfb_block_err = max(report.jfb_block_err, check_jfb_block(inst))
        if with_fd:
            report.fd_solve_err = max(
                report.fd_solve_err, check_fd_solve(inst, backend)
            )
            err_c, err_w = check_update_blocks(inst)
            report.fd_jc_err = max(report.fd_jc_err, err_c)
            report.fd_jw_err = max(report.fd_jw_err, err_w)
    report.neumann_err = check_neumann(base_seed + 777)
    return report
