"""Product-quantization layout and the hard/soft quantization maps.

A layer's flat weight vector of length n is split into m sub-vectors of
dimension d (zero-padded when d does not divide n) and clustered against a
codebook of k codewords. The soft quantizer replaces each sub-vector by an
attention-weighted convex combination of codewords; its exact vector-Jacobian
products with respect to both the weights and the codebook are provided here.

Conventions used throughout the package:

* weight matrices are d x m with column i holding sub-vector w_i,
* codebooks are k x d with row j holding codeword c_j,
* distances are plain 2-norms (never squared inside the attention),
* attention is softmax(-distances / tau) over the codewords, maximum
  subtracted so temperatures as small as 5e-4 cannot overflow; the package
  runs it k x m, codeword-major (attention),
* a distance at most SAFE_DIV_EPS has no direction: the norm is not
  differentiable there, and every derivative drops that pair's direction term.

The validating wrappers (WeightMatrix, Codebook) guard the public entry and
exit points. Inside a solve and a training step, one unvalidated
SoftAssignment per layer carries the
distances, attention and column sums at the converged codebook, and every
consumer of the soft assignment reuses it. It is also the one home of the
soft k-means center update F, which the solver iterates (`update`, with the
clusters it keeps stale in `degenerate`), and of its linearisation: F's
matrix-free VJP (f_vjp) and the small dense dF/dC (j_c), which every
gradient backend calls. The backward pass through the softmax and the
distances (_att_vjp_cols) is one column kernel, which f_vjp and the soft
quantizer's VJP both run. f_vjp_from_sums, the unrolled sweep's kernel,
gives f_vjp's result from an evaluation's sums alone: each column block
remakes its own distances, attention and unit directions.

Every pass over a layer's k x m arrays is column-local or a sum over the m
columns, so a large layer runs each pass by contiguous column blocks at once
(_by_columns). The blocks depend on (k, m) alone: the largest power of two
of them that keeps SPLIT_FLOOR of the k*m entries a block. The CPU count
decides only how many threads take them: the calling thread and a helper per
further CPU the process may use (so `taskset` limits them), from a pool made
on first use. Blocks write their columns into the arrays one block would, and
sums over m add the blocks' partial sums in block order, so the bits are the
same on any CPU count. The measured gains are for one BLAS thread, as the
benchmark runs; a BLAS left to start its own threads may split a block's
matrix products again (the README gives one check of that). A layer below
2 * SPLIT_FLOOR entries runs as one block on the calling thread.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericsError, ParamError, ShapeError, require_positive_finite

SAFE_DIV_EPS = 1e-300
DEGENERATE_FLOOR = 1e-12
# A pass over a layer's k x m arrays is split into column blocks only when
# every block keeps at least this many of the k*m entries. Timed on 2 CPUs
# over a layer-step's work (seven evaluations and one backward), two blocks
# of 2^15 ran 0.86-1.04x as fast as one, and two of 2^16 1.23-1.42x.
SPLIT_FLOOR = 1 << 16

_pool = None
_pool_lock = threading.Lock()


def _cpu_count() -> int:
    """CPUs this process may run on, so `taskset` limits the helpers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _column_blocks(k: int, m: int) -> list[slice] | None:
    """Contiguous column blocks of near-equal width for a pass over k x m
    entries, from (k, m) alone: the largest power of two of them not above
    k*m // SPLIT_FLOOR, so each holds SPLIT_FLOOR to 2 * SPLIT_FLOOR of the
    entries. None below 2 * SPLIT_FLOOR, where that is one block."""
    if k * m < 2 * SPLIT_FLOOR:
        return None
    count = 1 << ((k * m // SPLIT_FLOOR).bit_length() - 1)
    edges = [m * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _thread_pool():
    """The module's worker threads, made on first use: one fewer than the
    usable CPUs, since the calling thread takes blocks too. The executor
    module (and the logging it loads) is imported here, so a process whose
    layers never split does not hold it."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                max_workers=max(_cpu_count() - 1, 1),
                thread_name_prefix="idkm-columns",
            )
        return _pool


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist there, and
    a job queued for them would wait forever; nor does a parent thread that
    held the lock at the fork, and the child's copy would stay locked."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _take_blocks(todo: queue.SimpleQueue, blocks, results, kernel, columns, args):
    """Run kernel on the blocks whose indices remain in `todo`, one at a
    time, until none is left."""
    while True:
        try:
            index = todo.get_nowait()
        except queue.Empty:
            return
        cols = blocks[index]
        results[index] = kernel(*[a[..., cols] for a in columns], *args)


def _by_columns(kernel, k: int, m: int, columns: tuple, *args):
    """Run kernel over the column blocks of a k x m pass.

    Each call is kernel(*views, *args), where views are one block's columns
    of the arrays in `columns`, whose last axis has the m columns. A kernel
    writes its per-column results into views of output arrays, and returns
    its block's part of any sum over the m columns, or a tuple of such
    parts; _by_columns returns their sums, added in block order, so a pass
    gives the same bits on any CPU count. Below the floor the kernel runs
    once, on the calling thread, on the whole arrays. Otherwise the calling
    thread and min(CPUs, blocks) - 1 pool helpers take blocks from one queue
    until it is empty (on one CPU, no pool is made); NumPy releases the
    interpreter lock inside each array operation, so the blocks overlap.
    The calling thread works instead of waiting: a pool that ran every
    block while it waited took 39.7 against 35.9 ms for a layer-step on 2
    CPUs. Helpers run only these raw kernels, never a public function, so a
    caller sees each public call entered once, from its own thread.
    """
    blocks = _column_blocks(k, m)
    if blocks is None:
        return kernel(*columns, *args)
    todo = queue.SimpleQueue()
    for index in range(len(blocks)):
        todo.put(index)
    results = [None] * len(blocks)
    work = (todo, blocks, results, kernel, columns, args)
    helpers = [
        _thread_pool().submit(_take_blocks, *work)
        for _ in range(min(_cpu_count(), len(blocks)) - 1)
    ]
    try:
        _take_blocks(*work)
    finally:
        # A helper not yet started is cancelled. Any other may be writing
        # into the caller's arrays, so wait for it, even after a failure here.
        failures = [h.exception() for h in helpers if not h.cancel()]
    for failure in failures:
        if failure is not None:
            raise failure
    return _sum_blocks(results)


def _sum_blocks(parts):
    """Per-block partials of sums over m, added in block order."""
    if isinstance(parts[0], tuple):
        return tuple(_sum_blocks(part) for part in zip(*parts))
    return None if parts[0] is None else sum(parts[1:], parts[0])


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"{what} contains non-finite values")
    return arr


def _as_locked_f64(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class WeightMatrix:
    """Sub-vector layout of one layer's weights.

    Attributes:
        data: d x m matrix; column i is sub-vector w_i.
        n: length of the original flat vector.
        pad_count: trailing zeros appended to make d divide the length.
    """

    data: np.ndarray
    n: int
    pad_count: int

    def __post_init__(self):
        data = _as_locked_f64(self.data)
        if data.ndim != 2:
            raise ShapeError(f"weight matrix must be 2-D, got {data.ndim}-D")
        object.__setattr__(self, "data", data)
        d, m = data.shape
        if m * d != self.n + self.pad_count:
            raise ShapeError(
                f"m*d = {m * d} but n + pad_count = {self.n + self.pad_count}"
            )
        if not 0 <= self.pad_count < d:
            raise ShapeError(f"pad_count {self.pad_count} outside [0, d={d})")
        _finite(data, "weight matrix")

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class Codebook:
    """k x d matrix of cluster centers; row j is codeword c_j."""

    data: np.ndarray

    def __post_init__(self):
        data = _as_locked_f64(self.data)
        if data.ndim != 2:
            raise ShapeError(f"codebook must be 2-D, got {data.ndim}-D")
        if data.shape[0] < 1:
            raise ParamError("codebook needs at least one codeword")
        _finite(data, "codebook")
        object.__setattr__(self, "data", data)

    @property
    def k(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def bits_per_weight(k: int, d: int) -> float:
    """Effective storage cost of a k-codeword, d-dimensional codebook."""
    if k < 1 or d < 1:
        raise ParamError(f"k and d must be >= 1, got k={k}, d={d}")
    return math.log2(k) / d


@dataclass(frozen=True)
class SoftAssignment:
    """One evaluation of the soft assignment of sub-vectors to codewords.

    Raw, unvalidated arrays, made by soft_assign. The solver keeps the one
    taken at its returned codebook, and soft_quantize, soft_quantize_vjp and
    the cluster backward all reuse it instead of recomputing it.

    The m x k matrices are stored codeword-major, as k x m arrays: entry
    [j, i] pairs codeword j with sub-vector i. Reductions over the k
    codewords and contractions over the m sub-vectors then both run along
    contiguous memory, where an m x k layout with small k does not.

    Attributes:
        w: d x m sub-vectors and c: k x d codewords it was evaluated at.
        dist: k x m distances ||w_i - c_j||.
        att: k x m attention, each column softmax(-dist[:, i] / tau).
        col_sums: length-k attention sums over the sub-vectors.
        weighted_sums: k x d attention-weighted sums of the sub-vectors,
            att @ w.T.

    It also holds the center update F(C, W) the solver iterates, `update`:
    the attention-weighted `means`, with each `degenerate` cluster's center
    kept stale. Its linearisation is f_vjp(), F's matrix-free VJP, and j_c,
    the small dense dF/dC the implicit adjoint inverts.

    f_vjp and j_c linearise `means`, not `update`: a degenerate cluster
    draws next to no attention, so j_c is about 0 in its row and column,
    where `update` has an identity block that would make I - dF/dC
    singular. No weight moves a stale center, and the 0 gives it the zero
    dC*/dW row that finite differences of the whole solve find.
    """

    w: np.ndarray
    c: np.ndarray
    tau: float
    dist: np.ndarray
    att: np.ndarray
    col_sums: np.ndarray
    weighted_sums: np.ndarray

    @cached_property
    def scale(self) -> np.ndarray:
        """Column sums floored at DEGENERATE_FLOOR: F's denominators."""
        return np.maximum(self.col_sums, DEGENERATE_FLOOR)

    @cached_property
    def means(self) -> np.ndarray:
        """k x d center update F, before stale-center replacement."""
        return self.weighted_sums / self.scale[:, None]

    @cached_property
    def degenerate(self) -> np.ndarray:
        """Length-k mask of clusters whose attention sum is below the floor."""
        return self.col_sums < DEGENERATE_FLOOR

    @cached_property
    def update(self) -> np.ndarray:
        """k x d center update F: `means`, degenerate centers kept stale."""
        new_c = np.where(self.degenerate[:, None], self.c, self.means)
        return _finite(new_c, "center update")

    @cached_property
    def directions(self) -> np.ndarray:
        """k x d x m unit vectors g[j, :, i] = (c_j - w_i) / ||w_i - c_j||.

        Derived on first use and kept: each backward route of a layer needs
        them. Zero where the distance is at most SAFE_DIV_EPS.
        """
        (k, d), m = self.c.shape, self.w.shape[1]
        g = np.empty((k, d, m))
        _by_columns(_unit_directions, k, m, (self.w, self.dist, g), self.c)
        return g

    def f_vjp(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(v @ dF/dC, v @ dF/dW) for a length-k*d row vector v.

        With s_j = scale[j], v reaches the attention as d_att[j, i] =
        <v_j, w_i - F_j> / s_j, which goes back through each column's
        softmax to the distances, then along the unit directions; dF/dW adds
        the direct term sum_j a_ij v_j / s_j. O(m*k*d).
        """
        v = np.asarray(v, dtype=np.float64).reshape(self.c.shape)
        k, m = self.att.shape
        grad_w = np.empty(self.w.shape)
        grad_c = _by_columns(
            _f_vjp_cols, k, m, (self.w, self.att, self.directions, grad_w),
            self.tau, self.scale, v, (v * self.means).sum(axis=1),
        )
        return (
            _finite(grad_c.ravel(), "v @ dF/dC"),
            _finite(grad_w.ravel(), "v @ dF/dW"),
        )

    @cached_property
    def j_c(self) -> np.ndarray:
        """(k*d) x (k*d) dF/dC from one (k*d) x m GEMM plus k diagonal blocks."""
        (k, d), m = self.c.shape, self.w.shape[1]
        gemm, diag = _by_columns(
            _j_c_cols, k, m, (self.w, self.att, self.directions), self.means,
            self.tau * self.scale,
        )
        jc = gemm.reshape(k, d, k, d)
        idx = np.arange(k)
        jc[idx, :, idx, :] -= diag
        return _finite(jc.reshape(k * d, k * d), "dF/dC")

    def check(self, w: WeightMatrix, c: Codebook, tau: float) -> "SoftAssignment":
        """Reject an evaluation taken anywhere but at (w, c, tau): the k*d
        codewords must be equal, and the weights the same array or equal."""
        if self.w.shape != w.data.shape or self.c.shape != c.data.shape:
            raise ShapeError(
                f"soft assignment is for weights {self.w.shape} and codebook "
                f"{self.c.shape}, not {w.data.shape} and {c.data.shape}"
            )
        if self.tau != tau:
            raise ParamError(f"soft assignment is at tau={self.tau}, not {tau}")
        if not np.array_equal(self.c, c.data):
            raise ParamError("soft assignment was taken at another codebook")
        if self.w is not w.data and not np.array_equal(self.w, w.data):
            raise ParamError("soft assignment was taken at other weights")
        return self


# The column kernels _by_columns runs. Each takes the views of its block's
# columns first; run over the blocks, a kernel does what it does run once on
# the whole arrays, up to the order of the sums over m.


def _distance_cols(wd, dist, cd) -> None:
    """dist = ||w_i - c_j||, accumulated in place, coordinate by coordinate:
    a fresh k x m array costs more here than the arithmetic done on it."""
    np.subtract(wd[0], cd[:, 0, None], out=dist)
    np.square(dist, out=dist)
    for p in range(1, wd.shape[0]):
        diff = wd[p] - cd[:, p, None]
        dist += np.square(diff, out=diff)
    np.sqrt(dist, out=dist)


def _softmax_cols(dist, att, tau) -> None:
    """att = the column softmax of -dist / tau."""
    np.divide(dist, -tau, out=att)
    att -= att.max(axis=0)
    np.exp(att, out=att)
    att /= att.sum(axis=0)


def _attention_sums(att, w) -> tuple[np.ndarray, np.ndarray]:
    """A block's parts of SoftAssignment.col_sums and .weighted_sums."""
    return att.sum(axis=1), att @ w.T


def _unit_directions(w, dist, g, c) -> None:
    np.subtract(c[:, :, None], w[None, :, :], out=g)
    dist = dist[:, None, :]
    far = dist > SAFE_DIV_EPS
    np.divide(g, dist, out=g, where=far)
    np.copyto(g, 0.0, where=~far)


def _att_vjp_cols(a, g, d_att, grad_w, tau) -> np.ndarray:
    """Gradients of sum(d_att * att) on a block, d_att being k x m like att:
    writes its grad_w (d x m) and returns its part of grad_c (k x d)."""
    # coef[j, i] is the gradient with respect to distance (i, j), negated.
    coef = d_att * a
    np.subtract(d_att, coef.sum(axis=0), out=coef)
    coef *= a
    coef /= tau
    np.einsum("ji,jpi->pi", coef, g, out=grad_w)
    return -np.einsum("ji,jpi->jp", coef, g)


def _f_vjp_cols(w, a, g, grad_w, tau, scale, v, shift) -> np.ndarray:
    """SoftAssignment.f_vjp on a block; shift[j] = <v_j, F_j>."""
    d_att = v @ w
    d_att -= shift[:, None]
    d_att /= scale[:, None]
    grad_c = _att_vjp_cols(a, g, d_att, grad_w, tau)
    grad_w += (v / scale[:, None]).T @ a
    return grad_c


def _f_vjp_from_sums_cols(w, grad_w, c, tau, scale, v, shift) -> np.ndarray:
    """f_vjp_from_sums on a block: the block's distances, attention and
    unit directions are made here, used once, and dropped."""
    (k, d), width = c.shape, w.shape[1]
    dist = np.empty((k, width))
    _distance_cols(w, dist, c)
    a = np.empty((k, width))
    _softmax_cols(dist, a, tau)
    g = np.empty((k, d, width))
    _unit_directions(w, dist, g, c)
    return _f_vjp_cols(w, a, g, grad_w, tau, scale, v, shift)


def _j_c_cols(w, a, g, means, tau_scale) -> tuple[np.ndarray, np.ndarray]:
    """A block's parts of SoftAssignment.j_c: the GEMM and the k diagonal
    blocks."""
    k, d, width = g.shape
    # x[j, p, i] = a_ij (w_i - F_j)_p / (tau s_j) and y[l, q, i] = a_il g_ilq.
    x = w[None, :, :] - means[:, :, None]
    x *= (a / tau_scale[:, None])[:, None, :]
    y = a[:, None, :] * g
    return (
        x.reshape(k * d, width) @ y.reshape(k * d, width).T,
        np.einsum("jpi,jqi->jpq", x, g),
    )


def _mix_cols(a, out, ct) -> None:
    np.matmul(ct, a, out=out)


def _quantizer_vjp_cols(a, g, upstream, grad_w, tau, cd) -> np.ndarray:
    """soft_quantize_vjp on a block: writes its grad_w, returns its grad_c."""
    # The output is c^T att, so d(loss)/d att[j, i] = <c_j, upstream column i>.
    grad_c = _att_vjp_cols(a, g, cd @ upstream, grad_w, tau)
    grad_c += a @ upstream.T
    return grad_c


def _distances(wd: np.ndarray, cd: np.ndarray) -> np.ndarray:
    """k x m 2-norms between the rows of cd and the columns of wd."""
    (k, _), m = cd.shape, wd.shape[1]
    dist = np.empty((k, m))
    _by_columns(_distance_cols, k, m, (wd, dist), cd)
    return dist


def soft_assign(wd: np.ndarray, cd: np.ndarray, tau: float) -> SoftAssignment:
    """Distances, attention and column sums of raw d x m sub-vectors wd
    against raw k x d codewords cd: the kernel every solve iteration runs."""
    dist = _distances(wd, cd)
    att = attention(dist, tau)
    col_sums, weighted_sums = _by_columns(_attention_sums, *att.shape, (att, wd))
    return SoftAssignment(wd, cd, tau, dist, att, col_sums, weighted_sums)


def f_vjp_from_sums(
    wd: np.ndarray,
    cd: np.ndarray,
    tau: float,
    col_sums: np.ndarray,
    weighted_sums: np.ndarray,
    v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """soft_assign(wd, cd, tau).f_vjp(v), with the same bits, given that
    evaluation's col_sums and weighted_sums: one pass by column blocks,
    each remaking its own distances, attention and unit directions, so no
    k x m array of the layer is made. The unrolled sweep's kernel."""
    scale = np.maximum(col_sums, DEGENERATE_FLOOR)
    v = np.asarray(v, dtype=np.float64).reshape(cd.shape)
    shift = (v * (weighted_sums / scale[:, None])).sum(axis=1)
    grad_w = np.empty(wd.shape)
    grad_c = _by_columns(
        _f_vjp_from_sums_cols, cd.shape[0], wd.shape[1], (wd, grad_w),
        cd, tau, scale, v, shift,
    )
    return (
        _finite(grad_c.ravel(), "v @ dF/dC"),
        _finite(grad_w.ravel(), "v @ dF/dW"),
    )


def assignment_at(
    w: WeightMatrix,
    c: Codebook,
    tau: float,
    assignment: SoftAssignment | None = None,
) -> SoftAssignment:
    """The soft assignment of w against c: `assignment`, once checked to
    have been taken there, else a fresh evaluation."""
    if assignment is not None:
        return assignment.check(w, c, tau)
    require_same_dim(w, c)
    return soft_assign(w.data, c.data, tau)


def require_same_dim(w: WeightMatrix, c: Codebook) -> None:
    """The sub-vectors and the codewords must have one dimension d."""
    if w.d != c.d:
        raise ShapeError(f"sub-vector dim {w.d} != codeword dim {c.d}")


def partition_weights(flat, d: int) -> WeightMatrix:
    """Split a flat vector into d x m column sub-vectors.

    Consecutive entries of `flat` form each sub-vector, so column i is
    flat[i*d : (i+1)*d]. When d does not divide the length, trailing zeros
    are appended and tracked in `pad_count`.
    """
    flat = np.asarray(flat, dtype=np.float64).ravel()
    n = flat.size
    if n < 1:
        raise ParamError("cannot partition an empty vector")
    if d < 1:
        raise ParamError(f"sub-vector dimension must be >= 1, got {d}")
    rem = n % d
    pad_count = 0 if rem == 0 else d - rem
    if pad_count:
        flat = np.concatenate([flat, np.zeros(pad_count)])
    data = flat.reshape(-1, d).T
    return WeightMatrix(data=data, n=n, pad_count=pad_count)


def flatten_weights(w: WeightMatrix) -> np.ndarray:
    """Inverse of partition_weights: original flat vector, padding stripped."""
    return w.data.T.ravel()[: w.n].copy()


def attention(dist: np.ndarray, tau: float) -> np.ndarray:
    """k x m attention of raw k x m distances, soft_assign's kernel: column
    i is the softmax of -dist[:, i] / tau less its maximum, so a sharp
    temperature saturates to a hard assignment instead of overflowing.

    It is the raw kernel and validates nothing: distances that overflow to
    inf give nan columns, returned without raising. SoftAssignment.update
    and the WeightMatrix check on soft_quantize's output catch them."""
    require_positive_finite("tau", tau)
    att = np.empty_like(dist)
    _by_columns(_softmax_cols, *dist.shape, (dist, att), tau)
    return att


def nearest_indices(w: WeightMatrix, c: Codebook) -> np.ndarray:
    """Index of the closest codeword per sub-vector; ties go to the lowest index."""
    require_same_dim(w, c)
    return np.argmin(_distances(w.data, c.data), axis=0)


def hard_quantize(w: WeightMatrix, c: Codebook) -> WeightMatrix:
    """Replace every sub-vector with its nearest codeword."""
    idx = nearest_indices(w, c)
    return WeightMatrix(data=c.data[idx].T, n=w.n, pad_count=w.pad_count)


def soft_quantize(
    w: WeightMatrix,
    c: Codebook,
    tau: float,
    assignment: SoftAssignment | None = None,
) -> WeightMatrix:
    """Replace every sub-vector with its attention-weighted codeword mix.

    Column i of the output is sum_j A_ij c_j, a convex combination, so each
    output coordinate stays inside the codeword range for that dimension.
    `assignment`, the solver's evaluation at (w, c), saves recomputing it.
    """
    a = assignment_at(w, c, tau, assignment).att
    out = np.empty(w.data.shape)
    _by_columns(_mix_cols, *a.shape, (a, out), c.data.T)
    return WeightMatrix(data=out, n=w.n, pad_count=w.pad_count)


def soft_quantize_vjp(
    upstream: np.ndarray,
    w: WeightMatrix,
    c: Codebook,
    tau: float,
    assignment: SoftAssignment | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact vector-Jacobian products of the soft quantizer.

    Propagates an upstream d x m gradient through soft_quantize, including
    the dependence of the attention weights on both arguments.

    Args:
        upstream: gradient with respect to the soft-quantized output, d x m.
        assignment: the solver's evaluation at (w, c), reused if given.

    Returns:
        (grad_w, grad_c): gradients with respect to the sub-vectors (d x m)
        and the codebook (k x d).
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != w.data.shape:
        raise ShapeError(
            f"upstream shape {upstream.shape} != weight shape {w.data.shape}"
        )
    asg = assignment_at(w, c, tau, assignment)
    grad_w = np.empty(upstream.shape)
    grad_c = _by_columns(
        _quantizer_vjp_cols, *asg.att.shape,
        (asg.att, asg.directions, upstream, grad_w), tau, c.data,
    )
    return _finite(grad_w, "soft-quantizer VJP"), _finite(grad_c, "soft-quantizer VJP")
