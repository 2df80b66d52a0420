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
* attention rows are softmax(-distances / tau) with row-max subtraction,
  so temperatures as small as 5e-4 cannot overflow,
* a distance at most SAFE_DIV_EPS has no direction: the norm is not
  differentiable there, and every derivative drops that pair's direction term.

The validating wrappers (WeightMatrix, Codebook, DistanceMatrix,
AttentionMatrix) guard the public entry and exit points. Inside a solve and a
training step, one unvalidated SoftAssignment per layer carries the
distances, attention and column sums at the converged codebook, and every
consumer of the soft assignment reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericsError, ParamError, PartitionError, ShapeError

ROW_SUM_TOL = 1e-9
SAFE_DIV_EPS = 1e-300


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
        if not np.all(np.isfinite(data)):
            raise NumericsError("weight matrix contains non-finite entries")

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
        if not np.all(np.isfinite(data)):
            raise NumericsError("codebook contains non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def k(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class DistanceMatrix:
    """m x k matrix of 2-norm distances between sub-vectors and codewords."""

    data: np.ndarray

    def __post_init__(self):
        data = _as_locked_f64(self.data)
        if data.ndim != 2:
            raise ShapeError("distance matrix must be 2-D")
        if not np.all(np.isfinite(data)):
            raise NumericsError("distance matrix contains non-finite entries")
        if np.any(data < 0):
            raise NumericsError("distance matrix contains negative entries")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class AttentionMatrix:
    """m x k row-stochastic soft-assignment weights at temperature tau."""

    data: np.ndarray
    tau: float

    def __post_init__(self):
        data = _as_locked_f64(self.data)
        if data.ndim != 2:
            raise ShapeError("attention matrix must be 2-D")
        if self.tau <= 0:
            raise ParamError(f"tau must be positive, got {self.tau}")
        if np.any(data < 0) or np.any(data > 1):
            raise NumericsError("attention entries outside [0, 1]")
        row_sums = data.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            worst = float(np.max(np.abs(row_sums - 1.0)))
            raise NumericsError(f"attention rows deviate from 1 by {worst:.3e}")
        object.__setattr__(self, "data", data)


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
    """

    w: np.ndarray
    c: np.ndarray
    tau: float
    dist: np.ndarray
    att: np.ndarray
    col_sums: np.ndarray

    @cached_property
    def directions(self) -> np.ndarray:
        """k x d x m unit vectors g[j, :, i] = (c_j - w_i) / ||w_i - c_j||.

        Derived on first use and kept: each backward route of a layer needs
        them. Zero where the distance is at most SAFE_DIV_EPS.
        """
        g = self.c[:, :, None] - self.w[None, :, :]
        dist = self.dist[:, None, :]
        far = dist > SAFE_DIV_EPS
        np.divide(g, dist, out=g, where=far)
        np.copyto(g, 0.0, where=~far)
        return g

    def check(self, w: WeightMatrix, c: Codebook, tau: float) -> "SoftAssignment":
        """Reject an evaluation taken for another layer size, k or tau."""
        if self.w.shape != w.data.shape or self.c.shape != c.data.shape:
            raise ShapeError(
                f"soft assignment is for weights {self.w.shape} and codebook "
                f"{self.c.shape}, not {w.data.shape} and {c.data.shape}"
            )
        if self.tau != tau:
            raise ParamError(f"soft assignment is at tau={self.tau}, not {tau}")
        return self


def _distances(wd: np.ndarray, cd: np.ndarray) -> np.ndarray:
    """k x m 2-norms between the rows of cd and the columns of wd.

    Accumulates in place, coordinate by coordinate: a fresh m x k array
    costs more here than the arithmetic done on it.
    """
    sq = wd[0] - cd[:, 0, None]
    np.square(sq, out=sq)
    for p in range(1, wd.shape[0]):
        diff = wd[p] - cd[:, p, None]
        sq += np.square(diff, out=diff)
    return np.sqrt(sq, out=sq)


def soft_assign(wd: np.ndarray, cd: np.ndarray, tau: float) -> SoftAssignment:
    """Distances, attention and column sums of raw d x m sub-vectors wd
    against raw k x d codewords cd: the kernel every solve iteration runs."""
    dist = _distances(wd, cd)
    att = attention(dist, tau)
    return SoftAssignment(wd, cd, tau, dist, att, att.sum(axis=1))


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
    if w.d != c.d:
        raise ShapeError(f"sub-vector dim {w.d} != codeword dim {c.d}")
    return soft_assign(w.data, c.data, tau)


def partition_weights(flat, d: int, allow_pad: bool = False) -> WeightMatrix:
    """Split a flat vector into d x m column sub-vectors.

    Consecutive entries of `flat` form each sub-vector, so column i is
    flat[i*d : (i+1)*d]. When d does not divide the length and `allow_pad`
    is set, trailing zeros are appended and tracked in `pad_count`.

    Raises:
        PartitionError: length not divisible by d and padding not allowed.
    """
    flat = np.asarray(flat, dtype=np.float64).ravel()
    n = flat.size
    if n < 1:
        raise ParamError("cannot partition an empty vector")
    if d < 1:
        raise ParamError(f"sub-vector dimension must be >= 1, got {d}")
    rem = n % d
    pad_count = 0 if rem == 0 else d - rem
    if pad_count and not allow_pad:
        raise PartitionError(f"length {n} is not divisible by d={d}")
    if pad_count:
        flat = np.concatenate([flat, np.zeros(pad_count)])
    data = flat.reshape(-1, d).T
    return WeightMatrix(data=data, n=n, pad_count=pad_count)


def flatten_weights(w: WeightMatrix) -> np.ndarray:
    """Inverse of partition_weights: original flat vector, padding stripped."""
    return w.data.T.ravel()[: w.n].copy()


def distance_matrix(w: WeightMatrix, c: Codebook) -> DistanceMatrix:
    """Entry (i, j) is the 2-norm ||w_i - c_j||."""
    if w.d != c.d:
        raise ShapeError(f"sub-vector dim {w.d} != codeword dim {c.d}")
    return DistanceMatrix(_distances(w.data, c.data).T)


def attention(
    dmat: DistanceMatrix | np.ndarray, tau: float
) -> AttentionMatrix | np.ndarray:
    """Row-wise softmax of -distances/tau, computed with max subtraction.

    The subtraction keeps the largest exponent at exactly 0, so sharp
    temperatures produce hard assignments instead of overflow.

    A DistanceMatrix gives a validated m x k AttentionMatrix. A raw array is
    the codeword-major k x m distances soft_assign computes on every solve
    iteration; it gives the k x m attention, with no validation or copy.
    """
    if tau <= 0:
        raise ParamError(f"tau must be positive, got {tau}")
    raw = isinstance(dmat, np.ndarray)
    att = np.divide(dmat if raw else dmat.data.T, -tau)
    att -= att.max(axis=0)
    np.exp(att, out=att)
    att /= att.sum(axis=0)
    if raw:
        return att
    if not np.all(np.isfinite(att)):
        raise NumericsError("attention produced non-finite entries")
    return AttentionMatrix(data=att.T, tau=tau)


def nearest_indices(w: WeightMatrix, c: Codebook) -> np.ndarray:
    """Index of the closest codeword per sub-vector; ties go to the lowest index."""
    return np.argmin(distance_matrix(w, c).data, axis=1)


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
    return WeightMatrix(data=c.data.T @ a, n=w.n, pad_count=w.pad_count)


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
    a, g = asg.att, asg.directions

    # t[j, i] = <upstream column i, codeword j>. coef[j, i] is the loss
    # gradient with respect to distance (i, j), negated.
    t = c.data @ upstream
    coef = a * (t - (t * a).sum(axis=0)) / tau

    grad_w = np.einsum("ji,jpi->pi", coef, g)
    grad_c = a @ upstream.T - np.einsum("ji,jpi->jp", coef, g)
    if not (np.all(np.isfinite(grad_w)) and np.all(np.isfinite(grad_c))):
        raise NumericsError("soft-quantizer VJP produced non-finite values")
    return grad_w, grad_c


def clustering_cost(
    w: WeightMatrix, c: Codebook, mode: str = "hard", tau: float | None = None
) -> float:
    """Sum of squared 2-norms between sub-vectors and their quantized images."""
    if mode == "hard":
        q = hard_quantize(w, c)
    elif mode == "soft":
        if tau is None:
            raise ParamError("soft clustering cost requires tau")
        q = soft_quantize(w, c, tau)
    else:
        raise ParamError(f"unknown cost mode {mode!r}")
    diff = w.data - q.data
    return float((diff * diff).sum())
