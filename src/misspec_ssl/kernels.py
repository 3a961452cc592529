"""Kernel functions, per-feature-type distances, and Gram matrix construction.

Three distances are supported inside a generalized RBF wrapper (euclidean,
manhattan, chi-square) alongside the plain linear kernel and the standard
squared-euclidean RBF. The feature map is never materialized: the kernel
k-means solver works purely off Gram matrix entries.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import Dataset, InputError, available_memory, derive_seed, fan_out, fan_out_width

KERNEL_KINDS = ("linear", "rbf", "generalized_rbf")
DISTANCES = ("euclidean", "manhattan", "chi_square")

CHI_SQUARE_EPS = 1e-12
MEDIAN_SUBSAMPLE = 512
BLOCK_ENTRIES = 2**17
# Below this many features a euclidean distance is a per-feature fold. From
# here on ||x||^2 + ||y||^2 - 2 x.y is used: one matmul, which on one BLAS
# thread is as fast or faster for Gram matrices of 3,000 to 6,000 rows.
EUCLIDEAN_FOLD_BELOW = 6


@dataclass(frozen=True)
class KernelSpec:
    """Kernel selection: linear, rbf(gamma), or generalized_rbf(gamma, distance).

    ``gamma=None`` requests the median heuristic: 1/(median pairwise distance)
    computed on a seeded subsample of at most 512 points, in the same distance
    the kernel uses (squared euclidean for rbf).
    """

    kind: str = "rbf"
    gamma: float | None = None
    distance: str = "euclidean"

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise InputError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        if self.kind != "linear" and self.gamma is not None and not 0 < self.gamma < math.inf:
            raise InputError(f"gamma must be positive and finite, got {self.gamma}")
        if self.kind == "generalized_rbf" and self.distance not in DISTANCES:
            raise InputError(f"distance must be one of {DISTANCES}, got {self.distance!r}")

    @property
    def is_rbf_kind(self) -> bool:
        return self.kind in ("rbf", "generalized_rbf")


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric N x N Gram matrix tagged with the spec that produced it.

    Symmetry is exact (see gram_matrix); for rbf kinds the diagonal is
    exactly 1.
    """

    values: np.ndarray
    spec: KernelSpec

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def diag(self) -> np.ndarray:
        return np.diagonal(self.values)


def _check_chi_square_inputs(*arrays: np.ndarray) -> None:
    for a in arrays:
        if np.any(a < 0):
            raise InputError("chi_square distance requires nonnegative feature values")


def _check_magnitude(*arrays: np.ndarray) -> None:
    """Reject features too large for the kernel arithmetic. Below
    0.5 * sqrt(float64 max / d) in magnitude, every dot product, squared
    norm and distance over d features stays finite, as does the sum
    ||x||^2 + ||y||^2 that the euclidean distance subtracts from."""
    dim = arrays[0].shape[1]
    bound = 0.5 * float(np.sqrt(np.finfo(float).max / dim))
    for a in arrays:
        peak = float(np.max(np.abs(a), initial=0.0))
        if peak > bound:
            raise InputError(
                f"feature magnitude {peak:.3g} exceeds {bound:.3g}, beyond which "
                f"products and squared distances over {dim} features overflow float64"
            )


def _row_blocks(n_rows: int, n_cols: int) -> Iterator[tuple[int, int]]:
    """(r0, r1) of the row blocks of an n_rows x n_cols output. Each block
    covers about BLOCK_ENTRIES entries, and at least one row."""
    step = max(1, BLOCK_ENTRIES // max(1, n_cols))
    for r0 in range(0, n_rows, step):
        yield r0, min(n_rows, r0 + step)


def _fold_distance(
    block: np.ndarray, x: np.ndarray, yt: np.ndarray, distance: str, scratch: np.ndarray
) -> None:
    """block[i, j] = the distance between x[i] and column j of yt (features
    by rows), as the sum over features of (x - y)^2 (euclidean), |x - y|
    (manhattan) or (x - y)^2 / (x + y + eps) (chi-square). The terms are
    added one feature at a time from the first, in place: below 8 features
    the same left fold np.sum makes. ``scratch`` holds at least two blocks."""
    size = block.size
    term = scratch[:size].reshape(block.shape)
    denom = scratch[size : 2 * size].reshape(block.shape)
    for f in range(x.shape[1]):
        t = term if f else block
        xf, yf = x[:, f, None], yt[f]
        np.subtract(xf, yf, out=t)
        if distance == "manhattan":
            np.abs(t, out=t)
        else:
            np.multiply(t, t, out=t)
            if distance == "chi_square":
                np.add(xf, yf, out=denom)
                denom += CHI_SQUARE_EPS
                t /= denom
        if f:
            block += term


def _fill_pairwise(out: np.ndarray, x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> None:
    """Write pairwise values of kernel ``spec`` between rows of x and rows of
    y into ``out`` in place: the dot product for linear, else
    exp(-gamma * distance), with the squared euclidean distance for rbf. With
    gamma None (unresolved) the distances themselves are written.

    Manhattan and chi-square distances, and euclidean ones below
    EUCLIDEAN_FOLD_BELOW features, are a per-feature fold (_fold_distance):
    exact differences and no BLAS. From there up the euclidean distance
    comes from ||x||^2 + ||y||^2 - 2 x.y. Work proceeds in row blocks of
    about BLOCK_ENTRIES entries, taken in order by whichever thread of
    core.fan_out is free, each thread with its own scratch, so temporaries
    stay O(BLOCK_ENTRIES) per thread however large ``out`` is, and every
    entry is computed as on one thread. Features too large for the
    arithmetic are an InputError, raised before any product.
    """
    squared = spec.kind == "rbf"
    distance = None if spec.kind == "linear" else "euclidean" if squared else spec.distance
    _check_magnitude(x, y)
    if distance == "chi_square":
        _check_chi_square_inputs(x, y)
    fold = distance in ("manhattan", "chi_square") or (
        distance == "euclidean" and x.shape[1] < EUCLIDEAN_FOLD_BELOW
    )
    if fold:
        yt = np.ascontiguousarray(y.T)
    else:
        np.matmul(x, y.T, out=out)
        if distance is None:
            return
        xx = np.sum(x * x, axis=1)
        yy = np.sum(y * y, axis=1)
    scratch = threading.local()

    def fill(rows: tuple[int, int]) -> None:
        r0, r1 = rows
        block = out[r0:r1]
        if fold:
            if not hasattr(scratch, "buffer"):
                scratch.buffer = np.empty(2 * max(BLOCK_ENTRIES, y.shape[0]))
            _fold_distance(block, x[r0:r1], yt, distance, scratch.buffer)
        else:
            np.multiply(block, 2.0, out=block)
            np.subtract(xx[r0:r1, None] + yy, block, out=block)
            np.maximum(block, 0.0, out=block)
        if distance == "euclidean" and not squared:
            np.sqrt(block, out=block)
        if spec.gamma is not None:
            # a product past -float64 max is -inf, whose exp is the 0 it stands for
            with np.errstate(over="ignore"):
                np.multiply(block, -spec.gamma, out=block)
            np.exp(block, out=block)

    fan_out(fill, _row_blocks(x.shape[0], y.shape[0]), fan_out_width(out.size))


def resolve_gamma(spec: KernelSpec, features: np.ndarray) -> KernelSpec:
    """Fill in gamma via the median heuristic when it was left unspecified.

    The median is taken over pairwise distances of a subsample of at most 512
    points (seeded), in the distance the kernel itself uses.
    """
    if spec.kind == "linear" or spec.gamma is not None:
        return spec
    x = np.asarray(features, dtype=float)
    n = x.shape[0]
    if n > MEDIAN_SUBSAMPLE:
        rng = np.random.default_rng(derive_seed(0, "median-gamma"))
        x = x[rng.choice(n, size=MEDIAN_SUBSAMPLE, replace=False)]
    m = x.shape[0]
    d = np.empty((m, m))
    _fill_pairwise(d, x, x, spec)
    # The strict upper triangle, row by row, then its exact median: the
    # upper middle value by one partition and, for an even count, the
    # lower middle value as the max below it, averaged as np.median does.
    pairs = d[~np.tri(m, dtype=bool)]
    med = 0.0
    if pairs.size:
        half = pairs.size // 2
        pairs.partition(half)
        med = pairs[half] if pairs.size % 2 else (pairs[:half].max() + pairs[half]) / 2
    gamma = 1.0 / float(med) if med > 0 else 1.0
    if gamma == math.inf:
        raise InputError(
            f"the median-heuristic gamma 1/{float(med):.3g} overflows float64: the median "
            "pairwise distance is too small; rescale the features or give gamma explicitly"
        )
    return KernelSpec(kind=spec.kind, gamma=gamma, distance=spec.distance)


def cross_matrix(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel values between rows of x (queries) and rows of y (training).
    The one place a kernel matrix is allocated. The 8*Q*N bytes of the
    result are an InputError, not a crash, where they exceed
    core.available_memory() or cannot be allocated: under heuristic
    overcommit an allocation below the total memory is granted untouched,
    and filling it would end in the out-of-memory killer."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[1] != y.shape[1]:
        raise InputError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    if spec.is_rbf_kind and spec.gamma is None:
        raise InputError("gamma unresolved; call resolve_gamma first")
    q, n = x.shape[0], y.shape[0]
    need = 8 * q * n
    message = f"the kernel matrix of Q={q} by N={n} points needs {need} bytes (8*Q*N)"
    available = available_memory()
    if available is not None and need > available:
        raise InputError(f"{message}, more than the {available} bytes of memory available")
    try:
        out = np.empty((q, n))
    except MemoryError:
        raise InputError(f"{message}, which could not be allocated") from None
    _fill_pairwise(out, x, y, spec)
    return out


def kernel_diag(x: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """k(x, x) per row; exactly 1 for rbf kinds."""
    x = np.asarray(x, dtype=float)
    if spec.kind == "linear":
        return np.sum(x * x, axis=1)
    return np.ones(x.shape[0])


def gram_matrix(d: Dataset, spec: KernelSpec) -> KernelMatrix:
    """The Gram matrix over all dataset points: their cross matrix, with a
    unit diagonal for rbf kinds."""
    spec = resolve_gamma(spec, d.features)
    # Exactly symmetric as computed: a fold's (a - b)^2, |a - b| and a + b
    # equal (b - a)^2, |b - a| and b + a. On the matmul route x and y are one
    # array, whose x @ x.T numpy takes from BLAS syrk, which computes one
    # triangle and copies it; and ||x_i||^2 + ||x_j||^2 is commutative.
    values = cross_matrix(d.features, d.features, spec)
    if spec.is_rbf_kind:
        np.fill_diagonal(values, 1.0)
    return KernelMatrix(values=values, spec=spec)
