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

from .core import Dataset, InputError, derive_seed, fan_out

KERNEL_KINDS = ("linear", "rbf", "generalized_rbf")
DISTANCES = ("euclidean", "manhattan", "chi_square")

CHI_SQUARE_EPS = 1e-12
MEDIAN_SUBSAMPLE = 512
BLOCK_ENTRIES = 2**17
BLOCK_ROWS = 64
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

    Symmetry is exact (values are computed once and mirrored); for rbf kinds
    the diagonal is exactly 1.
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


def _kernel_params(spec: KernelSpec) -> tuple[str | None, bool, float | None]:
    """(distance, squared, gamma) of the kernel: the dot product (distance
    None) for linear, else exp(-gamma * distance) with the squared euclidean
    distance for rbf."""
    if spec.kind == "linear":
        return None, False, None
    if spec.kind == "rbf":
        return "euclidean", True, spec.gamma
    return spec.distance, False, spec.gamma


def _row_blocks(n_rows: int, n_cols: int, upper: bool) -> Iterator[tuple[int, int, int]]:
    """(r0, r1, c0) of the row blocks of an n_rows x n_cols output: rows
    r0:r1, columns c0: (c0 = r0 with ``upper``, else 0). Each block covers
    about BLOCK_ENTRIES entries, and at least one row."""
    r0 = 0
    while r0 < n_rows:
        c0 = r0 if upper else 0
        r1 = min(n_rows, r0 + max(1, BLOCK_ENTRIES // max(1, n_cols - c0)))
        yield r0, r1, c0
        r0 = r1


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


def _fill_pairwise(
    out: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    distance: str | None,
    squared: bool,
    gamma: float | None,
    upper: bool,
) -> None:
    """Write pairwise values between rows of x and rows of y into ``out`` in
    place: the dot product (``distance`` None), a distance, or with ``gamma``
    set exp(-gamma * distance).

    Manhattan and chi-square distances, and euclidean ones below
    EUCLIDEAN_FOLD_BELOW features, are a per-feature fold (_fold_distance):
    exact differences and no BLAS. From there up the euclidean distance
    comes from ||x||^2 + ||y||^2 - 2 x.y. Work proceeds in row blocks of
    about BLOCK_ENTRIES entries, taken in order by whichever thread of
    core.fan_out is free, each thread with its own scratch, so temporaries
    stay O(BLOCK_ENTRIES) per thread however large ``out`` is, and every
    entry is computed as on one thread. With ``upper`` (y is x) only entries
    on and above the diagonal are written; the rest of ``out`` is scratch.
    Features too large for the arithmetic are an InputError, raised before
    any product.
    """
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
        yy = xx if upper else np.sum(y * y, axis=1)
    scratch = threading.local()

    def fill(rows: tuple[int, int, int]) -> None:
        r0, r1, c0 = rows
        block = out[r0:r1, c0:]
        if fold:
            if not hasattr(scratch, "buffer"):
                scratch.buffer = np.empty(2 * max(BLOCK_ENTRIES, y.shape[0]))
            _fold_distance(block, x[r0:r1], yt[:, c0:], distance, scratch.buffer)
        else:
            np.multiply(block, 2.0, out=block)
            np.subtract(xx[r0:r1, None] + yy[None, c0:], block, out=block)
            np.maximum(block, 0.0, out=block)
        if distance == "euclidean" and not squared:
            np.sqrt(block, out=block)
        if gamma is not None:
            np.multiply(block, -gamma, out=block)
            np.exp(block, out=block)

    fan_out(fill, _row_blocks(x.shape[0], y.shape[0], upper), fan_out.width(out.size))


def resolve_gamma(spec: KernelSpec, features: np.ndarray, seed: int = 0) -> KernelSpec:
    """Fill in gamma via the median heuristic when it was left unspecified.

    The median is taken over pairwise distances of a subsample of at most 512
    points (seeded), in the distance the kernel itself uses.
    """
    if spec.kind == "linear" or spec.gamma is not None:
        return spec
    x = np.asarray(features, dtype=float)
    n = x.shape[0]
    if n > MEDIAN_SUBSAMPLE:
        rng = np.random.default_rng(derive_seed(seed, "median-gamma"))
        x = x[rng.choice(n, size=MEDIAN_SUBSAMPLE, replace=False)]
    distance, squared, _ = _kernel_params(spec)
    m = x.shape[0]
    d = np.empty((m, m))
    _fill_pairwise(d, x, x, distance, squared, None, upper=True)
    # The strict upper triangle, row by row, then its exact median: the
    # upper middle value by one partition and, for an even count, the
    # lower middle value as the max below it, averaged as np.median does.
    pairs = np.empty(m * (m - 1) // 2)
    at = 0
    for i in range(m - 1):
        pairs[at : at + m - 1 - i] = d[i, i + 1 :]
        at += m - 1 - i
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
    """Kernel values between rows of x (queries) and rows of y (training)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[1] != y.shape[1]:
        raise InputError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    if spec.is_rbf_kind and spec.gamma is None:
        raise InputError("gamma unresolved; call resolve_gamma first")
    out = np.empty((x.shape[0], y.shape[0]))
    _fill_pairwise(out, x, y, *_kernel_params(spec), upper=False)
    return out


def kernel_diag(x: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """k(x, x) per row; exactly 1 for rbf kinds."""
    x = np.asarray(x, dtype=float)
    if spec.kind == "linear":
        return np.sum(x * x, axis=1)
    return np.ones(x.shape[0])


def gram_matrix(d: Dataset, spec: KernelSpec) -> KernelMatrix:
    """Precompute the full Gram matrix over all dataset points.

    The matrix is built in one N x N buffer: the upper triangle is computed
    once, in blocks of rows, and mirrored so symmetry holds bit-exactly, in
    tiles of BLOCK_ROWS rows on the threads of core.fan_out; for rbf kinds
    the diagonal is set to exactly 1. Beyond the 8*N^2 bytes of the result,
    memory use is O(BLOCK_ENTRIES + N) per thread; a failed allocation of
    the result is an InputError, not a crash.
    """
    spec = resolve_gamma(spec, d.features)
    x = np.asarray(d.features, dtype=float)
    n = x.shape[0]
    try:
        values = np.empty((n, n))
    except MemoryError:
        raise InputError(
            f"the Gram matrix of N={n} points needs {8 * n * n} bytes (8*N^2), "
            "which could not be allocated"
        ) from None
    _fill_pairwise(values, x, x, *_kernel_params(spec), upper=True)
    below = np.tri(BLOCK_ROWS, k=-1, dtype=bool)

    def mirror(r0: int) -> None:
        r1 = min(r0 + BLOCK_ROWS, n)
        tile = values[r0:r1, r0:r1]
        np.copyto(tile, tile.T, where=below[: r1 - r0, : r1 - r0])
        values[r1:, r0:r1] = values[r0:r1, r1:].T

    fan_out(mirror, range(0, n, BLOCK_ROWS), fan_out.width(values.size))
    if spec.is_rbf_kind:
        np.fill_diagonal(values, 1.0)
    return KernelMatrix(values=values, spec=spec)
