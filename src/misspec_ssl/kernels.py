"""Kernel functions, per-feature-type distances, and Gram matrix construction.

Three distances are supported inside a generalized RBF wrapper (euclidean,
manhattan, chi-square) alongside the plain linear kernel and the standard
squared-euclidean RBF. The feature map is never materialized: the kernel
k-means solver works purely off Gram matrix entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, InputError, derive_seed

KERNEL_KINDS = ("linear", "rbf", "generalized_rbf")
DISTANCES = ("euclidean", "manhattan", "chi_square")

CHI_SQUARE_EPS = 1e-12
MEDIAN_SUBSAMPLE = 512
BLOCK_ROWS = 64


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
        if self.kind != "linear" and self.gamma is not None and self.gamma <= 0:
            raise InputError(f"gamma must be positive, got {self.gamma}")
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


def _kernel_params(spec: KernelSpec) -> tuple[str | None, bool, float | None]:
    """(distance, squared, gamma) of the kernel: the dot product (distance
    None) for linear, else exp(-gamma * distance) with the squared euclidean
    distance for rbf."""
    if spec.kind == "linear":
        return None, False, None
    if spec.kind == "rbf":
        return "euclidean", True, spec.gamma
    return spec.distance, False, spec.gamma


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

    Work proceeds in blocks of rows, so temporaries are O(BLOCK_ROWS * len(y))
    however large ``out`` is. With ``upper`` (y is x) only entries on and
    above the diagonal are written; the rest of ``out`` is scratch.
    """
    if distance in (None, "euclidean"):
        np.matmul(x, y.T, out=out)
        if distance is None:
            return
        xx = np.sum(x * x, axis=1)
        yy = xx if upper else np.sum(y * y, axis=1)
        step = BLOCK_ROWS
    else:
        if distance == "chi_square":
            _check_chi_square_inputs(x, y)
        step = max(1, BLOCK_ROWS // max(1, x.shape[1]))
    for r0 in range(0, x.shape[0], step):
        r1 = min(r0 + step, x.shape[0])
        c0 = r0 if upper else 0
        block = out[r0:r1, c0:]
        if distance == "euclidean":
            np.multiply(block, 2.0, out=block)
            np.subtract(xx[r0:r1, None] + yy[None, c0:], block, out=block)
            np.maximum(block, 0.0, out=block)
            if not squared:
                np.sqrt(block, out=block)
        else:
            diff = x[r0:r1, None, :] - y[None, c0:, :]
            if distance == "manhattan":
                np.sum(np.abs(diff), axis=2, out=block)
            else:
                denom = x[r0:r1, None, :] + y[None, c0:, :] + CHI_SQUARE_EPS
                np.sum(diff * diff / denom, axis=2, out=block)
        if gamma is not None:
            np.multiply(block, -gamma, out=block)
            np.exp(block, out=block)


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
    d = np.empty((x.shape[0], x.shape[0]))
    _fill_pairwise(d, x, x, distance, squared, None, upper=True)
    iu = np.triu_indices(x.shape[0], k=1)
    med = float(np.median(d[iu])) if iu[0].size else 0.0
    gamma = 1.0 / med if med > 0 else 1.0
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
    once, in blocks of rows, and mirrored so symmetry holds bit-exactly; for
    rbf kinds the diagonal is set to exactly 1. Beyond the 8*N^2 bytes of the
    result, memory use is O(BLOCK_ROWS * N); a failed allocation of the
    result is an InputError, not a crash.
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
    for r0 in range(0, n, BLOCK_ROWS):
        r1 = min(r0 + BLOCK_ROWS, n)
        tile = values[r0:r1, r0:r1]
        below = np.tril_indices(r1 - r0, k=-1)
        tile[below] = tile.T[below]
        values[r1:, r0:r1] = values[r0:r1, r1:].T
    if spec.is_rbf_kind:
        np.fill_diagonal(values, 1.0)
    return KernelMatrix(values=values, spec=spec)
