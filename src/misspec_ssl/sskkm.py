"""Weighted semi-supervised kernel k-means.

One parameterized solver covers the original objective (unlabeled weight 1)
and the unbiased objective (unlabeled weight N_l/(N_l+N_u)). Labeled points
are hard-pinned to the cluster named by their fine label; only unlabeled
points are reassigned. All distances use the kernel-trick expansion

    d2(i, k) = K_ii - (2/W_k) * sum_{j in k} w_j K_ij
             + (1/W_k^2) * sum_{j,l in k} w_j w_l K_jl

so the feature map never needs to exist explicitly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .core import Dataset, InputError, SolverOptions
from .kernels import KernelMatrix, KernelSpec
from .misspec import LabelMap


@dataclass(frozen=True)
class Assignments:
    """Hard cluster id per point, for K clusters."""

    cluster_of: np.ndarray
    n_clusters: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "cluster_of", np.asarray(self.cluster_of, dtype=int))
        if self.cluster_of.size and (
            self.cluster_of.min() < 0 or self.cluster_of.max() >= self.n_clusters
        ):
            raise InputError("cluster ids outside 0..K-1")


@dataclass(frozen=True)
class ClusterModel:
    """A fitted kernel k-means model plus the cached per-cluster statistics
    needed to classify new points from their kernel rows alone."""

    assignments: Assignments
    label_map: LabelMap
    unlabeled_weight: float
    objective: float
    kernel_spec: KernelSpec
    iterations_run: int
    converged: bool
    point_weights: np.ndarray
    cluster_wsum: np.ndarray
    cluster_inner: np.ndarray
    objective_trace: tuple[float, ...] = field(default_factory=tuple)

    @property
    def n_clusters(self) -> int:
        return self.assignments.n_clusters

    def to_dict(self, train_features: np.ndarray) -> dict:
        """JSON form; scoring a query needs the training features as well."""
        return {
            "family": "sskkm",
            "n_clusters": self.n_clusters,
            "assignments": self.assignments.cluster_of.tolist(),
            "label_map": self.label_map.to_dict(),
            "unlabeled_weight": self.unlabeled_weight,
            "objective": self.objective,
            "kernel": asdict(self.kernel_spec),
            "iterations_run": self.iterations_run,
            "converged": self.converged,
            "point_weights": self.point_weights.tolist(),
            "cluster_wsum": self.cluster_wsum.tolist(),
            "cluster_inner": self.cluster_inner.tolist(),
            "training_features": np.asarray(train_features).tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> tuple["ClusterModel", np.ndarray]:
        """Inverse of to_dict: (model, training features)."""
        missing = [k for k in ("cluster_wsum", "cluster_inner") if k not in d]
        if missing:
            raise InputError(f"model JSON lacks {' and '.join(missing)}; refit the model")
        model = ClusterModel(
            assignments=Assignments(cluster_of=d["assignments"], n_clusters=d["n_clusters"]),
            label_map=LabelMap(**d["label_map"]),
            unlabeled_weight=d["unlabeled_weight"],
            objective=d["objective"],
            kernel_spec=KernelSpec(**d["kernel"]),
            iterations_run=d["iterations_run"],
            converged=d["converged"],
            point_weights=np.asarray(d["point_weights"]),
            cluster_wsum=np.asarray(d["cluster_wsum"]),
            cluster_inner=np.asarray(d["cluster_inner"]),
        )
        train = np.asarray(d["training_features"], dtype=float)
        if train.ndim != 2:
            raise InputError(f"training_features {train.shape} must have shape (N, d)")
        n, k = train.shape[0], model.n_clusters
        if model.assignments.cluster_of.shape != (n,) or model.point_weights.shape != (n,):
            raise InputError(f"assignments and point_weights must have one entry per "
                             f"training row ({n})")
        if model.cluster_wsum.shape != (k,) or model.cluster_inner.shape != (k,):
            raise InputError(f"cluster_wsum and cluster_inner must have length n_clusters ({k})")
        _check_label_map(model.label_map, k)
        return model, train


def _weighted_indicator(cluster_of: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    wz = np.zeros((cluster_of.size, k))
    wz[np.arange(cluster_of.size), cluster_of] = weights
    return wz


def _cluster_stats(
    kvalues: np.ndarray, cluster_of: np.ndarray, weights: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cluster weight totals W_k, member-sum columns M[:, k], and the
    second-order terms T_k = w' K w (cached once per iteration)."""
    wz = _weighted_indicator(cluster_of, weights, k)
    member_sum = kvalues @ wz
    wsum = wz.sum(axis=0)
    inner = np.einsum("ik,ik->k", wz, member_sum)
    return wsum, member_sum, inner


def _distances(
    diag: np.ndarray, member_sum: np.ndarray, wsum: np.ndarray, inner: np.ndarray
) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        d = diag[:, None] - 2.0 * member_sum / wsum + inner / (wsum * wsum)
    d[:, wsum <= 0] = np.inf
    return np.maximum(d, 0.0)


def _check_label_map(label_map: LabelMap, k: int) -> None:
    """Require k fine labels. A LabelMap carries each of them by a labeled
    point, so every cluster holds a pinned point of weight 1 and can never
    empty."""
    if label_map.n_fine != k:
        raise InputError(f"label map covers {label_map.n_fine} fine labels, expected {k}")


def init_assignments(km: KernelMatrix, d: Dataset, label_map: LabelMap, k: int) -> Assignments:
    """Pin labeled points to their designated clusters and give every
    unlabeled point the cluster whose labeled-seed mean is nearest in kernel
    distance (ties to the lowest cluster id). Deterministic.
    """
    _check_label_map(label_map, k)
    cluster_of = np.zeros(d.n_points, dtype=int)
    cluster_of[d.labeled_idx] = label_map.fine_of_point
    free = d.unlabeled_idx
    if free.size:
        wsum, member_sum, inner = _cluster_stats(km.values, cluster_of, _point_weights(d, 0.0), k)
        dist = _distances(km.diag, member_sum, wsum, inner)
        cluster_of[free] = np.argmin(dist[free], axis=1)
    return Assignments(cluster_of=cluster_of, n_clusters=k)


def _point_weights(d: Dataset, unlabeled_weight: float) -> np.ndarray:
    w = np.zeros(d.n_points)
    w[d.labeled_idx] = 1.0
    w[d.unlabeled_idx] = unlabeled_weight
    return w


def fit_sskkm(
    km: KernelMatrix,
    d: Dataset,
    label_map: LabelMap,
    k: int,
    opts: SolverOptions,
    init: Assignments | None = None,
) -> ClusterModel:
    """Alternate cached-statistics updates with nearest-centroid reassignment
    of the unlabeled points until assignments stop changing, the weighted
    objective decrease falls below tol, or max_iter is reached.

    The weighted objective (labeled weight 1, unlabeled weight as resolved
    from the options) is non-increasing across iterations, and the whole
    procedure is deterministic given its inputs.
    """
    if km.n != d.n_points:
        raise InputError(f"kernel matrix covers {km.n} points, dataset has {d.n_points}")
    _check_label_map(label_map, k)
    weight = opts.resolve_unlabeled_weight(d.n_labeled, d.n_unlabeled)

    if init is None:
        init = init_assignments(km, d, label_map, k)
    elif init.n_clusters != k:
        raise InputError(f"init has {init.n_clusters} clusters, expected {k}")
    cluster_of = init.cluster_of.copy()
    if not np.array_equal(cluster_of[d.labeled_idx], label_map.fine_of_point):
        raise InputError("init assignments do not pin labeled points to their fine labels")

    weights = _point_weights(d, weight)
    free = d.unlabeled_idx
    idx = np.arange(d.n_points)

    wsum, member_sum, inner = _cluster_stats(km.values, cluster_of, weights, k)
    dist = _distances(km.diag, member_sum, wsum, inner)
    objective = float(np.dot(weights, dist[idx, cluster_of]))
    trace = [objective]

    iterations = 0
    converged = False
    for _ in range(opts.max_iter):
        iterations += 1
        new_cluster_of = cluster_of.copy()
        if free.size:
            new_cluster_of[free] = np.argmin(dist[free], axis=1)
        if np.array_equal(new_cluster_of, cluster_of):
            converged = True
            break
        cluster_of = new_cluster_of

        wsum, member_sum, inner = _cluster_stats(km.values, cluster_of, weights, k)
        dist = _distances(km.diag, member_sum, wsum, inner)
        new_objective = float(np.dot(weights, dist[idx, cluster_of]))
        trace.append(new_objective)
        if objective - new_objective < opts.tol:
            objective = new_objective
            converged = True
            break
        objective = new_objective

    return ClusterModel(
        assignments=Assignments(cluster_of=cluster_of, n_clusters=k),
        label_map=label_map,
        unlabeled_weight=weight,
        objective=objective,
        kernel_spec=km.spec,
        iterations_run=iterations,
        converged=converged,
        point_weights=weights,
        cluster_wsum=wsum,
        cluster_inner=inner,
        objective_trace=tuple(trace),
    )


def _query_distances(model: ClusterModel, km_rows: np.ndarray, self_k: np.ndarray) -> np.ndarray:
    """Squared distances (Q, K) of query points to every cluster centroid,
    from the queries' kernel rows against the training points."""
    km_rows = np.atleast_2d(np.asarray(km_rows, dtype=float))
    n = model.point_weights.size
    if km_rows.shape[1] != n:
        raise InputError(f"kernel row length {km_rows.shape[1]} != training size {n}")
    self_k = np.atleast_1d(np.asarray(self_k, dtype=float))
    wz = _weighted_indicator(model.assignments.cluster_of, model.point_weights, model.n_clusters)
    member_sum = km_rows @ wz
    return _distances(self_k, member_sum, model.cluster_wsum, model.cluster_inner)


def score_batch(
    model: ClusterModel, km_rows: np.ndarray, self_k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Labels (Q,), the class of the nearest cluster (ties to the lowest
    cluster id) mapped through the model's cluster-to-class map, and
    per-class scores (Q, C), minus the squared distance to the nearest
    cluster mapped to each class, from one computation of the query
    distances."""
    dist = _query_distances(model, km_rows, self_k)
    scores = np.full((dist.shape[0], model.label_map.n_classes), -np.inf)
    for c in range(model.label_map.n_classes):
        cols = np.flatnonzero(model.label_map.fine_to_class == c)
        scores[:, c] = -np.min(dist[:, cols], axis=1)
    return model.label_map.fine_to_class[np.argmin(dist, axis=1)], scores
