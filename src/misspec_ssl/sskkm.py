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

from .core import UNLABELED, Dataset, InputError, SolverOptions
from .kernels import KernelMatrix, KernelSpec
from .misspec import LabelMap


@dataclass(frozen=True)
class ClusterModel:
    """A fitted kernel k-means model plus the cached per-cluster statistics
    needed to classify new points from their kernel rows alone.

    The label map is the cluster structure: cluster k is fine label k, and
    ``cluster_of`` holds the cluster id of every training point."""

    cluster_of: np.ndarray
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
        return self.label_map.n_fine

    def to_dict(self, train_features: np.ndarray) -> dict:
        """JSON form; scoring a query needs the training features as well."""
        return {
            "family": "sskkm",
            "n_clusters": self.n_clusters,
            "assignments": self.cluster_of.tolist(),
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
        """Inverse of to_dict: (model, training features). The one check of
        a model from outside: every array has its shape, every cluster id
        lies in 0..K-1 for the label map's K, the features and statistics
        are finite, the point weights lie in [0, 1], and every cluster weighs
        at least its pinned carrier's 1, so no query distance divides by 0."""
        missing = [k for k in ("cluster_wsum", "cluster_inner") if k not in d]
        if missing:
            raise InputError(f"model JSON lacks {' and '.join(missing)}; refit the model")
        model = ClusterModel(
            cluster_of=np.asarray(d["assignments"], dtype=int),
            label_map=LabelMap(**d["label_map"]),
            unlabeled_weight=d["unlabeled_weight"],
            objective=d["objective"],
            kernel_spec=KernelSpec(**d["kernel"]),
            iterations_run=d["iterations_run"],
            converged=d["converged"],
            point_weights=np.asarray(d["point_weights"], dtype=float),
            cluster_wsum=np.asarray(d["cluster_wsum"], dtype=float),
            cluster_inner=np.asarray(d["cluster_inner"], dtype=float),
        )
        train = np.asarray(d["training_features"], dtype=float)
        if train.ndim != 2:
            raise InputError(f"training_features {train.shape} must have shape (N, d)")
        n, k = train.shape[0], model.n_clusters
        if d["n_clusters"] != k:
            raise InputError(f"n_clusters {d['n_clusters']} != the label map's {k} fine labels")
        cluster_of, weights, wsum = model.cluster_of, model.point_weights, model.cluster_wsum
        if cluster_of.shape != (n,) or weights.shape != (n,):
            raise InputError(f"assignments and point_weights must have one entry per "
                             f"training row ({n})")
        if wsum.shape != (k,) or model.cluster_inner.shape != (k,):
            raise InputError(f"cluster_wsum and cluster_inner must have length n_clusters ({k})")
        if np.any((cluster_of < 0) | (cluster_of >= k)):
            raise InputError(f"assignments outside the cluster ids 0..{k - 1}")
        if not np.all(np.isfinite(train)):
            raise InputError("training_features must be finite")
        if not np.all(np.isfinite(model.cluster_inner)):
            raise InputError("cluster_inner must be finite")
        if not np.all((weights >= 0) & (weights <= 1)):
            raise InputError("point_weights must lie in [0, 1]")
        if not np.all(np.isfinite(wsum) & (wsum >= 1)):
            raise InputError("cluster_wsum must be finite and >= 1")
        return model, train


def _weighted_indicator(cluster_of: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    wz = np.zeros((cluster_of.size, k))
    wz[np.arange(cluster_of.size), cluster_of] = weights
    return wz


def _cluster_stats(
    kvalues: np.ndarray, cluster_of: np.ndarray, weights: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cluster weight totals W_k, member-sum columns M[:, k], and the
    second-order terms T_k = w' K w (cached once per iteration).

    ``kvalues`` must be exactly symmetric, as gram_matrix builds it (it
    mirrors one triangle). M is then (wz' K)', which equals K wz in exact
    arithmetic, not bit for bit, and on one BLAS thread takes about half the
    time of K wz at N = 6,020."""
    wz = _weighted_indicator(cluster_of, weights, k)
    member_sum = (wz.T @ kvalues).T
    wsum = wz.sum(axis=0)
    inner = np.einsum("ik,ik->k", wz, member_sum)
    return wsum, member_sum, inner


def _distances(
    diag: np.ndarray, member_sum: np.ndarray, wsum: np.ndarray, inner: np.ndarray
) -> np.ndarray:
    """Squared distances of points to clusters. Every cluster of a fitted or
    loaded model has a total weight of at least 1, from its pinned carrier."""
    d = diag[:, None] - 2.0 * member_sum / wsum + inner / (wsum * wsum)
    return np.maximum(d, 0.0)


def init_assignments(km: KernelMatrix, d: Dataset, label_map: LabelMap) -> np.ndarray:
    """The cluster id of every point: labeled points pinned to their fine
    labels, and every unlabeled point given the cluster whose labeled-seed
    mean is nearest in kernel distance (ties to the lowest cluster id).
    Deterministic.
    """
    cluster_of = np.zeros(d.n_points, dtype=int)
    cluster_of[d.labeled_idx] = label_map.fine_of_point
    wsum, member_sum, inner = _cluster_stats(
        km.values, cluster_of, _point_weights(d, 0.0), label_map.n_fine
    )
    dist = _distances(km.diag, member_sum, wsum, inner)
    cluster_of[d.unlabeled_idx] = np.argmin(dist[d.unlabeled_idx], axis=1)
    return cluster_of


def _point_weights(d: Dataset, unlabeled_weight: float) -> np.ndarray:
    return np.where(d.row_labels == UNLABELED, unlabeled_weight, 1.0)


def fit_sskkm(
    km: KernelMatrix,
    d: Dataset,
    label_map: LabelMap,
    opts: SolverOptions,
    init: np.ndarray | None = None,
) -> ClusterModel:
    """Alternate cached-statistics updates with nearest-centroid reassignment
    of the unlabeled points until assignments stop changing, the weighted
    objective decrease falls below tol, or max_iter is reached. There is one
    cluster per fine label of ``label_map``; ``init`` (default
    init_assignments) gives every point a cluster id and must pin the
    labeled points to their fine labels.

    The weighted objective (labeled weight 1, unlabeled weight as resolved
    from the options) is non-increasing across iterations, and the whole
    procedure is deterministic given its inputs.
    """
    if km.n != d.n_points:
        raise InputError(f"kernel matrix covers {km.n} points, dataset has {d.n_points}")
    k = label_map.n_fine
    weight = opts.resolve_unlabeled_weight(d.n_labeled, d.n_unlabeled)

    if init is None:
        init = init_assignments(km, d, label_map)
    cluster_of = np.array(init, dtype=int)
    if cluster_of.shape != (d.n_points,) or np.any((cluster_of < 0) | (cluster_of >= k)):
        raise InputError(f"init must give every one of {d.n_points} points a cluster id "
                         f"in 0..{k - 1}")
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
        cluster_of=cluster_of,
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
    wz = _weighted_indicator(model.cluster_of, model.point_weights, model.n_clusters)
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
