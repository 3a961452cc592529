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

from . import kernels
from .core import Dataset, InputError, SolverOptions, integer_array, read_array
from .kernels import KernelMatrix, KernelSpec
from .misspec import LabelMap


@dataclass(frozen=True)
class ClusterModel:
    """A fitted kernel k-means model plus the cached per-cluster statistics
    needed to classify new points from their kernel rows alone.

    The label map is the cluster structure: cluster k is fine label k.
    ``cluster_of`` holds the cluster id of every training point,
    ``train_features`` (a reference, not a copy) their features, and
    ``labeled_rows`` the rows of the label map's ``fine_of_point``, ascending."""

    cluster_of: np.ndarray
    label_map: LabelMap
    unlabeled_weight: float
    objective: float
    kernel_spec: KernelSpec
    iterations_run: int
    converged: bool
    labeled_rows: np.ndarray
    cluster_inner: np.ndarray
    train_features: np.ndarray
    objective_trace: tuple[float, ...] = field(default_factory=tuple)

    @property
    def n_clusters(self) -> int:
        return self.label_map.n_fine

    @property
    def dim(self) -> int:
        return int(self.train_features.shape[1])

    @property
    def point_weights(self) -> np.ndarray:
        """The fit's point weights: 1 at the labeled rows, the unlabeled weight elsewhere."""
        return _point_weights(self.labeled_rows, self.cluster_of.size, self.unlabeled_weight)

    def to_dict(self) -> dict:
        return {
            "family": "sskkm",
            "assignments": self.cluster_of.tolist(),
            "label_map": self.label_map.to_dict(),
            "unlabeled_weight": self.unlabeled_weight,
            "objective": self.objective,
            "kernel": asdict(self.kernel_spec),
            "iterations_run": self.iterations_run,
            "converged": self.converged,
            "labeled_rows": self.labeled_rows.tolist(),
            "cluster_inner": self.cluster_inner.tolist(),
            "training_features": self.train_features.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "ClusterModel":
        """Inverse of to_dict. The one check of a model from outside: every
        number is read by read_array, with its type and shape, converged is a
        JSON boolean, every cluster id lies in 0..K-1 for the label map's K,
        the unlabeled weight lies in [0, 1], and labeled_rows lists one row
        per labeled point, strictly increasing, each assigned its fine label:
        so every W_k that score_batch derives is at least 1."""
        lm, spec = d["label_map"], d["kernel"]
        label_map = LabelMap(fine_to_class=read_array(lm, "fine_to_class", int, (None,)),
                             fine_of_point=read_array(lm, "fine_of_point", int, (None,)),
                             n_classes=read_array(lm, "n_classes", int))
        train = read_array(d, "training_features", float, (None, None))
        n, k = train.shape[0], label_map.n_fine
        cluster_of = read_array(d, "assignments", int, (n,), within=(0, k - 1))
        labeled_rows = read_array(d, "labeled_rows", int, (None,))
        weight = read_array(d, "unlabeled_weight", float, within=(0, 1))
        if (np.any(np.diff(labeled_rows) <= 0) or np.any((labeled_rows < 0) | (labeled_rows >= n))
                or not np.array_equal(cluster_of[labeled_rows], label_map.fine_of_point)):
            raise InputError(f"labeled_rows must list one training row 0..{n - 1} per labeled "
                             "point, strictly increasing, each assigned its fine label")
        converged = d["converged"]
        if not isinstance(converged, bool):
            raise InputError(f"converged must be true or false, got {converged!r}")
        gamma = None if spec["gamma"] is None else read_array(spec, "gamma", float)
        return ClusterModel(
            cluster_of=cluster_of, label_map=label_map, unlabeled_weight=weight,
            objective=read_array(d, "objective", float),
            kernel_spec=KernelSpec(kind=spec["kind"], gamma=gamma, distance=spec["distance"]),
            iterations_run=read_array(d, "iterations_run", int), converged=converged,
            labeled_rows=labeled_rows, cluster_inner=read_array(d, "cluster_inner", float, (k,)),
            train_features=train,
        )


def _weighted_indicator(cluster_of: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    wz = np.zeros((cluster_of.size, k))
    wz[np.arange(cluster_of.size), cluster_of] = weights
    return wz


def _distances(
    diag: np.ndarray, member_sum: np.ndarray, wsum: np.ndarray, inner: np.ndarray
) -> np.ndarray:
    """Squared distances of points to clusters. Every cluster of a fitted or
    loaded model has a total weight of at least 1, from its pinned carrier."""
    d = diag[:, None] - 2.0 * member_sum / wsum + inner / (wsum * wsum)
    return np.maximum(d, 0.0)


UNIT_ROUNDOFF = np.finfo(float).eps / 2
# Kernel entries below this are floored in the error bounds, so that
# underflow, whose error is absolute rather than relative, stays inside them.
ENTRY_BOUND_FLOOR = float(np.sqrt(np.finfo(float).tiny))


def _gamma(n: int) -> float:
    """n u / (1 - n u): the relative error bound of a sum or dot product of
    n float64 terms taken in any order (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2002, section 3.1)."""
    nu = n * UNIT_ROUNDOFF
    return nu / (1.0 - nu)


class _MemberSums:
    """The statistics of one clustering ``cluster_of`` of the Gram's points:
    the member sums M = K wz of the weighted indicator wz, made by a sweep of
    K or from its gathered rows, and from wz and M in one step (_set_totals)
    the weight totals W_k, the second-order terms T_k = w'M, the distances
    ``dist`` (N, K) and the weighted ``objective``. ``reassign`` takes the
    nearest-cluster step on them. The empty clustering (None) holds zero
    sums and totals and no distances: it is only a start to move from.

    A full product (one sweep of K) gives the statistics bit for bit as a
    fresh computation does: they are *exact*. A move to a new clustering
    updates M += (D' K[moved])', where D holds the signed weights of the
    |moved| weighted points whose cluster changed. The rows of K of those
    points are its columns too, since K is exactly symmetric, and they are
    gathered in blocks of at most kernels.BLOCK_ENTRIES entries, however
    many points moved. A move is a full product when K is no larger than
    one block: the update then saves nothing.

    An updated M differs from the full product in its last bits. ``err``
    (None when exact) bounds, per cluster, each entry's distance from the
    member sum over the stored K in exact arithmetic. It rests on a bound of
    every |K_ij| by max |K_ii|: that is 1 for the rbf kinds, and for linear
    Cauchy-Schwarz holds up to a relative d*u of rounding, which doubling
    the bound covers. From ``err`` follow ``distance_err`` and
    ``objective_err``, bounds on how far ``dist`` and ``objective`` lie
    from those a full product gives (0 when exact)."""

    def __init__(
        self, km: KernelMatrix, weights: np.ndarray, k: int, cluster_of: np.ndarray | None
    ) -> None:
        self.km = km
        self.weights = weights
        self.k = k
        if cluster_of is None:  # the empty clustering: every sum and total is exactly 0
            self.member_sum = np.zeros((k, km.n)).T
            self.wsum, self.inner, self.cluster_of = np.zeros(k), np.zeros(k), None
            self.err, self.distance_err, self.objective_err = None, 0.0, 0.0
        else:
            self.recompute(cluster_of)

    def recompute(self, cluster_of: np.ndarray) -> None:
        """The statistics of ``cluster_of`` from one full product."""
        wz = _weighted_indicator(cluster_of, self.weights, self.k)
        self.member_sum = self.km.sweep(wz)
        self._set_totals(cluster_of, wz)
        self.err, self.distance_err, self.objective_err = None, 0.0, 0.0

    def _set_totals(self, cluster_of: np.ndarray, wz: np.ndarray) -> None:
        """W_k, T_k, the distances and the objective of ``cluster_of``, of
        weighted indicator ``wz``, once M is made."""
        self.wsum = wz.sum(axis=0)
        self.inner = np.einsum("ik,ik->k", wz, self.member_sum)
        self.cluster_of = cluster_of
        self.dist = _distances(self.km.diag, self.member_sum, self.wsum, self.inner)
        at = self.dist[np.arange(cluster_of.size), cluster_of]
        self.objective = float(np.dot(self.weights, at))

    def move(self, cluster_of: np.ndarray) -> None:
        """The statistics of ``cluster_of`` (an array the caller no longer
        writes to)."""
        n = self.km.n
        if n * n <= kernels.BLOCK_ENTRIES:
            self.recompute(cluster_of)
            return
        weighted = self.weights != 0
        if self.cluster_of is not None:
            weighted &= cluster_of != self.cluster_of
        moved = np.flatnonzero(weighted)
        w = self.weights[moved]
        signed = np.zeros((moved.size, self.k))
        at = np.arange(moved.size)
        signed[at, cluster_of[moved]] = w
        if self.cluster_of is not None:
            signed[at, self.cluster_of[moved]] = -w
        member_t = self.member_sum.T
        blocks, rows = 0, 0
        for r0, r1, block in self.km.row_blocks(moved):
            member_t += signed[r0:r1].T @ block
            blocks, rows = blocks + 1, max(rows, r1 - r0)
            del block  # freed before the next block is gathered

        # A full product errs by gamma(N) W_k max|K|. Each block's product
        # errs by gamma(rows) sum |D| max|K|, and adding it to M rounds once,
        # relative to at most the earlier weight plus the weight moved.
        kb = max(2.0 * float(np.max(np.abs(self.km.diag))), ENTRY_BOUND_FLOOR)
        gamma_n = _gamma(n)
        err = gamma_n * self.wsum * kb if self.err is None else self.err
        shift = np.abs(signed).sum(axis=0)
        self.err = err + kb * (_gamma(rows) * shift + blocks * UNIT_ROUNDOFF * (self.wsum + shift))
        self._set_totals(cluster_of, _weighted_indicator(cluster_of, self.weights, self.k))
        # M enters a distance through 2 M/W_k and, by way of T_k = w'M,
        # through T_k/W_k^2; T_k's sum of N terms and the distance's own four
        # operations round on both sides. Each of the objective's N terms is
        # at most 4 max|K|, and its dot product rounds on both sides too.
        to_full = self.err + gamma_n * self.wsum * kb
        rounding = (2.0 * gamma_n + 20.0 * UNIT_ROUNDOFF) * kb
        self.distance_err = float(np.max(3.0 * to_full / self.wsum)) + rounding
        self.objective_err = float(self.wsum.sum()) * (self.distance_err + 8.0 * gamma_n * kb)

    def reassign(self, free: np.ndarray) -> np.ndarray:
        """A copy of the clustering with every point of ``free`` at its
        nearest cluster (ties to the lowest cluster id), as a full product
        gives it: where the error bound leaves an argmin in doubt, the
        statistics are recomputed first."""
        dist = self.dist[free]
        if _near_tie(dist, self.distance_err):
            self.recompute(self.cluster_of)
            dist = self.dist[free]
        cluster_of = self.cluster_of.copy()
        cluster_of[free] = np.argmin(dist, axis=1)
        return cluster_of


def _near_tie(dist: np.ndarray, err: float) -> bool:
    """Whether some row's two smallest distances lie within 2 * ``err`` of
    each other, so that errors of up to ``err`` could change its argmin.
    With no error nothing is near a tie: the argmin breaks exact ties to the
    lowest cluster id as it always does."""
    if err == 0.0 or dist.shape[0] == 0:
        return False
    two = np.partition(dist, 1, axis=1)
    return bool(np.any(two[:, 1] - two[:, 0] <= 2.0 * err))


def init_assignments(km: KernelMatrix, d: Dataset, label_map: LabelMap) -> np.ndarray:
    """The cluster id of every point: labeled points pinned to their fine
    labels, and every unlabeled point given the cluster whose labeled-seed
    mean is nearest in kernel distance (ties to the lowest cluster id).
    Deterministic.

    Unlabeled points weigh 0 here, so one move from the empty clustering
    sums the labeled rows of K alone, gathered in blocks. The unlabeled
    points then take fit_sskkm's reassignment step (_MemberSums.reassign).
    """
    labeled = d.labeled_idx
    pinned = np.zeros(d.n_points, dtype=int)
    pinned[labeled] = label_map.fine_of_point
    sums = _MemberSums(km, _point_weights(labeled, d.n_points, 0.0), label_map.n_fine, None)
    sums.move(pinned)
    return sums.reassign(d.unlabeled_idx)


def _point_weights(labeled_rows: np.ndarray, n: int, unlabeled_weight: float) -> np.ndarray:
    weights = np.full(n, unlabeled_weight, dtype=float)
    weights[labeled_rows] = 1.0
    return weights


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

    One _MemberSums holds the clustering, its distances, its objective and
    their error bounds. A fit reads all of K twice, in one full product at
    its start and one at its end; in between each move updates them from
    the rows of K of the points that moved. Every decision is the one that
    a full product at every iteration gives. An argmin with two distances
    within their error bound of each other (in _MemberSums.reassign, which
    init_assignments shares), and a tolerance test within the objectives'
    error bound of tol, are decided on exactly recomputed statistics. The
    intermediate ``objective_trace`` entries are the updated values, which
    may differ from a full product's in their last bits; the last entry,
    ``objective`` and ``cluster_inner`` are exact. The final recomputation
    is not an iteration.
    """
    if km.n != d.n_points:
        raise InputError(f"kernel matrix covers {km.n} points, dataset has {d.n_points}")
    k = label_map.n_fine
    weight = opts.resolve_unlabeled_weight(d.n_labeled, d.n_unlabeled)

    if init is None:
        init = init_assignments(km, d, label_map)
    cluster_of = integer_array(init, "init")
    if cluster_of.shape != (d.n_points,) or np.any((cluster_of < 0) | (cluster_of >= k)):
        raise InputError(f"init must give every one of {d.n_points} points a cluster id "
                         f"in 0..{k - 1}")
    if not np.array_equal(cluster_of[d.labeled_idx], label_map.fine_of_point):
        raise InputError("init assignments do not pin labeled points to their fine labels")

    weights = _point_weights(d.labeled_idx, d.n_points, weight)
    free = d.unlabeled_idx
    sums = _MemberSums(km, weights, k, cluster_of)
    trace = [sums.objective]

    iterations, converged = 0, False
    for _ in range(opts.max_iter):
        iterations += 1
        cluster_of = sums.reassign(free)
        if np.array_equal(cluster_of, sums.cluster_of):
            converged = True
            break
        previous, objective, objective_err = sums.cluster_of, sums.objective, sums.objective_err
        sums.move(cluster_of)
        trace.append(sums.objective)
        err = objective_err + sums.objective_err
        # the slack covers the rounding of the difference, on both sides
        slack = 4.0 * UNIT_ROUNDOFF * (abs(objective) + abs(sums.objective))
        if err and abs(objective - sums.objective - opts.tol) <= err + slack:
            if objective_err:
                objective = _MemberSums(km, weights, k, previous).objective
            sums.recompute(cluster_of)
        if objective - sums.objective < opts.tol:
            converged = True
            break

    if sums.err is not None:
        sums.recompute(sums.cluster_of)
    trace[-1] = sums.objective

    return ClusterModel(
        cluster_of=sums.cluster_of,
        label_map=label_map,
        unlabeled_weight=weight,
        objective=sums.objective,
        kernel_spec=km.spec,
        iterations_run=iterations,
        converged=converged,
        labeled_rows=d.labeled_idx,
        cluster_inner=sums.inner,
        train_features=d.features,
        objective_trace=tuple(trace),
    )


def score_batch(
    model: ClusterModel, km_rows: np.ndarray, self_k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Labels (Q,), the class of the nearest cluster (ties to the lowest
    cluster id) mapped through the model's cluster-to-class map, and
    per-class scores (Q, C), minus the squared distance to the nearest
    cluster mapped to each class, from one computation of the distances of
    the queries to every centroid, from their kernel rows against the
    training points and their self-similarities."""
    km_rows = np.atleast_2d(np.asarray(km_rows, dtype=float))
    n = model.cluster_of.size
    if km_rows.shape[1] != n:
        raise InputError(f"kernel row length {km_rows.shape[1]} != training size {n}")
    self_k = np.atleast_1d(np.asarray(self_k, dtype=float))
    wz = _weighted_indicator(model.cluster_of, model.point_weights, model.n_clusters)
    dist = _distances(self_k, km_rows @ wz, wz.sum(axis=0), model.cluster_inner)
    scores = np.full((dist.shape[0], model.label_map.n_classes), -np.inf)
    for c in range(model.label_map.n_classes):
        cols = np.flatnonzero(model.label_map.fine_to_class == c)
        scores[:, c] = -np.min(dist[:, cols], axis=1)
    return model.label_map.fine_to_class[np.argmin(dist, axis=1)], scores
