import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misspec_ssl import kernels, sskkm
from misspec_ssl.core import UNLABELED, Dataset, InputError, SolverOptions, derive_seed
from misspec_ssl.datagen import GenSpec, generate
from misspec_ssl.kernels import KernelMatrix, KernelSpec, gram_matrix
from misspec_ssl.misspec import LabelMap
from misspec_ssl.sskkm import (
    ClusterModel,
    _MemberSums,
    fit_sskkm,
    init_assignments,
    score_batch,
)

LINEAR = KernelSpec(kind="linear")


def point_cluster_dist(km, cluster_of, weights, i, k):
    """Brute-force oracle: squared kernel-space distance from point i to the
    weighted centroid of cluster k, from the full Gram matrix. The distance
    is invariant to scaling all weights by c > 0."""
    weights = np.asarray(weights, dtype=float)
    member = cluster_of == k
    wsum = float(weights[member].sum())
    if wsum <= 0:
        raise InputError(f"cluster {k} has zero total weight")
    row = km.values[i]
    first = float(km.values[i, i])
    second = float(np.dot(weights[member], row[member]))
    sub = km.values[np.ix_(member, member)]
    third = float(weights[member] @ sub @ weights[member])
    return max(first - 2.0 * second / wsum + third / wsum**2, 0.0)


def classify_point(model, km_row, self_k):
    """Single-query label of score_batch."""
    return int(score_batch(model, km_row, np.array([self_k]))[0][0])


def class_scores(model, km_row, self_k):
    """Single-query scores of score_batch."""
    return score_batch(model, km_row, np.array([self_k]))[1][0]


def build_dataset(features, labeled, labels, n_classes=2):
    """Rows ``labeled`` carry ``labels``; every other row is unlabeled."""
    features = np.asarray(features, dtype=float)
    row_labels = np.full(features.shape[0], UNLABELED)
    row_labels[labeled] = labels
    return Dataset(features=features, row_labels=row_labels, n_classes=n_classes)


def seeded_instance(seed, n=30, dim=2, k=2, separation=6.0):
    """k well-separated blobs; one labeled seed per blob, the rest unlabeled."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, dim)) * separation
    seeds = centers + rng.standard_normal((k, dim))
    rest = centers[rng.integers(0, k, n - k)] + rng.standard_normal((n - k, dim))
    return build_dataset(np.concatenate([seeds, rest]), np.arange(k), np.arange(k), n_classes=k)


class TestInitAssignments:
    def test_unlabeled_at_seed_goes_to_its_cluster(self):
        x = [[0.0, 0.0], [5.0, 5.0], [0.0, 0.0]]
        d = build_dataset(x, [0, 1], [0, 1])
        km = gram_matrix(d, KernelSpec(kind="rbf", gamma=1.0))
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2))
        assert a[2] == 0

    def test_tie_breaks_to_lowest_cluster(self):
        x = [[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        d = build_dataset(x, [0, 1], [0, 1])
        km = gram_matrix(d, KernelSpec(kind="rbf", gamma=0.5))
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2))
        assert a[2] == 0

    def test_matches_explicit_nearest_seed_mean_oracle(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.standard_normal((6, 3)) + [4, 0, 0],
                            rng.standard_normal((10, 3))])
        labeled = np.array([0, 1, 2, 6, 7, 8])
        labels = np.array([0, 0, 0, 1, 1, 1])
        d = build_dataset(x, labeled, labels)
        km = gram_matrix(d, LINEAR)
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2))
        means = np.stack([x[labeled[labels == c]].mean(axis=0) for c in (0, 1)])
        for i in d.unlabeled_idx:
            want = int(np.argmin(((x[i] - means) ** 2).sum(axis=1)))
            assert a[i] == want

    def test_missing_seed_rejected(self):
        # a fine label with no labeled seed cannot exist, so it never reaches the init
        with pytest.raises(InputError, match="without a labeled carrier"):
            LabelMap(fine_to_class=[0, 1, 1], fine_of_point=[0, 1], n_classes=2)


class TestClusterStats:
    @pytest.mark.parametrize("n, k", [(30, 2), (30, 4), (400, 3), (600, 13), (1100, 4)])
    def test_matches_fsum_reference(self, n, k):
        # weights 1 and 1/4 make every product w_j w_l K_jl exact, so fsum
        # gives each reference sum correctly rounded; the member sums come
        # from the transposed product (w'K)' and land within a few ulps
        rng = np.random.default_rng(n + k)
        d = build_dataset(rng.standard_normal((n, 2)), [0, 1], [0, 1])
        km = gram_matrix(d, KernelSpec())
        kv = km.values
        cluster_of = rng.integers(0, k, size=n)
        weights = rng.choice([1.0, 0.25], size=n)
        sums = _MemberSums(km, weights, k, cluster_of)
        wsum, member_sum, inner = sums.wsum, sums.member_sum, sums.inner
        for c in range(k):
            m = np.flatnonzero(cluster_of == c)
            assert wsum[c] == math.fsum(weights[m])
            ref = np.array([math.fsum(weights[m] * kv[i, m]) for i in range(n)])
            assert np.all(np.abs(member_sum[:, c] - ref) <= 16 * np.spacing(ref))
            ref_inner = math.fsum((np.outer(weights[m], weights[m]) * kv[np.ix_(m, m)]).ravel())
            assert abs(inner[c] - ref_inner) <= 16 * np.spacing(ref_inner)


class TestPointClusterDist:
    def test_singleton_self_distance_zero(self):
        d = seeded_instance(0, n=10)
        km = gram_matrix(d, LINEAR)
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2))
        weights = np.zeros(10)
        weights[0] = 1.0  # cluster 0 holds only point 0
        assert point_cluster_dist(km, a, weights, 0, 0) == 0.0

    def test_matches_feature_space_centroid(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 3))
        d = build_dataset(x, [0, 4], [0, 1])
        km = gram_matrix(d, LINEAR)
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2))
        weights = np.ones(8)
        for i in range(8):
            for k in (0, 1):
                members = a == k
                centroid = x[members].mean(axis=0)
                want = float(((x[i] - centroid) ** 2).sum())
                got = point_cluster_dist(km, a, weights, i, k)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((9, 2))
        d = build_dataset(x, [0, 5], [0, 1])
        km = gram_matrix(d, LINEAR)
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2))
        weights = rng.uniform(0.1, 1.0, size=9)
        base = point_cluster_dist(km, a, weights, 3, 0)
        assert point_cluster_dist(km, a, 2.0 * weights, 3, 0) == base
        assert point_cluster_dist(km, a, 0.7 * weights, 3, 0) == pytest.approx(base, rel=1e-12)

    def test_zero_weight_cluster_rejected(self):
        d = seeded_instance(0, n=10)
        km = gram_matrix(d, LINEAR)
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2))
        weights = np.where(a == 1, 0.0, 1.0)
        with pytest.raises(InputError, match="cluster 1 has zero total weight"):
            point_cluster_dist(km, a, weights, 0, 1)


def fit_modes(d, km, k=2, **kw):
    lm = LabelMap.identity(d.labels, k)
    out = {}
    for mode in ("original", "unbiased"):
        out[mode] = fit_sskkm(km, d, lm, SolverOptions(unlabeled_weight_mode=mode, **kw))
    return out


class TestFitSskkm:
    def test_no_unlabeled_weight_modes_identical(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((8, 2))
        d = build_dataset(x, np.arange(8), [0, 1] * 4)
        km = gram_matrix(d, LINEAR)
        fits = fit_modes(d, km)
        a, b = fits["original"], fits["unbiased"]
        assert np.array_equal(a.cluster_of, b.cluster_of)
        assert a.objective == b.objective
        assert a.unlabeled_weight == b.unlabeled_weight == 1.0

    def test_weight_one_reproduces_original(self):
        d = seeded_instance(15, n=40)
        km = gram_matrix(d, KernelSpec(kind="rbf", gamma=0.2))
        lm = LabelMap.identity(d.labels, 2)
        orig = fit_sskkm(km, d, lm, SolverOptions(unlabeled_weight_mode="original"))
        cust = fit_sskkm(km, d, lm, SolverOptions(unlabeled_weight_mode=1.0))
        assert np.array_equal(orig.cluster_of, cust.cluster_of)
        assert orig.objective == cust.objective
        assert orig.objective_trace == cust.objective_trace

    def test_unbiased_weight_value(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((100, 2))
        d = build_dataset(x, np.arange(20), [0, 1] * 10)
        km = gram_matrix(d, LINEAR)
        model = fit_sskkm(km, d, LabelMap.identity(d.labels, 2),
                          SolverOptions(unlabeled_weight_mode="unbiased"))
        assert model.unlabeled_weight == 20 / 100

    def test_objective_trace_non_increasing(self):
        for seed in range(10):
            d = seeded_instance(seed, n=40, k=2)
            km = gram_matrix(d, KernelSpec(kind="rbf", gamma=None))
            for model in fit_modes(d, km).values():
                trace = np.array(model.objective_trace)
                assert np.all(np.diff(trace) <= 1e-9)
                assert model.objective >= 0.0

    def test_labeled_points_stay_pinned(self):
        d = seeded_instance(17, n=50, k=3)
        km = gram_matrix(d, KernelSpec(kind="rbf", gamma=None))
        lm = LabelMap.identity(d.labels, 3)
        model = fit_sskkm(km, d, lm, SolverOptions())
        np.testing.assert_array_equal(
            model.cluster_of[d.labeled_idx], lm.fine_of_point
        )

    def test_deterministic(self):
        d = seeded_instance(18, n=45)
        km = gram_matrix(d, KernelSpec(kind="rbf", gamma=None))
        lm = LabelMap.identity(d.labels, 2)
        a = fit_sskkm(km, d, lm, SolverOptions(seed=5))
        b = fit_sskkm(km, d, lm, SolverOptions(seed=5))
        assert np.array_equal(a.cluster_of, b.cluster_of)
        assert a.objective == b.objective

    def test_kernel_matrix_of_another_dataset_rejected(self):
        km = gram_matrix(seeded_instance(0, n=10), LINEAR)
        d = seeded_instance(0, n=12)
        with pytest.raises(InputError, match="kernel matrix covers 10 points, dataset has 12"):
            fit_sskkm(km, d, LabelMap.identity(d.labels, 2), SolverOptions())

    def test_init_checked_against_label_map(self):
        # one cluster id of the label map's K per point, with the labeled
        # points pinned to their fine labels
        d = build_dataset(np.eye(3), [0, 1], [0, 1])
        km = gram_matrix(d, LINEAR)
        lm = LabelMap.identity(d.labels, 2)
        for init in ([0, 1, 2], [0, 1, -1], [0, 1]):
            with pytest.raises(InputError, match=r"cluster id in 0\.\.1"):
                fit_sskkm(km, d, lm, SolverOptions(), init=np.array(init))
        with pytest.raises(InputError, match="do not pin labeled points"):
            fit_sskkm(km, d, lm, SolverOptions(), init=np.array([1, 0, 0]))
        for init in ([0.0, 1.0, 0.0], [0.2, 1.9, 0.5], [False, True, False]):
            with pytest.raises(InputError, match="init must hold integers only"):
                fit_sskkm(km, d, lm, SolverOptions(), init=np.array(init))
        init = np.array([0, 1, 0])
        model = fit_sskkm(km, d, lm, SolverOptions(), init=init)
        assert model.n_clusters == 2
        assert init.tolist() == [0, 1, 0]  # the caller's init is not written to

    def test_matches_pinned_lloyd_oracle(self):
        for seed in range(5):
            d = seeded_instance(seed + 100, n=40, dim=3, k=2)
            km = gram_matrix(d, LINEAR)
            lm = LabelMap.identity(d.labels, 2)
            init = init_assignments(km, d, lm)
            model = fit_sskkm(km, d, lm, SolverOptions(), init=init)
            oracle = pinned_lloyd(d.features, d.labeled_idx, lm.fine_of_point,
                                  init, 2)
            np.testing.assert_array_equal(model.cluster_of, oracle)


def pinned_lloyd(x, labeled_idx, pins, init, k, max_iter=300):
    """Plain feature-space Lloyd with labeled points pinned to their clusters."""
    z = init.copy()
    free = np.setdiff1d(np.arange(x.shape[0]), labeled_idx)
    for _ in range(max_iter):
        centroids = np.stack([x[z == c].mean(axis=0) for c in range(k)])
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_z = z.copy()
        new_z[free] = np.argmin(d2[free], axis=1)
        if np.array_equal(new_z, z):
            return z
        z = new_z
    return z


class TestClassification:
    def build_model(self, seed=19, k=2):
        d = seeded_instance(seed, n=30, k=k)
        km = gram_matrix(d, LINEAR)
        lm = LabelMap.identity(d.labels, k)
        model = fit_sskkm(km, d, lm, SolverOptions())
        return d, km, model

    def test_training_point_maps_to_its_class(self):
        d, km, model = self.build_model()
        i = int(d.labeled_idx[1])
        label = classify_point(model, km.values[i], km.values[i, i])
        assert label == model.label_map.fine_to_class[model.cluster_of[i]]

    def test_two_clusters_same_class(self):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [8.0, 8.0], [8.1, 8.0], [4.0, 4.0]])
        d = build_dataset(x, [0, 1, 2, 3], [0, 0, 1, 1])
        km = gram_matrix(d, LINEAR)
        lm = LabelMap(fine_to_class=[0, 0, 1], fine_of_point=[0, 1, 2, 2], n_classes=2)
        model = fit_sskkm(km, d, lm, SolverOptions())
        # query near either of the two class-0 clusters gives class 0
        assert classify_point(model, km.values[0], km.values[0, 0]) == 0
        assert classify_point(model, km.values[1], km.values[1, 1]) == 0

    def test_matches_explicit_centroid_oracle(self):
        d, km, model = self.build_model(seed=20)
        x = d.features
        w = model.point_weights
        centroids = []
        for k in range(model.n_clusters):
            members = model.cluster_of == k
            centroids.append((w[members] @ x[members]) / w[members].sum())
        centroids = np.stack(centroids)
        rng = np.random.default_rng(21)
        queries = rng.standard_normal((100, x.shape[1])) * 3
        rows = queries @ x.T
        diag = (queries ** 2).sum(axis=1)
        got = score_batch(model, rows, diag)[0]
        d2 = ((queries[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        want = model.label_map.fine_to_class[np.argmin(d2, axis=1)]
        np.testing.assert_array_equal(got, want)

    def test_scores_argmax_consistent_with_classify(self):
        d, km, model = self.build_model(seed=22)
        rng = np.random.default_rng(23)
        queries = rng.standard_normal((100, d.dim)) * 4
        rows = queries @ d.features.T
        diag = (queries ** 2).sum(axis=1)
        labels, scores = score_batch(model, rows, diag)
        np.testing.assert_array_equal(np.argmax(scores, axis=1), labels)

    def test_scores_match_brute_force_distances(self):
        # queries are the training points: their kernel rows are rows of the
        # Gram, so point_cluster_dist gives every distance from scratch
        d = seeded_instance(25, n=30, k=3)
        km = gram_matrix(d, LINEAR)
        lm = LabelMap(fine_to_class=[0, 1, 1], fine_of_point=d.labels, n_classes=2)
        model = fit_sskkm(km, d, lm, SolverOptions(unlabeled_weight_mode="unbiased"))
        labels, scores = score_batch(model, km.values, km.diag)
        for i in range(d.n_points):
            dist = [point_cluster_dist(km, model.cluster_of, model.point_weights, i, k)
                    for k in range(3)]
            np.testing.assert_allclose(scores[i], [-dist[0], -min(dist[1:])],
                                       rtol=1e-9, atol=1e-9)
            assert labels[i] == lm.fine_to_class[int(np.argmin(dist))]

    def test_equidistant_scores_tie(self):
        x = np.array([[-1.0, 0.0], [1.0, 0.0], [-1.0, 0.1], [1.0, 0.1]])
        d = build_dataset(x, [0, 1, 2, 3], [0, 1, 0, 1])
        km = gram_matrix(d, LINEAR)
        model = fit_sskkm(km, d, LabelMap.identity(d.labels, 2), SolverOptions())
        q = np.array([0.0, 0.05])
        scores = class_scores(model, q @ x.T, float(q @ q))
        assert scores[0] == pytest.approx(scores[1], abs=1e-12)
        assert int(np.argmax(scores)) == 0

    def test_row_length_checked(self):
        _, km, model = self.build_model(seed=24)
        with pytest.raises(InputError):
            classify_point(model, np.ones(km.n + 1), 1.0)


# -- the full-product oracle -------------------------------------------------
#
# init_assignments and fit_sskkm with a full product over K for every set of
# member sums: every decision and every stored statistic of the incremental
# fits must equal theirs.


def oracle_distances(km, cluster_of, weights, k):
    """Distances (N, K), W_k and T_k from one full product (wz' K)'."""
    wz = np.zeros((cluster_of.size, k))
    wz[np.arange(cluster_of.size), cluster_of] = weights
    member_sum = (wz.T @ km.values).T
    wsum = wz.sum(axis=0)
    inner = np.einsum("ik,ik->k", wz, member_sum)
    dist = km.diag[:, None] - 2.0 * member_sum / wsum + inner / (wsum * wsum)
    return np.maximum(dist, 0.0), wsum, inner


def oracle_init_assignments(km, d, label_map):
    cluster_of = np.zeros(d.n_points, dtype=int)
    cluster_of[d.labeled_idx] = label_map.fine_of_point
    weights = np.where(d.row_labels == UNLABELED, 0.0, 1.0)
    dist, _, _ = oracle_distances(km, cluster_of, weights, label_map.n_fine)
    cluster_of[d.unlabeled_idx] = np.argmin(dist[d.unlabeled_idx], axis=1)
    return cluster_of


def oracle_fit_sskkm(km, d, label_map, opts, init=None):
    k = label_map.n_fine
    weight = opts.resolve_unlabeled_weight(d.n_labeled, d.n_unlabeled)
    if init is None:
        init = oracle_init_assignments(km, d, label_map)
    cluster_of = np.array(init, dtype=int)
    weights = np.where(d.row_labels == UNLABELED, weight, 1.0)
    free = d.unlabeled_idx
    idx = np.arange(d.n_points)
    dist, wsum, inner = oracle_distances(km, cluster_of, weights, k)
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
        dist, wsum, inner = oracle_distances(km, cluster_of, weights, k)
        new_objective = float(np.dot(weights, dist[idx, cluster_of]))
        trace.append(new_objective)
        if objective - new_objective < opts.tol:
            objective = new_objective
            converged = True
            break
        objective = new_objective
    return ClusterModel(
        cluster_of=cluster_of, label_map=label_map, unlabeled_weight=weight,
        objective=objective, kernel_spec=km.spec, iterations_run=iterations,
        converged=converged, labeled_rows=d.labeled_idx,
        cluster_inner=inner, train_features=d.features, objective_trace=tuple(trace),
    )


def assert_same_fit(got, want):
    """Equal decisions and stored statistics, bit for bit; the intermediate
    trace entries are updated values, equal up to their last bits."""
    assert got.to_dict() == want.to_dict()
    np.testing.assert_array_equal(got.cluster_inner, want.cluster_inner)
    assert len(got.objective_trace) == len(want.objective_trace)
    assert got.objective_trace[-1] == want.objective_trace[-1] == want.objective
    np.testing.assert_allclose(got.objective_trace, want.objective_trace, rtol=1e-12, atol=1e-12)


def force_incremental(mp, n, rows):
    """Gather ``rows`` rows of K (n columns) per block, so that member sums
    are updated from the moved rows wherever K has more than ``rows`` rows.
    Call it after the Gram is built: it shrinks the kernels' blocks too."""
    mp.setattr(kernels, "BLOCK_ENTRIES", rows * n)


def spy_cluster_stats(mp):
    """Record the clustering of every full product _MemberSums.recompute makes."""
    calls = []
    real = sskkm._MemberSums.recompute

    def spy(self, cluster_of):
        calls.append(np.array(cluster_of))
        return real(self, cluster_of)

    mp.setattr(sskkm._MemberSums, "recompute", spy)
    return calls


def tie_prone_instance(seed):
    """A small dataset on an integer grid: duplicated points, a constant
    feature now and then, and exact ties in distance. The label map gives
    each class one cluster, or each labeled point its own."""
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(2, 4))
    per_class = int(rng.integers(1, 4))
    n_labeled = n_classes * per_class
    n = n_labeled + int(rng.integers(0, 31))
    x = rng.integers(-3, 4, size=(n, int(rng.integers(1, 4)))) * rng.choice([0.5, 1.0, 3.0])
    if rng.random() < 0.3:
        x[:, 0] = 1.5
    row_labels = np.full(n, UNLABELED)
    labeled = rng.permutation(n)[:n_labeled]
    row_labels[labeled] = np.repeat(np.arange(n_classes), per_class)
    d = Dataset(features=x, row_labels=row_labels, n_classes=n_classes)
    if rng.random() < 0.5:
        label_map = LabelMap.identity(d.labels, n_classes)
    else:
        label_map = LabelMap(fine_to_class=d.labels, fine_of_point=np.arange(n_labeled),
                             n_classes=n_classes)
    spec = (LINEAR, KernelSpec(kind="rbf", gamma=0.5),
            KernelSpec(kind="generalized_rbf", gamma=0.3, distance="manhattan"))[seed % 3]
    return d, label_map, gram_matrix(d, spec), rng


class TestIncrementalMatchesFullProductOracle:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_tie_prone_datasets(self, seed):
        d, lm, km, rng = tie_prone_instance(seed)
        init = rng.integers(0, lm.n_fine, d.n_points)
        init[d.labeled_idx] = lm.fine_of_point
        options = [SolverOptions(unlabeled_weight_mode=mode) for mode in ("original", "unbiased")]
        options += [SolverOptions(unlabeled_weight_mode=w, tol=0.0) for w in (0.0, 0.7)]
        with pytest.MonkeyPatch.context() as mp:
            force_incremental(mp, km.n, int(rng.integers(1, 4)))
            np.testing.assert_array_equal(init_assignments(km, d, lm),
                                          oracle_init_assignments(km, d, lm))
            for opts in options:
                for start in (None, init):
                    assert_same_fit(fit_sskkm(km, d, lm, opts, init=start),
                                    oracle_fit_sskkm(km, d, lm, opts, init=start))

    @pytest.mark.parametrize("mode", ["original", "unbiased"])
    def test_acceptance_seeds(self, mode):
        # the datasets of acceptance criterion 2 (N = 1,020), unforced: the
        # updates and their full-product fallbacks run as in production
        for si in range(20):
            seed = derive_seed(2026, "deg", si)
            d = generate(GenSpec(kind="misspecified", subclusters_per_class=2,
                                 class_separation=5.0, n_unlabeled=1000, seed=seed))[0]
            km = gram_matrix(d, KernelSpec())
            lm = LabelMap.identity(d.labels, 2)
            opts = SolverOptions(seed=si, unlabeled_weight_mode=mode)
            np.testing.assert_array_equal(init_assignments(km, d, lm),
                                          oracle_init_assignments(km, d, lm))
            assert_same_fit(fit_sskkm(km, d, lm, opts), oracle_fit_sskkm(km, d, lm, opts))


def midway_instance(n_far=0):
    """Labeled seeds at -2 (class 0) and 2 (class 1) on a line, an unlabeled
    point at 0 midway between them, and ``n_far`` unlabeled points drawn
    from [-10, 10], which lie nearer one seed."""
    far = np.random.default_rng(7).uniform(-10.0, 10.0, n_far)
    x = np.concatenate([[-2.0, 2.0, 0.0], far])[:, None]
    return build_dataset(x, [0, 1], [0, 1])


class TestExactDecisions:
    def test_init_tie_taken_on_the_full_product(self, monkeypatch):
        # at N = 403 the init sums the two labeled rows of K alone; the exact
        # tie of the midway point is within their error bound, so its argmin
        # waits for a full product and breaks the tie to cluster 0
        d = midway_instance(n_far=400)
        km = gram_matrix(d, LINEAR)
        lm = LabelMap.identity(d.labels, 2)
        calls = spy_cluster_stats(monkeypatch)
        got = init_assignments(km, d, lm)
        assert got[2] == 0 and len(calls) == 1
        np.testing.assert_array_equal(got, oracle_init_assignments(km, d, lm))
        # without the tie no full product is made
        d = build_dataset(np.delete(d.features, 2, axis=0), [0, 1], [0, 1])
        calls.clear()
        got = init_assignments(gram_matrix(d, LINEAR), d, lm)
        assert calls == []

    def test_fit_tie_taken_on_the_full_product(self, monkeypatch):
        # points -2, 2 (labeled), 0, 4, -2 from the init [0, 1, 1, 1, 1]: the
        # first iteration moves the duplicate of seed 0 to cluster 0, which
        # leaves both centroids on their seeds and the point at 0 midway
        d = build_dataset([[-2.0], [2.0], [0.0], [4.0], [-2.0]], [0, 1], [0, 1])
        km = gram_matrix(d, LINEAR)
        lm = LabelMap.identity(d.labels, 2)
        init = np.array([0, 1, 1, 1, 1])
        force_incremental(monkeypatch, km.n, 1)
        calls = spy_cluster_stats(monkeypatch)
        model = fit_sskkm(km, d, lm, SolverOptions(), init=init)
        assert_same_fit(model, oracle_fit_sskkm(km, d, lm, SolverOptions(), init=init))
        assert model.cluster_of[2] == 0
        # the start, the tie at the second iteration, and the end
        assert [c.tolist() for c in calls] == [[0, 1, 1, 1, 1], [0, 1, 1, 1, 0],
                                               [0, 1, 0, 1, 0]]

    @pytest.mark.parametrize("stop", [False, True])
    def test_tolerance_within_the_objective_bound(self, monkeypatch, stop):
        # tol set to the exact decrease of the second iteration (or the next
        # float up): the updated decrease lies within its error bound of tol,
        # so both objectives are recomputed before the test is decided
        d = generate(GenSpec(kind="misspecified", subclusters_per_class=2,
                             class_separation=5.0, n_unlabeled=1000, seed=0))[0]
        km = gram_matrix(d, KernelSpec())
        lm = LabelMap.identity(d.labels, 2)
        trace = oracle_fit_sskkm(km, d, lm, SolverOptions(tol=0.0)).objective_trace
        assert len(trace) >= 4
        tol = trace[1] - trace[2]
        opts = SolverOptions(tol=np.nextafter(tol, np.inf) if stop else tol)
        want = oracle_fit_sskkm(km, d, lm, opts)
        assert (want.iterations_run == 2) == stop
        after_one = oracle_fit_sskkm(km, d, lm, SolverOptions(max_iter=1)).cluster_of
        calls = spy_cluster_stats(monkeypatch)
        assert_same_fit(fit_sskkm(km, d, lm, opts), want)
        assert np.array_equal(calls[1], after_one)  # the earlier objective, exactly


class UnreadableGram(KernelMatrix):
    """A Gram whose values cannot be read: K is reached only through the
    methods of the Gram it wraps. Records the entries of every gather of its
    rows and the width of every sweep."""

    def __init__(self, km):
        for name, value in (("spec", km.spec), ("km", km), ("gathers", []), ("sweeps", [])):
            object.__setattr__(self, name, value)

    @property
    def values(self):
        raise AssertionError("KernelMatrix.values read outside kernels")

    n = property(lambda self: self.km.n)
    diag = property(lambda self: self.km.diag)

    def sweep(self, wz):
        self.sweeps.append(wz.shape[1])
        return self.km.sweep(wz)

    def rows(self, idx):
        out = self.km.rows(idx)
        self.gathers.append(out.size)
        return out


def test_fit_reads_k_twice_and_gathers_in_blocks():
    # a dataset of the benchmark's askkm_cli shape, N = 6,020, at a seed of
    # its own: the init reads the 20 labeled rows of K, and a fit whose
    # guards do not fire reads all of K only at its start and its end
    d = generate(GenSpec(kind="misspecified", subclusters_per_class=2, class_separation=5.0,
                         subcluster_separation=8.0, n_unlabeled=6000, seed=31))[0]
    km = UnreadableGram(gram_matrix(d, KernelSpec()))
    lm = LabelMap.identity(d.labels, 2)
    init = init_assignments(km, d, lm)
    assert km.sweeps == []
    assert sum(km.gathers) == d.n_labeled * d.n_points
    km.gathers.clear()
    model = fit_sskkm(km, d, lm, SolverOptions(), init=init)
    assert model.iterations_run > 2
    assert len(km.sweeps) == 2
    assert len(km.gathers) > 1
    assert max(km.gathers) <= kernels.BLOCK_ENTRIES
