import numpy as np
import pytest

from misspec_ssl.core import Dataset, InputError, SolverOptions
from misspec_ssl.kernels import KernelSpec, gram_matrix
from misspec_ssl.misspec import LabelMap
from misspec_ssl.sskkm import Assignments, fit_sskkm, init_assignments, score_batch

LINEAR = KernelSpec(kind="linear")


def point_cluster_dist(km, a, weights, i, k):
    """Brute-force oracle: squared kernel-space distance from point i to the
    weighted centroid of cluster k, from the full Gram matrix. The distance
    is invariant to scaling all weights by c > 0."""
    weights = np.asarray(weights, dtype=float)
    member = a.cluster_of == k
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


def build_dataset(features, labeled_idx, labels, n_classes=2):
    features = np.asarray(features, dtype=float)
    labeled_idx = np.asarray(labeled_idx)
    return Dataset(
        features=features,
        labeled_idx=labeled_idx,
        labels=np.asarray(labels),
        unlabeled_idx=np.setdiff1d(np.arange(features.shape[0]), labeled_idx),
        n_classes=n_classes,
    )


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
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2), 2)
        assert a.cluster_of[2] == 0

    def test_tie_breaks_to_lowest_cluster(self):
        x = [[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        d = build_dataset(x, [0, 1], [0, 1])
        km = gram_matrix(d, KernelSpec(kind="rbf", gamma=0.5))
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2), 2)
        assert a.cluster_of[2] == 0

    def test_matches_explicit_nearest_seed_mean_oracle(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.standard_normal((6, 3)) + [4, 0, 0],
                            rng.standard_normal((10, 3))])
        labeled = np.array([0, 1, 2, 6, 7, 8])
        labels = np.array([0, 0, 0, 1, 1, 1])
        d = build_dataset(x, labeled, labels)
        km = gram_matrix(d, LINEAR)
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2), 2)
        means = np.stack([x[labeled[labels == c]].mean(axis=0) for c in (0, 1)])
        for i in d.unlabeled_idx:
            want = int(np.argmin(((x[i] - means) ** 2).sum(axis=1)))
            assert a.cluster_of[i] == want

    def test_missing_seed_rejected(self):
        # a fine label with no labeled seed cannot exist, so it never reaches the init
        with pytest.raises(InputError, match="without a labeled carrier"):
            LabelMap(fine_to_class=[0, 1, 1], fine_of_point=[0, 1], n_classes=2)


class TestPointClusterDist:
    def test_singleton_self_distance_zero(self):
        d = seeded_instance(0, n=10)
        km = gram_matrix(d, LINEAR)
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2), 2)
        weights = np.zeros(10)
        weights[0] = 1.0  # cluster 0 holds only point 0
        assert point_cluster_dist(km, a, weights, 0, 0) == 0.0

    def test_matches_feature_space_centroid(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 3))
        d = build_dataset(x, [0, 4], [0, 1])
        km = gram_matrix(d, LINEAR)
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2), 2)
        weights = np.ones(8)
        for i in range(8):
            for k in (0, 1):
                members = a.cluster_of == k
                centroid = x[members].mean(axis=0)
                want = float(((x[i] - centroid) ** 2).sum())
                got = point_cluster_dist(km, a, weights, i, k)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((9, 2))
        d = build_dataset(x, [0, 5], [0, 1])
        km = gram_matrix(d, LINEAR)
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2), 2)
        weights = rng.uniform(0.1, 1.0, size=9)
        base = point_cluster_dist(km, a, weights, 3, 0)
        assert point_cluster_dist(km, a, 2.0 * weights, 3, 0) == base
        assert point_cluster_dist(km, a, 0.7 * weights, 3, 0) == pytest.approx(base, rel=1e-12)

    def test_zero_weight_cluster_rejected(self):
        d = seeded_instance(0, n=10)
        km = gram_matrix(d, LINEAR)
        a = init_assignments(km, d, LabelMap.identity(d.labels, 2), 2)
        weights = np.where(a.cluster_of == 1, 0.0, 1.0)
        with pytest.raises(InputError, match="cluster 1 has zero total weight"):
            point_cluster_dist(km, a, weights, 0, 1)


def fit_modes(d, km, k=2, **kw):
    lm = LabelMap.identity(d.labels, k)
    out = {}
    for mode in ("original", "unbiased"):
        out[mode] = fit_sskkm(km, d, lm, k, SolverOptions(unlabeled_weight_mode=mode, **kw))
    return out


class TestFitSskkm:
    def test_no_unlabeled_weight_modes_identical(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((8, 2))
        d = build_dataset(x, np.arange(8), [0, 1] * 4)
        km = gram_matrix(d, LINEAR)
        fits = fit_modes(d, km)
        a, b = fits["original"], fits["unbiased"]
        assert np.array_equal(a.assignments.cluster_of, b.assignments.cluster_of)
        assert a.objective == b.objective
        assert a.unlabeled_weight == b.unlabeled_weight == 1.0

    def test_custom_weight_one_reproduces_original(self):
        d = seeded_instance(15, n=40)
        km = gram_matrix(d, KernelSpec(kind="rbf", gamma=0.2))
        lm = LabelMap.identity(d.labels, 2)
        orig = fit_sskkm(km, d, lm, 2, SolverOptions(unlabeled_weight_mode="original"))
        cust = fit_sskkm(km, d, lm, 2,
                         SolverOptions(unlabeled_weight_mode="custom", custom_weight=1.0))
        assert np.array_equal(orig.assignments.cluster_of, cust.assignments.cluster_of)
        assert orig.objective == cust.objective
        assert orig.objective_trace == cust.objective_trace

    def test_unbiased_weight_value(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((100, 2))
        d = build_dataset(x, np.arange(20), [0, 1] * 10)
        km = gram_matrix(d, LINEAR)
        model = fit_sskkm(km, d, LabelMap.identity(d.labels, 2), 2,
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
        model = fit_sskkm(km, d, lm, 3, SolverOptions())
        np.testing.assert_array_equal(
            model.assignments.cluster_of[d.labeled_idx], lm.fine_of_point
        )

    def test_deterministic(self):
        d = seeded_instance(18, n=45)
        km = gram_matrix(d, KernelSpec(kind="rbf", gamma=None))
        lm = LabelMap.identity(d.labels, 2)
        a = fit_sskkm(km, d, lm, 2, SolverOptions(seed=5))
        b = fit_sskkm(km, d, lm, 2, SolverOptions(seed=5))
        assert np.array_equal(a.assignments.cluster_of, b.assignments.cluster_of)
        assert a.objective == b.objective

    def test_label_map_checked_even_with_init(self):
        # every cluster needs a pinned labeled point, or it could empty
        d = build_dataset(np.eye(3), [0, 1], [0, 1])
        km = gram_matrix(d, LINEAR)
        init = Assignments(cluster_of=[0, 1, 2], n_clusters=3)
        with pytest.raises(InputError, match="without a labeled carrier"):
            LabelMap(fine_to_class=[0, 1, 1], fine_of_point=[0, 1], n_classes=2)
        with pytest.raises(InputError, match="2 fine labels, expected 3"):
            fit_sskkm(km, d, LabelMap.identity(d.labels, 2), 3, SolverOptions(), init=init)

    def test_matches_pinned_lloyd_oracle(self):
        for seed in range(5):
            d = seeded_instance(seed + 100, n=40, dim=3, k=2)
            km = gram_matrix(d, LINEAR)
            lm = LabelMap.identity(d.labels, 2)
            init = init_assignments(km, d, lm, 2)
            model = fit_sskkm(km, d, lm, 2, SolverOptions(), init=init)
            oracle = pinned_lloyd(d.features, d.labeled_idx, lm.fine_of_point,
                                  init.cluster_of, 2)
            np.testing.assert_array_equal(model.assignments.cluster_of, oracle)


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
        model = fit_sskkm(km, d, lm, k, SolverOptions())
        return d, km, model

    def test_training_point_maps_to_its_class(self):
        d, km, model = self.build_model()
        i = int(d.labeled_idx[1])
        label = classify_point(model, km.values[i], km.values[i, i])
        assert label == model.label_map.fine_to_class[model.assignments.cluster_of[i]]

    def test_two_clusters_same_class(self):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [8.0, 8.0], [8.1, 8.0], [4.0, 4.0]])
        d = build_dataset(x, [0, 1, 2, 3], [0, 0, 1, 1])
        km = gram_matrix(d, LINEAR)
        lm = LabelMap(fine_to_class=[0, 0, 1], fine_of_point=[0, 1, 2, 2], n_classes=2)
        model = fit_sskkm(km, d, lm, 3, SolverOptions())
        # query near either of the two class-0 clusters gives class 0
        assert classify_point(model, km.values[0], km.values[0, 0]) == 0
        assert classify_point(model, km.values[1], km.values[1, 1]) == 0

    def test_matches_explicit_centroid_oracle(self):
        d, km, model = self.build_model(seed=20)
        x = d.features
        w = model.point_weights
        centroids = []
        for k in range(model.n_clusters):
            members = model.assignments.cluster_of == k
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
        model = fit_sskkm(km, d, lm, 3, SolverOptions(unlabeled_weight_mode="unbiased"))
        labels, scores = score_batch(model, km.values, km.diag)
        for i in range(d.n_points):
            dist = [point_cluster_dist(km, model.assignments, model.point_weights, i, k)
                    for k in range(3)]
            np.testing.assert_allclose(scores[i], [-dist[0], -min(dist[1:])],
                                       rtol=1e-9, atol=1e-9)
            assert labels[i] == lm.fine_to_class[int(np.argmin(dist))]

    def test_equidistant_scores_tie(self):
        x = np.array([[-1.0, 0.0], [1.0, 0.0], [-1.0, 0.1], [1.0, 0.1]])
        d = build_dataset(x, [0, 1, 2, 3], [0, 1, 0, 1])
        km = gram_matrix(d, LINEAR)
        model = fit_sskkm(km, d, LabelMap.identity(d.labels, 2), 2, SolverOptions())
        q = np.array([0.0, 0.05])
        scores = class_scores(model, q @ x.T, float(q @ q))
        assert scores[0] == pytest.approx(scores[1], abs=1e-12)
        assert int(np.argmax(scores)) == 0

    def test_row_length_checked(self):
        _, km, model = self.build_model(seed=24)
        with pytest.raises(InputError):
            classify_point(model, np.ones(km.n + 1), 1.0)
