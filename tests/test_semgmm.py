import numpy as np
import pytest
from dataclasses import replace

from misspec_ssl import semgmm
from misspec_ssl.core import Dataset, InputError, SolverOptions, derive_seed
from misspec_ssl.datagen import GenSpec, generate
from misspec_ssl.evalx import predict
from misspec_ssl.semgmm import (
    GmmModel,
    bayes_classify_batch,
    class_log_joint,
    fit_sem,
    joint_log_density,
    kl_mc,
)

LOG_2PI = np.log(2 * np.pi)


def bayes_classify(m, x):
    """Single-query oracle of the batch labels: argmax over classes of the
    joint density f(x, y), ties to the lowest class id."""
    return int(np.argmax(class_log_joint(m, np.asarray(x, dtype=float)[None, :])[0]))


def class_posteriors(m, x):
    """Single-query oracle of the batch posteriors: the normalized per-class
    joint densities."""
    logj = class_log_joint(m, np.asarray(x, dtype=float)[None, :])[0]
    p = np.exp(logj - np.max(logj))
    return p / p.sum()


def loglik(m, d, w):
    """Objective oracle: the weighted objective of the model on a dataset,
    recomputed from scratch over the rows fit_sem builds."""
    if d.dim != m.dim:
        raise InputError(f"model dimension {m.dim} != dataset dimension {d.dim}")
    x, mask, _ = semgmm._objective_rows(d, m.comp_map, w)
    return semgmm._objective(semgmm._masked_log_joint(m, x, mask)[1], d.n_labeled, w)


def all_labeled_dataset(x, labels, n_classes=2):
    x = np.asarray(x, dtype=float)
    return Dataset(
        features=x,
        labeled_idx=np.arange(x.shape[0]),
        labels=np.asarray(labels),
        unlabeled_idx=np.array([], dtype=int),
        n_classes=n_classes,
    )


def two_gaussian_model(mu0=-3.0, mu1=3.0, var=1.0):
    return GmmModel(
        weights=[0.5, 0.5],
        means=[[mu0], [mu1]],
        covariances=[[var], [var]],
        comp_map=[0, 1],
        n_classes=2,
    )


def random_model(rng, k=3, dim=2, n_classes=2):
    w = rng.uniform(0.2, 1.0, size=k)
    comp_map = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, k - n_classes)])
    return GmmModel(
        weights=w / w.sum(),
        means=rng.standard_normal((k, dim)) * 3,
        covariances=rng.uniform(0.5, 2.0, size=(k, dim)),
        comp_map=comp_map,
        n_classes=n_classes,
    )


class TestFitSem:
    def test_supervised_means_equal_class_means(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 2))
        labels = np.repeat([0, 1], 20)
        d = all_labeled_dataset(x, labels)
        opts = SolverOptions(unlabeled_weight_mode="custom", custom_weight=0.0)
        model = fit_sem(d, 2, np.arange(2), opts)
        np.testing.assert_allclose(model.means[0], x[:20].mean(axis=0), rtol=1e-9)
        np.testing.assert_allclose(model.means[1], x[20:].mean(axis=0), rtol=1e-9)

    def test_no_unlabeled_modes_identical(self):
        rng = np.random.default_rng(1)
        d = all_labeled_dataset(rng.standard_normal((30, 2)), [0, 1] * 15)
        fits = {
            mode: fit_sem(d, 2, np.arange(2), SolverOptions(unlabeled_weight_mode=mode))
            for mode in ("original", "unbiased")
        }
        assert np.array_equal(fits["original"].means, fits["unbiased"].means)
        assert np.array_equal(fits["original"].covariances, fits["unbiased"].covariances)
        assert fits["original"].final_loglik == fits["unbiased"].final_loglik

    def test_recovers_separated_one_d_means(self):
        spec = GenSpec(kind="well_specified", n_classes=2, dim=1, class_separation=6.0,
                       n_labeled_per_class=10, n_unlabeled=200)
        hits = 0
        for si in range(20):
            d, _ = generate(replace(spec, seed=derive_seed(9, "recover", si)))
            model = fit_sem(d, 2, np.arange(2), SolverOptions(seed=si))
            centers = np.sort(model.means[:, 0])
            if abs(centers[0] + 3.0) < 0.5 and abs(centers[1] - 3.0) < 0.5:
                hits += 1
        assert hits == 20

    def test_k_below_classes_rejected(self):
        d = all_labeled_dataset(np.zeros((4, 1)), [0, 1, 0, 1])
        with pytest.raises(InputError):
            fit_sem(d, 1, np.array([0]), SolverOptions())

    def test_comp_map_must_cover_classes(self):
        d = all_labeled_dataset(np.zeros((4, 1)), [0, 1, 0, 1])
        with pytest.raises(InputError):
            fit_sem(d, 2, np.array([0, 0]), SolverOptions())

    def test_mixing_weights_remain_probability_vector(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = 30
            x = rng.standard_normal((n, 2)) * 2
            labeled = np.arange(10)
            d = Dataset(features=x, labeled_idx=labeled, labels=np.array([0, 1] * 5),
                        unlabeled_idx=np.arange(10, n), n_classes=2)
            model = fit_sem(d, 3, np.array([0, 1, 0]), SolverOptions(seed=trial))
            assert abs(model.weights.sum() - 1.0) < 1e-12
            assert np.all(model.weights >= 0)

    def test_em_objective_non_decreasing(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = 40
            x = rng.standard_normal((n, 2)) * rng.uniform(0.5, 3)
            labeled = np.arange(8)
            d = Dataset(features=x, labeled_idx=labeled, labels=np.array([0, 1] * 4),
                        unlabeled_idx=np.arange(8, n), n_classes=2)
            mode = ("original", "unbiased", "custom")[trial % 3]
            w = 0.37 if mode == "custom" else None
            model = fit_sem(d, 2, np.arange(2), SolverOptions(
                seed=trial, unlabeled_weight_mode=mode, custom_weight=w))
            trace = np.array(model.objective_trace)
            slack = 1e-8 * (1.0 + np.abs(trace[:-1]))
            assert np.all(np.diff(trace) >= -slack)


class TestLoglik:
    def test_labeled_only(self):
        rng = np.random.default_rng(4)
        d = all_labeled_dataset(rng.standard_normal((10, 1)), [0, 1] * 5)
        m = two_gaussian_model()
        want = float(np.sum(joint_log_density(m, d.features, d.labels)))
        assert loglik(m, d, 0.7) == pytest.approx(want, rel=1e-12)

    def test_point_at_component_mean(self):
        m = GmmModel(weights=[0.25, 0.75], means=[[1.0, 2.0], [5.0, 5.0]],
                     covariances=[[1.0, 1.0], [1.0, 1.0]], comp_map=[0, 1], n_classes=2)
        d = all_labeled_dataset(np.array([[1.0, 2.0], [5.0, 5.0]]), [0, 1])
        got = float(joint_log_density(m, d.features[:1], [0])[0])
        assert got == pytest.approx(np.log(0.25) - LOG_2PI, rel=1e-12)

    def test_trace_matches_post_hoc_evaluation(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 2))
        d = Dataset(features=x, labeled_idx=np.arange(10), labels=np.array([0, 1] * 5),
                    unlabeled_idx=np.arange(10, 30), n_classes=2)
        model = fit_sem(d, 2, np.arange(2), SolverOptions())
        assert model.objective_trace[-1] == pytest.approx(
            loglik(model, d, model.unlabeled_weight), rel=1e-12)

    def test_trace_equals_full_recompute_of_each_iterate(self):
        # the fit with max_iter=j stops at the j-th iterate of the full fit;
        # loglik recomputes that iterate's objective from scratch
        rng = np.random.default_rng(12)
        x = rng.standard_normal((60, 2)) * 2
        d = Dataset(features=x, labeled_idx=np.arange(10), labels=np.array([0, 1] * 5),
                    unlabeled_idx=np.arange(10, 60), n_classes=2)
        for mode, w in (("original", None), ("unbiased", None), ("custom", 0.0), ("custom", 0.4)):
            opts = SolverOptions(seed=2, unlabeled_weight_mode=mode, custom_weight=w)
            trace = fit_sem(d, 3, np.array([0, 1, 1]), opts).objective_trace
            assert len(trace) > 9
            for j in (1, 2, 3, 5, 8, len(trace) - 1):
                model = fit_sem(d, 3, np.array([0, 1, 1]), replace(opts, max_iter=j))
                assert model.objective_trace == trace[: j + 1]
                assert model.final_loglik == loglik(model, d, model.unlabeled_weight) == trace[j]

    def test_dimension_mismatch(self):
        d = all_labeled_dataset(np.zeros((4, 3)), [0, 1, 0, 1])
        with pytest.raises(InputError):
            loglik(two_gaussian_model(), d, 1.0)


class TestBayesClassify:
    def test_symmetric_components(self):
        m = two_gaussian_model()
        assert bayes_classify(m, np.array([-3.0])) == 0
        assert bayes_classify(m, np.array([3.0])) == 1

    def test_midpoint_tie_breaks_low(self):
        assert bayes_classify(two_gaussian_model(), np.array([0.0])) == 0

    def test_non_finite_rejected(self):
        with pytest.raises(InputError, match="non-finite"):
            predict(two_gaussian_model(), np.array([[np.nan]]), None, None)

    def test_matches_direct_density_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            m = random_model(rng)
            queries = rng.standard_normal((100, 2)) * 4
            got = bayes_classify_batch(m, queries)[0]
            dens = np.zeros((100, m.n_classes))
            for k in range(m.n_components):
                var = m.covariances[k]
                diff = queries - m.means[k]
                norm = np.prod(2 * np.pi * var) ** -0.5
                dens[:, m.comp_map[k]] += m.weights[k] * norm * np.exp(
                    -0.5 * np.sum(diff * diff / var, axis=1))
            np.testing.assert_array_equal(got, np.argmax(dens, axis=1))


class TestPosteriors:
    def test_symmetric_point(self):
        p = class_posteriors(two_gaussian_model(), np.array([0.0]))
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)

    def test_deep_in_basin(self):
        p = class_posteriors(two_gaussian_model(), np.array([-4.0]))
        assert p[0] > 0.99

    def test_sums_to_one_and_argmax_consistent(self):
        rng = np.random.default_rng(7)
        m = random_model(rng)
        queries = rng.standard_normal((1000, 2)) * 5
        labels, p = bayes_classify_batch(m, queries)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(np.argmax(p, axis=1), labels)

    def test_batch_equals_single_query_oracles(self):
        rng = np.random.default_rng(11)
        for n_classes in (2, 3):
            m = random_model(rng, k=5, dim=3, n_classes=n_classes)
            queries = rng.standard_normal((50, 3)) * 4
            labels, p = bayes_classify_batch(m, queries)
            assert labels.tolist() == [bayes_classify(m, q) for q in queries]
            assert np.array_equal(p, np.stack([class_posteriors(m, q) for q in queries]))


class TestKlMc:
    def test_same_model_exactly_zero(self):
        m = two_gaussian_model()
        est = kl_mc(m, m, 1000, seed=0)
        assert est.value == 0.0
        assert est.raw_mean == 0.0
        assert est.std_error == 0.0

    def test_shifted_gaussians_give_half(self):
        base = dict(weights=[1.0], comp_map=[0, ], n_classes=2, covariances=[[1.0]])
        m1 = GmmModel(means=[[0.0]], **base)
        m2 = GmmModel(means=[[1.0]], **base)
        est = kl_mc(m1, m2, 100_000, seed=1)
        assert abs(est.value - 0.5) < 3 * est.std_error

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        m1, m2 = random_model(rng), random_model(rng)
        a = kl_mc(m1, m2, 5000, seed=42)
        b = kl_mc(m1, m2, 5000, seed=42)
        assert a == b

    def test_nonnegative_asymptotically(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m1, m2 = random_model(rng), random_model(rng)
            est = kl_mc(m1, m2, 20_000, seed=int(rng.integers(2**31)))
            assert est.raw_mean >= -3 * est.std_error
            assert est.value >= 0.0

    def test_sample_count_checked(self):
        m = two_gaussian_model()
        with pytest.raises(InputError):
            kl_mc(m, m, 0, seed=0)
