import sys
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from misspec_ssl import semgmm
from misspec_ssl.core import UNLABELED, Dataset, InputError, SolverOptions, derive_seed
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
    x, mask = semgmm._objective_rows(d, m.comp_map, w)
    return semgmm._objective(semgmm._masked_log_joint(m, x, mask)[1], d.n_labeled, w)


def component_log_joint_oracle(m, x):
    """semgmm._component_log_joint as it was before the column folds: one
    numpy row reduction over the d features per component."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    out = np.empty((n, m.n_components))
    for k in range(m.n_components):
        var = m.covariances[k]
        diff = x - m.means[k]
        out[:, k] = -0.5 * (d * LOG_2PI + np.sum(np.log(var)) + np.sum(diff * diff / var, axis=1))
    with np.errstate(divide="ignore"):
        return out + np.log(m.weights)[None, :]


def logsumexp_oracle(a, axis=-1):
    """semgmm._logsumexp as it was before the column folds."""
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out


def joint_log_density_oracle(m, x, y):
    """joint_log_density as it was before per-class scoring: every row
    scored against every component, masked to -inf outside its class."""
    y = np.atleast_1d(y)
    mask = m.comp_map[None, :] == y[:, None]
    with np.errstate(divide="ignore"):  # log(0) of a row that is all -inf
        return logsumexp_oracle(np.where(mask, component_log_joint_oracle(m, x), -np.inf))


def bayes_classify_batch_oracle(m, x):
    """bayes_classify_batch as it was before the column folds."""
    logj = class_log_joint(m, x)
    p = np.exp(logj - np.max(logj, axis=1, keepdims=True))
    return np.argmax(logj, axis=1), p / p.sum(axis=1, keepdims=True)


def fit_sem_oracle(d, k, comp_map, opts):
    """fit_sem's EM loop as it was before the column-at-a-time operations,
    verbatim but for its argument checks, with logsumexp_oracle for the
    log-normalizers: a full (N, K) mask applied with np.where, the E-step
    shift, the row weights and x - mu by broadcast, and the component masses
    from wr.sum(axis=0)."""
    def objective_rows(w):
        x = [d.features[d.labeled_idx]]
        mask = [comp_map[None, :] == d.labels[:, None]]
        alpha = [np.ones(d.n_labeled)]
        if d.n_unlabeled and w != 0.0:
            x.append(d.features[d.unlabeled_idx])
            mask.append(np.ones((d.n_unlabeled, comp_map.size), dtype=bool))
            alpha.append(np.full(d.n_unlabeled, w))
        return np.concatenate(x), np.concatenate(mask), np.concatenate(alpha)

    def masked_log_joint(m, x, mask):
        log_r = np.where(mask, semgmm._component_log_joint(m, x), -np.inf)
        with np.errstate(divide="ignore"):  # log(0) of a row that is all -inf
            return log_r, logsumexp_oracle(log_r)

    w = opts.resolve_unlabeled_weight(d.n_labeled, d.n_unlabeled)
    floor = semgmm._variance_floor(d.features)
    model = semgmm._init_model(d, k, comp_map, floor, opts.seed)
    x, mask, alpha = objective_rows(w)

    log_r, norm = masked_log_joint(model, x, mask)
    objective = semgmm._objective(norm, d.n_labeled, w)
    trace = [objective]
    for _ in range(opts.max_iter):
        with np.errstate(invalid="ignore"):
            resp = np.exp(log_r - norm[:, None])
        bad = ~np.isfinite(norm)
        if np.any(bad):
            resp[bad] = mask[bad] / mask[bad].sum(axis=1, keepdims=True)

        wr = resp * alpha[:, None]
        mass = wr.sum(axis=0)
        means = model.means.copy()
        variances = model.covariances.copy()
        for comp in range(k):
            if mass[comp] <= 1e-12:
                continue
            mu = wr[:, comp] @ x / mass[comp]
            diff = x - mu
            means[comp] = mu
            variances[comp] = np.maximum(wr[:, comp] @ (diff * diff) / mass[comp], floor)
        model = replace(model, weights=mass / mass.sum(), means=means, covariances=variances)

        log_r, norm = masked_log_joint(model, x, mask)
        new_objective = semgmm._objective(norm, d.n_labeled, w)
        trace.append(new_objective)
        delta = new_objective - objective
        objective = new_objective
        if delta < opts.tol:
            break

    return replace(
        model, unlabeled_weight=w, final_loglik=objective, objective_trace=tuple(trace)
    )


def bits(value):
    """The exact bytes of a result: every float compared bit for bit, the
    sign of a zero and the payload of a NaN included."""
    if isinstance(value, GmmModel):
        return (bits(value.weights), bits(value.means), bits(value.covariances),
                bits(value.comp_map), bits(np.array(value.objective_trace)),
                bits(np.array([value.final_loglik, value.unlabeled_weight])))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, semgmm.KlEstimate):
        return (bits(np.array([value.value, value.std_error, value.raw_mean])),
                value.n_samples, value.seed)
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


@pytest.fixture()
def with_oracle(monkeypatch):
    """Calls a function once on semgmm's column folds and once with the
    oracle's numpy row reductions, masked joint densities and a kl_mc in one
    block patched in; returns both results."""
    def both(fn):
        fast = fn()
        with monkeypatch.context() as patch:
            patch.setattr(semgmm, "_component_log_joint", component_log_joint_oracle)
            patch.setattr(semgmm, "_logsumexp", logsumexp_oracle)
            patch.setattr(semgmm, "bayes_classify_batch", bayes_classify_batch_oracle)
            patch.setattr(semgmm, "joint_log_density", joint_log_density_oracle)
            patch.setattr(semgmm, "KL_BLOCK", sys.maxsize)
            # the oracle warns on log(0) of a row whose allowed components
            # are all -inf, where semgmm does not
            with np.errstate(divide="ignore"):
                slow = fn()
        return fast, slow
    return both


def all_labeled_dataset(x, labels, n_classes=2):
    return Dataset(features=x, row_labels=labels, n_classes=n_classes)


def leading_labeled_dataset(x, labels, n_classes=2):
    """The first len(labels) rows carry ``labels``; the rest are unlabeled."""
    row_labels = np.full(len(x), UNLABELED)
    row_labels[: len(labels)] = labels
    return Dataset(features=x, row_labels=row_labels, n_classes=n_classes)


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


# Component maps that a cast would turn into [0, 1]
NOT_INTEGER_IDS = [[0.0, 1.0], [0.4, 1.6], [False, True]]
NOT_INTEGER_IDS_KINDS = ["whole_floats", "fractions", "booleans"]


class TestFitSem:
    def test_supervised_means_equal_class_means(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 2))
        labels = np.repeat([0, 1], 20)
        d = all_labeled_dataset(x, labels)
        opts = SolverOptions(unlabeled_weight_mode=0.0)
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

    @pytest.mark.parametrize("comp_map", NOT_INTEGER_IDS, ids=NOT_INTEGER_IDS_KINDS)
    def test_comp_map_that_is_not_integer_rejected(self, comp_map):
        d = all_labeled_dataset(np.arange(4.0).reshape(4, 1), [0, 1, 0, 1])
        with pytest.raises(InputError, match="comp_map must hold integers only"):
            fit_sem(d, 2, np.array(comp_map), SolverOptions())

    @pytest.mark.parametrize("comp_map", NOT_INTEGER_IDS, ids=NOT_INTEGER_IDS_KINDS)
    def test_model_comp_map_that_is_not_integer_rejected(self, comp_map):
        with pytest.raises(InputError, match="comp_map must hold integers only"):
            GmmModel(weights=[0.5, 0.5], means=[[0.0], [1.0]], covariances=[[1.0], [1.0]],
                     comp_map=comp_map, n_classes=2)

    def test_comp_map_must_cover_classes(self):
        d = all_labeled_dataset(np.zeros((4, 1)), [0, 1, 0, 1])
        with pytest.raises(InputError):
            fit_sem(d, 2, np.array([0, 0]), SolverOptions())

    def test_comp_map_of_another_size_rejected(self):
        d = all_labeled_dataset(np.zeros((4, 1)), [0, 1, 0, 1])
        with pytest.raises(InputError, match="comp_map covers 2 components, expected 3"):
            fit_sem(d, 3, np.array([0, 1]), SolverOptions())

    def test_mixing_weights_remain_probability_vector(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = 30
            x = rng.standard_normal((n, 2)) * 2
            d = leading_labeled_dataset(x, [0, 1] * 5)
            model = fit_sem(d, 3, np.array([0, 1, 0]), SolverOptions(seed=trial))
            assert abs(model.weights.sum() - 1.0) < 1e-12
            assert np.all(model.weights >= 0)

    def test_em_objective_non_decreasing(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = 40
            x = rng.standard_normal((n, 2)) * rng.uniform(0.5, 3)
            d = leading_labeled_dataset(x, [0, 1] * 4)
            mode = ("original", "unbiased", 0.37)[trial % 3]
            opts = SolverOptions(seed=trial, unlabeled_weight_mode=mode)
            model = fit_sem(d, 2, np.arange(2), opts)
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

    @pytest.mark.parametrize("y", [[0.9, 1.2], [0.0, 1.0], [False, True]],
                             ids=["fractions", "whole_floats", "booleans"])
    def test_classes_that_are_not_integers_rejected(self, y):
        with pytest.raises(InputError, match="y must hold integers only"):
            joint_log_density(two_gaussian_model(), np.zeros((2, 1)), y)

    def test_trace_matches_post_hoc_evaluation(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 2))
        d = leading_labeled_dataset(x, [0, 1] * 5)
        model = fit_sem(d, 2, np.arange(2), SolverOptions())
        assert model.objective_trace[-1] == pytest.approx(
            loglik(model, d, model.unlabeled_weight), rel=1e-12)

    def test_trace_equals_full_recompute_of_each_iterate(self):
        # the fit with max_iter=j stops at the j-th iterate of the full fit;
        # loglik recomputes that iterate's objective from scratch
        rng = np.random.default_rng(12)
        x = rng.standard_normal((60, 2)) * 2
        d = leading_labeled_dataset(x, [0, 1] * 5)
        for mode in ("original", "unbiased", 0.0, 0.4):
            opts = SolverOptions(seed=2, unlabeled_weight_mode=mode)
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

    @pytest.mark.parametrize("var", [1e-12, 1.0, 1e300])
    def test_features_at_the_bound_score_beyond_it_rejected(self, var):
        # |x - mu| within 0.5 * sqrt(float64 max * min(1, var / d)) scores
        # with finite posteriors and no RuntimeWarning (an error in this
        # suite); past that bound, less max|mu|, the query is an InputError
        limit = 0.5 * np.sqrt(np.finfo(float).max * min(1.0, var))
        m = two_gaussian_model(mu1=limit / 4, var=var)
        bound = limit - limit / 4
        _, post = bayes_classify_batch(m, np.array([[0.999 * bound], [-0.999 * bound], [0.0]]))
        assert np.all(np.isfinite(post))
        with pytest.raises(InputError, match="exceeds"):
            bayes_classify_batch(m, np.array([[0.0], [-1.001 * bound]]))

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

    def test_working_memory_is_a_block_of_samples(self):
        # at 200,000 samples, whole-array scoring traced 18.7 MiB; what is
        # left is the samples, their classes and terms, about 6 MiB
        rng = np.random.default_rng(10)
        m1, m2 = random_model(rng, k=2), random_model(rng, k=2)
        tracemalloc.start()
        try:
            kl_mc(m1, m2, 200_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20

    def test_sample_count_checked(self):
        m = two_gaussian_model()
        with pytest.raises(InputError):
            kl_mc(m, m, 0, seed=0)

    @pytest.mark.parametrize("dim, n_classes", [(2, 2), (1, 3)])
    def test_models_of_another_dimension_or_class_set_rejected(self, dim, n_classes):
        other = random_model(np.random.default_rng(0), dim=dim, n_classes=n_classes)
        with pytest.raises(InputError, match="models must share dimension and class set"):
            kl_mc(two_gaussian_model(), other, 10, seed=0)

    @pytest.mark.parametrize("k", [2, 3, 8, 9])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 9])
    def test_equals_per_sample_square_root_oracle(self, monkeypatch, k, dim):
        # the oracle draws with one square root per sample and scores every
        # sample at once against every component, masked to its class
        def sample_joint_oracle(m, n, rng):
            comps = rng.choice(m.n_components, size=n, p=m.weights / m.weights.sum())
            noise = rng.standard_normal((n, m.dim)) * np.sqrt(m.covariances[comps])
            return m.means[comps] + noise, m.comp_map[comps]

        rng = np.random.default_rng(k * 10 + dim)
        m1, m2 = random_model(rng, k, dim), random_model(rng, k, dim)
        block = semgmm.KL_BLOCK
        for n in (1, 7, block - 1, block, block + 1, 2 * block + 1, 50_000):
            fast = kl_mc(m1, m2, n, seed=n)
            with monkeypatch.context() as patch:
                patch.setattr(semgmm, "sample_joint", sample_joint_oracle)
                patch.setattr(semgmm, "joint_log_density", joint_log_density_oracle)
                patch.setattr(semgmm, "KL_BLOCK", sys.maxsize)
                slow = kl_mc(m1, m2, n, seed=n)
            assert bits(fast) == bits(slow)
            x, y = semgmm.sample_joint(m1, n, np.random.default_rng(n))
            want_x, want_y = sample_joint_oracle(m1, n, np.random.default_rng(n))
            assert bits(x) == bits(want_x) and bits(y) == bits(want_y)


# Widths on both sides of numpy's switch from left-to-right to pairwise
# summation at 8 columns.
WIDTHS = (1, 2, 3, 7, 8, 9)


class TestColumnFoldsEqualOracle:
    @pytest.mark.parametrize("width", range(1, 18))
    def test_row_sum_equals_numpy_row_sum(self, width):
        rng = np.random.default_rng(width)
        a = rng.standard_normal((40, width)) * 10.0 ** rng.integers(-8, 9, size=(40, width))
        a[0] = 0.0
        a[1] = -0.0
        a[2, ::2] = -0.0
        a[3, 0] = np.inf
        a[4, -1] = -np.inf
        a[5] = np.inf
        a[5, ::2] = -np.inf
        a[6, width // 2] = np.nan
        a[7] = -np.inf
        with np.errstate(invalid="ignore"):
            assert bits(semgmm._row_sum(a)) == bits(np.sum(a, axis=1))

    @pytest.mark.parametrize("n", [40, 8191, 8193, 20020])
    @pytest.mark.parametrize("width", [1, 2, 3, 8, 9])
    def test_col_sum_equals_numpy_col_sum(self, n, width):
        # numpy adds the columns of an (N, K >= 2) array top to bottom from
        # 0.0, as _col_sum does; a lone column is contiguous, and numpy sums
        # it pairwise, which _col_sum does not
        rng = np.random.default_rng(n + width)
        a = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-8, 9, size=(n, width))
        signed_zeros = np.zeros(n)
        signed_zeros[::2] = -0.0
        inf_late = a[:, -1].copy()
        inf_late[-1] = np.inf
        infs = a[:, -1].copy()
        infs[n // 3] = np.inf
        infs[n // 2] = -np.inf
        nan = a[:, -1].copy()
        nan[n // 2] = np.nan
        lasts = [a[:, -1], np.zeros(n), np.full(n, -0.0), signed_zeros, -signed_zeros,
                 inf_late, -inf_late, infs, nan]
        for last in lasts:
            b = a.copy()
            b[:, -1] = last
            with np.errstate(invalid="ignore"):
                got = semgmm._col_sum(b)
                if width >= 2:
                    assert bits(got) == bits(np.sum(b, axis=0))
                else:
                    total = 0.0
                    for v in b[:, 0].tolist():
                        total += v
                    assert bits(got) == bits(np.array([total]))
        if width == 1:
            assert bits(semgmm._col_sum(a)) != bits(np.sum(a, axis=0))

    @pytest.mark.parametrize("n", [1, 2, 40, 8193, 20020])
    @pytest.mark.parametrize("width", [1, 2, 3, 8, 9])
    def test_col_var_equals_numpy_var(self, n, width):
        rng = np.random.default_rng(n + width)
        for scale in (1e-8, 1.0, 1e8):
            a = rng.standard_normal((n, width)) * scale * 10.0 ** rng.integers(-3, 4, size=width)
            a += 10 * scale * rng.standard_normal(width)
            # a Fortran-ordered copy, as a Dataset keeps features given so,
            # and a strided view: numpy may sum their columns pairwise
            for b in (a, np.asfortranarray(a), np.repeat(a, 2, axis=1)[:, ::2]):
                assert bits(semgmm._col_var(b)) == bits(np.var(b, axis=0))
                assert semgmm._variance_floor(b) == max(
                    semgmm.VARIANCE_FLOOR_SCALE * float(np.mean(np.var(b, axis=0))), 1e-12)

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("k", WIDTHS)
    def test_joint_log_density_equals_masked_oracle(self, n_classes, k):
        # rows of every class, of no class (-1 and n_classes) and none of
        # the last class; classes with no component (K < n_classes), one and
        # several; a dead component and a class whose components are all dead
        rng = np.random.default_rng(10 * k + n_classes)
        comp_map = np.arange(k) % n_classes
        w = rng.uniform(0.2, 1.0, size=k)
        m = GmmModel(weights=w / w.sum(), means=rng.standard_normal((k, 3)) * 3,
                     covariances=rng.uniform(0.5, 2.0, size=(k, 3)), comp_map=comp_map,
                     n_classes=n_classes)
        x = rng.standard_normal((300, 3)) * 4
        y = rng.integers(-1, n_classes + 1, size=300)
        for dead in ([], [0], np.flatnonzero(comp_map == 1).tolist()):
            weights = m.weights.copy()
            weights[dead] = 0.0
            dm = replace(m, weights=weights)
            for ys in (y, np.minimum(y, n_classes - 2), y[:1]):
                got = joint_log_density(dm, x[: ys.size], ys)
                assert bits(got) == bits(joint_log_density_oracle(dm, x[: ys.size], ys))
        with pytest.raises(InputError, match="x holds 300 rows but y 299 classes"):
            joint_log_density(m, x, y[:-1])

    @pytest.mark.parametrize("width", range(1, 18))
    def test_row_max_equals_numpy_row_max(self, width):
        rng = np.random.default_rng(width)
        a = rng.standard_normal((40, width))
        a[0] = -np.inf
        a[1, -1] = np.inf
        a[2, width // 2] = np.nan
        assert np.array_equal(semgmm._row_max(a), np.max(a, axis=1), equal_nan=True)

    @pytest.mark.parametrize("dim", WIDTHS)
    @pytest.mark.parametrize("k", WIDTHS[1:])  # K >= C = 2
    def test_fit_sem(self, with_oracle, dim, k):
        spec = GenSpec(kind="misspecified", subclusters_per_class=2, dim=dim,
                       class_separation=5.0, n_labeled_per_class=5, n_unlabeled=60,
                       seed=derive_seed(13, dim, k))
        d, _ = generate(spec)
        comp_map = np.arange(k) % 2
        iterations = []
        for mode in ("original", "unbiased", 0.0, 0.3):
            opts = SolverOptions(seed=k, unlabeled_weight_mode=mode)
            fast, slow = with_oracle(lambda: fit_sem(d, k, comp_map, opts))
            assert bits(fast) == bits(slow) == bits(fit_sem_oracle(d, k, comp_map, opts))
            iterations.append(len(fast.objective_trace) - 1)
        assert max(iterations) > 3

    @pytest.mark.parametrize("dim", WIDTHS)
    @pytest.mark.parametrize("k", WIDTHS)
    def test_scoring_and_kl(self, with_oracle, dim, k):
        # with K = 1, class 1 has no component, with K = 2 each class has
        # one, and from K = 3 on class 0 has several; zeroing the weights of
        # class 1's components makes every row of class 1 all -inf, and
        # zeroing component 2 leaves class 0 a dead component beside live
        # ones. kl_mc runs at sample counts around its block size.
        rng = np.random.default_rng(100 * dim + k)
        comp_map = np.arange(k) % 2
        models = []
        for _ in range(2):
            w = rng.uniform(0.2, 1.0, size=k)
            models.append(GmmModel(weights=w / w.sum(), means=rng.standard_normal((k, dim)) * 3,
                                   covariances=rng.uniform(0.5, 2.0, size=(k, dim)),
                                   comp_map=comp_map, n_classes=2))
        dead = [replace(models[0], weights=np.where(zero, 0.0, models[0].weights))
                for zero in (comp_map == 1, np.arange(k) == 2)]
        queries = rng.standard_normal((200, dim)) * 4
        classes = np.arange(200) % 2
        block = semgmm.KL_BLOCK
        for m in (models[0], *dead[: 1 + (k >= 3)]):
            fast, slow = with_oracle(lambda: (
                semgmm.bayes_classify_batch(m, queries),
                semgmm.joint_log_density(m, queries, classes),
                tuple(kl_mc(m, models[1], n, seed=k)
                      for n in (1, block - 1, block, block + 1, 2 * block + 1)),
            ))
            assert bits(fast) == bits(slow)


class TestFitSemEqualsWholeLoopOracle:
    @pytest.mark.parametrize("kind", ["well_specified", "misspecified"])
    def test_bench_scenarios(self, kind):
        # the sem_gap scenarios of bench/workloads.py at N_u = 20,000
        spec = {"well_specified": GenSpec(kind="well_specified", class_separation=6.0),
                "misspecified": GenSpec(kind="misspecified", subclusters_per_class=2,
                                        class_separation=5.0, subcluster_separation=8.0)}[kind]
        d, _ = generate(replace(spec, n_unlabeled=20_000, seed=derive_seed(14, kind)))
        for mode in ("original", "unbiased"):
            opts = SolverOptions(seed=14, unlabeled_weight_mode=mode)
            fast = fit_sem(d, 2, np.arange(2), opts)
            assert bits(fast) == bits(fit_sem_oracle(d, 2, np.arange(2), opts))
            assert len(fast.objective_trace) > 3

    @pytest.mark.parametrize("dead", [[2], [1]])
    def test_dead_components(self, monkeypatch, dead):
        # Zero initial weights: with comp_map [0, 1, 1], component 2 has no
        # mass in any step (mass <= 1e-12, its update skipped); zeroing
        # component 1 too leaves class 1 no component, so every labeled row
        # of class 1 is all -inf (the uniform fallback) in the first E-step.
        init = semgmm._init_model

        def zeroed(*args):
            m = init(*args)
            weights = m.weights.copy()
            weights[[*dead, 2]] = 0.0
            return replace(m, weights=weights)

        monkeypatch.setattr(semgmm, "_init_model", zeroed)
        spec = GenSpec(kind="misspecified", subclusters_per_class=2, dim=3, class_separation=5.0,
                       n_labeled_per_class=5, n_unlabeled=200, seed=derive_seed(14, "dead"))
        d, _ = generate(spec)
        comp_map = np.array([0, 1, 1])
        for mode in ("original", "unbiased", 0.0, 0.3):
            opts = SolverOptions(seed=3, unlabeled_weight_mode=mode)
            fast = fit_sem(d, 3, comp_map, opts)
            assert bits(fast) == bits(fit_sem_oracle(d, 3, comp_map, opts))
            assert len(fast.objective_trace) > 2
            if dead == [2]:
                assert fast.weights[2] == 0.0
            else:
                assert fast.objective_trace[0] == -np.inf
