"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. The qualitative scenario claims are checked over 20 seeds each; base
seeds are fixed so every number here is reproducible.

Criterion 1's second clause (the fitted-pair KL gap shrinking between
N_u=50 and N_u=2000) is expected to fail: with the labeled count pinned at
20, the unbiased fit's effective sample size saturates at 2*N_l, so the
measured gap rises toward an estimation-noise floor of roughly
p/(4*N_l) ~ 0.05 nats instead of vanishing. The assertion is kept as stated
rather than loosened; the printed line reports the measured medians.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from misspec_ssl.askkm import AskkmOptions, fit_askkm
from misspec_ssl.cli import main as cli_main
from misspec_ssl.core import Dataset, SolverOptions, derive_seed
from misspec_ssl.datagen import GenSpec, generate, sample_eval_set
from misspec_ssl.evalx import average_precision, predict
from misspec_ssl.kernels import KernelSpec, cross_matrix, gram_matrix, kernel_diag
from misspec_ssl.misspec import LabelMap
from misspec_ssl.semgmm import GmmModel, bayes_classify_batch, fit_sem, kl_mc
from misspec_ssl.sskkm import fit_sskkm, init_assignments, score_batch

BASE_SEED = 2026
N_SEEDS = 20

WELL_SPECIFIED = GenSpec(
    kind="well_specified", n_classes=2, dim=2, subclusters_per_class=1,
    class_separation=6.0, n_labeled_per_class=10,
)
MISSPECIFIED = GenSpec(
    kind="misspecified", n_classes=2, dim=2, subclusters_per_class=2,
    class_separation=5.0, subcluster_separation=8.0, n_labeled_per_class=10,
)


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def sem_fit(train, mode, seed):
    if mode == "supervised":
        opts = SolverOptions(seed=seed, unlabeled_weight_mode="custom", custom_weight=0.0)
    else:
        opts = SolverOptions(seed=seed, unlabeled_weight_mode=mode)
    return fit_sem(train, train.n_classes, np.arange(train.n_classes), opts)


def sem_accuracy(train, test_x, test_y, mode, seed):
    model = sem_fit(train, mode, seed)
    return float(np.mean(bayes_classify_batch(model, test_x)[0] == test_y))


class TestCriterion1VanishingGap:
    def test_gap_small_and_shrinking(self):
        gaps = {50: [], 2000: []}
        for si in range(N_SEEDS):
            seed = derive_seed(BASE_SEED, "gap", si)
            for nu in (50, 2000):
                train, _ = generate(replace(WELL_SPECIFIED, n_unlabeled=nu, seed=seed))
                original = sem_fit(train, "original", si)
                unbiased = sem_fit(train, "unbiased", si)
                est = kl_mc(original, unbiased, 50_000, derive_seed(BASE_SEED, "kl", si, nu))
                gaps[nu].append(est.value)
        med_small, med_large = np.median(gaps[50]), np.median(gaps[2000])
        ok = med_large < 0.05 and med_large < med_small
        report(
            "1 (vanishing KL gap)", ok,
            f"median gap N_u=50: {med_small:.4f}, N_u=2000: {med_large:.4f}; "
            f"need < 0.05 and < the N_u=50 median",
        )
        assert med_large < 0.05, f"median gap at N_u=2000 is {med_large:.4f} nats"
        assert med_large < med_small, (
            f"gap did not shrink: {med_large:.4f} at N_u=2000 vs {med_small:.4f} at N_u=50"
        )


class TestCriterion2DegradationShape:
    def test_degradation_and_recovery(self):
        sem_degraded = 0
        unbiased_delta = []
        askkm_at_least = 0
        grew = 0
        for si in range(N_SEEDS):
            seed = derive_seed(BASE_SEED, "deg", si)
            train0, _ = generate(replace(MISSPECIFIED, n_unlabeled=0, seed=seed))
            train1, _ = generate(replace(MISSPECIFIED, n_unlabeled=1000, seed=seed))
            test_x, test_y = sample_eval_set(
                replace(MISSPECIFIED, seed=seed), 500, derive_seed(BASE_SEED, "deg-eval", si)
            )
            a0 = sem_accuracy(train0, test_x, test_y, "original", si)
            a1 = sem_accuracy(train1, test_x, test_y, "original", si)
            u0 = sem_accuracy(train0, test_x, test_y, "unbiased", si)
            u1 = sem_accuracy(train1, test_x, test_y, "unbiased", si)
            sem_degraded += a1 < a0
            unbiased_delta.append(u1 - u0)

            km = gram_matrix(train1, KernelSpec())
            rows = cross_matrix(test_x, train1.features, km.spec)
            diag = kernel_diag(test_x, km.spec)
            base = fit_sskkm(
                km, train1, LabelMap.identity(train1.labels, 2), 2, SolverOptions(seed=si)
            )
            base_acc = float(np.mean(score_batch(base, rows, diag)[0] == test_y))
            adaptive = fit_askkm(km, train1, AskkmOptions(solver=SolverOptions(seed=si)))
            preds, _ = predict(adaptive, test_x, rows, diag)
            askkm_at_least += float(np.mean(preds == test_y)) >= base_acc
            grew += adaptive.n_clusters > 2

        med_delta = float(np.median(unbiased_delta))
        ok = (
            sem_degraded >= 12
            and abs(med_delta) <= 0.05
            and askkm_at_least >= 16
            and grew >= 16
        )
        report(
            "2 (degradation shape)", ok,
            f"original-SEM degraded {sem_degraded}/20 (need >=12); "
            f"unbiased median delta {med_delta:+.4f} (need within +-0.05); "
            f"ASKKM >= original-SSKKM {askkm_at_least}/20 (need >=16); "
            f"K grew {grew}/20 (need >=16)",
        )
        assert sem_degraded >= 12
        assert abs(med_delta) <= 0.05
        assert askkm_at_least >= 16
        assert grew >= 16


class TestCriterion3CriterionSoundness:
    def round_one_report(self, scenario, si):
        seed = derive_seed(BASE_SEED, "crit", scenario.kind, si)
        train, _ = generate(replace(scenario, n_unlabeled=1000, seed=seed))
        km = gram_matrix(train, KernelSpec())
        model = fit_askkm(km, train, AskkmOptions(solver=SolverOptions(seed=si)))
        return model.history[0].report

    def test_quiet_on_well_specified_loud_on_misspecified(self):
        quiet = sum(
            not self.round_one_report(WELL_SPECIFIED, si).misspecified
            for si in range(N_SEEDS)
        )
        loud = sum(
            self.round_one_report(MISSPECIFIED, si).misspecified for si in range(N_SEEDS)
        )
        ok = quiet >= 18 and loud >= 16
        report(
            "3 (criterion soundness)", ok,
            f"quiet on well-specified {quiet}/20 (need >=18); "
            f"fired on misspecified {loud}/20 (need >=16)",
        )
        assert quiet >= 18
        assert loud >= 16


def random_ssl_dataset(rng, n_max=60):
    n_classes = int(rng.integers(2, 4))
    per_class = int(rng.integers(2, 5))
    n = int(rng.integers(n_classes * per_class + 2, n_max))
    x = rng.standard_normal((n, int(rng.integers(1, 4)))) * rng.uniform(0.5, 4.0)
    labeled = np.arange(n_classes * per_class)
    return Dataset(
        features=x,
        labeled_idx=labeled,
        labels=np.repeat(np.arange(n_classes), per_class),
        unlabeled_idx=np.arange(labeled.size, n),
        n_classes=n_classes,
    )


class TestCriterion4SolverOracles:
    def test_em_monotone(self):
        rng = np.random.default_rng(derive_seed(BASE_SEED, "em-mono"))
        for trial in range(100):
            d = random_ssl_dataset(rng)
            mode = ("original", "unbiased", "custom")[trial % 3]
            w = float(rng.uniform(0, 1)) if mode == "custom" else None
            model = fit_sem(
                d, d.n_classes, np.arange(d.n_classes),
                SolverOptions(seed=trial, unlabeled_weight_mode=mode, custom_weight=w),
            )
            trace = np.array(model.objective_trace)
            slack = 1e-8 * (1.0 + np.abs(trace[:-1]))
            assert np.all(np.diff(trace) >= -slack), f"EM objective decreased (trial {trial})"
        report("4a (EM monotonicity)", True, "100/100 random fits non-decreasing")

    def test_kkm_monotone(self):
        rng = np.random.default_rng(derive_seed(BASE_SEED, "kkm-mono"))
        for trial in range(100):
            d = random_ssl_dataset(rng)
            spec = (KernelSpec(kind="linear"), KernelSpec(kind="rbf", gamma=None))[trial % 2]
            km = gram_matrix(d, spec)
            mode = ("original", "unbiased")[trial % 2]
            model = fit_sskkm(
                km, d, LabelMap.identity(d.labels, d.n_classes), d.n_classes,
                SolverOptions(seed=trial, unlabeled_weight_mode=mode),
            )
            trace = np.array(model.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9), f"objective increased (trial {trial})"
        report("4b (kernel k-means monotonicity)", True, "100/100 random fits non-increasing")

    def test_linear_kernel_matches_lloyd(self):
        rng = np.random.default_rng(derive_seed(BASE_SEED, "lloyd"))
        for trial in range(20):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(k + 3, 51))
            x = rng.standard_normal((n, int(rng.integers(1, 4)))) * 3
            d = Dataset(
                features=x, labeled_idx=np.arange(k), labels=np.arange(k),
                unlabeled_idx=np.arange(k, n), n_classes=k,
            )
            km = gram_matrix(d, KernelSpec(kind="linear"))
            lm = LabelMap.identity(d.labels, k)
            init = init_assignments(km, d, lm, k)
            model = fit_sskkm(km, d, lm, k, SolverOptions(seed=trial), init=init)

            z = init.cluster_of.copy()
            free = np.arange(k, n)
            for _ in range(300):
                centroids = np.stack([x[z == c].mean(axis=0) for c in range(k)])
                d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
                new_z = z.copy()
                new_z[free] = np.argmin(d2[free], axis=1)
                if np.array_equal(new_z, z):
                    break
                z = new_z
            assert np.array_equal(model.assignments.cluster_of, z), f"trial {trial}"
        report("4c (Lloyd oracle)", True, "20/20 fixed points match in feature space")

    def test_no_unlabeled_weight_modes_bit_identical(self):
        rng = np.random.default_rng(derive_seed(BASE_SEED, "nu0"))
        x = rng.standard_normal((24, 2))
        d = Dataset(features=x, labeled_idx=np.arange(24), labels=np.array([0, 1] * 12),
                    unlabeled_idx=np.array([], dtype=int), n_classes=2)
        sems = [
            fit_sem(d, 2, np.arange(2), SolverOptions(unlabeled_weight_mode=m))
            for m in ("original", "unbiased")
        ]
        assert np.array_equal(sems[0].means, sems[1].means)
        assert np.array_equal(sems[0].covariances, sems[1].covariances)
        assert np.array_equal(sems[0].weights, sems[1].weights)
        assert sems[0].final_loglik == sems[1].final_loglik
        km = gram_matrix(d, KernelSpec())
        lm = LabelMap.identity(d.labels, 2)
        kkms = [
            fit_sskkm(km, d, lm, 2, SolverOptions(unlabeled_weight_mode=m))
            for m in ("original", "unbiased")
        ]
        assert np.array_equal(kkms[0].assignments.cluster_of, kkms[1].assignments.cluster_of)
        assert kkms[0].objective == kkms[1].objective
        assert kkms[0].objective_trace == kkms[1].objective_trace
        report("4d (N_u=0 equivalence)", True, "original == unbiased bit-for-bit, both families")


def random_gmm(rng, dim=2, n_classes=2):
    k = int(rng.integers(n_classes, n_classes + 3))
    w = rng.uniform(0.2, 1.0, size=k)
    comp_map = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, k - n_classes)])
    return GmmModel(
        weights=w / w.sum(),
        means=rng.standard_normal((k, dim)) * 2.5,
        covariances=rng.uniform(0.4, 2.5, size=(k, dim)),
        comp_map=comp_map,
        n_classes=n_classes,
    )


class TestCriterion5KlEstimator:
    def test_kl_oracles(self):
        m = random_gmm(np.random.default_rng(derive_seed(BASE_SEED, "kl-same")))
        same = kl_mc(m, m, 10_000, seed=1)
        assert same.value == 0.0 and same.raw_mean == 0.0

        base = dict(weights=[1.0], comp_map=[0], n_classes=2, covariances=[[1.0]])
        est = kl_mc(
            GmmModel(means=[[0.0]], **base), GmmModel(means=[[1.0]], **base),
            100_000, seed=derive_seed(BASE_SEED, "kl-half"),
        )
        gaussian_ok = abs(est.value - 0.5) < 3 * est.std_error

        rng = np.random.default_rng(derive_seed(BASE_SEED, "kl-pairs"))
        nonneg = 0
        for _ in range(50):
            m1, m2 = random_gmm(rng), random_gmm(rng)
            pair = kl_mc(m1, m2, 100_000, seed=int(rng.integers(2**31)))
            nonneg += pair.raw_mean >= -3 * pair.std_error
        ok = gaussian_ok and nonneg == 50
        report(
            "5 (KL estimator)", ok,
            f"identical models give 0 exactly; N(0,1)||N(1,1) = {est.value:.4f} "
            f"(+-{3 * est.std_error:.4f}, want 0.5); nonnegativity {nonneg}/50",
        )
        assert gaussian_ok
        assert nonneg == 50


class TestCriterion6ApOracle:
    def test_matches_brute_force(self):
        from test_evalx import brute_force_ap

        rng = np.random.default_rng(derive_seed(BASE_SEED, "ap"))
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            scores = rng.standard_normal(n)
            relevance = rng.integers(0, 2, size=n)
            if not relevance.any():
                relevance[rng.integers(0, n)] = 1
            assert average_precision(scores, relevance) == brute_force_ap(scores, relevance)
        assert average_precision([3.0, 2.0, 1.0], [1, 1, 1]) == 1.0
        worked = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
        assert worked == (6 + 5 * (2 / 3)) / 11
        report("6 (AP oracle)", True, "1000/1000 exact matches; worked example verified")


class TestCriterion7Determinism:
    def run_twice(self, tmp_path, name, args, env=None):
        outputs = []
        for tag in ("x", "y"):
            d = tmp_path / f"{name}-{tag}"
            d.mkdir()
            argv = [a.format(out=d) if isinstance(a, str) else str(a) for a in args]
            old = {}
            for k, v in (env or {}).items():
                old[k] = os.environ.get(k)
                os.environ[k] = v[tag] if isinstance(v, dict) else v
            try:
                assert cli_main(argv) == 0
            finally:
                for k, v in old.items():
                    if v is None:
                        os.environ.pop(k, None)
                    else:
                        os.environ[k] = v
            outputs.append(sorted(p for p in d.iterdir()))
        for a, b in zip(*outputs):
            assert a.read_bytes() == b.read_bytes(), f"{name}: {a.name} differs"

    def test_commands_byte_identical(self, tmp_path):
        gen = ["gen", "--kind", "misspecified", "--subclusters", "2", "--unlabeled", "60",
               "--seed", "5", "--out-data", "{out}/d.csv", "--out-truth", "{out}/t.json"]
        self.run_twice(tmp_path, "gen", gen)

        data = tmp_path / "data.csv"
        cli_main(["gen", "--kind", "misspecified", "--subclusters", "2", "--unlabeled", "80",
                  "--seed", "6", "--out-data", str(data), "--out-truth", str(tmp_path / "t.json")])
        fit = ["fit", "--data", str(data), "--method", "askkm",
               "--out-model", "{out}/m.json", "--out-criterion", "{out}/c.json"]
        self.run_twice(tmp_path, "fit", fit)
        fit_sem_args = ["fit", "--data", str(data), "--method", "unbiased_sem",
                        "--out-model", "{out}/m.json"]
        self.run_twice(tmp_path, "fit-sem", fit_sem_args)

        curve = ["curve", "--kind", "misspecified", "--subclusters", "2",
                 "--class-sep", "5.0", "--labeled-per-class", "5",
                 "--grid", "0,40", "--seeds", "2", "--eval-size", "50",
                 "--methods", "original_sem,askkm", "--seed", "7", "--workers", "4",
                 "--out-json", "{out}/curve.json", "--out-csv", "{out}/curve.csv"]
        self.run_twice(
            tmp_path, "curve", curve,
            env={"MISSPEC_SSL_THREADS": {"x": "1", "y": "4"}},
        )
        report("7 (determinism)", True,
               "gen/fit/curve byte-identical across reruns and worker counts")
