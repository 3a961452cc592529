import numpy as np

from misspec_ssl.askkm import (
    AskkmOptions,
    fit_askkm,
)
from misspec_ssl.core import SolverOptions, derive_seed
from misspec_ssl.datagen import GenSpec, generate, sample_eval_set
from misspec_ssl.evalx import predict
from misspec_ssl.kernels import KernelSpec, cross_matrix, gram_matrix, kernel_diag
from misspec_ssl.misspec import LabelMap
from misspec_ssl.sskkm import classify_batch, fit_sskkm


def well_specified(seed, n_unlabeled=200):
    spec = GenSpec(kind="well_specified", class_separation=6.0, n_labeled_per_class=10,
                   n_unlabeled=n_unlabeled, seed=seed)
    return generate(spec)[0], spec


def misspecified(seed, n_unlabeled=600):
    spec = GenSpec(kind="misspecified", subclusters_per_class=2, class_separation=5.0,
                   subcluster_separation=8.0, n_labeled_per_class=10,
                   n_unlabeled=n_unlabeled, seed=seed)
    return generate(spec)[0], spec


class TestFitAskkm:
    def test_no_unlabeled_reduces_to_supervised(self):
        d, _ = well_specified(derive_seed(5, "nu0"), n_unlabeled=0)
        km = gram_matrix(d, KernelSpec())
        model = fit_askkm(km, d, AskkmOptions())
        assert model.rounds == 1
        assert model.terminated_by == "converged"
        assert model.history[0].report.disagreements == 0
        assert model.history[0].objective_original == model.history[0].objective_unbiased
        assert model.n_clusters == 2

    def test_well_specified_converges_round_one(self):
        single_round = 0
        for si in range(5):
            d, _ = well_specified(derive_seed(5, "ws", si))
            km = gram_matrix(d, KernelSpec())
            model = fit_askkm(km, d, AskkmOptions(solver=SolverOptions(seed=si)))
            single_round += model.rounds == 1
        assert single_round >= 4

    def test_misspecified_grows_and_recovers(self):
        grew = 0
        beat = 0
        for si in range(4):
            d, spec = misspecified(derive_seed(5, "ms", si))
            km = gram_matrix(d, KernelSpec())
            model = fit_askkm(km, d, AskkmOptions(solver=SolverOptions(seed=si)))
            tx, ty = sample_eval_set(spec, 300, derive_seed(5, "ms-eval", si))
            rows = cross_matrix(tx, d.features, km.spec)
            diag = kernel_diag(tx, km.spec)
            preds, _ = predict(model, tx, rows, diag)
            base = fit_sskkm(km, d, LabelMap.identity(d.labels, 2), 2,
                             SolverOptions(seed=si))
            base_preds = classify_batch(base, rows, diag)
            grew += model.n_clusters > 2
            beat += np.mean(preds == ty) >= np.mean(base_preds == ty)
        assert grew >= 3
        assert beat >= 3

    def test_growth_capped_at_k_max(self):
        d, _ = misspecified(derive_seed(5, "cap"))
        km = gram_matrix(d, KernelSpec())
        model = fit_askkm(km, d, AskkmOptions(k_max=2, solver=SolverOptions(seed=0)))
        assert model.rounds == 1
        assert model.terminated_by in ("converged", "growth_capped")
        assert model.n_clusters == 2

    def test_history_k_strictly_increasing_and_bounded(self):
        for si in range(4):
            d, _ = misspecified(derive_seed(5, "hist", si))
            km = gram_matrix(d, KernelSpec())
            opts = AskkmOptions(k_max=8, stall_rounds=2, solver=SolverOptions(seed=si))
            model = fit_askkm(km, d, opts)
            ks = [r.n_clusters for r in model.history]
            assert all(b > a for a, b in zip(ks, ks[1:]))
            assert model.rounds == len(model.history)
            assert model.rounds <= (8 - 2) + 1 + 2
            assert model.n_clusters == ks[-1]
            assert model.final_model.unlabeled_weight == 1.0

    def test_deterministic(self):
        d, _ = misspecified(derive_seed(5, "det"))
        km = gram_matrix(d, KernelSpec())
        a = fit_askkm(km, d, AskkmOptions(solver=SolverOptions(seed=3)))
        b = fit_askkm(km, d, AskkmOptions(solver=SolverOptions(seed=3)))
        assert a.rounds == b.rounds
        assert np.array_equal(a.final_model.assignments.cluster_of,
                              b.final_model.assignments.cluster_of)
        assert a.final_model.objective == b.final_model.objective


class TestStallDetection:
    def test_persistent_disagreement_terminates_no_improvement(self, monkeypatch):
        import misspec_ssl.askkm as askkm_mod

        d, _ = well_specified(derive_seed(5, "stall"), n_unlabeled=50)
        km = gram_matrix(d, KernelSpec())

        # the original classifier errs on two fresh points every round (the
        # unbiased one is always right), so each round grows the structure by
        # one cluster but the disagreement count never decreases
        flips_by_round = {2: [0, 1], 3: [10, 11], 4: [2, 3], 5: [12, 13], 6: [4, 5]}

        def stubborn_classifier(model, rows, diag):
            labels = d.labels.copy()
            if model.unlabeled_weight == 1.0:
                for p in flips_by_round.get(model.n_clusters, []):
                    labels[p] = 1 - labels[p]
            return labels

        monkeypatch.setattr(askkm_mod, "classify_batch", stubborn_classifier)
        model = askkm_mod.fit_askkm(
            km, d, AskkmOptions(stall_rounds=2, k_max=50, solver=SolverOptions(seed=0))
        )
        assert model.terminated_by == "no_improvement"
        assert [r.report.disagreements for r in model.history] == [2, 2, 2]
        assert model.rounds == 3  # first round plus the stall window


class TestPredict:
    def test_training_query_and_score_consistency(self):
        d, _ = well_specified(derive_seed(5, "pred"))
        km = gram_matrix(d, KernelSpec())
        model = fit_askkm(km, d, AskkmOptions())
        i = int(d.labeled_idx[0])
        labels, scores = predict(model, d.features[[i]], km.values[[i]], km.diag[[i]])
        assert labels[0] == d.labels[0]
        assert int(np.argmax(scores[0])) == labels[0]

    def test_batch_self_prediction(self):
        d, _ = well_specified(derive_seed(5, "self"))
        km = gram_matrix(d, KernelSpec())
        model = fit_askkm(km, d, AskkmOptions())
        labels, scores = predict(model, d.features, km.values, km.diag)
        np.testing.assert_array_equal(np.argmax(scores, axis=1), labels)
        # labeled points classify to their own class when clusters are clean
        assert np.mean(labels[d.labeled_idx] == d.labels) > 0.9
