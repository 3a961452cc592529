import threading
import time

import numpy as np
import pytest

from misspec_ssl import askkm, core
from misspec_ssl.askkm import (
    AskkmOptions,
    fit_askkm,
)
from misspec_ssl.core import FAN_OUT_MIN_ENTRIES, InputError, SolverOptions, derive_seed, fan_out
from misspec_ssl.datagen import GenSpec, generate, sample_eval_set
from misspec_ssl.evalx import predict
from misspec_ssl.kernels import KernelSpec, cross_matrix, gram_matrix, kernel_diag
from misspec_ssl.misspec import LabelMap
from misspec_ssl.sskkm import fit_sskkm, score_batch


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
            base_preds = score_batch(base, rows, diag)[0]
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
            return labels, np.eye(2)[labels]

        monkeypatch.setattr(askkm_mod, "score_batch", stubborn_classifier)
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


class TestFitPairOnTwoThreads:
    @pytest.mark.parametrize("spec", [KernelSpec(),
                                      KernelSpec(kind="generalized_rbf", distance="manhattan")],
                             ids=["rbf", "manhattan"])
    def test_one_and_two_threads_equal(self, spec, fan_out_threads):
        d, _ = misspecified(derive_seed(5, "pair"), n_unlabeled=1440)
        km = gram_matrix(d, spec)
        assert fan_out.width(km.values.size) == 2 and km.n ** 2 >= FAN_OUT_MIN_ENTRIES
        fits = {}
        for threads in (1, 2):
            fan_out_threads(threads)
            fits[threads] = fit_askkm(km, d, AskkmOptions(solver=SolverOptions(seed=4)))
        one, two = fits[1], fits[2]
        assert one.rounds > 1
        assert one.history == two.history and one.terminated_by == two.terminated_by
        a, b = one.final_model, two.final_model
        assert a.objective_trace == b.objective_trace
        for name in ("point_weights", "cluster_wsum", "cluster_inner"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(a.assignments.cluster_of, b.assignments.cluster_of)
        assert one.to_dict(d.features) == two.to_dict(d.features)

    def test_error_in_unbiased_half_raised_after_both_fits(self, fan_out_threads, monkeypatch):
        fan_out_threads(2)
        monkeypatch.setattr(core, "FAN_OUT_MIN_ENTRIES", 0)
        d, _ = misspecified(derive_seed(5, "pair-error"), n_unlabeled=200)
        km = gram_matrix(d, KernelSpec())
        real = askkm.fit_sskkm
        ended, threads = [], set()

        def spy(km, d, label_map, k, opts, init=None):
            threads.add(threading.get_ident())
            if opts.unlabeled_weight_mode == "unbiased":
                raise InputError("unbiased half failed")
            model = real(km, d, label_map, k, opts, init=init)
            time.sleep(0.2)
            ended.append(opts.unlabeled_weight_mode)
            return model

        monkeypatch.setattr(askkm, "fit_sskkm", spy)
        with pytest.raises(InputError, match="unbiased half failed"):
            fit_askkm(km, d, AskkmOptions())
        assert ended == ["original"]
        # Both halves ran on pool threads; the caller only waited.
        assert len(threads) == 2 and threading.get_ident() not in threads
        monkeypatch.setattr(askkm, "fit_sskkm", real)
        assert fit_askkm(km, d, AskkmOptions()).rounds >= 1
