import hashlib
import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from misspec_ssl import askkm, cli, core, kernels
from misspec_ssl.cli import load_model_scores, main
from misspec_ssl.core import ENV_THREADS, InputError, blas_thread_api
from misspec_ssl.datagen import load_csv
from misspec_ssl.kernels import cross_matrix, gram_matrix, kernel_diag
from misspec_ssl.sskkm import ClusterModel, _cluster_stats, score_batch


def run(args):
    return main([str(a) for a in args])


def gen_args(out_dir, kind="well_specified", unlabeled=40, seed=3, **extra):
    args = [
        "gen", "--kind", kind, "--unlabeled", unlabeled, "--seed", seed,
        "--labeled-per-class", 5,
        "--out-data", out_dir / "data.csv", "--out-truth", out_dir / "truth.json",
    ]
    for k, v in extra.items():
        args += [f"--{k}", v]
    return args


class TestGen:
    def test_writes_files_and_summary(self, tmp_path, capsys):
        assert run(gen_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "N_l=10" in out and "N_u=40" in out
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["config"]["seed"] == 3
        assert len(truth["true_labels"]) == 50

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        run(gen_args(a))
        run(gen_args(b))
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()

    def test_missing_output_dir_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope" / "data.csv"
        code = run(["gen", "--out-data", missing, "--out-truth", tmp_path / "t.json"])
        assert code == 2
        assert str(missing.parent) in capsys.readouterr().err

    def test_bad_scenario_exits_3(self, tmp_path):
        code = run(gen_args(tmp_path, kind="misspecified", subclusters="1"))
        assert code == 3


@pytest.fixture()
def dataset_csv(tmp_path):
    run(gen_args(tmp_path, unlabeled=80, seed=5))
    return tmp_path / "data.csv"


class TestFit:
    def test_unbiased_sem_echoes_weight(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "model.json"
        code = run(["fit", "--data", dataset_csv, "--method", "unbiased_sem",
                    "--out-model", out])
        assert code == 0
        assert "0.1111" in capsys.readouterr().out  # 10 / (10 + 80)
        payload = json.loads(out.read_text())
        assert payload["resolved_unlabeled_weight"] == pytest.approx(10 / 90)
        assert payload["family"] == "sem"

    def test_no_unlabeled_modes_identical_files(self, tmp_path):
        run(gen_args(tmp_path, unlabeled=0, seed=9))
        files = {}
        for method in ("original_sem", "unbiased_sem"):
            out = tmp_path / f"{method}.json"
            run(["fit", "--data", tmp_path / "data.csv", "--method", method,
                 "--out-model", out])
            payload = json.loads(out.read_text())
            del payload["config"]  # differs by the method name only
            del payload["resolved_unlabeled_weight"]
            files[method] = payload
        assert files["original_sem"] == files["unbiased_sem"]

    def test_askkm_writes_criterion(self, tmp_path, dataset_csv):
        out = tmp_path / "askkm.json"
        crit = tmp_path / "criterion.json"
        code = run(["fit", "--data", dataset_csv, "--method", "askkm",
                    "--out-model", out, "--out-criterion", crit])
        assert code == 0
        model = json.loads(out.read_text())
        assert model["family"] == "askkm"
        assert model["rounds"] == len(model["history"])
        report = json.loads(crit.read_text())["criterion"]
        assert report["disagreements"] <= report["n_labeled"]

    def test_sskkm_model_roundtrips_for_eval(self, tmp_path, dataset_csv):
        out = tmp_path / "kkm.json"
        assert run(["fit", "--data", dataset_csv, "--method", "original_sskkm",
                    "--out-model", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["family"] == "sskkm"
        assert len(payload["training_features"]) == 90

    def test_unknown_method_exits_2(self, tmp_path, dataset_csv):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--data", dataset_csv, "--method", "nope",
                 "--out-model", tmp_path / "m.json"])
        assert exc.value.code == 2

    def test_custom_weight_flag(self, tmp_path, dataset_csv):
        out = tmp_path / "w.json"
        run(["fit", "--data", dataset_csv, "--method", "original_sem",
             "--weight", 0.25, "--out-model", out])
        assert json.loads(out.read_text())["resolved_unlabeled_weight"] == 0.25

    def test_accepts_the_curve_alias(self, tmp_path, dataset_csv):
        payloads = []
        for method in ("supervised", "supervised_sem"):
            out = tmp_path / f"{method}.json"
            assert run(["fit", "--data", dataset_csv, "--method", method,
                        "--out-model", out]) == 0
            payload = json.loads(out.read_text())
            assert payload.pop("config")["method"] == method
            payloads.append(payload)
        assert payloads[0] == payloads[1]
        assert payloads[0]["resolved_unlabeled_weight"] == 0.0

    @pytest.mark.parametrize("method, flag", [
        ("askkm", ["--weight", 0.5]),
        ("original_sskkm", ["--components", 3]),
        ("askkm", ["--components", 3]),
        ("original_sem", ["--threshold", 3]),
        ("unbiased_sskkm", ["--k-max", 5]),
        ("supervised", ["--out-criterion", "criterion.json"]),
    ])
    def test_flag_the_method_ignores_exits_3(self, tmp_path, dataset_csv, method, flag, capsys):
        out = tmp_path / "m.json"
        code = run(["fit", "--data", dataset_csv, "--method", method, *flag, "--out-model", out])
        assert code == 3
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["original_sem", "original_sskkm"])
    def test_dataset_without_feature_columns_exits_3(self, tmp_path, method, capsys):
        data = tmp_path / "labels_only.csv"
        data.write_text("label\n0\n1\n?\n", encoding="utf-8")
        out = tmp_path / "m.json"
        assert run(["fit", "--data", data, "--method", method, "--out-model", out]) == 3
        assert "dim >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["original_sem", "unbiased_sem", "supervised"])
    def test_features_too_large_for_em_exit_3(self, tmp_path, method, capsys):
        # finite, but their squares overflow float64; the suite turns the
        # RuntimeWarnings of such an overflow into errors
        data = tmp_path / "huge.csv"
        data.write_text("f0,label\n0,0\n1e200,1\n-1e200,?\n5,?\n", encoding="utf-8")
        out = tmp_path / "m.json"
        assert run(["fit", "--data", data, "--method", method, "--out-model", out]) == 3
        assert "overflow float64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, kernel", [
        ("original_sskkm", "rbf"),
        ("unbiased_sskkm", "linear"),
        ("askkm", "rbf"),
        ("askkm", "generalized_rbf"),
    ])
    def test_features_too_large_for_kernels_exit_3(self, tmp_path, method, kernel, capsys):
        # the squared norms of these finite features overflow float64; the
        # bound is named before any product, so no RuntimeWarning is raised
        data = tmp_path / "huge.csv"
        data.write_text("f0,label\n0,0\n1e200,1\n-1e200,?\n5,?\n", encoding="utf-8")
        out = tmp_path / "m.json"
        args = ["fit", "--data", data, "--method", method, "--kernel", kernel, "--out-model", out]
        assert run(args) == 3
        assert "exceeds 6.7e+153" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["original_sskkm", "askkm"])
    def test_median_gamma_overflow_exits_3(self, tmp_path, method, capsys):
        # the median squared distance of these finite features is subnormal,
        # and 1/median overflows to inf
        data = tmp_path / "tiny.csv"
        data.write_text("f0,label\n0,0\n1e-160,1\n2e-160,?\n3e-160,?\n1,?\n", encoding="utf-8")
        out = tmp_path / "m.json"
        assert run(["fit", "--data", data, "--method", method, "--out-model", out]) == 3
        assert "median-heuristic gamma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gamma", ["inf", "nan"])
    def test_non_finite_gamma_exits_3(self, tmp_path, dataset_csv, gamma, capsys):
        out = tmp_path / "m.json"
        args = ["fit", "--data", dataset_csv, "--method", "original_sskkm", "--gamma", gamma,
                "--out-model", out]
        assert run(args) == 3
        assert "gamma must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_stall_rounds_only_checked_for_askkm(self, tmp_path, dataset_csv):
        args = ["fit", "--data", dataset_csv, "--stall-rounds", 0, "--out-model", tmp_path / "m"]
        assert run(args + ["--method", "original_sem"]) == 0
        assert run(args + ["--method", "askkm"]) == 3


CURVE_ARGS = [
    "curve", "--kind", "misspecified", "--subclusters", 2, "--class-sep", 5.0,
    "--labeled-per-class", 5, "--grid", "0,30", "--seeds", 2, "--eval-size", 40,
    "--methods", "original_sem,unbiased_sem,askkm", "--seed", 7,
]


class TestCurve:
    def run_curve(self, out_dir, extra=()):
        args = CURVE_ARGS + ["--out-json", out_dir / "curve.json",
                             "--out-csv", out_dir / "curve.csv"] + list(extra)
        return run(args)

    def test_csv_shape(self, tmp_path, capsys):
        assert self.run_curve(tmp_path) == 0
        lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "method,n_unlabeled,seed,metric"
        assert len(lines) == 1 + 3 * 2 * 2
        out = capsys.readouterr().out
        assert "askkm" in out

    def test_grid_zero_methods_agree(self, tmp_path):
        self.run_curve(tmp_path)
        payload = json.loads((tmp_path / "curve.json").read_text())
        sem = payload["series"]["original_sem"]["raw"][0]
        unb = payload["series"]["unbiased_sem"]["raw"][0]
        assert sem == unb

    @pytest.mark.parametrize("flag, value", [("--grid", "a,b"), ("--methods", "")])
    def test_malformed_input_exits_3(self, tmp_path, flag, value, capsys):
        assert self.run_curve(tmp_path, extra=[flag, value]) == 3
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "curve.json").exists()

    def test_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        monkeypatch.setenv("MISSPEC_SSL_THREADS", "1")
        self.run_curve(a, extra=["--workers", 4])
        monkeypatch.setenv("MISSPEC_SSL_THREADS", "4")
        self.run_curve(b, extra=["--workers", 4])
        assert (a / "curve.json").read_bytes() == (b / "curve.json").read_bytes()
        assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()

    def test_thread_cap_that_is_no_integer_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_THREADS, "two")
        assert self.run_curve(tmp_path, extra=["--workers", 2]) == 3
        assert "MISSPEC_SSL_THREADS must be an integer, got 'two'" in capsys.readouterr().err
        assert not (tmp_path / "curve.json").exists()


# Ways to break a model file, and what the error must say. The key dropped
# is one that the sem (weights) or askkm (final_model) loader reads.
MALFORMED = {
    "not_json": (lambda text, d: text[: len(text) // 2], "is not JSON"),
    "not_utf8": (lambda text, d: "\udcff", "is not JSON"),  # the byte 0xff
    "not_object": (lambda text, d: json.dumps([d]), "holds a JSON list"),
    "missing_key": (
        lambda text, d: json.dumps({k: v for k, v in d.items()
                                    if k not in ("weights", "final_model")}),
        "lacks the key",
    ),
}


# Edits that leave a model file readable but inconsistent: (method, edit of
# the model's dict, or of its final_model for askkm, part of the message).
INCONSISTENT = {
    "flat_means": ("original_sem", lambda m: {**m, "means": [1.0, 2.0]}, "means"),
    "negative_variance": (
        "original_sem",
        lambda m: {**m, "covariances": (-np.asarray(m["covariances"])).tolist()},
        "covariances must be finite and > 0",
    ),
    "negative_weight": (
        "original_sem", lambda m: {**m, "weights": [-0.5, *m["weights"][1:]]}, "weights"
    ),
    "comp_map_out_of_range": (
        "original_sem", lambda m: {**m, "comp_map": [7, *m["comp_map"][1:]]}, "comp_map"
    ),
    "full_covariance": (
        "unbiased_sem", lambda m: {**m, "covariance_type": "full"}, "covariance_type"
    ),
    "truncated_assignments": (
        "original_sskkm", lambda m: {**m, "assignments": m["assignments"][:-1]}, "assignments"
    ),
    "fine_to_class_out_of_range": (
        "unbiased_sskkm",
        lambda m: {**m, "label_map": {**m["label_map"], "fine_to_class": [0, 7]}},
        "fine_to_class",
    ),
    "short_cluster_wsum": (
        "askkm", lambda m: {**m, "cluster_wsum": m["cluster_wsum"][:1]}, "cluster_wsum"
    ),
}


class TestEval:
    def fit_model(self, tmp_path, method="supervised_sem"):
        run(gen_args(tmp_path, kind="well_specified", unlabeled=20, seed=21,
                     **{"class-sep": 10.0}))
        model = tmp_path / "model.json"
        run(["fit", "--data", tmp_path / "data.csv", "--method", method,
             "--out-model", model])
        return model

    def test_separated_classes_reach_ap_one(self, tmp_path):
        model = self.fit_model(tmp_path)
        test_csv = tmp_path / "test.csv"
        run(gen_args(tmp_path, kind="well_specified", unlabeled=0, seed=22,
                     **{"class-sep": 10.0}))
        (tmp_path / "data.csv").rename(test_csv)
        out = tmp_path / "metrics.json"
        assert run(["eval", "--model", model, "--data", test_csv, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["mAP"] == 1.0
        assert set(payload["per_class"]) == {"0", "1"}

    def test_verbose_includes_interpolation_points(self, tmp_path):
        model = self.fit_model(tmp_path)
        out = tmp_path / "metrics.json"
        run(["eval", "--model", model, "--data", tmp_path / "data.csv",
             "--out", out, "--verbose"])
        payload = json.loads(out.read_text())
        for entry in payload["per_class"].values():
            assert len(entry["interpolated_precisions"]) == 11

    def test_dimension_mismatch_exits_3(self, tmp_path):
        model = self.fit_model(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,label\n1.0,0\n2.0,1\n", encoding="utf-8")
        assert run(["eval", "--model", model, "--data", bad,
                    "--out", tmp_path / "m.json"]) == 3

    @pytest.mark.parametrize("keep, message", [
        ({"1"}, "n_classes must be >= 2"),
        ({"?"}, "no labeled points"),
    ], ids=["one_class", "unlabeled_only"])
    def test_data_without_two_classes_exits_3(self, tmp_path, keep, message, capsys):
        # class ids follow first appearance, so a class-1-only file would be
        # scored against the model's class-0 column
        model = self.fit_model(tmp_path)
        header, *rows = (tmp_path / "data.csv").read_text().splitlines()
        data = tmp_path / "part.csv"
        data.write_text("\n".join([header, *(r for r in rows if r.rsplit(",", 1)[1] in keep)])
                        + "\n")
        out = tmp_path / "m.json"
        assert run(["eval", "--model", model, "--data", data, "--out", out]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["original_sem", "original_sskkm"])
    def test_query_features_too_large_exit_3(self, tmp_path, method, capsys):
        # finite queries whose squared distances to the model overflow
        # float64: exit 3 with a message, no metrics and no RuntimeWarning
        # (the suite turns those into errors)
        data = tmp_path / "small.csv"
        data.write_text("f0,label\n0,0\n1,1\n2,?\n5,?\n", encoding="utf-8")
        model = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--method", method, "--out-model", model]) == 0
        query = tmp_path / "query.csv"
        query.write_text("f0,label\n0,0\n1e200,1\n2,0\n-1e200,1\n", encoding="utf-8")
        out = tmp_path / "metrics.json"
        assert run(["eval", "--model", model, "--data", query, "--out", out]) == 3
        assert "magnitude 1e+200 exceeds" in capsys.readouterr().err
        assert not out.exists()

    def test_sem_model_with_a_zero_weight_class_evaluates(self, tmp_path):
        # every point has log-joint -inf for class 1; the suite turns a
        # log(0) RuntimeWarning into an error
        model = self.fit_model(tmp_path)
        d = json.loads(model.read_text())
        d["weights"] = [1.0, 0.0]
        model.write_text(json.dumps(d))
        out = tmp_path / "metrics.json"
        assert run(["eval", "--model", model, "--data", tmp_path / "data.csv",
                    "--out", out]) == 0
        assert 0.0 <= json.loads(out.read_text())["mAP"] <= 1.0

    def test_kernel_model_eval(self, tmp_path):
        model = self.fit_model(tmp_path, method="askkm")
        out = tmp_path / "metrics.json"
        assert run(["eval", "--model", model, "--data", tmp_path / "data.csv",
                    "--out", out]) == 0
        assert json.loads(out.read_text())["mAP"] > 0.9

    @pytest.mark.parametrize("method, key", [("original_sem", "'weights'"),
                                             ("askkm", "'final_model'")])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_model_exits_3(self, tmp_path, method, key, case, capsys):
        model = self.fit_model(tmp_path, method=method)
        text = model.read_text()
        corrupt, message = MALFORMED[case]
        model.write_text(corrupt(text, json.loads(text)), errors="surrogateescape")
        code = run(["eval", "--model", model, "--data", tmp_path / "data.csv",
                    "--out", tmp_path / "m.json"])
        assert code == 3
        err = capsys.readouterr().err
        assert message in err
        if case == "missing_key":
            assert key in err


    @pytest.mark.parametrize("method", ["original_sem", "original_sskkm", "askkm"])
    def test_non_finite_query_exits_3(self, tmp_path, method, capsys, monkeypatch):
        model = self.fit_model(tmp_path, method=method)
        header, first, *rest = (tmp_path / "data.csv").read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, "nan" + first[first.index(","):], *rest]) + "\n")
        calls = []

        def spy(q, y, spec):
            calls.append(q.shape)
            return cross_matrix(q, y, spec)

        monkeypatch.setattr(cli, "cross_matrix", spy)
        code = run(["eval", "--model", model, "--data", bad, "--out", tmp_path / "m.json"])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()
        assert calls == []  # rejected before any kernel row is built

    @pytest.mark.parametrize("case", sorted(INCONSISTENT))
    def test_inconsistent_model_exits_3(self, tmp_path, case, capsys):
        method, edit, message = INCONSISTENT[case]
        model = self.fit_model(tmp_path, method=method)
        d = json.loads(model.read_text())
        if method == "askkm":
            d["final_model"] = edit(d["final_model"])
        else:
            d = edit(d)
        model.write_text(json.dumps(d))
        code = run(["eval", "--model", model, "--data", tmp_path / "data.csv",
                    "--out", tmp_path / "m.json"])
        assert code == 3
        assert message in capsys.readouterr().err


def scores_from_recomputed_stats(model_path, x, train_gram):
    """Score queries after recomputing every cluster's W_k and w'Kw from a
    full training Gram ``train_gram(train, spec)``."""
    d = json.loads(model_path.read_text())
    model, train = ClusterModel.from_dict(d.get("final_model", d))
    spec = model.kernel_spec
    wsum, _, inner = _cluster_stats(
        train_gram(train, spec), model.assignments.cluster_of, model.point_weights,
        model.n_clusters,
    )
    model = replace(model, cluster_wsum=wsum, cluster_inner=inner)
    return score_batch(model, cross_matrix(x, train, spec), kernel_diag(x, spec))[1]


class TestKernelModelEval:
    @pytest.fixture()
    def data(self, tmp_path):
        run(gen_args(tmp_path, kind="misspecified", unlabeled=150, seed=31,
                     **{"class-sep": 5.0}))
        return tmp_path / "data.csv"

    def fit(self, tmp_path, data, method):
        model = tmp_path / f"{method}.json"
        assert run(["fit", "--data", data, "--method", method, "--out-model", model]) == 0
        return model

    @pytest.mark.parametrize("method", ["original_sskkm", "unbiased_sskkm", "askkm"])
    def test_serialized_stats_match_recomputed_oracle(self, tmp_path, data, method, monkeypatch):
        model = self.fit(tmp_path, data, method)
        train_set, _ = load_csv(data)
        x = train_set.features[train_set.labeled_idx]
        calls = []

        def query_rows_only(q, y, spec):
            assert q.shape[0] == x.shape[0]
            calls.append(q.shape)
            return cross_matrix(q, y, spec)

        monkeypatch.setattr(cli, "cross_matrix", query_rows_only)
        scores, n_classes = load_model_scores(model, x)
        assert calls == [x.shape] and n_classes == 2
        # the fit's own Gram gives the serialized statistics exactly
        fit_gram = scores_from_recomputed_stats(
            model, x, lambda train, spec: gram_matrix(train_set, spec).values
        )
        assert np.array_equal(scores, fit_gram)
        # so does a cross_matrix(train, train) rebuild: below 8 features each
        # distance is a per-feature fold, the same for (x, y) as for (y, x)
        # and exactly 0 for (x, x)
        rebuilt = scores_from_recomputed_stats(
            model, x, lambda train, spec: cross_matrix(train, train, spec)
        )
        assert np.array_equal(scores, rebuilt)

    @pytest.mark.parametrize("method", ["original_sskkm", "askkm"])
    @pytest.mark.parametrize("key", ["cluster_wsum", "cluster_inner"])
    def test_model_without_cluster_stats_exits_3(self, tmp_path, data, method, key, capsys):
        model = self.fit(tmp_path, data, method)
        payload = json.loads(model.read_text())
        del payload.get("final_model", payload)[key]
        model.write_text(json.dumps(payload))
        code = run(["eval", "--model", model, "--data", data, "--out", tmp_path / "m.json"])
        assert code == 3
        assert key in capsys.readouterr().err

    def test_gram_allocation_failure_exits_3(self, tmp_path, data, monkeypatch, capsys):
        n = load_csv(data)[0].n_points
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            if shape == (n, n):
                raise MemoryError
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(kernels.np, "empty", empty)
        code = run(["fit", "--data", data, "--method", "askkm", "--gamma", 0.5,
                    "--out-model", tmp_path / "m.json"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"N={n}" in err and str(8 * n * n) in err


class TestConfigFile:
    def test_config_sets_defaults_and_flags_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"unlabeled": 12, "seed": 33}), encoding="utf-8")
        out_a = tmp_path / "a.csv"
        run(["gen", "--config", config, "--labeled-per-class", 5,
             "--out-data", out_a, "--out-truth", tmp_path / "ta.json"])
        truth = json.loads((tmp_path / "ta.json").read_text())
        assert truth["config"]["unlabeled"] == 12
        assert truth["config"]["seed"] == 33
        # explicit flag wins over the config value
        run(["gen", "--config", config, "--labeled-per-class", 5, "--unlabeled", 4,
             "--out-data", tmp_path / "b.csv", "--out-truth", tmp_path / "tb.json"])
        assert json.loads((tmp_path / "tb.json").read_text())["config"]["unlabeled"] == 4

    def test_unknown_config_keys_exit_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"labeled_per_clas": 3, "func": "x"}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run(gen_args(tmp_path) + ["--config", config])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "labeled_per_clas" in err and "func" in err

    def test_shared_config_keeps_keys_of_other_commands(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"methods": "askkm", "out_model": "m"}), encoding="utf-8")
        assert run(gen_args(tmp_path) + ["--config", config]) == 0

    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1,2]", encoding="utf-8")
        assert run(["gen", "--config", config]) == 2


# One small end-to-end run of every command. Each (model file stem, method,
# extra fit flags) is fitted on data.csv and evaluated with --verbose on
# heldout.csv.
PINNED_FITS = [
    ("original_sskkm", "original_sskkm", []),
    ("unbiased_sskkm", "unbiased_sskkm", []),
    ("askkm", "askkm", ["--out-criterion", "askkm.criterion.json"]),
    ("original_sem", "original_sem", []),
    ("unbiased_sem", "unbiased_sem", []),
    ("supervised", "supervised", []),
    ("sem_components4", "original_sem", ["--components", 4]),
    ("sem_weight03", "original_sem", ["--weight", 0.3]),
]


def pinned_run_digests():
    """Run the pinned commands in an empty working directory, with relative
    paths so that the echoed configurations do not depend on where it is;
    sha256 of every file written."""
    scenario = ["--kind", "misspecified", "--class-sep", 5.0, "--labeled-per-class"]
    commands = [
        ["gen", *scenario, 5, "--unlabeled", 60, "--seed", 41,
         "--out-data", "data.csv", "--out-truth", "truth.json"],
        ["gen", *scenario, 25, "--unlabeled", 0, "--seed", 42,
         "--out-data", "heldout.csv", "--out-truth", "heldout.truth.json"],
    ]
    for stem, method, extra in PINNED_FITS:
        commands.append(["fit", "--data", "data.csv", "--method", method, *extra,
                         "--out-model", f"{stem}.json"])
        commands.append(["eval", "--model", f"{stem}.json", "--data", "heldout.csv",
                         "--verbose", "--out", f"{stem}.eval.json"])
    commands.append(["curve", *scenario, 5, "--grid", "0,40", "--seeds", 2,
                     "--eval-size", 50, "--methods", "original_sem,unbiased_sem,original_sskkm",
                     "--seed", 43, "--out-json", "curve.json", "--out-csv", "curve.csv"])
    for argv in commands:
        assert run(argv) == 0, argv
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path().iterdir())}


# sha256 of every file pinned_run_digests writes. They pin the CLI's
# outputs byte for byte on one numpy build; a change that alters an output
# must say why, and then record the new digest here.
PINNED_DIGESTS = {
    "askkm.criterion.json":
        "f3b44230deaa1e9010e17a4ee90fe2e873abc44411fa289c9300e91f24788dca",
    "askkm.eval.json":
        "c64e51a26a0550cb124290773653942270b93cb93becbad4946cb2aec9d3c895",
    "askkm.json":
        "7751812be5388cc90591476e209cb900519d3c7f5b9d5920023ebffdb7b1604d",
    "curve.csv":
        "f9269f3f7d1ebc14046f4ec02acd0343cf2cce6cbfa262c7dd63df1063448598",
    "curve.json":
        "28124fe1b0f8479cd85efb39a39728ea713484f418a12ff41794eb0d4e09f300",
    "data.csv":
        "45dd7b2387237f7ceccaf973c0c00405141b2a3f3aa31aca8fa4b8bdd90d46e0",
    "heldout.csv":
        "32ab454a4be57f652aeefecdb0fdb6991ce3095f80c98e7deb71115a172f8f87",
    "heldout.truth.json":
        "896c924ff8809af5b78b71f218c599243b43ae512d3ec299e20b19988f94dffa",
    "original_sem.eval.json":
        "92339952fe6ff8b3f56d058eec147b43c768af7eedf9e3bbbdf490602791bd05",
    "original_sem.json":
        "9e0410b052425437b5f5065c00508ccc5d5aff6bcbe54704a80ef962c1352f5c",
    "original_sskkm.eval.json":
        "7f539397464481364ee46532d45123402505b60544c9527cd1d07e66cff26c11",
    "original_sskkm.json":
        "d8c18607048885a155ec9b32a9591853d039bcb94adaf6d62bc9910987894172",
    "sem_components4.eval.json":
        "d664da0114e3b95a4006f7968d9366a9e1b8fd59e478dcaac1ed204c4c377607",
    "sem_components4.json":
        "ed15636703a1045db1de3eb8f8fe182f0dfac19c6421b256b03944fc98607ce1",
    "sem_weight03.eval.json":
        "6fe233614a2b7672808d99ae2d97b5e3a864eae42ca03fcee5b7cd00be7c07ee",
    "sem_weight03.json":
        "0ceb03cf35c1f59fdf949670c484f7d4514f13b36bfe890ee817d760d1fe0538",
    "supervised.eval.json":
        "e8e64ea7a67855703bbb03dfbc8c76f9b4c5315cf59aebda6e6c694c96daf693",
    "supervised.json":
        "a786a3e3339298b6fc1358617c23b68caed0ed3423a038d3f1c1888d9ff64bd2",
    "truth.json":
        "423d3123ff4a107ce34a27f448de415115cdd08a84a82a87159ce2ac081e555b",
    "unbiased_sem.eval.json":
        "3f09ce594582eb6f3be8973709c11d4db90b05a69edbfe04c368222d66869a2e",
    "unbiased_sem.json":
        "5332bc2c5132bb558ce553e87e2d8e0d99b1d91793c55fa82261659a52ee7f18",
    "unbiased_sskkm.eval.json":
        "d965e5391a82105287ce8f016d86cd739d5107065eaa0ddc1e116bf6c21321af",
    "unbiased_sskkm.json":
        "be0c5ea6962390e5bb6af46464e3cee43c6d6cf3d8eef78fe0df4ad52bcfe918",
}


def test_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert pinned_run_digests() == PINNED_DIGESTS


# sha256 of a 9-feature run whose sem fits use 9 and 3 components, recorded
# before semgmm's row sums became column folds: numpy sums 8 or more columns
# pairwise and fewer left to right, and these fits meet both orders, in the
# feature sums (9) and in the component sums (9 and 3).
PINNED_WIDE_DIGESTS = {
    "data.csv":
        "411d150ea820c88141b1189093ad6c67a682769b7a1ca8edb5fb736a82c01a0c",
    "heldout.csv":
        "53fd36c5c745b39381f40d0fefb44991e7087bcb2c5464a85637a4f576cd5e3e",
    "heldout.truth.json":
        "cf5732c60abbc245947567f4320af87a98c3d857a4f9f2955af17bf08fb61d24",
    "sem_components3.eval.json":
        "98acafa4e365837221edb59f4ea8f22b55addd2ce51a69b776803dadc474f51d",
    "sem_components3.json":
        "3c45e79219d674f561b2a0e2f74ad36c610cf482416dc42b7801870a7fa48353",
    "sem_components9.eval.json":
        "31b0796a4cce87b1f4ce400b96fcaff08fe863383c2c309b824b48960f5bdda0",
    "sem_components9.json":
        "9768a6e075363c240276f9d67f195072383c1d9d0e4dbe4e164cb6385e5f9e28",
    "truth.json":
        "2331a358a60117c74a63c93a97ae0c1237b7a34c4f7a3dcb91f3285605ee64b5",
}


def test_wide_sem_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scenario = ["--kind", "misspecified", "--dim", 9, "--class-sep", 5.0, "--labeled-per-class"]
    commands = [
        ["gen", *scenario, 6, "--unlabeled", 80, "--seed", 44,
         "--out-data", "data.csv", "--out-truth", "truth.json"],
        ["gen", *scenario, 20, "--unlabeled", 0, "--seed", 45,
         "--out-data", "heldout.csv", "--out-truth", "heldout.truth.json"],
    ]
    for k in (9, 3):
        commands.append(["fit", "--data", "data.csv", "--method", "original_sem",
                         "--components", k, "--out-model", f"sem_components{k}.json"])
        commands.append(["eval", "--model", f"sem_components{k}.json", "--data", "heldout.csv",
                         "--verbose", "--out", f"sem_components{k}.eval.json"])
    for argv in commands:
        assert run(argv) == 0, argv
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path().iterdir())}
    assert digests == PINNED_WIDE_DIGESTS


# Checks that OpenBLAS starts with the OPENBLAS_NUM_THREADS threads asked
# for, then runs the commands of argv[1] (a JSON list of argument lists)
# through cli.main in one process, in its working directory.
RUN_COMMANDS = """
import json, os, sys
from misspec_ssl.cli import main
from misspec_ssl.core import blas_thread_api
threads = blas_thread_api()[1]()
if threads != int(os.environ["OPENBLAS_NUM_THREADS"]):
    sys.exit(f"OpenBLAS runs {threads} threads")
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"exit != 0: {argv}")
"""


@pytest.mark.skipif(
    blas_thread_api() is None or (os.cpu_count() or 1) < 2,
    reason="needs OpenBLAS and 2 CPUs: OpenBLAS runs at most one thread per CPU",
)
def test_fit_and_eval_bytes_independent_of_blas_threads(tmp_path):
    # From about 1,000 rows up, OpenBLAS splits a product by thread, and 1-
    # and 2-thread products differ in their last bits. The member sums of a
    # kernel fit at N = 1,100 are such products, so without the one-thread
    # pin of cli.main the fit and eval bytes would follow the thread count.
    scenario = ["gen", "--kind", "misspecified", "--class-sep", "5"]
    commands = [
        [*scenario, "--unlabeled", "1080", "--seed", "12",
         "--out-data", "data.csv", "--out-truth", "truth.json"],
        [*scenario, "--unlabeled", "0", "--labeled-per-class", "100", "--seed", "13",
         "--out-data", "heldout.csv", "--out-truth", "heldout.truth.json"],
    ]
    for method in ("original_sskkm", "unbiased_sskkm", "askkm"):
        commands.append(["fit", "--data", "data.csv", "--method", method,
                         "--out-model", f"{method}.json"])
        commands.append(["eval", "--model", f"{method}.json", "--data", "heldout.csv",
                         "--verbose", "--out", f"{method}.eval.json"])
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    procs = {}
    for threads in ("1", "2"):
        work = tmp_path / threads
        work.mkdir()
        env = dict(os.environ, PYTHONPATH=paths, OPENBLAS_NUM_THREADS=threads)
        procs[work] = subprocess.Popen(
            [sys.executable, "-c", RUN_COMMANDS, json.dumps(commands)],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
    for proc in procs.values():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    one, two = procs
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir()) and len(names) == 10
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def fit_and_eval_commands(data, heldout):
    """fit + eval of every kernel method, and of askkm on the manhattan
    distance, writing into the working directory."""
    fits = {m: ["--method", m] for m in ("original_sskkm", "unbiased_sskkm", "askkm")}
    fits["askkm_manhattan"] = ["--method", "askkm", "--kernel", "generalized_rbf",
                               "--distance", "manhattan"]
    commands = []
    for name, method in fits.items():
        commands.append(["fit", "--data", data, *method, "--out-model", f"{name}.json"])
        commands.append(["eval", "--model", f"{name}.json", "--data", heldout, "--verbose",
                         "--out", f"{name}.eval.json"])
    return commands


@pytest.mark.skipif(core._usable_cpus() < 2, reason="needs 2 CPUs for a second pool thread")
def test_fit_and_eval_bytes_independent_of_fan_out_threads(tmp_path, monkeypatch):
    # N = 1,500 training rows and 1,500 eval rows: the Gram, the askkm fit
    # pairs and the eval cross matrix all sit above FAN_OUT_MIN_ENTRIES.
    scenario = ["gen", "--kind", "misspecified", "--class-sep", 5]
    data, heldout = tmp_path / "data.csv", tmp_path / "heldout.csv"
    assert run([*scenario, "--unlabeled", 1480, "--seed", 21,
                "--out-data", data, "--out-truth", tmp_path / "truth.json"]) == 0
    assert run([*scenario, "--unlabeled", 0, "--labeled-per-class", 750, "--seed", 22,
                "--out-data", heldout, "--out-truth", tmp_path / "heldout.truth.json"]) == 0
    assert 1500 * 1500 >= core.FAN_OUT_MIN_ENTRIES

    threads = set()
    fold, fit_sskkm = kernels._fold_distance, askkm.fit_sskkm

    def spy(real):
        def record(*args, **kwargs):
            threads.add(threading.get_ident())
            return real(*args, **kwargs)
        return record

    monkeypatch.setattr(kernels, "_fold_distance", spy(fold))
    monkeypatch.setattr(askkm, "fit_sskkm", spy(fit_sskkm))
    seen = {}
    for cap in ("1", None):
        out = tmp_path / f"threads-{cap}"
        out.mkdir()
        monkeypatch.chdir(out)
        if cap is None:
            monkeypatch.delenv(ENV_THREADS, raising=False)
        else:
            monkeypatch.setenv(ENV_THREADS, cap)
        threads.clear()
        for argv in fit_and_eval_commands(data, heldout):
            assert run(argv) == 0, argv
        seen[cap] = set(threads)
    here = threading.get_ident()
    assert seen["1"] == {here}
    assert len(seen[None] - {here}) >= 2
    one, unset = tmp_path / "threads-1", tmp_path / "threads-None"
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in unset.iterdir()) and len(names) == 8
    for name in names:
        assert (one / name).read_bytes() == (unset / name).read_bytes(), name


def test_error_in_unbiased_half_exits_3_as_on_one_thread(
    tmp_path, dataset_csv, fan_out_threads, monkeypatch, capsys
):
    monkeypatch.setattr(core, "FAN_OUT_MIN_ENTRIES", 0)
    real = askkm.fit_sskkm

    def failing(km, d, label_map, k, opts, init=None):
        if opts.unlabeled_weight_mode == "unbiased":
            raise InputError(f"unbiased half failed at K={k}")
        return real(km, d, label_map, k, opts, init=init)

    monkeypatch.setattr(askkm, "fit_sskkm", failing)
    args = ["fit", "--data", dataset_csv, "--method", "askkm", "--out-model", tmp_path / "m.json"]
    errors = []
    for threads in (1, 2):
        fan_out_threads(threads)
        assert run(args) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: unbiased half failed at K=2\n"
    assert not (tmp_path / "m.json").exists()
    monkeypatch.setattr(askkm, "fit_sskkm", real)
    assert run(args) == 0
