import json
from dataclasses import replace

import numpy as np
import pytest

from misspec_ssl import cli, kernels
from misspec_ssl.cli import _cluster_model_from_dict, load_model_scores, main
from misspec_ssl.datagen import load_csv
from misspec_ssl.kernels import cross_matrix, gram_matrix, kernel_diag
from misspec_ssl.sskkm import _cluster_stats, score_batch


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

    def test_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        monkeypatch.setenv("MISSPEC_SSL_THREADS", "1")
        self.run_curve(a, extra=["--workers", 4])
        monkeypatch.setenv("MISSPEC_SSL_THREADS", "4")
        self.run_curve(b, extra=["--workers", 4])
        assert (a / "curve.json").read_bytes() == (b / "curve.json").read_bytes()
        assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()


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

    def test_kernel_model_eval(self, tmp_path):
        model = self.fit_model(tmp_path, method="askkm")
        out = tmp_path / "metrics.json"
        assert run(["eval", "--model", model, "--data", tmp_path / "data.csv",
                    "--out", out]) == 0
        assert json.loads(out.read_text())["mAP"] > 0.9


def scores_from_recomputed_stats(model_path, x, train_gram):
    """Score queries after recomputing every cluster's W_k and w'Kw from a
    full training Gram ``train_gram(train, spec)``."""
    d = json.loads(model_path.read_text())
    model, train = _cluster_model_from_dict(d.get("final_model", d))
    spec = model.kernel_spec
    wsum, _, inner = _cluster_stats(
        train_gram(train, spec), model.assignments.cluster_of, model.point_weights,
        model.n_clusters,
    )
    model = replace(model, cluster_wsum=wsum, cluster_inner=inner)
    return score_batch(model, cross_matrix(x, train, spec), kernel_diag(x, spec))


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
        # a cross_matrix(train, train) rebuild differs only where its diagonal
        # rounds below the exact 1 the fit used
        rebuilt = scores_from_recomputed_stats(
            model, x, lambda train, spec: cross_matrix(train, train, spec)
        )
        np.testing.assert_allclose(scores, rebuilt, rtol=0, atol=1e-12)

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

    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1,2]", encoding="utf-8")
        assert run(["gen", "--config", config]) == 2
