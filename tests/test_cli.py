import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from misspec_ssl import askkm, cli, core, evalx, kernels
from misspec_ssl.cli import load_model_scores, main
from misspec_ssl.core import ENV_THREADS, InputError, blas_thread_api
from misspec_ssl.datagen import load_csv, write_csv
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


# Inputs that are a usage error (exit 2) or a data error (exit 3), run in a
# directory holding data.csv, a directory "dir", a Latin-1 CSV and a CSV of
# a header alone: (argv, exit code, a fragment of the message). None writes
# an output file.
BAD_INPUTS = {
    "data_is_a_directory": (["fit", "--data", "dir", "--method", "original_sskkm"], 2,
                            "Is a directory: 'dir'"),
    "model_is_a_directory": (["eval", "--model", "dir", "--data", "data.csv"], 2,
                             "Is a directory: 'dir'"),
    "data_not_utf8": (["fit", "--data", "latin1.csv", "--method", "original_sskkm"], 3,
                      "latin1.csv: not UTF-8 text"),
    "data_without_rows": (["fit", "--data", "header_only.csv", "--method", "original_sskkm"], 3,
                          "header_only.csv: no data rows after the header"),
    "tol_nan": (["fit", "--data", "data.csv", "--method", "original_sskkm", "--tol", "nan"], 3,
                "tol must be >= 0, got nan"),
    "workers_0": (["curve", "--workers", 0, "--grid", 0, "--seeds", 1, "--eval-size", 20,
                   "--methods", "original_sem"], 3, "workers must be >= 1"),
    "config_max_iter_null": (["fit", "--data", "data.csv", "--method", "original_sskkm",
                              "--config", "max_iter_null.json"], 2,
                             "config key max_iter: null is no valid --max-iter value"),
    "config_seeds_list": (["curve", "--config", "seeds_list.json", "--grid", 0,
                           "--eval-size", 20, "--methods", "original_sem"], 2,
                          "config key seeds: [1] is no valid --seeds value"),
    "config_threshold_float": (["fit", "--data", "data.csv", "--method", "askkm",
                                "--config", "threshold_float.json"], 2,
                               "config key threshold: 1.5 is no valid --threshold value"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_cleanly(tmp_path, dataset_csv, monkeypatch, capsys, case):
    argv, code, message = BAD_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    Path("dir").mkdir()
    Path("latin1.csv").write_bytes("f0,label\n1.0,caf\xe9\n".encode("latin-1"))
    Path("header_only.csv").write_text("f0,f1,label\n", encoding="utf-8")
    for name, config in (("max_iter_null", {"max_iter": None}), ("seeds_list", {"seeds": [1]}),
                         ("threshold_float", {"threshold": 1.5})):
        Path(f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
    before = set(Path().iterdir())
    outputs = {"fit": ["--out-model", "out.json"], "eval": ["--out", "out.json"],
               "curve": ["--out-json", "out.json", "--out-csv", "out.csv"]}[argv[0]]
    try:
        got = run([*argv, *outputs])
    except SystemExit as exc:  # a usage error that argparse reports
        got = exc.code
    assert got == code
    assert message in capsys.readouterr().err
    assert set(Path().iterdir()) == before


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

    def test_out_criterion_into_missing_directory_exits_2_before_loading(
        self, tmp_path, dataset_csv, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "load_csv", lambda *args: calls.append("load_csv"))
        monkeypatch.setattr(cli, "gram_matrix", lambda *args: calls.append("gram_matrix"))
        out = tmp_path / "askkm.json"
        code = run(["fit", "--data", dataset_csv, "--method", "askkm", "--out-model", out,
                    "--out-criterion", tmp_path / "missing" / "criterion.json"])
        assert code == 2
        assert "output directory does not exist" in capsys.readouterr().err
        assert calls == [] and not out.exists()

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

    def test_non_finite_feature_exits_3_naming_its_position(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("f0,f1,label\n0,1,0\nnan,2,1\n3,4,?\n", encoding="utf-8")
        out = tmp_path / "m.json"
        assert run(["fit", "--data", data, "--method", "original_sem", "--out-model", out]) == 3
        assert capsys.readouterr().err == (
            "error: invalid dataset: non-finite feature value at (row, col) (1, 0)\n"
        )
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

    def test_negative_threshold_exits_3_before_reading_data(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        args = ["fit", "--data", tmp_path / "absent.csv", "--method", "askkm",
                "--threshold", -1, "--out-model", out]
        assert run(args) == 3
        assert capsys.readouterr().err == "error: threshold must be >= 0, got -1\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("workers, cap, forked", [(2, None, True), (1, None, False),
                                                       (2, "1", False)])
    def test_benchmark_sized_curve_forks_two_workers(self, tmp_path, monkeypatch, fan_out_threads,
                                                     cell_log, workers, cap, forked):
        # The benchmark's curve: 25 cells of at most N = 1,020 rows, above
        # the process floor; --workers and MISSPEC_SSL_THREADS cap the workers.
        fan_out_threads(2)
        if cap is None:
            monkeypatch.delenv(ENV_THREADS, raising=False)
        else:
            monkeypatch.setenv(ENV_THREADS, cap)
        assert run(["curve", "--kind", "misspecified", "--class-sep", 5,
                    "--methods", "original_sem,unbiased_sem,original_sskkm,askkm",
                    "--grid", "0,50,100,500,1000", "--seeds", 5, "--eval-size", 500,
                    "--workers", workers, "--seed", 3,
                    "--out-json", tmp_path / "c.json", "--out-csv", tmp_path / "c.csv"]) == 0
        cells = cell_log()
        pids = {pid for pid, _ in cells}
        assert len(cells) == 25
        if forked:
            assert len(pids) == 2 and os.getpid() not in pids
            assert {width for _, width in cells} == {1}
        else:
            assert pids == {os.getpid()}

    def test_curve_below_the_process_floor_runs_inline(self, tmp_path, fan_out_threads,
                                                       cell_log):
        # The benchmark's own test curve: 2 cells of at most N = 40 rows.
        fan_out_threads(2)
        assert run(["curve", "--kind", "misspecified", "--class-sep", 5,
                    "--methods", "original_sem,unbiased_sem,original_sskkm,askkm",
                    "--grid", "0,20", "--seeds", 1, "--eval-size", 40, "--workers", 2,
                    "--out-json", tmp_path / "c.json", "--out-csv", tmp_path / "c.csv"]) == 0
        assert cell_log() == [(os.getpid(), 2)] * 2

    def test_error_in_a_worker_cell_exits_3_as_inline(self, tmp_path, monkeypatch,
                                                       fan_out_threads, cell_log, capsys):
        # Cells N_u = 20 and 40 fail, 20 after 40: the first error in cell
        # order is reported, as when the cells run in order.
        monkeypatch.setattr(evalx, "CELL_FORK_MIN_ROWS", 0)
        fan_out_threads(2)
        real = evalx.generate

        def generate(spec):
            if spec.n_unlabeled == 20:
                time.sleep(0.3)
            if spec.n_unlabeled:
                raise InputError(f"no data at N_u={spec.n_unlabeled}")
            return real(spec)

        monkeypatch.setattr(evalx, "generate", generate)
        errors = []
        for workers in (1, 2):
            assert self.run_curve(tmp_path, extra=["--grid", "0,20,40", "--seeds", 1,
                                                   "--workers", workers]) == 3
            errors.append(capsys.readouterr().err)
            pids = {pid for pid, _ in cell_log()}
            assert (os.getpid() in pids) == (workers == 1) and len(pids) == workers
        assert errors == ["error: no data at N_u=20\n"] * 2
        assert not (tmp_path / "curve.json").exists()

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
    "unknown_family": (
        lambda text, d: json.dumps({**d, "family": ["sem"]}),
        "unrecognized model family ['sem'] in",
    ),
}


def nan_at(values):
    """``values`` (a list, or a list of lists) with its first number NaN."""
    first = values[0]
    return [nan_at(first) if isinstance(first, list) else float("nan"), *values[1:]]


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
    "nan_mean": ("original_sem", lambda m: {**m, "means": nan_at(m["means"])}, "means"),
    "n_clusters_not_the_label_maps": (
        "original_sskkm", lambda m: {**m, "n_clusters": 3}, "n_clusters 3"
    ),
    "assignment_out_of_range": (
        "askkm", lambda m: {**m, "assignments": [9, *m["assignments"][1:]]}, "assignments"
    ),
    "nan_training_feature": (
        "original_sskkm",
        lambda m: {**m, "training_features": nan_at(m["training_features"])},
        "training_features",
    ),
    "nan_cluster_inner": (
        "original_sskkm", lambda m: {**m, "cluster_inner": nan_at(m["cluster_inner"])},
        "cluster_inner",
    ),
    "zero_cluster_wsum": (
        "original_sskkm", lambda m: {**m, "cluster_wsum": [0.0, *m["cluster_wsum"][1:]]},
        "cluster_wsum",
    ),
    "nan_point_weight": (
        "original_sskkm", lambda m: {**m, "point_weights": nan_at(m["point_weights"])},
        "point_weights",
    ),
    "point_weight_above_one": (
        "unbiased_sskkm", lambda m: {**m, "point_weights": [2.0, *m["point_weights"][1:]]},
        "point_weights",
    ),
    # every query overflows: the model, not the query, is at fault
    "tiny_variance": (
        "original_sem",
        lambda m: {**m, "covariances": np.full(np.shape(m["covariances"]), 1e-320).tolist()},
        "is malformed: covariances (min 1e-320)",
    ),
    "huge_mean": (
        "original_sem",
        lambda m: {**m, "means": np.full(np.shape(m["means"]), 1e300).tolist()},
        "and means (max |mean| 1e+300) leave no query",
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

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,label\n1.0,0\n2.0,1\n", encoding="utf-8")
        for method in ("supervised_sem", "askkm"):
            model = self.fit_model(tmp_path, method=method)
            capsys.readouterr()
            assert run(["eval", "--model", model, "--data", bad,
                        "--out", tmp_path / "m.json"]) == 3
            assert "model dimension 2 != data dimension 1" in capsys.readouterr().err

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

        monkeypatch.setattr(evalx, "cross_matrix", spy)
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
        assert not (tmp_path / "m.json").exists()


def scores_from_recomputed_stats(model_path, x, train_gram):
    """Score queries after recomputing every cluster's W_k and w'Kw from a
    full training Gram ``train_gram(train, spec)``."""
    d = json.loads(model_path.read_text())
    model = ClusterModel.from_dict(d.get("final_model", d))
    spec, train = model.kernel_spec, model.train_features
    wsum, _, inner = _cluster_stats(
        train_gram(train, spec), model.cluster_of, model.point_weights, model.n_clusters
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

        monkeypatch.setattr(evalx, "cross_matrix", query_rows_only)
        scores = load_model_scores(model, x)
        assert calls == [x.shape] and scores.shape[1] == 2
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

    def test_cross_matrix_allocation_failure_exits_3(self, tmp_path, data, monkeypatch, capsys):
        # eval's (Q, N) cross matrix is allocated where the Gram is
        model = self.fit(tmp_path, data, "askkm")
        train = load_csv(data)[0]
        q, n = train.n_labeled, train.n_points
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            if shape == (q, n):
                raise MemoryError
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(kernels.np, "empty", empty)
        out = tmp_path / "metrics.json"
        assert run(["eval", "--model", model, "--data", data, "--out", out]) == 3
        err = capsys.readouterr().err
        assert f"Q={q}" in err and f"N={n}" in err and str(8 * q * n) in err
        assert not out.exists()


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

    def test_valid_config_values_are_echoed_as_given(self, tmp_path, dataset_csv):
        # 1 passes --tol's float type, and null passes --gamma, whose default
        # is None. The echo keeps each as written.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tol": 1, "gamma": None}), encoding="utf-8")
        out = tmp_path / "m.json"
        assert run(["fit", "--config", config, "--data", dataset_csv,
                    "--method", "original_sem", "--out-model", out]) == 0
        echo = json.loads(out.read_text())["config"]
        assert (echo["tol"], echo["gamma"]) == (1, None)

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


# sha256 of every file test_shuffled_csv_outputs_match_pinned_digests writes:
# a CSV whose labeled and unlabeled rows interleave and whose classes are
# named out of sorted order ("b" appears first), so the dataset's labeled
# rows, their class ids and the unlabeled rows come from one label column in
# an order no generated file has.
SHUFFLED_DIGESTS = {
    "askkm.criterion.json":
        "3b0f1a2a701e3827fc00fd5bb8f3df1db2ba205767a9464fcb11f12d7ebb3b68",
    "askkm.eval.json":
        "b463ef3e323b9c95d2e7e3c3d5e597e486677b983d38c238159ba00745c12541",
    "askkm.json":
        "c6acb6287223a94571fda1a49cd4092a5ea2a309a4fc94de7590b6a77cac2f8f",
    "original_sem.eval.json":
        "864e5a2181428b728cae6d97d383684b8413fd415436609dce5b1229cde671bf",
    "original_sem.json":
        "7e65fe1cfe07f3bc5ecdf15a6a66471a84b782833abdc3166989f680b5cf80f9",
    "shuffled.csv":
        "b8e6d7b0e30e534fccd36bcbfb6d847da3314840f7ced1888fab75ce5ac501f2",
    "unbiased_sskkm.eval.json":
        "d77b0a818b53795f43fa02074d5987da706cde38555d295da5c11297981783f9",
    "unbiased_sskkm.json":
        "c0abf66a4aeb05df1ee60111f088f29c8ff5b6d2910d6b06acd706c4b797ba52",
}


def test_shuffled_csv_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "--kind", "misspecified", "--class-sep", 3.0, "--labeled-per-class", 6,
                "--unlabeled", 60, "--seed", 46, "--out-data", "generated.csv",
                "--out-truth", "truth.json"]) == 0
    header, *rows = Path("generated.csv").read_text(encoding="utf-8").splitlines()
    Path("generated.csv").unlink()
    Path("truth.json").unlink()
    names = {"0": "b", "1": "a", "?": "?"}
    rows = [row.rsplit(",", 1) for row in rows]
    lines = [f"{rows[i][0]},{names[rows[i][1]]}"
             for i in np.random.default_rng(46).permutation(len(rows))]
    labels = [line.rsplit(",", 1)[1] for line in lines]
    assert labels[:5] == ["?", "?", "?", "?", "b"] and "a" in labels[5:12]
    Path("shuffled.csv").write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    for method, extra in (("original_sem", []), ("unbiased_sskkm", []),
                          ("askkm", ["--out-criterion", "askkm.criterion.json"])):
        assert run(["fit", "--data", "shuffled.csv", "--method", method, *extra,
                    "--out-model", f"{method}.json"]) == 0
        assert run(["eval", "--model", f"{method}.json", "--data", "shuffled.csv",
                    "--verbose", "--out", f"{method}.eval.json"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path().iterdir())}
    assert digests == SHUFFLED_DIGESTS


# sha256 of every file test_bench_size_outputs_match_pinned_digests writes:
# an askkm fit (with its criterion) and an original_sskkm fit at N = 6,020,
# on the gen flags of the askkm_cli benchmark at a seed in none of its pools,
# and the evals of both. At this size the fits update their member sums from
# the moved rows of K between full products, in gathers of many blocks.
BENCH_SIZE_DIGESTS = {
    "askkm.criterion.json":
        "6fc74f45c9245abf5c46483a77b64230f42f4f5427a78bef85bcab90c4c8d90d",
    "askkm.eval.json":
        "6835e6a922bb4a1b1235bee53e42c6ee3172adec28a29a636ffa4b44f9e8214d",
    "askkm.json":
        "18f57e6ee8baeffe77ef5db714e46eb13a11110a560d7c02097eea48291b866c",
    "data.csv":
        "891dfa20e52ed913af7b214f3df111f2bab1d72e7cda196045282bbb3d7abfbb",
    "heldout.csv":
        "4ee38a822cbcf83cefa58910a18311e303276065712c4e357a0927d2a606b0ca",
    "heldout.truth.json":
        "de9d0cf2f5fa9cb060f3a29a04756e5c6c99a6be479510779067891d8d8f2340",
    "original_sskkm.eval.json":
        "07404abb2ff52546d8c361103deff544828b2ffd81c8040b86ba29aaf834ede7",
    "original_sskkm.json":
        "3376aca41dd3a36b109710703071b0323d576954c40ab9f9c45c8ae52e800fbc",
    "truth.json":
        "5b2cfde8c7dc125ab86a8ecadc8ea813dc2bd96da67440b2c5d551e7104c2b18",
}


def test_bench_size_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scenario = ["gen", "--kind", "misspecified", "--class-sep", 5, "--subcluster-sep", 8]
    commands = [
        [*scenario, "--labeled-per-class", 10, "--unlabeled", 6000, "--seed", 31,
         "--out-data", "data.csv", "--out-truth", "truth.json"],
        [*scenario, "--labeled-per-class", 200, "--unlabeled", 0, "--seed", 32,
         "--out-data", "heldout.csv", "--out-truth", "heldout.truth.json"],
    ]
    for method, extra in (("askkm", ["--out-criterion", "askkm.criterion.json"]),
                          ("original_sskkm", [])):
        commands.append(["fit", "--data", "data.csv", "--method", method, *extra,
                         "--out-model", f"{method}.json"])
        commands.append(["eval", "--model", f"{method}.json", "--data", "heldout.csv",
                         "--verbose", "--out", f"{method}.eval.json"])
    for argv in commands:
        assert run(argv) == 0, argv
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path().iterdir())}
    assert digests == BENCH_SIZE_DIGESTS


SEM_SIZE_DIGESTS = {
    "data.csv":
        "e6df343b20fc6f10156a8802a9094739c8fda472703401bfa566d0c4f2f54df2",
    "heldout.csv":
        "e34cdf65d37786fca06c74e960556b80850c8080fad8c4757cc7afc7031b2c2d",
    "heldout.truth.json":
        "0f778af54fb053f7dd6cd70ca8e4503f3dab49f29a568b0a18fc31c6493b1bd2",
    "original_sem.eval.json":
        "581028ac0c198cb06a84659f4e424aeab502fc72ee93d8bad5f070a93cb476cb",
    "original_sem.json":
        "7f7f770ae5a3e6162f9fb0fb3c1f2ba2cb384425594b429c1196c1d04d993d32",
    "original_sem_k4.eval.json":
        "173bb0c5f3776a80289b5cf4c84ac22d302b5e16f2a324dc92718814fd9dddf6",
    "original_sem_k4.json":
        "056ab25c3b8fb2f1efae31d4334d7789725addd3bdae2c9c6ccaa8c38a03a6b3",
    "supervised.eval.json":
        "c67dfb6099451577d439b83ffa79934fc799722d8bd7d507231ca9baad14d733",
    "supervised.json":
        "d59147d0abec2727b35e0043dc4c31982d19faf204d8fdd6d1f74c47f82da6c0",
    "truth.json":
        "fd56ec52c4a3cd6843d6f5f79758d185e81f4cd029427ffd07f682c5d54814da",
    "unbiased_sem.eval.json":
        "c16689ab9077eb2f885bae09e1b9c63951cf02ede7dc0f06793cdff1e17dbf9a",
    "unbiased_sem.json":
        "303d08d1cfb29c8b6e235fd87c6371d36a0c2a18330adde93b1877da89a83bfa",
}


def test_sem_size_outputs_match_pinned_digests(tmp_path, monkeypatch):
    # The semgmm fits at the bench's N_u = 20,000: 91, 12, 36 and 1 EM
    # iterations for original, unbiased, original at K = 4 and supervised.
    monkeypatch.chdir(tmp_path)
    scenario = ["gen", "--kind", "misspecified", "--class-sep", 5, "--subcluster-sep", 8]
    commands = [
        [*scenario, "--labeled-per-class", 10, "--unlabeled", 20000, "--seed", 41,
         "--out-data", "data.csv", "--out-truth", "truth.json"],
        [*scenario, "--labeled-per-class", 200, "--unlabeled", 0, "--seed", 42,
         "--out-data", "heldout.csv", "--out-truth", "heldout.truth.json"],
    ]
    for name, method, extra in (("original_sem", "original_sem", []),
                                ("unbiased_sem", "unbiased_sem", []),
                                ("original_sem_k4", "original_sem", ["--components", 4]),
                                ("supervised", "supervised", [])):
        commands.append(["fit", "--data", "data.csv", "--method", method, *extra,
                         "--out-model", f"{name}.json"])
        commands.append(["eval", "--model", f"{name}.json", "--data", "heldout.csv",
                         "--verbose", "--out", f"{name}.eval.json"])
    for argv in commands:
        assert run(argv) == 0, argv
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path().iterdir())}
    assert digests == SEM_SIZE_DIGESTS


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


# sha256 of the eight files fit_and_eval_commands writes at N = 1,500, from
# relative paths, at every thread count.
FAN_OUT_DIGESTS = {
    "askkm.eval.json":
        "defcee363e2e60b458a5a58e99c76ebcd5b85592c1ff376bc243edf211dfbc5e",
    "askkm.json":
        "b495e665f2058817a7457282c2e82a7ac1858ccc69af17e19be9e1442133feca",
    "askkm_manhattan.eval.json":
        "a35246e59c1b6bb242de6be233a4c70385725847c605214ec60e2cb1e60078e5",
    "askkm_manhattan.json":
        "251e752870b5e57093b98fb61e0a1ab85bb2d9ccef0a6935c2c51130938d58ed",
    "original_sskkm.eval.json":
        "7350aeb9d4dd5a1e480f28ac12e84d9605601212d577ab719f45fa53aee2ad9a",
    "original_sskkm.json":
        "00cca6b0ca8837766f38462176a2ca22318e576bddba33778e88d5b2b85e8b9d",
    "unbiased_sskkm.eval.json":
        "49a7ded0d90538af510c6e6c4790f9caf4e2cd528c087507b33afea3fdf5a627",
    "unbiased_sskkm.json":
        "12d044eecb9fc8eac45c41929b001ea791d4633622e41fb0e2b714e85b3dc639",
}


@pytest.mark.skipif(core._usable_cpus() < 2, reason="needs 2 CPUs for a second pool thread")
def test_fit_and_eval_bytes_independent_of_fan_out_threads(tmp_path, monkeypatch):
    # N = 1,500 training rows and 1,500 eval rows: the Gram, the askkm fit
    # pairs and the eval cross matrix all sit above FAN_OUT_MIN_ENTRIES.
    monkeypatch.chdir(tmp_path)
    scenario = ["gen", "--kind", "misspecified", "--class-sep", 5]
    assert run([*scenario, "--unlabeled", 1480, "--seed", 21,
                "--out-data", "data.csv", "--out-truth", "truth.json"]) == 0
    assert run([*scenario, "--unlabeled", 0, "--labeled-per-class", 750, "--seed", 22,
                "--out-data", "heldout.csv", "--out-truth", "heldout.truth.json"]) == 0
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
        for argv in fit_and_eval_commands("../data.csv", "../heldout.csv"):
            assert run(argv) == 0, argv
        seen[cap] = set(threads)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir())}
        assert digests == FAN_OUT_DIGESTS, cap
    here = threading.get_ident()
    assert seen["1"] == {here}
    assert len(seen[None] - {here}) >= 2


# The kernel paths no set above covers, each fitted by original_sskkm and
# askkm on N = 600 and N = 1,500 training rows and evaluated with --verbose
# on one held-out file per dataset: (training data stem, fit flags).
KERNEL_PATHS = {
    "linear": ("d2", ["--kernel", "linear"]),
    # from EUCLIDEAN_FOLD_BELOW features on, the euclidean distance is a matmul
    "rbf_d7": ("d7", []),
    "chi_square": ("d2_shifted", ["--kernel", "generalized_rbf", "--distance", "chi_square"]),
    "rbf_c3": ("c3", []),
}


def write_kernel_path_data():
    """The datasets of KERNEL_PATHS in the working directory: 2 classes at 2
    and 7 features and 3 classes at 2, at N = 600 and 1,500 (1,510 for 3
    classes), each with one held-out file of 1,400 rows (1,440 for 3 classes),
    so the N = 1,500 evals' cross matrices are fanned out. d2_shifted is d2
    with every feature shifted by one integer to be nonnegative."""
    scenario = ["gen", "--kind", "misspecified", "--class-sep", 5]
    for stem, extra, per_class in (("d2", [], 700), ("d7", ["--dim", 7], 700),
                                   ("c3", ["--classes", 3], 480)):
        for n in (600, 1500):
            assert run([*scenario, *extra, "--unlabeled", n - 20, "--seed", 61,
                        "--out-data", f"{stem}_{n}.csv", "--out-truth", "truth.json"]) == 0
        assert run([*scenario, *extra, "--unlabeled", 0, "--labeled-per-class", per_class,
                    "--seed", 62, "--out-data", f"{stem}_heldout.csv",
                    "--out-truth", "truth.json"]) == 0
    files = {name: load_csv(f"d2_{name}.csv")[0] for name in ("600", "1500", "heldout")}
    shift = -np.floor(min(d.features.min() for d in files.values()))
    for name, d in files.items():
        write_csv(replace(d, features=d.features + shift), f"d2_shifted_{name}.csv")


# sha256 of the 32 files kernel_path_commands writes, at every thread count.
# Recorded before the Gram became the cross matrix of the training rows.
KERNEL_PATH_DIGESTS = {
    "1500_chi_square_askkm.eval.json":
        "d9c183994091a08524510a13a4cbcb80f588e081f18d0698aee75c120847fc0d",
    "1500_chi_square_askkm.json":
        "5eed0afc8f6886aecd21fed862da2696388b8fa048ae2519e3860800cd395740",
    "1500_chi_square_original_sskkm.eval.json":
        "d7876b5a92a4ec05a0e9a903d3c5677f1725cb5d3ca233794068b8a0f3ad861f",
    "1500_chi_square_original_sskkm.json":
        "40ba12dbbb80459a0019cc184980da30a9e90c97012a6613e4ac385876fefcc4",
    "1500_linear_askkm.eval.json":
        "44e6d8d76513466c6822d09f48fbcb664f0e6c5cd141231347e203f3ef788e4a",
    "1500_linear_askkm.json":
        "d2c754d54f818ca59364959ddc9ba9bb29bce7f6e14b4d5b02e6f3d71e8bc9f6",
    "1500_linear_original_sskkm.eval.json":
        "11979f9ea18a296784be2126407236b8962d777b6254eaecf871db8f75f371ee",
    "1500_linear_original_sskkm.json":
        "891d3a53a0bc35f8f6a22dcce597e2a889445fd8e44a74892a694ce0ea3fc0ec",
    "1500_rbf_c3_askkm.eval.json":
        "8007285a283ac52fbe8141a0ba7abd974454371fb81d59ea94444459f80ae6c9",
    "1500_rbf_c3_askkm.json":
        "8319f4730ccd511a5e193426f07988d84fdcdd8335e6a761f2b4b37f5bc6d281",
    "1500_rbf_c3_original_sskkm.eval.json":
        "7be27baad783f538e09c733619d828687c66b4259b808d0f0489b1247ac2c940",
    "1500_rbf_c3_original_sskkm.json":
        "fb85b608ceca0f01674e4edf257064718d92a4610424cc2825c005aa316aafd7",
    "1500_rbf_d7_askkm.eval.json":
        "1395eaa187983c427a7d9842e27750862490cac01ca7f35ab65161a21e963f6a",
    "1500_rbf_d7_askkm.json":
        "5d9100466bb98b783c7eaab08aa2cfe531d0cb470d048476519e5d1a99573660",
    "1500_rbf_d7_original_sskkm.eval.json":
        "7224851f03a57a34017e583a5e606281f7017fa216ee890e93dabfee5bd238b3",
    "1500_rbf_d7_original_sskkm.json":
        "8db90ef8118f467e0e917162f0312d4a57d65b7205a7ce021c2a979d0b696692",
    "600_chi_square_askkm.eval.json":
        "b0595f72da1c37b4a9b68a3c2487e69a3a9f7af0150c46f064895b85fd30180a",
    "600_chi_square_askkm.json":
        "c31b421d31e4c1902720fb04dc1f69f8bbf89aa279cfeb27fa44aaba6d185572",
    "600_chi_square_original_sskkm.eval.json":
        "64d3ded082dfec6a14c002759da72ff109e1d718fbaf06b8395c8005be22a2ba",
    "600_chi_square_original_sskkm.json":
        "ac17d587f9c8af41e48530ef3482b02e2078b5acd5f0ac17c56cbd91778738f7",
    "600_linear_askkm.eval.json":
        "595c8d3f5023281b29b687ae4fbfa673acfcf3a23f3780ae585e6f77035597ce",
    "600_linear_askkm.json":
        "077fe2514555043ce5fe57b0b2e016c866ef9bde366eb7d4c9333021343720e5",
    "600_linear_original_sskkm.eval.json":
        "b6b2fcc3d7763936b29aaf7d94835fd8fc2ee3f800705566ee49558251c6410a",
    "600_linear_original_sskkm.json":
        "276564945e0f8178fb61729babbf97dd8074aa345510ea1a5072edc6d7fe0628",
    "600_rbf_c3_askkm.eval.json":
        "467cb649ddf3887dbe2d63e76902a4974554b23eaf9477f377c1c09ffb8c7fd6",
    "600_rbf_c3_askkm.json":
        "9ac761e6393d2e0fa7d998d56fb58b6ac842242fc005540347d05d206cd94382",
    "600_rbf_c3_original_sskkm.eval.json":
        "798ca3b15a82d5cc94cc3892809f400d1090e44eba7bbe7ba0dc5399390ac4e8",
    "600_rbf_c3_original_sskkm.json":
        "2f6c06ee10f1739c216c81a9721db4a0f444ba7d92daaccbc188d8a342ba7ad3",
    "600_rbf_d7_askkm.eval.json":
        "66dc7d108ab0d029279de409d71d62bb4dc3bcdb25b4b6d9626416fa71c4a512",
    "600_rbf_d7_askkm.json":
        "453200766b79cd30d7218e84fff2db2df9ba094c75f4a92a0291fda3deeaf5ca",
    "600_rbf_d7_original_sskkm.eval.json":
        "6e313099db0e41eff30f8b73ba8083392ca5f78646272f24ec8ccb44ffdd1d00",
    "600_rbf_d7_original_sskkm.json":
        "81e37b8290949ce07d523712bf245203d337e7aa2d72a3c193450ec8b6f73aca",
}


def kernel_path_commands(data_dir):
    commands = []
    for n in (600, 1500):
        for path, (stem, flags) in KERNEL_PATHS.items():
            for method in ("original_sskkm", "askkm"):
                name = f"{n}_{path}_{method}"
                commands.append(["fit", "--data", f"{data_dir}/{stem}_{n}.csv",
                                 "--method", method, *flags, "--out-model", f"{name}.json"])
                commands.append(["eval", "--model", f"{name}.json",
                                 "--data", f"{data_dir}/{stem}_heldout.csv", "--verbose",
                                 "--out", f"{name}.eval.json"])
    return commands


def test_kernel_path_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_kernel_path_data()
    assert 1400 * 1500 >= core.FAN_OUT_MIN_ENTRIES > 1440 * 600
    for cap in ("1", None):
        out = tmp_path / f"threads-{cap}"
        out.mkdir()
        monkeypatch.chdir(out)
        if cap is None:
            monkeypatch.delenv(ENV_THREADS, raising=False)
        else:
            monkeypatch.setenv(ENV_THREADS, cap)
        for argv in kernel_path_commands(".."):
            assert run(argv) == 0, argv
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir())}
        assert digests == KERNEL_PATH_DIGESTS, cap


def curve_digest_commands():
    """A `curve` of the benchmark's four methods and unbiased_sskkm at one and
    at two workers, whose largest cells hold N = 520 rows, and `fit` and plain (non-verbose)
    `eval` of one askkm model at N = 520, writing into the working directory."""
    scenario = ["--kind", "misspecified", "--class-sep", 5]
    commands = [
        ["gen", *scenario, "--unlabeled", 500, "--seed", 71,
         "--out-data", "data.csv", "--out-truth", "truth.json"],
        ["gen", *scenario, "--unlabeled", 0, "--labeled-per-class", 100, "--seed", 72,
         "--out-data", "heldout.csv", "--out-truth", "heldout.truth.json"],
        ["fit", "--data", "data.csv", "--method", "askkm", "--out-model", "askkm.json"],
        ["eval", "--model", "askkm.json", "--data", "heldout.csv", "--out", "askkm.eval.json"],
    ]
    methods = "original_sem,unbiased_sem,original_sskkm,unbiased_sskkm,askkm"
    for workers in (1, 2):
        commands.append(["curve", *scenario, "--grid", "0,50,500", "--seeds", 2,
                         "--eval-size", 100, "--seed", 73, "--workers", workers,
                         "--methods", methods,
                         "--out-json", f"curve{workers}.json", "--out-csv", f"curve{workers}.csv"])
    return commands


# sha256 of the files curve_digest_commands writes, at every thread setting.
# Recorded before curve cells ran on the calling thread below the fan-out
# floor, and before askkm's first round stood in for the cell's sskkm fits.
CURVE_DIGESTS = {
    "askkm.eval.json":
        "5afe58c2a46bcac61cbeec096ef66d03c3b50f0d25b9b69ecd84daa1ffb0ce39",
    "askkm.json":
        "8e08173c138360d9694c037d02d3d354bf067f22d18bd61e7140d48cfb2330f5",
    "curve1.csv":
        "86fbdda062f2a9e79b16681556159ebf642b2f35a81d5ee5af2921a0af1378c6",
    "curve1.json":
        "be10ceb5e8b81063e213d14e02da378760b4c90dbacb1ad8fffc9faa17f7dc6c",
    "curve2.csv":
        "86fbdda062f2a9e79b16681556159ebf642b2f35a81d5ee5af2921a0af1378c6",
    "curve2.json":
        "f6e64dc026ee85025138e6cb437770926dc78672a9098437ce3191deabf68bfa",
    "data.csv":
        "0dd99fe8a84b80acf106e26aeb681b31988d21f777b5452e0c5af4dd7c802193",
    "heldout.csv":
        "9b6eed9e59349cc2595f89d7f4ac9e9dca5a5ee4a56c643cca772ee7402d42c0",
    "heldout.truth.json":
        "982103c1f076a65b0038572a3f4e2e5ebb4647f16dccc1105ded6770cdf4d6b9",
    "truth.json":
        "c45d86ebd90ea8fd37fd4de25541e212cd4d5c3ac56072644646c7ea6ae7aaa9",
}


@pytest.mark.parametrize("threads, floor", [(1, None), (2, None), (2, 0)])
def test_curve_outputs_match_pinned_digests(tmp_path, monkeypatch, fan_out_threads, cell_log,
                                            threads, floor):
    # With two threads the cells of --workers 2 run in two worker processes;
    # with the fan-out floor at 0 as well, every Gram, cross matrix and askkm
    # pair of --workers 1 fans out, and none inside a worker.
    monkeypatch.chdir(tmp_path)
    fan_out_threads(threads)
    if floor is not None:
        monkeypatch.setattr(core, "FAN_OUT_MIN_ENTRIES", floor)
    for argv in curve_digest_commands():
        assert run(argv) == 0, argv
        pids = {pid for pid, _ in cell_log()}
        if argv[0] == "curve" and argv[argv.index("--workers") + 1] == 2 and threads == 2:
            assert len(pids) == 2 and os.getpid() not in pids
        else:
            assert pids <= {os.getpid()}
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert digests == CURVE_DIGESTS


def above_floor_curve_commands():
    """A `curve` of the benchmark's four methods and unbiased_sskkm at one and
    at two workers, whose largest cells hold N = 1,450 rows, above the 2²¹
    Gram entries of the fan-out floor (1,449 rows), and whose cells are
    above the process floor of learning_curve; it writes into the working
    directory."""
    methods = "original_sem,unbiased_sem,original_sskkm,unbiased_sskkm,askkm"
    return [["curve", "--kind", "misspecified", "--class-sep", 5, "--grid", "0,100,1430",
             "--seeds", 2, "--eval-size", 100, "--seed", 91, "--workers", workers,
             "--methods", methods,
             "--out-json", f"curve{workers}.json", "--out-csv", f"curve{workers}.csv"]
            for workers in (1, 2)]


# sha256 of the files above_floor_curve_commands writes, with the default
# floors, at every thread cap. Recorded while cells above the fan-out floor
# still ran on threads, before they ran in worker processes.
ABOVE_FLOOR_CURVE_DIGESTS = {
    "curve1.csv":
        "76e8e3308a2694c8acecb525a399cc83e8bae60115fb2601760a2ac441330f4d",
    "curve1.json":
        "c47d60197fc29a1dd307a6896cff8b3814bc4598287f25326c9d37999620a2ad",
    "curve2.csv":
        "76e8e3308a2694c8acecb525a399cc83e8bae60115fb2601760a2ac441330f4d",
    "curve2.json":
        "dd4f25fc16d960838c967e979a3ac5e100d1751290e765f27751068209e51ea2",
}


@pytest.mark.parametrize("cap", ["1", None])
def test_above_floor_curve_outputs_match_pinned_digests(tmp_path, monkeypatch, fan_out_threads,
                                                        cell_log, cap):
    # Without the cap, the cells of --workers 2 run in two worker processes,
    # and the Gram of a cell of 1,450 rows at --workers 1 fans out.
    monkeypatch.chdir(tmp_path)
    fan_out_threads(2)
    if cap is None:
        monkeypatch.delenv(ENV_THREADS, raising=False)
    else:
        monkeypatch.setenv(ENV_THREADS, cap)
    for argv in above_floor_curve_commands():
        assert run(argv) == 0, argv
        pids = {pid for pid, _ in cell_log()}
        if argv[argv.index("--workers") + 1] == 2 and cap is None:
            assert len(pids) == 2 and os.getpid() not in pids
        else:
            assert pids == {os.getpid()}
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert digests == ABOVE_FLOOR_CURVE_DIGESTS


def test_above_floor_curve_with_too_little_memory_for_two_grams_runs_inline(
        tmp_path, monkeypatch, fan_out_threads, cell_log):
    # The largest cell's Gram, 1,450 rows, takes 16.8 MB per worker: with
    # less than two of them available, --workers 2 runs the cells inline
    # and writes the same bytes.
    monkeypatch.chdir(tmp_path)
    fan_out_threads(2)
    monkeypatch.delenv(ENV_THREADS, raising=False)
    monkeypatch.setattr(evalx, "available_memory", lambda: 2 * 8 * 1450**2 - 1)
    for argv in above_floor_curve_commands():
        assert run(argv) == 0, argv
        assert {pid for pid, _ in cell_log()} == {os.getpid()}
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert digests == ABOVE_FLOOR_CURVE_DIGESTS


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# sha256 of the files `curve --config scripts/degradation_curve.json --seeds 1`
# writes at one and at two workers. Its cells other than the largest hold 950
# training rows, above the process floor of learning_curve, so the second run
# forks. Recorded before models serialized, loaded and scored themselves.
DEGRADATION_CURVE_DIGESTS = {
    "curve1.csv":
        "09ecc8f9dd63515918c4447c26d3a6ecdbbfc37b3f0e7378832cb708ca2c25d4",
    "curve1.json":
        "d522d78cbb9a52a4cefea1128db5a01e09123f2421ca010456731ce62f2275a9",
    "curve2.csv":
        "09ecc8f9dd63515918c4447c26d3a6ecdbbfc37b3f0e7378832cb708ca2c25d4",
    "curve2.json":
        "24e51635e071255c01f92c79e01876b2aa85d9bd5bb2a563b3fad001121e0518",
}


def test_degradation_curve_outputs_match_pinned_digests(tmp_path, monkeypatch, fan_out_threads,
                                                        cell_log):
    monkeypatch.chdir(tmp_path)
    fan_out_threads(2)
    for workers in (1, 2):
        assert run(["curve", "--config", SCRIPTS / "degradation_curve.json", "--seeds", 1,
                    "--workers", workers, "--out-json", f"curve{workers}.json",
                    "--out-csv", f"curve{workers}.csv"]) == 0
        pids = {pid for pid, _ in cell_log()}
        if workers == 2:
            assert len(pids) == 2 and os.getpid() not in pids
        else:
            assert pids == {os.getpid()}
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert digests == DEGRADATION_CURVE_DIGESTS


def test_killed_curve_worker_exits_3(tmp_path, monkeypatch, fan_out_threads, capfd):
    # Cells other than the largest hold 540 training rows, so two workers
    # fork; the cell at N_u = 500 sends its own worker SIGKILL, as the OOM
    # killer would.
    parent = os.getpid()

    def cell(scenario, methods, nu, *rest):
        if nu == 500 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return dict.fromkeys(methods, 0.5)

    monkeypatch.setattr(evalx, "_evaluate_cell", cell)
    fan_out_threads(2)
    out = tmp_path / "curve.json"
    assert run(["curve", "--grid", "0,500,1000", "--seeds", 1, "--workers", 2,
                "--out-json", out, "--out-csv", tmp_path / "curve.csv"]) == 3
    assert capfd.readouterr().err == ("error: a worker process ended before its job finished "
                                      "(for example, killed for memory)\n")
    assert not out.exists()


def process_start(pid):
    """The start time of process ``pid`` (/proc/<pid>/stat), or None once it
    has ended: gone, or a zombie that no one has reaped."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except FileNotFoundError:
        return None
    return None if fields[0] == "Z" else fields[19]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl and /proc")
def test_curve_workers_die_with_a_killed_parent(tmp_path):
    # A forking curve in a subprocess whose cells log their pid and then
    # sleep: SIGTERM to the subprocess mid-curve must take its workers along.
    log = tmp_path / "cells.log"
    code = (
        "import os, sys, time\n"
        "from misspec_ssl import cli, core, evalx\n"
        "core._usable_cpus = lambda: 2\n"
        "def cell(*args):\n"
        f"    with open({str(log)!r}, 'a') as fh:\n"
        "        fh.write(f'{os.getpid()}\\n')\n"
        "    time.sleep(60)\n"
        "evalx._evaluate_cell = cell\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != ENV_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["curve", "--grid", "0,500,1000", "--seeds", "1", "--workers", "2",
            "--out-json", str(tmp_path / "curve.json"), "--out-csv", str(tmp_path / "curve.csv")]
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = {}  # pid -> start time, so that a reused pid is never signalled
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
            pids = {int(p) for p in log.read_text().split()} if log.exists() else set()
            workers = {pid: process_start(pid) for pid in pids}
        assert len(workers) == 2 and None not in workers.values(), workers
        proc.terminate()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            alive = [pid for pid, start in workers.items() if process_start(pid) == start]
            if not alive:
                break
            time.sleep(0.02)
        assert not alive, f"workers {alive} outlived their parent"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid, start in workers.items():
            if start is not None and process_start(pid) == start:
                os.kill(pid, signal.SIGKILL)


def test_error_in_unbiased_half_exits_3_as_on_one_thread(
    tmp_path, dataset_csv, fan_out_threads, monkeypatch, capsys
):
    monkeypatch.setattr(core, "FAN_OUT_MIN_ENTRIES", 0)
    real = askkm.fit_sskkm

    def failing(km, d, label_map, opts, init=None):
        if opts.unlabeled_weight_mode == "unbiased":
            raise InputError(f"unbiased half failed at K={label_map.n_fine}")
        return real(km, d, label_map, opts, init=init)

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
