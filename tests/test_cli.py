import functools
import hashlib
import json
import operator
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
from hypothesis import given, settings
from hypothesis import strategies as st

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
    "weight_above_one": (["fit", "--data", "data.csv", "--method", "original_sem",
                          "--weight", "1.5"], 3, "in [0, 1], got 1.5"),
    "weight_nan": (["fit", "--data", "data.csv", "--method", "original_sskkm",
                    "--weight", "nan"], 3, "in [0, 1], got nan"),
    "weight_before_missing_data": (["fit", "--data", "missing.csv", "--method", "original_sem",
                                    "--weight", "1.5"], 3, "in [0, 1], got 1.5"),
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
    "config_method_not_a_choice": (["fit", "--data", "data.csv", "--config", "method_bogus.json"],
                                   2, 'config key method: "bogus" is no valid --method value'),
    "config_kernel_not_a_choice": (["fit", "--data", "data.csv", "--method", "original_sskkm",
                                    "--config", "kernel_bogus.json"], 2,
                                   'config key kernel: "bogus" is no valid --kernel value'),
    "config_grid_list": (["curve", "--config", "grid_list.json", "--eval-size", 20,
                          "--methods", "original_sem"], 2,
                         "config key grid: [0, 50] is no valid --grid value"),
    "config_methods_null": (["curve", "--config", "methods_null.json", "--grid", 0,
                             "--eval-size", 20], 2,
                            "config key methods: null is no valid --methods value"),
    "config_verbose_string": (["eval", "--model", "model.json", "--data", "data.csv",
                               "--config", "verbose_no.json"], 2,
                              'config key verbose: "no" is no valid --verbose value'),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_cleanly(tmp_path, dataset_csv, monkeypatch, capsys, case):
    argv, code, message = BAD_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    Path("dir").mkdir()
    Path("latin1.csv").write_bytes("f0,label\n1.0,caf\xe9\n".encode("latin-1"))
    Path("header_only.csv").write_text("f0,f1,label\n", encoding="utf-8")
    for name, config in (("max_iter_null", {"max_iter": None}), ("seeds_list", {"seeds": [1]}),
                         ("threshold_float", {"threshold": 1.5}),
                         ("method_bogus", {"method": "bogus"}),
                         ("kernel_bogus", {"kernel": "bogus"}),
                         ("grid_list", {"grid": [0, 50]}), ("methods_null", {"methods": None}),
                         ("verbose_no", {"verbose": "no"})):
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


def test_exit_codes_reach_the_process(tmp_path):
    # cli.py's sys.exit(main()) hands main's return value to the process.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != ENV_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv, cap, code in [
        (["gen", "--unlabeled", "10"], None, 0),
        (["fit", "--data", "missing.csv", "--method", "original_sem"], None, 2),
        (["fit", "--data", "missing.csv", "--method", "original_sem", "--weight", "1.5"], None, 3),
        (["fit", "--data", "dataset.csv", "--method", "original_sskkm"], "0", 3),
    ]:
        proc = subprocess.run([sys.executable, "-m", "misspec_ssl.cli", *argv], cwd=tmp_path,
                              env=env if cap is None else {**env, ENV_THREADS: cap},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
    assert "MISSPEC_SSL_THREADS must be at least 1, got '0'" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.csv", "truth.json"]


class TestFit:
    def test_unbiased_sem_echoes_weight(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "model.json"
        code = run(["fit", "--data", dataset_csv, "--method", "unbiased_sem",
                    "--out-model", out])
        assert code == 0
        assert "0.1111" in capsys.readouterr().out  # 10 / (10 + 80)
        payload = json.loads(out.read_text())
        assert payload["unlabeled_weight"] == pytest.approx(10 / 90)
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
        report = json.loads(crit.read_text())["criterion"]
        assert report == model["history"][-1]["criterion"]
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

    def test_weight_flag(self, tmp_path, dataset_csv):
        out = tmp_path / "w.json"
        run(["fit", "--data", dataset_csv, "--method", "original_sem",
             "--weight", 0.25, "--out-model", out])
        assert json.loads(out.read_text())["unlabeled_weight"] == 0.25

    @pytest.mark.parametrize("method, weight", [("original_sem", 1.5), ("original_sskkm", 1.5),
                                                ("unbiased_sskkm", -0.5), ("askkm", 0.5)])
    def test_weight_checked_before_the_data_is_read(
        self, tmp_path, dataset_csv, monkeypatch, method, weight
    ):
        calls = []
        for name in ("load_csv", "gram_matrix"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
        out = tmp_path / "m.json"
        assert run(["fit", "--data", dataset_csv, "--method", method, "--weight", weight,
                    "--out-model", out]) == 3
        assert calls == [] and not out.exists()

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
        assert payloads[0]["unlabeled_weight"] == 0.0

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

    @pytest.mark.parametrize("cap, rule", [("two", "an integer"), ("0", "at least 1"),
                                           ("-3", "at least 1")])
    def test_thread_cap_that_is_no_integer_exits_3(self, tmp_path, monkeypatch, capsys, cap, rule):
        monkeypatch.setenv(ENV_THREADS, cap)
        assert self.run_curve(tmp_path, extra=["--workers", 2]) == 3
        assert f"MISSPEC_SSL_THREADS must be {rule}, got '{cap}'" in capsys.readouterr().err
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
        "unrecognized model family ['sem']",
    ),
}


def nan_at(values):
    """``values`` (a list, or a list of lists) with its first number NaN."""
    first = values[0]
    return [nan_at(first) if isinstance(first, list) else float("nan"), *values[1:]]


def repeat_a_labeled_row(m):
    """``m`` with one of its labeled_rows listed twice, in place of the next
    row of the same fine label, so that every row keeps its fine label."""
    rows, fine = m["labeled_rows"], m["label_map"]["fine_of_point"]
    j = next(j for j in range(1, len(rows)) if fine[j] == fine[j - 1])
    return {**m, "labeled_rows": [*rows[:j], rows[j - 1], *rows[j + 1:]]}


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
    "full_covariances": (
        "unbiased_sem",
        lambda m: {**m, "covariances": [np.diag(v).tolist() for v in m["covariances"]]},
        "covariances (2, 2, 2) must have shape (2, 2)",
    ),
    "truncated_assignments": (
        "original_sskkm", lambda m: {**m, "assignments": m["assignments"][:-1]}, "assignments"
    ),
    "fine_to_class_out_of_range": (
        "unbiased_sskkm",
        lambda m: {**m, "label_map": {**m["label_map"], "fine_to_class": [0, 7]}},
        "fine_to_class",
    ),
    "labeled_row_out_of_range": (
        "askkm", lambda m: {**m, "labeled_rows": [*m["labeled_rows"][:-1], len(m["assignments"])]},
        "labeled_rows must list",
    ),
    "nan_mean": ("original_sem", lambda m: {**m, "means": nan_at(m["means"])}, "means"),
    "labeled_row_repeated": ("original_sskkm", repeat_a_labeled_row, "labeled_rows must list"),
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
    "labeled_row_off_its_fine_label": (
        "unbiased_sskkm",
        lambda m: {**m, "assignments": [1 - c if i == m["labeled_rows"][0] else c
                                        for i, c in enumerate(m["assignments"])]},
        "each assigned its fine label",
    ),
    "nan_unlabeled_weight": (
        "original_sskkm", lambda m: {**m, "unlabeled_weight": float("nan")},
        "unlabeled_weight must be finite and in [0, 1], got nan",
    ),
    "unlabeled_weight_above_one": (
        "askkm", lambda m: {**m, "unlabeled_weight": 1.5}, "unlabeled_weight must be finite",
    ),
    "class_names_repeated": (
        "original_sem", lambda m: {**m, "classes": ["0", "0"]},
        "classes must list 2 distinct names",
    ),
    "class_names_not_strings": (
        "original_sem", lambda m: {**m, "classes": [0, 1]}, "classes must list 2 distinct",
    ),
    "class_names_one_too_many": (
        "supervised_sem", lambda m: {**m, "classes": ["0", "1", "2"]},
        "classes must list 2 distinct",
    ),
    # a value of the wrong type is rejected, never cast
    "fractional_assignments": (
        "original_sskkm", lambda m: {**m, "assignments": [c + 0.5 for c in m["assignments"]]},
        "assignments must hold integers only",
    ),
    "fractional_labeled_rows": (
        "askkm", lambda m: {**m, "labeled_rows": [r + 0.7 for r in m["labeled_rows"]]},
        "labeled_rows must hold integers only",
    ),
    "fractional_fine_of_point": (
        "unbiased_sskkm",
        lambda m: {**m, "label_map": {**m["label_map"], "fine_of_point": [
            f + 0.9 for f in m["label_map"]["fine_of_point"]]}},
        "fine_of_point must hold integers only",
    ),
    "fractional_comp_map": (
        "original_sem", lambda m: {**m, "comp_map": [0.6, 1.9]}, "comp_map must hold integers",
    ),
    "fractional_n_classes": (
        "unbiased_sem", lambda m: {**m, "n_classes": 2.5}, "n_classes must hold integers only",
    ),
    "boolean_unlabeled_weight": (
        "original_sskkm", lambda m: {**m, "unlabeled_weight": True},
        "unlabeled_weight must hold numbers only",
    ),
    "boolean_gamma": (
        "askkm", lambda m: {**m, "kernel": {**m["kernel"], "gamma": True}},
        "gamma must hold numbers only",
    ),
    "converged_string": (
        "original_sskkm", lambda m: {**m, "converged": "no"},
        "converged must be true or false, got 'no'",
    ),
    "converged_number": (
        "askkm", lambda m: {**m, "converged": 7}, "converged must be true or false, got 7",
    ),
    "comp_map_without_a_class": (
        "original_sem", lambda m: {**m, "comp_map": [0, 0]},
        "comp_map must map the 2 components onto every class 0..1",
    ),
    "weights_all_zero": (
        "original_sem", lambda m: {**m, "weights": [0.0, 0.0]}, "weights must not all be 0",
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
        # a dataset needs two classes, even where the model has both
        model = self.fit_model(tmp_path)
        header, *rows = (tmp_path / "data.csv").read_text().splitlines()
        data = tmp_path / "part.csv"
        data.write_text("\n".join([header, *(r for r in rows if r.rsplit(",", 1)[1] in keep)])
                        + "\n")
        out = tmp_path / "m.json"
        assert run(["eval", "--model", model, "--data", data, "--out", out]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["supervised_sem", "askkm"])
    def test_rows_in_reverse_order_give_the_same_metrics(self, tmp_path, method):
        # load_csv numbers the classes in first-appearance order, which the
        # reversal flips; eval matches them to the model's classes by name
        model = self.fit_model(tmp_path, method=method)
        header, *rows = (tmp_path / "data.csv").read_text().splitlines()
        flipped = tmp_path / "reversed.csv"
        flipped.write_text("\n".join([header, *reversed(rows)]) + "\n")
        assert load_csv(tmp_path / "data.csv")[1] == ["0", "1"]
        assert load_csv(flipped)[1] == ["1", "0"]
        metrics = []
        for data in (tmp_path / "data.csv", flipped):
            out = tmp_path / "metrics.json"
            assert run(["eval", "--model", model, "--data", data, "--verbose", "--out", out]) == 0
            payload = json.loads(out.read_text())
            metrics.append((payload["per_class"], payload["mAP"]))
        assert metrics[0] == metrics[1]
        assert metrics[0][1] > 0.9

    def test_label_the_model_never_saw_exits_3(self, tmp_path, capsys):
        model = self.fit_model(tmp_path)
        three = tmp_path / "three"
        three.mkdir()
        assert run(gen_args(three, unlabeled=0, seed=23, classes=3)) == 0
        out = tmp_path / "metrics.json"
        assert run(["eval", "--model", model, "--data", three / "data.csv", "--out", out]) == 3
        assert "holds labels the model never saw: 2" in capsys.readouterr().err
        assert not out.exists()

    def test_class_the_file_lacks_gets_no_ap(self, tmp_path):
        assert run(gen_args(tmp_path, unlabeled=0, seed=23, classes=3)) == 0
        model = tmp_path / "model.json"
        assert run(["fit", "--data", tmp_path / "data.csv", "--method", "supervised_sem",
                    "--out-model", model]) == 0
        header, *rows = (tmp_path / "data.csv").read_text().splitlines()
        two = tmp_path / "two.csv"
        two.write_text("\n".join([header, *(r for r in rows if not r.endswith(",2"))]) + "\n")
        out = tmp_path / "metrics.json"
        assert run(["eval", "--model", model, "--data", two, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert sorted(payload["per_class"]) == ["0", "1"]
        aps = [entry["average_precision"] for entry in payload["per_class"].values()]
        assert payload["mAP"] == (aps[0] + aps[1]) / 2

    @pytest.mark.parametrize("method", ["original_sem", "askkm"])
    def test_model_without_classes_exits_3(self, tmp_path, method, capsys):
        model = self.fit_model(tmp_path, method=method)
        d = json.loads(model.read_text())
        del d["classes"]
        model.write_text(json.dumps(d))
        code = run(["eval", "--model", model, "--data", tmp_path / "data.csv",
                    "--out", tmp_path / "m.json"])
        assert code == 3
        err = capsys.readouterr().err
        assert "lacks the key 'classes'" in err and "refit" in err

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


def numeric_leaves(value, path=()):
    """The paths of every int or float leaf of a JSON value."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [leaf for key, v in items for leaf in numeric_leaves(v, (*path, key))]
    return [path] if type(value) in (int, float) else []


# What a fuzzed leaf x becomes: None drops it.
LEAF_EDITS = {
    "plus_half": lambda x: x + 0.5, "true": lambda x: True, "null": lambda x: None,
    "nan": lambda x: float("nan"), "string": lambda x: "1", "wrapped": lambda x: [x],
    "huge": lambda x: 1e308, "dropped": None,
}


@pytest.fixture(scope="module")
def fuzz_models(tmp_path_factory):
    """An original_sem and an askkm model file, as JSON, with the paths of
    the numeric leaves that the loader reads (askkm: those of its
    final_model) by field, their path without list indices; and the labeled
    features of their training data as queries."""
    out = tmp_path_factory.mktemp("fuzz")
    assert run(gen_args(out, unlabeled=20, seed=21)) == 0
    models = {}
    for method in ("original_sem", "askkm"):
        path = out / f"{method}.json"
        assert run(["fit", "--data", out / "data.csv", "--method", method,
                    "--out-model", path]) == 0
        d = json.loads(path.read_text())
        read = {k: v for k, v in d.items() if k != "config"}
        if method == "askkm":
            read = {"final_model": d["final_model"]}
        fields = {}
        for leaf in numeric_leaves(read):
            fields.setdefault(tuple(k for k in leaf if isinstance(k, str)), []).append(leaf)
        models[method] = (path.read_text(), list(fields.values()))
    dataset = load_csv(out / "data.csv")[0]
    return out, models, dataset.features[dataset.labeled_idx]


@given(method=st.sampled_from(["original_sem", "askkm"]), field=st.integers(0, 99),
       entry=st.integers(0, 10**6), edit=st.sampled_from(sorted(LEAF_EDITS)))
@settings(max_examples=500, deadline=None)
def test_fuzzed_model_leaf_loads_or_raises_input_error(fuzz_models, method, field, entry,
                                                       edit):
    # one numeric leaf replaced or dropped: loading and scoring either
    # succeed or raise InputError, and a fractional id, a boolean or a NaN
    # is always rejected
    out, models, x = fuzz_models
    text, fields = models[method]
    d = json.loads(text)
    leaves = fields[field % len(fields)]
    *parents, last = leaves[entry % len(leaves)]
    parent = functools.reduce(operator.getitem, parents, d)
    x_old = parent[last]
    if LEAF_EDITS[edit] is None:
        del parent[last]
    else:
        parent[last] = LEAF_EDITS[edit](x_old)
    path = out / "fuzzed.json"
    path.write_text(json.dumps(d))
    must_fail = edit in ("true", "nan") or (edit == "plus_half" and type(x_old) is int)
    try:
        load_model_scores(path, x)
    except InputError:
        return
    assert not must_fail, f"{edit} at {[*parents, last]} loaded"


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
        scores, classes = load_model_scores(model, x)
        assert calls == [x.shape] and scores.shape[1] == 2 and classes == ["0", "1"]
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
    @pytest.mark.parametrize("key", ["labeled_rows", "cluster_inner"])
    def test_model_without_cluster_stats_exits_3(self, tmp_path, data, method, key, capsys):
        model = self.fit(tmp_path, data, method)
        payload = json.loads(model.read_text())
        del payload.get("final_model", payload)[key]
        model.write_text(json.dumps(payload))
        code = run(["eval", "--model", model, "--data", data, "--out", tmp_path / "m.json"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"lacks the key '{key}'" in err and "refit" in err

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

    @pytest.mark.parametrize("command", ["fit", "eval"])
    def test_matrix_beyond_available_memory_exits_3_before_allocating(
        self, tmp_path, data, monkeypatch, capsys, command
    ):
        # under heuristic overcommit np.empty grants such a matrix and its
        # fill is killed; the reader is patched, so no large matrix is
        # needed
        model = self.fit(tmp_path, data, "askkm")
        train = load_csv(data)[0]
        q = train.n_points if command == "fit" else train.n_labeled
        n = train.n_points
        need = 8 * q * n
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            assert shape != (q, n), "allocated the matrix"
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(kernels.np, "empty", empty)
        monkeypatch.setattr(kernels, "available_memory", lambda: need - 1)
        out = tmp_path / "out.json"
        argv = {"fit": ["fit", "--data", data, "--method", "askkm", "--gamma", 0.5,
                        "--out-model", out],
                "eval": ["eval", "--model", model, "--data", data, "--out", out]}[command]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert f"Q={q} by N={n} points needs {need} bytes (8*Q*N), more than the " \
               f"{need - 1} bytes of memory available" in err
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

    def test_config_supplies_the_required_flags(self, tmp_path, dataset_csv, monkeypatch):
        # Each run reads the c.json of its own directory, so both echo the
        # same --config value: one file holds the required flags, one none.
        data, method = str(dataset_csv), "original_sem"
        outputs = []
        for name, config, fit, ev in (
            ("from_config", {"data": data, "method": method, "model": "m.json"}, [], []),
            ("from_flags", {}, ["--data", data, "--method", method],
             ["--model", "m.json", "--data", data]),
        ):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            Path("c.json").write_text(json.dumps(config), encoding="utf-8")
            assert run(["fit", "--config", "c.json", *fit, "--out-model", "m.json"]) == 0
            assert run(["eval", "--config", "c.json", *ev, "--out", "e.json"]) == 0
            outputs.append([Path(f).read_bytes() for f in ("m.json", "e.json")])
        assert outputs[0] == outputs[1]

    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1,2]", encoding="utf-8")
        assert run(["gen", "--config", config]) == 2

    @pytest.mark.parametrize("write", [
        lambda path: None,
        lambda path: path.mkdir(),
        lambda path: path.write_text('{"seed": ', encoding="utf-8"),
        lambda path: path.write_bytes(b'{"seed": 1}\xff'),
    ], ids=["missing", "directory", "truncated_json", "not_utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, write, capsys):
        config = tmp_path / "config.json"
        write(config)
        assert run(gen_args(tmp_path) + ["--config", config]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "data.csv").exists()


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


# The byte-identity gate. Each digest set is a list of commands run through
# cli.main from relative paths, in a new directory, so that the echoed
# configurations do not depend on where it is; DIGESTS pins the sha256 of
# every file the commands of each set write, on one numpy build. A change
# that alters an output must say why, and then record the new digests: a
# failing set prints its new entries in the table's own layout. Every model
# file that `fit --out-model` writes was re-recorded when the files dropped
# their restated keys and began to name their classes; no other entry moved.


def run_digest_set(name, commands, monkeypatch, caps=(None,), check=None):
    """Run ``commands`` once per MISSPEC_SSL_THREADS cap in ``caps`` (None:
    unset), each time in a new directory under the working directory, and
    assert that the files written there are those of DIGESTS' set ``name``,
    byte for byte. A command is the argv of one cli.main call, or a function
    that writes an input file; ``check(argv, cap)`` runs after each call."""
    want = {artifact: digest for (s, artifact), digest in DIGESTS.items() if s == name}
    home = Path.cwd()
    for cap in caps:
        out = home / f"threads-{cap}"
        out.mkdir()
        monkeypatch.chdir(out)
        if cap is None:
            monkeypatch.delenv(ENV_THREADS, raising=False)
        else:
            monkeypatch.setenv(ENV_THREADS, cap)
        for argv in commands:
            if callable(argv):
                argv()
                continue
            assert run(argv) == 0, argv
            if check is not None:
                check(argv, cap)
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        if got != want:
            moved = "".join(f'    ("{name}", "{artifact}"):\n        "{digest}",\n'
                            for artifact, digest in got.items() if want.get(artifact) != digest)
            gone = sorted(set(want) - set(got))
            pytest.fail(f"digest set {name!r} at thread cap {cap}: new or moved entries\n"
                        f"{moved}" + (f"no longer written: {gone}" if gone else ""),
                        pytrace=False)


DIGESTS = {
    # pinned_commands: one small end-to-end run of every command.
    ("pinned", "askkm.criterion.json"):
        "f3b44230deaa1e9010e17a4ee90fe2e873abc44411fa289c9300e91f24788dca",
    ("pinned", "askkm.eval.json"):
        "c64e51a26a0550cb124290773653942270b93cb93becbad4946cb2aec9d3c895",
    ("pinned", "askkm.json"):
        "25053d4efc928630e6a71f657e014dc749fa77c4f5f958003dd8cdb6c349a97f",
    ("pinned", "curve.csv"):
        "f9269f3f7d1ebc14046f4ec02acd0343cf2cce6cbfa262c7dd63df1063448598",
    ("pinned", "curve.json"):
        "28124fe1b0f8479cd85efb39a39728ea713484f418a12ff41794eb0d4e09f300",
    ("pinned", "data.csv"):
        "45dd7b2387237f7ceccaf973c0c00405141b2a3f3aa31aca8fa4b8bdd90d46e0",
    ("pinned", "heldout.csv"):
        "32ab454a4be57f652aeefecdb0fdb6991ce3095f80c98e7deb71115a172f8f87",
    ("pinned", "heldout.truth.json"):
        "896c924ff8809af5b78b71f218c599243b43ae512d3ec299e20b19988f94dffa",
    ("pinned", "original_sem.eval.json"):
        "92339952fe6ff8b3f56d058eec147b43c768af7eedf9e3bbbdf490602791bd05",
    ("pinned", "original_sem.json"):
        "46510ecd4a7e1a0fcee540cc4a545b5195cdebb195388ca65f1834bc1611fa51",
    ("pinned", "original_sskkm.eval.json"):
        "7f539397464481364ee46532d45123402505b60544c9527cd1d07e66cff26c11",
    ("pinned", "original_sskkm.json"):
        "9cb04c9e44081efe60d7d81adbc52083fbe8f0a1f5117b0905467cb840a3b86e",
    ("pinned", "sem_components4.eval.json"):
        "d664da0114e3b95a4006f7968d9366a9e1b8fd59e478dcaac1ed204c4c377607",
    ("pinned", "sem_components4.json"):
        "c30512e3f33ed04a94c2d647afd883a630cce934f503a35aedff86472aae8936",
    ("pinned", "sem_weight03.eval.json"):
        "6fe233614a2b7672808d99ae2d97b5e3a864eae42ca03fcee5b7cd00be7c07ee",
    ("pinned", "sem_weight03.json"):
        "469a7c43334b90b6d399eb03eb300dec19984e40c038066bbd56ecabba642192",
    ("pinned", "supervised.eval.json"):
        "e8e64ea7a67855703bbb03dfbc8c76f9b4c5315cf59aebda6e6c694c96daf693",
    ("pinned", "supervised.json"):
        "8bdcca070005de36f10199cf1e231d5f8698786336af49865bd5ebb4543f609c",
    ("pinned", "truth.json"):
        "423d3123ff4a107ce34a27f448de415115cdd08a84a82a87159ce2ac081e555b",
    ("pinned", "unbiased_sem.eval.json"):
        "3f09ce594582eb6f3be8973709c11d4db90b05a69edbfe04c368222d66869a2e",
    ("pinned", "unbiased_sem.json"):
        "2d344dd923453ed1a0c5b0a1e85b55785d7d3ab969fe87655ebb678cf6123932",
    ("pinned", "unbiased_sskkm.eval.json"):
        "d965e5391a82105287ce8f016d86cd739d5107065eaa0ddc1e116bf6c21321af",
    ("pinned", "unbiased_sskkm.json"):
        "0a17dfa949b1db36544effba23ebdcbbea1f684f040951b338882d64ac3d3409",

    # pinned_wide_commands: a 9-feature run whose sem fits use 9 and 3
    # components, recorded before semgmm's row sums became column folds:
    # numpy sums 8 or more columns pairwise and fewer left to right, and these
    # fits meet both orders, in the feature sums (9) and in the component sums
    # (9 and 3).
    ("pinned_wide", "data.csv"):
        "411d150ea820c88141b1189093ad6c67a682769b7a1ca8edb5fb736a82c01a0c",
    ("pinned_wide", "heldout.csv"):
        "53fd36c5c745b39381f40d0fefb44991e7087bcb2c5464a85637a4f576cd5e3e",
    ("pinned_wide", "heldout.truth.json"):
        "cf5732c60abbc245947567f4320af87a98c3d857a4f9f2955af17bf08fb61d24",
    ("pinned_wide", "sem_components3.eval.json"):
        "98acafa4e365837221edb59f4ea8f22b55addd2ce51a69b776803dadc474f51d",
    ("pinned_wide", "sem_components3.json"):
        "17bb4a9b163097fe2026a6e343d4138346ac014a5046d135efd7178ce59b97ee",
    ("pinned_wide", "sem_components9.eval.json"):
        "31b0796a4cce87b1f4ce400b96fcaff08fe863383c2c309b824b48960f5bdda0",
    ("pinned_wide", "sem_components9.json"):
        "4167fa2a205f366cbfe6801f7e05290f9582fab59903226b22eab0de444397d9",
    ("pinned_wide", "truth.json"):
        "2331a358a60117c74a63c93a97ae0c1237b7a34c4f7a3dcb91f3285605ee64b5",

    # shuffled_commands: a CSV whose labeled and unlabeled rows interleave and
    # whose classes are named out of sorted order ("b" appears first), so the
    # dataset's labeled rows, their class ids and the unlabeled rows come from
    # one label column in an order no generated file has.
    ("shuffled", "askkm.criterion.json"):
        "3b0f1a2a701e3827fc00fd5bb8f3df1db2ba205767a9464fcb11f12d7ebb3b68",
    ("shuffled", "askkm.eval.json"):
        "b463ef3e323b9c95d2e7e3c3d5e597e486677b983d38c238159ba00745c12541",
    ("shuffled", "askkm.json"):
        "1008efc58ec3d87a8b55ac0a1d14d921183d3028e1031f50c9b295519f959a4f",
    ("shuffled", "original_sem.eval.json"):
        "864e5a2181428b728cae6d97d383684b8413fd415436609dce5b1229cde671bf",
    ("shuffled", "original_sem.json"):
        "b5afa5197098755464aef7ac8c50908fa3d9cc11dc4ec8e16e9a5b9fb55ec5f5",
    ("shuffled", "shuffled.csv"):
        "b8e6d7b0e30e534fccd36bcbfb6d847da3314840f7ced1888fab75ce5ac501f2",
    ("shuffled", "unbiased_sskkm.eval.json"):
        "d77b0a818b53795f43fa02074d5987da706cde38555d295da5c11297981783f9",
    ("shuffled", "unbiased_sskkm.json"):
        "5682c315e2d46ea03cf42f5a88e1391907405b30e91701e6f5ff72c05a4f4498",

    # bench_size_commands: an askkm fit (with its criterion) and an
    # original_sskkm fit at N = 6,020, on the gen flags of the askkm_cli
    # benchmark at a seed in none of its pools, and the evals of both. At this
    # size the fits update their member sums from the moved rows of K between
    # full products, in gathers of many blocks.
    ("bench_size", "askkm.criterion.json"):
        "6fc74f45c9245abf5c46483a77b64230f42f4f5427a78bef85bcab90c4c8d90d",
    ("bench_size", "askkm.eval.json"):
        "6835e6a922bb4a1b1235bee53e42c6ee3172adec28a29a636ffa4b44f9e8214d",
    ("bench_size", "askkm.json"):
        "6675ae4bcd61a5b91b6eeae7b1b3b52136d77dc1fd7b1305fd9aec1f27616a8e",
    ("bench_size", "data.csv"):
        "891dfa20e52ed913af7b214f3df111f2bab1d72e7cda196045282bbb3d7abfbb",
    ("bench_size", "heldout.csv"):
        "4ee38a822cbcf83cefa58910a18311e303276065712c4e357a0927d2a606b0ca",
    ("bench_size", "heldout.truth.json"):
        "de9d0cf2f5fa9cb060f3a29a04756e5c6c99a6be479510779067891d8d8f2340",
    ("bench_size", "original_sskkm.eval.json"):
        "07404abb2ff52546d8c361103deff544828b2ffd81c8040b86ba29aaf834ede7",
    ("bench_size", "original_sskkm.json"):
        "5daf6e8b7325f00570891bf636fc18110ff945d61e5b816ddd51b629b83b4aff",
    ("bench_size", "truth.json"):
        "5b2cfde8c7dc125ab86a8ecadc8ea813dc2bd96da67440b2c5d551e7104c2b18",

    # sem_size_commands: the semgmm fits at the bench's N_u = 20,000: 91, 12,
    # 36 and 1 EM iterations for original, unbiased, original at K = 4 and
    # supervised.
    ("sem_size", "data.csv"):
        "e6df343b20fc6f10156a8802a9094739c8fda472703401bfa566d0c4f2f54df2",
    ("sem_size", "heldout.csv"):
        "e34cdf65d37786fca06c74e960556b80850c8080fad8c4757cc7afc7031b2c2d",
    ("sem_size", "heldout.truth.json"):
        "0f778af54fb053f7dd6cd70ca8e4503f3dab49f29a568b0a18fc31c6493b1bd2",
    ("sem_size", "original_sem.eval.json"):
        "581028ac0c198cb06a84659f4e424aeab502fc72ee93d8bad5f070a93cb476cb",
    ("sem_size", "original_sem.json"):
        "21714204961e0fffae3b19e319fccd3c1c27e1159ce1db13cdbb32b36ad55ebd",
    ("sem_size", "original_sem_k4.eval.json"):
        "173bb0c5f3776a80289b5cf4c84ac22d302b5e16f2a324dc92718814fd9dddf6",
    ("sem_size", "original_sem_k4.json"):
        "e05018f40c9c04d83f3dd16333a4eaea07f58c358e9b429ecfea086486edc707",
    ("sem_size", "supervised.eval.json"):
        "c67dfb6099451577d439b83ffa79934fc799722d8bd7d507231ca9baad14d733",
    ("sem_size", "supervised.json"):
        "e11e5333223dc0ef8161985f6c7b4f3ca690bda7902507f129c80f6b3252e4ec",
    ("sem_size", "truth.json"):
        "fd56ec52c4a3cd6843d6f5f79758d185e81f4cd029427ffd07f682c5d54814da",
    ("sem_size", "unbiased_sem.eval.json"):
        "c16689ab9077eb2f885bae09e1b9c63951cf02ede7dc0f06793cdff1e17dbf9a",
    ("sem_size", "unbiased_sem.json"):
        "f0546bd4a5ebd83aba566693d85a1af60fda1097f0e7a55bee7ec079b23f15c1",

    # fit_and_eval_commands at N = 1,500, at every thread count.
    ("fan_out", "askkm.eval.json"):
        "defcee363e2e60b458a5a58e99c76ebcd5b85592c1ff376bc243edf211dfbc5e",
    ("fan_out", "askkm.json"):
        "472a1383e1d1622f60ec634c25a32a179c7cf4d5f5faf515a130e472bae2d991",
    ("fan_out", "askkm_manhattan.eval.json"):
        "a35246e59c1b6bb242de6be233a4c70385725847c605214ec60e2cb1e60078e5",
    ("fan_out", "askkm_manhattan.json"):
        "6bb83228c7cf41b020c824ea228d23d37ee17c785c1ea9469db346f3e1e09117",
    ("fan_out", "original_sskkm.eval.json"):
        "7350aeb9d4dd5a1e480f28ac12e84d9605601212d577ab719f45fa53aee2ad9a",
    ("fan_out", "original_sskkm.json"):
        "1617ed21d28b11eed030aee477ed6c2b70eeed81dbd9b762681c8dadf50d5f60",
    ("fan_out", "unbiased_sskkm.eval.json"):
        "49a7ded0d90538af510c6e6c4790f9caf4e2cd528c087507b33afea3fdf5a627",
    ("fan_out", "unbiased_sskkm.json"):
        "26458f1d8f3bc668894b281ee16c46ed8dfa8fee0a9a94b49fc2a288517b349d",

    # kernel_path_commands, at every thread count. Recorded before the Gram
    # became the cross matrix of the training rows.
    ("kernel_path", "1500_chi_square_askkm.eval.json"):
        "d9c183994091a08524510a13a4cbcb80f588e081f18d0698aee75c120847fc0d",
    ("kernel_path", "1500_chi_square_askkm.json"):
        "59693e0cb33e7b5345806a9095a55233e8d08fe82f27b6d55bb1c58e1cfae357",
    ("kernel_path", "1500_chi_square_original_sskkm.eval.json"):
        "d7876b5a92a4ec05a0e9a903d3c5677f1725cb5d3ca233794068b8a0f3ad861f",
    ("kernel_path", "1500_chi_square_original_sskkm.json"):
        "349ac270dfa2183c1d1983e7a7ebe2813a6066c49e5f5f530deae0c340b3565a",
    ("kernel_path", "1500_linear_askkm.eval.json"):
        "44e6d8d76513466c6822d09f48fbcb664f0e6c5cd141231347e203f3ef788e4a",
    ("kernel_path", "1500_linear_askkm.json"):
        "645f7171efbaa9e1b0c21d06904ae43b6df693dbe1d93119a9345ecfdb5192e1",
    ("kernel_path", "1500_linear_original_sskkm.eval.json"):
        "11979f9ea18a296784be2126407236b8962d777b6254eaecf871db8f75f371ee",
    ("kernel_path", "1500_linear_original_sskkm.json"):
        "ec22f2bc9f1762b18c29887504e7cd578c187c207c54d4b2edc893152cd8b8f8",
    ("kernel_path", "1500_rbf_c3_askkm.eval.json"):
        "8007285a283ac52fbe8141a0ba7abd974454371fb81d59ea94444459f80ae6c9",
    ("kernel_path", "1500_rbf_c3_askkm.json"):
        "888939ca24c46fe69baf4faee6e68dda16618bdc707bcf715c17d3f1763e7f07",
    ("kernel_path", "1500_rbf_c3_original_sskkm.eval.json"):
        "7be27baad783f538e09c733619d828687c66b4259b808d0f0489b1247ac2c940",
    ("kernel_path", "1500_rbf_c3_original_sskkm.json"):
        "df5fca83445aeeb64b264ba672f421752699c2237f67e1cddbf03cbc96e81674",
    ("kernel_path", "1500_rbf_d7_askkm.eval.json"):
        "1395eaa187983c427a7d9842e27750862490cac01ca7f35ab65161a21e963f6a",
    ("kernel_path", "1500_rbf_d7_askkm.json"):
        "cdd29470d170284a8388be5db60950ece2259e925239d0e988cc2e7f5894ea18",
    ("kernel_path", "1500_rbf_d7_original_sskkm.eval.json"):
        "7224851f03a57a34017e583a5e606281f7017fa216ee890e93dabfee5bd238b3",
    ("kernel_path", "1500_rbf_d7_original_sskkm.json"):
        "ffe88411cbce77bcdf249a0002d21360ae3f2d346f849a4790e57612aa8b443f",
    ("kernel_path", "600_chi_square_askkm.eval.json"):
        "b0595f72da1c37b4a9b68a3c2487e69a3a9f7af0150c46f064895b85fd30180a",
    ("kernel_path", "600_chi_square_askkm.json"):
        "ca7f5c899ede75e15c9cdc517ef8310a9807e9aca316d40ff8e2a887d03d27f4",
    ("kernel_path", "600_chi_square_original_sskkm.eval.json"):
        "64d3ded082dfec6a14c002759da72ff109e1d718fbaf06b8395c8005be22a2ba",
    ("kernel_path", "600_chi_square_original_sskkm.json"):
        "7ef66ddb75b7b730e3a4296550bac451a21f0d3e3cea28f2b5bd605a2ef33641",
    ("kernel_path", "600_linear_askkm.eval.json"):
        "595c8d3f5023281b29b687ae4fbfa673acfcf3a23f3780ae585e6f77035597ce",
    ("kernel_path", "600_linear_askkm.json"):
        "c07240627f5d2f1481efb2a02397edecdc62b0130fe5dbe3efc66273ea7b08ec",
    ("kernel_path", "600_linear_original_sskkm.eval.json"):
        "b6b2fcc3d7763936b29aaf7d94835fd8fc2ee3f800705566ee49558251c6410a",
    ("kernel_path", "600_linear_original_sskkm.json"):
        "1bf8445b93ade86eaa33a1bac597182e508638f9c035944b171ed7938201c5d8",
    ("kernel_path", "600_rbf_c3_askkm.eval.json"):
        "467cb649ddf3887dbe2d63e76902a4974554b23eaf9477f377c1c09ffb8c7fd6",
    ("kernel_path", "600_rbf_c3_askkm.json"):
        "ba910416ac4a7614130a31451f838e8591db92114d67dae72398de6d4f457f13",
    ("kernel_path", "600_rbf_c3_original_sskkm.eval.json"):
        "798ca3b15a82d5cc94cc3892809f400d1090e44eba7bbe7ba0dc5399390ac4e8",
    ("kernel_path", "600_rbf_c3_original_sskkm.json"):
        "35cdd77b3d46f91f6f42adf1db15c6c03644c7fe48e46681f3e5e410bcbc8785",
    ("kernel_path", "600_rbf_d7_askkm.eval.json"):
        "66dc7d108ab0d029279de409d71d62bb4dc3bcdb25b4b6d9626416fa71c4a512",
    ("kernel_path", "600_rbf_d7_askkm.json"):
        "b8c126e130bf0bc2102c2b53c91c7a28a13fa577857d70d123d515a8f80d24ce",
    ("kernel_path", "600_rbf_d7_original_sskkm.eval.json"):
        "6e313099db0e41eff30f8b73ba8083392ca5f78646272f24ec8ccb44ffdd1d00",
    ("kernel_path", "600_rbf_d7_original_sskkm.json"):
        "1580270912046ff5c9cd58077aca5197cc77fc4916c6dd003239a79d660ff145",

    # curve_commands, at every thread setting. Recorded before curve cells ran
    # on the calling thread below the fan-out floor, and before askkm's first
    # round stood in for the cell's sskkm fits.
    ("curve", "askkm.eval.json"):
        "5afe58c2a46bcac61cbeec096ef66d03c3b50f0d25b9b69ecd84daa1ffb0ce39",
    ("curve", "askkm.json"):
        "1caaca309df40a6238d8be3ebcac83f9eb947c4e4813c9825463cc05e346c9bc",
    ("curve", "curve1.csv"):
        "86fbdda062f2a9e79b16681556159ebf642b2f35a81d5ee5af2921a0af1378c6",
    ("curve", "curve1.json"):
        "be10ceb5e8b81063e213d14e02da378760b4c90dbacb1ad8fffc9faa17f7dc6c",
    ("curve", "curve2.csv"):
        "86fbdda062f2a9e79b16681556159ebf642b2f35a81d5ee5af2921a0af1378c6",
    ("curve", "curve2.json"):
        "f6e64dc026ee85025138e6cb437770926dc78672a9098437ce3191deabf68bfa",
    ("curve", "data.csv"):
        "0dd99fe8a84b80acf106e26aeb681b31988d21f777b5452e0c5af4dd7c802193",
    ("curve", "heldout.csv"):
        "9b6eed9e59349cc2595f89d7f4ac9e9dca5a5ee4a56c643cca772ee7402d42c0",
    ("curve", "heldout.truth.json"):
        "982103c1f076a65b0038572a3f4e2e5ebb4647f16dccc1105ded6770cdf4d6b9",
    ("curve", "truth.json"):
        "c45d86ebd90ea8fd37fd4de25541e212cd4d5c3ac56072644646c7ea6ae7aaa9",

    # above_floor_curve_commands, with the default floors, at every thread cap.
    # Recorded while cells above the fan-out floor still ran on threads,
    # before they ran in worker processes.
    ("above_floor_curve", "curve1.csv"):
        "76e8e3308a2694c8acecb525a399cc83e8bae60115fb2601760a2ac441330f4d",
    ("above_floor_curve", "curve1.json"):
        "c47d60197fc29a1dd307a6896cff8b3814bc4598287f25326c9d37999620a2ad",
    ("above_floor_curve", "curve2.csv"):
        "76e8e3308a2694c8acecb525a399cc83e8bae60115fb2601760a2ac441330f4d",
    ("above_floor_curve", "curve2.json"):
        "dd4f25fc16d960838c967e979a3ac5e100d1751290e765f27751068209e51ea2",

    # degradation_curve_commands. Recorded before models serialized, loaded
    # and scored themselves.
    ("degradation_curve", "curve1.csv"):
        "09ecc8f9dd63515918c4447c26d3a6ecdbbfc37b3f0e7378832cb708ca2c25d4",
    ("degradation_curve", "curve1.json"):
        "d522d78cbb9a52a4cefea1128db5a01e09123f2421ca010456731ce62f2275a9",
    ("degradation_curve", "curve2.csv"):
        "09ecc8f9dd63515918c4447c26d3a6ecdbbfc37b3f0e7378832cb708ca2c25d4",
    ("degradation_curve", "curve2.json"):
        "24e51635e071255c01f92c79e01876b2aa85d9bd5bb2a563b3fad001121e0518",
}


def gen_commands(flags, train, heldout):
    """gen of data.csv and truth.json with ``flags`` and ``train``, and of
    heldout.csv and heldout.truth.json with ``flags`` and ``heldout``."""
    return [["gen", *flags, *train, "--out-data", "data.csv", "--out-truth", "truth.json"],
            ["gen", *flags, *heldout, "--out-data", "heldout.csv",
             "--out-truth", "heldout.truth.json"]]


def fit_eval_commands(fits, data="data.csv", heldout="heldout.csv"):
    """For each (model file stem, fit flags) of ``fits``, a fit on ``data``
    and an eval --verbose on ``heldout``."""
    commands = []
    for stem, flags in fits:
        commands.append(["fit", "--data", data, *flags, "--out-model", f"{stem}.json"])
        commands.append(["eval", "--model", f"{stem}.json", "--data", heldout, "--verbose",
                         "--out", f"{stem}.eval.json"])
    return commands


MISSPECIFIED = ["--kind", "misspecified", "--class-sep", 5]
BENCH_SCENARIO = [*MISSPECIFIED, "--subcluster-sep", 8]


def pinned_commands():
    return [
        *gen_commands(MISSPECIFIED, ["--labeled-per-class", 5, "--unlabeled", 60, "--seed", 41],
                      ["--labeled-per-class", 25, "--unlabeled", 0, "--seed", 42]),
        *fit_eval_commands([
            ("original_sskkm", ["--method", "original_sskkm"]),
            ("unbiased_sskkm", ["--method", "unbiased_sskkm"]),
            ("askkm", ["--method", "askkm", "--out-criterion", "askkm.criterion.json"]),
            ("original_sem", ["--method", "original_sem"]),
            ("unbiased_sem", ["--method", "unbiased_sem"]),
            ("supervised", ["--method", "supervised"]),
            ("sem_components4", ["--method", "original_sem", "--components", 4]),
            ("sem_weight03", ["--method", "original_sem", "--weight", 0.3]),
        ]),
        ["curve", *MISSPECIFIED, "--labeled-per-class", 5, "--grid", "0,40", "--seeds", 2,
         "--eval-size", 50, "--methods", "original_sem,unbiased_sem,original_sskkm",
         "--seed", 43, "--out-json", "curve.json", "--out-csv", "curve.csv"],
    ]


def pinned_wide_commands():
    return [
        *gen_commands([*MISSPECIFIED, "--dim", 9],
                      ["--labeled-per-class", 6, "--unlabeled", 80, "--seed", 44],
                      ["--labeled-per-class", 20, "--unlabeled", 0, "--seed", 45]),
        *fit_eval_commands((f"sem_components{k}", ["--method", "original_sem", "--components", k])
                           for k in (9, 3)),
    ]


def write_shuffled_csv():
    """shuffled.csv: a generated dataset with its rows permuted and its
    classes 0 and 1 renamed b and a."""
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


def shuffled_commands():
    fits = [("original_sem", []), ("unbiased_sskkm", []),
            ("askkm", ["--out-criterion", "askkm.criterion.json"])]
    return [write_shuffled_csv,
            *fit_eval_commands([(m, ["--method", m, *extra]) for m, extra in fits],
                               "shuffled.csv", "shuffled.csv")]


def bench_size_commands():
    return [
        *gen_commands(BENCH_SCENARIO, ["--labeled-per-class", 10, "--unlabeled", 6000,
                                       "--seed", 31],
                      ["--labeled-per-class", 200, "--unlabeled", 0, "--seed", 32]),
        *fit_eval_commands([
            ("askkm", ["--method", "askkm", "--out-criterion", "askkm.criterion.json"]),
            ("original_sskkm", ["--method", "original_sskkm"]),
        ]),
    ]


def sem_size_commands():
    return [
        *gen_commands(BENCH_SCENARIO, ["--labeled-per-class", 10, "--unlabeled", 20000,
                                       "--seed", 41],
                      ["--labeled-per-class", 200, "--unlabeled", 0, "--seed", 42]),
        *fit_eval_commands([
            ("original_sem", ["--method", "original_sem"]),
            ("unbiased_sem", ["--method", "unbiased_sem"]),
            ("original_sem_k4", ["--method", "original_sem", "--components", 4]),
            ("supervised", ["--method", "supervised"]),
        ]),
    ]


# The digest sets run once, with the thread cap unset.
SINGLE_RUN_SETS = {"pinned": pinned_commands, "pinned_wide": pinned_wide_commands,
                   "shuffled": shuffled_commands, "bench_size": bench_size_commands,
                   "sem_size": sem_size_commands}


@pytest.mark.parametrize("name", sorted(SINGLE_RUN_SETS))
def test_outputs_match_pinned_digests(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    run_digest_set(name, SINGLE_RUN_SETS[name](), monkeypatch)


def fan_out_commands():
    """fit + eval of every kernel method, and of askkm on the manhattan
    distance, on ../data.csv and ../heldout.csv."""
    fits = [(m, ["--method", m]) for m in ("original_sskkm", "unbiased_sskkm", "askkm")]
    fits.append(("askkm_manhattan", ["--method", "askkm", "--kernel", "generalized_rbf",
                                     "--distance", "manhattan"]))
    return fit_eval_commands(fits, "../data.csv", "../heldout.csv")


@pytest.mark.skipif(core._usable_cpus() < 2, reason="needs 2 CPUs for a second pool thread")
def test_fit_and_eval_bytes_independent_of_fan_out_threads(tmp_path, monkeypatch):
    # N = 1,500 training rows and 1,500 eval rows: the Gram, the askkm fit
    # pairs and the eval cross matrix all sit above FAN_OUT_MIN_ENTRIES.
    monkeypatch.chdir(tmp_path)
    for argv in gen_commands(MISSPECIFIED, ["--unlabeled", 1480, "--seed", 21],
                             ["--unlabeled", 0, "--labeled-per-class", 750, "--seed", 22]):
        assert run(argv) == 0
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

    def take_threads(argv, cap):
        seen.setdefault(cap, set()).update(threads)
        threads.clear()

    run_digest_set("fan_out", fan_out_commands(), monkeypatch, caps=("1", None),
                   check=take_threads)
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
    for stem, extra, per_class in (("d2", [], 700), ("d7", ["--dim", 7], 700),
                                   ("c3", ["--classes", 3], 480)):
        for n in (600, 1500):
            assert run(["gen", *MISSPECIFIED, *extra, "--unlabeled", n - 20, "--seed", 61,
                        "--out-data", f"{stem}_{n}.csv", "--out-truth", "truth.json"]) == 0
        assert run(["gen", *MISSPECIFIED, *extra, "--unlabeled", 0,
                    "--labeled-per-class", per_class, "--seed", 62,
                    "--out-data", f"{stem}_heldout.csv", "--out-truth", "truth.json"]) == 0
    files = {name: load_csv(f"d2_{name}.csv")[0] for name in ("600", "1500", "heldout")}
    shift = -np.floor(min(d.features.min() for d in files.values()))
    for name, d in files.items():
        write_csv(replace(d, features=d.features + shift), f"d2_shifted_{name}.csv")


def kernel_path_commands():
    """The fits and evals of KERNEL_PATHS on the data in the parent directory."""
    commands = []
    for n in (600, 1500):
        for path, (stem, flags) in KERNEL_PATHS.items():
            commands += fit_eval_commands(
                [(f"{n}_{path}_{method}", ["--method", method, *flags])
                 for method in ("original_sskkm", "askkm")],
                f"../{stem}_{n}.csv", f"../{stem}_heldout.csv")
    return commands


def test_kernel_path_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_kernel_path_data()
    assert 1400 * 1500 >= core.FAN_OUT_MIN_ENTRIES > 1440 * 600
    run_digest_set("kernel_path", kernel_path_commands(), monkeypatch, caps=("1", None))


CURVE_METHODS = "original_sem,unbiased_sem,original_sskkm,unbiased_sskkm,askkm"


def curve_commands():
    """A `curve` of the benchmark's four methods and unbiased_sskkm at one and
    at two workers, whose largest cells hold N = 520 rows, and `fit` and plain
    (non-verbose) `eval` of one askkm model at N = 520."""
    return [
        *gen_commands(MISSPECIFIED, ["--unlabeled", 500, "--seed", 71],
                      ["--unlabeled", 0, "--labeled-per-class", 100, "--seed", 72]),
        ["fit", "--data", "data.csv", "--method", "askkm", "--out-model", "askkm.json"],
        ["eval", "--model", "askkm.json", "--data", "heldout.csv", "--out", "askkm.eval.json"],
        *(["curve", *MISSPECIFIED, "--grid", "0,50,500", "--seeds", 2, "--eval-size", 100,
           "--seed", 73, "--workers", workers, "--methods", CURVE_METHODS,
           "--out-json", f"curve{workers}.json", "--out-csv", f"curve{workers}.csv"]
          for workers in (1, 2)),
    ]


def cells_ran_in(cell_log, forked):
    """A check for run_digest_set: the cells of a curve at --workers 2 ran in
    two worker processes at the thread caps in ``forked``, and every other
    curve's cells in this process."""
    def check(argv, cap):
        pids = {pid for pid, _ in cell_log()}
        if argv[0] != "curve":
            assert not pids
        elif argv[argv.index("--workers") + 1] == 2 and cap in forked:
            assert len(pids) == 2 and os.getpid() not in pids
        else:
            assert pids == {os.getpid()}
    return check


@pytest.mark.parametrize("threads, floor", [(1, None), (2, None), (2, 0)])
def test_curve_outputs_match_pinned_digests(tmp_path, monkeypatch, fan_out_threads, cell_log,
                                            threads, floor):
    # With two threads the cells of --workers 2 run in two worker processes;
    # with the fan-out floor at 0 as well, every Gram, cross matrix and askkm
    # pair of --workers 1 fans out, and none inside a worker.
    monkeypatch.chdir(tmp_path)
    if floor is not None:
        monkeypatch.setattr(core, "FAN_OUT_MIN_ENTRIES", floor)
    run_digest_set("curve", curve_commands(), monkeypatch, caps=(str(threads),),
                   check=cells_ran_in(cell_log, {"2"}))


def above_floor_curve_commands():
    """A `curve` of the benchmark's four methods and unbiased_sskkm at one and
    at two workers, whose largest cells hold N = 1,450 rows, above the 2²¹
    Gram entries of the fan-out floor (1,449 rows), and whose cells are
    above the process floor of learning_curve."""
    return [["curve", *MISSPECIFIED, "--grid", "0,100,1430", "--seeds", 2, "--eval-size", 100,
             "--seed", 91, "--workers", workers, "--methods", CURVE_METHODS,
             "--out-json", f"curve{workers}.json", "--out-csv", f"curve{workers}.csv"]
            for workers in (1, 2)]


@pytest.mark.parametrize("cap", ["1", None])
def test_above_floor_curve_outputs_match_pinned_digests(tmp_path, monkeypatch, fan_out_threads,
                                                        cell_log, cap):
    # Without the cap, the cells of --workers 2 run in two worker processes,
    # and the Gram of a cell of 1,450 rows at --workers 1 fans out.
    monkeypatch.chdir(tmp_path)
    run_digest_set("above_floor_curve", above_floor_curve_commands(), monkeypatch,
                   caps=(cap,), check=cells_ran_in(cell_log, {None}))


def test_above_floor_curve_with_too_little_memory_for_two_grams_runs_inline(
        tmp_path, monkeypatch, fan_out_threads, cell_log):
    # The largest cell's Gram, 1,450 rows, takes 16.8 MB per worker: with
    # less than two of them available, --workers 2 runs the cells inline
    # and writes the same bytes.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(evalx, "available_memory", lambda: 2 * 8 * 1450**2 - 1)
    run_digest_set("above_floor_curve", above_floor_curve_commands(), monkeypatch,
                   check=cells_ran_in(cell_log, set()))


def degradation_curve_commands():
    """`curve --config scripts/degradation_curve.json --seeds 1` at one and at
    two workers. Its cells other than the largest hold 950 training rows,
    above the process floor of learning_curve, so the second run forks."""
    config = Path(__file__).resolve().parent.parent / "scripts" / "degradation_curve.json"
    return [["curve", "--config", config, "--seeds", 1, "--workers", workers,
             "--out-json", f"curve{workers}.json", "--out-csv", f"curve{workers}.csv"]
            for workers in (1, 2)]


def test_degradation_curve_outputs_match_pinned_digests(tmp_path, monkeypatch, fan_out_threads,
                                                        cell_log):
    monkeypatch.chdir(tmp_path)
    run_digest_set("degradation_curve", degradation_curve_commands(), monkeypatch, caps=("2",),
                   check=cells_ran_in(cell_log, {"2"}))


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
