"""The experiment entry points under scripts/: the degradation-curve config
run through `curve --config`, and the gap-experiment script."""

import json
import os
import subprocess
import sys
from pathlib import Path

from misspec_ssl.cli import main
from misspec_ssl.datagen import GenSpec
from misspec_ssl.evalx import learning_curve

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_degradation_config_matches_learning_curve(tmp_path):
    out = tmp_path / "curve.json"
    code = main([
        "curve", "--config", str(SCRIPTS / "degradation_curve.json"),
        "--seeds", "1", "--grid", "0,50", "--workers", "1",
        "--out-json", str(out), "--out-csv", str(tmp_path / "curve.csv"),
    ])
    assert code == 0
    # the scenario, methods and eval size of the former degradation script
    scenario = GenSpec(
        kind="misspecified",
        subclusters_per_class=2,
        class_separation=5.0,
        subcluster_separation=8.0,
        n_labeled_per_class=10,
    )
    methods = ["original_sem", "unbiased_sem", "original_sskkm", "askkm"]
    want = learning_curve(scenario, methods, [0, 50], n_seeds=1, eval_size=500, base_seed=0)
    assert json.loads(out.read_text())["series"] == want.to_json_dict()["series"]


def run_gap_experiment(*flags):
    paths = [str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "run_gap_experiment.py"), "--seeds", "1",
         "--mc-samples", "500", *flags],
        capture_output=True, text=True, env=env, timeout=120,
    )


def gap_tables(stdout):
    """The two tables of the gap experiment's output, fixed labeled budget
    first: each as its header's columns and its rows by N_u."""
    lines = stdout.splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("N_u")]
    tables = []
    for i, j in zip(starts, starts[1:] + [len(lines) + 1]):
        rows = [line.split() for line in lines[i + 1:j - 1]]
        tables.append((lines[i].split(), {int(row[0]): row[1:] for row in rows}))
    return tables


def test_gap_experiment_runs():
    # the fixed budget is 10 labeled per class; the grown one N_u / 2.5,
    # split over the two classes
    proc = run_gap_experiment("--grid", "50,100")
    assert proc.returncode == 0, proc.stderr
    (fixed_header, fixed), (grown_header, grown) = gap_tables(proc.stdout)
    assert fixed_header == grown_header == ["N_u", "N_l", "well_specified", "misspecified"]
    assert [(nu, row[0]) for nu, row in fixed.items()] == [(50, "20"), (100, "20")]
    assert [(nu, row[0]) for nu, row in grown.items()] == [(50, "20"), (100, "40")]
    assert fixed[50] == grown[50]
    assert all(len(row) == 3 and float(row[1]) >= 0 and float(row[2]) >= 0
               for table in (fixed, grown) for row in table.values())
