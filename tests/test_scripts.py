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


def test_gap_experiment_runs():
    paths = [str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_gap_experiment.py"),
         "--seeds", "1", "--grid", "50", "--mc-samples", "500"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header = next(line for line in proc.stdout.splitlines() if line.startswith("N_u"))
    assert header.split() == ["N_u", "well_specified", "misspecified"]
    row = next(line for line in proc.stdout.splitlines() if line.startswith("50 "))
    assert len(row.split()) == 3
