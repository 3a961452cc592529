"""Tests of the benchmark itself: tiny runs of every workload, self time on
overlapping spans, and that tracing leaves the package as it found it."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "askkm_cli": {"unlabeled": 200, "heldout_per_class": 20, "pool": 1},
    "sem_gap": {"unlabeled": 300, "mc_samples": 500, "pool": 1},
    "curve_sweep": {"grid": "0,20", "seeds": 1, "eval_size": 40, "pool": 1},
}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_checks_traced_and_untraced(name, tmp_path):
    wl = workloads.WORKLOADS[name](work=tmp_path, seed=5, **TINY[name])
    wl.setup()
    tracer = spans.Tracer()
    with tracer:
        traced = wl.op(0, tracer.root)
    # Pool of one: the untraced repeat is compared byte for byte with the traced op.
    plain = wl.op(1, spans.untraced_root)
    assert traced[1] == [] and plain[1] == []
    assert traced[0] > 0 and plain[0] > 0

    metrics = spans.layer_metrics(tracer.spans)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    calls = spans.layer_calls(tracer.spans)
    assert all(calls[layer] == 0 for layer in wl.bypasses)
    assert {s.op for s in tracer.spans} == {0}
    if name == "curve_sweep":
        assert metrics["evalx.cells"] == 2
    else:
        # Single-threaded: self times by layer plus the remainder add up to the wall time.
        for phase in wl.phases:
            parts = spans.phase_breakdown(tracer.spans, phase)
            accounted = sum(v for k, v in parts.items() if k != "wall")
            assert accounted == pytest.approx(parts["wall"], rel=1e-9)


def _span(sid, parent, start, end, layer="kernels", thread=1):
    return spans.Span(sid, parent, 0, thread, f"{layer}.f{sid}", f"f{sid}", layer, start, end)


def test_self_time_subtracts_union_of_overlapping_children():
    # Two pool threads under one parent overlap on [3, 5]; a grandchild sits inside
    # the first child, and a child running past its parent is clipped.
    s = [
        _span(1, None, 0.0, 10.0, layer="op"),
        _span(2, 1, 1.0, 5.0, thread=2),
        _span(3, 1, 3.0, 8.0, thread=3),
        _span(4, 2, 2.0, 4.0),
        _span(5, 1, 9.5, 11.0, thread=2),
    ]
    selfs = spans.self_times(s)
    assert selfs[1] == pytest.approx(10.0 - 7.0 - 0.5)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(5.0)
    assert selfs[4] == pytest.approx(2.0)
    assert spans.covered(0.0, 10.0, [(1, 5), (3, 8), (2, 4)]) == pytest.approx(7.0)
    assert spans.covered(0.0, 10.0, []) == 0.0


def test_install_then_uninstall_restores_every_module_attribute():
    modules = [importlib.import_module(f"misspec_ssl.{m}") for m in spans.LAYERS]
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    with tracer:
        askkm = importlib.import_module("misspec_ssl.askkm")
        assert askkm.fit_sskkm is not before[spans.LAYERS.index("askkm")]["fit_sskkm"]
    for module, saved in zip(modules, before):
        now = vars(module)
        assert now.keys() == saved.keys()
        assert all(now[k] is saved[k] for k in saved), module.__name__


def test_end_to_end_reports_every_metric_of_the_benchmark_file():
    values, _ = run.end_to_end([1.0, 2.0, 3.0], 0.5)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert values["op_p50_s"] == 2.0 and values["setup_s"] == 0.5


def test_tail_is_a_high_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert run.tail(values) == (89.0, 90.0)
    # Too few samples for a tail: the upper median.
    assert run.tail([float(v) for v in range(6)]) == (3.0, 100.0 * 4 / 6)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sem_gap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
