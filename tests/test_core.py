import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misspec_ssl import core
from misspec_ssl.core import (
    ENV_THREADS,
    FAN_OUT_MIN_ENTRIES,
    UNLABELED,
    Dataset,
    InputError,
    SolverOptions,
    blas_thread_api,
    derive_seed,
    fan_out,
    fan_out_processes,
    fan_out_width,
)


def oracle_violations(features, row_labels, n_classes):
    """Plain-loop oracle of the Dataset construction check for a 2-D
    feature matrix and a list of row labels: every broken invariant, as
    messages, in the order construction reports them."""
    n, dim = features.shape
    problems = []
    if dim < 1:
        problems.append(f"features need at least one column (dim >= 1), got dim={dim}")

    bad = [(i, j) for i in range(n) for j in range(dim) if not np.isfinite(features[i, j])]
    if bad:
        problems.append(f"non-finite feature value at (row, col) {bad[0]}")

    if len(row_labels) != n:
        problems.append(
            f"row_labels must hold one label per row ({n}), got shape ({len(row_labels)},)"
        )

    out = sorted({c for c in row_labels if c != UNLABELED and not 0 <= c < n_classes})
    if out:
        problems.append(f"row labels outside -1..{n_classes - 1}: {out}")

    if n_classes < 2:
        problems.append(f"n_classes must be >= 2, got {n_classes}")

    labels = [c for c in row_labels if c != UNLABELED]
    if not labels:
        problems.append("no labeled points (every solver needs >= 1 labeled point per class)")
    else:
        problems += [f"class {c} unrepresented among labels"
                     for c in range(n_classes) if c not in labels]

    return problems


def make_dataset(row_labels=(0, 1, UNLABELED, UNLABELED), n_classes=2, dim=2, features=None):
    rng = np.random.default_rng(0)
    return Dataset(
        features=rng.standard_normal((len(row_labels), dim)) if features is None else features,
        row_labels=np.array(row_labels),
        n_classes=n_classes,
    )


def assert_derived_arrays(d):
    """labeled_idx, labels and unlabeled_idx as read off row_labels."""
    np.testing.assert_array_equal(d.labeled_idx, np.flatnonzero(d.row_labels != UNLABELED))
    np.testing.assert_array_equal(d.labels, d.row_labels[d.labeled_idx])
    np.testing.assert_array_equal(d.unlabeled_idx, np.flatnonzero(d.row_labels == UNLABELED))


class TestValidateDataset:
    def test_consistent_partition_ok(self):
        d = make_dataset()
        assert d.n_points == 4 and d.n_labeled == 2 and d.n_unlabeled == 2

    def test_unrepresented_class(self):
        with pytest.raises(InputError, match="class 1 unrepresented"):
            make_dataset(row_labels=(0, 0, UNLABELED, UNLABELED))

    def test_non_finite_features(self):
        features = np.random.default_rng(0).standard_normal((4, 2))
        features[1, 1] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            make_dataset(features=features)

    def test_holds_read_only_copies(self):
        features = np.zeros((4, 2))
        row_labels = np.array([0, 1, UNLABELED, UNLABELED])
        d = Dataset(features=features, row_labels=row_labels, n_classes=2)
        features[0, 0] = np.nan
        row_labels[1] = 0
        assert np.all(np.isfinite(d.features))
        np.testing.assert_array_equal(d.labels, [0, 1])
        with pytest.raises(ValueError, match="read-only"):
            d.features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            d.row_labels[2] = 0

    def test_features_that_are_no_matrix_rejected(self):
        with pytest.raises(InputError) as exc:
            make_dataset(features=np.zeros(4))
        assert str(exc.value) == "invalid dataset: features must be a 2-D matrix, got ndim=1"

    def test_one_label_per_row(self):
        with pytest.raises(InputError) as exc:
            make_dataset(features=np.zeros((5, 2)))
        assert str(exc.value) == (
            "invalid dataset: row_labels must hold one label per row (5), got shape (4,)"
        )
        with pytest.raises(InputError, match=r"one label per row \(4\), got shape \(2, 2\)"):
            make_dataset(row_labels=[[0, 1], [UNLABELED, UNLABELED]], features=np.zeros((4, 2)))

    def test_labels_outside_the_classes_reported(self):
        with pytest.raises(InputError) as exc:
            make_dataset(row_labels=(0, 1, -2, 2))
        assert str(exc.value) == "invalid dataset: row labels outside -1..1: [-2, 2]"

    @pytest.mark.parametrize("row_labels", [[0.5, 1.7, -1, -1], [0.0, 1.0, -1.0, -1.0],
                                            [False, True, True, False]],
                             ids=["fractions", "whole_floats", "booleans"])
    def test_row_labels_that_are_not_integers_are_rejected(self, row_labels):
        with pytest.raises(InputError, match="row_labels must hold integers only"):
            Dataset(features=np.arange(8.0).reshape(4, 2), row_labels=row_labels, n_classes=2)

    def test_no_labeled_points_rejected(self):
        with pytest.raises(InputError, match="no labeled points"):
            make_dataset(row_labels=(UNLABELED,) * 4)

    @given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_consistent_datasets_validate(self, n_classes, per_class, n_unl, seed):
        rng = np.random.default_rng(seed)
        n = n_classes * per_class + n_unl
        row_labels = np.full(n, UNLABELED)
        row_labels[rng.permutation(n)[: n_classes * per_class]] = np.repeat(
            np.arange(n_classes), per_class
        )
        d = Dataset(features=rng.standard_normal((n, 3)), row_labels=row_labels,
                    n_classes=n_classes)
        assert d.n_points == n and d.n_labeled == n_classes * per_class
        assert_derived_arrays(d)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_construction_matches_loop_oracle(self, seed):
        # N 0..7, dim 0..3, n_classes 0..4. A row label is a class or
        # UNLABELED, now and then -2 or n_classes (out of range); the label
        # list may be one short or long, and a feature may be nan. About one
        # draw in 8 is a valid dataset.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 8))
        dim = int(rng.choice(4, p=[0.1, 0.3, 0.3, 0.3]))
        n_classes = int(rng.choice(5, p=[0.05, 0.05, 0.4, 0.3, 0.2]))
        length = max(n + int(rng.choice([0, 1, -1], p=[0.9, 0.05, 0.05])), 0)
        row_labels = rng.integers(UNLABELED, max(n_classes, 1), size=length)
        row_labels[rng.random(length) < 0.05] = -2
        row_labels[rng.random(length) < 0.05] = n_classes
        features = rng.standard_normal((n, dim))
        if features.size and rng.random() < 0.1:
            features[rng.integers(n), rng.integers(dim)] = np.nan

        want = oracle_violations(features, row_labels.tolist(), n_classes)
        try:
            d = Dataset(features=features, row_labels=row_labels, n_classes=n_classes)
        except InputError as exc:
            assert str(exc) == "invalid dataset: " + "; ".join(want)
        else:
            assert want == []
            assert_derived_arrays(d)


class TestLabelStorage:
    """row_labels is stored in np.min_scalar_type(-n_classes); every accessor
    reads as it would off a full-width (intp) column."""

    @pytest.mark.parametrize("n_classes, dtype", [
        (2, np.int8), (127, np.int8), (128, np.int8), (129, np.int16), (300, np.int16),
    ])
    def test_narrowest_type_and_full_width_accessors(self, n_classes, dtype):
        rng = np.random.default_rng(n_classes)
        full = np.full(3 * n_classes, UNLABELED, dtype=np.intp)
        full[rng.permutation(full.size)[:2 * n_classes]] = np.repeat(np.arange(n_classes), 2)
        d = Dataset(features=rng.standard_normal((full.size, 2)), row_labels=full,
                    n_classes=n_classes)
        assert d.row_labels.dtype == np.min_scalar_type(-n_classes) == dtype
        np.testing.assert_array_equal(d.row_labels, full)
        for got, want in ((d.labels, full[full != UNLABELED]),
                          (d.labeled_idx, np.flatnonzero(full != UNLABELED)),
                          (d.unlabeled_idx, np.flatnonzero(full == UNLABELED))):
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, want)
        assert type(d.n_labeled) is int and d.n_labeled == 2 * n_classes
        with pytest.raises(ValueError, match="read-only"):
            d.row_labels[0] = 0

    def test_out_of_range_labels_reported_before_narrowing(self):
        with pytest.raises(InputError) as exc:
            make_dataset(row_labels=(0, 1, 300, UNLABELED))
        assert str(exc.value) == "invalid dataset: row labels outside -1..1: [300]"
        with pytest.raises(InputError) as exc:
            make_dataset(row_labels=(0, 1, -2, UNLABELED))
        assert str(exc.value) == "invalid dataset: row labels outside -1..1: [-2]"


class TestAvailableMemory:
    def test_reads_mem_available_in_bytes(self, monkeypatch, tmp_path):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:        8000000 kB\n"
                           "MemFree:          100000 kB\n"
                           "MemAvailable:    7000000 kB\n")
        monkeypatch.setattr(core, "MEMINFO", str(meminfo))
        assert core.available_memory() == 7000000 * 1024

    def test_none_without_the_file_or_the_field(self, monkeypatch, tmp_path):
        meminfo = tmp_path / "meminfo"
        monkeypatch.setattr(core, "MEMINFO", str(meminfo))
        assert core.available_memory() is None
        meminfo.write_text("MemTotal:        8000000 kB\nMemFree:          100000 kB\n")
        assert core.available_memory() is None


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.max_iter == 300
        assert opts.unlabeled_weight_mode == "original"

    def test_invalid_values_rejected(self):
        with pytest.raises(InputError):
            SolverOptions(max_iter=0)
        with pytest.raises(InputError):
            SolverOptions(tol=-1.0)

    @pytest.mark.parametrize("mode", [True, float("nan"), 1.5, -0.1, "custom", "supervised",
                                      "bogus", None])
    def test_weightings_other_than_the_two_modes_or_a_weight_rejected(self, mode):
        with pytest.raises(InputError, match=r"weight in \[0, 1\], got "):
            SolverOptions(unlabeled_weight_mode=mode)

    @pytest.mark.parametrize("mode, want", [("original", 1.0), ("unbiased", 0.2), (0.3, 0.3),
                                            (0, 0.0), (1, 1.0)])
    def test_resolved_weights(self, mode, want):
        weight = SolverOptions(unlabeled_weight_mode=mode).resolve_unlabeled_weight(20, 80)
        assert type(weight) is float and weight == want


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_distinct_components(self):
        seeds = {derive_seed(1, name, i) for name in ("a", "b") for i in range(50)}
        assert len(seeds) == 100

    def test_in_range(self):
        s = derive_seed(2**63 - 1, "x")
        assert 0 <= s < 2**63


@pytest.fixture()
def submissions(monkeypatch):
    """Every task handed to a thread pool during the test, by thread name."""
    seen = []
    real = ThreadPoolExecutor.submit

    def spy(self, fn, *args, **kwargs):
        seen.append(threading.current_thread().name)
        return real(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", spy)
    return seen


def pool_threads():
    """The names of the live threads of core.fan_out's pools."""
    return [t.name for t in threading.enumerate() if t.name.startswith("misspec-ssl")]


class TestFanOut:
    def test_results_in_job_order(self, fan_out_threads):
        fan_out_threads(2)
        assert fan_out(lambda j: j * j, range(9), 2) == [j * j for j in range(9)]
        assert fan_out(lambda j: j, [], 2) == []

    def test_width_floor_and_cap(self, fan_out_threads, monkeypatch):
        fan_out_threads(2)
        assert fan_out_width() == 2
        assert fan_out_width(FAN_OUT_MIN_ENTRIES) == 2
        assert fan_out_width(FAN_OUT_MIN_ENTRIES - 1) == 1
        fan_out_threads(1)
        assert fan_out_width(FAN_OUT_MIN_ENTRIES) == 1
        fan_out_threads(8)
        assert fan_out_width() == 2
        monkeypatch.delenv(ENV_THREADS)
        assert fan_out_width() == 2

    @pytest.mark.parametrize("cap, rule", [("two", "an integer"), ("0", "at least 1"),
                                           ("-3", "at least 1")])
    def test_cap_that_is_no_integer_rejected(self, monkeypatch, cap, rule):
        monkeypatch.setenv(ENV_THREADS, cap)
        with pytest.raises(InputError, match=f"MISSPEC_SSL_THREADS must be {rule}, got '{cap}'"):
            fan_out_width()

    def test_one_thread_runs_inline(self, fan_out_threads, submissions):
        fan_out_threads(1)
        here = threading.get_ident()
        assert fan_out(lambda j: threading.get_ident(), range(3), fan_out_width()) == [here] * 3
        assert submissions == []

    def test_calls_from_a_pool_thread_run_inline(self, fan_out_threads, submissions):
        fan_out_threads(2)

        def job(j):
            me = threading.get_ident()
            inner = fan_out(lambda i: threading.get_ident(), range(4), 2)
            return me, fan_out_width(), inner == [me] * 4

        got = []
        caller = threading.Thread(target=lambda: got.append(fan_out(job, range(4), 2)),
                                  daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()  # a nested call that waits for the pool deadlocks
        [results] = got
        assert {width for _, width, _ in results} == {1}
        assert all(inline for _, _, inline in results)
        assert caller.ident not in {me for me, _, _ in results}
        # One submission per job of the outer call, and nothing from the
        # nested calls.
        assert submissions == [caller.name] * 4

    def test_no_pool_thread_outlives_a_call(self, fan_out_threads):
        fan_out_threads(2)
        assert fan_out(lambda j: j, range(4), 2) == [0, 1, 2, 3]
        assert pool_threads() == []

        def job(j):
            if j == 1:
                raise InputError("job 1 failed")
            return j

        with pytest.raises(InputError, match="job 1 failed"):
            fan_out(job, range(4), 2)
        assert pool_threads() == []

    def test_never_more_threads_than_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        running, most, threads = 0, 0, set()
        counting = threading.Lock()

        def job(j):
            nonlocal running, most
            with counting:
                running += 1
                most = max(most, running)
                threads.add(threading.get_ident())
            time.sleep(0.001)
            with counting:
                running -= 1
            return j

        assert fan_out(job, range(64), 64) == list(range(64))
        assert 1 <= most <= 2 and len(threads) <= 2

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pools_of_one_and_two_threads_never_deadlock(self, monkeypatch, cpus):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        pool = core.fan_out

        def job(j):
            return sum(pool(lambda i: i + j, range(4), 2))

        want = [sum(i + j for i in range(4)) for j in range(6)]
        got = []
        callers = [threading.Thread(target=lambda: got.append(pool(job, range(6), 2)), daemon=True)
                   for _ in range(3)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
            assert not t.is_alive()
        assert got == [want] * 3

    def test_every_job_runs_once_under_contention(self, monkeypatch):
        # More threads than cores, three callers at once, and a thread switch
        # every microsecond: a job taken twice or never shows in the counts.
        monkeypatch.setattr(core, "_usable_cpus", lambda: 4)
        pool = core.fan_out
        runs = [0] * 3000
        counting = threading.Lock()

        def job(j):
            with counting:
                runs[j] += 1
            return j

        got = []
        callers = [threading.Thread(target=lambda c=c: got.append(
            pool(job, range(c * 1000, (c + 1) * 1000), 4)), daemon=True) for c in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert runs == [1] * 3000
        assert sorted(got) == [list(range(c * 1000, (c + 1) * 1000)) for c in range(3)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_pool_of_its_own(self, fan_out_threads):
        fan_out_threads(2)
        assert fan_out(lambda j: j, range(4), 2) == [0, 1, 2, 3]
        assert pool_threads() == []
        pid = os.fork()
        if pid == 0:  # the child makes a pool of its own
            os._exit(0 if fan_out(lambda j: j + 1, range(4), 2) == [1, 2, 3, 4] else 1)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0

    def test_first_error_in_job_order_raised_after_every_job(self, fan_out_threads):
        fan_out_threads(2)
        ended = []

        def job(j):
            if j == 1:
                time.sleep(0.05)
                raise InputError("job 1 failed")
            if j == 2:
                raise InputError("job 2 failed")
            time.sleep(0.1)
            ended.append(j)
            return j

        with pytest.raises(InputError, match="job 1 failed"):
            fan_out(job, range(5), 2)
        assert sorted(ended) == [0, 3, 4]
        # The pool serves the next call.
        assert fan_out(lambda j: -j, range(3), 2) == [0, -1, -2]


def worker_view(j):
    """What job j sees where it runs: its process, its fan-out width, and
    the BLAS thread count (None without the OpenBLAS symbols)."""
    api = blas_thread_api()
    return os.getpid(), fan_out_width(), api and api[1](), j


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestFanOutProcesses:
    def test_results_in_job_order_from_two_workers(self, fan_out_threads):
        fan_out_threads(2)
        offset = 10  # a closure: fn reaches the workers through the fork, unpickled

        def job(j):
            time.sleep(0.02)  # long enough that neither worker takes every job
            return worker_view(j), j + offset

        got = fan_out_processes(job, range(8), 2)
        assert [r for _, r in got] == [j + 10 for j in range(8)]
        pids = {view[0] for view, _ in got}
        assert len(pids) == 2 and os.getpid() not in pids
        assert fan_out_processes(abs, [], 2) == []

    def test_workers_run_on_one_thread(self, fan_out_threads):
        fan_out_threads(2)
        views = fan_out_processes(worker_view, range(4), 2)
        assert {width for _, width, _, _ in views} == {1}
        assert {blas for _, _, blas, _ in views} <= {1, None}

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_a_job_sees_one_thread_from_an_unpinned_parent(self, fan_out_threads):
        # A BLAS count set in a forked worker starts an OpenBLAS thread there,
        # so the count must come pinned through the fork.
        fan_out_threads(2)
        api = blas_thread_api()
        earlier = api and api[1]()

        def job(j):
            np.ones((64, 64)) @ np.ones((64, 64))
            return len(os.listdir("/proc/self/task"))

        try:
            if api is not None:
                api[0](2)
            assert fan_out_processes(job, range(4), 2) == [1] * 4
            assert api is None or api[1]() == 2
        finally:
            if api is not None:
                api[0](earlier)

    @pytest.mark.parametrize("cap, width, jobs", [("1", 2, 4), ("2", 1, 4), ("2", 2, 1)])
    def test_one_worker_or_one_job_runs_inline(self, fan_out_threads, cap, width, jobs):
        fan_out_threads(int(cap))
        views = fan_out_processes(worker_view, range(jobs), width)
        assert {pid for pid, _, _, _ in views} == {os.getpid()}

    def test_calls_from_a_pool_thread_or_a_worker_run_inline(self, fan_out_threads):
        fan_out_threads(2)

        def nested(j):
            inner = fan_out_processes(worker_view, range(3), 2)
            return os.getpid(), {pid for pid, _, _, _ in inner}

        for outer in (fan_out, fan_out_processes):
            for pid, inner in outer(nested, range(2), 2):
                assert inner == {pid}

    def test_without_fork_runs_inline(self, fan_out_threads, monkeypatch):
        import multiprocessing

        fan_out_threads(2)

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        views = fan_out_processes(worker_view, range(4), 2)
        assert {pid for pid, _, _, _ in views} == {os.getpid()}

    def test_first_error_in_job_order_raised_after_every_job(self, fan_out_threads, tmp_path):
        import multiprocessing

        fan_out_threads(2)
        ended = tmp_path / "ended"
        ended.touch()

        def job(j):
            if j == 1:
                time.sleep(0.1)
                raise InputError("job 1 failed")
            if j == 2:
                raise InputError("job 2 failed")
            time.sleep(0.05)
            with open(ended, "a", encoding="utf-8") as fh:
                fh.write(f"{j}\n")
            return j

        with pytest.raises(InputError, match="job 1 failed"):
            fan_out_processes(job, range(5), 2)
        assert sorted(map(int, ended.read_text().split())) == [0, 3, 4]
        assert multiprocessing.active_children() == []
        assert fan_out_processes(lambda j: -j, range(3), 2) == [0, -1, -2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("killer, failing, message", [
        (2, 0, "job 0 failed"),
        (0, 2, "a worker process ended before its job finished"),
    ], ids=["error_first", "killed_first"])
    def test_killed_worker_is_an_input_error_in_job_order(self, fan_out_threads, killer,
                                                           failing, message):
        import multiprocessing
        import signal

        fan_out_threads(2)

        def job(j):
            if j == killer:
                time.sleep(0.2)  # the other job's error arrives first
                os.kill(os.getpid(), signal.SIGKILL)
            if j == failing:
                raise InputError(f"job {j} failed")
            return j

        with pytest.raises(InputError, match=message):
            fan_out_processes(job, range(4), 2)
        assert multiprocessing.active_children() == []
        assert fan_out_processes(lambda j: -j, range(3), 2) == [0, -1, -2]


def test_package_import_loads_no_process_machinery():
    code = ("import sys, misspec_ssl.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])")
    src = str(Path(core.__file__).resolve().parents[1])
    paths = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=paths)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "[]"
