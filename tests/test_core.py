import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misspec_ssl import core
from misspec_ssl.core import (
    ENV_THREADS,
    FAN_OUT_MIN_ENTRIES,
    Dataset,
    InputError,
    SolverOptions,
    derive_seed,
    fan_out,
)


def oracle_violations(features, labeled_idx, labels, unlabeled_idx, n_classes):
    """Sort-based oracle of the Dataset construction check: every broken
    invariant of the five fields, as messages, in the order construction
    reports them."""
    features = np.asarray(features, dtype=float)
    labeled_idx = np.asarray(labeled_idx, dtype=int)
    labels = np.asarray(labels, dtype=int)
    unlabeled_idx = np.asarray(unlabeled_idx, dtype=int)
    if features.ndim != 2:
        return [f"features must be a 2-D matrix, got ndim={features.ndim}"]
    problems = []
    n, dim = features.shape
    if dim < 1:
        problems.append(f"features need at least one column (dim >= 1), got dim={dim}")

    if not np.all(np.isfinite(features)):
        bad = np.argwhere(~np.isfinite(features))
        problems.append(f"non-finite feature value at (row, col) {tuple(bad[0])}")

    covered = np.zeros(n, dtype=bool)
    for name, idx in (("labeled_idx", labeled_idx), ("unlabeled_idx", unlabeled_idx)):
        outside = (idx < 0) | (idx >= n)
        covered[idx[~outside]] = True
        out = idx[outside]
        if out.size:
            problems.append(f"{name} out of range [0, {n}): {sorted(out.tolist())}")
        uniq, counts = np.unique(idx, return_counts=True)
        dups = uniq[counts > 1]
        if dups.size:
            problems.append(f"duplicate indices in {name}: {sorted(dups.tolist())}")

    overlap = np.intersect1d(labeled_idx, unlabeled_idx)
    for i in overlap.tolist():
        problems.append(f"labeled/unlabeled overlap at index {i}")

    uncovered = np.flatnonzero(~covered)
    if uncovered.size:
        problems.append(
            f"{uncovered.size} rows in neither labeled_idx nor unlabeled_idx, "
            f"first {uncovered[:5].tolist()}"
        )

    if labels.size != labeled_idx.size:
        problems.append(
            f"labels length {labels.size} != labeled_idx length {labeled_idx.size}"
        )

    if n_classes < 2:
        problems.append(f"n_classes must be >= 2, got {n_classes}")

    if labeled_idx.size == 0:
        problems.append("no labeled points (every solver needs >= 1 labeled point per class)")
    else:
        out = labels[(labels < 0) | (labels >= n_classes)]
        if out.size:
            problems.append(
                f"label ids outside 0..{n_classes - 1}: {sorted(set(out.tolist()))}"
            )
        present = set(labels.tolist())
        for c in range(n_classes):
            if c not in present:
                problems.append(f"class {c} unrepresented among labels")

    return problems


def make_dataset(n=4, labeled=(0, 1), labels=(0, 1), unlabeled=(2, 3), n_classes=2, dim=2,
                 features=None):
    rng = np.random.default_rng(0)
    return Dataset(
        features=rng.standard_normal((n, dim)) if features is None else features,
        labeled_idx=np.array(labeled),
        labels=np.array(labels),
        unlabeled_idx=np.array(unlabeled),
        n_classes=n_classes,
    )


class TestValidateDataset:
    def test_consistent_partition_ok(self):
        d = make_dataset()
        assert d.n_points == 4 and d.n_labeled == 2 and d.n_unlabeled == 2

    def test_overlap_reported_with_index(self):
        with pytest.raises(InputError, match="overlap at index 1"):
            make_dataset(labeled=(0, 1), unlabeled=(1, 2))

    def test_unrepresented_class(self):
        with pytest.raises(InputError, match="class 1 unrepresented"):
            make_dataset(labels=(0, 0))

    def test_non_finite_features(self):
        features = np.random.default_rng(0).standard_normal((4, 2))
        features[1, 1] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            make_dataset(features=features)

    def test_out_of_range_and_duplicates(self):
        with pytest.raises(InputError, match="duplicate"):
            make_dataset(unlabeled=(2, 2))
        with pytest.raises(InputError, match="out of range"):
            make_dataset(unlabeled=(2, 9))

    def test_rows_in_neither_partition_reported(self):
        with pytest.raises(InputError) as exc:
            make_dataset(n=6)
        assert str(exc.value) == (
            "invalid dataset: 2 rows in neither labeled_idx nor unlabeled_idx, first [4, 5]"
        )

    def test_no_labeled_points_rejected(self):
        with pytest.raises(InputError, match="no labeled points"):
            make_dataset(labeled=(), labels=(), unlabeled=(0, 1, 2, 3))

    @given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_consistent_datasets_validate(self, n_classes, per_class, n_unl, seed):
        rng = np.random.default_rng(seed)
        n = n_classes * per_class + n_unl
        perm = rng.permutation(n)
        labeled = perm[: n_classes * per_class]
        d = Dataset(
            features=rng.standard_normal((n, 3)),
            labeled_idx=labeled,
            labels=np.repeat(np.arange(n_classes), per_class),
            unlabeled_idx=perm[n_classes * per_class :],
            n_classes=n_classes,
        )
        assert d.n_points == n

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_construction_matches_sort_based_oracle(self, seed):
        # N 0..7, dim 0..3, n_classes 0..4. In-range index arrays: a row is
        # labeled, unlabeled, both or neither, and either array may repeat a
        # row. A label may fall outside the classes, the label list may be
        # one short or long, and a feature may be nan. About one draw in 20
        # is a valid dataset.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 8))
        dim = int(rng.choice(4, p=[0.1, 0.3, 0.3, 0.3]))
        n_classes = int(rng.choice(5, p=[0.05, 0.05, 0.4, 0.3, 0.2]))
        role = rng.choice(4, size=n, p=[0.45, 0.45, 0.05, 0.05])
        labeled = rng.permutation(np.flatnonzero((role == 0) | (role == 2)))
        unlabeled = np.flatnonzero((role == 1) | (role == 2))
        if n and rng.random() < 0.1:
            labeled = np.append(labeled, rng.integers(n))
        if n and rng.random() < 0.1:
            unlabeled = np.append(unlabeled, rng.integers(n))
        n_labels = max(labeled.size + rng.choice([0, 1, -1], p=[0.9, 0.05, 0.05]), 0)
        labels = rng.integers(0, max(n_classes, 1), size=n_labels)
        labels[rng.random(n_labels) < 0.05] = -1
        labels[rng.random(n_labels) < 0.05] = n_classes
        features = rng.standard_normal((n, dim))
        if features.size and rng.random() < 0.1:
            features[rng.integers(n), rng.integers(dim)] = np.nan

        want = oracle_violations(features, labeled, labels, unlabeled, n_classes)
        try:
            Dataset(features=features, labeled_idx=labeled, labels=labels,
                    unlabeled_idx=unlabeled, n_classes=n_classes)
        except InputError as exc:
            assert str(exc) == "invalid dataset: " + "; ".join(want)
        else:
            assert want == []


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
        with pytest.raises(InputError):
            SolverOptions(unlabeled_weight_mode="bogus")
        with pytest.raises(InputError):
            SolverOptions(unlabeled_weight_mode="custom", custom_weight=1.5)
        with pytest.raises(InputError):
            SolverOptions(unlabeled_weight_mode="custom")

    def test_resolved_weights(self):
        assert SolverOptions().resolve_unlabeled_weight(20, 80) == 1.0
        unbiased = SolverOptions(unlabeled_weight_mode="unbiased")
        assert unbiased.resolve_unlabeled_weight(20, 80) == 0.2
        custom = SolverOptions(unlabeled_weight_mode="custom", custom_weight=0.3)
        assert custom.resolve_unlabeled_weight(20, 80) == 0.3


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


class TestFanOut:
    def test_results_in_job_order(self, fan_out_threads):
        fan_out_threads(2)
        assert fan_out(lambda j: j * j, range(9), 2) == [j * j for j in range(9)]
        assert fan_out(lambda j: j, [], 2) == []

    def test_width_floor_and_cap(self, fan_out_threads, monkeypatch):
        fan_out_threads(2)
        assert fan_out.width() == 2
        assert fan_out.width(FAN_OUT_MIN_ENTRIES) == 2
        assert fan_out.width(FAN_OUT_MIN_ENTRIES - 1) == 1
        fan_out_threads(1)
        assert fan_out.width(FAN_OUT_MIN_ENTRIES) == 1
        fan_out_threads(0)
        assert fan_out.width() == 1
        fan_out_threads(8)
        assert fan_out.width() == 2
        monkeypatch.delenv(ENV_THREADS)
        assert fan_out.width() == 2

    def test_cap_that_is_no_integer_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_THREADS, "two")
        with pytest.raises(InputError, match="MISSPEC_SSL_THREADS must be an integer, got 'two'"):
            fan_out.width()

    def test_one_thread_runs_inline(self, fan_out_threads, submissions):
        fan_out_threads(1)
        here = threading.get_ident()
        assert fan_out(lambda j: threading.get_ident(), range(3), fan_out.width()) == [here] * 3
        assert submissions == []

    def test_calls_from_a_pool_thread_run_inline(self, fan_out_threads, submissions):
        fan_out_threads(2)

        def job(j):
            me = threading.get_ident()
            inner = fan_out(lambda i: threading.get_ident(), range(4), 2)
            return me, fan_out.width(), inner == [me] * 4

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
        # The outer call's two lanes, and nothing from the nested calls.
        assert submissions == [caller.name] * 2

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pools_of_one_and_two_threads_never_deadlock(self, monkeypatch, cpus):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        pool = core.FanOut()

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
        # More lanes than cores, three callers at once, and a thread switch
        # every microsecond: a job taken twice or never shows in the counts.
        monkeypatch.setattr(core, "_usable_cpus", lambda: 4)
        pool = core.FanOut()
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
        assert fan_out(lambda j: j, range(4), 2) == [0, 1, 2, 3]  # the parent's pool exists
        pid = os.fork()
        if pid == 0:  # the child: its copy of the pool has no threads
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
