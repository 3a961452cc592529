import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misspec_ssl import core, evalx
from misspec_ssl.core import UNLABELED, InputError, SolverOptions, blas_thread_api, derive_seed
from misspec_ssl.datagen import GenSpec, generate, sample_eval_set
from misspec_ssl.evalx import (
    METHODS,
    UndefinedMetricError,
    average_precision,
    fit_method,
    interpolated_precision_points,
    learning_curve,
    load_model,
    mean_ap,
    predict,
)
from misspec_ssl.kernels import KernelSpec, cross_matrix, gram_matrix, kernel_diag
from misspec_ssl.sskkm import ClusterModel, score_batch


def brute_force_ap(scores, relevance):
    """Independent 11-point implementation: explicit prefix loops."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    rel = [int(relevance[i]) for i in order]
    total = sum(rel)
    precisions = []
    recalls = []
    hits = 0
    for i, r in enumerate(rel):
        hits += r
        precisions.append(hits / (i + 1))
        recalls.append(hits / total)
    acc = 0.0
    for i in range(11):
        r = i / 10
        acc += max(p for p, rec in zip(precisions, recalls) if rec >= r)
    return acc / 11


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([5.0, 4.0, 3.0, 2.0], [1, 1, 0, 0]) == 1.0

    def test_worked_three_item_example(self):
        got = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
        assert got == (6 * 1.0 + 5 * (2 / 3)) / 11

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 11))
            scores = rng.standard_normal(n)
            relevance = rng.integers(0, 2, size=n)
            if not relevance.any():
                relevance[rng.integers(0, n)] = 1
            assert average_precision(scores, relevance) == brute_force_ap(scores, relevance)

    def test_no_relevant_items_is_an_error(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([1.0, 2.0], [0, 0])

    @pytest.mark.parametrize("scores, relevance, message", [
        ([0.9, 0.5, 0.1], [0.7, 1, 0], "relevance must hold booleans or integers 0 and 1"),
        ([0.9, 0.5, 0.1], [0.0, 1.0, 0.0], "relevance must hold booleans or integers 0 and 1"),
        ([0.9, 0.5, 0.1], [0, 2, 1], "relevance must hold booleans or integers 0 and 1"),
        ([0.9, 0.5], [0, 1, 0], "scores and relevance must be equal-length nonempty"),
        ([[0.9, 0.5]], [[0, 1]], "scores and relevance must be equal-length nonempty"),
    ], ids=["fractions", "whole_floats", "two", "lengths", "matrix"])
    def test_malformed_input_rejected(self, scores, relevance, message):
        with pytest.raises(InputError, match=message):
            average_precision(scores, relevance)

    def test_boolean_and_integer_relevance_agree(self):
        scores = [0.9, 0.5, 0.1, 0.3]
        assert average_precision(scores, [False, True, False, True]) == (
            average_precision(scores, np.array([0, 1, 0, 1], dtype=np.uint8))
        )

    def test_ties_break_by_original_order(self):
        # identical scores: first item ranked first
        a = average_precision([1.0, 1.0], [1, 0])
        b = average_precision([1.0, 1.0], [0, 1])
        assert a == 1.0
        assert b < 1.0

    @given(
        st.lists(st.tuples(st.integers(-100, 100), st.booleans()), min_size=2, max_size=20),
        st.sampled_from([(2.0, 1.0), (0.5, -3.0), (10.0, 0.0)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_monotone_transforms(self, items, ab):
        scores = np.array([float(s) for s, _ in items])
        relevance = np.array([int(r) for _, r in items])
        if not relevance.any():
            relevance[0] = 1
        a, b = ab
        base = average_precision(scores, relevance)
        assert average_precision(a * scores + b, relevance) == base

    def test_interpolation_points_shape(self):
        pts = interpolated_precision_points([0.9, 0.8, 0.7], [1, 0, 1])
        assert len(pts) == 11
        assert pts[0] == 1.0 and pts[-1] == pytest.approx(2 / 3)


class TestMeanAp:
    def test_single(self):
        assert mean_ap([0.5]) == 0.5

    def test_mean(self):
        assert mean_ap([0.2, 0.4, 0.6]) == pytest.approx(0.4)

    def test_permutation_invariant(self):
        assert mean_ap([0.1, 0.9, 0.3]) == mean_ap([0.9, 0.3, 0.1])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            mean_ap([])


SCENARIO = GenSpec(kind="misspecified", subclusters_per_class=2, class_separation=5.0,
                   subcluster_separation=8.0, n_labeled_per_class=5, n_unlabeled=0)


class TestLearningCurve:
    def run_small(self, methods, grid=(0, 30), workers=1):
        return learning_curve(
            SCENARIO, list(methods), list(grid), n_seeds=2, eval_size=40,
            base_seed=11, workers=workers,
        )

    def test_shapes_and_rows(self):
        curve = self.run_small(["original_sem", "supervised"])
        assert curve.methods == ("original_sem", "supervised")
        assert curve.raw["supervised"].shape == (2, 2)
        rows = curve.csv_rows()
        assert len(rows) == 2 * 2 * 2
        assert rows[0][0] == "original_sem"

    def test_grid_zero_degeneracy_within_family(self):
        curve = self.run_small(["original_sem", "unbiased_sem", "supervised"], grid=(0, 20))
        sem0 = curve.raw["original_sem"][0]
        np.testing.assert_array_equal(sem0, curve.raw["unbiased_sem"][0])
        np.testing.assert_array_equal(sem0, curve.raw["supervised"][0])
        kk = self.run_small(["original_sskkm", "unbiased_sskkm", "askkm"], grid=(0, 20))
        np.testing.assert_array_equal(kk.raw["original_sskkm"][0], kk.raw["unbiased_sskkm"][0])
        np.testing.assert_array_equal(kk.raw["original_sskkm"][0], kk.raw["askkm"][0])

    def test_deterministic_and_worker_invariant(self):
        # N_u = 500 is a size at which OpenBLAS threads its products
        grid = (0, 30, 500)
        a = self.run_small(["original_sem", "askkm"], grid=grid)
        b = self.run_small(["original_sem", "askkm"], grid=grid)
        c = self.run_small(["original_sem", "askkm"], grid=grid, workers=3)
        for m in a.methods:
            np.testing.assert_array_equal(a.raw[m], b.raw[m])
            np.testing.assert_array_equal(a.raw[m], c.raw[m])
        assert a.to_json_dict() == c.to_json_dict()

    def test_code_in_a_worker_cell_runs_on_one_thread(self, fan_out_threads, monkeypatch,
                                                      cell_log):
        # With no floors, every cell would fork and every Gram, cross matrix
        # and askkm pair of a cell would fan out, unless it runs in a worker.
        monkeypatch.setattr(core, "FAN_OUT_MIN_ENTRIES", 0)
        monkeypatch.setattr(evalx, "CELL_FORK_MIN_ROWS", 0)
        fan_out_threads(2)
        serial = self.run_small(["original_sskkm", "askkm"], workers=1)
        assert cell_log() == [(os.getpid(), 2)] * 4

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool inside a worker")

        monkeypatch.setattr(ThreadPoolExecutor, "submit", no_pool)
        pooled = self.run_small(["original_sskkm", "askkm"], workers=2)
        cells = cell_log()
        assert len(cells) == 4 and {width for _, width in cells} == {1}
        assert os.getpid() not in {pid for pid, _ in cells}
        assert pooled.to_json_dict() == serial.to_json_dict()

    def test_cells_in_two_worker_processes_equal_one_worker(self, fan_out_threads, monkeypatch,
                                                            cell_log):
        monkeypatch.setattr(evalx, "CELL_FORK_MIN_ROWS", 0)
        fan_out_threads(2)
        methods = ["original_sem", "original_sskkm", "unbiased_sskkm", "askkm"]
        serial = self.run_small(methods, grid=(0, 30, 60), workers=1)
        assert {pid for pid, _ in cell_log()} == {os.getpid()}
        real = evalx.generate

        def slow_generate(spec):  # long enough that neither worker takes every cell
            time.sleep(0.02)
            return real(spec)

        monkeypatch.setattr(evalx, "generate", slow_generate)
        pooled = self.run_small(methods, grid=(0, 30, 60), workers=2)
        pids = {pid for pid, _ in cell_log()}
        assert len(pids) == 2 and os.getpid() not in pids
        assert json.dumps(pooled.to_json_dict()) == json.dumps(serial.to_json_dict())
        assert pooled.csv_rows() == serial.csv_rows()

    @pytest.mark.parametrize("top, width", [(469, 1), (470, 4)])
    def test_cells_fork_from_the_rows_beyond_the_largest_cell(self, monkeypatch, top, width):
        # 10 labeled rows, 2 seeds, grid (0, top): the cells other than the
        # largest one hold 10 + 10 + (10 + top) = 30 + top training rows.
        assert 30 + 470 == evalx.CELL_FORK_MIN_ROWS
        widths = []

        def spy(fn, jobs, w):
            widths.append(w)
            raise InputError("stop before the cells")

        monkeypatch.setattr(evalx, "fan_out_processes", spy)
        with pytest.raises(InputError, match="stop before the cells"):
            self.run_small(["original_sem"], grid=(0, top), workers=4)
        assert widths == [width]

    @pytest.mark.parametrize("available, width", [
        (None, 4), (10**12, 4), (3 * 8 * 480**2, 3), (2 * 8 * 480**2 - 1, 1), (1, 1),
    ])
    def test_workers_capped_by_the_largest_cells_gram_in_available_memory(
            self, monkeypatch, available, width):
        # 10 labeled rows, grid (0, 470): the largest cell holds 480 training
        # rows, whose Gram takes 8·480² bytes in each worker.
        widths, reads = [], []

        def spy(fn, jobs, w):
            widths.append(w)
            raise InputError("stop before the cells")

        monkeypatch.setattr(evalx, "available_memory", lambda: reads.append(1) or available)
        monkeypatch.setattr(evalx, "fan_out_processes", spy)
        with pytest.raises(InputError, match="stop before the cells"):
            self.run_small(["original_sem"], grid=(0, 470), workers=4)
        assert widths == [width] and len(reads) == 1

    def test_memory_is_read_only_where_cells_could_fork(self, monkeypatch):
        def no_read():
            raise AssertionError("memory read for a curve that runs inline")

        monkeypatch.setattr(evalx, "available_memory", no_read)
        self.run_small(["original_sem"], grid=(0, 30), workers=2)  # below the process floor
        self.run_small(["original_sem"], grid=(0, 470), workers=1)

    def test_binary_scenario_uses_ap(self):
        curve = self.run_small(["supervised"], grid=(0,))
        assert curve.metric_name == "average_precision"
        assert np.all(curve.raw["supervised"] <= 1.0)

    def test_multiclass_uses_accuracy(self):
        spec = GenSpec(kind="well_specified", n_classes=3, dim=3, class_separation=6.0,
                       n_labeled_per_class=5, n_unlabeled=0)
        curve = learning_curve(spec, ["supervised"], [0], n_seeds=2, eval_size=30, base_seed=3)
        assert curve.metric_name == "accuracy"

    def test_bad_inputs_rejected(self):
        with pytest.raises(InputError):
            self.run_small(["nope"])
        with pytest.raises(InputError):
            self.run_small(["supervised"], grid=(10, 10))
        with pytest.raises(InputError, match="nonempty"):
            self.run_small(["supervised"], grid=())
        with pytest.raises(InputError):
            self.run_small(["supervised", "supervised_sem"])  # alias duplicates
        with pytest.raises(InputError, match="no methods"):
            self.run_small([])

    def test_supervised_alias(self):
        curve = learning_curve(SCENARIO, ["supervised_sem"], [0], n_seeds=1,
                               eval_size=20, base_seed=1)
        assert curve.methods == ("supervised",)

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_cell_matches_fit_method_and_predict(self, method):
        base_seed, nu = 11, 30
        curve = learning_curve(SCENARIO, [method], [nu], n_seeds=1, eval_size=40,
                               base_seed=base_seed)
        spec = replace(SCENARIO, n_unlabeled=nu, seed=derive_seed(base_seed, "scenario", 0))
        train, _ = generate(spec)
        test_x, test_y = sample_eval_set(spec, 40, derive_seed(base_seed, "eval", 0))
        km = gram_matrix(train, KernelSpec())
        rows = cross_matrix(test_x, train.features, km.spec)
        diag = kernel_diag(test_x, km.spec)
        name = curve.methods[0]
        seed = derive_seed(base_seed, "fit", 0, name)
        model = fit_method(method, train, km, SolverOptions(seed=seed))
        _, scores = predict(model, test_x, rows, diag)
        assert curve.raw[name][0, 0] == average_precision(scores[:, 1], test_y == 1)


@pytest.fixture()
def blas_at_two_threads():
    """The BLAS (set, get) pair, with the count at 2 for the test and the
    count found before it restored afterwards."""
    api = blas_thread_api()
    if api is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count symbols")
    set_threads, get_threads = api
    before = get_threads()
    set_threads(2)
    yield api
    set_threads(before)


class TestBlasThreadPin:
    def run_small(self, workers=1, grid=(0, 30)):
        return learning_curve(SCENARIO, ["original_sem", "askkm"], list(grid), n_seeds=2,
                              eval_size=40, base_seed=11, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_cell_runs_on_one_blas_thread(self, monkeypatch, blas_at_two_threads, workers):
        _, get_threads = blas_at_two_threads
        seen = []
        real = evalx._evaluate_cell

        def spy(*args):
            seen.append(get_threads())
            return real(*args)

        monkeypatch.setattr(evalx, "_evaluate_cell", spy)
        self.run_small(workers=workers)
        assert seen == [1] * 4
        assert get_threads() == 2

    def test_earlier_count_restored_after_a_cell_raises(self, monkeypatch, blas_at_two_threads):
        def failing(*args):
            raise InputError("cell failed")

        monkeypatch.setattr(evalx, "_evaluate_cell", failing)
        with pytest.raises(InputError, match="cell failed"):
            self.run_small(workers=2)
        assert blas_at_two_threads[1]() == 2

    def test_without_thread_symbols_the_sweep_is_unchanged(self, monkeypatch):
        pinned = self.run_small()
        monkeypatch.setattr(core, "blas_thread_api", lambda: None)
        unpinned = self.run_small()
        assert json.dumps(unpinned.to_json_dict()) == json.dumps(pinned.to_json_dict())
        assert unpinned.csv_rows() == pinned.csv_rows()


class TestMethodTable:
    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_fitted_weights(self, name):
        # fit_method applies the method's weighting over any solver's, or
        # the weight given in its place
        want = {"original_sskkm": 1.0, "unbiased_sskkm": 10 / 40, "askkm": 1.0,
                "original_sem": 1.0, "unbiased_sem": 10 / 40, "supervised": 0.0,
                "supervised_sem": 0.0}[name]
        train, _ = generate(replace(SCENARIO, n_unlabeled=30, seed=1))
        km = gram_matrix(train, KernelSpec())
        solver = SolverOptions(unlabeled_weight_mode=0.5)
        assert fit_method(name, train, km, solver).unlabeled_weight == want
        if name != "askkm":
            assert fit_method(name, train, km, solver, weight=0.25).unlabeled_weight == 0.25

    @pytest.mark.parametrize("weight", [0.0, 0.25, 1.0, 1.5])
    def test_a_weight_for_askkm_is_rejected(self, weight):
        # askkm fits both weightings itself, so no weight can replace them
        train, _ = generate(replace(SCENARIO, n_unlabeled=30, seed=1))
        km = gram_matrix(train, KernelSpec())
        with pytest.raises(InputError, match="weight does not apply to askkm"):
            fit_method("askkm", train, km, SolverOptions(), weight=weight)

    @pytest.mark.parametrize("weight", [-0.1, 1.5, float("nan"), True])
    def test_a_weight_outside_zero_one_is_rejected(self, weight):
        train, _ = generate(replace(SCENARIO, n_unlabeled=30, seed=1))
        with pytest.raises(InputError, match=r"a weight in \[0, 1\], got"):
            fit_method("original_sem", train, None, SolverOptions(), weight=weight)


def json_roundtrip(d):
    return json.loads(json.dumps(d))


class TestSerializationRoundTrip:
    """A model scores the same from its query rows, from the query points
    alone, and read back from its JSON form, bit for bit."""

    @pytest.fixture(scope="class")
    def data(self):
        spec = replace(SCENARIO, n_unlabeled=60, seed=derive_seed(2, "roundtrip"))
        train, _ = generate(spec)
        test_x, _ = sample_eval_set(spec, 50, derive_seed(2, "roundtrip-eval"))
        km = gram_matrix(train, KernelSpec(kind="generalized_rbf", distance="manhattan"))
        # the shared rows of a curve cell
        rows = cross_matrix(test_x, train.features, km.spec)
        return train, test_x, km, rows, kernel_diag(test_x, km.spec)

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_scores_equal(self, data, method):
        train, test_x, km, rows, diag = data
        fitted = fit_method(method, train, km, SolverOptions())
        loaded = load_model(json_roundtrip(fitted.to_dict()))
        want_labels, want_scores = predict(fitted, test_x, rows, diag)
        for labels, scores in (predict(fitted, test_x), predict(loaded, test_x)):
            assert np.array_equal(labels, want_labels)
            assert np.array_equal(scores, want_scores)
        # one query point as a 1-D array
        labels, scores = predict(loaded, test_x[0])
        assert np.array_equal(labels, want_labels[:1])
        np.testing.assert_allclose(scores, want_scores[:1], rtol=1e-12)

    @pytest.mark.parametrize("method, weight", [("original_sskkm", None),
                                                ("unbiased_sskkm", None),
                                                ("original_sskkm", 0.3), ("askkm", None)])
    def test_rebuilt_weights_and_cluster_totals_equal_the_fits(self, method, weight):
        # A file stores neither array: from_dict rebuilds the point weights
        # from labeled_rows and unlabeled_weight, and score_batch W_k from them.
        train, _ = generate(replace(SCENARIO, n_unlabeled=60, seed=derive_seed(3, "roundtrip")))
        km = gram_matrix(train, KernelSpec())
        fitted = fit_method(method, train, km, SolverOptions(), weight=weight)
        if method == "askkm":
            assert fitted.rounds > 1 and fitted.n_clusters > train.n_classes
            fitted = fitted.final_model
        loaded = ClusterModel.from_dict(json_roundtrip(fitted.to_dict()))
        fit_weights = np.where(train.row_labels == UNLABELED, fitted.unlabeled_weight, 1.0)
        assert np.array_equal(fitted.point_weights, fit_weights)
        assert np.array_equal(loaded.point_weights, fit_weights)
        for got, want in zip(score_batch(loaded, km.values, km.diag),
                             score_batch(fitted, km.values, km.diag)):
            assert np.array_equal(got, want)
        assert loaded.to_dict() == fitted.to_dict()


class TestMemoryOrder:
    """Fits and scores read features C-ordered: a Fortran-ordered copy of
    the same values gives the same bits. Pairwise sums of a row and BLAS
    products both depend on the layout they are handed: before the copies,
    linear and rbf kernels and sem scores differed from d = 9."""

    @pytest.mark.parametrize("dim", [2, 9, 20])
    def test_fortran_inputs_give_the_same_bits(self, dim):
        spec = replace(SCENARIO, dim=dim, n_unlabeled=1000, seed=derive_seed(dim, "order"))
        train, _ = generate(spec)
        fortran = core.Dataset(np.asfortranarray(train.features), train.row_labels,
                               train.n_classes)
        assert fortran.features.flags.c_contiguous
        test_x, _ = sample_eval_set(spec, 40, derive_seed(dim, "order-eval"))
        queries = np.asfortranarray(test_x)
        # one array for both sides, of a size where BLAS gemm and syrk differ
        one = train.features[:300].copy()
        moved = []
        for kernel in (KernelSpec(kind="linear"), KernelSpec()):
            km = gram_matrix(train, kernel)
            got = {"gram": gram_matrix(fortran, kernel).values,
                   "cross, queries": cross_matrix(queries, train.features, km.spec),
                   "cross, training rows": cross_matrix(test_x, np.asfortranarray(
                       train.features), km.spec),
                   "cross, one array": (lambda f: cross_matrix(f, f, km.spec))(
                       np.asfortranarray(one)),
                   "diag": kernel_diag(queries, km.spec)}
            want = {"gram": km.values,
                    "cross, queries": cross_matrix(test_x, train.features, km.spec),
                    "cross, training rows": cross_matrix(test_x, train.features, km.spec),
                    "cross, one array": cross_matrix(one, one, km.spec),
                    "diag": kernel_diag(test_x, km.spec)}
            moved += [f"{kernel.kind} {k}" for k in got if not np.array_equal(got[k], want[k])]
        for method in ("original_sem", "unbiased_sem", "original_sskkm"):
            fitted = fit_method(method, train, km, SolverOptions())
            if method.endswith("sem"):
                refit = fit_method(method, fortran, None, SolverOptions())
                moved += [f"{method} {name}" for name in ("weights", "means", "covariances")
                          if not np.array_equal(getattr(refit, name), getattr(fitted, name))]
            moved += [f"{method} predict" for got, want in zip(predict(fitted, queries),
                                                               predict(fitted, test_x))
                      if not np.array_equal(got, want)]
        assert moved == []
