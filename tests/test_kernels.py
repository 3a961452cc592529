import re
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from misspec_ssl import core, kernels
from misspec_ssl.core import FAN_OUT_MIN_ENTRIES, UNLABELED, Dataset, InputError, derive_seed
from misspec_ssl.kernels import (
    BLOCK_ENTRIES,
    CHI_SQUARE_EPS,
    EUCLIDEAN_FOLD_BELOW,
    MEDIAN_SUBSAMPLE,
    KernelMatrix,
    KernelSpec,
    _check_chi_square_inputs,
    _fill_pairwise,
    cross_matrix,
    gram_matrix,
    kernel_diag,
    resolve_gamma,
)


def dataset_from_features(x, n_classes=2):
    """Row c is labeled with class c for every class; the rest are unlabeled."""
    row_labels = np.full(x.shape[0], UNLABELED)
    row_labels[:n_classes] = np.arange(n_classes)
    return Dataset(features=x, row_labels=row_labels, n_classes=n_classes)


SPECS = [
    KernelSpec(kind="linear"),
    KernelSpec(kind="rbf"),
    KernelSpec(kind="generalized_rbf", distance="euclidean"),
    KernelSpec(kind="generalized_rbf", distance="manhattan"),
    KernelSpec(kind="generalized_rbf", distance="chi_square"),
]


def numpy_distances(x, y, distance, squared):
    """All-pairs distances as plain whole-matrix numpy expressions: the
    (rows, cols) planes of per-feature terms added left to right, except the
    euclidean distance from EUCLIDEAN_FOLD_BELOW features on, which is
    ||x||^2 + ||y||^2 - 2 x.y."""
    diff = x[:, None, :] - y[None, :, :]
    if distance == "euclidean" and x.shape[1] >= EUCLIDEAN_FOLD_BELOW:
        xx = np.sum(x * x, axis=1)[:, None]
        yy = np.sum(y * y, axis=1)[None, :]
        d2 = np.maximum(xx + yy - 2.0 * (x @ y.T), 0.0)
        return d2 if squared else np.sqrt(d2)
    if distance == "manhattan":
        terms = np.abs(diff)
    elif distance == "euclidean":
        terms = diff * diff
    else:
        terms = diff * diff / (x[:, None, :] + y[None, :, :] + CHI_SQUARE_EPS)
    total = terms[:, :, 0]
    for f in range(1, x.shape[1]):
        total = total + terms[:, :, f]
    return np.sqrt(total) if distance == "euclidean" and not squared else total


# Both sides of the euclidean fold switch, and widths from 8 up, where np.sum
# would add pairwise and the fold still adds left to right
GRAM_DIMS = sorted({1, 2, 7, 8, 9, EUCLIDEAN_FOLD_BELOW - 1, EUCLIDEAN_FOLD_BELOW})


def numpy_cross(x, y, spec):
    """Oracle for cross_matrix: the kernel over whole-matrix distances."""
    if spec.kind == "linear":
        return x @ y.T
    distance = "euclidean" if spec.kind == "rbf" else spec.distance
    return np.exp(-spec.gamma * numpy_distances(x, y, distance, spec.kind == "rbf"))


def numpy_gram(x, spec):
    """Oracle for gram_matrix: the full cross matrix, its upper triangle
    mirrored, and a unit diagonal for rbf kinds."""
    values = np.triu(numpy_cross(x, x, spec))
    values = values + np.triu(values, k=1).T
    if spec.is_rbf_kind:
        np.fill_diagonal(values, 1.0)
    return values


def _pair_distance(x, y, distance):
    diff = x - y
    if distance == "euclidean":
        return float(np.sqrt(np.dot(diff, diff)))
    if distance == "manhattan":
        return float(np.sum(np.abs(diff)))
    return float(np.sum(diff * diff / (x + y + CHI_SQUARE_EPS)))


def kernel_eval(x, y, spec):
    """Single-pair oracle: k(x, y) for two feature vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise InputError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if spec.kind == "linear":
        return float(np.dot(x, y))
    gamma = spec.gamma
    if gamma is None:
        raise InputError("gamma unresolved; call resolve_gamma or pass an explicit value")
    if spec.kind == "rbf":
        diff = x - y
        return float(np.exp(-gamma * np.dot(diff, diff)))
    if spec.distance == "chi_square":
        _check_chi_square_inputs(x, y)
    return float(np.exp(-gamma * _pair_distance(x, y, spec.distance)))


def median_gamma_oracle(spec, features):
    """resolve_gamma's gamma as it was first written: the same seeded
    subsample, whole-matrix distances, and np.median over np.triu_indices."""
    x = np.asarray(features, dtype=float)
    n = x.shape[0]
    if n > MEDIAN_SUBSAMPLE:
        rng = np.random.default_rng(derive_seed(0, "median-gamma"))
        x = x[rng.choice(n, size=MEDIAN_SUBSAMPLE, replace=False)]
    distance = "euclidean" if spec.kind == "rbf" else spec.distance
    d = numpy_distances(x, x, distance, spec.kind == "rbf")
    iu = np.triu_indices(x.shape[0], k=1)
    med = float(np.median(d[iu])) if iu[0].size else 0.0
    return 1.0 / med if med > 0 else 1.0


def median_features(n, dim, pattern, seed):
    """Features for the median oracle: nonnegative normals, small integers
    (many tied distances), two distinct rows (a zero median at times), or
    one constant row (median 0, gamma 1.0)."""
    rng = np.random.default_rng(seed)
    if pattern == "normal":
        return np.abs(rng.standard_normal((n, dim)))
    if pattern == "tied":
        return rng.integers(0, 3, size=(n, dim)).astype(float)
    if pattern == "two_rows":
        return np.abs(rng.standard_normal((2, dim)))[rng.integers(0, 2, size=n)]
    return np.full((n, dim), 1.5)


def check_psd(m, tol):
    """True iff the smallest eigenvalue is >= -tol (symmetric eigensolve)."""
    smallest = float(np.linalg.eigvalsh(m.values)[0])
    return smallest >= -tol


class TestKernelEval:
    def test_rbf_self_is_one(self):
        x = np.array([0.3, -1.2, 4.0])
        assert kernel_eval(x, x, KernelSpec(kind="rbf", gamma=1.0)) == 1.0

    def test_linear_orthogonal(self):
        assert kernel_eval(np.array([1.0, 0.0]), np.array([0.0, 1.0]), KernelSpec(kind="linear")) == 0.0

    def test_rbf_hand_computed(self):
        # squared euclidean distance between (1,2) and (3,4) is 8
        val = kernel_eval(np.array([1.0, 2.0]), np.array([3.0, 4.0]), KernelSpec(kind="rbf", gamma=0.5))
        assert val == pytest.approx(np.exp(-4.0), rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            kernel_eval(np.ones(2), np.ones(3), KernelSpec(kind="linear"))
        with pytest.raises(InputError, match="dimension mismatch: 2 vs 3"):
            cross_matrix(np.ones((1, 2)), np.ones((4, 3)), KernelSpec(kind="linear"))

    def test_chi_square_rejects_negative(self):
        spec = KernelSpec(kind="generalized_rbf", gamma=1.0, distance="chi_square")
        with pytest.raises(InputError):
            kernel_eval(np.array([-1.0, 2.0]), np.array([1.0, 2.0]), spec)

    def test_manhattan_distance(self):
        spec = KernelSpec(kind="generalized_rbf", gamma=2.0, distance="manhattan")
        val = kernel_eval(np.array([1.0, 1.0]), np.array([2.0, 3.0]), spec)
        assert val == pytest.approx(np.exp(-2.0 * 3.0), rel=1e-15)

    @given(
        hnp.arrays(np.float64, 4, elements=st.floats(-10, 10)),
        hnp.arrays(np.float64, 4, elements=st.floats(-10, 10)),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x, y):
        for spec in (KernelSpec(kind="linear"), KernelSpec(kind="rbf", gamma=0.7)):
            assert kernel_eval(x, y, spec) == kernel_eval(y, x, spec)

    @given(
        hnp.arrays(np.float64, 3, elements=st.integers(-5000, 5000).map(lambda v: v / 1000)),
        hnp.arrays(np.float64, 3, elements=st.integers(-5000, 5000).map(lambda v: v / 1000)),
    )
    @settings(max_examples=50, deadline=None)
    def test_rbf_bounds(self, x, y):
        val = kernel_eval(x, y, KernelSpec(kind="rbf", gamma=0.5))
        assert 0.0 < val <= 1.0
        assert (val == 1.0) == np.array_equal(x, y)


class TestGramMatrix:
    def test_single_point(self):
        # a single point cannot represent two classes: use two identical points
        d = dataset_from_features(np.array([[1.0, 2.0], [1.0, 2.0]]))
        km = gram_matrix(d, KernelSpec(kind="linear"))
        assert km.values.shape == (2, 2)
        assert km.values[0, 0] == 5.0

    def test_identical_points_rbf_all_ones(self):
        x = np.tile(np.array([0.5, -1.0, 2.0]), (3, 1))
        km = gram_matrix(dataset_from_features(x), KernelSpec(kind="rbf", gamma=1.3))
        np.testing.assert_allclose(km.values, np.ones((3, 3)), rtol=0, atol=1e-12)

    def test_linear_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 3))
        km = gram_matrix(dataset_from_features(x), KernelSpec(kind="linear"))
        np.testing.assert_allclose(km.values, x @ x.T, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.distance}")
    @pytest.mark.parametrize("n", [20, 400, 1100, 1500])
    def test_symmetry_is_bit_exact(self, spec, n):
        # sskkm takes member sums as (w'K)', which needs K exactly symmetric;
        # from n = 363 on the Gram spans more than one fold block. 7 features
        # take the matmul route, whose x @ x.T OpenBLAS may split by thread
        # from about 1,000 rows up: so on one BLAS thread and on the default
        # count, as a library caller gets it.
        assert 400 * 400 > BLOCK_ENTRIES > 362 * 362
        assert 1500 * 1500 >= FAN_OUT_MIN_ENTRIES and EUCLIDEAN_FOLD_BELOW <= 7
        for dim in (4, 7):
            x = np.random.default_rng(4).standard_normal((n, dim))
            if spec.distance == "chi_square":
                x = np.abs(x)
            for blas in (core.one_blas_thread, nullcontext):
                with blas():
                    km = gram_matrix(dataset_from_features(x), spec)
                assert np.array_equal(km.values, km.values.T), (dim, blas)

    def test_rbf_diagonal_exactly_one(self):
        rng = np.random.default_rng(5)
        km = gram_matrix(dataset_from_features(rng.standard_normal((10, 3))), KernelSpec())
        assert np.all(np.diagonal(km.values) == 1.0)


    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.distance}")
    @pytest.mark.parametrize("n", [2, 63, 64, 65, 131, 400])
    @pytest.mark.parametrize("dim", GRAM_DIMS)
    def test_in_place_build_matches_whole_matrix_oracle(self, spec, n, dim):
        # n=1 cannot form a valid two-class dataset; cross_matrix covers it
        x = np.abs(np.random.default_rng(n * 10 + dim).standard_normal((n, dim))) * 3.0
        x[n - n // 2:] = x[: n // 2]  # duplicate points round to distances <= 0
        km = gram_matrix(dataset_from_features(x), spec)
        assert np.array_equal(km.values, numpy_gram(x, km.spec))
        assert np.array_equal(km.values, km.values.T)
        if spec.is_rbf_kind:
            assert np.all(km.diag == 1.0)


@pytest.mark.parametrize("distance", ["manhattan", "chi_square"])
@pytest.mark.parametrize("dim", range(1, 8))
def test_fold_is_np_sum_below_eight_features(distance, dim):
    # np.sum adds fewer than 8 values left to right from 0.0, so at these
    # widths the fold gives the bits of np.sum over the per-feature terms
    rng = np.random.default_rng(dim)
    x, y = np.abs(rng.standard_normal((30, dim))), np.abs(rng.standard_normal((40, dim)))
    diff = x[:, None, :] - y[None, :, :]
    if distance == "manhattan":
        want = np.sum(np.abs(diff), axis=2)
    else:
        want = np.sum(diff * diff / (x[:, None, :] + y[None, :, :] + CHI_SQUARE_EPS), axis=2)
    got = np.empty((30, 40))
    _fill_pairwise(got, x, y, KernelSpec(kind="generalized_rbf", distance=distance))
    assert np.array_equal(got, want)


class TestCheckPsd:
    def test_identity(self):
        d = dataset_from_features(np.eye(3))
        km = gram_matrix(d, KernelSpec(kind="linear"))
        assert check_psd(km, 0.0)

    def test_indefinite_matrix(self):
        m = KernelMatrix(values=np.array([[1.0, 2.0], [2.0, 1.0]]), spec=KernelSpec(kind="linear"))
        # eigenvalues 3 and -1
        assert not check_psd(m, 1e-9)

    def test_linear_gram_always_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.standard_normal((rng.integers(2, 30), rng.integers(1, 6)))
            km = gram_matrix(dataset_from_features(x), KernelSpec(kind="linear"))
            assert check_psd(km, 1e-8)


class TestGammaResolution:
    def test_median_heuristic_positive_and_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((100, 2))
        a = resolve_gamma(KernelSpec(kind="rbf"), x)
        b = resolve_gamma(KernelSpec(kind="rbf"), x)
        assert a.gamma == b.gamma
        assert a.gamma > 0

    @pytest.mark.parametrize("spec", SPECS[1:], ids=lambda s: f"{s.kind}-{s.distance}")
    @pytest.mark.parametrize("dim", [4, EUCLIDEAN_FOLD_BELOW, 8, 9])
    def test_median_matches_whole_matrix_oracle(self, spec, dim):
        x = np.abs(np.random.default_rng(12).standard_normal((90, dim)))
        distance = "euclidean" if spec.kind == "rbf" else spec.distance
        d = numpy_distances(x, x, distance, spec.kind == "rbf")
        assert resolve_gamma(spec, x).gamma == 1.0 / np.median(d[np.triu_indices(90, k=1)])

    @settings(max_examples=150, deadline=None)
    @given(
        spec=st.sampled_from(SPECS[1:]),
        n=st.integers(0, 700),
        dim=st.integers(1, 4),
        pattern=st.sampled_from(["normal", "tied", "two_rows", "constant"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_median_equals_np_median_oracle(self, spec, n, dim, pattern, seed):
        x = median_features(n, dim, pattern, seed)
        got = resolve_gamma(spec, x).gamma
        assert got.hex() == median_gamma_oracle(spec, x).hex()

    @pytest.mark.parametrize("spec", SPECS[1:], ids=lambda s: f"{s.kind}-{s.distance}")
    def test_median_equals_np_median_oracle_at_edges(self, spec):
        # n < 2 has no pairs; from 3 on the pair count alternates odd and
        # even (3, 6, 10, 15 pairs); 512 is the largest sample taken whole
        for n in (0, 1, 2, 3, 4, 5, 511, 512, 513, 700):
            for pattern in ("normal", "tied", "two_rows", "constant"):
                x = median_features(n, 2, pattern, n)
                got = resolve_gamma(spec, x).gamma
                assert got.hex() == median_gamma_oracle(spec, x).hex(), (n, pattern)
                if pattern == "constant" or n < 2:
                    assert got == 1.0

    @pytest.mark.parametrize("spec, step", [
        (KernelSpec(kind="rbf"), 1e-160),  # squared distances of 1e-320 and so on
        (KernelSpec(kind="generalized_rbf", distance="manhattan"), 1e-310),
        (KernelSpec(kind="generalized_rbf", distance="chi_square"), 1e-161),
    ], ids=lambda v: getattr(v, "distance", ""))
    def test_median_too_small_for_a_finite_gamma_rejected(self, spec, step):
        # the median distance over 0, step, 2 step, 3 step and 1 is subnormal,
        # and 1/median overflows to inf
        x = np.array([[0.0], [step], [2 * step], [3 * step], [1.0]])
        with pytest.raises(InputError, match="median-heuristic gamma"):
            resolve_gamma(spec, x)

    def test_explicit_gamma_untouched(self):
        spec = KernelSpec(kind="rbf", gamma=2.5)
        assert resolve_gamma(spec, np.zeros((3, 2))).gamma == 2.5

    def test_invalid_spec_rejected(self):
        for gamma in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(InputError, match="gamma must be positive and finite"):
                KernelSpec(kind="rbf", gamma=gamma)
        with pytest.raises(InputError):
            KernelSpec(kind="bogus")
        with pytest.raises(InputError):
            KernelSpec(kind="generalized_rbf", gamma=1.0, distance="bogus")


def with_unit_gamma(spec):
    return spec if spec.kind == "linear" else KernelSpec(spec.kind, 1.0, spec.distance)


class TestMagnitudeBound:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.distance}")
    @pytest.mark.parametrize("dim", [1, 3])
    def test_features_at_the_bound_stay_finite_beyond_it_rejected(self, spec, dim):
        # below 0.5 * sqrt(float64 max / d) no product warns (the suite turns
        # RuntimeWarnings into errors); just above it every entry point that
        # builds products rejects the features, naming the bound
        bound = 0.5 * np.sqrt(np.finfo(float).max / dim)
        for scale, fits in ((0.999, True), (1.001, False)):
            x = np.zeros((4, dim))
            x[1], x[3] = scale * bound, 1.0
            if spec.distance != "chi_square":
                x[2] = -scale * bound
            calls = [
                lambda: gram_matrix(dataset_from_features(x), spec),
                lambda: cross_matrix(x, x, with_unit_gamma(spec)),
            ]
            if spec.kind != "linear":  # linear resolves no gamma, builds nothing
                calls.append(lambda: resolve_gamma(spec, x))
            for call in calls:
                if fits:
                    call()
                else:
                    with pytest.raises(InputError, match=re.escape(f"exceeds {bound:.3g},")):
                        call()


class TestCrossAndDiag:
    def test_cross_matches_pairwise_eval(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((6, 3))
        for spec in (
            KernelSpec(kind="linear"),
            KernelSpec(kind="rbf", gamma=0.6),
            KernelSpec(kind="generalized_rbf", gamma=0.4, distance="manhattan"),
        ):
            got = cross_matrix(x, y, spec)
            want = np.array([[kernel_eval(a, b, spec) for b in y] for a in x])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.distance}")
    # the largest q takes more than one fold block of BLOCK_ENTRIES entries
    @pytest.mark.parametrize("q", [1, 65, 131, BLOCK_ENTRIES // 69 + 7])
    @pytest.mark.parametrize("dim", [3, EUCLIDEAN_FOLD_BELOW, 8, 9])
    def test_cross_matches_whole_matrix_oracle(self, spec, q, dim):
        rng = np.random.default_rng(q)
        x = np.abs(rng.standard_normal((q, dim)))
        y = np.abs(rng.standard_normal((69, dim)))
        y[: min(q, 9)] = x[:9]
        spec = resolve_gamma(spec, y)
        assert np.array_equal(cross_matrix(x, y, spec), numpy_cross(x, y, spec))

    def test_diag(self):
        x = np.array([[1.0, 2.0], [0.0, 3.0]])
        np.testing.assert_array_equal(kernel_diag(x, KernelSpec(kind="linear")), [5.0, 9.0])
        np.testing.assert_array_equal(kernel_diag(x, KernelSpec(kind="rbf", gamma=1.0)), [1.0, 1.0])


class TestMemoryCheck:
    """cross_matrix compares 8*Q*N with core.available_memory() before it
    allocates; the reader is patched."""

    def test_a_matrix_within_memory_or_of_unknown_memory_is_built(self, monkeypatch):
        x = np.ones((10, 2))
        for available in (800, None):
            monkeypatch.setattr(kernels, "available_memory", lambda: available)
            assert np.array_equal(cross_matrix(x, x, KernelSpec(kind="linear")),
                                  np.full((10, 10), 2.0))

    @pytest.mark.parametrize("q", [10, 12])
    def test_a_matrix_beyond_memory_is_an_input_error(self, monkeypatch, q):
        reads = []
        monkeypatch.setattr(kernels, "available_memory",
                            lambda: reads.append(1) or 8 * q * 10 - 1)
        with pytest.raises(InputError, match=rf"Q={q} by N=10 points needs {8 * q * 10} bytes"):
            cross_matrix(np.zeros((q, 2)), np.zeros((10, 2)), KernelSpec(kind="linear"))
        assert reads == [1]


class TestFanOutBitForBit:
    """The Gram and cross matrices are the same bits whether core.fan_out
    runs their row blocks inline or on two threads."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.distance}")
    @pytest.mark.parametrize("dim", [3, EUCLIDEAN_FOLD_BELOW])
    # 400 rows sit below the floor, unless it is lowered to 0; 1,460 above it.
    @pytest.mark.parametrize("n, floor", [(400, FAN_OUT_MIN_ENTRIES), (400, 0),
                                          (1460, FAN_OUT_MIN_ENTRIES)])
    def test_one_and_two_threads_equal(self, spec, dim, n, floor, fan_out_threads, monkeypatch):
        assert (n * n >= FAN_OUT_MIN_ENTRIES) == (n == 1460)
        monkeypatch.setattr(core, "FAN_OUT_MIN_ENTRIES", floor)
        rng = np.random.default_rng(n + dim)
        x = rng.standard_normal((n, dim))
        q = rng.standard_normal((FAN_OUT_MIN_ENTRIES // n + 1, dim))
        if spec.distance == "chi_square":
            x, q = np.abs(x), np.abs(q)
        out = {}
        for threads in (1, 2):
            fan_out_threads(threads)
            km = gram_matrix(dataset_from_features(x), spec)
            out[threads] = km.values, cross_matrix(q, x, km.spec)
        assert np.array_equal(out[1][0], out[2][0])
        assert np.array_equal(out[1][1], out[2][1])
