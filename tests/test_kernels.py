import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from misspec_ssl.core import Dataset, InputError
from misspec_ssl.kernels import (
    BLOCK_ROWS,
    CHI_SQUARE_EPS,
    KernelMatrix,
    KernelSpec,
    _check_chi_square_inputs,
    cross_matrix,
    gram_matrix,
    kernel_diag,
    resolve_gamma,
)


def dataset_from_features(x, n_classes=2):
    n = x.shape[0]
    labels = np.arange(n_classes)
    return Dataset(
        features=x,
        labeled_idx=np.arange(n_classes),
        labels=labels,
        unlabeled_idx=np.arange(n_classes, n),
        n_classes=n_classes,
    )


SPECS = [
    KernelSpec(kind="linear"),
    KernelSpec(kind="rbf"),
    KernelSpec(kind="generalized_rbf", distance="euclidean"),
    KernelSpec(kind="generalized_rbf", distance="manhattan"),
    KernelSpec(kind="generalized_rbf", distance="chi_square"),
]


def numpy_distances(x, y, distance, squared):
    """All-pairs distances as plain whole-matrix numpy expressions."""
    if distance == "euclidean":
        xx = np.sum(x * x, axis=1)[:, None]
        yy = np.sum(y * y, axis=1)[None, :]
        d2 = np.maximum(xx + yy - 2.0 * (x @ y.T), 0.0)
        return d2 if squared else np.sqrt(d2)
    if distance == "manhattan":
        return np.sum(np.abs(x[:, None, :] - y[None, :, :]), axis=2)
    diff = x[:, None, :] - y[None, :, :]
    return np.sum(diff * diff / (x[:, None, :] + y[None, :, :] + CHI_SQUARE_EPS), axis=2)


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

    def test_symmetry_is_bit_exact(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 4))
        for spec in (KernelSpec(kind="linear"), KernelSpec(kind="rbf", gamma=None)):
            km = gram_matrix(dataset_from_features(x), spec)
            assert np.array_equal(km.values, km.values.T)

    def test_rbf_diagonal_exactly_one(self):
        rng = np.random.default_rng(5)
        km = gram_matrix(dataset_from_features(rng.standard_normal((10, 3))), KernelSpec())
        assert np.all(np.diagonal(km.values) == 1.0)


    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.distance}")
    @pytest.mark.parametrize("n", [2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3])
    @pytest.mark.parametrize("dim", [1, 2, 7])
    def test_in_place_build_matches_whole_matrix_oracle(self, spec, n, dim):
        # n=1 cannot form a valid two-class dataset; cross_matrix covers it
        x = np.abs(np.random.default_rng(n * 10 + dim).standard_normal((n, dim))) * 3.0
        x[n - n // 2:] = x[: n // 2]  # duplicate points round to distances <= 0
        km = gram_matrix(dataset_from_features(x), spec)
        assert np.array_equal(km.values, numpy_gram(x, km.spec))
        assert np.array_equal(km.values, km.values.T)
        if spec.is_rbf_kind:
            assert np.all(km.diag == 1.0)


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
    def test_median_matches_whole_matrix_oracle(self, spec):
        x = np.abs(np.random.default_rng(12).standard_normal((90, 4)))
        distance = "euclidean" if spec.kind == "rbf" else spec.distance
        d = numpy_distances(x, x, distance, spec.kind == "rbf")
        assert resolve_gamma(spec, x).gamma == 1.0 / np.median(d[np.triu_indices(90, k=1)])

    def test_explicit_gamma_untouched(self):
        spec = KernelSpec(kind="rbf", gamma=2.5)
        assert resolve_gamma(spec, np.zeros((3, 2))).gamma == 2.5

    def test_invalid_spec_rejected(self):
        with pytest.raises(InputError):
            KernelSpec(kind="rbf", gamma=-1.0)
        with pytest.raises(InputError):
            KernelSpec(kind="bogus")
        with pytest.raises(InputError):
            KernelSpec(kind="generalized_rbf", gamma=1.0, distance="bogus")


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
    @pytest.mark.parametrize("q", [1, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3])
    def test_cross_matches_whole_matrix_oracle(self, spec, q):
        rng = np.random.default_rng(q)
        x = np.abs(rng.standard_normal((q, 3)))
        y = np.abs(rng.standard_normal((BLOCK_ROWS + 5, 3)))
        y[: min(q, 9)] = x[:9]
        spec = resolve_gamma(spec, y)
        assert np.array_equal(cross_matrix(x, y, spec), numpy_cross(x, y, spec))

    def test_diag(self):
        x = np.array([[1.0, 2.0], [0.0, 3.0]])
        np.testing.assert_array_equal(kernel_diag(x, KernelSpec(kind="linear")), [5.0, 9.0])
        np.testing.assert_array_equal(kernel_diag(x, KernelSpec(kind="rbf", gamma=1.0)), [1.0, 1.0])
