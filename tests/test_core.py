import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misspec_ssl.core import (
    Dataset,
    InputError,
    SolverOptions,
    derive_seed,
    validate_dataset,
)


def make_dataset(n=4, labeled=(0, 1), labels=(0, 1), unlabeled=(2, 3), n_classes=2, dim=2):
    rng = np.random.default_rng(0)
    return Dataset(
        features=rng.standard_normal((n, dim)),
        labeled_idx=np.array(labeled),
        labels=np.array(labels),
        unlabeled_idx=np.array(unlabeled),
        n_classes=n_classes,
    )


class TestValidateDataset:
    def test_consistent_partition_ok(self):
        report = validate_dataset(make_dataset())
        assert report.ok
        assert report.violations == ()

    def test_overlap_reported_with_index(self):
        d = make_dataset(labeled=(0, 1), unlabeled=(1, 2))
        report = validate_dataset(d)
        assert not report.ok
        assert any("overlap at index 1" in v for v in report.violations)

    def test_unrepresented_class(self):
        d = make_dataset(labels=(0, 0))
        report = validate_dataset(d)
        assert not report.ok
        assert any("class 1 unrepresented" in v for v in report.violations)

    def test_non_finite_features(self):
        d = make_dataset()
        d.features[1, 1] = np.nan
        report = validate_dataset(d)
        assert not report.ok
        assert any("non-finite" in v for v in report.violations)

    def test_out_of_range_and_duplicates(self):
        d = make_dataset(unlabeled=(2, 2))
        report = validate_dataset(d)
        assert any("duplicate" in v for v in report.violations)
        d = make_dataset(unlabeled=(2, 9))
        report = validate_dataset(d)
        assert any("out of range" in v for v in report.violations)

    def test_rows_in_neither_partition_reported(self):
        d = make_dataset(n=6)
        report = validate_dataset(d)
        assert not report.ok
        assert report.violations == (
            "2 rows in neither labeled_idx nor unlabeled_idx, first [4, 5]",
        )

    def test_no_labeled_points_rejected(self):
        d = make_dataset(labeled=(), labels=(), unlabeled=(0, 1, 2, 3))
        report = validate_dataset(d)
        assert not report.ok

    def test_pure_function(self):
        d = make_dataset(labeled=(0, 1), unlabeled=(1, 2))
        assert validate_dataset(d) == validate_dataset(d)

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
        assert validate_dataset(d).ok


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
