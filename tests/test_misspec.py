import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misspec_ssl.core import InputError
from misspec_ssl.misspec import (
    LabelMap,
    StructureGrowthCapped,
    default_threshold,
    disagreement_criterion,
    modify_structure,
)


class TestCriterion:
    def test_identical_lists_never_misspecified(self):
        preds = np.array([0, 1, 0, 1])
        report = disagreement_criterion(preds, preds.copy(), 0)
        assert report.disagreements == 0
        assert not report.misspecified
        assert report.disagreeing_points == ()

    def test_three_of_twenty_over_threshold_one(self):
        a = np.zeros(20, dtype=int)
        b = np.zeros(20, dtype=int)
        b[[3, 7, 11]] = 1
        report = disagreement_criterion(a, b, 1)
        assert report.disagreements == 3
        assert report.misspecified
        assert [p for p, _, _ in report.disagreeing_points] == [3, 7, 11]

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            disagreement_criterion(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 0)

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=60),
        st.integers(0, 2**32 - 1),
        st.integers(0, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_count_matches_brute_force_and_is_symmetric(self, a, seed, eps):
        a = np.array(a)
        b = np.random.default_rng(seed).integers(0, 4, size=a.size)
        report = disagreement_criterion(a, b, eps)
        brute = sum(1 for x, y in zip(a, b) if x != y)
        assert report.disagreements == brute
        assert report.misspecified == (brute > eps)
        flipped = disagreement_criterion(b, a, eps)
        assert flipped.disagreements == report.disagreements


class TestDefaultThreshold:
    def test_examples(self):
        assert default_threshold(20) == 1
        assert default_threshold(100) == 5
        assert default_threshold(1) == 1

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            default_threshold(0)


def identity_map(labels, n_classes=2):
    return LabelMap.identity(np.array(labels), n_classes)


class TestLabelMapChecks:
    def test_identity_valid(self):
        assert identity_map([0, 1, 0, 1]).n_fine == 2

    def test_not_surjective(self):
        with pytest.raises(InputError, match="not surjective"):
            LabelMap(fine_to_class=[0, 0], fine_of_point=[0, 1], n_classes=2)

    def test_carrierless_label(self):
        with pytest.raises(InputError, match="without a labeled carrier"):
            LabelMap(fine_to_class=[0, 1, 1], fine_of_point=[0, 1], n_classes=2)


class TestModifyStructure:
    def test_requires_misspecified_report(self):
        labels = np.array([0, 1])
        report = disagreement_criterion(labels, labels, 0)
        with pytest.raises(InputError):
            modify_structure(identity_map(labels), report, labels, labels)

    def test_single_pair_grows_by_one(self):
        labels = np.array([0, 0, 0, 1, 1])
        preds_orig = np.array([1, 1, 0, 1, 1])
        preds_unb = np.array([1, 1, 0, 1, 1])
        # points 0,1 disagree with the original predictions below
        preds_orig = np.array([0, 0, 0, 1, 1])
        report = disagreement_criterion(preds_orig, preds_unb, 1)
        assert report.disagreements == 2
        lm = modify_structure(identity_map(labels), report, labels, preds_unb)
        assert lm.n_fine == 3
        assert lm.fine_to_class[2] == 1  # new label maps to the unbiased prediction
        np.testing.assert_array_equal(lm.fine_of_point, [2, 2, 0, 1, 1])

    def test_distinct_pairs_counted(self):
        labels = np.array([0, 1, 0, 0, 1, 1])
        preds_unb = np.array([1, 0, 1, 0, 1, 1])
        preds_orig = np.array([0, 1, 0, 0, 1, 1])
        # disagreeing points: 0 (0->1), 1 (1->0), 2 (0->1); pairs {(0,1),(1,0)}
        report = disagreement_criterion(preds_orig, preds_unb, 0)
        assert report.disagreements == 3
        lm = modify_structure(identity_map(labels), report, labels, preds_unb)
        assert lm.n_fine == 4
        assert sorted(lm.fine_to_class[2:].tolist()) == [0, 1]

    def test_base_label_without_carriers_dropped(self):
        # both class-0 points move to a (0, 1) label and the class-1 point 2
        # to a (1, 0) label: base label 0 loses its carriers, and the
        # survivors are renumbered, so fine label 0 now maps to class 1
        labels = np.array([0, 0, 1, 1])
        preds_unb = np.array([1, 1, 0, 1])
        report = disagreement_criterion(labels, preds_unb, 0)
        lm = modify_structure(identity_map(labels), report, labels, preds_unb)
        np.testing.assert_array_equal(lm.fine_to_class, [1, 1, 0])
        np.testing.assert_array_equal(lm.fine_of_point, [1, 1, 2, 0])

    def test_composition_invariant(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=30)
        labels[:3] = [0, 1, 2]
        preds_unb = rng.integers(0, 3, size=30)
        preds_orig = labels.copy()
        report = disagreement_criterion(preds_orig, preds_unb, 0)
        if not report.misspecified:
            pytest.skip("no disagreements drawn")
        lm = modify_structure(identity_map(labels, 3), report, labels, preds_unb)
        mapped = lm.fine_to_class[lm.fine_of_point]
        disagreeing = {p for p, _, _ in report.disagreeing_points}
        for p in range(30):
            if p in disagreeing:
                assert mapped[p] == preds_unb[p]
            else:
                assert mapped[p] == labels[p]

    def test_growth_cap(self):
        labels = np.array([0, 0, 1, 1])
        preds_unb = np.array([1, 0, 1, 1])
        preds_orig = np.array([0, 0, 1, 1])
        report = disagreement_criterion(preds_orig, preds_unb, 0)
        with pytest.raises(StructureGrowthCapped):
            modify_structure(identity_map(labels), report, labels, preds_unb, k_max=2)

    def test_strict_growth(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            labels = rng.integers(0, 2, size=12)
            labels[:2] = [0, 1]
            preds_unb = rng.integers(0, 2, size=12)
            preds_orig = rng.integers(0, 2, size=12)
            report = disagreement_criterion(preds_orig, preds_unb, 0)
            if not report.misspecified:
                continue
            lm0 = identity_map(labels)
            try:
                lm1 = modify_structure(lm0, report, labels, preds_unb)
            except StructureGrowthCapped:
                continue
            assert lm1.n_fine > lm0.n_fine

    def test_class_keeps_a_carrier(self):
        # every class-0 point disagrees and the unbiased model calls them all class 1
        labels = np.array([0, 0, 1, 1])
        preds_unb = np.array([1, 1, 1, 1])
        preds_orig = np.array([0, 0, 1, 1])
        report = disagreement_criterion(preds_orig, preds_unb, 0)
        lm = modify_structure(identity_map(labels), report, labels, preds_unb)
        assert set(lm.fine_to_class.tolist()) == {0, 1}  # still onto both classes
        assert 0 in lm.fine_to_class[lm.fine_of_point[labels == 0]]
