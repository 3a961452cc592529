import numpy as np
import pytest
from hypothesis import assume, given, settings
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

    @pytest.mark.parametrize("original, unbiased, threshold, message", [
        ([0, 1], [0, 1], -1, "threshold must be >= 0, got -1"),
        ([0.5, 1.7], [0, 1], 0, "preds_original must hold integers only"),
        ([0, 1], [0.0, 1.0], 0, "preds_unbiased must hold integers only"),
        ([0, 1], [False, True], 0, "preds_unbiased must hold integers only"),
    ], ids=["negative_threshold", "fractions", "whole_floats", "booleans"])
    def test_bad_input_rejected(self, original, unbiased, threshold, message):
        with pytest.raises(InputError, match=message):
            disagreement_criterion(original, unbiased, threshold)

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


def oracle_modify_structure(lm, report, labels, preds_unbiased, k_max=None):
    """modify_structure as it was before the carrier fixpoint: pair dicts and
    a one-pass carrier count. It is the reference except where keeping a
    point on its class empties another class: there it builds a LabelMap
    that is not onto the classes (InputError), or caps on a count of pairs
    that still includes the points the fixpoint keeps."""
    if not report.misspecified:
        raise InputError("modify_structure requires a misspecified report")
    labels = np.asarray(labels, dtype=int)
    preds_unbiased = np.asarray(preds_unbiased, dtype=int)
    if labels.size != report.n_labeled or preds_unbiased.size != report.n_labeled:
        raise InputError("labels/predictions not aligned with the criterion report")

    disagreeing = [p for p, _, _ in report.disagreeing_points]
    pair_points = {}
    for p in disagreeing:
        pair = (int(labels[p]), int(preds_unbiased[p]))
        pair_points.setdefault(pair, []).append(p)

    post_carriers = np.zeros(lm.n_classes, dtype=int)
    mover = {p: pair for pair, pts in pair_points.items() for p in pts}
    for p in range(report.n_labeled):
        post_carriers[mover[p][1] if p in mover else labels[p]] += 1
    keep_home = set()
    for c in np.flatnonzero(post_carriers == 0).tolist():
        stay = min(p for p in disagreeing if labels[p] == c)
        keep_home.add(stay)
        del mover[stay]

    new_pairs = sorted({pair for pair in pair_points if set(pair_points[pair]) - keep_home})
    if k_max is not None and lm.n_fine + len(new_pairs) > k_max:
        raise StructureGrowthCapped(
            f"growing from K={lm.n_fine} by {len(new_pairs)} would exceed K_max={k_max}"
        )

    fine_of_point = lm.fine_of_point.copy()
    fine_to_class = list(lm.fine_to_class.tolist())

    def base_of_class(c):
        return int(np.flatnonzero(lm.fine_to_class == c)[0])

    for pair in new_pairs:
        new_label = len(fine_to_class)
        fine_to_class.append(pair[1])
        for p in pair_points[pair]:
            if p in mover:
                fine_of_point[p] = new_label

    for p in range(report.n_labeled):
        if p in mover:
            continue
        if fine_to_class[fine_of_point[p]] != labels[p]:
            fine_of_point[p] = base_of_class(int(labels[p]))

    carriers = np.bincount(fine_of_point, minlength=len(fine_to_class))
    keep = np.flatnonzero(carriers > 0)
    renumber = -np.ones(len(fine_to_class), dtype=int)
    renumber[keep] = np.arange(keep.size)

    out = LabelMap(
        fine_to_class=np.asarray([fine_to_class[int(k)] for k in keep], dtype=int),
        fine_of_point=renumber[fine_of_point],
        n_classes=lm.n_classes,
    )
    if out.n_fine <= lm.n_fine:
        raise StructureGrowthCapped(
            f"modification did not grow the structure (K stayed {lm.n_fine})"
        )
    return out


def outcome(fn, *args, **kwargs):
    """fn's LabelMap, or the InputError or StructureGrowthCapped it raised."""
    try:
        return fn(*args, **kwargs)
    except (InputError, StructureGrowthCapped) as exc:
        return exc


def random_report(rng, labels, n_classes):
    """A report at threshold 0 whose unbiased predictions keep each point's
    class with probability 1/2; the original predictions are its class or
    random. Returns the report and the unbiased predictions."""
    n = labels.size
    preds_unb = np.where(rng.random(n) < 0.5, labels, rng.integers(0, n_classes, n))
    preds_orig = np.where(rng.random(n) < 0.5, labels, rng.integers(0, n_classes, n))
    return disagreement_criterion(preds_orig, preds_unb, 0), preds_unb


def empties_another_class(report, labels, preds_unb, n_classes):
    """Whether the oracle's one pass leaves a class that no point targets:
    keeping a point on its class took another class's only carrier."""
    target = labels.copy()
    disagreeing = [p for p, _, _ in report.disagreeing_points]
    target[disagreeing] = preds_unb[disagreeing]
    for c in np.setdiff1d(np.arange(n_classes), target):
        target[min(p for p in disagreeing if labels[p] == c)] = c
    return np.setdiff1d(np.arange(n_classes), target).size > 0


class TestLabelMapChecks:
    def test_identity_valid(self):
        assert identity_map([0, 1, 0, 1]).n_fine == 2

    @pytest.mark.parametrize("field", ["fine_to_class", "fine_of_point"])
    @pytest.mark.parametrize("values", [[0.0, 1.0], [0.5, 1.7], [False, True]],
                             ids=["whole_floats", "fractions", "booleans"])
    def test_ids_that_are_not_integers_are_rejected(self, field, values):
        arrays = {"fine_to_class": [0, 1], "fine_of_point": [0, 1], field: values}
        with pytest.raises(InputError, match=f"{field} must hold integers only"):
            LabelMap(**arrays, n_classes=2)

    def test_not_surjective(self):
        with pytest.raises(InputError, match="not surjective"):
            LabelMap(fine_to_class=[0, 0], fine_of_point=[0, 1], n_classes=2)

    def test_carrierless_label(self):
        with pytest.raises(InputError, match="without a labeled carrier"):
            LabelMap(fine_to_class=[0, 1, 1], fine_of_point=[0, 1], n_classes=2)

    @pytest.mark.parametrize("fine_to_class, fine_of_point, message", [
        ([0], [0, 0], "label map has 1 fine labels for 2 classes"),
        ([0, 1], [0, 2], r"fine_of_point outside 0\.\.K-1"),
        ([0, 1], [-1, 1], r"fine_of_point outside 0\.\.K-1"),
    ])
    def test_fine_labels_out_of_range_rejected(self, fine_to_class, fine_of_point, message):
        with pytest.raises(InputError, match=message):
            LabelMap(fine_to_class=fine_to_class, fine_of_point=fine_of_point, n_classes=2)


class TestModifyStructure:
    def test_requires_misspecified_report(self):
        labels = np.array([0, 1])
        report = disagreement_criterion(labels, labels, 0)
        with pytest.raises(InputError):
            modify_structure(identity_map(labels), report, labels)

    @pytest.mark.parametrize("labels, message", [
        ([0.2, 1.9, 1.4], "labels must hold integers only"),
        ([False, True, True], "labels must hold integers only"),
        ([0, 1], "labels not aligned with the criterion report"),
    ], ids=["fractions", "booleans", "short"])
    def test_bad_labels_rejected(self, labels, message):
        report = disagreement_criterion([0, 1, 1], [1, 1, 0], 0)
        with pytest.raises(InputError, match=message):
            modify_structure(identity_map([0, 1, 1]), report, labels)

    def test_single_pair_grows_by_one(self):
        labels = np.array([0, 0, 0, 1, 1])
        preds_orig = np.array([1, 1, 0, 1, 1])
        preds_unb = np.array([1, 1, 0, 1, 1])
        # points 0,1 disagree with the original predictions below
        preds_orig = np.array([0, 0, 0, 1, 1])
        report = disagreement_criterion(preds_orig, preds_unb, 1)
        assert report.disagreements == 2
        lm = modify_structure(identity_map(labels), report, labels)
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
        lm = modify_structure(identity_map(labels), report, labels)
        assert lm.n_fine == 4
        assert sorted(lm.fine_to_class[2:].tolist()) == [0, 1]

    def test_base_label_without_carriers_dropped(self):
        # both class-0 points move to a (0, 1) label and the class-1 point 2
        # to a (1, 0) label: base label 0 loses its carriers, and the
        # survivors are renumbered, so fine label 0 now maps to class 1
        labels = np.array([0, 0, 1, 1])
        preds_unb = np.array([1, 1, 0, 1])
        report = disagreement_criterion(labels, preds_unb, 0)
        lm = modify_structure(identity_map(labels), report, labels)
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
        lm = modify_structure(identity_map(labels, 3), report, labels)
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
            modify_structure(identity_map(labels), report, labels, k_max=2)

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
                lm1 = modify_structure(lm0, report, labels)
            except StructureGrowthCapped:
                continue
            assert lm1.n_fine > lm0.n_fine

    def test_class_keeps_a_carrier(self):
        # every class-0 point disagrees and the unbiased model calls them all class 1
        labels = np.array([0, 0, 1, 1])
        preds_unb = np.array([1, 1, 1, 1])
        preds_orig = np.array([0, 0, 1, 1])
        report = disagreement_criterion(preds_orig, preds_unb, 0)
        lm = modify_structure(identity_map(labels), report, labels)
        assert set(lm.fine_to_class.tolist()) == {0, 1}  # still onto both classes
        assert 0 in lm.fine_to_class[lm.fine_of_point[labels == 0]]

    def test_keeping_a_point_home_may_empty_another_class(self):
        # class 0's only point moves to class 1 and class 1's only point to
        # class 2. Kept on class 0, point 0 takes class 1's only carrier, so
        # point 1 is kept on class 1 too: nothing is left to move.
        labels = [0, 1, 2]
        report = disagreement_criterion([0, 1, 2], [1, 2, 2], 0)
        with pytest.raises(InputError, match="not surjective"):
            oracle_modify_structure(identity_map(labels, 3), report, labels, [1, 2, 2])
        with pytest.raises(StructureGrowthCapped, match="did not grow"):
            modify_structure(identity_map(labels, 3), report, labels)

    def test_second_kept_point_leaves_a_group_to_move(self):
        # as above, with a second class-1 point moving to class 2: once
        # points 0 and 1 are kept, point 2 alone forms the (1, 2) group
        labels = [0, 1, 1, 2]
        report = disagreement_criterion(labels, [1, 2, 2, 2], 0)
        with pytest.raises(InputError, match="not surjective"):
            oracle_modify_structure(identity_map(labels, 3), report, labels, [1, 2, 2, 2])
        lm = modify_structure(identity_map(labels, 3), report, labels)
        np.testing.assert_array_equal(lm.fine_to_class, [0, 1, 2, 2])
        np.testing.assert_array_equal(lm.fine_of_point, [0, 1, 3, 2])

    @given(st.integers(2, 4), st.integers(0, 2), st.sampled_from([None, 0, 1, 2]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_oracle_where_it_holds(self, n_classes, growths, slack, seed):
        # Label maps grown by 0-2 earlier modifications, K_max None or tight.
        # Outside the defect cases, the oracle's map or cap is the answer.
        rng = np.random.default_rng(seed)
        extra = rng.integers(0, n_classes, rng.integers(0, 9))
        labels = rng.permutation(np.concatenate([np.arange(n_classes), extra]))
        lm = identity_map(labels, n_classes)
        for _ in range(growths):
            report, preds_unb = random_report(rng, labels, n_classes)
            grown = outcome(oracle_modify_structure, lm, report, labels, preds_unb)
            lm = grown if isinstance(grown, LabelMap) else lm
        report, preds_unb = random_report(rng, labels, n_classes)
        assume(report.misspecified)
        k_max = None if slack is None else lm.n_fine + slack
        expected = outcome(oracle_modify_structure, lm, report, labels, preds_unb, k_max)
        got = outcome(modify_structure, lm, report, labels, k_max)
        defect = empties_another_class(report, labels, preds_unb, n_classes)
        assert defect or not isinstance(expected, InputError)
        if defect:  # the oracle raises InputError, or caps on a miscount
            assert isinstance(got, (LabelMap, StructureGrowthCapped))
        elif isinstance(expected, StructureGrowthCapped):
            assert type(got) is StructureGrowthCapped and str(got) == str(expected)
        else:
            assert isinstance(got, LabelMap)
            for name in ("fine_to_class", "fine_of_point"):
                want, have = getattr(expected, name), getattr(got, name)
                np.testing.assert_array_equal(have, want)
                assert have.dtype == want.dtype
        if isinstance(got, LabelMap):
            mapped = got.fine_to_class[got.fine_of_point]
            disagreeing = [p for p, _, _ in report.disagreeing_points]
            agreeing = np.setdiff1d(np.arange(labels.size), disagreeing)
            np.testing.assert_array_equal(mapped[agreeing], labels[agreeing])
            assert np.all((mapped == labels) | (mapped == preds_unb))
