import numpy as np
import pytest
from dataclasses import replace

from misspec_ssl.core import UNLABELED, InputError, SolverOptions, derive_seed
from misspec_ssl.datagen import (
    GenSpec,
    generate,
    load_csv,
    sample_eval_set,
    scenario_truth,
    write_csv,
)
from misspec_ssl.semgmm import bayes_classify_batch, fit_sem


class TestGenSpec:
    def test_misspecified_needs_subclusters(self):
        with pytest.raises(InputError):
            GenSpec(kind="misspecified", subclusters_per_class=1)

    def test_well_specified_is_single_subcluster(self):
        with pytest.raises(InputError):
            GenSpec(kind="well_specified", subclusters_per_class=2)

    def test_separations_positive(self):
        with pytest.raises(InputError):
            GenSpec(class_separation=0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("kind", "bogus", "kind must be one of"),
        ("n_classes", 1, "n_classes must be >= 2, got 1"),
        ("n_labeled_per_class", 0, "need at least one labeled point per class"),
        ("n_unlabeled", -1, "n_unlabeled must be >= 0"),
        ("dim", 0, "dim must be >= 1"),
    ])
    def test_out_of_range_field_rejected(self, field, value, message):
        with pytest.raises(InputError, match=message):
            GenSpec(**{field: value})


class TestGenerate:
    def test_deterministic(self):
        spec = GenSpec(kind="misspecified", subclusters_per_class=2, n_unlabeled=50, seed=3)
        a, ta = generate(spec)
        b, tb = generate(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labeled_idx, b.labeled_idx)
        assert np.array_equal(ta.component_means, tb.component_means)

    def test_validates(self):
        for kind, m in (("well_specified", 1), ("misspecified", 3)):
            spec = GenSpec(kind=kind, subclusters_per_class=m, n_classes=3, dim=4,
                           n_unlabeled=31, seed=5)
            d, truth = generate(spec)  # construction checks the dataset
            assert d.n_labeled == 30
            assert d.n_unlabeled == 31
            assert truth.component_means.shape == (3 * m, 4)

    def test_class_separation_realized(self):
        spec = GenSpec(kind="well_specified", class_separation=6.0, n_classes=3, dim=5, seed=1)
        means, classes = scenario_truth(spec)
        for i in range(3):
            for j in range(i + 1, 3):
                dist = np.linalg.norm(means[i] - means[j])
                assert dist == pytest.approx(6.0, rel=1e-9)

    def test_subcluster_separation_realized(self):
        spec = GenSpec(kind="misspecified", subclusters_per_class=2,
                       subcluster_separation=8.0, seed=2)
        means, classes = scenario_truth(spec)
        for c in (0, 1):
            sub = means[classes == c]
            dist = np.linalg.norm(sub[0] - sub[1])
            # jitter perturbs the exact spacing by a few percent
            assert dist == pytest.approx(8.0, rel=0.2)

    def test_labeled_set_fixed_as_unlabeled_grows(self):
        base = GenSpec(kind="misspecified", subclusters_per_class=2, seed=7, n_unlabeled=10)
        small, _ = generate(base)
        big, _ = generate(replace(base, n_unlabeled=500))
        np.testing.assert_array_equal(
            small.features[small.labeled_idx], big.features[big.labeled_idx]
        )
        np.testing.assert_array_equal(small.labels, big.labels)

    def test_unlabeled_pool_class_balanced(self):
        spec = GenSpec(kind="well_specified", n_classes=2, n_unlabeled=101, seed=9)
        d, truth = generate(spec)
        counts = np.bincount(truth.true_labels[d.unlabeled_idx])
        assert sorted(counts.tolist()) == [50, 51]

    def test_well_specified_fit_recovery(self):
        spec = GenSpec(kind="well_specified", class_separation=6.0, dim=2,
                       n_labeled_per_class=10, n_unlabeled=200, seed=11)
        d, truth = generate(spec)
        model = fit_sem(d, 2, np.arange(2), SolverOptions())
        for k in range(2):
            truth_mean = truth.component_means[truth.component_class == model.comp_map[k]][0]
            assert np.linalg.norm(model.means[k] - truth_mean) < 0.5

    def test_misspecified_k2_below_k4(self):
        wins = 0
        for si in range(10):
            spec = GenSpec(kind="misspecified", subclusters_per_class=2,
                           class_separation=5.0, subcluster_separation=8.0,
                           n_labeled_per_class=10, n_unlabeled=400,
                           seed=derive_seed(13, "k2k4", si))
            d, _ = generate(spec)
            tx, ty = sample_eval_set(spec, 300, derive_seed(13, "eval", si))
            accs = {}
            for k in (2, 4):
                model = fit_sem(d, k, np.arange(k) % 2, SolverOptions(seed=si))
                accs[k] = np.mean(bayes_classify_batch(model, tx)[0] == ty)
            wins += accs[2] < accs[4]
        assert wins > 5

    def test_eval_set_balanced_and_deterministic(self):
        spec = GenSpec(kind="well_specified", n_classes=2, seed=15)
        xa, ya = sample_eval_set(spec, 101, seed=3)
        xb, yb = sample_eval_set(spec, 101, seed=3)
        assert np.array_equal(xa, xb)
        assert sorted(np.bincount(ya).tolist()) == [50, 51]
        with pytest.raises(InputError, match="eval size must be >= 1, got 0"):
            sample_eval_set(spec, 0, seed=3)


@pytest.mark.parametrize("spec", [
    GenSpec(kind="misspecified", subclusters_per_class=2, n_unlabeled=2000, seed=1),
    GenSpec(n_classes=5, dim=3, n_unlabeled=333, seed=2),
    GenSpec(n_classes=128, dim=1, n_labeled_per_class=1, n_unlabeled=50, seed=3),
])
def test_generated_dataset_takes_one_label_byte_per_row(spec):
    # 8·d feature bytes and one label byte per row, up to 128 classes: a
    # return to 8-byte labels would add 7 bytes to every row of every
    # dataset the sem_gap benchmark holds.
    d, _ = generate(spec)
    assert d.features.nbytes + d.row_labels.nbytes == d.n_points * (8 * spec.dim + 1)


class TestCsv:
    def write_lines(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_marker_rows_unlabeled(self, tmp_path):
        f = tmp_path / "d.csv"
        self.write_lines(f, ["f0,f1,label", "1,2,cat", "3,4,?", "5,6,dog"])
        d, names = load_csv(f)
        assert d.n_labeled == 2
        assert d.n_unlabeled == 1
        assert names == ["cat", "dog"]
        np.testing.assert_array_equal(d.row_labels, [0, UNLABELED, 1])
        np.testing.assert_array_equal(d.labels, [0, 1])

    def test_first_appearance_mapping(self, tmp_path):
        f = tmp_path / "d.csv"
        self.write_lines(f, ["f0,label", "1,dog", "2,cat", "3,dog"])
        _, names = load_csv(f)
        assert names == ["dog", "cat"]

    def test_round_trip(self, tmp_path):
        spec = GenSpec(kind="misspecified", subclusters_per_class=2, n_unlabeled=25, seed=17)
        d, _ = generate(spec)
        f = tmp_path / "rt.csv"
        write_csv(d, f)
        loaded, names = load_csv(f)
        assert names == [str(c) for c in range(d.n_classes)]
        np.testing.assert_array_equal(loaded.features, d.features)
        np.testing.assert_array_equal(loaded.row_labels, d.row_labels)
        assert loaded.n_classes == d.n_classes
        # second round trip is byte-stable
        f2 = tmp_path / "rt2.csv"
        write_csv(loaded, f2)
        assert f.read_bytes() == f2.read_bytes()

    def test_round_trip_of_int16_labels_is_byte_identical(self, tmp_path):
        d, _ = generate(GenSpec(n_classes=200, dim=3, n_labeled_per_class=1, n_unlabeled=100,
                                seed=5))
        assert d.row_labels.dtype == np.int16
        f, f2 = tmp_path / "rt.csv", tmp_path / "rt2.csv"
        write_csv(d, f)
        loaded, names = load_csv(f)
        assert names == [str(c) for c in range(200)]
        assert loaded.row_labels.dtype == np.int16
        np.testing.assert_array_equal(loaded.row_labels, d.row_labels)
        write_csv(loaded, f2)
        assert f.read_bytes() == f2.read_bytes()

    def test_malformed_row_reports_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        self.write_lines(f, ["f0,f1,label", "1,2,cat", "3,oops,dog"])
        with pytest.raises(InputError, match=":3:"):
            load_csv(f)

    def test_wrong_field_count_reports_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        self.write_lines(f, ["f0,f1,label", "1,2,cat", "3,4"])
        with pytest.raises(InputError, match=":3:"):
            load_csv(f)

    @pytest.mark.parametrize("text", ["", "\n1,cat\n"], ids=["empty", "blank-header"])
    def test_missing_header_rejected(self, tmp_path, text):
        f = tmp_path / "d.csv"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match="header row required"):
            load_csv(f)
