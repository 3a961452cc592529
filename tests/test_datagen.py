import csv
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from misspec_ssl import datagen
from misspec_ssl.core import UNLABELED, Dataset, InputError, SolverOptions, derive_seed
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

    @pytest.mark.parametrize("rows, line, message", [
        (["1,2,a", "3,x,b", "5,6,a", "7,b"], 3, "bad feature value"),
        (["1,2,a", "3,b", "5,6,a", "7,x,b"], 3, "expected 3 fields, got 2"),
        (["1,2,a", "3,4,b", "5,6,a", "7,b", "x,8,a"], 5, "expected 3 fields, got 2"),
        (["1,2,a", "3,4,b", "5,6,a", "7,8,a", "x,b"], 6, "expected 3 fields, got 2"),
    ], ids=["value-then-short", "short-then-value", "short-then-value-later",
            "short-with-a-bad-value"])
    def test_first_fault_in_file_order_is_reported(self, tmp_path, rows, line, message):
        f = tmp_path / "bad.csv"
        self.write_lines(f, ["f0,f1,label", *rows])
        with pytest.raises(InputError, match=f":{line}: {message}"):
            load_csv(f)

    def test_oversized_field_is_an_input_error(self, tmp_path):
        f = tmp_path / "big.csv"
        self.write_lines(f, ["f0,label", "1,a", "2" * (csv.field_size_limit() + 1) + ",b"])
        with pytest.raises(InputError, match=":3: unreadable row"):
            load_csv(f)
        self.write_lines(f, ["f0,label", "x,a", "2" * (csv.field_size_limit() + 1) + ",b"])
        with pytest.raises(InputError, match=":2: bad feature value"):
            load_csv(f)

    @pytest.mark.parametrize("rows", [1000, 3001, 3002, datagen.CSV_BLOCK_ROWS])
    def test_a_fault_before_undecodable_text_is_reported_first(self, tmp_path, rows):
        # The text is decoded a chunk at a time, so rows read before the
        # undecodable byte come first, as they did row by row, whichever
        # block of rows holds them.
        f = tmp_path / "bad.csv"
        good = [f"{j},a" for j in range(3000)]
        f.write_bytes("\n".join(["f0,label", *good, "x,a", *good]).encode() + b"\n\xff\n")
        with pytest.raises(InputError, match=":3002: bad feature value"):
            load_in_blocks(f, rows)
        f.write_bytes("\n".join(["f0,label", *good, *good]).encode() + b"\n\xff\n")
        with pytest.raises(InputError, match="not UTF-8 text"):
            load_in_blocks(f, rows)


# The row-at-a-time writer and reader that write_csv and load_csv replaced,
# kept as their oracles.


def write_csv_oracle(d, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(d.dim)] + ["label"])
        for row, c in zip(d.features.tolist(), d.row_labels.tolist()):
            label = "?" if c == UNLABELED else str(c)
            writer.writerow([repr(v) for v in row] + [label])


def load_csv_oracle(path):
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise InputError(f"{path}: header row required (empty file or blank first line)")
            features, row_labels, name_to_id = [], [], {"?": UNLABELED}
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise InputError(
                        f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
                *values, raw = row
                try:
                    features.append([float(v) for v in values])
                except ValueError as exc:
                    raise InputError(f"{path}:{line_no}: bad feature value ({exc})") from None
                row_labels.append(name_to_id.setdefault(raw, len(name_to_id) - 1))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not features:
        raise InputError(f"{path}: no data rows after the header")
    names = list(name_to_id)[1:]
    return Dataset(np.asarray(features, dtype=float), np.asarray(row_labels, dtype=int),
                   len(names)), names


def outcome(read, path):
    """What ``read`` makes of a file: (features bytes, C-ordered, labels,
    names), or the InputError's message."""
    try:
        d, names = read(path)
    except InputError as exc:
        return str(exc)
    return d.features.tobytes(), d.features.flags.c_contiguous, d.row_labels.tolist(), names


def load_in_blocks(path, rows):
    """load_csv converting ``rows`` rows at a time."""
    with mock.patch.object(datagen, "CSV_BLOCK_ROWS", rows):
        return load_csv(path)


BLOCKS = (1, 2, 3, datagen.CSV_BLOCK_ROWS)


@st.composite
def datasets(draw):
    """Up to 14 classes (labels of two digits), 1 to 4 features of any
    finite value, subnormal, huge or -0.0, every class labeled at least once."""
    c, dim = draw(st.integers(2, 14)), draw(st.integers(1, 4))
    labels = list(range(c)) + draw(st.lists(st.integers(UNLABELED, c - 1), max_size=12))
    labels = draw(st.permutations(labels))
    values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e-7, 1e22, -0.0])
    x = draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                      min_size=len(labels), max_size=len(labels)))
    return Dataset(np.array(x), np.array(labels), c)


@given(d=datasets())
@settings(max_examples=200, deadline=None)
def test_write_and_load_equal_their_oracles(tmp_path_factory, d):
    tmp = tmp_path_factory.mktemp("csv")
    fast, slow = tmp / "fast.csv", tmp / "slow.csv"
    write_csv(d, fast)
    write_csv_oracle(d, slow)
    assert fast.read_bytes() == slow.read_bytes()
    got = outcome(load_csv_oracle, fast)
    for rows in BLOCKS:
        assert outcome(lambda path: load_in_blocks(path, rows), fast) == got
    features, c_ordered, row_labels, names = got
    assert features == d.features.tobytes() and c_ordered
    assert [names[i] if i != UNLABELED else "?" for i in row_labels] == [
        "?" if c == UNLABELED else str(c) for c in d.row_labels.tolist()]


FIELDS = ["1", "-2.5", "-0.0", "1e308", "1e-320", "nan", "inf", "1_0", " 3", "x", "", "?",
          "a", "b", '"4"', '"a,b"', '"c\nd"', '"5', "é"]


@given(header=st.integers(0, 4), rows=st.lists(st.lists(st.sampled_from(FIELDS), max_size=4),
                                                max_size=8),
       ending=st.sampled_from(["\n", "\r\n"]), tail=st.sampled_from([b"", b"\xff"]))
@settings(max_examples=500, deadline=None)
def test_load_of_any_text_equals_its_oracle(tmp_path_factory, header, rows, ending, tail):
    # quoted fields, blank and ragged rows, bad numbers, non-finite values,
    # classes never labeled, and undecodable bytes, in any order
    lines = [",".join([*(f"f{j}" for j in range(header - 1)), "label"]) if header else "",
             *map(",".join, rows)]
    f = tmp_path_factory.mktemp("csv") / "any.csv"
    f.write_bytes(ending.join(lines).encode("utf-8") + tail)
    want = outcome(load_csv_oracle, f)
    for block in BLOCKS:
        assert outcome(lambda path: load_in_blocks(path, block), f) == want


def test_load_holds_a_block_of_text(tmp_path):
    # Every row's floats as Python objects traced 204 bytes a row at
    # N = 50,020 (d = 2), and every row's text would take more; a block of
    # text at a time leaves the features and labels, about 78 bytes a row.
    d, _ = generate(GenSpec(n_unlabeled=50_000, seed=1))
    f = tmp_path / "d.csv"
    write_csv(d, f)
    tracemalloc.start()
    try:
        load_csv(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * d.n_points
