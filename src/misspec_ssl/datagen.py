"""Synthetic scenario generators and CSV dataset ingestion.

The generator draws unit-variance spherical Gaussian subclusters around class
centers. With one subcluster per class the data lie exactly inside the family
fitted by a K=C spherical mixture (well-specified by construction). With two
or more, the sub-populations spread mostly orthogonally to the class-center
span but lean toward it, and their prevalence is skewed differently in each
class, so the unlabeled marginal favors a grouping that crosses class lines:
a K=C fit is misspecified in a controlled, reproducible way.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .core import UNLABELED, Dataset, InputError, derive_seed

GEN_KINDS = ("well_specified", "misspecified")
SUBCLUSTER_JITTER = 0.05
SUBCLUSTER_TILT = np.deg2rad(25.0)
HEAVY_SUBCLUSTER_SHARE = 2  # heavy:light prevalence ratio within a class
UNLABELED_MARKER = "?"
# Rows load_csv converts at a time. Their text, about 0.24 KB a row at d = 2,
# is its working memory besides the features and labels: at N = 6,020 it
# traced 0.6 MiB, against 1.2 MiB for a reader that kept every row's floats
# as Python objects and 1.9 MiB for one that kept every row's text.
CSV_BLOCK_ROWS = 2**10


@dataclass(frozen=True)
class GenSpec:
    """Scenario description for the synthetic generator."""

    kind: str = "well_specified"
    n_classes: int = 2
    dim: int = 2
    subclusters_per_class: int = 1
    class_separation: float = 5.0
    subcluster_separation: float = 8.0
    n_labeled_per_class: int = 10
    n_unlabeled: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in GEN_KINDS:
            raise InputError(f"kind must be one of {GEN_KINDS}, got {self.kind!r}")
        if self.n_classes < 2:
            raise InputError(f"n_classes must be >= 2, got {self.n_classes}")
        for name in ("class_separation", "subcluster_separation"):
            if not 0 < getattr(self, name) < np.inf:
                raise InputError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.kind == "misspecified" and self.subclusters_per_class < 2:
            raise InputError("misspecified scenarios need >= 2 subclusters per class")
        if self.kind == "well_specified" and self.subclusters_per_class != 1:
            raise InputError("well_specified scenarios have exactly 1 subcluster per class")
        if self.n_labeled_per_class < 1:
            raise InputError("need at least one labeled point per class")
        if self.n_unlabeled < 0:
            raise InputError("n_unlabeled must be >= 0")
        if self.dim < 1:
            raise InputError("dim must be >= 1")


@dataclass(frozen=True)
class GroundTruth:
    """True mixture behind a generated dataset: one spherical unit-variance
    component per (class, subcluster), plus the class of every row."""

    component_means: np.ndarray
    component_class: np.ndarray
    variance: float
    true_labels: np.ndarray
    true_component: np.ndarray


def _class_span_dim(spec: GenSpec) -> int:
    """How many leading coordinate axes the class centers occupy."""
    if spec.n_classes == 2 or spec.n_classes - 1 > spec.dim:
        return 1
    return spec.n_classes - 1


def _class_centers(spec: GenSpec) -> np.ndarray:
    """Class centers at centered simplex vertices rotated into the first C-1
    coordinates (pairwise separation = class_separation), or on an axis-0
    grid when the simplex does not fit the dimension."""
    c, d = spec.n_classes, spec.dim
    centers = np.zeros((c, d))
    if c == 2:
        centers[0, 0] = -spec.class_separation / 2.0
        centers[1, 0] = +spec.class_separation / 2.0
        return centers
    if c - 1 <= d:
        simplex = (spec.class_separation / np.sqrt(2.0)) * np.eye(c)
        simplex -= simplex.mean(axis=0)
        u, sv, _ = np.linalg.svd(simplex, full_matrices=False)
        centers[:, : c - 1] = (u * sv)[:, : c - 1]
        return centers
    centers[:, 0] = np.arange(c) * spec.class_separation
    return centers - centers.mean(axis=0)


def _subcluster_offsets(spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    """Offsets of a class's subclusters from its center, shape (m, d).

    Offsets sit at half the subcluster separation along axes mostly
    orthogonal to the class-center span but tilted a little toward it, so a
    class's sub-populations also spread along the class axis (classes overlap
    through their sub-populations rather than staying parallel slabs). A
    small seeded jitter breaks exact symmetry; a single subcluster sits
    exactly at the class center.
    """
    m, d = spec.subclusters_per_class, spec.dim
    if m == 1:
        return np.zeros((1, d))
    span = _class_span_dim(spec)
    ortho = [np.eye(d)[a] for a in range(span, d)]
    if not ortho:
        ortho = [np.eye(d)[d - 1]]
    class_axis = np.eye(d)[0]
    offsets = np.zeros((m, d))
    half = spec.subcluster_separation / 2.0
    for j in range(m):
        axis = ortho[(j // 2) % len(ortho)]
        direction = np.cos(SUBCLUSTER_TILT) * axis + np.sin(SUBCLUSTER_TILT) * class_axis
        sign = 1.0 if j % 2 == 0 else -1.0
        offsets[j] = sign * half * (direction / np.linalg.norm(direction))
    offsets += SUBCLUSTER_JITTER * spec.subcluster_separation * rng.standard_normal((m, d))
    return offsets


def _subcluster_pattern(m: int, class_id: int) -> np.ndarray:
    """Cycling subcluster indices realizing unequal sub-population prevalence.

    One subcluster per class is "heavy" (twice the share of the others), and
    which one rotates with the class id. Sub-populations having different
    prevalence in different classes is what lets the unlabeled marginal favor
    a grouping that crosses class lines.
    """
    repeats = np.where(np.arange(m) == class_id % m, HEAVY_SUBCLUSTER_SHARE, 1)
    return np.repeat(np.arange(m), repeats)


def scenario_truth(spec: GenSpec) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic component geometry for a spec: (means (C*m, d), classes)."""
    rng = np.random.default_rng(derive_seed(spec.seed, "geometry"))
    centers = _class_centers(spec)
    means = []
    classes = []
    for c in range(spec.n_classes):
        offsets = _subcluster_offsets(spec, rng)
        for off in offsets:
            means.append(centers[c] + off)
            classes.append(c)
    return np.asarray(means), np.asarray(classes, dtype=int)


def _split_counts(total: int, parts: int) -> np.ndarray:
    counts = np.full(parts, total // parts, dtype=int)
    counts[: total % parts] += 1
    return counts


def generate(spec: GenSpec) -> tuple[Dataset, GroundTruth]:
    """Draw a dataset from the scenario.

    Labeled points are drawn from an rng stream independent of the unlabeled
    one, so growing n_unlabeled under the same seed keeps the labeled set
    fixed. Within a class, points are spread round-robin across subclusters
    (class-balanced unlabeled pool, labeled coverage of every subcluster).
    """
    means, comp_class = scenario_truth(spec)
    m = spec.subclusters_per_class
    rng_lab = np.random.default_rng(derive_seed(spec.seed, "labeled"))
    rng_unl = np.random.default_rng(derive_seed(spec.seed, "unlabeled"))

    unl_counts = _split_counts(spec.n_unlabeled, spec.n_classes)
    rows: list[np.ndarray] = []
    row_labels: list[np.ndarray] = []
    comps_all: list[np.ndarray] = []
    for c in range(spec.n_classes):
        comps = np.flatnonzero(comp_class == c)
        pattern = _subcluster_pattern(m, c)
        lab_sub = comps[np.arange(spec.n_labeled_per_class) % m]
        lab_x = means.take(lab_sub, axis=0) + rng_lab.standard_normal(
            (spec.n_labeled_per_class, spec.dim))
        unl_sub = comps[pattern[np.arange(unl_counts[c]) % pattern.size]]
        unl_x = means.take(unl_sub, axis=0) + rng_unl.standard_normal((unl_counts[c], spec.dim))

        rows.extend([lab_x, unl_x])
        row_labels.extend([np.full(spec.n_labeled_per_class, c),
                           np.full(unl_counts[c], UNLABELED)])
        comps_all.extend([lab_sub, unl_sub])

    dataset = Dataset(
        features=np.concatenate(rows, axis=0),
        row_labels=np.concatenate(row_labels),
        n_classes=spec.n_classes,
    )
    truth = GroundTruth(
        component_means=means,
        component_class=comp_class,
        variance=1.0,
        true_labels=np.repeat(np.arange(spec.n_classes), spec.n_labeled_per_class + unl_counts),
        true_component=np.concatenate(comps_all),
    )
    return dataset, truth


def sample_eval_set(spec: GenSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw a fresh class-balanced labeled sample from the same scenario
    geometry (held-out evaluation data)."""
    if n < 1:
        raise InputError(f"eval size must be >= 1, got {n}")
    means, comp_class = scenario_truth(spec)
    rng = np.random.default_rng(derive_seed(seed, "eval"))
    counts = _split_counts(n, spec.n_classes)
    xs = []
    ys = []
    for c in range(spec.n_classes):
        comps = np.flatnonzero(comp_class == c)
        pattern = _subcluster_pattern(spec.subclusters_per_class, c)
        sub = comps[pattern[np.arange(counts[c]) % pattern.size]]
        xs.append(means.take(sub, axis=0) + rng.standard_normal((counts[c], spec.dim)))
        ys.append(np.full(counts[c], c, dtype=int))
    return np.concatenate(xs, axis=0), np.concatenate(ys)


def load_csv(path: str | Path) -> tuple[Dataset, list[str]]:
    """Read a dataset in the format write_csv writes (UTF-8, header row
    required): the feature columns, then the label column last.

    Rows labeled ``?`` become unlabeled; remaining label strings are mapped
    to dense class ids in first-appearance order. Returns the dataset, its
    features C-ordered and bit for bit the floats of their text, and the
    class names in id order. Fields are read by the excel dialect of
    ``csv.reader``, so a quoted field reads as its text, and converted a
    column of CSV_BLOCK_ROWS rows at a time. A malformed file is an
    InputError naming the first fault in file order: the header, then row
    by row the field count before the values, or text that cannot be read.
    """
    path = Path(path)
    blocks: list[np.ndarray] = []
    # the unlabeled mark, then the class names in id order
    name_to_id: dict[str, int] = {UNLABELED_MARKER: UNLABELED}
    row_labels: list[int] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        head, unreadable = _read_rows(reader, 1, path, 1)
        if unreadable is not None and not head:
            raise unreadable
        if not (head and head[0]):
            raise InputError(f"{path}: header row required (empty file or blank first line)")
        width, first = len(head[0]), 2  # first: the file line of rows[0]
        while True:
            rows, unreadable = _read_rows(reader, CSV_BLOCK_ROWS, path, first)
            if unreadable is not None:
                raise _first_bad_row(path, width, rows, first) or unreadable
            if not rows:
                break
            if any(len(row) != width for row in rows):
                raise _first_bad_row(path, width, rows, first)
            *columns, raw_labels = zip(*rows)
            block = np.empty((len(rows), width - 1))
            try:
                for j, column in enumerate(columns):
                    block[:, j] = np.fromiter(map(float, column), float, len(rows))
            except ValueError:
                raise _first_bad_row(path, width, rows, first) from None
            blocks.append(block)
            row_labels += [name_to_id.setdefault(raw, len(name_to_id) - 1) for raw in raw_labels]
            first += len(rows)
    if not blocks:
        raise InputError(f"{path}: no data rows after the header")
    names = list(name_to_id)[1:]
    dataset = Dataset(
        features=blocks[0] if len(blocks) == 1 else np.concatenate(blocks),
        row_labels=np.asarray(row_labels, dtype=int),
        n_classes=len(names),
    )
    return dataset, names


def _read_rows(reader, n: int, path: Path,
               first: int) -> tuple[list[list[str]], InputError | None]:
    """The next ``n`` rows of ``reader`` or fewer, the first of them at file
    line ``first``, and the InputError of text that stopped the reading
    (else None): the rows read before it are kept, as a row at a time
    would have reached them."""
    rows: list[list[str]] = []
    try:
        rows.extend(islice(reader, n))
    except UnicodeDecodeError as exc:
        return rows, InputError(f"{path}: not UTF-8 text ({exc.reason})")
    except csv.Error as exc:  # a field past csv.field_size_limit()
        return rows, InputError(f"{path}:{first + len(rows)}: unreadable row ({exc})")
    return rows, None


def _first_bad_row(path: Path, width: int, rows: list[list[str]],
                   first: int) -> InputError | None:
    """The InputError of the first of ``rows`` (the first at file line
    ``first``) whose field count differs from ``width``, or is right but
    whose feature values are no floats; None if there is none."""
    for line_no, row in enumerate(rows, start=first):
        if len(row) != width:
            return InputError(f"{path}:{line_no}: expected {width} fields, got {len(row)}")
        try:
            [float(v) for v in row[:-1]]
        except ValueError as exc:
            return InputError(f"{path}:{line_no}: bad feature value ({exc})")
    return None


def write_csv(d: Dataset, path: str | Path) -> None:
    """Write a dataset in the format load_csv reads: a header row ``f0,...,
    f{d-1},label``, then one row per point of the ``repr`` of each feature
    and a final label column holding the class id, or ``?`` for an unlabeled
    row, every row ended by CRLF. These are the bytes of the excel dialect of
    ``csv.writer``: no such field needs quoting."""
    header = [f"f{j}" for j in range(d.dim)] + ["label"]
    columns = [map(float.__repr__, column) for column in d.features.T.tolist()]
    text_of = {UNLABELED: UNLABELED_MARKER, **{c: str(c) for c in range(d.n_classes)}}
    labels = map(text_of.__getitem__, d.row_labels.tolist())
    lines = map(",".join, zip(*columns, labels))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([",".join(header), *lines, ""]))
