"""Misspecification detection and adaptive structure modification.

The criterion counts labeled points on which the plug-in classifiers of the
original-weighted and unbiased-weighted fits disagree; exceeding a threshold
flags the generative structure as misspecified. Modification then regroups
the disagreeing labeled points into new fine labels (one per distinct
(true class, unbiased prediction) pair), growing the cluster count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import ceil

import numpy as np

from .core import InputError, integer_array


class StructureGrowthCapped(RuntimeError):
    """Signal that a modification would exceed the cluster budget K_max."""


@dataclass(frozen=True)
class LabelMap:
    """Surjection g from fine labels (clusters) onto classes, plus the current
    fine label of every labeled point.

    The identity map gives class c the fine label c. modify_structure appends
    its new labels in creation order, then drops every label left without a
    carrier and renumbers the rest in order, so fine label c need not map to
    class c afterwards. Construction raises InputError unless g is onto the
    classes and every fine label is carried by a labeled point.
    """

    fine_to_class: np.ndarray
    fine_of_point: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        for name in ("fine_to_class", "fine_of_point"):
            object.__setattr__(self, name, integer_array(getattr(self, name), name))
        k = self.n_fine
        if k < self.n_classes:
            raise InputError(f"label map has {k} fine labels for {self.n_classes} classes")
        if np.any((self.fine_to_class < 0) | (self.fine_to_class >= self.n_classes)):
            raise InputError("fine_to_class maps outside 0..C-1")
        if set(self.fine_to_class.tolist()) != set(range(self.n_classes)):
            raise InputError("fine_to_class is not surjective onto the class set")
        if np.any((self.fine_of_point < 0) | (self.fine_of_point >= k)):
            raise InputError("fine_of_point outside 0..K-1")
        carriers = np.bincount(self.fine_of_point, minlength=k)
        if np.any(carriers == 0):
            empty = np.flatnonzero(carriers == 0).tolist()
            raise InputError(f"fine labels without a labeled carrier: {empty}")

    @property
    def n_fine(self) -> int:
        return int(self.fine_to_class.size)

    @staticmethod
    def identity(labels: np.ndarray, n_classes: int) -> "LabelMap":
        """Initial map: one fine label per class, every point carrying its class."""
        return LabelMap(np.arange(n_classes), labels, n_classes)

    def to_dict(self) -> dict:
        return {
            "fine_to_class": self.fine_to_class.tolist(),
            "fine_of_point": self.fine_of_point.tolist(),
            "n_classes": self.n_classes,
        }


@dataclass(frozen=True)
class CriterionReport:
    """Disagreement count between the paired classifiers on labeled data.

    ``disagreeing_points`` lists (position in the labeled list, original
    prediction, unbiased prediction) in index order.
    """

    disagreements: int
    n_labeled: int
    threshold: int
    misspecified: bool
    disagreeing_points: tuple[tuple[int, int, int], ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return asdict(self)


def disagreement_criterion(
    preds_original: np.ndarray,
    preds_unbiased: np.ndarray,
    threshold: int,
) -> CriterionReport:
    """Count labeled points where the two prediction lists differ."""
    po = integer_array(preds_original, "preds_original")
    pu = integer_array(preds_unbiased, "preds_unbiased")
    if po.shape != pu.shape:
        raise InputError(f"prediction lists differ in length: {po.size} vs {pu.size}")
    if threshold < 0:
        raise InputError(f"threshold must be >= 0, got {threshold}")
    diff = np.flatnonzero(po != pu)
    points = tuple((int(i), int(po[i]), int(pu[i])) for i in diff)
    n_dis = int(diff.size)
    return CriterionReport(
        disagreements=n_dis,
        n_labeled=int(po.size),
        threshold=int(threshold),
        misspecified=n_dis > threshold,
        disagreeing_points=points,
    )


def default_threshold(n_labeled: int) -> int:
    """5% of the labeled count, at least 1."""
    if n_labeled < 1:
        raise InputError(f"n_labeled must be >= 1, got {n_labeled}")
    return max(1, ceil(0.05 * n_labeled))


def modify_structure(
    lm: LabelMap,
    report: CriterionReport,
    labels: np.ndarray,
    k_max: int | None = None,
) -> LabelMap:
    """Grow the label map: one new fine label per distinct disagreement pair.

    Each labeled point targets its unbiased prediction if it disagrees, and
    its class ``labels[p]`` otherwise. While some class is no point's target,
    its lowest-index disagreeing point stays on its class, so every class
    keeps a carrier. The other disagreeing points are grouped by (class,
    prediction); each distinct pair, in sorted order, gets a new fine label
    carrying its points, mapped to the prediction. Every other point keeps
    its fine label where it maps to its class, and takes its class's base
    (first) label otherwise. Labels left without a carrier are dropped and
    the rest renumbered in order. StructureGrowthCapped if the new labels
    would exceed ``k_max`` or the map does not grow.
    """
    if not report.misspecified:
        raise InputError("modify_structure requires a misspecified report")
    labels = integer_array(labels, "labels")
    if labels.size != report.n_labeled:
        raise InputError("labels not aligned with the criterion report")
    target, moving = labels.copy(), np.zeros(labels.size, dtype=bool)
    for p, _, pred in report.disagreeing_points:
        target[p], moving[p] = pred, True
    while (empty := np.flatnonzero(np.bincount(target, minlength=lm.n_classes) == 0)).size:
        for c in empty:
            p = np.flatnonzero(moving & (labels == c))[0]
            target[p], moving[p] = c, False

    # the (class, prediction) pairs, coded class·C + prediction, in sorted order
    pairs, group = np.unique(labels[moving] * lm.n_classes + target[moving], return_inverse=True)
    if k_max is not None and lm.n_fine + pairs.size > k_max:
        raise StructureGrowthCapped(f"growing from K={lm.n_fine} by {pairs.size} "
                                    f"would exceed K_max={k_max}")
    base = np.unique(lm.fine_to_class, return_index=True)[1]  # each class's first label
    fine = np.where(lm.fine_to_class[lm.fine_of_point] == labels, lm.fine_of_point, base[labels])
    fine[moving] = lm.n_fine + group
    keep, fine_of_point = np.unique(fine, return_inverse=True)
    fine_to_class = np.concatenate([lm.fine_to_class, pairs % lm.n_classes])[keep]
    out = LabelMap(fine_to_class, fine_of_point, lm.n_classes)
    if out.n_fine <= lm.n_fine:
        raise StructureGrowthCapped("modification did not grow the structure "
                                    f"(K stayed {lm.n_fine})")
    return out
