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

from .core import InputError


class StructureGrowthCapped(RuntimeError):
    """Signal that a modification would exceed the cluster budget K_max."""


@dataclass(frozen=True)
class LabelMap:
    """Surjection g from fine labels (clusters) onto classes, plus the current
    fine label of every labeled point.

    Fine labels 0..C-1 are the base labels (g is the identity there); labels
    created by modify_structure come after them. Construction raises
    InputError unless g is onto the classes and every fine label is carried
    by a labeled point.
    """

    fine_to_class: np.ndarray
    fine_of_point: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "fine_to_class", np.asarray(self.fine_to_class, dtype=int))
        object.__setattr__(self, "fine_of_point", np.asarray(self.fine_of_point, dtype=int))
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
        return LabelMap(
            fine_to_class=np.arange(n_classes),
            fine_of_point=np.asarray(labels, dtype=int).copy(),
            n_classes=n_classes,
        )

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
    po = np.asarray(preds_original, dtype=int)
    pu = np.asarray(preds_unbiased, dtype=int)
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
    preds_unbiased: np.ndarray,
    k_max: int | None = None,
) -> LabelMap:
    """Grow the label map: one new fine label per distinct disagreement pair.

    Disagreeing labeled points are grouped by (true class y, unbiased
    prediction y_hat); each distinct pair gets a new fine label carrying all
    its points, mapped to y_hat.
    Agreeing points keep their fine label where it still maps to their class,
    and fall back to the base label of their class otherwise.

    ``labels`` is the true class per labeled point, aligned with the
    prediction lists the report was built from.
    """
    if not report.misspecified:
        raise InputError("modify_structure requires a misspecified report")
    labels = np.asarray(labels, dtype=int)
    preds_unbiased = np.asarray(preds_unbiased, dtype=int)
    if labels.size != report.n_labeled or preds_unbiased.size != report.n_labeled:
        raise InputError("labels/predictions not aligned with the criterion report")

    disagreeing = [p for p, _, _ in report.disagreeing_points]
    pair_points: dict[tuple[int, int], list[int]] = {}
    for p in disagreeing:
        pair = (int(labels[p]), int(preds_unbiased[p]))
        pair_points.setdefault(pair, []).append(p)

    # A regrouping may not strip a class of its last carrier: simulate the
    # post-move carrier counts and keep the lowest-index disagreeing point of
    # any endangered class on its base label instead.
    post_carriers = np.zeros(lm.n_classes, dtype=int)
    mover = {p: pair for pair, pts in pair_points.items() for p in pts}
    for p in range(report.n_labeled):
        post_carriers[mover[p][1] if p in mover else labels[p]] += 1
    keep_home: set[int] = set()
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

    def base_of_class(c: int) -> int:
        return int(np.flatnonzero(lm.fine_to_class == c)[0])

    for pair in new_pairs:
        new_label = len(fine_to_class)
        fine_to_class.append(pair[1])
        for p in pair_points[pair]:
            if p in mover:
                fine_of_point[p] = new_label

    # Restore g(fine) == class for every point left outside the new groups.
    for p in range(report.n_labeled):
        if p in mover:
            continue
        if fine_to_class[fine_of_point[p]] != labels[p]:
            fine_of_point[p] = base_of_class(int(labels[p]))

    # Drop fine labels left without a carrier and renumber the survivors.
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
