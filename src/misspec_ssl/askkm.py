"""The adaptive semi-supervised kernel k-means driver.

Each round fits the original-weighted and unbiased-weighted solvers from one
shared initialization, classifies the labeled points with both, and checks
the disagreement criterion. While the criterion exceeds its threshold the
label map grows (one new cluster per disagreement group) and the round
restarts cold at the larger structure. Growth is bounded by a cluster budget
and a stall detector, so the loop always terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import Dataset, InputError, SolverOptions, require_valid
from .kernels import KernelMatrix
from .misspec import (
    CriterionReport,
    LabelMap,
    StructureGrowthCapped,
    default_threshold,
    disagreement_criterion,
    modify_structure,
)
from .sskkm import ClusterModel, classify_batch, fit_sskkm, init_assignments, score_batch

DEFAULT_KMAX_PER_CLASS = 10

TERMINATED_CONVERGED = "converged"
TERMINATED_GROWTH_CAPPED = "growth_capped"
TERMINATED_NO_IMPROVEMENT = "no_improvement"


@dataclass(frozen=True)
class AskkmOptions:
    """Outer-loop knobs: disagreement threshold (None = 5% rule), cluster
    budget (None = 10 per class), stall window, and the inner solver options."""

    threshold: int | None = None
    k_max: int | None = None
    stall_rounds: int = 3
    solver: SolverOptions = field(default_factory=SolverOptions)
    map_new_to_true_class: bool = False

    def __post_init__(self) -> None:
        if self.stall_rounds < 1:
            raise InputError(f"stall_rounds must be >= 1, got {self.stall_rounds}")


@dataclass(frozen=True)
class RoundRecord:
    """One adaptation round: the structure size, the criterion outcome, and
    the final objectives of both inner fits."""

    n_clusters: int
    report: CriterionReport
    objective_original: float
    objective_unbiased: float


@dataclass(frozen=True)
class AskkmModel:
    final_model: ClusterModel
    label_map: LabelMap
    history: tuple[RoundRecord, ...]
    rounds: int
    terminated_by: str

    @property
    def n_clusters(self) -> int:
        return self.final_model.n_clusters


def fit_askkm(km: KernelMatrix, d: Dataset, opts: AskkmOptions) -> AskkmModel:
    """Run the adaptive loop and return the original-objective fit at the
    final structure, with the full round history. Deterministic given the
    solver seed."""
    require_valid(d)
    if km.n != d.n_points:
        raise InputError(f"kernel matrix covers {km.n} points, dataset has {d.n_points}")

    threshold = opts.threshold if opts.threshold is not None else default_threshold(d.n_labeled)
    k_max = opts.k_max if opts.k_max is not None else DEFAULT_KMAX_PER_CLASS * d.n_classes
    if k_max < d.n_classes:
        raise InputError(f"k_max={k_max} below the class count {d.n_classes}")

    label_map = LabelMap.identity(d.labels, d.n_classes)
    lab_rows = km.values[d.labeled_idx]
    lab_diag = km.diag[d.labeled_idx]

    history: list[RoundRecord] = []
    terminated_by = TERMINATED_CONVERGED
    stall = 0
    prev_disagreements: int | None = None

    while True:
        k = label_map.n_fine
        init = init_assignments(km, d, label_map, k)
        original = fit_sskkm(
            km, d, label_map, k,
            replace(opts.solver, unlabeled_weight_mode="original", custom_weight=None),
            init=init,
        )
        unbiased = fit_sskkm(
            km, d, label_map, k,
            replace(opts.solver, unlabeled_weight_mode="unbiased", custom_weight=None),
            init=init,
        )

        preds_original = classify_batch(original, lab_rows, lab_diag)
        preds_unbiased = classify_batch(unbiased, lab_rows, lab_diag)
        report = disagreement_criterion(preds_original, preds_unbiased, threshold)
        history.append(
            RoundRecord(
                n_clusters=k,
                report=report,
                objective_original=original.objective,
                objective_unbiased=unbiased.objective,
            )
        )

        if not report.misspecified:
            terminated_by = TERMINATED_CONVERGED
            break
        if prev_disagreements is not None and report.disagreements >= prev_disagreements:
            stall += 1
        else:
            stall = 0
        prev_disagreements = report.disagreements
        if stall >= opts.stall_rounds:
            terminated_by = TERMINATED_NO_IMPROVEMENT
            break
        try:
            label_map = modify_structure(
                label_map,
                report,
                d.labels,
                preds_unbiased,
                k_max=k_max,
                map_new_to_true_class=opts.map_new_to_true_class,
            )
        except StructureGrowthCapped:
            terminated_by = TERMINATED_GROWTH_CAPPED
            break

    return AskkmModel(
        final_model=original,
        label_map=original.label_map,
        history=tuple(history),
        rounds=len(history),
        terminated_by=terminated_by,
    )


def predict(m: AskkmModel, km_rows: np.ndarray, self_k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classify query points through the final model: (labels, per-class scores)."""
    labels = classify_batch(m.final_model, km_rows, self_k)
    scores = score_batch(m.final_model, km_rows, self_k)
    return labels, scores
