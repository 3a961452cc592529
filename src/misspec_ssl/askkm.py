"""The adaptive semi-supervised kernel k-means driver.

Each round fits the original-weighted and unbiased-weighted solvers from one
shared initialization, from FAN_OUT_MIN_ENTRIES Gram entries on a pool of two
threads that core.fan_out makes for the pair, classifies the labeled points
with both, and checks the disagreement criterion. While the criterion exceeds
its threshold the label map grows (one new cluster per disagreement group)
and the round restarts cold at the larger structure. Growth is bounded by a
cluster budget and a stall detector, so the loop always terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .core import Dataset, InputError, SolverOptions, fan_out, fan_out_width
from .kernels import KernelMatrix
from .misspec import (
    CriterionReport,
    LabelMap,
    StructureGrowthCapped,
    default_threshold,
    disagreement_criterion,
    modify_structure,
)
from .sskkm import ClusterModel, fit_sskkm, init_assignments, score_batch

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

    def __post_init__(self) -> None:
        if self.threshold is not None and self.threshold < 0:
            raise InputError(f"threshold must be >= 0, got {self.threshold}")
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
    """The original-objective fit at the final structure, the round history
    and the termination reason. ``first_round`` holds the round-1 original
    and unbiased fits, at the class structure: equal to fit_sskkm of each
    weighting with the identity label map. It serves the callers that want
    those fits too, and to_dict does not write it."""

    final_model: ClusterModel
    history: tuple[RoundRecord, ...]
    terminated_by: str
    first_round: tuple[ClusterModel, ClusterModel]

    @property
    def rounds(self) -> int:
        return len(self.history)

    @property
    def n_clusters(self) -> int:
        return self.final_model.n_clusters

    @property
    def unlabeled_weight(self) -> float:
        return self.final_model.unlabeled_weight

    def to_dict(self) -> dict:
        return {
            "family": "askkm",
            "final_model": self.final_model.to_dict(),
            "terminated_by": self.terminated_by,
            "history": [
                {
                    "n_clusters": rec.n_clusters,
                    "criterion": rec.report.to_dict(),
                    "objective_original": rec.objective_original,
                    "objective_unbiased": rec.objective_unbiased,
                }
                for rec in self.history
            ],
        }


def fit_askkm(km: KernelMatrix, d: Dataset, opts: AskkmOptions) -> AskkmModel:
    """Run the adaptive loop and return the original-objective fit at the
    final structure, with the full round history. Deterministic given the
    solver seed."""
    if km.n != d.n_points:
        raise InputError(f"kernel matrix covers {km.n} points, dataset has {d.n_points}")

    threshold = opts.threshold if opts.threshold is not None else default_threshold(d.n_labeled)
    k_max = opts.k_max if opts.k_max is not None else DEFAULT_KMAX_PER_CLASS * d.n_classes
    if k_max < d.n_classes:
        raise InputError(f"k_max={k_max} below the class count {d.n_classes}")

    label_map = LabelMap.identity(d.labels, d.n_classes)
    lab_rows = km.rows(d.labeled_idx)
    lab_diag = km.diag[d.labeled_idx]

    history: list[RoundRecord] = []
    stall = 0

    width = fan_out_width(km.n ** 2)
    while True:
        init = init_assignments(km, d, label_map)

        def fit(mode: str) -> ClusterModel:
            solver = replace(opts.solver, unlabeled_weight_mode=mode)
            return fit_sskkm(km, d, label_map, solver, init=init)

        original, unbiased = fan_out(fit, ("original", "unbiased"), width)

        if not history:
            first_round = (original, unbiased)
        preds_original = score_batch(original, lab_rows, lab_diag)[0]
        preds_unbiased = score_batch(unbiased, lab_rows, lab_diag)[0]
        report = disagreement_criterion(preds_original, preds_unbiased, threshold)
        history.append(
            RoundRecord(
                n_clusters=label_map.n_fine,
                report=report,
                objective_original=original.objective,
                objective_unbiased=unbiased.objective,
            )
        )

        if not report.misspecified:
            terminated_by = TERMINATED_CONVERGED
            break
        if len(history) > 1 and report.disagreements >= history[-2].report.disagreements:
            stall += 1
        else:
            stall = 0
        if stall >= opts.stall_rounds:
            terminated_by = TERMINATED_NO_IMPROVEMENT
            break
        try:
            label_map = modify_structure(label_map, report, d.labels, k_max=k_max)
        except StructureGrowthCapped:
            terminated_by = TERMINATED_GROWTH_CAPPED
            break

    return AskkmModel(final_model=original, history=tuple(history),
                      terminated_by=terminated_by, first_round=first_round)
