"""Semi-supervised generative learners in paired original/unbiased weighted
forms, misspecification detection from their disagreement, and adaptive
cluster growth to recover from a misspecified structure."""

from .askkm import AskkmModel, AskkmOptions, fit_askkm
from .core import UNLABELED, Dataset, InputError, SolverOptions, derive_seed
from .datagen import GenSpec, generate, load_csv, sample_eval_set, write_csv
from .evalx import LearningCurve, average_precision, learning_curve, mean_ap, predict
from .kernels import KernelMatrix, KernelSpec, gram_matrix
from .misspec import (
    CriterionReport,
    LabelMap,
    default_threshold,
    disagreement_criterion,
    modify_structure,
)
from .semgmm import GmmModel, KlEstimate, bayes_classify_batch, fit_sem, kl_mc
from .sskkm import ClusterModel, fit_sskkm, init_assignments, score_batch

__all__ = [
    "AskkmModel",
    "AskkmOptions",
    "ClusterModel",
    "CriterionReport",
    "Dataset",
    "GenSpec",
    "GmmModel",
    "InputError",
    "KernelMatrix",
    "KernelSpec",
    "KlEstimate",
    "LabelMap",
    "LearningCurve",
    "SolverOptions",
    "UNLABELED",
    "average_precision",
    "bayes_classify_batch",
    "default_threshold",
    "derive_seed",
    "disagreement_criterion",
    "fit_askkm",
    "fit_sem",
    "fit_sskkm",
    "generate",
    "gram_matrix",
    "init_assignments",
    "kl_mc",
    "learning_curve",
    "load_csv",
    "mean_ap",
    "modify_structure",
    "predict",
    "sample_eval_set",
    "score_batch",
    "write_csv",
]
