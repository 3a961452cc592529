"""Evaluation: 11-point interpolated average precision, mAP, and the
learning-curve harness sweeping unlabeled-set sizes over seeds and methods.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .askkm import AskkmModel, AskkmOptions, fit_askkm
from .core import Dataset, InputError, SolverOptions, derive_seed, fan_out, one_blas_thread
from .datagen import GenSpec, generate, sample_eval_set
from .kernels import KernelMatrix, KernelSpec, cross_matrix, gram_matrix, kernel_diag
from .misspec import LabelMap
from .semgmm import GmmModel, bayes_classify_batch, fit_sem
from .sskkm import ClusterModel, fit_sskkm, score_batch

RECALL_POINTS = 11


class Method(NamedTuple):
    """A fitting method: a model family and the weighting of its unlabeled term."""

    family: str  # "sem", "sskkm" or "askkm"
    mode: str  # "original", "unbiased" or "supervised" (custom weight 0)


# The methods of `fit` and `curve`. A name whose Method repeats an earlier
# entry is an alias of that earlier name. askkm fits both weightings itself.
METHODS = {
    "original_sskkm": Method("sskkm", "original"),
    "unbiased_sskkm": Method("sskkm", "unbiased"),
    "askkm": Method("askkm", "original"),
    "original_sem": Method("sem", "original"),
    "unbiased_sem": Method("sem", "unbiased"),
    "supervised": Method("sem", "supervised"),
    "supervised_sem": Method("sem", "supervised"),
}


def method_solver(name: str, base: SolverOptions, weight: float | None = None) -> SolverOptions:
    """``base`` with the unlabeled weighting of method ``name``, or with the
    custom ``weight`` in its place."""
    mode = METHODS[name].mode
    if weight is None and mode == "supervised":
        weight = 0.0
    if weight is not None:
        return replace(base, unlabeled_weight_mode="custom", custom_weight=weight)
    return replace(base, unlabeled_weight_mode=mode, custom_weight=None)


def fit_method(
    name: str,
    train: Dataset,
    km: KernelMatrix | None,
    solver: SolverOptions,
    components: int | None = None,
    askkm: AskkmOptions = AskkmOptions(),
) -> GmmModel | ClusterModel | AskkmModel:
    """Fit method ``name`` with ``solver`` (see method_solver). ``km`` is the
    training Gram of the kernel families; ``components`` is the mixture size
    of the sem family (default: one per class); ``askkm`` holds the outer-loop
    knobs of askkm, whose solver options ``solver`` replaces."""
    family = METHODS[name].family
    if family == "sem":
        k = components if components is not None else train.n_classes
        return fit_sem(train, k, np.arange(k) % train.n_classes, solver)
    if family == "sskkm":
        identity = LabelMap.identity(train.labels, train.n_classes)
        return fit_sskkm(km, train, identity, train.n_classes, solver)
    return fit_askkm(km, train, replace(askkm, solver=solver))


def predict(
    model: GmmModel | ClusterModel | AskkmModel,
    x: np.ndarray,
    rows: np.ndarray | None,
    diag: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Labels (Q,) and per-class scores (Q, C) of Q query points, each model
    scored once. A mixture reads their features ``x``; a kernel model reads
    their kernel ``rows`` against its training points and their
    self-similarities ``diag``. Non-finite features are an InputError."""
    if not np.all(np.isfinite(x)):
        raise InputError("query points contain non-finite values")
    if isinstance(model, GmmModel):
        return bayes_classify_batch(model, x)
    if isinstance(model, AskkmModel):
        model = model.final_model
    return score_batch(model, rows, diag)


class UndefinedMetricError(InputError):
    """Average precision is undefined without a single relevant item."""


def interpolated_precision_points(scores: np.ndarray, relevance: np.ndarray) -> list[float]:
    """Interpolated precision at the 11 recall points {0, 0.1, ..., 1.0}.

    Items are ranked by descending score (ties keep original order); the
    interpolated precision at recall r is the maximum precision over all
    ranking prefixes reaching recall >= r.
    """
    scores = np.asarray(scores, dtype=float)
    relevance = np.asarray(relevance).astype(int)
    if scores.ndim != 1 or scores.shape != relevance.shape or scores.size < 1:
        raise InputError("scores and relevance must be equal-length nonempty vectors")
    if not relevance.any():
        raise UndefinedMetricError("no relevant items; average precision undefined")
    order = np.argsort(-scores, kind="stable")
    hits = np.cumsum(relevance[order])
    total = int(hits[-1])
    ranks = np.arange(1, scores.size + 1)
    precision = hits / ranks
    recall = hits / total
    return [float(np.max(precision[recall >= i / 10])) for i in range(RECALL_POINTS)]


def average_precision(scores: np.ndarray, relevance: np.ndarray) -> float:
    """Mean of the 11 interpolated precision points."""
    return sum(interpolated_precision_points(scores, relevance)) / RECALL_POINTS


def mean_ap(per_class_ap: list[float] | np.ndarray) -> float:
    """Arithmetic mean of per-class AP values."""
    values = np.asarray(per_class_ap, dtype=float)
    if values.size == 0:
        raise InputError("mean_ap of an empty list")
    return float(np.mean(values))


@dataclass(frozen=True)
class LearningCurve:
    """Per-method metric series over an increasing unlabeled-size grid.

    ``raw`` holds the full (grid, seed) matrix per method; mean and std are
    aggregated over seeds.
    """

    n_unlabeled_grid: tuple[int, ...]
    methods: tuple[str, ...]
    n_seeds: int
    metric_name: str
    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]
    raw: dict[str, np.ndarray]

    def to_json_dict(self) -> dict:
        return {
            "n_unlabeled_grid": list(self.n_unlabeled_grid),
            "methods": list(self.methods),
            "n_seeds": self.n_seeds,
            "metric": self.metric_name,
            "series": {
                m: {
                    "mean": self.mean[m].tolist(),
                    "std": self.std[m].tolist(),
                    "raw": self.raw[m].tolist(),
                }
                for m in self.methods
            },
        }

    def csv_rows(self) -> list[tuple[str, int, int, float]]:
        """Long-format rows (method, n_unlabeled, seed, metric)."""
        rows = []
        for m in self.methods:
            for gi, nu in enumerate(self.n_unlabeled_grid):
                for si in range(self.n_seeds):
                    rows.append((m, int(nu), si, float(self.raw[m][gi, si])))
        return rows


def _canonical_method(name: str) -> str:
    if name not in METHODS:
        raise InputError(f"unknown method {name!r}; choose from {tuple(METHODS)}")
    return next(n for n, m in METHODS.items() if m == METHODS[name])


def _evaluate_cell(
    scenario: GenSpec,
    methods: tuple[str, ...],
    nu: int,
    seed_index: int,
    eval_size: int,
    base_seed: int,
    kernel: KernelSpec,
    solver: SolverOptions,
) -> dict[str, float]:
    spec = replace(scenario, n_unlabeled=nu, seed=derive_seed(base_seed, "scenario", seed_index))
    train, _ = generate(spec)
    test_x, test_y = sample_eval_set(spec, eval_size, derive_seed(base_seed, "eval", seed_index))
    binary = train.n_classes == 2

    km = rows = diag = None
    if any(METHODS[m].family != "sem" for m in methods):
        km = gram_matrix(train, kernel)
        rows = cross_matrix(test_x, train.features, km.spec)
        diag = kernel_diag(test_x, km.spec)

    out: dict[str, float] = {}
    for method in methods:
        seed = derive_seed(base_seed, "fit", seed_index, method)
        model = fit_method(method, train, km, method_solver(method, replace(solver, seed=seed)))
        preds, scores = predict(model, test_x, rows, diag)
        if binary:
            out[method] = average_precision(scores[:, 1], test_y == 1)
        else:
            out[method] = float(np.mean(preds == test_y))
    return out


def learning_curve(
    scenario: GenSpec,
    methods: list[str],
    grid: list[int],
    n_seeds: int,
    eval_size: int,
    base_seed: int = 0,
    kernel: KernelSpec = KernelSpec(),
    solver: SolverOptions = SolverOptions(),
    workers: int = 1,
) -> LearningCurve:
    """Sweep (seed, grid point) cells, fitting every method on a shared train
    split and scoring on a held-out sample of the same scenario.

    Binary scenarios record average precision of the positive class, others
    accuracy. Fully reproducible from (scenario, grid, n_seeds, base_seed);
    cells are independent, run on up to ``workers`` threads of core.fan_out
    (which caps them), and every cell runs with BLAS held at one thread
    (core.one_blas_thread), so neither the worker count nor the BLAS thread
    count changes the result.
    """
    canon = tuple(_canonical_method(m) for m in methods)
    if not canon:
        raise InputError("no methods requested")
    if len(set(canon)) != len(canon):
        raise InputError("duplicate methods requested")
    grid = [int(g) for g in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError(f"grid must be strictly increasing, got {grid}")
    if n_seeds < 1 or eval_size < 1:
        raise InputError("n_seeds and eval_size must be >= 1")

    cells = [(gi, si) for gi in range(len(grid)) for si in range(n_seeds)]

    def run(cell: tuple[int, int]) -> dict[str, float]:
        gi, si = cell
        return _evaluate_cell(
            scenario, canon, grid[gi], si, eval_size, base_seed, kernel, solver
        )

    with one_blas_thread():
        results = fan_out(run, cells, min(workers, fan_out.width()))

    raw = {m: np.empty((len(grid), n_seeds)) for m in canon}
    for (gi, si), res in zip(cells, results):
        for m in canon:
            raw[m][gi, si] = res[m]
    metric = "average_precision" if scenario.n_classes == 2 else "accuracy"
    return LearningCurve(
        n_unlabeled_grid=tuple(grid),
        methods=canon,
        n_seeds=n_seeds,
        metric_name=metric,
        mean={m: raw[m].mean(axis=1) for m in canon},
        std={m: raw[m].std(axis=1) for m in canon},
        raw=raw,
    )
