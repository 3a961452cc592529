"""Evaluation: 11-point interpolated average precision, mAP, and the
learning-curve harness sweeping unlabeled-set sizes over seeds and methods.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .askkm import AskkmModel, AskkmOptions, fit_askkm
from .core import (
    Dataset, InputError, SolverOptions, available_memory, derive_seed, fan_out_processes,
    one_blas_thread,
)
from .datagen import GenSpec, generate, sample_eval_set
from .kernels import KernelMatrix, KernelSpec, cross_matrix, gram_matrix, kernel_diag
from .misspec import LabelMap
from .semgmm import GmmModel, bayes_classify_batch, fit_sem
from .sskkm import ClusterModel, fit_sskkm, score_batch

RECALL_POINTS = 11
# Curve cells run inline unless the cells other than the largest one hold
# this many training rows in all: the largest cell bounds the time of any
# split, so only the others' work can pay for a process pool's start (about
# 20 ms for two forked workers). In alternating runs of 30 curves on a
# 2-vCPU VM, inline won or tied in 18 of the 19 below 500 such rows (grid
# 0,50 at 2 seeds: 41 against 47 ms), and forked workers won or tied in 10 of
# the 11 from 500 up (0,50,100 at 5 seeds: 178 against 130 ms). A held-out
# row costs about 1/30 of a training row, so those do not count.
CELL_FORK_MIN_ROWS = 500


class Method(NamedTuple):
    """A fitting method: a model family and a SolverOptions.unlabeled_weight_mode."""

    family: str  # "sem", "sskkm" or "askkm"
    mode: str | float  # "original", "unbiased" or the weight (0: supervised)


# The methods of `fit` and `curve`. A name whose Method repeats an earlier
# entry is an alias of that earlier name. askkm fits both weightings itself.
METHODS = {
    "original_sskkm": Method("sskkm", "original"),
    "unbiased_sskkm": Method("sskkm", "unbiased"),
    "askkm": Method("askkm", "original"),
    "original_sem": Method("sem", "original"),
    "unbiased_sem": Method("sem", "unbiased"),
    "supervised": Method("sem", 0.0),
    "supervised_sem": Method("sem", 0.0),
}

# The model JSON loader of each family; askkm scores as its final model.
LOADERS = {
    "sem": GmmModel.from_dict,
    "sskkm": ClusterModel.from_dict,
    "askkm": lambda d: ClusterModel.from_dict(d["final_model"]),
}


def load_model(d: dict) -> GmmModel | ClusterModel:
    """The scoring model of ``d``, a fitted model's to_dict() JSON. A missing
    key is a KeyError, an unknown family or bad value an InputError or TypeError."""
    family = d.get("family")
    if not isinstance(family, str) or family not in LOADERS:
        raise InputError(f"unrecognized model family {family!r}")
    return LOADERS[family](d)


def check_weight(name: str, weight: float | None, label: str = "weight") -> None:
    """InputError unless ``weight`` may take the place of method ``name``'s
    unlabeled weighting: None, or a weight in [0, 1] for any method but
    askkm, which fits both weightings itself. ``label`` names the weight in
    the message."""
    if weight is None:
        return
    if METHODS[name].family == "askkm":
        raise InputError(f"{label} does not apply to askkm, which fits both weightings itself")
    SolverOptions(unlabeled_weight_mode=weight)


def fit_method(
    name: str,
    train: Dataset,
    km: KernelMatrix | None,
    solver: SolverOptions,
    components: int | None = None,
    askkm: AskkmOptions = AskkmOptions(),
    weight: float | None = None,
) -> GmmModel | ClusterModel | AskkmModel:
    """Fit method ``name`` with ``solver`` at the method's unlabeled weighting,
    or at ``weight`` in its place. ``km`` is the training Gram of the kernel
    families; ``components`` is the mixture size of the sem family (default:
    one per class); ``askkm`` holds the outer-loop knobs of askkm, whose
    solver options ``solver`` replaces. A ``weight`` for askkm is an
    InputError."""
    check_weight(name, weight)
    family, mode = METHODS[name]
    solver = replace(solver, unlabeled_weight_mode=mode if weight is None else weight)
    if family == "sem":
        k = components if components is not None else train.n_classes
        return fit_sem(train, k, np.arange(k) % train.n_classes, solver)
    if family == "sskkm":
        identity = LabelMap.identity(train.labels, train.n_classes)
        return fit_sskkm(km, train, identity, solver)
    return fit_askkm(km, train, replace(askkm, solver=solver))


def predict(
    model: GmmModel | ClusterModel | AskkmModel,
    x: np.ndarray,
    rows: np.ndarray | None = None,
    diag: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Labels (Q,) and per-class scores (Q, C) of Q query points, each model
    scored once. A mixture reads their features ``x``; a kernel model reads
    their kernel ``rows`` against its training points and their
    self-similarities ``diag``, built from ``x`` when ``rows`` is None. A
    1-D ``x`` is one point. Query points of another dimension than the
    model's, or non-finite, are an InputError."""
    x = np.atleast_2d(x)
    if isinstance(model, AskkmModel):
        model = model.final_model
    if x.shape[1] != model.dim:
        raise InputError(f"model dimension {model.dim} != data dimension {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise InputError("query points contain non-finite values")
    if isinstance(model, GmmModel):
        return bayes_classify_batch(model, x)
    if rows is None:
        rows = cross_matrix(x, model.train_features, model.kernel_spec)
        diag = kernel_diag(x, model.kernel_spec)
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
    relevance = np.asarray(relevance)
    if relevance.dtype.kind not in "biu" or not np.isin(relevance, (0, 1)).all():
        raise InputError("relevance must hold booleans or integers 0 and 1 only")
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

    # askkm goes first: its first round is the pair of sskkm fits, on the same
    # Gram and init at the same weightings, max_iter and tol (no seed is read).
    first_round: tuple[ClusterModel, ...] = ()
    out: dict[str, float] = {}
    for method in sorted(methods, key=lambda m: m != "askkm"):
        family, mode = METHODS[method]
        if family == "sskkm" and first_round:
            model = first_round[mode == "unbiased"]
        else:
            seed = derive_seed(base_seed, "fit", seed_index, method)
            model = fit_method(method, train, km, replace(solver, seed=seed))
            if family == "askkm":
                first_round = model.first_round
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
    cells are independent. They run in order on the calling thread while the
    cells other than the largest hold fewer than CELL_FORK_MIN_ROWS training
    rows in all; from there on up to ``workers`` forked worker processes of
    core.fan_out_processes (which caps them) share them, and each cell runs
    there on one thread. Each worker builds its own cell's Gram, so the
    workers are also capped at the number of the largest cell's Grams (8·N²
    bytes each) that fit in core.available_memory(), where that is known.
    Every cell runs with BLAS held at one thread
    (core.one_blas_thread), so neither the worker count nor the BLAS thread
    count changes the result. A cell's original_sskkm and unbiased_sskkm are
    its askkm's first-round fits when askkm is requested.
    """
    canon = tuple(_canonical_method(m) for m in methods)
    if not canon:
        raise InputError("no methods requested")
    if len(set(canon)) != len(canon):
        raise InputError("duplicate methods requested")
    grid = [int(g) for g in grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError(f"grid must be nonempty and strictly increasing, got {grid}")
    if min(n_seeds, eval_size, workers) < 1:
        raise InputError("n_seeds, eval_size and workers must be >= 1")

    cells = [(gi, si) for gi in range(len(grid)) for si in range(n_seeds)]

    def run(cell: tuple[int, int]) -> dict[str, float]:
        gi, si = cell
        return _evaluate_cell(
            scenario, canon, grid[gi], si, eval_size, base_seed, kernel, solver
        )

    n_labeled = scenario.n_labeled_per_class * scenario.n_classes
    rows = n_seeds * sum(n_labeled + nu for nu in grid) - (n_labeled + grid[-1])
    width = workers if rows >= CELL_FORK_MIN_ROWS else 1
    available = available_memory() if width > 1 else None
    if available is not None:
        width = min(width, max(1, available // (8 * (n_labeled + grid[-1]) ** 2)))
    with one_blas_thread():
        results = fan_out_processes(run, cells, width)

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
