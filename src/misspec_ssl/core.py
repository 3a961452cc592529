"""Shared domain types: datasets with a labeled/unlabeled split, solver options,
dataset validation, and seed derivation.

All types here are immutable after construction and safe to share across
workers; validation is read-only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


class InputError(ValueError):
    """Raised when an operation receives arguments violating its contract."""


def derive_seed(base: int, *parts: object) -> int:
    """Derive an independent 63-bit seed from a base seed and a component name.

    One user-facing seed fans out to all stochastic components; the split is a
    stable hash so it does not depend on process state or platform.
    """
    text = str(int(base)) + "".join(f"|{p}" for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with a labeled partition and an unlabeled partition.

    Attributes
    ----------
    features : (N, d) float array
    labeled_idx : row indices of the labeled points, in order
    labels : class id (0..n_classes-1) per labeled index
    unlabeled_idx : row indices of the unlabeled points, disjoint from labeled_idx;
        together the two cover every row
    n_classes : declared number of classes C (>= 2)
    """

    features: np.ndarray
    labeled_idx: np.ndarray
    labels: np.ndarray
    unlabeled_idx: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "labeled_idx", np.asarray(self.labeled_idx, dtype=int))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=int))
        object.__setattr__(self, "unlabeled_idx", np.asarray(self.unlabeled_idx, dtype=int))

    @property
    def n_points(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def n_labeled(self) -> int:
        return int(self.labeled_idx.size)

    @property
    def n_unlabeled(self) -> int:
        return int(self.unlabeled_idx.size)


WEIGHT_MODES = ("original", "unbiased", "custom")


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the kernel k-means and mixture-EM solvers.

    ``unlabeled_weight_mode`` selects how the unlabeled objective term is
    weighted: "original" uses 1, "unbiased" uses N_l/(N_l+N_u), and "custom"
    uses ``custom_weight`` (a supervised fit is custom weight 0).
    """

    max_iter: int = 300
    tol: float = 1e-7
    seed: int = 0
    unlabeled_weight_mode: str = "original"
    custom_weight: float | None = None

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tol < 0:
            raise InputError(f"tol must be >= 0, got {self.tol}")
        if self.unlabeled_weight_mode not in WEIGHT_MODES:
            raise InputError(
                f"unlabeled_weight_mode must be one of {WEIGHT_MODES}, "
                f"got {self.unlabeled_weight_mode!r}"
            )
        if self.unlabeled_weight_mode == "custom":
            if self.custom_weight is None or not 0.0 <= self.custom_weight <= 1.0:
                raise InputError(f"custom weight must be in [0, 1], got {self.custom_weight}")

    def resolve_unlabeled_weight(self, n_labeled: int, n_unlabeled: int) -> float:
        if self.unlabeled_weight_mode == "original":
            return 1.0
        if self.unlabeled_weight_mode == "unbiased":
            return n_labeled / (n_labeled + n_unlabeled)
        return float(self.custom_weight)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_dataset: ok, or an enumeration of violations."""

    ok: bool
    violations: tuple[str, ...] = field(default_factory=tuple)


def validate_dataset(d: Dataset) -> ValidationReport:
    """Check every Dataset invariant; violations are data, not failures.

    Any dataset accepted here satisfies the preconditions of every solver in
    this package.
    """
    problems: list[str] = []
    n = d.n_points

    if d.features.ndim != 2:
        problems.append(f"features must be a 2-D matrix, got ndim={d.features.ndim}")
        return ValidationReport(ok=False, violations=tuple(problems))

    if not np.all(np.isfinite(d.features)):
        bad = np.argwhere(~np.isfinite(d.features))
        problems.append(f"non-finite feature value at (row, col) {tuple(bad[0])}")

    covered = np.zeros(n, dtype=bool)
    for name, idx in (("labeled_idx", d.labeled_idx), ("unlabeled_idx", d.unlabeled_idx)):
        outside = (idx < 0) | (idx >= n)
        covered[idx[~outside]] = True
        out = idx[outside]
        if out.size:
            problems.append(f"{name} out of range [0, {n}): {sorted(out.tolist())}")
        uniq, counts = np.unique(idx, return_counts=True)
        dups = uniq[counts > 1]
        if dups.size:
            problems.append(f"duplicate indices in {name}: {sorted(dups.tolist())}")

    overlap = np.intersect1d(d.labeled_idx, d.unlabeled_idx)
    for i in overlap.tolist():
        problems.append(f"labeled/unlabeled overlap at index {i}")

    uncovered = np.flatnonzero(~covered)
    if uncovered.size:
        problems.append(
            f"{uncovered.size} rows in neither labeled_idx nor unlabeled_idx, "
            f"first {uncovered[:5].tolist()}"
        )

    if d.labels.size != d.labeled_idx.size:
        problems.append(
            f"labels length {d.labels.size} != labeled_idx length {d.labeled_idx.size}"
        )

    if d.n_classes < 2:
        problems.append(f"n_classes must be >= 2, got {d.n_classes}")

    if d.labeled_idx.size == 0:
        problems.append("no labeled points (every solver needs >= 1 labeled point per class)")
    else:
        out = d.labels[(d.labels < 0) | (d.labels >= d.n_classes)]
        if out.size:
            problems.append(
                f"label ids outside 0..{d.n_classes - 1}: {sorted(set(out.tolist()))}"
            )
        present = set(d.labels.tolist())
        for c in range(d.n_classes):
            if c not in present:
                problems.append(f"class {c} unrepresented among labels")

    return ValidationReport(ok=not problems, violations=tuple(problems))


def require_valid(d: Dataset) -> None:
    """Raise InputError if the dataset fails validation (solver precondition)."""
    report = validate_dataset(d)
    if not report.ok:
        raise InputError("invalid dataset: " + "; ".join(report.violations))
