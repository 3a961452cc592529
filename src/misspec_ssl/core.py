"""Shared domain types: datasets with a labeled/unlabeled split, solver options,
seed derivation, a pin of the BLAS thread count, and the package thread pool.

The data types here check their invariants once, on construction, and are
immutable afterwards, so they are safe to share across workers.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import threading
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TypeVar

import numpy as np


class InputError(ValueError):
    """Raised when an operation receives arguments violating its contract."""


ENV_THREADS = "MISSPEC_SSL_THREADS"
# An output of fewer entries than this is computed on the calling thread:
# below it a second thread costs more than it saves. In paired runs on a
# 2-vCPU VM the fit pair of an askkm round lost or broke even up to
# N = 1,250 and won most pairs from N = 1,500; waking an idle pool thread
# took ~1 ms.
FAN_OUT_MIN_ENTRIES = 2**21

Job = TypeVar("Job")
Result = TypeVar("Result")


def derive_seed(base: int, *parts: object) -> int:
    """Derive an independent 63-bit seed from a base seed and a component name.

    One user-facing seed fans out to all stochastic components; the split is a
    stable hash so it does not depend on process state or platform.
    """
    text = str(int(base)) + "".join(f"|{p}" for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


@functools.cache
def blas_thread_api() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """(set, get) of the thread count of the OpenBLAS that numpy loaded, or
    None for any other BLAS. The symbols are looked up through ctypes on
    numpy's own extension module: the bundled scipy-openblas ones first, then
    those of a system OpenBLAS."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for set_name, get_name in (
        ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
        ("openblas_set_num_threads", "openblas_get_num_threads"),
    ):
        set_threads = getattr(lib, set_name, None)
        get_threads = getattr(lib, get_name, None)
        if set_threads is not None and get_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold BLAS at one thread inside the block and restore the earlier count
    on the way out, however the block ends; a no-op without blas_thread_api.

    Products from about 1,000 rows up differ in their last bits between 1-
    and 2-thread OpenBLAS, so a fixed count makes them independent of the
    machine's default; one thread also keeps BLAS from competing with a pool
    of workers for the same cores."""
    api = blas_thread_api()
    if api is None:
        yield
        return
    set_threads, get_threads = api
    earlier = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(earlier)


@functools.cache
def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class FanOut:
    """Maps a function over a list of jobs on one lazily created,
    process-wide thread pool of one thread per usable CPU.

    Jobs must be independent: each computes exactly what it would compute in
    a serial loop, so no result depends on the thread count. Calls made on a
    pool thread run inline, so pools never nest and a job never waits for a
    pool thread."""

    def __init__(self) -> None:
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forget_pool)

    def _forget_pool(self) -> None:
        # A forked child has none of the parent's pool threads.
        self._executor = None
        self._lock = threading.Lock()

    def _mark_pool_thread(self) -> None:
        self._local.on_pool = True

    def _on_pool_thread(self) -> bool:
        return getattr(self._local, "on_pool", False)

    def width(self, entries: int | None = None) -> int:
        """Threads a fan-out from the calling thread may use: 1 on a pool
        thread or for an output of fewer than FAN_OUT_MIN_ENTRIES
        ``entries`` (None: no floor), else the usable CPUs, capped by the
        integer in MISSPEC_SSL_THREADS when it is set (InputError when it is
        not an integer)."""
        cap = os.environ.get(ENV_THREADS)
        threads = _usable_cpus()
        if cap is not None:
            try:
                threads = max(1, min(threads, int(cap)))
            except ValueError:
                raise InputError(f"{ENV_THREADS} must be an integer, got {cap!r}") from None
        if self._on_pool_thread() or (entries is not None and entries < FAN_OUT_MIN_ENTRIES):
            return 1
        return threads

    def __call__(
        self, fn: Callable[[Job], Result], jobs: Iterable[Job], width: int
    ) -> list[Result]:
        """[fn(job) for job in jobs], with the jobs taken in order by up to
        ``width`` pool threads while the caller waits; inline with one
        thread, one job or on a pool thread. Every job runs to its end
        before the first error in job order is raised."""
        jobs = list(jobs)
        width = min(width, len(jobs))
        if width <= 1 or self._on_pool_thread():
            return [fn(job) for job in jobs]
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    _usable_cpus(), "misspec-ssl", initializer=self._mark_pool_thread
                )
            executor = self._executor
        results: list = [None] * len(jobs)
        errors: list[BaseException | None] = [None] * len(jobs)
        order = iter(range(len(jobs)))
        taking = threading.Lock()

        def lane() -> None:
            while True:
                with taking:
                    i = next(order, None)
                if i is None:
                    return
                try:
                    results[i] = fn(jobs[i])
                except BaseException as exc:  # raised below, after every job
                    errors[i] = exc

        for future in [executor.submit(lane) for _ in range(width)]:
            future.result()
        for exc in errors:
            if exc is not None:
                raise exc
        return results


fan_out = FanOut()


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with a labeled partition and an unlabeled partition.

    Construction checks every invariant below and raises InputError listing
    each violation, so any Dataset satisfies the preconditions of every
    solver in this package.

    Attributes
    ----------
    features : (N, d) finite float array, d >= 1
    labeled_idx : row indices of the labeled points, in order, no repeats
    labels : class id (0..n_classes-1) per labeled index; every class occurs
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
        problems = _dataset_violations(self)
        if problems:
            raise InputError("invalid dataset: " + "; ".join(problems))

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


def _dataset_violations(d: Dataset) -> list[str]:
    """Every broken Dataset invariant, as messages; linear in the data, no sort.

    Each index array marks its rows in a boolean mask: fewer marked rows
    than indices means a repeat, which one bincount then names, and the two
    masks give the overlaps and the uncovered rows. Out-of-range indices are
    reported as such and left out of the masks. (A bincount of every array,
    repeat or not, made the check three times as costly inside `generate`.)
    """
    if d.features.ndim != 2:
        return [f"features must be a 2-D matrix, got ndim={d.features.ndim}"]
    problems: list[str] = []
    n = d.n_points
    if d.dim < 1:
        problems.append(f"features need at least one column (dim >= 1), got dim={d.dim}")

    if not np.all(np.isfinite(d.features)):
        bad = np.argwhere(~np.isfinite(d.features))
        problems.append(f"non-finite feature value at (row, col) {tuple(bad[0])}")

    seen = []
    for name, idx in (("labeled_idx", d.labeled_idx), ("unlabeled_idx", d.unlabeled_idx)):
        inside = (idx >= 0) & (idx < n)
        out = idx[~inside]
        if out.size:
            problems.append(f"{name} out of range [0, {n}): {sorted(out.tolist())}")
            idx = idx[inside]
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        if np.count_nonzero(mask) < idx.size:
            dups = np.flatnonzero(np.bincount(idx, minlength=n) > 1)
            problems.append(f"duplicate indices in {name}: {dups.tolist()}")
        seen.append(mask)

    for i in np.flatnonzero(seen[0] & seen[1]).tolist():
        problems.append(f"labeled/unlabeled overlap at index {i}")

    uncovered = np.flatnonzero(~(seen[0] | seen[1]))
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
        known = (d.labels >= 0) & (d.labels < d.n_classes)
        out = d.labels[~known]
        if out.size:
            problems.append(
                f"label ids outside 0..{d.n_classes - 1}: {sorted(set(out.tolist()))}"
            )
        present = np.bincount(d.labels[known], minlength=max(d.n_classes, 0))
        for c in np.flatnonzero(present == 0).tolist():
            problems.append(f"class {c} unrepresented among labels")

    return problems
