"""Shared domain types: datasets of labeled and unlabeled rows, solver options,
seed derivation, a pin of the BLAS thread count, the memory available, and a
fan-out of independent jobs over a thread pool, or over forked worker
processes, that lives for one call.

The data types here check their invariants once, on construction, and are
immutable afterwards, so they are safe to share across workers.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import os
import signal
import threading
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TypeVar

import numpy as np


class InputError(ValueError):
    """Raised when an operation receives arguments violating its contract."""


def read_array(d: dict, key: str, kind: type, shape: tuple = (),
               within: tuple[float, float] | None = None) -> np.ndarray | int | float:
    """``d[key]``, a JSON value, as an array of ``kind`` (int or float) and
    ``shape`` (None: any length), or for shape () a Python number. InputError
    naming the key unless every entry is an integer (int), or an integer or
    finite float (float), in the closed interval ``within`` if given: so
    booleans, strings, nulls, fractional ids and ragged lists are never cast."""
    value = d[key]
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged list
        a = np.asarray(None)
    leaves = [value]
    for _ in range(a.ndim):  # numpy casts a boolean among numbers, so types are read
        leaves = itertools.chain.from_iterable(leaves)
    if (a.size and a.dtype.kind not in ("i" if kind is int else "if")) or bool in map(type, leaves):
        raise InputError(f"{key} must hold {'integers' if kind is int else 'numbers'} only")
    if a.ndim != len(shape) or any(s not in (None, n) for s, n in zip(shape, a.shape)):
        raise InputError(f"{key} {a.shape} must have shape {shape}")
    a = a.astype(kind, copy=False)
    lo, hi = within or (-np.inf, np.inf)
    if not np.all(np.isfinite(a) & (lo <= a) & (a <= hi)):
        rule = "finite" if within is None else f"finite and in [{lo}, {hi}]"
        raise InputError(f"{key} must be {rule}" + (f", got {a.item()}" if a.ndim == 0 else ""))
    return a.item() if a.ndim == 0 else a


def integer_array(value: object, name: str) -> np.ndarray:
    """A new int array of ``value``; InputError naming ``name`` unless its
    dtype is integer, so fractional and boolean ids are never cast."""
    a = np.asarray(value)
    if a.dtype.kind not in "iu":
        raise InputError(f"{name} must hold integers only, got dtype {a.dtype}")
    return a.astype(int)


ENV_THREADS = "MISSPEC_SSL_THREADS"
# An output of fewer entries than this is computed on the calling thread:
# below it a second thread costs more than it saves. In paired runs on a
# 2-vCPU VM the fit pair of an askkm round lost or broke even up to
# N = 1,250 and won most pairs from N = 1,500 (measured with a pool that
# lived for the whole process, where waking an idle pool thread took ~1 ms).
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


MEMINFO = "/proc/meminfo"


def available_memory() -> int | None:
    """Bytes the kernel reports as available to new allocations without
    swapping (``MemAvailable`` in MEMINFO), or None where that file or field
    does not exist."""
    try:
        with open(MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024  # the file counts kB
    except OSError:
        pass
    return None


_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.marked = True


def _on_pool_thread() -> bool:
    return getattr(_pool_thread, "marked", False)


def fan_out_width(entries: int | None = None) -> int:
    """Threads a fan-out from the calling thread may use: 1 on a pool
    thread or for an output of fewer than FAN_OUT_MIN_ENTRIES ``entries``
    (None: no floor), else the usable CPUs, capped by the integer in
    MISSPEC_SSL_THREADS when it is set (InputError unless that is an
    integer of at least 1)."""
    cap = os.environ.get(ENV_THREADS)
    threads = _usable_cpus()
    if cap is not None:
        try:
            threads = min(threads, int(cap))
        except ValueError:
            raise InputError(f"{ENV_THREADS} must be an integer, got {cap!r}") from None
        if threads < 1:
            raise InputError(f"{ENV_THREADS} must be at least 1, got {cap!r}")
    if _on_pool_thread() or (entries is not None and entries < FAN_OUT_MIN_ENTRIES):
        return 1
    return threads


def fan_out(fn: Callable[[Job], Result], jobs: Iterable[Job], width: int) -> list[Result]:
    """[fn(job) for job in jobs], the jobs taken in order by up to ``width``
    threads, and no more than the usable CPUs, of a pool made for this call
    alone; inline with one thread, one job or on a pool thread, so pools never
    nest. Jobs must be independent, so no result depends on the thread count.
    Every job runs to its end before the first error in job order is raised."""
    jobs = list(jobs)
    width = min(width, len(jobs), _usable_cpus())
    if width <= 1 or _on_pool_thread():
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(width, "misspec-ssl", initializer=_mark_pool_thread) as pool:
        futures = [pool.submit(fn, job) for job in jobs]
    return [future.result() for future in futures]


def fan_out_processes(fn: Callable[[Job], Result], jobs: Iterable[Job],
                      width: int) -> list[Result]:
    """fan_out's contract on forked worker processes: [fn(job) for job in
    jobs], in job order, on up to ``width`` workers and no more than
    fan_out_width() allows, so MISSPEC_SSL_THREADS caps them too; inline
    with one worker, one job, on a pool thread, in a worker, or where the
    platform cannot fork. Every job runs to its end before the first error
    in job order is raised, and every worker is joined before this returns.

    ``fn`` and ``jobs`` reach the workers through the fork, so only job
    indices, results and errors are pickled. Each worker is marked as a pool
    thread, so nothing fans out inside it. The workers fork from inside
    one_blas_thread, so each inherits BLAS at one thread: a count set after
    a fork starts an OpenBLAS thread in the worker, and 25 jobs of 4 ms then
    took 80-224 ms against 61-77 ms. Fork only where no other thread runs:
    outside a fan_out call, whose threads are all joined when it returns.

    A worker that ends before its job does (killed for memory, say) is an
    InputError in that job's place. Workers die with the process that
    forked them, where the platform has prctl (Linux)."""
    jobs = list(jobs)
    width = min(width, len(jobs), fan_out_width())
    if width <= 1:
        return [fn(job) for job in jobs]
    # Imported here: at the package's import they would cost ~20 ms.
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return [fn(job) for job in jobs]
    try:
        with one_blas_thread(), ProcessPoolExecutor(width, context, initializer=_start_worker,
                                                    initargs=(fn, jobs, os.getpid())) as pool:
            futures = [pool.submit(_run_worker_job, i) for i in range(len(jobs))]
        return [future.result() for future in futures]
    except BrokenProcessPool:
        raise InputError("a worker process ended before its job finished "
                         "(for example, killed for memory)") from None


_worker_jobs: tuple[Callable, list] | None = None  # (fn, jobs), in a worker
PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _start_worker(fn: Callable, jobs: list, parent: int) -> None:
    global _worker_jobs
    # SIGKILL when the forking parent dies; a parent that died before the
    # prctl is seen by the check after it.
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)
    _mark_pool_thread()
    _worker_jobs = fn, jobs


def _run_worker_job(index: int) -> object:
    fn, jobs = _worker_jobs
    return fn(jobs[index])


UNLABELED = -1  # the row label of an unlabeled row


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with one label per row: a class id, or UNLABELED.

    Construction checks every invariant below and raises InputError listing
    each violation, so any Dataset satisfies the preconditions of every
    solver in this package. ``features`` and ``row_labels`` are read-only
    copies of the arrays given, so no later write, to the caller's arrays
    or through these, can break the checked invariants; ``features`` is
    C-ordered, so no fit depends on the memory layout of the array given.

    Attributes
    ----------
    features : (N, d) finite float array, d >= 1
    row_labels : (N,) class id (0..n_classes-1) of each row, or UNLABELED, of
        an integer dtype (a float or boolean array is never truncated);
        every class occurs
    n_classes : declared number of classes C (>= 2)
    labeled_idx, labels, unlabeled_idx : the labeled rows (ascending), their
        class ids and the unlabeled rows (ascending), as intp arrays read off
        row_labels on each access

    Memory: the sem_gap bench holds 256 datasets of N = 20,020. Stored copies
    of the accessors' arrays doubled a dataset's index memory (peak RSS 162 ->
    201 MB). ``row_labels`` is stored, once the checks have run on a
    full-width copy, in the narrowest signed integer type that holds
    UNLABELED and n_classes - 1 (int8 up to 128 classes), so a row takes
    8·d + 1 bytes, not 8·d + 8 (peak RSS 161 -> 128 MB).
    """

    features: np.ndarray
    row_labels: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        for name, own in (("features", np.array(self.features, dtype=float, order="C")),
                          ("row_labels", integer_array(self.row_labels, "row_labels"))):
            own.flags.writeable = False
            object.__setattr__(self, name, own)
        problems = _dataset_violations(self)
        if problems:
            raise InputError("invalid dataset: " + "; ".join(problems))
        narrow = self.row_labels.astype(np.min_scalar_type(-int(self.n_classes)))
        narrow.flags.writeable = False
        object.__setattr__(self, "row_labels", narrow)

    @property
    def n_points(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def labeled_idx(self) -> np.ndarray:
        return np.flatnonzero(self.row_labels != UNLABELED)

    @property
    def labels(self) -> np.ndarray:
        return self.row_labels[self.row_labels != UNLABELED].astype(np.intp)

    @property
    def unlabeled_idx(self) -> np.ndarray:
        return np.flatnonzero(self.row_labels == UNLABELED)

    @property
    def n_labeled(self) -> int:
        return int(np.count_nonzero(self.row_labels != UNLABELED))

    @property
    def n_unlabeled(self) -> int:
        return self.n_points - self.n_labeled


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the kernel k-means and mixture-EM solvers.

    ``unlabeled_weight_mode`` is the weight of the unlabeled objective term:
    "original" uses 1, "unbiased" uses N_l/(N_l+N_u), and a number in [0, 1]
    is the weight itself (0 is the supervised fit, and any other the EM-λ
    weighting). evalx.fit_method sets it to each method's weighting.
    """

    max_iter: int = 300
    tol: float = 1e-7
    seed: int = 0
    unlabeled_weight_mode: str | float = "original"

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol >= 0:
            raise InputError(f"tol must be >= 0, got {self.tol}")
        mode = self.unlabeled_weight_mode
        weight = isinstance(mode, (int, float)) and not isinstance(mode, bool)
        if mode not in ("original", "unbiased") and not (weight and 0 <= mode <= 1):
            raise InputError('unlabeled_weight_mode must be "original", "unbiased" or a '
                             f"weight in [0, 1], got {mode!r}")

    def resolve_unlabeled_weight(self, n_labeled: int, n_unlabeled: int) -> float:
        if self.unlabeled_weight_mode == "original":
            return 1.0
        if self.unlabeled_weight_mode == "unbiased":
            return n_labeled / (n_labeled + n_unlabeled)
        return float(self.unlabeled_weight_mode)


def _dataset_violations(d: Dataset) -> list[str]:
    """Every broken Dataset invariant, as messages; linear in the data."""
    if d.features.ndim != 2:
        return [f"features must be a 2-D matrix, got ndim={d.features.ndim}"]
    problems: list[str] = []
    if d.dim < 1:
        problems.append(f"features need at least one column (dim >= 1), got dim={d.dim}")

    if not np.all(np.isfinite(d.features)):
        bad = np.argwhere(~np.isfinite(d.features))
        problems.append(f"non-finite feature value at (row, col) {tuple(bad[0].tolist())}")

    if d.row_labels.shape != (d.n_points,):
        problems.append(f"row_labels must hold one label per row ({d.n_points}), "
                        f"got shape {d.row_labels.shape}")

    labels = d.labels
    known = (labels >= 0) & (labels < d.n_classes)
    out = labels[~known]
    if out.size:
        problems.append(
            f"row labels outside {UNLABELED}..{d.n_classes - 1}: {sorted(set(out.tolist()))}"
        )

    if d.n_classes < 2:
        problems.append(f"n_classes must be >= 2, got {d.n_classes}")

    if labels.size == 0:
        problems.append("no labeled points (every solver needs >= 1 labeled point per class)")
    else:
        present = np.bincount(labels[known], minlength=max(d.n_classes, 0))
        for c in np.flatnonzero(present == 0).tolist():
            problems.append(f"class {c} unrepresented among labels")

    return problems
