"""The benchmark's workloads. Each makes its inputs from the benchmark seed
(the program sees only those inputs), runs one operation at a time in a
closed loop, and checks every operation's outputs.

An operation returns the seconds of its timed part and the list of checks it
failed; the timed part excludes the checks. `root(phase, op)` opens the
traced run's root span around each timed part (a no-op when untraced).
`phases` names those root spans; `bypasses` names the layers the workload
must never call, which the traced run checks.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import ClassVar

import numpy as np

from misspec_ssl import cli, semgmm
from misspec_ssl.core import SolverOptions, derive_seed
from misspec_ssl.datagen import GenSpec, generate

TERMINATIONS = ("converged", "growth_capped", "no_improvement")


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; (exit code, captured stderr). Its
    stdout is dropped: the benchmark's own stdout carries the result."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue().strip()


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


@dataclass
class AskkmCli:
    """`fit --method askkm` then `eval`, cycling over a pool of training CSVs."""

    work: Path
    seed: int
    unlabeled: int = 6000
    heldout_per_class: int = 1000
    pool: int = 12
    phases: ClassVar[tuple[str, ...]] = ("fit", "eval")
    bypasses: ClassVar[tuple[str, ...]] = ("semgmm",)
    _digests: dict[int, str] = field(default_factory=dict, init=False, repr=False)
    _maps: list[float] = field(default_factory=list, init=False, repr=False)

    def _scenario(self, unlabeled: int, per_class: int, seed: int, out: str) -> list[str]:
        return ["gen", "--kind", "misspecified", "--class-sep", 5, "--subcluster-sep", 8,
                "--labeled-per-class", per_class, "--unlabeled", unlabeled, "--seed", seed,
                "--out-data", self.work / f"{out}.csv",
                "--out-truth", self.work / f"{out}.truth.json"]

    def setup(self) -> None:
        commands = [self._scenario(self.unlabeled, 10, derive_seed(self.seed, "train", j),
                                   f"train{j}") for j in range(self.pool)]
        commands.append(self._scenario(0, self.heldout_per_class,
                                       derive_seed(self.seed, "heldout"), "heldout"))
        for argv in commands:
            code, err = _cli(argv)
            if code != 0:
                raise RuntimeError(f"set-up failed: gen exited {code}: {err}")

    def op(self, i: int, root) -> tuple[float, list[str]]:
        j = i % self.pool
        model = self.work / f"model{j}.json"
        metrics = self.work / f"metrics{j}.json"
        failed = []
        with root("fit", i):
            t0 = perf_counter()
            code, err = _cli(["fit", "--method", "askkm", "--data", self.work / f"train{j}.csv",
                              "--seed", derive_seed(self.seed, "fit", j), "--out-model", model])
            seconds = perf_counter() - t0
        if code != 0:
            return seconds, [f"fit exited {code}: {err}"]
        with root("eval", i):
            t0 = perf_counter()
            code, err = _cli(["eval", "--model", model, "--data", self.work / "heldout.csv",
                              "--out", metrics])
            seconds += perf_counter() - t0
        if code != 0:
            return seconds, [f"eval exited {code}: {err}"]

        fitted = json.loads(model.read_text(encoding="utf-8"))
        if fitted.get("family") != "askkm":
            failed.append(f"model family {fitted.get('family')!r} != 'askkm'")
        if fitted.get("terminated_by") not in TERMINATIONS:
            failed.append(f"unknown terminated_by {fitted.get('terminated_by')!r}")
        m_ap = json.loads(metrics.read_text(encoding="utf-8")).get("mAP")
        if not (isinstance(m_ap, float) and 0.0 <= m_ap <= 1.0):
            failed.append(f"mAP {m_ap!r} outside [0, 1]")
        else:
            self._maps.append(m_ap)
        digest = _digest(model, metrics)
        if self._digests.setdefault(j, digest) != digest:
            failed.append(f"repeat of pool input {j} wrote different model/metrics bytes")
        return seconds, failed

    def extras(self) -> dict[str, float]:
        return {"eval_map": float(np.mean(self._maps)) if self._maps else float("nan")}


@dataclass
class SemGap:
    """Original vs unbiased `fit_sem` and their `kl_mc` gap, on a
    well-specified and a misspecified dataset per operation."""

    work: Path
    seed: int
    unlabeled: int = 20_000
    mc_samples: int = 50_000
    pool: int = 128
    phases: ClassVar[tuple[str, ...]] = ("gap",)
    bypasses: ClassVar[tuple[str, ...]] = ("kernels", "sskkm", "askkm")
    _datasets: list = field(default_factory=list, init=False, repr=False)
    _gaps: list[float] = field(default_factory=list, init=False, repr=False)

    def setup(self) -> None:
        scenarios = {
            "well_specified": GenSpec(kind="well_specified", class_separation=6.0),
            "misspecified": GenSpec(kind="misspecified", subclusters_per_class=2,
                                    class_separation=5.0, subcluster_separation=8.0),
        }
        self._datasets = []
        for j in range(self.pool):
            seed = derive_seed(self.seed, "gap", j)
            self._datasets.append([
                (kind, generate(replace(spec, n_unlabeled=self.unlabeled,
                                       seed=derive_seed(seed, kind)))[0])
                for kind, spec in scenarios.items()
            ])

    def op(self, i: int, root) -> tuple[float, list[str]]:
        j = i % self.pool
        seed = derive_seed(self.seed, "gap", j)
        results = []
        with root("gap", i):
            t0 = perf_counter()
            for kind, train in self._datasets[j]:
                comp_map = np.arange(train.n_classes)
                fits = [semgmm.fit_sem(train, train.n_classes, comp_map,
                                       SolverOptions(seed=seed, unlabeled_weight_mode=mode))
                        for mode in ("original", "unbiased")]
                gap = semgmm.kl_mc(fits[0], fits[1], self.mc_samples, derive_seed(seed, "kl", kind))
                results.append((kind, fits, gap))
            seconds = perf_counter() - t0

        failed = []
        for kind, fits, gap in results:
            for fit in fits:
                trace = np.asarray(fit.objective_trace)
                slack = 1e-8 * (1.0 + np.abs(trace[:-1]))
                if not np.all(np.diff(trace) >= -slack):
                    failed.append(f"{kind}: EM objective decreased")
            if not (math.isfinite(gap.value) and gap.value >= 0.0):
                failed.append(f"{kind}: KL estimate {gap.value!r} not finite and >= 0")
            elif kind == "misspecified":
                self._gaps.append(gap.value)
        return seconds, failed

    def extras(self) -> dict[str, float]:
        return {"misspecified_gap_nats": float(np.median(self._gaps)) if self._gaps else float("nan")}


@dataclass
class CurveSweep:
    """One `curve` command per operation, cycling over a pool of seeds so a
    seed comes back and its outputs can be compared byte for byte."""

    work: Path
    seed: int
    grid: str = "0,50,100,500,1000"
    seeds: int = 5
    eval_size: int = 500
    pool: int = 32
    methods: ClassVar[str] = "original_sem,unbiased_sem,original_sskkm,askkm"
    phases: ClassVar[tuple[str, ...]] = ("curve",)
    bypasses: ClassVar[tuple[str, ...]] = ()
    _digests: dict[int, str] = field(default_factory=dict, init=False, repr=False)
    _aps: list[float] = field(default_factory=list, init=False, repr=False)

    def setup(self) -> None:
        """Nothing to prepare: each `curve` command generates its own data."""

    def op(self, i: int, root) -> tuple[float, list[str]]:
        j = i % self.pool
        out_json = self.work / f"curve{j}.json"
        out_csv = self.work / f"curve{j}.csv"
        with root("curve", i):
            t0 = perf_counter()
            code, err = _cli(["curve", "--kind", "misspecified", "--class-sep", 5,
                              "--methods", self.methods, "--grid", self.grid,
                              "--seeds", self.seeds, "--eval-size", self.eval_size,
                              "--workers", 2,
                              "--seed", derive_seed(self.seed, "curve", j),
                              "--out-json", out_json, "--out-csv", out_csv])
            seconds = perf_counter() - t0
        if code != 0:
            return seconds, [f"curve exited {code}: {err}"]

        failed = []
        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        expected = len(self.methods.split(",")) * len(self.grid.split(",")) * self.seeds
        if len(rows) != expected:
            failed.append(f"curve CSV has {len(rows)} rows, expected {expected}")
        if not all(0.0 <= float(r[3]) <= 1.0 for r in rows):
            failed.append("curve metric outside [0, 1]")
        series = json.loads(out_json.read_text(encoding="utf-8"))["series"]
        self._aps.append(series["askkm"]["mean"][-1])
        digest = _digest(out_json, out_csv)
        if self._digests.setdefault(j, digest) != digest:
            failed.append(f"repeat of curve seed {j} wrote different bytes")
        return seconds, failed

    def extras(self) -> dict[str, float]:
        return {"curve_ap": float(np.mean(self._aps)) if self._aps else float("nan")}


WORKLOADS = {"askkm_cli": AskkmCli, "sem_gap": SemGap, "curve_sweep": CurveSweep}
