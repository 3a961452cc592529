#!/usr/bin/env python3
"""Measure the divergence between the original- and unbiased-weighted mixture
fits as the unlabeled pool grows, on well-specified and misspecified data.

On misspecified data the gap grows markedly with unlabeled data (the two
weightings pull the fit to different places). On well-specified data the gap
stays small; note that with a fixed labeled budget it levels off at the
unbiased fit's estimation-noise floor (~p/(4*N_l) nats) rather than reaching
zero, because the unbiased weighting caps the effective sample size at twice
the labeled count.

A second table lets the labeled budget grow with the pool: each grid point
N_u is fitted with N_l = N_u / RATIO labeled points, split evenly over the
classes. This tests the asymptotic form of the vanishing-gap claim, in which
both N_l and N_u grow; the floor ~p/(4*N_l) then falls with N_l.

    python scripts/run_gap_experiment.py --grid 50,200,800,2000,8000
"""

import argparse
from dataclasses import replace

import numpy as np

from misspec_ssl.core import SolverOptions, derive_seed
from misspec_ssl.datagen import GenSpec, generate
from misspec_ssl.semgmm import fit_sem, kl_mc

# N_u / N_l at every grid point of the table whose labeled budget grows.
RATIO = 2.5


def labeled_per_class(scenario: GenSpec, nu: int, grow: bool) -> int:
    """The labeled points per class at pool size ``nu``: the scenario's own
    count, or, if ``grow``, N_u / RATIO over the classes (at least one)."""
    if not grow:
        return scenario.n_labeled_per_class
    return max(1, round(nu / (RATIO * scenario.n_classes)))


def gap_medians(scenario: GenSpec, grid, n_seeds, n_mc, base_seed, grow):
    medians = []
    for nu in grid:
        gaps = []
        per_class = labeled_per_class(scenario, nu, grow)
        for si in range(n_seeds):
            seed = derive_seed(base_seed, scenario.kind, si)
            train, _ = generate(replace(scenario, n_unlabeled=nu, n_labeled_per_class=per_class,
                                        seed=seed))
            fits = {}
            for mode in ("original", "unbiased"):
                opts = SolverOptions(seed=si, unlabeled_weight_mode=mode)
                fits[mode] = fit_sem(train, train.n_classes,
                                     np.arange(train.n_classes), opts)
            est = kl_mc(fits["original"], fits["unbiased"], n_mc,
                        derive_seed(base_seed, "kl", scenario.kind, si, nu))
            gaps.append(est.value)
        medians.append(float(np.median(gaps)))
    return medians


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", default="50,200,500,2000")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--mc-samples", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    grid = [int(g) for g in args.grid.split(",")]
    scenarios = {
        "well_specified": GenSpec(kind="well_specified", class_separation=6.0,
                                  n_labeled_per_class=10),
        "misspecified": GenSpec(kind="misspecified", subclusters_per_class=2,
                                class_separation=5.0, subcluster_separation=8.0,
                                n_labeled_per_class=10),
    }
    print("median KL(original fit || unbiased fit) in nats, "
          f"{args.seeds} seeds, {args.mc_samples} MC samples")
    for grow, title in ((False, "labeled budget fixed"),
                        (True, f"labeled budget N_l = N_u / {RATIO}")):
        print(title)
        print("N_u".ljust(8) + "N_l".ljust(8) + "".join(k.ljust(18) for k in scenarios))
        rows = {k: gap_medians(s, grid, args.seeds, args.mc_samples, args.seed, grow)
                for k, s in scenarios.items()}
        for gi, nu in enumerate(grid):
            spec = scenarios["well_specified"]
            n_l = spec.n_classes * labeled_per_class(spec, nu, grow)
            print(str(nu).ljust(8) + str(n_l).ljust(8)
                  + "".join(f"{rows[k][gi]:.4f}".ljust(18) for k in scenarios))

if __name__ == "__main__":
    main()
