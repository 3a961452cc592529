"""Command-line frontend: generate data, fit models, run learning curves,
and evaluate fitted models, emitting JSON/CSV artifacts.

Every command echoes its fully resolved configuration inside its JSON output,
so config echo + seed determine the outputs byte for byte. Settings may also
be supplied as a JSON config file (``--config``); explicit flags override it.
Exit codes: 0 success, 2 usage/config error, 3 data/solver input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .askkm import AskkmModel, AskkmOptions, fit_askkm
from .core import InputError, SolverOptions
from .datagen import GenSpec, generate, load_csv, write_csv
from .evalx import average_precision, interpolated_precision_points, learning_curve, mean_ap
from .kernels import KernelSpec, cross_matrix, gram_matrix, kernel_diag
from .misspec import CriterionReport, LabelMap
from .semgmm import GmmModel, class_posteriors_batch, fit_sem
from .sskkm import Assignments, ClusterModel, fit_sskkm, score_batch

ENV_THREADS = "MISSPEC_SSL_THREADS"

FIT_METHODS = (
    "original_sskkm",
    "unbiased_sskkm",
    "askkm",
    "original_sem",
    "unbiased_sem",
    "supervised_sem",
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3


def _dump_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _check_output_path(path: str) -> Path:
    out = Path(path)
    parent = out.parent if str(out.parent) else Path(".")
    if not parent.is_dir():
        raise FileNotFoundError(f"output directory does not exist: {parent}")
    return out


def _echo(args: argparse.Namespace, keys: list[str]) -> dict:
    return {k: getattr(args, k) for k in keys}


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------


def kernel_spec_to_dict(spec: KernelSpec) -> dict:
    return {"kind": spec.kind, "gamma": spec.gamma, "distance": spec.distance}


def kernel_spec_from_dict(d: dict) -> KernelSpec:
    return KernelSpec(kind=d["kind"], gamma=d["gamma"], distance=d["distance"])


def gmm_to_dict(m: GmmModel) -> dict:
    return {
        "family": "sem",
        "n_components": m.n_components,
        "n_classes": m.n_classes,
        "weights": m.weights.tolist(),
        "means": m.means.tolist(),
        "covariance_type": m.covariance_type,
        "covariances": m.covariances.tolist(),
        "comp_map": m.comp_map.tolist(),
        "unlabeled_weight": m.unlabeled_weight,
        "final_loglik": m.final_loglik,
    }


def gmm_from_dict(d: dict) -> GmmModel:
    return GmmModel(
        weights=np.asarray(d["weights"]),
        means=np.asarray(d["means"]),
        covariances=np.asarray(d["covariances"]),
        comp_map=np.asarray(d["comp_map"]),
        n_classes=d["n_classes"],
        covariance_type=d["covariance_type"],
        unlabeled_weight=d["unlabeled_weight"],
        final_loglik=d["final_loglik"],
    )


def label_map_to_dict(lm: LabelMap) -> dict:
    return {
        "fine_to_class": lm.fine_to_class.tolist(),
        "fine_of_point": lm.fine_of_point.tolist(),
        "n_classes": lm.n_classes,
    }


def cluster_model_to_dict(m: ClusterModel, train_features: np.ndarray) -> dict:
    return {
        "family": "sskkm",
        "n_clusters": m.n_clusters,
        "assignments": m.assignments.cluster_of.tolist(),
        "label_map": label_map_to_dict(m.label_map),
        "unlabeled_weight": m.unlabeled_weight,
        "objective": m.objective,
        "kernel": kernel_spec_to_dict(m.kernel_spec),
        "iterations_run": m.iterations_run,
        "converged": m.converged,
        "point_weights": m.point_weights.tolist(),
        "cluster_wsum": m.cluster_wsum.tolist(),
        "cluster_inner": m.cluster_inner.tolist(),
        "training_features": np.asarray(train_features).tolist(),
    }


def criterion_to_dict(r: CriterionReport) -> dict:
    return {
        "disagreements": r.disagreements,
        "n_labeled": r.n_labeled,
        "threshold": r.threshold,
        "misspecified": r.misspecified,
        "disagreeing_points": [list(p) for p in r.disagreeing_points],
    }


def askkm_to_dict(m: AskkmModel, train_features: np.ndarray) -> dict:
    return {
        "family": "askkm",
        "final_model": cluster_model_to_dict(m.final_model, train_features),
        "label_map": label_map_to_dict(m.label_map),
        "rounds": m.rounds,
        "terminated_by": m.terminated_by,
        "history": [
            {
                "n_clusters": rec.n_clusters,
                "criterion": criterion_to_dict(rec.report),
                "objective_original": rec.objective_original,
                "objective_unbiased": rec.objective_unbiased,
            }
            for rec in m.history
        ],
    }


def _cluster_model_from_dict(d: dict) -> tuple[ClusterModel, np.ndarray]:
    missing = [k for k in ("cluster_wsum", "cluster_inner") if k not in d]
    if missing:
        raise InputError(f"model JSON lacks {' and '.join(missing)}; refit the model")
    lmd = d["label_map"]
    lm = LabelMap(
        fine_to_class=np.asarray(lmd["fine_to_class"]),
        fine_of_point=np.asarray(lmd["fine_of_point"]),
        n_classes=lmd["n_classes"],
    )
    train = np.asarray(d["training_features"])
    cluster_of = np.asarray(d["assignments"])
    model = ClusterModel(
        assignments=Assignments(cluster_of=cluster_of, n_clusters=d["n_clusters"]),
        label_map=lm,
        unlabeled_weight=d["unlabeled_weight"],
        objective=d["objective"],
        kernel_spec=kernel_spec_from_dict(d["kernel"]),
        iterations_run=d["iterations_run"],
        converged=d["converged"],
        point_weights=np.asarray(d["point_weights"]),
        cluster_wsum=np.asarray(d["cluster_wsum"]),
        cluster_inner=np.asarray(d["cluster_inner"]),
    )
    return model, train


def load_model_scores(path: str | Path, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Load a fitted model JSON and score query points: (scores (Q, C), C)."""
    d = json.loads(Path(path).read_text(encoding="utf-8"))
    family = d.get("family")
    if family == "sem":
        m = gmm_from_dict(d)
        if x.shape[1] != m.dim:
            raise InputError(f"model dimension {m.dim} != data dimension {x.shape[1]}")
        return class_posteriors_batch(m, x), m.n_classes
    if family in ("sskkm", "askkm"):
        model, train = _cluster_model_from_dict(d if family == "sskkm" else d["final_model"])
        if x.shape[1] != train.shape[1]:
            raise InputError(
                f"model dimension {train.shape[1]} != data dimension {x.shape[1]}"
            )
        rows = cross_matrix(x, train, model.kernel_spec)
        return score_batch(model, rows, kernel_diag(x, model.kernel_spec)), model.label_map.n_classes
    raise InputError(f"unrecognized model family {family!r} in {path}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _gen_spec_from_args(args: argparse.Namespace) -> GenSpec:
    return GenSpec(
        kind=args.kind,
        n_classes=args.classes,
        dim=args.dim,
        subclusters_per_class=args.subclusters,
        class_separation=args.class_sep,
        subcluster_separation=args.subcluster_sep,
        n_labeled_per_class=args.labeled_per_class,
        n_unlabeled=args.unlabeled,
        seed=args.seed,
    )


GEN_KEYS = [
    "kind", "classes", "dim", "subclusters", "class_sep", "subcluster_sep",
    "labeled_per_class", "unlabeled", "seed",
]


def cmd_gen(args: argparse.Namespace) -> int:
    spec = _gen_spec_from_args(args)
    out_data = _check_output_path(args.out_data)
    out_truth = _check_output_path(args.out_truth)
    dataset, truth = generate(spec)
    write_csv(dataset, out_data)
    _dump_json(
        {
            "config": _echo(args, GEN_KEYS),
            "component_means": truth.component_means.tolist(),
            "component_class": truth.component_class.tolist(),
            "variance": truth.variance,
            "true_labels": truth.true_labels.tolist(),
            "true_component": truth.true_component.tolist(),
        },
        out_truth,
    )
    print(
        f"generated N={dataset.n_points} (N_l={dataset.n_labeled}, "
        f"N_u={dataset.n_unlabeled}) C={spec.n_classes} "
        f"K_true={spec.n_classes * spec.subclusters_per_class} -> {out_data}, {out_truth}"
    )
    return EXIT_OK


def _kernel_from_args(args: argparse.Namespace) -> KernelSpec:
    return KernelSpec(kind=args.kernel, gamma=args.gamma, distance=args.distance)


def _solver_from_args(args: argparse.Namespace, mode: str, weight: float | None) -> SolverOptions:
    return SolverOptions(
        max_iter=args.max_iter,
        tol=args.tol,
        seed=args.seed,
        unlabeled_weight_mode=mode,
        custom_weight=weight,
    )


FIT_KEYS = [
    "data", "method", "kernel", "gamma", "distance", "components",
    "max_iter", "tol", "seed", "weight", "threshold", "k_max", "stall_rounds",
]


def cmd_fit(args: argparse.Namespace) -> int:
    out_model = _check_output_path(args.out_model)
    dataset, _ = load_csv(args.data)
    echo = _echo(args, FIT_KEYS)

    def solver_for(mode: str) -> SolverOptions:
        if args.weight is not None:
            return _solver_from_args(args, "custom", args.weight)
        if mode == "supervised":
            return _solver_from_args(args, "custom", 0.0)
        return _solver_from_args(args, mode, None)

    if args.method in ("original_sem", "unbiased_sem", "supervised_sem"):
        opts = solver_for(args.method.replace("_sem", ""))
        k = args.components if args.components else dataset.n_classes
        comp_map = np.arange(k) % dataset.n_classes
        model = fit_sem(dataset, k, comp_map, opts)
        weight = model.unlabeled_weight
        payload = gmm_to_dict(model)
    elif args.method in ("original_sskkm", "unbiased_sskkm"):
        opts = solver_for(args.method.replace("_sskkm", ""))
        km = gram_matrix(dataset, _kernel_from_args(args))
        lm = LabelMap.identity(dataset.labels, dataset.n_classes)
        fitted = fit_sskkm(km, dataset, lm, dataset.n_classes, opts)
        weight = fitted.unlabeled_weight
        payload = cluster_model_to_dict(fitted, dataset.features)
    else:
        opts = AskkmOptions(
            threshold=args.threshold,
            k_max=args.k_max,
            stall_rounds=args.stall_rounds,
            solver=_solver_from_args(args, "original", None),
        )
        km = gram_matrix(dataset, _kernel_from_args(args))
        model = fit_askkm(km, dataset, opts)
        weight = model.final_model.unlabeled_weight
        payload = askkm_to_dict(model, dataset.features)
        if args.out_criterion:
            out_criterion = _check_output_path(args.out_criterion)
            _dump_json(
                {"config": echo, "criterion": criterion_to_dict(model.history[-1].report)},
                out_criterion,
            )

    payload["config"] = echo
    payload["resolved_unlabeled_weight"] = weight
    _dump_json(payload, out_model)
    print(f"fitted {args.method} (unlabeled weight {weight}) -> {out_model}")
    return EXIT_OK


CURVE_KEYS = GEN_KEYS + [
    "methods", "grid", "seeds", "eval_size", "kernel", "gamma", "distance",
    "max_iter", "tol", "workers",
]


def _resolve_workers(requested: int) -> int:
    cap = os.environ.get(ENV_THREADS)
    if cap is not None:
        try:
            return max(1, min(requested, int(cap)))
        except ValueError:
            raise InputError(f"{ENV_THREADS} must be an integer, got {cap!r}") from None
    return max(1, requested)


def cmd_curve(args: argparse.Namespace) -> int:
    out_json = _check_output_path(args.out_json)
    out_csv = _check_output_path(args.out_csv)
    scenario = _gen_spec_from_args(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    grid = [int(g) for g in args.grid.split(",")]
    curve = learning_curve(
        scenario,
        methods,
        grid,
        n_seeds=args.seeds,
        eval_size=args.eval_size,
        base_seed=args.seed,
        kernel=_kernel_from_args(args),
        solver=SolverOptions(max_iter=args.max_iter, tol=args.tol, seed=args.seed),
        workers=_resolve_workers(args.workers),
    )
    payload = curve.to_json_dict()
    payload["config"] = _echo(args, CURVE_KEYS)
    _dump_json(payload, out_json)
    with open(out_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "n_unlabeled", "seed", "metric"])
        for row in curve.csv_rows():
            writer.writerow([row[0], row[1], row[2], repr(row[3])])
    for m in curve.methods:
        print(f"{m}: {curve.metric_name}@N_u={curve.n_unlabeled_grid[-1]} "
              f"= {curve.mean[m][-1]:.4f} (std {curve.std[m][-1]:.4f})")
    return EXIT_OK


EVAL_KEYS = ["model", "data", "verbose"]


def cmd_eval(args: argparse.Namespace) -> int:
    out = _check_output_path(args.out)
    dataset, names = load_csv(args.data)
    if dataset.n_labeled == 0:
        raise InputError("evaluation data has no labeled rows")
    x = dataset.features[dataset.labeled_idx]
    y = dataset.labels
    scores, n_classes = load_model_scores(args.model, x)
    per_class = {}
    aps = []
    for c in range(n_classes):
        relevance = y == c
        if not relevance.any():
            continue
        entry: dict = {"average_precision": average_precision(scores[:, c], relevance)}
        if args.verbose:
            entry["interpolated_precisions"] = interpolated_precision_points(
                scores[:, c], relevance
            )
        name = names[c] if c < len(names) else str(c)
        per_class[name] = entry
        aps.append(entry["average_precision"])
    payload = {
        "config": _echo(args, EVAL_KEYS),
        "per_class": per_class,
        "mAP": mean_ap(aps),
        "n_eval_points": int(x.shape[0]),
    }
    _dump_json(payload, out)
    print(f"mAP = {payload['mAP']:.4f} over {len(aps)} classes -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=["well_specified", "misspecified"], default="well_specified")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--subclusters", type=int, default=None,
                   help="subclusters per class (default: 1 well_specified, 2 misspecified)")
    p.add_argument("--class-sep", type=float, default=6.0)
    p.add_argument("--subcluster-sep", type=float, default=8.0)
    p.add_argument("--labeled-per-class", type=int, default=10)
    p.add_argument("--unlabeled", type=int, default=100)


def _add_kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", choices=["linear", "rbf", "generalized_rbf"], default="rbf")
    p.add_argument("--gamma", type=float, default=None,
                   help="bandwidth; default: median heuristic")
    p.add_argument("--distance", choices=["euclidean", "manhattan", "chi_square"],
                   default="euclidean")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iter", type=int, default=300)
    p.add_argument("--tol", type=float, default=1e-7)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misspec-ssl",
        description="Semi-supervised generative learners with misspecification "
        "detection and adaptive cluster growth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--config", default=None, help="JSON config file (flags override)")
    _add_scenario_flags(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-data", default="dataset.csv")
    gen.add_argument("--out-truth", default="truth.json")
    gen.set_defaults(func=cmd_gen)

    fit = sub.add_parser("fit", help="fit a model to a dataset CSV")
    fit.add_argument("--config", default=None)
    fit.add_argument("--data", required=True)
    fit.add_argument("--method", choices=list(FIT_METHODS), required=True)
    _add_kernel_flags(fit)
    _add_solver_flags(fit)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--components", type=int, default=None,
                     help="mixture components for sem methods (default: one per class)")
    fit.add_argument("--weight", type=float, default=None,
                     help="custom unlabeled weight in [0,1] (overrides the method's mode)")
    fit.add_argument("--threshold", type=int, default=None)
    fit.add_argument("--k-max", type=int, default=None)
    fit.add_argument("--stall-rounds", type=int, default=3)
    fit.add_argument("--out-model", default="model.json")
    fit.add_argument("--out-criterion", default=None)
    fit.set_defaults(func=cmd_fit)

    curve = sub.add_parser("curve", help="learning-curve sweep over N_u")
    curve.add_argument("--config", default=None)
    _add_scenario_flags(curve)
    _add_kernel_flags(curve)
    _add_solver_flags(curve)
    curve.add_argument("--methods", default="original_sem,unbiased_sem,askkm")
    curve.add_argument("--grid", default="0,50,100,500,1000")
    curve.add_argument("--seeds", type=int, default=5)
    curve.add_argument("--eval-size", type=int, default=500)
    curve.add_argument("--seed", type=int, default=0)
    curve.add_argument("--workers", type=int, default=1)
    curve.add_argument("--out-json", default="curve.json")
    curve.add_argument("--out-csv", default="curve.csv")
    curve.set_defaults(func=cmd_curve)

    ev = sub.add_parser("eval", help="per-class AP and mAP of a fitted model")
    ev.add_argument("--config", default=None)
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", default="metrics.json")
    ev.add_argument("--verbose", action="store_true")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)

    parser = build_parser()
    if known.config:
        try:
            config = json.loads(Path(known.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(config, dict):
            print("config error: config file must hold a JSON object", file=sys.stderr)
            return EXIT_USAGE
        defaults = {k.replace("-", "_"): v for k, v in config.items()}
        parser.set_defaults(**defaults)
        for action in parser._subparsers._group_actions:
            for sub in action.choices.values():
                sub.set_defaults(**defaults)

    args = parser.parse_args(argv)
    if getattr(args, "subclusters", None) is None and hasattr(args, "kind"):
        args.subclusters = 2 if args.kind == "misspecified" else 1
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
