"""Command-line frontend: generate data, fit models, run learning curves,
and evaluate fitted models, emitting JSON/CSV artifacts.

Every command echoes its fully resolved configuration inside its JSON output,
so config echo + seed determine the outputs byte for byte. Every command runs
with BLAS held at one thread (core.one_blas_thread), so no output depends on
the BLAS thread count of the machine. Settings may also
be supplied as a JSON config file (``--config``); explicit flags override it.
Exit codes: 0 success, 2 usage/config error, 3 data/solver input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .askkm import AskkmOptions
from .core import InputError, SolverOptions, one_blas_thread
from .datagen import GenSpec, generate, load_csv, write_csv
from .evalx import (
    METHODS,
    average_precision,
    fit_method,
    interpolated_precision_points,
    learning_curve,
    mean_ap,
    method_solver,
    predict,
)
from .kernels import KernelSpec, cross_matrix, gram_matrix, kernel_diag
from .semgmm import GmmModel
from .sskkm import ClusterModel

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


def _load_model(path: str | Path) -> tuple[GmmModel | ClusterModel, np.ndarray | None]:
    """A fitted model from its JSON file, with the training features of a
    kernel model (None for a mixture)."""
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise InputError(f"model file {path} is not JSON: {exc}") from None
    if not isinstance(d, dict):
        raise InputError(f"model file {path} holds a JSON {type(d).__name__}, not an object")
    family = d.get("family")
    try:
        if family == "sem":
            return GmmModel.from_dict(d), None
        if family == "sskkm":
            return ClusterModel.from_dict(d)
        if family == "askkm":
            return ClusterModel.from_dict(d["final_model"])
    except KeyError as exc:
        raise InputError(f"model file {path} lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"model file {path} is malformed: {exc}") from None
    raise InputError(f"unrecognized model family {family!r} in {path}")


def load_model_scores(path: str | Path, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Load a fitted model JSON and score query points: (scores (Q, C), C)."""
    model, train = _load_model(path)
    dim = model.dim if train is None else train.shape[1]
    if x.shape[1] != dim:
        raise InputError(f"model dimension {dim} != data dimension {x.shape[1]}")
    rows = diag = None
    if train is not None:
        rows = cross_matrix(x, train, model.kernel_spec)
        diag = kernel_diag(x, model.kernel_spec)
    scores = predict(model, x, rows, diag)[1]
    return scores, scores.shape[1]


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


FIT_KEYS = [
    "data", "method", "kernel", "gamma", "distance", "components",
    "max_iter", "tol", "seed", "weight", "threshold", "k_max", "stall_rounds",
]


def cmd_fit(args: argparse.Namespace) -> int:
    out_model = _check_output_path(args.out_model)
    family = METHODS[args.method].family
    if args.weight is not None and family == "askkm":
        raise InputError("--weight does not apply to askkm, which fits both weightings itself")
    if args.components is not None and family != "sem":
        raise InputError(f"--components applies to sem methods only, not to {args.method}")
    askkm_only = {"--threshold": args.threshold, "--k-max": args.k_max,
                  "--out-criterion": args.out_criterion}
    for flag, value in askkm_only.items():
        if value is not None and family != "askkm":
            raise InputError(f"{flag} applies to askkm only, not to {args.method}")
    base = SolverOptions(max_iter=args.max_iter, tol=args.tol, seed=args.seed)
    solver = method_solver(args.method, base, args.weight)
    askkm = AskkmOptions()
    if family == "askkm":
        askkm = AskkmOptions(
            threshold=args.threshold, k_max=args.k_max, stall_rounds=args.stall_rounds
        )
    dataset, _ = load_csv(args.data)
    echo = _echo(args, FIT_KEYS)

    km = None if family == "sem" else gram_matrix(dataset, _kernel_from_args(args))
    model = fit_method(args.method, dataset, km, solver, args.components, askkm)
    payload = model.to_dict() if family == "sem" else model.to_dict(dataset.features)
    if args.out_criterion:
        out_criterion = _check_output_path(args.out_criterion)
        _dump_json(
            {"config": echo, "criterion": model.history[-1].report.to_dict()}, out_criterion
        )

    weight = model.unlabeled_weight
    payload["config"] = echo
    payload["resolved_unlabeled_weight"] = weight
    _dump_json(payload, out_model)
    print(f"fitted {args.method} (unlabeled weight {weight}) -> {out_model}")
    return EXIT_OK


CURVE_KEYS = GEN_KEYS + [
    "methods", "grid", "seeds", "eval_size", "kernel", "gamma", "distance",
    "max_iter", "tol", "workers",
]


def cmd_curve(args: argparse.Namespace) -> int:
    out_json = _check_output_path(args.out_json)
    out_csv = _check_output_path(args.out_csv)
    scenario = _gen_spec_from_args(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        grid = [int(g) for g in args.grid.split(",")]
    except ValueError:
        raise InputError(f"--grid must list integers, got {args.grid!r}") from None
    curve = learning_curve(
        scenario,
        methods,
        grid,
        n_seeds=args.seeds,
        eval_size=args.eval_size,
        base_seed=args.seed,
        kernel=_kernel_from_args(args),
        solver=SolverOptions(max_iter=args.max_iter, tol=args.tol, seed=args.seed),
        workers=args.workers,
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that records the destination of every flag it declares."""

    def __init__(self, *args, **kwargs) -> None:
        self.dests: set[str] = set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs) -> argparse.Action:
        action = super().add_argument(*args, **kwargs)
        self.dests.add(action.dest)
        return action


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser. ``defaults`` (the settings of a config file) become the
    defaults of the same-named flags of every subcommand; a key that is no
    flag of any subcommand is a usage error (exit 2)."""
    common = _Parser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file (flags override)")
    parser = _Parser(
        prog="misspec-ssl",
        description="Semi-supervised generative learners with misspecification "
        "detection and adaptive cluster growth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[common], help="generate a synthetic dataset")
    _add_scenario_flags(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-data", default="dataset.csv")
    gen.add_argument("--out-truth", default="truth.json")
    gen.set_defaults(func=cmd_gen)

    fit = sub.add_parser("fit", parents=[common], help="fit a model to a dataset CSV")
    fit.add_argument("--data", required=True)
    fit.add_argument("--method", choices=list(METHODS), required=True)
    _add_kernel_flags(fit)
    _add_solver_flags(fit)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--components", type=int, default=None,
                     help="mixture components for sem methods (default: one per class)")
    fit.add_argument("--weight", type=float, default=None,
                     help="custom unlabeled weight in [0,1] (overrides the method's mode; "
                     "not for askkm)")
    fit.add_argument("--threshold", type=int, default=None)
    fit.add_argument("--k-max", type=int, default=None)
    fit.add_argument("--stall-rounds", type=int, default=3)
    fit.add_argument("--out-model", default="model.json")
    fit.add_argument("--out-criterion", default=None)
    fit.set_defaults(func=cmd_fit)

    curve = sub.add_parser("curve", parents=[common], help="learning-curve sweep over N_u")
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

    ev = sub.add_parser("eval", parents=[common], help="per-class AP and mAP of a fitted model")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", default="metrics.json")
    ev.add_argument("--verbose", action="store_true")
    ev.set_defaults(func=cmd_eval)

    if defaults:
        commands = (gen, fit, curve, ev)
        unknown = sorted(set(defaults) - common.dests.union(*(p.dests for p in commands)))
        if unknown:
            parser.error(f"config keys that are no flag of any command: {', '.join(unknown)}")
        for p in commands:
            p.set_defaults(**defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(config, dict):
            print("config error: config file must hold a JSON object", file=sys.stderr)
            return EXIT_USAGE
        args = build_parser({k.replace("-", "_"): v for k, v in config.items()}).parse_args(argv)

    if getattr(args, "subclusters", None) is None and hasattr(args, "kind"):
        args.subclusters = 2 if args.kind == "misspecified" else 1
    try:
        with one_blas_thread():
            return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
