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
    _check_weight,
    average_precision,
    fit_method,
    interpolated_precision_points,
    learning_curve,
    load_model,
    mean_ap,
    predict,
)
from .kernels import KernelSpec, gram_matrix

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


def _echo(args: argparse.Namespace) -> dict:
    """The command's resolved settings: every flag but the output paths."""
    return {k: getattr(args, k) for k in args.echo_keys}


def load_model_scores(path: str | Path, x: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Load a fitted model JSON and score query points: scores (Q, C) and the C class names."""
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise InputError(f"model file {path} is not JSON: {exc}") from None
    if not isinstance(d, dict):
        raise InputError(f"model file {path} holds a JSON {type(d).__name__}, not an object")
    try:
        model = load_model(d)
        classes = d["classes"]
    except KeyError as exc:
        raise InputError(f"model file {path} lacks the key {exc}; refit the model") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"model file {path} is malformed: {exc}") from None
    scores = predict(model, x)[1]
    if not (isinstance(classes, list) and all(isinstance(c, str) for c in classes)
            and len(set(classes)) == len(classes) == scores.shape[1]):
        raise InputError(f"model file {path}: classes must list {scores.shape[1]} distinct names")
    return scores, classes


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


def cmd_gen(args: argparse.Namespace) -> int:
    spec = _gen_spec_from_args(args)
    out_data = _check_output_path(args.out_data)
    out_truth = _check_output_path(args.out_truth)
    dataset, truth = generate(spec)
    write_csv(dataset, out_data)
    _dump_json(
        {
            "config": _echo(args),
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


def cmd_fit(args: argparse.Namespace) -> int:
    out_model = _check_output_path(args.out_model)
    out_criterion = _check_output_path(args.out_criterion) if args.out_criterion else None
    family = METHODS[args.method].family
    _check_weight(args.method, args.weight, "--weight")
    if args.components is not None and family != "sem":
        raise InputError(f"--components applies to sem methods only, not to {args.method}")
    askkm_only = {"--threshold": args.threshold, "--k-max": args.k_max,
                  "--out-criterion": args.out_criterion}
    for flag, value in askkm_only.items():
        if value is not None and family != "askkm":
            raise InputError(f"{flag} applies to askkm only, not to {args.method}")
    solver = SolverOptions(max_iter=args.max_iter, tol=args.tol, seed=args.seed)
    askkm = AskkmOptions()
    if family == "askkm":
        askkm = AskkmOptions(
            threshold=args.threshold, k_max=args.k_max, stall_rounds=args.stall_rounds
        )
    dataset, classes = load_csv(args.data)
    echo = _echo(args)

    km = None if family == "sem" else gram_matrix(dataset, _kernel_from_args(args))
    model = fit_method(args.method, dataset, km, solver, args.components, askkm, args.weight)
    if out_criterion:
        _dump_json(
            {"config": echo, "criterion": model.history[-1].report.to_dict()}, out_criterion
        )
    _dump_json({**model.to_dict(), "classes": classes, "config": echo}, out_model)
    print(f"fitted {args.method} (unlabeled weight {model.unlabeled_weight}) -> {out_model}")
    return EXIT_OK


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
    payload["config"] = _echo(args)
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


def cmd_eval(args: argparse.Namespace) -> int:
    out = _check_output_path(args.out)
    dataset, names = load_csv(args.data)
    x = dataset.features[dataset.labeled_idx]
    y = dataset.labels
    scores, classes = load_model_scores(args.model, x)
    unseen = [name for name in names if name not in classes]
    if unseen:
        raise InputError(f"{args.data} holds labels the model never saw: {', '.join(unseen)}")
    per_class = {}
    for c, name in enumerate(classes):  # a model class the file lacks has no AP
        if name not in names:
            continue
        relevance = y == names.index(name)
        entry: dict = {"average_precision": average_precision(scores[:, c], relevance)}
        if args.verbose:
            entry["interpolated_precisions"] = interpolated_precision_points(
                scores[:, c], relevance
            )
        per_class[name] = entry
    payload = {
        "config": _echo(args),
        "per_class": per_class,
        "mAP": mean_ap([entry["average_precision"] for entry in per_class.values()]),
        "n_eval_points": int(x.shape[0]),
    }
    _dump_json(payload, out)
    print(f"mAP = {payload['mAP']:.4f} over {len(per_class)} classes -> {out}")
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
    """An ArgumentParser that records every flag it declares by destination."""

    def __init__(self, *args, **kwargs) -> None:
        self.dests: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs) -> argparse.Action:
        action = super().add_argument(*args, **kwargs)
        self.dests[action.dest] = action
        return action

    def set_command(self, func) -> None:
        """Run ``func`` for this subcommand, echoing every flag declared so
        far except help and the output paths (out*)."""
        echo = sorted(k for k in self.dests if k != "help" and not k.startswith("out"))
        self.set_defaults(func=func, echo_keys=echo)


def _common_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file (flags override)")
    return common


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser. ``defaults`` (the settings of a config file) become the
    defaults of the same-named flags of every subcommand, unconverted, and a
    required flag with a value there is required no more. A key that is no
    flag of any subcommand, or a value whose string form the flag's type
    rejects on the command line, that is no string for a string flag or no
    boolean for a switch, or that is none of its choices, is a usage error
    (exit 2); null passes where the flag's default is None."""
    common = _common_parser()
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
    gen.set_command(cmd_gen)

    fit = sub.add_parser("fit", parents=[common], help="fit a model to a dataset CSV")
    fit.add_argument("--data", required=True)
    fit.add_argument("--method", choices=list(METHODS), required=True)
    _add_kernel_flags(fit)
    _add_solver_flags(fit)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--components", type=int, default=None,
                     help="mixture components for sem methods (default: one per class)")
    fit.add_argument("--weight", type=float, default=None,
                     help="unlabeled weight in [0,1] (overrides the method's weighting; "
                     "not for askkm)")
    fit.add_argument("--threshold", type=int, default=None)
    fit.add_argument("--k-max", type=int, default=None)
    fit.add_argument("--stall-rounds", type=int, default=3)
    fit.add_argument("--out-model", default="model.json")
    fit.add_argument("--out-criterion", default=None)
    fit.set_command(cmd_fit)

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
    curve.set_command(cmd_curve)

    ev = sub.add_parser("eval", parents=[common], help="per-class AP and mAP of a fitted model")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", default="metrics.json")
    ev.add_argument("--verbose", action="store_true")
    ev.set_command(cmd_eval)

    if defaults:
        commands = (gen, fit, curve, ev)
        unknown = sorted(set(defaults).difference(common.dests, *(p.dests for p in commands)))
        if unknown:
            parser.error(f"config keys that are no flag of any command: {', '.join(unknown)}")
        for p in commands:
            for key, value in defaults.items():
                action = p.dests.get(key)
                if action is None or (value is None and action.default is None):
                    continue
                action.required = False
                try:
                    if action.type is not None:
                        action.type(str(value))
                    elif not isinstance(value, str if action.nargs is None else bool):
                        raise ValueError  # a string flag, or a switch (nargs 0)
                    if action.choices is not None and value not in action.choices:
                        raise ValueError
                except ValueError:
                    parser.error(f"config key {key}: {json.dumps(value)} is no valid "
                                 f"{action.option_strings[0]} value")
            p.set_defaults(**defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    config_path, config = _common_parser().parse_known_args(argv)[0].config, {}
    if config_path:
        try:
            config = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
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
    except OSError as exc:  # a missing file or directory, or a directory as a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
