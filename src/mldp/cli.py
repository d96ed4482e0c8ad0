"""Command-line interface.

Subcommands: sensitivity, publish, answer, bench, bounds.  Every
command validates its inputs and exits nonzero with a diagnostic on
stderr when given bad files or parameters.  The command line only
accepts finite positive epsilon: the library's noise-disabled
infinite-epsilon test mode is deliberately unreachable from here.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bench import ExperimentConfig, _report_format, emit_report, run_sweep
from .histogram import load_histogram_csv
from .learning import load_model, predict, save_model
from .mechanisms import InsufficientBudgetError, PrivacyBudget
from .pipeline import (
    BoundParameters,
    MldpConfig,
    mldp_publish,
    total_error_bound,
)
from .workload import load_workload_csv, workload_sensitivity

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mldp",
        description=(
            "Differentially private data publishing: release a regression model "
            "trained on noisy query answers, then answer unlimited queries from it."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sensitivity", help="joint L1 sensitivity of a workload CSV")
    p.add_argument("workload", help="workload CSV (kind,lo,hi,coeffs)")

    p = sub.add_parser("publish", help="train and save a private model")
    p.add_argument("histogram", help="histogram CSV (label,count)")
    p.add_argument("--config", required=True, help="publish config JSON")
    p.add_argument("--out", required=True, help="output model JSON path")

    p = sub.add_parser("answer", help="answer a workload from a saved model")
    p.add_argument("model", help="model JSON written by publish")
    p.add_argument("workload", help="workload CSV (kind,lo,hi,coeffs)")

    p = sub.add_parser("bench", help="run a benchmark sweep")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--out", required=True, help="report path (.csv or .json)")

    p = sub.add_parser("bounds", help="closed-form accuracy bounds")
    p.add_argument("--n", type=float, required=True, help="max records per answer")
    p.add_argument("--h", type=float, required=True, help="hypothesis-class size")
    p.add_argument("--beta", type=float, required=True, help="per-bound failure probability")
    p.add_argument("--m", type=int, required=True, help="training-set size")
    p.add_argument("--s", type=float, required=True, help="training workload sensitivity")
    p.add_argument("--eps", type=float, required=True, help="privacy budget epsilon")

    return parser


def _require_finite_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be finite and positive")


def _read_json(path: str):
    """The document in a JSON config file; ValueError naming the path if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def _cmd_sensitivity(args) -> int:
    workload = load_workload_csv(args.workload)
    print(workload_sensitivity(workload))
    return 0


def _cmd_publish(args) -> int:
    hist = load_histogram_csv(args.histogram)
    config = MldpConfig.from_dict(_read_json(args.config))
    _require_finite_epsilon(config.epsilon)
    budget = PrivacyBudget(config.epsilon)
    model = mldp_publish(hist, config, budget)
    save_model(model, args.out)
    print(
        f"published {config.learner} model over d={model.d} to {args.out} "
        f"(epsilon={config.epsilon}, training_m={model.meta.training_m}, "
        f"sensitivity={model.meta.sensitivity})"
    )
    return 0


def _cmd_answer(args) -> int:
    model = load_model(args.model)
    workload = load_workload_csv(args.workload)
    answers = predict(model, workload)
    lines = "".join(f"{i},{value!r}\n" for i, value in enumerate(answers.tolist()))
    print("query_id,answer\n" + lines, end="")
    return 0


def _cmd_bench(args) -> int:
    config = ExperimentConfig.from_dict(_read_json(args.config))
    _report_format(args.out)  # refuse an unusable path before the sweep runs
    report = run_sweep(config)
    emit_report(report, args.out)
    print(
        f"wrote {config.sweep_variable} sweep over {len(config.grid)} grid points, "
        f"{config.trials} trials, mechanisms {', '.join(config.mechanisms)} to {args.out}"
    )
    return 0


def _cmd_bounds(args) -> int:
    _require_finite_epsilon(args.eps)
    params = BoundParameters(
        n_records=args.n,
        hypothesis_count=args.h,
        beta=args.beta,
        m=args.m,
        sensitivity=args.s,
        epsilon=args.eps,
    )
    bound = total_error_bound(params)
    print(f"alpha_model={bound.alpha_model!r}")
    print(f"alpha_noise={bound.alpha_noise!r}")
    print(f"beta_total={bound.beta_total!r}")
    return 0


_COMMANDS = {
    "sensitivity": _cmd_sensitivity,
    "publish": _cmd_publish,
    "answer": _cmd_answer,
    "bench": _cmd_bench,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, InsufficientBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
