"""Command-line interface.

Subcommands: disc, minimize, rademacher, bounds, exp1, exp2. Results go to
stdout as JSON; experiment curves go to --out as CSV (with a sibling
.trials.csv holding per-trial rows). Exit codes: 0 success, 2 input error,
3 solver non-convergence.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import BOUND_REGISTRY, bound_value
from .core import KernelBounded, LinearBounded, Threshold1D
from .distance import (
    DirectionWitness,
    IntervalWitness,
    RegionWitness,
    disc_01_threshold1d,
    disc_l2_kernel,
    disc_l2_linear,
    joint_support,
    rademacher_montecarlo,
    rademacher_threshold1d_exact,
)
from .experiments import (
    EXP2_ETA0,
    ExperimentConfig,
    run_experiment_1,
    run_experiment_2,
    write_curve_csv,
    write_trials_csv,
)
from .linalg import GaussianKernel, LinearKernel, gram_matrix
from .reweight import (
    SolverConfig,
    minimize_1d,
    minimize_l2_kernel,
    minimize_l2_linear,
)
from .sample_io import read_sample_csv, to_weighted

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3


def parse_kernel(text: str):
    """Kernel flag values: 'linear' or 'gaussian:<gamma>'."""
    if text == "linear":
        return LinearKernel()
    if text.startswith("gaussian:"):
        try:
            gamma = float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"could not parse gaussian kernel width in {text!r}") from None
        return GaussianKernel(gamma=gamma)
    raise ValueError(f"unknown kernel {text!r}; expected linear or gaussian:<gamma>")


def _witness_json(witness):
    if isinstance(witness, IntervalWitness):
        return {
            "kind": "interval",
            "lo": None if np.isinf(witness.lo) else witness.lo,
            "hi": None if np.isinf(witness.hi) else witness.hi,
        }
    if isinstance(witness, RegionWitness):
        return {"kind": "region", "points": [list(p) for p in witness.points]}
    if isinstance(witness, DirectionWitness):
        return {"kind": "direction", "vector": [float(v) for v in witness.vector]}
    raise TypeError(f"unknown witness type {type(witness).__name__}")


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_pair(args):
    q = to_weighted(read_sample_csv(args.source))
    p = to_weighted(read_sample_csv(args.target))
    return q, p


def _solver_config(args) -> SolverConfig:
    return SolverConfig(max_iters=args.max_iters, tol=args.tol)


def _cmd_disc(args) -> int:
    q, p = _load_pair(args)
    if args.loss == "zeroone":
        if args.hypothesis != "threshold1d":
            raise ValueError("zero-one discrepancy supports --hypothesis threshold1d only")
        result = disc_01_threshold1d(q, p)
    elif args.hypothesis == "linear":
        result = disc_l2_linear(q, p)
    elif args.hypothesis == "kernel":
        kernel = parse_kernel(args.kernel)
        points, _, _ = joint_support(q, p)
        result = disc_l2_kernel(q, p, gram_matrix(points, kernel))
    else:
        raise ValueError("l2 discrepancy supports --hypothesis linear or kernel")
    _emit({"value": result.value, "witness": _witness_json(result.witness)})
    return EXIT_OK


def _cmd_minimize(args) -> int:
    q, p = _load_pair(args)
    if args.loss == "zeroone":
        if q.dim != 1:
            raise ValueError("zero-one minimization supports 1-d samples only")
        result = minimize_1d(q, p)
    elif args.hypothesis == "kernel":
        kernel = parse_kernel(args.kernel)
        points, _, _ = joint_support(q, p)
        result = minimize_l2_kernel(q, p, gram_matrix(points, kernel), _solver_config(args))
    else:
        result = minimize_l2_linear(q, p, _solver_config(args))
    _emit(
        {
            "weights": [float(w) for w in result.weights.entries],
            "achieved_disc": result.achieved_disc,
            "lower_bound": result.lower_bound,
            "converged": result.converged,
            "warnings": list(result.warnings),
        }
    )
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _cmd_rademacher(args) -> int:
    sample = read_sample_csv(args.sample)
    if args.hypothesis == "threshold1d":
        if sample.dim != 1:
            raise ValueError("threshold1d expects 1-d points")
        estimate = rademacher_threshold1d_exact(
            sample.points, trials=args.trials, seed=args.seed
        )
    elif args.hypothesis == "linear":
        estimate = rademacher_montecarlo(
            LinearBounded(sample.dim), sample.points, trials=args.trials, seed=args.seed
        )
    else:
        kernel = parse_kernel(args.kernel)
        gram = gram_matrix(sample.points, kernel)
        estimate = rademacher_montecarlo(
            KernelBounded(gram.data), sample.points, trials=args.trials, seed=args.seed
        )
    _emit(
        {
            "value": estimate.value,
            "stderr": estimate.stderr,
            "trials": estimate.trials,
            "exact": estimate.exact,
        }
    )
    return EXIT_OK


def _cmd_bounds(args) -> int:
    inputs = {}
    for token in args.assignments:
        name, sep, raw = token.partition("=")
        if not sep or not name:
            raise ValueError(f"expected name=value, got {token!r}")
        try:
            inputs[name] = float(raw)
        except ValueError:
            raise ValueError(f"could not parse value in {token!r}") from None
    report = bound_value(args.name, **inputs)
    _emit({"name": report.name, "value": report.value, "inputs": report.inputs})
    return EXIT_OK


def _m_values(args):
    if args.m_grid:
        try:
            values = [int(tok) for tok in args.m_grid.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"could not parse --m-grid {args.m_grid!r}") from None
        if not values:
            raise ValueError("--m-grid must list at least one sample size")
        return values
    return None


def _emit_record(record, out_path) -> None:
    if out_path:
        write_curve_csv(record, out_path)
        write_trials_csv(record, _trials_path(out_path))
    _emit(
        {
            "summaries": [
                {
                    "m": row.m,
                    "variant": row.variant,
                    "metric": row.metric,
                    "mean": row.mean,
                    "std": row.std,
                }
                for row in record.summary_rows
            ],
            "trials": record.config.trials,
            "seed": record.config.seed,
            "out": out_path,
        }
    )


def _trials_path(out_path: str) -> str:
    stem = out_path[:-4] if out_path.endswith(".csv") else out_path
    return stem + ".trials.csv"


def _cmd_exp1(args) -> int:
    cfg = ExperimentConfig(
        experiment="exp1",
        m=args.m,
        n=args.n,
        dim=1,
        seed=args.seed,
        trials=args.trials,
        out_path=args.out,
    )
    record = run_experiment_1(cfg, m_values=_m_values(args))
    _emit_record(record, args.out)
    return EXIT_OK


def _cmd_exp2(args) -> int:
    cfg = ExperimentConfig(
        experiment="exp2",
        m=args.m,
        n=args.n,
        dim=args.n_dim,
        seed=args.seed,
        trials=args.trials,
        lam=args.lam,
        out_path=args.out,
    )
    solver = SolverConfig(max_iters=args.max_iters, eta0=EXP2_ETA0, tol=args.tol)
    record = run_experiment_2(cfg, m_values=_m_values(args), solver=solver)
    _emit_record(record, args.out)
    return EXIT_OK


def _add_solver_flags(parser: argparse.ArgumentParser, default_iters: int = 2000) -> None:
    parser.add_argument("--max-iters", type=int, default=default_iters)
    parser.add_argument("--tol", type=float, default=1e-6)


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=100, help="labeled sample size")
    parser.add_argument("--n", type=int, default=None, help="unlabeled size (default 10*m)")
    parser.add_argument("--m-grid", default=None, help="comma-separated m values")
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="curve CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discrep",
        description="Discrepancy distances, sample reweighting, bounds, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    disc = sub.add_parser("disc", help="discrepancy between two sample files")
    disc.add_argument("source")
    disc.add_argument("target")
    disc.add_argument("--loss", choices=("zeroone", "l2"), required=True)
    disc.add_argument(
        "--hypothesis", choices=("threshold1d", "linear", "kernel"), default="linear"
    )
    disc.add_argument("--kernel", default="linear")
    disc.set_defaults(func=_cmd_disc)

    minimize = sub.add_parser("minimize", help="reweight the source to minimize discrepancy")
    minimize.add_argument("source")
    minimize.add_argument("target")
    minimize.add_argument("--loss", choices=("zeroone", "l2"), required=True)
    minimize.add_argument(
        "--hypothesis", choices=("threshold1d", "linear", "kernel"), default="linear"
    )
    minimize.add_argument("--kernel", default="linear")
    _add_solver_flags(minimize)
    minimize.set_defaults(func=_cmd_minimize)

    rad = sub.add_parser("rademacher", help="empirical Rademacher complexity of a sample")
    rad.add_argument("sample")
    rad.add_argument(
        "--hypothesis", choices=("threshold1d", "linear", "kernel"), default="threshold1d"
    )
    rad.add_argument("--kernel", default="linear")
    rad.add_argument("--trials", type=int, default=1000)
    rad.add_argument("--seed", type=int, default=0)
    rad.set_defaults(func=_cmd_rademacher)

    bounds = sub.add_parser("bounds", help="evaluate a named bound formula")
    bounds.add_argument("name", choices=sorted(BOUND_REGISTRY))
    bounds.add_argument("assignments", nargs="*", metavar="name=value")
    bounds.set_defaults(func=_cmd_bounds)

    exp1 = sub.add_parser("exp1", help="shifted-Gaussian threshold benchmark")
    _add_experiment_flags(exp1)
    exp1.set_defaults(func=_cmd_exp1)

    exp2 = sub.add_parser("exp2", help="mirrored-cloud ridge benchmark")
    _add_experiment_flags(exp2)
    exp2.add_argument("--n-dim", type=int, choices=(2, 16), default=2)
    exp2.add_argument("--lambda", dest="lam", type=float, default=0.1)
    exp2.add_argument("--max-iters", type=int, default=600)
    exp2.add_argument("--tol", type=float, default=1e-6)
    exp2.set_defaults(func=_cmd_exp2)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
