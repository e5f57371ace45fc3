"""Command-line interface.

Subcommands: fit, relax, tune, precision, gen, bench.  Exit codes:
0 success, 2 invalid arguments, 3 solver non-convergence, numerical fault
or enumeration cap, 4 I/O error.  Every JSON output embeds the resolved configuration so
results are reproducible from the output file alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bench import run_benchmark
from .core import ProblemSpec, normalize_columns
from .data_io import load_dataset_csv, load_matrix_csv, save_dataset_csv
from .errors import (
    EnumerationCapError,
    InvalidArgumentError,
    NumericalError,
    SparseRidgeError,
)
from .extensions import decode_omega, gcv_select, precision_to_regression
from .methods import METHODS, fit
from .relaxation import big_m, solve_v1, solve_v2_perspective, solve_v3, solve_v4
from .synthetic import SyntheticConfig, generate_synthetic

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load(args) -> ProblemSpec:
    data = load_dataset_csv(
        args.input, response=args.response_col, header=args.header
    )
    if getattr(args, "normalize", False):
        data = normalize_columns(data)
    return ProblemSpec(data=data, lam=args.lam, k=args.k)


def _convert(kind, value, name: str):
    """``kind(value)``; InvalidArgumentError naming ``name`` when that fails."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"{name} is not a number: {value!r}") from None


def _config_dict(args, skip=("func",)) -> dict:
    return {k: v for k, v in vars(args).items() if k not in skip}


def cmd_fit(args) -> int:
    spec = _load(args)
    # Only the flags given are passed: the method supplies its own defaults
    # and rejects an option it does not take (exit 2).
    options = {name: getattr(args, name) for name in ("delta", "trials", "seed")
               if getattr(args, name) is not None}
    est = fit(spec, args.method, **options)
    _write_json(args.out, {
        "config": _config_dict(args),
        "objective": est.objective,
        "support": list(est.support),
        "beta": est.beta.tolist(),
    })
    return EXIT_OK


def cmd_relax(args) -> int:
    spec = _load(args)
    if args.which in ("v1", "v3"):
        M = big_m(spec, v_upper=args.vupper)
        sol = solve_v1(spec, M) if args.which == "v1" else solve_v3(spec, M)
    elif args.vupper is not None:  # only the big-M bounds read a level
        raise InvalidArgumentError(f"relax --which {args.which} takes no --vupper (v1, v3 do)")
    else:
        sol = solve_v2_perspective(spec) if args.which == "v2" else solve_v4(spec)
    payload = {"config": _config_dict(args)}
    payload.update(sol.to_json_dict())
    _write_json(args.out, payload)
    return EXIT_OK if sol.converged else EXIT_SOLVER


def cmd_tune(args) -> int:
    data = load_dataset_csv(
        args.input, response=args.response_col, header=args.header
    )
    grid = [_convert(float, g, "grid value") for g in args.grid.split(",") if g.strip()]
    report = gcv_select(data, k=args.k, grid=grid, method=args.method)
    payload = {"config": _config_dict(args)}
    payload.update(report.to_json_dict())
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_precision(args) -> int:
    sigma = load_matrix_csv(args.input)
    mapping = precision_to_regression(sigma, lam=args.lam, k=args.k)
    est = fit(mapping.spec, args.method)
    omega = decode_omega(est.beta, mapping)
    cells = [[int(i % mapping.t), int(i // mapping.t)] for i in est.support]
    _write_json(args.out, {
        "config": _config_dict(args),
        "omega": omega.tolist(),
        "support_cells": cells,
        "objective_matrix_form": mapping.matrix_objective(omega),
        "objective_induced": est.objective,
    })
    return EXIT_OK


def cmd_gen(args) -> int:
    config = SyntheticConfig(
        n=args.n, p=args.p, k_true=args.ktrue, rho=args.rho,
        snr=args.snr, seed=args.seed,
    )
    data, beta0, support, sigma_sq = generate_synthetic(config)
    save_dataset_csv(data, args.out, header=args.header)
    if args.truth:
        _write_json(args.truth, {
            "config": config.to_json_dict(),
            "true_support": list(support),
            "true_beta": beta0.tolist(),
            "sigma_sq": sigma_sq,
        })
    return EXIT_OK


# Numeric bench config keys and the run_benchmark parameters they set.
_BENCH_NUMBERS = {"reps": "reps", "seed": "seed", "rho": "rho", "snr": "snr", "lambda": "lam"}


def cmd_bench(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict) or not {"cells", "methods"} <= config.keys():
        raise InvalidArgumentError('benchmark config must be an object with "cells" and "methods"')
    # Only the keys given are passed: run_benchmark holds the defaults and
    # checks ranges; here a count must be a JSON integer and the rest numbers.
    options = {}
    for key, name in _BENCH_NUMBERS.items():
        if key in config:
            value, count = config[key], name in ("reps", "seed")
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or count and not float(value).is_integer()):
                kind = "an integer" if count else "a number"
                raise InvalidArgumentError(f'"{key}" must be {kind}, got {value!r}')
            options[name] = value
    report = run_benchmark(
        cells=config["cells"],
        methods=config["methods"],
        time_budget=config.get("time_budget"),
        method_options=config.get("method_options"),
        **options,
    )
    report.to_csv(args.out)
    for agg in report.aggregates():
        print(json.dumps(agg))
    return EXIT_OK


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV file")
    p.add_argument("--response-col", default="last",
                   help="response column: 'last', an index, or a header name")
    p.add_argument("--header", action="store_true",
                   help="the CSV file has a header row")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseridge",
        description="Sparse (L0-constrained) ridge regression solvers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a k-sparse ridge estimator")
    _add_data_args(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=sorted(METHODS), required=True)
    p.add_argument("--delta", type=float, default=None,
                   help="bisection tolerance (heuristic, default 1e-6) or "
                        "candidate threshold (restricted, default 0.01)")
    p.add_argument("--trials", type=int, default=None,
                   help="rounding draws (randomized, default 100)")
    p.add_argument("--seed", type=int, default=None,
                   help="rounding seed (randomized, default 0)")
    p.add_argument("--normalize", action="store_true",
                   help="rescale columns to squared norm n before fitting")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("relax", help="solve a continuous relaxation")
    _add_data_args(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--which", choices=["v1", "v2", "v3", "v4"], required=True)
    p.add_argument("--vupper", type=float, default=None,
                   help="objective level for the big-M bounds (v1/v3)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser("tune", help="choose lambda by GCV over a grid")
    _add_data_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid", required=True,
                   help="comma-separated lambda values")
    p.add_argument("--method", choices=sorted(METHODS), default="greedy")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("precision",
                       help="sparse precision-matrix estimation")
    p.add_argument("--input", required=True, help="square matrix CSV")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=sorted(METHODS), default="greedy")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_precision)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ktrue", type=int, required=True)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--snr", type=float, default=9.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", required=True, help="output data CSV")
    p.add_argument("--truth", default=None, help="output truth JSON")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run the benchmark grid")
    p.add_argument("--config", required=True, help="benchmark config JSON")
    p.add_argument("--out", required=True, help="output records CSV")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (EnumerationCapError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SparseRidgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
