"""Benchmark driver over a (n, p, k) x methods grid with repetitions.

Every record is regenerable bit-exactly: the dataset seed for (cell index,
rep) is derived as ``SeedSequence([seed, cell_index, rep])`` and stored on
the record.  All methods within one (cell, rep) consume the identical
dataset.  Wall clock is measured around the solver call only, with a
monotonic clock; a record whose time exceeds the (soft) per-cell budget is
marked timed out, never crashed.  Cells and repetitions run one after
another, so no two solver calls share the machine's time.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .core import _FLOAT_MAX, ProblemSpec, _check_integer, _check_positive, _check_real
from .errors import InvalidArgumentError, SparseRidgeError
from .methods import check_options, fit
from .synthetic import SyntheticConfig, false_alarm_rate, generate_synthetic

@dataclass(frozen=True)
class BenchRecord:
    method: str
    n: int
    p: int
    k: int
    rep: int
    seed: int
    objective: float
    seconds: float
    false_alarm: float
    timed_out: bool
    error: str | None = None


@dataclass
class BenchReport:
    records: list[BenchRecord] = field(default_factory=list)

    def aggregates(self) -> list[dict]:
        """Mean objective / seconds / false alarm per (method, n, p, k)."""
        groups: dict[tuple, list[BenchRecord]] = {}
        for r in self.records:
            if r.error is not None:
                continue
            groups.setdefault((r.method, r.n, r.p, r.k), []).append(r)
        out = []
        for (method, n, p, k), rs in sorted(groups.items()):
            out.append({
                "method": method, "n": n, "p": p, "k": k, "reps": len(rs),
                "mean_objective": float(np.mean([r.objective for r in rs])),
                "mean_seconds": float(np.mean([r.seconds for r in rs])),
                "mean_false_alarm": float(np.mean([r.false_alarm for r in rs])),
            })
        return out

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            names = [f.name for f in dataclasses.fields(BenchRecord)]
            writer = csv.DictWriter(fh, fieldnames=names)
            writer.writeheader()
            writer.writerows(map(dataclasses.asdict, self.records))


def dataset_seed(base_seed: int, cell_index: int, rep: int) -> int:
    """The documented derivation of each record's dataset seed."""
    return int(np.random.SeedSequence([base_seed, cell_index, rep]).generate_state(1)[0])


def _cell_config(cell, rho: float, snr: float) -> SyntheticConfig:
    """The generator config of one grid cell (seed 0), validated."""
    if not isinstance(cell, Mapping) or not {"n", "p", "k"} <= cell.keys():
        raise InvalidArgumentError(f'a cell must be an object with "n", "p" and "k", got {cell!r}')
    config = SyntheticConfig(n=cell["n"], p=cell["p"], k_true=cell["k"], rho=rho, snr=snr)
    if config.k_true > config.n:
        raise InvalidArgumentError(f"cell {dict(cell)} needs k <= n")
    return config


def _listed(name: str, items) -> list:
    """``items`` as a list: any iterable but a string or a mapping."""
    if isinstance(items, str):
        raise InvalidArgumentError(f"{name} must be a list, not the string {items!r}")
    if isinstance(items, Mapping):
        raise InvalidArgumentError(f"{name} must be a list, not the mapping {items!r}")
    try:
        return list(items)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be a list, got {items!r}") from None


def run_benchmark(
    cells,
    methods,
    reps: int = 10,
    seed: int = 0,
    rho: float = 0.5,
    snr: float = 9.0,
    lam: float = 0.08,
    time_budget: float | None = None,
    method_options: dict | None = None,
) -> BenchReport:
    """Run every method on ``reps`` fresh datasets per (n, p, k) cell.

    ``cells`` is an iterable of {"n": ..., "p": ..., "k": ...} mappings and
    ``methods`` an iterable of method names; neither may be a string or a
    mapping.  ``k`` doubles as the generator's true support size.  Cells or
    methods that are not such a list, a malformed cell (integer n, p and k
    with 1 <= k <= min(n, p) required), a method name that is not a string,
    a negative seed or rep count, a ``time_budget`` that is not None or a
    finite number >= 0, a ``lam`` that is not positive and finite, a
    ``method_options`` that does not map each name to a mapping, or an
    unknown method or option there raises InvalidArgumentError before any
    fit.
    """
    configs = [_cell_config(cell, rho, snr) for cell in _listed("cells", cells)]
    methods = _listed("methods", methods)
    if not all(isinstance(method, str) for method in methods):
        raise InvalidArgumentError(f"method names must be strings, got {methods!r}")
    options = {} if method_options is None else method_options
    if not (isinstance(options, Mapping) and all(isinstance(o, Mapping) for o in options.values())):
        raise InvalidArgumentError(
            f"method_options must map each method name to an object of options, got {options!r}"
        )
    for method in sorted(set(methods) | set(options)):
        check_options(method, options.get(method, {}))
    seed, reps = _check_integer("seed", seed, 0), _check_integer("reps", reps, 0)
    lam = _check_positive("lam", lam)
    if time_budget is not None:
        _check_real("time_budget", time_budget, 0.0, _FLOAT_MAX)
    report = BenchReport()
    for cell_index, rep in itertools.product(range(len(configs)), range(reps)):
        ds_seed = dataset_seed(seed, cell_index, rep)
        config = dataclasses.replace(configs[cell_index], seed=ds_seed)
        n, p, k = config.n, config.p, config.k_true
        data, _, truth, _ = generate_synthetic(config)
        spec = ProblemSpec(data=data, lam=lam, k=k)
        for method in methods:
            t0 = time.perf_counter()
            try:
                est, error = fit(spec, method, **options.get(method, {})), None
            except SparseRidgeError as exc:
                est, error = None, str(exc)
            seconds = time.perf_counter() - t0
            report.records.append(BenchRecord(
                method=method, n=n, p=p, k=k, rep=rep, seed=ds_seed,
                objective=math.nan if est is None else est.objective, seconds=seconds,
                false_alarm=math.nan if est is None else false_alarm_rate(est.support, truth, k),
                timed_out=est is not None and time_budget is not None and seconds > time_budget,
                error=error,
            ))
    return report
