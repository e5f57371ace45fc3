"""The four benchmark workloads: instances, timed operations and output checks.

Every instance is one synthetic dataset whose generator seed is
``sparseridge.bench.dataset_seed(seed, workload index, instance index)``,
that is ``SeedSequence([seed, workload index, instance index])``.  An operation is one timed call
of a public entry point; the functions below look each one up on its module
at call time, so a tracer that patches module attributes sees the call.
Checks run outside the timed region, and a failed check marks its
operation failed; nothing is skipped.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

import sparseridge.bench as bench
import sparseridge.cli as cli
import sparseridge.core as core
import sparseridge.data_io as data_io
import sparseridge.exact as exact
import sparseridge.extensions as extensions
import sparseridge.heuristic as heuristic
import sparseridge.methods as methods
import sparseridge.relaxation as relaxation
import sparseridge.synthetic as synthetic

LAM = 0.08
REL_TOL = 1e-9
GCV_GRID = (0.02, 0.04, 0.08, 0.16, 0.32)
HEURISTIC_DELTA = 1e-6
# Host probe calls timed after each instance run, and the probe's mean time
# at the reference host speed (a quiet moment of the 2-vCPU machine that
# baseline.json names).
PROBE_CALLS = 4
PROBE_REF_S = 0.002


@dataclass
class Workload:
    name: str
    index: int
    cells: list  # (n, p, k); instance i uses cells[i % len(cells)]
    instances: int
    # Every run makes this many passes over each instance, so each run does
    # the same work; instance_s takes each operation's mean over the passes.
    passes: int = 1
    uses_csv: bool = False
    # Operations left out of instance_s, because their run-to-run spread
    # across seeds is wider than any bound the benchmark may set.  Their
    # cost is heavy-tailed, so they run on each instance's first pass only.
    ungated: tuple = ()


# Each workload stresses different layers (README.md has the full mapping).
WORKLOADS = {w.name: w for w in [
    # Wide cell, p > n: greedy, data_io, cli and extensions do the work and
    # no relaxation runs, so relaxation changes should leave it unchanged.
    Workload("screen", 0, [(300, 1500, 15)], 2, passes=12, uses_csv=True),
    # The relaxation layer dominates; one cell on each side of the n x n
    # versus support-sized route choice.
    Workload("relax_round", 1, [(60, 120, 6), (120, 60, 6)], 40),
    # Many small warm-started masked v4 node solves.  B&B time is
    # heavy-tailed (some node solves stall at max_iter), so it runs once per
    # instance and is reported but not part of the gated instance time.
    Workload("exact_certify", 2, [(50, 20, 3)], 12, passes=8, ungated=("bnb_fit",)),
    # The only workload that runs the heuristic and its coordinate descent.
    # Its cost varies with the seed through the coordinate-descent sweep
    # count, so it gets many instances.  p is kept above n / 2: in tall cells
    # the v2 bound is often tight and, within its solver tolerance, can sit
    # just above a k-sparse objective, which fails the bound check.
    Workload("bisection", 3, [(50, 30, 4)], 24),
]}


@dataclass
class Instance:
    index: int
    cell: int
    seed: int
    spec: core.ProblemSpec
    truth: tuple
    csv_path: str | None = None
    bound: float | None = None  # lower bound on every objective, computed untimed


def make_instance(w: Workload, seed: int, index: int, tmpdir: str) -> Instance:
    cell = index % len(w.cells)
    n, p, k = w.cells[cell]
    s = bench.dataset_seed(seed, w.index, index)
    data, _, truth, _ = synthetic.generate_synthetic(
        synthetic.SyntheticConfig(n=n, p=p, k_true=k, seed=s)
    )
    inst = Instance(index, cell, s, core.ProblemSpec(data=data, lam=LAM, k=k), truth)
    if w.uses_csv:
        inst.csv_path = os.path.join(tmpdir, f"data-{index}.csv")
        data_io.save_dataset_csv(data, inst.csv_path)
    return inst


@dataclass
class Recorder:
    """Operation times, failures and quality figures of one run."""

    tracer: object = None
    ungated: tuple = ()
    times: dict = field(default_factory=dict)  # op name -> {instance: [seconds per pass]}
    cells: dict = field(default_factory=dict)  # instance index -> cell
    instance_order: list = field(default_factory=list)  # all ops' seconds, per instance run
    probe_s: list = field(default_factory=list)  # seconds per host probe call
    attempted: int = 0
    failures: list = field(default_factory=list)
    # Quality figures, one per (instance, op) however many passes run.
    gaps: dict = field(default_factory=dict)
    false_alarm: dict = field(default_factory=dict)
    relax_solves: int = 0
    relax_nonconverged: int = 0
    heuristic_worse: dict = field(default_factory=dict)  # instance -> worse than greedy
    _total: float = 0.0
    _instance: int = 0
    _run: int = 0
    _failed_ops: set = field(default_factory=set)  # (instance run, op name)
    _first_pass: bool = True

    @property
    def failed(self) -> int:
        return len(self._failed_ops)

    def op(self, name: str, fn):
        """Time ``fn()``; an exception counts as a failed operation.

        An ungated operation is skipped after the instance's first pass and
        gives None.
        """
        if name in self.ungated and not self._first_pass:
            return None
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                out = fn()
            else:
                out = self.tracer.call("op." + name, fn)
        except Exception as exc:  # a benchmark must keep running and report it
            out = None
            self._fail(name, f"raised {exc!r}")
        dt = time.perf_counter() - t0
        self.times.setdefault(name, {}).setdefault(self._instance, []).append(dt)
        self._total += dt
        return out

    def _fail(self, name: str, why: str) -> None:
        self._failed_ops.add((self._run, name))
        self.failures.append(f"{name}: {why}")

    def check(self, name: str, ok: bool, why: str) -> None:
        """Record a failed output check against operation ``name`` of this run."""
        if not ok:
            self._fail(name, why)

    def start_instance(self, inst) -> None:
        self._run += 1
        self._first_pass = inst.index not in self.cells
        self._instance = inst.index
        self.cells[inst.index] = inst.cell
        self._total = 0.0

    def end_instance(self) -> None:
        self.instance_order.append(self._total)

    def raw_instance_s(self) -> float:
        """Seconds of the gated operations on one instance.

        Each operation counts with its mean over the instance's passes; the
        per-cell interquartile mean over instances is averaged over cells.
        """
        per_instance: dict = {}
        for name, by_instance in self.times.items():
            if name in self.ungated:
                continue
            for index, seconds in by_instance.items():
                per_instance[index] = per_instance.get(index, 0.0) + sum(seconds) / len(seconds)
        by_cell: dict = {}
        for index, seconds in per_instance.items():
            by_cell.setdefault(self.cells[index], []).append(seconds)
        return per_cell(iqm, by_cell)

    def instance_s(self) -> float:
        """``raw_instance_s`` at the reference host speed."""
        return self.raw_instance_s() * host_speed(self.probe_s)


_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.standard_normal((60, 30))
_PROBE_Y = _PROBE_RNG.standard_normal(60)
_PROBE_A = _PROBE_RNG.standard_normal((200, 200))
_PROBE_S = _PROBE_A @ _PROBE_A.T + 200.0 * np.eye(200)


def time_probe(probe_s: list) -> None:
    """Time PROBE_CALLS host probe calls into ``probe_s``."""
    for _ in range(PROBE_CALLS):
        t0 = time.perf_counter()
        host_probe()
        probe_s.append(time.perf_counter() - t0)


def host_speed(probe_s: list) -> float:
    """The reference probe time over the mean of ``probe_s``."""
    return PROBE_REF_S / (sum(probe_s) / len(probe_s)) if probe_s else 1.0


def host_probe() -> None:
    """Fixed work in the program's code mix, using no sparseridge code.

    Coordinate-descent sweeps (a Python loop over small numpy calls) and one
    dense Cholesky solve.  The host's other tenants slow the probe as they
    slow the operations timed next to it, so the ratio of its reference time
    to its measured time rescales a run to the reference host speed, while a
    change to the program cannot move it.
    """
    X, y, n = _PROBE_X, _PROBE_Y, _PROBE_X.shape[0]
    a = np.sum(X**2, axis=0) / n + 0.1
    beta = np.zeros(X.shape[1])
    r = y.copy()
    for _ in range(12):
        for i in range(X.shape[1]):
            c = float(X[:, i] @ r) / n + (a[i] - 0.1) * beta[i]
            b = math.copysign(max(abs(c) - 0.01, 0.0), c) / a[i]
            r -= X[:, i] * (b - beta[i])
            beta[i] = b
    np.linalg.solve(np.linalg.cholesky(_PROBE_S), _PROBE_A @ _PROBE_A[0])


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_estimator(rec: Recorder, name: str, spec, est) -> bool:
    """|support| <= k, zeros off the support, objective == ridge objective."""
    if est is None:
        return False
    beta = np.asarray(est.beta)
    off = np.ones(spec.p, dtype=bool)
    off[list(est.support)] = False
    rec.check(name, len(est.support) <= spec.k, f"|support| {len(est.support)} > k {spec.k}")
    rec.check(name, not np.any(beta[off]), "nonzero coefficient off the support")
    obj = core.ridge_objective(spec, beta)
    rec.check(name, _close(est.objective, obj), f"objective {est.objective} != ridge {obj}")
    return True


def check_quality(rec: Recorder, name: str, inst: Instance, est, ref: float) -> None:
    """The objective is at least the lower bound; record gap to ``ref``."""
    rec.check(name, est.objective >= inst.bound - REL_TOL * max(1.0, abs(inst.bound)),
              f"objective {est.objective} below the lower bound {inst.bound}")
    rec.gaps[inst.index, name] = (est.objective - ref) / ref
    rec.false_alarm[inst.index, name] = synthetic.false_alarm_rate(
        est.support, inst.truth, inst.spec.k
    )


def v2_bound(inst: Instance) -> float:
    """The v2 value, computed untimed once per instance."""
    if inst.bound is None:
        inst.bound = relaxation.solve_v2_perspective(inst.spec).value
    return inst.bound


def run_screen(rec: Recorder, inst: Instance, tmpdir: str) -> None:
    spec = inst.spec
    if inst.bound is None:  # a v2 solve at this size would cost more than the run
        inst.bound = relaxation.value_and_gradient(spec, np.ones(spec.p))[0]
    g = rec.op("greedy_fit", lambda: methods.fit(spec, "greedy"))
    if check_estimator(rec, "greedy_fit", spec, g):
        check_quality(rec, "greedy_fit", inst, g, inst.bound)

    report = rec.op("gcv", lambda: extensions.gcv_select(spec.data, spec.k, GCV_GRID))
    if report is not None:
        best_spec = core.ProblemSpec(data=spec.data, lam=report.best_lambda, k=spec.k)
        check_estimator(rec, "gcv", best_spec, report.best_estimator)
        finite = [s for s in report.scores if math.isfinite(s)]
        best = report.scores[report.grid.index(report.best_lambda)]
        rec.check("gcv", bool(finite) and best == min(finite), "best lambda does not minimize GCV")

    out = os.path.join(tmpdir, f"fit-{inst.index}.json")
    code = rec.op("cli_fit", lambda: cli.main([
        "fit", "--input", inst.csv_path, "--lambda", repr(LAM), "--k", str(spec.k),
        "--method", "greedy", "--out", out,
    ]))
    if code is not None:
        rec.check("cli_fit", code == 0, f"exit code {code}")
        if code == 0:
            with open(out) as fh:
                payload = json.load(fh)
            est = core.SparseEstimator(payload["support"], payload["beta"], payload["objective"])
            check_estimator(rec, "cli_fit", spec, est)
            if g is not None:
                rec.check("cli_fit", est.support == g.support and _close(est.objective, g.objective),
                          "CLI fit differs from the in-process greedy fit")


def run_relax_round(rec: Recorder, inst: Instance, tmpdir: str) -> None:
    spec = inst.spec
    v2 = rec.op("relax_v2", lambda: relaxation.solve_v2_perspective(spec))
    v4 = rec.op("relax_v4", lambda: relaxation.solve_v4(spec))
    for sol in (v2, v4):
        if sol is not None:
            rec.relax_solves += 1
            rec.relax_nonconverged += not sol.converged
    if v2 is None:
        return
    inst.bound = v2.value
    if v4 is not None:
        rec.check("relax_v4", abs(v2.value - v4.value) / (1.0 + v4.value) <= 1e-5,
                  f"v2 {v2.value} and v4 {v4.value} disagree")
    for name, method, opts in (("restricted_fit", "restricted", {}),
                               ("randomized_fit", "randomized",
                                {"trials": 100, "seed": inst.seed}),
                               ("greedy_fit", "greedy", {})):
        est = rec.op(name, lambda: methods.fit(spec, method, **opts))
        if check_estimator(rec, name, spec, est):
            check_quality(rec, name, inst, est, inst.bound)


def run_exact_certify(rec: Recorder, inst: Instance, tmpdir: str) -> None:
    spec = inst.spec
    v2_bound(inst)
    bnb = rec.op("bnb_fit", lambda: exact.branch_and_bound(spec, gap_tol=1e-6))
    brute = rec.op("brute", lambda: exact.brute_force(spec))
    greedy = rec.op("greedy_fit", lambda: methods.fit(spec, "greedy"))
    if not check_estimator(rec, "brute", spec, brute):
        return
    rec.check("brute", brute.objective >= inst.bound - REL_TOL * max(1.0, inst.bound),
              "brute-force optimum below the v2 bound")
    opt = brute.objective
    if bnb is not None and check_estimator(rec, "bnb_fit", spec, bnb.estimator):
        rec.check("bnb_fit", bnb.optimal, "branch and bound did not prove optimality")
        rec.check("bnb_fit", abs(bnb.estimator.objective - opt) <= REL_TOL * abs(opt),
                  "branch and bound != brute force")
        check_quality(rec, "bnb_fit", inst, bnb.estimator, opt)
    if check_estimator(rec, "greedy_fit", spec, greedy):
        check_quality(rec, "greedy_fit", inst, greedy, opt)


def run_bisection(rec: Recorder, inst: Instance, tmpdir: str) -> None:
    spec = inst.spec
    v2_bound(inst)
    out = rec.op("heuristic_fit",
                 lambda: heuristic.heuristic_bisection(spec, delta_hat=HEURISTIC_DELTA))
    greedy = rec.op("greedy_fit", lambda: methods.fit(spec, "greedy"))
    if out is not None:
        est, trace = out
        if check_estimator(rec, "heuristic_fit", spec, est):
            check_quality(rec, "heuristic_fit", inst, est, inst.bound)
            yy = float(spec.y @ spec.y)
            bound = math.floor(math.log2(yy / (spec.n * HEURISTIC_DELTA))) + 1
            rec.check("heuristic_fit", trace.iterations <= bound,
                      f"{trace.iterations} levels > bound {bound}")
            if greedy is not None:
                rec.heuristic_worse[inst.index] = est.objective > greedy.objective * (1 + REL_TOL)
    if check_estimator(rec, "greedy_fit", spec, greedy):
        check_quality(rec, "greedy_fit", inst, greedy, inst.bound)


RUNNERS = {
    "screen": run_screen,
    "relax_round": run_relax_round,
    "exact_certify": run_exact_certify,
    "bisection": run_bisection,
}


def run_instance(rec: Recorder, w: Workload, inst: Instance, tmpdir: str) -> None:
    """Run the workload's operations on one instance."""
    rec.start_instance(inst)
    with warnings.catch_warnings():
        # restricted greedy warns when few candidates pass its filter
        warnings.simplefilter("ignore")
        RUNNERS[w.name](rec, inst, tmpdir)
    rec.end_instance()


def iqm(values) -> float:
    """Interquartile mean: the mean of the middle half of the sorted values.

    As robust as the median to a tail of up to a quarter of the values, and
    steadier than it from run to run when instance costs spread widely.
    """
    xs = sorted(values)
    cut = len(xs) // 4
    middle = xs[cut:len(xs) - cut]
    return sum(middle) / len(middle)


def per_cell(stat, by_cell: dict) -> float:
    """Mean over cells of ``stat`` of each cell's values; 0 when nothing was timed."""
    values = [stat(v) for v in by_cell.values() if v]
    return sum(values) / len(values) if values else 0.0


def flat(by_key: dict) -> list:
    return [v for values in by_key.values() for v in values]
