"""Run one benchmark workload against the sparseridge sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop in one process: each operation starts when the
previous one returns.  A run makes the workload's fixed number of passes
over each instance of its fixed instance set, so every run does the same
work.  ``--seconds`` sizes only a safety cap (CAP_FACTOR times it), which a
run reports if it hits it.  BLAS is pinned to one thread before numpy is
imported.  The last line of standard output is one JSON object {"correct",
"attempted", "failed", "metrics"}; with ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones.  A traced run also
runs the first pass traced, each instance right after its untraced run, so
that the tracing overhead is measured on the same work.  Earlier lines
print the environment and every metric by name with its unit.
"""

import os
import time

T0 = time.perf_counter()

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
COVERAGE_MIN = 0.95
# Set-up rounds, each followed by host probes, repeat until there are this
# many and they have taken this long.
SETUP_ROUNDS = 3
SETUP_BUDGET_S = 2.0
# The timed phase stops after the instance that ends past CAP_FACTOR times
# --seconds, or past CAP_TOTAL_S since start, whichever comes first.
CAP_FACTOR = 4
CAP_TOTAL_S = 150.0
OPS = ["greedy_fit", "gcv", "cli_fit", "relax_v2", "relax_v4", "restricted_fit",
       "randomized_fit", "heuristic_fit", "bnb_fit", "brute"]


def import_package():
    """Import sparseridge from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "sparseridge", "__init__.py")):
        raise ImportError(f"no sparseridge sources under {SRC}")
    sys.path.insert(0, SRC)
    import sparseridge
    if not os.path.abspath(sparseridge.__file__).startswith(SRC + os.sep):
        raise ImportError(f"sparseridge imported from {sparseridge.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def report_ops(rec, nonconverged_frac: float) -> dict:
    """The per-operation and quality figures of one recorder, for printing."""
    from workloads import flat
    rows = {}
    for op in OPS:
        t = flat(rec.times.get(op, {}))
        rows[op + "_s"] = (_mean(t), "s",
                           f"mean of {len(t)}; median {statistics.median(t) if t else 0.0:.6g}"
                           f", max {max(t, default=0.0):.6g}")
    rows["failed_frac"] = (rec.failed / max(1, rec.attempted), "ratio",
                           f"{rec.failed} of {rec.attempted} operations")
    rows["relax_nonconverged_frac"] = (nonconverged_frac, "ratio",
                                       "top-level solves; --trace 1 adds B&B node solves")
    rows["objective_rel_gap"] = (_mean(list(rec.gaps.values())), "ratio",
                                 f"mean of {len(rec.gaps)}")
    rows["false_alarm_pct"] = (_mean(list(rec.false_alarm.values())), "%",
                               f"mean of {len(rec.false_alarm)}")
    return rows


def layer_metrics(tracer, setup_tracer, untraced, traced, passes) -> tuple[dict, float]:
    """Per-layer figures from the spans, and the spans' minimum coverage.

    Counts and seconds are per traced instance.
    """
    s = tracer.summarize()
    count, total, info, nested = s["count"], s["time"], s["info"], s["nested"]
    n_inst = max(1, len(traced.instance_order))

    def per(v):
        return v / n_inst

    def isum(name, key):
        return sum(d[key] for d in info.get(name, []))

    def ratio(a, b):
        return a / b if b else 0.0

    solves = info.get("relaxation.v2", []) + info.get("relaxation.v4", [])
    nonconv = sum(not d["converged"] for d in solves)
    nodes = isum("exact.bnb", "nodes")
    subsets = isum("exact.brute", "subsets")
    bnb = info.get("exact.bnb", [])
    gen = setup_tracer.summarize()
    m = {
        "greedy.calls": (per(count["greedy.select"]), "count"),
        "greedy.s": (per(total["greedy.select"]), "s"),
        "greedy.steps": (per(isum("greedy.select", "steps")), "count"),
        "data_io.load_s": (per(total["data_io.load"]), "s"),
        "data_io.load_mb_per_s": (ratio(isum("data_io.load", "bytes") / 1e6,
                                        total["data_io.load"]), "MB/s"),
        "cli.main_s": (per(total["cli.main"]), "s"),
        "cli.overhead_s": (per(s["self"]["cli"]), "s"),
        "synthetic.generate_s": (ratio(gen["time"]["synthetic.generate"],
                                       gen["count"]["synthetic.generate"]), "s"),
        "extensions.gcv_s": (per(total["extensions.gcv"]), "s"),
        "extensions.gcv_fits": (per(nested[("extensions.gcv", "methods.fit")][0]), "count"),
        "extensions.gcv_score_s": (per(total["extensions.gcv_score"]), "s"),
        "methods.fit_calls": (per(count["methods.fit"]), "count"),
        "relaxation.v2_calls": (per(count["relaxation.v2"]), "count"),
        "relaxation.v2_s": (per(total["relaxation.v2"]), "s"),
        "relaxation.v2_cycles": (per(isum("relaxation.v2", "iters")), "count"),
        "relaxation.waterfill_calls": (per(count["relaxation.waterfill"]), "count"),
        "relaxation.waterfill_s": (per(total["relaxation.waterfill"]), "s"),
        "relaxation.v4_calls": (per(count["relaxation.v4"]), "count"),
        "relaxation.v4_s": (per(total["relaxation.v4"]), "s"),
        "relaxation.v4_iters": (per(isum("relaxation.v4", "iters")), "count"),
        "relaxation.project_calls": (per(count["relaxation.project"]), "count"),
        "relaxation.project_s": (per(total["relaxation.project"]), "s"),
        "relaxation.value_grad_calls": (per(count["relaxation.value_grad"]), "count"),
        "relaxation.value_grad_s": (per(total["relaxation.value_grad"]), "s"),
        "relaxation.factor_calls": (per(count["relaxation.factor"]), "count"),
        "relaxation.factor_s": (per(total["relaxation.factor"]
                                    + total["relaxation.factor_solve"]), "s"),
        "relaxation.nonconverged": (per(nonconv), "count"),
        "relaxation.converged_ratio": (ratio(len(solves) - nonconv, len(solves)), "ratio"),
        "core.refit_calls": (per(count["core.refit"]), "count"),
        "core.refit_s": (per(total["core.refit"]), "s"),
        "randomized.s": (per(total["randomized.solve"]), "s"),
        "randomized.trials": (per(isum("randomized.solve", "trials")), "count"),
        "randomized.p_exceed_bound": (_mean([d["p_exceed"] for d in
                                             info.get("randomized.solve", [])]), "ratio"),
        "exact.nodes": (per(nodes), "count"),
        "exact.s_per_node": (ratio(total["exact.bnb"], nodes), "s"),
        "exact.node_relax_s": (per(nested[("exact.bnb", "relaxation.v4")][1]
                                   + nested[("exact.bnb", "relaxation.value_grad")][1]), "s"),
        "exact.final_gap": (_mean([d["gap"] for d in bnb]), "ratio"),
        "exact.optimal_ratio": (ratio(sum(d["optimal"] for d in bnb), len(bnb)), "ratio"),
        "exact.brute_subsets": (per(subsets), "count"),
        "exact.brute_subsets_per_s": (ratio(subsets, total["exact.brute"]), "1/s"),
        "heuristic.levels": (per(isum("heuristic.bisection", "levels")), "count"),
        "heuristic.min_l1_calls": (per(count["heuristic.min_l1"]), "count"),
        "heuristic.min_l1_s": (per(total["heuristic.min_l1"]), "s"),
        "heuristic.cd_calls": (per(count["heuristic.cd"]), "count"),
        "heuristic.cd_s": (per(total["heuristic.cd"]), "s"),
    }
    import tracing
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (per(s["self"][layer]), "s")

    # Coverage: per operation kind, the share of its wall time under child spans.
    op_time, op_cov = {}, {}
    for i, (nid, t0, t1, parent) in enumerate(tracer.spans):
        name = tracer.names[nid]
        if parent < 0 and name.startswith("op."):
            op_time[name] = op_time.get(name, 0.0) + (t1 - t0)
            op_cov[name] = op_cov.get(name, 0.0) + s["child"][i]
    coverage = min((op_cov[k] / op_time[k] for k in op_time if op_time[k] > 0), default=1.0)
    # The untraced first passes, the same instance runs as the traced ones.
    untraced_s = sum(untraced.instance_order[::passes][:len(traced.instance_order)])
    m["trace.overhead_frac"] = (ratio(sum(traced.instance_order) - untraced_s, untraced_s),
                                "ratio")
    m["trace.coverage_min"] = (coverage, "ratio")
    m["trace.spans"] = (per(len(tracer.spans)), "count")
    from workloads import flat
    for op in OPS:  # total seconds over calls, in the untraced passes
        m[op + "_s"] = (_mean(flat(untraced.times.get(op, {}))), "s")
    m["failed_frac"] = ((untraced.failed + traced.failed)
                        / max(1, untraced.attempted + traced.attempted), "ratio")
    m["relax_nonconverged_frac"] = (ratio(nonconv, len(solves)), "ratio")
    m["objective_rel_gap"] = (_mean(list(untraced.gaps.values())), "ratio")
    m["false_alarm_pct"] = (_mean(list(untraced.false_alarm.values())), "%")
    return m, coverage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    print(json.dumps({"env": environment(), "workload": w.name, "cells": w.cells,
                      "instances": w.instances, "passes": w.passes,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))

    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT)
    try:
        setup_tracer = tracing.Tracer()
        if args.trace:
            setup_tracer.install()
        # Set the whole instance set up in rounds; their mean is reported at
        # the reference host speed.
        rounds, setup_probe_s = [], []
        setup_start = time.perf_counter()
        while len(rounds) < SETUP_ROUNDS or time.perf_counter() - setup_start < SETUP_BUDGET_S:
            t0 = time.perf_counter()
            instances = [workloads.make_instance(w, args.seed, i, tmpdir)
                         for i in range(w.instances)]
            rounds.append(time.perf_counter() - t0)
            workloads.time_probe(setup_probe_s)
        setup_tracer.uninstall()

        untraced = workloads.Recorder(ungated=w.ungated)
        traced = workloads.Recorder(tracer=tracing.Tracer(), ungated=w.ungated)
        start = time.perf_counter()
        deadline = min(start + CAP_FACTOR * args.seconds, T0 + CAP_TOTAL_S)
        capped = False
        # Each instance makes its passes back to back.  The host probe runs
        # after every instance run, so it samples the host's slow phases
        # evenly with the operations.
        for run, inst in enumerate(inst for inst in instances for _ in range(w.passes)):
            if time.perf_counter() > deadline:
                capped = True
                break
            workloads.run_instance(untraced, w, inst, tmpdir)
            workloads.time_probe(untraced.probe_s)
            if args.trace and run % w.passes == 0:  # trace the first pass only
                traced.tracer.install()
                try:
                    workloads.run_instance(traced, w, inst, tmpdir)
                finally:
                    traced.tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    nonconv_frac = untraced.relax_nonconverged / max(1, untraced.relax_solves)
    rows = report_ops(untraced, nonconv_frac)
    setup_speed = workloads.host_speed(setup_probe_s)
    rows["setup_s"] = (statistics.mean(rounds) * setup_speed, "s",
                       f"mean of {len(rounds)} set-ups of {w.instances} instances at the"
                       f" reference host speed; raw {statistics.mean(rounds):.6g} s at host"
                       f" speed {setup_speed:.4g}")
    rows["peak_rss_mb"] = (peak_rss_mb, "MB", "")
    note = (f"interquartile mean per cell of {w.instances} instances, each"
            f" operation's mean of {w.passes} pass{'es' if w.passes > 1 else ''}"
            + (f", without {', '.join(w.ungated)}" if w.ungated else "")
            + f"; raw {untraced.raw_instance_s():.6g} s at host speed"
            f" {workloads.host_speed(untraced.probe_s):.4g}")
    if capped:
        note = (f"CAPPED after {len(untraced.instance_order)} of"
                f" {w.passes * w.instances} instance runs; {note}")
        print(f"warning: safety cap hit; {note}", file=sys.stderr)
    rows["instance_s"] = (untraced.instance_s(), "s", note)
    if w.name == "bisection":
        rows["heuristic_worse_than_greedy"] = (
            sum(untraced.heuristic_worse.values()), "count",
            f"of {len(untraced.heuristic_worse)} instances")
    correct = untraced.failed == 0
    attempted, failed = untraced.attempted, untraced.failed

    if args.trace:
        layers, coverage = layer_metrics(traced.tracer, setup_tracer, untraced, traced, w.passes)
        if coverage < COVERAGE_MIN:
            print(f"error: spans cover only {coverage:.3f} of an operation's time",
                  file=sys.stderr)
            correct = False
        correct = correct and traced.failed == 0
        attempted += traced.attempted
        failed += traced.failed
        traced.tracer.write(os.path.join(OUT, f"spans-{w.name}-seed{args.seed}.tsv.gz"))
        for name, (value, unit) in layers.items():
            print(f"{name:32s} {value:14.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        for name, (value, unit, note) in rows.items():
            print(f"{name:28s} {value:14.6g} {unit:6s} {note}")
        metrics = {name: {"value": rows[name][0], "unit": rows[name][1]}
                   for name in ("instance_s", "setup_s", "peak_rss_mb")}
    for line in (untraced.failures + traced.failures)[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
