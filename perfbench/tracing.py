"""Span recorder that wraps sparseridge's public functions from outside.

A span is (name, start, end, parent).  Wrapping happens where the callers
look a function up: every ``sparseridge.*`` module attribute, or entry of a
module-level dict, bound to the original function object is replaced by the
wrapper while the recorder is installed, and restored afterwards.  The
relaxation layer's Cholesky calls are wrapped only in ``sparseridge.relaxation``
(one factorization per f/grad evaluation or weighted-ridge solve), so that
refits in ``core`` and ``exact`` are not counted as relaxation work.

Spans live in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import math
import os
import sys
import time
from collections import defaultdict

PACKAGE = "sparseridge"

# (span name, module that defines the function, attribute, info extractor)
# The extractor maps (args, kwargs, result) to a small dict of counts.
PUBLIC_TARGETS = [
    ("synthetic.generate", "synthetic", "generate_synthetic", None),
    ("data_io.load", "data_io", "load_dataset_csv", lambda a, kw, r: {"bytes": os.path.getsize(a[0])}),
    ("cli.main", "cli", "main", None),
    ("methods.fit", "methods", "fit", None),
    ("greedy.select", "greedy", "greedy_select", lambda a, kw, r: {"steps": len(r[1].steps)}),
    ("greedy.select", "greedy", "restricted_greedy", lambda a, kw, r: {"steps": len(r[1].steps)}),
    ("relaxation.v2", "relaxation", "solve_v2_perspective",
     lambda a, kw, r: {"iters": r.iterations, "converged": r.converged}),
    ("relaxation.v4", "relaxation", "solve_v4",
     lambda a, kw, r: {"iters": r.iterations, "converged": r.converged}),
    ("relaxation.waterfill", "relaxation", "waterfill_z", None),
    ("relaxation.project", "relaxation", "project_capped_simplex", None),
    ("relaxation.value_grad", "relaxation", "value_and_gradient", None),
    ("core.refit", "core", "restricted_estimator", None),
    ("core.refit", "core", "mic_value", None),
    ("randomized.solve", "randomized", "randomized_solve",
     lambda a, kw, r: {"trials": r.trials, "p_exceed": r.p_exceed_bound}),
    ("exact.bnb", "exact", "branch_and_bound",
     lambda a, kw, r: {"nodes": r.nodes_explored, "gap": r.final_gap, "optimal": r.optimal}),
    ("exact.brute", "exact", "brute_force",
     lambda a, kw, r: {"subsets": math.comb(a[0].p, a[0].k)}),
    ("heuristic.bisection", "heuristic", "heuristic_bisection",
     lambda a, kw, r: {"levels": r[1].iterations}),
    ("heuristic.min_l1", "heuristic", "min_l1_given_level", None),
    ("heuristic.cd", "heuristic", "elastic_net_cd", None),
    ("extensions.gcv", "extensions", "gcv_select", None),
    ("extensions.gcv_score", "extensions", "gcv_score", None),
]

# Wrapped in one module only: (span name, module, attribute).
LOCAL_TARGETS = [
    ("relaxation.factor", "relaxation", "cho_factor"),
    ("relaxation.factor_solve", "relaxation", "cho_solve"),
]

LAYERS = ["synthetic", "data_io", "cli", "methods", "core", "greedy",
          "relaxation", "randomized", "heuristic", "exact", "extensions"]


class Tracer:
    """In-memory span recorder; ``install()`` patches, ``uninstall()`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []  # name id, t0, t1, parent
        self.info: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def call(self, name: str, fn, *args, _info=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        nid = self._nid(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((nid, 0.0, 0.0, parent))
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, t0, t1, parent)
        if _info is not None:
            self.info[idx] = _info(args, kwargs, result)
        return result

    def _wrapper(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, _info=info, **kwargs)
        return wrapper

    def _modules(self):
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Patch every module attribute, or entry of a module-level dict (such
        as ``methods.RELAXATIONS``), that is bound to a target function."""
        modules = self._modules()
        for name, mod, attr, info in PUBLIC_TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)
            wrapper = self._wrapper(name, original, info)
            for m in modules:
                for table in [vars(m)] + [v for v in vars(m).values() if type(v) is dict]:
                    for key, value in list(table.items()):
                        if value is original:
                            self._patches.append((table, key, value))
                            table[key] = wrapper
        for name, mod, attr in LOCAL_TARGETS:
            table = vars(sys.modules[f"{PACKAGE}.{mod}"])
            self._patches.append((table, attr, table[attr]))
            table[attr] = self._wrapper(name, table[attr], None)

    def uninstall(self) -> None:
        for table, key, value in reversed(self._patches):
            table[key] = value
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write spans as tab-separated lines: id, name, parent, start, end, info."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tstart\tend\tinfo\n")
            for i, (nid, t0, t1, parent) in enumerate(self.spans):
                info = self.info.get(i, "")
                fh.write(f"{i}\t{self.names[nid]}\t{parent}\t{t0:.9f}\t{t1:.9f}\t{info}\n")

    def summarize(self) -> dict:
        """Per-name totals and per-layer self time, from the recorded spans.

        Returns {"count": {name: n}, "time": {name: s}, "self": {layer: s},
        "child": [seconds covered by direct children, per span],
        "info": {name: [dict, ...]}, "nested": {(parent name, name): [n, s]}}.
        A layer's self time is its spans' durations minus their children's.
        """
        count: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        infos: dict[str, list] = defaultdict(list)
        nested: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        for nid, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (nid, t0, t1, parent) in enumerate(self.spans):
            name = self.names[nid]
            dur = t1 - t0
            count[name] += 1
            total[name] += dur
            self_time[name.split(".")[0]] += dur - child[i]
            if parent >= 0:
                entry = nested[(self.names[self.spans[parent][0]], name)]
                entry[0] += 1
                entry[1] += dur
            if i in self.info:
                infos[name].append(self.info[i])
        return {"count": count, "time": total, "self": self_time,
                "child": child, "info": infos, "nested": nested}
