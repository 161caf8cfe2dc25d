"""Spans around routeirl's public functions, recorded from outside the package.

``Tracer.install`` wraps every function that ``routeirl`` exports (plus
``routeirl.cli.main``) and rebinds every ``routeirl.*`` module attribute that
is bound to it, so the copies made by ``from .planners import ...`` inside
``algorithms``, ``metrics``, ``training`` and ``cli`` are traced too.  A span
is (name, start, end, parent, op): the parent is the enclosing traced span and
op is the benchmark operation that caused it.  Spans stay in memory and are
written out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("routeirl", "routeirl.graph", "routeirl.io", "routeirl.rewards",
           "routeirl.planners", "routeirl.spectral", "routeirl.algorithms",
           "routeirl.training", "routeirl.metrics", "routeirl.cli")

# Functions reported with `calls` and `self_ms`.
TIMED = ("power_iteration_backward", "softmax_backup", "dijkstra_values",
         "greedy_policy", "greedy_path", "rollout", "trajectory_policy_nll",
         "edge_rewards", "backprop", "cheap_bounds", "dominant_eigenvalue",
         "demo_gradient", "sample_demonstrations", "train_expert",
         "partition_geographic", "assemble_global", "cross_region_eval",
         "evaluate", "gen_gridworld", "compress_graph", "extract_subgraph",
         "compress_trajectory", "save_graph", "load_graph",
         "save_trajectories", "load_trajectories")
CLI_STAGES = ("gen-grid", "compress", "train", "eval", "diagnose")
# Counts taken from a traced call's arguments or result, with their units.
COUNTS = {
    "power_iteration_backward.iters": "count",
    "power_iteration_backward.nonconverged": "count",
    "softmax_backup.slot_updates": "count",
    "rollout.steps": "count",
    "rollout.truncated": "count",
    "demo_gradient.skipped": "count",
    "train_expert.skips": "count",
    "train_expert.guard_halvings": "count",
    "dominant_eigenvalue.iters": "count",
    "io.bytes_written": "bytes",
}
# Per-layer metrics computed by the workload outside the traced calls.
WORKLOAD_LAYER = {"guard_false_positive_dests": "count",
                  "dest_repeat_share": "ratio"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units: dict[str, str] = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units["slot_rewards.calls"] = "count"
    units.update(COUNTS)
    units.update(WORKLOAD_LAYER)
    for stage in CLI_STAGES:
        units[f"cli.{stage}.s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_backward(tr, args, kwargs, result):
    _, iters, converged = result
    tr.counts["power_iteration_backward.iters"] += iters
    tr.counts["power_iteration_backward.nonconverged"] += int(not converged)


def _count_backup(tr, args, kwargs, result):
    g = _arg(args, kwargs, 0, "gv").graph
    tr.counts["softmax_backup.slot_updates"] += g.num_nodes * g.max_out_degree


def _count_rollout(tr, args, kwargs, result):
    tr.counts["rollout.steps"] += result.steps
    tr.counts["rollout.truncated"] += int(result.truncated)


def _count_gradient(tr, args, kwargs, result):
    tr.counts["demo_gradient.skipped"] += int(result.skipped)


def _count_train(tr, args, kwargs, result):
    _, hist = result
    tr.counts["train_expert.skips"] += sum(rec["skips"] for rec in hist.steps)
    tr.counts["train_expert.guard_halvings"] += hist.guard_halvings


def _count_eigen(tr, args, kwargs, result):
    tr.counts["dominant_eigenvalue.iters"] += result.iterations


def _count_written(tr, args, kwargs, result):
    tr.counts["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


COUNTERS = {
    "power_iteration_backward": _count_backward,
    "softmax_backup": _count_backup,
    "rollout": _count_rollout,
    "demo_gradient": _count_gradient,
    "train_expert": _count_train,
    "dominant_eigenvalue": _count_eigen,
    "save_graph": _count_written,
    "save_trajectories": _count_written,
    "save_merge_map": _count_written,
}


def minibatch_destinations(dests: list[int], rng_seed: int, batch_size: int,
                           steps: int) -> list[list[int]]:
    """Replay the minibatch draws `train_expert` makes from its seed: one
    `rng.choice(len(demos), batch_size, replace=True)` per step."""
    rng = np.random.default_rng(rng_seed)
    out = []
    for _ in range(steps):
        idx = rng.choice(len(dests), size=batch_size, replace=True)
        out.append([dests[int(i)] for i in idx])
    return out


def repeat_share(batches: list[list[int]]) -> float:
    """Share of gradient calls whose destination already occurred earlier in
    the same minibatch."""
    calls = sum(len(b) for b in batches)
    repeats = sum(len(b) - len(set(b)) for b in batches)
    return repeats / calls if calls else 0.0


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur_end is not None and cs <= cur_end:
                cur_end = max(cur_end, ce)
                continue
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = cs, ce
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one CLI stage."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        import importlib
        import routeirl
        import routeirl.cli
        modules = [importlib.import_module(m) for m in MODULES]
        targets = [obj for name, obj in vars(routeirl).items()
                   if inspect.isfunction(obj) and not name.startswith("_")]
        targets.append(routeirl.cli.main)
        wrappers = {id(fn): self._wrap(fn, fn.__name__) for fn in targets}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float]:
        """calls / self_ms per traced function, the counters, and the CLI
        stage totals.  Metrics computed by the workload are added later."""
        selfs = self_times(self.spans)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), own in zip(self.spans, selfs):
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = 1e3 * self_s[name]
        out["slot_rewards.calls"] = calls["slot_rewards"]
        for key in COUNTS:
            out[key] = self.counts[key]
        for stage in CLI_STAGES:
            out[f"cli.{stage}.s"] = total_s[f"cli.{stage}"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
