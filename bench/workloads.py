"""The three benchmark workloads.  BENCHMARK.json runs train-maxent and
cli-pipeline; horizon-sweep runs by hand (see README.md).

Every workload measures the same end-to-end metrics on its own problem, so a
change is judged per (workload, metric) pair:

- ``job_s``: mean seconds per unit of the workload's headline job;
- ``sample.demos_per_s``: demonstrations drawn by ``sample_demonstrations``;
- ``eval.demos_per_s``: demonstrations scored by ``evaluate`` (accuracy, IoU
  and NLL);
- ``sweep.grads_per_s.<H>``: receding-horizon demo gradients at H in
  {0, 1, 10, 100, inf}, in minibatches of 8.

Rates are work done over time spent, summed over every operation of that
kind in the run.  Operations are short (mostly well under a second: one
minibatch at one horizon, a train chunk of ten steps, a slice of samples or
eval demos) and their kinds are interleaved across the whole run by time
share, so every metric averages over the whole run: the host's speed drifts
by tens of percent within seconds, and a kind measured in a few long
operations would see a few speed states only.

Every operation gets its own weight vector (or seed), so nothing computed for
one operation is valid for the next.  Timed weights are certified feasible
before timing: each lies componentwise below a base vector w0, features are
nonnegative so every reward only drops, and a Collatz-Wielandt bound below 1
on the full exp-reward matrix at w0 bounds the spectral radius of every
destination's block (a principal submatrix) below 1.

Why these three:

- ``train-maxent`` is the paper's synthetic-recovery experiment (criterion 9,
  shortened): small graph, far from the feasibility boundary, destinations
  that almost never repeat inside a minibatch.  Its job is maxent training
  at batch 8 (reported per 100 optimizer steps), nearly all converged
  backward passes.
- ``horizon-sweep`` is the paper's cost-versus-horizon trade-off near the
  feasibility boundary (lambda_max about 0.945), with destinations drawn from a
  fixed set of four, so half of each minibatch repeats a destination.  Its
  job is one minibatch at each of the five horizons (the sum of the mean
  minibatch times).
- ``cli-pipeline`` is the only workload whose time goes largely to graph
  generation and compression, file I/O, sharding and spectral diagnosis.  Its
  job is the in-process ``gen-grid -> compress -> train -> eval -> diagnose``
  run on a 40x40 grid, one stage per operation; its sample, eval and sweep
  operations run on the same problem built in memory.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import routeirl as rl
import routeirl.cli as rl_cli
import speed
from tracing import minibatch_destinations, repeat_share

BATCH = 8
HORIZONS = (("h0", 0.0), ("h1", 1.0), ("h10", 10.0), ("h100", 100.0),
            ("hinf", math.inf))
WEIGHT_JITTER = 0.004
RATES = ("sample.demos_per_s", "eval.demos_per_s",
         *(f"sweep.grads_per_s.{label}" for label, _ in HORIZONS))
METRIC_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "job_s": "s",
                **{name: "1/s" for name in RATES}}
STAGES = ("gen-grid", "compress", "train", "eval", "diagnose")


def sub_seed(seed: int, *keys: int) -> int:
    """A 31-bit seed derived from the workload seed and an operation key."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0] >> 1)


def certify(g, w0: np.ndarray, max_iters: int = 20000) -> float:
    """Collatz-Wielandt upper bound below 1 on the spectral radius of the full
    exp-reward matrix at w0 (temperature 1); raises if none is found."""
    if np.any(g.features < 0):
        raise RuntimeError("negative features: weight monotonicity does not hold")
    a = sp.csr_matrix((np.exp(g.features @ w0), (g.edge_src, g.edge_dst)),
                      shape=(g.num_nodes, g.num_nodes))
    x = np.ones(g.num_nodes)
    for _ in range(max_iters):
        y = a @ x
        bound = float(np.max(y / x))
        if bound < 1.0:
            return bound
        x = y + x
        x /= x.max()
    raise RuntimeError(f"weights {w0} not certified feasible (bound {bound})")


class Abort(Exception):
    """An operation failed; later operations depend on it."""


@dataclass
class Outcome:
    work: dict = field(default_factory=lambda: defaultdict(float))
    time: dict = field(default_factory=lambda: defaultdict(float))
    ops: dict = field(default_factory=lambda: defaultdict(int))
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    plan: list = field(default_factory=list)
    wall_s: float = 0.0
    host: speed.HostSpeed = field(default_factory=speed.HostSpeed)

    def measure(self, metric: str, work: float, seconds: float) -> None:
        self.work[metric] += work
        self.time[metric] += seconds
        self.ops[metric] += 1

    def seconds(self, metric: str, normalised: bool) -> float:
        """Time spent on `metric`, scaled to the reference host speed if
        `normalised`."""
        return self.time[metric] * (self.host.scale() if normalised else 1.0)

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{what}: {detail}")
        return ok

    def call(self, what: str, fn, *args, **kwargs):
        """Run one library call; a raised error fails the operation and ends
        the run, since later operations build on it."""
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            self.check(what, False, "".join(
                traceback.format_exception_only(type(err), err)).strip())
            raise Abort from err


def finite(x) -> bool:
    return x is not None and bool(np.all(np.isfinite(x)))


class Workload:
    name = ""
    job_metric = ""
    job_unit = 1           # job_s is seconds per this much `job_metric` work
    shares: dict = {}      # kind -> share of the run's time
    min_ops: dict = {}     # kind -> operations every run makes
    max_ops: dict = {}     # kind -> most operations a run makes
    eval_size = 0
    equivalence_demos = BATCH

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.info: dict = {}
        self.tracer = None

    # -- inputs -----------------------------------------------------------
    def build(self) -> None:
        """Graph and untimed inputs; repeated to time set-up.  Ends with
        `reset`."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Costly untimed inputs, built once after `build`."""

    def warm(self) -> None:
        """First calls of every timed function, so lazy imports and first-call
        costs fall into set-up."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget the state a run builds up, so a run can be replayed."""

    def problem(self):
        """(graph, demos, base weights w0, merge map) that the sweep and eval
        operations run on."""
        raise NotImplementedError

    def eval_pool(self) -> list:
        return self.problem()[1]

    # -- operations shared by all workloads --------------------------------
    @functools.cached_property
    def by_length(self) -> list:
        return sorted(self.problem()[1], key=lambda t: len(t.edges))

    def minibatch(self, i: int) -> list:
        """One demo from each eighth of the demos ordered by length.  A demo's
        cost grows with its length; drawing by length keeps the cost of a
        minibatch alike across seeds."""
        demos = self.by_length
        rng = np.random.default_rng(sub_seed(self.seed, 1, i))
        return [demos[int(rng.choice(part))]
                for part in np.array_split(np.arange(len(demos)), BATCH)]

    def weights(self, *keys: int) -> np.ndarray:
        w0 = self.problem()[2]
        rng = np.random.default_rng(sub_seed(self.seed, 2, *keys))
        return w0 - WEIGHT_JITTER * rng.random(w0.shape[0])

    def op_sweep(self, h_index: int, i: int, out: Outcome) -> None:
        """Minibatch i at one horizon; every horizon walks the same minibatches."""
        label, horizon = HORIZONS[h_index]
        g = self.problem()[0]
        batch = self.minibatch(i)
        model = rl.LinearReward(self.weights(i, h_index))
        cfg = rl.IrlConfig(algorithm="receding_horizon", horizon=horizon)
        t0 = time.perf_counter()
        reps = [out.call(f"sweep {label}", rl.demo_gradient, model, g, d, cfg)
                for d in batch]
        dt = time.perf_counter() - t0
        bad = [r.reason or "non-finite gradient" for r in reps
               if r.skipped or not finite(r.gradient)]
        if out.check(f"sweep {label} minibatch {i}", not bad, "; ".join(bad)):
            out.measure(f"sweep.grads_per_s.{label}", len(batch), dt)

    def op_eval(self, i: int, out: Outcome) -> None:
        g, _, _, merge_map = self.problem()
        pool = self.eval_pool()
        start = (i * self.eval_size) % len(pool)
        demos = (pool + pool)[start:start + self.eval_size]
        model = rl.LinearReward(self.weights(i, len(HORIZONS)))
        t0 = time.perf_counter()
        res = out.call("eval", rl.evaluate, model, demos, g, merge_map=merge_map)
        dt = time.perf_counter() - t0
        ok = res.n == len(demos) and res.nll is not None and math.isfinite(res.nll)
        if out.check(f"eval {i}", ok, f"n={res.n}, nll={res.nll}"):
            out.measure("eval.demos_per_s", len(demos), dt)

    def check_equivalences(self, out: Outcome) -> None:
        """RH(0) = mmp at margin 0, RH(1) = birl, RH(inf) = maxent on the first
        minibatch, at criterion 1's tolerances."""
        g, _, w0, _ = self.problem()
        model = rl.LinearReward(w0)
        pairs = (("mmp", 0.0, 1e-8), ("birl", 1.0, 1e-8), ("maxent", math.inf, 1e-6))
        for alg, horizon, tol in pairs:
            worst = 0.0
            for d in self.minibatch(0)[:self.equivalence_demos]:
                rh = rl.demo_gradient(model, g, d, rl.IrlConfig(
                    algorithm="receding_horizon", horizon=horizon))
                ref = rl.demo_gradient(model, g, d, rl.IrlConfig(
                    algorithm=alg, margin=0.0, init="dijkstra"))
                if rh.skipped or ref.skipped:
                    worst = math.inf
                    break
                worst = max(worst, float(np.max(np.abs(rh.gradient - ref.gradient))))
            out.check(f"RH({horizon}) vs {alg}", worst <= tol,
                      f"max gradient difference {worst:.3e} > {tol}")
            self.info[f"equivalence.{alg}"] = worst

    # -- the timed run -----------------------------------------------------
    def ops(self) -> dict:
        kinds = {"job": getattr(self, "op_job", None), "sample": self.op_sample,
                 "eval": self.op_eval}
        for h_index, (label, _) in enumerate(HORIZONS):
            kinds[f"sweep.{label}"] = functools.partial(self.op_sweep, h_index)
        return {k: kinds[k] for k in self.shares}

    def run(self, seconds: float | None = None, plan: list | None = None) -> Outcome:
        """Make operations until `seconds` have passed and every kind has its
        minimum count, each time picking the kind furthest below its time
        share; or replay `plan`, a list of kinds, exactly."""
        out = Outcome()
        ops = self.ops()
        counts: dict[str, int] = defaultdict(int)
        spent: dict[str, float] = defaultdict(float)
        start = time.perf_counter()

        def do(kind: str) -> None:
            if self.tracer is not None:
                self.tracer.op = len(out.plan)
            t0 = time.perf_counter()
            ops[kind](counts[kind], out)
            dt = time.perf_counter() - t0
            spent[kind] += dt
            counts[kind] += 1
            out.plan.append(kind)
            out.host.sample(dt)

        try:
            if plan is not None:
                for kind in plan:
                    do(kind)
            else:
                while True:
                    over = time.perf_counter() - start >= seconds
                    pool = [k for k in self.shares
                            if counts[k] < self.max_ops.get(k, math.inf)
                            and (not over or counts[k] < self.min_ops[k])]
                    if not pool:
                        break
                    do(min(pool, key=lambda k: spent[k] / self.shares[k]))
        except Abort:
            pass
        out.wall_s = time.perf_counter() - start
        return out

    def finish(self, out: Outcome) -> None:
        """Untimed checks and input facts after the run."""
        self.check_equivalences(out)

    def job_s(self, out: Outcome, normalised: bool) -> float | None:
        """Seconds per unit of the workload's headline job."""
        work = out.work[self.job_metric]
        return self.job_unit * out.seconds(self.job_metric, normalised) / work if work else None

    def end_to_end(self, out: Outcome, normalised: bool = True) -> dict:
        """The timed metrics, scaled to the reference host speed (see
        speed.py) if `normalised`, else raw."""
        metrics = {name: out.work[name] / out.seconds(name, normalised)
                   if out.time[name] > 0 else None for name in RATES}
        metrics["job_s"] = self.job_s(out, normalised)
        return metrics

    def layer_extras(self) -> dict:
        return {"guard_false_positive_dests": self.info["guard_false_positive_dests"],
                "dest_repeat_share": self.info["dest_repeat_share"]}


# ---------------------------------------------------------------------------


class TrainMaxent(Workload):
    """Criterion 9, shortened: 10x10 random-feature grid (seed 11), truth
    weights (-1.7, -1.3), 5,000 sampled demos, one shard with 20% held out,
    maxent at batch 8 from (-2.5, -2.5) in 10-step chunks, each continuing
    from the last.  The fit check scores the model after 300 steps against
    the generator on the held-out demos.  Timed sampling draws 500 further
    demos per operation; eval scores 50 held-out demos per operation."""

    name = "train-maxent"
    job_metric = "steps"
    job_unit = 100
    CHUNK = 10            # optimizer steps per train_expert call
    FIT_CHUNKS = 30       # every run trains the same 300 steps from INIT
    shares = {"job": 0.45, "sample": 0.12, "eval": 0.12, "sweep.h0": 0.05,
              "sweep.h1": 0.05, "sweep.h10": 0.06, "sweep.h100": 0.07,
              "sweep.hinf": 0.08}
    min_ops = {"job": FIT_CHUNKS, "sample": 2, "eval": 2,
               **{k: 2 for k in shares if "." in k}}
    max_ops = {"job": FIT_CHUNKS}
    eval_size = 50
    TRUTH = (-1.7, -1.3)
    INIT = (-2.5, -2.5)
    DEMOS = 5000
    SAMPLE = 500          # demos per timed sampling call

    def build(self):
        self.g = rl.gen_gridworld(10, 10, feature_spec="random", rng_seed=11)
        self.truth = rl.LinearReward(np.array(self.TRUTH))
        self.w0 = np.array(self.TRUTH)
        self.info["certified_bound"] = certify(self.g, self.w0)
        self.reset()

    def prepare(self):
        """The 5,000 training demos and the one-shard partition."""
        demos = rl.sample_demonstrations(self.truth, self.g, self.DEMOS,
                                         rng_seed=sub_seed(self.seed, 3))
        shards, dropped = rl.partition_geographic(self.g, demos, 1, eval_fraction=0.2,
                                                  rng_seed=sub_seed(self.seed, 4))
        self.shard = shards[0]
        # one shard is the whole graph, so later samples share its ids
        if dropped or self.shard.subgraph.num_nodes != self.g.num_nodes or \
                not np.array_equal(self.shard.edge_ids, np.arange(self.g.num_edges)):
            raise RuntimeError("the single shard is not the whole graph")

    def reset(self):
        self.model = rl.LinearReward(np.array(self.INIT))
        self.fitted = None
        self.chunk_seeds: list[int] = []
        self.early_stopped = False

    def warm(self):
        demos = rl.sample_demonstrations(self.truth, self.g, 20, rng_seed=0)
        for _, horizon in HORIZONS:
            rl.demo_gradient(self.truth, self.g, demos[0], rl.IrlConfig(
                algorithm="receding_horizon", horizon=horizon))
        shards, _ = rl.partition_geographic(self.g, demos, 1, eval_fraction=0.2)
        cfg = rl.TrainConfig(algorithm="maxent", epochs=1, steps_per_epoch=2,
                             batch_size=BATCH, warmup=0)
        rl.train_expert(shards[0], self.truth, cfg)
        rl.evaluate(self.truth, demos[:4], self.g)

    def problem(self):
        return self.shard.subgraph, self.shard.demos, self.w0, None

    def eval_pool(self):
        return self.shard.eval_demos

    def op_sample(self, i, out):
        t0 = time.perf_counter()
        demos = out.call("sample", rl.sample_demonstrations, self.truth, self.g,
                         self.SAMPLE, rng_seed=sub_seed(self.seed, 3, i + 1))
        dt = time.perf_counter() - t0
        if out.check(f"sample {i}", len(demos) == self.SAMPLE, f"{len(demos)} demos"):
            out.measure("sample.demos_per_s", len(demos), dt)

    def op_job(self, i, out):
        seed = sub_seed(self.seed, 5, i)
        cfg = rl.TrainConfig(algorithm="maxent", epochs=1, steps_per_epoch=self.CHUNK,
                             batch_size=BATCH, warmup=self.CHUNK if i == 0 else 0,
                             rng_seed=seed)
        t0 = time.perf_counter()
        model, hist = out.call("train", rl.train_expert, self.shard, self.model, cfg)
        dt = time.perf_counter() - t0
        self.chunk_seeds.append(seed)
        self.early_stopped |= hist.early_stopped
        if out.check(f"train chunk {i}", not hist.early_stopped and
                     finite(model.get_params()), "early stop or non-finite weights"):
            out.measure("steps", self.CHUNK, dt)
        self.model = model
        if i + 1 == self.FIT_CHUNKS:
            self.fitted = model

    def finish(self, out):
        if self.fitted is None:
            return
        super().finish(out)
        g, held_out = self.shard.subgraph, self.shard.eval_demos
        learned = rl.evaluate(self.fitted, held_out, g)
        generator = rl.evaluate(self.truth, held_out, g)
        ok = learned.nll is not None and generator.nll is not None
        nll_ratio = learned.nll / generator.nll if ok else math.inf
        acc_ratio = learned.acc / generator.acc if ok else 0.0
        out.check("fit (criterion 9 bars)", not self.early_stopped and nll_ratio <= 1.05
                  and acc_ratio >= 0.9,
                  f"NLL ratio {nll_ratio:.4f} (<= 1.05), accuracy ratio "
                  f"{acc_ratio:.3f} (>= 0.9), early stop {self.early_stopped}")
        dests = [t.nodes[-1] for t in self.shard.demos]
        batches = [b for s in self.chunk_seeds
                   for b in minibatch_destinations(dests, s, BATCH, self.CHUNK)]
        w0_rew = rl.edge_rewards(rl.LinearReward(self.w0), g)
        fitted_rew = rl.edge_rewards(self.fitted, g)
        false_pos = 0
        for d in sorted(set(dests)):
            gv = rl.GoalView(g, d)
            if min(rl.cheap_bounds(gv, fitted_rew)) >= 1.0 and \
                    rl.dominant_eigenvalue(gv, fitted_rew).lambda_max < 1.0:
                false_pos += 1
        self.info.update({
            "fit": {"nll_ratio": nll_ratio, "acc_ratio": acc_ratio,
                    "weights": self.fitted.get_params().tolist()},
            "nodes": g.num_nodes, "edges": g.num_edges,
            "max_out_degree": g.max_out_degree, "demos": self.DEMOS,
            "train_demos": len(self.shard.demos),
            "lambda_max_w0": max(rl.dominant_eigenvalue(rl.GoalView(g, d), w0_rew)
                                 .lambda_max for d in sorted(set(dests))[:4]),
            "dest_repeat_share": repeat_share(batches),
            "guard_false_positive_dests": false_pos,
        })


class HorizonSweep(Workload):
    """20x20 random-feature grid (seed 1) near the feasibility boundary:
    weights about (-0.77, -0.77), demos sampled from truth -1.5 towards four
    fixed destinations, every minibatch two demos per destination."""

    name = "horizon-sweep"
    shares = {"sample": 0.12, "eval": 0.12, "sweep.h0": 0.08, "sweep.h1": 0.08,
              "sweep.h10": 0.1, "sweep.h100": 0.2, "sweep.hinf": 0.3}
    min_ops = {"sample": 2, "eval": 2, **{k: 2 for k in shares if "." in k}}
    eval_size = 64
    W0 = (-0.77, -0.77)
    TRUTH = (-1.5, -1.5)
    POOL = 64             # demos per destination for minibatches and eval
    SAMPLE = 500          # demos per timed sampling call

    def build(self):
        w = 20
        self.g = rl.gen_gridworld(w, w, feature_spec="random", rng_seed=1)
        self.dests = [5 * w + 5, 5 * w + 14, 14 * w + 5, 14 * w + 14]
        self.truth = rl.LinearReward(np.array(self.TRUTH))
        self.w0 = np.array(self.W0)
        self.info["certified_bound"] = certify(self.g, self.w0)
        pairs = self.pairs(sub_seed(self.seed, 6), 4 * self.POOL)
        self.pool = rl.sample_demonstrations(self.truth, self.g, len(pairs),
                                             rng_seed=sub_seed(self.seed, 7), pairs=pairs)
        self.by_dest = {d: [t for t in self.pool if t.nodes[-1] == d] for d in self.dests}

    def pairs(self, seed: int, n: int) -> list[tuple[int, int]]:
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < n:
            dest = self.dests[len(out) % len(self.dests)]
            origin = int(rng.integers(self.g.num_nodes))
            if origin != dest:
                out.append((origin, dest))
        return out

    def warm(self):
        for _, horizon in HORIZONS:
            rl.demo_gradient(rl.LinearReward(self.w0), self.g, self.pool[0],
                             rl.IrlConfig(algorithm="receding_horizon", horizon=horizon))
        rl.sample_demonstrations(self.truth, self.g, 4, pairs=self.pairs(0, 4))
        rl.evaluate(rl.LinearReward(self.w0), self.pool[:4], self.g)

    def problem(self):
        return self.g, self.pool, self.w0, None

    def minibatch(self, i):
        rng = np.random.default_rng(sub_seed(self.seed, 1, i))
        batch = []
        for d in self.dests:
            demos = self.by_dest[d]
            batch += [demos[int(k)] for k in rng.choice(len(demos), 2, replace=False)]
        return [batch[int(k)] for k in rng.permutation(len(batch))]

    def op_sample(self, i, out):
        pairs = self.pairs(sub_seed(self.seed, 8, i), self.SAMPLE)
        t0 = time.perf_counter()
        demos = out.call("sample", rl.sample_demonstrations, self.truth, self.g,
                         len(pairs), rng_seed=sub_seed(self.seed, 9, i), pairs=pairs)
        dt = time.perf_counter() - t0
        ok = [(t.nodes[0], t.nodes[-1]) for t in demos] == pairs
        if out.check(f"sample {i}", ok, "demos do not match the requested pairs"):
            out.measure("sample.demos_per_s", len(demos), dt)

    def job_s(self, out, normalised):
        """One minibatch at every horizon: the sum over horizons of the mean
        seconds per minibatch."""
        keys = [f"sweep.grads_per_s.{label}" for label, _ in HORIZONS]
        if not all(out.ops[k] for k in keys):
            return None
        return sum(out.seconds(k, normalised) / out.ops[k] for k in keys)

    def finish(self, out):
        super().finish(out)
        rew = rl.edge_rewards(rl.LinearReward(self.w0), self.g)
        lams, false_pos = [], 0
        for d in self.dests:
            gv = rl.GoalView(self.g, d)
            lams.append(rl.dominant_eigenvalue(gv, rew).lambda_max)
            false_pos += min(rl.cheap_bounds(gv, rew)) >= 1.0 and lams[-1] < 1.0
        batches = [[t.nodes[-1] for t in self.minibatch(i)]
                   for i in range(out.plan.count("sweep.h0"))]
        self.info.update({
            "nodes": self.g.num_nodes, "edges": self.g.num_edges,
            "max_out_degree": self.g.max_out_degree, "demos": len(self.pool),
            "lambda_max_w0": max(lams),
            "dest_repeat_share": repeat_share(batches),
            # ROADMAP B4: the training guard would skip every destination here
            "guard_false_positive_dests": false_pos,
        })


class CliPipeline(Workload):
    """In-process `routeirl.cli.main`: gen-grid 40x40 with 3 segments per
    block and 200 shortest-path demos, compress --v-cap 3, train --shards 4
    (receding horizon H=10, 2 epochs x 20 steps), eval --no-nll --merge-map,
    diagnose one destination.  Sample, eval and sweep operations use the same
    grid, demos and compression built in memory."""

    name = "cli-pipeline"
    job_metric = "pipeline"
    # the pipeline's stages are long (train about 15 s): a large share runs
    # them early, so the run does not wait for a stage started near its end
    shares = {"job": 0.48, "sample": 0.08, "eval": 0.12, "sweep.h0": 0.05,
              "sweep.h1": 0.05, "sweep.h10": 0.06, "sweep.h100": 0.08,
              "sweep.hinf": 0.08}
    min_ops = {"job": len(STAGES), "sample": 2, "eval": 2,
               **{k: 2 for k in shares if "." in k}}
    max_ops = {"job": len(STAGES)}
    eval_size = 4
    equivalence_demos = 2
    TRUTH = (-1.5, -1.5)
    GRID_SEED = 3         # fixed, like the other workloads' graphs
    DEMOS = 200
    SAMPLE = 25           # shortest-path demos per timed sampling call
    CONFIG = ("algorithm = receding_horizon\nhorizon = 10\nepochs = 2\n"
              "steps_per_epoch = 20\nwarmup = 10\nbatch_size = 8\n")

    def build(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = self.workdir / "train.cfg"
        self.config.write_text(self.CONFIG)
        self.train_seed = sub_seed(self.seed, 10)
        self.g = rl.gen_gridworld(40, 40, feature_spec="random", rng_seed=self.GRID_SEED,
                                  segments_per_block=3)
        self.truth = rl.LinearReward(np.array(self.TRUTH))
        self.reset()

    def reset(self):
        self.stage_s = 0.0
        self.facts: dict = {}

    def prepare(self):
        """What the pipeline computes, built in memory with the same seeds."""
        self.demos = rl.sample_demonstrations(self.truth, self.g, self.DEMOS,
                                              rng_seed=self.GRID_SEED, temperature=0.0)
        protected = sorted({t.nodes[-1] for t in self.demos} | {t.nodes[0] for t in self.demos})
        self.cg, self.mmap = rl.compress_graph(self.g, 3, protected=protected)
        self.cdemos = [rl.compress_trajectory(t, self.mmap, self.cg) for t in self.demos]
        self.w0 = np.array(self.TRUTH)
        self.info["certified_bound"] = certify(self.cg, self.w0)

    def warm(self):
        d = self.workdir / "warm"
        d.mkdir(parents=True, exist_ok=True)
        facts: dict = {}
        for stage in STAGES:
            self.stage(stage, d, grid=4, demos=6, shards=1, grid_seed=0, train_seed=0,
                       facts=facts, out=Outcome())
        rl.sample_demonstrations(self.truth, self.g, 2, temperature=0.0)

    def problem(self):
        return self.cg, self.cdemos, self.w0, self.mmap

    def argv(self, stage: str, d: Path, grid: int, demos: int, shards: int,
             grid_seed: int, train_seed: int) -> list[str]:
        if stage == "gen-grid":
            return ["gen-grid", "--width", str(grid), "--height", str(grid),
                    "--segments-per-block", "3", "--seed", str(grid_seed), "--weights=-1.5",
                    "--num-demos", str(demos), "--temperature", "0",
                    "--out-graph", str(d / "graph.txt"), "--out-demos", str(d / "demos.txt")]
        if stage == "compress":
            return ["compress", "--graph", str(d / "graph.txt"), "--v-cap", "3",
                    "--demos", str(d / "demos.txt"), "--out-graph", str(d / "cgraph.txt"),
                    "--out-merge-map", str(d / "merge.txt"),
                    "--out-demos", str(d / "cdemos.txt")]
        if stage == "train":
            return ["train", "--graph", str(d / "cgraph.txt"),
                    "--demos", str(d / "cdemos.txt"), "--config", str(self.config),
                    "--shards", str(shards), "--seed", str(train_seed), "--out", str(d / "run")]
        rewards = str(d / "run" / "global_rewards.txt")
        if stage == "eval":
            return ["eval", "--graph", str(d / "cgraph.txt"), "--demos", str(d / "cdemos.txt"),
                    "--rewards", rewards, "--merge-map", str(d / "merge.txt"), "--no-nll"]
        dest = (d / "cdemos.txt").read_text().split("\n", 1)[0].split()[-1]
        return ["diagnose", "--graph", str(d / "cgraph.txt"), "--rewards", rewards,
                "--destination", dest]

    def stage(self, stage: str, d: Path, grid: int, demos: int, shards: int,
              grid_seed: int, train_seed: int, facts: dict, out: Outcome) -> float:
        """Run one CLI stage in process; returns its wall seconds."""
        argv = self.argv(stage, d, grid, demos, shards, grid_seed, train_seed)
        stdout, stderr = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{stage}") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = out.call(stage, rl_cli.main, argv)
        dt = time.perf_counter() - t0
        if not out.check(f"cli {stage}", code == 0,
                         f"exit {code}: {stderr.getvalue().strip()[-300:]}"):
            raise Abort
        facts[stage] = json.loads(stdout.getvalue().strip().splitlines()[-1])
        return dt

    def op_job(self, i, out):
        stage = STAGES[i % len(STAGES)]
        d = self.workdir / "pipeline"
        d.mkdir(parents=True, exist_ok=True)
        dt = self.stage(stage, d, grid=40, demos=self.DEMOS, shards=4,
                        grid_seed=self.GRID_SEED, train_seed=self.train_seed,
                        facts=self.facts, out=out)
        self.stage_s += dt
        self.info.setdefault("stage_s", {})[stage] = dt
        if stage != STAGES[-1]:
            return
        out.measure("pipeline", 1, self.stage_s)
        table = rl.load_reward_table(d / "run" / "global_rewards.txt")
        out.check("global reward table", table.shape == (self.cg.num_edges,)
                  and finite(table), f"{table.shape} for {self.cg.num_edges} edges")
        out.check("eval n", self.facts["eval"]["n"] == self.DEMOS,
                  f"eval reports n={self.facts['eval']['n']}, expected {self.DEMOS}")

    def op_sample(self, i, out):
        t0 = time.perf_counter()
        demos = out.call("sample", rl.sample_demonstrations, self.truth, self.g,
                         self.SAMPLE, rng_seed=sub_seed(self.seed, 11, i),
                         temperature=0.0)
        dt = time.perf_counter() - t0
        if out.check(f"sample {i}", len(demos) == self.SAMPLE, f"{len(demos)} demos"):
            out.measure("sample.demos_per_s", len(demos), dt)

    def finish(self, out):
        super().finish(out)
        if "diagnose" not in self.facts:
            return
        d = self.workdir / "pipeline"
        self.check_readback(d, out)
        cfg = rl.TrainConfig.from_file(self.config)
        # the shards `train` built: the graph reloaded without its merge map
        shards, _ = rl.partition_geographic(rl.load_graph(d / "cgraph.txt"), self.cdemos,
                                            4, eval_fraction=0.2, rng_seed=self.train_seed)
        per_shard = self.facts["train"]["per_shard"]
        batches = []
        for shard, rec in zip(shards, per_shard):
            batches += minibatch_destinations([t.nodes[-1] for t in shard.demos],
                                              self.train_seed, cfg.batch_size, rec["steps"])
        diag = self.facts["diagnose"]
        grid = self.facts["gen-grid"]
        self.info.update({
            "nodes": grid["nodes"], "edges": grid["edges"],
            "max_out_degree": grid["max_out_degree"], "demos": grid["demos"],
            "compressed_nodes": self.cg.num_nodes, "compressed_edges": self.cg.num_edges,
            "compressed_max_out_degree": self.cg.max_out_degree,
            "lambda_max_diagnosed": diag["lambda_max"],
            "dest_repeat_share": repeat_share(batches),
            "guard_false_positive_dests": int(min(diag["row_bound"], diag["col_bound"]) >= 1.0
                                              and diag["lambda_max"] < 1.0),
            # defects shown as counts: demos the 4-cell partition drops, and
            # guard halvings from connector flags lost on reload (ROADMAP B2)
            "dropped_demos": self.facts["train"]["dropped_demos"],
            "guard_halvings": sum(s["guard_halvings"] for s in per_shard),
        })

    def check_readback(self, d: Path, out: Outcome) -> None:
        """The pipeline's files read back equal to the objects built in memory."""
        g = rl.load_graph(d / "graph.txt")
        out.check("graph readback", same_graph(g, self.g), "graph.txt differs")
        out.check("demo readback", rl.load_trajectories(d / "demos.txt", g) == self.demos,
                  "demos.txt differs")
        cg = rl.load_graph(d / "cgraph.txt", merge_map=rl.load_merge_map(d / "merge.txt"))
        out.check("compressed graph readback", same_graph(cg, self.cg), "cgraph.txt differs")
        out.check("compressed demo readback",
                  rl.load_trajectories(d / "cdemos.txt", cg) == self.cdemos,
                  "cdemos.txt differs")


def same_graph(a, b) -> bool:
    return (a.num_nodes == b.num_nodes and a.num_edges == b.num_edges
            and np.array_equal(a.edge_src, b.edge_src)
            and np.array_equal(a.edge_dst, b.edge_dst)
            and np.array_equal(a.features, b.features)
            and np.array_equal(a.coords, b.coords)
            and np.array_equal(a.connector_flags, b.connector_flags))


WORKLOADS = {w.name: w for w in (TrainMaxent, HorizonSweep, CliPipeline)}
