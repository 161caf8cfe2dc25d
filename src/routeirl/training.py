"""Sharded mixture-of-experts training.

The global problem is partitioned into geographic cells; each cell gets its
own expert reward model trained only on demonstrations whose destination
lies in the cell.  The global reward table is assembled edge-by-edge from the
expert owning the edge's source node.

The training loop wraps the per-demo gradient estimators with the practical
guard rails that keep the softmax family inside its feasible region: linear
learning-rate warmup, nonpositivity projection after every step, a per-epoch
spectral bound that halves the learning rate near the feasibility boundary,
and a hard per-sample skip whenever a converged backward pass cannot be
certified.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .algorithms import IrlConfig, algorithm_settings, demo_gradient
from .errors import ValidationError
from .graph import GoalView, RoadGraph, Trajectory, extract_subgraph
from .io import load_config, save_checkpoint, write_csv
from .metrics import evaluate
from .rewards import RewardModel, SparsePerEdgeReward, edge_rewards, project_nonpositive
from .spectral import cheap_bounds


@dataclass
class Shard:
    cell: int
    subgraph: RoadGraph
    node_ids: np.ndarray            # global node id per local node
    edge_ids: np.ndarray            # global edge id per local edge
    owned_nodes: np.ndarray         # global ids of nodes inside the cell
    demos: list[Trajectory]         # training demos, local ids
    eval_demos: list[Trajectory]    # held-out demos, local ids


@dataclass
class TrainConfig:
    algorithm: str = "receding_horizon"
    horizon: float = 10.0
    temperature: float = 1.0
    margin: float = 1.0
    init: str = "dijkstra"
    optimizer: str = "auto"         # auto | sgd | adam
    lr: float | None = None         # None -> per-model-kind default
    warmup: int = 100
    epochs: int = 200
    steps_per_epoch: int = 100
    batch_size: int = 8
    rng_seed: int = 0

    def __post_init__(self):
        if self.lr is not None and self.lr < 0:
            raise ValidationError("learning rate must be nonnegative")
        if self.warmup < 0 or self.epochs < 1 or self.steps_per_epoch < 1:
            raise ValidationError("bad schedule configuration")
        if self.warmup > self.epochs * self.steps_per_epoch:
            raise ValidationError("warmup exceeds the total step budget")
        if self.batch_size < 1:
            raise ValidationError("batch size must be >= 1")
        if self.optimizer not in ("auto", "sgd", "adam"):
            raise ValidationError(f"unknown optimizer {self.optimizer!r}")
        self.irl_config()  # the estimator fields fail here, not mid-run

    def irl_config(self) -> IrlConfig:
        return IrlConfig(algorithm=self.algorithm, horizon=self.horizon,
                         temperature=self.temperature, margin=self.margin,
                         init=self.init)

    @classmethod
    def from_file(cls, path: str | Path) -> "TrainConfig":
        """Flat `key = value` text config; unknown keys are rejected."""
        return cls(**load_config(path, {f.name: partial(_parse_value, f.default)
                                        for f in fields(cls)}))


def _parse_value(default, value: str):
    """value typed like the field's default; lr (default None) is a float or `none`."""
    if default is None:
        return None if value.lower() == "none" else float(value)
    return type(default)(value)


class SGD:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: np.ndarray, grad: np.ndarray, scale: float) -> np.ndarray:
        return params + (scale * self.lr) * grad


class Adam:
    """Adaptive-moment ascent with bias correction."""

    beta1, beta2, eps = 0.99, 0.999, 1e-7

    def __init__(self, lr: float):
        self.lr = lr
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray, scale: float) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        mhat = self.m / (1.0 - self.beta1 ** self.t)
        vhat = self.v / (1.0 - self.beta2 ** self.t)
        return params + (scale * self.lr) * mhat / (np.sqrt(vhat) + self.eps)


_SGD_LR = {"linear": 0.05, "dense": 0.01}
_ADAM_LR = 1e-5
# the learning rate halves each epoch whose spectral bound passes 1 - GUARD_MARGIN
GUARD_MARGIN = 0.05


def make_optimizers(model: RewardModel, cfg: TrainConfig):
    """One optimizer per parameter slice: plain SGD for feature models,
    adaptive moments for per-edge sparse parameters (unless overridden)."""
    out = []
    for kind, sl in model.param_slices():
        if cfg.optimizer == "adam" or (cfg.optimizer == "auto" and kind == "sparse"):
            opt = Adam(cfg.lr if cfg.lr is not None else _ADAM_LR)
        else:
            opt = SGD(cfg.lr if cfg.lr is not None else _SGD_LR.get(kind, 0.05))
        out.append((sl, opt))
    return out


@dataclass
class TrainHistory:
    steps: list[dict] = field(default_factory=list)
    epoch_bounds: list[float] = field(default_factory=list)
    guard_halvings: int = 0
    early_stopped: bool = False
    checkpoints: list[str] = field(default_factory=list)

    def losses(self) -> list[float]:
        return [rec["loss"] for rec in self.steps]

    def to_csv(self, path: str | Path) -> None:
        cols = ["step", "epoch", "loss", "grad_norm", "skips", "lr_scale",
                "bound", "wall_clock"]
        write_csv([cols] + [[rec[c] for c in cols] for rec in self.steps], path)


def train_expert(shard: Shard, model_init: RewardModel, cfg: TrainConfig,
                 checkpoint_dir: str | Path | None = None
                 ) -> tuple[RewardModel, TrainHistory]:
    """Minibatch ascent on the shard's demos; deterministic under the seed.

    Per epoch the spectral bound over the shard's destinations is checked and
    the learning rate halves whenever the bound exceeds 1 - GUARD_MARGIN.
    Per sample, the settings that need a converged backward pass (H=inf,
    which ``maxent`` runs at) are skipped outright when the destination's
    bound cannot certify feasibility (bound >= 1).  An epoch in which every
    sample was skipped stops training early.
    """
    if not shard.demos:
        raise ValidationError("shard has no training demos")
    model = model_init.clone()
    icfg = cfg.irl_config()
    rng = np.random.default_rng(cfg.rng_seed)
    optimizers = make_optimizers(model, cfg)
    history = TrainHistory()
    dests = sorted({traj.nodes[-1] for traj in shard.demos})
    guard = math.isinf(algorithm_settings(icfg)[0])
    lr_scale = 1.0
    t = 0
    if checkpoint_dir is not None:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
    # the epoch bound and the guard share one bound per destination and
    # model state
    rew = edge_rewards(model, shard.subgraph)
    bounds: dict[int, float] = {}

    def guard_bound(dest: int) -> float:
        if dest not in bounds:
            bounds[dest] = min(cheap_bounds(GoalView(shard.subgraph, dest), rew,
                                            cfg.temperature))
        return bounds[dest]

    for epoch in range(cfg.epochs):
        bound = max([0.0] + [guard_bound(d) for d in dests])
        history.epoch_bounds.append(bound)
        if bound > 1.0 - GUARD_MARGIN:
            lr_scale *= 0.5
            history.guard_halvings += 1
        epoch_had_update = False
        for _ in range(cfg.steps_per_epoch):
            t += 1
            t0 = time.perf_counter()
            idx = rng.choice(len(shard.demos), size=cfg.batch_size, replace=True)
            batch = [shard.demos[int(i)] for i in idx]
            if guard:
                batch = [traj for traj in batch if guard_bound(traj.nodes[-1]) < 1.0]
            kept = [rep for rep in (demo_gradient(model, shard.subgraph, traj, icfg)
                                    for traj in batch) if not rep.skipped]
            skips = cfg.batch_size - len(kept)
            losses = [rep.nll if rep.nll is not None else rep.loss for rep in kept]
            warm = min(1.0, t / cfg.warmup) if cfg.warmup > 0 else 1.0
            scale = warm * lr_scale
            grad_norm = float("nan")
            loss = float("nan")
            if kept:
                epoch_had_update = True
                batch_grad = np.mean([rep.gradient for rep in kept], axis=0)
                grad_norm = float(np.linalg.norm(batch_grad))
                finite = [x for x in losses if x is not None and math.isfinite(x)]
                loss = float(np.mean(finite)) if finite else float("nan")
                params = model.get_params().copy()
                for sl, opt in optimizers:
                    params[sl] = opt.step(params[sl], batch_grad[sl], scale)
                model.set_params(params)
                project_nonpositive(model)
                rew = edge_rewards(model, shard.subgraph)
                bounds.clear()
            history.steps.append({
                "step": t, "epoch": epoch, "loss": loss,
                "grad_norm": grad_norm, "skips": skips, "lr_scale": scale,
                "bound": bound, "wall_clock": time.perf_counter() - t0,
            })
        if checkpoint_dir is not None:
            ckpt = str(Path(checkpoint_dir) / f"{epoch}.ckpt")
            save_checkpoint(model, ckpt, metadata={"epoch": epoch})
            history.checkpoints.append(ckpt)
        if not epoch_had_update:
            history.early_stopped = True
            break
    return model, history


# ---------------------------------------------------------------------------
# sharding


def _axis_cells(coords: np.ndarray, bins: int) -> np.ndarray:
    """Balanced assignment of nodes to `bins` intervals along one axis."""
    order = np.argsort(coords, kind="stable")
    cell = np.empty(coords.shape[0], dtype=np.int64)
    for b, chunk in enumerate(np.array_split(order, bins)):
        cell[chunk] = b
    return cell


def partition_geographic(g: RoadGraph, demos: list[Trajectory], m: int, *,
                         eval_fraction: float = 0.0, rng_seed: int = 0
                         ) -> tuple[list[Shard], list[Trajectory]]:
    """Split the graph into m balanced coordinate cells and assign each demo
    to the cell of its destination.  Demos not fully contained in their
    shard's subgraph are dropped (and returned).  Deterministic.
    """
    if m < 1:
        raise ValidationError("need at least one cell")
    if m > g.num_nodes:
        raise ValidationError("more cells than nodes")
    mx = 1
    for d in range(1, int(math.isqrt(m)) + 1):
        if m % d == 0:
            mx = d
    my = m // mx
    bx = _axis_cells(g.coords[:, 0], my)   # my columns along x
    by = _axis_cells(g.coords[:, 1], mx)
    node_cell = bx * mx + by
    rng = np.random.default_rng(rng_seed)
    shards: list[Shard] = []
    dropped: list[Trajectory] = []
    demos_by_cell: dict[int, list[Trajectory]] = {c: [] for c in range(m)}
    for traj in demos:
        demos_by_cell[int(node_cell[traj.nodes[-1]])].append(traj)
    for cell in range(m):
        owned = np.nonzero(node_cell == cell)[0]
        sub, node_ids, edge_ids = extract_subgraph(g, owned)
        node_local = {int(n): i for i, n in enumerate(node_ids)}
        edge_local = {int(e): i for i, e in enumerate(edge_ids)}
        local_demos: list[Trajectory] = []
        for traj in demos_by_cell[cell]:
            if all(n in node_local for n in traj.nodes) and \
               all(e in edge_local for e in traj.edges):
                local_demos.append(Trajectory(
                    nodes=tuple(node_local[n] for n in traj.nodes),
                    edges=tuple(edge_local[e] for e in traj.edges)))
            else:
                dropped.append(traj)
        if eval_fraction > 0:
            n_eval = int(math.ceil(eval_fraction * len(local_demos)))
            perm = rng.permutation(len(local_demos))
            eval_demos = [local_demos[int(i)] for i in perm[:n_eval]]
            train_demos = [local_demos[int(i)] for i in perm[n_eval:]]
        else:
            eval_demos = []
            train_demos = local_demos
        shards.append(Shard(cell=cell, subgraph=sub, node_ids=node_ids,
                            edge_ids=edge_ids, owned_nodes=owned,
                            demos=train_demos, eval_demos=eval_demos))
    return shards, dropped


def assemble_global(g: RoadGraph, shards: list[Shard],
                    models: list[RewardModel]) -> np.ndarray:
    """Global reward table: each edge scored by the expert owning the edge's
    source node.  Raises if any edge ends up unowned."""
    if len(shards) != len(models):
        raise ValidationError("one model per shard required")
    table = np.full(g.num_edges, np.nan)
    for shard, model in zip(shards, models):
        rew = edge_rewards(model, shard.subgraph)
        owned_edge = np.isin(shard.node_ids[shard.subgraph.edge_src], shard.owned_nodes)
        table[shard.edge_ids[owned_edge]] = rew[owned_edge]
    if np.any(np.isnan(table)):
        missing = int(np.isnan(table).sum())
        raise ValidationError(f"{missing} edges not covered by any shard")
    return table


def cross_region_eval(shards: list[Shard], models: list[RewardModel], *,
                      temperature: float = 1.0) -> np.ndarray:
    """m x m exact-match accuracy: entry (i, j) evaluates expert i on shard
    j's held-out demos.  It is NaN for j != i where expert i holds per-edge
    parameters (a ``SparsePerEdgeReward``, alone or in a composite): they
    index shard i's local edge ids, which name other edges on shard j."""
    m = len(shards)
    if len(models) != m:
        raise ValidationError("one model per shard required")
    acc = np.full((m, m), np.nan)
    for j, shard in enumerate(shards):
        demos = shard.eval_demos if shard.eval_demos else shard.demos
        for i, model in enumerate(models):
            if i != j and any(kind == SparsePerEdgeReward.kind
                              for kind, _ in model.param_slices()):
                continue
            res = evaluate(model, demos, shard.subgraph,
                           temperature=temperature, nll=False)
            acc[i, j] = res.acc
    return acc
