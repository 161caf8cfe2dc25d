"""Command-line surface: synthetic problems, compression, training,
evaluation, diagnostics, and the horizon sweep.

Every run writes a manifest (command, argv, seed, versions) next to its
output so results can be reproduced bit-for-bit; exit codes are 0 (success),
2 (validation / usage error), 3 (infeasible reward configuration).
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .algorithms import IrlConfig, batch_gradient, sample_demonstrations
from .errors import InfeasibilityError, ValidationError
from .graph import GoalView, compress_graph, compress_trajectory, gen_gridworld
from .io import (export_reward_table, load_checkpoint, load_graph,
                 load_merge_map, load_reward_table, load_trajectories,
                 save_graph, save_merge_map, save_trajectories, write_csv,
                 write_json)
from .metrics import evaluate
from .planners import Planner
from .rewards import (DenseNetReward, LinearReward, SparsePerEdgeReward,
                      edge_rewards)
from .spectral import (FEASIBLE, convergence_rate_probe, dominant_eigenvalue,
                       loss_surface_scan)
from .training import (TrainConfig, assemble_global, cross_region_eval,
                       partition_geographic, train_expert)


def _manifest(args: argparse.Namespace, out: str | Path) -> None:
    doc = {
        "command": args.command,
        "argv": sys.argv[1:],
        "seed": getattr(args, "seed", None),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "routeirl": __version__,
        },
    }
    out = Path(out)
    path = out / "manifest.json" if out.is_dir() else Path(str(out) + ".manifest.json")
    write_json(doc, path, indent=2)


def _parse_floats(text: str, option: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]  # float reads "inf"
    except ValueError:
        raise ValidationError(f"{option} takes comma-separated numbers, not {text!r}") from None


def _parse_weights(text: str, dim: int) -> np.ndarray:
    w = np.array(_parse_floats(text, "--weights"), dtype=np.float64)
    if w.shape[0] == 1:
        w = np.repeat(w, dim)
    if w.shape[0] != dim:
        raise ValidationError(f"expected {dim} weights, got {w.shape[0]}")
    return w


def _load_rewards(args, g) -> np.ndarray:
    if getattr(args, "rewards", None):
        return load_reward_table(args.rewards)
    if getattr(args, "checkpoint", None):
        model, _ = load_checkpoint(args.checkpoint)
        return edge_rewards(model, g)
    raise ValidationError("provide --rewards or --checkpoint")


def _build_model(args, g):
    dim = g.features.shape[1]
    if args.model == "linear":
        return LinearReward(_parse_weights(args.weights, dim))
    if args.model == "dense":
        return DenseNetReward(dim, width=args.model_width,
                              depth=args.model_depth, rng_seed=args.seed)
    if args.model == "sparse":
        return SparsePerEdgeReward.for_graph(g, l1_coeff=args.l1)
    raise ValidationError(f"unknown model {args.model!r}")


# ---------------------------------------------------------------------------


def cmd_gen_grid(args) -> int:
    g = gen_gridworld(args.width, args.height, feature_spec=args.feature_spec,
                      rng_seed=args.seed, feature_dim=args.feature_dim,
                      segments_per_block=args.segments_per_block)
    info = {"nodes": g.num_nodes, "edges": g.num_edges,
            "max_out_degree": g.max_out_degree}
    demos = None
    if args.num_demos > 0:
        # the demos are drawn first: a run that exits 2 or 3 writes nothing
        if not args.out_demos:
            raise ValidationError("--num-demos needs --out-demos")
        model = LinearReward(_parse_weights(args.weights, g.features.shape[1]))
        demos = sample_demonstrations(model, g, args.num_demos,
                                      rng_seed=args.seed,
                                      temperature=args.temperature)
        info["demos"] = len(demos)
    save_graph(g, args.out_graph)
    if demos is not None:
        save_trajectories(demos, args.out_demos, g)
    _manifest(args, args.out_graph)
    print(json.dumps(info, sort_keys=True))
    return 0


def cmd_compress(args) -> int:
    g = load_graph(args.graph)
    protected = ()
    demos = []
    if args.demos:
        demos = load_trajectories(args.demos, g)
        # endpoints must survive merging or the demos become unrepresentable
        protected = sorted({t.nodes[-1] for t in demos}
                           | {t.nodes[0] for t in demos})
    before_sv = g.num_nodes * g.max_out_degree
    if args.out_demos and not args.demos:
        raise ValidationError("--out-demos needs --demos")
    cg, mmap = compress_graph(g, args.v_cap, protected=protected)
    # the demos are checked and written first: a run that exits 2 writes nothing
    if args.out_demos:
        save_trajectories([compress_trajectory(t, mmap, cg) for t in demos],
                          args.out_demos, cg)
    save_graph(cg, args.out_graph)
    save_merge_map(mmap, args.out_merge_map)
    after_sv = cg.num_nodes * cg.max_out_degree
    stats = {
        "nodes_before": g.num_nodes, "nodes_after": cg.num_nodes,
        "v_before": g.max_out_degree, "v_after": cg.max_out_degree,
        "sv_before": before_sv, "sv_after": after_sv,
        "sv_reduction": 1.0 - after_sv / before_sv,
    }
    _manifest(args, args.out_graph)
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    g = load_graph(args.graph)
    demos = load_trajectories(args.demos, g)
    cfg = TrainConfig.from_file(args.config)
    if args.seed is not None:
        cfg.rng_seed = args.seed
    else:
        args.seed = cfg.rng_seed   # model init + manifest see the real seed
    shards, dropped = partition_geographic(
        g, demos, args.shards, eval_fraction=args.eval_fraction,
        rng_seed=cfg.rng_seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    models = []
    summary = {"shards": args.shards, "dropped_demos": len(dropped),
               "per_shard": []}
    for shard in shards:
        model_init = _build_model(args, shard.subgraph)
        model, hist = train_expert(shard, model_init, cfg,
                                   checkpoint_dir=out / str(shard.cell))
        hist.to_csv(out / str(shard.cell) / "history.csv")
        models.append(model)
        summary["per_shard"].append({
            "cell": shard.cell, "demos": len(shard.demos),
            "eval_demos": len(shard.eval_demos),
            "steps": len(hist.steps),
            "guard_halvings": hist.guard_halvings,
            "early_stopped": hist.early_stopped,
        })
    table = assemble_global(g, shards, models)
    export_reward_table(table, out / "global_rewards.txt")
    if args.shards >= 2:
        acc = cross_region_eval(shards, models, temperature=cfg.temperature)
        # np.savetxt's number format, which this file has always used
        write_csv([[f"{x:.18e}" for x in row] for row in acc.tolist()],
                  out / "cross_region.csv")
    _manifest(args, out)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    g = load_graph(args.graph)
    mmap = load_merge_map(args.merge_map) if args.merge_map else None
    demos = load_trajectories(args.demos, g)
    rew = _load_rewards(args, g)
    res = evaluate(rew, demos, g, temperature=args.temperature,
                   nll=not args.no_nll, merge_map=mmap)
    doc = res.to_dict()
    if args.out:
        write_json(doc, args.out)
        _manifest(args, args.out)
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_diagnose(args) -> int:
    g = load_graph(args.graph)
    rew = _load_rewards(args, g)
    gv = GoalView(g, args.destination)
    rep = dominant_eigenvalue(gv, rew, temperature=args.temperature,
                              band=args.band)
    doc = {
        "lambda_max": rep.lambda_max,
        "row_bound": rep.upper_bounds[0],
        "col_bound": rep.upper_bounds[1],
        "classification": rep.classification,
        "iterations": rep.iterations,
        "converged": rep.converged,
    }
    if args.probe_rate and rep.classification == FEASIBLE:
        doc["rate"] = convergence_rate_probe(gv, rew,
                                             temperature=args.temperature)
    if args.dump_values:
        plan = Planner(g, rew, args.temperature)
        pol, _ = plan.soft(args.destination)
        # where the pass does not converge, the start it ran from
        export_reward_table(plan.exact_start(args.destination) if pol is None else pol.values,
                            args.dump_values)
        doc["values_converged"] = pol is not None
    if args.out:
        write_json(doc, args.out)
        _manifest(args, args.out)
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_scan_loss(args) -> int:
    grid = np.linspace(args.theta_min, args.theta_max, args.steps)
    rows = loss_surface_scan(grid, grid, temperature=args.temperature)
    write_csv([("theta1", "theta2", "lambda_max", "nll"), *rows], args.out)
    _manifest(args, args.out)
    print(json.dumps({"rows": len(rows), "out": args.out}))
    return 0


def cmd_sweep_horizon(args) -> int:
    if args.reps < 1 or args.timing_rounds < 1:
        raise ValidationError("--reps and --timing-rounds must be at least 1")
    horizons = _parse_floats(args.horizons, "--horizons")
    g = load_graph(args.graph)
    demos = load_trajectories(args.demos, g)
    dim = g.features.shape[1]
    weights = _parse_weights(args.weights, dim)
    timing_demos = demos[:args.batch]
    model = LinearReward(weights)
    icfgs = [IrlConfig(algorithm="receding_horizon", horizon=h,
                       temperature=args.temperature) for h in horizons]
    for icfg in icfgs * 2:  # warm the caches before timing
        batch_gradient(model, g, timing_demos, icfg)
    # best of the rounds.  A round alternates the horizons batch by batch, so a
    # burst of host load slows every horizon alike, in an order reversed every
    # pass: the slow batch run just after the longest horizon's is no one H's
    spent = np.zeros((args.timing_rounds, len(icfgs)))
    for rnd in range(args.timing_rounds):
        for rep in range(args.reps):
            for i in range(len(icfgs))[::(-1) ** rep]:
                t0 = time.perf_counter()
                batch_gradient(model, g, timing_demos, icfgs[i])
                spent[rnd, i] += time.perf_counter() - t0
    rows = []
    shard = partition_geographic(g, demos, 1, eval_fraction=0.25,
                                 rng_seed=args.seed)[0][0]
    for h, t in zip(horizons, spent.min(axis=0)):
        tcfg = TrainConfig(algorithm="receding_horizon", horizon=h,
                           temperature=args.temperature, epochs=1,
                           steps_per_epoch=args.train_steps,
                           batch_size=args.batch, warmup=10,
                           rng_seed=args.seed)
        trained, _ = train_expert(shard, LinearReward(weights), tcfg)
        res = evaluate(trained, shard.eval_demos, shard.subgraph,
                       temperature=args.temperature, nll=False)
        rows.append(("inf" if math.isinf(h) else str(int(h)), args.reps / t, res.acc))
    write_csv([("horizon", "steps_per_sec", "accuracy"), *rows], args.out)
    _manifest(args, args.out)
    print(json.dumps({"horizons": len(rows), "out": args.out}))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="routeirl",
                                description="Route-choice reward learning toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-grid", help="generate a synthetic grid problem")
    sp.add_argument("--width", type=int, required=True)
    sp.add_argument("--height", type=int, required=True)
    sp.add_argument("--segments-per-block", type=int, default=1)
    sp.add_argument("--feature-spec", choices=["constant", "random"],
                    default="random")
    sp.add_argument("--feature-dim", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--weights", default="-1.5",
                    help="true linear weights, comma separated (or one value "
                         "broadcast to all features)")
    sp.add_argument("--temperature", type=float, default=1.0)
    sp.add_argument("--num-demos", type=int, default=0)
    sp.add_argument("--out-graph", required=True)
    sp.add_argument("--out-demos")
    sp.set_defaults(func=cmd_gen_grid)

    sp = sub.add_parser("compress", help="split high-degree nodes, merge chains")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--v-cap", type=int, required=True)
    sp.add_argument("--demos")
    sp.add_argument("--out-graph", required=True)
    sp.add_argument("--out-merge-map", required=True)
    sp.add_argument("--out-demos")
    sp.set_defaults(func=cmd_compress)

    sp = sub.add_parser("train", help="sharded expert training")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--demos", required=True)
    sp.add_argument("--config", required=True)
    sp.add_argument("--shards", type=int, default=1)
    sp.add_argument("--model", choices=["linear", "dense", "sparse"],
                    default="linear")
    sp.add_argument("--weights", default="-2")
    sp.add_argument("--model-width", type=int, default=18)
    sp.add_argument("--model-depth", type=int, default=2)
    sp.add_argument("--l1", type=float, default=1e-7)
    sp.add_argument("--eval-fraction", type=float, default=0.2)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="accuracy / IoU / NLL of a reward table")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--demos", required=True)
    sp.add_argument("--rewards")
    sp.add_argument("--checkpoint")
    sp.add_argument("--merge-map")
    sp.add_argument("--temperature", type=float, default=1.0)
    sp.add_argument("--no-nll", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("diagnose", help="spectral feasibility report")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--rewards")
    sp.add_argument("--checkpoint")
    sp.add_argument("--destination", type=int, required=True)
    sp.add_argument("--temperature", type=float, default=1.0)
    sp.add_argument("--band", type=float, default=1e-6)
    sp.add_argument("--probe-rate", action="store_true")
    sp.add_argument("--dump-values")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("scan-loss", help="loss/feasibility surface grid scan")
    sp.add_argument("--theta-min", type=float, default=0.0)
    sp.add_argument("--theta-max", type=float, default=2.0)
    sp.add_argument("--steps", type=int, default=41)
    sp.add_argument("--temperature", type=float, default=1.0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_scan_loss)

    sp = sub.add_parser("sweep-horizon", help="cost/accuracy sweep over H")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--demos", required=True)
    sp.add_argument("--horizons", default="0,1,2,10,100,inf")
    sp.add_argument("--temperature", type=float, default=1.0)
    sp.add_argument("--weights", default="-2")
    sp.add_argument("--reps", type=int, default=30)
    sp.add_argument("--timing-rounds", type=int, default=3)
    sp.add_argument("--train-steps", type=int, default=60)
    sp.add_argument("--batch", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sweep_horizon)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InfeasibilityError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
