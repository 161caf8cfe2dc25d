"""Sharded expert training: determinism, guards, partitioning, assembly."""
import csv
import math

import numpy as np
import pytest

import routeirl.planners
import routeirl.training
from routeirl import (CompositeReward, DenseNetReward, GoalView, LinearReward,
                      SparsePerEdgeReward, Trajectory, ValidationError,
                      cheap_bounds, gen_gridworld, load_checkpoint)
from routeirl.algorithms import sample_demonstrations
from routeirl.graph import build_graph
from routeirl.rewards import edge_rewards
from routeirl.training import (Adam, SGD, TrainConfig, assemble_global,
                               cross_region_eval, make_optimizers,
                               partition_geographic, train_expert)


def _single_shard(n=20, rng_seed=2, demo_seed=5):
    g = gen_gridworld(4, 4, feature_spec="random", rng_seed=rng_seed)
    truth = LinearReward(np.array([-1.0, -0.5]))
    demos = sample_demonstrations(truth, g, n, rng_seed=demo_seed)
    shards, dropped = partition_geographic(g, demos, 1)
    assert not dropped
    return g, shards[0]


def _small_cfg(**kw):
    base = dict(algorithm="receding_horizon", horizon=2.0, epochs=2,
                steps_per_epoch=8, batch_size=4, warmup=5, rng_seed=3)
    base.update(kw)
    return TrainConfig(**base)


def test_training_is_deterministic_under_seed():
    _, shard = _single_shard()
    init = LinearReward(np.array([-2.0, -2.0]))
    m1, h1 = train_expert(shard, init, _small_cfg())
    m2, h2 = train_expert(shard, init, _small_cfg())
    assert np.array_equal(m1.get_params(), m2.get_params())
    assert h1.losses() == h2.losses()
    m3, _ = train_expert(shard, init, _small_cfg(rng_seed=4))
    assert not np.array_equal(m1.get_params(), m3.get_params())
    # the initial model is untouched
    assert np.array_equal(init.get_params(), [-2.0, -2.0])


def test_zero_learning_rate_freezes_params():
    _, shard = _single_shard()
    init = LinearReward(np.array([-1.5, -0.7]))
    model, hist = train_expert(shard, init, _small_cfg(lr=0.0))
    assert np.array_equal(model.get_params(), init.get_params())
    assert not hist.early_stopped
    assert all(math.isfinite(l) for l in hist.losses())


def test_training_moves_toward_better_fit():
    _, shard = _single_shard()
    init = LinearReward(np.array([-3.0, -3.0]))
    model, hist = train_expert(
        shard, init, _small_cfg(epochs=4, steps_per_epoch=25, warmup=10))
    losses = hist.losses()
    head = float(np.mean(losses[:10]))
    tail = float(np.mean(losses[-10:]))
    assert tail < head
    assert not np.array_equal(model.get_params(), init.get_params())


def test_guard_halves_lr_when_bound_is_hot():
    # near-zero weights put the spectral bound well above 1; the likelihood
    # with a one-step horizon stays defined, so training proceeds at a
    # halved rate instead of skipping
    _, shard = _single_shard()
    init = LinearReward(np.array([-0.01, -0.01]))
    cfg = _small_cfg(horizon=1.0, lr=0.0, epochs=3)
    model, hist = train_expert(shard, init, cfg)
    assert hist.guard_halvings == 3
    assert all(b > 1.0 - routeirl.training.GUARD_MARGIN for b in hist.epoch_bounds)
    scales = [rec["lr_scale"] for rec in hist.steps]
    # warmup=5 finishes inside epoch 0, after which only halving moves it
    assert scales[5] == 0.5
    assert scales[-1] == pytest.approx(0.125)
    assert not hist.early_stopped


def test_infeasible_samples_skipped_and_early_stop():
    _, shard = _single_shard()
    init = LinearReward(np.array([-0.01, -0.01]))
    model, hist = train_expert(shard, init, _small_cfg(algorithm="maxent"))
    # every sample is uncertifiable, every step skips, epoch 0 ends training
    assert hist.early_stopped
    assert len(hist.epoch_bounds) == 1
    assert all(rec["skips"] == 4 for rec in hist.steps)
    assert all(math.isnan(rec["loss"]) for rec in hist.steps)
    assert np.array_equal(model.get_params(), init.get_params())


def test_feasible_maxent_never_skips():
    _, shard = _single_shard()
    init = LinearReward(np.array([-2.0, -2.0]))
    _, hist = train_expert(shard, init, _small_cfg(algorithm="maxent",
                                                   epochs=1))
    assert all(rec["skips"] == 0 for rec in hist.steps)
    assert not hist.early_stopped


def test_optimizer_defaults_per_model_kind():
    g = gen_gridworld(3, 3)
    cfg = TrainConfig()
    (sl, opt), = make_optimizers(LinearReward(np.array([-1.0, -1.0])), cfg)
    assert isinstance(opt, SGD) and opt.lr == 0.05
    (sl, opt), = make_optimizers(DenseNetReward(2, width=4, depth=1), cfg)
    assert isinstance(opt, SGD) and opt.lr == 0.01
    (sl, opt), = make_optimizers(SparsePerEdgeReward(g.num_edges), cfg)
    assert isinstance(opt, Adam)
    assert (opt.lr, opt.beta1, opt.beta2, opt.eps) == (1e-5, 0.99, 0.999, 1e-7)
    comp = CompositeReward([LinearReward(np.array([-1.0, -1.0])),
                            SparsePerEdgeReward(g.num_edges)])
    opts = make_optimizers(comp, cfg)
    assert isinstance(opts[0][1], SGD) and isinstance(opts[1][1], Adam)
    # explicit choices override the per-kind defaults
    (sl, opt), = make_optimizers(SparsePerEdgeReward(g.num_edges),
                                 TrainConfig(optimizer="sgd", lr=0.3))
    assert isinstance(opt, SGD) and opt.lr == 0.3
    (sl, opt), = make_optimizers(LinearReward(np.array([-1.0, -1.0])),
                                 TrainConfig(optimizer="adam"))
    assert isinstance(opt, Adam) and opt.lr == 1e-5


def test_config_from_file(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "algorithm = maxent   # solver\n"
        "\n"
        "horizon = inf\n"
        "lr = none\n"
        "epochs = 3\n"
        "steps_per_epoch = 5\n"
        "warmup = 0\n"
        "rng_seed = 7\n")
    cfg = TrainConfig.from_file(path)
    assert cfg.algorithm == "maxent"
    assert math.isinf(cfg.horizon)
    assert cfg.lr is None
    assert (cfg.epochs, cfg.steps_per_epoch, cfg.warmup, cfg.rng_seed) == \
        (3, 5, 0, 7)
    assert cfg.batch_size == 8   # untouched defaults survive

    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("learning_rate = 0.1\n")
    with pytest.raises(ValidationError):
        TrainConfig.from_file(bad_key)
    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("epochs 3\n")
    with pytest.raises(ValidationError):
        TrainConfig.from_file(bad_line)


def test_config_validation(tmp_path):
    with pytest.raises(ValidationError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(warmup=10_000_000)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(optimizer="lbfgs")
    # estimator fields are checked on construction, before any run starts
    for bad in ({"algorithm": "qlearning"}, {"horizon": 2.5}, {"temperature": -1},
                {"temperature": math.nan}, {"temperature": math.inf},
                {"horizon": 0, "temperature": math.inf}, {"margin": -3},
                {"margin": math.inf}, {"margin": math.nan}, {"init": "zeros"}):
        with pytest.raises(ValidationError):
            TrainConfig(**bad)
    p = tmp_path / "train.cfg"
    p.write_text("algorithm = receding_horizon\nhorizon = 2.5\n")
    with pytest.raises(ValidationError):
        TrainConfig.from_file(p)
    p.write_text("horizon = inf\n")
    assert math.isinf(TrainConfig.from_file(p).horizon)
    # unparsable values name the file, line and key instead of escaping as
    # ValueError
    for text, key in (("algorithm = maxent\nepochs = 2.5\n", "epochs"),
                      ("lr = fast\n", "lr")):
        p.write_text(text)
        line = text.count("\n")
        with pytest.raises(ValidationError, match=f"train.cfg:{line}: .*'{key}'"):
            TrainConfig.from_file(p)


def test_partition_containment_and_drops():
    g = gen_gridworld(6, 6)
    inside = Trajectory.from_nodes(g, [0, 1, 2])
    # dest 3 sits in the right cell; the first edge runs two hops outside
    # it, beyond the one-hop halo the shard subgraph keeps
    crossing = Trajectory.from_nodes(g, [1, 2, 3])
    shards, dropped = partition_geographic(g, [inside, crossing], 4)
    assert len(shards) == 4
    assert [t.nodes for t in dropped] == [crossing.nodes]
    kept = [t for s in shards for t in s.demos]
    assert len(kept) == 1
    # local ids map back to the original demo
    for s in shards:
        for t in s.demos:
            nodes = tuple(int(s.node_ids[n]) for n in t.nodes)
            edges = tuple(int(s.edge_ids[e]) for e in t.edges)
            assert (nodes, edges) == (inside.nodes, inside.edges)
    # cells tile the node set
    owned = np.concatenate([s.owned_nodes for s in shards])
    assert sorted(owned.tolist()) == list(range(g.num_nodes))
    with pytest.raises(ValidationError):
        partition_geographic(g, [inside], 0)
    with pytest.raises(ValidationError):
        partition_geographic(g, [inside], g.num_nodes + 1)


def test_partition_eval_split_deterministic():
    g = gen_gridworld(5, 5, feature_spec="random", rng_seed=1)
    truth = LinearReward(np.array([-1.0, -0.8]))
    demos = sample_demonstrations(truth, g, 12, rng_seed=9)
    s1, d1 = partition_geographic(g, demos, 2, eval_fraction=0.5, rng_seed=4)
    s2, d2 = partition_geographic(g, demos, 2, eval_fraction=0.5, rng_seed=4)
    for a, b in zip(s1, s2):
        assert [t.edges for t in a.demos] == [t.edges for t in b.demos]
        assert [t.edges for t in a.eval_demos] == [t.edges for t in b.eval_demos]
    for shard in s1:
        total = len(shard.demos) + len(shard.eval_demos)
        assert len(shard.eval_demos) == math.ceil(0.5 * total)
    assert len(d1) == len(d2)


def test_assemble_global_uses_source_owner():
    g = gen_gridworld(4, 4, feature_spec="random", rng_seed=6)
    shards, _ = partition_geographic(g, [Trajectory.from_nodes(g, [0, 1])], 2)
    models = [LinearReward(np.array([-1.0, -0.5])),
              LinearReward(np.array([-0.2, -2.0]))]
    table = assemble_global(g, shards, models)
    assert table.shape == (g.num_edges,)
    assert np.all(np.isfinite(table))
    per_model = [edge_rewards(m, g) for m in models]
    owner = np.empty(g.num_nodes, dtype=np.int64)
    for i, s in enumerate(shards):
        owner[s.owned_nodes] = i
    expect = np.where(owner[g.edge_src] == 0, per_model[0], per_model[1])
    assert np.array_equal(table, expect)


def test_assemble_global_rejects_gaps():
    g = gen_gridworld(4, 4)
    shards, _ = partition_geographic(g, [Trajectory.from_nodes(g, [0, 1])], 2)
    with pytest.raises(ValidationError):
        assemble_global(g, shards, [LinearReward(np.array([-1.0, -1.0]))])
    with pytest.raises(ValidationError):
        assemble_global(g, shards[:1], [LinearReward(np.array([-1.0, -1.0]))])


def test_checkpoints_written_per_epoch(tmp_path):
    _, shard = _single_shard(n=8)
    init = LinearReward(np.array([-1.5, -1.0]))
    model, hist = train_expert(shard, init, _small_cfg(epochs=3,
                                                       steps_per_epoch=2),
                               checkpoint_dir=tmp_path / "ck")
    assert len(hist.checkpoints) == 3
    for epoch, path in enumerate(hist.checkpoints):
        loaded, meta = load_checkpoint(path)
        assert meta["epoch"] == epoch
        assert loaded.get_params().shape == init.get_params().shape
    last, _ = load_checkpoint(hist.checkpoints[-1])
    assert np.array_equal(last.get_params(), model.get_params())


def test_epoch_bound_reads_the_model_after_the_last_update(tmp_path):
    # the bounds the epoch bound and the guard read are reset on every
    # update, so each epoch's bound is the previous epoch's final model's
    _, shard = _single_shard()
    cfg = _small_cfg(algorithm="maxent", epochs=3, steps_per_epoch=4, warmup=0,
                     optimizer="sgd", lr=0.2)
    _, hist = train_expert(shard, LinearReward(np.array([-1.0, -0.8])), cfg,
                           checkpoint_dir=tmp_path)
    assert len(hist.epoch_bounds) == 3 and len(set(hist.epoch_bounds)) == 3
    dests = sorted({t.destination for t in shard.demos})
    for epoch, path in enumerate(hist.checkpoints[:-1]):
        rew = edge_rewards(load_checkpoint(path)[0], shard.subgraph)
        assert hist.epoch_bounds[epoch + 1] == max(
            min(cheap_bounds(GoalView(shard.subgraph, d), rew)) for d in dests)


def test_guard_builds_no_planner(monkeypatch):
    # the guard keeps plain bounds per destination: every reversed graph
    # built in training belongs to a demo's gradient
    _, shard = _single_shard()
    calls = {"_reversed_graph": 0, "demo_gradient": 0}
    for module, name in ((routeirl.planners, "_reversed_graph"),
                         (routeirl.training, "demo_gradient")):
        def counting(*args, _real=getattr(module, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(module, name, counting)
    _, hist = train_expert(shard, LinearReward(np.array([-2.0, -2.0])),
                           _small_cfg(algorithm="maxent", epochs=2))
    assert len(hist.steps) == 16 and calls["demo_gradient"] > 0
    assert calls["_reversed_graph"] == calls["demo_gradient"]


def test_history_csv_round_trip(tmp_path):
    _, shard = _single_shard(n=8)
    _, hist = train_expert(shard, LinearReward(np.array([-1.5, -1.0])),
                           _small_cfg(epochs=1, steps_per_epoch=4, warmup=2))
    path = tmp_path / "history.csv"
    hist.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "epoch", "loss", "grad_norm", "skips",
                       "lr_scale", "bound", "wall_clock"]
    assert len(rows) == 1 + len(hist.steps)
    got = [float(r[2]) for r in rows[1:]]
    assert got == hist.losses()


def test_cross_region_eval_recovers_truth():
    g = gen_gridworld(6, 6, feature_spec="random", rng_seed=8)
    truth = LinearReward(np.array([-1.0, -0.5]))
    pairs = [(0, 14), (12, 2), (3, 35), (23, 5), (9, 34), (21, 9)]
    demos = sample_demonstrations(truth, g, len(pairs), rng_seed=3,
                                  temperature=0.0, pairs=pairs)
    shards, dropped = partition_geographic(g, demos, 2, eval_fraction=0.5,
                                           rng_seed=0)
    assert not dropped
    assert all(s.eval_demos for s in shards)
    bad = LinearReward(np.array([-0.05, -4.0]))
    acc = cross_region_eval(shards, [truth, bad])
    assert acc.shape == (2, 2)
    assert np.all((acc >= 0.0) & (acc <= 1.0))
    # demos are the truth model's greedy routes, so the truth row is perfect
    assert np.all(acc[0] == 1.0)
    # per-edge parameters index their own shard's edge ids: off that shard
    # such an expert reads NaN, alone or in a composite
    sparse = SparsePerEdgeReward.for_graph(shards[0].subgraph)
    for expert in (sparse, CompositeReward([truth, sparse])):
        acc = cross_region_eval(shards, [expert, truth])
        assert np.isnan(acc[0, 1]) and not np.isnan(acc[[0, 1, 1], [0, 0, 1]]).any()
    with pytest.raises(ValidationError):
        cross_region_eval(shards, [truth])
