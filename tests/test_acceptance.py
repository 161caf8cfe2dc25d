"""End-to-end acceptance checks for the whole toolkit.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible under `pytest -s`); the assert carries the same verdict.
"""
import math
import time

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import shortest_path

from routeirl import (CompositeReward, DenseNetReward, GoalView, LinearReward,
                      SparsePerEdgeReward, Trajectory, build_graph,
                      compress_graph, compress_trajectory, gen_gridworld,
                      gen_random_graph, gen_two_state_loop, split_high_degree,
                      two_state_loop_rewards)
from routeirl.algorithms import IrlConfig, demo_gradient, sample_demonstrations
from routeirl.cli import main as cli_main
from routeirl.metrics import diff_of_proportions, evaluate
from routeirl.planners import Planner, rollout
from routeirl.rewards import edge_rewards
from routeirl.spectral import (classify, convergence_rate_probe,
                               dominant_eigenvalue, loss_surface_scan)
from routeirl.training import TrainConfig, partition_geographic, train_expert

from oracles import (birl_gradient, closed_form_forward, diamond_graph,
                     enumerate_simple_paths, loopy_graph, maxent_gradient, mmp_gradient)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _graph_diameter(g) -> int:
    adj = scipy.sparse.csr_matrix(
        (np.ones(g.num_edges), (g.edge_src, g.edge_dst)),
        shape=(g.num_nodes, g.num_nodes))
    d = shortest_path(adj, unweighted=True)
    return int(d[np.isfinite(d)].max())


def _feasible_linear(g, weights, dests, *, lam_cap=0.95, tail=None):
    """Scale weights up in magnitude until every destination block is
    strictly feasible (and, optionally, until lam**tail <= 1e-8)."""
    w = np.asarray(weights, dtype=np.float64).copy()
    for _ in range(60):
        model = LinearReward(w)
        rew = edge_rewards(model, g)
        lam = max(dominant_eigenvalue(GoalView(g, d), rew).lambda_max
                  for d in dests)
        if lam < lam_cap and (tail is None or lam == 0.0
                              or lam ** tail <= 1e-8):
            return model, lam
        w = w * 1.5
    raise AssertionError("could not scale rewards into the feasible region")


# ---------------------------------------------------------------------------
# 1. gradient reductions


def test_criterion_01_reduction_triangle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = {"mmp": 0.0, "birl": 0.0, "maxent": 0.0}
    for i in range(50):
        n = int(rng.integers(6, 31))
        g = gen_random_graph(n, rng_seed=int(rng.integers(1 << 31)))
        horizon = 4 * _graph_diameter(g)
        pairs = []
        while len(pairs) < 2:
            o, d = int(rng.integers(n)), int(rng.integers(n))
            if o != d:
                pairs.append((o, d))
        w0 = -rng.uniform(0.5, 2.0, size=2)
        model, _ = _feasible_linear(g, w0, [d for _, d in pairs],
                                    tail=horizon)
        demos = sample_demonstrations(model, g, 2, rng_seed=i, pairs=pairs)
        common = dict(temperature=1.0, tol=1e-12, max_iters=100_000)
        for demo in demos:
            reps = {
                "h0": demo_gradient(model, g, demo, IrlConfig(
                    algorithm="receding_horizon", horizon=0, margin=0.0,
                    **common)),
                "h1": demo_gradient(model, g, demo, IrlConfig(
                    algorithm="receding_horizon", horizon=1, **common)),
                "hH": demo_gradient(model, g, demo, IrlConfig(
                    algorithm="receding_horizon", horizon=horizon, **common)),
                "mmp": mmp_gradient(model, g, demo, IrlConfig(
                    algorithm="mmp", margin=0.0, **common)),
                "birl": birl_gradient(model, g, demo, IrlConfig(
                    algorithm="birl", **common)),
                "maxent": maxent_gradient(model, g, demo, IrlConfig(
                    algorithm="maxent", init="dijkstra", **common)),
            }
            assert not any(r.skipped for r in reps.values())
            worst["mmp"] = max(worst["mmp"], float(np.max(np.abs(
                reps["h0"].gradient - reps["mmp"].gradient))))
            worst["birl"] = max(worst["birl"], float(np.max(np.abs(
                reps["h1"].gradient - reps["birl"].gradient))))
            worst["maxent"] = max(worst["maxent"], float(np.max(np.abs(
                reps["hH"].gradient - reps["maxent"].gradient))))
    elapsed = time.perf_counter() - t0
    ok = (worst["mmp"] <= 1e-8 and worst["birl"] <= 1e-8
          and worst["maxent"] <= 1e-6 and elapsed < 60.0)
    _verdict(1, ok,
             f"H=0 vs margin-matching {worst['mmp']:.2e} (<=1e-8), "
             f"H=1 vs one-step {worst['birl']:.2e} (<=1e-8), "
             f"H=4*diam vs converged {worst['maxent']:.2e} (<=1e-6), "
             f"{elapsed:.1f}s over 50 graphs")


# ---------------------------------------------------------------------------
# 2. value ordering and warm-start dominance


def test_criterion_02_ordering_and_init_dominance():
    loop = gen_two_state_loop()
    grid5 = gen_gridworld(5, 5, feature_spec="random", rng_seed=4)
    grid10 = gen_gridworld(10, 10, feature_spec="random", rng_seed=5)
    cases = [
        (diamond_graph(), np.array([-0.5, -1.0, -0.5, -1.0]), 3, 1.0),
        (loopy_graph(), None, 4, 1.0),
        (loop, two_state_loop_rewards(loop, 1.0, 1.2), 2, 1.0),
        (grid5, grid5.features @ np.array([-1.0, -0.6]), 0, 1.0),
        # near-deterministic instance where the warm start pays off most
        (grid10, grid10.features @ np.array([-2.2, -0.02]), 0, 0.2),
    ]
    reductions = []
    for g, rew, dest, temp in cases:
        if rew is None:
            rew = g.features @ np.array([-1.0])
        plan = Planner(g, rew, temp)
        vd = plan.best_values(dest) / temp
        vd[dest] = 0.0
        cold, it_cold = plan.soft(dest, init="onehot", tol=1e-9, max_iters=100_000)
        warm, it_warm = plan.soft(dest, init="dijkstra", tol=1e-9, max_iters=100_000)
        assert cold is not None and warm is not None
        v_cold, v_warm = cold.values, warm.values
        ind = np.zeros(g.num_nodes)
        ind[dest] = 1.0
        assert np.all(ind <= np.exp(vd) + 1e-15)
        assert np.all(vd <= v_cold + 1e-9)
        assert np.all(vd <= v_warm + 1e-9)
        assert it_warm <= it_cold
        reductions.append((it_cold, it_warm))
    cold10, warm10 = reductions[-1]
    saving = (cold10 - warm10) / cold10
    ok = saving >= 0.10
    _verdict(2, ok,
             f"ordering holds on {len(cases)} graphs; 10x10 backward "
             f"iterations {cold10} -> {warm10} ({100 * saving:.0f}% saved, "
             f">=10% required)")


# ---------------------------------------------------------------------------
# 3. feasibility boundary


def test_criterion_03_boundary_classification():
    g = gen_two_state_loop()
    gv = GoalView(g, 2)

    def cls(t1, t2):
        rep = dominant_eigenvalue(gv, two_state_loop_rewards(g, t1, t2))
        return rep.classification

    sym = math.log(2.0)
    asym = -math.log(1.0 - math.exp(-1.0))
    flips = [
        cls(sym - 0.01, sym - 0.01) == "Infeasible",
        cls(sym + 0.01, sym + 0.01) == "Feasible",
        cls(asym - 0.01, 1.0) == "Infeasible",
        cls(asym + 0.01, 1.0) == "Feasible",
        cls(1.0, asym - 0.01) == "Infeasible",
        cls(1.0, asym + 0.01) == "Feasible",
    ]
    rng = np.random.default_rng(7)
    agree = 0
    n_feasible = 0
    while agree < 100:
        n = int(rng.integers(4, 21))
        g = gen_random_graph(n, rng_seed=int(rng.integers(1 << 31)))
        scale = float(rng.uniform(0.02, 1.2))
        rew = g.features @ np.array([-scale, -scale])
        dest = int(rng.integers(n))
        gv = GoalView(g, dest)
        rep = dominant_eigenvalue(gv, rew)
        if abs(rep.lambda_max - 1.0) < 0.02:
            continue   # undecidable within this iteration budget
        pol, _ = Planner(g, rew).soft(dest, init="onehot", tol=1e-9,
                                      max_iters=2000)
        conv = pol is not None
        assert conv == (rep.classification == "Feasible"), \
            f"disagreement at lambda={rep.lambda_max}"
        n_feasible += rep.classification == "Feasible"
        agree += 1
    ok = all(flips) and agree == 100 and 0 < n_feasible < 100
    _verdict(3, ok,
             f"boundary flips at +-0.01 on both axes; backward convergence "
             f"matches classification on 100 random MDPs "
             f"({n_feasible} feasible / {100 - n_feasible} infeasible)")


# ---------------------------------------------------------------------------
# 4. feasible-set midpoint convexity


def test_criterion_04_feasible_set_convexity():
    grid = np.linspace(0.0, 2.0, 41)
    rows = loss_surface_scan(grid, grid)
    lam = rows[:, 2].reshape(41, 41)
    feas = np.vectorize(lambda x: classify(x) == "Feasible")(lam)
    fi, fj = np.nonzero(feas)
    si = fi[:, None] + fi[None, :]
    sj = fj[:, None] + fj[None, :]
    even = (si % 2 == 0) & (sj % 2 == 0)
    mids_ok = feas[si // 2, sj // 2]
    violations = int(np.count_nonzero(even & ~mids_ok))
    ok = violations == 0 and fi.size > 100
    _verdict(4, ok,
             f"{fi.size} feasible lattice points on the 41x41 scan, "
             f"{violations} midpoint violations (0 required)")


# ---------------------------------------------------------------------------
# 5. convergence rate


def test_criterion_05_convergence_rate():
    loop = gen_two_state_loop()
    rate1 = convergence_rate_probe(GoalView(loop, 2),
                                   two_state_loop_rewards(loop, 1.0, 2.0))
    analytic1 = math.exp(-1.0) + math.exp(-2.0)   # rank-one block spectrum

    g2 = build_graph([(0, 0.0, 0.0), (1, 1.0, 0.0)],
                     [(0, 0, 0, [0.7]), (1, 0, 1, [1.0])])
    rate2 = convergence_rate_probe(GoalView(g2, 1),
                                   g2.features @ np.array([-1.0]))
    analytic2 = math.exp(-0.7)                    # single self-loop mode

    rate3 = convergence_rate_probe(GoalView(diamond_graph(), 3),
                                   np.array([-0.5, -1.0, -0.5, -1.0]))

    err1 = abs(rate1 - analytic1) / analytic1
    err2 = abs(rate2 - analytic2) / analytic2
    ok = err1 <= 0.05 and err2 <= 0.05 and rate3 == 0.0
    _verdict(5, ok,
             f"fitted decay {rate1:.5f} vs analytic {analytic1:.5f} "
             f"({100 * err1:.2f}%), {rate2:.5f} vs {analytic2:.5f} "
             f"({100 * err2:.2f}%), nilpotent instance reports "
             f"{rate3} (5% allowed)")


# ---------------------------------------------------------------------------
# 6. compression losslessness


def test_criterion_06_compression():
    w = np.array([-0.9, -0.7])
    for seed in (0, 1, 2):
        g = gen_random_graph(9, rng_seed=seed, extra_edges=18)
        rew = g.features @ w
        gs, mm = split_high_degree(g, 2)
        assert gs.max_out_degree <= 2
        rews = gs.features @ w
        for o, d in ((0, 8), (2, 5)):
            before = sorted(math.fsum(rew[e] for e in p)
                            for p in enumerate_simple_paths(g, o, d))
            after = sorted(math.fsum(rews[e] for e in p)
                           for p in enumerate_simple_paths(
                               gs, int(mm.node_image[o]),
                               int(mm.node_image[d])))
            assert before == after

    g = gen_gridworld(6, 6, feature_spec="random", rng_seed=5,
                      segments_per_block=2)
    model = LinearReward(np.array([-1.0, -0.8]))
    demos = sample_demonstrations(model, g, 6, rng_seed=11)
    protected = {t.origin for t in demos} | {t.destination for t in demos}
    gc, mm = compress_graph(g, 4, protected=protected)
    rew_g = edge_rewards(model, g)
    rew_c = edge_rewards(model, gc)
    len_before = len_after = 0
    for t in demos:
        ct = compress_trajectory(t, mm, gc)
        len_before += len(t.edges)
        len_after += len(ct.edges)
        assert math.fsum(rew_g[e] for e in t.edges) == \
            math.fsum(rew_c[e] for e in ct.edges)
    assert len_after < len_before

    g20 = gen_gridworld(20, 20, segments_per_block=2)
    gc20, _ = compress_graph(g20, 4)
    sv_before = g20.num_nodes * g20.max_out_degree
    sv_after = gc20.num_nodes * gc20.max_out_degree
    reduction = 1.0 - sv_after / sv_before
    ok = reduction >= 0.25
    _verdict(6, ok,
             f"split path-reward multisets exact on 3 random graphs; merged "
             f"demo rewards exact on a subdivided grid; 20x20 slot count "
             f"{sv_before} -> {sv_after} ({100 * reduction:.0f}% reduction, "
             f">=25% required)")


# ---------------------------------------------------------------------------
# 7. gradient correctness


def _fd(f, x, h=1e-6):
    out = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        out[i] = (f(xp) - f(xm)) / (2.0 * h)
    return out


def test_criterion_07_finite_difference_gradients():
    g = gen_gridworld(3, 3, feature_spec="random", rng_seed=0)
    truth = LinearReward(np.array([-1.5, -1.2]))
    demo = sample_demonstrations(truth, g, 1, rng_seed=2)[0]
    rng = np.random.default_rng(9)

    dense = DenseNetReward(2, width=5, depth=2, rng_seed=3)
    p = dense.get_params().copy()
    p[-1] += 3.0   # push the output bias so every reward is safely negative
    dense.set_params(p)
    sparse = SparsePerEdgeReward.for_graph(g, baseline=np.full(g.num_edges,
                                                               -1.6))
    sparse.set_params(-rng.uniform(0.05, 0.3, size=g.num_edges))
    sparse2 = SparsePerEdgeReward.for_graph(g, baseline=np.full(g.num_edges,
                                                                -0.5))
    sparse2.set_params(-rng.uniform(0.05, 0.2, size=g.num_edges))
    models = {
        "linear": LinearReward(np.array([-1.2, -0.7])),
        "dense": dense,
        "sparse": sparse,
        "composite": CompositeReward([LinearReward(np.array([-1.0, -0.8])),
                                      sparse2]),
    }
    common = dict(temperature=1.0, tol=1e-12, max_iters=200_000)
    algs = {
        "maxent": IrlConfig(algorithm="maxent", init="dijkstra", **common),
        "birl": IrlConfig(algorithm="birl", **common),
        "mmp": IrlConfig(algorithm="mmp", margin=1.0, **common),
        "rh_h0": IrlConfig(algorithm="receding_horizon", horizon=0,
                           margin=0.0, **common),
        "rh_h1": IrlConfig(algorithm="receding_horizon", horizon=1, **common),
        "rh_inf": IrlConfig(algorithm="receding_horizon", horizon=math.inf,
                            init="dijkstra", **common),
    }
    # objective whose downhill direction each algorithm's gradient must be
    objective_of = {
        "maxent": algs["maxent"], "birl": algs["birl"], "mmp": algs["mmp"],
        "rh_h0": algs["rh_h0"], "rh_h1": algs["birl"],
        "rh_inf": algs["maxent"],
    }

    def loss(model, params, cfg):
        m2 = model.clone()
        m2.set_params(params)
        if cfg.algorithm == "mmp":
            rep = demo_gradient(m2, g, demo, cfg)
            return rep.loss   # margin-augmented best-path loss
        if cfg.algorithm == "receding_horizon" and cfg.horizon == 0:
            # the greedy rollouts telescope to the plain best-path hinge
            rew = edge_rewards(m2, g)
            best = Planner(g, rew).best_values(demo.destination)
            hinge = best[demo.origin] - math.fsum(rew[e] for e in demo.edges)
            return hinge / cfg.temperature
        rep = demo_gradient(m2, g, demo, cfg)
        assert rep.nll is not None and math.isfinite(rep.nll)
        return rep.nll

    worst = 0.0
    lam = max(dominant_eigenvalue(GoalView(g, demo.destination),
                                  edge_rewards(m, g)).lambda_max
              for m in models.values())
    assert lam < 0.95
    for mname, model in models.items():
        for aname, cfg in algs.items():
            rep = demo_gradient(model, g, demo, cfg)
            assert not rep.skipped, f"{aname} on {mname} skipped"
            obj = objective_of[aname]
            fd = _fd(lambda prm: loss(model, prm, obj),
                     model.get_params().copy())
            denom = max(float(np.max(np.abs(fd))), 1e-9)
            rel = float(np.max(np.abs(rep.gradient + fd))) / denom
            worst = max(worst, rel)
            assert rel <= 1e-4, f"{aname} on {mname}: rel err {rel:.2e}"
    ok = worst <= 1e-4
    _verdict(7, ok,
             f"{len(models) * len(algs)} algorithm/model pairings on a 3x3 "
             f"grid, worst relative FD error {worst:.2e} (<=1e-4)")


# ---------------------------------------------------------------------------
# 8. closed-form forward pass


def test_criterion_08_closed_form_equivalence():
    worst = 0.0
    for n, seed in ((200, 3), (1000, 5)):
        g = gen_random_graph(n, rng_seed=seed)
        model, _ = _feasible_linear(g, np.array([-1.2, -0.9]), [0],
                                    lam_cap=0.9)
        rew = edge_rewards(model, g)
        gv = GoalView(g, 0)
        pol, _ = Planner(g, rew).soft(0, init="dijkstra", tol=1e-12,
                                      max_iters=100_000)
        assert pol is not None
        mass = np.zeros(g.num_nodes)
        mass[[1, n // 2, n - 1]] = 1.0
        cf = closed_form_forward(gv, pol, mass)
        ro = rollout(gv, [(pol, None)], mass, tol=1e-15, max_steps=1_000_000)
        assert not ro.truncated
        worst = max(worst, float(np.max(np.abs(cf - ro.edge_mass))))
    ok = worst <= 1e-8
    _verdict(8, ok,
             f"linear solve vs iterative rollout on 200- and 1000-node "
             f"graphs, max visitation gap {worst:.2e} (<=1e-8)")


# ---------------------------------------------------------------------------
# 9. synthetic recovery


def test_criterion_09_synthetic_recovery():
    t0 = time.perf_counter()
    g = gen_gridworld(10, 10, feature_spec="random", rng_seed=11)
    truth = LinearReward(np.array([-1.7, -1.3]))
    demos = sample_demonstrations(truth, g, 5000, rng_seed=5)
    shards, dropped = partition_geographic(g, demos, 1, eval_fraction=0.2,
                                           rng_seed=0)
    assert not dropped
    shard = shards[0]
    cfg = TrainConfig(algorithm="maxent", epochs=30, steps_per_epoch=100,
                      batch_size=8, warmup=100, rng_seed=0)
    model, hist = train_expert(shard, LinearReward(np.array([-2.5, -2.5])),
                               cfg)
    assert not hist.early_stopped
    learned = evaluate(model, shard.eval_demos, shard.subgraph)
    reference = evaluate(truth, shard.eval_demos, shard.subgraph)
    elapsed = time.perf_counter() - t0
    nll_ratio = learned.nll / reference.nll
    acc_ratio = learned.acc / reference.acc
    ok = nll_ratio <= 1.05 and acc_ratio >= 0.9 and elapsed < 600.0
    _verdict(9, ok,
             f"held-out NLL {learned.nll:.4f} vs generator {reference.nll:.4f} "
             f"(ratio {nll_ratio:.3f} <= 1.05), accuracy {learned.acc:.3f} vs "
             f"{reference.acc:.3f} (ratio {acc_ratio:.2f} >= 0.9), "
             f"{elapsed:.0f}s (< 600s); weights {model.get_params().round(3)}")


# ---------------------------------------------------------------------------
# 10. significance test


def test_criterion_10_two_proportion_test():
    r1 = diff_of_proportions(0.5030, 0.5007, 360_000)
    r2 = diff_of_proportions(0.5564, 0.5546, 360_000)
    ok = abs(r1.p_value - 0.051) <= 0.005 and abs(r2.p_value - 0.122) <= 0.010
    _verdict(10, ok,
             f"p={r1.p_value:.4f} (0.051 +- 0.005) and p={r2.p_value:.4f} "
             f"(0.122 +- 0.010) at n=360000 per arm")


# ---------------------------------------------------------------------------
# 11. horizon sweep


def test_criterion_11_horizon_sweep(tmp_path, capsys):
    gpath = str(tmp_path / "graph.txt")
    dpath = str(tmp_path / "demos.txt")
    code = cli_main(["gen-grid", "--width", "20", "--height", "20",
                     "--seed", "1", "--weights=-0.77", "--num-demos", "40",
                     "--out-graph", gpath, "--out-demos", dpath])
    assert code == 0
    out = str(tmp_path / "sweep.csv")
    code = cli_main(["sweep-horizon", "--graph", gpath, "--demos", dpath,
                     "--horizons", "0,1,2,10,100,inf", "--reps", "10",
                     "--timing-rounds", "3", "--train-steps", "40",
                     "--batch", "8", "--weights=-0.77", "--seed", "0",
                     "--out", out])
    assert code == 0
    capsys.readouterr()
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "horizon,steps_per_sec,accuracy"
    names = [l.split(",")[0] for l in lines[1:]]
    sps = [float(l.split(",")[1]) for l in lines[1:]]
    accs = [float(l.split(",")[2]) for l in lines[1:]]
    assert names == ["0", "1", "2", "10", "100", "inf"]
    ok = all(b <= a for a, b in zip(sps, sps[1:]))
    _verdict(11, ok,
             "steps/sec nonincreasing over H: "
             + ", ".join(f"{n}:{s:.1f}" for n, s in zip(names, sps))
             + "; accuracy (reported, not asserted): "
             + ", ".join(f"{n}:{a:.2f}" for n, a in zip(names, accs)))
