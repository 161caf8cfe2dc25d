import ast
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from routeirl import (
    GoalView,
    IrlConfig,
    LinearReward,
    TrainConfig,
    Trajectory,
    ValidationError,
    batch_gradient,
    demo_gradient,
    edge_rewards,
    gen_gridworld,
    gen_random_graph,
    sample_demonstrations,
)
import oracles
import routeirl
import routeirl.algorithms
from routeirl.planners import Planner, RolloutResult, Successors, _default_iters, greedy_path
from oracles import (birl_gradient, diamond_graph, fd_gradient, loopy_graph,
                     maxent_gradient, mmp_gradient, mp_soft_values,
                     tie_loop_graph)

TOP = Trajectory(nodes=(0, 1, 3), edges=(0, 2))
BOT = Trajectory(nodes=(0, 2, 3), edges=(1, 3))


def test_maxent_nll_is_path_partition():
    g = diamond_graph()
    m = LinearReward(np.array([-1.0]))
    cfg = IrlConfig(algorithm="maxent", tol=1e-12)
    rep = demo_gradient(m, g, TOP, cfg)
    # two walks only: P(top) = e^-1 / (e^-1 + e^-2)
    z = np.logaddexp(-1.0, -2.0)
    assert abs(rep.nll - (z + 1.0)) < 1e-12
    rep_b = demo_gradient(m, g, BOT, cfg)
    assert abs(rep_b.nll - (z + 2.0)) < 1e-12
    # NLL == v(origin) - r(tau)/T in general (the loopy fixture, vs mpmath)
    lg = loopy_graph()
    lm = LinearReward(np.array([-1.1]))
    lrew = edge_rewards(lm, lg)
    demo = Trajectory.from_nodes(lg, [0, 1, 4])
    lrep = demo_gradient(lm, lg, demo, IrlConfig(algorithm="maxent", tol=1e-13,
                                                 max_iters=3000))
    v_ref = mp_soft_values(GoalView(lg, 4), lrew, iters=4000)
    want = v_ref[0] - (lrew[0] + lrew[6])
    assert abs(lrep.nll - want) < 1e-10


def _nll_of(weights, g, traj, cfg):
    rep = demo_gradient(LinearReward(weights), g, traj, cfg)
    assert not rep.skipped
    return rep.nll


def test_maxent_gradient_is_nll_descent():
    g = loopy_graph()
    w = np.array([-1.2])
    cfg = IrlConfig(algorithm="maxent", tol=1e-12, max_iters=5000)
    demo = Trajectory.from_nodes(g, [0, 3, 4])
    rep = demo_gradient(LinearReward(w), g, demo, cfg)
    fd = fd_gradient(lambda p: _nll_of(p, g, demo, cfg), w, h=1e-6)
    assert np.max(np.abs(rep.gradient + fd)) < 1e-7  # ascent on -NLL


def test_birl_gradient_is_nll_descent():
    g = loopy_graph()
    w = np.array([-0.9])
    cfg = IrlConfig(algorithm="birl")
    demo = Trajectory.from_nodes(g, [0, 1, 2, 3, 4])
    rep = demo_gradient(LinearReward(w), g, demo, cfg)
    fd = fd_gradient(lambda p: _nll_of(p, g, demo, cfg), w, h=1e-6)
    assert np.max(np.abs(rep.gradient + fd)) < 1e-7


def test_mmp_gradient_is_loss_descent():
    g = loopy_graph()
    w = np.array([-1.3])
    cfg = IrlConfig(algorithm="mmp", margin=0.3)
    demo = Trajectory.from_nodes(g, [0, 1, 4])

    def loss_of(p):
        rep = demo_gradient(LinearReward(p), g, demo, cfg)
        return rep.loss

    rep = demo_gradient(LinearReward(w), g, demo, cfg)
    fd = fd_gradient(loss_of, w, h=1e-7)
    assert np.max(np.abs(rep.gradient + fd)) < 1e-6


def test_mmp_margin_spares_demo_edges():
    g = diamond_graph()
    m = LinearReward(np.array([-1.0]))
    # small margin: the demo route stays optimal, zero loss, zero gradient
    rep = demo_gradient(m, g, TOP, IrlConfig(algorithm="mmp", margin=0.4))
    assert rep.loss == 0.0
    assert np.all(rep.gradient == 0.0)
    # larger margin pushes the alternative above the demo route
    rep2 = demo_gradient(m, g, TOP, IrlConfig(algorithm="mmp", margin=0.6))
    # loss = (r + m)(bottom) - r(top) = (-2 + 1.2) - (-1)
    assert abs(rep2.loss - 0.2) < 1e-12
    # gradient = features(top) - features(bottom) = 1.0 - 2.0
    assert abs(rep2.gradient[0] - (-1.0)) < 1e-12


# the library plans soft policies in the linear domain and the oracles in
# the log domain (scipy's logsumexp), so soft gradients agree to rounding
SOFT_ATOL = 1e-12


def _same_report(rep, ref, value, *, iters=False, atol=0.0):
    """Full-report agreement with an oracle: skip reason, the gradient
    within atol (bitwise at 0), the named objective (`nll` or `loss`) to
    1e-12, rollout steps and truncation, and with `iters` the backward
    iterations."""
    assert (rep.skipped, rep.reason) == (ref.skipped, ref.reason)
    if iters:
        assert rep.backward_iters == ref.backward_iters
    if ref.skipped:
        return
    assert np.max(np.abs(rep.gradient - ref.gradient), initial=0.0) <= atol
    assert abs(getattr(rep, value) - getattr(ref, value)) <= 1e-12
    assert (rep.rollout_steps, rep.truncated) == (ref.rollout_steps, ref.truncated)


def _check_reductions(m, g, demo, margins, *, tol_inf, max_iters=None):
    for margin in margins:
        ref = mmp_gradient(m, g, demo, IrlConfig(algorithm="mmp", margin=margin))
        for temperature in (1.0, 0.5):  # mmp is temperature-free
            rep = demo_gradient(m, g, demo, IrlConfig(
                algorithm="mmp", margin=margin, temperature=temperature))
            _same_report(rep, ref, "loss")
            assert rep.nll is None
    # plain H=0 degenerates to the margin method at margin 0
    g0 = demo_gradient(m, g, demo,
                       IrlConfig(algorithm="receding_horizon", horizon=0,
                                 margin=0.7)).gradient
    assert np.array_equal(g0, mmp_gradient(
        m, g, demo, IrlConfig(algorithm="mmp", margin=0.0)).gradient)

    for temperature in (1.0, 0.5, 2.0):
        ref = birl_gradient(m, g, demo, IrlConfig(algorithm="birl",
                                                  temperature=temperature))
        rep = demo_gradient(m, g, demo, IrlConfig(algorithm="birl",
                                                  temperature=temperature))
        _same_report(rep, ref, "nll", atol=SOFT_ATOL)
        assert rep.loss is None
        # H=1 is one softmax step over best values
        _same_report(demo_gradient(m, g, demo, IrlConfig(
            algorithm="receding_horizon", horizon=1, temperature=temperature)),
            ref, "nll", atol=SOFT_ATOL)

    ginf = demo_gradient(m, g, demo,
                         IrlConfig(algorithm="receding_horizon", horizon=math.inf,
                                   tol=1e-13, max_iters=max_iters)).gradient
    gmx = maxent_gradient(m, g, demo, IrlConfig(algorithm="maxent", tol=1e-13,
                                                max_iters=max_iters)).gradient
    assert np.max(np.abs(ginf - gmx)) < tol_inf
    for temperature in (1.0, 0.6):
        for init in ("dijkstra", "onehot"):
            cfg = IrlConfig(algorithm="maxent", temperature=temperature,
                            init=init, tol=1e-13, max_iters=max_iters)
            ref = maxent_gradient(m, g, demo, cfg)
            _same_report(demo_gradient(m, g, demo, cfg), ref, "nll",
                         iters=True, atol=SOFT_ATOL)
            # the maxent name is RH(inf), which reads `init` too
            _same_report(demo_gradient(m, g, demo, IrlConfig(
                algorithm="receding_horizon", horizon=math.inf,
                temperature=temperature, init=init, tol=1e-13,
                max_iters=max_iters)), ref, "nll", iters=True, atol=SOFT_ATOL)


def test_horizon_reductions():
    g = diamond_graph()
    m = LinearReward(np.array([-1.0]))
    for demo in (TOP, BOT):
        _check_reductions(m, g, demo, (0.0, 0.4, 0.6, 1.0), tol_inf=1e-12)
    # every edge ties at reward 0, so a first-slot greedy walk would circle
    # 0 <-> 1; the tree's walk is the demo's best path 0 -> 2, and the
    # margin method and plain H=0 agree on a zero loss and gradient
    tg = tie_loop_graph()
    tm = LinearReward(np.array([-1.0]))
    demo = Trajectory.from_nodes(tg, [0, 2])
    ref = mmp_gradient(tm, tg, demo, IrlConfig(algorithm="mmp", margin=0.0))
    assert not ref.skipped and (ref.loss, ref.rollout_steps) == (0.0, 1)
    assert np.array_equal(ref.gradient, [0.0])
    _same_report(demo_gradient(tm, tg, demo,
                               IrlConfig(algorithm="mmp", margin=0.0)), ref, "loss")
    h0 = demo_gradient(tm, tg, demo, IrlConfig(algorithm="receding_horizon", horizon=0))
    assert (h0.skipped, h0.nll, h0.loss, h0.rollout_steps, h0.truncated) == (
        False, 0.0, None, ref.rollout_steps, ref.truncated)
    assert np.array_equal(h0.gradient, ref.gradient)


def test_horizon_reductions_cyclic():
    g = loopy_graph()
    m = LinearReward(np.array([-1.0]))
    # margins that would make a reward-gain loop are left out; margin 1 on
    # the long demo zeroes the 1<->2 and 0->3->0 loops, and the tree's walk
    # takes the best path past them
    for nodes, margins in (([0, 1, 2, 3, 4], (0.0, 0.3, 1.0)),
                           ([0, 1, 4], (0.0, 0.3)), ([2, 1, 4], (0.0, 0.3))):
        _check_reductions(m, g, Trajectory.from_nodes(g, nodes), margins,
                          tol_inf=1e-9, max_iters=5000)


def test_mmp_tie_loop_after_the_origin_is_not_truncated():
    # margin 1 zeroes the 1<->2 loop, where first-slot ties would circle;
    # the tree's walks from 1 and 2 reach the destination, and only the
    # origin's walk (0->3) enters the gradient
    g = loopy_graph()
    m = LinearReward(np.array([-1.0]))
    demo = Trajectory.from_nodes(g, [0, 1, 2, 3])
    cfg = IrlConfig(algorithm="mmp", margin=1.0)
    rep = demo_gradient(m, g, demo, cfg)
    assert (rep.skipped, rep.rollout_steps, rep.truncated) == (False, 1, False)
    assert np.array_equal(rep.gradient, [1.0]) and rep.loss == 2.0
    _same_report(rep, mmp_gradient(m, g, demo, cfg), "loss")
    r_aug = edge_rewards(m, g) + np.where(np.isin(np.arange(g.num_edges), demo.edges), 0.0, 1.0)
    pol = Planner(g, r_aug).greedy(3)
    assert [greedy_path(g, pol, u).nodes for u in (1, 2)] == [(1, 2, 3), (2, 3)]


def test_mmp_finds_the_best_path_past_a_zero_reward_loop():
    # margin 1 on the long demo makes the 0 -> 3 -> 0 loop reward 0, and row
    # 3 ties its exit to 4 with the loop back to 0 (its first slot): a
    # first-slot walk circles 0 <-> 3 and would skip the demo.  The tree's
    # walk takes the best augmented path 0 -> 3 -> 4
    g = loopy_graph()
    m = LinearReward(np.array([-1.0]))
    demo = Trajectory.from_nodes(g, [0, 1, 2, 3, 4])
    cfg = IrlConfig(algorithm="mmp", margin=1.0)
    rep = demo_gradient(m, g, demo, cfg)
    ref = mmp_gradient(m, g, demo, cfg)
    assert not rep.skipped
    _same_report(rep, ref, "loss")
    r = edge_rewards(m, g)
    r_aug = r + np.where(np.isin(np.arange(g.num_edges), demo.edges), 0.0, 1.0)
    assert rep.rollout_steps == 2  # 0 -> 3 -> 4
    assert rep.loss == oracles.best_path_reward(g, r_aug, 0, 4) - oracles.walk_reward(r, demo.edges)


def test_reductions_on_generated_graphs():
    """Each algorithm name against its oracle on seeded random graphs."""
    cfgs = [IrlConfig(algorithm="mmp", margin=margin) for margin in (0.0, 0.3)]
    cfgs += [IrlConfig(algorithm="birl")]
    cfgs += [IrlConfig(algorithm="maxent", temperature=temperature, init=init)
             for temperature in (1.0, 0.6) for init in ("dijkstra", "onehot")]
    oracle = {"mmp": (mmp_gradient, "loss"), "birl": (birl_gradient, "nll"),
              "maxent": (maxent_gradient, "nll")}
    m = LinearReward(np.array([-1.0, -0.8]))
    for seed in range(10):
        g = gen_random_graph(6 + seed, rng_seed=seed, extra_edges=seed % 5 + 3)
        for demo in sample_demonstrations(m, g, 3, rng_seed=seed):
            for cfg in cfgs:
                ref_fn, value = oracle[cfg.algorithm]
                _same_report(demo_gradient(m, g, demo, cfg),
                             ref_fn(m, g, demo, cfg), value,
                             iters=cfg.algorithm == "maxent",
                             atol=0.0 if cfg.algorithm == "mmp" else SOFT_ATOL)


def test_closed_form_tails_keep_the_stepped_gradients(monkeypatch):
    # every estimator with its greedy tails in closed form against the same
    # estimator whose rollouts with a greedy tail step on the dense oracle:
    # H=0 and mmp (unit mass) stay bitwise, and H=inf has no greedy tail;
    # 1 <= H < inf sums in another order, within 1e-12 of the largest entry
    m = LinearReward(np.array([-1.0, -0.8]))
    cfgs = [IrlConfig(horizon=h) for h in (0, 1, 2, 10, math.inf)]
    cfgs += [IrlConfig(algorithm="mmp", margin=margin) for margin in (0.0, 0.5)]
    cases = []
    for seed in range(6):
        g = gen_random_graph(10 + seed, rng_seed=seed, extra_edges=seed % 4 + 4)
        for demo in sample_demonstrations(m, g, 3, rng_seed=seed):
            cases += [(g, demo, cfg) for cfg in cfgs]
    closed = [demo_gradient(m, g, demo, cfg) for g, demo, cfg in cases]
    real = routeirl.algorithms.rollout

    def stepped(gv, schedule, mass):
        if not isinstance(schedule[-1][0], Successors):
            return real(gv, schedule, mass)
        edge_mass, steps, truncated, lost, absorbed, _ = oracles.rollout_dense(
            gv, schedule, mass, max_steps=_default_iters(gv.graph.num_nodes))
        return RolloutResult(edge_mass, steps, truncated, lost, absorbed)

    monkeypatch.setattr(routeirl.algorithms, "rollout", stepped)
    finite_h = 0
    for (g, demo, cfg), rep in zip(cases, closed):
        ref = demo_gradient(m, g, demo, cfg)
        assert (rep.skipped, rep.reason, rep.backward_iters, rep.rollout_steps,
                rep.truncated, rep.nll, rep.loss) == (
            ref.skipped, ref.reason, ref.backward_iters, ref.rollout_steps,
            ref.truncated, ref.nll, ref.loss)
        if ref.skipped:
            continue
        if cfg.algorithm == "mmp" or cfg.horizon in (0, math.inf):
            assert np.array_equal(rep.gradient, ref.gradient)
        else:
            bound = 1e-12 * max(1.0, np.abs(ref.gradient).max())
            assert np.abs(rep.gradient - ref.gradient).max() <= bound
            finite_h += 1
    assert finite_h >= 40


def _library_callers(names) -> list[str]:
    """module.function of every call in src/routeirl/ to a name in names."""
    callers = []
    for path in sorted(Path(routeirl.__file__).parent.glob("*.py")):
        stack = [f"{path.stem}.<module>"]

        class Visitor(ast.NodeVisitor):
            def visit_FunctionDef(self, node):
                stack.append(f"{path.stem}.{node.name}")
                self.generic_visit(node)
                stack.pop()

            visit_AsyncFunctionDef = visit_FunctionDef

            def visit_Call(self, node):
                f = node.func
                if getattr(f, "id", getattr(f, "attr", None)) in names:
                    callers.append(stack[-1])
                self.generic_visit(node)

        Visitor().visit(ast.parse(path.read_text()))
    return callers


def test_only_the_receding_horizon_estimator_calls_backprop():
    assert _library_callers({"backprop"}) == ["algorithms.receding_horizon_gradient"]


def test_one_function_runs_the_shortest_path_routines():
    # scipy.sparse.csgraph's dijkstra and bellman_ford run on the planner's
    # reversed graph only
    assert set(_library_callers({"dijkstra", "bellman_ford"})) == {
        "planners._shortest_paths"}


def test_only_file_loading_builds_graphs_from_records():
    # the generators and the compression and sharding transforms build
    # arrays and skip the record parser
    assert set(_library_callers({"build_graph"})) == {"io.load_graph"}


def test_the_planner_makes_every_plan_the_estimator_reads():
    kernels = {"slot_rewards", "softmax_backup", "policy_from_values",
               "power_iteration_backward", "_soft_plan", "_scaled_backup"}
    assert not [c for c in _library_callers(kernels) if c.startswith("algorithms.")]
    assert not _library_callers({"softmax_backup"})
    assert _library_callers({"_soft_plan"}) == ["planners.soft"]


def test_the_log_sum_exp_stays_with_the_reference_backup():
    # the library computes in the linear domain; its log-sum-exp serves only
    # the public log-domain backup, and the spectral code imports neither
    assert _library_callers({"_logsumexp_rows"}) == ["planners.softmax_backup"]
    tree = ast.parse((Path(routeirl.__file__).parent / "spectral.py").read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "planners" for a in node.names}
    assert imported and not imported & {"_logsumexp_rows", "softmax_backup"}


def test_an_oracle_is_not_a_copy_of_a_library_function():
    # a reference that moved out of the library into the oracles was moved,
    # not copied: no module-level function name is defined in both
    def defined(paths):
        return {node.name for path in paths for node in ast.parse(path.read_text()).body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}

    library = defined(Path(routeirl.__file__).parent.glob("*.py"))
    assert "power_iteration_backward" in defined([Path(oracles.__file__)])
    assert not library & defined([Path(oracles.__file__)])


def test_the_library_keeps_only_what_it_runs(tmp_path):
    # the test-only planners are oracles, the wrappers that built a
    # throwaway planner for one call are gone, and so are the training
    # settings no caller set; I - A has one assembly, scipy's, and a
    # greedy plan is its tree, with no probability table
    removed = ("closed_form_forward", "slot_rewards", "dijkstra_values", "greedy_policy",
               "_identity_minus_slots")
    assert not [name for name in removed
                if hasattr(routeirl, name) or hasattr(routeirl.planners, name)]
    assert not hasattr(routeirl.RoadGraph, "slot_pattern")
    g = gen_gridworld(3, 3)
    greedy = Planner(g, np.full(g.num_edges, -1.0)).greedy(4)
    assert isinstance(greedy, Successors)
    assert not hasattr(greedy, "probs") and not hasattr(greedy, "successors")

    def callers(node, name, scope):
        """The scopes (module.Class.function) in node that call name."""
        found = []
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Call) and name in (getattr(child.func, "attr", None),
                                                        getattr(child.func, "id", None)):
                found.append(scope)
            found += callers(child, name, inner)
        return found

    splu = [caller for path in Path(routeirl.__file__).parent.glob("*.py")
            for caller in callers(ast.parse(path.read_text()), "splu", path.stem)]
    assert splu == ["planners.Planner._factor"]
    source = Path(oracles.__file__).read_text()
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    assert {"closed_form_forward", "slot_rewards"} <= defined
    # the oracle's I - P is scipy's own assembly, not the library's
    assert "_identity_minus_slots" not in source
    p = tmp_path / "train.cfg"
    for key in ("beta1", "beta2", "eps", "guard_margin"):
        p.write_text(f"epochs = 2\n{key} = 0.5\n")
        with pytest.raises(ValidationError, match=f"train.cfg:2: unknown key '{key}'"):
            TrainConfig.from_file(p)


def _counting(monkeypatch, name):
    """Patch every routeirl module's copy of the planners function name with
    a wrapper that counts its calls."""
    calls = Counter()
    real = getattr(routeirl.planners, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    for module in (routeirl.planners, routeirl.algorithms, routeirl.metrics):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_a_reward_table_is_checked_once(monkeypatch):
    calls = _counting(monkeypatch, "_checked_rewards")
    g = gen_gridworld(5, 5)
    m = LinearReward(np.array([-0.8, -0.8]))
    demos = [Trajectory.from_nodes(g, [0, 1, 2, 7, 12]),
             Trajectory.from_nodes(g, [6, 7, 12]),
             Trajectory.from_nodes(g, [3, 8, 13, 12])]
    cfgs = [IrlConfig(horizon=h) for h in (0, 1, 10, math.inf)]
    for cfg in cfgs + [IrlConfig(algorithm="mmp")]:
        for demo in demos:
            calls.clear()
            assert not demo_gradient(m, g, demo, cfg).skipped
            assert calls["_checked_rewards"] == 1, cfg
    for cfg in cfgs:
        calls.clear()
        batch_gradient(m, g, demos, cfg)
        assert calls["_checked_rewards"] == 1, cfg
    for nll in (True, False):
        calls.clear()
        routeirl.evaluate(m, demos, g, nll=nll)
        assert calls["_checked_rewards"] == 1


def test_a_batch_plans_each_destination_once(monkeypatch):
    calls = _counting(monkeypatch, "_scaled_backup")
    g = gen_gridworld(5, 5)
    m = LinearReward(np.array([-0.8, -0.8]))
    to12 = [Trajectory.from_nodes(g, [0, 1, 2, 7, 12]),
            Trajectory.from_nodes(g, [6, 7, 12]),
            Trajectory.from_nodes(g, [3, 8, 13, 12])]
    to20 = [Trajectory.from_nodes(g, [15, 20]), Trajectory.from_nodes(g, [10, 15, 20])]
    batch = to12 + to20 + to12[:1]
    cfg = IrlConfig(horizon=10)
    _, reports = batch_gradient(m, g, batch, cfg)
    assert calls["_scaled_backup"] == 10 * 2
    for demo, rep in zip(batch, reports):
        assert rep.backward_iters == 10
        solo = demo_gradient(m, g, demo, cfg)
        assert np.array_equal(rep.gradient, solo.gradient) and rep.nll == solo.nll
    # a pass that does not converge is kept with its count: every repeat of
    # its destination reports the same skip without running it again
    calls.clear()
    _, reports = batch_gradient(m, g, batch, IrlConfig(horizon=math.inf, max_iters=3))
    assert all(rep.skipped and rep.backward_iters == 3 for rep in reports)
    assert calls["_scaled_backup"] == 3 * 2


def test_oracle_estimators_call_no_library_estimator(monkeypatch):
    estimators = ("receding_horizon_gradient", "demo_gradient", "batch_gradient")
    referenced = set(vars(oracles))
    for fn in (maxent_gradient, birl_gradient, mmp_gradient):
        referenced |= set(fn.__code__.co_names)
    assert not referenced & set(estimators)

    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle called a library estimator")

    for name in estimators:
        monkeypatch.setattr(routeirl, name, forbidden)
        monkeypatch.setattr(routeirl.algorithms, name, forbidden)
    g = loopy_graph()
    m = LinearReward(np.array([-1.0]))
    demo = Trajectory.from_nodes(g, [0, 1, 2, 3, 4])
    assert not birl_gradient(m, g, demo, IrlConfig(algorithm="birl")).skipped
    assert not mmp_gradient(m, g, demo, IrlConfig(algorithm="mmp",
                                                  margin=0.3)).skipped
    assert not maxent_gradient(m, g, demo, IrlConfig(algorithm="maxent",
                                                     max_iters=5000)).skipped


def test_operation_count_nondecreasing_in_horizon():
    g = gen_gridworld(5, 5)
    m = LinearReward(np.array([-0.8, -0.8]))
    demo = Trajectory.from_nodes(g, [0, 1, 2, 7, 12])
    costs = []
    for h in (0, 1, 2, 5, 10, math.inf):
        rep = demo_gradient(m, g, demo,
                            IrlConfig(algorithm="receding_horizon", horizon=h))
        assert not rep.skipped
        costs.append(rep.backward_iters + rep.rollout_steps)
    assert all(a <= b for a, b in zip(costs, costs[1:])), costs


def test_receding_horizon_diagnostic_nll_endpoints():
    g = diamond_graph()
    m = LinearReward(np.array([-1.0]))
    # H=0 follows the deterministic planner: on-route demos price at 0
    rep = demo_gradient(m, g, TOP, IrlConfig(algorithm="receding_horizon",
                                             horizon=0))
    assert rep.nll == 0.0
    rep_off = demo_gradient(m, g, BOT, IrlConfig(algorithm="receding_horizon",
                                                 horizon=0))
    assert rep_off.nll == math.inf
    # H=inf matches the converged softmax likelihood
    ri = demo_gradient(m, g, BOT, IrlConfig(algorithm="receding_horizon",
                                            horizon=math.inf, tol=1e-13))
    rm = demo_gradient(m, g, BOT, IrlConfig(algorithm="maxent", tol=1e-13))
    assert abs(ri.nll - rm.nll) < 1e-12


def test_skip_reports_on_infeasible_rewards():
    g = loopy_graph()
    m = LinearReward(np.array([-0.01]))  # rewards ~0: backward diverges
    demo = Trajectory.from_nodes(g, [0, 1, 4])
    for alg in ("maxent",):
        rep = demo_gradient(m, g, demo, IrlConfig(algorithm=alg, max_iters=200))
        assert rep.skipped and rep.gradient is None
        assert "converge" in rep.reason
    rep = demo_gradient(m, g, demo,
                        IrlConfig(algorithm="receding_horizon", horizon=math.inf,
                                  max_iters=200))
    assert rep.skipped
    # finite horizons never need the fixed point
    rep = demo_gradient(m, g, demo,
                        IrlConfig(algorithm="receding_horizon", horizon=3))
    assert not rep.skipped


def test_batch_gradient_averages_non_skipped():
    g = loopy_graph()
    m = LinearReward(np.array([-1.0]))
    cfg = IrlConfig(algorithm="birl")
    demos = [Trajectory.from_nodes(g, [0, 1, 4]),
             Trajectory.from_nodes(g, [1, 2, 3, 4])]
    gmean, reports = batch_gradient(m, g, demos, cfg)
    singles = [demo_gradient(m, g, t, cfg).gradient for t in demos]
    assert np.array_equal(gmean, np.mean(singles, axis=0))
    assert len(reports) == 2 and not any(r.skipped for r in reports)
    # every demo skipped -> no direction
    bad = LinearReward(np.array([-0.01]))
    gnone, reps = batch_gradient(bad, g, demos,
                                 IrlConfig(algorithm="maxent", max_iters=100))
    assert gnone is None and all(r.skipped for r in reps)


def test_sample_demonstrations_properties():
    g = gen_gridworld(5, 5)
    m = LinearReward(np.array([-1.0, -1.0]))
    a = sample_demonstrations(m, g, 12, rng_seed=4)
    b = sample_demonstrations(m, g, 12, rng_seed=4)
    assert a == b  # deterministic under the seed
    for t in a:
        t.validate(g)
        assert len(set(t.nodes)) == len(t.nodes)  # loop-free
    # pinned origin/destination pairs are honored
    pairs = [(0, 24), (24, 0), (3, 21)]
    c = sample_demonstrations(m, g, 3, rng_seed=1, pairs=pairs)
    assert [(t.origin, t.destination) for t in c] == pairs
    # temperature zero draws the deterministic best route
    d = sample_demonstrations(m, g, 1, rng_seed=0, temperature=0.0,
                              pairs=[(0, 24)])
    best = greedy_path(g, Planner(g, edge_rewards(m, g)).greedy(24), 0)
    assert d[0] == best


def test_greedy_sampling_draws_as_a_choice_per_hop(monkeypatch):
    # T=0 walks follow the successor array and draw one double per hop tried;
    # the reference draws every hop with rng.choice from the one-hot rows.
    # Equal demos pin the draw counts.  Graphs of exact ties (w = 0) would
    # loop under first-slot ties, but the tree's walk from every reaching
    # origin reaches the destination, so no walk is rejected
    rejected = 0
    real = oracles.sample_walk_choice

    def walk(g, pol, origin, dest, rng):
        nonlocal rejected
        out = real(g, pol, origin, dest, rng)
        rejected += out is None
        return out

    monkeypatch.setattr(oracles, "sample_walk_choice", walk)
    graphs = [gen_random_graph(8 + seed, rng_seed=seed, extra_edges=6 + seed)
              for seed in range(8)] + [loopy_graph(), tie_loop_graph()]
    sampled = 0
    for i, g in enumerate(graphs):
        for w in (-1.0, 0.0, -0.1):
            m = LinearReward(np.full(g.feature_dim, w))
            want = oracles.sample_per_demo(m, g, 8, rng_seed=i, temperature=0.0)
            assert sample_demonstrations(m, g, 8, rng_seed=i, temperature=0.0) == want
            sampled += len(want)
    assert sampled == 8 * 3 * len(graphs) and rejected == 0


def _hub_graph() -> routeirl.RoadGraph:
    """Node 0 leads to 1..8, to 2 over three parallel edges, and 3 and 6 are
    dead ends, so row 0 has 10 slots with zero-probability ones between
    live ones; the other nodes lead to 9, and 1, 4 and 8 back to 0."""
    nodes = [(i, float(i), float(i % 3)) for i in range(10)]
    pairs = [(0, t) for t in range(1, 9)] + [(0, 2), (0, 2)]
    pairs += [(t, 9) for t in (1, 2, 4, 5, 7, 8)] + [(t, 0) for t in (1, 4, 8)]
    pairs += [(9, 5), (5, 7)]
    feats = np.random.default_rng(5).uniform(0.5, 2.0, (len(pairs), 2))
    return routeirl.build_graph(nodes, [(i, u, w, feats[i]) for i, (u, w) in enumerate(pairs)])


class _ScriptedDraws(np.random.Generator):
    """A Generator whose first draws come from a script.  ``choice`` takes
    its uniform from ``self.random``, so a scripted value reaches the
    oracle's draw as it reaches the walk's."""

    def __init__(self, seed, script):
        super().__init__(np.random.PCG64(seed))
        self.script = list(script)

    def random(self, *args, **kw):
        return np.float64(self.script.pop(0)) if self.script else super().random(*args, **kw)


def test_soft_sampling_draws_as_a_choice_per_hop(monkeypatch):
    # T > 0 walks draw on the policy's cdf table; the reference draws every
    # hop with rng.choice.  Equal demos pin the draws of every walk rejected
    # before them, revisits included
    revisits = 0
    real = oracles.sample_walk_choice

    def walk(g, pol, origin, dest, rng):
        nonlocal revisits
        out = real(g, pol, origin, dest, rng)
        # with the destination the only dead row, a rejection is a revisit
        revisits += out is None and int(pol.dead.sum()) == 1
        return out

    monkeypatch.setattr(oracles, "sample_walk_choice", walk)
    graphs = [gen_random_graph(8 + seed, rng_seed=seed, extra_edges=6 + seed)
              for seed in range(6)] + [loopy_graph(), _hub_graph()]
    sampled = 0
    for i, g in enumerate(graphs):
        for temperature in (1.0, 0.7):
            m = LinearReward(np.full(g.feature_dim, -0.6))
            want = oracles.sample_per_demo(m, g, 8, rng_seed=i, temperature=temperature)
            got = sample_demonstrations(m, g, 8, rng_seed=i, temperature=temperature)
            assert got == want
            sampled += len(want)
    assert sampled == 8 * 2 * len(graphs) and revisits > 0


def test_soft_draws_take_choices_slot_on_cdf_boundaries():
    # a double drawn exactly on (or one ulp either side of) a row's
    # cumulative sum must land where rng.choice lands it: past a zero-
    # probability slot (searchsorted side="right"), and against the
    # renormalised sums, on rows of 8 or more slots and parallel edges
    hub = _hub_graph()
    assert hub.max_out_degree >= 8
    graphs = [hub, loopy_graph()] + [gen_random_graph(9, rng_seed=s, extra_edges=9)
                                     for s in range(3)]
    seen = Counter()
    for g in graphs:
        rew = edge_rewards(LinearReward(np.full(g.feature_dim, -0.6)), g)
        for temperature in (1.0, 0.7):
            plan = Planner(g, rew, temperature)
            for dest in range(g.num_nodes):
                pol, _ = plan.soft(dest)
                if pol is None:
                    continue
                for node in range(g.num_nodes):
                    row = pol.probs[node]
                    if pol.dead[node] or row.sum() <= 0:
                        continue
                    cdf = (row / row.sum()).cumsum()
                    seen["renormalised"] += cdf[-1] != 1.0
                    cdf /= cdf[-1]
                    live = np.flatnonzero(row > 0)
                    seen["zero between"] += live[-1] - live[0] + 1 > live.size
                    seen["parallel"] += len(set(g.slot_target[node, live])) < live.size
                    script = {0.0, np.nextafter(1.0, 0.0)}
                    for c in cdf[cdf < 1.0]:
                        script |= {c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)}
                    for u in sorted(script):
                        a, b = _ScriptedDraws(node, [u]), _ScriptedDraws(node, [u])
                        got = routeirl.algorithms._sample_walk(g, pol, node, dest, a)
                        assert got == oracles.sample_walk_choice(g, pol, node, dest, b)
                        assert a.bit_generator.state == b.bit_generator.state
                        seen["draws"] += 1
    assert seen["draws"] > 2000
    assert min(seen[k] for k in ("renormalised", "zero between", "parallel")) > 0


def test_soft_walk_keeps_choices_input_checks():
    # a live row that rng.choice refuses raises as the reference raises;
    # a dead row or one summing to at most 0 rejects the walk without a draw
    g = diamond_graph()
    dead = np.array([False, False, False, True])
    for row0, raises in (([0.5, np.nan], True), ([1.5, -0.5], True),
                         ([-0.5, 0.0], False), ([0.0, 0.0], False)):
        probs = np.array([row0, [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        pol = routeirl.planners.Policy(probs, 3, dead)
        if raises:
            with pytest.raises(ValueError):
                oracles.sample_walk_choice(g, pol, 0, 3, np.random.default_rng(0))
            with pytest.raises(ValueError):
                routeirl.algorithms._sample_walk(g, pol, 0, 3, np.random.default_rng(0))
        else:
            a, b = np.random.default_rng(0), np.random.default_rng(0)
            assert oracles.sample_walk_choice(g, pol, 0, 3, a) is None
            assert routeirl.algorithms._sample_walk(g, pol, 0, 3, b) is None
            assert a.bit_generator.state == b.bit_generator.state


def test_irl_config_validation():
    with pytest.raises(ValidationError):
        IrlConfig(algorithm="qlearning")
    with pytest.raises(ValidationError):
        IrlConfig(horizon=-1)
    with pytest.raises(ValidationError):
        IrlConfig(horizon=2.5)
    # NaN and inf settings used to fail mid-run, or to run on silently
    for bad in ({"temperature": 0.0}, {"temperature": math.nan}, {"temperature": math.inf},
                {"horizon": 0, "temperature": math.inf}, {"margin": -0.1},
                {"margin": math.inf}, {"margin": math.nan}):
        with pytest.raises(ValidationError, match="temperature|margin"):
            IrlConfig(**bad)
    with pytest.raises(ValidationError):
        IrlConfig(init="zeros")
    IrlConfig(horizon=math.inf)  # fine


def test_irl_config_rejects_bad_tolerances_and_iteration_caps():
    # tol = -1 divided by zero in the soft plan's stopping test (tol / (1 + tol)),
    # and a negative cap reported a skip with that many backward iterations
    for bad in (-1.0, -1e-12, math.nan):
        with pytest.raises(ValidationError, match="tol"):
            IrlConfig(tol=bad)
    for bad in (0, -5):
        with pytest.raises(ValidationError, match="max_iters"):
            IrlConfig(max_iters=bad)
    IrlConfig(tol=0.0, max_iters=1)  # fine


def test_demo_must_match_graph():
    g = diamond_graph()
    m = LinearReward(np.array([-1.0]))
    bad = Trajectory(nodes=(0, 3), edges=(1,))  # edge 1 runs 0->2
    with pytest.raises(ValidationError):
        demo_gradient(m, g, bad, IrlConfig(algorithm="maxent"))
