import ast
import dataclasses
import itertools
import math
import warnings
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
import scipy.special
from scipy.special import logsumexp

import oracles
import routeirl
import routeirl.planners
from routeirl import (
    GoalView,
    InfeasibilityError,
    IrlConfig,
    LinearReward,
    SparsePerEdgeReward,
    Trajectory,
    batch_gradient,
    build_graph,
    compress_graph,
    compress_trajectory,
    edge_rewards,
    evaluate,
    gen_gridworld,
    gen_random_graph,
    gen_two_state_loop,
    sample_demonstrations,
    two_state_loop_rewards,
)
from routeirl.planners import (
    Planner,
    Policy,
    Successors,
    _default_iters,
    _logsumexp_rows,
    greedy_path,
    rollout,
    softmax_backup,
    trajectory_nll,
)
from oracles import (
    _value_diff,
    best_path_reward,
    closed_form_forward,
    diamond_graph,
    enumerate_walks,
    goal_slots,
    greedy_path_argmax,
    greedy_probs_dense,
    loopy_graph,
    max_backup,
    mp_soft_values,
    onehot_values,
    policy_from_values,
    power_iteration_backward,
    power_iteration_backward_linear,
    rollout_dense,
    scipy_backward,
    evaluate_per_demo,
    sample_per_demo,
    slot_rewards,
    soft_value_walks,
    tie_loop_graph,
    trajectory_policy_nll,
    walk_reward,
)


def _rand_rewards(g, seed, lo=0.2, hi=1.5):
    rng = np.random.default_rng(seed)
    return edge_rewards(LinearReward(-rng.uniform(lo, hi, size=g.feature_dim)), g)


def test_dijkstra_matches_enumeration():
    for seed in range(8):
        g = gen_random_graph(12, rng_seed=seed)
        rew = _rand_rewards(g, seed)
        dest = int(np.random.default_rng(seed).integers(g.num_nodes))
        v = Planner(g, rew).best_values(dest)
        assert v[dest] == 0.0
        for s in range(g.num_nodes):
            if s == dest:
                continue
            want = best_path_reward(g, rew, s, dest)
            assert abs(v[s] - want) < 1e-12, (seed, s, v[s], want)


def test_dijkstra_handles_positive_rewards_without_gain_cycles():
    # a DAG may carry positive rewards; the bellman-ford fallback stays exact
    nodes = [(i, float(i), 0.0) for i in range(4)]
    edges = [(0, 0, 1, [1.0]), (1, 1, 3, [2.0]), (2, 0, 2, [4.0]), (3, 2, 3, [0.5])]
    g = build_graph(nodes, edges)
    m = LinearReward(np.array([1.0]))  # positive weight: reward = +feature
    rew = g.features @ m.get_params()
    v = Planner(g, rew).best_values(3)
    assert v[0] == 4.5 and v[1] == 2.0 and v[2] == 0.5


def test_dijkstra_raises_on_reward_gain_cycle():
    g = loopy_graph()
    rew = np.full(g.num_edges, 0.25)  # every cycle gains reward
    with pytest.raises(InfeasibilityError):
        Planner(g, rew).best_values(4)


def test_backward_matches_walk_enumeration_on_dag():
    g = diamond_graph()
    rew = edge_rewards(LinearReward(np.array([-1.0])), g)
    pol, iters = Planner(g, rew).soft(3, init="onehot")
    assert pol is not None
    v = pol.values
    for s in (0, 1, 2):
        want = soft_value_walks(g, rew, s, 3, 10)
        assert abs(v[s] - want) < 1e-14


def test_backward_matches_high_precision_fixed_point():
    g = loopy_graph()
    for seed in range(4):
        rew = _rand_rewards(g, seed, lo=0.8, hi=1.6)
        gv = GoalView(g, 4)
        pol, _ = Planner(g, rew).soft(4, init="onehot", tol=1e-13, max_iters=2000)
        assert pol is not None
        v = pol.values
        ref = mp_soft_values(gv, rew, iters=4000)
        assert np.max(np.abs(v - ref)) < 1e-11


def test_backward_temperature_is_reward_rescaling():
    g = loopy_graph()
    rew = _rand_rewards(g, 0)
    gv = GoalView(g, 4)
    v2, _, _ = power_iteration_backward(gv, rew, temperature=2.0)
    vh, _, _ = power_iteration_backward(gv, rew / 2.0, temperature=1.0)
    assert np.array_equal(v2, vh)


def test_backward_flags_nonconvergence():
    g = loopy_graph()
    rew = np.zeros(g.num_edges)  # exp-rewards all 1: wildly infeasible
    pol, iters = Planner(g, rew).soft(4, init="onehot", max_iters=50)
    assert pol is None
    assert iters == 50


def test_dijkstra_init_dominates_pointwise_and_in_iterations():
    # at T=1 both inits run the same backup map; the shortest-path warm start
    # is elementwise below the fixed point and never needs more sweeps
    for seed in range(6):
        g = gen_gridworld(5, 5, feature_spec="random", rng_seed=seed)
        rew = _rand_rewards(g, seed, lo=0.9, hi=1.8)
        gv = GoalView(g, int(np.random.default_rng(seed + 99).integers(25)))
        plan = Planner(g, rew)
        cold, it_cold = plan.soft(gv.destination, init="onehot")
        assert cold is not None
        v_star = cold.values
        v_dij = plan.best_values(gv.destination)
        assert np.all(v_dij <= v_star + 1e-12)
        warm, it_warm = plan.soft(gv.destination, init="dijkstra")
        assert warm is not None
        v_warm = warm.values
        assert it_warm <= it_cold
        assert np.max(np.abs(v_warm - v_star)) < 1e-8


def test_backward_monotone_from_below():
    # every iterate from the shortest-path start stays below the fixed point
    g = gen_gridworld(4, 4)
    rew = _rand_rewards(g, 2, lo=1.0, hi=1.5)
    gv = GoalView(g, 0)
    plan = Planner(g, rew)
    v_star = plan.soft(0, init="onehot", tol=1e-13)[0].values
    trace = []
    plan.soft(0, init="dijkstra", trace=trace)
    assert len(trace) > 2
    for v in trace:
        assert np.all(v <= v_star + 1e-9)


def test_policy_rows_are_distributions():
    g = loopy_graph()
    rew = _rand_rewards(g, 1)
    gv = GoalView(g, 4)
    pol, _ = Planner(g, rew).soft(4, init="onehot")
    sums = pol.probs.sum(axis=1)
    live = ~pol.dead
    assert np.allclose(sums[live], 1.0)
    assert np.all(pol.probs[pol.dead] == 0.0)
    assert pol.dead[4]  # destination is absorbing
    # probabilities only on valid slots
    assert np.all(pol.probs[~goal_slots(gv)] == 0.0)


def test_trajectory_policy_nll_is_stepwise_product():
    g = diamond_graph()
    rew = edge_rewards(LinearReward(np.array([-1.0])), g)
    gv = GoalView(g, 3)
    pol, _ = Planner(g, rew).soft(3, init="onehot")
    top = Trajectory(nodes=(0, 1, 3), edges=(0, 2))
    bot = Trajectory(nodes=(0, 2, 3), edges=(1, 3))
    nll_top = trajectory_nll(g, top, pol)
    nll_bot = trajectory_nll(g, bot, pol)
    # exactly two walks: path probabilities come from the walk partition
    z = np.logaddexp(-1.0, -2.0)
    assert abs(nll_top - (z - (-1.0))) < 1e-12
    assert abs(nll_bot - (z - (-2.0))) < 1e-12
    # an off-policy edge from a dead state prices at infinity
    assert trajectory_policy_nll(gv, rew, onehot_values(gv), bot) == np.inf


def test_greedy_path_follows_argmax():
    g = diamond_graph()
    rew = edge_rewards(LinearReward(np.array([-1.0])), g)
    pol = Planner(g, rew).greedy(3)
    t = greedy_path(g, pol, 0)
    assert t is not None and t.nodes == (0, 1, 3)  # top route is cheaper
    assert greedy_path(g, pol, 3) is None  # origin == destination
    # unreachable origin: no outgoing route to the goal
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)]
    edges = [(0, 1, 2, [1.0])]
    g2 = build_graph(nodes, edges)
    rew2 = g2.features @ np.array([-1.0])
    assert greedy_path(g2, Planner(g2, rew2).greedy(2), 0) is None


def test_rollout_conserves_mass():
    g = loopy_graph()
    rew = _rand_rewards(g, 3, lo=0.9, hi=1.8)
    gv = GoalView(g, 4)
    pol, _ = Planner(g, rew).soft(4, init="onehot")
    mass = np.zeros(g.num_nodes)
    mass[0] = 1.0
    res = rollout(gv, [(pol, None)], mass)
    assert not res.truncated
    assert res.lost_mass < 1e-9
    assert abs(res.absorbed_mass - 1.0) < 1e-9
    # edge mass into the destination accounts for all absorbed flow
    into_dest = sum(res.edge_mass[e] for e in range(g.num_edges)
                    if g.edge_dst[e] == 4)
    assert abs(into_dest - res.absorbed_mass) < 1e-12


def test_rollout_tracks_dead_end_loss():
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0)]
    edges = [(0, 0, 1, [1.0]), (1, 0, 2, [1.0]), (2, 1, 3, [1.0])]
    g = build_graph(nodes, edges)  # node 2 is a trap with no exit
    rew = g.features @ np.array([-1.0])
    gv = GoalView(g, 3)
    pol, _ = Planner(g, rew).soft(3, init="onehot")
    # force half the mass into the trap by starting it there
    mass = np.zeros(4)
    mass[0] = 0.5
    mass[2] = 0.5
    res = rollout(gv, [(pol, None)], mass)
    assert abs(res.lost_mass - 0.5) < 1e-12
    assert abs(res.absorbed_mass - 0.5) < 1e-12


def test_rollout_truncation_flag():
    g = loopy_graph()
    rew = np.zeros(g.num_edges)
    gv = GoalView(g, 4)
    pol, _ = Planner(g, rew).soft(4, 1)  # one backup from v_best = 0: uniform rows
    mass = np.zeros(g.num_nodes)
    mass[0] = 1.0
    res = rollout(gv, [(pol, None)], mass, max_steps=3)
    assert res.truncated
    assert res.steps == 3


def test_rollout_matches_closed_form():
    for seed in range(6):
        g = gen_random_graph(15, rng_seed=seed)
        rew = _rand_rewards(g, seed, lo=0.8, hi=2.0)
        gv = GoalView(g, int(np.random.default_rng(seed).integers(15)))
        pol, _ = Planner(g, rew).soft(gv.destination, init="onehot", tol=1e-12)
        assert pol is not None
        mass = np.zeros(g.num_nodes)
        mass[(gv.destination + 1) % g.num_nodes] = 1.0
        res = rollout(gv, [(pol, None)], mass, tol=1e-15)
        cf = closed_form_forward(gv, pol, mass)
        assert np.max(np.abs(res.edge_mass - cf)) < 1e-10


def _with_trap(g):
    """g plus one node that nodes 0 and 1 enter and nothing leaves."""
    trap = g.num_nodes
    nodes = [(s, *g.coords[s]) for s in range(trap)] + [(trap, 0.5, 0.5)]
    recs = [(e, int(g.edge_src[e]), int(g.edge_dst[e]), g.features[e])
            for e in range(g.num_edges)]
    recs += [(g.num_edges + u, u, trap, g.features[0]) for u in (0, 1)]
    return build_graph(nodes, recs)


def test_rollout_balances_mass_on_generated_graphs():
    # absorbed + lost + the mass left on the nodes is the initial mass, for
    # soft, greedy and mixed schedules, run out or cut at max_steps; the
    # dense multigraph has rows of 8 or more slots
    lost_seen = 0
    for seed in range(4):
        rng = np.random.default_rng(seed + 70)
        dense = _loopy_multigraph(seed, extra_edges=90)
        assert dense.max_out_degree >= 8
        for g, lo in ((_with_trap(gen_random_graph(14 + seed, rng_seed=seed, extra_edges=12)),
                       0.8), (_loopy_multigraph(seed), 0.8), (dense, 2.5)):
            rew = _rand_rewards(g, seed, lo=lo, hi=lo + 0.8)
            gv = GoalView(g, int(rng.integers(2, 14)))  # never the trap
            plan = Planner(g, rew)
            soft, _ = plan.soft(gv.destination)
            assert soft is not None
            if g is dense:  # one backup over rows of 8+ slots, against scipy
                v_prev = rng.normal(size=g.num_nodes)
                q, v_next = softmax_backup(gv, slot_rewards(gv, rew), v_prev)
                want = logsumexp(q, axis=1)
                want[gv.destination] = 0.0
                assert np.array_equal(v_next, want)
            greedy = plan.greedy(gv.destination)
            # a greedy policy only runs out a schedule; its one-hot table steps
            onehot = greedy_probs_dense(gv, rew, plan.best_values(gv.destination))
            stepped = Policy(onehot, gv.destination, onehot.sum(axis=1) == 0)
            mass = rng.uniform(0.0, 1.0, g.num_nodes)
            for schedule, max_steps in (([(soft, None)], 1000), ([(greedy, None)], 1000),
                                        ([(stepped, 2), (soft, 3), (greedy, None)], 1000),
                                        ([(soft, 1), (stepped, 1), (soft, None)], 4)):
                res = rollout(gv, schedule, mass, max_steps=max_steps)
                edge_mass, steps, truncated, lost, absorbed, residual = rollout_dense(
                    gv, schedule, mass, max_steps=max_steps)
                assert abs(res.absorbed_mass + res.lost_mass + residual.sum()
                           - mass.sum()) < 1e-12
                assert (res.steps, res.truncated) == (steps, truncated)
                assert truncated == (max_steps == 4)
                assert abs(res.lost_mass - lost) < 1e-12
                assert abs(res.absorbed_mass - absorbed) < 1e-12
                assert np.max(np.abs(res.edge_mass - edge_mass)) < 1e-12
                lost_seen += res.lost_mass > 0
    assert lost_seen == 16  # the mass put on the trap is lost in every schedule


def _tail_kind(succ, m, result):
    """Which way ``Successors.tail`` ran the tail of mass m."""
    steps, truncated = result[0], result[5]
    if truncated:
        return "cut"
    if np.count_nonzero(m) == 1:
        return "walk"
    if steps == 1:
        return "one step"
    # the stepped tail stops before the deepest mass it holds is finished
    deepest = succ.tables[1][m > 0].max()
    return "closed, mass left" if steps < deepest else "closed"


def test_closed_form_tails_match_stepping_on_generated_graphs(monkeypatch):
    # greedy tails against the dense stepped oracle on graphs with parallel
    # edges, self-loops and traps, on a graph of exact ties, with mass below
    # tol far out, on the destination's tree neighbours only (one step), and
    # cut at max_steps
    kinds = Counter()
    real = Successors.tail

    def tail(self, m, tol, budget):
        result = real(self, m, tol, budget)
        kinds[_tail_kind(self, m, result)] += 1
        return result

    monkeypatch.setattr(Successors, "tail", tail)
    truncated_seen = 0
    for seed in range(4):
        rng = np.random.default_rng(seed + 90)
        for g in (_with_trap(gen_random_graph(14 + seed, rng_seed=seed, extra_edges=12)),
                  _loopy_multigraph(seed), gen_gridworld(6, 6, feature_spec="random",
                                                         rng_seed=seed), tie_loop_graph()):
            rew = _rand_rewards(g, seed, lo=0.8, hi=1.6)
            gv = GoalView(g, int(rng.integers(2, g.num_nodes)))  # never the trap
            plan = Planner(g, rew)
            soft, _ = plan.soft(gv.destination)
            far = plan.best_values(gv.destination) < -4.0
            spread = rng.uniform(0.0, 1.0, g.num_nodes)
            faint = np.where(far, 1e-14, spread)  # stepping leaves the faint mass
            heads = [[]] if soft is None else [[], [(soft, 1)], [(soft, 3)]]
            succ = plan.greedy(gv.destination)
            edge = succ.edge
            # one step finishes the mass on dead rows and on the destination's tree neighbours
            near = np.where(succ.dead | (g.edge_dst[edge] == gv.destination), spread, 0.0)
            near[gv.destination] = 0.0
            for mass in (np.eye(g.num_nodes)[int(rng.integers(g.num_nodes))],
                         spread, faint, near):
                for head in heads:
                    for max_steps in (1000, 4):
                        # a fresh successor graph per rollout, so every
                        # rollout builds its own tables
                        fresh = Successors(g, succ.destination, succ.rewards, succ.values,
                                           succ.tree)
                        schedule = head + [(fresh, None)]
                        res = rollout(gv, schedule, mass, max_steps=max_steps)
                        edge_mass, steps, truncated, lost, absorbed, _ = rollout_dense(
                            gv, schedule, mass, max_steps=max_steps)
                        assert (res.steps, res.truncated) == (steps, truncated)
                        bound = 1e-12 * max(1.0, np.abs(edge_mass).max())
                        assert np.abs(res.edge_mass - edge_mass).max() <= bound
                        assert abs(res.lost_mass - lost) <= 1e-12 * max(1.0, lost)
                        assert abs(res.absorbed_mass - absorbed) <= 1e-12 * max(1.0, absorbed)
                        truncated_seen += truncated
    assert truncated_seen > 0
    assert set(kinds) == {"walk", "closed", "closed, mass left", "one step", "cut"}, kinds


def test_walked_edges_equal_the_forest_on_generated_graphs():
    # a walk picks the edges of the nodes it visits only; every walked edge
    # is the one the all-slot forest gives that node, bitwise, on graphs
    # with parallel edges and self-loops, with traps, on the tie loop, and
    # on the constant-feature 10x10 grid, whose rows tie all over
    cases = []
    for seed in range(4):
        for g in (_with_trap(gen_random_graph(14 + seed, rng_seed=seed, extra_edges=12)),
                  _loopy_multigraph(seed), tie_loop_graph()):
            cases.append((g, _rand_rewards(g, seed, lo=0.8, hi=1.6), range(g.num_nodes)))
    grid = gen_gridworld(10, 10)
    cases.append((grid, edge_rewards(LinearReward(-np.ones(grid.feature_dim)), grid),
                  range(grid.num_nodes)))
    tied = dead_walks = 0
    for g, rew, dests in cases:
        plan = Planner(g, rew)
        for dest in dests:
            succ = plan.greedy(dest)
            # a fresh tree per destination, so every walk runs before any forest
            walker = Successors(g, dest, succ.rewards, succ.values, succ.tree)
            walks = [walker.walk(origin) for origin in range(g.num_nodes)]
            assert "edge" not in vars(walker)
            edge = succ.edge
            for origin, (edges, nodes) in enumerate(walks):
                assert nodes[0] == origin and succ.dead[nodes[-1]]
                assert not succ.dead[nodes[:-1]].any()
                assert edges == [int(edge[u]) for u in nodes[:-1]]
                assert all(isinstance(e, int) for e in edges)
                dead_walks += nodes[-1] != dest
            q = slot_rewards(GoalView(g, dest), rew) + succ.values[g.safe_targets]
            top = q.max(axis=1, keepdims=True)
            tied += int(((q == top).sum(axis=1) > 1)[~succ.dead].sum())
    assert dead_walks > 0  # walks into the traps end on a dead row off the destination
    assert tied >= 8_100


def test_unit_mass_tails_equal_stepping_bitwise():
    # one node's mass walks its path: every figure of the report is the
    # stepped rollout's on the policy's one-hot table, bitwise, soft steps
    # before the tail or not, run out or cut at max_steps
    for seed in range(4):
        for g in (_with_trap(gen_random_graph(14 + seed, rng_seed=seed, extra_edges=12)),
                  _loopy_multigraph(seed), tie_loop_graph()):
            rew = _rand_rewards(g, seed, lo=0.8, hi=1.6)
            dest = seed % g.num_nodes
            gv = GoalView(g, dest)
            plan = Planner(g, rew)
            soft, _ = plan.soft(dest, 1)
            greedy = plan.greedy(dest)
            stepped = Policy(oracles.policy_probs(g, greedy), dest, greedy.dead)
            for origin in range(g.num_nodes):
                mass = np.zeros(g.num_nodes)
                mass[origin] = 0.7
                for head in ([], [(soft, 0)]):
                    for max_steps in (50, 2):
                        a = rollout(gv, head + [(greedy, None)], mass, max_steps=max_steps)
                        b = rollout(gv, head + [(stepped, None)], mass, max_steps=max_steps)
                        assert np.array_equal(a.edge_mass, b.edge_mass)
                        assert (a.steps, a.truncated, a.lost_mass, a.absorbed_mass) == (
                            b.steps, b.truncated, b.lost_mass, b.absorbed_mass)


def test_greedy_path_walks_the_argmax():
    # the successor walk against an argmax per row per hop of the first-slot
    # one-hot table, on traps, parallel edges, self-loops and a graph of
    # exact ties: they agree wherever the argmax path meets no tied row, and
    # the tree's walk is a best path where first-slot ties loop
    checked = loops = 0
    for seed in range(4):
        for g in (_with_trap(gen_random_graph(14 + seed, rng_seed=seed, extra_edges=12)),
                  _loopy_multigraph(seed), tie_loop_graph(), loopy_graph()):
            rew = _rand_rewards(g, seed)
            plan = Planner(g, rew)
            for dest in range(g.num_nodes):
                gv = GoalView(g, dest)
                values = plan.best_values(dest)
                pol = plan.greedy(dest)
                onehot = greedy_probs_dense(gv, rew, values)
                stepped = Policy(onehot, dest, onehot.sum(axis=1) == 0)
                assert np.array_equal(pol.dead, stepped.dead)
                q = slot_rewards(gv, rew) + values[g.safe_targets]
                tied = (q == q.max(axis=1, keepdims=True)).sum(axis=1) > 1
                for origin in range(g.num_nodes):
                    want = greedy_path_argmax(g, stepped, origin)
                    got = greedy_path(g, pol, origin)
                    assert (got is None) == (origin == dest or bool(pol.dead[origin]))
                    if want is not None and not tied[list(want.nodes[:-1])].any():
                        assert got == want
                    if got is not None:
                        assert walk_reward(rew, got.edges) == pytest.approx(values[origin],
                                                                            abs=1e-12)
                    checked += 1
                    loops += want is None and not pol.dead[origin]
    assert checked > 1000 and loops > 0
    soft, _ = Planner(g, rew).soft(gv.destination, 1)
    with pytest.raises(routeirl.ValidationError):
        greedy_path(g, soft, 0)


def test_closed_form_raises_when_mass_is_trapped():
    # a first-slot tie-break on flat values walks 1 -> 2 -> 1 forever: the
    # linear system of its one-hot table is singular
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0)]
    edges = [(0, 1, 2, [0.1]), (1, 2, 1, [0.1]), (2, 1, 3, [9.0]), (3, 0, 1, [1.0])]
    g = build_graph(nodes, edges)
    rew = g.features @ np.array([-1.0])
    gv = GoalView(g, 3)
    onehot = greedy_probs_dense(gv, rew, np.zeros(g.num_nodes))  # flat values: cheap loops
    pol = Policy(onehot, 3, onehot.sum(axis=1) == 0)
    mass = np.zeros(4)
    mass[0] = 1.0
    with pytest.raises(InfeasibilityError):
        closed_form_forward(gv, pol, mass)


def test_closed_form_forward_refuses_a_greedy_policy():
    # a greedy policy holds no probability table: its closed form is its
    # rollout tail
    g = loopy_graph()
    gv = GoalView(g, 4)
    with pytest.raises(routeirl.ValidationError, match="probability table"):
        closed_form_forward(gv, Planner(g, _rand_rewards(g, 1)).greedy(4), np.ones(g.num_nodes))


def test_rollout_refuses_a_stepped_greedy_entry():
    # a greedy policy runs out a schedule; it takes no step count
    g = loopy_graph()
    gv = GoalView(g, 4)
    plan = Planner(g, _rand_rewards(g, 1))
    soft, _ = plan.soft(4, 1)
    greedy = plan.greedy(4)
    for schedule in ([(greedy, 2)], [(greedy, 0), (soft, None)], [(soft, 1), (greedy, 1)]):
        with pytest.raises(routeirl.ValidationError, match="tail"):
            rollout(gv, schedule, np.ones(g.num_nodes))


def test_linear_space_twin_underflows_at_half_precision():
    g = gen_gridworld(10, 10)
    rew = edge_rewards(LinearReward(np.array([-2.5, -2.5])), g)
    gv = GoalView(g, 0)
    pol, _ = Planner(g, rew).soft(0, init="onehot")
    assert pol is not None
    v_log = pol.values
    z64, _, c64 = power_iteration_backward_linear(gv, rew, dtype=np.float64)
    assert c64
    with np.errstate(divide="ignore"):
        v64 = np.log(np.asarray(z64, dtype=np.float64))
    finite = np.isfinite(v_log)
    assert np.max(np.abs(v64[finite] - v_log[finite])) < 1e-8
    # float16 smallest positive is ~6e-8, but remote states need exp(-79):
    # the whole far field flushes to zero, while the log-domain values and
    # the planner's scaled ones stay faithful
    z16, _, _ = power_iteration_backward_linear(gv, rew, dtype=np.float16)
    flushed = (np.asarray(z16, dtype=np.float64) == 0.0) & finite
    assert flushed.sum() >= 80


def test_max_backup_converges_to_dijkstra():
    g = loopy_graph()
    rew = _rand_rewards(g, 4)
    gv = GoalView(g, 4)
    v = onehot_values(gv)
    for _ in range(g.num_nodes + 2):
        v = max_backup(gv, slot_rewards(gv, rew), v)
    assert np.allclose(v, Planner(g, rew).best_values(4), atol=1e-12)


def test_logsumexp_rows_matches_scipy_bitwise():
    # rows of fewer than 8 entries reduce down the transpose, wider ones
    # along the rows: every width from 1 to 9 runs both layouts
    rng = np.random.default_rng(17)
    shapes = [(1, 1), (7, 1), (400, 4), (3400, 3)] + [(100, w) for w in range(1, 10)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in shapes:
            rows, cols = shape
            for scale in (1.0, 40.0):
                q = rng.normal(scale=scale, size=shape)
                q[rng.random(shape) < 0.3] = -np.inf
                q[rows // 2] = -np.inf                   # all -inf
                q[rows // 3] = -np.inf                   # one finite entry
                q[rows // 3, cols - 1] = 2.5
                q[rows // 4] = np.round(q[rows // 4])    # exact ties
                q[rows // 4, 0] = q[rows // 4, -1] = 3.0
                q[rows // 5] = 700.0 - rng.random(cols)  # near +-700
                q[-1] = -700.0 - rng.random(cols)
                assert np.array_equal(_logsumexp_rows(q), logsumexp(q, axis=1))
                view = np.concatenate([q, q[:, ::-1]], axis=1)[:, ::2]  # strided
                assert view.size == 1 or not view.flags.c_contiguous
                assert np.array_equal(_logsumexp_rows(view), logsumexp(view, axis=1))
            blank = np.full(shape, -np.inf)
            assert np.array_equal(_logsumexp_rows(blank), logsumexp(blank, axis=1))
            assert np.all(np.isneginf(_logsumexp_rows(blank)))


def test_value_diff_reads_infinities():
    inf, nan = np.inf, np.nan
    a = np.array([-inf, 1.0, 2.0])
    assert _value_diff(a, np.array([-inf, 1.0, 2.5])) == 0.5  # -inf vs -inf is 0
    assert _value_diff(a, np.array([0.0, 1.0, 2.0])) == inf   # -inf vs finite
    assert _value_diff(a, np.array([-inf, nan, 2.0])) == inf  # NaN never converges
    assert _value_diff(np.array([inf]), np.array([inf])) == inf
    assert _value_diff(np.array([]), np.array([])) == 0.0
    # a node that cannot reach the destination stays -inf and still converges
    g = build_graph([(i, float(i), 0.0) for i in range(3)],
                    [(0, 0, 1, [1.0]), (1, 1, 0, [1.0]), (2, 0, 2, [1.0])])
    v, _, conv = power_iteration_backward(GoalView(g, 1), np.full(3, -1.0))
    assert conv and np.isneginf(v[2])


def test_backward_matches_scipy_reference_bitwise():
    graphs = [gen_gridworld(10, 10, feature_spec="random", rng_seed=11),
              gen_random_graph(30, rng_seed=5, extra_edges=40)]
    for gi, g in enumerate(graphs):
        rew = _rand_rewards(g, gi, lo=0.9, hi=1.8)
        for dest in (0, g.num_nodes // 2 + 3):
            gv = GoalView(g, dest)
            for temperature in (1.0, 0.6):
                for init in ("onehot", "dijkstra"):
                    v, iters, conv = power_iteration_backward(
                        gv, rew, temperature=temperature, init=init)
                    rv, riters, rconv = scipy_backward(
                        gv, rew, temperature=temperature, init=init)
                    assert conv and rconv
                    assert iters == riters, (gi, dest, temperature, init)
                    assert np.array_equal(v, rv), (gi, dest, temperature, init)


def test_library_does_not_import_scipy_special(monkeypatch):
    # the planning kernel runs its own log-sum-exp; only the test oracles
    # use scipy's, so the bitwise references stay independent
    hits = []
    for path in sorted(Path(routeirl.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            hits += [(path.name, n) for n in names
                     if n == "scipy.special" or n.startswith("scipy.special.")]
    assert not hits
    assert oracles.logsumexp is scipy.special.logsumexp

    def forbidden(*args, **kwargs):
        raise AssertionError("the library called scipy.special.logsumexp")

    monkeypatch.setattr(scipy.special, "logsumexp", forbidden)
    g = gen_gridworld(4, 4)
    rew = _rand_rewards(g, 1)
    gv = GoalView(g, 5)
    assert Planner(g, rew).soft(5, init="onehot")[0] is not None
    assert routeirl.dominant_eigenvalue(gv, rew).converged


def test_planners_call_no_ufunc_at():
    # the kernels scatter with bincount and slot-ordered fancy indexing,
    # which the bitwise tests pin; np.add.at and the other ufunc.at scatters
    # cost more per element on large graphs and stay out
    tree = ast.parse(Path(routeirl.planners.__file__).read_text())
    hits = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "at"]
    assert not hits


# ---------------------------------------------------------------------------
# one planner per reward table


def _loopy_multigraph(seed, extra_edges=12):
    """A generated graph plus parallel copies of some edges and self-loops."""
    base = gen_random_graph(14, rng_seed=seed, extra_edges=extra_edges)
    rng = np.random.default_rng(seed)
    recs = [(e, int(base.edge_src[e]), int(base.edge_dst[e]), base.features[e])
            for e in range(base.num_edges)]
    for e in rng.choice(base.num_edges, size=4, replace=False):
        recs.append((len(recs), *recs[e][1:]))
    for u in rng.choice(base.num_nodes, size=3, replace=False):
        recs.append((len(recs), int(u), int(u), [1.0, 1.0]))
    nodes = [(s, *base.coords[s]) for s in range(base.num_nodes)]
    return build_graph(nodes, recs)


def _shaped_rewards(g, seed):
    """Mixed-sign rewards -c + phi(dst) - phi(src) with c > 0: every cycle
    loses reward, so there is no gain cycle."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0, g.num_nodes)
    return -rng.uniform(0.5, 1.5, g.num_edges) + phi[g.edge_dst] - phi[g.edge_src]


def _networkx_reversed(nx, g, rew):
    """The reversed graph with edge costs -rew, parallel edges kept."""
    rev = nx.MultiDiGraph()
    rev.add_nodes_from(range(g.num_nodes))
    for e in range(g.num_edges):
        rev.add_edge(int(g.edge_dst[e]), int(g.edge_src[e]), cost=-float(rew[e]))
    return rev


def test_dijkstra_values_match_networkx_with_parallel_edges_and_self_loops():
    nx = pytest.importorskip("networkx")
    for seed in range(4):
        g = _loopy_multigraph(seed)
        rng = np.random.default_rng(seed + 50)
        mixed = _shaped_rewards(g, seed)
        assert np.max(mixed) > 0  # planned on the negative-cost routine
        for shortest, rew in ((nx.single_source_dijkstra_path_length,
                               -rng.uniform(0.1, 2.0, g.num_edges)),
                              (nx.single_source_bellman_ford_path_length, mixed)):
            rev = _networkx_reversed(nx, g, rew)
            for dest in (0, 5, 13):
                ref = np.full(g.num_nodes, -np.inf)
                for node, dist in shortest(rev, dest, weight="cost").items():
                    ref[node] = -dist
                v = Planner(g, rew).best_values(dest)
                assert np.array_equal(np.isneginf(v), np.isneginf(ref))
                np.testing.assert_allclose(v, ref, rtol=1e-12, atol=1e-12)
        # a positive self-loop off the destination is a reward-gain cycle
        rew = -rng.uniform(0.1, 2.0, g.num_edges)
        loop = next(e for e in range(g.num_edges) if g.edge_src[e] == g.edge_dst[e] != 0)
        rew[loop] = 0.5
        with pytest.raises(nx.NetworkXUnbounded):
            nx.single_source_bellman_ford_path_length(_networkx_reversed(nx, g, rew), 0,
                                                      weight="cost")
        with pytest.raises(InfeasibilityError):
            Planner(g, rew).best_values(0)


def test_one_reversed_graph_per_call_and_one_plan_per_destination(monkeypatch):
    g = gen_gridworld(5, 5, feature_spec="random", rng_seed=3)
    m = LinearReward(np.array([-1.2, -0.9]))
    pairs = [(0, 24), (3, 24), (7, 12), (1, 12), (20, 24), (5, 6), (9, 6)]
    demos = sample_demonstrations(m, g, len(pairs), rng_seed=1, pairs=pairs)
    dests = len({d for _, d in pairs})
    calls = Counter()
    greedy = []  # every greedy policy planned
    for name in ("_reversed_graph", "_forest", "_soft_plan", "_jump_tables", "_draw_table"):
        def counting(*args, _real=getattr(routeirl.planners, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(routeirl.planners, name, counting)

    def planned(self, dest, _real=routeirl.planners.Planner.greedy):
        pol = _real(self, dest)
        greedy.append(pol)
        return pol
    monkeypatch.setattr(routeirl.planners.Planner, "greedy", planned)
    # greedy walks, T=0 samples and one-node tails build no forest and no
    # jump tables, and only T > 0 walks build draw tables, one per destination
    evaluate(m, demos, g)
    assert calls == {"_reversed_graph": 1, "_soft_plan": dests}
    calls.clear()
    sample_demonstrations(m, g, len(pairs), rng_seed=2, pairs=pairs)
    assert calls == {"_reversed_graph": 1, "_soft_plan": dests, "_draw_table": dests}
    calls.clear()
    sample_demonstrations(m, g, len(pairs), rng_seed=2, temperature=0.0, pairs=pairs)
    assert calls == {"_reversed_graph": 1}
    # a minibatch shares one planner; H=0 tails walk, and mmp plans each
    # demo on its own margins
    calls.clear()
    batch_gradient(m, g, demos, IrlConfig(horizon=0))
    assert calls == {"_reversed_graph": 1}
    calls.clear()
    batch_gradient(m, g, demos, IrlConfig(algorithm="mmp"))
    assert calls == {"_reversed_graph": len(demos)}
    # walks read only the tree: no greedy policy has built its forest
    assert all("edge" not in vars(pol) for pol in greedy)
    # tails of spread mass build each destination's forest and tables once
    calls.clear()
    batch_gradient(m, g, demos, IrlConfig(horizon=3))
    assert calls == {"_reversed_graph": 1, "_forest": dests, "_soft_plan": dests,
                     "_jump_tables": dests}


def test_shared_plans_equal_per_demo_replanning():
    for seed in range(3):
        g = gen_random_graph(12 + seed, rng_seed=seed, extra_edges=10)
        m = LinearReward(-np.random.default_rng(seed).uniform(0.6, 1.4, g.feature_dim))
        rew = edge_rewards(m, g)
        demos = sample_demonstrations(m, g, 30, rng_seed=seed)
        assert len({t.destination for t in demos}) < len(demos)
        shaped = _shaped_rewards(g, seed)
        assert np.max(shaped) > 0  # the negative-cost routine plans these
        cases = [(rew, demos, g, {"nll": True}), (rew, demos, g, {"nll": False}),
                 (rew, demos, g, {"temperature": 0.7}), (shaped, demos, g, {}),
                 (np.full(g.num_edges, -0.05), demos, g, {})]
        ends = sorted({t.origin for t in demos} | {t.destination for t in demos})
        cg, mm = compress_graph(g, 3, protected=ends)
        cdemos = [compress_trajectory(t, mm, cg) for t in demos]
        cases.append((edge_rewards(m, cg), cdemos, cg, {"merge_map": mm}))
        for table, ds, graph, kw in cases:
            assert evaluate(table, ds, graph, **kw) == evaluate_per_demo(table, ds, graph, **kw)
        assert evaluate(cases[-2][0], demos, g).nll is None  # diverges
        pairs = [(t.origin, t.destination) for t in demos[:10]]
        for model in (m, SparsePerEdgeReward(g.num_edges, params=shaped)):
            for kw in ({"temperature": 1.0}, {"temperature": 0.0},
                       {"temperature": 0.7, "pairs": pairs}, {"temperature": 0.0, "pairs": pairs}):
                assert (sample_demonstrations(model, g, 10, rng_seed=seed + 5, **kw)
                        == sample_per_demo(model, g, 10, rng_seed=seed + 5, **kw))


def _log_soft_plan(gv, rew, temperature, horizon, init="exact"):
    """The log-domain reference of ``Planner.soft``: H softmax backups from
    v_best/T, or ``power_iteration_backward`` and one backup more; (policy
    or None, backups, values)."""
    if math.isinf(horizon):
        v, iters, conv = power_iteration_backward(gv, rew, temperature=temperature, init=init)
        return (policy_from_values(gv, rew, v, temperature) if conv else None), iters, v
    v = Planner(gv.graph, rew).best_values(gv.destination) / temperature
    v[gv.destination] = 0.0
    for _ in range(horizon - 1):
        _, v = softmax_backup(gv, slot_rewards(gv, rew), v, temperature)
    return policy_from_values(gv, rew, v, temperature), horizon, v


def test_linear_soft_plans_match_the_log_domain_pass():
    # the scaled linear-domain backups against the log-domain ones at every
    # horizon and start, on grids, random graphs, multigraphs with parallel
    # edges and self-loops, and trap nodes, for linear and shaped mixed-sign
    # rewards (the negative-cost search) at two temperatures: the same
    # convergence, iteration counts equal, probabilities within 1e-12, and
    # infeasible destinations (None, max_iters) as the log pass reports them
    cases = Counter()
    for seed in range(3):
        graphs = (gen_gridworld(5, 4, feature_spec="random", rng_seed=seed),
                  gen_random_graph(14 + seed, rng_seed=seed, extra_edges=12),
                  _loopy_multigraph(seed),
                  _with_trap(gen_random_graph(14 + seed, rng_seed=seed + 5, extra_edges=12)))
        for g in graphs:
            tables = (_rand_rewards(g, seed, lo=0.8, hi=1.6), _shaped_rewards(g, seed),
                      _rand_rewards(g, seed, lo=0.05, hi=0.1))  # the last diverges
            for rew, temperature in itertools.product(tables, (1.0, 0.7)):
                plan = routeirl.planners.Planner(g, rew, temperature)
                for dest in range(1, g.num_nodes, 4):
                    gv = GoalView(g, dest)
                    runs = [(h, "exact") for h in (1, 2, 10, 100)]
                    runs += [(math.inf, init) for init in ("dijkstra", "onehot", "exact")]
                    for horizon, init in runs:
                        pol, iters = plan.soft(dest, horizon, init)
                        ref, ref_iters, v = _log_soft_plan(gv, rew, temperature, horizon, init)
                        assert iters == ref_iters
                        assert (pol is None) == (ref is None)
                        if ref is None:
                            assert iters == _default_iters(g.num_nodes)
                            cases["infeasible"] += 1
                            continue
                        assert np.array_equal(pol.dead, ref.dead)
                        assert np.max(np.abs(pol.probs - ref.probs)) <= 1e-12
                        cases["finite" if np.isfinite(horizon) else "converged"] += 1
    assert min(cases.values()) >= 50, cases


def test_linear_soft_plans_reanchor_where_y_overflows():
    # a 700-node chain, three parallel reward-0 edges a hop: v(0) = 699 log 3
    # ~ 767.9, past exp's range, so y = exp(v - v_best) overflows on the way
    # at H = inf from every start and at H = 800; the pass re-anchors on y
    # and keeps the log pass's counts and policy, with no NaN
    n = 700
    g = build_graph([(s, float(s), 0.0) for s in range(n)],
                    [(3 * s + k, s, s + 1, [1.0]) for s in range(n - 1) for k in range(3)])
    rew = np.zeros(g.num_edges)
    gv = GoalView(g, n - 1)
    plan = routeirl.planners.Planner(g, rew)
    for horizon, init in [(800, "exact")] + [(math.inf, i) for i in ("dijkstra", "onehot", "exact")]:
        pol, iters = plan.soft(n - 1, horizon, init)
        ref, ref_iters, v = _log_soft_plan(gv, rew, 1.0, horizon, init)
        assert abs(v[0] - (n - 1) * math.log(3.0)) <= 1e-9
        assert iters == ref_iters == (800 if horizon == 800 else n)
        assert not np.isnan(pol.probs).any()
        assert np.array_equal(pol.dead, ref.dead)
        assert np.max(np.abs(pol.probs - ref.probs)) <= 1e-9
    # a diverging pass (lambda = 2 e^-0.1) re-anchors too, and fails as the
    # log pass does
    g = gen_two_state_loop()
    rew = two_state_loop_rewards(g, 0.1, 0.1)
    for init in ("dijkstra", "onehot", "exact"):
        assert routeirl.planners.Planner(g, rew).soft(2, init=init, max_iters=2000) == (None, 2000)
        assert power_iteration_backward(GoalView(g, 2), rew, init=init, max_iters=2000)[1:] == (
            2000, False)


def test_exact_start_agrees_with_power_iteration_and_falls_back():
    # the sparse solve starts the backups at the fixed point: the values stay
    # within the stopping tolerance of a tighter Dijkstra-started reference
    cases = 0
    for seed in range(4):
        for g in (gen_random_graph(16 + seed, rng_seed=seed, extra_edges=14),
                  _loopy_multigraph(seed)):
            shaped = _shaped_rewards(g, seed)
            assert np.max(shaped) > 0  # planned on the negative-cost routine
            for rew in (_rand_rewards(g, seed, lo=0.8, hi=1.6), shaped):
                for dest in (0, g.num_nodes // 2, g.num_nodes - 1):
                    gv = GoalView(g, dest)
                    plan = Planner(g, rew, 0.7)
                    tight, it_ref = plan.soft(dest, init="dijkstra", tol=1e-12)
                    pol, iters = plan.soft(dest, init="exact")
                    if tight is None:
                        continue
                    ref, v = tight.values, pol.values
                    assert iters <= 2 < it_ref
                    assert np.array_equal(np.isneginf(v), np.isneginf(ref))
                    fin = np.isfinite(ref)
                    assert np.max(np.abs(v[fin] - ref[fin])) <= 1e-9
                    cases += 1
    assert cases >= 40
    # lambda = 2 e^-0.1 > 1: no positive solution, so the Dijkstra start runs
    # and fails exactly as it does on its own
    g = gen_two_state_loop()
    gv = GoalView(g, 2)
    rew = two_state_loop_rewards(g, 0.1, 0.1)
    runs = [power_iteration_backward(gv, rew, init=init) for init in ("dijkstra", "exact")]
    assert runs[0][1:] == runs[1][1:] == (_default_iters(g.num_nodes), False)
    assert np.array_equal(runs[0][0], runs[1][0])


def test_shared_factor_start_matches_the_rescaled_solve():
    # one factor per table: every destination's start agrees with the
    # per-destination rescaled solve and with a tight reference, and the
    # backups confirm it at once, on generated graphs, multigraphs with
    # parallel edges and self-loops, and a trap node, for linear and shaped
    # mixed-sign rewards at two temperatures; and on the tables whose I - A
    # loses entries in assembly: three parallel edges on one pair, the later
    # copies at a reward whose weight underflows to 0, and a zero-reward
    # self-loop on the destination, whose unit weight cancels its diagonal
    cases = []
    for seed in range(3):
        for g in (gen_random_graph(16 + seed, rng_seed=seed, extra_edges=14),
                  _loopy_multigraph(seed),
                  _with_trap(gen_random_graph(14 + seed, rng_seed=seed + 5, extra_edges=12))):
            for rew in (_rand_rewards(g, seed, lo=0.8, hi=1.6), _shaped_rewards(g, seed)):
                cases.append(("plain", g, rew, range(2, g.num_nodes, 3)))  # never the trap
        g = _with_trap(_with_triple_edge(_loopy_multigraph(seed)))
        rew = _rand_rewards(g, seed, lo=0.8, hi=1.6)
        _, first = np.unique(g.edge_src * g.num_nodes + g.edge_dst, return_index=True)
        faint = rew.copy()
        faint[np.setdiff1d(np.arange(g.num_edges), first)] = -800.0
        cases.append(("underflow", g, faint, range(2, g.num_nodes - 1, 3)))
        for loop in np.flatnonzero(g.edge_src == g.edge_dst):
            cancel = rew.copy()
            cancel[loop] = 0.0
            cases.append(("cancel", g, cancel, [int(g.edge_src[loop])]))
    solved = Counter()
    for kind, g, rew, dests in cases:
        for temperature in (1.0, 0.7):
            plan = routeirl.planners.Planner(g, rew, temperature)
            for dest in dests:
                gv = GoalView(g, dest)
                tight, it_ref = plan.soft(dest, init="dijkstra", tol=1e-12)
                if tight is None:
                    continue
                ref = tight.values
                start = plan.exact_start(dest)
                want = oracles.solved_start(gv, rew, temperature)
                fin = np.isfinite(ref)
                for other in (ref, want):
                    assert np.array_equal(np.isneginf(start), np.isneginf(other))
                    assert np.max(np.abs(start[fin] - other[fin])) <= 1e-10
                pol, iters = plan.soft(dest, init="exact")  # from start
                assert pol is not None and iters <= 2 < it_ref
                solved[kind] += 1
    assert solved["plain"] >= 150 and solved["underflow"] >= 20 and solved["cancel"] == 18


def test_exact_start_falls_back_where_the_factor_fails():
    # nodes 0 <-> 1 at reward 0, destination 1: M = I - A is singular, while
    # the destination's block (row 1 cleared) is nilpotent and its values
    # are the max-reward ones, so the pass converges from that start
    g = build_graph([(0, 0.0, 0.0), (1, 1.0, 0.0)],
                    [(0, 0, 1, [1.0, 0.0]), (1, 1, 0, [1.0, 0.0])])
    plan = routeirl.planners.Planner(g, np.zeros(2))
    assert plan._factor is None
    assert np.array_equal(plan.exact_start(1), Planner(g, np.zeros(2)).best_values(1))
    pol, iters = plan.soft(1)
    assert pol is not None and iters == 1 and np.array_equal(pol.values, [0.0, 0.0])
    assert evaluate(np.zeros(2), [Trajectory.from_nodes(g, [0, 1])], g).nll == 0.0
    # exp(r/T) overflows on an edge into the destination: no factor, and no
    # RuntimeWarning (an error under the test settings); the destination is
    # feasible, and its pass runs as the max-reward start's does
    g = loopy_graph()
    rew = _rand_rewards(g, 1)
    rew[6] = 800.0  # edge 1 -> 4
    gv = GoalView(g, 4)
    for temperature in (1.0, 0.7):
        plan = routeirl.planners.Planner(g, rew, temperature)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert plan._factor is None
            start = plan.exact_start(4)
        assert np.array_equal(start, plan.best_values(4) / temperature)
        runs = [plan.soft(4, init=init) for init in ("dijkstra", "exact")]
        assert runs[0][1] == runs[1][1] and runs[1][0] is not None
        assert np.array_equal(runs[0][0].values, runs[1][0].values)


def test_exact_start_on_a_nonsingular_factor_of_an_indefinite_table():
    # 0 <-> 1 on two parallel edges each way at reward -0.1, with exits to
    # destination 2: M is nonsingular but the destination's spectral radius
    # is 2 e^-0.1 > 1, so x / x_d is negative and the pass runs and fails as
    # from the max-reward start
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 0.5, 1.0)]
    f = [1.0, 0.0]
    pairs = [(0, 1), (0, 1), (1, 0), (1, 0), (0, 2), (1, 2)]
    g = build_graph(nodes, [(e, u, w, f) for e, (u, w) in enumerate(pairs)])
    rew = np.array([-0.1] * 4 + [-1.0] * 2)
    plan = routeirl.planners.Planner(g, rew)
    assert plan._factor is not None
    assert np.array_equal(plan.exact_start(2), plan.best_values(2))
    gv = GoalView(g, 2)
    runs = [power_iteration_backward(gv, rew, init=init) for init in ("dijkstra", "exact")]
    assert runs[0][1:] == runs[1][1:] == (_default_iters(g.num_nodes), False)
    assert np.array_equal(runs[0][0], runs[1][0])
    # two zero-reward routes 0 -> 2 and three edges back out of the
    # destination at -0.5: A's spectral radius passes 1 and x is negative
    # everywhere, yet the destination is feasible and x / x_d is its Z, so
    # one backup confirms it
    pairs = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 0), (2, 0)]
    g = build_graph(nodes, [(e, u, w, f) for e, (u, w) in enumerate(pairs)])
    rew = np.array([0.0] * 3 + [-0.5] * 3)
    plan = routeirl.planners.Planner(g, rew)
    assert plan._factor.solve(np.eye(3)[2]).max() < 0.0
    assert np.max(np.abs(plan.exact_start(2) - [math.log(2.0), 0.0, 0.0])) <= 1e-15
    pol, iters = plan.soft(2)
    assert pol is not None and iters == 1


def test_one_factor_per_table(monkeypatch):
    # evaluate factorises once for all its destinations and solves once per
    # destination; T=0 sampling and finite-H, H=0 and H=inf gradients
    # factorise nothing
    g = gen_gridworld(5, 5, feature_spec="random", rng_seed=3)
    m = LinearReward(np.array([-1.2, -0.9]))
    pairs = [(0, 24), (3, 24), (7, 12), (1, 12), (20, 24), (5, 6), (9, 6)]
    demos = sample_demonstrations(m, g, len(pairs), rng_seed=1, pairs=pairs)
    dests = len({d for _, d in pairs})
    calls = Counter()
    real = scipy.sparse.linalg.splu

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            calls["solve"] += 1
            return self.lu.solve(rhs)

    def splu(*args, **kw):
        calls["splu"] += 1
        return Counted(real(*args, **kw))

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    evaluate(m, demos, g)
    assert calls == {"splu": 1, "solve": dests}
    calls.clear()
    sample_demonstrations(m, g, len(pairs), rng_seed=2, temperature=0.7, pairs=pairs)
    assert calls == {"splu": 1, "solve": dests}
    calls.clear()
    evaluate(m, demos, g, nll=False)
    sample_demonstrations(m, g, len(pairs), rng_seed=2, temperature=0.0, pairs=pairs)
    for horizon in (0, 3, math.inf):
        batch_gradient(m, g, demos, IrlConfig(horizon=horizon))
    batch_gradient(m, g, demos, IrlConfig(algorithm="maxent"))
    assert not calls


def _with_triple_edge(g):
    """g plus two more copies of edge 0, with their own features, so one
    node pair carries three parallel edges."""
    recs = [(e, int(g.edge_src[e]), int(g.edge_dst[e]), g.features[e])
            for e in range(g.num_edges)]
    recs += [(g.num_edges + k, recs[0][1], recs[0][2], g.features[0] * (1.3 + k))
             for k in range(2)]
    return build_graph([(s, *g.coords[s]) for s in range(g.num_nodes)], recs)


# ---------------------------------------------------------------------------
# reward tables and goal views


def test_non_finite_reward_tables_are_rejected():
    # NaN and +inf raise wherever a reward table enters planning; -inf, an
    # edge never taken, is a reward
    g = loopy_graph()
    gv = GoalView(g, 4)
    demos = [Trajectory.from_nodes(g, [0, 1, 4]), Trajectory.from_nodes(g, [2, 3, 4])]
    for bad in (np.nan, np.inf):
        rew = _rand_rewards(g, 1)
        rew[6] = bad  # edge 1 -> 4, on the first demo
        calls = [lambda: routeirl.planners.Planner(g, rew),
                 lambda: routeirl.convergence_rate_probe(gv, rew),
                 lambda: routeirl.cheap_bounds(gv, rew),
                 lambda: routeirl.dominant_eigenvalue(gv, rew),
                 lambda: evaluate(rew, demos, g)]
        for call in calls:
            with pytest.raises(routeirl.ValidationError, match=r"edge 6 .*NaN and \+inf"):
                call()
    rew = _rand_rewards(g, 1)
    rew[6] = -np.inf
    pol, _ = Planner(g, rew).soft(4)
    assert pol is not None and np.all(np.isfinite(pol.values))
    assert evaluate(rew, demos, g).nll > 0.0
    assert routeirl.dominant_eigenvalue(gv, rew).classification == "Feasible"


def test_goal_view_is_a_graph_and_a_destination():
    # a view holds the pair and keeps nothing per destination, whatever is
    # planned on it
    assert [f.name for f in dataclasses.fields(GoalView)] == ["graph", "destination"]
    assert not [name for name, attr in vars(GoalView).items()
                if isinstance(attr, (cached_property, property))]
    g = loopy_graph()
    gv = GoalView(g, 4)
    rew = _rand_rewards(g, 1)
    plan = Planner(g, rew)
    pol, _ = plan.soft(4)
    greedy = plan.greedy(4)
    mass = np.ones(g.num_nodes)
    rollout(gv, [(pol, 2), (greedy, None)], mass)
    routeirl.dominant_eigenvalue(gv, rew)
    assert set(vars(gv)) == {"graph", "destination"}
