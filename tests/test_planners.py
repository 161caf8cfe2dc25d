import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from scipy.special import logsumexp

import oracles
import routeirl
from routeirl import (
    GoalView,
    InfeasibilityError,
    LinearReward,
    Trajectory,
    build_graph,
    edge_rewards,
    gen_gridworld,
    gen_random_graph,
)
from routeirl.planners import (
    _logsumexp_rows,
    _value_diff,
    closed_form_forward,
    dijkstra_values,
    greedy_path,
    greedy_policy,
    onehot_values,
    policy_from_values,
    power_iteration_backward,
    rollout,
    slot_rewards,
    softmax_backup,
    trajectory_policy_nll,
)
from oracles import (
    best_path_reward,
    diamond_graph,
    enumerate_walks,
    loopy_graph,
    max_backup,
    mp_soft_values,
    power_iteration_backward_linear,
    scipy_backward,
    soft_value_walks,
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
        v = dijkstra_values(GoalView(g, dest), rew)
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
    v = dijkstra_values(GoalView(g, 3), rew)
    assert v[0] == 4.5 and v[1] == 2.0 and v[2] == 0.5


def test_dijkstra_raises_on_reward_gain_cycle():
    g = loopy_graph()
    rew = np.full(g.num_edges, 0.25)  # every cycle gains reward
    with pytest.raises(InfeasibilityError):
        dijkstra_values(GoalView(g, 4), rew)


def test_backward_matches_walk_enumeration_on_dag():
    g = diamond_graph()
    rew = edge_rewards(LinearReward(np.array([-1.0])), g)
    v, iters, conv = power_iteration_backward(GoalView(g, 3), rew)
    assert conv
    for s in (0, 1, 2):
        want = soft_value_walks(g, rew, s, 3, 10)
        assert abs(v[s] - want) < 1e-14


def test_backward_matches_high_precision_fixed_point():
    g = loopy_graph()
    for seed in range(4):
        rew = _rand_rewards(g, seed, lo=0.8, hi=1.6)
        gv = GoalView(g, 4)
        v, _, conv = power_iteration_backward(gv, rew, tol=1e-13, max_iters=2000)
        assert conv
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
    v, iters, conv = power_iteration_backward(GoalView(g, 4), rew, max_iters=50)
    assert not conv
    assert iters == 50


def test_dijkstra_init_dominates_pointwise_and_in_iterations():
    # at T=1 both inits run the same backup map; the shortest-path warm start
    # is elementwise below the fixed point and never needs more sweeps
    for seed in range(6):
        g = gen_gridworld(5, 5, feature_spec="random", rng_seed=seed)
        rew = _rand_rewards(g, seed, lo=0.9, hi=1.8)
        gv = GoalView(g, int(np.random.default_rng(seed + 99).integers(25)))
        v_star, it_cold, conv = power_iteration_backward(gv, rew, init="onehot")
        assert conv
        v_dij = dijkstra_values(gv, rew)
        assert np.all(v_dij <= v_star + 1e-12)
        v_warm, it_warm, conv_w = power_iteration_backward(gv, rew, init="dijkstra")
        assert conv_w
        assert it_warm <= it_cold
        assert np.max(np.abs(v_warm - v_star)) < 1e-8


def test_backward_monotone_from_below():
    # every iterate from the shortest-path start stays below the fixed point
    g = gen_gridworld(4, 4)
    rew = _rand_rewards(g, 2, lo=1.0, hi=1.5)
    gv = GoalView(g, 0)
    v_star, _, _ = power_iteration_backward(gv, rew, tol=1e-13)
    trace = []
    power_iteration_backward(gv, rew, init="dijkstra", trace=trace)
    for v in trace:
        assert np.all(v <= v_star + 1e-9)


def test_policy_rows_are_distributions():
    g = loopy_graph()
    rew = _rand_rewards(g, 1)
    gv = GoalView(g, 4)
    v, _, _ = power_iteration_backward(gv, rew)
    pol = policy_from_values(gv, rew, v)
    sums = pol.probs.sum(axis=1)
    live = ~pol.dead
    assert np.allclose(sums[live], 1.0)
    assert np.all(pol.probs[pol.dead] == 0.0)
    assert pol.dead[4]  # destination is absorbing
    # probabilities only on valid slots
    assert np.all(pol.probs[~gv.slot_valid] == 0.0)


def test_trajectory_policy_nll_is_stepwise_product():
    g = diamond_graph()
    rew = edge_rewards(LinearReward(np.array([-1.0])), g)
    gv = GoalView(g, 3)
    v, _, _ = power_iteration_backward(gv, rew)
    top = Trajectory(nodes=(0, 1, 3), edges=(0, 2))
    bot = Trajectory(nodes=(0, 2, 3), edges=(1, 3))
    nll_top = trajectory_policy_nll(gv, rew, v, top)
    nll_bot = trajectory_policy_nll(gv, rew, v, bot)
    # exactly two walks: path probabilities come from the walk partition
    z = np.logaddexp(-1.0, -2.0)
    assert abs(nll_top - (z - (-1.0))) < 1e-12
    assert abs(nll_bot - (z - (-2.0))) < 1e-12
    # an off-policy edge from a dead state prices at infinity
    pol = greedy_policy(gv, rew, dijkstra_values(gv, rew))
    assert trajectory_policy_nll(gv, rew, onehot_values(gv), bot) == np.inf


def test_greedy_path_follows_argmax():
    g = diamond_graph()
    rew = edge_rewards(LinearReward(np.array([-1.0])), g)
    gv = GoalView(g, 3)
    t = greedy_path(gv, rew, 0)
    assert t is not None and t.nodes == (0, 1, 3)  # top route is cheaper
    assert greedy_path(gv, rew, 3) is None  # origin == destination
    # unreachable origin: no outgoing route to the goal
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)]
    edges = [(0, 1, 2, [1.0])]
    g2 = build_graph(nodes, edges)
    rew2 = g2.features @ np.array([-1.0])
    assert greedy_path(GoalView(g2, 2), rew2, 0) is None


def test_rollout_conserves_mass():
    g = loopy_graph()
    rew = _rand_rewards(g, 3, lo=0.9, hi=1.8)
    gv = GoalView(g, 4)
    v, _, _ = power_iteration_backward(gv, rew)
    pol = policy_from_values(gv, rew, v)
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
    v, _, _ = power_iteration_backward(gv, rew)
    pol = policy_from_values(gv, rew, v)
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
    pol = policy_from_values(gv, rew, np.zeros(g.num_nodes))
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
        v, _, conv = power_iteration_backward(gv, rew, tol=1e-12)
        assert conv
        pol = policy_from_values(gv, rew, v)
        mass = np.zeros(g.num_nodes)
        mass[(gv.destination + 1) % g.num_nodes] = 1.0
        res = rollout(gv, [(pol, None)], mass, tol=1e-15)
        cf = closed_form_forward(gv, pol, mass)
        assert np.max(np.abs(res.edge_mass - cf)) < 1e-10


def test_closed_form_raises_when_mass_is_trapped():
    # greedy tie-break walks 1 -> 2 -> 1 forever: the linear system is singular
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0)]
    edges = [(0, 1, 2, [0.1]), (1, 2, 1, [0.1]), (2, 1, 3, [9.0]), (3, 0, 1, [1.0])]
    g = build_graph(nodes, edges)
    rew = g.features @ np.array([-1.0])
    gv = GoalView(g, 3)
    pol = greedy_policy(gv, rew, np.zeros(g.num_nodes))  # flat values: picks cheap loops
    mass = np.zeros(4)
    mass[0] = 1.0
    with pytest.raises(InfeasibilityError):
        closed_form_forward(gv, pol, mass)


def test_linear_space_twin_underflows_at_half_precision():
    g = gen_gridworld(10, 10)
    rew = edge_rewards(LinearReward(np.array([-2.5, -2.5])), g)
    gv = GoalView(g, 0)
    v_log, _, conv = power_iteration_backward(gv, rew)
    assert conv
    z64, _, c64 = power_iteration_backward_linear(gv, rew, dtype=np.float64)
    assert c64
    with np.errstate(divide="ignore"):
        v64 = np.log(np.asarray(z64, dtype=np.float64))
    finite = np.isfinite(v_log)
    assert np.max(np.abs(v64[finite] - v_log[finite])) < 1e-8
    # float16 smallest positive is ~6e-8, but remote states need exp(-79):
    # the whole far field flushes to zero and the log-domain pass is the only
    # faithful one
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
    assert np.allclose(v, dijkstra_values(gv, rew), atol=1e-12)


def test_logsumexp_rows_matches_scipy_bitwise():
    rng = np.random.default_rng(17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in ((1, 1), (7, 1), (100, 4), (400, 4), (3400, 3)):
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
    assert power_iteration_backward(gv, rew)[2]
    assert routeirl.dominant_eigenvalue(gv, rew).converged
