"""Property test: every greedy policy is its planner's shortest-path forest."""
import numpy as np
import pytest

from routeirl import GoalView, LinearReward, edge_rewards, gen_gridworld, gen_random_graph
from routeirl.planners import Planner
from oracles import greedy_probs_dense, slot_rewards, tie_loop_graph
from test_planners import _loopy_multigraph, _shaped_rewards

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


def _linear(g, rng):
    return edge_rewards(LinearReward(-rng.uniform(0.2, 1.5, g.feature_dim)), g)


# (graph, rewards) per kind: mixed-sign rewards plan on Bellman-Ford, the
# others on Dijkstra; the constant grid and the tie loop tie on most rows
KINDS = {
    "random, mixed sign": lambda seed, rng: (
        g := gen_random_graph(8 + seed % 13, rng_seed=seed, extra_edges=4 + seed % 9),
        _shaped_rewards(g, seed)),
    "multigraph": lambda seed, rng: (g := _loopy_multigraph(seed % 50), _linear(g, rng)),
    "constant grid": lambda seed, rng: (g := gen_gridworld(3 + seed % 5, 3 + seed % 4),
                                        _linear(g, rng)),
    "random grid": lambda seed, rng: (
        g := gen_gridworld(3 + seed % 5, 4, feature_spec="random", rng_seed=seed),
        _linear(g, rng)),
    "tie loop": lambda seed, rng: (g := tie_loop_graph(), _linear(g, rng)),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(KINDS)), seed=st.integers(0, 10_000), data=st.data())
def test_greedy_policy_is_a_shortest_path_forest(kind, seed, data):
    g, rew = KINDS[kind](seed, np.random.default_rng(seed))
    dest = data.draw(st.integers(0, g.num_nodes - 1), label="destination")
    gv = GoalView(g, dest)
    plan = Planner(g, rew)
    v = plan.best_values(dest)
    pol = plan.greedy(dest)
    edge, dead = pol.edge, pol.dead
    live = np.flatnonzero(edge >= 0)
    q = slot_rewards(gv, rew) + v[g.safe_targets]
    top = q.max(axis=1)
    # every live row's edge attains that row's max of r + v exactly
    assert np.array_equal(q[live, g.edge_slot[edge[live]]], top[live])
    # every walk reaches a dead row within num_nodes hops
    at = np.arange(g.num_nodes)
    for _ in range(g.num_nodes):
        at = np.where(dead[at], at, g.edge_dst[edge[at]])
    assert dead[at].all()
    # dead rows, and the rows with a unique max, are the first-slot argmax's
    onehot = greedy_probs_dense(gv, rew, v)
    assert np.array_equal(dead, onehot.sum(axis=1) == 0)
    unique = np.flatnonzero(((q == top[:, None]).sum(axis=1) == 1) & ~dead)
    assert np.array_equal(g.edge_slot[edge[unique]], onehot[unique].argmax(axis=1))
