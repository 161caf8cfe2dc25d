"""Reference implementations the tests check the fast code against.

Everything here trades speed for obviousness: a per-node-list slot layout,
explicit walk enumeration, dense eigensolves, high-precision fixed points,
central differences, the backward pass and the spectral power iteration over
all of B1 on scipy's logsumexp (the latter a cross-check of the library's
linear iteration on B1's cyclic core), that linear iteration again on a B1
assembled from the edge arrays through scipy's COO conversion, and the
classical MaxEnt, BIRL and MMP estimators written out independently of the
receding-horizon estimator that the library runs them as, and `evaluate` and
`sample_demonstrations` replanned from scratch for every demo, the samples
drawn hop by hop with `rng.choice` from the policy's rows, greedy policies
stepped on one-hot tables, the sparse
I - C assembled from the edge arrays through scipy's COO conversion and
sparse subtraction, the stationary edge mass solved on that I - P
(``closed_form_forward``), and
the exact start solved per destination on a rescaled system, and the graph
generators writing one record per node and per edge for `build_graph`.
The log-domain backward pass (``power_iteration_backward`` on the library's
``softmax_backup``, with ``policy_from_values``, on the slot reward tables
of ``slot_rewards``) lives here, apart from the
library's linear-domain planner, and the classical estimators take their
soft policies from it.  The per-demo
replanning takes them from a fresh ``Planner.soft``, so it checks what is
shared between demos bitwise; the plan's own numerics are checked against
the log-domain pass in ``test_planners``.
"""
import math
import warnings

import mpmath as mp
import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.special import logsumexp

from routeirl import (InfeasibilityError, Metrics, RoadGraph, GoalView,
                      ValidationError, build_graph)
from routeirl.algorithms import (GradientReport, IrlConfig, _skipped,
                                 edge_mass_of, state_mass)
from routeirl.graph import Trajectory
from routeirl.planners import (Planner, Policy, Successors, _default_iters, greedy_path, rollout,
                               softmax_backup, trajectory_nll)
from routeirl.rewards import RewardModel, backprop, edge_rewards


def goal_slots(gv: GoalView) -> np.ndarray:
    """The slots a plan toward gv's destination may take: the valid slots
    off the destination's row, worked out here from the slot table."""
    valid = gv.graph.slot_edge >= 0
    valid[gv.destination] = False
    return valid


def diamond_graph() -> RoadGraph:
    """Two parallel two-edge routes 0->3; top route is cheaper under w=[-1]."""
    nodes = [(0, 0.0, 0.0), (1, 0.0, 1.0), (2, 1.0, 0.0), (3, 1.0, 1.0)]
    edges = [
        (0, 0, 1, [0.5]),
        (1, 0, 2, [1.0]),
        (2, 1, 3, [0.5]),
        (3, 2, 3, [1.0]),
    ]
    return build_graph(nodes, edges)


def loopy_graph() -> RoadGraph:
    """Five nodes with a 2-cycle and a 3-cycle feeding the goal at 4."""
    nodes = [(i, float(i), 0.0) for i in range(5)]
    edges = [
        (0, 0, 1, [1.0]),
        (1, 1, 2, [0.5]),
        (2, 2, 1, [0.5]),   # 2-cycle 1<->2
        (3, 2, 3, [1.0]),
        (4, 3, 0, [0.5]),   # 3-cycle 0->1->... back via 3->0
        (5, 3, 4, [1.0]),
        (6, 1, 4, [2.0]),
        (7, 0, 3, [1.5]),
    ]
    return build_graph(nodes, edges)


def tie_loop_graph() -> RoadGraph:
    """Zero-reward 2-cycle 0<->1 whose first slots tie with the exits to 2,
    so a first-slot greedy walk from either cycle node circles forever; the
    shortest-path tree's walk takes the exit."""
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 0.5, 1.0)]
    edges = [
        (0, 0, 1, [0.0]),
        (1, 1, 0, [0.0]),
        (2, 0, 2, [0.0]),   # exit, second slot of node 0
        (3, 1, 2, [0.0]),   # exit, second slot of node 1
    ]
    return build_graph(nodes, edges)


def blocked_chain_graph() -> RoadGraph:
    """Chain 2->0->1 would remove node 0, but 1->0 also enters it and cannot
    merge (its own chain would close the loop 1->0->1)."""
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 0.5, 1.0)]
    pairs = [(0, 1), (1, 0), (1, 2), (2, 0), (2, 1)]
    return build_graph(nodes, [(i, u, w, [1.0]) for i, (u, w) in enumerate(pairs)])


def gen_gridworld_records(width: int, height: int, feature_spec: str = "constant",
                          rng_seed: int = 0, feature_dim: int = 2,
                          segments_per_block: int = 1) -> RoadGraph:
    """``gen_gridworld`` built block by block from records."""
    rng = np.random.default_rng(rng_seed)

    def nid(r: int, c: int) -> int:
        return r * width + c

    node_records = [(nid(r, c), float(c), float(r))
                    for r in range(height) for c in range(width)]
    blocks: list[tuple[int, int]] = []
    for r in range(height):
        for c in range(width):
            if c + 1 < width:
                blocks.append((nid(r, c), nid(r, c + 1)))
            if r + 1 < height:
                blocks.append((nid(r, c), nid(r + 1, c)))

    edge_records: list[tuple] = []
    next_node = width * height
    next_edge = 0
    k = segments_per_block
    for u, w in blocks:
        for a, b in ((u, w), (w, u)):
            if feature_spec == "constant":
                f = np.ones(feature_dim)
            else:
                f = rng.uniform(0.5, 1.5, size=feature_dim)
            if k == 1:
                edge_records.append((next_edge, a, b, f))
                next_edge += 1
            else:
                xa, ya = node_records[a][1], node_records[a][2]
                xb, yb = node_records[b][1], node_records[b][2]
                mids = []
                for j in range(1, k):
                    t = j / k
                    node_records.append((next_node, xa + t * (xb - xa), ya + t * (yb - ya)))
                    mids.append(next_node)
                    next_node += 1
                hops = [a] + mids + [b]
                for p, q in zip(hops[:-1], hops[1:]):
                    edge_records.append((next_edge, p, q, f / k))
                    next_edge += 1
    return build_graph(node_records, edge_records)


def gen_random_graph_records(num_nodes: int, feature_dim: int = 2, rng_seed: int = 0,
                             extra_edges: int | None = None) -> RoadGraph:
    """``gen_random_graph`` built from records, one feature draw per edge."""
    rng = np.random.default_rng(rng_seed)
    if extra_edges is None:
        extra_edges = num_nodes
    order = rng.permutation(num_nodes)
    pairs = set()
    for i in range(num_nodes):
        pairs.add((int(order[i]), int(order[(i + 1) % num_nodes])))
    attempts = 0
    while len(pairs) < num_nodes + extra_edges and attempts < 50 * (num_nodes + extra_edges):
        u = int(rng.integers(num_nodes))
        w = int(rng.integers(num_nodes))
        attempts += 1
        if u != w:
            pairs.add((u, w))
    edge_list = sorted(pairs)
    coords = rng.uniform(0.0, 1.0, size=(num_nodes, 2))
    node_records = [(s, coords[s, 0], coords[s, 1]) for s in range(num_nodes)]
    edge_records = [(i, u, w, rng.uniform(0.5, 2.0, size=feature_dim))
                    for i, (u, w) in enumerate(edge_list)]
    return build_graph(node_records, edge_records)


def gen_two_state_loop_records() -> RoadGraph:
    """``gen_two_state_loop`` built from records."""
    node_records = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 0.5, 1.0)]
    edge_records = [
        (0, 0, 0, [1.0, 0.0, 0.0]),
        (1, 0, 1, [1.0, 0.0, 0.0]),
        (2, 1, 0, [0.0, 1.0, 0.0]),
        (3, 1, 1, [0.0, 1.0, 0.0]),
        (4, 0, 2, [0.0, 0.0, 1.0]),
        (5, 1, 2, [0.0, 0.0, 1.0]),
        (6, 2, 2, [0.0, 0.0, 0.0]),
    ]
    return build_graph(node_records, edge_records)


def slot_layout(num_nodes: int, edge_src, edge_dst) -> tuple[np.ndarray, np.ndarray, int]:
    """(slot_target, slot_edge, max_out_degree) from one Python list per node,
    each sorted by (target, edge id) and padded with -1."""
    per_node: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
    for eid in range(len(edge_src)):
        per_node[int(edge_src[eid])].append((int(edge_dst[eid]), eid))
    V = max((len(lst) for lst in per_node), default=0)
    slot_target = np.full((num_nodes, V), -1, dtype=np.int64)
    slot_edge = np.full((num_nodes, V), -1, dtype=np.int64)
    for s, lst in enumerate(per_node):
        lst.sort()
        for v, (dst, eid) in enumerate(lst):
            slot_target[s, v] = dst
            slot_edge[s, v] = eid
    return slot_target, slot_edge, V


def enumerate_walks(g: RoadGraph, origin: int, dest: int, max_edges: int):
    """All walks origin->dest with <= max_edges edges.  Walks absorb at the
    destination (no interior visits), revisiting other nodes is allowed."""
    out: list[tuple[int, ...]] = []

    def rec(node, edges):
        if len(edges) >= max_edges:
            return
        for e in g.out_edges(node):
            t = int(g.edge_dst[e])
            if t == dest:
                out.append(tuple(edges + [e]))
            else:
                rec(t, edges + [e])

    if origin != dest:
        rec(origin, [])
    return out


def enumerate_simple_paths(g: RoadGraph, origin: int, dest: int):
    """All node-simple paths origin->dest."""
    out: list[tuple[int, ...]] = []

    def rec(node, edges, seen):
        for e in g.out_edges(node):
            t = int(g.edge_dst[e])
            if t == dest:
                out.append(tuple(edges + [e]))
            elif t not in seen:
                rec(t, edges + [e], seen | {t})

    if origin != dest:
        rec(origin, [], {origin})
    return out


def walk_reward(rew: np.ndarray, edges) -> float:
    return float(sum(rew[e] for e in edges))


def best_path_reward(g: RoadGraph, rew: np.ndarray, origin: int, dest: int) -> float:
    paths = enumerate_simple_paths(g, origin, dest)
    if not paths:
        return -np.inf
    return max(walk_reward(rew, p) for p in paths)


def soft_value_walks(g: RoadGraph, rew: np.ndarray, origin: int, dest: int,
                     max_edges: int, temperature: float = 1.0) -> float:
    """log-partition over enumerated walks, in units of value/temperature.
    Truncated at max_edges; callers pick a horizon where the tail is dust."""
    walks = enumerate_walks(g, origin, dest, max_edges)
    if not walks:
        return -np.inf
    scores = np.array([walk_reward(rew, w) / temperature for w in walks])
    m = scores.max()
    return float(m + np.log(np.exp(scores - m).sum()))


def mp_soft_values(gv: GoalView, rew: np.ndarray, temperature: float = 1.0,
                   dps: int = 50, iters: int = 3000) -> np.ndarray:
    """Soft-value fixed point iterated in mpmath arbitrary precision."""
    g = gv.graph
    with mp.workdps(dps):
        r = [mp.mpf(repr(float(x))) / temperature for x in rew]
        v = [mp.ninf] * g.num_nodes
        v[gv.destination] = mp.mpf(0)
        for _ in range(iters):
            nxt = list(v)
            for s in range(g.num_nodes):
                if s == gv.destination:
                    continue
                terms = [mp.e ** (r[e] + v[int(g.edge_dst[e])])
                         for e in g.out_edges(s)]
                tot = mp.fsum(terms)
                nxt[s] = mp.log(tot) if tot > 0 else mp.ninf
            v = nxt
        return np.array([float(x) for x in v])


def dense_b1_lambda(gv: GoalView, rew: np.ndarray, temperature: float = 1.0) -> float:
    """Dominant eigenvalue modulus of the non-destination exp-reward block,
    via the dense eigensolver."""
    g = gv.graph
    A = np.zeros((g.num_nodes, g.num_nodes))
    for e in range(g.num_edges):
        s, t = int(g.edge_src[e]), int(g.edge_dst[e])
        if s == gv.destination or t == gv.destination:
            continue
        A[s, t] += np.exp(rew[e] / temperature)
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def identity_minus_edges(g: RoadGraph, weights: np.ndarray) -> sp.csc_matrix:
    """Sparse I - C built the plain scipy way: C from COO triplets over the
    edge arrays (one weight per edge; parallel edges summed by the CSC
    conversion), subtracted from a sparse identity, which drops the entries
    that come out 0."""
    n = g.num_nodes
    return (sp.identity(n, format="csc")
            - sp.csc_matrix((weights, (g.edge_src, g.edge_dst)), shape=(n, n)))


def closed_form_forward(gv: GoalView, pol, initial_mass: np.ndarray) -> np.ndarray:
    """Stationary-policy edge mass via the linear system (I - P)' z = m;
    equals an untruncated rollout of (pol, None).  The destination row of P
    is empty, so z is the expected visits of every other node.  A greedy
    policy has no P (its rollout tail is closed-form already)."""
    if isinstance(pol, Successors):
        raise ValidationError("closed_form_forward needs a policy with a probability table")
    g = gv.graph
    m = np.asarray(initial_mass, dtype=np.float64)
    probs = pol.probs[g.edge_src, g.edge_slot]
    with warnings.catch_warnings():  # a singular system solves to NaN
        warnings.simplefilter("ignore", sp.linalg.MatrixRankWarning)
        z = np.atleast_1d(sp.linalg.spsolve(identity_minus_edges(g, probs).T, m))
    if not np.all(np.isfinite(z)):
        raise InfeasibilityError("forward system is singular: policy mass "
                                 "never drains to the destination")
    return z[g.edge_src] * probs


def solved_start(gv: GoalView, rew: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """The exact start as one rescaled sparse solve per destination.

    With v_best the max-reward values over T, y = exp(v - v_best) solves
    (I - C) y = e_dest, C[s, s'] summing exp(r/T + v_best(s') - v_best(s))
    over the edges s -> s' off the destination's row between nodes that
    reach it: every coefficient is at most 1 and y >= 1.  Returns v_best
    where y is singular, not finite or not positive on a reaching node.
    """
    g = gv.graph
    rew = np.asarray(rew, dtype=np.float64)
    v_best = Planner(g, rew).best_values(gv.destination) / temperature
    reach = np.isfinite(v_best)
    src, dst = g.edge_src, g.edge_dst
    live = np.flatnonzero(reach[src] & reach[dst] & (src != gv.destination))
    weights = np.zeros(g.num_edges)
    weights[live] = np.exp(rew[live] / temperature + v_best[dst[live]] - v_best[src[live]])
    rhs = np.zeros(g.num_nodes)
    rhs[gv.destination] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", sp.linalg.MatrixRankWarning)
        try:
            y = sp.linalg.spsolve(identity_minus_edges(g, weights), rhs)
        except sp.linalg.MatrixRankWarning:
            return v_best
    if not np.all(np.isfinite(y[reach]) & (y[reach] > 0)):
        return v_best
    v = np.full(g.num_nodes, -np.inf)
    v[reach] = np.log(y[reach]) + v_best[reach]
    return v


def rollout_dense(gv: GoalView, schedule: list, initial_mass: np.ndarray, *,
                  tol: float = 1e-12, max_steps: int = 1000):
    """``rollout`` on a dense node-to-node matrix built per edge.  Returns
    (edge_mass, steps, truncated, lost, absorbed, residual), where residual is
    the mass still on the nodes when the rollout stops."""
    g, d = gv.graph, gv.destination
    m = np.array(initial_mass, dtype=np.float64)
    absorbed, m[d] = m[d], 0.0
    lost, steps, truncated = 0.0, 0, False
    edge_mass = np.zeros(g.num_edges)
    for pol, length in schedule:
        p_edge = np.where(g.edge_src == d, 0.0, policy_probs(g, pol)[g.edge_src, g.edge_slot])
        step = np.zeros((g.num_nodes, g.num_nodes))
        for e in range(g.num_edges):
            step[g.edge_src[e], g.edge_dst[e]] += p_edge[e]
        k = 0
        while (length is None or k < length) and m.sum() > tol:
            if steps >= max_steps:
                truncated = True
                break
            lost += m[pol.dead].sum()
            edge_mass += m[g.edge_src] * p_edge
            m = m @ step
            absorbed, m[d] = absorbed + m[d], 0.0
            steps, k = steps + 1, k + 1
        if truncated:
            break
    if not truncated and m.sum() > tol and schedule[-1][1] is None:
        truncated = True
    return edge_mass, steps, truncated, lost, absorbed, m


def slot_rewards(gv: GoalView, rew: np.ndarray) -> np.ndarray:
    """Per-slot reward table, -inf on invalid slots and on the destination's
    row: the log-domain backup's only mask."""
    g = gv.graph
    valid = goal_slots(gv)
    out = np.full(valid.shape, -np.inf)
    out[valid] = np.asarray(rew, dtype=np.float64)[g.slot_edge[valid]]
    return out


def greedy_probs_dense(gv: GoalView, rew: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A first-slot greedy policy's one-hot table from the padded slot
    tables: a 1 on each live row's first argmax of r + v(s').  Where a row
    ties, this is not the library's choice, which follows the tree."""
    g = gv.graph
    q = slot_rewards(gv, rew) + v[g.safe_targets]
    q[~goal_slots(gv)] = -np.inf
    probs = np.zeros(q.shape)
    best = np.argmax(q, axis=1)
    rows = np.arange(g.num_nodes)
    live = ~np.isneginf(q[rows, best])
    live[gv.destination] = False
    probs[rows[live], best[live]] = 1.0
    return probs


def policy_probs(g: RoadGraph, pol) -> np.ndarray:
    """A policy's probability table; a greedy policy, which holds none,
    gives the one-hot table of its successor array."""
    if not isinstance(pol, Successors):
        return pol.probs
    edge = pol.edge
    probs = np.zeros((g.num_nodes, g.max_out_degree))
    live = np.flatnonzero(edge >= 0)
    probs[live, g.edge_slot[edge[live]]] = 1.0
    return probs


def greedy_path_argmax(g: RoadGraph, pol, origin: int):
    """``greedy_path`` as an argmax over the policy's row at every hop."""
    probs = policy_probs(g, pol)
    node, nodes, edges = origin, [origin], []
    for _ in range(g.num_nodes + 1):
        if node == pol.destination:
            return Trajectory(nodes=tuple(nodes), edges=tuple(edges)) if edges else None
        if pol.dead[node]:
            return None
        slot = int(np.argmax(probs[node]))
        edges.append(int(g.slot_edge[node, slot]))
        node = int(g.slot_target[node, slot])
        nodes.append(node)
    return None


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences."""
    g = np.zeros_like(x, dtype=np.float64)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# planners the library does not need


def onehot_values(gv: GoalView) -> np.ndarray:
    """Log-domain destination indicator: 0 at the destination, -inf elsewhere."""
    v = np.full(gv.graph.num_nodes, -np.inf)
    v[gv.destination] = 0.0
    return v


def max_backup(gv: GoalView, rew_slots: np.ndarray, v_prev: np.ndarray) -> np.ndarray:
    valid = goal_slots(gv)
    q = rew_slots + v_prev[np.where(valid, gv.graph.slot_target, 0)]
    q[~valid] = -np.inf
    v = np.max(q, axis=1, initial=-np.inf)
    v[gv.destination] = 0.0
    return v


# ---------------------------------------------------------------------------
# the log-domain backward pass on the library's softmax_backup: the
# reference the linear-domain planner is checked against


def _value_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Max |a - b|, reading -inf against -inf as 0, -inf against a finite
    value as inf, and any NaN input as inf (never converged)."""
    with np.errstate(invalid="ignore"):
        d = np.abs(a - b)
    top = float(d.max(initial=0.0))
    if math.isnan(top):
        d[np.isnan(d) & np.isneginf(a) & np.isneginf(b)] = 0.0
        d[np.isnan(d)] = np.inf
        top = float(d.max(initial=0.0))
    return top


def power_iteration_backward(gv: GoalView, rew, *,
                             temperature: float = 1.0, init="onehot",
                             tol: float = 1e-9, max_iters: int | None = None,
                             trace: list | None = None
                             ) -> tuple[np.ndarray, int, bool]:
    """Iterate softmax backups to the soft-value fixed point.

    init: 'onehot' (destination indicator), 'dijkstra' (max-reward values,
    temperature-scaled), 'exact' (``Planner.exact_start``, else the
    Dijkstra start), or an explicit starting vector.  The backups and the
    stopping test are the same for every start.  Returns (values,
    iterations, converged).
    """
    if temperature <= 0:
        raise ValidationError("temperature must be positive")
    plan = Planner(gv.graph, rew, temperature)
    rs = slot_rewards(gv, plan.rew)
    if isinstance(init, str):
        if init not in ("onehot", "dijkstra", "exact"):
            raise ValidationError(f"unknown init {init!r}")
        if init == "onehot":
            init = np.full(gv.graph.num_nodes, -np.inf)  # 0 at the destination, below
        elif init == "dijkstra":
            init = plan.best_values(gv.destination) / temperature
        else:
            init = plan.exact_start(gv.destination)
    v = np.asarray(init, dtype=np.float64).copy()
    v[gv.destination] = 0.0
    if max_iters is None:
        max_iters = _default_iters(gv.graph.num_nodes)
    if trace is not None:
        trace.append(v.copy())
    for it in range(1, max_iters + 1):
        _, v_new = softmax_backup(gv, rs, v, temperature)
        if trace is not None:
            trace.append(v_new.copy())
        if _value_diff(v_new, v) <= tol:
            return v_new, it, True
        v = v_new
    return v, max_iters, False


def policy_from_values(gv: GoalView, rew: np.ndarray, v: np.ndarray,
                       temperature: float = 1.0) -> Policy:
    """The softmax policy exp(Q - v_new) of one log-domain backup from v:
    Q's -inf entries (invalid slots, the destination row) give probability
    0 with no mask, and a dead row's NaN (v_new and every Q -inf) is zeroed."""
    q, v_new = softmax_backup(gv, slot_rewards(gv, rew), v, temperature)
    with np.errstate(invalid="ignore"):  # dead rows: -inf minus -inf
        probs = np.exp(q - v_new[:, None])
    probs[np.isnan(probs)] = 0.0
    dead = np.isneginf(v_new)
    dead[gv.destination] = True
    return Policy(probs=probs, destination=gv.destination, dead=dead)


def trajectory_policy_nll(gv: GoalView, rew: np.ndarray, v: np.ndarray,
                          traj: Trajectory, temperature: float = 1.0) -> float:
    """-log likelihood of a trajectory under the softmax policy implied by v."""
    return trajectory_nll(gv.graph, traj, policy_from_values(gv, rew, v, temperature))


def power_iteration_backward_linear(gv: GoalView, rew: np.ndarray, *,
                                    temperature: float = 1.0,
                                    dtype=np.float32, tol: float = 1e-6,
                                    max_iters: int | None = None
                                    ) -> tuple[np.ndarray, int, bool]:
    """Linear-space twin of the log-domain backward pass: iterates
    z <- A z on z = exp(v) in the requested dtype.  Exists to show where
    reduced precision underflows; prefer the log-domain routine.
    """
    g = gv.graph
    w = np.exp(slot_rewards(gv, rew) / temperature).astype(dtype)
    valid = goal_slots(gv)
    w[~valid] = 0
    tgt = np.where(valid, g.slot_target, 0)
    z = np.zeros(g.num_nodes, dtype=dtype)
    z[gv.destination] = 1
    if max_iters is None:
        max_iters = max(100, 10 * g.num_nodes)
    for it in range(1, max_iters + 1):
        z_new = (w * z[tgt]).sum(axis=1, dtype=dtype).astype(dtype)
        z_new[gv.destination] = 1
        a = z_new.astype(np.float64)
        b = z.astype(np.float64)
        if not np.all(np.isfinite(a)):
            return z_new, it, False
        # per-component relative stability; a blanket norm test would stop
        # while far-from-goal states are still orders of magnitude off
        if np.all(np.abs(a - b) <= tol * a):
            return z_new, it, True
        z = z_new
    return z, max_iters, False


def scipy_backward(gv: GoalView, rew: np.ndarray, *, temperature: float = 1.0,
                   init: str = "onehot", tol: float = 1e-9,
                   max_iters: int | None = None) -> tuple[np.ndarray, int, bool]:
    """The softmax backward pass on scipy.special.logsumexp, with the value
    difference written out; (values, iterations, converged) as
    ``power_iteration_backward`` above returns them."""
    g = gv.graph
    rs = slot_rewards(gv, rew)
    valid = goal_slots(gv)
    tgt = np.where(valid, g.slot_target, 0)
    if init == "onehot":
        v = np.full(g.num_nodes, -np.inf)
    else:
        v = Planner(g, rew).best_values(gv.destination) / temperature
    v[gv.destination] = 0.0
    if max_iters is None:
        max_iters = max(100, 10 * g.num_nodes)
    for it in range(1, max_iters + 1):
        q = rs / temperature + v[tgt]
        q[~valid] = -np.inf
        v_new = logsumexp(q, axis=1)
        v_new[gv.destination] = 0.0
        both_inf = np.isneginf(v_new) & np.isneginf(v)
        with np.errstate(invalid="ignore"):
            d = np.where(both_inf, 0.0, np.abs(v_new - v))
        d[np.isnan(d)] = np.inf
        if np.max(d, initial=0.0) <= tol:
            return v_new, it, True
        v = v_new
    return v, max_iters, False


def log_dominant_eigenvalue(gv: GoalView, rew: np.ndarray, shift: float, *,
                            temperature: float = 1.0, tol: float = 1e-10,
                            max_iters: int | None = None
                            ) -> tuple[float, int, bool]:
    """Shifted log-space power iteration on the non-destination block with a
    Rayleigh-quotient readout, on scipy.special.logsumexp; (lambda_max,
    iterations, converged).  Only for blocks with a cycle: the caller passes
    the shift (the library takes min(1, smallest cheap bound))."""
    g = gv.graph
    mask = goal_slots(gv) & (g.slot_target != gv.destination)
    logw = np.full((g.num_nodes, g.max_out_degree), -np.inf)
    logw[mask] = np.asarray(rew)[g.slot_edge[mask]] / temperature
    tgt = np.where(mask, g.slot_target, 0)
    if max_iters is None:
        max_iters = max(1000, 30 * g.num_nodes)
    x = np.zeros(g.num_nodes)
    x[gv.destination] = -np.inf
    mu_hist = []
    for it in range(1, max_iters + 1):
        y = logsumexp(logw + x[tgt], axis=1)
        y[gv.destination] = -np.inf
        y = np.logaddexp(y, np.log(shift) + x)
        mu = float(np.exp(logsumexp(x + y) - logsumexp(2.0 * x)))
        mu_hist.append(mu)
        if len(mu_hist) >= 3:
            ref = max(1.0, mu)
            if (abs(mu_hist[-1] - mu_hist[-2]) <= tol * ref
                    and abs(mu_hist[-1] - mu_hist[-3]) <= tol * ref):
                return max(0.0, mu - shift), it, True
        x = y - np.max(y)
    return max(0.0, mu_hist[-1] - shift), max_iters, False


def core_dominant_eigenvalue(gv: GoalView, rew: np.ndarray, shift: float, *,
                             temperature: float = 1.0, tol: float = 1e-10,
                             max_iters: int | None = None
                             ) -> tuple[float, int, bool]:
    """Shifted linear power iteration on the cyclic core of the
    non-destination block with a Rayleigh-quotient readout; (lambda_max,
    iterations, converged).  B1 comes from the edge arrays through scipy's
    COO conversion, its strongly connected components from csgraph on that
    matrix, and the core keeps the edges inside one component, weighted
    exp(r/T - scale) for scale the larger of the core's largest log-weight
    and log(shift).  Only for blocks with a cycle: the caller passes the
    shift."""
    g = gv.graph
    keep = (g.edge_src != gv.destination) & (g.edge_dst != gv.destination)
    src, dst = g.edge_src[keep], g.edge_dst[keep]
    logw = np.asarray(rew)[keep] / temperature
    shape = (g.num_nodes, g.num_nodes)
    b1 = sp.coo_matrix((np.ones(src.size), (src, dst)), shape=shape).tocsr()
    _, labels = connected_components(b1, directed=True, connection="strong")
    inside = labels[src] == labels[dst]
    scale = max(logw[inside].max(), np.log(shift))
    core = sp.coo_matrix((np.exp(logw[inside] - scale), (src[inside], dst[inside])),
                         shape=shape).tocsr()
    c = np.exp(np.log(shift) - scale)
    if max_iters is None:
        max_iters = max(1000, 30 * g.num_nodes)
    x = np.ones(g.num_nodes)
    x[gv.destination] = 0.0
    mu_hist = []
    for it in range(1, max_iters + 1):
        y = core.dot(x) + c * x
        mu = float(np.exp(np.log((x * y).sum() / (x * x).sum()) + scale))
        mu_hist.append(mu)
        if len(mu_hist) >= 3:
            ref = max(1.0, mu)
            if (abs(mu_hist[-1] - mu_hist[-2]) <= tol * ref
                    and abs(mu_hist[-1] - mu_hist[-3]) <= tol * ref):
                return max(0.0, mu - shift), it, True
        x = y / y.max()
    return max(0.0, mu_hist[-1] - shift), max_iters, False


# ---------------------------------------------------------------------------
# the classical estimators, written out on their own.  The library runs
# `maxent` as RH(inf), `birl` as RH(1) and `mmp` as RH(0); these must never
# call it.


def maxent_gradient(model: RewardModel, g: RoadGraph, traj: Trajectory,
                    cfg: IrlConfig) -> GradientReport:
    """Fully converged softmax values (the H -> inf limit)."""
    traj.validate(g)
    gv = GoalView(g, traj.nodes[-1])
    r = edge_rewards(model, g)
    v, iters, conv = power_iteration_backward(
        gv, r, temperature=cfg.temperature, init=cfg.init,
        tol=cfg.tol, max_iters=cfg.max_iters)
    if not conv:
        rep = _skipped("backward pass did not converge")
        rep.backward_iters = iters
        return rep
    origin = traj.nodes[0]
    if np.isneginf(v[origin]):
        return _skipped("origin cannot reach destination")
    pol = policy_from_values(gv, r, v, cfg.temperature)
    roll = rollout(gv, [(pol, None)], state_mass(g, [origin]))
    residual = (edge_mass_of(g, traj.edges) - roll.edge_mass) / cfg.temperature
    grad = backprop(model, g, residual)
    nll = trajectory_nll(g, traj, pol)
    return GradientReport(gradient=grad, nll=nll, backward_iters=iters,
                          rollout_steps=roll.steps, truncated=roll.truncated)


def birl_gradient(model: RewardModel, g: RoadGraph, traj: Trajectory,
                  cfg: IrlConfig) -> GradientReport:
    """One softmax step over max-reward values (H = 1)."""
    traj.validate(g)
    gv = GoalView(g, traj.nodes[-1])
    r = edge_rewards(model, g)
    plan = Planner(g, r)
    v_best = plan.best_values(gv.destination)
    origin = traj.nodes[0]
    if np.isneginf(v_best[origin]):
        return _skipped("origin cannot reach destination")
    # softmax over optimal action values: Q = (r + v_best(s')) / T
    rs = slot_rewards(gv, r)
    valid = goal_slots(gv)
    tgt = np.where(valid, g.slot_target, 0)
    q = (rs + v_best[tgt]) / cfg.temperature
    q[~valid] = -np.inf
    v_soft = logsumexp(q, axis=1)
    v_soft[gv.destination] = 0.0
    with np.errstate(invalid="ignore"):  # dead rows: -inf minus -inf
        probs = np.exp(q - v_soft[:, None])
    probs[np.isnan(probs)] = 0.0
    dead = np.isneginf(v_soft)
    dead[gv.destination] = True
    pol_soft = Policy(probs=probs, destination=gv.destination, dead=dead)
    pol_greedy = plan.greedy(gv.destination)
    demo_states = state_mass(g, traj.nodes)
    suffix_states = state_mass(g, traj.nodes[1:])
    roll_theta = rollout(gv, [(pol_soft, 1), (pol_greedy, None)], demo_states)
    roll_star = rollout(gv, [(pol_greedy, None)], suffix_states)
    rho_star = roll_star.edge_mass + edge_mass_of(g, traj.edges)
    residual = (rho_star - roll_theta.edge_mass) / cfg.temperature
    grad = backprop(model, g, residual)
    nll = trajectory_nll(g, traj, pol_soft)
    return GradientReport(gradient=grad, nll=nll,
                          rollout_steps=roll_theta.steps + roll_star.steps,
                          truncated=roll_theta.truncated or roll_star.truncated)


def mmp_gradient(model: RewardModel, g: RoadGraph, traj: Trajectory,
                 cfg: IrlConfig) -> GradientReport:
    """Margin-augmented best-path matching (H = 0, no temperature)."""
    traj.validate(g)
    gv = GoalView(g, traj.nodes[-1])
    r = edge_rewards(model, g)
    margins = np.full(g.num_edges, cfg.margin)
    margins[g.connector_flags] = 0.0
    margins[list(traj.edges)] = 0.0
    r_aug = r + margins
    plan = Planner(g, r_aug)
    origin = traj.nodes[0]
    if np.isneginf(plan.best_values(gv.destination)[origin]):
        return _skipped("origin cannot reach destination")
    best = greedy_path(g, plan.greedy(gv.destination), origin)
    if best is None:
        return _skipped("greedy walk failed to reach the destination")
    rho_tau = edge_mass_of(g, traj.edges)
    rho_best = edge_mass_of(g, best.edges)
    loss = float(r_aug @ rho_best - r @ rho_tau)
    grad = backprop(model, g, rho_tau - rho_best)
    return GradientReport(gradient=grad, loss=loss,
                          rollout_steps=len(best.edges))


# ---------------------------------------------------------------------------
# evaluate and sample_demonstrations with every destination replanned per
# demo on a fresh planner, sharing nothing between demos


def evaluate_per_demo(rew: np.ndarray, demos: list, g: RoadGraph, *,
                      temperature: float = 1.0, nll: bool = True,
                      merge_map=None) -> Metrics:
    def expand(edges) -> list[int]:
        if merge_map is None:
            return [int(e) for e in edges]
        return [int(e) for e in merge_map.expand_edges(edges)]

    acc_sum = iou_sum = nll_sum = 0.0
    nll_ok = nll
    unreachable = 0
    for traj in demos:
        plan = Planner(g, rew)
        pred = None
        if not np.isneginf(plan.best_values(traj.destination)[traj.origin]):
            pred = greedy_path(g, plan.greedy(traj.destination), traj.origin)
        if pred is None:
            unreachable += 1
        else:
            demo_edges, pred_edges = expand(traj.edges), expand(pred.edges)
            acc_sum += float(demo_edges == pred_edges)
            a, b = set(demo_edges), set(pred_edges)
            iou_sum += len(a & b) / len(a | b)
        if nll_ok:
            pol, _ = Planner(g, rew, temperature).soft(traj.destination)
            if pol is not None:
                nll_sum += trajectory_nll(g, traj, pol)
            else:
                nll_ok = False
    n = len(demos)
    return Metrics(acc=acc_sum / n, iou=iou_sum / n,
                   nll=nll_sum / n if nll_ok else None, n=n, unreachable=unreachable)


def sample_per_demo(model: RewardModel, g: RoadGraph, num_demos: int, *,
                    rng_seed: int = 0, temperature: float = 1.0,
                    pairs: list | None = None) -> list:
    rng = np.random.default_rng(rng_seed)
    r = edge_rewards(model, g)
    out: list = []
    failures = 0
    while len(out) < num_demos:
        if failures > 1000 + 50 * num_demos:
            raise InfeasibilityError("could not sample demonstrations")
        if pairs is not None:
            origin, dest = pairs[len(out)]
        else:
            origin, dest = (int(x) for x in rng.choice(g.num_nodes, size=2, replace=False))
        plan = Planner(g, r, temperature)
        if temperature == 0.0:
            pol = plan.greedy(dest)
        else:
            pol, _ = plan.soft(dest)
            if pol is None:
                raise InfeasibilityError("softmax values did not converge")
        if np.isneginf(plan.best_values(dest)[origin]):
            if pairs is not None:
                raise ValidationError(f"pair ({origin}, {dest}) is disconnected")
            failures += 1
            continue
        walk = sample_walk_choice(g, pol, origin, dest, rng)
        if walk is None:
            failures += 1
        else:
            out.append(walk)
    return out


def sample_walk_choice(g: RoadGraph, pol, origin: int, dest: int, rng):
    """A sampled walk drawing every hop with ``rng.choice`` from the policy's
    row, greedy (one-hot) or soft; None where it revisits a node or
    dead-ends."""
    probs = policy_probs(g, pol)
    node = origin
    seen = {origin}
    nodes = [origin]
    edges = []
    for _ in range(g.num_nodes):
        if node == dest:
            return Trajectory(nodes=tuple(nodes), edges=tuple(edges))
        if pol.dead[node]:
            return None
        row = probs[node]
        total = row.sum()
        if total <= 0:
            return None
        slot = int(rng.choice(g.max_out_degree, p=row / total))
        nxt = int(g.slot_target[node, slot])
        if nxt in seen:
            return None
        edges.append(int(g.slot_edge[node, slot]))
        nodes.append(nxt)
        seen.add(nxt)
        node = nxt
    return None
