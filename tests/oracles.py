"""Reference implementations the tests check the fast code against.

Everything here trades speed for obviousness: explicit walk enumeration,
dense eigensolves, high-precision fixed points, central differences, the
backward pass and spectral power iteration on scipy's logsumexp, and the
classical BIRL and MMP estimators written out independently of the
receding-horizon estimator that the library runs them as.
"""
import mpmath as mp
import numpy as np
from scipy.special import logsumexp

from routeirl import RoadGraph, GoalView, build_graph
from routeirl.algorithms import (GradientReport, IrlConfig, _check_demo,
                                 _skipped, edge_mass_of, state_mass)
from routeirl.graph import Trajectory
from routeirl.planners import (dijkstra_values, greedy_path, greedy_policy,
                               policy_from_q, rollout, slot_rewards,
                               trajectory_nll)
from routeirl.rewards import RewardModel, backprop, edge_rewards


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
    so the greedy walk from either cycle node circles forever."""
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


def max_backup(gv: GoalView, rew_slots: np.ndarray, v_prev: np.ndarray) -> np.ndarray:
    q = rew_slots + v_prev[np.where(gv.slot_valid, gv.graph.slot_target, 0)]
    q[~gv.slot_valid] = -np.inf
    v = np.max(q, axis=1, initial=-np.inf)
    v[gv.destination] = 0.0
    return v


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
    w[~gv.slot_valid] = 0
    tgt = np.where(gv.slot_valid, g.slot_target, 0)
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
    difference written out; (values, iterations, converged) as the library's
    power_iteration_backward returns them."""
    g = gv.graph
    rs = slot_rewards(gv, rew)
    tgt = np.where(gv.slot_valid, g.slot_target, 0)
    if init == "onehot":
        v = np.full(g.num_nodes, -np.inf)
    else:
        v = dijkstra_values(gv, rew) / temperature
    v[gv.destination] = 0.0
    if max_iters is None:
        max_iters = max(100, 10 * g.num_nodes)
    for it in range(1, max_iters + 1):
        q = rs / temperature + v[tgt]
        q[~gv.slot_valid] = -np.inf
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


def scipy_dominant_eigenvalue(gv: GoalView, rew: np.ndarray, shift: float, *,
                              temperature: float = 1.0, tol: float = 1e-10,
                              max_iters: int | None = None
                              ) -> tuple[float, int, bool]:
    """Shifted log-space power iteration on the non-destination block with a
    Rayleigh-quotient readout, on scipy.special.logsumexp; (lambda_max,
    iterations, converged).  Only for blocks with a cycle: the caller passes
    the shift (the library takes min(1, smallest cheap bound))."""
    g = gv.graph
    mask = gv.slot_valid & (g.slot_target != gv.destination)
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


# ---------------------------------------------------------------------------
# the classical estimators, written out on their own.  The library runs
# `birl` as RH(1) and `mmp` as RH(0); these must never call it.


def birl_gradient(model: RewardModel, g: RoadGraph, traj: Trajectory,
                  cfg: IrlConfig) -> GradientReport:
    """One softmax step over max-reward values (H = 1)."""
    _check_demo(g, traj)
    gv = GoalView(g, traj.nodes[-1])
    r = edge_rewards(model, g)
    v_best = dijkstra_values(gv, r)
    origin = traj.nodes[0]
    if np.isneginf(v_best[origin]):
        return _skipped("origin cannot reach destination")
    # softmax over optimal action values: Q = (r + v_best(s')) / T
    rs = slot_rewards(gv, r)
    tgt = np.where(gv.slot_valid, g.slot_target, 0)
    q = (rs + v_best[tgt]) / cfg.temperature
    q[~gv.slot_valid] = -np.inf
    v_soft = logsumexp(q, axis=1)
    v_soft[gv.destination] = 0.0
    pol_soft = policy_from_q(gv, q, v_soft)
    pol_greedy = greedy_policy(gv, r, v_best)
    demo_states = state_mass(g, traj.nodes)
    suffix_states = state_mass(g, traj.nodes[1:])
    roll_theta = rollout(gv, [(pol_soft, 1), (pol_greedy, None)], demo_states)
    roll_star = rollout(gv, [(pol_greedy, None)], suffix_states)
    rho_star = roll_star.edge_mass + edge_mass_of(g, traj.edges)
    residual = (rho_star - roll_theta.edge_mass) / cfg.temperature
    grad = backprop(model, g, residual)
    nll = trajectory_nll(g, traj, pol_soft)
    return GradientReport(gradient=grad, nll=nll, converged=True,
                          rollout_steps=roll_theta.steps + roll_star.steps,
                          truncated=roll_theta.truncated or roll_star.truncated)


def mmp_gradient(model: RewardModel, g: RoadGraph, traj: Trajectory,
                 cfg: IrlConfig) -> GradientReport:
    """Margin-augmented best-path matching (H = 0, no temperature)."""
    _check_demo(g, traj)
    gv = GoalView(g, traj.nodes[-1])
    r = edge_rewards(model, g)
    margins = np.full(g.num_edges, cfg.margin)
    margins[g.connector_flags] = 0.0
    margins[list(traj.edges)] = 0.0
    r_aug = r + margins
    v_aug = dijkstra_values(gv, r_aug)
    origin = traj.nodes[0]
    if np.isneginf(v_aug[origin]):
        return _skipped("origin cannot reach destination")
    best = greedy_path(gv, r_aug, origin, v=v_aug)
    if best is None:
        return _skipped("greedy walk failed to reach the destination")
    rho_tau = edge_mass_of(g, traj.edges)
    rho_best = edge_mass_of(g, best.edges)
    loss = float(r_aug @ rho_best - r @ rho_tau)
    grad = backprop(model, g, rho_tau - rho_best)
    return GradientReport(gradient=grad, loss=loss, converged=True,
                          rollout_steps=len(best.edges))
