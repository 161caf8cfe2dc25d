"""Planning primitives on goal-conditioned graphs.

Everything here works on the padded (num_nodes, max_out_degree) slot layout:
log-domain backups, deterministic max-reward values, stochastic policies, and
forward mass propagation.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import NegativeCycleError, bellman_ford, dijkstra
from scipy.special import logsumexp

from .errors import InfeasibilityError, ValidationError
from .graph import GoalView, RoadGraph, Trajectory


def _default_iters(num_nodes: int) -> int:
    return max(100, 10 * num_nodes)


def slot_rewards(gv: GoalView, rew: np.ndarray) -> np.ndarray:
    """Per-slot reward table, -inf on invalid slots and the destination row."""
    g = gv.graph
    rew = np.asarray(rew, dtype=np.float64)
    if rew.shape[0] != g.num_edges:
        raise ValidationError("reward table length != edge count")
    out = np.full((g.num_nodes, g.max_out_degree), -np.inf)
    valid = gv.slot_valid
    out[valid] = rew[g.slot_edge[valid]]
    return out


def _safe_targets(gv: GoalView) -> np.ndarray:
    """slot_target with sentinels replaced by 0 so fancy indexing is safe."""
    return np.where(gv.slot_valid, gv.graph.slot_target, 0)


def dijkstra_values(gv: GoalView, rew: np.ndarray) -> np.ndarray:
    """Max-reward value-to-destination per node (-inf if it cannot reach).

    Rewards <= 0 run on a nonnegative-cost shortest path; any positive entry
    forces the slower negative-cost routine, and a reward-gain cycle raises
    InfeasibilityError.
    """
    g = gv.graph
    rew = np.asarray(rew, dtype=np.float64)
    # reversed graph, best (min-cost) edge per ordered pair
    cost = -rew
    order = np.lexsort((cost, g.edge_src, g.edge_dst))
    src_r = g.edge_dst[order]
    dst_r = g.edge_src[order]
    keep = np.ones(order.shape[0], dtype=bool)
    keep[1:] = (src_r[1:] != src_r[:-1]) | (dst_r[1:] != dst_r[:-1])
    mat = sp.csr_matrix((cost[order][keep], (src_r[keep], dst_r[keep])),
                        shape=(g.num_nodes, g.num_nodes))
    if rew.size and np.max(rew) > 0:
        try:
            dist = bellman_ford(mat, indices=gv.destination)
        except NegativeCycleError:
            raise InfeasibilityError("reward-gain cycle: best path is unbounded") from None
    else:
        dist = dijkstra(mat, indices=gv.destination)
    return -np.asarray(dist, dtype=np.float64).ravel()


@dataclass
class Policy:
    """Per-slot action distribution conditioned on one destination.

    Rows with no usable action (including the destination row, which is
    absorbing) are all-zero and marked dead.
    """

    probs: np.ndarray          # (num_nodes, max_out_degree)
    destination: int
    dead: np.ndarray           # (num_nodes,) bool


def softmax_backup(gv: GoalView, rew_slots: np.ndarray, v_prev: np.ndarray,
                   temperature: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """One log-domain backup: Q = r/T + v(s'), v = logsumexp_a Q, v(dest)=0."""
    q = rew_slots / temperature + v_prev[_safe_targets(gv)]
    q[~gv.slot_valid] = -np.inf
    v = logsumexp(q, axis=1)
    v[gv.destination] = 0.0
    return q, v


def onehot_values(gv: GoalView) -> np.ndarray:
    v = np.full(gv.graph.num_nodes, -np.inf)
    v[gv.destination] = 0.0
    return v


def _value_diff(a: np.ndarray, b: np.ndarray) -> float:
    both_inf = np.isneginf(a) & np.isneginf(b)
    with np.errstate(invalid="ignore"):
        d = np.where(both_inf, 0.0, np.abs(a - b))
    d[np.isnan(d)] = np.inf  # -inf against finite
    return float(np.max(d, initial=0.0))


def power_iteration_backward(gv: GoalView, rew: np.ndarray, *,
                             temperature: float = 1.0, init="onehot",
                             tol: float = 1e-9, max_iters: int | None = None,
                             trace: list | None = None
                             ) -> tuple[np.ndarray, int, bool]:
    """Iterate softmax backups to the soft-value fixed point.

    init: 'onehot' (destination indicator), 'dijkstra' (max-reward values,
    temperature-scaled), or an explicit starting vector.  Returns
    (values, iterations, converged).
    """
    if temperature <= 0:
        raise ValidationError("temperature must be positive")
    rs = slot_rewards(gv, rew)
    if isinstance(init, str):
        if init == "onehot":
            v = onehot_values(gv)
        elif init == "dijkstra":
            v = dijkstra_values(gv, rew) / temperature
            v[gv.destination] = 0.0
        else:
            raise ValidationError(f"unknown init {init!r}")
    else:
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


def policy_from_q(gv: GoalView, q: np.ndarray, v: np.ndarray) -> Policy:
    with np.errstate(invalid="ignore"):  # dead rows: -inf minus -inf
        probs = np.exp(q - v[:, None])
    probs[np.isnan(probs)] = 0.0
    probs[~gv.slot_valid] = 0.0
    dead = np.isneginf(v)
    probs[dead] = 0.0
    probs[gv.destination] = 0.0
    dead = dead.copy()
    dead[gv.destination] = True
    return Policy(probs=probs, destination=gv.destination, dead=dead)


def policy_from_values(gv: GoalView, rew: np.ndarray, v: np.ndarray,
                       temperature: float = 1.0) -> Policy:
    rs = slot_rewards(gv, rew)
    q, v_new = softmax_backup(gv, rs, v, temperature)
    return policy_from_q(gv, q, v_new)


def greedy_policy(gv: GoalView, rew: np.ndarray, v: np.ndarray) -> Policy:
    """Deterministic argmax of r + v(s'); ties resolve to the first slot,
    i.e. the smallest successor id and smallest edge id among parallels.
    Temperature cancels in the argmax, so this is scale-free.
    """
    rs = slot_rewards(gv, rew)
    q = rs + v[_safe_targets(gv)]
    q[~gv.slot_valid] = -np.inf
    g = gv.graph
    probs = np.zeros((g.num_nodes, g.max_out_degree))
    best = np.argmax(q, axis=1)
    rows = np.arange(g.num_nodes)
    live = ~np.isneginf(q[rows, best])
    live[gv.destination] = False
    probs[rows[live], best[live]] = 1.0
    dead = ~live
    return Policy(probs=probs, destination=gv.destination, dead=dead)


def trajectory_nll(g: RoadGraph, traj: Trajectory, pol: Policy) -> float:
    """-sum_t log pi(a_t | s_t) over the trajectory's edges."""
    nll = 0.0
    for e in traj.edges:
        p = pol.probs[g.edge_src[e], g.edge_slot[e]]
        if p <= 0.0:
            return math.inf
        nll -= math.log(p)
    return nll


def trajectory_policy_nll(gv: GoalView, rew: np.ndarray, v: np.ndarray,
                          traj: Trajectory, temperature: float = 1.0) -> float:
    """-log likelihood of a trajectory under the softmax policy implied by v."""
    return trajectory_nll(gv.graph, traj, policy_from_values(gv, rew, v, temperature))


def greedy_path(gv: GoalView, rew: np.ndarray, origin: int,
                v: np.ndarray | None = None,
                max_steps: int | None = None) -> Trajectory | None:
    """Follow the greedy policy from origin; None if it never reaches the
    destination (dead end or a tie-broken loop)."""
    g = gv.graph
    if v is None:
        v = dijkstra_values(gv, rew)
    pol = greedy_policy(gv, rew, v)
    if max_steps is None:
        max_steps = g.num_nodes + 1
    node = origin
    nodes = [origin]
    edges = []
    for _ in range(max_steps):
        if node == gv.destination:
            if not edges:
                return None
            return Trajectory(nodes=tuple(nodes), edges=tuple(edges))
        if pol.dead[node]:
            return None
        slot = int(np.argmax(pol.probs[node]))
        edges.append(int(g.slot_edge[node, slot]))
        node = int(g.slot_target[node, slot])
        nodes.append(node)
    return None


@dataclass
class RolloutResult:
    edge_mass: np.ndarray      # (num_edges,)
    steps: int
    truncated: bool
    lost_mass: float           # mass that vanished on dead non-destination rows
    absorbed_mass: float       # mass that reached the destination


def rollout(gv: GoalView, schedule: list[tuple[Policy, int | None]],
            initial_mass: np.ndarray, *, tol: float = 1e-12,
            max_steps: int | None = None) -> RolloutResult:
    """Propagate state mass through a time-varying policy schedule.

    Each schedule entry is (policy, steps); steps None means run until the
    residual mass falls to tol (only sensible as the final entry).  Mass
    reaching the destination is absorbed immediately and emits no further
    edge mass.  Edge mass accumulates per original edge id.
    """
    g = gv.graph
    if max_steps is None:
        max_steps = _default_iters(g.num_nodes)
    m = np.asarray(initial_mass, dtype=np.float64).copy()
    if m.shape[0] != g.num_nodes:
        raise ValidationError("initial mass length != node count")
    if np.any(m < 0):
        raise ValidationError("initial mass must be nonnegative")
    edge_mass = np.zeros(g.num_edges)
    absorbed = float(m[gv.destination])
    m[gv.destination] = 0.0
    lost = 0.0
    steps = 0
    truncated = False
    valid = gv.slot_valid
    eidx = g.slot_edge[valid]
    tidx = g.slot_target[valid]
    for pol, length in schedule:
        if pol.destination != gv.destination:
            raise ValidationError("policy destination != rollout destination")
        k = 0
        while (length is None or k < length) and m.sum() > tol:
            if steps >= max_steps:
                truncated = True
                break
            dead_loss = m[pol.dead]
            lost += float(dead_loss.sum())
            slot_mass = m[:, None] * pol.probs
            sm = slot_mass[valid]
            np.add.at(edge_mass, eidx, sm)
            m_new = np.zeros_like(m)
            np.add.at(m_new, tidx, sm)
            absorbed += float(m_new[gv.destination])
            m_new[gv.destination] = 0.0
            m = m_new
            steps += 1
            k += 1
        if truncated:
            break
    if not truncated and m.sum() > tol and schedule and schedule[-1][1] is None:
        truncated = True
    return RolloutResult(edge_mass=edge_mass, steps=steps, truncated=truncated,
                         lost_mass=lost, absorbed_mass=absorbed)


def closed_form_forward(gv: GoalView, pol: Policy,
                        initial_mass: np.ndarray) -> np.ndarray:
    """Stationary-policy edge mass via the linear system (I - P1') z = b over
    non-destination nodes; equals an untruncated rollout of (pol, None).
    """
    g = gv.graph
    m = np.asarray(initial_mass, dtype=np.float64)
    keep = np.ones(g.num_nodes, dtype=bool)
    keep[gv.destination] = False
    idx = np.full(g.num_nodes, -1, dtype=np.int64)
    idx[keep] = np.arange(keep.sum())
    valid = gv.slot_valid
    rows_full, _ = np.nonzero(valid)
    tgt = g.slot_target[valid]
    prob = pol.probs[valid]
    inner = keep[rows_full] & keep[tgt]
    p1 = sp.csr_matrix((prob[inner], (idx[rows_full[inner]], idx[tgt[inner]])),
                       shape=(int(keep.sum()),) * 2)
    lhs = sp.identity(p1.shape[0], format="csc") - p1.T.tocsc()
    with warnings.catch_warnings():
        warnings.simplefilter("error", sp.linalg.MatrixRankWarning)
        try:
            z = sp.linalg.spsolve(lhs, m[keep])
        except sp.linalg.MatrixRankWarning:
            raise InfeasibilityError("forward system is singular: policy mass "
                                     "never drains to the destination") from None
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if not np.all(np.isfinite(z)):
        raise InfeasibilityError("forward system is singular: policy mass "
                                 "never drains to the destination")
    edge_mass = np.zeros(g.num_edges)
    zin = z[idx[rows_full]]
    zin[~keep[rows_full]] = 0.0
    np.add.at(edge_mass, g.slot_edge[valid], zin * prob)
    return edge_mass
