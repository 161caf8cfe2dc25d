"""Planning primitives on goal-conditioned graphs.

Everything here works on the padded (num_nodes, max_out_degree) slot layout:
log-domain backups, deterministic max-reward values, stochastic policies, and
forward mass propagation.  Converged soft values start from the exact fixed
point, one sparse solve rescaled by the max-reward values, and the backups
then confirm it; stationary edge mass is one sparse solve on the same system.
The log-sum-exp and the rollout step make no reduction per short row yet add
in the row-wise order, so they are bitwise equal to it (see their comments).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import NegativeCycleError, bellman_ford, dijkstra

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


def dijkstra_values(gv: GoalView, rew: np.ndarray) -> np.ndarray:
    """Max-reward value-to-destination per node (-inf if it cannot reach).

    Rewards <= 0 run on a nonnegative-cost shortest path; any positive entry
    forces the slower negative-cost routine, and a reward-gain cycle raises
    InfeasibilityError.
    """
    return Planner(gv.graph, rew).best_values(gv.destination)


@dataclass
class Policy:
    """Per-slot action distribution conditioned on one destination.

    Rows with no usable action (including the destination row, which is
    absorbing) are all-zero and marked dead.
    """

    probs: np.ndarray          # (num_nodes, max_out_degree)
    destination: int
    dead: np.ndarray           # (num_nodes,) bool


def _logsumexp_rows(q: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-D table.

    scipy.special.logsumexp's formula without its array-API dispatch, so the
    results are bitwise equal to ``logsumexp(q, axis=1)``: the row max and
    its ties are split out of the sum, v = log1p(rest / ties) + log(ties) +
    max.  Rows where that is not finite (all -inf, or a +inf or NaN entry)
    take log(sum(exp(q))) as scipy does, so a row of -inf gives -inf.

    Rows of fewer than 8 entries reduce down the columns of the contiguous
    transpose: numpy sums such a row in order, ((e0+e1)+e2)+e3, and a
    reduction along axis 0 adds in that same order, one vectorised pass per
    column instead of one short reduction per row.  From 8 entries numpy
    sums a row in pairwise blocks, so wider tables keep the row layout.
    """
    if q.shape[1] == 0:
        return np.full(q.shape[0], -np.inf)
    t, axis = (q, 1) if q.shape[1] >= 8 else (np.ascontiguousarray(q.T), 0)
    top = t.max(axis=axis, keepdims=True)
    tied = t == top
    ties = tied.sum(axis=axis)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(t - top)
        np.putmask(e, tied, 0.0)
        v = np.log1p(e.sum(axis=axis) / ties) + np.log(ties) + top.ravel()
        finite = np.isfinite(v)
        if not finite.all():
            v[~finite] = np.log(np.exp(q[~finite]).sum(axis=1))
    return v


def softmax_backup(gv: GoalView, rew_slots: np.ndarray, v_prev: np.ndarray,
                   temperature: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """One log-domain backup: Q = r/T + v(s'), v = logsumexp_a Q, v(dest)=0.

    rew_slots is ``slot_rewards(gv, rew)``; Q is -inf on invalid slots, and a
    row with no finite Q (a dead end) gets v = -inf.  The log-sum-exp is
    ``_logsumexp_rows``, bitwise equal to scipy's.
    """
    q = rew_slots / temperature + v_prev[gv.graph.safe_targets]
    q[~gv.slot_valid] = -np.inf
    v = _logsumexp_rows(q)
    v[gv.destination] = 0.0
    return q, v


def onehot_values(gv: GoalView) -> np.ndarray:
    v = np.full(gv.graph.num_nodes, -np.inf)
    v[gv.destination] = 0.0
    return v


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


def _identity_minus_slots(gv: GoalView, weights: np.ndarray) -> sp.csc_matrix:
    """Sparse I - C over all nodes, C[s, s'] the sum of ``weights`` over the
    valid slots s -> s': parallel edges sum, self-loops land on the diagonal
    and the destination row of C is empty."""
    g = gv.graph
    valid = gv.slot_valid
    rows, _ = np.nonzero(valid)
    c = sp.csc_matrix((weights[valid], (rows, g.slot_target[valid])),
                      shape=(g.num_nodes,) * 2)
    return sp.identity(g.num_nodes, format="csc") - c


def _solve(lhs: sp.spmatrix, rhs: np.ndarray) -> np.ndarray | None:
    """SuperLU solution of lhs x = rhs; None if lhs is singular."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", sp.linalg.MatrixRankWarning)
        try:
            x = sp.linalg.spsolve(lhs, rhs)
        except sp.linalg.MatrixRankWarning:
            return None
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


def _solved_start(gv: GoalView, rew: np.ndarray, v_best: np.ndarray,
                  temperature: float) -> np.ndarray:
    """Soft values from one sparse solve, for the backups to confirm.

    With v_best the max-reward values over T, y = exp(v - v_best) solves
    (I - C) y = e_dest, C[s, s'] summing exp(r/T + v_best(s') - v_best(s))
    over the slots s -> s' between nodes that reach the destination; every
    coefficient is at most 1 and y >= 1.  Such a positive y exists only when
    the spectral radius of C is at most 1, so where y is singular, not
    finite or not positive on a node that reaches the destination (an
    infeasible table, or exp overflow), this returns v_best unchanged.
    """
    g = gv.graph
    rew = np.asarray(rew, dtype=np.float64)
    reach = np.isfinite(v_best)
    live = gv.slot_valid & reach[:, None] & reach[g.safe_targets]
    rows, cols = np.nonzero(live)
    weights = np.zeros(live.shape)
    weights[rows, cols] = np.exp(rew[g.slot_edge[rows, cols]] / temperature
                                 + v_best[g.slot_target[rows, cols]] - v_best[rows])
    rhs = np.zeros(g.num_nodes)
    rhs[gv.destination] = 1.0
    y = _solve(_identity_minus_slots(gv, weights), rhs)
    if y is None or not np.all(np.isfinite(y[reach]) & (y[reach] > 0)):
        return v_best
    v = np.full(g.num_nodes, -np.inf)
    v[reach] = np.log(y[reach]) + v_best[reach]
    return v


def power_iteration_backward(gv: GoalView, rew: np.ndarray, *,
                             temperature: float = 1.0, init="onehot",
                             tol: float = 1e-9, max_iters: int | None = None,
                             trace: list | None = None
                             ) -> tuple[np.ndarray, int, bool]:
    """Iterate softmax backups to the soft-value fixed point.

    init: 'onehot' (destination indicator), 'dijkstra' (max-reward values,
    temperature-scaled), 'exact' (the sparse solve of ``_solved_start``,
    which is the Dijkstra start where the solve fails), or an explicit
    starting vector.  The backups and the stopping test are the same for
    every start.  Returns (values, iterations, converged).
    """
    if temperature <= 0:
        raise ValidationError("temperature must be positive")
    rs = slot_rewards(gv, rew)
    if isinstance(init, str):
        if init not in ("onehot", "dijkstra", "exact"):
            raise ValidationError(f"unknown init {init!r}")
        if init == "onehot":
            init = onehot_values(gv)
        elif init == "dijkstra":
            init = dijkstra_values(gv, rew) / temperature
        else:
            init = _solved_start(gv, rew, dijkstra_values(gv, rew) / temperature,
                                 temperature)
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
    q = rs + v[gv.graph.safe_targets]
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


def greedy_path(g: RoadGraph, pol: Policy, origin: int) -> Trajectory | None:
    """Follow a greedy policy (see ``greedy_policy``) from origin; None if it
    never reaches the destination (dead end or a tie-broken loop)."""
    node = origin
    nodes = [origin]
    edges = []
    for _ in range(g.num_nodes + 1):
        if node == pol.destination:
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


def _reversed_graph(g: RoadGraph, rew: np.ndarray) -> sp.csr_matrix:
    """Reversed cost matrix -rew, best (min-cost) edge per ordered node pair;
    fmin keeps the first of tied costs and skips NaN, as a sort by cost would."""
    order, starts, cols, indptr = g.reversed_pairs
    return sp.csr_matrix((np.fmin.reduceat(-rew[order], starts), cols, indptr),
                         shape=(g.num_nodes, g.num_nodes))


class Planner:
    """One reward table's planning state, shared by all its destinations.

    Per table: the reversed graph and the shortest-path routine that runs on
    it (negative-cost when any reward is positive).  Per destination,
    computed on first use and kept: max-reward values, greedy policy, and
    converged soft values and policy (None if the backward pass diverges).
    GoalViews are not kept: their slot masks would add S x V bytes per
    destination.  The arrays it returns must not be modified.
    """

    def __init__(self, g: RoadGraph, rew: np.ndarray, temperature: float = 1.0):
        self.graph = g
        self.rew = np.asarray(rew, dtype=np.float64)
        if self.rew.shape != (g.num_edges,):
            raise ValidationError("reward table length != edge count")
        self.temperature = temperature
        self._reversed = _reversed_graph(g, self.rew)
        self._gain = bool(self.rew.size and np.max(self.rew) > 0)
        self._memo: dict[tuple[str, int], object] = {}

    def memo(self, kind: str, dest: int, make):
        """``make()``, computed once per (kind, destination)."""
        if (kind, dest) not in self._memo:
            self._memo[kind, dest] = make()
        return self._memo[kind, dest]

    def best_values(self, dest: int) -> np.ndarray:
        return self.memo("best", dest,
                         lambda: self._shortest_paths(GoalView(self.graph, dest)))

    def _shortest_paths(self, gv: GoalView) -> np.ndarray:
        if not self._gain:
            return -dijkstra(self._reversed, indices=gv.destination)
        try:
            return -bellman_ford(self._reversed, indices=gv.destination)
        except NegativeCycleError:
            raise InfeasibilityError("reward-gain cycle: best path is unbounded") from None

    def greedy(self, dest: int) -> Policy:
        return self.memo("greedy", dest, lambda: greedy_policy(
            GoalView(self.graph, dest), self.rew, self.best_values(dest)))

    def soft(self, dest: int) -> tuple[np.ndarray, Policy] | None:
        """Converged soft values and their policy.  The backward pass starts
        from the sparse solve on the memoised max-reward values (their own
        values where the solve fails), as ``init="exact"`` does."""
        def make():
            gv = GoalView(self.graph, dest)
            start = _solved_start(gv, self.rew, self.best_values(dest) / self.temperature,
                                  self.temperature)
            v, _, conv = power_iteration_backward(
                gv, self.rew, temperature=self.temperature, init=start)
            return (v, policy_from_values(gv, self.rew, v, self.temperature)) if conv else None
        return self.memo("soft", dest, make)


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
    if (m < 0).any():
        raise ValidationError("initial mass must be nonnegative")
    absorbed = float(m[gv.destination])
    m[gv.destination] = 0.0
    lost = 0.0
    steps = 0
    truncated = False
    eidx = g.slot_edge[gv.slot_valid]
    rows, tidx = g.edge_src[eidx], g.edge_dst[eidx]
    slot_mass = np.zeros(rows.size)  # an edge has one slot: this sums its edge mass
    for pol, length in schedule:
        if pol.destination != gv.destination:
            raise ValidationError("policy destination != rollout destination")
        pv = pol.probs[gv.slot_valid]
        dead = np.flatnonzero(pol.dead)
        k = 0
        while (length is None or k < length) and m.sum() > tol:
            if steps >= max_steps:
                truncated = True
                break
            lost += float(m[dead].sum())
            sm = m[rows] * pv
            slot_mass += sm
            m = np.bincount(tidx, sm, minlength=g.num_nodes)  # adds in slot order
            absorbed += float(m[gv.destination])
            m[gv.destination] = 0.0
            steps += 1
            k += 1
        if truncated:
            break
    if not truncated and m.sum() > tol and schedule and schedule[-1][1] is None:
        truncated = True
    edge_mass = np.zeros(g.num_edges)
    edge_mass[eidx] = slot_mass
    return RolloutResult(edge_mass=edge_mass, steps=steps, truncated=truncated,
                         lost_mass=lost, absorbed_mass=absorbed)


def closed_form_forward(gv: GoalView, pol: Policy,
                        initial_mass: np.ndarray) -> np.ndarray:
    """Stationary-policy edge mass via the linear system (I - P)' z = m;
    equals an untruncated rollout of (pol, None).  The destination row of P
    is empty, so z is the expected visits of every other node.
    """
    g = gv.graph
    m = np.asarray(initial_mass, dtype=np.float64)
    z = _solve(_identity_minus_slots(gv, pol.probs).T, m)
    if z is None or not np.all(np.isfinite(z)):
        raise InfeasibilityError("forward system is singular: policy mass "
                                 "never drains to the destination")
    valid = gv.slot_valid
    rows, _ = np.nonzero(valid)
    edge_mass = np.zeros(g.num_edges)
    edge_mass[g.slot_edge[valid]] += z[rows] * pol.probs[valid]  # one slot per edge
    return edge_mass
