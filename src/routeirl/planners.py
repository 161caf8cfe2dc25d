"""Planning primitives on goal-conditioned graphs.

Everything here works on the padded (num_nodes, max_out_degree) slot layout:
deterministic max-reward values, stochastic policies and forward mass
propagation.  ``Planner.soft`` makes every soft plan, on scaled backups in
the linear domain, and a plan reads out its soft values on request
(``Policy.values``); the log-domain backward pass is a test oracle, and no
library path runs ``softmax_backup`` (see its docstring).  The reward
table padded with -inf on invalid slots (``Planner.padded``) is the only
slot mask, and the soft backups zero the destination's row and the rows
that cannot reach it through their anchor, so the reward tables they take
must hold no NaN or +inf (``_checked_rewards``, once per table, where it
enters).
Converged soft values start from the exact fixed point, Z = exp(v) = x / x_d
with x = M^-1 e_d on one LU factor of the table's M = I - A, and the backups
confirm it (``Planner.exact_start``: the max-reward values where M is
singular, or x / x_d is not finite and positive on a reaching node, as a
value below about -745 underflows).
The log-sum-exp and the rollout step make no reduction per short row yet add
in the row-wise order, so they are bitwise equal to it (see their comments).
A greedy policy is the shortest-path tree that the max-reward search
returns, a ``Successors``, so exact ties follow the tree and no walk
loops.  A walk (T=0 samples, ``greedy_path``, greedy NLLs and one-node
rollout tails) follows the tree and picks each visited node's edge onto
it; only a tail of spread mass builds every node's edge, the successor
forest (see ``Successors`` and ``rollout``).  A soft ``Policy``'s T>0
samples draw on a table of its rows' normalised cumulative sums, built
by its first walk, and take the slot ``Generator.choice`` would take for
the same draw.  A temperature outside [0, inf) is rejected where a
``Planner`` is built; T = 0 plans greedily only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import NegativeCycleError, bellman_ford, dijkstra

from .errors import InfeasibilityError, ValidationError
from .graph import GoalView, RoadGraph, Trajectory


def _default_iters(num_nodes: int) -> int:
    return max(100, 10 * num_nodes)


def _checked_rewards(g: RoadGraph, rew) -> np.ndarray:
    """rew as float64, one entry per edge.  NaN and +inf are rejected: the
    backups, bounds and shortest paths would carry them on without an error.
    -inf, an edge never taken, is a reward."""
    rew = np.asarray(rew, dtype=np.float64)
    if rew.shape != (g.num_edges,):
        raise ValidationError("reward table length != edge count")
    if not rew.max(initial=-np.inf) < np.inf:  # a NaN entry makes the max NaN
        e = int(np.flatnonzero(~(rew < np.inf))[0])
        raise ValidationError(f"edge {e} has reward {rew[e]}: NaN and +inf are not rewards")
    return rew


class Successors:
    """A greedy policy toward one destination: the max-reward values, their
    shortest-path tree (tree[u] the node after u, negative on dead rows: the
    destination and the nodes that cannot reach it), and the edge each live
    node takes onto it, its first slot to tree[u] that attains the row max
    of r + v(s') (``_tree_edges``).

    A walk follows the tree and picks the edges of the nodes it visits
    only; it is kept until the next walk from another origin, so a
    gradient's tail and NLL walk once.  ``edge``, every node's edge (the
    successor forest), and the pointer-doubling tables built on it for
    tails that start on many nodes (``tables``) are built on first use
    and kept.  rewards is the planner's padded reward table (``Planner.padded``).
    """

    def __init__(self, g: RoadGraph, destination: int, rewards: np.ndarray,
                 values: np.ndarray, tree: np.ndarray):
        self.graph = g
        self.destination = destination
        self.rewards = rewards
        self.values = values
        self.tree = tree
        self.dead = tree < 0
        self._walked = None  # (origin, edges, nodes) of the last walk

    @cached_property
    def edge(self) -> np.ndarray:
        """Every node's edge, -1 on dead rows (``_forest``)."""
        return _forest(self.graph, self.rewards, self.values, self.tree, self.dead)

    @cached_property
    def tables(self):
        """``_jump_tables`` of the forest, built by the first tail that
        holds mass on more than one node."""
        return _jump_tables(self.destination, self.tree, self.dead, self.edge)

    def walk(self, origin: int) -> tuple[list[int], list[int]]:
        """(edges, nodes) of the walk from origin to the first dead row (the
        destination or a node that cannot reach it); the lists are kept and
        must not be modified."""
        if self._walked is not None and self._walked[0] == origin:
            return self._walked[1:]
        g, tree = self.graph, self.tree
        nodes = [origin]
        u = int(tree[origin])
        while u >= 0:
            nodes.append(u)
            u = int(tree[u])
        edges = []
        if len(nodes) > 1:
            path = np.array(nodes)
            rows = path[:-1]
            q = self.rewards[g.slot_edge[rows]] + self.values[g.safe_targets[rows]]
            edges = _tree_edges(g, q, rows, path[1:]).tolist()
        self._walked = origin, edges, nodes
        return edges, nodes

    def tail(self, m: np.ndarray, tol: float, budget: int):
        """A rollout's run-out of node mass m (destination entry 0, sum above
        tol) in at most budget steps, in closed form: (steps, edge ids,
        their mass, absorbed, lost, truncated) as stepping reports them.

        Mass on one node walks its path, so every figure is the stepped one
        bitwise.  Mass on many nodes sums the flow through every node on
        the jump tables (``_visits``); stepping stops once at most tol is
        left on the nodes, and ``depth`` counts those steps before any work.
        """
        if np.count_nonzero(m) == 1:
            u = int(m.argmax())
            edges, nodes = self.walk(u)
            x = float(m[u])
            into = nodes[-1] == self.destination
            # a dead row off the destination loses the mass one step after it arrives
            steps = len(edges) + (not into)
            if steps > budget:
                return budget, edges[:budget], x, 0.0, 0.0, True
            return steps, edges, x, x if into else 0.0, 0.0 if into else x, False
        tables, depth, live, live_edge, ends = self.tables
        # beyond[-1 - j]: the mass that j steps leave on the nodes
        beyond = np.bincount(depth, m)[::-1].cumsum()[:-1]
        steps = int(np.count_nonzero(beyond > tol))
        cut = steps > budget
        if cut:
            steps = hops = budget
        elif steps < beyond.size and beyond[-1 - steps] > 0.0:
            hops = steps  # stepping moves the mass it leaves exactly `steps` hops
        else:
            hops = 1 << steps.bit_length()  # all mass reaches the sink within this
        v = np.zeros(self.graph.num_nodes + 1)
        v[:-1] = m
        flow = _visits(tables, v, hops)
        _, absorbed, lost = np.bincount(ends, flow, minlength=3)
        return steps, live_edge, flow[live], float(absorbed), float(lost), cut


def _visits(tables: list[np.ndarray], v: np.ndarray, hops: int) -> np.ndarray:
    """Sum over i < hops of mass v moved i hops on, tables[k] moving 2**k:
    a window of 2**b hops is b doublings v += v moved 2**k on, and hops
    splits into such windows by its binary digits."""
    total = np.zeros_like(v)
    for b in reversed(range(hops.bit_length())):
        if hops >> b & 1:
            w = v
            for jump in tables[:b]:
                w = w + np.bincount(jump, w, minlength=v.size)
            total += w
            hops -= 1 << b
            if hops:
                v = np.bincount(tables[b], v, minlength=v.size)
    return total


def _tree_edges(g: RoadGraph, q: np.ndarray, rows: np.ndarray, to: np.ndarray,
                dead: np.ndarray | None = None) -> np.ndarray:
    """The edge each of rows takes onto its tree successor to, q being the
    rows' r + v(s') slot table; the rows marked in dead, if given, are
    skipped and their entries are to be ignored.  The tree edge attains the
    row max exactly, r + v(to) being -(dist(to) + w) in floats, so a row
    keeps its first max slot unless a tie takes it off the tree; then it
    takes its first max slot to to, the lowest edge id among parallels."""
    width = g.max_out_degree
    # flat index of each row's first max slot
    best = rows * width + np.argmax(q, axis=1)
    off = g.slot_target.ravel()[best] != to
    if dead is not None:
        off &= ~dead  # a dead row has no tree successor to move to
    off = np.flatnonzero(off)
    if off.size:
        to_tree = np.where(g.slot_target[rows[off]] == to[off, None], q[off], -np.inf)
        best[off] = rows[off] * width + np.argmax(to_tree, axis=1)
    return g.slot_edge.ravel()[best]


def _forest(g: RoadGraph, rewards: np.ndarray, values: np.ndarray, tree: np.ndarray,
            dead: np.ndarray) -> np.ndarray:
    """``_tree_edges`` of every node in one pass over all slots, -1 on dead
    rows: the successor forest that a tail of spread mass runs on."""
    # q keeps the destination's row: a dead row's entry is ignored
    q = np.concatenate((rewards[:-1] + values[g.edge_dst], [-np.inf]))[g.slot_edge]
    edge = _tree_edges(g, q, np.arange(g.num_nodes), tree, dead)
    edge[dead] = -1
    return edge


def _jump_tables(destination: int, tree: np.ndarray, dead: np.ndarray, edge: np.ndarray):
    """Pointer-doubling tables of a successor forest (its tree, dead rows
    and each live node's edge onto the tree): (tables, depth, live rows,
    their edges, ends).

    Node num_nodes is a sink that the destination and the dead rows lead
    to and that leads to itself.  tables[k] maps every node 2**k hops on.
    depth[u] is the number of steps a stepped rollout takes to finish
    mass on u: the hops to the destination, or the hops to a dead row
    plus the step that loses it there.  It is the count of nodes other
    than the destination and the sink among the first 2**k on u's path,
    summed level by level as the tables double: once every node maps to
    the sink, it is exact, by 2**k >= num_nodes in a forest.  ends marks
    the rows whose flow is absorbed (1) or lost (2).
    """
    n = tree.size
    live = np.flatnonzero(~dead)
    jump = np.full(n + 1, n)
    jump[live] = tree[live]
    ends = (jump == destination) + 2 * (jump == n)  # 1: into the destination, 2: dead
    ends[destination] = ends[n] = 0
    depth = np.ones(n + 1, dtype=np.int64)
    depth[destination] = depth[n] = 0
    tables = [jump]
    while jump.min() < n:
        depth += depth[jump]
        jump = jump[jump]
        tables.append(jump)
    return tables, depth[:n], live, edge[live], ends


class Policy:
    """A soft policy: per-slot action distribution toward one destination.

    Rows with no usable action (including the destination row, which is
    absorbing) are marked dead.  It holds its (num_nodes, max_out_degree)
    ``probs``, zero on dead rows, and its walks draw on its ``draws``
    table, built by the first walk and kept; a planned one keeps its scaled
    values (``values``).  A greedy policy is a ``Successors``.
    """

    def __init__(self, probs: np.ndarray, destination: int, dead: np.ndarray,
                 scaled: tuple[np.ndarray, np.ndarray] | None = None):
        self.probs = probs
        self.destination = destination
        self.dead = dead            # (num_nodes,) bool
        self.scaled = scaled

    @cached_property
    def values(self) -> np.ndarray:
        """The soft values a + log y its backup starts from, converged at
        H = inf (-inf where y is 0), computed on first read."""
        anchor, y = self.scaled
        with np.errstate(divide="ignore"):
            return anchor + np.log(y)

    @cached_property
    def draws(self) -> tuple[np.ndarray, np.ndarray]:
        """``_draw_table`` of the rows, built by the first soft walk."""
        return _draw_table(self.probs, self.dead)


# Generator.choice's tolerance on a probability row's sum
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _draw_table(probs: np.ndarray, dead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cdf, stuck): each row's normalised cumulative sums, and the rows a
    walk rejects (dead, or summing to at most 0).

    cdf is built with the operations ``Generator.choice(p=row / row.sum())``
    performs on a row (p.cumsum(), then divided by its last entry; numpy
    sums a contiguous table's rows as it sums each row alone), so
    ``cdf[node].searchsorted(rng.random(), side="right")`` is the slot that
    choice draws from the same stream.  choice's input checks are made
    here, once: a live row with a NaN or negative probability, or a sum
    off 1, raises ValueError.
    """
    probs = np.ascontiguousarray(probs)
    total = probs.sum(axis=1)
    stuck = dead | (total <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # stuck rows
        p = probs / total[:, None]
        cdf = p.cumsum(axis=1)
        bad = ~stuck & ((p < 0).any(axis=1)
                        | ~(np.abs(cdf[:, -1:] - 1.0) <= _SUM_ATOL).all(axis=1))
        if bad.any():
            raise ValueError(f"probabilities of node {np.flatnonzero(bad)[0]} "
                             "are NaN, negative or do not sum to 1")
        cdf /= cdf[:, -1:]
    return cdf, stuck


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

    rew_slots is the destination's slot reward table, -inf on invalid slots
    and on its row, entries that stay -inf in Q as v_prev holds no NaN or
    +inf; a row with no finite Q (a dead end) gets v = -inf.  The
    log-sum-exp is ``_logsumexp_rows``, bitwise equal to scipy's.  No
    library path calls it: the test oracles' log-domain pass runs on it, and
    it stays exported for the benchmark tracer's rebinding test.
    """
    q = rew_slots / temperature + v_prev[gv.graph.safe_targets]
    v = _logsumexp_rows(q)
    v[gv.destination] = 0.0
    return q, v


def trajectory_nll(g: RoadGraph, traj: Trajectory, pol: Policy | Successors) -> float:
    """-sum_t log pi(a_t | s_t) over the trajectory's edges.  Under a greedy
    policy that is 0.0 if every edge is its node's successor edge, else inf:
    the edges of a trajectory that chains (``Trajectory.validate``) are then
    a prefix of the walk from its origin."""
    if isinstance(pol, Successors):
        walked, _ = pol.walk(traj.origin)
        return 0.0 if tuple(walked[:len(traj.edges)]) == traj.edges else math.inf
    nll = 0.0
    for e in traj.edges:
        p = pol.probs[g.edge_src[e], g.edge_slot[e]]
        if p <= 0.0:
            return math.inf
        nll -= math.log(p)
    return nll


def greedy_path(g: RoadGraph, pol: Successors, origin: int) -> Trajectory | None:
    """Walk a greedy policy (see ``Planner.greedy``) from origin; None if
    origin is the destination or cannot reach it."""
    if not isinstance(pol, Successors):
        raise ValidationError("greedy_path needs a greedy policy")
    edges, nodes = pol.walk(origin)
    if not edges or nodes[-1] != pol.destination:
        return None
    return Trajectory(nodes=tuple(nodes), edges=tuple(edges))


def _reversed_graph(g: RoadGraph, rew: np.ndarray) -> sp.csr_matrix:
    """Reversed cost matrix -rew, best (min-cost) edge per ordered node pair;
    fmin keeps the first of tied costs and skips NaN, as a sort by cost would."""
    order, starts, cols, indptr = g.reversed_pairs
    return sp.csr_matrix((np.fmin.reduceat(-rew[order], starts), cols, indptr),
                         shape=(g.num_nodes, g.num_nodes))


class Planner:
    """One reward table's planning state, shared by all its destinations.

    Per table: its checks (a temperature in [0, inf), 0 for greedy plans
    only, and ``_checked_rewards``), the reversed graph, the shortest-path
    routine that runs on it (negative-cost when any reward is positive),
    the first exact start's LU factor of M = I - A (each start Z = x / x_d,
    see ``exact_start``), and the reward table padded with -inf for invalid
    slots (``padded``).  Per destination, made on first use and kept in one
    memo: the search's values and tree, which are the greedy policy
    (``greedy``; the first tail that needs them builds its forest and jump
    tables), and each horizon's soft plan (``soft``, kept too where it does
    not converge, its scaled table dropped once the policy is built).  The
    arrays it returns must not be modified.
    """

    def __init__(self, g: RoadGraph, rew: np.ndarray, temperature: float = 1.0):
        if not 0 <= temperature < math.inf:
            raise ValidationError(f"temperature must be in [0, inf), not {temperature}")
        self.graph = g
        self.rew = _checked_rewards(g, rew)
        self.padded = np.concatenate((self.rew, [-np.inf]))  # slot_edge's SENTINEL reads -inf
        self.temperature = temperature
        self._reversed = _reversed_graph(g, self.rew)
        self._gain = bool(self.rew.size and np.max(self.rew) > 0)
        self._memo: dict[tuple, object] = {}

    def memo(self, kind, dest: int, make):
        """``make()``, computed once per (kind, destination)."""
        if (kind, dest) not in self._memo:
            self._memo[kind, dest] = make()
        return self._memo[kind, dest]

    def _shortest_paths(self, dest: int) -> tuple[np.ndarray, np.ndarray]:
        """(max-reward values, each node's successor on the shortest-path
        tree, negative where it has none) from one search toward dest."""
        if not self._gain:
            dist, tree = dijkstra(self._reversed, indices=dest, return_predecessors=True)
            return -dist, tree
        try:
            dist, tree = bellman_ford(self._reversed, indices=dest, return_predecessors=True)
        except NegativeCycleError:
            raise InfeasibilityError("reward-gain cycle: best path is unbounded") from None
        return -dist, tree

    def greedy(self, dest: int) -> Successors:
        """The greedy policy of the max-reward values: they and their tree,
        from one search, walked node by node (see ``Successors``)."""
        return self.memo("search", dest, lambda: Successors(
            self.graph, dest, self.padded, *self._shortest_paths(dest)))

    def best_values(self, dest: int) -> np.ndarray:
        return self.greedy(dest).values

    def soft(self, dest: int, horizon: float = math.inf, init: str = "exact",
             tol: float = 1e-9, max_iters: int | None = None,
             trace: list | None = None) -> tuple[Policy | None, int]:
        """RH(H)'s soft policy toward dest, H >= 1, and its backup count, kept
        per destination and argument read.  Backups run on y = exp(v - a), a
        an anchor: y <- sum_k C y(s'), y(dest) = 1, C = exp(r/T + a(s') - a(s))
        (0 off the slots, on dest's row and on rows that cannot reach it); the
        policy is C y(s') / y_new.  RH(H): H backups from y = 1 on a = v_best/T
        (C <= 1).  H = inf: from y = 1 on v_best/T ('dijkstra') or on
        ``exact_start`` ('exact'), or y = e_dest ('onehot'), until every y_new
        / y is within tol / (1 + tol) of 1 (|dv| <= tol), else policy None after
        max_iters, then one backup for the policy.  Where y_new overflows, a
        takes log y and the backup is redone (InfeasibilityError if again).
        An H = inf pass given a trace list appends a + log y to it before
        its first backup and after each, and is run again, not kept."""
        if not (horizon >= 1 and init in ("onehot", "dijkstra", "exact") and self.temperature > 0
                and (trace is None or math.isinf(horizon))):
            raise ValidationError(f"no soft plan: H={horizon}, init={init!r}, T={self.temperature}")
        kind = ("soft", init, tol, max_iters) if math.isinf(horizon) else ("soft", horizon)
        make = lambda: _soft_plan(self, dest, horizon, init, tol, max_iters, trace)  # noqa: E731
        return make() if trace is not None else self.memo(kind, dest, make)

    @cached_property
    def _factor(self):
        """``splu`` of M = I - A, A[s, s'] summing exp(r/T) over the edges
        s -> s' (scipy's assembly, which drops the entries that come out
        0); None where exp overflows or M is singular.  The ordering is the
        one with the fastest solves on the cli-pipeline graph."""
        with np.errstate(over="ignore"):
            w = np.exp(self.rew / self.temperature)
        if not w.max(initial=0.0) < np.inf:
            return None
        g, n = self.graph, self.graph.num_nodes
        m = sp.identity(n, format="csc") - sp.csc_matrix((w, (g.edge_src, g.edge_dst)),
                                                         shape=(n, n))
        try:
            return sp.linalg.splu(m, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError:  # exactly singular
            return None

    def exact_start(self, dest: int) -> np.ndarray:
        """Soft values toward dest for the backups to confirm.  Z = exp(v)
        solves (I - A_d) Z = e_d, A_d being A with row d cleared, that is M
        plus e_d A[d, :]; by Sherman-Morrison Z = x / x_d, x = M^-1 e_d (a
        walk to d is a first passage and then loops at d).  A positive Z
        exists only when A_d's spectral radius is at most 1.  Where M is
        singular, or x / x_d is not finite and positive on a node that
        reaches d (an infeasible destination, exp overflow, or a value
        below about -745, whose x underflows), this returns v_best/T."""
        v_best = self.best_values(dest) / self.temperature
        if self._factor is None:
            return v_best
        x = self._factor.solve(np.eye(1, self.graph.num_nodes, dest)[0])  # M^-1 e_d
        reach = np.isfinite(v_best)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            z = x[reach] / x[dest]
        if not np.all((z > 0) & (z < np.inf)):
            return v_best
        v = np.full(self.graph.num_nodes, -np.inf)
        v[reach] = np.log(z)
        return v


def _scaled_backup(c: np.ndarray, y: np.ndarray, targets: np.ndarray, dest: int) -> tuple:
    """One backup on a scaled (V, S) slot table c: c * y(s') and y_new, its column sums."""
    p = c * y[targets]
    y_new = np.add.reduce(p, axis=0)
    y_new[dest] = 1.0
    return p, y_new


def _soft_plan(plan: Planner, dest: int, horizon: float, init: str, tol: float, max_iters,
               trace: list | None):
    """``Planner.soft``'s plan, made on its first call."""
    g, t = plan.graph, plan.temperature
    anchor = plan.best_values(dest) / t
    live = np.isfinite(anchor)
    y = live.astype(np.float64)  # 1 on the nodes that reach dest
    live[dest] = False  # dest's row, as the rows that cannot reach it, is 0
    if not math.isinf(horizon):
        backups, tol = int(horizon), None
    else:
        backups = _default_iters(g.num_nodes) if max_iters is None else max_iters
        if init == "onehot":
            y = np.eye(1, g.num_nodes, dest)[0]
        elif init == "exact":
            anchor = plan.exact_start(dest)  # finite exactly where v_best is
    # y <= max_out_degree**H from y = 1 on C <= 1; checks cost H=100 about a third
    check = tol is not None or backups * math.log(max(g.max_out_degree, 1)) > 700
    targets = g.targets_by_slot  # (V, S): backups sum down columns
    terms = plan.padded[g.edges_by_slot] / t
    c, it, fresh = None, 0, False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if trace is not None:
            trace.append(anchor + np.log(y))
        while it < backups:
            if c is None:
                c = np.exp(terms + anchor[targets] - np.where(live, anchor, np.inf))
            p, y_new = _scaled_backup(c, y, targets, dest)
            if check:
                # 0 / 0 (no mass before or after) is NaN, which fmax skips
                top = np.fmax.reduce(np.abs(y_new / y - 1.0))
                if top == np.inf and not np.isfinite(y_new).all():
                    if fresh:
                        raise InfeasibilityError("soft values overflow a re-anchored table")
                    # re-anchor on log y, floored 600 below its top so no coefficient passes e**600
                    shift = np.maximum(np.log(y), np.log(y.max()) - 600.0)
                    shift[dest] = 0.0
                    anchor += shift
                    c, y, fresh = None, y * np.exp(-shift), True
                    continue
            it += 1
            y, fresh = y_new, False
            if tol is not None:
                if trace is not None:
                    trace.append(anchor + np.log(y))
                if top <= tol / (1.0 + tol):
                    p, y_new = _scaled_backup(c, y, targets, dest)  # the policy's backup
                    break
        else:
            if tol is not None:
                return None, backups
        dead = y_new == 0.0
        dead[dest] = True
        probs = np.ascontiguousarray((p / np.where(dead, 1.0, y_new)).T)
    return Policy(probs=probs, destination=dest, dead=dead, scaled=(anchor, y)), it


@dataclass
class RolloutResult:
    edge_mass: np.ndarray      # (num_edges,)
    steps: int
    truncated: bool
    lost_mass: float           # mass that vanished on dead non-destination rows
    absorbed_mass: float       # mass that reached the destination


def rollout(gv: GoalView, schedule: list[tuple[Policy | Successors, int | None]],
            initial_mass: np.ndarray, *, tol: float = 1e-12,
            max_steps: int | None = None) -> RolloutResult:
    """Propagate state mass through a time-varying policy schedule.

    Each schedule entry is (policy, steps); steps None means run until the
    residual mass falls to tol (only sensible as the final entry).  Mass
    reaching the destination is absorbed immediately and emits no further
    edge mass.  Edge mass accumulates per original edge id.

    Soft policies step.  A greedy policy (a ``Successors``) runs only as a
    (policy, None) tail, in closed form, with the figures
    (cut and truncated at max_steps too) that stepping its one-hot rows
    reports.  Mass on one node walks its path, bitwise equal to stepping:
    every tail at H=0 and for ``mmp``.  Mass on many nodes is summed on the
    destination's jump tables, equal to stepping up to rounding.
    """
    g = gv.graph
    if max_steps is None:
        max_steps = _default_iters(g.num_nodes)
    m = np.asarray(initial_mass, dtype=np.float64).copy()
    if m.shape[0] != g.num_nodes:
        raise ValidationError("initial mass length != node count")
    if (m < 0).any():
        raise ValidationError("initial mass must be nonnegative")
    for pol, length in schedule:
        if pol.destination != gv.destination:
            raise ValidationError("policy destination != rollout destination")
        if isinstance(pol, Successors) and length is not None:
            raise ValidationError("a greedy policy runs only as a rollout's tail (steps None)")
    absorbed = float(m[gv.destination])
    m[gv.destination] = 0.0
    lost = 0.0
    steps = 0
    truncated = False
    eidx = None  # the valid slots' edges, set up by the first step
    tail = None
    for pol, length in schedule:
        if isinstance(pol, Successors):
            if m.sum() > tol:
                tail = pol.tail(m, tol, max_steps - steps)
            break
        pv = None
        k = 0
        while (length is None or k < length) and m.sum() > tol:
            if steps >= max_steps:
                truncated = True
                break
            if pv is None:
                if eidx is None:
                    # the destination row holds no mass and no probability
                    eidx = g.slot_edge[g.slot_valid]
                    rows, tidx = g.edge_src[eidx], g.edge_dst[eidx]
                    # an edge has one slot: this sums its edge mass
                    slot_mass = np.zeros(rows.size)
                pv = pol.probs[g.slot_valid]
                dead = np.flatnonzero(pol.dead)
                dead = dead[dead != gv.destination]  # the destination holds no mass
            if dead.size:
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
    edge_mass = np.zeros(g.num_edges)
    if eidx is not None:
        edge_mass[eidx] = slot_mass
    if tail is not None:
        tail_steps, tail_edges, tail_mass, tail_absorbed, tail_lost, truncated = tail
        steps += tail_steps
        edge_mass[tail_edges] += tail_mass
        absorbed += tail_absorbed
        lost += tail_lost
    return RolloutResult(edge_mass=edge_mass, steps=steps, truncated=truncated,
                         lost_mass=lost, absorbed_mass=absorbed)
