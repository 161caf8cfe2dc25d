"""Inverse-RL gradient estimators for goal-conditioned route choice.

One receding-horizon estimator covers the classical family through its
horizon H: H softmax backups from max-reward values, then a deterministic
greedy tail.  ``batch_gradient`` resolves the configured algorithm name,
and ``demo_gradient`` is a batch of one:

- ``receding_horizon``: RH(H) at the configured horizon.
- ``birl``: RH(1), one softmax step over max-reward values.
- ``mmp``: RH(0) at temperature 1 on margin-augmented rewards, reporting
  the margin loss instead of a likelihood.
- ``maxent``: RH(inf), fully converged softmax values and no greedy tail.

``algorithm_settings`` is the one table from names to (horizon,
temperature, margin).  At H=0 and H=inf one stationary policy plans from
every state, so a single rollout from the origin gives the gradient.

The estimator returns ascent directions: step the model parameters by
``+lr * gradient`` to increase demonstration likelihood (or decrease margin
loss).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibilityError, ValidationError
from .graph import GoalView, RoadGraph, Trajectory
from .planners import Planner, Policy, Successors, rollout, trajectory_nll
# not called here: the benchmark's tracer rebinds this copy of the kernel too
from .planners import softmax_backup  # noqa: F401
from .rewards import RewardModel, backprop, edge_rewards

_ALGS = ("receding_horizon", "maxent", "birl", "mmp")
_INITS = ("onehot", "dijkstra")


@dataclass
class IrlConfig:
    algorithm: str = "receding_horizon"
    horizon: float = 10.0          # receding_horizon only; nonnegative int or inf
    temperature: float = 1.0
    margin: float = 1.0            # mmp only (RH(0) on margin-augmented rewards)
    init: str = "dijkstra"         # H=inf backward start: max-reward values or "onehot"
    tol: float = 1e-9
    max_iters: int | None = None

    def __post_init__(self):
        if self.algorithm not in _ALGS:
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")
        if not 0 < self.temperature < math.inf:
            raise ValidationError(f"temperature must be positive and finite, not {self.temperature}")
        if not 0 <= self.margin < math.inf:
            raise ValidationError(f"margin must be nonnegative and finite, not {self.margin}")
        if self.init not in _INITS:
            raise ValidationError(f"unknown init {self.init!r}")
        if not self.tol >= 0:
            raise ValidationError(f"tol must be nonnegative, not {self.tol}")
        if self.max_iters is not None and not self.max_iters >= 1:
            raise ValidationError(f"max_iters must be None or at least 1, not {self.max_iters}")
        h = self.horizon
        if not (math.isinf(h) or (h >= 0 and float(h).is_integer())):
            raise ValidationError("horizon must be a nonnegative integer or inf")


@dataclass
class GradientReport:
    gradient: np.ndarray | None
    nll: float | None = None       # negative log-likelihood when defined
    loss: float | None = None      # margin loss (mmp)
    skipped: bool = False
    reason: str = ""
    backward_iters: int = 0
    rollout_steps: int = 0
    truncated: bool = False


def _skipped(reason: str) -> GradientReport:
    return GradientReport(gradient=None, skipped=True, reason=reason)


def state_mass(g: RoadGraph, nodes) -> np.ndarray:
    return np.bincount(np.fromiter(nodes, dtype=np.int64),
                       minlength=g.num_nodes).astype(np.float64)


def edge_mass_of(g: RoadGraph, edges) -> np.ndarray:
    return np.bincount(np.fromiter(edges, dtype=np.int64),
                       minlength=g.num_edges).astype(np.float64)


# ---------------------------------------------------------------------------
# the general receding-horizon estimator


def _receding_horizon(model: RewardModel, g: RoadGraph, traj: Trajectory,
                      cfg: IrlConfig, r: np.ndarray, plan: Planner | None,
                      margin: float | None) -> GradientReport:
    """RH(H) report on one demo, planned by the batch's ``plan`` on its reward
    table r at ``cfg.temperature``; ``cfg.margin`` and ``cfg.algorithm`` are not
    read, and ``cfg.init``, ``cfg.tol`` and ``cfg.max_iters`` only at H=inf.

    With ``margin`` (H=0, plan None) the demo's own planner sees r raised by
    ``margin`` on every edge but the connectors and the demo's own, and the
    report carries the margin loss r_aug.rho_best - r.rho_demo instead of an NLL.
    """
    traj.validate(g)
    if margin is not None:
        margins = np.full(g.num_edges, margin)
        margins[g.connector_flags] = 0.0
        margins[list(traj.edges)] = 0.0
        plan = Planner(g, r + margins, cfg.temperature)
    gv = GoalView(g, traj.destination)
    origin = traj.nodes[0]
    if np.isneginf(plan.best_values(gv.destination)[origin]):
        return _skipped("origin cannot reach destination")
    # H=inf plans with soft values all the way and has no greedy tail
    pol_greedy = None if math.isinf(cfg.horizon) else plan.greedy(gv.destination)
    pol_soft, backward_iters = None, 0
    if cfg.horizon != 0:
        pol_soft, backward_iters = plan.soft(gv.destination, cfg.horizon, cfg.init,
                                             cfg.tol, cfg.max_iters)
        if pol_soft is None:
            rep = _skipped("backward pass did not converge")
            rep.backward_iters = backward_iters
            return rep
    pol = pol_greedy if pol_soft is None else pol_soft

    rho_tau = edge_mass_of(g, traj.edges)
    if cfg.horizon == 0 or math.isinf(cfg.horizon):
        # one stationary policy drives both rollouts, and a rollout is linear
        # in its initial mass: rho_theta - rho_star is the origin's rollout
        # at H=0 the origin reaches the destination (checked above), so its
        # walk on the shortest-path tree is absorbed there
        roll = rollout(gv, [(pol, None)], state_mass(g, [origin]))
        rho_best = roll.edge_mass
        residual = (rho_tau - rho_best) / cfg.temperature
        steps, truncated = roll.steps, roll.truncated
    else:
        # 1 <= H < inf: the demo's states take H soft steps before the greedy
        # tail and its suffix's H - 1, so the schedules differ and both
        # rollouts are needed
        roll_theta = rollout(gv, [(pol_soft, backward_iters), (pol_greedy, None)],
                             state_mass(g, traj.nodes))
        roll_star = rollout(gv, [(pol_soft, backward_iters - 1), (pol_greedy, None)],
                            state_mass(g, traj.nodes[1:]))
        residual = (roll_star.edge_mass + rho_tau - roll_theta.edge_mass) / cfg.temperature
        steps = roll_theta.steps + roll_star.steps
        truncated = roll_theta.truncated or roll_star.truncated
    grad = backprop(model, g, residual)
    nll = loss = None
    if margin is None:
        # receding-horizon likelihood: every step under the planned policy
        nll = trajectory_nll(g, traj, pol)
    else:
        loss = float(plan.rew @ rho_best - r @ rho_tau)
    return GradientReport(gradient=grad, nll=nll, loss=loss,
                          backward_iters=backward_iters, rollout_steps=steps,
                          truncated=truncated)


def algorithm_settings(cfg: IrlConfig) -> tuple[float, float, float | None]:
    """The (horizon, temperature, margin) at which ``cfg.algorithm`` runs the
    receding-horizon estimator; the margin is None but for ``mmp``."""
    if cfg.algorithm == "maxent":
        return math.inf, cfg.temperature, None
    if cfg.algorithm == "birl":
        return 1, cfg.temperature, None
    if cfg.algorithm == "mmp":
        return 0, 1.0, cfg.margin
    return cfg.horizon, cfg.temperature, None


def _reports(model: RewardModel, g: RoadGraph, trajectories: list[Trajectory],
             cfg: IrlConfig) -> list[GradientReport]:
    """Each demo's report at the settings of ``cfg.algorithm``, on one reward
    evaluation and one Planner shared by all demos but ``mmp``'s."""
    horizon, temperature, margin = algorithm_settings(cfg)
    rh_cfg = replace(cfg, horizon=horizon, temperature=temperature)
    r = edge_rewards(model, g)
    plan = None if margin is not None else Planner(g, r, temperature)
    return [_receding_horizon(model, g, traj, rh_cfg, r, plan, margin)
            for traj in trajectories]


def demo_gradient(model: RewardModel, g: RoadGraph, traj: Trajectory,
                  cfg: IrlConfig) -> GradientReport:
    """The report of a batch of one (see ``batch_gradient``)."""
    return _reports(model, g, [traj], cfg)[0]


def batch_gradient(model: RewardModel, g: RoadGraph,
                   trajectories: list[Trajectory], cfg: IrlConfig
                   ) -> tuple[np.ndarray | None, list[GradientReport]]:
    """Mean ascent direction over the non-skipped demos, and every report."""
    reports = _reports(model, g, trajectories, cfg)
    grads = [rep.gradient for rep in reports if not rep.skipped]
    if not grads:
        return None, reports
    return np.mean(grads, axis=0), reports


# ---------------------------------------------------------------------------
# sampling synthetic demonstrations from a reward table


def sample_demonstrations(model: RewardModel, g: RoadGraph, num_demos: int, *,
                          rng_seed: int = 0, temperature: float = 1.0,
                          pairs: list[tuple[int, int]] | None = None
                          ) -> list[Trajectory]:
    """Draw loop-free demo paths from the converged stochastic policy
    (or the deterministic best path at temperature 0; a temperature outside
    [0, inf) raises ValidationError).  Deterministic under the seed.
    Stochastic walks that revisit a node or dead-end are rejected and
    resampled.
    """
    rng = np.random.default_rng(rng_seed)
    plan = Planner(g, edge_rewards(model, g), temperature)
    fixed_pairs = pairs is not None
    if fixed_pairs and len(pairs) != num_demos:
        raise ValidationError("pairs length != num_demos")

    out: list[Trajectory] = []
    failures = 0
    while len(out) < num_demos:
        if failures > 1000 + 50 * num_demos:
            raise InfeasibilityError("could not sample demonstrations "
                                     "(rewards may be near the feasibility boundary)")
        if fixed_pairs:
            origin, dest = pairs[len(out)]
        else:
            origin, dest = (int(x) for x in rng.choice(g.num_nodes, size=2, replace=False))
        if temperature == 0.0:
            pol = plan.greedy(dest)
        else:
            pol, _ = plan.soft(dest)
            if pol is None:
                raise InfeasibilityError(
                    f"softmax values for destination {dest} did not converge")
        # the soft values are -inf exactly where the max-reward values are
        if np.isneginf(plan.best_values(dest)[origin]):
            if fixed_pairs:
                raise ValidationError(f"pair ({origin}, {dest}) is disconnected")
            failures += 1
            continue
        if isinstance(pol, Successors):
            # the tree path to dest, drawing the double per hop that
            # rng.choice draws on the one-hot rows
            edges, nodes = pol.walk(origin)
            rng.random(len(edges))
            walk = Trajectory(nodes=tuple(nodes), edges=tuple(edges))
        else:
            walk = _sample_walk(g, pol, origin, dest, rng)
        if walk is None:
            failures += 1
            continue
        out.append(walk)
    return out


def _sample_walk(g: RoadGraph, pol: Policy, origin: int, dest: int,
                 rng: np.random.Generator) -> Trajectory | None:
    """One walk under the soft policy pol, or None where it revisits a node
    or dead-ends.

    Every hop tried draws one double and takes the slot ``rng.choice`` from
    the policy's row takes for it, read from the policy's ``draws`` table,
    so the stream, and every later walk, is the one that choice gives.  A
    dead row, or one that sums to at most 0, rejects the walk without a
    draw.
    """
    cdf, stop = pol.draws
    node = origin
    seen = {origin}
    nodes = [origin]
    edges: list[int] = []
    for _ in range(g.num_nodes):  # a walk that revisits no node takes < S steps
        if node == dest:
            return Trajectory(nodes=tuple(nodes), edges=tuple(edges))
        if stop[node]:
            return None
        e = int(g.slot_edge[node, cdf[node].searchsorted(rng.random(), side="right")])
        nxt = int(g.edge_dst[e])
        if nxt in seen:
            return None
        edges.append(e)
        nodes.append(nxt)
        seen.add(nxt)
        node = nxt
    return None
