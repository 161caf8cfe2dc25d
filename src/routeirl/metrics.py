"""Route-prediction metrics and the two-proportion significance test.

A prediction is the deterministic highest-reward path (greedy walk over
max-reward values), never a stochastic sample.  Exact-match accuracy compares
full edge sequences; IoU compares unique edge-id sets.  When the evaluation
graph came out of compression, both the demo and the prediction are expanded
back to original edge ids first, so metrics are invariant under compression.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.stats import norm

from .errors import ValidationError
from .graph import MergeMap, RoadGraph, Trajectory
from .planners import Planner, greedy_path, trajectory_nll
from .rewards import RewardModel, edge_rewards


@dataclass
class Metrics:
    acc: float
    iou: float
    nll: float | None
    n: int
    unreachable: int

    def to_dict(self) -> dict:
        return {"acc": self.acc, "iou": self.iou, "nll": self.nll,
                "n": self.n, "unreachable": self.unreachable}


def evaluate(model_or_table, demos: list[Trajectory], g: RoadGraph, *,
             temperature: float = 1.0, nll: bool = True,
             merge_map: MergeMap | None = None) -> Metrics:
    """Greedy highest-reward predictions scored against demos.

    nll=True additionally reports the mean demo NLL under the converged
    softmax policy, at a temperature above 0; it is omitted (None) when any
    required backward pass fails to converge, mirroring algorithms for
    which the likelihood is undefined.  A temperature outside [0, inf)
    raises ValidationError, as any ``Planner`` does.  Each distinct
    destination is planned once, on one reversed graph for the table: one
    Dijkstra pass, one greedy policy that every walk to it follows and,
    with nll=True, its soft values and softmax policy, started at
    Z = x / x_d on the table's one LU factor of I - A and confirmed by the
    backward pass (the max-reward values start it where I - A is singular,
    exp overflows, a reaching value lies below about -745, or the
    destination is infeasible).
    """
    if not demos:
        raise ValidationError("no demos to evaluate")
    rew = (edge_rewards(model_or_table, g) if isinstance(model_or_table, RewardModel)
           else model_or_table)
    plan = Planner(g, rew, temperature)

    def expand(edges) -> list[int]:
        if merge_map is None:
            return [int(e) for e in edges]
        return [int(e) for e in merge_map.expand_edges(edges)]

    acc_sum = 0.0
    iou_sum = 0.0
    nll_sum = 0.0
    nll_ok = nll
    unreachable = 0
    for traj in demos:
        dest, origin = traj.nodes[-1], traj.nodes[0]
        # an origin that cannot reach dest sits on a dead row: the walk is None
        pred = greedy_path(g, plan.greedy(dest), origin)
        if pred is None:
            unreachable += 1
        else:
            demo_edges = expand(traj.edges)
            pred_edges = expand(pred.edges)
            if demo_edges == pred_edges:
                acc_sum += 1.0
            a, b = set(demo_edges), set(pred_edges)
            iou_sum += len(a & b) / len(a | b)
        if nll_ok:
            pol, _ = plan.soft(dest)
            if pol is None:
                nll_ok = False
            else:
                nll_sum += trajectory_nll(g, traj, pol)
    n = len(demos)
    return Metrics(acc=acc_sum / n, iou=iou_sum / n,
                   nll=(nll_sum / n) if nll_ok else None,
                   n=n, unreachable=unreachable)


@dataclass
class SignificanceResult:
    z: float
    p_value: float
    degenerate: bool = False


def diff_of_proportions(p1: float, p2: float, n: int) -> SignificanceResult:
    """Two-sided pooled two-proportion z test with equal group sizes n."""
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise ValidationError("proportions must lie in [0, 1]")
    if n <= 0:
        raise ValidationError("n must be positive")
    pooled = 0.5 * (p1 + p2)
    if pooled <= 0.0 or pooled >= 1.0:
        return SignificanceResult(z=0.0, p_value=1.0, degenerate=True)
    se = math.sqrt(pooled * (1.0 - pooled) * 2.0 / n)
    z = (p1 - p2) / se
    p = 2.0 * float(norm.sf(abs(z)))
    return SignificanceResult(z=z, p_value=p)
