"""Feasibility and convergence diagnostics for the softmax value recursion.

The backward pass is power iteration on A = exp(rewards/T).  Restricting A to
non-destination rows and columns gives the block B1 whose spectral radius
decides everything: the soft values (and the demo likelihood) are finite iff
lambda_max(B1) < 1, and the backward pass converges geometrically at that
rate.  The bounds read the padded slot layout, the eigenvalue iteration runs
in the linear domain on a sparse B1, and the rate probe reads the planner's
own soft pass.  A temperature outside (0, inf) raises ValidationError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .errors import ValidationError
from .graph import GoalView, Trajectory, gen_two_state_loop, two_state_loop_rewards
from .planners import Planner, _checked_rewards, trajectory_nll

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
BOUNDARY = "Boundary"

DEFAULT_BAND = 1e-6
PROBE_ITERS = 80  # backups the rate probe fits its decay over


@dataclass
class SpectralReport:
    lambda_max: float
    upper_bounds: tuple[float, float]   # (max row sum, max column sum)
    classification: str
    iterations: int
    converged: bool


def classify(lam: float, band: float = DEFAULT_BAND) -> str:
    if abs(lam - 1.0) <= band:
        return BOUNDARY
    return FEASIBLE if lam < 1.0 else INFEASIBLE


def _b1_slots(gv: GoalView, rew: np.ndarray, temperature: float):
    """Log-weights of the non-destination block in slot layout (-inf off the
    block), and slot targets that are safe to index with."""
    if not 0 < temperature < math.inf:
        raise ValidationError(f"temperature must be positive and finite, not {temperature}")
    g = gv.graph
    logw = _checked_rewards(g, rew) / temperature
    logw[g.edge_dst == gv.destination] = -np.inf
    out = np.concatenate((logw, [-np.inf]))[g.slot_edge]  # invalid slots read the -inf
    out[gv.destination] = -np.inf
    return out, g.safe_targets


def cheap_bounds(gv: GoalView, rew: np.ndarray,
                 temperature: float = 1.0) -> tuple[float, float]:
    """Exact max row / column sums of exp-rewards over the non-destination
    block; each upper-bounds the dominant eigenvalue.
    """
    return _bounds(gv.graph.num_nodes, *_b1_slots(gv, rew, temperature))


def _bounds(num_nodes: int, logw: np.ndarray, tgt: np.ndarray) -> tuple[float, float]:
    """``cheap_bounds`` of a B1 slot table from ``_b1_slots``."""
    mask = ~np.isneginf(logw)
    with np.errstate(over="ignore"):  # a weight past float range makes the bound +inf
        w = np.where(mask, np.exp(logw), 0.0)
    row = float(np.max(w.sum(axis=1), initial=0.0))
    col = float(np.max(np.bincount(tgt[mask], w[mask], minlength=num_nodes), initial=0.0))
    return row, col


def dominant_eigenvalue(gv: GoalView, rew: np.ndarray, *,
                        temperature: float = 1.0, tol: float = 1e-10,
                        max_iters: int | None = None,
                        band: float = DEFAULT_BAND) -> SpectralReport:
    """Linear power iteration on B1's cyclic core (the edges inside its
    strongly connected components) with a Rayleigh-quotient readout.

    The core has B1's lambda, the largest of its components' (the Frobenius
    normal form), and no heavy edge into a cycle swamps its iterate.  An
    empty core is nilpotent, lambda 0.  A component whose scaled iterate
    sinks where floats no longer hold tol of it (rewards/T that climb and
    fall by about 600 around one cycle), or a core weight above about e^745,
    raises ValidationError.

    Classification: Feasible (lambda < 1), Infeasible (lambda > 1), or
    Boundary when |lambda - 1| <= band (left undecided on purpose).
    """
    n = gv.graph.num_nodes
    logw, tgt = _b1_slots(gv, rew, temperature)
    if max_iters is None:
        max_iters = max(1000, 30 * n)
    elif not max_iters >= 1:
        raise ValidationError(f"max_iters must be None or at least 1, not {max_iters}")
    bounds = _bounds(n, logw, tgt)
    src, slot = np.nonzero(~np.isneginf(logw))
    dst = tgt[src, slot]
    _, labels = connected_components(scipy.sparse.csr_matrix(
        (np.ones(src.size, dtype=bool), (src, dst)), shape=(n, n)), connection="strong")
    core = labels[src] == labels[dst]
    if min(bounds) == 0.0 or not core.any():
        # the shift below would hand a nilpotent block a defective eigenvalue
        return SpectralReport(0.0, bounds, classify(0.0, band), 0, True)
    # Iterate B + shift*I, so the Perron root strictly dominates in modulus
    # where bipartite grids and directed cycles put several eigenvalues on one
    # circle; the cheap certified bound keeps the shift on the spectrum's scale.
    shift = min(1.0, min(bounds))
    lw = logw[src[core], slot[core]]
    # scaled by the core's top weight or the shift, the larger: neither exceeds 1
    scale = max(np.max(lw), np.log(shift))
    b = scipy.sparse.csr_matrix((np.exp(lw - scale), (src[core], dst[core])), shape=(n, n))
    c = np.exp(np.log(shift) - scale)
    if c == 0.0:
        raise ValidationError(f"B1's core weights reach e^{scale:.0f}, past float range")
    x = np.where(np.arange(n) == gv.destination, 0.0, 1.0)
    mus: list[float] = []
    for it in range(1, max_iters + 1):
        y = b @ x + c * x  # x's largest entry is 1, so x . y >= c > 0
        num = np.sum(x * y)  # plain reductions: a BLAS dot may fuse or reorder
        mus.append(float(np.exp(np.log(num / np.sum(x * x)) + scale)))
        ref = tol * max(1.0, mus[-1])
        converged = len(mus) >= 3 and all(abs(mus[-1] - m) <= ref for m in mus[-3:-1])
        if converged:
            break
        x = y / np.max(y)
    # the largest entry's component has a positive Perron vector; where an
    # entry of y is so small that the float spacing there (2^-1074 below the
    # normal range) passes tol of it, y has underflowed out of that precision
    floor = np.finfo(float).smallest_subnormal / max(tol, np.finfo(float).eps)
    if np.any(y[labels == labels[np.argmax(y)]] < floor):
        raise ValidationError("B1's weights span more than float range around a cycle")
    lam = max(0.0, mus[-1] - shift)
    return SpectralReport(lam, bounds, classify(lam, band), it, converged)


def convergence_rate_probe(gv: GoalView, rew: np.ndarray, *,
                           temperature: float = 1.0) -> float:
    """Fitted geometric decay ratio of the backward-pass error, an estimate
    of |lambda2/lambda1| of the full exp-reward matrix.  The error is the gap
    between the values a + log y of the planner's one-hot pass over its first
    PROBE_ITERS backups and its converged values at tol 1e-13, from a pass
    that starts at the exact fixed point (from one-hot, a slow feasible
    block can need more than its 1,000 backups).  Reports 0.0 when the
    one-hot pass lands on its fixed point bitwise (a nilpotent block);
    raises when too few usable iterations remain to fit.
    """
    plan = Planner(gv.graph, rew, temperature)
    ref, _ = plan.soft(gv.destination, init="exact", tol=1e-13, max_iters=1000)
    if ref is None:
        raise ValidationError("backward pass does not converge; no rate to fit")
    trace: list[np.ndarray] = []
    # at tol 0 the pass stops only where a backup leaves every value unchanged
    landed, _ = plan.soft(gv.destination, init="onehot", tol=0.0, max_iters=PROBE_ITERS,
                          trace=trace)
    reach = np.isfinite(ref.values)  # -inf in every iterate elsewhere
    errs = np.array([np.abs(v[reach] - ref.values[reach]).max(initial=0.0) for v in trace])
    # fit only the clean geometric window: nonzero, finite, and above the
    # float noise floor
    usable = np.nonzero((errs > 1e-12) & np.isfinite(errs))[0]
    usable = usable[2:] if usable.shape[0] > 4 else usable
    if usable.shape[0] < 3:
        if landed is not None:
            return 0.0  # hit the fixed point exactly in finitely many steps
        raise ValidationError("not enough usable iterations to fit a decay rate")
    slope = np.polyfit(usable.astype(np.float64), np.log(errs[usable]), 1)[0]
    return float(np.exp(slope))


def loss_surface_scan(theta1_values, theta2_values, *, temperature: float = 1.0,
                      band: float = DEFAULT_BAND) -> np.ndarray:
    """Grid scan on the two-state-loop fixture: rows of
    (theta1, theta2, lambda_max, nll).  The likelihood uses the fixture's two
    demo paths (0->1->dest and 1->0->dest); NLL is +inf wherever the
    classification is not Feasible.
    """
    g = gen_two_state_loop()
    gv = GoalView(g, 2)
    demos = [Trajectory(nodes=(0, 1, 2), edges=(1, 5)),
             Trajectory(nodes=(1, 0, 2), edges=(2, 4))]
    rows = []
    for t1 in np.asarray(theta1_values, dtype=np.float64):
        for t2 in np.asarray(theta2_values, dtype=np.float64):
            rew = two_state_loop_rewards(g, float(t1), float(t2))
            rep = dominant_eigenvalue(gv, rew, temperature=temperature, band=band)
            nll = math.inf
            if rep.classification == FEASIBLE:
                pol, _ = Planner(g, rew, temperature).soft(
                    gv.destination, init="dijkstra", tol=1e-11, max_iters=200_000)
                if pol is not None:
                    nll = float(np.mean([trajectory_nll(g, d, pol) for d in demos]))
            rows.append((float(t1), float(t2), rep.lambda_max, nll))
    return np.array(rows, dtype=np.float64)
