"""Feasibility and convergence diagnostics for the softmax value recursion.

The backward pass is power iteration on A = exp(rewards/T).  Restricting A to
non-destination rows and columns gives the block B1 whose spectral radius
decides everything: the soft values (and the demo likelihood) are finite iff
lambda_max(B1) < 1, and the backward pass converges geometrically at that
rate.  Everything here runs in log space on the padded slot layout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .errors import ValidationError
from .graph import GoalView, Trajectory, gen_two_state_loop, two_state_loop_rewards
from .planners import (_logsumexp_rows, _value_diff, power_iteration_backward,
                       trajectory_policy_nll)

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
BOUNDARY = "Boundary"

DEFAULT_BAND = 1e-6


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
    """Log-weights of the non-destination block in slot layout."""
    g = gv.graph
    rew = np.asarray(rew, dtype=np.float64)
    mask = gv.slot_valid & (g.slot_target != gv.destination)
    mask[gv.destination] = False
    logw = np.full((g.num_nodes, g.max_out_degree), -np.inf)
    logw[mask] = rew[g.slot_edge[mask]] / temperature
    tgt = np.where(mask, g.slot_target, 0)
    return logw, tgt


def cheap_bounds(gv: GoalView, rew: np.ndarray,
                 temperature: float = 1.0) -> tuple[float, float]:
    """Exact max row / column sums of exp-rewards over the non-destination
    block; each upper-bounds the dominant eigenvalue.
    """
    g = gv.graph
    logw, tgt = _b1_slots(gv, rew, temperature)
    mask = ~np.isneginf(logw)
    w = np.where(mask, np.exp(logw), 0.0)
    row = float(np.max(w.sum(axis=1), initial=0.0))
    col_acc = np.zeros(g.num_nodes)
    np.add.at(col_acc, tgt[mask], w[mask])
    col = float(np.max(col_acc, initial=0.0))
    return row, col


def _block_has_cycle(num_nodes: int, logw: np.ndarray, tgt: np.ndarray) -> bool:
    """Whether the non-destination block's digraph contains any cycle.

    The block is nonnegative, so its spectral radius is zero exactly when it
    is nilpotent, i.e. the digraph is acyclic.
    """
    mask = ~np.isneginf(logw)
    src = np.nonzero(mask)[0]
    dst = tgt[mask]
    if src.size == 0:
        return False
    if np.any(src == dst):
        return True
    adj = scipy.sparse.csr_matrix(
        (np.ones(src.size, dtype=np.int8), (src, dst)),
        shape=(num_nodes, num_nodes))
    ncomp, labels = connected_components(adj, directed=True,
                                         connection="strong")
    return bool(np.max(np.bincount(labels, minlength=ncomp)) >= 2)


def dominant_eigenvalue(gv: GoalView, rew: np.ndarray, *,
                        temperature: float = 1.0, tol: float = 1e-10,
                        max_iters: int | None = None,
                        band: float = DEFAULT_BAND) -> SpectralReport:
    """Log-space power iteration on B1 with a Rayleigh-quotient readout.

    Classification: Feasible (lambda < 1), Infeasible (lambda > 1), or
    Boundary when |lambda - 1| <= band (left undecided on purpose).
    """
    g = gv.graph
    logw, tgt = _b1_slots(gv, rew, temperature)
    if max_iters is None:
        max_iters = max(1000, 30 * g.num_nodes)
    bounds = cheap_bounds(gv, rew, temperature)
    if min(bounds) == 0.0 or not _block_has_cycle(g.num_nodes, logw, tgt):
        # Acyclic block: nilpotent, spectral radius exactly zero.  (Power
        # iteration must not run here -- the shift below would hand it a
        # defective eigenvalue and O(1/k) convergence.)
        return SpectralReport(0.0, bounds, classify(0.0, band), 0, True)
    # Power-iterate the shifted block A + cI.  The shift moves every
    # eigenvalue to lam_i + c, so the Perron root strictly dominates in
    # modulus even when the raw block has peripheral ties (bipartite grids,
    # directed cycles put several eigenvalues on the same circle and stall
    # the unshifted Rayleigh readout forever).  c is kept on the scale of
    # the spectrum via the cheap certified bound.
    shift = min(1.0, min(bounds))
    logc = np.log(shift)
    x = np.zeros(g.num_nodes)
    x[gv.destination] = -np.inf
    mu_hist: list[float] = []
    for it in range(1, max_iters + 1):
        y = _logsumexp_rows(logw + x[tgt])
        y[gv.destination] = -np.inf
        y = np.logaddexp(y, logc + x)
        lognum, lognorm = _logsumexp_rows(np.stack((x + y, 2.0 * x)))
        if np.isneginf(lognum):
            return SpectralReport(0.0, bounds, classify(0.0, band), it, True)
        mu = float(np.exp(lognum - lognorm))
        mu_hist.append(mu)
        if len(mu_hist) >= 3:
            ref = max(1.0, mu)
            if (abs(mu_hist[-1] - mu_hist[-2]) <= tol * ref
                    and abs(mu_hist[-1] - mu_hist[-3]) <= tol * ref):
                lam = max(0.0, mu - shift)
                return SpectralReport(lam, bounds, classify(lam, band), it, True)
        x = y - np.max(y)
    lam = max(0.0, mu_hist[-1] - shift)
    return SpectralReport(lam, bounds, classify(lam, band), max_iters, False)


def convergence_rate_probe(gv: GoalView, rew: np.ndarray, *,
                           temperature: float = 1.0, iters: int = 80,
                           init: str = "onehot") -> float:
    """Fitted geometric decay ratio of the backward-pass error, an estimate
    of |lambda2/lambda1| of the full exp-reward matrix.  Reports 0.0 when the
    error hits exactly zero (nilpotent block); raises when too few usable
    iterations remain to fit.
    """
    v_ref, _, conv = power_iteration_backward(
        gv, rew, temperature=temperature, init=init, tol=1e-13,
        max_iters=max(10 * iters, 1000))
    if not conv:
        raise ValidationError("backward pass does not converge; no rate to fit")
    trace: list[np.ndarray] = []
    power_iteration_backward(gv, rew, temperature=temperature, init=init,
                             tol=0.0, max_iters=iters, trace=trace)
    errs = np.array([_value_diff(v, v_ref) for v in trace])
    # fit only the clean geometric window: nonzero, finite, and above the
    # float noise floor (exact zeros past it mean the iterate landed on the
    # fixed point bitwise)
    usable = np.nonzero((errs > 1e-12) & np.isfinite(errs))[0]
    usable = usable[2:] if usable.shape[0] > 4 else usable
    if usable.shape[0] < 3:
        if np.any(errs == 0.0):
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
            if rep.classification == FEASIBLE:
                v, _, conv = power_iteration_backward(
                    gv, rew, temperature=temperature, init="dijkstra",
                    tol=1e-11, max_iters=200_000)
                if conv:
                    nll = float(np.mean([
                        trajectory_policy_nll(gv, rew, v, d, temperature)
                        for d in demos]))
                else:
                    nll = math.inf
            else:
                nll = math.inf
            rows.append((float(t1), float(t2), rep.lambda_max, nll))
    return np.array(rows, dtype=np.float64)
