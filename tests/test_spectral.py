import numpy as np
import pytest

from routeirl import (
    GoalView,
    LinearReward,
    edge_rewards,
    gen_gridworld,
    gen_random_graph,
    gen_two_state_loop,
    two_state_loop_rewards,
)
from routeirl.spectral import (
    BOUNDARY,
    FEASIBLE,
    INFEASIBLE,
    SpectralReport,
    cheap_bounds,
    classify,
    convergence_rate_probe,
    dominant_eigenvalue,
    loss_surface_scan,
)
from oracles import dense_b1_lambda, diamond_graph, scipy_dominant_eigenvalue


def test_dominant_eigenvalue_matches_dense_solver():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        if seed % 3 == 0:
            g = gen_gridworld(5, 6, rng_seed=seed)
        else:
            g = gen_random_graph(int(rng.integers(8, 28)), rng_seed=seed)
        w = -rng.uniform(0.05, 2.5, size=g.feature_dim)
        rew = edge_rewards(LinearReward(w), g)
        gv = GoalView(g, int(rng.integers(g.num_nodes)))
        rep = dominant_eigenvalue(gv, rew)
        want = dense_b1_lambda(gv, rew)
        assert rep.converged, (seed, rep.iterations)
        assert abs(rep.lambda_max - want) <= 1e-7 * max(1.0, want), (seed, rep.lambda_max, want)
        row, col = cheap_bounds(gv, rew)
        assert min(row, col) >= rep.lambda_max - 1e-9


def test_bipartite_grid_converges():
    # 4-connected grids put +lambda and -lambda on the same circle; the
    # diagonal shift must still converge the readout
    g = gen_gridworld(6, 6)
    rew = edge_rewards(LinearReward(np.array([-1.0, -1.0])), g)
    rep = dominant_eigenvalue(GoalView(g, 0), rew)
    assert rep.converged
    assert abs(rep.lambda_max - dense_b1_lambda(GoalView(g, 0), rew)) < 1e-8


def test_loop_fixture_eigenvalue_is_analytic():
    g = gen_two_state_loop()
    gv = GoalView(g, 2)
    for t1, t2 in [(1.0, 1.0), (0.5, 0.5), (np.log(2.0), np.log(2.0)),
                   (1.0, 2.0), (0.2, 2.4)]:
        rew = two_state_loop_rewards(g, t1, t2)
        rep = dominant_eigenvalue(gv, rew)
        want = np.exp(-t1) + np.exp(-t2)
        assert rep.converged
        # the readout stops once the Rayleigh sequence settles to ~tol
        assert abs(rep.lambda_max - want) < 1e-9


def test_classification_bands():
    assert classify(0.5) == FEASIBLE
    assert classify(2.0) == INFEASIBLE
    assert classify(1.0) == BOUNDARY
    assert classify(1.0 + 5e-7) == BOUNDARY
    assert classify(1.0 - 5e-7) == BOUNDARY
    assert classify(1.0 + 5e-6) == INFEASIBLE
    assert classify(1.0 - 5e-6) == FEASIBLE
    assert classify(0.9, band=0.2) == BOUNDARY


def test_loop_classification_flips_at_log2():
    g = gen_two_state_loop()
    gv = GoalView(g, 2)
    t = np.log(2.0)
    for off, want in [(0.01, FEASIBLE), (-0.01, INFEASIBLE), (0.0, BOUNDARY)]:
        rew = two_state_loop_rewards(g, t + off, t + off)
        rep = dominant_eigenvalue(gv, rew)
        assert rep.classification == want, (off, rep.lambda_max)


def test_nilpotent_block_reports_zero():
    g = diamond_graph()
    rew = edge_rewards(LinearReward(np.array([-1.0])), g)
    rep = dominant_eigenvalue(GoalView(g, 3), rew)
    assert rep.lambda_max == 0.0
    assert rep.classification == FEASIBLE
    assert rep.converged


def test_rate_probe_tracks_contraction_factor():
    g = gen_two_state_loop()
    gv = GoalView(g, 2)
    rew = two_state_loop_rewards(g, 1.0, 2.0)
    lam = np.exp(-1.0) + np.exp(-2.0)
    rate = convergence_rate_probe(gv, rew)
    assert abs(rate - lam) / lam < 0.05
    # nilpotent dynamics finish in finitely many sweeps: rate 0
    d = diamond_graph()
    drew = edge_rewards(LinearReward(np.array([-1.0])), d)
    assert convergence_rate_probe(GoalView(d, 3), drew) == 0.0


def test_loss_surface_scan_rows():
    grid = np.linspace(0.2, 1.4, 5)
    rows = loss_surface_scan(grid, grid)
    assert rows.shape == (25, 4)
    for t1, t2, lam, nll in rows:
        want = np.exp(-t1) + np.exp(-t2)
        assert abs(lam - want) < 1e-10
        if want > 1.0 + 1e-6:
            assert np.isinf(nll)
        elif want < 1.0 - 1e-6:
            assert np.isfinite(nll) and nll > 0.0


def test_scan_diagonal_and_symmetry():
    diag = np.array([0.8, 1.0, 1.4, 2.0])
    rows = loss_surface_scan(diag, diag)
    key = lambda a, b: (round(float(a), 6), round(float(b), 6))
    lam = {key(r[0], r[1]): r[2] for r in rows}
    nll = {key(r[0], r[1]): r[3] for r in rows}
    # pricing the loop edges higher drains the circulating mass
    lams = [lam[key(t, t)] for t in diag]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    # the two demo paths are mirror images, so the surface is symmetric
    for a in diag:
        for b in diag:
            assert lam[key(a, b)] == lam[key(b, a)]
            assert nll[key(a, b)] == nll[key(b, a)]
    # likelihood is finite on the feasible grid and has an interior optimum:
    # cheap loops waste mass, expensive loops starve the demos' own edges
    vals = [nll[key(t, t)] for t in diag]
    assert all(np.isfinite(v) for v in vals)
    assert np.argmin(vals) == 2


def test_spectral_report_fields():
    g = gen_two_state_loop()
    rep = dominant_eigenvalue(GoalView(g, 2), two_state_loop_rewards(g, 1.0, 1.0))
    assert isinstance(rep, SpectralReport)
    assert rep.iterations >= 1
    assert len(rep.upper_bounds) == 2


def test_dominant_eigenvalue_matches_scipy_reference_bitwise():
    graphs = [gen_gridworld(10, 10, feature_spec="random", rng_seed=11),
              gen_random_graph(30, rng_seed=5, extra_edges=40)]
    for gi, g in enumerate(graphs):
        rng = np.random.default_rng(gi)
        rew = edge_rewards(LinearReward(-rng.uniform(0.9, 1.8, size=g.feature_dim)), g)
        for dest in (0, g.num_nodes // 2 + 3):
            gv = GoalView(g, dest)
            for temperature in (1.0, 0.6):
                rep = dominant_eigenvalue(gv, rew, temperature=temperature)
                shift = min(1.0, *cheap_bounds(gv, rew, temperature))
                want = scipy_dominant_eigenvalue(gv, rew, shift,
                                                 temperature=temperature)
                assert rep.iterations > 0
                assert (rep.lambda_max, rep.iterations, rep.converged) == want, \
                    (gi, dest, temperature)
