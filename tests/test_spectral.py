import numpy as np
import pytest

from routeirl import (
    GoalView,
    LinearReward,
    ValidationError,
    build_graph,
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
from oracles import (core_dominant_eigenvalue, dense_b1_lambda, diamond_graph,
                     log_dominant_eigenvalue)


def _dense_cases():
    """25 seeded problems: small grids and random graphs, one destination each."""
    for seed in range(25):
        rng = np.random.default_rng(seed)
        if seed % 3 == 0:
            g = gen_gridworld(5, 6, rng_seed=seed)
        else:
            g = gen_random_graph(int(rng.integers(8, 28)), rng_seed=seed)
        w = -rng.uniform(0.05, 2.5, size=g.feature_dim)
        rew = edge_rewards(LinearReward(w), g)
        yield seed, GoalView(g, int(rng.integers(g.num_nodes))), rew


def test_dominant_eigenvalue_matches_dense_solver():
    for seed, gv, rew in _dense_cases():
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


def _bitwise_cases():
    """The reference tests' graphs: a random-feature grid and a random graph,
    two destinations each, at T = 1.0 and 0.6."""
    graphs = [gen_gridworld(10, 10, feature_spec="random", rng_seed=11),
              gen_random_graph(30, rng_seed=5, extra_edges=40)]
    for gi, g in enumerate(graphs):
        rng = np.random.default_rng(gi)
        rew = edge_rewards(LinearReward(-rng.uniform(0.9, 1.8, size=g.feature_dim)), g)
        for dest in (0, g.num_nodes // 2 + 3):
            for temperature in (1.0, 0.6):
                yield (gi, dest, temperature), GoalView(g, dest), rew, temperature


def test_dominant_eigenvalue_matches_scipy_reference_bitwise():
    for case, gv, rew, temperature in _bitwise_cases():
        rep = dominant_eigenvalue(gv, rew, temperature=temperature)
        assert rep.upper_bounds == cheap_bounds(gv, rew, temperature)
        shift = min(1.0, *rep.upper_bounds)
        want = core_dominant_eigenvalue(gv, rew, shift, temperature=temperature)
        assert rep.iterations > 0
        assert (rep.lambda_max, rep.iterations, rep.converged) == want, case


def test_dominant_eigenvalue_agrees_with_the_log_domain_iteration():
    # the log-space power iteration over all of B1 that the core iteration
    # replaced: same bounds and classification, lambda to 1e-8 relative
    cases = list(_bitwise_cases())
    cases += [(seed, gv, rew, 1.0) for seed, gv, rew in _dense_cases()]
    g = gen_gridworld(20, 20, feature_spec="random", rng_seed=1)  # lambda about 0.94
    rew = edge_rewards(LinearReward(np.array([-0.77, -0.77])), g)
    cases += [(("grid", dest), GoalView(g, dest), rew, 1.0) for dest in (0, 210, 294)]
    for case, gv, rew, temperature in cases:
        rep = dominant_eigenvalue(gv, rew, temperature=temperature)
        assert rep.upper_bounds == cheap_bounds(gv, rew, temperature)
        lam, _, converged = log_dominant_eigenvalue(
            gv, rew, min(1.0, *rep.upper_bounds), temperature=temperature)
        assert rep.converged and converged, case
        assert rep.classification == classify(lam), case
        assert abs(rep.lambda_max - lam) <= 1e-8 * max(1.0, lam), (case, rep.lambda_max, lam)


def _feeder_graph():
    """0 feeds the two-cycle 1 <-> 2 by edge 0; 0 and 2 exit to 3."""
    nodes = [(i, float(i), 0.0) for i in range(4)]
    pairs = [(0, 1), (1, 2), (2, 1), (0, 3), (2, 3)]
    return build_graph(nodes, [(e, u, v, [1.0]) for e, (u, v) in enumerate(pairs)])


def _ring_graph():
    """A 10-ring 0 -> 1 -> ... -> 9 -> 0 by edges 0-9; node i exits to 10 by
    edge 10 + i."""
    nodes = [(i, float(i), 0.0) for i in range(11)]
    edges = [(i, i, (i + 1) % 10, [1.0]) for i in range(10)]
    return build_graph(nodes, edges + [(10 + i, i, 10, [1.0]) for i in range(10)])


def test_a_heavy_edge_into_a_cycle_does_not_hide_it():
    # lambda is the two-cycle's e^0.5; scaled by the feeder's weight e^r the
    # cycle's weights would underflow and read lambda 0, Feasible
    g = _feeder_graph()
    for r in (300.0, 700.0, 800.0):
        rep = dominant_eigenvalue(GoalView(g, 3), np.array([r, 0.5, 0.5, 0.0, 0.0]))
        assert rep.classification == INFEASIBLE, r
        assert rep.converged
        assert abs(rep.lambda_max - np.exp(0.5)) < 1e-9, (r, rep.lambda_max)
    # e^800 overflows: the row bound reads +inf, with no overflow warning
    # (an error under the test settings)
    assert cheap_bounds(GoalView(g, 3), np.array([800.0, 0.5, 0.5, 0.0, 0.0]))[0] == np.inf


def test_a_cycle_beyond_float_range_raises():
    # a 10-ring, +s on five consecutive edges and -s on the other five (plus
    # 0.01 each, so lambda = e^0.01); every ring node exits to node 10.  From
    # s of about 121 the scaled iterate sinks into subnormals around the ring,
    # which hold less than tol of it (at 122-124 it read a wrong lambda, at
    # 124 Feasible), and past about 745 the shift underflows against the
    # largest weight
    gv = GoalView(_ring_graph(), 10)

    def ring(s):
        return np.concatenate([np.full(5, s), np.full(5, -s), np.zeros(10)]) + 0.01

    for s in (1.0, 60.0, 120.0):
        rep = dominant_eigenvalue(gv, ring(s))
        assert rep.converged
        assert abs(rep.lambda_max - np.exp(0.01)) < 1e-8, (s, rep.lambda_max)
    for s in range(121, 131):  # right or raised, never a wrong lambda
        try:
            rep = dominant_eigenvalue(gv, ring(float(s)))
        except ValidationError as err:
            assert "float range" in str(err)
            continue
        assert rep.converged
        assert abs(rep.lambda_max - np.exp(0.01)) < 1e-8, (s, rep.lambda_max)
    for s in (150.0, 400.0, 800.0):
        with pytest.raises(ValidationError, match="float range"):
            dominant_eigenvalue(gv, ring(s))


def test_weights_far_below_one_read_feasible_without_overflow():
    # lambda about e^-720: the core's weights are subnormal, and on the
    # feeder the bounds (so the shift) are 1, which e^720 times overflows
    grid = gen_gridworld(8, 8, feature_spec="random", rng_seed=2)
    cases = [(GoalView(_feeder_graph(), 3), np.array([0.0, -720.0, -720.0, 0.0, 0.0]), 1.0),
             (GoalView(_ring_graph(), 10), np.full(20, -720.0), 1.0),
             (GoalView(grid, 5), np.full(grid.num_edges, -7.2), 0.01)]
    for gv, rew, temperature in cases:
        rep = dominant_eigenvalue(gv, rew, temperature=temperature)
        assert rep.classification == FEASIBLE and rep.converged
        assert rep.lambda_max < 1e-300, rep


def test_dominant_eigenvalue_rejects_an_iteration_cap_below_one():
    g = gen_two_state_loop()
    rew = two_state_loop_rewards(g, 1.0, 1.0)
    for bad in (0, -4):
        with pytest.raises(ValidationError, match="max_iters"):
            dominant_eigenvalue(GoalView(g, 2), rew, max_iters=bad)
    rep = dominant_eigenvalue(GoalView(g, 2), rew, max_iters=1)
    assert (rep.iterations, rep.converged) == (1, False)


def test_spectral_functions_check_the_table_length():
    # a 4x4 grid has 48 edges; a short table used to raise IndexError and a
    # long one was read silently
    g = gen_gridworld(4, 4)
    gv = GoalView(g, 5)
    for n in (g.num_edges - 3, g.num_edges + 2):
        rew = -np.ones(n)
        with pytest.raises(ValidationError, match="reward table length != edge count"):
            cheap_bounds(gv, rew)
        with pytest.raises(ValidationError, match="reward table length != edge count"):
            dominant_eigenvalue(gv, rew)
