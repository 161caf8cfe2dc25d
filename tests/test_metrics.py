"""Route-prediction metrics and the two-proportion z test."""
import math

import numpy as np
import pytest

from routeirl import (LinearReward, Trajectory, ValidationError, build_graph,
                      compress_graph, compress_trajectory, gen_gridworld,
                      gen_two_state_loop, two_state_loop_rewards)
from routeirl.algorithms import sample_demonstrations
from routeirl.metrics import Metrics, diff_of_proportions, evaluate


def fork_graph():
    """0->1->2->3 plus a shortcut 1->3; the long way is cheaper."""
    nodes = [(i, float(i), 0.0) for i in range(4)]
    edges = [
        (0, 0, 1, [1.0]),
        (1, 1, 2, [1.0]),
        (2, 2, 3, [1.0]),
        (3, 1, 3, [1.0]),
    ]
    return build_graph(nodes, edges)


def test_exact_match_and_iou_on_hand_graph():
    g = fork_graph()
    rew = np.array([-0.1, -0.1, -0.1, -0.5])
    # greedy prediction for 0->3 takes the long way: -0.3 beats -0.6
    match = Trajectory(nodes=(0, 1, 2, 3), edges=(0, 1, 2))
    partial = Trajectory(nodes=(0, 1, 3), edges=(0, 3))
    m = evaluate(rew, [match, partial], g)
    assert m.n == 2
    assert m.unreachable == 0
    assert m.acc == 0.5
    # partial demo shares edge 0 of union {0,1,2,3}
    assert m.iou == pytest.approx(0.5 * (1.0 + 0.25))
    assert m.nll is not None and m.nll > 0.0


def test_evaluate_input_validation():
    g = fork_graph()
    ok = Trajectory(nodes=(0, 1), edges=(0,))
    with pytest.raises(ValidationError):
        evaluate(np.zeros(4), [], g)
    with pytest.raises(ValidationError):
        evaluate(np.zeros(3), [ok], g)
    with pytest.raises(ValidationError):
        evaluate(np.full(4, -1.0), [ok], g, temperature=0.0)


def test_nll_omitted_when_backward_diverges():
    g = gen_two_state_loop()
    rew = two_state_loop_rewards(g, 0.1, 0.1)  # lambda = 2 e^-0.1 > 1
    demo = Trajectory(nodes=(0, 1, 2), edges=(1, 5))
    m = evaluate(rew, [demo], g)
    assert m.nll is None
    assert 0.0 <= m.acc <= 1.0 and 0.0 <= m.iou <= 1.0


def test_nll_skipped_on_request():
    g = fork_graph()
    demo = Trajectory(nodes=(0, 1, 3), edges=(0, 3))
    m = evaluate(np.full(4, -0.1), [demo], g, nll=False)
    assert m.nll is None
    assert m.acc == 1.0


def test_unreachable_origin_is_counted_not_scored():
    # one-way fan out of 0; nothing leaves node 1, so a demo claiming to
    # start there cannot be predicted for
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)]
    edges = [(0, 0, 1, [1.0]), (1, 0, 2, [1.0])]
    g = build_graph(nodes, edges)
    rew = np.array([-1.0, -0.5])
    severed = Trajectory(nodes=(1, 2), edges=(1,))
    ok = Trajectory(nodes=(0, 2), edges=(1,))
    m = evaluate(rew, [severed, ok], g, nll=False)
    assert m.unreachable == 1
    assert m.acc == 0.5
    assert m.iou == 0.5


def test_metrics_invariant_under_chain_compression():
    g = gen_gridworld(4, 4, feature_spec="random", rng_seed=3,
                      segments_per_block=2)
    model = LinearReward(np.array([-1.1, -0.6]))
    demos = sample_demonstrations(model, g, 6, rng_seed=7)
    protected = {d.origin for d in demos} | {d.destination for d in demos}
    gc, mmap = compress_graph(g, v_cap=8, protected=protected)
    assert gc.num_nodes < g.num_nodes
    cdemos = [compress_trajectory(d, mmap, gc) for d in demos]
    base = evaluate(model, demos, g)
    comp = evaluate(model, cdemos, gc, merge_map=mmap)
    assert comp.acc == base.acc
    assert comp.iou == pytest.approx(base.iou, abs=1e-12)
    # merged interior nodes had a single way out, so their steps carried no
    # likelihood and the demo NLL survives compression
    assert comp.nll == pytest.approx(base.nll, abs=1e-6)
    assert comp.unreachable == base.unreachable == 0


def test_diff_of_proportions_against_normal_tail():
    r = diff_of_proportions(0.5, 0.4, 1000)
    se = math.sqrt(0.45 * 0.55 * 2.0 / 1000.0)
    assert r.z == pytest.approx(0.1 / se, rel=1e-12)
    # erfc gives the two-sided tail independently of the scipy path
    assert r.p_value == pytest.approx(math.erfc(abs(r.z) / math.sqrt(2.0)),
                                      rel=1e-10)
    assert not r.degenerate
    flipped = diff_of_proportions(0.4, 0.5, 1000)
    assert flipped.z == -r.z
    assert flipped.p_value == r.p_value


def test_diff_of_proportions_equal_rates():
    r = diff_of_proportions(0.3, 0.3, 50)
    assert r.z == 0.0
    assert r.p_value == 1.0
    assert not r.degenerate


def test_diff_of_proportions_degenerate_and_validation():
    for p in (0.0, 1.0):
        r = diff_of_proportions(p, p, 10)
        assert r.degenerate
        assert r.z == 0.0 and r.p_value == 1.0
    # all-vs-nothing pools to 0.5 and is perfectly testable
    r = diff_of_proportions(1.0, 0.0, 5)
    assert not r.degenerate
    assert r.z == pytest.approx(1.0 / math.sqrt(0.1), rel=1e-12)
    with pytest.raises(ValidationError):
        diff_of_proportions(-0.1, 0.5, 10)
    with pytest.raises(ValidationError):
        diff_of_proportions(0.5, 1.2, 10)
    with pytest.raises(ValidationError):
        diff_of_proportions(0.5, 0.5, 0)


def test_metrics_to_dict():
    d = Metrics(acc=0.5, iou=0.75, nll=None, n=4, unreachable=1).to_dict()
    assert d == {"acc": 0.5, "iou": 0.75, "nll": None, "n": 4,
                 "unreachable": 1}
