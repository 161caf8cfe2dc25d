import numpy as np
import pytest

from routeirl import (
    CompositeReward,
    DenseNetReward,
    LinearReward,
    SparsePerEdgeReward,
    ValidationError,
    backprop,
    edge_rewards,
    export_reward_table,
    gen_gridworld,
    gen_random_graph,
    load_checkpoint,
    load_reward_table,
    project_nonpositive,
    save_checkpoint,
    split_high_degree,
)
from oracles import fd_gradient


def test_linear_reward_is_feature_dot():
    rng = np.random.default_rng(0)
    F = rng.uniform(0.0, 2.0, size=(20, 3))
    w = np.array([-0.5, -1.0, -0.25])
    m = LinearReward(w)
    assert np.array_equal(m.rewards(F), F @ w)
    res = rng.normal(size=20)
    assert np.allclose(m.grad_weighted(F, res), F.T @ res)
    assert m.num_params == 3
    m2 = LinearReward(np.array([0.5, -1.0, 0.0]))
    project_nonpositive(m2)
    assert list(m2.get_params()) == [0.0, -1.0, 0.0]


def test_clone_is_independent():
    m = LinearReward(np.array([-1.0, -2.0]))
    c = m.clone()
    c.set_params(np.array([-9.0, -9.0]))
    assert list(m.get_params()) == [-1.0, -2.0]


def test_edge_rewards_pins_connectors():
    g = gen_random_graph(12, rng_seed=3, extra_edges=30)
    split, _ = split_high_degree(g, 3)
    assert split.connector_flags.any()
    m = LinearReward(np.full(split.feature_dim, -1.0))
    r = edge_rewards(m, split)
    assert np.all(r[split.connector_flags] == 0.0)
    assert np.all(r[~split.connector_flags] < 0.0)


def test_dense_net_outputs_negative_and_matches_fd():
    rng = np.random.default_rng(1)
    F = rng.uniform(0.0, 2.0, size=(15, 2))
    m = DenseNetReward(2, width=5, depth=2, rng_seed=7)
    r = m.rewards(F)
    assert r.shape == (15,)
    assert np.all(r < 0.0)  # negated softplus head
    res = rng.normal(size=15)
    an = m.grad_weighted(F, res)

    def f(p):
        mm = DenseNetReward(2, width=5, depth=2, params=p)
        return float(res @ mm.rewards(F))

    fd = fd_gradient(f, m.get_params(), h=1e-6)
    assert np.max(np.abs(an - fd)) < 1e-7
    # same seed, same init
    assert np.array_equal(m.get_params(),
                          DenseNetReward(2, width=5, depth=2, rng_seed=7).get_params())


def test_sparse_per_edge_mapping():
    g = gen_random_graph(10, rng_seed=0, extra_edges=20)
    split, _ = split_high_degree(g, 3)
    base = -np.ones(split.num_edges)
    base[split.connector_flags] = 0.0
    m = SparsePerEdgeReward.for_graph(split, baseline=base)
    assert m.num_params == int((~split.connector_flags).sum())
    # zero params reproduce the baseline
    assert np.array_equal(m.rewards(split.features), base)
    p = m.get_params()
    p[0] = 0.75
    m.set_params(p)
    e0 = int(np.nonzero(m.param_index == 0)[0][0])
    assert m.rewards(split.features)[e0] == base[e0] + 0.75
    # a positive parameter may cancel the baseline but never push reward > 0
    p[0] = 1.8
    m.set_params(p)
    project_nonpositive(m)
    assert m.rewards(split.features)[e0] == 0.0
    with pytest.raises(ValidationError):
        SparsePerEdgeReward(4, baseline=np.array([0.0, 0.1, 0.0, 0.0]))


def test_sparse_l1_enters_backprop():
    g = gen_gridworld(3, 3)
    m = SparsePerEdgeReward.for_graph(g, l1_coeff=1e-3)
    p = m.get_params()
    p[:3] = [0.5, -0.5, 0.0]
    m.set_params(p)
    res = np.zeros(g.num_edges)
    grad = backprop(m, g, res)
    assert grad[0] == -1e-3 and grad[1] == 1e-3 and grad[2] == 0.0


def test_backprop_ignores_connector_residual():
    g = gen_random_graph(12, rng_seed=3, extra_edges=30)
    split, _ = split_high_degree(g, 3)
    m = LinearReward(np.full(split.feature_dim, -1.0))
    res = np.zeros(split.num_edges)
    res[split.connector_flags] = 5.0
    assert np.all(backprop(m, split, res) == 0.0)
    with pytest.raises(ValidationError):
        backprop(m, split, np.full(split.num_edges, np.nan))


def test_composite_concatenates():
    g = gen_gridworld(4, 4)
    lin = LinearReward(np.array([-1.0, -0.5]))
    sp = SparsePerEdgeReward.for_graph(g)
    comp = CompositeReward([lin, sp])
    assert comp.num_params == lin.num_params + sp.num_params
    r = edge_rewards(comp, g)
    assert np.allclose(r, edge_rewards(lin, g) + edge_rewards(sp, g))
    res = np.random.default_rng(2).normal(size=g.num_edges)
    grad = backprop(comp, g, res)
    assert np.allclose(grad[:2], backprop(lin, g, res))
    slices = comp.param_slices()
    kinds = [k for k, _ in slices]
    assert kinds == ["linear", "sparse"]
    assert slices[0][1] == slice(0, 2)
    assert slices[1][1] == slice(2, 2 + sp.num_params)


def test_checkpoint_round_trip(tmp_path):
    g = gen_gridworld(3, 3)
    models = [
        LinearReward(np.array([-1.25, -0.75])),
        DenseNetReward(2, width=4, depth=1, rng_seed=3),
        SparsePerEdgeReward.for_graph(g, baseline=-0.5 * np.ones(g.num_edges)),
        CompositeReward([LinearReward(np.array([-1.0, -1.0])),
                         SparsePerEdgeReward.for_graph(g)]),
    ]
    for i, m in enumerate(models):
        p = tmp_path / f"m{i}.ckpt"
        save_checkpoint(m, p, metadata={"tag": i})
        back, meta = load_checkpoint(p)
        assert meta["tag"] == i
        assert type(back) is type(m)
        assert np.array_equal(back.get_params(), m.get_params())
        assert np.array_equal(edge_rewards(back, g), edge_rewards(m, g))


def test_reward_table_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    table = -rng.uniform(0.0, 3.0, size=40)
    p = tmp_path / "r.txt"
    export_reward_table(table, p)
    back = load_reward_table(p)
    assert np.array_equal(back, table)  # repr() round-trips float64 exactly
    bad = tmp_path / "bad.txt"
    bad.write_text("0 -1.0\n2 -2.0\n")  # gap in ids
    with pytest.raises(ValidationError):
        load_reward_table(bad)
    bad.write_text("0 -1.0\n1 abc\n")
    with pytest.raises(ValidationError, match=r"bad.txt:2: bad reward record"):
        load_reward_table(bad)
    bad.write_text("0 -1.0\n0 -2.0\n1 -3.0\n")  # the last record used to win
    with pytest.raises(ValidationError, match=r"bad.txt:2: repeated edge record for id 0"):
        load_reward_table(bad)
