from dataclasses import fields
from itertools import product

import numpy as np
import pytest

from routeirl import (
    MergeMap,
    RoadGraph,
    Trajectory,
    ValidationError,
    build_graph,
    compress_graph,
    compress_trajectory,
    expand_trajectory,
    extract_subgraph,
    gen_gridworld,
    gen_random_graph,
    gen_two_state_loop,
    load_merge_map,
    merge_chains,
    save_merge_map,
    split_high_degree,
    two_state_loop_rewards,
)
from oracles import (blocked_chain_graph, enumerate_simple_paths, gen_gridworld_records,
                     gen_random_graph_records, gen_two_state_loop_records, slot_layout,
                     walk_reward)


def test_build_graph_slot_layout():
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)]
    # deliberately shuffled ids; slot order must come out (target, edge id)
    edges = [(2, 0, 1, [1.0]), (0, 0, 2, [2.0]), (1, 0, 1, [3.0]), (3, 1, 2, [1.0])]
    g = build_graph(nodes, edges)
    assert g.num_nodes == 3 and g.num_edges == 4
    assert g.max_out_degree == 3
    # row 0: targets 1 (edges 1 then 2) then 2 (edge 0)
    row_edges = [e for e in g.slot_edge[0] if e >= 0]
    row_targets = [t for t, e in zip(g.slot_target[0], g.slot_edge[0]) if e >= 0]
    assert row_edges == [1, 2, 0]
    assert row_targets == [1, 1, 2]
    assert g.edges_between(0, 1) == [1, 2]
    assert list(g.out_degree) == [3, 1, 0]
    assert list(g.in_degree) == [0, 2, 2]
    # edge_slot inverts slot_edge
    for e in range(g.num_edges):
        s = int(g.edge_src[e])
        assert g.slot_edge[s, g.edge_slot[e]] == e


def assert_same_graph(g: RoadGraph, ref: RoadGraph) -> None:
    """Every field equal: the counts, and each array's dtype, shape and bytes."""
    for f in fields(RoadGraph):
        a, b = getattr(g, f.name), getattr(ref, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def test_generators_equal_their_record_built_references():
    for width, height, spec, k, d, seed in product(range(1, 7), range(1, 7),
                                                   ("constant", "random"), range(1, 5),
                                                   range(4), (0, 5)):
        kw = dict(feature_spec=spec, rng_seed=seed, feature_dim=d, segments_per_block=k)
        assert_same_graph(gen_gridworld(width, height, **kw),
                          gen_gridworld_records(width, height, **kw))
    assert gen_gridworld(1, 1).features.shape == (0, 0)
    for n in range(2, 61):
        for extra in (None, 0, 3, 4 * n):
            kw = dict(feature_dim=n % 4, rng_seed=n, extra_edges=extra)
            assert_same_graph(gen_random_graph(n, **kw), gen_random_graph_records(n, **kw))
    assert_same_graph(gen_two_state_loop(), gen_two_state_loop_records())


def test_slot_layout_matches_per_node_lists():
    # parallel edges, self-loops, isolated nodes and edgeless graphs
    for seed in range(200):
        rng = np.random.default_rng(seed)
        S = int(rng.integers(1, 10))
        E = 0 if seed % 10 == 0 else int(rng.integers(1, 3 * S + 2))
        src, dst = rng.integers(0, S, size=E), rng.integers(0, S, size=E)
        edges = [(e, int(src[e]), int(dst[e]), [1.0]) for e in rng.permutation(E)]
        g = build_graph([(s, 0.0, 0.0) for s in range(S)], edges)
        slot_target, slot_edge, V = slot_layout(S, src, dst)
        assert g.max_out_degree == V
        assert np.array_equal(g.slot_target, slot_target)
        assert np.array_equal(g.slot_edge, slot_edge)


def test_build_graph_validation():
    two = [(0, 0, 0), (1, 0, 0)]
    with pytest.raises(ValidationError, match="at least one node"):
        build_graph([], [])
    with pytest.raises(ValidationError, match="node ids must be exactly"):
        build_graph([(0, 0, 0), (2, 0, 0)], [])  # node id gap
    with pytest.raises(ValidationError, match=r"edge 0 references missing node \(0->5\)"):
        build_graph([(0, 0, 0)], [(0, 0, 5, [1.0])])
    with pytest.raises(ValidationError, match="edge ids must be exactly"):
        build_graph(two, [(0, 0, 1, [1.0]), (2, 1, 0, [1.0])])  # edge id gap
    with pytest.raises(ValidationError, match="edge 1 has 2 features, expected 1"):
        build_graph(two, [(0, 0, 1, [1.0]), (1, 1, 0, [1.0, 2.0])])
    with pytest.raises(ValidationError, match="edge 0 has negative or non-finite features"):
        build_graph(two, [(0, 0, 1, [-1.0])])
    with pytest.raises(ValidationError, match="edge 1 has negative or non-finite features"):
        build_graph(two, [(0, 0, 1, [1.0]), (1, 1, 0, [np.nan])])
    with pytest.raises(ValidationError, match="connector edges must carry all-zero features"):
        build_graph(two, [(0, 0, 1, [0.0]), (1, 1, 0, [2.0])], connector_edge_ids=[0, 1])
    with pytest.raises(ValidationError, match="connector flag references missing edge 3"):
        build_graph(two, [(0, 0, 1, [0.0]), (1, 1, 0, [2.0])], connector_edge_ids=[0, 3])


def test_trajectory_resolution():
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0)]
    edges = [(0, 0, 1, [2.0]), (1, 0, 1, [1.0])]
    g = build_graph(nodes, edges)
    t = Trajectory.from_nodes(g, [0, 1])
    assert t.edges == (0,)  # parallel edges resolve to the smallest id
    t.validate(g)
    with pytest.raises(ValidationError):
        Trajectory.from_nodes(g, [1, 0])  # no such edge
    with pytest.raises(ValidationError):
        Trajectory(nodes=(0,), edges=())
    with pytest.raises(ValidationError):
        Trajectory(nodes=(0, 1, 0, 1), edges=(0, 1, 0)).validate(g)


def test_gridworld_structure():
    for w, h in [(2, 2), (4, 3), (6, 6)]:
        g = gen_gridworld(w, h)
        streets = (w - 1) * h + w * (h - 1)
        assert g.num_nodes == w * h
        assert g.num_edges == 2 * streets
        assert g.max_out_degree <= 4
        assert np.all(g.features == 1.0)
        assert not g.connector_flags.any()
    # random features are deterministic under the seed and stay in range
    a = gen_gridworld(5, 5, feature_spec="random", rng_seed=3)
    b = gen_gridworld(5, 5, feature_spec="random", rng_seed=3)
    assert np.array_equal(a.features, b.features)
    assert np.all((a.features >= 0.5) & (a.features <= 1.5))
    with pytest.raises(ValidationError):
        gen_gridworld(0, 4)
    with pytest.raises(ValidationError):
        gen_gridworld(3, 3, feature_spec="fancy")


def test_gridworld_segments():
    base = gen_gridworld(4, 4)
    for k in (2, 3):
        g = gen_gridworld(4, 4, segments_per_block=k)
        assert g.num_nodes == base.num_nodes + (k - 1) * base.num_edges
        assert g.num_edges == k * base.num_edges
        mids = np.arange(base.num_nodes, g.num_nodes)
        assert np.all(g.out_degree[mids] == 1)
        assert np.all(g.in_degree[mids] == 1)
    # power-of-two segment counts keep the feature split bitwise exact
    g2 = gen_gridworld(4, 4, segments_per_block=2)
    assert np.all(g2.features == 0.5)


def test_two_state_loop_fixture():
    g = gen_two_state_loop()
    assert g.num_nodes == 3 and g.num_edges == 7
    assert g.feature_dim == 3
    r = two_state_loop_rewards(g, 0.25, 1.75)
    assert list(r) == [-0.25, -0.25, -1.75, -1.75, -1.0, -1.0, 0.0]


def test_split_high_degree_caps_and_preserves_paths():
    for seed in range(6):
        g = gen_random_graph(12, rng_seed=seed, extra_edges=30)
        assert g.max_out_degree > 3  # otherwise the case is vacuous
        split, mmap = split_high_degree(g, 3)
        assert split.max_out_degree <= 3
        assert np.all(split.features[split.connector_flags] == 0.0)
        # original edge ids survive in place with identical features
        assert np.array_equal(split.features[:g.num_edges], g.features)
        # path reward multisets between original nodes are bitwise unchanged
        # (connectors contribute exactly 0.0)
        rng = np.random.default_rng(seed)
        w = -rng.uniform(0.2, 1.0, size=g.feature_dim)
        rew_g = g.features @ w
        rew_s = split.features @ w
        for _ in range(4):
            o, d = rng.choice(g.num_nodes, size=2, replace=False)
            before = sorted(walk_reward(rew_g, p)
                            for p in enumerate_simple_paths(g, int(o), int(d)))
            after = sorted(walk_reward(rew_s, p)
                           for p in enumerate_simple_paths(split, int(o), int(d)))
            assert before == after


def test_split_round_trips_trajectories():
    g = gen_random_graph(10, rng_seed=1, extra_edges=25)
    split, mmap = split_high_degree(g, 3)
    rng = np.random.default_rng(0)
    rew = g.features @ -rng.uniform(0.2, 1.0, size=g.feature_dim)
    for _ in range(10):
        o, d = rng.choice(g.num_nodes, size=2, replace=False)
        paths = enumerate_simple_paths(g, int(o), int(d))
        if not paths:
            continue
        edges = paths[rng.integers(len(paths))]
        nodes = [int(o)] + [int(g.edge_dst[e]) for e in edges]
        traj = Trajectory(nodes=tuple(nodes), edges=tuple(int(e) for e in edges))
        ctraj = compress_trajectory(traj, mmap, split)
        back = expand_trajectory(ctraj, mmap, g)
        assert back == traj
        # compressed edges expand to exactly the original edge sequence
        assert mmap.expand_edges(ctraj.edges) == traj.edges


def test_merge_chains_basic():
    # chain 4 -> 0 -> 1 -> 2 -> 3 anchored by branching node 4
    nodes = [(i, float(i), 0.0) for i in range(5)]
    edges = [
        (0, 0, 1, [1.0]),
        (1, 1, 2, [2.0]),
        (2, 2, 3, [4.0]),
        (3, 4, 0, [8.0]),
        (4, 4, 3, [16.0]),
    ]
    g = build_graph(nodes, edges)
    merged, mmap = merge_chains(g)
    assert merged.num_nodes == 2  # only 4 and 3 survive
    feats = sorted(float(f[0]) for f in merged.features)
    assert feats == [15.0, 16.0]  # chain features summed exactly
    # protecting an interior node stops the merge there
    merged2, mmap2 = merge_chains(g, protected=[2])
    assert merged2.num_edges == 3  # merged 4->2, plus surviving 2->3 and 4->3
    assert 2 in mmap2.node_image
    feats2 = sorted(float(f[0]) for f in merged2.features)
    assert feats2 == [4.0, 11.0, 16.0]


def test_merge_chains_drops_unanchored_runs():
    # a pure path with no branching entry has no demand anchors at all;
    # the orphan sweep removes it entirely unless endpoints are protected
    nodes = [(i, float(i), 0.0) for i in range(4)]
    edges = [(i, i, i + 1, [1.0]) for i in range(3)]
    g = build_graph(nodes, edges)
    merged, _ = merge_chains(g)
    assert merged.num_edges == 0
    merged2, mmap2 = merge_chains(g, protected=[0, 3])
    assert merged2.num_edges == 1
    assert float(merged2.features[0, 0]) == 3.0
    assert 0 in mmap2.node_image and 3 in mmap2.node_image


def test_merge_chains_leaves_cycles_alone():
    # pure directed ring: every node single-out, no entry point
    nodes = [(i, float(i), 0.0) for i in range(4)]
    edges = [(i, i, (i + 1) % 4, [1.0]) for i in range(4)]
    g = build_graph(nodes, edges)
    merged, _ = merge_chains(g)
    assert merged.num_edges == g.num_edges
    assert merged.num_nodes == g.num_nodes


def test_merge_chains_keeps_a_node_that_is_still_entered():
    # merging 2->0->1 alone would strand the surviving edge 1->0
    g = blocked_chain_graph()
    merged, mmap = merge_chains(g)
    assert merged.num_nodes == 3
    assert mmap.edge_expansion == [(e,) for e in range(g.num_edges)]
    assert np.array_equal(merged.features, g.features)
    comp, cmap = compress_graph(g, 2)
    assert comp.num_nodes == 3 and cmap.node_image == {0: 0, 1: 1, 2: 2}


def test_merge_respects_protected_endpoints():
    g = gen_gridworld(3, 3, segments_per_block=2)
    mids = [s for s in range(9, g.num_nodes)]
    # protect one interior segment node: the two segments around it survive
    keep = mids[0]
    merged, mmap = merge_chains(g, protected=[keep])
    assert keep in mmap.node_image
    # unprotected merge removes every mid node
    merged_all, mmap_all = merge_chains(g)
    assert merged_all.num_nodes == 9
    assert all(m not in mmap_all.node_image for m in mids)


def test_compress_graph_on_subdivided_grid():
    g = gen_gridworld(5, 5, segments_per_block=2)
    comp, mmap = compress_graph(g, 4)
    # chain merging undoes the subdivision exactly: features were split /2
    assert comp.num_nodes == 25
    assert np.all(np.isin(comp.features[~comp.connector_flags], (1.0,)))
    sv_before = g.num_nodes * g.max_out_degree
    sv_after = comp.num_nodes * comp.max_out_degree
    assert sv_after < sv_before


def test_compress_trajectory_needs_endpoint_protection():
    g = gen_gridworld(3, 3, segments_per_block=2)
    mid = 9  # first subdivision node
    comp, mmap = compress_graph(g, 4)
    nxt = int(g.slot_target[mid, 0])
    eid = int(g.slot_edge[mid, 0])
    traj = Trajectory(nodes=(mid, nxt), edges=(eid,))
    with pytest.raises(ValidationError):
        compress_trajectory(traj, mmap, comp)
    comp2, mmap2 = compress_graph(g, 4, protected=[mid, nxt])
    ctraj = compress_trajectory(traj, mmap2, comp2)
    assert expand_trajectory(ctraj, mmap2, g) == traj


def test_compress_trajectory_rejects_a_mismatched_map():
    # connectors that form a loop can only come from a map paired with the
    # wrong graph; the walk must stop rather than circle
    g = build_graph([(i, float(i), 0.0) for i in range(3)],
                    [(0, 0, 1, [0.0]), (1, 1, 0, [0.0]), (2, 2, 0, [1.0])],
                    connector_edge_ids=[0, 1])
    mmap = MergeMap(edge_expansion=[(), (), (0,)], node_image={0: 0})
    with pytest.raises(ValidationError):
        compress_trajectory(Trajectory(nodes=(0, 1), edges=(0,)), mmap, g)


def _with_parallel_edges(g, rng):
    """g plus a parallel copy, with fresh features, of a quarter of its edges,
    and a self-loop on one node."""
    nodes = [(s, g.coords[s, 0], g.coords[s, 1]) for s in range(g.num_nodes)]
    edges = [(e, int(g.edge_src[e]), int(g.edge_dst[e]), g.features[e])
             for e in range(g.num_edges)]
    for e in rng.choice(g.num_edges, size=g.num_edges // 4, replace=False):
        edges.append((len(edges), int(g.edge_src[e]), int(g.edge_dst[e]),
                      rng.uniform(0.5, 2.0, size=g.feature_dim)))
    s = int(rng.integers(g.num_nodes))
    edges.append((len(edges), s, s, rng.uniform(0.5, 2.0, size=g.feature_dim)))
    return build_graph(nodes, edges)


def _random_walk(g, rng, origin, keep):
    """A loop-free random walk from origin, cut back to its last node in keep."""
    nodes, edges = [origin], []
    for _ in range(12):
        out = g.out_edges(nodes[-1])
        e = out[int(rng.integers(len(out)))] if out else None
        if e is None or int(g.edge_dst[e]) in nodes:
            break
        nodes.append(int(g.edge_dst[e]))
        edges.append(e)
    while edges and nodes[-1] not in keep:
        nodes.pop()
        edges.pop()
    return Trajectory(nodes=tuple(nodes), edges=tuple(edges)) if edges else None


def test_compression_on_generated_graphs(tmp_path):
    cases = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 10
        g = gen_random_graph(n, rng_seed=seed, extra_edges=seed % 7)
        if seed % 3 == 0:
            g = _with_parallel_edges(g, rng)
        protected = ([int(p) for p in rng.choice(n, size=n // 3, replace=False)]
                     if seed % 2 else [])
        comp, mmap = compress_graph(g, 2 + seed % 3, protected=protected)
        assert set(protected) <= set(mmap.node_image)
        # the map file reads back into the same map
        save_merge_map(mmap, tmp_path / "m.txt")
        loaded = load_merge_map(tmp_path / "m.txt")
        assert loaded == mmap
        # path rewards between surviving nodes are kept, as a multiset
        w = -rng.uniform(0.2, 1.0, size=g.feature_dim)
        rew_g, rew_c = g.features @ w, comp.features @ w
        if n <= 8:
            for o in mmap.node_image:
                for d in mmap.node_image:
                    before = sorted(walk_reward(rew_g, p)
                                    for p in enumerate_simple_paths(g, o, d))
                    after = sorted(walk_reward(rew_c, p) for p in enumerate_simple_paths(
                        comp, mmap.node_image[o], mmap.node_image[d]))
                    assert len(before) == len(after)
                    assert np.allclose(before, after, rtol=1e-12, atol=1e-12)
        # paths between surviving nodes compress, and expand back exactly
        for o in rng.choice(sorted(mmap.node_image), size=5):
            traj = _random_walk(g, rng, int(o), mmap.node_image)
            if traj is None:
                continue
            ctraj = compress_trajectory(traj, mmap, comp)
            assert compress_trajectory(traj, loaded, comp) == ctraj
            assert expand_trajectory(ctraj, mmap, g) == traj
            cases += 1
    assert cases >= 100


def test_extract_subgraph_membership():
    g = gen_gridworld(4, 4)
    cell = [0, 1, 4, 5]
    sub, node_ids, edge_ids = extract_subgraph(g, cell)
    # every kept edge touches the cell; boundary nodes ride along
    for i, e in enumerate(edge_ids):
        assert int(g.edge_src[e]) in set(node_ids) and int(g.edge_dst[e]) in set(node_ids)
        assert int(g.edge_src[e]) in cell or int(g.edge_dst[e]) in cell
        li = {int(n): k for k, n in enumerate(node_ids)}
        assert li[int(g.edge_src[e])] == int(sub.edge_src[i])
        assert np.array_equal(sub.features[i], g.features[e])
    assert set(cell) <= set(int(n) for n in node_ids)
    for bad in ([-1], [16]):
        with pytest.raises(ValidationError, match="cell references a node not in the graph"):
            extract_subgraph(g, bad)


def test_random_graph_is_strongly_connected():
    for seed in range(5):
        g = gen_random_graph(17, rng_seed=seed)
        # BFS both directions from node 0
        fwd = {int(g.edge_src[e]): [] for e in range(g.num_edges)}
        for e in range(g.num_edges):
            fwd.setdefault(int(g.edge_src[e]), []).append(int(g.edge_dst[e]))
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for t in fwd.get(u, []):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        assert seen == set(range(g.num_nodes))
    a = gen_random_graph(17, rng_seed=2)
    b = gen_random_graph(17, rng_seed=2)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.edge_src, b.edge_src)
