import numpy as np
import pytest

from routeirl import (
    Trajectory,
    ValidationError,
    compress_graph,
    compress_trajectory,
    gen_gridworld,
    gen_random_graph,
    load_graph,
    load_merge_map,
    load_trajectories,
    save_graph,
    save_merge_map,
    save_trajectories,
)


def test_graph_round_trip_bitwise(tmp_path):
    for seed in range(4):
        g = gen_random_graph(14, rng_seed=seed)
        p = tmp_path / f"g{seed}.txt"
        save_graph(g, p)
        h = load_graph(p)
        assert h.num_nodes == g.num_nodes and h.num_edges == g.num_edges
        assert np.array_equal(h.edge_src, g.edge_src)
        assert np.array_equal(h.edge_dst, g.edge_dst)
        assert np.array_equal(h.features, g.features)   # repr round-trip is exact
        assert np.array_equal(h.coords, g.coords)


def test_graph_round_trip_keeps_connectors(tmp_path):
    g = gen_gridworld(4, 4, segments_per_block=2)
    comp, mmap = compress_graph(g, 3)
    save_graph(comp, tmp_path / "c.txt")
    save_merge_map(mmap, tmp_path / "c.map")
    mm = load_merge_map(tmp_path / "c.map")
    h = load_graph(tmp_path / "c.txt", merge_map=mm)
    assert np.array_equal(h.connector_flags, comp.connector_flags)
    assert np.array_equal(h.features, comp.features)
    for e in range(comp.num_edges):
        assert mm.expand_edges([e]) == mmap.expand_edges([e])


def test_trajectory_round_trip(tmp_path):
    g = gen_gridworld(5, 5)
    trajs = [
        Trajectory.from_nodes(g, [0, 1, 2, 7]),
        Trajectory.from_nodes(g, [24, 23, 18]),
    ]
    p = tmp_path / "t.txt"
    save_trajectories(trajs, p)
    back = load_trajectories(p, g)
    assert back == trajs


def test_load_graph_rejects_malformed(tmp_path):
    good = tmp_path / "ok.txt"
    save_graph(gen_gridworld(2, 2), good)

    def corrupt(repl, name):
        text = good.read_text().splitlines()
        out = tmp_path / name
        out.write_text("\n".join(repl(text)) + "\n")
        return out

    p = corrupt(lambda ls: ls + ["X 1 2 3"], "bad_tag.txt")
    with pytest.raises(ValidationError):
        load_graph(p)
    p = corrupt(lambda ls: [l for l in ls if not l.startswith("N 0 ")], "gap.txt")
    with pytest.raises(ValidationError):
        load_graph(p)
    p = corrupt(lambda ls: ls + ["E 99 0 1 1.0 1.0"], "edge_gap.txt")
    with pytest.raises(ValidationError):
        load_graph(p)
    p = corrupt(lambda ls: [l.replace("N 0", "N zero", 1) for l in ls], "nan_id.txt")
    with pytest.raises(ValidationError):
        load_graph(p)


def test_load_trajectories_validates_against_graph(tmp_path):
    g = gen_gridworld(3, 3)
    p = tmp_path / "t.txt"
    p.write_text("0 1 2\n0 99\n")
    with pytest.raises(ValidationError):
        load_trajectories(p, g)
    p.write_text("0 4\n")  # 0 and 4 are not adjacent in a 3x3 grid
    with pytest.raises(ValidationError):
        load_trajectories(p, g)


def test_merge_map_file_is_plain_records(tmp_path):
    g = gen_gridworld(3, 3, segments_per_block=2)
    comp, mmap = compress_graph(g, 3)
    p = tmp_path / "m.txt"
    save_merge_map(mmap, p)
    for ln in p.read_text().splitlines():
        parts = ln.split()
        assert parts[0] in ("M", "I")
        assert all(tok.lstrip("-").isdigit() for tok in parts[1:])
    assert load_merge_map(p) == mmap
    bad = tmp_path / "bad.txt"
    bad.write_text("M x y\n")
    with pytest.raises(ValidationError):
        load_merge_map(bad)
    with pytest.raises(FileNotFoundError):
        load_merge_map(tmp_path / "missing.txt")


def test_merge_map_round_trip_compresses_alike(tmp_path):
    g = gen_gridworld(4, 4, segments_per_block=2)
    demo = Trajectory.from_nodes(g, [0, 16, 1, 20, 2])
    comp, mmap = compress_graph(g, 3, protected=[0, 2])
    p = tmp_path / "m.txt"
    save_merge_map(mmap, p)
    loaded = load_merge_map(p)
    assert loaded == mmap
    assert compress_trajectory(demo, loaded, comp) == compress_trajectory(demo, mmap, comp)
    # files with expansion records only still load, with no node image
    p.write_text("".join(ln + "\n" for ln in p.read_text().splitlines()
                         if ln.startswith("M")))
    old = load_merge_map(p)
    assert old.edge_expansion == mmap.edge_expansion and old.node_image == {}
    with pytest.raises(ValidationError):
        compress_trajectory(demo, old, comp)
    for bad in ("I 1\n", "I 1 2 3\n", "I x 2\n"):
        p.write_text(bad)
        with pytest.raises(ValidationError):
            load_merge_map(p)
