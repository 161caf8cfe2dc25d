import ast
import re
from pathlib import Path

import numpy as np
import pytest

import routeirl
from routeirl import (
    Trajectory,
    ValidationError,
    compress_graph,
    compress_trajectory,
    gen_gridworld,
    gen_random_graph,
    gen_two_state_loop,
    load_graph,
    load_merge_map,
    load_trajectories,
    save_graph,
    save_merge_map,
    save_trajectories,
)


def test_graph_round_trip_bitwise(tmp_path):
    graphs = [gen_random_graph(14, rng_seed=seed) for seed in range(4)]
    graphs += [gen_gridworld(1, 1), gen_gridworld(3, 2, "random", rng_seed=4),
               gen_gridworld(2, 3, segments_per_block=3, feature_dim=1),
               gen_random_graph(9, feature_dim=0, rng_seed=5), gen_two_state_loop()]
    for i, g in enumerate(graphs):
        p = tmp_path / f"g{i}.txt"
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


def test_double_compression_keeps_connectors(tmp_path):
    g = gen_random_graph(12, rng_seed=1, extra_edges=25)
    once, _ = compress_graph(g, 4)
    twice, mmap = compress_graph(once, 3)
    assert once.connector_flags.sum() == 2 and twice.connector_flags.sum() == 6
    p = tmp_path / "g.txt"
    save_graph(twice, p)
    for mm in (None, mmap):   # the map of the second round flags 4 of them
        h = load_graph(p, merge_map=mm)
        assert np.array_equal(h.connector_flags, twice.connector_flags)
    # files written before C records existed load as they used to
    old = tmp_path / "old.txt"
    old.write_text("".join(ln + "\n" for ln in p.read_text().splitlines()
                           if not ln.startswith("C ")))
    assert load_graph(old).connector_flags.sum() == 0
    assert load_graph(old, merge_map=mmap).connector_flags.sum() == 4


def test_trajectory_round_trip(tmp_path):
    g = gen_gridworld(5, 5)
    trajs = [
        Trajectory.from_nodes(g, [0, 1, 2, 7]),
        Trajectory.from_nodes(g, [24, 23, 18]),
    ]
    p = tmp_path / "t.txt"
    save_trajectories(trajs, p, g)
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


def test_merge_map_rejects_repeated_records(tmp_path):
    p = tmp_path / "m.txt"
    cases = {"M 0 1\nM 0 2\nM 1 3\n": (2, "M", 0),
             "M 0 1\nI 4 0\nI 5 0\nI 4 1\n": (4, "I", 4)}
    for text, (line, kind, key) in cases.items():
        p.write_text(text)
        msg = f"{p}:{line}: repeated {kind} record for id {key}"
        with pytest.raises(ValidationError, match=re.escape(msg)):
            load_merge_map(p)


def test_only_io_touches_files():
    # io.py owns every file format; other modules call it instead
    calls = {"open", "read_text", "write_text", "savetxt"}
    hits = []
    for path in sorted(Path(routeirl.__file__).parent.rglob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in calls:
                    hits.append((path.name, node.lineno, name))
            elif isinstance(node, ast.Import):
                hits += [(path.name, node.lineno, a.name) for a in node.names
                         if a.name == "csv"]
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                hits.append((path.name, node.lineno, "csv"))
    assert not hits
