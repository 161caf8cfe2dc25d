"""End-to-end command line pipeline on a temporary workspace."""
import json
from pathlib import Path

import numpy as np
import pytest

from routeirl import (GoalView, LinearReward, ValidationError, build_graph,
                      cheap_bounds, dominant_eigenvalue, evaluate,
                      export_reward_table, load_graph, load_merge_map,
                      load_reward_table, load_trajectories,
                      sample_demonstrations, save_graph)
from routeirl.cli import main

from oracles import blocked_chain_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1]) if out else None


def test_full_pipeline(tmp_path, capsys):
    gpath = str(tmp_path / "graph.txt")
    dpath = str(tmp_path / "demos.txt")

    code, info = run(capsys, "gen-grid", "--width", "5", "--height", "5",
                     "--segments-per-block", "2", "--seed", "3",
                     "--weights=-1.2,-0.8", "--num-demos", "12",
                     "--out-graph", gpath, "--out-demos", dpath)
    assert code == 0
    # 5x5 grid has 80 block edges; each splits once into 2 segments
    assert info == {"nodes": 105, "edges": 160, "max_out_degree": 4,
                    "demos": 12}

    manifest = json.loads((tmp_path / "graph.txt.manifest.json").read_text())
    assert manifest["command"] == "gen-grid"
    assert manifest["seed"] == 3
    assert manifest["versions"]["numpy"] == np.__version__
    assert "argv" in manifest

    cg = str(tmp_path / "cgraph.txt")
    mm = str(tmp_path / "mmap.txt")
    cd = str(tmp_path / "cdemos.txt")
    code, stats = run(capsys, "compress", "--graph", gpath, "--v-cap", "8",
                      "--demos", dpath, "--out-graph", cg,
                      "--out-merge-map", mm, "--out-demos", cd)
    assert code == 0
    assert stats["nodes_before"] == 105
    assert stats["nodes_after"] < 105
    assert stats["sv_reduction"] > 0.0

    cfg = tmp_path / "train.cfg"
    cfg.write_text("algorithm = receding_horizon\n"
                   "horizon = 2\n"
                   "epochs = 1\n"
                   "steps_per_epoch = 6\n"
                   "batch_size = 4\n"
                   "warmup = 2\n")
    outdir = tmp_path / "run"
    code, summary = run(capsys, "train", "--graph", cg, "--demos", cd,
                        "--config", str(cfg), "--shards", "1",
                        "--weights=-2", "--seed", "1",
                        "--out", str(outdir))
    assert code == 0
    assert summary["dropped_demos"] == 0
    assert len(summary["per_shard"]) == 1
    assert summary["per_shard"][0]["steps"] == 6
    assert (outdir / "global_rewards.txt").exists()
    assert (outdir / "0" / "history.csv").exists()
    assert (outdir / "0" / "0.ckpt").exists()
    assert json.loads((outdir / "manifest.json").read_text())["seed"] == 1

    ejson = str(tmp_path / "eval.json")
    code, res = run(capsys, "eval", "--graph", cg, "--demos", cd,
                    "--rewards", str(outdir / "global_rewards.txt"),
                    "--merge-map", mm, "--out", ejson)
    assert code == 0
    assert res["n"] == 12
    assert 0.0 <= res["acc"] <= 1.0
    assert 0.0 <= res["iou"] <= 1.0
    assert res["nll"] is None or res["nll"] > 0.0
    assert json.loads((tmp_path / "eval.json").read_text()) == res

    diag = str(tmp_path / "diag.json")
    vals = str(tmp_path / "values.txt")
    code, doc = run(capsys, "diagnose", "--graph", cg,
                    "--checkpoint", str(outdir / "0" / "0.ckpt"),
                    "--destination", "0", "--probe-rate",
                    "--dump-values", vals, "--out", diag)
    assert code == 0
    assert doc["classification"] == "Feasible"
    assert doc["lambda_max"] < 1.0
    assert doc["converged"] and doc["values_converged"]
    assert 0.0 <= doc["rate"] < 1.0
    dumped = open(vals).read().strip().splitlines()
    assert len(dumped) == stats["nodes_after"]

    scan = tmp_path / "scan.csv"
    code, out = run(capsys, "scan-loss", "--theta-min", "0.5",
                    "--theta-max", "1.5", "--steps", "3",
                    "--out", str(scan))
    assert code == 0
    assert out["rows"] == 9
    lines = scan.read_text().strip().splitlines()
    assert lines[0] == "theta1,theta2,lambda_max,nll"
    assert len(lines) == 10
    assert "np.float64" not in scan.read_text()
    for line in lines[1:]:
        t1, t2, lam, nll = (float(x) for x in line.split(","))
        assert lam > 0.0

    sweep = tmp_path / "sweep.csv"
    code, out = run(capsys, "sweep-horizon", "--graph", cg, "--demos", cd,
                    "--horizons", "0,1", "--reps", "2",
                    "--timing-rounds", "1", "--train-steps", "12",
                    "--batch", "4", "--weights=-2", "--out", str(sweep))
    assert code == 0
    assert out["horizons"] == 2
    lines = sweep.read_text().strip().splitlines()
    assert lines[0] == "horizon,steps_per_sec,accuracy"
    names = [l.split(",")[0] for l in lines[1:]]
    assert names == ["0", "1"]
    for line in lines[1:]:
        _, sps, acc = line.split(",")
        assert float(sps) > 0.0
        assert 0.0 <= float(acc) <= 1.0


def test_compress_cyclic_graph_exits_zero(tmp_path, capsys):
    # merge_chains used to raise KeyError here, so the command exited 1
    gpath, cg, mm = (str(tmp_path / n) for n in ("g.txt", "c.txt", "m.txt"))
    save_graph(blocked_chain_graph(), gpath)
    code, stats = run(capsys, "compress", "--graph", gpath, "--v-cap", "2",
                      "--out-graph", cg, "--out-merge-map", mm)
    assert code == 0
    assert stats["nodes_after"] == 3
    assert load_graph(cg, merge_map=load_merge_map(mm)).num_edges == 5


def test_compress_rejects_demos_a_node_line_cannot_name(tmp_path, capsys):
    # chains 0->1->3 and 0->2->3 merge into parallel edges 0->3 (ids 0 and
    # 1); a node line "0 3" names edge 0, so the route via 2 cannot be saved
    gpath, dpath, cg, mm, cd = (str(tmp_path / n) for n in
                                ("g.txt", "d.txt", "c.txt", "m.txt", "cd.txt"))
    save_graph(build_graph([(i, float(i), 0.0) for i in range(4)],
                           [(0, 0, 1, [1.0]), (1, 1, 3, [1.0]),
                            (2, 0, 2, [2.0]), (3, 2, 3, [2.0])]), gpath)
    argv = ["compress", "--graph", gpath, "--v-cap", "2", "--demos", dpath,
            "--out-graph", cg, "--out-merge-map", mm, "--out-demos", cd]
    (tmp_path / "d.txt").write_text("0 1 3\n")
    assert main(argv) == 0
    assert [t.edges for t in load_trajectories(cd, load_graph(cg))] == [(0,)]
    capsys.readouterr()
    (tmp_path / "d.txt").write_text("0 1 3\n0 2 3\n")
    fresh = [str(tmp_path / n) for n in ("c2.txt", "m2.txt", "cd2.txt")]
    argv[argv.index(cg)], argv[argv.index(mm)], argv[argv.index(cd)] = fresh
    assert main(argv) == 2
    assert "trajectory 1 takes parallel edge 1" in capsys.readouterr().err
    assert not any(Path(p).exists() for p in fresh)  # the failed run wrote nothing


def test_train_on_compressed_graph_pins_connectors(tmp_path, capsys):
    # train loads the graph without its merge map; the graph file itself
    # flags the connectors, so even the MLP scores them exactly 0
    gpath, dpath, cg, mm, cd = (str(tmp_path / n) for n in
                                ("g.txt", "d.txt", "c.txt", "m.txt", "cd.txt"))
    assert main(["gen-grid", "--width", "4", "--height", "4", "--seed", "2",
                 "--num-demos", "8", "--out-graph", gpath,
                 "--out-demos", dpath]) == 0
    assert main(["compress", "--graph", gpath, "--v-cap", "3", "--demos", dpath,
                 "--out-graph", cg, "--out-merge-map", mm, "--out-demos", cd]) == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text("horizon = 2\nepochs = 1\nsteps_per_epoch = 2\nwarmup = 1\n")
    out = tmp_path / "run"
    assert main(["train", "--graph", cg, "--demos", cd, "--config", str(cfg),
                 "--model", "dense", "--seed", "1", "--out", str(out)]) == 0
    flags = load_graph(cg, merge_map=load_merge_map(mm)).connector_flags
    table = load_reward_table(out / "global_rewards.txt")
    assert flags.sum() > 0
    assert table[flags].tolist() == [0.0] * int(flags.sum())
    assert not np.signbit(table[flags]).any()
    assert np.all(table[~flags] < 0.0)


def test_dump_values_reports_nonconvergence(tmp_path, capsys):
    gpath, rpath, vals = (str(tmp_path / n) for n in ("g.txt", "r.txt", "v.txt"))
    assert main(["gen-grid", "--width", "3", "--height", "3",
                 "--out-graph", gpath]) == 0
    export_reward_table(np.full(24, -0.1), rpath)   # 4 exits of e^-0.1 each
    capsys.readouterr()
    code, doc = run(capsys, "diagnose", "--graph", gpath, "--rewards", rpath,
                    "--destination", "4", "--dump-values", vals)
    assert code == 0
    assert doc["classification"] == "Infeasible"
    assert doc["values_converged"] is False
    assert len(load_reward_table(vals)) == 9


def test_probe_rate_on_a_slow_feasible_corner(tmp_path, capsys):
    # a corner of the 3x3 grid at rewards -1 is feasible with lambda about
    # 0.985: a one-hot pass needs 1,701 backups to tol 1e-13, past the
    # reference pass's cap, so the reference starts at the exact fixed point
    gpath, rpath = str(tmp_path / "g.txt"), str(tmp_path / "r.txt")
    assert main(["gen-grid", "--width", "3", "--height", "3", "--seed", "0",
                 "--out-graph", gpath]) == 0
    export_reward_table(np.full(24, -1.0), rpath)
    capsys.readouterr()
    for dest in ("0", "2", "6", "8"):
        code, doc = run(capsys, "diagnose", "--graph", gpath, "--rewards", rpath,
                        "--destination", dest, "--probe-rate")
        assert code == 0
        assert doc["classification"] == "Feasible"
        assert 0.98 < doc["lambda_max"] < 0.99
        assert 0.9 < doc["rate"] < 1.0


def test_diagnose_rejects_a_temperature_at_or_below_zero(tmp_path, capsys):
    # T = 0 divided by zero and reported lambda = 0, and T = -1 reported an
    # infeasible lambda: both are invalid, in the library and on the CLI, as
    # are T = inf and NaN
    gpath, rpath = str(tmp_path / "g.txt"), str(tmp_path / "r.txt")
    assert main(["gen-grid", "--width", "3", "--height", "3", "--out-graph", gpath]) == 0
    g = load_graph(gpath)
    rew = np.full(g.num_edges, -1.0)
    export_reward_table(rew, rpath)
    capsys.readouterr()
    for temperature in (0.0, -1.0, np.inf, np.nan):
        for call in (cheap_bounds, dominant_eigenvalue):
            with pytest.raises(ValidationError, match="temperature must be positive"):
                call(GoalView(g, 4), rew, temperature=temperature)
        code = main(["diagnose", "--graph", gpath, "--rewards", rpath, "--destination", "4",
                     f"--temperature={temperature}"])
        assert code == 2
        assert "temperature must be positive" in capsys.readouterr().err


def test_a_planner_takes_a_temperature_from_zero_to_inf(tmp_path, capsys):
    # T = inf made evaluate report nll NaN and exit 0, and made T > 0
    # sampling raise a bare ValueError (exit 1); T = 0 plans greedily only
    gpath, dpath, rpath = (str(tmp_path / name) for name in ("g.txt", "d.txt", "r.txt"))
    assert main(["gen-grid", "--width", "3", "--height", "3", "--num-demos", "3",
                 "--out-graph", gpath, "--out-demos", dpath]) == 0
    g = load_graph(gpath)
    demos = load_trajectories(dpath, g)
    rew = np.full(g.num_edges, -1.0)
    export_reward_table(rew, rpath)
    model = LinearReward(np.full(g.feature_dim, -1.0))
    capsys.readouterr()
    for temperature in (np.inf, np.nan):
        for call in (lambda: evaluate(rew, demos, g, temperature=temperature, nll=False),
                     lambda: sample_demonstrations(model, g, 3, temperature=temperature)):
            with pytest.raises(ValidationError, match=r"temperature must be in \[0, inf\)"):
                call()
        for argv in (["eval", "--graph", gpath, "--demos", dpath, "--rewards", rpath],
                     ["gen-grid", "--width", "3", "--height", "3", "--num-demos", "3",
                      "--out-graph", str(tmp_path / "g2.txt"), "--out-demos", dpath]):
            assert main(argv + [f"--temperature={temperature}"]) == 2
            assert "temperature must be in [0, inf)" in capsys.readouterr().err
    assert evaluate(rew, demos, g, temperature=0.0, nll=False).n == 3
    assert len(sample_demonstrations(model, g, 3, temperature=0.0)) == 3


def test_cross_region_marks_per_edge_experts_off_their_shard(tmp_path, capsys):
    # a sparse expert's parameters index its own shard's local edges: on a
    # compressed 12x12 two-segment grid the shards differ in edge count and
    # the run exited 2 after training; on an 8x8 grid they do not, and the
    # off-diagonal entries were scored on the other shard's edge ids
    cfg = tmp_path / "train.cfg"
    cfg.write_text("algorithm = receding_horizon\nhorizon = 3\nepochs = 1\n"
                   "steps_per_epoch = 4\nbatch_size = 4\nwarmup = 1\n")
    for width, segments in ((12, "2"), (8, "1")):
        gpath, dpath = str(tmp_path / f"g{width}.txt"), str(tmp_path / f"d{width}.txt")
        assert main(["gen-grid", "--width", str(width), "--height", str(width),
                     "--segments-per-block", segments, "--seed", "2", "--num-demos", "30",
                     "--out-graph", gpath, "--out-demos", dpath]) == 0
        if width == 12:
            cpath, cdpath = str(tmp_path / "c.txt"), str(tmp_path / "cd.txt")
            assert main(["compress", "--graph", gpath, "--v-cap", "3", "--demos", dpath,
                         "--out-graph", cpath, "--out-merge-map", str(tmp_path / "m.txt"),
                         "--out-demos", cdpath]) == 0
            gpath, dpath = cpath, cdpath
        out = tmp_path / f"run{width}"
        code, _ = run(capsys, "train", "--graph", gpath, "--demos", dpath,
                      "--config", str(cfg), "--model", "sparse", "--shards", "2",
                      "--seed", "2", "--out", str(out))
        assert code == 0
        acc = np.loadtxt(out / "cross_region.csv", delimiter=",")
        assert np.isnan(acc[0, 1]) and np.isnan(acc[1, 0])
        assert 0.0 <= acc[0, 0] <= 1.0 and 0.0 <= acc[1, 1] <= 1.0


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["eval", "--graph", str(tmp_path / "nope.txt"),
                 "--demos", str(tmp_path / "nope2.txt"),
                 "--rewards", str(tmp_path / "nope3.txt")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_validation_error_exits_two(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    code = main(["gen-grid", "--width", "3", "--height", "3",
                 "--num-demos", "2", "--out-graph", gpath])
    assert code == 2
    assert "out-demos" in capsys.readouterr().err
    # the arguments are checked before anything is written
    assert not list(tmp_path.iterdir())


def test_malformed_checkpoints_exit_two(tmp_path, capsys):
    # these used to escape as AttributeError and KeyError (exit 1), and an
    # unknown kind did not name the file
    gpath, dpath = str(tmp_path / "g.txt"), str(tmp_path / "d.txt")
    assert main(["gen-grid", "--width", "3", "--height", "3", "--num-demos", "2",
                 "--out-graph", gpath, "--out-demos", dpath]) == 0
    for i, doc in enumerate(([1, 2], {"version": 1, "model": {"kind": "linear"}},
                             {"version": 1, "model": [1]},
                             {"version": 1, "model": {"kind": "tree"}})):
        ckpt = tmp_path / f"{i}.ckpt"
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--graph", gpath, "--demos", dpath,
                     "--checkpoint", str(ckpt)]) == 2, doc
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(ckpt) in err, (doc, err)


def test_a_merge_map_must_describe_its_graph(tmp_path, capsys):
    # eval used to raise IndexError (exit 1) on a map of too few records,
    # and load_graph accepted it
    gpath, dpath = str(tmp_path / "g.txt"), str(tmp_path / "d.txt")
    cg, mm, cd = (str(tmp_path / n) for n in ("c.txt", "m.txt", "cd.txt"))
    assert main(["gen-grid", "--width", "4", "--height", "4", "--segments-per-block", "2",
                 "--num-demos", "6", "--out-graph", gpath, "--out-demos", dpath]) == 0
    assert main(["compress", "--graph", gpath, "--v-cap", "3", "--demos", dpath,
                 "--out-graph", cg, "--out-merge-map", mm, "--out-demos", cd]) == 0
    short = str(tmp_path / "short.txt")
    save_graph(blocked_chain_graph(), str(tmp_path / "b.txt"))
    assert main(["compress", "--graph", str(tmp_path / "b.txt"), "--v-cap", "2",
                 "--out-graph", str(tmp_path / "bc.txt"), "--out-merge-map", short]) == 0
    num_edges = load_graph(cg, merge_map=load_merge_map(mm)).num_edges
    assert len(load_merge_map(short).edge_expansion) == 5 < num_edges
    with pytest.raises(ValidationError,
                       match=f"merge map describes 5 edges, the graph has {num_edges}"):
        load_graph(cg, merge_map=load_merge_map(short))
    rpath = str(tmp_path / "r.txt")
    export_reward_table(np.full(num_edges, -1.0), rpath)
    eval_argv = ["eval", "--graph", cg, "--demos", cd, "--rewards", rpath, "--merge-map"]
    assert main(eval_argv + [mm]) == 0
    capsys.readouterr()
    assert main(eval_argv + [short]) == 2
    assert "merge map describes 5 edges" in capsys.readouterr().err


def test_malformed_numbers_exit_two(tmp_path, capsys):
    # these used to escape as ValueError or a zero-size min (exit 1), or to
    # write nan steps/s and exit 0
    gpath, dpath = str(tmp_path / "g.txt"), str(tmp_path / "d.txt")
    assert main(["gen-grid", "--width", "4", "--height", "4", "--num-demos", "6",
                 "--out-graph", gpath, "--out-demos", dpath]) == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text("algorithm = maxent\nepochs = 1\nsteps_per_epoch = 2\nwarmup = 1\n")
    sweep = ["sweep-horizon", "--graph", gpath, "--demos", dpath, "--horizons", "0,1",
             "--reps", "1", "--timing-rounds", "1", "--train-steps", "2",
             "--out", str(tmp_path / "sweep.csv")]
    for argv, what in (
            (sweep + ["--weights=abc"], "--weights"),
            (sweep + ["--horizons", "1,x"], "--horizons"),
            (sweep + ["--timing-rounds", "0"], "--timing-rounds"),
            (sweep + ["--reps", "0"], "--reps"),
            (["train", "--graph", gpath, "--demos", dpath, "--config", str(cfg),
              "--weights=-1,x", "--out", str(tmp_path / "run")], "--weights"),
            # these held out no demos and exited 0
            (["train", "--graph", gpath, "--demos", dpath, "--config", str(cfg),
              "--eval-fraction", "nan", "--out", str(tmp_path / "run")], "eval_fraction"),
            (["train", "--graph", gpath, "--demos", dpath, "--config", str(cfg),
              "--eval-fraction", "-0.5", "--out", str(tmp_path / "run")], "eval_fraction")):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and what in err, (argv, err)
    assert not (tmp_path / "sweep.csv").exists()


def test_infeasible_rewards_exit_three(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    dpath = str(tmp_path / "d.txt")
    assert main(["gen-grid", "--width", "3", "--height", "3", "--seed", "0",
                 "--weights=-1", "--num-demos", "2",
                 "--out-graph", gpath, "--out-demos", dpath]) == 0
    capsys.readouterr()
    rpath = str(tmp_path / "gain.txt")
    export_reward_table(np.full(24, 0.5), rpath)
    code = main(["eval", "--graph", gpath, "--demos", dpath,
                 "--rewards", rpath])
    assert code == 3
    assert "infeasible:" in capsys.readouterr().err


def test_short_reward_table_exits_two(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    dpath = str(tmp_path / "d.txt")
    assert main(["gen-grid", "--width", "3", "--height", "3", "--seed", "0",
                 "--weights=-1", "--num-demos", "2",
                 "--out-graph", gpath, "--out-demos", dpath]) == 0
    capsys.readouterr()
    rpath = str(tmp_path / "short.txt")
    export_reward_table(np.full(23, -1.0), rpath)   # the grid has 24 edges
    for argv in (["eval", "--demos", dpath], ["diagnose", "--destination", "4"]):
        assert main(argv + ["--graph", gpath, "--rewards", rpath]) == 2
        assert "reward table length != edge count" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_reward_table_exits_two(tmp_path, capsys, bad):
    gpath, dpath, rpath = (str(tmp_path / n) for n in ("g.txt", "d.txt", "r.txt"))
    assert main(["gen-grid", "--width", "4", "--height", "4", "--seed", "0",
                 "--num-demos", "5", "--out-graph", gpath, "--out-demos", dpath]) == 0
    capsys.readouterr()
    demo = load_trajectories(dpath, load_graph(gpath))[0]
    rew = np.full(48, -3.0)
    rew[demo.edges[0]] = bad
    export_reward_table(rew, rpath)
    for argv in (["eval", "--demos", dpath],
                 ["diagnose", "--destination", str(demo.destination)]):
        assert main(argv + ["--graph", gpath, "--rewards", rpath]) == 2
        assert "NaN and +inf are not rewards" in capsys.readouterr().err


def test_negative_infinite_rewards_and_values_load(tmp_path, capsys):
    # -inf closes an edge; a node cut off by closed edges gets the value
    # -inf, which the dumped values file keeps and reads back
    gpath, dpath, rpath, vals = (str(tmp_path / n)
                                 for n in ("g.txt", "d.txt", "r.txt", "v.txt"))
    assert main(["gen-grid", "--width", "3", "--height", "3", "--seed", "0",
                 "--num-demos", "2", "--out-graph", gpath, "--out-demos", dpath]) == 0
    capsys.readouterr()
    g = load_graph(gpath)
    rew = np.full(g.num_edges, -1.0)
    rew[g.out_edges(0)] = -np.inf
    export_reward_table(rew, rpath)
    code, doc = run(capsys, "diagnose", "--graph", gpath, "--rewards", rpath,
                    "--destination", "8", "--dump-values", vals)
    assert code == 0 and doc["values_converged"]
    values = load_reward_table(vals)
    assert values[0] == -np.inf and np.all(np.isfinite(values[1:]))
    assert load_reward_table(rpath)[g.out_edges(0)].tolist() == [-np.inf, -np.inf]
    code, _ = run(capsys, "eval", "--graph", gpath, "--demos", dpath, "--rewards", rpath)
    assert code == 0
