"""Tests of the benchmark itself: python3 -m pytest bench/tests"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import routeirl
import routeirl.algorithms
import routeirl.planners
import routeirl.training
from speed import REF_UNIT_S
from tracing import Tracer, minibatch_destinations, repeat_share, self_times
from workloads import Outcome

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 4.0, 0, 0],       # overlaps a: together they cover 1..4
        ["c", 6.0, 7.0, 0, 0],
        ["a.child", 1.5, 2.5, 1, 0],
        ["outside", 9.5, 12.0, 0, 0],  # only 9.5..10 lies inside root
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 1 - 0.5, 1.0, 2.0, 1.0, 1.0, 2.5])


def test_install_rebinds_every_copy_and_uninstall_restores():
    original = routeirl.planners.softmax_backup
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = routeirl.planners.softmax_backup
        assert wrapped is not original
        assert routeirl.algorithms.softmax_backup is wrapped
        assert routeirl.softmax_backup is wrapped
    finally:
        tracer.uninstall()
    assert routeirl.algorithms.softmax_backup is original
    assert routeirl.planners.softmax_backup is original


def test_replay_matches_the_minibatches_train_expert_draws(monkeypatch):
    g = routeirl.gen_gridworld(4, 4, feature_spec="random", rng_seed=0)
    truth = routeirl.LinearReward(np.array([-1.7, -1.3]))
    demos = routeirl.sample_demonstrations(truth, g, 30, rng_seed=1)
    shard = routeirl.partition_geographic(g, demos, 1)[0][0]
    seen = []
    real = routeirl.training.demo_gradient

    def recording(model, graph, traj, cfg):
        seen.append(traj.nodes[-1])
        return real(model, graph, traj, cfg)

    monkeypatch.setattr(routeirl.training, "demo_gradient", recording)
    cfg = routeirl.TrainConfig(algorithm="maxent", epochs=1, steps_per_epoch=6,
                               batch_size=4, warmup=0, rng_seed=7)
    _, hist = routeirl.train_expert(shard, truth, cfg)
    assert sum(rec["skips"] for rec in hist.steps) == 0
    replay = minibatch_destinations([t.nodes[-1] for t in shard.demos], 7, 4, 6)
    assert [d for batch in replay for d in batch] == seen


def test_repeat_share_counts_later_occurrences():
    assert repeat_share([[1, 2, 1, 1], [3, 4, 5, 6]]) == 2 / 8


def test_normalised_time_scales_by_the_reference_unit():
    out = Outcome()
    # units took twice REF_UNIT_S: a host half as fast as the reference
    out.host.seconds, out.host.units = 2 * REF_UNIT_S * 10, 10
    out.measure("sweep.grads_per_s.h0", 8, 0.1)
    assert out.seconds("sweep.grads_per_s.h0", normalised=False) == pytest.approx(0.1)
    assert out.seconds("sweep.grads_per_s.h0", normalised=True) == pytest.approx(0.05)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_has_every_metric_and_no_failures(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_has_every_layer_metric():
    proc = run_bench("--workload", "horizon-sweep", "--seed", "3", "--seconds", "1",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["demo_gradient.calls"]["value"] > 0
    assert result["metrics"]["dest_repeat_share"]["value"] >= 0.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "train-maxent", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
