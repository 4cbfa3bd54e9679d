"""Tests of the benchmark itself, at tiny scale.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bootstrap import ROOT, pin_threads, put_sources_on_path  # noqa: E402

pin_threads()
put_sources_on_path()

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = workloads.load_reference()["tiny"]
UNRECORDED_SEED = 10**6


def cli(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170, check=False,
    )


def tiny_pass(name: str, seed: int = 0, tracer: spans.Tracer | None = None) -> workloads.Pass:
    workload = workloads.WORKLOADS[name]
    prepared = workload.setup(seed, workloads.SCALES["tiny"][name])
    scratch = HERE / ".work" / f"test-{name}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if tracer is None:
            return workload.run_pass(prepared, scratch)
        kernel = type(workloads.get_backend(workloads.KERNEL))
        with spans.instrument(tracer, kernel):
            return workload.run_pass(prepared, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


@pytest.fixture(scope="module")
def outputs() -> dict[str, dict]:
    return {name: tiny_pass(name).output for name in workloads.WORKLOADS}


def check(name: str, output: dict, seed: int = 0) -> dict:
    attempted, failed = workloads.WORKLOADS[name].check(output, seed, "tiny", REFERENCE[name])
    assert attempted >= 1
    return failed


def test_benchmark_json_matches_the_harness():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in specs}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    # Each workload reaches the layers it was chosen for, and not others.
    p = workloads.SCALES["tiny"][workload]
    if workload == "commit-sweep":
        assert values["queueing.choose_commit.calls"] == 2 * p["epochs"]
        assert values["queueing.choose_packet.calls"] == 0
        assert values["meanfield.rule_from_raw.calls"] == p["runs"] * p["epochs"]
    elif workload == "fig5-panel":
        cells = 3 * len(p["delta_ts"])
        assert values["store.get.lookups"] == 2 * cells
        assert values["store.get.hits"] == cells
        assert values["store.put.writes"] == cells
        assert values["queueing.choose_commit.calls"] == 0
    elif workload == "delay-stream":
        assert values["serving.observe_epoch.calls"] == p["horizon"]
        assert values["queueing.choose_packet.calls_per_epoch"] >= 1
    else:
        assert values["rl.update.sgd_epochs_run"] == p["iterations"] * p["sgd_epochs"]
        assert values["meanfield.env_step.calls"] == p["iterations"] * p["batch"]
        assert values["queueing.env_step.calls"] == 0


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = cli("commit-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_outputs_equal_untraced_outputs(name):
    untraced = tiny_pass(name)
    tracer = spans.Tracer("test")
    traced = tiny_pass(name, tracer=tracer)
    assert workloads.digest(traced.output) == workloads.digest(untraced.output)
    # Self times of a pass add up to its root span.
    root = tracer.names.index(spans.ROOT_SPAN)
    assert sum(tracer.self_s) == pytest.approx(tracer.ends[root] - tracer.starts[root], rel=1e-9)
    # The originals are back once the block exits.
    from repro.queueing.backends import protocol
    from repro.queueing import batched_env

    assert batched_env.draw_uniform_queue_samples is protocol.draw_uniform_queue_samples
    assert not hasattr(batched_env.draw_uniform_queue_samples, "__wrapped__")


def test_outputs_pass_their_checks(outputs):
    for name, output in outputs.items():
        assert check(name, output) == {}
        # An unrecorded seed takes the statistical path.
        assert check(name, output, seed=UNRECORDED_SEED) == {}


def test_commit_sweep_checks_fail_on_corrupted_drops(outputs):
    out = outputs["commit-sweep"]
    runs = workloads.SCALES["tiny"]["commit-sweep"]["runs"]
    sd = REFERENCE["commit-sweep"]["MF"]["pool_sd"]
    for bad in (
        out["MF"] + 1e-9,  # breaks the exact seed-0 value
        np.where(np.arange(runs) == 0, np.nan, out["MF"]),
        -out["MF"],
        out["MF"][:-1],
    ):
        assert "MF" in check("commit-sweep", {**out, "MF": bad})
    shifted = {**out, "MF": out["MF"] + 10 * sd}
    assert "MF" in check("commit-sweep", shifted, seed=UNRECORDED_SEED)


def test_fig5_checks_fail_on_cold_warm_mismatch_and_wrong_shape(outputs):
    out = outputs["fig5-panel"]
    warm = copy.deepcopy(out["warm"])
    warm["RND"][0] = warm["RND"][0] + 1.0
    assert "warm RND dt=1" in check("fig5-panel", {**out, "warm": warm})
    assert "warm MF dt=5" in check("fig5-panel", {**out, "warm_hits": 0})
    assert "cold MF dt=1" in check("fig5-panel", {**out, "cold_hits": 1})
    cold = copy.deepcopy(out["cold"])
    cold["MF"][1] = cold["JSQ(2)"][1] + 1.0  # MF no longer beats JSQ(2) at dt=5
    failed = check("fig5-panel", {**out, "cold": cold, "warm": cold}, seed=UNRECORDED_SEED)
    assert any("JSQ(2)" in msg for msg in failed.get("cold MF dt=5", []))


def test_delay_stream_checks_fail_on_impossible_summaries(outputs):
    out = outputs["delay-stream"]
    fields = out["summary_fields"]
    for field, value in (("drop_rate", 1.5), ("qlen_p99", 99.0), ("throughput", 5.0), ("mean_queue_length", np.inf)):
        summaries = out["summaries"].copy()
        summaries[2, fields.index(field)] = value
        assert "replica 2" in check("delay-stream", {**out, "summaries": summaries})


def test_mfc_train_checks_fail_on_non_finite_or_changed_stats(outputs):
    out = outputs["mfc-train"]
    for key, value in (("kl", float("nan")), ("env_steps", 1), ("mean_episode_return", -1.0)):
        stats = copy.deepcopy(out["stats"])
        stats[-1][key] = value
        assert "iteration 2" in check("mfc-train", {"stats": stats})
    stats = copy.deepcopy(out["stats"])
    stats[0]["episode_returns"][0] = float("inf")
    assert "iteration 1" in check("mfc-train", {"stats": stats})
