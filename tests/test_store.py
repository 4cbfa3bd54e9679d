"""Tests for the content-addressed experiment store and the
manifest-driven reproduction pipeline.

The contracts under test:

* shard keys are a stable, content-sensitive function of the request
  (fresh-but-equal objects hash identically; any stream-relevant change
  moves the key),
* the store is durable and self-healing (atomic writes, corrupted
  entries quarantined as misses),
* cached + fresh shards merge **bit-identically** to a cold run — in
  particular, a sweep interrupted mid-run (simulated by deleting a
  subset of persisted shards) resumes to exactly the cold-run numbers
  for ``workers ∈ {1, 2}``,
* a warm ``reproduce`` run reports a ≥ 90% cache hit-rate and
  recomputes nothing.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.execution import ExecutionContext
from repro.experiments.parallel import EvalRequest, SweepExecutor, _decompose
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
from repro.store import (
    ArtifactSpec,
    ExperimentStore,
    ReproductionManifest,
    fingerprint,
    load_manifest,
    packaged_manifest_path,
    run_reproduction,
    shard_key,
)
from repro.store.keys import CODE_SALT


def _config(**overrides) -> SystemConfig:
    base = dict(
        num_clients=100,
        num_queues=10,
        buffer_size=5,
        delta_t=1.0,
        episode_length=20,
        monte_carlo_runs=3,
    )
    base.update(overrides)
    return SystemConfig(**base)


def _request(config, policy, **overrides) -> EvalRequest:
    base = dict(
        config=config,
        policy=policy,
        num_runs=6,
        num_epochs=4,
        seed=7,
        max_batch_replicas=2,
    )
    base.update(overrides)
    return EvalRequest(**base)


@pytest.fixture
def config():
    return _config()


@pytest.fixture
def jsq(config):
    return JoinShortestQueuePolicy(config.num_queue_states, config.d)


@pytest.fixture
def rnd(config):
    return RandomPolicy(config.num_queue_states, config.d)


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


class TestFingerprint:
    def test_type_tags_disambiguate_scalars(self):
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(1) != fingerprint("1")
        assert fingerprint(True) != fingerprint(1)
        assert fingerprint(None) != fingerprint(0)

    def test_arrays_hash_content_dtype_and_shape(self):
        a = np.arange(6, dtype=np.float64)
        assert fingerprint(a) == fingerprint(a.copy())
        assert fingerprint(a) != fingerprint(a.astype(np.float32))
        assert fingerprint(a) != fingerprint(a.reshape(2, 3))

    def test_dict_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_sequence_order_sensitive(self):
        assert fingerprint([1, 2]) != fingerprint([2, 1])

    def test_seed_sequence_ignores_spawn_counter(self):
        a = np.random.SeedSequence(7)
        b = np.random.SeedSequence(7)
        a.spawn(3)  # mutates n_children_spawned only
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) != fingerprint(np.random.SeedSequence(8))

    def test_objects_hash_by_content_not_identity(self, config):
        p1 = JoinShortestQueuePolicy(config.num_queue_states, config.d)
        p2 = JoinShortestQueuePolicy(config.num_queue_states, config.d)
        assert fingerprint(p1) == fingerprint(p2)

    def test_cycles_are_handled(self):
        a: list = [1]
        a.append(a)
        b: list = [1]
        b.append(b)
        assert fingerprint(a) == fingerprint(b)

    def test_stable_under_temporary_id_reuse(self, config):
        """Regression: the cycle-guard memo must keep visited objects
        alive — ids of freed traversal temporaries (``vars()`` dicts)
        could otherwise be reused and hash as spurious back-references,
        making the digest allocator-dependent."""
        import gc

        p1 = JoinShortestQueuePolicy(config.num_queue_states, config.d)
        payload = {
            "config": config.to_dict(),
            "policies": [p1, p1, JoinShortestQueuePolicy(3, 2)],
            "nested": {"inner": [config, {"deep": p1}]},
        }
        digests = set()
        for i in range(30):
            digests.add(fingerprint(payload))
            gc.collect()
            _ = [{"churn": j, "x": [j] * 5} for j in range(50)]
        assert len(digests) == 1

    def test_fingerprint_exclude_skips_mutable_cursor(self):
        """Classes may exclude replay-irrelevant mutable state (e.g. a
        profile's playback cursor) from their fingerprint."""
        from repro.queueing.workloads import DiurnalRate

        a = DiurnalRate(0.7, 0.1, period=6)
        before = fingerprint(a)
        a.sample_initial_mode()
        a.step_mode(0)
        assert fingerprint(a) == before
        assert fingerprint(DiurnalRate(0.7, 0.2, period=6)) != before


class TestShardKeys:
    def test_keys_stable_across_fresh_objects(self, config, jsq):
        req_a = _request(config, jsq)
        req_b = _request(
            _config(), JoinShortestQueuePolicy(config.num_queue_states, config.d)
        )
        keys_a = [shard_key(req_a, s) for s in _decompose([req_a])]
        keys_b = [shard_key(req_b, s) for s in _decompose([req_b])]
        assert keys_a == keys_b
        assert len(set(keys_a)) == len(keys_a)  # distinct chunks differ

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 8},
            {"num_epochs": 5},
            {"max_batch_replicas": 3},
            {"env_kwargs": {"per_packet_randomization": False}},
        ],
    )
    def test_stream_relevant_changes_move_every_key(self, config, jsq, change):
        base = _request(config, jsq)
        changed = _request(config, jsq, **change)
        base_keys = {shard_key(base, s) for s in _decompose([base])}
        changed_keys = {shard_key(changed, s) for s in _decompose([changed])}
        assert not base_keys & changed_keys

    def test_policy_and_config_content_move_keys(self, config, jsq, rnd):
        base = _request(config, jsq)
        other_policy = _request(config, rnd)
        other_config = _request(_config(delta_t=2.0), jsq)
        base_keys = {shard_key(base, s) for s in _decompose([base])}
        for other in (other_policy, other_config):
            keys = {shard_key(other, s) for s in _decompose([other])}
            assert not base_keys & keys

    def test_total_runs_do_not_move_shared_chunks(self, config, jsq):
        """A longer sweep with the same layout reuses its prefix shards."""
        short = _request(config, jsq, num_runs=4)
        long = _request(config, jsq, num_runs=8)
        short_keys = [shard_key(short, s) for s in _decompose([short])]
        long_keys = [shard_key(long, s) for s in _decompose([long])]
        assert long_keys[: len(short_keys)] == short_keys

    def test_salt_is_version_bound(self):
        import repro

        assert repro.__version__ in CODE_SALT


class TestExperimentStore:
    def test_roundtrip_exact(self, store):
        key = "ab" + "0" * 62
        drops = np.asarray([1.5, 2.25, 3.125])
        store.put_shard(key, drops, meta={"policy": "JSQ(2)"})
        out = store.get_shard(key, expected_runs=3)
        np.testing.assert_array_equal(out, drops)
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_missing_entry_is_a_miss(self, store):
        assert store.get_shard("cd" + "1" * 62) is None
        assert store.stats.misses == 1 and store.stats.hits == 0

    def test_corrupted_entry_quarantined(self, store):
        key = "ef" + "2" * 62
        store.put_shard(key, np.ones(2))
        path = store.path_for(key)
        path.write_bytes(b"not an npz archive")
        assert store.get_shard(key) is None
        assert not path.exists(), "corrupted entry must be removed"
        assert store.stats.invalid == 1 and store.stats.misses == 1
        # The slot is usable again afterwards.
        store.put_shard(key, np.ones(2))
        assert store.get_shard(key, expected_runs=2) is not None

    def test_wrong_run_count_is_invalid(self, store):
        key = "0a" + "3" * 62
        store.put_shard(key, np.ones(4))
        assert store.get_shard(key, expected_runs=2) is None
        assert store.stats.invalid == 1
        assert key not in store

    def test_no_temp_files_left_behind(self, store):
        key = "1b" + "4" * 62
        store.put_shard(key, np.ones(3))
        leftovers = [
            p for p in store.root.rglob("*") if p.name.startswith(".tmp-")
        ]
        assert leftovers == []
        assert sorted(store.iter_keys()) == [key]
        assert len(store) == 1

    def test_stats_delta(self, store):
        before = store.stats.snapshot()
        store.get_shard("9c" + "5" * 62)
        delta = store.stats.since(before)
        assert (delta.hits, delta.misses) == (0, 1)
        assert delta.hit_rate == 0.0


class TestExecutorCaching:
    def _cold(self, requests):
        return SweepExecutor().run_drops(requests)

    def test_cold_run_with_store_is_bit_identical(self, config, jsq, rnd, store):
        requests = [_request(config, jsq), _request(config, rnd)]
        cold = self._cold(requests)
        cached = SweepExecutor(ExecutionContext(store=store)).run_drops(requests)
        for a, b in zip(cold, cached):
            np.testing.assert_array_equal(a, b)
        assert store.stats.misses == 6 and store.stats.writes == 6

    def test_warm_run_recomputes_nothing(self, config, jsq, store):
        requests = [_request(config, jsq)]
        first = SweepExecutor(ExecutionContext(store=store)).run_drops(requests)
        before = store.stats.snapshot()
        second = SweepExecutor(ExecutionContext(store=store)).run_drops(requests)
        delta = store.stats.since(before)
        np.testing.assert_array_equal(first[0], second[0])
        assert delta.hits == 3 and delta.misses == 0 and delta.writes == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_after_kill_merges_bit_identical(
        self, config, jsq, rnd, store, workers
    ):
        """Killing a sweep mid-run loses some shards; the re-invocation
        must merge cached + fresh shards to exactly the cold numbers."""
        requests = [_request(config, jsq), _request(config, rnd)]
        cold = self._cold(requests)
        SweepExecutor(ExecutionContext(store=store)).run_drops(requests)
        # Simulate the kill: only a subset of shards was persisted.
        persisted = sorted(store.iter_keys())
        for key in persisted[::2]:
            store.path_for(key).unlink()
        before = store.stats.snapshot()
        resumed = SweepExecutor(
            ExecutionContext(workers=workers, store=store)
        ).run_drops(requests)
        delta = store.stats.since(before)
        for a, b in zip(cold, resumed):
            np.testing.assert_array_equal(a, b)
        assert delta.hits == 3 and delta.misses == 3  # half resumed, half redone
        # And the store is whole again for the next run.
        assert len(list(store.iter_keys())) == 6

    def test_overlapping_requests_share_shards(self, config, jsq, rnd, store):
        """A sweep containing an already-computed cell only simulates
        the genuinely new cells (cross-figure-grid sharing)."""
        first = [_request(config, jsq)]
        SweepExecutor(ExecutionContext(store=store)).run_drops(first)
        before = store.stats.snapshot()
        both = [_request(config, jsq), _request(config, rnd)]
        SweepExecutor(ExecutionContext(store=store)).run_drops(both)
        delta = store.stats.since(before)
        assert delta.hits == 3 and delta.misses == 3

    def test_scalar_backend_shards_cache_too(self, config, jsq, store):
        """One-replica chunks (the single-system runs) cache too."""
        requests = [_request(config, jsq, max_batch_replicas=1)]
        cold = self._cold(requests)
        SweepExecutor(ExecutionContext(store=store)).run_drops(requests)
        before = store.stats.snapshot()
        warm = SweepExecutor(ExecutionContext(store=store)).run_drops(requests)
        np.testing.assert_array_equal(cold[0], warm[0])
        assert store.stats.since(before).misses == 0


class TestClaimProtocol:
    KEY = "ab" + "6" * 62

    def test_claim_acquire_conflict_release_cycle(self, store):
        assert store.try_claim(self.KEY, "node-a")
        assert store.claim_owner(self.KEY) == "node-a"
        assert not store.try_claim(self.KEY, "node-b")
        assert store.stats.claim_conflicts == 1
        store.release_claim(self.KEY)
        assert store.claim_owner(self.KEY) is None
        assert store.try_claim(self.KEY, "node-b")
        assert store.stats.claims == 2

    def test_claims_invisible_to_cache_view(self, store):
        store.try_claim(self.KEY, "node-a")
        assert list(store.iter_keys()) == []
        assert len(store) == 0
        assert self.KEY not in store

    def test_stale_claim_taken_over(self, store):
        import os
        import time

        assert store.try_claim(self.KEY, "dead-node")
        path = store.claim_path_for(self.KEY)
        old = time.time() - 3600.0
        os.utime(path, (old, old))
        # A fresh-looking claim survives...
        assert not store.try_claim(self.KEY, "rescuer", stale_after=7200.0)
        # ...an abandoned one is republished atomically.
        assert store.try_claim(self.KEY, "rescuer", stale_after=60.0)
        assert store.stats.claims_stolen == 1
        assert store.claim_owner(self.KEY) == "rescuer"

    def test_damaged_claim_reads_as_unknown_owner(self, store):
        store.try_claim(self.KEY, "node-a")
        store.claim_path_for(self.KEY).write_text("not json{")
        assert store.claim_owner(self.KEY) == "<unreadable>"


def _claimed_sweep_worker(store_root, owner, queue):
    """One 'node' of a shared-store sweep (multiprocessing target)."""
    config = _config()
    requests = [
        _request(
            config, JoinShortestQueuePolicy(config.num_queue_states, config.d)
        ),
        _request(config, RandomPolicy(config.num_queue_states, config.d)),
    ]
    store = ExperimentStore(store_root)
    executor = SweepExecutor(
        context=ExecutionContext(store=store, claim=True), claim_owner=owner
    )
    merged = executor.run_drops(requests)
    queue.put((owner, [d.tolist() for d in merged], store.stats.writes))


class TestMultiNodeClaiming:
    def _requests(self, config, jsq, rnd):
        return [_request(config, jsq), _request(config, rnd)]

    def test_two_processes_partition_sweep_no_shard_twice(
        self, config, jsq, rnd, tmp_path
    ):
        """Two OS processes claim-and-run the same manifest against one
        shared store. The claiming protocol must partition the 6 shards
        (writes sum to exactly 6 — nothing computed twice) and both
        nodes must merge bit-identically to a single-host run."""
        import multiprocessing as mp

        cold = SweepExecutor().run_drops(
            self._requests(config, jsq, rnd)
        )
        store_root = tmp_path / "shared-store"
        queue = mp.Queue()
        nodes = [
            mp.Process(
                target=_claimed_sweep_worker,
                args=(store_root, f"node-{i}", queue),
            )
            for i in (0, 1)
        ]
        for node in nodes:
            node.start()
        results = {}
        for _ in nodes:
            owner, merged, writes = queue.get(timeout=120)
            results[owner] = (merged, writes)
        for node in nodes:
            node.join(timeout=30)
            assert node.exitcode == 0
        assert sum(writes for _, writes in results.values()) == 6
        for merged, _ in results.values():
            for a, b in zip(merged, cold):
                np.testing.assert_array_equal(np.asarray(a), b)

    def test_stale_claim_of_killed_node_is_recovered(self, config, jsq, store):
        """A claimant that died mid-shard leaves a claim file behind;
        a later node must take it over once it ages past the stale
        threshold and still produce the single-host numbers."""
        import os
        import time

        requests = [_request(config, jsq)]
        cold = SweepExecutor().run_drops(requests)
        shards = _decompose(requests)
        dead_key = shard_key(requests[0], shards[0])
        assert store.try_claim(dead_key, "killed-node")
        path = store.claim_path_for(dead_key)
        old = time.time() - 3600.0
        os.utime(path, (old, old))
        rescuer = SweepExecutor(
            context=ExecutionContext(store=store, claim=True),
            claim_owner="rescuer", stale_claim_after=60.0,
        )
        merged = rescuer.run_drops(requests)
        np.testing.assert_array_equal(merged[0], cold[0])
        assert store.stats.claims_stolen == 1
        assert store.stats.writes == 3

    def test_live_foreign_claim_times_out(self, config, jsq, store):
        """A fresh claim held by another (live) node blocks the shard;
        claim_timeout turns the indefinite wait into a loud error."""
        requests = [_request(config, jsq)]
        shards = _decompose(requests)
        busy_key = shard_key(requests[0], shards[0])
        assert store.try_claim(busy_key, "busy-node")
        executor = SweepExecutor(
            context=ExecutionContext(store=store, claim=True),
            claim_poll_interval=0.01, claim_timeout=0.1,
        )
        with pytest.raises(TimeoutError, match="still claimed"):
            executor.run_drops(requests)

    def test_merge_only_cold_store_raises(self, config, jsq, store):
        executor = SweepExecutor(ExecutionContext(store=store, merge_only=True))
        with pytest.raises(RuntimeError, match="missing 3 shard"):
            executor.run_drops([_request(config, jsq)])

    def test_merge_only_warm_store_computes_nothing(self, config, jsq, store):
        requests = [_request(config, jsq)]
        first = SweepExecutor(ExecutionContext(store=store)).run_drops(requests)
        before = store.stats.snapshot()
        merged = SweepExecutor(
            context=ExecutionContext(store=store, merge_only=True)
        ).run_drops(requests)
        delta = store.stats.since(before)
        np.testing.assert_array_equal(merged[0], first[0])
        assert delta.writes == 0 and delta.misses == 0
        assert delta.hits == 3

    def test_claim_and_merge_only_mutually_exclusive(self, store):
        with pytest.raises(ValueError, match="mutually exclusive"):
            SweepExecutor(ExecutionContext(store=store, claim=True, merge_only=True))

    @pytest.mark.parametrize("flag", ["claim", "merge_only"])
    def test_claiming_requires_a_store(self, flag):
        with pytest.raises(ValueError, match="experiment store"):
            SweepExecutor(ExecutionContext(**{flag: True}))


TINY_MANIFEST = """
title = "tiny"
seed = 0

[artifacts.table1]
kind = "table1"

[artifacts.scenario-overload]
kind = "scenario"
scenario = "overload"
queues = 10
runs = 2
delta_ts = [10.0]

[artifacts.fig5-tiny]
kind = "fig5"
queues = 8
delta_ts = [5.0]
runs = 2
"""


@pytest.fixture
def tiny_manifest(tmp_path):
    path = tmp_path / "manifest.toml"
    path.write_text(TINY_MANIFEST)
    return ReproductionManifest.from_toml(path)


class TestManifest:
    def test_packaged_manifest_parses(self):
        manifest = load_manifest()
        assert manifest.source == packaged_manifest_path()
        assert "fig5-m100" in manifest.names()
        kinds = {spec.kind for spec in manifest.artifacts}
        assert {"table1", "table2", "fig4", "fig5", "fig6", "scenario"} <= kinds

    def test_round_trip_through_dict(self, tiny_manifest):
        rebuilt = ReproductionManifest.from_dict(tiny_manifest.to_dict())
        assert rebuilt.to_dict() == tiny_manifest.to_dict()
        assert rebuilt.names() == tiny_manifest.names()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            ArtifactSpec(name="x", kind="fig7")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ArtifactSpec(name="x", kind="fig5", params={"quques": 10})

    def test_scenario_requires_name(self):
        with pytest.raises(ValueError, match="requires"):
            ArtifactSpec(name="x", kind="scenario")

    def test_duplicate_names_rejected(self):
        spec = ArtifactSpec(name="a", kind="table1")
        with pytest.raises(ValueError, match="duplicate"):
            ReproductionManifest(artifacts=(spec, spec))

    def test_select_unknown_artifact(self, tiny_manifest):
        with pytest.raises(ValueError, match="unknown artifact"):
            tiny_manifest.select(["nope"])


class TestReproduce:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_outputs_and_worker_invariance(
        self, tiny_manifest, tmp_path, workers
    ):
        results = tmp_path / f"results-w{workers}"
        report = run_reproduction(
            tiny_manifest,
            results_dir=results,
            context=ExecutionContext(
                workers=workers,
                store=ExperimentStore(tmp_path / f"store-w{workers}"),
            ),
        )
        assert [r.spec.name for r in report.runs] == list(
            tiny_manifest.names()
        )
        for name in tiny_manifest.names():
            assert (results / f"{name}.txt").exists()
            assert (results / f"{name}.provenance.json").exists()
        # Sweep-backed artifacts also emit their CSV series.
        assert (results / "fig5-tiny.csv").exists()
        assert (results / "scenario-overload.csv").exists()
        prov = json.loads(
            (results / "fig5-tiny.provenance.json").read_text()
        )
        assert prov["code_salt"] == CODE_SALT
        assert prov["workers"] == workers
        assert prov["cache"]["misses"] > 0 and prov["cache"]["hits"] == 0

    def test_workers_produce_identical_artifacts(self, tiny_manifest, tmp_path):
        texts = {}
        for workers in (1, 2):
            results = tmp_path / f"res-{workers}"
            run_reproduction(
                tiny_manifest,
                results_dir=results,
                context=ExecutionContext(
                    workers=workers,
                    store=ExperimentStore(tmp_path / f"st-{workers}"),
                ),
            )
            texts[workers] = {
                # Scenario table titles embed the worker count; mask it
                # so the comparison is about the numbers.
                p.name: p.read_text().replace(f"workers={workers}", "workers=*")
                for p in results.iterdir()
                if p.suffix in (".txt", ".csv")
            }
        assert texts[1] == texts[2]

    def test_warm_run_hits_at_least_90_percent(self, tiny_manifest, tmp_path):
        context = ExecutionContext(store=ExperimentStore(tmp_path / "store"))
        run_reproduction(
            tiny_manifest, results_dir=tmp_path / "r1", context=context
        )
        warm = run_reproduction(
            tiny_manifest, results_dir=tmp_path / "r2", context=context
        )
        assert warm.hit_rate >= 0.9
        assert warm.cache.misses == 0 and warm.cache.writes == 0
        # Bit-identical artifacts on the warm pass.
        for name in tiny_manifest.names():
            cold_text = (tmp_path / "r1" / f"{name}.txt").read_text()
            warm_text = (tmp_path / "r2" / f"{name}.txt").read_text()
            assert cold_text == warm_text

    def test_interrupted_reproduce_resumes_bit_identical(
        self, tiny_manifest, tmp_path
    ):
        cold = run_reproduction(tiny_manifest, results_dir=tmp_path / "cold")
        store_dir = tmp_path / "store"
        run_reproduction(
            tiny_manifest,
            results_dir=tmp_path / "full",
            context=ExecutionContext(store=ExperimentStore(store_dir)),
        )
        # Simulate the kill: drop a subset of the persisted shards, then
        # resume into a fresh results dir.
        store = ExperimentStore(store_dir)
        keys = sorted(store.iter_keys())
        assert keys, "sweep-backed artifacts must persist shards"
        for key in keys[::2]:
            store.path_for(key).unlink()
        resumed = run_reproduction(
            tiny_manifest,
            results_dir=tmp_path / "resumed",
            context=ExecutionContext(store=store),
        )
        assert 0 < resumed.cache.hits < len(keys)
        for run in cold.runs:
            cold_text = (tmp_path / "cold" / f"{run.spec.name}.txt").read_text()
            res_text = (
                tmp_path / "resumed" / f"{run.spec.name}.txt"
            ).read_text()
            assert cold_text == res_text

    def test_only_filter(self, tiny_manifest, tmp_path):
        report = run_reproduction(
            tiny_manifest,
            results_dir=tmp_path / "res",
            only=["table1"],
        )
        assert [r.spec.name for r in report.runs] == ["table1"]
        assert not (tmp_path / "res" / "fig5-tiny.txt").exists()


def _finite_shards(config, jsq, context):
    (drops,) = SweepExecutor(context).run_drops([_request(config, jsq)])
    return drops, 3


def _stream_shards(config, jsq, context):
    from repro.serving.engine import StreamRequest, run_stream_request

    request = StreamRequest(
        config=config,
        policy=jsq,
        horizon=6,
        window=3,
        num_replicas=4,
        seed=1,
        max_batch_replicas=2,
    )
    result = run_stream_request(request, context=context)
    return np.concatenate([result.summaries.ravel(), result.window_rows.ravel()]), 2


def _training_shards(config, jsq, context):
    from repro.config import PPOConfig
    from repro.experiments.campaign import (
        RegimeSpec,
        TrainingBudget,
        run_campaign,
    )

    regime = RegimeSpec(
        name="tiny",
        config=_config(num_clients=40, num_queues=4, buffer_size=2),
        horizon=5,
    )
    ppo = PPOConfig(
        train_batch_size=20, minibatch_size=10, num_epochs=1, hidden_sizes=(8,)
    )
    budget = TrainingBudget(
        iterations=1, num_envs=1, critic_warmup=0, eval_episodes=2
    )
    (result,) = run_campaign([regime], ppo, budget, context=context).values()
    state = result.policy.network.state_dict()
    return np.concatenate([result.curve, *(v.ravel() for v in state.values())]), 1


class TestWriteFailureTolerance:
    @pytest.mark.parametrize(
        "run",
        [_finite_shards, _stream_shards, _training_shards],
        ids=["finite", "stream", "training"],
    )
    def test_unwritable_store_degrades_to_warning(
        self, config, jsq, store, monkeypatch, run
    ):
        """A store that cannot persist must not abort the run or change
        its numbers — the computed result is already correct."""
        cold, num_shards = run(config, jsq, ExecutionContext())

        def broken_put(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store, "put_entry", broken_put)
        with pytest.warns(RuntimeWarning, match="store write failed"):
            cached, _ = run(config, jsq, ExecutionContext(store=store))
        assert cold.tobytes() == cached.tobytes()
        assert store.stats.write_errors == num_shards
        assert len(store) == 0

    def test_preflight_rejects_unregistered_scenario(self, tmp_path):
        manifest = ReproductionManifest.from_dict(
            {
                "artifacts": {
                    "x": {"kind": "scenario", "scenario": "not-a-scenario"}
                }
            }
        )
        with pytest.raises(ValueError, match="unregistered scenario"):
            run_reproduction(manifest, results_dir=tmp_path / "res")
