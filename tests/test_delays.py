"""Observation-delay models and the delayed finite environment."""

import numpy as np
import pytest

from repro.config import paper_system_config
from repro.execution import ExecutionContext
from repro.policies.static import JoinShortestQueuePolicy
from repro.queueing.batched_env import BatchedFiniteSystemEnv
from repro.queueing.delayed_env import BatchedDelayedFiniteEnv
from repro.queueing.hybrid_env import BatchedHybridFleetEnv
from repro.queueing.delays import (
    DeterministicDelay,
    IIDDelay,
    MarkovModulatedDelay,
)


class TestDelayModels:
    def test_deterministic_point_mass(self):
        model = DeterministicDelay(2)
        assert model.max_delay == 2
        assert np.array_equal(model.pmf(), [0.0, 0.0, 1.0])
        assert not model.is_point_mass_at_zero
        assert DeterministicDelay(0).is_point_mass_at_zero
        assert model.mean_delay() == 2.0

    def test_iid_pmf_validation(self):
        model = IIDDelay([0.5, 0.3, 0.2])
        assert model.max_delay == 2
        assert model.mean_delay() == pytest.approx(0.7)
        with pytest.raises(ValueError):
            IIDDelay([0.5, 0.6])
        with pytest.raises(ValueError):
            IIDDelay([-0.1, 1.1])
        with pytest.raises(ValueError):
            DeterministicDelay(-1)

    def test_markov_modulated_regimes(self):
        model = MarkovModulatedDelay.synced_degraded(
            degraded_pmf=(0.25, 0.5, 0.25), p_degrade=0.1, p_recover=0.5
        )
        assert model.num_regimes == 2
        assert np.array_equal(model.pmf(0), [1.0, 0.0, 0.0])
        assert model.mean_delay(1) == pytest.approx(1.0)
        # Stationary regime mix: degraded 0.1 / (0.1 + 0.5) of the time.
        stationary = model.stationary_pmf()
        assert stationary[0] == pytest.approx(1.0 - (0.1 / 0.6) * 0.75)
        regimes = model.sample_initial_regimes_batch(4, rng=0)
        assert np.all(regimes == 0)  # starts synced
        stepped = model.step_regimes_batch(regimes, rng=0)
        assert stepped.shape == (4,)
        with pytest.raises(ValueError):
            model.step_regimes_batch(np.asarray([5]))

    def test_fractions_point_mass_skips_rng(self):
        model = DeterministicDelay(1)
        fractions = model.sample_fractions_batch(
            np.zeros(3, dtype=np.intp), 100, rng=None
        )
        assert np.array_equal(fractions, np.tile([0.0, 1.0], (3, 1)))

    def test_fractions_multinomial(self):
        model = IIDDelay([0.5, 0.5])
        fractions = model.sample_fractions_batch(
            np.zeros(2, dtype=np.intp), 1000, rng=0
        )
        assert fractions.shape == (2, 2)
        assert np.allclose(fractions.sum(axis=1), 1.0)
        assert np.all(np.abs(fractions[:, 0] - 0.5) < 0.1)

    def test_pickles(self):
        import pickle

        model = MarkovModulatedDelay.synced_degraded()
        clone = pickle.loads(pickle.dumps(model))
        assert np.array_equal(clone.pmfs, model.pmfs)


class TestDelayedEnv:
    @pytest.fixture()
    def config(self):
        return paper_system_config(num_queues=12, num_clients=60).with_updates(
            delta_t=3.0
        )

    @pytest.fixture()
    def policy(self, config):
        return JoinShortestQueuePolicy(config.num_queue_states, config.d)

    def test_point_mass_bit_identical_to_dense(self, config, policy):
        """Delay age 0 is the paper's model — same random stream, same
        trajectory as the undelayed batched environment."""
        dense = BatchedFiniteSystemEnv(
            config, num_replicas=3, per_packet_randomization=True, seed=11
        )
        delayed = BatchedDelayedFiniteEnv(
            config, num_replicas=3, delay_model=DeterministicDelay(0), seed=11
        )
        dense.reset(5)
        delayed.reset(5)
        for _ in range(15):
            _, _, info_a = dense.step_with_policy(policy)
            _, _, info_b = delayed.step_with_policy(policy)
            assert np.array_equal(dense.queue_states, delayed.queue_states)
            assert np.array_equal(
                info_a["drops_total"], info_b["drops_total"]
            )
            assert np.array_equal(
                info_a["arrival_rates"], info_b["arrival_rates"]
            )

    @pytest.mark.parametrize("preserve_jobs", [False, True])
    def test_point_mass_routes_against_post_event_states(
        self, config, policy, preserve_jobs
    ):
        """Age 0 routes against the live states, after this epoch's
        chaos events moved or dropped jobs, exactly as the dense env."""
        from repro.queueing.chaos import DegradationSchedule, ServerOutage

        chaos = DegradationSchedule(
            (
                ServerOutage(
                    epoch=4, queues=(0, 1, 2), preserve_jobs=preserve_jobs
                ),
            )
        )
        dense = BatchedFiniteSystemEnv(
            config, 3, per_packet_randomization=True, chaos=chaos
        )
        delayed = BatchedDelayedFiniteEnv(
            config, 3, delay_model=DeterministicDelay(0), chaos=chaos
        )
        dense.reset(5)
        delayed.reset(5)
        for _ in range(10):
            _, _, info_a = dense.step_with_policy(policy)
            _, _, info_b = delayed.step_with_policy(policy)
            assert np.array_equal(
                info_a["arrival_rates"], info_b["arrival_rates"]
            )
        assert np.array_equal(dense.queue_states, delayed.queue_states)

    @pytest.mark.parametrize(
        "make_env",
        [
            lambda cfg, model: BatchedDelayedFiniteEnv(
                cfg, 2, delay_model=model
            ),
            lambda cfg, model: BatchedHybridFleetEnv(
                cfg, 2, 6, delay_model=model, per_packet_randomization=True
            ),
        ],
        ids=["delayed", "hybrid"],
    )
    @pytest.mark.parametrize("bad", [3, "iid", {0: 1.0}])
    def test_rejects_non_delay_model(self, config, make_env, bad):
        with pytest.raises(ValueError, match="must be a DelayModel"):
            make_env(config, bad)

    def test_snapshot_ring_buffer(self, config, policy):
        env = BatchedDelayedFiniteEnv(
            config, num_replicas=2, delay_model=DeterministicDelay(2), seed=0
        )
        env.reset(0)
        # Before any step every age clamps to the initial snapshot.
        assert np.array_equal(env.snapshot(0), env.snapshot(2))
        states = [env.queue_states]
        for _ in range(3):
            env.step_with_policy(policy)
            states.append(env.queue_states)
        assert np.array_equal(env.snapshot(0), states[-1])
        assert np.array_equal(env.snapshot(2), states[-3])
        with pytest.raises(ValueError):
            env.snapshot(3)

    def test_stale_shaped_snapshots_error_until_rebuilt(self, config, policy):
        """Regression: after a fleet-geometry mutation the ring still
        holds ``(E, M_old)`` snapshots — routing against one would
        corrupt the gather, so ``snapshot`` must refuse loudly until
        ``rebuild_snapshots`` re-seeds the history."""
        env = BatchedDelayedFiniteEnv(
            config, num_replicas=2, delay_model=DeterministicDelay(2), seed=0
        )
        env.reset(0)
        for _ in range(3):
            env.step_with_policy(policy)
        # Mutate the geometry the way resize_queue_fleet does.
        keep = config.num_queues - 2
        env._states = env._states[:, :keep].copy()
        env.service_rates = env.service_rates[:keep].copy()
        env.config = config.with_updates(
            num_queues=keep, num_clients=config.num_clients
        )
        with pytest.raises(RuntimeError, match="rebuild_snapshots"):
            env.snapshot(1)
        env.rebuild_snapshots()
        # The ring restarts from the current state: every age clamps to
        # the freshly-seeded snapshot, at the new width.
        assert np.array_equal(env.snapshot(0), env._states)
        assert np.array_equal(env.snapshot(2), env._states)
        assert env.snapshot(1).shape == (2, keep)

    def test_rebuild_snapshots_requires_reset(self, config):
        env = BatchedDelayedFiniteEnv(
            config, num_replicas=2, delay_model=DeterministicDelay(1), seed=0
        )
        with pytest.raises(RuntimeError, match="reset"):
            env.rebuild_snapshots()

    def test_stochastic_delays_change_the_stream(self, config, policy):
        """A non-degenerate delay model consumes extra randomness and
        routes against stale snapshots — trajectories must diverge from
        the dense env (staleness has consequences)."""
        dense = BatchedFiniteSystemEnv(
            config, num_replicas=4, per_packet_randomization=True, seed=3
        )
        delayed = BatchedDelayedFiniteEnv(
            config,
            num_replicas=4,
            delay_model=IIDDelay([0.25, 0.5, 0.25]),
            seed=3,
        )
        dense.reset(3)
        delayed.reset(3)
        diverged = False
        for _ in range(10):
            dense.step_with_policy(policy)
            delayed.step_with_policy(policy)
            if not np.array_equal(dense.queue_states, delayed.queue_states):
                diverged = True
        assert diverged

    def test_arrival_mass_conserved(self, config, policy):
        """The delay mixture thins the same global Poisson stream: the
        frozen rates must sum to M·λ_t per replica, like the dense env."""
        env = BatchedDelayedFiniteEnv(
            config,
            num_replicas=3,
            delay_model=IIDDelay([0.5, 0.3, 0.2]),
            seed=7,
        )
        env.reset(7)
        for _ in range(5):
            lam = env.current_rates.copy()
            _, _, info = env.step_with_policy(policy)
            assert np.allclose(
                info["arrival_rates"].sum(axis=1),
                config.num_queues * lam,
            )

    def test_regime_chain_advances(self, config, policy):
        model = MarkovModulatedDelay.synced_degraded(
            p_degrade=0.9, p_recover=0.1
        )
        env = BatchedDelayedFiniteEnv(
            config, num_replicas=4, delay_model=model, seed=1
        )
        env.reset(1)
        seen_degraded = False
        for _ in range(10):
            _, _, info = env.step_with_policy(policy)
            if np.any(info["delay_regimes"] == 1):
                seen_degraded = True
        assert seen_degraded

    def test_live_age_policies_get_per_replica_contexts(self, config):
        """``step_with_policy`` feeds live-age policies the age context
        of each replica's current delay regime."""
        from repro.meanfield.features import (
            ObservationFeatures,
            regime_age_contexts_batch,
        )
        from repro.policies.learned import NeuralPolicy
        from repro.rl.nn import GaussianPolicyNetwork

        class RecordingPolicy(NeuralPolicy):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.seen_contexts = []

            def decision_rules_batch(
                self, nus, lam_modes, rng=None, age_contexts=None
            ):
                self.seen_contexts.append(age_contexts)
                return super().decision_rules_batch(
                    nus, lam_modes, rng, age_contexts=age_contexts
                )

        s, d = config.num_queue_states, config.d
        network = GaussianPolicyNetwork(
            s + 2 + 2, s**d * d, hidden_sizes=(16,),
            rng=np.random.default_rng(0),
        )
        model = MarkovModulatedDelay.synced_degraded()
        policy = RecordingPolicy(
            network,
            num_states=s,
            d=d,
            features=ObservationFeatures(age=True, live_age=True),
            age_context=(0.1, 0.2),
        )
        env = BatchedDelayedFiniteEnv(
            config, num_replicas=6, delay_model=model, seed=3
        )
        env.reset(3)
        for _ in range(12):
            regimes_before = env.delay_regimes
            env.step_with_policy(policy)
            expected = regime_age_contexts_batch(model, regimes_before)
            assert np.array_equal(policy.seen_contexts[-1], expected)
        # Both regimes were visited, so the channel actually varied.
        stacked = np.concatenate(policy.seen_contexts)
        assert len(np.unique(stacked[:, 1])) > 1

    def test_frozen_age_policies_keep_the_parent_path(self, config):
        """Policies without live_age go through the parent query — the
        trajectory matches a frozen-context policy queried manually."""
        from repro.meanfield.features import ObservationFeatures
        from repro.policies.learned import NeuralPolicy
        from repro.rl.nn import GaussianPolicyNetwork

        s, d = config.num_queue_states, config.d
        network = GaussianPolicyNetwork(
            s + 2 + 2, s**d * d, hidden_sizes=(16,),
            rng=np.random.default_rng(1),
        )
        model = MarkovModulatedDelay.synced_degraded()

        def rollout(policy):
            env = BatchedDelayedFiniteEnv(
                config, num_replicas=4, delay_model=model, seed=7
            )
            env.reset(2)
            drops = []
            for _ in range(10):
                _, _, info = env.step_with_policy(policy)
                drops.append(info["drops_total"].copy())
            return np.asarray(drops)

        frozen = NeuralPolicy(
            network,
            num_states=s,
            d=d,
            features=ObservationFeatures(age=True),
            age_context=(0.1, 0.2),
        )
        assert np.array_equal(rollout(frozen), rollout(frozen))

    def test_committed_choice_rejected(self, config):
        with pytest.raises(ValueError):
            BatchedDelayedFiniteEnv(
                config, num_replicas=2, per_packet_randomization=False
            )

    def test_sweeps_through_executor(self, config):
        """Delayed envs shard through the orchestrator like any other
        batched environment (pickling, chunk merging)."""
        from repro.experiments.parallel import EvalRequest, SweepExecutor

        policy = JoinShortestQueuePolicy(config.num_queue_states, config.d)
        request = EvalRequest(
            config=config,
            policy=policy,
            num_runs=4,
            num_epochs=5,
            seed=0,
            max_batch_replicas=2,
            env_cls=BatchedDelayedFiniteEnv,
            env_kwargs={"delay_model": IIDDelay([0.5, 0.5])},
        )
        serial = SweepExecutor().run([request])[0]
        pooled = SweepExecutor(ExecutionContext(workers=2)).run([request])[0]
        assert np.array_equal(serial.drops, pooled.drops)
