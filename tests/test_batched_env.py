"""Tests for the replica-batched simulation backend."""

import numpy as np
import pytest

from repro.execution import ExecutionContext
from repro.meanfield.decision_rule import DecisionRule
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
from repro.queueing.arrivals import ScriptedRate
from repro.queueing.batched_env import (
    BatchedFiniteSystemEnv,
    BatchedInfiniteClientEnv,
    run_episodes_batched,
)
from repro.queueing.clients import stack_rules
from repro.queueing.queue_ctmc import simulate_queues_epoch_batched


class TestGeometry:
    def test_invalid_num_replicas(self, small_config):
        with pytest.raises(ValueError):
            BatchedFiniteSystemEnv(small_config, num_replicas=0)

    def test_requires_reset(self, small_config):
        env = BatchedFiniteSystemEnv(small_config, num_replicas=3, seed=0)
        with pytest.raises(RuntimeError):
            env.empirical_distributions()
        with pytest.raises(RuntimeError):
            env.step(DecisionRule.uniform(6, 2))

    def test_state_shapes(self, small_config):
        env = BatchedFiniteSystemEnv(small_config, num_replicas=4, seed=0)
        hists = env.reset(seed=1)
        m = small_config.num_queues
        assert hists.shape == (4, 6)
        assert np.allclose(hists.sum(axis=1), 1.0)
        assert env.queue_states.shape == (4, m)
        assert env.lam_modes.shape == (4,)
        assert env.current_rates.shape == (4,)
        hists, rewards, info = env.step(DecisionRule.uniform(6, 2))
        assert hists.shape == (4, 6)
        assert rewards.shape == (4,)
        assert info["drops_total"].shape == (4,)
        assert info["arrival_rates"].shape == (4, m)

    def test_rule_geometry_validated(self, small_config):
        env = BatchedFiniteSystemEnv(small_config, num_replicas=2, seed=0)
        env.reset(seed=1)
        with pytest.raises(ValueError):
            env.step(DecisionRule.uniform(4, 2))
        with pytest.raises(ValueError):
            env.step(DecisionRule.uniform(6, 3))

    def test_per_replica_rule_count_validated(self, small_config):
        env = BatchedFiniteSystemEnv(small_config, num_replicas=3, seed=0)
        env.reset(seed=1)
        with pytest.raises(ValueError):
            env.step([DecisionRule.uniform(6, 2)] * 2)  # 2 rules, 3 replicas

    def test_stack_rules_geometry(self):
        jsq = DecisionRule.join_shortest(6, 2)
        stacked = stack_rules(jsq, 5)
        assert stacked.shape == (5, 6, 6, 2)
        with pytest.raises(ValueError):
            stack_rules([jsq, DecisionRule.uniform(4, 2)], 2)

    def test_batched_kernel_validation(self):
        with pytest.raises(ValueError):
            simulate_queues_epoch_batched(
                np.zeros(5, dtype=int), np.zeros((1, 5)), 1.0, 1.0, 5
            )
        with pytest.raises(ValueError):
            simulate_queues_epoch_batched(
                np.zeros((2, 5), dtype=int), np.zeros((2, 4)), 1.0, 1.0, 5
            )

    def test_service_rate_override_validated(self, small_config):
        with pytest.raises(ValueError):
            BatchedFiniteSystemEnv(
                small_config, num_replicas=2, service_rates=np.ones(3)
            )


class TestScalarEquivalence:
    """The runner's one-replica chunks are reproducible by hand."""

    @pytest.mark.parametrize("per_packet", [False, True])
    def test_finite_episode_bit_identical(self, small_config, per_packet):
        """``max_batch_replicas=1`` runs replica ``i`` as an ``E = 1``
        episode seeded by the ``i``-th spawned child of the master seed."""
        _assert_unit_chunks_match_manual_loop(
            small_config,
            JoinShortestQueuePolicy(6, 2),
            BatchedFiniteSystemEnv,
            {"per_packet_randomization": per_packet},
        )

    def test_infinite_episode_bit_identical(self, small_config):
        _assert_unit_chunks_match_manual_loop(
            small_config, RandomPolicy(6, 2), BatchedInfiniteClientEnv, {}
        )


def _assert_unit_chunks_match_manual_loop(config, policy, env_cls, env_kwargs):
    from repro.experiments.runner import evaluate_policy_finite

    runs, epochs, seed = 3, 20, 42
    result = evaluate_policy_finite(
        config, policy, num_runs=runs, num_epochs=epochs, seed=seed,
        env_cls=env_cls, env_kwargs=env_kwargs,
        context=ExecutionContext(max_batch_replicas=1),
    )
    manual = []
    for child in np.random.SeedSequence(seed).spawn(runs):
        rng = np.random.default_rng(child)
        env = env_cls(config, num_replicas=1, seed=rng, **env_kwargs)
        episode = run_episodes_batched(env, policy, num_epochs=epochs, seed=rng)
        manual.append(episode.total_drops_per_queue[0])
    assert np.array_equal(result.drops, manual)


class TestBatchedDynamics:
    def test_states_remain_in_buffer_range(self, small_config, rng):
        env = BatchedFiniteSystemEnv(small_config, num_replicas=5, seed=rng)
        env.reset(rng)
        rule = DecisionRule.join_shortest(6, 2)
        for _ in range(10):
            env.step(rule)
            states = env.queue_states
            assert states.min() >= 0
            assert states.max() <= small_config.buffer_size

    def test_reproducibility(self, small_config):
        results = []
        for _ in range(2):
            env = BatchedFiniteSystemEnv(small_config, num_replicas=4)
            result = run_episodes_batched(
                env, RandomPolicy(6, 2), num_epochs=10, seed=42
            )
            results.append(result.total_drops_per_queue)
        assert np.array_equal(results[0], results[1])

    def test_replicas_are_independent(self, small_config):
        """Different replicas see different draws (not copies)."""
        env = BatchedFiniteSystemEnv(small_config, num_replicas=8, seed=0)
        result = run_episodes_batched(env, RandomPolicy(6, 2), num_epochs=20, seed=3)
        assert np.unique(result.total_drops_per_queue).size > 1

    def test_scripted_rate_shared_across_replicas(self, small_config):
        """ScriptedRate conditions all replicas on one mode trajectory."""
        scripted = ScriptedRate([0.9, 0.6], [0, 1, 0, 1, 0])
        env = BatchedFiniteSystemEnv(
            small_config, num_replicas=3, arrival_process=scripted, seed=0
        )
        env.reset(seed=1)
        assert np.array_equal(env.lam_modes, [0, 0, 0])
        env.step(DecisionRule.uniform(6, 2))
        assert np.array_equal(env.lam_modes, [1, 1, 1])

    def test_mixed_per_replica_rules(self, small_config):
        """JSQ replicas should out-perform join-longest replicas."""
        env = BatchedFiniteSystemEnv(small_config, num_replicas=4, seed=0)
        env.reset(seed=2)
        rules = [
            DecisionRule.join_shortest(6, 2),
            DecisionRule.join_shortest(6, 2),
            DecisionRule.join_longest(6, 2),
            DecisionRule.join_longest(6, 2),
        ]
        total = np.zeros(4)
        for _ in range(25):
            _, _, info = env.step(rules)
            total += info["drops_per_queue"]
        assert total[:2].sum() < total[2:].sum()

    def test_statistical_equivalence_with_scalar(self, small_config):
        """Batched E-replica drops match a loop of independent E = 1
        runs in distribution (z-test on the mean, generous bound)."""
        policy = RandomPolicy(6, 2)
        runs = 24
        batched = run_episodes_batched(
            BatchedFiniteSystemEnv(small_config, num_replicas=runs, seed=0),
            policy,
            num_epochs=25,
            seed=0,
        ).total_drops_per_queue
        single = np.concatenate(
            [
                run_episodes_batched(
                    BatchedFiniteSystemEnv(
                        small_config, num_replicas=1, seed=100 + i
                    ),
                    policy,
                    num_epochs=25,
                    seed=200 + i,
                ).total_drops_per_queue
                for i in range(runs)
            ]
        )
        se = np.hypot(
            batched.std(ddof=1) / np.sqrt(runs), single.std(ddof=1) / np.sqrt(runs)
        )
        assert abs(batched.mean() - single.mean()) < 4.0 * se


class TestRunnerBackends:
    def test_backends_agree_in_distribution(self, small_config):
        """One 16-replica chunk and 16 one-replica chunks draw different
        streams but sample the same law."""
        from repro.experiments.runner import evaluate_policy_finite

        policy = RandomPolicy(6, 2)
        a = evaluate_policy_finite(
            small_config, policy, num_runs=16, num_epochs=15, seed=0,
        )
        b = evaluate_policy_finite(
            small_config, policy, num_runs=16, num_epochs=15, seed=0,
            context=ExecutionContext(max_batch_replicas=1),
        )
        se = np.hypot(
            a.drops.std(ddof=1) / 4.0, b.drops.std(ddof=1) / 4.0
        )
        assert abs(a.mean_drops - b.mean_drops) < 4.0 * se

    def test_batched_backend_chunking(self, small_config):
        from repro.experiments.runner import evaluate_policy_finite

        policy = RandomPolicy(6, 2)
        context = ExecutionContext(max_batch_replicas=3)
        result = evaluate_policy_finite(
            small_config, policy, num_runs=7, num_epochs=5, seed=3,
            context=context,
        )
        assert result.drops.shape == (7,)
        repeat = evaluate_policy_finite(
            small_config, policy, num_runs=7, num_epochs=5, seed=3,
            context=context,
        )
        assert np.array_equal(result.drops, repeat.drops)

    def test_unknown_backend_rejected(self, small_config):
        from repro.experiments.runner import evaluate_policy_finite

        with pytest.raises(ValueError, match="sim_backend"):
            evaluate_policy_finite(
                small_config, RandomPolicy(6, 2), num_runs=2,
                context=ExecutionContext(sim_backend="turbo"),
            )


class TestBatchedPolicyQueries:
    def test_neural_batch_matches_loop(self, small_config):
        from repro.policies.learned import NeuralPolicy
        from repro.rl.nn import GaussianPolicyNetwork

        net = GaussianPolicyNetwork(6 + 2, 6 * 6 * 2, (16,), rng=0)
        policy = NeuralPolicy(net, num_states=6, d=2, num_modes=2)
        rng = np.random.default_rng(0)
        nus = rng.dirichlet(np.ones(6), size=5)
        modes = np.array([0, 1, 0, 1, 1])
        batch = policy.decision_rules_batch(nus, modes)
        for i in range(5):
            single = policy.decision_rule(nus[i], int(modes[i]))
            assert np.allclose(batch[i].probs, single.probs)

    def test_lockstep_mfc_evaluation_matches_sequential(self, small_config):
        from repro.meanfield.mfc_env import MeanFieldEnv
        from repro.rl.evaluation import evaluate_policy_mfc

        env = MeanFieldEnv(small_config, horizon=15, seed=0)
        policy = JoinShortestQueuePolicy(6, 2)
        fast = evaluate_policy_mfc(env, policy, episodes=6, seed=11, lockstep=True)
        slow = evaluate_policy_mfc(env, policy, episodes=6, seed=11, lockstep=False)
        assert fast.mean == pytest.approx(slow.mean, rel=1e-9)

    def test_lockstep_clones_do_not_share_scripted_cursor(self, small_config):
        """Each lock-step clone replays the full scripted trajectory
        (a shared cursor would show every E-th mode per episode)."""
        from repro.meanfield.mfc_env import MeanFieldEnv
        from repro.rl.evaluation import evaluate_policy_mfc

        scripted = ScriptedRate([0.9, 0.6], [0, 1] * 10)
        env = MeanFieldEnv(
            small_config, horizon=12, arrival_process=scripted, seed=0
        )
        policy = JoinShortestQueuePolicy(6, 2)
        fast = evaluate_policy_mfc(env, policy, episodes=4, seed=3, lockstep=True)
        slow = evaluate_policy_mfc(env, policy, episodes=4, seed=3, lockstep=False)
        assert fast.mean == pytest.approx(slow.mean, rel=1e-9)

    def test_lockstep_keeps_stochastic_policies_stochastic(self, small_config):
        from repro.meanfield.mfc_env import MeanFieldEnv
        from repro.policies.learned import NeuralPolicy
        from repro.rl.evaluation import evaluate_policy_mfc
        from repro.rl.nn import GaussianPolicyNetwork

        net = GaussianPolicyNetwork(6 + 2, 6 * 6 * 2, (8,), rng=0)
        noisy = NeuralPolicy(net, num_states=6, d=2, deterministic=False)
        mean_only = NeuralPolicy(net, num_states=6, d=2, deterministic=True)
        env = MeanFieldEnv(small_config, horizon=10, seed=0)
        a = evaluate_policy_mfc(env, noisy, episodes=4, seed=7, lockstep=True)
        b = evaluate_policy_mfc(env, mean_only, episodes=4, seed=7, lockstep=True)
        assert a.mean != pytest.approx(b.mean)
