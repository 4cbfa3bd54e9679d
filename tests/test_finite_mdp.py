"""Tests for the finite-fidelity training adapter.

:class:`repro.queueing.finite_mdp.FiniteRegimeEnv` exposes one replica
of the finite delayed system through the MFC training protocol, so the
campaign's delayed regimes can fine-tune on the deployment dynamics
(where the delay cost actually lives) instead of the mean-field proxy.
The contracts locked here: protocol geometry, observation composition
(exactly what the deployed policy computes), seeded determinism, the
chunk-invariant collection the campaign's resumability leans on, and
the ``RegimeSpec.fidelity`` wiring.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import PPOConfig, SystemConfig
from repro.experiments.campaign import (
    RegimeSpec,
    TrainingBudget,
    default_regimes,
    train_regime,
)
from repro.meanfield.delayed_env import DelayedMeanFieldEnv
from repro.meanfield.features import (
    ObservationFeatures,
    age_context,
    regime_age_context,
)
from repro.queueing.delays import MarkovModulatedDelay
from repro.queueing.finite_mdp import FiniteRegimeEnv
from repro.rl.nn import GaussianPolicyNetwork, ValueNetwork
from repro.rl.rollout import RolloutCollector
from repro.store.keys import train_shard_key

_SYSTEM = SystemConfig(
    num_clients=64,
    num_queues=8,
    buffer_size=2,
    d=2,
    delta_t=5.0,
    episode_length=15,
    monte_carlo_runs=2,
)

_DELAY = MarkovModulatedDelay.synced_degraded()

_FEATURES = ObservationFeatures(age=True, live_age=True)


def _env(**kwargs) -> FiniteRegimeEnv:
    defaults = dict(
        config=_SYSTEM,
        horizon=12,
        delay_model=_DELAY.replica(),
        features=_FEATURES,
        seed=0,
    )
    defaults.update(kwargs)
    return FiniteRegimeEnv(**defaults)


class TestProtocolGeometry:
    def test_observation_layout(self):
        env = _env()
        s = _SYSTEM.num_queue_states
        assert env.observation_size == s + env.num_modes + 2
        assert env.action_size == s**_SYSTEM.d * _SYSTEM.d
        obs = env.reset(3)
        assert obs.shape == (env.observation_size,)
        hist, one_hot = obs[:s], obs[s : s + env.num_modes]
        assert hist.sum() == pytest.approx(1.0)
        assert np.all(hist >= 0.0)
        assert sorted(one_hot) == [0.0, 1.0]
        # The tail is the live age context of the replica's regime.
        assert tuple(obs[-2:]) == regime_age_context(
            env._env.delay_model, env.delay_regime
        )

    def test_featureless_observation(self):
        env = _env(features=None)
        obs = env.reset(3)
        assert obs.shape == (
            _SYSTEM.num_queue_states + env.num_modes,
        )

    def test_horizon_validation_and_default(self):
        with pytest.raises(ValueError, match="horizon"):
            _env(horizon=0)
        assert _env(horizon=None).horizon == _SYSTEM.episode_length

    def test_episode_truncates_at_horizon(self):
        env = _env(horizon=5)
        env.reset(0)
        raw = np.zeros(env.action_size)
        for t in range(1, 6):
            _, _, done, info = env.step_raw(raw)
            assert done == (t == 5)
            assert info["t"] == t and info["truncated"] == done
        # reset rewinds the clock
        env.reset(1)
        assert env.step_raw(raw)[2] is False


class TestDeterminism:
    def _trajectory(self, env, seed, steps=8):
        obs = [env.reset(seed)]
        rewards = []
        rng = np.random.default_rng(99)
        for _ in range(steps):
            o, r, _, _ = env.step_raw(rng.normal(size=env.action_size))
            obs.append(o)
            rewards.append(r)
        return np.asarray(obs), np.asarray(rewards)

    def test_seeded_trajectories_are_identical(self):
        o1, r1 = self._trajectory(_env(seed=0), seed=42)
        o2, r2 = self._trajectory(_env(seed=1), seed=42)
        assert np.array_equal(o1, o2) and np.array_equal(r1, r2)

    def test_clone_is_independent(self):
        env = _env()
        env.reset(7)
        before = env.observation()
        clone = env.clone(seed=5)
        clone.reset(5)
        clone.step_raw(np.zeros(clone.action_size))
        assert np.array_equal(env.observation(), before)
        assert clone.horizon == env.horizon
        assert clone.features is env.features

    def test_generator_seeds_accepted(self):
        # The vector collector resets with Generators, not ints.
        o1 = _env().reset(np.random.default_rng(11))
        o2 = _env().reset(np.random.default_rng(11))
        assert np.array_equal(o1, o2)


class TestLiveAgeObservation:
    def test_tail_tracks_the_current_regime(self):
        env = _env()
        env.reset(2)
        raw = np.zeros(env.action_size)
        seen = set()
        for _ in range(40):
            obs, _, done, _ = env.step_raw(raw)
            expected = regime_age_context(
                env._env.delay_model, env.delay_regime
            )
            assert tuple(obs[-2:]) == expected
            seen.add(env.delay_regime)
            if done:
                env.reset(None)
        assert seen == {0, 1}

    def test_frozen_age_tail_is_stationary(self):
        env = _env(features=ObservationFeatures(age=True))
        frozen = age_context(env._env.delay_model)
        env.reset(2)
        raw = np.zeros(env.action_size)
        for _ in range(10):
            obs, _, done, _ = env.step_raw(raw)
            assert tuple(obs[-2:]) == frozen
            if done:
                env.reset(None)


class TestCollection:
    def _nets(self, env):
        policy = GaussianPolicyNetwork(
            obs_dim=env.observation_size,
            action_dim=env.action_size,
            hidden_sizes=(16,),
            rng=0,
        )
        value = ValueNetwork(
            obs_dim=env.observation_size, hidden_sizes=(16,), rng=1
        )
        return policy, value

    def test_batch_invariant_to_chunking(self):
        # The campaign's purity contract must hold on the finite env
        # too: independent per-env streams make the collected batch a
        # function of the global column indices, not the fleet split.
        env = _env()
        policy, value = self._nets(env)
        steps = 24

        def chunk(num, offset):
            collector = RolloutCollector(
                [_env() for _ in range(num)],
                policy,
                value,
                gamma=0.99,
                gae_lambda=0.95,
                seed=123,
                independent_streams=True,
                stream_offset=offset,
            )
            return collector.collect(steps * num)

        full = chunk(2, 0)
        left = chunk(1, 0)
        right = chunk(1, 1)
        merged_obs = np.concatenate(
            [
                left.obs.reshape(steps, 1, -1),
                right.obs.reshape(steps, 1, -1),
            ],
            axis=1,
        ).reshape(-1, env.observation_size)
        assert np.array_equal(full.obs, merged_obs)
        merged_rewards = np.column_stack(
            [left.rewards, right.rewards]
        ).reshape(-1)
        assert np.array_equal(full.rewards, merged_rewards)

    def test_ppo_smoke(self):
        from repro.rl.ppo import PPOTrainer

        env = _env()
        ppo = PPOConfig(
            train_batch_size=48,
            minibatch_size=24,
            num_epochs=2,
            hidden_sizes=(16,),
            seed=0,
        )
        trainer = PPOTrainer(
            env, ppo, seed=0, num_envs=2, independent_streams=True
        )
        stats = trainer.train_iteration()
        assert np.isfinite(stats.mean_episode_return)
        assert stats.mean_episode_return < 0.0  # drops are penalized


class TestFidelityWiring:
    def _regime(self, **kwargs) -> RegimeSpec:
        defaults = dict(
            name="tiny-finite",
            config=_SYSTEM,
            delay_model=_DELAY.replica(),
            features=_FEATURES,
            horizon=10,
            fidelity="finite",
        )
        defaults.update(kwargs)
        return RegimeSpec(**defaults)

    def test_build_env_dispatches_on_fidelity(self):
        assert isinstance(self._regime().build_env(0), FiniteRegimeEnv)
        assert isinstance(
            self._regime(fidelity="meanfield").build_env(0),
            DelayedMeanFieldEnv,
        )

    def test_invalid_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            self._regime(fidelity="exact")

    def test_fidelity_moves_the_shard_key(self):
        ppo = PPOConfig(seed=0)
        budget = TrainingBudget(
            iterations=2, num_envs=2, critic_warmup=1, eval_episodes=3
        )
        assert train_shard_key(
            self._regime(), ppo, budget, 0
        ) != train_shard_key(
            self._regime(fidelity="meanfield"), ppo, budget, 0
        )

    def test_default_catalogue_fidelities(self):
        regimes = {r.name: r for r in default_regimes()}
        for name, spec in regimes.items():
            expected = "finite" if name.startswith("dt") else "meanfield"
            assert spec.fidelity == expected, name

    def test_train_regime_finite_end_to_end(self):
        regime = self._regime()
        ppo = PPOConfig(
            learning_rate=1e-3,
            train_batch_size=40,
            minibatch_size=20,
            num_epochs=2,
            hidden_sizes=(16,),
            seed=0,
        )
        budget = TrainingBudget(
            iterations=2, num_envs=2, critic_warmup=1, eval_episodes=3
        )
        res = train_regime(regime, ppo, budget, seed=0)
        assert res.meta["fidelity"] == "finite"
        assert res.meta["kept"] in ("trained", "warm-start")
        assert np.isfinite(res.meta["trained_return"])
        assert len(res.curve) == budget.critic_warmup + budget.iterations
        # No packaged warm start matches the tiny geometry, so training
        # started fresh and the trained verdict stands.
        assert res.meta["warm_return"] is None

    def test_finite_eval_is_paired(self):
        # Same policy evaluated twice must give the exact same CI:
        # the keep-best comparison relies on common random numbers.
        from repro.experiments.campaign import _evaluate_finite
        from repro.policies.learned import NeuralPolicy

        regime = self._regime()
        network = GaussianPolicyNetwork(
            obs_dim=_SYSTEM.num_queue_states + 2 + 2,
            action_dim=_SYSTEM.num_queue_states**2 * 2,
            hidden_sizes=(16,),
            rng=3,
        )
        policy = NeuralPolicy(
            network,
            num_states=_SYSTEM.num_queue_states,
            d=_SYSTEM.d,
            num_modes=2,
            features=_FEATURES,
            age_context=regime.age_context(),
        )
        budget = TrainingBudget(
            iterations=1, num_envs=1, eval_episodes=4, eval_seed=5
        )
        a = _evaluate_finite(regime, policy, budget)
        b = _evaluate_finite(regime, policy, budget)
        assert a.mean == b.mean and a.lower == b.lower


def test_delayed_catalogue_regimes_are_live_age_finite():
    spec = next(r for r in default_regimes() if r.name == "dt5")
    assert spec.fidelity == "finite"
    assert spec.features.live_age
    replaced = dataclasses.replace(spec, fidelity="meanfield")
    assert isinstance(replaced.build_env(0), DelayedMeanFieldEnv)
