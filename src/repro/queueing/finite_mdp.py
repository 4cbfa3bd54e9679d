"""RL adapter: the finite delayed system as a single-trajectory MDP.

The training campaign's mean-field proxy (``DelayedMeanFieldEnv``) is
cheap and exact in the ``M -> ∞`` limit — but that limit is also its
blind spot. In the mean field the queue-state law drifts smoothly, so a
snapshot from ``k`` epochs ago barely differs from the current law and
the cost of routing on stale information nearly vanishes from the
training signal. On the *finite* deployment system the delay cost is
driven by exactly what the limit integrates out: fluctuations of the
empirical state, and dispatcher herding onto queues that looked short
``k`` epochs ago. A policy fine-tuned on the proxy therefore optimizes
a quantity that is almost flat in the direction the leaderboard
measures.

:class:`FiniteRegimeEnv` closes that gap by exposing one replica of
:class:`repro.queueing.delayed_env.BatchedDelayedFiniteEnv` through the
MFC environment protocol (``reset`` / ``step_raw`` / ``observation`` /
``clone``), so :class:`repro.rl.ppo.PPOTrainer` and the chunk-invariant
:class:`repro.rl.rollout.RolloutCollector` train on the
deployment dynamics themselves:

* the observation is the **empirical** distribution ``H_t`` — the same
  quantity the deployed policy is queried on — plus the arrival-mode
  one-hot and the regime's context features (live age context when
  ``features.live_age`` is set, matching the live channel of
  ``step_with_policy``);
* the reward is the realized ``-drop_penalty * drops_per_queue`` of the
  epoch, putting finite-``M`` fluctuation costs into the gradient;
* episodes truncate at ``horizon`` epochs and reset through the batched
  environment's own seeding discipline, so collection remains a pure
  function of the seeds (the campaign's resumability contract).
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.features import (
    ObservationFeatures,
    age_context,
    regime_age_context,
)
from repro.queueing.arrivals import MarkovModulatedRate
from repro.queueing.delayed_env import BatchedDelayedFiniteEnv
from repro.queueing.delays import DelayModel

__all__ = ["FiniteRegimeEnv"]


class FiniteRegimeEnv:
    """One finite-system replica behind the MFC training protocol.

    Parameters
    ----------
    config : SystemConfig
        Deployment system parameters (``num_queues`` is the *finite*
        fleet size the policy is tuned for).
    horizon : int, optional
        Episode length in epochs; defaults to ``config.episode_length``.
    delay_model : DelayModel, optional
        Snapshot-age model of the regime (default: synchronous).
    arrival_process : MarkovModulatedRate, optional
        As in the batched environment.
    features : ObservationFeatures, optional
        Context features appended to ``[H_t, one_hot(λ mode)]``.
    seed :
        Seed or generator for the underlying batched environment.
    """

    def __init__(
        self,
        config: SystemConfig,
        horizon: int | None = None,
        delay_model: DelayModel | None = None,
        arrival_process: MarkovModulatedRate | None = None,
        features: ObservationFeatures | None = None,
        seed=None,
    ) -> None:
        self.config = config
        self.horizon = int(
            horizon if horizon is not None else config.episode_length
        )
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        self.features = (
            features if features is not None else ObservationFeatures()
        )
        self._env = BatchedDelayedFiniteEnv(
            config,
            num_replicas=1,
            delay_model=delay_model,
            arrival_process=arrival_process,
            seed=seed,
        )
        self._age_context = (
            age_context(self._env.delay_model) if self.features.age else None
        )
        self._t = 0

    # ------------------------------------------------------------------
    @property
    def num_queue_states(self) -> int:
        return self.config.num_queue_states

    @property
    def num_modes(self) -> int:
        return self._env.arrivals.num_modes

    @property
    def observation_size(self) -> int:
        return (
            self.num_queue_states + self.num_modes + self.features.extra_dims
        )

    @property
    def action_size(self) -> int:
        return self.num_queue_states ** self.config.d * self.config.d

    @property
    def delay_regime(self) -> int:
        """Current delay regime of the single replica."""
        return int(self._env.delay_regimes[0])

    def live_age_context(self) -> tuple[float, float]:
        """Age context of the replica's current delay regime."""
        return regime_age_context(self._env.delay_model, self.delay_regime)

    # ------------------------------------------------------------------
    def observation(self) -> np.ndarray:
        """``[H_t, one_hot(λ mode), features]`` for the single replica —
        exactly what the deployed policy computes from the same state."""
        nu = self._env.empirical_distributions()[0]
        one_hot = np.zeros(self.num_modes)
        one_hot[int(self._env.lam_modes[0])] = 1.0
        base = np.concatenate([nu, one_hot])
        if not self.features.extra_dims:
            return base
        age = (
            self.live_age_context()
            if self.features.live_age
            else self._age_context
        )
        return np.concatenate([base, self.features.vector(nu, age=age)])

    def reset(self, seed=None) -> np.ndarray:
        self._env.reset(seed)
        self._t = 0
        return self.observation()

    def step_raw(
        self, raw_action: np.ndarray
    ) -> tuple[np.ndarray, float, bool, dict]:
        """Step with an unconstrained action vector (RL interface)."""
        rule = DecisionRule.from_raw(
            raw_action, self.num_queue_states, self.config.d
        )
        _, rewards, info = self._env.step([rule])
        self._t += 1
        done = self._t >= self.horizon
        step_info = {
            "drops": float(info["drops_per_queue"][0]),
            "lam": float(self._env.current_rates[0]),
            "t": self._t,
            "truncated": done,
            "delay_regime": int(info["delay_regimes"][0]),
        }
        return self.observation(), float(rewards[0]), done, step_info

    def clone(self, seed=None) -> "FiniteRegimeEnv":
        """Fresh environment with the same regime (lock-step ensembles)."""
        delay = self._env.delay_model
        arrivals = self._env.arrivals
        return FiniteRegimeEnv(
            self.config,
            horizon=self.horizon,
            delay_model=delay.replica() if delay is not None else None,
            arrival_process=(
                arrivals.replica() if arrivals is not None else None
            ),
            features=self.features,
            seed=seed,
        )
