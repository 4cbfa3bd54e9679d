"""PPO with a Dirichlet action head — the paper's negative ablation.

Section 4: "we have tried Dirichlet-parameterized upper-level policies
to directly output simplex-valued actions in order to eliminate the need
for manual normalization, [but] performance was significantly worse,
hence motivating our approach [Gaussian + normalization]".

This trainer reproduces that comparison: the network emits concentration
logits for ``S^d`` independent Dirichlet(d) blocks (one per sampled
state combination); sampled actions are already valid decision-rule
tables. It subclasses :class:`repro.rl.ppo.PPOTrainer` and overrides
only the action-head hooks, so collection, GAE, the clipped surrogate
with adaptive KL penalty, the clamped value loss, minibatch Adam and
every hardening knob of :class:`repro.config.PPOConfig` are the Gaussian
trainer's own code: the two heads differ only in their action
distribution.
"""

from __future__ import annotations

import numpy as np

from repro.config import PPOConfig
from repro.rl.distributions import DirichletBlocks
from repro.rl.nn import MLP
from repro.rl.optim import clip_grads_by_global_norm
from repro.rl.ppo import PPOTrainer, clip_param_at
from repro.rl.rollout import RolloutBatch

__all__ = ["DirichletPPOTrainer"]


class DirichletPolicyNetwork(MLP):
    """Concentration-logit MLP with a :class:`DirichletBlocks` head."""

    def __init__(
        self,
        obs_dim: int,
        hidden_sizes: tuple[int, ...],
        head: DirichletBlocks,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(obs_dim, hidden_sizes, head.flat_dim, rng=rng, out_std=0.01)
        self.head = head
        self.obs_dim = obs_dim
        self.action_dim = head.flat_dim

    def act(
        self, obs: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample simplex-block actions; returns ``(actions, log_probs)``."""
        logits = self(obs)
        actions = self.head.sample(logits, rng)
        return actions, self.head.log_prob(actions, logits)


class DirichletPPOTrainer(PPOTrainer):
    """PPO whose policy outputs per-block Dirichlet concentrations.

    The environment must expose ``observation_size``, ``action_size``
    (interpreted as ``num_blocks * block_size``), ``reset`` and
    ``step_raw``; ``block_size`` is the number of routing choices ``d``.
    """

    def __init__(
        self,
        env,
        block_size: int,
        config: PPOConfig | None = None,
        seed=None,
    ) -> None:
        if block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {block_size}")
        act_dim = int(env.action_size)
        if act_dim % block_size != 0:
            raise ValueError(
                f"action_size {act_dim} not divisible by block_size {block_size}"
            )
        self.head = DirichletBlocks(act_dim // block_size, block_size)
        super().__init__(env, config, seed)

    # ------------------------------------------------------------------
    # Action-head hooks
    # ------------------------------------------------------------------
    def _build_policy(
        self, obs_dim: int, act_dim: int, rng: np.random.Generator
    ) -> DirichletPolicyNetwork:
        return DirichletPolicyNetwork(obs_dim, self.config.hidden_sizes, self.head, rng)

    def _old_distribution(
        self, batch: RolloutBatch
    ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        # The ratio's denominator is the log-prob recorded at collection.
        return (self.policy(batch.obs),), batch.log_probs

    def _mean_kl(self, old: tuple[np.ndarray, ...], obs: np.ndarray) -> float:
        return float(self.head.kl(old[0], self.policy(obs)).mean())

    def _policy_minibatch_step(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        logp_old: np.ndarray,
        advantages: np.ndarray,
        logits_old: np.ndarray,
    ) -> tuple[float, float, float, float, float]:
        cfg = self.config
        eps = clip_param_at(cfg, self.iteration)
        n = obs.shape[0]
        logits, cache = self.policy.forward(obs)
        logp = self.head.log_prob(actions, logits)
        # Dirichlet log-densities are unbounded near the simplex edges:
        # clamp the log-ratio so one extreme sample cannot overflow.
        ratio = np.exp(np.clip(logp - logp_old, -30, 30))
        clipped_ratio = np.clip(ratio, 1.0 - eps, 1.0 + eps)
        unclipped = ratio * advantages
        clipped = clipped_ratio * advantages
        policy_loss = -float(np.minimum(unclipped, clipped).mean())
        kl_mean = float(self.head.kl(logits_old, logits).mean())
        entropy = float(self.head.entropy(logits).mean())
        clip_fraction = float((np.abs(ratio - 1.0) > eps).mean())

        active = unclipped <= clipped
        g_logp = np.where(active, ratio * advantages, 0.0) / n
        grad_logits = -g_logp[:, None] * self.head.log_prob_grad_logits(
            actions, logits
        )
        grad_logits += self.kl_coeff * self.head.kl_grad_logits_new(
            logits_old, logits
        ) / n
        grads = self.policy.backward(cache, grad_logits)
        grads, grad_norm = clip_grads_by_global_norm(grads, cfg.grad_clip)
        self.policy.apply_update(self._policy_opt.step(grads))
        return policy_loss, kl_mean, entropy, clip_fraction, grad_norm

    # ------------------------------------------------------------------
    def mean_rule_policy(self, num_states: int, d: int, num_modes: int = 2):
        """Deterministic policy from the per-block Dirichlet means."""
        from repro.meanfield.decision_rule import DecisionRule
        from repro.policies.base import UpperLevelPolicy

        trainer = self

        class _DirichletMeanPolicy(UpperLevelPolicy):
            @property
            def name(self) -> str:
                return "MF-Dirichlet"

            def decision_rule(self, nu, lam_mode, rng=None):
                one_hot = np.zeros(num_modes)
                one_hot[lam_mode] = 1.0
                obs = np.concatenate([np.asarray(nu), one_hot])
                logits = trainer.policy(obs[None, :])
                mean = trainer.head.mean_action(logits)[0]
                return DecisionRule.from_flat(
                    mean, num_states, d
                )

        return _DirichletMeanPolicy()
