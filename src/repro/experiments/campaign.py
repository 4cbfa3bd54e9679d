"""Per-regime policy training campaign (delayed, graph, diurnal regimes).

The paper trains one MF policy per synchronization delay on the exact
mean-field MDP (``scripts/pretrain_policies.py``). The regimes added
since — stochastic observation delays, sparse topologies, diurnal
traffic — change the dynamics the policy faces and make *context*
informative, so each gets a natively trained policy:

* the training environment matches the regime's *fidelity*: the
  :class:`repro.meanfield.delayed_env.DelayedMeanFieldEnv` proxy for
  regimes whose costs survive the mean-field limit
  (``fidelity="meanfield"``: graph, diurnal), and one replica of the
  finite deployment system behind
  :class:`repro.queueing.finite_mdp.FiniteRegimeEnv` for the delayed
  regimes (``fidelity="finite"``) — in the limit the law drifts
  smoothly and stale information is nearly free, so the delay cost the
  leaderboard measures (finite-``M`` fluctuations, dispatcher herding)
  only exists at finite fidelity; both carry the regime's
  :class:`~repro.meanfield.features.ObservationFeatures`,
* training warm-starts from the packaged paper checkpoint for the
  regime's ``Δt`` with the first layer widened by zero rows
  (:func:`repro.rl.nn.widen_input_weights`) — at initialization the
  policy *is* the transplanted paper policy, so fine-tuning on the true
  regime dynamics can only move away from it where that helps, and a
  keep-best evaluation guard falls back to the warm start on a
  regression,
* collection runs through the chunk-invariant independent-streams mode
  of :class:`repro.rl.rollout.RolloutCollector`, which
  makes a finished regime a pure function of
  ``(regime, ppo, budget, seed)``.

That purity is what the campaign's durability leans on: each regime is
one *training shard* run by
:class:`repro.experiments.parallel.SweepExecutor`, the executor of the
evaluation sweeps and streams, and persisted as one content-addressed
entry in the :class:`repro.store.store.ExperimentStore`
(:func:`repro.store.keys.train_shard_key`). So an interrupted campaign
resumes bit-identically, results are invariant to the worker count,
multiple hosts sharing a store directory partition the regime list via
the store's claim files (``claim``), and any host assembles the finished
campaign from the store (``merge_only``).

Entry point: ``scripts/train_regime_policies.py``; packaged checkpoints
land in ``repro/assets/policies/mf_regime_<name>.npz`` and feed the
``leaderboard`` comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from repro.config import PPOConfig, SystemConfig, paper_system_config
from repro.execution import ExecutionContext
from repro.experiments.parallel import SweepExecutor
from repro.meanfield.delayed_env import DelayedMeanFieldEnv
from repro.meanfield.features import ObservationFeatures, age_context
from repro.policies.learned import NeuralPolicy
from repro.queueing.arrivals import MarkovModulatedRate
from repro.queueing.delays import DelayModel, DeterministicDelay
from repro.queueing.finite_mdp import FiniteRegimeEnv
from repro.rl.nn import GaussianPolicyNetwork, widen_input_weights
from repro.store.keys import train_shard_key

if TYPE_CHECKING:
    from repro.store.store import ExperimentStore
    from repro.utils.stats import ConfidenceInterval

__all__ = [
    "CAMPAIGN_DELTA_TS",
    "CampaignResult",
    "RegimeSpec",
    "TrainingBudget",
    "available_regime_checkpoints",
    "campaign_ppo_config",
    "default_regimes",
    "get_regime_policy",
    "package_policies",
    "regime_checkpoint_path",
    "run_campaign",
    "train_regime",
]

#: The label every campaign checkpoint carries; distinguishes natively
#: trained regime policies from the transplanted paper "MF" policies in
#: the leaderboard.
REGIME_POLICY_LABEL = "MF-regime"

#: Synchronization delays of the delayed-regime grid (the paper's
#: Figure-5 grid).
CAMPAIGN_DELTA_TS = (1.0, 3.0, 5.0, 7.0, 10.0)


@dataclass(frozen=True)
class RegimeSpec:
    """One training regime: environment shape, features, warm start.

    ``fidelity`` selects the training dynamics: ``"meanfield"`` trains
    on the exact MFC proxy (cheap, but blind to finite-``M``
    fluctuation costs), ``"finite"`` trains and keep-best-evaluates on
    the finite deployment system itself
    (:class:`~repro.queueing.finite_mdp.FiniteRegimeEnv`).

    Frozen and fingerprintable — the spec is part of the training-shard
    key, so editing any field moves the regime to a fresh key space
    instead of replaying a stale result.
    """

    name: str
    config: SystemConfig
    delay_model: DelayModel | None = None
    features: ObservationFeatures = ObservationFeatures()
    arrival_process: MarkovModulatedRate | None = None
    horizon: int = 100
    warm_start_delta_t: float | None = None
    fidelity: str = "meanfield"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ValueError(f"invalid regime name {self.name!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.fidelity not in ("meanfield", "finite"):
            raise ValueError(
                "fidelity must be 'meanfield' or 'finite', got "
                f"{self.fidelity!r}"
            )

    def build_env(
        self, seed: int | np.random.Generator | None = None
    ) -> "DelayedMeanFieldEnv | FiniteRegimeEnv":
        """A fresh training environment for this regime."""
        arrivals = (
            self.arrival_process.replica()
            if self.arrival_process is not None
            else None
        )
        delay = (
            self.delay_model.replica() if self.delay_model is not None else None
        )
        if self.fidelity == "finite":
            return FiniteRegimeEnv(
                self.config,
                horizon=self.horizon,
                delay_model=delay,
                arrival_process=arrivals,
                features=self.features,
                seed=seed,
            )
        return DelayedMeanFieldEnv(
            self.config,
            horizon=self.horizon,
            propagator="tabulated",
            arrival_process=arrivals,
            seed=seed,
            delay_model=delay,
            features=self.features,
        )

    def age_context(self) -> tuple[float, float] | None:
        """Frozen age features for the deployed policy (``None`` if off)."""
        if not self.features.age:
            return None
        model = (
            self.delay_model
            if self.delay_model is not None
            else DeterministicDelay(0)
        )
        return age_context(model)

    @property
    def num_modes(self) -> int:
        return (
            self.arrival_process.num_modes
            if self.arrival_process is not None
            else 2
        )


@dataclass(frozen=True)
class TrainingBudget:
    """Compute budget of one regime's training run.

    Part of the training-shard key: the trained parameters depend on
    every field (warmup and training iterations consume collector
    stream, the evaluation settings drive the keep-best guard).
    """

    iterations: int = 120
    num_envs: int = 4
    critic_warmup: int = 6
    eval_episodes: int = 24
    eval_seed: int = 7

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.num_envs < 1:
            raise ValueError("num_envs must be >= 1")
        if self.critic_warmup < 0:
            raise ValueError("critic_warmup must be >= 0")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be >= 1")


@dataclass
class CampaignResult:
    """One finished regime: the policy plus training provenance."""

    regime: RegimeSpec
    key: str
    policy: NeuralPolicy
    curve: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)
    from_cache: bool = False


def campaign_ppo_config(seed: int = 0, iterations: int = 120) -> PPOConfig:
    """The campaign's PPO configuration: the pretraining hyperparameters
    with the hardening knobs on (adaptive-KL bounds, KL early stopping,
    clip-ε decayed to 0.1 across the run)."""
    return PPOConfig(
        gamma=0.99,
        gae_lambda=0.95,
        kl_coeff=0.2,
        kl_target=0.01,
        clip_param=0.3,
        learning_rate=1e-4,
        train_batch_size=4000,
        minibatch_size=256,
        num_epochs=8,
        value_clip_param=5000.0,
        hidden_sizes=(256, 256),
        initial_log_std=-1.5,
        seed=seed,
        kl_coeff_bounds=(1e-3, 10.0),
        kl_early_stop_factor=2.0,
        clip_param_final=0.1,
        clip_decay_iters=max(1, iterations),
    )


def default_regimes() -> tuple[RegimeSpec, ...]:
    """The packaged campaign: delayed Δt grid, graph, diurnal regimes."""
    from repro.scenarios.builtin import (
        DIURNAL_PERIOD,
        stochastic_delay_model,
    )

    regimes: list[RegimeSpec] = []
    for dt in CAMPAIGN_DELTA_TS:
        regimes.append(
            RegimeSpec(
                name=f"dt{dt:g}",
                config=paper_system_config(delta_t=dt, num_queues=100),
                delay_model=stochastic_delay_model(),
                features=ObservationFeatures(age=True, live_age=True),
                warm_start_delta_t=dt,
                fidelity="finite",
                description=(
                    f"Δt={dt:g} under synced/degraded monitoring "
                    "(stochastic snapshot ages 0-3, live-age-conditioned, "
                    "finite-fidelity fine-tuning)"
                ),
            )
        )
    # Graph regimes: the policy is queried on neighborhood-aggregated
    # laws, so it conditions on the mean occupancy of the law it sees.
    # One checkpoint per end of the sweep grid (ring at Δt=1,
    # random-regular at Δt=5).
    regimes.append(
        RegimeSpec(
            name="ring",
            config=paper_system_config(delta_t=1.0, num_queues=100),
            features=ObservationFeatures(occupancy=True),
            warm_start_delta_t=1.0,
            description=(
                "occupancy-conditioned policy for ring neighborhoods "
                "(trained at Δt=1)"
            ),
        )
    )
    regimes.append(
        RegimeSpec(
            name="random-regular",
            config=paper_system_config(delta_t=5.0, num_queues=100),
            features=ObservationFeatures(occupancy=True),
            warm_start_delta_t=5.0,
            description=(
                "occupancy-conditioned policy for random-regular "
                "neighborhoods (trained at Δt=5)"
            ),
        )
    )
    # Diurnal regime: a slow two-mode surrogate of the sinusoidal
    # day/night cycle (envelope 0.55-0.95, dwell ~ half a period), so
    # the policy's two λ-mode inputs map to day and night load.
    diurnal_surrogate = MarkovModulatedRate(
        levels=(0.95, 0.55),
        transition_matrix=(
            (1.0 - 2.0 / DIURNAL_PERIOD, 2.0 / DIURNAL_PERIOD),
            (2.0 / DIURNAL_PERIOD, 1.0 - 2.0 / DIURNAL_PERIOD),
        ),
    )
    regimes.append(
        RegimeSpec(
            name="diurnal",
            config=paper_system_config(delta_t=1.0, num_queues=100).with_updates(
                arrival_rate_high=0.95, arrival_rate_low=0.55
            ),
            arrival_process=diurnal_surrogate,
            warm_start_delta_t=1.0,
            description=(
                "two-mode surrogate of the diurnal day/night cycle "
                f"(period {DIURNAL_PERIOD} epochs, rho 0.55-0.95)"
            ),
        )
    )
    return tuple(regimes)


# ---------------------------------------------------------------------------
# Checkpoint locations (mirrors repro.experiments.pretrained for the
# paper checkpoints)
# ---------------------------------------------------------------------------
def regime_checkpoint_path(name: str, directory: Path | None = None) -> Path:
    """Canonical packaged-checkpoint location for a regime."""
    if directory is None:
        from repro.assets import POLICY_DIR

        directory = POLICY_DIR
    return directory / f"mf_regime_{name}.npz"


def available_regime_checkpoints(
    directory: Path | None = None,
) -> dict[str, Path]:
    """Map of regime name -> packaged campaign checkpoint."""
    if directory is None:
        from repro.assets import POLICY_DIR

        directory = POLICY_DIR
    out: dict[str, Path] = {}
    if not directory.exists():
        return out
    for path in sorted(directory.glob("mf_regime_*.npz")):
        out[path.stem[len("mf_regime_") :]] = path
    return out


def get_regime_policy(
    delta_t: float,
    directory: Path | None = None,
    allow_fallback: bool = True,
    seed: int = 0,
) -> "tuple[Any, str]":
    """Resolve the natively-trained regime policy for a delay.

    Mirrors :func:`repro.experiments.pretrained.get_mf_policy` for the
    campaign checkpoints, in three steps:

    1. the packaged campaign checkpoint ``mf_regime_dt{Δt}.npz``
       (``source="checkpoint"``),
    2. else the nearest packaged delayed-regime checkpoint on the Δt
       grid (``source="nearest-dt{Δt'}"``),
    3. else (``allow_fallback=True``) the transplanted paper policy via
       :func:`get_mf_policy` (``source="transplant-checkpoint"`` /
       ``"transplant-cem-fallback"``), keeping leaderboard sweeps
       runnable from a cold checkout; the sources are reported so a
       degenerate comparison is visible.
    """
    path = regime_checkpoint_path(f"dt{delta_t:g}", directory)
    if path.exists():
        return NeuralPolicy.load(path), "checkpoint"
    grid: dict[float, Path] = {}
    for name, ckpt in available_regime_checkpoints(directory).items():
        if not name.startswith("dt"):
            continue
        try:
            grid[float(name[len("dt") :])] = ckpt
        except ValueError:  # pragma: no cover - stray files
            continue
    if grid:
        nearest = min(grid, key=lambda dt: (abs(dt - delta_t), dt))
        return NeuralPolicy.load(grid[nearest]), f"nearest-dt{nearest:g}"
    if not allow_fallback:
        raise FileNotFoundError(
            f"no campaign checkpoint for Δt={delta_t:g} at {path}; run "
            "scripts/train_regime_policies.py or pass allow_fallback=True"
        )
    from repro.experiments.pretrained import get_mf_policy

    policy, source = get_mf_policy(delta_t, seed=seed)
    return policy, f"transplant-{source}"


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------
def _warm_start_state(
    regime: RegimeSpec, ppo: PPOConfig
) -> dict[str, np.ndarray] | None:
    """Widened paper-checkpoint state for the regime, or ``None``.

    Returns ``None`` when no warm start is configured, the checkpoint is
    absent (cold checkout), or its geometry does not match the campaign
    network — training then starts from a fresh initialization.
    """
    if regime.warm_start_delta_t is None:
        return None
    from repro.experiments.pretrained import checkpoint_path
    from repro.utils.serialization import load_npz_checkpoint

    path = checkpoint_path(regime.warm_start_delta_t)
    if not path.exists():
        return None
    arrays, meta = load_npz_checkpoint(path)
    hidden = tuple(int(h) for h in meta.get("hidden_sizes", ()))
    if (
        hidden != tuple(ppo.hidden_sizes)
        or int(meta.get("num_states", -1)) != regime.config.num_queue_states
        or int(meta.get("d", -1)) != regime.config.d
        or int(meta.get("num_modes", -1)) != regime.num_modes
        or ObservationFeatures.from_dict(meta.get("features")).extra_dims != 0
    ):
        return None
    state = {
        k[len("policy/") :]: v
        for k, v in arrays.items()
        if k.startswith("policy/")
    }
    return widen_input_weights(state, regime.features.extra_dims)


def _build_policy(
    state: Mapping[str, np.ndarray],
    regime: RegimeSpec,
    hidden_sizes: Sequence[int],
    num_modes: int,
) -> NeuralPolicy:
    s, d = regime.config.num_queue_states, regime.config.d
    network = GaussianPolicyNetwork(
        obs_dim=s + num_modes + regime.features.extra_dims,
        action_dim=s**d * d,
        hidden_sizes=tuple(int(h) for h in hidden_sizes),
    )
    network.load_state_dict(dict(state))
    return NeuralPolicy(
        network,
        num_states=s,
        d=d,
        num_modes=num_modes,
        label=REGIME_POLICY_LABEL,
        features=regime.features,
        age_context=regime.age_context(),
    )


def _result_from_entry(
    regime: RegimeSpec,
    key: str,
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, Any],
) -> CampaignResult:
    state = {
        k[len("policy/") :]: v
        for k, v in arrays.items()
        if k.startswith("policy/")
    }
    policy = _build_policy(
        state,
        regime,
        hidden_sizes=meta["hidden_sizes"],
        num_modes=int(meta["num_modes"]),
    )
    curve = np.array(arrays.get("curve", np.empty(0)), dtype=np.float64)
    if "curve_nan" in arrays:
        curve[arrays["curve_nan"]] = np.nan
    return CampaignResult(
        regime=regime,
        key=key,
        policy=policy,
        curve=curve,
        meta=dict(meta),
        from_cache=True,
    )


def _entry_arrays(result: CampaignResult) -> dict[str, np.ndarray]:
    """A training shard's store arrays: policy state and learning curve.

    The curve is NaN at every iteration that finished no episode, and
    the store rejects non-finite floats, so those points are written as
    ``0.0`` plus a boolean ``curve_nan`` mask that
    :func:`_result_from_entry` turns back into NaNs.
    """
    arrays = {
        f"policy/{k}": v for k, v in result.policy.network.state_dict().items()
    }
    missing = np.isnan(result.curve)
    arrays["curve"] = np.where(missing, 0.0, result.curve)
    if missing.any():
        arrays["curve_nan"] = missing
    return arrays


def _evaluate_finite(
    regime: RegimeSpec, policy: NeuralPolicy, budget: TrainingBudget
) -> "ConfidenceInterval":
    """Keep-best evaluation on the *deployment* system.

    Finite-fidelity regimes are scored where they deploy: an ensemble of
    ``budget.eval_episodes`` lock-step replicas of the finite delayed
    system, episode return per replica, all randomness from
    ``budget.eval_seed`` — so the warm start and the trained policy face
    identically-seeded ensembles (common random numbers) and the verdict
    is a pure function of the training inputs.
    """
    from repro.queueing.delayed_env import BatchedDelayedFiniteEnv
    from repro.utils.stats import mean_confidence_interval

    env = BatchedDelayedFiniteEnv(
        regime.config,
        num_replicas=budget.eval_episodes,
        delay_model=(
            regime.delay_model.replica()
            if regime.delay_model is not None
            else None
        ),
        arrival_process=(
            regime.arrival_process.replica()
            if regime.arrival_process is not None
            else None
        ),
        seed=budget.eval_seed,
    )
    env.reset()
    totals = np.zeros(budget.eval_episodes)
    for _ in range(regime.horizon):
        _, rewards, _ = env.step_with_policy(policy)
        totals += rewards
    return mean_confidence_interval(totals)


def train_regime(
    regime: RegimeSpec,
    ppo: PPOConfig | None = None,
    budget: TrainingBudget | None = None,
    seed: int = 0,
    verbose: bool = False,
) -> CampaignResult:
    """Train one regime's policy: the campaign's per-shard computation.

    The result is a pure function of ``(regime, ppo, budget, seed)``.
    To resume from (and persist to) an experiment store, run the regime
    through :func:`run_campaign` with a store-bearing context.
    """
    from repro.rl.evaluation import evaluate_policy_mfc
    from repro.rl.ppo import PPOTrainer

    ppo = ppo if ppo is not None else campaign_ppo_config(seed)
    budget = budget if budget is not None else TrainingBudget()
    key = train_shard_key(regime, ppo, budget, seed)
    env = regime.build_env(seed=seed)
    eval_env = regime.build_env(seed=seed + 1)
    trainer = PPOTrainer(
        env,
        ppo,
        seed=seed,
        num_envs=budget.num_envs,
        independent_streams=budget.num_envs > 1,
    )

    def _evaluate() -> "ConfidenceInterval":
        # Policies share the live training network: evaluate in place.
        probe = NeuralPolicy(
            trainer.policy,
            num_states=regime.config.num_queue_states,
            d=regime.config.d,
            num_modes=env.num_modes,
            label=REGIME_POLICY_LABEL,
            features=regime.features,
            age_context=regime.age_context(),
        )
        if regime.fidelity == "finite":
            return _evaluate_finite(regime, probe, budget)
        return evaluate_policy_mfc(
            eval_env,
            probe,
            episodes=budget.eval_episodes,
            seed=budget.eval_seed,
        )

    warm_state = _warm_start_state(regime, ppo)
    warm_eval = None
    if warm_state is not None:
        trainer.policy.load_state_dict(warm_state)
        warm_eval = _evaluate()
        if verbose:
            print(f"[{regime.name}] warm start: {warm_eval.mean:.2f}")

    curve: list[float] = []
    for i in range(budget.critic_warmup + budget.iterations):
        stats = trainer.train_iteration(
            update_policy=i >= budget.critic_warmup
        )
        curve.append(stats.mean_episode_return)
        if verbose and (i % 10 == 0 or i == len(curve) - 1):
            print(
                f"[{regime.name}] iter {i:3d} return "
                f"{stats.mean_episode_return:9.2f} kl {stats.kl:.4f}"
            )

    trained_state = trainer.policy.state_dict()
    trained_eval = _evaluate()
    kept = "trained"
    final_state = trained_state
    if warm_eval is not None and warm_eval.mean > trained_eval.mean:
        # Keep-best guard: fine-tuning can only help; fall back to the
        # (functionally transplanted) warm start on a regression.
        kept = "warm-start"
        final_state = warm_state
    if verbose:
        print(
            f"[{regime.name}] trained: {trained_eval.mean:.2f} "
            f"(kept: {kept})"
        )

    meta: dict[str, Any] = {
        "regime": regime.name,
        "description": regime.description,
        "delta_t": regime.config.delta_t,
        "seed": seed,
        "iterations": budget.iterations,
        "critic_warmup": budget.critic_warmup,
        "env_steps": trainer.collector.total_env_steps,
        "kept": kept,
        "trained_return": trained_eval.mean,
        "warm_return": warm_eval.mean if warm_eval is not None else None,
        "num_states": regime.config.num_queue_states,
        "d": regime.config.d,
        "num_modes": env.num_modes,
        "fidelity": regime.fidelity,
        "hidden_sizes": list(ppo.hidden_sizes),
        "features": regime.features.to_dict(),
        "age_context": (
            list(regime.age_context())
            if regime.age_context() is not None
            else None
        ),
        "label": REGIME_POLICY_LABEL,
    }
    policy = _build_policy(
        final_state,
        regime,
        hidden_sizes=ppo.hidden_sizes,
        num_modes=env.num_modes,
    )
    return CampaignResult(
        regime=regime,
        key=key,
        policy=policy,
        curve=np.asarray(curve, dtype=np.float64),
        meta=meta,
        from_cache=False,
    )


class _CampaignJob:
    """Training shards: one finished regime each, stored as a
    multi-array entry (policy state dict plus learning curve)."""

    def __init__(
        self,
        regimes: Sequence[RegimeSpec],
        ppo: PPOConfig,
        budget: TrainingBudget,
        seed: int,
        verbose: bool,
    ) -> None:
        self.shards = list(regimes)
        self.ppo, self.budget, self.seed = ppo, budget, seed
        self.verbose = verbose
        self.results: dict[str, CampaignResult] = {}

    def key(self, regime: RegimeSpec) -> str:
        return train_shard_key(regime, self.ppo, self.budget, self.seed)

    def task(self, regime: RegimeSpec) -> tuple:
        args = (regime, self.ppo, self.budget, self.seed, self.verbose)
        return train_regime, args

    def fold(self, regime: RegimeSpec, result: CampaignResult) -> None:
        self.results[regime.name] = result

    def load(
        self, store: "ExperimentStore", key: str, regime: RegimeSpec
    ) -> CampaignResult | None:
        cached = store.get_entry(key)
        return None if cached is None else _result_from_entry(regime, key, *cached)

    def save(
        self,
        store: "ExperimentStore",
        key: str,
        regime: RegimeSpec,
        result: CampaignResult,
    ) -> None:
        store.put_entry(key, _entry_arrays(result), result.meta)


def run_campaign(
    regimes: Iterable[RegimeSpec] | None = None,
    ppo: PPOConfig | None = None,
    budget: TrainingBudget | None = None,
    seed: int = 0,
    context: ExecutionContext | None = None,
    claim_owner: str | None = None,
    stale_claim_after: float | None = None,
    verbose: bool = False,
) -> dict[str, CampaignResult]:
    """Train every regime; returns ``{regime name: result}`` in regime
    order.

    Regimes are independent training shards, run by
    :class:`~repro.experiments.parallel.SweepExecutor` exactly like
    sweep shards. ``context.workers > 1`` fans them across a process
    pool, and because each shard is a pure function of its own inputs
    the results are **bit-identical for every worker count** (tested).
    With ``context.store`` finished regimes replay from the store and
    fresh ones are persisted (a failing write warns and counts
    ``write_errors``); ``context.claim`` partitions the regimes among
    hosts sharing the store and waits for those claimed elsewhere;
    ``context.merge_only`` assembles the campaign from the store and
    raises ``RuntimeError`` naming the number of missing regimes.

    ``claim_owner`` and ``stale_claim_after`` go to the executor; the
    default ``stale_claim_after=None`` never takes over another host's
    claim. ``verbose`` prints training progress when regimes train
    in-process (``workers == 1`` or a single regime).
    """
    regime_list = list(regimes if regimes is not None else default_regimes())
    names = [r.name for r in regime_list]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate regime names: {names}")
    ctx = context or ExecutionContext()
    job = _CampaignJob(
        regime_list,
        ppo if ppo is not None else campaign_ppo_config(seed),
        budget if budget is not None else TrainingBudget(),
        seed,
        verbose and (ctx.workers == 1 or len(regime_list) <= 1),
    )
    SweepExecutor(
        ctx, claim_owner=claim_owner, stale_claim_after=stale_claim_after
    ).run_job(job)
    return {name: job.results[name] for name in names}


def package_policies(
    results: Mapping[str, CampaignResult],
    out_dir: Path | None = None,
) -> dict[str, Path]:
    """Write each result to its packaged checkpoint; returns the paths."""
    if out_dir is None:
        from repro.assets import POLICY_DIR

        out_dir = POLICY_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    # NeuralPolicy.save writes the geometry/feature metadata itself;
    # forward only the campaign provenance.
    provenance_keys = (
        "regime",
        "description",
        "delta_t",
        "seed",
        "iterations",
        "env_steps",
        "fidelity",
        "kept",
        "trained_return",
        "warm_return",
    )
    paths: dict[str, Path] = {}
    for name in sorted(results):
        res = results[name]
        extra = {k: res.meta[k] for k in provenance_keys if k in res.meta}
        paths[name] = res.policy.save(
            regime_checkpoint_path(name, out_dir), extra_meta=extra
        )
    return paths
