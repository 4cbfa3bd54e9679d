"""Chunked streaming driver over the batched environments.

:func:`run_stream` advances one batched environment (dense, graph,
heterogeneous or delayed) through an arbitrarily long horizon, folding
every epoch into :class:`repro.serving.metrics.StreamingMetrics` —
memory stays O(E·M + max_windows), independent of the horizon (asserted
by ``benchmarks/bench_streaming.py``).

:func:`run_stream_request` runs a :class:`StreamRequest`'s replica
chunks through :class:`repro.experiments.parallel.SweepExecutor`, the
same shard executor as the finite sweeps (same chunk layout, same
``SeedSequence`` children), and merges per-replica summaries by offset —
results are bit-identical for any worker count. Every execution knob
applies: with an :class:`repro.store.store.ExperimentStore` attached,
each streaming shard is cached under a content key from
:func:`repro.store.keys.stream_shard_key`, so killed streams resume
where they stopped, ``claim`` partitions a stream between hosts and
``merge_only`` assembles it from the store.

:func:`run_stream_scenario` is the entry point behind
``python -m repro.experiments.cli stream <scenario>``: it instantiates
one registered scenario at a chosen delay and streams one policy of its
suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.config import SystemConfig
from repro.execution import ExecutionContext
from repro.experiments.parallel import (
    SweepExecutor,
    _ChunkJob,
    _check_chunked_request,
    _shard_env,
)
from repro.queueing.batched_env import _BatchedQueueSystemBase
from repro.serving.control import Controller, ControlLoop
from repro.serving.metrics import (
    DEFAULT_MAX_WINDOWS,
    SUMMARY_FIELDS,
    WINDOW_FIELDS,
    StreamingMetrics,
    window_layout,
)
from repro.utils.stats import mean_confidence_interval
from repro.utils.tables import format_table, series_to_csv

if TYPE_CHECKING:
    from repro.experiments.parallel import _Shard
    from repro.policies.base import UpperLevelPolicy
    from repro.queueing.chaos import DegradationSchedule

__all__ = [
    "StreamRequest",
    "StreamResult",
    "run_stream",
    "run_stream_request",
    "run_stream_scenario",
]


@dataclass(frozen=True)
class StreamRequest:
    """One streaming evaluation: env × policy × horizon × windowing.

    The streaming analogue of
    :class:`repro.experiments.parallel.EvalRequest`; a request is the
    unit whose merged metrics are identical no matter how many workers
    (or cache hits) serve its replica chunks.
    """

    config: SystemConfig
    policy: "UpperLevelPolicy"
    horizon: int
    window: int
    num_replicas: int = 4
    seed: Any = 0
    env_cls: type | None = None
    env_kwargs: dict[str, Any] = field(default_factory=dict)
    max_batch_replicas: int = 64
    max_windows: int = DEFAULT_MAX_WINDOWS
    sim_backend: str = "numpy"
    controller: "Controller | None" = None
    policies: "dict[str, UpperLevelPolicy] | None" = None

    def __post_init__(self) -> None:
        _check_chunked_request(self)
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1 epoch")
        if self.window < 1:
            raise ValueError("window must be >= 1 epoch")
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if self.max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        if self.controller is not None and not isinstance(
            self.controller, Controller
        ):
            raise ValueError(
                f"controller must be a Controller, got {self.controller!r}"
            )
        if self.policies is not None and self.controller is None:
            raise ValueError("policies requires a controller")

    def resolved_runs(self) -> int:
        """Replica count (the executor's chunking input)."""
        return int(self.num_replicas)

    def window_widths(self) -> np.ndarray:
        """Deterministic retained-window layout of this request."""
        return window_layout(self.horizon, self.window, self.max_windows)


@dataclass
class StreamResult:
    """Merged outcome of one streaming request.

    ``summaries`` holds one row per replica (columns
    :data:`~repro.serving.metrics.SUMMARY_FIELDS`); ``window_rows`` the
    replica-averaged operator series at the retained resolution
    (columns :data:`~repro.serving.metrics.WINDOW_FIELDS`, per-epoch
    means; widths in epochs in ``window_widths``).
    """

    policy_name: str
    config: SystemConfig
    horizon: int
    window: int
    summaries: np.ndarray  # (runs, len(SUMMARY_FIELDS))
    window_widths: np.ndarray  # (W,)
    window_rows: np.ndarray  # (W, len(WINDOW_FIELDS))
    workers: int = 1
    scenario: str | None = None
    controller_name: str | None = None

    summary_fields: tuple[str, ...] = SUMMARY_FIELDS
    window_fields: tuple[str, ...] = WINDOW_FIELDS

    @property
    def num_replicas(self) -> int:
        return int(self.summaries.shape[0])

    def summary_mean(self, field_name: str) -> float:
        """Replica-mean of one summary field."""
        return float(
            self.summaries[:, self.summary_fields.index(field_name)].mean()
        )

    def format_table(self) -> str:
        rows = []
        for j, name in enumerate(self.summary_fields):
            ci = mean_confidence_interval(self.summaries[:, j])
            rows.append(
                [name, f"{ci.mean:.4g}", f"±{ci.half_width:.2g}"]
            )
        control = (
            f"controller={self.controller_name}, "
            if self.controller_name
            else ""
        )
        title = (
            f"Stream {self.scenario or self.policy_name} — "
            f"policy={self.policy_name}, {control}"
            f"M={self.config.num_queues}, "
            f"Δt={self.config.delta_t:g}, horizon={self.horizon} epochs, "
            f"E={self.num_replicas} replicas (workers={self.workers})"
        )
        table = format_table(
            ["metric", "mean", "95% CI"], rows, title=title
        )
        return table + "\n\n" + self._format_window_table()

    def _format_window_table(self, max_rows: int = 12) -> str:
        widths = self.window_widths
        starts = np.concatenate([[0], np.cumsum(widths)[:-1]])
        idx = np.arange(widths.size)
        if widths.size > max_rows:
            idx = np.unique(
                np.linspace(0, widths.size - 1, max_rows).round().astype(int)
            )
        rows = []
        for i in idx:
            rows.append(
                [
                    f"{int(starts[i])}..{int(starts[i] + widths[i] - 1)}",
                    *(f"{v:.4g}" for v in self.window_rows[i]),
                ]
            )
        return format_table(
            ["epochs", *self.window_fields],
            rows,
            title=f"Windowed series ({widths.size} windows retained)",
        )

    def to_csv(self) -> str:
        """Windowed operator series as CSV (one row per window)."""
        widths = self.window_widths
        starts = np.concatenate([[0], np.cumsum(widths)[:-1]])
        rows = [
            [int(starts[i]), int(widths[i]), *self.window_rows[i]]
            for i in range(widths.size)
        ]
        return series_to_csv(
            ["epoch_start", "width", *self.window_fields], rows
        )


def run_stream(
    env: _BatchedQueueSystemBase,
    policy: "UpperLevelPolicy",
    horizon: int,
    window: int,
    max_windows: int = DEFAULT_MAX_WINDOWS,
    seed=None,
    controller: "Controller | None" = None,
    policies: "dict[str, UpperLevelPolicy] | None" = None,
) -> StreamingMetrics:
    """Stream one environment for ``horizon`` epochs, folding metrics.

    The driver advances the environment epoch by epoch; nothing
    trajectory-shaped is materialized (windows exist only inside the
    metric fold, as reporting boundaries). Final summary statistics are
    bit-identical for any ``window`` (the fold order never changes);
    only the retained series resolution differs.

    Parameters
    ----------
    env : _BatchedQueueSystemBase
        Any batched environment (dense, graph, heterogeneous, delayed).
    policy : UpperLevelPolicy
        Upper-level policy queried every epoch (Algorithm 1). With a
        controller attached this is the *initial* policy; the
        controller may switch or re-weight it mid-stream.
    horizon : int
        Number of decision epochs to stream.
    window : int
        Operator-series window width in epochs.
    max_windows : int, optional
        Retention cap for the windowed series.
    seed : optional
        Forwarded to ``env.reset``.
    controller : Controller, optional
        Closed-loop hook (:mod:`repro.serving.control`): consulted
        every ``controller.decision_interval`` epochs with the delayed
        windowed observation surface, may keep/switch/re-weight the
        policy or autoscale the fleet. ``None`` streams the initial
        policy throughout; a
        :class:`~repro.serving.control.StaticController` drives the
        full hook machinery and is bit-identical to ``None`` (tested).
    policies : dict, optional
        Named policy suite the controller may switch among (requires
        ``controller``); the initial policy is always included under
        its own name.

    Returns
    -------
    StreamingMetrics
        The populated fold (summaries + windowed series).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 epoch, got {horizon}")
    if window < 1:
        raise ValueError(f"window must be >= 1 epoch, got {window}")
    if max_windows < 1:
        raise ValueError(f"max_windows must be >= 1, got {max_windows}")
    if policies is not None and controller is None:
        raise ValueError("policies requires a controller")
    env.reset(seed)
    metrics = StreamingMetrics(
        num_replicas=env.num_replicas,
        num_states=env.config.num_queue_states,
        service_rates=env.service_rates,
        delta_t=env.config.delta_t,
        window=window,
        max_windows=max_windows,
    )
    loop = (
        ControlLoop(env, metrics, controller, policy, policies)
        if controller is not None
        else None
    )
    for _ in range(horizon):
        _, _, info = env.step_with_policy(
            policy if loop is None else loop.active_policy
        )
        states = env.queue_states
        if info.get("chaos_rates_changed"):
            # A capacity event re-rated the fleet this epoch; the new
            # rates applied during the epoch's serve, so the fold
            # adopts them before consuming it.
            metrics.resize(env.service_rates)
        metrics.observe_epoch(
            states, info["drops_total"], info["arrival_rates"]
        )
        if loop is not None:
            loop.after_epoch(states, info)
    return metrics


def _run_stream_shard(request: StreamRequest, shard: "_Shard") -> np.ndarray:
    """Execute one replica chunk; returns the flat cacheable payload.

    Layout: per-replica summaries ``(num_runs × F)`` raveled, followed
    by the chunk's replica-averaged window rows ``(W × G)`` raveled —
    ``W`` is deterministic (:func:`repro.serving.metrics.window_layout`),
    so the payload reshapes without metadata. Module-level for pickling.
    """
    env, rng = _shard_env(request, shard)
    metrics = run_stream(
        env,
        request.policy,
        request.horizon,
        request.window,
        max_windows=request.max_windows,
        seed=rng,
        controller=request.controller,
        policies=request.policies,
    )
    return np.concatenate(
        [metrics.summaries().ravel(), metrics.windows.rows().ravel()]
    )


class _StreamJob(_ChunkJob):
    """One stream's replica chunks: summaries by offset, windows
    replica-weighted."""

    def __init__(self, request: StreamRequest) -> None:
        super().__init__([request])
        self.request = request
        self.widths = request.window_widths()
        self.summaries = np.empty((request.num_replicas, len(SUMMARY_FIELDS)))
        self.window_parts: dict[int, np.ndarray] = {}

    def key(self, shard: "_Shard") -> str:
        from repro.store.keys import stream_shard_key

        return stream_shard_key(self.request, shard.num_runs, shard.seeds[0])

    def task(self, shard: "_Shard") -> tuple:
        return _run_stream_shard, (self.request, shard)

    def payload_size(self, shard: "_Shard") -> int:
        return (
            shard.num_runs * len(SUMMARY_FIELDS)
            + self.widths.size * len(WINDOW_FIELDS)
        )

    def fold(self, shard: "_Shard", payload: np.ndarray) -> None:
        # A malformed payload fails one of the two reshapes.
        runs, n_sum = shard.num_runs, len(SUMMARY_FIELDS)
        self.summaries[shard.offset : shard.offset + runs] = payload[
            : runs * n_sum
        ].reshape(runs, n_sum)
        self.window_parts[shard.offset] = payload[runs * n_sum :].reshape(
            self.widths.size, len(WINDOW_FIELDS)
        )

    def window_rows(self) -> np.ndarray:
        """Replica-averaged window rows, summed in shard order so they
        never depend on which shard finished (or was cached) first."""
        acc = np.zeros((self.widths.size, len(WINDOW_FIELDS)))
        for shard in self.shards:
            acc += shard.num_runs * self.window_parts[shard.offset]
        return acc / self.request.num_replicas


def run_stream_request(
    request: StreamRequest,
    context: ExecutionContext | None = None,
) -> StreamResult:
    """Execute one streaming request, sharded over replica chunks.

    Parameters
    ----------
    request : StreamRequest
        The stream to run (including its ``sim_backend`` and
        ``max_batch_replicas`` — those are request properties here
        because they shape the cacheable shard payloads).
    context : ExecutionContext, optional
        Execution knobs (``None`` means the defaults), applied by
        :class:`~repro.experiments.parallel.SweepExecutor` exactly as
        for finite sweeps: ``workers`` is the process count (``1``
        stays in-process; never changes the merged result); ``store``
        the content-addressed shard cache (chunks already streamed by a
        previous, possibly killed, run are merged from the store
        instead of simulated, bit-identically); ``claim`` partitions
        the chunks between hosts sharing the store; ``merge_only``
        assembles a finished stream from the store without simulating
        (``RuntimeError`` if a chunk is missing). The context's
        ``sim_backend``/``max_batch_replicas`` are ignored in favor of
        the request's.

    Returns
    -------
    StreamResult
        Per-replica summaries and the merged windowed series.
    """
    ctx = context or ExecutionContext()
    job = _StreamJob(request)
    SweepExecutor(ctx).run_job(job)
    return StreamResult(
        policy_name=request.policy.name,
        config=request.config,
        horizon=request.horizon,
        window=request.window,
        summaries=job.summaries,
        window_widths=job.widths,
        window_rows=job.window_rows(),
        workers=int(ctx.workers),
        controller_name=(
            request.controller.name if request.controller else None
        ),
    )


def run_stream_scenario(
    name: str,
    horizon: int,
    window: int | None = None,
    delta_t: float | None = None,
    num_queues: int | None = None,
    num_replicas: int = 4,
    policy: str | None = None,
    seed: int = 0,
    max_windows: int = DEFAULT_MAX_WINDOWS,
    controller: str | None = None,
    context: ExecutionContext | None = None,
    chaos: "DegradationSchedule | None" = None,
) -> StreamResult:
    """Stream one registered scenario at one delay.

    Parameters
    ----------
    name : str
        Registered scenario name
        (:func:`repro.scenarios.registry.available_scenarios`).
    horizon : int
        Decision epochs to stream (arbitrarily long; memory is flat).
    window : int, optional
        Operator-series window in epochs; defaults to
        ``max(1, horizon // 64)``.
    delta_t : float, optional
        Broadcast period; defaults to the scenario grid's first entry.
    num_queues : int, optional
        Override ``M`` (``N`` follows the scenario's client rule).
    num_replicas : int, optional
        Lock-step replica count ``E``.
    policy : str, optional
        Policy name within the scenario's suite; defaults to the
        suite's first policy. With a controller this is the stream's
        *initial* policy.
    controller : str, optional
        Controller name from the scenario's registered controller
        suite (``spec.build_controllers``); ``None`` streams
        uncontrolled. The controller may switch among the scenario's
        whole policy suite.
    chaos : DegradationSchedule, optional
        Degradation schedule (:mod:`repro.queueing.chaos`) injected
        into the stream's environment, replacing any schedule the
        scenario itself embeds. Enters the streaming shard keys through
        the environment kwargs; validated against the scenario's
        environment before the stream starts (:class:`ValueError` on
        mismatch — e.g. link events on a non-graph scenario).
    seed :
        As in :func:`run_stream_request`.
    context : ExecutionContext, optional
        Execution knobs, as in :func:`run_stream_request`; the
        context's ``sim_backend`` and ``max_batch_replicas`` are
        forwarded to the request.

    Raises
    ------
    KeyError
        Unknown scenario (message lists the catalogue), unknown policy
        name (message lists the suite), or unknown controller name
        (message lists the scenario's controllers).
    """
    from repro.scenarios.registry import get_scenario

    ctx = context or ExecutionContext()
    spec = get_scenario(name)
    dt = float(delta_t) if delta_t is not None else spec.delta_ts[0]
    config = spec.config_for(dt, num_queues=num_queues)
    suite = spec.build_policies(config)
    if policy is None:
        policy_name = next(iter(suite))
    elif policy in suite:
        policy_name = policy
    else:
        raise KeyError(
            f"scenario {name!r} has no policy {policy!r}; "
            f"available: {', '.join(suite)}"
        )
    hook = None
    if controller is not None:
        controllers = (
            spec.build_controllers(config, suite)
            if spec.build_controllers is not None
            else {}
        )
        if controller not in controllers:
            raise KeyError(
                f"scenario {name!r} has no controller {controller!r}; "
                f"available: {', '.join(controllers) or '<none>'}"
            )
        hook = controllers[controller]
    env_kwargs = spec.env_kwargs_for(config)
    if chaos is not None:
        chaos.validate_for(
            num_queues=config.num_queues,
            supports_topology="topology" in env_kwargs,
        )
        env_kwargs = {**env_kwargs, "chaos": chaos}
    request = StreamRequest(
        config=config,
        policy=suite[policy_name],
        horizon=int(horizon),
        window=int(window) if window is not None else max(1, horizon // 64),
        num_replicas=int(num_replicas),
        seed=seed,
        env_cls=spec.env_cls,
        env_kwargs=env_kwargs,
        max_batch_replicas=ctx.resolved_max_batch_replicas(
            spec.max_batch_replicas
        ),
        max_windows=max_windows,
        sim_backend=ctx.sim_backend,
        controller=hook,
        policies=dict(suite) if hook is not None else None,
    )
    result = run_stream_request(request, context=ctx)
    result.scenario = name
    return result
