"""The one shard executor: sweeps, streams and training campaigns.

The paper's headline artifacts (Figures 4-6) are embarrassingly parallel:
independent Monte-Carlo replicas of independent sweep points; so are
streams (:func:`repro.serving.engine.run_stream_request`) and the
per-regime training campaign
(:func:`repro.experiments.campaign.run_campaign`). :class:`SweepExecutor`
runs all three through :meth:`SweepExecutor.run_job` — store lookup, serial or
:class:`concurrent.futures.ProcessPoolExecutor` execution, multi-host
claims, persistence — without giving up the repository's bit-for-bit
reproducibility discipline.

The key invariant is that the random streams are a pure function of each
request's master seed and the *replica-chunk layout* — never of the
worker count or completion order. :class:`SweepExecutor` decomposes every
:class:`EvalRequest` into the exact same ``(sweep-point × replica-chunk)``
shards the serial path of
:func:`repro.experiments.runner.evaluate_policy_finite` iterates over,
spawns one ``SeedSequence`` child per chunk the same way
:func:`repro.utils.rng.spawn_generators` does, executes the shards in
any order on any number of processes, and reassembles the per-replica
drops by offset. Consequently::

    SweepExecutor(context=ExecutionContext(workers=1)).run(reqs)
    == SweepExecutor(context=ExecutionContext(workers=4)).run(reqs)
    == [evaluate_policy_finite(...) per req]  # all bit-identical

``workers=1`` never touches ``multiprocessing`` at all — the graceful
in-process fallback used by tests, single-core boxes and nested callers.

Every finite shard runs through the batched lock-step environments of
:mod:`repro.queueing.batched_env`; a single replica is simply a chunk of
``E = 1`` (``ExecutionContext(max_batch_replicas=1)``).

Everything shipped to a worker (config, policy, environment class and
kwargs, seed material) crosses the process boundary by pickling; the
policies and environments in this repository are plain
NumPy-array-holding objects, so this is cheap relative to a shard's
simulation work. See ``docs/scaling.md`` for guidance on combining
process-level sharding with the replica-batched backend.

Because shard results are a pure function of their request and seed
material, they are also *cacheable*: give the context a ``store`` (a
:class:`repro.store.store.ExperimentStore`) to reuse previously
computed shards by content hash and persist fresh ones — the mechanism
behind resumable sweeps, streams and campaigns, multi-host claim
partitioning, and the ``reproduce`` pipeline (see
``docs/reproduction.md`` and ``docs/scaling.md``).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.config import SystemConfig
from repro.execution import ExecutionContext
from repro.queueing.backends import available_backends
from repro.queueing.batched_env import (
    BatchedFiniteSystemEnv,
    _BatchedQueueSystemBase,
    run_episodes_batched,
)
from repro.utils.stats import mean_confidence_interval

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

    from repro.experiments.runner import MonteCarloResult
    from repro.policies.base import UpperLevelPolicy
    from repro.store.store import ExperimentStore

__all__ = ["EvalRequest", "SweepExecutor"]

SeedLike = "int | np.random.SeedSequence | np.random.Generator | None"

#: Picklable seed material carried by a shard: ``SeedSequence`` children
#: in the common case, drawn integers for exotic bit generators.
SeedMaterial = "np.random.SeedSequence | int"


def _check_chunked_request(request: Any) -> None:
    """Validation shared by every replica-chunked request (an
    :class:`EvalRequest` or a :class:`repro.serving.engine.StreamRequest`)."""
    if request.env_cls is not None and not (
        isinstance(request.env_cls, type)
        and issubclass(request.env_cls, _BatchedQueueSystemBase)
    ):
        raise ValueError(
            f"env_cls must be a batched environment class (a "
            f"_BatchedQueueSystemBase subclass), got {request.env_cls!r}"
        )
    if request.sim_backend != "auto" and (
        request.sim_backend not in available_backends()
    ):
        raise ValueError(
            f"unknown sim_backend {request.sim_backend!r}; registered "
            f"kernels: {available_backends()} (or 'auto')"
        )
    if request.max_batch_replicas < 1:
        raise ValueError("max_batch_replicas must be >= 1")


@dataclass(frozen=True)
class EvalRequest:
    """One Monte-Carlo evaluation: a sweep point of Figures 4-6.

    Mirrors the signature of
    :func:`repro.experiments.runner.evaluate_policy_finite`; a request is
    the unit whose merged statistics are guaranteed identical no matter
    how many workers execute its shards.

    ``env_cls`` must be a subclass of the batched queue-system base
    (:class:`repro.queueing.batched_env._BatchedQueueSystemBase`);
    ``None`` selects :class:`BatchedFiniteSystemEnv`.

    ``sim_backend`` picks the *epoch kernel* from
    :mod:`repro.queueing.backends` (``"numpy"``, ``"numba"`` or
    ``"auto"``). Kernels that preserve the RNG-draw contract produce
    bit-identical results, so shards cached under one such kernel are
    reused by the others.
    """

    config: SystemConfig
    policy: "UpperLevelPolicy"
    num_runs: int | None = None
    num_epochs: int | None = None
    seed: "SeedLike" = 0
    max_batch_replicas: int = 64
    env_cls: type | None = None
    env_kwargs: dict[str, Any] = field(default_factory=dict)
    sim_backend: str = "numpy"

    def __post_init__(self) -> None:
        _check_chunked_request(self)
        if self.resolved_runs() < 1:
            raise ValueError("num_runs must be >= 1")

    def resolved_runs(self) -> int:
        return int(
            self.num_runs
            if self.num_runs is not None
            else self.config.monte_carlo_runs
        )


@dataclass(frozen=True)
class _Shard:
    """A contiguous replica chunk of one request (the work unit)."""

    request_index: int
    offset: int  # first replica index within the request
    num_runs: int
    # The chunk generator's seed material, as a 1-tuple: a SeedSequence
    # (or an int for exotic generators without a retrievable seed
    # sequence). The tuple shape is part of the store key payload.
    seeds: "tuple[SeedMaterial, ...]"


def _spawn_seed_children(seed: "SeedLike", count: int) -> "list[SeedMaterial]":
    """Children mirroring :func:`repro.utils.rng.spawn_generators`.

    Returns picklable seed material (``SeedSequence`` children, or drawn
    integers for generators without a seed sequence) such that
    ``np.random.default_rng(child)`` equals the serial path's generator
    for the same position.
    """
    if isinstance(seed, np.random.Generator):
        seed_seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        if seed_seq is None:  # pragma: no cover - exotic bit generators
            return [int(seed.integers(2**63)) for _ in range(count)]
        return list(seed_seq.spawn(count))
    if isinstance(seed, np.random.SeedSequence):
        return list(seed.spawn(count))
    return list(np.random.SeedSequence(seed).spawn(count))


def _decompose(requests: Sequence[Any]) -> list[_Shard]:
    """Split every request into its deterministic replica-chunk shards:
    the serial path's chunking (same layout, same order), one spawned
    seed child per chunk.

    A request is an :class:`EvalRequest` or a
    :class:`repro.serving.engine.StreamRequest`.
    """
    shards: list[_Shard] = []
    for index, request in enumerate(requests):
        runs, chunk = request.resolved_runs(), request.max_batch_replicas
        offsets = range(0, runs, chunk)
        children = _spawn_seed_children(request.seed, len(offsets))
        for offset, child in zip(offsets, children):
            size = min(chunk, runs - offset)
            shards.append(_Shard(index, offset, size, (child,)))
    return shards


def _shard_env(request: Any, shard: _Shard) -> "tuple[Any, np.random.Generator]":
    """One replica chunk's batched environment and its generator."""
    # The kernel choice travels as a kwarg only when it deviates from
    # the default, so custom env classes that predate the ``backend``
    # parameter keep working with the default kernel.
    env_kwargs = dict(request.env_kwargs)
    if request.sim_backend != "numpy":
        env_kwargs.setdefault("backend", request.sim_backend)
    rng = np.random.default_rng(shard.seeds[0])
    env_cls = request.env_cls or BatchedFiniteSystemEnv
    env = env_cls(
        request.config, num_replicas=shard.num_runs, seed=rng, **env_kwargs
    )
    return env, rng


def _run_shard(request: EvalRequest, shard: _Shard) -> np.ndarray:
    """Execute one shard; returns its per-replica cumulative drops.

    Must remain a module-level function (pickled by reference when
    dispatched to worker processes).
    """
    env, rng = _shard_env(request, shard)
    result = run_episodes_batched(
        env, request.policy, num_epochs=request.num_epochs, seed=rng
    )
    return result.total_drops_per_queue


class _ChunkJob:
    """A replica-chunk job for :meth:`SweepExecutor.run_job`: ``requests``
    decompose into the shards of :func:`_decompose`, and a payload is a
    1-D float vector of ``payload_size(shard)`` entries kept through
    ``get_shard``/``put_shard``."""

    def __init__(self, requests: Sequence[Any]) -> None:
        self.requests = list(requests)
        self.shards = _decompose(self.requests)

    def load(self, store: "ExperimentStore", key: str, shard: Any) -> Any:
        """The stored payload of ``shard``, or ``None`` on a miss."""
        return store.get_shard(key, expected_runs=self.payload_size(shard))

    def save(
        self, store: "ExperimentStore", key: str, shard: Any, payload: Any
    ) -> None:
        """Persist one freshly computed payload."""
        request = self.requests[shard.request_index]
        store.put_shard(
            key,
            payload,
            meta={"policy": request.policy.name, "offset": shard.offset},
        )


class _SweepJob(_ChunkJob):
    """Finite Monte-Carlo sweep: per-replica drops merged by offset."""

    def __init__(self, requests: Sequence[EvalRequest]) -> None:
        super().__init__(requests)
        self.merged = [np.empty(req.resolved_runs()) for req in self.requests]

    def key(self, shard: _Shard) -> str:
        from repro.store.keys import shard_key

        return shard_key(self.requests[shard.request_index], shard)

    def task(self, shard: _Shard) -> tuple:
        # ``_run_shard`` is looked up at dispatch time, so a wrapper
        # installed on the module attribute sees every call.
        return _run_shard, (self.requests[shard.request_index], shard)

    def payload_size(self, shard: _Shard) -> int:
        return shard.num_runs

    def fold(self, shard: _Shard, drops: np.ndarray) -> None:
        if drops.shape != (shard.num_runs,):
            raise RuntimeError(
                f"shard returned {drops.shape}, expected ({shard.num_runs},)"
            )
        self.merged[shard.request_index][
            shard.offset : shard.offset + shard.num_runs
        ] = drops


class SweepExecutor:
    """The one shard executor: finite sweeps, streams and training
    campaigns all run through it.

    Parameters
    ----------
    context:
        :class:`repro.execution.ExecutionContext` carrying the execution
        knobs (``None`` means ``ExecutionContext()``):

        * ``workers`` — process count; ``1`` executes every shard
          in-process (no ``multiprocessing`` involvement). Results are
          independent of this value.
        * ``store`` — optional
          :class:`repro.store.store.ExperimentStore`. Every shard is
          looked up by its content hash before dispatch (cache hits
          merge without computing anything) and every freshly computed
          shard is persisted atomically on completion — so a killed
          run resumes where it stopped, and overlapping runs (e.g.
          two figure grids sharing sub-sweeps) reuse each other's
          shards. Cached and fresh shards merge bit-identically to a
          cold run because a shard's result is a pure function of its
          key inputs.
        * ``claim`` — multi-node mode: before computing a pending shard,
          claim it through the store's atomic claim files
          (:meth:`~repro.store.store.ExperimentStore.try_claim`).
          Independent hosts pointing at one shared store directory then
          partition the shards between them without a coordinator: each
          host computes the shards it wins, polls the store for shards
          claimed elsewhere, and merges everything bit-identically to a
          single-host run (*who* computes a shard cannot change it). A
          claim untouched for ``stale_claim_after`` seconds (a killed
          worker) is taken over, making every shard at-least-once.
        * ``merge_only`` — merge previously completed shards from the
          store without computing anything; raises ``RuntimeError``
          naming the missing shard count if any is absent. This is how
          any host — even one that computed nothing — assembles a
          partitioned run's final result.

        The context validates these (``workers >= 1``, a store for
        ``claim``/``merge_only``, the two modes exclusive). Its
        ``sim_backend``/``max_batch_replicas`` are per-request knobs and
        are ignored here.
    mp_context:
        Optional ``multiprocessing`` context or start-method name
        (``"fork"``, ``"spawn"``, ...) forwarded to the pool.
    claim_owner:
        Identity written into claim files (diagnostics only); defaults
        to ``"<hostname>:<pid>"``.
    stale_claim_after:
        Seconds after which another worker's untouched claim is
        considered abandoned and taken over. ``None`` disables takeover
        (a killed claimant then blocks the run until its claim is
        removed by hand).
    claim_poll_interval:
        Seconds between store polls while waiting for shards claimed by
        other hosts.
    claim_timeout:
        Optional overall deadline (seconds) for those waits;
        ``TimeoutError`` when exceeded. ``None`` waits indefinitely.
    """

    def __init__(
        self,
        context: "ExecutionContext | None" = None,
        mp_context: "BaseContext | str | None" = None,
        claim_owner: str | None = None,
        stale_claim_after: float | None = 1800.0,
        claim_poll_interval: float = 0.25,
        claim_timeout: float | None = None,
    ) -> None:
        import os

        ctx = context or ExecutionContext()
        if stale_claim_after is not None and stale_claim_after <= 0:
            raise ValueError("stale_claim_after must be > 0 (or None)")
        if claim_poll_interval <= 0:
            raise ValueError("claim_poll_interval must be > 0")
        if claim_timeout is not None and claim_timeout <= 0:
            raise ValueError("claim_timeout must be > 0 (or None)")
        self.workers = ctx.workers
        if isinstance(mp_context, str):
            import multiprocessing

            mp_context = multiprocessing.get_context(mp_context)
        self._mp_context = mp_context
        self.store = ctx.store
        self.claim = ctx.claim
        self.merge_only = ctx.merge_only
        if claim_owner is None:
            import socket

            claim_owner = f"{socket.gethostname()}:{os.getpid()}"
        self.claim_owner = str(claim_owner)
        self.stale_claim_after = stale_claim_after
        self.claim_poll_interval = float(claim_poll_interval)
        self.claim_timeout = claim_timeout

    def run_drops(self, requests: Sequence[EvalRequest]) -> list[np.ndarray]:
        """Merged per-replica drops for every request, in request order.

        The low-level entry point: returns the raw drop arrays so callers
        that do not want :class:`MonteCarloResult` objects (benchmarks,
        custom mergers) can consume shard output directly.
        """
        job = _SweepJob(requests)
        self.run_job(job)
        return job.merged

    def run_job(self, job: Any) -> None:
        """Fold every shard of ``job``: store hits first, in shard order,
        then the rest as they are computed (see the class docstring for
        ``claim`` and ``merge_only``).

        A job lists its ``shards`` and supplies, per shard, its store key
        (``key(shard)``), a module-level compute call
        (``task(shard) -> (function, args)``, pickled to worker
        processes), how to merge a cached or fresh payload
        (``fold(shard, payload)``) and how to read and write it
        (``load(store, key, shard)``, ``None`` on a miss;
        ``save(store, key, shard, payload)``).
        """
        pending = self._resolve_cached(job)
        if self.merge_only:
            if pending:
                raise RuntimeError(
                    f"merge-only run is missing {len(pending)} shard(s) "
                    "from the store; run the claimants to completion first"
                )
            return
        if self.claim:
            self._run_claimed(job, pending)
            return
        self._execute(job, pending)

    def _execute(
        self, job: Any, pending: "list[tuple[Any, str | None]]"
    ) -> None:
        """Compute ``pending`` shards (serially or pooled) and fold them."""
        if self.workers == 1 or len(pending) <= 1:
            for shard, key in pending:
                function, args = job.task(shard)
                self._finish(job, shard, key, function(*args))
            return
        max_workers = min(self.workers, len(pending))
        with ProcessPoolExecutor(
            max_workers=max_workers, mp_context=self._mp_context
        ) as pool:
            futures = {}
            for shard, key in pending:
                function, args = job.task(shard)
                futures[pool.submit(function, *args)] = (shard, key)
            try:
                for future in as_completed(futures):
                    shard, key = futures[future]
                    self._finish(job, shard, key, future.result())
            except BaseException:
                # Fail fast: drop every still-queued shard instead of
                # letting a long run go to completion behind the first
                # worker failure (in-flight shards still finish).
                for future in futures:
                    future.cancel()
                raise

    def _run_claimed(
        self, job: Any, pending: "list[tuple[Any, str | None]]"
    ) -> None:
        """Claim-partitioned execution of ``pending`` against the store.

        Each round claims whatever shards are unowned (including stale
        claims of dead workers), computes them, then sweeps the store
        for shards other hosts finished in the meantime. The loop
        terminates because every shard is either claimable here
        eventually (stale takeover) or completed — and published —
        elsewhere; merged output is bit-identical to a single-host run
        because shard results are pure functions of their key inputs.
        """
        import time

        store = self.store
        assert store is not None
        deadline = (
            None
            if self.claim_timeout is None
            else time.monotonic() + self.claim_timeout
        )
        remaining = list(pending)
        while remaining:
            mine: list[tuple[Any, str | None]] = []
            waiting: list[tuple[Any, str]] = []
            for shard, key in remaining:
                assert key is not None  # claim mode requires a store
                if not store.try_claim(
                    key, self.claim_owner, stale_after=self.stale_claim_after
                ):
                    waiting.append((shard, key))
                    continue
                # Claim-then-check: a finished claimant persists *before*
                # releasing, so holding the claim and still missing the
                # entry proves nobody computed this shard — duplicates
                # are impossible outside stale takeover of a live
                # worker.
                payload = job.load(store, key, shard)
                if payload is not None:
                    self._merge(job, shard, payload)
                    store.release_claim(key)
                else:
                    mine.append((shard, key))
            if mine:
                try:
                    self._execute(job, mine)
                finally:
                    # Results are persisted (or at least merged); drop
                    # the claims so crashes here don't strand shards
                    # until stale takeover.
                    for _, key in mine:
                        store.release_claim(key)
            remaining = self._fold_stored(job, waiting)
            if remaining and not mine:
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"{len(remaining)} shard(s) still claimed by other "
                        f"workers after {self.claim_timeout:g}s"
                    )
                time.sleep(self.claim_poll_interval)

    def _resolve_cached(
        self, job: Any
    ) -> "list[tuple[Any, str | None]]":
        """Fold store hits in place; return the shards left to compute.

        Each pending entry carries the shard's precomputed store key
        (``None`` without a store) so completion can persist the result
        without re-hashing the request.
        """
        if self.store is None:
            return [(shard, None) for shard in job.shards]
        return self._fold_stored(
            job, [(shard, job.key(shard)) for shard in job.shards]
        )

    def _fold_stored(
        self, job: Any, shards: "list[tuple[Any, str]]"
    ) -> "list[tuple[Any, str | None]]":
        """Fold every shard the store holds; return the others."""
        assert self.store is not None
        missing: list[tuple[Any, str | None]] = []
        for shard, key in shards:
            payload = job.load(self.store, key, shard)
            if payload is not None:
                self._merge(job, shard, payload)
            else:
                missing.append((shard, key))
        return missing

    def _finish(
        self, job: Any, shard: Any, key: str | None, payload: Any
    ) -> None:
        """Fold one freshly computed shard, then write it to the store.

        Persistence failures (disk full, store turned read-only, ...)
        must not lose the freshly computed result or abort the run: the
        merged result is already correct without the cache, so the
        error is downgraded to a warning and counted on the store's
        ``write_errors`` stat — the worst case of an unwritable store is
        recomputation next run, mirroring the read path's recovery
        discipline.
        """
        self._merge(job, shard, payload)
        if self.store is None or key is None:
            return
        try:
            job.save(self.store, key, shard, payload)
        except OSError as exc:
            import warnings

            self.store.stats.write_errors += 1
            warnings.warn(
                f"experiment store write failed ({exc}); continuing "
                "without persisting this shard",
                RuntimeWarning,
                stacklevel=2,
            )

    def run(self, requests: Sequence[EvalRequest]) -> "list[MonteCarloResult]":
        """Evaluate every request; returns one merged
        :class:`~repro.experiments.runner.MonteCarloResult` per request,
        bit-identical to the serial
        :func:`~repro.experiments.runner.evaluate_policy_finite` path."""
        from repro.experiments.runner import MonteCarloResult

        requests = list(requests)
        return [
            MonteCarloResult(
                policy_name=request.policy.name,
                config=request.config,
                drops=drops,
                interval=mean_confidence_interval(drops),
            )
            for request, drops in zip(requests, self.run_drops(requests))
        ]

    @staticmethod
    def _merge(job: Any, shard: Any, payload: Any) -> None:
        """Fold one shard's payload into ``job`` (every shard passes here
        exactly once, cached or fresh)."""
        job.fold(shard, payload)
