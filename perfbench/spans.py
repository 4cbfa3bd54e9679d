"""Spans around the library's public call sites, recorded from outside.

:func:`instrument` replaces each call site named in :data:`LAYERS` with
a wrapper that records a span (name, start, end, parent, run id) and
restores the originals on exit, so untraced passes run the unmodified
library. The wrappers draw no random numbers and change no argument or
result, which is why a traced pass must reproduce the untraced outputs
bit for bit (the benchmark checks it).

A layer's self time is its span's duration minus the time of its child
spans. Every traced pass sits under one root span, ``bench.other``,
whose self time is the time spent outside every listed layer, so the
self times of a pass add up to its wall time.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

ROOT_SPAN = "bench.other"

#: Layer -> (public call it wraps, end-to-end metric it should move and where).
LAYERS: dict[str, tuple[str, str]] = {
    "queueing.sample": (
        "backends.draw_uniform_queue_samples",
        "env_steps_per_s on commit-sweep and fig5-panel (5-7%)",
    ),
    "queueing.choose_commit": (
        "kernel.committed_counts",
        "env_steps_per_s on commit-sweep (about 2/3 of it); no change on fig5-panel or delay-stream",
    ),
    "queueing.choose_packet": (
        "kernel.packet_fractions",
        "env_steps_per_s on delay-stream (about 3/4) and fig5-panel (about 1/3); no change on commit-sweep",
    ),
    "queueing.serve": (
        "kernel.serve_epoch",
        "env_steps_per_s on fig5-panel (about 1/2) and commit-sweep (about 1/4); little on delay-stream",
    ),
    "queueing.env_step": (
        "BatchedQueueSystem.step_with_policy",
        "env_steps_per_s on every finite workload",
    ),
    "policies.rules_batch": (
        "UpperLevelPolicy.decision_rules_batch",
        "env_steps_per_s on commit-sweep (MF cell) and fig5-panel (MF cells)",
    ),
    "meanfield.rule_from_raw": (
        "DecisionRule.from_raw",
        "env_steps_per_s on mfc-train and the commit-sweep MF cell",
    ),
    "rl.nn_forward": ("MLP.forward", "env_steps_per_s on mfc-train and the MF cells"),
    "meanfield.env_step": ("MeanFieldEnv.step_raw", "env_steps_per_s on mfc-train"),
    "meanfield.propagate": ("Propagator.propagate", "env_steps_per_s on mfc-train"),
    "rl.collect": ("RolloutCollector.collect", "env_steps_per_s on mfc-train"),
    "rl.update": (
        "PPOTrainer.train_iteration (self time: the update without collect)",
        "env_steps_per_s on mfc-train (SGD is about 3/4)",
    ),
    "experiments.shard": (
        "parallel._run_shard (self time: shard overhead around the environment steps)",
        "env_steps_per_s on fig5-panel (under 1% today)",
    ),
    "experiments.merge": ("SweepExecutor._merge", "env_steps_per_s on fig5-panel (under 1% today)"),
    "store.get": ("ExperimentStore.get_shard", "env_steps_per_s on fig5-panel (cold: no hits, warm: all hits)"),
    "store.put": ("ExperimentStore.put_shard", "env_steps_per_s on fig5-panel (one write per cold cell)"),
    "serving.observe_epoch": ("StreamingMetrics.observe_epoch", "env_steps_per_s on delay-stream (about 2%)"),
}


@dataclass
class Tracer:
    """In-memory span recorder for one traced pass."""

    run_id: str
    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    self_s: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _child_s: list[float] = field(default_factory=list)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.self_s.append(0.0)
        self._child_s.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.ends[idx] = end
        duration = end - self.starts[idx]
        self.self_s[idx] = duration - self._child_s[idx]
        parent = self.parents[idx]
        if parent >= 0:
            self._child_s[parent] += duration

    def innermost(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def durations(self, name: str) -> np.ndarray:
        idx = [i for i, n in enumerate(self.names) if n == name]
        return np.asarray([self.ends[i] - self.starts[i] for i in idx])

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self seconds and inclusive seconds."""
        table: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self.self_s[i]
            row["total_s"] += self.ends[i] - self.starts[i]
        return table

    def spans(self) -> list[list]:
        """Every span as ``[name, start, end, parent index, self_s]``."""
        return [list(row) for row in zip(self.names, self.starts, self.ends, self.parents, self.self_s)]


def write_spans(path: Path, record: dict, tracers: list[Tracer]) -> None:
    """Write the spans of every traced pass, with the run record, as gzip JSON."""
    payload = {
        "record": record,
        "layers": LAYERS,
        "columns": ["name", "start", "end", "parent", "self_s"],
        "passes": [{"run_id": t.run_id, "spans": t.spans()} for t in tracers],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)


def _wrapped(tracer: Tracer, name: str, fn: Callable, on_return: Callable | None) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        # A layer re-entered through super() folds into its outer span.
        if tracer.innermost() == name:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_return is not None:
            on_return(tracer, args, result)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _classes_defining(base: type, attr: str) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if attr in cls.__dict__ and cls not in found:
            found.append(cls)
    return found


def _call_sites(kernel_cls: type) -> list[tuple[str, list[tuple[Any, str]], Callable | None]]:
    """(layer, [(owner, attribute)], on_return counter hook) per layer."""
    from repro.experiments import parallel
    from repro.meanfield.decision_rule import DecisionRule
    from repro.meanfield.discretization import ExactPropagator, TabulatedPropagator
    from repro.meanfield.mfc_env import MeanFieldEnv
    from repro.policies.base import UpperLevelPolicy
    from repro.queueing.backends import protocol
    from repro.queueing.batched_env import _BatchedQueueSystemBase
    from repro.rl.nn import MLP
    from repro.rl.ppo import PPOTrainer
    from repro.rl.rollout import RolloutCollector
    from repro.rl.vector_rollout import VectorRolloutCollector
    from repro.serving.metrics import StreamingMetrics
    from repro.store.store import ExperimentStore

    # The sample stage is a module-level function imported by name into
    # each environment module, so every module binding is replaced.
    sample = protocol.draw_uniform_queue_samples
    sample_sites = [
        (mod, attr)
        for mod_name, mod in list(sys.modules.items())
        if mod_name.split(".")[0] == "repro" and mod is not None
        for attr, value in list(vars(mod).items())
        if value is sample
    ]

    def clients(t: Tracer, args: tuple, result: Any) -> None:
        t.count("queueing.choose_commit.clients", args[2].shape[0] * args[2].shape[1])

    def client_slots(t: Tracer, args: tuple, result: Any) -> None:
        t.count("queueing.choose_packet.client_slots", args[2].size)

    def queue_epochs(t: Tracer, args: tuple, result: Any) -> None:
        t.count("queueing.serve.queue_epochs", args[1].size)

    def sgd_epochs(t: Tracer, args: tuple, result: Any) -> None:
        t.count("rl.update.sgd_epochs_run", result.epochs_run)

    def lookups(t: Tracer, args: tuple, result: Any) -> None:
        t.count("store.get.lookups")
        t.count("store.get.hits", result is not None)

    def writes(t: Tracer, args: tuple, result: Any) -> None:
        t.count("store.put.writes")
        t.count("store.put.bytes_written", Path(result).stat().st_size)

    return [
        ("queueing.sample", sample_sites, None),
        ("queueing.choose_commit", [(kernel_cls, "committed_counts")], clients),
        ("queueing.choose_packet", [(kernel_cls, "packet_fractions")], client_slots),
        ("queueing.serve", [(kernel_cls, "serve_epoch")], queue_epochs),
        ("queueing.env_step", [(c, "step_with_policy") for c in _classes_defining(_BatchedQueueSystemBase, "step_with_policy")], None),
        ("policies.rules_batch", [(c, "decision_rules_batch") for c in _classes_defining(UpperLevelPolicy, "decision_rules_batch")], None),
        ("meanfield.rule_from_raw", [(DecisionRule, "from_raw")], None),
        ("rl.nn_forward", [(MLP, "forward")], None),
        ("meanfield.env_step", [(MeanFieldEnv, "step_raw")], None),
        ("meanfield.propagate", [(ExactPropagator, "propagate"), (TabulatedPropagator, "propagate")], None),
        ("rl.collect", [(VectorRolloutCollector, "collect"), (RolloutCollector, "collect")], None),
        ("rl.update", [(PPOTrainer, "train_iteration")], sgd_epochs),
        ("experiments.shard", [(parallel, "_run_shard")], None),
        ("experiments.merge", [(parallel.SweepExecutor, "_merge")], None),
        ("store.get", [(ExperimentStore, "get_shard")], lookups),
        ("store.put", [(ExperimentStore, "put_shard")], writes),
        ("serving.observe_epoch", [(StreamingMetrics, "observe_epoch")], None),
    ]


@contextmanager
def instrument(tracer: Tracer, kernel_cls: type) -> Iterator[Tracer]:
    """Wrap every call site of :data:`LAYERS` for the duration of the block."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for layer, sites, on_return in _call_sites(kernel_cls):
            for owner, attr in sites:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, (staticmethod, classmethod)):
                    patched = type(raw)(_wrapped(tracer, layer, raw.__func__, on_return))
                else:
                    patched = _wrapped(tracer, layer, raw, on_return)
                setattr(owner, attr, patched)
        root = tracer.open(ROOT_SPAN)
        try:
            yield tracer
        finally:
            tracer.close(root)
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
