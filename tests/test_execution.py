"""Tests for the consolidated execution knobs (`repro.execution`).

The contract: ``context=ExecutionContext(...)`` is the only way to pass
workers/store/sim_backend/max_batch_replicas/claim/merge_only; the
individual keyword arguments of earlier releases are gone, so passing
one is a ``TypeError``.
"""

from __future__ import annotations

import warnings

import pytest

from repro.execution import ExecutionContext
from repro.store import ExperimentStore


class TestExecutionContext:
    def test_defaults(self):
        ctx = ExecutionContext()
        assert ctx.workers == 1
        assert ctx.store is None
        assert ctx.sim_backend == "numpy"
        assert ctx.max_batch_replicas is None
        assert ctx.resolved_max_batch_replicas() == 64
        assert ctx.resolved_max_batch_replicas(8) == 8

    def test_explicit_chunk_size_wins_over_callee_default(self):
        ctx = ExecutionContext(max_batch_replicas=16)
        assert ctx.resolved_max_batch_replicas(8) == 16

    def test_is_frozen_and_validated(self):
        ctx = ExecutionContext()
        with pytest.raises(AttributeError):
            ctx.workers = 4
        with pytest.raises(ValueError, match="workers"):
            ExecutionContext(workers=0)
        with pytest.raises(ValueError, match="max_batch_replicas"):
            ExecutionContext(max_batch_replicas=0)
        with pytest.raises(ValueError, match="sim_backend"):
            ExecutionContext(sim_backend="fortran")

    def test_auto_backend_is_accepted(self):
        assert ExecutionContext(sim_backend="auto").sim_backend == "auto"


class TestEntryPointThreading:
    """The harness entry points accept context= without warning and
    reject the removed individual knobs."""

    def test_sweep_executor_rejects_mixed_styles(self):
        from repro.experiments.parallel import SweepExecutor

        with pytest.raises(TypeError, match="workers"):
            SweepExecutor(workers=2, context=ExecutionContext(workers=2))

    def test_sweep_executor_reads_context(self, tmp_path):
        from repro.experiments.parallel import SweepExecutor

        store = ExperimentStore(tmp_path / "cache")
        executor = SweepExecutor(
            context=ExecutionContext(workers=2, store=store)
        )
        assert executor.workers == 2
        assert executor.store is store

    def test_evaluate_policy_finite_accepts_context(self):
        from repro.config import paper_system_config
        from repro.experiments.runner import (
            evaluate_policy_finite,
            policy_suite,
        )

        config = paper_system_config(num_queues=8).with_updates(
            episode_length=4, monte_carlo_runs=2
        )
        policy = policy_suite(config)["RND"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = evaluate_policy_finite(
                config, policy, context=ExecutionContext()
            )
        assert result.drops.shape == (2,)

    def test_evaluate_policy_finite_rejects_mixed_styles(self):
        from repro.config import paper_system_config
        from repro.experiments.runner import (
            evaluate_policy_finite,
            policy_suite,
        )

        config = paper_system_config(num_queues=8)
        policy = policy_suite(config)["RND"]
        with pytest.raises(TypeError, match="workers"):
            evaluate_policy_finite(
                config, policy, workers=2, context=ExecutionContext()
            )

    @pytest.mark.parametrize(
        "entry_point, legacy",
        [
            ("repro.experiments.runner:evaluate_policy_finite", "backend"),
            ("repro.experiments.runner:evaluate_policy_finite", "store"),
            ("repro.experiments.runner:evaluate_policy_finite", "sim_backend"),
            (
                "repro.experiments.runner:evaluate_policy_finite",
                "max_batch_replicas",
            ),
            ("repro.experiments.fig4_convergence:run_fig4", "workers"),
            ("repro.experiments.fig5_delay_sweep:run_fig5", "store"),
            ("repro.experiments.fig6_small_n:run_fig6", "sim_backend"),
            ("repro.scenarios.run:run_scenario", "workers"),
            ("repro.serving.engine:run_stream_request", "store"),
            ("repro.serving.engine:run_stream_scenario", "workers"),
            ("repro.serving.engine:run_stream_scenario", "sim_backend"),
            ("repro.store.pipeline:run_reproduction", "claim"),
            ("repro.experiments.parallel:SweepExecutor", "workers"),
            ("repro.experiments.parallel:SweepExecutor", "store"),
            ("repro.experiments.parallel:SweepExecutor", "merge_only"),
        ],
    )
    def test_legacy_knobs_are_gone(self, entry_point, legacy):
        import importlib
        import inspect

        module, name = entry_point.split(":")
        function = getattr(importlib.import_module(module), name)
        parameters = inspect.signature(function).parameters
        assert legacy not in parameters
        assert "context" in parameters

    def test_merge_only_on_empty_store_raises(self, tmp_path):
        """``evaluate_policy_finite`` honours the context's merge-only
        mode exactly like the figure sweeps: nothing is computed."""
        from repro.config import paper_system_config
        from repro.experiments.runner import (
            evaluate_policy_finite,
            policy_suite,
        )

        config = paper_system_config(num_queues=8).with_updates(
            episode_length=4, monte_carlo_runs=2
        )
        store = ExperimentStore(tmp_path / "empty")
        context = ExecutionContext(store=store, merge_only=True)
        with pytest.raises(RuntimeError, match="merge-only"):
            evaluate_policy_finite(
                config, policy_suite(config)["RND"], context=context
            )
        assert store.stats.writes == 0
        assert list(store.iter_keys()) == []
