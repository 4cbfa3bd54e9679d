"""Scenario registry: named workloads for the sweep orchestrator.

Importing this package registers the built-in catalogue — the dense
workloads ``paper-baseline``, ``heterogeneous-sed``, ``bursty-mmpp``
and ``overload``, the sparse-topology workloads ``ring-local``,
``torus-local``, ``random-regular`` and ``sparse-heterogeneous``, the
streaming workloads ``diurnal-stream``, ``flash-crowd`` and
``stochastic-delay``, and the closed-loop control workloads
``adaptive-diurnal`` and ``adaptive-flash-crowd`` (see
:mod:`repro.scenarios.builtin`).
:func:`run_scenario` executes any registered name through the sharded
:class:`repro.experiments.parallel.SweepExecutor`, optionally backed by
the content-addressed shard store (``ExecutionContext(store=...)``);
the ``stream`` CLI subcommand (:mod:`repro.serving`) streams any of
them over long horizons instead. See ``docs/workloads.md`` for the catalogue and
``docs/scaling.md`` for worker guidance.
"""

from repro.scenarios import builtin as _builtin  # noqa: F401  (registers the catalogue)
from repro.scenarios.registry import (
    ScenarioSpec,
    available_scenarios,
    get_scenario,
    register_scenario,
    scenario_summaries,
)
from repro.scenarios.run import ScenarioSweepResult, run_scenario

__all__ = [
    "ScenarioSpec",
    "ScenarioSweepResult",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "scenario_summaries",
]
