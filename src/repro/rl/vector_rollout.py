"""``VectorRolloutCollector``: an alias of :class:`repro.rl.rollout.RolloutCollector`."""

from repro.rl.rollout import RolloutCollector

__all__ = ["VectorRolloutCollector"]

# A plain alias, kept because the benchmark's span table
# (perfbench/spans.py) imports and wraps ``collect`` under this name too.
VectorRolloutCollector = RolloutCollector
