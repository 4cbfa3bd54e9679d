"""Common interface for upper-level policies (paper Figure 2).

An upper-level policy maps the observed queue-state distribution (the
mean field ``ν_t`` in the limit model, or the empirical distribution
``H^M_t`` in the finite system) and the current arrival mode to a
lower-level decision rule ``h_t``. Stochastic upper-level policies (the
PPO policy explores over ``P(H)``) consume the supplied generator;
deterministic ones ignore it.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.meanfield.decision_rule import DecisionRule

__all__ = ["UpperLevelPolicy"]


class UpperLevelPolicy(abc.ABC):
    """Abstract upper-level policy ``π̃(ν, λ) = h``."""

    @abc.abstractmethod
    def decision_rule(
        self,
        nu: np.ndarray,
        lam_mode: int,
        rng: np.random.Generator | None = None,
    ) -> DecisionRule:
        """Return the decision rule for state distribution ``nu`` and
        arrival mode ``lam_mode``."""

    def decision_rules_batch(
        self,
        nus: np.ndarray,
        lam_modes: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> list[DecisionRule]:
        """Rules for a batch of replica states (``nus`` is ``(E, S)``,
        ``lam_modes`` is ``(E,)``).

        The default queries :meth:`decision_rule` per replica; policies
        with a batchable forward pass (e.g.
        :class:`repro.policies.learned.NeuralPolicy`) override this to
        answer all replicas at once — the fast path used by the batched
        environments and the lock-step rollout collector.
        """
        nus = np.asarray(nus)
        lam_modes = np.asarray(lam_modes)
        if nus.ndim != 2 or lam_modes.shape != (nus.shape[0],):
            raise ValueError(
                "nus must be (E, S) with one lam_mode per replica, got "
                f"{nus.shape} and {lam_modes.shape}"
            )
        return [
            self.decision_rule(nus[i], int(lam_modes[i]), rng)
            for i in range(nus.shape[0])
        ]

    @property
    def name(self) -> str:
        """Short identifier used in experiment tables."""
        return type(self).__name__

    def is_stationary(self) -> bool:
        """True if the emitted rule ignores ``(ν, λ)`` (open-loop rule)."""
        return False
