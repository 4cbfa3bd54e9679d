"""First-order optimizers over named parameter dictionaries.

The networks in :mod:`repro.rl.nn` expose their parameters as
``dict[str, np.ndarray]``; :class:`Adam` keeps per-key first/second
moments and produces *update dictionaries* that the networks apply in
place. A global-norm gradient clipper matching RLlib's ``grad_clip``
semantics is included.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Adam", "Sgd", "global_norm", "clip_grads_by_global_norm"]


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """L2 norm of the concatenation of all gradient arrays."""
    total = 0.0
    for g in grads.values():
        total += float(np.square(g).sum())
    return math.sqrt(total)


def clip_grads_by_global_norm(
    grads: dict[str, np.ndarray], max_norm: float
) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients so their global norm is at most ``max_norm``.

    Returns the (possibly) clipped gradients and the pre-clip norm.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    norm = global_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    scale = max_norm / norm
    return {k: g * scale for k, g in grads.items()}, norm


class Adam:
    """Adam (Kingma & Ba 2015) over a parameter dictionary.

    ``step(grads)`` returns the update to *add* to each parameter
    (i.e. ``-lr * m_hat / (sqrt(v_hat) + eps)``), leaving application to
    the owning network. Unknown gradient keys raise immediately — a
    misspelled key silently not updating a layer is a classic RL bug.

    Each step works in two preallocated scratch buffers per parameter
    (``out=`` ufuncs in the textbook operation order, so the result is
    bit-identical to the allocating formula) and allocates nothing. The
    returned update arrays are those buffers: they are valid only until
    the next ``step``, so apply them (or copy them) before stepping again.
    """

    def __init__(
        self,
        param_shapes: dict[str, tuple[int, ...]],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-7,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ValueError("betas must lie in [0, 1)")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m = {k: np.zeros(shape) for k, shape in param_shapes.items()}
        self._v = {k: np.zeros(shape) for k, shape in param_shapes.items()}
        self._scratch = {
            k: (np.empty(shape), np.empty(shape))
            for k, shape in param_shapes.items()
        }
        self._t = 0

    @classmethod
    def for_params(
        cls, params: dict[str, np.ndarray], learning_rate: float, **kwargs
    ) -> "Adam":
        return cls(
            {k: v.shape for k, v in params.items()},
            learning_rate=learning_rate,
            **kwargs,
        )

    def step(self, grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        unknown = set(grads) - set(self._m)
        if unknown:
            raise KeyError(f"gradients for unknown parameters: {sorted(unknown)}")
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        updates: dict[str, np.ndarray] = {}
        for key, grad in grads.items():
            if grad.shape != self._m[key].shape:
                raise ValueError(
                    f"gradient shape {grad.shape} != parameter shape "
                    f"{self._m[key].shape} for {key!r}"
                )
            m = self._m[key]
            v = self._v[key]
            step, denom = self._scratch[key]
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, grad, out=step)
            v *= self.beta2
            np.square(grad, out=denom)
            v += np.multiply(1.0 - self.beta2, denom, out=denom)
            # (-lr * m_hat) / (sqrt(v_hat) + eps)
            np.divide(m, bias1, out=step)
            np.multiply(-self.learning_rate, step, out=step)
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.epsilon
            updates[key] = np.divide(step, denom, out=step)
        return updates

    @property
    def step_count(self) -> int:
        return self._t


class Sgd:
    """Plain SGD with optional momentum (used in optimizer unit tests)."""

    def __init__(
        self,
        param_shapes: dict[str, tuple[int, ...]],
        learning_rate: float = 1e-2,
        momentum: float = 0.0,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0 <= momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity = {k: np.zeros(shape) for k, shape in param_shapes.items()}

    def step(self, grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        updates: dict[str, np.ndarray] = {}
        for key, grad in grads.items():
            if key not in self._velocity:
                raise KeyError(f"gradient for unknown parameter {key!r}")
            vel = self._velocity[key]
            vel *= self.momentum
            vel -= self.learning_rate * grad
            updates[key] = vel.copy()
        return updates
