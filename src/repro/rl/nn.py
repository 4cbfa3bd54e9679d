"""Multi-layer perceptrons with manual backpropagation (NumPy only).

The paper's policy network (Figure 2) is a 2x256 tanh MLP with a
Gaussian head (mean + log standard deviation); the value function uses
the same trunk architecture. Since no autodiff framework is available
offline we implement forward/backward passes by hand; the gradients are
verified against central finite differences in the test suite.

Initialization follows RLlib's ``normc`` scheme: weights are sampled
standard normal and rescaled so each output column has a fixed L2 norm
(1.0 for hidden layers, 0.01 for output heads), biases start at zero.
"""

from __future__ import annotations

import numpy as np

from repro.rl.distributions import DiagGaussian
from repro.utils.rng import as_generator

__all__ = [
    "MLP",
    "GaussianPolicyNetwork",
    "ValueNetwork",
    "widen_input_weights",
]

# Module-level named functions (not lambdas) so that networks — and the
# policies wrapping them — stay picklable across process boundaries
# (the sharded sweep executor ships policies to worker processes).
def _tanh_grad(y: np.ndarray) -> np.ndarray:
    # Derivative expressed through the activation output: 1 - tanh².
    return 1.0 - y**2


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_grad(y: np.ndarray) -> np.ndarray:
    return (y > 0).astype(y.dtype)


_ACTIVATIONS = {
    "tanh": (np.tanh, _tanh_grad),
    "relu": (_relu, _relu_grad),
}


def _normc_init(
    rng: np.random.Generator, fan_in: int, fan_out: int, std: float
) -> np.ndarray:
    w = rng.standard_normal((fan_in, fan_out))
    w *= std / np.sqrt(np.square(w).sum(axis=0, keepdims=True))
    return w


class MLP:
    """Fully connected network ``in_dim -> hidden_sizes -> out_dim``.

    Parameters are stored in a flat ``dict[str, np.ndarray]`` (keys
    ``W0, b0, W1, b1, ...``) so optimizers and checkpoints can treat any
    network uniformly.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_sizes: tuple[int, ...],
        out_dim: int,
        activation: str = "tanh",
        out_std: float = 0.01,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if in_dim < 1 or out_dim < 1:
            raise ValueError("in_dim and out_dim must be >= 1")
        if activation not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; have {sorted(_ACTIVATIONS)}"
            )
        rng = as_generator(rng)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden_sizes = tuple(hidden_sizes)
        self.activation = activation
        self._act, self._act_grad = _ACTIVATIONS[activation]
        self.params: dict[str, np.ndarray] = {}
        sizes = [in_dim, *self.hidden_sizes, out_dim]
        self.num_layers = len(sizes) - 1
        for layer in range(self.num_layers):
            is_output = layer == self.num_layers - 1
            std = out_std if is_output else 1.0
            self.params[f"W{layer}"] = _normc_init(
                rng, sizes[layer], sizes[layer + 1], std
            )
            self.params[f"b{layer}"] = np.zeros(sizes[layer + 1])

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass; returns ``(output, cache)`` for backprop.

        ``x`` has shape ``(n, in_dim)``; the cache holds the input and
        every post-activation hidden output.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input dim {x.shape[1]} != {self.in_dim}")
        cache = [x]
        h = x
        for layer in range(self.num_layers - 1):
            pre = h @ self.params[f"W{layer}"] + self.params[f"b{layer}"]
            h = self._act(pre)
            cache.append(h)
        out = h @ self.params[f"W{self.num_layers - 1}"] + self.params[
            f"b{self.num_layers - 1}"
        ]
        return out, cache

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(
        self, cache: list[np.ndarray], grad_out: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Gradients of ``sum(grad_out * output)`` w.r.t. all parameters.

        ``grad_out`` has shape ``(n, out_dim)`` — the upstream gradient.
        Returns a dict matching :attr:`params`. (Summed over the batch;
        divide upstream by ``n`` for a mean loss.)
        """
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if grad_out.ndim == 1:
            grad_out = grad_out[None, :]
        grads: dict[str, np.ndarray] = {}
        delta = grad_out
        for layer in range(self.num_layers - 1, -1, -1):
            inputs = cache[layer]
            grads[f"W{layer}"] = inputs.T @ delta
            grads[f"b{layer}"] = delta.sum(axis=0)
            if layer > 0:
                delta = delta @ self.params[f"W{layer}"].T
                delta = delta * self._act_grad(cache[layer])
        return grads

    def apply_update(self, updates: dict[str, np.ndarray]) -> None:
        """Add ``updates[k]`` to parameter ``k`` in place."""
        for key, delta in updates.items():
            self.params[key] += delta

    # ------------------------------------------------------------------
    def get_flat(self) -> np.ndarray:
        return np.concatenate([self.params[k].ravel() for k in sorted(self.params)])

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        offset = 0
        for key in sorted(self.params):
            size = self.params[key].size
            self.params[key] = flat[offset : offset + size].reshape(
                self.params[key].shape
            )
            offset += size
        if offset != flat.size:
            raise ValueError(f"flat vector has {flat.size} entries, need {offset}")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.params.values())


def widen_input_weights(
    state: dict[str, np.ndarray], extra_dims: int
) -> dict[str, np.ndarray]:
    """Adapt a network state dict to ``extra_dims`` appended inputs.

    Pads the first-layer weight matrix (``trunk/W0`` for the networks in
    this module) with zero rows for the new trailing observation
    dimensions. A network loaded from the widened state is *functionally
    identical* to the original on any observation whose appended
    features it ignores — which makes this the exact warm start for
    fine-tuning a paper-input checkpoint on a feature-augmented
    observation: training starts from the transplanted policy and can
    only move away from it where the new context helps.
    """
    if extra_dims < 0:
        raise ValueError(f"extra_dims must be >= 0, got {extra_dims}")
    out = {k: np.asarray(v, dtype=np.float64).copy() for k, v in state.items()}
    if extra_dims == 0:
        return out
    for key in ("trunk/W0", "W0"):
        if key in out:
            w0 = out[key]
            out[key] = np.vstack(
                [w0, np.zeros((extra_dims, w0.shape[1]))]
            )
            return out
    raise ValueError("state dict has no first-layer weights (trunk/W0 or W0)")


class GaussianPolicyNetwork:
    """Diagonal-Gaussian policy: MLP mean head + free (state-independent)
    log standard deviation, as in RLlib's default continuous-action
    model. Parameter keys are the trunk's plus ``log_std``."""

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        hidden_sizes: tuple[int, ...] = (256, 256),
        initial_log_std: float = 0.0,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        rng = as_generator(rng)
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.trunk = MLP(obs_dim, hidden_sizes, action_dim, rng=rng)
        self.log_std = np.full(action_dim, float(initial_log_std))

    def forward(
        self, obs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Returns ``(mu, log_std_batch, cache)`` with shapes
        ``(n, A)``, ``(n, A)``."""
        mu, cache = self.trunk.forward(obs)
        log_std = np.broadcast_to(self.log_std, mu.shape)
        return mu, log_std, cache

    def act(
        self, obs: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample actions for an ``(n, obs_dim)`` batch; returns
        ``(actions, log_probs)`` (the rollout collector's interface)."""
        mu, log_std, _ = self.forward(obs)
        actions = DiagGaussian.sample(mu, log_std, rng)
        return actions, DiagGaussian.log_prob(actions, mu, log_std)

    def backward(
        self,
        cache: list[np.ndarray],
        grad_mu: np.ndarray,
        grad_log_std: np.ndarray,
    ) -> dict[str, np.ndarray]:
        grads = self.trunk.backward(cache, grad_mu)
        grads["log_std"] = np.asarray(grad_log_std, dtype=np.float64).sum(axis=0)
        return grads

    @property
    def params(self) -> dict[str, np.ndarray]:
        merged = dict(self.trunk.params)
        merged["log_std"] = self.log_std
        return merged

    def apply_update(self, updates: dict[str, np.ndarray]) -> None:
        """Add ``updates[k]`` to parameter ``k`` in place."""
        for key, delta in updates.items():
            if key == "log_std":
                self.log_std += delta
            else:
                self.trunk.params[key] += delta

    def state_dict(self) -> dict[str, np.ndarray]:
        out = {f"trunk/{k}": v.copy() for k, v in self.trunk.params.items()}
        out["log_std"] = self.log_std.copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for key, value in state.items():
            if key == "log_std":
                if value.shape != self.log_std.shape:
                    raise ValueError("log_std shape mismatch")
                self.log_std = np.asarray(value, dtype=np.float64).copy()
            elif key.startswith("trunk/"):
                name = key[len("trunk/") :]
                if name not in self.trunk.params:
                    raise ValueError(f"unknown trunk parameter {name!r}")
                if self.trunk.params[name].shape != value.shape:
                    raise ValueError(f"shape mismatch for {name!r}")
                self.trunk.params[name] = np.asarray(value, dtype=np.float64).copy()
            else:
                raise ValueError(f"unknown parameter key {key!r}")


class ValueNetwork:
    """State-value function: MLP with a scalar output head."""

    def __init__(
        self,
        obs_dim: int,
        hidden_sizes: tuple[int, ...] = (256, 256),
        rng: int | np.random.Generator | None = None,
    ) -> None:
        rng = as_generator(rng)
        self.obs_dim = obs_dim
        self.trunk = MLP(obs_dim, hidden_sizes, 1, rng=rng)

    def forward(self, obs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        out, cache = self.trunk.forward(obs)
        return out[:, 0], cache

    def __call__(self, obs: np.ndarray) -> np.ndarray:
        return self.forward(obs)[0]

    def backward(
        self, cache: list[np.ndarray], grad_value: np.ndarray
    ) -> dict[str, np.ndarray]:
        return self.trunk.backward(cache, np.asarray(grad_value)[:, None])

    @property
    def params(self) -> dict[str, np.ndarray]:
        return self.trunk.params

    def apply_update(self, updates: dict[str, np.ndarray]) -> None:
        self.trunk.apply_update(updates)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {f"trunk/{k}": v.copy() for k, v in self.trunk.params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for key, value in state.items():
            if not key.startswith("trunk/"):
                raise ValueError(f"unknown parameter key {key!r}")
            name = key[len("trunk/") :]
            if name not in self.trunk.params:
                raise ValueError(f"unknown trunk parameter {name!r}")
            if self.trunk.params[name].shape != value.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            self.trunk.params[name] = np.asarray(value, dtype=np.float64).copy()
