"""Numba-compiled epoch kernel: fused per-cell loops, host-side RNG.

The compiled kernel keeps every random draw on the host
:class:`numpy.random.Generator` in the canonical order of
:mod:`repro.queueing.backends.protocol` and compiles only the
deterministic compute between draws. Because numba (without fastmath,
which is never enabled here) preserves exact IEEE-754 double semantics
and the loops below replicate the reference reductions in the same
order, the kernel is **bit-identical** to the NumPy backend — a claim
enforced by golden traces and the conformance suite, not just asserted.

What the fusion buys (see ``docs/scaling.md`` for measurements):

* the serve stage visits each queue cell once and performs only its
  *actual* ``num_events[e, m]`` events, instead of ``max_events`` full
  ``(E, M)`` array rounds with their ~8 temporaries each;
* the choose stage walks clients in one pass with no ``(E, N, d)``
  gather/cdf/one-hot temporaries.

The one buffer the serve stage still allocates is the pre-drawn
``(max_events, E, M)`` uniform block — drawing it in one host call
produces the identical byte stream as the reference backend's
``max_events`` successive ``(E, M)`` draws (NumPy fills uniform doubles
sequentially in C order), which is what keeps inactive cells consuming
their draws exactly like the vectorized rounds do.

When numba is not installed this module still imports (the kernels stay
plain Python — used by the conformance tests to pin the algorithm), but
the registry falls back to the NumPy kernel with a ``RuntimeWarning``
instead of handing out an uncompiled Python-loop kernel.
"""

from __future__ import annotations

import numpy as np

from repro.queueing.clients import _rule_table
from repro.queueing.queue_ctmc import validate_epoch_inputs

__all__ = ["NUMBA_AVAILABLE", "NumbaEpochKernel", "numba_available"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - trivial
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """No-op stand-in so the kernels below stay importable/testable."""

        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def numba_available() -> bool:
    """Whether the compiled backend can actually JIT on this host."""
    return NUMBA_AVAILABLE


def _rule_tables(probs: np.ndarray) -> np.ndarray:
    """Flatten a stacked rule table to ``(R, S**d, d)`` with ``R ∈ {1, E}``.

    ``R = 1`` is the stationary shared-rule fast path of
    :func:`repro.queueing.clients._rule_table`; kernels index replica
    ``e`` with ``table[e % R]``.
    """
    s = probs.shape[1]
    d = probs.ndim - 2
    return np.ascontiguousarray(_rule_table(probs)).reshape(-1, s**d, d)


@njit(cache=True)
def _committed_counts_loop(observed, sampled, table, num_states, uniforms, counts):
    num_replicas, num_clients, d = sampled.shape
    num_tables = table.shape[0]
    for e in range(num_replicas):
        rows = table[e % num_tables]
        for n in range(num_clients):
            flat = observed[e, sampled[e, n, 0]]
            for k in range(1, d):
                flat = flat * num_states + observed[e, sampled[e, n, k]]
            # Sequential cdf over the first d - 1 slots, count strict
            # exceedances of the uniform, last slot otherwise (the 1.0
            # edge is never exceeded) — the same comparisons as the
            # reference backend's per-table cumsum thresholds.
            u = uniforms[e, n]
            cumulative = 0.0
            slot = 0
            for k in range(d):
                if k == d - 1:
                    edge = 1.0
                else:
                    cumulative += rows[flat, k]
                    edge = cumulative
                if u > edge:
                    slot += 1
            counts[e, sampled[e, n, slot]] += 1


@njit(cache=True)
def _packet_fractions_loop(observed, sampled, table, num_states, fractions):
    num_replicas, num_clients, d = sampled.shape
    num_tables = table.shape[0]
    for e in range(num_replicas):
        rows = table[e % num_tables]
        for n in range(num_clients):
            flat = observed[e, sampled[e, n, 0]]
            for k in range(1, d):
                flat = flat * num_states + observed[e, sampled[e, n, k]]
            # (e, n, k)-ordered accumulation — the add order of
            # np.bincount(flat, weights=rows.ravel()).
            for k in range(d):
                fractions[e, sampled[e, n, k]] += rows[flat, k]


@njit(cache=True)
def _serve_epoch_loop(
    states, p_arrival, num_events, uniforms, buffer_size, new_states, drops
):
    num_replicas, num_queues = states.shape
    for e in range(num_replicas):
        for m in range(num_queues):
            z = states[e, m]
            dropped = 0
            p = p_arrival[e, m]
            for k in range(num_events[e, m]):
                if uniforms[k, e, m] < p:
                    if z >= buffer_size:
                        dropped += 1
                    else:
                        z += 1
                elif z > 0:
                    z -= 1
            new_states[e, m] = z
            drops[e, m] = dropped


class NumbaEpochKernel:
    """JIT-compiled :class:`~repro.queueing.backends.protocol.EpochKernel`.

    Parameters
    ----------
    require_numba : bool
        When true (the registry default), refuse to construct without a
        working numba import — plain-Python execution of the loops above
        would be drastically slower than the NumPy kernel. The
        conformance tests pass ``False`` to pin the loop *algorithm*
        against the reference backend even on hosts without numba.
    """

    name = "numba"
    compiled = True
    preserves_rng_contract = True

    def __init__(self, require_numba: bool = True) -> None:
        if require_numba and not NUMBA_AVAILABLE:
            raise ModuleNotFoundError(
                "the 'numba' backend needs the numba package "
                "(pip install 'mfc-load-balancing-repro[compiled]')"
            )

    def committed_counts(
        self,
        observed: np.ndarray,
        sampled: np.ndarray,
        probs: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        e, m = observed.shape
        # Contract item (b): the slot draw happens at the same stream
        # position as the reference backend's slot sampler
        # (clients._sample_slots).
        uniforms = rng.random(sampled.shape[:-1])
        counts = np.zeros((e, m), dtype=np.int64)
        _committed_counts_loop(
            np.ascontiguousarray(observed, dtype=np.int64),
            np.ascontiguousarray(sampled, dtype=np.int64),
            _rule_tables(probs),
            np.int64(probs.shape[1]),
            uniforms,
            counts,
        )
        return counts

    def packet_fractions(
        self,
        observed: np.ndarray,
        sampled: np.ndarray,
        probs: np.ndarray,
        num_clients: int,
    ) -> np.ndarray:
        e, m = observed.shape
        fractions = np.zeros((e, m), dtype=np.float64)
        _packet_fractions_loop(
            np.ascontiguousarray(observed, dtype=np.int64),
            np.ascontiguousarray(sampled, dtype=np.int64),
            _rule_tables(probs),
            np.int64(probs.shape[1]),
            fractions,
        )
        return fractions / num_clients

    def serve_epoch(
        self,
        states: np.ndarray,
        arrival_rates: np.ndarray,
        service_rates: np.ndarray | float,
        delta_t: float,
        buffer_size: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        states, arrival, service = validate_epoch_inputs(
            states, arrival_rates, service_rates, delta_t, buffer_size
        )
        e, m = states.shape
        total_rate = arrival + service
        # Contract items (c) and (d): same poisson call as the reference
        # backend, then all event uniforms in one (K, E, M) block —
        # byte-identical to K successive (E, M) draws.
        num_events = rng.poisson(total_rate * delta_t)
        p_arrival = arrival / total_rate
        max_events = int(num_events.max(initial=0))
        uniforms = rng.random((max_events, e, m))
        new_states = np.empty((e, m), dtype=np.int64)
        drops = np.empty((e, m), dtype=np.int64)
        _serve_epoch_loop(
            states.astype(np.int64),
            p_arrival,
            num_events.astype(np.int64),
            uniforms,
            np.int64(buffer_size),
            new_states,
            drops,
        )
        return new_states, drops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

    def __reduce__(self):
        from repro.queueing.backends.registry import get_backend

        return (get_backend, (self.name,))
