"""Client/dispatcher layer: power-of-d sampling and rule application.

At each decision epoch every client ``i`` samples ``d`` queue indices
``x_i ~ Unif({1..M})^d`` (Eq. 3), observes the epoch-start states of its
sampled queues (the *anonymous state* ``z̄_i``), draws a slot
``u_i ~ h(·|z̄_i)`` (Eq. 4) and commits its jobs to queue ``x_i[u_i]``
for the epoch. The per-queue frozen arrival rates then follow Eq. (5):
``λ_j = M λ_t · count_j / N``.

The environments sample through their own sample stage and choose
through the epoch kernel (:mod:`repro.queueing.backends`); this module
holds the NumPy choose primitives that kernel runs on already-sampled
``(E, N, d)`` queue indices (:func:`committed_counts_from_samples`,
:func:`packet_fractions_from_samples`), the per-client picks
:func:`sample_client_choices` that the event-driven reference simulator
consumes, and the analytic ``N → ∞`` references
(:func:`expected_choice_counts`, :func:`infinite_client_rates`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import per_state_arrival_rates
from repro.utils.rng import as_generator

__all__ = [
    "sample_client_choices",
    "expected_choice_counts",
    "infinite_client_rates",
    "stack_rules",
    "replica_state_counts",
    "infinite_client_rates_batched",
    "committed_counts_from_samples",
    "packet_fractions_from_samples",
]


def stack_rules(
    rules: "DecisionRule | Sequence[DecisionRule]", num_replicas: int
) -> np.ndarray:
    """Stack per-replica decision rules into one ``(E, S, ..., S, d)`` table.

    ``rules`` is either a single rule (broadcast to every replica — the
    stationary-policy fast path, a view with no copy) or a sequence of
    exactly ``num_replicas`` rules sharing ``(S, d)`` geometry.
    """
    if isinstance(rules, DecisionRule):
        return np.broadcast_to(
            rules.probs, (num_replicas, *rules.probs.shape)
        )
    rules = list(rules)
    if len(rules) != num_replicas:
        raise ValueError(
            f"need {num_replicas} rules (one per replica), got {len(rules)}"
        )
    shape = rules[0].probs.shape
    if any(r.probs.shape != shape for r in rules):
        raise ValueError("all per-replica rules must share (S, d) geometry")
    return np.stack([r.probs for r in rules])


def replica_state_counts(states: np.ndarray, num_states: int) -> np.ndarray:
    """Per-replica state histogram as integer counts, shape ``(E, S)``.

    ``states`` is an ``(E, M)`` integer array with entries in
    ``[0, num_states)``; one flat :func:`numpy.bincount` over
    replica-offset states counts all replicas at once.
    """
    e = states.shape[0]
    offsets = np.arange(e, dtype=np.int64)[:, None] * num_states
    return np.bincount(
        (states + offsets).ravel(), minlength=e * num_states
    ).reshape(e, num_states)


def _batched_rule_rows(probs: np.ndarray, zbar: np.ndarray) -> np.ndarray:
    """Rows ``h_e(· | z̄)`` for per-replica sampled states.

    ``probs`` is a stacked rule table ``(E, S, ..., S, d)`` and ``zbar``
    an integer array ``(E, N, d)``; returns ``(E, N, d)``. The joint
    sampled state is flattened to one index per client so the lookup is
    a single flat :func:`numpy.take` (much faster than a ``d + 1``-axis
    fancy-indexing pass on large ``E·N``).
    """
    e = probs.shape[0]
    s = probs.shape[1]
    d = probs.ndim - 2
    flat = zbar[..., 0]
    for k in range(1, d):
        flat = flat * s + zbar[..., k]
    if probs.strides[0] == 0:
        # Stationary fast path: one shared table, no replica offsets.
        return probs[0].reshape(s**d, d).take(flat, axis=0)
    flat = flat + (np.arange(e) * s**d)[:, None]
    table = np.ascontiguousarray(probs).reshape(e * s**d, d)
    return table.take(flat, axis=0)


def _batched_sample_slots(
    rows: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``u ~ h(· | z̄)`` from per-client probability rows ``(E, N, d)``."""
    cdf = np.cumsum(rows, axis=-1)
    # Guard against round-off: the final cumulative value is exactly 1.
    cdf[..., -1] = 1.0
    uniforms = rng.random(rows.shape[:-1])
    return (uniforms[..., None] > cdf).sum(axis=-1)


def committed_counts_from_samples(
    observed: np.ndarray,
    sampled: np.ndarray,
    probs: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Committed-choice counts given already-sampled queue indices.

    The *choose* stage of the epoch-kernel contract (see
    :mod:`repro.queueing.backends.protocol`): each client observes the
    states of its ``d`` sampled queues, draws one slot from its rule row
    (one ``rng.random((E, N))`` call — the only stream consumption of
    this stage) and commits to the chosen queue.

    Parameters
    ----------
    observed : numpy.ndarray
        Per-queue observed states, shape ``(E, M)`` (queue fillings, or
        the flat ``z·C + c`` encoding of the heterogeneous system).
    sampled : numpy.ndarray
        Sampled queue indices, shape ``(E, N, d)``.
    probs : numpy.ndarray
        Stacked rule table from :func:`stack_rules`,
        shape ``(E, S, ..., S, d)``.
    rng : numpy.random.Generator
        Slot-selection stream.

    Returns
    -------
    numpy.ndarray
        Integer committed-client counts per queue, shape ``(E, M)``.
    """
    e, m = observed.shape
    offsets = (np.arange(e, dtype=sampled.dtype) * m)[:, None, None]
    zbar = observed.take((sampled + offsets).ravel()).reshape(sampled.shape)
    rows = _batched_rule_rows(probs, zbar)
    slots = _batched_sample_slots(rows, rng)
    committed = np.take_along_axis(sampled, slots[..., None], axis=-1)[..., 0]
    row_offsets = np.arange(e, dtype=committed.dtype)[:, None] * m
    return np.bincount(
        (committed + row_offsets).ravel(), minlength=e * m
    ).reshape(e, m)


def packet_fractions_from_samples(
    observed: np.ndarray,
    sampled: np.ndarray,
    probs: np.ndarray,
    num_clients: int,
) -> np.ndarray:
    """Per-packet routing fractions given already-sampled queue indices.

    The deterministic *choose* stage under per-packet randomization:
    every queue accumulates the routing probabilities of every client
    slot that sampled it (Poisson thinning — no stream consumption).
    Rows sum to 1.

    Parameters
    ----------
    observed : numpy.ndarray
        Per-queue observed states, shape ``(E, M)``.
    sampled : numpy.ndarray
        Sampled queue indices, shape ``(E, N, d)``.
    probs : numpy.ndarray
        Stacked rule table from :func:`stack_rules`.
    num_clients : int
        ``N`` — the normalizer of the accumulated weights.

    Returns
    -------
    numpy.ndarray
        Arrival-rate fractions per queue, shape ``(E, M)``.
    """
    e, m = observed.shape
    offsets = (np.arange(e, dtype=sampled.dtype) * m)[:, None, None]
    flat = (sampled + offsets).ravel()
    zbar = observed.take(flat).reshape(sampled.shape)
    rows = _batched_rule_rows(probs, zbar)
    fractions = np.bincount(
        flat, weights=rows.ravel(), minlength=e * m
    ).reshape(e, m)
    return fractions / num_clients


def sample_client_choices(
    queue_states: np.ndarray,
    num_clients: int,
    rule: DecisionRule,
    rng=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample every client's queue selection and committed choice.

    The per-client picks behind the counts of Eq. (5), for one system
    with queue states ``(M,)``; the event-driven reference simulator
    (:mod:`repro.queueing.events`) routes its jobs with them. Draws the
    ``(N, d)`` queue samples, then one uniform per client for the slot.

    Returns
    -------
    sampled:
        ``(N, d)`` array of sampled queue indices (``x`` in the paper;
        sampling is with replacement, as in Eq. 3 — for ``d ≪ M`` the
        collision probability is negligible and the paper argues it
        "makes no difference in sufficiently large systems").
    slots:
        ``(N,)`` chosen slot per client (``u``).
    committed:
        ``(N,)`` committed queue index per client (``x[u]``).
    """
    rng = as_generator(rng)
    queue_states = np.asarray(queue_states)
    if queue_states.ndim != 1:
        raise ValueError("queue_states must have shape (queues,)")
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    sampled = rng.integers(0, queue_states.size, size=(num_clients, rule.d))
    rows = _batched_rule_rows(stack_rules(rule, 1), queue_states[sampled][None])
    slots = _batched_sample_slots(rows, rng)[0]
    committed = np.take_along_axis(sampled, slots[:, None], axis=-1)[:, 0]
    return sampled, slots, committed


def expected_choice_counts(
    queue_states: np.ndarray,
    num_clients: int,
    rule: DecisionRule,
) -> np.ndarray:
    """Expected per-queue client counts ``N · P(client commits to j)``.

    By the computation in the proof of Theorem 1,
    ``P(client -> j) = λ_t(H, z_j) / (M λ_t)`` where ``H`` is the
    empirical state distribution — so the expected counts are independent
    of the arrival intensity. Used for variance-reduction checks and the
    infinite-client system.
    """
    queue_states = np.asarray(queue_states)
    m = queue_states.size
    hist = np.bincount(queue_states, minlength=rule.num_states).astype(float) / m
    per_state = per_state_arrival_rates(hist, rule, lam=1.0)
    probs = per_state[queue_states] / m
    return num_clients * probs


def infinite_client_rates(
    queue_states: np.ndarray,
    rule: DecisionRule,
    lam: float,
) -> np.ndarray:
    """Frozen arrival rates in the ``N → ∞`` (infinite-client) system.

    Eq. (14)-(15): conditional on the queue states, the empirical
    agent state-action distribution concentrates and queue ``j`` receives
    ``λ_j = λ_t(H^M_t, z_j)`` — the mean-field rate function evaluated at
    the *empirical* distribution.
    """
    queue_states = np.asarray(queue_states)
    m = queue_states.size
    hist = np.bincount(queue_states, minlength=rule.num_states).astype(float) / m
    per_state = per_state_arrival_rates(hist, rule, lam)
    return per_state[queue_states]


def infinite_client_rates_batched(
    queue_states: np.ndarray,
    rules: "DecisionRule | Sequence[DecisionRule]",
    lams: np.ndarray,
) -> np.ndarray:
    """Frozen ``N → ∞`` arrival rates for ``E`` replicas, shape ``(E, M)``.

    ``lams`` holds each replica's current arrival intensity. The
    per-state rate function (a handful of ``S``-sized tensor
    contractions) is evaluated per replica; the per-queue gather is
    vectorized.
    """
    queue_states = np.asarray(queue_states)
    if queue_states.ndim != 2:
        raise ValueError("queue_states must have shape (replicas, queues)")
    e, m = queue_states.shape
    lams = np.asarray(lams, dtype=np.float64)
    if lams.shape != (e,):
        raise ValueError(f"lams must have shape ({e},)")
    rule_list = [rules] * e if isinstance(rules, DecisionRule) else list(rules)
    if len(rule_list) != e:
        raise ValueError(f"need {e} rules (one per replica), got {len(rule_list)}")
    hists = replica_state_counts(queue_states, rule_list[0].num_states) / m
    rates = np.empty((e, m))
    for i, (rule, lam) in enumerate(zip(rule_list, lams)):
        per_state = per_state_arrival_rates(hists[i], rule, float(lam))
        rates[i] = per_state[queue_states[i]]
    return rates
