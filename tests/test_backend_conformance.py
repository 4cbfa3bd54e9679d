"""Backend-conformance gauntlet (tentpole gate).

Parametrized over (environment family × registered backend): every
kernel resolved through :func:`repro.queueing.backends.get_backend`
must honor the shape/dtype surface, conserve arrival mass, account for
drops exactly, reproduce seeds, keep the RNG call sequence of the
protocol's draw contract, and — for contract-preserving backends — stay
bit-identical to the NumPy reference, including through the ``E = 1``
scalar wrappers.

On hosts without numba the ``"numba"`` name resolves to the NumPy
kernel (fallback), so the cross-backend comparisons degenerate to
trivially-true there — but the *pure-Python* numba loops are still
pinned against the reference kernel directly
(``NumbaEpochKernel(require_numba=False)``), so the compiled
algorithm cannot drift unnoticed on any host. CI's numba leg runs the
identical suite under real JIT.
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.execution import ExecutionContext
from repro.policies.static import JoinShortestQueuePolicy
from repro.queueing.backends import (
    BackendSpec,
    EpochKernel,
    available_backends,
    draw_uniform_queue_samples,
    get_backend,
    preserves_rng_contract,
    register_backend,
    runnable_backends,
)
from repro.queueing.backends.conformance import (
    assert_traces_equal,
    default_family_builders,
    drops_z_score,
    episode_trace,
    rng_call_log,
)
from repro.queueing.backends.numba_backend import (
    NumbaEpochKernel,
    numba_available,
)
from repro.queueing.backends.numpy_backend import NumpyEpochKernel
from repro.queueing.backends.registry import _INSTANCES, _REGISTRY
from repro.queueing.clients import committed_counts_from_samples

CONFIG = SystemConfig(
    num_clients=60,
    num_queues=8,
    buffer_size=5,
    d=2,
    delta_t=1.5,
    episode_length=10,
    monte_carlo_runs=2,
)
EPOCHS = 6
SEED = 7
BACKENDS = available_backends()
FAMILIES = default_family_builders(CONFIG, num_replicas=2, seed=SEED)


def _build(family_name: str, backend: str):
    """Construct one family env, silencing the fallback warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return FAMILIES[family_name].build(backend)


def _params():
    return [
        pytest.param(family, backend, id=f"{family}-{backend}")
        for family in FAMILIES
        for backend in BACKENDS
    ]


class TestProtocolSurface:
    def test_builtin_kernels_satisfy_protocol(self):
        for name in BACKENDS:
            kernel = _silent_get(name)
            assert isinstance(kernel, EpochKernel)
            assert isinstance(kernel.name, str)
            assert isinstance(kernel.compiled, bool)
            assert isinstance(kernel.preserves_rng_contract, bool)

    def test_registry_round_trip_and_pickling(self):
        numpy_kernel = get_backend("numpy")
        assert get_backend(None) is numpy_kernel  # singleton default
        assert get_backend(numpy_kernel) is numpy_kernel  # passthrough
        assert pickle.loads(pickle.dumps(numpy_kernel)) is numpy_kernel

    def test_auto_resolves_to_runnable(self):
        kernel = get_backend("auto")
        assert kernel.name in runnable_backends()
        if numba_available():
            assert kernel.name == "numba"  # highest priority when runnable
        else:
            assert kernel.name == "numpy"

    def test_unknown_backend_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="registered"):
            get_backend("fortran")
        with pytest.raises(KeyError, match="registered"):
            preserves_rng_contract("fortran")

    def test_fallback_warns_and_preserves_streams(self):
        if numba_available():
            pytest.skip("numba installed: the name resolves natively")
        with pytest.warns(RuntimeWarning, match="falling back"):
            kernel = get_backend("numba")
        assert kernel is get_backend("numpy")

    def test_builtins_preserve_rng_contract(self):
        for name in (*BACKENDS, "auto"):
            assert preserves_rng_contract(name)


@pytest.mark.parametrize("family,backend", _params())
class TestFamilyConformance:
    def test_shapes_dtypes_and_drop_accounting(self, family, backend):
        env = _build(family, backend)
        e, m = env.num_replicas, CONFIG.num_queues
        # The hybrid fleet tracks a subsystem exactly; state-level
        # assertions apply to the tracked slice, mass conservation to
        # the whole fleet (tracked rates + field arrival mass).
        m_tracked = getattr(env, "num_tracked", m)
        env.reset(SEED)
        policy = FAMILIES[family].policy
        for _ in range(EPOCHS):
            lam = env.current_rates
            hist, rewards, info = env.step_with_policy(policy)
            states = env.queue_states
            assert states.shape == (e, m_tracked)
            assert states.dtype == np.int64
            assert states.min() >= 0 and states.max() <= CONFIG.buffer_size
            assert hist.shape[0] == e
            assert np.allclose(hist.sum(axis=1), 1.0)
            assert info["arrival_rates"].shape == (e, m_tracked)
            assert np.all(info["arrival_rates"] >= 0.0)
            # Arrival-mass conservation: the frozen per-queue rates thin
            # the total offered load M·λ_t without creating or losing
            # mass (Eq. 5 / Eq. 14); for the hybrid fleet the field
            # closure absorbs exactly the residual mass.
            np.testing.assert_allclose(
                info["arrival_rates"].sum(axis=1)
                + info.get("field_arrival_mass", 0.0),
                m * lam,
                rtol=1e-9,
            )
            # Drop accounting: rewards are exactly the drop penalty.
            # Fully tracked fleets count drops in integers; a mean-field
            # half adds its expected (float) drops.
            if m_tracked == m:
                assert info["drops_total"].dtype.kind == "i"
            assert np.all(info["drops_total"] >= 0)
            np.testing.assert_array_equal(
                rewards,
                -CONFIG.drop_penalty * info["drops_total"] / m,
            )

    def test_seed_reproducibility(self, family, backend):
        policy = FAMILIES[family].policy
        first = episode_trace(_build(family, backend), policy, EPOCHS, SEED)
        second = episode_trace(_build(family, backend), policy, EPOCHS, SEED)
        assert_traces_equal(second, first)
        other = episode_trace(
            _build(family, backend), policy, EPOCHS, SEED + 1
        )
        assert any(
            not np.array_equal(other[key], first[key]) for key in first
        )

    def test_rng_draw_count_stability(self, family, backend):
        """Same RNG call sequence as the reference backend — the
        observable surface of the protocol's draw contract."""
        policy = FAMILIES[family].policy
        log = rng_call_log(_build(family, backend), policy, EPOCHS, SEED)
        reference = rng_call_log(
            _build(family, "numpy"), policy, EPOCHS, SEED
        )
        assert log == reference

    def test_bit_identity_with_reference(self, family, backend):
        """Contract-preserving backends match NumPy bit for bit."""
        if not preserves_rng_contract(backend):
            pytest.skip("backend is held to the statistical band instead")
        policy = FAMILIES[family].policy
        actual = episode_trace(_build(family, backend), policy, EPOCHS, SEED)
        expected = episode_trace(
            _build(family, "numpy"), policy, EPOCHS, SEED
        )
        assert_traces_equal(actual, expected)


#: (d, rule layout, row kind) cases of the choose stage. ``shared`` is
#: one table broadcast over replicas (zero replica stride); ``zero-slots``
#: rows give some slots probability 0; ``early-one`` rows put no mass on
#: the last slot, so their cdf reaches exactly 1.0 before it.
_CHOOSE_CASES = [
    pytest.param((d, layout, kind), id=f"d{d}-{layout}-{kind}")
    for d in (1, 2, 3)
    for layout in ("shared", "per-replica")
    for kind in ("jsq", "zero-slots", "early-one")
    if d > 1 or kind == "jsq"
]


def _case_rule_table(kind: str, num_states: int, d: int, rng) -> np.ndarray:
    """One ``(S, ..., S, d)`` rule table of the given row kind."""
    shape = (num_states,) * d + (d,)
    if kind == "jsq":
        return JoinShortestQueuePolicy(num_states, d).decision_rule(
            np.ones(num_states) / num_states, 0, rng
        ).probs
    if kind == "zero-slots":
        raw = rng.random(shape) * (rng.random(shape) < 0.5)
        raw[..., 0] += raw.sum(axis=-1) == 0.0
        return raw / raw.sum(axis=-1, keepdims=True)
    # Quarter weights on the first d - 1 slots only: exact in binary, so
    # the cdf hits exactly 1.0 before the last slot.
    first = rng.integers(0, 5, size=shape[:-1])
    quarters = np.zeros(shape)
    quarters[..., 0] = first
    quarters[..., d - 2] += 4 - first
    return quarters / 4.0


def _full_cdf_committed_counts(observed, sampled, probs, rng):
    """Independent copy of the per-client full-cdf choose stage."""
    e, n, d = sampled.shape
    zbar = np.take_along_axis(observed, sampled.reshape(e, n * d), axis=1)
    zbar = zbar.reshape(e, n, d)
    rows = probs[(np.arange(e)[:, None], *np.moveaxis(zbar, -1, 0))]
    cdf = np.cumsum(rows, axis=-1)
    cdf[..., -1] = 1.0
    slots = (rng.random((e, n))[..., None] > cdf).sum(axis=-1)
    committed = np.take_along_axis(sampled, slots[..., None], axis=-1)[..., 0]
    counts = np.zeros(observed.shape, dtype=np.int64)
    np.add.at(counts, (np.arange(e)[:, None], committed), 1)
    return counts


class TestPurePythonNumbaLoops:
    """Pin the numba loop *algorithm* against the reference kernel.

    Runs on every host: without numba the loops execute as plain Python
    (the ``njit`` shim), so their arithmetic — sequential cdf, forced
    1.0 edge, (e, n, k) accumulation order, per-cell event replay — is
    verified bit-for-bit even where JIT is unavailable.
    """

    @pytest.fixture()
    def kernels(self):
        return NumpyEpochKernel(), NumbaEpochKernel(require_numba=False)

    @pytest.fixture(params=_CHOOSE_CASES)
    def choose_inputs(self, request):
        d, layout, kind = request.param
        rng = np.random.default_rng(SEED)
        e, n, m = 3, 400, CONFIG.num_queues
        s = CONFIG.num_queue_states
        observed = rng.integers(0, s, size=(e, m))
        tables = np.stack([_case_rule_table(kind, s, d, rng) for _ in range(e)])
        if layout == "shared":
            tables = np.broadcast_to(tables[0], tables.shape)
        sampled = draw_uniform_queue_samples(rng, e, n, d, m)
        return observed, sampled, tables

    def test_committed_counts_bit_identical(self, kernels, choose_inputs):
        reference, candidate = kernels
        observed, sampled, probs = choose_inputs
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        a = reference.committed_counts(observed, sampled, probs, rng_a)
        b = candidate.committed_counts(observed, sampled, probs, rng_b)
        np.testing.assert_array_equal(a, b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert a.sum() == sampled.shape[0] * sampled.shape[1]

    def test_committed_counts_match_full_cdf_formula(self, choose_inputs):
        """The per-table threshold sampler equals the per-client full cdf
        with its last value forced to 1.0, count for count and draw for
        draw."""
        observed, sampled, probs = choose_inputs
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        a = committed_counts_from_samples(observed, sampled, probs, rng_a)
        b = _full_cdf_committed_counts(observed, sampled, probs, rng_b)
        np.testing.assert_array_equal(a, b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_packet_fractions_bit_identical(self, kernels, choose_inputs):
        reference, candidate = kernels
        observed, sampled, probs = choose_inputs
        n = sampled.shape[1]
        a = reference.packet_fractions(observed, sampled, probs, n)
        b = candidate.packet_fractions(observed, sampled, probs, n)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a.sum(axis=1), 1.0)

    def test_serve_epoch_bit_identical(self, kernels):
        reference, candidate = kernels
        rng = np.random.default_rng(SEED)
        e, m = 4, CONFIG.num_queues
        states = rng.integers(0, CONFIG.buffer_size + 1, size=(e, m))
        arrival = rng.uniform(0.1, 3.0, size=(e, m))
        service = rng.uniform(0.5, 2.0, size=m)
        sa, da = reference.serve_epoch(
            states, arrival, service, 1.5, CONFIG.buffer_size,
            np.random.default_rng(11),
        )
        sb, db = candidate.serve_epoch(
            states, arrival, service, 1.5, CONFIG.buffer_size,
            np.random.default_rng(11),
        )
        np.testing.assert_array_equal(sa, sb)
        np.testing.assert_array_equal(da, db)
        assert sb.dtype == np.int64 and db.dtype == np.int64

    def test_require_numba_guards_construction(self):
        if numba_available():
            NumbaEpochKernel(require_numba=True)  # must not raise
        else:
            with pytest.raises(ModuleNotFoundError, match="numba"):
                NumbaEpochKernel(require_numba=True)


class _MirrorKernel(NumpyEpochKernel):
    """A third-party kernel that *breaks* the draw contract: it burns
    one extra uniform per serve call, shifting every later draw."""

    name = "mirror"
    preserves_rng_contract = False

    def serve_epoch(self, states, arrival_rates, service_rates, delta_t,
                    buffer_size, rng):
        rng.random()
        return super().serve_epoch(
            states, arrival_rates, service_rates, delta_t, buffer_size, rng
        )


class TestThirdPartyRegistration:
    """Registering a backend is all it takes to enroll in the gauntlet
    — and contract-breaking backends are held to the statistical band
    and get their own shard-cache key space."""

    @pytest.fixture()
    def mirror(self):
        register_backend(
            BackendSpec(
                name="mirror",
                factory=_MirrorKernel,
                preserves_rng_contract=False,
            )
        )
        yield "mirror"
        _REGISTRY.pop("mirror", None)
        _INSTANCES.pop("mirror", None)

    def test_resolves_and_reports_contract(self, mirror):
        assert mirror in available_backends()
        assert isinstance(get_backend(mirror), EpochKernel)
        assert not preserves_rng_contract(mirror)
        assert not preserves_rng_contract("auto")  # mirror taints auto

    def test_statistical_equivalence_band(self, mirror):
        from repro.queueing.batched_env import (
            BatchedFiniteSystemEnv,
            run_episodes_batched,
        )

        policy = JoinShortestQueuePolicy(CONFIG.num_queue_states, CONFIG.d)
        drops = {}
        for backend in ("numpy", mirror):
            env = BatchedFiniteSystemEnv(
                CONFIG,
                num_replicas=24,
                per_packet_randomization=True,
                backend=backend,
            )
            result = run_episodes_batched(
                env, policy, num_epochs=EPOCHS, seed=SEED
            )
            drops[backend] = result.total_drops_per_queue
        # Different streams, same distribution: inside the z band but
        # not bit-identical.
        assert abs(drops_z_score(drops["numpy"], drops[mirror])) < 4.0
        assert not np.array_equal(drops["numpy"], drops[mirror])

    def test_contract_breaking_backend_gets_own_key_space(self, mirror):
        from repro.experiments.parallel import EvalRequest, _decompose
        from repro.store.keys import shard_key

        policy = JoinShortestQueuePolicy(CONFIG.num_queue_states, CONFIG.d)
        base = EvalRequest(
            config=CONFIG, policy=policy, num_runs=4, seed=SEED
        )
        mirrored = EvalRequest(
            config=CONFIG, policy=policy, num_runs=4, seed=SEED,
            sim_backend=mirror,
        )
        numba_named = EvalRequest(
            config=CONFIG, policy=policy, num_runs=4, seed=SEED,
            sim_backend="numba",
        )
        shard = _decompose([base])[0]
        assert shard_key(base, shard) == shard_key(numba_named, shard)
        assert shard_key(base, shard) != shard_key(mirrored, shard)


def _silent_get(name: str):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return get_backend(name)


@pytest.mark.parametrize("backend", BACKENDS)
def test_hybrid_chunk_merge_invariance(backend):
    """The hybrid fleet rides the sharded sweep machinery like any
    batched env: merged drops are bit-identical across worker counts
    (same chunk layout, any execution order)."""
    from repro.experiments.parallel import EvalRequest, SweepExecutor
    from repro.queueing.hybrid_env import BatchedHybridFleetEnv

    policy = JoinShortestQueuePolicy(CONFIG.num_queue_states, CONFIG.d)
    request = EvalRequest(
        config=CONFIG,
        policy=policy,
        num_runs=6,
        num_epochs=EPOCHS,
        seed=SEED,
        max_batch_replicas=2,
        env_cls=BatchedHybridFleetEnv,
        env_kwargs={
            "num_tracked": CONFIG.num_queues // 2,
            "per_packet_randomization": True,
        },
        sim_backend=backend,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        serial = SweepExecutor().run_drops([request])[0]
        pooled = SweepExecutor(ExecutionContext(workers=2)).run_drops([request])[0]
    np.testing.assert_array_equal(serial, pooled)
    assert serial.shape == (6,)


def test_heterogeneous_scalar_run_episode_records_observed_widths():
    """Regression (Z-width bug class): the episode runner sized its
    distribution buffer from ``config.num_queue_states`` even for
    environments that observe S·C states — a single heterogeneous
    system crashed (or silently truncated) with
    ``record_distributions=True``."""
    from repro.queueing.batched_env import run_episodes_batched
    from repro.queueing.heterogeneous import (
        BatchedHeterogeneousFiniteEnv,
        ServerClassSpec,
        sed_policy_suite,
    )

    spec = ServerClassSpec(service_rates=(0.5, 2.0), fractions=(0.5, 0.5))
    env = BatchedHeterogeneousFiniteEnv(
        CONFIG, spec, num_replicas=1, per_packet_randomization=True, seed=SEED
    )
    policy = sed_policy_suite(spec, CONFIG.buffer_size, CONFIG.d)[
        f"SED({CONFIG.d})"
    ]
    result = run_episodes_batched(
        env, policy, num_epochs=EPOCHS, seed=SEED, record_distributions=True
    )
    width = spec.num_observed_states(CONFIG.buffer_size)
    assert width == CONFIG.num_queue_states * spec.num_classes
    assert result.empirical_distributions.shape == (1, EPOCHS + 1, width)
    np.testing.assert_allclose(
        result.empirical_distributions.sum(axis=2), 1.0
    )
