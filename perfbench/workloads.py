"""The four benchmark workloads: set-up, one measured pass, output checks.

Each workload is a :class:`Workload` with three steps:

* ``setup(seed, params)`` builds everything a user builds before the
  first simulated epoch (configs, checkpoint loads, trainer
  construction). ``probe_setup.py`` times it in a fresh interpreter.
* ``run_pass(prepared, scratch)`` is one measured unit of work. Every
  pass of a run repeats the same inputs, so every pass must return
  bit-identical outputs (:func:`digest` compares them).
* ``check(output, seed, scale, reference)`` returns
  ``(attempted, failed)``: the number of operations (sweep cells,
  stream replicas, PPO iterations) and, per failed operation, what
  failed.

Every call into the library goes through ``ExecutionContext(workers=1)``
with the NumPy epoch kernel, so no worker pool is ever started.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.config import paper_ppo_config, paper_system_config
from repro.execution import ExecutionContext
from repro.experiments.fig5_delay_sweep import run_fig5
from repro.experiments.pretrained import get_mf_policy
from repro.experiments.runner import evaluate_policy_finite
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.static import JoinShortestQueuePolicy
from repro.queueing.backends import get_backend, preserves_rng_contract
from repro.rl.ppo import PPOTrainer
from repro.serving.engine import run_stream_scenario
from repro.store.store import ExperimentStore

#: Epoch kernel of every workload: the NumPy reference, which runs on
#: every host.
KERNEL = "numpy"

#: A per-cell mean may sit this many standard errors from the pooled
#: reference mean before the check fails (about 2e-9 per cell under a
#: normal law, so a correct program does not fail it in practice).
K_SIGMA = 6.0

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Workload sizes. ``full`` is what the benchmark measures; ``tiny`` runs
#: the same code paths in about a second for the benchmark's own tests.
SCALES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "commit-sweep": dict(delta_t=5.0, queues=1000, clients=10_000, runs=64, epochs=50),
        "fig5-panel": dict(queues=1000, clients_per_queue=4, runs=16, delta_ts=(1.0, 3.0, 5.0, 7.0, 10.0)),
        "delay-stream": dict(delta_t=1.0, queues=50, runs=32, horizon=1000),
        "mfc-train": dict(delta_t=5.0, num_envs=8, iterations=2, batch=4000, sgd_epochs=30, horizon=500),
    },
    "tiny": {
        "commit-sweep": dict(delta_t=5.0, queues=40, clients=400, runs=8, epochs=10),
        "fig5-panel": dict(queues=100, clients_per_queue=4, runs=4, delta_ts=(1.0, 5.0, 10.0)),
        "delay-stream": dict(delta_t=1.0, queues=20, runs=4, horizon=50),
        "mfc-train": dict(delta_t=5.0, num_envs=4, iterations=2, batch=400, sgd_epochs=2, horizon=50),
    },
}


def context(store: ExperimentStore | None = None) -> ExecutionContext:
    return ExecutionContext(workers=1, store=store, sim_backend=KERNEL)


def exact_contract() -> bool:
    """Whether seed-recorded outputs must repeat bit for bit."""
    return preserves_rng_contract(get_backend(KERNEL).name)


def load_reference() -> dict:
    with REFERENCE_PATH.open() as fh:
        return json.load(fh)


def digest(value: Any) -> str:
    """Order-stable hash of nested dicts/lists of arrays and numbers."""
    h = hashlib.sha256()

    def feed(v: Any) -> None:
        if isinstance(v, dict):
            for k in sorted(v):
                h.update(repr(k).encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            h.update(b"[%d" % len(v))
            for item in v:
                feed(item)
        elif isinstance(v, np.ndarray):
            h.update(str(v.dtype).encode() + repr(v.shape).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def check_drops(name: str, drops: np.ndarray, runs: int) -> list[str]:
    """Shape, finiteness and sign of one cell's per-replica drops."""
    if not isinstance(drops, np.ndarray) or drops.shape != (runs,):
        return [f"{name}: drops shape {getattr(drops, 'shape', None)}, expected ({runs},)"]
    if not np.all(np.isfinite(drops)):
        return [f"{name}: non-finite drops"]
    if np.any(drops < 0):
        return [f"{name}: negative drops"]
    return []


def check_mean(name: str, mean: float, runs: int, ref: dict, seed: int) -> list[str]:
    """A cell's mean against the reference recorded for this scale.

    With a seed the reference recorded and a kernel that keeps the
    RNG-draw contract the mean must repeat exactly; otherwise it must
    lie within ``K_SIGMA`` standard errors of the pooled mean.
    """
    exact = ref["exact"].get(str(seed))
    if exact is not None and exact_contract():
        if mean != exact:
            return [f"{name}: mean {mean!r} != recorded {exact!r} for seed {seed}"]
        return []
    se = ref["pool_sd"] * math.sqrt(1.0 / runs + 1.0 / ref["pool_n"])
    if not abs(mean - ref["pool_mean"]) <= K_SIGMA * se:
        return [
            f"{name}: mean {mean:.6g} is more than {K_SIGMA:g} SE "
            f"({se:.3g}) from the pooled {ref['pool_mean']:.6g}"
        ]
    return []


#: Failed operations of one pass: operation name -> what failed.
Failures = dict[str, list[str]]


@dataclass
class Pass:
    """What one pass returns: outputs to check and the work it did."""

    output: dict
    env_steps: int  # environment-replica steps (one epoch of one replica)
    queue_epochs: int  # env_steps x queues (0 for the mean-field MDP)
    mean_drops: float  # drops per queue of the workload's policy under test


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[int, dict], Any]
    run_pass: Callable[[Any, Path], Pass]
    check: Callable[[dict, int, str, dict], tuple[int, Failures]]


# ---------------------------------------------------------------------------
# commit-sweep: committed-choice finite sweep (Eq. 5), JSQ(2) and MF cells
# ---------------------------------------------------------------------------
def _commit_setup(seed: int, p: dict) -> dict:
    cfg = paper_system_config(
        delta_t=p["delta_t"], num_queues=p["queues"], num_clients=p["clients"]
    )
    mf, _ = get_mf_policy(p["delta_t"], allow_fallback=False)
    jsq = JoinShortestQueuePolicy(cfg.num_queue_states, cfg.d)
    return dict(seed=seed, p=p, config=cfg, policies={jsq.name: jsq, "MF": mf})


def _commit_pass(prep: dict, scratch: Path) -> Pass:
    p = prep["p"]
    out = {
        name: evaluate_policy_finite(
            prep["config"], policy, num_runs=p["runs"], num_epochs=p["epochs"],
            seed=prep["seed"], context=context(),
        ).drops
        for name, policy in prep["policies"].items()
    }
    steps = len(out) * p["runs"] * p["epochs"]
    return Pass(out, steps, steps * p["queues"], float(out["MF"].mean()))


def _commit_check(out: dict, seed: int, scale: str, ref: dict) -> tuple[int, Failures]:
    p = SCALES[scale]["commit-sweep"]
    failed: Failures = {}
    for name in ("JSQ(2)", "MF"):
        drops = out.get(name)
        msgs = check_drops(name, drops, p["runs"])
        if not msgs:
            msgs = check_mean(name, float(drops.mean()), p["runs"], ref[name], seed)
        if msgs:
            failed[name] = msgs
    return 2, failed


# ---------------------------------------------------------------------------
# fig5-panel: Figure 5 panel, cold then warm experiment store
# ---------------------------------------------------------------------------
def _fig5_setup(seed: int, p: dict) -> dict:
    # Checkpoints load here, not inside the timed pass; allow_fallback
    # keeps a missing checkpoint from running a CEM fit in the pass.
    mf = {dt: get_mf_policy(dt, allow_fallback=False)[0] for dt in p["delta_ts"]}
    return dict(seed=seed, p=p, mf=mf)


def _fig5_run(prep: dict, store: ExperimentStore) -> dict:
    p = prep["p"]
    res = run_fig5(
        num_queues=p["queues"], delta_ts=p["delta_ts"], num_runs=p["runs"],
        clients_of_m=lambda m: p["clients_per_queue"] * m,
        mf_policies=prep["mf"], seed=prep["seed"], context=context(store),
    )
    return {name: [r.drops for r in cells] for name, cells in res.results.items()}


def _fig5_pass(prep: dict, scratch: Path) -> Pass:
    p = prep["p"]
    store = ExperimentStore(scratch / "store")
    cold = _fig5_run(prep, store)
    after_cold = store.stats.snapshot()
    warm = _fig5_run(prep, store)
    warm_stats = store.stats.since(after_cold)
    out = {
        "cold": cold,
        "warm": warm,
        "cold_hits": after_cold.hits,
        "cold_lookups": after_cold.lookups,
        "warm_hits": warm_stats.hits,
        "warm_lookups": warm_stats.lookups,
    }
    epochs = sum(max(1, round(500.0 / dt)) for dt in p["delta_ts"])
    steps = len(cold) * p["runs"] * epochs
    mf_mean = float(np.mean([d.mean() for d in cold["MF"]]))
    return Pass(out, steps, steps * p["queues"], mf_mean)


def _fig5_check(out: dict, seed: int, scale: str, ref: dict) -> tuple[int, Failures]:
    """Operations: each cell of the cold run and each of the warm run."""
    p = SCALES[scale]["fig5-panel"]
    dts = p["delta_ts"]
    names = ("MF", "JSQ(2)", "RND")
    cells = len(names) * len(dts)
    failed: Failures = {}

    def fail(op: str, msg: str) -> None:
        failed.setdefault(op, []).append(msg)

    cold, warm = out.get("cold", {}), out.get("warm", {})
    means: dict[tuple[str, float], float] = {}
    for name in names:
        cold_series, warm_series = cold.get(name, []), warm.get(name, [])
        for i, dt in enumerate(dts):
            op = f"cold {name} dt={dt:g}"
            if i >= len(cold_series):
                fail(op, "missing")
                continue
            msgs = check_drops(op, cold_series[i], p["runs"])
            if not msgs:
                means[name, dt] = float(cold_series[i].mean())
                msgs = check_mean(op, means[name, dt], p["runs"], ref[f"{name}@{dt:g}"], seed)
            for m in msgs:
                fail(op, m)
            if i >= len(warm_series) or not np.array_equal(warm_series[i], cold_series[i]):
                fail(f"warm {name} dt={dt:g}", "differs from the cold run")
            if out.get("cold_hits") != 0:
                fail(op, f"cold store hits {out.get('cold_hits')}, expected 0")
            if out.get("warm_lookups") != cells or out.get("warm_hits") != cells:
                fail(
                    f"warm {name} dt={dt:g}",
                    f"warm store hits {out.get('warm_hits')}/{out.get('warm_lookups')}, "
                    f"expected {cells}/{cells}",
                )
    # The Figure 5 shape: MF beats JSQ(2) once the delay is long, JSQ(2)
    # beats RND at the shortest delay.
    for dt in (5.0, 7.0, 10.0):
        if ("MF", dt) in means and ("JSQ(2)", dt) in means:
            if not means["MF", dt] < means["JSQ(2)", dt]:
                fail(f"cold MF dt={dt:g}", f"MF {means['MF', dt]:.4g} >= JSQ(2) {means['JSQ(2)', dt]:.4g}")
    dt0 = dts[0]
    if ("JSQ(2)", dt0) in means and ("RND", dt0) in means:
        if not means["JSQ(2)", dt0] < means["RND", dt0]:
            fail(f"cold JSQ(2) dt={dt0:g}", f"JSQ(2) {means['JSQ(2)', dt0]:.4g} >= RND {means['RND', dt0]:.4g}")
    return 2 * cells, failed


# ---------------------------------------------------------------------------
# delay-stream: stochastic observation delays through the streaming engine
# ---------------------------------------------------------------------------
def _stream_setup(seed: int, p: dict) -> dict:
    # run_stream_scenario builds the scenario's config and policies itself.
    return dict(seed=seed, p=p)


def _stream_pass(prep: dict, scratch: Path) -> Pass:
    p = prep["p"]
    res = run_stream_scenario(
        "stochastic-delay", horizon=p["horizon"], delta_t=p["delta_t"],
        num_queues=p["queues"], num_replicas=p["runs"], policy="JSQ(2)",
        seed=prep["seed"], context=context(),
    )
    out = {
        "summary_fields": list(res.summary_fields),
        "summaries": res.summaries,
        "window_rows": res.window_rows,
    }
    steps = p["runs"] * p["horizon"]
    return Pass(out, steps, steps * p["queues"], res.summary_mean("total_drops_per_queue"))


def _stream_check(out: dict, seed: int, scale: str, ref: dict) -> tuple[int, Failures]:
    """Operations: the stream replicas."""
    p = SCALES[scale]["delay-stream"]
    cfg = paper_system_config(delta_t=p["delta_t"], num_queues=p["queues"])
    runs = p["runs"]
    summaries = out.get("summaries")
    fields = out.get("summary_fields", [])
    if not isinstance(summaries, np.ndarray) or summaries.shape != (runs, len(fields)) or not fields:
        return runs, {f"replica {i}": ["malformed summaries"] for i in range(runs)}
    col = {name: summaries[:, fields.index(name)] for name in fields}
    failed: Failures = {}
    for i in range(runs):
        row = {k: float(v[i]) for k, v in col.items()}
        msgs = []
        if not all(math.isfinite(v) for v in row.values()):
            msgs.append("non-finite summary")
        if not 0.0 <= row["drop_rate"] <= 1.0:
            msgs.append(f"drop_rate {row['drop_rate']} outside [0, 1]")
        if not row["qlen_p99"] <= cfg.buffer_size:
            msgs.append(f"qlen_p99 {row['qlen_p99']} > B={cfg.buffer_size}")
        if not 0.0 <= row["throughput"] <= cfg.arrival_rate_high:
            msgs.append(f"throughput {row['throughput']} above the arrival rate {cfg.arrival_rate_high}")
        if msgs:
            failed[f"replica {i}"] = msgs
    if not failed:
        # The mean is a property of all replicas, so a miss fails them all.
        drops = col["total_drops_per_queue"]
        msgs = check_mean("drops", float(drops.mean()), runs, ref["drops"], seed)
        if msgs:
            failed = {f"replica {i}": msgs for i in range(runs)}
    return runs, failed


# ---------------------------------------------------------------------------
# mfc-train: PPO on the mean-field MDP (Figure 3)
# ---------------------------------------------------------------------------
def _mfc_trainer(seed: int, p: dict) -> PPOTrainer:
    cfg = paper_system_config(delta_t=p["delta_t"], num_queues=100)
    env = MeanFieldEnv(cfg, horizon=p["horizon"], propagator="exact", seed=seed)
    ppo = replace(
        paper_ppo_config(seed=seed), train_batch_size=p["batch"], num_epochs=p["sgd_epochs"]
    )
    return PPOTrainer(env, config=ppo, seed=seed, num_envs=p["num_envs"])


def _mfc_setup(seed: int, p: dict) -> dict:
    # Built here so set-up time includes trainer construction; every pass
    # builds a fresh trainer so that each repeats the same training.
    _mfc_trainer(seed, p)
    return dict(seed=seed, p=p)


def _mfc_pass(prep: dict, scratch: Path) -> Pass:
    p = prep["p"]
    trainer = _mfc_trainer(prep["seed"], p)
    stats = [trainer.train_iteration() for _ in range(p["iterations"])]
    out = {"stats": [s.__dict__.copy() for s in stats]}
    steps = stats[-1].env_steps
    drop_penalty = trainer.collector.envs[0].config.drop_penalty
    # Episode return is -drop_penalty x cumulative per-queue drops.
    mean_drops = -stats[-1].mean_episode_return / drop_penalty
    return Pass(out, steps, 0, mean_drops)


def _mfc_check(out: dict, seed: int, scale: str, ref: dict) -> tuple[int, Failures]:
    """Operations: the PPO iterations."""
    p = SCALES[scale]["mfc-train"]
    stats = out.get("stats", [])
    failed: Failures = {}
    for i in range(p["iterations"]):
        op = f"iteration {i + 1}"
        if i >= len(stats):
            failed[op] = ["missing"]
            continue
        s = stats[i]
        values = [v for k, v in s.items() if k != "episode_returns"] + list(s["episode_returns"])
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            failed.setdefault(op, []).append("non-finite TrainIterationStats field")
        if s["env_steps"] != (i + 1) * p["batch"]:
            failed.setdefault(op, []).append(f"env_steps {s['env_steps']} != {(i + 1) * p['batch']}")
        if s["epochs_run"] != p["sgd_epochs"]:
            failed.setdefault(op, []).append(f"{s['epochs_run']} SGD epochs, expected {p['sgd_epochs']}")
    if not failed:
        final = stats[-1]["mean_episode_return"]
        exact = ref["exact"].get(str(seed))
        lo, hi = ref["band"]
        op = f"iteration {p['iterations']}"
        if exact is not None and final != exact:
            failed[op] = [f"final mean return {final!r} != recorded {exact!r} for seed {seed}"]
        elif not lo <= final <= hi:
            failed[op] = [f"final mean return {final:.6g} outside the recorded band [{lo:.6g}, {hi:.6g}]"]
    return p["iterations"], failed


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "commit-sweep",
            "committed-choice sweep (Eq. 5): slot sampling on (64, 1e4, 2) buffers larger than L3, plus per-replica MF rule construction",
            _commit_setup, _commit_pass, _commit_check,
        ),
        Workload(
            "fig5-panel",
            "the headline Figure 5 panel: serve-heavy per-packet sweep over five delays, written to a cold store then re-read warm",
            _fig5_setup, _fig5_pass, _fig5_check,
        ),
        Workload(
            "delay-stream",
            "stochastic observation delays through the streaming engine: choose-packet once per snapshot age, little serve",
            _stream_setup, _stream_pass, _stream_check,
        ),
        Workload(
            "mfc-train",
            "PPO on the mean-field MDP: the only workload reaching meanfield propagation and the rl update, and no finite kernel",
            _mfc_setup, _mfc_pass, _mfc_check,
        ),
    )
}
