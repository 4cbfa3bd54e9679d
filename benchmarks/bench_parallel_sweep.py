#!/usr/bin/env python3
"""Sharded sweep orchestrator: wall-clock speedup and bit-identity.

Runs a Figure-5-style synchronization-delay sweep (bench scale:
``M = 100`` queues, ``N = 4M`` clients, ``Δt ∈ {1..10}``, 32 Monte-Carlo
replicas, JSQ(2), per-packet randomization) twice through
:class:`repro.experiments.parallel.SweepExecutor` — once with
``workers=1`` (in-process) and once with ``workers=4`` (process pool) —
and checks two properties:

* **determinism** — the merged per-replica drops are *bit-identical*
  between the two runs (always asserted, any machine);
* **speedup** — with ≥ 4 CPU cores available, the 4-worker sweep is at
  least ``MIN_SPEEDUP``× faster (skipped on smaller machines, where the
  pool can only interleave, and in ``--quick`` mode, where timings are
  noise-dominated).

A machine-readable summary (wall-clock, speedup, scale knobs, CPU count)
is written to ``BENCH_parallel_sweep.json`` so CI can track the
orchestrator's performance trajectory per commit.

Runs standalone or under pytest-benchmark:

    PYTHONPATH=src python benchmarks/bench_parallel_sweep.py [--quick]
    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_sweep.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import paper_system_config
from repro.execution import ExecutionContext
from repro.experiments.parallel import EvalRequest, SweepExecutor
from repro.policies.static import JoinShortestQueuePolicy
from repro.utils.tables import format_table

MIN_SPEEDUP = 2.5
PARALLEL_WORKERS = 4
FULL_DELTA_TS = tuple(float(x) for x in range(1, 11))
QUICK_DELTA_TS = (2.0, 5.0)
DEFAULT_JSON = Path("BENCH_parallel_sweep.json")


def build_requests(
    delta_ts=FULL_DELTA_TS,
    num_queues: int = 100,
    clients_per_queue: int = 4,
    num_runs: int = 32,
    max_batch_replicas: int = 8,
    seed: int = 0,
) -> list[EvalRequest]:
    """The Figure-5-style sweep as one request per delay grid point.

    ``max_batch_replicas=8`` splits every grid point into four replica
    chunks, so the pool has ``4 × len(delta_ts)`` shards to balance.
    """
    requests = []
    for dt in delta_ts:
        cfg = paper_system_config(
            delta_t=dt,
            num_queues=num_queues,
            num_clients=clients_per_queue * num_queues,
        )
        policy = JoinShortestQueuePolicy(cfg.num_queue_states, cfg.d)
        requests.append(
            EvalRequest(
                config=cfg,
                policy=policy,
                num_runs=num_runs,
                num_epochs=max(1, round(500.0 / dt)),
                seed=seed,
                max_batch_replicas=max_batch_replicas,
                env_kwargs={"per_packet_randomization": True},
            )
        )
    return requests


def run_bench(
    quick: bool = False, seed: int = 0, json_path: Path | None = DEFAULT_JSON
) -> dict:
    delta_ts = QUICK_DELTA_TS if quick else FULL_DELTA_TS
    num_runs = 8 if quick else 32
    requests = build_requests(delta_ts, num_runs=num_runs, seed=seed)

    start = time.perf_counter()
    serial = SweepExecutor().run_drops(requests)
    t_serial = time.perf_counter() - start

    start = time.perf_counter()
    sharded = SweepExecutor(
        ExecutionContext(workers=PARALLEL_WORKERS)).run_drops(requests
    )
    t_sharded = time.perf_counter() - start

    identical = all(
        np.array_equal(a, b) for a, b in zip(serial, sharded)
    )
    speedup = t_serial / max(t_sharded, 1e-9)
    cpu_count = os.cpu_count() or 1

    rows = [
        [
            f"{dt:g}",
            f"{drops.mean():.2f}",
            f"{drops.size}",
            "yes" if np.array_equal(drops, shard) else "NO",
        ]
        for dt, drops, shard in zip(delta_ts, serial, sharded)
    ]
    print(
        format_table(
            ["Δt", "mean drops", "replicas", "bit-identical"],
            rows,
            title=(
                "Sharded sweep orchestrator — JSQ(2), "
                f"{num_runs} replicas/Δt, {PARALLEL_WORKERS} workers"
            ),
        )
    )
    print(
        f"\nwall-clock: workers=1 {t_serial:.2f}s, "
        f"workers={PARALLEL_WORKERS} {t_sharded:.2f}s "
        f"-> {speedup:.2f}x speedup ({cpu_count} CPUs visible)"
    )

    stats = {
        "benchmark": "parallel_sweep",
        "mode": "quick" if quick else "full",
        "workers": PARALLEL_WORKERS,
        "cpu_count": cpu_count,
        "wall_clock_s": {
            "workers_1": round(t_serial, 4),
            f"workers_{PARALLEL_WORKERS}": round(t_sharded, 4),
        },
        "speedup": round(speedup, 3),
        "bit_identical": bool(identical),
        "scale": {
            "num_queues": 100,
            "num_clients": 400,
            "num_runs": num_runs,
            "delta_ts": list(delta_ts),
            "max_batch_replicas": 8,
        },
        "min_speedup_asserted": (
            MIN_SPEEDUP if not quick and cpu_count >= PARALLEL_WORKERS else None
        ),
    }
    if json_path is not None:
        json_path.write_text(json.dumps(stats, indent=2) + "\n")
        print(f"[json written to {json_path}]")

    assert identical, "sharded execution changed the merged statistics"
    if not quick and cpu_count >= PARALLEL_WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"sharded sweep only {speedup:.2f}x faster at "
            f"{PARALLEL_WORKERS} workers (expected >= {MIN_SPEEDUP}x)"
        )
    elif not quick:
        print(
            f"[speedup assertion skipped: {cpu_count} < "
            f"{PARALLEL_WORKERS} CPUs — pool can only interleave]"
        )
    return stats


def test_parallel_sweep(benchmark, results_dir):
    """pytest-benchmark entry point (full sweep)."""
    from conftest import run_once

    stats = run_once(benchmark, run_bench, quick=False)
    (results_dir / "parallel_sweep.txt").write_text(
        f"speedup={stats['speedup']:.2f}x "
        f"bit_identical={stats['bit_identical']}\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small grid, determinism check only (CI smoke)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json",
        type=Path,
        default=DEFAULT_JSON,
        help=f"machine-readable output path (default {DEFAULT_JSON})",
    )
    args = parser.parse_args(argv)
    run_bench(quick=args.quick, seed=args.seed, json_path=args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
