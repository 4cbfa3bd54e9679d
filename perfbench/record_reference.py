"""Regenerate ``reference.json``: the outputs the output checks compare against.

Usage: ``python3 perfbench/record_reference.py [--seeds 10]``.

For every scale and workload it runs one pass per seed ``0..seeds-1``
and records, per checked quantity, the exact value at each seed (which
a contract-preserving kernel must repeat bit for bit) and the pooled
mean and per-replica standard deviation over all seeds (which any other
seed must match within ``workloads.K_SIGMA`` standard errors). Run it
again only when a change is meant to alter the simulated outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from bootstrap import WORK, pin_threads, put_sources_on_path

pin_threads()


def pooled(per_seed: dict[int, "np.ndarray"]) -> dict:
    import numpy as np

    values = np.concatenate(list(per_seed.values()))
    return {
        "exact": {str(seed): float(v.mean()) for seed, v in per_seed.items()},
        "pool_mean": float(values.mean()),
        "pool_sd": float(values.std(ddof=1)),
        "pool_n": int(values.size),
    }


def record(scale: str, name: str, seeds: int) -> dict:
    import workloads

    params = workloads.SCALES[scale][name]
    outputs = {}
    WORK.mkdir(parents=True, exist_ok=True)
    for seed in range(seeds):
        scratch = Path(tempfile.mkdtemp(dir=WORK))
        try:
            prepared = workloads.WORKLOADS[name].setup(seed, params)
            outputs[seed] = workloads.WORKLOADS[name].run_pass(prepared, scratch).output
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        print(f"{scale} {name} seed {seed} done", file=sys.stderr, flush=True)
    if name == "commit-sweep":
        return {cell: pooled({s: o[cell] for s, o in outputs.items()}) for cell in ("JSQ(2)", "MF")}
    if name == "fig5-panel":
        return {
            f"{cell}@{dt:g}": pooled({s: o["cold"][cell][i] for s, o in outputs.items()})
            for cell in ("MF", "JSQ(2)", "RND")
            for i, dt in enumerate(params["delta_ts"])
        }
    if name == "delay-stream":
        col = outputs[0]["summary_fields"].index("total_drops_per_queue")
        return {"drops": pooled({s: o["summaries"][:, col] for s, o in outputs.items()})}
    finals = {s: o["stats"][-1]["mean_episode_return"] for s, o in outputs.items()}
    # Seeds change the initial networks, so other seeds are held to a
    # band around the spread of the recorded ones rather than a mean.
    mean, sd = statistics.mean(finals.values()), statistics.stdev(finals.values())
    return {
        "exact": {str(s): v for s, v in finals.items()},
        "band": [mean - 6.0 * sd, mean + 6.0 * sd],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    if not put_sources_on_path():
        print("record_reference: src/repro not found", file=sys.stderr)
        return 2
    import workloads

    reference = {
        scale: {name: record(scale, name, args.seeds) for name in workloads.WORKLOADS}
        for scale in ("tiny", "full")
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
