"""Steadiness check: run each workload over several seeds, report the spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py [--runs 10] [--workloads fig5-panel,...] [--out FILE]

Each run is ``run.py --trace 0`` with ``run_seconds`` from
``BENCHMARK.json`` and seeds ``0..runs-1``. For every end-to-end metric
it prints the median, the quartiles of ``statistics.quantiles(n=4)``
and the spread ``(q3 - q1) / median`` next to the metric's bound; a
benchmark is steady when every spread except ``setup_s`` stays within
its bound (aim for a third of it). ``--out`` writes the values as JSON;
``perfbench/baseline.json`` holds the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bootstrap import HERE, ROOT


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"run_seconds": bench["run_seconds"], "runs": args.runs, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED\n{proc.stderr}", file=sys.stderr)
                return 1
            record = json.loads(lines[0].split(" ", 1)[1])
            report.setdefault("host", {k: record[k] for k in (
                "git_sha", "source_sha256", "nproc", "python", "numpy", "scipy",
                "blas_threads", "l3_cache", "kernel")})
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
                  flush=True)
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"values": vals, "q1": q1, "median": median, "q3": q3,
                          "spread": (q3 - q1) / median, "bound": bounds[name]}
            print(f"  {name}: median {median:.6g}, quartiles [{q1:.6g}, {q3:.6g}], "
                  f"spread {rows[name]['spread']:.4f} (bound {bounds[name]})", flush=True)
        report["workloads"][workload] = rows
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
