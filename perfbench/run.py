"""The repository benchmark: one workload per call, checked outputs, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload commit-sweep --seed 0 --seconds 20 --trace 0

Workloads: ``commit-sweep``, ``fig5-panel``, ``delay-stream`` and
``mfc-train`` (see ``workloads.py`` for what each measures and why).
Every pass of a run repeats the same inputs, made from ``--seed``; the
first pass warms caches and is checked but not timed. Passes continue
until ``--seconds`` would be exceeded.

``--trace 0`` reports the end-to-end metrics of :data:`END_TO_END`.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of :data:`PER_LAYER`; the spans of every traced pass
are written to ``perfbench/.work/traces/``. Either way the outputs of
every pass are checked, and must be bit-identical across passes, traced
or not. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every operation passed its checks. Without ``src/repro`` in
the checkout the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

from bootstrap import HERE, ROOT, SRC, WORK, BLAS_THREAD_VARS, pin_threads, put_sources_on_path

pin_threads()

#: Set-up is timed this many times per run (fresh interpreters); the
#: median is reported.
SETUP_REPEATS = 3

#: (name, unit, better) of the metrics reported with ``--trace 0``.
END_TO_END = [
    ("env_steps_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("mean_drops", "drops/queue", "lower"),
]


def _per_layer() -> list[tuple[str, str, str]]:
    from spans import LAYERS, ROOT_SPAN

    rows = [
        (f"{layer}.{key}", unit, "lower")
        for layer in LAYERS
        for key, unit in (("calls", "count"), ("self_s", "s"), ("share", "ratio"))
    ]
    return rows + [
        (f"{ROOT_SPAN}.self_s", "s", "lower"),
        (f"{ROOT_SPAN}.share", "ratio", "lower"),
        ("queueing.choose_commit.ns_per_client", "ns", "lower"),
        ("queueing.choose_packet.ns_per_client_slot", "ns", "lower"),
        ("queueing.choose_packet.calls_per_epoch", "1/epoch", "lower"),
        ("queueing.serve.ns_per_queue_epoch", "ns", "lower"),
        ("queueing.env_step.p50_ms", "ms", "lower"),
        ("queueing.env_step.p99_ms", "ms", "lower"),
        ("queueing.env_step.samples", "count", "higher"),
        ("meanfield.env_step.us_per_call", "us", "lower"),
        ("meanfield.propagate.us_per_call", "us", "lower"),
        ("rl.update.sgd_epochs_run", "count", "lower"),
        ("experiments.shard.p50_s", "s", "lower"),
        ("experiments.shard.max_s", "s", "lower"),
        ("store.get.lookups", "count", "lower"),
        ("store.get.hits", "count", "higher"),
        ("store.get.hit_ratio", "ratio", "higher"),
        ("store.put.writes", "count", "lower"),
        ("store.put.bytes_written", "B", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]


PER_LAYER = _per_layer()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("commit-sweep", "fig5-panel", "delay-stream", "mfc-train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="workload size; 'tiny' is for the benchmark's own tests")
    return parser.parse_args(argv)


def time_setup(args: argparse.Namespace) -> list[float]:
    """Set-up seconds of ``SETUP_REPEATS`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), args.workload, str(args.seed), args.scale],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Hash of every file under ``src/repro``: names the code measured
    where no git metadata exists."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted(p for p in (SRC / "repro").rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_threads() -> int | None:
    """Threads OpenBLAS actually runs with, when it is the loaded BLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def l3_cache() -> str | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def run_record(args: argparse.Namespace) -> dict:
    import numpy
    import scipy
    from repro.queueing.backends import get_backend

    import workloads

    with warnings.catch_warnings():
        # An uninstalled compiled kernel resolves to its fallback with a
        # RuntimeWarning; the record names what it resolved to.
        warnings.simplefilter("ignore", RuntimeWarning)
        numba_kernel = get_backend("numba").name
        auto_kernel = get_backend("auto").name
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "l3_cache": l3_cache(),
        "kernel": get_backend(workloads.KERNEL).name,
        "kernel_numba_resolves_to": numba_kernel,
        "kernel_auto_resolves_to": auto_kernel,
    }


def quantile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.quantile(values, q)) if values else 0.0


def layer_metrics(tracers: list, traced_walls: list[float], untraced_walls: list[float]) -> dict[str, float]:
    """The :data:`PER_LAYER` metrics from the traced passes of one run."""
    from spans import LAYERS, ROOT_SPAN

    tables = [t.layer_table() for t in tracers]
    first = tables[0]
    wall = sum(traced_walls)

    def calls(layer: str) -> int:
        return int(first.get(layer, {}).get("calls", 0))

    def self_total(layer: str) -> float:
        return sum(tab.get(layer, {}).get("self_s", 0.0) for tab in tables)

    def incl_total(layer: str) -> float:
        return sum(tab.get(layer, {}).get("total_s", 0.0) for tab in tables)

    def counter(key: str) -> float:
        return sum(t.counters.get(key, 0.0) for t in tracers)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    m: dict[str, float] = {}
    for layer in [*LAYERS, ROOT_SPAN]:
        if layer != ROOT_SPAN:
            m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = statistics.median(tab.get(layer, {}).get("self_s", 0.0) for tab in tables)
        m[f"{layer}.share"] = per(self_total(layer), wall)
    steps = [d for t in tracers for d in t.durations("queueing.env_step")]
    shards = [d for t in tracers for d in t.durations("experiments.shard")]
    passes = len(tracers)
    m.update({
        "queueing.choose_commit.ns_per_client": per(
            self_total("queueing.choose_commit"), counter("queueing.choose_commit.clients"), 1e9),
        "queueing.choose_packet.ns_per_client_slot": per(
            self_total("queueing.choose_packet"), counter("queueing.choose_packet.client_slots"), 1e9),
        "queueing.choose_packet.calls_per_epoch": per(calls("queueing.choose_packet"), calls("queueing.env_step")),
        "queueing.serve.ns_per_queue_epoch": per(
            self_total("queueing.serve"), counter("queueing.serve.queue_epochs"), 1e9),
        "queueing.env_step.p50_ms": quantile(steps, 0.5) * 1e3,
        "queueing.env_step.p99_ms": quantile(steps, 0.99) * 1e3,
        "queueing.env_step.samples": len(steps),
        "meanfield.env_step.us_per_call": per(incl_total("meanfield.env_step"), passes * calls("meanfield.env_step"), 1e6),
        "meanfield.propagate.us_per_call": per(incl_total("meanfield.propagate"), passes * calls("meanfield.propagate"), 1e6),
        "rl.update.sgd_epochs_run": int(tracers[0].counters.get("rl.update.sgd_epochs_run", 0)),
        "experiments.shard.p50_s": quantile(shards, 0.5),
        "experiments.shard.max_s": float(max(shards, default=0.0)),
        "store.get.lookups": int(tracers[0].counters.get("store.get.lookups", 0)),
        "store.get.hits": int(tracers[0].counters.get("store.get.hits", 0)),
        "store.get.hit_ratio": per(counter("store.get.hits"), counter("store.get.lookups")),
        "store.put.writes": int(tracers[0].counters.get("store.put.writes", 0)),
        "store.put.bytes_written": int(tracers[0].counters.get("store.put.bytes_written", 0)),
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
    })
    return m


def measure(args: argparse.Namespace, workdir: Path) -> tuple[dict, int, int]:
    """Run passes for ``--seconds``; returns (metrics, attempted, failed)."""
    import workloads
    from repro.queueing.backends import get_backend
    from spans import Tracer, instrument, write_spans

    workload = workloads.WORKLOADS[args.workload]
    params = workloads.SCALES[args.scale][args.workload]
    reference = workloads.load_reference()[args.scale][args.workload]
    kernel_cls = type(get_backend(workloads.KERNEL))
    prepared = workload.setup(args.seed, params)
    record = run_record(args)
    print("run_record " + json.dumps(record), flush=True)

    # Pass 0 is the untimed warm-up; with tracing, odd passes are traced.
    min_passes = 3 if args.trace else 2
    start = time.perf_counter()
    first_digest = None
    attempted = failed = 0
    walls: list[float] = []
    steps_per_s: list[float] = []
    tracers: list = []
    traced_walls: list[float] = []
    untraced_walls: list[float] = []
    first_pass = None
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        scratch = Path(tempfile.mkdtemp(dir=workdir))
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pass{k}") if traced else None
        try:
            # Installing the wrappers is not part of the traced wall.
            with instrument(tracer, kernel_cls) if tracer is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = workload.run_pass(prepared, scratch)
                wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            n, _ = workload.check({}, args.seed, args.scale, reference)
            return {}, attempted + n, failed + n
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        n, failures = workload.check(result.output, args.seed, args.scale, reference)
        this_digest = workloads.digest(result.output)
        first_digest = first_digest or this_digest
        if this_digest != first_digest:
            failures = {"all": [f"pass {k} ({'traced' if traced else 'untraced'}) output differs from pass 0"]}
        attempted += n
        failed += n if "all" in failures else len(failures)
        for op, msgs in failures.items():
            for msg in msgs:
                print(f"FAILED pass {k} {op}: {msg}", file=sys.stderr)
        if k == 0:
            first_pass = result
        else:
            walls.append(wall)
            if traced:
                tracers.append(tracer)
                traced_walls.append(wall)
            else:
                untraced_walls.append(wall)
                steps_per_s.append(result.env_steps / wall)
        k += 1
        elapsed = time.perf_counter() - start
        expected_next = statistics.median(walls) if walls else wall
        if k >= min_passes and elapsed + expected_next > args.seconds:
            break

    print(
        f"passes {k} (1 warm-up, {len(untraced_walls)} untraced, {len(traced_walls)} traced), "
        f"untraced pass walls {[round(w, 4) for w in untraced_walls]} s",
        flush=True,
    )
    if first_pass.queue_epochs:
        print(f"queue_epochs_per_s {first_pass.queue_epochs / statistics.median(untraced_walls)!r}")
    if args.trace:
        metrics = layer_metrics(tracers, traced_walls, untraced_walls)
        # Self times must account for the traced wall: the shares of all
        # layers and the root add up to 1 within the tracing overhead.
        accounted = sum(v for k, v in metrics.items() if k.endswith(".share"))
        attempted += 1
        if abs(accounted - 1.0) > max(abs(metrics["trace.overhead_ratio"]), 0.01):
            failed += 1
            print(f"FAILED trace accounting: self times cover {accounted:.4f} of the traced wall",
                  file=sys.stderr)
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json.gz"
        write_spans(trace_path, record, tracers)
        print(f"spans written to {trace_path.relative_to(ROOT)}", flush=True)
    else:
        metrics = {
            "env_steps_per_s": statistics.median(steps_per_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mean_drops": first_pass.mean_drops,
        }
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not put_sources_on_path():
        print(f"run.py: no library sources at {SRC.relative_to(ROOT)}/repro; nothing to measure",
              file=sys.stderr)
        return 2
    # Entry points called with legacy keyword arguments warn with a
    # DeprecationWarning; inside the benchmark that is an error, so the
    # benchmark keeps working once the legacy arguments are removed.
    warnings.filterwarnings(
        "error", category=DeprecationWarning, module=r"(repro|workloads|spans|__main__)(\.|$)"
    )
    setup = time_setup(args) if not args.trace else []
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    try:
        metrics, attempted, failed = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace and metrics:
        metrics["setup_s"] = statistics.median(setup)
    specs = PER_LAYER if args.trace else END_TO_END
    report = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit, _ in specs}
    for name, entry in report.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(f"error_rate {failed / max(attempted, 1)!r} ({failed} of {attempted} operations failed)")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
