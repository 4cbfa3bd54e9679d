"""One-command reproduction: manifest → artifacts → ``results/`` + provenance.

:func:`run_reproduction` walks a parsed
:class:`~repro.store.manifest.ReproductionManifest`, regenerates every
declared artifact through the sharded sweep machinery (all Monte-Carlo
work flows through one shared
:class:`~repro.store.store.ExperimentStore`, so shards computed by one
artifact — or by a previous, possibly interrupted, run — are reused by
every later one) and writes, per artifact ``<name>``:

* ``results/<name>.txt`` — the rendered ASCII table,
* ``results/<name>.csv`` — the underlying series (when the artifact has
  one; the parameter tables do not),
* ``results/<name>.provenance.json`` — machine-readable provenance: the
  manifest entry, its content fingerprint, the code-version salt, seed,
  worker count, wall-clock seconds and the shard-cache hit/miss counters
  attributed to this artifact.

Interrupting ``reproduce`` and re-invoking it is safe and cheap: every
already-persisted shard is a cache hit, and merged statistics are
bit-identical to an uninterrupted cold run. A fully warm re-run reports
a 100% hit-rate and recomputes nothing.

Engine of the CLI subcommand::

    python -m repro.experiments.cli reproduce [--manifest M] [--workers K]
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.execution import ExecutionContext
from repro.store.keys import CODE_SALT, fingerprint
from repro.store.manifest import ArtifactSpec, ReproductionManifest
from repro.store.store import StoreStats
from repro.utils.tables import format_table

__all__ = ["ArtifactRun", "ReproductionReport", "run_reproduction"]


@dataclass
class ArtifactRun:
    """Outcome of regenerating one manifest artifact."""

    spec: ArtifactSpec
    seed: int
    wall_clock_s: float
    cache: StoreStats  # this artifact's share of the store counters
    outputs: tuple[Path, ...]
    table: str

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate

    def provenance(self, workers: int, store_root: "Path | None") -> dict:
        """JSON-serializable provenance record for this artifact."""
        entry = self.spec.to_dict()
        return {
            "artifact": entry,
            "artifact_fingerprint": fingerprint(entry),
            "code_salt": CODE_SALT,
            "seed": self.seed,
            "workers": workers,
            "store_root": str(store_root) if store_root is not None else None,
            "wall_clock_s": round(self.wall_clock_s, 3),
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "writes": self.cache.writes,
                "invalid": self.cache.invalid,
                "hit_rate": round(self.cache.hit_rate, 4),
            },
            "outputs": [p.name for p in self.outputs],
        }


@dataclass
class ReproductionReport:
    """Aggregate outcome of one ``reproduce`` invocation."""

    manifest: ReproductionManifest
    runs: list[ArtifactRun]
    workers: int
    store_root: "Path | None"
    results_dir: Path
    wall_clock_s: float

    @property
    def cache(self) -> StoreStats:
        """Summed shard-cache counters over all artifacts."""
        total = StoreStats()
        for run in self.runs:
            total.hits += run.cache.hits
            total.misses += run.cache.misses
            total.writes += run.cache.writes
            total.invalid += run.cache.invalid
        return total

    @property
    def hit_rate(self) -> float:
        """Fraction of all Monte-Carlo shards served from the store."""
        return self.cache.hit_rate

    def format_table(self) -> str:
        rows = []
        for run in self.runs:
            lookups = run.cache.lookups
            rows.append(
                [
                    run.spec.name,
                    run.spec.kind,
                    f"{run.wall_clock_s:.2f}",
                    lookups,
                    f"{run.cache.hits}/{lookups}" if lookups else "—",
                    ", ".join(p.name for p in run.outputs),
                ]
            )
        total = self.cache
        rows.append(
            [
                "TOTAL",
                "",
                f"{self.wall_clock_s:.2f}",
                total.lookups,
                f"{total.hits}/{total.lookups} ({self.hit_rate:.0%})"
                if total.lookups
                else "—",
                f"→ {self.results_dir}",
            ]
        )
        return format_table(
            ["artifact", "kind", "wall s", "shards", "cache hits", "outputs"],
            rows,
            title=(
                f"Reproduction — {self.manifest.title} "
                f"(workers={self.workers}, store="
                f"{self.store_root if self.store_root else 'disabled'})"
            ),
        )


def _regenerate(
    spec: ArtifactSpec, seed: int, ctx: ExecutionContext
) -> "tuple[str, str | None]":
    """Run one artifact; returns ``(table_text, csv_text | None)``.

    Imports are local: this module must stay importable from
    :mod:`repro.store` without dragging in the experiment runners (which
    themselves import the parallel executor, which consults the store).
    """
    params = dict(spec.params)
    params.pop("seed", None)  # already resolved into ``seed``
    if spec.kind == "table1":
        from repro.experiments.tables import render_table1

        return render_table1(), None
    if spec.kind == "table2":
        from repro.experiments.tables import render_table2

        return render_table2(), None
    if spec.kind == "fig4":
        from repro.experiments.fig4_convergence import run_fig4

        result = run_fig4(
            delta_t=float(params.get("delta_t", 5.0)),
            m_grid=tuple(int(m) for m in params.get("m_grid", (25, 50, 100))),
            num_runs=int(params.get("runs", 5)),
            mf_eval_episodes=int(params.get("mf_eval_episodes", 50)),
            seed=seed,
            context=ctx,
        )
        return result.format_table(), result.to_csv()
    if spec.kind in ("fig5", "fig6"):
        from repro.experiments.fig5_delay_sweep import run_fig5
        from repro.experiments.fig6_small_n import run_fig6

        runner = run_fig5 if spec.kind == "fig5" else run_fig6
        result = runner(
            num_queues=int(params.get("queues", 100)),
            delta_ts=tuple(
                float(dt)
                for dt in params.get("delta_ts", (1.0, 3.0, 5.0, 7.0, 10.0))
            ),
            num_runs=int(params.get("runs", 5)),
            seed=seed,
            context=ctx,
        )
        return result.format_table(), result.to_csv()
    if spec.kind == "scenario":
        from repro.scenarios import run_scenario

        delta_ts = params.get("delta_ts")
        result = run_scenario(
            str(params["scenario"]),
            delta_ts=tuple(float(dt) for dt in delta_ts) if delta_ts else None,
            num_queues=(
                int(params["queues"]) if "queues" in params else None
            ),
            num_runs=int(params["runs"]) if "runs" in params else None,
            seed=seed,
            context=ctx,
        )
        return result.format_table(), result.to_csv()
    raise AssertionError(f"unhandled kind {spec.kind!r}")  # pragma: no cover


def _preflight(specs: "tuple[ArtifactSpec, ...]") -> None:
    """Fail before any simulation starts, not hours into the run.

    Manifest parsing already validates kinds and parameter names; what
    it cannot see is the scenario *registry*, so unknown scenario names
    are checked here (import is local — the registry pulls in the whole
    environment stack).
    """
    from repro.scenarios import available_scenarios

    registered = set(available_scenarios())
    unknown = [
        (spec.name, spec.params["scenario"])
        for spec in specs
        if spec.kind == "scenario" and spec.params["scenario"] not in registered
    ]
    if unknown:
        listing = ", ".join(f"{a!r} -> {s!r}" for a, s in unknown)
        raise ValueError(
            f"manifest references unregistered scenario(s): {listing}; "
            f"registered: {', '.join(sorted(registered))}"
        )


def run_reproduction(
    manifest: ReproductionManifest,
    results_dir: str | Path = "results",
    context: ExecutionContext | None = None,
    only: "list[str] | None" = None,
    echo: bool = False,
) -> ReproductionReport:
    """Regenerate the manifest's artifacts into ``results_dir``.

    Parameters
    ----------
    manifest:
        Parsed manifest (:func:`repro.store.manifest.load_manifest`).
    results_dir:
        Output directory (created if missing).
    context:
        :class:`repro.execution.ExecutionContext` shared by every
        artifact's sharded sweep (``None`` means the defaults).
        ``workers`` is the process count (merged statistics are
        bit-identical for any value); ``store`` the shard cache
        (``None`` disables caching: every shard is simulated fresh and
        nothing is persisted). ``claim`` lets several hosts pointing
        ``reproduce`` at one shared store directory partition the
        manifest's shards between them (see ``docs/scaling.md``);
        ``merge_only`` assembles artifacts purely from previously
        computed shards and raises if any shard is missing.
    only:
        Optional artifact-name filter (manifest order is kept).
    echo:
        Print each artifact's table as soon as it is regenerated.
    """
    ctx = context or ExecutionContext()
    workers = ctx.workers
    store = ctx.store
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    store_root = store.root if store is not None else None

    selected = manifest.select(only)
    _preflight(selected)
    runs: list[ArtifactRun] = []
    t_start = time.perf_counter()
    for spec in selected:
        seed = spec.seed_for(manifest.seed)
        before = store.stats.snapshot() if store is not None else StoreStats()
        t0 = time.perf_counter()
        table, csv_text = _regenerate(spec, seed, ctx)
        wall = time.perf_counter() - t0
        cache = (
            store.stats.since(before) if store is not None else StoreStats()
        )

        outputs = [results_dir / f"{spec.name}.txt"]
        outputs[0].write_text(table + "\n")
        if csv_text is not None:
            csv_path = results_dir / f"{spec.name}.csv"
            csv_path.write_text(csv_text + "\n")
            outputs.append(csv_path)
        run = ArtifactRun(
            spec=spec,
            seed=seed,
            wall_clock_s=wall,
            cache=cache,
            outputs=tuple(outputs),
            table=table,
        )
        provenance_path = results_dir / f"{spec.name}.provenance.json"
        provenance_path.write_text(
            json.dumps(
                run.provenance(workers, store_root), indent=2, sort_keys=True
            )
            + "\n"
        )
        run.outputs = (*run.outputs, provenance_path)
        runs.append(run)
        if echo:
            print(table)
            print()
    return ReproductionReport(
        manifest=manifest,
        runs=runs,
        workers=workers,
        store_root=store_root,
        results_dir=results_dir,
        wall_clock_s=time.perf_counter() - t_start,
    )
