"""Command-line interface for the experiment harness.

Regenerate any paper artifact — or any registered scenario — from a
shell::

    python -m repro.experiments.cli table1
    python -m repro.experiments.cli table2
    python -m repro.experiments.cli fig3 --iterations 10
    python -m repro.experiments.cli fig4 --delta-t 5 --m-grid 25,50,100
    python -m repro.experiments.cli fig5 --queues 100 --runs 5 --workers 4
    python -m repro.experiments.cli fig6 --queues 100 --runs 5
    python -m repro.experiments.cli scenario list
    python -m repro.experiments.cli scenario heterogeneous-sed --workers 4
    python -m repro.experiments.cli leaderboard --workers 4
    python -m repro.experiments.cli stream diurnal-stream --horizon 100000
    python -m repro.experiments.cli reproduce --workers 4

Each command prints the regenerated ASCII table and, with ``--csv PATH``,
writes the underlying series for external plotting. Grids default to
bench scale; pass paper-scale values explicitly for a full reproduction.
``--workers K`` shards the Monte-Carlo sweeps across ``K`` processes
(results are bit-identical to ``--workers 1``; see ``docs/scaling.md``).
``--store-dir DIR`` attaches a content-addressed shard cache so repeated
and overlapping sweeps only simulate what is new. Adding ``--claim``
turns the shared store into a multi-node work queue: independent hosts
pointing the same command at one store directory partition the sweep's
shards between them, and ``--merge-only`` assembles the final result
from a completed partitioned run (see ``docs/scaling.md``).

``stream`` runs one registered scenario through the streaming serving
engine (:mod:`repro.serving`) for an arbitrarily long horizon with
O(1)-memory online metrics — per-replica drop/throughput/latency-proxy
summaries plus a bounded windowed time series — instead of a finite
sweep; see ``docs/serving.md``.

``reproduce`` regenerates *every* artifact declared in a reproduction
manifest (default: the packaged ``repro/assets/reproduction.toml``) into
``results/`` with per-artifact provenance JSON, routing all Monte-Carlo
work through the shard store — an interrupted run resumes where it
stopped, bit-identical to a cold run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.fig3_training import run_fig3
from repro.experiments.fig4_convergence import run_fig4
from repro.experiments.fig5_delay_sweep import run_fig5
from repro.experiments.fig6_small_n import run_fig6
from repro.experiments.tables import render_table1, render_table2

__all__ = ["main", "build_parser"]


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected at least one value, got {text!r}"
        )
    return values


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected at least one value, got {text!r}"
        )
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_chaos(text: str):
    """Parse a ``--chaos`` degradation-schedule spec at argument time,
    so a malformed schedule is a usage error (exit 2) before any
    simulation or pool spin-up."""
    from repro.queueing.chaos import parse_chaos_spec

    try:
        return parse_chaos_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_chaos_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--chaos", type=_parse_chaos, default=None, metavar="SPEC",
        help="inject a degradation schedule (repro.queueing.chaos): "
        "';'-separated epoch-anchored events, e.g. "
        "'outage@40-80:frac=0.1,mode=loss; flap@20-60:factor=0.5' "
        "('links@...' needs a graph scenario); replaces any schedule "
        "the scenario embeds",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1: system parameters")
    sub.add_parser("table2", help="Table 2: PPO hyperparameters")

    p3 = sub.add_parser("fig3", help="Figure 3: PPO training curve")
    p3.add_argument("--delta-t", type=float, default=5.0)
    p3.add_argument("--iterations", type=int, default=10)
    p3.add_argument("--horizon", type=int, default=100)
    p3.add_argument("--seed", type=int, default=0)
    p3.add_argument("--csv", type=Path, default=None)

    p4 = sub.add_parser("fig4", help="Figure 4: mean-field convergence")
    p4.add_argument("--delta-t", type=float, default=5.0)
    p4.add_argument("--m-grid", type=_parse_ints, default=(25, 50, 100))
    p4.add_argument("--runs", type=int, default=5)
    p4.add_argument("--seed", type=int, default=0)
    p4.add_argument("--csv", type=Path, default=None)
    _add_workers_flag(p4)
    _add_store_flag(p4)
    _add_sim_backend_flag(p4)

    p5 = sub.add_parser("fig5", help="Figure 5: delay sweep")
    p5.add_argument("--queues", type=int, default=100)
    p5.add_argument(
        "--delta-ts", type=_parse_floats,
        default=tuple(float(x) for x in range(1, 11)),
    )
    p5.add_argument("--runs", type=int, default=5)
    p5.add_argument("--seed", type=int, default=0)
    p5.add_argument("--csv", type=Path, default=None)
    _add_workers_flag(p5)
    _add_store_flag(p5)
    _add_sim_backend_flag(p5)

    p6 = sub.add_parser("fig6", help="Figure 6: N >> M violated")
    p6.add_argument("--queues", type=int, default=100)
    p6.add_argument(
        "--delta-ts", type=_parse_floats,
        default=tuple(float(x) for x in range(1, 11)),
    )
    p6.add_argument("--runs", type=int, default=5)
    p6.add_argument("--seed", type=int, default=0)
    p6.add_argument("--csv", type=Path, default=None)
    _add_workers_flag(p6)
    _add_store_flag(p6)
    _add_sim_backend_flag(p6)

    ps = sub.add_parser(
        "scenario",
        help="registered scenario sweeps ('scenario list' to enumerate)",
    )
    ps.add_argument(
        "name",
        help="registered scenario name, or 'list' to print the catalogue",
    )
    ps.add_argument(
        "--delta-ts", type=_parse_floats, default=None,
        help="override the scenario's delay grid",
    )
    ps.add_argument(
        "--queues", type=_positive_int, default=None,
        help="override M (N follows the scenario's client rule)",
    )
    ps.add_argument(
        "--runs", type=_positive_int, default=None,
        help="override the Monte-Carlo replica count",
    )
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--csv", type=Path, default=None)
    _add_chaos_flag(ps)
    _add_workers_flag(ps)
    _add_store_flag(ps)
    _add_sim_backend_flag(ps)
    _add_claim_flags(ps)

    plb = sub.add_parser(
        "leaderboard",
        help="training-campaign leaderboard: natively trained MF-regime "
        "checkpoints vs transplanted MF vs JSQ/RND/THR under matched "
        "seeds (the 'leaderboard' scenario, plus checkpoint provenance)",
    )
    plb.add_argument(
        "--delta-ts", type=_parse_floats, default=None,
        help="override the leaderboard's delay grid",
    )
    plb.add_argument(
        "--queues", type=_positive_int, default=None,
        help="override M (N follows the scenario's client rule)",
    )
    plb.add_argument(
        "--runs", type=_positive_int, default=None,
        help="override the Monte-Carlo replica count",
    )
    plb.add_argument("--seed", type=int, default=0)
    plb.add_argument("--csv", type=Path, default=None)
    _add_workers_flag(plb)
    _add_store_flag(plb)
    _add_sim_backend_flag(plb)
    _add_claim_flags(plb)

    pstream = sub.add_parser(
        "stream",
        help="stream a registered scenario with O(1)-memory online metrics",
    )
    pstream.add_argument("name", help="registered scenario name")
    pstream.add_argument(
        "--horizon", type=_positive_int, default=2000,
        help="decision epochs to stream (memory stays flat at any value)",
    )
    pstream.add_argument(
        "--window", type=_positive_int, default=None,
        help="operator-series window in epochs (default: horizon // 64)",
    )
    pstream.add_argument(
        "--replicas", type=_positive_int, default=4,
        help="lock-step Monte-Carlo replicas",
    )
    pstream.add_argument(
        "--delta-t", type=float, default=None,
        help="broadcast period (default: the scenario grid's first entry)",
    )
    pstream.add_argument(
        "--policy", default=None,
        help="policy name within the scenario's suite (default: first)",
    )
    pstream.add_argument(
        "--queues", type=_positive_int, default=None,
        help="override M (N follows the scenario's client rule)",
    )
    pstream.add_argument(
        "--controller", default=None, metavar="NAME",
        help="closed-loop controller from the scenario's registered "
        "suite (e.g. 'rate', 'oracle', 'static'; see docs/serving.md); "
        "default: uncontrolled",
    )
    pstream.add_argument(
        "--max-windows", type=_positive_int, default=None,
        help="retained operator-series rows (older windows are merged "
        "pairwise; default: 512)",
    )
    pstream.add_argument("--seed", type=int, default=0)
    pstream.add_argument(
        "--csv", type=Path, default=None,
        help="write the windowed series as CSV",
    )
    _add_chaos_flag(pstream)
    _add_workers_flag(pstream)
    _add_store_flag(pstream)
    _add_sim_backend_flag(pstream)

    pr = sub.add_parser(
        "reproduce",
        help="regenerate every artifact of a reproduction manifest",
    )
    pr.add_argument(
        "--manifest", type=Path, default=None,
        help="manifest TOML (default: the packaged reproduction.toml)",
    )
    pr.add_argument(
        "--results-dir", type=Path, default=Path("results"),
        help="output directory for tables/CSVs/provenance (default: results/)",
    )
    pr.add_argument(
        "--store-dir", type=Path, default=None,
        help="shard-store directory (default: <results-dir>/.store)",
    )
    pr.add_argument(
        "--no-store", action="store_true",
        help="disable the shard store (simulate everything fresh)",
    )
    pr.add_argument(
        "--only", action="append", default=None, metavar="NAME",
        help="run only this artifact (repeatable)",
    )
    pr.add_argument(
        "--list", action="store_true", dest="list_artifacts",
        help="list the manifest's artifacts and exit",
    )
    pr.add_argument(
        "--echo", action="store_true",
        help="print each artifact's table as it is regenerated",
    )
    _add_workers_flag(pr)
    _add_claim_flags(pr)
    return parser


def _add_workers_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="process count for the sharded sweep (1 = in-process; "
        "results are identical for any value)",
    )


def _add_store_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--store-dir", type=Path, default=None, metavar="DIR",
        help="content-addressed shard cache: reuse previously computed "
        "replica chunks and persist fresh ones (bit-identical results "
        "either way)",
    )


def _add_claim_flags(subparser: argparse.ArgumentParser) -> None:
    group = subparser.add_mutually_exclusive_group()
    group.add_argument(
        "--claim", action="store_true",
        help="multi-node mode: claim each shard through the shared store "
        "before computing it, so independent hosts pointing at one "
        "--store-dir partition the sweep between them (results merge "
        "bit-identically to a single-host run; see docs/scaling.md)",
    )
    group.add_argument(
        "--merge-only", action="store_true",
        help="assemble the result purely from previously computed shards "
        "in the store; fails if any shard is missing",
    )


def _check_claim_flags(parser: argparse.ArgumentParser, args) -> None:
    """Claim coordination needs the shared store directory to exist."""
    if getattr(args, "claim", False) or getattr(args, "merge_only", False):
        flag = "--claim" if getattr(args, "claim", False) else "--merge-only"
        if getattr(args, "store_dir", None) is None:
            parser.error(
                f"{flag} coordinates work through the shared shard store; "
                "pass --store-dir as well"
            )


def _add_sim_backend_flag(subparser: argparse.ArgumentParser) -> None:
    from repro.queueing.backends import available_backends

    subparser.add_argument(
        "--sim-backend", default="numpy", metavar="NAME",
        choices=(*available_backends(), "auto"),
        help="epoch kernel: 'numpy' (default), 'numba' (JIT-compiled, "
        "bit-identical, falls back to numpy when numba is missing) or "
        "'auto' (fastest runnable)",
    )


def _emit(text: str, result, csv_path: Path | None) -> None:
    print(text)
    if csv_path is not None and result is not None:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(result.to_csv() + "\n")
        print(f"\n[csv written to {csv_path}]")


def _open_store(args):
    """The ``--store-dir`` cache for sweep commands (``None`` when unset)."""
    if getattr(args, "store_dir", None) is None:
        return None
    from repro.store import ExperimentStore

    return ExperimentStore(args.store_dir)


def _execution_context(args):
    """Bundle the sweep flags into one ExecutionContext."""
    from repro.execution import ExecutionContext

    return ExecutionContext(
        workers=getattr(args, "workers", 1),
        store=_open_store(args),
        sim_backend=getattr(args, "sim_backend", "numpy"),
        claim=getattr(args, "claim", False),
        merge_only=getattr(args, "merge_only", False),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "table1":
        print(render_table1())
    elif args.command == "table2":
        print(render_table2())
    elif args.command == "fig3":
        result = run_fig3(
            delta_t=args.delta_t,
            iterations=args.iterations,
            horizon=args.horizon,
            seed=args.seed,
        )
        _emit(result.format_table(), result, args.csv)
    elif args.command == "fig4":
        result = run_fig4(
            delta_t=args.delta_t,
            m_grid=args.m_grid,
            num_runs=args.runs,
            seed=args.seed,
            context=_execution_context(args),
        )
        _emit(result.format_table(), result, args.csv)
    elif args.command == "fig5":
        result = run_fig5(
            num_queues=args.queues,
            delta_ts=args.delta_ts,
            num_runs=args.runs,
            seed=args.seed,
            context=_execution_context(args),
        )
        _emit(result.format_table(), result, args.csv)
    elif args.command == "fig6":
        result = run_fig6(
            num_queues=args.queues,
            delta_ts=args.delta_ts,
            num_runs=args.runs,
            seed=args.seed,
            context=_execution_context(args),
        )
        _emit(result.format_table(), result, args.csv)
    elif args.command == "scenario":
        from repro.scenarios import run_scenario, scenario_summaries
        from repro.utils.tables import format_table

        if args.name == "list":
            conflicting = [
                flag
                for flag, value in (
                    ("--delta-ts", args.delta_ts),
                    ("--queues", args.queues),
                    ("--runs", args.runs),
                    ("--csv", args.csv),
                    ("--chaos", args.chaos),
                    ("--store-dir", args.store_dir),
                )
                if value is not None
            ]
            if args.workers != 1:
                conflicting.append("--workers")
            if args.sim_backend != "numpy":
                conflicting.append("--sim-backend")
            if args.claim:
                conflicting.append("--claim")
            if args.merge_only:
                conflicting.append("--merge-only")
            if conflicting:
                parser.error(
                    "'scenario list' prints the catalogue and takes no "
                    f"sweep options (got {', '.join(conflicting)})"
                )
            print(
                format_table(
                    ["scenario", "ρ", "default grid", "description"],
                    [list(row) for row in scenario_summaries()],
                    title="Registered scenarios",
                )
            )
        else:
            _check_claim_flags(parser, args)
            try:
                result = run_scenario(
                    args.name,
                    delta_ts=args.delta_ts,
                    num_queues=args.queues,
                    num_runs=args.runs,
                    seed=args.seed,
                    context=_execution_context(args),
                    chaos=args.chaos,
                )
            except KeyError as exc:
                # Unknown scenario: a usage error, not a traceback. The
                # registry's message already lists the available names.
                print(f"error: {exc.args[0]}", file=sys.stderr)
                print(
                    "hint: 'scenario list' prints the catalogue",
                    file=sys.stderr,
                )
                return 2
            except ValueError as exc:
                if args.chaos is None:
                    raise
                # Well-formed schedule that cannot run on this scenario
                # (e.g. link events without a topology, queue indices
                # past M): still a usage error, caught pre-simulation.
                print(f"error: {exc}", file=sys.stderr)
                return 2
            _emit(result.format_table(), result, args.csv)
    elif args.command == "leaderboard":
        from repro.experiments.campaign import get_regime_policy
        from repro.scenarios import run_scenario

        _check_claim_flags(parser, args)
        result = run_scenario(
            "leaderboard",
            delta_ts=args.delta_ts,
            num_queues=args.queues,
            num_runs=args.runs,
            seed=args.seed,
            context=_execution_context(args),
        )
        _emit(result.format_table(), result, args.csv)
        # Provenance footer: whether each MF-regime column came from a
        # native campaign checkpoint or a fallback (cold checkout).
        sources = ", ".join(
            f"Δt={dt:g}: {get_regime_policy(dt)[1]}" for dt in result.delta_ts
        )
        print(f"\nMF-regime checkpoint sources — {sources}")
    elif args.command == "stream":
        from repro.serving import run_stream_scenario

        if args.delta_t is not None and args.delta_t <= 0:
            parser.error("--delta-t must be > 0")
        try:
            result = run_stream_scenario(
                args.name,
                horizon=args.horizon,
                window=args.window,
                delta_t=args.delta_t,
                num_queues=args.queues,
                num_replicas=args.replicas,
                policy=args.policy,
                controller=args.controller,
                seed=args.seed,
                context=_execution_context(args),
                chaos=args.chaos,
                **(
                    {"max_windows": args.max_windows}
                    if args.max_windows is not None
                    else {}
                ),
            )
        except KeyError as exc:
            # Unknown scenario or policy: a usage error, not a traceback.
            print(f"error: {exc.args[0]}", file=sys.stderr)
            print(
                "hint: 'scenario list' prints the catalogue",
                file=sys.stderr,
            )
            return 2
        except ValueError as exc:
            if args.chaos is None:
                raise
            # A schedule that parsed but cannot run on this scenario's
            # environment is still a usage error, caught pre-simulation.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _emit(result.format_table(), result, args.csv)
    elif args.command == "reproduce":
        from repro.store import load_manifest, run_reproduction

        if args.no_store and args.store_dir is not None:
            parser.error(
                "--store-dir names a shard cache but --no-store disables "
                "caching; pass one or the other"
            )
        if (args.claim or args.merge_only) and args.no_store:
            flag = "--claim" if args.claim else "--merge-only"
            parser.error(
                f"{flag} coordinates work through the shard store; "
                "drop --no-store"
            )
        try:
            manifest = load_manifest(args.manifest)
        except (OSError, ValueError) as exc:
            print(f"error: invalid manifest: {exc}", file=sys.stderr)
            return 2
        if args.list_artifacts:
            from repro.utils.tables import format_table

            rows = [
                [
                    spec.name,
                    spec.kind,
                    ", ".join(
                        f"{k}={v}" for k, v in sorted(spec.params.items())
                    )
                    or "—",
                ]
                for spec in manifest.artifacts
            ]
            print(
                format_table(
                    ["artifact", "kind", "parameters"],
                    rows,
                    title=f"Manifest — {manifest.title}",
                )
            )
            return 0
        from repro.execution import ExecutionContext
        from repro.store import ExperimentStore

        store = None
        if not args.no_store:
            store = ExperimentStore(
                args.store_dir
                if args.store_dir is not None
                else args.results_dir / ".store"
            )
        try:
            report = run_reproduction(
                manifest,
                results_dir=args.results_dir,
                context=ExecutionContext(
                    workers=args.workers,
                    store=store,
                    claim=args.claim,
                    merge_only=args.merge_only,
                ),
                only=args.only,
                echo=args.echo,
            )
        except ValueError as exc:  # unknown --only name, bad params, ...
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.format_table())
    else:  # pragma: no cover - argparse enforces choices
        raise AssertionError(f"unhandled command {args.command!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
