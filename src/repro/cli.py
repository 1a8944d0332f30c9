"""Command-line interface.

A small CLI exposing the operations a user of the library reaches for most
often, without writing Python:

``python -m repro canonicalize URL``
    Print the Safe Browsing canonical form of a URL.
``python -m repro decompose URL``
    Print the decompositions of a URL with their 32-bit prefixes (the
    paper's Table 4 for any URL).
``python -m repro prefix EXPRESSION [--bits N]``
    Hash-and-truncate a canonical expression.
``python -m repro track URL [URL ...] [--delta N]``
    Run Algorithm 1 over the given site URLs for the first URL as target.
``python -m repro experiment NAME``
    Regenerate one of the paper's tables/figures at SMALL scale and print it.
``python -m repro fleet [--scale NAME] [--mode MODE] ...``
    Run the fleet traffic simulator (N clients, one server, one shared
    clock) and print per-mode throughput, server traffic and cache rates.
    ``--churn FRACTION [--restart-interval N] [--cold-restart]`` restarts
    clients mid-simulation and reports the sync bandwidth warm starts save.
    ``--workers N`` runs the process-parallel engine (client shards over
    worker processes, exactly-merged accounting); ``--profile NAME``
    assigns a heterogeneous population from the profile registry.
``python -m repro ingest [--storage KIND] [--path FILE] ...``
    Stream synthetic list mutations into a live server in committed batches
    while clients keep polling, and print what the run verified (versioned
    reads, convergence).  ``--storage sqlite --path FILE`` leaves a durable
    SQLite database behind.
``python -m repro serve [--host HOST] [--port N] ...``
    Provision a server at scale and serve it over real sockets: the
    asyncio network service speaking the versioned wire format on
    ``/safebrowsing/downloads`` and ``/safebrowsing/gethash``, with
    Prometheus metrics on ``/metrics``.  ``repro fleet --transport http``
    drives the same service co-hosted in a background thread.
``python -m repro snapshot save|load PATH``
    Persist a provisioned server database to a SQLite file, or verify and
    summarize an existing snapshot (a SQLite server file or a client
    snapshot); ``load --summary`` adds per-list versions and full-hash
    counts.
``python -m repro metrics [--format prometheus|json]``
    Run a small fully-instrumented fleet and print its metrics registry in
    Prometheus text exposition format (or JSON) — the quickest way to see
    the metric catalog live.  ``repro fleet --metrics-json PATH`` collects
    the same registry for any fleet run and writes it as JSON, and
    ``repro ingest --progress-every N`` prints a progress heartbeat every
    N live batches.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from repro.exceptions import ReproError
from repro.experiments.profiles import PROFILE_FACTORIES
from repro.hashing.digests import url_prefix
from repro.safebrowsing.storage import STORAGE_KINDS
from repro.urls.canonicalize import canonicalize
from repro.urls.decompose import decompositions

#: Experiment names accepted by ``repro experiment`` mapped to the callables
#: that build their tables (imported lazily: some are expensive).
_EXPERIMENTS: dict[str, str] = {
    "table1": "repro.experiments.table01_google_lists:google_lists_table",
    "table2": "repro.experiments.table02_cache_size:cache_size_table",
    "table3": "repro.experiments.table03_yandex_lists:yandex_lists_table",
    "table4": "repro.experiments.table04_pets_decompositions:pets_decomposition_table",
    "table5": "repro.experiments.table05_balls_into_bins:balls_into_bins_table",
    "table6": "repro.experiments.table06_collision_types:collision_type_table",
    "table7": "repro.experiments.table07_domain_hierarchy:hierarchy_table",
    "table8": "repro.experiments.table08_datasets:dataset_table",
    "table9": "repro.experiments.table10_inversion:dictionary_table",
    "table10": "repro.experiments.table10_inversion:inversion_table",
    "table11": "repro.experiments.table11_orphans:orphan_table",
    "table12": "repro.experiments.table12_multi_prefix:multi_prefix_table",
    "fig5": "repro.experiments.fig05_distributions:headline_table",
    "fig6": "repro.experiments.fig06_prefix_collisions:collision_table",
    "tracking": "repro.experiments.alg1_tracking:tracking_table",
    "mitigations": "repro.experiments.mitigation_comparison:mitigation_table",
    "ecosystem": "repro.experiments.ecosystem_leakage:ecosystem_table",
    "history": "repro.experiments.history_reconstruction:history_table",
    "stores": "repro.experiments.structure_ablation:structure_ablation_table",
    "fleet": "repro.experiments.fleet:fleet_table",
    "fleet-adversary": "repro.experiments.fleet:fleet_adversary_table",
    "fleet-parallel": "repro.experiments.parallel:fleet_parallel_table",
    "armsrace": "repro.experiments.armsrace:armsrace_table",
    "ingestion": "repro.experiments.ingestion:ingestion_table",
}

#: Scale tiers offered by ``repro fleet``.  LARGE/XLARGE are the
#: process-parallel tiers (~10^5/10^6 clients) — pair them with --workers.
_FLEET_SCALES = ("small", "medium", "large", "xlarge")


def _resolve_experiment(name: str) -> Callable[[], object]:
    """Import the table builder for a named experiment."""
    target = _EXPERIMENTS[name]
    module_name, _, attribute = target.partition(":")
    module = __import__(module_name, fromlist=[attribute])
    builder = getattr(module, attribute)
    # Experiments that take no scale argument are called as-is; the rest use
    # their default (SMALL) scale.
    return builder


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Privacy Analysis of Google and Yandex Safe Browsing'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    canonical = subparsers.add_parser("canonicalize",
                                      help="print the canonical form of a URL")
    canonical.add_argument("url")

    decompose = subparsers.add_parser("decompose",
                                      help="print the decompositions and prefixes of a URL")
    decompose.add_argument("url")
    decompose.add_argument("--bits", type=int, default=32,
                           help="prefix width in bits (default 32)")

    prefix = subparsers.add_parser("prefix",
                                   help="hash-and-truncate a canonical expression")
    prefix.add_argument("expression")
    prefix.add_argument("--bits", type=int, default=32)

    track = subparsers.add_parser(
        "track", help="run Algorithm 1: choose tracking prefixes for a target URL")
    track.add_argument("target", help="the URL to track")
    track.add_argument("site_urls", nargs="*",
                       help="other URLs known to be hosted on the same domain")
    track.add_argument("--delta", type=int, default=4,
                       help="maximum number of Type I colliders to blacklist")

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures")
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))

    fleet = subparsers.add_parser(
        "fleet", help="simulate a fleet of clients and report throughput")
    fleet.add_argument("--scale", choices=list(_FLEET_SCALES), default="small",
                       help="workload size (default small; large/xlarge are "
                            "the ~10^5/10^6-client parallel tiers)")
    fleet.add_argument("--mode", choices=["scalar", "batched", "both"],
                       default="both",
                       help="lookup path to drive (default: compare both)")
    fleet.add_argument("--clients", type=int, default=None,
                       help="override the number of simulated clients")
    fleet.add_argument("--urls", type=int, default=None,
                       help="override the stream length per client")
    fleet.add_argument("--batch-size", type=int, default=None,
                       help="override the page-load batch size")
    fleet.add_argument("--store-backend", default=None, metavar="NAME",
                       help="client store backend (default: numpy when "
                            "numpy is installed, else raw); an unknown name "
                            "prints the registered ones")
    fleet.add_argument("--workers", type=int, default=None, metavar="N",
                       help="run the fleet sharded over N worker processes "
                            "(the process-parallel engine; requires --mode "
                            "scalar or batched)")
    fleet.add_argument("--profile", choices=sorted(PROFILE_FACTORIES),
                       default=None, metavar="NAME",
                       help="population profile assigning per-client "
                            f"behaviour: one of {', '.join(sorted(PROFILE_FACTORIES))} "
                            "(default uniform)")
    fleet.add_argument("--seed", type=int, default=None,
                       help="override the traffic seed")
    fleet.add_argument("--transport", default="in-process", metavar="KIND",
                       help="client<->server boundary (default "
                            "in-process); an unknown kind prints the "
                            "registered ones")
    fleet.add_argument("--latency", type=float, default=None, metavar="SECONDS",
                       help="simulated network latency per request")
    fleet.add_argument("--failure-rate", type=float, default=None,
                       help="simulated network failure probability in [0, 1)")
    fleet.add_argument("--http-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="socket timeout for --transport http "
                            "(default 10)")
    fleet.add_argument("--http-retries", type=int, default=None, metavar="N",
                       help="connection-level retries for --transport http "
                            "(default 2)")
    fleet.add_argument("--server-cache-seconds", type=float, default=None,
                       help="TTL of the server full-hash response cache "
                            "(0 disables)")
    fleet.add_argument("--adversary", action="store_true",
                       help="run the streaming tracking adversary alongside "
                            "the fleet and score it against planted visits")
    fleet.add_argument("--tracked-targets", type=int, default=None,
                       metavar="N",
                       help="how many targets the adversary tracks "
                            "(default: the scale's tracked_targets; "
                            "implies --adversary)")
    fleet.add_argument("--privacy-policy", default="none", metavar="POLICY",
                       help="client-side defense installed on every client "
                            "(default none); an unknown name prints the "
                            "registered ones")
    fleet.add_argument("--dummy-count", type=int, default=None, metavar="N",
                       help="dummies per real prefix for --privacy-policy "
                            "dummy (default 4)")
    fleet.add_argument("--widen-bits", type=int, default=None, metavar="BITS",
                       help="revealed prefix width for --privacy-policy "
                            "widen (default 16)")
    fleet.add_argument("--mix-pool", type=int, default=None, metavar="N",
                       help="replayed prefixes per request for "
                            "--privacy-policy mix (default 8)")
    fleet.add_argument("--mix-delay", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request delay for --privacy-policy mix "
                            "(default 0.25)")
    fleet.add_argument("--churn", type=float, default=None, metavar="FRACTION",
                       help="fraction of the fleet restarted at every churn "
                            "point (enables client churn)")
    fleet.add_argument("--restart-interval", type=int, default=None,
                       metavar="ROUNDS",
                       help="rounds between churn points (default 1 when "
                            "--churn is given)")
    fleet.add_argument("--cold-restart", action="store_true",
                       help="restarted clients cold-start empty instead of "
                            "warm-starting from a snapshot")
    fleet.add_argument("--server-storage", choices=STORAGE_KINDS,
                       default=None, metavar="KIND",
                       help="server database storage backend: one of "
                            f"{', '.join(STORAGE_KINDS)} "
                            "(default memory)")
    fleet.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="collect the full metrics registry for the run "
                            "and write it as JSON to PATH (requires --mode "
                            "scalar or batched)")

    ingest = subparsers.add_parser(
        "ingest", help="stream list mutations into a live server while "
                       "clients keep polling")
    ingest.add_argument("--storage", choices=STORAGE_KINDS,
                        default="sqlite",
                        help="server storage backend (default sqlite)")
    ingest.add_argument("--path", default=None, metavar="FILE",
                        help="SQLite database file for --storage sqlite "
                             "(default: in-memory)")
    ingest.add_argument("--transport", default="in-process", metavar="KIND",
                        help="client<->server boundary, a local kind "
                             "(default in-process); an unknown kind prints "
                             "the supported ones")
    ingest.add_argument("--initial", type=int, default=2000, metavar="N",
                        help="entries ingested before clients connect "
                             "(default 2000)")
    ingest.add_argument("--live", type=int, default=1000, metavar="N",
                        help="entries streamed in while clients poll "
                             "(default 1000)")
    ingest.add_argument("--batch-size", type=int, default=250, metavar="N",
                        help="mutations applied per commit (default 250)")
    ingest.add_argument("--clients", type=int, default=3, metavar="N",
                        help="polling clients (default 3)")
    ingest.add_argument("--seed", type=int, default=7,
                        help="stream seed (default 7)")
    ingest.add_argument("--progress-every", type=int, default=0, metavar="N",
                        help="print a progress line every N live batches "
                             "(0, the default, disables the heartbeat)")

    serve = subparsers.add_parser(
        "serve", help="serve a provisioned server over real sockets "
                      "(wire-format endpoints + /metrics)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="port to bind (default 0: pick an ephemeral "
                            "port and print it)")
    serve.add_argument("--provider", choices=["google", "yandex"],
                       default="google",
                       help="whose lists to provision (default google)")
    serve.add_argument("--scale", choices=["small", "medium"],
                       default="small",
                       help="workload size (default small)")
    serve.add_argument("--storage", choices=STORAGE_KINDS,
                       default="memory",
                       help="server storage backend (default memory)")
    serve.add_argument("--path", default=None, metavar="FILE",
                       help="SQLite database file for --storage sqlite "
                            "(default: in-memory)")
    serve.add_argument("--sync-clock", action="store_true",
                       help="advance the server's manual clock to each "
                            "request's timestamp (deterministic replay)")
    serve.add_argument("--duration", type=float, default=None,
                       metavar="SECONDS",
                       help="stop after SECONDS (default: serve until "
                            "interrupted) — used by the CI smoke test")

    metrics = subparsers.add_parser(
        "metrics", help="run a small instrumented fleet and print its "
                        "metrics registry")
    metrics.add_argument("--format", choices=["prometheus", "json"],
                         default="prometheus",
                         help="exposition format (default prometheus)")

    snapshot = subparsers.add_parser(
        "snapshot", help="save or inspect a persistent database snapshot")
    snapshot_commands = snapshot.add_subparsers(dest="snapshot_command",
                                                required=True)
    snapshot_save = snapshot_commands.add_parser(
        "save", help="provision a server at scale and save its database "
                     "as a SQLite file")
    snapshot_save.add_argument("path", help="SQLite file to write")
    snapshot_save.add_argument("--provider", choices=["google", "yandex"],
                               default="google",
                               help="whose lists to provision (default google)")
    snapshot_save.add_argument("--scale", choices=["small", "medium"],
                               default="small",
                               help="workload size (default small)")
    snapshot_load = snapshot_commands.add_parser(
        "load", help="verify a snapshot (version; checksum for client "
                     "snapshots) and summarize it")
    snapshot_load.add_argument("path", help="snapshot file to inspect")
    snapshot_load.add_argument("--summary", action="store_true",
                               help="print a per-list table: version, "
                                    "prefix and full-hash counts")

    return parser


def _command_canonicalize(args: argparse.Namespace) -> int:
    print(canonicalize(args.url))
    return 0


def _command_decompose(args: argparse.Namespace) -> int:
    for expression in decompositions(args.url):
        print(f"{expression}\t{url_prefix(expression, args.bits)}")
    return 0


def _command_prefix(args: argparse.Namespace) -> int:
    print(url_prefix(args.expression, args.bits))
    return 0


def _command_track(args: argparse.Namespace) -> int:
    from repro.analysis.inverted_index import PrefixInvertedIndex
    from repro.analysis.tracking import tracking_prefixes

    index = PrefixInvertedIndex()
    index.add_url(args.target)
    index.add_urls(args.site_urls)
    decision = tracking_prefixes(args.target, index, delta=args.delta)
    print(f"target : {decision.target_url}")
    print(f"domain : {decision.target_domain}")
    print(f"mode   : {decision.mode.value}")
    print(f"type I : {len(decision.type1_collisions)} colliding URL(s)")
    print("prefixes to insert in the client database:")
    for expression, prefix in zip(decision.expressions, decision.prefixes):
        print(f"  {prefix}  {expression}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    builder = _resolve_experiment(args.name)
    print(builder())
    return 0


def _command_fleet(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.experiments.fleet import FleetConfig, fleet_table, run_fleet
    from repro.experiments.scale import LARGE, MEDIUM, SMALL, XLARGE

    scale = {"small": SMALL, "medium": MEDIUM,
             "large": LARGE, "xlarge": XLARGE}[args.scale]
    overrides = {}
    if args.clients is not None:
        overrides["clients"] = args.clients
    if args.urls is not None:
        overrides["fleet_urls_per_client"] = args.urls
    if args.batch_size is not None:
        overrides["fleet_batch_size"] = args.batch_size
    if overrides:
        try:
            scale = dc_replace(scale, name=f"{scale.name}-custom", **overrides)
        except ValueError as error:
            # Scale validation raises plain ValueError; surface it like every
            # other CLI input error instead of a traceback.
            print(f"error: {error}", file=sys.stderr)
            return 2

    config = FleetConfig(transport=args.transport)
    if args.store_backend is not None:
        config = dc_replace(config, store_backend=args.store_backend)
    if args.profile is not None:
        config = dc_replace(config, profile=args.profile)
    if args.seed is not None:
        config = dc_replace(config, seed=args.seed)
    if args.latency is not None:
        config = dc_replace(config, latency_seconds=args.latency)
    if args.failure_rate is not None:
        config = dc_replace(config, failure_rate=args.failure_rate)
    if args.http_timeout is not None:
        config = dc_replace(config, http_timeout_seconds=args.http_timeout)
    if args.http_retries is not None:
        config = dc_replace(config, http_retries=args.http_retries)
    if args.server_cache_seconds is not None:
        config = dc_replace(config, server_cache_seconds=args.server_cache_seconds)
    if args.server_storage is not None:
        config = dc_replace(config, server_storage=args.server_storage)
    if args.adversary or args.tracked_targets is not None:
        # --tracked-targets implies the adversary: a target count with no
        # adversary to track it would otherwise be silently ignored.
        config = dc_replace(config, adversary=True,
                            tracked_target_count=args.tracked_targets)
    if args.privacy_policy != "none":
        config = dc_replace(config, privacy_policy=args.privacy_policy)
    if args.dummy_count is not None:
        config = dc_replace(config, dummy_count=args.dummy_count)
    if args.widen_bits is not None:
        config = dc_replace(config, widen_bits=args.widen_bits)
    if args.mix_pool is not None:
        config = dc_replace(config, mix_pool_size=args.mix_pool)
    if args.mix_delay is not None:
        config = dc_replace(config, mix_delay_seconds=args.mix_delay)
    if args.churn is not None:
        # --churn implies a restart cadence: default to every round unless
        # --restart-interval names one (an explicit invalid value like 0 is
        # passed through so FleetConfig rejects it rather than being
        # silently rewritten).
        interval = (1 if args.restart_interval is None
                    else args.restart_interval)
        config = dc_replace(config, churn_fraction=args.churn,
                            restart_interval=interval,
                            warm_start=not args.cold_restart)
    elif args.restart_interval is not None or args.cold_restart:
        print("error: --restart-interval/--cold-restart require --churn",
              file=sys.stderr)
        return 2

    if args.metrics_json is not None:
        if args.mode == "both":
            print("error: --metrics-json requires --mode scalar or batched",
                  file=sys.stderr)
            return 2
        config = dc_replace(config, collect_metrics=True)

    if args.workers is not None:
        from repro.experiments.parallel import run_parallel_fleet

        if args.mode == "both":
            print("error: --workers requires --mode scalar or batched",
                  file=sys.stderr)
            return 2
        report = run_parallel_fleet(scale, dc_replace(config, mode=args.mode),
                                    workers=args.workers)
        _print_fleet_report(report)
        _write_metrics_json(report, args.metrics_json)
        return 0

    if args.mode == "both":
        print(fleet_table(scale, config).render())
        return 0
    report = run_fleet(scale, dc_replace(config, mode=args.mode))
    _print_fleet_report(report)
    _write_metrics_json(report, args.metrics_json)
    return 0


def _write_metrics_json(report, path: str | None) -> None:
    """Write a fleet report's merged metrics snapshot as JSON to ``path``."""
    if path is None:
        return
    import json

    from repro.observability.export import render_json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(render_json(report.metrics), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    print(f"metrics         : wrote {path}")


def _print_fleet_report(report) -> None:
    print(f"mode            : {report.mode}")
    print(f"transport       : {report.transport}")
    print(f"clients         : {report.clients}")
    if report.workers > 1 or report.shards > 1:
        print(f"workers         : {report.workers}")
        print(f"client shards   : {report.shards}")
    if report.profile != "uniform":
        print(f"profile         : {report.profile}")
    if report.offline_client_rounds:
        print(f"offline rounds  : {report.offline_client_rounds}")
    print(f"URLs checked    : {report.urls_checked}")
    print(f"URLs/s          : {report.urls_per_second:,.0f}")
    print(f"full-hash reqs  : {report.server_full_hash_requests}")
    print(f"update reqs     : {report.server_update_requests}")
    print(f"prefixes sent   : {report.server_prefixes_received}")
    print(f"cache hit rate  : {report.cache_hit_rate:.4f}")
    print(f"server cache    : {report.server_cache_hit_rate:.4f}")
    print(f"malicious       : {report.malicious_verdicts}")
    print(f"log evictions   : {report.log_entries_evicted}")
    if report.client_restarts:
        kind = "warm" if report.warm_start else "cold"
        print(f"client restarts : {report.client_restarts} ({kind})")
        if report.reconnect_restarts:
            print(f"  on reconnect  : {report.reconnect_restarts}")
        print(f"resumed prefixes: {report.warm_start_prefixes_resumed}")
        print(f"sync prefixes   : {report.client_update_prefixes_received}")
        print(f"sync saved      : "
              f"{report.warm_start_bandwidth_saved_fraction:.2%}")
    if report.transport != "in-process":
        print(f"net failures    : {report.transport_failures}")
    if report.privacy_policy != "none":
        print(f"privacy policy  : {report.privacy_policy}")
        print(f"client prefixes : {report.client_prefixes_sent} "
              f"({report.client_dummy_prefixes_sent} cover traffic)")
        print(f"bw overhead     : {report.bandwidth_overhead_ratio:.2f}")
        print(f"k-anon (1 pfx)  : {report.single_prefix_k_anonymity:.2f}")
        print(f"extra roundtrips: {report.client_extra_round_trips}")
        if report.policy_delay_seconds:
            print(f"policy delay    : {report.policy_delay_seconds:.1f}s")
    if report.adversary:
        print(f"tracked targets : {report.tracked_targets}")
        print(f"detections      : {report.tracking_detections}")
        print(f"detected pairs  : {report.tracking_detected_pairs}"
              f"/{report.tracking_true_pairs}")
        print(f"precision       : {report.tracking_precision:.4f}")
        print(f"recall          : {report.tracking_recall:.4f}")


def _command_ingest(args: argparse.Namespace) -> int:
    from repro.experiments.ingestion import ingestion_table

    if args.path is not None and args.storage != "sqlite":
        print("error: --path requires --storage sqlite", file=sys.stderr)
        return 2
    table = ingestion_table(
        storage=args.storage, storage_path=args.path,
        transport=args.transport, initial=args.initial, live=args.live,
        batch_size=args.batch_size, clients=args.clients, seed=args.seed,
        progress_every=args.progress_every)
    print(table.render())
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.experiments.scale import MEDIUM, SMALL, get_context
    from repro.safebrowsing.lists import ListProvider
    from repro.safebrowsing.netservice import NetService

    if args.path is not None and args.storage != "sqlite":
        print("error: --path requires --storage sqlite", file=sys.stderr)
        return 2
    provider = (ListProvider.GOOGLE if args.provider == "google"
                else ListProvider.YANDEX)
    scale = SMALL if args.scale == "small" else MEDIUM
    server = get_context(scale).provision_server(
        provider, storage=args.storage, storage_path=args.path)
    service = NetService(server, host=args.host, port=args.port,
                         sync_clock=args.sync_clock)
    # /metrics renders the service registry: put the core's counters on it.
    server.set_metrics(service.metrics)

    async def _serve() -> None:
        await service.start()
        print(f"serving {args.provider} lists ({scale.name} scale) "
              f"on http://{service.address[0]}:{service.port}", flush=True)
        print("endpoints       : /safebrowsing/downloads "
              "/safebrowsing/gethash /metrics /healthz", flush=True)
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.experiments.fleet import FleetConfig, run_fleet
    from repro.experiments.scale import SMALL
    from repro.observability.export import render_json, render_prometheus

    config = FleetConfig(collect_metrics=True)
    report = run_fleet(SMALL, dc_replace(config, mode="batched"))
    if args.format == "json":
        import json

        print(json.dumps(render_json(report.metrics), indent=2,
                         sort_keys=True))
    else:
        print(render_prometheus(report.metrics), end="")
    return 0


def _command_snapshot(args: argparse.Namespace) -> int:
    from repro.experiments.scale import MEDIUM, SMALL, get_context
    from repro.safebrowsing.lists import ListProvider
    from repro.safebrowsing.snapshot import inspect_snapshot, save_server_snapshot

    if args.snapshot_command == "save":
        provider = (ListProvider.GOOGLE if args.provider == "google"
                    else ListProvider.YANDEX)
        scale = SMALL if args.scale == "small" else MEDIUM
        server = get_context(scale).provision_server(provider)
        path = save_server_snapshot(server, args.path)
        info = inspect_snapshot(path)
        print(f"wrote {path} ({info.payload_bytes} payload bytes, "
              f"{info.container} container)")
        print(f"lists           : {len(info.lists)}")
        print(f"total prefixes  : {info.total_prefixes}")
        return 0

    info = inspect_snapshot(args.path)
    print(f"kind            : {info.kind}")
    print(f"container       : {info.container}")
    print(f"format version  : {info.format_version}")
    if info.kind == "client":
        # Only the client format carries a checksum, verified by inspect.
        print("checksum        : OK")
    print(f"prefix bits     : {info.prefix_bits}")
    print(f"backend         : {info.backend}")
    print(f"payload bytes   : {info.payload_bytes}")
    print(f"total prefixes  : {info.total_prefixes}")
    if args.summary:
        for summary in info.lists:
            version = "-" if summary.version is None else summary.version
            hashes = ("-" if summary.full_hashes is None
                      else summary.full_hashes)
            print(f"  {summary.name}: version={version} "
                  f"prefixes={summary.prefixes} full-hashes={hashes}")
    else:
        for summary in info.lists:
            print(f"  {summary.name}: {summary.prefixes}")
    return 0


_COMMANDS = {
    "canonicalize": _command_canonicalize,
    "decompose": _command_decompose,
    "prefix": _command_prefix,
    "track": _command_track,
    "experiment": _command_experiment,
    "fleet": _command_fleet,
    "ingest": _command_ingest,
    "serve": _command_serve,
    "snapshot": _command_snapshot,
    "metrics": _command_metrics,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
